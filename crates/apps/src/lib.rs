#![warn(missing_docs)]
//! Converted UNIX applications (paper §5.8, Figure 13).
//!
//! The paper ports GNU `cat`, `wc`, `grep`, a `permute` generator, and
//! the gcc compiler chain to the IO-Lite API and measures runtime
//! reductions of 37% (wc), 48% (grep via cat), 33% (permute|wc) and ~0%
//! (gcc). Each application here is implemented twice over the simulated
//! kernel:
//!
//! * **POSIX mode** — `read`/`write` with copy semantics; pipes copy in
//!   and out of the kernel buffer.
//! * **IO-Lite mode** — `IOL_read`/`IOL_write`; aggregates pass through
//!   pipes by reference; `grep` copies only lines that straddle buffer
//!   boundaries into contiguous memory (the paper's one conversion
//!   wrinkle); page-mapping costs appear exactly where the paper says
//!   they are ("the remaining overhead in the IO-Lite case is due to
//!   page mapping").
//!
//! The computations are real — `wc` counts real words, `grep` matches
//! real lines, `permute` emits real permutations — and their per-byte
//! compute costs ([`AppCosts`]) are calibrated so the *conventional*
//! runtimes land near Fig. 13's baselines.

pub mod compile;
pub mod costs;
pub mod grep;
pub mod permute;
pub mod wc;

pub use compile::CompilePipeline;
pub use costs::AppCosts;
pub use grep::{run_cat_grep, GrepResult};
pub use permute::run_permute_wc;
pub use wc::{run_wc, WcCounts};

use iolite_buf::Aggregate;
use iolite_core::{short_ok, Fd, IolError, Kernel, Pid};

/// Pushes `data` from the `producer` end of a pipe to the `consumer`
/// end, the two alternating on one CPU. Each round is one write (short
/// once the pipe fills), one read by the consumer (which may find the
/// pipe empty) handing what arrived to `consume`, and, while data is
/// left, a producer/consumer context-switch pair.
///
/// # Panics
///
/// Panics if the consumer's read fails other than by `WouldBlock`, or
/// the write finds no reader: every caller holds both ends for the run.
fn push_through_pipe(
    kernel: &mut Kernel,
    (producer, wfd): (Pid, Fd),
    (consumer, rfd): (Pid, Fd),
    data: &Aggregate,
    mut consume: impl FnMut(&mut Kernel, &Aggregate),
) {
    let mut sent = 0u64;
    while sent < data.len() {
        let rest = data.range(sent, data.len() - sent).expect("in range");
        sent += short_ok(kernel.iol_write_fd(producer, wfd, &rest))
            .expect("the consumer holds the read end");
        match kernel.iol_read_fd(consumer, rfd, u64::MAX) {
            Ok((chunk, _)) => consume(kernel, &chunk),
            Err(IolError::WouldBlock) => {}
            Err(e) => panic!("pipe read failed: {e}"),
        }
        if sent < data.len() {
            // Blocked on a full pipe: producer/consumer switch pair.
            kernel.context_switch(2);
        }
    }
}

/// Which I/O API an application run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApiMode {
    /// Conventional copying `read`/`write`.
    Posix,
    /// The IO-Lite API (`IOL_read`/`IOL_write`, zero-copy pipes).
    IoLite,
}

impl ApiMode {
    /// The pipe mode this API implies.
    pub(crate) fn pipe_mode(self) -> iolite_ipc::PipeMode {
        match self {
            ApiMode::Posix => iolite_ipc::PipeMode::Copy,
            ApiMode::IoLite => iolite_ipc::PipeMode::ZeroCopy,
        }
    }
}
