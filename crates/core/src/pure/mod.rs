//! The functional core of the kernel: pure state, commands, effects.
//!
//! # Architecture map (PR 6)
//!
//! The kernel is split into a **functional core** (this module) and an
//! **imperative shell** ([`crate::kernel::Kernel`]):
//!
//! ```text
//!            applications / drivers / benches
//!                         │
//!                         ▼
//!   ┌──────────────────────────────────────────────┐
//!   │ imperative shell  crate::kernel::Kernel      │  journals Commands,
//!   │   • public syscall surface (unchanged)       │  absorbs Effects into
//!   │   • Metrics, Journal, reused effect buffer   │  Metrics
//!   └──────────────┬───────────────────────────────┘
//!                  │  run(|state, fx| state.op(args, fx), make)
//!                  ▼
//!   ┌──────────────────────────────────────────────┐
//!   │ functional core  crate::pure                 │
//!   │   ops.rs      the operation table: one row   │
//!   │               per operation generates its    │
//!   │               Command, step arm and Kernel   │
//!   │               method                         │
//!   │   state.rs    KernelState: every byte of     │
//!   │               kernel state as a value        │
//!   │   ids.rs      IdAlloc: all id counters       │
//!   │   command.rs  Journal                        │
//!   │   effect.rs   Effect: side effects as data   │
//!   │   step.rs     replay                         │
//!   │   ops_file.rs file + cache + VM ops          │
//!   │   ops_pipe.rs pipe + console ops             │
//!   │   ops_socket.rs TCP socket ops               │
//!   │   ops_fd.rs   descriptor surface + poll      │
//!   └──────────────────────────────────────────────┘
//! ```
//!
//! The contract: every mutation of [`KernelState`] is a [`Command`]:
//! the shell's one door to the state (`Kernel::run`) names the command
//! each call journals, and [`step`] ([`replay`]'s engine) runs the same
//! `op_*` transitions. One row of `ops.rs` declares the variant, its
//! `step` arm and the method's `run` call together, so the live path and
//! replay cannot dispatch an operation differently. The transitions are
//! **deterministic** — no I/O, no wall-clock time, no randomness.
//! Observable side effects (CPU charges, copies, checksums, page
//! mappings, disk traffic) leave the core only as [`Effect`] values;
//! the shell folds them into [`crate::Metrics`]. Folding [`replay`]
//! over a recorded [`Journal`] from the initial state reproduces the
//! final [`KernelState::state_hash`] and metrics bit-for-bit.
//!
//! Purity is enforced by clippy in CI: `crates/core/clippy.toml` bans
//! clocks, the environment, threads, host files, sockets and processes,
//! and OS-seeded hashing across this crate, tests included.

mod command;
mod effect;
mod ids;
mod ops;
mod ops_fd;
mod ops_file;
mod ops_pipe;
mod ops_socket;
mod state;
mod step;

pub use command::Journal;
pub use effect::Effect;
pub use ids::{ConnId, PipeId};
pub use ops::{step, Command};
pub use state::{IoOutcome, KernelState, MappedFileCache};
pub use step::replay;
