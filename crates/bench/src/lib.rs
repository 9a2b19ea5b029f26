//! The simulated-clock harness behind the `repro` binary: one function
//! per figure of the paper's evaluation (§5) in [`figures`], and the
//! sharded scaling table in [`scale`]. (Wall clock is `perf/`'s job.)
//!
//! Every function returns printable rows so EXPERIMENTS.md can record
//! paper-vs-measured numbers; `Scale` trades run length for fidelity
//! (`repro` defaults to `Scale::full()`; `--fast` is `Scale::fast()`).

pub mod figures;
pub mod scale;

pub use figures::Scale;
