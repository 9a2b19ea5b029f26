//! The simulated-clock harness behind the `repro` binary: one function
//! per figure of the paper's evaluation (§5) in [`figures`], and the
//! sharded scaling table in [`scale`]. (Wall clock is `perf/`'s job.)
//!
//! Every function returns printable rows so EXPERIMENTS.md can record
//! paper-vs-measured numbers; `Scale::full()` is the one set of run
//! lengths `repro` uses.

pub mod figures;
pub mod scale;

pub use figures::Scale;
