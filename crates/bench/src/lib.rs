//! The simulated-clock harness behind the `repro` binary. (Wall clock is
//! `perf/`'s job.)
//!
//! - [`figures`]: the paper's evaluation (§5), one [`figures::Figure`]
//!   row per figure in [`figures::FIGURES`] (selector, title, the
//!   paper's statements, how to compute it), and the [`figures::Lab`]
//!   that computes each figure, and each shared experiment point, once
//!   per process.
//! - [`claims`]: the paper's claims as `(name, pass, detail)` rows, a
//!   pure function of the figures' rows.
//! - [`scale`]: the sharded scaling table.
//!
//! [`figures::Scale::full`] is the one set of run lengths `repro` uses.

pub mod claims;
pub mod figures;
pub mod scale;
