//! **iolite-lint** — the repo's contract checker: the ROADMAP's prose
//! invariants, turned into machine-checked rules.
//!
//! Every PR so far left behind a standing contract ("the pure core
//! stays pure", "the serving path never panics", "no locks in the
//! sharded kernel") that until now was enforced by review memory and
//! one brittle CI `grep`. This crate replaces that with a lexer-backed
//! checker: `cargo run --release -p iolite-lint` scans the tree,
//! prints `file:line: [rule] message` diagnostics, and exits nonzero
//! on any violation. CI runs it before clippy.
//!
//! # Rule catalog
//!
//! | rule | kind | contract |
//! |------|------|----------|
//! | `purity` | `scan` | `crates/core/src/pure/` is deterministic: no `std::io`/`std::time`/`std::fs`, no RNG, no wall-clock, no default-hasher `HashMap`/`HashSet` (their seed is OS entropy drawn implicitly) — journal replay (PR 6) depends on it. Robust to `use … as` renames (the `use` line spells the banned path) and immune to comment/string false positives (the old grep was not). |
//! | `no-lock` | `scan` | No `Mutex`/`RwLock` in the kernel, cache, or serving crates — the sharded design (PR 7) is shared-nothing; cross-shard communication goes over the fabric. |
//! | `hot-path-alloc` | `scan` | No `.to_vec()`/`.clone()`/`Vec::new`/`vec!` in the designated hot serving modules — the zero-copy aggregate discipline (PR 2). Deliberate copies carry an annotation. |
//! | `panic` | `scan` + budget | No `.unwrap()`/`.expect()`/`panic!` in the event loop or shard fabric (PR 5: a request must never kill the server). Justified sites are annotated and *budgeted*: the committed count may only shrink. |
//!
//! All four are rows of the one table, [`rules::RULES`], over the one
//! `scan` kind. What a compiler can check is left to it: `rustc` and
//! clippy keep `pure::step` exhaustive over `pure::Command` (wildcard
//! arms denied), and every state mutation journals a command by
//! construction — the `Kernel` shell has one private door to its state.
//!
//! # Annotation syntax
//!
//! ```text
//! // lint:allow(rule-name) — reason the contract is waived here
//! ```
//!
//! The annotation exempts its own line and the next line from the
//! named rule. The reason is **mandatory** — an annotation without one
//! is itself a diagnostic, as is one naming a rule not in the table.
//!
//! # Where a rule lives, how a budget is lowered
//!
//! [`rules::RULES`] is the whole configuration: each rule's paths,
//! bans and — for the budgeted three — the exact number of annotated
//! sites the tree may hold. The observed count must *equal* it, so
//! removing an exemption fails the run until the number is lowered in
//! the same diff, and the committed figure only ever goes down.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod lexer;
pub mod rules;
pub mod source;
