#![warn(missing_docs)]
//! # iolite-storm: deterministic whole-system fault storms
//!
//! The rest of the workspace tests the serving path from the inside —
//! unit properties on the reassembly queue, replay equivalence on the
//! journal, scripted event-loop runs over an ideal wire. This crate
//! attacks it from the outside: the **real** [`EventLoopServer`]
//! (single-shard and sharded), with its real kernel, cache, checksum
//! cache, and readiness discipline, is driven over an **adversarial
//! TCP wire** on simulated time. Segments are lost, duplicated, and
//! reordered; clients dribble bytes slowloris-style, reset mid-response,
//! and churn; retransmission timers fire and go-back-N floods the
//! reassembly queue with overlapping duplicates.
//!
//! The contract is the paper's (§5.7 extended): under any such storm
//! the server must produce byte-identical responses with an identical
//! checksum-cache profile to a clean sequential run, never block on
//! I/O, never leak a buffer pin, and the whole run must be a pure
//! function of the [`StormConfig`] — same seed, same everything, down
//! to the kernel `state_hash` and [`Metrics`](iolite_core::Metrics).
//! Clippy holds it to that: this crate's `clippy.toml` is `crates/core`'s.
//!
//! # Architecture map
//!
//! ```text
//!                         ┌────────────────────────────────────────┐
//!                         │      run::Storm (the engine)           │
//!   StormConfig ──plan()──▶  corpus, scripts, roles, conn ids      │
//!        │                │                                        │
//!        │   SimRng fork(4): per-segment fault coin flips          │
//!        ▼                │                                        │
//!   EventQueue ◀──────────┤  Tick ─ tick every shard, pump fabric, │
//!   (one clock,           │         harvest completions/bytes      │
//!    FIFO ties)           │  Seg ──▶ TcpReceiver reassembly        │
//!        │                │     Req: socket_deliver → parser       │
//!        │                │     Resp: verify pattern bytes         │
//!        │                │  Ack ──▶ WireSender window slides;     │
//!        │                │     Resp acks → socket_drain           │
//!        │                │  Rto ──▶ go-back-N rewind + resend     │
//!        │                │  Dribble/Consume ─ slowloris pacing    │
//!        │                │  Reset ─ socket_peer_close mid-stream  │
//!        └────────────────┴────────────────────────────────────────┘
//!              per client, per direction:
//!        WireSender (seq-space window, epoch-guarded RTO)
//!              │ segments              ▲ cumulative ACKs
//!              ▼                       │
//!        TcpReceiver (the real iolite-net reorder queue)
//! ```
//!
//! Layering: the wire model (`wire::WireSender`) holds **no payloads and no
//! clocks** — request bytes live in one append-only stream per client,
//! response bytes are a deterministic pattern keyed by (connection, offset),
//! and all timing flows through [`EventQueue`](iolite_sim::EventQueue).
//! The server is in [`external_wire`] mode: the harness plays the
//! remote peer for every socket, so bytes reach the kernel only
//! through `socket_deliver` (after reassembly) and leave its send
//! buffer only through `socket_drain` (as simulated ACKs arrive).
//! Because both are journaled [`Command`]s, a storm run — faults and
//! all — **replays exactly** through the pure core.
//!
//! Failure handling: [`run_storm`] records contract violations
//! (pattern corruption, drain shortfalls, pin leaks, `blocked_io`,
//! wedged runs) in [`StormReport::violations`]; [`campaign`] sweeps
//! seeds and returns the first failing seed, which lands verbatim in
//! `tests/storm_regressions.rs` as a permanent reproducer.
//!
//! [`EventLoopServer`]: iolite_http::EventLoopServer
//! [`external_wire`]: iolite_http::EventLoopConfig::external_wire
//! [`Command`]: iolite_core::Command

pub mod config;
pub mod run;
mod wire;

pub use config::StormConfig;
pub use run::{campaign, plan, run_storm, StormPlan, StormReport, WireStats};
