#![warn(missing_docs)]
//! Deterministic discrete-event simulation substrate for the IO-Lite
//! reproduction.
//!
//! The paper evaluates IO-Lite on a real testbed (333MHz Pentium II,
//! 128MB RAM, 5×100Mb/s Fast Ethernet). This crate provides the *time*
//! substrate that stands in for that hardware: a simulated clock, an event
//! queue with deterministic tie-breaking, FIFO resources (CPU, disk),
//! shared network links, a seedable pseudo-random number generator, the
//! distributions used for workload synthesis, and statistics collectors.
//!
//! Everything in this crate is deterministic: running the same experiment
//! with the same seed produces identical results on every platform. That
//! property is load-bearing for the reproduction — EXPERIMENTS.md records
//! numbers that `repro` must regenerate.

pub mod dist;
pub mod engine;
pub mod link;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{LogNormal, Zipf};
pub use engine::EventQueue;
pub use link::{Link, LinkSet};
pub use resource::FifoResource;
pub use rng::SimRng;
pub use stats::{RateMeter, Summary};
pub use time::SimTime;
