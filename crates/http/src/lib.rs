#![warn(missing_docs)]
//! The Web-server harness: HTTP engine, the three server models of §5
//! (Flash, Flash-Lite, Apache), FastCGI support, and the closed-loop
//! experiment driver behind every figure.
//!
//! The three servers share one HTTP engine and differ exactly where the
//! paper says they differ:
//!
//! | | data path | cache policy | concurrency |
//! |---|---|---|---|
//! | Flash | mmap + copying `writev` | LRU page cache | event-driven |
//! | Flash-Lite | `IOL_read`/`IOL_write`, checksum cache | GDS (custom) | event-driven |
//! | Apache | mmap + copying `write` | LRU page cache | process-per-connection |
//!
//! The driver ([`driver::Experiment`]) runs closed-loop clients against
//! a simulated testbed (CPU, disk, five links) and reports aggregate
//! bandwidth exactly the way the paper's figures do.
//!
//! The event-driven architecture itself lives in [`event_loop`]: a
//! readiness-driven state machine (parse → open → stream-in-chunks →
//! drain) multiplexing thousands of nonblocking descriptors through
//! `Kernel::iol_poll`, byte- and checksum-cache-identical to the
//! sequential [`server::serve_static`] path (property-checked in
//! `tests/readiness.rs`).

pub mod cgi;
pub mod driver;
pub mod event_loop;
pub mod message;
pub mod server;
pub mod sharded;
pub mod workloads;

pub use cgi::CgiProcess;
pub use driver::{Experiment, ExperimentConfig, ExperimentResult};
pub use event_loop::{
    parse_put_entry, synthetic_put_body, CompletedRequest, EventLoopConfig, EventLoopServer,
    LoopReport, LoopStats, ShardContext, CGI_PREFIX,
};
pub use message::{
    created, parse_request, parse_request_agg, parse_request_head, parse_request_head_agg,
    put_request_bytes, request_bytes, response_header, Method, Request,
};
pub use server::{RequestCosts, ServerKind};
pub use sharded::{
    attach_fabric, run_round, run_sharded, ShardOutcome, ShardedConfig, ShardedReport,
};
pub use workloads::WorkloadKind;
