//! Workload definitions for the experiment driver.

use iolite_trace::Workload;

/// What the clients request.
#[derive(Debug, Clone)]
pub enum WorkloadKind {
    /// §5.1/§5.2: every client repeatedly requests one document of the
    /// given size.
    SingleFile {
        /// Document size in bytes.
        bytes: u64,
    },
    /// §5.4: shared-log replay of a trace — clients hand entries out of
    /// one log in order.
    TraceReplay {
        /// The synthesized workload.
        workload: Workload,
        /// Log length to replay (a statistically equivalent prefix of
        /// the full multi-million-request log).
        log_len: u64,
    },
    /// §5.5/§5.7: SpecWeb96-style random sampling from a trace.
    TraceSampled {
        /// The synthesized workload.
        workload: Workload,
    },
    /// §5.3: FastCGI dynamic content of the given size.
    Cgi {
        /// Dynamic document size in bytes.
        bytes: u64,
    },
}
