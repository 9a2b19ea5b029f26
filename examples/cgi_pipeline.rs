//! Dynamic content via FastCGI with and without IO-Lite (paper §5.3).
//!
//! Shows the mechanism, not just the numbers: the same CGI process
//! serves its in-memory document through a copy-mode pipe (conventional)
//! and a pass-by-reference pipe (IO-Lite), and the kernel metrics reveal
//! where the bytes went.
//!
//! Run with: `cargo run --release --example cgi_pipeline`

use iolite::core::{CostModel, Kernel};
use iolite::http::{CgiProcess, ServerKind};
use iolite::ipc::PipeMode;
use iolite::net::{DEFAULT_MSS, DEFAULT_TSS};

fn main() {
    let doc_bytes = 100 << 10;
    for (kind, mode) in [
        (ServerKind::Flash, PipeMode::Copy),
        (ServerKind::FlashLite, PipeMode::ZeroCopy),
    ] {
        let mut kernel = Kernel::new(CostModel::pentium_ii_333());
        let server = kernel.spawn("server");
        let mut cgi = CgiProcess::new(&mut kernel, server, doc_bytes, mode);
        // The client connection is a kernel socket behind a descriptor:
        // `IOL_write` on it is the transmission (§3.4).
        let sock = kernel.socket_create(server, kind.buffer_mode(), DEFAULT_MSS, DEFAULT_TSS);

        // Two requests: the second shows the steady state (warm
        // mappings, warm checksum cache).
        let first = cgi
            .serve(&mut kernel, kind, sock, server)
            .expect("healthy pipe");
        let second = cgi
            .serve(&mut kernel, kind, sock, server)
            .expect("healthy pipe");

        println!(
            "=== {} ({:?} pipe), 100KB dynamic document ===",
            kind.label(),
            mode
        );
        println!(
            "  request CPU: first {:.2}ms, steady-state {:.2}ms",
            first.cpu.as_ms(),
            second.cpu.as_ms()
        );
        println!(
            "  bytes copied total: {} ({} per request steady-state)",
            kernel.metrics.bytes_copied,
            if mode == PipeMode::Copy {
                "3 copies of the body"
            } else {
                "zero"
            },
        );
        println!(
            "  checksummed: {} bytes, of which {} served from the checksum cache",
            kernel.metrics.bytes_checksummed + kernel.metrics.bytes_checksum_cached,
            kernel.metrics.bytes_checksum_cached
        );
        println!(
            "  new page mappings: {} (amortized to zero after warm-up)",
            kernel.metrics.pages_mapped
        );
        println!();
    }
    println!("Paper: conventional CGI halves server bandwidth; Flash-Lite keeps ~87%");
    println!("of its static-file speed while preserving CGI fault isolation.");
}
