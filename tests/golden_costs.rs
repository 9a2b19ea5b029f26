//! Golden simulated costs: what each serving and application path
//! costs, to the nanosecond.
//!
//! The numbers were recorded when every caller still summed its
//! operations' charges by hand (`RequestCosts::parts`, `LoopStats::bill`,
//! the applications re-billing each outcome). Every kernel operation now
//! bills its own CPU into one ledger, and callers read what a request
//! cost as the ledger's change across it; a charge dropped, doubled or
//! moved to a path that did not pay it before shows here as a changed
//! digit.

use iolite::apps::{run_cat_grep, run_wc, ApiMode, AppCosts};
use iolite::core::{CostModel, Fd, Kernel, Pid};
use iolite::fs::Policy;
use iolite::http::server::serve_static;
use iolite::http::{CgiProcess, EventLoopConfig, EventLoopServer, ServerKind, CGI_PREFIX};
use iolite::ipc::PipeMode;
use iolite::net::{DEFAULT_MSS, DEFAULT_TSS};

/// `server.rs`'s rig: one 100 KB document open in the server, one
/// client socket in the server's buffering mode.
fn static_rig(kind: ServerKind) -> (Kernel, Pid, Fd, Fd) {
    let policy = match kind {
        ServerKind::FlashLite => Policy::Gds,
        _ => Policy::Lru,
    };
    let mut k = Kernel::with_policy(CostModel::pentium_ii_333(), policy);
    let pid = k.spawn("server");
    let f = k.create_synthetic_file("/doc", 100_000, 9);
    let file_fd = k.open_file(pid, f);
    let sock = k.socket_create(pid, kind.buffer_mode(), DEFAULT_MSS, DEFAULT_TSS);
    (k, pid, file_fd, sock)
}

#[test]
fn serve_static_costs_are_unchanged() {
    for (kind, cold_ns, warm_ns) in [
        (ServerKind::FlashLite, 1_429_575, 538_160),
        (ServerKind::Flash, 2_658_746, 2_188_746),
        (ServerKind::Apache, 3_509_202, 3_189_202),
    ] {
        let (mut k, pid, f, sock) = static_rig(kind);
        let cold = serve_static(&mut k, kind, sock, pid, f);
        if let Some(key) = cold.pin_key {
            k.cache_unpin(key);
        }
        let warm = serve_static(&mut k, kind, sock, pid, f);
        assert_eq!(cold.cpu.as_nanos(), cold_ns, "{kind:?} cold");
        assert_eq!(warm.cpu.as_nanos(), warm_ns, "{kind:?} warm");
    }
}

#[test]
fn cgi_costs_are_unchanged() {
    for (kind, mode, cold_ns, warm_ns) in [
        (ServerKind::Flash, PipeMode::Copy, 5_538_746, 5_538_746),
        (
            ServerKind::FlashLite,
            PipeMode::ZeroCopy,
            1_694_575,
            803_160,
        ),
    ] {
        let mut k = Kernel::new(CostModel::pentium_ii_333());
        let server = k.spawn("server");
        let mut cgi = CgiProcess::new(&mut k, server, 100_000, mode);
        let sock = k.socket_create(server, kind.buffer_mode(), DEFAULT_MSS, DEFAULT_TSS);
        let cold = cgi.serve(&mut k, kind, sock, server).unwrap();
        let warm = cgi.serve(&mut k, kind, sock, server).unwrap();
        assert_eq!(cold.cpu.as_nanos(), cold_ns, "{kind:?} cold");
        assert_eq!(warm.cpu.as_nanos(), warm_ns, "{kind:?} warm");
    }
}

#[test]
fn application_runtimes_are_unchanged() {
    let costs = AppCosts::calibrated();
    for (mode, ns) in [(ApiMode::Posix, 36_463_570), (ApiMode::IoLite, 34_113_570)] {
        let mut k = Kernel::new(CostModel::pentium_ii_333());
        let pid = k.spawn("wc");
        let f = k.create_synthetic_file("/big", 300_000, 5);
        let (_, runtime) = run_wc(&mut k, pid, f, mode, &costs);
        assert_eq!(runtime.as_nanos(), ns, "wc {mode:?}");
    }
    let mut text = Vec::new();
    for i in 0..5000u32 {
        text.extend_from_slice(format!("line {i} with some words\n").as_bytes());
        if i % 37 == 0 {
            text.extend_from_slice(b"the magic token appears\n");
        }
    }
    for (mode, ns) in [(ApiMode::Posix, 28_860_844), (ApiMode::IoLite, 24_363_410)] {
        let mut k = Kernel::new(CostModel::pentium_ii_333());
        let cat = k.spawn("cat");
        let grep = k.spawn("grep");
        let f = k.create_file("/data", &text);
        let (_, runtime) = run_cat_grep(&mut k, cat, grep, f, b"magic token", mode, &costs);
        assert_eq!(runtime.as_nanos(), ns, "cat | grep {mode:?}");
    }
}

/// Sixteen requests over four connections: static hits and misses, a
/// 404, two CGI transfers through the pipe, and two PUTs (one large
/// enough to arm write-back).
#[test]
fn event_loop_cpu_is_unchanged() {
    let mut k = Kernel::with_policy(CostModel::pentium_ii_333(), Policy::Gds);
    let pid = k.spawn("server");
    k.create_synthetic_file("/a", 100_000, 7);
    k.create_synthetic_file("/b", 3_000, 7);
    let cgi = CgiProcess::new(&mut k, pid, 150_000, PipeMode::ZeroCopy);
    let cgi_path = format!("{CGI_PREFIX}doc");
    let scripts: Vec<Vec<String>> = vec![
        vec!["/a".into(), "/b".into(), cgi_path.clone(), "/a".into()],
        vec!["/b".into(), "/missing".into(), "/a".into(), "/b".into()],
        vec![
            cgi_path.clone(),
            "/a".into(),
            "PUT /b 5000".into(),
            "/b".into(),
        ],
        vec![
            "PUT /new 70000".into(),
            "/new".into(),
            "/a".into(),
            cgi_path,
        ],
    ];
    let server = EventLoopServer::new(k, pid, scripts, Some(cgi), EventLoopConfig::default());
    let (report, _) = server.run();
    assert_eq!(report.stats.completed, 16);
    assert_eq!(report.stats.cpu.as_nanos(), 10_375_530);
}
