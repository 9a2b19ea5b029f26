//! Parser totality: whatever bytes the wire delivers,
//! however it fragments them, the request parser never panics, and the
//! aggregate-run entry points the event loop feeds agree with the
//! contiguous ones — so "has the header arrived" has one answer no
//! matter how reassembly sliced the request.

use iolite_buf::{Acl, Aggregate, BufferPool, PoolId};
use iolite_http::{parse_request, parse_request_agg, parse_request_head, parse_request_head_agg};
use proptest::prelude::*;

/// One of `options`, as bytes. Repeating an option weights it.
fn pick(options: &'static [&'static str]) -> BoxedStrategy<Vec<u8>> {
    (0..options.len())
        .prop_map(move |i| options[i].as_bytes().to_vec())
        .boxed()
}

/// A line terminator: usually CRLF, sometimes the bare LF lenient
/// recipients accept (RFC 9112 §2.2), a stray CR, or nothing.
fn eol() -> BoxedStrategy<Vec<u8>> {
    pick(&["\r\n", "\r\n", "\r\n", "\n", "\n", "\r", ""])
}

/// A request: usually well-formed — so cases reach the method,
/// version, header, terminator and body branches instead of dying on
/// the first byte — with every slot sometimes wrong, then raw bytes
/// (a body, or noise).
fn request() -> impl Strategy<Value = Vec<u8>> {
    let line = (
        pick(&["GET ", "GET ", "PUT ", "PUT ", "POST ", "BREW ", ""]),
        pick(&["/doc", "/cgi-bin/x", ""]),
        pick(&[" HTTP/1.1", " HTTP/1.1", " HTTP/1.0", " ", ""]),
        eol(),
    )
        .prop_map(|(method, path, version, eol)| [method, path, version, eol].concat());
    let header = (
        pick(&[
            "Host: x",
            "Connection: keep-alive",
            "connection: close",
            "Content-Length: 5",
            "content-length:0",
            "Content-Length: 18446744073709551615",
            "Content-Length: five",
            "",
        ]),
        eol(),
    )
        .prop_map(|(header, eol)| [header, eol].concat());
    (
        line,
        proptest::collection::vec(header, 0..4),
        eol(),
        proptest::collection::vec(any::<u8>(), 0..12),
    )
        .prop_map(|(line, headers, eol, tail)| [line, headers.concat(), eol, tail].concat())
}

/// `bytes` as an aggregate of one slice per run of `cuts[k]` bytes
/// (cycled; each at least 1).
fn fragmented(pool: &BufferPool, bytes: &[u8], cuts: &[usize]) -> Aggregate {
    let mut agg = Aggregate::empty();
    let (mut rest, mut k) = (bytes, 0);
    while !rest.is_empty() {
        let n = cuts[k % cuts.len()].clamp(1, rest.len());
        agg.append(&Aggregate::from_bytes(pool, &rest[..n]));
        rest = &rest[n..];
        k += 1;
    }
    agg
}

proptest! {
    #[test]
    fn parser_is_total_and_chunking_independent(
        request in request(),
        arrived in 0usize..160,
        cuts in proptest::collection::vec(1usize..40, 1..8),
    ) {
        // Often only a prefix has arrived yet.
        let bytes = &request[..arrived.min(request.len())];
        let whole = parse_request(bytes);
        let head = parse_request_head(bytes);
        if let Some((_, body_at)) = &head {
            prop_assert!(*body_at <= bytes.len() as u64, "body_at past the end");
        }
        let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), 64);
        for cuts in [&cuts[..], &[1], &[usize::MAX]] {
            let agg = fragmented(&pool, bytes, cuts);
            prop_assert_eq!(agg.to_vec(), bytes);
            prop_assert_eq!(parse_request_agg(&agg), whole.clone(), "cuts {:?}", cuts);
            prop_assert_eq!(parse_request_head_agg(&agg), head.clone(), "cuts {:?}", cuts);
        }
    }
}
