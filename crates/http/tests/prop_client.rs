//! The built-in client writes each request byte once, straight into
//! the server's IO-Lite buffers. Buffer identity, checksum-cache keys
//! and so every simulated number stay where they were only if:
//!
//! * the lane-parallel PUT body generator is the byte-serial definition
//!   — at any offset of either parity, lane-aligned or not, at any
//!   length, however the body is cut into calls;
//! * a request built from head parts is byte for byte
//!   [`request_bytes`] / [`put_request_bytes`] (themselves the `format!`
//!   strings they replaced), in the buffers [`Aggregate::from_bytes`]
//!   would allocate for those bytes — whatever the chunk size, so the
//!   head/body boundary and the generator's restarts fall anywhere.

use iolite_buf::{Acl, Aggregate, BufferId, BufferPool, Generation, PoolId};
use iolite_http::event_loop::{client_request, put_body_seed, synthetic_put_body_into};
use iolite_http::{put_request_bytes, request_bytes, synthetic_put_body};
use proptest::prelude::*;

/// Byte `i` of the PUT body seeded `seed`, by definition.
fn byte_serial(seed: u64, i: u64) -> u8 {
    (seed.wrapping_mul(i | 1) >> 24) as u8
}

/// `/` and up to 23 printable, non-space ASCII bytes.
fn path() -> impl Strategy<Value = String> {
    proptest::collection::vec(33u8..127, 0..24)
        .prop_map(|b| format!("/{}", String::from_utf8(b).expect("ASCII")))
}

/// Every slice's identity, generation and length: the allocation a
/// constructor made, which buffer ids and checksum keys hang off.
fn layout(agg: &Aggregate) -> Vec<(BufferId, Generation, usize)> {
    agg.slices()
        .map(|s| (s.id(), s.generation(), s.len()))
        .collect()
}

proptest! {
    #[test]
    fn streamed_body_is_the_byte_serial_definition(
        path in path(),
        offset in 0u64..(1 << 40),
        len in 0u64..(1 << 17),
        cuts in proptest::collection::vec(1u64..5_000, 0..16),
    ) {
        let seed = put_body_seed(&path);
        let want: Vec<u8> = (offset..offset + len).map(|i| byte_serial(seed, i)).collect();
        let mut whole = vec![0; len as usize];
        synthetic_put_body_into(seed, offset, &mut whole);
        prop_assert_eq!(&whole, &want);
        // The same extent in arbitrary pieces, each its own call.
        let mut pieces = vec![0; len as usize];
        let mut at = 0;
        for cut in cuts.iter().copied().chain(std::iter::once(len)) {
            let end = (at + cut).min(len);
            synthetic_put_body_into(seed, offset + at, &mut pieces[at as usize..end as usize]);
            at = end;
        }
        prop_assert_eq!(&pieces, &want);
        let prefix = len.min(4_096);
        let from_zero: Vec<u8> = (0..prefix).map(|i| byte_serial(seed, i)).collect();
        prop_assert_eq!(synthetic_put_body(&path, prefix), from_zero);
    }

    #[test]
    fn client_requests_are_the_formatted_requests(
        path in path(),
        len in 0u64..(1 << 17),
        chunk in 16usize..(1 << 16),
    ) {
        for keep_alive in [false, true] {
            let (version, conn) = if keep_alive {
                ("1.1", "Connection: keep-alive\r\n")
            } else {
                ("1.0", "")
            };
            let head = |verb, length: &str| {
                format!("{verb} {path} HTTP/{version}\r\nHost: server.rice.edu\r\nUser-Agent: iolite-client/1.0\r\n{length}{conn}\r\n")
            };
            let get = request_bytes(&path, keep_alive);
            prop_assert_eq!(&get, head("GET", "").as_bytes());
            let body = synthetic_put_body(&path, len);
            let put = put_request_bytes(&path, &body, keep_alive);
            let length = format!("Content-Length: {len}\r\n");
            prop_assert_eq!(&put, &[head("PUT", &length).as_bytes(), &body].concat());
            for (entry, want) in [(path.clone(), get), (format!("PUT {path} {len}"), put)] {
                let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), chunk);
                let twin = BufferPool::new(PoolId(1), Acl::kernel_only(), chunk);
                let built = client_request(&pool, &entry, keep_alive);
                prop_assert_eq!(built.to_vec(), want.clone());
                prop_assert_eq!(layout(&built), layout(&Aggregate::from_bytes(&twin, &want)));
            }
        }
    }
}
