//! HTTP/1.0 and HTTP/1.1 request/response formatting and parsing.
//!
//! Real bytes: the end-to-end tests drive requests through parsing, and
//! response headers are the "internally generated data" whose checksum
//! Flash-Lite still computes per response (§3.10).
//!
//! Requests reassembled from the network arrive as buffer aggregates;
//! [`parse_request_agg`] scans them run-by-run (a carry buffer is
//! touched only when a header line straddles a buffer boundary), so the
//! steady-state parse never materializes the request or walks it per
//! byte through `byte_at`.

use iolite_buf::Aggregate;

/// HTTP method of a parsed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Read a document (the classic serving path).
    Get,
    /// Upload a document body (the write path's zero-copy ingest).
    Put,
    /// Body-carrying submit; parsed like `PUT` (the server decides
    /// what, if anything, to do with it).
    Post,
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request path ("/f00042").
    pub path: String,
    /// Whether the connection should persist (HTTP/1.1 keep-alive).
    pub keep_alive: bool,
    /// Declared body length (`Content-Length`); 0 when absent.
    pub content_length: u64,
}

/// Formats a GET request.
pub fn request_bytes(path: &str, keep_alive: bool) -> Vec<u8> {
    request_head(path, None, keep_alive, &mut [0; 20]).concat()
}

/// Formats a PUT request carrying `body` — the upload the write path
/// ingests zero-copy on the server side.
pub fn put_request_bytes(path: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    let mut req = request_head(path, Some(body.len() as u64), keep_alive, &mut [0; 20]).concat();
    req.extend_from_slice(body);
    req
}

/// What follows the path on a client's request line, and the headers
/// every client request carries; HTTP/1.1 when keep-alive.
const CLIENT_HEADERS: [&[u8]; 2] = [
    b" HTTP/1.0\r\nHost: server.rice.edu\r\nUser-Agent: iolite-client/1.0\r\n",
    b" HTTP/1.1\r\nHost: server.rice.edu\r\nUser-Agent: iolite-client/1.0\r\n",
];

/// A client request head as parts — the one spelling behind
/// [`request_bytes`], [`put_request_bytes`] and the event loop's
/// built-in client, which copies the parts straight into its IO-Lite
/// buffer: a GET, or a PUT declaring `body_len` body bytes (written
/// into `digits` by [`decimal`]).
pub(crate) fn request_head<'a>(
    path: &'a str,
    body_len: Option<u64>,
    keep_alive: bool,
    digits: &'a mut [u8; 20],
) -> [&'a [u8]; 7] {
    let (verb, [label, len, crlf]): (&[u8], [&[u8]; 3]) = match body_len {
        Some(n) => (b"PUT ", [b"Content-Length: ", decimal(n, digits), b"\r\n"]),
        None => (b"GET ", [b""; 3]),
    };
    let end: &[u8] = if keep_alive { CONNECTION[1] } else { b"\r\n" };
    [
        verb,
        path.as_bytes(),
        CLIENT_HEADERS[keep_alive as usize],
        label,
        len,
        crlf,
        end,
    ]
}

/// Incremental request parser fed one header line at a time.
#[derive(Default)]
struct LineParser {
    request: Option<Request>,
    seen_first: bool,
    failed: bool,
}

impl LineParser {
    /// Feeds one header line; returns `true` when the empty terminator
    /// line was consumed (header complete — stop feeding; any bytes
    /// after it are the body, never header lines).
    fn feed_line(&mut self, line: &[u8]) -> bool {
        if self.seen_first && line.is_empty() {
            return true;
        }
        if self.failed {
            return false;
        }
        let Ok(text) = std::str::from_utf8(line) else {
            self.failed = true;
            return false;
        };
        if !self.seen_first {
            self.seen_first = true;
            let mut parts = text.split(' ');
            let (Some(verb), Some(path), Some(version)) =
                (parts.next(), parts.next(), parts.next())
            else {
                self.failed = true;
                return false;
            };
            let method = match verb {
                "GET" => Method::Get,
                "PUT" => Method::Put,
                "POST" => Method::Post,
                _ => {
                    self.failed = true;
                    return false;
                }
            };
            self.request = Some(Request {
                method,
                path: path.to_string(),
                keep_alive: version == "HTTP/1.1", // Default in 1.1.
                content_length: 0,
            });
            return false;
        }
        if line.len() >= 11 && line[..11].eq_ignore_ascii_case(b"connection:") {
            if let Some(req) = &mut self.request {
                req.keep_alive = contains_ignore_case(line, b"keep-alive");
            }
        }
        if line.len() >= 15 && line[..15].eq_ignore_ascii_case(b"content-length:") {
            match text[15..].trim().parse::<u64>() {
                Ok(n) => {
                    if let Some(req) = &mut self.request {
                        req.content_length = n;
                    }
                }
                // A declared length the server cannot trust poisons
                // everything downstream (how many body bytes to
                // ingest?) — reject the request outright.
                Err(_) => self.failed = true,
            }
        }
        false
    }

    fn finish(self) -> Option<Request> {
        if self.failed {
            None
        } else {
            self.request
        }
    }
}

/// ASCII-case-insensitive substring search (header values are ASCII).
fn contains_ignore_case(haystack: &[u8], needle: &[u8]) -> bool {
    haystack
        .windows(needle.len())
        .any(|w| w.eq_ignore_ascii_case(needle))
}

/// Drives a [`LineParser`] over CRLF-separated lines delivered as
/// arbitrary byte runs, stopping at the header terminator. Only lines
/// that straddle a run boundary are copied into the carry buffer;
/// lines within one run are borrowed.
///
/// Returns the parse result plus the byte offset just past the
/// terminator — where the body starts — when the terminator was seen.
pub(crate) fn parse_lines<'a>(
    chunks: impl Iterator<Item = &'a [u8]>,
) -> (Option<Request>, Option<u64>) {
    let mut parser = LineParser::default();
    let mut carry: Vec<u8> = Vec::new();
    // Bytes scanned so far (lines and their terminators, carried
    // fragments included at carry time).
    let mut offset: u64 = 0;
    for chunk in chunks {
        let mut rest = chunk;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let (line, after) = rest.split_at(nl);
            rest = &after[1..];
            offset += nl as u64 + 1;
            let done = if carry.is_empty() {
                parser.feed_line(strip_cr(line))
            } else {
                carry.extend_from_slice(line);
                let whole = std::mem::take(&mut carry);
                parser.feed_line(strip_cr(&whole))
            };
            if done {
                return (parser.finish(), Some(offset));
            }
        }
        if !rest.is_empty() {
            offset += rest.len() as u64;
            carry.extend_from_slice(rest);
        }
    }
    if !carry.is_empty() {
        parser.feed_line(strip_cr(&carry));
    }
    (parser.finish(), None)
}

fn strip_cr(line: &[u8]) -> &[u8] {
    line.strip_suffix(b"\r").unwrap_or(line)
}

/// Full-message truncation check shared by [`parse_request`] and
/// [`parse_request_agg`]: a declared body must be entirely present.
/// Header-only requests keep the historical leniency (a missing final
/// blank line still parses).
fn complete(req: Request, body_at: Option<u64>, total: u64) -> Option<Request> {
    if req.content_length == 0 {
        return Some(req);
    }
    let start = body_at?;
    (total - start >= req.content_length).then_some(req)
}

/// Parses a complete request; returns `None` on malformed input,
/// including a declared `Content-Length` the buffer does not cover
/// (truncated body).
///
/// Lines are terminated by CRLF; per RFC 9112 §2.2's allowance for
/// lenient recipients, a bare LF is also accepted as a terminator.
pub fn parse_request(bytes: &[u8]) -> Option<Request> {
    let (req, body_at) = parse_lines(std::iter::once(bytes));
    complete(req?, body_at, bytes.len() as u64)
}

/// Parses a complete request straight out of a (possibly fragmented)
/// aggregate — same contract as [`parse_request`]. No materialization,
/// no per-byte indexing: the scanner walks the aggregate's byte runs.
pub fn parse_request_agg(agg: &Aggregate) -> Option<Request> {
    let (req, body_at) = parse_lines(agg.chunks());
    complete(req?, body_at, agg.len())
}

/// Parses just the request *head*, returning the request and the byte
/// offset where the body starts. `None` until the header terminator
/// has arrived (or on malformed headers). A caller splits the body out
/// of its receive buffer at the returned offset once `content_length`
/// more bytes are in; the event loop does the same through
/// `parse_lines` over its receive aggregate's byte runs.
pub fn parse_request_head(bytes: &[u8]) -> Option<(Request, u64)> {
    let (req, body_at) = parse_lines(std::iter::once(bytes));
    Some((req?, body_at?))
}

/// Aggregate-run variant of [`parse_request_head`].
pub fn parse_request_head_agg(agg: &Aggregate) -> Option<(Request, u64)> {
    let (req, body_at) = parse_lines(agg.chunks());
    Some((req?, body_at?))
}

const OK_TO_LENGTH: &[u8] = b"HTTP/1.1 200 OK\r\nServer: Flash/IO-Lite\r\nDate: Thu, 01 Jan 1998 00:00:00 GMT\r\nContent-Type: text/html\r\nContent-Length: ";
/// The `Connection` header and the blank line that ends a head.
const CONNECTION: [&[u8]; 2] = [
    b"Connection: close\r\n\r\n",
    b"Connection: keep-alive\r\n\r\n",
];

/// `n` in decimal, written by hand from the right of `digits`
/// (`u64::MAX` has 20) — no `fmt` machinery, no intermediate `String`.
fn decimal(mut n: u64, digits: &mut [u8; 20]) -> &[u8] {
    let mut at = digits.len();
    while at == digits.len() || n > 0 {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    &digits[at..]
}

/// The 200 head as the parts the server copies straight into its
/// IO-Lite buffer: constant text around one [`decimal`] number.
pub(crate) fn ok_head(content_len: u64, keep_alive: bool, digits: &mut [u8; 20]) -> [&[u8]; 4] {
    [
        OK_TO_LENGTH,
        decimal(content_len, digits),
        b"\r\n",
        CONNECTION[keep_alive as usize],
    ]
}

/// The 201 head, in parts like [`ok_head`].
pub(crate) fn created_head(keep_alive: bool) -> [&'static [u8]; 2] {
    [
        b"HTTP/1.1 201 Created\r\nContent-Length: 0\r\n",
        CONNECTION[keep_alive as usize],
    ]
}

/// Formats a 200 response header for a body of `content_len` bytes.
/// Sized realistically (~170 bytes): headers ride in their own buffer
/// and are checksummed per response even under checksum caching.
pub fn response_header(content_len: u64, keep_alive: bool) -> Vec<u8> {
    ok_head(content_len, keep_alive, &mut [0; 20]).concat()
}

/// The 404 response.
pub(crate) fn not_found() -> &'static [u8] {
    b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"
}

/// Formats the 201 response acknowledging a completed PUT.
pub fn created(keep_alive: bool) -> Vec<u8> {
    created_head(keep_alive).concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_http10() {
        let bytes = request_bytes("/index.html", false);
        let req = parse_request(&bytes).unwrap();
        assert_eq!(req.path, "/index.html");
        assert!(!req.keep_alive);
    }

    #[test]
    fn request_roundtrip_http11() {
        let bytes = request_bytes("/a", true);
        let req = parse_request(&bytes).unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_request(b"BREW / HTCPCP/1.0\r\n\r\n").is_none());
        assert!(parse_request(&[0xFF, 0xFE]).is_none());
        assert!(parse_request(b"").is_none());
    }

    #[test]
    fn body_carrying_methods_parse() {
        // POST is a real method now, not garbage.
        let req = parse_request(b"POST / HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.content_length, 0);
        assert!(!req.keep_alive);
        // A PUT round-trips through the formatter with its body.
        let body = b"hello, write path";
        let bytes = put_request_bytes("/upload", body, true);
        let req = parse_request(&bytes).unwrap();
        assert_eq!(req.method, Method::Put);
        assert_eq!(req.path, "/upload");
        assert_eq!(req.content_length, body.len() as u64);
        assert!(req.keep_alive);
        // The head parse hands back exactly the body's offset.
        let (head, body_at) = parse_request_head(&bytes).unwrap();
        assert_eq!(head, req);
        assert_eq!(&bytes[body_at as usize..], body);
    }

    #[test]
    fn malformed_content_length_rejected() {
        for bad in ["abc", "-1", "1 2", "", "18446744073709551616"] {
            let raw = format!("PUT /f HTTP/1.1\r\nContent-Length: {bad}\r\n\r\nxx");
            assert!(parse_request(raw.as_bytes()).is_none(), "CL {bad:?}");
        }
    }

    #[test]
    fn truncated_body_rejected() {
        let bytes = put_request_bytes("/f", b"0123456789", true);
        // The head alone parses...
        assert!(parse_request_head(&bytes[..bytes.len() - 10]).is_some());
        // ...but the full-message parse wants every declared byte.
        assert!(parse_request(&bytes[..bytes.len() - 1]).is_none());
        assert!(parse_request(&bytes[..bytes.len() - 10]).is_none());
        assert!(parse_request(&bytes).is_some());
        // Declared body, header terminator never arrived: truncated.
        assert!(parse_request(b"PUT /f HTTP/1.1\r\nContent-Length: 3\r\n").is_none());
    }

    #[test]
    fn aggregate_parse_matches_contiguous_parse() {
        use iolite_buf::{Acl, BufferPool, PoolId};
        let cases: Vec<Vec<u8>> = vec![
            request_bytes("/f00042", true),
            request_bytes("/index.html", false),
            b"POST / HTTP/1.0\r\n\r\n".to_vec(),
            b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
            b"GET /x HTTP/1.0\r\nCONNECTION: Keep-Alive\r\n\r\n".to_vec(),
            // Bodies never reach the header scanner: binary bytes and
            // CRLF pairs inside the body must not fail the parse.
            put_request_bytes("/up", &[0xFF, 0x00, b'\r', b'\n', b'\r', b'\n', 0x7F], true),
            put_request_bytes("/up2", b"plain text body", false),
            // Truncated body: whole-message parse rejects, head parses.
            b"PUT /t HTTP/1.1\r\nContent-Length: 5\r\n\r\nabc".to_vec(),
            vec![0xFF, 0xFE],
            Vec::new(),
        ];
        // Fragment every request aggressively: lines straddle buffers.
        for chunk_size in [3usize, 7, 64, 4096] {
            let pool = BufferPool::new(PoolId(1), Acl::kernel_only(), chunk_size);
            for case in &cases {
                let agg = Aggregate::from_bytes(&pool, case);
                assert_eq!(
                    parse_request_agg(&agg),
                    parse_request(case),
                    "chunk {chunk_size}, case {:?}",
                    String::from_utf8_lossy(case)
                );
                assert_eq!(
                    parse_request_head_agg(&agg),
                    parse_request_head(case),
                    "head: chunk {chunk_size}, case {:?}",
                    String::from_utf8_lossy(case)
                );
            }
        }
    }

    #[test]
    fn response_header_contains_length() {
        // Byte for byte the `format!` string the hand-written head replaced.
        for (keep_alive, conn) in [(true, "keep-alive"), (false, "close")] {
            for len in [0, 9, 10, 12345, u64::MAX] {
                let want = format!("HTTP/1.1 200 OK\r\nServer: Flash/IO-Lite\r\nDate: Thu, 01 Jan 1998 00:00:00 GMT\r\nContent-Type: text/html\r\nContent-Length: {len}\r\nConnection: {conn}\r\n\r\n");
                assert_eq!(response_header(len, keep_alive), want.as_bytes());
            }
        }
    }

    #[test]
    fn header_size_is_realistic() {
        let h = response_header(200_000, false);
        assert!(h.len() > 120 && h.len() < 300, "len {}", h.len());
    }

    #[test]
    fn not_found_parses_as_http() {
        let n = not_found();
        assert!(n.starts_with(b"HTTP/1.1 404"));
    }

    #[test]
    fn created_parses_as_http() {
        for (keep_alive, conn) in [(true, "keep-alive"), (false, "close")] {
            let want =
                format!("HTTP/1.1 201 Created\r\nContent-Length: 0\r\nConnection: {conn}\r\n\r\n");
            assert_eq!(created(keep_alive), want.as_bytes());
        }
    }
}
