//! Hand-rolled HTTP/1.1 framing over `std::net::TcpStream`.
//!
//! Implements exactly the slice of the protocol the serving layer needs:
//! request-line + headers + `Content-Length` bodies, keep-alive with
//! pipelining (bytes past the current request stay buffered for the
//! next), and bounded header/body sizes so a hostile peer cannot make a
//! worker allocate without limit. Chunked transfer encoding, trailers,
//! and continuation lines are deliberately out of scope — requests using
//! them are rejected, not misparsed.
//!
//! Reads use the caller's socket read-timeout as a poll tick: a timeout
//! with *no* buffered request bytes surfaces as [`ReadOutcome::Idle`] so
//! the worker can check the shutdown flag between requests, while a
//! timeout mid-request keeps waiting up to [`REQUEST_DEADLINE`].

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::trace::TraceIds;

/// Maximum accepted size of the request line + headers.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Maximum accepted `Content-Length`.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// How long a started request may take to arrive in full before the
/// connection is dropped (slow-loris bound).
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method, e.g. `POST`.
    pub method: String,
    /// Request target as sent, e.g. `/v1/classify`.
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// Request trace id minted once the request is parsed (never 0).
    pub trace_id: u64,
    /// `autoac_obs::now_ns()` when the request's first byte was seen.
    pub t0_ns: u64,
    /// First byte → fully parsed, in nanoseconds.
    pub parse_ns: u64,
}

/// What [`read_request`] produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// Clean EOF at a request boundary.
    Closed,
    /// Read-timeout tick with no request in flight (poll the shutdown
    /// flag and call again).
    Idle,
    /// Malformed or over-limit request: respond with this status and
    /// close.
    Bad(u16, &'static str),
}

/// Reads one request from `stream`, buffering into `buf` across calls
/// (left-over bytes belong to the next pipelined request). A completed
/// request leaves with its trace id minted from `ids` and its
/// first-byte / parse timings stamped on the
/// `autoac_obs::now_ns` clock.
pub fn read_request(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
    ids: &TraceIds,
) -> io::Result<ReadOutcome> {
    let started = Instant::now();
    // Pipelined leftovers mean this request's bytes are already here.
    let mut first_byte_ns = if buf.is_empty() { None } else { Some(autoac_obs::now_ns()) };
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(outcome) = try_parse(buf)? {
            if let ReadOutcome::Request(mut r) = outcome {
                let t0 = first_byte_ns.unwrap_or_else(autoac_obs::now_ns);
                r.t0_ns = t0;
                r.parse_ns = autoac_obs::now_ns().saturating_sub(t0);
                r.trace_id = ids.mint();
                return Ok(ReadOutcome::Request(r));
            }
            return Ok(outcome);
        }
        if buf.len() > MAX_HEADER_BYTES && find_header_end(buf).is_none() {
            return Ok(ReadOutcome::Bad(431, "header block too large"));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    Ok(ReadOutcome::Closed)
                } else {
                    Ok(ReadOutcome::Bad(400, "connection closed mid-request"))
                };
            }
            Ok(n) => {
                if first_byte_ns.is_none() {
                    first_byte_ns = Some(autoac_obs::now_ns());
                }
                // analyze:allow(panic, Read::read returns n <= chunk.len() by contract)
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if buf.is_empty() {
                    return Ok(ReadOutcome::Idle);
                }
                if started.elapsed() > REQUEST_DEADLINE {
                    return Ok(ReadOutcome::Bad(408, "request did not arrive in time"));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Attempts to parse one complete request out of `buf`; `Ok(None)` means
/// more bytes are needed.
fn try_parse(buf: &mut Vec<u8>) -> io::Result<Option<ReadOutcome>> {
    let Some(header_end) = find_header_end(buf) else {
        return Ok(None);
    };
    if header_end > MAX_HEADER_BYTES {
        return Ok(Some(ReadOutcome::Bad(431, "header block too large")));
    }
    let header = match std::str::from_utf8(&buf[..header_end]) {
        Ok(h) => h,
        Err(_) => return Ok(Some(ReadOutcome::Bad(400, "non-utf8 header block"))),
    };
    let mut lines = header.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Ok(Some(ReadOutcome::Bad(400, "malformed request line")));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Ok(Some(ReadOutcome::Bad(400, "malformed request line")));
    }
    let mut content_length: Option<usize> = None;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version == "HTTP/1.1";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Ok(Some(ReadOutcome::Bad(400, "malformed header line")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9112 §6.3: the value is 1*DIGIT (`usize::from_str` alone
            // would take a leading `+`), and duplicates that differ leave
            // the body's end ambiguous.
            let n = match value.parse::<usize>() {
                Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => n,
                _ => return Ok(Some(ReadOutcome::Bad(400, "bad content-length"))),
            };
            if content_length.is_some_and(|c| c != n) {
                return Ok(Some(ReadOutcome::Bad(400, "conflicting content-length")));
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Ok(Some(ReadOutcome::Bad(501, "transfer-encoding not supported")));
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Ok(Some(ReadOutcome::Bad(413, "body too large")));
    }
    let total = header_end + 4 + content_length;
    if buf.len() < total {
        return Ok(None);
    }
    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        body: buf[header_end + 4..total].to_vec(),
        keep_alive,
        trace_id: 0,
        t0_ns: 0,
        parse_ns: 0,
    };
    buf.drain(..total);
    Ok(Some(ReadOutcome::Request(request)))
}

/// Standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a full response with `Content-Length` framing.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    write_response_with(stream, status, content_type, body, keep_alive, &[])
}

/// [`write_response`] plus extra response headers (name, value) — the
/// serving layer uses this to echo `x-autoac-trace` on every request.
pub fn write_response_with(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
    extra: &[(&str, String)],
) -> io::Result<()> {
    let mut msg = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra {
        msg.push_str(&format!("{name}: {value}\r\n"));
    }
    msg.push_str("\r\n");
    let mut msg = msg.into_bytes();
    // One write for the whole response: a head-only first segment would
    // sit in Nagle's buffer waiting for the peer's delayed ACK.
    msg.extend_from_slice(body);
    stream.write_all(&msg)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(raw: &[u8]) -> Vec<ReadOutcome> {
        // Feed raw bytes through a real socket pair.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut client = TcpStream::connect(addr).expect("connect");
        let (mut server, _) = listener.accept().expect("accept");
        client.write_all(raw).expect("write");
        drop(client); // EOF after the payload
        server
            .set_read_timeout(Some(Duration::from_millis(50)))
            .expect("timeout");
        let mut buf = Vec::new();
        let mut out = Vec::new();
        let ids = TraceIds::new(7);
        loop {
            match read_request(&mut server, &mut buf, &ids).expect("read") {
                ReadOutcome::Closed => break,
                o @ ReadOutcome::Bad(..) => {
                    out.push(o);
                    break;
                }
                o => out.push(o),
            }
        }
        out
    }

    #[test]
    fn parses_post_with_body_and_keep_alive_default() {
        let raw = b"POST /v1/classify HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let out = roundtrip(raw);
        let [ReadOutcome::Request(r)] = &out[..] else {
            panic!("{out:?}");
        };
        assert_eq!((r.method.as_str(), r.path.as_str()), ("POST", "/v1/classify"));
        assert_eq!(r.body, b"hello");
        assert!(r.keep_alive);
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let out = roundtrip(raw);
        let [ReadOutcome::Request(a), ReadOutcome::Request(b)] = &out[..] else {
            panic!("{out:?}");
        };
        assert_eq!(a.path, "/healthz");
        assert_eq!(b.path, "/metrics");
        assert!(!b.keep_alive);
    }

    #[test]
    fn rejects_oversized_body_and_bad_framing() {
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(roundtrip(huge.as_bytes())[..], [ReadOutcome::Bad(413, _)]));
        assert!(matches!(
            roundtrip(b"BROKEN\r\n\r\n")[..],
            [ReadOutcome::Bad(400, _)]
        ));
        assert!(matches!(
            roundtrip(b"POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n")[..],
            [ReadOutcome::Bad(400, _)]
        ));
        assert!(matches!(
            roundtrip(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")[..],
            [ReadOutcome::Bad(501, _)]
        ));
        // Close mid-body.
        assert!(matches!(
            roundtrip(b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\nshort")[..],
            [ReadOutcome::Bad(400, _)]
        ));
    }

    #[test]
    fn minted_trace_ids_and_timings_ride_the_request() {
        let raw = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let out = roundtrip(raw);
        let [ReadOutcome::Request(a), ReadOutcome::Request(b)] = &out[..] else {
            panic!("{out:?}");
        };
        assert_ne!(a.trace_id, 0, "traced request mints a nonzero id");
        assert_ne!(b.trace_id, 0);
        assert_ne!(a.trace_id, b.trace_id, "each request gets its own id");
        assert!(a.t0_ns <= b.t0_ns, "first-byte stamps are monotone");
    }

    /// A valid request's wire bytes and the parse it must yield:
    /// `(method, path, body, keep_alive)`.
    type Case = (Vec<u8>, (String, String, Vec<u8>, bool));

    fn case(method: &str, path: &str, version: &str, headers: &str, body: &str) -> Case {
        let mut raw = format!("{method} {path} {version}\r\n{headers}").into_bytes();
        if !body.is_empty() || method == "POST" {
            raw.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        raw.extend_from_slice(body.as_bytes());
        let keep_alive = version == "HTTP/1.1" && !headers.to_ascii_lowercase().contains("close");
        (raw, (method.into(), path.into(), body.as_bytes().to_vec(), keep_alive))
    }

    /// GET and POST, with and without a body, with and without
    /// `Connection: close`, over both HTTP/1 versions.
    fn valid_cases() -> Vec<Case> {
        vec![
            case("GET", "/healthz", "HTTP/1.1", "Host: x\r\n", ""),
            case("GET", "/metrics", "HTTP/1.1", "Connection: close\r\n", ""),
            case("POST", "/v1/classify", "HTTP/1.1", "", "{\"nodes\":[0,1,2]}"),
            case("POST", "/v1/attrs", "HTTP/1.1", "connection: Close\r\n", "{\"nodes\":[4]}"),
            case("POST", "/admin/flight", "HTTP/1.1", "", ""),
            case("POST", "/v1/classify", "HTTP/1.0", "X-Pad:  a:b \r\n", "{}"),
            // Identical duplicate lengths frame the body unambiguously.
            case("POST", "/v1/attrs", "HTTP/1.1", "content-length: 2\r\n", "[]"),
        ]
    }

    fn parsed(r: &Request) -> (String, String, Vec<u8>, bool) {
        (r.method.clone(), r.path.clone(), r.body.clone(), r.keep_alive)
    }

    /// Parses every complete request now in `buf` into `out`.
    fn drain_requests(buf: &mut Vec<u8>, out: &mut Vec<(String, String, Vec<u8>, bool)>) {
        while let Some(outcome) = try_parse(buf).expect("try_parse") {
            let ReadOutcome::Request(r) = outcome else {
                panic!("valid bytes parsed as {outcome:?}");
            };
            out.push(parsed(&r));
        }
    }

    #[test]
    fn pipelined_mixes_parse_identically_at_every_split() {
        let cases = valid_cases();
        // A deterministic walk over mixes of 1–4 requests, each followed by
        // a strict prefix of one more that must stay buffered.
        let mut state = 0x5eed_u64;
        let mut next = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        for _ in 0..48 {
            let mut wire = Vec::new();
            let mut want = Vec::new();
            for _ in 0..1 + next(4) {
                let (raw, expect) = &cases[next(cases.len())];
                wire.extend_from_slice(raw);
                want.push(expect.clone());
            }
            let (tail_raw, _) = &cases[next(cases.len())];
            let tail = &tail_raw[..next(tail_raw.len())];
            wire.extend_from_slice(tail);
            for split in 0..=wire.len() {
                let mut buf = wire[..split].to_vec();
                let mut got = Vec::new();
                drain_requests(&mut buf, &mut got);
                buf.extend_from_slice(&wire[split..]);
                drain_requests(&mut buf, &mut got);
                assert_eq!(got, want, "split at {split}");
                assert_eq!(buf, tail, "split at {split}: leftover must be the partial tail");
            }
        }
    }

    #[test]
    fn strict_prefixes_need_more_bytes() {
        for (raw, _) in valid_cases() {
            for k in 0..raw.len() {
                let mut buf = raw[..k].to_vec();
                assert!(
                    try_parse(&mut buf).expect("try_parse").is_none(),
                    "prefix {k} of {:?} must ask for more bytes",
                    String::from_utf8_lossy(&raw)
                );
                assert_eq!(buf, &raw[..k], "an incomplete request consumes nothing");
            }
        }
    }

    #[test]
    fn malformed_framing_maps_to_its_status() {
        let huge_header =
            format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(MAX_HEADER_BYTES));
        let huge_body =
            format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let cases: [(&str, u16); 12] = [
            (&huge_header, 431),
            (&huge_body, 413),
            ("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
            ("BROKEN\r\n\r\n", 400),
            ("GET /  HTTP/1.1\r\n\r\n", 400),
            ("GET / HTTP/2\r\n\r\n", 400),
            ("GET / HTTP/1.1\r\nno-colon\r\n\r\n", 400),
            ("POST / HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400),
            ("POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\nhello", 400),
            ("POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n", 400),
            // A sign is not 1*DIGIT.
            ("POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello", 400),
            // Differing duplicates leave the body's end ambiguous.
            ("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello!", 400),
        ];
        for (raw, status) in cases {
            let mut buf = raw.as_bytes().to_vec();
            match try_parse(&mut buf).expect("try_parse") {
                Some(ReadOutcome::Bad(got, _)) => {
                    assert_eq!(got, status, "{:?}", &raw[..raw.len().min(60)])
                }
                other => panic!("{:?} parsed as {other:?}", &raw[..raw.len().min(60)]),
            }
        }
    }

    #[test]
    fn oversized_header_block_is_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(format!("X-Pad: {}\r\n", "a".repeat(MAX_HEADER_BYTES)).as_bytes());
        raw.extend_from_slice(b"\r\n");
        assert!(matches!(roundtrip(&raw)[..], [ReadOutcome::Bad(431, _)]));
    }
}
