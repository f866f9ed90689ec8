//! HTTP load from one thread over a few keep-alive connections with
//! pipelined writes: open loop on a seeded Poisson schedule, or closed loop
//! at saturation; response framing and per-phase statistics.
//!
//! In an open-loop phase every request is timed from the moment it was
//! *due*, not from when it was written, so a stall in the server or in the
//! generator is charged to every request that waited behind it. How late
//! the generator itself ran is recorded per request; a phase whose p99
//! lateness exceeds [`MAX_GEN_LATE_MS`] is marked invalid. A saturation
//! phase keeps a fixed number of requests in flight per connection and
//! counts the answers per second.
//!
//! The requests are an assumption, not a measured trace: each phase sends
//! one endpoint, and cycles through the 32 fixed 4-node sets of
//! `serve_bench` (the repository's only other serving load). Arrivals are
//! Poisson, the usual model of independent users.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{median, percentile};

/// Node ids per request.
pub const NODES_PER_REQUEST: usize = 4;
/// Fixed node sets the load cycles through.
pub const NODE_SETS: usize = 32;
/// Generator lateness (p99) above which a phase's numbers are not trusted.
pub const MAX_GEN_LATE_MS: f64 = 1.0;

/// `serve_bench`'s node sets: set `i` holds `(37i + 11j + 1) mod n` for
/// `j` in `0..4`.
pub fn node_sets(num_nodes: usize) -> Vec<[u32; NODES_PER_REQUEST]> {
    (0..NODE_SETS)
        .map(|i| std::array::from_fn(|j| ((i * 37 + j * 11 + 1) % num_nodes) as u32))
        .collect()
}

/// The two endpoints the load sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /v1/classify`.
    Classify,
    /// `POST /v1/attrs`.
    Attrs,
}

impl Kind {
    fn path(self) -> &'static str {
        match self {
            Kind::Classify => "/v1/classify",
            Kind::Attrs => "/v1/attrs",
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Due time, nanoseconds after the phase start.
    pub due_ns: u64,
    /// Connection index it is written on.
    pub conn: usize,
    /// Request kind.
    pub kind: Kind,
    /// Requested node ids.
    pub nodes: [u32; NODES_PER_REQUEST],
}

impl Planned {
    /// The request's wire bytes (HTTP/1.1, keep-alive by default).
    pub fn bytes(&self) -> Vec<u8> {
        let ids: Vec<String> = self.nodes.iter().map(u32::to_string).collect();
        let body = format!("{{\"nodes\":[{}]}}", ids.join(","));
        format!(
            "POST {} HTTP/1.1\r\nHost: autoac\r\nContent-Length: {}\r\n\r\n{body}",
            self.kind.path(),
            body.len()
        )
        .into_bytes()
    }
}

/// Poisson arrivals of `kind` requests at `rate` per second for `seconds`,
/// spread round-robin over `conns` connections: exponential gaps drawn from
/// `seed` alone, request `i` asking for `sets[i mod len]`.
pub fn schedule(
    seed: u64,
    rate: f64,
    seconds: f64,
    kind: Kind,
    sets: &[[u32; NODES_PER_REQUEST]],
    conns: usize,
) -> Vec<Planned> {
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon_ns = seconds * 1e9;
    let mut t_ns = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen();
        t_ns += -(1.0 - u).ln() / rate * 1e9;
        if t_ns >= horizon_ns {
            return out;
        }
        out.push(Planned {
            due_ns: t_ns as u64,
            conn: out.len() % conns.max(1),
            kind,
            nodes: sets[out.len() % sets.len()],
        });
    }
}

/// A complete HTTP response off the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes per `Content-Length`.
    pub body: Vec<u8>,
}

/// Incremental response framing for one pipelined connection: bytes go in
/// as they arrive, complete responses come out in order.
#[derive(Debug, Default)]
pub struct Framer {
    buf: Vec<u8>,
}

impl Framer {
    /// Appends bytes read from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, `Ok(None)` when more bytes are needed.
    pub fn next(&mut self) -> Result<Option<Response>, String> {
        let Some(end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..end]).map_err(|_| "non-utf8 response head")?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or("bad status line")?;
        let mut length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| "bad content-length")?;
                }
            }
        }
        let total = end + 4 + length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Response { status, body }))
    }
}

/// One keep-alive connection in non-blocking mode.
pub struct Conn {
    stream: TcpStream,
    framer: Framer,
    /// Bytes accepted for sending but not yet written.
    out: Vec<u8>,
}

impl Conn {
    /// Connects to the server.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            framer: Framer::default(),
            out: Vec::new(),
        })
    }

    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.out.extend_from_slice(bytes);
        self.flush()
    }

    fn flush(&mut self) -> io::Result<()> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "server closed")),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads whatever has arrived; returns whether any bytes came in.
    fn poll(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        let mut any = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ))
                }
                Ok(n) => {
                    self.framer.push(&chunk[..n]);
                    any = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(any),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Sends one request and waits for its response (closed loop; used for
    /// probe sets, scrapes and the quality pass, never during a phase).
    pub fn round_trip(&mut self, request: &[u8], timeout: Duration) -> Result<Response, String> {
        self.send(request).map_err(|e| format!("write: {e}"))?;
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(r) = self.framer.next()? {
                return Ok(r);
            }
            self.flush().map_err(|e| format!("write: {e}"))?;
            if !self.poll().map_err(|e| format!("read: {e}"))? {
                if Instant::now() > deadline {
                    return Err("response timed out".into());
                }
                std::thread::sleep(Duration::from_micros(50));
            }
        }
    }
}

/// What one phase measured.
#[derive(Debug, Clone, Default)]
pub struct PhaseStats {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Phase length in seconds.
    pub seconds: f64,
    /// Requests scheduled.
    pub offered: usize,
    /// Responses that arrived within the phase plus the grace period.
    pub in_time: usize,
    /// Responses that arrived at all (before the drain deadline).
    pub completed: usize,
    /// Requests whose response was wrong, missing or an error.
    pub failed: usize,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// `(due ns, latency from due time in ms)` of every correct response,
    /// in completion order.
    pub latency: Vec<(u64, f64)>,
    /// How late each request was written, ms.
    pub late_ms: Vec<f64>,
}

impl PhaseStats {
    fn latency_ms(&self) -> Vec<f64> {
        self.latency.iter().map(|&(_, ms)| ms).collect()
    }

    /// p99 (nearest rank) of latency; infinite without samples.
    pub fn p99_ms(&self) -> f64 {
        sorted_pct(&self.latency_ms(), 99.0)
    }

    /// Median latency of the requests due in each `window_s` slice of the
    /// phase, for slices with at least [`MIN_WINDOW`] of them.
    pub fn window_p50s(&self, window_s: f64) -> Vec<f64> {
        let mut slices: Vec<Vec<f64>> = vec![];
        for &(due_ns, ms) in &self.latency {
            let i = (due_ns as f64 / (window_s * 1e9)) as usize;
            if slices.len() <= i {
                slices.resize(i + 1, vec![]);
            }
            slices[i].push(ms);
        }
        slices
            .iter()
            .filter(|s| s.len() >= MIN_WINDOW)
            .map(|s| median(s))
            .collect()
    }

    /// Correct responses per second that arrived in each whole `window_s`
    /// slice of the phase.
    pub fn window_rates(&self, window_s: f64) -> Vec<f64> {
        let windows = (self.seconds / window_s + 1e-9) as usize;
        let mut counts = vec![0usize; windows];
        for &(due_ns, ms) in &self.latency {
            let arrived_s = due_ns as f64 / 1e9 + ms / 1e3;
            if let Some(c) = counts.get_mut((arrived_s / window_s) as usize) {
                *c += 1;
            }
        }
        counts.iter().map(|&c| c as f64 / window_s).collect()
    }

    /// p99 of generator lateness.
    pub fn late_p99_ms(&self) -> f64 {
        sorted_pct(&self.late_ms, 99.0)
    }

    /// Whether the generator kept to its schedule: if not, the phase is
    /// marked invalid in the document, because part of its latency is the
    /// generator's rather than the server's. A saturation phase has no
    /// schedule to keep.
    pub fn valid(&self) -> bool {
        self.late_ms.is_empty() || self.late_p99_ms() <= MAX_GEN_LATE_MS
    }
}

/// Fewest requests a window's median is taken over.
pub const MIN_WINDOW: usize = 50;

fn sorted_pct(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::INFINITY;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// Outstanding request indices per connection, in write order.
type Pending = Vec<VecDeque<usize>>;

/// Reads what has arrived on every connection and hands each complete
/// response, with the index of the request it answers (the oldest
/// outstanding one on its connection) and its arrival time, to `answer`.
/// Returns whether any bytes came in, or the first broken connection.
fn receive(
    conns: &mut [Conn],
    pending: &mut Pending,
    mut answer: impl FnMut(usize, Response, Instant),
) -> Result<bool, String> {
    let mut progressed = false;
    for (c, conn) in conns.iter_mut().enumerate() {
        let broken = |e: &dyn std::fmt::Display| format!("connection {c}: {e}");
        progressed |= conn
            .flush()
            .and_then(|()| conn.poll())
            .map_err(|e| broken(&e))?;
        while let Some(resp) = conn.framer.next().map_err(|e| broken(&e))? {
            let i = pending[c]
                .pop_front()
                .ok_or_else(|| broken(&"unsolicited response"))?;
            answer(i, resp, Instant::now());
        }
    }
    Ok(progressed)
}

impl PhaseStats {
    /// Counts one response to `p`, `ms` after it was due, and checks it.
    fn answer(
        &mut self,
        p: &Planned,
        resp: &Response,
        ms: f64,
        in_time: bool,
        check: &dyn Fn(&Planned, &Response) -> Result<(), String>,
    ) {
        self.completed += 1;
        self.in_time += usize::from(in_time);
        match check(p, resp) {
            Ok(()) => self.latency.push((p.due_ns, ms)),
            Err(e) => {
                self.failed += 1;
                if self.failures.len() < 8 {
                    self.failures.push(e);
                }
            }
        }
    }

    /// Counts every request still unanswered as failed.
    fn fail_missing(&mut self) {
        let missing = self.offered - self.completed;
        if missing > 0 {
            self.failed += missing;
            self.failures
                .push(format!("{missing} requests never answered"));
        }
    }
}

fn ms_since(t: Instant, since: Instant) -> f64 {
    t.saturating_duration_since(since).as_secs_f64() * 1e3
}

/// Runs one phase: writes each planned request on its connection at its
/// due time, reads and checks responses as they arrive, then waits up to
/// `grace` past the schedule for stragglers (counted in time) and up to
/// `drain` more for the rest (counted as completed, not in time).
/// `check` validates one response against its request.
pub fn run_phase(
    conns: &mut [Conn],
    plan: &[Planned],
    rate: f64,
    seconds: f64,
    grace: Duration,
    drain: Duration,
    check: &dyn Fn(&Planned, &Response) -> Result<(), String>,
) -> PhaseStats {
    let mut st = PhaseStats {
        rate,
        seconds,
        offered: plan.len(),
        ..PhaseStats::default()
    };
    let wire: Vec<Vec<u8>> = plan.iter().map(Planned::bytes).collect();
    let mut pending: Pending = vec![VecDeque::new(); conns.len()];
    let start = Instant::now() + Duration::from_millis(5);
    let due = |p: &Planned| start + Duration::from_nanos(p.due_ns);
    let in_time_until = start + Duration::from_secs_f64(seconds) + grace;
    let give_up = in_time_until + drain;
    let mut next = 0usize;
    while st.completed < plan.len() {
        let now = Instant::now();
        while next < plan.len() && due(&plan[next]) <= now {
            let p = &plan[next];
            st.late_ms.push(ms_since(now, due(p)));
            if let Err(e) = conns[p.conn].send(&wire[next]) {
                st.failures.push(format!("write failed: {e}"));
                st.fail_missing();
                return st;
            }
            pending[p.conn].push_back(next);
            next += 1;
        }
        let received = receive(conns, &mut pending, |i, resp, arrived| {
            let p = &plan[i];
            st.answer(
                p,
                &resp,
                ms_since(arrived, due(p)),
                arrived <= in_time_until,
                check,
            );
        });
        let progressed = match received {
            Ok(any) => any,
            Err(e) => {
                st.failures.push(e);
                break;
            }
        };
        let now = Instant::now();
        if now > give_up {
            break;
        }
        if !progressed {
            // Sleep toward the next due time, but keep polling for replies.
            let until_due = plan
                .get(next)
                .map(|p| due(p).saturating_duration_since(now))
                .unwrap_or(POLL);
            std::thread::sleep(until_due.min(POLL));
        }
    }
    st.fail_missing();
    st
}

/// Longest the generator sleeps between looks at its connections.
const POLL: Duration = Duration::from_micros(200);

/// Runs one closed-loop saturation phase: keeps `depth` `kind` requests in
/// flight on every connection, writing the next as soon as one is
/// answered, for `seconds`; then waits up to `drain` for the last answers.
/// Request `i` asks for `sets[i mod len]`, and is timed from its write.
pub fn run_saturated(
    conns: &mut [Conn],
    kind: Kind,
    sets: &[[u32; NODES_PER_REQUEST]],
    depth: usize,
    seconds: f64,
    drain: Duration,
    check: &dyn Fn(&Planned, &Response) -> Result<(), String>,
) -> PhaseStats {
    let mut st = PhaseStats {
        rate: f64::NAN,
        seconds,
        ..PhaseStats::default()
    };
    let mut plan: Vec<Planned> = vec![];
    let mut pending: Pending = vec![VecDeque::new(); conns.len()];
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let give_up = end + drain;
    loop {
        let now = Instant::now();
        if now < end {
            for (c, conn) in conns.iter_mut().enumerate() {
                while pending[c].len() < depth {
                    let p = Planned {
                        due_ns: now.duration_since(start).as_nanos() as u64,
                        conn: c,
                        kind,
                        nodes: sets[plan.len() % sets.len()],
                    };
                    if let Err(e) = conn.send(&p.bytes()) {
                        st.failures.push(format!("write failed: {e}"));
                        st.offered = plan.len();
                        st.fail_missing();
                        return st;
                    }
                    pending[c].push_back(plan.len());
                    plan.push(p);
                }
            }
        } else if st.completed == plan.len() {
            break;
        }
        let received = receive(conns, &mut pending, |i, resp, arrived| {
            let p = &plan[i];
            let ms = ms_since(arrived, start) - p.due_ns as f64 / 1e6;
            st.answer(p, &resp, ms, arrived <= end, check);
        });
        let progressed = match received {
            Ok(any) => any,
            Err(e) => {
                st.failures.push(e);
                break;
            }
        };
        if Instant::now() > give_up {
            break;
        }
        if !progressed {
            std::thread::sleep(POLL);
        }
    }
    st.offered = plan.len();
    st.fail_missing();
    st
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed_and_poisson() {
        let sets = node_sets(500);
        let a = schedule(11, 1000.0, 2.0, Kind::Classify, &sets, 2);
        assert_eq!(a, schedule(11, 1000.0, 2.0, Kind::Classify, &sets, 2));
        assert_ne!(a, schedule(12, 1000.0, 2.0, Kind::Classify, &sets, 2));
        // ~2000 arrivals; Poisson sd ≈ 45.
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.iter().all(|p| p.due_ns < 2_000_000_000));
        assert!(a.iter().enumerate().all(|(i, p)| p.conn == i % 2
            && p.kind == Kind::Classify
            && p.nodes == sets[i % NODE_SETS]));
    }

    #[test]
    fn node_sets_match_serve_bench() {
        let sets = node_sets(500);
        assert_eq!(sets.len(), 32);
        assert_eq!(sets[0], [1, 12, 23, 34]);
        assert_eq!(sets[31], [148, 159, 170, 181]);
        // Ids wrap at the node count.
        assert_eq!(node_sets(20)[1], [18, 9, 0, 11]);
    }

    #[test]
    fn window_medians_skip_thin_windows() {
        let mut st = PhaseStats::default();
        // 0.1 s windows: 60 requests at 1 ms in the first, 60 at 3 ms in
        // the second, 10 in the third.
        for i in 0..60u64 {
            st.latency.push((i * 1_000_000, 1.0));
            st.latency.push((100_000_000 + i * 1_000_000, 3.0));
        }
        for i in 0..10u64 {
            st.latency.push((200_000_000 + i, 9.0));
        }
        assert_eq!(st.window_p50s(0.1), vec![1.0, 3.0]);
    }

    #[test]
    fn request_bytes_are_well_framed() {
        let p = Planned {
            due_ns: 0,
            conn: 0,
            kind: Kind::Attrs,
            nodes: [1, 2, 30, 4],
        };
        let s = String::from_utf8(p.bytes()).unwrap();
        let body = r#"{"nodes":[1,2,30,4]}"#;
        assert!(s.starts_with("POST /v1/attrs HTTP/1.1\r\n"));
        assert!(s.ends_with(&format!("Content-Length: {}\r\n\r\n{body}", body.len())));
    }

    fn response(status: u16, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn framing_handles_splits_and_pipelining() {
        let one = response(200, r#"{"a":1}"#);
        let two = response(404, r#"{"error":"x"}"#);
        // Split inside the head and inside the body, at every offset.
        for cut in 1..one.len() {
            let mut f = Framer::default();
            f.push(&one[..cut]);
            assert_eq!(f.next().unwrap(), None, "cut {cut}");
            f.push(&one[cut..]);
            let r = f.next().unwrap().unwrap();
            assert_eq!(
                (r.status, r.body.as_slice()),
                (200, br#"{"a":1}"#.as_slice())
            );
            assert_eq!(f.next().unwrap(), None);
        }
        // Two responses (and part of a third) in one read.
        let mut f = Framer::default();
        let mut bytes = [one.clone(), two.clone()].concat();
        bytes.extend_from_slice(&one[..10]);
        f.push(&bytes);
        assert_eq!(f.next().unwrap().unwrap().status, 200);
        let r = f.next().unwrap().unwrap();
        assert_eq!(
            (r.status, r.body.as_slice()),
            (404, br#"{"error":"x"}"#.as_slice())
        );
        assert_eq!(f.next().unwrap(), None);
        f.push(&one[10..]);
        assert_eq!(f.next().unwrap().unwrap().status, 200);
        let mut bad = Framer::default();
        bad.push(b"HTTP/1.1 abc\r\n\r\n");
        assert!(bad.next().is_err());
    }

    #[test]
    fn window_rates_count_arrivals_per_whole_slice() {
        let mut st = PhaseStats {
            seconds: 0.25,
            ..PhaseStats::default()
        };
        // Due at 0 and answered at 10, 60 and 120 ms, and after the last
        // whole 0.1 s slice (at 210 ms).
        for ms in [10.0, 60.0, 120.0, 210.0] {
            st.latency.push((0, ms));
        }
        assert_eq!(st.window_rates(0.1), vec![20.0, 10.0]);
    }

    /// Answers every request on every accepted connection with `200` and
    /// an empty JSON object, until the client hangs up.
    fn echo_server(conns: usize) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut answered = 0;
            for _ in 0..conns {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = Vec::new();
                let mut chunk = [0u8; 4096];
                while let Ok(n) = s.read(&mut chunk) {
                    if n == 0 {
                        break;
                    }
                    buf.extend_from_slice(&chunk[..n]);
                    while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                        let head = String::from_utf8_lossy(&buf[..end]).to_string();
                        let len: usize = head
                            .split("Content-Length: ")
                            .nth(1)
                            .map_or(0, |v| v.trim().parse().unwrap());
                        if buf.len() < end + 4 + len {
                            break;
                        }
                        buf.drain(..end + 4 + len);
                        s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                            .unwrap();
                        answered += 1;
                    }
                }
            }
            answered
        });
        (addr, handle)
    }

    #[test]
    fn saturation_keeps_its_depth_in_flight_and_drains() {
        // One connection at a time: the echo server serves them in turn.
        let (addr, server) = echo_server(1);
        let mut conns = vec![Conn::open(addr).unwrap()];
        let sets = node_sets(100);
        let st = run_saturated(
            &mut conns,
            Kind::Attrs,
            &sets,
            4,
            0.2,
            Duration::from_secs(5),
            &|_, r| {
                (r.status == 200)
                    .then_some(())
                    .ok_or_else(|| "status".into())
            },
        );
        drop(conns);
        let answered = server.join().unwrap();
        assert!(st.failures.is_empty(), "{:?}", st.failures);
        assert_eq!((st.failed, st.completed), (0, st.offered));
        assert_eq!(answered, st.offered);
        assert!(st.offered > 4, "the loop refills as answers arrive");
        assert!(st.valid() && st.late_ms.is_empty());
        assert!(st.window_rates(0.1).iter().all(|&r| r > 0.0));
    }
}
