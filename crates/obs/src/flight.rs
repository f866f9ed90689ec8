//! Always-on flight recorder: a fixed-capacity lock-free ring of
//! structured events for post-mortem debugging.
//!
//! Unlike the rest of the obs crate, the flight recorder is **not** gated
//! on `AUTOAC_OBS`: its whole point is to still hold the last ~moments of
//! history when a server crashes in a configuration nobody thought to
//! instrument. Recording costs a handful of atomic stores and no
//! allocation, so it is always on; there is no switch.
//!
//! ## Ring semantics
//!
//! The ring is a power-of-two array of seqlock-style slots made entirely
//! of `AtomicU64`s — no locks, no `unsafe`. A writer claims a sequence
//! number with one `fetch_add`, stamps the slot *odd* (`2·seq+1`,
//! write in progress), stores the payload words plus an FNV-1a checksum,
//! and stamps it *even* (`2·seq+2`, complete). Readers accept a slot only
//! when the stamp equals the completed value for the expected sequence
//! number before **and** after reading the payload *and* the checksum
//! matches — a torn read (writer racing the reader, or a wrapped writer
//! reusing the slot) fails at least one of the three checks and is
//! skipped rather than surfaced as garbage. Capacity eviction is
//! oldest-first by construction: slot `seq % capacity` is simply
//! overwritten by sequence `seq + capacity`.
//!
//! Messages are truncated to [`MSG_MAX`] bytes (at a char boundary); the
//! numeric `a`/`b` payload words carry the load-bearing values (trace
//! ids, durations, batch sizes) losslessly.
//!
//! ## Dumps
//!
//! [`flight_dump_to`] writes `FLIGHT_<run>.jsonl`: a `meta` line with the
//! ring geometry followed by one `{"type":"flight",...}` object per
//! surviving record in sequence order. The serving binary dumps on clean
//! exit (which a SIGTERM turns into) and from the panic hook installed by
//! [`install_panic_dump`]; `POST /admin/flight` dumps on demand.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::report::jstr;
use crate::span::now_ns;

/// Slots in the global ring (power of two).
pub const FLIGHT_CAPACITY: usize = 1024;
/// Maximum message bytes retained per record (longer messages truncate).
pub const MSG_MAX: usize = 96;

/// Payload words per slot: ts, meta, a, b + message words.
const PAYLOAD_WORDS: usize = 4 + MSG_MAX / 8;

/// What a flight record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightKind {
    /// One served request: `a` = trace id, `b` = total latency ns.
    Request,
    /// An [`crate::warn`] emission.
    Warn,
    /// Checkpoint reload attempt/outcome: `a`/`b` = fingerprints.
    Reload,
    /// Shutdown requested or lifecycle transition completed.
    Shutdown,
    /// Model-thread batch flush decision: `a` = batch size, `b` = window µs.
    Flush,
    /// Process/server lifecycle marker (start, listening, model loaded).
    Lifecycle,
    /// A panic caught by the installed hook.
    Panic,
}

impl FlightKind {
    /// Stable tag used in the JSONL dump.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightKind::Request => "request",
            FlightKind::Warn => "warn",
            FlightKind::Reload => "reload",
            FlightKind::Shutdown => "shutdown",
            FlightKind::Flush => "flush",
            FlightKind::Lifecycle => "lifecycle",
            FlightKind::Panic => "panic",
        }
    }

    fn to_u64(self) -> u64 {
        match self {
            FlightKind::Request => 0,
            FlightKind::Warn => 1,
            FlightKind::Reload => 2,
            FlightKind::Shutdown => 3,
            FlightKind::Flush => 4,
            FlightKind::Lifecycle => 5,
            FlightKind::Panic => 6,
        }
    }

    fn from_u64(v: u64) -> Option<FlightKind> {
        match v {
            0 => Some(FlightKind::Request),
            1 => Some(FlightKind::Warn),
            2 => Some(FlightKind::Reload),
            3 => Some(FlightKind::Shutdown),
            4 => Some(FlightKind::Flush),
            5 => Some(FlightKind::Lifecycle),
            6 => Some(FlightKind::Panic),
            _ => None,
        }
    }
}

/// One decoded record read back out of the ring.
#[derive(Clone, Debug)]
pub struct FlightRecord {
    /// Global sequence number (monotonic since process start).
    pub seq: u64,
    /// Nanoseconds since process obs start.
    pub ts_ns: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// Kind-specific numeric payload (see [`FlightKind`] docs).
    pub a: u64,
    /// Second kind-specific numeric payload.
    pub b: u64,
    /// Free-form message, truncated to [`MSG_MAX`] bytes.
    pub msg: String,
}

/// One seqlock slot: a stamp word, the payload words, and a checksum.
struct Slot {
    stamp: AtomicU64,
    words: [AtomicU64; PAYLOAD_WORDS],
    check: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            stamp: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
            check: AtomicU64::new(0),
        }
    }
}

fn fnv1a64_words(seq: u64, words: &[u64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut mix = |v: u64| {
        for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
            h ^= (v >> shift) & 0xff;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    mix(seq);
    for &w in words {
        mix(w);
    }
    h
}

/// A fixed-capacity lock-free event ring. The process-global instance
/// behind [`flight_record`] is all normal code needs; constructing a
/// private [`Ring`] is for tests that must not pollute global history.
pub struct Ring {
    mask: u64,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl Ring {
    /// A ring with `capacity` slots (rounded up to a power of two, min 8).
    pub fn new(capacity: usize) -> Ring {
        let cap = capacity.next_power_of_two().max(8);
        Ring {
            mask: cap as u64 - 1,
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::new()).collect(),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever written (including evicted ones).
    pub fn total_recorded(&self) -> u64 {
        self.head.load(Ordering::SeqCst)
    }

    /// Writes one record. Lock-free: one `fetch_add` plus plain atomic
    /// stores; never blocks and never allocates beyond message truncation.
    pub fn record(&self, kind: FlightKind, a: u64, b: u64, msg: &str) {
        let seq = self.head.fetch_add(1, Ordering::SeqCst);
        let Some(slot) = self.slots.get((seq & self.mask) as usize) else {
            return;
        };
        // Truncate to MSG_MAX at a char boundary so decode stays valid UTF-8.
        let bytes = msg.as_bytes();
        let mut take = bytes.len().min(MSG_MAX);
        while take > 0 && !msg.is_char_boundary(take) {
            take -= 1;
        }
        let mut words = [0u64; PAYLOAD_WORDS];
        words[0] = now_ns();
        words[1] = kind.to_u64() | ((take as u64) << 8);
        words[2] = a;
        words[3] = b;
        for (i, chunk) in bytes.get(..take).unwrap_or(&[]).chunks(8).enumerate() {
            let mut w = 0u64;
            for (j, &bb) in chunk.iter().enumerate() {
                w |= (bb as u64) << (8 * j);
            }
            if let Some(dst) = words.get_mut(4 + i) {
                *dst = w;
            }
        }
        let check = fnv1a64_words(seq, &words);

        // Seqlock write protocol: odd stamp → payload → checksum → even
        // stamp. All SeqCst: flight recording is far off any hot path and
        // the total ordering makes the torn-read reasoning trivial.
        slot.stamp.store(seq * 2 + 1, Ordering::SeqCst);
        for (dst, &w) in slot.words.iter().zip(words.iter()) {
            dst.store(w, Ordering::SeqCst);
        }
        slot.check.store(check, Ordering::SeqCst);
        slot.stamp.store(seq * 2 + 2, Ordering::SeqCst);
    }

    /// Reads every intact record currently in the ring, oldest first.
    /// Records mid-overwrite (stamp mismatch or checksum failure) are
    /// skipped, never surfaced torn.
    pub fn snapshot(&self) -> Vec<FlightRecord> {
        let head = self.head.load(Ordering::SeqCst);
        let start = head.saturating_sub(self.slots.len() as u64);
        let mut out = Vec::with_capacity((head - start) as usize);
        for seq in start..head {
            let Some(slot) = self.slots.get((seq & self.mask) as usize) else {
                continue;
            };
            let complete = seq * 2 + 2;
            if slot.stamp.load(Ordering::SeqCst) != complete {
                continue;
            }
            let mut words = [0u64; PAYLOAD_WORDS];
            for (dst, src) in words.iter_mut().zip(slot.words.iter()) {
                *dst = src.load(Ordering::SeqCst);
            }
            let check = slot.check.load(Ordering::SeqCst);
            if slot.stamp.load(Ordering::SeqCst) != complete {
                continue; // overwritten while reading
            }
            if check != fnv1a64_words(seq, &words) {
                continue; // torn
            }
            let word = |i: usize| words.get(i).copied().unwrap_or(0);
            let meta = word(1);
            let Some(kind) = FlightKind::from_u64(meta & 0xff) else {
                continue;
            };
            let len = ((meta >> 8) as usize).min(MSG_MAX);
            let mut bytes = Vec::with_capacity(len);
            for w in words.iter().skip(4) {
                for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
                    bytes.push(((w >> shift) & 0xff) as u8);
                }
            }
            bytes.truncate(len);
            out.push(FlightRecord {
                seq,
                ts_ns: word(0),
                kind,
                a: word(2),
                b: word(3),
                msg: String::from_utf8_lossy(&bytes).into_owned(),
            });
        }
        out
    }
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring::new(FLIGHT_CAPACITY))
}

/// Records one event into the process-global ring. Safe to call from any
/// thread, including inside signal-adjacent shutdown paths — it never
/// locks or allocates beyond message truncation.
#[inline]
pub fn flight_record(kind: FlightKind, a: u64, b: u64, msg: &str) {
    ring().record(kind, a, b, msg);
}

/// Intact records currently in the global ring, oldest first.
pub fn flight_snapshot() -> Vec<FlightRecord> {
    ring().snapshot()
}

/// Serializes `records` as the flight JSONL dump (meta line + one object
/// per record).
pub fn flight_jsonl(run: &str, capacity: usize, total: u64, records: &[FlightRecord]) -> String {
    let mut out = format!(
        "{{\"type\":\"meta\",\"run\":{},\"schema\":1,\"kind\":\"flight\",\"capacity\":{capacity},\"total_recorded\":{total}}}\n",
        jstr(run)
    );
    for r in records {
        out.push_str(&format!(
            "{{\"type\":\"flight\",\"seq\":{},\"ts_ns\":{},\"kind\":{},\"a\":{},\"b\":{},\"msg\":{}}}\n",
            r.seq,
            r.ts_ns,
            jstr(r.kind.as_str()),
            r.a,
            r.b,
            jstr(&r.msg)
        ));
    }
    out
}

/// Dumps the global ring to `dir/FLIGHT_<run>.jsonl` (creating `dir`),
/// returning the path written and the number of records dumped.
pub fn flight_dump_to(dir: &Path, run: &str) -> std::io::Result<(PathBuf, usize)> {
    let records = flight_snapshot();
    let text = flight_jsonl(run, ring().capacity(), ring().total_recorded(), &records);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("FLIGHT_{run}.jsonl"));
    std::fs::write(&path, text)?;
    Ok((path, records.len()))
}

/// Installs a panic hook that records the panic into the ring, dumps it
/// to `dir/FLIGHT_<run>.jsonl`, and then runs the previously installed
/// hook (so the default backtrace printing is preserved).
pub fn install_panic_dump(dir: &Path, run: &str) {
    let dir = dir.to_path_buf();
    let run = run.to_string();
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        ring().record(FlightKind::Panic, 0, 0, &info.to_string());
        let _ = flight_dump_to(&dir, &run);
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_kind_payload_and_message() {
        let ring = Ring::new(16);
        ring.record(FlightKind::Request, 0xdead_beef, 42, "GET /healthz 200");
        ring.record(FlightKind::Warn, 0, 0, "ckpt: disk full");
        let records = ring.snapshot();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].kind, FlightKind::Request);
        assert_eq!((records[0].a, records[0].b), (0xdead_beef, 42));
        assert_eq!(records[0].msg, "GET /healthz 200");
        assert_eq!(records[1].kind, FlightKind::Warn);
        assert_eq!(records[1].msg, "ckpt: disk full");
        assert!(records[0].seq < records[1].seq);
    }

    #[test]
    fn long_messages_truncate_at_char_boundaries() {
        let ring = Ring::new(8);
        // 94 ASCII bytes then a 3-byte char straddling the 96-byte cut.
        let msg = format!("{}\u{20AC}xyz", "a".repeat(94));
        ring.record(FlightKind::Lifecycle, 0, 0, &msg);
        let records = ring.snapshot();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].msg, "a".repeat(94));
        assert!(records[0].msg.len() <= MSG_MAX);
    }

    #[test]
    fn eviction_is_oldest_first_and_capacity_bounded() {
        let ring = Ring::new(32);
        let cap = ring.capacity();
        let total = cap as u64 + 50;
        for i in 0..total {
            ring.record(FlightKind::Flush, i, 0, "flush");
        }
        let records = ring.snapshot();
        assert_eq!(records.len(), cap, "exactly one ring of records survives");
        // Survivors are the newest `cap` records, in sequence order.
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, total - cap as u64 + i as u64);
            assert_eq!(r.a, r.seq);
        }
        assert_eq!(ring.total_recorded(), total);
    }

    #[test]
    fn jsonl_dump_has_meta_line_and_braced_objects() {
        let ring = Ring::new(8);
        ring.record(FlightKind::Panic, 1, 2, "boom \"quoted\"");
        let text = flight_jsonl("unit", ring.capacity(), ring.total_recorded(), &ring.snapshot());
        let mut lines = text.lines();
        let meta = lines.next().expect("meta line");
        assert!(meta.contains(r#""kind":"flight""#), "{meta}");
        assert!(meta.contains(r#""capacity":8"#), "{meta}");
        let rec = lines.next().expect("record line");
        assert!(rec.contains(r#""kind":"panic""#), "{rec}");
        assert!(rec.contains(r#"\"quoted\""#), "escaping: {rec}");
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "line: {line}");
        }
    }

    #[test]
    fn global_record_and_snapshot_are_wired() {
        flight_record(FlightKind::Lifecycle, 7, 8, "unit-test-global-marker");
        let records = flight_snapshot();
        assert!(
            records.iter().any(|r| r.msg == "unit-test-global-marker" && r.a == 7 && r.b == 8),
            "global ring must surface the record"
        );
    }
}
