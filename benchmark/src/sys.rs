//! Process and machine facts: peak resident memory, per-thread CPU time by
//! thread name, the hypervisor's steal time and the CPU model from
//! `/proc`; process and calling-thread CPU time from the kernel's CPU-time
//! clocks (64-bit Linux); and a probe of the host's speed.

use std::fs;
use std::time::Instant;

use crate::stats::{median, unstolen, Timed};

/// Clock ticks per second of `/proc/*/stat` CPU fields (`USER_HZ`, 100 on
/// every Linux ABI this runs on).
const TICKS_PER_S: f64 = 100.0;

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(comm, cpu seconds)` from one `/proc/.../stat` line: user plus system
/// time. The command name is parenthesized and may contain spaces, so
/// fields are counted from the closing parenthesis.
pub fn parse_stat(line: &str) -> Option<(String, f64)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_string();
    let fields: Vec<&str> = line.get(close + 1..)?.split_whitespace().collect();
    // After ")": state(0) ppid(1) … utime is field 14 overall → index 11.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((comm, (utime + stime) / TICKS_PER_S))
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads a CPU-time clock to the nanosecond (`/proc` counts 10 ms ticks,
/// too coarse for one training epoch).
fn cpu_clock_s(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// CPU seconds consumed by the whole process so far (exited threads
/// included).
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds consumed by the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// `(thread name, cpu seconds)` for every live thread of this process.
pub fn threads_cpu_s() -> Vec<(String, f64)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out: Vec<(String, f64)> = dir
        .flatten()
        .filter_map(|e| read_stat(&e.path().join("stat").to_string_lossy()))
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn read_stat(path: &str) -> Option<(String, f64)> {
    parse_stat(&fs::read_to_string(path).ok()?)
}

/// `(steal seconds summed over the machine's CPUs, CPU count)` from the
/// text of `/proc/stat`: the eighth value of the `cpu` line is the time
/// the hypervisor ran something else while a CPU of this machine had work.
pub fn parse_proc_stat(text: &str) -> Option<(f64, usize)> {
    let total = text.lines().find(|l| l.starts_with("cpu "))?;
    let steal: f64 = total.split_whitespace().nth(8)?.parse().ok()?;
    let cpus = text
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count();
    Some((steal / TICKS_PER_S, cpus.max(1)))
}

fn steal_and_cpus() -> (f64, usize) {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| parse_proc_stat(&t))
        .unwrap_or((0.0, 1))
}

/// An instant on the wall clock and on the machine's steal clock, to time
/// an interval and tell how much of it the hypervisor took the machine's
/// CPUs away.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    steal_s: f64,
    cpus: usize,
}

impl Stopwatch {
    /// Marks now.
    pub fn start() -> Stopwatch {
        let (steal_s, cpus) = steal_and_cpus();
        Stopwatch {
            wall: Instant::now(),
            steal_s,
            cpus,
        }
    }

    /// Seconds from this mark to `later`, and the share of the machine's
    /// CPU time in between that the hypervisor took (steal over wall time ×
    /// CPUs; `/proc/stat` counts 10 ms ticks).
    pub fn until(&self, later: &Stopwatch) -> (f64, f64) {
        let wall_s = (later.wall - self.wall).as_secs_f64();
        let steal = (later.steal_s - self.steal_s) / (wall_s * self.cpus as f64).max(1e-9);
        (wall_s, steal)
    }

    /// [`Stopwatch::until`] now.
    pub fn stop(&self) -> (f64, f64) {
        self.until(&Stopwatch::start())
    }
}

/// Multiply-xorshift rounds in one block of the host-speed probe.
const PROBE_ROUNDS: u64 = 2_000_000;
/// Blocks per probe; a probe reports their median.
const PROBE_BLOCKS: usize = 5;
/// Least seconds between two probes of one run.
const PROBE_EVERY_S: f64 = 2.0;
/// Median block time (ms) of the probe on the machine the README
/// describes: the host speed that normalized metrics are stated at.
pub const REFERENCE_PROBE_MS: f64 = 6.3;

/// One block of fixed integer work that belongs to no layer of the
/// program, so no change to the program changes its time; only the host's
/// speed does.
fn probe_block() -> u64 {
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..PROBE_ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    x
}

/// The host's speed now: the median block time in ms, and the machine's
/// steal share over the probe.
fn probe_host() -> (f64, f64) {
    let watch = Stopwatch::start();
    let blocks: Vec<f64> = (0..PROBE_BLOCKS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(probe_block());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    (median(&blocks), watch.stop().1)
}

/// Host-speed probes taken through a run. The host's speed drifts by a
/// fifth over minutes, and the program's times drift with it; a metric
/// stated at the reference speed is its measured value times
/// `REFERENCE_PROBE_MS` over the run's median probe (see [`HostSpeed::factor`]).
#[derive(Debug, Default)]
pub struct HostSpeed {
    /// `(median block ms, steal share)` of each probe.
    probes: Vec<(f64, f64)>,
    last: Option<Instant>,
}

impl HostSpeed {
    /// Probes now, unless the last probe was under `PROBE_EVERY_S` ago.
    pub fn tick(&mut self) {
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= PROBE_EVERY_S)
        {
            self.probes.push(probe_host());
            self.last = Some(Instant::now());
        }
    }

    /// Given `(median block ms, steal share)` probes, for tests.
    #[cfg(test)]
    pub fn from_probes(probes: Vec<(f64, f64)>) -> HostSpeed {
        HostSpeed { probes, last: None }
    }

    /// Median probe block time in ms, over what [`unstolen`] keeps (the
    /// same rule as the timed samples).
    pub fn probe_ms(&self) -> f64 {
        median(&unstolen(&self.probes, Timed::Duration).0)
    }

    /// Number of probes taken.
    pub fn probes(&self) -> usize {
        self.probes.len()
    }

    /// What a duration measured in this run is multiplied by (a rate is
    /// divided by) to state it at the reference speed: above 1 on a host
    /// faster than the reference.
    pub fn factor(&self) -> f64 {
        REFERENCE_PROBE_MS / self.probe_ms()
    }
}

/// The `model name` line of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_in_comm() {
        let line = "4242 (serve worker) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 9 0 100";
        let (comm, cpu) = parse_stat(line).unwrap();
        assert_eq!(comm, "serve worker");
        assert!((cpu - 3.0).abs() < 1e-12);
    }

    #[test]
    fn proc_stat_steal_and_cpus() {
        let text = "cpu  3121774 0 348689 4172653 4199 0 9892 69162 0 0\n\
                    cpu0 1560000 0 174000 2086000 2100 0 4900 34500 0 0\n\
                    cpu1 1561774 0 174689 2086653 2099 0 4992 34662 0 0\n\
                    intr 1 2 3\n";
        let (steal, cpus) = parse_proc_stat(text).unwrap();
        assert!((steal - 691.62).abs() < 1e-9);
        assert_eq!(cpus, 2);
        assert_eq!(parse_proc_stat("intr 1\n"), None);
        let (wall_s, steal) = Stopwatch::start().stop();
        assert!(wall_s >= 0.0 && steal >= 0.0);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(!threads_cpu_s().is_empty());
        // The CPU clocks advance with work, below the 10 ms tick.
        let (p0, t0) = (process_cpu_s(), thread_cpu_s());
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let (p1, t1) = (process_cpu_s(), thread_cpu_s());
        assert!(t1 > t0 && p1 > p0, "{p0} {p1} {t0} {t1}");
    }

    #[test]
    fn host_probes_are_spaced_and_give_a_finite_factor() {
        let mut host = HostSpeed::default();
        host.tick();
        host.tick();
        // The second tick came too soon after the first.
        assert_eq!(host.probes(), 1);
        assert!(host.probe_ms() > 0.0);
        assert!(host.factor().is_finite() && host.factor() > 0.0);
        assert!(HostSpeed::default().probe_ms().is_nan());
    }
}
