//! Order statistics: median and MAD for every reported metric, the
//! quartile spread the acceptance rule uses, the tail-percentile rule, and
//! the rule that drops samples the hypervisor stole time from.

/// Median of the samples (mean of the middle pair for even counts); NaN
/// when there are none.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median absolute deviation from the median (unscaled).
pub fn mad(xs: &[f64]) -> f64 {
    let m = median(xs);
    let dev: Vec<f64> = xs.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// A metric's reported statistics: the median of its samples (the reported
/// value), their MAD and their count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the samples: the reported value.
    pub median: f64,
    /// Median absolute deviation.
    pub mad: f64,
    /// Number of samples; 0 for a layer the workload does not exercise.
    pub n: usize,
}

impl Summary {
    /// Summarizes the samples.
    pub fn of(xs: &[f64]) -> Summary {
        Summary {
            median: median(xs),
            mad: mad(xs),
            n: xs.len(),
        }
    }

    /// A single measurement (MAD 0, n 1).
    pub fn one(x: f64) -> Summary {
        Summary::of(&[x])
    }

    /// A layer the workload does not exercise: no work, so 0, with n 0.
    pub fn idle() -> Summary {
        Summary {
            median: 0.0,
            mad: 0.0,
            n: 0,
        }
    }
}

/// Largest share of the machine's CPU time the hypervisor may have taken
/// during a timed sample (steal, see `sys::Stopwatch`) for the sample to
/// count as the program's time as measured.
pub const MAX_STEAL: f64 = 0.05;

/// What a timed sample measures, and so how steal moves it: work that
/// loses a share `f` of the machine's CPU time takes `1 / (1 − f)` times as
/// long, and gets through `1 − f` times as much per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timed {
    /// A duration (lower is better).
    Duration,
    /// A rate (higher is better).
    Rate,
}

/// The values of `(value, steal share)` samples that the median is taken
/// over, and the factor they were scaled by. When at least half of them
/// carry at most [`MAX_STEAL`], those, as measured (factor 1). Otherwise
/// the samples fell in a stretch of steal, and every one is scaled back to
/// an unstolen machine by the samples' mean steal share `f` (a mean, since
/// `/proc/stat` counts steal in 10 ms ticks, coarse for one short sample):
/// a duration by `1 − f`, a rate by `1 / (1 − f)`.
pub fn unstolen(samples: &[(f64, f64)], kind: Timed) -> (Vec<f64>, f64) {
    let clean: Vec<f64> = samples
        .iter()
        .filter(|s| s.1 <= MAX_STEAL)
        .map(|s| s.0)
        .collect();
    if 2 * clean.len() >= samples.len() {
        return (clean, 1.0);
    }
    let f = samples.iter().map(|s| s.1).sum::<f64>() / samples.len() as f64;
    let factor = match kind {
        Timed::Duration => 1.0 - f,
        Timed::Rate => 1.0 / (1.0 - f),
    };
    (samples.iter().map(|s| s.0 * factor).collect(), factor)
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` (default `exclusive` method) computes
/// them, so the spread printed here is the one the acceptance rule sees.
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let ld = xs.len();
    if ld < 2 {
        return None;
    }
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let q = quartiles(xs)?;
    let m = median(xs);
    (m != 0.0).then(|| (q[2] - q[0]) / m.abs())
}

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps products like `0.999 × 10000` from rounding up a whole rank.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// Nearest-rank percentile `p` (0–100) of already sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The highest of p99.9, p99, p90 and p50 that has at least ten samples
/// beyond it in a set of `n`; `None` when even the median lacks ten.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        // |x - 2| = [1, 0, 1, 8] → median 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 10.0]), 1.0);
        let s = Summary::of(&[5.0, 7.0, 6.0]);
        assert_eq!((s.median, s.mad, s.n), (6.0, 1.0, 3));
        assert_eq!(Summary::of(&[5.0, 7.0, 4.5, 6.0]).median, 5.5);
        assert!(Summary::of(&[]).median.is_nan());
        let idle = Summary::idle();
        assert_eq!((idle.median, idle.n), (0.0, 0));
    }

    #[test]
    fn stolen_samples_are_dropped_or_scaled_back() {
        // Mostly clean: the stolen sample goes, the rest stay as measured.
        let s = [(1.0, 0.0), (9.0, 0.5), (2.0, 0.05), (3.0, 0.01)];
        assert_eq!(unstolen(&s, Timed::Duration), (vec![1.0, 2.0, 3.0], 1.0));
        // Mostly stolen (mean share 0.25): all, scaled back.
        let s = [(4.0, 0.3), (8.0, 0.2), (2.0, 0.5), (6.0, 0.0)];
        assert_eq!(
            unstolen(&s, Timed::Duration),
            (vec![3.0, 6.0, 1.5, 4.5], 0.75)
        );
        let (rates, factor) = unstolen(&s, Timed::Rate);
        assert!((rates[1] - 8.0 / 0.75).abs() < 1e-12);
        assert!((factor - 1.0 / 0.75).abs() < 1e-12);
        assert_eq!(unstolen(&[], Timed::Rate), (vec![], 1.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&xs).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
    }
}
