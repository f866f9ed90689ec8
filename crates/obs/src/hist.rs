//! Log-scaled histograms with exact count/sum/min/max.
//!
//! Buckets are powers of two: bucket 0 holds everything below 1.0
//! (durations are non-negative, but the bucket formally covers
//! `(-inf, 1)` so *every* recorded value lands in exactly one bucket),
//! bucket `i` for `1 <= i < 63` holds `[2^(i-1), 2^i)`, and bucket 63 is
//! the overflow bucket `[2^62, +inf]`. 63 doublings above 1 ns is ~146
//! years, so nanosecond latencies never saturate.
//!
//! The bucket index is computed from the IEEE-754 exponent bits rather
//! than `f64::log2`, so boundary values (exact powers of two) classify
//! exactly — `log2(8.0)` returning `2.9999999999999996` would otherwise
//! put `8.0` in the wrong bucket.

/// Number of histogram buckets.
pub const NUM_BUCKETS: usize = 64;

/// Index of the bucket that `v` falls into. Total over all finite inputs:
/// every value lands in exactly one bucket (NaN is clamped into bucket 0).
pub fn bucket_index(v: f64) -> usize {
    if !(v >= 1.0) {
        // Covers v < 1, negatives, and NaN (all comparisons with NaN fail).
        return 0;
    }
    if v.is_infinite() {
        return NUM_BUCKETS - 1;
    }
    // For finite v >= 1.0 the value is a normal float, so the unbiased
    // exponent e satisfies 2^e <= v < 2^(e+1), i.e. floor(log2 v) == e.
    let e = ((v.to_bits() >> 52) & 0x7ff) as usize - 1023;
    (e + 1).min(NUM_BUCKETS - 1)
}

/// Half-open bounds `[lo, hi)` of bucket `i` (the last bucket's `hi` is
/// `+inf`, and it also admits `+inf` itself; bucket 0's `lo` is `-inf`).
pub fn bucket_bounds(i: usize) -> (f64, f64) {
    assert!(i < NUM_BUCKETS, "bucket index {i} out of range");
    if i == 0 {
        (f64::NEG_INFINITY, 1.0)
    } else {
        let lo = (2f64).powi(i as i32 - 1);
        let hi = if i == NUM_BUCKETS - 1 {
            f64::INFINITY
        } else {
            (2f64).powi(i as i32)
        };
        (lo, hi)
    }
}

/// Exemplar slots retained per histogram (the largest-valued recordings
/// that carried a trace id).
pub const MAX_EXEMPLARS: usize = 4;

/// One traced recording attached to a histogram: a concrete request id a
/// human can pull up to explain a tail-latency bucket.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exemplar {
    /// The recorded value.
    pub value: f64,
    /// The trace id that produced it (never 0 — 0 marks an empty slot).
    pub trace_id: u64,
    /// Nanoseconds since process obs start, when recorded.
    pub ts_ns: u64,
}

/// A log-bucketed histogram. Buckets answer "what order of magnitude",
/// while `min`/`max`/`sum`/`count` stay exact so the mean and extremes
/// are not quantized.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Exact sum of recorded values (NaN inputs are recorded as 0.0).
    pub sum: f64,
    /// Smallest recorded value; `+inf` when empty.
    pub min: f64,
    /// Largest recorded value; `-inf` when empty.
    pub max: f64,
    /// Per-bucket counts, indexed by [`bucket_index`].
    pub buckets: [u64; NUM_BUCKETS],
    /// Up to [`MAX_EXEMPLARS`] largest traced recordings (`None` = empty
    /// slot); kept top-by-value so tail latency always has a trace id.
    pub exemplars: [Option<Exemplar>; MAX_EXEMPLARS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: [0; NUM_BUCKETS],
            exemplars: [None; MAX_EXEMPLARS],
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: f64) {
        let v = if v.is_nan() { 0.0 } else { v };
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        // analyze:allow(panic, bucket_index is clamped to NUM_BUCKETS - 1)
        self.buckets[bucket_index(v)] += 1;
    }

    /// Records one value carrying a trace id, keeping the exemplar set
    /// top-by-value: an empty slot is filled, otherwise the smallest
    /// retained exemplar is replaced when `v` beats it. A `trace_id` of 0
    /// (a recording tied to no request) records the value without an
    /// exemplar; exemplars never change the bucket counts or the digests
    /// derived from them.
    pub fn record_exemplar(&mut self, v: f64, trace_id: u64, ts_ns: u64) {
        self.record(v);
        if trace_id == 0 {
            return;
        }
        let v = if v.is_nan() { 0.0 } else { v };
        let mut weakest: Option<usize> = None;
        for (i, slot) in self.exemplars.iter().enumerate() {
            match slot {
                None => {
                    weakest = Some(i);
                    break;
                }
                Some(e) => {
                    let beats = match weakest.and_then(|w| self.exemplars.get(w).copied().flatten())
                    {
                        Some(w) => e.value < w.value,
                        None => true,
                    };
                    if beats {
                        weakest = Some(i);
                    }
                }
            }
        }
        if let Some(i) = weakest {
            if let Some(slot) = self.exemplars.get_mut(i) {
                let replace = match slot {
                    None => true,
                    Some(e) => v >= e.value,
                };
                if replace {
                    *slot = Some(Exemplar { value: v, trace_id, ts_ns });
                }
            }
        }
    }

    /// The retained exemplars, in slot order.
    pub fn exemplars(&self) -> impl Iterator<Item = Exemplar> + '_ {
        self.exemplars.iter().filter_map(|e| *e)
    }

    /// Mean of recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`, clamped) by walking the
    /// bucket counts to the continuous rank `q * (count - 1) + 1` and
    /// interpolating linearly inside the bucket it lands in. The
    /// interpolation range is clamped to the exact recorded `[min, max]`,
    /// which pins the edge cases: a single sample returns that exact value
    /// for every `q`, all-equal samples return the value, and the unbounded
    /// outer buckets (`(-inf, 1)` and the overflow bucket) never leak an
    /// infinite bound into the estimate. Returns NaN when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * (self.count as f64 - 1.0) + 1.0;
        let mut cum = 0u64;
        for i in 0..NUM_BUCKETS {
            // analyze:allow(panic, i ranges over 0..NUM_BUCKETS which is the buckets array length)
            let c = self.buckets[i];
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 >= target {
                let (lo, hi) = bucket_bounds(i);
                let lo = lo.max(self.min);
                let hi = hi.min(self.max);
                // Fraction of the way through this bucket's occupants,
                // in (0, 1]; rank `cum + 1` (first occupant) maps to just
                // above the bucket floor, rank `cum + c` to its ceiling.
                let frac = (target - cum as f64) / c as f64;
                return lo + (hi - lo) * frac;
            }
            cum += c;
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_powers_of_two_sit_at_bucket_lower_bounds() {
        // 2^(i-1) is the inclusive lower bound of bucket i.
        for i in 1..NUM_BUCKETS {
            let lo = (2f64).powi(i as i32 - 1);
            assert_eq!(bucket_index(lo), i, "2^{} must open bucket {i}", i - 1);
            // The value just below the bound belongs to the previous bucket.
            let below = f64::from_bits(lo.to_bits() - 1);
            assert_eq!(bucket_index(below), i - 1, "pred(2^{}) in bucket {}", i - 1, i - 1);
        }
    }

    #[test]
    fn sub_one_negative_and_nan_land_in_bucket_zero() {
        for v in [0.0, 0.5, 0.999_999_999, -1.0, -1e300, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(bucket_index(v), 0, "v={v}");
        }
    }

    #[test]
    fn huge_values_land_in_overflow_bucket() {
        for v in [(2f64).powi(62), (2f64).powi(100), f64::MAX, f64::INFINITY] {
            assert_eq!(bucket_index(v), NUM_BUCKETS - 1, "v={v}");
        }
    }

    #[test]
    fn record_tracks_exact_count_sum_min_max() {
        let mut h = Histogram::new();
        for v in [3.0, 1.0, 10.0, 0.25] {
            h.record(v);
        }
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 14.25);
        assert_eq!(h.min, 0.25);
        assert_eq!(h.max, 10.0);
        assert_eq!(h.buckets.iter().sum::<u64>(), 4);
        assert_eq!(h.buckets[0], 1); // 0.25
        assert_eq!(h.buckets[1], 1); // 1.0 in [1,2)
        assert_eq!(h.buckets[2], 1); // 3.0 in [2,4)
        assert_eq!(h.buckets[4], 1); // 10.0 in [8,16)
        assert!((h.mean() - 14.25 / 4.0).abs() < 1e-15);
    }

    #[test]
    fn quantile_of_empty_histogram_is_nan() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert!(h.quantile(q).is_nan(), "q={q}");
        }
    }

    #[test]
    fn quantile_of_single_sample_is_that_exact_value() {
        // The [min, max] clamp collapses the bucket to the sample itself,
        // so every quantile of a one-sample histogram is exact — including
        // samples that are NOT at a bucket boundary.
        for v in [0.125, 1.0, 3.7, 1234.5] {
            let mut h = Histogram::new();
            h.record(v);
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(h.quantile(q), v, "v={v} q={q}");
            }
        }
    }

    #[test]
    fn quantile_of_identical_samples_is_that_value() {
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record(6.0);
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 6.0, "q={q}");
        }
    }

    #[test]
    fn quantile_extremes_pin_to_recorded_max() {
        let mut h = Histogram::new();
        for v in [1.5, 3.0, 100.0, 700.0] {
            h.record(v);
        }
        // q=1 targets the last rank; the clamp makes it the exact max.
        assert_eq!(h.quantile(1.0), 700.0);
        // Out-of-range q is clamped, not panicking.
        assert_eq!(h.quantile(7.0), 700.0);
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
    }

    #[test]
    fn quantile_interpolates_linearly_within_a_bucket() {
        // 4 samples at exact bucket boundaries 1, 2, 4, 8 — one per
        // bucket. Continuous rank for q is q*(n-1)+1; rank r landing in a
        // bucket whose sole occupant has cumulative position r interpolates
        // to that bucket's (clamped) ceiling.
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 4.0, 8.0] {
            h.record(v);
        }
        // q=0.5 → rank 2.5 → bucket [4,8) at fraction 0.5 → 4 + 0.5*(8-4).
        assert_eq!(h.quantile(0.5), 6.0);
        // q=1/3 → rank 2.0 → bucket [2,4) at fraction 1.0 → its ceiling 4.
        assert_eq!(h.quantile(1.0 / 3.0), 4.0);
        // q=0 → rank 1.0 → bucket [1,2) at fraction 1.0, ceiling 2.
        assert_eq!(h.quantile(0.0), 2.0);
        assert_eq!(h.quantile(1.0), 8.0);
    }

    #[test]
    fn quantile_outer_buckets_never_leak_infinities() {
        // Bucket 0 spans (-inf, 1) and the overflow bucket [2^62, +inf];
        // the [min, max] clamp keeps estimates finite and in-range.
        let mut h = Histogram::new();
        h.record(0.25);
        h.record(0.5);
        h.record((2f64).powi(70));
        for q in [0.0, 0.3, 0.7, 1.0] {
            let est = h.quantile(q);
            assert!(est.is_finite(), "q={q} → {est}");
            assert!((0.25..=(2f64).powi(70)).contains(&est), "q={q} → {est}");
        }
        assert_eq!(h.quantile(1.0), (2f64).powi(70));
    }

    #[test]
    fn exemplars_keep_the_largest_traced_values() {
        let mut h = Histogram::new();
        // Untraced recording: counted, no exemplar.
        h.record_exemplar(1e9, 0, 1);
        assert_eq!(h.count, 1);
        assert_eq!(h.exemplars().count(), 0);
        // Fill all slots, then push values that displace the smallest.
        for (i, v) in [10.0, 20.0, 30.0, 40.0].iter().enumerate() {
            h.record_exemplar(*v, i as u64 + 1, i as u64);
        }
        assert_eq!(h.exemplars().count(), MAX_EXEMPLARS);
        h.record_exemplar(5.0, 99, 9); // smaller than every retained one
        assert!(h.exemplars().all(|e| e.trace_id != 99), "must not displace larger");
        h.record_exemplar(100.0, 77, 9);
        let kept: Vec<u64> = h.exemplars().map(|e| e.trace_id).collect();
        assert!(kept.contains(&77), "largest value must be retained: {kept:?}");
        assert!(!kept.contains(&1), "smallest (10.0, id 1) displaced: {kept:?}");
        assert_eq!(h.count, 7, "every call records into the population");
    }

    #[test]
    fn nan_does_not_poison_min_max_sum() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        h.record(2.0);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 2.0);
        assert_eq!(h.sum, 2.0);
    }
}
