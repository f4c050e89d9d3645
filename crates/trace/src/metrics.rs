//! Lock-free service metrics: counters, high-water gauges and log-bucketed
//! histograms.
//!
//! The execution-level sinks in this crate ([`crate::CountersSink`] and
//! friends) answer "what happened inside one run". A long-lived service
//! needs the complementary view — "what is happening across *all* runs,
//! right now" — and needs to collect it from many threads without a
//! per-event lock. Every metric here is a handful of atomics:
//!
//! * [`Counter`] — a monotone `u64` (`inc`/`add`).
//! * [`Gauge`] — a high-water mark ([`Gauge::record_max`]) for things like
//!   queue-depth peaks.
//! * [`Histogram`] — a log-linear bucketed distribution (4 sub-buckets per
//!   power of two, exact below 4) with total count, sum, min and max.
//!   Recording is three relaxed atomic adds and one `fetch_max`; quantiles
//!   (p50/p90/p99/…) are estimated from a [`HistogramSnapshot`] by rank
//!   walk with linear interpolation inside the landing bucket, clamped to
//!   the observed min/max so `p50 ≤ p90 ≤ p99 ≤ max` always holds.
//!
//! Values are unit-agnostic `u64`s; the `sam-serve` telemetry records
//! nanoseconds for latencies and reads them back through its typed
//! `MetricsSnapshot`.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A high-water mark: the largest value [`Gauge::record_max`] has seen.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Raises the value to `v` if `v` is larger.
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution: each power of two splits into `2^SUB_BITS`
/// buckets, bounding quantile interpolation error at ~12.5%.
const SUB_BITS: u32 = 2;
const SUBS: usize = 1 << SUB_BITS;
/// Enough buckets for the full `u64` range under the log-linear scheme
/// (max index is `(62 << SUB_BITS) + 3 = 251`).
const BUCKETS: usize = 256;

/// The bucket a value lands in: exact below [`SUBS`], log-linear above.
fn bucket_index(v: u64) -> usize {
    if v < SUBS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
    (((msb - SUB_BITS + 1) as usize) << SUB_BITS) + sub
}

/// The inclusive `(lower, upper)` value range of bucket `index`.
fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < SUBS {
        return (index as u64, index as u64);
    }
    let octave = (index >> SUB_BITS) as u32;
    let sub = (index & (SUBS - 1)) as u64;
    let msb = octave + SUB_BITS - 1;
    if msb >= u64::BITS {
        // Indices past the top u64 octave (251 is the last reachable one).
        return (u64::MAX, u64::MAX);
    }
    let width = 1u64 << (octave - 1);
    let lower = (1u64 << msb) + sub * width;
    (lower, lower + (width - 1))
}

/// A log-linear bucketed latency/size histogram. Recording is lock-free;
/// see the module docs for the bucket scheme and quantile semantics.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram").field("count", &s.count).field("sum", &s.sum).finish()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy (relaxed reads; concurrent
    /// recorders may be mid-update, which shifts a quantile by at most one
    /// observation).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_bounds(i).1, n))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { self.min.load(Ordering::Relaxed) },
            buckets,
        }
    }
}

/// A point-in-time copy of a [`Histogram`]: totals plus the nonempty
/// buckets as `(inclusive upper bound, count)` in increasing bound order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping on overflow).
    pub sum: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Nonempty buckets: `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observed value; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`): rank walk over the
    /// buckets with linear interpolation inside the landing bucket, clamped
    /// to the observed `[min, max]`. Monotone in `q`, so
    /// `quantile(0.5) ≤ quantile(0.9) ≤ quantile(0.99) ≤ max`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for &(upper, n) in &self.buckets {
            if cum + n >= rank {
                // Interpolate between the bucket's effective bounds by the
                // rank's position within it.
                let lower = bucket_bounds(bucket_index(upper)).0;
                let within = (rank - cum) as f64 / n as f64;
                let est = lower as f64 + (upper.saturating_sub(lower)) as f64 * within;
                return (est.round() as u64).clamp(self.min, self.max);
            }
            cum += n;
        }
        self.max
    }

    /// The median ([`HistogramSnapshot::quantile`] at 0.5).
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// The 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.9)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for v in (0..4096u64).chain([1 << 20, (1 << 20) + 12345, u64::MAX / 2, u64::MAX]) {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "value {v} outside bucket [{lo}, {hi}]");
        }
    }

    #[test]
    fn bucket_bounds_are_contiguous_and_increasing() {
        let mut prev_hi: Option<u64> = None;
        for i in 0..BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            if let Some(p) = prev_hi {
                if lo <= p {
                    // Buckets past the u64 msb range repeat; stop checking.
                    break;
                }
                assert_eq!(lo, p + 1, "gap before bucket {i}");
            }
            prev_hi = Some(hi);
        }
    }

    #[test]
    fn quantiles_are_monotone_and_clamped() {
        let h = Histogram::new();
        for v in [3u64, 17, 17, 90, 1500, 1501, 70_000, 70_001, 70_002, 2_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.max, 2_000_000);
        assert_eq!(s.min, 3);
        let (p50, p90, p99) = (s.p50(), s.p90(), s.p99());
        assert!(p50 <= p90 && p90 <= p99 && p99 <= s.max, "p50={p50} p90={p90} p99={p99} max={}", s.max);
        assert!(s.quantile(0.0) >= s.min);
        assert_eq!(s.quantile(1.0), s.max);
        // The median of ten values straddles ranks 5 (1500): the estimate
        // must land in that bucket's neighborhood, not another octave.
        assert!((90..=1600).contains(&p50), "median estimate {p50}");
    }

    #[test]
    fn empty_histograms_are_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!((s.count, s.sum, s.min, s.max), (0, 0, 0, 0));
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_value_histograms_pin_every_quantile() {
        let h = Histogram::new();
        h.record(777);
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 777);
        }
        assert_eq!(s.mean(), 777.0);
    }

    #[test]
    fn counters_and_gauges_update_lock_free() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.record_max(9);
        g.record_max(3);
        assert_eq!(g.get(), 9);
        g.record_max(12);
        assert_eq!(g.get(), 12);
    }
}
