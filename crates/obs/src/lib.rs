#![warn(missing_docs)]

//! # tpe-obs
//!
//! Std-only observability primitives for the serving stack: atomic
//! [`Counter`]s and [`Gauge`]s, fixed-bucket log2 latency [`Histogram`]s
//! (p50/p90/p99 derivable from the buckets, max tracked exactly), a
//! named-metric [`Registry`] (one per owner — the engine gives every
//! cache its own), and scoped [`Span`] timers. Zero dependencies, zero
//! allocation on the hot path: recording into any metric is one or two
//! relaxed atomic RMWs, so instrumentation can stay always-on even around
//! the ~100 ns warm pricing path (`tpe-engine` pins the added cost with a
//! criterion bench).
//!
//! ## Design
//!
//! * **Handles, not lookups.** [`Registry::counter`] & friends
//!   get-or-register by name and return an [`Arc`] handle;
//!   instrumentation sites resolve their handles once (typically when
//!   their owner is built) and touch only the atomics afterwards. The
//!   registry lock is never on a hot path.
//! * **Log2 buckets.** A histogram has 64 buckets: bucket 0 holds the
//!   value 0 and bucket *i* holds values in `[2^(i-1), 2^i)` (the last
//!   bucket is open-ended). Quantiles interpolate linearly *within* the
//!   covering bucket (by the rank's position among the bucket's samples)
//!   and are capped by the exactly-tracked max, so the overshoot is far
//!   below the full bucket width for mid-bucket ranks. Bucket counts
//!   subtract field-wise ([`HistogramSnapshot::since`]), so windowed
//!   percentiles over a long-running server need only two snapshots.
//! * **Snapshots diff.** [`Registry::snapshot`] captures every metric
//!   into plain maps; [`Snapshot::since`] subtracts an earlier snapshot
//!   to isolate one batch/window. Derived levels the registry does not
//!   own (e.g. a cache's entry counts) fold into a snapshot via
//!   [`Snapshot::set_gauge`] so one exposition covers them too.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// Number of log2 buckets in every [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing event count (relaxed atomics only).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time level that can go up and down (e.g. in-flight
/// requests).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket index of a recorded value: 0 for 0, otherwise the bit length
/// of the value (capped to the open-ended last bucket).
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the open-ended
/// last bucket).
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed-bucket log2 histogram of non-negative values (latencies in
/// nanoseconds, by convention). Recording is two relaxed `fetch_add`s
/// plus a relaxed `fetch_max` — cheap enough for always-on use.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating past ~584 years).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// A scoped timer recording into this histogram when dropped.
    pub fn span(&self) -> Span<'_> {
        Span {
            hist: self,
            start: Instant::now(),
        }
    }

    /// Runs `f`, recording its wall-clock duration.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let _span = self.span();
        f()
    }

    /// A plain-data copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A scoped span timer: records the elapsed wall-clock into its
/// histogram when dropped (early returns and `?` included).
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
#[derive(Debug)]
pub struct Span<'h> {
    hist: &'h Histogram,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

/// Plain-data state of one histogram: the 64 log2 bucket counts, the
/// value sum, and the exact max.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket counts, indexed as in [`bucket_upper`].
    pub buckets: Vec<u64>,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value (exact; for windowed snapshots this is the
    /// all-time max, an upper bound on the window's).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Rebuilds a snapshot from serialized parts (buckets shorter than
    /// [`HISTOGRAM_BUCKETS`] — e.g. with trailing zeros trimmed on the
    /// wire — are zero-padded).
    pub fn from_parts(mut buckets: Vec<u64>, sum: u64, max: u64) -> Self {
        buckets.resize(HISTOGRAM_BUCKETS, 0);
        Self { buckets, sum, max }
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`): the nearest-rank sample's bucket,
    /// linearly interpolated between the bucket's bounds by the rank's
    /// position among that bucket's samples, capped by the tracked max.
    /// A rank that is the bucket's last sample reports the bucket upper
    /// bound (so a one-sample bucket behaves exactly as before); interior
    /// ranks land proportionally inside the bucket, bounding quantile
    /// overshoot well under the 2× a bare upper-bound report allows. 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            let before = cum;
            cum += c;
            if cum >= rank {
                if rank == cum {
                    return bucket_upper(i).min(self.max);
                }
                let lower = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let width = (bucket_upper(i) - lower) as f64;
                let pos = (rank - before) as f64 / *c as f64;
                let est = lower as f64 + pos * width;
                return (est.round() as u64).min(self.max);
            }
        }
        self.max
    }

    /// Bucket-wise delta against an earlier snapshot of the same
    /// histogram — windowed counts for per-batch percentiles. `max` is
    /// inherited from `self` (an upper bound on the window's max).
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named-metric registry. Get-or-register returns shared handles;
/// [`Registry::snapshot`] captures everything at once. There is no
/// process-wide instance: each owner (in this workspace, each engine
/// cache) holds its own, so two owners in one process never mix counts.
#[derive(Debug)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty, isolated registry.
    pub fn new() -> Self {
        // Anchor the uptime epoch no later than first registry use.
        let _ = process_start();
        Self {
            metrics: RwLock::new(BTreeMap::new()),
        }
    }

    fn get_or_register<T>(
        &self,
        name: &str,
        wrap: impl Fn(Arc<T>) -> Metric,
        unwrap: impl Fn(&Metric) -> Option<Arc<T>>,
        kind: &str,
    ) -> Arc<T>
    where
        T: Default,
    {
        if let Some(m) = self.metrics.read().expect("registry poisoned").get(name) {
            return unwrap(m).unwrap_or_else(|| {
                panic!("metric `{name}` already registered with another kind (wanted {kind})")
            });
        }
        let mut map = self.metrics.write().expect("registry poisoned");
        let entry = map
            .entry(name.to_string())
            .or_insert_with(|| wrap(Arc::new(T::default())));
        unwrap(entry).unwrap_or_else(|| {
            panic!("metric `{name}` already registered with another kind (wanted {kind})")
        })
    }

    /// Get-or-register a counter named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as another metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.get_or_register(
            name,
            Metric::Counter,
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
            "counter",
        )
    }

    /// Get-or-register a gauge named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as another metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.get_or_register(
            name,
            Metric::Gauge,
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
            "gauge",
        )
    }

    /// Get-or-register a histogram named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as another metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.get_or_register(
            name,
            Metric::Histogram,
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            "histogram",
        )
    }

    /// Captures every registered metric into plain maps.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.metrics.read().expect("registry poisoned");
        let mut snap = Snapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// A point-in-time capture of a registry (plus any folded-in external
/// gauges), diffable and renderable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Named counter values, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Named gauge levels, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Named histogram states, in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &HistogramSnapshot)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// One counter's value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// One gauge's level, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// One histogram's state, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Folds an external gauge level into the snapshot.
    pub fn set_gauge(&mut self, name: &str, v: i64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Deltas against an earlier snapshot: counters and histogram
    /// buckets subtract (saturating; metrics absent earlier count from
    /// zero), gauges keep their current level (levels do not subtract).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let empty_hist = HistogramSnapshot::default();
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        h.since(earlier.histograms.get(k).unwrap_or(&empty_hist)),
                    )
                })
                .collect(),
        }
    }

    /// Renders the snapshot in the Prometheus text exposition format,
    /// every metric name prefixed with `{prefix}_`. Counters render as
    /// `counter`, gauges as `gauge`, histograms as `summary` with
    /// p50/p90/p99 quantile series plus `_sum`/`_count`/`_max`.
    pub fn render_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        let name = |n: &str| {
            let mut s = format!("{prefix}_{n}");
            s.retain(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
            s
        };
        for (n, v) in &self.counters {
            let n = name(n);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (n, v) in &self.gauges {
            let n = name(n);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (n, h) in &self.histograms {
            let n = name(n);
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                out.push_str(&format!("{n}{{quantile=\"{label}\"}} {}\n", h.quantile(q)));
            }
            out.push_str(&format!(
                "{n}_sum {}\n{n}_count {}\n{n}_max {}\n",
                h.sum,
                h.count(),
                h.max
            ));
        }
        out
    }
}

/// The process's observability epoch: the instant of the first call
/// (anchored by [`Registry::new`], so in practice the first registry's
/// creation for any instrumented binary).
pub fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Milliseconds elapsed since [`process_start`].
pub fn uptime_ms() -> u64 {
    u64::try_from(process_start().elapsed().as_millis()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_do_arithmetic() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn bucket_geometry_is_log2_with_exact_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every bucket's upper bound lands back in that bucket.
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_upper(i)), i, "bucket {i}");
            assert_eq!(bucket_index(bucket_upper(i) + 1), i + 1, "bucket {i}+1");
        }
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_bound_the_order_statistics() {
        let h = Histogram::new();
        for v in [0u64, 1, 5, 9, 100, 1000, 1000, 4096] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 8);
        assert_eq!(s.max, 4096);
        assert_eq!(s.sum, 6211);
        // The quantile never undershoots the true order statistic and
        // never overshoots 2x (or the exact max).
        let sorted = [0u64, 1, 5, 9, 100, 1000, 1000, 4096];
        for (q, true_v) in [(0.5, sorted[3]), (0.9, sorted[7]), (1.0, sorted[7])] {
            let est = s.quantile(q);
            assert!(est >= true_v, "q{q}: {est} < {true_v}");
            assert!(est <= (2 * true_v).max(1), "q{q}: {est} > 2x{true_v}");
        }
        assert_eq!(s.quantile(1.0), 4096, "q1.0 is the exact max");
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn histogram_windows_subtract_bucketwise() {
        let h = Histogram::new();
        h.record(10);
        h.record(10_000);
        let early = h.snapshot();
        for _ in 0..10 {
            h.record(100);
        }
        let window = h.snapshot().since(&early);
        assert_eq!(window.count(), 10);
        assert_eq!(window.sum, 1000);
        // Rank 5 of the 10 samples in bucket [64, 127]: interpolation
        // reports 64 + (5/10)·63 ≈ 96, not the bare upper bound 127.
        assert_eq!(window.quantile(0.5), 96);
        assert!(window.quantile(0.5) < bucket_upper(bucket_index(100)));
        // Round-trip through trimmed wire form.
        let mut trimmed = window.buckets.clone();
        while trimmed.last() == Some(&0) {
            trimmed.pop();
        }
        let rebuilt = HistogramSnapshot::from_parts(trimmed, window.sum, window.max);
        assert_eq!(rebuilt, window);
    }

    /// Within-bucket linear interpolation: interior ranks land
    /// proportionally inside the covering bucket, the bucket's last rank
    /// still reports the (max-capped) upper bound, and a single huge
    /// sample cannot drag mid quantiles to the open bucket's bound.
    #[test]
    fn quantiles_interpolate_within_the_covering_bucket() {
        let h = Histogram::new();
        for _ in 0..4 {
            h.record(1023); // bucket [512, 1023], four samples
        }
        let s = h.snapshot();
        // Ranks 1..4 of 4 at q = .25/.5/.75/1: 512 + k/4 · 511.
        assert_eq!(s.quantile(0.25), 640);
        assert_eq!(s.quantile(0.5), 768);
        assert_eq!(s.quantile(0.75), 895);
        assert_eq!(s.quantile(1.0), 1023, "last rank is the upper bound");

        // A p99 rank interior to a sparse tail bucket interpolates
        // instead of reporting the full 2^k bound (the serve-smoke
        // server-p99 pathology this change removes).
        let tail = Histogram::new();
        for _ in 0..95 {
            tail.record(800_000);
        }
        for _ in 0..4 {
            tail.record(1_200_000);
        }
        tail.record(2_000_000);
        let t = tail.snapshot();
        // Rank 99 is the 4th of 5 samples in [2^20, 2^21): 1048576 +
        // (4/5)·1048575 = 1887436, not the bucket bound 2097151.
        assert_eq!(t.quantile(0.99), 1_887_436);
        assert_eq!(t.quantile(1.0), 2_000_000, "exact max");
    }

    #[test]
    fn span_and_time_record_durations() {
        let h = Histogram::new();
        {
            let _span = h.span();
            std::hint::black_box(0);
        }
        let out = h.time(|| 42);
        assert_eq!(out, 42);
        assert_eq!(h.count(), 2);
        let d = Histogram::new();
        d.record_duration(Duration::from_micros(3));
        assert_eq!(d.snapshot().sum, 3000);
    }

    #[test]
    fn registry_returns_shared_handles_and_snapshots() {
        let reg = Registry::new();
        let a = reg.counter("requests");
        let b = reg.counter("requests");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same name, same counter");
        reg.gauge("inflight").set(3);
        reg.histogram("latency_ns").record(1500);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("requests"), Some(2));
        assert_eq!(snap.gauge("inflight"), Some(3));
        assert_eq!(snap.histogram("latency_ns").unwrap().count(), 1);
        assert_eq!(snap.counter("absent"), None);
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn registry_rejects_kind_collisions() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn snapshot_since_isolates_a_window() {
        let reg = Registry::new();
        let c = reg.counter("n");
        let h = reg.histogram("t");
        c.add(5);
        h.record(7);
        let before = reg.snapshot();
        c.add(3);
        h.record(9);
        reg.counter("fresh").inc(); // registered mid-window
        let delta = reg.snapshot().since(&before);
        assert_eq!(delta.counter("n"), Some(3));
        assert_eq!(
            delta.counter("fresh"),
            Some(1),
            "absent earlier counts from zero"
        );
        assert_eq!(delta.histogram("t").unwrap().count(), 1);
    }

    #[test]
    fn snapshot_folds_external_gauges_and_renders_prometheus() {
        let reg = Registry::new();
        reg.counter("reqs").add(12);
        reg.counter("cache_hits").add(99);
        reg.gauge("inflight").set(2);
        reg.histogram("eval_ns").record(900);
        let mut snap = reg.snapshot();
        snap.set_gauge("entries", 4);
        let text = snap.render_prometheus("tpe");
        for needle in [
            "# TYPE tpe_reqs counter\ntpe_reqs 12",
            "# TYPE tpe_cache_hits counter\ntpe_cache_hits 99",
            "# TYPE tpe_inflight gauge\ntpe_inflight 2",
            "tpe_entries 4",
            "# TYPE tpe_eval_ns summary",
            "tpe_eval_ns{quantile=\"0.5\"} 900",
            "tpe_eval_ns_count 1",
            "tpe_eval_ns_max 900",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn uptime_is_monotone_and_anchored_by_the_first_registry() {
        let _ = Registry::new();
        let anchored = process_start();
        let a = uptime_ms();
        let b = uptime_ms();
        assert!(b >= a);
        let _ = Registry::new();
        assert_eq!(process_start(), anchored, "the epoch is set once");
    }
}
