//! Counters, log2 histograms, spans, and the pluggable [`Collector`].
//!
//! The hot-path contract: instrumented code holds no locks and allocates
//! nothing per event. [`MemoryCollector`] takes a read lock to find the
//! atomic for a name and updates it under that guard (a write lock once,
//! on first use of the name); the update itself is a single `fetch_add`.
//! [`NoopCollector`] compiles every hook to nothing — engines keep a
//! `&dyn Collector` and the disabled case costs one virtual call
//! returning a constant.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};
use std::time::Instant;

use crate::json;

/// Number of log2 buckets: values up to `2^63` nanoseconds (~292 years)
/// land in a bucket, so nothing is ever dropped.
const BUCKETS: usize = 64;

/// The pluggable metrics/tracing sink.
///
/// Names are `&'static str` by design: every metric name in the
/// workspace is a compile-time constant, which keeps the hot path free
/// of allocation and makes the full name inventory greppable.
pub trait Collector: Send + Sync {
    /// `false` for sinks that discard everything — instrumented code may
    /// skip preparing event data (clock reads, length sums) when so.
    fn enabled(&self) -> bool;

    /// Increments the monotonic counter `name` by `delta`.
    fn add(&self, name: &'static str, delta: u64);

    /// Records one observation (nanoseconds, element counts, bytes — any
    /// non-negative magnitude) into the histogram `name`.
    fn observe_ns(&self, name: &'static str, value: u64);

    /// Increments the counter `name` within the per-tenant family keyed
    /// by `tenant`. Sinks without label support drop the event (the
    /// default), so instrumented code records unconditionally.
    fn add_labeled(&self, name: &'static str, tenant: &str, delta: u64) {
        let _ = (name, tenant, delta);
    }

    /// Records one observation into the histogram `name` within the
    /// per-tenant family keyed by `tenant`. Default: dropped.
    fn observe_ns_labeled(&self, name: &'static str, tenant: &str, value: u64) {
        let _ = (name, tenant, value);
    }

    /// Starts a span: the returned guard records its wall-clock lifetime
    /// into the histogram `name` on drop. On a disabled collector the
    /// guard never reads the clock.
    fn time(&self, name: &'static str) -> Span<'_>
    where
        Self: Sized,
    {
        Span::new(self, name)
    }
}

/// The default sink: drops everything, costs nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopCollector;

impl Collector for NoopCollector {
    fn enabled(&self) -> bool {
        false
    }
    fn add(&self, _name: &'static str, _delta: u64) {}
    fn observe_ns(&self, _name: &'static str, _value: u64) {}
}

/// An RAII span: measures wall time from construction to drop and
/// records it into its collector's histogram. Obtain via
/// [`Collector::time`] or [`Span::start`].
pub struct Span<'a> {
    collector: &'a dyn Collector,
    name: &'static str,
    /// `None` when the collector is disabled: no clock read, no record.
    started: Option<Instant>,
}

impl<'a> Span<'a> {
    fn new(collector: &'a dyn Collector, name: &'static str) -> Span<'a> {
        let started = collector.enabled().then(Instant::now);
        Span {
            collector,
            name,
            started,
        }
    }

    /// Starts a span against an unsized collector reference.
    pub fn start(collector: &'a dyn Collector, name: &'static str) -> Span<'a> {
        Span::new(collector, name)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.collector.observe_ns(self.name, ns);
        }
    }
}

/// A log2-bucketed histogram over `u64` observations.
///
/// Bucket `i` counts values `v` with `floor(log2(max(v, 1))) == i`, so
/// bucket boundaries are powers of two: `[0,2) [2,4) [4,8) …`. Updates
/// are lock-free (`fetch_add` per bucket plus count/sum; min/max via CAS
/// loops); quantiles are estimated from the bucket upper bounds, which
/// for latencies is accurate to within the 2× bucket width.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn record(&self, v: u64) {
        let idx = (63 - v.max(1).leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                // Upper bound (exclusive) of bucket i is 2^(i+1); the
                // last bucket saturates at u64::MAX.
                (n > 0).then(|| (1u64.checked_shl(i as u32 + 1).unwrap_or(u64::MAX), n))
            })
            .collect();
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Recovers a read/write lock from poisoning: registry state is only
/// ever extended (insert-new-name), so a panic elsewhere cannot leave it
/// inconsistent.
fn read<T: ?Sized>(l: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T: ?Sized>(l: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Applies `apply` to the metric `name`, updating it in place under the
/// read guard; the write guard is taken once, to create the metric on
/// first use. Metrics are atomics, so an update needs no exclusive lock
/// and no refcount.
fn update<V: Default>(
    map: &RwLock<BTreeMap<&'static str, V>>,
    name: &'static str,
    apply: impl FnOnce(&V),
) {
    if let Some(m) = read(map).get(name) {
        return apply(m);
    }
    apply(write(map).entry(name).or_default());
}

/// As [`update`], for the metric `name` of `tenant`'s family.
fn update_labeled<V: Default>(
    map: &RwLock<BTreeMap<&'static str, BTreeMap<String, V>>>,
    name: &'static str,
    tenant: &str,
    apply: impl FnOnce(&V),
) {
    if let Some(m) = read(map).get(name).and_then(|m| m.get(tenant)) {
        return apply(m);
    }
    apply(
        write(map)
            .entry(name)
            .or_default()
            .entry(tenant.to_string())
            .or_default(),
    );
}

/// The in-process collector: named atomic counters and histograms.
///
/// Clone-cheap via internal `Arc`s is deliberately *not* provided —
/// share it as `Arc<MemoryCollector>` and hand `&dyn Collector` (or the
/// `Arc`) to each engine.
#[derive(Debug, Default)]
pub struct MemoryCollector {
    counters: RwLock<BTreeMap<&'static str, AtomicU64>>,
    histograms: RwLock<BTreeMap<&'static str, Histogram>>,
    /// Per-tenant families: name → tenant → atomic. The nested map keeps
    /// the read path allocation-free (`BTreeMap<String, _>::get` accepts
    /// a `&str`); the tenant string is owned once, on first use.
    labeled_counters: RwLock<BTreeMap<&'static str, BTreeMap<String, AtomicU64>>>,
    labeled_histograms: RwLock<BTreeMap<&'static str, BTreeMap<String, Histogram>>>,
}

impl MemoryCollector {
    /// Creates an empty collector.
    pub fn new() -> MemoryCollector {
        MemoryCollector::default()
    }

    /// The current value of the per-tenant counter `name` for `tenant`
    /// (0 when never incremented).
    pub fn labeled_counter_value(&self, name: &str, tenant: &str) -> u64 {
        read(&self.labeled_counters)
            .get(name)
            .and_then(|m| m.get(tenant))
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// The current value of counter `name` (0 when never incremented).
    pub fn counter_value(&self, name: &str) -> u64 {
        read(&self.counters)
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Takes a point-in-time snapshot of every counter and histogram,
    /// sorted by name (the JSON form is byte-stable for equal states).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = read(&self.counters)
            .iter()
            .map(|(name, c)| (name.to_string(), c.load(Ordering::Relaxed)))
            .collect();
        let histograms = read(&self.histograms)
            .iter()
            .map(|(name, h)| h.snapshot(name))
            .collect();
        let labeled_counters = read(&self.labeled_counters)
            .iter()
            .flat_map(|(name, by_tenant)| {
                by_tenant.iter().map(|(tenant, c)| {
                    (name.to_string(), tenant.clone(), c.load(Ordering::Relaxed))
                })
            })
            .collect();
        let labeled_histograms = read(&self.labeled_histograms)
            .iter()
            .flat_map(|(name, by_tenant)| {
                by_tenant
                    .iter()
                    .map(|(tenant, h)| (tenant.clone(), h.snapshot(name)))
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
            labeled_counters,
            labeled_histograms,
        }
    }
}

impl Collector for MemoryCollector {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, name: &'static str, delta: u64) {
        update(&self.counters, name, |c: &AtomicU64| {
            c.fetch_add(delta, Ordering::Relaxed);
        });
    }

    fn observe_ns(&self, name: &'static str, value: u64) {
        update(&self.histograms, name, |h: &Histogram| h.record(value));
    }

    fn add_labeled(&self, name: &'static str, tenant: &str, delta: u64) {
        update_labeled(&self.labeled_counters, name, tenant, |c: &AtomicU64| {
            c.fetch_add(delta, Ordering::Relaxed);
        });
    }

    fn observe_ns_labeled(&self, name: &'static str, tenant: &str, value: u64) {
        update_labeled(&self.labeled_histograms, name, tenant, |h: &Histogram| {
            h.record(value);
        });
    }
}

/// A point-in-time copy of a [`MemoryCollector`]'s state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram snapshots, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Per-tenant counters as `(name, tenant, value)`, sorted by
    /// `(name, tenant)`. Empty unless `add_labeled` was used.
    pub labeled_counters: Vec<(String, String, u64)>,
    /// Per-tenant histograms as `(tenant, snapshot)` — the snapshot's
    /// `name` is the family name. Sorted by `(name, tenant)`.
    pub labeled_histograms: Vec<(String, HistogramSnapshot)>,
}

/// One histogram's state at snapshot time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// The histogram's name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(upper_bound_exclusive, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Estimates quantile `q` (clamped to `[0, 1]`) as the upper bound
    /// of the bucket containing the q-th observation; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(ub, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(ub.min(self.max));
            }
        }
        Some(self.max)
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot as stable JSON: counters and histograms as
    /// name-sorted arrays, fixed field order, no external dependency.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": [");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"value\": {v}}}",
                json::escape(name)
            ));
        }
        out.push_str("\n  ],\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(ub, n)| format!("{{\"le\": {ub}, \"count\": {n}}}"))
                .collect();
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"count\": {}, \"sum\": {}, \"min\": {}, \
                 \"max\": {}, \"buckets\": [{}]}}",
                json::escape(&h.name),
                h.count,
                h.sum,
                h.min,
                h.max,
                buckets.join(", ")
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// The human-readable form (same as `Display`): one line per metric.
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for MetricsSnapshot {
    /// The human-readable form: one line per metric.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "{name:<44} {v}")?;
        }
        for h in &self.histograms {
            let (mean, p50, p99) = (
                h.mean().unwrap_or(0.0),
                h.quantile(0.5).unwrap_or(0),
                h.quantile(0.99).unwrap_or(0),
            );
            writeln!(
                f,
                "{:<44} count {}  mean {:.0}  p50≤{}  p99≤{}  max {}",
                h.name, h.count, mean, p50, p99, h.max
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let c = MemoryCollector::new();
        c.add("b.second", 2);
        c.add("a.first", 1);
        c.add("b.second", 3);
        let snap = c.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.first".to_string(), 1), ("b.second".to_string(), 5)]
        );
        assert_eq!(c.counter_value("b.second"), 5);
        assert_eq!(c.counter_value("missing"), 0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let c = MemoryCollector::new();
        for v in [0, 1, 2, 3, 4, 1000, 1024] {
            c.observe_ns("lat", v);
        }
        let snap = c.snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.count, 7);
        assert_eq!(h.sum, 2034);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        // 0 and 1 → [0,2); 2 and 3 → [2,4); 4 → [4,8); 1000 → [512,1024);
        // 1024 → [1024,2048).
        assert_eq!(
            h.buckets,
            vec![(2, 2), (4, 2), (8, 1), (1024, 1), (2048, 1)]
        );
    }

    #[test]
    fn quantiles_track_bucket_bounds() {
        let c = MemoryCollector::new();
        for _ in 0..99 {
            c.observe_ns("q", 10);
        }
        c.observe_ns("q", 10_000);
        let snap = c.snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.quantile(0.5), Some(16));
        assert_eq!(h.quantile(1.0), Some(10_000));
        assert!(h.quantile(0.99).is_some());
        assert_eq!(HistogramSnapshot::default().quantile(0.5), None);
    }

    #[test]
    fn labeled_families_record_per_tenant() {
        let c = MemoryCollector::new();
        c.add_labeled("serve.tenant.completed", "acme", 2);
        c.add_labeled("serve.tenant.completed", "zeta", 1);
        c.observe_ns_labeled("serve.tenant.latency_ns", "acme", 100);
        assert_eq!(c.labeled_counter_value("serve.tenant.completed", "acme"), 2);
        assert_eq!(c.labeled_counter_value("serve.tenant.completed", "none"), 0);
        let snap = c.snapshot();
        assert_eq!(
            snap.labeled_counters,
            vec![
                ("serve.tenant.completed".to_string(), "acme".to_string(), 2),
                ("serve.tenant.completed".to_string(), "zeta".to_string(), 1),
            ]
        );
        assert_eq!(snap.labeled_histograms.len(), 1);
        let (tenant, h) = &snap.labeled_histograms[0];
        assert_eq!(tenant, "acme");
        assert_eq!(h.name, "serve.tenant.latency_ns");
        assert_eq!(h.count, 1);
        // Unlabeled metrics are untouched by labeled recording.
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
        // Default trait impls drop labels silently.
        let n = NoopCollector;
        n.add_labeled("x", "t", 1);
        n.observe_ns_labeled("y", "t", 1);
    }

    /// Seeded distributions through the log2 buckets: the p50/p99
    /// estimates must land within one bucket of the true (nearest-rank)
    /// quantiles and never undershoot them — the estimate is the upper
    /// bound of the quantile's bucket, clamped to the observed max.
    #[test]
    fn percentile_estimates_land_within_one_bucket_of_truth() {
        fn bucket_of(v: u64) -> u32 {
            63 - v.max(1).leading_zeros()
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            // SplitMix64-style mix, deterministic across platforms.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let n = 10_000usize;
        let uniform: Vec<u64> = (0..n).map(|_| next() % 1_000_000 + 1).collect();
        let skewed: Vec<u64> = (0..n)
            .map(|_| (1u64 << (next() % 20)) + next() % 16)
            .collect();
        let bimodal: Vec<u64> = (0..n)
            .map(|_| if next() % 10 == 0 { 1_000_000 } else { 100 })
            .collect();
        for (label, values) in [
            ("uniform", uniform),
            ("skewed", skewed),
            ("bimodal", bimodal),
        ] {
            let c = MemoryCollector::new();
            for &v in &values {
                c.observe_ns("dist", v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let snap = c.snapshot();
            let h = &snap.histograms[0];
            for q in [0.5, 0.99] {
                let rank = ((q * n as f64).ceil() as usize).max(1);
                let truth = sorted[rank - 1];
                let est = h.quantile(q).unwrap();
                assert!(
                    est >= truth,
                    "{label} q{q}: estimate {est} undershoots true {truth}"
                );
                assert!(
                    bucket_of(est) <= bucket_of(truth) + 1,
                    "{label} q{q}: estimate {est} (bucket {}) more than one \
                     bucket past true {truth} (bucket {})",
                    bucket_of(est),
                    bucket_of(truth)
                );
            }
        }
    }

    /// Bucket-boundary cases: a value exactly at a power of two must
    /// count in the bucket it opens, and the quantile walk must not skip
    /// or double-count at the seam.
    #[test]
    fn quantile_bucket_boundaries_have_no_off_by_one() {
        let c = MemoryCollector::new();
        // 4 observations of 1024 (opens [1024, 2048)), 4 of 1023 (tops
        // [512, 1024)).
        for _ in 0..4 {
            c.observe_ns("edge", 1023);
            c.observe_ns("edge", 1024);
        }
        let snap = c.snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.buckets, vec![(1024, 4), (2048, 4)]);
        // p50 rank = 4 → last of the 1023s → its bucket's upper bound.
        assert_eq!(h.quantile(0.5), Some(1024));
        // Just past the seam: rank 5 → first 1024 → next bucket, clamped
        // to the observed max.
        assert_eq!(h.quantile(0.51), Some(1024));
        assert_eq!(h.quantile(1.0), Some(1024));
    }

    #[test]
    fn spans_record_into_histograms() {
        let c = MemoryCollector::new();
        {
            let _span = c.time("span.ns");
            std::hint::black_box(42);
        }
        let snap = c.snapshot();
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].count, 1);
    }

    #[test]
    fn noop_collector_is_disabled_and_inert() {
        let c = NoopCollector;
        assert!(!c.enabled());
        c.add("x", 1);
        c.observe_ns("y", 1);
        let _span = c.time("z"); // must not read the clock or record
    }

    #[test]
    fn snapshot_json_is_stable_and_parses_back() {
        let c = MemoryCollector::new();
        c.add("queries", 3);
        c.observe_ns("exec_ns", 100);
        c.observe_ns("exec_ns", 5000);
        let snap = c.snapshot();
        let js = snap.to_json();
        assert_eq!(js, snap.to_json(), "stable for equal state");
        let v = crate::json::parse(&js).unwrap();
        let counters = v.get("counters").and_then(|c| c.as_array()).unwrap();
        assert_eq!(counters[0].get("name").unwrap().as_str(), Some("queries"));
        assert_eq!(counters[0].get("value").unwrap().as_u64(), Some(3));
        let hists = v.get("histograms").and_then(|h| h.as_array()).unwrap();
        assert_eq!(hists[0].get("count").unwrap().as_u64(), Some(2));
        // Human-readable render mentions both metrics.
        let text = snap.to_string();
        assert!(text.contains("queries") && text.contains("exec_ns"), "{text}");
    }
}
