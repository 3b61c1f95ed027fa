//! The process-wide metrics registry.
//!
//! Metrics are registered once under hierarchical Domino-style dotted
//! names (`Database.Pool.Hits`, `Log.Flush.Nanos`, …) and live for
//! the life of the process: [`counter`], [`gauge`], and [`histogram`]
//! intern the name under a mutex and hand back a `&'static` handle.
//! Callers cache the handle (typically in a `OnceLock`-initialized struct
//! of handles), so the **hot path never touches the registry lock** —
//! recording is a relaxed atomic increment on the handle itself.
//!
//! [`snapshot`] copies every registered metric into an immutable
//! [`Snapshot`]; two snapshots [`Snapshot::diff`] into the activity between
//! them, which is how the bench harness attributes metric deltas to one
//! experiment.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::hist::{Histogram, HistogramSnapshot};

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed level (cache entries, open handles, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Set the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A handle to one registered metric.
#[derive(Debug, Clone, Copy)]
pub enum Metric {
    /// A [`Counter`].
    Counter(&'static Counter),
    /// A [`Gauge`].
    Gauge(&'static Gauge),
    /// A [`Histogram`].
    Histogram(&'static Histogram),
}

fn metrics() -> MutexGuard<'static, BTreeMap<String, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REGISTRY
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Intern `name` as a counter and return its `&'static` handle.
///
/// Takes the registry lock — call once and cache the handle; recording on
/// the handle is lock-free. Panics if `name` is already registered as a
/// different metric kind (a naming bug worth failing loudly on).
pub fn counter(name: &str) -> &'static Counter {
    match *metrics()
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Box::leak(Box::new(Counter::new()))))
    {
        Metric::Counter(c) => c,
        _ => panic!("metric {name:?} is already registered as a non-counter"),
    }
}

/// Intern `name` as a gauge (see [`counter`] for the contract).
pub fn gauge(name: &str) -> &'static Gauge {
    match *metrics()
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Box::leak(Box::new(Gauge::new()))))
    {
        Metric::Gauge(g) => g,
        _ => panic!("metric {name:?} is already registered as a non-gauge"),
    }
}

/// Intern `name` as a histogram (see [`counter`] for the contract).
pub fn histogram(name: &str) -> &'static Histogram {
    match *metrics()
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Box::leak(Box::new(Histogram::new()))))
    {
        Metric::Histogram(h) => h,
        _ => panic!("metric {name:?} is already registered as a non-histogram"),
    }
}

/// The value of one metric inside a [`Snapshot`].
// The histogram variant is ~550 bytes, dwarfing the scalar variants, but
// snapshots are cold-path and `Copy` matters more to the diff/render code
// than the per-entry footprint — so no boxing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Full histogram state (diffable, quantile-queryable).
    Histogram(HistogramSnapshot),
}

/// An immutable point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    values: BTreeMap<String, MetricValue>,
}

/// Copy every registered metric. The copy is *fuzzy* under concurrency
/// (each metric is read atomically, but not the set as a whole) — the same
/// trade a Domino console `show statistics` makes.
pub fn snapshot() -> Snapshot {
    let g = metrics();
    let values = g
        .iter()
        .map(|(name, m)| {
            let v = match m {
                Metric::Counter(c) => MetricValue::Counter(c.get()),
                Metric::Gauge(gg) => MetricValue::Gauge(gg.get()),
                Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
            };
            (name.clone(), v)
        })
        .collect();
    Snapshot { values }
}

impl Snapshot {
    /// Look up one metric by its registered name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.values.get(name)
    }

    /// Counter value by name (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge level by name (0 when absent or not a gauge).
    pub fn gauge(&self, name: &str) -> i64 {
        match self.values.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Histogram state by name (empty when absent or not a histogram).
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        match self.values.get(name) {
            Some(MetricValue::Histogram(h)) => *h,
            _ => HistogramSnapshot::default(),
        }
    }

    /// Iterate `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.values.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Number of metrics captured.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The activity between `earlier` and `self`: counters and histogram
    /// buckets subtract (saturating); gauges keep the later level (a level
    /// has no meaningful delta). Metrics registered after `earlier` appear
    /// with their full value.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let values = self
            .values
            .iter()
            .map(|(name, v)| {
                let d = match (v, earlier.values.get(name)) {
                    (MetricValue::Counter(now), Some(MetricValue::Counter(was))) => {
                        MetricValue::Counter(now.saturating_sub(*was))
                    }
                    (MetricValue::Histogram(now), Some(MetricValue::Histogram(was))) => {
                        MetricValue::Histogram(now.diff(was))
                    }
                    _ => *v,
                };
                (name.clone(), d)
            })
            .collect();
        Snapshot { values }
    }

    /// Render as a JSON object `{"name": value, ...}`; histograms render
    /// as `{"count": …, "sum": …, "max": …, "p50": …, "p95": …, "p99": …}`.
    /// (Serde is not available offline; the format is stable and append-
    /// only so the bench harness can parse it.)
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (name, v) in &self.values {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("\"{name}\": "));
            match v {
                MetricValue::Counter(c) => out.push_str(&c.to_string()),
                MetricValue::Gauge(g) => out.push_str(&g.to_string()),
                MetricValue::Histogram(h) => out.push_str(&format!(
                    "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                    h.count,
                    h.sum,
                    h.max,
                    h.p50(),
                    h.p95(),
                    h.p99()
                )),
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_read_back() {
        let c = counter("Test.Registry.Counter");
        c.add(5);
        assert_eq!(counter("Test.Registry.Counter").get(), c.get());
        let g = gauge("Test.Registry.Gauge");
        g.set(-3);
        assert_eq!(gauge("Test.Registry.Gauge").get(), -3);
        let h = histogram("Test.Registry.Hist");
        h.record(9);
        assert!(histogram("Test.Registry.Hist").count() >= 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        counter("Test.Registry.KindClash");
        gauge("Test.Registry.KindClash");
    }

    #[test]
    fn concurrent_counter_is_exact() {
        // Satellite requirement: hammer one counter from 8 threads and
        // assert the exact total.
        let c = counter("Test.Registry.Hammer");
        let before = c.get();
        let threads = 8;
        let per_thread = 100_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get() - before, threads * per_thread);
    }

    #[test]
    fn snapshot_diff_round_trip() {
        let c = counter("Test.Snapshot.Work");
        let h = histogram("Test.Snapshot.Lat");
        let g = gauge("Test.Snapshot.Level");
        let s0 = snapshot();
        c.add(42);
        for v in [10u64, 20, 40] {
            h.record(v);
        }
        g.set(7);
        let s1 = snapshot();
        let d = s1.diff(&s0);
        assert_eq!(d.counter("Test.Snapshot.Work"), 42);
        assert_eq!(d.histogram("Test.Snapshot.Lat").count, 3);
        assert_eq!(d.histogram("Test.Snapshot.Lat").sum, 70);
        assert_eq!(d.gauge("Test.Snapshot.Level"), 7);
        // Round trip: diffing a snapshot against itself zeroes counters
        // and histogram counts but keeps gauge levels.
        let z = s1.diff(&s1);
        assert_eq!(z.counter("Test.Snapshot.Work"), 0);
        assert_eq!(z.histogram("Test.Snapshot.Lat").count, 0);
        assert_eq!(z.gauge("Test.Snapshot.Level"), 7);
        // JSON carries every name.
        let json = d.to_json();
        assert!(json.contains("\"Test.Snapshot.Work\": 42"));
        assert!(json.contains("\"p99\""));
    }

    #[test]
    fn diff_when_counter_appears_to_reset_saturates_to_zero() {
        // A "reset" can't happen on a live counter (they only grow), but
        // it *does* happen when diffing snapshots from different runs or
        // against a hand-built baseline. The contract: saturate, never
        // wrap to a huge bogus delta.
        let mut newer = BTreeMap::new();
        newer.insert("Test.Reset.Work".to_string(), MetricValue::Counter(5));
        let newer = Snapshot { values: newer };
        let mut older = BTreeMap::new();
        older.insert("Test.Reset.Work".to_string(), MetricValue::Counter(50));
        let older = Snapshot { values: older };
        let d = newer.diff(&older);
        assert_eq!(d.counter("Test.Reset.Work"), 0, "must saturate, not wrap");
        // Histogram counts saturate the same way.
        let h_old = {
            let h = Histogram::new();
            for _ in 0..10 {
                h.record(100);
            }
            h.snapshot()
        };
        let h_new = {
            let h = Histogram::new();
            h.record(100);
            h.snapshot()
        };
        let mut newer = BTreeMap::new();
        newer.insert("Test.Reset.Lat".to_string(), MetricValue::Histogram(h_new));
        let mut older = BTreeMap::new();
        older.insert("Test.Reset.Lat".to_string(), MetricValue::Histogram(h_old));
        let d = (Snapshot { values: newer }).diff(&Snapshot { values: older });
        assert_eq!(d.histogram("Test.Reset.Lat").count, 0);
        assert_eq!(d.histogram("Test.Reset.Lat").p99(), 0, "no phantom samples");
    }

    #[test]
    fn diff_metric_registered_after_baseline_appears_in_full() {
        // Re-registration semantics: `counter()` on an existing name
        // returns the same handle (no reset), and a metric that did not
        // exist at the earlier snapshot diffs as its full value.
        let c1 = counter("Test.Rereg.Existing");
        c1.add(3);
        let s0 = snapshot();
        // "Re-register" under the same name: the same handle comes back,
        // with its value intact.
        let c2 = counter("Test.Rereg.Existing");
        assert!(std::ptr::eq(c1, c2), "re-registration returns the handle");
        assert_eq!(c2.get(), c1.get());
        c2.add(4);
        // A genuinely new metric, born after the baseline.
        counter("Test.Rereg.Fresh").add(9);
        let d = snapshot().diff(&s0);
        assert_eq!(d.counter("Test.Rereg.Existing"), 4);
        assert_eq!(
            d.counter("Test.Rereg.Fresh"),
            9,
            "a metric absent from the baseline diffs as its full value"
        );
        // A kind change under a name the baseline held as a counter also
        // passes through as the full later value (the `_ => *v` arm).
        let mut older = BTreeMap::new();
        older.insert("Test.Rereg.Kind".to_string(), MetricValue::Counter(7));
        let mut newer = BTreeMap::new();
        newer.insert("Test.Rereg.Kind".to_string(), MetricValue::Gauge(-2));
        let d = (Snapshot { values: newer }).diff(&Snapshot { values: older });
        assert_eq!(d.gauge("Test.Rereg.Kind"), -2);
    }
}
