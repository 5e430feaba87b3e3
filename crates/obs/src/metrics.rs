//! The lock-free metric registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are plain atomics
//! behind `Arc`s: registration takes the registry lock once, after which
//! every update is a single relaxed atomic operation — cheap enough to
//! sit on operator-granularity hot paths. Metrics are identified by a
//! Prometheus-style name plus an ordered label set; registering the same
//! (name, labels) twice returns the same handle, so independent layers
//! (the scheduler and a bench binary, say) can share a series without
//! plumbing handles through APIs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down (or track a high-water mark).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water tracking).
    pub fn record_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Default bucket bounds (seconds) for latency histograms: 100 µs … 10 s.
pub const LATENCY_SECONDS_BUCKETS: &[f64] = &[
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
];

/// Micro-units per observed unit: histogram sums accumulate in fixed
/// point so the hot path stays a single integer `fetch_add`.
const SUM_SCALE: f64 = 1e6;

/// A fixed-bucket histogram. Buckets hold *non*-cumulative counts
/// internally; rendering and snapshots cumulate them.
#[derive(Debug)]
pub struct Histogram {
    /// Strictly increasing upper bounds; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// `bounds.len() + 1` per-bucket counts.
    buckets: Vec<AtomicU64>,
    /// Sum of observed values in micro-units.
    sum_micros: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_micros: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let index = self
            .bounds
            .iter()
            .position(|&bound| value <= bound)
            .unwrap_or(self.bounds.len());
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        let micros = (value.max(0.0) * SUM_SCALE).round() as u64;
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum_micros.load(Ordering::Relaxed) as f64 / SUM_SCALE,
        }
    }
}

/// A copyable histogram state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds (the `+Inf` bucket is implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts, one per bound plus `+Inf`.
    pub counts: Vec<u64>,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// One registered series: a kind-specific shared handle.
#[derive(Debug, Clone)]
enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// All series sharing one metric name.
#[derive(Debug)]
struct Family {
    help: String,
    kind: &'static str,
    /// Keyed by the rendered label pairs (`k="v",k2="v2"`, sorted).
    series: BTreeMap<String, Series>,
}

/// A named, labeled collection of metrics with Prometheus rendering.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// The process-wide registry every layer of the stack reports into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

impl Registry {
    /// A fresh, empty registry (tests; production code uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) a counter. Idempotent: the same
    /// (name, labels) always returns the same handle.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.series(name, help, "counter", labels, || {
            Series::Counter(Arc::new(Counter::default()))
        }) {
            Series::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.series(name, help, "gauge", labels, || {
            Series::Gauge(Arc::new(Gauge::default()))
        }) {
            Series::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Registers (or retrieves) a histogram with the given bucket bounds.
    /// The bounds of the first registration win.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        match self.series(name, help, "histogram", labels, || {
            Series::Histogram(Arc::new(Histogram::new(bounds)))
        }) {
            Series::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        kind: &'static str,
        labels: &[(&str, &str)],
        create: impl FnOnce() -> Series,
    ) -> Series {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(
            labels.iter().all(|(k, _)| valid_name(k)),
            "invalid label name in {labels:?}"
        );
        let key = label_key(labels);
        let mut families = self.families.lock().expect("metric registry poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind, kind,
            "metric {name} registered as {} and {kind}",
            family.kind
        );
        family.series.entry(key).or_insert_with(create).clone()
    }

    /// Renders every metric in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().expect("metric registry poisoned");
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind));
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => {
                        out.push_str(&sample_line(name, labels, &c.get().to_string()));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&sample_line(name, labels, &g.get().to_string()));
                    }
                    Series::Histogram(h) => {
                        let snapshot = h.snapshot();
                        let mut cumulative = 0u64;
                        for (index, bound) in snapshot.bounds.iter().enumerate() {
                            cumulative += snapshot.counts[index];
                            let le = format!("le=\"{bound}\"");
                            let with_le = join_labels(labels, &le);
                            out.push_str(&sample_line(
                                &format!("{name}_bucket"),
                                &with_le,
                                &cumulative.to_string(),
                            ));
                        }
                        cumulative += snapshot.counts.last().copied().unwrap_or(0);
                        let inf = join_labels(labels, "le=\"+Inf\"");
                        out.push_str(&sample_line(
                            &format!("{name}_bucket"),
                            &inf,
                            &cumulative.to_string(),
                        ));
                        out.push_str(&sample_line(
                            &format!("{name}_sum"),
                            labels,
                            &format!("{}", snapshot.sum),
                        ));
                        out.push_str(&sample_line(
                            &format!("{name}_count"),
                            labels,
                            &cumulative.to_string(),
                        ));
                    }
                }
            }
        }
        out
    }
}

/// `name{labels} value\n`, omitting empty label braces.
fn sample_line(name: &str, labels: &str, value: &str) -> String {
    if labels.is_empty() {
        format!("{name} {value}\n")
    } else {
        format!("{name}{{{labels}}} {value}\n")
    }
}

fn join_labels(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        extra.to_string()
    } else {
        format!("{labels},{extra}")
    }
}

/// Sorted `k="v"` pairs — the canonical series key and rendered form.
fn label_key(labels: &[(&str, &str)]) -> String {
    let mut pairs: Vec<_> = labels.iter().collect();
    pairs.sort();
    pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect::<Vec<_>>()
        .join(",")
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let registry = Registry::new();
        let hits = registry.counter("hits_total", "hits", &[]);
        hits.inc();
        hits.add(4);
        assert_eq!(hits.get(), 5);

        let depth = registry.gauge("depth", "queue depth", &[]);
        depth.add(3);
        depth.sub(1);
        assert_eq!(depth.get(), 2);
        depth.record_max(10);
        depth.record_max(7);
        assert_eq!(depth.get(), 10);
    }

    #[test]
    fn registration_is_idempotent() {
        let registry = Registry::new();
        let a = registry.counter("requests_total", "req", &[("endpoint", "/query")]);
        let b = registry.counter("requests_total", "req", &[("endpoint", "/query")]);
        assert!(Arc::ptr_eq(&a, &b));
        let other = registry.counter("requests_total", "req", &[("endpoint", "/sparql")]);
        assert!(!Arc::ptr_eq(&a, &other));
    }

    #[test]
    #[should_panic(expected = "registered as counter and gauge")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("metric", "m", &[]);
        registry.gauge("metric", "m", &[]);
    }

    #[test]
    fn histogram_buckets_count_and_sum() {
        let registry = Registry::new();
        let h = registry.histogram("lat_seconds", "latency", &[], &[0.001, 0.01, 0.1]);
        h.observe(0.0005); // bucket 0
        h.observe(0.005); // bucket 1
        h.observe(0.005); // bucket 1
        h.observe(0.05); // bucket 2
        h.observe(5.0); // +Inf
        let snap = h.snapshot();
        assert_eq!(snap.counts, vec![1, 2, 1, 1]);
        assert_eq!(snap.count(), 5);
        assert!((snap.sum - 5.0605).abs() < 1e-6);
    }

    #[test]
    fn prometheus_rendering() {
        let registry = Registry::new();
        registry
            .counter("requests_total", "requests served", &[("endpoint", "/q")])
            .add(3);
        registry.gauge("queue_depth", "queued tasks", &[]).set(2);
        let h = registry.histogram("wait_seconds", "queue wait", &[], &[0.01, 0.1]);
        h.observe(0.005);
        h.observe(0.5);
        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE requests_total counter\n"));
        assert!(text.contains("requests_total{endpoint=\"/q\"} 3\n"));
        assert!(text.contains("# TYPE queue_depth gauge\n"));
        assert!(text.contains("queue_depth 2\n"));
        assert!(text.contains("wait_seconds_bucket{le=\"0.01\"} 1\n"));
        assert!(text.contains("wait_seconds_bucket{le=\"0.1\"} 1\n"));
        assert!(text.contains("wait_seconds_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("wait_seconds_count 2\n"));
    }

    #[test]
    fn label_values_escaped() {
        let registry = Registry::new();
        registry
            .counter("c_total", "c", &[("q", "say \"hi\"\\now")])
            .inc();
        let text = registry.render_prometheus();
        assert!(text.contains("c_total{q=\"say \\\"hi\\\"\\\\now\"} 1\n"));
    }
}
