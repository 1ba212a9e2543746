//! Counters, gauges, log-bucket latency histograms, and a named
//! registry rendering Prometheus text exposition format.
//!
//! The histogram uses a fixed log-linear bucket layout (HdrHistogram
//! style): values `0..16` land in exact unit buckets; above that,
//! each power-of-two range splits into 16 sub-buckets, giving ≤ 6.25%
//! relative error across the whole `u64` range with a fixed 976-slot
//! table and lock-free recording. Percentile extraction interpolates
//! by rank *inside* the bucket (and clamps to the recorded maximum),
//! so nearby tail quantiles — p99 vs p999 of a tight distribution —
//! stay distinguishable instead of collapsing onto one shared bucket
//! floor; the reported value always lies in the sample's bucket, so
//! the ≤ 6.25% relative-error bound holds for every quantile.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::span::SpanSink;

/// A monotonically increasing counter.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (saturating at `u64::MAX`).
    #[inline]
    pub fn add(&self, n: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(n))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the value.
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

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Exact buckets for values below this; log-linear above.
const LINEAR_MAX: u64 = 16;
/// Sub-buckets per power-of-two group.
const SUB_BUCKETS: usize = 16;
/// 16 exact + 60 groups (msb 4..=63) × 16 sub-buckets.
const NUM_BUCKETS: usize = LINEAR_MAX as usize + 60 * SUB_BUCKETS;

/// Index of the bucket holding `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_MAX {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize; // >= 4
        let sub = ((v >> (msb - 4)) & 0xF) as usize;
        (msb - 3) * SUB_BUCKETS + sub
    }
}

/// Smallest value that lands in bucket `idx` (the reported
/// representative for percentiles).
fn bucket_floor(idx: usize) -> u64 {
    if idx < LINEAR_MAX as usize {
        idx as u64
    } else {
        let group = idx / SUB_BUCKETS; // >= 1
        let sub = (idx % SUB_BUCKETS) as u64;
        (LINEAR_MAX + sub) << (group - 1)
    }
}

/// Number of distinct values bucket `idx` spans (1 for the exact
/// range, `2^(group-1)` in the log-linear range).
fn bucket_width(idx: usize) -> u64 {
    if idx < LINEAR_MAX as usize {
        1
    } else {
        1 << (idx / SUB_BUCKETS - 1)
    }
}

/// Fixed log-linear latency histogram with lock-free recording.
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// The fixed quantiles every histogram reports.
pub const QUANTILES: [(f64, &str); 4] =
    [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")];

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // The running sum saturates instead of wrapping: a scrape after
        // ~2^64 accumulated µs should read "pinned", not a small lie.
        let _ = self
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max_value(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0 < q <= 1`): the bucket containing the
    /// sample of that rank, rank-interpolated across the bucket's
    /// width and clamped to the recorded maximum; `None` when empty.
    ///
    /// Interpolation keeps tight tails resolvable — when p99 and p999
    /// share one log-linear bucket, their distinct in-bucket ranks
    /// yield distinct values instead of one shared bucket floor. The
    /// result always lies inside the rank sample's bucket, so the
    /// layout's ≤ 6.25% relative-error bound is preserved.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            let in_bucket = bucket.load(Ordering::Relaxed);
            seen += in_bucket;
            if seen >= rank {
                let floor = bucket_floor(idx);
                let width = bucket_width(idx);
                // Spread the bucket's samples evenly across its value
                // range by rank: the first reports the floor, the last
                // the bucket's top value. (u128 avoids overflow near
                // the top of the u64 range.)
                let pos = rank - (seen - in_bucket); // 1..=in_bucket
                let interpolated = if in_bucket > 1 {
                    let offset = (width - 1) as u128 * (pos - 1) as u128 / (in_bucket - 1) as u128;
                    floor + offset as u64
                } else {
                    floor
                };
                return Some(interpolated.min(self.max_value()));
            }
        }
        // Unreachable while count() matches bucket totals; be safe.
        Some(self.max_value())
    }

    /// Median (see [`percentile`](Histogram::percentile)).
    pub fn p50(&self) -> Option<u64> {
        self.percentile(0.5)
    }

    /// 90th percentile.
    pub fn p90(&self) -> Option<u64> {
        self.percentile(0.9)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> Option<u64> {
        self.percentile(0.999)
    }
}

/// What a metric family holds.
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            // Histograms expose quantiles directly, which in Prometheus
            // exposition terms is a `summary`.
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "summary",
        }
    }
}

struct Family {
    help: String,
    /// Samples keyed by rendered label pairs (`k="v",k2="v2"`, possibly
    /// empty). BTreeMap keeps exposition order deterministic.
    samples: BTreeMap<String, Metric>,
}

/// A named registry of counters, gauges, and histograms that renders
/// itself in Prometheus text exposition format.
///
/// Handles are get-or-create: the first call for a `(name, labels)`
/// pair creates the metric, later calls return the same `Arc`. Mixing
/// kinds under one family name is a programming error and panics.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

/// Renders label pairs as `k="v",k2="v2"` with value escaping.
fn label_key(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    out
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn metric<T>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
        get: impl FnOnce(&Metric) -> Option<T>,
    ) -> T {
        let mut families = self.families.lock().expect("registry lock");
        let family = families.entry(name.to_owned()).or_insert_with(|| Family {
            help: help.to_owned(),
            samples: BTreeMap::new(),
        });
        let metric = family.samples.entry(label_key(labels)).or_insert_with(make);
        get(metric).unwrap_or_else(|| panic!("metric {name} registered with a different kind"))
    }

    /// Get-or-create the counter `name{labels}`.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.metric(
            name,
            help,
            labels,
            || Metric::Counter(Arc::new(Counter::new())),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Get-or-create the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.metric(
            name,
            help,
            labels,
            || Metric::Gauge(Arc::new(Gauge::new())),
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// Get-or-create the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.metric(
            name,
            help,
            labels,
            || Metric::Histogram(Arc::new(Histogram::new())),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Renders every family in Prometheus text exposition format.
    /// Every registered family emits at least one sample line (empty
    /// histograms still expose `_count 0`), and families render in
    /// name order.
    pub fn render(&self) -> String {
        let families = self.families.lock().expect("registry lock");
        let mut out = String::new();
        for (name, family) in families.iter() {
            let kind = family
                .samples
                .values()
                .next()
                .map_or("untyped", Metric::kind);
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for (labels, metric) in &family.samples {
                match metric {
                    Metric::Counter(c) => render_sample(&mut out, name, labels, c.get()),
                    Metric::Gauge(g) => {
                        let _ = if labels.is_empty() {
                            writeln!(out, "{name} {}", g.get())
                        } else {
                            writeln!(out, "{name}{{{labels}}} {}", g.get())
                        };
                    }
                    Metric::Histogram(h) => {
                        for (q, qs) in QUANTILES {
                            let sep = if labels.is_empty() { "" } else { "," };
                            let _ = writeln!(
                                out,
                                "{name}{{{labels}{sep}quantile=\"{qs}\"}} {}",
                                h.percentile(q).unwrap_or(0)
                            );
                        }
                        render_sample(&mut out, &format!("{name}_sum"), labels, h.sum());
                        render_sample(&mut out, &format!("{name}_count"), labels, h.count());
                    }
                }
            }
        }
        out
    }
}

fn render_sample(out: &mut String, name: &str, labels: &str, value: u64) {
    let _ = if labels.is_empty() {
        writeln!(out, "{name} {value}")
    } else {
        writeln!(out, "{name}{{{labels}}} {value}")
    };
}

/// A [`SpanSink`] that folds closed spans into per-name duration
/// histograms (`qspr_span_us{span="..."}`) of a [`Registry`] — the
/// long-lived collection mode used by `qspr serve`.
pub struct MetricsSpanSink {
    registry: Arc<Registry>,
    /// Each span name's histogram, looked up in the registry once: the
    /// simulator closes spans tens of thousands of times per mapping,
    /// and a registry lookup allocates its keys.
    histograms: Mutex<Vec<(&'static str, Arc<Histogram>)>>,
}

impl MetricsSpanSink {
    /// Creates a sink recording into `registry`.
    pub fn new(registry: Arc<Registry>) -> MetricsSpanSink {
        MetricsSpanSink {
            registry,
            histograms: Mutex::new(Vec::new()),
        }
    }
}

impl SpanSink for MetricsSpanSink {
    fn enter(&self, _parent: Option<u32>, _name: &'static str) -> u32 {
        0
    }

    fn exit(&self, _token: u32, name: &'static str, nanos: u64) {
        let mut histograms = self.histograms.lock().expect("span histogram lock");
        let at = match histograms.iter().position(|&(n, _)| n == name) {
            Some(at) => at,
            None => {
                let h = self.registry.histogram(
                    "qspr_span_us",
                    "Mapping-pipeline span durations in microseconds",
                    &[("span", name)],
                );
                histograms.push((name, h));
                histograms.len() - 1
            }
        };
        histograms[at].1.record(nanos / 1_000);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_percentiles() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max_value(), 0);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p999(), None);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let h = Histogram::new();
        h.record(42);
        for p in [h.p50(), h.p90(), h.p99(), h.p999()] {
            assert_eq!(p, Some(42));
        }
        assert_eq!(h.max_value(), 42);
        assert_eq!(h.sum(), 42);
    }

    #[test]
    fn values_below_sixteen_are_exact() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.p50(), Some(7));
        assert_eq!(h.percentile(1.0), Some(15));
        assert_eq!(h.percentile(0.0625), Some(0));
    }

    #[test]
    fn bucket_boundaries_round_trip() {
        // The floor of the bucket holding v is <= v, and v's bucket is
        // exactly the one whose floor round-trips.
        for v in [
            0,
            1,
            15,
            16,
            17,
            31,
            32,
            33,
            255,
            256,
            1_000,
            65_535,
            65_536,
            1 << 40,
            (1 << 40) + 12_345,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor({idx}) = {floor} > {v}");
            assert_eq!(bucket_index(floor), idx, "floor of bucket {idx} moved");
            // Relative error bound: bucket width is floor/16 for the
            // log-linear range, so the representative is within 6.25%.
            if v >= 16 {
                assert!(v - floor <= floor / 16, "bucket too wide at {v}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);

        // A recorded stream's count, sum and max are exact, and its p50
        // lies inside the bucket holding the rank-⌈n/2⌉ sample of the
        // sorted stream (the exact position is rank-interpolated); no
        // quantile exceeds the recorded maximum. Checked on a golden
        // stream and on pseudo-random ones of every length up to 49.
        let mut streams = vec![vec![1u64, 5, 900, 90_000, 2, 7, 1_200, 2_000_000]];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for len in 1..50 {
            streams.push(
                (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        (state >> 33) % 2_000_000
                    })
                    .collect(),
            );
        }
        for stream in &streams {
            let h = Histogram::new();
            for &v in stream {
                h.record(v);
            }
            let mut sorted = stream.clone();
            sorted.sort_unstable();
            assert_eq!(h.count(), sorted.len() as u64);
            assert_eq!(h.sum(), sorted.iter().sum::<u64>());
            assert_eq!(h.max_value(), *sorted.last().unwrap());
            let p50 = h.p50().unwrap();
            let true_p50 = sorted[sorted.len().div_ceil(2) - 1];
            assert_eq!(bucket_index(p50), bucket_index(true_p50), "{stream:?}");
            for (q, _) in QUANTILES {
                assert!(h.percentile(q).unwrap() <= h.max_value(), "q = {q}");
            }
        }
        let golden = Histogram::new();
        for &v in &streams[0] {
            golden.record(v);
        }
        assert_eq!(golden.p50(), Some(7));
    }

    #[test]
    fn tail_quantiles_stay_distinct_within_one_bucket() {
        // Regression: 980 fast samples plus a 20-sample tail spread
        // across ONE log-linear bucket (floor 98 304, width 4 096) used
        // to report p99 == p999 == the shared floor; rank interpolation
        // must keep them distinct and ordered.
        let h = Histogram::new();
        for _ in 0..980 {
            h.record(500);
        }
        for i in 0..20u64 {
            h.record(98_304 + i * 200);
        }
        assert_eq!(bucket_index(98_304), bucket_index(98_304 + 19 * 200));
        let (p99, p999) = (h.p99().unwrap(), h.p999().unwrap());
        assert!(p99 >= 98_304, "p99 = {p99} fell out of the tail bucket");
        assert!(p99 < p999, "tail collapsed: p99 = {p99}, p999 = {p999}");
        assert!(p999 <= h.max_value());
    }

    #[test]
    fn identical_samples_report_their_exact_value_at_every_quantile() {
        // All samples equal: interpolation would walk the bucket, but
        // the max clamp pins every quantile at the one true value.
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(100_000);
        }
        for p in [h.p50(), h.p90(), h.p99(), h.p999()] {
            assert_eq!(p, Some(100_000));
        }
    }

    #[test]
    fn sum_saturates_instead_of_wrapping() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max_value(), u64::MAX);
        assert_eq!(h.p50(), Some(bucket_floor(NUM_BUCKETS - 1)));
    }

    #[test]
    fn registry_handles_are_shared_and_render_is_golden() {
        let reg = Registry::new();
        reg.counter(
            "qspr_requests_total",
            "Requests served",
            &[("endpoint", "/map")],
        )
        .add(3);
        reg.counter(
            "qspr_requests_total",
            "Requests served",
            &[("endpoint", "/map")],
        )
        .inc();
        reg.counter(
            "qspr_requests_total",
            "Requests served",
            &[("endpoint", "/sta")],
        )
        .inc();
        reg.gauge("qspr_queue_depth", "Connections queued", &[])
            .set(2);
        let h = reg.histogram("qspr_wait_us", "Queue wait", &[]);
        h.record(7);
        h.record(7);
        h.record(7);
        assert_eq!(
            reg.render(),
            "\
# HELP qspr_queue_depth Connections queued
# TYPE qspr_queue_depth gauge
qspr_queue_depth 2
# HELP qspr_requests_total Requests served
# TYPE qspr_requests_total counter
qspr_requests_total{endpoint=\"/map\"} 4
qspr_requests_total{endpoint=\"/sta\"} 1
# HELP qspr_wait_us Queue wait
# TYPE qspr_wait_us summary
qspr_wait_us{quantile=\"0.5\"} 7
qspr_wait_us{quantile=\"0.9\"} 7
qspr_wait_us{quantile=\"0.99\"} 7
qspr_wait_us{quantile=\"0.999\"} 7
qspr_wait_us_sum 21
qspr_wait_us_count 3
"
        );
    }

    #[test]
    fn empty_families_still_emit_a_sample_line() {
        let reg = Registry::new();
        reg.histogram("qspr_latency_us", "Latency", &[("endpoint", "/map")]);
        reg.counter("qspr_hits_total", "Hits", &[]);
        let text = reg.render();
        // Every # TYPE line is followed by at least one sample.
        assert!(text.contains("qspr_hits_total 0\n"));
        assert!(text.contains("qspr_latency_us{endpoint=\"/map\",quantile=\"0.5\"} 0\n"));
        assert!(text.contains("qspr_latency_us_count{endpoint=\"/map\"} 0\n"));
    }

    #[test]
    fn metrics_span_sink_records_span_durations() {
        let reg = Arc::new(Registry::new());
        let sink = MetricsSpanSink::new(Arc::clone(&reg));
        sink.exit(0, "route", 5_000);
        sink.exit(0, "route", 7_000);
        sink.exit(0, "sta", 1_000);
        let route = reg.histogram("qspr_span_us", "", &[("span", "route")]);
        assert_eq!(route.count(), 2);
        assert_eq!(route.sum(), 12);
        let text = reg.render();
        assert!(text.contains("qspr_span_us_count{span=\"route\"} 2"));
        assert!(text.contains("qspr_span_us_count{span=\"sta\"} 1"));
    }
}
