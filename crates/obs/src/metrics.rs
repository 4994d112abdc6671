//! The metrics registry: counters, gauges, and fixed-bucket histograms
//! with per-thread accumulation and a deterministic merged snapshot.
//!
//! The design is lock-free by **ownership**, not by atomics: each
//! worker thread owns a private [`MetricsSet`] and submits it once to a
//! shared [`MetricsHub`] when its work is done. Every merge operation
//! is commutative and associative (counters add, gauges keep extrema,
//! histogram buckets add), and snapshots sort keys, so a merged
//! [`MetricsSnapshot`] has deterministic *structure* regardless of
//! submission order — only wall-clock-derived values vary between
//! runs, and those live under explicitly time-valued keys.
//!
//! Histograms use fixed power-of-two buckets (the value's bit length),
//! so observing a value is a handful of integer ops and two slots of
//! memory traffic — cheap enough for per-step use.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Number of power-of-two histogram buckets: bucket 0 holds zeros,
/// bucket `i ≥ 1` holds values of bit length `i` (`2^(i-1) ..= 2^i-1`).
const BUCKETS: usize = 65;

/// A fixed-bucket histogram over `u64` values.
///
/// Buckets are powers of two (value bit length), so the layout is
/// identical for every histogram and merging is plain elementwise
/// addition.
///
/// # Examples
///
/// ```
/// use ssr_obs::metrics::Histogram;
///
/// let mut h = Histogram::default();
/// for v in [0, 1, 2, 3, 900] {
///     h.observe(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.sum(), 906);
/// assert_eq!((h.min(), h.max()), (Some(0), Some(900)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Box::new([0; BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive upper bound of bucket `i`.
    fn bucket_le(i: usize) -> u64 {
        match i {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << i) - 1,
        }
    }

    /// Records one value.
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Non-empty buckets as `(inclusive_upper_bound, count)` pairs, in
    /// ascending bound order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_le(i), c))
            .collect()
    }

    /// Adds `other` into `self` (elementwise; commutative).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// Monotone event count; merges by addition.
    Counter(u64),
    /// Sampled level; merges by keeping the extrema over all samples.
    Gauge {
        /// Smallest sampled value.
        min: u64,
        /// Largest sampled value.
        max: u64,
        /// Most recent sample of *this* set (merge keeps the left one).
        last: u64,
    },
    /// Distribution of values; merges bucketwise.
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge { .. } => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A thread-owned bundle of named metrics.
///
/// Keys sort lexicographically in snapshots; dots conventionally
/// namespace them (`pipeline.steps`, `phase.apply.nanos`). Mixing
/// metric kinds under one key panics — that is a programming error,
/// not data.
///
/// # Examples
///
/// ```
/// use ssr_obs::metrics::MetricsSet;
///
/// let mut m = MetricsSet::new();
/// m.inc("runs", 1);
/// m.observe("moves_per_step", 3);
/// m.gauge_set("enabled", 17);
/// assert_eq!(m.counter_value("runs"), Some(1));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSet {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsSet {
    /// An empty set.
    pub fn new() -> Self {
        MetricsSet::default()
    }

    /// Adds `v` to counter `key` (created at zero).
    ///
    /// Like [`MetricsSet::gauge_set`] and [`MetricsSet::observe`], this
    /// allocates only when `key` is new: a per-step caller pays one map
    /// lookup, not a `String` per event.
    pub fn inc(&mut self, key: &str, v: u64) {
        match self.metrics.get_mut(key) {
            Some(Metric::Counter(c)) => *c += v,
            Some(m) => panic!("metric {key:?} is a {}, not a counter", m.kind()),
            None => {
                self.metrics.insert(key.to_string(), Metric::Counter(v));
            }
        }
    }

    /// Samples gauge `key` at level `v`.
    pub fn gauge_set(&mut self, key: &str, v: u64) {
        match self.metrics.get_mut(key) {
            Some(Metric::Gauge { min, max, last }) => {
                *min = (*min).min(v);
                *max = (*max).max(v);
                *last = v;
            }
            Some(m) => panic!("metric {key:?} is a {}, not a gauge", m.kind()),
            None => {
                let gauge = Metric::Gauge {
                    min: v,
                    max: v,
                    last: v,
                };
                self.metrics.insert(key.to_string(), gauge);
            }
        }
    }

    /// Records `v` into histogram `key` (created empty).
    pub fn observe(&mut self, key: &str, v: u64) {
        match self.metrics.get_mut(key) {
            Some(Metric::Histogram(h)) => h.observe(v),
            Some(m) => panic!("metric {key:?} is a {}, not a histogram", m.kind()),
            None => {
                let mut h = Histogram::default();
                h.observe(v);
                self.metrics.insert(key.to_string(), Metric::Histogram(h));
            }
        }
    }

    /// The value of counter `key`, if present.
    pub fn counter_value(&self, key: &str) -> Option<u64> {
        match self.metrics.get(key)? {
            Metric::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// The histogram under `key`, if present.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        match self.metrics.get(key)? {
            Metric::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// The metric under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Metric> {
        self.metrics.get(key)
    }

    /// Whether no metric was ever touched.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Merges `other` into `self`. Counters add, gauges keep extrema
    /// (and `self`'s `last`), histograms add bucketwise — commutative
    /// and associative up to the `last` tiebreak, so any submission
    /// order yields the same aggregate structure.
    ///
    /// # Panics
    ///
    /// Panics when the same key holds different metric kinds.
    pub fn merge(&mut self, other: &MetricsSet) {
        for (key, theirs) in &other.metrics {
            match self.metrics.get_mut(key) {
                None => {
                    self.metrics.insert(key.clone(), theirs.clone());
                }
                Some(ours) => match (ours, theirs) {
                    (Metric::Counter(a), Metric::Counter(b)) => *a += b,
                    (
                        Metric::Gauge { min, max, .. },
                        Metric::Gauge {
                            min: bmin,
                            max: bmax,
                            ..
                        },
                    ) => {
                        *min = (*min).min(*bmin);
                        *max = (*max).max(*bmax);
                    }
                    (Metric::Histogram(a), Metric::Histogram(b)) => a.merge(b),
                    (ours, theirs) => panic!(
                        "metric {key:?} kind mismatch: {} vs {}",
                        ours.kind(),
                        theirs.kind()
                    ),
                },
            }
        }
    }

    /// Freezes the set into a sorted snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            items: self
                .metrics
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

/// The merge point worker threads submit their [`MetricsSet`]s to.
///
/// The mutex is touched once per worker lifetime (at submission), not
/// per event — accumulation itself stays lock-free.
#[derive(Debug, Default)]
pub struct MetricsHub {
    merged: Mutex<MetricsSet>,
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> Self {
        MetricsHub::default()
    }

    /// Merges one worker's finished set.
    pub fn submit(&self, set: &MetricsSet) {
        self.merged.lock().expect("metrics hub poisoned").merge(set);
    }

    /// Snapshot of everything submitted so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.merged.lock().expect("metrics hub poisoned").snapshot()
    }

    /// Consumes the hub into its merged set — for folding one
    /// campaign's hub into a longer-lived aggregate.
    pub fn into_inner(self) -> MetricsSet {
        self.merged.into_inner().expect("metrics hub poisoned")
    }
}

/// An immutable, key-sorted view of a merged [`MetricsSet`], with JSON
/// and human-table renderings.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsSnapshot {
    items: Vec<(String, Metric)>,
}

impl MetricsSnapshot {
    /// The metrics, sorted by key.
    pub fn items(&self) -> &[(String, Metric)] {
        &self.items
    }

    /// The metric under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Metric> {
        self.items
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| &self.items[i].1)
    }

    /// One JSON object: `{"schema":"ssr-metrics-v1","metrics":{...}}`.
    /// Hand-rolled (the workspace has no serde); key order is the
    /// sorted key order, so equal snapshots render equal bytes.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"schema\":\"ssr-metrics-v1\",\"metrics\":{");
        for (i, (key, m)) in self.items.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:", json_string(key));
            match m {
                Metric::Counter(c) => {
                    let _ = write!(s, "{{\"type\":\"counter\",\"value\":{c}}}");
                }
                Metric::Gauge { min, max, last } => {
                    let _ = write!(
                        s,
                        "{{\"type\":\"gauge\",\"min\":{min},\"max\":{max},\"last\":{last}}}"
                    );
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        s,
                        "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
                        h.count(),
                        h.sum(),
                        h.min().unwrap_or(0),
                        h.max().unwrap_or(0),
                    );
                    for (j, (le, c)) in h.nonzero_buckets().into_iter().enumerate() {
                        if j > 0 {
                            s.push(',');
                        }
                        let _ = write!(s, "[{le},{c}]");
                    }
                    s.push_str("]}");
                }
            }
        }
        s.push_str("}}");
        s
    }

    /// A fixed-width human table, one metric per row.
    pub fn render_table(&self) -> String {
        let key_w = self
            .items
            .iter()
            .map(|(k, _)| k.len())
            .max()
            .unwrap_or(6)
            .max(6);
        let mut s = format!("{:<key_w$}  {:<9}  value\n", "metric", "type");
        let _ = writeln!(
            s,
            "{}  {}  {}",
            "-".repeat(key_w),
            "-".repeat(9),
            "-".repeat(30)
        );
        for (key, m) in &self.items {
            match m {
                Metric::Counter(c) => {
                    let _ = writeln!(s, "{key:<key_w$}  {:<9}  {c}", "counter");
                }
                Metric::Gauge { min, max, last } => {
                    let _ = writeln!(
                        s,
                        "{key:<key_w$}  {:<9}  min {min}  max {max}  last {last}",
                        "gauge"
                    );
                }
                Metric::Histogram(h) => {
                    let mean = h.mean().map_or("-".to_string(), |m| format!("{m:.2}"));
                    let _ = writeln!(
                        s,
                        "{key:<key_w$}  {:<9}  n {}  mean {mean}  min {}  max {}",
                        "histogram",
                        h.count(),
                        h.min().unwrap_or(0),
                        h.max().unwrap_or(0),
                    );
                }
            }
        }
        s
    }
}

/// Escapes `s` as a JSON string literal, quotes included: the
/// workspace's one JSON string escaper, behind
/// [`crate::json::Value`]'s rendering and every hand-rolled writer
/// (metrics, traces, progress, history, `ANALYSIS.json`).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(1024);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (3, 2), (2047, 1)]);
        assert_eq!(h.mean(), Some(206.0));
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = MetricsSet::new();
        a.inc("steps", 3);
        a.observe("m", 5);
        a.gauge_set("g", 10);
        let mut b = MetricsSet::new();
        b.inc("steps", 4);
        b.inc("other", 1);
        b.observe("m", 9);
        b.gauge_set("g", 2);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // Structure is identical either way (gauge `last` differs by
        // design — compare through the kinds that matter).
        assert_eq!(ab.counter_value("steps"), ba.counter_value("steps"));
        assert_eq!(ab.counter_value("other"), Some(1));
        assert_eq!(ab.histogram("m"), ba.histogram("m"));
        match (ab.get("g").unwrap(), ba.get("g").unwrap()) {
            (
                Metric::Gauge { min, max, .. },
                Metric::Gauge {
                    min: m2, max: x2, ..
                },
            ) => {
                assert_eq!((min, max), (m2, x2));
                assert_eq!((*min, *max), (2, 10));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn hub_merges_submissions() {
        let hub = MetricsHub::new();
        for i in 0..4u64 {
            let mut set = MetricsSet::new();
            set.inc("runs", 1);
            set.observe("v", i);
            hub.submit(&set);
        }
        let snap = hub.snapshot();
        assert_eq!(snap.get("runs"), Some(&Metric::Counter(4)));
        match snap.get("v").unwrap() {
            Metric::Histogram(h) => assert_eq!(h.count(), 4),
            _ => unreachable!(),
        }
    }

    #[test]
    fn snapshot_json_is_deterministic_and_sorted() {
        let mut m = MetricsSet::new();
        m.inc("z.last", 1);
        m.inc("a.first", 2);
        m.observe("h", 7);
        let j1 = m.snapshot().to_json();
        let j2 = m.snapshot().to_json();
        assert_eq!(j1, j2);
        assert!(j1.starts_with("{\"schema\":\"ssr-metrics-v1\""));
        let a = j1.find("a.first").unwrap();
        let z = j1.find("z.last").unwrap();
        assert!(a < z, "keys must be sorted");
    }

    #[test]
    fn table_renders_every_kind() {
        let mut m = MetricsSet::new();
        m.inc("c", 2);
        m.gauge_set("g", 5);
        m.observe("h", 3);
        let t = m.snapshot().render_table();
        assert!(t.contains("counter") && t.contains("gauge") && t.contains("histogram"));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_mismatch_panics() {
        let mut m = MetricsSet::new();
        m.observe("k", 1);
        m.inc("k", 1);
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
