//! The metrics registry: counters, gauges, and fixed-bucket histograms
//! with per-thread accumulation and a deterministic merged set.
//!
//! The design is lock-free by **ownership**, not by atomics: each
//! worker thread owns a private [`MetricsSet`], and the caller merges
//! the workers' sets once their work is done. Every merge operation
//! is commutative and associative (counters add, gauges keep extrema,
//! histogram buckets add), and a set keeps its keys sorted, so a
//! merged set has deterministic *structure* regardless of submission
//! order — only wall-clock-derived values vary between runs, and those
//! live under explicitly time-valued keys.
//!
//! Histograms use fixed power-of-two buckets (the value's bit length),
//! so observing a value is a handful of integer ops and two slots of
//! memory traffic — cheap enough for per-step use.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Value};

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

    /// Rebuilds a histogram from its `ssr-metrics-v1` object `m`. Each
    /// bound must be a bucket's upper edge, above the previous bound,
    /// and the counts must sum to `count`; `count` 0 gives the default.
    fn from_json(m: &Value, what: &str) -> Result<Histogram, String> {
        let mut h = Histogram::default();
        let (mut total, mut next) = (0u64, 0);
        for pair in json::arr(json::field(m, "buckets", what)?, &format!("{what}.buckets"))? {
            let (le, c) = match pair.as_arr() {
                Some([le, c]) => le.as_u64().zip(c.as_u64()),
                _ => None,
            }
            .ok_or_else(|| format!("{what}: a bucket is not an [upper_edge, count] pair"))?;
            let b = Self::bucket_of(le);
            if Self::bucket_le(b) != le || b < next {
                return Err(format!("{what}: {le} is not a bucket edge above the last"));
            }
            h.buckets[b] = c;
            next = b + 1;
            total = total
                .checked_add(c)
                .ok_or_else(|| format!("{what}: counts overflow"))?;
        }
        h.count = json::u64_field(m, "count", what)?;
        if total != h.count {
            return Err(format!("{what}: the buckets hold {total} values"));
        }
        if h.count > 0 {
            h.sum = json::u64_field(m, "sum", what)?;
            h.min = json::u64_field(m, "min", what)?;
            h.max = json::u64_field(m, "max", what)?;
        }
        Ok(h)
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

/// A thread-owned bundle of named metrics, with JSON and human-table
/// renderings.
///
/// Keys sort lexicographically, in [`MetricsSet::items`] and both
/// renderings; dots conventionally namespace them (`pipeline.steps`,
/// `phase.apply.nanos`). Mixing metric kinds under one key panics —
/// that is a programming error, not data.
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

    /// Stores `h` under histogram key `key`, replacing whatever was
    /// there: how [`crate::pipeline::PipelineMetrics`] hands over the
    /// histograms it folded in place.
    pub(crate) fn insert_histogram(&mut self, key: &str, h: Histogram) {
        self.metrics.insert(key.to_string(), Metric::Histogram(h));
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

    /// The metrics, sorted by key.
    pub fn items(&self) -> impl ExactSizeIterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(key, m)| (key.as_str(), m))
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

    /// Parses an `ssr-metrics-v1` document: the inverse of
    /// [`MetricsSet::to_json`], so `from_json(&s.to_json())` is
    /// `Ok(s)`. Histograms are rebuilt from their buckets, and a bound
    /// that is not a bucket's upper edge is an error. A repeated key is
    /// an error.
    pub fn from_json(text: &str) -> Result<MetricsSet, String> {
        let root = json::parse(text)?;
        let schema = json::str_field(&root, "schema", "document")?;
        if schema != "ssr-metrics-v1" {
            return Err(format!("schema is `{schema}`, expected `ssr-metrics-v1`"));
        }
        let members = json::field(&root, "metrics", "document")?;
        let mut metrics = BTreeMap::new();
        for (key, m) in json::obj(members, "document.metrics")? {
            let what = format!("metrics[{key:?}]");
            let metric = match json::str_field(m, "type", &what)?.as_str() {
                "counter" => Metric::Counter(json::u64_field(m, "value", &what)?),
                "gauge" => Metric::Gauge {
                    min: json::u64_field(m, "min", &what)?,
                    max: json::u64_field(m, "max", &what)?,
                    last: json::u64_field(m, "last", &what)?,
                },
                "histogram" => Metric::Histogram(Histogram::from_json(m, &what)?),
                other => return Err(format!("{what}: unknown type `{other}`")),
            };
            if metrics.insert(key.clone(), metric).is_some() {
                return Err(format!("{what} appears twice"));
            }
        }
        Ok(MetricsSet { metrics })
    }

    /// One JSON object: `{"schema":"ssr-metrics-v1","metrics":{...}}`.
    /// Hand-rolled (the workspace has no serde); key order is the
    /// sorted key order, so equal sets render equal bytes.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"schema\":\"ssr-metrics-v1\",\"metrics\":{");
        for (i, (key, m)) in self.items().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = crate::json::write_string(&mut s, key);
            s.push(':');
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
        let key_w = self.items().map(|(k, _)| k.len()).max().unwrap_or(6).max(6);
        let mut s = format!("{:<key_w$}  {:<9}  value\n", "metric", "type");
        let _ = writeln!(
            s,
            "{}  {}  {}",
            "-".repeat(key_w),
            "-".repeat(9),
            "-".repeat(30)
        );
        for (key, m) in self.items() {
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

/// Escapes `s` as a JSON string literal, quotes included, through
/// the workspace's one JSON string escaper (the one behind
/// [`crate::json::Value`]'s rendering): for the hand-rolled writers
/// (metrics, traces, progress, `ANALYSIS.json`).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    crate::json::write_string(&mut out, s).expect("writing to a String cannot fail");
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
    fn snapshot_json_is_deterministic_and_sorted() {
        let mut m = MetricsSet::new();
        m.inc("z.last", 1);
        m.inc("a.first", 2);
        m.observe("h", 7);
        let mut reversed = MetricsSet::new();
        reversed.observe("h", 7);
        reversed.inc("a.first", 2);
        reversed.inc("z.last", 1);
        let j1 = m.to_json();
        assert_eq!(j1, reversed.to_json());
        assert!(j1.starts_with("{\"schema\":\"ssr-metrics-v1\""));
        let a = j1.find("a.first").unwrap();
        let z = j1.find("z.last").unwrap();
        assert!(a < z, "keys must be sorted");
    }

    #[test]
    fn metrics_snapshot_parses() {
        let mut m = MetricsSet::new();
        m.insert_histogram("empty", Histogram::default());
        m.gauge_set("g", 3);
        m.observe("h", 5);
        assert_eq!(MetricsSet::from_json(&m.to_json()), Ok(m));
        let doc = |body: &str| format!("{{\"schema\":\"ssr-metrics-v1\",\"metrics\":{{{body}}}}}");
        let h = |buckets: &str| {
            format!("\"h\":{{\"type\":\"histogram\",\"count\":2,\"sum\":4,\"min\":1,\"max\":3,\"buckets\":[{buckets}]}}")
        };
        let c = "\"c\":{\"type\":\"counter\",\"value\":1}";
        assert!(MetricsSet::from_json(&doc(&h("[1,1],[3,1]"))).is_ok());
        for bad in [
            h("[1,1],[2,1]"),   // 2 is no bucket's upper edge
            h("[3,1],[1,1]"),   // bounds descend
            h("[1,1]"),         // one value, count 2
            format!("{c},{c}"), // a repeated key
            c.replace("counter", "meter"),
        ] {
            assert!(MetricsSet::from_json(&doc(&bad)).is_err(), "{bad}");
        }
        assert!(MetricsSet::from_json("{\"schema\":\"nope\",\"metrics\":{}}").is_err());
    }

    #[test]
    fn table_renders_every_kind() {
        let mut m = MetricsSet::new();
        m.inc("c", 2);
        m.gauge_set("g", 5);
        m.observe("h", 3);
        let t = m.render_table();
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
