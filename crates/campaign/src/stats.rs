//! Aggregation of scenario records into campaign summaries.

use std::collections::BTreeMap;

use crate::runner::{ScenarioRecord, Verdict};

/// Five-number-plus summary of a metric across runs.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Minimum.
    pub min: u64,
    /// Maximum.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: u64,
    /// 90th percentile (nearest-rank).
    pub p90: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
}

impl Summary {
    fn empty() -> Self {
        Summary {
            count: 0,
            min: 0,
            max: 0,
            mean: 0.0,
            p50: 0,
            p90: 0,
            p99: 0,
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (`q` in
/// `[0, 1]`); 0 on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Summarizes a metric stream (any order).
pub fn summarize<I: IntoIterator<Item = u64>>(values: I) -> Summary {
    let mut v: Vec<u64> = values.into_iter().collect();
    v.sort_unstable();
    if v.is_empty() {
        return Summary::empty();
    }
    let count = v.len();
    let sum: u128 = v.iter().map(|&x| x as u128).sum();
    Summary {
        count,
        min: v[0],
        max: v[count - 1],
        mean: sum as f64 / count as f64,
        p50: percentile(&v, 0.50),
        p90: percentile(&v, 0.90),
        p99: percentile(&v, 0.99),
    }
}

/// Per-group aggregate over a set of scenario records.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupSummary {
    /// The grouping key.
    pub key: String,
    /// Records in the group (skips excluded).
    pub runs: usize,
    /// Records with [`Verdict::Fail`].
    pub failed: usize,
    /// Records with [`Verdict::Skip`].
    pub skipped: usize,
    /// Rounds across the group's runs.
    pub rounds: Summary,
    /// Moves across the group's runs.
    pub moves: Summary,
}

/// Groups records by `key` and summarizes each group; groups come back
/// sorted by key (deterministic regardless of record order).
pub fn summarize_by(
    records: &[ScenarioRecord],
    key: impl Fn(&ScenarioRecord) -> String,
) -> Vec<GroupSummary> {
    let mut groups: BTreeMap<String, Vec<&ScenarioRecord>> = BTreeMap::new();
    for rec in records {
        groups.entry(key(rec)).or_default().push(rec);
    }
    groups
        .into_iter()
        .map(|(key, recs)| {
            let live: Vec<&&ScenarioRecord> =
                recs.iter().filter(|r| r.verdict != Verdict::Skip).collect();
            GroupSummary {
                key,
                runs: live.len(),
                failed: live.iter().filter(|r| r.verdict == Verdict::Fail).count(),
                skipped: recs.len() - live.len(),
                rounds: summarize(live.iter().map(|r| r.rounds)),
                moves: summarize(live.iter().map(|r| r.moves)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = summarize([4u64, 1, 3, 2, 5]);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 5);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.p50, 3);
        assert_eq!(s.p90, 5);
        assert_eq!(s.p99, 5);
    }

    #[test]
    fn summary_of_empty() {
        let s = summarize(std::iter::empty());
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [10u64, 20, 30, 40];
        assert_eq!(percentile(&v, 0.0), 10);
        assert_eq!(percentile(&v, 0.25), 10);
        assert_eq!(percentile(&v, 0.5), 20);
        assert_eq!(percentile(&v, 0.75), 30);
        assert_eq!(percentile(&v, 1.0), 40);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn grouping_is_sorted_and_counts_verdicts() {
        let mut base = crate::test_support::record("b", 8);
        base.rounds = 10;
        let mut fail = crate::test_support::record("a", 8);
        fail.verdict = Verdict::Fail;
        let mut skip = crate::test_support::record("a", 8);
        skip.verdict = Verdict::Skip;
        let groups = summarize_by(&[base, fail, skip], |r| r.topology.clone());
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].key, "a");
        assert_eq!(groups[0].runs, 1);
        assert_eq!(groups[0].failed, 1);
        assert_eq!(groups[0].skipped, 1);
        assert_eq!(groups[1].key, "b");
        assert_eq!(groups[1].rounds.max, 10);
        assert_eq!(groups[1].failed, 0);
    }
}
