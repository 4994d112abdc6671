//! Daemon strategies (schedulers).
//!
//! In the model, a daemon is a predicate over executions (§2.2); the
//! *distributed unfair* daemon is the predicate `true`, i.e. any
//! non-empty subset of enabled processes may be activated at each step.
//! Each variant below is one concrete strategy for picking that subset —
//! every one of them generates a legal unfair-daemon execution, and the
//! fair ones ([`Daemon::Synchronous`], [`Daemon::RoundRobin`],
//! [`Daemon::Aging`]) additionally satisfy the stronger weakly-fair /
//! synchronous daemon predicates.

use ssr_graph::NodeId;

use crate::algorithm::{RuleId, RuleMask};
use crate::rng::Xoshiro256StarStar;

/// Scheduler choosing, at every step, which enabled processes move.
///
/// # Examples
///
/// ```
/// use ssr_runtime::Daemon;
/// let adversarial = Daemon::RandomSubset { p: 0.3 };
/// let fair = Daemon::Synchronous;
/// assert!(format!("{adversarial:?}").contains("RandomSubset"));
/// assert_ne!(format!("{fair:?}"), String::new());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Daemon {
    /// Activates **all** enabled processes (the synchronous daemon).
    Synchronous,
    /// Activates exactly one uniformly random enabled process (a central
    /// unfair daemon).
    Central,
    /// Central daemon cycling through node indices (weakly fair).
    RoundRobin,
    /// Each enabled process is activated independently with probability
    /// `p`; if the coin flips select nobody, one random enabled process
    /// is activated (steps must be non-empty).
    RandomSubset {
        /// Per-process activation probability.
        p: f64,
    },
    /// Activates every process that has been continuously enabled for at
    /// least `patience` steps, plus one random enabled process. Weakly
    /// fair: nobody starves longer than `patience` steps.
    Aging {
        /// Steps a process may wait before it is forcibly activated.
        patience: u32,
    },
    /// Adversarial central daemon: always activates an enabled process
    /// whose **highest** enabled rule index is maximal (ties broken
    /// randomly). In compositions where input-algorithm rules have
    /// higher indices than reset rules, this delays resets as long as
    /// the model permits.
    PreferHighRules,
    /// Adversarial central daemon preferring the **lowest** enabled rule
    /// index (mirror image of [`Daemon::PreferHighRules`]).
    PreferLowRules,
    /// Unfair central daemon that always activates the enabled process
    /// with the smallest node index — starves high-index processes
    /// whenever the low-index region stays enabled.
    LexMin,
    /// Replays a fixed schedule: step `i` activates exactly `steps[i]`.
    ///
    /// This is how counterexample / witness schedules (e.g. the
    /// worst-case traces extracted by `ssr-explore`) are driven back
    /// through the ordinary execution engine step-for-step. Every
    /// entry must be a non-empty subset of the processes enabled at
    /// that step; cap the run to `steps.len()` — selecting past the
    /// end of the script panics.
    Script {
        /// The per-step activation sets, shared cheaply across clones.
        steps: std::sync::Arc<Vec<Vec<NodeId>>>,
    },
}

impl Daemon {
    /// Whether this strategy needs per-process waiting-time tracking.
    pub(crate) fn needs_wait_tracking(&self) -> bool {
        matches!(self, Daemon::Aging { .. })
    }

    /// Selects a non-empty subset of `enabled` into `out` (cleared
    /// first) as moves: each picked process paired with its
    /// lowest-index enabled rule, in selection order. The step's rule
    /// pass may redraw that rule afterwards
    /// ([`crate::step::select::draw_rules`]).
    ///
    /// `masks` is indexed by node, `waits` (same indexing) counts steps
    /// of continuous enabledness, `cursor` is scratch state for
    /// [`Daemon::RoundRobin`] and [`Daemon::Script`].
    #[inline]
    pub(crate) fn select(
        &self,
        enabled: &[NodeId],
        masks: &[RuleMask],
        waits: &[u32],
        cursor: &mut usize,
        rng: &mut Xoshiro256StarStar,
        out: &mut Vec<(NodeId, RuleId)>,
    ) {
        debug_assert!(
            !enabled.is_empty(),
            "daemon invoked with no enabled process"
        );
        let mv = |u: NodeId| {
            let rule = masks[u.index()]
                .first()
                .expect("daemon selected a disabled process");
            (u, rule)
        };
        out.clear();
        match self {
            Daemon::Synchronous => out.extend(enabled.iter().map(|&u| mv(u))),
            Daemon::Central => out.push(mv(*rng.choose(enabled))),
            Daemon::RoundRobin => {
                // Smallest enabled index at or after the cursor (wrapping).
                let n = masks.len();
                let start = *cursor % n;
                let next = (0..n)
                    .map(|k| (start + k) % n)
                    .find(|&i| !masks[i].is_empty())
                    .expect("some process is enabled");
                *cursor = next + 1;
                out.push(mv(NodeId(next as u32)));
            }
            Daemon::RandomSubset { p } => {
                for &u in enabled {
                    if rng.chance(*p) {
                        out.push(mv(u));
                    }
                }
                if out.is_empty() {
                    out.push(mv(*rng.choose(enabled)));
                }
            }
            Daemon::Aging { patience } => {
                for &u in enabled {
                    if waits[u.index()] >= *patience {
                        out.push(mv(u));
                    }
                }
                let extra = *rng.choose(enabled);
                if !out.iter().any(|&(u, _)| u == extra) {
                    out.push(mv(extra));
                }
            }
            Daemon::PreferHighRules => {
                let best = enabled
                    .iter()
                    .map(|&u| masks[u.index()].last().expect("enabled mask non-empty").0)
                    .max()
                    .expect("non-empty");
                let pick = pick_random_where(enabled, rng, |u| {
                    masks[u.index()].last().expect("non-empty").0 == best
                });
                out.push(mv(pick));
            }
            Daemon::PreferLowRules => {
                let best = enabled
                    .iter()
                    .map(|&u| masks[u.index()].first().expect("enabled mask non-empty").0)
                    .min()
                    .expect("non-empty");
                let pick = pick_random_where(enabled, rng, |u| {
                    masks[u.index()].first().expect("non-empty").0 == best
                });
                out.push(mv(pick));
            }
            Daemon::LexMin => {
                out.push(mv(*enabled.iter().min().expect("non-empty")));
            }
            Daemon::Script { steps } => {
                let i = *cursor;
                let step = steps.get(i).unwrap_or_else(|| {
                    panic!(
                        "scripted schedule exhausted at step {i} (script has {} steps; \
                         cap the run to the script length)",
                        steps.len()
                    )
                });
                *cursor = i + 1;
                out.extend(step.iter().map(|&u| mv(u)));
            }
        }
        debug_assert!(!out.is_empty(), "daemon must activate at least one process");
    }

    /// The full set of strategies, for sweep-style experiments.
    ///
    /// [`Daemon::Script`] is deliberately absent: a script is bound to
    /// one specific run, not a reusable strategy.
    pub fn all_strategies() -> Vec<Daemon> {
        vec![
            Daemon::Synchronous,
            Daemon::Central,
            Daemon::RoundRobin,
            Daemon::RandomSubset { p: 0.5 },
            Daemon::RandomSubset { p: 0.1 },
            Daemon::Aging { patience: 8 },
            Daemon::PreferHighRules,
            Daemon::PreferLowRules,
            Daemon::LexMin,
        ]
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        match self {
            Daemon::Synchronous => "sync".into(),
            Daemon::Central => "central".into(),
            Daemon::RoundRobin => "round-robin".into(),
            Daemon::RandomSubset { p } => format!("subset(p={p})"),
            Daemon::Aging { patience } => format!("aging({patience})"),
            Daemon::PreferHighRules => "adv-high".into(),
            Daemon::PreferLowRules => "adv-low".into(),
            Daemon::LexMin => "lex-min".into(),
            Daemon::Script { steps } => format!("script({})", steps.len()),
        }
    }

    /// Parses a [`Daemon::label`] rendering back — the inverse used by
    /// campaign-spec deserialization. `script(..)` labels return `None`:
    /// a label only carries the schedule *length*, so the daemon cannot
    /// be reconstructed from it.
    pub fn parse_label(s: &str) -> Option<Daemon> {
        match s {
            "sync" => return Some(Daemon::Synchronous),
            "central" => return Some(Daemon::Central),
            "round-robin" => return Some(Daemon::RoundRobin),
            "adv-high" => return Some(Daemon::PreferHighRules),
            "adv-low" => return Some(Daemon::PreferLowRules),
            "lex-min" => return Some(Daemon::LexMin),
            _ => {}
        }
        let inner = |prefix: &str| {
            s.strip_prefix(prefix)
                .and_then(|r| r.strip_prefix('('))
                .and_then(|r| r.strip_suffix(')'))
        };
        if let Some(p) = inner("subset").and_then(|r| r.strip_prefix("p=")) {
            return p.parse::<f64>().ok().map(|p| Daemon::RandomSubset { p });
        }
        inner("aging")
            .and_then(|p| p.parse::<u32>().ok())
            .map(|patience| Daemon::Aging { patience })
    }
}

/// Uniform choice among the elements of `xs` satisfying `keep`
/// (reservoir sampling; at least one element must satisfy it).
fn pick_random_where(
    xs: &[NodeId],
    rng: &mut Xoshiro256StarStar,
    keep: impl Fn(NodeId) -> bool,
) -> NodeId {
    let mut chosen = None;
    let mut seen = 0u64;
    for &x in xs {
        if keep(x) {
            seen += 1;
            if rng.below(seen) == 0 {
                chosen = Some(x);
            }
        }
    }
    chosen.expect("pick_random_where: no element satisfied the predicate")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(masks: &[RuleMask]) -> (Vec<NodeId>, Vec<u32>) {
        let enabled: Vec<NodeId> = masks
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        (enabled, vec![0; masks.len()])
    }

    #[test]
    fn synchronous_takes_everyone() {
        let masks = vec![
            RuleMask::just(RuleId(2)).with(RuleId(1)),
            RuleMask::NONE,
            RuleMask::just(RuleId(0)).with(RuleId(3)),
            RuleMask::just(RuleId(4)),
        ];
        let (enabled, waits) = setup(&masks);
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let mut out = Vec::new();
        let mut cursor = 0;
        Daemon::Synchronous.select(&enabled, &masks, &waits, &mut cursor, &mut rng, &mut out);
        assert_eq!(
            out,
            vec![
                (NodeId(0), RuleId(1)),
                (NodeId(2), RuleId(0)),
                (NodeId(3), RuleId(4))
            ]
        );
        assert_eq!(rng.draws(), 0);
    }

    #[test]
    fn central_takes_exactly_one() {
        let masks = vec![RuleMask::from_bool(true); 5];
        let (enabled, waits) = setup(&masks);
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let mut out = Vec::new();
        let mut cursor = 0;
        for _ in 0..20 {
            Daemon::Central.select(&enabled, &masks, &waits, &mut cursor, &mut rng, &mut out);
            assert_eq!(out.len(), 1);
        }
    }

    #[test]
    fn round_robin_cycles() {
        let masks = vec![RuleMask::from_bool(true); 3];
        let (enabled, waits) = setup(&masks);
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let mut out = Vec::new();
        let mut cursor = 0;
        let mut picked = Vec::new();
        for _ in 0..6 {
            Daemon::RoundRobin.select(&enabled, &masks, &waits, &mut cursor, &mut rng, &mut out);
            picked.push(out[0].0.index());
        }
        assert_eq!(picked, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_skips_disabled() {
        let masks = vec![
            RuleMask::from_bool(true),
            RuleMask::NONE,
            RuleMask::from_bool(true),
        ];
        let (enabled, waits) = setup(&masks);
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let mut out = Vec::new();
        let mut cursor = 0;
        let mut picked = Vec::new();
        for _ in 0..4 {
            Daemon::RoundRobin.select(&enabled, &masks, &waits, &mut cursor, &mut rng, &mut out);
            picked.push(out[0].0.index());
        }
        assert_eq!(picked, vec![0, 2, 0, 2]);
    }

    #[test]
    fn random_subset_never_empty() {
        let masks = vec![RuleMask::from_bool(true); 6];
        let (enabled, waits) = setup(&masks);
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let mut out = Vec::new();
        let mut cursor = 0;
        for _ in 0..50 {
            Daemon::RandomSubset { p: 0.0 }.select(
                &enabled,
                &masks,
                &waits,
                &mut cursor,
                &mut rng,
                &mut out,
            );
            assert_eq!(out.len(), 1);
        }
    }

    #[test]
    fn aging_forces_starved_processes() {
        let masks = vec![RuleMask::from_bool(true); 3];
        let (enabled, _) = setup(&masks);
        let waits = vec![10, 0, 10];
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut out = Vec::new();
        let mut cursor = 0;
        Daemon::Aging { patience: 8 }.select(
            &enabled,
            &masks,
            &waits,
            &mut cursor,
            &mut rng,
            &mut out,
        );
        assert!(out.contains(&(NodeId(0), RuleId(0))));
        assert!(out.contains(&(NodeId(2), RuleId(0))));
    }

    #[test]
    fn prefer_high_rules_picks_highest() {
        let masks = vec![
            RuleMask::just(RuleId(0)),
            RuleMask::just(RuleId(3)),
            RuleMask::just(RuleId(1)),
        ];
        let (enabled, waits) = setup(&masks);
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let mut out = Vec::new();
        let mut cursor = 0;
        Daemon::PreferHighRules.select(&enabled, &masks, &waits, &mut cursor, &mut rng, &mut out);
        assert_eq!(out, vec![(NodeId(1), RuleId(3))]);
    }

    #[test]
    fn prefer_low_rules_picks_lowest() {
        let masks = vec![
            RuleMask::just(RuleId(2)),
            RuleMask::just(RuleId(3)),
            RuleMask::just(RuleId(1)),
        ];
        let (enabled, waits) = setup(&masks);
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let mut out = Vec::new();
        let mut cursor = 0;
        Daemon::PreferLowRules.select(&enabled, &masks, &waits, &mut cursor, &mut rng, &mut out);
        assert_eq!(out, vec![(NodeId(2), RuleId(1))]);
    }

    #[test]
    fn lex_min_is_deterministic() {
        let masks = vec![
            RuleMask::NONE,
            RuleMask::from_bool(true),
            RuleMask::from_bool(true),
        ];
        let (enabled, waits) = setup(&masks);
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let mut out = Vec::new();
        let mut cursor = 0;
        Daemon::LexMin.select(&enabled, &masks, &waits, &mut cursor, &mut rng, &mut out);
        assert_eq!(out, vec![(NodeId(1), RuleId(0))]);
    }

    #[test]
    fn script_replays_exactly() {
        let masks = vec![RuleMask::from_bool(true); 3];
        let (enabled, waits) = setup(&masks);
        let schedule = vec![vec![NodeId(2)], vec![NodeId(0), NodeId(1)]];
        let daemon = Daemon::Script {
            steps: std::sync::Arc::new(schedule.clone()),
        };
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let mut out = Vec::new();
        let mut cursor = 0;
        for step in &schedule {
            daemon.select(&enabled, &masks, &waits, &mut cursor, &mut rng, &mut out);
            let nodes: Vec<NodeId> = out.iter().map(|&(u, _)| u).collect();
            assert_eq!(&nodes, step);
        }
        assert_eq!(cursor, 2);
    }

    #[test]
    #[should_panic(expected = "scripted schedule exhausted")]
    fn script_panics_past_the_end() {
        let masks = vec![RuleMask::from_bool(true); 2];
        let (enabled, waits) = setup(&masks);
        let daemon = Daemon::Script {
            steps: std::sync::Arc::new(vec![vec![NodeId(0)]]),
        };
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let mut out = Vec::new();
        let mut cursor = 1;
        daemon.select(&enabled, &masks, &waits, &mut cursor, &mut rng, &mut out);
    }

    #[test]
    fn labels_round_trip_through_parse_label() {
        for d in Daemon::all_strategies() {
            assert_eq!(Daemon::parse_label(&d.label()), Some(d.clone()), "{d:?}");
        }
        // Script labels only carry the length: unreconstructable.
        let script = Daemon::Script {
            steps: std::sync::Arc::new(vec![vec![NodeId(0)]]),
        };
        assert_eq!(Daemon::parse_label(&script.label()), None);
        assert_eq!(Daemon::parse_label("nonsense"), None);
        assert_eq!(Daemon::parse_label("subset(p=oops)"), None);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<String> =
            Daemon::all_strategies().iter().map(|d| d.label()).collect();
        assert_eq!(labels.len(), Daemon::all_strategies().len());
    }
}
