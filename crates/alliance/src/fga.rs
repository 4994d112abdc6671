//! Algorithm FGA (Algorithm 3 of the paper) as a [`ResetInput`].

use std::error::Error;
use std::fmt;

use ssr_core::{ResetInput, Sdr};
use ssr_graph::{Graph, NodeId};
use ssr_runtime::rng::Xoshiro256StarStar;
use ssr_runtime::{Guard, RuleId, RuleMask, StateView};

/// `rule_Clr(u)`: leave the alliance (requires full approval).
pub const RULE_CLR: RuleId = RuleId(0);
/// `rule_P1(u)`: retract the pointer (`ptr_u := ⊥`) before re-aiming.
pub const RULE_P1: RuleId = RuleId(1);
/// `rule_P2(u)`: aim the pointer at `bestPtr(u)`.
pub const RULE_P2: RuleId = RuleId(2);
/// `rule_Q(u)`: refresh `scr_u` / `canQ_u` after neighborhood changes.
pub const RULE_Q: RuleId = RuleId(3);

/// The composition `FGA ∘ SDR` (§6.5).
pub type FgaSdr = Sdr<Fga>;

/// Composes Algorithm FGA with SDR.
pub fn fga_sdr(fga: Fga) -> FgaSdr {
    Sdr::new(fga)
}

/// FGA's four shared variables for one process (§6.4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FgaState {
    /// `col_u`: `u` belongs to the alliance iff `col_u`.
    pub col: bool,
    /// `scr_u ∈ {−1, 0, 1}`: `scr_u ≤ 0` iff no neighbor of `u` may
    /// quit the alliance.
    pub scr: i8,
    /// `canQ_u`: whether `u` may quit the alliance.
    pub can_q: bool,
    /// `ptr_u ∈ N[u] ∪ {⊥}`: the member of `u`'s closed neighborhood
    /// that `u` currently approves for removal (`None` is `⊥`).
    pub ptr: Option<NodeId>,
}

impl FgaState {
    /// The pre-defined reset / initial state: in the alliance, full
    /// score, quittable, no approval.
    pub fn reset() -> Self {
        FgaState {
            col: true,
            scr: 1,
            can_q: true,
            ptr: None,
        }
    }
}

impl Default for FgaState {
    fn default() -> Self {
        FgaState::reset()
    }
}

impl fmt::Display for FgaState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}→{}",
            if self.col { "●" } else { "○" },
            self.scr,
            if self.can_q { "q" } else { "·" },
            match self.ptr {
                None => "⊥".to_string(),
                Some(w) => w.to_string(),
            }
        )
    }
}

/// Construction errors for [`Fga`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FgaError {
    /// `f`/`g`/`ids` length differs from the node count.
    LengthMismatch {
        /// What was mis-sized.
        what: &'static str,
        /// Provided length.
        got: usize,
        /// Expected node count.
        expected: usize,
    },
    /// The solvability requirement `δ_u ≥ max(f(u), g(u))` fails at `node`.
    DegreeTooSmall {
        /// The offending process.
        node: NodeId,
        /// Its degree.
        degree: usize,
        /// `max(f(u), g(u))`.
        needed: u32,
    },
    /// Two processes share an identifier.
    DuplicateId {
        /// The repeated identifier.
        id: u64,
    },
}

impl fmt::Display for FgaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FgaError::LengthMismatch { what, got, expected } => {
                write!(f, "{what} has length {got}, expected {expected}")
            }
            FgaError::DegreeTooSmall { node, degree, needed } => write!(
                f,
                "node {node:?} has degree {degree} < max(f, g) = {needed}; no (f,g)-alliance is guaranteed"
            ),
            FgaError::DuplicateId { id } => write!(f, "duplicate process identifier {id}"),
        }
    }
}

impl Error for FgaError {}

/// Algorithm FGA: silent 1-minimal (f,g)-alliance construction for
/// identified networks (Algorithm 3).
///
/// All processes start in the alliance (`γ_init` = every variable at its
/// reset value) and leave one by one. A process `u` may leave only with
/// *full approval*: `#InAll(u) ≥ f(u)`, every neighbor has score 1
/// (they tolerate losing `u`), and every member of `N[u]` — including
/// `u` itself — points at `u`. The pointers make removals **locally
/// central**: at most one process per closed neighborhood leaves per
/// step, which keeps `realScr ≥ 0` closed.
///
/// See [`crate::presets`] for the classical instantiations and
/// [`crate::verify`] for checkers; compose with SDR via [`fga_sdr`] for
/// the self-stabilizing version.
#[derive(Clone, Debug)]
pub struct Fga {
    ids: Vec<u64>,
    f: Vec<u32>,
    g: Vec<u32>,
    /// Closed neighborhoods (for the `ptr` domain of
    /// [`ResetInput::arbitrary_state`]).
    closed_nbrs: Vec<Vec<NodeId>>,
}

impl Fga {
    /// Builds an FGA instance over `graph` with identifiers equal to
    /// node indices.
    ///
    /// # Errors
    ///
    /// Returns an [`FgaError`] if vector lengths mismatch or some node
    /// violates `δ_u ≥ max(f(u), g(u))`.
    pub fn new(graph: &Graph, f: Vec<u32>, g: Vec<u32>) -> Result<Self, FgaError> {
        let ids = (0..graph.node_count() as u64).collect();
        Fga::with_ids(graph, f, g, ids)
    }

    /// Builds an FGA instance with explicit unique identifiers.
    ///
    /// # Errors
    ///
    /// As [`Fga::new`], plus [`FgaError::DuplicateId`].
    pub fn with_ids(
        graph: &Graph,
        f: Vec<u32>,
        g: Vec<u32>,
        ids: Vec<u64>,
    ) -> Result<Self, FgaError> {
        let n = graph.node_count();
        for (what, len) in [("f", f.len()), ("g", g.len()), ("ids", ids.len())] {
            if len != n {
                return Err(FgaError::LengthMismatch {
                    what,
                    got: len,
                    expected: n,
                });
            }
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0] == w[1] {
                return Err(FgaError::DuplicateId { id: w[0] });
            }
        }
        for u in graph.nodes() {
            let needed = f[u.index()].max(g[u.index()]);
            if (graph.degree(u) as u32) < needed {
                return Err(FgaError::DegreeTooSmall {
                    node: u,
                    degree: graph.degree(u),
                    needed,
                });
            }
        }
        let closed_nbrs = graph
            .nodes()
            .map(|u| graph.closed_neighborhood(u).collect())
            .collect();
        Ok(Fga {
            ids,
            f,
            g,
            closed_nbrs,
        })
    }

    /// The identifier of process `u`.
    pub fn id(&self, u: NodeId) -> u64 {
        self.ids[u.index()]
    }

    /// All identifiers, indexed by node (for verification).
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// The per-node demand `f` (for verification).
    pub fn f(&self) -> &[u32] {
        &self.f
    }

    /// The per-node demand `g` (for verification).
    pub fn g(&self) -> &[u32] {
        &self.g
    }

    // ---- macros of Algorithm 3 ----

    /// `#InAll(u) = |{w ∈ N(u) | col_w}|`.
    pub fn in_all<V: StateView<FgaState>>(&self, u: NodeId, view: &V) -> u32 {
        view.graph()
            .neighbors(u)
            .iter()
            .filter(|&&w| view.state(w).col)
            .count() as u32
    }

    /// `realScr(u)` for an explicit membership bit (used mid-action by
    /// `rule_Clr`, whose `upd(u)` runs after `col_u := false`).
    pub fn real_scr_with_col<V: StateView<FgaState>>(&self, u: NodeId, view: &V, col: bool) -> i8 {
        let have = self.in_all(u, view);
        let need = if col {
            self.g[u.index()]
        } else {
            self.f[u.index()]
        };
        match have.cmp(&need) {
            std::cmp::Ordering::Less => -1,
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Greater => 1,
        }
    }

    /// `realScr(u)` as in the paper (against `u`'s stored `col_u`).
    pub fn real_scr<V: StateView<FgaState>>(&self, u: NodeId, view: &V) -> i8 {
        self.real_scr_with_col(u, view, view.state(u).col)
    }

    /// `P_canQuit(u) ≡ col_u ∧ #InAll(u) ≥ f(u) ∧ (∀v ∈ N(u), scr_v = 1)`.
    pub fn p_can_quit<V: StateView<FgaState>>(&self, u: NodeId, view: &V) -> bool {
        self.p_can_quit_with_col(u, view, view.state(u).col)
    }

    /// `P_canQuit` with an explicit membership bit (mid-action form).
    pub fn p_can_quit_with_col<V: StateView<FgaState>>(
        &self,
        u: NodeId,
        view: &V,
        col: bool,
    ) -> bool {
        col && self.in_all(u, view) >= self.f[u.index()]
            && view
                .graph()
                .neighbors(u)
                .iter()
                .all(|&v| view.state(v).scr == 1)
    }

    /// `bestPtr(u)` parameterized by `u`'s (possibly freshly computed)
    /// own `scr`/`canQ`; neighbors are read from the configuration.
    ///
    /// Returns `⊥` when `scr_u ≤ 0` or nobody in `N[u]` can quit;
    /// otherwise the minimum-identifier member of `N[u]` with `canQ`.
    pub fn best_ptr<V: StateView<FgaState>>(
        &self,
        u: NodeId,
        view: &V,
        self_scr: i8,
        self_can_q: bool,
    ) -> Option<NodeId> {
        if self_scr <= 0 {
            return None;
        }
        let mut best: Option<(u64, NodeId)> = None;
        let mut consider = |v: NodeId, can_q: bool| {
            if can_q {
                let key = (self.id(v), v);
                if best.is_none_or(|b| key.0 < b.0) {
                    best = Some(key);
                }
            }
        };
        consider(u, self_can_q);
        for &v in view.graph().neighbors(u) {
            consider(v, view.state(v).can_q);
        }
        best.map(|(_, v)| v)
    }

    /// `bestPtr(u)` on the stored configuration (guard form).
    pub fn best_ptr_stored<V: StateView<FgaState>>(&self, u: NodeId, view: &V) -> Option<NodeId> {
        let s = view.state(u);
        self.best_ptr(u, view, s.scr, s.can_q)
    }

    /// `P_toQuit(u) ≡ P_canQuit(u) ∧ (∀v ∈ N[u], ptr_v = u)` — full
    /// approval from the closed neighborhood, self included.
    pub fn p_to_quit<V: StateView<FgaState>>(&self, u: NodeId, view: &V) -> bool {
        self.p_can_quit(u, view)
            && view
                .graph()
                .closed_neighborhood(u)
                .all(|v| view.state(v).ptr == Some(u))
    }

    /// `P_updPtr(u) ≡ ¬P_toQuit(u) ∧ ptr_u ≠ bestPtr(u)`.
    pub fn p_upd_ptr<V: StateView<FgaState>>(&self, u: NodeId, view: &V) -> bool {
        !self.p_to_quit(u, view) && view.state(u).ptr != self.best_ptr_stored(u, view)
    }

    // ---- the one-scan kernel behind `guard` and `apply` ----

    /// Everything FGA's rules read of N(u), gathered in one walk.
    #[inline]
    fn scan<V: StateView<FgaState>>(&self, u: NodeId, view: &V) -> Scan {
        let mut scan = Scan {
            in_all: 0,
            all_scr_one: true,
            all_ptr_u: true,
            best_nbr: None,
        };
        for &v in view.graph().neighbors(u) {
            let s = view.state(v);
            scan.in_all += u32::from(s.col);
            scan.all_scr_one &= s.scr == 1;
            scan.all_ptr_u &= s.ptr == Some(u);
            if s.can_q {
                let id = self.id(v);
                if scan.best_nbr.is_none_or(|(best, _)| id < best) {
                    scan.best_nbr = Some((id, v));
                }
            }
        }
        scan
    }

    /// [`Fga::real_scr_with_col`] from a scan.
    #[inline]
    fn scan_scr(&self, u: NodeId, scan: &Scan, col: bool) -> i8 {
        let need = if col {
            self.g[u.index()]
        } else {
            self.f[u.index()]
        };
        // `Ordering` is `-1`, `0`, `1` as an `i8`: realScr's three values.
        scan.in_all.cmp(&need) as i8
    }

    /// [`Fga::p_can_quit_with_col`] from a scan.
    #[inline]
    fn scan_can_quit(&self, u: NodeId, scan: &Scan, col: bool) -> bool {
        col && scan.in_all >= self.f[u.index()] && scan.all_scr_one
    }

    /// [`Fga::best_ptr`] from a scan: `u` itself when it can quit and
    /// has the smaller identifier, else the scan's candidate.
    #[inline]
    fn scan_best_ptr(&self, u: NodeId, scan: &Scan, scr: i8, can_q: bool) -> Option<NodeId> {
        if scr <= 0 {
            return None;
        }
        match scan.best_nbr {
            Some((id, v)) if !can_q || id < self.id(u) => Some(v),
            _ => can_q.then_some(u),
        }
    }

    /// `cmpVar(u)`-then-`bestPtr(u)` (the `upd(u)` macro), with an
    /// explicit membership bit.
    fn upd(&self, u: NodeId, scan: &Scan, col: bool) -> FgaState {
        let scr = self.scan_scr(u, scan, col);
        let can_q = self.scan_can_quit(u, scan, col);
        FgaState {
            col,
            scr,
            can_q,
            ptr: self.scan_best_ptr(u, scan, scr, can_q),
        }
    }
}

/// What FGA's guard and actions read of N(u) (see [`Fga::scan`]).
struct Scan {
    /// `#InAll(u)`.
    in_all: u32,
    /// `∀v ∈ N(u), scr_v = 1`.
    all_scr_one: bool,
    /// `∀v ∈ N(u), ptr_v = u`.
    all_ptr_u: bool,
    /// The neighbour with `canQ` of minimum identifier, with that
    /// identifier: `bestPtr(u)`'s candidate other than `u` itself.
    best_nbr: Option<(u64, NodeId)>,
}

impl ResetInput for Fga {
    type State = FgaState;

    fn rule_count(&self) -> usize {
        4
    }

    fn rule_name(&self, rule: RuleId) -> &'static str {
        match rule {
            RULE_CLR => "rule_Clr",
            RULE_P1 => "rule_P1",
            RULE_P2 => "rule_P2",
            _ => "rule_Q",
        }
    }

    fn enabled_mask<V: StateView<FgaState>>(&self, u: NodeId, view: &V) -> RuleMask {
        let s = view.state(u);
        let to_quit = self.p_to_quit(u, view);
        let upd_ptr = self.p_upd_ptr(u, view);
        let stale = s.scr != self.real_scr(u, view) || s.can_q != self.p_can_quit(u, view);
        RuleMask::NONE
            .with_if(RULE_CLR, to_quit)
            .with_if(RULE_P1, upd_ptr && s.ptr.is_some())
            .with_if(RULE_P2, upd_ptr && s.ptr.is_none())
            .with_if(RULE_Q, !to_quit && !upd_ptr && stale)
    }

    /// The four actions, each from one scan of N(u).
    fn apply<V: StateView<FgaState>>(&self, u: NodeId, view: &V, rule: RuleId) -> FgaState {
        let s = *view.state(u);
        let scan = self.scan(u, view);
        match rule {
            // col_u := false; upd(u)  (upd sees the new col).
            RULE_CLR => self.upd(u, &scan, false),
            // ptr_u := ⊥; cmpVar(u).
            RULE_P1 => FgaState {
                col: s.col,
                scr: self.scan_scr(u, &scan, s.col),
                can_q: self.scan_can_quit(u, &scan, s.col),
                ptr: None,
            },
            // upd(u).
            RULE_P2 => self.upd(u, &scan, s.col),
            // cmpVar(u); if realScr(u) ≤ 0 then ptr_u := ⊥.
            _ => {
                let scr = self.scan_scr(u, &scan, s.col);
                FgaState {
                    col: s.col,
                    scr,
                    can_q: self.scan_can_quit(u, &scan, s.col),
                    ptr: if scr <= 0 { None } else { s.ptr },
                }
            }
        }
    }

    fn p_icorrect<V: StateView<FgaState>>(&self, u: NodeId, view: &V) -> bool {
        let s = view.state(u);
        let real = self.real_scr(u, view);
        real >= 0
            && ((s.scr == 1 && real == 1)
                || s.ptr.is_none()
                || s.ptr.is_some_and(|w| s.scr == 1 && !view.state(w).col))
    }

    /// `P_ICorrect(u)` and, under it, the four rules' guards, decided
    /// from one scan of N(u) (plus `col` of `ptr_u`'s target) where
    /// [`ResetInput::enabled_mask`] and [`ResetInput::p_icorrect`]
    /// walk it once per predicate.
    fn guard<V: StateView<FgaState>>(&self, u: NodeId, view: &V) -> Guard {
        let s = *view.state(u);
        let scan = self.scan(u, view);
        let real = self.scan_scr(u, &scan, s.col);
        let legit = real >= 0
            && ((s.scr == 1 && real == 1)
                || s.ptr.is_none_or(|w| s.scr == 1 && !view.state(w).col));
        if !legit {
            return Guard {
                mask: RuleMask::NONE,
                legit,
            };
        }
        let can_quit = self.scan_can_quit(u, &scan, s.col);
        let to_quit = can_quit && s.ptr == Some(u) && scan.all_ptr_u;
        let upd_ptr = !to_quit && s.ptr != self.scan_best_ptr(u, &scan, s.scr, s.can_q);
        let stale = s.scr != real || s.can_q != can_quit;
        Guard {
            mask: RuleMask::NONE
                .with_if(RULE_CLR, to_quit)
                .with_if(RULE_P1, upd_ptr && s.ptr.is_some())
                .with_if(RULE_P2, upd_ptr && s.ptr.is_none())
                .with_if(RULE_Q, !to_quit && !upd_ptr && stale),
            legit,
        }
    }

    fn p_reset(&self, _: NodeId, state: &FgaState) -> bool {
        state.col && state.ptr.is_none() && state.can_q && state.scr == 1
    }

    fn reset_state(&self, _: NodeId) -> FgaState {
        FgaState::reset()
    }

    fn arbitrary_state(&self, u: NodeId, rng: &mut Xoshiro256StarStar) -> FgaState {
        let nbrs = &self.closed_nbrs[u.index()];
        let ptr = if rng.chance(0.5) {
            None
        } else {
            Some(*rng.choose(nbrs))
        };
        FgaState {
            col: rng.chance(0.5),
            scr: (rng.below(3) as i8) - 1,
            can_q: rng.chance(0.5),
            ptr,
        }
    }
}

impl ssr_runtime::exhaustive::ExploreState for FgaState {
    /// One word packing `col`, `scr + 1` (2 bits), `can_q`, and the
    /// pointer (`⊥` ↦ `u32::MAX`).
    #[inline]
    fn encode(&self, out: &mut Vec<u64>) {
        let ptr = self.ptr.map_or(u32::MAX, |v| v.0);
        out.push(
            (self.col as u64)
                | (((self.scr + 1) as u64) << 1)
                | ((self.can_q as u64) << 3)
                | ((ptr as u64) << 4),
        );
    }
}

#[cfg(test)]
mod encode_tests {
    use super::*;
    use ssr_runtime::exhaustive::ExploreState;

    fn words(s: &FgaState) -> Vec<u64> {
        let mut out = Vec::new();
        s.encode(&mut out);
        out
    }

    /// The packed word must distinguish every field — a collision
    /// would silently merge distinct explorer states.
    #[test]
    fn fga_state_fields_are_distinguished() {
        let base = FgaState::reset();
        let mut seen = vec![words(&base)];
        for s in [
            FgaState { col: false, ..base },
            FgaState { scr: -1, ..base },
            FgaState {
                can_q: false,
                ..base
            },
            FgaState {
                ptr: Some(NodeId(0)),
                ..base
            },
            FgaState {
                ptr: Some(NodeId(1)),
                ..base
            },
        ] {
            let w = words(&s);
            assert!(!seen.contains(&w), "{s:?} collides");
            seen.push(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_graph::generators;
    use ssr_runtime::{ConfigView, Daemon, Simulator};

    fn domination(g: &Graph) -> Fga {
        let n = g.node_count();
        Fga::new(g, vec![1; n], vec![0; n]).unwrap()
    }

    #[test]
    fn construction_validates() {
        let g = generators::path(3);
        assert!(matches!(
            Fga::new(&g, vec![1, 1], vec![0, 0, 0]),
            Err(FgaError::LengthMismatch { what: "f", .. })
        ));
        // Endpoint of a path has degree 1 < f = 2.
        assert!(matches!(
            Fga::new(&g, vec![2, 2, 2], vec![0, 0, 0]),
            Err(FgaError::DegreeTooSmall { .. })
        ));
        assert!(matches!(
            Fga::with_ids(&g, vec![1, 1, 1], vec![0, 0, 0], vec![5, 5, 6]),
            Err(FgaError::DuplicateId { id: 5 })
        ));
        assert!(Fga::new(&g, vec![1, 1, 1], vec![0, 0, 0]).is_ok());
    }

    #[test]
    fn real_scr_cases() {
        let g = generators::path(3);
        let fga = Fga::new(&g, vec![1, 2, 1], vec![0, 1, 0]).unwrap();
        // Node 1 in the alliance with both neighbors in: #InAll = 2 > g = 1.
        let all_in = vec![FgaState::reset(); 3];
        let v = ConfigView::new(&g, &all_in);
        assert_eq!(fga.real_scr(NodeId(1), &v), 1);
        // Node 1 out of the alliance: compare against f = 2 -> equal.
        let mut states = all_in.clone();
        states[1].col = false;
        let v = ConfigView::new(&g, &states);
        assert_eq!(fga.real_scr(NodeId(1), &v), 0);
        // Node 0 (col) with its only neighbor out: 0 = g(0) -> 0.
        assert_eq!(fga.real_scr(NodeId(0), &v), 0);
        // Node 0 out as well: 0 < f(0) = 1 -> −1.
        states[0].col = false;
        let v = ConfigView::new(&g, &states);
        assert_eq!(fga.real_scr(NodeId(0), &v), -1);
    }

    #[test]
    fn best_ptr_prefers_smallest_id() {
        let g = generators::star(4); // hub 0, leaves 1..3
        let fga = Fga::with_ids(
            &g,
            vec![1; 4],
            vec![0; 4],
            vec![10, 3, 2, 5], // leaf 2 has the smallest id
        )
        .unwrap();
        let states = vec![FgaState::reset(); 4];
        let v = ConfigView::new(&g, &states);
        assert_eq!(fga.best_ptr_stored(NodeId(0), &v), Some(NodeId(2)));
        // A leaf only sees itself and the hub.
        assert_eq!(fga.best_ptr_stored(NodeId(1), &v), Some(NodeId(1)));
    }

    #[test]
    fn best_ptr_blocked_without_slack_or_candidates() {
        let g = generators::path(2);
        let fga = domination(&g);
        let mut states = vec![FgaState::reset(); 2];
        states[0].scr = 0;
        let v = ConfigView::new(&g, &states);
        assert_eq!(fga.best_ptr_stored(NodeId(0), &v), None, "scr ≤ 0 blocks");
        states[0].scr = 1;
        states[0].can_q = false;
        states[1].can_q = false;
        let v = ConfigView::new(&g, &states);
        assert_eq!(fga.best_ptr_stored(NodeId(0), &v), None, "no candidate");
    }

    #[test]
    fn to_quit_needs_closed_neighborhood_approval() {
        let g = generators::path(2);
        let fga = domination(&g);
        let mut states = vec![FgaState::reset(); 2];
        states[1].ptr = Some(NodeId(0));
        let v = ConfigView::new(&g, &states);
        assert!(!fga.p_to_quit(NodeId(0), &v), "self-approval missing");
        states[0].ptr = Some(NodeId(0));
        let v = ConfigView::new(&g, &states);
        assert!(fga.p_to_quit(NodeId(0), &v));
    }

    #[test]
    fn clr_updates_own_variables_against_new_col() {
        let g = generators::path(2);
        let fga = domination(&g);
        let states = vec![
            FgaState {
                ptr: Some(NodeId(0)),
                ..FgaState::reset()
            },
            FgaState {
                ptr: Some(NodeId(0)),
                ..FgaState::reset()
            },
        ];
        let v = ConfigView::new(&g, &states);
        assert!(fga.p_to_quit(NodeId(0), &v));
        let after = fga.apply(NodeId(0), &v, RULE_CLR);
        assert!(!after.col);
        // Out of the alliance: #InAll = 1 = f -> scr 0; canQuit needs col.
        assert_eq!(after.scr, 0);
        assert!(!after.can_q);
        assert_eq!(after.ptr, None, "scr ≤ 0 retracts the pointer");
    }

    #[test]
    fn p1_retracts_then_p2_aims() {
        let g = generators::path(2);
        let fga = domination(&g);
        // Node 0 points at a stale target while bestPtr says node 0
        // itself (ids 0 < 1).
        let mut states = vec![FgaState::reset(); 2];
        states[0].ptr = Some(NodeId(1));
        let v = ConfigView::new(&g, &states);
        let mask = fga.enabled_mask(NodeId(0), &v);
        assert!(mask.contains(RULE_P1));
        let mid = fga.apply(NodeId(0), &v, RULE_P1);
        assert_eq!(mid.ptr, None);
        states[0] = mid;
        let v = ConfigView::new(&g, &states);
        let mask = fga.enabled_mask(NodeId(0), &v);
        assert!(mask.contains(RULE_P2));
        let fin = fga.apply(NodeId(0), &v, RULE_P2);
        assert_eq!(fin.ptr, Some(NodeId(0)));
    }

    #[test]
    fn rules_mutually_exclusive() {
        let g = generators::random_connected(8, 5, 2);
        let fga = domination(&g);
        let mut rng = Xoshiro256StarStar::seed_from_u64(77);
        for _ in 0..300 {
            let states: Vec<FgaState> = g
                .nodes()
                .map(|u| fga.arbitrary_state(u, &mut rng))
                .collect();
            let v = ConfigView::new(&g, &states);
            for u in g.nodes() {
                assert!(fga.enabled_mask(u, &v).count() <= 1);
            }
        }
    }

    #[test]
    fn k2_domination_scenario() {
        // The worked example: on K2 with (1,0), the smaller id quits.
        let g = generators::path(2);
        let fga = domination(&g);
        let alg = ssr_core::Standalone::new(fga);
        let init = alg.initial_config(&g);
        let mut sim = Simulator::new(&g, alg, init, Daemon::Central, 1);
        let out = sim.execution().cap(1_000).run();
        assert!(out.terminal);
        assert!(!sim.states()[0].col, "min id leaves");
        assert!(sim.states()[1].col);
    }

    #[test]
    fn reset_state_is_gamma_init() {
        let g = generators::ring(4);
        let fga = domination(&g);
        ssr_core::validate::check_requirements(&fga, &g).unwrap();
        assert_eq!(fga.reset_state(NodeId(0)), FgaState::reset());
    }

    #[test]
    fn arbitrary_state_respects_ptr_domain() {
        let g = generators::path(3);
        let fga = domination(&g);
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        for _ in 0..200 {
            let s = fga.arbitrary_state(NodeId(0), &mut rng);
            if let Some(w) = s.ptr {
                assert!(w == NodeId(0) || g.are_neighbors(NodeId(0), w));
            }
            assert!((-1..=1).contains(&s.scr));
        }
    }

    #[test]
    fn display_forms() {
        let s = FgaState::reset();
        assert_eq!(s.to_string(), "●1q→⊥");
        let t = FgaState {
            col: false,
            scr: -1,
            can_q: false,
            ptr: Some(NodeId(3)),
        };
        assert_eq!(t.to_string(), "○-1·→3");
    }
}
