//! The IND decision procedure of Section 3.
//!
//! By Corollary 3.2, `Σ ⊨ R_a[A_1..A_m] ⊆ R_b[B_1..B_m]` iff there is a
//! sequence of *expressions* `S_1[X_1], ..., S_w[X_w]` with
//! `S_1[X_1] = R_a[A_1..A_m]`, `S_w[X_w] = R_b[B_1..B_m]`, and each step
//! `S_i[X_i] ⊆ S_{i+1}[X_{i+1}]` an IND2-instance (projection and
//! permutation) of a member of `Σ`. [`IndSolver`] performs breadth-first
//! search over expressions, which is exactly the paper's decision procedure
//! (steps (1)–(4) after Corollary 3.2) made deterministic.
//!
//! Complexity notes, mirroring the paper:
//!
//! * the general problem is PSPACE-complete (Theorem 3.3); this worklist
//!   algorithm may visit superpolynomially many expressions — the
//!   `depkit-perm` crate constructs the Landau-permutation family on which
//!   the walk necessarily has length `f(m) − 1`;
//! * for INDs of arity ≤ k (k fixed) the expression space has polynomial
//!   size, so the same search runs in polynomial time (the paper credits
//!   Kannelakis–Cosmadakis–Vardi with NLOGSPACE-completeness);
//! * for *typed* INDs `R[X] ⊆ S[X]` the expression's attribute sequence
//!   never changes, so the search degenerates to reachability over relation
//!   names. [`IndSolver::implies`] (and the stats/walk variants) dispatch to
//!   this fast path automatically whenever `Σ` and the target are typed;
//!   [`IndSolver::implies_typed`] remains for callers that want to know
//!   whether the fragment applies.
//!
//! The solver is *compiled*: `Σ` is interned into a
//! [`depkit_core::intern::Catalog`] at construction (deduplicated, trivial
//! `R[X] ⊆ R[X]` members dropped), each member carries a positional map over
//! [`AttrId`](depkit_core::intern::AttrId)s so an IND2 application is an
//! index gather, and the BFS
//! visited set is keyed by `(RelId, IdSeq)` instead of heap-string
//! expressions. The original string-based procedure is preserved as
//! [`crate::reference::ReferenceIndSolver`] for differential testing.

use depkit_core::attr::AttrSeq;
use depkit_core::dependency::Ind;
use depkit_core::intern::{Catalog, IdSeq, RelId};
use depkit_core::schema::RelName;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};

/// An expression `S[X]`: a relation name with a sequence of distinct
/// attributes, the state of the Corollary 3.2 search.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Expression {
    /// The relation name `S`.
    pub rel: RelName,
    /// The attribute sequence `X`.
    pub attrs: AttrSeq,
}

impl std::fmt::Display for Expression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}[{}]", self.rel, self.attrs)
    }
}

/// Instrumentation for one implication query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Expressions inserted into the visited set (applications of the
    /// paper's step (2) that produced a new expression, plus the start).
    pub expressions_visited: usize,
    /// Candidate IND applications attempted (successful or not).
    pub applications_attempted: usize,
    /// Length `w` of the found walk (number of expressions), when found.
    pub walk_length: Option<usize>,
}

/// One step of a Corollary 3.2 walk: the expression reached and, except for
/// the start, the index into `Σ` of the IND whose IND2-instance was used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkStep {
    /// The expression `S_i[X_i]`.
    pub expr: Expression,
    /// Index of the IND in `Σ` used to reach this expression (`None` for
    /// the first step).
    pub via: Option<usize>,
}

/// A compiled expression `S[X]`: the visited-set key of the search.
type ExprKey = (RelId, IdSeq);
/// BFS back-pointers: expression -> (predecessor, compiled Σ index used).
type ParentMap = HashMap<ExprKey, Option<(ExprKey, u32)>>;

/// One member of `Σ`, compiled onto catalog ids.
#[derive(Debug, Clone)]
struct CompiledInd {
    /// Index of this member in the caller-supplied `Σ` (walks report it).
    src: usize,
    rhs_rel: RelId,
    rhs: IdSeq,
    /// `pos[attr_id] = p + 1` when the attribute sits at position `p` of the
    /// left side, `0` when absent — a dense map over the solver's catalog,
    /// so an IND2 application is a pure index gather.
    pos: Vec<u32>,
}

impl CompiledInd {
    /// IND2 as an index gather: map each expression attribute through the
    /// positional correspondence, failing on the first absent attribute.
    fn apply(&self, attrs: &IdSeq) -> Option<IdSeq> {
        let mut mapped = Vec::with_capacity(attrs.len());
        for &a in attrs.ids() {
            let p = self.pos[a.index()];
            if p == 0 {
                return None;
            }
            mapped.push(self.rhs.ids()[(p - 1) as usize]);
        }
        Some(IdSeq::from(mapped))
    }

    /// Whether every id of `needed` occurs on the left side (the typed-
    /// fragment applicability test).
    fn covers(&self, needed: &IdSeq) -> bool {
        needed.ids().iter().all(|&a| self.pos[a.index()] != 0)
    }
}

/// A decision procedure for IND implication over a fixed `Σ`, compiled onto
/// the interned-id representation.
///
/// # Examples
///
/// Transitivity (rule IND3) emerges from the Corollary 3.2 expression
/// search, and a found walk is a verifiable certificate:
///
/// ```
/// use depkit_core::{Dependency, Ind};
/// use depkit_solver::ind::{verify_walk, IndSolver};
///
/// let ind = |s: &str| -> Ind {
///     s.parse::<Dependency>().unwrap().as_ind().unwrap().clone()
/// };
/// let sigma = vec![ind("R[A] <= S[B]"), ind("S[B] <= T[C]")];
/// let solver = IndSolver::new(&sigma);
///
/// let target = ind("R[A] <= T[C]");
/// assert!(solver.implies(&target));
/// assert!(!solver.implies(&ind("T[C] <= R[A]")));
///
/// // The walk R[A] ⊆ S[B] ⊆ T[C] has three expressions.
/// let walk = solver.walk(&target).unwrap();
/// assert_eq!(walk.len(), 3);
/// assert!(verify_walk(&sigma, &target, &walk));
/// ```
#[derive(Debug, Clone)]
pub struct IndSolver {
    /// `Σ` exactly as given (walk `via` indices refer to this slice).
    sigma: Vec<Ind>,
    catalog: Catalog,
    /// `Σ` compiled onto `catalog`'s ids.
    graph: IndGraph,
}

/// The id-level core of [`IndSolver`]: the compiled members of `Σ` and
/// the two searches over them, on the ids of one catalog. The Section 4
/// saturator and cover minimization compile their INDs straight into it
/// without going through names.
#[derive(Debug, Clone)]
pub(crate) struct IndGraph {
    /// Deduplicated, non-trivial members of `Σ`, compiled.
    compiled: Vec<CompiledInd>,
    /// `by_lhs_rel[rel_id]` = indices into `compiled` with that left relation.
    by_lhs_rel: Vec<Vec<u32>>,
    /// Whether every member of `Σ` is typed (enables the reachability path).
    all_typed: bool,
}

impl IndGraph {
    /// Compile `(src, lhs_rel, lhs, rhs_rel, rhs)` members over a catalog
    /// of `n_rels` relations and `n_attrs` attributes; `src` is the index
    /// a walk or a skip mask names the member by. Trivial members
    /// (`R[X] ⊆ R[X]`, rule IND1 instances) are dropped from the search
    /// tables — they can never produce a new expression. The members
    /// should be distinct: a duplicate is searched twice.
    pub(crate) fn new(
        n_rels: usize,
        n_attrs: usize,
        members: impl IntoIterator<Item = (usize, RelId, IdSeq, RelId, IdSeq)>,
    ) -> Self {
        let mut all_typed = true;
        let mut compiled = Vec::new();
        let mut by_lhs_rel: Vec<Vec<u32>> = vec![Vec::new(); n_rels];
        for (src, lhs_rel, lhs, rhs_rel, rhs) in members {
            all_typed &= lhs == rhs;
            if lhs_rel == rhs_rel && lhs == rhs {
                continue; // trivial (IND1 instance)
            }
            let mut pos = vec![0u32; n_attrs];
            for (p, &a) in lhs.ids().iter().enumerate() {
                pos[a.index()] = p as u32 + 1;
            }
            by_lhs_rel[lhs_rel.index()].push(compiled.len() as u32);
            compiled.push(CompiledInd {
                src,
                rhs_rel,
                rhs,
                pos,
            });
        }
        IndGraph {
            compiled,
            by_lhs_rel,
            all_typed,
        }
    }

    /// Whether the members `i` with `!skip(i)` imply `lhs_rel[lhs] ⊆
    /// rhs_rel[rhs]` (a skipped member is never applied), by the typed
    /// reachability path when it applies and the expression search
    /// otherwise. Both are complete, so the answer does not depend on
    /// which one runs.
    pub(crate) fn implies_masked(
        &self,
        (lhs_rel, lhs): (RelId, &IdSeq),
        (rhs_rel, rhs): (RelId, &IdSeq),
        skip: impl Fn(usize) -> bool,
    ) -> bool {
        if lhs_rel == rhs_rel && lhs == rhs {
            return true;
        }
        let mut stats = SearchStats::default();
        if self.all_typed && lhs == rhs {
            self.typed_search(lhs_rel, rhs_rel, lhs, skip, &mut stats)
                .is_some()
        } else {
            let goal = (rhs_rel, rhs.clone());
            self.search((lhs_rel, lhs.clone()), &goal, skip, &mut stats)
                .is_some()
        }
    }

    /// Breadth-first Corollary 3.2 search from `start` over the members
    /// `i` with `!skip(i)`: the back-pointers once `goal` is reached.
    /// `start` must differ from `goal`.
    fn search(
        &self,
        start: ExprKey,
        goal: &ExprKey,
        skip: impl Fn(usize) -> bool,
        stats: &mut SearchStats,
    ) -> Option<ParentMap> {
        // parent: expression -> (predecessor, compiled index used)
        let mut parent: ParentMap = HashMap::new();
        parent.insert(start.clone(), None);
        let mut queue = VecDeque::from([start]);
        while let Some(expr) = queue.pop_front() {
            for &ci in &self.by_lhs_rel[expr.0.index()] {
                let c = &self.compiled[ci as usize];
                if skip(c.src) {
                    continue;
                }
                stats.applications_attempted += 1;
                let Some(mapped) = c.apply(&expr.1) else {
                    continue;
                };
                let next = (c.rhs_rel, mapped);
                match parent.entry(next.clone()) {
                    Entry::Occupied(_) => continue,
                    Entry::Vacant(slot) => {
                        slot.insert(Some((expr.clone(), ci)));
                        stats.expressions_visited += 1;
                    }
                }
                if next == *goal {
                    return Some(parent);
                }
                queue.push_back(next);
            }
        }
        None
    }

    /// Reachability over relation ids for the typed fragment, from
    /// `start_rel` over the members `i` with `!skip(i)` that cover
    /// `needed`: `parent[rel_id] = (predecessor rel, compiled index)` for
    /// every relation visited after the start, once `goal_rel` is reached.
    /// `start_rel` must differ from `goal_rel`.
    fn typed_search(
        &self,
        start_rel: RelId,
        goal_rel: RelId,
        needed: &IdSeq,
        skip: impl Fn(usize) -> bool,
        stats: &mut SearchStats,
    ) -> Option<Vec<Option<(RelId, u32)>>> {
        let n_rels = self.by_lhs_rel.len();
        let mut parent: Vec<Option<(RelId, u32)>> = vec![None; n_rels];
        let mut visited = vec![false; n_rels];
        visited[start_rel.index()] = true;
        let mut queue = VecDeque::from([start_rel]);
        while let Some(rel) = queue.pop_front() {
            for &ci in &self.by_lhs_rel[rel.index()] {
                let c = &self.compiled[ci as usize];
                if skip(c.src) {
                    continue;
                }
                stats.applications_attempted += 1;
                if !c.covers(needed) || visited[c.rhs_rel.index()] {
                    continue;
                }
                visited[c.rhs_rel.index()] = true;
                parent[c.rhs_rel.index()] = Some((rel, ci));
                stats.expressions_visited += 1;
                if c.rhs_rel == goal_rel {
                    return Some(parent);
                }
                queue.push_back(c.rhs_rel);
            }
        }
        None
    }
}

impl IndSolver {
    /// Build a solver from a set of INDs.
    ///
    /// `Σ` is compiled up front: every symbol is interned, exact duplicates
    /// and trivial members (`R[X] ⊆ R[X]`, rule IND1 instances) are dropped
    /// from the search tables — they can never produce a new expression and
    /// would only inflate [`SearchStats::applications_attempted`] and the
    /// visited set. [`IndSolver::sigma`] still returns the original set, and
    /// walk steps keep indexing it.
    pub fn new(sigma: &[Ind]) -> Self {
        let sigma: Vec<Ind> = sigma.to_vec();
        let mut catalog = Catalog::new();
        // Intern every symbol first, so the positional maps can be dense
        // over the catalog's final attribute count, and drop exact
        // duplicates of earlier members.
        let mut seen: HashSet<(RelId, IdSeq, RelId, IdSeq)> = HashSet::new();
        let mut members = Vec::with_capacity(sigma.len());
        for (src, ind) in sigma.iter().enumerate() {
            let member = (
                catalog.intern_rel(&ind.lhs_rel),
                catalog.intern_attrs(&ind.lhs_attrs),
                catalog.intern_rel(&ind.rhs_rel),
                catalog.intern_attrs(&ind.rhs_attrs),
            );
            if seen.insert(member.clone()) {
                let (lhs_rel, lhs, rhs_rel, rhs) = member;
                members.push((src, lhs_rel, lhs, rhs_rel, rhs));
            }
        }
        let graph = IndGraph::new(catalog.rel_count(), catalog.attr_count(), members);
        IndSolver {
            sigma,
            catalog,
            graph,
        }
    }

    /// The IND set `Σ`, exactly as supplied (including any duplicates or
    /// trivial members the compiled search skips).
    pub fn sigma(&self) -> &[Ind] {
        &self.sigma
    }

    /// The solver's private symbol catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Decide `Σ ⊨ target`. Dispatches to the typed reachability fast path
    /// automatically when `Σ` and the target are typed.
    pub fn implies(&self, target: &Ind) -> bool {
        self.decide(target).0.is_some()
    }

    /// Decide `Σ ⊨ target`, returning search statistics. The stats are
    /// populated on the typed fast path too: within the typed fragment the
    /// expression graph *is* the relation-reachability graph, so the counts
    /// coincide with what the general search would report.
    pub fn implies_with_stats(&self, target: &Ind) -> (bool, SearchStats) {
        let (walk, stats) = self.decide(target);
        (walk.is_some(), stats)
    }

    /// Produce the Corollary 3.2 walk witnessing `Σ ⊨ target`, or `None`.
    ///
    /// The walk starts at `target`'s left expression and ends at its right
    /// expression; consecutive expressions are related by IND2-instances of
    /// the recorded `Σ` members. [`verify_walk`] checks these conditions.
    pub fn walk(&self, target: &Ind) -> Option<Vec<WalkStep>> {
        self.decide(target).0
    }

    /// Fast path for *typed* INDs (`R[X] ⊆ S[X]`).
    ///
    /// Returns `None` when the fast path does not apply (some IND in `Σ` or
    /// the target is untyped); otherwise decides implication by reachability
    /// over relation ids, in time `O(|Σ| · |schema|)`. Plain
    /// [`IndSolver::implies`] already takes this path automatically; this
    /// entry point remains for callers that want to know whether the typed
    /// fragment applies.
    ///
    /// Soundness/completeness within the typed fragment: a typed IND applied
    /// by IND2 to an expression `R[X]` with `set(X) ⊆ set(W)` yields `S[X]`
    /// with the *same* attribute sequence, so walks never change the
    /// attribute sequence and only relation names matter.
    pub fn implies_typed(&self, target: &Ind) -> Option<bool> {
        self.typed_search(target).map(|(walk, _)| walk.is_some())
    }

    /// Route a query to the typed fast path when it applies, else the
    /// general expression search.
    fn decide(&self, target: &Ind) -> (Option<Vec<WalkStep>>, SearchStats) {
        match self.typed_search(target) {
            Some(result) => result,
            None => self.search(target),
        }
    }

    /// The single-expression walk for a trivial target (`start = goal`).
    fn trivial_walk(target: &Ind) -> Vec<WalkStep> {
        vec![WalkStep {
            expr: Expression {
                rel: target.lhs_rel.clone(),
                attrs: target.lhs_attrs.clone(),
            },
            via: None,
        }]
    }

    fn search(&self, target: &Ind) -> (Option<Vec<WalkStep>>, SearchStats) {
        let mut stats = SearchStats {
            expressions_visited: 1,
            ..SearchStats::default()
        };
        if target.is_trivial() {
            stats.walk_length = Some(1);
            return (Some(Self::trivial_walk(target)), stats);
        }
        // Boundary interning. A symbol `Σ` never mentions cannot occur in
        // any IND2 application, so a non-trivial target containing one is
        // simply not implied.
        let (Some(start_rel), Some(goal_rel)) = (
            self.catalog.rel_id(&target.lhs_rel),
            self.catalog.rel_id(&target.rhs_rel),
        ) else {
            return (None, stats);
        };
        let (Some(start_attrs), Some(goal_attrs)) = (
            self.catalog.lookup_attrs(&target.lhs_attrs),
            self.catalog.lookup_attrs(&target.rhs_attrs),
        ) else {
            return (None, stats);
        };
        let goal = (goal_rel, goal_attrs);
        match self
            .graph
            .search((start_rel, start_attrs), &goal, |_| false, &mut stats)
        {
            Some(parent) => {
                let walk = self.reconstruct(&parent, &goal);
                stats.walk_length = Some(walk.len());
                (Some(walk), stats)
            }
            None => (None, stats),
        }
    }

    /// Reachability search over relation ids for the typed fragment, with
    /// the same stats and walk shape as the general search. `None` when the
    /// fragment does not apply.
    fn typed_search(&self, target: &Ind) -> Option<(Option<Vec<WalkStep>>, SearchStats)> {
        if !self.graph.all_typed || !target.is_typed() {
            return None;
        }
        let mut stats = SearchStats {
            expressions_visited: 1,
            ..SearchStats::default()
        };
        if target.is_trivial() {
            stats.walk_length = Some(1);
            return Some((Some(Self::trivial_walk(target)), stats));
        }
        let (Some(start_rel), Some(goal_rel)) = (
            self.catalog.rel_id(&target.lhs_rel),
            self.catalog.rel_id(&target.rhs_rel),
        ) else {
            return Some((None, stats));
        };
        let Some(needed) = self.catalog.lookup_attrs(&target.lhs_attrs) else {
            return Some((None, stats));
        };
        let walk = self
            .graph
            .typed_search(start_rel, goal_rel, &needed, |_| false, &mut stats)
            .map(|parent| self.reconstruct_typed(&parent, target, goal_rel));
        stats.walk_length = walk.as_ref().map(Vec::len);
        Some((walk, stats))
    }

    fn reconstruct(&self, parent: &ParentMap, end: &ExprKey) -> Vec<WalkStep> {
        let mut steps = Vec::new();
        let mut cur = end.clone();
        loop {
            let expr = Expression {
                rel: self.catalog.resolve_rel(cur.0),
                attrs: self.catalog.resolve_attrs(&cur.1),
            };
            match parent
                .get(&cur)
                .expect("every visited node has a parent entry")
            {
                Some((prev, ci)) => {
                    steps.push(WalkStep {
                        expr,
                        via: Some(self.graph.compiled[*ci as usize].src),
                    });
                    cur = prev.clone();
                }
                None => {
                    steps.push(WalkStep { expr, via: None });
                    break;
                }
            }
        }
        steps.reverse();
        steps
    }

    /// Typed walks carry the target's (unchanging) attribute sequence at
    /// every step; only the relation varies.
    fn reconstruct_typed(
        &self,
        parent: &[Option<(RelId, u32)>],
        target: &Ind,
        goal_rel: RelId,
    ) -> Vec<WalkStep> {
        let mut steps = Vec::new();
        let mut cur = goal_rel;
        loop {
            let expr = Expression {
                rel: self.catalog.resolve_rel(cur),
                attrs: target.lhs_attrs.clone(),
            };
            match parent[cur.index()] {
                Some((prev, ci)) => {
                    steps.push(WalkStep {
                        expr,
                        via: Some(self.graph.compiled[ci as usize].src),
                    });
                    cur = prev;
                }
                None => {
                    steps.push(WalkStep { expr, via: None });
                    break;
                }
            }
        }
        steps.reverse();
        steps
    }
}

/// Apply IND2 (projection and permutation) of `ind` to `expr`: succeeds when
/// `expr` names `ind`'s left relation and every attribute of `expr` occurs
/// in `ind`'s left side; the result maps each attribute through `ind`'s
/// positional correspondence.
pub fn apply_ind2(ind: &Ind, expr: &Expression) -> Option<Expression> {
    if expr.rel != ind.lhs_rel {
        return None;
    }
    let mut mapped = Vec::with_capacity(expr.attrs.len());
    for a in expr.attrs.attrs() {
        let p = ind.lhs_attrs.position(a)?;
        mapped.push(ind.rhs_attrs.attrs()[p].clone());
    }
    // `ind`'s right side has distinct attributes and position mapping is
    // injective, so the selection is distinct.
    let attrs = AttrSeq::new(mapped).expect("projection of distinct attributes is distinct");
    Some(Expression {
        rel: ind.rhs_rel.clone(),
        attrs,
    })
}

/// Verify that `walk` witnesses `sigma ⊨ target` per Corollary 3.2:
/// conditions (iii)–(v) of the corollary.
pub fn verify_walk(sigma: &[Ind], target: &Ind, walk: &[WalkStep]) -> bool {
    let Some(first) = walk.first() else {
        return false;
    };
    let Some(last) = walk.last() else {
        return false;
    };
    if first.expr.rel != target.lhs_rel || first.expr.attrs != target.lhs_attrs {
        return false;
    }
    if last.expr.rel != target.rhs_rel || last.expr.attrs != target.rhs_attrs {
        return false;
    }
    for w in 1..walk.len() {
        let Some(via) = walk[w].via else {
            return false;
        };
        let Some(ind) = sigma.get(via) else {
            return false;
        };
        match apply_ind2(ind, &walk[w - 1].expr) {
            Some(next) if next == walk[w].expr => {}
            _ => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use depkit_core::parser::parse_dependency;

    fn ind(src: &str) -> Ind {
        match parse_dependency(src).unwrap() {
            depkit_core::Dependency::Ind(i) => i,
            _ => panic!("not an IND: {src}"),
        }
    }

    fn inds(srcs: &[&str]) -> Vec<Ind> {
        srcs.iter().map(|s| ind(s)).collect()
    }

    #[test]
    fn reflexivity_ind1() {
        let solver = IndSolver::new(&[]);
        assert!(solver.implies(&ind("R[A, B] <= R[A, B]")));
        assert!(!solver.implies(&ind("R[A, B] <= R[B, A]")));
    }

    #[test]
    fn projection_and_permutation_ind2() {
        let sigma = inds(&["R[A, B, C] <= S[D, E, F]"]);
        let solver = IndSolver::new(&sigma);
        assert!(solver.implies(&ind("R[A] <= S[D]")));
        assert!(solver.implies(&ind("R[C, A] <= S[F, D]")));
        assert!(!solver.implies(&ind("R[A] <= S[E]")));
        assert!(!solver.implies(&ind("R[C, A] <= S[D, F]")));
    }

    #[test]
    fn transitivity_ind3() {
        let sigma = inds(&["R[A] <= S[B]", "S[B] <= T[C]"]);
        let solver = IndSolver::new(&sigma);
        assert!(solver.implies(&ind("R[A] <= T[C]")));
        assert!(!solver.implies(&ind("T[C] <= R[A]")));
    }

    #[test]
    fn combined_projection_then_transitivity() {
        let sigma = inds(&["R[A, B] <= S[C, D]", "S[D] <= T[E]"]);
        let solver = IndSolver::new(&sigma);
        assert!(solver.implies(&ind("R[B] <= T[E]")));
        assert!(!solver.implies(&ind("R[A] <= T[E]")));
    }

    #[test]
    fn walk_is_verifiable() {
        let sigma = inds(&["R[A, B] <= S[C, D]", "S[C, D] <= T[E, F]"]);
        let solver = IndSolver::new(&sigma);
        let target = ind("R[B, A] <= T[F, E]");
        let walk = solver.walk(&target).expect("implication holds");
        assert_eq!(walk.len(), 3);
        assert!(verify_walk(&sigma, &target, &walk));
        // Tampered walk fails verification.
        let mut bad = walk.clone();
        bad.pop();
        assert!(!verify_walk(&sigma, &target, &bad));
    }

    #[test]
    fn permutation_cycle_needs_many_steps() {
        // σ(γ) with γ the 3-cycle (A B C): R[A,B,C] ⊆ R[B,C,A].
        // γ has order 3, so σ(γ²) = R[A,B,C] ⊆ R[C,A,B] needs 2 steps.
        let sigma = inds(&["R[A, B, C] <= R[B, C, A]"]);
        let solver = IndSolver::new(&sigma);
        let target = ind("R[A, B, C] <= R[C, A, B]");
        let (yes, stats) = solver.implies_with_stats(&target);
        assert!(yes);
        assert_eq!(stats.walk_length, Some(3)); // w = 3 expressions, 2 steps
    }

    #[test]
    fn self_referential_ind() {
        let sigma = inds(&["R[A] <= R[B]"]);
        let solver = IndSolver::new(&sigma);
        assert!(solver.implies(&ind("R[A] <= R[B]")));
        assert!(!solver.implies(&ind("R[B] <= R[A]")));
    }

    #[test]
    fn typed_fast_path_agrees_with_general_search() {
        let sigma = inds(&[
            "R[A, B] <= S[A, B]",
            "S[A, B, C] <= T[A, B, C]",
            "T[A] <= U[A]",
        ]);
        let solver = IndSolver::new(&sigma);
        let cases = [
            ("R[A] <= T[A]", true),
            ("R[A, B] <= T[A, B]", true),
            ("R[A] <= U[A]", true),
            ("R[B] <= U[B]", false),
            ("S[C] <= T[C]", true),
            ("R[C] <= T[C]", false),
            ("U[A] <= R[A]", false),
        ];
        for (src, expected) in cases {
            let t = ind(src);
            assert_eq!(solver.implies(&t), expected, "general: {src}");
            assert_eq!(solver.implies_typed(&t), Some(expected), "typed: {src}");
        }
        // Fast path declines untyped targets.
        assert_eq!(solver.implies_typed(&ind("R[A] <= S[B]")), None);
        // Fast path declines untyped sigma.
        let untyped = IndSolver::new(&inds(&["R[A] <= S[B]"]));
        assert_eq!(untyped.implies_typed(&ind("R[A] <= S[A]")), None);
    }

    #[test]
    fn stats_count_expressions() {
        // A permutation cycle of order 4 on two attributes... use the
        // 4-cycle on (A B C D): expressions along the path: 4 total.
        let sigma = inds(&["R[A, B, C, D] <= R[B, C, D, A]"]);
        let solver = IndSolver::new(&sigma);
        let target = ind("R[A, B, C, D] <= R[D, A, B, C]");
        let (yes, stats) = solver.implies_with_stats(&target);
        assert!(yes);
        // Start + 3 new expressions reached.
        assert_eq!(stats.expressions_visited, 4);
        assert_eq!(stats.walk_length, Some(4));
    }

    #[test]
    fn sigma_dedupe_skips_trivial_and_duplicate_members() {
        // Two copies of the useful IND, one trivial IND1 instance.
        let noisy = inds(&[
            "R[A] <= S[B]",
            "R[A] <= S[B]",
            "T[C] <= T[C]",
            "S[B] <= T[C]",
        ]);
        let clean = inds(&["R[A] <= S[B]", "S[B] <= T[C]"]);
        let noisy_solver = IndSolver::new(&noisy);
        let clean_solver = IndSolver::new(&clean);
        // `sigma()` still reports the original set.
        assert_eq!(noisy_solver.sigma(), &noisy[..]);
        let target = ind("R[A] <= T[C]");
        let (yes, noisy_stats) = noisy_solver.implies_with_stats(&target);
        let (_, clean_stats) = clean_solver.implies_with_stats(&target);
        assert!(yes);
        // Duplicates and trivial members cost nothing in the search.
        assert_eq!(noisy_stats, clean_stats);
        // Walk `via` indices refer to the ORIGINAL sigma positions.
        let walk = noisy_solver.walk(&target).unwrap();
        assert!(verify_walk(&noisy, &target, &walk));
    }

    #[test]
    fn typed_dispatch_populates_stats() {
        let sigma = inds(&["R[A] <= S[A]", "S[A] <= T[A]"]);
        let solver = IndSolver::new(&sigma);
        let target = ind("R[A] <= T[A]");
        // The typed fragment applies, and plain implies_with_stats uses it.
        assert_eq!(solver.implies_typed(&target), Some(true));
        let (yes, stats) = solver.implies_with_stats(&target);
        assert!(yes);
        assert_eq!(stats.walk_length, Some(3));
        assert_eq!(stats.expressions_visited, 3);
        assert!(stats.applications_attempted >= 2);
        // The typed-path walk is a genuine Corollary 3.2 witness.
        let walk = solver.walk(&target).unwrap();
        assert_eq!(walk.len(), 3);
        assert!(verify_walk(&sigma, &target, &walk));
        // A non-implied typed target reports a full (failed) search.
        let (no, stats) = solver.implies_with_stats(&ind("T[A] <= R[A]"));
        assert!(!no);
        assert_eq!(stats.walk_length, None);
        assert_eq!(stats.expressions_visited, 1);
    }

    #[test]
    fn typed_stats_match_general_search_counts() {
        // With all-typed Σ the expression graph IS the relation graph, so
        // the typed path must report the same stats the general search
        // would. Compare against the reference implementation.
        let sigma = inds(&[
            "R[A, B] <= S[A, B]",
            "S[A, B, C] <= T[A, B, C]",
            "T[A] <= U[A]",
            "S[A] <= U[A]",
        ]);
        let solver = IndSolver::new(&sigma);
        let reference = crate::reference::ReferenceIndSolver::new(&sigma);
        for src in ["R[A] <= U[A]", "R[A, B] <= T[A, B]", "R[C] <= U[C]"] {
            let t = ind(src);
            let (yes, stats) = solver.implies_with_stats(&t);
            let (ref_yes, ref_stats) = reference.implies_with_stats(&t);
            assert_eq!(yes, ref_yes, "{src}");
            assert_eq!(stats, ref_stats, "{src}");
        }
    }

    #[test]
    fn unknown_target_symbols_are_not_implied() {
        let solver = IndSolver::new(&inds(&["R[A] <= S[B]"]));
        // Unknown relation / attribute: only trivial targets hold.
        assert!(!solver.implies(&ind("Q[A] <= S[B]")));
        assert!(!solver.implies(&ind("R[Z] <= S[B]")));
        assert!(solver.implies(&ind("Q[Z] <= Q[Z]")));
        assert_eq!(solver.walk(&ind("Q[Z] <= Q[Z]")).map(|w| w.len()), Some(1));
    }

    #[test]
    fn unsatisfiable_exhausts_search() {
        let sigma = inds(&["R[A, B] <= R[B, A]"]);
        let solver = IndSolver::new(&sigma);
        // R[A,B] can reach R[B,A] and back, but never S[...].
        let (yes, stats) = solver.implies_with_stats(&ind("R[A] <= S[A]"));
        assert!(!yes);
        assert!(stats.expressions_visited >= 1);
    }
}
