//! Pre-refactor reference engines.
//!
//! [`ReferenceFdEngine`] and [`ReferenceIndSolver`] are the original
//! implementations of the FD closure and the Corollary 3.2 IND search,
//! operating directly on [`Attr`]/[`AttrSeq`] heap strings; [`saturate`]
//! is the original Section 4 saturation loop, which tries every rule on
//! every combination of premises; [`minimize_cover`] is the cover
//! minimization loop that clones every candidate remainder and asks
//! engines built fresh from it. They are kept — deliberately
//! unoptimized — as the *executable specification* of the compiled
//! engines in [`crate::fd`], [`crate::ind`], [`crate::interact`] and
//! [`crate::discover::minimize_cover`]:
//!
//! * the differential property tests (`tests/compiled_vs_reference.rs` at
//!   the workspace root) assert the compiled engines agree with these on
//!   `closure`, `implies`, and walk verifiability, including the Landau
//!   `σ(γ)` families from `depkit-perm`, that the
//!   [`Saturator`](crate::interact::Saturator), deriving on id records,
//!   materializes exactly what [`saturate`] does under caps that
//!   truncate, and that the compiled cover minimization returns
//!   [`minimize_cover`]'s cover, order included;
//! * the `fd_closure` and `ind_implication` benches run both
//!   representations side by side, so the interning layer's win is measured
//!   rather than assumed.
//!
//! Do not add features here: new behavior belongs in the compiled engines,
//! with this module only tracking what is needed for the comparison to stay
//! meaningful.

use depkit_core::attr::{Attr, AttrSeq};
use depkit_core::dependency::{Dependency, Fd, Ind, Rd};
use depkit_core::schema::RelName;
use std::cell::OnceCell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::discover::{class_implied, is_mixed, DiscoveryConfig, PRUNING_LIMITS};
use crate::fd::FdEngine;
use crate::ind::{apply_ind2, Expression, IndSolver, SearchStats, WalkStep};
use crate::interact::{
    augment_ind, compose_inds, derive_rds, pullback_fd, rd_pullback, rd_to_fds,
    rd_transitive_closure, SaturationLimits, SaturationOptions,
};

/// The original string-based FD-implication engine (Beeri–Bernstein closure
/// over `BTreeSet<Attr>` with a `HashMap<Attr, Vec<usize>>` watcher table).
#[derive(Debug, Clone)]
pub struct ReferenceFdEngine {
    rel: RelName,
    fds: Vec<Fd>,
    watchers: HashMap<Attr, Vec<usize>>,
}

impl ReferenceFdEngine {
    /// Build an engine from the FDs that speak about `rel`.
    pub fn new(rel: impl Into<RelName>, fds: &[Fd]) -> Self {
        let rel = rel.into();
        let fds: Vec<Fd> = fds.iter().filter(|f| f.rel == rel).cloned().collect();
        let mut watchers: HashMap<Attr, Vec<usize>> = HashMap::new();
        for (i, f) in fds.iter().enumerate() {
            for a in f.lhs.attrs() {
                watchers.entry(a.clone()).or_default().push(i);
            }
        }
        ReferenceFdEngine { rel, fds, watchers }
    }

    /// The attribute closure `X⁺` of `start` under the engine's FDs.
    pub fn closure(&self, start: &AttrSeq) -> BTreeSet<Attr> {
        let mut closure: BTreeSet<Attr> = start.attrs().iter().cloned().collect();
        let mut missing: Vec<usize> = self.fds.iter().map(|f| f.lhs.len()).collect();
        let mut queue: VecDeque<Attr> = closure.iter().cloned().collect();

        let fire = |i: usize, closure: &mut BTreeSet<Attr>, queue: &mut VecDeque<Attr>| {
            for a in self.fds[i].rhs.attrs() {
                if closure.insert(a.clone()) {
                    queue.push_back(a.clone());
                }
            }
        };
        for (i, &m) in missing.iter().enumerate() {
            if m == 0 {
                fire(i, &mut closure, &mut queue);
            }
        }
        while let Some(a) = queue.pop_front() {
            if let Some(watching) = self.watchers.get(&a) {
                for &i in watching {
                    missing[i] -= 1;
                    if missing[i] == 0 {
                        fire(i, &mut closure, &mut queue);
                    }
                }
            }
        }
        closure
    }

    /// Whether the engine's FDs logically imply `target`.
    pub fn implies(&self, target: &Fd) -> bool {
        if target.rel != self.rel {
            return target.is_trivial();
        }
        let c = self.closure(&target.lhs);
        target.rhs.attrs().iter().all(|a| c.contains(a))
    }
}

/// The original string-based Corollary 3.2 decision procedure: breadth-first
/// search over [`Expression`]s, hashing whole `(RelName, AttrSeq)` keys.
///
/// Unlike [`crate::ind::IndSolver`], this solver performs **no** Σ
/// deduplication and no typed-fragment dispatch — it is the plain worklist
/// procedure of the paper.
#[derive(Debug, Clone)]
pub struct ReferenceIndSolver {
    sigma: Vec<Ind>,
    by_lhs_rel: HashMap<RelName, Vec<usize>>,
}

impl ReferenceIndSolver {
    /// Build a solver from a set of INDs.
    pub fn new(sigma: &[Ind]) -> Self {
        let sigma: Vec<Ind> = sigma.to_vec();
        let mut by_lhs_rel: HashMap<RelName, Vec<usize>> = HashMap::new();
        for (i, ind) in sigma.iter().enumerate() {
            by_lhs_rel.entry(ind.lhs_rel.clone()).or_default().push(i);
        }
        ReferenceIndSolver { sigma, by_lhs_rel }
    }

    /// The IND set `Σ`, exactly as given.
    pub fn sigma(&self) -> &[Ind] {
        &self.sigma
    }

    /// Decide `Σ ⊨ target`.
    pub fn implies(&self, target: &Ind) -> bool {
        self.search(target).0.is_some()
    }

    /// Decide `Σ ⊨ target`, returning search statistics.
    pub fn implies_with_stats(&self, target: &Ind) -> (bool, SearchStats) {
        let (walk, stats) = self.search(target);
        (walk.is_some(), stats)
    }

    /// Produce the Corollary 3.2 walk witnessing `Σ ⊨ target`, or `None`.
    pub fn walk(&self, target: &Ind) -> Option<Vec<WalkStep>> {
        self.search(target).0
    }

    fn search(&self, target: &Ind) -> (Option<Vec<WalkStep>>, SearchStats) {
        let start = Expression {
            rel: target.lhs_rel.clone(),
            attrs: target.lhs_attrs.clone(),
        };
        let goal = Expression {
            rel: target.rhs_rel.clone(),
            attrs: target.rhs_attrs.clone(),
        };
        let mut stats = SearchStats {
            expressions_visited: 1,
            ..SearchStats::default()
        };
        let mut parent: HashMap<Expression, Option<(Expression, usize)>> = HashMap::new();
        parent.insert(start.clone(), None);
        if start == goal {
            stats.walk_length = Some(1);
            return (
                Some(vec![WalkStep {
                    expr: start,
                    via: None,
                }]),
                stats,
            );
        }
        let mut queue = VecDeque::from([start]);
        while let Some(expr) = queue.pop_front() {
            let Some(candidates) = self.by_lhs_rel.get(&expr.rel) else {
                continue;
            };
            for &i in candidates {
                stats.applications_attempted += 1;
                let Some(next) = apply_ind2(&self.sigma[i], &expr) else {
                    continue;
                };
                match parent.entry(next.clone()) {
                    Entry::Occupied(_) => continue,
                    Entry::Vacant(slot) => {
                        slot.insert(Some((expr.clone(), i)));
                        stats.expressions_visited += 1;
                    }
                }
                if next == goal {
                    let walk = reconstruct(&parent, &next);
                    stats.walk_length = Some(walk.len());
                    return (Some(walk), stats);
                }
                queue.push_back(next);
            }
        }
        (None, stats)
    }
}

fn reconstruct(
    parent: &HashMap<Expression, Option<(Expression, usize)>>,
    end: &Expression,
) -> Vec<WalkStep> {
    let mut steps = Vec::new();
    let mut cur = end.clone();
    loop {
        match parent
            .get(&cur)
            .expect("every visited node has a parent entry")
        {
            Some((prev, via)) => {
                steps.push(WalkStep {
                    expr: cur.clone(),
                    via: Some(*via),
                });
                cur = prev.clone();
            }
            None => {
                steps.push(WalkStep {
                    expr: cur.clone(),
                    via: None,
                });
                break;
            }
        }
    }
    steps.reverse();
    steps
}

/// The sets [`saturate`] materialized, and whether it hit a cap: what a
/// [`Saturator`](crate::interact::Saturator) reports through its `fds`,
/// `inds`, `rds` and `truncated` accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Saturation {
    /// The materialized FDs.
    pub fds: BTreeSet<Fd>,
    /// The materialized INDs.
    pub inds: BTreeSet<Ind>,
    /// The materialized unary RDs.
    pub rds: BTreeSet<Rd>,
    /// Whether a cap (rounds, INDs or FDs) was hit.
    pub truncated: bool,
}

/// The original Section 4 saturation loop. Every round tries FD and RD
/// pullback on every (IND, FD) and (IND, RD) pair, Propositions 4.2 and
/// 4.3 on every (IND, IND, FD) triple and composition on every IND pair,
/// then materializes what is new under `limits`, in the order derived.
/// [`Saturator::saturate`](crate::interact::Saturator::saturate) joins
/// only premises that can fire and must materialize exactly the same
/// sets, truncated or not.
pub fn saturate(
    deps: &[Dependency],
    limits: SaturationLimits,
    options: SaturationOptions,
) -> Saturation {
    let mut fds: BTreeSet<Fd> = BTreeSet::new();
    let mut inds: BTreeSet<Ind> = BTreeSet::new();
    let mut rds: BTreeSet<Rd> = BTreeSet::new();
    for d in deps {
        match d {
            Dependency::Fd(f) => {
                fds.insert(f.clone());
            }
            Dependency::Ind(i) => {
                inds.insert(i.clone());
            }
            Dependency::Rd(r) => {
                rds.extend(r.unary_decomposition().into_iter().map(|u| u.canonical()));
            }
            Dependency::Emvd(_) => {}
        }
    }
    let mut truncated = false;
    let mut saturated = false;
    for _round in 0..limits.max_rounds {
        let mut new_fds: Vec<Fd> = Vec::new();
        let mut new_inds: Vec<Ind> = Vec::new();
        let mut new_rds: Vec<Rd> = Vec::new();

        if options.rd_rules {
            new_rds.extend(rd_transitive_closure(&rds));
            for rd in &rds {
                for f in rd_to_fds(rd) {
                    if !f.is_trivial() && !fds.contains(&f) {
                        new_fds.push(f);
                    }
                }
            }
        }

        for ind in &inds {
            if options.pullback {
                for fd in &fds {
                    if let Some(f) = pullback_fd(ind, fd) {
                        if !f.is_trivial() && !fds.contains(&f) {
                            new_fds.push(f);
                        }
                    }
                }
            }
            if options.rd_rules {
                for rd in &rds {
                    for r in rd_pullback(ind, rd) {
                        if !r.is_trivial() && !rds.contains(&r) {
                            new_rds.push(r);
                        }
                    }
                }
            }
        }

        for i1 in &inds {
            for i2 in &inds {
                for fd in &fds {
                    if options.augmentation {
                        if let Some(ind) = augment_ind(i1, i2, fd) {
                            if !ind.is_trivial() && !inds.contains(&ind) {
                                new_inds.push(ind);
                            }
                        }
                    }
                    if options.rd_rules {
                        for rd in derive_rds(i1, i2, fd) {
                            if !rd.is_trivial() && !rds.contains(&rd) {
                                new_rds.push(rd);
                            }
                        }
                    }
                }
                if options.composition {
                    if let Some(ind) = compose_inds(i1, i2) {
                        if !ind.is_trivial() && !inds.contains(&ind) {
                            new_inds.push(ind);
                        }
                    }
                }
            }
        }

        let mut changed = false;
        for f in new_fds {
            if fds.len() >= limits.max_fds {
                truncated = true;
                break;
            }
            changed |= fds.insert(f);
        }
        for i in new_inds {
            if inds.len() >= limits.max_inds {
                truncated = true;
                break;
            }
            changed |= inds.insert(i);
        }
        for r in new_rds {
            changed |= rds.insert(r);
        }
        if !changed {
            saturated = true;
            break;
        }
    }
    Saturation {
        fds,
        inds,
        rds,
        truncated: truncated || !saturated,
    }
}

/// What [`minimize_cover`] returned: the cover, and how many stage-2
/// saturations it ran and how many of those hit a cap (the share that
/// makes the saturator's derivation order decide the cover).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Minimization {
    /// The minimal cover, in order.
    pub cover: Vec<Dependency>,
    /// Stage-2 saturations run, one per mixed remainder asked about.
    pub saturations: usize,
    /// How many of those saturations truncated.
    pub truncated: usize,
}

/// The two-stage cover minimization as it ran before it compiled its
/// input: every candidate remainder is cloned, stage 1 asks the
/// per-class engines built fresh from it, and stage 2 asks a
/// [`PruningOracle`](crate::discover::PruningOracle)-style oracle whose
/// saturation is the unindexed loop [`saturate`] under the pruning caps,
/// answered by engines built from the sets it materialized. One
/// saturation serves every query about one remainder: it is a function
/// of the remainder alone, so sharing it changes no answer.
/// [`crate::discover::minimize_cover`] must return the same cover, in
/// the same order.
pub fn minimize_cover(raw: &[Dependency], config: &DiscoveryConfig) -> Minimization {
    let mut cover: Vec<Dependency> = raw.iter().filter(|d| !d.is_trivial()).cloned().collect();
    cover.sort();
    cover.dedup();
    let full = cover.clone();
    // Stage 1: per-class engines only.
    loop {
        let mut removed = false;
        let mut i = 0;
        while i < cover.len() {
            let mut rest = cover.clone();
            rest.remove(i);
            if class_implied(&rest, &cover[i]) {
                cover.remove(i);
                removed = true;
            } else {
                i += 1;
            }
        }
        if !removed {
            break;
        }
    }
    let (mut saturations, mut truncated) = (0, 0);
    if !config.interaction_pruning {
        return Minimization {
            cover,
            saturations,
            truncated,
        };
    }
    // Stage 2: cross-class pruning, guarded by the raw-set invariant. The
    // member-implied check goes first as a gate; the full sweep runs only
    // for actual removal candidates, answered by the same saturation of
    // the remainder.
    loop {
        let mut removed = false;
        let mut i = 0;
        while i < cover.len() {
            let mut rest = cover.clone();
            rest.remove(i);
            let saturation: OnceCell<Answers> = OnceCell::new();
            let implies = |d: &Dependency| {
                if let Some(sat) = saturation.get() {
                    return sat.implies(d);
                }
                if class_implied(&rest, d) {
                    return true;
                }
                is_mixed(&rest)
                    && saturation
                        .get_or_init(|| {
                            Answers::new(saturate(
                                &rest,
                                PRUNING_LIMITS,
                                SaturationOptions::default(),
                            ))
                        })
                        .implies(d)
            };
            let accepted = implies(&cover[i]) && full.iter().all(implies);
            if let Some(answers) = saturation.get() {
                saturations += 1;
                truncated += usize::from(answers.sat.truncated);
            }
            if accepted {
                cover.remove(i);
                removed = true;
            } else {
                i += 1;
            }
        }
        if !removed {
            break;
        }
    }
    Minimization {
        cover,
        saturations,
        truncated,
    }
}

/// A reference saturation with query engines built from its sets.
struct Answers {
    sat: Saturation,
    fds: HashMap<RelName, FdEngine>,
    inds: IndSolver,
}

impl Answers {
    fn new(sat: Saturation) -> Self {
        let fds: Vec<Fd> = sat.fds.iter().cloned().collect();
        let inds: Vec<Ind> = sat.inds.iter().cloned().collect();
        let rels: BTreeSet<&RelName> = fds.iter().map(|f| &f.rel).collect();
        Answers {
            fds: (rels.into_iter())
                .map(|rel| (rel.clone(), FdEngine::new(rel.clone(), &fds)))
                .collect(),
            inds: IndSolver::new(&inds),
            sat,
        }
    }

    /// Whether the saturation implies `dep`.
    fn implies(&self, dep: &Dependency) -> bool {
        if dep.is_trivial() {
            return true;
        }
        match dep {
            Dependency::Fd(f) => self.fds.get(&f.rel).is_some_and(|e| e.implies(f)),
            Dependency::Ind(i) => self.inds.implies(i),
            Dependency::Rd(r) => r
                .unary_decomposition()
                .into_iter()
                .all(|u| self.sat.rds.contains(&u.canonical())),
            Dependency::Emvd(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depkit_core::attr::attrs;
    use depkit_core::parser::parse_dependency;

    fn ind(src: &str) -> Ind {
        match parse_dependency(src).unwrap() {
            depkit_core::Dependency::Ind(i) => i,
            _ => panic!("not an IND: {src}"),
        }
    }

    #[test]
    fn reference_fd_engine_matches_textbook_closure() {
        let fds = vec![
            Fd::new("R", attrs(&["A"]), attrs(&["B"])),
            Fd::new("R", attrs(&["B"]), attrs(&["C"])),
        ];
        let eng = ReferenceFdEngine::new("R", &fds);
        let c = eng.closure(&attrs(&["A"]));
        assert_eq!(c.len(), 3);
        assert!(eng.implies(&Fd::new("R", attrs(&["A"]), attrs(&["C"]))));
        assert!(!eng.implies(&Fd::new("R", attrs(&["B"]), attrs(&["A"]))));
    }

    #[test]
    fn reference_ind_solver_walks_and_counts() {
        let sigma = vec![ind("R[A, B, C] <= R[B, C, A]")];
        let solver = ReferenceIndSolver::new(&sigma);
        let (yes, stats) = solver.implies_with_stats(&ind("R[A, B, C] <= R[C, A, B]"));
        assert!(yes);
        assert_eq!(stats.walk_length, Some(3));
        assert!(!solver.implies(&ind("R[A] <= S[A]")));
    }
}
