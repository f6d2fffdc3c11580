//! FD/IND interaction rules (Section 4) and a sound saturation engine.
//!
//! The paper's Propositions 4.1–4.3 exhibit dependencies implied by FDs and
//! INDs *together* that neither class implies alone:
//!
//! * **Proposition 4.1** (FD pullback): `{R[XY] ⊆ S[TU], S: T → U} ⊨
//!   R: X → Y`.
//! * **Proposition 4.2** (IND augmentation): `{R[XY] ⊆ S[TU], R[XZ] ⊆ S[TV],
//!   S: T → U} ⊨ R[XYZ] ⊆ S[TUV]`.
//! * **Proposition 4.3** (RD generation): `{R[XY] ⊆ S[TU], R[XZ] ⊆ S[TU],
//!   S: T → U} ⊨ R[Y = Z]` — repeating dependencies arise.
//!
//! The rule functions here implement mild generalizations that build the
//! necessary IND2 projections into the matching (each is sound by composing
//! the proposition with IND2 and FD projectivity; see the per-function
//! docs). [`Saturator`] closes a dependency set under all of them plus RD
//! bookkeeping and IND composition.
//!
//! **Completeness caveat.** Theorem 7.1 of the paper proves that *no* k-ary
//! axiomatization of FDs + INDs (+ RDs) is complete, and Mitchell and
//! Chandra–Vardi later proved the joint implication problem undecidable.
//! The saturator is therefore a documented *sound semi-decision procedure*:
//! everything it derives is implied, but it cannot derive everything.

use crate::fd::FdEngine;
use crate::ind::IndSolver;
use depkit_core::attr::{Attr, AttrSeq};
use depkit_core::dependency::{Dependency, Fd, Ind, Rd};
use depkit_core::intern::{AttrId, Catalog};
use depkit_core::schema::RelName;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Proposition 4.1, generalized: pull an FD back through an IND.
///
/// Requires `fd.rel = ind.rhs_rel` and every attribute of `fd` to occur in
/// `ind`'s right side. Writing `pos(a)` for `a`'s position in
/// `ind.rhs_attrs` and `pre(a) = ind.lhs_attrs[pos(a)]`, the result is
/// `ind.lhs_rel: pre(fd.lhs) → pre(fd.rhs − fd.lhs)`.
///
/// Soundness: project `ind` by IND2 onto the positions of
/// `fd.lhs ++ (fd.rhs − fd.lhs)` to get `R[XY] ⊆ S[TU']` with
/// `U' = fd.rhs − fd.lhs`; `S: T → U'` follows from `fd` by Armstrong
/// decomposition; Proposition 4.1 applies verbatim.
pub fn pullback_fd(ind: &Ind, fd: &Fd) -> Option<Fd> {
    if fd.rel != ind.rhs_rel {
        return None;
    }
    let x = preimage(ind, &fd.lhs)?;
    let y = preimage(ind, &fd.rhs.minus(&fd.lhs))?;
    let seq = |attrs: Vec<&Attr>| {
        AttrSeq::new(attrs.into_iter().cloned().collect())
            .expect("image of distinct attrs under injective map")
    };
    Some(Fd::new(ind.lhs_rel.clone(), seq(x), seq(y)))
}

/// The left-side attributes `ind` pairs with `attrs` on its right side, in
/// the order of `attrs` — the `X` of Proposition 4.2 when `attrs` is an
/// FD's left side — or `None` when some attribute of `attrs` is not on
/// `ind`'s right side.
fn preimage<'a>(ind: &'a Ind, attrs: &AttrSeq) -> Option<Vec<&'a Attr>> {
    attrs
        .attrs()
        .iter()
        .map(|a| ind.rhs_attrs.position(a).map(|p| &ind.lhs_attrs.attrs()[p]))
        .collect()
}

/// Proposition 4.2, generalized: augment two INDs sharing an FD key.
///
/// Requires `i1` and `i2` to relate the same pair of relations, `fd` to
/// speak about the right relation, all of `fd.lhs` (the `T` of the
/// proposition) to occur in both right sides, and the left-side attributes
/// corresponding to `T` to be the *same sequence* `X` in both INDs. The
/// conclusion is `R[X ++ Y ++ Z] ⊆ S[T ++ U ++ V]` where `(Y, U)` are the
/// non-`T` columns of `i1` with `U ⊆ fd.rhs`, and `(Z, V)` are the non-`T`
/// columns of `i2`; pairs that would repeat an attribute on either side are
/// dropped (a sound projection of the full conclusion).
pub fn augment_ind(i1: &Ind, i2: &Ind, fd: &Fd) -> Option<Ind> {
    if i1.lhs_rel != i2.lhs_rel || i1.rhs_rel != i2.rhs_rel || fd.rel != i1.rhs_rel {
        return None;
    }
    // The X that T's positions induce must be the same in both INDs.
    let t = &fd.lhs;
    let x = preimage(i1, t)?;
    if preimage(i2, t)? != x {
        return None;
    }

    let fd_rhs_set: BTreeSet<&Attr> = fd.rhs.attrs().iter().collect();
    let t_set: BTreeSet<&Attr> = t.attrs().iter().collect();

    let mut lhs: Vec<Attr> = x.into_iter().cloned().collect();
    let mut rhs: Vec<Attr> = t.attrs().to_vec();

    let push_pair = |l: &Attr, r: &Attr, lhs: &mut Vec<Attr>, rhs: &mut Vec<Attr>| {
        if !lhs.contains(l) && !rhs.contains(r) {
            lhs.push(l.clone());
            rhs.push(r.clone());
        }
    };

    // (Y, U): i1's non-T columns whose right attribute is functionally
    // determined by T (i.e. lies in fd.rhs).
    for (p, r_attr) in i1.rhs_attrs.attrs().iter().enumerate() {
        if !t_set.contains(r_attr) && fd_rhs_set.contains(r_attr) {
            push_pair(&i1.lhs_attrs.attrs()[p], r_attr, &mut lhs, &mut rhs);
        }
    }
    // (Z, V): i2's non-T columns, unconditionally.
    for (p, r_attr) in i2.rhs_attrs.attrs().iter().enumerate() {
        if !t_set.contains(r_attr) {
            push_pair(&i2.lhs_attrs.attrs()[p], r_attr, &mut lhs, &mut rhs);
        }
    }

    let conclusion = Ind::new(
        i1.lhs_rel.clone(),
        AttrSeq::new(lhs).expect("duplicates were dropped"),
        i1.rhs_rel.clone(),
        AttrSeq::new(rhs).expect("duplicates were dropped"),
    )
    .expect("sides grew in lockstep");
    Some(conclusion)
}

/// Proposition 4.3, generalized: derive repeating dependencies.
///
/// When `i1` and `i2` map the same left-side sequence `X` onto the FD key
/// `T = fd.lhs` inside the same right relation, every attribute `u` of
/// `fd.rhs` that occurs in **both** right sides forces the corresponding
/// left attributes to be equal in every tuple: the unary RDs
/// `R[y = z]` with `y = pre_1(u)`, `z = pre_2(u)`.
pub fn derive_rds(i1: &Ind, i2: &Ind, fd: &Fd) -> Vec<Rd> {
    if i1.lhs_rel != i2.lhs_rel || i1.rhs_rel != i2.rhs_rel || fd.rel != i1.rhs_rel {
        return Vec::new();
    }
    let t = &fd.lhs;
    match (preimage(i1, t), preimage(i2, t)) {
        (Some(x1), Some(x2)) if x1 == x2 => {}
        _ => return Vec::new(),
    }
    let t_set: BTreeSet<&Attr> = t.attrs().iter().collect();
    let mut out = Vec::new();
    for u in fd.rhs.attrs() {
        if t_set.contains(u) {
            continue;
        }
        if let (Some(p1), Some(p2)) = (i1.rhs_attrs.position(u), i2.rhs_attrs.position(u)) {
            let y = &i1.lhs_attrs.attrs()[p1];
            let z = &i2.lhs_attrs.attrs()[p2];
            if y != z {
                out.push(
                    Rd::new(
                        i1.lhs_rel.clone(),
                        AttrSeq::new(vec![y.clone()]).expect("single attr"),
                        AttrSeq::new(vec![z.clone()]).expect("single attr"),
                    )
                    .expect("unary")
                    .canonical(),
                );
            }
        }
    }
    out
}

/// Pull an RD back through an IND: if `S[c = d]` holds and `R[..a..b..] ⊆
/// S[..c..d..]` maps `a ↦ c`, `b ↦ d`, then `R[a = b]` holds.
pub fn rd_pullback(ind: &Ind, rd: &Rd) -> Vec<Rd> {
    if rd.rel != ind.rhs_rel {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (c, d) in rd.lhs.attrs().iter().zip(rd.rhs.attrs()) {
        if let (Some(pc), Some(pd)) = (ind.rhs_attrs.position(c), ind.rhs_attrs.position(d)) {
            let a = &ind.lhs_attrs.attrs()[pc];
            let b = &ind.lhs_attrs.attrs()[pd];
            if a != b {
                out.push(
                    Rd::new(
                        ind.lhs_rel.clone(),
                        AttrSeq::new(vec![a.clone()]).expect("single attr"),
                        AttrSeq::new(vec![b.clone()]).expect("single attr"),
                    )
                    .expect("unary")
                    .canonical(),
                );
            }
        }
    }
    out
}

/// The FDs implied by a unary RD: `R[A = B] ⊨ {R: A → B, R: B → A}`.
pub fn rd_to_fds(rd: &Rd) -> Vec<Fd> {
    rd.unary_decomposition()
        .into_iter()
        .flat_map(|u| {
            [
                Fd::new(u.rel.clone(), u.lhs.clone(), u.rhs.clone()),
                Fd::new(u.rel.clone(), u.rhs, u.lhs),
            ]
        })
        .collect()
}

/// Caps that keep saturation terminating on adversarial inputs.
#[derive(Debug, Clone, Copy)]
pub struct SaturationLimits {
    /// Maximum fixpoint rounds.
    pub max_rounds: usize,
    /// Maximum number of materialized INDs.
    pub max_inds: usize,
    /// Maximum number of materialized FDs.
    pub max_fds: usize,
}

impl Default for SaturationLimits {
    fn default() -> Self {
        SaturationLimits {
            max_rounds: 32,
            max_inds: 4096,
            max_fds: 4096,
        }
    }
}

/// Rule toggles for ablation studies: disable individual interaction
/// rules to measure what each contributes (everything stays sound; less
/// gets derived).
#[derive(Debug, Clone, Copy)]
pub struct SaturationOptions {
    /// Proposition 4.1 (FD pullback through INDs).
    pub pullback: bool,
    /// Proposition 4.2 (IND augmentation).
    pub augmentation: bool,
    /// Proposition 4.3 and the RD machinery (RD generation, RD→FD,
    /// RD pullback, RD transitivity).
    pub rd_rules: bool,
    /// IND composition (IND3 with inline IND2).
    pub composition: bool,
}

impl Default for SaturationOptions {
    fn default() -> Self {
        SaturationOptions {
            pullback: true,
            augmentation: true,
            rd_rules: true,
            composition: true,
        }
    }
}

/// A sound (necessarily incomplete — Theorem 7.1) saturation engine for
/// FDs, INDs, and RDs together.
///
/// The engine materializes FDs, INDs, and unary RDs and closes them under:
/// Armstrong reasoning (via [`FdEngine`] at query time), IND1–IND3 (via
/// [`IndSolver`] at query time, plus explicit composition so the Section 4
/// rules can fire on composed INDs), Propositions 4.1/4.2/4.3, RD
/// symmetry/transitivity, RD-to-FD conversion, and RD pullback through INDs.
#[derive(Debug, Clone)]
pub struct Saturator {
    fds: BTreeSet<Fd>,
    inds: BTreeSet<Ind>,
    rds: BTreeSet<Rd>,
    limits: SaturationLimits,
    options: SaturationOptions,
    truncated: bool,
    saturated: bool,
    /// Compiled query engines over the materialized sets, built once per
    /// saturation instead of re-cloning every dependency per `implies` call.
    /// `None` whenever the sets have changed since the engines were built.
    engines: Option<QueryEngines>,
}

/// Compiled engines the saturator answers queries with: one id-compiled
/// [`FdEngine`] per relation that has FDs, plus one [`IndSolver`] over the
/// materialized INDs (which auto-dispatches typed queries).
#[derive(Debug, Clone)]
struct QueryEngines {
    fd_by_rel: HashMap<RelName, FdEngine>,
    ind: IndSolver,
}

impl QueryEngines {
    fn build(fds: &BTreeSet<Fd>, inds: &BTreeSet<Ind>) -> Self {
        // Group once, then compile each relation's engine from its own
        // slice (FdEngine::new would otherwise re-filter the full set).
        let mut grouped: HashMap<RelName, Vec<Fd>> = HashMap::new();
        for fd in fds {
            grouped.entry(fd.rel.clone()).or_default().push(fd.clone());
        }
        let fd_by_rel = grouped
            .into_iter()
            .map(|(rel, rel_fds)| (rel.clone(), FdEngine::new(rel, &rel_fds)))
            .collect();
        let all_inds: Vec<Ind> = inds.iter().cloned().collect();
        QueryEngines {
            fd_by_rel,
            ind: IndSolver::new(&all_inds),
        }
    }
}

/// One saturation round's join index over the materialized sets: which
/// premises can meet in a rule at all. INDs and FDs are numbered in set
/// order, the order the round emits in.
struct JoinIndex<'a> {
    inds: Vec<&'a Ind>,
    fds: Vec<&'a Fd>,
    /// Per IND, the FDs on its right relation whose left side lies on the
    /// IND's right side, in FD order, each with the group of INDs that
    /// map that left side from the same attributes of the same relation.
    images: Vec<Vec<(usize, usize)>>,
    /// The IND groups, each the INDs sharing one `(fd, lhs_rel, image)`
    /// in IND order: any two of them are a pair Propositions 4.2 and 4.3
    /// can fire on.
    groups: Vec<Vec<usize>>,
    /// The INDs out of each relation, in IND order: composition partners.
    by_lhs_rel: HashMap<&'a RelName, Vec<usize>>,
    /// The RDs on each relation, in RD order.
    rds_by_rel: HashMap<&'a RelName, Vec<&'a Rd>>,
}

impl<'a> JoinIndex<'a> {
    fn build(fds: &'a BTreeSet<Fd>, inds: &'a BTreeSet<Ind>, rds: &'a BTreeSet<Rd>) -> Self {
        let fds: Vec<&Fd> = fds.iter().collect();
        let mut fds_by_rel: HashMap<&RelName, Vec<usize>> = HashMap::new();
        for (f, fd) in fds.iter().enumerate() {
            fds_by_rel.entry(&fd.rel).or_default().push(f);
        }
        let mut rds_by_rel: HashMap<&RelName, Vec<&Rd>> = HashMap::new();
        for rd in rds {
            rds_by_rel.entry(&rd.rel).or_default().push(rd);
        }
        let inds: Vec<&Ind> = inds.iter().collect();
        let mut by_lhs_rel: HashMap<&RelName, Vec<usize>> = HashMap::new();
        let mut group_of: HashMap<(usize, &RelName, Vec<&Attr>), usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut images = Vec::with_capacity(inds.len());
        for (i, ind) in inds.iter().enumerate() {
            by_lhs_rel.entry(&ind.lhs_rel).or_default().push(i);
            let mut own = Vec::new();
            for &f in fds_by_rel.get(&ind.rhs_rel).into_iter().flatten() {
                let Some(x) = preimage(ind, &fds[f].lhs) else {
                    continue;
                };
                let fresh = groups.len();
                let g = *group_of.entry((f, &ind.lhs_rel, x)).or_insert(fresh);
                if g == fresh {
                    groups.push(Vec::new());
                }
                groups[g].push(i);
                own.push((f, g));
            }
            images.push(own);
        }
        JoinIndex {
            inds,
            fds,
            images,
            groups,
            by_lhs_rel,
            rds_by_rel,
        }
    }
}

impl Saturator {
    /// Create a saturator over the given dependencies (EMVDs are ignored).
    pub fn new(deps: &[Dependency]) -> Self {
        Self::with_limits(deps, SaturationLimits::default())
    }

    /// Create a saturator with explicit resource caps.
    pub fn with_limits(deps: &[Dependency], limits: SaturationLimits) -> Self {
        Self::with_options(deps, limits, SaturationOptions::default())
    }

    /// Create a saturator with explicit caps and rule toggles (ablation).
    pub fn with_options(
        deps: &[Dependency],
        limits: SaturationLimits,
        options: SaturationOptions,
    ) -> Self {
        let mut s = Saturator {
            fds: BTreeSet::new(),
            inds: BTreeSet::new(),
            rds: BTreeSet::new(),
            limits,
            options,
            truncated: false,
            saturated: false,
            engines: None,
        };
        for d in deps {
            match d {
                Dependency::Fd(f) => {
                    s.fds.insert(f.clone());
                }
                Dependency::Ind(i) => {
                    s.inds.insert(i.clone());
                }
                Dependency::Rd(r) => {
                    for u in r.unary_decomposition() {
                        s.rds.insert(u.canonical());
                    }
                }
                Dependency::Emvd(_) => {}
            }
        }
        s
    }

    /// Whether saturation hit a resource cap (results remain sound but may
    /// be weaker).
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// The materialized FDs.
    pub fn fds(&self) -> &BTreeSet<Fd> {
        &self.fds
    }

    /// The materialized INDs.
    pub fn inds(&self) -> &BTreeSet<Ind> {
        &self.inds
    }

    /// The materialized unary RDs.
    pub fn rds(&self) -> &BTreeSet<Rd> {
        &self.rds
    }

    /// Insert a dependency discovered externally (e.g. by the finite-
    /// implication counting rule) and mark the engine for re-saturation.
    /// Returns whether anything new was added.
    pub fn add(&mut self, dep: &Dependency) -> bool {
        let added = match dep {
            Dependency::Fd(f) => self.fds.insert(f.clone()),
            Dependency::Ind(i) => self.inds.insert(i.clone()),
            Dependency::Rd(r) => {
                let mut any = false;
                for u in r.unary_decomposition() {
                    any |= self.rds.insert(u.canonical());
                }
                any
            }
            Dependency::Emvd(_) => false,
        };
        if added {
            self.saturated = false;
            self.engines = None;
        }
        added
    }

    /// Run rules to a fixpoint (or until a cap is reached). On return the
    /// compiled query engines are rebuilt over the materialized sets, so
    /// subsequent [`Saturator::implies`] calls pay no construction cost.
    ///
    /// Each round joins only premises that can fire. A per-round join
    /// index groups the FDs and RDs by relation and computes, once, each
    /// IND's image of each FD's left side (the `X` of Proposition 4.2, or
    /// nothing when that left side is not all on the IND's right side).
    /// Propositions 4.2 and 4.3 then run only on IND pairs with the same
    /// pair of relations and the same image, composition only on pairs
    /// that chain, and FD/RD pullback only through INDs whose right
    /// relation the FD or RD constrains.
    ///
    /// **Derivation order is part of the determinism contract.** Once a
    /// cap is hit, the order in which a round emits its derivations
    /// decides which of them are materialized, and so what every later
    /// query answers (cover minimization prints the result). A round
    /// emits in the order of the plain triple loop kept as
    /// [`crate::reference::saturate`]: IND `i1`, then `i2`, both in set
    /// order; for each pair the FDs in set order, then composition. The
    /// index only skips triples that derive nothing, and once a run has
    /// truncated, a class at its cap is not derived at all (nothing more
    /// of it could be kept), so the materialized sets are the triple
    /// loop's by construction; `tests/compiled_vs_reference.rs` checks
    /// them under caps that truncate.
    pub fn saturate(&mut self) {
        if self.saturated {
            return;
        }
        self.engines = None;
        for _round in 0..self.limits.max_rounds {
            let (new_fds, new_inds, new_rds) = self.derive_round();
            let mut changed = false;
            for f in new_fds {
                if self.fds.len() >= self.limits.max_fds {
                    self.truncated = true;
                    break;
                }
                changed |= self.fds.insert(f);
            }
            for i in new_inds {
                if self.inds.len() >= self.limits.max_inds {
                    self.truncated = true;
                    break;
                }
                changed |= self.inds.insert(i);
            }
            for r in new_rds {
                changed |= self.rds.insert(r);
            }
            if !changed {
                self.saturated = true;
                break;
            }
        }
        if !self.saturated {
            self.truncated = true;
        }
        self.engines = Some(QueryEngines::build(&self.fds, &self.inds));
    }

    /// One round's new FDs, INDs and RDs, each in emission order (see
    /// [`Saturator::saturate`]), derived from the current sets.
    fn derive_round(&self) -> (Vec<Fd>, Vec<Ind>, Vec<Rd>) {
        let opts = self.options;
        // Once the run has truncated, a class at its cap takes no new
        // member, so the rules that only derive members of it are not run:
        // their output could change neither the sets nor the flags.
        let fds_open = !(self.truncated && self.fds.len() >= self.limits.max_fds);
        let inds_open = !(self.truncated && self.inds.len() >= self.limits.max_inds);
        let (pullback, rd_to_fd) = (opts.pullback && fds_open, opts.rd_rules && fds_open);
        let augmentation = opts.augmentation && inds_open;
        let composition = opts.composition && inds_open;
        let mut new_fds: Vec<Fd> = Vec::new();
        let mut new_inds: Vec<Ind> = Vec::new();
        let mut new_rds: Vec<Rd> = Vec::new();
        let mut push_fd = |f: Fd| {
            if !f.is_trivial() && !self.fds.contains(&f) {
                new_fds.push(f);
            }
        };
        let mut push_ind = |i: Ind| {
            if !i.is_trivial() && !self.inds.contains(&i) {
                new_inds.push(i);
            }
        };
        let mut push_rd = |r: Rd| {
            if !r.is_trivial() && !self.rds.contains(&r) {
                new_rds.push(r);
            }
        };

        // RD transitivity via union-find per relation, then RD -> FD.
        if opts.rd_rules {
            rd_transitive_closure(&self.rds)
                .into_iter()
                .for_each(&mut push_rd);
        }
        if rd_to_fd {
            for rd in &self.rds {
                rd_to_fds(rd).into_iter().for_each(&mut push_fd);
            }
        }

        let index = JoinIndex::build(&self.fds, &self.inds, &self.rds);
        for (i, &ind) in index.inds.iter().enumerate() {
            // Proposition 4.1 needs the FD's left side on `ind`'s right.
            if pullback {
                for &(f, _) in &index.images[i] {
                    if let Some(fd) = pullback_fd(ind, index.fds[f]) {
                        push_fd(fd);
                    }
                }
            }
            // RD pullback.
            if opts.rd_rules {
                for &rd in index.rds_by_rel.get(&ind.rhs_rel).into_iter().flatten() {
                    rd_pullback(ind, rd).into_iter().for_each(&mut push_rd);
                }
            }
        }

        // Propositions 4.2 and 4.3, plus IND composition. `i1`'s partners
        // are `(i2, fd)` for the two propositions and `(i2, COMPOSE)` for
        // composition; sorted, they follow the triple loop's order.
        const COMPOSE: usize = usize::MAX;
        let mut partners: Vec<(usize, usize)> = Vec::new();
        for (i, &i1) in index.inds.iter().enumerate() {
            partners.clear();
            if augmentation || opts.rd_rules {
                for &(f, g) in &index.images[i] {
                    partners.extend(index.groups[g].iter().map(|&j| (j, f)));
                }
            }
            if composition {
                let chained = index.by_lhs_rel.get(&i1.rhs_rel).into_iter().flatten();
                partners.extend(chained.map(|&j| (j, COMPOSE)));
            }
            partners.sort_unstable();
            for &(j, f) in &partners {
                let i2 = index.inds[j];
                if f == COMPOSE {
                    if let Some(ind) = compose_inds(i1, i2) {
                        push_ind(ind);
                    }
                    continue;
                }
                if augmentation {
                    if let Some(ind) = augment_ind(i1, i2, index.fds[f]) {
                        push_ind(ind);
                    }
                }
                if opts.rd_rules {
                    derive_rds(i1, i2, index.fds[f])
                        .into_iter()
                        .for_each(&mut push_rd);
                }
            }
        }
        (new_fds, new_inds, new_rds)
    }

    /// Decide whether the saturated set implies `dep`. Sound; incomplete in
    /// general (see module docs). Call [`Saturator::saturate`] first — the
    /// compiled engines it builds make each query engine-construction-free
    /// (queries before saturation, or after `add`, build throwaway engines).
    pub fn implies(&self, dep: &Dependency) -> bool {
        if dep.is_trivial() {
            return true;
        }
        match dep {
            Dependency::Fd(f) => match &self.engines {
                Some(e) => e
                    .fd_by_rel
                    .get(&f.rel)
                    .is_some_and(|engine| engine.implies(f)),
                None => {
                    let fds: Vec<Fd> = self.fds.iter().cloned().collect();
                    FdEngine::new(f.rel.clone(), &fds).implies(f)
                }
            },
            Dependency::Ind(i) => match &self.engines {
                Some(e) => e.ind.implies(i),
                None => {
                    let inds: Vec<Ind> = self.inds.iter().cloned().collect();
                    IndSolver::new(&inds).implies(i)
                }
            },
            Dependency::Rd(r) => r
                .unary_decomposition()
                .into_iter()
                .all(|u| self.rds.contains(&u.canonical())),
            Dependency::Emvd(_) => false,
        }
    }

    /// All materialized dependencies.
    pub fn derived(&self) -> Vec<Dependency> {
        let mut out: Vec<Dependency> = Vec::new();
        out.extend(self.fds.iter().cloned().map(Dependency::from));
        out.extend(self.inds.iter().cloned().map(Dependency::from));
        out.extend(self.rds.iter().cloned().map(Dependency::from));
        out
    }
}

/// RD transitivity as a union–find over interned attribute ids: one
/// catalog per relation, constant-ish work per union, then one pass per
/// equivalence class to emit the missing pairs.
pub(crate) fn rd_transitive_closure(rds: &BTreeSet<Rd>) -> Vec<Rd> {
    let mut per_rel: BTreeMap<RelName, (Catalog, DenseUnionFind)> = BTreeMap::new();
    for rd in rds {
        let (cat, uf) = per_rel
            .entry(rd.rel.clone())
            .or_insert_with(|| (Catalog::new(), DenseUnionFind::default()));
        let a = cat.intern_attr(&rd.lhs.attrs()[0]);
        let b = cat.intern_attr(&rd.rhs.attrs()[0]);
        uf.ensure(cat.attr_count());
        uf.union(a, b);
    }
    let mut out = Vec::new();
    for (rel, (cat, mut uf)) in per_rel {
        // Group ids by root.
        let mut classes: HashMap<u32, Vec<AttrId>> = HashMap::new();
        for i in 0..cat.attr_count() {
            let id = AttrId::from_index(i);
            classes.entry(uf.find(id)).or_default().push(id);
        }
        for group in classes.values() {
            for (i, &x) in group.iter().enumerate() {
                for &y in &group[i + 1..] {
                    let rd = Rd::new(
                        rel.clone(),
                        AttrSeq::new(vec![cat.resolve_attr(x)]).expect("single"),
                        AttrSeq::new(vec![cat.resolve_attr(y)]).expect("single"),
                    )
                    .expect("unary")
                    .canonical();
                    if !rds.contains(&rd) {
                        out.push(rd);
                    }
                }
            }
        }
    }
    out
}

/// A minimal union–find over dense [`AttrId`]s (path-halving find, union by
/// attachment order), sized on demand by [`DenseUnionFind::ensure`].
#[derive(Debug, Clone, Default)]
struct DenseUnionFind {
    parent: Vec<u32>,
}

impl DenseUnionFind {
    /// Grow to cover ids `0..n`, each new id its own class.
    fn ensure(&mut self, n: usize) {
        let old = self.parent.len();
        self.parent.extend(old as u32..n as u32);
    }

    fn find(&mut self, id: AttrId) -> u32 {
        let mut x = id.index() as u32;
        while self.parent[x as usize] != x {
            let grand = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grand;
            x = grand;
        }
        x
    }

    fn union(&mut self, a: AttrId, b: AttrId) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb as usize] = ra;
        }
    }
}

/// IND3 with an inline IND2: compose `R[X] ⊆ S[Y]` with `S[Y'] ⊆ T[Z]`
/// whenever every attribute of `Y` occurs in `Y'`, producing
/// `R[X] ⊆ T[Z∘map]`.
pub fn compose_inds(i1: &Ind, i2: &Ind) -> Option<Ind> {
    if i1.rhs_rel != i2.lhs_rel {
        return None;
    }
    let mapped: Option<Vec<Attr>> = i1
        .rhs_attrs
        .attrs()
        .iter()
        .map(|a| {
            i2.lhs_attrs
                .position(a)
                .map(|p| i2.rhs_attrs.attrs()[p].clone())
        })
        .collect();
    let rhs = AttrSeq::new(mapped?).expect("injective mapping of distinct attrs");
    Some(
        Ind::new(
            i1.lhs_rel.clone(),
            i1.lhs_attrs.clone(),
            i2.rhs_rel.clone(),
            rhs,
        )
        .expect("lengths equal"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use depkit_core::parser::parse_dependency;

    fn fd(src: &str) -> Fd {
        match parse_dependency(src).unwrap() {
            Dependency::Fd(f) => f,
            _ => panic!("not an FD"),
        }
    }

    fn ind(src: &str) -> Ind {
        match parse_dependency(src).unwrap() {
            Dependency::Ind(i) => i,
            _ => panic!("not an IND"),
        }
    }

    #[test]
    fn proposition_4_1_literal() {
        // {R[X Y] ⊆ S[T U], S: T -> U} ⊨ R: X -> Y.
        let i = ind("R[X, Y] <= S[T, U]");
        let f = fd("S: T -> U");
        let got = pullback_fd(&i, &f).unwrap();
        assert_eq!(got.to_string(), "R: X -> Y");
    }

    #[test]
    fn proposition_4_1_with_permutation() {
        // FD attributes scattered in the IND's right side.
        let i = ind("R[A, B, C] <= S[U, T, W]");
        let f = fd("S: T -> U");
        let got = pullback_fd(&i, &f).unwrap();
        assert_eq!(got.to_string(), "R: B -> A");
    }

    #[test]
    fn proposition_4_1_requires_coverage() {
        let i = ind("R[A] <= S[T]");
        let f = fd("S: T -> U"); // U not in the IND's right side
        assert!(pullback_fd(&i, &f).is_none());
    }

    #[test]
    fn proposition_4_2_literal() {
        // {R[X Y] ⊆ S[T U], R[X Z] ⊆ S[T V], S: T -> U} ⊨ R[X Y Z] ⊆ S[T U V].
        let i1 = ind("R[X, Y] <= S[T, U]");
        let i2 = ind("R[X, Z] <= S[T, V]");
        let f = fd("S: T -> U");
        let got = augment_ind(&i1, &i2, &f).unwrap();
        assert_eq!(got.to_string(), "R[X, Y, Z] <= S[T, U, V]");
    }

    #[test]
    fn proposition_4_2_requires_same_x() {
        let i1 = ind("R[X, Y] <= S[T, U]");
        let i2 = ind("R[W, Z] <= S[T, V]");
        let f = fd("S: T -> U");
        assert!(augment_ind(&i1, &i2, &f).is_none());
    }

    #[test]
    fn proposition_4_3_literal() {
        // {R[X Y] ⊆ S[T U], R[X Z] ⊆ S[T U], S: T -> U} ⊨ R[Y = Z].
        let i1 = ind("R[X, Y] <= S[T, U]");
        let i2 = ind("R[X, Z] <= S[T, U]");
        let f = fd("S: T -> U");
        let rds = derive_rds(&i1, &i2, &f);
        assert_eq!(rds.len(), 1);
        assert_eq!(rds[0].to_string(), "R[Y = Z]");
    }

    #[test]
    fn rd_pullback_through_ind() {
        let i = ind("R[A, B] <= S[C, D]");
        let rd = Rd::new(
            "S",
            depkit_core::attr::attrs(&["C"]),
            depkit_core::attr::attrs(&["D"]),
        )
        .unwrap();
        let got = rd_pullback(&i, &rd);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].to_string(), "R[A = B]");
    }

    #[test]
    fn compose_with_projection() {
        let i1 = ind("R[A] <= S[C]");
        let i2 = ind("S[C, D] <= T[E, F]");
        let got = compose_inds(&i1, &i2).unwrap();
        assert_eq!(got.to_string(), "R[A] <= T[E]");
    }

    #[test]
    fn saturator_derives_proposition_chain() {
        // From the manager example: MGR[N, D] ⊆ EMP[N, D] and EMP: N -> D
        // should yield MGR: N -> D by Proposition 4.1.
        let deps: Vec<Dependency> = vec![
            parse_dependency("MGR[N, D] <= EMP[N, D]").unwrap(),
            parse_dependency("EMP: N -> D").unwrap(),
        ];
        let mut sat = Saturator::new(&deps);
        sat.saturate();
        assert!(!sat.truncated());
        assert!(sat.implies(&parse_dependency("MGR: N -> D").unwrap()));
        assert!(!sat.implies(&parse_dependency("EMP[N] <= MGR[N]").unwrap()));
    }

    #[test]
    fn saturator_derives_rd_and_its_fds() {
        let deps: Vec<Dependency> = vec![
            parse_dependency("R[X, Y] <= S[T, U]").unwrap(),
            parse_dependency("R[X, Z] <= S[T, U]").unwrap(),
            parse_dependency("S: T -> U").unwrap(),
        ];
        let mut sat = Saturator::new(&deps);
        sat.saturate();
        assert!(sat.implies(&parse_dependency("R[Y = Z]").unwrap()));
        // RD implies both FDs.
        assert!(sat.implies(&parse_dependency("R: Y -> Z").unwrap()));
        assert!(sat.implies(&parse_dependency("R: Z -> Y").unwrap()));
    }

    #[test]
    fn saturator_rd_transitivity() {
        let deps: Vec<Dependency> = vec![
            parse_dependency("R[A = B]").unwrap(),
            parse_dependency("R[B = C]").unwrap(),
        ];
        let mut sat = Saturator::new(&deps);
        sat.saturate();
        assert!(sat.implies(&parse_dependency("R[A = C]").unwrap()));
        assert!(sat.implies(&parse_dependency("R[C = A]").unwrap()));
    }

    #[test]
    fn ablation_disabling_pullback_loses_proposition_4_1() {
        let deps: Vec<Dependency> = vec![
            parse_dependency("MGR[N, D] <= EMP[N, D]").unwrap(),
            parse_dependency("EMP: N -> D").unwrap(),
        ];
        let mut sat = Saturator::with_options(
            &deps,
            SaturationLimits::default(),
            SaturationOptions {
                pullback: false,
                ..SaturationOptions::default()
            },
        );
        sat.saturate();
        assert!(!sat.implies(&parse_dependency("MGR: N -> D").unwrap()));
    }

    #[test]
    fn ablation_disabling_composition_loses_transitive_feeding() {
        // Proposition 4.1 through a COMPOSED IND: needs composition on.
        let deps: Vec<Dependency> = vec![
            parse_dependency("A[X] <= B[Y]").unwrap(),
            parse_dependency("B[Y] <= C[Z]").unwrap(),
        ];
        let target = parse_dependency("A[X] <= C[Z]").unwrap();
        // The IndSolver inside `implies` handles IND3 regardless, so the
        // materialized set is what differs: with composition the composed
        // IND is materialized, without it only the originals are.
        let mut with = Saturator::new(&deps);
        with.saturate();
        assert!(with.inds().iter().any(|i| i.to_string() == "A[X] <= C[Z]"));
        let mut without = Saturator::with_options(
            &deps,
            SaturationLimits::default(),
            SaturationOptions {
                composition: false,
                ..SaturationOptions::default()
            },
        );
        without.saturate();
        assert!(!without
            .inds()
            .iter()
            .any(|i| i.to_string() == "A[X] <= C[Z]"));
        // Queries still answer via IND1-3 (the solver is complete for
        // INDs alone) — the ablation affects rule feeding, not queries.
        assert!(without.implies(&target));
    }

    #[test]
    fn ablation_disabling_rd_rules_loses_proposition_4_3() {
        let deps: Vec<Dependency> = vec![
            parse_dependency("R[X, Y] <= S[T, U]").unwrap(),
            parse_dependency("R[X, Z] <= S[T, U]").unwrap(),
            parse_dependency("S: T -> U").unwrap(),
        ];
        let mut sat = Saturator::with_options(
            &deps,
            SaturationLimits::default(),
            SaturationOptions {
                rd_rules: false,
                ..SaturationOptions::default()
            },
        );
        sat.saturate();
        assert!(!sat.implies(&parse_dependency("R[Y = Z]").unwrap()));
    }

    #[test]
    fn saturator_is_idempotent() {
        let deps: Vec<Dependency> = vec![
            parse_dependency("R[A] <= S[B]").unwrap(),
            parse_dependency("S: B -> C").unwrap(),
        ];
        let mut sat = Saturator::new(&deps);
        sat.saturate();
        let before = sat.derived();
        sat.saturate();
        assert_eq!(before, sat.derived());
    }
}
