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

use crate::fd::FdClosure;
use crate::ind::IndGraph;
use depkit_core::attr::{Attr, AttrSeq};
use depkit_core::dependency::{Dependency, Fd, Ind, Rd};
use depkit_core::hashing::{FastMap, FastSet};
use depkit_core::intern::{AttrId, Catalog, IdSeq, RelId};
use depkit_core::schema::RelName;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;
use std::sync::OnceLock;

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
/// Armstrong reasoning (via [`FdEngine`]'s closure at query time),
/// IND1–IND3 (via [`IndSolver`]'s search at query time, plus explicit
/// composition so the Section 4 rules can fire on composed INDs),
/// Propositions 4.1/4.2/4.3, RD symmetry/transitivity, RD-to-FD
/// conversion, and RD pullback through INDs.
///
/// It derives on ids, not names: construction interns every relation and
/// attribute name of the input in sorted order and compiles each
/// dependency to an id record (relation ids and attribute-id sequences)
/// that sorts exactly as its dependency does. The string sets behind
/// [`Saturator::fds`], [`Saturator::inds`], [`Saturator::rds`] and
/// [`Saturator::derived`] are resolved from the records on first ask.
///
/// [`FdEngine`]: crate::fd::FdEngine
/// [`IndSolver`]: crate::ind::IndSolver
#[derive(Debug, Clone)]
pub struct Saturator {
    /// Every name of the materialized dependencies, interned in sorted
    /// order (see [`name_ordered_catalog`]).
    catalog: Catalog,
    /// The materialized sets on `catalog`'s ids, with the caps, the flags
    /// and the query engines.
    core: IdSaturation,
    /// The materialized sets as names, resolved on first ask and dropped
    /// whenever the sets change.
    named: OnceLock<NamedSets>,
}

/// The string form of a [`Saturator`]'s materialized sets.
#[derive(Debug, Clone)]
struct NamedSets {
    fds: BTreeSet<Fd>,
    inds: BTreeSet<Ind>,
    rds: BTreeSet<Rd>,
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
        let catalog = name_ordered_catalog(deps);
        let core = IdSaturation::new(intern_all(&catalog, deps), &catalog, limits, options);
        Saturator {
            catalog,
            core,
            named: OnceLock::new(),
        }
    }

    /// Whether saturation hit a resource cap (results remain sound but may
    /// be weaker).
    pub fn truncated(&self) -> bool {
        self.core.truncated
    }

    /// The materialized FDs.
    pub fn fds(&self) -> &BTreeSet<Fd> {
        &self.named().fds
    }

    /// The materialized INDs.
    pub fn inds(&self) -> &BTreeSet<Ind> {
        &self.named().inds
    }

    /// The materialized unary RDs.
    pub fn rds(&self) -> &BTreeSet<Rd> {
        &self.named().rds
    }

    fn named(&self) -> &NamedSets {
        self.named.get_or_init(|| {
            let (cat, sets) = (&self.catalog, &self.core.sets);
            NamedSets {
                fds: sets.fds.iter().map(|f| f.resolve(cat)).collect(),
                inds: sets.inds.iter().map(|i| i.resolve(cat)).collect(),
                rds: sets.rds.iter().map(|r| r.resolve(cat)).collect(),
            }
        })
    }

    /// Insert a dependency discovered externally (e.g. by the finite-
    /// implication counting rule) and mark the engine for re-saturation.
    /// Returns whether anything new was added.
    pub fn add(&mut self, dep: &Dependency) -> bool {
        let id = match intern_dep(&self.catalog, dep) {
            Some(id) => id,
            None => {
                self.adopt_names(dep);
                intern_dep(&self.catalog, dep).expect("the catalog now holds every name of `dep`")
            }
        };
        let added = self.core.insert(&id);
        if added {
            self.named = OnceLock::new();
        }
        added
    }

    /// Re-intern the materialized sets together with `dep`'s names, so
    /// that ids keep ascending with names.
    fn adopt_names(&mut self, dep: &Dependency) {
        let kept = self.derived();
        self.catalog = name_ordered_catalog(kept.iter().chain([dep]));
        self.core
            .rebase(intern_all(&self.catalog, &kept), &self.catalog);
    }

    /// Run rules to a fixpoint (or until a cap is reached).
    ///
    /// Rounds derive on the id records of the materialized sets and join
    /// only premises that can fire. A per-round join index groups the FDs
    /// and RDs by relation id and computes, once, each IND's image of each
    /// FD's left side (the `X` of Proposition 4.2, or nothing when that
    /// left side is not all on the IND's right side). Propositions 4.2 and
    /// 4.3 then run only on IND pairs with the same pair of relations and
    /// the same image, composition only on pairs that chain, and FD/RD
    /// pullback only through INDs whose right relation the FD or RD
    /// constrains. After the first round of a run, the FD and IND rules
    /// join only premises with a member the previous round added; the
    /// others would re-derive members already there.
    ///
    /// **Derivation order is part of the determinism contract.** Once a
    /// cap is hit, the order in which a round emits its derivations
    /// decides which of them are materialized, and so what every later
    /// query answers (cover minimization prints the result). A round
    /// emits in the order of the plain triple loop kept as
    /// [`crate::reference::saturate`]: IND `i1`, then `i2`, both in set
    /// order; for each pair the FDs in set order, then composition. Names
    /// are interned in sorted order, so the id records iterate in the
    /// string sets' order. What the round skips could not change the
    /// sets: triples that derive nothing or only members already there,
    /// a class at its cap once the run has truncated, and the rest of a
    /// class's derivations once it has emitted the member its cap turns
    /// away. So the materialized sets are the triple loop's by
    /// construction; `tests/compiled_vs_reference.rs` checks them under
    /// caps that truncate, on names whose sorted order differs from their
    /// order of first appearance.
    pub fn saturate(&mut self) {
        if self.core.run() {
            self.named = OnceLock::new();
        }
    }

    /// Decide whether the materialized set implies `dep`. Sound;
    /// incomplete in general (see module docs). Call
    /// [`Saturator::saturate`] first. A query compiles the engine it needs
    /// (the FD closure of the target's relation, or the IND graph) from
    /// the materialized sets once, and later queries reuse it until the
    /// sets change.
    pub fn implies(&self, dep: &Dependency) -> bool {
        if dep.is_trivial() {
            return true;
        }
        self.intern_target(dep)
            .is_some_and(|target| self.core.implies(&target))
    }

    /// A non-trivial query target on the catalog's ids, or `None` when a
    /// name the catalog lacks makes it underivable. An FD attribute no
    /// dependency mentions is in a closure iff the closure starts from it,
    /// so unknown left attributes are dropped and an unknown right one
    /// must also be on the left.
    fn intern_target(&self, dep: &Dependency) -> Option<IdDep> {
        let Dependency::Fd(f) = dep else {
            return intern_dep(&self.catalog, dep);
        };
        let known = |a: &Attr| self.catalog.attr_id(a);
        if f.rhs
            .attrs()
            .iter()
            .any(|a| known(a).is_none() && !f.lhs.contains_attr(a))
        {
            return None;
        }
        Some(IdDep::Fd(IdFd {
            rel: self.catalog.rel_id(&f.rel)?,
            lhs: f.lhs.attrs().iter().filter_map(known).collect(),
            rhs: f.rhs.attrs().iter().filter_map(known).collect(),
        }))
    }

    /// All materialized dependencies.
    pub fn derived(&self) -> Vec<Dependency> {
        let named = self.named();
        let mut out: Vec<Dependency> = Vec::new();
        out.extend(named.fds.iter().cloned().map(Dependency::from));
        out.extend(named.inds.iter().cloned().map(Dependency::from));
        out.extend(named.rds.iter().cloned().map(Dependency::from));
        out
    }
}

// ---------------------------------------------------------------------------
// Id records: the saturator's working representation
// ---------------------------------------------------------------------------

/// An FD `rel: lhs → rhs` on the ids of a name-ordered catalog (see
/// [`name_ordered_catalog`]). Its fields are [`Fd`]'s, in [`Fd`]'s order,
/// and ids ascend with names, so records sort exactly as their FDs do.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct IdFd {
    pub(crate) rel: RelId,
    pub(crate) lhs: IdSeq,
    pub(crate) rhs: IdSeq,
}

/// An IND `lhs_rel[lhs] ⊆ rhs_rel[rhs]` on name-ordered ids; it sorts as
/// its [`Ind`] does.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct IdInd {
    pub(crate) lhs_rel: RelId,
    pub(crate) lhs: IdSeq,
    pub(crate) rhs_rel: RelId,
    pub(crate) rhs: IdSeq,
}

/// A canonical unary RD `rel[lhs = rhs]` on name-ordered ids, `lhs < rhs`
/// as [`Rd::canonical`] orders the names; it sorts as its [`Rd`] does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct IdRd {
    pub(crate) rel: RelId,
    pub(crate) lhs: AttrId,
    pub(crate) rhs: AttrId,
}

/// A dependency compiled onto a name-ordered catalog.
#[derive(Debug, Clone)]
pub(crate) enum IdDep {
    Fd(IdFd),
    Ind(IdInd),
    /// An RD as its canonical unary decomposition.
    Rd(Vec<IdRd>),
    /// An EMVD: never materialized, never implied.
    Emvd,
}

impl IdFd {
    fn is_trivial(&self) -> bool {
        self.rhs.ids().iter().all(|a| self.lhs.ids().contains(a))
    }

    fn resolve(&self, cat: &Catalog) -> Fd {
        Fd::new(
            cat.resolve_rel(self.rel),
            cat.resolve_attrs(&self.lhs),
            cat.resolve_attrs(&self.rhs),
        )
    }
}

impl IdInd {
    fn is_trivial(&self) -> bool {
        self.lhs_rel == self.rhs_rel && self.lhs == self.rhs
    }

    fn resolve(&self, cat: &Catalog) -> Ind {
        Ind::new(
            cat.resolve_rel(self.lhs_rel),
            cat.resolve_attrs(&self.lhs),
            cat.resolve_rel(self.rhs_rel),
            cat.resolve_attrs(&self.rhs),
        )
        .expect("an IND record has two nonempty sides of one length")
    }
}

impl IdRd {
    /// The canonical record of `rel[a = b]`, or `None` when `a = b`.
    fn new(rel: RelId, a: AttrId, b: AttrId) -> Option<IdRd> {
        (a != b).then(|| IdRd {
            rel,
            lhs: a.min(b),
            rhs: a.max(b),
        })
    }

    fn resolve(&self, cat: &Catalog) -> Rd {
        let single = |a: AttrId| AttrSeq::new(vec![cat.resolve_attr(a)]).expect("single attr");
        Rd::new(
            cat.resolve_rel(self.rel),
            single(self.lhs),
            single(self.rhs),
        )
        .expect("unary")
    }
}

/// A catalog of every relation name and attribute of `deps`' FDs, INDs
/// and RDs, each interned in sorted order. Ids then ascend with names, so
/// an id record sorts exactly as its dependency, and a saturation on the
/// records emits in the order the determinism contract pins. (First-seen
/// ids would order `A10` before `A9` or after it depending on the input.)
pub(crate) fn name_ordered_catalog<'a>(deps: impl IntoIterator<Item = &'a Dependency>) -> Catalog {
    let mut rels: BTreeSet<&RelName> = BTreeSet::new();
    let mut attrs: BTreeSet<&Attr> = BTreeSet::new();
    for d in deps {
        match d {
            Dependency::Fd(f) => {
                rels.insert(&f.rel);
                attrs.extend(f.lhs.attrs().iter().chain(f.rhs.attrs()));
            }
            Dependency::Ind(i) => {
                rels.extend([&i.lhs_rel, &i.rhs_rel]);
                attrs.extend(i.lhs_attrs.attrs().iter().chain(i.rhs_attrs.attrs()));
            }
            Dependency::Rd(r) => {
                rels.insert(&r.rel);
                attrs.extend(r.lhs.attrs().iter().chain(r.rhs.attrs()));
            }
            Dependency::Emvd(_) => {}
        }
    }
    let mut cat = Catalog::new();
    for r in rels {
        cat.intern_rel(r);
    }
    for a in attrs {
        cat.intern_attr(a);
    }
    cat
}

/// `dep` on `cat`'s ids, or `None` when `cat` lacks one of its names.
pub(crate) fn intern_dep(cat: &Catalog, dep: &Dependency) -> Option<IdDep> {
    Some(match dep {
        Dependency::Fd(f) => IdDep::Fd(IdFd {
            rel: cat.rel_id(&f.rel)?,
            lhs: cat.lookup_attrs(&f.lhs)?,
            rhs: cat.lookup_attrs(&f.rhs)?,
        }),
        Dependency::Ind(i) => IdDep::Ind(IdInd {
            lhs_rel: cat.rel_id(&i.lhs_rel)?,
            lhs: cat.lookup_attrs(&i.lhs_attrs)?,
            rhs_rel: cat.rel_id(&i.rhs_rel)?,
            rhs: cat.lookup_attrs(&i.rhs_attrs)?,
        }),
        Dependency::Rd(r) => {
            let rel = cat.rel_id(&r.rel)?;
            let mut units = Vec::new();
            // `Rd::unary_decomposition`: positions naming one attribute twice are trivial.
            for (a, b) in r.lhs.attrs().iter().zip(r.rhs.attrs()) {
                if a != b {
                    units.extend(IdRd::new(rel, cat.attr_id(a)?, cat.attr_id(b)?));
                }
            }
            IdDep::Rd(units)
        }
        Dependency::Emvd(_) => IdDep::Emvd,
    })
}

/// The sets `deps` materialize on `cat`, which must hold all their names.
fn intern_all(cat: &Catalog, deps: &[Dependency]) -> IdSets {
    let mut sets = IdSets::default();
    for d in deps {
        sets.insert(&intern_dep(cat, d).expect("the catalog holds every name of `deps`"));
    }
    sets
}

/// The materialized sets of one saturation, as id records; each set
/// iterates in its string set's order.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdSets {
    fds: BTreeSet<IdFd>,
    inds: BTreeSet<IdInd>,
    rds: BTreeSet<IdRd>,
}

impl IdSets {
    /// Add `dep`'s records; whether any of them was new.
    pub(crate) fn insert(&mut self, dep: &IdDep) -> bool {
        match dep {
            IdDep::Fd(f) => self.fds.insert(f.clone()),
            IdDep::Ind(i) => self.inds.insert(i.clone()),
            IdDep::Rd(units) => units.iter().fold(false, |any, &u| self.rds.insert(u) | any),
            IdDep::Emvd => false,
        }
    }
}

/// One Section 4 saturation on id records: the engine behind
/// [`Saturator`], which cover minimization also runs directly, once per
/// candidate remainder, on records it interned once.
#[derive(Debug, Clone)]
pub(crate) struct IdSaturation {
    sets: IdSets,
    /// Relation and attribute counts of the catalog the records use.
    n_rels: usize,
    n_attrs: usize,
    limits: SaturationLimits,
    options: SaturationOptions,
    truncated: bool,
    saturated: bool,
    /// Query engines over `sets`, each compiled on first use and dropped
    /// whenever `sets` change.
    engines: QueryEngines,
}

/// The FDs and INDs one saturation round added.
#[derive(Debug, Default)]
struct Fresh {
    fds: BTreeSet<IdFd>,
    inds: BTreeSet<IdInd>,
}

/// The query engines of an [`IdSaturation`], each compiled on first use:
/// per relation id the closure of the FDs about it, and the IND graph.
#[derive(Debug, Clone)]
struct QueryEngines {
    fd_by_rel: Vec<OnceLock<FdClosure>>,
    ind: OnceLock<IndGraph>,
}

impl QueryEngines {
    fn new(n_rels: usize) -> Self {
        QueryEngines {
            fd_by_rel: (0..n_rels).map(|_| OnceLock::new()).collect(),
            ind: OnceLock::new(),
        }
    }
}

impl IdSaturation {
    /// A saturation starting from `sets`, whose records use `cat`'s ids.
    pub(crate) fn new(
        sets: IdSets,
        cat: &Catalog,
        limits: SaturationLimits,
        options: SaturationOptions,
    ) -> Self {
        IdSaturation {
            sets,
            n_rels: cat.rel_count(),
            n_attrs: cat.attr_count(),
            limits,
            options,
            truncated: false,
            saturated: false,
            engines: QueryEngines::new(cat.rel_count()),
        }
    }

    /// Add `dep`'s records, marking the sets for re-saturation if any was
    /// new; whether any was.
    fn insert(&mut self, dep: &IdDep) -> bool {
        let added = self.sets.insert(dep);
        if added {
            self.saturated = false;
            self.engines = QueryEngines::new(self.n_rels);
        }
        added
    }

    /// Replace the records by the same sets on the ids of `cat`.
    fn rebase(&mut self, sets: IdSets, cat: &Catalog) {
        self.sets = sets;
        self.n_rels = cat.rel_count();
        self.n_attrs = cat.attr_count();
        self.engines = QueryEngines::new(self.n_rels);
    }

    /// Run rules to a fixpoint or a cap (see [`Saturator::saturate`]);
    /// whether it ran at all (a saturated run is left as it is).
    pub(crate) fn run(&mut self) -> bool {
        if self.saturated {
            return false;
        }
        self.engines = QueryEngines::new(self.n_rels);
        let mut fresh: Option<Fresh> = None;
        for _round in 0..self.limits.max_rounds {
            let (new_fds, new_inds, new_rds) = self.derive_round(fresh.as_ref());
            let mut added = Fresh::default();
            for f in new_fds {
                if self.sets.fds.len() >= self.limits.max_fds {
                    self.truncated = true;
                    break;
                }
                if self.sets.fds.insert(f.clone()) {
                    added.fds.insert(f);
                }
            }
            for i in new_inds {
                if self.sets.inds.len() >= self.limits.max_inds {
                    self.truncated = true;
                    break;
                }
                if self.sets.inds.insert(i.clone()) {
                    added.inds.insert(i);
                }
            }
            let mut changed = !(added.fds.is_empty() && added.inds.is_empty());
            for r in new_rds {
                changed |= self.sets.rds.insert(r);
            }
            fresh = Some(added);
            if !changed {
                self.saturated = true;
                break;
            }
        }
        if !self.saturated {
            self.truncated = true;
        }
        true
    }

    /// Whether the materialized sets imply `dep`: the closure of the FDs
    /// about an FD target's relation, the IND graph for an IND target,
    /// membership for the unary RDs of an RD target.
    pub(crate) fn implies(&self, dep: &IdDep) -> bool {
        match dep {
            IdDep::Fd(f) => self.engines.fd_by_rel[f.rel.index()]
                .get_or_init(|| {
                    let about = self.sets.fds.iter().filter(|g| g.rel == f.rel);
                    let sides = about.map(|g| (g.lhs.clone(), g.rhs.clone()));
                    FdClosure::new(self.n_attrs, sides)
                })
                .implies_masked(&f.lhs, &f.rhs, |_| false),
            IdDep::Ind(i) => self
                .engines
                .ind
                .get_or_init(|| {
                    let members = (self.sets.inds.iter().enumerate())
                        .map(|(k, i)| (k, i.lhs_rel, i.lhs.clone(), i.rhs_rel, i.rhs.clone()));
                    IndGraph::new(self.n_rels, self.n_attrs, members)
                })
                .implies_masked((i.lhs_rel, &i.lhs), (i.rhs_rel, &i.rhs), |_| false),
            IdDep::Rd(units) => units.iter().all(|u| self.sets.rds.contains(u)),
            IdDep::Emvd => false,
        }
    }

    /// One round's new FDs, INDs and RDs, each in emission order (see
    /// [`Saturator::saturate`]), derived from the current sets.
    ///
    /// `fresh` holds the FDs and INDs the previous round of this run
    /// added (`None` in its first round). A triple of premises that were
    /// all there before the previous round was joined by it, and its
    /// conclusion was added then — unless a cap stopped the additions, and
    /// then the run has truncated and the class is closed. So the FD and
    /// IND rules join only premise tuples with a fresh member: the others
    /// would only re-derive members, which the round drops anyway.
    fn derive_round(&self, fresh: Option<&Fresh>) -> (Vec<IdFd>, Vec<IdInd>, Vec<IdRd>) {
        let (sets, opts) = (&self.sets, self.options);
        // Once the run has truncated, a class at its cap takes no new
        // member, so the rules that only derive members of it are not run:
        // their output could change neither the sets nor the flags.
        let fds_open = !(self.truncated && sets.fds.len() >= self.limits.max_fds);
        let inds_open = !(self.truncated && sets.inds.len() >= self.limits.max_inds);
        let (pullback, rd_to_fd) = (opts.pullback && fds_open, opts.rd_rules && fds_open);
        let augmentation = opts.augmentation && inds_open;
        let composition = opts.composition && inds_open;
        let mut new_fds = Emitted::new(self.limits.max_fds, &sets.fds);
        let mut new_inds = Emitted::new(self.limits.max_inds, &sets.inds);
        let mut new_rds: Vec<IdRd> = Vec::new();
        // RDs are never capped, so their emission order does not matter.
        let mut push_rd = |r: IdRd| {
            if !sets.rds.contains(&r) {
                new_rds.push(r);
            }
        };

        // RD transitivity, then RD -> FD.
        if opts.rd_rules {
            rd_transitive_closure_ids(&sets.rds, self.n_attrs, &mut push_rd);
        }
        if rd_to_fd {
            for rd in &sets.rds {
                let (a, b) = (IdSeq::from(vec![rd.lhs]), IdSeq::from(vec![rd.rhs]));
                new_fds.offer(IdFd {
                    rel: rd.rel,
                    lhs: a.clone(),
                    rhs: b.clone(),
                });
                new_fds.offer(IdFd {
                    rel: rd.rel,
                    lhs: b,
                    rhs: a,
                });
            }
        }

        let index = JoinIndex::build(sets, self.n_rels);
        let new_ind: Vec<bool> = (index.inds.iter())
            .map(|i| fresh.is_none_or(|fresh| fresh.inds.contains(*i)))
            .collect();
        let new_fd: Vec<bool> = (index.fds.iter())
            .map(|f| fresh.is_none_or(|fresh| fresh.fds.contains(*f)))
            .collect();
        for (i, &ind) in index.inds.iter().enumerate() {
            // Proposition 4.1 needs the FD's left side on `ind`'s right.
            if pullback {
                for &(f, _) in &index.images[i] {
                    if !(new_ind[i] || new_fd[f]) {
                        continue;
                    }
                    if let Some(fd) = pullback_fd_ids(ind, index.fds[f]) {
                        new_fds.offer(fd);
                    }
                }
            }
            // RD pullback.
            if opts.rd_rules {
                for &rd in &index.rds_by_rel[ind.rhs_rel.index()] {
                    rd_pullback_ids(ind, rd, &mut push_rd);
                }
            }
        }

        // Proposition 4.3 runs on any two INDs of one join group. RDs are
        // never capped, so deriving them a group at a time rather than a
        // pair at a time changes neither the sets nor the flags.
        if opts.rd_rules {
            for group in &index.groups {
                if new_fd[group.fd] || group.members.iter().any(|&m| new_ind[m]) {
                    derive_group_rds(&index, group, &mut push_rd);
                }
            }
        }
        // Proposition 4.2 and IND composition. `i1`'s partners are
        // `(i2, fd, group)` for the proposition and `(i2, COMPOSE, _)` for
        // composition; sorted, they follow the triple loop's order.
        const COMPOSE: usize = usize::MAX;
        let mut partners: Vec<(usize, usize, usize)> = Vec::new();
        let paired = if augmentation || composition {
            &index.inds[..]
        } else {
            &[]
        };
        'pairs: for (i, &i1) in paired.iter().enumerate() {
            partners.clear();
            if augmentation {
                for &(f, g) in &index.images[i] {
                    let any = new_ind[i] || new_fd[f];
                    let members = index.groups[g].members.iter();
                    partners.extend(members.filter(|&&j| any || new_ind[j]).map(|&j| (j, f, g)));
                }
            }
            if composition {
                let chained = index.by_lhs_rel[i1.rhs_rel.index()].iter();
                let joined = chained.filter(|&&j| new_ind[i] || new_ind[j]);
                partners.extend(joined.map(|&j| (j, COMPOSE, 0)));
            }
            partners.sort_unstable();
            for &(j, f, g) in &partners {
                let i2 = index.inds[j];
                if f == COMPOSE {
                    if let Some(ind) = compose_inds_ids(i1, i2) {
                        new_inds.offer(ind);
                    }
                } else {
                    let image = &index.groups[g].image;
                    new_inds.offer(augment_ind_ids(i1, i2, index.fds[f], image));
                }
                if new_inds.full() {
                    break 'pairs;
                }
            }
        }
        (new_fds.out, new_inds.out, new_rds)
    }
}

/// An FD or IND record, as a member of a capped class.
trait Member: Clone + Eq + Hash + Ord {
    fn is_trivial(&self) -> bool;
}

impl Member for IdFd {
    fn is_trivial(&self) -> bool {
        IdFd::is_trivial(self)
    }
}

impl Member for IdInd {
    fn is_trivial(&self) -> bool {
        IdInd::is_trivial(self)
    }
}

/// One round's new members of a capped class, in emission order, up to
/// the first one the cap turns away. The round adds them in that order
/// and stops there, so nothing emitted after it could change the sets or
/// the flags, and the round stops deriving the class once it is known.
struct Emitted<'a, T> {
    out: Vec<T>,
    /// The distinct members of `out`: only these fill the cap.
    distinct: FastSet<T>,
    /// How many more members the cap lets in.
    room: usize,
    materialized: &'a BTreeSet<T>,
}

impl<'a, T: Member> Emitted<'a, T> {
    fn new(cap: usize, materialized: &'a BTreeSet<T>) -> Self {
        Emitted {
            out: Vec::new(),
            distinct: FastSet::default(),
            room: cap.saturating_sub(materialized.len()),
            materialized,
        }
    }

    /// Whether a member already emitted will be turned away by the cap.
    fn full(&self) -> bool {
        self.distinct.len() > self.room
    }

    /// Emit `x`, unless it is trivial or materialized, or the class is
    /// [`Emitted::full`].
    fn offer(&mut self, x: T) {
        if self.full() || x.is_trivial() || self.materialized.contains(&x) {
            return;
        }
        self.distinct.insert(x.clone());
        self.out.push(x);
    }
}

/// One saturation round's join index over the materialized records:
/// which premises can meet in a rule at all. INDs and FDs are numbered in
/// set order, the order the round emits in.
struct JoinIndex<'a> {
    inds: Vec<&'a IdInd>,
    fds: Vec<&'a IdFd>,
    /// Per IND, the FDs on its right relation whose left side lies on the
    /// IND's right side, in FD order, each with the group of INDs that
    /// map that left side from the same attributes of the same relation.
    images: Vec<Vec<(usize, usize)>>,
    /// The IND groups: any two of a group's INDs are a pair
    /// Propositions 4.2 and 4.3 can fire on.
    groups: Vec<JoinGroup>,
    /// The INDs out of each relation id, in IND order: composition partners.
    by_lhs_rel: Vec<Vec<usize>>,
    /// The RDs on each relation id, in RD order.
    rds_by_rel: Vec<Vec<&'a IdRd>>,
}

/// The INDs, in IND order, that share one FD on their right relation,
/// one left relation, and one image of the FD's left side.
struct JoinGroup {
    fd: usize,
    /// The attributes the INDs map the FD's left side from, in its order.
    image: Vec<AttrId>,
    members: Vec<usize>,
}

impl<'a> JoinIndex<'a> {
    fn build(sets: &'a IdSets, n_rels: usize) -> Self {
        let fds: Vec<&IdFd> = sets.fds.iter().collect();
        let mut fds_by_rel: Vec<Vec<usize>> = vec![Vec::new(); n_rels];
        for (f, fd) in fds.iter().enumerate() {
            fds_by_rel[fd.rel.index()].push(f);
        }
        let mut rds_by_rel: Vec<Vec<&IdRd>> = vec![Vec::new(); n_rels];
        for rd in &sets.rds {
            rds_by_rel[rd.rel.index()].push(rd);
        }
        let inds: Vec<&IdInd> = sets.inds.iter().collect();
        let mut by_lhs_rel: Vec<Vec<usize>> = vec![Vec::new(); n_rels];
        let mut group_of: FastMap<(usize, RelId, Vec<AttrId>), usize> = FastMap::default();
        let mut groups: Vec<JoinGroup> = Vec::new();
        let mut images = Vec::with_capacity(inds.len());
        for (i, ind) in inds.iter().enumerate() {
            by_lhs_rel[ind.lhs_rel.index()].push(i);
            let mut own = Vec::new();
            for &f in &fds_by_rel[ind.rhs_rel.index()] {
                let Some(image) = preimage_ids(ind, fds[f].lhs.ids()) else {
                    continue;
                };
                let g =
                    *group_of
                        .entry((f, ind.lhs_rel, image))
                        .or_insert_with_key(|(_, _, image)| {
                            groups.push(JoinGroup {
                                fd: f,
                                image: image.clone(),
                                members: Vec::new(),
                            });
                            groups.len() - 1
                        });
                groups[g].members.push(i);
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

// The rule functions above, on id records: each mirrors its string
// counterpart step for step (the string ones stay as the oracle that
// `reference::saturate` runs).

/// [`preimage`] on ids.
fn preimage_ids(ind: &IdInd, attrs: &[AttrId]) -> Option<Vec<AttrId>> {
    attrs
        .iter()
        .map(|&a| ind.rhs.position(a).map(|p| ind.lhs.ids()[p]))
        .collect()
}

/// [`pullback_fd`] on ids.
fn pullback_fd_ids(ind: &IdInd, fd: &IdFd) -> Option<IdFd> {
    if fd.rel != ind.rhs_rel {
        return None;
    }
    let x = preimage_ids(ind, fd.lhs.ids())?;
    let rest: Vec<AttrId> = (fd.rhs.ids().iter())
        .filter(|a| !fd.lhs.ids().contains(a))
        .copied()
        .collect();
    let y = preimage_ids(ind, &rest)?;
    Some(IdFd {
        rel: ind.lhs_rel,
        lhs: x.into(),
        rhs: y.into(),
    })
}

/// [`augment_ind`] on ids, for two INDs of one join group: they relate
/// the same two relations, `fd` speaks about the right one, and both map
/// its left side from `image`, which is where the conclusion starts.
fn augment_ind_ids(i1: &IdInd, i2: &IdInd, fd: &IdFd, image: &[AttrId]) -> IdInd {
    let t = fd.lhs.ids();
    let (mut lhs, mut rhs) = (image.to_vec(), t.to_vec());
    let mut push_pair = |l: AttrId, r: AttrId| {
        if !lhs.contains(&l) && !rhs.contains(&r) {
            lhs.push(l);
            rhs.push(r);
        }
    };
    // (Y, U): i1's non-T columns whose right attribute lies in fd.rhs.
    for (p, r) in i1.rhs.ids().iter().enumerate() {
        if !t.contains(r) && fd.rhs.ids().contains(r) {
            push_pair(i1.lhs.ids()[p], *r);
        }
    }
    // (Z, V): i2's non-T columns, unconditionally.
    for (p, r) in i2.rhs.ids().iter().enumerate() {
        if !t.contains(r) {
            push_pair(i2.lhs.ids()[p], *r);
        }
    }
    IdInd {
        lhs_rel: i1.lhs_rel,
        lhs: lhs.into(),
        rhs_rel: i1.rhs_rel,
        rhs: rhs.into(),
    }
}

/// [`derive_rds`] on every pair of one join group at once, handing each
/// RD to `push`: for each attribute `u` of the FD's right side outside
/// its left side, the group's INDs that have `u` on their right side map
/// it from attributes that must all be equal.
fn derive_group_rds(index: &JoinIndex<'_>, group: &JoinGroup, push: &mut impl FnMut(IdRd)) {
    let fd = index.fds[group.fd];
    let rel = index.inds[group.members[0]].lhs_rel;
    let mut from: Vec<AttrId> = Vec::new();
    for &u in fd.rhs.ids() {
        if fd.lhs.ids().contains(&u) {
            continue;
        }
        from.clear();
        for &m in &group.members {
            let ind = index.inds[m];
            from.extend(ind.rhs.position(u).map(|p| ind.lhs.ids()[p]));
        }
        from.sort_unstable();
        from.dedup();
        for (k, &y) in from.iter().enumerate() {
            for &z in &from[k + 1..] {
                push_opt(IdRd::new(rel, y, z), push);
            }
        }
    }
}

/// [`rd_pullback`] on ids, handing each RD to `push`.
fn rd_pullback_ids(ind: &IdInd, rd: &IdRd, push: &mut impl FnMut(IdRd)) {
    if rd.rel != ind.rhs_rel {
        return;
    }
    if let (Some(pc), Some(pd)) = (ind.rhs.position(rd.lhs), ind.rhs.position(rd.rhs)) {
        push_opt(
            IdRd::new(ind.lhs_rel, ind.lhs.ids()[pc], ind.lhs.ids()[pd]),
            push,
        );
    }
}

fn push_opt(rd: Option<IdRd>, push: &mut impl FnMut(IdRd)) {
    if let Some(rd) = rd {
        push(rd);
    }
}

/// [`compose_inds`] on ids.
fn compose_inds_ids(i1: &IdInd, i2: &IdInd) -> Option<IdInd> {
    if i1.rhs_rel != i2.lhs_rel {
        return None;
    }
    let rhs: Option<IdSeq> = (i1.rhs.ids().iter())
        .map(|&a| i2.lhs.position(a).map(|p| i2.rhs.ids()[p]))
        .collect();
    Some(IdInd {
        lhs_rel: i1.lhs_rel,
        lhs: i1.lhs.clone(),
        rhs_rel: i2.rhs_rel,
        rhs: rhs?,
    })
}

/// [`rd_transitive_closure`] on ids: a union–find over attribute ids per
/// relation, handing every pair the union joins to `push`.
fn rd_transitive_closure_ids(rds: &BTreeSet<IdRd>, n_attrs: usize, push: &mut impl FnMut(IdRd)) {
    let rds: Vec<&IdRd> = rds.iter().collect();
    for run in rds.chunk_by(|a, b| a.rel == b.rel) {
        let mut uf = DenseUnionFind::default();
        uf.ensure(n_attrs);
        let mut members: Vec<AttrId> = Vec::with_capacity(2 * run.len());
        for rd in run {
            uf.union(rd.lhs, rd.rhs);
            members.extend([rd.lhs, rd.rhs]);
        }
        members.sort_unstable();
        members.dedup();
        let mut classes: BTreeMap<u32, Vec<AttrId>> = BTreeMap::new();
        for &m in &members {
            classes.entry(uf.find(m)).or_default().push(m);
        }
        for class in classes.values() {
            for (k, &x) in class.iter().enumerate() {
                for &y in &class[k + 1..] {
                    push_opt(IdRd::new(run[0].rel, x, y), push);
                }
            }
        }
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
