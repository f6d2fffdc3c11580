//! Functional-dependency machinery.
//!
//! The centrepiece is the linear-time attribute-closure algorithm of Beeri &
//! Bernstein (reference \[BB\] of the paper), which Section 3 contrasts with
//! the IND decision procedure: FD implication is linear, IND implication is
//! PSPACE-complete. On top of the closure we provide implication testing,
//! candidate-key enumeration (Lucchesi–Osborn), and minimal covers.

use depkit_core::attr::{Attr, AttrSeq};
use depkit_core::dependency::Fd;
use depkit_core::intern::{AttrBitSet, AttrId, Catalog, IdSeq};
use depkit_core::schema::{RelName, RelationScheme};
use std::collections::{BTreeSet, VecDeque};

/// An FD-implication engine for a single relation, compiled onto the
/// interned-id representation of [`depkit_core::intern`].
///
/// Construction interns every attribute mentioned by the FDs into a private
/// [`Catalog`] and builds a dense watcher table (`Vec<Vec<u32>>` indexed by
/// [`AttrId`]); each closure query then runs the Beeri–Bernstein counting
/// algorithm entirely over [`AttrBitSet`]s — no string hashing, no
/// per-attribute cloning. The string-typed methods ([`FdEngine::closure`],
/// [`FdEngine::implies`]) intern at the boundary and resolve ids back only
/// for output; id-level callers can use [`FdEngine::closure_bits`] directly.
///
/// Construction is `O(total FD size)`; each closure query is linear in the
/// total size of the FDs (the Beeri–Bernstein counting algorithm). The
/// pre-refactor string-based implementation survives as
/// [`crate::reference::ReferenceFdEngine`] for differential testing.
///
/// # Examples
///
/// The closure / implication round trip:
///
/// ```
/// use depkit_core::attr::{attrs, Attr};
/// use depkit_core::dependency::Fd;
/// use depkit_solver::fd::FdEngine;
///
/// let fds = vec![
///     Fd::new("R", attrs(&["A"]), attrs(&["B"])),
///     Fd::new("R", attrs(&["B"]), attrs(&["C"])),
/// ];
/// let engine = FdEngine::new("R", &fds);
///
/// // A⁺ = {A, B, C}: the Beeri–Bernstein closure chases both FDs.
/// let closure = engine.closure(&attrs(&["A"]));
/// assert!(closure.contains(&Attr::new("C")));
/// assert_eq!(closure.len(), 3);
///
/// // By Armstrong completeness, implication is a closure membership test.
/// assert!(engine.implies(&Fd::new("R", attrs(&["A"]), attrs(&["C"]))));
/// assert!(!engine.implies(&Fd::new("R", attrs(&["B"]), attrs(&["A"]))));
/// ```
#[derive(Debug, Clone)]
pub struct FdEngine {
    rel: RelName,
    fds: Vec<Fd>,
    catalog: Catalog,
    /// `fds` compiled onto `catalog`'s ids, in the same order.
    core: FdClosure,
}

/// The id-level core of [`FdEngine`]: the Beeri–Bernstein counting
/// closure over a list of FDs whose sides are ids of one catalog. The
/// Section 4 saturator and cover minimization compile their FDs straight
/// into it, one per relation, without going through names.
#[derive(Debug, Clone)]
pub(crate) struct FdClosure {
    /// Compiled sides of FD `i`.
    lhs: Vec<IdSeq>,
    rhs: Vec<IdSeq>,
    /// `watchers[attr_id]` = indices of FDs whose LHS contains the attribute.
    watchers: Vec<Vec<u32>>,
}

impl FdClosure {
    /// Compile `(lhs, rhs)` pairs over a catalog of `n_attrs` attributes;
    /// FD `i` is the `i`-th pair.
    pub(crate) fn new(n_attrs: usize, fds: impl IntoIterator<Item = (IdSeq, IdSeq)>) -> Self {
        let (lhs, rhs): (Vec<IdSeq>, Vec<IdSeq>) = fds.into_iter().unzip();
        let mut watchers: Vec<Vec<u32>> = vec![Vec::new(); n_attrs];
        for (i, l) in lhs.iter().enumerate() {
            for &a in l.ids() {
                watchers[a.index()].push(i as u32);
            }
        }
        FdClosure { lhs, rhs, watchers }
    }

    /// The closure of `seed` under every FD `i` with `!skip(i)`: a skipped
    /// FD never fires, as if it were not in the list.
    fn closure_masked(&self, seed: &AttrBitSet, skip: impl Fn(usize) -> bool) -> AttrBitSet {
        let mut closure = seed.clone();
        let mut queue: VecDeque<AttrId> = closure.iter().collect();
        // A skipped FD waits for more left attributes than any FD has.
        let mut missing: Vec<u32> = (0..self.lhs.len())
            .map(|i| {
                if skip(i) {
                    u32::MAX
                } else {
                    self.lhs[i].len() as u32
                }
            })
            .collect();
        for (i, &m) in missing.iter().enumerate() {
            if m == 0 {
                Self::fire(&self.rhs[i], &mut closure, &mut queue);
            }
        }
        while let Some(a) = queue.pop_front() {
            for &i in &self.watchers[a.index()] {
                let i = i as usize;
                missing[i] -= 1;
                if missing[i] == 0 {
                    Self::fire(&self.rhs[i], &mut closure, &mut queue);
                }
            }
        }
        closure
    }

    /// Whether the FDs `i` with `!skip(i)` imply `lhs → rhs`.
    pub(crate) fn implies_masked(
        &self,
        lhs: &IdSeq,
        rhs: &IdSeq,
        skip: impl Fn(usize) -> bool,
    ) -> bool {
        let closure = self.closure_masked(&lhs.to_bitset(), skip);
        rhs.ids().iter().all(|&a| closure.contains(a))
    }

    fn fire(rhs: &IdSeq, closure: &mut AttrBitSet, queue: &mut VecDeque<AttrId>) {
        for &a in rhs.ids() {
            if closure.insert(a) {
                queue.push_back(a);
            }
        }
    }
}

impl FdEngine {
    /// Build an engine from the FDs that speak about `rel`; FDs about other
    /// relations are ignored (FD implication never crosses relations).
    pub fn new(rel: impl Into<RelName>, fds: &[Fd]) -> Self {
        let rel = rel.into();
        let fds: Vec<Fd> = fds.iter().filter(|f| f.rel == rel).cloned().collect();
        let mut catalog = Catalog::new();
        let sides: Vec<(IdSeq, IdSeq)> = fds
            .iter()
            .map(|f| (catalog.intern_attrs(&f.lhs), catalog.intern_attrs(&f.rhs)))
            .collect();
        let core = FdClosure::new(catalog.attr_count(), sides);
        FdEngine {
            rel,
            fds,
            catalog,
            core,
        }
    }

    /// The relation this engine reasons about.
    pub fn rel(&self) -> &RelName {
        &self.rel
    }

    /// The FDs the engine was built from.
    pub fn fds(&self) -> &[Fd] {
        &self.fds
    }

    /// The engine's private symbol catalog (ids are only meaningful against
    /// this catalog).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The attribute closure `X⁺` of `start` under the engine's FDs
    /// (Beeri–Bernstein counting algorithm, linear time).
    pub fn closure(&self, start: &AttrSeq) -> BTreeSet<Attr> {
        self.closure_with_trace(start).0
    }

    /// Id-level closure: the compiled hot path. `seed` ids must come from
    /// [`FdEngine::catalog`]; attributes of the queried set that the FDs
    /// never mention have no id and cannot fire anything, so callers simply
    /// omit them (and union them back into their own view of the result).
    pub fn closure_bits(&self, seed: &AttrBitSet) -> AttrBitSet {
        self.core.closure_masked(seed, |_| false)
    }

    /// Attribute closure together with a derivation trace: for each attribute
    /// added beyond `start`, the index of the FD that added it. The trace
    /// lets callers reconstruct Armstrong-style proofs.
    pub fn closure_with_trace(&self, start: &AttrSeq) -> (BTreeSet<Attr>, Vec<(Attr, usize)>) {
        // Boundary interning: attributes unknown to the catalog are inert
        // (no FD mentions them), so they go straight to the output set.
        let mut closure_bits = AttrBitSet::with_capacity(self.catalog.attr_count());
        let mut out: BTreeSet<Attr> = BTreeSet::new();
        let mut queue: VecDeque<AttrId> = VecDeque::new();
        for a in start.attrs() {
            match self.catalog.attr_id(a) {
                Some(id) => {
                    if closure_bits.insert(id) {
                        queue.push_back(id);
                    }
                }
                None => {
                    out.insert(a.clone());
                }
            }
        }
        let mut trace_ids: Vec<(AttrId, usize)> = Vec::new();
        let core = &self.core;
        let mut missing: Vec<u32> = core.lhs.iter().map(|l| l.len() as u32).collect();
        let fire = |i: usize,
                    closure: &mut AttrBitSet,
                    queue: &mut VecDeque<AttrId>,
                    trace: &mut Vec<(AttrId, usize)>| {
            for &a in core.rhs[i].ids() {
                if closure.insert(a) {
                    queue.push_back(a);
                    trace.push((a, i));
                }
            }
        };
        // FDs with empty LHS fire immediately.
        for (i, &m) in missing.iter().enumerate() {
            if m == 0 {
                fire(i, &mut closure_bits, &mut queue, &mut trace_ids);
            }
        }
        while let Some(a) = queue.pop_front() {
            for &i in &core.watchers[a.index()] {
                let i = i as usize;
                missing[i] -= 1;
                if missing[i] == 0 {
                    fire(i, &mut closure_bits, &mut queue, &mut trace_ids);
                }
            }
        }
        out.extend(closure_bits.iter().map(|id| self.catalog.resolve_attr(id)));
        let trace = trace_ids
            .into_iter()
            .map(|(id, i)| (self.catalog.resolve_attr(id), i))
            .collect();
        (out, trace)
    }

    /// Whether the engine's FDs logically imply `target` (which must speak
    /// about the same relation). By Armstrong completeness this holds iff
    /// `target.rhs ⊆ closure(target.lhs)`.
    pub fn implies(&self, target: &Fd) -> bool {
        if target.rel != self.rel {
            return target.is_trivial();
        }
        let mut seed = AttrBitSet::with_capacity(self.catalog.attr_count());
        for a in target.lhs.attrs() {
            if let Some(id) = self.catalog.attr_id(a) {
                seed.insert(id);
            }
        }
        let closure = self.closure_bits(&seed);
        target
            .rhs
            .attrs()
            .iter()
            .all(|a| match self.catalog.attr_id(a) {
                Some(id) => closure.contains(id),
                // An attribute no FD mentions is in the closure iff it was in X.
                None => target.lhs.contains_attr(a),
            })
    }

    /// All candidate keys of `scheme` under the engine's FDs: the minimal
    /// attribute sets whose closure contains every attribute of the scheme.
    ///
    /// Uses the Lucchesi–Osborn successor generation: from a known key `K`
    /// and an FD `X → Y`, the set `X ∪ (K − Y)` is a superkey; minimizing
    /// each and iterating enumerates all keys.
    pub fn candidate_keys(&self, scheme: &RelationScheme) -> Vec<BTreeSet<Attr>> {
        let all: BTreeSet<Attr> = scheme.attrs().attrs().iter().cloned().collect();
        let first = self.minimize_superkey(&all, &all);
        let mut keys: Vec<BTreeSet<Attr>> = vec![first];
        let mut frontier = keys.clone();
        while let Some(k) = frontier.pop() {
            for fd in &self.fds {
                let x: BTreeSet<Attr> = fd.lhs.attrs().iter().cloned().collect();
                let y: BTreeSet<Attr> = fd.rhs.attrs().iter().cloned().collect();
                let mut candidate: BTreeSet<Attr> = x;
                candidate.extend(k.difference(&y).cloned());
                // Skip if a known key is contained in the candidate.
                if keys.iter().any(|known| known.is_subset(&candidate)) {
                    continue;
                }
                let minimized = self.minimize_superkey(&candidate, &all);
                if !keys.contains(&minimized) {
                    keys.push(minimized.clone());
                    frontier.push(minimized);
                }
            }
        }
        keys.sort();
        keys
    }

    fn minimize_superkey(&self, superkey: &BTreeSet<Attr>, all: &BTreeSet<Attr>) -> BTreeSet<Attr> {
        let mut key: Vec<Attr> = superkey.iter().cloned().collect();
        let mut i = 0;
        while i < key.len() {
            let mut shrunk = key.clone();
            shrunk.remove(i);
            let seq = AttrSeq::new(shrunk.clone()).expect("attributes are distinct");
            let c = self.closure(&seq);
            if all.iter().all(|a| c.contains(a)) {
                key = shrunk;
            } else {
                i += 1;
            }
        }
        key.into_iter().collect()
    }
}

/// Whether `fds ⊨ target` where all FDs may mention different relations
/// (implication is checked within `target`'s relation only, which is exact:
/// FDs about other relations cannot affect it).
pub fn implies_fd(fds: &[Fd], target: &Fd) -> bool {
    FdEngine::new(target.rel.clone(), fds).implies(target)
}

/// Compute a minimal cover of `fds` (all assumed to be about one relation):
/// an equivalent set where every RHS is a single attribute, no LHS attribute
/// is extraneous, and no FD is redundant.
pub fn minimal_cover(fds: &[Fd]) -> Vec<Fd> {
    if fds.is_empty() {
        return Vec::new();
    }
    let rel = fds[0].rel.clone();
    // 1. Split right-hand sides.
    let mut work: Vec<Fd> = Vec::new();
    for f in fds {
        for a in f.rhs.attrs() {
            let single = AttrSeq::new(vec![a.clone()]).expect("single attribute");
            let fd = Fd::new(rel.clone(), f.lhs.clone(), single);
            if !fd.is_trivial() && !work.contains(&fd) {
                work.push(fd);
            }
        }
    }
    // 2. Remove extraneous LHS attributes.
    let mut i = 0;
    while i < work.len() {
        let mut j = 0;
        while j < work[i].lhs.len() {
            let mut shrunk: Vec<Attr> = work[i].lhs.attrs().to_vec();
            shrunk.remove(j);
            let candidate = Fd::new(
                rel.clone(),
                AttrSeq::new(shrunk).expect("distinct attributes"),
                work[i].rhs.clone(),
            );
            if implies_fd(&work, &candidate) {
                work[i] = candidate;
            } else {
                j += 1;
            }
        }
        i += 1;
    }
    // 3. Remove redundant FDs.
    let mut i = 0;
    while i < work.len() {
        let without: Vec<Fd> = work
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, f)| f.clone())
            .collect();
        if implies_fd(&without, &work[i]) {
            work.remove(i);
        } else {
            i += 1;
        }
    }
    work.sort();
    work.dedup();
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use depkit_core::attr::attrs;

    fn fd(src: &str) -> Fd {
        match depkit_core::parser::parse_dependency(src).unwrap() {
            depkit_core::Dependency::Fd(f) => f,
            _ => panic!("not an FD: {src}"),
        }
    }

    #[test]
    fn closure_basics() {
        let fds = vec![fd("R: A -> B"), fd("R: B -> C"), fd("R: C, D -> E")];
        let eng = FdEngine::new("R", &fds);
        let c = eng.closure(&attrs(&["A"]));
        assert!(c.contains(&Attr::new("A")));
        assert!(c.contains(&Attr::new("B")));
        assert!(c.contains(&Attr::new("C")));
        assert!(!c.contains(&Attr::new("E")));
        let c2 = eng.closure(&attrs(&["A", "D"]));
        assert!(c2.contains(&Attr::new("E")));
    }

    #[test]
    fn closure_with_empty_lhs_fd() {
        // R: ∅ -> A fires unconditionally.
        let fds = vec![fd("R: -> A"), fd("R: A -> B")];
        let eng = FdEngine::new("R", &fds);
        let c = eng.closure(&AttrSeq::empty());
        assert!(c.contains(&Attr::new("A")));
        assert!(c.contains(&Attr::new("B")));
    }

    #[test]
    fn implication() {
        let fds = vec![fd("R: A -> B"), fd("R: B -> C")];
        let eng = FdEngine::new("R", &fds);
        assert!(eng.implies(&fd("R: A -> C")));
        assert!(eng.implies(&fd("R: A, C -> B")));
        assert!(!eng.implies(&fd("R: B -> A")));
        // Trivial FDs are always implied.
        assert!(eng.implies(&fd("R: A, B -> A")));
        // FDs about other relations: only trivial ones are implied.
        assert!(!eng.implies(&fd("S: A -> B")));
        assert!(eng.implies(&fd("S: A, B -> B")));
    }

    #[test]
    fn closure_trace_reconstructs_derivation() {
        let fds = vec![fd("R: A -> B"), fd("R: B -> C")];
        let eng = FdEngine::new("R", &fds);
        let (c, trace) = eng.closure_with_trace(&attrs(&["A"]));
        assert_eq!(c.len(), 3);
        assert_eq!(trace.len(), 2);
        // B added by FD 0, C added by FD 1.
        assert_eq!(trace[0], (Attr::new("B"), 0));
        assert_eq!(trace[1], (Attr::new("C"), 1));
    }

    #[test]
    fn candidate_keys_simple() {
        let scheme = RelationScheme::new("R", attrs(&["A", "B", "C"]));
        let fds = vec![fd("R: A -> B"), fd("R: B -> C")];
        let eng = FdEngine::new("R", &fds);
        let keys = eng.candidate_keys(&scheme);
        assert_eq!(keys.len(), 1);
        assert!(keys[0].contains(&Attr::new("A")));
        assert_eq!(keys[0].len(), 1);
    }

    #[test]
    fn candidate_keys_cyclic() {
        // A -> B, B -> A over R(A, B, C): keys are {A, C} and {B, C}.
        let scheme = RelationScheme::new("R", attrs(&["A", "B", "C"]));
        let fds = vec![fd("R: A -> B"), fd("R: B -> A")];
        let eng = FdEngine::new("R", &fds);
        let keys = eng.candidate_keys(&scheme);
        assert_eq!(keys.len(), 2);
        for k in &keys {
            assert_eq!(k.len(), 2);
            assert!(k.contains(&Attr::new("C")));
        }
    }

    #[test]
    fn candidate_keys_no_fds() {
        let scheme = RelationScheme::new("R", attrs(&["A", "B"]));
        let eng = FdEngine::new("R", &[]);
        let keys = eng.candidate_keys(&scheme);
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].len(), 2);
    }

    #[test]
    fn minimal_cover_removes_redundancy() {
        let fds = vec![
            fd("R: A -> B, C"),
            fd("R: B -> C"),
            fd("R: A -> C"),    // redundant given A -> B, B -> C
            fd("R: A, B -> C"), // A extraneous... B extraneous: A -> C redundant
        ];
        let cover = minimal_cover(&fds);
        // Expected: {A -> B, B -> C}.
        assert_eq!(cover.len(), 2);
        assert!(implies_fd(&cover, &fd("R: A -> C")));
        for f in &cover {
            assert_eq!(f.rhs.len(), 1);
        }
        // Equivalence both ways.
        for f in &fds {
            assert!(implies_fd(&cover, f));
        }
    }

    #[test]
    fn minimal_cover_strips_extraneous_lhs() {
        let fds = vec![fd("R: A -> B"), fd("R: A, C -> B")];
        let cover = minimal_cover(&fds);
        assert_eq!(cover.len(), 1);
        assert_eq!(cover[0], fd("R: A -> B"));
    }

    #[test]
    fn closure_is_monotone_and_idempotent() {
        let fds = vec![fd("R: A -> B"), fd("R: B, C -> D"), fd("R: D -> A")];
        let eng = FdEngine::new("R", &fds);
        let small = eng.closure(&attrs(&["A"]));
        let big = eng.closure(&attrs(&["A", "C"]));
        assert!(small.is_subset(&big));
        // Idempotence: closure(closure(X)) = closure(X).
        let again_seq = AttrSeq::new(big.iter().cloned().collect()).unwrap();
        assert_eq!(eng.closure(&again_seq), big);
    }
}
