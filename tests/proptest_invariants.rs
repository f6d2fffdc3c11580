//! Property-based tests (proptest) on the core data structures and the
//! invariants the paper's constructions rely on.

use depkit_core::attr::{Attr, AttrSeq};
use depkit_core::generate::{
    random_database, random_fd, random_ind, random_ind_set, random_mixed_set,
    random_satisfying_database, random_schema, Rng, SchemaConfig,
};
use depkit_core::symbolic::{DioSet, Pattern, SymbolicDatabase};
use depkit_core::{DatabaseSchema, Dependency, Ind, Rd};
use depkit_solver::fd::FdEngine;
use depkit_solver::ind::IndSolver;
use depkit_solver::interact::Saturator;
use proptest::prelude::*;

proptest! {
    /// Display → parse is the identity on generated dependencies.
    #[test]
    fn parser_roundtrip(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = random_schema(&mut rng, &SchemaConfig::default());
        let mut deps: Vec<Dependency> = Vec::new();
        if let Some(i) = random_ind(&mut rng, &schema, 2) { deps.push(i.into()); }
        if let Some(f) = random_fd(&mut rng, &schema, 1, 1) { deps.push(f.into()); }
        if let Some(r) = depkit_core::generate::random_rd(&mut rng, &schema) { deps.push(r.into()); }
        for d in deps {
            let round: Dependency = d.to_string().parse().expect("printed form parses");
            prop_assert_eq!(round, d);
        }
    }

    /// The syntactic IND search (IND1–3 complete, Theorem 3.1) agrees with
    /// the semantic Rule (*) chase on random instances.
    #[test]
    fn ind_solver_chase_agreement(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 3, min_arity: 2, max_arity: 3,
        });
        let sigma = random_ind_set(&mut rng, &schema, 4, 2);
        if let Some(target) = random_ind(&mut rng, &schema, 2) {
            let syntactic = IndSolver::new(&sigma).implies(&target);
            let semantic = depkit_chase::ind_chase::ind_chase(&schema, &sigma, &target, 300_000)
                .expect("within cap").implied;
            prop_assert_eq!(syntactic, semantic);
        }
    }

    /// FD closure (Beeri–Bernstein) agrees with the two-tuple equality
    /// chase (Armstrong completeness).
    #[test]
    fn fd_closure_chase_agreement(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 1, min_arity: 3, max_arity: 5,
        });
        let scheme = schema.schemes()[0].clone();
        let mut fds = Vec::new();
        for _ in 0..4 {
            if let Some(f) = random_fd(&mut rng, &schema, 1, 1) { fds.push(f); }
        }
        if let Some(target) = random_fd(&mut rng, &schema, 1, 1) {
            let closure = FdEngine::new(target.rel.clone(), &fds).implies(&target);
            let chase = depkit_chase::fd_chase::implies_fd_semantic(&fds, &scheme, &target);
            prop_assert_eq!(closure, chase);
        }
    }

    /// Satisfaction is invariant under IND2: if a database satisfies an
    /// IND, it satisfies every projection-permutation of it.
    #[test]
    fn ind2_soundness_on_databases(seed in any::<u64>(), keep in 1usize..3) {
        let mut rng = Rng::new(seed);
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 2, min_arity: 3, max_arity: 3,
        });
        let db = random_database(&mut rng, &schema, 6, 3);
        if let Some(ind) = random_ind(&mut rng, &schema, 3) {
            if db.satisfies(&ind.clone().into()).unwrap() {
                let positions = rng.distinct_indices(3, keep.min(3));
                let projected = ind.select(&positions).expect("valid positions");
                prop_assert!(db.satisfies(&projected.into()).unwrap());
            }
        }
    }

    /// A database satisfies an RD iff it satisfies the RD's unary
    /// decomposition (the paper's remark in Section 4).
    #[test]
    fn rd_unary_decomposition_semantics(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 1, min_arity: 3, max_arity: 4,
        });
        let db = random_database(&mut rng, &schema, 5, 2);
        let scheme = &schema.schemes()[0];
        let n = scheme.arity();
        let lhs_pos = rng.distinct_indices(n, 2);
        let rhs_pos = rng.distinct_indices(n, 2);
        let rd = Rd::new(
            scheme.name().clone(),
            scheme.attrs().select(&lhs_pos).unwrap(),
            scheme.attrs().select(&rhs_pos).unwrap(),
        ).unwrap();
        let whole = db.satisfies(&rd.clone().into()).unwrap();
        let parts = rd.unary_decomposition().into_iter()
            .all(|u| db.satisfies(&u.into()).unwrap());
        prop_assert_eq!(whole, parts);
    }

    /// Saturator soundness on random models: if a random database
    /// satisfies Σ, it satisfies everything the saturator derives.
    #[test]
    fn saturator_soundness_on_random_models(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 2, min_arity: 2, max_arity: 3,
        });
        let sigma = random_mixed_set(&mut rng, &schema, 2, 2);
        let mut sat = Saturator::new(&sigma);
        sat.saturate();
        let derived = sat.derived();
        for _ in 0..10 {
            let db = random_database(&mut rng, &schema, 4, 2);
            if sigma.iter().all(|d| db.satisfies(d).unwrap()) {
                for d in &derived {
                    prop_assert!(db.satisfies(d).unwrap(), "unsound derivation {}", d);
                }
            }
        }
    }

    /// Symbolic FD violations are real: the two witness tuples both occur
    /// in the infinite relation (checked via a sufficiently large prefix),
    /// and that prefix violates the FD too.
    #[test]
    fn symbolic_fd_violations_materialize(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = DatabaseSchema::parse(&["R(A, B)"]).unwrap();
        let mut db = SymbolicDatabase::empty(schema);
        let r = db.relation_mut("R").unwrap();
        for _ in 0..2 {
            let p = Pattern::from_pairs(&[
                (rng.below(3) as i64, rng.below(5) as i64),
                (rng.below(3) as i64, rng.below(5) as i64),
            ]);
            r.add_pattern(p).unwrap();
        }
        let fd: Dependency = "R: A -> B".parse().unwrap();
        match db.check(&fd) {
            Ok(Some(_)) => {
                // Violation must appear in a big prefix.
                let prefix = db.prefix(64);
                prop_assert!(!prefix.satisfies(&fd).unwrap());
            }
            Ok(None) => {
                // Satisfaction is inherited by every sub-relation.
                let prefix = db.prefix(64);
                prop_assert!(prefix.satisfies(&fd).unwrap());
            }
            Err(_) => {} // outside the decidable fragment: nothing to check
        }
    }

    /// Symbolic IND decisions agree with prefixes in the sound direction:
    /// a reported violation witness is missing from every prefix.
    #[test]
    fn symbolic_ind_violations_materialize(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = DatabaseSchema::parse(&["L(A)", "R(B)"]).unwrap();
        let mut db = SymbolicDatabase::empty(schema);
        db.relation_mut("L").unwrap().add_pattern(Pattern::from_pairs(&[
            (1 + rng.below(3) as i64, rng.below(4) as i64),
        ])).unwrap();
        db.relation_mut("R").unwrap().add_pattern(Pattern::from_pairs(&[
            (1 + rng.below(3) as i64, rng.below(4) as i64),
        ])).unwrap();
        let ind: Dependency = "L[A] <= R[B]".parse().unwrap();
        if let Ok(Some(depkit_core::symbolic::SymbolicViolation::Ind(t))) = db.check(&ind) {
            // The witness tuple is in L's infinite relation and its value
            // never appears in R: check on a generous prefix.
            let prefix = db.prefix(256);
            let l = prefix.relation(&depkit_core::RelName::new("L")).unwrap();
            let r = prefix.relation(&depkit_core::RelName::new("R")).unwrap();
            // witness value not among R's B column
            let wanted = t.values()[0].clone();
            prop_assert!(l.tuples().any(|u| u.values()[0] == wanted));
            prop_assert!(!r.tuples().any(|u| u.values()[0] == wanted));
        }
    }

    /// Diophantine solver: every reported solution satisfies the system.
    #[test]
    fn dioset_solutions_satisfy_equations(
        a1 in -5i128..6, c1 in -5i128..6, e1 in -10i128..11,
        a2 in -5i128..6, c2 in -5i128..6, e2 in -10i128..11,
    ) {
        let s = DioSet::Full.intersect(a1, c1, e1).intersect(a2, c2, e2);
        let check = |i: i128, j: i128| {
            a1 * i - c1 * j == e1 && a2 * i - c2 * j == e2
        };
        match s {
            DioSet::Empty => {}
            DioSet::Point(i, j) => prop_assert!(check(i, j)),
            DioSet::Line { i0, j0, di, dj } => {
                for t in -3i128..=3 {
                    prop_assert!(check(i0 + di * t, j0 + dj * t), "t={}", t);
                }
            }
            DioSet::Full => {
                for (i, j) in [(0, 0), (1, 5), (-2, 7)] {
                    prop_assert!(check(i, j));
                }
            }
        }
    }

    /// Proof objects survive checking; mutated conclusions do not.
    #[test]
    fn proofs_check_and_mutations_fail(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 3, min_arity: 2, max_arity: 3,
        });
        let sigma = random_ind_set(&mut rng, &schema, 4, 2);
        let Some(target) = random_ind(&mut rng, &schema, 2) else { return Ok(()); };
        if let Some(proof) = depkit_axiom::proof::prove(&sigma, &target) {
            prop_assert!(proof.check(&sigma).is_ok());
            // Mutate the conclusion's right side to a (likely) different IND.
            let mut bad = proof.clone();
            let last = bad.lines.len() - 1;
            let orig = bad.lines[last].ind.clone();
            let swapped = Ind::new(
                orig.rhs_rel.clone(), orig.rhs_attrs.clone(),
                orig.lhs_rel.clone(), orig.lhs_attrs.clone(),
            ).unwrap();
            if swapped != orig {
                bad.lines[last].ind = swapped;
                prop_assert!(bad.check(&sigma).is_err());
            }
        }
    }

    /// Attribute sequences: `select` preserves distinctness and order
    /// semantics used by IND2.
    #[test]
    fn attr_seq_select_invariants(seed in any::<u64>(), k in 1usize..4) {
        let mut rng = Rng::new(seed);
        let names: Vec<String> = (0..5).map(|i| format!("A{i}")).collect();
        let seq = AttrSeq::new(names.iter().map(Attr::new).collect()).unwrap();
        let k = k.min(seq.len());
        let positions = rng.distinct_indices(seq.len(), k);
        let selected = seq.select(&positions).unwrap();
        prop_assert_eq!(selected.len(), k);
        for (out_idx, &p) in positions.iter().enumerate() {
            prop_assert_eq!(&selected.attrs()[out_idx], &seq.attrs()[p]);
        }
    }
}

proptest! {
    /// Armstrong relations are exact: the FDs holding in the generated
    /// relation are precisely the implied ones (sampled over the FD
    /// universe).
    #[test]
    fn armstrong_relation_exactness(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 1, min_arity: 3, max_arity: 4,
        });
        let scheme = schema.schemes()[0].clone();
        let mut fds = Vec::new();
        for _ in 0..3 {
            if let Some(f) = random_fd(&mut rng, &schema, 1, 1) { fds.push(f); }
        }
        let engine = FdEngine::new(scheme.name().clone(), &fds);
        let r = depkit_solver::armstrong::armstrong_relation(&engine, &scheme);
        for _ in 0..10 {
            let lhs_n = 1 + rng.below(2);
            if let Some(tau) = random_fd(&mut rng, &schema, lhs_n, 1) {
                let holds = depkit_core::satisfy::check_fd(&r, &tau).unwrap().is_none();
                prop_assert_eq!(holds, engine.implies(&tau), "τ = {}", tau);
            }
        }
    }

    /// BCNF decomposition invariants: every fragment is in BCNF under its
    /// projected FDs, all attributes survive, and every embedding IND is
    /// typed.
    #[test]
    fn bcnf_decomposition_invariants(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 1, min_arity: 3, max_arity: 4,
        });
        let scheme = schema.schemes()[0].clone();
        let mut fds = Vec::new();
        for _ in 0..3 {
            if let Some(f) = random_fd(&mut rng, &schema, 1, 1) { fds.push(f); }
        }
        let frags = depkit_solver::design::bcnf_decompose(&fds, &scheme);
        prop_assert!(!frags.is_empty());
        for frag in &frags {
            let engine = FdEngine::new(frag.scheme.name().clone(), &frag.fds);
            prop_assert!(depkit_solver::design::is_bcnf(&engine, &frag.scheme));
            prop_assert!(frag.embedding.is_typed());
        }
        for a in scheme.attrs().attrs() {
            prop_assert!(frags.iter().any(|f| f.scheme.attrs().contains_attr(a)));
        }
    }

    /// 3NF synthesis preserves the minimal cover and always covers a key.
    #[test]
    fn threenf_invariants(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 1, min_arity: 3, max_arity: 4,
        });
        let scheme = schema.schemes()[0].clone();
        let mut fds = Vec::new();
        for _ in 0..3 {
            if let Some(f) = random_fd(&mut rng, &schema, 1, 1) { fds.push(f); }
        }
        let frags = depkit_solver::design::threenf_synthesis(&fds, &scheme);
        for f in depkit_solver::fd::minimal_cover(&fds) {
            prop_assert!(frags.iter().any(|frag| {
                f.lhs.attrs().iter().all(|a| frag.scheme.attrs().contains_attr(a))
                    && f.rhs.attrs().iter().all(|a| frag.scheme.attrs().contains_attr(a))
            }), "cover FD {} lost", f);
        }
        let engine = FdEngine::new(scheme.name().clone(), &fds);
        let keys = engine.candidate_keys(&scheme);
        let key_covered = keys.iter().any(|key| {
            frags
                .iter()
                .any(|fr| key.iter().all(|a| fr.scheme.attrs().contains_attr(a)))
        });
        prop_assert!(key_covered);
    }

    /// Discovery round trip on planted dependencies: repair a random
    /// database until a random Σ of FDs and INDs holds by construction,
    /// mine it, and check the minimized cover still implies every planted
    /// dependency (via the FdEngine/IndSolver dispatch of
    /// `discover::implied_by`).
    #[test]
    fn discovery_cover_implies_planted_dependencies(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        // Arity 2: repair can empty relations, and wider schemas then grow
        // large accidental IND cliques that only slow minimization down.
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 2, min_arity: 2, max_arity: 2,
        });
        let planted = random_mixed_set(&mut rng, &schema, 2, 2);
        let db = random_satisfying_database(&mut rng, &schema, &planted, 6, 3);
        for d in &planted {
            prop_assert!(db.satisfies(d).unwrap(), "repair left {} violated", d);
        }
        let found = depkit_solver::discover::discover(&db);
        for d in &planted {
            prop_assert!(
                depkit_solver::discover::implied_by(&found.cover, d),
                "planted {} not implied by the discovered cover", d
            );
        }
    }

    /// Planted-noise bound for approximate discovery: flip `k` of the
    /// `n` rows of the left relation and the planted dependencies must
    /// survive mining at a tolerance just above `k/n`, scored with
    /// confidence ≥ 1 − k/n — each flipped row adds at most one unit of
    /// g3 error (FD) and at most one missing row (IND), so `misses ≤ k`.
    /// Only left-relation rows are flipped: corrupting the *right* side
    /// of an IND can orphan arbitrarily many left rows at once, and no
    /// per-row bound would hold.
    #[test]
    fn planted_deps_survive_row_flips_with_bounded_confidence(
        seed in any::<u64>(), k in 0usize..6,
    ) {
        use depkit_core::{Database, RelName, Tuple};
        use depkit_solver::discover::{discover_with_config, DiscoveryConfig};
        let mut rng = Rng::new(seed);
        let schema = DatabaseSchema::parse(&["L(A, B)", "R(C, D)"]).unwrap();
        // domain ≥ 3 keeps `∅ -> A` outside every budget we mine at
        // (g3(∅→A) = domain + k − 2 > k + ½): were it inside, the
        // lattice's LHS prune would bar A from minimal left sides and
        // subsume the planted FD instead of emitting it.
        let domain = 3 + rng.below(5) as i64;
        // f: A -> B is the planted FD's witness function; every A value
        // appears in R[C], witnessing the planted IND. Pinning f(0)=0 and
        // f(1)=1 keeps B from being near-constant, so the vacuous
        // `∅ -> B` stays outside any budget we mine at and cannot
        // subsume the planted FD as the minimal form.
        let f: Vec<i64> = (0..domain)
            .map(|a| if a < 2 { a } else { rng.below(50) as i64 })
            .collect();
        let mut rows: Vec<(i64, i64)> = (0..domain).map(|a| (a, f[a as usize])).collect();
        // Flip k rows: relations are sets, so flipping one copy of a
        // duplicated clean row is the same as appending the dirty row —
        // append, keeping every clean witness present. Even flips dirty
        // the IND (fresh A value), odd flips dirty the FD (same A, fresh
        // B). Fresh values are negative, colliding with nothing R or f
        // can produce, so all n = domain + k rows are distinct.
        for i in 0..k {
            let fresh = -(1 + i as i64);
            if i % 2 == 0 {
                rows.push((fresh, fresh));
            } else {
                rows.push((i as i64 % domain, fresh));
            }
        }
        let n = rows.len();
        let mut db = Database::empty(schema);
        for (a, b) in rows {
            db.insert(&RelName::new("L"), Tuple::ints(&[a, b])).unwrap();
        }
        for a in 0..domain {
            db.insert(&RelName::new("R"), Tuple::ints(&[a, rng.below(9) as i64]))
                .unwrap();
        }
        let config = DiscoveryConfig {
            max_error: (k as f64 + 0.5) / n as f64,
            ..DiscoveryConfig::default()
        };
        let found = discover_with_config(&db, &config);
        for dep_src in ["L[A] <= R[C]", "L: A -> B"] {
            let dep: Dependency = dep_src.parse().unwrap();
            let s = found
                .scored
                .iter()
                .find(|s| s.dep == dep)
                .unwrap_or_else(|| panic!("planted `{dep}` was mined away: {:?}", found.scored));
            prop_assert!(
                s.misses <= k as u64,
                "planted {} has {} misses from {} flipped rows", dep, s.misses, k
            );
            prop_assert!(
                s.confidence() >= 1.0 - k as f64 / n as f64 - 1e-9,
                "planted {} confidence {} below 1 - k/n = {}",
                dep, s.confidence(), 1.0 - k as f64 / n as f64
            );
        }
    }

    /// Sliced round-trip: reading an arbitrary id multiset in id-range
    /// slices of a random width yields exactly the in-memory
    /// `sorted_distinct` answer, in one column scan per non-empty slice —
    /// the sliced and resident backings of `DistinctStream` are
    /// interchangeable.
    #[test]
    fn spill_runs_roundtrip_to_sorted_distinct(seed in any::<u64>()) {
        use depkit_core::column::RelationColumns;
        use depkit_core::spill::{DistinctStream, MAX_PASSES};
        let mut rng = Rng::new(seed);
        let len = rng.below(3_000);
        let domain = 1 + rng.below(1_200);
        let values: Vec<u32> = (0..len).map(|_| rng.below(domain) as u32).collect();
        let share = rng.below(8 * domain.div_ceil(64) + 16);

        let mut column = RelationColumns::new(1);
        for &v in &values {
            column.push_row(&[v]);
        }
        let expected = column.sorted_distinct(0);

        let stream = DistinctStream::sliced(&values, domain, share);
        let width = (share / 8).max(domain.div_ceil(64).div_ceil(MAX_PASSES)).max(1);
        let slices: std::collections::BTreeSet<usize> =
            expected.iter().map(|&v| v as usize / 64 / width).collect();
        prop_assert_eq!(stream.scans_left(), slices.len());
        prop_assert!(stream.scans_left() <= MAX_PASSES);
        let sliced: Vec<u32> = stream.ids().collect();
        prop_assert_eq!(sliced, expected);
    }

    /// Weak acyclicity soundness: when the criterion accepts, the chase
    /// terminates with a definite answer (never `Exhausted`).
    #[test]
    fn weak_acyclicity_guarantees_termination(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 3, min_arity: 2, max_arity: 3,
        });
        let sigma = random_mixed_set(&mut rng, &schema, 2, 3);
        if depkit_chase::acyclic::weakly_acyclic(&schema, &sigma).unwrap() {
            if let Some(target) = random_fd(&mut rng, &schema, 1, 1) {
                let got = depkit_chase::acyclic::decide(&schema, &sigma, &target.into()).unwrap();
                prop_assert!(got.is_some());
            }
        }
    }
}
