//! Differential property tests: the compiled (interned-id) engines must
//! agree with the pre-refactor string-based reference implementations on
//! every entry point the refactor touched — `closure`, `implies` (FD and
//! IND, including the automatic typed dispatch), and walk production —
//! plus the Landau `σ(γ)` family from `depkit-perm`, whose superpolynomial
//! walks are the paper's own stress test for the search. The indexed
//! Section 4 saturator must materialize exactly what the reference triple
//! loop does, including under caps that truncate, and the compiled cover
//! minimization must return the reference minimizer's cover.

use depkit::core::attr::{Attr, AttrSeq};
use depkit::core::generate::{
    random_fd, random_ind, random_ind_set, random_mixed_set, random_schema, Rng, SchemaConfig,
};
use depkit::core::{Database, DatabaseSchema, Dependency, Fd, Ind, Rd, RelName, Tuple, Value};
use depkit::perm::ind_family::{landau_pair, permutation_ind, transposition_generators};
use depkit::perm::perm::Perm;
use depkit::solver::discover::{discover, minimize_cover, DiscoveryConfig};
use depkit::solver::fd::FdEngine;
use depkit::solver::ind::{verify_walk, IndSolver};
use depkit::solver::interact::{SaturationLimits, SaturationOptions, Saturator};
use depkit::solver::reference::{self, ReferenceFdEngine, ReferenceIndSolver};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// A random set of *typed* INDs over `schema` (both sides carry the same
/// attribute sequence), so the compiled solver's automatic typed dispatch
/// fires.
fn random_typed_ind_set(rng: &mut Rng, schema: &DatabaseSchema, count: usize) -> Vec<Ind> {
    let mut out = Vec::new();
    let mut guard = 0;
    while out.len() < count && guard < count * 20 {
        guard += 1;
        let schemes = schema.schemes();
        let lhs = &schemes[rng.below(schemes.len())];
        let rhs = &schemes[rng.below(schemes.len())];
        // Attributes present in both schemes (generated names are shared).
        let common: Vec<_> = lhs
            .attrs()
            .attrs()
            .iter()
            .filter(|a| rhs.attrs().contains_attr(a))
            .cloned()
            .collect();
        if common.is_empty() {
            continue;
        }
        let k = 1 + rng.below(common.len());
        let pos = rng.distinct_indices(common.len(), k);
        let attrs =
            AttrSeq::new(pos.iter().map(|&p| common[p].clone()).collect()).expect("distinct");
        out.push(
            Ind::new(lhs.name().clone(), attrs.clone(), rhs.name().clone(), attrs)
                .expect("equal arity"),
        );
    }
    out
}

proptest! {
    /// Entry point 1 — `FdEngine::closure` equals the reference closure on
    /// random FD sets (the full set, not just a membership query).
    #[test]
    fn fd_closure_agrees_with_reference(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 1, min_arity: 3, max_arity: 6,
        });
        let scheme = schema.schemes()[0].clone();
        let mut fds: Vec<Fd> = Vec::new();
        for _ in 0..6 {
            let lhs = 1 + rng.below(2);
            let rhs = 1 + rng.below(2);
            if let Some(f) = random_fd(&mut rng, &schema, lhs, rhs) {
                fds.push(f);
            }
        }
        let compiled = FdEngine::new(scheme.name().clone(), &fds);
        let reference = ReferenceFdEngine::new(scheme.name().clone(), &fds);
        for _ in 0..8 {
            let k = 1 + rng.below(scheme.arity());
            let pos = rng.distinct_indices(scheme.arity(), k);
            let start = scheme.attrs().select(&pos).expect("distinct positions");
            prop_assert_eq!(compiled.closure(&start), reference.closure(&start));
        }
        // Closures from attributes the FDs never mention must also agree.
        let alien = depkit::core::attr::attrs(&["Z_UNSEEN"]);
        prop_assert_eq!(compiled.closure(&alien), reference.closure(&alien));
    }

    /// Entry point 2 — `FdEngine::implies` equals the reference on random
    /// FD targets.
    #[test]
    fn fd_implies_agrees_with_reference(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 1, min_arity: 3, max_arity: 5,
        });
        let mut fds: Vec<Fd> = Vec::new();
        for _ in 0..5 {
            if let Some(f) = random_fd(&mut rng, &schema, 1, 1) {
                fds.push(f);
            }
        }
        for _ in 0..10 {
            let lhs = 1 + rng.below(2);
            if let Some(target) = random_fd(&mut rng, &schema, lhs, 1) {
                let compiled = FdEngine::new(target.rel.clone(), &fds);
                let reference = ReferenceFdEngine::new(target.rel.clone(), &fds);
                prop_assert_eq!(
                    compiled.implies(&target),
                    reference.implies(&target),
                    "target {}", target
                );
            }
        }
    }

    /// Entry point 3 — `IndSolver::implies` equals the reference search on
    /// random (untyped) IND sets, and every produced walk verifies against
    /// the solver's Σ.
    #[test]
    fn ind_implies_and_walks_agree_with_reference(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 3, min_arity: 2, max_arity: 3,
        });
        let mut sigma = random_ind_set(&mut rng, &schema, 5, 2);
        // Exercise the Σ dedupe: duplicate one member and add a trivial one.
        if let Some(first) = sigma.first().cloned() {
            sigma.push(first);
        }
        if let Some(s) = schema.schemes().first() {
            sigma.push(
                Ind::new(s.name().clone(), s.attrs().clone(), s.name().clone(), s.attrs().clone())
                    .expect("equal arity"),
            );
        }
        let compiled = IndSolver::new(&sigma);
        let reference = ReferenceIndSolver::new(&sigma);
        for _ in 0..6 {
            let arity = 1 + rng.below(2);
            let Some(target) = random_ind(&mut rng, &schema, arity) else { continue };
            let got = compiled.implies(&target);
            prop_assert_eq!(got, reference.implies(&target), "target {}", target);
            if got {
                let walk = compiled.walk(&target).expect("implied ⇒ walk");
                prop_assert!(
                    verify_walk(compiled.sigma(), &target, &walk),
                    "compiled walk fails verification for {}", target
                );
                let ref_walk = reference.walk(&target).expect("implied ⇒ walk");
                // BFS from identical frontiers: identical walk lengths.
                prop_assert_eq!(walk.len(), ref_walk.len());
            }
        }
    }

    /// The automatic typed dispatch agrees with the reference general
    /// search — answers, stats, and verifiable walks — on all-typed Σ.
    #[test]
    fn typed_dispatch_agrees_with_reference(seed in any::<u64>()) {
        let mut rng = Rng::new(seed);
        let schema = random_schema(&mut rng, &SchemaConfig {
            relations: 4, min_arity: 2, max_arity: 4,
        });
        let sigma = random_typed_ind_set(&mut rng, &schema, 5);
        let compiled = IndSolver::new(&sigma);
        let reference = ReferenceIndSolver::new(&sigma);
        for _ in 0..6 {
            let Some(mut target) = random_ind(&mut rng, &schema, 1) else { continue };
            // Make the target typed: reuse the left side on the right.
            let lhs_attrs = target.lhs_attrs.clone();
            if schema.require(&target.rhs_rel).unwrap().attrs().attrs().iter()
                .filter(|a| lhs_attrs.contains_attr(a)).count() != lhs_attrs.len() {
                continue; // left attrs not all present in the right relation
            }
            target = Ind::new(
                target.lhs_rel.clone(), lhs_attrs.clone(),
                target.rhs_rel.clone(), lhs_attrs,
            ).expect("equal arity");
            prop_assert_eq!(compiled.implies_typed(&target).is_some(), true);
            let (got, stats) = compiled.implies_with_stats(&target);
            let (want, ref_stats) = reference.implies_with_stats(&target);
            prop_assert_eq!(got, want, "target {}", target);
            // Same answer and minimal walk, while Σ dedupe and the
            // unknown-symbol early exit may only ever SHRINK the search.
            prop_assert_eq!(stats.walk_length, ref_stats.walk_length, "walk for {}", target);
            prop_assert!(
                stats.expressions_visited <= ref_stats.expressions_visited
                    && stats.applications_attempted <= ref_stats.applications_attempted,
                "compiled search did more work than the reference on {}", target
            );
            if got {
                let walk = compiled.walk(&target).expect("implied ⇒ walk");
                prop_assert!(verify_walk(compiled.sigma(), &target, &walk));
            }
        }
    }

    /// The Landau σ(γ) family: compiled and reference agree on σ(γ) ⊨ σ(γᵏ)
    /// for random permutations, with identical minimal walk lengths.
    #[test]
    fn permutation_family_agrees_with_reference(seed in any::<u64>(), m in 3usize..7, k in 1u32..9) {
        let mut rng = Rng::new(seed);
        // A random permutation of {0..m} via Fisher–Yates indices.
        let images = rng.distinct_indices(m, m);
        let gamma = Perm::new(images).expect("permutation");
        let sigma = permutation_ind(&gamma);
        let target = permutation_ind(&gamma.pow(k as u128));
        let compiled = IndSolver::new(std::slice::from_ref(&sigma));
        let reference = ReferenceIndSolver::new(std::slice::from_ref(&sigma));
        let (got, stats) = compiled.implies_with_stats(&target);
        let (want, ref_stats) = reference.implies_with_stats(&target);
        prop_assert_eq!(got, want, "σ(γ^{}) for γ = {:?}", k, gamma);
        prop_assert_eq!(stats.walk_length, ref_stats.walk_length);
        if got {
            let walk = compiled.walk(&target).expect("implied ⇒ walk");
            prop_assert!(verify_walk(compiled.sigma(), &target, &walk));
        }
    }
}

/// The two deterministic σ(γ) constructions of Section 3, checked
/// compiled-vs-reference exactly.
#[test]
fn landau_and_transposition_families_agree_with_reference() {
    for m in [3usize, 5, 7] {
        let (sigma, target, f) = landau_pair(m);
        let compiled = IndSolver::new(std::slice::from_ref(&sigma));
        let reference = ReferenceIndSolver::new(std::slice::from_ref(&sigma));
        let (got, stats) = compiled.implies_with_stats(&target);
        let (want, ref_stats) = reference.implies_with_stats(&target);
        assert!(got && want, "σ(γ) must imply σ(δ) at m={m}");
        assert_eq!(stats.walk_length, Some(f as usize), "m={m}");
        assert_eq!(stats.walk_length, ref_stats.walk_length, "m={m}");
    }
    // Transposition generators imply every permutation IND; spot-check a
    // few targets through both solvers.
    let m = 4;
    let gens = transposition_generators(m);
    let compiled = IndSolver::new(&gens);
    let reference = ReferenceIndSolver::new(&gens);
    for images in [vec![1, 2, 3, 0], vec![3, 2, 1, 0], vec![2, 0, 3, 1]] {
        let target = permutation_ind(&Perm::new(images).unwrap());
        assert!(compiled.implies(&target));
        assert!(reference.implies(&target));
        let walk = compiled.walk(&target).expect("implied ⇒ walk");
        assert!(verify_walk(compiled.sigma(), &target, &walk));
    }
}

/// `deps` over the names `random_schema` generates, renamed so that the
/// names' sorted order differs from the generated ones': `A10` sorts
/// before `A9` and `B` before `b`, relations share names with
/// attributes, and `Ω` sorts after every ASCII name.
fn relabelled(deps: &[Dependency]) -> Vec<Dependency> {
    let rel = |r: &RelName| {
        let to = match r.name() {
            "R0" => "Ω",
            "R1" => "B",
            "R2" => "A10",
            other => panic!("unexpected relation {other}"),
        };
        RelName::new(to)
    };
    let seq = |s: &AttrSeq| {
        let to = |a: &Attr| match a.name() {
            "A0" => "b",
            "A1" => "A9",
            "A2" => "A10",
            "A3" => "B",
            other => panic!("unexpected attribute {other}"),
        };
        AttrSeq::new(s.attrs().iter().map(|a| Attr::new(to(a))).collect())
            .expect("renaming is injective")
    };
    deps.iter()
        .map(|d| match d {
            Dependency::Fd(f) => Fd::new(rel(&f.rel), seq(&f.lhs), seq(&f.rhs)).into(),
            Dependency::Ind(i) => Ind::new(
                rel(&i.lhs_rel),
                seq(&i.lhs_attrs),
                rel(&i.rhs_rel),
                seq(&i.rhs_attrs),
            )
            .expect("same arity")
            .into(),
            Dependency::Rd(r) => Rd::new(rel(&r.rel), seq(&r.lhs), seq(&r.rhs))
                .expect("same arity")
                .into(),
            Dependency::Emvd(_) => panic!("random mixed sets hold no EMVDs"),
        })
        .collect()
}

/// The indexed [`Saturator`] materializes exactly the FDs, INDs and RDs
/// the reference triple loop does, and truncates exactly when it does, on
/// random mixed sets with every rule on and with each rule off in turn.
/// The caps are small enough that many runs truncate, and under a cap a
/// round that derived in another order would materialize different sets,
/// so this also pins the derivation order. Each set is also checked with
/// its names relabelled (see [`relabelled`]), which pins that the
/// saturator orders its work by name, not by where a name first appears.
#[test]
fn saturator_agrees_with_reference() {
    let on = SaturationOptions::default();
    let options = [
        on,
        SaturationOptions {
            pullback: false,
            ..on
        },
        SaturationOptions {
            augmentation: false,
            ..on
        },
        SaturationOptions {
            rd_rules: false,
            ..on
        },
        SaturationOptions {
            composition: false,
            ..on
        },
    ];
    let (mut cases, mut truncated) = (0usize, 0usize);
    for seed in 0..200 {
        let mut rng = Rng::new(seed);
        let relations = 1 + rng.below(3);
        let schema = random_schema(
            &mut rng,
            &SchemaConfig {
                relations,
                min_arity: 2,
                max_arity: 4,
            },
        );
        let (fds, inds) = (1 + rng.below(4), 4 + rng.below(9));
        let generated = random_mixed_set(&mut rng, &schema, fds, inds);
        for (names, sigma) in [
            ("generated", generated.clone()),
            ("relabelled", relabelled(&generated)),
        ] {
            for cap in (8..=16).chain([64]) {
                let limits = SaturationLimits {
                    max_rounds: 4,
                    max_inds: cap,
                    max_fds: cap,
                };
                for opts in options {
                    let mut sat = Saturator::with_options(&sigma, limits, opts);
                    sat.saturate();
                    let want = reference::saturate(&sigma, limits, opts);
                    let context = format!("seed {seed}, {names} names, cap {cap}, {opts:?}");
                    assert_eq!(sat.fds(), &want.fds, "FDs differ: {context}");
                    assert_eq!(sat.inds(), &want.inds, "INDs differ: {context}");
                    assert_eq!(sat.rds(), &want.rds, "RDs differ: {context}");
                    assert_eq!(sat.truncated(), want.truncated, "{context}");
                    cases += 1;
                    truncated += usize::from(want.truncated);
                }
            }
        }
    }
    assert!(
        4 * truncated >= cases,
        "only {truncated} of {cases} cases truncated: the caps no longer test the order"
    );
}

fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

/// One dependency per line, in file order.
fn load_dependencies(text: &str) -> Vec<Dependency> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.parse().expect("dependency line parses"))
        .collect()
}

/// The `schema`/`row` lines of a fixture spec as a database (its `dep`
/// lines are not data).
fn load_database(text: &str) -> Database {
    let mut schemes = Vec::new();
    let mut rows: Vec<(String, Vec<Value>)> = Vec::new();
    for line in text.lines().map(str::trim) {
        if let Some(rest) = line.strip_prefix("schema ") {
            schemes.push(depkit::core::parser::parse_scheme(rest.trim()).unwrap());
        } else if let Some(rest) = line.strip_prefix("row ") {
            let mut parts = rest.split_whitespace();
            let rel = parts.next().expect("row needs a relation").to_string();
            let values = parts
                .map(|p| {
                    p.parse::<i64>()
                        .map(Value::Int)
                        .unwrap_or_else(|_| Value::str(p))
                })
                .collect();
            rows.push((rel, values));
        }
    }
    let mut db = Database::empty(DatabaseSchema::new(schemes).unwrap());
    for (rel, values) in rows {
        db.insert(&RelName::new(&rel), Tuple::new(values)).unwrap();
    }
    db
}

/// The compiled [`minimize_cover`] returns [`reference::minimize_cover`]'s
/// cover, order included: on 200 random mixed sets sized so that most of
/// the reference's stage-2 saturations truncate (so the saturator's
/// derivation order decides the cover), on the `discover_wide` raw set,
/// and on the raw set mined from every fixture spec.
#[test]
fn minimize_cover_agrees_with_reference() {
    let config = DiscoveryConfig::default();
    let check = |raw: &[Dependency], context: &str| {
        let want = reference::minimize_cover(raw, &config);
        assert_eq!(minimize_cover(raw, &config), want.cover, "{context}");
        want
    };
    let (mut saturations, mut truncated) = (0usize, 0usize);
    for seed in 0..200 {
        let mut rng = Rng::new(seed);
        let schema = random_schema(
            &mut rng,
            &SchemaConfig {
                relations: 5,
                min_arity: 3,
                max_arity: 3,
            },
        );
        let (fds, inds) = (1 + rng.below(2), 24 + rng.below(4));
        let raw = random_mixed_set(&mut rng, &schema, fds, inds);
        let want = check(&raw, &format!("seed {seed}"));
        saturations += want.saturations;
        truncated += want.truncated;
    }
    assert!(
        4 * truncated >= 3 * saturations,
        "only {truncated} of {saturations} stage-2 saturations truncated: \
         the corpus no longer tests the derivation order"
    );

    let wide = std::fs::read_to_string(data_dir().join("discover_wide.raw")).unwrap();
    let want = check(&load_dependencies(&wide), "discover_wide.raw");
    assert!(want.truncated > want.saturations / 2, "{want:?}");

    let mut fixtures = 0;
    for entry in std::fs::read_dir(data_dir()).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "dep") {
            let db = load_database(&std::fs::read_to_string(&path).unwrap());
            check(&discover(&db).raw, &path.display().to_string());
            fixtures += 1;
        }
    }
    assert!(fixtures >= 6, "found only {fixtures} fixture specs");
}
