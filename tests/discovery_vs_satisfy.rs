//! Differential tests for the discovery engine: everything it mines must
//! pass the exact `core::satisfy` checker on the source database
//! (soundness), planted dependencies must be rediscovered (completeness),
//! the emitted cover must be minimal (the acceptance criterion), and a
//! discovered cover must drive the incremental `CatalogState` without
//! violations — closing the loop between discovery and serving. Tolerant
//! IND discovery is checked both ways against hand-counted miss counts.

use depkit_bench::referential_workload;
use depkit_core::delta::Delta;
use depkit_core::generate::{
    random_database, random_ind, random_satisfying_database, random_schema, Rng, SchemaConfig,
};
use depkit_core::{Database, DatabaseSchema, Dependency};
use depkit_solver::discover::{discover, discover_with_config, implied_by, DiscoveryConfig};
use depkit_solver::incremental::CatalogState;

fn small_schema(rng: &mut Rng) -> DatabaseSchema {
    random_schema(
        rng,
        &SchemaConfig {
            relations: 2,
            min_arity: 2,
            max_arity: 3,
        },
    )
}

/// Soundness: every mined dependency — raw and cover alike — holds in the
/// database it was mined from, and the cover both sits inside the raw set
/// and still implies all of it.
#[test]
fn discovered_dependencies_are_satisfied() {
    let mut rng = Rng::new(0xD15C0);
    for round in 0..12 {
        let schema = small_schema(&mut rng);
        let db = random_database(&mut rng, &schema, 6, 3);
        let found = discover(&db);
        for d in &found.raw {
            assert!(
                db.satisfies(d).unwrap(),
                "round {round}: discovered {d} is violated by its own database"
            );
        }
        for d in &found.cover {
            assert!(found.raw.contains(d), "round {round}: cover ⊄ raw ({d})");
        }
        for d in &found.raw {
            assert!(
                implied_by(&found.cover, d),
                "round {round}: cover does not imply raw member {d}"
            );
        }
    }
}

/// Completeness round-trip: a unary IND planted by construction is always
/// present in the raw mined set (SPIDER is exact on unary INDs), and the
/// minimized cover still implies it.
#[test]
fn planted_unary_inds_are_discovered() {
    let mut rng = Rng::new(0xC0FFEE);
    for round in 0..12 {
        // Arity 2 keeps the post-repair accidental IND cliques small; the
        // property under test (planted unary INDs reappear) is arity-blind.
        let schema = random_schema(
            &mut rng,
            &SchemaConfig {
                relations: 2,
                min_arity: 2,
                max_arity: 2,
            },
        );
        let mut planted: Vec<Dependency> = Vec::new();
        for _ in 0..3 {
            if let Some(ind) = random_ind(&mut rng, &schema, 1) {
                if !ind.is_trivial() {
                    planted.push(ind.into());
                }
            }
        }
        let db = random_satisfying_database(&mut rng, &schema, &planted, 6, 3);
        for d in &planted {
            assert!(db.satisfies(d).unwrap(), "round {round}: planting failed");
        }
        let found = discover(&db);
        for d in &planted {
            assert!(
                found.raw.contains(d),
                "round {round}: planted {d} missing from the raw mined set"
            );
            assert!(
                implied_by(&found.cover, d),
                "round {round}: planted {d} not implied by the cover"
            );
        }
    }
}

/// The acceptance criterion: on the referential workload the curated
/// Section 1 constraints are rediscovered, and the emitted cover is
/// minimal — removing any member leaves a set that no longer implies the
/// raw discovered set.
#[test]
fn cover_is_minimal_on_the_referential_workload() {
    let (_schema, sigma, db) = referential_workload(200, 8);
    let found = discover(&db);
    for d in &sigma {
        assert!(
            implied_by(&found.cover, d),
            "curated constraint {d} not rediscovered"
        );
    }
    assert!(!found.cover.is_empty());
    for i in 0..found.cover.len() {
        let mut rest = found.cover.clone();
        rest.remove(i);
        let still_complete = found.raw.iter().all(|d| implied_by(&rest, d));
        assert!(
            !still_complete,
            "cover member {} is redundant: the remainder still implies the raw set",
            found.cover[i]
        );
    }
}

/// Minimality also holds on random databases, where the raw set is mostly
/// accidental structure: dropping any cover member loses part of the raw
/// set.
#[test]
fn cover_is_minimal_on_random_databases() {
    let mut rng = Rng::new(0x4D31);
    for round in 0..10 {
        let schema = small_schema(&mut rng);
        let db = random_database(&mut rng, &schema, 6, 3);
        let found = discover(&db);
        for i in 0..found.cover.len() {
            let mut rest = found.cover.clone();
            rest.remove(i);
            let still_complete = found.raw.iter().all(|d| implied_by(&rest, d));
            assert!(
                !still_complete,
                "round {round}: cover member {} is redundant",
                found.cover[i]
            );
        }
    }
}

/// Discovery → serving loop: seed the incremental catalog with a
/// discovered cover (always consistent, since discovery is sound), then
/// stream random delta batches that only re-insert existing projections —
/// delete-and-reinsert pairs and duplicate inserts. No batch may surface a
/// violation.
#[test]
fn discovered_cover_validates_reinsertion_deltas() {
    let mut rng = Rng::new(0xBEEF);
    for round in 0..15 {
        let schema = small_schema(&mut rng);
        let db = random_database(&mut rng, &schema, 10, 4);
        let found = discover(&db);
        let cat =
            CatalogState::new(&schema, &found.cover).expect("discovered covers are FDs and INDs");
        cat.seed(&db).expect("rows fit their schema");
        assert!(
            cat.snapshot().is_consistent(),
            "round {round}: a sound discovery must validate its own source"
        );
        for batch in 0..5 {
            let mut delta = Delta::new();
            for relation in db.relations() {
                let rel = relation.scheme().name().clone();
                for t in relation.tuples() {
                    match rng.below(4) {
                        // Net no-op: delete then re-insert the same row.
                        0 => {
                            delta.delete(rel.clone(), t.clone());
                            delta.insert(rel.clone(), t.clone());
                        }
                        // Duplicate insert of a live row.
                        1 => {
                            delta.insert(rel.clone(), t.clone());
                        }
                        _ => {}
                    }
                }
            }
            if delta.is_empty() {
                continue;
            }
            let mut session = cat.begin();
            session.stage(&delta).expect("delta applies");
            session.commit();
            assert!(
                cat.snapshot().is_consistent(),
                "round {round} batch {batch}: re-inserting existing projections must not violate"
            );
        }
    }
}

/// The raw set is exactly the satisfied fragment for unary INDs: brute-force
/// every ordered column pair against `core::satisfy` and compare.
#[test]
fn unary_raw_set_matches_brute_force() {
    let mut rng = Rng::new(0x5A5A);
    for round in 0..15 {
        let schema = small_schema(&mut rng);
        let db = random_database(&mut rng, &schema, 6, 3);
        let found = discover(&db);
        for ls in schema.schemes() {
            for rs in schema.schemes() {
                for la in ls.attrs().attrs() {
                    for ra in rs.attrs().attrs() {
                        let ind = depkit_core::Ind::new(
                            ls.name().clone(),
                            depkit_core::attr::AttrSeq::new(vec![la.clone()]).unwrap(),
                            rs.name().clone(),
                            depkit_core::attr::AttrSeq::new(vec![ra.clone()]).unwrap(),
                        )
                        .unwrap();
                        if ind.is_trivial() {
                            continue;
                        }
                        let dep: Dependency = ind.into();
                        let satisfied = db.satisfies(&dep).unwrap();
                        assert_eq!(
                            found.raw.contains(&dep),
                            satisfied,
                            "round {round}: {dep} (satisfied = {satisfied})"
                        );
                    }
                }
            }
        }
    }
}

/// Every canonical nontrivial IND of `db` up to `max_arity` (left positions
/// ascending, right positions pairwise distinct), each with its miss count
/// — left rows whose projection no right row carries — and its support,
/// the left relation's row count. Counted by hand over the row form.
fn brute_force_ind_misses(db: &Database, max_arity: usize) -> Vec<(Dependency, u64, u64)> {
    /// Every ascending `k`-subset of `0..n`.
    fn subsets(n: usize, k: usize, from: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in from..n {
            cur.push(i);
            subsets(n, k, i + 1, cur, out);
            cur.pop();
        }
    }
    /// Every sequence of `k` distinct members of `0..n`.
    fn arrangements(n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in 0..n {
            if !cur.contains(&i) {
                cur.push(i);
                arrangements(n, k, cur, out);
                cur.pop();
            }
        }
    }
    let mut out = Vec::new();
    for left in db.relations() {
        for right in db.relations() {
            let (ls, rs) = (left.scheme(), right.scheme());
            for k in 1..=max_arity.min(ls.arity()).min(rs.arity()) {
                let (mut lhs_sets, mut rhs_seqs) = (Vec::new(), Vec::new());
                subsets(ls.arity(), k, 0, &mut Vec::new(), &mut lhs_sets);
                arrangements(rs.arity(), k, &mut Vec::new(), &mut rhs_seqs);
                for lcols in &lhs_sets {
                    for rcols in &rhs_seqs {
                        if ls.name() == rs.name() && lcols == rcols {
                            continue;
                        }
                        let ind = depkit_core::Ind::new(
                            ls.name().clone(),
                            ls.attrs().select(lcols).unwrap(),
                            rs.name().clone(),
                            rs.attrs().select(rcols).unwrap(),
                        )
                        .unwrap();
                        let covered = right.project(rcols);
                        let misses = left
                            .tuples()
                            .filter(|t| !covered.contains(&t.project(lcols)))
                            .count();
                        out.push((ind.into(), misses as u64, left.len() as u64));
                    }
                }
            }
        }
    }
    out
}

/// Tolerant IND discovery of `db` against the brute-force oracle: at every
/// tolerance, thread count and memory budget, a canonical IND is mined iff
/// its hand-counted miss count fits `⌊max_error × support⌋`, and every
/// tolerant find is scored with exactly that count and support. A 1-byte
/// budget forces the spilled SPIDER streams and the key-shard passes.
/// Returns, over the tolerant cases, how many there were and in how many
/// a dirty IND was admitted.
fn check_against_brute_force(db: &Database, case: &str) -> (usize, usize) {
    let max_arity = DiscoveryConfig::default().max_ind_arity;
    let (mut tolerant_cases, mut dirty_cases) = (0usize, 0usize);
    let oracle = brute_force_ind_misses(db, max_arity);
    for (dep, misses, _) in &oracle {
        assert_eq!(
            *misses == 0,
            db.satisfies(dep).unwrap(),
            "{case}: hand count of {dep} disagrees with core::satisfy"
        );
    }
    for max_error in [0.0, 0.15, 0.3] {
        let mut admitted_dirty = false;
        for threads in [1usize, 2] {
            for memory_budget in [0usize, 1] {
                let config = DiscoveryConfig {
                    max_error,
                    threads,
                    memory_budget,
                    // Only the raw and scored sets are under test; the
                    // cover's cross-class pruning would dominate the run.
                    interaction_pruning: false,
                    ..DiscoveryConfig::default()
                };
                let found = discover_with_config(db, &config);
                let case = format!(
                    "{case}, max_error {max_error}, threads {threads}, budget {memory_budget}"
                );
                if max_error == 0.0 {
                    assert!(found.scored.is_empty(), "{case}: exact runs score nothing");
                }
                let mut admitted = 0;
                for (dep, misses, support) in &oracle {
                    let limit = (max_error * *support as f64).floor() as u64;
                    let keep = *misses <= limit;
                    assert_eq!(
                        found.raw.contains(dep),
                        keep,
                        "{case}: {dep} misses {misses} of {support} rows, limit {limit}"
                    );
                    if !keep {
                        continue;
                    }
                    admitted += 1;
                    admitted_dirty |= *misses > 0;
                    if max_error > 0.0 {
                        let scored = found
                            .scored
                            .iter()
                            .find(|s| &s.dep == dep)
                            .unwrap_or_else(|| panic!("{case}: {dep} mined but not scored"));
                        assert_eq!((scored.misses, scored.support), (*misses, *support));
                    }
                }
                let mined = found.raw.iter().filter(|d| d.as_ind().is_some()).count();
                assert_eq!(mined, admitted, "{case}: raw holds a non-canonical IND");
            }
        }
        if max_error > 0.0 {
            tolerant_cases += 1;
            dirty_cases += usize::from(admitted_dirty);
        }
    }
    (tolerant_cases, dirty_cases)
}

#[test]
fn tolerant_ind_discovery_matches_brute_force_miss_counts() {
    let (mut tolerant_cases, mut dirty_cases) = (0usize, 0usize);
    for seed in 0..64u64 {
        let mut rng = Rng::new(0x1D_0000 + seed);
        let schema = random_schema(
            &mut rng,
            &SchemaConfig {
                relations: 2,
                min_arity: 1,
                max_arity: 3,
            },
        );
        let db = random_database(&mut rng, &schema, 10, 3);
        let (tolerant, dirty) = check_against_brute_force(&db, &format!("seed {seed}"));
        tolerant_cases += tolerant;
        dirty_cases += dirty;
    }
    assert!(
        4 * dirty_cases >= tolerant_cases,
        "only {dirty_cases} of {tolerant_cases} tolerant cases admit a dirty IND"
    );
}

/// The same oracle on two arity-4 relations of 8–20 rows each. These
/// produce arity-3 candidates whose 2-projection is trivial
/// (`R[A, B, C] ⊆ R[A, B, D]`, composed over the trivial base
/// `R[A, B] ⊆ R[A, B]`), and candidates whose first miss comes only after
/// the first eight left rows.
#[test]
fn arity_four_ind_discovery_matches_brute_force_miss_counts() {
    let (mut tolerant_cases, mut dirty_cases) = (0usize, 0usize);
    let (mut trivial_based, mut late_misses) = (0usize, 0usize);
    for seed in 0..12u64 {
        let mut rng = Rng::new(0x4A_0000 + seed);
        let schema = random_schema(
            &mut rng,
            &SchemaConfig {
                relations: 2,
                min_arity: 4,
                max_arity: 4,
            },
        );
        let mut db = Database::empty(schema.clone());
        for scheme in schema.schemes() {
            for _ in 0..rng.range(8, 20) {
                let row: Vec<i64> = (0..4).map(|_| rng.below(3) as i64).collect();
                db.insert_ints(scheme.name().name(), &[&row]).unwrap();
            }
        }
        // Shape of the draw: ternary INDs inside one relation that share
        // two positions with their right side and fit the 30% tolerance,
        // and INDs whose first miss lies past row 8.
        for (dep, misses, support) in brute_force_ind_misses(&db, 3) {
            let ind = dep.as_ind().expect("the oracle lists INDs");
            let shared = ind
                .lhs_attrs
                .attrs()
                .iter()
                .zip(ind.rhs_attrs.attrs())
                .filter(|(l, r)| l == r)
                .count();
            let admitted = misses <= (0.3 * support as f64).floor() as u64;
            trivial_based += usize::from(admitted && ind.lhs_rel == ind.rhs_rel && shared == 2);
            late_misses += usize::from(first_miss(&db, ind).is_some_and(|r| r >= 8));
        }
        let (tolerant, dirty) = check_against_brute_force(&db, &format!("arity-4 seed {seed}"));
        tolerant_cases += tolerant;
        dirty_cases += dirty;
    }
    assert!(trivial_based > 0, "no tolerated IND over a trivial base");
    assert!(late_misses > 0, "no IND first misses past row 8");
    assert!(
        4 * dirty_cases >= tolerant_cases,
        "only {dirty_cases} of {tolerant_cases} tolerant cases admit a dirty IND"
    );
}

/// The position, in the left relation's row order, of the first row whose
/// projection the right side of `ind` lacks.
fn first_miss(db: &Database, ind: &depkit_core::Ind) -> Option<usize> {
    let left = db.relation(&ind.lhs_rel).unwrap();
    let right = db.relation(&ind.rhs_rel).unwrap();
    let positions = |rel: &depkit_core::Relation, attrs: &depkit_core::attr::AttrSeq| {
        let scheme = rel.scheme().attrs();
        attrs
            .attrs()
            .iter()
            .map(|a| scheme.position(a).unwrap())
            .collect::<Vec<usize>>()
    };
    let (lcols, rcols) = (
        positions(left, &ind.lhs_attrs),
        positions(right, &ind.rhs_attrs),
    );
    let covered = right.project(&rcols);
    left.tuples()
        .position(|t| !covered.contains(&t.project(&lcols)))
}

/// Discovery is read-only: the database is bit-identical afterwards.
#[test]
fn discovery_does_not_mutate_the_database() {
    let (_schema, _sigma, db) = referential_workload(50, 5);
    let before: Database = db.clone();
    let _found = discover(&db);
    assert_eq!(db, before);
}
