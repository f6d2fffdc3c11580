//! The Rule (*) chase from the proof of Theorem 3.1.
//!
//! Given INDs `Σ` and a candidate `σ = R_a[A_1..A_m] ⊆ R_b[B_1..B_m]`, the
//! paper constructs a finite database by seeding `r_a` with the tuple `p`
//! having `p[A_i] = i` and `0` elsewhere, then repeatedly applying
//!
//! > **Rule (\*).** If `R_i[C_1..C_k] ⊆ R_j[D_1..D_k]` is in `Σ` and tuple
//! > `u` is in `r_i`, add to `r_j` the tuple `t` with `t[D_v] = u[C_v]` and
//! > `t[A] = 0` for every other attribute `A` of `R_j`.
//!
//! The construction terminates because every entry lies in `{0, 1, ..., m}`.
//! The resulting database always satisfies `Σ`, and it satisfies `σ` iff
//! `Σ ⊨ σ` — so this is a *semantic* decision procedure for IND
//! implication, independent of the syntactic search in `depkit-solver`.
//! Because the database is finite, agreement of the two procedures is
//! exactly the paper's Theorem 3.1 equivalence `⊨ = ⊨_fin = ⊢` for INDs.

use depkit_core::column::RelationColumns;
use depkit_core::database::Database;
use depkit_core::dependency::Ind;
use depkit_core::error::CoreError;
use depkit_core::hashing::FastSet;
use depkit_core::intern::{Catalog, RelId};
use depkit_core::relation::Tuple;
use depkit_core::schema::DatabaseSchema;
use depkit_core::value::Value;
use std::collections::VecDeque;

/// Outcome of the Rule (*) chase.
#[derive(Debug, Clone)]
pub struct IndChaseResult {
    /// Whether `Σ ⊨ σ` (equivalently, whether the constructed database
    /// satisfies `σ`).
    pub implied: bool,
    /// The constructed database. It satisfies `Σ`; when `implied` is false
    /// it is a finite counterexample witnessing `Σ ⊭ σ`.
    pub database: Database,
    /// Number of tuples added by Rule (*) applications (excluding the seed).
    pub tuples_added: usize,
}

/// Run the Rule (*) chase for `sigma ⊨ target` over `schema`.
///
/// `max_tuples` caps the construction (the intrinsic bound is
/// `Σ_R (m+1)^arity(R)`, which can be astronomically large for wide
/// schemas); exceeding the cap returns an error rather than a wrong answer.
///
/// The chase runs entirely on the compiled representation: relations are
/// addressed by dense [`RelId`]s from a schema [`Catalog`], every tuple is a
/// bare `Vec<u32>` (Rule (*) entries all lie in `{0, ..., m}`), and each IND
/// of `Σ` is pre-compiled to a column gather. The [`Database`] with
/// [`Value`]-typed tuples is materialized once at the end.
pub fn ind_chase(
    schema: &DatabaseSchema,
    sigma: &[Ind],
    target: &Ind,
    max_tuples: usize,
) -> Result<IndChaseResult, CoreError> {
    target.is_well_formed(schema)?;
    for ind in sigma {
        ind.is_well_formed(schema)?;
    }

    // `Catalog::from_schema` guarantees RelId::index = scheme index, so the
    // per-relation state vectors below are addressed by RelId.
    let catalog = Catalog::from_schema(schema);
    let n_rels = schema.schemes().len();
    let rel_id = |name| {
        catalog
            .rel_id(name)
            .expect("well-formedness guarantees the relation is in the schema")
    };

    let m = target.arity();
    let ra = schema.require(&target.lhs_rel)?;
    let start_rel = rel_id(&target.lhs_rel);

    // Seed tuple p: p[A_i] = i (1-based), 0 elsewhere.
    let a_cols = ra.columns(&target.lhs_attrs)?;
    let mut seed = vec![0u32; ra.arity()];
    for (i, &c) in a_cols.iter().enumerate() {
        seed[c] = (i + 1) as u32;
    }

    // Compile each IND of Σ to a column gather, grouped by left relation id.
    struct Mapping {
        rhs_rel: RelId,
        lhs_cols: Vec<usize>,
        rhs_cols: Vec<usize>,
        rhs_arity: usize,
    }
    let mut by_lhs_rel: Vec<Vec<Mapping>> = (0..n_rels).map(|_| Vec::new()).collect();
    for ind in sigma {
        let l = schema.require(&ind.lhs_rel)?;
        let r = schema.require(&ind.rhs_rel)?;
        by_lhs_rel[rel_id(&ind.lhs_rel).index()].push(Mapping {
            rhs_rel: rel_id(&ind.rhs_rel),
            lhs_cols: l.columns(&ind.lhs_attrs)?,
            rhs_cols: r.columns(&ind.rhs_attrs)?,
            rhs_arity: r.arity(),
        });
    }

    // Per-relation state: a set of raw u32 rows for O(1) dedup, a
    // struct-of-arrays arena accumulating every *accepted* row in
    // insertion order (the columnar storage the materialization below
    // consumes), and the worklist.
    let mut rows: Vec<FastSet<Vec<u32>>> = vec![FastSet::default(); n_rels];
    let mut arenas: Vec<RelationColumns> = schema
        .schemes()
        .iter()
        .map(|s| RelationColumns::new(s.arity()))
        .collect();
    rows[start_rel.index()].insert(seed.clone());
    arenas[start_rel.index()].push_row(&seed);
    let mut total_tuples = 1usize;
    let mut tuples_added = 0usize;
    let mut queue: VecDeque<(RelId, Vec<u32>)> = VecDeque::from([(start_rel, seed)]);

    while let Some((rel, u)) = queue.pop_front() {
        for map in &by_lhs_rel[rel.index()] {
            let mut t = vec![0u32; map.rhs_arity];
            for (&lc, &rc) in map.lhs_cols.iter().zip(&map.rhs_cols) {
                t[rc] = u[lc];
            }
            if rows[map.rhs_rel.index()].insert(t.clone()) {
                arenas[map.rhs_rel.index()].push_row(&t);
                tuples_added += 1;
                total_tuples += 1;
                if total_tuples > max_tuples {
                    return Err(CoreError::SymbolicTooComplex(format!(
                        "Rule (*) chase exceeded the cap of {max_tuples} tuples"
                    )));
                }
                queue.push_back((map.rhs_rel, t));
            }
        }
    }

    // σ holds iff r_b contains a tuple p' with p'[B_i] = i for all i —
    // checked as one scan down the goal relation's B columns.
    let b_cols = schema
        .require(&target.rhs_rel)?
        .columns(&target.rhs_attrs)?;
    let goal = &arenas[rel_id(&target.rhs_rel).index()];
    let implied = (0..goal.row_count()).any(|r| {
        b_cols
            .iter()
            .enumerate()
            .all(|(i, &c)| goal.column(c)[r] as usize == i + 1)
    });
    debug_assert!(m == b_cols.len());

    // Materialize the value-typed database once, at the boundary: every
    // chase entry lies in {0, ..., m}, so the Value table is built once
    // and each arena row is gathered straight from its columns — no
    // per-row name resolution, no intermediate row vectors.
    let int_values: Vec<Value> = (0..=m as u32).map(|v| Value::Int(v as i64)).collect();
    let mut db = Database::empty(schema.clone());
    for (r, arena) in arenas.iter().enumerate() {
        let name = schema.schemes()[r].name().clone();
        let relation = db.relation_mut(&name)?;
        for row in 0..arena.row_count() {
            let vals: Vec<Value> = (0..arena.arity())
                .map(|c| int_values[arena.column(c)[row] as usize].clone())
                .collect();
            relation.insert(Tuple::new(vals))?;
        }
    }

    Ok(IndChaseResult {
        implied,
        database: db,
        tuples_added,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use depkit_core::parser::parse_dependency;
    use depkit_core::Dependency;

    fn ind(src: &str) -> Ind {
        match parse_dependency(src).unwrap() {
            Dependency::Ind(i) => i,
            _ => panic!("not an IND"),
        }
    }

    fn schema(decls: &[&str]) -> DatabaseSchema {
        DatabaseSchema::parse(decls).unwrap()
    }

    #[test]
    fn chase_agrees_on_transitivity() {
        let s = schema(&["R(A)", "S(B)", "T(C)"]);
        let sigma = vec![ind("R[A] <= S[B]"), ind("S[B] <= T[C]")];
        let res = ind_chase(&s, &sigma, &ind("R[A] <= T[C]"), 10_000).unwrap();
        assert!(res.implied);
        let res2 = ind_chase(&s, &sigma, &ind("T[C] <= R[A]"), 10_000).unwrap();
        assert!(!res2.implied);
    }

    #[test]
    fn constructed_database_satisfies_sigma() {
        let s = schema(&["R(A, B)", "S(C, D)"]);
        let sigma = vec![ind("R[A, B] <= S[C, D]"), ind("S[D] <= R[A]")];
        let res = ind_chase(&s, &sigma, &ind("R[B] <= S[D]"), 10_000).unwrap();
        for i in &sigma {
            assert!(
                res.database.satisfies(&i.clone().into()).unwrap(),
                "chase database must satisfy Σ, violated {i}"
            );
        }
        assert!(res.implied);
    }

    #[test]
    fn counterexample_database_refutes_sigma() {
        let s = schema(&["R(A, B)", "S(C, D)"]);
        let sigma = vec![ind("R[A] <= S[C]")];
        let target = ind("R[B] <= S[D]");
        let res = ind_chase(&s, &sigma, &target, 10_000).unwrap();
        assert!(!res.implied);
        // The database is a genuine countermodel.
        assert!(res.database.satisfies(&sigma[0].clone().into()).unwrap());
        assert!(!res.database.satisfies(&target.clone().into()).unwrap());
    }

    #[test]
    fn permutation_example_walks_the_cycle() {
        // σ(γ) with γ a 3-cycle: chase adds 2 tuples to reach the goal,
        // plus continues to closure.
        let s = schema(&["R(A, B, C)"]);
        let sigma = vec![ind("R[A, B, C] <= R[B, C, A]")];
        let res = ind_chase(&s, &sigma, &ind("R[A, B, C] <= R[C, A, B]"), 10_000).unwrap();
        assert!(res.implied);
        // The chase closes the full cycle: tuples (1,2,3), (3,1,2), (2,3,1).
        assert_eq!(res.database.total_tuples(), 3);
    }

    #[test]
    fn reflexive_target_is_trivially_implied() {
        let s = schema(&["R(A, B)"]);
        let res = ind_chase(&s, &[], &ind("R[A, B] <= R[A, B]"), 100).unwrap();
        assert!(res.implied);
        assert_eq!(res.tuples_added, 0);
    }

    #[test]
    fn cap_is_enforced() {
        // Wide fanout: each application creates new padded tuples.
        let s = schema(&["R(A, B)", "S(C, D)"]);
        let sigma = vec![
            ind("R[A] <= S[C]"),
            ind("S[C] <= R[B]"),
            ind("R[B] <= S[D]"),
            ind("S[D] <= R[A]"),
        ];
        // A cap of 1 must trip immediately.
        let err = ind_chase(&s, &sigma, &ind("R[A] <= S[D]"), 1);
        assert!(err.is_err());
    }

    #[test]
    fn agreement_with_syntactic_solver_on_random_instances() {
        // Theorem 3.1's equivalence (1) ⇔ (3), machine-checked on random
        // IND sets.
        use depkit_core::generate::{random_ind_set, random_schema, Rng, SchemaConfig};
        use depkit_solver::ind::IndSolver;
        let mut rng = Rng::new(0xC0FFEE);
        for round in 0..60 {
            let schema = random_schema(
                &mut rng,
                &SchemaConfig {
                    relations: 3,
                    min_arity: 2,
                    max_arity: 3,
                },
            );
            let sigma = random_ind_set(&mut rng, &schema, 4, 2);
            let Some(target) = depkit_core::generate::random_ind(&mut rng, &schema, 2) else {
                continue;
            };
            let syntactic = IndSolver::new(&sigma).implies(&target);
            let semantic = ind_chase(&schema, &sigma, &target, 200_000)
                .unwrap()
                .implied;
            assert_eq!(
                syntactic, semantic,
                "round {round}: solver and Rule (*) chase disagree on {target} under {sigma:?}"
            );
        }
    }
}
