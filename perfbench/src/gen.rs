//! Seeded input generators. The program under test only ever sees what
//! these produce: a `.dep` spec file (and, for serve, the request lines
//! built from it). The same seed yields byte-identical inputs.

use depkit_core::prelude::*;
use std::io::{self, Write};
use std::path::Path;

/// SplitMix64: tiny, seedable, and good enough to scatter benchmark data.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A stateless hash of `(seed, a, b)`, for choices that must be a pure
/// function of their position (the k-th churn pair, say).
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    Rng::new(seed ^ a.wrapping_mul(0xA24B_AED4_963E_E407) ^ b.wrapping_mul(0x9FB2_1C65_1E98_DF25))
        .next_u64()
}

/// One relation's rows, flat, all integer cells.
#[derive(Debug, Clone)]
pub struct Rel {
    pub name: &'static str,
    pub arity: usize,
    pub cells: Vec<i64>,
}

impl Rel {
    fn new(name: &'static str, arity: usize, rows: usize) -> Rel {
        Rel {
            name,
            arity,
            cells: Vec::with_capacity(arity * rows),
        }
    }

    fn push(&mut self, row: &[i64]) {
        debug_assert_eq!(row.len(), self.arity);
        self.cells.extend_from_slice(row);
    }

    pub fn rows(&self) -> impl Iterator<Item = &[i64]> {
        self.cells.chunks_exact(self.arity)
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.cells.len() / self.arity
    }
}

/// A generated spec: schema, declared dependencies, and inline rows.
#[derive(Debug, Clone)]
pub struct Input {
    pub decls: Vec<&'static str>,
    pub deps: Vec<&'static str>,
    pub rels: Vec<Rel>,
}

impl Input {
    pub fn schema(&self) -> DatabaseSchema {
        DatabaseSchema::parse(&self.decls).expect("generated schema parses")
    }

    pub fn sigma(&self) -> Vec<Dependency> {
        self.deps
            .iter()
            .map(|d| d.parse().expect("generated dependency parses"))
            .collect()
    }

    pub fn rel(&self, name: &str) -> &Rel {
        self.rels
            .iter()
            .find(|r| r.name == name)
            .expect("generated relation exists")
    }

    /// The spec file text, in the format `depkit` parses.
    pub fn spec_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.rels.iter().map(|r| r.cells.len() * 9).sum());
        for d in &self.decls {
            writeln!(out, "schema {d}").expect("writing to a Vec cannot fail");
        }
        for d in &self.deps {
            writeln!(out, "dep {d}").expect("writing to a Vec cannot fail");
        }
        for rel in &self.rels {
            for row in rel.rows() {
                out.extend_from_slice(b"row ");
                out.extend_from_slice(rel.name.as_bytes());
                for v in row {
                    write!(out, " {v}").expect("writing to a Vec cannot fail");
                }
                out.push(b'\n');
            }
        }
        out
    }

    pub fn write_spec(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.spec_bytes())
    }

    /// The database the spec's `row` lines describe, built directly.
    pub fn database(&self) -> Database {
        let mut db = Database::empty(self.schema());
        for rel in &self.rels {
            let name = RelName::new(rel.name);
            for row in rel.rows() {
                let t = Tuple::new(row.iter().map(|&v| Value::Int(v)).collect());
                db.insert(&name, t).expect("generated row fits its scheme");
            }
        }
        db
    }
}

// ---------------------------------------------------------------------------
// Serve: the referential workload and its churn
// ---------------------------------------------------------------------------

pub const SERVE_EMPS: usize = 100_000;
pub const SERVE_DEPTS: usize = 64;

/// `EMP(EID, DNO)` × `DEPT(DNO, MGR)` under the paper's running Σ, the
/// shape of `depkit_bench::referential_workload`; the seed scatters
/// employees over departments.
pub fn referential(seed: u64) -> Input {
    let mut rng = Rng::new(seed);
    let mut dept = Rel::new("DEPT", 2, SERVE_DEPTS);
    for d in 0..SERVE_DEPTS as i64 {
        dept.push(&[d, 1_000_000 + d]);
    }
    let mut emp = Rel::new("EMP", 2, SERVE_EMPS);
    for e in 0..SERVE_EMPS as i64 {
        emp.push(&[e, rng.below(SERVE_DEPTS as u64) as i64]);
    }
    Input {
        decls: vec!["EMP(EID, DNO)", "DEPT(DNO, MGR)"],
        deps: vec![
            "EMP[DNO] <= DEPT[DNO]",
            "EMP: EID -> DNO",
            "DEPT: DNO -> MGR",
        ],
        rels: vec![emp, dept],
    }
}

/// One staged operation of a writer transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub insert: bool,
    pub row: [i64; 2],
}

impl Op {
    /// The protocol request line for this operation.
    pub fn line(&self) -> String {
        format!(
            r#"{{"cmd":"{}","rel":"EMP","row":[{},{}]}}"#,
            if self.insert { "insert" } else { "delete" },
            self.row[0],
            self.row[1]
        )
    }
}

/// Churn pairs over a sliding EID window: pair `k` replaces two employees
/// with fresh hires in other (existing) departments, and its inverse puts
/// them back, so every committed generation satisfies Σ and the state
/// returns to the seed after each pair.
#[derive(Debug, Clone)]
pub struct Churn {
    seed: u64,
    base: usize,
    dno: Vec<i64>,
}

/// Employees replaced per transaction ("2 delete/insert churn pairs").
pub const CHURN_WIDTH: usize = 2;

impl Churn {
    pub fn new(input: &Input, seed: u64) -> Churn {
        let emp = input.rel("EMP");
        let dno: Vec<i64> = emp.rows().map(|r| r[1]).collect();
        debug_assert!(emp.rows().enumerate().all(|(i, r)| r[0] == i as i64));
        Churn {
            seed,
            base: (mix(seed, 0, 0) % dno.len() as u64) as usize,
            dno,
        }
    }

    /// The forward transaction of pair `k` and its inverse.
    pub fn pair(&self, k: u64) -> (Vec<Op>, Vec<Op>) {
        let n = self.dno.len();
        let mut fwd = Vec::with_capacity(2 * CHURN_WIDTH);
        let mut inv = Vec::with_capacity(2 * CHURN_WIDTH);
        for i in 0..CHURN_WIDTH {
            let eid = (self.base + (k as usize * CHURN_WIDTH + i) % n) % n;
            let old = [eid as i64, self.dno[eid]];
            let shift = 1 + mix(self.seed, k, i as u64) % (SERVE_DEPTS as u64 - 1);
            let hire = [
                (eid + n) as i64,
                (old[1] + shift as i64) % SERVE_DEPTS as i64,
            ];
            fwd.push(Op {
                insert: false,
                row: old,
            });
            fwd.push(Op {
                insert: true,
                row: hire,
            });
            inv.push(Op {
                insert: false,
                row: hire,
            });
            inv.push(Op {
                insert: true,
                row: old,
            });
        }
        (fwd, inv)
    }
}

// ---------------------------------------------------------------------------
// Discover inputs
// ---------------------------------------------------------------------------

/// 400k rows keep one CLI run near 0.7 s on a 2-core machine, so a 25 s
/// run times about 30 of them, while the `--memory-budget 8M` run still
/// spills. The dirty share (0.5%) is that of the 1M-row bench input.
pub const TALL_CLEAN: usize = 400_000;
pub const TALL_DIRTY: usize = 2_000;
pub const TALL_DEPTS: usize = 64;

/// Planted dependencies `discover-tall` must score at exactly
/// `TALL_DIRTY` misses over `TALL_CLEAN + TALL_DIRTY` rows.
pub const TALL_PLANTED: [&str; 2] = ["EMP: EID -> DNO", "EMP[DNO] <= DEPT[DNO]"];

/// `EMP(EID, DNO, SAL)` with `TALL_DIRTY` corrupt rows in the manner of
/// `depkit_bench::dirty_referential_columns`: a seeded set of employees
/// gains a second row (same salary) pointing at a dangling department, so
/// the key FD and the foreign key each miss on exactly those rows.
pub fn tall(seed: u64) -> Input {
    let mut rng = Rng::new(seed);
    let mut dept = Rel::new("DEPT", 2, TALL_DEPTS);
    for d in 0..TALL_DEPTS as i64 {
        dept.push(&[d, -1 - d]);
    }
    let mut emp = Rel::new("EMP", 3, TALL_CLEAN + TALL_DIRTY);
    let mut sal = Vec::with_capacity(TALL_CLEAN);
    for e in 0..TALL_CLEAN as i64 {
        let s = 2_000_000 + rng.below(50_000) as i64;
        sal.push(s);
        emp.push(&[e, rng.below(TALL_DEPTS as u64) as i64, s]);
    }
    // A seeded stride walk picks TALL_DIRTY distinct employees.
    let stride = loop {
        let s = 1 + rng.below(TALL_CLEAN as u64 - 1) as usize;
        if gcd(s, TALL_CLEAN) == 1 {
            break s;
        }
    };
    let start = rng.below(TALL_CLEAN as u64) as usize;
    for i in 0..TALL_DIRTY {
        let e = (start + i * stride) % TALL_CLEAN;
        emp.push(&[e as i64, (TALL_CLEAN + i) as i64, sal[e]]);
    }
    Input {
        decls: vec!["EMP(EID, DNO, SAL)", "DEPT(DNO, MGR)"],
        deps: TALL_PLANTED.to_vec(),
        rels: vec![emp, dept],
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Dependencies planted in `wide`; each must be in the exact raw set.
pub const WIDE_PLANTED: [&str; 6] = [
    "R: B -> C",
    "R: D, E -> F",
    "R: G -> H",
    "S[Q] <= R[B]",
    "S[U, V] <= R[D, E]",
    "T[X, Y] <= S[P, Q]",
];

pub const WIDE_R: usize = 20_000;
pub const WIDE_S: usize = 10_000;
pub const WIDE_T: usize = 5_000;

/// Seed of the one `wide` structure every seed relabels.
const WIDE_SHAPE_SEED: u64 = 0x5EED_0FD1;

/// Three relations of 8, 4 and 3 small-domain columns with planted FDs
/// and unary, binary INDs: the small overlapping domains make many
/// accidental inclusions (n-ary IND candidates) and a deep FD lattice, so
/// mining and `minimize_cover` dominate rather than parsing.
///
/// Which dependencies such data satisfies by accident varies a lot with
/// the random draw, and with it the mining work. So the rows come from
/// one fixed draw and `seed` only relabels the values through a random
/// bijection: every seed has the same dependencies and the same lattice,
/// over different values in a different row order.
pub fn wide(seed: u64) -> Input {
    let mut rng = Rng::new(WIDE_SHAPE_SEED);
    let mut r = Rel::new("R", 8, WIDE_R);
    for a in 0..WIDE_R as i64 {
        let b = rng.below(500) as i64;
        let c = (b * 7 + 3) % 311;
        let d = rng.below(50) as i64;
        let e = rng.below(40) as i64;
        let f = (d * 13 + e * 5) % 97;
        let g = rng.below(2_000) as i64;
        let h = (g * 31) % 1_009;
        r.push(&[a, b, c, d, e, f, g, h]);
    }
    let rrows: Vec<&[i64]> = r.rows().collect();
    let mut s = Rel::new("S", 4, WIDE_S);
    for p in 0..WIDE_S as i64 {
        let q = rrows[rng.below(WIDE_R as u64) as usize][1];
        let src = rrows[rng.below(WIDE_R as u64) as usize];
        s.push(&[p * 2, q, src[3], src[4]]);
    }
    let srows: Vec<&[i64]> = s.rows().collect();
    let mut t = Rel::new("T", 3, WIDE_T);
    for _ in 0..WIDE_T {
        let src = srows[rng.below(WIDE_S as u64) as usize];
        t.push(&[src[0], src[1], rng.below(300) as i64]);
    }
    let mut rels = vec![r, s, t];
    relabel(&mut rels, seed);
    Input {
        decls: vec!["R(A, B, C, D, E, F, G, H)", "S(P, Q, U, V)", "T(X, Y, Z)"],
        deps: WIDE_PLANTED.to_vec(),
        rels,
    }
}

/// Map every value through one seeded permutation of the values used.
/// A bijection applied to all columns alike preserves every FD and IND.
fn relabel(rels: &mut [Rel], seed: u64) {
    let mut values: Vec<i64> = rels.iter().flat_map(|r| r.cells.iter().copied()).collect();
    values.sort_unstable();
    values.dedup();
    let mut image = values.clone();
    let mut rng = Rng::new(seed);
    for i in (1..image.len()).rev() {
        image.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for r in rels {
        for v in &mut r.cells {
            *v = image[values.binary_search(v).expect("value was collected")];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        assert_eq!(wide(7).spec_bytes(), wide(7).spec_bytes());
        assert_ne!(wide(7).spec_bytes(), wide(8).spec_bytes());
        assert_eq!(referential(3).spec_bytes(), referential(3).spec_bytes());
    }

    #[test]
    fn relabeling_is_a_bijection() {
        let mut rels = vec![Rel {
            name: "R",
            arity: 2,
            cells: vec![1, 2, 2, 3, 3, 1, 1, 2],
        }];
        relabel(&mut rels, 9);
        let c = &rels[0].cells;
        // Equal values stay equal, distinct values stay distinct.
        assert_eq!(c[0], c[5]);
        assert_eq!(c[0], c[6]);
        assert_eq!(c[1], c[2]);
        assert_eq!(c[3], c[4]);
        let mut distinct = c.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct, vec![1, 2, 3]);
    }

    #[test]
    fn churn_pairs_invert_and_keep_sigma() {
        let input = referential(11);
        let churn = Churn::new(&input, 11);
        let emp = input.rel("EMP");
        for k in [0, 1, 49_999, 50_000, 123_456] {
            let (fwd, inv) = churn.pair(k);
            assert_eq!(fwd.len(), 2 * CHURN_WIDTH);
            // Each delete/insert pair is undone by the swapped pair.
            for (j, f) in fwd.iter().enumerate() {
                assert_eq!(f.row, inv[j ^ 1].row);
                assert_ne!(f.insert, inv[j ^ 1].insert);
            }
            for op in &fwd {
                let [eid, dno] = op.row;
                assert!((0..SERVE_DEPTS as i64).contains(&dno), "valid department");
                if !op.insert {
                    // Deletes name a seeded row exactly.
                    let row = emp.rows().nth(eid as usize).unwrap();
                    assert_eq!(row, &op.row[..]);
                } else {
                    assert!(eid >= SERVE_EMPS as i64, "hires use fresh EIDs");
                }
            }
        }
        assert_eq!(
            Op {
                insert: true,
                row: [7, 3]
            }
            .line(),
            r#"{"cmd":"insert","rel":"EMP","row":[7,3]}"#
        );
    }

    #[test]
    fn tall_plants_exactly_the_dirty_rows() {
        // Shape only (a full-size build is the benchmark's job).
        let input = tall(5);
        let emp = input.rel("EMP");
        assert_eq!(emp.len(), TALL_CLEAN + TALL_DIRTY);
        let mut dirty: Vec<i64> = emp.rows().skip(TALL_CLEAN).map(|r| r[0]).collect();
        dirty.sort_unstable();
        dirty.dedup();
        assert_eq!(dirty.len(), TALL_DIRTY, "distinct corrupted employees");
    }
}
