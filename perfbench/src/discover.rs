//! `discover-tall` and `discover-wide`: the `depkit discover` CLI as a
//! user runs it, spawn to exit, on a generated spec file.
//!
//! Every run first mines the same input in-process through the public
//! layers (`ColumnStore::new`, `discover_store`, `minimize_cover`), timing
//! each call. That result is the reference every CLI run's cover and
//! ranking must reproduce, and in the traced run its timings split the
//! CLI's wall time by layer; what they do not cover (spec parse,
//! cross-check, render, process start) is `cli.residual_s`.
//!
//! The CLI's wall time, CPU time and peak RSS come from a small helper
//! process that starts it (`counters::run_measured`), because a child of
//! this process, which holds the whole input, would report this process's
//! peak RSS. Every input build and every CLI run is bracketed by passes of
//! the reference kernel (`calib`), which rescale its time to the reference
//! host speed.

use crate::calib::{self, Bracket, Kernel};
use crate::gen::{self, Input};
use crate::stats::{self, Samples};
use crate::trace::{self, Spans};
use crate::{counters, Args, Report};
use depkit_core::{ColumnStore, Dependency};
use depkit_solver::discover::{discover_store, minimize_cover, Discovery, DiscoveryConfig};
use std::error::Error;
use std::ffi::OsString;
use std::path::Path;
use std::time::{Duration, Instant};

/// Input builds per run; `setup_s` is their median.
const SETUPS: usize = 21;
const THREADS: usize = 2;
/// In-process passes over the layers in the traced run.
const LAYER_REPEATS: usize = 3;
/// `discover-tall`: `--max-error 0.01 --memory-budget 8M`.
const TALL_MAX_ERROR: f64 = 0.01;
const TALL_BUDGET: usize = 8 << 20;
/// What `discover-wide`'s data satisfies, the same for every seed (the
/// seed only relabels values): 16 minimal FDs and 88 canonical INDs
/// within the default caps.
const WIDE_RAW: (usize, usize) = (16, 88);

type BoxResult<T> = Result<T, Box<dyn Error>>;

/// The lines of `depkit discover` output the CLI must reproduce from the
/// in-process reference.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Rendered {
    pub raw: String,
    pub cover: Vec<String>,
    pub ranked: Vec<String>,
}

impl Rendered {
    /// Render the reference exactly as the CLI prints these lines.
    pub fn of(found: &Discovery, config: &DiscoveryConfig) -> Rendered {
        let s = &found.stats;
        Rendered {
            raw: format!(
                "raw: {} FDs + {} INDs ({} FD candidates, {} composed IND candidates checked)",
                s.raw_fds, s.raw_inds, s.fd_candidates, s.ind_candidates
            ),
            cover: found.cover.iter().map(|d| format!("dep {d}")).collect(),
            ranked: if config.max_error > 0.0 {
                found
                    .ranked(config.top_k)
                    .iter()
                    .enumerate()
                    .map(|(i, s)| {
                        format!(
                            "  #{} {}  confidence {:.4}, support {}, misses {}",
                            i + 1,
                            s.dep,
                            s.confidence(),
                            s.support,
                            s.misses
                        )
                    })
                    .collect()
            } else {
                Vec::new()
            },
        }
    }

    /// Pick the same lines out of CLI stdout.
    pub fn parse(stdout: &str) -> Rendered {
        let mut out = Rendered::default();
        for line in stdout.lines() {
            if line.starts_with("raw: ") {
                out.raw = line.to_owned();
            } else if line.starts_with("dep ") {
                out.cover.push(line.to_owned());
            } else if line.starts_with("  #") {
                out.ranked.push(line.to_owned());
            }
        }
        out
    }
}

/// The exactly satisfied part of `raw`, which the cover is minimized
/// over (approximate dependencies never enter it).
fn exact_part(found: &Discovery) -> Vec<Dependency> {
    let mut dirty: Vec<&Dependency> = found
        .scored
        .iter()
        .filter(|s| s.misses > 0)
        .map(|s| &s.dep)
        .collect();
    dirty.sort();
    found
        .raw
        .iter()
        .filter(|d| dirty.binary_search(d).is_err())
        .cloned()
        .collect()
}

/// Planted-shape checks that must hold before anything is timed.
fn shape_problems(tall: bool, found: &Discovery) -> Vec<String> {
    let mut problems = Vec::new();
    if tall {
        let support = (gen::TALL_CLEAN + gen::TALL_DIRTY) as u64;
        for planted in gen::TALL_PLANTED {
            let dep: Dependency = planted.parse().expect("static dependency parses");
            let hit = found.scored.iter().find(|s| s.dep == dep);
            if hit.map(|s| (s.misses, s.support)) != Some((gen::TALL_DIRTY as u64, support)) {
                problems.push(format!("`{planted}` scored {hit:?}"));
            }
        }
    } else {
        for planted in gen::WIDE_PLANTED {
            let dep: Dependency = planted.parse().expect("static dependency parses");
            if !found.raw.contains(&dep) {
                problems.push(format!("planted `{planted}` was not mined"));
            }
        }
        let raw = (found.stats.raw_fds, found.stats.raw_inds);
        if raw != WIDE_RAW {
            problems.push(format!("mined {raw:?} (FDs, INDs), expected {WIDE_RAW:?}"));
        }
    }
    problems
}

pub fn run(args: &Args, dir: &Path, tall: bool, report: &mut Report) -> BoxResult<()> {
    let spec = dir.join("input.dep");
    let kernel = Kernel::new();
    let mut host = Bracket::new(&kernel);
    let mut setups = Samples::new();
    let mut input: Option<Input> = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let built = if tall {
            gen::tall(args.seed)
        } else {
            gen::wide(args.seed)
        };
        built.write_spec(&spec)?;
        // Building the input is on-CPU work of this process throughout.
        let t = t0.elapsed().as_secs_f64();
        setups.push(calib::at_reference_speed(t, t, host.after_op()));
        input = Some(built);
    }
    let input = input.expect("built at least once");
    let spill = dir.join("spill");
    std::fs::create_dir_all(&spill)?;
    let config = DiscoveryConfig {
        threads: THREADS,
        memory_budget: if tall { TALL_BUDGET } else { 0 },
        spill_dir: tall.then(|| spill.clone()),
        max_error: if tall { TALL_MAX_ERROR } else { 0.0 },
        ..DiscoveryConfig::default()
    };

    // The in-process reference, one public layer at a time; the traced
    // run repeats it and keeps each layer's median.
    let origin = Instant::now();
    let mut spans = Spans::new(origin, 1, args.trace);
    let schema = input.schema();
    let db = input.database();
    drop(input);
    let (mut intern_s, mut store_s, mut minimize_s) =
        (Samples::new(), Samples::new(), Samples::new());
    let mut found: Option<Discovery> = None;
    let mut exact = Vec::new();
    for _ in 0..if args.trace { LAYER_REPEATS } else { 1 } {
        let t0 = Instant::now();
        let store = ColumnStore::new(&db);
        let t1 = Instant::now();
        let mined = discover_store(&schema, &store, &config)?;
        let t2 = Instant::now();
        drop(store);
        exact = exact_part(&mined);
        let t3 = Instant::now();
        let cover = minimize_cover(&exact, &config);
        let t4 = Instant::now();
        spans.span("column.intern", t0, t1, None, None);
        spans.span("discover.discover_store", t1, t2, None, None);
        spans.span("discover.minimize_cover", t3, t4, None, None);
        intern_s.push((t1 - t0).as_secs_f64());
        store_s.push((t2 - t1).as_secs_f64());
        minimize_s.push((t4 - t3).as_secs_f64());
        report.attempted += 1;
        if cover != mined.cover {
            report.fail(
                "minimize_cover over the exact raw set disagrees with discover_store's cover",
            );
        }
        if found
            .as_ref()
            .is_some_and(|f| (&f.raw, &f.cover) != (&mined.raw, &mined.cover))
        {
            report.fail("in-process discovery is not deterministic");
        }
        found = Some(mined);
    }
    drop(db);
    let found = found.expect("mined at least once");
    let intern_s = intern_s.p50().expect("timed");
    let minimize_s = minimize_s.p50().expect("timed");
    let mine_s = stats::mine_s(store_s.p50().expect("timed"), minimize_s);
    for p in shape_problems(tall, &found) {
        report.fail(format!("input shape: {p}"));
    }
    let expected = Rendered::of(&found, &config);

    // The CLI, as a user runs it: one warm-up, then closed-loop runs.
    let mut cli: Vec<OsString> = vec!["discover".into(), spec.into_os_string()];
    cli.extend(["--threads".into(), THREADS.to_string().into()]);
    if tall {
        cli.extend([
            "--max-error".into(),
            TALL_MAX_ERROR.to_string().into(),
            "--memory-budget".into(),
            "8M".into(),
            "--spill-dir".into(),
            spill.into_os_string(),
        ]);
    }
    // Each run goes through the measuring helper, so its peak RSS is the
    // CLI's own and not this process's (see `counters::run_measured`).
    let helper = std::env::current_exe()?;
    let cost_file = dir.join("cli.cost");
    let mut peak_rss_kib = 0u64;
    let mut run_once = |report: &mut Report, spans: &mut Spans| -> BoxResult<counters::ChildCost> {
        report.attempted += 1;
        let t0 = Instant::now();
        let (out, cost) = counters::run_measured(&helper, &cost_file, &args.depkit, &cli)?;
        spans.span("cli.discover", t0, t0 + cost.wall, None, None);
        peak_rss_kib = peak_rss_kib.max(cost.max_rss_kib);
        if !out.status.success() {
            report.fail(format!(
                "depkit discover exited {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        } else if Rendered::parse(&String::from_utf8_lossy(&out.stdout)) != expected {
            report.fail("depkit discover output differs from in-process discover_store");
        }
        Ok(cost)
    };
    run_once(report, &mut spans)?;
    let (mut wall_ms, mut op_ms, mut kernel_ms) = (Samples::new(), Samples::new(), Samples::new());
    let mut host = Bracket::new(&kernel);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut busy_s = 0.0;
    while wall_ms.is_empty() || Instant::now() < deadline {
        let cost = run_once(report, &mut spans)?;
        let (wall, cpu) = (cost.wall.as_secs_f64() * 1e3, cost.cpu.as_secs_f64() * 1e3);
        let k = host.after_op();
        busy_s += wall / 1e3;
        wall_ms.push(wall);
        op_ms.push(calib::at_reference_speed(wall, cpu, k));
        kernel_ms.push(k);
    }
    println!("# depkit discover wall times (ms): {wall_ms}");
    println!("# ... at the reference host speed (ms): {op_ms}");
    println!("# reference kernel beside them (ms): {kernel_ms}");

    let n = wall_ms.len();
    let p50_ms = wall_ms.p50().expect("at least one timed run");
    report.percentile("setup_s", &mut setups, 50.0);
    report.metric("peak_rss_mb", peak_rss_kib as f64 / 1024.0, n + 1);
    report.percentile("op_ms.p50", &mut op_ms, 50.0);
    report.percentile("op_ms.p90", &mut op_ms, 90.0);
    report.percentile("op_wall_ms.p50", &mut wall_ms, 50.0);
    report.percentile("op_wall_ms.p90", &mut wall_ms, 90.0);
    report.metric("ops_per_s", n as f64 / busy_s, n);
    report.percentile("host.kernel_ms", &mut kernel_ms, 50.0);
    if !args.trace {
        return Ok(());
    }

    let s = &found.stats;
    report.metric(
        "cli.residual_s",
        stats::cli_residual_s(p50_ms / 1e3, intern_s, mine_s, minimize_s),
        n,
    );
    report.metric("column.intern_s", intern_s, LAYER_REPEATS);
    report.metric("discover.mine_s", mine_s, LAYER_REPEATS);
    report.metric("discover.minimize_s", minimize_s, LAYER_REPEATS);
    report.metric("discover.fd_candidates", s.fd_candidates as f64, 1);
    report.metric("discover.ind_candidates", s.ind_candidates as f64, 1);
    report.metric(
        "discover.fd_yield",
        stats::ratio(s.raw_fds as f64, s.fd_candidates as f64),
        1,
    );
    let nary_inds = found
        .raw
        .iter()
        .filter(|d| d.as_ind().is_some_and(|i| i.arity() > 1))
        .count();
    report.metric(
        "discover.ind_yield",
        stats::ratio(nary_inds as f64, s.ind_candidates as f64),
        1,
    );
    report.metric(
        "discover.pruned_frac",
        stats::ratio(s.pruned as f64, exact.len() as f64),
        1,
    );
    report.metric("discover.scored", found.scored.len() as f64, 1);
    let sp = &found.spill;
    report.metric("spill.columns", sp.spilled_columns as f64, 1);
    report.metric("spill.runs_written", sp.runs_written as f64, 1);
    report.metric("spill.bytes_spilled", sp.bytes_spilled as f64, 1);
    report.metric("spill.merge_passes", sp.merge_passes as f64, 1);
    report.count("bench.op_samples", n);
    let path = args
        .work
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    trace::write_chrome(&path, &[&spans])?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_lines_are_picked_out_of_stdout() {
        let stdout = "profiled 3 rows, 2 columns, 3 distinct values\n\
                      raw: 1 FDs + 0 INDs (2 FD candidates, 0 composed IND candidates checked)\n\
                      cover: 1 dependencies (0 pruned as implied by the rest)\n\
                      dep R: A -> B\n\
                      ranked: top 1 of 1 scored dependencies (by confidence × support):\n  \
                      #1 R: A -> B  confidence 1.0000, support 3, misses 0\n\
                      note: declared `R: B -> A` is not implied by the discovered cover\n";
        let r = Rendered::parse(stdout);
        assert_eq!(
            r.raw,
            "raw: 1 FDs + 0 INDs (2 FD candidates, 0 composed IND candidates checked)"
        );
        assert_eq!(r.cover, vec!["dep R: A -> B"]);
        assert_eq!(
            r.ranked,
            vec!["  #1 R: A -> B  confidence 1.0000, support 3, misses 0"]
        );
    }

    #[test]
    fn the_reference_renders_like_the_cli() {
        let schema = depkit_core::DatabaseSchema::parse(&["R(A, B, C)"]).unwrap();
        let mut db = depkit_core::Database::empty(schema.clone());
        db.insert_ints(
            "R",
            &[
                &[1, 10, 100],
                &[2, 20, 200],
                &[3, 20, 200],
                &[4, 30, 300],
                &[5, 30, 301],
            ],
        )
        .unwrap();
        let config = DiscoveryConfig {
            threads: 1,
            max_error: 0.3,
            ..DiscoveryConfig::default()
        };
        let found = discover_store(&schema, &ColumnStore::new(&db), &config).unwrap();
        let r = Rendered::of(&found, &config);
        assert!(r.raw.starts_with("raw: "), "{r:?}");
        assert!(!r.cover.is_empty(), "{r:?}");
        assert!(r.cover.iter().all(|l| l.starts_with("dep ")), "{r:?}");
        assert_eq!(r.ranked.len(), found.scored.len());
        assert!(r.ranked[0].starts_with("  #1 "), "{r:?}");
        let dirty = found.scored.iter().filter(|s| s.misses > 0).count();
        assert!(dirty > 0, "C misses under B: {found:?}");
        assert_eq!(exact_part(&found).len(), found.raw.len() - dirty);
        // What the CLI prints parses back to the same lines.
        let mut stdout = format!("{}\n", r.raw);
        for l in r.cover.iter().chain(&r.ranked) {
            stdout.push_str(l);
            stdout.push('\n');
        }
        assert_eq!(Rendered::parse(&stdout), r);
    }
}
