//! `depkit` — command-line front end for the dependency toolkit.
//!
//! ```text
//! depkit check <spec.dep>                  validate the inline data against the constraints
//! depkit implies <spec.dep> <DEP>          does the constraint set imply DEP?
//! depkit keys <spec.dep> <RELATION>        candidate keys of a relation under its FDs
//! depkit design <spec.dep> <RELATION>      BCNF check, 3NF synthesis, decomposition
//! depkit validate <spec.dep> <deltas.dep>  commit mutation batches to the
//!                                          incremental catalog, one session
//!                                          per batch
//! depkit discover <spec.dep> [--threads N] mine the FDs/INDs the inline data
//!         [--memory-budget BYTES]          satisfies, minimized to a cover
//!         [--stats]                        (N threads read the spec and mine;
//!                                          0 or omitted = all cores — the
//!                                          result is identical either way;
//!                                          every other command reads its
//!                                          spec on one thread).
//!                                          A positive --memory-budget (plain
//!                                          bytes or human form: 512M, 64K,
//!                                          2G) bounds the mining working
//!                                          set: a column whose distinct
//!                                          stream exceeds its share is
//!                                          read in id-range slices, one
//!                                          rescan of the column each, and
//!                                          nothing is written to disk
//!                                          (--spill-dir is accepted and
//!                                          ignored); the mined cover is
//!                                          byte-identical to the
//!                                          unbounded run. The input sits
//!                                          outside the budget: the id
//!                                          columns and value interner
//!                                          built from the spec's rows stay
//!                                          resident; the spec text is
//!                                          freed once its rows are
//!                                          buffered, before interning.
//!                                          --stats prints the budget
//!                                          counters (columns read in
//!                                          slices, slice scans).
//!         [--max-error E] [--top-k K]      A positive --max-error E (fraction
//!                                          `0.05` or percentage `5%`) also
//!                                          mines *approximate* dependencies
//!                                          violated by at most a fraction E
//!                                          of their support (g3 error for
//!                                          FDs, missing rows for INDs), and
//!                                          ranks everything mined by
//!                                          confidence × support (--top-k
//!                                          truncates the ranking; 0 = all)
//! depkit serve <spec.dep> [--addr A]       run the line-JSON session server
//!         [--data-dir D]                   on A (default 127.0.0.1:4227)
//!         [--fsync always|never|           against the spec's constraints
//!                 interval:N]              and seed data; with --data-dir the
//!         [--checkpoint-every N]           catalog is durable: commits are
//!                                          write-ahead logged (fsync policy
//!                                          --fsync, default `always`) and
//!                                          checkpointed every N commits
//!                                          (default 512), and a restart
//!                                          recovers checkpoint + WAL replay,
//!                                          printing `recovered: ...` before
//!                                          the `serving ...` line
//! depkit client <addr> [script]            drive a server: send each line of
//!                                          script (a file, or stdin when
//!                                          omitted) as a request, print each
//!                                          response
//! depkit client <addr> health              one-shot health query: print each
//!                                          dependency's live satisfaction
//!                                          ratio (exit 1 if any is violated)
//! ```
//!
//! Spec files are plain text (see `spec.rs`): `schema R(A, B)` /
//! `dep R: A -> B` / `row R 1 2` lines; delta scripts are `insert R 1 2` /
//! `delete R 1 2` / `commit` lines. Exit code 0 = success/consistent,
//! 1 = violations or "not implied", 2 = usage or parse errors.
//!
//! The report commands (`check`, `implies`, `keys`, `design`, `validate`,
//! `discover`, `client <addr> health`) write stdout through one locked
//! buffer. A reader that closes the pipe early (`depkit discover spec |
//! head -1`) ends the process quietly with exit code 0: it has read what
//! it wanted. So does a closed stdout under `serve` and `client`.

mod spec;
#[cfg(test)]
mod spec_vs_database;

use depkit_chase::acyclic;
use depkit_chase::fdind_chase::{ChaseBudget, ChaseOutcome, FdIndChase};
use depkit_core::prelude::*;
use depkit_core::ColumnStore;
use depkit_solver::design::{bcnf_decompose, is_bcnf, threenf_synthesis};
use depkit_solver::fd::FdEngine;
use depkit_solver::incremental::{CatalogState, Snapshot};
use depkit_solver::interact::Saturator;
use spec::{parse_deltas, parse_spec, SpecHead};
use std::error::Error;
use std::io::{self, BufWriter, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) if is_broken_pipe(&*e) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Whether `e` is a write to a pipe whose reader has gone.
fn is_broken_pipe(e: &(dyn Error + 'static)) -> bool {
    e.downcast_ref::<io::Error>()
        .is_some_and(|e| e.kind() == io::ErrorKind::BrokenPipe)
}

fn load(path: &str) -> Result<spec::Spec, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse_spec(&text)?)
}

/// The spec's constraints alone, for the commands whose answers do not
/// depend on its rows. The rows are still read and checked, so a bad row
/// fails as it does everywhere else, but no `Database` is built.
fn load_constraints(path: &str) -> Result<ConstraintSet, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    Ok(SpecHead::parse(&text)?.into_parts().0)
}

fn run(args: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    match args {
        [cmd, path, rest @ ..] if cmd == "serve" => serve(path, rest),
        [cmd, addr] if cmd == "client" => client(addr, None),
        [cmd, addr, script] if cmd == "client" && script != "health" => client(addr, Some(script)),
        _ => {
            let mut out = BufWriter::new(io::stdout().lock());
            let code = report(args, &mut out)?;
            out.flush()?;
            Ok(code)
        }
    }
}

/// The report commands, each writing its lines to `out`; anything else is
/// a usage error.
fn report(args: &[String], out: &mut dyn Write) -> Result<ExitCode, Box<dyn Error>> {
    match args {
        [cmd, path] if cmd == "check" => check(path, out),
        [cmd, path, dep] if cmd == "implies" => implies(path, dep, out),
        [cmd, path, rel] if cmd == "keys" => keys(path, rel, out),
        [cmd, path, rel] if cmd == "design" => design(path, rel, out),
        [cmd, path, deltas] if cmd == "validate" => validate(path, deltas, out),
        [cmd, path, rest @ ..] if cmd == "discover" => discover(path, rest, out),
        [cmd, addr, word] if cmd == "client" && word == "health" => client_health(addr, out),
        _ => {
            eprintln!(
                "usage: depkit check <spec.dep>\n       depkit implies <spec.dep> <DEP>\n       \
                 depkit keys <spec.dep> <RELATION>\n       depkit design <spec.dep> <RELATION>\n       \
                 depkit validate <spec.dep> <deltas.dep>\n       \
                 depkit discover <spec.dep> [--threads N] [--memory-budget BYTES] [--stats] [--max-error E] [--top-k K]\n       \
                 depkit serve <spec.dep> [--addr HOST:PORT] [--data-dir DIR] [--fsync always|never|interval:N] [--checkpoint-every N]\n       \
                 depkit client <HOST:PORT> [script | health]"
            );
            Ok(ExitCode::from(2))
        }
    }
}

fn serve(path: &str, rest: &[String]) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut addr = String::from("127.0.0.1:4227");
    let mut data_dir: Option<std::path::PathBuf> = None;
    let mut fsync = depkit_core::wal::FsyncPolicy::Always;
    let mut checkpoint_every = 512u64;
    let mut out = io::stdout();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = |v: Option<&String>| -> Result<String, String> {
            v.cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--addr" => addr = value(it.next())?,
            "--data-dir" => data_dir = Some(std::path::PathBuf::from(value(it.next())?)),
            "--fsync" => fsync = depkit_core::wal::FsyncPolicy::parse(&value(it.next())?)?,
            "--checkpoint-every" => {
                checkpoint_every = value(it.next())?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?
            }
            other => return Err(format!("unknown serve flag `{other}`").into()),
        }
    }
    // The spec text and the buffered rows live only through seeding: no
    // copy of them stays behind for the life of the server. The text is
    // freed after seeding, not before: freeing a large block makes glibc
    // raise its mmap threshold, and the catalog's tables then grow on the
    // heap and stay resident (5 MB more RSS after seeding 100k rows).
    let text = std::fs::read_to_string(path)?;
    let head = SpecHead::parse(&text)?;
    let sigma = head.constraints.dependencies().to_vec();
    let schema = head.constraints.schema();
    let (cat, durability, seeded_rows) = match data_dir {
        Some(dir) => {
            let mut cfg = depkit_solver::incremental::DurabilityConfig::new(dir);
            cfg.fsync = fsync;
            cfg.checkpoint_every = checkpoint_every;
            let (cat, dur, report) =
                depkit_solver::incremental::Durability::open(schema, &sigma, cfg)?;
            // A fresh data dir starts from the spec's seed rows; the seed
            // bypasses the commit sink, so checkpoint immediately to make
            // it durable. A recovered dir keeps its own state — the
            // spec's rows are already in it (or were deleted since).
            let seeded = if report.fresh {
                let out = cat.seed_rows(seed_rows(&head))?;
                dur.checkpoint(&cat)?;
                out.applied.inserted
            } else {
                0
            };
            // Harnesses parse this line to learn what recovery did.
            writeln!(out, "{report}")?;
            out.flush()?;
            (cat, Some(dur), seeded)
        }
        None => {
            let cat = CatalogState::new(schema, &sigma)?;
            let seeded = cat.seed_rows(seed_rows(&head))?;
            (cat, None, seeded.applied.inserted)
        }
    };
    drop(head);
    drop(text);
    let server = depkit_serve::Server::start_durable(
        cat,
        &addr,
        depkit_serve::ServeConfig::default(),
        durability,
    )?;
    // CI and scripts wait for this line before connecting.
    writeln!(
        out,
        "serving {} on {} ({} rows seeded, {} dependencies)",
        path,
        server.local_addr(),
        seeded_rows,
        sigma.len()
    )?;
    out.flush()?;
    // Serve until killed; the accept loop owns the listener.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// The spec's rows, in file order, in the form the catalog seeds from.
fn seed_rows(head: &SpecHead) -> impl Iterator<Item = (usize, Vec<Value>)> + '_ {
    head.rows().map(|(r, values)| (r, values.collect()))
}

fn client(addr: &str, script: Option<&str>) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let text = match script {
        Some(path) => std::fs::read_to_string(path)?,
        None => std::io::read_to_string(std::io::stdin())?,
    };
    let stdout = std::io::stdout();
    depkit_serve::run_script(addr, &text, &mut stdout.lock())?;
    Ok(ExitCode::SUCCESS)
}

/// One-shot `client <addr> health`: send a single health query and
/// render each dependency's live satisfaction for humans. Exit code 1
/// when any dependency is below 100%.
fn client_health(addr: &str, out: &mut dyn Write) -> Result<ExitCode, Box<dyn Error>> {
    let mut raw = Vec::new();
    depkit_serve::run_script(addr, r#"{"cmd":"health"}"#, &mut raw)?;
    let text = String::from_utf8(raw)?;
    let v = depkit_serve::json::parse(text.trim())
        .map_err(|e| format!("malformed health response: {e}"))?;
    let deps = v
        .get("deps")
        .and_then(depkit_serve::Json::as_arr)
        .ok_or("health response has no `deps` array")?;
    writeln!(
        out,
        "health at generation {}:",
        v.get("generation")
            .and_then(depkit_serve::Json::as_i64)
            .unwrap_or(-1)
    )?;
    let mut all_clean = true;
    for d in deps {
        let name = d
            .get("dep")
            .and_then(depkit_serve::Json::as_str)
            .unwrap_or("?");
        let violating = d
            .get("violating")
            .and_then(depkit_serve::Json::as_i64)
            .unwrap_or(0);
        let satisfied = d
            .get("satisfied")
            .and_then(depkit_serve::Json::as_str)
            .unwrap_or("?");
        let tracked = d
            .get("tracked")
            .and_then(depkit_serve::Json::as_i64)
            .unwrap_or(0);
        writeln!(
            out,
            "  {name} is {satisfied} satisfied ({violating} of {tracked} keys violating)"
        )?;
        all_clean &= violating == 0;
    }
    Ok(if all_clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn check(path: &str, out: &mut dyn Write) -> Result<ExitCode, Box<dyn Error>> {
    let spec = load(path)?;
    let violations = spec.constraints.validate(&spec.database)?;
    if violations.is_empty() {
        writeln!(
            out,
            "consistent: {} tuples satisfy {} dependencies",
            spec.database.total_tuples(),
            spec.constraints.dependencies().len()
        )?;
        Ok(ExitCode::SUCCESS)
    } else {
        for v in &violations {
            writeln!(out, "violation: {v}")?;
        }
        writeln!(out, "{} violation(s)", violations.len())?;
        Ok(ExitCode::FAILURE)
    }
}

/// The status line's verdict at one snapshot: the violating-key count is
/// the sum of the maintained per-dependency counters, `O(Σ)`.
fn consistency_status(snap: &Snapshot) -> String {
    if snap.is_consistent() {
        "consistent".to_string()
    } else {
        let violating: u64 = snap.health().iter().map(|h| h.violating).sum();
        format!("{violating} violation(s)")
    }
}

/// Seed a catalog from the spec's rows, then commit each batch through its
/// own session (`begin → stage → commit`) and report it from a fresh
/// snapshot, listing the violations whenever any remain.
fn validate(
    path: &str,
    deltas_path: &str,
    out: &mut dyn Write,
) -> Result<ExitCode, Box<dyn Error>> {
    let text = std::fs::read_to_string(path)?;
    let head = SpecHead::parse(&text)?;
    let script = std::fs::read_to_string(deltas_path)?;
    let batches = parse_deltas(&script)?;

    let cat = CatalogState::new(head.constraints.schema(), head.constraints.dependencies())?;
    cat.seed_rows(seed_rows(&head))?;
    // As in `serve`: the text and the buffered rows live only through
    // seeding.
    drop(head);
    drop(text);
    let snap = cat.snapshot();
    writeln!(
        out,
        "seeded {} rows under {} dependencies: {}",
        snap.total_rows(),
        cat.sigma().len(),
        consistency_status(&snap)
    )?;
    // Unpin before committing: a snapshot held across the batches would
    // hold the pruning watermark at its generation, and every history the
    // batches touch would grow by one entry per commit.
    drop(snap);

    for (i, delta) in batches.iter().enumerate() {
        let mut session = cat.begin();
        session.stage(delta)?;
        let applied = session.commit().applied;
        let snap = cat.snapshot();
        writeln!(
            out,
            "batch {}: {delta} applied (+{} -{} effective), {} rows, {}",
            i + 1,
            applied.inserted,
            applied.deleted,
            snap.total_rows(),
            consistency_status(&snap)
        )?;
        if !snap.is_consistent() {
            for v in snap.violations() {
                writeln!(out, "  {}", snap.explain(&v))?;
            }
        }
    }

    Ok(if cat.snapshot().is_consistent() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Parsed `discover` flags.
struct DiscoverOpts {
    threads: usize,
    memory_budget: usize,
    stats: bool,
    max_error: f64,
    top_k: usize,
}

fn parse_discover_opts(rest: &[String]) -> Result<DiscoverOpts, String> {
    let mut opts = DiscoverOpts {
        threads: 0,
        memory_budget: 0,
        stats: false,
        max_error: 0.0,
        top_k: 0,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--threads" => {
                let n = it.next().ok_or("--threads expects a number")?;
                opts.threads = n
                    .parse()
                    .map_err(|_| format!("--threads expects a number, got `{n}`"))?;
            }
            "--memory-budget" => {
                let n = it.next().ok_or("--memory-budget expects a byte count")?;
                opts.memory_budget = parse_bytes(n).map_err(|e| format!("--memory-budget: {e}"))?;
            }
            // Accepted for old command lines; discovery writes no files.
            "--spill-dir" => {
                it.next().ok_or("--spill-dir expects a path")?;
            }
            "--stats" => opts.stats = true,
            "--max-error" => {
                let n = it.next().ok_or("--max-error expects a tolerance")?;
                opts.max_error =
                    parse_error_tolerance(n).map_err(|e| format!("--max-error: {e}"))?;
            }
            "--top-k" => {
                let n = it.next().ok_or("--top-k expects a count")?;
                opts.top_k = n
                    .parse()
                    .map_err(|_| format!("--top-k expects a count, got `{n}`"))?;
            }
            other => return Err(format!("unknown discover flag `{other}`")),
        }
    }
    Ok(opts)
}

/// Parse a nonnegative decimal literal — digits with an optional
/// fractional part (`12`, `1.5`), no sign, exponent, or locale forms.
/// The shared numeric core of [`parse_bytes`] and
/// [`parse_error_tolerance`]: both accept exactly this shape, so their
/// error messages can promise it.
fn parse_decimal(src: &str) -> Option<f64> {
    let (int, frac) = match src.split_once('.') {
        Some((i, f)) => (i, Some(f)),
        None => (src, None),
    };
    let all_digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    if !all_digits(int) || !frac.is_none_or(all_digits) {
        return None;
    }
    src.parse::<f64>().ok()
}

/// Parse a byte count: digits, or a decimal with a human suffix
/// `K`/`M`/`G` (binary multiples, optional trailing `B`, any case) —
/// `512M`, `64kb`, `1.5G` (= 1610612736). A bare `B` counts plain bytes
/// (`12B` = 12); a fractional count needs a unit to round against
/// (`12.5` alone is rejected, `12.5K` is 12800).
fn parse_bytes(src: &str) -> Result<usize, String> {
    let upper = src.trim().to_ascii_uppercase();
    let body = upper.strip_suffix('B').unwrap_or(&upper);
    let (digits, mult) = match body.chars().last() {
        Some('K') => (&body[..body.len() - 1], 1usize << 10),
        Some('M') => (&body[..body.len() - 1], 1 << 20),
        Some('G') => (&body[..body.len() - 1], 1 << 30),
        _ => (body, 1),
    };
    let value = parse_decimal(digits).ok_or_else(|| {
        format!(
            "expected a byte count: digits with an optional K/M/G unit and B suffix \
             (e.g. 536870912, `512M`, `1.5G`), got `{src}`"
        )
    })?;
    if digits.contains('.') {
        if mult == 1 {
            return Err(format!(
                "fractional byte counts need a unit suffix to round against (`1.5G`, not `{src}`)"
            ));
        }
        let bytes = value * mult as f64;
        if bytes > usize::MAX as f64 {
            return Err(format!("byte count overflows usize: `{src}`"));
        }
        return Ok(bytes as usize);
    }
    let n: usize = digits
        .parse()
        .map_err(|_| format!("byte count overflows usize: `{src}`"))?;
    n.checked_mul(mult)
        .ok_or_else(|| format!("byte count overflows usize: `{src}`"))
}

/// Parse an error tolerance: a fraction (`0.05`) or a percentage
/// (`5%`), in `[0, 1)` — a tolerance of 1 would score every candidate
/// as vacuously satisfied.
fn parse_error_tolerance(src: &str) -> Result<f64, String> {
    let trimmed = src.trim();
    let (body, scale) = match trimmed.strip_suffix('%') {
        Some(p) => (p.trim_end(), 0.01),
        None => (trimmed, 1.0),
    };
    let v = parse_decimal(body).ok_or_else(|| {
        format!("expected an error tolerance as a fraction or percentage (e.g. 0.05 or `5%`), got `{src}`")
    })? * scale;
    if !(0.0..1.0).contains(&v) {
        return Err(format!("error tolerance must lie in [0, 1), got `{src}`"));
    }
    Ok(v)
}

fn discover(path: &str, rest: &[String], out: &mut dyn Write) -> Result<ExitCode, Box<dyn Error>> {
    let opts = parse_discover_opts(rest)?;
    let config = depkit_solver::discover::DiscoveryConfig {
        threads: opts.threads,
        memory_budget: opts.memory_budget,
        max_error: opts.max_error,
        top_k: opts.top_k,
        ..Default::default()
    };
    // The spec is read on the mining threads, and the text is freed once
    // parsed, before the rows are interned.
    let text = std::fs::read_to_string(path)?;
    let head = SpecHead::parse_on(&text, config.effective_threads())?;
    drop(text);
    let (constraints, buffers) = head.into_parts();
    let store = ColumnStore::from_buffers(buffers);
    let found = depkit_solver::discover::discover_store(constraints.schema(), &store, &config)?;
    let s = &found.stats;
    writeln!(
        out,
        "profiled {} rows, {} columns, {} distinct values",
        s.rows, s.columns, s.distinct_values
    )?;
    writeln!(
        out,
        "raw: {} FDs + {} INDs ({} FD candidates, {} composed IND candidates checked)",
        s.raw_fds, s.raw_inds, s.fd_candidates, s.ind_candidates
    )?;
    writeln!(
        out,
        "cover: {} dependencies ({} pruned as implied by the rest)",
        found.cover.len(),
        s.pruned
    )?;
    if opts.stats {
        let sp = &found.spill;
        writeln!(
            out,
            "spill: {} column(s) read in slices, {} slice scan(s)",
            sp.spilled_columns, sp.merge_passes
        )?;
    }
    // `dep`-prefixed lines so the output pastes straight back into a spec.
    for d in &found.cover {
        writeln!(out, "dep {d}")?;
    }
    // With a tolerance, rank everything mined by confidence × support so
    // the strongest near-dependencies of a dirty table surface first.
    if config.max_error > 0.0 {
        let ranked = found.ranked(opts.top_k);
        writeln!(
            out,
            "ranked: top {} of {} scored dependencies (by confidence × support):",
            ranked.len(),
            found.scored.len()
        )?;
        for (i, s) in ranked.iter().enumerate() {
            writeln!(
                out,
                "  #{} {}  confidence {:.4}, support {}, misses {}",
                i + 1,
                s.dep,
                s.confidence(),
                s.support,
                s.misses
            )?;
        }
    }
    // Cross-check against any constraints the spec declared. Under a
    // tolerance, a declared dependency the data *nearly* satisfies is
    // reported with its confidence — dirty data reads differently from a
    // wrong schema. Exact runs keep the original wording byte-for-byte.
    let oracle = depkit_solver::discover::PruningOracle::new(&found.cover);
    for declared in constraints.dependencies() {
        if oracle.implies(declared) {
            continue;
        }
        let approx = found
            .scored
            .iter()
            .find(|s| s.dep == *declared && s.misses > 0);
        match approx {
            Some(s) => writeln!(
                out,
                "note: declared `{declared}` approximately holds (confidence {:.4} < 1.0)",
                s.confidence()
            )?,
            None => writeln!(
                out,
                "note: declared `{declared}` is not implied by the discovered cover"
            )?,
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn implies(path: &str, dep_src: &str, out: &mut dyn Write) -> Result<ExitCode, Box<dyn Error>> {
    let constraints = load_constraints(path)?;
    let target: Dependency = dep_src.parse()?;
    target.is_well_formed(constraints.schema())?;
    let sigma = constraints.dependencies().to_vec();

    // 1. Exact decision on the weakly acyclic fragment.
    if let Some(answer) = acyclic::decide(constraints.schema(), &sigma, &target)? {
        writeln!(
            out,
            "{} (exact: IND set is weakly acyclic, chase terminates)",
            if answer { "implied" } else { "not implied" }
        )?;
        return Ok(if answer {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }

    // 2. Sound saturation (k-ary rules; may under-approximate).
    let mut sat = Saturator::new(&sigma);
    sat.saturate();
    if sat.implies(&target) {
        writeln!(out, "implied (derived by the sound interaction rules)")?;
        return Ok(ExitCode::SUCCESS);
    }

    // 3. Budgeted chase: may prove, refute, or give up (the combined
    // problem is undecidable in general).
    let chase = FdIndChase::new(constraints.schema(), &sigma)?;
    match chase.implies(&target, ChaseBudget::default())? {
        ChaseOutcome::Proved { rounds } => {
            writeln!(out, "implied (chase proof in {rounds} rounds)")?;
            Ok(ExitCode::SUCCESS)
        }
        ChaseOutcome::Disproved { .. } => {
            writeln!(out, "not implied (chase countermodel found)")?;
            Ok(ExitCode::FAILURE)
        }
        ChaseOutcome::Exhausted => {
            writeln!(
                out,
                "unknown (chase budget exhausted; FD+IND implication is undecidable in general)"
            )?;
            Ok(ExitCode::FAILURE)
        }
    }
}

fn keys(path: &str, rel: &str, out: &mut dyn Write) -> Result<ExitCode, Box<dyn Error>> {
    let constraints = load_constraints(path)?;
    let scheme = constraints.schema().require(&RelName::new(rel))?.clone();
    let (fds, _, _, _) = constraints.partition();
    let engine = FdEngine::new(rel, &fds);
    for key in engine.candidate_keys(&scheme) {
        let names: Vec<&str> = key.iter().map(|a| a.name()).collect();
        writeln!(out, "key: {{{}}}", names.join(", "))?;
    }
    Ok(ExitCode::SUCCESS)
}

fn design(path: &str, rel: &str, out: &mut dyn Write) -> Result<ExitCode, Box<dyn Error>> {
    let constraints = load_constraints(path)?;
    let scheme = constraints.schema().require(&RelName::new(rel))?.clone();
    let (all_fds, _, _, _) = constraints.partition();
    let fds: Vec<Fd> = all_fds
        .into_iter()
        .filter(|f| f.rel.name() == rel)
        .collect();
    let engine = FdEngine::new(rel, &fds);

    writeln!(out, "relation: {scheme}")?;
    writeln!(out, "BCNF: {}", is_bcnf(&engine, &scheme))?;

    writeln!(out, "3NF synthesis:")?;
    for frag in threenf_synthesis(&fds, &scheme) {
        writeln!(out, "  {}   embeds via {}", frag.scheme, frag.embedding)?;
    }
    writeln!(out, "BCNF decomposition:")?;
    for frag in bcnf_decompose(&fds, &scheme) {
        writeln!(out, "  {}   embeds via {}", frag.scheme, frag.embedding)?;
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_temp(name: &str, content: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("depkit-test-{name}-{}.dep", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    /// [`report`] with its lines kept off the test's stdout.
    fn quiet(args: &[String]) -> Result<ExitCode, Box<dyn Error>> {
        report(args, &mut Vec::new())
    }

    const HR: &str = "\
schema EMP(NAME, DEPT)
schema MGR(NAME, DEPT)
dep MGR[NAME, DEPT] <= EMP[NAME, DEPT]
dep EMP: NAME -> DEPT
row EMP hilbert math
row MGR hilbert math
";

    #[test]
    fn check_consistent_spec() {
        let path = write_temp("ok", HR);
        let code = quiet(&["check".into(), path.clone()]).unwrap();
        assert_eq!(code, ExitCode::SUCCESS);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn check_detects_violations() {
        let bad = format!("{HR}row MGR ghost cs\n");
        let path = write_temp("bad", &bad);
        let code = quiet(&["check".into(), path.clone()]).unwrap();
        assert_eq!(code, ExitCode::FAILURE);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn implies_answers_exactly_on_acyclic_specs() {
        let path = write_temp("imp", HR);
        let yes = quiet(&[
            "implies".into(),
            path.clone(),
            "MGR[NAME] <= EMP[NAME]".into(),
        ])
        .unwrap();
        assert_eq!(yes, ExitCode::SUCCESS);
        let no = quiet(&[
            "implies".into(),
            path.clone(),
            "EMP[NAME] <= MGR[NAME]".into(),
        ])
        .unwrap();
        assert_eq!(no, ExitCode::FAILURE);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn keys_and_design_run() {
        let path = write_temp("keys", HR);
        assert_eq!(
            quiet(&["keys".into(), path.clone(), "EMP".into()]).unwrap(),
            ExitCode::SUCCESS
        );
        assert_eq!(
            quiet(&["design".into(), path.clone(), "EMP".into()]).unwrap(),
            ExitCode::SUCCESS
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn validate_streams_deltas() {
        let spec_path = write_temp("val-spec", HR);
        // Break the IND, then repair it: final state is consistent.
        let good = "\
insert MGR ghost cs
commit
insert EMP ghost cs
commit
";
        let deltas_path = write_temp("val-good", good);
        // write_temp appends .dep; reuse it for the delta script.
        assert_eq!(
            quiet(&["validate".into(), spec_path.clone(), deltas_path.clone()]).unwrap(),
            ExitCode::SUCCESS
        );
        // Ending on the broken state exits 1.
        let bad = "insert MGR ghost cs\n";
        let bad_path = write_temp("val-bad", bad);
        assert_eq!(
            quiet(&["validate".into(), spec_path.clone(), bad_path.clone()]).unwrap(),
            ExitCode::FAILURE
        );
        for p in [spec_path, deltas_path, bad_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn discover_mines_the_running_example() {
        let path = write_temp("disc", HR);
        assert_eq!(
            quiet(&["discover".into(), path.clone()]).unwrap(),
            ExitCode::SUCCESS
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn discover_accepts_a_thread_count() {
        let path = write_temp("disc-threads", HR);
        for n in ["1", "2", "0"] {
            assert_eq!(
                quiet(&[
                    "discover".into(),
                    path.clone(),
                    "--threads".into(),
                    n.into()
                ])
                .unwrap(),
                ExitCode::SUCCESS
            );
        }
        // A non-numeric thread count is a usage error (exit 2 via main).
        assert!(quiet(&[
            "discover".into(),
            path.clone(),
            "--threads".into(),
            "lots".into()
        ])
        .is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn discover_accepts_a_memory_budget_and_spill_dir() {
        let path = write_temp("disc-budget", HR);
        let spill = std::env::temp_dir().join(format!("depkit-cli-spill-{}", std::process::id()));
        // A 1-byte budget reads every nonempty column in slices; the mined
        // cover is identical regardless (printed output aside, the exit
        // code is the observable here). `--spill-dir` is still accepted,
        // and nothing is created under it.
        assert_eq!(
            quiet(&[
                "discover".into(),
                path.clone(),
                "--memory-budget".into(),
                "1".into(),
                "--spill-dir".into(),
                spill.to_string_lossy().into_owned(),
                "--stats".into(),
            ])
            .unwrap(),
            ExitCode::SUCCESS
        );
        assert!(!spill.exists(), "discovery created {}", spill.display());
        // Human byte forms parse; unbounded budget with --stats also runs.
        for budget in ["512M", "64kb", "2G", "0"] {
            assert_eq!(
                quiet(&[
                    "discover".into(),
                    path.clone(),
                    "--memory-budget".into(),
                    budget.into(),
                    "--stats".into(),
                ])
                .unwrap(),
                ExitCode::SUCCESS
            );
        }
        // Malformed budgets and unknown flags are usage errors.
        assert!(quiet(&[
            "discover".into(),
            path.clone(),
            "--memory-budget".into(),
            "lots".into()
        ])
        .is_err());
        assert!(quiet(&["discover".into(), path.clone(), "--bogus".into()]).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn parse_bytes_handles_human_suffixes() {
        assert_eq!(parse_bytes("1234").unwrap(), 1234);
        assert_eq!(parse_bytes("64K").unwrap(), 64 << 10);
        assert_eq!(parse_bytes("512M").unwrap(), 512 << 20);
        assert_eq!(parse_bytes("2g").unwrap(), 2 << 30);
        assert_eq!(parse_bytes("8kb").unwrap(), 8 << 10);
        // A bare B counts plain bytes; fractional counts take a unit.
        assert_eq!(parse_bytes("12B").unwrap(), 12);
        assert_eq!(parse_bytes("1.5G").unwrap(), 3 << 29);
        assert_eq!(parse_bytes("12.5K").unwrap(), 12_800);
        assert_eq!(parse_bytes("0.5mb").unwrap(), 1 << 19);
        assert!(parse_bytes("").is_err());
        assert!(parse_bytes("12X").is_err());
        assert!(parse_bytes("M").is_err());
        assert!(parse_bytes("1.2.3K").is_err());
        assert!(parse_bytes(".5G").is_err());
        assert!(parse_bytes("1.G").is_err());
        // A unitless fraction is ambiguous; the error says what to do.
        let e = parse_bytes("12.5").unwrap_err();
        assert!(e.contains("unit suffix"), "got: {e}");
    }

    #[test]
    fn parse_error_tolerance_accepts_fractions_and_percentages() {
        assert_eq!(parse_error_tolerance("0.05").unwrap(), 0.05);
        assert_eq!(parse_error_tolerance("0").unwrap(), 0.0);
        assert!((parse_error_tolerance("5%").unwrap() - 0.05).abs() < 1e-12);
        assert!((parse_error_tolerance("0.5%").unwrap() - 0.005).abs() < 1e-12);
        assert!(parse_error_tolerance("1").is_err(), "1 is out of range");
        assert!(parse_error_tolerance("100%").is_err());
        assert!(parse_error_tolerance("-0.1").is_err());
        assert!(parse_error_tolerance("lots").is_err());
        assert!(parse_error_tolerance("%").is_err());
        let e = parse_error_tolerance("1.5").unwrap_err();
        assert!(e.contains("[0, 1)"), "got: {e}");
    }

    #[test]
    fn discover_accepts_a_tolerance_and_top_k() {
        let opts = parse_discover_opts(&[
            "--max-error".into(),
            "5%".into(),
            "--top-k".into(),
            "3".into(),
        ])
        .unwrap();
        assert!((opts.max_error - 0.05).abs() < 1e-12);
        assert_eq!(opts.top_k, 3);
        assert!(parse_discover_opts(&["--max-error".into(), "2".into()]).is_err());
        assert!(parse_discover_opts(&["--top-k".into(), "few".into()]).is_err());
        // End to end on a dirtied spec: the declared FD is only
        // approximately satisfied, and the run still exits 0.
        let dirty = format!("{HR}row EMP hilbert cs\nrow MGR hilbert cs\n");
        let path = write_temp("disc-approx", &dirty);
        assert_eq!(
            quiet(&[
                "discover".into(),
                path.clone(),
                "--max-error".into(),
                "0.5".into(),
                "--top-k".into(),
                "5".into(),
            ])
            .unwrap(),
            ExitCode::SUCCESS
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn usage_error_on_bad_args() {
        assert_eq!(run(&[]).unwrap(), ExitCode::from(2));
        assert_eq!(run(&["bogus".into()]).unwrap(), ExitCode::from(2));
    }

    #[test]
    fn serve_refuses_a_bad_row_before_seeding_anything() {
        // The bad row comes after good ones: the spec head rejects it
        // before a catalog exists, so the error names the line and no
        // server ever starts.
        let path = write_temp("serve-bad-row", &format!("{HR}row EMP godel\n"));
        let e = run(&[
            "serve".into(),
            path.clone(),
            "--addr".into(),
            "127.0.0.1:0".into(),
        ])
        .unwrap_err();
        assert!(e.to_string().starts_with("line 7: "), "{e}");
        assert!(e.to_string().contains("(in `row EMP godel`)"), "{e}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn client_subcommand_drives_a_live_server() {
        let spec = parse_spec(HR).unwrap();
        let sigma = spec.constraints.dependencies().to_vec();
        let cat = depkit_solver::incremental::CatalogState::new(spec.constraints.schema(), &sigma)
            .unwrap();
        cat.seed(&spec.database).unwrap();
        let server =
            depkit_serve::Server::start(cat, "127.0.0.1:0", depkit_serve::ServeConfig::default())
                .unwrap();
        let addr = server.local_addr().to_string();
        let script = "{\"cmd\":\"begin\"}\n{\"cmd\":\"query\"}\n{\"cmd\":\"abort\"}\n";
        let script_path = write_temp("client-script", script);
        assert_eq!(
            run(&["client".into(), addr, script_path.clone()]).unwrap(),
            ExitCode::SUCCESS
        );
        std::fs::remove_file(script_path).ok();
        server.stop().unwrap();
    }

    #[test]
    fn client_health_reports_live_satisfaction() {
        // Seeded consistent: health exits 0. After a commit breaks the
        // IND, the one-shot health query exits 1.
        let spec = parse_spec(HR).unwrap();
        let sigma = spec.constraints.dependencies().to_vec();
        let cat = depkit_solver::incremental::CatalogState::new(spec.constraints.schema(), &sigma)
            .unwrap();
        cat.seed(&spec.database).unwrap();
        let server =
            depkit_serve::Server::start(cat, "127.0.0.1:0", depkit_serve::ServeConfig::default())
                .unwrap();
        let addr = server.local_addr().to_string();
        assert_eq!(
            run(&["client".into(), addr.clone(), "health".into()]).unwrap(),
            ExitCode::SUCCESS
        );
        let break_it = "{\"cmd\":\"begin\"}\n\
                        {\"cmd\":\"insert\",\"rel\":\"MGR\",\"row\":[\"ghost\",\"cs\"]}\n\
                        {\"cmd\":\"commit\"}\n";
        let script_path = write_temp("health-break", break_it);
        run(&["client".into(), addr.clone(), script_path.clone()]).unwrap();
        assert_eq!(
            run(&["client".into(), addr, "health".into()]).unwrap(),
            ExitCode::FAILURE
        );
        std::fs::remove_file(script_path).ok();
        server.stop().unwrap();
    }
}
