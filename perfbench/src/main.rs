//! `depkit-perfbench`: the end-to-end benchmark of `depkit serve` (over
//! TCP) and `depkit discover` (as a CLI process), with a traced mode that
//! replays the same inputs in-process to split the time by layer.
//!
//! ```text
//! depkit-perfbench --workload serve-mem|serve-wal|discover-tall|discover-wide
//!                  --seed N --seconds S --trace 0|1
//!                  --depkit PATH/TO/depkit --work DIR
//! depkit-perfbench exec-measured COST_FILE PROGRAM [ARGS...]
//! ```
//!
//! Normally started through `run.py`, which builds both binaries first.
//! The second form is the harness's own helper for measuring one CLI run
//! (see `counters::run_measured`).
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod calib;
mod counters;
mod discover;
mod gen;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Metrics every `--trace 0` run prints, on every workload. Operation
/// times are rescaled to the reference host speed (see `calib`); the
/// times as measured are per-layer metrics.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
];

/// Metrics every `--trace 1` run prints; a layer a workload does not
/// exercise reads 0 there.
const PER_LAYER: [(&str, &str); 41] = [
    ("op_wall_ms.p50", "ms"),
    ("op_wall_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
    ("host.kernel_ms", "ms"),
    ("commit_ms.p50", "ms"),
    ("commit_ms.p90", "ms"),
    ("stage_ms.p50", "ms"),
    ("health_ms.p50", "ms"),
    ("health_ms.p90", "ms"),
    ("cli.residual_s", "s"),
    ("column.intern_s", "s"),
    ("discover.mine_s", "s"),
    ("discover.minimize_s", "s"),
    ("discover.fd_candidates", "count"),
    ("discover.ind_candidates", "count"),
    ("discover.fd_yield", "ratio"),
    ("discover.ind_yield", "ratio"),
    ("discover.pruned_frac", "ratio"),
    ("discover.scored", "count"),
    ("spill.columns", "count"),
    ("spill.runs_written", "count"),
    ("spill.bytes_spilled", "bytes"),
    ("spill.merge_passes", "count"),
    ("protocol.parse_us", "us"),
    ("server.io_residual_ms", "ms"),
    ("server.reply_segments", "count"),
    ("server.write_bytes_per_txn", "bytes"),
    ("incremental.begin_us", "us"),
    ("incremental.stage_us", "us"),
    ("incremental.commit_us.p50", "us"),
    ("incremental.commit_us.p90", "us"),
    ("incremental.health_us.p50", "us"),
    ("incremental.health_us.p90", "us"),
    ("wal.append_us", "us"),
    ("wal.sync_us", "us"),
    ("durable.checkpoints", "count"),
    ("durable.checkpoint_ms", "ms"),
    ("bench.monitor_lag_ms", "ms"),
    ("bench.op_samples", "count"),
    ("bench.health_samples", "count"),
    ("bench.replay_txns", "count"),
];

pub const WORKLOADS: [&str; 4] = ["serve-mem", "serve-wal", "discover-tall", "discover-wide"];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub depkit: PathBuf,
    pub work: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut depkit = None;
    let mut work = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload `{value}` (one of {WORKLOADS:?})"));
                }
                workload = Some(value)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            "--depkit" => depkit = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        depkit: depkit.ok_or("--depkit is required")?,
        work: work.ok_or("--work is required")?,
    })
}

/// What one run measured and how many of its operations failed.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64, usize)>,
}

impl Report {
    /// Count one failed operation (wrong output, error reply, I/O error).
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what.into());
        }
    }

    /// Record a metric with the number of samples behind it.
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push((name, value, samples));
    }

    /// Record the `p`-th percentile of `samples` (0 when there are none).
    pub fn percentile(&mut self, name: &'static str, samples: &mut stats::Samples, p: f64) {
        let value = samples.percentile(p).unwrap_or(0.0);
        self.metric(name, value, samples.len());
    }

    /// Record a count as its own metric.
    pub fn count(&mut self, name: &'static str, n: usize) {
        self.metric(name, n as f64, n);
    }

    fn get(&self, name: &str) -> Option<(f64, usize)> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, s)| (v, s))
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some(counters::MEASURE_MODE) {
        return counters::exec_measured(&raw[1..]);
    }
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !args.depkit.is_file() {
        eprintln!("perfbench: no depkit binary at {}", args.depkit.display());
        return ExitCode::from(2);
    }
    let run_dir = args
        .work
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    let result = match args.workload.as_str() {
        "serve-mem" => serve::run(&args, &run_dir, false, &mut report),
        "serve-wal" => serve::run(&args, &run_dir, true, &mut report),
        "discover-tall" => discover::run(&args, &run_dir, true, &mut report),
        _ => discover::run(&args, &run_dir, false, &mut report),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    if let Err(e) = result {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::from(1);
    }
    emit(&args, &report)
}

/// Print the human summary (every metric, with sample counts), then the
/// final JSON line.
fn emit(args: &Args, report: &Report) -> ExitCode {
    for p in &report.problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    println!(
        "# {} seed={} trace={} attempted={} failed={} error_rate={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed,
        stats::ratio(report.failed as f64, report.attempted as f64)
    );
    for (name, value, samples) in &report.metrics {
        println!("#   {name:<34} {value:>16.6}   (n={samples})");
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = match report.get(name) {
            Some((v, _)) => v,
            // A layer the workload does not use reads 0; an end-to-end
            // metric must always be measured.
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: end-to-end metric {name} was not measured");
                return ExitCode::from(1);
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite ({value})");
            return ExitCode::from(1);
        }
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        fields.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn arguments_parse_and_reject_nonsense() {
        let a = parse_args(&argv(
            "--workload serve-mem --seed 3 --seconds 10 --trace 1 --depkit d --work w",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv(
            "--workload serve-mem --seed 1 --seconds 0 --depkit d --work w"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload serve-mem --seed 1 --seconds 1 --trace 2 --depkit d --work w"
        ))
        .is_err());
        assert!(parse_args(&argv("--workload serve-mem --seconds 1")).is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed = text.matches("\"name\":").count();
        assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\", \"why\"")), "{w}");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
