//! `serve-mem` and `serve-wal`: `depkit serve` on the generated
//! referential spec, driven over loopback TCP by one closed-loop writer
//! connection and one open-loop `health` monitor connection.
//!
//! The writer sends each request line in a single `write` and waits for
//! its reply. That departs on purpose from `ResilientClient`, which sends
//! the line and its newline in two writes: the timings are the server's
//! and exclude any client-side Nagle stall that split write can add.
//! Transactions are `begin`, two delete/insert churn pairs and
//! a `(client, token)`-tagged `commit`, each followed by its inverse, so
//! the database returns to the seed after every pair. The monitor sends
//! `health` every `MONITOR_PERIOD` on a fixed schedule and times each
//! reply from the request's due time, so a stall also counts against the
//! requests queued behind it.
//!
//! Each server launch, and the traffic as a whole, is bracketed by passes
//! of the reference kernel (`calib`), so the on-CPU share of every timed
//! operation can be rescaled to the reference host speed. No pass runs
//! during the traffic: a pause between transactions changes when the
//! client ACKs, and with it which replies the server's Nagle stall hits.
//!
//! The traced run then replays the same requests in-process through the
//! public layer APIs (`parse_request`, `CatalogState`/`Session`,
//! `Durability`, `WalWriter`) to split the request time by layer.

use crate::calib::{self, Bracket, Kernel};
use crate::gen::{self, Churn, Input, Op, CHURN_WIDTH};
use crate::stats::{self, Samples};
use crate::trace::{self, Spans};
use crate::{counters, Args, Report};
use depkit_core::wal::{CommitFrame, FsyncPolicy, WalHeader, WalWriter};
use depkit_core::Delta;
use depkit_serve::json::{self, Json};
use depkit_serve::protocol::{parse_request, Request};
use depkit_solver::incremental::{CatalogState, Durability, DurabilityConfig};
use std::error::Error;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The writer's idempotency identity, as `ResilientClient` tags commits.
const CLIENT_ID: &str = "perfbench-writer";
/// Monitor schedule: 10 requests per second, below the ~22/s a
/// connection sustains at the seed's ~44 ms round trip, so no backlog
/// grows and the latency measured is the server's, not the queue's.
const MONITOR_PERIOD: Duration = Duration::from_millis(100);
/// Server launches per run; `setup_s` is their median.
const LAUNCHES: usize = 9;
/// Churn pairs the traced run replays in-process (4,096 transactions:
/// eight checkpoints at the default cadence on `serve-wal`).
const REPLAY_PAIRS: u64 = 2048;
/// Pause between the in-process health reads beside the replay writer.
const HEALTH_READ_PAUSE: Duration = Duration::from_micros(100);
/// Frames the `WalWriter` probe appends and syncs.
const WAL_PROBE_FRAMES: u64 = 256;
const BEGIN: &str = r#"{"cmd":"begin"}"#;
const HEALTH: &str = r#"{"cmd":"health"}"#;

type BoxResult<T> = Result<T, Box<dyn Error>>;

fn commit_line(txn: u64) -> String {
    format!(r#"{{"cmd":"commit","client":"{CLIENT_ID}","token":"t{txn}"}}"#)
}

fn is_ok(reply: &Json) -> bool {
    reply.get("ok").and_then(Json::as_bool) == Some(true)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One client connection speaking the line protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    line: String,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::new(),
            line: String::new(),
        })
    }

    /// Send one request line in a single write, then read its reply.
    pub fn round_trip(&mut self, request: &str) -> io::Result<Json> {
        self.out.clear();
        self.out.extend_from_slice(request.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        json::parse(&self.line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Data segments the server has sent on this connection so far.
    fn segments_in(&self) -> io::Result<u64> {
        counters::data_segs_in(&self.writer)
    }
}

/// A launched `depkit serve`, killed and reaped on drop.
struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Start `depkit serve` and wait for its `serving … on ADDR` line;
/// returns the process and the launch-to-ready time in seconds.
fn launch(
    args: &Args,
    spec: &Path,
    data_dir: Option<&Path>,
    log: &Path,
) -> BoxResult<(ServerProc, f64)> {
    let mut cmd = Command::new(&args.depkit);
    cmd.arg("serve").arg(spec).args(["--addr", "127.0.0.1:0"]);
    if let Some(dir) = data_dir {
        cmd.arg("--data-dir").arg(dir).args(["--fsync", "always"]);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(std::fs::File::create(log)?);
    let t0 = Instant::now();
    let mut child = cmd.spawn()?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut proc = ServerProc {
        child,
        stdout: BufReader::new(stdout),
        addr: String::new(),
    };
    let mut line = String::new();
    loop {
        line.clear();
        if proc.stdout.read_line(&mut line)? == 0 {
            return Err(format!(
                "depkit serve exited before its serving line (see {})",
                log.display()
            )
            .into());
        }
        if line.starts_with("serving ") {
            break;
        }
    }
    let ready = t0.elapsed().as_secs_f64();
    let expected = format!(
        "({} rows seeded, 3 dependencies)",
        gen::SERVE_EMPS + gen::SERVE_DEPTS
    );
    let (_, tail) = line
        .rsplit_once(" on ")
        .ok_or_else(|| format!("unparseable serving line `{}`", line.trim()))?;
    if !tail.trim_end().ends_with(&expected) {
        return Err(format!("server seeded something else: `{}`", line.trim()).into());
    }
    proc.addr = tail
        .split_whitespace()
        .next()
        .ok_or("serving line names no address")?
        .to_owned();
    Ok((proc, ready))
}

/// What the writer connection measured.
#[derive(Default)]
struct WriterOut {
    txn_ms: Samples,
    commit_ms: Samples,
    stage_ms: Samples,
    /// Every writer request (begin, stage, commit), pooled.
    request_ms: Samples,
    txns: u64,
    elapsed_s: f64,
}

/// Closed-loop churn until `deadline`, always ending on a complete pair
/// so the state is back at the seed.
fn run_writer(
    conn: &mut Conn,
    churn: &Churn,
    deadline: Instant,
    report: &mut Report,
    spans: &mut Spans,
) -> io::Result<WriterOut> {
    let mut out = WriterOut::default();
    let start = Instant::now();
    let mut k = 0u64;
    while Instant::now() < deadline {
        let (fwd, inv) = churn.pair(k);
        txn(conn, 2 * k, &fwd, &mut out, report, spans)?;
        txn(conn, 2 * k + 1, &inv, &mut out, report, spans)?;
        k += 1;
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    Ok(out)
}

fn txn(
    conn: &mut Conn,
    id: u64,
    ops: &[Op],
    out: &mut WriterOut,
    report: &mut Report,
    spans: &mut Spans,
) -> io::Result<()> {
    let t0 = Instant::now();
    let parent = spans.open("tcp.txn", t0, None, Some(id));
    let mut request = |line: &str, name: &'static str, report: &mut Report| {
        report.attempted += 1;
        let start = Instant::now();
        let reply = conn.round_trip(line)?;
        let end = Instant::now();
        spans.span(name, start, end, Some(parent), Some(id));
        out.request_ms.push(ms(end - start));
        if !is_ok(&reply) {
            report.fail(format!("`{line}` answered {reply}"));
        }
        Ok::<_, io::Error>((reply, ms(end - start)))
    };
    request(BEGIN, "tcp.begin", report)?;
    for op in ops {
        let (_, t) = request(&op.line(), "tcp.stage", report)?;
        out.stage_ms.push(t);
    }
    let line = commit_line(id);
    let (ack, t) = request(&line, "tcp.commit", report)?;
    out.commit_ms.push(t);
    let end = Instant::now();
    spans.close(parent, end);
    let field = |k: &str| ack.get(k).and_then(Json::as_i64);
    let width = Some(CHURN_WIDTH as i64);
    if is_ok(&ack)
        && (field("inserted") != width
            || field("deleted") != width
            || ack.get("replayed").and_then(Json::as_bool) != Some(false))
    {
        report.fail(format!("commit of txn {id} acked {ack}"));
    }
    out.txn_ms.push(ms(end - t0));
    out.txns += 1;
    Ok(())
}

/// What the open-loop monitor measured.
#[derive(Debug, Default)]
pub struct MonitorOut {
    /// Reply time minus due time, per request.
    pub latency_ms: Samples,
    /// Send time minus due time: how late the generator ran.
    pub lag_ms: Samples,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Send `request` every `period` from `start` until `deadline`, timing
/// each reply from when it was due, and `check` every reply.
pub fn run_monitor(
    conn: &mut Conn,
    request: &str,
    period: Duration,
    start: Instant,
    deadline: Instant,
    check: impl Fn(&Json) -> Result<(), String>,
    spans: &mut Spans,
) -> MonitorOut {
    let mut out = MonitorOut::default();
    for k in 0u32.. {
        let due = start + period * k;
        if due >= deadline {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        out.attempted += 1;
        let reply = conn.round_trip(request);
        let done = Instant::now();
        spans.span("tcp.health", sent, done, None, None);
        out.lag_ms.push(ms(sent.saturating_duration_since(due)));
        out.latency_ms.push(ms(done.saturating_duration_since(due)));
        match reply {
            Ok(r) => {
                if let Err(e) = check(&r) {
                    out.failures.push(e);
                }
            }
            Err(e) => {
                out.failures.push(format!("monitor I/O: {e}"));
                break;
            }
        }
    }
    out
}

/// A `health` reply is correct when every dependency of Σ is fully
/// satisfied: each committed generation of the churn keeps Σ.
fn check_health(reply: &Json) -> Result<(), String> {
    let deps = reply
        .get("deps")
        .and_then(Json::as_arr)
        .filter(|_| is_ok(reply))
        .ok_or_else(|| format!("health answered {reply}"))?;
    if deps.len() != 3
        || deps
            .iter()
            .any(|d| d.get("violating").and_then(Json::as_i64) != Some(0))
    {
        return Err(format!("health not fully satisfied: {reply}"));
    }
    Ok(())
}

/// Rows of each relation in a `dump` reply, sorted, in schema order.
fn dumped_rows(reply: &Json) -> Option<Vec<Vec<Vec<i64>>>> {
    let rels = reply.get("rels")?.as_arr()?;
    rels.iter()
        .map(|r| {
            let mut rows: Vec<Vec<i64>> = r
                .get("rows")?
                .as_arr()?
                .iter()
                .map(|row| row.as_arr()?.iter().map(Json::as_i64).collect())
                .collect::<Option<_>>()?;
            rows.sort_unstable();
            Some(rows)
        })
        .collect()
}

fn seed_rows(input: &Input) -> Vec<Vec<Vec<i64>>> {
    input
        .rels
        .iter()
        .map(|r| {
            let mut rows: Vec<Vec<i64>> = r.rows().map(<[i64]>::to_vec).collect();
            rows.sort_unstable();
            rows
        })
        .collect()
}

/// End-of-run checks: no violations, and the committed state equals the
/// seed (every forward transaction was undone by its inverse).
fn final_checks(conn: &mut Conn, input: &Input, report: &mut Report) -> io::Result<()> {
    report.attempted += 2;
    let q = conn.round_trip(r#"{"cmd":"query"}"#)?;
    if !is_ok(&q) || q.get("count").and_then(Json::as_i64) != Some(0) {
        report.fail(format!("final query reported {q}"));
    }
    let dump = conn.round_trip(r#"{"cmd":"dump"}"#)?;
    if dumped_rows(&dump) != Some(seed_rows(input)) {
        report.fail("final dump differs from the seed state");
    }
    Ok(())
}

pub fn run(args: &Args, dir: &Path, wal: bool, report: &mut Report) -> BoxResult<()> {
    let input = gen::referential(args.seed);
    let churn = Churn::new(&input, args.seed);
    let spec = dir.join("referential.dep");
    input.write_spec(&spec)?;

    // Shape check before timing: the seed must satisfy Σ.
    let db = input.database();
    let cat = CatalogState::new(&input.schema(), &input.sigma())?;
    cat.seed(&db)?;
    if !cat.snapshot().is_consistent() {
        report.fail("the generated seed violates Σ");
    }

    let kernel = Kernel::new();
    let mut host = Bracket::new(&kernel);
    let mut setups = Samples::new();
    let mut server = None;
    for i in 0..LAUNCHES {
        let data = wal.then(|| dir.join(format!("data-{i}")));
        let (proc, ready) = launch(
            args,
            &spec,
            data.as_deref(),
            &dir.join(format!("serve-{i}.log")),
        )?;
        // The server's CPU time by its serving line: parse, seed and
        // checkpoint; the rest of the launch (fsync, exec) stays as is.
        let cpu = counters::cpu_time(proc.child.id())?.as_secs_f64();
        setups.push(calib::at_reference_speed(ready, cpu, host.after_op()));
        server = Some(proc);
    }
    let server = server.expect("at least one launch");
    let pid = server.child.id();

    let origin = Instant::now();
    let mut writer_spans = Spans::new(origin, 1, args.trace);
    let mut monitor_spans = Spans::new(origin, 2, args.trace);
    let mut writer = Conn::connect(&server.addr)?;
    let mut monitor = Conn::connect(&server.addr)?;
    // Warm both connections (handler threads spawned, first reply sent).
    for conn in [&mut writer, &mut monitor] {
        report.attempted += 1;
        if let Err(e) = check_health(&conn.round_trip(HEALTH)?) {
            report.fail(e);
        }
    }

    let written_before = counters::write_bytes(pid)?;
    let cpu_before = counters::cpu_time(pid)?;
    let segs_before = writer.segments_in()? + monitor.segments_in()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let (writer_out, mut mon) = std::thread::scope(|s| {
        let mon = s.spawn(|| {
            run_monitor(
                &mut monitor,
                HEALTH,
                MONITOR_PERIOD,
                start,
                deadline,
                check_health,
                &mut monitor_spans,
            )
        });
        let out = run_writer(&mut writer, &churn, deadline, report, &mut writer_spans);
        (out, mon.join().expect("monitor thread panicked"))
    });
    let written = counters::write_bytes(pid)? - written_before;
    let server_cpu = counters::cpu_time(pid)? - cpu_before;
    let kernel_ms = host.after_op();
    let segs = writer.segments_in()? + monitor.segments_in()? - segs_before;
    let hwm_kib = counters::vm_hwm_kib(pid)?;
    report.attempted += mon.attempted;
    for f in &mon.failures {
        report.fail(f.clone());
    }
    let mut w = match writer_out {
        Ok(w) => w,
        Err(e) => {
            report.fail(format!("writer I/O: {e}"));
            return Ok(());
        }
    };
    final_checks(&mut writer, &input, report)?;
    drop((writer, monitor, server));

    // A transaction's on-CPU share is taken as the server's busy share
    // over the traffic, rescaled by the host speed around the traffic.
    let busy = stats::ratio(server_cpu.as_secs_f64(), w.elapsed_s).min(1.0);
    let mut op_ms = Samples::new();
    for &t in w.txn_ms.values() {
        op_ms.push(calib::at_reference_speed(t, busy * t, kernel_ms));
    }
    let mut health_ms = mon.latency_ms;
    report.percentile("setup_s", &mut setups, 50.0);
    report.metric("peak_rss_mb", hwm_kib as f64 / 1024.0, 1);
    report.percentile("op_ms.p50", &mut op_ms, 50.0);
    report.percentile("op_ms.p90", &mut op_ms, 90.0);
    report.percentile("op_wall_ms.p50", &mut w.txn_ms, 50.0);
    report.percentile("op_wall_ms.p90", &mut w.txn_ms, 90.0);
    report.metric("ops_per_s", w.txns as f64 / w.elapsed_s, w.txn_ms.len());
    report.metric("host.kernel_ms", kernel_ms, 2);
    if !args.trace {
        return Ok(());
    }

    report.percentile("commit_ms.p50", &mut w.commit_ms, 50.0);
    report.percentile("commit_ms.p90", &mut w.commit_ms, 90.0);
    report.percentile("stage_ms.p50", &mut w.stage_ms, 50.0);
    report.percentile("health_ms.p50", &mut health_ms, 50.0);
    report.percentile("health_ms.p90", &mut health_ms, 90.0);
    report.percentile("bench.monitor_lag_ms", &mut mon.lag_ms, 100.0);
    report.count("bench.op_samples", w.txn_ms.len());
    report.count("bench.health_samples", health_ms.len());
    let replies = w.request_ms.len() + health_ms.len();
    report.metric(
        "server.reply_segments",
        stats::ratio(segs as f64, replies as f64),
        replies,
    );
    report.metric(
        "server.write_bytes_per_txn",
        stats::ratio(written as f64, w.txns as f64),
        w.txns as usize,
    );

    // In-process replay of the same requests through the public layers.
    let (cat, durable) = if wal {
        drop(cat);
        let mut cfg = DurabilityConfig::new(dir.join("replay-data"));
        cfg.fsync = FsyncPolicy::Always;
        // The default cadence, as `depkit serve` runs it.
        let every = cfg.checkpoint_every;
        let (cat, dur, _) = Durability::open(&input.schema(), &input.sigma(), cfg)?;
        cat.seed(&db)?;
        dur.checkpoint(&cat)?;
        (cat, Some((dur, every)))
    } else {
        (cat, None)
    };
    let mut reader_spans = Spans::new(origin, 3, args.trace);
    let mut r = replay(
        &churn,
        &cat,
        durable.as_ref().map(|(d, every)| (&**d, *every)),
        report,
        &mut writer_spans,
        &mut reader_spans,
    );
    if cat.snapshot().to_database() != db {
        report.fail("in-process replay did not return to the seed state");
    }
    report.percentile("protocol.parse_us", &mut r.parse_us, 50.0);
    report.metric(
        "server.io_residual_ms",
        stats::io_residual_ms(
            w.request_ms.p50().unwrap_or(0.0),
            r.request_ms.p50().unwrap_or(0.0),
        ),
        w.request_ms.len(),
    );
    report.percentile("incremental.begin_us", &mut r.begin_us, 50.0);
    report.percentile("incremental.stage_us", &mut r.stage_us, 50.0);
    report.percentile("incremental.commit_us.p50", &mut r.commit_us, 50.0);
    report.percentile("incremental.commit_us.p90", &mut r.commit_us, 90.0);
    report.percentile("incremental.health_us.p50", &mut r.health_us, 50.0);
    report.percentile("incremental.health_us.p90", &mut r.health_us, 90.0);
    report.count("bench.replay_txns", r.txns as usize);
    if durable.is_some() {
        report.count("durable.checkpoints", r.checkpoint_ms.len());
        report.percentile("durable.checkpoint_ms", &mut r.checkpoint_ms, 50.0);
        let (mut append, mut sync) = wal_probe(&input, &churn, dir)?;
        report.percentile("wal.append_us", &mut append, 50.0);
        report.percentile("wal.sync_us", &mut sync, 50.0);
    }
    let path = args
        .work
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    trace::write_chrome(&path, &[&writer_spans, &monitor_spans, &reader_spans])?;
    Ok(())
}

/// What the in-process replay measured.
#[derive(Default)]
struct ReplayOut {
    parse_us: Samples,
    begin_us: Samples,
    stage_us: Samples,
    commit_us: Samples,
    health_us: Samples,
    /// Parse + layer call per writer request, pooled, in ms: the
    /// in-process counterpart of the TCP request latency.
    request_ms: Samples,
    checkpoint_ms: Samples,
    txns: u64,
}

/// Replay `REPLAY_PAIRS` churn pairs through `parse_request` and the
/// catalog's session API on this thread while a second thread reads
/// `snapshot()` + `health()` every `HEALTH_READ_PAUSE`.
fn replay(
    churn: &Churn,
    cat: &CatalogState,
    durable: Option<(&Durability, u64)>,
    report: &mut Report,
    spans: &mut Spans,
    reader_spans: &mut Spans,
) -> ReplayOut {
    let done = AtomicBool::new(false);
    let (mut out, (health_us, health_failures)) = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut lat = Samples::new();
            let mut failures = 0u64;
            while !done.load(Ordering::Acquire) {
                let t0 = Instant::now();
                let snap = cat.snapshot();
                let health = snap.health();
                drop(snap);
                let t1 = Instant::now();
                reader_spans.span("incremental.health", t0, t1, None, None);
                lat.push(us(t1 - t0));
                if health.iter().any(|h| h.violating != 0) {
                    failures += 1;
                }
                std::thread::sleep(HEALTH_READ_PAUSE);
            }
            (lat, failures)
        });
        let mut out = ReplayOut::default();
        for k in 0..REPLAY_PAIRS {
            let (fwd, inv) = churn.pair(k);
            for (id, ops) in [(2 * k, fwd), (2 * k + 1, inv)] {
                if let Err(e) = replay_txn(cat, durable, id, &ops, &mut out, spans) {
                    report.fail(format!("replayed txn {id}: {e}"));
                }
                report.attempted += 1;
            }
        }
        done.store(true, Ordering::Release);
        (out, reader.join().expect("reader thread panicked"))
    });
    report.attempted += health_us.len() as u64;
    for _ in 0..health_failures {
        report.fail("in-process health saw a violation");
    }
    out.health_us = health_us;
    out
}

/// `durable` is the durability layer with its checkpoint cadence.
fn replay_txn(
    cat: &CatalogState,
    durable: Option<(&Durability, u64)>,
    id: u64,
    ops: &[Op],
    out: &mut ReplayOut,
    spans: &mut Spans,
) -> Result<(), String> {
    let t0 = Instant::now();
    let parent = spans.open("txn", t0, None, Some(id));
    let parse = |line: &str, out: &mut ReplayOut, spans: &mut Spans| {
        let a = Instant::now();
        let req = parse_request(line);
        let b = Instant::now();
        spans.span("protocol.parse", a, b, Some(parent), Some(id));
        out.parse_us.push(us(b - a));
        req.map(|r| (r, b - a))
    };
    let (_, p) = parse(BEGIN, out, spans)?;
    let a = Instant::now();
    let mut session = cat.begin();
    let b = Instant::now();
    spans.span("incremental.begin", a, b, Some(parent), Some(id));
    out.begin_us.push(us(b - a));
    out.request_ms.push(ms(p + (b - a)));
    for op in ops {
        let (req, p) = parse(&op.line(), out, spans)?;
        let a = Instant::now();
        let staged = match req {
            Request::Insert { rel, row } => session.stage_insert(rel.as_str(), row),
            Request::Delete { rel, row } => session.stage_delete(rel.as_str(), row),
            other => return Err(format!("unexpected request {other:?}")),
        };
        let b = Instant::now();
        staged.map_err(|e| e.to_string())?;
        spans.span("incremental.stage", a, b, Some(parent), Some(id));
        out.stage_us.push(us(b - a));
        out.request_ms.push(ms(p + (b - a)));
    }
    let line = commit_line(id);
    let (req, p) = parse(&line, out, spans)?;
    let Request::Commit {
        tag: Some((client, token)),
    } = req
    else {
        return Err(format!("commit line parsed as {req:?}"));
    };
    let a = Instant::now();
    let outcome = session
        .commit_tagged(Some((&client, &token)))
        .map_err(|e| e.to_string())?;
    let b = Instant::now();
    spans.span("incremental.commit", a, b, Some(parent), Some(id));
    out.commit_us.push(us(b - a));
    let mut cost = p + (b - a);
    if let Some((d, every)) = durable {
        let a = Instant::now();
        d.note_commit(cat).map_err(|e| e.to_string())?;
        let b = Instant::now();
        spans.span("durable.note_commit", a, b, Some(parent), Some(id));
        cost += b - a;
        // The serve layer counts every effective commit; the cadence-th
        // one checkpoints.
        if (id + 1).is_multiple_of(every) {
            out.checkpoint_ms.push(ms(b - a));
        }
    }
    out.request_ms.push(ms(cost));
    spans.close(parent, Instant::now());
    out.txns += 1;
    if outcome.applied.inserted != CHURN_WIDTH
        || outcome.applied.deleted != CHURN_WIDTH
        || outcome.replayed
    {
        return Err(format!("commit applied {:?}", outcome));
    }
    Ok(())
}

/// Time `WalWriter::append_commit` (no fsync) and `sync` on the
/// workload's own commit frames.
fn wal_probe(input: &Input, churn: &Churn, dir: &Path) -> BoxResult<(Samples, Samples)> {
    let header = WalHeader {
        base_gen: 0,
        schema: input.decls.iter().map(|d| d.to_string()).collect(),
        sigma: input.deps.iter().map(|d| d.to_string()).collect(),
    };
    let mut w = WalWriter::create(&dir.join("probe-wal.log"), &header, FsyncPolicy::Never)?;
    let (mut append, mut sync) = (Samples::new(), Samples::new());
    for g in 0..WAL_PROBE_FRAMES {
        let (fwd, inv) = churn.pair(g / 2);
        let ops = if g % 2 == 0 { fwd } else { inv };
        let mut delta = Delta::new();
        for op in &ops {
            if op.insert {
                delta.insert_ints("EMP", &op.row);
            } else {
                delta.delete_ints("EMP", &op.row);
            }
        }
        let frame = CommitFrame {
            generation: g + 1,
            client: CLIENT_ID.to_owned(),
            token: format!("t{g}"),
            delta,
        };
        let a = Instant::now();
        w.append_commit(&frame)?;
        let b = Instant::now();
        w.sync()?;
        let c = Instant::now();
        append.push(us(b - a));
        sync.push(us(c - b));
    }
    Ok((append, sync))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stub server that answers every line with `reply` after sleeping
    /// `service` — slower than the monitor's period, so requests queue.
    fn slow_stub(service: Duration, reply: &'static str) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                std::thread::sleep(service);
                // One write per reply: a split reply would stall on the
                // Nagle/delayed-ACK interaction this benchmark measures.
                if writer.write_all(format!("{reply}\n").as_bytes()).is_err() {
                    break;
                }
                line.clear();
            }
        });
        addr
    }

    #[test]
    fn open_loop_latency_counts_queueing_behind_a_slow_server() {
        let service = Duration::from_millis(60);
        let period = Duration::from_millis(20);
        let addr = slow_stub(service, r#"{"ok":true}"#);
        let mut conn = Conn::connect(&addr).unwrap();
        let start = Instant::now();
        let deadline = start + period * 5;
        let mut spans = Spans::new(start, 1, false);
        let mut out = run_monitor(
            &mut conn,
            HEALTH,
            period,
            start,
            deadline,
            |_| Ok(()),
            &mut spans,
        );
        assert_eq!(out.attempted, 5);
        assert_eq!(out.latency_ms.len(), 5);
        assert!(out.failures.is_empty());
        // Request k is due at 20k ms but can only be sent once reply k-1
        // is back at ~60k ms: it waits ~40k ms, then takes 60 ms.
        let mut lat = out.latency_ms.clone();
        let mut lags = out.lag_ms.clone();
        let first_lag = lags.percentile(20.0).unwrap();
        assert!(
            first_lag < 15.0,
            "the first request goes out on time: {first_lag}"
        );
        let worst_lag = lags.percentile(100.0).unwrap();
        assert!(worst_lag >= 150.0, "the generator fell behind: {worst_lag}");
        let worst = lat.percentile(100.0).unwrap();
        assert!(
            worst >= 60.0 + 150.0,
            "latency includes the queueing: {worst}"
        );
        assert!(lat.percentile(20.0).unwrap() >= 60.0);
        assert!(out.latency_ms.p50().unwrap() > out.lag_ms.p50().unwrap());
    }

    #[test]
    fn a_fast_server_keeps_the_generator_on_schedule() {
        let addr = slow_stub(Duration::from_millis(1), r#"{"ok":false}"#);
        let mut conn = Conn::connect(&addr).unwrap();
        conn.round_trip(HEALTH).unwrap();
        let start = Instant::now();
        let period = Duration::from_millis(50);
        let mut spans = Spans::new(start, 1, false);
        let mut out = run_monitor(
            &mut conn,
            HEALTH,
            period,
            start,
            start + period * 4,
            |r| {
                if is_ok(r) {
                    Ok(())
                } else {
                    Err("refused".into())
                }
            },
            &mut spans,
        );
        assert_eq!(out.attempted, 4);
        assert_eq!(out.failures.len(), 4, "every ok:false reply is a failure");
        // Each reply is back long before the next request is due.
        assert!(out.lag_ms.percentile(100.0).unwrap() < 40.0);
        assert!(out.latency_ms.p50().unwrap() < 40.0);
    }

    #[test]
    fn health_and_dump_replies_are_checked() {
        let healthy = json::parse(
            r#"{"ok":true,"generation":3,"deps":[{"violating":0},{"violating":0},{"violating":0}]}"#,
        )
        .unwrap();
        assert!(check_health(&healthy).is_ok());
        let sick = json::parse(
            r#"{"ok":true,"generation":3,"deps":[{"violating":0},{"violating":1},{"violating":0}]}"#,
        )
        .unwrap();
        assert!(check_health(&sick).is_err());
        assert!(check_health(&json::parse(r#"{"ok":false}"#).unwrap()).is_err());
        let dump = json::parse(
            r#"{"ok":true,"rels":[{"rel":"EMP","rows":[[2,1],[1,0]]},{"rel":"DEPT","rows":[[0,9]]}]}"#,
        )
        .unwrap();
        assert_eq!(
            dumped_rows(&dump),
            Some(vec![vec![vec![1, 0], vec![2, 1]], vec![vec![0, 9]]])
        );
    }
}
