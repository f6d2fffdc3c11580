//! Cross-process sharded discovery: a coordinator that hands n-ary IND
//! refutation passes to worker processes over the line-JSON framing, and
//! the worker loop that executes them.
//!
//! The coordinator runs [`discover_store_sharded`] on its own
//! [`ColumnStore`]: it opens every column's distinct stream and decides the
//! unary INDs itself, exactly as an in-process run does (under the same
//! memory budget), and mines FDs and minimizes the cover locally. What
//! it ships is the one stage that scans rows per candidate: each **refute**
//! task is one FNV key-range pass of the n-ary IND validation. Each
//! candidate ships with its miss limit `L`, and the worker reports each
//! candidate's misses on its key shard, counted up to `L + 1`
//! ([`depkit_solver::discover::refute_candidates_pass`]). The coordinator
//! sums the passes and refutes a candidate iff its sum exceeds `L`. Every
//! projection key belongs to exactly one pass, so an admitted candidate
//! never reaches a cap: its sum is the unsharded count, and the
//! confidences a sharded run reports are identical to every in-process
//! mode. Exact runs ship `L = 0`, which is plain refutation. A run whose
//! levels leave no candidate standing plans no shard at all.
//!
//! **Commit / retry protocol.** Workers poll (`hello` → `next` → work →
//! `done`/`failed`), heartbeating while a task runs. An idle `next` is
//! held on the coordinator until a task is queued, the run ends, or a
//! heartbeat interval passes, so a worker sees a new phase or the end of a
//! run as soon as it happens. Every assignment carries an *attempt
//! token*; the coordinator accepts the first `done` for the current token
//! and counts anything else as stale — a stalled worker whose shard was
//! reassigned can finish and report without its counts ever being summed
//! twice. A `done` is checked before acceptance:
//! one count per candidate, each at most its cap `L + 1`. Failures —
//! explicit `failed`, a dropped connection, a heartbeat timeout — requeue
//! with a bounded attempt budget; exhausting it fails the run with a
//! diagnostic instead of hanging. A handler that panics while holding the
//! coordinator's state does not take the other connections down with it:
//! every lock recovers a poisoned guard.
//!
//! Both sides recompute the shard plan's frame of reference on their own:
//! [`column_table`] gives global column ids from the schema alone, and
//! [`ColumnStore::from_buffers`] gives the value-id space, as a pure
//! function of the rows buffered and their order (`depkit discover
//! --workers` buffers every process the same spec file's rows in file
//! order). So the protocol ships *plans* and counts, never data, and a
//! worker needs nothing from the coordinator but its socket.
//!
//! **Fault injection.** [`FaultPlan`] deterministically kills or stalls a
//! chosen worker at a chosen refute pass and attempt — programmatic for
//! in-process tests, `DEPKIT_FAULT` in the environment for process
//! workers (`depkit shard-worker` reads it at startup). Faults fire on
//! attempt 0 by default, so every scenario converges to the identical
//! cover through the retry path. The hook exists for tests; production
//! runs simply leave the plan empty.

use crate::conn::{LineConn, LineRead};
use crate::json::{obj, parse, Json};
use depkit_core::column::ColumnStore;
use depkit_core::schema::DatabaseSchema;
use depkit_solver::discover::{
    column_table, discover_store_sharded, refute_candidates_pass, Discovery, DiscoveryConfig,
    IndCand, ShardExecutor,
};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Coordinator tunables. The defaults suit tests and CI; the CLI scales
/// `refute_passes` with the worker count.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Key-range passes for n-ary refutation; `0` means one pass per
    /// expected worker is chosen by the caller. Verdicts are
    /// pass-count-independent; only the work split changes.
    pub refute_passes: usize,
    /// How often a busy worker heartbeats, and the longest an idle
    /// worker's `next` is held before it is answered `wait`.
    pub heartbeat_interval: Duration,
    /// Silence after which the coordinator reassigns a running shard.
    pub heartbeat_timeout: Duration,
    /// Attempts per shard (first run + retries) before the whole
    /// discovery fails with a diagnostic.
    pub max_attempts: u32,
    /// Global progress deadline: if no assignment, heartbeat, or
    /// completion happens for this long (e.g. no worker ever connects),
    /// the run fails instead of hanging.
    pub progress_timeout: Duration,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            refute_passes: 0,
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_timeout: Duration::from_secs(2),
            max_attempts: 4,
            progress_timeout: Duration::from_secs(30),
        }
    }
}

/// Coordinator-side counters for one sharded run — the observable record
/// of the retry path, which the fault-injection tests assert against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Refute shards planned, over every n-ary level.
    pub shards: usize,
    /// Task assignments handed to workers (≥ `shards` when retries ran).
    pub assigned: usize,
    /// Accepted completions (== `shards` on success).
    pub completed: usize,
    /// Failure-driven requeues: explicit `failed` and dropped connections.
    pub retried: usize,
    /// Heartbeat-timeout reassignments.
    pub reassigned: usize,
    /// Completions or failures ignored because their attempt token was
    /// superseded.
    pub stale_results: usize,
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// What an injected fault does to the worker that draws the targeted
/// shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker dies on assignment: drops its connection and exits
    /// without reporting. Recovery path: disconnect/heartbeat requeue.
    Kill,
    /// The worker goes silent (no heartbeats) for the given duration,
    /// then completes normally. Recovery path: timeout reassignment plus
    /// stale-result rejection of the latecomer.
    Stall(Duration),
}

/// One deterministic fault: fires when a worker is assigned the matching
/// refute pass at the matching attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// What happens.
    pub kind: FaultKind,
    /// The refute pass targeted.
    pub pass: usize,
    /// Attempt the fault fires on (0 = first try, so the retry is clean).
    pub attempt: u32,
}

/// A set of injected faults, empty in production.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// The faults, in no particular order.
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// The empty plan.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Parse a plan from the `DEPKIT_FAULT` syntax:
    /// `<kind>:refute:<pass>[:<stall ms>]`, `;`-separated, where the kind
    /// is `kill` or `stall`. Examples: `kill:refute:0`,
    /// `stall:refute:1:3000`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut faults = Vec::new();
        for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
            let parts: Vec<&str> = entry.trim().split(':').collect();
            if parts.len() < 3 {
                return Err(format!("bad fault `{entry}`: want kind:refute:pass[:ms]"));
            }
            if parts[1] != "refute" {
                return Err(format!("bad fault task `{}`: want `refute`", parts[1]));
            }
            let pass: usize = parts[2]
                .parse()
                .map_err(|_| format!("bad fault pass `{}`", parts[2]))?;
            let kind = match parts[0] {
                "kill" => FaultKind::Kill,
                "stall" => {
                    let ms: u64 = match parts.get(3) {
                        Some(ms) => ms.parse().map_err(|_| format!("bad stall ms `{ms}`"))?,
                        None => 3000,
                    };
                    FaultKind::Stall(Duration::from_millis(ms))
                }
                other => return Err(format!("bad fault kind `{other}`")),
            };
            faults.push(Fault {
                kind,
                pass,
                attempt: 0,
            });
        }
        Ok(FaultPlan { faults })
    }

    /// The plan in `DEPKIT_FAULT`, or the empty plan when unset.
    pub fn from_env() -> Result<FaultPlan, String> {
        match std::env::var("DEPKIT_FAULT") {
            Ok(spec) => FaultPlan::parse(&spec),
            Err(_) => Ok(FaultPlan::none()),
        }
    }

    /// The fault (if any) firing for this assignment.
    fn matching(&self, pass: usize, attempt: u32) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.pass == pass && f.attempt == attempt)
            .map(|f| f.kind)
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// One shard of the plan: refute pass `pass` of `passes` over a batch.
#[derive(Debug, Clone)]
struct TaskSpec {
    pass: usize,
    passes: usize,
    cands: Arc<Vec<IndCand>>,
    /// Per-candidate miss limits; a pass counts each up to its limit + 1.
    limits: Arc<Vec<u64>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskStatus {
    Queued,
    Running { attempt: u32, worker: i64 },
    Done,
}

#[derive(Debug)]
struct TaskState {
    spec: TaskSpec,
    attempt: u32,
    status: TaskStatus,
    last_beat: Instant,
    /// The accepted pass's miss counts, one per candidate.
    misses: Option<Vec<u64>>,
}

#[derive(Debug)]
struct Phase {
    tasks: Vec<TaskState>,
    queue: VecDeque<usize>,
    remaining: usize,
    error: Option<String>,
}

impl Phase {
    /// Task `t`, if it exists and runs under the given attempt token.
    fn running(&mut self, t: i64, attempt: i64) -> Option<&mut TaskState> {
        let task = self.tasks.get_mut(usize::try_from(t).ok()?)?;
        let current = matches!(
            task.status,
            TaskStatus::Running { attempt: a, .. } if i64::from(a) == attempt
        );
        current.then_some(task)
    }
}

#[derive(Debug)]
struct CoordState {
    phase: Option<Phase>,
    next_worker: i64,
    stats: ShardStats,
    /// Set when a run ends: every worker's next poll is told to exit.
    shutdown: bool,
    /// Set by [`Coordinator::shutdown`]: the accept loop stops. Until then
    /// a worker that connects after the run ended is still served, and
    /// told to exit, instead of having its connection reset.
    closed: bool,
    /// Last assignment/heartbeat/completion — the progress deadline base.
    touched: Instant,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<CoordState>,
    cv: Condvar,
    cfg: ShardConfig,
}

impl Shared {
    /// The coordinator state. A handler that panicked while holding it
    /// poisons the mutex; every update here leaves the state consistent
    /// between statements that can panic, so the guard is recovered rather
    /// than failing every later request (the policy of
    /// `incremental::catalog`'s locks).
    fn lock(&self) -> MutexGuard<'_, CoordState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wait on the condvar for at most `timeout`, recovering a poisoned
    /// guard as [`Shared::lock`] does.
    fn wait<'a>(
        &self,
        guard: MutexGuard<'a, CoordState>,
        timeout: Duration,
    ) -> MutexGuard<'a, CoordState> {
        match self.cv.wait_timeout(guard, timeout) {
            Ok((guard, _)) => guard,
            Err(poisoned) => poisoned.into_inner().0,
        }
    }
}

/// The sharded-discovery coordinator: owns the listener and the
/// shard-plan state machine.
///
/// Workers connect on their own schedule — spawn processes running
/// [`run_worker`] (or `depkit shard-worker`) against
/// [`Coordinator::local_addr`], then call [`Coordinator::run`].
#[derive(Debug)]
pub struct Coordinator {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Coordinator {
    /// Bind `addr` (use `"127.0.0.1:0"` for an ephemeral port) and start
    /// accepting workers.
    pub fn bind(addr: &str, cfg: ShardConfig) -> io::Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state: Mutex::new(CoordState {
                phase: None,
                next_worker: 0,
                stats: ShardStats::default(),
                shutdown: false,
                closed: false,
                touched: Instant::now(),
            }),
            cv: Condvar::new(),
            cfg,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.lock().closed {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let conn_shared = Arc::clone(&accept_shared);
                std::thread::spawn(move || {
                    let _ = serve_worker(&conn_shared, stream);
                });
            }
        });
        Ok(Coordinator {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address workers should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the coordinator counters.
    pub fn stats(&self) -> ShardStats {
        self.shared.lock().stats
    }

    /// Drive one sharded discovery over the connected (and
    /// still-connecting) workers, then tell workers to shut down. The
    /// result is byte-identical to [`discover_store`] on the same inputs;
    /// the returned [`ShardStats`] record how the run executed.
    ///
    /// [`discover_store`]: depkit_solver::discover::discover_store
    pub fn run(
        &self,
        schema: &DatabaseSchema,
        store: &ColumnStore,
        config: &DiscoveryConfig,
        expected_workers: usize,
    ) -> io::Result<(Discovery, ShardStats)> {
        self.run_with_start(schema, store, config, expected_workers, || Ok(()))
    }

    /// [`Coordinator::run`], calling `start` once before the first refute
    /// phase is installed, and not at all when the run plans no shard: a
    /// caller that spawns its workers there starts none it does not need.
    /// An error from `start` fails the run.
    pub fn run_with_start(
        &self,
        schema: &DatabaseSchema,
        store: &ColumnStore,
        config: &DiscoveryConfig,
        expected_workers: usize,
        start: impl FnOnce() -> io::Result<()>,
    ) -> io::Result<(Discovery, ShardStats)> {
        let mut exec = CoordExec {
            coord: self,
            expected_workers,
            start: Some(Box::new(start)),
        };
        let result = discover_store_sharded(schema, store, config, &mut exec);
        self.shared.lock().shutdown = true;
        self.shared.cv.notify_all();
        let stats = self.stats();
        Ok((result?, stats))
    }

    /// Stop accepting and join the accept loop. Workers polling `next`
    /// have been told to shut down by [`Coordinator::run`]; call this
    /// after joining or waiting them.
    pub fn shutdown(mut self) -> io::Result<()> {
        {
            let mut st = self.shared.lock();
            st.shutdown = true;
            st.closed = true;
        }
        self.shared.cv.notify_all();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        match self.accept.take() {
            Some(h) => h
                .join()
                .map_err(|_| io::Error::other("shard accept loop panicked")),
            None => Ok(()),
        }
    }

    /// Install a phase, wait for workers to drain it, and return each
    /// task's miss counts in task order.
    fn run_phase(&self, specs: Vec<TaskSpec>) -> io::Result<Vec<Vec<u64>>> {
        let n = specs.len();
        {
            let mut st = self.shared.lock();
            st.stats.shards += n;
            st.touched = Instant::now();
            st.phase = Some(Phase {
                tasks: specs
                    .into_iter()
                    .map(|spec| TaskState {
                        spec,
                        attempt: 0,
                        status: TaskStatus::Queued,
                        last_beat: Instant::now(),
                        misses: None,
                    })
                    .collect(),
                queue: (0..n).collect(),
                remaining: n,
                error: None,
            });
        }
        self.shared.cv.notify_all();
        let cfg = &self.shared.cfg;
        let mut st = self.shared.lock();
        loop {
            let now = Instant::now();
            let touched = st.touched;
            let CoordState { phase, stats, .. } = &mut *st;
            let phase = phase.as_mut().expect("phase installed above");
            // Reassign shards whose worker went silent, and wake the idle
            // workers waiting in `next` for them.
            for t in 0..phase.tasks.len() {
                if let TaskStatus::Running { .. } = phase.tasks[t].status {
                    if now.duration_since(phase.tasks[t].last_beat) > cfg.heartbeat_timeout {
                        stats.reassigned += 1;
                        requeue(phase, t, cfg.max_attempts, "heartbeat timeout");
                        self.shared.cv.notify_all();
                    }
                }
            }
            if phase.error.is_none()
                && phase.remaining > 0
                && now.duration_since(touched) > cfg.progress_timeout
            {
                phase.error = Some(format!(
                    "no shard progress for {:?} ({} of {} shards outstanding) — are workers running?",
                    cfg.progress_timeout, phase.remaining, phase.tasks.len()
                ));
            }
            if let Some(e) = phase.error.clone() {
                st.phase = None;
                return Err(io::Error::other(e));
            }
            if phase.remaining == 0 {
                let phase = st.phase.take().expect("phase present");
                return Ok(phase
                    .tasks
                    .into_iter()
                    .map(|t| t.misses.expect("completed task has counts"))
                    .collect());
            }
            st = self.shared.wait(st, Duration::from_millis(20));
        }
    }
}

/// Requeue task `t` for another attempt, or fail the phase when its
/// attempt budget is spent.
fn requeue(phase: &mut Phase, t: usize, max_attempts: u32, cause: &str) {
    let task = &mut phase.tasks[t];
    task.attempt += 1;
    if task.attempt >= max_attempts {
        phase.error = Some(format!(
            "shard {t} failed after {} attempts (last cause: {cause})",
            task.attempt
        ));
    } else {
        task.status = TaskStatus::Queued;
        task.last_beat = Instant::now();
        phase.queue.push_back(t);
    }
}

/// The [`ShardExecutor`] the coordinator hands to the solver pipeline.
struct CoordExec<'a> {
    coord: &'a Coordinator,
    expected_workers: usize,
    /// Called before the first phase is installed, then dropped.
    start: Option<Box<dyn FnOnce() -> io::Result<()> + 'a>>,
}

impl ShardExecutor for CoordExec<'_> {
    fn count_misses(&mut self, cands: &[IndCand], limits: &[u64]) -> io::Result<Vec<u64>> {
        if cands.is_empty() {
            return Ok(Vec::new());
        }
        if let Some(start) = self.start.take() {
            start()?;
        }
        let passes = match self.coord.shared.cfg.refute_passes {
            0 => self.expected_workers.max(1),
            p => p,
        };
        let shared_cands = Arc::new(cands.to_vec());
        let shared_limits = Arc::new(limits.to_vec());
        let specs = (0..passes)
            .map(|pass| TaskSpec {
                pass,
                passes,
                cands: Arc::clone(&shared_cands),
                limits: Arc::clone(&shared_limits),
            })
            .collect();
        // Sum element-wise: every projection key is counted by exactly
        // one pass, so an admitted candidate's sum is its unsharded count.
        // `task_done` bounds each pass at limit + 1, so the sums stay small.
        let mut misses = vec![0u64; cands.len()];
        for counts in self.coord.run_phase(specs)? {
            for ((sum, m), &limit) in misses.iter_mut().zip(counts).zip(limits) {
                *sum = (*sum + m).min(limit + 1);
            }
        }
        Ok(misses)
    }
}

// ---------------------------------------------------------------------------
// Coordinator-side connection handling
// ---------------------------------------------------------------------------

fn jbool(v: Option<&Json>) -> bool {
    matches!(v, Some(Json::Bool(true)))
}

fn jerr(message: String) -> Json {
    obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message)),
    ])
}

/// Drive one worker connection. `running` tracks the assignment this
/// connection holds, so a dropped connection requeues its shard
/// immediately instead of waiting out the heartbeat timeout.
fn serve_worker(shared: &Shared, stream: TcpStream) -> io::Result<()> {
    let mut conn = LineConn::new(stream)?;
    let mut running: Option<(usize, u32)> = None;
    while let Ok(LineRead::Line(line)) = conn.read_line(usize::MAX) {
        if line.trim().is_empty() {
            continue;
        }
        let response = match parse(&line) {
            Ok(req) => respond(shared, &mut running, &req),
            Err(e) => jerr(format!("{e} (in `{line}`)")),
        };
        if conn.send(&response).is_err() {
            break;
        }
    }
    if let Some((t, attempt)) = running {
        let mut st = shared.lock();
        let CoordState { phase, stats, .. } = &mut *st;
        if let Some(phase) = phase.as_mut() {
            if phase.running(t as i64, i64::from(attempt)).is_some() {
                stats.retried += 1;
                requeue(phase, t, shared.cfg.max_attempts, "worker disconnected");
                shared.cv.notify_all();
            }
        }
    }
    Ok(())
}

/// The `id` and `attempt` token a `beat`, `done` or `failed` names.
fn token(req: &Json) -> Option<(i64, i64)> {
    Some((
        req.get("id").and_then(Json::as_i64)?,
        req.get("attempt").and_then(Json::as_i64)?,
    ))
}

/// Execute one worker request.
fn respond(shared: &Shared, running: &mut Option<(usize, u32)>, req: &Json) -> Json {
    match req.get("cmd").and_then(Json::as_str) {
        Some("hello") => {
            let mut st = shared.lock();
            let id = st.next_worker;
            st.next_worker += 1;
            obj(vec![("ok", Json::Bool(true)), ("worker", Json::Num(id))])
        }
        Some("next") => next_task(shared, running, req),
        Some("beat") => {
            let Some((t, attempt)) = token(req) else {
                return jerr("beat needs id and attempt".into());
            };
            let mut st = shared.lock();
            st.touched = Instant::now();
            let task = st
                .phase
                .as_mut()
                .and_then(|phase| phase.running(t, attempt));
            let active = match task {
                Some(task) => {
                    task.last_beat = Instant::now();
                    true
                }
                None => false,
            };
            obj(vec![
                ("ok", Json::Bool(true)),
                ("active", Json::Bool(active)),
            ])
        }
        Some("done") => task_done(shared, running, req),
        Some("failed") => {
            let Some((t, attempt)) = token(req) else {
                return jerr("failed needs id and attempt".into());
            };
            let cause = req
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("worker reported failure");
            *running = None;
            let mut st = shared.lock();
            let CoordState { phase, stats, .. } = &mut *st;
            if let Some(phase) = phase.as_mut() {
                if phase.running(t, attempt).is_some() {
                    stats.retried += 1;
                    requeue(phase, t as usize, shared.cfg.max_attempts, cause);
                } else {
                    stats.stale_results += 1;
                }
            }
            shared.cv.notify_all();
            obj(vec![("ok", Json::Bool(true))])
        }
        Some(other) => jerr(format!("unknown cmd `{other}`")),
        None => jerr("request has no cmd".into()),
    }
}

/// Assign the next queued shard to the polling worker. With none queued,
/// the reply waits until one is, the run shuts down, or a heartbeat
/// interval passes.
fn next_task(shared: &Shared, running: &mut Option<(usize, u32)>, req: &Json) -> Json {
    let worker = req.get("worker").and_then(Json::as_i64).unwrap_or(-1);
    let deadline = Instant::now() + shared.cfg.heartbeat_interval;
    let mut st = shared.lock();
    loop {
        if st.shutdown {
            return obj(vec![
                ("ok", Json::Bool(true)),
                ("shutdown", Json::Bool(true)),
            ]);
        }
        let queued = st.phase.as_ref().is_some_and(|p| !p.queue.is_empty());
        let now = Instant::now();
        if queued || now >= deadline {
            break;
        }
        st = shared.wait(st, deadline - now);
    }
    st.touched = Instant::now();
    let Some(phase) = st.phase.as_mut() else {
        return obj(vec![("ok", Json::Bool(true)), ("wait", Json::Bool(true))]);
    };
    let Some(t) = phase.queue.pop_front() else {
        return obj(vec![("ok", Json::Bool(true)), ("wait", Json::Bool(true))]);
    };
    let attempt = phase.tasks[t].attempt;
    phase.tasks[t].status = TaskStatus::Running { attempt, worker };
    phase.tasks[t].last_beat = Instant::now();
    let spec = phase.tasks[t].spec.clone();
    st.stats.assigned += 1;
    *running = Some((t, attempt));
    let limits = spec.limits.iter().map(|&l| Json::Num(l as i64)).collect();
    obj(vec![
        ("ok", Json::Bool(true)),
        ("id", Json::Num(t as i64)),
        ("attempt", Json::Num(i64::from(attempt))),
        (
            "beat_ms",
            Json::Num(shared.cfg.heartbeat_interval.as_millis() as i64),
        ),
        ("task", Json::Str("refute".into())),
        ("pass", Json::Num(spec.pass as i64)),
        ("passes", Json::Num(spec.passes as i64)),
        (
            "cands",
            Json::Arr(spec.cands.iter().map(cand_to_json).collect()),
        ),
        ("limits", Json::Arr(limits)),
    ])
}

/// Accept (or reject) one completion: the current attempt's first `done`
/// whose `misses` hold one count per candidate, each within its cap.
fn task_done(shared: &Shared, running: &mut Option<(usize, u32)>, req: &Json) -> Json {
    let Some((t, attempt)) = token(req) else {
        return jerr("done needs id and attempt".into());
    };
    *running = None;
    let accepted = |accepted: bool| {
        obj(vec![
            ("ok", Json::Bool(true)),
            ("accepted", Json::Bool(accepted)),
        ])
    };
    let mut st = shared.lock();
    st.touched = Instant::now();
    let CoordState { phase, stats, .. } = &mut *st;
    let Some(phase) = phase.as_mut() else {
        stats.stale_results += 1;
        return accepted(false);
    };
    let Some(task) = phase.running(t, attempt) else {
        stats.stale_results += 1;
        return accepted(false);
    };
    let Some(values) = req.get("misses").and_then(Json::as_arr) else {
        return jerr("refute done needs `misses`".into());
    };
    let Some(misses) = values
        .iter()
        .map(|v| v.as_i64().filter(|&n| n >= 0).map(|n| n as u64))
        .collect::<Option<Vec<u64>>>()
    else {
        return jerr("bad misses list".into());
    };
    let limits = &task.spec.limits;
    if misses.len() != limits.len() {
        return jerr(format!(
            "refute done has {} misses for {} candidates",
            misses.len(),
            limits.len()
        ));
    }
    // A pass counts no further than limit + 1; anything above is a faulty
    // worker, and would overflow the pass sums.
    if let Some(i) = (0..misses.len()).find(|&i| misses[i] > limits[i] + 1) {
        return jerr(format!(
            "refute done counts {} misses for candidate {i}, above its cap {}",
            misses[i],
            limits[i] + 1
        ));
    }
    task.misses = Some(misses);
    task.status = TaskStatus::Done;
    phase.remaining -= 1;
    stats.completed += 1;
    shared.cv.notify_all();
    accepted(true)
}

fn cand_to_json(c: &IndCand) -> Json {
    Json::Arr(vec![
        Json::Arr(c.lhs.iter().map(|&x| Json::Num(x as i64)).collect()),
        Json::Arr(c.rhs.iter().map(|&x| Json::Num(x as i64)).collect()),
    ])
}

fn cand_from_json(v: &Json, columns: &[(usize, usize)]) -> Option<IndCand> {
    let parts = v.as_arr()?;
    if parts.len() != 2 {
        return None;
    }
    let side = |p: &Json| -> Option<Vec<usize>> {
        p.as_arr()?
            .iter()
            .map(|x| {
                let n = x.as_i64()?;
                (0 <= n && (n as usize) < columns.len()).then_some(n as usize)
            })
            .collect()
    };
    let lhs = side(&parts[0])?;
    let rhs = side(&parts[1])?;
    let (&l0, &r0) = (lhs.first()?, rhs.first()?);
    Some(IndCand {
        lrel: columns[l0].0,
        rrel: columns[r0].0,
        lhs,
        rhs,
    })
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// A lockstep line-JSON connection shared between the worker's main loop
/// and its heartbeat thread; the mutex spans each write+read exchange so
/// requests never interleave.
struct Conn {
    io: Mutex<LineConn>,
}

impl Conn {
    fn connect(addr: &str) -> io::Result<Conn> {
        let mut last = io::Error::other("no connection attempt made");
        for _ in 0..50 {
            match LineConn::connect(addr) {
                Ok(conn) => {
                    return Ok(Conn {
                        io: Mutex::new(conn),
                    })
                }
                Err(e) => {
                    last = e;
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        Err(last)
    }

    fn call(&self, req: &Json) -> io::Result<Json> {
        let line = self
            .io
            .lock()
            .expect("a thread panicked mid-exchange on the coordinator connection")
            .round_trip(req)?;
        parse(line.trim()).map_err(io::Error::other)
    }
}

/// The worker loop: connect to a coordinator, poll for refute passes,
/// count them against this process's own [`ColumnStore`], report the
/// counts. `store` must share the coordinator's id space: built by
/// [`ColumnStore::from_buffers`] from the same rows in the same order.
/// Returns when the coordinator says shutdown (or an injected
/// [`FaultKind::Kill`] fires). `depkit shard-worker` is a thin wrapper
/// around this; tests drive it on threads over real sockets.
pub fn run_worker(
    addr: &str,
    schema: &DatabaseSchema,
    store: &ColumnStore,
    fault: &FaultPlan,
) -> io::Result<()> {
    let columns = column_table(schema);
    let conn = Arc::new(Conn::connect(addr)?);
    let hello = conn.call(&obj(vec![("cmd", Json::Str("hello".into()))]))?;
    let worker = hello
        .get("worker")
        .and_then(Json::as_i64)
        .ok_or_else(|| io::Error::other(format!("bad hello response: {hello}")))?;
    loop {
        let next = conn.call(&obj(vec![
            ("cmd", Json::Str("next".into())),
            ("worker", Json::Num(worker)),
        ]))?;
        if jbool(next.get("shutdown")) {
            return Ok(());
        }
        // The coordinator held an idle `next` for up to a heartbeat
        // interval, so asking again at once does not spin.
        if jbool(next.get("wait")) {
            continue;
        }
        let (Some(id), Some(attempt), Some(pass)) = (
            next.get("id").and_then(Json::as_i64),
            next.get("attempt").and_then(Json::as_i64),
            next.get("pass").and_then(Json::as_i64),
        ) else {
            return Err(io::Error::other(format!("bad task assignment: {next}")));
        };
        let injected = fault.matching(pass as usize, attempt as u32);
        if let Some(FaultKind::Kill) = injected {
            // Die without reporting: the dropped connection (and, for a
            // same-process test worker, this early return) is exactly
            // what a crashed worker looks like to the coordinator.
            return Ok(());
        }
        if let Some(FaultKind::Stall(d)) = injected {
            // Go dark past the heartbeat timeout, then finish normally —
            // the completion must arrive stale, not merge twice.
            std::thread::sleep(d);
        }
        // Heartbeat for the duration of the work, at the interval the
        // coordinator asked for. Sleep in short slices so stopping the
        // beat after a (typically sub-millisecond) task doesn't stall
        // the worker for a whole interval.
        let stop = Arc::new(AtomicBool::new(false));
        let beat_conn = Arc::clone(&conn);
        let beat_stop = Arc::clone(&stop);
        let interval =
            Duration::from_millis(next.get("beat_ms").and_then(Json::as_i64).unwrap_or(100) as u64);
        let beat = std::thread::spawn(move || {
            let slice = Duration::from_millis(2);
            let mut slept = Duration::ZERO;
            while !beat_stop.load(Ordering::Acquire) {
                std::thread::sleep(slice);
                slept += slice;
                if slept < interval {
                    continue;
                }
                slept = Duration::ZERO;
                if beat_stop.load(Ordering::Acquire) {
                    break;
                }
                let _ = beat_conn.call(&obj(vec![
                    ("cmd", Json::Str("beat".into())),
                    ("id", Json::Num(id)),
                    ("attempt", Json::Num(attempt)),
                ]));
            }
        });
        let outcome = execute_task(&next, store, &columns);
        stop.store(true, Ordering::Release);
        beat.join().expect("heartbeat thread never panics");
        let report = match outcome {
            Ok(misses) => obj(vec![
                ("cmd", Json::Str("done".into())),
                ("id", Json::Num(id)),
                ("attempt", Json::Num(attempt)),
                (
                    "misses",
                    Json::Arr(misses.into_iter().map(|m| Json::Num(m as i64)).collect()),
                ),
            ]),
            Err(e) => obj(vec![
                ("cmd", Json::Str("failed".into())),
                ("id", Json::Num(id)),
                ("attempt", Json::Num(attempt)),
                ("error", Json::Str(e.to_string())),
            ]),
        };
        conn.call(&report)?;
    }
}

/// Execute one refute assignment, returning its per-candidate miss counts.
fn execute_task(
    next: &Json,
    store: &ColumnStore,
    columns: &[(usize, usize)],
) -> io::Result<Vec<u64>> {
    match next.get("task").and_then(Json::as_str) {
        Some("refute") => {}
        other => return Err(io::Error::other(format!("unknown task kind {other:?}"))),
    }
    let (Some(pass), Some(passes), Some(cand_json), Some(limit_json)) = (
        next.get("pass").and_then(Json::as_i64),
        next.get("passes").and_then(Json::as_i64),
        next.get("cands").and_then(Json::as_arr),
        next.get("limits").and_then(Json::as_arr),
    ) else {
        return Err(io::Error::other("malformed refute task"));
    };
    if !(0..passes).contains(&pass) {
        return Err(io::Error::other(format!("refute pass {pass} of {passes}")));
    }
    let cands: Vec<IndCand> = cand_json
        .iter()
        .map(|v| {
            cand_from_json(v, columns)
                .ok_or_else(|| io::Error::other(format!("bad candidate: {v}")))
        })
        .collect::<io::Result<_>>()?;
    let limits: Vec<u64> = limit_json
        .iter()
        .map(|v| v.as_i64().filter(|&n| n >= 0).map(|n| n as u64))
        .collect::<Option<_>>()
        .filter(|l: &Vec<u64>| l.len() == cands.len())
        .ok_or_else(|| io::Error::other("refute task limits do not fit its candidates"))?;
    Ok(refute_candidates_pass(
        store,
        columns,
        &cands,
        &limits,
        pass as usize,
        passes as usize,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use depkit_core::database::Database;

    fn worked_example() -> (DatabaseSchema, Database) {
        let schema = DatabaseSchema::parse(&["EMP(NAME, DEPT, MGR)", "DEPT(DNO, HEAD)"]).unwrap();
        let mut db = Database::empty(schema.clone());
        db.insert_str(
            "EMP",
            &[
                &["hilbert", "math", "klein"],
                &["noether", "math", "klein"],
                &["curie", "phys", "curie"],
            ],
        )
        .unwrap();
        db.insert_str("DEPT", &[&["math", "klein"], &["phys", "curie"]])
            .unwrap();
        (schema, db)
    }

    fn spawn_workers(
        addr: SocketAddr,
        db: &Database,
        n: usize,
        fault: FaultPlan,
    ) -> Vec<JoinHandle<io::Result<()>>> {
        (0..n)
            .map(|_| {
                // Each worker parses nothing but owns its own store,
                // exercising the identical-interning contract.
                let schema = db.schema().clone();
                let store = ColumnStore::new(db);
                let fault = fault.clone();
                std::thread::spawn(move || run_worker(&addr.to_string(), &schema, &store, &fault))
            })
            .collect()
    }

    fn shard_cfg() -> ShardConfig {
        ShardConfig {
            heartbeat_timeout: Duration::from_millis(400),
            progress_timeout: Duration::from_secs(20),
            ..ShardConfig::default()
        }
    }

    #[test]
    fn sharded_run_matches_local_discovery() {
        let (schema, db) = worked_example();
        let config = DiscoveryConfig::default();
        let local = depkit_solver::discover::discover_with_config(&db, &config);
        let coordinator = Coordinator::bind("127.0.0.1:0", shard_cfg()).unwrap();
        let workers = spawn_workers(coordinator.local_addr(), &db, 3, FaultPlan::none());
        let store = ColumnStore::new(&db);
        let (sharded, stats) = coordinator.run(&schema, &store, &config, 3).unwrap();
        for w in workers {
            w.join().unwrap().unwrap();
        }
        coordinator.shutdown().unwrap();
        assert_eq!(local.raw, sharded.raw);
        assert_eq!(local.cover, sharded.cover);
        assert_eq!(local.stats, sharded.stats);
        assert_eq!(stats.completed, stats.shards);
        assert_eq!(stats.retried, 0);
    }

    #[test]
    fn a_worker_arriving_after_the_run_is_told_to_exit() {
        // On fast exchanges one worker can drain a small plan before a
        // sibling even connects; the latecomer must get a clean shutdown
        // answer, not a connection reset by a closing accept loop.
        let (schema, db) = worked_example();
        let coordinator = Coordinator::bind("127.0.0.1:0", shard_cfg()).unwrap();
        let early = spawn_workers(coordinator.local_addr(), &db, 1, FaultPlan::none());
        let store = ColumnStore::new(&db);
        coordinator
            .run(&schema, &store, &DiscoveryConfig::default(), 1)
            .unwrap();
        let late = spawn_workers(coordinator.local_addr(), &db, 1, FaultPlan::none());
        for w in early.into_iter().chain(late) {
            w.join().unwrap().unwrap();
        }
        coordinator.shutdown().unwrap();
    }

    #[test]
    fn sharded_approximate_run_reports_local_confidences() {
        let (schema, mut db) = worked_example();
        // Dirty the reference: one employee in a department that DEPT has
        // never heard of, so EMP[DEPT] <= DEPT[DNO] only *approximately*
        // holds (3 of 4 rows; confidence 0.75).
        db.insert_str("EMP", &[&["galois", "duel", "nobody"]])
            .unwrap();
        let config = DiscoveryConfig {
            max_error: 0.3,
            ..DiscoveryConfig::default()
        };
        let local = depkit_solver::discover::discover_with_config(&db, &config);
        assert!(
            local.scored.iter().any(|s| s.misses > 0),
            "fixture must plant at least one dirty dependency"
        );
        let coordinator = Coordinator::bind("127.0.0.1:0", shard_cfg()).unwrap();
        let workers = spawn_workers(coordinator.local_addr(), &db, 3, FaultPlan::none());
        let store = ColumnStore::new(&db);
        let (sharded, stats) = coordinator.run(&schema, &store, &config, 3).unwrap();
        for w in workers {
            w.join().unwrap().unwrap();
        }
        coordinator.shutdown().unwrap();
        assert_eq!(local.raw, sharded.raw);
        assert_eq!(local.cover, sharded.cover);
        assert_eq!(local.scored, sharded.scored);
        assert_eq!(local.stats, sharded.stats);
        assert_eq!(stats.completed, stats.shards);
    }

    #[test]
    fn refute_counts_that_break_the_cap_are_rejected() {
        // A faulty worker answers its refute shard with an over-cap count,
        // a wrong-length list and a negative entry. Each must be refused
        // with ok:false before it reaches the pass sums; the shard then
        // times out to a good worker, and the run finishes to the local
        // result.
        let (schema, mut db) = worked_example();
        db.insert_str("EMP", &[&["galois", "duel", "nobody"]])
            .unwrap();
        let config = DiscoveryConfig {
            max_error: 0.3,
            ..DiscoveryConfig::default()
        };
        let local = depkit_solver::discover::discover_with_config(&db, &config);
        let coordinator = Coordinator::bind("127.0.0.1:0", shard_cfg()).unwrap();
        let addr = coordinator.local_addr();
        let rogue = std::thread::spawn(move || {
            let mut conn = LineConn::connect(addr).unwrap();
            let mut call = |req: Json| parse(conn.round_trip(&req).unwrap().trim()).unwrap();
            let hello = call(obj(vec![("cmd", Json::Str("hello".into()))]));
            let worker = hello.get("worker").and_then(Json::as_i64).unwrap();
            loop {
                let next = call(obj(vec![
                    ("cmd", Json::Str("next".into())),
                    ("worker", Json::Num(worker)),
                ]));
                if jbool(next.get("wait")) {
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
                let done = |fields: Vec<(&'static str, Json)>| {
                    let mut all = vec![
                        ("cmd", Json::Str("done".into())),
                        ("id", next.get("id").unwrap().clone()),
                        ("attempt", next.get("attempt").unwrap().clone()),
                    ];
                    all.extend(fields);
                    obj(all)
                };
                let limits: Vec<i64> = next
                    .get("limits")
                    .and_then(Json::as_arr)
                    .unwrap()
                    .iter()
                    .map(|l| l.as_i64().unwrap())
                    .collect();
                assert!(limits.iter().any(|&l| l > 0), "a tolerant run ships limits");
                let mut over_cap = vec![0; limits.len()];
                over_cap[0] = limits[0] + 2;
                let mut negative = vec![0; limits.len()];
                negative[0] = -1;
                for bad in [over_cap, vec![0; limits.len() + 1], negative] {
                    let misses = Json::Arr(bad.into_iter().map(Json::Num).collect());
                    let reply = call(done(vec![("misses", misses)]));
                    assert!(
                        matches!(reply.get("ok"), Some(Json::Bool(false))),
                        "a bad count must be refused: {reply}"
                    );
                }
                return;
            }
        });
        let (good_schema, good_store) = (schema.clone(), ColumnStore::new(&db));
        let good = std::thread::spawn(move || {
            rogue.join().unwrap();
            run_worker(
                &addr.to_string(),
                &good_schema,
                &good_store,
                &FaultPlan::none(),
            )
        });
        let store = ColumnStore::new(&db);
        let (sharded, stats) = coordinator.run(&schema, &store, &config, 1).unwrap();
        good.join().unwrap().unwrap();
        coordinator.shutdown().unwrap();
        assert_eq!(local.raw, sharded.raw);
        assert_eq!(local.cover, sharded.cover);
        assert_eq!(local.scored, sharded.scored);
        assert_eq!(local.stats, sharded.stats);
        assert_eq!(stats.completed, stats.shards);
        assert!(
            stats.reassigned >= 1,
            "the refused shard must move on: {stats:?}"
        );
    }

    #[test]
    fn killed_worker_is_retried_to_the_identical_cover() {
        let (schema, db) = worked_example();
        let config = DiscoveryConfig::default();
        let local = depkit_solver::discover::discover_with_config(&db, &config);
        let coordinator = Coordinator::bind("127.0.0.1:0", shard_cfg()).unwrap();
        let fault = FaultPlan::parse("kill:refute:0").unwrap();
        // Every worker carries the fault, so whichever one draws refute
        // pass 0 at attempt 0 dies — exactly one kill, regardless of
        // scheduling — and the retry at attempt 1 runs clean.
        let workers = spawn_workers(coordinator.local_addr(), &db, 2, fault);
        let store = ColumnStore::new(&db);
        let (sharded, stats) = coordinator.run(&schema, &store, &config, 2).unwrap();
        for w in workers {
            w.join().unwrap().unwrap();
        }
        coordinator.shutdown().unwrap();
        assert_eq!(local.cover, sharded.cover);
        assert_eq!(local.stats, sharded.stats);
        assert_eq!(stats.completed, stats.shards);
        assert!(
            stats.retried + stats.reassigned >= 1,
            "the kill must exercise the retry path: {stats:?}"
        );
    }

    #[test]
    fn fault_plan_parses_and_rejects() {
        let plan = FaultPlan::parse("kill:refute:2;stall:refute:0:250").unwrap();
        assert_eq!(plan.faults.len(), 2);
        assert_eq!(plan.faults[0].kind, FaultKind::Kill);
        assert_eq!(plan.faults[0].pass, 2);
        assert_eq!(
            plan.faults[1].kind,
            FaultKind::Stall(Duration::from_millis(250))
        );
        assert_eq!(plan.faults[1].pass, 0);
        for bad in [
            "boom:refute:0",
            "kill:nowhere:0",
            "kill:profile:0",
            "corrupt:refute:0",
            "kill:refute",
            "kill:refute:x",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "should reject {bad}");
        }
        assert_eq!(FaultPlan::parse("").unwrap().faults.len(), 0);
    }

    #[test]
    fn a_poisoned_state_lock_still_answers_workers() {
        // A handler that panics while holding the coordinator state
        // poisons its mutex. Later requests, on this connection's
        // successors and in the accept loop, must still be answered.
        let coordinator = Coordinator::bind("127.0.0.1:0", shard_cfg()).unwrap();
        let shared = Arc::clone(&coordinator.shared);
        let crashed = std::thread::spawn(move || {
            let _held = shared.state.lock().unwrap();
            panic!("a handler panics while holding the coordinator state");
        })
        .join();
        assert!(crashed.is_err());
        assert!(coordinator.shared.state.is_poisoned());
        let mut conn = LineConn::connect(coordinator.local_addr()).unwrap();
        let mut call = |req: Json| parse(conn.round_trip(&req).unwrap().trim()).unwrap();
        let hello = call(obj(vec![("cmd", Json::Str("hello".into()))]));
        let worker = hello.get("worker").and_then(Json::as_i64).unwrap();
        let next = call(obj(vec![
            ("cmd", Json::Str("next".into())),
            ("worker", Json::Num(worker)),
        ]));
        assert!(jbool(next.get("wait")), "no phase is installed: {next}");
        assert_eq!(coordinator.stats(), ShardStats::default());
        coordinator.shutdown().unwrap();
    }

    #[test]
    fn no_workers_times_out_with_a_diagnostic() {
        let (schema, db) = worked_example();
        let cfg = ShardConfig {
            progress_timeout: Duration::from_millis(200),
            ..ShardConfig::default()
        };
        let coordinator = Coordinator::bind("127.0.0.1:0", cfg).unwrap();
        let store = ColumnStore::new(&db);
        let err = coordinator
            .run(&schema, &store, &DiscoveryConfig::default(), 0)
            .unwrap_err();
        coordinator.shutdown().unwrap();
        assert!(err.to_string().contains("no shard progress"), "got: {err}");
    }
}
