//! Cross-process sharded discovery: a coordinator that hands shard plans
//! to worker processes over the line-JSON framing, and the worker loop
//! that executes them.
//!
//! The shard plan has two task shapes, mirroring the two data-parallel
//! stages of [`discover_store_sharded`]:
//!
//! * **Profile** tasks — one per global column: the worker publishes the
//!   column's sorted distinct ids as checksummed runs plus a
//!   `depkit-runs v2` manifest into the coordinator's session directory
//!   ([`depkit_solver::discover::profile_column_runs`]), every file
//!   landing by atomic rename so a killed worker never leaves a partial
//!   run under a published name.
//! * **Refute** tasks — one per FNV key-range pass of the n-ary IND
//!   validation: each candidate ships with its miss limit `L`, and the
//!   worker reports each candidate's misses on its key shard, counted up
//!   to `L + 1` ([`depkit_solver::discover::refute_candidates_pass`]).
//!   The coordinator sums the passes and refutes a candidate iff its sum
//!   exceeds `L`. Every projection key belongs to exactly one pass, so an
//!   admitted candidate never reaches a cap: its sum is the unsharded
//!   count, and the confidences a sharded run reports are identical to
//!   every in-process mode. Exact runs ship `L = 0`, which is plain
//!   refutation.
//!
//! **Commit / retry protocol.** Workers poll (`hello` → `next` → work →
//! `done`/`failed`), heartbeating while a task runs. Every assignment
//! carries an *attempt token*; the coordinator accepts the first `done`
//! for the current token and counts anything else as stale — a stalled
//! worker whose shard was reassigned can finish and report without its
//! output ever being merged twice. Profile results are verified
//! ([`depkit_core::spill::load_verified_run_set`]: existence, size,
//! FNV-1a64 checksum) *before* acceptance; a torn or corrupted run
//! rejects the completion and requeues the shard. Failures — explicit
//! `failed`, a dropped connection, a heartbeat timeout, a checksum
//! reject — requeue with a bounded attempt budget; exhausting it fails
//! the run with a diagnostic instead of hanging.
//!
//! Both sides recompute the shard plan's frame of reference on their own:
//! [`column_table`] gives global column ids from the schema alone, and
//! [`ColumnStore::from_buffers`] gives the value-id space, as a pure
//! function of the rows buffered and their order (`depkit discover
//! --workers` buffers every process the same spec file's rows in file
//! order). So the
//! protocol ships *plans*, never data — worker-published runs merge
//! directly into the coordinator's pipeline.
//!
//! **Fault injection.** [`FaultPlan`] deterministically kills, stalls, or
//! corrupts a chosen worker at a chosen shard and attempt — programmatic
//! for in-process tests, `DEPKIT_FAULT` in the environment for process
//! workers (`depkit shard-worker` reads it at startup). Faults fire on
//! attempt 0 by default, so every scenario converges to the identical
//! cover through the retry path. The hook exists for tests; production
//! runs simply leave the plan empty.

use crate::conn::{LineConn, LineRead};
use crate::json::{obj, parse, Json};
use depkit_core::column::ColumnStore;
use depkit_core::schema::DatabaseSchema;
use depkit_core::spill::{load_verified_run_set, RunSet, SpillDir};
use depkit_solver::discover::{
    column_table, discover_store_sharded, profile_column_runs, refute_candidates_pass, Discovery,
    DiscoveryConfig, IndCand, ShardExecutor,
};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Coordinator tunables. The defaults suit tests and CI; the CLI scales
/// `refute_passes` with the worker count.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Ids per published run within one profile shard (chunking of
    /// [`depkit_core::spill::publish_sorted_runs`]). Part of the shard
    /// plan, so every attempt of a shard writes identical files.
    pub chunk_ids: usize,
    /// Key-range passes for n-ary refutation; `0` means one pass per
    /// expected worker is chosen by the caller. Verdicts are
    /// pass-count-independent; only the work split changes.
    pub refute_passes: usize,
    /// How often a busy worker heartbeats.
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
    /// Root under which the session directory is created; `None` uses the
    /// system temp directory.
    pub shard_root: Option<PathBuf>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            chunk_ids: 1 << 16,
            refute_passes: 0,
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_timeout: Duration::from_secs(2),
            max_attempts: 4,
            progress_timeout: Duration::from_secs(30),
            shard_root: None,
        }
    }
}

/// Coordinator-side counters for one sharded run — the observable record
/// of the retry path, which the fault-injection tests assert against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard tasks planned (profile + refute).
    pub shards: usize,
    /// Task assignments handed to workers (≥ `shards` when retries ran).
    pub assigned: usize,
    /// Accepted completions (== `shards` on success).
    pub completed: usize,
    /// Failure-driven requeues: explicit `failed`, dropped connections,
    /// checksum rejects.
    pub retried: usize,
    /// Heartbeat-timeout reassignments.
    pub reassigned: usize,
    /// Profile completions rejected by run verification.
    pub checksum_rejected: usize,
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
    /// The worker completes a profile shard, then flips one byte of its
    /// first published run before reporting. Recovery path: verification
    /// reject and requeue. Ignored on refute shards (nothing on disk to
    /// corrupt).
    Corrupt,
}

/// Which shard a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// A column-profiling shard; the index is the global column id.
    Profile,
    /// An n-ary refutation pass; the index is the pass number.
    Refute,
}

/// One deterministic fault: fires when a worker is assigned the matching
/// task at the matching attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// What happens.
    pub kind: FaultKind,
    /// Task shape targeted.
    pub task: TaskKind,
    /// Column id (profile) or pass number (refute).
    pub index: usize,
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
    /// `<kind>:<task>:<index>[:<stall ms>]`, `;`-separated. Examples:
    /// `kill:profile:0`, `stall:profile:2:3000`, `corrupt:profile:1`,
    /// `kill:refute:0`.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut faults = Vec::new();
        for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
            let parts: Vec<&str> = entry.trim().split(':').collect();
            if parts.len() < 3 {
                return Err(format!("bad fault `{entry}`: want kind:task:index[:ms]"));
            }
            let task = match parts[1] {
                "profile" => TaskKind::Profile,
                "refute" => TaskKind::Refute,
                other => return Err(format!("bad fault task `{other}`")),
            };
            let index: usize = parts[2]
                .parse()
                .map_err(|_| format!("bad fault index `{}`", parts[2]))?;
            let kind = match parts[0] {
                "kill" => FaultKind::Kill,
                "corrupt" => FaultKind::Corrupt,
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
                task,
                index,
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
    fn matching(&self, task: TaskKind, index: usize, attempt: u32) -> Option<FaultKind> {
        self.faults
            .iter()
            .find(|f| f.task == task && f.index == index && f.attempt == attempt)
            .map(|f| f.kind)
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// One shard of the plan.
#[derive(Debug, Clone)]
enum TaskSpec {
    Profile {
        col: usize,
    },
    Refute {
        pass: usize,
        passes: usize,
        cands: Arc<Vec<IndCand>>,
        /// Per-candidate miss limits; a pass counts each up to its limit + 1.
        limits: Arc<Vec<u64>>,
    },
}

/// What an accepted completion contributed.
#[derive(Debug)]
enum TaskResult {
    Runs(RunSet),
    Misses(Vec<u64>),
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
    result: Option<TaskResult>,
}

#[derive(Debug)]
struct Phase {
    tasks: Vec<TaskState>,
    queue: VecDeque<usize>,
    remaining: usize,
    error: Option<String>,
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
    session_dir: PathBuf,
    cfg: ShardConfig,
}

/// The sharded-discovery coordinator: owns the listener, the session
/// directory (removed on drop), and the shard-plan state machine.
///
/// Workers connect on their own schedule — spawn processes running
/// [`run_worker`] (or `depkit shard-worker`) against
/// [`Coordinator::local_addr`], then call [`Coordinator::run`].
#[derive(Debug)]
pub struct Coordinator {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    session: SpillDir,
}

impl Coordinator {
    /// Bind `addr` (use `"127.0.0.1:0"` for an ephemeral port) and start
    /// accepting workers.
    pub fn bind(addr: &str, cfg: ShardConfig) -> io::Result<Coordinator> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let root = cfg.shard_root.clone().unwrap_or_else(std::env::temp_dir);
        let session = SpillDir::create_in(&root)?;
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
            session_dir: session.path().to_path_buf(),
            cfg,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.state.lock().unwrap().closed {
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
            session,
        })
    }

    /// The bound address workers should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session directory workers publish runs into.
    pub fn session_dir(&self) -> &Path {
        self.session.path()
    }

    /// A snapshot of the coordinator counters.
    pub fn stats(&self) -> ShardStats {
        self.shared.state.lock().unwrap().stats
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
        let mut exec = CoordExec {
            coord: self,
            expected_workers,
        };
        let result = discover_store_sharded(schema, store, config, &mut exec);
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        let stats = self.stats();
        Ok((result?, stats))
    }

    /// Stop accepting and join the accept loop. Workers polling `next`
    /// have been told to shut down by [`Coordinator::run`]; call this
    /// after joining or waiting them.
    pub fn shutdown(mut self) -> io::Result<()> {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            st.closed = true;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        match self.accept.take() {
            Some(h) => h
                .join()
                .map_err(|_| io::Error::other("shard accept loop panicked")),
            None => Ok(()),
        }
    }

    /// Install a phase, wait for workers to drain it, collect results in
    /// task order.
    fn run_phase(&self, specs: Vec<TaskSpec>) -> io::Result<Vec<TaskResult>> {
        let n = specs.len();
        {
            let mut st = self.shared.state.lock().unwrap();
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
                        result: None,
                    })
                    .collect(),
                queue: (0..n).collect(),
                remaining: n,
                error: None,
            });
        }
        self.shared.cv.notify_all();
        loop {
            let mut st = self.shared.state.lock().unwrap();
            let cfg = &self.shared.cfg;
            let now = Instant::now();
            let touched = st.touched;
            let CoordState { phase, stats, .. } = &mut *st;
            let phase = phase.as_mut().expect("phase installed above");
            // Reassign shards whose worker went silent.
            for t in 0..phase.tasks.len() {
                if let TaskStatus::Running { .. } = phase.tasks[t].status {
                    if now.duration_since(phase.tasks[t].last_beat) > cfg.heartbeat_timeout {
                        stats.reassigned += 1;
                        requeue(phase, t, cfg.max_attempts, "heartbeat timeout");
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
                    .map(|t| t.result.expect("completed task has a result"))
                    .collect());
            }
            let (guard, _) = self
                .shared
                .cv
                .wait_timeout(st, Duration::from_millis(20))
                .unwrap();
            drop(guard);
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
}

impl ShardExecutor for CoordExec<'_> {
    fn profile_columns(&mut self, ncols: usize) -> io::Result<Vec<RunSet>> {
        let specs = (0..ncols).map(|col| TaskSpec::Profile { col }).collect();
        let results = self.coord.run_phase(specs)?;
        Ok(results
            .into_iter()
            .map(|r| match r {
                TaskResult::Runs(set) => set,
                _ => unreachable!("profile phase yields runs"),
            })
            .collect())
    }

    fn count_misses(&mut self, cands: &[IndCand], limits: &[u64]) -> io::Result<Vec<u64>> {
        if cands.is_empty() {
            return Ok(Vec::new());
        }
        let passes = match self.coord.shared.cfg.refute_passes {
            0 => self.expected_workers.max(1),
            p => p,
        };
        let shared_cands = Arc::new(cands.to_vec());
        let shared_limits = Arc::new(limits.to_vec());
        let specs = (0..passes)
            .map(|pass| TaskSpec::Refute {
                pass,
                passes,
                cands: Arc::clone(&shared_cands),
                limits: Arc::clone(&shared_limits),
            })
            .collect();
        let results = self.coord.run_phase(specs)?;
        // Sum element-wise: every projection key is counted by exactly
        // one pass, so an admitted candidate's sum is its unsharded count.
        // `task_done` bounds each pass at limit + 1, so the sums stay small.
        let mut misses = vec![0u64; cands.len()];
        for r in results {
            match r {
                TaskResult::Misses(counts) => {
                    for ((sum, m), &limit) in misses.iter_mut().zip(counts).zip(limits) {
                        *sum = (*sum + m).min(limit + 1);
                    }
                }
                TaskResult::Runs(_) => unreachable!("refute phase yields miss counts"),
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
        let mut st = shared.state.lock().unwrap();
        let CoordState { phase, stats, .. } = &mut *st;
        if let Some(phase) = phase.as_mut() {
            if t < phase.tasks.len()
                && matches!(phase.tasks[t].status, TaskStatus::Running { attempt: a, .. } if a == attempt)
            {
                stats.retried += 1;
                requeue(phase, t, shared.cfg.max_attempts, "worker disconnected");
                shared.cv.notify_all();
            }
        }
    }
    Ok(())
}

/// Execute one worker request.
fn respond(shared: &Shared, running: &mut Option<(usize, u32)>, req: &Json) -> Json {
    match req.get("cmd").and_then(Json::as_str) {
        Some("hello") => {
            let mut st = shared.state.lock().unwrap();
            let id = st.next_worker;
            st.next_worker += 1;
            obj(vec![("ok", Json::Bool(true)), ("worker", Json::Num(id))])
        }
        Some("next") => next_task(shared, running, req),
        Some("beat") => {
            let (Some(t), Some(attempt)) = (
                req.get("id").and_then(Json::as_i64),
                req.get("attempt").and_then(Json::as_i64),
            ) else {
                return jerr("beat needs id and attempt".into());
            };
            let mut st = shared.state.lock().unwrap();
            st.touched = Instant::now();
            let active = st.phase.as_mut().is_some_and(|phase| {
                let t = t as usize;
                t < phase.tasks.len()
                    && matches!(
                        phase.tasks[t].status,
                        TaskStatus::Running { attempt: a, .. } if i64::from(a) == attempt
                    )
                    && {
                        phase.tasks[t].last_beat = Instant::now();
                        true
                    }
            });
            obj(vec![
                ("ok", Json::Bool(true)),
                ("active", Json::Bool(active)),
            ])
        }
        Some("done") => task_done(shared, running, req),
        Some("failed") => {
            let (Some(t), Some(attempt)) = (
                req.get("id").and_then(Json::as_i64),
                req.get("attempt").and_then(Json::as_i64),
            ) else {
                return jerr("failed needs id and attempt".into());
            };
            let cause = req
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("worker reported failure");
            *running = None;
            let mut st = shared.state.lock().unwrap();
            let CoordState { phase, stats, .. } = &mut *st;
            if let Some(phase) = phase.as_mut() {
                let t = t as usize;
                if t < phase.tasks.len()
                    && matches!(
                        phase.tasks[t].status,
                        TaskStatus::Running { attempt: a, .. } if i64::from(a) == attempt
                    )
                {
                    stats.retried += 1;
                    requeue(phase, t, shared.cfg.max_attempts, cause);
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

/// Assign the next queued shard to the polling worker.
fn next_task(shared: &Shared, running: &mut Option<(usize, u32)>, req: &Json) -> Json {
    let worker = req.get("worker").and_then(Json::as_i64).unwrap_or(-1);
    let mut st = shared.state.lock().unwrap();
    if st.shutdown {
        return obj(vec![
            ("ok", Json::Bool(true)),
            ("shutdown", Json::Bool(true)),
        ]);
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
    let mut fields = vec![
        ("ok", Json::Bool(true)),
        ("id", Json::Num(t as i64)),
        ("attempt", Json::Num(i64::from(attempt))),
    ];
    fields.push((
        "beat_ms",
        Json::Num(shared.cfg.heartbeat_interval.as_millis() as i64),
    ));
    match spec {
        TaskSpec::Profile { col } => {
            let dir = shared.session_dir.to_str().unwrap_or_default().to_owned();
            fields.push(("task", Json::Str("profile".into())));
            fields.push(("col", Json::Num(col as i64)));
            fields.push(("dir", Json::Str(dir)));
            fields.push(("chunk", Json::Num(shared.cfg.chunk_ids as i64)));
        }
        TaskSpec::Refute {
            pass,
            passes,
            cands,
            limits,
        } => {
            fields.push(("task", Json::Str("refute".into())));
            fields.push(("pass", Json::Num(pass as i64)));
            fields.push(("passes", Json::Num(passes as i64)));
            fields.push(("cands", Json::Arr(cands.iter().map(cand_to_json).collect())));
            let limits = limits.iter().map(|&l| Json::Num(l as i64)).collect();
            fields.push(("limits", Json::Arr(limits)));
        }
    }
    obj(fields)
}

/// Accept (or reject) one completion. Profile results are verified
/// against their manifest *outside* the state lock — reading runs back is
/// I/O — with the attempt token re-checked after verification, so a
/// reassignment racing the verify still wins.
fn task_done(shared: &Shared, running: &mut Option<(usize, u32)>, req: &Json) -> Json {
    let (Some(t), Some(attempt)) = (
        req.get("id").and_then(Json::as_i64),
        req.get("attempt").and_then(Json::as_i64),
    ) else {
        return jerr("done needs id and attempt".into());
    };
    let t = t as usize;
    *running = None;
    let accepted = |accepted: bool| {
        obj(vec![
            ("ok", Json::Bool(true)),
            ("accepted", Json::Bool(accepted)),
        ])
    };
    let is_current = |phase: &Phase| {
        t < phase.tasks.len()
            && matches!(
                phase.tasks[t].status,
                TaskStatus::Running { attempt: a, .. } if i64::from(a) == attempt
            )
    };
    // Peek at the spec under the lock to decide the acceptance path.
    let verify: Option<PathBuf> = {
        let mut st = shared.state.lock().unwrap();
        st.touched = Instant::now();
        let CoordState { phase, stats, .. } = &mut *st;
        let Some(phase) = phase.as_mut() else {
            stats.stale_results += 1;
            return accepted(false);
        };
        if !is_current(phase) {
            stats.stale_results += 1;
            return accepted(false);
        }
        match &phase.tasks[t].spec {
            TaskSpec::Profile { col } => {
                Some(shared.session_dir.join(format!("col{col}.manifest")))
            }
            TaskSpec::Refute { cands, limits, .. } => {
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
                if misses.len() != cands.len() {
                    return jerr(format!(
                        "refute done has {} misses for {} candidates",
                        misses.len(),
                        cands.len()
                    ));
                }
                // A pass counts no further than limit + 1; anything above
                // is a faulty worker, and would overflow the pass sums.
                if let Some(i) = (0..misses.len()).find(|&i| misses[i] > limits[i] + 1) {
                    return jerr(format!(
                        "refute done counts {} misses for candidate {i}, above its cap {}",
                        misses[i],
                        limits[i] + 1
                    ));
                }
                phase.tasks[t].result = Some(TaskResult::Misses(misses));
                phase.tasks[t].status = TaskStatus::Done;
                phase.remaining -= 1;
                stats.completed += 1;
                shared.cv.notify_all();
                return accepted(true);
            }
        }
    };
    let manifest = verify.expect("profile path set above");
    let loaded = load_verified_run_set(&manifest);
    let mut st = shared.state.lock().unwrap();
    st.touched = Instant::now();
    let CoordState { phase, stats, .. } = &mut *st;
    let Some(phase) = phase.as_mut() else {
        stats.stale_results += 1;
        return accepted(false);
    };
    if !is_current(phase) {
        stats.stale_results += 1;
        return accepted(false);
    }
    match loaded {
        Ok(set) => {
            phase.tasks[t].result = Some(TaskResult::Runs(set));
            phase.tasks[t].status = TaskStatus::Done;
            phase.remaining -= 1;
            stats.completed += 1;
            shared.cv.notify_all();
            accepted(true)
        }
        Err(e) => {
            stats.checksum_rejected += 1;
            stats.retried += 1;
            requeue(phase, t, shared.cfg.max_attempts, &e.to_string());
            shared.cv.notify_all();
            accepted(false)
        }
    }
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

/// The worker loop: connect to a coordinator, poll for shards, execute
/// them against this process's own [`ColumnStore`], report results.
/// `store` must share the coordinator's id space: built by
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
        if jbool(next.get("wait")) {
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        let (Some(id), Some(attempt), Some(task)) = (
            next.get("id").and_then(Json::as_i64),
            next.get("attempt").and_then(Json::as_i64),
            next.get("task").and_then(Json::as_str),
        ) else {
            return Err(io::Error::other(format!("bad task assignment: {next}")));
        };
        let attempt32 = attempt as u32;
        let (kind, index) = match task {
            "profile" => (
                TaskKind::Profile,
                next.get("col").and_then(Json::as_i64).unwrap_or(-1) as usize,
            ),
            "refute" => (
                TaskKind::Refute,
                next.get("pass").and_then(Json::as_i64).unwrap_or(-1) as usize,
            ),
            other => return Err(io::Error::other(format!("unknown task kind `{other}`"))),
        };
        let injected = fault.matching(kind, index, attempt32);
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
        let outcome = execute_task(&next, task, store, &columns, injected);
        stop.store(true, Ordering::Release);
        beat.join().expect("heartbeat thread never panics");
        let report = match outcome {
            Ok(mut fields) => {
                let mut all = vec![
                    ("cmd", Json::Str("done".into())),
                    ("id", Json::Num(id)),
                    ("attempt", Json::Num(attempt)),
                ];
                all.append(&mut fields);
                obj(all)
            }
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

/// Execute one assignment, returning the done-payload fields.
fn execute_task(
    next: &Json,
    task: &str,
    store: &ColumnStore,
    columns: &[(usize, usize)],
    injected: Option<FaultKind>,
) -> io::Result<Vec<(&'static str, Json)>> {
    match task {
        "profile" => {
            let col = next
                .get("col")
                .and_then(Json::as_i64)
                .ok_or_else(|| io::Error::other("profile task has no col"))?
                as usize;
            let dir = next
                .get("dir")
                .and_then(Json::as_str)
                .ok_or_else(|| io::Error::other("profile task has no dir"))?;
            let chunk = next.get("chunk").and_then(Json::as_i64).unwrap_or(1 << 16) as usize;
            if col >= columns.len() {
                return Err(io::Error::other(format!("column {col} out of range")));
            }
            let set = profile_column_runs(store, columns, col, Path::new(dir), chunk)?;
            if let Some(FaultKind::Corrupt) = injected {
                corrupt_first_run(&set)?;
            }
            Ok(vec![("manifest", Json::Str(format!("col{col}.manifest")))])
        }
        "refute" => {
            let (Some(pass), Some(passes), Some(cand_json), Some(limit_json)) = (
                next.get("pass").and_then(Json::as_i64),
                next.get("passes").and_then(Json::as_i64),
                next.get("cands").and_then(Json::as_arr),
                next.get("limits").and_then(Json::as_arr),
            ) else {
                return Err(io::Error::other("malformed refute task"));
            };
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
            let misses = refute_candidates_pass(
                store,
                columns,
                &cands,
                &limits,
                pass as usize,
                passes as usize,
            );
            Ok(vec![(
                "misses",
                Json::Arr(misses.into_iter().map(|m| Json::Num(m as i64)).collect()),
            )])
        }
        other => Err(io::Error::other(format!("unknown task kind `{other}`"))),
    }
}

/// The [`FaultKind::Corrupt`] payload: flip one byte of the shard's first
/// nonempty published run, *after* publication — the manifest checksum
/// now lies about the file, which is exactly the torn-write/bit-rot shape
/// verification exists to catch.
fn corrupt_first_run(set: &RunSet) -> io::Result<()> {
    for run in &set.runs {
        let mut bytes = std::fs::read(&run.path)?;
        if let Some(b) = bytes.first_mut() {
            *b ^= 0xff;
            std::fs::write(&run.path, &bytes)?;
            return Ok(());
        }
    }
    Ok(())
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
            chunk_ids: 16,
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
        // A faulty worker profiles honestly, then answers its refute shard
        // with an over-cap count, a wrong-length list and a negative
        // entry. Each must be refused with ok:false before it reaches the
        // pass sums; the shard then times out to a good worker, and the
        // run finishes to the local result.
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
        let rogue_db = db.clone();
        let rogue = std::thread::spawn(move || {
            let store = ColumnStore::new(&rogue_db);
            let columns = column_table(rogue_db.schema());
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
                if next.get("task").and_then(Json::as_str) == Some("profile") {
                    let fields = execute_task(&next, "profile", &store, &columns, None).unwrap();
                    assert!(jbool(call(done(fields)).get("accepted")));
                    continue;
                }
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
        let fault = FaultPlan::parse("kill:profile:0").unwrap();
        // Every worker carries the fault, so whichever one draws shard
        // profile:0 at attempt 0 dies — exactly one kill, regardless of
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
        let plan = FaultPlan::parse("kill:profile:2;stall:refute:0:250;corrupt:profile:1").unwrap();
        assert_eq!(plan.faults.len(), 3);
        assert_eq!(plan.faults[0].kind, FaultKind::Kill);
        assert_eq!(plan.faults[0].task, TaskKind::Profile);
        assert_eq!(plan.faults[0].index, 2);
        assert_eq!(
            plan.faults[1].kind,
            FaultKind::Stall(Duration::from_millis(250))
        );
        assert_eq!(plan.faults[1].task, TaskKind::Refute);
        assert_eq!(plan.faults[2].kind, FaultKind::Corrupt);
        for bad in [
            "boom:profile:0",
            "kill:nowhere:0",
            "kill:profile",
            "kill:profile:x",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "should reject {bad}");
        }
        assert_eq!(FaultPlan::parse("").unwrap().faults.len(), 0);
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
