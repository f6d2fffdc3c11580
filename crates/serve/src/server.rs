//! The TCP session server: one thread per connection, one catalog for
//! everyone.
//!
//! Each accepted connection speaks the [protocol](crate::protocol) and
//! owns at most one live [`Session`] at a time; the shared
//! [`CatalogState`] serializes commits and keeps every session's pinned
//! snapshot readable. Backpressure and abuse resistance are structural:
//!
//! * the per-session staging buffer is bounded
//!   ([`ServeConfig::max_staged`] — a client that keeps staging past it
//!   gets errors until it commits or aborts);
//! * the accept loop refuses connections past
//!   [`ServeConfig::max_connections`] with a one-line error instead of
//!   queueing unboundedly;
//! * request lines are capped at [`ServeConfig::max_line_len`] bytes and
//!   reads at [`ServeConfig::read_timeout`], so one slow or malicious
//!   client can neither balloon a handler's memory nor wedge its thread
//!   — both get a JSON error line and a closed connection.
//!
//! ## Durability
//!
//! Started via [`Server::start_durable`] with a
//! [`Durability`] handle, the server becomes crash-safe: the catalog's
//! commit sink write-ahead-logs every effective commit *before* the
//! commit reply leaves the handler (ack implies durable), acknowledged
//! commits are counted toward the periodic checkpoint cadence, and
//! [`Server::stop`] drains with a final checkpoint. The `DEPKIT_CRASH`
//! environment hook ([`CrashPlan`]) can abort the process at
//! `before-ack` (and, inside the durability layer, `after-wal-write` /
//! `mid-checkpoint` / `after-checkpoint-rename`) — the lever the
//! crash-recovery harness pulls.

use crate::conn::{LineConn, LineRead};
use crate::json::{obj, Json};
use crate::protocol::{parse_request, Request};
use depkit_core::delta::DeltaOutcome;
use depkit_core::value::Value;
use depkit_core::wal::{CrashPlan, CrashPoint};
use depkit_solver::incremental::{CatalogState, Durability, Session};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server limits. The defaults are deliberately generous: the catalog
/// itself is the scaling bottleneck, not the socket layer.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Maximum concurrently served connections; further accepts are
    /// answered with an error line and closed.
    pub max_connections: usize,
    /// Maximum staged operations per session; staging past this returns
    /// errors until the client commits or aborts.
    pub max_staged: usize,
    /// Maximum bytes in one request line; a longer line gets a JSON
    /// error and a closed connection (the cap bounds per-connection
    /// buffering no matter what a client streams at us).
    pub max_line_len: usize,
    /// How long a handler thread waits for the next request line before
    /// giving up on the connection with a JSON error. `None` waits
    /// forever (trusted-network mode).
    pub read_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            // Thread-per-connection: scale the cap with the machine, the
            // way `core::pool` sizes its workers, but allow deep
            // oversubscription — sessions are mostly idle between lines.
            max_connections: 64 * depkit_core::pool::default_threads().max(1),
            max_staged: 65_536,
            max_line_len: 1 << 20,
            read_timeout: Some(Duration::from_secs(120)),
        }
    }
}

/// What every connection handler shares: the catalog, the optional
/// durability handle (checkpoint cadence), and the crash-injection plan.
#[derive(Debug)]
struct ServerCtx {
    cat: CatalogState,
    durability: Option<Arc<Durability>>,
    crash: Arc<CrashPlan>,
}

/// A running server: the accept loop plus its shutdown switch.
///
/// # Examples
///
/// ```
/// use depkit_core::prelude::*;
/// use depkit_solver::incremental::CatalogState;
/// use depkit_serve::{Server, ServeConfig};
///
/// let schema = DatabaseSchema::parse(&["R(A)"]).unwrap();
/// let cat = CatalogState::new(&schema, &[]).unwrap();
/// let server = Server::start(cat, "127.0.0.1:0", ServeConfig::default()).unwrap();
/// let addr = server.local_addr();
/// // ... connect clients against `addr` ...
/// server.stop().unwrap();
/// ```
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: JoinHandle<()>,
    cat: CatalogState,
    durability: Option<Arc<Durability>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start accepting connections against `cat` — in-memory only; use
    /// [`Server::start_durable`] for a crash-safe catalog.
    pub fn start(cat: CatalogState, addr: &str, cfg: ServeConfig) -> io::Result<Server> {
        Server::start_durable(cat, addr, cfg, None)
    }

    /// [`Server::start`], wired to a [`Durability`] handle from
    /// `Durability::open`: acknowledged commits count toward the
    /// checkpoint cadence and [`Server::stop`] drains with a final
    /// checkpoint. The catalog must be the one `open` recovered (its
    /// commit sink is already appending to the write-ahead log).
    pub fn start_durable(
        cat: CatalogState,
        addr: &str,
        cfg: ServeConfig,
        durability: Option<Arc<Durability>>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let stop_flag = Arc::clone(&stop);
        let crash = match &durability {
            // Share the durability layer's plan so all points draw from
            // one occurrence counter world.
            Some(d) => Arc::clone(d.crash_plan()),
            None => Arc::new(CrashPlan::from_env().map_err(io::Error::other)?),
        };
        let ctx = Arc::new(ServerCtx {
            cat: cat.clone(),
            durability: durability.clone(),
            crash,
        });
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop_flag.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if active.fetch_add(1, Ordering::AcqRel) >= cfg.max_connections {
                    active.fetch_sub(1, Ordering::AcqRel);
                    let refusal = err(format!(
                        "server at capacity ({} connections)",
                        cfg.max_connections
                    ));
                    let _ = LineConn::new(stream).and_then(|mut c| c.send(&refusal));
                    continue;
                }
                let ctx = Arc::clone(&ctx);
                let active = Arc::clone(&active);
                std::thread::spawn(move || {
                    let _ = serve_connection(&ctx, stream, cfg);
                    active.fetch_sub(1, Ordering::AcqRel);
                });
            }
        });
        Ok(Server {
            addr,
            stop,
            accept_thread,
            cat,
            durability,
        })
    }

    /// The bound address (resolves the ephemeral port of `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept loop, then — when the server
    /// is durable — drain with a final checkpoint so a clean shutdown
    /// restarts without WAL replay. Connections already being served run
    /// until their client hangs up; commits they land after the drain
    /// checkpoint are still in the write-ahead log.
    pub fn stop(self) -> io::Result<()> {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.accept_thread
            .join()
            .map_err(|_| io::Error::other("accept loop panicked"))?;
        if let Some(d) = &self.durability {
            d.checkpoint(&self.cat).map_err(io::Error::other)?;
        }
        Ok(())
    }
}

fn err(message: String) -> Json {
    obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(message)),
    ])
}

/// Drive one connection: read request lines, write response lines, until
/// the client hangs up, sends an oversized line, or goes quiet past the
/// read timeout (the latter two get a JSON error, then the connection
/// closes). A dropped connection aborts any live session (its staging is
/// session-local, so nothing leaks).
fn serve_connection(ctx: &ServerCtx, stream: TcpStream, cfg: ServeConfig) -> io::Result<()> {
    stream.set_read_timeout(cfg.read_timeout)?;
    let mut conn = LineConn::new(stream)?;
    let mut session: Option<Session> = None;
    loop {
        match conn.read_line(cfg.max_line_len)? {
            LineRead::Eof => break,
            LineRead::TimedOut => {
                let _ = conn.send(&err(format!(
                    "read timed out after {:?}: closing connection",
                    cfg.read_timeout.unwrap_or_default()
                )));
                break;
            }
            LineRead::TooLong => {
                let _ = conn.send(&err(format!(
                    "request line exceeds {} bytes: closing connection",
                    cfg.max_line_len
                )));
                // Discard (boundedly) the rest of the oversized line so the
                // close does not reset the queued error reply away.
                conn.drain_line(cfg.max_line_len.saturating_mul(4).max(1 << 16));
                break;
            }
            LineRead::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                let response = respond(ctx, &mut session, &line, cfg.max_staged);
                conn.send(&response)?;
            }
        }
    }
    Ok(())
}

fn value_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::Num(*i),
        Value::Str(s) => Json::Str(s.to_string()),
        other => Json::Str(other.to_string()),
    }
}

/// Execute one request against the connection's session slot.
fn respond(ctx: &ServerCtx, session: &mut Option<Session>, line: &str, max_staged: usize) -> Json {
    let cat = &ctx.cat;
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => return err(e),
    };
    match request {
        Request::Begin => {
            if session.is_some() {
                return err("a session is already active (commit or abort it first)".into());
            }
            let s = cat.begin();
            let gen = s.generation();
            *session = Some(s);
            obj(vec![
                ("ok", Json::Bool(true)),
                ("generation", Json::Num(gen as i64)),
            ])
        }
        Request::Insert { rel, row } => stage_op(session, max_staged, &rel, row, true),
        Request::Delete { rel, row } => stage_op(session, max_staged, &rel, row, false),
        Request::Query => {
            let (gen, violations) = match session.as_ref() {
                Some(s) => (s.generation(), s.violations()),
                None => {
                    let snap = cat.snapshot();
                    (snap.generation(), snap.violations())
                }
            };
            let rendered: Vec<Json> = violations
                .iter()
                .map(|v| Json::Str(v.to_string()))
                .collect();
            obj(vec![
                ("ok", Json::Bool(true)),
                ("generation", Json::Num(gen as i64)),
                ("count", Json::Num(rendered.len() as i64)),
                ("violations", Json::Arr(rendered)),
            ])
        }
        Request::Health => {
            // Always a fresh snapshot, even mid-session: health is the
            // observer's view of committed state, so a client polling it
            // between its own commits watches ratios move as *other*
            // sessions land. Each commit maintained the counters in
            // O(delta); reading them here is O(Σ).
            let snap = cat.snapshot();
            let deps: Vec<Json> = snap
                .health()
                .iter()
                .map(|h| {
                    obj(vec![
                        ("dep", Json::Str(h.dep.to_string())),
                        ("violating", Json::Num(h.violating as i64)),
                        ("tracked", Json::Num(h.tracked as i64)),
                        // The wire format is integer-only; the ratio is
                        // rendered to four places for human eyes.
                        ("satisfied", Json::Str(format!("{:.4}", h.ratio()))),
                    ])
                })
                .collect();
            obj(vec![
                ("ok", Json::Bool(true)),
                ("generation", Json::Num(snap.generation() as i64)),
                ("deps", Json::Arr(deps)),
            ])
        }
        Request::Dump => {
            // The committed state only (never staging), every relation's
            // rows sorted — a canonical form two observers can compare
            // byte-for-byte, which is exactly what the crash-recovery
            // differential does across a restart.
            let snap = cat.snapshot();
            let db = snap.to_database();
            let rels: Vec<Json> = db
                .relations()
                .iter()
                .map(|rel| {
                    let mut rows: Vec<Json> = rel
                        .tuples()
                        .map(|t| Json::Arr(t.values().iter().map(value_json).collect()))
                        .collect();
                    rows.sort_by_key(Json::to_string);
                    obj(vec![
                        ("rel", Json::Str(rel.scheme().name().to_string())),
                        ("rows", Json::Arr(rows)),
                    ])
                })
                .collect();
            obj(vec![
                ("ok", Json::Bool(true)),
                ("generation", Json::Num(snap.generation() as i64)),
                ("rels", Json::Arr(rels)),
            ])
        }
        Request::Commit { tag } => {
            // A tagged retry may arrive on a *fresh* connection (the
            // client reconnected after a lost ack), so the dedup path
            // must work without a live session: open an empty one and
            // let the token table answer.
            let s = match session.take() {
                Some(s) => s,
                None => {
                    if tag.is_none() {
                        return err("no active session (send begin first)".into());
                    }
                    cat.begin()
                }
            };
            let tag_ref = tag.as_ref().map(|(c, t)| (c.as_str(), t.as_str()));
            match s.commit_tagged(tag_ref) {
                Ok(out) => {
                    if !out.replayed && out.applied != DeltaOutcome::default() {
                        if let Some(d) = &ctx.durability {
                            // The commit itself is already durable (the
                            // sink logged it inside the write lock); a
                            // failed *checkpoint* must not turn a durable
                            // commit into a client-visible error.
                            if let Err(e) = d.note_commit(cat) {
                                eprintln!("depkit serve: checkpoint failed: {e}");
                            }
                        }
                    }
                    // The commit is applied and logged; the ack is not
                    // yet on the wire — the lost-ack crash window.
                    ctx.crash.fire(CrashPoint::BeforeAck);
                    obj(vec![
                        ("ok", Json::Bool(true)),
                        ("generation", Json::Num(out.generation as i64)),
                        ("inserted", Json::Num(out.applied.inserted as i64)),
                        ("deleted", Json::Num(out.applied.deleted as i64)),
                        ("replayed", Json::Bool(out.replayed)),
                    ])
                }
                Err(e) => err(e.to_string()),
            }
        }
        Request::Abort => {
            let Some(s) = session.take() else {
                return err("no active session (send begin first)".into());
            };
            s.abort();
            obj(vec![("ok", Json::Bool(true))])
        }
    }
}

/// Stage one operation into the connection's live session, enforcing the
/// staging bound.
fn stage_op(
    session: &mut Option<Session>,
    max_staged: usize,
    rel: &str,
    row: depkit_core::relation::Tuple,
    insert: bool,
) -> Json {
    let Some(s) = session.as_mut() else {
        return err("no active session (send begin first)".into());
    };
    if s.staged().len() >= max_staged {
        return err(format!(
            "staging limit reached ({max_staged} operations): commit or abort"
        ));
    }
    let result = if insert {
        s.stage_insert(rel, row)
    } else {
        s.stage_delete(rel, row)
    };
    match result {
        Ok(()) => obj(vec![
            ("ok", Json::Bool(true)),
            ("staged", Json::Num(s.staged().len() as i64)),
        ]),
        Err(e) => err(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depkit_core::dependency::Dependency;
    use depkit_core::schema::DatabaseSchema;
    use std::io::{BufRead, BufReader, Write};

    fn catalog() -> CatalogState {
        let schema = DatabaseSchema::parse(&["EMP(NAME, DEPT)", "DEPT(DNO)"]).unwrap();
        let sigma: Vec<Dependency> = vec!["EMP[DEPT] <= DEPT[DNO]".parse().unwrap()];
        CatalogState::new(&schema, &sigma).unwrap()
    }

    fn test_ctx(cat: &CatalogState) -> ServerCtx {
        ServerCtx {
            cat: cat.clone(),
            durability: None,
            crash: Arc::new(CrashPlan::none()),
        }
    }

    fn drive(cat: &CatalogState, lines: &[&str]) -> Vec<String> {
        let ctx = test_ctx(cat);
        let mut session = None;
        lines
            .iter()
            .map(|l| respond(&ctx, &mut session, l, 4).to_string())
            .collect()
    }

    #[test]
    fn the_smoke_transcript_insert_query_abort_commit() {
        let cat = catalog();
        let t = drive(
            &cat,
            &[
                r#"{"cmd":"begin"}"#,
                r#"{"cmd":"insert","rel":"EMP","row":["hilbert","math"]}"#,
                r#"{"cmd":"query"}"#,
                r#"{"cmd":"abort"}"#,
                r#"{"cmd":"begin"}"#,
                r#"{"cmd":"insert","rel":"DEPT","row":["math"]}"#,
                r#"{"cmd":"insert","rel":"EMP","row":["hilbert","math"]}"#,
                r#"{"cmd":"commit"}"#,
                r#"{"cmd":"query"}"#,
            ],
        );
        assert_eq!(t[0], r#"{"ok":true,"generation":0}"#);
        assert_eq!(t[1], r#"{"ok":true,"staged":1}"#);
        assert!(
            t[2].contains(r#""count":1"#),
            "staged dangling row: {}",
            t[2]
        );
        assert!(t[2].contains("IND #0"), "names the violation: {}", t[2]);
        assert_eq!(t[3], r#"{"ok":true}"#);
        assert!(
            t[7].contains(r#""generation":1"#),
            "commit published: {}",
            t[7]
        );
        assert!(
            t[7].contains(r#""inserted":2"#),
            "both rows landed: {}",
            t[7]
        );
        assert!(
            t[8].contains(r#""count":0"#),
            "consistent after commit: {}",
            t[8]
        );
        // The abort left no trace: only the committed rows exist.
        assert_eq!(cat.total_rows(), 2);
    }

    #[test]
    fn health_reports_ratios_that_move_with_commits() {
        let cat = catalog();
        let t = drive(
            &cat,
            &[
                r#"{"cmd":"health"}"#,
                r#"{"cmd":"begin"}"#,
                r#"{"cmd":"insert","rel":"DEPT","row":["math"]}"#,
                r#"{"cmd":"insert","rel":"EMP","row":["hilbert","math"]}"#,
                r#"{"cmd":"insert","rel":"EMP","row":["galois","duel"]}"#,
                r#"{"cmd":"health"}"#,
                r#"{"cmd":"commit"}"#,
                r#"{"cmd":"health"}"#,
            ],
        );
        // Empty catalog: vacuously 100% satisfied, nothing tracked.
        assert!(t[0].contains(r#""satisfied":"1.0000""#), "got: {}", t[0]);
        assert!(t[0].contains(r#""tracked":0"#), "got: {}", t[0]);
        // Mid-session health ignores staging: still the committed state.
        assert!(t[5].contains(r#""tracked":0"#), "got: {}", t[5]);
        // After commit: 2 left keys tracked, `duel` dangling → 50%.
        assert!(t[7].contains(r#""generation":1"#), "got: {}", t[7]);
        assert!(
            t[7].contains(r#""violating":1,"tracked":2,"satisfied":"0.5000""#),
            "got: {}",
            t[7]
        );
        assert!(t[7].contains("EMP[DEPT] <= DEPT[DNO]"), "got: {}", t[7]);
    }

    #[test]
    fn protocol_misuse_is_reported_not_fatal() {
        let cat = catalog();
        let t = drive(
            &cat,
            &[
                r#"{"cmd":"commit"}"#,
                r#"{"cmd":"insert","rel":"EMP","row":["a","b"]}"#,
                r#"{"cmd":"begin"}"#,
                r#"{"cmd":"begin"}"#,
                r#"{"cmd":"frobnicate"}"#,
                "not json",
                r#"{"cmd":"insert","rel":"GHOST","row":[1]}"#,
                r#"{"cmd":"insert","rel":"EMP","row":["a"]}"#,
                r#"{"cmd":"abort"}"#,
            ],
        );
        assert!(t[0].contains("no active session"));
        assert!(t[1].contains("no active session"));
        assert!(t[3].contains("already active"));
        assert!(t[4].contains("unknown cmd `frobnicate`"));
        assert!(t[5].contains("(in `not json`)"));
        assert!(t[6].contains("unknown relation"), "got: {}", t[6]);
        assert!(t[7].contains("arity"), "got: {}", t[7]);
        assert!(t[8].contains(r#""ok":true"#));
        assert_eq!(cat.generation(), 0, "nothing committed");
    }

    #[test]
    fn staging_is_bounded_for_backpressure() {
        let cat = catalog();
        let ctx = test_ctx(&cat);
        let mut session = None;
        assert!(respond(&ctx, &mut session, r#"{"cmd":"begin"}"#, 2)
            .to_string()
            .contains("true"));
        for i in 0..2 {
            let r = respond(
                &ctx,
                &mut session,
                &format!(r#"{{"cmd":"insert","rel":"DEPT","row":["d{i}"]}}"#),
                2,
            );
            assert!(r.to_string().contains(r#""ok":true"#));
        }
        let over = respond(
            &ctx,
            &mut session,
            r#"{"cmd":"insert","rel":"DEPT","row":["d9"]}"#,
            2,
        );
        assert!(over.to_string().contains("staging limit reached"));
        // The session is still usable: commit lands the two staged rows.
        let done = respond(&ctx, &mut session, r#"{"cmd":"commit"}"#, 2);
        assert!(done.to_string().contains(r#""inserted":2"#));
    }

    #[test]
    fn tagged_commits_deduplicate_and_work_sessionless() {
        let cat = catalog();
        let t = drive(
            &cat,
            &[
                r#"{"cmd":"begin"}"#,
                r#"{"cmd":"insert","rel":"DEPT","row":["math"]}"#,
                r#"{"cmd":"commit","client":"c1","token":"t1"}"#,
                // The retry: same tag, fresh staging of the same delta —
                // and, as after a reconnect, *no* begin first.
                r#"{"cmd":"commit","client":"c1","token":"t1"}"#,
                // A new token applies normally again.
                r#"{"cmd":"begin"}"#,
                r#"{"cmd":"insert","rel":"DEPT","row":["phys"]}"#,
                r#"{"cmd":"commit","client":"c1","token":"t2"}"#,
            ],
        );
        assert!(
            t[2].contains(r#""generation":1,"inserted":1,"deleted":0,"replayed":false"#),
            "got: {}",
            t[2]
        );
        assert!(
            t[3].contains(r#""generation":1,"inserted":1,"deleted":0,"replayed":true"#),
            "retry returns the original ack: {}",
            t[3]
        );
        assert!(t[6].contains(r#""generation":2"#), "got: {}", t[6]);
        assert_eq!(cat.total_rows(), 2, "no double-apply");
    }

    #[test]
    fn dump_renders_sorted_committed_state() {
        let cat = catalog();
        let t = drive(
            &cat,
            &[
                r#"{"cmd":"begin"}"#,
                r#"{"cmd":"insert","rel":"DEPT","row":["math"]}"#,
                r#"{"cmd":"insert","rel":"DEPT","row":["art"]}"#,
                r#"{"cmd":"insert","rel":"EMP","row":["hilbert","math"]}"#,
                r#"{"cmd":"commit"}"#,
                r#"{"cmd":"begin"}"#,
                r#"{"cmd":"insert","rel":"DEPT","row":["uncommitted"]}"#,
                r#"{"cmd":"dump"}"#,
            ],
        );
        // Dump shows committed state only, rows sorted within relations.
        assert_eq!(
            t[7],
            r#"{"ok":true,"generation":1,"rels":[{"rel":"EMP","rows":[["hilbert","math"]]},{"rel":"DEPT","rows":[["art"],["math"]]}]}"#,
            "got: {}",
            t[7]
        );
    }

    #[test]
    fn oversized_request_lines_get_an_error_and_a_closed_connection() {
        let cat = catalog();
        let cfg = ServeConfig {
            max_line_len: 64,
            ..ServeConfig::default()
        };
        let server = Server::start(cat, "127.0.0.1:0", cfg).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // A short line works...
        writeln!(writer, r#"{{"cmd":"health"}}"#).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains(r#""ok":true"#), "got: {line}");
        // ...then a monster line draws the cap error and a close.
        let huge = format!(
            r#"{{"cmd":"insert","rel":"DEPT","row":["{}"]}}"#,
            "x".repeat(500)
        );
        writeln!(writer, "{huge}").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("exceeds 64 bytes"), "names the cap: {line}");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection closed");
        server.stop().unwrap();
    }

    #[test]
    fn a_deeply_nested_request_gets_an_error_and_the_connection_lives_on() {
        let server = Server::start(catalog(), "127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut conn = LineConn::connect(server.local_addr()).unwrap();
        // 100,000 nested arrays: 200 KB, well inside the line cap.
        let depth = 100_000;
        let deep = format!(
            r#"{{"cmd":"insert","rel":"EMP","row":{}{}}}"#,
            "[".repeat(depth),
            "]".repeat(depth)
        );
        let reply = conn.round_trip(&deep).unwrap();
        assert!(reply.contains(r#""ok":false"#), "got: {reply}");
        assert!(
            reply.contains("nested deeper than 32 levels at byte 65"),
            "got: {reply}"
        );
        let health = r#"{"cmd":"health"}"#;
        assert!(conn.round_trip(&health).unwrap().contains(r#""ok":true"#));
        let mut fresh = LineConn::connect(server.local_addr()).unwrap();
        assert!(fresh.round_trip(&health).unwrap().contains(r#""ok":true"#));
        server.stop().unwrap();
    }

    #[test]
    fn connections_past_the_cap_get_one_error_line() {
        let cfg = ServeConfig {
            max_connections: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(catalog(), "127.0.0.1:0", cfg).unwrap();
        let mut first = LineConn::connect(server.local_addr()).unwrap();
        // A full exchange: the first connection now holds the only slot.
        assert!(first
            .round_trip(&r#"{"cmd":"health"}"#)
            .unwrap()
            .contains(r#""ok":true"#));
        let mut second = LineConn::connect(server.local_addr()).unwrap();
        let refusal = second.recv().unwrap();
        assert!(
            refusal.contains("server at capacity (1 connections)"),
            "got: {refusal}"
        );
        assert!(second.recv().is_err(), "refused connection closed");
        drop(first);
        server.stop().unwrap();
    }

    #[test]
    fn quiet_connections_time_out_with_an_error() {
        let cat = catalog();
        let cfg = ServeConfig {
            read_timeout: Some(Duration::from_millis(60)),
            ..ServeConfig::default()
        };
        let server = Server::start(cat, "127.0.0.1:0", cfg).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        // Send nothing; the handler should give up on us.
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("read timed out"), "got: {line}");
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection closed");
        server.stop().unwrap();
    }
}
