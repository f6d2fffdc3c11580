//! Protocol clients: the scripted driver behind `depkit client` and the
//! CI serve smoke, plus [`ResilientClient`] — a reconnecting writer that
//! makes commits exactly-once over a lossy connection.
//!
//! The resilient client pairs with the server's idempotent-commit
//! support: every batch commits under a `(client, token)` tag, and on
//! *any* connection failure — including the ugliest case, an ack lost
//! after the server already applied the commit — it reconnects with
//! exponential backoff and replays the whole batch under the **same**
//! token. The server's token table answers the replay with the original
//! outcome (`"replayed":true`) instead of applying twice, so the client
//! advances its sequence number only on a confirmed ack.

use crate::conn::LineConn;
use crate::json::{self, Json};
use std::io::{self, Write};
use std::time::Duration;

/// Connect to `addr`, send every non-empty, non-comment line of
/// `script` as one request, and write each response line to `out`.
///
/// Script lines are raw protocol JSON; `#`-prefixed lines and blank
/// lines are skipped, so a script can annotate itself. The responses
/// arrive in request order (the protocol is strictly one response per
/// request), which makes the collected output a deterministic
/// transcript — exactly what the CI smoke job asserts against.
pub fn run_script(addr: &str, script: &str, out: &mut dyn Write) -> io::Result<()> {
    let mut conn = LineConn::connect(addr)?;
    for raw in script.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let response = conn.round_trip(&line)?;
        out.write_all(response.as_bytes())?;
        out.write_all(b"\n")?;
    }
    Ok(())
}

/// Reconnect/backoff policy for [`ResilientClient`].
#[derive(Debug, Clone, Copy)]
pub struct RetryConfig {
    /// Total attempts per batch (first try included).
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles each retry after that.
    pub base_delay: Duration,
    /// Ceiling on the doubled delay.
    pub max_delay: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 6,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(2),
        }
    }
}

/// The server's answer to a committed (or deduplicated) batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitAck {
    /// Generation the batch published (or originally published, when
    /// `replayed`).
    pub generation: u64,
    /// Rows the batch inserted.
    pub inserted: u64,
    /// Rows the batch deleted.
    pub deleted: u64,
    /// `true` when the server answered from its token table — the
    /// original ack was lost and this is its replay, not a re-apply.
    pub replayed: bool,
}

/// A committing client that survives dropped connections without ever
/// double-applying: each batch is `begin` + ops + tagged `commit`, and a
/// batch whose connection died anywhere — even between the server
/// applying and the client reading the ack — is replayed verbatim under
/// the same token, which the server deduplicates.
#[derive(Debug)]
pub struct ResilientClient {
    addr: String,
    client_id: String,
    retry: RetryConfig,
    seq: u64,
    conn: Option<LineConn>,
}

/// One strict request/reply exchange, parsed.
fn round_trip(conn: &mut LineConn, line: &str) -> io::Result<Json> {
    let reply = conn.round_trip(&line)?;
    json::parse(&reply).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Why one attempt failed: connection trouble (retryable — the token
/// makes the replay safe) versus the server *answering* with an error
/// (not retryable — the same request would fail the same way).
enum AttemptError {
    Io(io::Error),
    App(String),
}

fn expect_ok(reply: Json) -> Result<Json, AttemptError> {
    if reply.get("ok").and_then(Json::as_bool) == Some(true) {
        return Ok(reply);
    }
    Err(AttemptError::App(
        reply
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("malformed server reply")
            .to_owned(),
    ))
}

impl ResilientClient {
    /// A client with the default [`RetryConfig`]. `client_id` is the
    /// idempotency identity: the server remembers the last token *per
    /// client id*, so concurrent writers need distinct ids.
    pub fn new(addr: &str, client_id: &str) -> ResilientClient {
        ResilientClient::with_retry(addr, client_id, RetryConfig::default())
    }

    /// [`ResilientClient::new`] with an explicit retry policy.
    pub fn with_retry(addr: &str, client_id: &str, retry: RetryConfig) -> ResilientClient {
        ResilientClient {
            addr: addr.to_owned(),
            client_id: client_id.to_owned(),
            retry,
            seq: 0,
            conn: None,
        }
    }

    /// Point the client at a restarted (or relocated) server: drops the
    /// cached connection but keeps the client id and sequence number, so
    /// a batch whose ack was lost to the crash retries under its
    /// original token against the new address.
    pub fn reconnect_to(&mut self, addr: &str) {
        self.addr = addr.to_owned();
        self.conn = None;
    }

    /// The token the *next* `commit_batch` call will commit under.
    /// Deterministic per client: `t0`, `t1`, ... — advanced only when a
    /// batch is acknowledged.
    pub fn next_token(&self) -> String {
        format!("t{}", self.seq)
    }

    /// Commit `ops` (raw protocol `insert`/`delete` lines) as one
    /// idempotent batch: `begin`, stage every op, `commit` tagged with
    /// this client's id and next token. Connection failures reconnect
    /// with exponential backoff and replay under the same token;
    /// application errors (unknown relation, arity mismatch, ...) abort
    /// the session and surface immediately without retrying.
    pub fn commit_batch(&mut self, ops: &[String]) -> io::Result<CommitAck> {
        let token = self.next_token();
        let mut delay = self.retry.base_delay;
        let mut last_io = None;
        for attempt in 0..self.retry.max_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(delay);
                delay = delay.saturating_mul(2).min(self.retry.max_delay);
            }
            match self.attempt(ops, &token) {
                Ok(ack) => {
                    self.seq += 1;
                    return Ok(ack);
                }
                Err(AttemptError::App(message)) => {
                    // Leave the session clean for the next batch; a
                    // failed abort just costs us the cached connection.
                    if self
                        .conn
                        .as_mut()
                        .is_none_or(|c| round_trip(c, r#"{"cmd":"abort"}"#).is_err())
                    {
                        self.conn = None;
                    }
                    return Err(io::Error::new(io::ErrorKind::InvalidData, message));
                }
                Err(AttemptError::Io(e)) => {
                    self.conn = None;
                    last_io = Some(e);
                }
            }
        }
        Err(last_io.unwrap_or_else(|| io::Error::other("retry budget exhausted")))
    }

    fn attempt(&mut self, ops: &[String], token: &str) -> Result<CommitAck, AttemptError> {
        if self.conn.is_none() {
            self.conn = Some(LineConn::connect(self.addr.as_str()).map_err(AttemptError::Io)?);
        }
        let conn = self.conn.as_mut().expect("connection just opened");
        let mut reply = round_trip(conn, r#"{"cmd":"begin"}"#).map_err(AttemptError::Io)?;
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            // A stale session can linger on a reused connection (e.g. a
            // previous batch died between begin and commit without the
            // connection dropping); clear it once and re-begin.
            round_trip(conn, r#"{"cmd":"abort"}"#).map_err(AttemptError::Io)?;
            reply = round_trip(conn, r#"{"cmd":"begin"}"#).map_err(AttemptError::Io)?;
        }
        expect_ok(reply)?;
        for op in ops {
            expect_ok(round_trip(conn, op).map_err(AttemptError::Io)?)?;
        }
        let commit = format!(
            r#"{{"cmd":"commit","client":{},"token":{}}}"#,
            Json::Str(self.client_id.clone()),
            Json::Str(token.to_owned()),
        );
        let ack = expect_ok(round_trip(conn, &commit).map_err(AttemptError::Io)?)?;
        let field = |name: &str| ack.get(name).and_then(Json::as_i64).unwrap_or(0) as u64;
        Ok(CommitAck {
            generation: field("generation"),
            inserted: field("inserted"),
            deleted: field("deleted"),
            replayed: ack.get("replayed").and_then(Json::as_bool) == Some(true),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServeConfig, Server};
    use depkit_core::dependency::Dependency;
    use depkit_core::schema::DatabaseSchema;
    use depkit_solver::incremental::CatalogState;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    #[test]
    fn scripted_session_round_trips_over_tcp() {
        let schema = DatabaseSchema::parse(&["EMP(NAME, DEPT)", "DEPT(DNO)"]).unwrap();
        let sigma: Vec<Dependency> = vec!["EMP[DEPT] <= DEPT[DNO]".parse().unwrap()];
        let cat = CatalogState::new(&schema, &sigma).unwrap();
        let server = Server::start(cat.clone(), "127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();

        let script = r#"
# stage a dangling row, look at it, walk away
{"cmd":"begin"}
{"cmd":"insert","rel":"EMP","row":["hilbert","math"]}
{"cmd":"query"}
{"cmd":"abort"}
# now do it properly
{"cmd":"begin"}
{"cmd":"insert","rel":"DEPT","row":["math"]}
{"cmd":"insert","rel":"EMP","row":["hilbert","math"]}
{"cmd":"commit"}
{"cmd":"query"}
"#;
        let mut out = Vec::new();
        run_script(&addr, script, &mut out).unwrap();
        let transcript = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = transcript.lines().collect();
        assert_eq!(lines.len(), 9, "one response per request:\n{transcript}");
        assert!(lines[2].contains(r#""count":1"#), "{transcript}");
        assert!(lines[7].contains(r#""generation":1"#), "{transcript}");
        assert!(lines[8].contains(r#""count":0"#), "{transcript}");
        assert_eq!(cat.total_rows(), 2, "abort left no trace");
        server.stop().unwrap();
    }

    #[test]
    fn concurrent_tcp_clients_share_one_catalog() {
        let schema = DatabaseSchema::parse(&["R(A)"]).unwrap();
        let cat = CatalogState::new(&schema, &[]).unwrap();
        let server = Server::start(cat.clone(), "127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();

        std::thread::scope(|scope| {
            for t in 0..4 {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut script = String::from("{\"cmd\":\"begin\"}\n");
                    for i in 0..25 {
                        script.push_str(&format!(
                            "{{\"cmd\":\"insert\",\"rel\":\"R\",\"row\":[{}]}}\n",
                            t * 1000 + i
                        ));
                    }
                    script.push_str("{\"cmd\":\"commit\"}\n");
                    let mut out = Vec::new();
                    run_script(&addr, &script, &mut out).unwrap();
                    let text = String::from_utf8(out).unwrap();
                    assert!(
                        text.lines().last().unwrap().contains(r#""inserted":25"#),
                        "{text}"
                    );
                });
            }
        });
        assert_eq!(cat.total_rows(), 100);
        server.stop().unwrap();
    }

    /// Wire-speed regression: with Nagle on, a request written as a body
    /// and a separate `\n` (or a reply written in pieces) waits out the
    /// peer's delayed ACK, ~40 ms per exchange. Fifty exchanges must take
    /// a small fraction of a second on loopback, not two.
    #[test]
    fn fifty_scripted_round_trips_finish_well_under_a_second() {
        let schema = DatabaseSchema::parse(&["R(A)"]).unwrap();
        let cat = CatalogState::new(&schema, &[]).unwrap();
        let server = Server::start(cat, "127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        let script = "{\"cmd\":\"health\"}\n".repeat(50);
        let started = std::time::Instant::now();
        let mut out = Vec::new();
        run_script(&addr, &script, &mut out).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 50);
        assert!(
            elapsed < Duration::from_secs(1),
            "50 round trips took {elapsed:?}"
        );
        server.stop().unwrap();
    }

    #[test]
    fn a_48_op_batch_commits_well_under_a_second() {
        let schema = DatabaseSchema::parse(&["R(A)"]).unwrap();
        let cat = CatalogState::new(&schema, &[]).unwrap();
        let server = Server::start(cat.clone(), "127.0.0.1:0", ServeConfig::default()).unwrap();
        let mut client = ResilientClient::new(&server.local_addr().to_string(), "wire");
        let ops: Vec<String> = (0..48)
            .map(|i| format!(r#"{{"cmd":"insert","rel":"R","row":[{i}]}}"#))
            .collect();
        let started = std::time::Instant::now();
        let ack = client.commit_batch(&ops).unwrap();
        let elapsed = started.elapsed();
        assert_eq!((ack.inserted, ack.replayed), (48, false));
        assert_eq!(cat.total_rows(), 48);
        assert!(
            elapsed < Duration::from_secs(1),
            "begin + 48 ops + commit took {elapsed:?}"
        );
        server.stop().unwrap();
    }

    /// A line-forwarding proxy that sabotages the first connection: it
    /// forwards the client's `commit` to the real server, lets the
    /// server apply it, then *drops the ack on the floor* and kills the
    /// connection — the lost-ack window the idempotent token exists for.
    /// Every later connection forwards transparently.
    fn lossy_proxy(server_addr: std::net::SocketAddr) -> std::net::SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let proxy_addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let mut first = true;
            for client in listener.incoming() {
                let Ok(client) = client else { break };
                let sabotage = std::mem::take(&mut first);
                std::thread::spawn(move || {
                    let upstream = TcpStream::connect(server_addr).unwrap();
                    let mut up_reader = BufReader::new(upstream.try_clone().unwrap());
                    let mut up_writer = upstream;
                    let mut down_reader = BufReader::new(client.try_clone().unwrap());
                    let mut down_writer = client;
                    let mut line = String::new();
                    loop {
                        line.clear();
                        if down_reader.read_line(&mut line).unwrap_or(0) == 0 {
                            break;
                        }
                        up_writer.write_all(line.as_bytes()).unwrap();
                        let mut reply = String::new();
                        if up_reader.read_line(&mut reply).unwrap_or(0) == 0 {
                            break;
                        }
                        if sabotage && line.contains(r#""cmd":"commit""#) {
                            // The server committed; the client never hears.
                            break;
                        }
                        if down_writer.write_all(reply.as_bytes()).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        proxy_addr
    }

    #[test]
    fn a_lost_ack_is_replayed_under_the_same_token_not_reapplied() {
        let schema = DatabaseSchema::parse(&["R(A)"]).unwrap();
        let cat = CatalogState::new(&schema, &[]).unwrap();
        let server = Server::start(cat.clone(), "127.0.0.1:0", ServeConfig::default()).unwrap();
        let proxy = lossy_proxy(server.local_addr());

        let mut client = ResilientClient::with_retry(
            &proxy.to_string(),
            "alice",
            RetryConfig {
                max_attempts: 4,
                base_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(20),
            },
        );
        assert_eq!(client.next_token(), "t0");
        let ops = vec![r#"{"cmd":"insert","rel":"R","row":[1]}"#.to_owned()];
        let ack = client.commit_batch(&ops).unwrap();
        // The first connection died after the server applied the commit;
        // the replay got the original ack back from the token table.
        assert!(ack.replayed, "ack came from the dedup table: {ack:?}");
        assert_eq!(
            (ack.generation, ack.inserted, ack.deleted),
            (1, 1, 0),
            "the original outcome, verbatim"
        );
        assert_eq!(cat.total_rows(), 1, "applied exactly once");

        // The sequence advanced only after the ack: the next batch is a
        // fresh token and applies normally.
        assert_eq!(client.next_token(), "t1");
        let ack2 = client
            .commit_batch(&[r#"{"cmd":"insert","rel":"R","row":[2]}"#.to_owned()])
            .unwrap();
        assert!(!ack2.replayed);
        assert_eq!(ack2.generation, 2);
        assert_eq!(cat.total_rows(), 2);
        server.stop().unwrap();
    }

    #[test]
    fn application_errors_surface_immediately_without_retry() {
        let schema = DatabaseSchema::parse(&["R(A)"]).unwrap();
        let cat = CatalogState::new(&schema, &[]).unwrap();
        let server = Server::start(cat.clone(), "127.0.0.1:0", ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();

        let mut client = ResilientClient::new(&addr, "bob");
        let e = client
            .commit_batch(&[r#"{"cmd":"insert","rel":"GHOST","row":[1]}"#.to_owned()])
            .unwrap_err();
        assert!(
            e.to_string().contains("unknown relation"),
            "the server's message passes through: {e}"
        );
        // The failed batch consumed no token; the client stays usable on
        // the same connection.
        assert_eq!(client.next_token(), "t0");
        let ack = client
            .commit_batch(&[r#"{"cmd":"insert","rel":"R","row":[7]}"#.to_owned()])
            .unwrap();
        assert_eq!((ack.generation, ack.inserted), (1, 1));
        assert_eq!(cat.total_rows(), 1);
        server.stop().unwrap();
    }
}
