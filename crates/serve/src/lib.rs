//! # depkit-serve — the long-running constraint server
//!
//! The ROADMAP's north star is constraints *monitored live* over a
//! mutating database shared by many writers. This crate is the network
//! layer of that story: it exposes one snapshot-isolated
//! [`CatalogState`](depkit_solver::incremental::CatalogState) over TCP,
//! multiplexing any number of client connections into per-connection
//! [`Session`](depkit_solver::incremental::Session)s.
//!
//! * `conn` (crate-private) — the one line-JSON connection type every TCP
//!   exchange below goes through: `TCP_NODELAY`, one `write_all` per
//!   message, capped reads.
//! * [`json`] — a vendored, std-only line-JSON value type (the build is
//!   offline; no external JSON dependency exists to link against).
//! * [`protocol`] — the request/response verbs
//!   (`begin`/`insert`/`delete`/`query`/`health`/`commit`/`abort`/`dump`),
//!   one JSON object per line in each direction; `commit` optionally
//!   carries a `(client, token)` idempotency tag.
//! * [`server`] — the thread-per-connection TCP accept loop with
//!   structural backpressure (bounded staging per session, bounded
//!   connection count, capped request lines, read timeouts) and, via
//!   [`Server::start_durable`], the write-ahead-logged crash-safe mode.
//! * [`client`] — the scripted client used by `depkit client` and the
//!   CI smoke transcript, plus [`ResilientClient`]: reconnect with
//!   backoff and token-deduplicated replay, for exactly-once commits
//!   over lossy connections.
//!
//! The server adds **no** consistency machinery of its own: isolation,
//! commit ordering, O(delta) validation, and durability all live in
//! `depkit_solver::incremental`; this crate only frames bytes — and, in
//! durable mode, decides *when* a commit is acknowledged (only after its
//! write-ahead-log frame is down).

pub mod client;
mod conn;
pub mod json;
pub mod protocol;
pub mod server;

pub use client::{run_script, CommitAck, ResilientClient, RetryConfig};
pub use json::Json;
pub use protocol::{parse_request, Request};
pub use server::{ServeConfig, Server};
