//! Write-ahead logging and checkpointing: the on-disk durability layer
//! under the serve catalog.
//!
//! A durable catalog directory holds exactly two artifacts:
//!
//! * `wal.log` — a **write-ahead log** of length-prefixed, FNV-1a64
//!   checksummed frames: one header frame (the spec the log was opened
//!   against plus the generation it starts after), then one commit frame
//!   per *effective* committed [`Delta`], appended inside the catalog's
//!   short write-lock commit protocol before the client's commit reply is
//!   sent. Acknowledged therefore means logged (and, under
//!   [`FsyncPolicy::Always`], fsynced).
//! * `catalog.ckpt` — a **checkpoint**: the serialized catalog state
//!   (interner, live row logs, commit-token table, generation), published
//!   through an atomic `<name>.tmp.<pid>.<seq>` → `rename` protocol so a
//!   crash mid-checkpoint never damages the previous one.
//!   After a checkpoint the WAL is reset to an empty log based at the
//!   checkpoint generation, which is what bounds recovery time.
//!
//! ## Frame format
//!
//! ```text
//! file  := magic(8) frame*
//! frame := len(u32 LE) payload(len bytes) checksum(u64 LE)   -- FNV-1a64 of payload
//! payload[0] = kind: 1 header, 2 commit
//! ```
//!
//! Integers are little-endian; strings are `u32` length + UTF-8 bytes;
//! [`Value`]s are tagged (`0` Int, `1` Str, `2` Pair, `3` Null).
//!
//! ## Recovery contract
//!
//! [`scan_wal`] replays the frame sequence and classifies damage:
//!
//! * a frame that runs past end-of-file, or whose checksum fails with
//!   **no valid frame anywhere after it**, is a *torn tail* — the normal
//!   signature of a crash mid-append. The scan reports the offset so the
//!   recovering process truncates there and resumes appending;
//! * a bad frame **followed by a valid one** is *mid-log corruption*
//!   (bit rot, external truncation): the scan refuses with a diagnostic
//!   naming the file and byte offset, never a partial load. The
//!   look-ahead re-synchronizes at every byte offset, so a corrupted
//!   length field cannot silently disguise later acknowledged commits as
//!   a torn tail;
//! * payload that passes its checksum but fails to decode is corruption
//!   outright (the checksum says the bytes are what was written, so the
//!   writer was broken): refused with file and offset.
//!
//! [`read_checkpoint`] verifies magic, declared length, and whole-body
//! checksum before decoding; a truncated or bit-flipped checkpoint is
//! refused with a diagnostic naming the file.
//!
//! ## Crash injection
//!
//! [`CrashPlan`] aborts the process at a chosen [`CrashPoint`] (parsed
//! from `DEPKIT_CRASH`) — the lever the kill-mid-commit recovery harness
//! drives to prove the headline invariant: after a crash at *any* point,
//! the recovered catalog equals the serial oracle replaying exactly the
//! acknowledged commits.

use crate::delta::Delta;
use crate::relation::Tuple;
use crate::value::Value;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// First eight bytes of a WAL file.
pub const WAL_MAGIC: [u8; 8] = *b"depkwal1";
/// First eight bytes of a checkpoint file.
pub const CKPT_MAGIC: [u8; 8] = *b"depkckp1";

/// Frame kind tag of the one header frame that opens every WAL.
const KIND_HEADER: u8 = 1;
/// Frame kind tag of a commit frame.
const KIND_COMMIT: u8 = 2;

/// Sanity bound on a single frame payload (a commit frame holds one
/// staged delta; 1 GiB of staged rows is far past the serve staging cap).
const MAX_FRAME_LEN: u32 = 1 << 30;

/// Incremental FNV-1a 64-bit hash — the frame and checkpoint checksum. It
/// is trivially reproducible in any language and byte-order-free over the
/// little-endian encodings it covers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub(crate) fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    /// Absorb bytes.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The digest so far.
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a64 of a byte slice in one call.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Distinguishes temporary publish files within a process (the process id
/// distinguishes them across processes sharing a directory).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A sibling path of `path` that is unique per process and call — the
/// scratch name a checkpoint or a fresh log is written under before the
/// atomic rename.
fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let n = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}.{}", std::process::id(), n));
    path.with_file_name(name)
}

// ---------------------------------------------------------------------------
// Fsync policy
// ---------------------------------------------------------------------------

/// When the WAL writer calls `fsync` after appending a commit frame.
///
/// The trade-off is the classic one: `Always` makes every acknowledged
/// commit crash-durable (survives power loss) at the cost of one fsync
/// per commit; `Interval(n)` amortizes the fsync over `n` commits and
/// bounds the power-loss exposure window to `n` acknowledged commits;
/// `Never` leaves flushing to the OS page cache — a *process* crash
/// (abort, SIGKILL) still loses nothing, because the frames were written
/// to the kernel before the ack, but a machine crash may lose the tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every commit frame.
    Always,
    /// Fsync after every `n` commit frames (and at checkpoints).
    Interval(u64),
    /// Never fsync from the commit path; the OS flushes when it pleases.
    Never,
}

impl FsyncPolicy {
    /// Parse the CLI syntax: `always`, `never`, or `interval:<n>`.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            _ => match s.strip_prefix("interval:") {
                Some(n) => {
                    let n: u64 = n.parse().map_err(|_| format!("bad fsync interval `{n}`"))?;
                    if n == 0 {
                        return Err("fsync interval must be positive (or use `always`)".into());
                    }
                    Ok(FsyncPolicy::Interval(n))
                }
                None => Err(format!(
                    "bad fsync policy `{s}` (expected always, interval:<n>, or never)"
                )),
            },
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::Interval(n) => write!(f, "interval:{n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(i) => {
            out.push(0);
            put_u64(out, *i as u64);
        }
        Value::Str(s) => {
            out.push(1);
            put_str(out, s);
        }
        Value::Pair(a, b) => {
            out.push(2);
            put_value(out, a);
            put_value(out, b);
        }
        Value::Null(n) => {
            out.push(3);
            put_u64(out, *n);
        }
    }
}

/// Deepest `Pair` nesting a decoded value may have. What the catalog
/// stores nests far less: `depkit serve` writes only `Int` and `Str`
/// values, and [`Value::pair`] nests one level. Decoding recurses once per
/// level, so the cap is what keeps a checksum-valid payload of nothing but
/// `Pair` tags from overflowing the stack.
const MAX_PAIR_DEPTH: usize = 32;

/// A decode cursor over one checksummed payload. Every read is bounds
/// checked; failures carry the in-payload offset so the caller can name
/// the absolute file position.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec { bytes, pos: 0 }
    }

    fn fail(&self, what: &str) -> String {
        format!("{what} at payload byte {}", self.pos)
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The capacity to reserve for `n` elements that each take at least
    /// `min_len` encoded bytes: no more than the bytes left could hold, so
    /// a corrupt count fails at its first missing element without having
    /// reserved memory the payload does not back.
    fn capacity(&self, n: usize, min_len: usize) -> usize {
        n.min(self.remaining() / min_len)
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.pos + n > self.bytes.len() {
            return Err(self.fail(what));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn str(&mut self, what: &str) -> Result<String, String> {
        let n = self.u32(what)? as usize;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.fail(what))
    }

    fn value(&mut self) -> Result<Value, String> {
        self.value_within(MAX_PAIR_DEPTH)
    }

    /// A value whose `Pair`s nest at most `depth` deep.
    fn value_within(&mut self, depth: usize) -> Result<Value, String> {
        match self.u8("value tag")? {
            0 => Ok(Value::Int(self.u64("int value")? as i64)),
            1 => Ok(Value::str(self.str("string value")?)),
            2 if depth == 0 => {
                Err(self.fail(&format!("value nested deeper than {MAX_PAIR_DEPTH} pairs")))
            }
            2 => {
                let a = self.value_within(depth - 1)?;
                let b = self.value_within(depth - 1)?;
                Ok(Value::Pair(Box::new(a), Box::new(b)))
            }
            3 => Ok(Value::Null(self.u64("null label")?)),
            t => Err(self.fail(&format!("unknown value tag {t}"))),
        }
    }

    fn done(&self) -> Result<(), String> {
        if self.pos != self.bytes.len() {
            return Err(format!(
                "{} trailing bytes after payload byte {}",
                self.bytes.len() - self.pos,
                self.pos
            ));
        }
        Ok(())
    }
}

/// Smallest encodings, in bytes: a string is its `u32` length, a value
/// its tag and an empty string, an op a relation name and an arity, a
/// checkpoint relation its `u64` row count, a row its birth generation
/// and arity, a row id a `u32`, a token two strings and three `u64`s.
const MIN_STR: usize = 4;
const MIN_VALUE: usize = 1 + MIN_STR;
const MIN_OP: usize = MIN_STR + 4;
const MIN_RELATION: usize = 8;
const MIN_ROW: usize = 8 + 4;
const MIN_ROW_ID: usize = 4;
const MIN_TOKEN: usize = 2 * MIN_STR + 3 * 8;

fn put_ops(out: &mut Vec<u8>, ops: &[(crate::schema::RelName, Tuple)]) {
    put_u32(out, ops.len() as u32);
    for (rel, t) in ops {
        put_str(out, rel.name());
        put_u32(out, t.len() as u32);
        for v in t.values() {
            put_value(out, v);
        }
    }
}

fn dec_ops(d: &mut Dec<'_>) -> Result<Vec<(crate::schema::RelName, Tuple)>, String> {
    let n = d.u32("op count")? as usize;
    let mut ops = Vec::with_capacity(d.capacity(n, MIN_OP));
    for _ in 0..n {
        let rel = d.str("relation name")?;
        let arity = d.u32("tuple arity")? as usize;
        let mut vals = Vec::with_capacity(d.capacity(arity, MIN_VALUE));
        for _ in 0..arity {
            vals.push(d.value()?);
        }
        ops.push((crate::schema::RelName::new(rel), Tuple::new(vals)));
    }
    Ok(ops)
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// The header frame that opens every WAL: the spec the catalog was
/// compiled for (so recovery refuses a log from a different world) and
/// the generation the log starts after (the checkpoint it follows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalHeader {
    /// Commits in this log are stamped at generations `> base_gen`.
    pub base_gen: u64,
    /// One `R(A, B)` declaration per relation scheme, schema order.
    pub schema: Vec<String>,
    /// One rendered dependency per element of Σ, in Σ order.
    pub sigma: Vec<String>,
}

impl WalHeader {
    fn encode(&self) -> Vec<u8> {
        let mut out = vec![KIND_HEADER];
        put_u64(&mut out, self.base_gen);
        put_u32(&mut out, self.schema.len() as u32);
        for s in &self.schema {
            put_str(&mut out, s);
        }
        put_u32(&mut out, self.sigma.len() as u32);
        for s in &self.sigma {
            put_str(&mut out, s);
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<WalHeader, String> {
        let mut d = Dec::new(payload);
        let kind = d.u8("frame kind")?;
        if kind != KIND_HEADER {
            return Err(format!("expected header frame (kind 1), got kind {kind}"));
        }
        let base_gen = d.u64("base generation")?;
        let n = d.u32("schema count")? as usize;
        let mut schema = Vec::with_capacity(d.capacity(n, MIN_STR));
        for _ in 0..n {
            schema.push(d.str("schema decl")?);
        }
        let n = d.u32("sigma count")? as usize;
        let mut sigma = Vec::with_capacity(d.capacity(n, MIN_STR));
        for _ in 0..n {
            sigma.push(d.str("dependency")?);
        }
        d.done()?;
        Ok(WalHeader {
            base_gen,
            schema,
            sigma,
        })
    }
}

/// One committed delta as logged: the generation the commit published,
/// the idempotency tag of the committing client (empty strings when the
/// client sent none), and the staged operations themselves. Replaying the
/// delta through the normal commit path against the state the previous
/// frames produced yields exactly the original commit — deltas are
/// absolute presence operations, so the replay is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitFrame {
    /// The generation this commit published.
    pub generation: u64,
    /// The committing client's id (idempotent-retry scope), or empty.
    pub client: String,
    /// The client's commit token, or empty.
    pub token: String,
    /// The staged delta, exactly as committed.
    pub delta: Delta,
}

impl CommitFrame {
    fn encode(&self) -> Vec<u8> {
        let mut out = vec![KIND_COMMIT];
        put_u64(&mut out, self.generation);
        put_str(&mut out, &self.client);
        put_str(&mut out, &self.token);
        put_ops(&mut out, &self.delta.deletes);
        put_ops(&mut out, &self.delta.inserts);
        out
    }

    fn decode(payload: &[u8]) -> Result<CommitFrame, String> {
        let mut d = Dec::new(payload);
        let kind = d.u8("frame kind")?;
        if kind != KIND_COMMIT {
            return Err(format!("unknown frame kind {kind}"));
        }
        let generation = d.u64("generation")?;
        let client = d.str("client id")?;
        let token = d.str("commit token")?;
        let deletes = dec_ops(&mut d)?;
        let inserts = dec_ops(&mut d)?;
        d.done()?;
        Ok(CommitFrame {
            generation,
            client,
            token,
            delta: Delta { deletes, inserts },
        })
    }
}

/// Frame a payload: length prefix, payload, FNV-1a64 checksum.
fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 12);
    put_u32(&mut out, payload.len() as u32);
    out.extend_from_slice(payload);
    put_u64(&mut out, fnv64(payload));
    out
}

/// Whether a structurally complete, checksum-valid frame starts at `off`.
fn frame_at(bytes: &[u8], off: usize) -> Option<(&[u8], usize)> {
    let len_end = off.checked_add(4)?;
    if len_end > bytes.len() {
        return None;
    }
    let len = u32::from_le_bytes(bytes[off..len_end].try_into().unwrap());
    if len == 0 || len > MAX_FRAME_LEN {
        return None;
    }
    let payload_end = len_end.checked_add(len as usize)?;
    let frame_end = payload_end.checked_add(8)?;
    if frame_end > bytes.len() {
        return None;
    }
    let payload = &bytes[len_end..payload_end];
    let sum = u64::from_le_bytes(bytes[payload_end..frame_end].try_into().unwrap());
    if fnv64(payload) != sum {
        return None;
    }
    Some((payload, frame_end))
}

/// What the end of a scanned WAL looked like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The log ends exactly on a frame boundary.
    Clean,
    /// The log ends in a torn append: `offset` is where the last valid
    /// frame ended, `dropped` how many trailing bytes are unusable.
    /// Recovery truncates the file to `offset` before resuming appends.
    Torn {
        /// Byte offset of the first unusable byte.
        offset: u64,
        /// Unusable trailing bytes.
        dropped: u64,
    },
}

/// A fully scanned, verified WAL.
#[derive(Debug)]
pub struct WalScan {
    /// The header frame.
    pub header: WalHeader,
    /// Every valid commit frame, in append (= commit) order.
    pub commits: Vec<CommitFrame>,
    /// Whether the log ended cleanly or in a torn append.
    pub tail: WalTail,
}

/// Scan a WAL file: verify the magic and every frame checksum, decode
/// the header and commit frames, and classify the tail (see the
/// [module docs](self) for the torn-tail vs mid-log-corruption rule).
pub fn scan_wal(path: &Path) -> io::Result<WalScan> {
    let name = path.display();
    let bytes = std::fs::read(path)?;
    if bytes.len() < WAL_MAGIC.len() || bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(io::Error::other(format!(
            "{name} is not a depkit WAL (bad or missing magic)"
        )));
    }
    let mut off = WAL_MAGIC.len();
    let Some((payload, next)) = frame_at(&bytes, off) else {
        return Err(io::Error::other(format!(
            "{name}: header frame at offset {off} is missing or corrupt"
        )));
    };
    let header = WalHeader::decode(payload)
        .map_err(|e| io::Error::other(format!("{name}: bad header frame at offset {off}: {e}")))?;
    off = next;
    let mut commits = Vec::new();
    let mut last_gen = header.base_gen;
    loop {
        if off == bytes.len() {
            return Ok(WalScan {
                header,
                commits,
                tail: WalTail::Clean,
            });
        }
        match frame_at(&bytes, off) {
            Some((payload, next)) => {
                let frame = CommitFrame::decode(payload).map_err(|e| {
                    io::Error::other(format!("{name}: corrupt commit frame at offset {off}: {e}"))
                })?;
                if frame.generation <= last_gen {
                    return Err(io::Error::other(format!(
                        "{name}: commit frame at offset {off} stamps generation {} \
                         but the log had already reached {last_gen}",
                        frame.generation
                    )));
                }
                last_gen = frame.generation;
                commits.push(frame);
                off = next;
            }
            None => {
                // The bytes at `off` are not a valid frame. Torn tail —
                // unless a valid frame exists anywhere after, in which
                // case acknowledged commits would be silently dropped:
                // that is mid-log corruption and recovery must refuse.
                if (off + 1..bytes.len()).any(|p| frame_at(&bytes, p).is_some()) {
                    return Err(io::Error::other(format!(
                        "{name}: corrupt frame at offset {off} with valid frames after it \
                         (mid-log corruption — refusing to drop acknowledged commits)"
                    )));
                }
                return Ok(WalScan {
                    header,
                    commits,
                    tail: WalTail::Torn {
                        offset: off as u64,
                        dropped: (bytes.len() - off) as u64,
                    },
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// WAL writer
// ---------------------------------------------------------------------------

/// Append side of the WAL: owns the open file and the fsync policy.
///
/// Created fresh via [`WalWriter::create`] (atomic tmp → rename publish
/// of magic + header, so a half-created WAL is never observed under its
/// published name) or re-opened for append after recovery via
/// [`WalWriter::open_append`] (which also truncates a torn tail).
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    policy: FsyncPolicy,
    /// Commit frames appended since the last fsync.
    unsynced: u64,
}

impl WalWriter {
    /// Create a fresh WAL at `path` holding only `header`, replacing any
    /// existing file atomically, and open it for appending.
    pub fn create(path: &Path, header: &WalHeader, policy: FsyncPolicy) -> io::Result<WalWriter> {
        let tmp = tmp_sibling(path);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&WAL_MAGIC)?;
            f.write_all(&encode_frame(&header.encode()))?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter {
            file,
            policy,
            unsynced: 0,
        })
    }

    /// Open an existing, already-scanned WAL for appending, first
    /// truncating it to `valid_len` when the scan found a torn tail.
    pub fn open_append(
        path: &Path,
        valid_len: Option<u64>,
        policy: FsyncPolicy,
    ) -> io::Result<WalWriter> {
        let mut file = OpenOptions::new().write(true).read(true).open(path)?;
        if let Some(n) = valid_len {
            file.set_len(n)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter {
            file,
            policy,
            unsynced: 0,
        })
    }

    /// Append one commit frame and apply the fsync policy. On return
    /// under [`FsyncPolicy::Always`] the frame is crash-durable; under
    /// the other policies it is at least in the kernel (process-crash
    /// durable).
    pub fn append_commit(&mut self, frame: &CommitFrame) -> io::Result<()> {
        self.file.write_all(&encode_frame(&frame.encode()))?;
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::Interval(n) => {
                self.unsynced += 1;
                if self.unsynced >= n {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()?;
        self.unsynced = 0;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// The serialized catalog state a checkpoint file carries: everything a
/// fresh process needs to reconstruct the observable catalog at
/// `generation` — the spec (refused on mismatch), the append-only value
/// interner in id order, each relation's live rows with their birth
/// generations, and the per-client commit-token table (so idempotent
/// retries keep deduplicating across a crash).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointDoc {
    /// One `R(A, B)` declaration per relation scheme, schema order.
    pub schema: Vec<String>,
    /// One rendered dependency per element of Σ, in Σ order.
    pub sigma: Vec<String>,
    /// The generation the checkpoint captures.
    pub generation: u64,
    /// Every interned value, in id order (the interner is append-only).
    pub values: Vec<Value>,
    /// Per relation (schema order): the live rows as
    /// `(born generation, interned-id row)`, in row-log order.
    pub rows: Vec<Vec<(u64, Vec<u32>)>>,
    /// Commit-token table: `(client, token, generation, inserted,
    /// deleted)` per client, sorted by client id.
    pub tokens: Vec<(String, String, u64, u64, u64)>,
}

impl CheckpointDoc {
    fn encode_body(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.schema.len() as u32);
        for s in &self.schema {
            put_str(&mut out, s);
        }
        put_u32(&mut out, self.sigma.len() as u32);
        for s in &self.sigma {
            put_str(&mut out, s);
        }
        put_u64(&mut out, self.generation);
        put_u32(&mut out, self.values.len() as u32);
        for v in &self.values {
            put_value(&mut out, v);
        }
        put_u32(&mut out, self.rows.len() as u32);
        for rel in &self.rows {
            put_u64(&mut out, rel.len() as u64);
            for (born, row) in rel {
                put_u64(&mut out, *born);
                put_u32(&mut out, row.len() as u32);
                for &id in row {
                    put_u32(&mut out, id);
                }
            }
        }
        put_u32(&mut out, self.tokens.len() as u32);
        for (client, token, generation, inserted, deleted) in &self.tokens {
            put_str(&mut out, client);
            put_str(&mut out, token);
            put_u64(&mut out, *generation);
            put_u64(&mut out, *inserted);
            put_u64(&mut out, *deleted);
        }
        out
    }

    fn decode_body(body: &[u8]) -> Result<CheckpointDoc, String> {
        let mut d = Dec::new(body);
        let n = d.u32("schema count")? as usize;
        let mut schema = Vec::with_capacity(d.capacity(n, MIN_STR));
        for _ in 0..n {
            schema.push(d.str("schema decl")?);
        }
        let n = d.u32("sigma count")? as usize;
        let mut sigma = Vec::with_capacity(d.capacity(n, MIN_STR));
        for _ in 0..n {
            sigma.push(d.str("dependency")?);
        }
        let generation = d.u64("generation")?;
        let n = d.u32("value count")? as usize;
        let mut values = Vec::with_capacity(d.capacity(n, MIN_VALUE));
        for _ in 0..n {
            values.push(d.value()?);
        }
        let nrel = d.u32("relation count")? as usize;
        let mut rows = Vec::with_capacity(d.capacity(nrel, MIN_RELATION));
        for _ in 0..nrel {
            let nrows = d.u64("row count")? as usize;
            let mut rel = Vec::with_capacity(d.capacity(nrows, MIN_ROW));
            for _ in 0..nrows {
                let born = d.u64("born generation")?;
                let arity = d.u32("row arity")? as usize;
                let mut row = Vec::with_capacity(d.capacity(arity, MIN_ROW_ID));
                for _ in 0..arity {
                    row.push(d.u32("row id")?);
                }
                rel.push((born, row));
            }
            rows.push(rel);
        }
        let n = d.u32("token count")? as usize;
        let mut tokens = Vec::with_capacity(d.capacity(n, MIN_TOKEN));
        for _ in 0..n {
            let client = d.str("token client")?;
            let token = d.str("token value")?;
            let generation = d.u64("token generation")?;
            let inserted = d.u64("token inserted")?;
            let deleted = d.u64("token deleted")?;
            tokens.push((client, token, generation, inserted, deleted));
        }
        d.done()?;
        Ok(CheckpointDoc {
            schema,
            sigma,
            generation,
            values,
            rows,
            tokens,
        })
    }

    /// The full checkpoint file image: magic, body length, body,
    /// whole-body FNV-1a64 checksum.
    pub fn encode(&self) -> Vec<u8> {
        let body = self.encode_body();
        let mut out = Vec::with_capacity(body.len() + 24);
        out.extend_from_slice(&CKPT_MAGIC);
        put_u64(&mut out, body.len() as u64);
        let mut h = Fnv64::new();
        h.update(&body);
        out.extend_from_slice(&body);
        put_u64(&mut out, h.finish());
        out
    }
}

/// Read and fully verify a checkpoint file: magic, declared body length
/// (a short file is a truncated checkpoint), and whole-body checksum,
/// then decode. Every failure names `path`.
pub fn read_checkpoint(path: &Path) -> io::Result<CheckpointDoc> {
    let name = path.display();
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < CKPT_MAGIC.len() + 16 || bytes[..CKPT_MAGIC.len()] != CKPT_MAGIC {
        return Err(io::Error::other(format!(
            "{name} is not a depkit checkpoint (bad or missing magic)"
        )));
    }
    let body_len = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
    let expected = CKPT_MAGIC.len() + 8 + body_len + 8;
    if bytes.len() != expected {
        return Err(io::Error::other(format!(
            "{name}: truncated or oversized checkpoint \
             (declares {body_len}-byte body, file holds {} of {expected} expected bytes)",
            bytes.len()
        )));
    }
    let body = &bytes[16..16 + body_len];
    let sum = u64::from_le_bytes(bytes[16 + body_len..].try_into().unwrap());
    if fnv64(body) != sum {
        return Err(io::Error::other(format!(
            "{name}: checkpoint checksum mismatch \
             (file says {sum:016x}, body hashes to {:016x})",
            fnv64(body)
        )));
    }
    CheckpointDoc::decode_body(body)
        .map_err(|e| io::Error::other(format!("{name}: corrupt checkpoint body: {e}")))
}

/// Write `doc` to a unique temporary sibling of `path`, fsync it, and
/// return the temporary path — the caller renames it into place (the
/// split exists so the crash harness can inject between the write and
/// the rename).
pub fn write_checkpoint_tmp(path: &Path, doc: &CheckpointDoc) -> io::Result<std::path::PathBuf> {
    let tmp = tmp_sibling(path);
    let mut f = File::create(&tmp)?;
    f.write_all(&doc.encode())?;
    f.sync_all()?;
    Ok(tmp)
}

// ---------------------------------------------------------------------------
// Crash injection
// ---------------------------------------------------------------------------

/// A point in the durable commit/checkpoint protocol where [`CrashPlan`]
/// can abort the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Right after the commit frame is appended (and policy-fsynced):
    /// the commit is durable but the client never sees the ack.
    AfterWalAppend,
    /// Right before the commit reply is written to the socket: the
    /// commit is durable and applied, the ack is lost in flight.
    BeforeAck,
    /// After the checkpoint temporary is written and fsynced, before the
    /// rename publishes it: the previous checkpoint plus the full WAL
    /// must still recover everything.
    MidCheckpoint,
    /// After the checkpoint rename, before the WAL is reset: recovery
    /// sees a new checkpoint plus a WAL whose frames it must *skip* up
    /// to the checkpoint generation.
    AfterCheckpointRename,
}

impl CrashPoint {
    const ALL: [(CrashPoint, &'static str); 4] = [
        (CrashPoint::AfterWalAppend, "after-wal-write"),
        (CrashPoint::BeforeAck, "before-ack"),
        (CrashPoint::MidCheckpoint, "mid-checkpoint"),
        (CrashPoint::AfterCheckpointRename, "after-checkpoint-rename"),
    ];
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (_, name) = CrashPoint::ALL.iter().find(|(p, _)| p == self).unwrap();
        write!(f, "{name}")
    }
}

/// Deterministic process-abort injection for the durability layer:
/// parsed once from `DEPKIT_CRASH` (`<point>[:<n>]` — abort at the `n`-th
/// occurrence of `point`, default the first), empty in production. The
/// abort is [`std::process::abort`]: no destructors, no flushes — a
/// genuine crash, which is exactly what the recovery tests need to prove
/// the WAL protocol right.
#[derive(Debug, Default)]
pub struct CrashPlan {
    armed: Option<(CrashPoint, u64)>,
    seen: AtomicU64,
}

impl CrashPlan {
    /// The empty plan: [`CrashPlan::fire`] never aborts.
    pub fn none() -> CrashPlan {
        CrashPlan::default()
    }

    /// Parse `<point>[:<n>]`, e.g. `before-ack` or `after-wal-write:2`.
    /// Occurrences are 1-based: `:1` (and the no-suffix default) aborts
    /// at the first time the point is reached.
    pub fn parse(spec: &str) -> Result<CrashPlan, String> {
        let (name, nth) = match spec.split_once(':') {
            Some((name, n)) => (
                name,
                match n.parse::<u64>() {
                    Ok(nth) if nth > 0 => nth,
                    _ => return Err(format!("bad crash occurrence `{n}` (1-based)")),
                },
            ),
            None => (spec, 1),
        };
        let point = CrashPoint::ALL
            .iter()
            .find(|(_, n)| *n == name)
            .map(|(p, _)| *p)
            .ok_or_else(|| {
                format!(
                    "unknown crash point `{name}` (expected one of {})",
                    CrashPoint::ALL
                        .iter()
                        .map(|(_, n)| *n)
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })?;
        Ok(CrashPlan {
            armed: Some((point, nth)),
            seen: AtomicU64::new(0),
        })
    }

    /// The plan in `DEPKIT_CRASH`, or the empty plan when unset.
    pub fn from_env() -> Result<CrashPlan, String> {
        match std::env::var("DEPKIT_CRASH") {
            Ok(spec) => CrashPlan::parse(&spec),
            Err(_) => Ok(CrashPlan::none()),
        }
    }

    /// Whether any point is armed (cheap pre-check for hot paths).
    pub fn is_armed(&self) -> bool {
        self.armed.is_some()
    }

    /// Abort the process if `point` is the armed point and this is its
    /// armed occurrence; otherwise return normally.
    pub fn fire(&self, point: CrashPoint) {
        let Some((armed, nth)) = self.armed else {
            return;
        };
        if armed != point {
            return;
        }
        let n = self.seen.fetch_add(1, Ordering::AcqRel) + 1;
        if n == nth {
            eprintln!("DEPKIT_CRASH: aborting at {point} (occurrence {n})");
            std::process::abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Standard FNV-1a64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
        let mut h = Fnv64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv64(b"foobar"));
    }

    fn tdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("depkit-wal-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn header() -> WalHeader {
        WalHeader {
            base_gen: 3,
            schema: vec!["EMP(NAME, DEPT)".into(), "DEPT(DNO)".into()],
            sigma: vec!["EMP[DEPT] <= DEPT[DNO]".into()],
        }
    }

    fn frame(gen: u64) -> CommitFrame {
        let mut delta = Delta::new();
        delta.insert_ints("DEPT", &[gen as i64]);
        delta.delete("EMP", Tuple::new(vec![Value::str("x"), Value::pair(1, 2)]));
        CommitFrame {
            generation: gen,
            client: format!("c{gen}"),
            token: format!("t{gen}"),
            delta,
        }
    }

    #[test]
    fn wal_round_trips_header_and_commits() {
        let dir = tdir("roundtrip");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, &header(), FsyncPolicy::Interval(2)).unwrap();
        for gen in 4..9 {
            w.append_commit(&frame(gen)).unwrap();
        }
        w.sync().unwrap();
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.header, header());
        assert_eq!(scan.tail, WalTail::Clean);
        assert_eq!(scan.commits.len(), 5);
        assert_eq!(scan.commits[0], frame(4));
        assert_eq!(scan.commits[4], frame(8));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_reported_and_truncatable() {
        let dir = tdir("torn");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, &header(), FsyncPolicy::Never).unwrap();
        w.append_commit(&frame(4)).unwrap();
        let clean_len = fs::metadata(&path).unwrap().len();
        w.append_commit(&frame(5)).unwrap();
        drop(w);
        // Tear the last frame: drop its final 3 bytes.
        let full = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 3).unwrap();
        drop(f);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.commits.len(), 1, "torn frame dropped");
        let WalTail::Torn { offset, dropped } = scan.tail else {
            panic!("expected a torn tail")
        };
        assert_eq!(offset, clean_len);
        assert!(dropped > 0);
        // Truncate + append resumes a clean log.
        let mut w = WalWriter::open_append(&path, Some(offset), FsyncPolicy::Never).unwrap();
        w.append_commit(&frame(5)).unwrap();
        drop(w);
        let scan = scan_wal(&path).unwrap();
        assert_eq!(scan.tail, WalTail::Clean);
        assert_eq!(scan.commits.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_bit_flip_is_refused_with_file_and_offset() {
        let dir = tdir("midlog");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, &header(), FsyncPolicy::Never).unwrap();
        let before_first = fs::metadata(&path).unwrap().len();
        for gen in 4..7 {
            w.append_commit(&frame(gen)).unwrap();
        }
        drop(w);
        // Flip one byte inside the *first* commit frame's payload.
        let mut bytes = fs::read(&path).unwrap();
        let idx = before_first as usize + 10;
        bytes[idx] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = scan_wal(&path).unwrap_err().to_string();
        assert!(err.contains("mid-log corruption"), "got: {err}");
        assert!(err.contains("wal.log"), "names the file: {err}");
        assert!(
            err.contains(&format!("offset {before_first}")),
            "names the offset: {err}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_length_field_cannot_masquerade_as_torn_tail() {
        let dir = tdir("lenflip");
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path, &header(), FsyncPolicy::Never).unwrap();
        let first_at = fs::metadata(&path).unwrap().len() as usize;
        for gen in 4..7 {
            w.append_commit(&frame(gen)).unwrap();
        }
        drop(w);
        // Corrupt the first commit frame's length prefix itself: the
        // byte-level resync must still find the later intact frames and
        // refuse rather than truncate two acknowledged commits away.
        let mut bytes = fs::read(&path).unwrap();
        bytes[first_at] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let err = scan_wal(&path).unwrap_err().to_string();
        assert!(err.contains("mid-log corruption"), "got: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_round_trip_and_damage_modes() {
        let dir = tdir("ckpt");
        let path = dir.join("catalog.ckpt");
        let doc = CheckpointDoc {
            schema: vec!["R(A, B)".into()],
            sigma: vec!["R: A -> B".into()],
            generation: 7,
            values: vec![Value::Int(1), Value::str("x"), Value::pair(2, 3)],
            rows: vec![vec![(3, vec![0, 1]), (7, vec![0, 2])]],
            tokens: vec![("c1".into(), "t9".into(), 7, 2, 0)],
        };
        let tmp = write_checkpoint_tmp(&path, &doc).unwrap();
        fs::rename(&tmp, &path).unwrap();
        assert_eq!(read_checkpoint(&path).unwrap(), doc);

        // Truncation is refused, naming the file.
        let full = fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 5).unwrap();
        drop(f);
        let err = read_checkpoint(&path).unwrap_err().to_string();
        assert!(err.contains("truncated"), "got: {err}");
        assert!(err.contains("catalog.ckpt"), "names the file: {err}");

        // A bit flip is refused as a checksum mismatch.
        fs::write(&path, doc.encode()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let err = read_checkpoint(&path).unwrap_err().to_string();
        assert!(err.contains("checksum mismatch"), "got: {err}");

        // Wrong magic is refused.
        fs::write(&path, b"not a checkpoint at all, longer than 24").unwrap();
        let err = read_checkpoint(&path).unwrap_err().to_string();
        assert!(err.contains("magic"), "got: {err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pair_nesting_decodes_up_to_the_cap_and_fails_past_it() {
        let nested = |depth: usize| {
            (0..depth as i64).fold(Value::Int(-1), |v, i| {
                Value::Pair(Box::new(v), Box::new(Value::Int(i)))
            })
        };
        let mut bytes = Vec::new();
        put_value(&mut bytes, &nested(MAX_PAIR_DEPTH));
        assert_eq!(Dec::new(&bytes).value().unwrap(), nested(MAX_PAIR_DEPTH));
        // One level more: the innermost pair's tag is the offender.
        bytes.clear();
        put_value(&mut bytes, &nested(MAX_PAIR_DEPTH + 1));
        assert_eq!(
            Dec::new(&bytes).value().unwrap_err(),
            format!(
                "value nested deeper than {MAX_PAIR_DEPTH} pairs at payload byte {}",
                MAX_PAIR_DEPTH + 1
            )
        );
    }

    #[test]
    fn fsync_policy_parses_and_rejects() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(
            FsyncPolicy::parse("interval:64").unwrap(),
            FsyncPolicy::Interval(64)
        );
        assert!(FsyncPolicy::parse("interval:0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::Interval(8).to_string(), "interval:8");
    }

    #[test]
    fn crash_plan_parses_points_and_occurrences() {
        let p = CrashPlan::parse("before-ack").unwrap();
        assert!(p.is_armed());
        assert_eq!(p.armed, Some((CrashPoint::BeforeAck, 1)));
        let p = CrashPlan::parse("after-wal-write:2").unwrap();
        assert_eq!(p.armed, Some((CrashPoint::AfterWalAppend, 2)));
        assert!(CrashPlan::parse("mid-checkpoint").is_ok());
        assert!(CrashPlan::parse("after-checkpoint-rename").is_ok());
        assert!(CrashPlan::parse("nonsense").is_err());
        assert!(CrashPlan::parse("before-ack:x").is_err());
        assert!(CrashPlan::parse("before-ack:0").is_err(), "1-based");
        assert!(!CrashPlan::none().is_armed());
        // Unarmed and mismatched points never abort (we are still alive).
        CrashPlan::none().fire(CrashPoint::BeforeAck);
        CrashPlan::parse("mid-checkpoint")
            .unwrap()
            .fire(CrashPoint::BeforeAck);
    }
}
