//! The corrupt-WAL corpus: every damaged durability artifact must be
//! either *recovered around* (a torn tail — the shape an interrupted
//! append legitimately leaves — is truncated, with the dropped bytes
//! reported) or *refused with a diagnostic naming the offending file*
//! (mid-log corruption, mangled checkpoints, foreign files). Never a
//! panic, and never a silent partial load that would masquerade as a
//! smaller-but-valid history.
//!
//! The corpus is generated, not checked in: each test builds a healthy
//! data directory through the real commit path, then damages it the
//! specific way it is about.

use depkit_core::prelude::*;
use depkit_core::wal::FsyncPolicy;
use depkit_solver::incremental::{durable, Durability, DurabilityConfig};
use std::path::{Path, PathBuf};

fn spec() -> (DatabaseSchema, Vec<Dependency>) {
    let schema = DatabaseSchema::parse(&["EMP(NAME, DEPT)", "DEPT(DNO)"]).unwrap();
    let sigma = vec!["EMP[DEPT] <= DEPT[DNO]".parse().unwrap()];
    (schema, sigma)
}

fn tdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("depkit-corrupt-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn cfg(dir: &Path) -> DurabilityConfig {
    DurabilityConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Never,
        checkpoint_every: 0,
    }
}

/// Build a data dir with `commits` single-insert commits (and an
/// optional checkpoint after `checkpoint_at` of them), then crash.
fn seeded_dir(tag: &str, commits: i64, checkpoint_at: Option<i64>) -> PathBuf {
    let (schema, sigma) = spec();
    let dir = tdir(tag);
    let (cat, dur, _) = Durability::open(&schema, &sigma, cfg(&dir)).unwrap();
    for i in 0..commits {
        let mut s = cat.begin();
        s.stage_insert("DEPT", Tuple::ints(&[i])).unwrap();
        s.commit_tagged(None).unwrap();
        if checkpoint_at == Some(i + 1) {
            dur.checkpoint(&cat).unwrap();
        }
    }
    dir
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join(durable::WAL_FILE)
}

fn ckpt_path(dir: &Path) -> PathBuf {
    dir.join(durable::CHECKPOINT_FILE)
}

/// Byte offset of the `n`-th frame in a WAL (frame 0 is the header).
fn frame_offset(wal: &[u8], n: usize) -> usize {
    let mut off = 8; // magic
    for _ in 0..n {
        let len = u32::from_le_bytes(wal[off..off + 4].try_into().unwrap()) as usize;
        off += 4 + len + 8;
    }
    off
}

fn open_err(dir: &Path) -> String {
    let (schema, sigma) = spec();
    Durability::open(&schema, &sigma, cfg(dir))
        .map(|_| ())
        .expect_err("a damaged artifact must refuse to load")
        .to_string()
}

#[test]
fn a_torn_tail_of_garbage_is_truncated_and_reported() {
    let dir = seeded_dir("torn-garbage", 4, None);
    let wal = wal_path(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    // An interrupted append: garbage that cannot parse as a frame (a
    // length field of 0xFFFFFFFF overruns any file).
    bytes.extend_from_slice(&[0xFF; 10]);
    std::fs::write(&wal, &bytes).unwrap();

    let (schema, sigma) = spec();
    let (cat, _dur, rep) = Durability::open(&schema, &sigma, cfg(&dir)).unwrap();
    assert_eq!(rep.replayed_commits, 4, "every complete commit survives");
    assert_eq!(rep.wal_tail_dropped, Some(10), "the torn bytes are counted");
    assert_eq!(cat.total_rows(), 4);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_half_written_frame_is_a_torn_tail_not_an_error() {
    let dir = seeded_dir("torn-half", 3, None);
    let wal = wal_path(&dir);
    let bytes = std::fs::read(&wal).unwrap();
    // Re-crash mid-append: duplicate the last frame's first half. The
    // length prefix promises more bytes than the file holds.
    let last = frame_offset(&bytes, 3);
    let half = &bytes[last..last + (bytes.len() - last) / 2];
    let mut torn = bytes.clone();
    torn.extend_from_slice(half);
    std::fs::write(&wal, &torn).unwrap();

    let (schema, sigma) = spec();
    let (cat, _dur, rep) = Durability::open(&schema, &sigma, cfg(&dir)).unwrap();
    assert_eq!(rep.replayed_commits, 3);
    assert_eq!(rep.wal_tail_dropped, Some(half.len() as u64));
    assert_eq!(cat.total_rows(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_bit_flip_mid_log_is_refused_naming_file_and_offset() {
    let dir = seeded_dir("flip-mid", 4, None);
    let wal = wal_path(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    // Flip one payload bit of the *first* commit frame; three valid
    // frames follow, so truncating here would drop acked commits.
    let first = frame_offset(&bytes, 1);
    bytes[first + 6] ^= 0x40;
    std::fs::write(&wal, &bytes).unwrap();

    let e = open_err(&dir);
    assert!(e.contains("wal.log"), "names the file: {e}");
    assert!(
        e.contains(&format!("offset {first}")),
        "names the offset: {e}"
    );
    assert!(
        e.contains("mid-log corruption"),
        "explains the refusal: {e}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_bit_flip_in_the_last_frame_truncates_as_a_torn_tail() {
    let dir = seeded_dir("flip-last", 4, None);
    let wal = wal_path(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    // The same single-bit damage, but in the *last* frame: with no
    // valid frame after it, corruption and a torn write are
    // indistinguishable, so recovery takes the conservative truncation
    // and reports what it dropped.
    let last = frame_offset(&bytes, 4);
    bytes[last + 6] ^= 0x40;
    std::fs::write(&wal, &bytes).unwrap();
    let dropped = (bytes.len() - last) as u64;

    let (schema, sigma) = spec();
    let (cat, _dur, rep) = Durability::open(&schema, &sigma, cfg(&dir)).unwrap();
    assert_eq!(rep.replayed_commits, 3, "the damaged commit is dropped");
    assert_eq!(rep.wal_tail_dropped, Some(dropped));
    assert_eq!(cat.total_rows(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_wal_with_foreign_magic_is_refused_naming_the_file() {
    let dir = seeded_dir("magic", 2, None);
    let wal = wal_path(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes[..8].copy_from_slice(b"notawal!");
    std::fs::write(&wal, &bytes).unwrap();

    let e = open_err(&dir);
    assert!(e.contains("wal.log"), "names the file: {e}");
    assert!(e.contains("bad or missing magic"), "got: {e}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_truncated_checkpoint_is_refused_naming_the_file() {
    let dir = seeded_dir("ckpt-trunc", 5, Some(5));
    let ckpt = ckpt_path(&dir);
    let bytes = std::fs::read(&ckpt).unwrap();
    // A torn checkpoint write cannot exist through the tmp+rename
    // protocol — so a short file is damage, not a crash artifact, and
    // recovery must refuse rather than silently fall back to empty.
    std::fs::write(&ckpt, &bytes[..bytes.len() - 4]).unwrap();

    let e = open_err(&dir);
    assert!(e.contains("catalog.ckpt"), "names the file: {e}");
    assert!(e.contains("truncated or oversized checkpoint"), "got: {e}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_bit_flipped_checkpoint_is_refused_by_checksum() {
    let dir = seeded_dir("ckpt-flip", 5, Some(5));
    let ckpt = ckpt_path(&dir);
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&ckpt, &bytes).unwrap();

    let e = open_err(&dir);
    assert!(e.contains("catalog.ckpt"), "names the file: {e}");
    assert!(e.contains("checksum mismatch"), "got: {e}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_wal_for_a_different_spec_is_refused() {
    let dir = seeded_dir("spec", 3, None);
    let other_schema = DatabaseSchema::parse(&["OTHER(X)"]).unwrap();
    let e = Durability::open(&other_schema, &[], cfg(&dir))
        .map(|_| ())
        .expect_err("a foreign spec must refuse to load")
        .to_string();
    assert!(e.contains("different spec"), "got: {e}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_empty_wal_file_is_refused_not_treated_as_fresh() {
    let dir = tdir("empty-wal");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(wal_path(&dir), b"").unwrap();
    // A zero-byte WAL means the header write itself was lost — the file
    // is damage (creation goes through tmp+rename), never a fresh start
    // that would quietly forget a history.
    let e = open_err(&dir);
    assert!(e.contains("wal.log"), "names the file: {e}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A value section of this many `Pair` tags (`2` bytes) used to recurse
/// once per byte and overflow the stack while decoding.
const PAIR_TAGS: usize = 100_000;

#[test]
fn a_checkpoint_of_nested_pairs_is_refused_not_a_stack_overflow() {
    let dir = seeded_dir("ckpt-pairs", 2, Some(2));
    // No schema, no Σ, generation 7, one value: nothing but Pair tags. The
    // body's checksum is valid, so only the decoder can refuse it.
    let mut body = [0u32.to_le_bytes(), 0u32.to_le_bytes()].concat();
    body.extend_from_slice(&7u64.to_le_bytes());
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend(std::iter::repeat_n(2u8, PAIR_TAGS));
    let mut bytes = depkit_core::wal::CKPT_MAGIC.to_vec();
    bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&body);
    bytes.extend_from_slice(&depkit_core::wal::fnv64(&body).to_le_bytes());
    std::fs::write(ckpt_path(&dir), &bytes).unwrap();

    // The tags start at body byte 20; the 33rd is one pair too deep.
    let e = open_err(&dir);
    assert!(e.contains("catalog.ckpt"), "names the file: {e}");
    assert!(
        e.ends_with(
            "corrupt checkpoint body: value nested deeper than 32 pairs at payload byte 53"
        ),
        "got: {e}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_commit_frame_of_nested_pairs_is_refused_not_a_stack_overflow() {
    let dir = seeded_dir("frame-pairs", 2, None);
    let wal = wal_path(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    // Generation 3, no client or token, one delete of a `DEPT` tuple whose
    // value is nothing but Pair tags.
    let mut payload = vec![2u8];
    payload.extend_from_slice(&3u64.to_le_bytes());
    payload.extend_from_slice(&[0u32.to_le_bytes(), 0u32.to_le_bytes()].concat());
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&4u32.to_le_bytes());
    payload.extend_from_slice(b"DEPT");
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend(std::iter::repeat_n(2u8, PAIR_TAGS));
    let offset = bytes.len();
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes.extend_from_slice(&depkit_core::wal::fnv64(&payload).to_le_bytes());
    std::fs::write(&wal, &bytes).unwrap();

    // The tags start at payload byte 33; the 33rd is one pair too deep.
    let e = open_err(&dir);
    assert!(e.contains("wal.log"), "names the file: {e}");
    assert!(
        e.ends_with(&format!(
            "corrupt commit frame at offset {offset}: \
             value nested deeper than 32 pairs at payload byte 66"
        )),
        "got: {e}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
