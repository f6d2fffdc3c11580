//! Allocation bounds for the checkpoint and WAL decoders: a crafted file
//! whose checksums are valid but whose element counts are huge must fail
//! with the decoder's error before it reserves memory its bytes do not
//! back. Each decoder used to reserve up to 2^20 elements (2^16 for
//! schema and Σ strings) on the word of the count alone: tens of MB for a
//! file of about 50 bytes. A counting global allocator pins the bound.

use depkit_bench::alloc_counter::{measure, CountingAlloc};
use depkit_core::spill::fnv64;
use depkit_core::wal::{read_checkpoint, scan_wal, CKPT_MAGIC, WAL_MAGIC};
use std::path::PathBuf;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Every crafted input must decode within this many bytes of allocation.
const BOUND: u64 = 64 << 10;

fn scratch_file(name: &str, bytes: &[u8]) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "depkit-decoder-bounds-{}-{name}",
        std::process::id()
    ));
    std::fs::write(&path, bytes).unwrap();
    path
}

/// A checkpoint file around `body`: magic, body length, body, checksum.
fn checkpoint(body: &[u8]) -> Vec<u8> {
    let mut out = CKPT_MAGIC.to_vec();
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&fnv64(body).to_le_bytes());
    out
}

/// A WAL frame around `payload`: length, payload, checksum.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out
}

/// Little-endian fields, concatenated.
fn fields(parts: &[&[u8]]) -> Vec<u8> {
    parts.concat()
}

/// Read the crafted checkpoint `body` under the counting allocator: it
/// must fail with `error` (after the file name) within [`BOUND`] bytes.
fn assert_checkpoint_fails_small(name: &str, body: &[u8], file_len: usize, error: &str) {
    let bytes = checkpoint(body);
    assert_eq!(bytes.len(), file_len, "{name}: crafted file changed size");
    let path = scratch_file(name, &bytes);
    let (result, allocs) = measure(usize::MAX, || read_checkpoint(&path));
    std::fs::remove_file(&path).unwrap();
    let err = result.expect_err("a crafted checkpoint must not decode");
    assert_eq!(
        err.to_string(),
        format!("{}: corrupt checkpoint body: {error}", path.display()),
        "{name}"
    );
    assert!(
        allocs.bytes < BOUND,
        "{name}: the decoder allocated {} bytes for a {file_len}-byte file",
        allocs.bytes
    );
}

const EMPTY: &[u8] = &0u32.to_le_bytes();
const GENERATION: &[u8] = &7u64.to_le_bytes();
const HUGE: &[u8] = &u32::MAX.to_le_bytes();

#[test]
fn a_huge_token_count_reserves_nothing() {
    // No schema, no Σ, no values, no relations, then 2^32 − 1 tokens.
    let body = fields(&[EMPTY, EMPTY, GENERATION, EMPTY, EMPTY, HUGE]);
    assert_checkpoint_fails_small("tokens", &body, 52, "token client at payload byte 28");
}

#[test]
fn a_huge_value_count_reserves_nothing() {
    let body = fields(&[EMPTY, EMPTY, GENERATION, HUGE]);
    assert_checkpoint_fails_small("values", &body, 44, "value tag at payload byte 20");
}

#[test]
fn a_huge_row_count_reserves_nothing() {
    // One relation claiming 2^63 rows.
    let rows = (1u64 << 63).to_le_bytes();
    let body = fields(&[EMPTY, EMPTY, GENERATION, EMPTY, &1u32.to_le_bytes(), &rows]);
    assert_checkpoint_fails_small("rows", &body, 56, "born generation at payload byte 32");
}

#[test]
fn a_huge_op_count_in_a_commit_frame_reserves_nothing() {
    // A valid header frame (no schema, no Σ), then a commit frame with an
    // empty client and token whose delete list claims 2^32 − 1 ops.
    let header = fields(&[&[1], &0u64.to_le_bytes(), EMPTY, EMPTY]);
    let commit = fields(&[&[2], &1u64.to_le_bytes(), EMPTY, EMPTY, HUGE]);
    let mut bytes = WAL_MAGIC.to_vec();
    bytes.extend(frame(&header));
    let offset = bytes.len();
    bytes.extend(frame(&commit));
    let path = scratch_file("commit", &bytes);
    let (result, allocs) = measure(usize::MAX, || scan_wal(&path));
    std::fs::remove_file(&path).unwrap();
    let err = result.expect_err("a crafted commit frame must not decode");
    assert_eq!(
        err.to_string(),
        format!(
            "{}: corrupt commit frame at offset {offset}: relation name at payload byte 21",
            path.display()
        )
    );
    assert!(
        allocs.bytes < BOUND,
        "the WAL scan allocated {} bytes for a {}-byte file",
        allocs.bytes,
        bytes.len()
    );
}
