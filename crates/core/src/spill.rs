//! External-memory sorted runs: the spill layer behind out-of-core
//! dependency discovery.
//!
//! The original SPIDER algorithm is external by design — each attribute's
//! value set is sorted in memory-sized chunks, spilled to disk as sorted
//! runs, and read back through one merge cursor per attribute. This module
//! provides that machinery over the dense `u32` id space of the columnar
//! engine, deliberately minimal and `std`-only:
//!
//! * **Run files** are plain little-endian `u32` id sequences, strictly
//!   ascending and deduplicated within each run ([`write_run`],
//!   [`write_sorted_runs`]). No framing, no compression: a run is
//!   `4 × ids` bytes. A [`RunSet`] lists one attribute's runs in memory;
//!   runs are private to the process that wrote them, inside its
//!   [`SpillDir`], and never read by anyone else.
//! * **Cursors and merging**: [`RunCursor`] streams one run back through a
//!   fixed-size buffer; [`RunMerger`] performs a buffered k-way merge with
//!   duplicate elimination, yielding the attribute's globally sorted
//!   distinct ids without ever materializing them. Run sets wider than
//!   [`MAX_FAN_IN`] are consolidated by intermediate merge passes
//!   ([`merge_run_set`]) so the final merge never holds more than
//!   `MAX_FAN_IN` read buffers.
//! * **[`DistinctStream`]** is the uniform view the discovery engine
//!   consumes: an attribute's distinct ids as 64-id blocks, each a `u64`
//!   presence word. Under budget it holds a presence bitmap, or the sorted
//!   id list when that is smaller; over budget it reads a [`RunMerger`]
//!   over spilled runs. Every backing yields the identical block sequence,
//!   which is what keeps spilled discovery byte-for-byte equal to
//!   in-memory discovery.
//! * **[`SpillStats`]** counts runs written, bytes spilled, and merge
//!   passes, surfaced by `depkit discover --stats`.
//!
//! I/O failure semantics: *creating* spill state (directories, run writes,
//! consolidation merges) returns [`io::Result`] — disk-full and
//! permission errors are expected operational failures. *Reading back* a
//! run this process wrote panics on I/O error or truncation; at that point
//! the computation cannot continue and no caller has a meaningful
//! recovery.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::iter::Peekable;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum number of runs merged by one cursor set. A wider run set is
/// first consolidated by intermediate passes ([`merge_run_set`]), bounding
/// the merge's resident buffer memory at `MAX_FAN_IN ×` [`READ_BUF_BYTES`].
pub const MAX_FAN_IN: usize = 64;

/// Read-buffer size per open [`RunCursor`].
pub const READ_BUF_BYTES: usize = 64 * 1024;

/// Counters for one spill session: how much discovery state went to disk
/// and how many passes it took to stream it back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Columns whose distinct set exceeded its budget share and spilled.
    pub spilled_columns: usize,
    /// Sorted run files written (initial runs plus consolidation output).
    pub runs_written: usize,
    /// Total bytes of run data written.
    pub bytes_spilled: u64,
    /// Merge passes over spilled data: one per consolidation sweep plus
    /// one for the final streaming merge of each spilled column.
    pub merge_passes: usize,
}

impl SpillStats {
    /// Fold another session's counters into this one.
    pub fn absorb(&mut self, other: &SpillStats) {
        self.spilled_columns += other.spilled_columns;
        self.runs_written += other.runs_written;
        self.bytes_spilled += other.bytes_spilled;
        self.merge_passes += other.merge_passes;
    }

    /// Whether anything actually spilled.
    pub fn spilled(&self) -> bool {
        self.runs_written > 0
    }
}

/// Distinguishes concurrently created spill directories within a process.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// An owned scratch directory for run files, removed (best effort) on
/// drop. Created as a uniquely named subdirectory of the caller's chosen
/// root so concurrent discoveries never collide.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
    file_seq: AtomicU64,
}

impl SpillDir {
    /// Create a fresh spill directory under `root` (which is created if
    /// missing).
    pub fn create_in(root: &Path) -> io::Result<SpillDir> {
        std::fs::create_dir_all(root)?;
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("depkit-spill-{}-{}", std::process::id(), seq));
        std::fs::create_dir(&path)?;
        Ok(SpillDir {
            path,
            file_seq: AtomicU64::new(0),
        })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, unique file path inside the directory (for consolidation
    /// output and other unnamed scratch).
    pub fn fresh_path(&self, tag: &str) -> PathBuf {
        let n = self.file_seq.fetch_add(1, Ordering::Relaxed);
        self.path.join(format!("{tag}-{n}.ids"))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// One spilled run: its file and how many ids it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Absolute path of the run file.
    pub path: PathBuf,
    /// Number of `u32` ids in the run.
    pub ids: u64,
}

/// The spilled runs of one attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSet {
    /// The global column id the runs belong to.
    pub column: usize,
    /// The runs, in write order.
    pub runs: Vec<RunMeta>,
}

/// Write one run file: the ids as consecutive little-endian `u32`s.
/// Returns the run's metadata. The caller is responsible for the ids being
/// sorted and deduplicated (the merge discipline assumes it).
pub fn write_run(path: &Path, ids: &[u32]) -> io::Result<RunMeta> {
    let mut w = BufWriter::new(File::create(path)?);
    for &id in ids {
        w.write_all(&id.to_le_bytes())?;
    }
    w.flush()?;
    Ok(RunMeta {
        path: path.to_path_buf(),
        ids: ids.len() as u64,
    })
}

/// Spill one column's values as sorted, per-chunk-deduplicated runs of at
/// most `chunk_ids` ids each (at least 16). Runs may overlap in value
/// range; [`RunMerger`] removes cross-run duplicates.
pub fn write_sorted_runs(
    values: &[u32],
    chunk_ids: usize,
    dir: &SpillDir,
    column: usize,
    stats: &mut SpillStats,
) -> io::Result<RunSet> {
    let chunk_ids = chunk_ids.max(16);
    let mut runs = Vec::new();
    let mut scratch = Vec::with_capacity(chunk_ids.min(values.len()));
    for (k, chunk) in values.chunks(chunk_ids).enumerate() {
        scratch.clear();
        scratch.extend_from_slice(chunk);
        scratch.sort_unstable();
        scratch.dedup();
        let path = dir.path().join(format!("col{column}-run{k}.ids"));
        let meta = write_run(&path, &scratch)?;
        stats.runs_written += 1;
        stats.bytes_spilled += meta.ids * 4;
        runs.push(meta);
    }
    stats.spilled_columns += 1;
    Ok(RunSet { column, runs })
}

/// A buffered streaming reader over one run file.
///
/// Reads [`READ_BUF_BYTES`] at a time; [`RunCursor::next_id`] never does
/// per-id system calls. Opening is fallible; reading panics on I/O error
/// or a truncated (non-multiple-of-4) file — see the module docs for the
/// failure-semantics split.
#[derive(Debug)]
pub struct RunCursor {
    file: File,
    path: PathBuf,
    buf: Vec<u8>,
    len: usize,
    pos: usize,
}

impl RunCursor {
    /// Open a run file for streaming with a freshly allocated buffer.
    pub fn open(path: &Path) -> io::Result<RunCursor> {
        RunCursor::open_with(path, vec![0; READ_BUF_BYTES])
    }

    /// Open a run file for streaming, reusing `buf` as the read buffer
    /// (resized to [`READ_BUF_BYTES`] if needed). Recover the buffer with
    /// [`RunCursor::into_buffer`] when the cursor is exhausted — this is
    /// what lets [`merge_run_set`] consolidate arbitrarily wide run sets
    /// with a bounded buffer pool instead of a fresh 64 KiB allocation
    /// per run per pass.
    pub fn open_with(path: &Path, mut buf: Vec<u8>) -> io::Result<RunCursor> {
        buf.resize(READ_BUF_BYTES, 0);
        Ok(RunCursor {
            file: File::open(path)?,
            path: path.to_path_buf(),
            buf,
            len: 0,
            pos: 0,
        })
    }

    /// Consume the cursor, yielding its read buffer for reuse.
    pub fn into_buffer(self) -> Vec<u8> {
        self.buf
    }

    /// The next id, or `None` at end of run.
    ///
    /// # Panics
    ///
    /// On read errors or truncated run files (see module docs).
    pub fn next_id(&mut self) -> Option<u32> {
        if self.pos + 4 > self.len {
            // Shift the partial tail (0–3 bytes) to the front and refill.
            self.buf.copy_within(self.pos..self.len, 0);
            self.len -= self.pos;
            self.pos = 0;
            while self.len < 4 {
                let n = self
                    .file
                    .read(&mut self.buf[self.len..])
                    .unwrap_or_else(|e| {
                        panic!("spill read failed on {}: {e}", self.path.display())
                    });
                if n == 0 {
                    assert!(
                        self.len == 0,
                        "truncated run file {} ({} trailing bytes)",
                        self.path.display(),
                        self.len
                    );
                    return None;
                }
                self.len += n;
            }
        }
        let id = u32::from_le_bytes(
            self.buf[self.pos..self.pos + 4]
                .try_into()
                .expect("4-byte slice"),
        );
        self.pos += 4;
        Some(id)
    }
}

/// A k-way merge over run cursors yielding each id once, ascending — the
/// read side of an attribute's spilled distinct set.
#[derive(Debug)]
pub struct RunMerger {
    heap: BinaryHeap<Reverse<(u32, usize)>>,
    cursors: Vec<RunCursor>,
    last: Option<u32>,
}

impl RunMerger {
    /// Merge the given cursors (each individually sorted ascending).
    pub fn new(mut cursors: Vec<RunCursor>) -> RunMerger {
        let mut heap = BinaryHeap::with_capacity(cursors.len());
        for (i, cursor) in cursors.iter_mut().enumerate() {
            if let Some(v) = cursor.next_id() {
                heap.push(Reverse((v, i)));
            }
        }
        RunMerger {
            heap,
            cursors,
            last: None,
        }
    }

    /// Consume the merger, yielding its cursors (and through them, via
    /// [`RunCursor::into_buffer`], their read buffers) for reuse.
    pub fn into_cursors(self) -> Vec<RunCursor> {
        self.cursors
    }

    /// The next 64-id block of the merged runs, as `(block, word)`: the
    /// lowest block any cursor is in, with every cursor's ids in it ORed
    /// into one word. A cursor leaves the heap once per block it has ids
    /// in, not once per id, and an id several runs share sets its bit
    /// once, so no duplicate check is needed. A merger is read either by
    /// blocks (inside [`DistinctStream`]) or by [`Iterator::next`], never
    /// both.
    fn next_block(&mut self) -> Option<(usize, u64)> {
        let &Reverse((first, _)) = self.heap.peek()?;
        let block = first / 64;
        let mut word = 0u64;
        while let Some(&Reverse((id, i))) = self.heap.peek() {
            if id / 64 != block {
                break;
            }
            self.heap.pop();
            let mut next = Some(id);
            while let Some(id) = next.filter(|id| id / 64 == block) {
                word |= 1 << (id % 64);
                next = self.cursors[i].next_id();
            }
            if let Some(id) = next {
                self.heap.push(Reverse((id, i)));
            }
        }
        Some((block as usize, word))
    }
}

/// A pool of read buffers recycled across [`RunCursor`]s. Consolidation
/// passes in [`merge_run_set`] open up to [`MAX_FAN_IN`] cursors per
/// group, group after group, pass after pass; the pool caps the
/// buffer allocations of the whole consolidation at one group's worth.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<u8>>,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> BufferPool {
        BufferPool::default()
    }

    /// Take a buffer from the pool, allocating only when empty.
    pub fn take(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_else(|| vec![0; READ_BUF_BYTES])
    }

    /// Return a buffer for reuse.
    pub fn put(&mut self, buf: Vec<u8>) {
        self.free.push(buf);
    }
}

impl Iterator for RunMerger {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while let Some(Reverse((v, i))) = self.heap.pop() {
            if let Some(n) = self.cursors[i].next_id() {
                self.heap.push(Reverse((n, i)));
            }
            if self.last != Some(v) {
                self.last = Some(v);
                return Some(v);
            }
        }
        None
    }
}

/// Open a [`RunMerger`] over a run set, consolidating first when the set
/// is wider than [`MAX_FAN_IN`]: groups of `MAX_FAN_IN` runs are merged
/// into single larger runs, pass by pass, until one cursor set suffices.
/// Each consolidation sweep and the final streaming merge count as one
/// merge pass in `stats`.
pub fn merge_run_set(
    set: &RunSet,
    dir: &SpillDir,
    stats: &mut SpillStats,
) -> io::Result<RunMerger> {
    let mut runs = set.runs.clone();
    // One group's worth of read buffers, recycled across groups and
    // passes; consolidation allocates at most MAX_FAN_IN buffers total.
    let mut pool = BufferPool::new();
    while runs.len() > MAX_FAN_IN {
        stats.merge_passes += 1;
        let mut next = Vec::with_capacity(runs.len().div_ceil(MAX_FAN_IN));
        for group in runs.chunks(MAX_FAN_IN) {
            let cursors = group
                .iter()
                .map(|r| RunCursor::open_with(&r.path, pool.take()))
                .collect::<io::Result<Vec<_>>>()?;
            let path = dir.fresh_path(&format!("col{}-merge", set.column));
            let mut w = BufWriter::new(File::create(&path)?);
            let mut ids = 0u64;
            let mut merger = RunMerger::new(cursors);
            for id in &mut merger {
                w.write_all(&id.to_le_bytes())?;
                ids += 1;
            }
            w.flush()?;
            for cursor in merger.into_cursors() {
                pool.put(cursor.into_buffer());
            }
            stats.runs_written += 1;
            stats.bytes_spilled += ids * 4;
            // The inputs are dead; reclaim the disk before the next pass.
            for r in group {
                let _ = std::fs::remove_file(&r.path);
            }
            next.push(RunMeta { path, ids });
        }
        runs = next;
    }
    if !runs.is_empty() {
        stats.merge_passes += 1;
    }
    let cursors = runs
        .iter()
        .map(|r| RunCursor::open_with(&r.path, pool.take()))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(RunMerger::new(cursors))
}

/// The ids one 64-id block holds, ascending: `64 × block + i` for every
/// set bit `i` of `word`.
pub fn block_ids(block: usize, word: u64) -> impl Iterator<Item = u32> {
    let base = (block * 64) as u32;
    let mut rest = word;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let id = base + rest.trailing_zeros();
            rest &= rest - 1;
            id
        })
    })
}

/// One attribute's distinct ids, read as 64-id blocks: each
/// [`Iterator::next`] yields `(block, word)` for the next block holding an
/// id, ascending, where bit `i` of `word` is set iff id `64 × block + i` is
/// in the set. Blocks without an id are never yielded.
///
/// Three backings, one sequence — consumers cannot (and must not) tell
/// them apart:
///
/// * a **presence bitmap** over the dense id domain, or the **sorted id
///   list** it encodes when that is smaller ([`DistinctStream::resident`]);
/// * a **merge over spilled runs** ([`DistinctStream::spilled`]), which
///   assembles each block's word from the [`RunMerger`]'s ascending ids.
#[derive(Debug)]
pub struct DistinctStream(Backing);

#[derive(Debug)]
enum Backing {
    Bitmap { words: Vec<u64>, next: usize },
    List(Peekable<std::vec::IntoIter<u32>>),
    Spilled(RunMerger),
}

impl DistinctStream {
    /// Hold the set whose presence bitmap is `words` (bit `v % 64` of word
    /// `v / 64` set iff `v` is in it): as the bitmap itself, or as the
    /// sorted id list it encodes when 4 bytes per id take fewer bytes than
    /// the bitmap's words. While the list is built both are resident, so
    /// the peak is the bitmap plus a list smaller than it.
    pub fn resident(words: Vec<u64>) -> DistinctStream {
        let ids: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        if 4 * ids >= 8 * words.len() {
            return DistinctStream(Backing::Bitmap { words, next: 0 });
        }
        let mut list = Vec::with_capacity(ids);
        for (block, &word) in words.iter().enumerate() {
            list.extend(block_ids(block, word));
        }
        DistinctStream(Backing::List(list.into_iter().peekable()))
    }

    /// Read the set from a merge over its spilled runs.
    pub fn spilled(merger: RunMerger) -> DistinctStream {
        DistinctStream(Backing::Spilled(merger))
    }

    /// Whether the stream reads from disk runs.
    pub fn is_spilled(&self) -> bool {
        matches!(self.0, Backing::Spilled(_))
    }

    /// The stream's ids, ascending.
    pub fn ids(self) -> impl Iterator<Item = u32> {
        self.flat_map(|(block, word)| block_ids(block, word))
    }
}

impl Iterator for DistinctStream {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<(usize, u64)> {
        match &mut self.0 {
            Backing::Bitmap { words, next } => {
                let block = *next + words[*next..].iter().position(|&w| w != 0)?;
                *next = block + 1;
                Some((block, words[block]))
            }
            Backing::List(ids) => {
                let first = ids.next()?;
                let block = first / 64;
                let mut word = 1u64 << (first % 64);
                while let Some(id) = ids.next_if(|&id| id / 64 == block) {
                    word |= 1 << (id % 64);
                }
                Some((block as usize, word))
            }
            Backing::Spilled(merger) => merger.next_block(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir() -> SpillDir {
        SpillDir::create_in(&std::env::temp_dir().join("depkit-spill-tests")).unwrap()
    }

    #[test]
    fn run_roundtrip_across_buffer_boundaries() {
        let dir = temp_dir();
        // More than one read buffer's worth of ids.
        let n = READ_BUF_BYTES / 4 + 1000;
        let ids: Vec<u32> = (0..n as u32).map(|i| i * 3).collect();
        let path = dir.path().join("r.ids");
        let meta = write_run(&path, &ids).unwrap();
        assert_eq!(meta.ids, ids.len() as u64);
        assert_eq!(meta.path, path);
        let mut cursor = RunCursor::open(&path).unwrap();
        let mut got = Vec::new();
        while let Some(id) = cursor.next_id() {
            got.push(id);
        }
        assert_eq!(got, ids);
    }

    #[test]
    #[should_panic(expected = "truncated run file")]
    fn truncated_run_panics() {
        let dir = temp_dir();
        let path = dir.path().join("bad.ids");
        std::fs::write(&path, [1, 2, 3]).unwrap();
        let mut cursor = RunCursor::open(&path).unwrap();
        cursor.next_id();
    }

    #[test]
    fn merger_dedups_across_runs() {
        let dir = temp_dir();
        let a = dir.path().join("a.ids");
        let b = dir.path().join("b.ids");
        let c = dir.path().join("c.ids");
        write_run(&a, &[1, 3, 5, 7]).unwrap();
        write_run(&b, &[2, 3, 4, 7, 9]).unwrap();
        write_run(&c, &[]).unwrap();
        let cursors = [&a, &b, &c]
            .iter()
            .map(|p| RunCursor::open(p).unwrap())
            .collect();
        let merged: Vec<u32> = RunMerger::new(cursors).collect();
        assert_eq!(merged, vec![1, 2, 3, 4, 5, 7, 9]);
    }

    #[test]
    fn merger_blocks_or_overlapping_runs() {
        let dir = temp_dir();
        let runs: [&[u32]; 3] = [&[1, 3, 5, 63, 64, 130], &[2, 3, 64, 65, 200, 201], &[]];
        let cursors = runs
            .iter()
            .enumerate()
            .map(|(k, ids)| {
                let path = dir.path().join(format!("r{k}.ids"));
                write_run(&path, ids).unwrap();
                RunCursor::open(&path).unwrap()
            })
            .collect();
        let mut merger = RunMerger::new(cursors);
        let blocks: Vec<(usize, u64)> = std::iter::from_fn(|| merger.next_block()).collect();
        let word = |ids: &[u32]| ids.iter().fold(0u64, |w, &id| w | 1 << (id % 64));
        assert_eq!(
            blocks,
            [
                (0, word(&[1, 2, 3, 5, 63])),
                (1, word(&[64, 65])),
                (2, word(&[130])),
                (3, word(&[200, 201])),
            ]
        );
    }

    #[test]
    fn sorted_runs_roundtrip() {
        let dir = temp_dir();
        let mut stats = SpillStats::default();
        // 80 unsorted values with duplicates: 5 chunks at chunk_ids = 16
        // (the floor), each of 8 distinct ids.
        let values: Vec<u32> = (0..40u32).rev().flat_map(|v| [v, v]).collect();
        let set = write_sorted_runs(&values, 8, &dir, 7, &mut stats).unwrap();
        assert_eq!(set.column, 7);
        assert_eq!(set.runs.len(), 5);
        assert_eq!(stats.runs_written, set.runs.len());
        assert_eq!(stats.spilled_columns, 1);
        for run in &set.runs {
            assert_eq!(run.ids, 8);
            assert_eq!(std::fs::metadata(&run.path).unwrap().len(), run.ids * 4);
        }
        assert_eq!(stats.bytes_spilled, 40 * 4);
        // Merged: exactly 0..40 ascending.
        let merged: Vec<u32> = merge_run_set(&set, &dir, &mut stats).unwrap().collect();
        assert_eq!(merged, (0..40).collect::<Vec<u32>>());
        assert!(stats.merge_passes >= 1);
    }

    #[test]
    fn wide_run_sets_consolidate_in_passes() {
        let dir = temp_dir();
        let mut stats = SpillStats::default();
        // One id per chunk → MAX_FAN_IN * 2 + 3 runs → needs consolidation.
        // chunk_ids floors at 16, so feed 16 copies of each id.
        let n = MAX_FAN_IN * 2 + 3;
        let values: Vec<u32> = (0..n as u32).flat_map(|v| [v; 16]).collect();
        let set = write_sorted_runs(&values, 16, &dir, 0, &mut stats).unwrap();
        assert_eq!(set.runs.len(), n);
        let before = stats.merge_passes;
        let merged: Vec<u32> = merge_run_set(&set, &dir, &mut stats).unwrap().collect();
        assert_eq!(merged, (0..n as u32).collect::<Vec<u32>>());
        // One consolidation sweep plus the final merge.
        assert_eq!(stats.merge_passes - before, 2);
    }

    /// A presence bitmap over `0..=max` with exactly the given ids set.
    fn bitmap(ids: &[u32], max: u32) -> Vec<u64> {
        let mut words = vec![0u64; max as usize / 64 + 1];
        for &v in ids {
            words[v as usize / 64] |= 1 << (v % 64);
        }
        words
    }

    /// The three backings of one id multiset: a dense set keeps its
    /// bitmap, a sparse one becomes a list, and the spilled runs merge
    /// back. All three yield the same blocks — including ids on both sides
    /// of every word boundary and a gap of empty blocks — and the same ids.
    #[test]
    fn distinct_stream_backings_agree() {
        let dir = temp_dir();
        let mut stats = SpillStats::default();
        let sets: [Vec<u32>; 2] = [
            // Dense: 96 ids in 3 words keep the bitmap.
            (0..192).filter(|v| v % 2 == 0).collect(),
            // Sparse: 7 ids over 10 words (28 list bytes < 80 bitmap bytes).
            vec![0, 63, 64, 127, 128, 600, 639],
        ];
        for (k, ids) in sets.iter().enumerate() {
            let max = *ids.last().unwrap();
            let mut values: Vec<u32> = ids.iter().rev().flat_map(|&v| [v, v]).collect();
            values.push(ids[0]);
            let expect_blocks: Vec<(usize, u64)> = bitmap(ids, max)
                .into_iter()
                .enumerate()
                .filter(|&(_, w)| w != 0)
                .collect();
            let resident = DistinctStream::resident(bitmap(ids, max));
            assert!(!resident.is_spilled());
            let dense = matches!(resident.0, Backing::Bitmap { .. });
            assert_eq!(dense, k == 0, "set {k} picked the wrong resident backing");
            let set = write_sorted_runs(&values, 16, &dir, k, &mut stats).unwrap();
            let spilled = DistinctStream::spilled(merge_run_set(&set, &dir, &mut stats).unwrap());
            assert!(spilled.is_spilled());
            assert_eq!(resident.collect::<Vec<_>>(), expect_blocks, "set {k}");
            assert_eq!(spilled.collect::<Vec<_>>(), expect_blocks, "set {k}");
            for stream in [
                DistinctStream::resident(bitmap(ids, max)),
                DistinctStream::spilled(merge_run_set(&set, &dir, &mut stats).unwrap()),
            ] {
                assert_eq!(&stream.ids().collect::<Vec<_>>(), ids, "set {k}");
            }
        }
        // Empty sets yield no block on any backing.
        assert_eq!(DistinctStream::resident(Vec::new()).next(), None);
        assert_eq!(DistinctStream::resident(vec![0; 4]).next(), None);
        let set = write_sorted_runs(&[], 16, &dir, 9, &mut stats).unwrap();
        let mut empty = DistinctStream::spilled(merge_run_set(&set, &dir, &mut stats).unwrap());
        assert_eq!(empty.next(), None);
    }

    #[test]
    fn block_ids_expand_a_word() {
        assert_eq!(block_ids(0, 0).count(), 0);
        assert_eq!(block_ids(2, 0b1011).collect::<Vec<_>>(), [128, 129, 131]);
        assert_eq!(block_ids(1, 1 << 63).collect::<Vec<_>>(), [127]);
        assert_eq!(block_ids(0, !0).count(), 64);
    }

    #[test]
    fn spill_dir_cleans_up_on_drop() {
        let dir = temp_dir();
        let path = dir.path().to_path_buf();
        write_run(&path.join("x.ids"), &[1, 2, 3]).unwrap();
        assert!(path.exists());
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn stats_absorb_sums_fields() {
        let mut a = SpillStats {
            spilled_columns: 1,
            runs_written: 2,
            bytes_spilled: 100,
            merge_passes: 1,
        };
        let b = SpillStats {
            spilled_columns: 2,
            runs_written: 3,
            bytes_spilled: 50,
            merge_passes: 2,
        };
        a.absorb(&b);
        assert_eq!(a.spilled_columns, 3);
        assert_eq!(a.runs_written, 5);
        assert_eq!(a.bytes_spilled, 150);
        assert_eq!(a.merge_passes, 3);
        assert!(a.spilled());
        assert!(!SpillStats::default().spilled());
    }

    #[test]
    fn buffer_pool_recycles() {
        let mut pool = BufferPool::new();
        let a = pool.take();
        assert_eq!(a.len(), READ_BUF_BYTES);
        let ptr = a.as_ptr();
        pool.put(a);
        let b = pool.take();
        assert_eq!(b.as_ptr(), ptr, "pool must hand back the same buffer");
        let dir = temp_dir();
        let path = dir.path().join("r.ids");
        write_run(&path, &[5, 6, 7]).unwrap();
        let cursor = RunCursor::open_with(&path, b).unwrap();
        let merger = RunMerger::new(vec![cursor]);
        let cursors = merger.into_cursors();
        assert_eq!(cursors.len(), 1);
        for c in cursors {
            pool.put(c.into_buffer());
        }
        let recycled = pool.take();
        assert_eq!(recycled.as_ptr(), ptr);
    }
}
