//! Distinct streams: the view unary IND discovery takes of each column's
//! distinct ids, and the counters of a memory-budgeted run.
//!
//! * **[`DistinctStream`]** yields an attribute's distinct ids as 64-id
//!   blocks, each a `u64` presence word. Under its budget share it holds
//!   the column's presence bitmap, or the sorted id list when that is
//!   smaller. Over the share it holds `W` presence words and fills them
//!   one id-range slice at a time, by one scan of the resident column per
//!   slice. Every backing yields the identical block sequence, which is
//!   what keeps budgeted discovery byte-for-byte equal to unbounded
//!   discovery.
//! * **[`SpillStats`]** counts the columns over their share and the column
//!   scans their slices take, surfaced by `depkit discover --stats`.
//!
//! The columns stay resident for the whole run, so a slice is recomputed
//! from its column instead of being written out and read back: nothing
//! here opens a file.

/// Cap on the passes one budgeted stage makes over data that stays
/// resident: the id-range slices of an over-budget [`DistinctStream`], and
/// the key-range passes of the n-ary IND validator. A share so small that
/// it would need more passes is overshot instead (graceful degradation:
/// the run may use more memory than asked, never produce different
/// output). It is the width of the `u64` mask of a stream's slices.
pub const MAX_PASSES: usize = u64::BITS as usize;

/// Counters for one budgeted run: which distinct streams went over their
/// share and how many column scans their slices take.
///
/// `runs_written` and `bytes_spilled` are always 0 (discovery writes no
/// files); they are kept so that readers of the four counters still build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Columns whose distinct stream exceeded its budget share and reads
    /// its column in id-range slices.
    pub spilled_columns: usize,
    /// Always 0: no run file is written.
    pub runs_written: usize,
    /// Always 0: no byte goes to disk.
    pub bytes_spilled: u64,
    /// Column scans the slices of the over-budget streams take, one per
    /// non-empty slice (plus, not counted here, the one scan per stream
    /// that finds them).
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

    /// Whether any column went over its share.
    pub fn spilled(&self) -> bool {
        self.spilled_columns > 0
    }
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
/// * **id-range slices** of the bitmap, each filled by one scan of the
///   borrowed column ([`DistinctStream::sliced`]).
#[derive(Debug)]
pub struct DistinctStream<'a>(Backing<'a>);

#[derive(Debug)]
enum Backing<'a> {
    Bitmap { words: Vec<u64>, next: usize },
    List(std::iter::Peekable<std::vec::IntoIter<u32>>),
    Sliced(Slices<'a>),
}

/// The presence bitmap of a column, held `width` words at a time: slice
/// `s` covers blocks `s × width .. (s + 1) × width`.
#[derive(Debug)]
struct Slices<'a> {
    column: &'a [u32],
    width: usize,
    /// The current slice's words; word `i` is block `base + i`.
    words: Vec<u64>,
    base: usize,
    /// The next word of `words` to look at.
    next: usize,
    /// Non-empty slices not yet scanned: bit `s` for slice `s`.
    pending: u64,
}

impl Slices<'_> {
    /// Scan the column once for slice `s`, setting the bit of every id in
    /// its block range.
    fn load(&mut self, s: usize) {
        self.pending &= !(1 << s);
        self.base = s * self.width;
        self.next = 0;
        self.words.clear();
        self.words.resize(self.width, 0);
        for &v in self.column {
            let i = (v as usize / 64).wrapping_sub(self.base);
            if i < self.width {
                self.words[i] |= 1 << (v % 64);
            }
        }
    }

    fn next_block(&mut self) -> Option<(usize, u64)> {
        loop {
            if let Some(i) = self.words[self.next..].iter().position(|&w| w != 0) {
                let i = self.next + i;
                self.next = i + 1;
                return Some((self.base + i, self.words[i]));
            }
            if self.pending == 0 {
                return None;
            }
            self.load(self.pending.trailing_zeros() as usize);
        }
    }
}

impl DistinctStream<'static> {
    /// Hold the set whose presence bitmap is `words` (bit `v % 64` of word
    /// `v / 64` set iff `v` is in it): as the bitmap itself, or as the
    /// sorted id list it encodes when 4 bytes per id take fewer bytes than
    /// the bitmap's words. While the list is built both are resident, so
    /// the peak is the bitmap plus a list smaller than it.
    pub fn resident(words: Vec<u64>) -> DistinctStream<'static> {
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
}

impl<'a> DistinctStream<'a> {
    /// Read the distinct ids of `column`, whose ids lie below `domain`, in
    /// id-range slices of `W = max(share / 8, ⌈domain words / 64⌉, 1)`
    /// presence words (at most the domain's words), so a stream holds
    /// `share` bytes unless the domain needs more than [`MAX_PASSES`]
    /// slices of that size. One scan here finds the non-empty slices; each
    /// of them then takes one more scan when the stream reaches it.
    ///
    /// # Panics
    ///
    /// On an id so far beyond `domain` that it falls past the last slice.
    pub fn sliced(column: &'a [u32], domain: usize, share: usize) -> DistinctStream<'a> {
        let domain_words = domain.div_ceil(64).max(1);
        let width = (share / 8)
            .max(domain_words.div_ceil(MAX_PASSES))
            .min(domain_words);
        let slice_ids = 64 * width;
        let mut pending = 0u64;
        for &v in column {
            pending |= 1u64
                .checked_shl((v as usize / slice_ids) as u32)
                .expect("a column id lies beyond the stream's domain");
        }
        DistinctStream(Backing::Sliced(Slices {
            column,
            width,
            words: Vec::new(),
            base: 0,
            next: 0,
            pending,
        }))
    }

    /// Whether the stream reads its column in slices.
    pub fn is_sliced(&self) -> bool {
        matches!(self.0, Backing::Sliced(_))
    }

    /// Column scans the stream has yet to take: one per non-empty slice
    /// not read so far; 0 for a resident stream.
    pub fn scans_left(&self) -> usize {
        match &self.0 {
            Backing::Sliced(s) => s.pending.count_ones() as usize,
            _ => 0,
        }
    }

    /// The stream's ids, ascending.
    pub fn ids(self) -> impl Iterator<Item = u32> + 'a {
        self.flat_map(|(block, word)| block_ids(block, word))
    }
}

impl Iterator for DistinctStream<'_> {
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
            Backing::Sliced(slices) => slices.next_block(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A presence bitmap over `0..=max` with exactly the given ids set.
    fn bitmap(ids: &[u32], max: u32) -> Vec<u64> {
        let mut words = vec![0u64; max as usize / 64 + 1];
        for &v in ids {
            words[v as usize / 64] |= 1 << (v % 64);
        }
        words
    }

    /// The backings of one id multiset: a dense set keeps its bitmap, a
    /// sparse one becomes a list, and the sliced stream yields the same
    /// blocks at every slice width from one word to the whole domain —
    /// with ids on both sides of every word boundary, runs of empty words
    /// and whole empty slices between the non-empty ones.
    #[test]
    fn distinct_stream_backings_agree() {
        let sets: [Vec<u32>; 2] = [
            // Dense: 96 ids in 3 words keep the bitmap.
            (0..192).filter(|v| v % 2 == 0).collect(),
            // Sparse: 7 ids over 10 words (28 list bytes < 80 bitmap bytes).
            vec![0, 63, 64, 127, 128, 600, 639],
        ];
        for (k, ids) in sets.iter().enumerate() {
            let max = *ids.last().unwrap();
            let domain = max as usize + 1;
            let mut column: Vec<u32> = ids.iter().rev().flat_map(|&v| [v, v]).collect();
            column.push(ids[0]);
            let expect_blocks: Vec<(usize, u64)> = bitmap(ids, max)
                .into_iter()
                .enumerate()
                .filter(|&(_, w)| w != 0)
                .collect();
            let resident = DistinctStream::resident(bitmap(ids, max));
            assert!(!resident.is_sliced());
            let dense = matches!(resident.0, Backing::Bitmap { .. });
            assert_eq!(dense, k == 0, "set {k} picked the wrong resident backing");
            assert_eq!(resident.collect::<Vec<_>>(), expect_blocks, "set {k}");
            for words in 1..=domain.div_ceil(64) {
                let sliced = DistinctStream::sliced(&column, domain, 8 * words);
                assert!(sliced.is_sliced());
                let nonempty = expect_blocks
                    .iter()
                    .map(|&(block, _)| block / words)
                    .collect::<std::collections::BTreeSet<_>>();
                assert_eq!(
                    sliced.scans_left(),
                    nonempty.len(),
                    "set {k}, {words} words"
                );
                assert_eq!(
                    sliced.collect::<Vec<_>>(),
                    expect_blocks,
                    "set {k}, {words} words"
                );
                let ids_back: Vec<u32> = DistinctStream::sliced(&column, domain, 8 * words)
                    .ids()
                    .collect();
                assert_eq!(&ids_back, ids, "set {k}, {words} words");
            }
        }
        // Empty sets yield no block on any backing, and need no scan.
        assert_eq!(DistinctStream::resident(Vec::new()).next(), None);
        assert_eq!(DistinctStream::resident(vec![0; 4]).next(), None);
        for domain in [0, 1, 640] {
            let mut empty = DistinctStream::sliced(&[], domain, 8);
            assert_eq!(empty.scans_left(), 0);
            assert_eq!(empty.next(), None);
        }
    }

    /// A share too small for the domain is overshot rather than scanning
    /// the column more than [`MAX_PASSES`] times.
    #[test]
    fn slices_are_capped_at_max_passes() {
        let domain = 64 * 64 * 10;
        let column: Vec<u32> = (0..domain as u32).step_by(7).collect();
        let stream = DistinctStream::sliced(&column, domain, 1);
        assert_eq!(stream.scans_left(), MAX_PASSES);
        let expect: Vec<u32> = column.clone();
        assert_eq!(stream.ids().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn block_ids_expand_a_word() {
        assert_eq!(block_ids(0, 0).count(), 0);
        assert_eq!(block_ids(2, 0b1011).collect::<Vec<_>>(), [128, 129, 131]);
        assert_eq!(block_ids(1, 1 << 63).collect::<Vec<_>>(), [127]);
        assert_eq!(block_ids(0, !0).count(), 64);
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
}
