//! Heap bound for the distinct streams of a memory-budgeted discovery run:
//! a column over its budget share holds `share` bytes of presence words
//! and rescans itself once per id-range slice, so opening every column's
//! stream and draining them together in block order (what the SPIDER
//! sweep does) holds about the sum of the shares. A counting global
//! allocator pins the high-water mark.

use depkit_bench::alloc_counter::{measure, CountingAlloc};
use depkit_core::column::RelationColumns;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn sliced_streams_stay_within_their_shares() {
    // 8 columns of 200k distinct ids each, spread over a 1.6M-id domain:
    // each column's bitmap (200 KB) is far over a 26,666-byte share, the
    // per-column share of a 417 KiB budget over 8 columns.
    let (cols, rows, share) = (8usize, 200_000usize, 26_666usize);
    let domain = cols * rows;
    let mut rel = RelationColumns::with_capacity(cols, rows);
    let mut row = vec![0u32; cols];
    for r in 0..rows {
        for (c, v) in row.iter_mut().enumerate() {
            // A permutation of the domain (the multiplier is odd and
            // prime to 5), so ids are distinct and scattered.
            *v = ((r * cols + c) * 1_000_003 % domain) as u32;
        }
        rel.push_row(&row);
    }
    assert!(RelationColumns::distinct_bytes_estimate(rows, domain) > share);
    let want: Vec<Vec<(usize, u64)>> = (0..cols)
        .map(|c| rel.sorted_distinct_stream(c, domain, None).0.collect())
        .collect();
    let mut want: Vec<_> = want.iter().map(|blocks| blocks.iter().copied()).collect();

    let (scans, allocs) = measure(usize::MAX, || {
        let mut scans = 0;
        let mut streams: Vec<_> = (0..cols)
            .map(|c| {
                let (stream, stats) = rel.sorted_distinct_stream(c, domain, Some(share));
                assert_eq!(stats.spilled_columns, 1);
                scans += stats.merge_passes;
                stream
            })
            .collect();
        let mut heads: Vec<_> = streams.iter_mut().map(Iterator::next).collect();
        while let Some(block) = heads.iter().flatten().map(|&(b, _)| b).min() {
            for (c, head) in heads.iter_mut().enumerate() {
                if head.is_some_and(|(b, _)| b == block) {
                    assert_eq!(*head, want[c].next(), "column {c}");
                    *head = streams[c].next();
                }
            }
        }
        scans
    });
    for (c, rest) in want.iter_mut().enumerate() {
        assert_eq!(rest.next(), None, "column {c} ended early");
    }
    // Every column spans all 8 slices of 3,333 words.
    assert_eq!(scans, cols * domain.div_ceil(64).div_ceil(share / 8));
    let bound = (cols * share + (64 << 10)) as u64;
    assert!(
        allocs.peak <= bound,
        "opening and draining {cols} sliced streams peaked at {} bytes, over {bound}",
        allocs.peak
    );
}

#[test]
fn counting_allocator_measures_its_region() {
    // Shim self-check: a region that allocates twice over the threshold
    // reports at least those two, and a no-op region reports none large.
    let (_, quiet) = measure(1 << 20, || 0u8);
    assert_eq!(quiet.large, 0);
    assert_eq!(quiet.peak, 0);
    let (v, stats) = measure(1 << 10, || {
        let a = vec![0u8; 4 << 10];
        let b = vec![0u8; 8 << 10];
        a.len() + b.len()
    });
    assert_eq!(v, 12 << 10);
    assert!(stats.large >= 2, "{stats:?}");
    assert!(stats.bytes >= (12 << 10), "{stats:?}");
    // Both buffers were live at once; freeing the first before allocating
    // the second halves the high-water mark.
    assert!(stats.peak >= (12 << 10), "{stats:?}");
    let (_, serial) = measure(1 << 10, || {
        drop(vec![0u8; 8 << 10]);
        vec![0u8; 8 << 10].len()
    });
    assert!(
        serial.peak >= (8 << 10) && serial.peak < (12 << 10),
        "{serial:?}"
    );
}
