//! Shared primitives for the batched-update engine.
//!
//! Every amortised `update_batch` override in the workspace reduces to one
//! of two traversals of the incoming slice, collected here so the
//! batch ≡ loop law has a single implementation to audit:
//!
//! * [`for_each_run`] — run-length compression for order-*sensitive*
//!   consumers (Misra–Gries, the shared suffix-count table): only
//!   *contiguous* runs of one item may be folded, because interleavings
//!   across different items are not commutative for those structures.
//! * [`aggregate_in_order`] — full per-item aggregation for consumers
//!   whose decisions depend only on first-occurrence order and
//!   multiplicity (the `F_0` sampler).

use crate::fasthash::FastHashMap;
use crate::update::Item;

/// Calls `f(item, count)` once per maximal run of equal adjacent items,
/// in order. `Σ count` over all calls equals `items.len()`.
#[inline]
pub fn for_each_run(items: &[Item], mut f: impl FnMut(Item, u64)) {
    let mut rest = items;
    while let Some(&head) = rest.first() {
        let len = run_len(rest, head);
        f(head, len as u64);
        rest = &rest[len..];
    }
}

/// Length of the maximal prefix of `items` equal to `head` (callers
/// guarantee `items[0] == head`). Short runs (the common case on
/// low-multiplicity streams) resolve with per-item compares; once a run
/// survives the first few lanes, the scan switches to a branchless 8-lane
/// block mode — one data-dependent branch per block, with the mismatch
/// lane recovered from a bitmask — so long runs cost `n/8` branches
/// instead of `n`.
#[inline]
fn run_len(items: &[Item], head: Item) -> usize {
    let n = items.len();
    let mut i = 1;
    let scalar_end = n.min(4);
    while i < scalar_end {
        if items[i] != head {
            return i;
        }
        i += 1;
    }
    while i + 8 <= n {
        let mut mismatch = 0usize;
        for lane in 0..8 {
            mismatch |= usize::from(items[i + lane] != head) << lane;
        }
        if mismatch != 0 {
            return i + mismatch.trailing_zeros() as usize;
        }
        i += 8;
    }
    while i < n && items[i] == head {
        i += 1;
    }
    i
}

/// Aggregates a batch to `(first-occurrence order, item → multiplicity)` —
/// the traversal order per-item logic sees when every occurrence of an item
/// is folded into its first.
pub fn aggregate_in_order(items: &[Item]) -> (Vec<Item>, FastHashMap<Item, u64>) {
    let mut counts: FastHashMap<Item, u64> =
        FastHashMap::with_capacity_and_hasher(items.len().min(1024), Default::default());
    let mut order = Vec::new();
    for &item in items {
        let entry = counts.entry(item).or_insert(0);
        if *entry == 0 {
            order.push(item);
        }
        *entry += 1;
    }
    (order, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_cover_the_slice_in_order() {
        let items = [3u64, 3, 3, 7, 7, 3, 9];
        let mut seen = Vec::new();
        for_each_run(&items, |item, count| seen.push((item, count)));
        assert_eq!(seen, vec![(3, 3), (7, 2), (3, 1), (9, 1)]);
        assert_eq!(
            seen.iter().map(|&(_, c)| c).sum::<u64>(),
            items.len() as u64
        );
    }

    #[test]
    fn empty_slice_produces_no_runs() {
        let mut calls = 0;
        for_each_run(&[], |_, _| calls += 1);
        assert_eq!(calls, 0);
    }

    #[test]
    fn aggregation_keeps_first_occurrence_order() {
        let items = [5u64, 1, 5, 2, 1, 5];
        let (order, counts) = aggregate_in_order(&items);
        assert_eq!(order, vec![5, 1, 2]);
        assert_eq!(counts.len(), 3);
        assert_eq!(counts[&5], 3);
        assert_eq!(counts[&1], 2);
        assert_eq!(counts[&2], 1);
    }
}
