//! Exact suffix counting: the shared "hash table containing a count and a
//! list of offsets" that gives the truly perfect sampler framework its
//! `O(1)` expected update time (the optimisation described after
//! Theorem 3.1). Each *distinct* sampled item is counted once, and every
//! sampler instance that later samples the same item only stores the
//! counter value at its own sampling time as an offset.

use tps_streams::codec::{self, CodecError, Restore, Snapshot, SnapshotReader, SnapshotWriter};
use tps_streams::space::hashmap_bytes;
use tps_streams::{FastHashMap, Item, SpaceUsage};

/// The shared suffix-count table used for `O(1)`-update-time truly perfect
/// sampling.
///
/// When a sampler instance samples item `s` at time `t`, it registers
/// interest by recording the *current* suffix count of `s` as an offset; a
/// single shared counter per distinct tracked item is incremented on every
/// subsequent occurrence. The instance's own suffix count is then
/// `shared_count − offset`, reconstructed at query time. This way a stream
/// update touches exactly one hash-table entry no matter how many instances
/// track the item.
#[derive(Debug, Clone, Default)]
pub struct SuffixCountTable {
    /// Occurrences of each tracked item since it was first tracked. Keyed
    /// with the fast internal hasher: this map is touched once per stream
    /// update and dominates the engine's per-update cost.
    counts: FastHashMap<Item, u64>,
}

impl SuffixCountTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts tracking `item` (idempotent) and returns the offset an
    /// instance must remember to reconstruct its own suffix count later.
    ///
    /// The offset convention: the occurrence that caused the instance to
    /// sample the item is *not* counted in its suffix, matching Algorithm 1
    /// (the counter is reset to zero when the reservoir admits an item and
    /// only later occurrences increment it).
    pub fn track(&mut self, item: Item) -> u64 {
        *self.counts.entry(item).or_insert(0)
    }

    /// Processes one stream update: increments the shared counter if the
    /// item is tracked by anyone. `O(1)` expected time.
    pub fn update(&mut self, item: Item) {
        if let Some(c) = self.counts.get_mut(&item) {
            *c += 1;
        }
    }

    /// Processes a contiguous batch of stream updates, leaving the table in
    /// exactly the state the per-item loop would.
    ///
    /// Runs of equal adjacent items are folded into one hash-table touch, so
    /// heavy skewed streams cost one lookup per *run* rather than per
    /// occurrence; an empty table short-circuits the whole batch.
    pub fn update_batch(&mut self, items: &[Item]) {
        if self.counts.is_empty() {
            return;
        }
        tps_streams::for_each_run(items, |item, count| self.update_run(item, count));
    }

    /// Processes `count` consecutive occurrences of `item` with a single
    /// hash-table touch (exactly equivalent to `count` [`Self::update`]
    /// calls, since the counter is plain addition).
    #[inline]
    pub fn update_run(&mut self, item: Item, count: u64) {
        if let Some(c) = self.counts.get_mut(&item) {
            *c += count;
        }
    }

    /// Reconstructs an instance's suffix count from its stored offset.
    ///
    /// Returns 0 if the item is not tracked (can only happen for instances
    /// that never sampled anything).
    pub fn suffix_count(&self, item: Item, offset: u64) -> u64 {
        self.counts
            .get(&item)
            .map(|&c| c.saturating_sub(offset))
            .unwrap_or(0)
    }

    /// Stops tracking an item and frees its counter. Callers are responsible
    /// for only doing this once no instance still references the item.
    pub fn untrack(&mut self, item: Item) {
        self.counts.remove(&item);
    }

    /// Number of distinct tracked items.
    pub fn tracked(&self) -> usize {
        self.counts.len()
    }

    /// The tracked `(item, shared count)` entries, in no particular order
    /// (used by snapshot validation and diagnostics).
    pub fn entries(&self) -> impl Iterator<Item = (Item, u64)> + '_ {
        self.counts.iter().map(|(&i, &c)| (i, c))
    }
}

impl SpaceUsage for SuffixCountTable {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + hashmap_bytes(&self.counts)
    }
}

/// Wire format: the tracked `(item, shared count)` pairs, sorted by item.
impl Snapshot for SuffixCountTable {
    const TAG: u16 = codec::tag::SUFFIX_COUNT_TABLE;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
        codec::put_sorted_u64_pairs(w, self.counts.iter().map(|(&i, &c)| (i, c)));
    }
}

impl Restore for SuffixCountTable {
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        let counts = codec::get_sorted_u64_pairs(r)?.into_iter().collect();
        Ok(Self { counts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffix_table_reconstructs_counts() {
        let mut table = SuffixCountTable::new();
        // Instance A samples item 5 at time t0.
        let offset_a = table.track(5);
        assert_eq!(offset_a, 0);
        // Three later occurrences of 5 and some noise.
        table.update(5);
        table.update(9);
        table.update(5);
        // Instance B samples item 5 now: its offset captures the 2 counted so far.
        let offset_b = table.track(5);
        assert_eq!(offset_b, 2);
        table.update(5);
        assert_eq!(table.suffix_count(5, offset_a), 3);
        assert_eq!(table.suffix_count(5, offset_b), 1);
        assert_eq!(
            table.suffix_count(9, 0),
            0,
            "untracked items have no suffix count"
        );
        assert_eq!(table.tracked(), 1);
    }

    #[test]
    fn suffix_table_matches_per_instance_counting() {
        // Shared-table reconstruction must agree with naive per-instance
        // counters for an arbitrary interleaving.
        let stream = [3u64, 3, 7, 3, 7, 7, 3, 9, 3];
        let sample_times = [(0usize, 3u64), (2, 7), (5, 7), (6, 3)];
        let mut table = SuffixCountTable::new();
        let mut offsets = Vec::new();
        let mut naive = vec![0u64; sample_times.len()];
        for (t, &item) in stream.iter().enumerate() {
            // Instances sample *at* their designated time, then the update
            // is processed (the sampled occurrence itself is not counted).
            for (k, &(st, sitem)) in sample_times.iter().enumerate() {
                if st == t {
                    assert_eq!(sitem, item);
                    offsets.push((k, sitem, table.track(sitem)));
                }
            }
            table.update(item);
            for (k, &(st, sitem)) in sample_times.iter().enumerate() {
                if t > st && sitem == item {
                    naive[k] += 1;
                }
            }
        }
        for &(k, item, offset) in &offsets {
            // The tracked count includes the sampled occurrence itself (it was
            // updated right after track), so subtract one to match Algorithm 1.
            let reconstructed = table.suffix_count(item, offset).saturating_sub(1);
            assert_eq!(reconstructed, naive[k], "instance {k}");
        }
    }
}
