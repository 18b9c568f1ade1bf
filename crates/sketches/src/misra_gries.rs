//! Misra–Gries heavy hitters (Theorem 3.2 of the paper).
//!
//! The Misra–Gries summary with `k` counters processed over an
//! insertion-only stream of length `m` maintains, for every item `i`, an
//! estimate `f̂_i` with
//!
//! ```text
//! f_i − m/k  ≤  f̂_i  ≤  f_i
//! ```
//!
//! deterministically. The paper (Theorem 3.4) uses this to obtain a *certain*
//! bound `Z` with `‖f‖_∞ ≤ Z ≤ ‖f‖_∞ + m/k`, which normalises the
//! rejection-sampling step of the truly perfect `L_p` sampler for
//! `p ∈ [1, 2]` without introducing any failure probability.

use tps_streams::codec::{self, CodecError, Restore, Snapshot, SnapshotReader, SnapshotWriter};
use tps_streams::{Item, MergeableSummary, SpaceUsage};

/// One slot of the counter table; `level == 0` marks an empty slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    item: Item,
    level: u64,
}

impl Slot {
    const EMPTY: Slot = Slot { item: 0, level: 0 };
}

/// The Misra–Gries heavy-hitter summary.
///
/// The counters live in a flat open-addressing table: a power-of-two slot
/// array with linear probing, never more than half full, so every probe
/// ends at the item or at an empty slot. Each counter is stored as a
/// *level* `count + decrements`. A decrement round, which subtracts from
/// every counter at once, is then a single add to `decrements`, and a
/// counter is live while its level exceeds `decrements`. Only a round
/// on a full table touches the slots: one pass finds the smallest level,
/// and if the round zeroes counters, one more rebuilds the table from the
/// survivors.
///
/// [`MisraGries::new`] sizes the table for all `capacity` counters, so its
/// inserts and evictions never reallocate it. A restored table starts from
/// its pair count and doubles on insert, up to that same size.
#[derive(Debug, Clone)]
pub struct MisraGries {
    capacity: usize,
    /// `len ≤ slots.len() / 2` live counters, stored as levels.
    slots: Vec<Slot>,
    /// `64 − log2(slots.len())`: a slot index is the top bits of the hash.
    shift: u32,
    len: usize,
    /// Survivors of a decrement round, gathered while the table is
    /// rebuilt; grows to `len + 1` slots, never past `capacity + 1`.
    scratch: Vec<Slot>,
    processed: u64,
    /// Total amount decremented from every counter so far; the classic
    /// analysis shows `decrements ≤ m / (capacity + 1)`.
    decrements: u64,
}

/// Slots for a table holding `live` counters at load ≤ ½.
fn slots_for(live: usize) -> usize {
    live.checked_mul(2)
        .and_then(usize::checked_next_power_of_two)
        .expect("Misra-Gries table size overflows usize")
        .max(2)
}

impl MisraGries {
    /// Creates a summary with `capacity` counters.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "Misra-Gries needs at least one counter");
        Self::with_slots(capacity, slots_for(capacity))
    }

    fn with_slots(capacity: usize, slots: usize) -> Self {
        let mut mg = Self {
            capacity,
            slots: Vec::new(),
            shift: 0,
            len: 0,
            scratch: Vec::new(),
            processed: 0,
            decrements: 0,
        };
        mg.set_table(slots);
        mg
    }

    /// Replaces the table with `slots` (a power of two) empty slots.
    fn set_table(&mut self, slots: usize) {
        self.slots = vec![Slot::EMPTY; slots];
        self.shift = 64 - slots.trailing_zeros();
    }

    /// Number of counters.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of stream updates processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// The slot `item`'s probe starts at (Fibonacci hashing).
    #[inline]
    fn home(&self, item: Item) -> usize {
        (item.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The slot holding `item`, or the empty slot it would be inserted at.
    #[inline]
    fn find(&self, item: Item) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(item);
        loop {
            let slot = self.slots[i];
            if slot.level == 0 || slot.item == item {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// The live counters as `(item, count)` pairs, in slot order.
    fn counters(&self) -> impl Iterator<Item = (Item, u64)> + '_ {
        self.slots
            .iter()
            .filter(|slot| slot.level != 0)
            .map(|slot| (slot.item, slot.level - self.decrements))
    }

    /// Processes one unit insertion.
    #[inline]
    pub fn update(&mut self, item: Item) {
        self.update_run(item, 1);
    }

    /// Processes a contiguous batch of unit insertions, leaving the summary
    /// in exactly the state the per-item [`MisraGries::update`] loop would.
    ///
    /// Runs of equal adjacent items are replayed in closed form: a tracked
    /// (or insertable) item absorbs its whole run with one table touch,
    /// and a run that hits a full table performs `min(run, min-counter)`
    /// decrement rounds as a single add.
    pub fn update_batch(&mut self, items: &[Item]) {
        tps_streams::for_each_run(items, |item, count| self.update_run(item, count));
    }

    /// Processes `count` consecutive occurrences of `item` in closed form,
    /// leaving exactly the state `count` sequential [`MisraGries::update`]
    /// calls would; a zero-length run changes nothing. (Order matters
    /// across *different* items — aggregating a whole stream per item is
    /// **not** equivalent — but a contiguous run of one item replays
    /// exactly: a tracked or insertable item absorbs the run with one table
    /// touch, and a run hitting a full table funds
    /// `d = min(count, smallest counter)` decrement rounds as one add.)
    #[inline]
    pub fn update_run(&mut self, item: Item, count: u64) {
        if count == 0 {
            return;
        }
        self.processed += count;
        let i = self.find(item);
        if self.slots[i].level != 0 {
            self.slots[i].level += count;
        } else if self.len < self.capacity {
            self.insert(i, item, count);
        } else {
            // Sequentially, each copy decrements every counter until one
            // reaches zero and frees a slot; the copy *causing* the final
            // decrement is itself consumed.
            let min = self.min_count();
            let d = count.min(min);
            self.decrements += d;
            if d == min {
                self.evict_zeroed();
                if count > d {
                    let i = self.find(item);
                    self.insert(i, item, count - d);
                }
            }
        }
    }

    /// Puts a new counter for `item` into the empty slot `i` (found for
    /// `item` by [`Self::find`]), first doubling a restored table that is
    /// half full.
    fn insert(&mut self, mut i: usize, item: Item, count: u64) {
        if self.len == self.slots.len() / 2 {
            self.resize(self.slots.len() * 2);
            i = self.find(item);
        }
        self.slots[i] = Slot {
            item,
            level: self.decrements + count,
        };
        self.len += 1;
    }

    /// Rehashes the live counters into `slots` empty slots.
    fn resize(&mut self, slots: usize) {
        let old = std::mem::take(&mut self.slots);
        self.set_table(slots);
        for slot in old.into_iter().filter(|slot| slot.level != 0) {
            self.place(slot);
        }
    }

    /// The smallest live count; the table must hold a counter.
    fn min_count(&self) -> u64 {
        // An empty slot's level 0 wraps to `u64::MAX` and never wins.
        let min_level = self
            .slots
            .iter()
            .fold(u64::MAX, |min, slot| min.min(slot.level.wrapping_sub(1)))
            + 1;
        min_level - self.decrements
    }

    /// Drops every counter whose level fell to `decrements`: gathers the
    /// survivors into `scratch` (a store per slot, no branch on liveness),
    /// empties the table and re-places them.
    fn evict_zeroed(&mut self) {
        if self.scratch.len() <= self.len {
            self.scratch.resize(self.len + 1, Slot::EMPTY);
        }
        let mut survivors = 0;
        for &slot in &self.slots {
            self.scratch[survivors] = slot;
            survivors += usize::from(slot.level > self.decrements);
        }
        self.slots.fill(Slot::EMPTY);
        self.len = survivors;
        let scratch = std::mem::take(&mut self.scratch);
        for &slot in &scratch[..survivors] {
            self.place(slot);
        }
        self.scratch = scratch;
    }

    /// Stores `slot` at the end of its item's probe chain; the item must
    /// not be in the table.
    fn place(&mut self, slot: Slot) {
        let i = self.find(slot.item);
        self.slots[i] = slot;
    }

    /// Empties the table, then stores `counts` (distinct items) as levels
    /// over the current `decrements`, growing the table if they need it.
    fn refill(&mut self, counts: &[(Item, u64)]) {
        let slots = slots_for(counts.len());
        if slots > self.slots.len() {
            self.set_table(slots);
        } else {
            self.slots.fill(Slot::EMPTY);
        }
        for &(item, count) in counts {
            self.place(Slot {
                item,
                level: count + self.decrements,
            });
        }
        self.len = counts.len();
    }

    /// The deterministic *lower* estimate `f̂_i ≤ f_i` for an item
    /// (zero if the item is not tracked).
    pub fn estimate(&self, item: Item) -> u64 {
        // An empty slot's level 0 saturates to zero.
        self.slots[self.find(item)]
            .level
            .saturating_sub(self.decrements)
    }

    /// The deterministic error bound `m / (capacity + 1)` such that
    /// `f_i − error ≤ f̂_i ≤ f_i` for every item.
    pub fn error_bound(&self) -> u64 {
        self.processed / (self.capacity as u64 + 1)
    }

    /// A certain upper bound `Z` on `‖f‖_∞` with
    /// `‖f‖_∞ ≤ Z ≤ ‖f‖_∞ + m/(capacity+1)`.
    ///
    /// This is the quantity the truly perfect `L_p` sampler for `p ∈ [1, 2]`
    /// uses as its rejection normaliser (Theorem 3.4).
    pub fn max_frequency_upper_bound(&self) -> u64 {
        let best_estimate = self.counters().map(|(_, c)| c).max().unwrap_or(0);
        best_estimate + self.error_bound()
    }

    /// The tracked items and their (lower) estimates, sorted by decreasing
    /// estimate.
    pub fn heavy_hitters(&self) -> Vec<(Item, u64)> {
        let mut v: Vec<(Item, u64)> = self.counters().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

/// The Agarwal et al. *mergeable summaries* merge: counters are summed,
/// and if more than `capacity` survive, the `(capacity + 1)`-th largest
/// counter value is subtracted from every counter (each such subtraction
/// cancels one occurrence of `capacity + 1` distinct items, exactly like a
/// sequential decrement round). The merged summary keeps the full
/// deterministic guarantee over the concatenated stream:
/// `f_i − m/(capacity+1) ≤ f̂_i ≤ f_i` with `m` the combined length.
///
/// When the two summaries never decremented and their tracked sets fit in
/// `capacity` counters together (e.g. item-disjoint shards with enough
/// counters), the merged state is byte-identical to sequential ingestion of
/// the concatenated stream.
///
/// # Panics
///
/// Panics if the capacities differ.
impl MergeableSummary for MisraGries {
    fn merge(mut self, other: Self) -> Self {
        assert_eq!(
            self.capacity, other.capacity,
            "merging Misra-Gries summaries requires equal capacities"
        );
        let mut counts: Vec<(Item, u64)> = self.counters().chain(other.counters()).collect();
        counts.sort_unstable_by_key(|&(item, _)| item);
        counts.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
        self.processed += other.processed;
        self.decrements += other.decrements;
        if counts.len() > self.capacity {
            let mut values: Vec<u64> = counts.iter().map(|&(_, c)| c).collect();
            values.sort_unstable_by(|a, b| b.cmp(a));
            let cut = values[self.capacity];
            self.decrements += cut;
            counts.retain_mut(|(_, c)| {
                *c = c.saturating_sub(cut);
                *c > 0
            });
        }
        self.refill(&counts);
        self
    }
}

impl SpaceUsage for MisraGries {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.slots.capacity() + self.scratch.capacity()) * std::mem::size_of::<Slot>()
    }
}

/// Wire format: capacity, processed, decrements, then the live counters
/// sorted by item.
impl Snapshot for MisraGries {
    const TAG: u16 = codec::tag::MISRA_GRIES;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
        w.put_usize(self.capacity);
        w.put_u64(self.processed);
        w.put_u64(self.decrements);
        codec::put_sorted_u64_pairs(w, self.counters());
    }
}

impl Restore for MisraGries {
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        let capacity = r.get_usize()?;
        if capacity == 0 {
            return Err(CodecError::InvalidValue {
                what: "Misra-Gries capacity must be positive",
            });
        }
        let processed = r.get_u64()?;
        let decrements = r.get_u64()?;
        let pairs = codec::get_sorted_u64_pairs(r)?;
        if pairs.len() > capacity {
            return Err(CodecError::InvalidValue {
                what: "Misra-Gries holds more counters than its capacity",
            });
        }
        if pairs.iter().any(|&(_, c)| c == 0) {
            return Err(CodecError::InvalidValue {
                what: "Misra-Gries counters must be positive",
            });
        }
        if pairs
            .iter()
            .any(|&(_, c)| c.checked_add(decrements).is_none())
        {
            return Err(CodecError::InvalidValue {
                what: "Misra-Gries counter plus decrements overflows u64",
            });
        }
        // Size the table from the validated pair count, not the untrusted
        // `capacity` field (which is legal state but must not drive an
        // allocation); it doubles on insert if the summary later fills.
        let mut mg = Self::with_slots(capacity, slots_for(pairs.len()));
        mg.processed = processed;
        mg.decrements = decrements;
        mg.refill(&pairs);
        Ok(mg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_streams::frequency::FrequencyVector;

    fn check_invariant(stream: &[Item], capacity: usize) {
        let mut mg = MisraGries::new(capacity);
        for &x in stream {
            mg.update(x);
        }
        let truth = FrequencyVector::from_stream(stream);
        let err = mg.error_bound();
        for (item, freq) in truth.iter() {
            let est = mg.estimate(item);
            assert!(est <= freq as u64, "estimate overshoots");
            assert!(
                est + err >= freq as u64,
                "estimate undershoots beyond the bound"
            );
        }
        // The Z bound sandwiches the true maximum frequency.
        let z = mg.max_frequency_upper_bound();
        assert!(z >= truth.l_inf());
        assert!(z <= truth.l_inf() + err);
    }

    #[test]
    fn invariants_on_skewed_stream() {
        let mut stream = Vec::new();
        for i in 0..200u64 {
            for _ in 0..(200 - i) {
                stream.push(i);
            }
        }
        check_invariant(&stream, 10);
        check_invariant(&stream, 50);
    }

    #[test]
    fn invariants_on_uniform_stream() {
        let stream: Vec<Item> = (0..5_000u64).map(|i| i % 500).collect();
        check_invariant(&stream, 25);
    }

    #[test]
    fn heavy_item_is_always_tracked() {
        // An item with frequency > m/(k+1) must survive.
        let mut stream = Vec::new();
        for i in 0..1000u64 {
            stream.push(i % 100 + 1000); // noise
            stream.push(77); // heavy
        }
        let mut mg = MisraGries::new(10);
        for &x in &stream {
            mg.update(x);
        }
        assert!(mg.estimate(77) > 0, "majority-style item must be retained");
        assert!(mg.heavy_hitters().iter().any(|&(i, _)| i == 77));
    }

    #[test]
    fn empty_summary_bounds() {
        let mg = MisraGries::new(4);
        assert_eq!(mg.estimate(1), 0);
        assert_eq!(mg.error_bound(), 0);
        assert_eq!(mg.max_frequency_upper_bound(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one counter")]
    fn zero_capacity_panics() {
        let _ = MisraGries::new(0);
    }

    #[test]
    fn space_grows_with_capacity_not_stream() {
        let mut small = MisraGries::new(8);
        let mut large = MisraGries::new(1024);
        for i in 0..100_000u64 {
            small.update(i % 7777);
            large.update(i % 7777);
        }
        assert!(small.space_bytes() < large.space_bytes());
        assert!(
            small.space_bytes() < 10_000,
            "MG space must not grow with the stream"
        );
    }

    /// The hash-map summary the flat table replaced, kept as the oracle
    /// the differential test checks the flat table against.
    mod oracle {
        use tps_streams::codec::{self, seal, Snapshot as _, SnapshotWriter};
        use tps_streams::{FastHashMap, Item};

        #[derive(Clone)]
        pub struct HashMapMisraGries {
            capacity: usize,
            counters: FastHashMap<Item, u64>,
            pub processed: u64,
            pub decrements: u64,
        }

        impl HashMapMisraGries {
            pub fn new(capacity: usize) -> Self {
                Self {
                    capacity,
                    counters: FastHashMap::default(),
                    processed: 0,
                    decrements: 0,
                }
            }

            pub fn update(&mut self, item: Item) {
                self.processed += 1;
                if let Some(c) = self.counters.get_mut(&item) {
                    *c += 1;
                    return;
                }
                if self.counters.len() < self.capacity {
                    self.counters.insert(item, 1);
                    return;
                }
                self.decrements += 1;
                self.counters.retain(|_, c| {
                    *c -= 1;
                    *c > 0
                });
            }

            pub fn update_batch(&mut self, items: &[Item]) {
                tps_streams::for_each_run(items, |item, count| self.update_run(item, count));
            }

            pub fn update_run(&mut self, item: Item, count: u64) {
                let mut run = count;
                self.processed += run;
                if let Some(c) = self.counters.get_mut(&item) {
                    *c += run;
                } else if self.counters.len() < self.capacity {
                    self.counters.insert(item, run);
                } else {
                    let min = self.counters.values().copied().min().unwrap_or(0);
                    let d = run.min(min);
                    self.decrements += d;
                    self.counters.retain(|_, c| {
                        *c -= d;
                        *c > 0
                    });
                    run -= d;
                    if run > 0 {
                        self.counters.insert(item, run);
                    }
                }
            }

            pub fn merge(mut self, other: Self) -> Self {
                self.processed += other.processed;
                self.decrements += other.decrements;
                for (item, count) in other.counters {
                    *self.counters.entry(item).or_insert(0) += count;
                }
                if self.counters.len() > self.capacity {
                    let mut values: Vec<u64> = self.counters.values().copied().collect();
                    values.sort_unstable_by(|a, b| b.cmp(a));
                    let cut = values[self.capacity];
                    self.decrements += cut;
                    self.counters.retain(|_, c| {
                        *c = c.saturating_sub(cut);
                        *c > 0
                    });
                }
                self
            }

            pub fn max_frequency_upper_bound(&self) -> u64 {
                let best = self.counters.values().copied().max().unwrap_or(0);
                best + self.processed / (self.capacity as u64 + 1)
            }

            pub fn heavy_hitters(&self) -> Vec<(Item, u64)> {
                let mut v: Vec<(Item, u64)> = self.counters.iter().map(|(&i, &c)| (i, c)).collect();
                v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                v
            }

            pub fn snapshot(&self) -> Vec<u8> {
                let mut w = SnapshotWriter::new();
                w.put_tag(super::MisraGries::TAG);
                w.put_usize(self.capacity);
                w.put_u64(self.processed);
                w.put_u64(self.decrements);
                codec::put_sorted_u64_pairs(&mut w, self.counters.iter().map(|(&i, &c)| (i, c)));
                seal(super::MisraGries::TAG, &w.into_bytes())
            }
        }
    }

    use oracle::HashMapMisraGries;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// One call: kind 0 = `update` per item, 1 = `update_run` of the first
    /// item, 2 = `update_batch` (each item repeated 1–5 times); raw item
    /// words, and the run length.
    type Op = (u8, Vec<u64>, u64);

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            (
                0u8..3,
                proptest::collection::vec(any::<u64>(), 1..40),
                1u64..200,
            ),
            1..30,
        )
    }

    fn assert_same(flat: &MisraGries, oracle: &HashMapMisraGries) -> Result<(), TestCaseError> {
        prop_assert_eq!(flat.heavy_hitters(), oracle.heavy_hitters());
        prop_assert_eq!(flat.processed, oracle.processed);
        prop_assert_eq!(flat.decrements, oracle.decrements);
        prop_assert_eq!(
            flat.max_frequency_upper_bound(),
            oracle.max_frequency_upper_bound()
        );
        prop_assert_eq!(flat.snapshot(), oracle.snapshot());
        prop_assert_eq!(flat.len, flat.counters().count());
        prop_assert!(flat.len <= flat.slots.len() / 2);
        Ok(())
    }

    /// Applies `ops` to both summaries, comparing them after every call.
    fn drive(
        flat: &mut MisraGries,
        oracle: &mut HashMapMisraGries,
        ops: &[Op],
        skewed: bool,
    ) -> Result<(), TestCaseError> {
        // Skewed: geometric items (item 0 takes half the stream); uniform:
        // 300 items.
        let item = |raw: u64| {
            if skewed {
                u64::from(raw.trailing_zeros().min(40))
            } else {
                raw % 300
            }
        };
        for (kind, raws, run) in ops {
            match kind {
                0 => {
                    for &raw in raws {
                        flat.update(item(raw));
                        oracle.update(item(raw));
                    }
                }
                1 => {
                    flat.update_run(item(raws[0]), *run);
                    oracle.update_run(item(raws[0]), *run);
                }
                _ => {
                    let batch: Vec<Item> = raws
                        .iter()
                        .flat_map(|&raw| {
                            std::iter::repeat_n(item(raw), 1 + (raw >> 59) as usize % 5)
                        })
                        .collect();
                    flat.update_batch(&batch);
                    oracle.update_batch(&batch);
                }
            }
            assert_same(flat, oracle)?;
        }
        Ok(())
    }

    proptest! {
        /// The flat levelled table is indistinguishable from the hash-map
        /// summary it replaced: same counters, `processed`, `decrements`,
        /// `Z` and snapshot bytes after every update, batch and run, after
        /// a merge, and after restoring the merge and updating on.
        #[test]
        fn flat_table_matches_hash_map_oracle(
            capacity_index in 0usize..4,
            skewed in any::<bool>(),
            ops_a in ops(),
            ops_b in ops(),
        ) {
            let capacity = [1usize, 2, 8, 64][capacity_index];
            let (mut flat_a, mut oracle_a) =
                (MisraGries::new(capacity), HashMapMisraGries::new(capacity));
            let (mut flat_b, mut oracle_b) =
                (MisraGries::new(capacity), HashMapMisraGries::new(capacity));
            drive(&mut flat_a, &mut oracle_a, &ops_a, skewed)?;
            drive(&mut flat_b, &mut oracle_b, &ops_b, skewed)?;
            let mut merged = MergeableSummary::merge(flat_a, flat_b);
            let mut oracle = oracle_a.merge(oracle_b);
            assert_same(&merged, &oracle)?;
            let mut restored = MisraGries::restore(&merged.snapshot()).unwrap();
            let mut restored_oracle = oracle.clone();
            drive(&mut merged, &mut oracle, &ops_a, skewed)?;
            drive(&mut restored, &mut restored_oracle, &ops_b, skewed)?;
        }
    }
}
