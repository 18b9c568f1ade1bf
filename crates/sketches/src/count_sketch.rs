//! CountSketch (Charikar–Chen–Farach-Colton).
//!
//! An unbiased randomized frequency summary with error proportional to
//! `‖f‖_2 / √cols` per row and a median taken across rows. Used by the
//! baseline perfect-`L_p`-sampler reproduction to recover the maximising
//! coordinate of the exponentially-scaled vector (the role CountSketch /
//! CountMin play in \[JW18b\]).

use tps_random::{KWiseHash, StreamRng};
use tps_streams::codec::{self, CodecError, Restore, Snapshot, SnapshotReader, SnapshotWriter};
use tps_streams::space::vec_bytes;
use tps_streams::{Item, MergeableSummary, SpaceUsage};

/// A CountSketch over signed updates.
#[derive(Debug, Clone)]
pub struct CountSketch {
    rows: usize,
    cols: usize,
    table: Vec<i64>,
    bucket_hashes: Vec<KWiseHash>,
    sign_hashes: Vec<KWiseHash>,
}

impl CountSketch {
    /// Creates a sketch with the given number of rows and columns.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: StreamRng>(rng: &mut R, rows: usize, cols: usize) -> Self {
        assert!(
            rows > 0 && cols > 0,
            "CountSketch dimensions must be positive"
        );
        let bucket_hashes = (0..rows).map(|_| KWiseHash::new(rng, 2)).collect();
        let sign_hashes = (0..rows).map(|_| KWiseHash::new(rng, 4)).collect();
        Self {
            rows,
            cols,
            table: vec![0; rows * cols],
            bucket_hashes,
            sign_hashes,
        }
    }

    /// Processes a signed update `(item, delta)`.
    pub fn update(&mut self, item: Item, delta: i64) {
        for r in 0..self.rows {
            let c = self.bucket_hashes[r].bucket(item, self.cols);
            let s = self.sign_hashes[r].sign(item);
            self.table[r * self.cols + c] += s * delta;
        }
    }

    /// Processes a unit insertion.
    pub fn insert(&mut self, item: Item) {
        self.update(item, 1);
    }

    /// Processes a contiguous batch of unit insertions, vectorised per
    /// distinct item (the signed-counter analogue of
    /// [`CountMin::update_batch`](crate::CountMin::update_batch)): the
    /// batch is aggregated into `(item, multiplicity)` pairs and each row's
    /// hashes are evaluated once per distinct item. Counters are additive,
    /// so the final state is exactly the per-item loop's.
    pub fn insert_batch(&mut self, items: &[Item]) {
        for (item, count) in tps_streams::count_multiplicities(items) {
            self.update(item, count as i64);
        }
    }

    /// The median-of-rows point estimate of `f_i` (unbiased per row).
    pub fn estimate(&self, item: Item) -> i64 {
        let mut row_estimates: Vec<i64> = (0..self.rows)
            .map(|r| {
                let c = self.bucket_hashes[r].bucket(item, self.cols);
                let s = self.sign_hashes[r].sign(item);
                s * self.table[r * self.cols + c]
            })
            .collect();
        row_estimates.sort_unstable();
        row_estimates[self.rows / 2]
    }

    /// The raw signed counter table in row-major order — exposed so merge
    /// laws can assert byte equality.
    pub fn table(&self) -> &[i64] {
        &self.table
    }

    /// Returns the candidate from `candidates` with the largest estimated
    /// absolute frequency, if any.
    pub fn argmax(&self, candidates: &[Item]) -> Option<Item> {
        candidates
            .iter()
            .copied()
            .max_by_key(|&i| self.estimate(i).unsigned_abs())
    }
}

/// Exact merge: with identical (same-seed) hash functions the signed table
/// is a sum of per-update contributions, so cell-wise addition yields
/// **byte-for-byte** the sketch of the concatenated stream.
///
/// # Panics
///
/// Panics if the dimensions or hash functions differ.
impl MergeableSummary for CountSketch {
    fn merge(mut self, other: Self) -> Self {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "merging CountSketch sketches requires equal dimensions"
        );
        assert_eq!(
            (&self.bucket_hashes, &self.sign_hashes),
            (&other.bucket_hashes, &other.sign_hashes),
            "merging CountSketch sketches requires identical hash functions (same seed)"
        );
        for (cell, add) in self.table.iter_mut().zip(&other.table) {
            *cell += add;
        }
        self
    }
}

/// Wire format: dimensions, the signed row-major table, then the bucket
/// and sign hash functions per row.
impl Snapshot for CountSketch {
    const TAG: u16 = codec::tag::COUNT_SKETCH;

    fn encode_into(&self, w: &mut SnapshotWriter) {
        w.put_tag(Self::TAG);
        w.put_usize(self.rows);
        w.put_usize(self.cols);
        for &cell in &self.table {
            w.put_i64(cell);
        }
        for h in self.bucket_hashes.iter().chain(&self.sign_hashes) {
            h.encode_into(w);
        }
    }
}

impl Restore for CountSketch {
    fn decode_from(r: &mut SnapshotReader<'_>) -> Result<Self, CodecError> {
        r.expect_tag(Self::TAG)?;
        let rows = r.get_usize()?;
        let cols = r.get_usize()?;
        if rows == 0 || cols == 0 {
            return Err(CodecError::InvalidValue {
                what: "CountSketch dimensions must be positive",
            });
        }
        let cells = r.check_grid(rows, cols, 8)?;
        let mut table = Vec::with_capacity(cells);
        for _ in 0..cells {
            table.push(r.get_i64()?);
        }
        let mut bucket_hashes = Vec::with_capacity(rows);
        for _ in 0..rows {
            bucket_hashes.push(KWiseHash::decode_from(r)?);
        }
        let mut sign_hashes = Vec::with_capacity(rows);
        for _ in 0..rows {
            sign_hashes.push(KWiseHash::decode_from(r)?);
        }
        Ok(Self {
            rows,
            cols,
            table,
            bucket_hashes,
            sign_hashes,
        })
    }
}

impl SpaceUsage for CountSketch {
    fn space_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + vec_bytes(&self.table)
            + (self.bucket_hashes.len() + self.sign_hashes.len()) * std::mem::size_of::<KWiseHash>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tps_random::default_rng;

    #[test]
    fn estimates_heavy_item_accurately() {
        let mut rng = default_rng(1);
        let mut cs = CountSketch::new(&mut rng, 5, 256);
        for _ in 0..10_000 {
            cs.insert(13);
        }
        for i in 0..2_000u64 {
            cs.insert(1000 + i % 400);
        }
        let est = cs.estimate(13);
        assert!((est - 10_000).abs() < 500, "estimate {est}");
    }

    #[test]
    fn handles_signed_updates() {
        let mut rng = default_rng(2);
        let mut cs = CountSketch::new(&mut rng, 5, 128);
        cs.update(7, 500);
        cs.update(7, -200);
        let est = cs.estimate(7);
        assert!((est - 300).abs() < 50, "estimate {est}");
    }

    #[test]
    fn argmax_finds_dominant_coordinate() {
        let mut rng = default_rng(3);
        let mut cs = CountSketch::new(&mut rng, 7, 512);
        for i in 0..100u64 {
            for _ in 0..(i + 1) {
                cs.insert(i);
            }
        }
        for _ in 0..5_000 {
            cs.insert(999);
        }
        let candidates: Vec<Item> = (0..100).chain(std::iter::once(999)).collect();
        assert_eq!(cs.argmax(&candidates), Some(999));
    }

    #[test]
    fn unbiasedness_across_instances() {
        // Average the estimate of a light item over many independent sketches
        // sharing the same stream; the mean should approach the true value.
        let truth = 10i64;
        let mut total = 0i64;
        let instances = 200;
        for seed in 0..instances {
            let mut rng = default_rng(100 + seed);
            let mut cs = CountSketch::new(&mut rng, 1, 32);
            for _ in 0..truth {
                cs.insert(5);
            }
            for i in 0..3_000u64 {
                cs.insert(10 + i % 100);
            }
            total += cs.estimate(5);
        }
        let mean = total as f64 / instances as f64;
        assert!((mean - truth as f64).abs() < 15.0, "mean estimate {mean}");
    }

    #[test]
    fn empty_candidates_give_none() {
        let mut rng = default_rng(4);
        let cs = CountSketch::new(&mut rng, 3, 16);
        assert_eq!(cs.argmax(&[]), None);
    }
}
