//! The one job every workload runs: `job_stream(universe 4096, Zipf 1.2,
//! seed)` through the L2 sampler on two hash-routed shards, in 64Ki-update
//! chunks — plus the helpers that turn a merged sampler into the
//! service's report line and keep run directories inside the checkout.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use tps_core::lp::TrulyPerfectLpSampler;
use tps_service::config::{make_l2, JobSpec, SamplerKind, ServiceBuilder, TransportKind};
use tps_service::QueryReport;
use tps_streams::codec::checksum;
use tps_streams::{SampleOutcome, Snapshot, UpdateSampler};

pub const UNIVERSE: u64 = 4096;
pub const SHARDS: usize = 2;
pub const CHUNK: usize = 64 * 1024;
/// The durable cadence the traced replay re-drives: a checkpoint barrier
/// every 8 chunks.
pub const DURABLE_CADENCE: u64 = 8;

/// What differs between two runs of the job: its seed, length and
/// checkpoint cadence.
#[derive(Debug, Clone, Copy)]
pub struct JobShape {
    pub seed: u64,
    pub count: usize,
    pub checkpoint_every: u64,
}

impl JobShape {
    pub fn chunks(&self) -> u64 {
        self.count.div_ceil(CHUNK) as u64
    }

    /// A cadence past the chunk count: the only durable write is the
    /// coordinator's zero-cut manifest.
    pub fn without_checkpoints(seed: u64, count: usize) -> Self {
        let shape = Self {
            seed,
            count,
            checkpoint_every: 1,
        };
        Self {
            checkpoint_every: shape.chunks() + 1,
            ..shape
        }
    }

    /// What every answer at chunk cut `cut` must report as `processed`.
    pub fn processed_at(&self, cut: u64) -> u64 {
        (cut * CHUNK as u64).min(self.count as u64)
    }

    pub fn spec(&self, dir: &Path, worker_exe: &Path) -> Result<JobSpec, String> {
        ServiceBuilder::new(SamplerKind::L2, SHARDS)
            .universe(UNIVERSE)
            .seed(self.seed)
            .count(self.count)
            .chunk(CHUNK)
            .checkpoint_every(self.checkpoint_every)
            .checkpoint_dir(dir)
            .transport(TransportKind::Tcp {
                endpoints: Vec::new(),
            })
            .worker_exe(worker_exe)
            .build()
    }
}

/// Shard `shard`'s sampler, exactly as a worker builds it.
pub fn shard_sampler(seed: u64, shard: usize) -> TrulyPerfectLpSampler {
    make_l2(UNIVERSE, seed, shard)
}

fn describe(outcome: SampleOutcome) -> String {
    match outcome {
        SampleOutcome::Index(i) => format!("index:{i}"),
        SampleOutcome::Empty => "empty".to_string(),
        SampleOutcome::Fail => "fail".to_string(),
    }
}

/// The report line the service prints for a merged sampler: checksum of
/// its sealed snapshot, then one draw.
pub fn report_line(processed: u64, mut merged: TrulyPerfectLpSampler) -> String {
    let merged_fnv = checksum(&merged.snapshot());
    QueryReport {
        processed,
        merged_fnv,
        sample: describe(UpdateSampler::draw(&mut merged)),
    }
    .to_string()
}

/// A fresh, empty directory `name` under `root`. Refuses a path that
/// already exists: the coordinator refuses an existing chain, and a
/// leftover would mean an earlier run did not clean up.
pub fn fresh_dir(root: &Path, name: &str) -> io::Result<PathBuf> {
    let dir = root.join(name);
    if dir.exists() {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!("{} already exists", dir.display()),
        ));
    }
    Ok(dir)
}

/// Removes `dir` if present.
pub fn remove_dir(dir: &Path) -> io::Result<()> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// The filesystem type and mount point holding `path`, from
/// `/proc/self/mountinfo` (longest matching mount point wins).
pub fn filesystem_of(path: &Path) -> io::Result<(String, PathBuf)> {
    let path = path.canonicalize()?;
    let mountinfo = fs::read_to_string("/proc/self/mountinfo")?;
    mountinfo
        .lines()
        .filter_map(|line| {
            let (left, right) = line.split_once(" - ")?;
            let mount_point = PathBuf::from(left.split_whitespace().nth(4)?);
            let fs_type = right.split_whitespace().next()?.to_string();
            path.starts_with(&mount_point)
                .then_some((fs_type, mount_point))
        })
        .max_by_key(|(_, mount_point)| mount_point.as_os_str().len())
        .ok_or_else(|| io::Error::other(format!("no mount holds {}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_count_chunks_and_cuts() {
        let shape = JobShape::without_checkpoints(1, 3 * CHUNK + 5);
        assert_eq!(shape.chunks(), 4);
        assert_eq!(shape.checkpoint_every, 5);
        assert_eq!(shape.processed_at(0), 0);
        assert_eq!(shape.processed_at(3), 3 * CHUNK as u64);
        assert_eq!(shape.processed_at(4), shape.count as u64);
    }

    #[test]
    fn the_root_is_a_mount_point() {
        let (fs_type, mount_point) = filesystem_of(Path::new("/")).unwrap();
        assert_eq!(mount_point, PathBuf::from("/"));
        assert!(!fs_type.is_empty());
    }
}
