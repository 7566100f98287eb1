//! The job sequence: every job is the built-in `paper-default` manifest
//! (540 runs) with `[run] base_seed` derived from the workload seed.
//!
//! Cache keys hash every replicate seed `base_seed + k` (k < 20) and
//! nothing else that differs between jobs, so two jobs share a key exactly
//! when their seed ranges overlap. Each run therefore owns one disjoint
//! block of seeds, and within it the warm pool, the warm-up jobs and the
//! measured jobs sit in disjoint sub-ranges at a stride of 20. The golden
//! job (base seed 20070910) lies below every block.

use pas_scenario::{registry, Manifest};

/// The workloads: `BENCHMARK.json` drives `cold-grid` and `dist-grid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh seeds, local execution: every point simulates.
    Cold,
    /// Seeds from a pool simulated in set-up: every point is a cache hit.
    Warm,
    /// Fresh seeds, executed by an in-process `pas-dist` worker fleet.
    Dist,
}

impl Workload {
    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold-grid" => Some(Workload::Cold),
            "warm-grid" => Some(Workload::Warm),
            "dist-grid" => Some(Workload::Dist),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Cold => "cold-grid",
            Workload::Warm => "warm-grid",
            Workload::Dist => "dist-grid",
        }
    }

    /// Whether every measured point is a cache hit (else every one misses).
    pub fn warm(self) -> bool {
        self == Workload::Warm
    }

    fn tag(self) -> u64 {
        match self {
            Workload::Cold => 0xC01D,
            Workload::Warm => 0x3A53,
            Workload::Dist => 0xD157,
        }
    }
}

/// Base seed of the unmodified `paper-default`, whose CSV is the golden.
pub const GOLDEN_SEED: u64 = 20070910;

/// Replicates per job: the seed stride between jobs.
pub const STRIDE: u64 = 20;

/// Grids in the warm pool.
pub const POOL: u64 = 4;

/// Warm-up jobs run in set-up before the measured window.
pub const WARMUP: u64 = 2;

/// Lowest seed of any run's block; everything below it (the golden) is
/// shared by no block.
const BLOCK_FLOOR: u64 = 1 << 32;
/// Seeds per run block.
const BLOCK: u64 = 1 << 26;
/// Offsets of the sub-ranges inside a block.
const WARMUP_AT: u64 = 1 << 16;
const MEASURED_AT: u64 = 1 << 20;

/// Measured jobs one block can hold before seeds would leave it.
pub const MAX_JOBS: u64 = (BLOCK - MEASURED_AT) / STRIDE;

/// SplitMix64: a seeded, platform-independent stream step.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded job sequence of one run.
#[derive(Debug, Clone, Copy)]
pub struct Jobs {
    workload: Workload,
    seed: u64,
    block: u64,
}

impl Jobs {
    /// The sequence for `workload` under workload seed `seed`.
    pub fn new(workload: Workload, seed: u64) -> Jobs {
        // 2^20 blocks of 2^26 seeds above 2^32 stay below 2^47, far from
        // the TOML integer limit.
        let slot = mix(seed ^ (workload.tag() << 48)) % (1 << 20);
        Jobs {
            workload,
            seed,
            block: BLOCK_FLOOR + slot * BLOCK,
        }
    }

    /// Base seed of warm-pool grid `j`.
    pub fn pool_seed(&self, j: u64) -> u64 {
        assert!(j < POOL);
        self.block + j * STRIDE
    }

    /// Base seed of set-up warm-up job `w`.
    pub fn warmup_seed(&self, w: u64) -> u64 {
        match self.workload {
            Workload::Warm => self.pool_seed(w % POOL),
            _ => self.block + WARMUP_AT + w * STRIDE,
        }
    }

    /// Base seed of measured job `i`: a fresh block of 20 seeds for the
    /// cold workloads, a seeded draw from the pool for `warm-grid`.
    pub fn seed_of(&self, i: u64) -> u64 {
        assert!(i < MAX_JOBS, "job {i} would leave the run's seed block");
        match self.workload {
            Workload::Warm => self.pool_seed(mix(self.seed ^ mix(i)) % POOL),
            _ => self.block + MEASURED_AT + i * STRIDE,
        }
    }
}

/// `paper-default` with `[run] base_seed` replaced.
pub fn manifest(base_seed: u64) -> Manifest {
    let mut m = registry::builtin("paper-default").expect("paper-default is built in");
    m.run.base_seed = base_seed;
    m
}

/// The TOML the harness submits for `base_seed`.
pub fn toml(base_seed: u64) -> String {
    manifest(base_seed).to_toml()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_scenario::expand;
    use pas_server::ResultCache;
    use std::collections::HashSet;

    const ALL: [Workload; 3] = [Workload::Cold, Workload::Warm, Workload::Dist];

    #[test]
    fn sequence_is_a_pure_function_of_the_seed() {
        for w in ALL {
            let a = Jobs::new(w, 7);
            let b = Jobs::new(w, 7);
            let seq = |j: &Jobs| (0..200).map(|i| j.seed_of(i)).collect::<Vec<_>>();
            assert_eq!(seq(&a), seq(&b));
            assert_eq!(toml(a.seed_of(3)), toml(b.seed_of(3)));
            assert_ne!(seq(&a), seq(&Jobs::new(w, 8)), "{}", w.name());
        }
        assert_eq!(
            toml(GOLDEN_SEED),
            registry::builtin("paper-default").unwrap().to_toml(),
            "the golden job is the unmodified built-in"
        );
    }

    #[test]
    fn warm_jobs_only_draw_from_the_pool() {
        let jobs = Jobs::new(Workload::Warm, 11);
        let pool: HashSet<u64> = (0..POOL).map(|j| jobs.pool_seed(j)).collect();
        let drawn: HashSet<u64> = (0..400).map(|i| jobs.seed_of(i)).collect();
        assert_eq!(drawn, pool, "every pool grid is used and nothing else");
    }

    /// Every cache key of a job's 540 points.
    fn keys(base_seed: u64) -> Vec<String> {
        let m = manifest(base_seed);
        expand(&m)
            .unwrap()
            .iter()
            .map(|pt| ResultCache::key(&m, pt))
            .collect()
    }

    #[test]
    fn cold_seeds_never_share_a_cache_key() {
        for w in [Workload::Cold, Workload::Dist] {
            let jobs = Jobs::new(w, 42);
            // The warm pool of the same seed, and the golden job, must be
            // as disjoint from the measured jobs as those are from each
            // other.
            let warm = Jobs::new(Workload::Warm, 42);
            let mut bases: Vec<u64> = (0..12).map(|i| jobs.seed_of(i)).collect();
            bases.extend((0..WARMUP).map(|i| jobs.warmup_seed(i)));
            bases.extend((0..POOL).map(|j| warm.pool_seed(j)));
            bases.push(GOLDEN_SEED);
            bases.push(jobs.seed_of(MAX_JOBS - 1));
            let mut seen = HashSet::new();
            for base in bases {
                for key in keys(base) {
                    assert!(
                        seen.insert(key),
                        "{} base seed {base} reuses a key",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn seed_blocks_are_disjoint_by_construction() {
        for w in ALL {
            let jobs = Jobs::new(w, 99);
            let pool_end = jobs.pool_seed(POOL - 1) + STRIDE;
            let warm_end = jobs.block + WARMUP_AT + WARMUP * STRIDE;
            assert!(pool_end <= jobs.block + WARMUP_AT);
            assert!(warm_end <= jobs.block + MEASURED_AT);
            assert!(jobs.block > GOLDEN_SEED + STRIDE);
            let last = jobs.block + MEASURED_AT + (MAX_JOBS - 1) * STRIDE + STRIDE;
            assert!(last <= jobs.block + BLOCK);
            assert!(last < i64::MAX as u64, "base seeds must stay TOML integers");
        }
    }
}
