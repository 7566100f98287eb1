//! What the numbers ran on: the machine stamp, process CPU and memory
//! from `getrusage`, and a fixed single-threaded reference workload that
//! reads how fast the host is right now.

use crate::jobs;
use pas_scenario::{execute, ExecOptions};
use std::path::Path;
use std::time::{Duration, Instant};

/// The stamp printed beside every result.
pub fn stamp(cache_dir: &Path) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "nproc={} cpu=\"{cpu}\" rustc=\"{}\" profile={} cache_fs={}",
        nproc(),
        env!("PASBENCH_RUSTC"),
        env!("PASBENCH_PROFILE"),
        filesystem(cache_dir)
    )
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Filesystem type of the mount holding `dir` (longest matching mount
/// point in `/proc/self/mounts`).
fn filesystem(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, at, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
        .unwrap_or_else(|| "unknown".to_string())
}

/// Process resource usage: user + system CPU and peak resident set.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User CPU time.
    pub user: Duration,
    /// System CPU time.
    pub sys: Duration,
    /// Peak resident set size, KiB.
    pub max_rss_kib: u64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// This process's usage so far.
pub fn usage() -> Usage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, and RUSAGE_SELF is a valid `who`; the call writes
    // only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let us = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Usage {
        user: Duration::from_micros(us(&ru.utime)),
        sys: Duration::from_micros(us(&ru.stime)),
        max_rss_kib: ru.maxrss as u64,
    }
}

/// Repetitions of the reference grid per reading.
const REFERENCE_REPS: usize = 3;

/// The drift reference: median wall time (ms) of a sequential
/// `pas_scenario::execute` of the golden grid. It shares no state with
/// the service under test, so a change in it between runs is the host,
/// not the code path the workloads measure.
pub fn reference_ms() -> f64 {
    let m = jobs::manifest(jobs::GOLDEN_SEED);
    let mut ms: Vec<f64> = (0..REFERENCE_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let batch = execute(&m, ExecOptions { threads: 1 }).expect("paper-default executes");
            std::hint::black_box(batch);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}
