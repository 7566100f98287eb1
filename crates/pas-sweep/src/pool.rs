//! Order-preserving parallel map over a work list.
//!
//! Workers claim indices from an atomic cursor and emit `(index, result)`
//! pairs; the merge step scatters them back into input order. For
//! similar-cost tasks (simulation runs) this is within noise of
//! work-stealing and has no unsafe code and no per-task allocation beyond
//! the result itself.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Sweep execution options.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepOptions {
    /// Worker thread count; 0 = one per available core.
    pub threads: usize,
}

impl SweepOptions {
    /// Resolve the effective thread count for `n_items` work items.
    pub fn effective_threads(&self, n_items: usize) -> usize {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let t = if self.threads == 0 { hw } else { self.threads };
        t.clamp(1, n_items.max(1))
    }
}

/// Apply `f` to every item in parallel, returning results in input order.
///
/// `f` must be deterministic per item for the sweep to be reproducible —
/// all PAS runs are (they derive their randomness from per-item seeds).
pub fn parallel_map<P, R, F>(items: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    parallel_map_with(items, SweepOptions::default(), f)
}

/// [`parallel_map`] with explicit options.
pub fn parallel_map_with<P, R, F>(items: &[P], opts: SweepOptions, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = opts.effective_threads(n);
    if threads == 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // Batch locally; lock once per worker, not per item.
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(&items[i])));
                }
                collected
                    .lock()
                    .expect("sweep mutex poisoned")
                    .extend(local);
            });
        }
    });

    let mut pairs = collected.into_inner().expect("sweep mutex poisoned");
    pairs.sort_unstable_by_key(|(i, _)| *i);
    debug_assert_eq!(pairs.len(), n);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let got = parallel_map(&items, |&x| x * 2);
        let want: Vec<u64> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn matches_sequential_with_uneven_costs() {
        let items: Vec<u64> = (0..200).collect();
        let work = |&x: &u64| -> u64 {
            // Deterministic but uneven spin.
            let mut acc = x;
            for _ in 0..(x % 17) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let par = parallel_map(&items, work);
        let seq: Vec<u64> = items.iter().map(work).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn single_thread_option() {
        let items: Vec<u32> = (0..50).collect();
        let got = parallel_map_with(&items, SweepOptions { threads: 1 }, |&x| x + 1);
        assert_eq!(got[49], 50);
    }

    #[test]
    fn explicit_thread_counts() {
        for threads in [2, 3, 8] {
            let items: Vec<u32> = (0..100).collect();
            let got = parallel_map_with(&items, SweepOptions { threads }, |&x| x * x);
            assert_eq!(got.len(), 100);
            assert_eq!(got[10], 100);
        }
    }

    #[test]
    fn empty_input() {
        let got: Vec<u32> = parallel_map(&Vec::<u32>::new(), |&x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn effective_threads_clamping() {
        let o = SweepOptions { threads: 64 };
        assert_eq!(o.effective_threads(4), 4, "never more threads than items");
        assert_eq!(o.effective_threads(0), 1, "at least one thread");
        let auto = SweepOptions::default();
        assert!(auto.effective_threads(1_000_000) >= 1);
    }

    #[test]
    fn actually_runs_concurrently() {
        // Smoke check: with 4 threads, 4 long tasks finish well under 4x
        // a single task's wall time. Generous bounds to stay CI-safe.
        use std::time::{Duration, Instant};
        let items = [0u32; 4];
        let start = Instant::now();
        let _ = parallel_map_with(&items, SweepOptions { threads: 4 }, |_| {
            std::thread::sleep(Duration::from_millis(100));
        });
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(350),
            "4x100ms tasks took {elapsed:?} — not parallel?"
        );
    }
}
