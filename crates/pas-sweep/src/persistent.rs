//! A persistent, reusable worker pool.
//!
//! [`parallel_map_with`](crate::parallel_map_with) spawns scoped threads
//! per call. A distributed worker makes one call per shard, over a long
//! stream of shards, so [`WorkerPool`] keeps its threads alive across
//! calls instead: each [`WorkerPool::map_indexed`] publishes one job,
//! every thread (plus the caller) claims indices from an atomic cursor,
//! and results are reassembled in index order — the same
//! order-preserving contract as the scoped map.
//!
//! **Why the worker keeps it.** The two look like duplicates, but a
//! scoped call costs about 1 ms more than a resident one. A probe
//! executed paper-default's 540 points with 2 threads on a 2-core Xeon
//! VM (rustc 1.95.0), split into calls of a shard's size, the two
//! variants alternating which runs first by round. Medians of three runs
//! of the probe:
//!
//! | Calls | Scoped / resident | Scoped faster in |
//! |---|---|---|
//! | 8 × 68 points (2-worker shards) | 1.077–1.106 | 3–6 of 30 rounds |
//! | 4 × 135 points (1-worker shards) | 1.037–1.050 | 8 of 30 rounds |
//! | 1 × 540 points (a local job) | 0.990–1.007 | 7–10 of 20 rounds |
//!
//! That is 0.8–1.1 ms per scoped call, paid on every shard; the
//! scheduler cuts ~4 shards per live worker, so shards shrink as the
//! fleet grows. The local executor makes one call per job, where the
//! gap measured 0.5 ms or less: under 0.5% of a cold-grid job (p50 over
//! 200 ms), so it keeps the scoped map and needs no pool of its own.
//! docs/PERFORMANCE.md has the absolute times.
//!
//! Tasks are index-driven (`Fn(usize) -> R`) and `'static`: long-lived
//! threads cannot hold borrows into a caller's stack without unsafe code,
//! so callers wrap shared inputs in an `Arc` and capture it by clone.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// One published job, type-erased so heterogeneous `map_indexed` calls can
/// share the same resident threads.
trait Job: Send + Sync {
    /// Claim and run items until the job's cursor is exhausted.
    fn run(&self);
}

/// A `map_indexed` job: cursor, task, and the scatter-gather state.
struct MapJob<R, F> {
    n: usize,
    cursor: AtomicUsize,
    task: F,
    /// `(index, result)` pairs, one `extend` per participating thread.
    results: Mutex<Vec<(usize, R)>>,
    /// Items fully completed; the caller waits for `n`.
    completed: Mutex<usize>,
    done: Condvar,
}

impl<R: Send, F: Fn(usize) -> R + Send + Sync> Job for MapJob<R, F> {
    fn run(&self) {
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            local.push((i, (self.task)(i)));
        }
        if local.is_empty() {
            return;
        }
        let produced = local.len();
        self.results.lock().expect("pool poisoned").extend(local);
        let mut completed = self.completed.lock().expect("pool poisoned");
        *completed += produced;
        if *completed == self.n {
            self.done.notify_all();
        }
    }
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signalled when a job is published or the pool shuts down.
    work: Condvar,
}

struct PoolState {
    /// Currently published job, if any (cleared by the submitting caller).
    job: Option<Arc<dyn Job>>,
    /// Bumped per published job so a resident thread never re-runs one.
    epoch: u64,
    shutdown: bool,
}

/// A pool of resident worker threads for repeated, order-preserving
/// parallel maps (see the module docs for why tasks are `'static`).
///
/// Dropping the pool shuts the threads down and joins them.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// A pool of `threads` workers (0 = one per available core). The
    /// calling thread participates in every map, so `threads = 1` runs
    /// jobs inline with no resident threads at all.
    pub fn new(threads: usize) -> WorkerPool {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            threads
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || resident_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            threads,
        }
    }

    /// The pool's concurrency (resident threads + the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Apply `task` to every index in `0..n` across the pool, returning
    /// results in index order. `task` must be deterministic per index for
    /// reproducible output (every PAS run is).
    pub fn map_indexed<R, F>(&self, n: usize, task: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(usize) -> R + Send + Sync + 'static,
    {
        if n == 0 {
            return Vec::new();
        }
        let job = Arc::new(MapJob {
            n,
            cursor: AtomicUsize::new(0),
            task,
            results: Mutex::new(Vec::with_capacity(n)),
            completed: Mutex::new(0),
            done: Condvar::new(),
        });
        {
            let mut state = self.shared.state.lock().expect("pool poisoned");
            state.job = Some(Arc::clone(&job) as Arc<dyn Job>);
            state.epoch += 1;
            self.shared.work.notify_all();
        }
        // The caller is a full participant — and with threads = 1, the
        // only one.
        job.run();
        let mut completed = job.completed.lock().expect("pool poisoned");
        while *completed < n {
            completed = job.done.wait(completed).expect("pool poisoned");
        }
        drop(completed);
        // Unpublish so late-waking threads don't pointlessly re-scan an
        // exhausted cursor (epoch tracking already prevents double runs).
        let mut state = self.shared.state.lock().expect("pool poisoned");
        state.job = None;
        drop(state);

        let mut pairs = std::mem::take(&mut *job.results.lock().expect("pool poisoned"));
        pairs.sort_unstable_by_key(|(i, _)| *i);
        debug_assert_eq!(pairs.len(), n);
        pairs.into_iter().map(|(_, r)| r).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool poisoned");
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn resident_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool poisoned");
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    if let Some(job) = &state.job {
                        seen_epoch = state.epoch;
                        break Arc::clone(job);
                    }
                    // Job already unpublished: skip this epoch entirely.
                    seen_epoch = state.epoch;
                }
                state = shared.work.wait(state).expect("pool poisoned");
            }
        };
        job.run();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        let pool = WorkerPool::new(4);
        let got = pool.map_indexed(1000, |i| i * 2);
        let want: Vec<usize> = (0..1000).map(|i| i * 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = WorkerPool::new(3);
        for round in 0..50usize {
            let got = pool.map_indexed(17, move |i| i + round);
            assert_eq!(got.len(), 17);
            assert_eq!(got[16], 16 + round);
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let got = pool.map_indexed(5, |i| i);
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_job_is_a_noop() {
        let pool = WorkerPool::new(2);
        let got: Vec<u32> = pool.map_indexed(0, |_| unreachable!("no items"));
        assert!(got.is_empty());
    }

    #[test]
    fn shared_context_via_arc() {
        let ctx = Arc::new((0..256).map(|i| i as u64).collect::<Vec<u64>>());
        let pool = WorkerPool::new(0);
        let ctx2 = Arc::clone(&ctx);
        let got = pool.map_indexed(ctx.len(), move |i| ctx2[i] * ctx2[i]);
        assert_eq!(got[9], 81);
        assert_eq!(got.len(), ctx.len());
    }

    #[test]
    fn actually_runs_concurrently() {
        use std::time::{Duration, Instant};
        let pool = WorkerPool::new(4);
        let start = Instant::now();
        pool.map_indexed(4, |_| std::thread::sleep(Duration::from_millis(100)));
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(350),
            "4x100ms tasks took {elapsed:?} — not parallel?"
        );
    }

    #[test]
    fn drop_joins_cleanly_with_no_job() {
        let pool = WorkerPool::new(8);
        drop(pool);
    }
}
