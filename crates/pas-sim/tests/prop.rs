//! Property-based tests for the DES kernel and PRNG.

use pas_sim::{Engine, EventQueue, Rng, SimTime};
use proptest::prelude::*;

/// The order the queue must keep, by definition: `model` holds the pending
/// `(time, id)` pairs, where ids count pushes (an id is its push's sequence
/// number), and the least pair pops first.
fn pop_least(model: &mut Vec<(SimTime, u32)>) -> Option<(SimTime, u32)> {
    let least = (0..model.len()).min_by_key(|&i| model[i])?;
    Some(model.remove(least))
}

/// Valid times at the edges of the `f64` range: both zeros, the smallest
/// subnormal and normal, 1 and the next float up, and two far-future times.
const EDGE_TIMES: [f64; 8] = [
    0.0,
    -0.0,
    f64::from_bits(1),
    f64::MIN_POSITIVE,
    1.0,
    f64::from_bits(0x3FF0_0000_0000_0001), // the float after 1.0
    1e30,
    f64::MAX,
];

/// Check the queue's `len()` and `peek_time()` against the model.
fn check_view(q: &EventQueue<u32>, model: &[(SimTime, u32)]) {
    prop_assert_eq!(q.len(), model.len());
    prop_assert_eq!(q.peek_time(), model.iter().min().map(|&(t, _)| t));
}

/// Pop the queue and the model until both are empty, checking each pop
/// and the view after it.
fn drain(q: &mut EventQueue<u32>, model: &mut Vec<(SimTime, u32)>) {
    loop {
        let (a, b) = (q.pop(), pop_least(model));
        prop_assert_eq!(a, b);
        check_view(q, model);
        if a.is_none() {
            return;
        }
    }
}

/// The time one generated queue op pushes at, or `None` for a pop.
fn op_time(kind: u8, coarse: u16, fine: u8) -> Option<SimTime> {
    let secs = match kind {
        // Tie-prone clustered time (quarter-second grid).
        0 => (coarse % 64) as f64 * 0.25,
        // Sub-quarter-second offsets.
        1 => (coarse % 64) as f64 * 0.25 + fine as f64 * 1.9e-3,
        // Far ahead.
        2 => 20.0 + coarse as f64 * 0.5,
        3 => EDGE_TIMES[fine as usize % EDGE_TIMES.len()],
        _ => return None,
    };
    Some(SimTime::from_secs(secs))
}

proptest! {
    // --- event queue ---------------------------------------------------------

    /// The queue pops in exactly the model's order on arbitrary interleaved
    /// push/pop streams, with heap and lane pushes mixed. Ops are drawn so
    /// times cluster (heavy equal-time FIFO ties, also across the heap and
    /// the lane), sit milliseconds apart against push order, jump far
    /// ahead, land behind times already popped, and hit the edges of the
    /// `f64` range ([`EDGE_TIMES`]). `len()` and `peek_time()` match the
    /// model after every op, including while the heap's top is spent.
    #[test]
    fn queue_matches_model_on_arbitrary_streams(
        ops in prop::collection::vec((0u8..5, any::<bool>(), 0u16..2048, 0u8..8), 0..400),
    ) {
        let mut q = EventQueue::new();
        let mut model = Vec::new();
        let mut id = 0u32;
        for (kind, soon, coarse, fine) in ops {
            match op_time(kind, coarse, fine) {
                Some(t) => {
                    if soon {
                        q.push_soon(t, id);
                    } else {
                        q.push(t, id);
                    }
                    model.push((t, id));
                    id += 1;
                }
                None => prop_assert_eq!(q.pop(), pop_least(&mut model)),
            }
            check_view(&q, &model);
        }
        drain(&mut q, &mut model);
    }

    /// Handler-style re-entrancy (the Engine's dominant pattern): every pop
    /// is followed by zero, one or several heap pushes at and just after
    /// the popped time (follow-up timers) and lane pushes a fraction of a
    /// millisecond to a few milliseconds after it, or at it (deliveries
    /// scheduled from inside a dispatch), in either order.
    #[test]
    fn queue_matches_model_under_reentrant_pushes(
        seeds in prop::collection::vec((0u16..256, 0u8..4, 0u8..5, any::<bool>()), 1..120),
    ) {
        let mut q = EventQueue::new();
        let mut model = Vec::new();
        let mut id = 0u32;
        for &(coarse, ..) in seeds.iter().take(20) {
            let t = SimTime::from_secs(coarse as f64 * 0.125);
            q.push(t, id);
            model.push((t, id));
            id += 1;
        }
        for &(coarse, heap_pushes, lane_pushes, lane_first) in &seeds {
            let (a, b) = (q.pop(), pop_least(&mut model));
            prop_assert_eq!(a, b);
            check_view(&q, &model);
            let Some((t, _)) = a else { break };
            for round in 0..2 {
                if (round == 0) == lane_first {
                    for k in 0..lane_pushes {
                        // Jittered deliveries: at the instant itself, then
                        // scattered over the next ~4 ms against push order.
                        let step = (coarse as u32 * 7 + k as u32 * 13) % 40;
                        let jitter = if k == 0 { 0.0 } else { step as f64 * 1.0e-4 };
                        q.push_soon(t + jitter, id);
                        model.push((t + jitter, id));
                        id += 1;
                        check_view(&q, &model);
                    }
                } else {
                    for k in 0..heap_pushes {
                        // The same instant (FIFO tie), then 6 ms steps after it.
                        let t2 = t + k as f64 * 6.0e-3;
                        q.push(t2, id);
                        model.push((t2, id));
                        id += 1;
                        check_view(&q, &model);
                    }
                }
            }
        }
        drain(&mut q, &mut model);
    }

    #[test]
    fn queue_pops_in_nondecreasing_time(times in prop::collection::vec(0.0..1.0e6f64, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    #[test]
    fn equal_times_pop_fifo(n in 1usize..100, t in 0.0..100.0f64) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(SimTime::from_secs(t), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn engine_dispatches_everything_once(delays in prop::collection::vec(0.0..1.0e3f64, 0..100)) {
        let mut eng: Engine<usize> = Engine::new();
        for (i, &d) in delays.iter().enumerate() {
            eng.schedule_in(d, i);
        }
        let mut seen = vec![false; delays.len()];
        eng.run(|_, i| {
            assert!(!seen[i], "event {i} dispatched twice");
            seen[i] = true;
        });
        prop_assert!(seen.iter().all(|&s| s));
        prop_assert_eq!(eng.processed(), delays.len() as u64);
    }

    #[test]
    fn horizon_never_overrun(delays in prop::collection::vec(0.0..100.0f64, 1..50), horizon in 0.0..100.0f64) {
        let mut eng: Engine<usize> = Engine::new();
        for (i, &d) in delays.iter().enumerate() {
            eng.schedule_in(d, i);
        }
        let h = SimTime::from_secs(horizon);
        eng.run_until(h, |e, _| {
            assert!(e.now() <= h, "dispatched past the horizon");
        });
        prop_assert!(eng.now() <= h);
    }

    // --- sim time --------------------------------------------------------------

    #[test]
    fn simtime_order_matches_f64(a in 0.0..1.0e9f64, b in 0.0..1.0e9f64) {
        let (ta, tb) = (SimTime::from_secs(a), SimTime::from_secs(b));
        prop_assert_eq!(ta < tb, a < b);
        prop_assert_eq!(ta == tb, a == b);
        prop_assert!(ta < SimTime::NEVER);
    }

    #[test]
    fn simtime_add_then_since_roundtrips(base in 0.0..1.0e6f64, d in 0.0..1.0e6f64) {
        let t = SimTime::from_secs(base);
        let u = t + d;
        prop_assert!((u.since(t) - d).abs() < 1e-6 * (1.0 + d));
    }

    // --- rng ----------------------------------------------------------------------

    #[test]
    fn rng_streams_reproducible(seed in any::<u64>()) {
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_f64_always_in_unit(seed in any::<u64>()) {
        let mut r = Rng::new(seed);
        for _ in 0..256 {
            let x = r.next_f64();
            prop_assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_in_range(seed in any::<u64>(), n in 1u64..1_000_000) {
        let mut r = Rng::new(seed);
        for _ in 0..64 {
            prop_assert!(r.next_below(n) < n);
        }
    }

    #[test]
    fn range_f64_respects_bounds(seed in any::<u64>(), lo in -1.0e3..1.0e3f64, width in 0.0..1.0e3f64) {
        let mut r = Rng::new(seed);
        let hi = lo + width;
        for _ in 0..64 {
            let x = r.range_f64(lo, hi);
            prop_assert!(x >= lo && (x < hi || width == 0.0));
        }
    }

    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), n in 0usize..64) {
        let mut r = Rng::new(seed);
        let mut v: Vec<usize> = (0..n).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn substreams_differ_from_parent(seed in any::<u64>(), label in 1u64..1000) {
        let mut parent = Rng::new(seed);
        let mut sub = Rng::substream(seed, label);
        // Not a proof of independence, but catches accidental identity.
        let same = (0..32).filter(|_| parent.next_u64() == sub.next_u64()).count();
        prop_assert!(same < 4);
    }
}
