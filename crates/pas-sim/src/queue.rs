//! Stable event priority queue.
//!
//! A plain priority queue is not enough for reproducible simulation: ties in
//! timestamp would pop in arbitrary order. [`EventQueue`] pairs every event
//! with a monotone sequence number so equal-time events pop FIFO — the
//! insertion order is part of the simulation's definition.
//!
//! The queue is a `BinaryHeap` ordered by one integer key per event: the
//! time's `f64` bits in the high half of a `u128` and the push sequence
//! number in the low half. Non-negative, non-NaN `f64`s order like their
//! bit patterns, so one integer comparison of keys orders `(time, seq)`.
//! The worlds it runs keep at most a few hundred events pending, where the
//! heap's O(log n) is a handful of comparisons and its one buffer is its
//! only allocation ([`EventQueue::with_capacity`] pre-sizes it).

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// The ordering key of an event at `time` pushed `seq`-th.
#[inline]
fn key(time: SimTime, seq: u64) -> u128 {
    // Adding +0.0 turns −0.0, whose bits would sort after +∞, into +0.0
    // and leaves every other time as it is.
    let bits = (time.as_secs() + 0.0).to_bits();
    (u128::from(bits) << 64) | u128::from(seq)
}

/// The time a key was built from (−0.0 reads back as +0.0).
#[inline]
fn time_of(key: u128) -> SimTime {
    SimTime::from_bits((key >> 64) as u64)
}

/// An event with its ordering key.
#[derive(Debug)]
struct Scheduled<E> {
    key: u128,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the least key on top.
        other.key.cmp(&self.key)
    }
}

/// Min-priority queue of `(SimTime, E)` with FIFO tie-breaking: pop order
/// is exactly ascending `(time, insertion seq)`.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Create an empty queue with room for `cap` pending events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// # Panics
    /// Panics if `time` is [`SimTime::NEVER`] — scheduling "never" is always
    /// a logic error and would otherwise silently leak queue memory.
    pub fn push(&mut self, time: SimTime, event: E) {
        assert!(time.is_finite(), "cannot schedule an event at NEVER");
        let key = key(time, self.next_seq);
        self.next_seq += 1;
        self.heap.push(Scheduled { key, event });
    }

    /// Timestamp of the next event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| time_of(s.key))
    }

    /// Pop the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|s| (time_of(s.key), s.event))
    }

    /// Pop the earliest event iff its timestamp is `<= horizon`.
    ///
    /// Returns `None` both when the queue is empty and when the next event
    /// is strictly after `horizon` (check [`EventQueue::is_empty`] to tell
    /// the cases apart).
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let limit = key(horizon, u64::MAX);
        let next = self.heap.peek_mut().filter(|s| s.key <= limit)?;
        let s = PeekMut::pop(next);
        Some((time_of(s.key), s.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3.0), "c");
        q.push(SimTime::from_secs(1.0), "a");
        q.push(SimTime::from_secs(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5.0);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_ties_and_times() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), "t1-first");
        q.push(SimTime::from_secs(2.0), "t2-first");
        q.push(SimTime::from_secs(1.0), "t1-second");
        q.push(SimTime::from_secs(2.0), "t2-second");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec!["t1-first", "t1-second", "t2-first", "t2-second"]
        );
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_secs(4.0), ());
        q.push(SimTime::from_secs(2.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2.0)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(2.0));
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = EventQueue::with_capacity(8);
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, 3);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "NEVER")]
    fn rejects_never() {
        let mut q = EventQueue::new();
        q.push(SimTime::NEVER, ());
    }

    // --- ordering edges -----------------------------------------------------

    #[test]
    fn sub_tick_ordering_within_one_bucket() {
        // Events a few milliseconds apart pop in exact time order, not
        // push order.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.010), "late");
        q.push(SimTime::from_secs(1.002), "early");
        q.push(SimTime::from_secs(1.005), "mid");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["early", "mid", "late"]);
    }

    #[test]
    fn far_future_goes_through_overflow() {
        // Events minutes apart, with a tie at the far end.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(0.5), "near");
        q.push(SimTime::from_secs(1000.0), "far");
        q.push(SimTime::from_secs(500.0), "mid");
        q.push(SimTime::from_secs(1000.0), "far2");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["near", "mid", "far", "far2"]);
    }

    #[test]
    fn times_up_to_f64_max_keep_their_order() {
        // A manifest may set sleep intervals of 1e30 s; such a wake lies far
        // past any horizon but must still queue and pop in order, whether it
        // is the first event pushed or joins a queue that holds others.
        let (one, huge, max) = (
            SimTime::from_secs(1.0),
            SimTime::from_secs(1e30),
            SimTime::from_secs(f64::MAX),
        );
        let mut q = EventQueue::new();
        q.push(huge, "huge");
        q.push(max, "max");
        q.push(one, "one");
        q.push(huge, "huge2");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(one, "one"), (huge, "huge"), (huge, "huge2"), (max, "max")]
        );

        let mut q = EventQueue::new();
        q.push(one, "one");
        q.push(max, "max");
        q.push(huge, "huge");
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(2.0)),
            Some((one, "one"))
        );
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(2.0)), None);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![(huge, "huge"), (max, "max")]);
    }

    #[test]
    fn signed_zeros_are_one_instant() {
        // −0.0 is a valid time; its bits would sort after +∞, so the key
        // must treat it as +0.0: both zeros pop in push order, before 1 s.
        let (neg, pos, one) = (
            SimTime::from_secs(-0.0),
            SimTime::ZERO,
            SimTime::from_secs(1.0),
        );
        let mut q = EventQueue::new();
        q.push(one, "one");
        q.push(neg, "neg");
        q.push(pos, "pos");
        q.push(neg, "neg2");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["neg", "pos", "neg2", "one"]);

        q.push(one, "one");
        q.push(pos, "pos");
        q.push(neg, "neg");
        assert_eq!(q.peek_time(), Some(pos));
        assert_eq!(q.pop_at_or_before(neg).map(|(_, e)| e), Some("pos"));
        assert_eq!(q.pop_at_or_before(neg).map(|(_, e)| e), Some("neg"));
        assert_eq!(q.pop_at_or_before(neg), None);
        assert_eq!(q.pop().map(|(_, e)| e), Some("one"));
    }

    #[test]
    fn extreme_times_pop_in_numeric_order_from_any_push_order() {
        let times = [
            f64::from_bits(1), // the smallest subnormal
            f64::MIN_POSITIVE,
            1.0,
            1.0f64.next_up(),
            1e30,
            f64::MAX,
        ]
        .map(SimTime::from_secs);
        let want: Vec<_> = times.iter().copied().zip(0..).collect();
        let mut order: Vec<usize> = (0..times.len()).collect();
        let mut permutations = 0;
        loop {
            let mut q = EventQueue::new();
            for &i in &order {
                q.push(times[i], i);
            }
            let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(popped, want, "push order {order:?}");
            permutations += 1;
            if !next_permutation(&mut order) {
                break;
            }
        }
        assert_eq!(permutations, 720);
    }

    /// Step `v` to its next lexicographic permutation; `false` after the
    /// last.
    fn next_permutation(v: &mut [usize]) -> bool {
        let Some(i) = (1..v.len()).rev().find(|&i| v[i - 1] < v[i]) else {
            return false;
        };
        let j = (i..v.len()).rev().find(|&j| v[j] > v[i - 1]).unwrap();
        v.swap(i - 1, j);
        v[i..].reverse();
        true
    }

    #[test]
    fn horizon_takes_its_instant_and_leaves_the_next_float() {
        let t = SimTime::from_secs(2.5);
        let after = SimTime::from_secs(2.5f64.next_up());
        let mut q = EventQueue::new();
        q.push(after, "after");
        q.push(t, "at");
        assert_eq!(q.pop_at_or_before(t), Some((t, "at")));
        assert_eq!(q.pop_at_or_before(t), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_at_or_before(after), Some((after, "after")));
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), "a");
        q.push(SimTime::from_secs(5.0), "b");
        q.push(SimTime::from_secs(1000.0), "c");
        // Horizon between events: only "a" comes out.
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(3.0)).map(|(_, e)| e),
            Some("a")
        );
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(3.0)), None);
        assert!(!q.is_empty(), "None from a horizon is not None from empty");
        // Horizon exactly at the event time is inclusive.
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(5.0)).map(|(_, e)| e),
            Some("b")
        );
        // Entries pushed behind an already-popped time respect it too.
        q.push(SimTime::from_secs(2.0), "late");
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(1.0)), None);
        assert_eq!(
            q.pop_at_or_before(SimTime::from_secs(2.0)).map(|(_, e)| e),
            Some("late")
        );
        assert_eq!(
            q.pop_at_or_before(SimTime::NEVER).map(|(_, e)| e),
            Some("c")
        );
        assert_eq!(q.pop_at_or_before(SimTime::NEVER), None);
        assert!(q.is_empty());
    }

    #[test]
    fn push_behind_cursor_pops_first() {
        // The public API permits scheduling before an already-popped time
        // (the Engine forbids it, the queue must not lose the event).
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5.0), "five");
        q.push(SimTime::from_secs(9.0), "nine");
        assert_eq!(q.pop().map(|(_, e)| e), Some("five"));
        q.push(SimTime::from_secs(1.0), "one");
        q.push(SimTime::from_secs(2.0), "two");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["one", "two", "nine"]);
    }

    #[test]
    fn reentrant_push_into_cursor_tick() {
        // Handler-style usage: after popping time T, push more events just
        // after T — one between pending events and one FIFO tie.
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2.0);
        q.push(t, 0);
        q.push(t + 0.001, 2);
        assert_eq!(q.pop().map(|(_, e)| e), Some(0));
        q.push(t + 0.0005, 1); // between the two
        q.push(t + 0.001, 3); // FIFO tie with event 2
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn drain_and_reuse_reanchors_window() {
        // A drained queue takes events at earlier times than it last popped.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(500.0), "a");
        assert_eq!(q.pop().map(|(_, e)| e), Some("a"));
        q.push(SimTime::from_secs(1.0), "b");
        q.push(SimTime::from_secs(0.5), "c");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(0.5)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["c", "b"]);
    }
}
