//! Stable event priority queue.
//!
//! A plain priority queue is not enough for reproducible simulation: ties in
//! timestamp would pop in arbitrary order. [`EventQueue`] pairs every event
//! with a monotone sequence number so equal-time events pop FIFO — the
//! insertion order is part of the simulation's definition.
//!
//! Every event carries one integer key: the time's `f64` bits in the high
//! half of a `u128` and the push sequence number in the low half.
//! Non-negative, non-NaN `f64`s order like their bit patterns, so one
//! integer comparison of keys orders `(time, seq)`. An event waits in one
//! of two places:
//!
//! * a `BinaryHeap` on the key, for events of any time
//!   ([`EventQueue::push`]);
//! * the *lane*, a short run of events sorted by key
//!   ([`EventQueue::push_soon`]), for events due soon and mostly in push
//!   order: the runner's frame deliveries, each due one airtime plus at
//!   most a few milliseconds of jitter after its send. A push scans the
//!   lane from its back, where such an event almost always belongs, so it
//!   costs neither the heap's sift-up nor, at its pop, the heap's sift to
//!   the bottom.
//!
//! A pop takes whichever front has the smaller key, so the pop order is
//! exactly `(time, seq)` whichever place each event was pushed to.
//!
//! **The spent slot.** A pop from the heap hands out the top event but
//! leaves its slot in the heap, marked spent. About half of the runner's
//! event handlers push a follow-up timer; the first heap push after a pop
//! overwrites the spent slot and sifts it down once, where a plain heap
//! would sift the vacated top to the bottom and then sift the push up.
//! Only a pop with no heap push before it removes the spent slot first.
//! The top's event sits in a `Cell` so that a pop can take it out through
//! a shared `peek`, which sifts nothing; that makes the queue `!Sync`,
//! which a single-threaded run never needs.
//!
//! The worlds the queue runs keep at most a few hundred events pending,
//! where the heap's O(log n) is a handful of comparisons. The heap's buffer
//! and the lane's ring are its only allocations
//! ([`EventQueue::with_capacity`] pre-sizes both).

use crate::time::SimTime;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

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

/// Stands for an empty heap or lane when their fronts are compared: it is
/// greater than every key, whose high half holds finite time bits.
const EMPTY: u128 = u128::MAX;

/// A heap entry: an event with its ordering key. `event` is `None` only in
/// the spent slot.
struct Scheduled<E> {
    key: u128,
    event: Cell<Option<E>>,
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
/// is exactly ascending `(time, insertion seq)`, over heap and lane pushes
/// alike.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// The heap's top is spent: popped, its event handed out.
    spent: bool,
    /// Events pushed with [`EventQueue::push_soon`], ascending key.
    lane: VecDeque<(u128, E)>,
    next_seq: u64,
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("in_lane", &self.lane.len())
            .field("next", &self.peek_time())
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// Create an empty queue with room for `heap` events in the heap and
    /// `lane` in the lane.
    pub fn with_capacity(heap: usize, lane: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(heap),
            spent: false,
            lane: VecDeque::with_capacity(lane),
            next_seq: 0,
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() - usize::from(self.spent) + self.lane.len()
    }

    /// `true` if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The key of the next push, at `time`.
    ///
    /// # Panics
    /// Panics if `time` is [`SimTime::NEVER`] — scheduling "never" is always
    /// a logic error and would otherwise silently leak queue memory.
    #[inline]
    fn next_key(&mut self, time: SimTime) -> u128 {
        assert!(time.is_finite(), "cannot schedule an event at NEVER");
        let key = key(time, self.next_seq);
        self.next_seq += 1;
        key
    }

    /// Schedule `event` at absolute time `time`, in the heap.
    ///
    /// # Panics
    /// Panics if `time` is [`SimTime::NEVER`].
    pub fn push(&mut self, time: SimTime, event: E) {
        let entry = Scheduled {
            key: self.next_key(time),
            event: Cell::new(Some(event)),
        };
        if self.spent {
            self.spent = false;
            // Overwrite the spent top; `PeekMut` sifts it down on drop.
            *self.heap.peek_mut().expect("a spent top") = entry;
        } else {
            self.heap.push(entry);
        }
    }

    /// Schedule `event` at absolute time `time`, in the lane. Any time keeps
    /// the pop order exact; the push is cheap when `time` is no earlier
    /// than most of the lane, since it scans from the lane's back.
    ///
    /// # Panics
    /// Panics if `time` is [`SimTime::NEVER`].
    pub fn push_soon(&mut self, time: SimTime, event: E) {
        let key = self.next_key(time);
        let mut at = self.lane.len();
        while at > 0 && self.lane[at - 1].0 > key {
            at -= 1;
        }
        self.lane.insert(at, (key, event));
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap = if self.spent {
            // A spent top's children hold the heap's least live key.
            let children = self.heap.as_slice().iter().skip(1).take(2);
            children.map(|s| s.key).min().unwrap_or(EMPTY)
        } else {
            self.heap.peek().map_or(EMPTY, |s| s.key)
        };
        let lane = self.lane.front().map_or(EMPTY, |&(k, _)| k);
        let next = heap.min(lane);
        (next != EMPTY).then(|| time_of(next))
    }

    /// Pop the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_at_or_before(SimTime::NEVER)
    }

    /// Pop the earliest event iff its timestamp is `<= horizon`.
    ///
    /// Returns `None` both when the queue is empty and when the next event
    /// is strictly after `horizon` (check [`EventQueue::is_empty`] to tell
    /// the cases apart).
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        if self.spent {
            self.spent = false;
            self.heap.pop();
        }
        let limit = key(horizon, u64::MAX);
        let top = self.heap.peek();
        let heap = top.map_or(EMPTY, |s| s.key);
        let lane = self.lane.front().map_or(EMPTY, |&(k, _)| k);
        if heap < lane {
            if heap > limit {
                return None;
            }
            let event = top.and_then(|s| s.event.take()).expect("a live top");
            self.spent = true;
            Some((time_of(heap), event))
        } else {
            if lane > limit {
                return None;
            }
            self.lane.pop_front().map(|(k, e)| (time_of(k), e))
        }
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
        let mut q = EventQueue::with_capacity(8, 8);
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

    // --- lane and spent slot ------------------------------------------------

    #[test]
    fn lane_and_heap_ties_pop_in_push_order() {
        // Events at one instant pop in push order whichever place took
        // them, also while the heap's top is spent.
        let t = SimTime::from_secs(3.0);
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1.0), "first");
        q.push(t, "heap-a");
        q.push_soon(t, "lane-b");
        q.push(t, "heap-c");
        q.push_soon(t, "lane-d");
        q.push_soon(t, "lane-e");
        assert_eq!(q.pop().map(|(_, e)| e), Some("first")); // spent now
        q.push_soon(t, "lane-f");
        q.push(t, "heap-g"); // fills the spent slot
        q.push(t, "heap-h");
        assert_eq!(q.len(), 8);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec!["heap-a", "lane-b", "heap-c", "lane-d", "lane-e", "lane-f", "heap-g", "heap-h"]
        );
    }

    #[test]
    fn lane_sorts_pushes_that_arrive_out_of_order() {
        let mut q = EventQueue::new();
        for (t, e) in [(2.0, "c"), (1.0, "a"), (3.0, "d"), (1.5, "b"), (1.0, "a2")] {
            q.push_soon(SimTime::from_secs(t), e);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "a2", "b", "c", "d"]);
    }

    #[test]
    fn horizon_holds_on_both_fronts() {
        let (at, after) = (
            SimTime::from_secs(2.0),
            SimTime::from_secs(2.0f64.next_up()),
        );
        let mut q = EventQueue::new();
        // The lane's front lies past the horizon, the heap's on it.
        q.push_soon(after, "lane-after");
        q.push(at, "heap-at");
        assert_eq!(q.pop_at_or_before(at), Some((at, "heap-at")));
        assert_eq!(q.pop_at_or_before(at), None);
        assert_eq!((q.len(), q.peek_time()), (1, Some(after)));
        // The heap's front lies past the horizon, the lane's on it; the
        // heap's top is spent by the pop before.
        q.push(after, "heap-after");
        q.push_soon(at, "lane-at");
        assert_eq!(q.pop_at_or_before(at), Some((at, "lane-at")));
        assert_eq!(q.pop_at_or_before(at), None);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_at_or_before(after), Some((after, "lane-after")));
        assert_eq!(q.pop_at_or_before(after), Some((after, "heap-after")));
        assert_eq!(q.pop_at_or_before(SimTime::NEVER), None);
        assert!(q.is_empty());
    }

    #[test]
    fn spent_slot_is_neither_counted_nor_peeked() {
        let t = SimTime::from_secs;
        let mut q = EventQueue::with_capacity(4, 4);
        q.push(t(1.0), 1);
        q.push(t(5.0), 5);
        q.push(t(3.0), 3);
        assert_eq!(q.pop(), Some((t(1.0), 1)));
        // The top is spent: it counts as gone, and the next time is the
        // least of its children.
        assert_eq!((q.len(), q.peek_time()), (2, Some(t(3.0))));
        q.push_soon(t(2.0), 2); // the lane leaves the spent slot alone
        assert_eq!((q.len(), q.peek_time()), (3, Some(t(2.0))));
        q.push(t(4.0), 4); // fills the spent slot
        assert_eq!((q.len(), q.peek_time()), (4, Some(t(2.0))));
        assert_eq!(q.pop(), Some((t(2.0), 2)));
        assert_eq!(q.pop(), Some((t(3.0), 3)));
        // A pop with no push before it removes the spent slot first.
        assert_eq!(q.pop(), Some((t(4.0), 4)));
        assert_eq!((q.len(), q.peek_time()), (1, Some(t(5.0))));
        assert_eq!(q.pop(), Some((t(5.0), 5)));
        assert_eq!((q.len(), q.peek_time()), (0, None));
        assert_eq!(q.pop(), None);
        q.push(t(6.0), 6);
        assert_eq!((q.len(), q.peek_time()), (1, Some(t(6.0))));
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
