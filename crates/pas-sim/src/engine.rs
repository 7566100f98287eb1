//! The simulation engine: pop, advance the clock, dispatch.
//!
//! [`Engine`] owns the clock and the event queue. The handler closure gets
//! `&mut Engine` back so it can schedule follow-up events — the standard
//! inversion that keeps the hot loop monomorphic (no boxed callbacks).

use crate::queue::EventQueue;
use crate::time::SimTime;

/// Why a run loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained completely.
    QueueEmpty,
    /// The time horizon was reached (next event is strictly after it).
    HorizonReached,
}

/// A discrete-event simulation engine over event type `E`.
#[derive(Debug)]
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    processed: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Create an engine with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    /// Create an engine with room for `heap` pending events in its queue's
    /// heap and `lane` in its lane (see [`Engine::schedule_soon`]).
    pub fn with_capacity(heap: usize, lane: usize) -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(heap, lane),
            processed: 0,
        }
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    #[inline]
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    #[inline]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `event` at the absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past (before [`Engine::now`]) — causality
    /// violations are logic errors we refuse to mask.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.check_not_past(at);
        self.queue.push(at, event);
    }

    /// [`Engine::schedule_at`] for an event due shortly after now, such as
    /// a frame's delivery: it waits in the queue's sorted lane instead of
    /// its heap (see [`EventQueue::push_soon`]). The dispatch order is the
    /// same either way.
    ///
    /// # Panics
    /// Panics if `at` is in the past.
    pub fn schedule_soon(&mut self, at: SimTime, event: E) {
        self.check_not_past(at);
        self.queue.push_soon(at, event);
    }

    #[inline]
    fn check_not_past(&self, at: SimTime) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
    }

    /// Schedule `event` after a non-negative delay in seconds.
    pub fn schedule_in(&mut self, delay_secs: f64, event: E) {
        assert!(
            delay_secs >= 0.0 && !delay_secs.is_nan(),
            "delay must be non-negative, got {delay_secs}"
        );
        self.queue.push(self.now + delay_secs, event);
    }

    /// Run until the queue is empty, dispatching every event to `handler`.
    pub fn run<F>(&mut self, handler: F) -> StopReason
    where
        F: FnMut(&mut Engine<E>, E),
    {
        self.run_until(SimTime::NEVER, handler)
    }

    /// Run until the queue is empty or the next event is strictly after
    /// `horizon`. The clock never advances past the last dispatched event.
    pub fn run_until<F>(&mut self, horizon: SimTime, mut handler: F) -> StopReason
    where
        F: FnMut(&mut Engine<E>, E),
    {
        loop {
            let Some((t, event)) = self.queue.pop_at_or_before(horizon) else {
                return if self.queue.is_empty() {
                    StopReason::QueueEmpty
                } else {
                    StopReason::HorizonReached
                };
            };
            debug_assert!(t >= self.now, "event queue yielded a past event");
            self.now = t;
            self.processed += 1;
            handler(self, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Ev {
        Tick(u32),
        Chain(u32),
    }

    #[test]
    fn clock_advances_with_events() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_in(2.0, Ev::Tick(1));
        eng.schedule_in(1.0, Ev::Tick(0));
        let mut log = Vec::new();
        let reason = eng.run(|e, ev| log.push((e.now().as_secs(), ev)));
        assert_eq!(reason, StopReason::QueueEmpty);
        assert_eq!(log, vec![(1.0, Ev::Tick(0)), (2.0, Ev::Tick(1))]);
        assert_eq!(eng.processed(), 2);
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_at(SimTime::from_secs(1.0), Ev::Chain(3));
        let mut fired = Vec::new();
        eng.run(|e, ev| {
            if let Ev::Chain(n) = ev {
                fired.push((e.now().as_secs(), n));
                if n > 0 {
                    e.schedule_in(1.0, Ev::Chain(n - 1));
                }
            }
        });
        assert_eq!(fired, vec![(1.0, 3), (2.0, 2), (3.0, 1), (4.0, 0)]);
    }

    #[test]
    fn horizon_stops_before_later_events() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_in(1.0, Ev::Tick(1));
        eng.schedule_in(10.0, Ev::Tick(2));
        let mut count = 0;
        let reason = eng.run_until(SimTime::from_secs(5.0), |_, _| count += 1);
        assert_eq!(reason, StopReason::HorizonReached);
        assert_eq!(count, 1);
        // Clock sits at the last dispatched event, not the horizon.
        assert_eq!(eng.now(), SimTime::from_secs(1.0));
        assert_eq!(eng.pending(), 1);
    }

    #[test]
    fn horizon_inclusive() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_in(5.0, Ev::Tick(1));
        let mut count = 0;
        eng.run_until(SimTime::from_secs(5.0), |_, _| count += 1);
        assert_eq!(count, 1, "events exactly at the horizon must dispatch");
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_in(5.0, Ev::Tick(0));
        eng.run(|e, _| {
            // now == 5.0; scheduling at 1.0 is a causality violation.
            e.schedule_at(SimTime::from_secs(1.0), Ev::Tick(9));
        });
    }

    #[test]
    fn soon_and_at_dispatch_in_time_then_schedule_order() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_at(SimTime::from_secs(1.0), Ev::Chain(0));
        let mut log = Vec::new();
        eng.run(|e, ev| {
            log.push((e.now().as_secs(), ev));
            if ev == Ev::Chain(0) {
                e.schedule_soon(SimTime::from_secs(1.002), Ev::Tick(2));
                e.schedule_at(SimTime::from_secs(1.001), Ev::Tick(1));
                e.schedule_soon(SimTime::from_secs(1.001), Ev::Tick(3));
            }
        });
        assert_eq!(
            log,
            vec![
                (1.0, Ev::Chain(0)),
                (1.001, Ev::Tick(1)),
                (1.001, Ev::Tick(3)),
                (1.002, Ev::Tick(2)),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_soon_into_past_panics() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_in(5.0, Ev::Tick(0));
        eng.run(|e, _| e.schedule_soon(SimTime::from_secs(4.0), Ev::Tick(9)));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_delay_panics() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_in(-1.0, Ev::Tick(0));
    }

    #[test]
    fn queue_stats_tracked() {
        let mut eng: Engine<Ev> = Engine::with_capacity(16, 4);
        for i in 0..8 {
            eng.schedule_in(i as f64, Ev::Tick(i));
        }
        assert_eq!(eng.pending(), 8);
        eng.run(|_, _| {});
        assert_eq!(eng.pending(), 0);
    }

    #[test]
    fn deterministic_across_runs() {
        // Two identical engines dispatch identical sequences.
        let build = || {
            let mut eng: Engine<Ev> = Engine::new();
            eng.schedule_in(1.0, Ev::Tick(1));
            eng.schedule_in(1.0, Ev::Tick(2));
            eng.schedule_in(0.5, Ev::Tick(3));
            eng
        };
        let collect = |mut eng: Engine<Ev>| {
            let mut v = Vec::new();
            eng.run(|e, ev| v.push((e.now().as_secs(), ev)));
            v
        };
        assert_eq!(collect(build()), collect(build()));
    }
}
