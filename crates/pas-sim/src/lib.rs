//! # pas-sim — deterministic discrete-event simulation kernel
//!
//! The PAS paper evaluates its sleeping mechanism "by comprehensive
//! simulation". This crate is that simulator's engine, rebuilt from scratch:
//!
//! * [`SimTime`] — simulation time in seconds with a *total* order (NaN is
//!   rejected at construction), so events can live in ordered collections.
//! * [`EventQueue`] — a stable priority queue ordered by `(time, seq)`,
//!   packed into one `u128` key per event: events at equal timestamps pop
//!   in insertion order (FIFO), which makes runs bit-for-bit
//!   reproducible. Events wait in a binary heap or, when pushed with
//!   [`EventQueue::push_soon`], in a short sorted lane beside it; a pop
//!   takes the lesser front. A popped heap slot stays in place until the
//!   next heap push overwrites it, so a handler's follow-up costs one
//!   sift.
//! * [`Engine`] — the pop-advance-dispatch loop with scheduling helpers
//!   ([`Engine::schedule_soon`] for events due shortly, such as frame
//!   deliveries) and run-until-horizon. It does no profiling of its own:
//!   a caller that wants per-event attribution times its handler (as
//!   `pas-core`'s runner does under detail profiling).
//! * [`rng`] — our own seedable PRNG (SplitMix64 + Xoshiro256++) with
//!   substream derivation, so every node gets an independent deterministic
//!   stream regardless of how many other streams were consumed. We do not use
//!   the `rand` crate in simulation paths: bit-stability across toolchains
//!   and platforms matters for the regression tests.
//!
//! The event type is generic; the PAS world (`pas-core`) instantiates it with
//! a plain enum so dispatch is a jump table, not virtual calls — the guides'
//! "no boxed trait objects on the hot path" idiom.
//!
//! ```
//! use pas_sim::{Engine, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping(u32) }
//!
//! let mut engine: Engine<Ev> = Engine::new();
//! engine.schedule_in(1.5, Ev::Ping(7));
//! let mut seen = Vec::new();
//! engine.run(|eng, ev| {
//!     let Ev::Ping(n) = ev;
//!     seen.push((eng.now().as_secs(), n));
//! });
//! assert_eq!(seen, vec![(1.5, 7)]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod queue;
pub mod rng;
pub mod time;

pub use engine::{Engine, StopReason};
pub use queue::EventQueue;
pub use rng::Rng;
pub use time::SimTime;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::engine::{Engine, StopReason};
    pub use crate::queue::EventQueue;
    pub use crate::rng::Rng;
    pub use crate::time::SimTime;
}
