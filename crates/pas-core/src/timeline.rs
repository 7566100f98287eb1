//! Run timelines: a chronological record of protocol and power events.
//!
//! Enabled via [`crate::RunConfig::record_timeline`]; the runner then logs
//! every state transition and every wake/sleep edge. Timelines power:
//!
//! * the deep invariant tests (`Alert ⇒ awake`, Fig. 3 legality over whole
//!   runs, no post-mortem activity);
//! * the Fig. 2 regeneration (`fig2_states` renders the covered/alert/safe
//!   map at chosen instants);
//! * post-hoc analysis in examples (state occupancy, ring width over time).
//!
//! Recording is append-only and O(1) per event; a 30-node paper run logs a
//! few hundred entries.

use crate::state::NodeState;
use pas_sim::SimTime;
use serde::{Deserialize, Serialize};

/// One protocol state transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransitionRecord {
    /// When it happened.
    pub t: SimTime,
    /// Which node.
    pub node: usize,
    /// State before.
    pub from: NodeState,
    /// State after.
    pub to: NodeState,
}

/// One power edge (wake or sleep).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerRecord {
    /// When it happened.
    pub t: SimTime,
    /// Which node.
    pub node: usize,
    /// `true` = woke up, `false` = went to sleep.
    pub awake: bool,
}

/// The chronological event log of one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Timeline {
    /// State transitions in chronological order.
    pub transitions: Vec<TransitionRecord>,
    /// Wake/sleep edges in chronological order.
    pub power: Vec<PowerRecord>,
}

impl Timeline {
    /// Empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Record a state transition.
    pub fn push_transition(&mut self, t: SimTime, node: usize, from: NodeState, to: NodeState) {
        debug_assert!(
            self.transitions.last().is_none_or(|r| r.t <= t),
            "timeline must be chronological"
        );
        self.transitions
            .push(TransitionRecord { t, node, from, to });
    }

    /// Record a wake/sleep edge.
    pub fn push_power(&mut self, t: SimTime, node: usize, awake: bool) {
        debug_assert!(
            self.power.last().is_none_or(|r| r.t <= t),
            "timeline must be chronological"
        );
        self.power.push(PowerRecord { t, node, awake });
    }

    /// The protocol state of `node` at time `t` (nodes start Safe).
    pub fn state_at(&self, node: usize, t: SimTime) -> NodeState {
        self.transitions
            .iter()
            .take_while(|r| r.t <= t)
            .filter(|r| r.node == node)
            .last()
            .map(|r| r.to)
            .unwrap_or(NodeState::Safe)
    }

    /// Whether `node` is awake at time `t` under `initially_awake` start.
    pub fn awake_at(&self, node: usize, t: SimTime, initially_awake: bool) -> bool {
        self.power
            .iter()
            .take_while(|r| r.t <= t)
            .filter(|r| r.node == node)
            .last()
            .map(|r| r.awake)
            .unwrap_or(initially_awake)
    }

    /// `(covered, alert, safe)` counts at time `t` for `n` nodes.
    pub fn state_counts_at(&self, n: usize, t: SimTime) -> (usize, usize, usize) {
        let mut counts = (0usize, 0usize, 0usize);
        for node in 0..n {
            match self.state_at(node, t) {
                NodeState::Covered => counts.0 += 1,
                NodeState::Alert => counts.1 += 1,
                NodeState::Safe => counts.2 += 1,
            }
        }
        counts
    }

    /// Total time `node` spent in `state` up to `horizon` (nodes start
    /// Safe at t = 0).
    pub fn occupancy(&self, node: usize, state: NodeState, horizon: SimTime) -> f64 {
        let mut current = NodeState::Safe;
        let mut since = SimTime::ZERO;
        let mut acc = 0.0;
        for r in self.transitions.iter().filter(|r| r.node == node) {
            let t = r.t.min(horizon);
            if current == state {
                acc += t.since(since).max(0.0);
            }
            current = r.to;
            since = t;
            if r.t >= horizon {
                return acc;
            }
        }
        if current == state {
            acc += horizon.since(since).max(0.0);
        }
        acc
    }

    /// Verify the whole log respects the paper's Fig. 3 state diagram.
    /// Returns the first offending record, or `None` if legal.
    pub fn first_illegal_transition(&self) -> Option<&TransitionRecord> {
        self.transitions
            .iter()
            .find(|r| !r.from.can_transition_to(r.to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn demo() -> Timeline {
        let mut tl = Timeline::new();
        tl.push_power(t(1.0), 0, true);
        tl.push_transition(t(1.5), 0, NodeState::Safe, NodeState::Alert);
        tl.push_transition(t(4.0), 0, NodeState::Alert, NodeState::Covered);
        tl.push_power(t(5.0), 1, true);
        tl.push_transition(t(6.0), 1, NodeState::Safe, NodeState::Covered);
        tl.push_transition(t(9.0), 0, NodeState::Covered, NodeState::Safe);
        tl.push_power(t(9.0), 0, false);
        tl
    }

    #[test]
    fn state_at_replays_history() {
        let tl = demo();
        assert_eq!(tl.state_at(0, t(0.5)), NodeState::Safe);
        assert_eq!(tl.state_at(0, t(2.0)), NodeState::Alert);
        assert_eq!(tl.state_at(0, t(4.0)), NodeState::Covered);
        assert_eq!(tl.state_at(0, t(10.0)), NodeState::Safe);
        assert_eq!(tl.state_at(1, t(5.9)), NodeState::Safe);
        assert_eq!(tl.state_at(1, t(6.0)), NodeState::Covered);
        // Unknown node defaults to Safe.
        assert_eq!(tl.state_at(42, t(8.0)), NodeState::Safe);
    }

    #[test]
    fn awake_at_replays_power() {
        let tl = demo();
        assert!(!tl.awake_at(0, t(0.5), false));
        assert!(tl.awake_at(0, t(1.0), false));
        assert!(tl.awake_at(0, t(8.9), false));
        assert!(!tl.awake_at(0, t(9.0), false));
        assert!(tl.awake_at(7, t(0.0), true), "initial state honoured");
    }

    #[test]
    fn counts_at_instant() {
        let tl = demo();
        assert_eq!(tl.state_counts_at(2, t(0.0)), (0, 0, 2));
        assert_eq!(tl.state_counts_at(2, t(2.0)), (0, 1, 1));
        assert_eq!(tl.state_counts_at(2, t(7.0)), (2, 0, 0));
        assert_eq!(tl.state_counts_at(2, t(9.5)), (1, 0, 1));
    }

    #[test]
    fn occupancy_accumulates() {
        let tl = demo();
        let h = t(10.0);
        // Node 0: Safe [0,1.5)∪[9,10) = 2.5; Alert [1.5,4) = 2.5;
        // Covered [4,9) = 5.
        assert!((tl.occupancy(0, NodeState::Safe, h) - 2.5).abs() < 1e-12);
        assert!((tl.occupancy(0, NodeState::Alert, h) - 2.5).abs() < 1e-12);
        assert!((tl.occupancy(0, NodeState::Covered, h) - 5.0).abs() < 1e-12);
        // Occupancies partition the horizon.
        let total: f64 = [NodeState::Safe, NodeState::Alert, NodeState::Covered]
            .iter()
            .map(|&s| tl.occupancy(0, s, h))
            .sum();
        assert!((total - 10.0).abs() < 1e-12);
    }

    #[test]
    fn occupancy_clamps_to_horizon() {
        let tl = demo();
        let h = t(3.0);
        assert!((tl.occupancy(0, NodeState::Alert, h) - 1.5).abs() < 1e-12);
        assert_eq!(tl.occupancy(0, NodeState::Covered, h), 0.0);
    }

    #[test]
    fn legality_checker() {
        let tl = demo();
        assert!(tl.first_illegal_transition().is_none());
        let mut bad = Timeline::new();
        bad.push_transition(t(1.0), 0, NodeState::Covered, NodeState::Alert);
        assert!(bad.first_illegal_transition().is_some());
    }
}
