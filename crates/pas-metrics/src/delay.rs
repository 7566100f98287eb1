//! Detection-delay tracking.
//!
//! The paper (§4.1): "Average detection delay is the average elapsed time
//! between the actual arrival time and the time when a sensor just detects
//! it. … There is no delay for active sensors since they can immediately
//! detect the diffusion while sleeping sensors might miss the first arrival
//! time."
//!
//! [`DelayTracker`] records, per node, the ground-truth first arrival (from
//! the stimulus field oracle) and the simulated detection time, then reduces
//! them to the paper's statistic. Nodes the stimulus never reaches are
//! excluded; nodes reached but never detecting (e.g. dead nodes in the
//! failure ablation) are reported as *misses* and excluded from the mean
//! (matching the paper's definition, which averages over detections).

use crate::online::OnlineStats;
use pas_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Per-run delay summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayStats {
    /// Number of nodes the stimulus reached.
    pub reached: usize,
    /// Number of those that detected it.
    pub detected: usize,
    /// Number reached but never detecting (failures / still asleep at end).
    pub missed: usize,
    /// Mean detection delay over detecting nodes, seconds.
    pub mean_delay_s: f64,
    /// Maximum detection delay, seconds.
    pub max_delay_s: f64,
    /// Standard deviation of delay, seconds.
    pub std_dev_s: f64,
}

/// One node's record: its ground-truth first arrival and its first
/// detection, each once known.
#[derive(Debug, Clone, Copy, Default)]
struct NodeDelay {
    arrival: Option<SimTime>,
    detection: Option<SimTime>,
}

/// Records arrivals and detections per node id, in one array indexed by
/// node id.
#[derive(Debug, Clone, Default)]
pub struct DelayTracker {
    nodes: Vec<NodeDelay>,
}

impl DelayTracker {
    /// Empty tracker; it grows to the largest node id recorded.
    pub fn new() -> Self {
        DelayTracker::default()
    }

    /// Empty tracker with room for node ids below `n`.
    pub fn with_nodes(n: usize) -> Self {
        DelayTracker {
            nodes: vec![NodeDelay::default(); n],
        }
    }

    /// Node `node`'s record, growing the array to hold it.
    fn slot(&mut self, node: usize) -> &mut NodeDelay {
        if node >= self.nodes.len() {
            self.nodes.resize(node + 1, NodeDelay::default());
        }
        &mut self.nodes[node]
    }

    /// Record the ground-truth first arrival at `node`. Idempotent: the
    /// earliest recorded arrival wins (arrivals are facts, not events).
    pub fn record_arrival(&mut self, node: usize, at: SimTime) {
        let arrival = &mut self.slot(node).arrival;
        *arrival = Some(arrival.map_or(at, |t| t.min(at)));
    }

    /// Record that `node` detected the stimulus at `at`. Only the first
    /// detection counts.
    ///
    /// # Panics
    /// Panics (debug) if a detection is recorded for a node with no arrival —
    /// detecting a stimulus that never arrived is a simulator bug.
    pub fn record_detection(&mut self, node: usize, at: SimTime) {
        let slot = self.slot(node);
        debug_assert!(
            slot.arrival.is_some(),
            "node {node} detected before any recorded arrival"
        );
        slot.detection.get_or_insert(at);
    }

    /// Delay for one node, if it was reached and detected.
    pub fn delay_of(&self, node: usize) -> Option<f64> {
        let slot = self.nodes.get(node)?;
        Some(slot.detection?.since(slot.arrival?).max(0.0))
    }

    /// Reduce to the paper's statistics, over reached nodes in ascending
    /// id order.
    pub fn stats(&self) -> DelayStats {
        let mut s = OnlineStats::new();
        let mut reached = 0usize;
        let mut missed = 0usize;
        for slot in &self.nodes {
            let Some(arr) = slot.arrival else { continue };
            reached += 1;
            match slot.detection {
                Some(det) => s.push(det.since(arr).max(0.0)),
                None => missed += 1,
            }
        }
        DelayStats {
            reached,
            detected: s.count() as usize,
            missed,
            mean_delay_s: s.mean(),
            max_delay_s: if s.count() > 0 { s.max() } else { 0.0 },
            std_dev_s: s.std_dev(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn zero_delay_for_instant_detection() {
        let mut d = DelayTracker::new();
        d.record_arrival(0, t(5.0));
        d.record_detection(0, t(5.0));
        assert_eq!(d.delay_of(0), Some(0.0));
        let s = d.stats();
        assert_eq!(s.mean_delay_s, 0.0);
        assert_eq!(s.detected, 1);
        assert_eq!(s.missed, 0);
    }

    #[test]
    fn delay_is_detection_minus_arrival() {
        let mut d = DelayTracker::new();
        d.record_arrival(1, t(10.0));
        d.record_detection(1, t(12.5));
        assert_eq!(d.delay_of(1), Some(2.5));
    }

    #[test]
    fn first_detection_wins() {
        let mut d = DelayTracker::new();
        d.record_arrival(1, t(10.0));
        d.record_detection(1, t(11.0));
        d.record_detection(1, t(20.0)); // ignored
        assert_eq!(d.delay_of(1), Some(1.0));
    }

    #[test]
    fn earliest_arrival_wins() {
        let mut d = DelayTracker::new();
        d.record_arrival(1, t(10.0));
        d.record_arrival(1, t(8.0)); // earlier fact replaces
        d.record_arrival(1, t(12.0)); // later fact ignored
        d.record_detection(1, t(9.0));
        assert_eq!(d.delay_of(1), Some(1.0));
    }

    #[test]
    fn misses_counted_not_averaged() {
        let mut d = DelayTracker::new();
        d.record_arrival(0, t(1.0));
        d.record_detection(0, t(2.0));
        d.record_arrival(1, t(1.0)); // never detects
        let s = d.stats();
        assert_eq!(s.reached, 2);
        assert_eq!(s.detected, 1);
        assert_eq!(s.missed, 1);
        assert_eq!(s.mean_delay_s, 1.0, "miss must not dilute the mean");
    }

    #[test]
    fn aggregate_statistics() {
        let mut d = DelayTracker::new();
        for (i, (arr, det)) in [(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)].iter().enumerate() {
            d.record_arrival(i, t(*arr));
            d.record_detection(i, t(*det));
        }
        let s = d.stats();
        assert_eq!(s.mean_delay_s, 2.0);
        assert_eq!(s.max_delay_s, 3.0);
        assert!((s.std_dev_s - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn unreached_nodes_ignored() {
        let mut d = DelayTracker::new();
        d.record_arrival(0, t(1.0));
        d.record_detection(0, t(1.5));
        // Node 99 never receives an arrival: absent from stats entirely.
        let s = d.stats();
        assert_eq!(s.reached, 1);
        assert_eq!(d.delay_of(99), None);
    }

    #[test]
    fn stats_reduce_in_ascending_id_order_whatever_the_record_order() {
        // Delays whose float sum depends on the order they are added in.
        let delays = [1e-3, 0.1, 7.3, 1e6, 0.2, 3.3, 1e-9, 42.0];
        let ids = [5usize, 2, 7, 0, 3, 6, 1, 4];
        let mut want = OnlineStats::new();
        for id in 0..ids.len() {
            let k = ids.iter().position(|&i| i == id).unwrap();
            want.push(t(10.0 + delays[k]).since(t(10.0)));
        }
        for mut d in [DelayTracker::new(), DelayTracker::with_nodes(3)] {
            for (&id, &delay) in ids.iter().zip(&delays) {
                d.record_arrival(id, t(10.0));
                d.record_detection(id, t(10.0 + delay));
            }
            d.record_arrival(9, t(1.0)); // reached, never detected
            let s = d.stats();
            assert_eq!((s.reached, s.detected, s.missed), (9, 8, 1));
            assert_eq!(s.mean_delay_s.to_bits(), want.mean().to_bits());
            assert_eq!(s.std_dev_s.to_bits(), want.std_dev().to_bits());
            assert_eq!(s.max_delay_s, want.max());
            assert_eq!(d.delay_of(8), None, "id 8 was never recorded");
        }
    }

    #[test]
    fn clock_skew_clamps_to_zero() {
        // Detection "before" arrival (sub-epsilon oracle mismatch) clamps.
        let mut d = DelayTracker::new();
        d.record_arrival(0, t(5.0));
        d.record_detection(0, t(4.999999999));
        assert_eq!(d.delay_of(0), Some(0.0));
    }
}
