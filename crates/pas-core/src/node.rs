//! Per-node runtime state, stored struct-of-arrays.
//!
//! [`Nodes`] is pure data plus small invariant-preserving mutators; the
//! protocol *logic* lives in [`crate::runner`], which owns the event loop
//! and can see the whole world (field, channel, tracker) at once. Keeping
//! the node layer passive avoids the callback-borrow tangles that plague
//! DES node models and keeps the hot loop monomorphic.
//!
//! ## Why struct-of-arrays
//!
//! Each dispatched event touches a handful of scalar fields of one node
//! (mode, window, last-TX end, …). With an array-of-structs layout every
//! such touch drags a whole ~300-byte `Node` cache footprint through the
//! hierarchy; with parallel arrays an event handler reads exactly the
//! cache lines holding the fields it uses. The arrays are public — the
//! runner indexes them directly — and the mutators below guard the
//! invariants that span several arrays (state machine, meter/awake
//! agreement).

use crate::msg::Report;
use crate::predictor::PredictorState;
use crate::state::NodeState;
use pas_geom::Vec2;
use pas_platform::{EnergyBreakdown, EnergyMeter, NodeMode, PowerProfile};
use pas_sim::SimTime;

/// Why a node opened a listening window after broadcasting a REQUEST.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purpose {
    /// A safe node's wake-up probe: decide alert vs longer sleep.
    SafeProbe,
    /// A freshly covered node gathering detect times for the actual
    /// velocity estimate.
    CoveredEstimate,
    /// An overdue alert node re-probing before concluding misprediction:
    /// sleeping blind at the predicted arrival instant is the one moment
    /// duty-cycling must not happen.
    AlertRefresh,
}

/// All sensors' runtime state, one parallel array per field (index = node
/// id).
#[derive(Debug)]
pub struct Nodes {
    /// Fixed position.
    pub pos: Vec<Vec2>,
    /// Protocol state (paper Fig. 3).
    pub state: Vec<NodeState>,
    /// `false` once the failure plan kills the node.
    pub alive: Vec<bool>,
    /// `true` while the MCU+radio are up (can receive frames).
    pub awake: Vec<bool>,
    /// Current sleep interval (s); grows by Δt per uneventful wake.
    pub sleep_interval_s: Vec<f64>,
    /// Energy meter (all meters share one static power profile).
    pub meter: Vec<EnergyMeter>,
    /// Frozen energy at death (None while alive).
    pub death_energy: Vec<Option<EnergyBreakdown>>,
    /// First detection time, if any.
    pub detect_time: Vec<Option<SimTime>>,
    /// Current velocity estimate: actual (covered) or expected (alert).
    pub velocity: Vec<Option<Vec2>>,
    /// Per-node memory of the policy's arrival predictor (the Kalman
    /// variant's recursive velocity belief; stateless for the others).
    pub predictor_state: Vec<PredictorState>,
    /// Current predicted stimulus arrival ([`SimTime::NEVER`] = unknown).
    pub expected_arrival: Vec<SimTime>,
    /// Open listening window, if any.
    pub window: Vec<Option<Purpose>>,
    /// End of the last transmission (sender side).
    pub last_tx_end: Vec<SimTime>,
    /// Time of the last broadcast this node originated (storm suppression).
    pub last_broadcast: Vec<Option<SimTime>>,
    /// True if the node ever entered the Alert state (diagnostics).
    pub alerted_ever: Vec<bool>,
}

impl Nodes {
    /// Fresh nodes in the Safe state, all sharing `profile`.
    pub fn new(
        positions: &[Vec2],
        profile: &'static PowerProfile,
        starts_awake: bool,
        base_sleep_s: f64,
    ) -> Self {
        let n = positions.len();
        let mode = if starts_awake {
            NodeMode::ACTIVE_RX
        } else {
            NodeMode::SLEEP
        };
        Nodes {
            pos: positions.to_vec(),
            state: vec![NodeState::Safe; n],
            alive: vec![true; n],
            awake: vec![starts_awake; n],
            sleep_interval_s: vec![base_sleep_s; n],
            meter: (0..n)
                .map(|_| EnergyMeter::new(profile, mode, SimTime::ZERO))
                .collect(),
            death_energy: vec![None; n],
            detect_time: vec![None; n],
            velocity: vec![None; n],
            predictor_state: vec![PredictorState::default(); n],
            expected_arrival: vec![SimTime::NEVER; n],
            window: vec![None; n],
            last_tx_end: vec![SimTime::ZERO; n],
            last_broadcast: vec![None; n],
            alerted_ever: vec![false; n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// `true` when there are no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// Transition node `i`'s protocol state, enforcing the paper's Fig. 3
    /// diagram.
    ///
    /// # Panics
    /// Panics on an illegal transition — always a runner bug.
    pub fn transition(&mut self, i: usize, to: NodeState) {
        assert!(
            self.state[i].can_transition_to(to),
            "illegal transition {} -> {} on node {}",
            self.state[i],
            to,
            i
        );
        if to == NodeState::Alert {
            self.alerted_ever[i] = true;
        }
        self.state[i] = to;
    }

    /// Wake node `i` at `t` (meter charges the sleep→active transition).
    pub fn wake(&mut self, i: usize, t: SimTime) {
        debug_assert!(!self.awake[i], "waking an awake node {i}");
        self.meter[i].set_mode(t, NodeMode::ACTIVE_RX);
        self.awake[i] = true;
    }

    /// Put node `i` to sleep at `t`.
    ///
    /// # Panics
    /// Panics (debug) if called while a transmission is in flight — the
    /// runner must defer sleep past `last_tx_end`.
    pub fn sleep(&mut self, i: usize, t: SimTime) {
        debug_assert!(self.awake[i], "sleeping an asleep node {i}");
        debug_assert!(
            t >= self.last_tx_end[i],
            "node {i} sleeping mid-transmission"
        );
        self.meter[i].set_mode(t, NodeMode::SLEEP);
        self.awake[i] = false;
        self.window[i] = None;
    }

    /// The report node `i` would send right now.
    ///
    /// Covered nodes report their detection time and actual velocity; alert
    /// nodes report their prediction. Safe nodes have nothing authoritative
    /// to say — callers should not solicit them.
    pub fn report(&self, i: usize, now: SimTime) -> Report {
        let ref_time = match self.state[i] {
            NodeState::Covered => self.detect_time[i].unwrap_or(now),
            NodeState::Alert => {
                if self.expected_arrival[i].is_finite() {
                    self.expected_arrival[i]
                } else {
                    now
                }
            }
            NodeState::Safe => now,
        };
        Report {
            pos: self.pos[i],
            state: self.state[i],
            velocity: self.velocity[i],
            ref_time,
        }
    }

    /// Final energy of node `i`: frozen at death, else metered up to `end`.
    pub fn final_energy(&mut self, i: usize, end: SimTime) -> EnergyBreakdown {
        match self.death_energy[i] {
            Some(e) => e,
            None => self.meter[i].sample(end),
        }
    }
}

/// Every node's latest report from each neighbour that has sent one, in
/// one flat array shaped like the runner's CSR neighbour table: node `i`'s
/// row spans `off[i]..off[i + 1]`, one slot per neighbour, and its first
/// `len[i]` slots hold reports in ascending sender id, with the sender ids
/// beside them in `from`. An estimator borrows a row in place
/// ([`ReportTable::row`]); nothing is copied or allocated per report.
#[derive(Debug, Clone)]
pub struct ReportTable {
    off: Vec<u32>,
    len: Vec<u32>,
    from: Vec<u32>,
    reports: Vec<Report>,
}

impl ReportTable {
    /// An empty table over CSR row offsets: `off` has one entry per node
    /// plus one, and node `i` has room for `off[i + 1] - off[i]` reports.
    pub fn new(off: &[u32]) -> Self {
        let slots = off.last().map_or(0, |&end| end as usize);
        let blank = Report {
            pos: Vec2::ZERO,
            state: NodeState::Safe,
            velocity: None,
            ref_time: SimTime::ZERO,
        };
        ReportTable {
            off: off.to_vec(),
            len: vec![0; off.len().saturating_sub(1)],
            from: vec![0; slots],
            reports: vec![blank; slots],
        }
    }

    /// Node `i`'s stored reports, in ascending sender id.
    #[inline]
    pub fn row(&self, i: usize) -> &[Report] {
        let lo = self.off[i] as usize;
        &self.reports[lo..lo + self.len[i] as usize]
    }

    /// Store `from`'s report on node `i`; a later report from the same
    /// sender replaces the earlier one.
    ///
    /// # Panics
    /// Panics if node `i`'s row is already full with other senders: `from`
    /// is then not one of its neighbours.
    pub fn store(&mut self, i: usize, from: u32, report: Report) {
        let (lo, end) = (self.off[i] as usize, self.off[i + 1] as usize);
        let hi = lo + self.len[i] as usize;
        match self.from[lo..hi].binary_search(&from) {
            Ok(at) => self.reports[lo + at] = report,
            Err(at) => {
                assert!(hi < end, "node {i}'s row is full: {from} is no neighbour");
                let at = lo + at;
                self.from.copy_within(at..hi, at + 1);
                self.reports.copy_within(at..hi, at + 1);
                self.from[at] = from;
                self.reports[at] = report;
                self.len[i] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pas_platform::{telos_profile, telos_profile_ref};

    fn nodes_at(pos: Vec2, awake: bool) -> Nodes {
        Nodes::new(&[pos], telos_profile_ref(), awake, 1.0)
    }

    #[test]
    fn fresh_node_is_safe() {
        let n = nodes_at(Vec2::ZERO, false);
        assert_eq!(n.state[0], NodeState::Safe);
        assert!(!n.awake[0]);
        assert!(n.alive[0]);
        assert_eq!(n.expected_arrival[0], SimTime::NEVER);
    }

    #[test]
    fn legal_transition_chain() {
        let mut n = nodes_at(Vec2::ZERO, true);
        n.transition(0, NodeState::Alert);
        assert!(n.alerted_ever[0]);
        n.transition(0, NodeState::Covered);
        n.transition(0, NodeState::Safe);
        assert_eq!(n.state[0], NodeState::Safe);
    }

    #[test]
    #[should_panic(expected = "illegal transition")]
    fn illegal_transition_panics() {
        let mut n = nodes_at(Vec2::ZERO, true);
        n.transition(0, NodeState::Covered);
        n.transition(0, NodeState::Alert); // Covered -> Alert is not in Fig. 3
    }

    #[test]
    fn wake_sleep_cycle_meters_energy() {
        let mut n = nodes_at(Vec2::ZERO, false);
        n.wake(0, SimTime::from_secs(10.0));
        assert!(n.awake[0]);
        n.sleep(0, SimTime::from_secs(11.0));
        assert!(!n.awake[0]);
        let e = n.final_energy(0, SimTime::from_secs(20.0));
        // 10 s sleep + 1 s active + 9 s sleep + 1 wake transition.
        let p = telos_profile();
        let want =
            19.0 * p.sleep_w + 1.0 * p.total_active_w() + p.total_active_w() * p.wake_transition_s;
        assert!((e.total_j() - want).abs() < 1e-12);
    }

    #[test]
    fn report_reflects_state() {
        let mut n = nodes_at(Vec2::new(1.0, 2.0), true);
        let now = SimTime::from_secs(5.0);
        // Safe: ref_time falls back to now.
        assert_eq!(n.report(0, now).ref_time, now);

        n.transition(0, NodeState::Alert);
        n.expected_arrival[0] = SimTime::from_secs(9.0);
        n.velocity[0] = Some(Vec2::UNIT_X);
        let r = n.report(0, now);
        assert_eq!(r.state, NodeState::Alert);
        assert_eq!(r.ref_time, SimTime::from_secs(9.0));
        assert_eq!(r.velocity, Some(Vec2::UNIT_X));

        n.transition(0, NodeState::Covered);
        n.detect_time[0] = Some(SimTime::from_secs(6.0));
        let r = n.report(0, SimTime::from_secs(7.0));
        assert_eq!(r.state, NodeState::Covered);
        assert_eq!(r.ref_time, SimTime::from_secs(6.0));
    }

    fn report_at(t: f64) -> Report {
        Report {
            pos: Vec2::UNIT_X,
            state: NodeState::Alert,
            velocity: None,
            ref_time: SimTime::from_secs(t),
        }
    }

    #[test]
    fn reports_latest_wins_and_stay_sorted() {
        // Node 0 has room for three reports, node 1 for two.
        let mut t = ReportTable::new(&[0, 3, 5]);
        t.store(0, 7, report_at(1.0));
        t.store(0, 7, report_at(2.0));
        assert_eq!(t.row(0), &[report_at(2.0)]);
        // Inserts keep ascending sender order (the BTreeMap contract):
        // senders 3, 7 and 9.
        t.store(0, 3, report_at(3.0));
        t.store(0, 9, report_at(9.0));
        assert_eq!(t.row(0), &[report_at(3.0), report_at(2.0), report_at(9.0)]);
        // Rows are independent; a full row still takes updates.
        assert!(t.row(1).is_empty());
        t.store(1, 4, report_at(4.0));
        assert_eq!(t.row(1), &[report_at(4.0)]);
        t.store(0, 3, report_at(5.0));
        t.store(0, 9, report_at(6.0));
        assert_eq!(t.row(0), &[report_at(5.0), report_at(2.0), report_at(6.0)]);
    }

    #[test]
    #[should_panic(expected = "no neighbour")]
    fn a_full_row_refuses_a_new_sender() {
        let mut t = ReportTable::new(&[0, 1]);
        t.store(0, 1, report_at(1.0));
        t.store(0, 2, report_at(2.0));
    }

    #[test]
    fn death_freezes_energy() {
        let mut n = nodes_at(Vec2::ZERO, true);
        let at_death = n.meter[0].sample(SimTime::from_secs(5.0));
        n.death_energy[0] = Some(at_death);
        n.alive[0] = false;
        let e = n.final_energy(0, SimTime::from_secs(100.0));
        assert_eq!(e.total_j(), at_death.total_j(), "no post-mortem drain");
    }
}
