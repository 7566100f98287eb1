//! The simulation runner: wires nodes, channel, stimulus and policy into one
//! deterministic discrete-event run and reduces it to the paper's metrics.
//!
//! ## Event anatomy
//!
//! * `Arrival(i)` — the ground-truth front reaches node `i` (oracle fact,
//!   scheduled at init). Awake nodes detect instantly — the paper's "no
//!   delay for active sensors". Sleeping nodes detect at their next wake.
//! * `Wake(i)` — a sleeping node's timer fires: sense, then either detect
//!   (→ Covered) or probe the neighbourhood with a REQUEST.
//! * `WindowEnd(i, purpose)` — the listening window after a REQUEST closes:
//!   a safe prober decides alert-vs-sleep; a fresh covered node computes
//!   its actual velocity and announces it.
//! * `Deliver { to, frame }` — a frame reaches node `to`'s antenna. Heard
//!   only if the node is awake and not mid-transmission (half-duplex).
//!   Never scheduled for a receiver that is asleep at send time and whose
//!   one pending `Wake` fires strictly after the arrival: that frame is
//!   unheard by construction (see "Asleep receivers" below).
//! * `AlertReview(i)` — periodic re-examination of an alert node: fall back
//!   to safe on misprediction (overdue) or receded threat.
//! * `CoveredCheck(i)` — periodic re-sense of a covered node: if the
//!   stimulus receded, return to safe after the detection timeout (§3.2).
//! * `Fail(i)` — failure injection: the node dies, its meter freezes.
//!
//! ## Zero-allocation dispatch
//!
//! The hot loop allocates nothing per event. Three structures make that
//! possible:
//!
//! * **Frame slab** — a broadcast's [`Msg`] payload is written once into a
//!   free-list slab and `Deliver` events carry a `u32` slot index, keeping
//!   [`Ev`] small enough for the event queue's inline storage. Every
//!   `Deliver` dispatch (heard or not) drops the slot's reference count;
//!   the slot recycles when the last scheduled delivery lands.
//! * **Flat neighbour table** — the per-node neighbour lists are packed at
//!   setup into one CSR array of `(id, distance)` pairs, so `broadcast()`
//!   walks a contiguous slice and schedules deliveries directly instead of
//!   collecting a delivery list per send.
//! * **Report table** — each node's stored reports sit in its row of one
//!   flat array shaped like the neighbour table ([`ReportTable`]), so the
//!   estimators borrow them in place.
//!
//! ## Asleep receivers
//!
//! A sleeping radio hears nothing, and a sleeping node only wakes on its
//! own `Wake` event. The runner keeps the invariant *asleep ⇒ exactly one
//! pending `Wake`, at `wake_at[i]`*: every sleep path goes through
//! `World::fall_asleep`, which puts the node to sleep, schedules its wake
//! and records the time, and `on_wake` asserts (debug) that each popped
//! `Wake` matches the record. `broadcast` uses it to skip the `Deliver`
//! of any frame whose receiver is asleep now and wakes strictly after the
//! arrival. At an equal time the earlier-scheduled `Wake` pops first and
//! the node hears the frame, so that delivery is still scheduled.
//!
//! Skipping changes no result. The channel's `delivers` and jitter draws
//! happen exactly as before, and the relative order of the remaining
//! events is unchanged (ties break on insertion order). Each skipped
//! delivery due at or before the horizon is what the engine would have
//! dispatched as an unheard no-op, so it still counts once in
//! `frames_unheard` and once in `events_processed`.
//!
//! ## Transmission metering
//!
//! Broadcasts pre-charge the TX window synchronously: the meter is switched
//! to TX at send time and back to RX at `send + airtime` in one step. This
//! removes a whole class of TX-completion races; the only obligations are
//! that (a) no other meter change lands inside the window — guaranteed
//! because every sleep/decision path clamps to `last_tx_end` — and (b) a
//! node cannot hear frames while transmitting (checked in `Deliver`).

use crate::config::{ChannelKind, RunConfig, Scenario};
use crate::estimate;
use crate::msg::Msg;
use crate::node::{Nodes, Purpose, ReportTable};
use crate::policy::{AdaptiveParams, Policy};
use crate::predictor::PredictorSpec;
use crate::state::NodeState;
use crate::timeline::Timeline;
use pas_diffusion::StimulusField;
use pas_metrics::{DelayStats, DelayTracker};
use pas_net::{ChannelModel, DistanceLossChannel, IidLossChannel, PerfectChannel};
use pas_platform::{
    telos_profile, telos_profile_ref, EnergyBreakdown, FrameSpec, MessageKind, NodeMode,
};
use pas_sim::{Engine, Rng, SimTime};
use std::time::Instant;

/// Substream label: deployment positions.
pub const STREAM_DEPLOY: u64 = 0x01;
/// Substream label: channel loss and jitter draws.
pub const STREAM_CHANNEL: u64 = 0x02;
/// Substream label: node wake-up phase jitter.
pub const STREAM_NODES: u64 = 0x03;

/// Horizon used when the stimulus never reaches any node (pure
/// duty-cycling energy runs) and no override is given.
const QUIET_HORIZON_S: f64 = 60.0;

/// Runtime channel dispatch (mirrors [`ChannelKind`]).
enum ChannelImpl {
    Perfect(PerfectChannel),
    Iid(IidLossChannel),
    Dist(DistanceLossChannel),
}

impl ChannelModel for ChannelImpl {
    fn delivers(&self, dist: f64, range: f64, rng: &mut Rng) -> bool {
        match self {
            ChannelImpl::Perfect(c) => c.delivers(dist, range, rng),
            ChannelImpl::Iid(c) => c.delivers(dist, range, rng),
            ChannelImpl::Dist(c) => c.delivers(dist, range, rng),
        }
    }
}

impl From<ChannelKind> for ChannelImpl {
    fn from(kind: ChannelKind) -> Self {
        match kind {
            ChannelKind::Perfect => ChannelImpl::Perfect(PerfectChannel),
            ChannelKind::IidLoss(p) => ChannelImpl::Iid(IidLossChannel::new(p)),
            ChannelKind::DistanceLoss(g, e) => ChannelImpl::Dist(DistanceLossChannel::new(g, e)),
        }
    }
}

/// Simulation events. Kept to 12 bytes (node ids as `u32`, message payloads
/// in the frame slab) so an event-queue entry stays within 32 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    Arrival(u32),
    Wake(u32),
    WindowEnd(u32, Purpose),
    Deliver { to: u32, frame: u32 },
    AlertReview(u32),
    CoveredCheck(u32),
    Fail(u32),
}

/// The detail profile region of each event kind, indexed by [`Ev::kind`].
const EVENT_REGIONS: [&str; 7] = [
    "sim.event.arrival",
    "sim.event.wake",
    "sim.event.window_end",
    "sim.event.deliver",
    "sim.event.alert_review",
    "sim.event.covered_check",
    "sim.event.fail",
];

impl Ev {
    /// This event's kind, as an index into [`EVENT_REGIONS`].
    fn kind(self) -> usize {
        match self {
            Ev::Arrival(_) => 0,
            Ev::Wake(_) => 1,
            Ev::WindowEnd(..) => 2,
            Ev::Deliver { .. } => 3,
            Ev::AlertReview(_) => 4,
            Ev::CoveredCheck(_) => 5,
            Ev::Fail(_) => 6,
        }
    }
}

/// One in-flight broadcast payload in the frame slab.
struct Frame {
    msg: Msg,
    /// Scheduled deliveries not yet dispatched; slot recycles at zero.
    remaining: u32,
    /// Free-list link ([`NO_FRAME`] terminates).
    next_free: u32,
}

/// Free-list terminator for the frame slab.
const NO_FRAME: u32 = u32::MAX;

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Policy label ("NS", "SAS", "PAS", "Oracle", or a predictor-
    /// qualified form like "PAS[kalman]" — see [`Policy::label`]).
    pub policy_label: String,
    /// Number of nodes simulated.
    pub node_count: usize,
    /// Simulated duration in seconds.
    pub duration_s: f64,
    /// The paper's detection-delay metric.
    pub delay: DelayStats,
    /// Per-node energy breakdowns (index = node id).
    pub per_node_energy: Vec<EnergyBreakdown>,
    /// REQUEST frames transmitted.
    pub requests_sent: u64,
    /// RESPONSE frames transmitted.
    pub responses_sent: u64,
    /// Frames heard by an awake receiver.
    pub frames_delivered: u64,
    /// Frames that physically arrived at a sleeping / dead / transmitting
    /// receiver and were lost.
    pub frames_unheard: u64,
    /// Total events dispatched, counting each skipped delivery to an
    /// asleep receiver as the unheard `Deliver` it stands for (see the
    /// module docs).
    pub events_processed: u64,
    /// Nodes in the Covered state at the end of the run.
    pub covered_final: usize,
    /// Nodes that entered the Alert state at least once.
    pub alerted_ever: usize,
    /// Full event log, when [`RunConfig::record_timeline`] was set.
    pub timeline: Option<Timeline>,
}

impl RunResult {
    /// The paper's "average energy consumption": mean per-node joules.
    pub fn mean_energy_j(&self) -> f64 {
        if self.per_node_energy.is_empty() {
            return 0.0;
        }
        self.per_node_energy
            .iter()
            .map(|e| e.total_j())
            .sum::<f64>()
            / self.per_node_energy.len() as f64
    }

    /// Component-wise mean energy breakdown.
    pub fn mean_breakdown(&self) -> EnergyBreakdown {
        let mut acc = EnergyBreakdown::default();
        for e in &self.per_node_energy {
            acc = acc.add(e);
        }
        let n = self.per_node_energy.len().max(1) as f64;
        EnergyBreakdown {
            mcu_active_j: acc.mcu_active_j / n,
            sleep_j: acc.sleep_j / n,
            radio_rx_j: acc.radio_rx_j / n,
            radio_tx_j: acc.radio_tx_j / n,
            transition_j: acc.transition_j / n,
        }
    }

    /// Mean fraction of the run each node's MCU was active — derived from
    /// the energy breakdown, so it needs no extra bookkeeping.
    pub fn mean_awake_fraction(&self) -> f64 {
        let p = telos_profile();
        let mean_active_s = self.mean_breakdown().mcu_active_j / p.mcu_active_w;
        (mean_active_s / self.duration_s).clamp(0.0, 1.0)
    }
}

struct World<'f> {
    nodes: Nodes,
    field: &'f dyn StimulusField,
    policy: Policy,
    /// Hoisted `policy.params()` (None for NS/Oracle).
    params: Option<AdaptiveParams>,
    /// Hoisted `policy.predictor()` — resolving the spec per estimator call
    /// was measurable.
    predictor: Option<PredictorSpec>,
    /// Hoisted `policy.relays_predictions()`.
    relays: bool,
    channel: ChannelImpl,
    range: f64,
    /// CSR offsets into `nbr`: node `i`'s neighbours are
    /// `nbr[nbr_off[i]..nbr_off[i+1]]`.
    nbr_off: Vec<u32>,
    /// Flat `(neighbour id, distance)` pairs, ascending id per node.
    nbr: Vec<(u32, f64)>,
    airtime_request_s: f64,
    airtime_response_s: f64,
    tracker: DelayTracker,
    rng: Rng,
    frames: Vec<Frame>,
    free_frame: u32,
    /// Each node's latest report per neighbour, in its CSR row.
    reports: ReportTable,
    requests_sent: u64,
    responses_sent: u64,
    frames_delivered: u64,
    frames_unheard: u64,
    timeline: Option<Timeline>,
    /// Time of node `i`'s one pending `Wake` while it sleeps
    /// ([`SimTime::NEVER`] until one is scheduled).
    wake_at: Vec<SimTime>,
    /// Skip deliveries to receivers asleep through the arrival (always on
    /// outside the reference-equivalence test).
    elide_asleep: bool,
    /// Deliveries skipped that were due at or before the horizon.
    elided: u64,
    horizon: SimTime,
}

/// Run one simulation.
///
/// Deterministic: identical `(scenario, field, config)` triples produce
/// identical results, bit for bit.
pub fn run(scenario: &Scenario, field: &dyn StimulusField, config: &RunConfig) -> RunResult {
    simulate(scenario, field, config, true)
}

/// [`run`], with delivery skipping for asleep receivers switchable so the
/// equivalence test can compare against a reference that schedules every
/// delivery.
fn simulate(
    scenario: &Scenario,
    field: &dyn StimulusField,
    config: &RunConfig,
    elide_asleep: bool,
) -> RunResult {
    // Coarse profile region over the whole simulation (one per matrix
    // point, µs-scale); the per-event-kind regions under it are recorded
    // only with `pas_obs::profile::set_detail(true)` (see `run_profiled`).
    let _prof = pas_obs::profile::scope("sim.run");
    config.policy.validate();
    let topology = scenario.topology();
    let profile = telos_profile_ref();
    let n = topology.len();

    // Ground-truth arrivals (oracle facts, known up front).
    let arrivals: Vec<Option<SimTime>> = topology
        .positions()
        .iter()
        .map(|&p| field.first_arrival_time(p))
        .collect();

    // Horizon: last arrival + grace, unless overridden.
    let max_arrival = arrivals.iter().flatten().copied().max();
    let horizon = SimTime::from_secs(config.horizon_override_s.unwrap_or_else(|| {
        max_arrival
            .map(|t| t.as_secs() + config.grace_s)
            .unwrap_or(QUIET_HORIZON_S)
    }));

    let mut tracker = DelayTracker::with_nodes(n);
    for (i, arr) in arrivals.iter().enumerate() {
        if let Some(t) = arr {
            if *t <= horizon {
                tracker.record_arrival(i, *t);
            }
        }
    }

    let starts_awake = matches!(config.policy, Policy::Ns);
    let base_sleep = config
        .policy
        .params()
        .map(|p| p.base_sleep_s)
        .unwrap_or(1.0);
    let nodes = Nodes::new(topology.positions(), profile, starts_awake, base_sleep);

    // Flatten the topology's neighbour lists into one CSR table with
    // precomputed link distances (same distance expression the radio layer
    // used per broadcast, so the channel sees bit-identical inputs).
    let mut nbr_off = Vec::with_capacity(n + 1);
    let mut nbr = Vec::with_capacity((0..n).map(|i| topology.degree(i)).sum());
    nbr_off.push(0u32);
    for i in 0..n {
        let pos_i = topology.position(i);
        for &to in topology.neighbors(i) {
            nbr.push((to as u32, pos_i.distance(topology.position(to))));
        }
        nbr_off.push(nbr.len() as u32);
    }

    let reports = ReportTable::new(&nbr_off);
    let frame_spec = FrameSpec::default();
    let mut world = World {
        nodes,
        field,
        policy: config.policy,
        params: config.policy.params().copied(),
        predictor: config.policy.predictor(),
        relays: config.policy.relays_predictions(),
        channel: ChannelImpl::from(config.channel),
        range: topology.range(),
        nbr_off,
        nbr,
        airtime_request_s: frame_spec.airtime_s(MessageKind::Request, profile),
        airtime_response_s: frame_spec.airtime_s(MessageKind::Response, profile),
        tracker,
        rng: Rng::substream(scenario.seed, STREAM_CHANNEL),
        frames: Vec::new(),
        free_frame: NO_FRAME,
        reports,
        requests_sent: 0,
        responses_sent: 0,
        frames_delivered: 0,
        frames_unheard: 0,
        timeline: config.record_timeline.then(Timeline::new),
        wake_at: vec![SimTime::NEVER; n],
        elide_asleep,
        elided: 0,
        horizon,
    };

    // Initial schedule. The lane holds the deliveries in flight: room
    // for one broadcast from every node at once.
    let mut engine: Engine<Ev> = Engine::with_capacity(4 * n, world.nbr.len());
    let mut node_rng = Rng::substream(scenario.seed, STREAM_NODES);
    match config.policy {
        Policy::Ns => { /* always awake: Arrival events do the detecting */ }
        Policy::Oracle => {
            // The §3.1 ideal: wake exactly at the ground-truth arrival.
            for (i, arr) in arrivals.iter().enumerate() {
                if let Some(t) = arr {
                    if *t <= horizon {
                        world.schedule_wake(&mut engine, i, *t);
                    }
                }
            }
        }
        Policy::Sas(_) | Policy::Pas(_) => {
            // Desynchronised first wake: uniform phase in [0, base interval).
            for i in 0..n {
                let phase = node_rng.range_f64(0.0, base_sleep);
                world.schedule_wake(&mut engine, i, SimTime::from_secs(phase));
            }
        }
    }

    // Arrival events (awake-detection path) for every policy.
    for (i, arr) in arrivals.iter().enumerate() {
        if let Some(t) = arr {
            if *t <= horizon {
                engine.schedule_at(*t, Ev::Arrival(i as u32));
            }
        }
    }

    // Failure injection.
    for (i, t) in config.failures.iter() {
        if t <= horizon {
            engine.schedule_at(t, Ev::Fail(i as u32));
        }
    }

    if pas_obs::profile::detail() {
        run_profiled(&mut engine, &mut world, horizon);
    } else {
        engine.run_until(horizon, |eng, ev| world.handle(eng, ev));
    }

    // Reduce.
    let duration_s = horizon.as_secs();
    let per_node_energy: Vec<EnergyBreakdown> = (0..n)
        .map(|i| {
            let end = horizon.max(world.nodes.last_tx_end[i]);
            world.nodes.final_energy(i, end)
        })
        .collect();
    RunResult {
        policy_label: config.policy.label(),
        node_count: n,
        duration_s,
        delay: world.tracker.stats(),
        per_node_energy,
        requests_sent: world.requests_sent,
        responses_sent: world.responses_sent,
        frames_delivered: world.frames_delivered,
        frames_unheard: world.frames_unheard + world.elided,
        events_processed: engine.processed() + world.elided,
        covered_final: world
            .nodes
            .state
            .iter()
            .filter(|&&s| s == NodeState::Covered)
            .count(),
        alerted_ever: world.nodes.alerted_ever.iter().filter(|&&a| a).count(),
        timeline: world.timeline,
    }
}

/// The event loop with per-event-kind attribution: one clock read after
/// each event charges the time since the previous read, which covers that
/// event's pop and its handler (the pushes and broadcasts it makes
/// included), to the event's kind. At the end, each kind's sums become one
/// child region of the open `sim.run` region, named from [`EVENT_REGIONS`].
fn run_profiled(engine: &mut Engine<Ev>, world: &mut World<'_>, horizon: SimTime) {
    let mut spent = [(0u64, 0u64); EVENT_REGIONS.len()];
    let mut last = Instant::now();
    engine.run_until(horizon, |eng, ev| {
        let kind = ev.kind();
        world.handle(eng, ev);
        let now = Instant::now();
        let (calls, ns) = &mut spent[kind];
        *calls += 1;
        *ns += now.duration_since(last).as_nanos() as u64;
        last = now;
    });
    for (name, (calls, ns)) in EVENT_REGIONS.into_iter().zip(spent) {
        pas_obs::profile::add_child(name, calls, ns);
    }
}

impl<'f> World<'f> {
    fn handle(&mut self, eng: &mut Engine<Ev>, ev: Ev) {
        match ev {
            Ev::Arrival(i) => self.on_arrival(eng, i as usize),
            Ev::Wake(i) => self.on_wake(eng, i as usize),
            Ev::WindowEnd(i, purpose) => self.on_window_end(eng, i as usize, purpose),
            Ev::Deliver { to, frame } => self.on_deliver(eng, to as usize, frame),
            Ev::AlertReview(i) => self.on_alert_review(eng, i as usize),
            Ev::CoveredCheck(i) => self.on_covered_check(eng, i as usize),
            Ev::Fail(i) => self.on_fail(eng, i as usize),
        }
    }

    // --- frame slab -------------------------------------------------------

    /// Park a broadcast payload in the slab; the caller sets `remaining`
    /// once it knows how many deliveries were scheduled.
    fn alloc_frame(&mut self, msg: Msg) -> u32 {
        if self.free_frame != NO_FRAME {
            let f = self.free_frame;
            let slot = &mut self.frames[f as usize];
            self.free_frame = slot.next_free;
            slot.msg = msg;
            slot.remaining = 0;
            f
        } else {
            self.frames.push(Frame {
                msg,
                remaining: 0,
                next_free: NO_FRAME,
            });
            (self.frames.len() - 1) as u32
        }
    }

    /// Return a never-delivered frame slot to the free list.
    fn release_frame(&mut self, f: u32) {
        self.frames[f as usize].next_free = self.free_frame;
        self.free_frame = f;
    }

    /// Read a delivery's payload and drop its slab reference.
    fn take_frame(&mut self, f: u32) -> Msg {
        let slot = &mut self.frames[f as usize];
        let msg = slot.msg;
        slot.remaining -= 1;
        if slot.remaining == 0 {
            slot.next_free = self.free_frame;
            self.free_frame = f;
        }
        msg
    }

    // --- detection --------------------------------------------------------

    /// Node `i` (awake) registers the stimulus: transition to Covered and,
    /// for adaptive policies, start the velocity-estimation exchange.
    fn detect(&mut self, eng: &mut Engine<Ev>, i: usize) {
        let now = eng.now();
        debug_assert!(self.nodes.alive[i] && self.nodes.awake[i]);
        if self.nodes.state[i] == NodeState::Covered {
            return;
        }
        self.set_state(i, NodeState::Covered, now);
        self.nodes.detect_time[i] = Some(self.nodes.detect_time[i].unwrap_or(now).min(now));
        self.tracker.record_detection(i, now);

        if let Some(p) = self.params {
            // §3.2 alert-state detection: REQUEST, estimate, then RESPONSE.
            self.broadcast(eng, i, Msg::Request { from: i }, true);
            self.nodes.window[i] = Some(Purpose::CoveredEstimate);
            eng.schedule_in(
                p.response_window_s,
                Ev::WindowEnd(i as u32, Purpose::CoveredEstimate),
            );
            // Re-sense for receding stimuli.
            eng.schedule_in(p.detection_timeout_s, Ev::CoveredCheck(i as u32));
        }
    }

    fn on_arrival(&mut self, eng: &mut Engine<Ev>, i: usize) {
        if !self.nodes.alive[i] || !self.nodes.awake[i] {
            return; // sleeping nodes detect at their next wake
        }
        self.detect(eng, i);
    }

    // --- wake-up ------------------------------------------------------

    fn on_wake(&mut self, eng: &mut Engine<Ev>, i: usize) {
        let now = eng.now();
        debug_assert_eq!(self.wake_at[i], now, "node {i}: Wake off its recorded time");
        if !self.nodes.alive[i] || self.nodes.awake[i] {
            return;
        }
        self.nodes.wake(i, now);
        self.record_power(i, now, true);
        let covered_now = self.field.is_covered(self.nodes.pos[i], now);

        match self.policy {
            Policy::Oracle => {
                // Woke exactly at arrival; detect and stay awake.
                if covered_now {
                    self.detect(eng, i);
                } else {
                    // Receded before we woke (only possible with overrides);
                    // nothing to do — stay awake as a covered-less sentinel.
                }
            }
            Policy::Ns => unreachable!("NS nodes never sleep"),
            Policy::Sas(p) | Policy::Pas(p) => {
                if covered_now {
                    self.detect(eng, i);
                } else {
                    // Probe the neighbourhood (§3.2 safe-state behaviour).
                    self.broadcast(eng, i, Msg::Request { from: i }, true);
                    self.nodes.window[i] = Some(Purpose::SafeProbe);
                    eng.schedule_in(
                        p.response_window_s,
                        Ev::WindowEnd(i as u32, Purpose::SafeProbe),
                    );
                }
            }
        }
    }

    // --- listening-window decisions ------------------------------------

    fn on_window_end(&mut self, eng: &mut Engine<Ev>, i: usize, purpose: Purpose) {
        let now = eng.now();
        if !self.nodes.alive[i] || self.nodes.window[i] != Some(purpose) {
            return; // superseded (e.g. went Covered mid-window)
        }
        self.nodes.window[i] = None;
        let Some(p) = self.params else {
            return;
        };
        match purpose {
            Purpose::SafeProbe => {
                if self.nodes.state[i] != NodeState::Safe || !self.nodes.awake[i] {
                    return;
                }
                let (eta, vel) = self.estimate_for(i, now);
                self.nodes.expected_arrival[i] = eta;
                self.nodes.velocity[i] = vel;
                let imminent = eta.is_finite()
                    && eta <= now + p.alert_threshold_s
                    && eta + p.alert_overdue_timeout_s >= now;
                if imminent {
                    self.enter_alert(eng, i);
                } else {
                    // Uneventful probe: grow the interval and go back to sleep.
                    self.nodes.sleep_interval_s[i] =
                        p.grown_interval(self.nodes.sleep_interval_s[i]);
                    self.fall_asleep(eng, i);
                }
            }
            Purpose::CoveredEstimate => {
                if self.nodes.state[i] != NodeState::Covered {
                    return;
                }
                // Actual velocity from covered neighbours (§3.3). The very
                // first covered nodes have nobody to difference against;
                // they keep whatever expected-velocity estimate they held
                // while alert rather than erasing it — a None here would
                // sever the prediction relay at its root.
                let detect_time = self.nodes.detect_time[i].expect("covered ⇒ detected");
                let v =
                    estimate::actual_velocity(self.nodes.pos[i], detect_time, self.reports.row(i));
                self.nodes.velocity[i] = v.or(self.nodes.velocity[i]);
                // Announce the new state + estimate (§3.2: "finally it sends
                // a RESPONSE message to deliver the new changes").
                let report = self.nodes.report(i, now);
                self.broadcast(eng, i, Msg::Response { from: i, report }, true);
            }
            Purpose::AlertRefresh => {
                if self.nodes.state[i] != NodeState::Alert {
                    return; // got covered mid-refresh; detection handled it
                }
                let (eta, vel) = self.estimate_for(i, now);
                self.nodes.expected_arrival[i] = eta;
                self.nodes.velocity[i] = vel;
                let still_live = eta.is_finite()
                    && eta <= now + p.alert_threshold_s
                    && eta + p.alert_overdue_timeout_s >= now;
                if still_live {
                    eng.schedule_in(p.alert_review_interval_s, Ev::AlertReview(i as u32));
                } else {
                    // Fresh data confirms the misprediction: stand down.
                    self.alert_to_safe(eng, i, /*reset_interval=*/ true);
                }
            }
        }
    }

    // --- frame reception -------------------------------------------------

    fn on_deliver(&mut self, eng: &mut Engine<Ev>, i: usize, frame: u32) {
        let now = eng.now();
        let msg = self.take_frame(frame);
        // Half-duplex: a transmitting node cannot hear.
        if !self.nodes.alive[i] || !self.nodes.awake[i] || now < self.nodes.last_tx_end[i] {
            self.frames_unheard += 1;
            return;
        }
        self.frames_delivered += 1;
        let Some(p) = self.params else {
            return; // NS/Oracle nodes ignore traffic (they never solicit it)
        };

        match msg {
            Msg::Request { .. } => {
                // Covered nodes always answer; alert nodes answer only under
                // PAS (the prediction-relay mechanism SAS lacks).
                let answers = match self.nodes.state[i] {
                    NodeState::Covered => true,
                    NodeState::Alert => self.relays,
                    NodeState::Safe => false,
                };
                if answers {
                    let report = self.nodes.report(i, now);
                    self.broadcast(eng, i, Msg::Response { from: i, report }, false);
                }
            }
            Msg::Response { from, report } => {
                // The topology is symmetric: whoever `i` hears is in its row.
                debug_assert!(
                    self.nbr[self.nbr_off[i] as usize..self.nbr_off[i + 1] as usize]
                        .binary_search_by_key(&(from as u32), |&(id, _)| id)
                        .is_ok(),
                    "node {i} heard {from}, which is not its neighbour"
                );
                self.reports.store(i, from as u32, report);
                // Inside a window: accumulate only; the decision happens at
                // WindowEnd. Otherwise alert nodes re-estimate immediately
                // (§3.2: "re-calculates the expected arrival time").
                if self.nodes.window[i].is_none() && self.nodes.state[i] == NodeState::Alert {
                    let (eta, vel) = self.estimate_for(i, now);
                    let old = self.nodes.expected_arrival[i];
                    self.nodes.expected_arrival[i] = eta;
                    self.nodes.velocity[i] = vel;
                    if significant_change(old, eta, now, p.rebroadcast_rel_change) {
                        let report = self.nodes.report(i, now);
                        self.broadcast(eng, i, Msg::Response { from: i, report }, false);
                    }
                    // Prediction receded: fall back to safe.
                    if !(eta.is_finite() && eta <= now + p.alert_threshold_s) {
                        self.alert_to_safe(eng, i, /*reset_interval=*/ false);
                    }
                }
            }
        }
    }

    // --- periodic reviews --------------------------------------------------

    fn on_alert_review(&mut self, eng: &mut Engine<Ev>, i: usize) {
        let now = eng.now();
        if !self.nodes.alive[i] || self.nodes.state[i] != NodeState::Alert {
            return;
        }
        let Some(p) = self.params else {
            return;
        };
        let eta = self.nodes.expected_arrival[i];
        let overdue = !eta.is_finite() || now > eta + p.alert_overdue_timeout_s;
        let receded = eta.is_finite() && eta > now + p.alert_threshold_s;
        if overdue {
            // The predicted arrival came and went. Before concluding a
            // misprediction and sleeping — at precisely the moment the
            // front is likeliest to be close — re-probe for fresh reports;
            // the AlertRefresh window end makes the final call.
            self.broadcast(eng, i, Msg::Request { from: i }, true);
            self.nodes.window[i] = Some(Purpose::AlertRefresh);
            eng.schedule_in(
                p.response_window_s,
                Ev::WindowEnd(i as u32, Purpose::AlertRefresh),
            );
        } else if receded {
            // Threat receded: reset vigilance and sleep.
            self.alert_to_safe(eng, i, /*reset_interval=*/ true);
        } else {
            // Still alert: keep distributing the estimation (§3.1 — alert
            // information flows from uncovered sensors too), so probers
            // that wake nearby inside this interval can chain outward.
            if self.relays {
                let report = self.nodes.report(i, now);
                self.broadcast(eng, i, Msg::Response { from: i, report }, false);
            }
            eng.schedule_in(p.alert_review_interval_s, Ev::AlertReview(i as u32));
        }
    }

    fn on_covered_check(&mut self, eng: &mut Engine<Ev>, i: usize) {
        let now = eng.now();
        if !self.nodes.alive[i] || self.nodes.state[i] != NodeState::Covered {
            return;
        }
        let Some(p) = self.params else {
            return;
        };
        if self.field.is_covered(self.nodes.pos[i], now) {
            eng.schedule_in(p.detection_timeout_s, Ev::CoveredCheck(i as u32));
        } else {
            // §3.2: stimulus moved away; after the detection timeout the
            // node returns to safe (and our detect-time record remains).
            self.set_state(i, NodeState::Safe, now);
            self.nodes.sleep_interval_s[i] = p.base_sleep_s;
            self.fall_asleep(eng, i);
        }
    }

    fn on_fail(&mut self, eng: &mut Engine<Ev>, i: usize) {
        let now = eng.now();
        if !self.nodes.alive[i] {
            return;
        }
        self.nodes.alive[i] = false;
        let frozen = self.nodes.meter[i].sample(now.max(self.nodes.last_tx_end[i]));
        self.nodes.death_energy[i] = Some(frozen);
        let _ = eng; // no follow-up events; stale ones are filtered by `alive`
    }

    // --- helpers -----------------------------------------------------------

    /// Run the policy's mounted predictor over node `i`'s stored reports
    /// (see [`crate::predictor`] for the dispatch design). Takes `&mut
    /// self` because stateful predictors update the node's
    /// [`crate::predictor::PredictorState`].
    fn estimate_for(&mut self, i: usize, now: SimTime) -> (SimTime, Option<pas_geom::Vec2>) {
        let Some(predictor) = self.predictor else {
            return (SimTime::NEVER, None); // NS/Oracle never estimate
        };
        predictor.estimate(
            self.nodes.pos[i],
            now,
            self.reports.row(i),
            &mut self.nodes.predictor_state[i],
        )
    }

    /// Safe → Alert: stay awake, start the review cycle, and (PAS only)
    /// announce the prediction so the alert ring can propagate outward.
    /// The announcement is protocol-mandated (§3.1: uncovered sensors "also
    /// transmit alert information"), so it bypasses the storm gap.
    fn enter_alert(&mut self, eng: &mut Engine<Ev>, i: usize) {
        let p = self.params.expect("adaptive policy");
        self.set_state(i, NodeState::Alert, eng.now());
        eng.schedule_in(p.alert_review_interval_s, Ev::AlertReview(i as u32));
        if self.relays {
            let report = self.nodes.report(i, eng.now());
            self.broadcast(eng, i, Msg::Response { from: i, report }, true);
        }
    }

    /// Alert → Safe fallback: sleep again.
    fn alert_to_safe(&mut self, eng: &mut Engine<Ev>, i: usize, reset_interval: bool) {
        let p = self.params.expect("adaptive policy");
        let now = eng.now();
        self.set_state(i, NodeState::Safe, now);
        if reset_interval {
            self.nodes.sleep_interval_s[i] = p.base_sleep_s;
        }
        self.fall_asleep(eng, i);
    }

    /// Put awake node `i` to sleep for its current interval, starting once
    /// its own transmission ends, and schedule its wake. Every sleep path
    /// goes through here, so a sleeping node always has exactly one
    /// pending `Wake`, at `wake_at[i]`.
    fn fall_asleep(&mut self, eng: &mut Engine<Ev>, i: usize) {
        let now = eng.now();
        let t_sleep = now.max(self.nodes.last_tx_end[i]);
        self.nodes.sleep(i, t_sleep);
        self.record_power(i, now, false);
        self.schedule_wake(eng, i, t_sleep + self.nodes.sleep_interval_s[i]);
    }

    /// Schedule sleeping node `i`'s wake at `at` and record the time.
    fn schedule_wake(&mut self, eng: &mut Engine<Ev>, i: usize, at: SimTime) {
        self.wake_at[i] = at;
        eng.schedule_at(at, Ev::Wake(i as u32));
    }

    /// Apply a state transition, recording it when the timeline is on.
    fn set_state(&mut self, i: usize, to: NodeState, now: SimTime) {
        let from = self.nodes.state[i];
        self.nodes.transition(i, to);
        if let Some(tl) = &mut self.timeline {
            tl.push_transition(now, i, from, to);
        }
    }

    /// Record a wake/sleep edge when the timeline is on.
    fn record_power(&mut self, i: usize, now: SimTime, awake: bool) {
        if let Some(tl) = &mut self.timeline {
            tl.push_power(now, i, awake);
        }
    }

    /// Broadcast a frame from node `i`. `forced` sends bypass the storm
    /// gap (protocol-mandated sends); replies respect it.
    ///
    /// The payload is parked once in the frame slab and deliveries are
    /// scheduled straight off the flat neighbour table — no allocation.
    /// The RNG draw order matches the old radio layer exactly: one
    /// `delivers` draw per neighbour in ascending id order, one jitter draw
    /// per delivered frame, whether or not its `Deliver` is then skipped
    /// for an asleep receiver.
    fn broadcast(&mut self, eng: &mut Engine<Ev>, i: usize, msg: Msg, forced: bool) {
        let now = eng.now();
        let airtime = match msg.kind() {
            MessageKind::Request => self.airtime_request_s,
            MessageKind::Response => self.airtime_response_s,
        };
        debug_assert!(
            self.nodes.alive[i] && self.nodes.awake[i],
            "only awake nodes transmit"
        );
        // Medium busy with our own previous frame: drop this send.
        if now < self.nodes.last_tx_end[i] {
            return;
        }
        if !forced {
            if let Some(p) = &self.params {
                if let Some(last) = self.nodes.last_broadcast[i] {
                    if now.since(last) < p.min_broadcast_gap_s {
                        return;
                    }
                }
            }
        }
        // Pre-charge the TX window (see module docs).
        let meter = &mut self.nodes.meter[i];
        meter.set_mode(now, NodeMode::ACTIVE_TX);
        meter.set_mode(now + airtime, NodeMode::ACTIVE_RX);
        self.nodes.last_tx_end[i] = now + airtime;
        self.nodes.last_broadcast[i] = Some(now);
        match msg.kind() {
            MessageKind::Request => self.requests_sent += 1,
            MessageKind::Response => self.responses_sent += 1,
        }
        let frame = self.alloc_frame(msg);
        let (lo, hi) = (self.nbr_off[i] as usize, self.nbr_off[i + 1] as usize);
        let mut scheduled = 0u32;
        for &(to, dist) in &self.nbr[lo..hi] {
            if self.channel.delivers(dist, self.range, &mut self.rng) {
                let jitter = self.channel.extra_delay_s(&mut self.rng);
                let at = now + airtime + jitter;
                let r = to as usize;
                if self.elide_asleep && !self.nodes.awake[r] && self.wake_at[r] > at {
                    // Asleep through the arrival (see module docs).
                    self.elided += u64::from(at <= self.horizon);
                    continue;
                }
                eng.schedule_soon(at, Ev::Deliver { to, frame });
                scheduled += 1;
            }
        }
        if scheduled == 0 {
            self.release_frame(frame);
        } else {
            self.frames[frame as usize].remaining = scheduled;
        }
    }
}

/// Has the arrival prediction moved enough to justify a re-broadcast?
///
/// "Enough" is relative to the remaining time-to-arrival: a 2 s shift
/// matters when arrival is 5 s out, not when it is 500 s out.
fn significant_change(old: SimTime, new: SimTime, now: SimTime, rel: f64) -> bool {
    match (old.is_finite(), new.is_finite()) {
        (false, false) => false,
        (true, false) | (false, true) => true,
        (true, true) => {
            let scale = (new.since(now)).abs().max(1.0);
            (new - old).abs() / scale > rel
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeploymentKind;
    use pas_diffusion::RadialFront;
    use pas_geom::Vec2;

    fn small_scenario(seed: u64) -> Scenario {
        Scenario::paper_default(seed)
    }

    fn corner_front() -> RadialFront {
        RadialFront::constant(Vec2::new(0.0, 0.0), 1.0)
    }

    #[test]
    fn ns_has_zero_delay() {
        let s = small_scenario(1);
        let f = corner_front();
        let r = run(&s, &f, &RunConfig::new(Policy::Ns));
        assert_eq!(r.delay.reached, 30);
        assert_eq!(r.delay.detected, 30);
        assert_eq!(r.delay.missed, 0);
        assert!(
            r.delay.mean_delay_s < 1e-9,
            "NS delay {}",
            r.delay.mean_delay_s
        );
        assert_eq!(r.requests_sent, 0, "NS sends nothing");
    }

    #[test]
    fn ns_energy_is_always_on() {
        let s = small_scenario(1);
        let f = corner_front();
        let r = run(&s, &f, &RunConfig::new(Policy::Ns));
        let p = telos_profile();
        let want = p.total_active_w() * r.duration_s;
        for e in &r.per_node_energy {
            assert!((e.total_j() - want).abs() < 1e-9);
        }
    }

    #[test]
    fn oracle_zero_delay_minimal_energy() {
        let s = small_scenario(2);
        let f = corner_front();
        let r = run(&s, &f, &RunConfig::new(Policy::Oracle));
        assert_eq!(r.delay.detected, 30);
        assert!(r.delay.mean_delay_s < 1e-9);
        let ns = run(&s, &f, &RunConfig::new(Policy::Ns));
        assert!(
            r.mean_energy_j() < ns.mean_energy_j() * 0.7,
            "oracle {} vs ns {}",
            r.mean_energy_j(),
            ns.mean_energy_j()
        );
    }

    #[test]
    fn pas_detects_everything_eventually() {
        let s = small_scenario(3);
        let f = corner_front();
        let r = run(&s, &f, &RunConfig::new(Policy::pas_default()));
        assert_eq!(r.delay.reached, 30);
        assert_eq!(
            r.delay.detected, 30,
            "grace period must let every node detect; missed {}",
            r.delay.missed
        );
        assert!(r.requests_sent > 0);
        assert!(r.responses_sent > 0);
        assert!(r.alerted_ever > 0, "PAS must alert some nodes");
    }

    #[test]
    fn pas_saves_energy_vs_ns() {
        let s = small_scenario(4);
        let f = corner_front();
        let pas = run(&s, &f, &RunConfig::new(Policy::pas_default()));
        let ns = run(&s, &f, &RunConfig::new(Policy::Ns));
        assert!(
            pas.mean_energy_j() < 0.7 * ns.mean_energy_j(),
            "pas {} vs ns {}",
            pas.mean_energy_j(),
            ns.mean_energy_j()
        );
    }

    #[test]
    fn pas_beats_sas_on_delay() {
        // Average over several seeds to avoid single-topology flukes.
        let mut pas_sum = 0.0;
        let mut sas_sum = 0.0;
        for seed in 0..5 {
            let s = small_scenario(100 + seed);
            let f = corner_front();
            pas_sum += run(&s, &f, &RunConfig::new(Policy::pas_default()))
                .delay
                .mean_delay_s;
            sas_sum += run(&s, &f, &RunConfig::new(Policy::sas_default()))
                .delay
                .mean_delay_s;
        }
        assert!(
            pas_sum < sas_sum,
            "PAS delay {pas_sum} must undercut SAS {sas_sum}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let s = small_scenario(5);
        let f = corner_front();
        let cfg = RunConfig::new(Policy::pas_default());
        let a = run(&s, &f, &cfg);
        let b = run(&s, &f, &cfg);
        assert_eq!(a.delay.mean_delay_s, b.delay.mean_delay_s);
        assert_eq!(a.mean_energy_j(), b.mean_energy_j());
        assert_eq!(a.events_processed, b.events_processed);
        assert_eq!(a.requests_sent, b.requests_sent);
    }

    #[test]
    fn failures_cause_misses() {
        let s = small_scenario(6);
        let f = corner_front();
        // Kill half the nodes immediately.
        let kills: Vec<(usize, SimTime)> = (0..15)
            .map(|i| (i * 2, SimTime::from_secs(0.001)))
            .collect();
        let cfg = RunConfig::new(Policy::pas_default())
            .with_failures(crate::failure::FailurePlan::targeted(30, &kills));
        let r = run(&s, &f, &cfg);
        assert!(
            r.delay.missed >= 10,
            "dead nodes must miss, got {}",
            r.delay.missed
        );
        // Dead nodes stop burning energy.
        let dead_e = r.per_node_energy[0].total_j();
        let alive_e = r.per_node_energy[1].total_j();
        assert!(dead_e < alive_e, "dead {dead_e} alive {alive_e}");
    }

    #[test]
    fn lossy_channel_still_detects() {
        let s = small_scenario(7);
        let f = corner_front();
        let cfg = RunConfig::new(Policy::pas_default()).with_channel(ChannelKind::IidLoss(0.3));
        let r = run(&s, &f, &cfg);
        // Detection is sensing-based, not message-based: loss costs delay,
        // never detection.
        assert_eq!(r.delay.detected, 30);
    }

    #[test]
    fn quiet_field_pure_duty_cycle() {
        use pas_diffusion::field::NullField;
        let s = small_scenario(8);
        let r = run(&s, &NullField, &RunConfig::new(Policy::pas_default()));
        assert_eq!(r.delay.reached, 0);
        assert_eq!(r.duration_s, QUIET_HORIZON_S);
        assert_eq!(r.covered_final, 0);
        assert_eq!(r.alerted_ever, 0, "nothing to alert about");
        // Duty-cycled energy is a tiny fraction of always-on.
        let p = telos_profile();
        let always_on = p.total_active_w() * r.duration_s;
        assert!(r.mean_energy_j() < 0.25 * always_on);
    }

    #[test]
    fn horizon_override_respected() {
        let s = small_scenario(9);
        let f = corner_front();
        let cfg = RunConfig::new(Policy::Ns).with_horizon(10.0);
        let r = run(&s, &f, &cfg);
        assert_eq!(r.duration_s, 10.0);
        // Only nodes within 10 m of the corner are reached by t=10.
        assert!(r.delay.reached < 30);
    }

    /// A manifest may ask for sleep intervals of 1e30 s. Every first wake
    /// then lies far past the horizon: the run still ends there, with every
    /// reached node asleep through its arrival.
    #[test]
    fn astronomical_sleep_intervals_complete() {
        let params = AdaptiveParams {
            base_sleep_s: 1e30,
            max_sleep_s: 1e30,
            ..Default::default()
        };
        let cfg = RunConfig::new(Policy::Sas(params));
        let r = run(&small_scenario(3), &corner_front(), &cfg);
        assert_eq!((r.delay.reached, r.delay.detected), (30, 0));
    }

    #[test]
    fn grid_deployment_runs() {
        let s = Scenario {
            deployment: DeploymentKind::Grid { cols: 6, rows: 5 },
            ..small_scenario(10)
        };
        let f = corner_front();
        let r = run(&s, &f, &RunConfig::new(Policy::pas_default()));
        assert_eq!(r.delay.reached, 30);
        assert_eq!(r.delay.detected, 30);
    }

    #[test]
    fn receding_plume_returns_covered_nodes_to_safe() {
        use pas_diffusion::GaussianPlume;
        let s = small_scenario(21);
        // Strong still-air puff: covers much of the region, then fades.
        let plume = GaussianPlume::new(Vec2::new(20.0, 20.0), 3000.0, 1.5, Vec2::ZERO, 1.0);
        // Run past extinction so recedes actually happen before the horizon.
        let horizon = plume.extinction_time().as_secs() + 10.0;
        let cfg = RunConfig::new(Policy::pas_default())
            .with_timeline()
            .with_horizon(horizon);
        let r = run(&s, &plume, &cfg);
        assert!(r.delay.reached > 5, "puff must reach a good fraction");
        let tl = r.timeline.as_ref().unwrap();
        let covered_to_safe = tl
            .transitions
            .iter()
            .filter(|t| t.from == NodeState::Covered && t.to == NodeState::Safe)
            .count();
        assert!(
            covered_to_safe > 0,
            "receding coverage must trigger covered -> safe detection timeouts"
        );
        assert!(
            r.covered_final < r.delay.reached,
            "after extinction most nodes are safe again"
        );
        assert!(tl.first_illegal_transition().is_none());
    }

    #[test]
    fn alert_ring_gets_swept_by_the_front() {
        let s = small_scenario(22);
        let f = corner_front();
        let r = run(
            &s,
            &f,
            &RunConfig::new(Policy::pas_default()).with_timeline(),
        );
        let tl = r.timeline.as_ref().unwrap();
        let alert_to_covered = tl
            .transitions
            .iter()
            .filter(|t| t.from == NodeState::Alert && t.to == NodeState::Covered)
            .count();
        assert!(
            alert_to_covered > 0,
            "prediction must succeed for some nodes: alert then covered"
        );
    }

    #[test]
    fn ns_nodes_only_transition_safe_to_covered() {
        let s = small_scenario(23);
        let f = corner_front();
        let r = run(&s, &f, &RunConfig::new(Policy::Ns).with_timeline());
        let tl = r.timeline.as_ref().unwrap();
        assert!(!tl.transitions.is_empty());
        for t in &tl.transitions {
            assert_eq!(t.from, NodeState::Safe);
            assert_eq!(t.to, NodeState::Covered);
        }
        assert!(tl.power.is_empty(), "NS nodes never change power state");
    }

    #[test]
    fn oracle_wakes_exactly_at_arrivals() {
        let s = small_scenario(24);
        let f = corner_front();
        let r = run(&s, &f, &RunConfig::new(Policy::Oracle).with_timeline());
        let tl = r.timeline.as_ref().unwrap();
        // Every wake edge coincides with that node's ground-truth arrival.
        let topo = s.topology();
        for p in &tl.power {
            assert!(p.awake, "oracle nodes never go back to sleep");
            let arrival = f
                .first_arrival_time(topo.position(p.node))
                .expect("woken node must have an arrival");
            assert!(
                (p.t.since(arrival)).abs() < 1e-9,
                "node {} woke at {} but arrival was {}",
                p.node,
                p.t,
                arrival
            );
        }
    }

    #[test]
    fn message_counts_consistent() {
        let s = small_scenario(25);
        let f = corner_front();
        let r = run(&s, &f, &RunConfig::new(Policy::pas_default()));
        // Frames delivered plus frames unheard equals frames that physically
        // left some antenna toward some receiver (channel-lossless run).
        let per_node_rx: u64 = r.frames_delivered;
        assert!(per_node_rx > 0);
        assert!(r.requests_sent > 0 && r.responses_sent > 0);
        // Every delivery was caused by some transmission.
        assert!(
            r.frames_delivered + r.frames_unheard >= r.requests_sent + r.responses_sent,
            "broadcasts with >=1 neighbour produce >=1 planned delivery"
        );
    }

    #[test]
    fn significant_change_semantics() {
        let t = SimTime::from_secs;
        // Unknown -> known and back are always significant.
        assert!(significant_change(SimTime::NEVER, t(5.0), t(0.0), 0.2));
        assert!(significant_change(t(5.0), SimTime::NEVER, t(0.0), 0.2));
        assert!(!significant_change(
            SimTime::NEVER,
            SimTime::NEVER,
            t(0.0),
            0.2
        ));
        // 2 s shift with 5 s remaining: 40% > 20% threshold.
        assert!(significant_change(t(12.0), t(10.0), t(5.0), 0.2));
        // 2 s shift with 500 s remaining: insignificant.
        assert!(!significant_change(t(502.0), t(500.0), t(0.0), 0.2));
    }

    /// Require `got` to equal `want` in every field, the timeline
    /// included. The destructuring is exhaustive, so a new `RunResult`
    /// field fails to compile here until it is compared too.
    fn assert_same_result(got: &RunResult, want: &RunResult, ctx: &str) {
        let RunResult {
            policy_label,
            node_count,
            duration_s,
            delay,
            per_node_energy,
            requests_sent,
            responses_sent,
            frames_delivered,
            frames_unheard,
            events_processed,
            covered_final,
            alerted_ever,
            timeline,
        } = want;
        assert_eq!(&got.policy_label, policy_label, "{ctx}: policy_label");
        assert_eq!(got.node_count, *node_count, "{ctx}: node_count");
        assert_eq!(got.duration_s.to_bits(), duration_s.to_bits(), "{ctx}");
        assert_eq!(&got.delay, delay, "{ctx}: delay");
        assert_eq!(&got.per_node_energy, per_node_energy, "{ctx}: energy");
        assert_eq!(got.requests_sent, *requests_sent, "{ctx}: requests");
        assert_eq!(got.responses_sent, *responses_sent, "{ctx}: responses");
        assert_eq!(got.frames_delivered, *frames_delivered, "{ctx}: heard");
        assert_eq!(got.frames_unheard, *frames_unheard, "{ctx}: unheard");
        assert_eq!(got.events_processed, *events_processed, "{ctx}: events");
        assert_eq!(got.covered_final, *covered_final, "{ctx}: covered");
        assert_eq!(got.alerted_ever, *alerted_ever, "{ctx}: alerted");
        assert_eq!(&got.timeline, timeline, "{ctx}: timeline");
    }

    /// Skipping deliveries to receivers asleep through the arrival is
    /// exact: over seeded scenarios, every run matches a reference that
    /// schedules every delivery. The grid crosses SAS and PAS (planar and
    /// kalman predictors) with perfect, iid-loss and distance-loss
    /// channels and with no, random and targeted failures. The stimulus
    /// is an advancing front, run to its default horizon or cut short
    /// while a wake-up REQUEST is in flight (so skipped deliveries land
    /// past the horizon), or a receding plume, whose covered nodes fall
    /// back asleep through the covered-check path.
    #[test]
    fn skipping_asleep_deliveries_changes_no_result() {
        use crate::failure::FailurePlan;
        use crate::predictor::KalmanParams;
        use pas_diffusion::GaussianPlume;

        let policies = [
            Policy::sas_default(),
            Policy::pas_with(PredictorSpec::PlanarFront),
            Policy::pas_with(PredictorSpec::Kalman(KalmanParams::default())),
        ];
        let channels = [
            ChannelKind::Perfect,
            ChannelKind::IidLoss(0.3),
            ChannelKind::DistanceLoss(0.5, 0.6),
        ];
        let plume = GaussianPlume::new(Vec2::new(20.0, 20.0), 3000.0, 1.5, Vec2::ZERO, 1.0);
        let plume_horizon = plume.extinction_time().as_secs() + 10.0;
        let front = corner_front();
        let mut gen = Rng::new(0x5eed_e11d);
        for case in 0..6 {
            let s = small_scenario(gen.next_u64());
            let n = s.node_count;
            let field: &dyn StimulusField = if case % 3 == 2 { &plume } else { &front };
            let kills: Vec<(usize, SimTime)> = (0..4)
                .map(|_| (gen.index(n), SimTime::from_secs(gen.range_f64(0.0, 50.0))))
                .collect();
            let failure_plans = [
                FailurePlan::none(n),
                FailurePlan::random(n, 0.2, 60.0, &mut gen),
                FailurePlan::targeted(n, &kills),
            ];
            for policy in policies {
                for channel in channels {
                    for failures in &failure_plans {
                        let mut cfg = RunConfig::new(policy)
                            .with_channel(channel)
                            .with_failures(failures.clone())
                            .with_timeline();
                        match case % 3 {
                            0 => {}
                            1 => {
                                // A wake sends its REQUEST at once; end the
                                // run 0.1 ms later, mid-flight.
                                let probe = simulate(&s, field, &cfg, false).timeline.unwrap();
                                let wakes: Vec<SimTime> = probe
                                    .power
                                    .iter()
                                    .filter(|p| p.awake)
                                    .map(|p| p.t)
                                    .collect();
                                let cut = wakes[gen.index(wakes.len())];
                                cfg = cfg.with_horizon(cut.as_secs() + 1e-4);
                            }
                            _ => cfg = cfg.with_horizon(plume_horizon),
                        }
                        let ctx = format!(
                            "case {case} seed {} {} {channel:?} {} failures, horizon {:?}",
                            s.seed,
                            policy.label(),
                            failures.failing_count(),
                            cfg.horizon_override_s
                        );
                        let want = simulate(&s, field, &cfg, false);
                        let got = simulate(&s, field, &cfg, true);
                        assert_same_result(&got, &want, &ctx);
                    }
                }
            }
        }
    }

    #[test]
    fn event_payloads_fit_inline_queue_storage() {
        // The event queue stores (u128 key, Ev) entries inline; keeping
        // Ev at 12 bytes (32-byte entries) is the point of the frame slab.
        assert!(
            std::mem::size_of::<Ev>() <= 12,
            "Ev grew to {} bytes",
            std::mem::size_of::<Ev>()
        );
        // A heap slot holds `Option<Ev>` (`None` once its event is
        // popped); the enum's tag leaves room for `None`, so the slot is
        // no larger than the event.
        assert_eq!(std::mem::size_of::<Option<Ev>>(), std::mem::size_of::<Ev>());
    }
}
