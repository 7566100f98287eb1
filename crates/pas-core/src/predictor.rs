//! Pluggable arrival predictors — the estimation path as a first-class,
//! sweepable subsystem.
//!
//! ## Why an enum, not a trait object
//!
//! The predictor runs inside the runner's wake-decision loop: every safe
//! probe, alert review and RESPONSE reception ends in one `estimate` call.
//! [`PredictorSpec`] is a small `Copy` enum and `estimate` dispatches with
//! a `match`, so the hot path stays monomorphic — no vtable indirection,
//! no allocation, and the compiler sees through the dispatch when a run
//! uses a single variant (which is every run). Variants that need memory
//! (the Kalman filter) keep it in a per-node [`PredictorState`] owned by
//! the node, not the predictor, so the spec itself stays shareable and
//! hashable for cache keys.
//!
//! ## Variants
//!
//! | name              | arrival estimate                                | velocity reported | alert reports used |
//! |-------------------|--------------------------------------------------|-------------------|--------------------|
//! | `planar`          | paper §3.3 planar front, `min` over neighbours   | mean of reports   | yes |
//! | `non_directional` | SAS: `min_I (T_I + \|IX\|/v_I)`, covered only    | none              | no  |
//! | `kalman`          | planar front driven by a recursive velocity filter | filtered state  | yes |
//! | `quantile`        | k-th smallest planar neighbour arrival           | mean of reports   | yes |
//!
//! [`PredictorSpec::Default`] is a *declaration*, not an algorithm: it
//! resolves to the policy kind's own estimator (planar front for PAS,
//! non-directional for SAS) via [`PredictorSpec::resolve`]. This is what
//! keeps every pre-existing `Policy::Pas(params)` / `Policy::Sas(params)`
//! construction site — and every cached result keyed on them —
//! bit-for-bit identical to the pre-refactor code.
//!
//! The paper's degeneration claim ("by greatly reducing the threshold
//! value of alert time, PAS can degenerate into SAS") becomes *exact*
//! under this design: a PAS policy with the `non_directional` predictor
//! ignores alert reports, therefore never relays predictions (see
//! [`crate::Policy::relays_predictions`]), and is event-for-event
//! identical to SAS with the same parameters — pinned by the
//! `degeneration_prop` integration test.

use crate::estimate;
use crate::msg::Report;
use crate::state::NodeState;
use pas_geom::Vec2;
use pas_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Parameters of the Kalman velocity-fusion predictor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KalmanParams {
    /// Process-noise variance added per second of elapsed time — how fast
    /// the filter forgets: the front's velocity random-walk rate, (m/s)²/s.
    pub process_var: f64,
    /// Measurement-noise variance of one reported chord velocity, (m/s)².
    pub measurement_var: f64,
}

impl Default for KalmanParams {
    fn default() -> Self {
        KalmanParams {
            process_var: 0.05,
            measurement_var: 0.5,
        }
    }
}

/// Parameters of the robust-quantile fusion predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantileParams {
    /// Use the k-th smallest neighbour arrival (1-based; `k = 1` is the
    /// paper's raw `min`). Clamped to the number of usable reports, so a
    /// lone report still informs.
    pub k: usize,
}

impl Default for QuantileParams {
    fn default() -> Self {
        QuantileParams { k: 2 }
    }
}

/// Which arrival estimator an adaptive policy runs (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PredictorSpec {
    /// The policy kind's own default estimator: planar front for PAS,
    /// non-directional for SAS. Resolves via [`PredictorSpec::resolve`].
    Default,
    /// Paper §3.3: locally planar front, directional `cos θ` projection,
    /// minimum over covered + alert neighbours.
    PlanarFront,
    /// The SAS baseline: covered neighbours only, no direction term.
    NonDirectional,
    /// Planar-front arrival driven by a recursive (Kalman-filtered)
    /// front-velocity state instead of one-shot chord averaging.
    Kalman(KalmanParams),
    /// Robust fusion: k-th smallest planar neighbour arrival instead of
    /// the raw `min` — tolerant of one outlier chord from a noisy channel.
    RobustQuantile(QuantileParams),
}

/// Every concrete predictor name, in registry order (sweep axes and CLI
/// help render from this).
pub const PREDICTOR_NAMES: [&str; 4] = ["planar", "non_directional", "kalman", "quantile"];

/// The predictor-qualified form of a policy label — `PAS` + `kalman` →
/// `PAS[kalman]`. The single definition of the suffix format, shared by
/// [`crate::Policy::label`], manifest default labels and swept-point
/// labels in `pas-scenario`.
pub fn qualified_label(base: &str, predictor_name: &str) -> String {
    format!("{base}[{predictor_name}]")
}

impl PredictorSpec {
    /// Resolve a [`PredictorSpec::Default`] declaration against the policy
    /// kind's own estimator; concrete variants pass through.
    pub fn resolve(self, kind_default: PredictorSpec) -> PredictorSpec {
        match self {
            PredictorSpec::Default => kind_default,
            other => other,
        }
    }

    /// Short stable name (manifest / sweep-axis / label vocabulary).
    ///
    /// [`PredictorSpec::Default`] has no name of its own — resolve first.
    pub fn name(&self) -> &'static str {
        match self {
            PredictorSpec::Default | PredictorSpec::PlanarFront => "planar",
            PredictorSpec::NonDirectional => "non_directional",
            PredictorSpec::Kalman(_) => "kalman",
            PredictorSpec::RobustQuantile(_) => "quantile",
        }
    }

    /// Build the named predictor with its default parameters.
    pub fn from_name(name: &str) -> Option<PredictorSpec> {
        match name {
            "planar" => Some(PredictorSpec::PlanarFront),
            "non_directional" => Some(PredictorSpec::NonDirectional),
            "kalman" => Some(PredictorSpec::Kalman(KalmanParams::default())),
            "quantile" => Some(PredictorSpec::RobustQuantile(QuantileParams::default())),
            _ => None,
        }
    }

    /// Whether this estimator consumes alert-neighbour reports. Predictors
    /// that ignore them make relaying predictions pointless, which is what
    /// turns PAS into SAS (see module docs).
    pub fn uses_alert_reports(&self) -> bool {
        !matches!(self, PredictorSpec::NonDirectional)
    }

    /// The first rule the parameters break, if any: every number finite
    /// and in range.
    pub fn check(&self) -> Result<(), String> {
        let broken = |rule: &str| Err(rule.to_string());
        match self {
            PredictorSpec::Kalman(k) if !(k.process_var.is_finite() && k.process_var >= 0.0) => {
                broken("kalman process_var must be finite and >= 0")
            }
            PredictorSpec::Kalman(k)
                if !(k.measurement_var.is_finite() && k.measurement_var > 0.0) =>
            {
                broken("kalman measurement_var must be finite and > 0")
            }
            PredictorSpec::RobustQuantile(q) if q.k < 1 => broken("quantile k must be >= 1"),
            _ => Ok(()),
        }
    }

    /// Validate parameters.
    ///
    /// # Panics
    /// Panics with [`PredictorSpec::check`]'s message.
    pub fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("{msg}");
        }
    }

    /// Run the estimator over a node's stored reports.
    ///
    /// Returns `(expected arrival, velocity estimate)`; the arrival is
    /// [`SimTime::NEVER`] when nothing informs it. `state` is the calling
    /// node's [`PredictorState`]; stateless variants leave it untouched.
    /// An unresolved [`PredictorSpec::Default`] estimates as the planar
    /// front (callers resolve through [`crate::Policy::predictor`]).
    pub fn estimate(
        &self,
        pos: Vec2,
        now: SimTime,
        reports: &[Report],
        state: &mut PredictorState,
    ) -> (SimTime, Option<Vec2>) {
        match self {
            PredictorSpec::Default | PredictorSpec::PlanarFront => (
                estimate::pas_expected_arrival(pos, reports),
                estimate::expected_velocity(reports),
            ),
            PredictorSpec::NonDirectional => (estimate::sas_expected_arrival(pos, reports), None),
            PredictorSpec::Kalman(params) => kalman_estimate(*params, pos, now, reports, state),
            PredictorSpec::RobustQuantile(params) => (
                quantile_arrival(pos, reports, params.k),
                estimate::expected_velocity(reports),
            ),
        }
    }
}

/// Per-node predictor memory, owned by the node (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum PredictorState {
    /// No memory: planar, non-directional and quantile fusion are pure
    /// functions of the current report set.
    #[default]
    Stateless,
    /// Recursive velocity belief of the Kalman predictor.
    Kalman(KalmanState),
}

/// The Kalman predictor's scalar-covariance velocity belief.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KalmanState {
    /// Fused front-velocity estimate.
    pub velocity: Vec2,
    /// Scalar covariance of the estimate, (m/s)².
    pub variance: f64,
    /// Time of the last filter update (process noise accrues from here).
    pub updated: SimTime,
    /// Fingerprint of the observation set last folded in. An unchanged
    /// report set is *not* new information: re-measuring it every alert
    /// review would collapse the variance by repetition and leave the
    /// filter overconfident against genuinely new reports.
    pub obs_hash: u64,
}

/// FNV-1a fingerprint of the qualifying observation set (position,
/// velocity and time base of each report, as raw bits, in report order).
fn observation_hash<'r>(observations: impl Iterator<Item = &'r Report>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bits: u64| {
        for b in bits.to_be_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for r in observations {
        let v = r.velocity.unwrap_or(Vec2::ZERO);
        fold(r.pos.x.to_bits());
        fold(r.pos.y.to_bits());
        fold(v.x.to_bits());
        fold(v.y.to_bits());
        fold(r.ref_time.as_secs().to_bits());
    }
    h
}

/// Kalman velocity fusion: predict (inflate variance by elapsed time),
/// then — only when the report set actually changed since the last fold —
/// fold each reported velocity in as a measurement; the arrival is the
/// planar-front minimum computed with the *fused* velocity.
fn kalman_estimate(
    params: KalmanParams,
    pos: Vec2,
    now: SimTime,
    reports: &[Report],
    state: &mut PredictorState,
) -> (SimTime, Option<Vec2>) {
    // Observations: exactly the reports `expected_velocity` would average.
    let observations = || {
        reports.iter().filter(|r| {
            matches!(r.state, NodeState::Covered | NodeState::Alert)
                && r.velocity.is_some_and(|v| v.norm() >= estimate::MIN_SPEED)
        })
    };
    let obs_hash = observation_hash(observations());

    let mut ks = match *state {
        PredictorState::Kalman(ks) => {
            let mut ks = ks;
            // Predict step: the front may have changed since the last look.
            ks.variance += params.process_var * now.since(ks.updated).max(0.0);
            Some(ks)
        }
        PredictorState::Stateless => None,
    };
    if ks.is_none_or(|ks| ks.obs_hash != obs_hash) {
        for r in observations() {
            let obs = r.velocity.expect("filtered above");
            ks = Some(match ks {
                None => KalmanState {
                    velocity: obs,
                    variance: params.measurement_var,
                    updated: now,
                    obs_hash,
                },
                Some(mut ks) => {
                    let gain = ks.variance / (ks.variance + params.measurement_var);
                    ks.velocity += (obs - ks.velocity) * gain;
                    ks.variance *= 1.0 - gain;
                    ks
                }
            });
        }
    }
    let Some(mut ks) = ks else {
        return (SimTime::NEVER, None); // never observed a velocity
    };
    ks.updated = now;
    ks.obs_hash = obs_hash;
    *state = PredictorState::Kalman(ks);

    let speed = ks.velocity.norm();
    if speed < estimate::MIN_SPEED {
        return (SimTime::NEVER, None);
    }
    // Planar-front arrival with the fused velocity standing in for each
    // reporter's own estimate: same geometry, steadier direction.
    let eta = reports
        .iter()
        .filter(|r| matches!(r.state, NodeState::Covered | NodeState::Alert))
        .map(|r| {
            let ix = pos - r.pos;
            let along = ix.norm() * pas_geom::angle::included_cos(ks.velocity, ix);
            r.ref_time + (along / speed).max(0.0)
        })
        .min()
        .unwrap_or(SimTime::NEVER);
    (eta, Some(ks.velocity))
}

/// k-th smallest planar neighbour arrival (1-based; clamped to the number
/// of usable reports so a lone report still informs).
fn quantile_arrival(pos: Vec2, reports: &[Report], k: usize) -> SimTime {
    let mut etas: Vec<SimTime> = reports
        .iter()
        .filter(|r| matches!(r.state, NodeState::Covered | NodeState::Alert))
        .map(|r| estimate::arrival_from_report(pos, r))
        .filter(|t| t.is_finite())
        .collect();
    if etas.is_empty() {
        return SimTime::NEVER;
    }
    etas.sort_unstable();
    etas[k.clamp(1, etas.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn covered(pos: Vec2, detect: f64, velocity: Option<Vec2>) -> Report {
        Report {
            pos,
            state: NodeState::Covered,
            velocity,
            ref_time: t(detect),
        }
    }

    #[test]
    fn names_roundtrip() {
        for name in PREDICTOR_NAMES {
            let spec = PredictorSpec::from_name(name).expect("registered name");
            assert_eq!(spec.name(), name);
            spec.validate();
        }
        assert!(PredictorSpec::from_name("nonsense").is_none());
    }

    #[test]
    fn default_resolves_per_kind() {
        assert_eq!(
            PredictorSpec::Default.resolve(PredictorSpec::PlanarFront),
            PredictorSpec::PlanarFront
        );
        assert_eq!(
            PredictorSpec::Default.resolve(PredictorSpec::NonDirectional),
            PredictorSpec::NonDirectional
        );
        // Concrete variants ignore the kind default.
        assert_eq!(
            PredictorSpec::NonDirectional.resolve(PredictorSpec::PlanarFront),
            PredictorSpec::NonDirectional
        );
    }

    #[test]
    fn planar_and_non_directional_match_the_free_estimators() {
        let pos = Vec2::new(10.0, 4.0);
        let reports = [
            covered(Vec2::ZERO, 1.0, Some(Vec2::new(1.0, 0.0))),
            covered(Vec2::new(3.0, 1.0), 2.0, Some(Vec2::new(0.8, 0.1))),
        ];
        let mut state = PredictorState::Stateless;
        let (eta_p, v_p) = PredictorSpec::PlanarFront.estimate(pos, t(5.0), &reports, &mut state);
        assert_eq!(eta_p, estimate::pas_expected_arrival(pos, &reports));
        assert_eq!(v_p, estimate::expected_velocity(&reports));
        let (eta_s, v_s) =
            PredictorSpec::NonDirectional.estimate(pos, t(5.0), &reports, &mut state);
        assert_eq!(eta_s, estimate::sas_expected_arrival(pos, &reports));
        assert_eq!(v_s, None);
        assert_eq!(state, PredictorState::Stateless, "stateless variants");
    }

    #[test]
    fn quantile_k1_is_min_and_k2_skips_the_outlier() {
        let pos = Vec2::new(10.0, 0.0);
        // One wild chord predicting "due now", two sane ones.
        let reports = [
            covered(Vec2::new(12.0, 0.0), 0.0, Some(Vec2::new(-5.0, 0.0))), // behind: eta 0
            covered(Vec2::ZERO, 0.0, Some(Vec2::new(1.0, 0.0))),            // eta 10
            covered(Vec2::new(2.0, 0.0), 0.0, Some(Vec2::new(1.0, 0.0))),   // eta 8
        ];
        let mut state = PredictorState::Stateless;
        let (k1, _) = PredictorSpec::RobustQuantile(QuantileParams { k: 1 }).estimate(
            pos,
            t(0.0),
            &reports,
            &mut state,
        );
        assert_eq!(k1, estimate::pas_expected_arrival(pos, &reports));
        let (k2, _) = PredictorSpec::RobustQuantile(QuantileParams { k: 2 }).estimate(
            pos,
            t(0.0),
            &reports,
            &mut state,
        );
        assert!((k2.as_secs() - 8.0).abs() < 1e-12, "second smallest: {k2}");
    }

    #[test]
    fn quantile_clamps_k_to_report_count() {
        let pos = Vec2::new(10.0, 0.0);
        let reports = [covered(Vec2::ZERO, 0.0, Some(Vec2::new(1.0, 0.0)))];
        let mut state = PredictorState::Stateless;
        let (eta, _) = PredictorSpec::RobustQuantile(QuantileParams { k: 5 }).estimate(
            pos,
            t(0.0),
            &reports,
            &mut state,
        );
        assert!((eta.as_secs() - 10.0).abs() < 1e-12, "lone report informs");
        let (none, _) = PredictorSpec::RobustQuantile(QuantileParams { k: 5 }).estimate(
            pos,
            t(0.0),
            &[],
            &mut state,
        );
        assert_eq!(none, SimTime::NEVER);
    }

    #[test]
    fn kalman_initialises_then_converges_toward_observations() {
        let spec = PredictorSpec::Kalman(KalmanParams::default());
        let pos = Vec2::new(10.0, 0.0);
        let mut state = PredictorState::Stateless;
        let reports = [covered(Vec2::ZERO, 0.0, Some(Vec2::new(2.0, 0.0)))];
        let (eta, v) = spec.estimate(pos, t(1.0), &reports, &mut state);
        // First observation initialises the belief outright.
        assert_eq!(v, Some(Vec2::new(2.0, 0.0)));
        assert!((eta.as_secs() - 5.0).abs() < 1e-12);
        assert!(matches!(state, PredictorState::Kalman(_)));

        // A new, different observation pulls the belief toward it without
        // jumping all the way (one-shot averaging would land midway; the
        // filter weighs its accumulated confidence).
        let reports2 = [covered(Vec2::new(1.0, 0.0), 0.5, Some(Vec2::new(4.0, 0.0)))];
        let (_, v2) = spec.estimate(pos, t(2.0), &reports2, &mut state);
        let vx = v2.unwrap().x;
        assert!(vx > 2.0 && vx < 4.0, "fused velocity {vx} between 2 and 4");
    }

    #[test]
    fn kalman_without_observations_is_never() {
        let spec = PredictorSpec::Kalman(KalmanParams::default());
        let mut state = PredictorState::Stateless;
        let (eta, v) = spec.estimate(Vec2::ZERO, t(1.0), &[], &mut state);
        assert_eq!(eta, SimTime::NEVER);
        assert_eq!(v, None);
        assert_eq!(state, PredictorState::Stateless, "nothing to remember yet");
    }

    #[test]
    fn kalman_does_not_refold_unchanged_reports() {
        let spec = PredictorSpec::Kalman(KalmanParams::default());
        let pos = Vec2::new(10.0, 0.0);
        let mut state = PredictorState::Stateless;
        let reports = [
            covered(Vec2::ZERO, 0.0, Some(Vec2::new(2.0, 0.0))),
            covered(Vec2::new(1.0, 0.0), 0.5, Some(Vec2::new(3.0, 0.0))),
        ];
        let (_, v1) = spec.estimate(pos, t(1.0), &reports, &mut state);
        let PredictorState::Kalman(ks1) = state else {
            panic!("initialised");
        };
        // Same reports seen again at a later review: no re-measurement —
        // the velocity belief is bit-identical and the variance has only
        // grown (process noise), never shrunk from repeated data.
        let (_, v2) = spec.estimate(pos, t(3.0), &reports, &mut state);
        let PredictorState::Kalman(ks2) = state else {
            panic!("still kalman");
        };
        assert_eq!(v1, v2, "unchanged reports must not move the belief");
        assert!(ks2.variance > ks1.variance, "uncertainty grows with time");
        // A genuinely new report set folds again.
        let changed = [
            reports[0],
            covered(Vec2::new(1.0, 0.0), 0.5, Some(Vec2::new(5.0, 0.0))),
        ];
        let (_, v3) = spec.estimate(pos, t(4.0), &changed, &mut state);
        assert_ne!(v2, v3, "new information must update the belief");
    }

    #[test]
    fn kalman_is_deterministic() {
        let spec = PredictorSpec::Kalman(KalmanParams::default());
        let pos = Vec2::new(8.0, 3.0);
        let reports = [
            covered(Vec2::ZERO, 0.0, Some(Vec2::new(1.0, 0.2))),
            covered(Vec2::new(2.0, 0.0), 1.0, Some(Vec2::new(1.1, 0.0))),
        ];
        let mut a = PredictorState::Stateless;
        let mut b = PredictorState::Stateless;
        let ra = spec.estimate(pos, t(3.0), &reports, &mut a);
        let rb = spec.estimate(pos, t(3.0), &reports, &mut b);
        assert_eq!(ra, rb);
        assert_eq!(a, b);
    }

    #[test]
    fn alert_usage_flags() {
        assert!(PredictorSpec::PlanarFront.uses_alert_reports());
        assert!(PredictorSpec::Kalman(KalmanParams::default()).uses_alert_reports());
        assert!(PredictorSpec::RobustQuantile(QuantileParams::default()).uses_alert_reports());
        assert!(!PredictorSpec::NonDirectional.uses_alert_reports());
    }

    #[test]
    #[should_panic(expected = "measurement_var")]
    fn kalman_rejects_zero_measurement_var() {
        PredictorSpec::Kalman(KalmanParams {
            process_var: 0.1,
            measurement_var: 0.0,
        })
        .validate();
    }

    #[test]
    #[should_panic(expected = "k must be >= 1")]
    fn quantile_rejects_k_zero() {
        PredictorSpec::RobustQuantile(QuantileParams { k: 0 }).validate();
    }
}
