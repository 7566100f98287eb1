//! Sleep policies: NS, SAS, PAS and the Oracle bound.
//!
//! [`AdaptiveParams`] carries the knobs shared by the adaptive schemes;
//! [`Policy`] selects the scheme. The paper's two swept parameters map to
//! [`AdaptiveParams::max_sleep_s`] (Figs. 4/6 x-axis) and
//! [`AdaptiveParams::alert_threshold_s`] (Figs. 5/7 x-axis). The arrival
//! estimator itself is a parameter too: [`AdaptiveParams::predictor`]
//! selects a [`PredictorSpec`] variant, defaulting to the policy kind's
//! own estimator (see [`crate::predictor`] for the dispatch design).

use crate::predictor::PredictorSpec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Parameters of the adaptive (SAS/PAS) sleeping mechanisms.
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveParams {
    /// Initial sleep interval (s); the interval resets to this on
    /// alert → safe fallback.
    pub base_sleep_s: f64,
    /// Linear increment Δt added to the sleep interval per uneventful
    /// wake-up (§3.4 "a linearly increasing sleeping time").
    pub delta_t_s: f64,
    /// Maximum sleep interval (s) — the Figs. 4/6 sweep variable.
    pub max_sleep_s: f64,
    /// Alert-time threshold (s): go Alert when the predicted arrival is
    /// within this horizon — the Figs. 5/7 sweep variable.
    pub alert_threshold_s: f64,
    /// How long an awake prober listens for RESPONSEs before deciding (s).
    pub response_window_s: f64,
    /// Relative change in predicted arrival that triggers an unsolicited
    /// RESPONSE re-broadcast from an alert node (§3.2 "if the difference
    /// between the expectations has changed significantly").
    pub rebroadcast_rel_change: f64,
    /// Minimum spacing between a node's broadcasts (s) — storm suppression.
    pub min_broadcast_gap_s: f64,
    /// How often an alert node re-examines its state (s).
    pub alert_review_interval_s: f64,
    /// How long past its predicted arrival an alert node waits before
    /// concluding a misprediction and falling back to safe (s).
    pub alert_overdue_timeout_s: f64,
    /// Covered nodes re-sense at this period; if the stimulus has receded
    /// they return to safe after `detection_timeout_s` (§3.2 "the sensor
    /// will wait for a detection timeout").
    pub detection_timeout_s: f64,
    /// Arrival estimator; [`PredictorSpec::Default`] resolves to the
    /// policy kind's own (planar front for PAS, non-directional for SAS).
    pub predictor: PredictorSpec,
}

impl Default for AdaptiveParams {
    fn default() -> Self {
        AdaptiveParams {
            base_sleep_s: 1.0,
            delta_t_s: 1.0,
            max_sleep_s: 10.0,
            alert_threshold_s: 15.0,
            response_window_s: 0.1,
            rebroadcast_rel_change: 0.2,
            min_broadcast_gap_s: 0.25,
            alert_review_interval_s: 2.0,
            alert_overdue_timeout_s: 10.0,
            detection_timeout_s: 5.0,
            predictor: PredictorSpec::Default,
        }
    }
}

/// Hand-rolled so the output with a [`PredictorSpec::Default`] predictor
/// is byte-identical to the pre-predictor derived form: `pas-server`
/// content-addresses cached results by this rendering, and existing
/// manifests must keep their warm cache entries. Non-default predictors
/// append a `predictor` field, which is exactly what makes their cache
/// keys distinct.
impl fmt::Debug for AdaptiveParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("AdaptiveParams");
        d.field("base_sleep_s", &self.base_sleep_s)
            .field("delta_t_s", &self.delta_t_s)
            .field("max_sleep_s", &self.max_sleep_s)
            .field("alert_threshold_s", &self.alert_threshold_s)
            .field("response_window_s", &self.response_window_s)
            .field("rebroadcast_rel_change", &self.rebroadcast_rel_change)
            .field("min_broadcast_gap_s", &self.min_broadcast_gap_s)
            .field("alert_review_interval_s", &self.alert_review_interval_s)
            .field("alert_overdue_timeout_s", &self.alert_overdue_timeout_s)
            .field("detection_timeout_s", &self.detection_timeout_s);
        if self.predictor != PredictorSpec::Default {
            d.field("predictor", &self.predictor);
        }
        d.finish()
    }
}

impl AdaptiveParams {
    /// The first invariant the parameters break, if any: every field
    /// finite, the intervals positive, `max_sleep_s >= base_sleep_s`, and
    /// the predictor's own rules ([`PredictorSpec::check`]). The one list
    /// of rules, which [`AdaptiveParams::validate`] and manifest validation
    /// both read.
    pub fn check(&self) -> Result<(), String> {
        let positive = [
            ("base_sleep_s", self.base_sleep_s),
            ("response_window_s", self.response_window_s),
            ("rebroadcast_rel_change", self.rebroadcast_rel_change),
            ("alert_review_interval_s", self.alert_review_interval_s),
            ("alert_overdue_timeout_s", self.alert_overdue_timeout_s),
            ("detection_timeout_s", self.detection_timeout_s),
        ];
        // (field, value, floor, the floor's name)
        let at_least = [
            ("delta_t_s", self.delta_t_s, 0.0, "0"),
            (
                "max_sleep_s",
                self.max_sleep_s,
                self.base_sleep_s,
                "base_sleep_s",
            ),
            ("alert_threshold_s", self.alert_threshold_s, 0.0, "0"),
            ("min_broadcast_gap_s", self.min_broadcast_gap_s, 0.0, "0"),
        ];
        for (field, value) in positive {
            if !(value.is_finite() && value > 0.0) {
                return Err(format!("{field} must be finite and > 0"));
            }
        }
        for (field, value, floor, name) in at_least {
            if !(value.is_finite() && value >= floor) {
                return Err(format!("{field} must be finite and >= {name}"));
            }
        }
        self.predictor.check()
    }

    /// Validate invariants.
    ///
    /// # Panics
    /// Panics with [`AdaptiveParams::check`]'s message.
    pub fn validate(&self) {
        if let Err(msg) = self.check() {
            panic!("{msg}");
        }
    }

    /// The next sleep interval after an uneventful wake-up: grow linearly,
    /// saturate at the maximum (§3.4).
    pub fn grown_interval(&self, current: f64) -> f64 {
        (current + self.delta_t_s).min(self.max_sleep_s)
    }
}

/// Which sleeping mechanism a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// No sleeping: every node awake for the whole run (paper's NS).
    Ns,
    /// Stimulus-based adaptive sleeping (Ngan et al. 2005), reconstructed:
    /// covered-neighbour-only information, non-directional arrival
    /// estimate, minimal alert ring.
    Sas(AdaptiveParams),
    /// Prediction-based adaptive sleeping — the paper's contribution.
    Pas(AdaptiveParams),
    /// The §3.1 ideal: each node sleeps until exactly its ground-truth
    /// arrival time. Zero delay at near-zero energy; the unreachable lower
    /// bound for both metrics.
    Oracle,
}

impl Policy {
    /// Default-parameter SAS with the degenerate alert threshold.
    pub fn sas_default() -> Policy {
        Policy::Sas(AdaptiveParams {
            // "By greatly reducing the threshold value of alert time, PAS
            // can degenerate into SAS" — SAS's effective alert horizon is
            // the time to ride out one probe cycle, not a prediction window.
            alert_threshold_s: 2.0,
            ..AdaptiveParams::default()
        })
    }

    /// Default-parameter PAS.
    pub fn pas_default() -> Policy {
        Policy::Pas(AdaptiveParams::default())
    }

    /// Default-parameter PAS running the given predictor variant.
    pub fn pas_with(predictor: PredictorSpec) -> Policy {
        Policy::Pas(AdaptiveParams {
            predictor,
            ..AdaptiveParams::default()
        })
    }

    /// The adaptive parameters, if this policy has them.
    pub fn params(&self) -> Option<&AdaptiveParams> {
        match self {
            Policy::Sas(p) | Policy::Pas(p) => Some(p),
            Policy::Ns | Policy::Oracle => None,
        }
    }

    /// The policy kind's own default estimator ([`PredictorSpec::Default`]
    /// resolves to this).
    fn kind_default_predictor(&self) -> PredictorSpec {
        match self {
            Policy::Sas(_) => PredictorSpec::NonDirectional,
            _ => PredictorSpec::PlanarFront,
        }
    }

    /// The resolved arrival predictor this policy runs, if adaptive.
    pub fn predictor(&self) -> Option<PredictorSpec> {
        self.params()
            .map(|p| p.predictor.resolve(self.kind_default_predictor()))
    }

    /// Short label for tables. The base kind ("NS", "SAS", "PAS",
    /// "Oracle") is suffixed with the predictor name when a non-default
    /// estimator is mounted — `PAS[kalman]` — so parameterised variants
    /// stay distinguishable in every sink; default predictors keep the
    /// historical bare labels.
    pub fn label(&self) -> String {
        let base = match self {
            Policy::Ns => "NS",
            Policy::Sas(_) => "SAS",
            Policy::Pas(_) => "PAS",
            Policy::Oracle => "Oracle",
        };
        match self.predictor() {
            Some(p) if p.name() != self.kind_default_predictor().name() => {
                crate::predictor::qualified_label(base, p.name())
            }
            _ => base.to_string(),
        }
    }

    /// `true` if nodes under this policy relay predictions through the
    /// alert ring — the PAS-only mechanism, and only worth the airtime
    /// when the mounted predictor actually consumes alert reports. A PAS
    /// policy demoted to the non-directional estimator therefore stops
    /// relaying, which is precisely the paper's "PAS can degenerate into
    /// SAS" claim made exact (see [`crate::predictor`]).
    pub fn relays_predictions(&self) -> bool {
        matches!(self, Policy::Pas(_)) && self.predictor().is_some_and(|p| p.uses_alert_reports())
    }

    /// Validate any embedded parameters.
    pub fn validate(&self) {
        if let Some(p) = self.params() {
            p.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        AdaptiveParams::default().validate();
        Policy::sas_default().validate();
        Policy::pas_default().validate();
        Policy::Ns.validate();
        Policy::Oracle.validate();
    }

    #[test]
    fn growth_saturates() {
        let p = AdaptiveParams {
            base_sleep_s: 1.0,
            delta_t_s: 2.0,
            max_sleep_s: 6.0,
            ..AdaptiveParams::default()
        };
        assert_eq!(p.grown_interval(1.0), 3.0);
        assert_eq!(p.grown_interval(5.0), 6.0);
        assert_eq!(p.grown_interval(6.0), 6.0);
    }

    #[test]
    fn growth_with_zero_delta_is_fixed() {
        let p = AdaptiveParams {
            delta_t_s: 0.0,
            ..AdaptiveParams::default()
        };
        assert_eq!(p.grown_interval(4.0), 4.0);
    }

    #[test]
    fn labels_and_relay() {
        assert_eq!(Policy::Ns.label(), "NS");
        assert_eq!(Policy::sas_default().label(), "SAS");
        assert_eq!(Policy::pas_default().label(), "PAS");
        assert_eq!(Policy::Oracle.label(), "Oracle");
        assert!(Policy::pas_default().relays_predictions());
        assert!(!Policy::sas_default().relays_predictions());
        assert!(!Policy::Ns.relays_predictions());
    }

    #[test]
    fn labels_name_non_default_predictors() {
        use crate::predictor::{KalmanParams, QuantileParams};
        assert_eq!(
            Policy::pas_with(PredictorSpec::Kalman(KalmanParams::default())).label(),
            "PAS[kalman]"
        );
        assert_eq!(
            Policy::pas_with(PredictorSpec::RobustQuantile(QuantileParams::default())).label(),
            "PAS[quantile]"
        );
        assert_eq!(
            Policy::pas_with(PredictorSpec::NonDirectional).label(),
            "PAS[non_directional]"
        );
        // Explicitly mounting the kind's own default keeps the bare label.
        assert_eq!(Policy::pas_with(PredictorSpec::PlanarFront).label(), "PAS");
        assert_eq!(
            Policy::Sas(AdaptiveParams {
                predictor: PredictorSpec::PlanarFront,
                ..AdaptiveParams::default()
            })
            .label(),
            "SAS[planar]"
        );
    }

    #[test]
    fn predictor_resolution_per_kind() {
        assert_eq!(
            Policy::pas_default().predictor(),
            Some(PredictorSpec::PlanarFront)
        );
        assert_eq!(
            Policy::sas_default().predictor(),
            Some(PredictorSpec::NonDirectional)
        );
        assert_eq!(Policy::Ns.predictor(), None);
        assert_eq!(Policy::Oracle.predictor(), None);
    }

    #[test]
    fn non_directional_pas_stops_relaying() {
        // The degeneration hinge: a PAS whose estimator ignores alert
        // reports has nothing worth relaying.
        assert!(!Policy::pas_with(PredictorSpec::NonDirectional).relays_predictions());
        assert!(Policy::pas_with(PredictorSpec::PlanarFront).relays_predictions());
    }

    #[test]
    fn params_debug_is_stable_for_default_predictor() {
        // pas-server keys its result cache on this rendering; the default
        // form must match the historical derived output exactly.
        assert_eq!(
            format!("{:?}", AdaptiveParams::default()),
            "AdaptiveParams { base_sleep_s: 1.0, delta_t_s: 1.0, max_sleep_s: 10.0, \
             alert_threshold_s: 15.0, response_window_s: 0.1, rebroadcast_rel_change: 0.2, \
             min_broadcast_gap_s: 0.25, alert_review_interval_s: 2.0, \
             alert_overdue_timeout_s: 10.0, detection_timeout_s: 5.0 }"
        );
        let custom = AdaptiveParams {
            predictor: PredictorSpec::NonDirectional,
            ..AdaptiveParams::default()
        };
        assert!(
            format!("{custom:?}").contains("predictor: NonDirectional"),
            "non-default predictors must be visible to the cache key"
        );
    }

    #[test]
    fn params_accessor() {
        assert!(Policy::Ns.params().is_none());
        assert!(Policy::Oracle.params().is_none());
        assert_eq!(
            Policy::pas_default().params().unwrap().alert_threshold_s,
            15.0
        );
        assert_eq!(
            Policy::sas_default().params().unwrap().alert_threshold_s,
            2.0
        );
    }

    #[test]
    #[should_panic(expected = "max_sleep_s")]
    fn validate_rejects_max_below_base() {
        AdaptiveParams {
            base_sleep_s: 5.0,
            max_sleep_s: 1.0,
            ..AdaptiveParams::default()
        }
        .validate();
    }
}
