//! The typed scenario manifest: what a TOML file declares, validated.
//!
//! A manifest is the declarative form of one experiment batch — the
//! deployment arena, the stimulus ground truth, the channel and failure
//! models, the policies under test, the swept parameter axes, and the
//! replicate fan-out. [`Manifest::parse`] converts TOML text into this
//! model with unknown-key rejection (a typo fails loudly instead of being
//! silently ignored); [`Manifest::to_toml`] writes it back out, and the
//! round-trip is lossless.

use crate::toml::{self, ParseError, Table, Value};
use pas_core::{
    AdaptiveParams, ChannelKind, DeploymentKind, KalmanParams, Policy, PredictorSpec,
    QuantileParams, Scenario, PREDICTOR_NAMES,
};
use pas_diffusion::aniso::DirectionalGain;
use pas_diffusion::field::NullField;
use pas_diffusion::{
    AnisotropicFront, EikonalField, GaussianPlume, RadialFront, SpeedGrid, SpeedProfile,
    StimulusField,
};
use pas_geom::{Aabb, Vec2};
use std::fmt::Write as _;
use std::path::Path;

/// Errors from parsing or validating a manifest.
pub type ManifestError = ParseError;

fn err(msg: impl Into<String>) -> ManifestError {
    ParseError::at(0, msg)
}

/// Node placement declaration (`[deployment]`).
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentSpec {
    /// Region size in metres: `(width, height)`, anchored at the origin.
    pub region: (f64, f64),
    /// Number of sensor nodes.
    pub nodes: usize,
    /// Transmission range in metres.
    pub range_m: f64,
    /// Placement strategy.
    pub kind: DeployKindSpec,
}

/// Placement strategy variants.
#[derive(Debug, Clone, PartialEq)]
pub enum DeployKindSpec {
    /// Uniform random placement.
    Uniform,
    /// Regular grid (`cols × rows` must equal the node count).
    Grid {
        /// Grid columns.
        cols: usize,
        /// Grid rows.
        rows: usize,
    },
    /// Poisson-disk placement with a minimum separation.
    Poisson {
        /// Minimum pairwise separation (m).
        min_dist: f64,
    },
}

/// Radial speed profile declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum ProfileSpec {
    /// Constant speed (m/s).
    Constant {
        /// Speed in m/s.
        speed: f64,
    },
    /// Linear ramp `v(t) = v0 + accel·t`.
    Linear {
        /// Initial speed (m/s).
        v0: f64,
        /// Acceleration (m/s²).
        accel: f64,
    },
    /// Exponential decay `v(t) = v0·e^(−t/tau)`.
    Decaying {
        /// Initial speed (m/s).
        v0: f64,
        /// Decay constant (s).
        tau: f64,
    },
}

impl ProfileSpec {
    fn build(&self) -> SpeedProfile {
        match *self {
            ProfileSpec::Constant { speed } => SpeedProfile::Constant { speed },
            ProfileSpec::Linear { v0, accel } => SpeedProfile::LinearRamp { v0, accel },
            ProfileSpec::Decaying { v0, tau } => SpeedProfile::Decaying { v0, tau },
        }
    }

    /// Mirror of [`SpeedProfile::validate`]'s panics as recoverable errors,
    /// so `pas validate` rejects what `pas run` would abort on.
    fn validate(&self) -> Result<(), ManifestError> {
        match *self {
            ProfileSpec::Constant { speed } => {
                if !(speed.is_finite() && speed > 0.0) {
                    return Err(err("stimulus profile speed must be finite and > 0"));
                }
            }
            ProfileSpec::Linear { v0, accel } => {
                if !(v0.is_finite() && v0 >= 0.0) {
                    return Err(err("stimulus profile v0 must be finite and >= 0"));
                }
                if !accel.is_finite() {
                    return Err(err("stimulus profile accel must be finite"));
                }
                if !(v0 > 0.0 || accel > 0.0) {
                    return Err(err(
                        "stimulus ramp must eventually move (v0 > 0 or accel > 0)",
                    ));
                }
            }
            ProfileSpec::Decaying { v0, tau } => {
                if !(v0.is_finite() && v0 > 0.0) {
                    return Err(err("stimulus profile v0 must be finite and > 0"));
                }
                if !(tau.is_finite() && tau > 0.0) {
                    return Err(err("stimulus profile tau must be finite and > 0"));
                }
            }
        }
        Ok(())
    }
}

/// A rectangular speed override on an eikonal grid.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchSpec {
    /// `(x0, y0, x1, y1)` in metres; later patches win on overlap.
    pub rect: (f64, f64, f64, f64),
    /// Local front speed inside the rectangle (m/s).
    pub speed: f64,
}

/// Stimulus ground-truth declaration (`[stimulus]`).
#[derive(Debug, Clone, PartialEq)]
pub enum StimulusSpec {
    /// Isotropic radial front.
    Radial {
        /// Source point.
        source: (f64, f64),
        /// Radial speed profile.
        profile: ProfileSpec,
    },
    /// Direction-skewed front (wind).
    Anisotropic {
        /// Source point.
        source: (f64, f64),
        /// Radial speed profile.
        profile: ProfileSpec,
        /// Skew direction (radians).
        theta0: f64,
        /// Skew strength in `(-1, 1)`.
        k: f64,
    },
    /// Advected Gaussian puff (coverage can recede).
    Plume {
        /// Release point.
        source: (f64, f64),
        /// Released mass (arbitrary units).
        mass: f64,
        /// Diffusivity (m²/s).
        diffusivity: f64,
        /// Advection current `(ux, uy)` (m/s).
        current: (f64, f64),
        /// Detection threshold (same units as mass-concentration).
        threshold: f64,
    },
    /// Front through heterogeneous media (Fast Marching solution).
    Eikonal {
        /// Release points.
        sources: Vec<(f64, f64)>,
        /// Grid resolution (x).
        nx: usize,
        /// Grid resolution (y).
        ny: usize,
        /// Base speed everywhere (m/s).
        base_speed: f64,
        /// Rectangular speed overrides, applied in order.
        patches: Vec<PatchSpec>,
    },
    /// No stimulus — pure duty-cycling energy baseline.
    None,
}

impl StimulusSpec {
    /// Build the eikonal field for `region` (panics if the spec is not
    /// `Eikonal`; callers match first).
    pub fn build_eikonal(&self, region: Aabb) -> EikonalField {
        match self {
            StimulusSpec::Eikonal {
                sources,
                nx,
                ny,
                base_speed,
                patches,
            } => {
                let patches = patches.clone();
                let base = *base_speed;
                let grid = SpeedGrid::from_fn(region, *nx, *ny, move |p: Vec2| {
                    let mut s = base;
                    for patch in &patches {
                        let (x0, y0, x1, y1) = patch.rect;
                        if p.x >= x0 && p.x <= x1 && p.y >= y0 && p.y <= y1 {
                            s = patch.speed;
                        }
                    }
                    s
                });
                let srcs: Vec<Vec2> = sources.iter().map(|&(x, y)| Vec2::new(x, y)).collect();
                EikonalField::solve(grid, &srcs, pas_sim::SimTime::ZERO)
            }
            other => panic!("build_eikonal on non-eikonal stimulus {other:?}"),
        }
    }

    /// Mirror of the field constructors' panics as recoverable errors —
    /// everything [`StimulusSpec::build`] would abort on for `region`.
    pub fn validate(&self, region: Aabb) -> Result<(), ManifestError> {
        let finite_point = |name: &str, (x, y): (f64, f64)| {
            if x.is_finite() && y.is_finite() {
                Ok(())
            } else {
                Err(err(format!("stimulus {name} must be finite")))
            }
        };
        match self {
            StimulusSpec::Radial { source, profile } => {
                finite_point("source", *source)?;
                profile.validate()?;
            }
            StimulusSpec::Anisotropic {
                source,
                profile,
                theta0,
                k,
            } => {
                finite_point("source", *source)?;
                profile.validate()?;
                if !theta0.is_finite() {
                    return Err(err("stimulus theta0 must be finite"));
                }
                if !(k.is_finite() && k.abs() < 1.0) {
                    return Err(err("stimulus skew |k| must be < 1"));
                }
            }
            StimulusSpec::Plume {
                source,
                mass,
                diffusivity,
                current,
                threshold,
            } => {
                finite_point("source", *source)?;
                finite_point("current", *current)?;
                if !(mass.is_finite() && *mass > 0.0) {
                    return Err(err("stimulus mass must be finite and > 0"));
                }
                if !(diffusivity.is_finite() && *diffusivity > 0.0) {
                    return Err(err("stimulus diffusivity must be finite and > 0"));
                }
                if !(threshold.is_finite() && *threshold > 0.0) {
                    return Err(err("stimulus threshold must be finite and > 0"));
                }
            }
            StimulusSpec::Eikonal {
                sources,
                nx,
                ny,
                base_speed,
                patches,
            } => {
                if *nx < 2 || *ny < 2 {
                    return Err(err("stimulus grid needs nx >= 2 and ny >= 2"));
                }
                if !(base_speed.is_finite() && *base_speed > 0.0) {
                    return Err(err("stimulus base_speed must be finite and > 0"));
                }
                for patch in patches {
                    if !(patch.speed.is_finite() && patch.speed > 0.0) {
                        return Err(err("stimulus patch speed must be finite and > 0"));
                    }
                }
                if sources.is_empty() {
                    return Err(err("eikonal stimulus needs at least one source"));
                }
                for &(x, y) in sources {
                    finite_point("source", (x, y))?;
                    if !region.contains(Vec2::new(x, y)) {
                        return Err(err(format!(
                            "eikonal source [{x}, {y}] lies outside the deployment region"
                        )));
                    }
                }
            }
            StimulusSpec::None => {}
        }
        Ok(())
    }

    /// Build the stimulus field for `region`.
    pub fn build(&self, region: Aabb) -> Box<dyn StimulusField> {
        match self {
            StimulusSpec::Radial { source, profile } => Box::new(RadialFront::new(
                Vec2::new(source.0, source.1),
                profile.build(),
            )),
            StimulusSpec::Anisotropic {
                source,
                profile,
                theta0,
                k,
            } => Box::new(AnisotropicFront::new(
                Vec2::new(source.0, source.1),
                profile.build(),
                DirectionalGain::CosineSkew {
                    theta0: *theta0,
                    k: *k,
                },
            )),
            StimulusSpec::Plume {
                source,
                mass,
                diffusivity,
                current,
                threshold,
            } => Box::new(GaussianPlume::new(
                Vec2::new(source.0, source.1),
                *mass,
                *diffusivity,
                Vec2::new(current.0, current.1),
                *threshold,
            )),
            StimulusSpec::Eikonal { .. } => Box::new(self.build_eikonal(region)),
            StimulusSpec::None => Box::new(NullField),
        }
    }
}

/// Channel model declaration (`[channel]`).
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelSpec {
    /// Lossless delivery.
    Perfect,
    /// Independent loss with probability `loss`.
    Iid {
        /// Loss probability in `[0, 1]`.
        loss: f64,
    },
    /// Distance-dependent loss.
    Distance {
        /// Fraction of the range with reliable delivery.
        good_fraction: f64,
        /// Loss probability at the range edge.
        edge_loss: f64,
    },
}

impl ChannelSpec {
    /// The runtime channel selector.
    pub fn kind(&self) -> ChannelKind {
        match *self {
            ChannelSpec::Perfect => ChannelKind::Perfect,
            ChannelSpec::Iid { loss } => ChannelKind::IidLoss(loss),
            ChannelSpec::Distance {
                good_fraction,
                edge_loss,
            } => ChannelKind::DistanceLoss(good_fraction, edge_loss),
        }
    }
}

/// Failure-injection declaration (`[failures]`).
#[derive(Debug, Clone, PartialEq)]
pub enum FailureSpec {
    /// No failures.
    None,
    /// Independent random failures: each node dies with probability `p`
    /// at a uniform time in `[0, horizon_s)`.
    Random {
        /// Per-node failure probability.
        p: f64,
        /// Failure-time horizon (s).
        horizon_s: f64,
    },
    /// The stimulus destroys each sensor `delay_s` after reaching it
    /// (wildfire-style).
    FrontKill {
        /// Seconds between front arrival and sensor death.
        delay_s: f64,
    },
}

/// One policy under test (`[[policies]]`).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicySpec {
    /// `ns`, `sas`, `pas`, or `oracle`.
    pub kind: String,
    /// Report label (defaults to the upper-case kind, suffixed with the
    /// predictor name when a non-default predictor is declared).
    pub label: String,
    /// Fixed numeric overrides on [`AdaptiveParams`] fields.
    pub overrides: Vec<(String, f64)>,
    /// Declared arrival predictor (`predictor = "kalman"` or an inline
    /// table with parameters); `None` means the policy kind's default.
    pub predictor: Option<PredictorSpec>,
}

impl PolicySpec {
    /// `true` for the adaptive kinds (`sas`, `pas`) that carry parameters
    /// and a predictor.
    pub fn is_adaptive(&self) -> bool {
        matches!(self.kind.as_str(), "sas" | "pas")
    }
}

/// One resolved value of a sweep axis: numeric for [`AdaptiveParams`]
/// fields and the `nodes` and `failure_p` axes, a name for the
/// `predictor` axis.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValue {
    /// A numeric assignment (`max_sleep_s = 8.0`, `nodes = 45`).
    Num(f64),
    /// A named assignment (`predictor = "kalman"`).
    Name(String),
}

impl AxisValue {
    /// The numeric value, if this is a [`AxisValue::Num`].
    pub fn as_num(&self) -> Option<f64> {
        match self {
            AxisValue::Num(v) => Some(*v),
            AxisValue::Name(_) => None,
        }
    }

    /// The name, if this is a [`AxisValue::Name`].
    pub fn as_name(&self) -> Option<&str> {
        match self {
            AxisValue::Name(n) => Some(n),
            AxisValue::Num(_) => None,
        }
    }
}

impl std::fmt::Display for AxisValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AxisValue::Num(v) => write!(f, "{v}"),
            AxisValue::Name(n) => f.write_str(n),
        }
    }
}

/// The value list of one sweep axis.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValues {
    /// Numeric values ([`AdaptiveParams`] fields, `nodes` and
    /// `failure_p`).
    Numeric(Vec<f64>),
    /// Predictor names (`predictor = ["planar", "kalman", ...]`).
    Names(Vec<String>),
}

impl AxisValues {
    /// Number of values on the axis.
    pub fn len(&self) -> usize {
        match self {
            AxisValues::Numeric(v) => v.len(),
            AxisValues::Names(v) => v.len(),
        }
    }

    /// `true` when the axis has no values (rejected at parse time).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th value as an [`AxisValue`].
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn at(&self, i: usize) -> AxisValue {
        match self {
            AxisValues::Numeric(v) => AxisValue::Num(v[i]),
            AxisValues::Names(v) => AxisValue::Name(v[i].clone()),
        }
    }

    /// Iterate the axis values as [`AxisValue`]s.
    pub fn iter(&self) -> impl Iterator<Item = AxisValue> + '_ {
        (0..self.len()).map(|i| self.at(i))
    }

    /// Keep only the first `n` values (no-op when `n >= len`).
    pub fn truncate(&mut self, n: usize) {
        match self {
            AxisValues::Numeric(v) => v.truncate(n),
            AxisValues::Names(v) => v.truncate(n),
        }
    }
}

impl From<Vec<f64>> for AxisValues {
    fn from(values: Vec<f64>) -> Self {
        AxisValues::Numeric(values)
    }
}

/// One swept parameter axis (`[sweep]` entry): every value in `values`
/// is applied to every policy it concerns — [`AdaptiveParams`] fields and
/// the `predictor` axis to adaptive policies, the `nodes` axis to the
/// deployment itself, the `failure_p` axis to the random failure model.
/// The first axis is the report x-axis (a names axis reports its variant
/// index).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxis {
    /// Field name (e.g. `max_sleep_s`, `predictor`, `nodes`).
    pub field: String,
    /// Values to sweep (non-empty).
    pub values: AxisValues,
}

/// Sweep-axis field selecting the arrival predictor by name.
pub const SWEEP_PREDICTOR: &str = "predictor";

/// Sweep-axis field selecting the deployment node count (density sweeps).
pub const SWEEP_NODES: &str = "nodes";

/// Sweep-axis field selecting the per-node probability of a random
/// failure (`[failures] kind = "random"` only). Not `failures.p`: a
/// dotted TOML key would read back as a nested table.
pub const SWEEP_FAILURE_P: &str = "failure_p";

/// The numeric value a sweep assigns to `field`, if any.
pub(crate) fn assigned(assignments: &[(String, AxisValue)], field: &str) -> Option<f64> {
    assignments
        .iter()
        .find(|(f, _)| f == field)
        .and_then(|(_, v)| v.as_num())
}

/// Replicate/run parameters (`[run]`).
#[derive(Debug, Clone, PartialEq)]
pub struct RunSection {
    /// Seed of the first replicate; replicate `k` uses `base_seed + k`.
    pub base_seed: u64,
    /// Replicates per parameter point.
    pub replicates: u64,
    /// Extra simulated seconds after the last ground-truth arrival.
    pub grace_s: f64,
    /// Hard simulated-time cap; `None` derives it from the stimulus.
    pub horizon_s: Option<f64>,
    /// Worker threads for batch execution; 0 = one per core,
    /// 1 = sequential. An explicit `--threads` flag overrides this.
    pub threads: usize,
}

/// Output/reporting knobs (`[output]`).
#[derive(Debug, Clone, PartialEq)]
pub struct OutputSection {
    /// X-axis column label (defaults to the first sweep field, or `x`).
    pub x_label: Option<String>,
}

/// A fully parsed, validated scenario manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Scenario name (registry key and report title).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Deployment arena.
    pub deployment: DeploymentSpec,
    /// Stimulus ground truth.
    pub stimulus: StimulusSpec,
    /// Channel model.
    pub channel: ChannelSpec,
    /// Failure injection.
    pub failures: FailureSpec,
    /// Replicate fan-out.
    pub run: RunSection,
    /// Policies under test (non-empty).
    pub policies: Vec<PolicySpec>,
    /// Swept axes (may be empty: a fixed-point batch).
    pub sweep: Vec<SweepAxis>,
    /// Reporting knobs.
    pub output: OutputSection,
}

/// All sweepable/overridable [`AdaptiveParams`] fields.
pub const PARAM_FIELDS: [&str; 10] = [
    "base_sleep_s",
    "delta_t_s",
    "max_sleep_s",
    "alert_threshold_s",
    "response_window_s",
    "rebroadcast_rel_change",
    "min_broadcast_gap_s",
    "alert_review_interval_s",
    "alert_overdue_timeout_s",
    "detection_timeout_s",
];

/// Set an [`AdaptiveParams`] field by manifest name.
pub fn set_param(p: &mut AdaptiveParams, field: &str, value: f64) -> Result<(), ManifestError> {
    match field {
        "base_sleep_s" => p.base_sleep_s = value,
        "delta_t_s" => p.delta_t_s = value,
        "max_sleep_s" => p.max_sleep_s = value,
        "alert_threshold_s" => p.alert_threshold_s = value,
        "response_window_s" => p.response_window_s = value,
        "rebroadcast_rel_change" => p.rebroadcast_rel_change = value,
        "min_broadcast_gap_s" => p.min_broadcast_gap_s = value,
        "alert_review_interval_s" => p.alert_review_interval_s = value,
        "alert_overdue_timeout_s" => p.alert_overdue_timeout_s = value,
        "detection_timeout_s" => p.detection_timeout_s = value,
        other => {
            return Err(err(format!(
                "unknown parameter field `{other}` (known: {})",
                PARAM_FIELDS.join(", ")
            )))
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// decoding helpers
// ---------------------------------------------------------------------------

fn need<'t>(t: &'t Table, key: &str, section: &str) -> Result<&'t Value, ManifestError> {
    t.get(key)
        .ok_or_else(|| err(format!("missing key `{key}` in [{section}]")))
}

fn need_f64(t: &Table, key: &str, section: &str) -> Result<f64, ManifestError> {
    need(t, key, section)?
        .as_f64()
        .ok_or_else(|| err(format!("`{key}` in [{section}] must be a number")))
}

fn need_usize(t: &Table, key: &str, section: &str) -> Result<usize, ManifestError> {
    let i = need(t, key, section)?
        .as_int()
        .ok_or_else(|| err(format!("`{key}` in [{section}] must be an integer")))?;
    usize::try_from(i).map_err(|_| err(format!("`{key}` in [{section}] must be >= 0")))
}

fn need_str<'t>(t: &'t Table, key: &str, section: &str) -> Result<&'t str, ManifestError> {
    need(t, key, section)?
        .as_str()
        .ok_or_else(|| err(format!("`{key}` in [{section}] must be a string")))
}

fn pair_f64(v: &Value, what: &str) -> Result<(f64, f64), ManifestError> {
    let items = v
        .as_array()
        .ok_or_else(|| err(format!("{what} must be a 2-element array")))?;
    if items.len() != 2 {
        return Err(err(format!("{what} must have exactly 2 elements")));
    }
    let a = items[0]
        .as_f64()
        .ok_or_else(|| err(format!("{what}[0] must be a number")))?;
    let b = items[1]
        .as_f64()
        .ok_or_else(|| err(format!("{what}[1] must be a number")))?;
    Ok((a, b))
}

fn f64_list(v: &Value, what: &str) -> Result<Vec<f64>, ManifestError> {
    let items = v
        .as_array()
        .ok_or_else(|| err(format!("{what} must be an array of numbers")))?;
    items
        .iter()
        .enumerate()
        .map(|(i, x)| {
            x.as_f64()
                .ok_or_else(|| err(format!("{what}[{i}] must be a number")))
        })
        .collect()
}

fn decode_profile(t: &Table, section: &str) -> Result<ProfileSpec, ManifestError> {
    // Shorthand: `speed = 0.5` means a constant profile.
    if let Some(v) = t.get("speed") {
        if t.get("profile").is_some() {
            return Err(err(format!(
                "[{section}] declares both `speed` and `profile`; use one"
            )));
        }
        let speed = v
            .as_f64()
            .ok_or_else(|| err(format!("`speed` in [{section}] must be a number")))?;
        return Ok(ProfileSpec::Constant { speed });
    }
    let profile = need(t, "profile", section)?
        .as_table()
        .ok_or_else(|| err(format!("`profile` in [{section}] must be an inline table")))?;
    let kind = need_str(profile, "kind", section)?;
    match kind {
        "constant" => {
            profile.expect_only(&["kind", "speed"], section)?;
            Ok(ProfileSpec::Constant {
                speed: need_f64(profile, "speed", section)?,
            })
        }
        "linear" => {
            profile.expect_only(&["kind", "v0", "accel"], section)?;
            Ok(ProfileSpec::Linear {
                v0: need_f64(profile, "v0", section)?,
                accel: need_f64(profile, "accel", section)?,
            })
        }
        "decaying" => {
            profile.expect_only(&["kind", "v0", "tau"], section)?;
            Ok(ProfileSpec::Decaying {
                v0: need_f64(profile, "v0", section)?,
                tau: need_f64(profile, "tau", section)?,
            })
        }
        other => Err(err(format!(
            "unknown profile kind `{other}` (constant, linear, decaying)"
        ))),
    }
}

/// Decode a policy's `predictor` declaration: a bare name string picks
/// the variant with default parameters; an inline table (`{ kind = ...,
/// ... }`) carries per-predictor parameters, with unknown-key rejection.
fn decode_predictor(v: &Value) -> Result<PredictorSpec, ManifestError> {
    if let Some(name) = v.as_str() {
        return PredictorSpec::from_name(name).ok_or_else(|| {
            err(format!(
                "unknown predictor `{name}` (known: {})",
                PREDICTOR_NAMES.join(", ")
            ))
        });
    }
    let t = v
        .as_table()
        .ok_or_else(|| err("policy `predictor` must be a name or an inline table"))?;
    let kind = need_str(t, "kind", "predictor")?;
    match kind {
        "planar" => {
            t.expect_only(&["kind"], "predictor")?;
            Ok(PredictorSpec::PlanarFront)
        }
        "non_directional" => {
            t.expect_only(&["kind"], "predictor")?;
            Ok(PredictorSpec::NonDirectional)
        }
        "kalman" => {
            t.expect_only(&["kind", "process_var", "measurement_var"], "predictor")?;
            let defaults = KalmanParams::default();
            let get = |key: &str, fallback: f64| -> Result<f64, ManifestError> {
                match t.get(key) {
                    None => Ok(fallback),
                    Some(v) => v
                        .as_f64()
                        .ok_or_else(|| err(format!("predictor `{key}` must be a number"))),
                }
            };
            Ok(PredictorSpec::Kalman(KalmanParams {
                process_var: get("process_var", defaults.process_var)?,
                measurement_var: get("measurement_var", defaults.measurement_var)?,
            }))
        }
        "quantile" => {
            t.expect_only(&["kind", "k"], "predictor")?;
            let k = match t.get("k") {
                None => QuantileParams::default().k,
                Some(v) => v
                    .as_int()
                    .and_then(|i| usize::try_from(i).ok())
                    .filter(|k| *k >= 1)
                    .ok_or_else(|| err("predictor `k` must be an integer >= 1"))?,
            };
            Ok(PredictorSpec::RobustQuantile(QuantileParams { k }))
        }
        other => Err(err(format!(
            "unknown predictor `{other}` (known: {})",
            PREDICTOR_NAMES.join(", ")
        ))),
    }
}

/// The default report label of a policy spec — delegated to
/// [`Policy::label`] on the instantiated policy, so the label vocabulary
/// (base names, predictor qualification, kind-default predictors) has
/// exactly one definition, in `pas-core`.
fn default_label(kind: &str, predictor: Option<&PredictorSpec>) -> String {
    let params = AdaptiveParams {
        predictor: predictor.copied().unwrap_or(PredictorSpec::Default),
        ..AdaptiveParams::default()
    };
    match kind {
        "ns" => Policy::Ns.label(),
        "oracle" => Policy::Oracle.label(),
        "sas" => Policy::Sas(params).label(),
        _ => Policy::Pas(params).label(),
    }
}

/// Canonical TOML rendering of a predictor declaration: the bare name
/// when the parameters are the variant's defaults, an inline table
/// otherwise (the exact forms [`decode_predictor`] accepts).
fn predictor_toml(spec: &PredictorSpec) -> String {
    match spec {
        PredictorSpec::Kalman(k) if *k != KalmanParams::default() => format!(
            "{{ kind = \"kalman\", process_var = {:?}, measurement_var = {:?} }}",
            k.process_var, k.measurement_var
        ),
        PredictorSpec::RobustQuantile(q) if *q != QuantileParams::default() => {
            format!("{{ kind = \"quantile\", k = {} }}", q.k)
        }
        other => format!("\"{}\"", other.name()),
    }
}

impl Manifest {
    /// Parse and validate a manifest from TOML text.
    pub fn parse(src: &str) -> Result<Manifest, ManifestError> {
        let root = toml::parse(src)?;
        root.expect_only(
            &[
                "scenario",
                "deployment",
                "stimulus",
                "channel",
                "failures",
                "run",
                "policies",
                "sweep",
                "output",
            ],
            "manifest root",
        )?;

        // [scenario]
        let scenario = need(&root, "scenario", "manifest root")?
            .as_table()
            .ok_or_else(|| err("[scenario] must be a table"))?;
        scenario.expect_only(&["name", "description"], "scenario")?;
        let name = need_str(scenario, "name", "scenario")?.to_string();
        let description = scenario
            .get("description")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string();

        // [deployment]
        let dep = need(&root, "deployment", "manifest root")?
            .as_table()
            .ok_or_else(|| err("[deployment] must be a table"))?;
        dep.expect_only(
            &[
                "region", "nodes", "range_m", "kind", "cols", "rows", "min_dist",
            ],
            "deployment",
        )?;
        let region = pair_f64(need(dep, "region", "deployment")?, "deployment.region")?;
        let nodes = need_usize(dep, "nodes", "deployment")?;
        let range_m = need_f64(dep, "range_m", "deployment")?;
        let kind = match need_str(dep, "kind", "deployment")? {
            "uniform" => DeployKindSpec::Uniform,
            "grid" => DeployKindSpec::Grid {
                cols: need_usize(dep, "cols", "deployment")?,
                rows: need_usize(dep, "rows", "deployment")?,
            },
            "poisson" => DeployKindSpec::Poisson {
                min_dist: need_f64(dep, "min_dist", "deployment")?,
            },
            other => {
                return Err(err(format!(
                    "unknown deployment kind `{other}` (uniform, grid, poisson)"
                )))
            }
        };
        let deployment = DeploymentSpec {
            region,
            nodes,
            range_m,
            kind,
        };

        // [stimulus]
        let st = need(&root, "stimulus", "manifest root")?
            .as_table()
            .ok_or_else(|| err("[stimulus] must be a table"))?;
        let stimulus = match need_str(st, "kind", "stimulus")? {
            "radial" => {
                st.expect_only(&["kind", "source", "speed", "profile"], "stimulus")?;
                StimulusSpec::Radial {
                    source: pair_f64(need(st, "source", "stimulus")?, "stimulus.source")?,
                    profile: decode_profile(st, "stimulus")?,
                }
            }
            "anisotropic" => {
                st.expect_only(
                    &["kind", "source", "speed", "profile", "theta0", "k"],
                    "stimulus",
                )?;
                StimulusSpec::Anisotropic {
                    source: pair_f64(need(st, "source", "stimulus")?, "stimulus.source")?,
                    profile: decode_profile(st, "stimulus")?,
                    theta0: need_f64(st, "theta0", "stimulus")?,
                    k: need_f64(st, "k", "stimulus")?,
                }
            }
            "plume" => {
                st.expect_only(
                    &[
                        "kind",
                        "source",
                        "mass",
                        "diffusivity",
                        "current",
                        "threshold",
                    ],
                    "stimulus",
                )?;
                StimulusSpec::Plume {
                    source: pair_f64(need(st, "source", "stimulus")?, "stimulus.source")?,
                    mass: need_f64(st, "mass", "stimulus")?,
                    diffusivity: need_f64(st, "diffusivity", "stimulus")?,
                    current: pair_f64(need(st, "current", "stimulus")?, "stimulus.current")?,
                    threshold: need_f64(st, "threshold", "stimulus")?,
                }
            }
            "eikonal" => {
                st.expect_only(
                    &["kind", "sources", "nx", "ny", "base_speed", "patches"],
                    "stimulus",
                )?;
                let srcs = need(st, "sources", "stimulus")?
                    .as_array()
                    .ok_or_else(|| err("stimulus.sources must be an array of [x, y] pairs"))?
                    .iter()
                    .map(|v| pair_f64(v, "stimulus.sources[..]"))
                    .collect::<Result<Vec<_>, _>>()?;
                let mut patches = Vec::new();
                if let Some(list) = st.get("patches") {
                    for (i, p) in list
                        .as_array()
                        .ok_or_else(|| err("stimulus.patches must be an array of tables"))?
                        .iter()
                        .enumerate()
                    {
                        let pt = p
                            .as_table()
                            .ok_or_else(|| err(format!("patches[{i}] must be a table")))?;
                        pt.expect_only(&["rect", "speed"], "stimulus.patches")?;
                        let rect = f64_list(need(pt, "rect", "stimulus.patches")?, "patch rect")?;
                        if rect.len() != 4 {
                            return Err(err("patch rect must be [x0, y0, x1, y1]"));
                        }
                        patches.push(PatchSpec {
                            rect: (rect[0], rect[1], rect[2], rect[3]),
                            speed: need_f64(pt, "speed", "stimulus.patches")?,
                        });
                    }
                }
                StimulusSpec::Eikonal {
                    sources: srcs,
                    nx: need_usize(st, "nx", "stimulus")?,
                    ny: need_usize(st, "ny", "stimulus")?,
                    base_speed: need_f64(st, "base_speed", "stimulus")?,
                    patches,
                }
            }
            "none" => {
                st.expect_only(&["kind"], "stimulus")?;
                StimulusSpec::None
            }
            other => {
                return Err(err(format!(
                    "unknown stimulus kind `{other}` (radial, anisotropic, plume, eikonal, none)"
                )))
            }
        };

        // [channel] — optional, defaults to perfect.
        let channel = match root.get("channel") {
            None => ChannelSpec::Perfect,
            Some(v) => {
                let ch = v
                    .as_table()
                    .ok_or_else(|| err("[channel] must be a table"))?;
                match need_str(ch, "kind", "channel")? {
                    "perfect" => {
                        ch.expect_only(&["kind"], "channel")?;
                        ChannelSpec::Perfect
                    }
                    "iid" => {
                        ch.expect_only(&["kind", "loss"], "channel")?;
                        ChannelSpec::Iid {
                            loss: need_f64(ch, "loss", "channel")?,
                        }
                    }
                    "distance" => {
                        ch.expect_only(&["kind", "good_fraction", "edge_loss"], "channel")?;
                        ChannelSpec::Distance {
                            good_fraction: need_f64(ch, "good_fraction", "channel")?,
                            edge_loss: need_f64(ch, "edge_loss", "channel")?,
                        }
                    }
                    other => {
                        return Err(err(format!(
                            "unknown channel kind `{other}` (perfect, iid, distance)"
                        )))
                    }
                }
            }
        };

        // [failures] — optional, defaults to none.
        let failures = match root.get("failures") {
            None => FailureSpec::None,
            Some(v) => {
                let fa = v
                    .as_table()
                    .ok_or_else(|| err("[failures] must be a table"))?;
                match need_str(fa, "kind", "failures")? {
                    "none" => {
                        fa.expect_only(&["kind"], "failures")?;
                        FailureSpec::None
                    }
                    "random" => {
                        fa.expect_only(&["kind", "p", "horizon_s"], "failures")?;
                        FailureSpec::Random {
                            p: need_f64(fa, "p", "failures")?,
                            horizon_s: need_f64(fa, "horizon_s", "failures")?,
                        }
                    }
                    "front_kill" => {
                        fa.expect_only(&["kind", "delay_s"], "failures")?;
                        FailureSpec::FrontKill {
                            delay_s: need_f64(fa, "delay_s", "failures")?,
                        }
                    }
                    other => {
                        return Err(err(format!(
                            "unknown failures kind `{other}` (none, random, front_kill)"
                        )))
                    }
                }
            }
        };

        // [run]
        let run_t = need(&root, "run", "manifest root")?
            .as_table()
            .ok_or_else(|| err("[run] must be a table"))?;
        run_t.expect_only(
            &["base_seed", "replicates", "grace_s", "horizon_s", "threads"],
            "run",
        )?;
        let base_seed = need(run_t, "base_seed", "run")?
            .as_int()
            .and_then(|i| u64::try_from(i).ok())
            .ok_or_else(|| err("`base_seed` in [run] must be a non-negative integer"))?;
        let replicates = need(run_t, "replicates", "run")?
            .as_int()
            .and_then(|i| u64::try_from(i).ok())
            .ok_or_else(|| err("`replicates` in [run] must be a non-negative integer"))?;
        let grace_s = match run_t.get("grace_s") {
            None => 15.0,
            Some(v) => v
                .as_f64()
                .ok_or_else(|| err("`grace_s` in [run] must be a number"))?,
        };
        let horizon_s = match run_t.get("horizon_s") {
            None => None,
            Some(v) => Some(
                v.as_f64()
                    .ok_or_else(|| err("`horizon_s` in [run] must be a number"))?,
            ),
        };
        let threads = match run_t.get("threads") {
            None => 0,
            Some(v) => v
                .as_int()
                .and_then(|i| usize::try_from(i).ok())
                .ok_or_else(|| err("`threads` in [run] must be a non-negative integer"))?,
        };
        let run = RunSection {
            base_seed,
            replicates,
            grace_s,
            horizon_s,
            threads,
        };

        // [[policies]]
        let mut policies = Vec::new();
        let plist = need(&root, "policies", "manifest root")?
            .as_array()
            .ok_or_else(|| err("policies must be declared as [[policies]] tables"))?;
        for (i, p) in plist.iter().enumerate() {
            let pt = p
                .as_table()
                .ok_or_else(|| err(format!("policies[{i}] must be a table")))?;
            let mut allowed = vec!["kind", "label", "predictor"];
            allowed.extend(PARAM_FIELDS);
            pt.expect_only(&allowed, "policies")?;
            let kind = need_str(pt, "kind", "policies")?.to_string();
            if !matches!(kind.as_str(), "ns" | "sas" | "pas" | "oracle") {
                return Err(err(format!(
                    "unknown policy kind `{kind}` (ns, sas, pas, oracle)"
                )));
            }
            let predictor = match pt.get("predictor") {
                None => None,
                Some(v) => Some(decode_predictor(v)?),
            };
            if matches!(kind.as_str(), "ns" | "oracle") && predictor.is_some() {
                return Err(err(format!("policy `{kind}` takes no predictor")));
            }
            let label = match pt.get("label") {
                Some(v) => v
                    .as_str()
                    .ok_or_else(|| err("policy `label` must be a string"))?
                    .to_string(),
                None => default_label(&kind, predictor.as_ref()),
            };
            let mut overrides = Vec::new();
            for field in PARAM_FIELDS {
                if let Some(v) = pt.get(field) {
                    let x = v
                        .as_f64()
                        .ok_or_else(|| err(format!("policy field `{field}` must be a number")))?;
                    overrides.push((field.to_string(), x));
                }
            }
            if matches!(kind.as_str(), "ns" | "oracle") && !overrides.is_empty() {
                return Err(err(format!(
                    "policy `{kind}` takes no parameters (got `{}`)",
                    overrides[0].0
                )));
            }
            policies.push(PolicySpec {
                kind,
                label,
                overrides,
                predictor,
            });
        }

        // [sweep] — optional table of `field = [values...]`.
        let mut sweep = Vec::new();
        if let Some(v) = root.get("sweep") {
            let sw = v.as_table().ok_or_else(|| err("[sweep] must be a table"))?;
            for (field, values) in sw.iter() {
                let values = if field == SWEEP_PREDICTOR {
                    let items = values
                        .as_array()
                        .ok_or_else(|| err("sweep.predictor must be an array of names"))?;
                    let names: Vec<String> = items
                        .iter()
                        .enumerate()
                        .map(|(i, v)| {
                            let name = v.as_str().ok_or_else(|| {
                                err(format!("sweep.predictor[{i}] must be a string"))
                            })?;
                            if PredictorSpec::from_name(name).is_none() {
                                return Err(err(format!(
                                    "unknown predictor `{name}` (known: {})",
                                    PREDICTOR_NAMES.join(", ")
                                )));
                            }
                            Ok(name.to_string())
                        })
                        .collect::<Result<_, ManifestError>>()?;
                    AxisValues::Names(names)
                } else if field == SWEEP_NODES {
                    let counts = f64_list(values, "sweep.nodes")?;
                    for v in &counts {
                        if !(v.is_finite() && *v >= 1.0 && v.fract() == 0.0) {
                            return Err(err("sweep.nodes values must be integers >= 1"));
                        }
                    }
                    AxisValues::Numeric(counts)
                } else if PARAM_FIELDS.contains(&field) || field == SWEEP_FAILURE_P {
                    AxisValues::Numeric(f64_list(values, &format!("sweep.{field}"))?)
                } else {
                    return Err(err(format!(
                        "cannot sweep unknown field `{field}` (known: {}, {SWEEP_PREDICTOR}, \
                         {SWEEP_NODES}, {SWEEP_FAILURE_P})",
                        PARAM_FIELDS.join(", ")
                    )));
                };
                if values.is_empty() {
                    return Err(err(format!("sweep.{field} must not be empty")));
                }
                sweep.push(SweepAxis {
                    field: field.to_string(),
                    values,
                });
            }
        }

        // [output] — optional.
        let output = match root.get("output") {
            None => OutputSection { x_label: None },
            Some(v) => {
                let ot = v
                    .as_table()
                    .ok_or_else(|| err("[output] must be a table"))?;
                ot.expect_only(&["x_label"], "output")?;
                OutputSection {
                    x_label: ot
                        .get("x_label")
                        .map(|v| {
                            v.as_str()
                                .map(str::to_string)
                                .ok_or_else(|| err("`x_label` must be a string"))
                        })
                        .transpose()?,
                }
            }
        };

        let manifest = Manifest {
            name,
            description,
            deployment,
            stimulus,
            channel,
            failures,
            run,
            policies,
            sweep,
            output,
        };
        manifest.validate()?;
        Ok(manifest)
    }

    /// Parse a manifest from a file.
    pub fn from_path(path: &Path) -> Result<Manifest, ManifestError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| err(format!("reading {}: {e}", path.display())))?;
        Manifest::parse(&text)
    }

    /// Semantic validation beyond syntax.
    pub fn validate(&self) -> Result<(), ManifestError> {
        if self.name.is_empty() {
            return Err(err("scenario name must not be empty"));
        }
        if self.deployment.nodes == 0 {
            return Err(err("deployment needs at least 1 node"));
        }
        if self.deployment.region.0 <= 0.0 || self.deployment.region.1 <= 0.0 {
            return Err(err("deployment region must have positive size"));
        }
        if self.deployment.range_m <= 0.0 {
            return Err(err("range_m must be > 0"));
        }
        match self.deployment.kind {
            DeployKindSpec::Grid { cols, rows } => {
                if cols * rows != self.deployment.nodes {
                    return Err(err(format!(
                        "grid {cols}×{rows} does not match nodes = {}",
                        self.deployment.nodes
                    )));
                }
            }
            DeployKindSpec::Poisson { min_dist } => {
                if !(min_dist.is_finite() && min_dist > 0.0) {
                    return Err(err("poisson min_dist must be finite and > 0"));
                }
            }
            DeployKindSpec::Uniform => {}
        }
        self.stimulus.validate(self.region())?;
        if self.run.replicates == 0 {
            return Err(err("run.replicates must be >= 1"));
        }
        if self.policies.is_empty() {
            return Err(err("at least one [[policies]] entry is required"));
        }
        match self.channel {
            // Runtime bound (`IidLossChannel::new`): 1.0 would silence the
            // network, so the interval is half-open.
            ChannelSpec::Iid { loss } => {
                if !(0.0..1.0).contains(&loss) {
                    return Err(err("channel loss must be in [0, 1)"));
                }
            }
            ChannelSpec::Distance {
                good_fraction,
                edge_loss,
            } => {
                if !(0.0..=1.0).contains(&good_fraction) {
                    return Err(err("channel good_fraction must be in [0, 1]"));
                }
                if !(0.0..=1.0).contains(&edge_loss) {
                    return Err(err("channel edge_loss must be in [0, 1]"));
                }
            }
            ChannelSpec::Perfect => {}
        }
        if let FailureSpec::Random { p, horizon_s } = self.failures {
            if !(0.0..=1.0).contains(&p) {
                return Err(err("failure probability must be in [0, 1]"));
            }
            if horizon_s <= 0.0 {
                return Err(err("failure horizon_s must be > 0"));
            }
        }
        // The runner turns these into `SimTime`s, which cannot be negative
        // (a front-kill time is arrival + delay_s, the default horizon is
        // last arrival + grace_s), and `RunConfig::with_horizon` rejects a
        // non-positive horizon. A non-finite horizon would never end.
        if let FailureSpec::FrontKill { delay_s } = self.failures {
            if !(delay_s.is_finite() && delay_s >= 0.0) {
                return Err(err("failure delay_s must be finite and >= 0"));
            }
        }
        if !(self.run.grace_s.is_finite() && self.run.grace_s >= 0.0) {
            return Err(err("run.grace_s must be finite and >= 0"));
        }
        if let Some(h) = self.run.horizon_s {
            if !(h.is_finite() && h > 0.0) {
                return Err(err("run.horizon_s must be finite and > 0"));
            }
        }
        // Axis-level constraints.
        let mut seen_fields: Vec<&str> = Vec::new();
        for axis in &self.sweep {
            if seen_fields.contains(&axis.field.as_str()) {
                return Err(err(format!("duplicate sweep axis `{}`", axis.field)));
            }
            seen_fields.push(&axis.field);
            if axis.field == SWEEP_NODES
                && matches!(self.deployment.kind, DeployKindSpec::Grid { .. })
            {
                return Err(err(
                    "cannot sweep `nodes` with a grid deployment (cols x rows is fixed)",
                ));
            }
            if axis.field == SWEEP_FAILURE_P {
                if !matches!(self.failures, FailureSpec::Random { .. }) {
                    return Err(err(
                        "sweeping `failure_p` needs `[failures] kind = \"random\"`",
                    ));
                }
                let probability = |p: &f64| (0.0..=1.0).contains(p);
                if !matches!(&axis.values, AxisValues::Numeric(ps) if ps.iter().all(probability)) {
                    return Err(err("sweep.failure_p values must be in [0, 1]"));
                }
            }
        }
        // A poisson deployment must be able to hold the densest point of
        // the run matrix: above the disk-packing area bound, placement is
        // *certain* to saturate and the runner would panic mid-batch.
        // (Below the bound the dart-throwing generator can still fail
        // probabilistically — that risk is unchanged from a declared
        // `nodes` value and surfaces at the first replicate, not deep
        // into a sweep.)
        if let DeployKindSpec::Poisson { min_dist } = self.deployment.kind {
            let mut densest = self.deployment.nodes as f64;
            for axis in &self.sweep {
                if axis.field == SWEEP_NODES {
                    if let AxisValues::Numeric(vals) = &axis.values {
                        densest = vals.iter().cloned().fold(densest, f64::max);
                    }
                }
            }
            let (w, h) = self.deployment.region;
            // Each point owns an exclusive open disk of radius d/2; the
            // disks are disjoint and fit in the region inflated by d/2.
            let cap = (w + min_dist) * (h + min_dist)
                / (core::f64::consts::PI * min_dist * min_dist / 4.0);
            if densest > cap {
                return Err(err(format!(
                    "poisson deployment cannot hold {densest} nodes at min_dist \
                     {min_dist} in a {w}x{h} m region (packing bound ~ {} nodes)",
                    cap.floor()
                )));
            }
        }
        // Every policy must be instantiable at every sweep point. Numeric
        // axes are probed at their extremes (linear invariants like
        // max >= base fail, if at all, at an extreme); a names axis is
        // probed at every value.
        let axis_probe: Vec<Vec<AxisValue>> = if self.sweep.is_empty() {
            vec![Vec::new()]
        } else {
            let mut probes: Vec<Vec<AxisValue>> = vec![Vec::new()];
            for axis in &self.sweep {
                let candidates: Vec<AxisValue> = match &axis.values {
                    AxisValues::Numeric(vals) => {
                        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
                        let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                        vec![AxisValue::Num(lo), AxisValue::Num(hi)]
                    }
                    AxisValues::Names(names) => {
                        names.iter().map(|n| AxisValue::Name(n.clone())).collect()
                    }
                };
                let mut next = Vec::new();
                for probe in &probes {
                    for v in &candidates {
                        let mut p = probe.clone();
                        p.push(v.clone());
                        next.push(p);
                    }
                }
                probes = next;
            }
            probes
        };
        for spec in &self.policies {
            for probe in &axis_probe {
                let assignments: Vec<(String, AxisValue)> = self
                    .sweep
                    .iter()
                    .zip(probe)
                    .map(|(axis, v)| (axis.field.clone(), v.clone()))
                    .collect();
                if let Some(params) = self.adaptive_params(spec, &assignments)? {
                    params
                        .check()
                        .map_err(|msg| err(format!("policy `{}`: {msg}", spec.label)))?;
                }
            }
        }
        Ok(())
    }

    /// The [`Scenario`] for one replicate seed.
    pub fn scenario(&self, seed: u64) -> Scenario {
        self.scenario_for(seed, &[])
    }

    /// The [`Scenario`] for one replicate seed under sweep-axis
    /// assignments: a `nodes` assignment overrides the declared
    /// deployment density (density sweeps); every other axis leaves the
    /// physical arena untouched (a `failure_p` assignment concerns the
    /// failure plan, see [`failure_plan`](crate::exec::failure_plan)).
    pub fn scenario_for(&self, seed: u64, assignments: &[(String, AxisValue)]) -> Scenario {
        let kind = match self.deployment.kind {
            DeployKindSpec::Uniform => DeploymentKind::Uniform,
            DeployKindSpec::Grid { cols, rows } => DeploymentKind::Grid { cols, rows },
            DeployKindSpec::Poisson { min_dist } => DeploymentKind::PoissonDisk { min_dist },
        };
        let node_count = assigned(assignments, SWEEP_NODES)
            .map(|v| v as usize)
            .unwrap_or(self.deployment.nodes);
        Scenario {
            region: self.region(),
            node_count,
            range_m: self.deployment.range_m,
            deployment: kind,
            seed,
        }
    }

    /// The deployment region as an [`Aabb`].
    pub fn region(&self) -> Aabb {
        Aabb::from_size(self.deployment.region.0, self.deployment.region.1)
    }

    /// Build the stimulus field (shared across all runs of the batch).
    pub fn build_field(&self) -> Box<dyn StimulusField> {
        self.stimulus.build(self.region())
    }

    /// Resolved adaptive parameters for a policy spec under the given
    /// sweep-axis assignments, or `None` for parameterless policies.
    /// Axis assignments are applied after per-policy overrides: the swept
    /// variable really varies, for every adaptive policy. A `predictor`
    /// assignment mounts the named estimator (default parameters); a
    /// `nodes` or `failure_p` assignment concerns the world, not the
    /// params, and is skipped here (see [`Manifest::scenario_for`] and
    /// [`failure_plan`](crate::exec::failure_plan)).
    pub fn adaptive_params(
        &self,
        spec: &PolicySpec,
        assignments: &[(String, AxisValue)],
    ) -> Result<Option<AdaptiveParams>, ManifestError> {
        if matches!(spec.kind.as_str(), "ns" | "oracle") {
            return Ok(None);
        }
        let mut params = AdaptiveParams::default();
        if spec.kind == "sas" {
            // SAS's degenerate alert horizon (see `Policy::sas_default`).
            params.alert_threshold_s = 2.0;
        }
        if let Some(p) = &spec.predictor {
            params.predictor = *p;
        }
        for (field, value) in &spec.overrides {
            set_param(&mut params, field, *value)?;
        }
        for (field, value) in assignments {
            match value {
                AxisValue::Num(_) if field == SWEEP_NODES || field == SWEEP_FAILURE_P => {}
                AxisValue::Num(v) => set_param(&mut params, field, *v)?,
                AxisValue::Name(name) if field == SWEEP_PREDICTOR => {
                    params.predictor = PredictorSpec::from_name(name).ok_or_else(|| {
                        err(format!(
                            "unknown predictor `{name}` (known: {})",
                            PREDICTOR_NAMES.join(", ")
                        ))
                    })?;
                }
                AxisValue::Name(name) => {
                    return Err(err(format!(
                        "named assignment `{field} = \"{name}\"` is not a parameter field"
                    )))
                }
            }
        }
        Ok(Some(params))
    }

    /// Instantiate the [`Policy`] for a spec under sweep assignments.
    pub fn policy(
        &self,
        spec: &PolicySpec,
        assignments: &[(String, AxisValue)],
    ) -> Result<Policy, ManifestError> {
        Ok(match spec.kind.as_str() {
            "ns" => Policy::Ns,
            "oracle" => Policy::Oracle,
            "sas" => Policy::Sas(
                self.adaptive_params(spec, assignments)?
                    .expect("sas has params"),
            ),
            _ => Policy::Pas(
                self.adaptive_params(spec, assignments)?
                    .expect("pas has params"),
            ),
        })
    }

    /// Report x-axis label.
    pub fn x_label(&self) -> String {
        if let Some(l) = &self.output.x_label {
            return l.clone();
        }
        self.sweep
            .first()
            .map(|a| a.field.clone())
            .unwrap_or_else(|| "x".to_string())
    }

    /// Serialise back to canonical TOML (lossless: `parse(to_toml(m)) == m`
    /// for every manifest that parses — the reader rejects raw control
    /// characters, and the writer escapes exactly what the reader accepts).
    pub fn to_toml(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "[scenario]");
        let _ = writeln!(s, "name = {}", toml_str(&self.name));
        let _ = writeln!(s, "description = {}", toml_str(&self.description));
        let _ = writeln!(s, "\n[deployment]");
        let _ = writeln!(
            s,
            "region = [{:?}, {:?}]",
            self.deployment.region.0, self.deployment.region.1
        );
        let _ = writeln!(s, "nodes = {}", self.deployment.nodes);
        let _ = writeln!(s, "range_m = {:?}", self.deployment.range_m);
        match self.deployment.kind {
            DeployKindSpec::Uniform => {
                let _ = writeln!(s, "kind = \"uniform\"");
            }
            DeployKindSpec::Grid { cols, rows } => {
                let _ = writeln!(s, "kind = \"grid\"\ncols = {cols}\nrows = {rows}");
            }
            DeployKindSpec::Poisson { min_dist } => {
                let _ = writeln!(s, "kind = \"poisson\"\nmin_dist = {min_dist:?}");
            }
        }
        let _ = writeln!(s, "\n[stimulus]");
        let profile_toml = |p: &ProfileSpec| match *p {
            ProfileSpec::Constant { speed } => {
                format!("profile = {{ kind = \"constant\", speed = {speed:?} }}")
            }
            ProfileSpec::Linear { v0, accel } => {
                format!("profile = {{ kind = \"linear\", v0 = {v0:?}, accel = {accel:?} }}")
            }
            ProfileSpec::Decaying { v0, tau } => {
                format!("profile = {{ kind = \"decaying\", v0 = {v0:?}, tau = {tau:?} }}")
            }
        };
        match &self.stimulus {
            StimulusSpec::Radial { source, profile } => {
                let _ = writeln!(s, "kind = \"radial\"");
                let _ = writeln!(s, "source = [{:?}, {:?}]", source.0, source.1);
                let _ = writeln!(s, "{}", profile_toml(profile));
            }
            StimulusSpec::Anisotropic {
                source,
                profile,
                theta0,
                k,
            } => {
                let _ = writeln!(s, "kind = \"anisotropic\"");
                let _ = writeln!(s, "source = [{:?}, {:?}]", source.0, source.1);
                let _ = writeln!(s, "{}", profile_toml(profile));
                let _ = writeln!(s, "theta0 = {theta0:?}\nk = {k:?}");
            }
            StimulusSpec::Plume {
                source,
                mass,
                diffusivity,
                current,
                threshold,
            } => {
                let _ = writeln!(s, "kind = \"plume\"");
                let _ = writeln!(s, "source = [{:?}, {:?}]", source.0, source.1);
                let _ = writeln!(s, "mass = {mass:?}\ndiffusivity = {diffusivity:?}");
                let _ = writeln!(s, "current = [{:?}, {:?}]", current.0, current.1);
                let _ = writeln!(s, "threshold = {threshold:?}");
            }
            StimulusSpec::Eikonal {
                sources,
                nx,
                ny,
                base_speed,
                patches,
            } => {
                let _ = writeln!(s, "kind = \"eikonal\"");
                let srcs: Vec<String> = sources
                    .iter()
                    .map(|(x, y)| format!("[{x:?}, {y:?}]"))
                    .collect();
                let _ = writeln!(s, "sources = [{}]", srcs.join(", "));
                let _ = writeln!(s, "nx = {nx}\nny = {ny}\nbase_speed = {base_speed:?}");
                for p in patches {
                    let _ = writeln!(s, "\n[[stimulus.patches]]");
                    let (x0, y0, x1, y1) = p.rect;
                    let _ = writeln!(s, "rect = [{x0:?}, {y0:?}, {x1:?}, {y1:?}]");
                    let _ = writeln!(s, "speed = {:?}", p.speed);
                }
            }
            StimulusSpec::None => {
                let _ = writeln!(s, "kind = \"none\"");
            }
        }
        let _ = writeln!(s, "\n[channel]");
        match self.channel {
            ChannelSpec::Perfect => {
                let _ = writeln!(s, "kind = \"perfect\"");
            }
            ChannelSpec::Iid { loss } => {
                let _ = writeln!(s, "kind = \"iid\"\nloss = {loss:?}");
            }
            ChannelSpec::Distance {
                good_fraction,
                edge_loss,
            } => {
                let _ = writeln!(
                    s,
                    "kind = \"distance\"\ngood_fraction = {good_fraction:?}\nedge_loss = {edge_loss:?}"
                );
            }
        }
        let _ = writeln!(s, "\n[failures]");
        match self.failures {
            FailureSpec::None => {
                let _ = writeln!(s, "kind = \"none\"");
            }
            FailureSpec::Random { p, horizon_s } => {
                let _ = writeln!(s, "kind = \"random\"\np = {p:?}\nhorizon_s = {horizon_s:?}");
            }
            FailureSpec::FrontKill { delay_s } => {
                let _ = writeln!(s, "kind = \"front_kill\"\ndelay_s = {delay_s:?}");
            }
        }
        let _ = writeln!(s, "\n[run]");
        let _ = writeln!(s, "base_seed = {}", self.run.base_seed);
        let _ = writeln!(s, "replicates = {}", self.run.replicates);
        let _ = writeln!(s, "grace_s = {:?}", self.run.grace_s);
        if let Some(h) = self.run.horizon_s {
            let _ = writeln!(s, "horizon_s = {h:?}");
        }
        if self.run.threads != 0 {
            let _ = writeln!(s, "threads = {}", self.run.threads);
        }
        for p in &self.policies {
            let _ = writeln!(s, "\n[[policies]]");
            let _ = writeln!(s, "kind = {}", toml_str(&p.kind));
            if let Some(pred) = &p.predictor {
                let _ = writeln!(s, "predictor = {}", predictor_toml(pred));
            }
            if p.label != default_label(&p.kind, p.predictor.as_ref()) {
                let _ = writeln!(s, "label = {}", toml_str(&p.label));
            }
            for (field, v) in &p.overrides {
                let _ = writeln!(s, "{field} = {v:?}");
            }
        }
        if !self.sweep.is_empty() {
            let _ = writeln!(s, "\n[sweep]");
            for axis in &self.sweep {
                let vals: Vec<String> = match &axis.values {
                    AxisValues::Numeric(vals) => vals.iter().map(|v| format!("{v:?}")).collect(),
                    AxisValues::Names(names) => names.iter().map(|n| toml_str(n)).collect(),
                };
                let _ = writeln!(s, "{} = [{}]", axis.field, vals.join(", "));
            }
        }
        if let Some(x) = &self.output.x_label {
            let _ = writeln!(s, "\n[output]");
            let _ = writeln!(s, "x_label = {}", toml_str(x));
        }
        s
    }
}

/// Quote a string as a TOML basic string, using only escapes the
/// in-tree reader understands (`\"`, `\\`, `\n`, `\t`, `\r`, and
/// `\uXXXX` for the other control characters, which the reader rejects
/// raw).
fn toml_str(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 2);
    out.push('"');
    for c in raw.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c < ' ' || c == '\u{7f}' => {
                let _ = write!(out, "\\u{:04X}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
