//! # pas-diffusion — diffusion-stimulus (DS) ground truth models
//!
//! The PAS paper monitors a *diffusion stimulus*: "a liquid pollutant spreads
//! from the source over a continuously enlarging area", spreading "along the
//! normal direction of the boundary" (§3.3, citing Xue et al. \[15\]). This
//! crate implements that physical substrate — the part of the authors'
//! simulator that generates the phenomenon the sensors observe:
//!
//! * [`StimulusField`] — the trait every model implements: *is point `p`
//!   covered at time `t`?* plus the ground-truth first-arrival time that the
//!   detection-delay metric is defined against.
//! * [`RadialFront`] — isotropic outward front with a pluggable radial
//!   [`SpeedProfile`] (constant / linear ramp / exponential decay /
//!   piecewise), solved in closed form where possible.
//! * [`AnisotropicFront`] — direction-dependent speed (wind-skewed spreading;
//!   the paper's Fig. 2 notes the alert region "is an irregular shape rather
//!   than a circle because the spreading rate may vary in different
//!   directions").
//! * [`MultiSourceField`] — union of independent sources (min arrival).
//! * [`GaussianPlume`] — analytic advection-diffusion puff whose coverage can
//!   also *recede*, exercising the paper's covered→safe detection-timeout
//!   transition.
//! * [`eikonal`] — a Fast Marching Method solver for `|∇T| F = 1` on a
//!   heterogeneous speed grid: front propagation through media where speed
//!   varies in space, with bilinear arrival interpolation.
//!
//! All models are deterministic pure functions of their parameters; the
//! simulator samples them, never steps them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aniso;
pub mod eikonal;
pub mod field;
pub mod multi;
pub mod plume;
pub mod profile;
pub mod radial;

pub use aniso::AnisotropicFront;
pub use eikonal::{EikonalField, SpeedGrid};
pub use field::StimulusField;
pub use multi::MultiSourceField;
pub use plume::GaussianPlume;
pub use profile::SpeedProfile;
pub use radial::RadialFront;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::aniso::AnisotropicFront;
    pub use crate::eikonal::{EikonalField, SpeedGrid};
    pub use crate::field::StimulusField;
    pub use crate::multi::MultiSourceField;
    pub use crate::plume::GaussianPlume;
    pub use crate::profile::SpeedProfile;
    pub use crate::radial::RadialFront;
}
