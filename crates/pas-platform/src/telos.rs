//! Telos platform constants (the paper's Table 1).
//!
//! | Quantity            | Table 1 value | Model field        |
//! |---------------------|---------------|--------------------|
//! | Active power        | 3 mW          | `mcu_active_w`     |
//! | Sleep power         | 15 µW         | `sleep_w`          |
//! | Receive power       | 38 mW         | `radio_rx_w`       |
//! | Transition power    | 35 mW         | `radio_tx_w`       |
//! | Data rate           | 250 kbps      | `data_rate_bps`    |
//! | Total active power  | 41 mW         | derived (3 + 38)   |
//!
//! Reading note: the table's "transition power" is the CC2420 *transmit*
//! power (35 mW ≈ 0 dBm TX on Telos rev. B); "total active" = MCU + RX
//! confirms the decomposition. The sleep→active transition *time* is not in
//! the table; we use the Telos paper's ~2 ms wake-up figure (oscillator +
//! regulator settling), configurable per profile.

use crate::power::PowerProfile;

/// The Telos rev. B power profile used throughout the paper's evaluation,
/// as one shared static: every node's [`crate::EnergyMeter`] borrows this
/// instead of carrying its own copy.
pub static TELOS_PROFILE: PowerProfile = PowerProfile {
    name: "Telos (rev. B)",
    mcu_active_w: 3.0e-3,      // 3 mW
    sleep_w: 15.0e-6,          // 15 µW
    radio_rx_w: 38.0e-3,       // 38 mW
    radio_tx_w: 35.0e-3,       // 35 mW ("transition power" in Table 1)
    data_rate_bps: 250_000.0,  // 250 kbps (IEEE 802.15.4, CC2420)
    wake_transition_s: 2.0e-3, // ~2 ms wake-up (Telos paper, §3)
};

/// The Telos rev. B power profile used throughout the paper's evaluation.
pub fn telos_profile() -> PowerProfile {
    TELOS_PROFILE.clone()
}

/// Borrow the shared static Telos profile (meter construction wants a
/// `&'static` so thirty nodes share one profile instead of thirty copies).
pub fn telos_profile_ref() -> &'static PowerProfile {
    &TELOS_PROFILE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let p = telos_profile();
        assert_eq!(p.mcu_active_w, 3.0e-3);
        assert_eq!(p.sleep_w, 15.0e-6);
        assert_eq!(p.radio_rx_w, 38.0e-3);
        assert_eq!(p.radio_tx_w, 35.0e-3);
        assert_eq!(p.data_rate_bps, 250_000.0);
        assert_eq!(p.total_active_w(), 41.0e-3);
        p.validate();
    }
}
