//! System-level CDMA network configuration.
//!
//! Collects the cdma2000-flavoured link-budget and hand-off parameters used
//! across the reproduction. Experiments that deviate from the defaults do
//! so explicitly through the builder methods.

use wcdma_math::db::{db_to_lin, thermal_noise_watt};

/// Configuration of the CDMA air interface and network.
#[derive(Debug, Clone, PartialEq)]
pub struct CdmaConfig {
    /// Chip rate W (chips/s).
    pub chip_rate: f64,
    /// FCH information rate (bits/s).
    pub fch_rate: f64,
    /// FCH target Eb/I0 (linear).
    pub fch_ebi0_target: f64,
    /// Maximum total forward transmit power per base station, P_max (W).
    pub max_bs_power_w: f64,
    /// Pilot channel transmit power per base station (W).
    pub pilot_power_w: f64,
    /// Other common channels (sync/paging) transmit power (W).
    pub common_power_w: f64,
    /// Receiver noise figure (dB) for the reverse-link noise floor.
    pub noise_figure_db: f64,
    /// Reverse-link capacity limit as maximum rise-over-thermal (linear).
    pub max_rise_over_thermal: f64,
    /// Fraction of own-cell forward power that acts as interference after
    /// multipath (0 = perfectly orthogonal, 1 = fully non-orthogonal).
    pub orthogonality_loss: f64,
    /// Pilot Ec/Io add threshold for the active set (linear).
    pub t_add: f64,
    /// Pilot Ec/Io drop threshold for the active set (linear).
    pub t_drop: f64,
    /// Maximum FCH active-set size.
    pub active_set_max: usize,
    /// Reduced active set size for the SCH (cdma2000 uses 2).
    pub reduced_active_set: usize,
    /// Maximum mobile transmit power (W).
    pub mobile_max_power_w: f64,
    /// Transmit power ratio of FCH to reverse pilot at the mobile, ζ.
    pub fch_pilot_ratio: f64,
    /// Carrier frequency (Hz), for Doppler.
    pub carrier_hz: f64,
    /// Frame duration (s).
    pub frame_s: f64,
    /// Shadowing margin κ (linear) applied to projected neighbour-cell
    /// interference (eq. 15).
    pub kappa_margin: f64,
}

impl CdmaConfig {
    /// cdma2000-flavoured defaults.
    pub fn default_system() -> Self {
        Self {
            chip_rate: 3.686_4e6,
            fch_rate: 9_600.0,
            fch_ebi0_target: db_to_lin(7.0),
            max_bs_power_w: 20.0,
            pilot_power_w: 2.0,
            common_power_w: 1.0,
            noise_figure_db: 5.0,
            max_rise_over_thermal: db_to_lin(6.0),
            orthogonality_loss: 0.4,
            t_add: db_to_lin(-14.0),
            t_drop: db_to_lin(-16.0),
            active_set_max: 3,
            reduced_active_set: 2,
            mobile_max_power_w: 0.2,
            fch_pilot_ratio: db_to_lin(3.0),
            carrier_hz: 2.0e9,
            frame_s: 0.02,
            kappa_margin: db_to_lin(2.0),
        }
    }

    /// FCH processing gain θ_f = W / R_f.
    pub fn fch_processing_gain(&self) -> f64 {
        self.chip_rate / self.fch_rate
    }

    /// Reverse-link thermal noise floor (W) over the chip bandwidth.
    pub fn noise_floor_w(&self) -> f64 {
        thermal_noise_watt(self.chip_rate, self.noise_figure_db)
    }

    /// Reverse-link admission limit L_max (W): noise floor × max rise.
    pub fn reverse_limit_w(&self) -> f64 {
        self.noise_floor_w() * self.max_rise_over_thermal
    }

    /// Validates invariants.
    // Negated comparisons are deliberate: they reject NaN-valued parameters,
    // which the un-negated forms would silently accept.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), String> {
        if !(self.chip_rate > 0.0 && self.fch_rate > 0.0) {
            return Err("rates must be positive".into());
        }
        if self.fch_rate >= self.chip_rate {
            return Err("FCH rate must be far below chip rate".into());
        }
        if !(self.max_bs_power_w > self.pilot_power_w + self.common_power_w) {
            return Err("BS power budget must exceed overhead channels".into());
        }
        if !(self.t_drop < self.t_add) {
            return Err("T_DROP must be below T_ADD for hysteresis".into());
        }
        // A positive T_DROP drops every active-set member that is not a
        // candidate cell (its pilot reads 0), which the network relies on.
        if !(self.t_drop > 0.0) {
            return Err("T_DROP must be positive".into());
        }
        if self.reduced_active_set == 0 || self.active_set_max == 0 {
            return Err("active set sizes must be at least 1".into());
        }
        if self.reduced_active_set > self.active_set_max {
            return Err("reduced active set cannot exceed active set".into());
        }
        if !(0.0..=1.0).contains(&self.orthogonality_loss) {
            return Err("orthogonality loss must be in [0,1]".into());
        }
        if !(self.max_rise_over_thermal > 1.0) {
            return Err("rise-over-thermal limit must exceed 1 (0 dB)".into());
        }
        if !(self.kappa_margin >= 1.0) {
            return Err("kappa margin must be >= 1 (>= 0 dB)".into());
        }
        if !(self.frame_s > 0.0) {
            return Err("frame duration must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        CdmaConfig::default_system().validate().expect("valid");
    }

    #[test]
    fn processing_gain() {
        let c = CdmaConfig::default_system();
        assert!((c.fch_processing_gain() - 384.0).abs() < 1e-9);
    }

    #[test]
    fn noise_floor_plausible() {
        let c = CdmaConfig::default_system();
        let dbm = wcdma_math::db::watt_to_dbm(c.noise_floor_w());
        assert!((-105.0..=-100.0).contains(&dbm), "noise floor {dbm} dBm");
        // Reverse limit is 6 dB above it.
        let lim = wcdma_math::db::watt_to_dbm(c.reverse_limit_w());
        assert!((lim - dbm - 6.0).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_inversions() {
        let mut c = CdmaConfig::default_system();
        c.t_add = c.t_drop / 2.0;
        assert!(c.validate().is_err());

        // A zero T_DROP would keep a member whose pilot reads 0.
        let mut c = CdmaConfig::default_system();
        c.t_drop = 0.0;
        assert!(c.validate().is_err());

        let mut c = CdmaConfig::default_system();
        c.reduced_active_set = 5;
        assert!(c.validate().is_err());

        let mut c = CdmaConfig::default_system();
        c.pilot_power_w = 50.0;
        assert!(c.validate().is_err());

        let mut c = CdmaConfig::default_system();
        c.orthogonality_loss = 1.5;
        assert!(c.validate().is_err());

        let mut c = CdmaConfig::default_system();
        c.kappa_margin = 0.5;
        assert!(c.validate().is_err());
    }
}
