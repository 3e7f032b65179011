//! Simulation scenario configuration.

use wcdma_admission::{
    AdmissionPolicy, BoxedPolicy, EqualShare, Fcfs, JabaSd, PhyModel, SchedulerConfig,
};
use wcdma_cdma::CdmaConfig;
use wcdma_mac::{LinkDir, MacTimers};
use wcdma_phy::{BerModel, FixedPhy, SpreadingConfig, Vtaoc};

/// Which physical layer the scenario runs (the E5 ablation axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhyKind {
    /// The paper's channel-adaptive VTAOC.
    Adaptive,
    /// Fixed single-mode PHY designed for the cell-median CSI.
    Fixed,
}

/// Web-browsing traffic parameters (truncated-Pareto burst sizes with
/// exponential reading time — the Kumar–Nanda dynamic-simulation workload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficConfig {
    /// Pareto shape α (> 1 for finite mean).
    pub pareto_shape: f64,
    /// Mean burst size in bits (before truncation).
    pub mean_burst_bits: f64,
    /// Truncation cap in bits (heavy tail clamp).
    pub max_burst_bits: f64,
    /// Mean reading (think) time between bursts, seconds.
    pub mean_reading_s: f64,
    /// Probability a burst is forward-link (else reverse).
    pub p_forward: f64,
}

impl TrafficConfig {
    /// Defaults: α = 1.7, mean 12 kB (= 96 kbit), cap 200 kB, 4 s reading.
    pub fn web_default() -> Self {
        Self {
            pareto_shape: 1.7,
            mean_burst_bits: 96_000.0,
            max_burst_bits: 1_600_000.0,
            mean_reading_s: 4.0,
            p_forward: 1.0,
        }
    }

    /// Validates parameters.
    // Negated comparisons are deliberate: they reject NaN-valued parameters,
    // which the un-negated forms would silently accept.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), String> {
        if !(self.pareto_shape > 1.0) {
            return Err("Pareto shape must exceed 1".into());
        }
        if !(self.mean_burst_bits > 0.0 && self.max_burst_bits >= self.mean_burst_bits) {
            return Err("burst sizes inconsistent".into());
        }
        if !(self.mean_reading_s > 0.0) {
            return Err("reading time must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.p_forward) {
            return Err("p_forward must be a probability".into());
        }
        Ok(())
    }
}

/// Model-mismatch fault injection: the gap between the channel model the
/// scheduler *assumes* (the calibration behind the eq.-24 region and the
/// κ shadowing margin) and the physics the network actually evolves under.
///
/// The deltas are applied to the **true** channel only — the scheduler
/// keeps computing its admissible region from the unmodified urban
/// defaults, so a non-zero delta means the region is *wrong* and every
/// model-trusting policy silently over- or under-admits. The CSI dropout
/// knob layers bursty feedback loss (the Gilbert model in
/// [`wcdma_channel::CsiEstimator::with_dropout`]) on top of the existing
/// delay/noise CSI axis.
///
/// All-zero (the [`MismatchConfig::disabled`] default) is **bit-identical**
/// to the exact model: no extra RNG draws, no changed code paths (see
/// `docs/MISMATCH.md`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MismatchConfig {
    /// Added to the true channel's path-loss exponent (the assumed model
    /// keeps the urban default 4.0). Negative ⇒ signals — and interference
    /// — carry farther than the scheduler believes.
    pub pathloss_exponent_delta: f64,
    /// Added to the true channel's shadowing σ in dB (assumed default
    /// 8.0). Positive ⇒ deeper fades than the κ margin was sized for.
    pub shadow_sigma_delta_db: f64,
    /// Per-frame probability that a CSI feedback dropout burst starts
    /// (0 = feature off, no RNG draws).
    pub csi_dropout_p: f64,
    /// Mean dropout burst length in frames (≥ 1; geometric bursts).
    pub csi_dropout_mean_frames: f64,
}

impl MismatchConfig {
    /// No mismatch: the true channel equals the assumed channel.
    pub fn disabled() -> Self {
        Self {
            pathloss_exponent_delta: 0.0,
            shadow_sigma_delta_db: 0.0,
            csi_dropout_p: 0.0,
            csi_dropout_mean_frames: 1.0,
        }
    }

    /// Whether any channel-model delta is active (dropout is tracked
    /// separately because it perturbs the CSI pipeline, not the network).
    pub fn channel_mismatch_active(&self) -> bool {
        self.pathloss_exponent_delta != 0.0 || self.shadow_sigma_delta_db != 0.0
    }

    /// Validates the deltas against the urban-default assumed model.
    // Negated comparisons are deliberate: they reject NaN-valued parameters,
    // which the un-negated forms would silently accept.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), String> {
        if !self.pathloss_exponent_delta.is_finite() || !(self.pathloss_exponent_delta > -4.0) {
            return Err("path-loss exponent delta must be finite and > -4 \
                 (true exponent must stay positive)"
                .into());
        }
        if !self.shadow_sigma_delta_db.is_finite() || !(self.shadow_sigma_delta_db >= -8.0) {
            return Err("shadowing sigma delta must be finite and >= -8 dB \
                 (true sigma must stay non-negative)"
                .into());
        }
        if !(0.0..1.0).contains(&self.csi_dropout_p) {
            return Err("CSI dropout probability must be in [0, 1)".into());
        }
        if !(self.csi_dropout_mean_frames >= 1.0) {
            return Err("CSI dropout mean burst length must be at least one frame".into());
        }
        Ok(())
    }
}

impl Default for MismatchConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Full scenario description.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Air-interface / network parameters.
    pub cdma: CdmaConfig,
    /// Spreading / SCH parameters.
    pub spreading: SpreadingConfig,
    /// MAC timers.
    pub timers: MacTimers,
    /// Hex layout rings (1 ⇒ 7 cells, 2 ⇒ 19 cells).
    pub rings: u32,
    /// Cell radius (m).
    pub cell_radius_m: f64,
    /// Number of background voice users (whole system).
    pub n_voice: usize,
    /// Number of data users (whole system).
    pub n_data: usize,
    /// Mobile speed (m/s) used for all users.
    pub speed_ms: f64,
    /// Hotspot overload factor: cell 0 attracts this multiple of the user
    /// density of every other cell (1.0 ⇒ uniform round-robin placement).
    pub hotspot_overload: f64,
    /// Traffic model.
    pub traffic: TrafficConfig,
    /// PHY under test.
    pub phy: PhyKind,
    /// Target BER of the PHY.
    pub target_ber: f64,
    /// Design-point mean CSI (dB) for the fixed PHY baseline.
    pub fixed_design_csi_db: f64,
    /// Scheduling policy under test — any [`AdmissionPolicy`] object (a
    /// concrete policy boxes via [`AdmissionPolicy::into_boxed`]); registry
    /// names resolve via [`wcdma_admission::PolicyRegistry::resolve`].
    pub policy: BoxedPolicy,
    /// Minimum justified burst duration T1 (s).
    pub t1_min_burst_s: f64,
    /// Simulated time (s).
    pub duration_s: f64,
    /// Warm-up time excluded from statistics (s).
    pub warmup_s: f64,
    /// Master seed.
    pub seed: u64,
    /// CSI feedback estimation error σ (dB) seen by the scheduler
    /// (0 = ideal). Bits are always delivered at the *true* channel rate;
    /// only the admission decisions are degraded.
    pub csi_error_sigma_db: f64,
    /// CSI feedback delay in frames seen by the scheduler (0 = ideal).
    pub csi_delay_frames: usize,
    /// Intra-frame parallelism: total threads working each frame's
    /// per-mobile loops (`1` = inline, `0` = one per available core).
    /// **Never changes results**: the frame pipeline chunks mobiles into
    /// fixed-size blocks and folds all `f64` reductions in chunk order,
    /// so every thread count produces bit-identical output.
    pub frame_threads: usize,
    /// Candidate cells per mobile: each mobile only evaluates its
    /// `candidate_k` nearest cells (wrap-around distance) in the frame
    /// pipeline. `0` (the default) keeps every cell — bit-identical to the
    /// pre-culling pipeline by construction. Small values cut the
    /// `O(n_mobiles × n_cells)` frame cost at `rings ≥ 3`; the culling is
    /// a deterministic physical approximation (see `docs/DETERMINISM.md`).
    /// Must be 0 or ≥ `cdma.active_set_max` so soft hand-off still fills.
    pub candidate_k: usize,
    /// Model-mismatch fault injection (assumed-vs-true channel split +
    /// CSI dropout). Disabled by default; see [`MismatchConfig`].
    pub mismatch: MismatchConfig,
    /// Candidate-list refresh cadence in frames (≥ 1). Part of the
    /// deterministic contract: two runs with the same `(candidate_k,
    /// candidate_refresh)` are bit-identical; changing the cadence changes
    /// results like any other scenario parameter. Irrelevant while
    /// `candidate_k == 0` (identity lists never change).
    pub candidate_refresh: usize,
}

impl SimConfig {
    /// Baseline scenario: 7-cell layout, pedestrian users, web traffic,
    /// JABA-SD(J2) over the adaptive PHY.
    pub fn baseline() -> Self {
        Self {
            cdma: CdmaConfig::default_system(),
            spreading: SpreadingConfig::cdma2000_default(),
            timers: MacTimers::default_timers(),
            rings: 1,
            cell_radius_m: 1000.0,
            n_voice: 40,
            n_data: 8,
            speed_ms: 3.0 / 3.6,
            hotspot_overload: 1.0,
            traffic: TrafficConfig::web_default(),
            phy: PhyKind::Adaptive,
            target_ber: 1e-3,
            fixed_design_csi_db: 3.0,
            policy: JabaSd::default_j2().into_boxed(),
            t1_min_burst_s: 0.04,
            duration_s: 60.0,
            warmup_s: 5.0,
            seed: 0x1CE_BEEF,
            csi_error_sigma_db: 0.0,
            csi_delay_frames: 0,
            frame_threads: 1,
            candidate_k: 0,
            candidate_refresh: 8,
            mismatch: MismatchConfig::disabled(),
        }
    }

    /// The PHY model instance for the scheduler.
    pub fn phy_model(&self) -> PhyModel {
        let model = BerModel::coded();
        match self.phy {
            PhyKind::Adaptive => PhyModel::Adaptive(Vtaoc::constant_ber(model, self.target_ber)),
            PhyKind::Fixed => PhyModel::Fixed(FixedPhy::designed_for(
                model,
                self.target_ber,
                wcdma_math::db_to_lin(self.fixed_design_csi_db),
            )),
        }
    }

    /// Assembles the scheduler configuration for this scenario.
    pub fn scheduler_config(&self) -> SchedulerConfig {
        SchedulerConfig {
            spreading: self.spreading,
            phy: self.phy_model(),
            timers: self.timers,
            t1_min_burst_s: self.t1_min_burst_s,
            min_delta_beta: 0.01,
            pmax_w: self.cdma.max_bs_power_w,
            lmax_w: self.cdma.reverse_limit_w(),
            kappa: self.cdma.kappa_margin,
        }
    }

    /// Number of simulation frames.
    pub fn n_frames(&self) -> usize {
        (self.duration_s / self.cdma.frame_s).round() as usize
    }

    /// Validates the whole scenario.
    // Negated comparisons are deliberate: they reject NaN-valued parameters,
    // which the un-negated forms would silently accept.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), String> {
        self.cdma.validate()?;
        self.spreading.validate()?;
        self.timers.validate()?;
        self.traffic.validate()?;
        if self.duration_s <= self.warmup_s {
            return Err("duration must exceed warm-up".into());
        }
        if !(self.target_ber > 0.0 && self.target_ber < 0.5) {
            return Err("target BER out of range".into());
        }
        if self.rings == 0 {
            return Err("need at least one ring".into());
        }
        if !(self.csi_error_sigma_db >= 0.0) {
            return Err("CSI error sigma must be non-negative".into());
        }
        if !(self.hotspot_overload > 0.0 && self.hotspot_overload.is_finite()) {
            return Err("hotspot overload factor must be positive and finite".into());
        }
        if self.candidate_refresh == 0 {
            return Err("candidate refresh cadence must be at least one frame".into());
        }
        if self.candidate_k != 0 && self.candidate_k < self.cdma.active_set_max {
            return Err("candidate_k must be 0 (all cells) or >= active_set_max".into());
        }
        self.mismatch.validate()?;
        Ok(())
    }

    /// Returns a copy with a different policy object (sweep helper).
    pub fn with_policy(&self, policy: BoxedPolicy) -> Self {
        let mut c = self.clone();
        c.policy = policy;
        c
    }

    /// Returns a copy with a different data-user count (sweep helper).
    pub fn with_n_data(&self, n_data: usize) -> Self {
        let mut c = self.clone();
        c.n_data = n_data;
        c
    }

    /// Returns a copy with all traffic on the given link.
    pub fn with_direction(&self, dir: LinkDir) -> Self {
        let mut c = self.clone();
        c.traffic.p_forward = match dir {
            LinkDir::Forward => 1.0,
            LinkDir::Reverse => 0.0,
        };
        c
    }

    /// Returns a copy with a different seed (replication helper).
    pub fn with_seed(&self, seed: u64) -> Self {
        let mut c = self.clone();
        c.seed = seed;
        c
    }

    /// Returns a copy with a different mobile speed, given in km/h.
    pub fn with_speed_kmh(&self, speed_kmh: f64) -> Self {
        let mut c = self.clone();
        c.speed_ms = speed_kmh / 3.6;
        c
    }

    /// Returns a copy with a different hotspot overload factor.
    pub fn with_hotspot(&self, overload: f64) -> Self {
        let mut c = self.clone();
        c.hotspot_overload = overload;
        c
    }

    /// Returns a copy with a different intra-frame thread count
    /// (`0` = one per available core). Results are bit-identical for
    /// every value — this is purely a throughput knob.
    pub fn with_frame_threads(&self, frame_threads: usize) -> Self {
        let mut c = self.clone();
        c.frame_threads = frame_threads;
        c
    }

    /// Returns a copy with per-mobile candidate cell lists: `k` nearest
    /// cells per mobile (`0` = all cells, exact), re-selected every
    /// `refresh` frames. `k = 0` is bit-identical to the default; smaller
    /// `k` trades distant-cell interference terms for frame throughput
    /// deterministically (see `docs/DETERMINISM.md`).
    pub fn with_candidates(&self, k: usize, refresh: usize) -> Self {
        let mut c = self.clone();
        c.candidate_k = k;
        c.candidate_refresh = refresh;
        c
    }

    /// Returns a copy with the given model-mismatch injection (robustness
    /// sweep helper). [`MismatchConfig::disabled`] restores the exact
    /// model bit-identically.
    pub fn with_mismatch(&self, mismatch: MismatchConfig) -> Self {
        let mut c = self.clone();
        c.mismatch = mismatch;
        c
    }

    /// The paper's comparison table: JABA-SD under J2 and J1, FCFS with
    /// and without the single-burst cap, and equal sharing. The open,
    /// superset registry (including policies outside the paper) is
    /// [`wcdma_admission::PolicyRegistry::standard`], which the campaign
    /// layer's [`crate::campaign::policy_by_name`] resolves through.
    pub fn comparison_policies() -> Vec<(&'static str, BoxedPolicy)> {
        vec![
            ("jaba-sd-j2", JabaSd::default_j2().into_boxed()),
            ("jaba-sd-j1", JabaSd::j1().into_boxed()),
            ("fcfs", Fcfs::unlimited().into_boxed()),
            ("fcfs-1", Fcfs::single().into_boxed()),
            ("equal-share", EqualShare.into_boxed()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_validates() {
        SimConfig::baseline().validate().expect("valid baseline");
    }

    #[test]
    fn sweep_helpers() {
        let base = SimConfig::baseline();
        assert_eq!(base.with_n_data(20).n_data, 20);
        assert_eq!(base.with_direction(LinkDir::Reverse).traffic.p_forward, 0.0);
        assert_eq!(base.with_seed(9).seed, 9);
        assert!((base.with_speed_kmh(36.0).speed_ms - 10.0).abs() < 1e-12);
        assert_eq!(base.with_hotspot(2.5).hotspot_overload, 2.5);
        assert!(base.with_hotspot(0.0).validate().is_err());
        assert_eq!(base.n_frames(), 3000);
    }

    #[test]
    fn traffic_validation() {
        let mut t = TrafficConfig::web_default();
        t.pareto_shape = 1.0;
        assert!(t.validate().is_err());
        let mut t2 = TrafficConfig::web_default();
        t2.p_forward = 1.5;
        assert!(t2.validate().is_err());
    }

    #[test]
    fn phy_model_switches() {
        let mut c = SimConfig::baseline();
        c.phy = PhyKind::Fixed;
        // Fixed PHY below adaptive at high CSI.
        let eps = wcdma_math::db_to_lin(20.0);
        let fixed_tput = c.phy_model().avg_throughput(eps);
        c.phy = PhyKind::Adaptive;
        let adaptive_tput = c.phy_model().avg_throughput(eps);
        assert!(adaptive_tput > fixed_tput);
    }

    #[test]
    fn mismatch_validation() {
        let base = SimConfig::baseline();
        assert_eq!(base.mismatch, MismatchConfig::disabled());
        assert!(!base.mismatch.channel_mismatch_active());
        let m = MismatchConfig {
            pathloss_exponent_delta: -0.4,
            shadow_sigma_delta_db: 4.0,
            csi_dropout_p: 0.05,
            csi_dropout_mean_frames: 10.0,
        };
        assert!(m.channel_mismatch_active());
        base.with_mismatch(m).validate().expect("valid mismatch");
        for bad in [
            MismatchConfig {
                pathloss_exponent_delta: -4.0,
                ..MismatchConfig::disabled()
            },
            MismatchConfig {
                shadow_sigma_delta_db: -9.0,
                ..MismatchConfig::disabled()
            },
            MismatchConfig {
                csi_dropout_p: 1.0,
                ..MismatchConfig::disabled()
            },
            MismatchConfig {
                csi_dropout_mean_frames: 0.5,
                ..MismatchConfig::disabled()
            },
            MismatchConfig {
                pathloss_exponent_delta: f64::NAN,
                ..MismatchConfig::disabled()
            },
        ] {
            assert!(base.with_mismatch(bad).validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn comparison_policies_cover_paper() {
        let names: Vec<&str> = SimConfig::comparison_policies()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert!(names.contains(&"jaba-sd-j2"));
        assert!(names.contains(&"fcfs"));
        assert!(names.contains(&"equal-share"));
    }
}
