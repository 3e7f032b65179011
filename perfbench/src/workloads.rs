//! The three workloads, each built from the run's seed. All are closed
//! loops: the next frame (or the next campaign invocation) starts only
//! when the previous one has finished.

use wcdma_admission::PolicyRegistry;
use wcdma_math::mix_seed;
use wcdma_sim::campaign::{builtin, ScenarioSpec};
use wcdma_sim::SimConfig;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BurstyCell,
    Metro,
    CampaignService,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BurstyCell,
        Workload::Metro,
        Workload::CampaignService,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BurstyCell => "bursty-cell",
            Workload::Metro => "metro",
            Workload::CampaignService => "campaign-service",
        }
    }

    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of a traced frame run. Fixed frame counts, so every count it
/// reports repeats exactly for a seed.
#[derive(Debug, Clone, Copy)]
pub struct TraceSize {
    /// Frames traced after the warm-up.
    pub frames: usize,
    /// Extra network steps timed at one thread.
    pub frames_1t: usize,
    /// Empty `FramePool::run` calls timed.
    pub pool_runs: usize,
}

/// A frame-loop workload: one `Simulation` stepped frame after frame.
#[derive(Debug, Clone)]
pub struct FrameSpec {
    pub cfg: SimConfig,
    /// Independent simulations the untraced run steps round-robin, one
    /// frame each in turn (seeds `mix_seed(seed, i)`); more of them average
    /// the seed-to-seed variation of a heavy-tailed workload.
    pub sims: usize,
    /// Frames stepped before anything is timed.
    pub warmup_frames: usize,
    /// The frame after which the state fingerprint is taken.
    pub fingerprint_frame: usize,
    /// Set-ups (every simulation built) whose median is `setup_s`.
    pub setup_runs: usize,
    pub trace: TraceSize,
}

impl FrameSpec {
    /// Configuration of simulation `i` (the traced run uses simulation 0).
    pub fn sim_cfg(&self, i: usize) -> SimConfig {
        self.cfg.with_seed(mix_seed(self.cfg.seed, i as u64))
    }
}

/// Simulated frames in one campaign cell (a replication of the default
/// spec duration). `cells_per_s` of a frame workload counts this many
/// frames as one cell, so the metric means the same on every workload.
pub fn frames_per_cell() -> f64 {
    let spec = ScenarioSpec::default();
    (spec.duration_s / SimConfig::baseline().cdma.frame_s).round()
}

fn registry_policy(cfg: &mut SimConfig, name: &str) {
    cfg.policy = PolicyRegistry::standard()
        .resolve(name)
        .expect("registry policy name");
}

/// `bursty-cell`: 7 cells with 100 voice and 100 short-burst web users
/// under `jaba-sd-j2`; nearly every frame runs an ILP scheduling round.
pub fn bursty_cell(seed: u64) -> FrameSpec {
    let mut cfg = SimConfig::baseline();
    cfg.rings = 1;
    cfg.n_voice = 100;
    cfg.n_data = 100;
    cfg.traffic.mean_burst_bits = 20_000.0;
    cfg.traffic.max_burst_bits = 60_000.0;
    cfg.traffic.mean_reading_s = 0.3;
    cfg.csi_error_sigma_db = 0.0;
    cfg.csi_delay_frames = 0;
    cfg.frame_threads = 1;
    cfg.duration_s = 3600.0;
    cfg.warmup_s = 5.0;
    cfg.seed = seed;
    registry_policy(&mut cfg, "jaba-sd-j2");
    FrameSpec {
        cfg,
        sims: 8,
        warmup_frames: 250,
        fingerprint_frame: 500,
        setup_runs: 9,
        trace: TraceSize {
            frames: 4000,
            frames_1t: 500,
            pool_runs: 2000,
        },
    }
}

/// `metro`: 217 cells with 9 000 voice and 1 000 web users, 7 candidate
/// cells refreshed every 8 frames, 2 frame threads; the network step is
/// nearly all of the frame.
pub fn metro(seed: u64) -> FrameSpec {
    let mut cfg = SimConfig::baseline();
    cfg.rings = 8;
    cfg.n_voice = 9_000;
    cfg.n_data = 1_000;
    cfg.candidate_k = 7;
    cfg.candidate_refresh = 8;
    cfg.csi_error_sigma_db = 0.0;
    cfg.csi_delay_frames = 0;
    cfg.frame_threads = 2;
    cfg.duration_s = 3600.0;
    cfg.warmup_s = 0.32;
    cfg.seed = seed;
    registry_policy(&mut cfg, "jaba-sd-j2");
    FrameSpec {
        cfg,
        sims: 1,
        warmup_frames: 16,
        fingerprint_frame: 64,
        setup_runs: 7,
        trace: TraceSize {
            frames: 240,
            frames_1t: 64,
            pool_runs: 2000,
        },
    }
}

/// `campaign-service`: the builtin `model-mismatch` campaign at 5
/// replications (24 scenarios × 5 = 120 cells), run through the CLI's
/// service mode with a simulated kill after `kill_after` cells.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    pub spec: ScenarioSpec,
    pub shards: usize,
    pub frame_threads: usize,
    pub kill_after: usize,
    /// CLI invocations that only create a checkpoint; their median wall
    /// time is `setup_s`.
    pub setup_runs: usize,
}

pub fn campaign_service(seed: u64) -> CampaignSpec {
    let mut spec = builtin("model-mismatch").expect("builtin campaign");
    spec.seed = seed;
    spec.replications = 5;
    CampaignSpec {
        spec,
        shards: 2,
        frame_threads: 1,
        kill_after: 60,
        setup_runs: 15,
    }
}

impl CampaignSpec {
    pub fn n_cells(&self) -> usize {
        self.spec.n_scenarios() * self.spec.replications
    }
}
