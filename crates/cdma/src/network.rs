//! The dynamic CDMA network: mobiles, links, loads, and the per-frame update
//! that produces everything the burst-admission measurement sub-layer needs.
//!
//! Responsibilities:
//!
//! * own one shadowing state per (mobile, candidate cell) link and advance
//!   it — the path-loss model and shadowing parameters are identical for
//!   every link, so they live once on the network
//!   ([`wcdma_channel::ShadowState`] holds only the 48 hot bytes: value,
//!   spare Gaussian, RNG);
//! * forward pilot measurement → FCH active set with hysteresis → reduced
//!   active set for the SCH;
//! * forward FCH power allocation (MRC across soft hand-off legs) and
//!   reverse closed-loop power control;
//! * accumulate per-cell forward transmit power `P_k` and reverse received
//!   power `L_k` (the paper's loading / interference measurements);
//! * apply granted SCH bursts as additional forward power / reverse
//!   interference (eq. 5/6/11);
//! * expose [`MeasurementView`] — exactly the quantities Figure 2 shows
//!   being collected with a burst request, borrowed straight from the
//!   network state (with [`DataUserMeasurement`] as the owned adapter).
//!
//! The update uses the previous frame's loads for measurement and power
//! control (one-frame feedback lag, as in a real system), then recomputes
//! loads from the new allocations.
//!
//! # Hot-path layout
//!
//! Per-mobile state is stored **struct-of-arrays**: scalars live in one
//! `Vec` per field indexed by mobile, and per-link quantities live in flat
//! row-major tables indexed by *candidate slot*, stride `cand_k`:
//! `gains[mobile * cand_k + i]` is the link from `mobile` to the cell
//! `cand[mobile * cand_k + i]`. Network memory is therefore O(n·K), not
//! O(n·`n_cells`). Leg tables and measurement-report rows use fixed
//! strides (`active_set_max`, `reduced_active_set`, the 8-pilot SCRM cap),
//! so [`Network::step`] performs **zero heap allocations in steady
//! state**: every buffer — including the double-buffered load vectors and
//! the per-chunk scratch — is a persistent field reused each frame. The
//! one exception is a frame in which a candidate row change parks more
//! links than a mobile has ever held parked (see below).
//!
//! A link that has never been a candidate has never advanced, so its
//! shadowing state is built at its first candidacy as the stationary draw
//! on the link's own substream: its bits depend on the seed, the mobile's
//! first stream and the cell, never on when it is built. A link that leaves its mobile's candidate row
//! is *parked* in that mobile's cold list (cell, frozen state, last gain)
//! and resumes from there when the cell becomes a candidate again. Every
//! link therefore sees the same draw sequence as under a dense
//! (mobile, cell) layout, bit for bit.
//!
//! # Deterministic intra-frame parallelism
//!
//! The per-mobile phase of [`Network::step`] runs over **fixed-size mobile
//! chunks** ([`wcdma_math::par::DEFAULT_CHUNK`]) on a persistent
//! [`FramePool`] ([`Network::set_frame_threads`]). Each chunk is one
//! [`FramePool::for_each`] item: its `split_at_mut` rows of every
//! per-mobile table, its own scratch buffers and its **partial per-cell
//! load accumulators**. After the parallel phase the partials are folded
//! **in chunk order** on the calling thread, so every `f64` sum reduces in
//! one fixed association and the results are bit-identical for *any*
//! thread count (chunk boundaries depend only on the mobile count, never
//! on the thread count). Per-link, per-voice-source RNG substreams are
//! already independent per mobile, so no RNG coordination is needed. The
//! chunked fold is used even at one thread — it *is* the canonical
//! summation order.
//!
//! # SIMD kernels and candidate cell lists (canonical order v2)
//!
//! The per-mobile inner loops over cells — long-term gain refresh, pilot
//! Ec/Io ratios, and the total-rx/interference accumulations — run as
//! 4-lane [`wcdma_math::simd`] kernels with lane-order-fixed folds, and
//! each mobile only visits its **candidate cells**: the top-K cells by
//! wrap-around distance, refreshed every N frames
//! ([`Network::set_candidates`]). Together these define canonical
//! summation order **v2** (`wcdma_math::simd::CANONICAL_ORDER_VERSION`);
//! the full contract lives in `docs/DETERMINISM.md`. With K = `n_cells`
//! (the default) the candidate list is the identity and the physics is
//! exact; with K < `n_cells` distant-cell terms are culled, which changes
//! results like any physical approximation would, but stays bit-identical
//! across thread counts, ISAs, and refresh-aligned runs. Links of
//! non-candidate cells do not advance their shadowing RNG — every link
//! owns an independent substream, so frozen streams never shift anyone
//! else's draws.

use wcdma_channel::{PathLoss, ShadowState, Shadowing};
use wcdma_geo::{CellId, HexLayout, Point};
use wcdma_math::db::thermal_noise_watt;
use wcdma_math::dist::DB_TO_NAT;
use wcdma_math::par::{chunk_count, FramePool, DEFAULT_CHUNK};
use wcdma_math::simd;

use crate::config::CdmaConfig;
use crate::pilot::{pilots_from_ratios_into, ActiveSet, PilotStrength};
use crate::power::{
    forward_fch_ebi0, forward_fch_powers_into, reverse_fch_ebi0, reverse_fch_power, InnerLoop,
};
use crate::voice::VoiceActivity;

/// The SCRM carries at most 8 pilot reports (footnote 6).
const SCRM_MAX_PILOTS: usize = 8;

/// Mobiles per parallel chunk. Fixed (thread-count independent) so the
/// chunk-order fold below is bit-identical for every `frame_threads`.
const MOBILE_CHUNK: usize = DEFAULT_CHUNK;

/// Default candidate-list refresh cadence in frames (160 ms at the 20 ms
/// frame): at paper speeds (≤ 100 km/h ≈ 0.56 m/frame) a mobile moves
/// well under a hundredth of a cell radius between refreshes. A cadence
/// frame only *re-examines* a row: the movement-gap certificate (see
/// [`CANDIDATE_SLACK_MARGIN_M`]) keeps every row whose top-K set provably
/// cannot have changed, so most cadence frames cost no more than any other.
const DEFAULT_CANDIDATE_REFRESH: u64 = 8;

/// Safety margin (m) of the candidate-row movement-gap certificate.
///
/// A full selection stores the row's slack, `(d(K+1) − d(K)) / 2`, and
/// every frame subtracts the mobile's displacement from it. The
/// wrap-around distance is a minimum of Euclidean distances over site
/// translations, so it is 1-Lipschitz in the mobile's position: while the
/// slack stays positive every candidate is still strictly nearer than
/// every non-candidate, and the top-K set (ties broken by cell id) cannot
/// have changed. A cadence frame therefore keeps a row whose slack
/// exceeds this margin and re-selects the rest. The margin only has to
/// cover floating-point error: twice the distance kernel's (a few 1e-11 m
/// at 217-cell coordinates) plus one rounding of at most 2⁻⁵³ of the
/// slack per moving frame, which for a 1 km slack stays below it for
/// some 9 million frames. A tie (gap 0) never skips.
const CANDIDATE_SLACK_MARGIN_M: f64 = 1e-6;

/// Per-mobile displacement bookkeeping, one entry per mobile.
#[derive(Debug, Clone, Copy, Default)]
struct Motion {
    /// Displacement since the last step (m); drives shadowing
    /// decorrelation and is reset every step.
    moved_m: f64,
    /// Movement-gap certificate of the candidate row (m): half the gap
    /// between the (K+1)-th and K-th nearest distances at the last full
    /// selection, less every displacement since (see
    /// [`CANDIDATE_SLACK_MARGIN_M`]).
    cand_slack_m: f64,
}

/// Kind of user occupying the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserKind {
    /// Background voice user (on/off FCH activity).
    Voice,
    /// High-speed packet-data user (always-on FCH + burst SCH).
    Data,
}

/// An SCH burst grant applied to the network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchGrant {
    /// Spreading-gain ratio m (1..=M).
    pub m: u32,
    /// Forward-link burst (true) or reverse-link burst (false).
    pub forward: bool,
    /// SCH/FCH relative symbol-energy requirement γ_s.
    pub gamma_s: f64,
}

/// Borrowed measurement report accompanying a burst request (Figure 2).
///
/// All slice fields borrow directly from the [`Network`]'s flat per-frame
/// report buffers, so building one is free: no clone, no allocation.
/// Synthetic reports (tests, examples) are owned [`DataUserMeasurement`]s
/// borrowed through [`DataUserMeasurement::as_view`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementView<'a> {
    /// Mobile index.
    pub mobile: usize,
    /// FCH active set.
    pub active_set: &'a [CellId],
    /// Reduced active set for the SCH (strongest first).
    pub reduced_set: &'a [CellId],
    /// Forward FCH leg powers `P_{j,k}` (W) for every active-set cell.
    pub fch_fwd_power: &'a [(CellId, f64)],
    /// Forward-link reduced-active-set adjustment α^{FL}.
    pub alpha_fl: f64,
    /// Reverse-link adjustment α^{RL}.
    pub alpha_rl: f64,
    /// FCH-to-pilot transmit ratio ζ at the mobile.
    pub zeta: f64,
    /// Reverse pilot strength `t^{RL}_{j,k}` at each soft hand-off cell.
    pub rev_pilot_ecio: &'a [(CellId, f64)],
    /// Forward pilot strengths `t^{FL}_{j,k}` the mobile reports in its
    /// SCRM (up to 8, strongest first).
    pub fwd_pilot_ecio: &'a [(CellId, f64)],
    /// Achieved forward FCH Eb/I0 (linear) — basis for the SCH CSI.
    pub fch_ebi0_fwd: f64,
    /// Achieved reverse FCH Eb/I0 (linear).
    pub fch_ebi0_rev: f64,
}

/// Owned measurement report (Figure 2): the fixture type for synthetic
/// reports (tests, examples), borrowed as a [`MeasurementView`] through
/// [`as_view`](Self::as_view).
#[derive(Debug, Clone, PartialEq)]
pub struct DataUserMeasurement {
    /// Mobile index.
    pub mobile: usize,
    /// FCH active set.
    pub active_set: Vec<CellId>,
    /// Reduced active set for the SCH (strongest first).
    pub reduced_set: Vec<CellId>,
    /// Forward FCH leg powers `P_{j,k}` (W) for every active-set cell.
    pub fch_fwd_power: Vec<(CellId, f64)>,
    /// Forward-link reduced-active-set adjustment α^{FL}.
    pub alpha_fl: f64,
    /// Reverse-link adjustment α^{RL}.
    pub alpha_rl: f64,
    /// FCH-to-pilot transmit ratio ζ at the mobile.
    pub zeta: f64,
    /// Reverse pilot strength `t^{RL}_{j,k}` at each soft hand-off cell.
    pub rev_pilot_ecio: Vec<(CellId, f64)>,
    /// Forward pilot strengths `t^{FL}_{j,k}` the mobile reports in its
    /// SCRM (up to 8, strongest first).
    pub fwd_pilot_ecio: Vec<(CellId, f64)>,
    /// Achieved forward FCH Eb/I0 (linear) — basis for the SCH CSI.
    pub fch_ebi0_fwd: f64,
    /// Achieved reverse FCH Eb/I0 (linear).
    pub fch_ebi0_rev: f64,
}

impl DataUserMeasurement {
    /// Borrows this owned report as a [`MeasurementView`].
    pub fn as_view(&self) -> MeasurementView<'_> {
        MeasurementView {
            mobile: self.mobile,
            active_set: &self.active_set,
            reduced_set: &self.reduced_set,
            fch_fwd_power: &self.fch_fwd_power,
            alpha_fl: self.alpha_fl,
            alpha_rl: self.alpha_rl,
            zeta: self.zeta,
            rev_pilot_ecio: &self.rev_pilot_ecio,
            fwd_pilot_ecio: &self.fwd_pilot_ecio,
            fch_ebi0_fwd: self.fch_ebi0_fwd,
            fch_ebi0_rev: self.fch_ebi0_rev,
        }
    }
}

/// The dynamic multi-cell CDMA network (struct-of-arrays layout; see the
/// module docs for the hot-path invariants).
#[derive(Debug)]
pub struct Network {
    cfg: CdmaConfig,
    layout: HexLayout,
    n_cells: usize,
    n_mobiles: usize,

    // ---- per-mobile scalar state (one Vec per field, indexed by mobile) ----
    pos: Vec<Point>,
    motion: Vec<Motion>,
    kind: Vec<UserKind>,
    voice: Vec<Option<VoiceActivity>>,
    active_set: Vec<ActiveSet>,
    /// Reverse FCH transmit power (W).
    rev_fch_w: Vec<f64>,
    sch_grant: Vec<Option<SchGrant>>,
    /// Achieved FCH Eb/I0, forward and reverse (linear).
    ebi0_fwd: Vec<f64>,
    ebi0_rev: Vec<f64>,
    /// Whether the FCH is transmitting this frame.
    fch_on: Vec<bool>,

    /// First stream number of each mobile: the shadowing substream of its
    /// link to `cell` derives from `stream0 + cell` (see [`fresh_link`]).
    stream0: Vec<u64>,

    // ---- flat per-link tables by candidate slot, stride `cand_k` ----
    // Sized lazily by `Network::step`: a row is filled when its mobile is
    // first stepped, so setting up a population touches none of them.
    /// Per-link shadowing hot state; slot `i` of a row is the link to the
    /// row's `i`-th candidate. The path-loss model and the shadowing
    /// parameters are the same for every link, so they are factored out
    /// into [`Network::pathloss`] / [`Network::shadow_tpl`] — this keeps
    /// the per-frame advance walking 48-byte states (fast fading has no
    /// per-link state: the burst layer averages it analytically).
    shadow: Vec<ShadowState>,
    /// Long-term (local-mean) gain per candidate slot.
    gains: Vec<f64>,
    /// Pilot measurements of the candidates, strongest-first per row.
    pilots: Vec<PilotStrength>,
    /// Cold per-mobile lists of links that have left the candidate row:
    /// each resumes from its frozen state if its cell returns.
    parked: Vec<Vec<ParkedLink>>,

    // ---- flat leg / report tables (fixed stride per mobile) ----
    /// Forward FCH (cell, power) legs; stride `active_set_max`.
    fch_legs: Vec<(CellId, f64)>,
    fch_leg_count: Vec<usize>,
    /// Reduced active set; stride `reduced_active_set`.
    reduced: Vec<CellId>,
    reduced_count: Vec<usize>,
    /// Reverse pilot Ec/Io report rows; stride `active_set_max`.
    rep_rev_pilot: Vec<(CellId, f64)>,
    /// Forward pilot SCRM report rows; stride `min(8, n_cells)`.
    rep_fwd_pilot: Vec<(CellId, f64)>,
    rep_fwd_count: Vec<usize>,

    // ---- per-cell loads, double-buffered ----
    /// Current forward transmit power per cell, `P_k` (W).
    fwd_total_w: Vec<f64>,
    /// Current reverse received power per cell, `L_k` (W).
    rev_total_w: Vec<f64>,
    /// Previous frame's loads (swap buffers — never reallocated).
    fwd_prev_w: Vec<f64>,
    rev_prev_w: Vec<f64>,
    /// Cells whose forward budget was exceeded last frame (clamped).
    overloaded: Vec<bool>,

    // ---- per-mobile candidate cell lists (stride `cand_k`) ----
    /// Candidate cell ids, ascending per row; `u32::MAX` = not yet
    /// selected. Sized with the per-link tables.
    cand: Vec<u32>,
    /// Candidates per mobile (resolved; `n_cells` = no culling).
    cand_k: usize,
    /// Whether the candidate list is the identity (K = `n_cells`) — skips
    /// the top-K selection; produces the same rows it would select.
    cand_identity: bool,
    /// Refresh cadence in frames.
    cand_refresh: u64,
    /// Frames stepped so far (drives the refresh cadence).
    frame_idx: u64,
    /// Full top-K selections run so far (see
    /// [`Network::candidate_selections`]).
    cand_selections: u64,
    /// Parked links resumed so far (see [`Network::link_resumptions`]).
    link_resumptions: u64,

    // ---- persistent per-frame scratch, one set per parallel chunk ----
    chunk_scratch: Vec<ChunkScratch>,

    // ---- per-mobile-invariant config derivations, hoisted out of the
    // ---- Phase-1 loop (computed once at construction) ----
    /// FCH processing gain θ_f.
    fch_theta: f64,
    /// Pilot + common-channel forward power floor per cell (W).
    base_fwd_w: f64,
    /// Thermal noise floor at the base station (W).
    noise_floor_w: f64,
    /// Thermal noise at the mobile (W).
    mobile_noise_w: f64,

    /// The distance path-loss model, shared by every link.
    pathloss: PathLoss,
    /// Shadowing parameter template (σ, decorrelation, coherence) shared by
    /// every link: supplies [`Shadowing::rho`] and [`Shadowing::sigma_db`]
    /// to the per-link [`ShadowState`] rows. Its own RNG is never drawn
    /// from after construction.
    shadow_tpl: Shadowing,
    /// Ideal (true) vs stepped (false) reverse power control.
    ideal_reverse_pc: bool,
    inner_loop: InnerLoop,
    /// Worker pool for the chunked per-mobile phase (1 thread = inline).
    pool: FramePool,
    seed: u64,
    next_stream: u64,
}

/// A link that has left its mobile's candidate row: its shadowing state
/// frozen where it stopped, and its last long-term gain.
#[derive(Debug, Clone)]
struct ParkedLink {
    cell: u32,
    state: ShadowState,
    gain: f64,
}

/// The shadowing state of a link that has never advanced: the stationary
/// draw on the link's own substream, `(stream·1021 + cell) ^
/// SHADOW_STREAM_XOR` with `stream = stream0 + cell` (pinned by the golden
/// canonical-order hash). The bits do not depend on when it is built, so
/// it is built at the link's first candidacy.
fn fresh_link(seed: u64, sigma_db: f64, stream0: u64, cell: u32) -> ShadowState {
    let stream = stream0 + cell as u64;
    let s = stream.wrapping_mul(1021).wrapping_add(cell as u64);
    ShadowState::stationary(
        sigma_db,
        wcdma_math::rng::Xoshiro256pp::substream(
            seed,
            s ^ wcdma_channel::shadowing::SHADOW_STREAM_XOR,
        ),
    )
}

/// A stand-in for table slots that no candidate row has claimed yet; every
/// slot is overwritten (by [`fresh_link`] or a resumed state) before it is
/// read.
fn unclaimed_link() -> ShadowState {
    ShadowState::stationary(0.0, wcdma_math::rng::Xoshiro256pp::new(0))
}

/// Per-chunk working memory: measurement scratch plus the chunk's partial
/// per-cell load accumulators. Pre-sized once (see
/// [`Network::set_frame_threads`] / the first [`Network::step`]); never
/// reallocated in steady state.
#[derive(Debug, Clone)]
struct ChunkScratch {
    /// Wrap-around distances to every cell (len `n_cells`; refresh only).
    dist: Vec<f64>,
    /// Top-K selection scratch, `(distance, cell)` (len `n_cells`).
    sel: Vec<(f64, u32)>,
    /// A newly selected candidate row, ascending (len `cand_k`).
    new_row: Vec<u32>,
    /// Link states and gains re-slotted for `new_row` (len `cand_k`).
    new_shadow: Vec<ShadowState>,
    new_gain: Vec<f64>,
    /// Distances to the candidate cells (len `cand_k`).
    cand_dist: Vec<f64>,
    /// Shadowing excursions in natural-log units (len `cand_k`).
    sh_db: Vec<f64>,
    /// Linear shadowing gains from the batched exp (len `cand_k`).
    sh_lin: Vec<f64>,
    /// Gathered previous-frame forward loads (len `cand_k`).
    cand_fwd: Vec<f64>,
    /// Received pilot power per candidate (len `cand_k`).
    pilot_rx: Vec<f64>,
    /// Pilot Ec/Io ratios per candidate (len `cand_k`).
    ec_io: Vec<f64>,
    /// Active-set leg gains (len `active_set_max`).
    leg_gains: Vec<f64>,
    /// Active-set leg powers (len `active_set_max`).
    leg_powers: Vec<f64>,
    /// Partial forward transmit power per cell, this chunk's mobiles only.
    fwd_w: Vec<f64>,
    /// Partial reverse received power per cell, this chunk's mobiles only.
    rev_w: Vec<f64>,
    /// Full top-K selections run by this chunk this frame.
    selections: u64,
    /// Parked links this chunk resumed this frame.
    resumptions: u64,
}

impl ChunkScratch {
    /// Re-slots one mobile's links from its candidate row `cells` onto
    /// `self.new_row` (both ascending). A cell in both rows carries its
    /// state and gain over; a cell returning to the row resumes from its
    /// parked entry; a cell that was never a candidate starts from
    /// `fresh(cell)`. Cells leaving the row are then parked. Resuming
    /// before parking means the parked list never shrinks, so it
    /// allocates only when it grows past its longest yet.
    fn rehome_links(
        &mut self,
        cells: &mut [u32],
        shadow: &mut [ShadowState],
        gains: &mut [f64],
        parked: &mut Vec<ParkedLink>,
        fresh: impl Fn(u32) -> ShadowState,
    ) {
        if *cells == self.new_row[..] {
            return;
        }
        for (i, &c) in self.new_row.iter().enumerate() {
            (self.new_shadow[i], self.new_gain[i]) = if let Ok(o) = cells.binary_search(&c) {
                (shadow[o].clone(), gains[o])
            } else if let Some(p) = parked.iter().position(|l| l.cell == c) {
                self.resumptions += 1;
                let l = parked.swap_remove(p);
                (l.state, l.gain)
            } else {
                (fresh(c), 0.0)
            };
        }
        for (o, &c) in cells.iter().enumerate() {
            if c != u32::MAX && self.new_row.binary_search(&c).is_err() {
                parked.push(ParkedLink {
                    cell: c,
                    state: shadow[o].clone(),
                    gain: gains[o],
                });
            }
        }
        cells.copy_from_slice(&self.new_row);
        shadow.clone_from_slice(&self.new_shadow);
        gains.copy_from_slice(&self.new_gain);
    }

    fn new(n_cells: usize, active_set_max: usize, cand_k: usize) -> Self {
        Self {
            dist: vec![0.0; n_cells],
            sel: vec![(0.0, 0); n_cells],
            new_row: vec![0; cand_k],
            new_shadow: vec![unclaimed_link(); cand_k],
            new_gain: vec![0.0; cand_k],
            cand_dist: vec![0.0; cand_k],
            sh_db: vec![0.0; cand_k],
            sh_lin: vec![0.0; cand_k],
            cand_fwd: vec![0.0; cand_k],
            pilot_rx: vec![0.0; cand_k],
            ec_io: vec![0.0; cand_k],
            leg_gains: vec![0.0; active_set_max],
            leg_powers: vec![0.0; active_set_max],
            fwd_w: vec![0.0; n_cells],
            rev_w: vec![0.0; n_cells],
            selections: 0,
            resumptions: 0,
        }
    }
}

impl Network {
    /// Creates an empty network over `layout`.
    pub fn new(cfg: CdmaConfig, layout: HexLayout, seed: u64) -> Self {
        cfg.validate().expect("invalid CDMA configuration");
        let k = layout.num_cells();
        let base_fwd = cfg.pilot_power_w + cfg.common_power_w;
        let noise = cfg.noise_floor_w();
        let inner_loop = InnerLoop::new(0.5, 1e-8, cfg.mobile_max_power_w);
        Self {
            mobile_noise_w: thermal_noise_watt(cfg.chip_rate, 8.0),
            layout,
            n_cells: k,
            n_mobiles: 0,
            pos: Vec::new(),
            motion: Vec::new(),
            kind: Vec::new(),
            voice: Vec::new(),
            active_set: Vec::new(),
            rev_fch_w: Vec::new(),
            sch_grant: Vec::new(),
            ebi0_fwd: Vec::new(),
            ebi0_rev: Vec::new(),
            fch_on: Vec::new(),
            stream0: Vec::new(),
            shadow: Vec::new(),
            gains: Vec::new(),
            pilots: Vec::new(),
            parked: Vec::new(),
            fch_legs: Vec::new(),
            fch_leg_count: Vec::new(),
            reduced: Vec::new(),
            reduced_count: Vec::new(),
            rep_rev_pilot: Vec::new(),
            rep_fwd_pilot: Vec::new(),
            rep_fwd_count: Vec::new(),
            fwd_total_w: vec![base_fwd; k],
            rev_total_w: vec![noise; k],
            fwd_prev_w: vec![base_fwd; k],
            rev_prev_w: vec![noise; k],
            overloaded: vec![false; k],
            cand: Vec::new(),
            cand_k: k,
            cand_identity: true,
            cand_refresh: DEFAULT_CANDIDATE_REFRESH,
            frame_idx: 0,
            cand_selections: 0,
            link_resumptions: 0,
            chunk_scratch: Vec::new(),
            fch_theta: cfg.fch_processing_gain(),
            base_fwd_w: base_fwd,
            noise_floor_w: noise,
            pathloss: PathLoss::urban_default(),
            // Parameters only — the template RNG is drawn once at
            // construction (for its own state) and never again.
            shadow_tpl: Shadowing::urban_default(seed, u64::MAX),
            ideal_reverse_pc: false,
            inner_loop,
            pool: FramePool::new(1),
            seed,
            next_stream: 1,
            cfg,
        }
    }

    /// Sets the intra-frame parallelism: total threads working each
    /// [`Network::step`] (`0` ⇒ one per available core, `1` ⇒ inline, the
    /// default). Pre-sizes the per-chunk scratch for the current mobile
    /// count. **Results are bit-identical for every thread count** — the
    /// per-mobile phase always runs over the same fixed-size chunks and
    /// the per-cell load partials always fold in chunk order.
    pub fn set_frame_threads(&mut self, threads: usize) {
        let threads = wcdma_math::par::resolve_threads(threads).max(1);
        if threads != self.pool.threads() {
            self.pool = FramePool::new(threads);
        }
        self.ensure_chunk_scratch();
    }

    /// Current intra-frame parallelism (total threads per step).
    pub fn frame_threads(&self) -> usize {
        self.pool.threads()
    }

    /// The persistent frame worker pool — shared with callers (the
    /// simulation engine's mobility loop) so one set of workers
    /// serves the whole frame.
    pub fn frame_pool(&self) -> &FramePool {
        &self.pool
    }

    /// Grows the per-chunk scratch to cover the current mobile count
    /// (no-op — and no allocation — once sized; chunk count depends only
    /// on the mobile count, never on the thread count).
    fn ensure_chunk_scratch(&mut self) {
        let want = chunk_count(self.n_mobiles, MOBILE_CHUNK);
        if self.chunk_scratch.len() < want {
            let k = self.n_cells;
            let asm = self.cfg.active_set_max;
            let kc = self.cand_k;
            self.chunk_scratch
                .resize_with(want, || ChunkScratch::new(k, asm, kc));
        }
    }

    /// Configures the per-mobile candidate cell lists: each mobile only
    /// evaluates its `k` nearest cells (wrap-around distance, ties by
    /// lower cell id), re-examined every `refresh_frames` frames. A
    /// re-examination runs the full top-K selection only when the row's
    /// movement-gap certificate has run out (the mobile may have moved
    /// half the gap between its K-th and (K+1)-th nearest distances since
    /// the last selection); otherwise the row provably cannot have changed
    /// and is kept. Rows are therefore exactly those a full selection on
    /// every cadence frame would produce.
    ///
    /// `k == 0` (the default) or `k >= num_cells` keeps every cell as a
    /// candidate: the list is the identity `[0, num_cells)` and results
    /// are **bit-identical to an unculled network** — the culled and
    /// unculled configurations share a single code path. Smaller `k`
    /// culls distant-cell interference terms (a physical approximation
    /// that sharpens as `rings` grows) and freezes the shadowing streams
    /// of non-candidate links; results remain deterministic and
    /// thread-count invariant for a fixed `(k, refresh_frames)`.
    ///
    /// Candidate rows are stored ascending by cell id, so the per-cell
    /// iteration order inside a mobile is the same as the unculled loop —
    /// this is what makes the `k == num_cells` reduction exact. See
    /// `docs/DETERMINISM.md`.
    ///
    /// Called after stepping, every current link is parked and each row is
    /// selected afresh on the next step, so a link the new rows keep
    /// resumes from the state it had.
    ///
    /// # Panics
    /// If `refresh_frames == 0`.
    pub fn set_candidates(&mut self, k: usize, refresh_frames: usize) {
        assert!(refresh_frames >= 1, "refresh cadence must be >= 1 frame");
        let kc = if k == 0 {
            self.n_cells
        } else {
            k.min(self.n_cells)
        }
        .max(1);
        // Park every stored link. Rows are stored only by a step, which
        // selects each of them, so none is still the sentinel.
        let old_k = self.cand_k;
        for (m, row) in self.cand.chunks_exact(old_k).enumerate() {
            for (i, &c) in row.iter().enumerate() {
                self.parked[m].push(ParkedLink {
                    cell: c,
                    state: self.shadow[m * old_k + i].clone(),
                    gain: self.gains[m * old_k + i],
                });
            }
        }
        self.cand.clear();
        self.shadow.clear();
        self.gains.clear();
        self.pilots.clear();
        self.cand_k = kc;
        self.cand_identity = kc == self.n_cells;
        self.cand_refresh = refresh_frames as u64;
        // Scratch rows are sized for `cand_k`: rebuild.
        self.chunk_scratch.clear();
        self.ensure_chunk_scratch();
    }

    /// Sizes the per-link tables for every mobile added so far: a new
    /// mobile's row starts unselected (the sentinel), so its first step
    /// selects it and builds its links. No allocation once sized.
    fn ensure_link_tables(&mut self) {
        let len = self.n_mobiles * self.cand_k;
        if self.cand.len() < len {
            self.cand.resize(len, u32::MAX);
            self.shadow.resize(len, unclaimed_link());
            self.gains.resize(len, 0.0);
            self.pilots.resize(
                len,
                PilotStrength {
                    cell: CellId(0),
                    ec_io: 0.0,
                },
            );
        }
        if self.parked.len() < self.n_mobiles {
            self.parked.resize_with(self.n_mobiles, Vec::new);
        }
    }

    /// Candidates per mobile (resolved: `num_cells` when culling is off).
    pub fn candidate_k(&self) -> usize {
        self.cand_k
    }

    /// Candidate refresh cadence in frames.
    pub fn candidate_refresh(&self) -> usize {
        self.cand_refresh as usize
    }

    /// Full top-K candidate selections run since construction: one per
    /// mobile on its first step, plus one per cadence re-examination the
    /// movement-gap certificate did not cover. Identity lists (no
    /// culling) never select. An exact work count, folded in chunk order,
    /// so it is the same for every thread count.
    pub fn candidate_selections(&self) -> u64 {
        self.cand_selections
    }

    /// Parked links resumed since construction: links that left a
    /// candidate row and later returned to one, each restarting from its
    /// frozen state. Always 0 without culling. Folded in chunk order, so
    /// it is the same for every thread count.
    pub fn link_resumptions(&self) -> u64 {
        self.link_resumptions
    }

    /// Links currently parked: they have left their mobile's candidate
    /// row and hold their frozen state until it returns. A mobile's list
    /// never shrinks while K is unchanged (a row change resumes before it
    /// parks), so a frame that leaves this count unchanged grew no list.
    pub fn parked_links(&self) -> usize {
        self.parked.iter().map(Vec::len).sum()
    }

    /// Stride of the forward-leg / reverse-pilot report tables.
    #[inline]
    fn leg_stride(&self) -> usize {
        self.cfg.active_set_max
    }

    /// Stride of the reduced-active-set table.
    #[inline]
    fn red_stride(&self) -> usize {
        self.cfg.reduced_active_set
    }

    /// Stride of the SCRM forward-pilot report table.
    #[inline]
    fn scrm_stride(&self) -> usize {
        SCRM_MAX_PILOTS.min(self.n_cells)
    }

    /// Switches reverse power control between ideal (exact) and stepped
    /// closed-loop (default).
    pub fn set_ideal_reverse_pc(&mut self, ideal: bool) {
        self.ideal_reverse_pc = ideal;
    }

    /// Replaces the *true* propagation physics every link evolves under:
    /// the distance path-loss model and the shadowing standard deviation
    /// (decorrelation distance and coherence time keep their urban
    /// defaults). This is the model-mismatch fault-injection surface — the
    /// admission layer's assumed calibration (e.g. the κ shadowing margin
    /// in `CdmaConfig`) is *not* touched, so callers can split assumed
    /// from true parameters. Passing `PathLoss::urban_default()` and
    /// σ = 8 dB is bit-identical to never calling this: the per-link
    /// shadowing substreams and draw counts do not depend on the values.
    ///
    /// # Panics
    /// If any mobile has already been added — every link of a mobile
    /// must draw its stationary state from one σ, and a link draws it at
    /// its first candidacy.
    pub fn set_channel_model(&mut self, pathloss: PathLoss, shadow_sigma_db: f64) {
        assert_eq!(
            self.n_mobiles, 0,
            "set_channel_model must be called before any mobile is added"
        );
        assert!(
            shadow_sigma_db >= 0.0 && shadow_sigma_db.is_finite(),
            "shadowing sigma must be finite and non-negative"
        );
        self.pathloss = pathloss;
        // Same substream and construction as `Network::new`: only the σ
        // parameter changes, so σ = 8 dB reproduces the default template
        // bit for bit.
        self.shadow_tpl = Shadowing::new(
            shadow_sigma_db,
            self.shadow_tpl.decorrelation_distance_m(),
            1.5,
            wcdma_math::rng::Xoshiro256pp::substream(self.seed, u64::MAX),
        );
    }

    /// The distance path-loss model every link currently evolves under.
    pub fn pathloss_model(&self) -> &PathLoss {
        &self.pathloss
    }

    /// The shadowing σ (dB) every link currently evolves under.
    pub fn shadow_sigma_db(&self) -> f64 {
        self.shadow_tpl.sigma_db()
    }

    /// Reserves room for `additional` more mobiles in every per-mobile
    /// table, each sized exactly once; the per-link tables get `cand_k`
    /// slots per mobile, so call it after [`Network::set_candidates`].
    /// Calling it before adding a known population avoids the tables'
    /// repeated doubling, and with it a peak of twice-sized buffers.
    /// Results do not depend on it.
    pub fn reserve_mobiles(&mut self, additional: usize) {
        let n = additional;
        let k = self.cand_k;
        let legs = n * self.leg_stride();
        self.pos.reserve_exact(n);
        self.motion.reserve_exact(n);
        self.kind.reserve_exact(n);
        self.voice.reserve_exact(n);
        self.active_set.reserve_exact(n);
        self.rev_fch_w.reserve_exact(n);
        self.sch_grant.reserve_exact(n);
        self.ebi0_fwd.reserve_exact(n);
        self.ebi0_rev.reserve_exact(n);
        self.fch_on.reserve_exact(n);
        self.stream0.reserve_exact(n);
        self.shadow.reserve_exact(n * k);
        self.gains.reserve_exact(n * k);
        self.pilots.reserve_exact(n * k);
        self.parked.reserve_exact(n);
        self.fch_legs.reserve_exact(legs);
        self.fch_leg_count.reserve_exact(n);
        self.reduced.reserve_exact(n * self.red_stride());
        self.reduced_count.reserve_exact(n);
        self.rep_rev_pilot.reserve_exact(legs);
        self.rep_fwd_pilot.reserve_exact(n * self.scrm_stride());
        self.rep_fwd_count.reserve_exact(n);
        self.cand.reserve_exact(n * k);
    }

    /// Adds a mobile at `pos` with the given speed (m/s; fast fading is
    /// handled analytically by the burst layer, so the speed no longer
    /// seeds any per-link state); returns its index.
    pub fn add_mobile(&mut self, kind: UserKind, pos: Point, _speed_ms: f64) -> usize {
        // One stream per cell: the link to `cell` draws from stream
        // `stream0 + cell`, built at its first candidacy ([`fresh_link`]).
        self.stream0.push(self.next_stream);
        self.next_stream += self.n_cells as u64;
        let voice = match kind {
            UserKind::Voice => {
                let s = self.next_stream;
                self.next_stream += 1;
                Some(VoiceActivity::standard(self.seed, s))
            }
            UserKind::Data => None,
        };
        self.pos.push(pos);
        self.motion.push(Motion::default());
        self.kind.push(kind);
        self.voice.push(voice);
        self.active_set.push(ActiveSet::new());
        self.rev_fch_w.push(1e-6);
        self.sch_grant.push(None);
        self.ebi0_fwd.push(0.0);
        self.ebi0_rev.push(0.0);
        self.fch_on.push(true);
        self.fch_legs
            .extend(std::iter::repeat((CellId(0), 0.0)).take(self.leg_stride()));
        self.fch_leg_count.push(0);
        self.reduced
            .extend(std::iter::repeat(CellId(0)).take(self.red_stride()));
        self.reduced_count.push(0);
        self.rep_rev_pilot
            .extend(std::iter::repeat((CellId(0), 0.0)).take(self.leg_stride()));
        self.rep_fwd_pilot
            .extend(std::iter::repeat((CellId(0), 0.0)).take(self.scrm_stride()));
        self.rep_fwd_count.push(0);
        self.n_mobiles += 1;
        self.n_mobiles - 1
    }

    /// Number of mobiles.
    pub fn num_mobiles(&self) -> usize {
        self.n_mobiles
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.n_cells
    }

    /// The cell layout.
    pub fn layout(&self) -> &HexLayout {
        &self.layout
    }

    /// The configuration.
    pub fn config(&self) -> &CdmaConfig {
        &self.cfg
    }

    /// Moves mobile `j` to `pos` (records the displacement for shadowing
    /// decorrelation). Call before [`Network::step`].
    pub fn move_mobile(&mut self, j: usize, pos: Point) {
        self.motion[j].moved_m += self.pos[j].dist(pos);
        self.pos[j] = pos;
    }

    /// Position of mobile `j`.
    pub fn mobile_position(&self, j: usize) -> Point {
        self.pos[j]
    }

    /// Applies (or clears) an SCH grant on mobile `j`; takes effect at the
    /// next [`Network::step`].
    pub fn set_grant(&mut self, j: usize, grant: Option<SchGrant>) {
        if let Some(g) = grant {
            assert!(g.m >= 1, "grant with m = 0 is a rejection; pass None");
            assert!(g.gamma_s > 0.0);
        }
        self.sch_grant[j] = grant;
    }

    /// Current grant on mobile `j`.
    pub fn grant(&self, j: usize) -> Option<SchGrant> {
        self.sch_grant[j]
    }

    /// Current forward transmit power per cell, `P_k` (W).
    pub fn forward_load_w(&self) -> &[f64] {
        &self.fwd_total_w
    }

    /// Current reverse received power per cell, `L_k` (W).
    pub fn reverse_load_w(&self) -> &[f64] {
        &self.rev_total_w
    }

    /// Whether any cell hit the forward power clamp last frame.
    pub fn any_overloaded(&self) -> bool {
        self.overloaded.iter().any(|&o| o)
    }

    /// Per-cell forward power-clamp flags for the last frame, indexed by
    /// cell.
    pub fn overloaded_flags(&self) -> &[bool] {
        &self.overloaded
    }

    /// Long-term gain from mobile `j` to `cell`.
    ///
    /// With candidate culling on ([`Network::set_candidates`] with
    /// `k < num_cells`), only candidate cells carry fresh gains; a
    /// non-candidate cell returns its last value from when it was a
    /// candidate (or 0 if it never was).
    pub fn gain(&self, j: usize, cell: CellId) -> f64 {
        let kc = self.cand_k;
        if let Some(row) = self.cand.get(j * kc..(j + 1) * kc) {
            if let Ok(i) = row.binary_search(&cell.0) {
                return self.gains[j * kc + i];
            }
        }
        self.parked
            .get(j)
            .and_then(|p| p.iter().find(|l| l.cell == cell.0))
            .map_or(0.0, |l| l.gain)
    }

    /// FCH active set of mobile `j`.
    pub fn active_set(&self, j: usize) -> &[CellId] {
        self.active_set[j].members()
    }

    /// Advances the network by one frame of `dt` seconds.
    ///
    /// Zero heap allocations in steady state: the load vectors are
    /// double-buffered, per-chunk scratch is persistent, and all per-mobile
    /// results land in the pre-sized flat tables. The per-mobile phase runs
    /// chunked on the frame pool (see [`Network::set_frame_threads`]) and
    /// the per-cell load partials fold in chunk order, so the outcome is
    /// bit-identical for every thread count.
    pub fn step(&mut self, dt: f64) {
        assert!(dt > 0.0);
        let leg_stride = self.leg_stride();
        let red_stride = self.red_stride();
        // Double-buffer swap: *_prev_w now holds last frame's loads; the
        // *_total_w buffers are stale storage about to be overwritten.
        std::mem::swap(&mut self.fwd_total_w, &mut self.fwd_prev_w);
        std::mem::swap(&mut self.rev_total_w, &mut self.rev_prev_w);
        self.ensure_chunk_scratch();
        self.ensure_link_tables();
        let n_chunks = chunk_count(self.n_mobiles, MOBILE_CHUNK);

        // Phases 1+2a, parallel over fixed-size mobile chunks: channels,
        // pilots, active sets, power control, and each chunk's *partial*
        // per-cell load accumulation. Chunks touch disjoint rows of every
        // per-mobile table and write loads only into their own partials,
        // so the chunk → thread assignment cannot affect any result.
        {
            let shared = StepShared {
                cfg: &self.cfg,
                layout: &self.layout,
                leg_stride,
                red_stride,
                dt,
                pos: &self.pos,
                kind: &self.kind,
                sch_grant: &self.sch_grant,
                fwd_prev_w: &self.fwd_prev_w,
                rev_prev_w: &self.rev_prev_w,
                mobile_noise_w: self.mobile_noise_w,
                pathloss: &self.pathloss,
                shadow_tpl: &self.shadow_tpl,
                seed: self.seed,
                stream0: &self.stream0,
                fch_theta: self.fch_theta,
                ideal_reverse_pc: self.ideal_reverse_pc,
                inner_loop: self.inner_loop,
                cand_k: self.cand_k,
                cand_identity: self.cand_identity,
                // The cadence is frame-count based (never wall clock), so
                // refresh frames align across runs of the same scenario.
                refresh_all: self.frame_idx % self.cand_refresh == 0,
            };
            let mut rest = StepRows {
                motion: &mut self.motion,
                voice: &mut self.voice,
                active_set: &mut self.active_set,
                rev_fch_w: &mut self.rev_fch_w,
                ebi0_fwd: &mut self.ebi0_fwd,
                ebi0_rev: &mut self.ebi0_rev,
                fch_on: &mut self.fch_on,
                shadow: &mut self.shadow,
                gains: &mut self.gains,
                pilots: &mut self.pilots,
                parked: &mut self.parked,
                fch_legs: &mut self.fch_legs,
                fch_leg_count: &mut self.fch_leg_count,
                reduced: &mut self.reduced,
                reduced_count: &mut self.reduced_count,
                cand: &mut self.cand,
            };
            let chunks = self.chunk_scratch[..n_chunks]
                .iter_mut()
                .map(move |s| (rest.split_off(leg_stride, red_stride, shared.cand_k), s));
            self.pool
                .for_each(chunks, |ci, (r, s)| step_chunk(&shared, r, s, ci));
        }

        // Phase 2b — the deterministic fold: per-cell load partials are
        // reduced **in chunk order** onto the base levels. This fixed
        // association is the canonical summation order (also used at one
        // thread), which is what makes the loads bit-identical across
        // thread counts.
        self.fwd_total_w.fill(self.base_fwd_w);
        self.rev_total_w.fill(self.noise_floor_w);
        for s in &self.chunk_scratch[..n_chunks] {
            for (t, &p) in self.fwd_total_w.iter_mut().zip(&s.fwd_w) {
                *t += p;
            }
            for (t, &p) in self.rev_total_w.iter_mut().zip(&s.rev_w) {
                *t += p;
            }
            self.cand_selections += s.selections;
            self.link_resumptions += s.resumptions;
        }
        // Forward budget clamp: flag and clamp overloaded cells.
        for (over, f) in self.overloaded.iter_mut().zip(&mut self.fwd_total_w) {
            *over = *f > self.cfg.max_bs_power_w;
            if *over {
                *f = self.cfg.max_bs_power_w;
            }
        }

        // Phase 3: refresh the Figure-2 measurement report rows for data
        // users, so measurement views borrow without recomputation.
        let scrm_stride = self.scrm_stride();
        let kc = self.cand_k;
        for m in 0..self.n_mobiles {
            if self.kind[m] != UserKind::Data {
                continue;
            }
            let row = m * kc;
            let cand_row = &self.cand[row..row + kc];
            let pilot_tx = self.rev_fch_w[m] / self.cfg.fch_pilot_ratio;
            let members = self.active_set[m].members();
            let rr = m * leg_stride;
            for (i, &c) in members.iter().enumerate() {
                let g = self.gains[row + candidate_slot(cand_row, c)];
                self.rep_rev_pilot[rr + i] = (c, pilot_tx * g / self.rev_total_w[c.index()]);
            }
            let fs = m * scrm_stride;
            // Phase 1 fills the first `cand_k` pilot slots of every row, so
            // the SCRM carries the full (doubly capped) report;
            // `rep_fwd_count` stays 0 only for networks that never stepped.
            let nf = scrm_stride.min(self.cand_k);
            for i in 0..nf {
                let p = self.pilots[row + i];
                self.rep_fwd_pilot[fs + i] = (p.cell, p.ec_io);
            }
            self.rep_fwd_count[m] = nf;
        }
        self.frame_idx += 1;
    }

    /// Borrows the burst-request measurement report for data mobile `j`
    /// (Figure 2): loading, pilot strengths, α/ζ factors, and achieved FCH
    /// quality for the CSI model. Free: no clone, no allocation.
    pub fn measurement_view(&self, j: usize) -> MeasurementView<'_> {
        assert_eq!(
            self.kind[j],
            UserKind::Data,
            "measurements are for data users"
        );
        let leg_stride = self.leg_stride();
        let red_stride = self.red_stride();
        let scrm_stride = self.scrm_stride();
        let nl = self.fch_leg_count[j];
        let rc = self.reduced_count[j];
        let ls = j * leg_stride;
        let rs = j * red_stride;
        let fs = j * scrm_stride;
        MeasurementView {
            mobile: j,
            active_set: self.active_set[j].members(),
            reduced_set: &self.reduced[rs..rs + rc],
            fch_fwd_power: &self.fch_legs[ls..ls + nl],
            alpha_fl: alpha_fl(self.active_set[j].len(), rc),
            alpha_rl: 1.0,
            zeta: self.cfg.fch_pilot_ratio,
            rev_pilot_ecio: &self.rep_rev_pilot[ls..ls + nl],
            fwd_pilot_ecio: &self.rep_fwd_pilot[fs..fs + self.rep_fwd_count[j]],
            fch_ebi0_fwd: self.ebi0_fwd[j],
            fch_ebi0_rev: self.ebi0_rev[j],
        }
    }

    /// Indices of all data mobiles.
    pub fn data_mobiles(&self) -> Vec<usize> {
        self.kind
            .iter()
            .enumerate()
            .filter(|(_, &kind)| kind == UserKind::Data)
            .map(|(i, _)| i)
            .collect()
    }

    /// Achieved FCH Eb/I0 (forward, reverse) for mobile `j`.
    pub fn fch_quality(&self, j: usize) -> (f64, f64) {
        (self.ebi0_fwd[j], self.ebi0_rev[j])
    }
}

/// Read-only per-frame inputs shared by every chunk of the parallel
/// per-mobile phase.
struct StepShared<'a> {
    cfg: &'a CdmaConfig,
    layout: &'a HexLayout,
    leg_stride: usize,
    red_stride: usize,
    dt: f64,
    pos: &'a [Point],
    kind: &'a [UserKind],
    sch_grant: &'a [Option<SchGrant>],
    fwd_prev_w: &'a [f64],
    rev_prev_w: &'a [f64],
    mobile_noise_w: f64,
    /// Shared path-loss model (identical for every link).
    pathloss: &'a PathLoss,
    /// Shared shadowing parameters (ρ and σ for the per-link states).
    shadow_tpl: &'a Shadowing,
    /// Network seed and per-mobile first streams, for [`fresh_link`].
    seed: u64,
    stream0: &'a [u64],
    fch_theta: f64,
    ideal_reverse_pc: bool,
    inner_loop: InnerLoop,
    /// Candidates per mobile (`== k` when culling is off).
    cand_k: usize,
    /// Candidate list is the identity `[0, k)` — skip top-K selection.
    cand_identity: bool,
    /// Re-examine every candidate row this frame (cadence hit); rows the
    /// movement-gap certificate still covers are kept.
    refresh_all: bool,
}

/// The mutable per-mobile tables, or one chunk of their rows. Per-link
/// and leg tables hold `stride` elements per mobile, so the rows of one
/// chunk cover the same mobiles in every table.
struct StepRows<'a> {
    motion: &'a mut [Motion],
    voice: &'a mut [Option<VoiceActivity>],
    active_set: &'a mut [ActiveSet],
    rev_fch_w: &'a mut [f64],
    ebi0_fwd: &'a mut [f64],
    ebi0_rev: &'a mut [f64],
    fch_on: &'a mut [bool],
    shadow: &'a mut [ShadowState],
    gains: &'a mut [f64],
    pilots: &'a mut [PilotStrength],
    parked: &'a mut [Vec<ParkedLink>],
    fch_legs: &'a mut [(CellId, f64)],
    fch_leg_count: &'a mut [usize],
    reduced: &'a mut [CellId],
    reduced_count: &'a mut [usize],
    cand: &'a mut [u32],
}

impl<'a> StepRows<'a> {
    /// Peels the next `MOBILE_CHUNK` mobiles (fewer at the tail) off every
    /// table, each at its own stride: `leg` FCH legs, `red` reduced-set
    /// entries and `kc` candidate links per mobile.
    fn split_off(&mut self, leg: usize, red: usize, kc: usize) -> StepRows<'a> {
        fn peel<'a, T>(rows: &mut &'a mut [T], len: usize) -> &'a mut [T] {
            let (head, tail) = std::mem::take(rows).split_at_mut(len);
            *rows = tail;
            head
        }
        let n = MOBILE_CHUNK.min(self.motion.len());
        StepRows {
            motion: peel(&mut self.motion, n),
            voice: peel(&mut self.voice, n),
            active_set: peel(&mut self.active_set, n),
            rev_fch_w: peel(&mut self.rev_fch_w, n),
            ebi0_fwd: peel(&mut self.ebi0_fwd, n),
            ebi0_rev: peel(&mut self.ebi0_rev, n),
            fch_on: peel(&mut self.fch_on, n),
            shadow: peel(&mut self.shadow, n * kc),
            gains: peel(&mut self.gains, n * kc),
            pilots: peel(&mut self.pilots, n * kc),
            parked: peel(&mut self.parked, n),
            fch_legs: peel(&mut self.fch_legs, n * leg),
            fch_leg_count: peel(&mut self.fch_leg_count, n),
            reduced: peel(&mut self.reduced, n * red),
            reduced_count: peel(&mut self.reduced_count, n),
            cand: peel(&mut self.cand, n * kc),
        }
    }
}

/// One chunk of the per-mobile phase: Phase 1 (channel advance, pilots,
/// active sets, FCH power control) fused with Phase 2a (this chunk's
/// partial per-cell load accumulation). Pure per-mobile work — the only
/// cross-mobile inputs are last frame's loads, which are frozen for the
/// whole frame.
fn step_chunk(sh: &StepShared<'_>, rows: StepRows<'_>, scratch: &mut ChunkScratch, ci: usize) {
    let base = ci * MOBILE_CHUNK;
    let StepRows {
        motion,
        voice,
        active_set,
        rev_fch_w,
        ebi0_fwd,
        ebi0_rev,
        fch_on,
        shadow,
        gains,
        pilots,
        parked,
        fch_legs,
        fch_leg_count,
        reduced,
        reduced_count,
        cand,
    } = rows;
    let kc = sh.cand_k;
    // Forward interference bookkeeping: total-rx counts every candidate
    // term in full; active-set terms then give back the orthogonal
    // fraction (1 − orthogonality_loss) of their power.
    let ortho_back = 1.0 - sh.cfg.orthogonality_loss;

    scratch.fwd_w.fill(0.0);
    scratch.rev_w.fill(0.0);
    scratch.selections = 0;
    scratch.resumptions = 0;
    for (lm, motion) in motion.iter_mut().enumerate() {
        let m = base + lm; // global mobile index (read-only tables)
        let row = lm * kc;
        let cand_row = &mut cand[row..row + kc];
        let shadow_row = &mut shadow[row..row + kc];
        let gain_row = &mut gains[row..row + kc];
        let fresh = |c: u32| fresh_link(sh.seed, sh.shadow_tpl.sigma_db(), sh.stream0[m], c);

        // Candidate cell list: select on this mobile's first-ever step
        // (flagged by the sentinel) and on cadence frames the movement-gap
        // certificate no longer covers; otherwise just recompute distances
        // to the standing candidates. Rows are stored ascending by cell id
        // so the per-cell iteration order matches the unculled loop. A
        // changed row re-slots its links (see `ChunkScratch::rehome_links`).
        motion.cand_slack_m -= motion.moved_m;
        if sh.cand_identity {
            if cand_row[0] == u32::MAX {
                for (i, c) in scratch.new_row.iter_mut().enumerate() {
                    *c = i as u32;
                }
                scratch.rehome_links(cand_row, shadow_row, gain_row, &mut parked[lm], fresh);
            }
            // Identity list: the batched all-cells kernel produces exactly
            // the values `distances_subset_into` would (pinned by test).
            sh.layout.distances_into(sh.pos[m], &mut scratch.cand_dist);
        } else if cand_row[0] == u32::MAX
            || (sh.refresh_all && motion.cand_slack_m <= CANDIDATE_SLACK_MARGIN_M)
        {
            sh.layout.distances_into(sh.pos[m], &mut scratch.dist);
            for (c, (slot, &d)) in scratch.sel.iter_mut().zip(scratch.dist.iter()).enumerate() {
                *slot = (d, c as u32);
            }
            // Total order — distances tie-break by cell id — so the
            // selected top-K set is unique and algorithm independent. The
            // partition leaves the top K in `top` and the (K+1)-th nearest
            // at `next`: together they give the row's certificate.
            let (top, next, _) = scratch
                .sel
                .select_nth_unstable_by(kc, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let d_k = top.iter().fold(0.0f64, |acc, s| acc.max(s.0));
            motion.cand_slack_m = 0.5 * (next.0 - d_k);
            for (slot, s) in scratch.new_row.iter_mut().zip(top.iter()) {
                *slot = s.1;
            }
            scratch.new_row.sort_unstable();
            scratch.selections += 1;
            scratch.rehome_links(cand_row, shadow_row, gain_row, &mut parked[lm], fresh);
            for (d, &c) in scratch.cand_dist.iter_mut().zip(cand_row.iter()) {
                *d = scratch.dist[c as usize];
            }
        } else {
            sh.layout
                .distances_subset_into(sh.pos[m], cand_row, &mut scratch.cand_dist);
        }

        // Advance the candidate links' long-term state and refresh gains.
        // The shadowing correlation depends only on the mobile's shared
        // displacement, so it is computed once per mobile from the shared
        // parameter template; fast fading is never read on this path (the
        // burst layer integrates fading analytically via VTAOC), so the
        // per-link slots carry only the 48-byte shadowing hot state, the
        // row's K states contiguous. The dB → linear conversion runs as
        // one batched 4-lane exp over the gathered excursions.
        let shadow_rho = sh.shadow_tpl.rho(motion.moved_m, sh.dt);
        let innov_scale = sh.shadow_tpl.innovation_scale(shadow_rho);
        for (db, st) in scratch.sh_db.iter_mut().zip(shadow_row.iter_mut()) {
            st.step_with_rho(shadow_rho, innov_scale);
            *db = st.value_db() * DB_TO_NAT;
        }
        simd::exp_into(&scratch.sh_db, &mut scratch.sh_lin);
        for ((g, &d), &lin) in gain_row
            .iter_mut()
            .zip(&scratch.cand_dist)
            .zip(&scratch.sh_lin)
        {
            *g = sh.pathloss.gain(d) * lin;
        }
        motion.moved_m = 0.0;

        // Pilot measurement against last frame's forward powers: gather
        // the candidate loads, one lane-folded dot for total-rx, then the
        // pilot scale and Ec/Io ratio passes.
        for (fw, &c) in scratch.cand_fwd.iter_mut().zip(cand_row.iter()) {
            *fw = sh.fwd_prev_w[c as usize];
        }
        let total_rx = sh.mobile_noise_w + simd::dot(&scratch.cand_fwd, gain_row);
        simd::scale_into(gain_row, sh.cfg.pilot_power_w, &mut scratch.pilot_rx);
        simd::ratio_into(&scratch.pilot_rx, total_rx, &mut scratch.ec_io);
        pilots_from_ratios_into(cand_row, &scratch.ec_io, &mut pilots[row..row + kc]);
        active_set[lm].update_sorted(
            &pilots[row..row + kc],
            sh.cfg.t_add,
            sh.cfg.t_drop,
            sh.cfg.active_set_max,
        );
        // Reduced active set for the SCH, reused by the grant
        // application below and by the measurement report.
        let rs = lm * sh.red_stride;
        reduced_count[lm] = active_set[lm]
            .reduced_into(&pilots[row..row + kc], &mut reduced[rs..rs + sh.red_stride]);

        // Voice activity gating.
        fch_on[lm] = match sh.kind[m] {
            UserKind::Data => true,
            UserKind::Voice => voice[lm].as_mut().expect("voice state").step(sh.dt),
        };

        // Forward FCH power control (ideal): interference at the mobile
        // counts other-cell power fully and own-active-set power through
        // the orthogonality loss. Total-rx already folded every candidate
        // term, so only the (few) active-set members are revisited. The
        // update above drops any member absent from the candidate pilots
        // (strength 0 < T_DROP), so members ⊆ candidates and their gains
        // are fresh: each is found through the sorted candidate row.
        let members = active_set[lm].members();
        let nl = members.len();
        for (lg, &c) in scratch.leg_gains.iter_mut().zip(members) {
            *lg = gain_row[candidate_slot(cand_row, c)];
        }
        let mut interference = total_rx;
        for (&c, &g) in members.iter().zip(&scratch.leg_gains[..nl]) {
            let w = sh.fwd_prev_w[c.index()] * g;
            interference -= w * ortho_back;
        }
        forward_fch_powers_into(
            sh.cfg.fch_ebi0_target,
            sh.fch_theta,
            interference,
            &scratch.leg_gains[..nl],
            &mut scratch.leg_powers[..nl],
        );
        let ls = lm * sh.leg_stride;
        for (i, (&leg, &p)) in members.iter().zip(&scratch.leg_powers[..nl]).enumerate() {
            fch_legs[ls + i] = (leg, p);
        }
        fch_leg_count[lm] = nl;
        ebi0_fwd[lm] = forward_fch_ebi0(
            sh.fch_theta,
            interference,
            &scratch.leg_powers[..nl],
            &scratch.leg_gains[..nl],
        );

        // Reverse power control toward the best leg of last frame's L.
        debug_assert!(nl > 0, "active set never empty");
        let mut best_cell = members[0];
        let mut best_gain = scratch.leg_gains[0];
        for (&c, &g) in members[1..].iter().zip(&scratch.leg_gains[1..nl]) {
            if g > best_gain {
                best_gain = g;
                best_cell = c;
            }
        }
        let ideal = reverse_fch_power(
            sh.cfg.fch_ebi0_target,
            sh.fch_theta,
            sh.rev_prev_w[best_cell.index()],
            best_gain,
            sh.cfg.mobile_max_power_w,
        );
        rev_fch_w[lm] = if sh.ideal_reverse_pc {
            ideal
        } else {
            sh.inner_loop.step(rev_fch_w[lm], ideal)
        };
        ebi0_rev[lm] = reverse_fch_ebi0(
            sh.fch_theta,
            sh.rev_prev_w[best_cell.index()],
            best_gain,
            rev_fch_w[lm],
        );

        // Phase 2a: this mobile's load contributions, accumulated into
        // the chunk partials in mobile order (the fold adds whole chunks
        // in chunk order, so the global summation order is fixed).
        if fch_on[lm] {
            for &(cell, p) in &fch_legs[ls..ls + nl] {
                scratch.fwd_w[cell.index()] += p;
            }
        }
        if let Some(g) = sh.sch_grant[m] {
            if g.forward {
                let rc = reduced_count[lm];
                let alpha = alpha_fl(active_set[lm].len(), rc);
                for &cell in &reduced[rs..rs + rc] {
                    if let Some(&(_, p)) = fch_legs[ls..ls + nl].iter().find(|(c, _)| *c == cell) {
                        scratch.fwd_w[cell.index()] += g.m as f64 * g.gamma_s * p * alpha;
                    }
                }
            }
        }
        // Reverse: pilot + FCH + SCH.
        let pilot_tx = rev_fch_w[lm] / sh.cfg.fch_pilot_ratio;
        let mut tx = pilot_tx;
        if fch_on[lm] {
            tx += rev_fch_w[lm];
        }
        if let Some(g) = sh.sch_grant[m] {
            if !g.forward {
                tx += g.m as f64 * g.gamma_s * rev_fch_w[lm];
            }
        }
        let tx = tx.min(sh.cfg.mobile_max_power_w);
        // Reverse received power lands only at candidate cells — the same
        // culling approximation as the forward sums (exact when the list
        // is the identity).
        for (&c, &g) in cand_row.iter().zip(gain_row.iter()) {
            scratch.rev_w[c as usize] += tx * g;
        }
    }
}

/// Slot of `cell` in a sorted candidate row. Only called for active-set
/// members, which are always candidates (see [`step_chunk`]).
#[inline]
fn candidate_slot(row: &[u32], cell: CellId) -> usize {
    row.binary_search(&cell.0)
        .expect("active-set member is a candidate")
}

/// Forward reduced-active-set adjustment: the SCH is carried on fewer legs
/// than the FCH, so each reduced-set leg carries `|A|/|R|` of the
/// FCH-normalised power (the α^{FL} of eq. 6).
fn alpha_fl(active_len: usize, reduced_len: usize) -> f64 {
    if reduced_len == 0 {
        return 1.0;
    }
    active_len as f64 / reduced_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::populate_round_robin;
    use wcdma_math::Xoshiro256pp;

    fn small_net(n_voice: usize, n_data: usize, seed: u64) -> Network {
        let cfg = CdmaConfig::default_system();
        let layout = HexLayout::new(1, 1000.0); // 7 cells, faster tests
        let mut net = Network::new(cfg, layout, seed);
        let mut rng = Xoshiro256pp::new(seed ^ 0xD00D);
        populate_round_robin(&mut net, n_voice, n_data, 3.0 / 3.6, &mut rng);
        for _ in 0..20 {
            net.step(0.02); // warm up PC and active sets
        }
        net
    }

    #[test]
    fn loads_start_at_base_levels() {
        let cfg = CdmaConfig::default_system();
        let net = Network::new(cfg.clone(), HexLayout::new(1, 1000.0), 1);
        for &p in net.forward_load_w() {
            assert!((p - cfg.pilot_power_w - cfg.common_power_w).abs() < 1e-12);
        }
        for &l in net.reverse_load_w() {
            assert!((l - cfg.noise_floor_w()).abs() < 1e-20);
        }
    }

    #[test]
    fn forward_load_grows_with_users() {
        let net_small = small_net(5, 2, 42);
        let net_big = small_net(40, 2, 42);
        let sum = |n: &Network| n.forward_load_w().iter().sum::<f64>();
        assert!(
            sum(&net_big) > sum(&net_small),
            "more users must cost more forward power: {} vs {}",
            sum(&net_big),
            sum(&net_small)
        );
    }

    #[test]
    fn reverse_load_above_noise_floor() {
        let net = small_net(10, 3, 7);
        let floor = net.config().noise_floor_w();
        for &l in net.reverse_load_w() {
            assert!(l > floor, "reverse load must exceed thermal noise");
        }
    }

    #[test]
    fn power_control_reaches_target_for_central_user() {
        let cfg = CdmaConfig::default_system();
        let mut net = Network::new(cfg.clone(), HexLayout::new(1, 1000.0), 3);
        // A single data user near the centre cell site: easy link.
        net.add_mobile(UserKind::Data, Point::new(150.0, 80.0), 1.0);
        net.set_ideal_reverse_pc(true);
        for _ in 0..30 {
            net.step(0.02);
        }
        let (fwd, rev) = net.fch_quality(0);
        assert!(
            (wcdma_math::lin_to_db(fwd) - 7.0).abs() < 0.5,
            "fwd Eb/I0 {} dB",
            wcdma_math::lin_to_db(fwd)
        );
        assert!(
            (wcdma_math::lin_to_db(rev) - 7.0).abs() < 0.5,
            "rev Eb/I0 {} dB",
            wcdma_math::lin_to_db(rev)
        );
    }

    #[test]
    fn measurement_report_is_complete() {
        let net = small_net(4, 3, 11);
        let data = net.data_mobiles();
        assert_eq!(data.len(), 3);
        for &j in &data {
            let meas = net.measurement_view(j);
            assert!(!meas.active_set.is_empty());
            assert!(!meas.reduced_set.is_empty());
            assert!(meas.reduced_set.len() <= net.config().reduced_active_set);
            assert_eq!(meas.fch_fwd_power.len(), meas.active_set.len());
            assert!(meas.fwd_pilot_ecio.len() <= 8, "SCRM carries ≤ 8 pilots");
            assert!(meas.alpha_fl >= 1.0);
            assert!(meas.zeta > 0.0);
            for &(_, p) in meas.fch_fwd_power {
                assert!(p > 0.0 && p.is_finite());
            }
            for &(_, e) in meas.rev_pilot_ecio {
                assert!(e > 0.0 && e < 1.0, "Ec/Io must be a fraction: {e}");
            }
        }
    }

    #[test]
    fn view_matches_owned_report() {
        let net = small_net(4, 3, 19);
        for &j in &net.data_mobiles() {
            let view = net.measurement_view(j);
            let owned = DataUserMeasurement {
                mobile: view.mobile,
                active_set: view.active_set.to_vec(),
                reduced_set: view.reduced_set.to_vec(),
                fch_fwd_power: view.fch_fwd_power.to_vec(),
                alpha_fl: view.alpha_fl,
                alpha_rl: view.alpha_rl,
                zeta: view.zeta,
                rev_pilot_ecio: view.rev_pilot_ecio.to_vec(),
                fwd_pilot_ecio: view.fwd_pilot_ecio.to_vec(),
                fch_ebi0_fwd: view.fch_ebi0_fwd,
                fch_ebi0_rev: view.fch_ebi0_rev,
            };
            // The fixture type borrows back into an equal view.
            assert_eq!(owned.as_view(), view);
        }
    }

    #[test]
    #[should_panic(expected = "data users")]
    fn measurement_rejects_voice_user() {
        let net = small_net(1, 0, 5);
        let _ = net.measurement_view(0);
    }

    #[test]
    fn forward_grant_increases_granting_cells_load() {
        let mut net = small_net(0, 1, 13);
        let j = net.data_mobiles()[0];
        let before: f64 = net.forward_load_w().iter().sum();
        net.set_grant(
            j,
            Some(SchGrant {
                m: 8,
                forward: true,
                gamma_s: 1.0,
            }),
        );
        net.step(0.02);
        let after: f64 = net.forward_load_w().iter().sum();
        assert!(
            after > before,
            "grant must add forward power: {after} vs {before}"
        );
        net.set_grant(j, None);
        net.step(0.02);
        net.step(0.02);
        let released: f64 = net.forward_load_w().iter().sum();
        assert!(released < after, "releasing the grant must shed power");
    }

    #[test]
    fn reverse_grant_raises_interference() {
        let mut net = small_net(0, 1, 17);
        let j = net.data_mobiles()[0];
        net.set_ideal_reverse_pc(true);
        net.step(0.02);
        let before: f64 = net.reverse_load_w().iter().sum();
        net.set_grant(
            j,
            Some(SchGrant {
                m: 16,
                forward: false,
                gamma_s: 1.0,
            }),
        );
        net.step(0.02);
        let after: f64 = net.reverse_load_w().iter().sum();
        assert!(
            after > before,
            "reverse burst must raise L: {after} vs {before}"
        );
    }

    #[test]
    fn frame_threads_do_not_change_results() {
        // Enough mobiles to span several 256-mobile chunks, with grants in
        // play; every thread count must produce bit-identical state.
        let build = |threads: usize| {
            let cfg = CdmaConfig::default_system();
            let mut net = Network::new(cfg, HexLayout::new(1, 1000.0), 77);
            let mut rng = Xoshiro256pp::new(77 ^ 0xD00D);
            populate_round_robin(&mut net, 520, 60, 3.0, &mut rng);
            net.set_frame_threads(threads);
            net.set_grant(
                net.data_mobiles()[0],
                Some(SchGrant {
                    m: 8,
                    forward: true,
                    gamma_s: 1.0,
                }),
            );
            for _ in 0..20 {
                net.step(0.02);
            }
            net
        };
        let one = build(1);
        assert_eq!(one.frame_threads(), 1);
        for threads in [2, 4, 5] {
            let nt = build(threads);
            assert_eq!(nt.frame_threads(), threads);
            assert_eq!(
                one.forward_load_w(),
                nt.forward_load_w(),
                "{threads} threads"
            );
            assert_eq!(
                one.reverse_load_w(),
                nt.reverse_load_w(),
                "{threads} threads"
            );
            for &j in &one.data_mobiles() {
                assert_eq!(
                    one.measurement_view(j),
                    nt.measurement_view(j),
                    "mobile {j}"
                );
                assert_eq!(one.fch_quality(j), nt.fch_quality(j));
            }
        }
    }

    /// Builds a populated 7-cell network with the given candidate
    /// configuration and steps it (grants in play from frame 5). Every
    /// mobile takes a random step of up to 40 m per axis each frame, so
    /// candidate rows change along the way.
    fn candidate_net(k: usize, refresh: usize, threads: usize, frames: usize) -> Network {
        let cfg = CdmaConfig::default_system();
        let mut net = Network::new(cfg, HexLayout::new(1, 1000.0), 311);
        let mut rng = Xoshiro256pp::new(311 ^ 0xD00D);
        populate_round_robin(&mut net, 300, 40, 3.0, &mut rng);
        net.set_candidates(k, refresh);
        net.set_frame_threads(threads);
        for f in 0..frames {
            for j in 0..net.num_mobiles() {
                let p = net.mobile_position(j);
                let step = Point::new(rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0));
                net.move_mobile(j, Point::new(p.x + step.x, p.y + step.y));
            }
            if f == 5 {
                net.set_grant(
                    net.data_mobiles()[0],
                    Some(SchGrant {
                        m: 8,
                        forward: true,
                        gamma_s: 1.0,
                    }),
                );
            }
            net.step(0.02);
        }
        net
    }

    fn assert_nets_bit_identical(a: &Network, b: &Network, what: &str) {
        assert_eq!(a.forward_load_w(), b.forward_load_w(), "{what}: P_k");
        assert_eq!(a.reverse_load_w(), b.reverse_load_w(), "{what}: L_k");
        for &j in &a.data_mobiles() {
            assert_eq!(
                a.measurement_view(j),
                b.measurement_view(j),
                "{what}: mobile {j}"
            );
            assert_eq!(a.fch_quality(j), b.fch_quality(j), "{what}: mobile {j}");
        }
    }

    #[test]
    fn culled_top_k_equals_unculled_bit_for_bit() {
        // The culled-equals-unculled property of docs/DETERMINISM.md:
        // an explicit K = n_cells candidate list (7 cells here) must
        // reproduce the default unculled network exactly, including
        // across a refresh-cadence change (identity rows never change).
        let unculled = candidate_net(0, 8, 1, 25);
        let full_k = candidate_net(7, 8, 1, 25);
        assert_nets_bit_identical(&unculled, &full_k, "K = n_cells vs unculled");
        let odd_cadence = candidate_net(7, 3, 1, 25);
        assert_nets_bit_identical(&unculled, &odd_cadence, "identity is cadence-free");
    }

    #[test]
    fn culling_is_thread_count_invariant() {
        // Culling composes with intra-frame parallelism: the candidate
        // refresh and all lane-folded sums are chunk-local, so any thread
        // count reproduces the single-thread run bit for bit.
        let one = candidate_net(4, 8, 1, 25);
        assert!(
            one.candidate_selections() > one.num_mobiles() as u64,
            "moving mobiles must re-select some rows after their first step"
        );
        for threads in [2, 4, 5] {
            let nt = candidate_net(4, 8, threads, 25);
            assert_nets_bit_identical(&one, &nt, "culled, threads");
            assert_eq!(one.cand, nt.cand, "{threads} threads: candidate rows");
            assert_eq!(
                one.candidate_selections(),
                nt.candidate_selections(),
                "{threads} threads: selection count"
            );
        }
    }

    /// The top-K rows by brute force: every wrap-around distance, fully
    /// sorted under the `(distance, id)` order, first `k` ids ascending.
    fn brute_force_top_k(layout: &HexLayout, p: Point, k: usize) -> Vec<u32> {
        let mut dist = vec![0.0; layout.num_cells()];
        layout.distances_into(p, &mut dist);
        let mut order: Vec<(f64, u32)> = dist
            .iter()
            .enumerate()
            .map(|(c, &d)| (d, c as u32))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut top: Vec<u32> = order[..k].iter().map(|s| s.1).collect();
        top.sort_unstable();
        top
    }

    /// One frame of motion for mobile `j` at `p` in the certificate
    /// scenario (`None` = stays put). Every 4th mobile is stationary;
    /// every 7th jumps across the cluster by a wrap lattice vector now and
    /// then; the rest take log-uniform steps of 0.2–800 m and are wrapped
    /// back by the lattice vector facing the escape if they leave.
    fn certificate_move(
        j: usize,
        f: usize,
        p: Point,
        lattice: &[Point],
        rng: &mut Xoshiro256pp,
    ) -> Option<Point> {
        if j % 4 == 0 {
            return None;
        }
        if j % 7 == 0 && f % 5 == 2 {
            let t = lattice[(j + f) % lattice.len()];
            return Some(Point::new(p.x - t.x, p.y - t.y));
        }
        let len = rng.uniform(0.2f64.ln(), 800f64.ln()).exp();
        let ang = rng.uniform(0.0, 2.0 * std::f64::consts::PI);
        let q = Point::new(p.x + len * ang.cos(), p.y + len * ang.sin());
        if q.x.hypot(q.y) <= 3000.0 {
            return Some(q);
        }
        let facing = |t: &&Point| t.x * q.x + t.y * q.y;
        let t = lattice
            .iter()
            .max_by(|a, b| facing(a).total_cmp(&facing(b)))
            .expect("six lattice vectors");
        Some(Point::new(q.x - t.x, q.y - t.y))
    }

    /// Steps 600 moving mobiles on the 7-cell layout for 24 frames with
    /// the given candidate configuration, checking every row against
    /// [`brute_force_top_k`] after each cadence step. On even frames
    /// mobile 0 sits exactly halfway between sites 0 and 1 (halving is
    /// exact), a gap of 0 at K = 1; on odd frames it sits 0.1 µm nearer
    /// site 1, which then wins. Returns the final rows and selection count.
    fn certificate_scenario(k: usize, cadence: usize, threads: usize) -> (Vec<u32>, u64) {
        let radius = 1000.0;
        let layout = HexLayout::new(1, radius);
        // The 1-ring cluster's wrap lattice: span 3·√3·R at 30° + i·60°.
        let span = 3.0 * 3f64.sqrt() * radius;
        let lattice: Vec<Point> = (0..6)
            .map(|i| {
                let ang = std::f64::consts::PI / 6.0 * (2 * i + 1) as f64;
                Point::new(span * ang.cos(), span * ang.sin())
            })
            .collect();
        let what = format!("K = {k}, cadence {cadence}, {threads} threads");
        let mut net = Network::new(CdmaConfig::default_system(), layout.clone(), 5);
        let mut rng = Xoshiro256pp::new(0x5EED);
        let s1 = layout.site(CellId(1));
        let tie = Point::new(0.5 * s1.x, 0.5 * s1.y);
        let nudge = 1e-7 / s1.x.hypot(s1.y);
        let nudged = Point::new(tie.x + nudge * s1.x, tie.y + nudge * s1.y);
        net.add_mobile(UserKind::Data, tie, 0.0);
        // Three chunks, the last one partial.
        for j in 1..600 {
            let p = Point::new(rng.uniform(-2500.0, 2500.0), rng.uniform(-2500.0, 2500.0));
            let kind = if j % 5 == 0 {
                UserKind::Data
            } else {
                UserKind::Voice
            };
            net.add_mobile(kind, p, 0.0);
        }
        net.set_candidates(k, cadence);
        net.set_frame_threads(threads);
        let n = net.num_mobiles() as u64;
        let (mut kept, mut reselected) = (0u64, 0u64);
        for f in 0..24 {
            net.move_mobile(0, if f % 2 == 0 { tie } else { nudged });
            for j in 1..net.num_mobiles() {
                let p = net.mobile_position(j);
                if let Some(to) = certificate_move(j, f, p, &lattice, &mut rng) {
                    net.move_mobile(j, to);
                }
            }
            let cadence_frame = f % cadence == 0;
            let before = net.candidate_selections();
            net.step(0.02);
            let selected = net.candidate_selections() - before;
            if !cadence_frame {
                assert_eq!(selected, 0, "{what}: off-cadence frames never select");
                continue;
            }
            if f == 0 {
                assert_eq!(selected, n, "{what}: the first step selects every row");
            } else {
                reselected += selected;
                kept += n - selected;
            }
            for j in 0..net.num_mobiles() {
                assert_eq!(
                    net.cand[j * k..(j + 1) * k],
                    brute_force_top_k(&layout, net.mobile_position(j), k)[..],
                    "{what}, frame {f}, mobile {j}"
                );
            }
        }
        assert!(kept > 0, "{what}: the certificate must keep some rows");
        assert!(reselected > 0, "{what}: some rows must be re-selected");
        (net.cand.clone(), net.candidate_selections())
    }

    #[test]
    fn certified_candidate_rows_match_brute_force_top_k() {
        // The movement-gap certificate may keep a row only when its top-K
        // set cannot have changed: after every cadence step each row must
        // equal a full re-selection, for any K, cadence, and thread count.
        // K = 1, a middle K, and n − 1 of the 7 cells.
        for k in [1, 4, 6] {
            for cadence in [1, 3, 8] {
                let one = certificate_scenario(k, cadence, 1);
                for threads in [2, 4] {
                    assert_eq!(
                        one,
                        certificate_scenario(k, cadence, threads),
                        "K = {k}, cadence {cadence}: {threads} threads"
                    );
                }
            }
        }
    }

    #[test]
    fn culling_changes_results_but_stays_deterministic() {
        let exact = candidate_net(0, 8, 1, 25);
        let culled = candidate_net(4, 8, 1, 25);
        assert_ne!(
            exact.forward_load_w(),
            culled.forward_load_w(),
            "K = 4 of 7 is a real approximation, not a no-op"
        );
        // Same (K, cadence) ⇒ same bits.
        let again = candidate_net(4, 8, 1, 25);
        assert_nets_bit_identical(&culled, &again, "culled replay");
        // Sanity: the approximation stays physical.
        for (&e, &c) in exact.forward_load_w().iter().zip(culled.forward_load_w()) {
            assert!(c > 0.0 && c.is_finite());
            assert!((c - e).abs() / e < 0.5, "culled P_k within 50%: {c} vs {e}");
        }
    }

    #[test]
    fn active_set_members_are_candidates_under_culling() {
        let net = candidate_net(4, 8, 1, 25);
        // With K = 4 every active set must sit inside the mobile's
        // 4-nearest-cells list; cheap proxy: every member has a fresh
        // positive gain (non-candidates would be stale zeros only if the
        // member leaked — the update drops them).
        for j in 0..net.num_mobiles() {
            for &c in net.active_set(j) {
                assert!(net.gain(j, c) > 0.0, "mobile {j} member {c:?}");
            }
        }
    }

    /// Bit-exact text of a shadowing state (shortest round-trip floats):
    /// `==` cannot compare an empty spare Gaussian, which is NaN.
    fn state_bits(s: &ShadowState) -> String {
        format!("{s:?}")
    }

    /// Walks one data mobile on the 19-cell layout (K = 4, re-examined
    /// every frame) from near site 0 out to a ring-2 site and back along
    /// the same line, checking every link as it leaves, waits in and
    /// returns from the parked list. Returns the network and the cells
    /// that were ever candidates.
    fn walk_out_and_back() -> (Network, Vec<u32>) {
        let dt = 0.02;
        let layout = HexLayout::new(2, 1000.0);
        let far = layout.site(CellId(12));
        let mut net = Network::new(CdmaConfig::default_system(), layout, 41);
        let start = Point::new(60.0, 30.0);
        net.add_mobile(UserKind::Data, start, 0.0);
        net.set_candidates(4, 1);
        let at = |t: f64| {
            Point::new(
                start.x + t * (far.x - start.x),
                start.y + t * (far.y - start.y),
            )
        };
        let path = (0..=24).chain((0..=24).rev()).map(|i| at(i as f64 / 24.0));
        // Each candidate's (state, gain) after the last step, and each
        // parked link's (state, gain) when it left.
        let mut last: Vec<(u32, ShadowState, f64)> = Vec::new();
        let mut frozen: Vec<(u32, ShadowState, f64)> = Vec::new();
        let mut ever: Vec<u32> = Vec::new();
        let (mut parks, mut resumes) = (0u64, 0u64);
        for p in path {
            let moved = net.mobile_position(0).dist(p);
            net.move_mobile(0, p);
            net.step(dt);
            let rho = net.shadow_tpl.rho(moved, dt);
            let scale = net.shadow_tpl.innovation_scale(rho);
            let row = net.cand[..4].to_vec();
            for (i, &c) in row.iter().enumerate() {
                if last.iter().any(|l| l.0 == c) {
                    continue;
                }
                // An entering link: resumed if it was ever a candidate,
                // else the stationary draw on its own substream. Either
                // way it has advanced once, this frame.
                let mut expect = match frozen.iter().position(|l| l.0 == c) {
                    Some(f) => {
                        resumes += 1;
                        frozen.swap_remove(f).1
                    }
                    None => fresh_link(41, net.shadow_sigma_db(), net.stream0[0], c),
                };
                expect.step_with_rho(rho, scale);
                assert_eq!(
                    state_bits(&net.shadow[i]),
                    state_bits(&expect),
                    "cell {c} entering"
                );
                if !ever.contains(&c) {
                    ever.push(c);
                }
            }
            for (c, st, g) in last.drain(..) {
                if !row.contains(&c) {
                    parks += 1;
                    frozen.push((c, st, g));
                }
            }
            assert_eq!(net.parked[0].len(), frozen.len());
            for (c, st, g) in &frozen {
                let l = net.parked[0].iter().find(|l| l.cell == *c).expect("parked");
                assert_eq!(
                    state_bits(&l.state),
                    state_bits(st),
                    "cell {c} frozen as it left"
                );
                assert_eq!(
                    net.gain(0, CellId(*c)),
                    *g,
                    "cell {c}: last gain while parked"
                );
            }
            for (i, &c) in row.iter().enumerate() {
                assert_eq!(net.gain(0, CellId(c)), net.gains[i]);
                last.push((c, net.shadow[i].clone(), net.gains[i]));
            }
        }
        assert!(
            parks > 0 && resumes > 0,
            "{parks} parked, {resumes} resumed"
        );
        assert_eq!(net.link_resumptions(), resumes);
        (net, ever)
    }

    #[test]
    fn parked_links_resume_from_the_state_they_left_with() {
        let (net, ever) = walk_out_and_back();
        // Back at the start, every link that left has returned.
        assert!(ever.len() > 4, "the walk must change the candidate row");
        assert_eq!(net.parked_links(), ever.len() - 4);
    }

    #[test]
    fn gain_reads_the_candidate_slot_then_the_parked_value_then_zero() {
        // The slot and parked readings are checked frame by frame along
        // the walk; a cell that was never a candidate reads 0.
        let (net, ever) = walk_out_and_back();
        let never = (0..net.num_cells() as u32)
            .find(|c| !ever.contains(c))
            .expect("a 19-cell layout has cells the walk never nears");
        assert_eq!(net.gain(0, CellId(never)), 0.0);
        // Before its first step a mobile has no links at all.
        let mut fresh = Network::new(CdmaConfig::default_system(), HexLayout::new(1, 1000.0), 1);
        fresh.add_mobile(UserKind::Voice, Point::new(0.0, 0.0), 0.0);
        assert_eq!(fresh.gain(0, CellId(0)), 0.0);
    }

    /// [`candidate_net`]'s motion with K = 4 for 20 frames, calling
    /// `set_candidates(k, 8)` before cadence frame 8 when `reset` is given
    /// (a cadence frame, so a run without the reset also brings every row
    /// up to date there). Returns the network and the links resumed by
    /// frame 8's step.
    fn reset_candidates_net(reset: Option<usize>) -> (Network, u64) {
        let mut net = Network::new(CdmaConfig::default_system(), HexLayout::new(1, 1000.0), 311);
        let mut rng = Xoshiro256pp::new(311 ^ 0xD00D);
        populate_round_robin(&mut net, 300, 40, 3.0, &mut rng);
        net.set_candidates(4, 8);
        let mut resumed_at_reset = 0;
        for f in 0..20 {
            for j in 0..net.num_mobiles() {
                let p = net.mobile_position(j);
                let step = Point::new(rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0));
                net.move_mobile(j, Point::new(p.x + step.x, p.y + step.y));
            }
            let before = net.link_resumptions();
            if let (8, Some(k)) = (f, reset) {
                let parked_before = net.parked_links();
                net.set_candidates(k, 8);
                assert_eq!(
                    net.parked_links(),
                    parked_before + 4 * net.num_mobiles(),
                    "every candidate link is parked"
                );
            }
            net.step(0.02);
            if f == 8 {
                resumed_at_reset = net.link_resumptions() - before;
            }
        }
        (net, resumed_at_reset)
    }

    #[test]
    fn set_candidates_after_stepping_parks_and_resumes_every_link() {
        // Re-setting the same K parks every link and the next step's fresh
        // selections resume the ones they keep: bit-identical to never
        // re-setting, down to each mobile's parked links.
        let (straight, _) = reset_candidates_net(None);
        let (again, resumed) = reset_candidates_net(Some(4));
        assert_nets_bit_identical(&straight, &again, "K = 4 re-set after stepping");
        assert_eq!(straight.cand, again.cand);
        assert!(resumed > 0);
        let parked = |net: &Network, j: usize| {
            let mut p: Vec<(u32, String, u64)> = net.parked[j]
                .iter()
                .map(|l| (l.cell, state_bits(&l.state), l.gain.to_bits()))
                .collect();
            p.sort();
            p
        };
        for j in 0..again.num_mobiles() {
            assert_eq!(parked(&straight, j), parked(&again, j), "mobile {j}");
            for i in 0..4 {
                let slot = j * 4 + i;
                assert_eq!(
                    state_bits(&straight.shadow[slot]),
                    state_bits(&again.shadow[slot])
                );
            }
        }
        // Widening to every cell resumes the 4 links each mobile had, and
        // nothing stays parked (the identity row holds every cell).
        let (wide, resumed) = reset_candidates_net(Some(7));
        assert_eq!(wide.candidate_k(), 7);
        assert!(resumed >= 4 * wide.num_mobiles() as u64);
        assert_eq!(wide.parked_links(), 0);
    }

    #[test]
    fn candidate_accessors_resolve() {
        let mut net = Network::new(CdmaConfig::default_system(), HexLayout::new(1, 1000.0), 1);
        assert_eq!(net.candidate_k(), 7, "default: all cells");
        net.set_candidates(4, 10);
        assert_eq!(net.candidate_k(), 4);
        assert_eq!(net.candidate_refresh(), 10);
        net.set_candidates(99, 10);
        assert_eq!(net.candidate_k(), 7, "clamped to n_cells");
        net.set_candidates(0, 1);
        assert_eq!(net.candidate_k(), 7, "0 = unculled");
    }

    #[test]
    fn determinism_same_seed_same_loads() {
        let a = small_net(6, 2, 99);
        let b = small_net(6, 2, 99);
        assert_eq!(a.forward_load_w(), b.forward_load_w());
        assert_eq!(a.reverse_load_w(), b.reverse_load_w());
    }

    #[test]
    fn distinct_seeds_differ() {
        let a = small_net(6, 2, 99);
        let b = small_net(6, 2, 100);
        assert_ne!(a.forward_load_w(), b.forward_load_w());
    }

    #[test]
    fn mobility_changes_gains() {
        let mut net = small_net(0, 1, 23);
        let j = 0;
        let g_before = net.gain(j, CellId(0));
        net.move_mobile(j, Point::new(900.0, 0.0));
        net.step(0.02);
        let g_after = net.gain(j, CellId(0));
        assert_ne!(g_before, g_after);
    }

    #[test]
    fn overload_flag_on_absurd_grant_pressure() {
        let mut cfg = CdmaConfig::default_system();
        cfg.max_bs_power_w = 6.0; // tight budget so the clamp must engage
        let mut net = Network::new(cfg, HexLayout::new(1, 1000.0), 31);
        let mut rng = Xoshiro256pp::new(5);
        // Many cell-edge data users all granted max bursts: must clamp.
        for _ in 0..20 {
            let layout = net.layout().clone();
            let pos = layout.random_point_in_cell(CellId(0), &mut rng);
            let far = Point::new(pos.x + 900.0, pos.y);
            let j = net.add_mobile(UserKind::Data, far, 1.0);
            net.set_grant(
                j,
                Some(SchGrant {
                    m: 16,
                    forward: true,
                    gamma_s: 1.0,
                }),
            );
        }
        for _ in 0..30 {
            net.step(0.02);
        }
        assert!(
            net.any_overloaded(),
            "20 max-rate edge bursts must overload some cell"
        );
        assert!(net.overloaded_flags().contains(&true));
        let pmax = net.config().max_bs_power_w;
        for &p in net.forward_load_w() {
            assert!(p <= pmax + 1e-9, "clamp failed: {p}");
        }
    }
}
