//! Declarative scenario-matrix specifications.
//!
//! A [`ScenarioSpec`] names a campaign, fixes the run envelope (duration,
//! warm-up, replication count, layout, master seed) and lists the axis
//! values of the matrix. [`ScenarioSpec::expand`] takes the cartesian
//! product of the axes and produces one concrete [`Scenario`] (label +
//! [`SimConfig`]) per cell, each with its own seed substream.
//!
//! Specs are written in a strict TOML subset parsed by
//! [`ScenarioSpec::parse`] — `key = value` lines, one optional `[matrix]`
//! section, quoted strings, numbers, and flat arrays — so campaigns are
//! plain text files with no external dependencies. [`ScenarioSpec::to_toml`]
//! round-trips.

use wcdma_admission::PolicyRegistry;
use wcdma_mac::LinkDir;

use crate::config::{check_cell_radius, check_duration, MismatchConfig, SimConfig};

/// Named traffic mixes — the per-class voice/web composition axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficMix {
    /// Mostly voice background: 48 voice users, 4 web users.
    VoiceDominated,
    /// The baseline mix: 40 voice users, 8 web users.
    Balanced,
    /// Heavy web load: 24 voice users, 12 web users with 2× burst sizes
    /// and shorter reading times.
    HeavyWeb,
    /// Pure data workload: no voice background, 16 web users.
    DataOnly,
}

impl TrafficMix {
    /// Every mix, in canonical order.
    pub const ALL: [TrafficMix; 4] = [
        TrafficMix::VoiceDominated,
        TrafficMix::Balanced,
        TrafficMix::HeavyWeb,
        TrafficMix::DataOnly,
    ];

    /// The registry name.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficMix::VoiceDominated => "voice-dominated",
            TrafficMix::Balanced => "balanced",
            TrafficMix::HeavyWeb => "heavy-web",
            TrafficMix::DataOnly => "data-only",
        }
    }

    /// Looks a mix up by registry name.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == name)
    }

    /// Applies the mix to a scenario configuration.
    pub fn apply(&self, cfg: &mut SimConfig) {
        match self {
            TrafficMix::VoiceDominated => {
                cfg.n_voice = 48;
                cfg.n_data = 4;
            }
            TrafficMix::Balanced => {
                cfg.n_voice = 40;
                cfg.n_data = 8;
            }
            TrafficMix::HeavyWeb => {
                cfg.n_voice = 24;
                cfg.n_data = 12;
                cfg.traffic.mean_burst_bits = 192_000.0;
                cfg.traffic.max_burst_bits = 3_200_000.0;
                cfg.traffic.mean_reading_s = 3.0;
            }
            TrafficMix::DataOnly => {
                cfg.n_voice = 0;
                cfg.n_data = 16;
            }
        }
    }
}

/// Named mobility classes — the speed axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpeedClass {
    /// 3 km/h walking users.
    Pedestrian,
    /// 30 km/h urban traffic.
    Urban,
    /// 120 km/h highway traffic.
    Vehicular,
}

impl SpeedClass {
    /// Every class, in canonical order.
    pub const ALL: [SpeedClass; 3] = [
        SpeedClass::Pedestrian,
        SpeedClass::Urban,
        SpeedClass::Vehicular,
    ];

    /// The registry name.
    pub fn name(&self) -> &'static str {
        match self {
            SpeedClass::Pedestrian => "pedestrian",
            SpeedClass::Urban => "urban",
            SpeedClass::Vehicular => "vehicular",
        }
    }

    /// Looks a class up by registry name.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }

    /// The class speed in km/h.
    pub fn kmh(&self) -> f64 {
        match self {
            SpeedClass::Pedestrian => 3.0,
            SpeedClass::Urban => 30.0,
            SpeedClass::Vehicular => 120.0,
        }
    }
}

/// Named CSI feedback qualities — the scheduler-observability axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsiQuality {
    /// Perfect, immediate feedback.
    Ideal,
    /// 2 dB estimation noise, no delay.
    Noisy,
    /// Perfect estimates delayed by 4 frames.
    Delayed,
    /// 2 dB noise *and* a 4-frame delay.
    Degraded,
}

impl CsiQuality {
    /// Every quality, in canonical order.
    pub const ALL: [CsiQuality; 4] = [
        CsiQuality::Ideal,
        CsiQuality::Noisy,
        CsiQuality::Delayed,
        CsiQuality::Degraded,
    ];

    /// The registry name.
    pub fn name(&self) -> &'static str {
        match self {
            CsiQuality::Ideal => "ideal",
            CsiQuality::Noisy => "noisy",
            CsiQuality::Delayed => "delayed",
            CsiQuality::Degraded => "degraded",
        }
    }

    /// Looks a quality up by registry name.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Applies the quality to a scenario configuration.
    pub fn apply(&self, cfg: &mut SimConfig) {
        let (sigma_db, delay) = match self {
            CsiQuality::Ideal => (0.0, 0),
            CsiQuality::Noisy => (2.0, 0),
            CsiQuality::Delayed => (0.0, 4),
            CsiQuality::Degraded => (2.0, 4),
        };
        cfg.csi_error_sigma_db = sigma_db;
        cfg.csi_delay_frames = delay;
    }
}

/// Named model-mismatch injection levels — the robustness axis: how far
/// the *true* channel physics sit from the model the scheduler's eq.-24
/// region assumes (see [`MismatchConfig`] and `docs/MISMATCH.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MismatchLevel {
    /// No mismatch: the assumed model is the true model.
    None,
    /// True path-loss exponent 0.4 below the assumed 4.0: signals — and
    /// interference — carry farther than the region believes.
    Pathloss,
    /// True shadowing σ 4 dB above the assumed 8 dB: fades run deeper than
    /// the κ margin was sized for.
    Shadow,
    /// Both channel deltas plus bursty CSI feedback dropouts
    /// (p = 0.05/frame, mean burst 10 frames).
    Combined,
}

impl MismatchLevel {
    /// Every level, in canonical order.
    pub const ALL: [MismatchLevel; 4] = [
        MismatchLevel::None,
        MismatchLevel::Pathloss,
        MismatchLevel::Shadow,
        MismatchLevel::Combined,
    ];

    /// The registry name.
    pub fn name(&self) -> &'static str {
        match self {
            MismatchLevel::None => "none",
            MismatchLevel::Pathloss => "pathloss",
            MismatchLevel::Shadow => "shadow",
            MismatchLevel::Combined => "combined",
        }
    }

    /// Looks a level up by registry name.
    pub fn by_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The injection this level stands for.
    pub fn mismatch_config(&self) -> MismatchConfig {
        match self {
            MismatchLevel::None => MismatchConfig::disabled(),
            MismatchLevel::Pathloss => MismatchConfig {
                pathloss_exponent_delta: -0.4,
                ..MismatchConfig::disabled()
            },
            MismatchLevel::Shadow => MismatchConfig {
                shadow_sigma_delta_db: 4.0,
                ..MismatchConfig::disabled()
            },
            MismatchLevel::Combined => MismatchConfig {
                pathloss_exponent_delta: -0.4,
                shadow_sigma_delta_db: 4.0,
                csi_dropout_p: 0.05,
                csi_dropout_mean_frames: 10.0,
            },
        }
    }

    /// Applies the level to a scenario configuration.
    pub fn apply(&self, cfg: &mut SimConfig) {
        cfg.mismatch = self.mismatch_config();
    }
}

/// One concrete cell of an expanded campaign matrix.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable cell label, e.g. `mix=balanced/speed=pedestrian/…`.
    pub label: String,
    /// `(axis, value)` pairs the label was built from, for the emitters.
    pub axes: Vec<(String, String)>,
    /// The fully-resolved scenario configuration.
    pub cfg: SimConfig,
}

impl Scenario {
    /// Wraps an existing configuration as a single-cell scenario (no axes).
    pub fn single(label: &str, cfg: SimConfig) -> Self {
        Self {
            label: label.to_string(),
            axes: Vec::new(),
            cfg,
        }
    }
}

/// A declarative campaign: run envelope plus the scenario-matrix axes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Campaign name (also the emitted file stem): `[a-z0-9_-]+`.
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Master seed; scenario `i` runs from `mix_seed(seed, i + 1)`.
    pub seed: u64,
    /// Replications per scenario.
    pub replications: usize,
    /// Simulated seconds per replication.
    pub duration_s: f64,
    /// Warm-up seconds excluded from statistics.
    pub warmup_s: f64,
    /// Hex layout rings (1 ⇒ 7 cells, 2 ⇒ 19 cells).
    pub rings: u32,
    /// Cell radius (m).
    pub cell_radius_m: f64,
    /// Link direction all bursts use.
    pub link: LinkDir,
    /// Traffic-mix axis.
    pub mixes: Vec<TrafficMix>,
    /// Mobility-class axis.
    pub speeds: Vec<SpeedClass>,
    /// Policy axis (registry names).
    pub policies: Vec<String>,
    /// Optional data-user-count axis (overrides the mix's `n_data`); empty
    /// means "use each mix's own load".
    pub loads: Vec<usize>,
    /// Hotspot overload axis (cell-0 density multiple; 1.0 = uniform).
    pub hotspots: Vec<f64>,
    /// CSI feedback-quality axis.
    pub csi: Vec<CsiQuality>,
    /// Model-mismatch axis (`[None]` = the exact model, the default; a
    /// spec without the axis keeps today's artefacts and fingerprints).
    pub mismatch: Vec<MismatchLevel>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        Self {
            name: "campaign".into(),
            description: String::new(),
            seed: 0xCA3A16,
            replications: 2,
            duration_s: 20.0,
            warmup_s: 4.0,
            rings: 1,
            cell_radius_m: 1000.0,
            link: LinkDir::Forward,
            mixes: vec![TrafficMix::Balanced],
            speeds: vec![SpeedClass::Pedestrian],
            policies: vec!["jaba-sd-j2".into()],
            loads: Vec::new(),
            hotspots: vec![1.0],
            csi: vec![CsiQuality::Ideal],
            mismatch: vec![MismatchLevel::None],
        }
    }
}

impl ScenarioSpec {
    /// Validates the spec (axes non-empty, names resolvable, envelope sane).
    // Negated comparisons reject NaN-valued parameters.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_')
        {
            return Err(format!(
                "campaign name must be non-empty [a-z0-9_-]: {:?}",
                self.name
            ));
        }
        if self.replications == 0 {
            return Err("need at least one replication".into());
        }
        check_duration(self.duration_s, self.warmup_s)?;
        if self.rings == 0 {
            return Err("need at least one ring".into());
        }
        check_cell_radius(self.cell_radius_m)?;
        if self.mixes.is_empty() || self.speeds.is_empty() || self.csi.is_empty() {
            return Err("mix, speed and csi axes must be non-empty".into());
        }
        if self.mismatch.is_empty() {
            return Err(
                "mismatch axis must be non-empty (use [\"none\"] for the exact model)".into(),
            );
        }
        if self.hotspots.is_empty() {
            return Err("hotspot axis must be non-empty (use [1.0] for uniform)".into());
        }
        for &h in &self.hotspots {
            if !(h > 0.0 && h.is_finite()) {
                return Err(format!("hotspot factor must be positive and finite: {h}"));
            }
        }
        if self.policies.is_empty() {
            return Err("policy axis must be non-empty".into());
        }
        // The registry's own errors name what *is* available: unknown
        // policies list every registered name, bad parameters list the
        // entry's declared parameters.
        let registry = PolicyRegistry::standard();
        for p in &self.policies {
            registry.resolve(p)?;
        }
        for &n in &self.loads {
            if n == 0 {
                return Err("load axis values must be ≥ 1 data user".into());
            }
        }
        // Every runner indexes the grid by `scenario * replications + rep`;
        // a job count that overflows would wrap to a short (or empty) grid.
        // `Manifest::parse` holds checkpoints to the same bound.
        [
            self.mixes.len(),
            self.speeds.len(),
            self.hotspots.len(),
            self.csi.len(),
            self.mismatch.len(),
            self.loads.len().max(1),
            self.policies.len(),
            self.replications,
        ]
        .into_iter()
        .try_fold(1usize, usize::checked_mul)
        .ok_or_else(|| {
            format!(
                "the scenario matrix × {} replications overflows the job index",
                self.replications
            )
        })?;
        Ok(())
    }

    /// Number of matrix cells [`expand`](Self::expand) will produce.
    pub fn n_scenarios(&self) -> usize {
        self.mixes.len()
            * self.speeds.len()
            * self.hotspots.len()
            * self.csi.len()
            * self.mismatch.len()
            * self.loads.len().max(1)
            * self.policies.len()
    }

    /// Expands the matrix into concrete scenarios, in deterministic axis
    /// order (mix ▸ speed ▸ hotspot ▸ csi ▸ mismatch ▸ load ▸ policy).
    /// Scenario `i`
    /// gets the seed substream `mix_seed(self.seed, i + 1)`.
    pub fn expand(&self) -> Result<Vec<Scenario>, String> {
        self.validate()?;
        let registry = PolicyRegistry::standard();
        let mut base = SimConfig::baseline();
        base.rings = self.rings;
        base.cell_radius_m = self.cell_radius_m;
        base.duration_s = self.duration_s;
        base.warmup_s = self.warmup_s;
        let base = base.with_direction(self.link);

        let loads: Vec<Option<usize>> = if self.loads.is_empty() {
            vec![None]
        } else {
            self.loads.iter().map(|&n| Some(n)).collect()
        };
        // Specs that never name the mismatch axis keep their pre-axis
        // labels and artefact layout.
        let mismatch_axis_visible = self.mismatch != [MismatchLevel::None];
        let mut out = Vec::with_capacity(self.n_scenarios());
        for &mix in &self.mixes {
            for &speed in &self.speeds {
                for &hotspot in &self.hotspots {
                    for &csi in &self.csi {
                        for &mismatch in &self.mismatch {
                            for &load in &loads {
                                for policy in &self.policies {
                                    let mut cfg = base.clone();
                                    mix.apply(&mut cfg);
                                    cfg.speed_ms = speed.kmh() / 3.6;
                                    cfg.hotspot_overload = hotspot;
                                    csi.apply(&mut cfg);
                                    mismatch.apply(&mut cfg);
                                    if let Some(n) = load {
                                        cfg.n_data = n;
                                    }
                                    cfg.policy =
                                        registry.resolve(policy).expect("validated policy name");
                                    cfg.seed =
                                        wcdma_math::mix_seed(self.seed, out.len() as u64 + 1);
                                    let mut axes = vec![
                                        ("mix".to_string(), mix.name().to_string()),
                                        ("speed".to_string(), speed.name().to_string()),
                                        ("hotspot".to_string(), format!("{hotspot}")),
                                        ("csi".to_string(), csi.name().to_string()),
                                    ];
                                    if mismatch_axis_visible {
                                        axes.push((
                                            "mismatch".to_string(),
                                            mismatch.name().to_string(),
                                        ));
                                    }
                                    if let Some(n) = load {
                                        axes.push(("load".to_string(), n.to_string()));
                                    }
                                    axes.push(("policy".to_string(), policy.clone()));
                                    let label = axes
                                        .iter()
                                        .map(|(k, v)| format!("{k}={v}"))
                                        .collect::<Vec<_>>()
                                        .join("/");
                                    out.push(Scenario { label, axes, cfg });
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// A CI-friendly copy: short runs, at most two replications, same
    /// matrix shape.
    pub fn quickened(&self) -> Self {
        let mut q = self.clone();
        q.duration_s = 6.0;
        q.warmup_s = 1.0;
        q.replications = q.replications.min(2);
        q
    }

    /// Stable 64-bit identity of the spec: FNV-1a over the canonical
    /// [`to_toml`](Self::to_toml) rendering. The checkpoint manifest
    /// records this so a resume or merge against a *different* spec fails
    /// loudly instead of silently mixing grids.
    pub fn fingerprint(&self) -> u64 {
        super::journal::fnv1a64(self.to_toml().as_bytes())
    }

    /// Renders the spec in the TOML subset [`parse`](Self::parse) accepts.
    pub fn to_toml(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "name = \"{}\"", toml_escape(&self.name));
        let _ = writeln!(s, "description = \"{}\"", toml_escape(&self.description));
        let _ = writeln!(s, "seed = {}", self.seed);
        let _ = writeln!(s, "replications = {}", self.replications);
        let _ = writeln!(s, "duration_s = {}", self.duration_s);
        let _ = writeln!(s, "warmup_s = {}", self.warmup_s);
        let _ = writeln!(s, "rings = {}", self.rings);
        let _ = writeln!(s, "cell_radius_m = {}", self.cell_radius_m);
        let link = match self.link {
            LinkDir::Forward => "forward",
            LinkDir::Reverse => "reverse",
        };
        let _ = writeln!(s, "link = \"{link}\"");
        let _ = writeln!(s, "\n[matrix]");
        let quoted = |names: Vec<String>| {
            names
                .into_iter()
                .map(|n| format!("\"{}\"", toml_escape(&n)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(
            s,
            "mix = [{}]",
            quoted(self.mixes.iter().map(|m| m.name().to_string()).collect())
        );
        let _ = writeln!(
            s,
            "speed = [{}]",
            quoted(self.speeds.iter().map(|v| v.name().to_string()).collect())
        );
        let _ = writeln!(s, "policy = [{}]", quoted(self.policies.clone()));
        if !self.loads.is_empty() {
            let _ = writeln!(
                s,
                "load = [{}]",
                self.loads
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
        let _ = writeln!(
            s,
            "hotspot = [{}]",
            self.hotspots
                .iter()
                .map(|h| format!("{h}"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            s,
            "csi = [{}]",
            quoted(self.csi.iter().map(|c| c.name().to_string()).collect())
        );
        // Written only when the axis departs from the default so that specs
        // predating the axis render — and fingerprint — exactly as before.
        if self.mismatch != [MismatchLevel::None] {
            let _ = writeln!(
                s,
                "mismatch = [{}]",
                quoted(self.mismatch.iter().map(|m| m.name().to_string()).collect())
            );
        }
        s
    }

    /// Parses the TOML subset emitted by [`to_toml`](Self::to_toml):
    /// `key = value` lines, `#` comments, one optional `[matrix]` section,
    /// quoted strings, numbers, and flat arrays.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut spec = ScenarioSpec::default();
        let mut in_matrix = false;
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            parse_line(&mut spec, &mut in_matrix, &line)
                .map_err(|e| format!("line {}: {e}", lineno + 1))?;
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// Applies one non-empty spec line (section header or `key = value`).
fn parse_line(spec: &mut ScenarioSpec, in_matrix: &mut bool, line: &str) -> Result<(), String> {
    if let Some(section) = line.strip_prefix('[') {
        let section = section
            .strip_suffix(']')
            .ok_or("unterminated section header")?
            .trim();
        if section != "matrix" {
            return Err(format!("unknown section [{section}]"));
        }
        *in_matrix = true;
        return Ok(());
    }
    let (key, value) = line.split_once('=').ok_or("expected `key = value`")?;
    let key = key.trim();
    let value = Value::parse(value.trim())?;
    if *in_matrix {
        apply_matrix_key(spec, key, &value)
    } else {
        apply_top_key(spec, key, &value)
    }
}

/// Escapes a string for a double-quoted TOML value — the inverse of the
/// escape handling in [`Value::parse_scalar`], so [`ScenarioSpec::to_toml`]
/// round-trips descriptions containing quotes, backslashes or newlines.
fn toml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Removes a trailing `#` comment, respecting double-quoted strings (and
/// escaped quotes inside them).
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else if c == '"' {
            in_str = true;
        } else if c == '#' {
            return &line[..i];
        }
    }
    line
}

/// A parsed TOML-subset value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    /// Exact non-negative integer (kept out of `f64` so 64-bit seeds do
    /// not lose precision).
    Int(u64),
    Num(f64),
    List(Vec<Value>),
}

impl Value {
    fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if s.is_empty() {
            return Err("empty value".into());
        }
        if let Some(inner) = s.strip_prefix('[') {
            let inner = inner
                .strip_suffix(']')
                .ok_or_else(|| format!("unterminated array: {s}"))?;
            let mut items = Vec::new();
            // Flat arrays only: split on commas outside quotes (escaped
            // quotes inside strings do not terminate them).
            let mut in_str = false;
            let mut escaped = false;
            let mut start = 0;
            for (i, c) in inner.char_indices() {
                if in_str {
                    if escaped {
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        in_str = false;
                    }
                } else {
                    match c {
                        '"' => in_str = true,
                        ',' => {
                            items.push(Self::parse_scalar(&inner[start..i])?);
                            start = i + 1;
                        }
                        '[' => return Err("nested arrays unsupported".into()),
                        _ => {}
                    }
                }
            }
            if !inner[start..].trim().is_empty() {
                items.push(Self::parse_scalar(&inner[start..])?);
            }
            if items.is_empty() {
                return Err("empty array".into());
            }
            return Ok(Value::List(items));
        }
        Self::parse_scalar(s)
    }

    fn parse_scalar(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if s.starts_with('"') {
            // Quoted string with backslash escapes (\" \\ \n \t \r).
            let mut out = String::new();
            let mut chars = s.chars();
            chars.next(); // opening quote
            let mut closed = false;
            while let Some(c) = chars.next() {
                match c {
                    '\\' => match chars.next() {
                        Some('"') => out.push('"'),
                        Some('\\') => out.push('\\'),
                        Some('n') => out.push('\n'),
                        Some('t') => out.push('\t'),
                        Some('r') => out.push('\r'),
                        other => return Err(format!("unsupported escape \\{:?} in {s}", other)),
                    },
                    '"' => {
                        closed = true;
                        break;
                    }
                    c => out.push(c),
                }
            }
            if !closed {
                return Err(format!("unterminated string: {s}"));
            }
            if chars.next().is_some() {
                return Err(format!("stray characters after string: {s}"));
            }
            return Ok(Value::Str(out));
        }
        if s.is_empty() {
            return Err("empty value".into());
        }
        // Exact u64 first: 64-bit seeds must not round-trip through f64.
        if let Ok(n) = s.parse::<u64>() {
            return Ok(Value::Int(n));
        }
        if let Ok(x) = s.parse::<f64>() {
            return Ok(Value::Num(x));
        }
        // Bare identifier (lenient: lets `mix = balanced` parse).
        if s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Ok(Value::Str(s.to_string()));
        }
        Err(format!("unparseable value: {s}"))
    }

    fn as_str(&self) -> Result<&str, String> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(format!("expected a string, got {other:?}")),
        }
    }

    fn as_f64(&self) -> Result<f64, String> {
        match self {
            Value::Num(x) => Ok(*x),
            Value::Int(n) => Ok(*n as f64),
            other => Err(format!("expected a number, got {other:?}")),
        }
    }

    fn as_u64(&self) -> Result<u64, String> {
        match self {
            Value::Int(n) => Ok(*n),
            // Float notation (e.g. `1e3`) is accepted only while exactly
            // representable; anything else would silently change the value.
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= (1u64 << 53) as f64 => {
                Ok(*x as u64)
            }
            other => Err(format!("expected a non-negative integer, got {other:?}")),
        }
    }

    /// Axis values: a list, a comma-separated string, or a single scalar.
    fn as_list(&self) -> Vec<Value> {
        match self {
            Value::List(items) => items.clone(),
            Value::Str(s) if s.contains(',') => s
                .split(',')
                .map(|p| Value::Str(p.trim().to_string()))
                .collect(),
            other => vec![other.clone()],
        }
    }
}

fn apply_top_key(spec: &mut ScenarioSpec, key: &str, value: &Value) -> Result<(), String> {
    match key {
        "name" => spec.name = value.as_str()?.to_string(),
        "description" => spec.description = value.as_str()?.to_string(),
        "seed" => spec.seed = value.as_u64()?,
        "replications" => spec.replications = value.as_u64()? as usize,
        "duration_s" => spec.duration_s = value.as_f64()?,
        "warmup_s" => spec.warmup_s = value.as_f64()?,
        "rings" => {
            let n = value.as_u64()?;
            spec.rings = u32::try_from(n)
                .map_err(|_| format!("rings = {n} is out of range (max {})", u32::MAX))?
        }
        "cell_radius_m" => spec.cell_radius_m = value.as_f64()?,
        "link" => {
            spec.link = match value.as_str()? {
                "forward" => LinkDir::Forward,
                "reverse" => LinkDir::Reverse,
                other => return Err(format!("unknown link {other:?} (forward|reverse)")),
            }
        }
        other => return Err(format!("unknown key {other:?}")),
    }
    Ok(())
}

fn apply_matrix_key(spec: &mut ScenarioSpec, key: &str, value: &Value) -> Result<(), String> {
    let items = value.as_list();
    match key {
        "mix" => {
            spec.mixes = items
                .iter()
                .map(|v| {
                    let n = v.as_str()?;
                    TrafficMix::by_name(n).ok_or_else(|| {
                        let known: Vec<&str> = TrafficMix::ALL.iter().map(|m| m.name()).collect();
                        format!("unknown mix {:?} (known: {})", n, known.join(", "))
                    })
                })
                .collect::<Result<_, _>>()?
        }
        "speed" => {
            spec.speeds = items
                .iter()
                .map(|v| {
                    let n = v.as_str()?;
                    SpeedClass::by_name(n).ok_or_else(|| {
                        let known: Vec<&str> = SpeedClass::ALL.iter().map(|s| s.name()).collect();
                        format!("unknown speed class {:?} (known: {})", n, known.join(", "))
                    })
                })
                .collect::<Result<_, _>>()?
        }
        "policy" => {
            let registry = PolicyRegistry::standard();
            spec.policies = items
                .iter()
                .map(|v| {
                    let n = v.as_str()?;
                    // The registry error lists the available names (and,
                    // for parameterised specs, the declared parameters).
                    registry.resolve(n).map(|_| n.to_string())
                })
                .collect::<Result<_, _>>()?
        }
        "load" => {
            spec.loads = items
                .iter()
                .map(|v| v.as_u64().map(|n| n as usize))
                .collect::<Result<_, _>>()?
        }
        "hotspot" => spec.hotspots = items.iter().map(|v| v.as_f64()).collect::<Result<_, _>>()?,
        "csi" => {
            spec.csi = items
                .iter()
                .map(|v| {
                    let n = v.as_str()?;
                    CsiQuality::by_name(n).ok_or_else(|| {
                        let known: Vec<&str> = CsiQuality::ALL.iter().map(|c| c.name()).collect();
                        format!("unknown csi quality {:?} (known: {})", n, known.join(", "))
                    })
                })
                .collect::<Result<_, _>>()?
        }
        "mismatch" => {
            spec.mismatch = items
                .iter()
                .map(|v| {
                    let n = v.as_str()?;
                    MismatchLevel::by_name(n).ok_or_else(|| {
                        let known: Vec<&str> =
                            MismatchLevel::ALL.iter().map(|m| m.name()).collect();
                        format!(
                            "unknown mismatch level {:?} (known: {})",
                            n,
                            known.join(", ")
                        )
                    })
                })
                .collect::<Result<_, _>>()?
        }
        other => return Err(format!("unknown matrix axis {other:?}")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_matrix() -> ScenarioSpec {
        let mut s = ScenarioSpec {
            name: "paper-eval".into(),
            description: "3 mixes × 2 speeds × 2 policies".into(),
            ..ScenarioSpec::default()
        };
        s.mixes = vec![
            TrafficMix::VoiceDominated,
            TrafficMix::Balanced,
            TrafficMix::HeavyWeb,
        ];
        s.speeds = vec![SpeedClass::Pedestrian, SpeedClass::Vehicular];
        s.policies = vec!["jaba-sd-j2".into(), "fcfs".into()];
        s
    }

    #[test]
    fn expansion_covers_the_matrix() {
        let spec = paper_matrix();
        assert_eq!(spec.n_scenarios(), 12);
        let scenarios = spec.expand().expect("valid spec");
        assert_eq!(scenarios.len(), 12);
        // Policy is the innermost axis.
        assert!(scenarios[0].label.contains("policy=jaba-sd-j2"));
        assert!(scenarios[1].label.contains("policy=fcfs"));
        // Every cell validates and carries a distinct seed.
        let mut seeds: Vec<u64> = scenarios.iter().map(|s| s.cfg.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 12);
        for sc in &scenarios {
            sc.cfg.validate().expect("expanded config validates");
            assert_eq!(sc.cfg.duration_s, spec.duration_s);
        }
        // Mix parameters land in the configs.
        let heavy = scenarios
            .iter()
            .find(|s| s.label.contains("mix=heavy-web"))
            .unwrap();
        assert_eq!(heavy.cfg.n_data, 12);
        assert_eq!(heavy.cfg.traffic.mean_burst_bits, 192_000.0);
        let fast = scenarios
            .iter()
            .find(|s| s.label.contains("speed=vehicular"))
            .unwrap();
        assert!((fast.cfg.speed_ms - 120.0 / 3.6).abs() < 1e-12);
    }

    #[test]
    fn load_axis_overrides_mix() {
        let mut spec = paper_matrix();
        spec.loads = vec![5, 10];
        let scenarios = spec.expand().unwrap();
        assert_eq!(scenarios.len(), 24);
        assert!(scenarios
            .iter()
            .all(|s| s.cfg.n_data == 5 || s.cfg.n_data == 10));
    }

    #[test]
    fn toml_round_trips() {
        let mut spec = paper_matrix();
        spec.loads = vec![4, 16];
        spec.hotspots = vec![1.0, 2.5];
        spec.csi = vec![CsiQuality::Ideal, CsiQuality::Degraded];
        spec.link = LinkDir::Reverse;
        let text = spec.to_toml();
        let parsed = ScenarioSpec::parse(&text).expect("round-trip parse");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn parser_accepts_comments_and_bare_lists() {
        let text = "\
name = \"quick\"  # file stem
replications = 1
duration_s = 8.0
warmup_s = 2.0

[matrix]
mix = balanced            # single bare identifier
speed = \"pedestrian, urban\" # comma-separated string
policy = [\"fcfs\"]
";
        let spec = ScenarioSpec::parse(text).expect("lenient forms parse");
        assert_eq!(spec.name, "quick");
        assert_eq!(spec.mixes, vec![TrafficMix::Balanced]);
        assert_eq!(spec.speeds, vec![SpeedClass::Pedestrian, SpeedClass::Urban]);
        assert_eq!(spec.policies, vec!["fcfs".to_string()]);
        assert_eq!(spec.n_scenarios(), 2);
    }

    #[test]
    fn parser_rejects_bad_input() {
        let reject = |text: &str, needle: &str| {
            let err = ScenarioSpec::parse(text).expect_err(text);
            assert!(
                err.contains(needle),
                "{text:?} → {err:?} (wanted {needle:?})"
            );
        };
        reject("bogus = 1\n", "unknown key");
        reject("[matrix]\nbogus = 1\n", "unknown matrix axis");
        reject("[matrx]\n", "unknown section");
        reject("seed = \"abc\"\n", "integer");
        reject("seed = 1.5\n", "integer");
        reject("name = \"bad\\q\"\n", "unsupported escape");
        reject("name = \"tail\" junk\n", "stray characters");
        reject("name = \"UPPER CASE\"\n", "campaign name");
        reject("replications = 0\n", "at least one replication");
        reject(
            "replications = 9223372036854775808\n[matrix]\npolicy = [\"jaba-sd-j2\", \"fcfs\"]\n",
            "overflows the job index",
        );
        reject(
            "replications = 4611686018427387904\n[matrix]\nmix = [\"balanced\", \"heavy-web\"]\n\
             policy = [\"jaba-sd-j2\", \"fcfs\"]\n",
            "overflows the job index",
        );
        reject("duration_s = 1.0\nwarmup_s = 5.0\n", "exceed warm-up");
        reject("duration_s = inf\n", "duration must be finite");
        reject("[matrix]\nmix = \"bogus-mix\"\n", "unknown mix");
        reject("[matrix]\npolicy = \"bogus\"\n", "unknown policy");
        reject("[matrix]\nspeed = \"warp\"\n", "unknown speed");
        reject("[matrix]\ncsi = \"psychic\"\n", "unknown csi");
        reject("[matrix]\nmismatch = \"chaos\"\n", "unknown mismatch");
        reject("[matrix]\nhotspot = -2.0\n", "positive");
        reject("[matrix]\nload = 0\n", "load axis");
        reject("cell_radius_m = 1e150\n", "(0, 100000] m");
        reject("cell_radius_m = 0.0\n", "(0, 100000] m");
        reject("link = \"sideways\"\n", "unknown link");
        reject("rings = 4294967297\n", "rings = 4294967297 is out of range");
        reject("duration_s\n", "key = value");
        reject("[matrix]\nmix = [\n", "unterminated array");
        reject("name = \"open\n", "unterminated string");
    }

    #[test]
    fn toml_round_trips_tricky_descriptions_and_seeds() {
        let mut spec = paper_matrix();
        // Quotes, backslashes and newlines in the free-text description.
        spec.description = "uses \"quotes\", a back\\slash,\nand a newline\t# not a comment".into();
        // A seed that f64 cannot represent exactly (2^53 + 1).
        spec.seed = (1u64 << 53) + 1;
        let parsed = ScenarioSpec::parse(&spec.to_toml()).expect("round-trip parse");
        assert_eq!(parsed, spec);
        assert_eq!(parsed.seed, (1u64 << 53) + 1);
    }

    #[test]
    fn quickened_shrinks_envelope_only() {
        let spec = paper_matrix();
        let q = spec.quickened();
        assert_eq!(q.n_scenarios(), spec.n_scenarios());
        assert!(q.duration_s < spec.duration_s);
        assert!(q.replications <= 2);
        q.validate().expect("quickened spec stays valid");
    }

    #[test]
    fn mismatch_axis_expands_applies_and_round_trips() {
        let mut spec = paper_matrix();
        spec.mismatch = vec![MismatchLevel::None, MismatchLevel::Shadow];
        assert_eq!(spec.n_scenarios(), 24);
        let scenarios = spec.expand().expect("mismatch axis expands");
        assert_eq!(scenarios.len(), 24);
        let shadowed = scenarios
            .iter()
            .find(|s| s.label.contains("mismatch=shadow"))
            .unwrap();
        assert_eq!(shadowed.cfg.mismatch.shadow_sigma_delta_db, 4.0);
        assert_eq!(shadowed.cfg.mismatch.pathloss_exponent_delta, 0.0);
        let exact = scenarios
            .iter()
            .find(|s| s.label.contains("mismatch=none"))
            .unwrap();
        assert_eq!(exact.cfg.mismatch, MismatchConfig::disabled());
        let parsed = ScenarioSpec::parse(&spec.to_toml()).expect("round-trip");
        assert_eq!(parsed, spec);
    }

    #[test]
    fn default_mismatch_axis_is_invisible() {
        // A spec that never names the axis renders, labels and fingerprints
        // exactly as it did before the axis existed — old checkpoints and
        // artefact trees stay valid.
        let spec = paper_matrix();
        assert!(!spec.to_toml().contains("mismatch"));
        for sc in spec.expand().expect("expands") {
            assert!(!sc.label.contains("mismatch"));
            assert_eq!(sc.cfg.mismatch, MismatchConfig::disabled());
        }
        let mut explicit = spec.clone();
        explicit.mismatch = vec![MismatchLevel::Combined];
        assert_ne!(explicit.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn fingerprint_tracks_spec_identity() {
        let spec = paper_matrix();
        // Stable across renders and round-trips (the checkpoint manifest
        // stores it and the resume re-derives it from spec.toml)...
        assert_eq!(spec.fingerprint(), spec.fingerprint());
        let round = ScenarioSpec::parse(&spec.to_toml()).expect("round-trip");
        assert_eq!(round.fingerprint(), spec.fingerprint());
        // ...but any result-affecting edit changes it.
        let mut edited = spec.clone();
        edited.seed ^= 1;
        assert_ne!(edited.fingerprint(), spec.fingerprint());
        let mut edited = spec.clone();
        edited.replications += 1;
        assert_ne!(edited.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn unknown_policy_error_lists_every_registry_name() {
        // The policy axis resolves through the open registry: a typo must
        // come back with the full menu, including the registry-only
        // policies the old enum could not express.
        let err = ScenarioSpec::parse("[matrix]\npolicy = \"bogus\"\n").expect_err("unknown");
        assert!(err.contains("unknown policy"), "{err}");
        for name in PolicyRegistry::standard().names() {
            assert!(err.contains(name), "error must list {name:?}: {err}");
        }
        assert!(err.contains("weighted-fair-share") && err.contains("threshold-reservation"));
        // Same contract on the validate() path (spec built in code).
        let mut spec = paper_matrix();
        spec.policies = vec!["not-a-policy".into()];
        let err = spec.validate().expect_err("unknown");
        assert!(err.contains("threshold-reservation"), "{err}");
    }

    #[test]
    fn parameterised_policy_axis_expands_and_round_trips() {
        let mut spec = paper_matrix();
        spec.policies = vec![
            "weighted-fair-share".into(),
            "threshold-reservation:margin=0.4".into(),
        ];
        let scenarios = spec.expand().expect("parameterised axis expands");
        assert!(scenarios
            .iter()
            .any(|s| s.label.contains("policy=threshold-reservation:margin=0.4")));
        let reparsed = ScenarioSpec::parse(&spec.to_toml()).expect("round-trip");
        assert_eq!(reparsed, spec);
        // Bad parameters are rejected with the declared-parameter list.
        spec.policies = vec!["threshold-reservation:margn=0.4".into()];
        let err = spec.validate().expect_err("bad parameter");
        assert!(err.contains("margin"), "{err}");
    }

    #[test]
    fn registries_resolve_all_names() {
        for m in TrafficMix::ALL {
            assert_eq!(TrafficMix::by_name(m.name()), Some(m));
        }
        for s in SpeedClass::ALL {
            assert_eq!(SpeedClass::by_name(s.name()), Some(s));
        }
        for c in CsiQuality::ALL {
            assert_eq!(CsiQuality::by_name(c.name()), Some(c));
        }
        let registry = PolicyRegistry::standard();
        for n in registry.names() {
            assert!(registry.resolve(n).is_ok());
        }
        assert!(registry.resolve("nope").is_err());
    }
}
