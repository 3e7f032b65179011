//! The on-disk campaign checkpoint format: manifest + append-only journal.
//!
//! A checkpoint directory makes a campaign durable: a killed run restarts
//! from it and skips finished cells, and a sliced campaign leaves one
//! directory per slice for [`super::merge`] to fold. The format is
//! deliberately plain text so `status`/`merge`/debugging never need the
//! binary that wrote it:
//!
//! * `manifest.toml` — identity and shape, written **atomically**
//!   (tmp + rename) exactly once when the directory is created:
//!   [`CHECKPOINT_FORMAT_VERSION`], the campaign name, the spec
//!   fingerprint ([`super::spec::ScenarioSpec::fingerprint`]), the canonical-order
//!   version of the binary that started the run, the grid shape
//!   (scenarios × replications), the grid slice (`index`/`count`), and any
//!   candidate-cell override (it changes results, so it is part of the
//!   checkpoint identity, unlike the pure throughput knobs).
//! * `spec.toml` — the expanded-from spec, verbatim, so `status` can label
//!   scenarios and `merge` can re-expand the grid without guessing.
//! * `journal.log` — one `cell` line per completed replication, appended
//!   and flushed as each finishes, each line ending in an FNV-1a checksum
//!   of its body. `fold` lines snapshot the cross-replication fold state
//!   ([`wcdma_math::Welford::to_raw_parts`]) when an artefact row streams
//!   out, so a resume can *prove* its refold is bit-identical.
//! * `obs-<scenario>.txt` — written only by an observing run (`--trace`,
//!   `--sched-stats`): scenario `scenario`'s [`Observation`], landed
//!   **atomically** before its replication-0 cell is journaled, so a
//!   journaled replication 0 without an observation can only come from an
//!   unobserved run ([`write_observation`]).
//!
//! A SIGKILL can tear the final journal line mid-write; readers therefore
//! tolerate exactly one undecodable **unterminated trailing** line
//! (reported, not fatal), and a resume truncates it via [`repair_tail`]
//! before appending so the fragment never glues onto the next line.
//! Corruption anywhere else — including an undecodable line that still
//! has its `'\n'`, which a single sequential write cannot strand — is a
//! hard error naming the file and line: an append-only writer cannot
//! produce it, so something else damaged the checkpoint and silently
//! dropping cells would be worse.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

use wcdma_admission::SchedStats;

use crate::stats::SimReport;

use super::runner::Observation;
use super::spec::{Scenario, ScenarioSpec};

/// Version of the checkpoint directory layout and line formats. Bump on
/// any incompatible change; readers refuse newer (and older) versions with
/// a clear error instead of guessing.
///
/// v2: report records carry the observed outage rate (15 fields) and the
/// fold snapshot carries its Welford accumulator (11 metrics).
/// v3: an observing run keeps one `obs-<scenario>.txt` per scenario.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 3;

/// Raw words in a `fold` snapshot: one [`wcdma_math::Welford::to_raw_parts`]
/// quintet per metric accumulator of
/// [`ReplicationStats::welfords`](crate::stats::ReplicationStats::welfords).
pub const FOLD_STATE_WORDS: usize = 11 * 5;

/// File names inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.toml";
/// See [`MANIFEST_FILE`].
pub const SPEC_FILE: &str = "spec.toml";
/// See [`MANIFEST_FILE`].
pub const JOURNAL_FILE: &str = "journal.log";

/// 64-bit FNV-1a over a byte string: the checkpoint format's checksum and
/// fingerprint hash. Stable, dependency-free, and fast enough for journal
/// lines; this is corruption *detection*, not cryptography.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Checks that a campaign name can round-trip through the manifest's
/// quoted-string rendering and serve as an artefact file stem: no `'"'`
/// (the manifest parser only strips the outer quotes), no path
/// separators, no control characters.
pub fn validate_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("campaign name is empty".to_string());
    }
    if let Some(c) = name
        .chars()
        .find(|&c| c == '"' || c == '/' || c == '\\' || c.is_control())
    {
        return Err(format!(
            "campaign name {name:?} contains {c:?}, which cannot appear in a manifest string or \
             an artefact file name"
        ));
    }
    Ok(())
}

/// The checkpoint identity record at `manifest.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Checkpoint layout version ([`CHECKPOINT_FORMAT_VERSION`]).
    pub format: u32,
    /// Campaign name (the artefact file stem).
    pub name: String,
    /// [`super::spec::ScenarioSpec::fingerprint`] of the spec that created
    /// the run.
    pub fingerprint: u64,
    /// `wcdma_math::CANONICAL_ORDER_VERSION` of the creating binary.
    pub canonical_order_version: u32,
    /// Scenario count of the expanded grid.
    pub n_scenarios: usize,
    /// Replications per scenario.
    pub replications: usize,
    /// 1-based slice index (1 for an unsliced run).
    pub slice_index: usize,
    /// Total slice count (1 for an unsliced run).
    pub slice_count: usize,
    /// Candidate-cell override `(k, refresh)` — part of the identity
    /// because it changes results; `None` when the spec runs exact.
    pub candidates: Option<(usize, usize)>,
}

impl Manifest {
    /// Total cells in the full grid.
    pub fn n_jobs(&self) -> usize {
        self.n_scenarios * self.replications
    }

    /// Whether global job index `job` belongs to this manifest's slice.
    /// Jobs are dealt round-robin so a slow scenario's replications spread
    /// across slices instead of stranding one process.
    pub fn owns_job(&self, job: usize) -> bool {
        job % self.slice_count == self.slice_index - 1
    }

    /// The job indices this slice owns, in canonical (ascending) order.
    pub fn slice_jobs(&self) -> Vec<usize> {
        (0..self.n_jobs()).filter(|&j| self.owns_job(j)).collect()
    }

    /// Renders the manifest in the key/value form [`parse`](Self::parse)
    /// accepts.
    pub fn to_toml(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "format = {}", self.format);
        let _ = writeln!(s, "name = \"{}\"", self.name);
        let _ = writeln!(s, "fingerprint = \"{:016x}\"", self.fingerprint);
        let _ = writeln!(
            s,
            "canonical_order_version = {}",
            self.canonical_order_version
        );
        let _ = writeln!(s, "n_scenarios = {}", self.n_scenarios);
        let _ = writeln!(s, "replications = {}", self.replications);
        let _ = writeln!(s, "slice_index = {}", self.slice_index);
        let _ = writeln!(s, "slice_count = {}", self.slice_count);
        if let Some((k, refresh)) = self.candidates {
            let _ = writeln!(s, "candidate_k = {k}");
            let _ = writeln!(s, "candidate_refresh = {refresh}");
        }
        s
    }

    /// Parses a manifest, rejecting unknown keys, bad values, missing
    /// fields, and unsupported format versions. `path` is used only to
    /// name the file in errors.
    pub fn parse(text: &str, path: &Path) -> Result<Self, String> {
        let at = |msg: String| format!("{}: {msg}", path.display());
        let mut format = None;
        let mut name = None;
        let mut fingerprint = None;
        let mut canonical = None;
        let mut n_scenarios = None;
        let mut replications = None;
        let mut slice_index = None;
        let mut slice_count = None;
        let mut candidate_k = None;
        let mut candidate_refresh = None;
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at(format!("line {}: expected `key = value`", lineno + 1)))?;
            let (key, value) = (key.trim(), value.trim());
            let uint = |what: &str| {
                value
                    .parse::<u64>()
                    .map_err(|_| at(format!("line {}: bad {what} {value:?}", lineno + 1)))
            };
            let uint32 = |what: &str| {
                u32::try_from(uint(what)?).map_err(|_| {
                    at(format!(
                        "line {}: {key} = {value} is out of range (max {})",
                        lineno + 1,
                        u32::MAX
                    ))
                })
            };
            match key {
                "format" => format = Some(uint32("format version")?),
                "name" => {
                    let n = value
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| at(format!("line {}: name must be quoted", lineno + 1)))?;
                    validate_name(n).map_err(|e| at(format!("line {}: {e}", lineno + 1)))?;
                    name = Some(n.to_string());
                }
                "fingerprint" => {
                    let hex = value
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| {
                            at(format!("line {}: fingerprint must be quoted", lineno + 1))
                        })?;
                    fingerprint = Some(u64::from_str_radix(hex, 16).map_err(|_| {
                        at(format!("line {}: bad fingerprint {hex:?}", lineno + 1))
                    })?);
                }
                "canonical_order_version" => canonical = Some(uint32("version")?),
                "n_scenarios" => n_scenarios = Some(uint("scenario count")? as usize),
                "replications" => replications = Some(uint("replication count")? as usize),
                "slice_index" => slice_index = Some(uint("slice index")? as usize),
                "slice_count" => slice_count = Some(uint("slice count")? as usize),
                "candidate_k" => candidate_k = Some(uint("candidate k")? as usize),
                "candidate_refresh" => candidate_refresh = Some(uint("refresh cadence")? as usize),
                other => return Err(at(format!("line {}: unknown key {other:?}", lineno + 1))),
            }
        }
        let need = |what: &str| at(format!("missing {what}"));
        let format = format.ok_or_else(|| need("format"))?;
        if format != CHECKPOINT_FORMAT_VERSION {
            return Err(at(format!(
                "unsupported checkpoint format version {format} (this binary reads version \
                 {CHECKPOINT_FORMAT_VERSION})"
            )));
        }
        let candidates = match (candidate_k, candidate_refresh) {
            (Some(k), Some(r)) => Some((k, r)),
            (None, None) => None,
            _ => {
                return Err(at(
                    "candidate_k and candidate_refresh must appear together".into()
                ))
            }
        };
        let m = Manifest {
            format,
            name: name.ok_or_else(|| need("name"))?,
            fingerprint: fingerprint.ok_or_else(|| need("fingerprint"))?,
            canonical_order_version: canonical.ok_or_else(|| need("canonical_order_version"))?,
            n_scenarios: n_scenarios.ok_or_else(|| need("n_scenarios"))?,
            replications: replications.ok_or_else(|| need("replications"))?,
            slice_index: slice_index.ok_or_else(|| need("slice_index"))?,
            slice_count: slice_count.ok_or_else(|| need("slice_count"))?,
            candidates,
        };
        if m.n_scenarios == 0 || m.replications == 0 {
            return Err(at("grid shape must be non-empty".into()));
        }
        // `n_jobs` multiplies the two; no real grid comes near the limit.
        if m.n_scenarios.checked_mul(m.replications).is_none() {
            return Err(at(format!(
                "grid shape {}×{} overflows the job index",
                m.n_scenarios, m.replications
            )));
        }
        if m.slice_count == 0 || m.slice_index == 0 || m.slice_index > m.slice_count {
            return Err(at(format!(
                "bad grid slice {}/{} (need 1 ≤ index ≤ count)",
                m.slice_index, m.slice_count
            )));
        }
        Ok(m)
    }

    /// Loads and parses `<dir>/manifest.toml`. A missing file yields the
    /// canonical "no checkpoint here" error.
    pub fn load(dir: &Path) -> Result<Self, String> {
        let path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "no campaign checkpoint at {}: cannot read {}: {e}",
                dir.display(),
                path.display()
            )
        })?;
        Self::parse(&text, &path)
    }

    /// Checks this manifest, read from `dir`, against `want`, the manifest
    /// it must match — the one a resume would create, or the first slice
    /// of a merge set with this slice's index — with one specific error per
    /// way they can disagree. `want_from` names the source of `want`.
    pub(crate) fn check_compat(
        &self,
        want: &Manifest,
        dir: &Path,
        want_from: &str,
    ) -> Result<(), String> {
        let path = dir.join(MANIFEST_FILE);
        let path = path.display();
        if self.fingerprint != want.fingerprint {
            return Err(format!(
                "spec fingerprint mismatch in {path}: the checkpoint was created from spec {:016x} \
                 but {want_from} expects spec {:016x}; a checkpoint resumes and merges only under \
                 the exact spec (including --quick) that created it",
                self.fingerprint, want.fingerprint
            ));
        }
        if self.canonical_order_version != want.canonical_order_version {
            return Err(format!(
                "canonical-order version mismatch in {path}: the checkpoint was written by a v{} \
                 build but {want_from} expects v{}; finish the run with the build that created it \
                 (see docs/CHECKPOINT_FORMAT.md)",
                self.canonical_order_version, want.canonical_order_version
            ));
        }
        if self.name != want.name {
            return Err(format!(
                "campaign name mismatch in {path}: checkpoint is {:?}, {want_from} expects {:?}",
                self.name, want.name
            ));
        }
        if (self.n_scenarios, self.replications) != (want.n_scenarios, want.replications) {
            return Err(format!(
                "grid shape mismatch in {path}: checkpoint is {}×{}, {want_from} expects {}×{}",
                self.n_scenarios, self.replications, want.n_scenarios, want.replications
            ));
        }
        if (self.slice_index, self.slice_count) != (want.slice_index, want.slice_count) {
            return Err(format!(
                "grid slice mismatch in {path}: checkpoint is slice {}/{}, {want_from} expects {}/{}",
                self.slice_index, self.slice_count, want.slice_index, want.slice_count
            ));
        }
        if self.candidates != want.candidates {
            return Err(format!(
                "candidate-list mismatch in {path}: checkpoint has {:?}, {want_from} expects {:?} — \
                 the override changes results, so it is part of the checkpoint identity",
                self.candidates, want.candidates
            ));
        }
        Ok(())
    }

    /// Writes the manifest atomically (tmp + rename): a kill between the
    /// two steps leaves either no manifest or a complete one, never a
    /// torn one. Rejects names [`validate_name`] cannot round-trip.
    pub fn store(&self, dir: &Path) -> Result<(), String> {
        validate_name(&self.name)?;
        write_atomic(&dir.join(MANIFEST_FILE), &self.to_toml())
    }
}

/// Writes `contents` to `path` atomically via a `.tmp` sibling + rename.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, contents).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename {} to {}: {e}", tmp.display(), path.display()))
}

/// The file holding scenario `scenario`'s observation in a checkpoint.
pub fn observation_file(scenario: usize) -> String {
    format!("obs-{scenario}.txt")
}

/// Writes scenario `scenario`'s observation into checkpoint `dir`
/// atomically: one header line `sched <rounds> <solves> <warm_hits>
/// <skipped_identical> <bb_nodes> <checksum>`, where the checksum is the
/// FNV-1a 64 of the rows, then the trace CSV rows verbatim.
pub fn write_observation(dir: &Path, scenario: usize, obs: &Observation) -> Result<(), String> {
    let s = &obs.sched;
    let header = format!(
        "sched {} {} {} {} {} {:016x}\n",
        s.rounds,
        s.solves,
        s.warm_hits,
        s.skipped_identical,
        s.bb_nodes,
        fnv1a64(obs.trace_rows.as_bytes())
    );
    write_atomic(
        &dir.join(observation_file(scenario)),
        &(header + &obs.trace_rows),
    )
}

/// Reads scenario `scenario`'s observation back from checkpoint `dir`
/// under `label`; `None` when the run that journaled its replication 0
/// did not observe. A file that does not decode, or whose rows fail their
/// checksum, is an error naming it.
pub fn read_observation(
    dir: &Path,
    scenario: usize,
    label: &str,
) -> Result<Option<Observation>, String> {
    let path = dir.join(observation_file(scenario));
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let corrupt = |why: &str| format!("corrupt observation {}: {why}", path.display());
    let (header, rows) = text
        .split_once('\n')
        .ok_or_else(|| corrupt("no header line"))?;
    let words: Vec<&str> = header.split(' ').collect();
    let ["sched", counters @ .., sum] = words.as_slice() else {
        return Err(corrupt("header must start with `sched`"));
    };
    let counters = counters
        .iter()
        .map(|w| {
            w.parse::<u64>()
                .map_err(|_| corrupt(&format!("bad counter {w:?}")))
        })
        .collect::<Result<Vec<u64>, String>>()?;
    let [rounds, solves, warm_hits, skipped_identical, bb_nodes] = counters[..] else {
        return Err(corrupt("header must hold 5 counters and a checksum"));
    };
    let sum =
        u64::from_str_radix(sum, 16).map_err(|_| corrupt(&format!("bad checksum {sum:?}")))?;
    if sum != fnv1a64(rows.as_bytes()) {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(Some(Observation {
        label: label.to_string(),
        trace_rows: rows.to_string(),
        sched: SchedStats {
            rounds,
            solves,
            warm_hits,
            skipped_identical,
            bb_nodes,
        },
    }))
}

/// One decoded journal line.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEntry {
    /// A completed replication: global job index + its report.
    Cell {
        /// Global job index (`scenario * replications + rep`).
        job: usize,
        /// The replication's full report, bit-exact.
        report: SimReport,
    },
    /// A cross-replication fold snapshot taken when scenario `scenario`'s
    /// artefact row streamed out: the raw state of every
    /// [`crate::stats::ReplicationStats`] accumulator, in declaration
    /// order, 5 words each ([`wcdma_math::Welford::to_raw_parts`]).
    Fold {
        /// Scenario index the fold covers.
        scenario: usize,
        /// `10 × 5` raw accumulator words.
        state: Vec<u64>,
    },
}

/// Everything read back from a journal file.
#[derive(Debug, Default)]
pub struct JournalContents {
    /// Decoded entries, in file (= completion) order.
    pub entries: Vec<JournalEntry>,
    /// Set when the final line was torn (undecodable) and dropped — the
    /// expected aftermath of a SIGKILL mid-append.
    pub torn_tail: bool,
}

/// A checkpoint directory read back through the one loader that resume,
/// `status` and `merge` share. [`open`](Self::open) checks the journal
/// against the manifest; [`expand_spec`](Self::expand_spec) checks the
/// stored spec against the manifest.
#[derive(Debug)]
pub struct Checkpoint {
    /// The directory read.
    pub dir: PathBuf,
    /// Its manifest.
    pub manifest: Manifest,
    /// Every journaled cell, keyed by global job index.
    pub cells: HashMap<usize, SimReport>,
    /// The journaled fold snapshots `(scenario, state)`, in file order.
    pub folds: Vec<(usize, Vec<u64>)>,
    /// Whether [`read_journal`] dropped a torn final line.
    pub torn_tail: bool,
}

impl Checkpoint {
    /// Loads `<dir>/manifest.toml` and `<dir>/journal.log`, and checks that
    /// every journaled cell lies in the grid and belongs to the manifest's
    /// slice. Safe on any manifest that parses: [`Manifest::parse`] rejects
    /// a grid whose job count overflows, and nothing here is sized by a
    /// manifest value.
    pub fn open(dir: &Path) -> Result<Self, String> {
        let manifest = Manifest::load(dir)?;
        let journal = read_journal(dir)?;
        let mut cells = HashMap::new();
        let mut folds = Vec::new();
        for entry in journal.entries {
            match entry {
                JournalEntry::Cell { job, report } => {
                    if job >= manifest.n_jobs() || !manifest.owns_job(job) {
                        return Err(format!(
                            "{}: cell with job index {job} does not belong to slice {}/{} of a \
                             {}×{} grid — journal and manifest disagree",
                            dir.join(JOURNAL_FILE).display(),
                            manifest.slice_index,
                            manifest.slice_count,
                            manifest.n_scenarios,
                            manifest.replications
                        ));
                    }
                    cells.insert(job, report);
                }
                JournalEntry::Fold { scenario, state } => folds.push((scenario, state)),
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            manifest,
            cells,
            folds,
            torn_tail: journal.torn_tail,
        })
    }

    /// Reads back `<dir>/spec.toml`, checks its fingerprint and expanded
    /// grid shape against the manifest, and returns the expanded
    /// scenarios. Once this succeeds, the manifest's shape is the spec's
    /// and may size vectors.
    pub fn expand_spec(&self) -> Result<Vec<Scenario>, String> {
        let m = &self.manifest;
        let manifest_path = self.dir.join(MANIFEST_FILE);
        let spec_path = self.dir.join(SPEC_FILE);
        let text = std::fs::read_to_string(&spec_path)
            .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
        let spec =
            ScenarioSpec::parse(&text).map_err(|e| format!("{}: {e}", spec_path.display()))?;
        if spec.fingerprint() != m.fingerprint {
            return Err(format!(
                "spec fingerprint mismatch in {}: the manifest expects {:016x} but {} hashes to \
                 {:016x} — the checkpoint directory has been tampered with",
                manifest_path.display(),
                m.fingerprint,
                spec_path.display(),
                spec.fingerprint()
            ));
        }
        let scenarios = spec.expand()?;
        if scenarios.len() != m.n_scenarios || spec.replications != m.replications {
            return Err(format!(
                "grid shape mismatch in {}: manifest says {}×{} but {} expands to {}×{}",
                manifest_path.display(),
                m.n_scenarios,
                m.replications,
                spec_path.display(),
                scenarios.len(),
                spec.replications
            ));
        }
        Ok(scenarios)
    }
}

/// Appends one body line plus its checksum suffix. The body must not
/// contain `|`.
fn journal_line(body: &str) -> String {
    format!("{body}|{:016x}\n", fnv1a64(body.as_bytes()))
}

/// Decodes one journal line (checksum check + entry parse).
fn decode_line(line: &str) -> Result<JournalEntry, String> {
    let (body, sum) = line
        .rsplit_once('|')
        .ok_or("missing checksum separator '|'")?;
    let expect = u64::from_str_radix(sum, 16).map_err(|_| format!("bad checksum {sum:?}"))?;
    let got = fnv1a64(body.as_bytes());
    if got != expect {
        return Err(format!(
            "checksum mismatch (line says {expect:016x}, content hashes to {got:016x})"
        ));
    }
    let (kind, rest) = body.split_once(' ').ok_or("missing entry kind")?;
    match kind {
        "cell" => {
            let (job, record) = rest.split_once(' ').ok_or("cell line missing report")?;
            let job = job
                .parse::<usize>()
                .map_err(|_| format!("bad job index {job:?}"))?;
            let report = SimReport::decode_record(record)?;
            Ok(JournalEntry::Cell { job, report })
        }
        "fold" => {
            let mut toks = rest.split_ascii_whitespace();
            let scenario = toks
                .next()
                .ok_or("fold line missing scenario index")?
                .parse::<usize>()
                .map_err(|_| "bad fold scenario index".to_string())?;
            let state = toks
                .map(|t| u64::from_str_radix(t, 16).map_err(|_| format!("bad fold word {t:?}")))
                .collect::<Result<Vec<u64>, String>>()?;
            if state.len() != FOLD_STATE_WORDS {
                return Err(format!(
                    "fold line has {} state words, expected {FOLD_STATE_WORDS}",
                    state.len()
                ));
            }
            Ok(JournalEntry::Fold { scenario, state })
        }
        other => Err(format!("unknown entry kind {other:?}")),
    }
}

/// Reads `<dir>/journal.log`. A missing file is an empty journal (the run
/// was killed before the first completion). Exactly one undecodable
/// *unterminated trailing* line is tolerated as a torn write — the writer
/// emits a line's body and its `'\n'` in one sequential write, so a tear
/// can only strand an unterminated tail. Anything else undecodable,
/// including a newline-terminated final line, is a hard error naming the
/// file and line number.
pub fn read_journal(dir: &Path) -> Result<JournalContents, String> {
    let path = dir.join(JOURNAL_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(JournalContents::default()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let lines: Vec<&str> = text.split('\n').collect();
    // A healthy journal ends in '\n', so the final split piece is empty; a
    // torn tail leaves a non-empty final piece with no terminator.
    let mut contents = JournalContents::default();
    let n = lines.len();
    for (i, line) in lines.iter().enumerate() {
        if line.is_empty() {
            if i + 1 != n {
                return Err(format!(
                    "corrupt journal line {} in {}: empty line",
                    i + 1,
                    path.display()
                ));
            }
            continue;
        }
        match decode_line(line) {
            Ok(entry) => {
                // A decodable line that never got its newline is still a
                // complete record; accept it.
                contents.entries.push(entry);
            }
            Err(reason) => {
                // Only the final, unterminated split piece can be a torn
                // append; drop it and let the resume re-run that cell.
                if i + 1 == n {
                    contents.torn_tail = true;
                } else {
                    return Err(format!(
                        "corrupt journal line {} in {}: {reason}",
                        i + 1,
                        path.display()
                    ));
                }
            }
        }
    }
    Ok(contents)
}

/// Repairs the tail of `<dir>/journal.log` so the next append starts a
/// fresh line. A kill can leave the file without a final `'\n'` in two
/// ways, and an append-mode reopen would glue its first line onto either
/// — producing a line that fails its checksum on every later read. Pass
/// [`read_journal`]'s verdict: when `torn_tail`, the unterminated tail is
/// an undecodable fragment and is truncated at the last `'\n'`; otherwise
/// an unterminated tail decoded cleanly, so it is a complete record and
/// only gets the `'\n'` the kill swallowed. A missing, empty, or
/// `'\n'`-terminated file is left untouched. Call only after
/// [`read_journal`] accepted the file.
pub fn repair_tail(dir: &Path, torn_tail: bool) -> Result<(), String> {
    let path = dir.join(JOURNAL_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    if bytes.is_empty() || bytes.ends_with(b"\n") {
        return Ok(());
    }
    if torn_tail {
        let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let file = OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        file.set_len(keep as u64)
            .map_err(|e| format!("cannot truncate {}: {e}", path.display()))?;
    } else {
        let mut file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        file.write_all(b"\n")
            .map_err(|e| format!("cannot terminate the tail of {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Append-only journal writer: opens (creating) `<dir>/journal.log` and
/// flushes after every entry so a kill loses at most the line being
/// written.
#[derive(Debug)]
pub struct JournalWriter {
    file: BufWriter<File>,
    path: PathBuf,
}

impl JournalWriter {
    /// Opens the journal for appending.
    pub fn open(dir: &Path) -> Result<Self, String> {
        let path = dir.join(JOURNAL_FILE);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        Ok(Self {
            file: BufWriter::new(file),
            path,
        })
    }

    fn append(&mut self, body: &str) -> Result<(), String> {
        self.file
            .write_all(journal_line(body).as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("cannot append to {}: {e}", self.path.display()))
    }

    /// Journals one completed replication.
    pub fn append_cell(&mut self, job: usize, report: &SimReport) -> Result<(), String> {
        self.append(&format!("cell {job} {}", report.encode_record()))
    }

    /// Journals a fold snapshot for a completed scenario.
    pub fn append_fold(&mut self, scenario: usize, state: &[u64]) -> Result<(), String> {
        let words: Vec<String> = state.iter().map(|w| format!("{w:016x}")).collect();
        self.append(&format!("fold {scenario} {}", words.join(" ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SimStats;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wcdma-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_report(seed: f64) -> SimReport {
        let mut s = SimStats::new();
        s.burst_delay.push(seed);
        s.burst_delay_p95.push(seed);
        s.bits_delivered = seed * 1e6;
        s.window_s = 4.0;
        s.bursts_completed = 2;
        s.report(3, 7)
    }

    fn manifest() -> Manifest {
        Manifest {
            format: CHECKPOINT_FORMAT_VERSION,
            name: "paper-eval".into(),
            fingerprint: 0xDEAD_BEEF_0123_4567,
            canonical_order_version: wcdma_math::CANONICAL_ORDER_VERSION,
            n_scenarios: 12,
            replications: 2,
            slice_index: 2,
            slice_count: 3,
            candidates: Some((3, 8)),
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = manifest();
        let parsed = Manifest::parse(&m.to_toml(), Path::new("m.toml")).expect("round-trip");
        assert_eq!(parsed, m);
        let mut exact = m.clone();
        exact.candidates = None;
        let parsed = Manifest::parse(&exact.to_toml(), Path::new("m.toml")).unwrap();
        assert_eq!(parsed, exact);
    }

    #[test]
    fn manifest_store_load_and_missing_dir_error() {
        let dir = tmpdir("manifest");
        let m = manifest();
        m.store(&dir).expect("atomic store");
        assert_eq!(Manifest::load(&dir).expect("load"), m);
        // No stray tmp file left behind.
        assert!(!dir.join("manifest.tmp").exists());
        let missing = dir.join("no-such-subdir");
        let err = Manifest::load(&missing).expect_err("missing dir");
        assert!(err.contains("no campaign checkpoint"), "{err}");
        assert!(
            err.contains(MANIFEST_FILE),
            "error must name the file: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_rejects_bad_input() {
        let reject = |text: &str, needle: &str| {
            let err = Manifest::parse(text, Path::new("m.toml")).expect_err(text);
            assert!(
                err.contains(needle),
                "{text:?} → {err:?} (wanted {needle:?})"
            );
            assert!(err.contains("m.toml"), "error must name the file: {err}");
        };
        reject("", "missing format");
        reject("format = 99\n", "unsupported checkpoint format");
        reject(
            &manifest()
                .to_toml()
                .replace("name = \"paper-eval\"", "name = raw"),
            "quoted",
        );
        reject(
            &format!("{}bogus = 1\n", manifest().to_toml()),
            "unknown key",
        );
        reject(
            &manifest()
                .to_toml()
                .replace("slice_index = 2", "slice_index = 9"),
            "bad grid slice",
        );
        reject(
            &manifest().to_toml().replace("candidate_refresh = 8\n", ""),
            "together",
        );
        reject(
            &manifest()
                .to_toml()
                .replace("n_scenarios = 12", "n_scenarios = 0"),
            "non-empty",
        );
        // Values past u32::MAX must not wrap into a supported version.
        reject(
            &format!("{}format = 4294967299\n", manifest().to_toml()),
            "format = 4294967299 is out of range",
        );
        reject(
            &format!(
                "{}canonical_order_version = 4294967298\n",
                manifest().to_toml()
            ),
            "canonical_order_version = 4294967298 is out of range",
        );
    }

    #[test]
    fn slice_jobs_partition_the_grid() {
        let m = manifest();
        let all: Vec<usize> = (1..=3)
            .flat_map(|i| {
                Manifest {
                    slice_index: i,
                    ..m.clone()
                }
                .slice_jobs()
            })
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<_>>(), "slices tile the grid");
        assert!(m.slice_jobs().iter().all(|&j| m.owns_job(j)));
    }

    #[test]
    fn journal_round_trips_cells_and_folds() {
        let dir = tmpdir("roundtrip");
        let (r0, r1) = (sample_report(0.25), sample_report(1.75));
        {
            let mut w = JournalWriter::open(&dir).unwrap();
            w.append_cell(4, &r0).unwrap();
            w.append_cell(17, &r1).unwrap();
            w.append_fold(2, &[7u64; FOLD_STATE_WORDS]).unwrap();
        }
        // Re-open appends rather than truncating.
        {
            let mut w = JournalWriter::open(&dir).unwrap();
            w.append_cell(5, &r0).unwrap();
        }
        let contents = read_journal(&dir).expect("clean journal");
        assert!(!contents.torn_tail);
        assert_eq!(contents.entries.len(), 4);
        assert_eq!(
            contents.entries[0],
            JournalEntry::Cell {
                job: 4,
                report: r0.clone()
            }
        );
        assert_eq!(
            contents.entries[1],
            JournalEntry::Cell {
                job: 17,
                report: r1
            }
        );
        assert_eq!(
            contents.entries[2],
            JournalEntry::Fold {
                scenario: 2,
                state: vec![7u64; FOLD_STATE_WORDS]
            }
        );
        assert_eq!(
            contents.entries[3],
            JournalEntry::Cell { job: 5, report: r0 }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_journal_is_empty() {
        let dir = tmpdir("empty");
        let contents = read_journal(&dir).expect("no journal yet");
        assert!(contents.entries.is_empty() && !contents.torn_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn observations_round_trip_and_malformed_files_are_errors() {
        let dir = tmpdir("obs");
        assert_eq!(read_observation(&dir, 0, "a").unwrap(), None);
        let obs = Observation {
            label: "a".into(),
            trace_rows: "a,0.5,forward,1,1,2,3,true,0.25,7:2\n".into(),
            sched: SchedStats {
                rounds: 1,
                solves: 1,
                warm_hits: 0,
                skipped_identical: 0,
                bb_nodes: 9,
            },
        };
        write_observation(&dir, 0, &obs).unwrap();
        assert_eq!(read_observation(&dir, 0, "a").unwrap(), Some(obs.clone()));
        let good = std::fs::read_to_string(dir.join(observation_file(0))).unwrap();
        let (header, rows) = good.split_once('\n').unwrap();
        for bad in [
            String::new(),
            header.to_string(),
            good.replacen("sched", "sked", 1),
            good.replacen(" 9 ", " 9 9 ", 1),
            good.replacen(" 9 ", " x ", 1),
            format!("{} zz\n{rows}", header.rsplit_once(' ').unwrap().0),
            good.replace("7:2", "7:3"),
        ] {
            std::fs::write(dir.join(observation_file(0)), &bad).unwrap();
            let err = read_observation(&dir, 0, "a").expect_err(&bad);
            assert!(err.contains(&observation_file(0)), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_but_interior_corruption_is_fatal() {
        let dir = tmpdir("torn");
        let r = sample_report(0.5);
        {
            let mut w = JournalWriter::open(&dir).unwrap();
            w.append_cell(0, &r).unwrap();
            w.append_cell(1, &r).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();

        // Simulated SIGKILL mid-append: cut the final line in half.
        let cut = text.len() - 20;
        std::fs::write(&path, &text[..cut]).unwrap();
        let contents = read_journal(&dir).expect("torn tail tolerated");
        assert!(contents.torn_tail);
        assert_eq!(contents.entries.len(), 1, "only the intact line survives");

        // Interior corruption (first line damaged) is a named hard error.
        let corrupt = format!(
            "cell 0 zzz|0000000000000000\n{}",
            text.lines().nth(1).unwrap()
        );
        std::fs::write(&path, format!("{corrupt}\n")).unwrap();
        let err = read_journal(&dir).expect_err("interior corruption");
        assert!(err.contains("corrupt journal line 1"), "{err}");
        assert!(
            err.contains(JOURNAL_FILE),
            "error must name the file: {err}"
        );

        // Checksum flip anywhere but the tail is also fatal.
        let mut lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
        lines[0] = lines[0].replace('0', "1");
        std::fs::write(&path, format!("{}\n{}\n", lines[0], lines[1])).unwrap();
        let err = read_journal(&dir).expect_err("bad checksum");
        assert!(err.contains("line 1"), "{err}");

        // An undecodable final line that kept its '\n' is damage, not a
        // torn append — the writer emits body + '\n' in one write.
        std::fs::write(
            &path,
            format!(
                "{}\ncell 1 zzz|0000000000000000\n",
                text.lines().next().unwrap()
            ),
        )
        .unwrap();
        let err = read_journal(&dir).expect_err("terminated corruption");
        assert!(err.contains("corrupt journal line 2"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_tail_lets_reopened_writers_append_cleanly() {
        let dir = tmpdir("repair");
        let r = sample_report(1.5);
        {
            let mut w = JournalWriter::open(&dir).unwrap();
            w.append_cell(0, &r).unwrap();
            w.append_cell(1, &r).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();

        // Torn fragment: repair truncates it so the reopened writer's
        // first line does not glue onto it.
        std::fs::write(&path, &text[..text.len() - 20]).unwrap();
        let contents = read_journal(&dir).unwrap();
        assert!(contents.torn_tail);
        repair_tail(&dir, contents.torn_tail).unwrap();
        {
            let mut w = JournalWriter::open(&dir).unwrap();
            w.append_cell(1, &r).unwrap();
        }
        let contents = read_journal(&dir).expect("clean after repair + append");
        assert!(!contents.torn_tail);
        assert_eq!(contents.entries.len(), 2);

        // Complete-but-unterminated record: repair terminates it instead
        // of truncating, so the record survives and the next append is
        // still on a fresh line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end_matches('\n')).unwrap();
        let contents = read_journal(&dir).unwrap();
        assert!(!contents.torn_tail);
        repair_tail(&dir, contents.torn_tail).unwrap();
        {
            let mut w = JournalWriter::open(&dir).unwrap();
            w.append_cell(2, &r).unwrap();
        }
        assert_eq!(read_journal(&dir).unwrap().entries.len(), 3);

        // Missing and empty journals are no-ops.
        std::fs::remove_file(&path).unwrap();
        repair_tail(&dir, true).unwrap();
        assert!(!path.exists());
        std::fs::write(&path, "").unwrap();
        repair_tail(&dir, true).unwrap();
        assert!(read_journal(&dir).unwrap().entries.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unroundtrippable_names_are_rejected() {
        let dir = tmpdir("badname");
        for bad in ["", "quo\"te", "pa/th", "back\\slash", "new\nline"] {
            let mut m = manifest();
            m.name = bad.into();
            let err = m.store(&dir).expect_err(bad);
            assert!(err.contains("campaign name"), "{bad:?} → {err}");
        }
        assert!(!dir.join(MANIFEST_FILE).exists(), "nothing was written");
        // A hand-edited manifest smuggling a quote past the outer-quote
        // stripping is rejected on parse, not silently misparsed.
        let smuggled = manifest()
            .to_toml()
            .replace("name = \"paper-eval\"", "name = \"pap\"er\"");
        let err = Manifest::parse(&smuggled, Path::new("m.toml")).expect_err("inner quote");
        assert!(err.contains("campaign name"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unterminated_but_complete_tail_line_is_accepted() {
        // flush() wrote the whole line but the '\n'-less case can appear if
        // the kill lands between write and the implicit newline ordering;
        // a decodable record is a complete record either way.
        let dir = tmpdir("noterm");
        let r = sample_report(2.5);
        {
            let mut w = JournalWriter::open(&dir).unwrap();
            w.append_cell(3, &r).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end_matches('\n')).unwrap();
        let contents = read_journal(&dir).expect("complete unterminated line");
        assert!(!contents.torn_tail);
        assert_eq!(
            contents.entries,
            vec![JournalEntry::Cell { job: 3, report: r }]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so journals written by older builds keep verifying.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"wcdma"), fnv1a64(b"wcdma"));
        assert_ne!(fnv1a64(b"wcdma"), fnv1a64(b"wcdmb"));
    }
}
