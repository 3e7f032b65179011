//! Folding sliced campaign checkpoints into the canonical artefacts.
//!
//! A campaign sliced `--grid-slice i/n` leaves `n` checkpoint
//! directories, each journaling the cells its slice owns and emitting no
//! artefacts. [`merge_dirs`] validates that the directories are the
//! complete slice set of one campaign, folds every cell in canonical
//! grid order, and writes the same `<name>.csv` / `<name>.json` /
//! `BENCH_campaign.json` a single-process run would — byte-identical,
//! because the journaled reports round-trip bit-exactly and the fold
//! order never depended on which process ran a cell (the same argument
//! that makes the runner shard-invariant).

use std::path::{Path, PathBuf};

use crate::stats::SimReport;

use super::emit;
use super::journal::{
    read_journal, JournalEntry, Manifest, JOURNAL_FILE, MANIFEST_FILE, SPEC_FILE,
};
use super::runner::CampaignResult;
use super::spec::ScenarioSpec;

/// Validates `dirs` as the complete slice set of one campaign, folds
/// their journals canonically, and writes the final artefacts into
/// `out_dir` (created if needed). Returns the artefact paths.
pub fn merge_dirs(dirs: &[PathBuf], out_dir: &Path) -> Result<Vec<PathBuf>, String> {
    if dirs.is_empty() {
        return Err("merge needs at least one checkpoint directory".to_string());
    }
    let manifests: Vec<Manifest> = dirs
        .iter()
        .map(|d| Manifest::load(d))
        .collect::<Result<_, _>>()?;
    let first = &manifests[0];
    for (m, d) in manifests.iter().zip(dirs).skip(1) {
        if m.fingerprint != first.fingerprint {
            return Err(format!(
                "spec fingerprint mismatch: {} expects {:016x} but {} has {:016x} — slices \
                 must come from the same campaign",
                dirs[0].join(MANIFEST_FILE).display(),
                first.fingerprint,
                d.join(MANIFEST_FILE).display(),
                m.fingerprint
            ));
        }
        // Same campaign ⇒ same fold semantics: the slices must agree on
        // the canonical-order version even if this binary has moved on —
        // their journaled cells were all produced under that version.
        if m.canonical_order_version != first.canonical_order_version {
            return Err(format!(
                "canonical-order version mismatch: {} is v{} but {} is v{}",
                dirs[0].join(MANIFEST_FILE).display(),
                first.canonical_order_version,
                d.join(MANIFEST_FILE).display(),
                m.canonical_order_version
            ));
        }
        if m.name != first.name
            || (m.n_scenarios, m.replications) != (first.n_scenarios, first.replications)
            || m.candidates != first.candidates
            || m.slice_count != first.slice_count
        {
            return Err(format!(
                "checkpoint mismatch: {} and {} describe different campaigns (name, grid \
                 shape, slice count, and candidate override must all agree)",
                dirs[0].join(MANIFEST_FILE).display(),
                d.join(MANIFEST_FILE).display()
            ));
        }
    }
    // The directories must be exactly the slice set {1..count}, no
    // duplicates, nothing missing.
    if dirs.len() != first.slice_count {
        return Err(format!(
            "campaign {:?} was sliced {} ways but {} director{} given to merge",
            first.name,
            first.slice_count,
            dirs.len(),
            if dirs.len() == 1 { "y was" } else { "ies were" }
        ));
    }
    let mut owner: Vec<Option<&PathBuf>> = vec![None; first.slice_count];
    for (m, d) in manifests.iter().zip(dirs) {
        if let Some(prev) = owner[m.slice_index - 1] {
            return Err(format!(
                "duplicate slice {}/{}: both {} and {} claim it",
                m.slice_index,
                m.slice_count,
                prev.display(),
                d.display()
            ));
        }
        owner[m.slice_index - 1] = Some(d);
    }

    // Re-expand the grid from the stored spec (fingerprint-checked) so
    // the merge knows every scenario's label, axes, and seed.
    let spec_path = dirs[0].join(SPEC_FILE);
    let text = std::fs::read_to_string(&spec_path)
        .map_err(|e| format!("cannot read {}: {e}", spec_path.display()))?;
    let spec = ScenarioSpec::parse(&text).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    if spec.fingerprint() != first.fingerprint {
        return Err(format!(
            "spec fingerprint mismatch in {}: the manifest expects {:016x} but {} hashes to \
             {:016x}",
            dirs[0].join(MANIFEST_FILE).display(),
            first.fingerprint,
            spec_path.display(),
            spec.fingerprint()
        ));
    }
    let scenarios = spec.expand()?;
    if scenarios.len() != first.n_scenarios || spec.replications != first.replications {
        return Err(format!(
            "grid shape mismatch in {}: manifest says {}×{} but {} expands to {}×{}",
            dirs[0].join(MANIFEST_FILE).display(),
            first.n_scenarios,
            first.replications,
            spec_path.display(),
            scenarios.len(),
            spec.replications
        ));
    }

    // Collect every cell; each must come from the slice that owns it.
    let n_reps = first.replications;
    let mut cells: Vec<Option<SimReport>> = vec![None; first.n_jobs()];
    for (m, d) in manifests.iter().zip(dirs) {
        let jpath = d.join(JOURNAL_FILE);
        for entry in read_journal(d)?.entries {
            if let JournalEntry::Cell { job, report } = entry {
                if job >= cells.len() || !m.owns_job(job) {
                    return Err(format!(
                        "{}: cell with job index {job} does not belong to slice {}/{} of a \
                         {}×{} grid — journal and manifest disagree",
                        jpath.display(),
                        m.slice_index,
                        m.slice_count,
                        m.n_scenarios,
                        m.replications
                    ));
                }
                cells[job] = Some(report);
            }
        }
    }
    for (job, cell) in cells.iter().enumerate() {
        if cell.is_none() {
            let slice = job % first.slice_count + 1;
            let dir = owner[slice - 1].expect("every slice has an owner");
            return Err(format!(
                "slice {slice}/{} is incomplete: scenario {} replication {} (job {job}) is \
                 missing from {} — finish that slice before merging",
                first.slice_count,
                job / n_reps,
                job % n_reps,
                dir.join(JOURNAL_FILE).display()
            ));
        }
    }

    // Canonical fold — scenario-major, replication order — then the
    // same batch emitters the single-process run uses.
    let cells = cells
        .into_iter()
        .map(|cell| cell.expect("completeness checked above"));
    let result = CampaignResult::fold(&first.name, scenarios, n_reps, cells);
    emit::write_artefacts(
        out_dir,
        &result.name,
        [
            &emit::campaign_csv(&result),
            &emit::campaign_json(&result),
            &emit::campaign_summary_json(&result),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_rejects_empty_and_missing_inputs() {
        let err = merge_dirs(&[], Path::new("/tmp")).expect_err("empty input");
        assert!(err.contains("at least one"), "{err}");
        let missing =
            std::env::temp_dir().join(format!("wcdma-merge-missing-{}", std::process::id()));
        let err = merge_dirs(std::slice::from_ref(&missing), &missing).expect_err("missing dir");
        assert!(err.contains("no campaign checkpoint"), "{err}");
        assert!(
            err.contains(MANIFEST_FILE),
            "error must name the file: {err}"
        );
    }
}
