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
use super::journal::{Checkpoint, Manifest, JOURNAL_FILE, MANIFEST_FILE};
use super::runner::CampaignResult;

/// Validates `dirs` as the complete slice set of one campaign, folds
/// their journals canonically, and writes the final artefacts into
/// `out_dir` (created if needed). Returns the artefact paths.
pub fn merge_dirs(dirs: &[PathBuf], out_dir: &Path) -> Result<Vec<PathBuf>, String> {
    if dirs.is_empty() {
        return Err("merge needs at least one checkpoint directory".to_string());
    }
    let ckpts: Vec<Checkpoint> = dirs
        .iter()
        .map(|d| Checkpoint::open(d))
        .collect::<Result<_, _>>()?;
    let first = ckpts[0].manifest.clone();
    // Same campaign ⇒ same fold semantics: every slice must match the
    // first one but for its index — including the canonical-order version,
    // even if this binary has moved on, since their journaled cells were
    // all produced under that version.
    let first_path = dirs[0].join(MANIFEST_FILE).display().to_string();
    for c in &ckpts[1..] {
        let want = Manifest {
            slice_index: c.manifest.slice_index,
            ..first.clone()
        };
        c.manifest.check_compat(&want, &c.dir, &first_path)?;
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
    for (c, d) in ckpts.iter().zip(dirs) {
        let m = &c.manifest;
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

    // Re-expand the grid from the stored spec (fingerprint- and
    // shape-checked) so the merge knows every scenario's label, axes, and
    // seed, and only then size the grid by the manifest.
    let scenarios = ckpts[0].expand_spec()?;
    let n_reps = first.replications;
    let mut cells: Vec<Option<SimReport>> = vec![None; first.n_jobs()];
    for c in ckpts {
        for (job, report) in c.cells {
            cells[job] = Some(report);
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
