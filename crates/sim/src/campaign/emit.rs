//! Campaign result emitters: CSV for plotting, JSON for machines.
//!
//! All three emitters are pure functions of a [`CampaignResult`], so the
//! emitted artefacts inherit the runner's bit-for-bit shard invariance.
//! [`write_artefacts`] is the one place their documents reach the disk.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use wcdma_mac::LinkDir;
use wcdma_math::stats::{MeanCi, Welford};

use crate::stats::ReplicationStats;
use crate::trace::DecisionRecord;

use super::journal::write_atomic;
use super::runner::{CampaignResult, Observation, ScenarioResult};
use super::spec::Scenario;

/// Accessor into one metric accumulator of the streaming stats.
type MetricAccessor = fn(&ReplicationStats) -> &Welford;

/// The per-scenario metric columns shared by every emitter: name plus
/// accessor into the streaming stats.
fn metric_columns() -> [(&'static str, MetricAccessor); 8] {
    [
        ("mean_delay_s", |s: &ReplicationStats| &s.mean_delay_s),
        ("p95_delay_s", |s| &s.p95_delay_s),
        ("mean_queue_delay_s", |s| &s.mean_queue_delay_s),
        ("per_cell_throughput_kbps", |s| &s.per_cell_throughput_kbps),
        ("mean_grant_m", |s| &s.mean_grant_m),
        ("denial_rate", |s| &s.denial_rate),
        ("outage_rate", |s| &s.outage_rate),
        ("bursts_completed", |s| &s.bursts_completed),
    ]
}

/// Axis key order for a campaign's CSV columns, taken from its first
/// scenario (every scenario in an expanded grid shares the axis set).
pub fn axis_keys(first: Option<&Scenario>) -> Vec<String> {
    first
        .map(|s| s.axes.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default()
}

/// The campaign CSV header line (newline-terminated). Streaming and
/// batch emission both start from this exact line.
pub fn campaign_csv_header(axis_keys: &[String]) -> String {
    let mut header: Vec<String> = vec!["scenario".into()];
    header.extend(axis_keys.iter().cloned());
    header.push("replications".into());
    for (name, _) in metric_columns() {
        header.push(name.to_string());
        header.push(format!("{name}_ci95"));
    }
    crate::table::csv_line(&header)
}

/// One scenario's CSV row (newline-terminated): axis columns, then
/// `mean`/`ci95` pairs for every metric.
pub fn campaign_csv_row(sr: &ScenarioResult, axis_keys: &[String]) -> String {
    let mut row: Vec<String> = vec![sr.scenario.label.clone()];
    for key in axis_keys {
        let v = sr
            .scenario
            .axes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_default();
        row.push(v);
    }
    row.push(sr.stats.n().to_string());
    for (_, get) in metric_columns() {
        let ci = MeanCi::from_welford(get(&sr.stats));
        row.push(format!("{}", ci.mean));
        row.push(if ci.half_width.is_finite() {
            format!("{}", ci.half_width)
        } else {
            String::new()
        });
    }
    crate::table::csv_line(&row)
}

/// Renders one row per scenario as CSV: axis columns, then
/// `mean`/`ci95` pairs for every metric.
pub fn campaign_csv(result: &CampaignResult) -> String {
    let keys = axis_keys(result.scenarios.first().map(|sr| &sr.scenario));
    let mut out = campaign_csv_header(&keys);
    for sr in &result.scenarios {
        out.push_str(&campaign_csv_row(sr, &keys));
    }
    out
}

/// JSON string escaping (control characters, quotes, backslashes).
fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number rendering; non-finite values become `null`.
fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn scenario_axes_json(sr: &ScenarioResult) -> String {
    let pairs: Vec<String> = sr
        .scenario
        .axes
        .iter()
        .map(|(k, v)| format!("{}: {}", jstr(k), jstr(v)))
        .collect();
    format!("{{{}}}", pairs.join(", "))
}

/// Opening fragment of the campaign JSON document, up to and including
/// the `scenarios` array bracket. Streaming emission writes this first,
/// then [`campaign_json_scenario`] fragments joined by
/// [`JSON_SCENARIO_SEP`], then [`CAMPAIGN_JSON_CLOSE`].
pub fn campaign_json_open(name: &str, replications: usize, n_scenarios: usize) -> String {
    format!(
        "{{\n  \"campaign\": {},\n  \"replications\": {replications},\n  \"n_scenarios\": {n_scenarios},\n  \"scenarios\": [\n",
        jstr(name)
    )
}

/// Separator between scenario fragments in the JSON documents.
pub const JSON_SCENARIO_SEP: &str = ",\n";

/// Closing fragment of the campaign JSON document.
pub const CAMPAIGN_JSON_CLOSE: &str = "\n  ]\n}\n";

/// One scenario's JSON object fragment (no separators): axes, per-metric
/// mean/CI, and the headline per-replication series.
pub fn campaign_json_scenario(sr: &ScenarioResult) -> String {
    let metrics: Vec<String> = metric_columns()
        .iter()
        .map(|(name, get)| {
            let ci = MeanCi::from_welford(get(&sr.stats));
            format!(
                "{}: {{\"mean\": {}, \"ci95\": {}, \"n\": {}}}",
                jstr(name),
                jnum(ci.mean),
                jnum(ci.half_width),
                ci.n
            )
        })
        .collect();
    let reps: Vec<String> = sr
        .reports
        .iter()
        .map(|r| {
            format!(
                "{{\"mean_delay_s\": {}, \"per_cell_throughput_kbps\": {}, \"bursts_completed\": {}}}",
                jnum(r.mean_delay_s),
                jnum(r.per_cell_throughput_kbps),
                r.bursts_completed
            )
        })
        .collect();
    // The seed is a full-range u64; emit it as a string so
    // double-based JSON consumers (JS, jq) cannot round it to a
    // different — unreproducible — value.
    format!(
        "    {{\n      \"label\": {},\n      \"axes\": {},\n      \"seed\": \"{}\",\n      \"metrics\": {{{}}},\n      \"replications\": [{}]\n    }}",
        jstr(&sr.scenario.label),
        scenario_axes_json(sr),
        sr.scenario.cfg.seed,
        metrics.join(", "),
        reps.join(", ")
    )
}

/// Full machine-readable campaign result: per-scenario axes, per-metric
/// mean/CI, and the headline per-replication series.
pub fn campaign_json(result: &CampaignResult) -> String {
    let scenarios: Vec<String> = result
        .scenarios
        .iter()
        .map(campaign_json_scenario)
        .collect();
    format!(
        "{}{}{}",
        campaign_json_open(&result.name, result.replications, result.scenarios.len()),
        scenarios.join(JSON_SCENARIO_SEP),
        CAMPAIGN_JSON_CLOSE
    )
}

/// The trace CSV header line (newline-terminated).
pub fn campaign_trace_header() -> String {
    crate::table::csv_line(
        &[
            "scenario",
            "t_s",
            "dir",
            "requests",
            "granted",
            "total_m",
            "objective_value",
            "optimal",
            "min_slack",
            "grants",
        ]
        .map(String::from),
    )
}

/// One scenario's trace CSV rows (each newline-terminated): one row per
/// scheduling round, with the grant vector compacted into a
/// `user:m|user:m` column. These are the bytes an [`Observation`] keeps.
pub fn campaign_trace_rows(label: &str, records: &[DecisionRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        let grants: Vec<String> = rec
            .users
            .iter()
            .zip(&rec.m)
            .filter(|(_, &m)| m > 0)
            .map(|(u, m)| format!("{u}:{m}"))
            .collect();
        let min_slack = rec.min_slack();
        out.push_str(&crate::table::csv_line(&[
            label.to_string(),
            format!("{}", rec.t_s),
            match rec.dir {
                LinkDir::Forward => "forward".into(),
                LinkDir::Reverse => "reverse".into(),
            },
            rec.users.len().to_string(),
            rec.granted().to_string(),
            rec.total_m().to_string(),
            format!("{}", rec.objective_value),
            rec.optimal.to_string(),
            if min_slack.is_finite() {
                format!("{min_slack}")
            } else {
                String::new()
            },
            grants.join("|"),
        ]));
    }
    out
}

/// Renders per-frame policy decisions (from any
/// [`crate::trace::DecisionLog`]) as the trace CSV: the header, then
/// [`campaign_trace_rows`] for every scenario in order.
pub fn campaign_trace_csv(traces: &[(String, Vec<DecisionRecord>)]) -> String {
    let mut out = campaign_trace_header();
    for (label, records) in traces {
        out.push_str(&campaign_trace_rows(label, records));
    }
    out
}

/// The trace CSV of a campaign's observations, in scenario order:
/// byte-identical to [`campaign_trace_csv`] over the same decisions.
pub fn observed_trace_csv(observations: &[Observation]) -> String {
    let mut out = campaign_trace_header();
    for obs in observations {
        out.push_str(&obs.trace_rows);
    }
    out
}

/// Opening fragment of the `BENCH_campaign.json` summary document.
pub fn campaign_summary_open(name: &str, n_scenarios: usize, replications: usize) -> String {
    format!(
        "{{\n  \"bench\": \"campaign\",\n  \"name\": {},\n  \"n_scenarios\": {n_scenarios},\n  \"replications\": {replications},\n  \"scenarios\": [\n",
        jstr(name)
    )
}

/// One scenario's flat summary object (no separators).
pub fn campaign_summary_scenario(sr: &ScenarioResult) -> String {
    let s = &sr.stats;
    format!(
        "    {{\"label\": {}, \"mean_delay_s\": {}, \"p95_delay_s\": {}, \"per_cell_throughput_kbps\": {}, \"mean_grant_m\": {}, \"denial_rate\": {}}}",
        jstr(&sr.scenario.label),
        jnum(s.mean_delay_s.mean()),
        jnum(s.p95_delay_s.mean()),
        jnum(s.per_cell_throughput_kbps.mean()),
        jnum(s.mean_grant_m.mean()),
        jnum(s.denial_rate.mean())
    )
}

/// Compact `BENCH_campaign.json`-style summary: one flat object per
/// scenario with the headline means, for CI trend tracking.
pub fn campaign_summary_json(result: &CampaignResult) -> String {
    let rows: Vec<String> = result
        .scenarios
        .iter()
        .map(campaign_summary_scenario)
        .collect();
    format!(
        "{}{}{}",
        campaign_summary_open(&result.name, result.scenarios.len(), result.replications),
        rows.join(JSON_SCENARIO_SEP),
        CAMPAIGN_JSON_CLOSE
    )
}

/// File names of a campaign's three artefacts, in the order CSV, JSON,
/// `BENCH_campaign.json` summary.
pub(crate) fn artefact_files(name: &str) -> [String; 3] {
    [
        format!("{name}.csv"),
        format!("{name}.json"),
        "BENCH_campaign.json".to_string(),
    ]
}

/// Writes a campaign's three artefact documents — CSV, JSON, and the
/// `BENCH_campaign.json` summary, in that order — into `dir`, creating it
/// if needed, and returns their paths. Each file lands through [`write_atomic`], so a kill mid-write
/// leaves either the previous artefact or the new one, never a torn file.
pub fn write_artefacts(dir: &Path, name: &str, docs: [&str; 3]) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    artefact_files(name)
        .iter()
        .zip(docs)
        .map(|(file, doc)| {
            let path = dir.join(file);
            write_atomic(&path, doc)?;
            Ok(path)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::runner::{run_campaign, RunOptions};
    use crate::campaign::spec::Scenario;
    use crate::config::SimConfig;

    fn tiny_result() -> CampaignResult {
        let mut base = SimConfig::baseline();
        base.n_voice = 6;
        base.n_data = 3;
        base.duration_s = 6.0;
        base.warmup_s = 1.0;
        let scenarios = vec![Scenario {
            label: "mix=balanced/policy=jaba-sd-j2".into(),
            axes: vec![
                ("mix".into(), "balanced".into()),
                ("policy".into(), "jaba-sd-j2".into()),
            ],
            cfg: base,
        }];
        let opts = RunOptions {
            shards: 1,
            ..RunOptions::default()
        };
        run_campaign("tiny", scenarios, 2, &opts).expect("valid campaign")
    }

    #[test]
    fn csv_has_axis_and_metric_columns() {
        let csv = campaign_csv(&tiny_result());
        let mut lines = csv.lines();
        let header = lines.next().expect("header line");
        assert!(header.starts_with("scenario,mix,policy,replications,mean_delay_s,"));
        assert!(header.contains("per_cell_throughput_kbps_ci95"));
        // The robustness campaigns key off the delivered-QoS column.
        assert!(header.contains("outage_rate,outage_rate_ci95"));
        let row = lines.next().expect("one data row");
        assert!(row.contains("balanced"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn json_is_structurally_sound() {
        let result = tiny_result();
        for text in [campaign_json(&result), campaign_summary_json(&result)] {
            // Balanced braces/brackets and no stray NaN tokens — the
            // emitters never depend on an external JSON library, so this
            // sanity check guards the hand-rolled encoding.
            assert_eq!(
                text.matches('{').count(),
                text.matches('}').count(),
                "unbalanced braces in {text}"
            );
            assert_eq!(text.matches('[').count(), text.matches(']').count());
            assert!(!text.contains("NaN") && !text.contains("inf"));
            assert!(text.contains("\"mean_delay_s\""));
        }
        assert!(campaign_json(&result).contains("\"axes\": {\"mix\": \"balanced\""));
        // Seeds are full-range u64 — they must be strings, not JSON
        // numbers, or double-based consumers round them.
        let seed = result.scenarios[0].scenario.cfg.seed;
        assert!(campaign_json(&result).contains(&format!("\"seed\": \"{seed}\"")));
        assert!(campaign_summary_json(&result).contains("\"bench\": \"campaign\""));
    }

    #[test]
    fn streamed_pieces_match_batch_emitters_byte_for_byte() {
        // The checkpoint service composes artefacts from these pieces one
        // scenario at a time; they must reproduce the batch emitters
        // exactly or resume could never be byte-identical.
        let result = tiny_result();
        let keys = axis_keys(result.scenarios.first().map(|sr| &sr.scenario));
        let mut csv = campaign_csv_header(&keys);
        let mut json =
            campaign_json_open(&result.name, result.replications, result.scenarios.len());
        let mut summary =
            campaign_summary_open(&result.name, result.scenarios.len(), result.replications);
        for (i, sr) in result.scenarios.iter().enumerate() {
            if i > 0 {
                json.push_str(JSON_SCENARIO_SEP);
                summary.push_str(JSON_SCENARIO_SEP);
            }
            csv.push_str(&campaign_csv_row(sr, &keys));
            json.push_str(&campaign_json_scenario(sr));
            summary.push_str(&campaign_summary_scenario(sr));
        }
        json.push_str(CAMPAIGN_JSON_CLOSE);
        summary.push_str(CAMPAIGN_JSON_CLOSE);
        assert_eq!(csv, campaign_csv(&result));
        assert_eq!(json, campaign_json(&result));
        assert_eq!(summary, campaign_summary_json(&result));
    }

    #[test]
    fn json_escapes_control_characters() {
        assert_eq!(jstr("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(jstr("\u{1}"), "\"\\u0001\"");
        assert_eq!(jnum(f64::NAN), "null");
        assert_eq!(jnum(1.5), "1.5");
    }
}
