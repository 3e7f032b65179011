//! Named campaigns shipped with the repository.
//!
//! These cover the paper's evaluation matrix and the experiment sweeps the
//! campaign layer ports from `experiments.rs`, so `wcdma campaign run`
//! reproduces them without a spec file.

use super::spec::{CsiQuality, MismatchLevel, ScenarioSpec, SpeedClass, TrafficMix};
use wcdma_admission::PolicyRegistry;
use wcdma_mac::LinkDir;

/// The built-in campaign names, in presentation order.
pub fn builtin_names() -> &'static [&'static str] {
    &[
        "paper-eval",
        "delay-vs-load",
        "speed-sweep",
        "policy-comparison",
        "hotspot-stress",
        "csi-robustness",
        "burst-stress",
        "model-mismatch",
    ]
}

/// Resolves a built-in campaign by name.
pub fn builtin(name: &str) -> Option<ScenarioSpec> {
    let mut spec = ScenarioSpec {
        name: name.to_string(),
        ..ScenarioSpec::default()
    };
    match name {
        "paper-eval" => {
            spec.description =
                "Paper evaluation matrix: 3 traffic mixes × 2 speed classes × 2 policies".into();
            spec.seed = 0x9A9E6;
            spec.replications = 3;
            spec.mixes = vec![
                TrafficMix::VoiceDominated,
                TrafficMix::Balanced,
                TrafficMix::HeavyWeb,
            ];
            spec.speeds = vec![SpeedClass::Pedestrian, SpeedClass::Vehicular];
            spec.policies = vec!["jaba-sd-j2".into(), "fcfs".into()];
        }
        "delay-vs-load" => {
            spec.description =
                "E1 port: mean burst delay vs offered load for the headline policies".into();
            spec.seed = 0xE1;
            spec.replications = 3;
            spec.loads = vec![4, 8, 16, 24];
            spec.policies = vec!["jaba-sd-j2".into(), "fcfs".into(), "equal-share".into()];
        }
        "speed-sweep" => {
            spec.description = "E11 port: pedestrian → urban → vehicular mobility".into();
            spec.seed = 0xE11;
            spec.replications = 3;
            spec.speeds = vec![
                SpeedClass::Pedestrian,
                SpeedClass::Urban,
                SpeedClass::Vehicular,
            ];
        }
        "policy-comparison" => {
            spec.description =
                "Every registry policy (paper set + adaptive-CAC additions) on the balanced \
                 baseline"
                    .into();
            spec.seed = 0x90_11C7;
            spec.replications = 3;
            spec.policies = PolicyRegistry::standard()
                .names()
                .into_iter()
                .map(|n| n.to_string())
                .collect();
        }
        "hotspot-stress" => {
            spec.description = "Centre-cell overload: uniform → 2× → 4× hotspot density".into();
            spec.seed = 0x407;
            spec.replications = 3;
            spec.hotspots = vec![1.0, 2.0, 4.0];
            spec.policies = vec!["jaba-sd-j2".into(), "fcfs".into()];
        }
        "csi-robustness" => {
            spec.description = "E10 port: scheduler CSI quality from ideal to degraded".into();
            spec.seed = 0xE10;
            spec.replications = 3;
            spec.csi = vec![
                CsiQuality::Ideal,
                CsiQuality::Noisy,
                CsiQuality::Delayed,
                CsiQuality::Degraded,
            ];
        }
        "burst-stress" => {
            spec.description = "Burst-heavy smoke: web-dominated traffic at rising data load — \
                 exercises the warm-started scheduling phase and the chunked \
                 delivery loop hard"
                .into();
            spec.seed = 0xB0257;
            spec.replications = 2;
            spec.mixes = vec![TrafficMix::HeavyWeb];
            spec.loads = vec![8, 16];
            spec.policies = vec!["jaba-sd-j2".into(), "equal-share".into()];
        }
        "model-mismatch" => {
            spec.description = "Robustness: eq.-24 region vs measurement-based admission when \
                 the assumed channel model is wrong (path-loss exponent, \
                 shadowing σ, CSI dropouts). Reverse-link heavy-web hotspot \
                 — the load point where the region's L_max contract binds"
                .into();
            spec.seed = 0x004D_4D10;
            spec.replications = 3;
            // The admissible region only has something to lose where it
            // operates near its interference limit: heavy web bursts, an
            // overloaded centre cell, all-reverse traffic (the link whose
            // eq. 13–15 projection carries the κ shadowing margin).
            spec.link = LinkDir::Reverse;
            spec.mixes = vec![TrafficMix::HeavyWeb];
            spec.loads = vec![32];
            spec.hotspots = vec![2.0];
            spec.mismatch = vec![
                MismatchLevel::None,
                MismatchLevel::Pathloss,
                MismatchLevel::Shadow,
                MismatchLevel::Combined,
            ];
            spec.csi = vec![CsiQuality::Ideal, CsiQuality::Degraded];
            spec.policies = vec![
                "jaba-sd-j2".into(),
                "measured-region".into(),
                "graceful-degradation".into(),
            ];
        }
        _ => return None,
    }
    Some(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_expands_and_round_trips() {
        for &name in builtin_names() {
            let spec = builtin(name).expect("registered builtin");
            assert_eq!(spec.name, name);
            assert!(!spec.description.is_empty());
            let scenarios = spec.expand().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(scenarios.len(), spec.n_scenarios());
            let reparsed = ScenarioSpec::parse(&spec.to_toml()).expect("toml round-trip");
            assert_eq!(reparsed, spec);
        }
        assert!(builtin("no-such-campaign").is_none());
    }

    #[test]
    fn policy_comparison_covers_the_open_registry() {
        let spec = builtin("policy-comparison").unwrap();
        for name in ["jaba-sd-j2", "weighted-fair-share", "threshold-reservation"] {
            assert!(
                spec.policies.iter().any(|p| p == name),
                "policy-comparison must include {name}: {:?}",
                spec.policies
            );
        }
    }

    #[test]
    fn model_mismatch_crosses_faults_with_measured_policies() {
        let spec = builtin("model-mismatch").unwrap();
        assert_eq!(spec.mismatch, MismatchLevel::ALL.to_vec());
        // Pinned to the operating point where the region's contract binds:
        // reverse link, heavy web bursts, hotspot centre cell.
        assert_eq!(spec.link, LinkDir::Reverse);
        assert_eq!(spec.mixes, vec![TrafficMix::HeavyWeb]);
        assert_eq!(spec.loads, vec![32]);
        assert_eq!(spec.hotspots, vec![2.0]);
        for name in ["jaba-sd-j2", "measured-region", "graceful-degradation"] {
            assert!(spec.policies.iter().any(|p| p == name), "missing {name}");
        }
        // 4 mismatch levels × 2 CSI qualities × 3 policies.
        assert_eq!(spec.n_scenarios(), 24);
        let scenarios = spec.expand().expect("expands");
        assert!(scenarios
            .iter()
            .any(|s| s.label.contains("mismatch=combined") && s.cfg.mismatch.csi_dropout_p > 0.0));
    }

    #[test]
    fn paper_eval_meets_the_acceptance_matrix() {
        let spec = builtin("paper-eval").unwrap();
        assert!(spec.mixes.len() >= 3);
        assert!(spec.speeds.len() >= 2);
        assert!(spec.policies.len() >= 2);
        assert!(spec.n_scenarios() >= 12);
    }
}
