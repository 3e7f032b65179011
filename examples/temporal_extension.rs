//! The temporal scheduling dimension (JABA-STD) — the extension the paper
//! defers ("we focus on the spatial dimension only"). A hand-built snapshot
//! where deferring a burst start admits more total value than any
//! spatial-only schedule; `examples/full_evaluation.rs` (E9) measures the
//! gain on random snapshots.
//!
//! ```text
//! cargo run --release --example temporal_extension
//! ```

use wcdma::admission::{
    spatial_only_value, temporal_exhaustive, Region, TemporalConfig, TemporalRequest,
};
use wcdma::geo::CellId;

fn main() {
    let cfg = TemporalConfig::default_config();

    // Hand-built illustration: one congested cell, two short bursts that
    // cannot run together but fit back-to-back.
    println!("Illustration: two bursts, shared budget 1.0, each needs 1.0");
    let region = Region {
        a: vec![1.0, 1.0],
        b: vec![1.0],
        cells: vec![CellId(0)],
    };
    let reqs = vec![
        TemporalRequest {
            weight: 5.0,
            delta_beta: 1.0,
            size_bits: 192.0,
            lo: 1,
            hi: 1,
        },
        TemporalRequest {
            weight: 4.9,
            delta_beta: 1.0,
            size_bits: 192.0,
            lo: 1,
            hi: 1,
        },
    ];
    let spatial = spatial_only_value(&region, &reqs, &cfg);
    let temporal = temporal_exhaustive(&region, &reqs, &cfg);
    println!("  spatial-only value : {spatial:.3}  (one burst admitted)");
    println!(
        "  temporal value     : {:.3}  (both, staggered: {:?})",
        temporal.value, temporal.placements
    );
}
