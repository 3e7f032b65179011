//! The canonical-order contract, pinned by value: the per-cell forward and
//! reverse load streams of a fixed scenario must reproduce a committed
//! FNV-1a hash bit for bit. This is the one *stored* fixture of the
//! determinism contract (`docs/DETERMINISM.md`) — every other determinism
//! test compares two runs against each other and would silently accept a
//! global change in summation order; this one cannot.
//!
//! The hash must hold
//!
//! - on every ISA (CI also runs this test under
//!   `-C target-cpu=x86-64-v3`), pinning the kernels' ISA independence at
//!   the network level rather than just per kernel, and
//! - for every `frame_threads` value, pinning the chunk-order load fold.
//!
//! When a PR deliberately changes the canonical summation order, bump
//! `CANONICAL_ORDER_VERSION`, regenerate `GOLDEN_LOAD_HASH` (run the test,
//! paste the value from the failure message), and add a version section to
//! `docs/DETERMINISM.md` — CI cross-checks the constant against that file.

use wcdma::math::CANONICAL_ORDER_VERSION;
use wcdma::sim::{SimConfig, Simulation};

/// The committed fixture: FNV-1a over the load streams of [`scenario`] for
/// canonical order v2 (4-lane kernels, lane-order folds, candidate lists).
const GOLDEN_LOAD_HASH: u64 = 0xa4a6_38f3_4b25_0e1f;

/// Frames hashed per run — enough for active sets, hand-offs, power
/// control, and several candidate-refresh cycles to all leave their mark.
const FRAMES: usize = 120;

/// The pinned scenario. Any change here invalidates the golden hash, so
/// it sticks to baseline physics with a population large enough to touch
/// every cell and both traffic types.
fn scenario() -> SimConfig {
    let mut c = SimConfig::baseline();
    c.n_voice = 180;
    c.n_data = 20;
    c.seed = 0x0D0E;
    c
}

/// FNV-1a, folded over the little-endian bytes of each `u64`.
fn fnv1a_u64(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

/// Steps the pinned scenario and hashes every per-cell forward and reverse
/// load value (their raw IEEE bits) after every frame.
fn load_hash(frame_threads: usize) -> u64 {
    let mut sim = Simulation::new(scenario().with_frame_threads(frame_threads));
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for _ in 0..FRAMES {
        sim.step_frame();
        let net = sim.network();
        for &w in net.forward_load_w() {
            fnv1a_u64(&mut hash, w.to_bits());
        }
        for &w in net.reverse_load_w() {
            fnv1a_u64(&mut hash, w.to_bits());
        }
    }
    hash
}

/// The version constant this fixture was generated for. A failure here
/// means the canonical order moved without regenerating the fixture —
/// follow the bump procedure in `docs/DETERMINISM.md`.
#[test]
fn golden_hash_targets_the_current_canonical_order_version() {
    assert_eq!(CANONICAL_ORDER_VERSION, 2, "regenerate GOLDEN_LOAD_HASH");
}

/// The committed fixture itself, on whichever ISA this binary was
/// compiled for.
#[test]
fn load_stream_reproduces_committed_golden_hash() {
    let hash = load_hash(1);
    assert_eq!(
        hash, GOLDEN_LOAD_HASH,
        "canonical order drifted: load stream hashed to {hash:#018x}; if the change is \
         deliberate, bump CANONICAL_ORDER_VERSION and regenerate (docs/DETERMINISM.md)"
    );
}

/// The chunk-order fold: the same hash for every thread count.
#[test]
fn load_stream_hash_is_frame_thread_invariant() {
    for threads in [2, 4] {
        assert_eq!(
            load_hash(threads),
            GOLDEN_LOAD_HASH,
            "load stream must be bit-identical at {threads} frame threads"
        );
    }
}
