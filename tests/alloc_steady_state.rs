//! Verifies the zero-allocation steady-state invariant of the frame
//! pipeline with a counting global allocator.
//!
//! Allocation is permitted only on event edges — a request entering the
//! queue, a grant extending the active-burst list, or a scheduling-round
//! ILP solve. Quiet frames (mobility + network update + CSI + traffic tick
//! + bit delivery on already-active bursts) must not touch the allocator.
//!
//! This file is its own test binary because it installs a process-global
//! allocator; the scenarios run inside one `#[test]` so no concurrent
//! test thread can perturb the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use wcdma::admission::{AdmissionPolicy, JabaSd, RequestState, Scheduler, SchedulerConfig};
use wcdma::ilp::BbWorkspace;
use wcdma::mac::LinkDir;
use wcdma::sim::{SimConfig, Simulation};

mod common;
#[path = "../crates/ilp/tests/fixtures/mod.rs"]
mod fixtures;

struct CountingAlloc;

// Per-thread counter: the libtest harness allocates concurrently on its own
// threads, so a process-global count would be flaky. A const-initialised
// `Cell` has no destructor and no lazy-init allocation, so touching it from
// inside the allocator cannot recurse.
std::thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// Process-wide counter for the *parallel* frame pipeline: frame-pool
// workers allocate (or must not) on their own threads, invisible to the
// main thread's thread-local count. Gated by a flag so it only observes
// the windows the test opens — with one `#[test]` in this binary, no
// foreign thread allocates inside those windows.
static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);
static TRACK_GLOBAL: AtomicBool = AtomicBool::new(false);

fn bump() {
    ALLOCS.with(|c| c.set(c.get() + 1));
    if TRACK_GLOBAL.load(Ordering::Relaxed) {
        GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

#[test]
fn steady_state_frames_do_not_allocate() {
    // Scenario A: traffic silenced (think time ≫ run length) — every
    // post-warmup frame is quiet and must allocate nothing at all.
    let mut cfg = SimConfig::baseline();
    cfg.n_voice = 30;
    cfg.n_data = 6;
    cfg.traffic.mean_reading_s = 1e9;
    cfg.seed = 0xA110C;
    let mut sim = Simulation::new(cfg);
    for _ in 0..60 {
        sim.step_frame(); // warm-up: scratch capacities settle
    }
    let before = allocs();
    for _ in 0..100 {
        sim.step_frame();
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "quiet steady-state frames must not allocate"
    );

    // Scenario B: live baseline traffic — frames without a queue event or
    // an active-burst change (covers frames that *deliver* bits on running
    // bursts through the borrowed measurement views) must not allocate.
    let mut cfg = SimConfig::baseline();
    cfg.n_voice = 30;
    cfg.n_data = 8;
    cfg.seed = 0xA110D;
    let mut sim = Simulation::new(cfg);
    for _ in 0..250 {
        sim.step_frame();
    }
    let mut quiet_frames = 0u32;
    let mut delivering_frames = 0u32;
    for _ in 0..500 {
        let pending_before = sim.pending_requests();
        let active_before = sim.active_bursts();
        let completed_before = sim.bursts_completed();
        let before = allocs();
        sim.step_frame();
        let after = allocs();
        // Event-free: no request queued or granted, no burst completed (a
        // completion paired with a same-frame grant leaves the active count
        // unchanged but still runs an allocating scheduling round).
        let quiet = pending_before == 0
            && sim.pending_requests() == 0
            && sim.active_bursts() == active_before
            && sim.bursts_completed() == completed_before;
        if quiet {
            quiet_frames += 1;
            if active_before > 0 {
                delivering_frames += 1;
            }
            assert_eq!(
                after - before,
                0,
                "event-free frame allocated (active bursts: {active_before})"
            );
        }
    }
    assert!(
        quiet_frames > 100,
        "baseline must have plenty of event-free frames: {quiet_frames}"
    );
    assert!(
        delivering_frames > 0,
        "expected event-free frames with bursts in flight"
    );

    // Scenario C: the *parallel* frame pipeline (frame_threads > 1) —
    // traffic silenced as in scenario A, but every quiet frame now runs
    // the chunked mobility and network loops on the frame pool.
    // Counted process-wide so allocations on worker threads are seen:
    // the pool hand-off and the per-chunk scratch must be allocation-free
    // in steady state too. The population must exceed the 256-mobile
    // chunk size, or `FramePool::run` takes its single-chunk inline
    // shortcut and the workers (and the epoch hand-off) never execute.
    let mut cfg = SimConfig::baseline();
    cfg.n_voice = 560;
    cfg.n_data = 40;
    cfg.traffic.mean_reading_s = 1e9;
    cfg.seed = 0xA110E;
    cfg.frame_threads = 3;
    let mut sim = Simulation::new(cfg);
    for _ in 0..60 {
        sim.step_frame(); // warm-up: scratch + pool settle
    }
    GLOBAL_ALLOCS.store(0, Ordering::SeqCst);
    TRACK_GLOBAL.store(true, Ordering::SeqCst);
    for _ in 0..100 {
        sim.step_frame();
    }
    TRACK_GLOBAL.store(false, Ordering::SeqCst);
    assert_eq!(
        GLOBAL_ALLOCS.load(Ordering::SeqCst),
        0,
        "quiet steady-state frames must not allocate on any frame-pool thread"
    );

    // Scenario F: per-link state sized by candidates. A culled network
    // (19 cells, K = 4, re-examined every other frame) whose mobiles move
    // at vehicular speed, so candidate rows change and links are parked
    // and resumed, on the parallel pipeline with traffic silenced. A
    // mobile's parked list never shrinks at a fixed K, so a frame that
    // leaves the network's parked-link count unchanged grew no list: it
    // must not allocate on any thread, even when it re-selects rows.
    let mut cfg = SimConfig::baseline()
        .with_speed_kmh(120.0)
        .with_candidates(4, 2);
    cfg.rings = 2;
    cfg.n_voice = 560;
    cfg.n_data = 40;
    cfg.traffic.mean_reading_s = 1e9;
    cfg.seed = 0xA1110;
    cfg.frame_threads = 2;
    let mut sim = Simulation::new(cfg);
    for _ in 0..60 {
        sim.step_frame(); // warm-up: scratch + pool settle
    }
    let (mut still_frames, mut selecting_still_frames) = (0u32, 0u32);
    let resumed_before_window = sim.network().link_resumptions();
    for _ in 0..200 {
        let parked_before = sim.network().parked_links();
        let selected_before = sim.network().candidate_selections();
        GLOBAL_ALLOCS.store(0, Ordering::SeqCst);
        TRACK_GLOBAL.store(true, Ordering::SeqCst);
        sim.step_frame();
        TRACK_GLOBAL.store(false, Ordering::SeqCst);
        if sim.network().parked_links() == parked_before {
            still_frames += 1;
            if sim.network().candidate_selections() > selected_before {
                selecting_still_frames += 1;
            }
            assert_eq!(
                GLOBAL_ALLOCS.load(Ordering::SeqCst),
                0,
                "a frame that grew no parked list allocated"
            );
        }
    }
    assert!(
        still_frames > 100,
        "most frames park nothing new: {still_frames}"
    );
    assert!(
        selecting_still_frames > 0,
        "expected frames that re-select candidate rows without growing a parked list"
    );
    assert!(
        sim.network().link_resumptions() > resumed_before_window,
        "parked links must resume inside the measured window"
    );

    // Scenario D: the scheduling phase proper. A warm Scheduler round —
    // region rebuild, δβ̄/bounds, the full JABA-SD branch-and-bound solve,
    // outcome build — must be allocation-free once the persistent
    // per-direction workspaces have seen the problem shape. Waiting times
    // advance every round, as they do in the engine.
    let net = common::warm_network(12, 6, 0xA110F, 25);
    let mut scheduler = Scheduler::new(
        SchedulerConfig::default_config(),
        JabaSd::default_j2().into_boxed(),
    );
    let mut requests: Vec<RequestState> = net
        .data_mobiles()
        .iter()
        .map(|&j| RequestState {
            meas: net.measurement_view(j),
            size_bits: 250_000.0,
            waiting_s: 0.0,
            priority: 0.0,
        })
        .collect();
    for round in 0..10 {
        // Warm-up: workspace capacities settle (both directions).
        for r in requests.iter_mut() {
            r.waiting_s = round as f64 * 0.02;
        }
        scheduler.schedule(
            LinkDir::Forward,
            net.forward_load_w(),
            net.reverse_load_w(),
            &requests,
        );
        scheduler.schedule(
            LinkDir::Reverse,
            net.forward_load_w(),
            net.reverse_load_w(),
            &requests,
        );
    }
    let stats_before = scheduler.stats();
    let before = allocs();
    for round in 10..110 {
        for r in requests.iter_mut() {
            r.waiting_s = round as f64 * 0.02;
        }
        scheduler.schedule(
            LinkDir::Forward,
            net.forward_load_w(),
            net.reverse_load_w(),
            &requests,
        );
        scheduler.schedule(
            LinkDir::Reverse,
            net.forward_load_w(),
            net.reverse_load_w(),
            &requests,
        );
        // An unchanged repeat is a full solve too and must not allocate.
        scheduler.schedule(
            LinkDir::Forward,
            net.forward_load_w(),
            net.reverse_load_w(),
            &requests,
        );
    }
    let after = allocs();
    let stats = scheduler.stats();
    assert_eq!(
        after - before,
        0,
        "warm scheduling rounds must not allocate"
    );
    assert_eq!(
        stats.solves - stats_before.solves,
        300,
        "every one of the 300 rounds, repeats included, is a full solve: {stats:?}"
    );

    // Scenario E: the LP-dual bounds of the branch and bound. The recorded
    // rounds that once stopped at JABA-SD's node cap cannot be proven
    // without them; a second pass over the same rounds in one warm
    // workspace — root LPs, node LPs, and their tableau included — must
    // not allocate.
    let rounds = fixtures::capped_rounds();
    let mut ws = BbWorkspace::new();
    for round in &rounds {
        let (sol, complete) = ws.solve(&round.problem, 200_000);
        assert!(complete && sol.objective >= round.capped, "{}", round.label);
    }
    let lp_before = ws.lp_solves();
    let before = allocs();
    for round in &rounds {
        let _ = ws.solve(&round.problem, 200_000);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "warm LP-bounded branch and bound must not allocate"
    );
    assert!(
        ws.lp_solves() > lp_before,
        "the second pass must reach the LP bounds"
    );
}
