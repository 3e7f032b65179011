//! F3 — Figure 3 content: MAC states and the delay-penalty function.
//!
//! Times MAC state-machine updates and the J2 grant weight, whose curve
//! jumps at the MAC time-outs of the setup delay D_s(t_w) (eq. 21–23).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wcdma_admission::Objective;
use wcdma_mac::{MacStateMachine, MacTimers};

fn bench(c: &mut Criterion) {
    let timers = MacTimers::default_timers();
    let j2 = Objective::j2_default();

    c.bench_function("f3/state_machine_tick", |b| {
        let mut m = MacStateMachine::new(timers);
        b.iter(|| {
            m.tick(black_box(0.02));
            if m.idle_time() > 4.0 {
                m.on_burst();
                m.on_burst_end();
            }
        })
    });
    c.bench_function("f3/j2_weight", |b| {
        let mut w = 0.0;
        b.iter(|| {
            w = (w + 0.013) % 6.0;
            j2.weight(black_box(1.2), 0.0, black_box(w), &timers)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench
}
criterion_main!(benches);
