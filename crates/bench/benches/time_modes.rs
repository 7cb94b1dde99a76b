//! Dense vs adaptive time-advance on catalog scenarios.
//!
//! Tracks the event-horizon core's speedup per regime: the light-load
//! entries (`solo-calibration`, `nightly-lull`) coalesce nearly every
//! span into one chunk per slot (expect order-of-magnitude multiples),
//! while the saturated entries are bounded by contended cache-model
//! execution, which never reaches the coalescible fixpoint (expect
//! roughly dense speed: both modes run the same integrator). Compare the `dense/…` and `adaptive/…` lines pairwise;
//! `benches/exec_step.rs` tracks the mem-layer half in isolation.

use aql_scenarios::{catalog, policy_for, run_seeded_in, TimeMode};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const SCENARIOS: [&str; 3] = ["solo-calibration", "nightly-lull", "quickstart"];

fn bench_time_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("time_modes");
    group.sample_size(10);
    for name in SCENARIOS {
        let spec = catalog::load(name).expect("catalog entry").quick();
        for (mode, label) in [(TimeMode::Dense, "dense"), (TimeMode::Adaptive, "adaptive")] {
            let spec = spec.clone();
            group.bench_function(format!("{label}/{name}"), move |b| {
                b.iter(|| {
                    let policy = policy_for(&spec, "xen-credit").expect("known policy");
                    black_box(run_seeded_in(&spec, policy, spec.seed, mode))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_time_modes);
criterion_main!(benches);
