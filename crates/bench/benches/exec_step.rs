//! Dense-grid chunking vs coalesced single-call execution at the
//! memory fixpoint — the mem-layer half of the chunk-coalescing win,
//! tracked independently of the engine.
//!
//! Each case advances a warm (fixpoint) workload by 10 ms of CPU:
//!
//! * `grid/…` replays the engine's dense chunk grid — one uncached
//!   `exec_step` call per 100 µs sub-step (100 calls);
//! * `coalesced/…` answers the same budget with one `exec_step` call
//!   given a hot [`aql_mem::RateCache`], which resolves it in O(1);
//! * `integrator/…` is the same single call without the rate cache —
//!   isolating the cache's contribution from plain call batching.
//!
//! `llcf` exercises the occupancy fixpoint (footprint resident in the
//! LLC), `lolcf` the L2-warmth fixpoint; `llco` never reaches a
//! fixpoint and pins the non-coalescible baseline (all three paths
//! must then cost the same — the cache may not slow the miss path).

use aql_mem::{exec_step, CacheSpec, LlcState, MemProfile, RateCache};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

const SPAN_NS: u64 = 10_000_000; // one 10 ms quiescent span
const GRID_NS: u64 = 100_000; // the engine's 100 µs sub-step

/// A warm state for `profile`: footprint filled, L2 saturated.
fn warm_state(profile: &MemProfile, spec: &CacheSpec) -> (LlcState, f64) {
    let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
    let mut warmth = 0.0;
    for _ in 0..300 {
        let _ = exec_step(profile, spec, &mut llc, 0, &mut warmth, 1_000_000, None);
    }
    (llc, warmth)
}

fn bench_exec_step(c: &mut Criterion) {
    let spec = CacheSpec::i7_3770();
    let cases = [
        ("llcf", MemProfile::llcf(&spec)),
        ("lolcf", MemProfile::lolcf(&spec)),
        ("llco", MemProfile::llco(&spec)),
    ];
    let mut group = c.benchmark_group("exec_step");
    group.sample_size(20);
    for (name, profile) in cases {
        let warm = warm_state(&profile, &spec);
        {
            let (llc0, w0) = warm.clone();
            group.bench_function(format!("grid/{name}"), move |b| {
                b.iter(|| {
                    let mut llc = llc0.clone();
                    let mut w = w0;
                    let mut total = 0.0;
                    for _ in 0..(SPAN_NS / GRID_NS) {
                        total += exec_step(&profile, &spec, &mut llc, 0, &mut w, GRID_NS, None)
                            .instructions;
                    }
                    black_box(total)
                })
            });
        }
        {
            let (llc0, w0) = warm.clone();
            group.bench_function(format!("coalesced/{name}"), move |b| {
                let mut cache = RateCache::new(1);
                b.iter(|| {
                    let mut llc = llc0.clone();
                    let mut w = w0;
                    let cache = Some(&mut cache);
                    black_box(
                        exec_step(&profile, &spec, &mut llc, 0, &mut w, SPAN_NS, cache)
                            .instructions,
                    )
                })
            });
        }
        {
            let (llc0, w0) = warm.clone();
            group.bench_function(format!("integrator/{name}"), move |b| {
                b.iter(|| {
                    let mut llc = llc0.clone();
                    let mut w = w0;
                    black_box(
                        exec_step(&profile, &spec, &mut llc, 0, &mut w, SPAN_NS, None).instructions,
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_exec_step);
criterion_main!(benches);
