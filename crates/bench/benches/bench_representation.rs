//! Ablation bench: state-representation cost.
//!
//! `ablation/representation` — the paper's mirrored `dir[u,v]` slots +
//! per-slot list bits (FrontierPrEngine) versus the compact
//! Gafni–Bertsekas triple heights (FrontierTripleHeightsEngine) versus
//! labeled links (FrontierBllEngine), all computing the same executions
//! through the run loop, at n ∈ {64, 256, 1024, 4096}.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lr_core::alg::{
    BllLabeling, FrontierBllEngine, FrontierPrEngine, FrontierTripleHeightsEngine, ReversalEngine,
};
use lr_core::engine::{run_engine_frontier, SchedulePolicy, DEFAULT_MAX_STEPS};
use lr_graph::stream;

fn run_all(engine: &mut dyn ReversalEngine) -> usize {
    let stats = run_engine_frontier(engine, SchedulePolicy::FirstSingle, DEFAULT_MAX_STEPS);
    assert!(stats.terminated, "bench instance must terminate");
    stats.steps
}

fn bench_representations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/representation");
    for n in [64usize, 256, 1024, 4096] {
        let inst = stream::alternating_chain(n + 1);
        group.bench_with_input(
            BenchmarkId::new("mirrored_dirs_lists", n),
            &inst,
            |b, inst| {
                b.iter(|| {
                    let mut e = FrontierPrEngine::new(inst.clone());
                    run_all(&mut e)
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("triple_heights", n), &inst, |b, inst| {
            b.iter(|| {
                let mut e = FrontierTripleHeightsEngine::new(inst.clone());
                run_all(&mut e)
            })
        });
        group.bench_with_input(
            BenchmarkId::new("binary_link_labels", n),
            &inst,
            |b, inst| {
                b.iter(|| {
                    let mut e = FrontierBllEngine::new(inst.clone(), BllLabeling::PartialReversal);
                    run_all(&mut e)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_representations);
criterion_main!(benches);
