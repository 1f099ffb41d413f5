//! Throughput bench: the sequential step pipeline, and the
//! node-range-sharded greedy-rounds executor across the
//! n ∈ {1k, 4k, 16k, 64k} × threads ∈ {1, 2, 4, 8} grid.
//!
//! Besides criterion's ns/iter output, every configuration's best
//! sample is appended to the persisted trajectory (`BENCH_pr3.json`,
//! see `lr_bench::trajectory`) as steps/sec, tagged with the CPU count
//! so single-core containers don't masquerade as scaling results.

use std::cell::Cell;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lr_bench::trajectory::{append_records, BenchRecord};
use lr_core::alg::{AlgorithmKind, FrontierPairHeightsEngine};
use lr_core::engine::{
    run_engine_frontier, run_engine_frontier_sharded, RunStats, SchedulePolicy, DEFAULT_MAX_STEPS,
};
use lr_graph::{generate, stream, CsrInstance};

/// Capped prefix for the parallel grid: throughput needs steps, not
/// termination.
const PARALLEL_STEP_BUDGET: usize = 2_000_000;

fn make_record(
    series: &str,
    alg: &str,
    family: &str,
    n: usize,
    threads: usize,
    steps: usize,
    ns: u64,
) -> BenchRecord {
    BenchRecord {
        bench: "bench_throughput".into(),
        series: series.into(),
        algorithm: alg.into(),
        family: family.into(),
        n,
        threads,
        cpus: BenchRecord::available_cpus(),
        steps,
        elapsed_ns: ns,
        steps_per_sec: BenchRecord::throughput(steps, ns),
        smoke: lr_bench::smoke_mode(),
    }
}

/// Runs `run` once under self-timing, keeping the best sample in the
/// cells (the criterion stub drives the closure repeatedly).
fn timed<F: FnOnce() -> RunStats>(best_ns: &Cell<u64>, steps: &Cell<usize>, run: F) -> usize {
    let start = Instant::now();
    let stats = run();
    let ns = start.elapsed().as_nanos() as u64;
    if ns < best_ns.get() {
        best_ns.set(ns);
        steps.set(stats.steps);
    }
    stats.steps
}

fn bench_seq_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput/seq_pipeline");
    let n = if lr_bench::smoke_mode() { 256 } else { 4096 };
    let inst = stream::alternating_chain(n + 1);
    let mut records = Vec::new();
    for kind in [AlgorithmKind::PartialReversal, AlgorithmKind::TripleHeights] {
        let alg = kind.name();
        let series = "seq_zero_alloc";
        let best_ns = Cell::new(u64::MAX);
        let steps = Cell::new(0usize);
        group.bench_with_input(
            BenchmarkId::new(format!("{alg}/{series}"), n),
            &inst,
            |b, inst| {
                b.iter(|| {
                    timed(&best_ns, &steps, || {
                        let mut e = kind.frontier_engine(inst.clone());
                        let stats = run_engine_frontier(
                            e.as_mut(),
                            SchedulePolicy::GreedyRounds,
                            DEFAULT_MAX_STEPS,
                        );
                        assert!(stats.terminated);
                        stats
                    })
                })
            },
        );
        records.push(make_record(
            series,
            alg,
            "alternating_chain",
            n,
            1,
            steps.get(),
            best_ns.get(),
        ));
    }
    group.finish();
    if let Err(e) = append_records(&records) {
        eprintln!("warning: could not persist trajectory: {e}");
    }
}

fn bench_parallel_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput/parallel_rounds");
    let sizes: &[usize] = if lr_bench::smoke_mode() {
        &[1024]
    } else {
        &[1024, 4096, 16384, 65536]
    };
    let thread_counts: &[usize] = if lr_bench::smoke_mode() {
        &[1, 2]
    } else {
        &[1, 2, 4, 8]
    };
    let mut records = Vec::new();
    for &n in sizes {
        // Full reversal via pair heights on the bipartite family: rounds
        // stay ~n/2 wide and the plan phase carries the O(Δ) height max.
        let inst = CsrInstance::from_instance(&generate::bipartite_away(n / 2, 8.min(n / 2), 1));
        for &threads in thread_counts {
            let best_ns = Cell::new(u64::MAX);
            let steps = Cell::new(0usize);
            group.bench_with_input(
                BenchmarkId::new(format!("GB-pair/t{threads}"), n),
                &inst,
                |b, inst| {
                    b.iter(|| {
                        timed(&best_ns, &steps, || {
                            let mut e = FrontierPairHeightsEngine::new(inst.clone());
                            run_engine_frontier_sharded(&mut e, threads, PARALLEL_STEP_BUDGET)
                        })
                    })
                },
            );
            records.push(make_record(
                "parallel",
                "GB-pair",
                "bipartite_away",
                n,
                threads,
                steps.get(),
                best_ns.get(),
            ));
        }
    }
    group.finish();
    if let Err(e) = append_records(&records) {
        eprintln!("warning: could not persist trajectory: {e}");
    }
}

criterion_group!(benches, bench_seq_pipeline, bench_parallel_rounds);
criterion_main!(benches);
