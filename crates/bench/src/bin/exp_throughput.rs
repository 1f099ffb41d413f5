//! Throughput of the step pipeline: steps/sec for the sequential
//! zero-allocation path, for the node-range-sharded greedy-rounds
//! executor across thread counts, for the PR engine on the scale
//! families (with resident representation cost — bytes/node and
//! bytes/half-edge — per row), for every algorithm family's engine, and
//! for the observability layer's overhead (the same run with `lr-obs`
//! off vs recording).
//!
//! Every measurement is appended to a machine-readable trajectory at
//! the repo root (see `lr_bench::trajectory`): the step-pipeline and
//! parallel rows to `BENCH_pr3.json`, the frontier/representation rows
//! to `BENCH_pr7.json`, the per-family frontier rows to
//! `BENCH_pr8.json`, the obs-overhead rows to `BENCH_pr9.json`, in
//! addition to the stdout table and `results/exp_throughput.json`.
//! Rows recorded before the map-backed engines were retired also carry
//! `seq_alloc` / `map_engine` series; `--verify` still parses them. The
//! `seq_zero_alloc` and `parallel` names span that change: the first
//! 122 `BENCH_pr3.json` rows time the map engines (`parallel` sharded by
//! snapshot chunks), later rows the frontier engines (sharded by node
//! range).
//!
//! ```sh
//! cargo run --release -p lr-bench --bin exp_throughput             # measure
//! cargo run --release -p lr-bench --bin exp_throughput -- --verify # parse gate
//! LR_BENCH_SMOKE=1 cargo run --release -p lr-bench --bin exp_throughput
//! ```
//!
//! `--verify` parses every trajectory with the vendored `serde_json`
//! and exits non-zero if any is malformed — the CI gate that keeps the
//! persisted trajectories readable. It additionally bounds the PR 9
//! obs-off rows against their `BENCH_pr8.json` frontier baselines
//! (disabled instrumentation may cost the hot loop at most 3%) and
//! sanity-gates the PR 10 `BENCH_pr10.json` serve rows (admission
//! accounting and quantile ordering; the rows themselves come from
//! `lr serve` — `lr-scenario` depends on `lr-bench`, so the serve loop
//! cannot run from this binary without a package cycle).

use std::process::ExitCode;
use std::time::Instant;

use lr_bench::trajectory::{
    append_records, append_records_to, load_records, load_records_from, trajectory_path_named,
    BenchRecord, FrontierRecord, ModelCheckRecord, ObsOverheadRecord, ScenarioRecord, ServeRecord,
    SweepRecord, FRONTIER_FAMILY_TRAJECTORY, FRONTIER_TRAJECTORY, MODEL_CHECK_TRAJECTORY,
    OBS_TRAJECTORY, SCENARIO_TRAJECTORY, SERVE_TRAJECTORY, SWEEP_TRAJECTORY,
};
use lr_core::alg::{AlgorithmKind, FrontierFamily, FrontierPrEngine, FrontierTripleHeightsEngine};
use lr_core::engine::{
    run_engine_frontier, run_engine_frontier_sharded, RunStats, SchedulePolicy, DEFAULT_MAX_STEPS,
};
use lr_graph::{generate, stream, CsrInstance};
use lr_obs::{ObsMode, ObsSession};
use serde::Serialize;

/// Step budget for the parallel sweep: large instances are measured on a
/// capped prefix of the execution (throughput needs steps, not
/// termination).
const PARALLEL_STEP_BUDGET: usize = 2_000_000;

#[derive(Serialize)]
struct Row {
    series: String,
    algorithm: String,
    n: usize,
    threads: usize,
    steps: usize,
    elapsed_ns: u64,
    steps_per_sec: f64,
}

/// Times `run` over fresh engines, returning the best wall-clock sample
/// (1 sample in smoke mode).
fn best_of<F: FnMut() -> RunStats>(samples: usize, mut run: F) -> (RunStats, u64) {
    let samples = if lr_bench::smoke_mode() { 1 } else { samples };
    let mut best: Option<(RunStats, u64)> = None;
    for _ in 0..samples {
        let start = Instant::now();
        let stats = run();
        let ns = start.elapsed().as_nanos() as u64;
        if best.as_ref().is_none_or(|(_, b)| ns < *b) {
            best = Some((stats, ns));
        }
    }
    best.expect("at least one sample")
}

#[allow(clippy::too_many_arguments)]
fn record(
    rows: &mut Vec<Row>,
    out: &mut Vec<BenchRecord>,
    series: &str,
    alg: &str,
    family: &str,
    n: usize,
    threads: usize,
    stats: &RunStats,
    ns: u64,
) {
    let sps = BenchRecord::throughput(stats.steps, ns);
    rows.push(Row {
        series: series.into(),
        algorithm: alg.into(),
        n,
        threads,
        steps: stats.steps,
        elapsed_ns: ns,
        steps_per_sec: sps,
    });
    out.push(BenchRecord {
        bench: "exp_throughput".into(),
        series: series.into(),
        algorithm: alg.into(),
        family: family.into(),
        n,
        threads,
        cpus: BenchRecord::available_cpus(),
        steps: stats.steps,
        elapsed_ns: ns,
        steps_per_sec: sps,
        smoke: lr_bench::smoke_mode(),
    });
}

fn fmt_sps(sps: f64) -> String {
    if sps >= 1e6 {
        format!("{:.2} M/s", sps / 1e6)
    } else {
        format!("{:.1} k/s", sps / 1e3)
    }
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--verify") {
        // Parse gate over every persisted trajectory: the PR 3
        // throughput rows, the PR 4 scenario rows, the PR 5 sweep
        // summaries, the PR 6 model-check rows, the PR 7
        // frontier/representation rows, the PR 8 per-family
        // map-vs-frontier rows, and the PR 9 observability-overhead
        // rows all have to keep parsing with the vendored serde_json.
        // The PR 9 rows additionally gate on the "disabled tracing is
        // free" bound: see `verify_obs_overhead`.
        let mut ok = true;
        match load_records() {
            Ok(records) => println!(
                "BENCH_pr3.json OK: {} record(s) parse with the vendored serde_json",
                records.len()
            ),
            Err(e) => {
                eprintln!("BENCH_pr3.json FAILED to parse: {e}");
                ok = false;
            }
        }
        let scenario_path = trajectory_path_named(SCENARIO_TRAJECTORY);
        match load_records_from::<ScenarioRecord>(&scenario_path) {
            Ok(records) => println!(
                "{SCENARIO_TRAJECTORY} OK: {} record(s) parse with the vendored serde_json",
                records.len()
            ),
            Err(e) => {
                eprintln!("{SCENARIO_TRAJECTORY} FAILED to parse: {e}");
                ok = false;
            }
        }
        let sweep_path = trajectory_path_named(SWEEP_TRAJECTORY);
        match load_records_from::<SweepRecord>(&sweep_path) {
            Ok(records) => println!(
                "{SWEEP_TRAJECTORY} OK: {} record(s) parse with the vendored serde_json",
                records.len()
            ),
            Err(e) => {
                eprintln!("{SWEEP_TRAJECTORY} FAILED to parse: {e}");
                ok = false;
            }
        }
        let mc_path = trajectory_path_named(MODEL_CHECK_TRAJECTORY);
        match load_records_from::<ModelCheckRecord>(&mc_path) {
            Ok(records) => println!(
                "{MODEL_CHECK_TRAJECTORY} OK: {} record(s) parse with the vendored serde_json",
                records.len()
            ),
            Err(e) => {
                eprintln!("{MODEL_CHECK_TRAJECTORY} FAILED to parse: {e}");
                ok = false;
            }
        }
        let frontier_path = trajectory_path_named(FRONTIER_TRAJECTORY);
        match load_records_from::<FrontierRecord>(&frontier_path) {
            Ok(records) => println!(
                "{FRONTIER_TRAJECTORY} OK: {} record(s) parse with the vendored serde_json",
                records.len()
            ),
            Err(e) => {
                eprintln!("{FRONTIER_TRAJECTORY} FAILED to parse: {e}");
                ok = false;
            }
        }
        let family_path = trajectory_path_named(FRONTIER_FAMILY_TRAJECTORY);
        let pr8_rows = match load_records_from::<FrontierRecord>(&family_path) {
            Ok(records) => {
                println!(
                    "{FRONTIER_FAMILY_TRAJECTORY} OK: {} record(s) parse with the vendored serde_json",
                    records.len()
                );
                records
            }
            Err(e) => {
                eprintln!("{FRONTIER_FAMILY_TRAJECTORY} FAILED to parse: {e}");
                ok = false;
                Vec::new()
            }
        };
        let obs_path = trajectory_path_named(OBS_TRAJECTORY);
        match load_records_from::<ObsOverheadRecord>(&obs_path) {
            Ok(records) => {
                println!(
                    "{OBS_TRAJECTORY} OK: {} record(s) parse with the vendored serde_json",
                    records.len()
                );
                if !verify_obs_overhead(&records, &pr8_rows) {
                    ok = false;
                }
            }
            Err(e) => {
                eprintln!("{OBS_TRAJECTORY} FAILED to parse: {e}");
                ok = false;
            }
        }
        let serve_path = trajectory_path_named(SERVE_TRAJECTORY);
        match load_records_from::<ServeRecord>(&serve_path) {
            Ok(records) => {
                println!(
                    "{SERVE_TRAJECTORY} OK: {} record(s) parse with the vendored serde_json",
                    records.len()
                );
                if !verify_serve_rows(&records) {
                    ok = false;
                }
            }
            Err(e) => {
                eprintln!("{SERVE_TRAJECTORY} FAILED to parse: {e}");
                ok = false;
            }
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let smoke = lr_bench::smoke_mode();
    let cpus = BenchRecord::available_cpus();
    println!(
        "available CPUs: {cpus}{}",
        if cpus == 1 {
            " — thread counts above 1 measure executor overhead, not speedup"
        } else {
            ""
        }
    );
    println!();
    let mut rows: Vec<Row> = Vec::new();
    let mut records: Vec<BenchRecord> = Vec::new();

    // ── Series 1: sequential zero-allocation pipeline ──
    // Greedy rounds on the alternating chain — the Θ(n_b²) workload of
    // `BENCH_pr3.json` series (~4.2 M steps at n = 4096).
    println!("sequential step pipeline (alternating chain, greedy rounds)\n");
    let widths = [10usize, 8, 12, 14];
    lr_bench::print_header(&widths, &["algorithm", "n", "steps", "steps/sec"]);
    let seq_sizes: &[usize] = if smoke { &[256] } else { &[1024, 4096] };
    for &n in seq_sizes {
        let inst = stream::alternating_chain(n + 1);
        for kind in [AlgorithmKind::PartialReversal, AlgorithmKind::TripleHeights] {
            let (stats, ns) = best_of(3, || {
                let mut e = kind.frontier_engine(inst.clone());
                let stats = run_engine_frontier(
                    e.as_mut(),
                    SchedulePolicy::GreedyRounds,
                    DEFAULT_MAX_STEPS,
                );
                assert!(stats.terminated);
                stats
            });
            lr_bench::print_row(
                &widths,
                &[
                    kind.name().to_string(),
                    n.to_string(),
                    stats.steps.to_string(),
                    fmt_sps(BenchRecord::throughput(stats.steps, ns)),
                ],
            );
            record(
                &mut rows,
                &mut records,
                "seq_zero_alloc",
                kind.name(),
                "alternating_chain",
                n,
                1,
                &stats,
                ns,
            );
        }
    }

    // ── Series 2: parallel greedy rounds across thread counts ──
    // GB-triple (the heights formulation of PR) keeps the O(Δ) height
    // computation in the plan phase, which is what the node-range-sharded
    // workers fan out.
    // The bipartite ping-pong family keeps every round ~n/2 wide with
    // tunable degree, so the plan phase carries real per-step work. Runs
    // are capped at PARALLEL_STEP_BUDGET steps — throughput needs steps,
    // not termination.
    println!(
        "\nparallel greedy rounds: steps/sec by thread count (GB-triple, bipartite ping-pong, degree 8)\n"
    );
    let widths2 = [8usize, 10, 12, 14, 10];
    lr_bench::print_header(&widths2, &["n", "threads", "steps", "steps/sec", "vs 1T"]);
    let par_sizes: &[usize] = if smoke {
        &[1024]
    } else {
        &[1024, 4096, 16384, 65536]
    };
    let thread_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    for &n in par_sizes {
        let inst = CsrInstance::from_instance(&generate::bipartite_away(n / 2, 8.min(n / 2), 1));
        let mut base_sps = 0.0f64;
        for &threads in thread_counts {
            let (stats, ns) = best_of(3, || {
                let mut e = FrontierTripleHeightsEngine::new(inst.clone());
                run_engine_frontier_sharded(&mut e, threads, PARALLEL_STEP_BUDGET)
            });
            let sps = BenchRecord::throughput(stats.steps, ns);
            if threads == 1 {
                base_sps = sps;
            }
            lr_bench::print_row(
                &widths2,
                &[
                    n.to_string(),
                    threads.to_string(),
                    stats.steps.to_string(),
                    fmt_sps(sps),
                    format!("{:.2}×", if base_sps > 0.0 { sps / base_sps } else { 0.0 }),
                ],
            );
            record(
                &mut rows,
                &mut records,
                "parallel",
                "GB-triple",
                "bipartite_away",
                n,
                threads,
                &stats,
                ns,
            );
        }
    }

    // ── Series 3 (`BENCH_pr7.json`): the PR engine at scale ──
    // The flat path (streaming `CsrInstance`, `FrontierPrEngine`,
    // `run_engine_frontier`) on chains and grids; each row carries
    // the resident representation cost, so the bytes-per-half-edge
    // trajectory is persisted next to the steps/sec one
    // (`BENCH_pr7.json`).
    println!("\nfrontier engine: run_engine_frontier on the scale families (PR, greedy rounds)\n");
    let widths3 = [12usize, 10, 12, 12, 10];
    lr_bench::print_header(&widths3, &["family", "n", "steps", "steps/sec", "B/HE"]);
    let mut frontier_records: Vec<FrontierRecord> = Vec::new();
    let frontier_cases: &[(&str, usize)] = if smoke {
        &[("chain_away", 1_024), ("grid_away", 1_024)]
    } else {
        &[
            ("chain_away", 65_536),
            ("chain_away", 1_048_576),
            ("grid_away", 65_536),
            ("grid_away", 1_000_000),
        ]
    };
    for &(family, n) in frontier_cases {
        // Grid sizes are squares; the effective n is rows × cols.
        let side = (n as f64).sqrt().round() as usize;
        let inst_flat = match family {
            "chain_away" => stream::chain_away(n),
            _ => stream::grid_away(side, side),
        };
        let n = inst_flat.node_count();
        let half_edges = inst_flat.half_edge_count();
        // PR on these families is Θ(n) total steps, so even the million-
        // node runs terminate well inside the default budget; one sample
        // there keeps the bench's wall-clock reasonable.
        let samples = if n >= 1_000_000 { 1 } else { 3 };
        let mut bytes = 0usize;
        let (stats, ns) = best_of(samples, || {
            let mut e = FrontierPrEngine::new(inst_flat.clone());
            let stats =
                run_engine_frontier(&mut e, SchedulePolicy::GreedyRounds, DEFAULT_MAX_STEPS);
            assert!(stats.terminated);
            bytes = e.resident_bytes();
            stats
        });
        lr_bench::print_row(
            &widths3,
            &[
                family.to_string(),
                n.to_string(),
                stats.steps.to_string(),
                fmt_sps(BenchRecord::throughput(stats.steps, ns)),
                format!("{:.1}", bytes as f64 / half_edges as f64),
            ],
        );
        frontier_records.push(frontier_record(
            family, n, half_edges, cpus, &stats, ns, bytes, smoke,
        ));
    }

    // ── Series 4 (`BENCH_pr8.json`): every family ──
    // One run per algorithm family, engine construction timed along
    // with the run. Instance family is chosen per algorithm so every
    // run is Θ(n) total steps: FR and GB-pair are Θ(n²) on the
    // away-chain (each reversal re-enables the neighbor nearer the
    // destination), so they measure on the star; the PR-side families
    // (PR, NewPR, GB-triple, BLL[PR]) are Θ(n) on the away-chain.
    println!("\nfrontier engines: run_engine_frontier, all six families (greedy rounds)\n");
    let widths4 = [10usize, 12, 10, 12, 12];
    lr_bench::print_header(&widths4, &["alg", "family", "n", "steps", "steps/sec"]);
    let mut family_records: Vec<FrontierRecord> = Vec::new();
    let family_sizes: &[usize] = if smoke {
        &[1_024]
    } else {
        &[65_536, 1_048_576]
    };
    for &size in family_sizes {
        for fam in FrontierFamily::ALL {
            let star = matches!(
                fam,
                FrontierFamily::FullReversal | FrontierFamily::PairHeights
            );
            let (family_name, inst_flat) = if star {
                ("star_away", stream::star_away(size))
            } else {
                ("chain_away", stream::chain_away(size))
            };
            let n = inst_flat.node_count();
            let half_edges = inst_flat.half_edge_count();
            let samples = if n >= 1_000_000 { 1 } else { 3 };
            let mut bytes = 0usize;
            let (stats, ns) = best_of(samples, || {
                let mut e = fam.engine(inst_flat.clone());
                let stats = run_engine_frontier(
                    e.as_mut(),
                    SchedulePolicy::GreedyRounds,
                    DEFAULT_MAX_STEPS,
                );
                assert!(stats.terminated);
                bytes = e.resident_bytes();
                stats
            });
            lr_bench::print_row(
                &widths4,
                &[
                    fam.name().to_string(),
                    family_name.to_string(),
                    n.to_string(),
                    stats.steps.to_string(),
                    fmt_sps(BenchRecord::throughput(stats.steps, ns)),
                ],
            );
            family_records.push(frontier_record(
                family_name,
                n,
                half_edges,
                cpus,
                &stats,
                ns,
                bytes,
                smoke,
            ));
        }
    }

    // ── Series 5 (PR 9): observability overhead ──
    // The run from Series 4, re-measured under each `lr-obs`
    // mode: `off` (instrumentation compiled in, level 0 — the gated
    // "disabled tracing is free" row), `summary` (per-round spans and
    // counters recording into atomics), and `chrome` (full event
    // capture, small size only — million-round traces just saturate
    // the bounded buffer). Session start/finish and report rendering
    // sit *outside* the timed window; the rows measure the hot loop.
    println!(
        "\nobservability overhead (PR 9): run_engine_frontier under lr-obs off/summary/chrome (greedy rounds)\n"
    );
    let widths5 = [10usize, 12, 10, 9, 12, 12, 10];
    lr_bench::print_header(
        &widths5,
        &["alg", "family", "n", "mode", "steps", "steps/sec", "vs off"],
    );
    let mut obs_records: Vec<ObsOverheadRecord> = Vec::new();
    let obs_sizes: &[usize] = if smoke {
        &[1_024]
    } else {
        &[65_536, 1_048_576]
    };
    for &size in obs_sizes {
        for fam in FrontierFamily::ALL {
            let star = matches!(
                fam,
                FrontierFamily::FullReversal | FrontierFamily::PairHeights
            );
            let (family_name, inst_flat): (&str, CsrInstance) = if star {
                ("star_away", stream::star_away(size))
            } else {
                ("chain_away", stream::chain_away(size))
            };
            let n = inst_flat.node_count();
            let samples = if n >= 1_000_000 { 1 } else { 3 };
            let modes: &[ObsMode] = if size == obs_sizes[0] {
                &[ObsMode::Off, ObsMode::Summary, ObsMode::Chrome]
            } else {
                &[ObsMode::Off, ObsMode::Summary]
            };
            let mut off_ns = 0u64;
            for &mode in modes {
                let mut best: Option<(RunStats, u64)> = None;
                let mut registry_metrics = 0usize;
                for _ in 0..samples {
                    let session = (mode != ObsMode::Off).then(|| ObsSession::start(mode));
                    let start = Instant::now();
                    let mut e = fam.engine(inst_flat.clone());
                    let stats = run_engine_frontier(
                        e.as_mut(),
                        SchedulePolicy::GreedyRounds,
                        DEFAULT_MAX_STEPS,
                    );
                    let ns = start.elapsed().as_nanos() as u64;
                    assert!(stats.terminated);
                    if let Some(session) = session {
                        registry_metrics = session.finish().metric_count();
                    }
                    if best.as_ref().is_none_or(|(_, b)| ns < *b) {
                        best = Some((stats, ns));
                    }
                }
                let (stats, ns) = best.expect("at least one sample");
                if mode == ObsMode::Off {
                    off_ns = ns;
                }
                let overhead_pct = if off_ns > 0 {
                    (ns as f64 / off_ns as f64 - 1.0) * 100.0
                } else {
                    0.0
                };
                lr_bench::print_row(
                    &widths5,
                    &[
                        fam.name().to_string(),
                        family_name.to_string(),
                        n.to_string(),
                        mode.name().to_string(),
                        stats.steps.to_string(),
                        fmt_sps(BenchRecord::throughput(stats.steps, ns)),
                        format!("{overhead_pct:+.1}%"),
                    ],
                );
                obs_records.push(ObsOverheadRecord {
                    bench: "exp_throughput".into(),
                    series: "obs_overhead".into(),
                    algorithm: stats.algorithm.to_string(),
                    family: family_name.into(),
                    n,
                    mode: mode.name().into(),
                    threads: 1,
                    cpus,
                    registry_metrics,
                    sink: if mode == ObsMode::Off {
                        "none".into()
                    } else {
                        mode.name().into()
                    },
                    steps: stats.steps,
                    elapsed_ns: ns,
                    steps_per_sec: BenchRecord::throughput(stats.steps, ns),
                    overhead_vs_off_pct: overhead_pct,
                    smoke,
                });
            }
        }
    }

    println!();
    println!(
        "every row appended to {}",
        lr_bench::trajectory::trajectory_path().display()
    );
    if let Err(e) = append_records(&records) {
        eprintln!("warning: could not persist trajectory: {e}");
    }
    let frontier_path = trajectory_path_named(FRONTIER_TRAJECTORY);
    println!("frontier rows appended to {}", frontier_path.display());
    if let Err(e) = append_records_to(&frontier_path, &frontier_records) {
        eprintln!("warning: could not persist frontier trajectory: {e}");
    }
    let family_path = trajectory_path_named(FRONTIER_FAMILY_TRAJECTORY);
    println!("per-family rows appended to {}", family_path.display());
    if let Err(e) = append_records_to(&family_path, &family_records) {
        eprintln!("warning: could not persist per-family frontier trajectory: {e}");
    }
    let obs_path = trajectory_path_named(OBS_TRAJECTORY);
    println!("obs-overhead rows appended to {}", obs_path.display());
    if let Err(e) = append_records_to(&obs_path, &obs_records) {
        eprintln!("warning: could not persist obs-overhead trajectory: {e}");
    }
    lr_bench::write_results("exp_throughput", &rows);
    ExitCode::SUCCESS
}

/// Maximum slowdown, in percent, the *disabled* observability path may
/// show against the PR 8 frontier baseline before `--verify` fails.
const MAX_OFF_OVERHEAD_PCT: f64 = 3.0;

/// Minimum measured wall-clock for an obs-off row to participate in
/// the overhead gate. A 3% bound on a ~2 ms window is below timer and
/// scheduler noise (the PR 8 baselines' own run-to-run spread on such
/// rows exceeds 20%); at 10 ms and above the bound is meaningful.
const MIN_GATED_ELAPSED_NS: u64 = 10_000_000;

/// The PR 9 overhead gate: for every `(algorithm, family, n)` measured
/// in the obs series, the **best non-smoke `mode = "off"`** throughput
/// must be within [`MAX_OFF_OVERHEAD_PCT`] of the **best** matching
/// non-smoke `frontier_engine` row in `BENCH_pr8.json` — i.e. compiling
/// the instrumentation in (but leaving it off) may not tax the hot
/// loop. Best-vs-best cancels machine noise the way best-of-N sampling
/// does within a run, while a genuinely slower disabled path can never
/// catch a baseline it is structurally behind. Smoke rows and rows
/// shorter than [`MIN_GATED_ELAPSED_NS`] keep the file well-formed but
/// are never gated (the CI container has 1 CPU, and sub-10 ms timings
/// are noise); skipped keys are reported, not silently dropped.
fn verify_obs_overhead(obs: &[ObsOverheadRecord], pr8: &[FrontierRecord]) -> bool {
    use std::collections::BTreeMap;
    let mut best_off: BTreeMap<(String, String, usize), f64> = BTreeMap::new();
    let mut too_short: BTreeMap<(String, String, usize), ()> = BTreeMap::new();
    for row in obs.iter().filter(|r| !r.smoke && r.mode == "off") {
        let key = (row.algorithm.clone(), row.family.clone(), row.n);
        if row.elapsed_ns < MIN_GATED_ELAPSED_NS {
            too_short.insert(key, ());
            continue;
        }
        let best = best_off.entry(key).or_insert(0.0);
        *best = best.max(row.steps_per_sec);
    }
    let mut ok = true;
    let mut gated = 0usize;
    for ((alg, family, n), off_sps) in &best_off {
        let base_sps = pr8
            .iter()
            .filter(|b| {
                !b.smoke
                    && b.series == "frontier_engine"
                    && b.algorithm == *alg
                    && b.family == *family
                    && b.n == *n
            })
            .map(|b| b.steps_per_sec)
            .fold(0.0f64, f64::max);
        if base_sps <= 0.0 {
            continue;
        }
        gated += 1;
        let slowdown_pct = (base_sps / off_sps - 1.0) * 100.0;
        if slowdown_pct > MAX_OFF_OVERHEAD_PCT {
            eprintln!(
                "{OBS_TRAJECTORY} GATE FAILED: obs-off {alg} {family} n={n} runs \
                 {slowdown_pct:.1}% below the {FRONTIER_FAMILY_TRAJECTORY} frontier baseline \
                 (bound: {MAX_OFF_OVERHEAD_PCT}%)"
            );
            ok = false;
        }
    }
    for (alg, family, n) in too_short
        .keys()
        .filter(|k| !best_off.contains_key(*k))
        .collect::<Vec<_>>()
    {
        println!(
            "{OBS_TRAJECTORY} gate: skipping {alg} {family} n={n} — every off row is \
             shorter than {} ms (noise-dominated)",
            MIN_GATED_ELAPSED_NS / 1_000_000
        );
    }
    if ok && gated > 0 {
        println!(
            "{OBS_TRAJECTORY} gate OK: {gated} obs-off key(s) within {MAX_OFF_OVERHEAD_PCT}% \
             of their {FRONTIER_FAMILY_TRAJECTORY} baselines"
        );
    }
    ok
}

/// The PR 10 serve gate: every `BENCH_pr10.json` row — produced by
/// `lr serve` rather than this binary, since `lr-scenario` depends on
/// `lr-bench` for the row types and the serve loop therefore cannot be
/// called from here without a package cycle — has to satisfy the serve
/// loop's own accounting: every admitted request was answered or found
/// unroutable, admissions plus drops never exceed the offered load,
/// quantiles are ordered (p50 ≤ p99), and the thread count is ≥ 1.
/// A violated row means the serve loop or its rendering drifted from
/// the counters it reports.
fn verify_serve_rows(rows: &[ServeRecord]) -> bool {
    let mut ok = true;
    for (i, r) in rows.iter().enumerate() {
        let mut fail = |what: &str| {
            eprintln!(
                "{SERVE_TRAJECTORY} GATE FAILED: row {i} ({} rate={} seed={}): {what}",
                r.scenario, r.rate, r.seed
            );
            ok = false;
        };
        if r.answered + r.unroutable != r.admitted {
            fail("answered + unroutable != admitted");
        }
        if r.admitted + r.dropped > r.offered {
            fail("admitted + dropped exceed the offered load");
        }
        if r.latency_p50 > r.latency_p99 {
            fail("latency p50 above p99");
        }
        if r.hops_p50 > r.hops_p99 {
            fail("hops p50 above p99");
        }
        if r.threads == 0 {
            fail("thread count of 0");
        }
        if r.requests_per_sec < 0.0 || !r.requests_per_sec.is_finite() {
            fail("non-finite or negative requests/s");
        }
    }
    if ok && !rows.is_empty() {
        println!(
            "{SERVE_TRAJECTORY} gate OK: {} serve row(s) satisfy the admission accounting \
             and quantile ordering",
            rows.len()
        );
    }
    ok
}

/// A `frontier_engine` row of `BENCH_pr7.json` / `BENCH_pr8.json`.
#[allow(clippy::too_many_arguments)]
fn frontier_record(
    family: &str,
    n: usize,
    half_edges: usize,
    cpus: usize,
    stats: &RunStats,
    ns: u64,
    bytes: usize,
    smoke: bool,
) -> FrontierRecord {
    FrontierRecord {
        bench: "exp_throughput".into(),
        series: "frontier_engine".into(),
        algorithm: stats.algorithm.to_string(),
        family: family.into(),
        n,
        half_edges,
        cpus,
        steps: stats.steps,
        elapsed_ns: ns,
        steps_per_sec: BenchRecord::throughput(stats.steps, ns),
        resident_bytes: bytes,
        bytes_per_node: bytes as f64 / n as f64,
        bytes_per_half_edge: bytes as f64 / half_edges as f64,
        smoke,
    }
}
