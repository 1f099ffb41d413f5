//! The `lr generate | lr run` workloads, driven through
//! `link_reversal::cli::run_cli` in a closed loop with one client.
//!
//! * `run_ingest`: PR, NewPR and GB-triple on ~10k-node grids and a
//!   10k-node random graph. Ingest (parse, map→CSR, orientation, map
//!   checks) dominates; the engine is a few percent of a request.
//! * `run_engine`: the paper's quadratic-work chains. The frontier engines
//!   dominate on a few kB of input.

use std::collections::BTreeMap;
use std::time::Instant;

use link_reversal::cli::run_cli;
use link_reversal::core::alg::AlgorithmKind;
use link_reversal::core::engine::{run_engine_frontier, SchedulePolicy, DEFAULT_MAX_STEPS};
use link_reversal::graph::{generate, parse, CsrInstance, DirectedView, ReversalInstance};

use crate::layers::{self, Recorder};
use crate::util::{median, peak_rss_mib, secs_since, Digest, Rng};
use crate::{Metric, Outcome, RunCtx};

/// Set-ups per untraced run, spread over its rounds so that they sample
/// the same stretch of host speed as the requests; `setup_s` is their
/// median.
const SETUP_REPEATS: usize = 5;

/// One instance of the pool, as `lr generate` arguments.
#[derive(Clone, Copy)]
enum Family {
    Grid(usize),
    Random(usize, u64),
    Alternating(usize),
    ChainAway(usize),
}

impl Family {
    fn generate_args(self) -> Vec<String> {
        let (name, n, seed) = match self {
            Family::Grid(s) => ("grid", s, None),
            Family::Random(n, seed) => ("random", n, Some(seed)),
            Family::Alternating(n) => ("alternating", n, None),
            Family::ChainAway(n) => ("chain-away", n, None),
        };
        let mut args = vec!["generate".to_string(), name.to_string(), n.to_string()];
        args.extend(seed.map(|s| s.to_string()));
        args
    }

    /// The generator `cmd_generate` calls for these arguments.
    fn generate(self) -> ReversalInstance {
        match self {
            Family::Grid(s) => generate::grid_away(s, s),
            Family::Random(n, seed) => generate::random_connected(n, n, seed),
            Family::Alternating(n) => generate::alternating_chain(n),
            Family::ChainAway(n) => generate::chain_away(n),
        }
    }
}

/// The seed-determined work of one run: the instance pool, the distinct
/// `lr run` requests over it, and the order each round issues them in.
struct Plan {
    pool: Vec<Family>,
    /// `(pool index, algorithm)`.
    jobs: Vec<(usize, &'static str)>,
    /// Per round, a permutation of `jobs` indices.
    rounds: Vec<Vec<usize>>,
}

/// Wall time of one round over the distinct requests on the reference
/// machine (2-CPU Xeon KVM guest); `--seconds` sets the round count.
fn round_seconds(workload: &str) -> f64 {
    match workload {
        "run_ingest" => 1.3,
        _ => 1.0,
    }
}

/// Fewest rounds a run makes, so that its mean pass spans several.
const MIN_ROUNDS: usize = 5;

/// A run starts no new round after this many times `--seconds`, so that a
/// slow host cannot stretch it far past its time.
const DEADLINE_FACTOR: f64 = 1.1;

fn plan(ctx: &RunCtx) -> Plan {
    let mut rng = Rng::new(ctx.seed, 1);
    let mut pool = Vec::new();
    let mut jobs: Vec<(usize, &'static str)> = Vec::new();
    if ctx.workload == "run_ingest" {
        // Four grids, S in [90, 110], as mirrored pairs in two strata,
        // and one 10k-node random graph; every algorithm on each.
        let sides = [rng.mirrored_pair(90, 100), rng.mirrored_pair(100, 110)];
        pool.extend(sides.iter().flatten().map(|&s| Family::Grid(s)));
        pool.push(Family::Random(10_000, rng.below(1_000_000)));
        for i in 0..pool.len() {
            for alg in ["PR", "NewPR", "GB-triple"] {
                jobs.push((i, alg));
            }
        }
    } else {
        // Each (chain, algorithm) variant on four lengths in [1000, 2000],
        // as mirrored pairs in two strata.
        let variants = [
            (Family::Alternating as fn(usize) -> Family, "PR"),
            (Family::Alternating, "NewPR"),
            (Family::Alternating, "FR"),
            (Family::ChainAway, "FR"),
        ];
        for (family, alg) in variants {
            let lengths = [rng.mirrored_pair(1000, 1500), rng.mirrored_pair(1500, 2000)];
            for &n in lengths.iter().flatten() {
                jobs.push((pool.len(), alg));
                pool.push(family(n));
            }
        }
    }
    let rounds =
        ((ctx.seconds as f64 / round_seconds(&ctx.workload)).round() as usize).max(MIN_ROUNDS);
    let rounds = (0..rounds)
        .map(|_| {
            let mut order: Vec<usize> = (0..jobs.len()).collect();
            rng.shuffle(&mut order);
            order
        })
        .collect();
    Plan { pool, jobs, rounds }
}

fn run_args(alg: &str) -> [&str; 5] {
    ["run", alg, "greedy", "--threads", "1"]
}

/// `lr generate` for the whole pool, through the CLI entry point.
fn generate_pool(pool: &[Family]) -> Result<Vec<String>, String> {
    pool.iter()
        .map(|f| {
            let args = f.generate_args();
            let refs: Vec<&str> = args.iter().map(String::as_str).collect();
            run_cli(&refs, "").map_err(|e| format!("lr {}: {e}", args.join(" ")))
        })
        .collect()
}

/// The `lr run` report as `key -> value`.
fn fields(out: &str) -> BTreeMap<&str, &str> {
    out.lines()
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim(), v.trim()))
        .collect()
}

/// The correctness gate on one `lr run` output.
fn check_output(out: &str) -> Result<(), String> {
    let f = fields(out);
    for key in ["acyclic", "dest oriented"] {
        if f.get(key) != Some(&"true") {
            return Err(format!("`{key}` is {:?}, want true", f.get(key)));
        }
    }
    Ok(())
}

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let plan = plan(ctx);
    if ctx.trace {
        return run_traced(ctx, &plan);
    }
    let mut problems = Vec::new();

    // Set-up: produce the pool's instance texts with `lr generate`. It is
    // repeated every `setup_every` rounds and after the last, each time
    // checked against the first texts.
    let timed_setup = |setups: &mut Vec<f64>| -> Result<Vec<String>, String> {
        let t = Instant::now();
        let produced = generate_pool(&plan.pool)?;
        setups.push(secs_since(t));
        Ok(produced)
    };
    let mut setups = Vec::new();
    let texts = timed_setup(&mut setups)?;
    let set_up_again = |setups: &mut Vec<f64>, problems: &mut Vec<String>| {
        if timed_setup(setups)? != texts {
            problems.push("lr generate gave different texts for the same arguments".into());
        }
        Ok::<(), String>(())
    };
    print_inputs(ctx, &plan, &texts);
    let setup_every = (plan.rounds.len() / SETUP_REPEATS).max(1);

    // Timed phase: closed loop, one client, every round issuing each
    // distinct request once. The pass time is the mean over the rounds.
    let mut busy_s = 0.0;
    let (mut failed, mut attempted) = (0u64, 0u64);
    let began = Instant::now();
    let deadline = DEADLINE_FACTOR * ctx.seconds as f64;
    let mut rounds = 0;
    for order in &plan.rounds {
        if rounds >= MIN_ROUNDS && secs_since(began) >= deadline {
            break;
        }
        rounds += 1;
        for &j in order {
            let (item, alg) = plan.jobs[j];
            attempted += 1;
            let t = Instant::now();
            let result = run_cli(&run_args(alg), &texts[item]);
            busy_s += secs_since(t);
            if let Err(e) = result
                .map_err(|e| format!("error: {e}"))
                .and_then(|out| check_output(&out))
            {
                failed += 1;
                problems.push(format!("lr run {alg} on pool item {item}: {e}"));
            }
        }
        if rounds % setup_every == 0 && setups.len() < SETUP_REPEATS {
            set_up_again(&mut setups, &mut problems)?;
        }
    }
    let phase_s = secs_since(began);
    while setups.len() < SETUP_REPEATS {
        set_up_again(&mut setups, &mut problems)?;
    }
    let pass_s = busy_s / rounds as f64;
    let setup_s = median(&setups);
    eprintln!(
        "{} seed {}: {rounds} rounds x {} requests in {phase_s:.3} s; mean pass {pass_s:.3} s",
        ctx.workload,
        ctx.seed,
        plan.jobs.len()
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("wall_s", setup_s + pass_s, "s"),
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("req_per_s", plan.jobs.len() as f64 / pass_s, "1/s"),
            Metric::new("peak_rss_mib", peak_rss_mib()?, "MiB"),
            Metric::new(
                "ok_ratio",
                (attempted - failed) as f64 / attempted as f64,
                "ratio",
            ),
        ],
        problems,
    })
}

fn print_inputs(ctx: &RunCtx, plan: &Plan, texts: &[String]) {
    let mut digest = Digest::new();
    for text in texts {
        digest.add(text.as_bytes());
    }
    for order in &plan.rounds {
        for &j in order {
            let (item, alg) = plan.jobs[j];
            digest.add(format!("{item} {alg}").as_bytes());
        }
    }
    let pool: Vec<String> = plan
        .pool
        .iter()
        .map(|f| f.generate_args()[1..].join(" "))
        .collect();
    println!(
        "inputs: workload={} seed={} requests={} rounds={} pool=[{}] digest={}",
        ctx.workload,
        ctx.seed,
        plan.jobs.len(),
        plan.rounds.len(),
        pool.join(", "),
        digest.hex()
    );
}

/// What `cmd_run` computes, one public call at a time, each in its own
/// benchmark span. Returns the fields the gate compares with the
/// untraced output.
fn replicate_run(text: &str, alg: &str) -> Result<[String; 5], String> {
    let kind = AlgorithmKind::ALL
        .into_iter()
        .find(|k| k.name() == alg)
        .ok_or_else(|| format!("unknown algorithm {alg}"))?;
    let _request = layers::span("request");
    let inst = {
        let _s = layers::span("graph.parse");
        parse::parse_instance(text).map_err(|e| format!("parse: {e}"))?
    };
    let csr = {
        let _s = layers::span("graph.to_csr");
        CsrInstance::from_instance(&inst)
    };
    let mut engine = {
        let _s = layers::span("core.build");
        kind.frontier_engine(csr)
    };
    let stats = {
        let _s = layers::span("core.run");
        run_engine_frontier(
            engine.as_mut(),
            SchedulePolicy::GreedyRounds,
            DEFAULT_MAX_STEPS,
        )
    };
    let orientation = {
        let _s = layers::span("core.orientation");
        engine.orientation()
    };
    let (acyclic, oriented) = {
        let _s = layers::span("graph.check");
        let view = DirectedView::new(&inst.graph, &orientation);
        (view.is_acyclic(), view.is_destination_oriented(inst.dest))
    };
    let _s = layers::span("cli.render");
    let _bad = std::hint::black_box(inst.initial_bad_nodes());
    Ok([
        stats.steps.to_string(),
        stats.total_reversals.to_string(),
        stats.rounds.to_string(),
        acyclic.to_string(),
        oriented.to_string(),
    ])
}

/// The traced run: the same plan, each step once untraced through
/// `run_cli` and once replicated call by call under obs.
fn run_traced(ctx: &RunCtx, plan: &Plan) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let mut rec = Recorder::new();

    let t = Instant::now();
    let texts = generate_pool(&plan.pool)?;
    let setup_s = secs_since(t);
    print_inputs(ctx, plan, &texts);
    let replicated = rec.session(|| {
        plan.pool
            .iter()
            .map(|f| {
                let inst = {
                    let _s = layers::span("graph.generate");
                    f.generate()
                };
                let _s = layers::span("graph.to_text");
                parse::to_text(&inst)
            })
            .collect::<Vec<String>>()
    });
    if replicated != texts {
        problems.push("replicated generators differ from `lr generate` output".into());
    }

    let (mut failed, mut untraced_s, mut traced_s, mut text_bytes) = (0u64, 0.0, 0.0, 0usize);
    let (mut steps, mut rounds, mut dummy) = (0u64, 0u64, 0u64);
    for &j in &plan.rounds[0] {
        let (item, alg) = plan.jobs[j];
        let text = &texts[item];
        text_bytes += text.len();
        let t = Instant::now();
        let result = run_cli(&run_args(alg), text);
        untraced_s += secs_since(t);
        let t = Instant::now();
        let traced = rec.session(|| replicate_run(text, alg));
        traced_s += secs_since(t);
        let verdict = result.map_err(|e| format!("error: {e}")).and_then(|out| {
            check_output(&out)?;
            let f = fields(&out);
            let want = [
                "steps",
                "total reversals",
                "rounds",
                "acyclic",
                "dest oriented",
            ]
            .map(|k| f.get(k).copied().unwrap_or("").to_string());
            let got = traced?;
            steps += f["steps"].parse::<u64>().unwrap_or(0);
            rounds += f["rounds"].parse::<u64>().unwrap_or(0);
            dummy += f
                .get("dummy steps")
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0);
            if got != want {
                return Err(format!(
                    "replicated pipeline gave {got:?}, run_cli {want:?}"
                ));
            }
            Ok(())
        });
        if let Err(e) = verdict {
            failed += 1;
            problems.push(format!("lr run {alg} on pool item {item}: {e}"));
        }
    }

    let totals = rec.totals();
    let busy = |name: &str| totals.get(name).map_or(0.0, |t| t.busy_s());
    let setup_spans = ["graph.generate", "graph.to_text"];
    let replicated_s: f64 = [
        "graph.parse",
        "graph.to_csr",
        "core.build",
        "core.run",
        "core.orientation",
        "graph.check",
        "cli.render",
    ]
    .iter()
    .map(|n| busy(n))
    .sum();
    let ingest_s =
        busy("graph.parse") + busy("graph.to_csr") + busy("graph.check") + busy("core.orientation");
    let share = |s: f64| s / untraced_s;
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    m.insert("graph.generate_s", busy("graph.generate"));
    m.insert("graph.to_text_s", busy("graph.to_text"));
    m.insert("graph.parse_s", busy("graph.parse"));
    m.insert(
        "graph.parse_mib_per_s",
        text_bytes as f64 / (1024.0 * 1024.0) / busy("graph.parse"),
    );
    m.insert("graph.to_csr_s", busy("graph.to_csr"));
    m.insert("graph.check_s", busy("graph.check"));
    m.insert("core.orientation_s", busy("core.orientation"));
    m.insert("core.build_s", busy("core.build"));
    m.insert("core.run_s", busy("core.run"));
    m.insert("core.steps", steps as f64);
    m.insert("core.steps_per_s", steps as f64 / busy("core.run"));
    m.insert("core.rounds", rounds as f64);
    m.insert("core.dummy_ratio", dummy as f64 / steps.max(1) as f64);
    m.insert("cli.request_s", untraced_s);
    m.insert("cli.unattributed_s", untraced_s - replicated_s);
    m.insert("share.ingest", share(ingest_s));
    m.insert("share.core_run", share(busy("core.run")));
    m.insert("obs.overhead_ratio", traced_s / untraced_s);
    m.insert("obs.dropped_events", rec.dropped_events() as f64);

    let setup_busy: f64 = setup_spans.iter().map(|n| busy(n)).sum();
    let (setup_totals, request_totals) = totals
        .into_iter()
        .partition(|(name, _)| setup_spans.contains(&name.as_str()));
    let mut report = layers::render_report(
        &format!(
            "{} seed {}: set-up, {} instances",
            ctx.workload,
            ctx.seed,
            plan.pool.len()
        ),
        &setup_totals,
        "untraced lr generate wall",
        setup_s,
        setup_busy,
    );
    report.push_str(&layers::render_report(
        &format!(
            "{} seed {}: {} requests",
            ctx.workload,
            ctx.seed,
            plan.jobs.len()
        ),
        &request_totals,
        "untraced run_cli wall",
        untraced_s,
        replicated_s,
    ));
    report.push_str(&stress_verdict(ctx, &m));
    layers::finish_traced(
        ctx,
        &rec,
        report,
        plan.jobs.len() as u64,
        failed,
        &m,
        problems,
    )
}

/// Whether the workload still stresses the layer it was chosen for.
fn stress_verdict(ctx: &RunCtx, m: &BTreeMap<&str, f64>) -> String {
    let (ingest, core) = (m["share.ingest"], m["share.core_run"]);
    let (ok, rule) = if ctx.workload == "run_ingest" {
        (
            ingest >= 0.8 && core < 0.1,
            "graph+orientation >= 80% and core.run < 10% of request time",
        )
    } else {
        (core >= 0.8, "core.run >= 80% of request time")
    };
    format!(
        "  stress check ({rule}): ingest {:.1}%, core.run {:.1}% -> {}\n",
        100.0 * ingest,
        100.0 * core,
        if ok { "holds" } else { "DOES NOT HOLD" }
    )
}
