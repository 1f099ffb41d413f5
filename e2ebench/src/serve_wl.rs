//! The `lr serve` workloads, driven through
//! `lr_scenario::serve::{parse_feed, run_serve}` with feeds the benchmark
//! generates from its seed (the serve generator is off).
//!
//! * `serve_steady`: routes only, 100 per tick, on the 317×317 grid of
//!   `examples/serve/grid_100k.json`. Set-up is the settle flood; the loop
//!   is read-only probes.
//! * `serve_churn`: on a 100×100 grid, one uniformly chosen live link fails
//!   every tick and heals 10 ticks later, beside 50 routes per tick. The
//!   loop is churn apply, live-graph rebuild, BFS re-pricing and probes
//!   into reconverging regions.
//!
//! A run serves several distinct feeds ("segments"), each the same number
//! of times in interleaved rounds; the run's times are the means over its
//! rounds, and a segment's reports must be identical in every round.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::Instant;

use link_reversal::scenario::serve::{parse_feed, run_serve, ServeOptions, ServeReport};
use link_reversal::scenario::spec::ScenarioSpec;
use link_reversal::scenario::topology::build_instance;

use crate::layers::{self, Recorder};
use crate::util::{median, peak_rss_mib, quantile, secs_since, Digest, Rng};
use crate::{Metric, Outcome, RunCtx};

/// Fewest rounds an untraced run makes, so that its mean pass spans
/// several.
const MIN_ROUNDS: usize = 5;

/// A run starts no new round after this many times `--seconds`, so that a
/// slow host cannot stretch it far past its time.
const DEADLINE_FACTOR: f64 = 1.1;

/// A link `[u, v]` of the topology, as the feed names it.
type Link = (u32, u32);

/// How long a churned link stays down.
const HEAL_AFTER: u64 = 10;

struct Workload {
    spec: &'static str,
    routes_per_tick: u64,
    /// `Some(row_len)`: one link fails per tick, and nodes `0..row_len`
    /// are the destination's row of the grid.
    churn: Option<u32>,
    /// Distinct feeds per run.
    segments: usize,
    /// Ticks of every feed.
    ticks: u64,
    /// Wall time of one round over the segments on the reference machine
    /// (2-CPU Xeon KVM guest); `--seconds` sets the round count.
    round_seconds: f64,
}

fn workload(name: &str) -> Workload {
    match name {
        "serve_steady" => Workload {
            spec: include_str!("../specs/serve_steady.json"),
            routes_per_tick: 100,
            churn: None,
            segments: 1,
            ticks: 30,
            round_seconds: 1.9,
        },
        _ => Workload {
            spec: include_str!("../specs/serve_churn.json"),
            routes_per_tick: 50,
            churn: Some(100),
            segments: 6,
            ticks: 16,
            round_seconds: 4.0,
        },
    }
}

/// One seed-determined feed.
struct Segment {
    feed_text: String,
    routes: u64,
    link_events: u64,
}

/// The seed-determined inputs of one run.
struct Inputs {
    spec: ScenarioSpec,
    options: ServeOptions,
    segments: Vec<Segment>,
    /// Rounds of an untraced run.
    rounds: usize,
}

impl Inputs {
    fn routes(&self) -> u64 {
        self.segments.iter().map(|s| s.routes).sum()
    }
}

fn inputs(ctx: &RunCtx, w: &Workload) -> Result<Inputs, String> {
    let spec = ScenarioSpec::from_json(w.spec).map_err(|e| format!("spec: {e}"))?;
    // The topology, read once to know its edges and destination.
    let inst = build_instance(&spec.topology, ctx.seed).map_err(|e| format!("topology: {e}"))?;
    let n = inst.node_count() as u64;
    let dest = u32::from(inst.dest);
    let edges: Vec<Link> = inst
        .graph
        .edges()
        .map(|(u, v)| (u32::from(u), u32::from(v)))
        .collect();
    // Failing a link of the destination's row cuts most of the grid off
    // its routes until the heights reconverge (80-90% of a segment's
    // probes come back unroutable after one near the corner). Left to
    // chance, how many such failures a seed draws would decide the run's
    // cost, so they are drawn as a stratum: the first two segments each
    // start with one, at mirrored positions along the row, so that the
    // two cut-off regions always add up to one grid's width; every other
    // failure is uniform over the remaining links.
    let (row, rest): (Vec<Link>, Vec<Link>) = edges
        .iter()
        .partition(|&&(u, v)| w.churn.is_some_and(|len| u < len && v < len));
    let mut rng = Rng::new(ctx.seed, 2);
    let cut = rng.below(row.len().max(1) as u64) as usize;
    let segments = (0..w.segments)
        .map(|k| {
            let mut rng = Rng::new(ctx.seed, 3 + k as u64);
            let mut seg = Segment {
                feed_text: String::new(),
                routes: 0,
                link_events: 0,
            };
            let mut down: BTreeSet<Link> = BTreeSet::new();
            let mut heals: BTreeMap<u64, Vec<Link>> = BTreeMap::new();
            for tick in 1..=w.ticks {
                if w.churn.is_some() {
                    for (u, v) in heals.remove(&tick).unwrap_or_default() {
                        down.remove(&(u, v));
                        let _ = writeln!(seg.feed_text, "{{\"at\": {tick}, \"heal\": [{u}, {v}]}}");
                        seg.link_events += 1;
                    }
                    let edge = match (tick, k) {
                        (1, 0) => row[cut],
                        (1, 1) => row[row.len() - 1 - cut],
                        _ => loop {
                            let e = rest[rng.below(rest.len() as u64) as usize];
                            if !down.contains(&e) {
                                break e;
                            }
                        },
                    };
                    down.insert(edge);
                    let (u, v) = edge;
                    let _ = writeln!(seg.feed_text, "{{\"at\": {tick}, \"fail\": [{u}, {v}]}}");
                    seg.link_events += 1;
                    if tick + HEAL_AFTER <= w.ticks {
                        heals.entry(tick + HEAL_AFTER).or_default().push(edge);
                    }
                }
                for _ in 0..w.routes_per_tick {
                    // Uniform over the non-destination nodes.
                    let mut src = rng.below(n - 1) as u32;
                    if src >= dest {
                        src += 1;
                    }
                    let _ = writeln!(seg.feed_text, "{{\"at\": {tick}, \"route\": {src}}}");
                    seg.routes += 1;
                }
            }
            seg
        })
        .collect();
    let options = ServeOptions {
        rate: 0,
        duration: w.ticks,
        threads: 1,
        seed: Some(ctx.seed),
        ..ServeOptions::default()
    };
    let rounds = ((ctx.seconds as f64 / w.round_seconds).round() as usize).max(MIN_ROUNDS);
    Ok(Inputs {
        spec,
        options,
        segments,
        rounds,
    })
}

/// One serve run as `lr serve` makes it, timed from outside.
struct Served {
    report: ServeReport,
    /// `parse_feed` plus `run_serve` wall minus the loop's `elapsed_ns`.
    setup_s: f64,
    wall_s: f64,
}

fn serve_once(inp: &Inputs, seg: &Segment) -> Result<Served, String> {
    let t = Instant::now();
    let feed = parse_feed(&seg.feed_text).map_err(|e| format!("parse_feed: {e}"))?;
    let parsed_s = secs_since(t);
    let t = Instant::now();
    let report =
        run_serve(&inp.spec, &inp.options, &feed).map_err(|e| format!("run_serve: {e}"))?;
    let serve_s = secs_since(t);
    let setup_s = parsed_s + serve_s - report.elapsed_ns as f64 * 1e-9;
    Ok(Served {
        report,
        setup_s,
        wall_s: parsed_s + serve_s,
    })
}

/// The correctness gate on one serve report.
fn check_report(w: &Workload, seg: &Segment, r: &ServeReport) -> Vec<String> {
    let mut problems = Vec::new();
    let offered = r.offered_generator + r.offered_feed;
    if offered != r.admitted + r.dropped + r.leftover {
        problems.push(format!(
            "offered {offered} != admitted {} + dropped {} + leftover {}",
            r.admitted, r.dropped, r.leftover
        ));
    }
    if r.admitted != r.answered + r.unroutable {
        problems.push(format!(
            "admitted {} != answered {} + unroutable {}",
            r.admitted, r.answered, r.unroutable
        ));
    }
    if r.offered_feed != seg.routes || r.link_events != seg.link_events {
        problems.push(format!(
            "feed had {} routes and {} link events, report counts {} and {}",
            seg.routes, seg.link_events, r.offered_feed, r.link_events
        ));
    }
    if w.churn.is_none() && (r.unroutable != 0 || r.stretch.moments.max() != 1.0) {
        problems.push(format!(
            "steady grid: {} unroutable and max stretch {:.3}, want 0 and 1.000",
            r.unroutable,
            r.stretch.moments.max()
        ));
    }
    problems
}

pub fn run(ctx: &RunCtx) -> Result<Outcome, String> {
    let w = workload(&ctx.workload);
    let inp = inputs(ctx, &w)?;
    let mut digest = Digest::new();
    digest.add(w.spec.as_bytes());
    digest.add(format!("{:?}", inp.options).as_bytes());
    for seg in &inp.segments {
        digest.add(seg.feed_text.as_bytes());
    }
    println!(
        "inputs: workload={} seed={} rounds={} segments={} ticks={} routes={} link_events={} digest={}",
        ctx.workload,
        ctx.seed,
        inp.rounds,
        inp.segments.len(),
        inp.options.duration,
        inp.routes(),
        inp.segments.iter().map(|s| s.link_events).sum::<u64>(),
        digest.hex()
    );
    if ctx.trace {
        return run_traced(ctx, &w, &inp);
    }

    let mut problems = Vec::new();
    let (mut attempted, mut failed, mut answered) = (0u64, 0u64, 0u64);
    let mut setups = Vec::new();
    let (mut wall_total, mut loop_total) = (0.0, 0.0);
    // Per segment: the first rendering of its report.
    let k = inp.segments.len();
    let mut renders: Vec<Option<String>> = vec![None; k];
    let began = Instant::now();
    let deadline = DEADLINE_FACTOR * ctx.seconds as f64;
    let mut rounds = 0;
    while rounds < inp.rounds && (rounds < MIN_ROUNDS || secs_since(began) < deadline) {
        rounds += 1;
        for (i, seg) in inp.segments.iter().enumerate() {
            attempted += seg.routes;
            let served = match serve_once(&inp, seg) {
                Ok(s) => s,
                Err(e) => {
                    failed += seg.routes;
                    problems.push(e);
                    continue;
                }
            };
            let r = &served.report;
            let gate = check_report(&w, seg, r);
            if !gate.is_empty() {
                failed += seg.routes;
                problems.extend(gate);
            }
            let render = r.render();
            match &renders[i] {
                None => renders[i] = Some(render),
                Some(first) if *first != render => {
                    problems.push(format!("segment {i}: serve report differs between rounds"));
                }
                Some(_) => {}
            }
            answered += r.answered;
            setups.push(served.setup_s);
            loop_total += r.elapsed_ns as f64 * 1e-9;
            wall_total += served.wall_s;
        }
    }
    if setups.is_empty() {
        return Err(format!("no segment served: {}", problems.join("; ")));
    }
    let wall_s = wall_total / rounds as f64;
    eprintln!(
        "{} seed {}: {rounds} rounds x {k} segments in {:.3} s; mean pass {wall_s:.3} s",
        ctx.workload,
        ctx.seed,
        secs_since(began)
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("wall_s", wall_s, "s"),
            Metric::new("setup_s", median(&setups), "s"),
            Metric::new("req_per_s", answered as f64 / loop_total, "1/s"),
            Metric::new("peak_rss_mib", peak_rss_mib()?, "MiB"),
            Metric::new("ok_ratio", answered as f64 / attempted as f64, "ratio"),
        ],
        problems,
    })
}

/// The traced run: one round over the segments, each served once
/// untraced and once with every call in a benchmark span and the
/// program's `serve.*` spans under it.
fn run_traced(ctx: &RunCtx, w: &Workload, inp: &Inputs) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let mut rec = Recorder::new();
    let (mut untraced_s, mut traced_s, mut loop_s) = (0.0, 0.0, 0.0);
    let (mut messages, mut answered, mut admitted, mut unroutable, mut link_events) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (i, seg) in inp.segments.iter().enumerate() {
        let untraced = serve_once(inp, seg)?;
        problems.extend(check_report(w, seg, &untraced.report));
        untraced_s += untraced.wall_s;
        let t = Instant::now();
        let traced = rec.session(|| -> Result<ServeReport, String> {
            let feed = {
                let _s = layers::span("scenario.feed_parse");
                parse_feed(&seg.feed_text).map_err(|e| format!("parse_feed: {e}"))?
            };
            {
                // `run_serve` builds and validates inside; the same public
                // steps are timed here on their own.
                let _s = layers::span("scenario.build");
                let run_seed = inp.options.seed.unwrap_or(0);
                build_instance(&inp.spec.topology, run_seed)
                    .map_err(|e| format!("topology: {e}"))?;
                inp.spec.validate().map_err(|e| format!("spec: {e}"))?;
            }
            let _s = layers::span("serve.call");
            run_serve(&inp.spec, &inp.options, &feed).map_err(|e| format!("run_serve: {e}"))
        });
        traced_s += secs_since(t);
        let traced = traced?;
        if traced.render() != untraced.report.render() {
            problems.push(format!(
                "segment {i}: traced serve report differs from the untraced one"
            ));
        }
        let r = &untraced.report;
        loop_s += traced.elapsed_ns as f64 * 1e-9;
        messages += r.messages;
        answered += r.answered;
        admitted += r.admitted;
        unroutable += r.unroutable;
        link_events += r.link_events;
    }

    let totals = rec.totals();
    let busy = |name: &str| totals.get(name).map_or(0.0, |t| t.busy_s());
    let probe_s = busy("serve.batch");
    let settle_s = busy("serve.settle");
    let batch_ms: Vec<f64> = rec
        .durations("serve.batch")
        .into_iter()
        .map(|ns| ns as f64 * 1e-6)
        .collect();
    let batch_q = |q: f64| {
        if batch_ms.is_empty() {
            0.0
        } else {
            quantile(&batch_ms, q)
        }
    };
    let mut m: BTreeMap<&str, f64> = BTreeMap::new();
    m.insert("scenario.feed_parse_s", busy("scenario.feed_parse"));
    m.insert("scenario.build_s", busy("scenario.build"));
    m.insert("net.settle_s", settle_s);
    m.insert("net.messages", messages as f64);
    m.insert("net.msgs_per_s", messages as f64 / settle_s);
    m.insert("scenario.probe_s", probe_s);
    m.insert("scenario.batch_p50_ms", batch_q(0.5));
    m.insert("scenario.batch_p99_ms", batch_q(0.99));
    m.insert("scenario.loop_s", loop_s);
    m.insert("scenario.loop_other_s", loop_s - probe_s);
    m.insert(
        "scenario.answered_ratio",
        answered as f64 / admitted.max(1) as f64,
    );
    m.insert("scenario.unroutable", unroutable as f64);
    m.insert("scenario.link_events", link_events as f64);
    m.insert("share.probe", probe_s / loop_s);
    m.insert("share.loop_other", (loop_s - probe_s) / loop_s);
    m.insert("obs.overhead_ratio", busy("serve.call") / untraced_s);
    m.insert("obs.dropped_events", rec.dropped_events() as f64);

    let covered = busy("scenario.feed_parse") + busy("scenario.build") + busy("serve.call");
    let mut report = layers::render_report(
        &format!(
            "{} seed {}: layers of {} serve runs of {} ticks (loop {loop_s:.4} s)",
            ctx.workload,
            ctx.seed,
            inp.segments.len(),
            inp.options.duration
        ),
        &totals,
        "traced wall",
        traced_s,
        covered,
    );
    let (share, rule, ok) = if w.churn.is_some() {
        let s = m["share.loop_other"];
        (s, "loop_other >= 30% of the loop", s >= 0.3)
    } else {
        let s = m["share.probe"];
        (s, "probes >= 50% of the loop", s >= 0.5)
    };
    let _ = writeln!(
        report,
        "  stress check ({rule}): {:.1}% -> {}",
        100.0 * share,
        if ok { "holds" } else { "DOES NOT HOLD" }
    );
    let failed = if problems.is_empty() { 0 } else { inp.routes() };
    layers::finish_traced(ctx, &rec, report, inp.routes(), failed, &m, problems)
}
