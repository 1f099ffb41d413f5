//! The traced run: obs sessions around the benchmark's calls into each
//! layer, span trees with busy and self time, and the Chrome trace.
//!
//! Every timed call the benchmark makes in a traced run sits inside a
//! `bench`-category span opened here, in the benchmark's own code. The
//! program's existing spans (`engine.*`, `serve.*`) nest under them.
//! Each request gets its own obs session, so the program's per-round
//! spans never reach the recorder's event cap; the sessions' events are
//! rebased onto one clock and merged into one trace.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use lr_obs::{ObsMode, ObsReport, ObsSession, TraceEvent};

use crate::{Metric, Outcome, RunCtx};

/// The per-layer metrics of a traced run, with their units. Every
/// workload reports all of them; a layer a workload never enters reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("graph.generate_s", "s"),
    ("graph.to_text_s", "s"),
    ("graph.parse_s", "s"),
    ("graph.parse_mib_per_s", "MiB/s"),
    ("graph.to_csr_s", "s"),
    ("graph.check_s", "s"),
    ("core.orientation_s", "s"),
    ("core.build_s", "s"),
    ("core.run_s", "s"),
    ("core.steps", "count"),
    ("core.steps_per_s", "1/s"),
    ("core.rounds", "count"),
    ("core.dummy_ratio", "ratio"),
    ("cli.request_s", "s"),
    ("cli.unattributed_s", "s"),
    ("scenario.feed_parse_s", "s"),
    ("scenario.build_s", "s"),
    ("net.settle_s", "s"),
    ("net.messages", "count"),
    ("net.msgs_per_s", "1/s"),
    ("scenario.probe_s", "s"),
    ("scenario.batch_p50_ms", "ms"),
    ("scenario.batch_p99_ms", "ms"),
    ("scenario.loop_s", "s"),
    ("scenario.loop_other_s", "s"),
    ("scenario.answered_ratio", "ratio"),
    ("scenario.unroutable", "count"),
    ("scenario.link_events", "count"),
    ("share.ingest", "ratio"),
    ("share.core_run", "ratio"),
    ("share.probe", "ratio"),
    ("share.loop_other", "ratio"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.dropped_events", "count"),
];

/// Opens a benchmark span around one call into a layer.
pub fn span(name: &'static str) -> lr_obs::Span {
    lr_obs::span("bench", name)
}

/// Busy time, self time and count of one span name.
#[derive(Default, Clone, Copy)]
pub struct SpanTotals {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }
}

/// Trace events merged from many obs sessions onto one clock.
pub struct Recorder {
    start: Instant,
    events: Vec<TraceEvent>,
    dropped: usize,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            start: Instant::now(),
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Runs `f` inside one Chrome-mode obs session and keeps its events.
    pub fn session<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let offset = self.start.elapsed().as_nanos() as u64;
        let session = ObsSession::start(ObsMode::Chrome);
        let out = f();
        let report = session.finish();
        self.dropped += report.dropped_events;
        self.events.extend(report.events.into_iter().map(|mut e| {
            e.ts_ns += offset;
            e
        }));
        out
    }

    pub fn dropped_events(&self) -> usize {
        self.dropped
    }

    /// Durations in ns of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.events
            .iter()
            .filter(|e| e.ph == 'X' && e.name == name)
            .map(|e| e.dur_ns)
            .collect()
    }

    /// Totals per span name, where the program's parameterised names
    /// (`engine.run PR`, `serve.run <scenario>`) fold to the part before
    /// the first space. Self time is a span's duration minus that of its
    /// direct children on the same thread.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let mut spans: Vec<&TraceEvent> = self.events.iter().filter(|e| e.ph == 'X').collect();
        spans.sort_by_key(|e| (e.tid, e.ts_ns, std::cmp::Reverse(e.dur_ns)));
        let mut child_ns = vec![0u64; spans.len()];
        let mut open: Vec<usize> = Vec::new();
        for (i, e) in spans.iter().enumerate() {
            while let Some(&top) = open.last() {
                let t = spans[top];
                if t.tid == e.tid && e.ts_ns + e.dur_ns <= t.ts_ns + t.dur_ns {
                    break;
                }
                open.pop();
            }
            if let Some(&parent) = open.last() {
                child_ns[parent] += e.dur_ns;
            }
            open.push(i);
        }
        let mut totals: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (e, children) in spans.iter().zip(child_ns) {
            let key = e.name.split(' ').next().unwrap_or(&e.name).to_string();
            let t = totals.entry(key).or_default();
            t.count += 1;
            t.busy_ns += e.dur_ns;
            t.self_ns += e.dur_ns.saturating_sub(children);
        }
        totals
    }

    /// Renders the merged events as a Chrome trace, checks it with
    /// `lr_obs::validate_chrome_trace` and writes it to `path`.
    pub fn write_chrome_trace(&self, path: &Path) -> Result<usize, String> {
        let report = ObsReport {
            mode: ObsMode::Chrome,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            spans: Vec::new(),
            events: self.events.clone(),
            dropped_events: self.dropped,
        };
        let text = report.render_chrome_trace();
        let events = lr_obs::validate_chrome_trace(&text)
            .map_err(|e| format!("chrome trace rejected: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(events)
    }
}

/// The human report of a traced run: per span name its count, busy and
/// self time and their shares of `base_s`, the time the layers are
/// accounted against, plus the part of it no span covers.
pub fn render_report(
    title: &str,
    totals: &BTreeMap<String, SpanTotals>,
    base_name: &str,
    base_s: f64,
    covered_s: f64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "  {:<22} {:>9} {:>11} {:>7} {:>11} {:>7}",
        "span", "count", "busy s", "busy%", "self s", "self%"
    );
    let pct = |s: f64| {
        if base_s > 0.0 {
            100.0 * s / base_s
        } else {
            0.0
        }
    };
    for (name, t) in totals {
        let (busy, own) = (t.busy_s(), t.self_ns as f64 * 1e-9);
        let _ = writeln!(
            out,
            "  {:<22} {:>9} {:>11.4} {:>6.1}% {:>11.4} {:>6.1}%",
            name,
            t.count,
            busy,
            pct(busy),
            own,
            pct(own)
        );
    }
    let unattributed = base_s - covered_s;
    let _ = writeln!(
        out,
        "  {base_name} {base_s:.4} s; unattributed {unattributed:.4} s ({:.1}%)",
        pct(unattributed)
    );
    out
}

/// Writes the traced run's report and Chrome trace and assembles the
/// per-layer outcome, 0 for every layer the workload never entered.
pub fn finish_traced(
    ctx: &RunCtx,
    rec: &Recorder,
    report: String,
    attempted: u64,
    failed: u64,
    m: &BTreeMap<&str, f64>,
    mut problems: Vec<String>,
) -> Result<Outcome, String> {
    eprint!("{report}");
    let report_path = ctx.out_file("layers.txt");
    std::fs::write(&report_path, &report)
        .map_err(|e| format!("cannot write {}: {e}", report_path.display()))?;
    let events = rec.write_chrome_trace(&ctx.out_file("trace.json"))?;
    eprintln!(
        "  chrome trace: {events} events -> {}",
        ctx.out_file("trace.json").display()
    );
    if rec.dropped_events() > 0 {
        problems.push(format!("obs dropped {} trace events", rec.dropped_events()));
    }
    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, m.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        problems,
    })
}
