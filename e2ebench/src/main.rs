//! In-process end-to-end benchmark of `lr generate | lr run` and `lr serve`.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <run_ingest|run_engine|serve_steady|serve_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of
//! [`layers::LAYER_METRICS`] with `--trace 1`. Traces and layer reports
//! go to `e2ebench/out/`. `e2ebench/README.md` gives the rationale.

mod layers;
mod run_wl;
mod serve_wl;
mod util;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What one benchmark run measured and whether its outputs were right.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Every correctness-gate violation, printed to standard error.
    pub problems: Vec<String>,
}

/// Where a run's inputs come from and where its files go.
pub struct RunCtx {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

impl RunCtx {
    /// A file under the output directory named after this run.
    pub fn out_file(&self, suffix: &str) -> PathBuf {
        self.out_dir
            .join(format!("{}-seed{}.{suffix}", self.workload, self.seed))
    }
}

const WORKLOADS: [&str; 4] = ["run_ingest", "run_engine", "serve_steady", "serve_churn"];

fn parse_args(args: &[String]) -> Result<RunCtx, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    // Outputs stay inside the benchmark's own directory, which must be
    // reachable from the working directory (the repository root).
    let bench_dir = PathBuf::from("e2ebench");
    if !bench_dir.join("Cargo.toml").is_file() {
        return Err("run from the repository root (e2ebench/Cargo.toml not found)".into());
    }
    let out_dir = bench_dir.join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    Ok(RunCtx {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        out_dir,
    })
}

fn render_json(outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.problems.is_empty(),
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = match ctx.workload.as_str() {
        "run_ingest" | "run_engine" => run_wl::run(&ctx),
        _ => serve_wl::run(&ctx),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for problem in &outcome.problems {
        eprintln!("e2ebench: correctness: {problem}");
    }
    println!("{}", render_json(&outcome));
    ExitCode::SUCCESS
}
