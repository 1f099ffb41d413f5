//! The persisted bench trajectory: every measurement appends one
//! machine-readable record to a JSON file at the repository root, so
//! performance history accumulates across runs (and PRs) in a form the
//! CI gate and future sessions can parse with the vendored `serde_json`
//! alone.
//!
//! Each trajectory is a JSON array of one record type:
//!
//! * `BENCH_pr3.json` — [`BenchRecord`] throughput rows from the step
//!   pipeline experiments (PR 3); its first 122 rows time the retired
//!   map-backed engines, later rows the frontier engines (see
//!   [`BenchRecord::series`]);
//! * `BENCH_pr4.json` ([`SCENARIO_TRAJECTORY`]) — [`ScenarioRecord`]
//!   rows emitted by the `lr-scenario` sweep runner (PR 4): convergence
//!   after churn, delivery rate, message counts, route stretch, and
//!   per-node work distribution;
//! * `BENCH_pr5.json` ([`SWEEP_TRAJECTORY`]) — [`SweepRecord`] rows
//!   from the parallel matrix-sweep executor (PR 5): one streaming
//!   summary per matrix point plus a whole-sweep roll-up;
//! * `BENCH_pr6.json` ([`MODEL_CHECK_TRAJECTORY`]) — [`ModelCheckRecord`]
//!   rows from the parallel model-checking sweeps (PR 6);
//! * `BENCH_pr7.json` ([`FRONTIER_TRAJECTORY`]) — [`FrontierRecord`]
//!   rows from the frontier-engine and representation experiments:
//!   steps/sec *and* bytes/node + bytes/half-edge for the flat
//!   CSR path (historical rows pair it with the retired map-backed
//!   path);
//! * `BENCH_pr8.json` ([`FRONTIER_FAMILY_TRAJECTORY`]) —
//!   [`FrontierRecord`] rows for **every** algorithm family: the
//!   same shape as `BENCH_pr7.json`, one row per family × instance size
//!   (historical rows also carry a map-backed row per pair);
//! * `BENCH_pr9.json` ([`OBS_TRAJECTORY`]) — [`ObsOverheadRecord`]
//!   rows from the observability overhead series (PR 9): the same
//!   frontier run measured with `lr-obs` off vs recording, so the
//!   "disabled tracing is free" claim is a gated trajectory, not a
//!   comment;
//! * `BENCH_pr10.json` ([`SERVE_TRAJECTORY`]) — [`ServeRecord`] rows
//!   from the resident serve loop (PR 10): one row per `lr serve` run
//!   with the sustained request rate and the steady-state
//!   latency/hops/stretch percentiles under open-loop load.
//!
//! The file name is caller-chosen ([`trajectory_path_named`],
//! [`append_records_to`], [`load_records_from`]); the original
//! `BENCH_pr3.json`-specific helpers survive as thin wrappers. Writers
//! read-modify-write the whole array; readers fail loudly on malformed
//! content — CI runs the parse as a gate so a trajectory can never rot
//! silently.

use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// One throughput measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Which harness produced the record (`exp_throughput`,
    /// `bench_throughput`).
    pub bench: String,
    /// Measurement series: `seq_zero_alloc` (zero-allocation pipeline),
    /// `parallel` (plan-phase fan-out), or in historical rows
    /// `seq_alloc` (the retired allocating step reference).
    ///
    /// The series names outlived a change of subject: the first 122
    /// rows of `BENCH_pr3.json` time the retired map-backed engines,
    /// with `parallel` sharding snapshot chunks; every later row times
    /// the frontier engines, with `parallel` sharding node ranges. A
    /// step between the two is a change of engine, not a performance
    /// shift.
    pub series: String,
    /// Algorithm name as reported by the engine ("PR", "GB-triple", …).
    pub algorithm: String,
    /// Instance family ("alternating_chain", …).
    pub family: String,
    /// Node count of the instance.
    pub n: usize,
    /// Worker threads (1 for the sequential series).
    pub threads: usize,
    /// CPUs available to the process when the record was taken —
    /// parallel scaling numbers are meaningless without it (a
    /// single-core container cannot show speedup, only overhead).
    pub cpus: usize,
    /// Node-steps executed in the measured run.
    pub steps: usize,
    /// Wall-clock time of the measured run, nanoseconds.
    pub elapsed_ns: u64,
    /// `steps / elapsed` — the headline throughput figure.
    pub steps_per_sec: f64,
    /// Whether the run was taken in `LR_BENCH_SMOKE=1` one-sample mode
    /// (smoke numbers keep the file well-formed but are not meaningful
    /// measurements).
    pub smoke: bool,
}

impl BenchRecord {
    /// CPUs available to this process (1 when undetectable).
    pub fn available_cpus() -> usize {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    }

    /// Computes the derived throughput field from `steps`/`elapsed_ns`.
    pub fn throughput(steps: usize, elapsed_ns: u64) -> f64 {
        if elapsed_ns == 0 {
            0.0
        } else {
            steps as f64 * 1e9 / elapsed_ns as f64
        }
    }
}

/// One structured result row from a scenario run (PR 4): the sweep
/// runner emits one row per churn event plus one `"summary"` row per
/// `(seed, trial)` run. Appended to [`SCENARIO_TRAJECTORY`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioRecord {
    /// Scenario name from the spec.
    pub scenario: String,
    /// Protocol driven ("routing", "reversal", "tora", "mutex",
    /// "election").
    pub protocol: String,
    /// Topology family ("random", "grid", "inline", …).
    pub family: String,
    /// Node count of the instance.
    pub n: usize,
    /// Undirected edge count of the instance.
    pub edges: usize,
    /// Base seed of the run (from the spec's seed list).
    pub seed: u64,
    /// Trial index within the seed.
    pub trial: usize,
    /// Row kind: `"event"` for per-churn-event rows, `"summary"` for
    /// the end-of-run roll-up.
    pub row: String,
    /// Index of the churn event (for `"summary"` rows: the number of
    /// churn events executed).
    pub event_index: usize,
    /// Human-readable event description (`"fail 2 link(s)"`,
    /// `"summary"`, …).
    pub event: String,
    /// Virtual time the event fired (for summaries: end-of-run time).
    pub at: u64,
    /// Ticks from the event until the network re-quiesced (convergence
    /// time; for summaries: total virtual duration of the run). When
    /// `quiesced` is false this is the settle window — a censored
    /// measurement.
    pub convergence_ticks: u64,
    /// Whether the network actually went quiescent within the settle
    /// window. `false` marks livelock — e.g. Partial Reversal in a
    /// component cut off from the destination reverses forever (the
    /// partition problem TORA exists to solve).
    pub quiesced: bool,
    /// Packets/queries injected so far (for tora: distinct queried
    /// sources).
    pub injected: u64,
    /// Packets/queries delivered so far. Cumulative for most
    /// protocols; for tora it is the number of queried sources
    /// currently routed, which partition detection can *decrease*
    /// between rows (heights are erased on a detected partition).
    pub delivered: u64,
    /// Packets dropped (hop limit) so far.
    pub dropped: u64,
    /// Packets buffered somewhere, still undelivered.
    pub stranded: u64,
    /// `delivered / injected` (1.0 when nothing was injected).
    pub delivery_rate: f64,
    /// Mean hops over delivered packets.
    pub mean_hops: f64,
    /// Mean route stretch over delivered packets: hops divided by the
    /// shortest live path at injection time (0 when no packet was
    /// delivered).
    pub stretch: f64,
    /// Total packet revisits (transient routing loops) so far.
    pub revisits: u64,
    /// Total protocol messages handed to the network so far.
    pub messages: u64,
    /// Total reversals across nodes so far.
    pub total_reversals: u64,
    /// Largest per-node reversal count (work skew).
    pub max_node_reversals: u64,
    /// Mean per-node reversal count.
    pub mean_node_reversals: f64,
    /// Whether the protocol's structural invariant held when the row
    /// was taken (height orientation acyclic over live links / token
    /// tree oriented toward the holder) — the paper's
    /// acyclicity-under-perturbation observable.
    pub acyclic: bool,
    /// Whether the row was produced in smoke mode (shrunken run; keeps
    /// the file well-formed but is not a meaningful measurement).
    pub smoke: bool,
}

/// One streaming summary row from the matrix-sweep executor (PR 5):
/// either one matrix point's aggregate over its `seeds × trials` cells
/// (`row = "point"`) or the whole sweep's roll-up (`row = "sweep"`).
/// Appended to [`SWEEP_TRAJECTORY`].
///
/// Deliberately **no thread-count field**: the executor's contract is
/// that a sweep's merged rows are bit-identical at every `--threads`
/// value, and the rows are what the equivalence suite compares
/// byte-for-byte.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRecord {
    /// Sweep name (the base spec's `name`).
    pub sweep: String,
    /// Row kind: `"point"` per matrix point, `"sweep"` for the roll-up.
    pub row: String,
    /// Canonical matrix index of the point (row-major over the axes;
    /// the point count for the `"sweep"` row).
    pub point_index: usize,
    /// Human-readable point label
    /// (`routing|random(n=16,extra=10)|d1j0l0.05|x2`; `"sweep"` for the
    /// roll-up).
    pub label: String,
    /// Protocol of the point (`"*"` for the roll-up).
    pub protocol: String,
    /// Topology family of the point (`"*"` for the roll-up).
    pub family: String,
    /// Global default link delay of the point (0 for the roll-up).
    pub delay: u64,
    /// Global default link jitter of the point (0 for the roll-up).
    pub jitter: u64,
    /// Global default link loss of the point (0 for the roll-up).
    pub loss: f64,
    /// Random-churn intensity multiplier of the point (0 for the
    /// roll-up).
    pub churn_scale: u64,
    /// Cells folded into this row (`seeds × trials` per point).
    pub cells: usize,
    /// Seeds swept (after smoke shrinking).
    pub seeds: usize,
    /// Trials per seed (after smoke shrinking).
    pub trials: usize,
    /// Convergence observations (one per event row of every cell).
    pub conv_count: u64,
    /// Mean convergence ticks.
    pub conv_mean: f64,
    /// Population std-dev of convergence ticks.
    pub conv_std: f64,
    /// Median convergence ticks (fixed-grid sketch estimate).
    pub conv_p50: f64,
    /// 90th-percentile convergence ticks (sketch estimate).
    pub conv_p90: f64,
    /// Largest convergence observation.
    pub conv_max: f64,
    /// Mean route stretch over cells that delivered at least one
    /// priced packet (0 when none did — the sentinel `stretch = 0.0`
    /// of empty or trafficless cells is excluded, since real stretch
    /// is never below 1).
    pub stretch_mean: f64,
    /// 90th-percentile route stretch (sketch estimate, same gating).
    pub stretch_p90: f64,
    /// Mean delivery rate over *traffic-carrying* cells
    /// (`injected > 0`; 0 when the point carries no traffic —
    /// convergence-only cells' sentinel rate of 1.0 is excluded).
    pub delivery_mean: f64,
    /// Worst traffic-carrying cell's delivery rate (same gating).
    pub delivery_min: f64,
    /// Total protocol messages across cells.
    pub messages: u64,
    /// Total reversals across cells.
    pub total_reversals: u64,
    /// Whether every settle phase of every cell quiesced.
    pub quiesced_all: bool,
    /// Whether the structural acyclicity invariant held on every row of
    /// every cell.
    pub acyclic_all: bool,
    /// Whether the rows were produced in smoke mode.
    pub smoke: bool,
}

/// One model-checking measurement from the parallel verification sweeps
/// (PR 6): a full `model_check_*` battery entry at size `n`, with the
/// thread configuration it ran under. Appended to
/// [`MODEL_CHECK_TRAJECTORY`].
///
/// The `threads`/`explore_threads` fields describe only *how fast* the
/// row was produced, never *what* it contains: the parallel sweeps are
/// bit-identical to serial (enforced by the differential suites), so
/// rows for the same `(check, n, sampled_stride)` are comparable across
/// thread configurations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelCheckRecord {
    /// Which harness produced the record (`exp_model_check`,
    /// `lr modelcheck`, `model_check_scale`).
    pub bench: String,
    /// Check key (`newpr`, `onestep`, `prset`, `rprime`, `r`, `revr`,
    /// `revrprime`, `termination`).
    pub check: String,
    /// Instance size: every connected graph × acyclic orientation ×
    /// destination on `n` nodes.
    pub n: usize,
    /// Sampling stride over the instance enumeration (1 = exhaustive).
    pub sampled_stride: usize,
    /// Instances actually checked.
    pub instances: usize,
    /// Total distinct states (or simulation pairs) visited.
    pub states: usize,
    /// Total transitions traversed (or matched).
    pub transitions: usize,
    /// Wall-clock time of the sweep, nanoseconds.
    pub elapsed_ns: u64,
    /// Outer worker threads (instance fan-out).
    pub threads: usize,
    /// Inner worker threads (per-instance exploration).
    pub explore_threads: usize,
    /// CPUs available to the process when the record was taken.
    pub cpus: usize,
    /// Whether the sweep verified (no violation, no truncation).
    pub verified: bool,
    /// Whether the row was produced in `LR_BENCH_SMOKE=1` mode.
    pub smoke: bool,
}

/// One representation-scale measurement from the frontier-engine
/// experiments: an instance run through the flat CSR-native
/// engine path (`series = "frontier_engine"`), with the resident
/// representation cost alongside the throughput so the
/// bytes-per-half-edge trajectory is tracked the same way steps/sec is.
/// Rows recorded while the retired map-backed engines existed also
/// carry their `series = "map_engine"` counterparts. Appended to
/// [`FRONTIER_TRAJECTORY`] (and [`FRONTIER_FAMILY_TRAJECTORY`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrontierRecord {
    /// Which harness produced the record (`exp_throughput`).
    pub bench: String,
    /// Measurement series: `frontier_engine` (streaming CSR instance +
    /// `run_engine_frontier`), or `map_engine` in historical rows (the
    /// retired map-backed instance + engine).
    pub series: String,
    /// Algorithm name as reported by the engine ("PR").
    pub algorithm: String,
    /// Instance family ("chain_away", "grid_away").
    pub family: String,
    /// Node count of the instance.
    pub n: usize,
    /// Half-edge count (2m) of the instance.
    pub half_edges: usize,
    /// CPUs available to the process when the record was taken.
    pub cpus: usize,
    /// Node-steps executed in the measured run.
    pub steps: usize,
    /// Wall-clock time of the measured run, nanoseconds.
    pub elapsed_ns: u64,
    /// `steps / elapsed` — the throughput figure.
    pub steps_per_sec: f64,
    /// Resident bytes of the run's long-lived representation: for the
    /// after row, the frontier engine's measured footprint (CSR
    /// arrays, direction bitset, list bitset, tracker); for the before
    /// row, the retired pre-PR-7 layout's arithmetic on the same
    /// instance (per-slot `sources` array and byte-per-half-edge dirs
    /// included).
    pub resident_bytes: usize,
    /// `resident_bytes / n`.
    pub bytes_per_node: f64,
    /// `resident_bytes / half_edges` — the headline memory figure the
    /// acceptance gate bounds at 16 for the frontier engine.
    pub bytes_per_half_edge: f64,
    /// Whether the run was taken in `LR_BENCH_SMOKE=1` one-sample mode.
    pub smoke: bool,
}

/// One observability-overhead measurement (PR 9): a frontier-engine run
/// measured under a specific `lr-obs` mode. Rows come in per-instance
/// groups sharing `(algorithm, family, n)` — one `mode = "off"`
/// baseline plus one row per recording mode, each carrying its
/// slowdown relative to the group's baseline. Appended to
/// [`OBS_TRAJECTORY`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsOverheadRecord {
    /// Which harness produced the record (`exp_throughput`).
    pub bench: String,
    /// Measurement series (`obs_overhead`).
    pub series: String,
    /// Algorithm name as reported by the engine ("PR", "FR", …).
    pub algorithm: String,
    /// Instance family ("chain_away", "grid_away").
    pub family: String,
    /// Node count of the instance.
    pub n: usize,
    /// Observability mode the run was measured under (`off`, `summary`,
    /// `chrome`).
    pub mode: String,
    /// Worker threads (1 for the sequential series).
    pub threads: usize,
    /// CPUs available to the process when the record was taken.
    pub cpus: usize,
    /// Distinct metrics registered in the global registry when the
    /// session finished (counters + gauges + histograms + span stats);
    /// 0 for the `off` baseline, which never opens a session.
    pub registry_metrics: usize,
    /// Sink the session's report was rendered through (`none` for the
    /// `off` baseline, else `summary`/`json`/`chrome`). Render time is
    /// outside the measured window; the field records provenance.
    pub sink: String,
    /// Node-steps executed in the measured run.
    pub steps: usize,
    /// Wall-clock time of the measured run, nanoseconds.
    pub elapsed_ns: u64,
    /// `steps / elapsed` — the throughput figure.
    pub steps_per_sec: f64,
    /// Slowdown of this row relative to its group's `off` baseline, in
    /// percent (`(t_mode / t_off - 1) × 100`; 0 for the baseline
    /// itself). Negative values mean the run happened to beat the
    /// baseline.
    pub overhead_vs_off_pct: f64,
    /// Whether the run was taken in `LR_BENCH_SMOKE=1` one-sample mode.
    pub smoke: bool,
}

/// One resident-serve measurement (PR 10): a whole `lr serve` run —
/// an open-loop request workload admitted in per-tick batches against
/// a live protocol instance — rolled up into sustained-throughput and
/// steady-state percentile figures. Appended to [`SERVE_TRAJECTORY`].
///
/// Everything except `threads`, `cpus`, `elapsed_ns`, and
/// `requests_per_sec` is a deterministic function of
/// `(spec, seed, workload flags)`: the serve loop folds request
/// statistics in admission order no matter how many worker threads
/// answer probes, so rows for the same workload are bit-comparable
/// across thread counts (the wall-clock fields describe *how fast*,
/// never *what*).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeRecord {
    /// Which harness produced the record (`lr serve`).
    pub bench: String,
    /// Scenario name from the spec.
    pub scenario: String,
    /// Protocol served ("routing", "reversal", "tora", "mutex",
    /// "election").
    pub protocol: String,
    /// Topology family of the instance.
    pub family: String,
    /// Node count of the instance.
    pub n: usize,
    /// Undirected edge count of the instance.
    pub edges: usize,
    /// Base seed of the run.
    pub seed: u64,
    /// Open-loop generator rate, requests per simulation tick.
    pub rate: u64,
    /// Served ticks (after the spec's settle window).
    pub duration_ticks: u64,
    /// Admission batch cap per tick.
    pub batch: usize,
    /// Bounded request-queue capacity.
    pub queue: usize,
    /// Worker threads that answered probes (how fast, not what).
    pub threads: usize,
    /// CPUs available to the process when the record was taken.
    pub cpus: usize,
    /// Requests offered (generator + feed).
    pub offered: u64,
    /// Requests admitted past the bounded queue.
    pub admitted: u64,
    /// Admitted requests answered from the live orientation.
    pub answered: u64,
    /// Admitted requests with no current route (NULL height, no lower
    /// neighbor, walk exceeded its bound mid-convergence).
    pub unroutable: u64,
    /// Requests dropped by queue overflow (counted, never a panic).
    pub dropped: u64,
    /// Link fail/heal (and node crash/restore) events applied from the
    /// workload feed.
    pub link_events: u64,
    /// Median per-request latency in virtual ticks (queue wait + path
    /// delay), sketch estimate.
    pub latency_p50: f64,
    /// 90th-percentile latency (sketch estimate).
    pub latency_p90: f64,
    /// 99th-percentile latency (sketch estimate).
    pub latency_p99: f64,
    /// Mean latency (exact, from the moments accumulator).
    pub latency_mean: f64,
    /// Largest observed latency (exact).
    pub latency_max: f64,
    /// Median route length in hops (sketch estimate).
    pub hops_p50: f64,
    /// 99th-percentile route length (sketch estimate).
    pub hops_p99: f64,
    /// Mean route length (exact).
    pub hops_mean: f64,
    /// Median route stretch vs the live BFS distance (sketch
    /// estimate; 0 when the protocol has no fixed destination sink).
    pub stretch_p50: f64,
    /// 99th-percentile route stretch (sketch estimate, same caveat).
    pub stretch_p99: f64,
    /// Wall-clock time of the serve loop, nanoseconds (how fast, not
    /// what).
    pub elapsed_ns: u64,
    /// `answered / elapsed` in requests per wall-clock second — the
    /// sustained-throughput headline (how fast, not what).
    pub requests_per_sec: f64,
    /// Whether the run was taken in smoke mode.
    pub smoke: bool,
}

/// File name of the scenario trajectory at the repository root.
pub const SCENARIO_TRAJECTORY: &str = "BENCH_pr4.json";

/// File name of the resident-serve trajectory at the repository root.
pub const SERVE_TRAJECTORY: &str = "BENCH_pr10.json";

/// File name of the observability-overhead trajectory at the repository
/// root.
pub const OBS_TRAJECTORY: &str = "BENCH_pr9.json";

/// File name of the frontier/representation trajectory at the
/// repository root.
pub const FRONTIER_TRAJECTORY: &str = "BENCH_pr7.json";

/// File name of the all-families frontier trajectory at the repository
/// root: [`FrontierRecord`] rows, one per algorithm family × instance
/// size.
pub const FRONTIER_FAMILY_TRAJECTORY: &str = "BENCH_pr8.json";

/// File name of the model-checking trajectory at the repository root.
pub const MODEL_CHECK_TRAJECTORY: &str = "BENCH_pr6.json";

/// File name of the matrix-sweep trajectory at the repository root.
pub const SWEEP_TRAJECTORY: &str = "BENCH_pr5.json";

/// Path of a caller-named trajectory file at the repository root
/// (resolved from this crate's manifest directory, so it is stable no
/// matter which working directory a bench or binary runs from).
pub fn trajectory_path_named(file_name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join(file_name)
}

/// Path of the PR 3 throughput trajectory, `BENCH_pr3.json`.
pub fn trajectory_path() -> PathBuf {
    trajectory_path_named("BENCH_pr3.json")
}

/// Loads a whole trajectory file as records of type `T`. A missing or
/// empty file is an empty trajectory; malformed JSON is an error (CI
/// fails on it).
///
/// # Errors
///
/// Returns a description when the file exists but does not parse as a
/// `Vec<T>` with the vendored `serde_json`.
pub fn load_records_from<T: for<'de> Deserialize<'de>>(path: &Path) -> Result<Vec<T>, String> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    if text.trim().is_empty() {
        return Ok(Vec::new());
    }
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Loads the PR 3 throughput trajectory.
///
/// # Errors
///
/// Same as [`load_records_from`].
pub fn load_records() -> Result<Vec<BenchRecord>, String> {
    load_records_from(&trajectory_path())
}

/// Appends `records` to the trajectory at `path` (read-modify-write of
/// the whole array, pretty-printed). The rewrite goes through a temp
/// file + rename so a crash mid-write can never leave truncated JSON in
/// the committed file (which would trip the CI parse gate on an
/// unrelated change); concurrent writers still last-write-win per whole
/// file.
///
/// # Errors
///
/// Returns a description if the existing file is unreadable/malformed
/// or the rewrite fails.
pub fn append_records_to<T>(path: &Path, records: &[T]) -> Result<(), String>
where
    T: Serialize + for<'de> Deserialize<'de> + Clone,
{
    let mut all: Vec<T> = load_records_from(path)?;
    all.extend_from_slice(records);
    let json = serde_json::to_string_pretty(&all)
        .map_err(|e| format!("cannot serialize trajectory: {e}"))?;
    let tmp = path.with_extension(format!("json.tmp.{}", std::process::id()));
    fs::write(&tmp, json).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    fs::rename(&tmp, path).map_err(|e| format!("cannot rename {}: {e}", tmp.display()))
}

/// Appends `records` to the PR 3 throughput trajectory.
///
/// # Errors
///
/// Same as [`append_records_to`].
pub fn append_records(records: &[BenchRecord]) -> Result<(), String> {
    append_records_to(&trajectory_path(), records)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(series: &str, steps: usize, ns: u64) -> BenchRecord {
        BenchRecord {
            bench: "test".into(),
            series: series.into(),
            algorithm: "PR".into(),
            family: "alternating_chain".into(),
            n: 64,
            threads: 1,
            cpus: BenchRecord::available_cpus(),
            steps,
            elapsed_ns: ns,
            steps_per_sec: BenchRecord::throughput(steps, ns),
            smoke: true,
        }
    }

    #[test]
    fn records_round_trip_through_vendored_serde_json() {
        let rows = vec![
            record("seq_alloc", 1000, 2_000_000),
            record("parallel", 5, 7),
        ];
        let json = serde_json::to_string_pretty(&rows).unwrap();
        let back: Vec<BenchRecord> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn throughput_handles_zero_elapsed() {
        assert_eq!(BenchRecord::throughput(100, 0), 0.0);
        let t = BenchRecord::throughput(1_000, 1_000_000_000);
        assert!((t - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn trajectory_path_points_at_repo_root() {
        let p = trajectory_path();
        assert!(p.ends_with("BENCH_pr3.json"));
        // The parent directory must contain the workspace manifest.
        let root = p.parent().unwrap().join("Cargo.toml");
        assert!(root.exists(), "expected workspace root next to {p:?}");
    }

    #[test]
    fn named_trajectories_share_the_root() {
        let scenario = trajectory_path_named(SCENARIO_TRAJECTORY);
        assert!(scenario.ends_with("BENCH_pr4.json"));
        assert_eq!(scenario.parent(), trajectory_path().parent());
    }

    fn scenario_record(row: &str) -> ScenarioRecord {
        ScenarioRecord {
            scenario: "test".into(),
            protocol: "routing".into(),
            family: "random".into(),
            n: 16,
            edges: 20,
            seed: 7,
            trial: 0,
            row: row.into(),
            event_index: 1,
            event: "fail 2 link(s)".into(),
            at: 100,
            convergence_ticks: 42,
            quiesced: true,
            injected: 10,
            delivered: 9,
            dropped: 1,
            stranded: 0,
            delivery_rate: 0.9,
            mean_hops: 3.5,
            stretch: 1.2,
            revisits: 0,
            messages: 512,
            total_reversals: 17,
            max_node_reversals: 4,
            mean_node_reversals: 1.0625,
            acyclic: true,
            smoke: true,
        }
    }

    #[test]
    fn sweep_records_round_trip_through_vendored_serde_json() {
        let rows = vec![SweepRecord {
            sweep: "matrix-sweep".into(),
            row: "point".into(),
            point_index: 3,
            label: "routing|random(n=16,extra=10)|d1j0l0.05|x2".into(),
            protocol: "routing".into(),
            family: "random".into(),
            delay: 1,
            jitter: 0,
            loss: 0.05,
            churn_scale: 2,
            cells: 4,
            seeds: 2,
            trials: 2,
            conv_count: 16,
            conv_mean: 37.5,
            conv_std: 4.25,
            conv_p50: 36.0,
            conv_p90: 44.0,
            conv_max: 51.0,
            stretch_mean: 1.12,
            stretch_p90: 1.3,
            delivery_mean: 0.97,
            delivery_min: 0.9,
            messages: 4096,
            total_reversals: 321,
            quiesced_all: true,
            acyclic_all: true,
            smoke: false,
        }];
        let json = serde_json::to_string_pretty(&rows).unwrap();
        let back: Vec<SweepRecord> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn model_check_records_round_trip_through_vendored_serde_json() {
        let rows = vec![ModelCheckRecord {
            bench: "exp_model_check".into(),
            check: "newpr".into(),
            n: 4,
            sampled_stride: 1,
            instances: 3_160,
            states: 21_000,
            transitions: 40_000,
            elapsed_ns: 1_500_000_000,
            threads: 2,
            explore_threads: 1,
            cpus: BenchRecord::available_cpus(),
            verified: true,
            smoke: false,
        }];
        let json = serde_json::to_string_pretty(&rows).unwrap();
        let back: Vec<ModelCheckRecord> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rows);
        let mc = trajectory_path_named(MODEL_CHECK_TRAJECTORY);
        assert!(mc.ends_with("BENCH_pr6.json"));
        assert_eq!(mc.parent(), trajectory_path().parent());
    }

    #[test]
    fn frontier_records_round_trip_through_vendored_serde_json() {
        let rows = vec![FrontierRecord {
            bench: "exp_throughput".into(),
            series: "frontier_engine".into(),
            algorithm: "PR".into(),
            family: "grid_away".into(),
            n: 1_000_000,
            half_edges: 3_996_000,
            cpus: BenchRecord::available_cpus(),
            steps: 1_997_001,
            elapsed_ns: 250_000_000,
            steps_per_sec: BenchRecord::throughput(1_997_001, 250_000_000),
            resident_bytes: 58_000_000,
            bytes_per_node: 58.0,
            bytes_per_half_edge: 14.5,
            smoke: false,
        }];
        let json = serde_json::to_string_pretty(&rows).unwrap();
        let back: Vec<FrontierRecord> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rows);
        let p = trajectory_path_named(FRONTIER_TRAJECTORY);
        assert!(p.ends_with("BENCH_pr7.json"));
        assert_eq!(p.parent(), trajectory_path().parent());
        let pf = trajectory_path_named(FRONTIER_FAMILY_TRAJECTORY);
        assert!(pf.ends_with("BENCH_pr8.json"));
        assert_eq!(pf.parent(), trajectory_path().parent());
    }

    #[test]
    fn obs_overhead_records_round_trip_through_vendored_serde_json() {
        let rows = vec![ObsOverheadRecord {
            bench: "exp_throughput".into(),
            series: "obs_overhead".into(),
            algorithm: "PR".into(),
            family: "grid_away".into(),
            n: 65_536,
            mode: "summary".into(),
            threads: 1,
            cpus: BenchRecord::available_cpus(),
            registry_metrics: 6,
            sink: "summary".into(),
            steps: 130_050,
            elapsed_ns: 18_000_000,
            steps_per_sec: BenchRecord::throughput(130_050, 18_000_000),
            overhead_vs_off_pct: 1.7,
            smoke: false,
        }];
        let json = serde_json::to_string_pretty(&rows).unwrap();
        let back: Vec<ObsOverheadRecord> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rows);
        let p = trajectory_path_named(OBS_TRAJECTORY);
        assert!(p.ends_with("BENCH_pr9.json"));
        assert_eq!(p.parent(), trajectory_path().parent());
    }

    #[test]
    fn serve_records_round_trip_through_vendored_serde_json() {
        let rows = vec![ServeRecord {
            bench: "lr serve".into(),
            scenario: "serve-100k".into(),
            protocol: "routing".into(),
            family: "grid".into(),
            n: 99_856,
            edges: 199_080,
            seed: 7,
            rate: 50,
            duration_ticks: 40,
            batch: 256,
            queue: 1024,
            threads: 2,
            cpus: BenchRecord::available_cpus(),
            offered: 2_000,
            admitted: 2_000,
            answered: 1_996,
            unroutable: 4,
            dropped: 0,
            link_events: 2,
            latency_p50: 311.5,
            latency_p90: 420.25,
            latency_p99: 466.0,
            latency_mean: 317.8,
            latency_max: 471.0,
            hops_p50: 310.0,
            hops_p99: 464.0,
            hops_mean: 315.9,
            stretch_p50: 1.01,
            stretch_p99: 1.12,
            elapsed_ns: 1_250_000_000,
            requests_per_sec: 1_596.8,
            smoke: false,
        }];
        let json = serde_json::to_string_pretty(&rows).unwrap();
        let back: Vec<ServeRecord> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rows);
        let p = trajectory_path_named(SERVE_TRAJECTORY);
        assert!(p.ends_with("BENCH_pr10.json"));
        assert_eq!(p.parent(), trajectory_path().parent());
    }

    #[test]
    fn scenario_records_round_trip_through_vendored_serde_json() {
        let rows = vec![scenario_record("event"), scenario_record("summary")];
        let json = serde_json::to_string_pretty(&rows).unwrap();
        let back: Vec<ScenarioRecord> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn append_and_load_are_inverse_on_a_temp_file() {
        let path =
            std::env::temp_dir().join(format!("lr_trajectory_test_{}.json", std::process::id()));
        let _ = fs::remove_file(&path);
        assert_eq!(
            load_records_from::<ScenarioRecord>(&path).unwrap(),
            Vec::<ScenarioRecord>::new(),
            "missing file reads as empty"
        );
        append_records_to(&path, &[scenario_record("event")]).unwrap();
        append_records_to(&path, &[scenario_record("summary")]).unwrap();
        let back: Vec<ScenarioRecord> = load_records_from(&path).unwrap();
        assert_eq!(back.len(), 2, "appends accumulate");
        assert_eq!(back[0].row, "event");
        assert_eq!(back[1].row, "summary");
        fs::write(&path, "{ not json").unwrap();
        assert!(
            load_records_from::<ScenarioRecord>(&path).is_err(),
            "malformed content must be a loud error"
        );
        let _ = fs::remove_file(&path);
    }
}
