//! The DB-PIM end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-zoo|warm-grid|served-mix|fleet-grid> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Every workload runs the ×0.25 zoo models through the repository's
//! public API, checks every output, and prints one JSON line last on
//! stdout: with `--trace 0` the end-to-end metrics (host time, measured
//! with tracing off), with `--trace 1` the per-layer metrics of a traced
//! run. `perfbench/README.md` says why each workload exists and which
//! end-to-end metric each layer metric should move.

mod cold;
mod grid;
mod ledger;
mod measure;
mod served;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use db_pim::PipelineConfig;

use crate::measure::{hd_quantile, median, peak_rss_mb, OpLog};

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("nn.build_ms", "ms"),
    ("nn.quantize_ms", "ms"),
    ("tensor.batch_ms", "ms"),
    ("tensor.prune_ms", "ms"),
    ("fta.approx_ms", "ms"),
    ("fta.stats_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("core.prepare_unattributed_ms", "ms"),
    ("core.input_sparsity_ms", "ms"),
    ("core.artifact_hits", "count"),
    ("core.artifact_misses", "count"),
    ("core.program_hits", "count"),
    ("core.program_misses", "count"),
    ("compiler.extract_ms", "ms"),
    ("compiler.compile_ms", "ms"),
    ("compiler.instructions", "count"),
    ("sim.simulate_us", "us"),
    ("sim.layers", "count"),
    ("sim.ns_per_layer", "ns"),
    ("serve.RunModel.rtt_ms", "ms"),
    ("serve.RunModel.handle_ms", "ms"),
    ("serve.RunModel.wire_ms", "ms"),
    ("serve.Sweep.rtt_ms", "ms"),
    ("serve.Sweep.handle_ms", "ms"),
    ("serve.Sweep.wire_ms", "ms"),
    ("serve.Ping.rtt_ms", "ms"),
    ("serve.Ping.handle_ms", "ms"),
    ("serve.Ping.wire_ms", "ms"),
    ("serve.Stats.rtt_ms", "ms"),
    ("serve.Stats.handle_ms", "ms"),
    ("serve.Stats.wire_ms", "ms"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("fleet.point_ms", "ms"),
    ("fleet.remote_ms", "ms"),
    ("fleet.dispatch_ms", "ms"),
    ("fleet.retried_attempts", "count"),
    ("fleet.reassigned_points", "count"),
    ("trace.overhead_pct", "%"),
];

/// Output digests recorded per workload and seed (see README.md).
const DIGESTS: &str = include_str!("../digests.json");

/// Where traced runs write their Chrome trace and ledger table.
const TRACE_DIR: &str = "perfbench/out";

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh session per op: prepare → compile → simulate.
    ColdZoo,
    /// One DSE point per op against prepared artifacts.
    WarmGrid,
    /// A closed-loop request mix against an in-process daemon.
    ServedMix,
    /// The warm grid dispatched by the fleet driver to two daemons.
    FleetGrid,
}

impl Workload {
    const ALL: [(Workload, &'static str); 4] = [
        (Workload::ColdZoo, "cold-zoo"),
        (Workload::WarmGrid, "warm-grid"),
        (Workload::ServedMix, "served-mix"),
        (Workload::FleetGrid, "fleet-grid"),
    ];

    fn name(self) -> &'static str {
        Self::ALL.iter().find(|(w, _)| *w == self).map(|(_, name)| *name).expect("listed")
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// How long the measured phase runs (whole units; see `run_units`).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// One set-up instead of several, for the benchmark's own tests.
    pub smoke: bool,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut smoke = false;
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag}: missing value"))?;
            let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => {
                    let found = Workload::ALL.iter().find(|(_, name)| *name == value);
                    workload = Some(found.ok_or_else(|| bad("a workload name"))?.0);
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let parsed: f64 = value.parse().map_err(|_| bad("a number"))?;
                    if !(parsed > 0.0 && parsed <= 600.0) {
                        return Err(bad("a number of seconds in (0, 600]"));
                    }
                    seconds = Some(parsed);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    });
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(42),
            seconds: seconds.unwrap_or(20.0),
            trace: trace.unwrap_or(false),
            smoke,
        })
    }

    /// The pipeline every workload runs: the ×0.25 zoo at 10 classes, one
    /// calibration image, no fidelity evaluation. The workload seed seeds
    /// the synthetic weights and calibration data.
    #[must_use]
    pub fn pipeline(&self) -> PipelineConfig {
        let mut config = PipelineConfig::fast().without_fidelity();
        config.calibration_images = 1;
        config.seed = self.seed;
        config
    }

    fn budget(&self) -> Duration {
        let seconds = if self.trace { self.seconds / 2.0 } else { self.seconds };
        Duration::from_secs_f64(seconds)
    }
}

/// The per-layer metrics of a traced run. The first value recorded for a
/// name wins, so a workload's own measurement takes precedence over the
/// shared probes that fill in the layers it does not exercise.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records `value` under `name` unless a value is already there.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_insert(value);
    }

    /// Whether `name` has a value.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }

    /// Records the cache counters a workload saw during its traced phase.
    pub fn set_cache(&mut self, stats: db_pim::SessionCacheStats) {
        self.set("core.artifact_hits", stats.artifact_hits as f64);
        self.set("core.artifact_misses", stats.artifact_misses as f64);
        self.set("core.program_hits", stats.program_hits as f64);
        self.set("core.program_misses", stats.program_misses as f64);
    }
}

/// Counter difference `after − before`, for cache snapshots around a phase.
#[must_use]
pub fn cache_delta(
    before: db_pim::SessionCacheStats,
    after: db_pim::SessionCacheStats,
) -> db_pim::SessionCacheStats {
    db_pim::SessionCacheStats {
        artifact_hits: after.artifact_hits - before.artifact_hits,
        artifact_misses: after.artifact_misses - before.artifact_misses,
        program_hits: after.program_hits - before.program_hits,
        program_misses: after.program_misses - before.program_misses,
        resident_artifacts: after.resident_artifacts,
        artifact_evictions: after.artifact_evictions - before.artifact_evictions,
    }
}

/// The outcome of a workload's own output checks.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Digest of every simulated statistic the workload produced.
    pub digest: String,
    /// Checks that ran.
    pub checks: u64,
    /// Descriptions of checks that failed.
    pub failures: Vec<String>,
}

impl Verdict {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// What every workload provides to the shared run loop.
pub trait Bench {
    /// Runs one whole unit of ops (a block or a pass). Open-ended units
    /// (the served mix) stop at their first block boundary after
    /// `deadline`.
    fn unit(&mut self, log: &mut OpLog, deadline: Instant);

    /// Called right before the traced phase starts.
    fn mark(&mut self);

    /// Records the per-layer metrics of the traced phase since `mark`.
    fn layers(&mut self, layers: &mut Layers);

    /// Checks every output against its reference and digests them.
    fn verify(&mut self) -> Verdict;
}

/// Times `reps` set-ups, keeping only the last (earlier ones are dropped
/// before the next starts, so peak memory reflects one set-up).
fn timed_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((kept.expect("at least one set-up"), median(&times)))
}

fn setup(args: &Args, reps: usize) -> Result<(Box<dyn Bench>, f64), String> {
    let (config, seed) = (args.pipeline(), args.seed);
    timed_setup(reps, || -> Result<Box<dyn Bench>, String> {
        Ok(match args.workload {
            Workload::ColdZoo => Box::new(cold::ColdZoo::setup(config, seed)?),
            Workload::WarmGrid => Box::new(grid::WarmGrid::setup(config)?),
            Workload::ServedMix => Box::new(served::ServedMix::setup(config, seed)?),
            Workload::FleetGrid => Box::new(grid::FleetGrid::setup(config)?),
        })
    })
}

/// The digest recorded for this workload and seed, if any.
fn recorded_digest(workload: Workload, seed: u64) -> Option<String> {
    let table: BTreeMap<String, BTreeMap<String, String>> =
        serde_json::from_str(DIGESTS).expect("digests.json parses");
    table.get(workload.name())?.get(&seed.to_string()).cloned()
}

/// The printed result line.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let reps = if args.smoke || args.trace { 1 } else { 3 };
    let (mut bench, setup_s) = setup(args, reps)?;
    let mut layers = Layers::default();
    let mut attempted = 0;
    let mut failed = 0;
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();

    measure::reset_peak_rss();
    let log = measure::run_units(args.budget(), |log, deadline| bench.unit(log, deadline));
    let peak_rss = peak_rss_mb();
    attempted += log.attempted;
    failed += log.failed;
    if args.trace {
        let untraced_rate = log.ops_per_s();
        let collector = ledger::start();
        bench.mark();
        let traced = measure::run_units(args.budget(), |log, deadline| bench.unit(log, deadline));
        bench.layers(&mut layers);
        attempted += traced.attempted;
        failed += traced.failed;
        let replay = cold::replay(&args.pipeline(), args.seed);
        attempted += replay.attempted;
        failed += replay.failed;
        let probe = served::probe(&args.pipeline(), &mut layers)?;
        attempted += probe.attempted;
        failed += probe.failed;
        let ledger = ledger::Ledger::finish(&collector);
        cold::replay_layers(&ledger, &replay, &mut layers);
        layers.set(
            "trace.overhead_pct",
            (untraced_rate - traced.ops_per_s()) / untraced_rate * 100.0,
        );
        let stem = format!("{}-seed{}", args.workload.name(), args.seed);
        ledger
            .write(Path::new(TRACE_DIR), &stem)
            .map_err(|e| format!("cannot write the trace ledger to {TRACE_DIR}: {e}"))?;
        eprintln!("{}", ledger.table());
        eprintln!("trace written to {TRACE_DIR}/{stem}.trace.json and .ledger.txt");
        for (name, _) in PER_LAYER {
            let value = layers.0.get(name).copied();
            values.insert(name, value.ok_or_else(|| format!("no measurement for {name}"))?);
        }
    } else {
        values.insert("setup_s", setup_s);
        values.insert("ops_per_s", log.ops_per_s());
        values.insert("op_p50_ms", hd_quantile(&log.latencies_ms, 0.5));
        values.insert("op_p90_ms", hd_quantile(&log.latencies_ms, 0.9));
        values.insert("peak_rss_mb", peak_rss);
        eprintln!(
            "{}: {} ops in {:.2} s, {} failed",
            args.workload.name(),
            log.latencies_ms.len(),
            log.elapsed.as_secs_f64(),
            log.failed
        );
    }

    let mut verdict = bench.verify();
    match recorded_digest(args.workload, args.seed) {
        Some(expected) => {
            let digest = verdict.digest.clone();
            verdict.check(expected == digest, || {
                format!("digest {digest} differs from the recorded {expected}")
            });
        }
        None => eprintln!("no digest recorded for seed {}", args.seed),
    }
    drop(bench);
    eprintln!("digest {} {} {}", args.workload.name(), args.seed, verdict.digest);
    for failure in &verdict.failures {
        eprintln!("check failed: {failure}");
    }
    attempted += verdict.checks;
    failed += verdict.failures.len() as u64;

    let declared: &[(&'static str, &'static str)] =
        if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<(&str, &str, f64)> =
        declared.iter().map(|&(name, unit)| (name, unit, values[name])).collect();
    for (name, _, value) in &metrics {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number: {value}"));
        }
    }
    Ok(Report { attempted, failed, metrics })
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cold-zoo|warm-grid|served-mix|fleet-grid> \
                 --seed <n> --seconds <s> --trace <0|1> [--smoke]"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(report) => println!("{}", report.to_json()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
