//! `warm-grid` and `fleet-grid`: the same 180-point DSE grid, computed
//! in-process against prepared artifacts and dispatched by the fleet
//! driver to two daemons. The fleet probe used by other workloads' traced
//! runs lives here too.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use db_pim::session::par::par_map;
use db_pim::{BatchRunner, DseDriver, DseEntry, DsePoint, DseReport, DseSpec, PipelineConfig};
use db_pim::{PruningSpec, SessionCacheStats};
use dbpim_arch::ArchConfig;
use dbpim_csd::OperandWidth;
use dbpim_fleet::{FleetConfig, FleetDriver, FleetEvent, FleetStats, WorkerSpec};
use dbpim_nn::ModelKind;
use dbpim_serve::protocol::ServerStats;
use dbpim_sim::ArchGrid;
use dbpim_trace::span;

use crate::measure::{OpLog, OutputCheck};
use crate::served::{handle_micros, Daemon};
use crate::{cache_delta, Bench, Layers, Verdict};

/// The grid both workloads run: macros {2,4,8,16} × rows {32,64,128} ×
/// compartments {8,16,32} around the paper geometry, over the five zoo
/// models and all four sparsity configurations — 180 points.
#[must_use]
pub fn grid_spec() -> DseSpec {
    let grid = ArchGrid::around(ArchConfig::paper())
        .with_macros(vec![2, 4, 8, 16])
        .with_rows(vec![32, 64, 128])
        .with_compartments(vec![8, 16, 32]);
    DseSpec::new(grid, ModelKind::all().to_vec())
}

fn points(spec: &DseSpec) -> Result<Vec<DsePoint>, String> {
    spec.points(OperandWidth::Int8, PruningSpec::none()).map_err(|e| e.to_string())
}

/// An entry with its timestamp cleared, so repeated runs compare equal.
fn untimed(entry: DseEntry) -> DseEntry {
    DseEntry { computed_at_ms: 0, ..entry }
}

/// The key of point `index` in canonical order; both grid workloads use it,
/// so their digests agree when their results do.
fn point_key(index: usize) -> String {
    format!("{index:04}")
}

/// The in-process warm grid.
pub struct WarmGrid {
    runner: Arc<BatchRunner>,
    points: Vec<DsePoint>,
    outputs: OutputCheck<DseEntry>,
    before: SessionCacheStats,
}

impl WarmGrid {
    /// Prepares the five models' artifacts on two threads.
    ///
    /// # Errors
    ///
    /// Propagates configuration and preparation failures.
    pub fn setup(config: PipelineConfig) -> Result<Self, String> {
        let runner = Arc::new(BatchRunner::new(config).map_err(|e| e.to_string())?);
        par_map(ModelKind::all().to_vec(), 2, |kind| {
            let _span = span!("bench.core.artifacts", model = kind.name());
            runner.session().artifacts(kind).map_err(|e| format!("{}: {e}", kind.name()))
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        let points = points(&grid_spec())?;
        Ok(Self { runner, points, outputs: OutputCheck::default(), before: Default::default() })
    }
}

impl Bench for WarmGrid {
    /// One pass over the grid on two threads; each op is a one-point
    /// `DseDriver::run`. The first pass compiles every geometry, later
    /// passes hit the program cache.
    fn unit(&mut self, log: &mut OpLog, _deadline: Instant) {
        let done = par_map(self.points.iter().enumerate().collect(), 2, |(index, point)| {
            let spec = DseSpec::new(ArchGrid::around(point.arch), vec![point.kind]);
            let start = Instant::now();
            let result = {
                let _span = span!("bench.core.dse_run", model = point.kind.name());
                DseDriver::from_runner(Arc::clone(&self.runner)).with_threads(1).run(&spec)
            };
            let latency = start.elapsed();
            let entry = match result {
                Ok(mut report) if report.entries.len() == 1 => {
                    Ok(untimed(report.entries.pop().expect("one entry")))
                }
                Ok(report) => Err(format!("{} entries for one point", report.entries.len())),
                Err(e) => Err(e.to_string()),
            };
            (index, latency, entry)
        });
        for (index, latency, entry) in done {
            match entry {
                Ok(entry) => log.record(latency, self.outputs.observe(point_key(index), entry)),
                Err(e) => {
                    eprintln!("grid point {index} failed: {e}");
                    log.record_failure(latency);
                }
            }
        }
    }

    fn mark(&mut self) {
        self.before = self.runner.cache_stats();
    }

    fn layers(&mut self, layers: &mut Layers) {
        layers.set_cache(cache_delta(self.before, self.runner.cache_stats()));
    }

    fn verify(&mut self) -> Verdict {
        grid_verdict(&self.outputs, self.points.len())
    }
}

fn grid_verdict(outputs: &OutputCheck<DseEntry>, points: usize) -> Verdict {
    let mut verdict = Verdict { digest: outputs.digest().hex(), ..Verdict::default() };
    verdict.check(outputs.len() == points, || {
        format!("{} of {points} grid points computed", outputs.len())
    });
    verdict.check(outputs.mismatches == 0, || {
        format!("{} grid points differed between passes", outputs.mismatches)
    });
    verdict
}

/// One fleet run over `spec`, with per-point latencies taken from the
/// driver's progress events: each point costs the time since its worker's
/// previous completion (or since the worker became ready).
struct FleetPass {
    report: DseReport,
    stats: FleetStats,
    latencies: Vec<std::time::Duration>,
}

fn fleet_pass(
    config: &PipelineConfig,
    addrs: [String; 2],
    spec: &DseSpec,
) -> Result<FleetPass, String> {
    let events: Arc<Mutex<Vec<(usize, Instant)>>> = Arc::default();
    let sink = Arc::clone(&events);
    let workers = addrs.into_iter().map(WorkerSpec::Remote).collect();
    let driver = FleetDriver::new(FleetConfig::new(*config, workers).with_fleet_id("perfbench"))
        .with_observer(move |event| {
            if let FleetEvent::WorkerReady { worker, .. } | FleetEvent::PointDone { worker, .. } =
                event
            {
                sink.lock().expect("event log").push((*worker, Instant::now()));
            }
        });
    let outcome = {
        let _span = span!("bench.fleet.run", points = spec.grid.point_count());
        driver.run(spec).map_err(|e| e.to_string())?
    };
    let mut events = std::mem::take(&mut *events.lock().expect("event log"));
    events.sort_by_key(|&(worker, at)| (worker, at));
    let latencies = events
        .windows(2)
        .filter(|pair| pair[0].0 == pair[1].0)
        .map(|pair| pair[1].1 - pair[0].1)
        .collect();
    let mut report = outcome.report;
    report.sort_canonical();
    Ok(FleetPass { report, stats: outcome.stats, latencies })
}

/// Fleet counters accumulated over the passes of a traced phase.
#[derive(Debug, Default)]
struct FleetTally {
    point_micros: u64,
    points: u64,
    retried: u64,
    reassigned: u64,
}

impl FleetTally {
    fn add(&mut self, stats: &FleetStats) {
        self.point_micros += stats.point_latency.total_micros;
        self.points += stats.point_latency.count;
        self.retried += stats.retried_attempts as u64;
        self.reassigned += stats.reassigned_points as u64;
    }

    /// Records the fleet metrics; `remote` is the daemons' `Explore`
    /// handling time over the same points, in microseconds per request.
    fn set(&self, remote: f64, layers: &mut Layers) {
        let point = self.point_micros as f64 / self.points.max(1) as f64;
        layers.set("fleet.point_ms", point / 1e3);
        layers.set("fleet.remote_ms", remote / 1e3);
        layers.set("fleet.dispatch_ms", (point - remote) / 1e3);
        layers.set("fleet.retried_attempts", self.retried as f64);
        layers.set("fleet.reassigned_points", self.reassigned as f64);
    }
}

/// Mean `Explore` handling time across daemons between two snapshots each.
fn explore_micros(before: &[ServerStats], after: &[ServerStats]) -> f64 {
    let (mut count, mut total) = (0, 0);
    for (b, a) in before.iter().zip(after) {
        let (c, t) = handle_micros(b, a, "Explore");
        count += c;
        total += t;
    }
    total as f64 / count.max(1) as f64
}

/// The grid dispatched by `FleetDriver` to two single-worker daemons.
pub struct FleetGrid {
    config: PipelineConfig,
    daemons: [Daemon; 2],
    spec: DseSpec,
    points: usize,
    outputs: OutputCheck<DseEntry>,
    first: Option<DseReport>,
    tally: FleetTally,
    before: Vec<ServerStats>,
}

impl FleetGrid {
    /// Spawns two daemons with one worker thread each and warms every model
    /// on both, in parallel.
    ///
    /// # Errors
    ///
    /// Propagates spawn and warm-up failures.
    pub fn setup(config: PipelineConfig) -> Result<Self, String> {
        let daemons = [Daemon::spawn(&config, 1, None)?, Daemon::spawn(&config, 1, None)?];
        std::thread::scope(|scope| {
            let handles: Vec<_> = daemons
                .iter()
                .map(|daemon| {
                    scope.spawn(|| {
                        let warm: Vec<_> = ModelKind::all()
                            .iter()
                            .map(|&kind| (kind, config.operand_width))
                            .collect();
                        daemon.warm(&warm)
                    })
                })
                .collect();
            handles.into_iter().try_for_each(|h| h.join().expect("warm-up thread"))
        })?;
        let spec = grid_spec();
        let points = points(&spec)?.len();
        Ok(Self {
            config,
            daemons,
            spec,
            points,
            outputs: OutputCheck::default(),
            first: None,
            tally: FleetTally::default(),
            before: Vec::new(),
        })
    }

    fn daemon_stats(&self) -> Vec<ServerStats> {
        self.daemons.iter().filter_map(|d| d.stats().ok()).collect()
    }
}

impl Bench for FleetGrid {
    /// One fleet run over the whole grid; each op is one point.
    fn unit(&mut self, log: &mut OpLog, _deadline: Instant) {
        let addrs = [self.daemons[0].addr(), self.daemons[1].addr()];
        match fleet_pass(&self.config, addrs, &self.spec) {
            Ok(pass) => {
                for latency in pass.latencies {
                    log.record(latency, true);
                }
                for (index, entry) in pass.report.entries.iter().enumerate() {
                    if !self.outputs.observe(point_key(index), untimed(entry.clone())) {
                        log.failed += 1;
                    }
                }
                let missing = self.points.saturating_sub(pass.report.entries.len()) as u64;
                log.attempted += missing;
                log.failed += missing;
                self.tally.add(&pass.stats);
                self.first.get_or_insert(pass.report);
            }
            Err(e) => {
                eprintln!("fleet run failed: {e}");
                log.attempted += self.points as u64;
                log.failed += self.points as u64;
            }
        }
    }

    fn mark(&mut self) {
        self.tally = FleetTally::default();
        self.before = self.daemon_stats();
    }

    fn layers(&mut self, layers: &mut Layers) {
        let after = self.daemon_stats();
        self.tally.set(explore_micros(&self.before, &after), layers);
        let mut cache = SessionCacheStats::default();
        for (b, a) in self.before.iter().zip(&after) {
            cache.absorb(cache_delta(b.cache, a.cache));
        }
        layers.set_cache(cache);
    }

    /// Besides the pass-to-pass check, the fleet's report must match a
    /// single in-process `DseDriver` run of the same grid.
    fn verify(&mut self) -> Verdict {
        let mut verdict = grid_verdict(&self.outputs, self.points);
        let reference = DseDriver::new(self.config)
            .map(|driver| driver.with_threads(2))
            .and_then(|driver| driver.run(&self.spec));
        match (&self.first, reference) {
            (Some(fleet), Ok(reference)) => verdict.check(fleet.results_match(&reference), || {
                "the fleet report does not match the in-process grid".to_string()
            }),
            (None, _) => verdict.check(false, || "no fleet run completed".to_string()),
            (_, Err(e)) => verdict.check(false, || format!("in-process reference failed: {e}")),
        }
        verdict
    }
}

/// The fleet probe for traced runs of workloads without a fleet: one run
/// of a 12-point grid (one model) through two workers on `daemon`.
pub fn fleet_probe(
    config: &PipelineConfig,
    daemon: &Daemon,
    layers: &mut Layers,
) -> Result<OpLog, String> {
    let grid = ArchGrid::around(ArchConfig::paper())
        .with_macros(vec![2, 4, 8, 16])
        .with_rows(vec![32, 64, 128]);
    let spec = DseSpec::new(grid, vec![ModelKind::MobileNetV2]);
    let before = [daemon.stats()?];
    let pass = fleet_pass(config, [daemon.addr(), daemon.addr()], &spec)?;
    let after = [daemon.stats()?];
    let mut tally = FleetTally::default();
    tally.add(&pass.stats);
    tally.set(explore_micros(&before, &after), layers);
    let mut log = OpLog::default();
    for latency in pass.latencies {
        log.record(latency, true);
    }
    Ok(log)
}
