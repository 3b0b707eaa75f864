//! `cold-zoo`: every op builds a fresh session and runs one cold point
//! (prepare → compile → simulate, all four sparsity configurations), and
//! the traced run's stage replay, which calls each preparation stage's
//! public function in pipeline order.

use std::sync::Arc;
use std::time::Instant;

use db_pim::measure::measure_input_sparsity;
use db_pim::{
    BatchRunner, CodesignResult, ModelArtifacts, PipelineConfig, PipelineError, PruningSpec,
    SessionCacheStats,
};
use dbpim_compiler::{
    extract_workloads, extract_workloads_with_value_sparsity, Compiler, MappingMode,
};
use dbpim_csd::OperandWidth;
use dbpim_fta::stats::ModelFtaStats;
use dbpim_fta::ModelApprox;
use dbpim_nn::{Model, ModelKind, QuantizedModel};
use dbpim_sim::{SimConfig, Simulator, SparsityConfig};
use dbpim_tensor::random::TensorGenerator;
use dbpim_trace::span;

use crate::ledger::Ledger;
use crate::measure::{OpLog, OutputCheck, SplitMix};
use crate::{Bench, Layers, Verdict};

/// One (operand width, pruning) point of the joint sparsity space.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    /// Weight operand width.
    pub width: OperandWidth,
    /// Value-level pruning applied before quantization.
    pub pruning: PruningSpec,
}

impl Variant {
    /// {int8, int4} × {none, 0.5 unstructured}.
    #[must_use]
    pub fn all() -> [Variant; 4] {
        let half = PruningSpec::unstructured(0.5);
        [
            Variant { width: OperandWidth::Int8, pruning: PruningSpec::none() },
            Variant { width: OperandWidth::Int4, pruning: PruningSpec::none() },
            Variant { width: OperandWidth::Int8, pruning: half },
            Variant { width: OperandWidth::Int4, pruning: half },
        ]
    }

    /// The pipeline configuration of this variant.
    #[must_use]
    pub fn config(&self, base: &PipelineConfig) -> PipelineConfig {
        base.with_operand_width(self.width).with_pruning(self.pruning)
    }

    /// A short label such as `int4/u0.50`.
    #[must_use]
    pub fn label(&self) -> String {
        if self.pruning.is_active() {
            format!("{}/u{:.2}", self.width, self.pruning.fraction)
        } else {
            format!("{}/none", self.width)
        }
    }
}

/// Ops per block: each zoo model once under each variant.
const BLOCK: usize = 20;

/// The cold-zoo workload.
pub struct ColdZoo {
    config: PipelineConfig,
    /// One block of ops. Op `i` runs model `i % 5`; the seed picks which
    /// variant each model gets in each of its four slots, so every block
    /// holds the same twenty points and every run the same mix.
    block: Vec<(ModelKind, Variant)>,
    outputs: OutputCheck<db_pim::SweepEntry>,
    cache: SessionCacheStats,
}

impl ColdZoo {
    /// Draws the op order and warms the allocator and code with one cold
    /// point of the cheapest model.
    ///
    /// # Errors
    ///
    /// Propagates a failing warm-up point.
    pub fn setup(config: PipelineConfig, seed: u64) -> Result<Self, String> {
        let models = ModelKind::all();
        let mut rng = SplitMix::new(seed, 1);
        let orders: Vec<Vec<usize>> = models.iter().map(|_| rng.permutation(4)).collect();
        let block = (0..BLOCK)
            .map(|i| {
                let model = i % models.len();
                (models[model], Variant::all()[orders[model][i / models.len()]])
            })
            .collect();
        cold_point(&config, ModelKind::MobileNetV2, Variant::all()[0])
            .map_err(|e| format!("cold-zoo warm-up: {e}"))?;
        Ok(Self { config, block, outputs: OutputCheck::default(), cache: Default::default() })
    }
}

/// One cold op: a fresh session and one `run_point` through it.
fn cold_point(
    base: &PipelineConfig,
    kind: ModelKind,
    variant: Variant,
) -> Result<(db_pim::SweepEntry, SessionCacheStats), PipelineError> {
    let _op = span!("bench.op", model = kind.name(), variant = variant.label());
    let runner = {
        let _span = span!("bench.core.session");
        BatchRunner::new(variant.config(base))?.with_threads(1)
    };
    let entry = {
        let _span = span!("bench.core.run_point");
        runner.run_point(kind, variant.width, None, &SparsityConfig::all(), false)?
    };
    Ok((entry, runner.cache_stats()))
}

impl Bench for ColdZoo {
    fn unit(&mut self, log: &mut OpLog, _deadline: Instant) {
        for &(kind, variant) in &self.block {
            let start = Instant::now();
            match cold_point(&self.config, kind, variant) {
                Ok((entry, cache)) => {
                    let latency = start.elapsed();
                    self.cache.absorb(cache);
                    let key = format!("{}/{}", kind.name(), variant.label());
                    let ok = self.outputs.observe(key, entry);
                    log.record(latency, ok);
                }
                Err(e) => {
                    eprintln!("cold point {} {} failed: {e}", kind.name(), variant.label());
                    log.record_failure(start.elapsed());
                }
            }
        }
    }

    fn mark(&mut self) {
        self.cache = SessionCacheStats::default();
    }

    fn layers(&mut self, layers: &mut Layers) {
        layers.set_cache(self.cache);
    }

    fn verify(&mut self) -> Verdict {
        let mut verdict = Verdict { digest: self.outputs.digest().hex(), ..Verdict::default() };
        verdict.check(self.outputs.len() == BLOCK, || {
            format!("{} distinct cold points, expected {BLOCK}", self.outputs.len())
        });
        let mismatches = self.outputs.mismatches;
        verdict.check(mismatches == 0, || {
            format!("{mismatches} cold points differed from an earlier run of the same point")
        });
        verdict
    }
}

/// Preparation stages the replay times; `core.prepare_unattributed_ms` is
/// prepare minus their sum.
const STAGES: [&str; 8] = [
    "bench.nn.summary",
    "bench.tensor.prune",
    "bench.tensor.batch",
    "bench.nn.quantize",
    "bench.fta.approx",
    "bench.fta.stats",
    "bench.core.input_sparsity",
    "bench.compiler.extract",
];

/// What the stage replay did, beyond the spans it recorded.
#[derive(Debug, Default)]
pub struct Replay {
    /// Points replayed.
    pub attempted: u64,
    /// Points that failed or differed from `ModelArtifacts` preparation.
    pub failed: u64,
    /// Programs compiled, and their summed instruction count.
    pub programs: u64,
    pub instructions: u64,
    /// Simulator runs, and the layers they simulated.
    pub simulations: u64,
    pub simulated_layers: u64,
}

/// Replays one cold point per zoo model stage by stage and checks that the
/// assembled result equals `ModelArtifacts` preparation followed by
/// simulation. The variants rotate with the seed so all four appear.
#[must_use]
pub fn replay(base: &PipelineConfig, seed: u64) -> Replay {
    let mut replay = Replay::default();
    for (i, kind) in ModelKind::all().into_iter().enumerate() {
        let variant = Variant::all()[(i + (seed % 4) as usize) % 4];
        replay.attempted += 1;
        let what = format!("stage replay of {} {}", kind.name(), variant.label());
        match replay_point(&variant.config(base), kind, &mut replay) {
            Ok(true) => {}
            Ok(false) => {
                eprintln!("{what} differs from ModelArtifacts preparation");
                replay.failed += 1;
            }
            Err(e) => {
                eprintln!("{what} failed: {e}");
                replay.failed += 1;
            }
        }
    }
    replay
}

fn replay_point(
    config: &PipelineConfig,
    kind: ModelKind,
    replay: &mut Replay,
) -> Result<bool, PipelineError> {
    let _point = span!("bench.replay", model = kind.name());
    let model = Arc::new({
        let _span = span!("bench.nn.build");
        kind.build_with_width(config.classes, config.seed, config.width_mult)?
    });
    let reference = {
        let artifacts = {
            let _span = span!("bench.core.prepare");
            ModelArtifacts::prepare_shared(config, Arc::clone(&model))?
        };
        artifacts.codesign_result(&SparsityConfig::all(), false)?
    };

    let summary = {
        let _span = span!("bench.nn.summary");
        model.summary()?
    };
    let pruned;
    let work_model: &Model = if config.pruning.is_active() {
        let _span = span!("bench.tensor.prune");
        pruned = model.pruned(config.pruning);
        &pruned
    } else {
        &model
    };
    let shape = model.input_shape();
    let (calibration, _) = {
        let _span = span!("bench.tensor.batch");
        TensorGenerator::new(config.seed ^ 0x5eed).labelled_batch(
            config.calibration_images,
            shape[0],
            shape[1],
            shape[2],
            config.classes,
        )?
    };
    let quantized = {
        let _span = span!("bench.nn.quantize");
        QuantizedModel::quantize(work_model, &calibration)?
    };
    let approx = {
        let _span = span!("bench.fta.approx");
        if config.operand_width == OperandWidth::Int8 {
            ModelApprox::from_quantized(&quantized)?
        } else {
            ModelApprox::from_model_wide(work_model, config.operand_width)?
        }
    };
    let fta_stats = {
        let _span = span!("bench.fta.stats");
        ModelFtaStats::from_model(&approx)
    };
    let input_sparsity = {
        let _span = span!("bench.core.input_sparsity");
        measure_input_sparsity(&quantized, &calibration)?
    };
    let sparse_workloads = {
        let _span = span!("bench.compiler.extract");
        if config.pruning.is_active() {
            extract_workloads_with_value_sparsity(work_model, Some(&approx), &input_sparsity)?
        } else {
            extract_workloads(work_model, Some(&approx), &input_sparsity)?
        }
    };
    let dense_workloads = {
        let _span = span!("bench.compiler.extract");
        extract_workloads(work_model, None, &input_sparsity)?
    };

    let compiler = Compiler::with_width(config.arch, config.operand_width)?;
    let compile = |workloads, mode| {
        let _span = span!("bench.compiler.compile");
        compiler.compile(workloads, mode)
    };
    let sparse = compile(&sparse_workloads, MappingMode::DbPim)?;
    let dense = compile(&dense_workloads, MappingMode::Dense)?;
    replay.programs += 2;
    replay.instructions += (sparse.instruction_count() + dense.instruction_count()) as u64;
    let mut runs = Vec::with_capacity(4);
    for sparsity in SparsityConfig::all() {
        let simulator =
            Simulator::new(SimConfig { arch: config.arch, ..SimConfig::new(sparsity) })?;
        let program = if sparsity.weight_sparsity() { &sparse } else { &dense };
        let _span = span!("bench.sim.simulate");
        runs.push(simulator.simulate(program)?);
        replay.simulations += 1;
        replay.simulated_layers += program.layers.len() as u64;
    }
    let replayed = CodesignResult {
        model_name: model.name().to_string(),
        summary,
        fta_stats,
        fidelity: None,
        input_sparsity,
        runs,
    };
    Ok(replayed == reference)
}

/// The per-layer metrics the stage replay measured.
pub fn replay_layers(ledger: &Ledger, replay: &Replay, layers: &mut Layers) {
    for (metric, span) in [
        ("nn.build_ms", "bench.nn.build"),
        ("nn.quantize_ms", "bench.nn.quantize"),
        ("tensor.batch_ms", "bench.tensor.batch"),
        ("tensor.prune_ms", "bench.tensor.prune"),
        ("fta.approx_ms", "bench.fta.approx"),
        ("fta.stats_ms", "bench.fta.stats"),
        ("core.prepare_ms", "bench.core.prepare"),
        ("core.input_sparsity_ms", "bench.core.input_sparsity"),
        ("compiler.extract_ms", "bench.compiler.extract"),
        ("compiler.compile_ms", "bench.compiler.compile"),
    ] {
        if let Some(mean) = ledger.mean_ms(span) {
            layers.set(metric, mean);
        }
    }
    if let Some(prepare) = ledger.row("bench.core.prepare") {
        let stages: f64 = STAGES.iter().map(|name| ledger.total_ms(name)).sum();
        let unattributed = ledger.total_ms("bench.core.prepare") - stages;
        layers.set("core.prepare_unattributed_ms", unattributed / prepare.count as f64);
    }
    if replay.programs > 0 {
        layers.set("compiler.instructions", replay.instructions as f64 / replay.programs as f64);
    }
    if replay.simulations > 0 {
        let micros = ledger.total_ms("bench.sim.simulate") * 1e3;
        layers.set("sim.simulate_us", micros / replay.simulations as f64);
        layers.set("sim.layers", replay.simulated_layers as f64 / replay.simulations as f64);
        layers.set("sim.ns_per_layer", micros * 1e3 / replay.simulated_layers as f64);
    }
}
