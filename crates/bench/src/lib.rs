//! Shared infrastructure for the experiment report generators.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation section. This library provides the pieces they share: the
//! experiment options (the shared pipeline flags), the [`ExperimentContext`] (a
//! [`BatchRunner`]-backed simulation session every generator draws cached
//! artifacts from), lightweight weight-only sparsity analysis (Fig. 2(a)),
//! activation bit-column analysis (Fig. 2(b)), full sweeps (Table 2, Fig. 7,
//! Table 3) and the published reference numbers of the prior works quoted in
//! Tables 1 and 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use db_pim::measure::for_each_pim_operand;
use db_pim::prelude::*;
use db_pim::PipelineError;
use dbpim_fta::stats::{LayerFtaStats, ModelFtaStats};
use dbpim_fta::LayerApprox;
use dbpim_nn::Layer;
use dbpim_serve::options::{or_exit, parse_pipeline, PIPELINE_USAGE};
use dbpim_tensor::quant::QuantizedTensor;
use dbpim_tensor::stats::zero_bit_column_ratio;
use dbpim_trace::TraceSink;

pub mod dse;
pub mod experiments;
pub mod reference;

/// A malformed experiment command line (every command line in the
/// workspace reports flags the same way).
pub use dbpim_serve::OptionsError;

/// The experiment binaries' options: exactly the shared pipeline flags
/// (`dbpim_serve::options::pipeline_flag`), on top of
/// [`PipelineConfig::paper()`] — the same defaults as the daemon's, so one
/// command line means one pipeline in every binary.
pub type ExperimentOptions = PipelineConfig;

/// Parses the experiment options from the process arguments.
///
/// Prints the error and usage to stderr and exits with status 2 on a
/// malformed command line.
#[must_use]
pub fn options_from_args() -> ExperimentOptions {
    let args: Vec<String> = std::env::args().collect();
    let usage = "usage: [pipeline flags] [--trace-out <path>] [--log-level error|warn|info|debug]";
    or_exit(parse_pipeline(&args), &[usage, PIPELINE_USAGE])
}

/// The shared state of one experiment invocation: parsed options plus a
/// [`BatchRunner`] whose [`SimSession`] caches per-model artifacts.
///
/// Every table/figure generator takes a context, so a binary that renders
/// several reports (`all_experiments`) quantizes, approximates and compiles
/// each model exactly once, however many tables consume it. The zoo sweep
/// itself is memoized per fidelity flag, so tables sharing the same sweep
/// (Fig. 7, Table 3) do not re-simulate it.
#[derive(Debug)]
pub struct ExperimentContext {
    options: ExperimentOptions,
    runner: BatchRunner,
    /// Memoized zoo sweeps: `[without fidelity, with fidelity]`.
    zoo_sweeps: std::sync::Mutex<[Option<SweepReport>; 2]>,
}

impl ExperimentContext {
    /// Creates the context for the given options.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] for unusable option values.
    pub fn new(options: ExperimentOptions) -> Result<Self, PipelineError> {
        let runner = BatchRunner::new(options)?;
        Ok(Self { options, runner, zoo_sweeps: std::sync::Mutex::new([None, None]) })
    }

    /// The parsed command-line options.
    #[must_use]
    pub fn options(&self) -> &ExperimentOptions {
        &self.options
    }

    /// The batch runner executing sweeps for this context.
    #[must_use]
    pub fn runner(&self) -> &BatchRunner {
        &self.runner
    }

    /// The underlying simulation session (shared artifact cache).
    #[must_use]
    pub fn session(&self) -> &SimSession {
        self.runner.session()
    }

    /// The architecture geometry the experiments simulate.
    #[must_use]
    pub fn arch(&self) -> ArchConfig {
        self.session().config().arch
    }

    /// Sweeps all five paper models over the four Fig. 7 sparsity
    /// configurations, reusing cached artifacts. The report itself is
    /// memoized, so repeated calls (Fig. 7 then Table 3) return the cached
    /// sweep without re-simulating.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures.
    pub fn zoo_sweep(&self, with_fidelity: bool) -> Result<SweepReport, PipelineError> {
        let slot = usize::from(with_fidelity);
        if let Some(report) = &self.zoo_sweeps.lock().expect("sweep cache lock")[slot] {
            return Ok(report.clone());
        }
        let report = self.runner.run_with_fidelity(&SweepSpec::zoo(), with_fidelity)?;
        self.zoo_sweeps.lock().expect("sweep cache lock")[slot] = Some(report.clone());
        Ok(report)
    }
}

/// Shared `main` body of the experiment binaries: parse options, build the
/// context, render one report, print it (exit status 1 on failure).
///
/// Every experiment binary also understands `--trace-out <path>` (write a
/// Chrome trace of the run) and `--log-level <level>` — both handled here,
/// so individual generators stay oblivious to observability plumbing.
pub fn run_report_binary<F>(name: &str, generate: F)
where
    F: FnOnce(&ExperimentContext) -> Result<String, PipelineError>,
{
    let trace = trace_from_args(name);
    let options = options_from_args();
    let result = ExperimentContext::new(options).and_then(|context| generate(&context));
    finish_trace(name, trace);
    match result {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("{name} failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Applies the process arguments' `--log-level` and installs their
/// `--trace-out` sink (see [`dbpim_trace::observability_from_args`]).
///
/// Prints the error prefixed by `name` to stderr and exits with status 2 on
/// a malformed flag.
#[must_use]
pub fn trace_from_args(name: &str) -> Option<TraceSink> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dbpim_trace::observability_from_args(&args).unwrap_or_else(|e| {
        eprintln!("{name}: {e}");
        std::process::exit(2);
    })
}

/// Writes the Chrome trace of a [`trace_from_args`] sink, if one was
/// installed; a write failure is reported on stderr, prefixed by `name`.
pub fn finish_trace(name: &str, trace: Option<TraceSink>) {
    if let Some(sink) = trace {
        if let Err(e) = sink.finish() {
            eprintln!("{name}: writing the trace failed: {e}");
        }
    }
}

/// The five paper models in figure order.
#[must_use]
pub fn paper_models() -> [ModelKind; 5] {
    ModelKind::all()
}

/// Builds one zoo model under the given options.
///
/// # Errors
///
/// Propagates model-construction errors.
pub fn build_model(kind: ModelKind, options: &ExperimentOptions) -> Result<Model, PipelineError> {
    Ok(kind.build_with_width(options.classes, options.seed, options.width_mult)?)
}

/// Weight-only FTA sparsity statistics of a model (Fig. 2(a), the `U_act`
/// rows of Table 3).
///
/// This path quantizes each PIM layer's weights per output channel and runs
/// Algorithm 1 directly, without any calibration forward passes — weights
/// are all Fig. 2(a) needs.
///
/// # Errors
///
/// Propagates FTA approximation errors.
pub fn weight_sparsity_stats(model: &Model) -> Result<ModelFtaStats, PipelineError> {
    let tables = QueryTables::new();
    let mut layers = Vec::new();
    for node in model.nodes() {
        let weight = match &node.layer {
            Layer::Conv2d { weight, .. } | Layer::Linear { weight, .. } => weight,
            _ => continue,
        };
        let quantized = QuantizedTensor::quantize_per_channel(weight, 0);
        let approx =
            LayerApprox::from_weights(node.id, node.name.clone(), quantized.values(), &tables)?;
        layers.push(LayerFtaStats::from_layer(&approx));
    }
    Ok(ModelFtaStats { model_name: model.name().to_string(), layers })
}

/// Block-wise zero bit-column ratios of the input features of every PIM
/// layer, for the three group sizes Fig. 2(b) reports (1, 8 and 16).
///
/// # Errors
///
/// Propagates quantization or inference errors.
pub fn input_column_sparsity(
    model: &Model,
    options: &ExperimentOptions,
) -> Result<[f64; 3], PipelineError> {
    let mut gen = TensorGenerator::new(options.seed ^ 0xf19);
    let (images, _) = gen.labelled_batch(
        options.calibration_images.max(1),
        model.input_shape()[0],
        model.input_shape()[1],
        model.input_shape()[2],
        options.classes,
    )?;
    let quantized = QuantizedModel::quantize(model, &images)?;
    let group_sizes = [1usize, 8, 16];
    let mut sums = [0.0f64; 3];
    let mut samples = 0usize;
    for_each_pim_operand(&quantized, &images, |_, operand| {
        for (sum, &group) in sums.iter_mut().zip(&group_sizes) {
            *sum += zero_bit_column_ratio(operand, group);
        }
        samples += 1;
    })?;
    let mut out = [0.0f64; 3];
    if samples > 0 {
        for (o, s) in out.iter_mut().zip(sums.iter()) {
            *o = s / samples as f64;
        }
    }
    Ok(out)
}

/// Formats a fraction as a percentage with one decimal.
#[must_use]
pub fn pct(fraction: f64) -> String {
    format!("{:.2}%", 100.0 * fraction)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_known_flags_and_ignore_the_rest() {
        let args: Vec<String> = [
            "prog",
            "--width",
            "0.5",
            "--seed",
            "7",
            "--images",
            "4",
            "--cal",
            "3",
            "--classes",
            "10",
            "--bogus",
            "x",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let options = parse_pipeline(&args).unwrap();
        assert!((options.width_mult - 0.5).abs() < 1e-6);
        assert_eq!(options.seed, 7);
        assert_eq!(options.evaluation_images, 4);
        assert_eq!(options.calibration_images, 3);
        assert_eq!(options.classes, 10);
        let config = options;
        assert_eq!(config.classes, 10);
    }

    #[test]
    fn malformed_values_are_rejected_not_swallowed() {
        let args: Vec<String> = ["--width", "abc"].iter().map(ToString::to_string).collect();
        let err = parse_pipeline(&args).unwrap_err();
        assert_eq!(err.flag, "--width");
        assert!(err.message.contains("abc"), "{err}");

        let args: Vec<String> = ["--seed"].iter().map(ToString::to_string).collect();
        let err = parse_pipeline(&args).unwrap_err();
        assert_eq!(err.flag, "--seed");
        assert!(err.to_string().contains("missing"), "{err}");

        assert_eq!(pct(0.5), "50.00%");
    }

    #[test]
    fn operand_width_flag_accepts_supported_widths() {
        for (raw, expected) in [
            ("4", OperandWidth::Int4),
            ("8", OperandWidth::Int8),
            ("12", OperandWidth::Int12),
            ("16", OperandWidth::Int16),
            ("int12", OperandWidth::Int12),
            ("INT16", OperandWidth::Int16),
        ] {
            let args: Vec<String> =
                ["--operand-width", raw].iter().map(ToString::to_string).collect();
            let options = parse_pipeline(&args).unwrap();
            assert_eq!(options.operand_width, expected, "raw `{raw}`");
            assert_eq!(options.operand_width, expected);
        }
        // The default is the paper's INT8.
        assert_eq!(ExperimentOptions::default().operand_width, OperandWidth::Int8);
    }

    #[test]
    fn operand_width_flag_rejects_malformed_and_unsupported_values() {
        // Unsupported bit counts.
        for raw in ["0", "2", "10", "32", "-8"] {
            let args: Vec<String> =
                ["--operand-width", raw].iter().map(ToString::to_string).collect();
            let err = parse_pipeline(&args).unwrap_err();
            assert_eq!(err.flag, "--operand-width");
            assert!(err.message.contains(raw), "{err}");
        }
        // Non-numeric garbage.
        let args: Vec<String> =
            ["--operand-width", "wide"].iter().map(ToString::to_string).collect();
        let err = parse_pipeline(&args).unwrap_err();
        assert_eq!(err.flag, "--operand-width");
        assert!(err.to_string().contains("wide"), "{err}");
        // Missing value.
        let args: Vec<String> = ["--operand-width"].iter().map(ToString::to_string).collect();
        let err = parse_pipeline(&args).unwrap_err();
        assert_eq!(err.flag, "--operand-width");
        assert!(err.to_string().contains("missing"), "{err}");
        // The channel multiplier flag is unaffected: `--width` still parses
        // floats and never consumes operand widths.
        let args: Vec<String> =
            ["--width", "0.5", "--operand-width", "4"].iter().map(ToString::to_string).collect();
        let options = parse_pipeline(&args).unwrap();
        assert!((options.width_mult - 0.5).abs() < 1e-6);
        assert_eq!(options.operand_width, OperandWidth::Int4);
    }

    #[test]
    fn flag_values_are_consumed_not_reparsed_as_flags() {
        // A value that happens to look like a flag must not be re-read as
        // one (the old parser advanced one token at a time).
        let args: Vec<String> =
            ["--seed", "3", "--cal", "2"].iter().map(ToString::to_string).collect();
        let options = parse_pipeline(&args).unwrap();
        assert_eq!(options.seed, 3);
        assert_eq!(options.calibration_images, 2);
    }

    #[test]
    fn weight_stats_follow_fig2a_ordering_on_a_small_model() {
        let options =
            ExperimentOptions { width_mult: 0.25, classes: 10, ..ExperimentOptions::default() };
        let model = build_model(ModelKind::ResNet18, &options).unwrap();
        let stats = weight_sparsity_stats(&model).unwrap();
        assert!(stats.binary_zero_ratio() > 0.55);
        assert!(stats.csd_zero_ratio() >= stats.binary_zero_ratio());
        assert!(stats.fta_zero_ratio() >= stats.csd_zero_ratio());
        assert!(stats.utilization() > 0.8);
    }

    #[test]
    fn input_column_sparsity_is_monotone_in_group_size() {
        let options = ExperimentOptions {
            width_mult: 0.25,
            classes: 10,
            calibration_images: 1,
            ..ExperimentOptions::default()
        };
        let model = dbpim_nn::zoo::tiny_cnn(10, 3).unwrap();
        let [g1, g8, g16] = input_column_sparsity(&model, &options).unwrap();
        assert!(g1 >= g8 && g8 >= g16, "{g1} {g8} {g16}");
        assert!(g8 > 0.05, "group-of-8 ratio {g8}");
    }

    #[test]
    fn context_shares_one_session_across_reports() {
        let options = ExperimentOptions {
            width_mult: 0.25,
            classes: 10,
            calibration_images: 1,
            evaluation_images: 2,
            seed: 5,
            ..ExperimentOptions::default()
        };
        let context = ExperimentContext::new(options).unwrap();
        let a = context.session().artifacts(ModelKind::AlexNet).unwrap();
        let b = context.session().artifacts(ModelKind::AlexNet).unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        assert_eq!(context.arch(), ArchConfig::paper());
    }
}
