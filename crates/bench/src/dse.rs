//! The `dse_sweep` experiment: strict option parsing, driver wiring and
//! deterministic report rendering for design-space explorations.
//!
//! ```text
//! dse_sweep [pipeline flags: --width --seed --images --cal --classes --operand-width]
//!           [--macros 2,4,8] [--compartments a,b] [--dbmus a,b] [--rows 32,64]
//!           [--freqs 250,500] [--feature-kb a,b] [--weight-kb a,b] [--meta-kb a,b]
//!           [--models alexnet,vgg19] [--widths 4,8] [--pruning 0.3,s0.5]
//!           [--sparsity base,hybrid]
//!           [--fidelity] [--snapshot <path>] [--limit-points <n>]
//!           [--batch <n>] [--threads <n>]
//! ```
//!
//! The rendered report (stdout) is a pure function of the computed results —
//! timings and cache counters go to stderr — so the CI resume smoke test can
//! `diff` a cold run against a resumed one.

use std::fmt::Write as _;

use db_pim::prelude::*;
use db_pim::PipelineError;
use dbpim_serve::options::{parse_list, parse_value};

use crate::{pct, ExperimentOptions, OptionsError};

/// Strictly parsed `dse_sweep` command line: the shared pipeline flags plus
/// the grid axes and driver controls.
#[derive(Debug, Clone, PartialEq)]
pub struct DseSweepOptions {
    /// The shared pipeline flags (`--width`, `--seed`, ...).
    pub base: ExperimentOptions,
    /// Macro-count axis (empty = the paper value).
    pub macros: Vec<usize>,
    /// Compartments-per-macro axis.
    pub compartments: Vec<usize>,
    /// DBMU-columns axis.
    pub dbmus: Vec<usize>,
    /// Rows-per-DBMU axis.
    pub rows: Vec<usize>,
    /// Frequency axis in MHz.
    pub freqs: Vec<f64>,
    /// Feature-buffer axis in KB.
    pub feature_kb: Vec<usize>,
    /// Weight-buffer axis in KB.
    pub weight_kb: Vec<usize>,
    /// Meta-buffer axis in KB.
    pub meta_kb: Vec<usize>,
    /// Models to explore (empty = all five paper models).
    pub models: Vec<ModelKind>,
    /// Operand-width axis (empty = the `--operand-width` value).
    pub widths: Vec<OperandWidth>,
    /// Value-level pruning axis (empty = no pruning): `0.3` for an
    /// unstructured fraction, `s0.5` for structured per-channel removal.
    pub pruning: Vec<PruningSpec>,
    /// Sparsity configurations (empty = all four).
    pub sparsity: Vec<SparsityConfig>,
    /// Evaluate fidelity where defined.
    pub fidelity: bool,
    /// Snapshot path to persist to and resume from.
    pub snapshot: Option<String>,
    /// Compute at most this many missing points this run.
    pub limit_points: Option<usize>,
    /// Points per persisted batch.
    pub batch: Option<usize>,
    /// Worker threads.
    pub threads: Option<usize>,
}

impl DseSweepOptions {
    /// The grid / driver flags this parser understands on top of
    /// [`ExperimentOptions::FLAGS`].
    pub const FLAGS: [&'static str; 16] = [
        "--macros",
        "--compartments",
        "--dbmus",
        "--rows",
        "--freqs",
        "--feature-kb",
        "--weight-kb",
        "--meta-kb",
        "--models",
        "--widths",
        "--pruning",
        "--sparsity",
        "--snapshot",
        "--limit-points",
        "--batch",
        "--threads",
    ];

    /// One-line usage text for the binary.
    pub const USAGE: &'static str = "usage: dse_sweep [--width <f32>] [--seed <u64>] \
         [--images <n>] [--cal <n>] [--classes <n>] [--operand-width <4|8|12|16>] \
         [--macros a,b] [--compartments a,b] [--dbmus a,b] [--rows a,b] [--freqs a,b] \
         [--feature-kb a,b] [--weight-kb a,b] [--meta-kb a,b] [--models a,b] \
         [--widths 4,8,...] [--pruning 0.3,s0.5,...] [--sparsity base,hybrid,...] [--fidelity] \
         [--snapshot <path>] [--limit-points <n>] [--batch <n>] [--threads <n>] \
         [--trace-out <path>] [--log-level error|warn|info|debug]";

    /// Parses options from an explicit argument list. Unknown flags are
    /// ignored; a known flag with a missing or malformed value is an error.
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] naming the offending flag.
    pub fn from_slice(args: &[String]) -> Result<Self, OptionsError> {
        let base = ExperimentOptions::from_slice(args)?;
        let mut options = Self {
            base,
            macros: Vec::new(),
            compartments: Vec::new(),
            dbmus: Vec::new(),
            rows: Vec::new(),
            freqs: Vec::new(),
            feature_kb: Vec::new(),
            weight_kb: Vec::new(),
            meta_kb: Vec::new(),
            models: Vec::new(),
            widths: Vec::new(),
            pruning: Vec::new(),
            sparsity: Vec::new(),
            fidelity: false,
            snapshot: None,
            limit_points: None,
            batch: None,
            threads: None,
        };
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if flag == "--fidelity" {
                options.fidelity = true;
                i += 1;
                continue;
            }
            if !Self::FLAGS.contains(&flag) {
                i += 1;
                continue;
            }
            let raw = args.get(i + 1).ok_or_else(|| OptionsError {
                flag: flag.to_string(),
                message: "missing value".to_string(),
            })?;
            match flag {
                "--macros" => options.macros = parse_list(flag, raw)?,
                "--compartments" => options.compartments = parse_list(flag, raw)?,
                "--dbmus" => options.dbmus = parse_list(flag, raw)?,
                "--rows" => options.rows = parse_list(flag, raw)?,
                "--freqs" => options.freqs = parse_list(flag, raw)?,
                "--feature-kb" => options.feature_kb = parse_list(flag, raw)?,
                "--weight-kb" => options.weight_kb = parse_list(flag, raw)?,
                "--meta-kb" => options.meta_kb = parse_list(flag, raw)?,
                "--models" => options.models = parse_list(flag, raw)?,
                "--widths" => options.widths = parse_list(flag, raw)?,
                "--pruning" => options.pruning = parse_list(flag, raw)?,
                "--sparsity" => options.sparsity = parse_list(flag, raw)?,
                "--snapshot" => options.snapshot = Some(raw.clone()),
                "--limit-points" => options.limit_points = Some(parse_value(flag, raw)?),
                "--batch" => options.batch = Some(parse_value(flag, raw)?),
                "--threads" => options.threads = Some(parse_value(flag, raw)?),
                _ => unreachable!("flag list and match arms agree"),
            }
            i += 2;
        }
        Ok(options)
    }

    /// The exploration spec these options describe. Buffer axes given in KB
    /// are converted to bytes here.
    #[must_use]
    pub fn spec(&self) -> DseSpec {
        let kb = |values: &[usize]| values.iter().map(|v| v * 1024).collect::<Vec<_>>();
        let mut grid = ArchGrid::around(ArchConfig::paper());
        grid.macros = self.macros.clone();
        grid.compartments_per_macro = self.compartments.clone();
        grid.dbmus_per_compartment = self.dbmus.clone();
        grid.rows_per_dbmu = self.rows.clone();
        grid.frequency_mhz = self.freqs.clone();
        grid.feature_buffer_bytes = kb(&self.feature_kb);
        grid.weight_buffer_bytes = kb(&self.weight_kb);
        grid.meta_buffer_bytes = kb(&self.meta_kb);
        let models =
            if self.models.is_empty() { ModelKind::all().to_vec() } else { self.models.clone() };
        let mut spec = DseSpec::new(grid, models)
            .with_widths(self.widths.clone())
            .with_pruning(self.pruning.clone());
        if !self.sparsity.is_empty() {
            spec = spec.with_sparsity(self.sparsity.clone());
        }
        if self.fidelity {
            spec = spec.with_fidelity();
        }
        spec
    }

    /// A driver configured from these options.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] for an unusable pipeline
    /// configuration.
    pub fn driver(&self) -> Result<DseDriver, PipelineError> {
        let mut driver = DseDriver::new(self.base.pipeline_config())?;
        if let Some(path) = &self.snapshot {
            driver = driver.with_snapshot(path);
        }
        if let Some(limit) = self.limit_points {
            driver = driver.with_point_limit(limit);
        }
        if let Some(batch) = self.batch {
            driver = driver.with_batch_size(batch);
        }
        if let Some(threads) = self.threads {
            driver = driver.with_threads(threads);
        }
        Ok(driver)
    }
}

/// Renders a [`DseReport`] as a deterministic text table: one row per
/// (point, sparsity run) plus a Pareto-frontier section per model.
///
/// The output is a pure function of the results — no timestamps, wall
/// times or cache counters — so two runs over the same grid (cold, or
/// resumed from a half-deleted snapshot) render byte-identical reports.
#[must_use]
pub fn render_report(report: &DseReport) -> String {
    let area = AreaModel::calibrated_28nm();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "DSE sweep - {} of {} grid points ({} models x {} widths x geometries)",
        report.entries.len(),
        report.total_points,
        report.spec.unique_models().len(),
        report.spec.effective_widths(OperandWidth::Int8).len(),
    );
    let _ = writeln!(
        out,
        "{:<16} {:>6} {:>7} {:>5} {:>6} {:>5} {:>6} | {:<16} {:>12} {:>10} {:>10} {:>8}",
        "model",
        "width",
        "macros",
        "comp",
        "dbmus",
        "rows",
        "MHz",
        "sparsity",
        "cycles",
        "lat (ms)",
        "uJ",
        "speedup"
    );
    for entry in &report.entries {
        let has_baseline = entry.result.run(SparsityConfig::DenseBaseline).is_some();
        for run in &entry.result.runs {
            let speedup = if has_baseline {
                format!("{:.2}x", entry.result.speedup(run.sparsity))
            } else {
                "n/a".to_string()
            };
            // An active pruning spec rides in the width cell (`int8/u0.50`);
            // unpruned rows keep the historical rendering byte-for-byte.
            let width_cell = if entry.pruning.is_active() {
                format!("{}/{}", entry.width, entry.pruning.label())
            } else {
                entry.width.to_string()
            };
            let _ = writeln!(
                out,
                "{:<16} {:>6} {:>7} {:>5} {:>6} {:>5} {:>6} | {:<16} {:>12} {:>10.4} {:>10.3} {:>8}",
                entry.kind.name(),
                width_cell,
                entry.arch.macros,
                entry.arch.compartments_per_macro,
                entry.arch.dbmus_per_compartment,
                entry.arch.rows_per_dbmu,
                entry.arch.frequency_mhz,
                run.sparsity.to_string(),
                run.total_cycles(),
                run.latency_ms(),
                run.total_energy_uj(),
                speedup,
            );
        }
    }
    for kind in report.spec.unique_models() {
        for sparsity in report.spec.unique_sparsity() {
            let frontier = report.pareto_frontier(kind, sparsity);
            if frontier.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "pareto frontier [{} / {}] (latency, energy, area{}):",
                kind.name(),
                sparsity,
                if report.spec.fidelity { ", fidelity" } else { "" },
            );
            for (index, metrics) in frontier {
                let entry = &report.entries[index];
                let pruning_tag = if entry.pruning.is_active() {
                    format!(" [{}]", entry.pruning.label())
                } else {
                    String::new()
                };
                let _ = writeln!(
                    out,
                    "  {} @ {}{}: {} macros x {} rows @ {} MHz — {:.4} ms, {:.3} uJ, {:.4} mm2, loss {}",
                    entry.kind.name(),
                    entry.width,
                    pruning_tag,
                    entry.arch.macros,
                    entry.arch.rows_per_dbmu,
                    entry.arch.frequency_mhz,
                    metrics.latency_ms,
                    metrics.energy_uj,
                    area.total_mm2(&entry.arch),
                    pct(metrics.fidelity_loss),
                );
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn grid_and_driver_flags_parse_strictly() {
        let options = DseSweepOptions::from_slice(&args(&[
            "--width",
            "0.25",
            "--classes",
            "10",
            "--macros",
            "2,4,8",
            "--rows",
            "32,64",
            "--freqs",
            "250,500",
            "--weight-kb",
            "32,64",
            "--models",
            "alexnet,mobilenet-v2",
            "--widths",
            "4,8",
            "--sparsity",
            "base,hybrid",
            "--snapshot",
            "/tmp/dse.json",
            "--limit-points",
            "24",
            "--batch",
            "4",
            "--threads",
            "2",
            "--fidelity",
        ]))
        .unwrap();
        assert!((options.base.width_mult - 0.25).abs() < 1e-6);
        assert_eq!(options.macros, vec![2, 4, 8]);
        assert_eq!(options.rows, vec![32, 64]);
        assert_eq!(options.freqs, vec![250.0, 500.0]);
        assert_eq!(options.weight_kb, vec![32, 64]);
        assert_eq!(options.models, vec![ModelKind::AlexNet, ModelKind::MobileNetV2]);
        assert_eq!(options.widths, vec![OperandWidth::Int4, OperandWidth::Int8]);
        assert_eq!(
            options.sparsity,
            vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity]
        );
        assert_eq!(options.snapshot.as_deref(), Some("/tmp/dse.json"));
        assert_eq!(options.limit_points, Some(24));
        assert_eq!(options.batch, Some(4));
        assert_eq!(options.threads, Some(2));
        assert!(options.fidelity);

        let spec = options.spec();
        assert_eq!(spec.grid.macros, vec![2, 4, 8]);
        assert_eq!(spec.grid.weight_buffer_bytes, vec![32 * 1024, 64 * 1024]);
        assert_eq!(spec.points(OperandWidth::Int8, PruningSpec::none()).unwrap().len(), 2 * 2 * 24);
        assert!(spec.fidelity);
    }

    #[test]
    fn malformed_grid_values_are_rejected_not_swallowed() {
        let err = DseSweepOptions::from_slice(&args(&["--macros", "2,x"])).unwrap_err();
        assert_eq!(err.flag, "--macros");
        assert!(err.message.contains('x'), "{err}");

        let err = DseSweepOptions::from_slice(&args(&["--freqs"])).unwrap_err();
        assert_eq!(err.flag, "--freqs");
        assert!(err.to_string().contains("missing"), "{err}");

        let err = DseSweepOptions::from_slice(&args(&["--models", "lenet"])).unwrap_err();
        assert_eq!(err.flag, "--models");

        // Shared pipeline flags stay strict too.
        let err = DseSweepOptions::from_slice(&args(&["--operand-width", "10"])).unwrap_err();
        assert_eq!(err.flag, "--operand-width");
    }

    #[test]
    fn defaults_cover_the_paper_models_on_the_paper_point() {
        let options = DseSweepOptions::from_slice(&args(&[])).unwrap();
        let spec = options.spec();
        assert_eq!(spec.models.len(), 5);
        assert_eq!(spec.grid, ArchGrid::around(ArchConfig::paper()));
        assert_eq!(spec.points(OperandWidth::Int8, PruningSpec::none()).unwrap().len(), 5);
        assert_eq!(spec.sparsity, SparsityConfig::all().to_vec());
        assert!(!spec.fidelity);
    }

    #[test]
    fn rendered_report_is_deterministic_for_identical_results() {
        let config = db_pim::PipelineConfig::fast().without_fidelity();
        let driver = DseDriver::new(config).unwrap();
        let spec = DseSpec::new(
            ArchGrid::around(ArchConfig::paper()).with_macros(vec![2, 4]),
            vec![ModelKind::MobileNetV2],
        )
        .with_sparsity(vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity]);
        let first = driver.run(&spec).unwrap();
        let second = driver.run(&spec).unwrap();
        assert!(first.results_match(&second));
        let rendered = render_report(&first);
        assert_eq!(rendered, render_report(&second), "rendering leaked non-determinism");
        assert!(rendered.contains("pareto frontier"));
        assert!(rendered.contains("MobileNetV2"));
    }
}
