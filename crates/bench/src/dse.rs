//! The `dse_sweep` experiment's command line: the shared pipeline and grid
//! flags plus the single-driver controls.
//!
//! ```text
//! dse_sweep [pipeline flags] [grid flags]
//!           [--snapshot <path>] [--limit-points <n>] [--batch <n>] [--threads <n>]
//!           [--trace-out <path>] [--log-level error|warn|info|debug]
//! ```
//!
//! The pipeline flags are [`pipeline_flag`]'s and the grid flags
//! [`GridOptions`]', the same blocks `dbpim-served`, `dbpim-fleet` and
//! `dbpim-cli` parse. The rendered report ([`db_pim::render_report`],
//! stdout) is a pure function of the computed results — timings and cache
//! counters go to stderr — so the CI resume smoke test can `diff` a cold run
//! against a resumed one.

use db_pim::prelude::*;
use db_pim::PipelineError;
use dbpim_serve::options::{pipeline_flag, scan, GridOptions};

use crate::{ExperimentOptions, OptionsError};

/// Strictly parsed `dse_sweep` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct DseSweepOptions {
    /// The shared pipeline flags (`--width`, `--seed`, ...).
    pub pipeline: ExperimentOptions,
    /// The shared grid flags (`--macros`, `--models`, `--sparsity`, ...).
    pub grid: GridOptions,
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
    /// Usage of the binary (the pipeline and grid flags follow on their
    /// own lines).
    pub const USAGE: &'static str = "usage: dse_sweep [pipeline flags] [grid flags] \
         [--snapshot <path>] [--limit-points <n>] [--batch <n>] [--threads <n>] \
         [--trace-out <path>] [--log-level error|warn|info|debug]";

    /// Parses options from an explicit argument list. Unknown flags are
    /// ignored; a known flag with a missing or malformed value is an error.
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] naming the offending flag.
    pub fn from_slice(args: &[String]) -> Result<Self, OptionsError> {
        let mut options = Self {
            pipeline: ExperimentOptions::paper(),
            grid: GridOptions::default(),
            snapshot: None,
            limit_points: None,
            batch: None,
            threads: None,
        };
        scan(args, |flag| {
            match flag.name() {
                "--snapshot" => options.snapshot = Some(flag.raw()?.to_string()),
                "--limit-points" => options.limit_points = Some(flag.value()?),
                "--batch" => options.batch = Some(flag.value()?),
                "--threads" => options.threads = Some(flag.value()?),
                _ => {
                    return Ok(
                        pipeline_flag(&mut options.pipeline, flag)? || options.grid.flag(flag)?
                    )
                }
            }
            Ok(true)
        })?;
        Ok(options)
    }

    /// A driver configured from these options.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::BadConfig`] for an unusable pipeline
    /// configuration.
    pub fn driver(&self) -> Result<DseDriver, PipelineError> {
        let mut driver = DseDriver::new(self.pipeline)?;
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
        assert!((options.pipeline.width_mult - 0.25).abs() < 1e-6);
        assert_eq!(options.grid.macros, vec![2, 4, 8]);
        assert_eq!(options.grid.rows, vec![32, 64]);
        assert_eq!(options.grid.freqs, vec![250.0, 500.0]);
        assert_eq!(options.grid.weight_kb, vec![32, 64]);
        assert_eq!(options.grid.models, vec![ModelKind::AlexNet, ModelKind::MobileNetV2]);
        assert_eq!(options.grid.widths, vec![OperandWidth::Int4, OperandWidth::Int8]);
        assert_eq!(
            options.grid.sparsity,
            vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity]
        );
        assert_eq!(options.snapshot.as_deref(), Some("/tmp/dse.json"));
        assert_eq!(options.limit_points, Some(24));
        assert_eq!(options.batch, Some(4));
        assert_eq!(options.threads, Some(2));
        assert!(options.grid.fidelity);

        let spec = options.grid.spec();
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
        let spec = options.grid.spec();
        assert_eq!(spec.models.len(), 5);
        assert_eq!(spec.grid, ArchGrid::around(ArchConfig::paper()));
        assert_eq!(spec.points(OperandWidth::Int8, PruningSpec::none()).unwrap().len(), 5);
        assert_eq!(spec.sparsity, SparsityConfig::all().to_vec());
        assert!(!spec.fidelity);
    }

    /// One command line means one pipeline: the daemon, `dse_sweep`, the
    /// experiment binaries and `dbpim-fleet` derive the identical
    /// configuration from the same argument list, defaults included — so
    /// a fleet mixing local workers and daemons merges points computed
    /// under one configuration.
    #[test]
    fn same_flags_give_the_same_pipeline_everywhere() {
        for argv in [
            args(&[]),
            args(&[
                "--width",
                "0.25",
                "--classes",
                "10",
                "--images",
                "0",
                "--macros",
                "2",
                "--models",
                "alexnet",
                "--sparsity",
                "hybrid",
            ]),
            args(&["--seed", "7", "--cal", "0", "--operand-width", "4", "--workers", "2"]),
        ] {
            let served = dbpim_serve::ServeOptions::from_slice(&argv).unwrap();
            let sweep = DseSweepOptions::from_slice(&argv).unwrap();
            let experiment = dbpim_serve::options::parse_pipeline(&argv).unwrap();
            let fleet = dbpim_fleet::FleetOptions::from_slice(&argv).unwrap();
            let fleet_pipeline = fleet.fleet_config(sweep.pipeline).pipeline;
            assert_eq!(sweep.pipeline, served.pipeline, "dse_sweep vs daemon on {argv:?}");
            assert_eq!(experiment, served.pipeline, "experiments vs daemon on {argv:?}");
            assert_eq!(fleet_pipeline, served.pipeline, "dbpim-fleet vs daemon on {argv:?}");
            assert_eq!(served.serve_config().pipeline, served.pipeline);
        }
    }
}
