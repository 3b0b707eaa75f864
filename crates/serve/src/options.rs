//! The one command-line parser of the workspace.
//!
//! Every binary walks its argument list with [`scan`]: unknown flags are
//! skipped (so wrappers can pass extra arguments through, and one argument
//! list can feed several parsers), but a known flag with a missing or
//! malformed value is an error — silently falling back to a default would
//! mislabel every number a report prints. Duplicate flags: the last one
//! wins.
//!
//! Two flag blocks are shared by every binary that takes them, so one
//! command line always means one pipeline and one grid:
//!
//! * [`pipeline_flag`] — `--width --seed --images --cal --classes
//!   --operand-width`, on top of [`PipelineConfig::paper()`];
//! * [`GridOptions`] — the design-space axes and the model, width,
//!   pruning, sparsity and fidelity selections that build a [`DseSpec`].

use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use db_pim::{DseSpec, PipelineConfig, PruningSpec};
use dbpim_arch::ArchConfig;
use dbpim_csd::OperandWidth;
use dbpim_nn::ModelKind;
use dbpim_sim::{ArchGrid, SparsityConfig};
use dbpim_trace::LogLevel;

use crate::server::ServeConfig;

/// A malformed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptionsError {
    /// The flag at fault (e.g. `--port`).
    pub flag: String,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for OptionsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid value for `{}`: {}", self.flag, self.message)
    }
}

impl std::error::Error for OptionsError {}

/// Parses one flag value, attributing failures to the flag.
fn parse_value<T: FromStr>(flag: &str, raw: &str) -> Result<T, OptionsError>
where
    T::Err: fmt::Display,
{
    raw.parse().map_err(|e: T::Err| OptionsError {
        flag: flag.to_string(),
        message: format!("`{raw}` — {e}"),
    })
}

/// One `--flag` met by [`scan`], with on-demand access to its value.
#[derive(Debug)]
pub struct Flag<'a> {
    name: &'a str,
    next: Option<&'a str>,
    took_value: bool,
}

impl<'a> Flag<'a> {
    /// The flag as written (e.g. `--port`).
    #[must_use]
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// Consumes the argument after the flag, whatever it looks like.
    ///
    /// # Errors
    ///
    /// Returns a "missing value" [`OptionsError`] when the flag is last.
    pub fn raw(&mut self) -> Result<&'a str, OptionsError> {
        self.took_value = true;
        self.next.ok_or_else(|| OptionsError {
            flag: self.name.to_string(),
            message: "missing value".to_string(),
        })
    }

    /// Consumes and parses the flag's value.
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] for a missing or malformed value.
    pub fn value<T: FromStr>(&mut self) -> Result<T, OptionsError>
    where
        T::Err: fmt::Display,
    {
        parse_value(self.name, self.raw()?)
    }

    /// Consumes and parses the flag's comma-separated value list, skipping
    /// empty elements.
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] for a missing value or naming the first
    /// malformed element.
    pub fn list<T: FromStr>(&mut self) -> Result<Vec<T>, OptionsError>
    where
        T::Err: fmt::Display,
    {
        let raw = self.raw()?;
        raw.split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| parse_value(self.name, s))
            .collect()
    }
}

/// Walks `args` once, handing every `--flag` to `handle`, and returns the
/// positional arguments in order.
///
/// `handle` answers whether it knows the flag; a known flag takes a value
/// by calling [`Flag::raw`], [`Flag::value`] or [`Flag::list`], and a
/// known switch takes none. An unknown flag is skipped together with the
/// argument after it unless that argument is itself a flag, so an unknown
/// flag's value is never mistaken for a positional argument.
///
/// # Errors
///
/// Propagates the first error `handle` returns.
pub fn scan<'a>(
    args: &'a [String],
    mut handle: impl FnMut(&mut Flag<'a>) -> Result<bool, OptionsError>,
) -> Result<Vec<&'a str>, OptionsError> {
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let next = args.get(i + 1).map(String::as_str);
        i += 1;
        if !arg.starts_with("--") {
            positional.push(arg);
            continue;
        }
        let mut flag = Flag { name: arg, next, took_value: false };
        let known = handle(&mut flag)?;
        if flag.took_value || (!known && next.is_some_and(|value| !value.starts_with("--"))) {
            i += 1;
        }
    }
    Ok(positional)
}

/// Unwraps a parsed command line, or prints the error and `usage` (one
/// line each) to stderr and exits with status 2.
pub fn or_exit<T>(parsed: Result<T, OptionsError>, usage: &[&str]) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        for line in usage {
            eprintln!("{line}");
        }
        std::process::exit(2)
    })
}

/// Usage of the [`pipeline_flag`] block.
pub const PIPELINE_USAGE: &str = "pipeline flags: [--width <f32>] [--seed <u64>] [--images <n>] \
     [--cal <n>] [--classes <n>] [--operand-width <4|8|12|16>]";

/// The pipeline flags, applied to `pipeline`; returns whether `flag` is one
/// of them.
///
/// ```text
/// --width <f32>     channel width multiplier (default 1.0 = the paper's models)
/// --seed <u64>      synthetic-weight seed (default 42)
/// --images <usize>  evaluation images for fidelity (default 16; 0 skips it)
/// --cal <usize>     calibration images (default 4; 0 is clamped to 1)
/// --classes <usize> output classes (default 100)
/// --operand-width <4|8|12|16>  weight operand width (default 8 = the paper)
/// ```
///
/// The defaults are [`PipelineConfig::paper()`]'s, so a binary that starts
/// from it and applies this block agrees with every other binary on what a
/// command line means.
///
/// # Errors
///
/// Returns [`OptionsError`] for a missing or malformed value;
/// `--operand-width` rejects anything but the supported widths.
pub fn pipeline_flag(
    pipeline: &mut PipelineConfig,
    flag: &mut Flag<'_>,
) -> Result<bool, OptionsError> {
    match flag.name() {
        "--width" => pipeline.width_mult = flag.value()?,
        "--seed" => pipeline.seed = flag.value()?,
        "--images" => pipeline.evaluation_images = flag.value()?,
        "--cal" => pipeline.calibration_images = flag.value::<usize>()?.max(1),
        "--classes" => pipeline.classes = flag.value()?,
        "--operand-width" => pipeline.operand_width = flag.value()?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses the pipeline flags alone, ignoring every other argument.
///
/// # Errors
///
/// Returns [`OptionsError`] for a malformed pipeline flag.
pub fn parse_pipeline(args: &[String]) -> Result<PipelineConfig, OptionsError> {
    let mut pipeline = PipelineConfig::paper();
    scan(args, |flag| pipeline_flag(&mut pipeline, flag))?;
    Ok(pipeline)
}

/// Usage of the [`GridOptions`] block.
pub const GRID_USAGE: &str = "grid flags: [--macros a,b] [--compartments a,b] [--dbmus a,b] \
     [--rows a,b] [--freqs a,b] [--feature-kb a,b] [--weight-kb a,b] [--meta-kb a,b] \
     [--models a,b] [--widths 4,8,...] [--pruning none,0.3,s0.5,...] \
     [--sparsity base,hybrid,...] [--fidelity]";

/// The grid flags: what a design-space exploration covers.
///
/// ```text
/// --macros a,b        macro-count axis          --models a,b     models (default: all five)
/// --compartments a,b  compartments axis         --widths 4,8     operand-width axis
/// --dbmus a,b         DBMU-columns axis         --pruning 0.3,s0.5  value-pruning axis
/// --rows a,b          rows-per-DBMU axis        --sparsity a,b   sparsity subset
/// --freqs a,b         frequency axis (MHz)      --fidelity       evaluate fidelity
/// --feature-kb a,b    feature-buffer axis (KB)
/// --weight-kb a,b     weight-buffer axis (KB)
/// --meta-kb a,b       meta-buffer axis (KB)
/// ```
///
/// An empty axis keeps the paper value ([`ArchGrid::around`]); an empty
/// width or pruning axis keeps the pipeline's. Pruning specs are `0.3` or
/// `u0.3` for an unstructured fraction, `s0.5` for structured per-channel
/// removal, `none` for the identity.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GridOptions {
    /// Macro-count axis.
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
    /// Operand-width axis.
    pub widths: Vec<OperandWidth>,
    /// Value-level pruning axis.
    pub pruning: Vec<PruningSpec>,
    /// Sparsity configurations (empty = all four).
    pub sparsity: Vec<SparsityConfig>,
    /// Evaluate fidelity where defined.
    pub fidelity: bool,
}

impl GridOptions {
    /// Applies one grid flag; returns whether `flag` is one of them.
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] for a missing value or a malformed element.
    pub fn flag(&mut self, flag: &mut Flag<'_>) -> Result<bool, OptionsError> {
        match flag.name() {
            "--macros" => self.macros = flag.list()?,
            "--compartments" => self.compartments = flag.list()?,
            "--dbmus" => self.dbmus = flag.list()?,
            "--rows" => self.rows = flag.list()?,
            "--freqs" => self.freqs = flag.list()?,
            "--feature-kb" => self.feature_kb = flag.list()?,
            "--weight-kb" => self.weight_kb = flag.list()?,
            "--meta-kb" => self.meta_kb = flag.list()?,
            "--models" => self.models = flag.list()?,
            "--widths" => self.widths = flag.list()?,
            "--pruning" => self.pruning = flag.list()?,
            "--sparsity" => self.sparsity = flag.list()?,
            "--fidelity" => self.fidelity = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The models to run: the selection, or all five paper models.
    #[must_use]
    pub fn models_or_all(&self) -> Vec<ModelKind> {
        if self.models.is_empty() {
            ModelKind::all().to_vec()
        } else {
            self.models.clone()
        }
    }

    /// The exploration spec these flags describe. Buffer axes given in KB
    /// are converted to bytes here.
    #[must_use]
    pub fn spec(&self) -> DseSpec {
        let kb = |values: &[usize]| values.iter().map(|v| v * 1024).collect::<Vec<_>>();
        let grid = ArchGrid {
            macros: self.macros.clone(),
            compartments_per_macro: self.compartments.clone(),
            dbmus_per_compartment: self.dbmus.clone(),
            rows_per_dbmu: self.rows.clone(),
            frequency_mhz: self.freqs.clone(),
            feature_buffer_bytes: kb(&self.feature_kb),
            weight_buffer_bytes: kb(&self.weight_kb),
            meta_buffer_bytes: kb(&self.meta_kb),
            ..ArchGrid::around(ArchConfig::paper())
        };
        let mut spec = DseSpec::new(grid, self.models_or_all())
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
}

/// Command-line options of the `dbpim-served` daemon.
///
/// ```text
/// --addr <ip>       bind address (default 127.0.0.1)
/// --port <u16>      bind port (default 7531; 0 picks a free port)
/// --threads <n>     worker threads (default 4)
/// [pipeline flags] `--width --seed --images --cal --classes --operand-width`
///                   (see `pipeline_flag`); `--operand-width` is the
///                   default width of requests that name none
/// --cache-cap <n>   LRU cap on resident prepared models per (width,
///                   pruning) variant (default unbounded; 0 is clamped to 1)
/// --auth-token <s>  shared secret clients must present via Auth (default
///                   none: open daemon)
/// --max-frame-bytes <n>  request-line size limit; longer frames are
///                   answered FrameTooLarge and disconnected (default 1 MiB)
/// --max-pending <n> admission-control backlog bound once every worker is
///                   busy (default 64)
/// --max-client-conns <n>  per-client-IP cap on open connections (default
///                   unlimited)
/// --log-level <error|warn|info|debug>  stderr log verbosity (default info)
/// --trace-dir <dir> install a trace collector and dump a Chrome trace JSON
///                   into <dir> every N requests (default off)
/// --trace-every <n> requests per --trace-dir dump (default 64)
/// --trace-buffer <spans>  install a trace collector bounded to <spans>
///                   spans, held for remote collection via TraceSnapshot
///                   requests instead of file dumps (default off; ignored
///                   when --trace-dir is set)
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Bind address.
    pub addr: String,
    /// Bind port (`0` picks a free one).
    pub port: u16,
    /// Worker threads.
    pub threads: usize,
    /// The pipeline configuration the daemon's artifact cache derives from.
    pub pipeline: PipelineConfig,
    /// LRU cap on resident prepared models per (width, pruning) variant of
    /// the artifact cache.
    pub cache_cap: Option<usize>,
    /// Shared secret clients must present; `None` runs an open daemon.
    pub auth_token: Option<String>,
    /// Request-line size limit in bytes.
    pub max_frame_bytes: usize,
    /// Admission-control backlog bound.
    pub max_pending: usize,
    /// Per-client-IP cap on simultaneously open connections.
    pub max_client_conns: Option<usize>,
    /// Stderr log verbosity.
    pub log_level: LogLevel,
    /// Directory periodic Chrome trace dumps are written into.
    pub trace_dir: Option<PathBuf>,
    /// Requests per `trace_dir` dump.
    pub trace_every: u64,
    /// Span capacity of the remote-collection trace buffer.
    pub trace_buffer: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1".to_string(),
            port: 7531,
            threads: 4,
            pipeline: PipelineConfig::paper(),
            cache_cap: None,
            auth_token: None,
            max_frame_bytes: ServeConfig::DEFAULT_MAX_FRAME_BYTES,
            max_pending: ServeConfig::DEFAULT_MAX_PENDING,
            max_client_conns: None,
            log_level: LogLevel::Info,
            trace_dir: None,
            trace_every: ServeConfig::DEFAULT_TRACE_EVERY,
            trace_buffer: None,
        }
    }
}

impl ServeOptions {
    /// Usage of the daemon binary (the pipeline flags follow on their own
    /// line, [`PIPELINE_USAGE`]).
    pub const USAGE: &'static str = "usage: dbpim-served [--addr <ip>] [--port <u16>] \
         [--threads <n>] [pipeline flags] [--cache-cap <n>] [--auth-token <secret>] \
         [--max-frame-bytes <n>] [--max-pending <n>] [--max-client-conns <n>] \
         [--log-level <error|warn|info|debug>] [--trace-dir <dir>] [--trace-every <n>] \
         [--trace-buffer <spans>]";

    /// Parses options from the process arguments, exiting with status 2 and
    /// usage on stderr for a malformed command line.
    #[must_use]
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        or_exit(Self::from_slice(&args), &[Self::USAGE, PIPELINE_USAGE])
    }

    /// Parses options from an explicit argument list.
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] when a known flag has a missing or
    /// malformed value. Unknown arguments are ignored.
    pub fn from_slice(args: &[String]) -> Result<Self, OptionsError> {
        let mut options = Self::default();
        scan(args, |flag| {
            match flag.name() {
                "--addr" => options.addr = flag.raw()?.to_string(),
                "--port" => options.port = flag.value()?,
                "--threads" => options.threads = flag.value::<usize>()?.max(1),
                "--cache-cap" => options.cache_cap = Some(flag.value::<usize>()?.max(1)),
                "--auth-token" => options.auth_token = Some(flag.raw()?.to_string()),
                "--max-frame-bytes" => options.max_frame_bytes = flag.value::<usize>()?.max(1),
                "--max-pending" => options.max_pending = flag.value()?,
                "--max-client-conns" => {
                    options.max_client_conns = Some(flag.value::<usize>()?.max(1));
                }
                "--log-level" => options.log_level = flag.value()?,
                "--trace-dir" => options.trace_dir = Some(PathBuf::from(flag.raw()?)),
                "--trace-every" => options.trace_every = flag.value::<u64>()?.max(1),
                "--trace-buffer" => options.trace_buffer = Some(flag.value::<usize>()?.max(1)),
                _ => return pipeline_flag(&mut options.pipeline, flag),
            }
            Ok(true)
        })?;
        Ok(options)
    }

    /// The serving configuration equivalent to these options.
    #[must_use]
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            addr: format!("{}:{}", self.addr, self.port),
            threads: self.threads,
            poll_interval: Duration::from_millis(200),
            pipeline: self.pipeline,
            cache_cap: self.cache_cap,
            auth_token: self.auth_token.clone(),
            max_frame_bytes: self.max_frame_bytes,
            max_pending_connections: self.max_pending,
            max_connections_per_client: self.max_client_conns,
            metrics: None,
            trace_dir: self.trace_dir.clone(),
            trace_every: self.trace_every,
            trace_buffer: self.trace_buffer,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_serving_and_pipeline_flags_and_ignores_the_rest() {
        let options = ServeOptions::from_slice(&args(&[
            "dbpim-served",
            "--addr",
            "0.0.0.0",
            "--port",
            "0",
            "--threads",
            "2",
            "--width",
            "0.25",
            "--seed",
            "7",
            "--images",
            "0",
            "--cal",
            "1",
            "--classes",
            "10",
            "--operand-width",
            "int4",
            "--bogus",
            "x",
        ]))
        .unwrap();
        assert_eq!(options.addr, "0.0.0.0");
        assert_eq!(options.port, 0);
        assert_eq!(options.threads, 2);
        assert!((options.pipeline.width_mult - 0.25).abs() < 1e-6);
        assert_eq!(options.pipeline.seed, 7);
        assert_eq!(options.pipeline.evaluation_images, 0);
        assert_eq!(options.pipeline.calibration_images, 1);
        assert_eq!(options.pipeline.classes, 10);
        assert_eq!(options.pipeline.operand_width, OperandWidth::Int4);
        assert_eq!(options.serve_config().addr, "0.0.0.0:0");
        assert_eq!(options.serve_config().threads, 2);
    }

    #[test]
    fn malformed_values_are_rejected_not_swallowed() {
        let err = ServeOptions::from_slice(&args(&["--port", "notaport"])).unwrap_err();
        assert_eq!(err.flag, "--port");
        assert!(err.message.contains("notaport"), "{err}");

        let err = ServeOptions::from_slice(&args(&["--port", "65536"])).unwrap_err();
        assert_eq!(err.flag, "--port");

        let err = ServeOptions::from_slice(&args(&["--threads"])).unwrap_err();
        assert_eq!(err.flag, "--threads");
        assert!(err.to_string().contains("missing"), "{err}");

        let err = ServeOptions::from_slice(&args(&["--operand-width", "10"])).unwrap_err();
        assert_eq!(err.flag, "--operand-width");
    }

    #[test]
    fn cache_cap_parses_strictly_and_clamps_zero() {
        let options = ServeOptions::from_slice(&args(&["--cache-cap", "3"])).unwrap();
        assert_eq!(options.cache_cap, Some(3));
        assert_eq!(options.serve_config().cache_cap, Some(3));
        // A zero cap would cache nothing and silently degrade every request
        // to a cold build; clamp it like `--threads 0`.
        let options = ServeOptions::from_slice(&args(&["--cache-cap", "0"])).unwrap();
        assert_eq!(options.cache_cap, Some(1));
        let err = ServeOptions::from_slice(&args(&["--cache-cap", "lots"])).unwrap_err();
        assert_eq!(err.flag, "--cache-cap");
        assert_eq!(ServeOptions::default().cache_cap, None, "unbounded by default");
    }

    #[test]
    fn hardening_flags_parse_strictly() {
        let options = ServeOptions::from_slice(&args(&[
            "--auth-token",
            "fleet-secret",
            "--max-frame-bytes",
            "4096",
            "--max-pending",
            "8",
            "--max-client-conns",
            "2",
        ]))
        .unwrap();
        assert_eq!(options.auth_token.as_deref(), Some("fleet-secret"));
        assert_eq!(options.max_frame_bytes, 4096);
        assert_eq!(options.max_pending, 8);
        assert_eq!(options.max_client_conns, Some(2));
        let config = options.serve_config();
        assert_eq!(config.auth_token.as_deref(), Some("fleet-secret"));
        assert_eq!(config.max_frame_bytes, 4096);
        assert_eq!(config.max_pending_connections, 8);
        assert_eq!(config.max_connections_per_client, Some(2));

        // Defaults: open daemon, 1 MiB frames, 64 pending, no per-client cap.
        let defaults = ServeOptions::default();
        assert_eq!(defaults.auth_token, None);
        assert_eq!(defaults.max_frame_bytes, ServeConfig::DEFAULT_MAX_FRAME_BYTES);
        assert_eq!(defaults.max_pending, ServeConfig::DEFAULT_MAX_PENDING);
        assert_eq!(defaults.max_client_conns, None);

        let err = ServeOptions::from_slice(&args(&["--max-frame-bytes", "big"])).unwrap_err();
        assert_eq!(err.flag, "--max-frame-bytes");
        let err = ServeOptions::from_slice(&args(&["--auth-token"])).unwrap_err();
        assert_eq!(err.flag, "--auth-token");
        assert!(err.to_string().contains("missing"), "{err}");
        // Zero would make every frame oversized / cap everyone out.
        let options =
            ServeOptions::from_slice(&args(&["--max-frame-bytes", "0", "--max-client-conns", "0"]))
                .unwrap();
        assert_eq!(options.max_frame_bytes, 1);
        assert_eq!(options.max_client_conns, Some(1));
    }

    #[test]
    fn trace_buffer_parses_strictly_and_clamps_zero() {
        let options = ServeOptions::from_slice(&args(&["--trace-buffer", "4096"])).unwrap();
        assert_eq!(options.trace_buffer, Some(4096));
        assert_eq!(options.serve_config().trace_buffer, Some(4096));
        // A zero-span buffer would drop everything it exists to keep.
        let options = ServeOptions::from_slice(&args(&["--trace-buffer", "0"])).unwrap();
        assert_eq!(options.trace_buffer, Some(1));
        let err = ServeOptions::from_slice(&args(&["--trace-buffer", "lots"])).unwrap_err();
        assert_eq!(err.flag, "--trace-buffer");
        assert_eq!(ServeOptions::default().trace_buffer, None, "off by default");
    }

    #[test]
    fn defaults_match_the_paper_pipeline() {
        let options = ServeOptions::from_slice(&args(&[])).unwrap();
        assert_eq!(options, ServeOptions::default());
        assert_eq!(options.pipeline, PipelineConfig::paper());
        assert_eq!(options.serve_config().addr, "127.0.0.1:7531");
        // Zero threads is clamped: a daemon with no workers would hang.
        let options = ServeOptions::from_slice(&args(&["--threads", "0"])).unwrap();
        assert_eq!(options.threads, 1);
    }
}
