//! Strict command-line parsing for the fleet-specific flags.
//!
//! ```text
//! --workers <n>           local in-process workers (default: 1 when no
//!                         endpoints are given, else 0)
//! --endpoints a:p,b:p     remote dbpim-served endpoints, one worker each
//! --snapshot-dir <dir>    per-shard snapshots + merged report; enables resume
//! --fleet-id <name>       identifier shard-tagged requests carry
//! --auth-token <secret>   shared secret presented to every remote daemon
//! --point-timeout-ms <n>  remote per-point deadline / liveness timeout
//! --retries <n>           attempts per point before the run aborts
//! ```
//!
//! The `dbpim-fleet` binary layers these on top of `dse_sweep`'s pipeline
//! and grid flags; both parsers read the same argument list through the
//! workspace's one scanner ([`dbpim_serve::options::scan`]), each skipping
//! the other's flags.

use std::path::PathBuf;
use std::time::Duration;

use db_pim::PipelineConfig;
use dbpim_serve::options::{scan, OptionsError};

use crate::driver::FleetConfig;
use crate::worker::WorkerSpec;

/// Parsed fleet flags.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOptions {
    /// Local in-process workers (`None` = default: 1 without endpoints,
    /// 0 with).
    pub workers: Option<usize>,
    /// Remote daemon endpoints, one worker each.
    pub endpoints: Vec<String>,
    /// Snapshot directory (enables persistence and resume).
    pub snapshot_dir: Option<PathBuf>,
    /// Fleet identifier override.
    pub fleet_id: Option<String>,
    /// Shared secret presented to every remote daemon.
    pub auth_token: Option<String>,
    /// Per-point timeout in milliseconds.
    pub point_timeout_ms: u64,
    /// Attempts per point before the run aborts.
    pub retries: usize,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            workers: None,
            endpoints: Vec::new(),
            snapshot_dir: None,
            fleet_id: None,
            auth_token: None,
            point_timeout_ms: 120_000,
            retries: 3,
        }
    }
}

impl FleetOptions {
    /// One-line usage fragment (the binary prepends the grid/pipeline
    /// flags).
    pub const USAGE: &'static str = "[--workers <n>] [--endpoints host:port,...] \
         [--snapshot-dir <dir>] [--fleet-id <name>] [--auth-token <secret>] \
         [--point-timeout-ms <n>] [--retries <n>]";

    /// Parses the fleet flags from an explicit argument list. Unknown
    /// arguments are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`OptionsError`] when a known flag has a missing or
    /// malformed value.
    pub fn from_slice(args: &[String]) -> Result<Self, OptionsError> {
        let mut options = Self::default();
        scan(args, |flag| {
            match flag.name() {
                "--workers" => options.workers = Some(flag.value()?),
                "--endpoints" => {
                    let raw = flag.raw()?;
                    options.endpoints = raw
                        .split(',')
                        .map(str::trim)
                        .filter(|part| !part.is_empty())
                        .map(ToString::to_string)
                        .collect();
                    if options.endpoints.is_empty() {
                        return Err(OptionsError {
                            flag: flag.name().to_string(),
                            message: format!("`{raw}` names no endpoints"),
                        });
                    }
                }
                "--snapshot-dir" => options.snapshot_dir = Some(PathBuf::from(flag.raw()?)),
                "--fleet-id" => options.fleet_id = Some(flag.raw()?.to_string()),
                "--auth-token" => options.auth_token = Some(flag.raw()?.to_string()),
                "--point-timeout-ms" => {
                    options.point_timeout_ms = flag.value::<u64>()?.max(1);
                }
                "--retries" => options.retries = flag.value::<usize>()?.max(1),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        Ok(options)
    }

    /// The worker roster: one remote worker per endpoint (in request
    /// order), then the local workers. With neither endpoints nor an
    /// explicit `--workers`, a single local worker keeps the binary useful
    /// out of the box.
    #[must_use]
    pub fn worker_specs(&self) -> Vec<WorkerSpec> {
        let locals = self.workers.unwrap_or(usize::from(self.endpoints.is_empty()));
        let mut specs: Vec<WorkerSpec> =
            self.endpoints.iter().cloned().map(WorkerSpec::Remote).collect();
        specs.extend(std::iter::repeat_n(WorkerSpec::Local, locals));
        specs
    }

    /// The fleet configuration these options describe for `pipeline`.
    #[must_use]
    pub fn fleet_config(&self, pipeline: PipelineConfig) -> FleetConfig {
        let mut config = FleetConfig::new(pipeline, self.worker_specs())
            .with_point_timeout(Duration::from_millis(self.point_timeout_ms))
            .with_max_point_attempts(self.retries);
        if let Some(dir) = &self.snapshot_dir {
            config = config.with_snapshot_dir(dir);
        }
        if let Some(fleet_id) = &self.fleet_id {
            config = config.with_fleet_id(fleet_id.clone());
        }
        if let Some(token) = &self.auth_token {
            config = config.with_auth_token(token.clone());
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn fleet_flags_parse_strictly_and_ignore_the_rest() {
        let options = FleetOptions::from_slice(&args(&[
            "--width",
            "0.25",
            "--workers",
            "2",
            "--endpoints",
            "127.0.0.1:7641, 127.0.0.1:7642",
            "--snapshot-dir",
            "/tmp/fleet",
            "--fleet-id",
            "ci-run",
            "--auth-token",
            "sesame",
            "--point-timeout-ms",
            "5000",
            "--retries",
            "5",
        ]))
        .unwrap();
        assert_eq!(options.workers, Some(2));
        assert_eq!(options.endpoints, vec!["127.0.0.1:7641", "127.0.0.1:7642"]);
        assert_eq!(options.snapshot_dir, Some(PathBuf::from("/tmp/fleet")));
        assert_eq!(options.fleet_id.as_deref(), Some("ci-run"));
        assert_eq!(options.auth_token.as_deref(), Some("sesame"));
        assert_eq!(options.point_timeout_ms, 5000);
        assert_eq!(options.retries, 5);
        // Remotes first, then the locals.
        assert_eq!(
            options.worker_specs(),
            vec![
                WorkerSpec::Remote("127.0.0.1:7641".to_string()),
                WorkerSpec::Remote("127.0.0.1:7642".to_string()),
                WorkerSpec::Local,
                WorkerSpec::Local,
            ]
        );
        let config = options.fleet_config(PipelineConfig::fast());
        assert_eq!(config.fleet_id, "ci-run");
        assert_eq!(config.auth_token.as_deref(), Some("sesame"));
        assert_eq!(config.point_timeout, Duration::from_millis(5000));
        assert_eq!(config.max_point_attempts, 5);
    }

    #[test]
    fn worker_roster_defaults_depend_on_endpoints() {
        let bare = FleetOptions::from_slice(&args(&[])).unwrap();
        assert_eq!(bare.worker_specs(), vec![WorkerSpec::Local], "one local worker by default");

        let remote_only =
            FleetOptions::from_slice(&args(&["--endpoints", "127.0.0.1:7641"])).unwrap();
        assert_eq!(
            remote_only.worker_specs(),
            vec![WorkerSpec::Remote("127.0.0.1:7641".to_string())],
            "endpoints displace the default local worker"
        );

        let mixed =
            FleetOptions::from_slice(&args(&["--endpoints", "127.0.0.1:7641", "--workers", "1"]))
                .unwrap();
        assert_eq!(mixed.worker_specs().len(), 2);
    }

    #[test]
    fn malformed_fleet_values_are_rejected_not_swallowed() {
        let err = FleetOptions::from_slice(&args(&["--workers", "two"])).unwrap_err();
        assert_eq!(err.flag, "--workers");

        let err = FleetOptions::from_slice(&args(&["--endpoints", " , "])).unwrap_err();
        assert_eq!(err.flag, "--endpoints");

        let err = FleetOptions::from_slice(&args(&["--retries"])).unwrap_err();
        assert_eq!(err.flag, "--retries");
        assert!(err.to_string().contains("missing"), "{err}");

        // Zero-valued knobs that would hang or never run are clamped.
        let options =
            FleetOptions::from_slice(&args(&["--retries", "0", "--point-timeout-ms", "0"]))
                .unwrap();
        assert_eq!(options.retries, 1);
        assert_eq!(options.point_timeout_ms, 1);
    }
}
