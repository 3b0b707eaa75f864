//! `dbpim-cli` — command-line client for the `dbpim-served` daemon.
//!
//! ```text
//! dbpim-cli [--addr <ip>] [--port <u16>] [--auth-token <secret>] <command> [flags]
//!
//! commands:
//!   ping                       liveness + protocol-version check
//!   models                     list the servable zoo models
//!   run --model <name>         run one model (all four sparsity configs)
//!       [--sparsity <name>]    restrict to one configuration
//!       [--operand-width <w>]  override the daemon's default width
//!       [--fidelity]           request the accuracy-fidelity evaluation
//!   sweep [grid flags]         sweep models x sparsity x widths x pruning
//!                              (the grid's geometry axes do not apply)
//!   explore [grid flags]       stream a design-space exploration and print
//!                              the table `dse_sweep` prints for it
//!   stats                      daemon counters, queue depths, rejection
//!                              counts, per-request latency + cache stats
//!       [--watch <secs>]       re-poll every <secs> seconds and print a
//!                              delta/rate line per interval (req/s,
//!                              rejection rates) until interrupted
//!   metrics                    the daemon's full metrics registry in the
//!                              Prometheus text exposition format
//!   shard-status               progress of shard-tagged fleet explorations
//!   shutdown                   stop the daemon
//!
//! `run`, `sweep` and `explore` additionally accept `--deadline-ms <n>`:
//! the daemon answers with a structured `DeadlineExceeded` error instead of
//! streaming past the deadline. `--auth-token` authenticates the connection
//! before the command runs — required against a daemon started with
//! `--auth-token`, harmless against an open one.
//! ```
//!
//! The grid flags are `dse_sweep`'s (`dbpim_serve::options::GridOptions`):
//! `--macros --compartments --dbmus --rows --freqs --feature-kb
//! --weight-kb --meta-kb --models --widths --pruning --sparsity
//! --fidelity`, every axis a comma-separated list. The pipeline the points
//! run under is the daemon's, set by its own pipeline flags. Parsing goes
//! through the workspace's one scanner (`dbpim_serve::options::scan`):
//! unknown flags are skipped with their value, a known flag with a missing
//! or malformed value aborts with usage on stderr (exit status 2).

use std::time::Duration;

use db_pim::{render_report, SweepReport, SweepSpec};
use dbpim_csd::OperandWidth;
use dbpim_nn::ModelKind;
use dbpim_serve::options::{or_exit, scan, GridOptions, OptionsError, GRID_USAGE};
use dbpim_serve::{Client, RunQuery};
use dbpim_sim::SparsityConfig;

const USAGE: &str = "usage: dbpim-cli [--addr <ip>] [--port <u16>] [--auth-token <secret>] \
     <ping|models|run|sweep|explore|stats|metrics|shard-status|shutdown> [--model <name>] \
     [--operand-width <4|8|12|16>] [grid flags] [--deadline-ms <n>] [--watch <secs>] \
     [--trace-out <path>] [--log-level <error|warn|info|debug>]";

#[derive(Debug, Clone, PartialEq)]
enum Command {
    Ping,
    Models,
    Run,
    Sweep,
    Explore,
    Stats,
    Metrics,
    ShardStatus,
    Shutdown,
}

impl Command {
    fn parse(word: &str) -> Option<Self> {
        Some(match word {
            "ping" => Command::Ping,
            "models" => Command::Models,
            "run" => Command::Run,
            "sweep" => Command::Sweep,
            "explore" => Command::Explore,
            "stats" => Command::Stats,
            "metrics" => Command::Metrics,
            "shard-status" => Command::ShardStatus,
            "shutdown" => Command::Shutdown,
            _ => return None,
        })
    }
}

#[derive(Debug, Clone)]
struct CliOptions {
    addr: String,
    port: u16,
    command: Command,
    model: Option<ModelKind>,
    /// `run`'s operand-width override.
    width: Option<OperandWidth>,
    grid: GridOptions,
    deadline_ms: Option<u64>,
    auth_token: Option<String>,
    watch: Option<u64>,
}

impl CliOptions {
    fn from_slice(args: &[String]) -> Result<Self, OptionsError> {
        let mut addr = "127.0.0.1".to_string();
        let mut port = 7531;
        let mut model = None;
        let mut width = None;
        let mut grid = GridOptions::default();
        let mut deadline_ms = None;
        let mut auth_token = None;
        let mut watch = None;
        let positional = scan(args, |flag| {
            match flag.name() {
                "--addr" => addr = flag.raw()?.to_string(),
                "--port" => port = flag.value()?,
                "--model" => model = Some(flag.value()?),
                "--operand-width" => width = Some(flag.value()?),
                "--deadline-ms" => deadline_ms = Some(flag.value()?),
                "--auth-token" => auth_token = Some(flag.raw()?.to_string()),
                // Zero would busy-poll the daemon; clamp like `--threads 0`.
                "--watch" => watch = Some(flag.value::<u64>()?.max(1)),
                _ => return grid.flag(flag),
            }
            Ok(true)
        })?;
        let command =
            positional.into_iter().find_map(Command::parse).ok_or_else(|| OptionsError {
                flag: "<command>".to_string(),
                message: "expected one of: ping, models, run, sweep, explore, stats, metrics, \
                          shard-status, shutdown"
                    .to_string(),
            })?;
        if command == Command::Run {
            if model.is_none() {
                return Err(OptionsError {
                    flag: "--model".to_string(),
                    message: "required for `run`".to_string(),
                });
            }
            if grid.sparsity.len() > 1 {
                return Err(OptionsError {
                    flag: "--sparsity".to_string(),
                    message: "`run` takes a single configuration".to_string(),
                });
            }
        }
        Ok(Self { addr, port, command, model, width, grid, deadline_ms, auth_token, watch })
    }
}

fn print_report(report: &SweepReport) {
    println!("| model | width | arch macros | sparsity | cycles | speedup | energy saving |");
    println!("|---|---|---|---|---|---|---|");
    for entry in &report.entries {
        // Speedups are relative to the dense baseline; a query restricted
        // to a non-baseline sparsity configuration has nothing to compare
        // against.
        let has_baseline = entry.result.run(SparsityConfig::DenseBaseline).is_some();
        for run in &entry.result.runs {
            let (speedup, saving) = if has_baseline {
                (
                    format!("{:.2}x", entry.result.speedup(run.sparsity)),
                    format!("{:.2}%", 100.0 * entry.result.energy_saving(run.sparsity)),
                )
            } else {
                ("n/a".to_string(), "n/a".to_string())
            };
            // An active pruning spec rides in the width cell (`int8/u0.50`),
            // matching the dse_sweep table convention; unpruned rows render
            // exactly as before.
            let width_cell = if entry.pruning.is_active() {
                format!("{}/{}", entry.width, entry.pruning.label())
            } else {
                entry.width.to_string()
            };
            println!(
                "| {} | {} | {} | {} | {} | {} | {} |",
                entry.kind.name(),
                width_cell,
                entry.arch.macros,
                run.sparsity,
                run.total_cycles(),
                speedup,
                saving,
            );
        }
    }
    println!(
        "({} entries, {} prepared model/width artifact sets, {} simulated runs, server wall time {:?})",
        report.entries.len(),
        report.prepared_models,
        report.simulated_runs,
        report.wall_time,
    );
}

fn print_stats(stats: &dbpim_serve::ServerStats) {
    println!("requests:             {}", stats.requests);
    println!("errors:               {}", stats.errors);
    println!("connections:          {}", stats.connections);
    println!("active connections:   {}", stats.active_connections);
    println!("queued connections:   {}", stats.queued_connections);
    println!("rejected overloaded:  {}", stats.rejected_overloaded);
    println!("rejected unauthorized:{}", stats.rejected_unauthorized);
    println!("rejected frames:      {}", stats.rejected_frames);
    println!("uptime:               {:?}", stats.uptime);
    println!("artifact hits:        {}", stats.cache.artifact_hits);
    println!("artifact misses:      {}", stats.cache.artifact_misses);
    println!("program hits:         {}", stats.cache.program_hits);
    println!("program misses:       {}", stats.cache.program_misses);
    println!("resident artifacts:   {}", stats.cache.resident_artifacts);
    println!("artifact evictions:   {}", stats.cache.artifact_evictions);
    if !stats.latency.is_empty() {
        println!("| request | count | mean us | p50 us | p99 us | max us |");
        println!("|---|---|---|---|---|---|");
        for entry in &stats.latency {
            let h = &entry.histogram;
            println!(
                "| {} | {} | {:.1} | {} | {} | {} |",
                entry.request,
                h.count,
                h.mean_micros(),
                h.percentile_micros(0.5),
                h.percentile_micros(0.99),
                h.max_micros,
            );
        }
    }
}

/// One `--watch` interval as a delta/rate line: what changed since the
/// previous poll, normalized to per-second rates where throughput is the
/// interesting unit. A pure function of two snapshots so it is testable
/// without a daemon.
fn render_stats_delta(
    prev: &dbpim_serve::ServerStats,
    curr: &dbpim_serve::ServerStats,
    interval_secs: u64,
) -> String {
    let secs = interval_secs.max(1) as f64;
    let delta = |c: u64, p: u64| c.saturating_sub(p);
    let requests = delta(curr.requests, prev.requests);
    let errors = delta(curr.errors, prev.errors);
    let connections = delta(curr.connections, prev.connections);
    let rejected = delta(curr.rejected_overloaded, prev.rejected_overloaded)
        + delta(curr.rejected_unauthorized, prev.rejected_unauthorized)
        + delta(curr.rejected_frames, prev.rejected_frames);
    format!(
        "+{requests} req ({:.1}/s) | +{errors} err | +{connections} conn | \
         +{rejected} rejected ({:.1}/s) | active {} | queued {}\n",
        requests as f64 / secs,
        rejected as f64 / secs,
        curr.active_connections,
        curr.queued_connections,
    )
}

/// `stats --watch <secs>`: print the absolute snapshot once, then one
/// delta/rate line per interval until interrupted (or the daemon goes
/// away, which surfaces as the client error).
fn watch_stats(client: &mut Client, interval_secs: u64) -> Result<(), dbpim_serve::ClientError> {
    use std::io::Write as _;

    let interval = Duration::from_secs(interval_secs.max(1));
    let mut prev = client.stats()?;
    print_stats(&prev);
    std::io::stdout().flush().ok();
    loop {
        std::thread::sleep(interval);
        let curr = client.stats()?;
        print!("{}", render_stats_delta(&prev, &curr, interval_secs));
        std::io::stdout().flush().ok();
        prev = curr;
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = or_exit(CliOptions::from_slice(&args), &[USAGE, GRID_USAGE]);

    // Observability plumbing rides beside the strict parser: `--trace-out`
    // dumps a Chrome trace of the client-side spans, `--log-level` tunes
    // the stderr logger. Both are scanned from the raw argument list so
    // they stay command-agnostic.
    let trace = match dbpim_trace::observability_from_args(&args) {
        Ok(sink) => sink,
        Err(e) => {
            eprintln!("dbpim-cli: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    let addr = format!("{}:{}", options.addr, options.port);
    let mut client = match Client::connect_timeout(addr.as_str(), Duration::from_secs(5)) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("dbpim-cli: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    if let Some(token) = &options.auth_token {
        if let Err(e) = client.authenticate(token) {
            eprintln!("dbpim-cli: authentication against {addr} failed: {e}");
            std::process::exit(1);
        }
    }

    let command_span =
        dbpim_trace::span!("cli.command", command = format!("{:?}", options.command));
    let outcome = match options.command {
        Command::Ping => client.ping().map(|version| {
            println!("pong (protocol v{version}) from {addr}");
        }),
        Command::Models => client.list_models().map(|models| {
            for kind in models {
                println!("{} (compact: {})", kind.name(), kind.is_compact());
            }
        }),
        Command::Run => {
            let mut query = RunQuery::new(options.model.expect("validated by the parser"));
            query.sparsity = options.grid.sparsity.first().copied();
            query.width = options.width;
            query.fidelity = options.grid.fidelity;
            query.deadline_ms = options.deadline_ms;
            client.run_model(&query).map(|entry| {
                if let Some(fidelity) = &entry.result.fidelity {
                    println!("fidelity: top-1 agreement {:.2}%", 100.0 * fidelity.top1_agreement);
                }
                let report = SweepReport {
                    wall_time: Duration::ZERO,
                    prepared_models: 1,
                    simulated_runs: entry.result.runs.len(),
                    entries: vec![entry],
                };
                print_report(&report);
            })
        }
        Command::Sweep => {
            let grid = &options.grid;
            let mut spec = SweepSpec::new(grid.models_or_all())
                .with_widths(grid.widths.clone())
                .with_pruning(grid.pruning.clone());
            if !grid.sparsity.is_empty() {
                spec = spec.with_sparsity(grid.sparsity.clone());
            }
            client
                .sweep_streaming_with(&spec, grid.fidelity, options.deadline_ms, |index, entry| {
                    eprintln!("… entry {index}: {} @ {} done", entry.kind.name(), entry.width);
                })
                .map(|report| print_report(&report))
        }
        Command::Explore => client
            .explore_streaming_with(
                &options.grid.spec(),
                options.deadline_ms,
                None,
                |index, entry| {
                    eprintln!(
                        "… point {index}: {} @ {} on {} macros x {} rows @ {} MHz done",
                        entry.kind.name(),
                        entry.width,
                        entry.arch.macros,
                        entry.arch.rows_per_dbmu,
                        entry.arch.frequency_mhz,
                    );
                },
            )
            .map(|report| {
                print!("{}", render_report(&report));
                eprintln!(
                    "dbpim-cli: {} of {} grid points, server wall time {:.2?}",
                    report.entries.len(),
                    report.total_points,
                    report.wall_time,
                );
            }),
        Command::Stats => match options.watch {
            Some(secs) => watch_stats(&mut client, secs),
            None => client.stats().map(|stats| print_stats(&stats)),
        },
        Command::Metrics => client.metrics_snapshot().map(|metrics| {
            print!("{}", metrics.render_prometheus());
        }),
        Command::ShardStatus => client.shard_statuses().map(|shards| {
            if shards.is_empty() {
                println!("no shard-tagged explorations served yet");
                return;
            }
            println!("| fleet | shard | points done | state | updated (unix ms) |");
            println!("|---|---|---|---|---|");
            for status in shards {
                println!(
                    "| {} | {}/{} | {}/{} | {:?} | {} |",
                    status.fleet,
                    status.shard,
                    status.of,
                    status.completed_points,
                    status.total_points,
                    status.state,
                    status.updated_at_ms,
                );
            }
        }),
        Command::Shutdown => client.shutdown().map(|()| {
            println!("daemon at {addr} is shutting down");
        }),
    };

    drop(command_span);
    if let Some(sink) = trace {
        if let Err(e) = sink.finish() {
            eprintln!("dbpim-cli: writing the trace failed: {e}");
        }
    }
    if let Err(e) = outcome {
        eprintln!("dbpim-cli: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn commands_and_flags_parse_strictly() {
        let options = CliOptions::from_slice(&args(&[
            "run",
            "--model",
            "resnet-18",
            "--sparsity",
            "hybrid",
            "--operand-width",
            "4",
            "--fidelity",
            "--port",
            "9000",
        ]))
        .unwrap();
        assert_eq!(options.command, Command::Run);
        assert_eq!(options.model, Some(ModelKind::ResNet18));
        assert_eq!(options.grid.sparsity, vec![SparsityConfig::HybridSparsity]);
        assert_eq!(options.width, Some(OperandWidth::Int4));
        assert!(options.grid.fidelity);
        assert_eq!(options.port, 9000);

        let options = CliOptions::from_slice(&args(&[
            "sweep",
            "--models",
            "alexnet,vgg19",
            "--widths",
            "4,16",
        ]))
        .unwrap();
        assert_eq!(options.command, Command::Sweep);
        assert_eq!(options.grid.models, vec![ModelKind::AlexNet, ModelKind::Vgg19]);
        assert_eq!(options.grid.widths, vec![OperandWidth::Int4, OperandWidth::Int16]);
    }

    #[test]
    fn explore_grid_flags_parse_strictly() {
        let options = CliOptions::from_slice(&args(&[
            "explore",
            "--macros",
            "2,4,8",
            "--rows",
            "32,64",
            "--freqs",
            "250,500",
            "--models",
            "alexnet",
            "--sparsity",
            "hybrid",
        ]))
        .unwrap();
        assert_eq!(options.command, Command::Explore);
        assert_eq!(options.grid.macros, vec![2, 4, 8]);
        assert_eq!(options.grid.rows, vec![32, 64]);
        assert_eq!(options.grid.freqs, vec![250.0, 500.0]);
        assert_eq!(options.grid.models, vec![ModelKind::AlexNet]);
        assert_eq!(options.grid.sparsity, vec![SparsityConfig::HybridSparsity]);

        let err = CliOptions::from_slice(&args(&["explore", "--macros", "2,x"])).unwrap_err();
        assert_eq!(err.flag, "--macros");
        assert!(err.message.contains('x'), "{err}");
    }

    #[test]
    fn shard_status_and_deadline_flags_parse() {
        let options = CliOptions::from_slice(&args(&["shard-status", "--port", "7641"])).unwrap();
        assert_eq!(options.command, Command::ShardStatus);
        assert_eq!(options.port, 7641);

        let options = CliOptions::from_slice(&args(&["sweep", "--deadline-ms", "2500"])).unwrap();
        assert_eq!(options.command, Command::Sweep);
        assert_eq!(options.deadline_ms, Some(2500));

        let err = CliOptions::from_slice(&args(&["sweep", "--deadline-ms", "soon"])).unwrap_err();
        assert_eq!(err.flag, "--deadline-ms");
    }

    #[test]
    fn auth_token_flag_parses_for_every_command() {
        let options =
            CliOptions::from_slice(&args(&["stats", "--auth-token", "fleet-secret"])).unwrap();
        assert_eq!(options.command, Command::Stats);
        assert_eq!(options.auth_token.as_deref(), Some("fleet-secret"));

        let options = CliOptions::from_slice(&args(&["ping"])).unwrap();
        assert_eq!(options.auth_token, None);

        let err = CliOptions::from_slice(&args(&["stats", "--auth-token"])).unwrap_err();
        assert_eq!(err.flag, "--auth-token");
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn metrics_and_watch_parse_strictly() {
        let options = CliOptions::from_slice(&args(&["metrics", "--port", "7641"])).unwrap();
        assert_eq!(options.command, Command::Metrics);
        assert_eq!(options.port, 7641);

        let options = CliOptions::from_slice(&args(&["stats", "--watch", "5"])).unwrap();
        assert_eq!(options.command, Command::Stats);
        assert_eq!(options.watch, Some(5));
        // Zero would busy-poll; clamped like the other zero-able knobs.
        let options = CliOptions::from_slice(&args(&["stats", "--watch", "0"])).unwrap();
        assert_eq!(options.watch, Some(1));
        assert_eq!(CliOptions::from_slice(&args(&["stats"])).unwrap().watch, None);

        let err = CliOptions::from_slice(&args(&["stats", "--watch", "soon"])).unwrap_err();
        assert_eq!(err.flag, "--watch");
        let err = CliOptions::from_slice(&args(&["stats", "--watch"])).unwrap_err();
        assert_eq!(err.flag, "--watch");
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn stats_deltas_render_rates_per_interval() {
        let base = dbpim_serve::ServerStats {
            requests: 100,
            errors: 2,
            connections: 10,
            uptime: Duration::from_secs(60),
            cache: Default::default(),
            active_connections: 1,
            queued_connections: 0,
            rejected_overloaded: 4,
            rejected_unauthorized: 1,
            rejected_frames: 0,
            latency: Vec::new(),
        };
        let mut later = base.clone();
        later.requests = 150;
        later.errors = 3;
        later.connections = 12;
        later.rejected_overloaded = 6;
        later.rejected_frames = 1;
        later.active_connections = 3;
        later.queued_connections = 2;

        let line = render_stats_delta(&base, &later, 10);
        assert_eq!(
            line,
            "+50 req (5.0/s) | +1 err | +2 conn | +3 rejected (0.3/s) | active 3 | queued 2\n"
        );
        // A counter-reset (daemon restart) renders as zero, not underflow.
        let line = render_stats_delta(&later, &base, 10);
        assert!(line.starts_with("+0 req (0.0/s)"), "{line}");
    }

    #[test]
    fn unknown_flag_values_are_not_mistaken_for_commands() {
        // `--mytag run` is an unknown flag/value pair; the command is the
        // next free-standing word.
        let options = CliOptions::from_slice(&args(&["--mytag", "run", "shutdown"])).unwrap();
        assert_eq!(options.command, Command::Shutdown);
        // An unknown flag directly followed by another flag consumes
        // nothing extra.
        let options =
            CliOptions::from_slice(&args(&["--verbose", "--port", "9000", "ping"])).unwrap();
        assert_eq!(options.command, Command::Ping);
        assert_eq!(options.port, 9000);
    }

    #[test]
    fn malformed_command_lines_are_rejected() {
        // No command at all.
        let err = CliOptions::from_slice(&args(&["--port", "9000"])).unwrap_err();
        assert_eq!(err.flag, "<command>");
        // `run` without a model.
        let err = CliOptions::from_slice(&args(&["run"])).unwrap_err();
        assert_eq!(err.flag, "--model");
        // Unknown model name.
        let err = CliOptions::from_slice(&args(&["run", "--model", "lenet"])).unwrap_err();
        assert_eq!(err.flag, "--model");
        assert!(err.message.contains("lenet"), "{err}");
        // Bad element inside a list.
        let err = CliOptions::from_slice(&args(&["sweep", "--widths", "4,10"])).unwrap_err();
        assert_eq!(err.flag, "--widths");
        // Missing value.
        let err = CliOptions::from_slice(&args(&["sweep", "--models"])).unwrap_err();
        assert_eq!(err.flag, "--models");
        assert!(err.to_string().contains("missing"), "{err}");
    }
}
