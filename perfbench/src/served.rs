//! `served-mix`: two persistent closed-loop clients send a seeded request
//! mix to an in-process daemon, and the serve probe other workloads' traced
//! runs use to measure the wire.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use db_pim::session::par::par_map;
use db_pim::{BatchRunner, PipelineConfig, SweepEntry, SweepSpec};
use dbpim_csd::OperandWidth;
use dbpim_nn::ModelKind;
use dbpim_serve::protocol::{read_message, write_message, ServerStats};
use dbpim_serve::{Client, Response, RunQuery, ServeConfig, Server, ServerHandle};
use dbpim_sim::SparsityConfig;
use dbpim_trace::span;

use crate::cold::Variant;
use crate::measure::{median, ms, Digest, OpLog, OutputCheck, SplitMix};
use crate::{cache_delta, Bench, Layers, Verdict};

/// An in-process daemon on a loopback port; dropping it shuts the daemon
/// down and waits for its threads.
pub struct Daemon {
    handle: Option<ServerHandle>,
}

impl Daemon {
    /// Spawns a daemon with `threads` workers and an artifact-cache cap.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn spawn(
        config: &PipelineConfig,
        threads: usize,
        cache_cap: Option<usize>,
    ) -> Result<Self, String> {
        let _span = span!("bench.serve.spawn");
        let handle = Server::spawn(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads,
            poll_interval: Duration::from_millis(50),
            pipeline: *config,
            cache_cap,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("cannot spawn a daemon: {e}"))?;
        Ok(Self { handle: Some(handle) })
    }

    /// The daemon's address.
    #[must_use]
    pub fn addr(&self) -> String {
        self.socket().to_string()
    }

    fn socket(&self) -> SocketAddr {
        self.handle.as_ref().expect("daemon is running").addr()
    }

    /// A fresh connection.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.socket()).map_err(|e| format!("connect to {}: {e}", self.addr()))
    }

    /// A `Stats` snapshot over a fresh connection.
    ///
    /// # Errors
    ///
    /// Propagates connection and request failures.
    pub fn stats(&self) -> Result<ServerStats, String> {
        self.connect()?.stats().map_err(|e| format!("stats from {}: {e}", self.addr()))
    }

    /// Prepares `points` (model, width) in the daemon with one `RunModel`
    /// each, over one connection.
    ///
    /// # Errors
    ///
    /// Propagates request failures.
    pub fn warm(&self, points: &[(ModelKind, OperandWidth)]) -> Result<(), String> {
        let mut client = self.connect()?;
        for &(kind, width) in points {
            client
                .run_model(&RunQuery::new(kind).with_width(width))
                .map_err(|e| format!("warming {} {width}: {e}", kind.name()))?;
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.request_shutdown();
            if let Err(e) = handle.join() {
                eprintln!("daemon exited with {e}");
            }
        }
    }
}

/// The requests of the mix.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `RunModel` for warm point `i` of the plan.
    Warm(usize),
    /// A one-point `Sweep` for a variant outside the daemon's cache.
    Cold,
    Ping,
    Stats,
}

impl Op {
    /// Index into [`TYPES`].
    fn kind(self) -> usize {
        match self {
            Op::Warm(_) => 0,
            Op::Cold => 1,
            Op::Ping => 2,
            Op::Stats => 3,
        }
    }
}

/// Request types as the daemon names them, in [`Op::kind`] order, with the
/// per-layer metric names of each.
const TYPES: [(&str, [&str; 3]); 4] = [
    ("RunModel", ["serve.RunModel.rtt_ms", "serve.RunModel.handle_ms", "serve.RunModel.wire_ms"]),
    ("Sweep", ["serve.Sweep.rtt_ms", "serve.Sweep.handle_ms", "serve.Sweep.wire_ms"]),
    ("Ping", ["serve.Ping.rtt_ms", "serve.Ping.handle_ms", "serve.Ping.wire_ms"]),
    ("Stats", ["serve.Stats.rtt_ms", "serve.Stats.handle_ms", "serve.Stats.wire_ms"]),
];

/// What a daemon is asked: warm `RunModel` points, and cold one-point
/// sweeps that cycle through more models than the daemon's cache keeps for
/// their variant, so every one misses.
struct Plan {
    warm: Vec<(ModelKind, OperandWidth)>,
    cold_models: Vec<ModelKind>,
    cold: Variant,
}

impl Plan {
    /// One block of twenty requests for client `lane`, in seeded order: ten
    /// warm (spread evenly over the warm points) and ten small polls or
    /// cold sweeps. Both cold sweeps go to client 0, so two cold
    /// preparations never overlap and every run holds the same peak; over
    /// both clients 5% of requests are cold. Every block of a client holds
    /// the same mix, so every run measures the same mix.
    fn block(&self, lane: usize, rng: &mut SplitMix) -> Vec<Op> {
        let mut ops: Vec<Op> = (0..10).map(|i| Op::Warm(i % self.warm.len())).collect();
        let (polls, cold) = if lane == 0 { (4, 2) } else { (5, 0) };
        ops.extend(std::iter::repeat_n(Op::Ping, polls));
        ops.extend(std::iter::repeat_n(Op::Stats, polls));
        ops.extend(std::iter::repeat_n(Op::Cold, cold));
        rng.permutation(ops.len()).into_iter().map(|i| ops[i]).collect()
    }

    fn cold_spec(&self, kind: ModelKind) -> SweepSpec {
        SweepSpec::new(vec![kind])
            .with_widths(vec![self.cold.width])
            .with_pruning(vec![self.cold.pruning])
    }
}

fn warm_key(kind: ModelKind, width: OperandWidth) -> String {
    format!("warm/{}/{width}", kind.name())
}

fn cold_key(kind: ModelKind) -> String {
    format!("cold/{}", kind.name())
}

/// What one client measured.
#[derive(Default)]
struct ClientLog {
    log: OpLog,
    /// Round trips per request type: (count, summed milliseconds).
    rtt: [(u64, f64); 4],
    /// Per key of the responses that carried a result: the first entry,
    /// which every later response must equal, and how many arrived.
    served: BTreeMap<String, (SweepEntry, u64)>,
}

/// Runs whole blocks on `client` (lane `lane` of the mix) until `deadline`
/// has passed.
fn client_loop(
    lane: usize,
    client: &mut Client,
    plan: &Plan,
    rng: &mut SplitMix,
    cold_cursor: &AtomicUsize,
    deadline: Instant,
) -> ClientLog {
    let mut out = ClientLog::default();
    loop {
        let block = plan.block(lane, rng);
        let block_start = Instant::now();
        for &op in &block {
            let start = Instant::now();
            let result = match op {
                Op::Warm(i) => {
                    let (kind, width) = plan.warm[i];
                    client
                        .run_model(&RunQuery::new(kind).with_width(width))
                        .map(|entry| Some((warm_key(kind, width), entry)))
                }
                Op::Cold => {
                    let models = &plan.cold_models;
                    let kind = models[cold_cursor.fetch_add(1, Ordering::Relaxed) % models.len()];
                    client
                        .sweep(&plan.cold_spec(kind), false)
                        .map(|mut report| report.entries.pop().map(|entry| (cold_key(kind), entry)))
                }
                Op::Ping => client.ping().map(|_| None),
                Op::Stats => client.stats().map(|_| None),
            };
            let latency = start.elapsed();
            match result {
                Ok(entry) => {
                    let ok = entry.is_none_or(|(key, entry)| match out.served.get_mut(&key) {
                        Some((first, count)) => {
                            *count += 1;
                            *first == entry
                        }
                        None => {
                            out.served.insert(key, (entry, 1));
                            true
                        }
                    });
                    out.log.record(latency, ok);
                    let rtt = &mut out.rtt[op.kind()];
                    rtt.0 += 1;
                    rtt.1 += ms(latency);
                }
                Err(e) => {
                    eprintln!("{} request failed: {e}", TYPES[op.kind()].0);
                    out.log.record_failure(latency);
                }
            }
        }
        out.log.units.push((lane, block.len(), block_start.elapsed().as_secs_f64()));
        if Instant::now() >= deadline {
            return out;
        }
    }
}

/// Requests handled and summed handling time (µs) of one request type
/// between two `Stats` snapshots of the same daemon.
#[must_use]
pub fn handle_micros(before: &ServerStats, after: &ServerStats, request: &str) -> (u64, u64) {
    let find = |stats: &ServerStats| {
        stats
            .latency
            .iter()
            .find(|l| l.request == request)
            .map_or((0, 0), |l| (l.histogram.count, l.histogram.total_micros))
    };
    let (c0, t0) = find(before);
    let (c1, t1) = find(after);
    (c1 - c0, t1 - t0)
}

/// Two persistent clients driving one daemon.
struct Mix {
    plan: Plan,
    clients: [(Client, SplitMix); 2],
    cold_cursor: AtomicUsize,
    /// Round trips since `mark`, per request type.
    rtt: [(u64, f64); 4],
    /// How often each key was served since `mark`.
    served: BTreeMap<String, u64>,
    /// The first served entry per key; later ones must equal it.
    outputs: OutputCheck<SweepEntry>,
    before: Option<ServerStats>,
    /// Declared last so the clients disconnect before the daemon stops.
    _daemon: Daemon,
}

impl Mix {
    fn new(daemon: Daemon, plan: Plan, seed: u64) -> Result<Self, String> {
        let clients = [
            (daemon.connect()?, SplitMix::new(seed, 10)),
            (daemon.connect()?, SplitMix::new(seed, 11)),
        ];
        let cold_cursor = AtomicUsize::new(SplitMix::new(seed, 12).below(plan.cold_models.len()));
        Ok(Self {
            plan,
            clients,
            cold_cursor,
            rtt: [(0, 0.0); 4],
            served: BTreeMap::new(),
            outputs: OutputCheck::default(),
            before: None,
            _daemon: daemon,
        })
    }

    /// Both clients run whole blocks until `deadline`.
    fn drive(&mut self, log: &mut OpLog, deadline: Instant) {
        let (plan, cursor) = (&self.plan, &self.cold_cursor);
        let [(a, rng_a), (b, rng_b)] = &mut self.clients;
        let logs = std::thread::scope(|scope| {
            let other = scope.spawn(|| client_loop(1, b, plan, rng_b, cursor, deadline));
            let mine = client_loop(0, a, plan, rng_a, cursor, deadline);
            [mine, other.join().expect("client thread")]
        });
        for client in logs {
            for (kind, (count, sum)) in client.rtt.iter().enumerate() {
                self.rtt[kind].0 += count;
                self.rtt[kind].1 += sum;
            }
            for (key, (entry, count)) in client.served {
                if !self.outputs.observe(key.clone(), entry) {
                    log.failed += count;
                }
                *self.served.entry(key).or_default() += count;
            }
            log.absorb(client.log);
        }
    }

    fn mark(&mut self) {
        self.rtt = [(0, 0.0); 4];
        for count in self.served.values_mut() {
            *count = 0;
        }
        self.before = self.stats();
    }

    /// A `Stats` snapshot over the first client: the clients hold every
    /// daemon worker, so a new connection would wait for one forever.
    fn stats(&mut self) -> Option<ServerStats> {
        self.clients[0].0.stats().map_err(|e| eprintln!("stats request failed: {e}")).ok()
    }

    /// Round trip, daemon handling time and their difference per request
    /// type, plus the codec cost of the responses actually served.
    fn layers(&mut self, layers: &mut Layers) {
        let after = self.stats();
        if let (Some(before), Some(after)) = (&self.before, &after) {
            for (kind, (request, names)) in TYPES.iter().enumerate() {
                let (count, sum) = self.rtt[kind];
                let (handled, micros) = handle_micros(before, after, request);
                if count > 0 && handled > 0 {
                    let rtt = sum / count as f64;
                    let handle = micros as f64 / handled as f64 / 1e3;
                    layers.set(names[0], rtt);
                    layers.set(names[1], handle);
                    layers.set(names[2], rtt - handle);
                }
            }
            layers.set_cache(cache_delta(before.cache, after.cache));
        }
        let (mut weight, mut encode, mut decode, mut bytes) = (0.0, 0.0, 0.0, 0.0);
        for (key, count) in &self.served {
            let entry = self.outputs.first(key).expect("every served key has a first entry");
            let response = if key.starts_with("cold/") {
                Response::SweepPoint { index: 0, entry: entry.clone() }
            } else {
                Response::RunResult { entry: entry.clone() }
            };
            let (e, d, n) = codec_cost(&response);
            let count = *count as f64;
            weight += count;
            encode += e * count;
            decode += d * count;
            bytes += n as f64 * count;
        }
        if weight > 0.0 {
            layers.set("serve.encode_us", encode / weight);
            layers.set("serve.decode_us", decode / weight);
            layers.set("serve.response_bytes", bytes / weight);
        }
    }
}

/// Median `write_message` and `read_message` time (µs) of one response,
/// and its size on the wire.
fn codec_cost(response: &Response) -> (f64, f64, usize) {
    let (mut encode, mut decode, mut size) = (Vec::new(), Vec::new(), 0);
    for _ in 0..5 {
        let mut frame = Vec::new();
        let start = Instant::now();
        write_message(&mut frame, response).expect("writing to memory cannot fail");
        encode.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        let parsed = read_message::<Response>(&mut Cursor::new(&frame));
        decode.push(start.elapsed().as_secs_f64() * 1e6);
        assert!(matches!(parsed, Ok(Some(_))), "a written response parses back");
        size = frame.len();
    }
    (median(&encode), median(&decode), size)
}

/// The served-mix workload.
pub struct ServedMix {
    mix: Mix,
    config: PipelineConfig,
}

impl ServedMix {
    /// Warm points: three models at INT8 and two at INT4. With the cache
    /// capped at three models per (width, pruning) session they all stay
    /// resident, while cold sweeps cycle five models through one variant
    /// and always miss.
    const WARM: [(ModelKind, OperandWidth); 5] = [
        (ModelKind::AlexNet, OperandWidth::Int8),
        (ModelKind::Vgg19, OperandWidth::Int8),
        (ModelKind::ResNet18, OperandWidth::Int8),
        (ModelKind::MobileNetV2, OperandWidth::Int4),
        (ModelKind::EfficientNetB0, OperandWidth::Int4),
    ];
    const CACHE_CAP: usize = 3;

    /// Spawns the daemon (two workers) and warms every warm point over two
    /// connections.
    ///
    /// # Errors
    ///
    /// Propagates spawn, connection and warm-up failures.
    pub fn setup(config: PipelineConfig, seed: u64) -> Result<Self, String> {
        let daemon = Daemon::spawn(&config, 2, Some(Self::CACHE_CAP))?;
        let (first, second) = Self::WARM.split_at(3);
        std::thread::scope(|scope| {
            let other = scope.spawn(|| daemon.warm(second));
            let mine = daemon.warm(first);
            other.join().expect("warm-up thread").and(mine)
        })?;
        let plan = Plan {
            warm: Self::WARM.to_vec(),
            cold_models: ModelKind::all().to_vec(),
            cold: Variant::all()[3],
        };
        Ok(Self { mix: Mix::new(daemon, plan, seed)?, config })
    }
}

impl Bench for ServedMix {
    /// Both clients run blocks until `deadline`: the mix is one open-ended
    /// unit, so neither client ever waits for the other.
    fn unit(&mut self, log: &mut OpLog, deadline: Instant) {
        self.mix.drive(log, deadline);
    }

    fn mark(&mut self) {
        self.mix.mark();
    }

    fn layers(&mut self, layers: &mut Layers) {
        self.mix.layers(layers);
    }

    /// Every served entry must equal, byte for byte, the in-process result
    /// of the same point. The digest covers every point the mix can ask
    /// for, computed in-process, so it does not depend on run length.
    fn verify(&mut self) -> Verdict {
        let mix = &self.mix;
        let mut keys: Vec<(String, ModelKind, Variant)> = Self::WARM
            .iter()
            .map(|&(kind, width)| {
                let variant = Variant { width, pruning: db_pim::PruningSpec::none() };
                (warm_key(kind, width), kind, variant)
            })
            .collect();
        keys.extend(mix.plan.cold_models.iter().map(|&kind| (cold_key(kind), kind, mix.plan.cold)));
        let mut verdict = Verdict::default();
        let reference = match reference_entries(&self.config, &keys) {
            Ok(reference) => reference,
            Err(e) => {
                verdict.check(false, || format!("in-process reference failed: {e}"));
                return verdict;
            }
        };
        let mut digest = Digest::default();
        for ((key, _, _), entry) in keys.iter().zip(&reference) {
            let bytes = crate::measure::json(entry);
            digest.update(key.as_bytes());
            digest.update(bytes.as_bytes());
            if let Some(served) = mix.outputs.first(key) {
                verdict.check(crate::measure::json(served) == bytes, || {
                    format!("served {key} differs from the in-process result")
                });
            }
        }
        verdict.digest = digest.hex();
        let mismatches = mix.outputs.mismatches;
        verdict.check(mismatches == 0, || {
            format!("{mismatches} responses differed from the first response of their point")
        });
        verdict
    }
}

/// In-process results of `keys`' points, computed on two threads.
fn reference_entries(
    config: &PipelineConfig,
    keys: &[(String, ModelKind, Variant)],
) -> Result<Vec<SweepEntry>, String> {
    let runner = BatchRunner::new(*config).map_err(|e| e.to_string())?;
    par_map(keys.iter().collect(), 2, |(_, kind, variant)| {
        runner
            .run_point_pruned(
                *kind,
                variant.width,
                variant.pruning,
                None,
                &SparsityConfig::all(),
                false,
            )
            .map_err(|e| format!("{} {}: {e}", kind.name(), variant.label()))
    })
    .into_iter()
    .collect()
}

/// The serve and fleet probes for traced runs: a small daemon (two
/// workers, one resident model per session) answers one block of the mix
/// on each of two connections, then a 12-point fleet run. Layers a
/// workload measured itself keep their values.
///
/// # Errors
///
/// Propagates daemon failures.
pub fn probe(config: &PipelineConfig, layers: &mut Layers) -> Result<OpLog, String> {
    let mut log = OpLog::default();
    let need_serve = !layers.has("serve.RunModel.rtt_ms");
    let need_fleet = !layers.has("fleet.point_ms");
    if !need_serve && !need_fleet {
        return Ok(log);
    }
    let daemon = Daemon::spawn(config, 2, Some(1))?;
    let warm = (ModelKind::MobileNetV2, OperandWidth::Int8);
    daemon.warm(&[warm])?;
    if need_fleet {
        log.absorb(crate::grid::fleet_probe(config, &daemon, layers)?);
    }
    if need_serve {
        let plan = Plan {
            warm: vec![warm],
            cold_models: vec![ModelKind::EfficientNetB0, ModelKind::MobileNetV2],
            cold: Variant::all()[3],
        };
        let mut mix = Mix::new(daemon, plan, config.seed)?;
        mix.mark();
        mix.drive(&mut log, Instant::now());
        mix.layers(layers);
    }
    Ok(log)
}
