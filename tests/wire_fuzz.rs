//! Seeded, offline wire fuzzer. Real request frames and a small DSE
//! snapshot are mutated (truncation, bit flips, deep nesting, huge numbers,
//! invalid UTF-8, oversized strings) and fed to the request parser, to
//! `DseReport::load` and to a live daemon. Nothing may panic or abort,
//! every failure must be a structured error, and the daemon must still
//! answer `Ping` at the end.
//!
//! The cases run one after another on one connection, which is reopened
//! only after the daemon closes it for an oversized frame.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use db_pim::prelude::{ArchConfig, ArchGrid, SparsityConfig};
use db_pim::{DseReport, DseSpec, PipelineConfig, PipelineError, SweepSpec};
use dbpim_csd::OperandWidth;
use dbpim_nn::ModelKind;
use dbpim_serve::protocol::{ErrorKind, Request, Response, ShardAnnotation, TraceContext};
use dbpim_serve::{Client, ServeConfig, Server};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const SEED: u64 = 0x5EED_F022;
const PARSER_CASES: usize = 800;
const SNAPSHOT_CASES: usize = 400;
const DAEMON_CASES: usize = 800;
/// The fuzzed daemon's frame limit: small, so oversized strings cross it.
const MAX_FRAME_BYTES: usize = 16 * 1024;

/// One encoded frame of every request type except `Shutdown`, with every
/// optional field filled in somewhere.
fn request_corpus() -> Vec<Vec<u8>> {
    let trace = TraceContext {
        fleet: "fleet-fuzz".to_string(),
        point: "alexnet/int8".to_string(),
        parent_span: 7,
    };
    let requests = [
        Request::Ping,
        Request::ListModels,
        Request::CacheStats,
        Request::Stats,
        Request::ShardStatus,
        Request::TraceSnapshot,
        Request::MetricsSnapshot,
        Request::Auth { token: "fuzz-token".to_string() },
        Request::RunModel {
            model: ModelKind::AlexNet,
            sparsity: Some(SparsityConfig::HybridSparsity),
            width: Some(OperandWidth::Int8),
            arch: Some(ArchConfig::paper()),
            fidelity: false,
            deadline_ms: Some(2_000),
            trace: Some(trace.clone()),
        },
        Request::Sweep {
            spec: SweepSpec::new(vec![ModelKind::AlexNet]),
            fidelity: false,
            deadline_ms: None,
            trace: None,
        },
        Request::Explore {
            spec: Box::new(snapshot_spec()),
            deadline_ms: Some(5_000),
            shard: Some(ShardAnnotation {
                fleet: "fleet-fuzz".to_string(),
                shard: 0,
                of: 2,
                points: 2,
            }),
            trace: Some(trace),
        },
    ];
    requests.iter().map(|request| serde_json::to_string(request).unwrap().into_bytes()).collect()
}

fn snapshot_spec() -> DseSpec {
    DseSpec::new(
        ArchGrid::around(ArchConfig::paper()).with_macros(vec![2, 4]),
        vec![ModelKind::AlexNet],
    )
    .with_sparsity(vec![SparsityConfig::DenseBaseline, SparsityConfig::HybridSparsity])
}

fn splice(bytes: &mut Vec<u8>, at: usize, insert: &[u8]) {
    bytes.splice(at..at, insert.iter().copied());
}

/// Applies one to three random mutations to a copy of `seed`.
fn mutate(rng: &mut ChaCha8Rng, seed: &[u8]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    for _ in 0..rng.gen_range(1..=3usize) {
        match rng.gen_range(0..6u32) {
            0 => {
                let at = rng.gen_range(0..=bytes.len());
                bytes.truncate(at);
            }
            1 => {
                for _ in 0..rng.gen_range(1..=4usize) {
                    if let Some(last) = bytes.len().checked_sub(1) {
                        let at = rng.gen_range(0..=last);
                        bytes[at] ^= 1 << rng.gen_range(0..8u32);
                    }
                }
            }
            2 => {
                // Depths on both sides of the parser's nesting cap, and now
                // and then one deep enough to overflow an uncapped parser.
                let depth = if rng.gen_bool(0.1) {
                    rng.gen_range(50_000..=200_000usize)
                } else {
                    rng.gen_range(1..=2 * serde_json::MAX_DEPTH)
                };
                if rng.gen_bool(0.5) {
                    bytes = [b"[".repeat(depth), bytes, b"]".repeat(depth)].concat();
                } else {
                    let at = rng.gen_range(0..=bytes.len());
                    splice(&mut bytes, at, &b"{\"k\":".repeat(depth));
                }
            }
            3 => {
                let huge = match rng.gen_range(0..5u32) {
                    0 => format!("1{}", "0".repeat(rng.gen_range(18..=400usize))),
                    1 => format!("-9{}", "9".repeat(rng.gen_range(18..=60usize))),
                    2 => "1e999".to_string(),
                    3 => "18446744073709551616".to_string(),
                    _ => format!("{}.5e-999", "7".repeat(rng.gen_range(19..=60usize))),
                };
                // Replace a run of digits, or insert anywhere if there is none.
                let digits: Vec<usize> =
                    (0..bytes.len()).filter(|&i| bytes[i].is_ascii_digit()).collect();
                if digits.is_empty() {
                    let at = rng.gen_range(0..=bytes.len());
                    splice(&mut bytes, at, huge.as_bytes());
                } else {
                    let start = digits[rng.gen_range(0..digits.len())];
                    let end = (start..bytes.len())
                        .find(|&i| !bytes[i].is_ascii_digit())
                        .unwrap_or(bytes.len());
                    bytes.splice(start..end, huge.bytes());
                }
            }
            4 => {
                const INVALID_UTF8: [&[u8]; 6] = [
                    b"\xff",
                    b"\xc0\xaf",
                    b"\x80",
                    b"\xed\xa0\x80",
                    b"\xf4\x90\x80\x80",
                    b"\xe2\x82",
                ];
                let at = rng.gen_range(0..=bytes.len());
                splice(&mut bytes, at, INVALID_UTF8[rng.gen_range(0..INVALID_UTF8.len())]);
            }
            _ => {
                // A long run right after a quote: inside a string when the
                // quote opens one, stray text when it closes one.
                const FILLERS: [&str; 4] = ["x", "\\\"", "é", "\\u0041"];
                let filler = FILLERS[rng.gen_range(0..FILLERS.len())];
                let run = filler.repeat(rng.gen_range(1_000..=2 * MAX_FRAME_BYTES) / filler.len());
                let quotes: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b'"').collect();
                let at = if quotes.is_empty() {
                    rng.gen_range(0..=bytes.len())
                } else {
                    quotes[rng.gen_range(0..quotes.len())] + 1
                };
                splice(&mut bytes, at, run.as_bytes());
            }
        }
    }
    bytes
}

#[test]
fn the_request_parser_survives_mutated_frames() {
    let corpus = request_corpus();
    let mut rng = ChaCha8Rng::seed_from_u64(SEED);
    let mut rejected = 0;
    for _ in 0..PARSER_CASES {
        let seed = &corpus[rng.gen_range(0..corpus.len())];
        let frame = mutate(&mut rng, seed);
        // The daemon only parses valid UTF-8; a lossy decode still feeds
        // the parser the rest of the mutation.
        if let Err(e) = serde_json::from_str::<Request>(&String::from_utf8_lossy(&frame)) {
            assert!(!e.to_string().is_empty(), "an error names its cause");
            rejected += 1;
        }
    }
    assert!(rejected > PARSER_CASES / 2, "only {rejected} of {PARSER_CASES} mutations rejected");
}

/// One connection to the fuzzed daemon.
struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    fn open(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connects");
        // A hung daemon fails the test instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        let writer = stream.try_clone().expect("clone");
        Self { reader: BufReader::new(stream), writer }
    }

    /// Sends one frame and reads one answer line; `None` when the daemon
    /// closed or reset the connection.
    fn exchange(&mut self, frame: &[u8]) -> Option<Response> {
        self.writer.write_all(&[frame, b"\n"].concat()).ok()?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(
                serde_json::from_str(line.trim_end())
                    .unwrap_or_else(|e| panic!("daemon answered unparseable JSON ({e}): {line}")),
            ),
        }
    }
}

#[test]
fn the_daemon_and_the_snapshot_loader_survive_mutated_input() {
    let mut pipeline = PipelineConfig::fast().without_fidelity();
    pipeline.width_mult = 0.25;
    pipeline.calibration_images = 1;
    let handle = Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 1,
        poll_interval: Duration::from_millis(50),
        max_frame_bytes: MAX_FRAME_BYTES,
        pipeline,
        ..ServeConfig::default()
    })
    .expect("server spawns");
    let mut rng = ChaCha8Rng::seed_from_u64(SEED ^ 1);

    // Snapshot loader: a real two-point report, mutated on disk.
    let report = Client::connect(handle.addr())
        .expect("connects")
        .explore(&snapshot_spec())
        .expect("explore runs");
    let path = std::env::temp_dir().join(format!("dbpim-wire-fuzz-{}.json", std::process::id()));
    report.save(&path).expect("snapshot saves");
    let snapshot = std::fs::read(&path).expect("snapshot reads");
    for _ in 0..SNAPSHOT_CASES {
        std::fs::write(&path, mutate(&mut rng, &snapshot)).expect("write mutated snapshot");
        match DseReport::load(&path) {
            Ok(_) | Err(PipelineError::BadConfig { .. }) => {}
            Err(other) => panic!("snapshot failure is not BadConfig: {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();

    // Live daemon: every frame that does not decode to a request must get a
    // structured BadRequest (or FrameTooLarge and a close). Frames that still
    // decode to compute requests are valid work, not malformed input, and
    // are not sent; nor are blank lines, which get no answer.
    let corpus = request_corpus();
    let mut connection = Connection::open(handle.addr());
    let (mut answered, mut oversized) = (0, 0);
    for _ in 0..DAEMON_CASES {
        let seed = &corpus[rng.gen_range(0..corpus.len())];
        let mut frame = mutate(&mut rng, seed);
        // One frame per line: a mutation must not split the frame in two.
        for byte in &mut frame {
            if *byte == b'\n' {
                *byte = b' ';
            }
        }
        if frame.len() > MAX_FRAME_BYTES {
            oversized += 1;
            if let Some(response) = connection.exchange(&frame) {
                let Response::Error { error } = response else {
                    panic!("oversized frame answered with {response:?}")
                };
                assert_eq!(error.kind, ErrorKind::FrameTooLarge, "{error}");
            }
            connection = Connection::open(handle.addr());
            continue;
        }
        let text = std::str::from_utf8(&frame).ok().map(|t| t.trim_end_matches('\r').trim());
        if text == Some("") {
            continue;
        }
        let decoded = text.and_then(|t| serde_json::from_str::<Request>(t).ok());
        if matches!(
            decoded,
            Some(
                Request::RunModel { .. }
                    | Request::Sweep { .. }
                    | Request::Explore { .. }
                    | Request::Shutdown
            )
        ) {
            continue;
        }
        let response = connection.exchange(&frame).expect("the daemon keeps the connection open");
        answered += 1;
        if decoded.is_none() {
            let Response::Error { error } = response else {
                panic!("malformed frame answered with {response:?}")
            };
            assert_eq!(error.kind, ErrorKind::BadRequest, "{error}");
        }
    }
    assert!(
        answered > DAEMON_CASES / 2,
        "only {answered} of {DAEMON_CASES} frames reached the daemon"
    );
    assert!(oversized > 0, "no mutation crossed the frame limit");

    // The daemon's one worker serves the fuzzing connection until it closes.
    drop(connection);
    let mut client = Client::connect(handle.addr()).expect("connects after the fuzzing");
    client.ping().expect("the daemon still answers Ping");
    client.shutdown().expect("shutdown acknowledged");
    handle.join().expect("daemon exits cleanly");
}
