//! `serve-stream`: closed-loop TCP clients against an in-process `rdms-serve` on an
//! ephemeral loopback port, journaling into the run's own directory. Each client
//! repeats connect → Open → ~1000 `Check`s → Close; the last session of every client stays
//! open, a wire `Shutdown` drains the server (writing checkpoints), and a restarted
//! server on the same directory must `Resume` every session where it stopped.
//!
//! The traced variant replays the same script in-process — `Session::check`,
//! `Journal::append` over a counting sink, frame encode/decode, `Session::snapshot`
//! through JSON and back into `Session::resume`, and `journal::replay` — inside spans.

use crate::calib::Calibration;
use crate::report::{Metrics, Tally};
use crate::rng::{InputDigest, Rng};
use crate::stats::{mean, median, quantile, status_kb, CpuClock};
use crate::trace::{write_csv, Tracer};
use rdms_core::Dms;
use rdms_serve::journal::{
    self, encode_record, Journal, JournalRecord, JournalSink, SessionSnapshot,
};
use rdms_serve::protocol::{self, FrameError, FrameReader, Request, Response, PROTOCOL_VERSION};
use rdms_serve::{CheckOutcome, Server, ServerConfig, ServerHandle, Session};
use rdms_workloads::audit;
use rdms_workloads::streams::{wire_transaction, TransactionStream};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const STREAMS: usize = 3;
/// `audit::first_stream_has_a_head` in the wire's concrete syntax; holds on every
/// reachable configuration, so every streamed transaction is answered `Ok`.
const INVARIANT: &str = "init | exists u. S0(u)";

/// Transactions per session. The drain checkpoint grows quadratically with session
/// length (6.9 MB here), so longer sessions would make recovery dominate the run.
pub const TX_PER_SESSION: usize = 1000;
/// Drain → restart → Resume cycles at the end of the run; each Resume is followed by
/// one more transaction, so every script carries this many extra transactions. One
/// cycle (about 4 s, almost all checkpoint restore) checks that recovery is correct
/// and gives the traced run its `serve.drain_s` and `serve.recover_s`; more cycles
/// would cost the rounds the end-to-end medians are taken over.
const DRAIN_CYCLES: usize = 1;
/// Calibration passes on each side of a recovery or a streaming round, which are too
/// coarse (or, with two clients, too concurrent) to interleave passes with.
const RECOVER_PASSES: usize = 30;
const ROUND_PASSES: usize = 30;
/// Concurrent clients, each on its own connection.
const CLIENTS: usize = 2;
/// Sessions each client streams per round, back to back.
const SESSIONS_PER_ROUND: usize = 3;
/// Distinct seeded scripts the sessions draw from.
const SCRIPT_POOL: usize = 4;
/// How long a client waits for one reply before declaring the server wedged.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

type Script = Vec<(String, BTreeMap<String, u64>)>;

pub struct ServeInputs {
    dms: Arc<Dms>,
    bound: usize,
    /// `TX_PER_SESSION + DRAIN_CYCLES` transactions each.
    scripts: Vec<Script>,
    /// Per round, per client: the scripts of that client's sessions.
    rounds: Vec<Vec<Vec<usize>>>,
}

pub fn generate(seed: u64, rounds: usize, digest: &mut InputDigest) -> ServeInputs {
    let mut rng = Rng::fork(seed, 2);
    let dms = Arc::new(audit::dms(STREAMS));
    let bound = audit::recency_bound(STREAMS);
    let scripts: Vec<Script> = (0..SCRIPT_POOL)
        .map(|_| {
            let stream_seed = rng.next_u64();
            digest.feed(&format!("script {stream_seed}"));
            TransactionStream::new(Arc::clone(&dms), bound, stream_seed)
                .take(TX_PER_SESSION + DRAIN_CYCLES)
                .map(|step| wire_transaction(&dms, &step))
                .collect()
        })
        .collect();
    let rounds = (0..rounds)
        .map(|r| {
            (0..CLIENTS)
                .map(|c| {
                    (0..SESSIONS_PER_ROUND)
                        .map(|_| {
                            let script = rng.range(0, SCRIPT_POOL - 1);
                            digest.feed(&format!("round {r} client {c} script {script}"));
                            script
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    ServeInputs {
        dms,
        bound,
        scripts,
        rounds,
    }
}

impl ServeInputs {
    pub fn sessions(&self) -> usize {
        self.rounds.iter().flatten().map(Vec::len).sum()
    }
}

fn config(dir: &Path) -> ServerConfig {
    ServerConfig {
        journal_dir: Some(dir.to_path_buf()),
        // never fsync: the shared disk's flush latency is not the program's
        journal_fsync_every: usize::MAX,
        allow_remote_shutdown: true,
        ..ServerConfig::default()
    }
}

/// A running server that is drained when dropped, so an early return cannot leave its
/// threads behind.
struct Running(Option<ServerHandle>);

impl Running {
    fn start(dir: &Path) -> io::Result<Running> {
        Ok(Running(Some(
            Server::bind("127.0.0.1:0", config(dir))?.spawn(),
        )))
    }

    fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("server running").addr()
    }

    /// Wait for a server that was told to stop over the wire.
    fn join(mut self) -> io::Result<()> {
        self.0.take().expect("server running").join()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            if let Err(e) = handle.shutdown() {
                eprintln!("perfbench: server stopped with an error: {e}");
            }
        }
    }
}

struct Client {
    stream: TcpStream,
    replies: FrameReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(200)))?;
        let replies = FrameReader::new(stream.try_clone()?, protocol::DEFAULT_MAX_FRAME_LEN);
        Ok(Client { stream, replies })
    }

    fn turn(&mut self, request: &Request) -> io::Result<Response> {
        protocol::write_message(&mut self.stream, request)?;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            match self.replies.poll_frame() {
                Ok(Some(frame)) => {
                    return protocol::decode_response(&frame)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
                }
                Ok(None) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Err(FrameError::Idle) if Instant::now() < deadline => continue,
                Err(e) => return Err(io::Error::other(format!("{e:?}"))),
            }
        }
    }
}

/// A session still open after its round: the last round's sessions wait for the drain.
struct Parked {
    client: Client,
    session: u64,
    script: usize,
}

/// One client's session in one round.
struct Streamed {
    latencies_us: Vec<f64>,
    /// Time inside the Check loop, without the connect/Open/Close handshakes (whose
    /// journal creation and retirement touch the disk).
    streaming_s: f64,
    parked: Option<Parked>,
    tally: Tally,
}

fn open(client: &mut Client, inputs: &ServeInputs) -> io::Result<Option<u64>> {
    Ok(
        match client.turn(&Request::Open {
            version: PROTOCOL_VERSION,
            dms: (*inputs.dms).clone(),
            bound: inputs.bound,
            invariant: INVARIANT.to_string(),
            emit_certificates: false,
        })? {
            Response::Opened { session, .. } => Some(session),
            _ => None,
        },
    )
}

/// Prefix an I/O error with the protocol step it happened at.
fn at(step: &'static str) -> impl Fn(io::Error) -> io::Error {
    move |e| io::Error::new(e.kind(), format!("{step}: {e}"))
}

/// One client's sessions of one round; with `park_last`, the last one stays open.
fn stream_sessions(
    addr: SocketAddr,
    inputs: &ServeInputs,
    scripts: &[usize],
    park_last: bool,
) -> io::Result<Streamed> {
    let mut tally = Tally::default();
    let mut latencies_us = Vec::with_capacity(scripts.len() * TX_PER_SESSION);
    let mut streaming_s = 0.0;
    let mut parked = None;
    for (i, &script) in scripts.iter().enumerate() {
        let mut client = Client::connect(addr).map_err(at("connect"))?;
        let session = open(&mut client, inputs).map_err(at("Open"))?;
        tally.record(session.is_some(), || "serve-stream Open refused".into());
        let streaming = Instant::now();
        for (sent, (action, bindings)) in
            inputs.scripts[script][..TX_PER_SESSION].iter().enumerate()
        {
            let request = Request::Check {
                action: action.clone(),
                bindings: bindings.clone(),
            };
            let start = Instant::now();
            let response = client.turn(&request).map_err(at("Check"))?;
            latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
            let ok = matches!(response, Response::Ok { run_len, .. } if run_len == sent + 1);
            tally.record(ok, || format!("serve-stream Check {sent}: {response:?}"));
        }
        streaming_s += streaming.elapsed().as_secs_f64();
        if park_last && i + 1 == scripts.len() {
            parked = Some(Parked {
                client,
                session: session.unwrap_or(0),
                script,
            });
        } else {
            // Close ends the conversation: the next session reconnects
            let bye = client.turn(&Request::Close).map_err(at("Close"))?;
            tally.record(bye == Response::Bye, || {
                format!("serve-stream Close: {bye:?}")
            });
        }
    }
    Ok(Streamed {
        latencies_us,
        streaming_s,
        parked,
        tally,
    })
}

/// One round's measurements.
struct Round {
    latencies_us: Vec<f64>,
    /// Aggregate rate: the clients' own rates summed (they run concurrently).
    tx_per_s: f64,
    /// CPU time of the whole process — clients, server threads, connection set-up and
    /// tear-down — per `Check` transaction.
    cpu_us_per_tx: f64,
    /// The host's slowdown, from calibration passes on either side of the round.
    slowdown: f64,
}

/// The server for the whole run, the rounds streamed so far and the sessions parked
/// for the drain.
pub struct ServeRun {
    server: Running,
    dir: PathBuf,
    rounds: Vec<Round>,
    parked: Vec<Parked>,
}

pub struct ServeResult {
    rounds: Vec<Round>,
    drain_s: Vec<f64>,
    recover_s: Vec<f64>,
}

impl ServeRun {
    pub fn start(dir: &Path) -> io::Result<ServeRun> {
        Ok(ServeRun {
            server: Running::start(dir)?,
            dir: dir.to_path_buf(),
            rounds: Vec::new(),
            parked: Vec::new(),
        })
    }

    /// One round: every client streams its sessions concurrently; the last round's last
    /// sessions stay open.
    pub fn round(
        &mut self,
        inputs: &ServeInputs,
        round: usize,
        tally: &mut Tally,
    ) -> io::Result<()> {
        let addr = self.server.addr();
        let park_last = round + 1 == inputs.rounds.len();
        let mut calibration = Calibration::start();
        calibration.passes(ROUND_PASSES);
        let start = CpuClock::now();
        let streamed: Vec<Streamed> = std::thread::scope(|scope| {
            let clients: Vec<_> = inputs.rounds[round]
                .iter()
                .map(|scripts| {
                    scope.spawn(move || stream_sessions(addr, inputs, scripts, park_last))
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread panicked"))
                .collect::<io::Result<_>>()
        })?;
        let cpu_s = start.elapsed_s();
        calibration.passes(ROUND_PASSES);
        let mut latencies_us = Vec::new();
        let mut tx_per_s = 0.0;
        for session in streamed {
            tally.attempted += session.tally.attempted;
            tally.failed += session.tally.failed;
            tx_per_s += session.latencies_us.len() as f64 / session.streaming_s;
            latencies_us.extend(session.latencies_us);
            self.parked.extend(session.parked);
        }
        self.rounds.push(Round {
            cpu_us_per_tx: cpu_s * 1e6 / latencies_us.len() as f64,
            latencies_us,
            tx_per_s,
            slowdown: calibration.slowdown(),
        });
        Ok(())
    }

    /// Drain, restart on the same journal directory and resume every parked session,
    /// `DRAIN_CYCLES` times; after each Resume, `Status` must report every transaction
    /// so far and one more `Check` must be accepted.
    pub fn finish(self, inputs: &ServeInputs, tally: &mut Tally) -> io::Result<ServeResult> {
        let ServeRun {
            mut server,
            dir,
            rounds,
            mut parked,
        } = self;
        let (mut drain_s, mut recover_s) = (Vec::new(), Vec::new());
        for cycle in 0..DRAIN_CYCLES {
            // the wire Shutdown stops the server, which checkpoints every open session
            let start = Instant::now();
            let bye = parked[0]
                .client
                .turn(&Request::Shutdown)
                .map_err(at("Shutdown"))?;
            server.join().map_err(at("drain"))?;
            drain_s.push(start.elapsed().as_secs_f64());
            tally.record(bye == Response::Bye, || {
                format!("serve-stream Shutdown: {bye:?}")
            });

            // recovery ends when every session is resumed; timed on the CPU clock, which
            // counts the server threads' checkpoint restore, with calibration passes
            // on either side
            let mut calibration = Calibration::start();
            calibration.passes(RECOVER_PASSES);
            let start = CpuClock::now();
            server = Running::start(&dir).map_err(at("restart"))?;
            for session in &mut parked {
                session.client = Client::connect(server.addr()).map_err(at("reconnect"))?;
                let reply = session
                    .client
                    .turn(&Request::Resume {
                        version: PROTOCOL_VERSION,
                        session: session.session,
                    })
                    .map_err(at("Resume"))?;
                let ok =
                    matches!(reply, Response::Opened { session: id, .. } if id == session.session);
                tally.record(ok, || format!("serve-stream Resume: {reply:?}"));
            }
            let cpu_s = start.elapsed_s();
            calibration.passes(RECOVER_PASSES);
            recover_s.push(cpu_s / calibration.slowdown());

            let accepted = TX_PER_SESSION + cycle;
            for session in &mut parked {
                let status = session
                    .client
                    .turn(&Request::Status)
                    .map_err(at("Status"))?;
                let ok = matches!(status, Response::Stats { transactions, .. } if transactions == accepted);
                tally.record(ok, || {
                    format!("serve-stream Status after Resume: {status:?}")
                });
                let (action, bindings) = &inputs.scripts[session.script][accepted];
                let reply = session
                    .client
                    .turn(&Request::Check {
                        action: action.clone(),
                        bindings: bindings.clone(),
                    })
                    .map_err(at("Check after Resume"))?;
                let ok = matches!(reply, Response::Ok { run_len, .. } if run_len == accepted + 1);
                tally.record(ok, || format!("serve-stream Check after Resume: {reply:?}"));
            }
        }
        for session in &mut parked {
            let bye = session
                .client
                .turn(&Request::Close)
                .map_err(at("final Close"))?;
            tally.record(bye == Response::Bye, || {
                format!("serve-stream final Close: {bye:?}")
            });
        }
        drop(server);
        Ok(ServeResult {
            rounds,
            drain_s,
            recover_s,
        })
    }
}

impl ServeResult {
    fn mean_latency_us(&self) -> f64 {
        let all: Vec<f64> = self
            .rounds
            .iter()
            .flat_map(|r| r.latencies_us.iter().copied())
            .collect();
        mean(&all)
    }
}

/// The CPU cost of a served transaction per round in reference time, reported as the
/// median over rounds.
pub fn end_to_end(result: &ServeResult, metrics: &mut Metrics) {
    let per_round: Vec<f64> = result
        .rounds
        .iter()
        .map(|r| r.cpu_us_per_tx / r.slowdown)
        .collect();
    metrics.put_rounds("tx_cpu_us", &per_round, "us");
}

// ---------------------------------------------------------------------------------------
// traced in-process replay
// ---------------------------------------------------------------------------------------

/// A journal sink that keeps nothing: the replay times record encoding and the append
/// path, not a disk.
struct CountingSink;

impl io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl JournalSink for CountingSink {
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn open_session(inputs: &ServeInputs) -> Session {
    Session::open((*inputs.dms).clone(), inputs.bound, INVARIANT, false)
        .expect("the audit invariant parses")
}

/// The estimate `Session::memory_bytes` gives for one full-length session against the
/// resident-set growth building it caused. Run first in a fresh process, before other
/// phases leave freed heap behind for the session to reuse.
pub fn memory_probe(inputs: &ServeInputs) -> f64 {
    let before = status_kb("VmRSS").unwrap_or(0.0);
    let mut session = open_session(inputs);
    for (action, bindings) in &inputs.scripts[0][..TX_PER_SESSION] {
        session.check(action, bindings);
    }
    let grown_bytes = (status_kb("VmRSS").unwrap_or(0.0) - before) * 1024.0;
    session.memory_bytes() as f64 / grown_bytes.max(1.0)
}

#[derive(Default)]
struct Sizes {
    frame_bytes: Vec<f64>,
    record_bytes: Vec<f64>,
    snapshot_bytes: Vec<f64>,
}

/// One session of the plan, in process: the server's per-transaction work (decode the
/// request, check, journal, respond, encode) and, for the sessions the TCP run drains,
/// checkpoint capture, restore and the journal replay it stands in for.
fn replay_session(
    inputs: &ServeInputs,
    script: usize,
    drained: bool,
    tracer: &mut Tracer,
    sizes: &mut Sizes,
    tally: &mut Tally,
) {
    let open_record = journal::open_record(&inputs.dms, inputs.bound, INVARIANT, false);
    let mut journal = Journal::with_sink(Box::new(CountingSink), &open_record, usize::MAX)
        .expect("the counting sink cannot fail");
    let mut session = open_session(inputs);
    let mut records = vec![open_record];
    for (action, bindings) in &inputs.scripts[script][..TX_PER_SESSION] {
        let request = Request::Check {
            action: action.clone(),
            bindings: bindings.clone(),
        };
        let mut frame = Vec::new();
        tracer
            .span("serve.protocol.encode", || {
                protocol::write_message(&mut frame, &request)
            })
            .expect("in-memory writes cannot fail");
        sizes.frame_bytes.push(frame.len() as f64);
        let decoded = tracer.span("serve.protocol.decode", || {
            protocol::decode_request(&frame[4..])
        });
        let Ok(Request::Check { action, bindings }) = decoded else {
            tally.record(false, || "in-process request round trip".into());
            continue;
        };
        let outcome = tracer.span("incremental.check", || session.check(&action, &bindings));
        let accepted = matches!(outcome, CheckOutcome::Ok { .. });
        tally.record(accepted, || format!("in-process Check: {outcome:?}"));
        let record = JournalRecord::Check { action, bindings };
        sizes.record_bytes.push(encode_record(&record).len() as f64);
        tracer.span("serve.journal.append", || journal.append(&record));
        records.push(record);
        let response = session.respond(&outcome);
        let mut frame = Vec::new();
        tracer
            .span("serve.protocol.encode", || {
                protocol::write_message(&mut frame, &response)
            })
            .expect("in-memory writes cannot fail");
        sizes.frame_bytes.push(frame.len() as f64);
        let decoded = tracer.span("serve.protocol.decode", || {
            protocol::decode_response(&frame[4..])
        });
        tally.record(decoded.as_ref() == Ok(&response), || {
            "in-process response round trip".into()
        });
    }
    if !drained {
        return;
    }
    let json = tracer.span("serve.snapshot.capture", || {
        serde_json::to_string(&session.snapshot()).expect("snapshots serialize")
    });
    sizes.snapshot_bytes.push(json.len() as f64);
    let restored = tracer.span("serve.snapshot.restore", || {
        serde_json::from_str::<SessionSnapshot>(&json)
            .ok()
            .and_then(|snapshot| Session::resume(snapshot).ok())
    });
    let replayed = tracer.span("serve.journal.replay", || journal::replay(&records));
    let ok = restored.is_some_and(|s| s.transactions() == TX_PER_SESSION)
        && replayed.is_some_and(|(s, n)| n == TX_PER_SESSION && s.transactions() == TX_PER_SESSION);
    tally.record(ok, || "in-process restore/replay".into());
}

fn replay_plan(inputs: &ServeInputs, tracer: &mut Tracer, sizes: &mut Sizes, tally: &mut Tally) {
    for (r, round) in inputs.rounds.iter().enumerate() {
        for scripts in round {
            for (i, &script) in scripts.iter().enumerate() {
                let drained = r + 1 == inputs.rounds.len() && i + 1 == scripts.len();
                let open = tracer.enter("serve.session");
                replay_session(inputs, script, drained, tracer, sizes, tally);
                tracer.exit(open);
            }
        }
    }
}

pub fn traced(
    inputs: &ServeInputs,
    tcp: &ServeResult,
    memory_estimate_over_rss: f64,
    spans: &Path,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> io::Result<()> {
    let start = Instant::now();
    replay_plan(
        inputs,
        &mut Tracer::new(false),
        &mut Sizes::default(),
        &mut Tally::default(),
    );
    let untraced_s = start.elapsed().as_secs_f64();
    let mut tracer = Tracer::new(true);
    let mut sizes = Sizes::default();
    let start = Instant::now();
    replay_plan(inputs, &mut tracer, &mut sizes, tally);
    let traced_s = start.elapsed().as_secs_f64();

    let totals = tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let check = get("incremental.check");
    metrics.put("incremental.check_us", check.mean_us(), "us");
    metrics.put(
        "serve.protocol.encode_us",
        get("serve.protocol.encode").mean_us(),
        "us",
    );
    metrics.put(
        "serve.protocol.decode_us",
        get("serve.protocol.decode").mean_us(),
        "us",
    );
    metrics.put(
        "serve.protocol.frame_bytes",
        mean(&sizes.frame_bytes),
        "bytes",
    );
    metrics.put(
        "serve.transport_us",
        tcp.mean_latency_us() - check.mean_us(),
        "us",
    );
    let per_round_p50: Vec<f64> = tcp
        .rounds
        .iter()
        .map(|r| quantile(&r.latencies_us, 0.5))
        .collect();
    metrics.put("serve.tx_latency_us_p50", median(&per_round_p50), "us");
    let per_round_p99: Vec<f64> = tcp
        .rounds
        .iter()
        .map(|r| quantile(&r.latencies_us, 0.99))
        .collect();
    metrics.put("serve.tx_latency_us_p99", median(&per_round_p99), "us");
    let per_round_rate: Vec<f64> = tcp.rounds.iter().map(|r| r.tx_per_s).collect();
    metrics.put("serve.tx_per_s", median(&per_round_rate), "1/s");
    metrics.put("serve.drain_s", median(&tcp.drain_s), "s");
    metrics.put("serve.recover_s", median(&tcp.recover_s), "s");
    metrics.put(
        "serve.journal.append_us",
        get("serve.journal.append").mean_us(),
        "us",
    );
    metrics.put(
        "serve.journal.record_bytes",
        mean(&sizes.record_bytes),
        "bytes",
    );
    let (capture, restore, replay) = (
        get("serve.snapshot.capture"),
        get("serve.snapshot.restore"),
        get("serve.journal.replay"),
    );
    let per_session = |t: crate::trace::SpanTotals| t.total_ms() / t.calls.max(1) as f64;
    metrics.put("serve.snapshot.capture_ms", per_session(capture), "ms");
    metrics.put("serve.snapshot.bytes", mean(&sizes.snapshot_bytes), "bytes");
    metrics.put("serve.snapshot.restore_ms", per_session(restore), "ms");
    metrics.put("serve.journal.replay_ms", per_session(replay), "ms");
    metrics.put(
        "serve.restore_over_replay",
        restore.total_ns as f64 / replay.total_ns.max(1) as f64,
        "ratio",
    );
    metrics.put(
        "serve.session.memory_estimate_over_rss",
        memory_estimate_over_rss,
        "ratio",
    );
    metrics.put(
        "trace.overhead.serve_stream",
        traced_s / untraced_s,
        "ratio",
    );
    write_csv(&[&tracer], spans)
}
