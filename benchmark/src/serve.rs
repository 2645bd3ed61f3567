//! `serve-mixed`: one client thread in a closed loop over loopback RPC
//! (the epoll core, protocol v2) against a server holding the four UW-CSE
//! variants of an enlarged department, each registered on its own with its
//! own coverage cache. The variants are not bound to one shared arena
//! (`Server::register_variant`): the arena keys verdicts by a lens image
//! that merges part literals sharing no join attribute, so it serves some
//! clauses another clause's verdicts, and a workload on it cannot check
//! out correct (see README). The client holds one connection at a time
//! and reconnects when the stream moves to another variant; the reconnect
//! is not part of any operation's latency.
//!
//! The traced run replays the stream in lockstep through the RPC server,
//! an in-process `Session` on a second server, and bare `Engine`s with
//! caches of their own, to split each operation's time into wire,
//! service and engine.

use crate::inputs::{
    enlarged_family, family_digest, stream_digest, Digest, OpKind, ServeOp, ServeStream, VARIANTS,
};
use crate::report::{
    engine_metrics, histogram_sum_s, median, peak_rss_mb, percentile, secs, thread_count,
    time_set_ups, Outcome,
};
use castor_datasets::SchemaFamily;
use castor_engine::{ClauseCounts, Engine, EngineConfig, EngineReport, WorkerPool};
use castor_logic::covers_example;
use castor_obs::{Obs, ObsConfig};
use castor_relational::{MutationOp, MutationSummary, Tuple};
use castor_rpc::frame::{write_response_v, COVERED_CHUNK_SETS};
use castor_rpc::{
    ClientConfig, Response, RpcClient, RpcConfig, RpcError, RpcServer, ServerCore, StreamBody,
    PROTOCOL_V2,
};
use castor_service::{Server, ServerConfig, Session};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request groups sent before timing starts (plan compilation, first
/// cache fills).
const WARMUP_GROUPS: usize = 64;
/// Timed operations per second of `--seconds`: about the rate one client
/// reaches on a 2-core host.
const OPS_PER_SECOND: f64 = 50.0;
/// Longest wait for one request to be sent or answered. A request that
/// takes longer counts as failed (a missed deadline), so a server that
/// stops answering cannot hang the run.
const OP_TIMEOUT: Duration = Duration::from_secs(10);

/// One operation's answer, from any of the three stacks.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Scores(Vec<ClauseCounts>),
    Covered(Vec<HashSet<Tuple>>),
    Applied(MutationSummary),
}

/// Bytes of the frames a v2 server sends for `answer`: covered sets go out
/// as stream chunks of at most `COVERED_CHUNK_SETS` sets, the last one
/// flagged (one empty chunk for an empty answer); other answers as one
/// frame.
fn encoded_len(answer: Answer) -> usize {
    let frames = match answer {
        Answer::Scores(counts) => vec![Response::Scores(counts)],
        Answer::Applied(summary) => vec![Response::Mutated(summary)],
        Answer::Covered(sets) => {
            let chunks: Vec<Vec<HashSet<Tuple>>> = if sets.is_empty() {
                vec![Vec::new()]
            } else {
                sets.chunks(COVERED_CHUNK_SETS).map(<[_]>::to_vec).collect()
            };
            let total = chunks.len() as u64;
            chunks
                .into_iter()
                .zip(0..)
                .map(|(chunk, seq)| Response::Stream {
                    seq,
                    last: seq + 1 == total,
                    body: StreamBody::CoveredChunk(chunk),
                })
                .collect()
        }
    };
    let mut bytes = Vec::new();
    for frame in &frames {
        write_response_v(&mut bytes, PROTOCOL_V2, 0, frame).expect("encoding into memory");
    }
    bytes.len()
}

/// The service side of the run: the data, and the server holding its
/// variants behind a loopback RPC listener.
struct Stack {
    family: SchemaFamily,
    server: Arc<Server>,
    rpc: RpcServer,
}

fn register_variants(server: &Server, family: &SchemaFamily) {
    for variant in &family.variants {
        server
            .register(&variant.name, Arc::clone(&variant.db))
            .expect("each variant registers once per server");
    }
}

fn set_up() -> (Stack, Duration) {
    let start = Instant::now();
    let family = enlarged_family();
    let server = Arc::new(Server::new(ServerConfig::default()));
    register_variants(&server, &family);
    let rpc = RpcServer::bind(
        Arc::clone(&server),
        "127.0.0.1:0",
        RpcConfig::default().with_core(ServerCore::EventLoop),
    )
    .expect("loopback bind");
    (
        Stack {
            family,
            server,
            rpc,
        },
        start.elapsed(),
    )
}

/// The load generator's single connection, bound to one variant at a time.
struct Client {
    addr: SocketAddr,
    conn: Option<(usize, RpcClient)>,
}

impl Client {
    fn call(&mut self, op: &ServeOp) -> (Result<Answer, RpcError>, Duration) {
        if self.conn.as_ref().map(|(v, _)| *v) != Some(op.variant) {
            // Close the old connection before opening the next one.
            self.conn = None;
            let config = ClientConfig::default()
                .with_protocol_version(PROTOCOL_V2)
                .with_read_timeout(OP_TIMEOUT)
                .with_write_timeout(OP_TIMEOUT);
            match RpcClient::connect_config(self.addr, VARIANTS[op.variant], &config) {
                Ok(client) => self.conn = Some((op.variant, client)),
                Err(error) => return (Err(error), Duration::ZERO),
            }
        }
        let (_, client) = self.conn.as_mut().expect("connected above");
        let start = Instant::now();
        let answer = match op.kind {
            OpKind::Score => client
                .score(op.clauses.clone(), op.positive.clone(), op.negative.clone())
                .map(Answer::Scores),
            OpKind::Covered => client
                .covered_sets(op.clauses.clone(), examples(op))
                .map(Answer::Covered),
            OpKind::Apply => client.apply(op.batch.clone()).map(Answer::Applied),
        };
        let elapsed = start.elapsed();
        if answer.is_err() {
            self.conn = None;
        }
        (answer, elapsed)
    }
}

fn examples(op: &ServeOp) -> Vec<Tuple> {
    op.positive.iter().chain(&op.negative).cloned().collect()
}

/// Answer counts against the reference, for the quality metrics.
#[derive(Debug, Default)]
struct Agreement {
    true_positive: usize,
    false_positive: usize,
    false_negative: usize,
}

impl Agreement {
    fn count(&mut self, served: usize, reference: usize, both: usize) {
        self.true_positive += both;
        self.false_positive += served - both;
        self.false_negative += reference - both;
    }
}

/// Recomputes a sampled answer against the variant's current snapshot with
/// the uncached reference evaluator.
fn verify(
    op: &ServeOp,
    answer: &Answer,
    snapshots: &[Session],
    agreement: &mut Agreement,
    out: &mut Outcome,
) {
    let db = snapshots[op.variant].snapshot();
    let covered = |clause, examples: &[Tuple]| -> HashSet<Tuple> {
        examples
            .iter()
            .filter(|e| covers_example(clause, &db, e))
            .cloned()
            .collect()
    };
    let ok = match answer {
        Answer::Scores(counts) => {
            counts.len() == op.clauses.len()
                && op.clauses.iter().zip(counts).all(|(clause, served)| {
                    let positive = covered(clause, &op.positive).len();
                    let negative = covered(clause, &op.negative).len();
                    agreement.count(served.positive, positive, served.positive.min(positive));
                    agreement.count(served.negative, negative, served.negative.min(negative));
                    served.positive == positive && served.negative == negative
                })
        }
        Answer::Covered(sets) => {
            let all = examples(op);
            sets.len() == op.clauses.len()
                && op.clauses.iter().zip(sets).all(|(clause, served)| {
                    let reference = covered(clause, &all);
                    agreement.count(
                        served.len(),
                        reference.len(),
                        served.intersection(&reference).count(),
                    );
                    *served == reference
                })
        }
        Answer::Applied(summary) => {
            summary.inserted + summary.removed == op.batch.len()
                && op.batch.ops().iter().all(|m| match m {
                    MutationOp::Insert { relation, tuple } => db.contains(relation, tuple),
                    MutationOp::Remove { relation, tuple } => !db.contains(relation, tuple),
                })
        }
    };
    out.check(ok, || {
        format!(
            "{} on {}: served {answer:?} disagrees with the uncached reference",
            op.kind.name(),
            VARIANTS[op.variant]
        )
    });
}

/// Latencies per op kind, in ms.
#[derive(Debug, Default)]
struct Latencies {
    by_kind: [Vec<f64>; 3],
}

impl Latencies {
    fn push(&mut self, kind: OpKind, elapsed: Duration) {
        self.by_kind[kind as usize].push(secs(elapsed) * 1e3);
    }

    fn count(&self) -> usize {
        self.by_kind.iter().map(Vec::len).sum()
    }

    fn total_s(&self) -> f64 {
        self.by_kind.iter().flatten().sum::<f64>() / 1e3
    }

    fn summary(&self) -> String {
        OpKind::ALL
            .iter()
            .map(|&kind| {
                let sample = &self.by_kind[kind as usize];
                if sample.is_empty() {
                    return format!("\"{}\": {{\"ops\": 0}}", kind.name());
                }
                format!(
                    "\"{}\": {{\"ops\": {}, \"p50_ms\": {:?}, \"p99_ms\": {:?}}}",
                    kind.name(),
                    sample.len(),
                    percentile(sample, 0.5),
                    percentile(sample, 0.99)
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Snapshot readers: one in-process session per variant of `server`.
fn snapshot_sessions(server: &Server) -> Vec<Session> {
    VARIANTS
        .iter()
        .map(|name| server.session(name).expect("variant registered at set-up"))
        .collect()
}

/// The load generator: the client connection, and the checks it makes on
/// sampled answers.
struct LoadGenerator {
    client: Client,
    snapshots: Vec<Session>,
    agreement: Agreement,
}

impl LoadGenerator {
    /// Sends one op over RPC; a failed op is counted and yields `None`.
    fn send(&mut self, op: &ServeOp, out: &mut Outcome) -> Option<(Answer, Duration)> {
        out.attempted += 1;
        let (answer, elapsed) = self.client.call(op);
        match answer {
            Ok(answer) => {
                if op.verify {
                    verify(op, &answer, &self.snapshots, &mut self.agreement, out);
                }
                Some((answer, elapsed))
            }
            Err(error) => {
                out.failed += 1;
                eprintln!(
                    "{} on {} failed: {error}",
                    op.kind.name(),
                    VARIANTS[op.variant]
                );
                None
            }
        }
    }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let threads = thread_count();
    let (stack, _) = set_up();
    let mut stream = ServeStream::new(&stack.family, seed);
    let mut digest = Digest::default();
    family_digest(&stack.family, &mut digest);
    stream_digest(
        &mut ServeStream::new(&stack.family, seed),
        WARMUP_GROUPS,
        &mut digest,
    );
    out.input_digest = digest.hex();

    let mut load = LoadGenerator {
        client: Client {
            addr: stack.rpc.local_addr(),
            conn: None,
        },
        snapshots: snapshot_sessions(&stack.server),
        agreement: Agreement::default(),
    };
    if trace {
        traced(&stack, &mut stream, seconds, &mut load, &mut out);
    } else {
        for _ in 0..WARMUP_GROUPS {
            for op in stream.next_group() {
                load.send(&op, &mut out);
            }
        }
        let mut latencies = Latencies::default();
        // A fixed amount of work per run (not a fixed time), so the cache
        // and the resident set grow the same way on a slow and a fast
        // host. Failed ops count toward it too, so a server that stops
        // answering ends the run with its failures counted.
        let end = out.attempted + (seconds * OPS_PER_SECOND) as u64;
        while out.attempted < end {
            for op in stream.next_group() {
                if let Some((_, elapsed)) = load.send(&op, &mut out) {
                    latencies.push(op.kind, elapsed);
                }
            }
        }
        let all: Vec<f64> = latencies.by_kind.concat();
        out.check(!all.is_empty(), || "no operation completed".into());
        out.set(
            "work_s",
            if all.is_empty() {
                0.0
            } else {
                median(&all) / 1e3
            },
        );
        out.details.push(format!(
            "{{\"ops\": {}, \"ops_per_s\": {:?}, {}}}",
            latencies.count(),
            latencies.count() as f64 / latencies.total_s(),
            latencies.summary()
        ));
    }

    let agreement = &load.agreement;
    out.check(agreement.true_positive > 0, || {
        "no sampled answer covered anything".into()
    });
    let covered = agreement.true_positive + agreement.false_positive;
    let relevant = agreement.true_positive + agreement.false_negative;
    out.set(
        "precision",
        agreement.true_positive as f64 / covered.max(1) as f64,
    );
    out.set(
        "recall",
        agreement.true_positive as f64 / relevant.max(1) as f64,
    );
    out.set("peak_rss_mb", peak_rss_mb());
    drop(load);
    drop(stack);
    let setup_times = time_set_ups(threads, set_up);
    out.set("setup_s", median(&setup_times));
    out.details
        .push(format!("{{\"setup_s\": {setup_times:?}}}"));
    out
}

/// Bare engines, one per variant, built as the server builds them.
fn bare_engines(family: &SchemaFamily) -> Vec<Engine> {
    let config = EngineConfig::default().with_threads(1);
    let pool = Arc::new(WorkerPool::new(1));
    let obs = Arc::new(Obs::new(ObsConfig::default()));
    family
        .variants
        .iter()
        .map(|variant| {
            Engine::with_labeled_observability(
                Arc::clone(&variant.db),
                config.clone(),
                Arc::clone(&pool),
                Arc::clone(&obs),
                &variant.name,
            )
        })
        .collect()
}

fn session_call(session: &Session, op: &ServeOp) -> Answer {
    let answer = match op.kind {
        OpKind::Score => session
            .score(op.clauses.clone(), op.positive.clone(), op.negative.clone())
            .map(Answer::Scores),
        OpKind::Covered => session
            .covered_sets(op.clauses.clone(), examples(op))
            .map(Answer::Covered),
        OpKind::Apply => session.apply(op.batch.clone()).map(Answer::Applied),
    };
    answer.expect("in-process sessions are never cancelled")
}

fn engine_call(engine: &Engine, op: &ServeOp) -> Answer {
    match op.kind {
        OpKind::Score => {
            Answer::Scores(engine.coverage_counts_batch(&op.clauses, &op.positive, &op.negative))
        }
        OpKind::Covered => Answer::Covered(engine.covered_sets_batch(&op.clauses, &examples(op))),
        OpKind::Apply => Answer::Applied(engine.apply(&op.batch).expect("stream mutations apply")),
    }
}

/// One op through all three stacks, in a rotating order so no stack
/// always finds the processor caches warm. Returns the RPC answer and the
/// three times, or `None` when the RPC op failed.
fn lockstep(
    op: &ServeOp,
    turn: usize,
    load: &mut LoadGenerator,
    sessions: &[Session],
    engines: &[Engine],
    out: &mut Outcome,
) -> Option<(Answer, [Duration; 3])> {
    let mut rpc = None;
    let mut in_process = None;
    let mut bare = None;
    for k in 0..3 {
        match (turn + k) % 3 {
            0 => rpc = load.send(op, out),
            1 => {
                let start = Instant::now();
                in_process = Some((session_call(&sessions[op.variant], op), start.elapsed()));
            }
            _ => {
                let start = Instant::now();
                bare = Some((engine_call(&engines[op.variant], op), start.elapsed()));
            }
        }
    }
    let (session_answer, session_time) = in_process.expect("ran");
    let (engine_answer, engine_time) = bare.expect("ran");
    let (answer, rpc_time) = rpc?;
    out.check(answer == session_answer && answer == engine_answer, || {
        format!(
            "{} on {}: RPC, session and engine answers differ",
            op.kind.name(),
            VARIANTS[op.variant]
        )
    });
    Some((answer, [rpc_time, session_time, engine_time]))
}

/// The traced half-and-half: first every op in lockstep through RPC, an
/// in-process session and a bare engine (the layer split); then the RPC
/// stack alone (per-op latencies, and the tracing overhead by comparison).
fn traced(
    stack: &Stack,
    stream: &mut ServeStream,
    seconds: f64,
    load: &mut LoadGenerator,
    out: &mut Outcome,
) {
    let shadow = Server::new(ServerConfig::default());
    register_variants(&shadow, &stack.family);
    let sessions = snapshot_sessions(&shadow);
    let engines = bare_engines(&stack.family);
    for turn in 0..WARMUP_GROUPS {
        for op in stream.next_group() {
            lockstep(&op, turn, load, &sessions, &engines, out);
        }
    }

    let (mut wire, mut service, mut direct) = (0.0, 0.0, 0.0);
    let mut lockstep_rpc = Latencies::default();
    let mut response_bytes = 0usize;
    let started = Instant::now();
    let mut i = 0usize;
    while secs(started.elapsed()) < seconds / 2.0 {
        for op in stream.next_group() {
            i += 1;
            let Some((answer, [rpc, session, engine])) =
                lockstep(&op, i, load, &sessions, &engines, out)
            else {
                continue;
            };
            lockstep_rpc.push(op.kind, rpc);
            wire += secs(rpc) - secs(session);
            service += secs(session) - secs(engine);
            direct += secs(engine);
            response_bytes += encoded_len(answer);
        }
    }
    let exposition = stack.server.metrics_text();
    let mut engine = EngineReport::default();
    for name in VARIANTS {
        engine = engine.combined(&stack.server.report(name).expect("registered"));
    }
    out.set("rpc.wire_s", wire);
    out.set("service.session_s", service);
    out.set("engine.direct_s", direct);
    out.set("rpc.response_bytes", response_bytes as f64);
    out.set(
        "rpc.loop_phase_s",
        histogram_sum_s(&exposition, "castor_rpc_loop_phase_ns"),
    );
    out.set(
        "service.queue_wait_s",
        histogram_sum_s(&exposition, "castor_queue_wait_ns"),
    );
    out.set(
        "service.job_run_s",
        histogram_sum_s(&exposition, "castor_job_run_ns"),
    );
    engine_metrics(&engine, out);

    // The RPC stack alone (the shadows are done): per-op latencies.
    let mut alone = Latencies::default();
    let started = Instant::now();
    while secs(started.elapsed()) < seconds / 2.0 {
        for op in stream.next_group() {
            if let Some((_, elapsed)) = load.send(&op, out) {
                alone.push(op.kind, elapsed);
            }
        }
    }
    for kind in OpKind::ALL {
        let sample = &alone.by_kind[kind as usize];
        if sample.is_empty() {
            continue;
        }
        let (p50, p99) = match kind {
            OpKind::Score => ("serve.score_p50_ms", "serve.score_p99_ms"),
            OpKind::Covered => ("serve.covered_p50_ms", "serve.covered_p99_ms"),
            OpKind::Apply => ("serve.apply_p50_ms", "serve.apply_p99_ms"),
        };
        out.set(p50, percentile(sample, 0.5));
        out.set(p99, percentile(sample, 0.99));
    }
    out.set("serve.ops_per_s", alone.count() as f64 / alone.total_s());
    out.set(
        "bench.trace_overhead_frac",
        (lockstep_rpc.total_s() / lockstep_rpc.count().max(1) as f64)
            / (alone.total_s() / alone.count().max(1) as f64)
            - 1.0,
    );
    out.details.push(format!(
        "{{\"lockstep_ops\": {}, \"alone\": {{{}}}}}",
        lockstep_rpc.count(),
        alone.summary()
    ));
}
