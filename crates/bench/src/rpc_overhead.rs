//! The RPC transport-overhead measurement, shared by the `bench_rpc` bin
//! (which writes `BENCH_rpc.json`) and the release guard
//! `tests/rpc_overhead.rs` (which asserts the ceilings), so the artifact
//! and the guard always report the same figures against the same bounds.
//!
//! The shared [`crate::rpc_roundtrip_workload`] runs through an
//! in-process `Session` and through a loopback-TCP `RpcClient` against
//! the event-loop server, alternating the two sides within each round.
//! Two job shapes: `score` (evaluation-dominated, a few dozen bytes of
//! counts back — the transport bound) and `covered_sets` (every covered
//! tuple re-materialized on the client — payload-bound, so its bound is
//! looser and catches gross regressions only). Each bound is a ratio of
//! the in-process best time plus a fixed allowance: two loopback hops
//! cost a few tens of microseconds whatever the job, and a fast baseline
//! must not turn that constant into a ratio failure.

use crate::rpc_roundtrip_workload;
use castor_rpc::{RpcClient, RpcConfig, RpcServer};
use castor_service::{Server, ServerConfig};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Measured rounds per job shape (each runs both sides once).
pub const ROUNDS: usize = 30;
/// Unmeasured rounds first: plan compilation, first-touch indexes,
/// socket buffers.
pub const WARMUP_ROUNDS: usize = 5;

/// A ceiling on the TCP best time: `ratio` × the in-process best time
/// plus `allowance`.
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    /// Multiple of the in-process best time.
    pub ratio: f64,
    /// Fixed allowance for the loopback hops.
    pub allowance: Duration,
}

/// The score shape's bound: ≤1.2× + 100 µs.
pub const SCORE_BOUND: Bound = Bound {
    ratio: 1.2,
    allowance: Duration::from_micros(100),
};

/// The covered-sets shape's bound: ≤2.2× + 100 µs.
pub const COVERED_BOUND: Bound = Bound {
    ratio: 2.2,
    allowance: Duration::from_micros(100),
};

/// Best and worst of one side's measured rounds.
#[derive(Debug, Clone, Copy)]
pub struct Spread {
    /// The fastest round (the de-noised estimate for a deterministic job).
    pub min: Duration,
    /// The slowest round.
    pub max: Duration,
}

impl Spread {
    /// `(max − min) / min`: how far the rounds scatter.
    pub fn relative(&self) -> f64 {
        (self.max.as_secs_f64() - self.min.as_secs_f64()) / self.min.as_secs_f64().max(1e-9)
    }
}

/// One job shape measured on both sides, with its bound.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// The in-process `Session` side.
    pub in_process: Spread,
    /// The loopback-TCP side.
    pub tcp: Spread,
    /// The ceiling the TCP side must stay under.
    pub bound: Bound,
}

impl Shape {
    /// TCP best time over in-process best time.
    pub fn ratio(&self) -> f64 {
        self.tcp.min.as_secs_f64() / self.in_process.min.as_secs_f64().max(1e-9)
    }

    /// The TCP best time this shape allows.
    pub fn ceiling(&self) -> Duration {
        self.in_process.min.mul_f64(self.bound.ratio) + self.bound.allowance
    }

    /// Whether the TCP best time is within the ceiling.
    pub fn within_bound(&self) -> bool {
        self.tcp.min <= self.ceiling()
    }

    fn json(&self) -> String {
        format!(
            "{{\n    \"in_process_ns_min\": {},\n    \"in_process_ns_max\": {},\n    \
             \"in_process_spread\": {:.3},\n    \"tcp_loopback_ns_min\": {},\n    \
             \"tcp_loopback_ns_max\": {},\n    \"tcp_loopback_spread\": {:.3},\n    \
             \"tcp_over_in_process\": {:.4},\n    \"bound_ratio\": {},\n    \
             \"bound_allowance_ns\": {},\n    \"ceiling_ns\": {},\n    \"within_bound\": {}\n  }}",
            self.in_process.min.as_nanos(),
            self.in_process.max.as_nanos(),
            self.in_process.relative(),
            self.tcp.min.as_nanos(),
            self.tcp.max.as_nanos(),
            self.tcp.relative(),
            self.ratio(),
            self.bound.ratio,
            self.bound.allowance.as_nanos(),
            self.ceiling().as_nanos(),
            self.within_bound(),
        )
    }
}

/// The whole measurement.
#[derive(Debug, Clone)]
pub struct RpcOverhead {
    /// Host cores (`available_parallelism`).
    pub nproc: usize,
    /// Candidate clauses per job.
    pub beam_clauses: usize,
    /// Positive examples per job.
    pub positive: usize,
    /// Negative examples per job (score only).
    pub negative: usize,
    /// The score shape.
    pub score: Shape,
    /// The covered-sets shape.
    pub covered_sets: Shape,
}

impl RpcOverhead {
    /// The `BENCH_rpc.json` rendering.
    pub fn to_json(&self) -> String {
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\n  \"bench\": \"rpc_roundtrip\",\n  \"nproc\": {},\n  \"workload\": {{\n    \
             \"beam_clauses\": {},\n    \"positive\": {},\n    \"negative\": {},\n    \
             \"warmup_rounds\": {WARMUP_ROUNDS},\n    \"rounds\": {ROUNDS},\n    \
             \"order\": \"alternating\"\n  }},\n  \"score\": {},\n  \"covered_sets\": {}\n}}\n",
            self.nproc,
            self.beam_clauses,
            self.positive,
            self.negative,
            self.score.json(),
            self.covered_sets.json(),
        );
        json
    }
}

/// Alternates `a` and `b` within each round and keeps each side's best
/// and worst time: drift on a shared host hits both sides alike.
fn interleaved(mut a: impl FnMut() -> Duration, mut b: impl FnMut() -> Duration) -> [Spread; 2] {
    for _ in 0..WARMUP_ROUNDS {
        a();
        b();
    }
    let mut spreads = [Spread {
        min: Duration::MAX,
        max: Duration::ZERO,
    }; 2];
    for _ in 0..ROUNDS {
        for (spread, elapsed) in spreads.iter_mut().zip([a(), b()]) {
            spread.min = spread.min.min(elapsed);
            spread.max = spread.max.max(elapsed);
        }
    }
    spreads
}

/// Times `job` once.
fn timed<T>(job: impl FnOnce() -> T) -> Duration {
    let start = Instant::now();
    std::hint::black_box(job());
    start.elapsed()
}

/// Runs the measurement. Panics if the transport changes what a job
/// computes.
pub fn measure_rpc_overhead() -> RpcOverhead {
    let workload = rpc_roundtrip_workload();

    let in_process = Server::new(ServerConfig::default());
    in_process
        .register("bench", Arc::clone(&workload.db))
        .expect("fresh server");
    let session = in_process.session("bench").expect("registered above");

    let service = Arc::new(Server::new(ServerConfig::default()));
    service
        .register("bench", Arc::clone(&workload.db))
        .expect("fresh server");
    let rpc = RpcServer::bind(service, "127.0.0.1:0", RpcConfig::default()).expect("loopback");
    let mut client = RpcClient::connect(rpc.local_addr(), "bench").expect("loopback");
    let client = std::cell::RefCell::new(&mut client);

    let score_session = || {
        session
            .score(
                workload.beam.clone(),
                workload.positive.clone(),
                workload.negative.clone(),
            )
            .expect("in-process score")
    };
    let score_tcp = || {
        client
            .borrow_mut()
            .score(
                workload.beam.clone(),
                workload.positive.clone(),
                workload.negative.clone(),
            )
            .expect("loopback score")
    };
    let covered_session = || {
        session
            .covered_sets(workload.beam.clone(), workload.positive.clone())
            .expect("in-process covered sets")
    };
    let covered_tcp = || {
        client
            .borrow_mut()
            .covered_sets(workload.beam.clone(), workload.positive.clone())
            .expect("loopback covered sets")
    };
    assert_eq!(score_session(), score_tcp(), "the transport changed scores");
    assert_eq!(
        covered_session(),
        covered_tcp(),
        "the transport changed covered sets"
    );

    let [score_in, score_out] = interleaved(|| timed(score_session), || timed(score_tcp));
    let [covered_in, covered_out] = interleaved(|| timed(covered_session), || timed(covered_tcp));
    RpcOverhead {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        beam_clauses: workload.beam.len(),
        positive: workload.positive.len(),
        negative: workload.negative.len(),
        score: Shape {
            in_process: score_in,
            tcp: score_out,
            bound: SCORE_BOUND,
        },
        covered_sets: Shape {
            in_process: covered_in,
            tcp: covered_out,
            bound: COVERED_BOUND,
        },
    }
}
