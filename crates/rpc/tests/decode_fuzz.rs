//! Seeded decoder fuzzing: valid encodings of every request and
//! response kind are mutated byte-wise (bit flips, truncation, splices,
//! length-prefix and varint edits) and fed to the server's
//! [`FrameAccumulator`] and the client's [`read_response`]. Every input
//! must either decode to a value that survives a re-encode/decode round
//! trip or fail with a typed [`FrameError`]; a panic fails the test and
//! names the seed, and `fuzz_one(seed)` replays that exact input.

use castor_engine::{ClauseCounts, EngineReport, LearnProgress};
use castor_learners::{LearnerParams, LearningTask};
use castor_logic::{Atom, Clause, Definition, Term};
use castor_relational::{MutationBatch, MutationSummary, Tuple};
use castor_rpc::frame::{read_response, request_to_bytes_v, write_response_v, FrameAccumulator};
use castor_rpc::{ErrorCode, FrameError, Request, Response, StreamBody, PROTOCOL_V2};
use castor_service::{LearnAlgorithm, ServerReport};
use std::collections::HashSet;
use std::fmt::Debug;

/// Mutated inputs per run: enough to reach every kind many times over,
/// few enough for the unoptimized test suite.
const ITERATIONS: u64 = 20_000;
/// Frame cap of the decoders under test (forged prefixes above it must
/// be refused before anything is buffered).
const MAX_FRAME_BYTES: usize = 1 << 20;

/// SplitMix64: a tiny, dependency-free, seedable generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn clause() -> Clause {
    Clause::new(
        Atom::vars("advisedBy", &["x", "y"]),
        vec![
            Atom::vars("publication", &["p", "x"]),
            Atom::new("publication", vec![Term::var("p"), Term::constant("ann")]),
        ],
    )
}

fn examples() -> Vec<Tuple> {
    vec![
        Tuple::from_strs(&["ann", "bob"]),
        Tuple::from_strs(&["carol", "dan"]),
    ]
}

fn covered() -> Vec<HashSet<Tuple>> {
    vec![examples().into_iter().collect(), HashSet::new()]
}

/// One valid request of every kind.
fn requests() -> Vec<Request> {
    let task = LearningTask::new(
        "advisedBy",
        2,
        examples(),
        vec![Tuple::from_strs(&["e", "f"])],
    );
    vec![
        Request::Hello {
            database: "uwcse".into(),
            eval_budget: Some(30_000),
            stream_credit: Some(64),
        },
        Request::Coverage {
            clauses: vec![clause(), clause()],
            examples: examples(),
            deadline_ms: Some(250),
        },
        Request::Score {
            clauses: vec![clause()],
            positive: examples(),
            negative: vec![Tuple::from_strs(&["e", "f"])],
            deadline_ms: None,
        },
        Request::Learn {
            task: task.clone(),
            algorithm: LearnAlgorithm::Progol(LearnerParams::default()),
            deadline_ms: Some(1_000),
        },
        Request::Learn {
            task,
            algorithm: LearnAlgorithm::Castor(Box::default()),
            deadline_ms: None,
        },
        Request::Mutate(
            MutationBatch::new()
                .insert("publication", Tuple::from_strs(&["p9", "ann"]))
                .remove("publication", Tuple::from_strs(&["p1", "bob"])),
        ),
        Request::Report,
        Request::ServerReport,
        Request::Metrics,
        Request::TraceDump,
        Request::StreamCredit { grant: 512 },
    ]
}

/// One valid response of every kind, both stream bodies included.
fn responses() -> Vec<Response> {
    let report = EngineReport {
        coverage_tests: 120,
        cache_hits: 40,
        plans_compiled: 3,
        ..EngineReport::default()
    };
    vec![
        Response::HelloOk,
        Response::Covered(covered()),
        Response::Scores(vec![
            ClauseCounts {
                positive: 5,
                negative: 1,
            },
            ClauseCounts {
                positive: 0,
                negative: 0,
            },
        ]),
        Response::Learned(Definition::new("advisedBy", vec![clause()])),
        Response::Mutated(MutationSummary {
            inserted: 1,
            removed: 1,
            changed_relations: ["publication".to_string()].into_iter().collect(),
        }),
        Response::Report(report),
        Response::ServerReport {
            engine: report,
            server: ServerReport {
                sessions_accepted: 3,
                jobs_submitted: 9,
                ..ServerReport::default()
            },
        },
        Response::Metrics("castor_jobs_submitted_total 9\n".into()),
        Response::TraceDump("{\"traceEvents\":[]}".into()),
        Response::Stream {
            seq: 0,
            last: false,
            body: StreamBody::Progress(LearnProgress {
                round: 0,
                clause: clause(),
                covered_positive: 2,
                covered_negative: 0,
                uncovered_remaining: 1,
            }),
        },
        Response::Stream {
            seq: 1,
            last: true,
            body: StreamBody::CoveredChunk(covered()),
        },
        Response::Error {
            code: ErrorCode::Rejected,
            limit: 4,
            message: "in-flight cap".into(),
            retry_after_ms: 40,
        },
    ]
}

fn request_frame(id: u64, request: &Request) -> Vec<u8> {
    request_to_bytes_v(PROTOCOL_V2, id, request)
}

fn response_frame(id: u64, response: &Response) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_response_v(&mut bytes, PROTOCOL_V2, id, response).expect("vec writes cannot fail");
    bytes
}

/// Appends `value` as a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push((value as u8) | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// Applies one to three random byte-level mutations to `bytes`; `donor`
/// is another valid encoding to splice from.
fn mutate(rng: &mut SplitMix64, bytes: &mut Vec<u8>, donor: &[u8]) {
    for _ in 0..1 + rng.below(3) {
        match rng.below(5) {
            // Bit flips.
            0 => {
                for _ in 0..1 + rng.below(4) {
                    if !bytes.is_empty() {
                        let at = rng.below(bytes.len());
                        bytes[at] ^= 1 << rng.below(8);
                    }
                }
            }
            // Truncation.
            1 => {
                let keep = rng.below(bytes.len() + 1);
                bytes.truncate(keep);
            }
            // Splice a slice of the donor in at a random point.
            2 => {
                let start = rng.below(donor.len());
                let end = start + rng.below(donor.len() - start + 1);
                let at = rng.below(bytes.len() + 1);
                let tail = bytes.split_off(at);
                bytes.extend_from_slice(&donor[start..end]);
                if rng.below(2) == 0 {
                    bytes.extend_from_slice(&tail);
                }
            }
            // Rewrite the frame's length prefix: near the truth, tiny, or
            // far past the cap.
            3 => {
                if bytes.len() >= 4 {
                    let declared = match rng.below(3) {
                        0 => (bytes.len() as u64 - 4)
                            .saturating_add_signed(rng.below(33) as i64 - 16),
                        1 => rng.below(16) as u64,
                        _ => rng.next() & 0xFFFF_FFFF,
                    };
                    bytes[..4].copy_from_slice(&(declared as u32).to_le_bytes());
                }
            }
            // Overwrite payload bytes with a varint: forged counts,
            // lengths, tags and sequence numbers.
            _ => {
                if bytes.len() > 14 {
                    let at = 14 + rng.below(bytes.len() - 14);
                    let value = match rng.below(3) {
                        0 => rng.below(300) as u64,
                        1 => rng.next() >> rng.below(64),
                        _ => (bytes.len() - at) as u64,
                    };
                    let mut varint = Vec::new();
                    put_varint(&mut varint, value);
                    let end = (at + varint.len()).min(bytes.len());
                    bytes.splice(at..end, varint);
                }
            }
        }
    }
}

/// Whether two decodes of the same bytes agree. `PartialEq` misses only
/// on NaN floats, which a flipped bit can produce; their renderings
/// still agree.
fn same<T: PartialEq + Debug>(a: &T, b: &T) -> bool {
    a == b || format!("{a:?}") == format!("{b:?}")
}

/// Drains every frame the server-side accumulator yields for `bytes`.
fn check_requests(bytes: &[u8]) {
    let mut frames = FrameAccumulator::new(MAX_FRAME_BYTES);
    frames.feed(bytes);
    while let Some(next) = frames.next_request() {
        match next {
            Ok((id, request)) => {
                let mut again = FrameAccumulator::new(MAX_FRAME_BYTES);
                again.feed(&request_frame(id, &request));
                let (id2, request2) = again
                    .next_request()
                    .expect("a re-encoded frame is complete")
                    .expect("a decoded request re-encodes to a decodable frame");
                assert_eq!(id2, id);
                assert!(same(&request2, &request), "{request2:?} != {request:?}");
            }
            Err((_, error)) => assert_typed(&error),
        }
    }
}

/// Reads responses off `bytes` with the client's reader until it fails.
fn check_responses(bytes: &[u8]) {
    let mut rest = bytes;
    loop {
        match read_response(&mut rest, MAX_FRAME_BYTES) {
            Ok((id, response)) => {
                let encoded = response_frame(id, &response);
                let (id2, response2) = read_response(&mut encoded.as_slice(), MAX_FRAME_BYTES)
                    .expect("a decoded response re-encodes to a decodable frame");
                assert_eq!(id2, id);
                assert!(same(&response2, &response), "{response2:?} != {response:?}");
            }
            Err(error) => {
                assert_typed(&error);
                return;
            }
        }
    }
}

/// Decoders fail with a protocol error or, on a short read, an I/O
/// error; never anything else.
fn assert_typed(error: &FrameError) {
    match error {
        FrameError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}"),
        FrameError::Closed
        | FrameError::TooLarge { .. }
        | FrameError::Malformed(_)
        | FrameError::Version { .. } => {}
    }
}

/// One mutated input from `seed`, through the decoder of its side.
fn fuzz_one(seed: u64) {
    let mut rng = SplitMix64(seed);
    let id = rng.next();
    if rng.below(2) == 0 {
        let corpus = requests();
        let mut bytes = request_frame(id, &corpus[rng.below(corpus.len())]);
        let donor = request_frame(rng.next(), &corpus[rng.below(corpus.len())]);
        mutate(&mut rng, &mut bytes, &donor);
        check_requests(&bytes);
    } else {
        let corpus = responses();
        let mut bytes = response_frame(id, &corpus[rng.below(corpus.len())]);
        let donor = response_frame(rng.next(), &corpus[rng.below(corpus.len())]);
        mutate(&mut rng, &mut bytes, &donor);
        check_responses(&bytes);
    }
}

#[test]
fn unmutated_corpus_roundtrips() {
    for request in requests() {
        let mut frames = FrameAccumulator::new(MAX_FRAME_BYTES);
        frames.feed(&request_frame(3, &request));
        let (id, decoded) = frames.next_request().unwrap().unwrap();
        assert_eq!((id, &decoded), (3, &request));
    }
    for response in responses() {
        let bytes = response_frame(3, &response);
        let (id, decoded) = read_response(&mut bytes.as_slice(), MAX_FRAME_BYTES).unwrap();
        assert_eq!((id, &decoded), (3, &response));
    }
}

#[test]
fn mutated_frames_roundtrip_or_fail_typed() {
    for seed in 0..ITERATIONS {
        if let Err(payload) = std::panic::catch_unwind(|| fuzz_one(seed)) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!("decoder fuzz failed under seed {seed} (replay: fuzz_one({seed})): {msg}");
        }
    }
}
