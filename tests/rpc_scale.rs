//! Idle-session scaling: the event-loop server must hold thousands of
//! concurrent idle sessions (the whole point of replacing two threads
//! per connection) while one live client's roundtrip latency stays
//! bounded.
//!
//! The idle client sockets are held by a helper *subprocess* (this same
//! test binary re-executed against the `idle_session_holder` entry): the
//! container's hard `RLIMIT_NOFILE` is far too small for one process to
//! hold both ends of 10k connections, and splitting the ends across
//! processes is also the realistic shape — real clients are elsewhere.
//! The holder completes every Hello handshake in bounded batches (so the
//! listener backlog never overflows), prints a ready marker, and parks
//! until the parent closes its stdin.

use castor::logic::{Atom, Clause};
use castor::relational::{DatabaseInstance, RelationSymbol, Schema, Tuple};
use castor::rpc::frame::{read_response, request_to_bytes_v};
use castor::rpc::{
    Request, Response, RpcClient, RpcConfig, RpcServer, DEFAULT_MAX_FRAME_BYTES, PROTOCOL_V2,
};
use castor::service::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Full scale in release; debug builds (tier-1 `cargo test -q`) hold a
/// smaller herd so the suite stays fast unoptimized. CI's release step
/// runs the full 10k.
const SESSIONS: usize = if cfg!(debug_assertions) {
    2_000
} else {
    10_000
};
const BATCH: usize = 128;

const HOLDER_ENV_ADDR: &str = "CASTOR_IDLE_HOLDER_ADDR";
const HOLDER_ENV_COUNT: &str = "CASTOR_IDLE_HOLDER_COUNT";
const READY_MARKER: &str = "HOLDER-READY";

fn demo_db() -> DatabaseInstance {
    let mut schema = Schema::new("demo");
    schema.add_relation(RelationSymbol::new("publication", &["title", "person"]));
    let mut db = DatabaseInstance::empty(&schema);
    for (t, p) in [("p1", "ann"), ("p1", "bob"), ("p2", "carol")] {
        db.insert("publication", Tuple::from_strs(&[t, p])).unwrap();
    }
    db
}

fn collaborated() -> Clause {
    Clause::new(
        Atom::vars("collaborated", &["x", "y"]),
        vec![
            Atom::vars("publication", &["p", "x"]),
            Atom::vars("publication", &["p", "y"]),
        ],
    )
}

/// The helper entry: a no-op under a normal test run, the socket holder
/// when re-executed by `event_loop_sustains_idle_sessions` with the
/// holder environment set.
#[test]
fn idle_session_holder() {
    let Ok(addr) = std::env::var(HOLDER_ENV_ADDR) else {
        return;
    };
    let count: usize = std::env::var(HOLDER_ENV_COUNT)
        .expect("holder count env")
        .parse()
        .expect("holder count parses");
    castor::rpc::sys::raise_nofile_limit();

    let hello = request_to_bytes_v(
        PROTOCOL_V2,
        1,
        &Request::Hello {
            database: "demo".to_string(),
            eval_budget: None,
            stream_credit: None,
        },
    );
    let mut held: Vec<TcpStream> = Vec::with_capacity(count);
    // Bounded batches: every connection in a batch finishes its Hello
    // before the next batch connects, so the listener backlog (and the
    // server's accept burst) stays small at any instant.
    while held.len() < count {
        let batch = BATCH.min(count - held.len());
        let mut fresh: Vec<TcpStream> = (0..batch)
            .map(|_| {
                let stream = TcpStream::connect(&addr).expect("holder connect");
                stream.set_nodelay(true).expect("nodelay");
                stream
            })
            .collect();
        for stream in &mut fresh {
            stream.write_all(&hello).expect("hello write");
        }
        for stream in &mut fresh {
            let (_, response) =
                read_response(stream, DEFAULT_MAX_FRAME_BYTES).expect("hello response");
            assert!(
                matches!(response, Response::HelloOk),
                "holder handshake rejected: {response:?}"
            );
        }
        held.append(&mut fresh);
    }

    println!("{READY_MARKER} {}", held.len());
    // Park until the parent closes our stdin; the sockets stay open (and
    // idle) the whole time.
    let mut sink = Vec::new();
    let _ = std::io::stdin().lock().read_to_end(&mut sink);
    drop(held);
}

#[test]
fn event_loop_sustains_idle_sessions() {
    castor::rpc::sys::raise_nofile_limit();
    let service = Arc::new(Server::new(ServerConfig::default()));
    service.register("demo", Arc::new(demo_db())).unwrap();
    let rpc = RpcServer::bind(Arc::clone(&service), "127.0.0.1:0", RpcConfig::default()).unwrap();
    let addr = rpc.local_addr();

    // Baseline: one live client's roundtrip with an empty server.
    let mut live = RpcClient::connect(addr, "demo").unwrap();
    let examples = vec![Tuple::from_strs(&["ann", "bob"])];
    let roundtrip = |client: &mut RpcClient| {
        let start = Instant::now();
        let sets = client
            .covered_sets(vec![collaborated()], examples.clone())
            .unwrap();
        assert_eq!(sets[0].len(), 1);
        start.elapsed()
    };
    let baseline = median_of(20, || roundtrip(&mut live));

    // Spawn the holder: this test binary re-executed against the
    // `idle_session_holder` entry with the holder environment set.
    let exe = std::env::current_exe().expect("current exe");
    let mut holder = std::process::Command::new(exe)
        .args(["--exact", "idle_session_holder", "--nocapture"])
        .env(HOLDER_ENV_ADDR, addr.to_string())
        .env(HOLDER_ENV_COUNT, SESSIONS.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn holder");
    let mut holder_out = BufReader::new(holder.stdout.take().expect("holder stdout"));

    // Wait for the herd (the marker line carries the held count).
    let mut line = String::new();
    loop {
        line.clear();
        let n = holder_out.read_line(&mut line).expect("holder output");
        assert!(n > 0, "holder exited before reporting ready");
        if line.contains(READY_MARKER) {
            assert!(
                line.contains(&SESSIONS.to_string()),
                "holder held fewer sockets than asked: {line}"
            );
            break;
        }
    }

    // Every idle connection is a live admitted session server-side.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let active = service.server_report().sessions_active;
        if active == SESSIONS + 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "sessions_active stuck at {active}, want {}",
            SESSIONS + 1
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The live client's latency must stay bounded with the herd parked:
    // idle connections produce no readiness events, so the loop's work
    // per roundtrip is unchanged. The bound is deliberately loose —
    // shared CI boxes jitter — but catches any O(connections) scan.
    let loaded = median_of(20, || roundtrip(&mut live));
    let ceiling = (baseline * 20).max(Duration::from_millis(250));
    assert!(
        loaded <= ceiling,
        "roundtrip degraded under {SESSIONS} idle sessions: {loaded:?} (baseline {baseline:?})"
    );

    // Closing the holder's stdin releases the herd; every admission slot
    // must come back.
    drop(holder.stdin.take());
    let status = holder.wait().expect("holder exit");
    assert!(status.success(), "holder failed: {status:?}");
    let deadline = Instant::now() + Duration::from_secs(60);
    while service.server_report().sessions_active != 1 {
        assert!(
            Instant::now() < deadline,
            "idle sessions not reclaimed after holder exit: {} active",
            service.server_report().sessions_active
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // And the live client still works.
    roundtrip(&mut live);
}

fn median_of(n: usize, mut sample: impl FnMut() -> Duration) -> Duration {
    let mut samples: Vec<Duration> = (0..n).map(|_| sample()).collect();
    samples.sort();
    samples[samples.len() / 2]
}
