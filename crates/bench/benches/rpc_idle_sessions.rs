//! Connection-scaling benchmark for the event-loop RPC server: one live
//! client's coverage roundtrip while the server holds an increasing
//! herd of *idle* sessions. On the readiness-driven core, idle
//! connections produce no events, so latency must stay flat as the herd
//! grows. (The full 10k-session soak lives in
//! `tests/rpc_scale.rs`; this bench charts the latency curve at sizes
//! one process can hold both ends of.)

use castor_bench::rpc_roundtrip_workload;
use castor_rpc::frame::{read_response, request_to_bytes_v};
use castor_rpc::{
    Request, Response, RpcClient, RpcConfig, RpcServer, DEFAULT_MAX_FRAME_BYTES, PROTOCOL_V2,
};
use castor_service::{Server, ServerConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::net::TcpStream;
use std::sync::Arc;

/// Holds `count` idle sessions against `addr`: raw sockets with a
/// completed Hello handshake, parked for the holder's lifetime.
fn hold_idle_sessions(addr: std::net::SocketAddr, count: usize) -> Vec<TcpStream> {
    use std::io::Write;
    let hello = request_to_bytes_v(
        PROTOCOL_V2,
        1,
        &Request::Hello {
            database: "bench".to_string(),
            eval_budget: None,
            stream_credit: None,
        },
    );
    (0..count)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("idle connect");
            stream.set_nodelay(true).expect("nodelay");
            stream.write_all(&hello).expect("hello write");
            let (_, response) =
                read_response(&mut stream, DEFAULT_MAX_FRAME_BYTES).expect("hello response");
            assert!(matches!(response, Response::HelloOk));
            stream
        })
        .collect()
}

fn bench_rpc_idle_sessions(c: &mut Criterion) {
    castor_rpc::sys::raise_nofile_limit();

    let workload = rpc_roundtrip_workload();
    let service = Arc::new(Server::new(ServerConfig::default()));
    service.register("bench", Arc::clone(&workload.db)).unwrap();
    let rpc = RpcServer::bind(service, "127.0.0.1:0", RpcConfig::default()).unwrap();
    let mut client = RpcClient::connect(rpc.local_addr(), "bench").unwrap();

    let mut held: Vec<TcpStream> = Vec::new();
    for idle in [0usize, 256, 1024] {
        held.extend(hold_idle_sessions(rpc.local_addr(), idle - held.len()));
        c.bench_function(
            &format!("rpc_idle_sessions/roundtrip_with_{idle}_idle"),
            |b| {
                b.iter(|| {
                    black_box(
                        client
                            .score(
                                black_box(workload.beam.clone()),
                                black_box(workload.positive.clone()),
                                black_box(workload.negative.clone()),
                            )
                            .unwrap(),
                    )
                })
            },
        );
    }
    drop(held);
}

criterion_group!(benches, bench_rpc_idle_sessions);
criterion_main!(benches);
