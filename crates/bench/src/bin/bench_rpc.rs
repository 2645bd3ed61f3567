//! Machine-readable RPC transport benchmark: runs
//! [`castor_bench::rpc_overhead::measure_rpc_overhead`] and writes the
//! result to `BENCH_rpc.json` in the current directory — host core
//! count, best and worst round per side, the TCP/in-process ratio, and
//! each shape's ceiling and verdict. `tests/rpc_overhead.rs` asserts the
//! same ceilings on the same measurement, so the artifact and the guard
//! cannot disagree.
//!
//! Run with: `cargo run --release -p castor-bench --bin bench_rpc`

use castor_bench::rpc_overhead::measure_rpc_overhead;

fn main() {
    let overhead = measure_rpc_overhead();
    let json = overhead.to_json();
    std::fs::write("BENCH_rpc.json", &json).expect("write BENCH_rpc.json");
    print!("{json}");
    for (name, shape) in [
        ("score", &overhead.score),
        ("covered_sets", &overhead.covered_sets),
    ] {
        eprintln!(
            "rpc transport {name}: {:?} vs {:?} in-process ({:.3}x), ceiling {:?}: {}",
            shape.tcp.min,
            shape.in_process.min,
            shape.ratio(),
            shape.ceiling(),
            if shape.within_bound() {
                "within bound"
            } else {
                "OVER BOUND"
            },
        );
    }
    eprintln!("-> BENCH_rpc.json");
}
