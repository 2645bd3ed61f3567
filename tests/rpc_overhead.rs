//! Acceptance guard for the wire-transport overhead budget on the
//! event-loop server, measured by
//! [`castor::bench::rpc_overhead::measure_rpc_overhead`] — the same
//! measurement the `bench_rpc` bin writes to `BENCH_rpc.json`. The
//! shared `rpc_roundtrip_workload` score job over loopback TCP must stay
//! within 1.2× (+100 µs) of the same job on an in-process `Session`: the
//! score shape is evaluation-dominated with a fixed-size response, so
//! the ratio measures the loop's wake/dispatch/flush path, and any
//! pathology (a poll timeout on the response path, Nagle-style delays,
//! per-roundtrip syscall storms) blows it immediately. The covered-sets
//! shape re-materializes every covered tuple on the client, so it is
//! payload-bound by construction and pinned at a looser 2.2× (+100 µs):
//! the bound catches gross regressions, not loop latency.
//!
//! Release-only: a debug build's evaluation cost (and timing noise)
//! drowns the transport share and makes the ratio meaningless.
#![cfg(not(debug_assertions))]

use castor::bench::rpc_overhead::measure_rpc_overhead;

#[test]
fn tcp_loopback_stays_within_budget_of_in_process() {
    let overhead = measure_rpc_overhead();
    print!("{}", overhead.to_json());
    for (name, shape) in [
        ("score", &overhead.score),
        ("covered-sets", &overhead.covered_sets),
    ] {
        assert!(
            shape.within_bound(),
            "tcp loopback {name} roundtrip over budget: {:?} vs in-process {:?} \
             ({:.2}x, ceiling {:?})",
            shape.tcp.min,
            shape.in_process.min,
            shape.ratio(),
            shape.ceiling(),
        );
    }
}
