//! Acceptance guard for the engine's coverage cache and compiled plans.
//! The ≥5× claim is *measured* by the Criterion bench in
//! `castor-bench/benches/micro.rs` (release mode, warm-up, sized
//! iteration counts); this test pins the same workload in CI with a
//! deliberately generous wall-clock floor — shared runners jitter, and a
//! timing flake must not fail unrelated PRs — plus counter-based
//! assertions that the speedup really comes from the cache.
//!
//! Every build checks the deterministic part: the engine and the baseline
//! count the same covered examples, and cache hits dwarf misses. The
//! wall-clock floor is asserted in release builds only (CI runs `cargo
//! test --release --test engine_speedup -- --nocapture`, which prints the
//! measured ratio): a debug build's timing says nothing about the
//! optimized path and varies from run to run.

use castor_bench::coverage_candidate_sequence;
use castor_datasets::uwcse::{generate, UwCseConfig};
use castor_engine::{Engine, EngineConfig, Prior};
use castor_logic::covers_example;
use castor_relational::Tuple;
use std::time::Instant;

#[test]
fn cached_coverage_outpaces_uncached_baseline() {
    // A larger-than-default instance so one uncached coverage pass costs
    // what it does in a real run; the engine's fixed per-call overhead
    // (canonicalization + cache probe) is then noise.
    let family = generate(&UwCseConfig {
        students: 120,
        professors: 25,
        courses: 40,
        ..Default::default()
    });
    let variant = family.variant("Original").unwrap();
    // Same workload as the Criterion bench (shared helper).
    let candidates = coverage_candidate_sequence(variant);
    let examples: Vec<Tuple> = variant
        .task
        .positive
        .iter()
        .chain(variant.task.negative.iter())
        .cloned()
        .collect();

    const ROUNDS: usize = 12;
    // Each side is measured three times and the minimum kept: wall-clock
    // assertions in shared CI are vulnerable to scheduler jitter, and the
    // minimum is the standard de-noised estimate for a deterministic loop.
    const MEASUREMENTS: usize = 3;

    let engine = Engine::from_arc(std::sync::Arc::clone(&variant.db), EngineConfig::default());
    let mut engine_total = 0usize;
    let engine_time = (0..MEASUREMENTS)
        .map(|_| {
            engine_total = 0;
            let start = Instant::now();
            for _ in 0..ROUNDS {
                for clause in &candidates {
                    engine_total += engine.covered_set(clause, &examples, Prior::None).len();
                }
            }
            start.elapsed()
        })
        .min()
        .expect("at least one measurement");

    let mut baseline_total = 0usize;
    let baseline_time = (0..MEASUREMENTS)
        .map(|_| {
            baseline_total = 0;
            let start = Instant::now();
            for _ in 0..ROUNDS {
                for clause in &candidates {
                    baseline_total += examples
                        .iter()
                        .filter(|e| covers_example(clause, &variant.db, e))
                        .count();
                }
            }
            start.elapsed()
        })
        .min()
        .expect("at least one measurement");

    assert_eq!(engine_total, baseline_total, "engine and baseline disagree");
    // Locally this measures ≥5× (see the Criterion bench); the CI floor is
    // 2× so scheduler jitter on shared runners cannot flake the suite.
    let speedup = baseline_time.as_secs_f64() / engine_time.as_secs_f64().max(1e-9);
    println!(
        "engine speedup: baseline/engine = {speedup:.2}× (engine {engine_time:?}, baseline \
         {baseline_time:?})"
    );
    #[cfg(not(debug_assertions))]
    assert!(
        speedup >= 2.0,
        "engine must clearly outpace the uncached baseline, got {speedup:.1}× \
         (engine {engine_time:?}, baseline {baseline_time:?})"
    );
    // The speedup must come from the cache actually being hit: after the
    // first round every (clause, example) pair is a hit, so hits dwarf
    // misses by an order of magnitude.
    let report = engine.report();
    assert!(
        report.cache_hits >= 10 * report.cache_misses.max(1),
        "cache behavior off: {report}"
    );
}
