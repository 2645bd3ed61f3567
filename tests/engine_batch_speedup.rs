//! Acceptance guard for batched beam evaluation (shared join-prefix
//! execution). The ≥1.5× claim is *measured* by the Criterion bench
//! `engine_batched_beam_vs_sequential` in `castor-bench/benches/micro.rs`
//! (release mode, warm-up, sized iteration counts); this test pins the same
//! workload in CI with the acceptance floor plus counter-based assertions
//! that the speedup really comes from shared-prefix execution, and an exact
//! result-equivalence check between the two paths.
//!
//! Every build checks the equivalence and the counters. The wall-clock
//! floor is asserted in release builds only (CI runs `cargo test --release
//! --test engine_batch_speedup -- --nocapture`, which prints the measured
//! ratio): a debug build's timing says nothing about the optimized path
//! and varies from run to run.

use castor_bench::beam_candidate_batch;
use castor_datasets::uwcse::{generate, UwCseConfig};
use castor_engine::{Engine, EngineConfig, Prior};
use castor_relational::Tuple;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

#[test]
fn batched_beam_scoring_outpaces_sequential_scoring() {
    // A larger-than-default instance so one coverage pass costs what it
    // does in a real run; fixed per-call overhead is then noise.
    let family = generate(&UwCseConfig {
        students: 120,
        professors: 25,
        courses: 40,
        ..Default::default()
    });
    let variant = family.variant("Original").unwrap();
    // One level of beam refinement: 24 siblings sharing the ground-truth
    // body as prefix (same workload as the Criterion bench).
    let beam = beam_candidate_batch(variant, 24);
    assert_eq!(beam.len(), 24, "workload generator under-produced");
    let examples: Vec<Tuple> = variant
        .task
        .positive
        .iter()
        .chain(variant.task.negative.iter())
        .cloned()
        .collect();

    // Caches are disabled on both sides: the comparison is shared-prefix
    // execution against repeated per-clause prefix joins, not memoization.
    let config = EngineConfig::default().without_cache();

    // Each side is measured three times and the minimum kept: wall-clock
    // assertions in shared CI are vulnerable to scheduler jitter, and the
    // minimum is the standard de-noised estimate for a deterministic loop.
    const MEASUREMENTS: usize = 3;

    let batched_engine = Engine::from_arc(Arc::clone(&variant.db), config.clone());
    let mut batched_sets: Vec<HashSet<Tuple>> = Vec::new();
    let batched_time = (0..MEASUREMENTS)
        .map(|_| {
            let start = Instant::now();
            batched_sets = batched_engine.covered_sets_batch(&beam, &examples);
            start.elapsed()
        })
        .min()
        .expect("at least one measurement");

    let sequential_engine = Engine::from_arc(Arc::clone(&variant.db), config);
    let mut sequential_sets: Vec<HashSet<Tuple>> = Vec::new();
    let sequential_time = (0..MEASUREMENTS)
        .map(|_| {
            let start = Instant::now();
            sequential_sets = beam
                .iter()
                .map(|clause| sequential_engine.covered_set(clause, &examples, Prior::None))
                .collect();
            start.elapsed()
        })
        .min()
        .expect("at least one measurement");

    assert_eq!(
        batched_sets, sequential_sets,
        "batched and sequential scoring disagree"
    );
    let speedup = sequential_time.as_secs_f64() / batched_time.as_secs_f64().max(1e-9);
    println!(
        "batch speedup: sequential/batched = {speedup:.2}× (batched {batched_time:?}, \
         sequential {sequential_time:?})"
    );
    #[cfg(not(debug_assertions))]
    assert!(
        speedup >= 1.5,
        "batched beam scoring must beat one-clause-at-a-time by ≥1.5×, got {speedup:.2}× \
         (batched {batched_time:?}, sequential {sequential_time:?})"
    );

    // The win must come from sharing, not from skipping work: the trie path
    // ran, saved prefix probes, and forked per-candidate suffixes.
    let report = batched_engine.report();
    assert!(report.batches >= 1, "trie path not taken: {report}");
    assert!(
        report.batch_prefix_hits > 0,
        "no shared prefix probes: {report}"
    );
    assert!(
        report.batch_suffix_forks > 0,
        "no per-candidate suffix forks: {report}"
    );
    assert_eq!(report.budget_exhausted, 0, "budget too small for guard db");
}

/// `coverage_counts_batch` fuses the positive and negative passes into one
/// trie walk over the concatenated example list; this guard pins the fused
/// counts to the classic two-pass reference on the same beam workload.
#[test]
fn fused_scoring_counts_match_two_separate_passes() {
    let family = generate(&UwCseConfig {
        students: 60,
        professors: 12,
        courses: 20,
        ..Default::default()
    });
    let variant = family.variant("Original").unwrap();
    let beam = beam_candidate_batch(variant, 12);
    let positive = variant.task.positive.clone();
    let negative = variant.task.negative.clone();

    let fused_engine = Engine::from_arc(
        Arc::clone(&variant.db),
        EngineConfig::default().without_cache(),
    );
    let fused = fused_engine.coverage_counts_batch(&beam, &positive, &negative);

    let two_pass_engine = Engine::from_arc(
        Arc::clone(&variant.db),
        EngineConfig::default().without_cache(),
    );
    let pos_sets = two_pass_engine.covered_sets_batch(&beam, &positive);
    let neg_sets = two_pass_engine.covered_sets_batch(&beam, &negative);

    for (i, ((counts, pos), neg)) in fused.iter().zip(&pos_sets).zip(&neg_sets).enumerate() {
        assert_eq!(
            (counts.positive, counts.negative),
            (pos.len(), neg.len()),
            "fused and two-pass counts diverged on clause {i}"
        );
    }
    // The fused pass submits the beam once; the reference submitted it
    // twice — and both walked the trie, so the fusion halved dispatches.
    assert_eq!(fused_engine.report().batch_clauses, beam.len());
    assert_eq!(two_pass_engine.report().batch_clauses, beam.len() * 2);
    assert!(fused_engine.report().batches >= 1);
}
