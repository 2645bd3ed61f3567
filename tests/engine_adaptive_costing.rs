//! Acceptance guards for histogram-backed adaptive costing. The ≥1.3×
//! claim is *measured* by the Criterion bench `engine_adaptive_recosting`
//! in `castor-bench/benches/micro.rs` (release mode, warm-up, sized
//! iteration counts); this suite pins the same workload in CI:
//!
//! 1. on skewed data where the uniform selectivity estimate mis-orders the
//!    shared join prefix, the histogram cost model must beat the uniform
//!    baseline by the acceptance floor with *identical* coverage results;
//! 2. consecutive beam rounds must reuse the compiled shared-prefix trie
//!    (`batch_plan_cache_hits > 0`) and mutations must invalidate stale
//!    tries through their epoch stamps;
//! 3. feedback re-planning must rescue even the uniform model: observed
//!    candidate rows recost the plan (`plans_recosted`), with unchanged
//!    verdicts.
//!
//! Every build checks results and counters. The wall-clock floor of (1) is
//! asserted in release builds only (CI runs `cargo test --release --test
//! engine_adaptive_costing -- --nocapture`, which prints the measured
//! ratio): a debug build's timing says nothing about the optimized path
//! and varies from run to run.

use castor_bench::skewed_costing_workload;
use castor_engine::{CostModelKind, Engine, EngineConfig, Prior};
use castor_relational::{MutationBatch, Tuple};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

#[test]
fn histogram_costing_outpaces_uniform_on_skewed_data() {
    let workload = skewed_costing_workload();

    // Coverage caches off on both sides: the comparison is join ordering,
    // not memoization. The baseline also runs without feedback re-planning
    // — it is the pre-histogram engine.
    let histogram = Engine::from_arc(
        Arc::clone(&workload.db),
        EngineConfig::default().without_cache(),
    );
    let uniform = Engine::from_arc(
        Arc::clone(&workload.db),
        EngineConfig::default()
            .with_uniform_costs()
            .without_feedback_replanning()
            .without_cache(),
    );
    assert_eq!(histogram.config().cost_model, CostModelKind::Histogram);

    // Each side measured three times, minimum kept (standard de-noised
    // estimate for a deterministic loop on shared CI runners).
    const MEASUREMENTS: usize = 3;
    let mut hist_sets: Vec<HashSet<Tuple>> = Vec::new();
    let hist_time = (0..MEASUREMENTS)
        .map(|_| {
            let start = Instant::now();
            hist_sets = histogram.covered_sets_batch(&workload.beam, &workload.examples);
            start.elapsed()
        })
        .min()
        .expect("at least one measurement");
    let mut uni_sets: Vec<HashSet<Tuple>> = Vec::new();
    let uni_time = (0..MEASUREMENTS)
        .map(|_| {
            let start = Instant::now();
            uni_sets = uniform.covered_sets_batch(&workload.beam, &workload.examples);
            start.elapsed()
        })
        .min()
        .expect("at least one measurement");

    // Identical coverage: the cost model only changes plan order/stats.
    assert_eq!(hist_sets, uni_sets, "cost models disagree on coverage");
    // Neither side exhausted a budget (exhaustion would make verdicts
    // order-dependent and the comparison vacuous).
    assert_eq!(histogram.report().budget_exhausted, 0);
    assert_eq!(uniform.report().budget_exhausted, 0);

    let speedup = uni_time.as_secs_f64() / hist_time.as_secs_f64().max(1e-9);
    println!(
        "adaptive costing speedup: uniform/histogram = {speedup:.2}× (histogram \
         {hist_time:?}, uniform {uni_time:?})"
    );
    #[cfg(not(debug_assertions))]
    assert!(
        speedup >= 1.3,
        "histogram costing must beat uniform by ≥1.3× on skewed data, got {speedup:.2}× \
         (histogram {hist_time:?}, uniform {uni_time:?})"
    );
}

#[test]
fn consecutive_beam_rounds_reuse_tries_until_mutated() {
    let workload = skewed_costing_workload();
    let engine = Engine::from_arc(
        Arc::clone(&workload.db),
        EngineConfig::default().without_cache(),
    );

    // Round 1 compiles the trie.
    let round1_sets = engine.covered_sets_batch(&workload.beam, &workload.examples);
    let round1 = engine.report();
    assert!(
        round1.batch_plans_compiled >= 1,
        "no trie compiled: {round1}"
    );
    assert_eq!(round1.batch_plan_cache_hits, 0);

    // Round 2: the next beam round re-submits the surviving siblings (in
    // reversed order, as beam re-ranking does) — the trie is reused.
    let mut survivors = workload.beam.clone();
    survivors.reverse();
    let round2_sets = engine.covered_sets_batch(&survivors, &workload.examples);
    let round2 = engine.report();
    assert!(
        round2.batch_plan_cache_hits > 0,
        "consecutive rounds must hit the trie cache: {round2}"
    );
    assert_eq!(
        round2.batch_plans_compiled, round1.batch_plans_compiled,
        "round 2 recompiled a cached trie: {round2}"
    );
    // Slot mapping survived the reordering.
    let mut expected = round1_sets.clone();
    expected.reverse();
    assert_eq!(round2_sets, expected, "reused trie returned wrong slots");

    // A mutation of a relation the trie reads invalidates it via the
    // epoch stamps; the next round recompiles against fresh statistics.
    engine
        .apply(&MutationBatch::new().insert("mid", Tuple::from_strs(&["h0", "fresh"])))
        .unwrap();
    let round3_sets = engine.covered_sets_batch(&workload.beam, &workload.examples);
    let round3 = engine.report();
    assert!(
        round3.batch_plans_invalidated >= 1,
        "mutation did not invalidate the cached trie: {round3}"
    );
    assert!(round3.batch_plans_compiled > round2.batch_plans_compiled);
    // The recompiled trie agrees with a fresh engine on the mutated data.
    let fresh = Engine::from_arc(engine.snapshot(), EngineConfig::default());
    for (clause, set) in workload.beam.iter().zip(&round3_sets) {
        assert_eq!(
            set,
            &fresh.covered_set(clause, &workload.examples, Prior::None),
            "post-mutation trie diverged on `{clause}`"
        );
    }
}

#[test]
fn cached_tries_recost_from_observed_rows() {
    // Regression: cached `BatchPlan` tries used to recompile only on epoch
    // invalidation — a uniform-model mis-ordering survived every round.
    // Batch execution now records per-trie-node observed rows, and the
    // `BatchPlanCache` fetch recosts a diverging trie with the observed
    // numbers (counted in `plans_recosted`, like clause plans).
    let workload = skewed_costing_workload();
    let engine = Engine::from_arc(
        Arc::clone(&workload.db),
        EngineConfig::default().with_uniform_costs().without_cache(),
    );
    let reference = Engine::from_arc(Arc::clone(&workload.db), EngineConfig::default());

    // Round 1 compiles the (mis-ordered) trie and records feedback while
    // executing it.
    let round1 = engine.covered_sets_batch(&workload.beam, &workload.examples);
    let after1 = engine.report();
    assert!(
        after1.batch_plans_compiled >= 1,
        "no trie compiled: {after1}"
    );
    assert_eq!(after1.plans_recosted, 0, "nothing to recost yet: {after1}");

    // Round 2 fetches the cached trie, sees the observed rows diverge from
    // the uniform estimates, and recosts it before executing.
    let round2 = engine.covered_sets_batch(&workload.beam, &workload.examples);
    let after2 = engine.report();
    assert!(
        after2.batch_plan_cache_hits >= 1,
        "round 2 must hit the trie cache: {after2}"
    );
    assert!(
        after2.plans_recosted >= 1,
        "cached trie was never recosted from feedback: {after2}"
    );
    assert_eq!(round2, round1, "recosting changed trie verdicts");

    // The recosted trie starts fresh feedback; its observed-row estimates
    // hold, so a third round reuses it without recosting again.
    let round3 = engine.covered_sets_batch(&workload.beam, &workload.examples);
    let after3 = engine.report();
    assert_eq!(round3, round1);
    assert_eq!(
        after3.plans_recosted, after2.plans_recosted,
        "recosted trie must not thrash: {after3}"
    );
    assert_eq!(after3.budget_exhausted, 0);

    // Verdicts agree with an untouched reference engine throughout.
    for (clause, set) in workload.beam.iter().zip(&round3) {
        assert_eq!(
            set,
            &reference.covered_set(clause, &workload.examples, Prior::None),
            "trie recosting diverged on `{clause}`"
        );
    }
}

#[test]
fn feedback_replanning_rescues_uniform_misordering() {
    let workload = skewed_costing_workload();
    // Uniform model, feedback ON (default), cache off so every score
    // executes: the observed candidate rows must recost the bad plan.
    let engine = Engine::from_arc(
        Arc::clone(&workload.db),
        EngineConfig::default().with_uniform_costs().without_cache(),
    );
    let clause = &workload.beam[0];
    let reference = Engine::from_arc(Arc::clone(&workload.db), EngineConfig::default());
    for _ in 0..engine.config().recost_after + 2 {
        let covered = engine.covered_set(clause, &workload.examples, Prior::None);
        assert_eq!(
            covered,
            reference.covered_set(clause, &workload.examples, Prior::None),
            "feedback re-planning changed coverage"
        );
    }
    let report = engine.report();
    assert!(
        report.plans_recosted >= 1,
        "uniform mis-ordering was never recosted: {report}"
    );
    assert_eq!(report.budget_exhausted, 0);
}
