//! Acceptance guard for the observability overhead budget: the batched
//! coverage path with the default (enabled) `Obs` handle must stay
//! within 5% of the same path under `ObsConfig::disabled()`. The
//! Criterion bench `obs_overhead` in `castor-bench/benches/` measures
//! the same workload with warm-up and sized iteration counts.
//!
//! Every build checks the deterministic part: instrumentation changes no
//! result, and the enabled handle records batch evaluations and spans
//! while the disabled one records none. The 5% bound itself is asserted
//! in release builds only (CI runs `cargo test --release --test
//! obs_overhead -- --nocapture`, which prints the measured ratio): a
//! debug build's timing is too noisy for a 5% bound, and failed it about
//! one run in five. The timing is interleaved best-of-N (alternating
//! sides each round, keeping the minimum, so drift in shared CI hits
//! both sides equally).

use castor_bench::obs_overhead_workload;
use castor_engine::{Engine, EngineConfig, WorkerPool};
use castor_obs::Obs;
use std::sync::Arc;
use std::time::Instant;

#[test]
fn default_instrumentation_stays_within_five_percent() {
    let workload = obs_overhead_workload();
    // Caches off so every pass re-runs the joins — the comparison is
    // instrumented evaluation against bare evaluation, not cache probes.
    // Inline execution (one thread) keeps the loop deterministic: worker
    // scheduling jitter on shared CI machines swings multi-threaded
    // passes by ±8%, far above the bound under test.
    let config = EngineConfig::default().without_cache().with_threads(1);

    let build = |obs: Arc<Obs>| {
        let pool = Arc::new(WorkerPool::new(config.threads));
        Engine::with_observability(Arc::clone(&workload.db), config.clone(), pool, obs)
    };
    let enabled = build(Obs::enabled_default());
    let disabled = build(Obs::disabled());
    assert!(enabled.obs().enabled(), "default handle must instrument");
    assert!(!disabled.obs().enabled());

    let run = |engine: &Engine| {
        let start = Instant::now();
        let sets = engine.covered_sets_batch(&workload.beam, &workload.examples);
        (start.elapsed(), sets)
    };

    // Warm-up pass on each side (first-touch page faults, lazily built
    // relation indexes), with the results pinned equal.
    let (_, warm_enabled) = run(&enabled);
    let (_, warm_disabled) = run(&disabled);
    assert_eq!(
        warm_enabled, warm_disabled,
        "instrumentation must not change results"
    );

    #[cfg(not(debug_assertions))]
    let rounds = assert_overhead_within_bound(|| run(&enabled).0, || run(&disabled).0);
    #[cfg(debug_assertions)]
    let rounds = 0;

    // The instrumented side actually recorded what it claims to: batch
    // evaluation latencies and spans exist on the enabled handle only.
    let exposition = enabled.obs().expose();
    let evals = exposition
        .lines()
        .find(|l| l.starts_with("castor_engine_batch_eval_ns_count"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<u64>().ok())
        .expect("enabled handle exposes the batch-eval histogram");
    assert_eq!(
        evals,
        1 + rounds as u64,
        "one batch-eval record per batch call"
    );
    assert!(!enabled.obs().spans().snapshot().is_empty());
    assert!(disabled.obs().spans().snapshot().is_empty());
}

/// Times both sides over interleaved rounds and asserts the enabled side
/// within 5% of the disabled one; returns the number of rounds run.
#[cfg(not(debug_assertions))]
fn assert_overhead_within_bound(
    mut enabled: impl FnMut() -> std::time::Duration,
    mut disabled: impl FnMut() -> std::time::Duration,
) -> usize {
    use std::time::Duration;
    // Interleaved best-of-7: alternate sides within each round and keep
    // the per-side minimum, the standard de-noised estimate for a
    // deterministic loop.
    const ROUNDS: usize = 7;
    let mut best_enabled = Duration::MAX;
    let mut best_disabled = Duration::MAX;
    for _ in 0..ROUNDS {
        best_enabled = best_enabled.min(enabled());
        best_disabled = best_disabled.min(disabled());
    }

    // The workload must be big enough that per-batch instrumentation
    // (nanoseconds) could only show up through a real regression.
    assert!(
        best_disabled >= Duration::from_millis(5),
        "workload too small to bound overhead meaningfully: {best_disabled:?}"
    );

    let ratio = best_enabled.as_secs_f64() / best_disabled.as_secs_f64().max(1e-9);
    println!(
        "obs overhead: enabled/disabled = {ratio:.4} (enabled {best_enabled:?}, disabled \
         {best_disabled:?})"
    );
    assert!(
        ratio <= 1.05,
        "enabled-by-default instrumentation must cost ≤5% on the coverage path, got \
         {:.1}% (enabled {best_enabled:?}, disabled {best_disabled:?})",
        (ratio - 1.0) * 100.0
    );
    ROUNDS
}
