//! The learn workloads: `uwcse-castor` and `uwcse-progol` learn the UW-CSE
//! target on all four schema variants with 2-fold cross-validation, one
//! worker, through the serving layer's in-process `Session` (the path of
//! the repository's Table 10 harness).
//!
//! The measured pass runs `castor_eval::experiment::run_algorithm_on_variant`'s
//! fold loop step by step, so every fold's learned definition can be
//! recounted with the uncached evaluator; the traced run pins the pass to
//! `run_algorithm_on_variant`'s own rows.

use crate::inputs::{
    enlarged_family, family_digest, learn_department, rename_constants, Digest, FOLDS, VARIANTS,
};
use crate::replay::{self, Phases};
use crate::report::{
    engine_metrics, frac, histogram_count, histogram_sum_s, median, nproc, peak_rss_mb, secs,
    thread_count, time_set_ups, Outcome,
};
use castor_core::{ground_bottom_clauses, BottomClausePlan, Castor, CastorConfig};
use castor_datasets::{cross_validation_folds, DatasetVariant, SchemaFamily};
use castor_engine::{Engine, EngineReport, WorkerPool};
use castor_eval::experiment::{run_algorithm_on_variant, AlgorithmKind};
use castor_eval::{evaluate_definition, evaluate_definition_with_session, EvaluationResult};
use castor_learners::LearnerParams;
use castor_logic::Definition;
use castor_relational::Tuple;
use castor_service::{LearnAlgorithm, LearnJob, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seconds of `--seconds` per measured pass: about one Castor pass on a
/// 2-core host. A 20 s run makes one pass, so its `work_s` is one pass's
/// time and the pass-to-pass check needs 30 s or more.
const PASS_SECONDS: f64 = 15.0;
/// Interleaved rounds per point of the saturation sweep.
const SWEEP_ROUNDS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Learner {
    /// Castor with the paper's UW-CSE settings.
    Castor,
    /// Aleph in Progol mode, `clauselength = 4`.
    Progol,
}

impl Learner {
    fn kind(self) -> AlgorithmKind {
        match self {
            Learner::Castor => AlgorithmKind::Castor(CastorConfig::uwcse()),
            Learner::Progol => AlgorithmKind::AlephProgol(4),
        }
    }
}

/// The harness's parameters for `variant` (`LearnerParams::uwcse()` with
/// the variant's constant positions).
fn params_for(variant: &DatasetVariant) -> LearnerParams {
    LearnerParams {
        constant_positions: variant.constant_positions.clone(),
        ..LearnerParams::uwcse()
    }
}

/// Castor's configuration as the harness submits it for `variant`.
fn castor_config(variant: &DatasetVariant) -> CastorConfig {
    let mut config = CastorConfig::uwcse();
    config.params = params_for(variant);
    config
}

/// The learn job the harness submits for `variant` (the traced run checks
/// that the results match `run_algorithm_on_variant`'s).
fn learn_algorithm(learner: Learner, variant: &DatasetVariant) -> LearnAlgorithm {
    match learner {
        Learner::Castor => LearnAlgorithm::Castor(Box::new(castor_config(variant))),
        Learner::Progol => {
            let mut params = params_for(variant);
            params.clause_length = 4;
            params.beam_width = params.beam_width.max(3);
            LearnAlgorithm::Progol(params)
        }
    }
}

/// Data and one server per variant, as the harness builds them.
struct Setup {
    family: SchemaFamily,
    servers: Vec<Server>,
}

/// Times the program's part of a set-up: generating the department, and
/// building and registering the servers. The seeded renaming in between is
/// the benchmark's own input preparation and is left out.
fn set_up(seed: u64) -> (Setup, Duration) {
    let start = Instant::now();
    let mut family = learn_department();
    let generated = start.elapsed();
    rename_constants(&mut family, seed);
    let start = Instant::now();
    let servers = family
        .variants
        .iter()
        .map(|variant| {
            let params = params_for(variant);
            let server = Server::new(
                ServerConfig::default()
                    .with_threads(params.threads)
                    .with_engine(params.engine_config()),
            );
            server
                .register(&variant.name, Arc::clone(&variant.db))
                .expect("each variant registers once per server");
            server
        })
        .collect();
    (Setup { family, servers }, generated + start.elapsed())
}

/// One cross-validated pass over every variant.
struct Pass {
    learn: Duration,
    per_variant_learn: Vec<Duration>,
    evaluate: Duration,
    evaluations: Vec<EvaluationResult>,
    /// `[variant][fold]`.
    definitions: Vec<Vec<Definition>>,
}

fn pass(learner: Learner, setup: &Setup, out: &mut Outcome) -> Pass {
    let mut result = Pass {
        learn: Duration::ZERO,
        per_variant_learn: Vec::new(),
        evaluate: Duration::ZERO,
        evaluations: Vec::new(),
        definitions: Vec::new(),
    };
    for (variant, server) in setup.family.variants.iter().zip(&setup.servers) {
        let session = server
            .session(&variant.name)
            .expect("variant registered at set-up");
        let mut learn = Duration::ZERO;
        let mut evaluation = EvaluationResult::default();
        let mut definitions = Vec::new();
        for (f, fold) in cross_validation_folds(&variant.task, FOLDS)
            .iter()
            .enumerate()
        {
            out.attempted += 1;
            let start = Instant::now();
            let learned = session.learn(LearnJob::new(
                fold.train.clone(),
                learn_algorithm(learner, variant),
            ));
            learn += start.elapsed();
            let definition = match learned {
                Ok(definition) => definition,
                Err(error) => {
                    out.failed += 1;
                    eprintln!("{} fold {f}: learn job failed: {error}", variant.name);
                    Definition::empty(variant.task.target.clone())
                }
            };
            if !definition.clauses.is_empty() {
                // The evaluation's coverage job.
                out.attempted += 1;
            }
            let start = Instant::now();
            let held_out = evaluate_definition_with_session(
                &session,
                &definition,
                &fold.test_positive,
                &fold.test_negative,
            );
            result.evaluate += start.elapsed();
            let reference = evaluate_definition(
                &definition,
                &variant.db,
                &fold.test_positive,
                &fold.test_negative,
            );
            out.check(held_out == reference, || {
                format!(
                    "{} fold {f}: served held-out counts {held_out:?} differ from the uncached \
                     recount {reference:?}",
                    variant.name
                )
            });
            evaluation.accumulate(&held_out);
            definitions.push(definition);
        }
        result.learn += learn;
        result.per_variant_learn.push(learn);
        result.evaluations.push(evaluation);
        result.definitions.push(definitions);
    }
    result
}

/// Checks every pass must pass, and the end-to-end quality metrics.
fn check_quality(learner: Learner, passes: &[Pass], out: &mut Outcome) {
    let first = &passes[0];
    for (i, later) in passes.iter().enumerate().skip(1) {
        out.check(later.definitions == first.definitions, || {
            format!("pass {i} learned other definitions than pass 0")
        });
    }
    let precision: Vec<f64> = first.evaluations.iter().map(|e| e.precision()).collect();
    let recall: Vec<f64> = first.evaluations.iter().map(|e| e.recall()).collect();
    if learner == Learner::Castor {
        // The paper's central claim: Castor is schema independent.
        out.check(
            precision.iter().all(|p| *p == precision[0]) && recall.iter().all(|r| *r == recall[0]),
            || {
                format!(
                    "Castor's precision {precision:?} / recall {recall:?} differ across variants"
                )
            },
        );
    }
    let min_p = precision.iter().copied().fold(f64::INFINITY, f64::min);
    let min_r = recall.iter().copied().fold(f64::INFINITY, f64::min);
    out.check(min_p > 0.0 && min_r > 0.0, || {
        format!("trivial result: precision {precision:?}, recall {recall:?}")
    });
    out.set("precision", min_p);
    out.set("recall", min_r);
    for (v, name) in VARIANTS.iter().enumerate() {
        out.details.push(format!(
            "{{\"variant\": \"{name}\", \"precision\": {}, \"recall\": {}, \"clauses\": [{}], \
             \"learn_s\": [{}]}}",
            precision[v],
            recall[v],
            first.definitions[v]
                .iter()
                .map(|d| d.clauses.len().to_string())
                .collect::<Vec<_>>()
                .join(", "),
            passes
                .iter()
                .map(|p| format!("{:?}", secs(p.per_variant_learn[v])))
                .collect::<Vec<_>>()
                .join(", "),
        ));
    }
}

pub fn run(learner: Learner, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let threads = thread_count();
    let (mut setup, _) = set_up(seed);
    let mut digest = Digest::default();
    family_digest(&setup.family, &mut digest);
    out.input_digest = digest.hex();

    if trace {
        traced(learner, &setup, &mut out);
        return out;
    }

    // Whole passes, each from fresh servers (cold caches) as every harness
    // run starts. The count comes from `seconds`, not from the clock, so
    // a slow host does the same work (and reaches the same peak memory).
    let runs = ((seconds / PASS_SECONDS) as usize).max(1);
    let mut passes = Vec::new();
    for i in 0..runs {
        if i > 0 {
            drop(setup);
            (setup, _) = set_up(seed);
        }
        passes.push(pass(learner, &setup, &mut out));
    }
    drop(setup);
    out.set("peak_rss_mb", peak_rss_mb());
    let setup_times = time_set_ups(threads, || set_up(seed));
    check_quality(learner, &passes, &mut out);
    let learn: Vec<f64> = passes.iter().map(|p| secs(p.learn)).collect();
    out.set("setup_s", median(&setup_times));
    out.set("work_s", median(&learn));
    out.details.push(format!(
        "{{\"passes\": {}, \"learn_s\": {learn:?}, \"setup_s\": {setup_times:?}}}",
        passes.len()
    ));
    out
}

fn traced(learner: Learner, setup: &Setup, out: &mut Outcome) {
    // Service and engine layers: the measured pass, read through the
    // servers' reports and metric expositions.
    let mirror = pass(learner, setup, out);
    check_quality(learner, std::slice::from_ref(&mirror), out);
    let mut engine = EngineReport::default();
    let mut batch_calls = 0.0;
    for (variant, server) in setup.family.variants.iter().zip(&setup.servers) {
        engine = engine.combined(&server.report(&variant.name).expect("registered"));
        let exposition = server.metrics_text();
        batch_calls += histogram_count(&exposition, "castor_engine_batch_eval_ns");
        out.add(
            "service.queue_wait_s",
            histogram_sum_s(&exposition, "castor_queue_wait_ns"),
        );
        out.add(
            "service.job_run_s",
            histogram_sum_s(&exposition, "castor_job_run_ns"),
        );
    }
    engine_metrics(&engine, out);
    out.set("eval.evaluate_s", secs(mirror.evaluate));

    // Eval layer: the harness itself, pinned to the measured pass.
    let mut harness_learn = Duration::ZERO;
    for (v, variant) in setup.family.variants.iter().enumerate() {
        let row =
            run_algorithm_on_variant(&learner.kind(), variant, &LearnerParams::uwcse(), FOLDS);
        harness_learn += row.learning_time;
        out.set(eval_metric(v), secs(row.learning_time));
        out.check(
            row.evaluation == mirror.evaluations[v]
                && row.sample_definition == mirror.definitions[v][0],
            || {
                format!(
                    "{}: run_algorithm_on_variant gave {:?} / {}, the measured pass {:?} / {}",
                    variant.name,
                    row.evaluation,
                    row.sample_definition,
                    mirror.evaluations[v],
                    mirror.definitions[v][0]
                )
            },
        );
    }

    match learner {
        Learner::Progol => {
            request_shape(&mirror, &engine, batch_calls, out);
            // Tracing this workload only reads counters after the pass.
            out.set(
                "bench.trace_overhead_frac",
                secs(mirror.learn) / secs(harness_learn) - 1.0,
            );
        }
        Learner::Castor => {
            castor_phases(&setup.family, &mirror, out);
            saturation_sweep(out);
        }
    }
}

/// The shape of Aleph-Progol's requests to the engine in the measured
/// pass, from which `serve-mixed`'s stream takes its proportions (see
/// `inputs::ServeStream`). Progol scores each refinement level's beam with
/// one `coverage_counts_batch` call, then per learned clause rescores it
/// (a one-clause batch) and asks its covered set (`covered_set`). Each
/// evaluation job adds one `covered_sets_batch` call.
fn request_shape(mirror: &Pass, engine: &EngineReport, batch_calls: f64, out: &mut Outcome) {
    let definitions = mirror.definitions.iter().flatten();
    let evaluations = definitions
        .clone()
        .filter(|d| !d.clauses.is_empty())
        .count();
    let learned: usize = definitions.map(|d| d.clauses.len()).sum();
    let score_requests = batch_calls - evaluations as f64;
    // The evaluation jobs submit the learned clauses.
    let score_clauses = (engine.batch_clauses - learned) as f64;
    let requests = score_requests + learned as f64;
    out.details.push(format!(
        "{{\"progol_requests\": {{\"learn_jobs\": {}, \"score_requests\": {score_requests}, \
         \"clauses_per_score\": {:?}, \"covered_requests\": {learned}, \
         \"covered_share\": {:?}, \"requests_per_job\": {:?}, \"cache_hit_frac\": {:?}}}}}",
        VARIANTS.len() * FOLDS,
        score_clauses / score_requests,
        learned as f64 / requests,
        requests / (VARIANTS.len() * FOLDS) as f64,
        frac(engine.cache_hits, engine.cache_hits + engine.cache_misses),
    ));
}

fn eval_metric(variant: usize) -> &'static str {
    [
        "eval.variant.Original.learn_s",
        "eval.variant.4NF.learn_s",
        "eval.variant.Denormalized-1.learn_s",
        "eval.variant.Denormalized-2.learn_s",
    ][variant]
}

/// Castor's phase split: `Castor::learn_in` itself (its `LearnOutcome`
/// counters and untraced time), then the timed replay, which must learn
/// the same definitions with the same number of coverage tests.
fn castor_phases(family: &SchemaFamily, mirror: &Pass, out: &mut Outcome) {
    let mut learn_in_time = Duration::ZERO;
    let mut phases = Phases::default();
    for (v, variant) in family.variants.iter().enumerate() {
        let config = castor_config(variant);
        let folds = cross_validation_folds(&variant.task, FOLDS);
        let direct = Engine::from_arc(Arc::clone(&variant.db), config.params.engine_config());
        let outcomes: Vec<_> = folds
            .iter()
            .map(|fold| {
                let outcome = Castor::new(config.clone()).learn_in(&direct, &fold.train);
                learn_in_time += outcome.elapsed;
                outcome
            })
            .collect();
        let replayed = Engine::from_arc(Arc::clone(&variant.db), config.params.engine_config());
        for (f, (fold, outcome)) in folds.iter().zip(&outcomes).enumerate() {
            let samples_before = phases.minimize_removed.len();
            let (definition, tests) =
                replay::learn_in(&config, &replayed, &fold.train, &mut phases);
            let samples = &phases.minimize_removed[samples_before..];
            let removed = if samples.is_empty() {
                0.0
            } else {
                samples.iter().sum::<f64>() / samples.len() as f64
            };
            out.check(
                definition == outcome.definition && definition == mirror.definitions[v][f],
                || {
                    format!(
                        "{} fold {f}: the replay learned {definition}, Castor::learn_in {}",
                        variant.name, outcome.definition
                    )
                },
            );
            out.check(
                tests == outcome.coverage_tests && removed == outcome.minimization_reduction,
                || {
                    format!(
                        "{} fold {f}: the replay ran {tests} coverage tests and removed {removed} \
                         of the bottom clause, Castor::learn_in {} and {}",
                        variant.name, outcome.coverage_tests, outcome.minimization_reduction
                    )
                },
            );
        }
    }
    out.set("core.saturation_s", secs(phases.saturation));
    out.set("core.bottom_clause_s", secs(phases.bottom_clause));
    out.set("logic.minimize_s", secs(phases.minimize));
    let removed = &phases.minimize_removed;
    out.set(
        "logic.minimize_removed_frac",
        removed.iter().sum::<f64>() / removed.len().max(1) as f64,
    );
    out.set("core.armg_s", secs(phases.armg));
    out.set("core.armg_calls", phases.armg_calls as f64);
    out.set(
        "core.armg_kept_frac",
        frac(phases.armg_kept, phases.armg_calls),
    );
    out.set("core.coverage_s", secs(phases.coverage));
    let coverage = &phases.coverage_report;
    out.set("core.coverage_tests", coverage.coverage_tests as f64);
    out.set(
        "core.coverage_cache_hit_frac",
        frac(
            coverage.cache_hits,
            coverage.cache_hits + coverage.cache_misses,
        ),
    );
    out.set(
        "core.coverage_budget_exhausted",
        coverage.budget_exhausted as f64,
    );
    out.set("core.reduction_s", secs(phases.reduction));
    out.set("core.learner_self_s", secs(phases.learner_self()));
    out.set(
        "bench.trace_overhead_frac",
        secs(phases.total) / secs(learn_in_time) - 1.0,
    );
    out.details.push(format!(
        "{{\"castor_replay_s\": {:?}, \"castor_learn_in_s\": {:?}, \"replay_engine_tests\": {}}}",
        secs(phases.total),
        secs(learn_in_time),
        phases.engine_report.coverage_tests
    ));
}

/// Figure 2's saturation sweep: grounding every example of an enlarged
/// department at one worker and at `nproc` workers (never more), after a
/// warm-up, interleaved round by round.
fn saturation_sweep(out: &mut Outcome) {
    let family = enlarged_family();
    let variant = &family.variants[0];
    let plan = BottomClausePlan::compile(variant.db.schema(), false);
    let config = CastorConfig::uwcse();
    let examples: Vec<Tuple> = variant
        .task
        .positive
        .iter()
        .chain(&variant.task.negative)
        .cloned()
        .collect();
    let mut points = vec![1];
    if nproc() > 1 {
        points.push(nproc());
    }
    let pools: Vec<WorkerPool> = points.iter().map(|&n| WorkerPool::new(n)).collect();
    let ground = |pool: &WorkerPool| {
        let start = Instant::now();
        let clauses =
            ground_bottom_clauses(&variant.db, &plan, "advisedBy", &examples, &config, pool);
        let elapsed = secs(start.elapsed());
        assert_eq!(
            clauses.len(),
            examples.len(),
            "one ground clause per example"
        );
        elapsed
    };
    for pool in &pools {
        ground(pool);
    }
    let mut times = vec![Vec::new(); pools.len()];
    for round in 0..SWEEP_ROUNDS {
        for i in 0..pools.len() {
            let i = if round % 2 == 0 {
                i
            } else {
                pools.len() - 1 - i
            };
            times[i].push(ground(&pools[i]));
        }
    }
    let one = median(&times[0]);
    let all = median(times.last().expect("at least one point"));
    out.set("core.saturation_1w_s", one);
    out.set("core.saturation_nw_s", all);
    out.set("core.saturation_speedup", one / all);
    out.details.push(format!(
        "{{\"saturation_sweep\": {{\"examples\": {}, \"workers\": {points:?}, \"seconds\": {times:?}}}}}",
        examples.len()
    ));
}
