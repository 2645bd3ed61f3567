//! A timed replay of `Castor::learn_in` built from `castor-core`'s public
//! functions, so the traced run can split Castor's learning time into its
//! phases without tracing inside the program. The traced run fails unless
//! the replay learns exactly the definition `Castor::learn_in` learns.
//! Drop this file once the learner records its own phase spans.

use castor_core::learner::promote_general_inds;
use castor_core::reduction::negative_reduce;
use castor_core::{
    castor_armg, castor_bottom_clause, BottomClausePlan, CastorConfig, CoverageEngine,
};
use castor_engine::{Engine, EngineReport, Prior};
use castor_learners::LearningTask;
use castor_logic::{is_safe, minimize_clause, Clause, Definition};
use castor_relational::{DatabaseInstance, Tuple};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time and work per phase, summed over replayed runs.
#[derive(Debug, Default, Clone)]
pub struct Phases {
    /// `CoverageEngine::build_with_pool`: grounding every example's
    /// bottom clause.
    pub saturation: Duration,
    pub bottom_clause: Duration,
    pub minimize: Duration,
    pub armg: Duration,
    /// The learner's own `CoverageEngine` calls (negative reduction's
    /// coverage tests count under `reduction`).
    pub coverage: Duration,
    pub reduction: Duration,
    /// Whole replayed runs (phases plus the learner's own bookkeeping).
    pub total: Duration,
    pub armg_calls: usize,
    /// ARMG results that became candidates (non-empty and, in safe mode,
    /// safe).
    pub armg_kept: usize,
    /// Fraction of bottom-clause literals each minimization removed.
    pub minimize_removed: Vec<f64>,
    /// Counters of the replayed runs' coverage engines.
    pub coverage_report: EngineReport,
    /// Counters the replayed runs caused on their evaluation engines.
    pub engine_report: EngineReport,
}

impl Phases {
    /// Time inside the replayed runs outside every timed phase.
    pub fn learner_self(&self) -> Duration {
        self.total.saturating_sub(
            self.saturation
                + self.bottom_clause
                + self.minimize
                + self.armg
                + self.coverage
                + self.reduction,
        )
    }
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *slot += start.elapsed();
    out
}

/// One replayed `Castor::learn_in(eval_engine, task)`; returns the learned
/// definition and the run's coverage-test count.
pub fn learn_in(
    config: &CastorConfig,
    eval_engine: &Engine,
    task: &LearningTask,
    phases: &mut Phases,
) -> (Definition, usize) {
    let start = Instant::now();
    let db = eval_engine.snapshot();
    let eval_baseline = eval_engine.report();
    let schema = if config.promote_general_inds {
        promote_general_inds(&db)
    } else {
        db.schema().clone()
    };
    let mut plan = BottomClausePlan::compile(&schema, config.use_general_inds);
    plan.use_indexes = config.use_stored_procedures;
    let engine = timed(&mut phases.saturation, || {
        CoverageEngine::build_with_pool(
            &db,
            &plan,
            &task.target,
            &task.positive,
            &task.negative,
            config,
            Arc::clone(eval_engine.pool()),
        )
        .with_budget_template(eval_engine.budget_template())
    });

    let mut definition = Definition::empty(task.target.clone());
    let mut uncovered: Vec<Tuple> = task.positive.clone();
    while !uncovered.is_empty() {
        let Some(clause) = learn_clause(
            config,
            &db,
            &plan,
            &engine,
            eval_engine,
            &task.target,
            &uncovered,
            &task.negative,
            phases,
        ) else {
            break;
        };
        let (covered_pos, covered_neg) = timed(&mut phases.coverage, || {
            (
                engine.covered_set(&clause, &uncovered, Prior::None),
                engine.covered_set(&clause, &task.negative, Prior::None),
            )
        });
        if !config
            .params
            .meets_minimum(covered_pos.len(), covered_neg.len())
            || covered_pos.is_empty()
        {
            break;
        }
        uncovered.retain(|e| !covered_pos.contains(e));
        definition.push(clause);
    }
    let tests = engine.tests_performed();
    phases.coverage_report = phases.coverage_report.combined(&engine.report());
    phases.engine_report = phases
        .engine_report
        .combined(&eval_engine.report().delta_since(&eval_baseline));
    phases.total += start.elapsed();
    (definition, tests)
}

/// Castor's `LearnClause` (Algorithm 4), phase by phase.
#[allow(clippy::too_many_arguments)]
fn learn_clause(
    config: &CastorConfig,
    db: &DatabaseInstance,
    plan: &BottomClausePlan,
    engine: &CoverageEngine,
    eval_engine: &Engine,
    target: &str,
    uncovered: &[Tuple],
    negative: &[Tuple],
    phases: &mut Phases,
) -> Option<Clause> {
    let params = &config.params;
    let seed = uncovered.first()?;
    let mut bottom = timed(&mut phases.bottom_clause, || {
        castor_bottom_clause(db, plan, target, seed, config)
    });
    if config.minimize_clauses {
        let before = bottom.body_len();
        bottom = timed(&mut phases.minimize, || minimize_clause(&bottom));
        if before > 0 {
            phases
                .minimize_removed
                .push((before - bottom.body_len()) as f64 / before as f64);
        }
    }
    if bottom.body.is_empty() {
        return None;
    }

    let (initial_cov, initial_neg) = timed(&mut phases.coverage, || {
        (
            engine.covered_set(&bottom, uncovered, Prior::None),
            engine.covered_set(&bottom, negative, Prior::None),
        )
    });
    let mut best: (Clause, i64) = (
        bottom.clone(),
        initial_cov.len() as i64 - initial_neg.len() as i64,
    );
    let mut beam: Vec<(Clause, HashSet<Tuple>, usize)> =
        vec![(bottom, initial_cov, initial_neg.len())];

    loop {
        let sample: Vec<&Tuple> = uncovered.iter().take(params.sample_size.max(1)).collect();
        let mut generated: Vec<(Clause, usize)> = Vec::new();
        for (parent_idx, (clause, known_cov, _)) in beam.iter().enumerate() {
            for example in &sample {
                if known_cov.contains(*example) {
                    continue;
                }
                phases.armg_calls += 1;
                let generalized = timed(&mut phases.armg, || {
                    castor_armg(clause, eval_engine, plan, example)
                });
                let Some(generalized) = generalized else {
                    continue;
                };
                if generalized.body.is_empty() || (config.safe_clauses && !is_safe(&generalized)) {
                    continue;
                }
                phases.armg_kept += 1;
                generated.push((generalized, parent_idx));
            }
        }
        if generated.is_empty() {
            break;
        }
        let clauses: Vec<Clause> = generated.iter().map(|(c, _)| c.clone()).collect();
        let priors: Vec<Prior> = generated
            .iter()
            .map(|&(_, parent_idx)| Prior::GeneralizationOf(&beam[parent_idx].0))
            .collect();
        let (pos_sets, neg_sets) = timed(&mut phases.coverage, || {
            (
                engine.covered_sets_batch_with_priors(&clauses, &priors, uncovered),
                engine.covered_sets_batch(&clauses, negative),
            )
        });
        let mut candidates: Vec<(Clause, HashSet<Tuple>, usize)> = Vec::new();
        for (((generalized, parent_idx), mut cov), neg) in
            generated.into_iter().zip(pos_sets).zip(neg_sets)
        {
            cov.extend(beam[parent_idx].1.iter().cloned());
            let score = cov.len() as i64 - neg.len() as i64;
            if score > best.1 {
                candidates.push((generalized, cov, neg.len()));
            }
        }
        if candidates.is_empty() {
            break;
        }
        candidates.sort_by_key(|(_, cov, neg)| -(cov.len() as i64 - *neg as i64));
        candidates.truncate(params.beam_width.max(1));
        let top_score = candidates[0].1.len() as i64 - candidates[0].2 as i64;
        if top_score > best.1 {
            best = (candidates[0].0.clone(), top_score);
        }
        beam = candidates;
    }

    let reduced = timed(&mut phases.reduction, || {
        negative_reduce(&best.0, engine, negative, plan, config.safe_clauses)
    });
    let final_clause = if config.minimize_clauses {
        timed(&mut phases.minimize, || minimize_clause(&reduced))
    } else {
        reduced
    };
    if final_clause.body.is_empty() {
        return None;
    }
    Some(final_clause)
}
