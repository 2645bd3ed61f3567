//! The compiled-plan executor's search as it was before the slot-bound
//! executor replaced it: bindings in a `String`-keyed `Substitution`, a
//! trail of variable names, and a fresh probe key and candidate vector per
//! step invocation. Kept verbatim as a test oracle, so the differential
//! tests can pin that the slot-bound search reaches the same verdict,
//! consumes the same number of budget nodes and records the same plan
//! feedback on every call. Not used by the library.
//!
//! The one edit is at the index probe: `select_on_positions` now takes a
//! borrowed key and fills a caller-owned buffer, so the probe passes the
//! owned key by reference and collects into a fresh vector, which is what
//! the old method returned.

use castor_engine::{ClausePlan, PlanFeedback};
use castor_logic::evaluation::{bind_head, unify_with_tuple};
use castor_logic::{Clause, CoverageOutcome, EvalBudget, Substitution, Term};
use castor_relational::{DatabaseInstance, Tuple, Value};

/// The pre-change `castor_engine::executor::covers_with_plan_observed`.
pub fn covers_with_plan_observed(
    clause: &Clause,
    plan: &ClausePlan,
    db: &DatabaseInstance,
    example: &Tuple,
    budget: &mut EvalBudget,
    feedback: Option<&PlanFeedback>,
) -> CoverageOutcome {
    debug_assert_eq!(plan.steps.len(), clause.body.len(), "plan/clause mismatch");
    let Some(mut theta) = bind_head(clause, example) else {
        return CoverageOutcome::NotCovered;
    };
    if let Some(feedback) = feedback {
        feedback.record_execution();
    }
    let mut trail: Vec<String> = Vec::new();
    let found = solve(
        clause, plan, db, 0, &mut theta, &mut trail, budget, feedback,
    );
    if found {
        CoverageOutcome::Covered
    } else if budget.was_exhausted() {
        CoverageOutcome::Exhausted
    } else {
        CoverageOutcome::NotCovered
    }
}

#[allow(clippy::too_many_arguments)]
fn solve(
    clause: &Clause,
    plan: &ClausePlan,
    db: &DatabaseInstance,
    step_idx: usize,
    theta: &mut Substitution,
    trail: &mut Vec<String>,
    budget: &mut EvalBudget,
    feedback: Option<&PlanFeedback>,
) -> bool {
    let Some(step) = plan.steps.get(step_idx) else {
        return true; // every literal solved
    };
    let atom = &clause.body[step.literal];
    let Some(instance) = db.relation(&atom.relation) else {
        return false; // unknown relation ⇒ body unsatisfiable
    };

    let candidates: Vec<&Tuple> = if step.bound_positions.is_empty() {
        instance.iter().collect()
    } else {
        let key: Vec<Value> = step
            .bound_positions
            .iter()
            .map(|&pos| match &atom.terms[pos] {
                Term::Const(v) => v.clone(),
                Term::Var(name) => match theta.get(name) {
                    Some(Term::Const(v)) => v.clone(),
                    // The planner guarantees the variable is bound here; a
                    // miss would be a plan/execution mismatch.
                    _ => unreachable!("planned-bound variable {name} unbound at execution"),
                },
            })
            .collect();
        let key: Vec<&Value> = key.iter().collect();
        let mut candidates = Vec::new();
        instance.select_on_positions(&step.bound_positions, &key, &mut candidates);
        candidates
    };
    if let Some(feedback) = feedback {
        feedback.record_step(step_idx, candidates.len());
    }

    for tuple in candidates {
        if !budget.consume() {
            return false;
        }
        let mark = trail.len();
        if unify_with_tuple(atom, tuple, theta, trail)
            && solve(
                clause,
                plan,
                db,
                step_idx + 1,
                theta,
                trail,
                budget,
                feedback,
            )
        {
            return true;
        }
        for name in trail.drain(mark..) {
            theta.unbind(&name);
        }
    }
    false
}
