//! Plan execution: a backtracking index-nested-loop join over a compiled
//! [`ClausePlan`].
//!
//! Unlike the interpreted evaluator, the executor never reconsiders literal
//! order: each step's access path (the index positions to probe) was fixed
//! at compile time, so the per-node work is one index lookup plus
//! unification.
//!
//! Before the search starts, every variable of the clause is resolved to a
//! slot index (head first, then body order) and every relation to its
//! instance. A binding is then a `&Value` in a slot, borrowed from the
//! example, a database tuple or the clause's own constants, and is undone
//! through a trail of slot indices. A search node clones no name and no
//! value: probe keys are built from borrowed values, and each plan step
//! refills one candidate buffer that lives for the whole test.

use crate::plan::{ClausePlan, PlanFeedback};
use castor_logic::{Clause, CoverageOutcome, EvalBudget, Term};
use castor_relational::{DatabaseInstance, RelationInstance, Tuple, Value};
use std::collections::HashMap;

/// Whether `clause` covers `example` over `db`, following `plan`.
///
/// Semantics match [`castor_logic::covers_example_budgeted`]: the head is
/// bound to the example, then the body is searched for one satisfying
/// assignment within the node budget.
pub fn covers_with_plan(
    clause: &Clause,
    plan: &ClausePlan,
    db: &DatabaseInstance,
    example: &Tuple,
    budget: &mut EvalBudget,
) -> CoverageOutcome {
    covers_with_plan_observed(clause, plan, db, example, budget, None)
}

/// [`covers_with_plan`] with execution feedback: when `feedback` is given,
/// the executor records one plan execution plus, per step invocation, the
/// number of candidate rows the index probe actually produced — the
/// observations the engine's feedback re-planning compares against the
/// plan's estimates.
pub fn covers_with_plan_observed(
    clause: &Clause,
    plan: &ClausePlan,
    db: &DatabaseInstance,
    example: &Tuple,
    budget: &mut EvalBudget,
    feedback: Option<&PlanFeedback>,
) -> CoverageOutcome {
    debug_assert_eq!(plan.steps.len(), clause.body.len(), "plan/clause mismatch");
    let Some(mut search) = Search::bind_head(clause, example) else {
        return CoverageOutcome::NotCovered;
    };
    if let Some(feedback) = feedback {
        feedback.record_execution();
    }
    let steps = search.resolve_body(clause, plan, db);
    if search.solve(&steps, 0, budget, feedback) {
        CoverageOutcome::Covered
    } else if budget.was_exhausted() {
        CoverageOutcome::Exhausted
    } else {
        CoverageOutcome::NotCovered
    }
}

/// A term with its variable resolved to a slot.
#[derive(Clone, Copy)]
enum Arg<'a> {
    Const(&'a Value),
    Slot(usize),
}

/// One plan step with its relation and arguments resolved.
struct Step<'a> {
    /// `None` for a relation the database lacks: no body through this step
    /// is satisfiable.
    instance: Option<&'a RelationInstance>,
    args: Vec<Arg<'a>>,
    bound_positions: &'a [usize],
    /// The literal, for the plan/execution mismatch message only.
    terms: &'a [Term],
}

/// The search state of one coverage test.
struct Search<'a> {
    /// Variable name → slot, filled by resolution and unused afterwards.
    names: HashMap<&'a str, usize>,
    slots: Vec<Option<&'a Value>>,
    /// Bound slots in binding order; backtracking unbinds down to a mark.
    trail: Vec<usize>,
    key: Vec<&'a Value>,
    /// One candidate buffer per plan step, refilled on each invocation.
    candidates: Vec<Vec<&'a Tuple>>,
}

impl<'a> Search<'a> {
    /// Resolves the head's variables and binds them to the example; `None`
    /// when the head cannot match it.
    fn bind_head(clause: &'a Clause, example: &'a Tuple) -> Option<Self> {
        let mut search = Search {
            names: HashMap::new(),
            slots: Vec::new(),
            trail: Vec::new(),
            key: Vec::new(),
            candidates: Vec::new(),
        };
        let head: Vec<Arg<'a>> = clause.head.terms.iter().map(|t| search.arg(t)).collect();
        search.unify(&head, example).then_some(search)
    }

    /// Resolves the body's variables (in body order, after the head's) and
    /// each plan step's relation.
    fn resolve_body(
        &mut self,
        clause: &'a Clause,
        plan: &'a ClausePlan,
        db: &'a DatabaseInstance,
    ) -> Vec<Step<'a>> {
        let mut args: Vec<Vec<Arg<'a>>> = clause
            .body
            .iter()
            .map(|atom| atom.terms.iter().map(|term| self.arg(term)).collect())
            .collect();
        self.candidates = plan.steps.iter().map(|_| Vec::new()).collect();
        plan.steps
            .iter()
            .map(|step| {
                let atom = &clause.body[step.literal];
                Step {
                    instance: db.relation(&atom.relation),
                    args: std::mem::take(&mut args[step.literal]),
                    bound_positions: &step.bound_positions,
                    terms: &atom.terms,
                }
            })
            .collect()
    }

    /// The slot of a variable (allocating the next one on first sight), or
    /// the constant itself.
    fn arg(&mut self, term: &'a Term) -> Arg<'a> {
        match term {
            Term::Const(value) => Arg::Const(value),
            Term::Var(name) => {
                let next = self.slots.len();
                let slot = *self.names.entry(name.as_str()).or_insert(next);
                if slot == next {
                    self.slots.push(None);
                }
                Arg::Slot(slot)
            }
        }
    }

    fn solve(
        &mut self,
        steps: &[Step<'a>],
        step_idx: usize,
        budget: &mut EvalBudget,
        feedback: Option<&PlanFeedback>,
    ) -> bool {
        let Some(step) = steps.get(step_idx) else {
            return true; // every literal solved
        };
        let Some(instance) = step.instance else {
            return false; // unknown relation ⇒ body unsatisfiable
        };

        self.key.clear();
        for &pos in step.bound_positions {
            self.key.push(match step.args[pos] {
                Arg::Const(value) => value,
                // The planner guarantees the variable is bound here; a miss
                // would be a plan/execution mismatch.
                Arg::Slot(slot) => self.slots[slot].unwrap_or_else(|| {
                    unreachable!(
                        "planned-bound variable {} unbound at execution",
                        step.terms[pos]
                    )
                }),
            });
        }
        let mut candidates = std::mem::take(&mut self.candidates[step_idx]);
        instance.select_on_positions(step.bound_positions, &self.key, &mut candidates);
        if let Some(feedback) = feedback {
            feedback.record_step(step_idx, candidates.len());
        }

        let mut found = false;
        for &tuple in &candidates {
            if !budget.consume() {
                break;
            }
            let mark = self.trail.len();
            if self.unify(&step.args, tuple) && self.solve(steps, step_idx + 1, budget, feedback) {
                found = true;
                break;
            }
            for slot in self.trail.drain(mark..) {
                self.slots[slot] = None;
            }
        }
        self.candidates[step_idx] = candidates;
        found
    }

    /// Extends the bindings so that `args` match `tuple`, trailing every new
    /// binding; on failure the caller undoes the partial bindings.
    fn unify(&mut self, args: &[Arg<'a>], tuple: &'a Tuple) -> bool {
        if args.len() != tuple.arity() {
            return false;
        }
        for (arg, value) in args.iter().zip(tuple.values()) {
            match *arg {
                Arg::Const(c) => {
                    if c != value {
                        return false;
                    }
                }
                Arg::Slot(slot) => match self.slots[slot] {
                    Some(bound) => {
                        if bound != value {
                            return false;
                        }
                    }
                    None => {
                        self.slots[slot] = Some(value);
                        self.trail.push(slot);
                    }
                },
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::DatabaseStatistics;
    use castor_logic::Atom;
    use castor_relational::{RelationSymbol, Schema};

    fn db() -> DatabaseInstance {
        let mut schema = Schema::new("t");
        schema
            .add_relation(RelationSymbol::new("publication", &["title", "person"]))
            .add_relation(RelationSymbol::new("professor", &["prof"]));
        let mut db = DatabaseInstance::empty(&schema);
        for (t, p) in [("p1", "ann"), ("p1", "bob"), ("p2", "carol")] {
            db.insert("publication", Tuple::from_strs(&[t, p])).unwrap();
        }
        db.insert("professor", Tuple::from_strs(&["ann"])).unwrap();
        db
    }

    fn plan_for(clause: &Clause, db: &DatabaseInstance) -> ClausePlan {
        ClausePlan::compile(clause, &DatabaseStatistics::gather(db))
    }

    #[test]
    fn executor_agrees_with_reference_semantics() {
        let db = db();
        let clause = Clause::new(
            Atom::vars("collaborated", &["x", "y"]),
            vec![
                Atom::vars("publication", &["p", "x"]),
                Atom::vars("publication", &["p", "y"]),
            ],
        );
        let plan = plan_for(&clause, &db);
        for example in [
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["ann", "carol"]),
            Tuple::from_strs(&["carol", "carol"]),
            Tuple::from_strs(&["nobody", "ann"]),
        ] {
            let mut budget = EvalBudget::default();
            let planned = covers_with_plan(&clause, &plan, &db, &example, &mut budget);
            let reference = castor_logic::covers_example(&clause, &db, &example);
            assert_eq!(planned.is_covered(), reference, "example {example}");
        }
    }

    #[test]
    fn zero_budget_reports_exhaustion() {
        let db = db();
        let clause = Clause::new(
            Atom::vars("t", &["x"]),
            vec![Atom::vars("professor", &["x"])],
        );
        let plan = plan_for(&clause, &db);
        let mut budget = EvalBudget::new(0);
        assert_eq!(
            covers_with_plan(
                &clause,
                &plan,
                &db,
                &Tuple::from_strs(&["ann"]),
                &mut budget
            ),
            CoverageOutcome::Exhausted
        );
    }

    #[test]
    fn empty_body_covers_iff_head_binds() {
        let db = db();
        let clause = Clause::fact(Atom::vars("t", &["x"]));
        let plan = plan_for(&clause, &db);
        let mut budget = EvalBudget::default();
        assert_eq!(
            covers_with_plan(
                &clause,
                &plan,
                &db,
                &Tuple::from_strs(&["anything"]),
                &mut budget
            ),
            CoverageOutcome::Covered
        );
    }
}
