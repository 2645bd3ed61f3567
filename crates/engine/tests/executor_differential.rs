//! Differential property test: the slot-bound plan executor against the
//! pre-change search kept in `oracle/`. On seeded-random databases, clauses,
//! examples and budgets both must return the same `CoverageOutcome`, leave
//! the budget with the same number of nodes and record the same plan
//! feedback, so every cached verdict, every exhaustion count, every
//! feedback re-plan and every learned clause stays what it was.
//!
//! The generator covers repeated variables in one atom and in the head,
//! constants in the head and in the body (some absent from the database),
//! a relation used at the wrong arity in both directions, an unknown
//! relation, literals sharing no variable with what came before (steps
//! with no bound position, i.e. full scans), budgets from 0 to 30k nodes,
//! and budgets whose cancellation token is already set.

mod oracle;

use castor_engine::executor::covers_with_plan_observed;
use castor_engine::{
    ClausePlan, CostModelKind, CostOverrides, DatabaseStatistics, PlanFeedback, PlanStep,
    DEFAULT_EVAL_NODE_BUDGET,
};
use castor_logic::{Atom, Clause, CoverageOutcome, EvalBudget, Term};
use castor_relational::{DatabaseInstance, RelationSymbol, Schema, Tuple, Value};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// SplitMix64: a dependency-free seeded generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// Stored relations and their arities.
const STORED: [(&str, usize); 4] = [("p", 2), ("q", 2), ("r", 3), ("s", 1)];

/// Body relations as clauses use them: `p` also at arities 1 and 3, and
/// `u`, which the database lacks.
const USED: [(&str, usize); 7] = [
    ("p", 2),
    ("q", 2),
    ("r", 3),
    ("s", 1),
    ("p", 1),
    ("p", 3),
    ("u", 2),
];

/// Constants `c0..c5` occur in the database; `c6` and the integer 7 only
/// in clauses and examples.
fn constant(rng: &mut Rng) -> Value {
    match rng.below(8) {
        7 => Value::int(7),
        i => Value::str(format!("c{i}")),
    }
}

fn database(rng: &mut Rng) -> DatabaseInstance {
    let mut schema = Schema::new("differential");
    for (name, arity) in STORED {
        let attrs: Vec<String> = (0..arity).map(|i| format!("a{i}")).collect();
        let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        schema.add_relation(RelationSymbol::new(name, &attrs));
    }
    let mut db = DatabaseInstance::empty(&schema);
    for (name, arity) in STORED {
        for _ in 0..rng.below(24) {
            let values = (0..arity)
                .map(|_| Value::str(format!("c{}", rng.below(6))))
                .collect();
            // Duplicates are rejected or ignored; either way the set grows.
            let _ = db.insert(name, Tuple::new(values));
        }
    }
    db
}

/// A clause over few variables (so atoms and the head repeat them), with
/// an occasional constant.
fn clause(rng: &mut Rng) -> Clause {
    let vars = 1 + rng.below(5);
    let term = |rng: &mut Rng| {
        if rng.chance(12) {
            Term::Const(constant(rng))
        } else {
            Term::var(format!("X{}", rng.below(vars)))
        }
    };
    let head_arity = if rng.chance(5) { 1 } else { 2 };
    let head = Atom::new("t", (0..head_arity).map(|_| term(rng)).collect());
    let body = (0..rng.below(6))
        .map(|_| {
            let (name, arity) = if rng.chance(85) {
                STORED[rng.below(STORED.len())]
            } else {
                USED[rng.below(USED.len())]
            };
            Atom::new(name, (0..arity).map(|_| term(rng)).collect())
        })
        .collect();
    Clause::new(head, body)
}

fn example(rng: &mut Rng) -> Tuple {
    let arity = if rng.chance(5) { 3 } else { 2 };
    Tuple::new((0..arity).map(|_| constant(rng)).collect())
}

/// Budgets from 0 to the default 30k nodes, small ones often enough that
/// many searches run dry; now and then with a cancellation token that is
/// already set.
fn budget(rng: &mut Rng) -> EvalBudget {
    let nodes = match rng.below(5) {
        0 => rng.below(4),
        1 => rng.below(40),
        2 => rng.below(400),
        3 => rng.below(DEFAULT_EVAL_NODE_BUDGET + 1),
        _ => DEFAULT_EVAL_NODE_BUDGET,
    };
    if rng.chance(5) {
        EvalBudget::with_cancel(nodes, Arc::new(AtomicBool::new(true)))
    } else {
        EvalBudget::new(nodes)
    }
}

#[derive(Default)]
struct Tally {
    outcomes: [usize; 3],
    cancelled: usize,
    full_scans: usize,
}

fn assert_same(
    clause: &Clause,
    plan: &ClausePlan,
    db: &DatabaseInstance,
    example: &Tuple,
    budget: EvalBudget,
    observe: bool,
    tally: &mut Tally,
) {
    let expected_feedback = observe.then(|| PlanFeedback::new(plan.steps.len()));
    let feedback = observe.then(|| PlanFeedback::new(plan.steps.len()));
    let mut expected_budget = budget.clone();
    let mut budget = budget;
    let expected = oracle::covers_with_plan_observed(
        clause,
        plan,
        db,
        example,
        &mut expected_budget,
        expected_feedback.as_ref(),
    );
    let actual =
        covers_with_plan_observed(clause, plan, db, example, &mut budget, feedback.as_ref());
    assert_eq!(actual, expected, "{clause}\non {example}");
    assert_eq!(
        budget.remaining(),
        expected_budget.remaining(),
        "{clause}\non {example}"
    );
    assert_eq!(budget.was_exhausted(), expected_budget.was_exhausted());
    assert_eq!(budget.was_cancelled(), expected_budget.was_cancelled());
    if let (Some(feedback), Some(expected_feedback)) = (&feedback, &expected_feedback) {
        assert_eq!(feedback.executions(), expected_feedback.executions());
        assert_eq!(
            feedback.observed_rows(),
            expected_feedback.observed_rows(),
            "{clause}\non {example}"
        );
    }
    tally.outcomes[match expected {
        CoverageOutcome::Covered => 0,
        CoverageOutcome::NotCovered => 1,
        CoverageOutcome::Exhausted => 2,
    }] += 1;
    tally.cancelled += usize::from(expected_budget.was_cancelled());
}

#[test]
fn slot_bound_executor_matches_oracle_on_random_clauses() {
    let mut rng = Rng(0x0510_7B0D);
    let mut tally = Tally::default();
    for _ in 0..100 {
        let db = database(&mut rng);
        let stats = DatabaseStatistics::gather(&db);
        for _ in 0..60 {
            let clause = clause(&mut rng);
            let model = if rng.chance(50) {
                CostModelKind::Histogram
            } else {
                CostModelKind::Uniform
            };
            let plan =
                ClausePlan::compile_with(&clause, &stats, model.model(), &CostOverrides::default());
            tally.full_scans += plan
                .steps
                .iter()
                .filter(|s| s.bound_positions.is_empty())
                .count();
            for _ in 0..4 {
                let example = example(&mut rng);
                let budget = budget(&mut rng);
                let observe = rng.chance(70);
                assert_same(&clause, &plan, &db, &example, budget, observe, &mut tally);
            }
        }
    }
    let [covered, not_covered, exhausted] = tally.outcomes;
    assert!(covered > 100, "too few covered tests: {covered}");
    assert!(not_covered > 100, "too few uncovered tests: {not_covered}");
    assert!(exhausted > 100, "too few exhausted tests: {exhausted}");
    assert!(
        tally.cancelled > 10,
        "too few cancelled tests: {}",
        tally.cancelled
    );
    assert!(
        tally.full_scans > 100,
        "too few full-scan steps: {}",
        tally.full_scans
    );
}

/// A search that walks the whole 30k-node budget: a cross product of
/// three unrelated full scans under a check that always fails, so the
/// exhaustion unwinds through every level.
#[test]
fn dry_cross_product_matches_oracle() {
    let mut schema = Schema::new("cross");
    schema.add_relation(RelationSymbol::new("e", &["a", "b"]));
    let mut db = DatabaseInstance::empty(&schema);
    for i in 0..40 {
        db.insert("e", Tuple::new(vec![Value::int(i), Value::int(i + 1)]))
            .unwrap();
    }
    let clause = Clause::new(
        Atom::vars("t", &["x"]),
        vec![
            Atom::vars("e", &["a", "b"]),
            Atom::vars("e", &["c", "d"]),
            Atom::vars("e", &["f", "g"]),
            Atom::new("e", vec![Term::var("x"), Term::var("x")]),
        ],
    );
    // Scans first, the failing check last: no planner would pick this
    // order, so it is written out.
    let step = |literal: usize, bound_positions: Vec<usize>| PlanStep {
        literal,
        bound_positions,
        estimated_rows: 1.0,
    };
    let plan = ClausePlan {
        steps: vec![
            step(0, vec![]),
            step(1, vec![]),
            step(2, vec![]),
            step(3, vec![0, 1]),
        ],
        estimated_cost: 4.0,
        epochs: Vec::new(),
    };
    let mut tally = Tally::default();
    for nodes in [0, 1, 39, 40, 41, 1_600, DEFAULT_EVAL_NODE_BUDGET] {
        for observe in [false, true] {
            let example = Tuple::new(vec![Value::int(3)]);
            assert_same(
                &clause,
                &plan,
                &db,
                &example,
                EvalBudget::new(nodes),
                observe,
                &mut tally,
            );
        }
    }
    assert_eq!(tally.outcomes[2], 14, "every budget must run dry");
}
