//! The θ-subsumption kernel against the pre-kernel search (the test
//! oracle in `crates/logic/tests/oracle/`) on real UW-CSE bottom clauses,
//! in the two shapes Castor runs: a variablized bottom clause against
//! another example's ground bottom clause under the 30k-node coverage
//! budget (many of these run dry), and minimization's clause against
//! itself minus one literal under the 4k-node budget. Witness, exhaustion
//! flag and nodes consumed must agree on every call.

#[path = "../crates/logic/tests/oracle/mod.rs"]
mod oracle;

use castor_core::{
    castor_bottom_clause, castor_ground_bottom_clause, BottomClausePlan, CastorConfig,
};
use castor_datasets::uwcse::{generate, UwCseConfig};
use castor_logic::{subsumes_with_eval_budget, Clause, EvalBudget, DEFAULT_EVAL_NODE_BUDGET};
use castor_relational::Tuple;

/// Runs both searches; returns whether the budget ran out.
fn assert_same(general: &Clause, specific: &Clause, nodes: usize) -> bool {
    let mut expected_budget = EvalBudget::new(nodes);
    let expected = oracle::subsumes_with_eval_budget(general, specific, &mut expected_budget);
    let mut budget = EvalBudget::new(nodes);
    let actual = subsumes_with_eval_budget(general, specific, &mut budget);
    assert_eq!(
        actual.witness, expected.witness,
        "{general}\nagainst {specific}"
    );
    assert_eq!(
        actual.exhausted, expected.exhausted,
        "{general}\nagainst {specific}"
    );
    assert_eq!(budget.remaining(), expected_budget.remaining());
    actual.exhausted
}

#[test]
fn kernel_matches_oracle_on_uwcse_bottom_clauses() {
    let family = generate(&UwCseConfig::default());
    let variant = family.variant("Original").unwrap();
    let plan = BottomClausePlan::compile(variant.db.schema(), false);
    let mut config = CastorConfig::uwcse();
    config.params.constant_positions = variant.constant_positions.clone();
    let examples: Vec<&Tuple> = variant
        .task
        .positive
        .iter()
        .take(3)
        .chain(variant.task.negative.iter().take(3))
        .collect();
    let bottoms: Vec<Clause> = examples
        .iter()
        .map(|e| castor_bottom_clause(&variant.db, &plan, "advisedBy", e, &config))
        .collect();
    let grounds: Vec<Clause> = examples
        .iter()
        .map(|e| castor_ground_bottom_clause(&variant.db, &plan, "advisedBy", e, &config))
        .collect();

    let mut exhausted = 0;
    for bottom in &bottoms {
        for ground in &grounds {
            exhausted += usize::from(assert_same(bottom, ground, DEFAULT_EVAL_NODE_BUDGET));
        }
    }
    // Minimization's shape on the first bottom clause.
    let clause = &bottoms[0];
    for i in 0..clause.body.len().min(12) {
        let mut reduced = clause.clone();
        reduced.body.remove(i);
        exhausted += usize::from(assert_same(clause, &reduced, 4_000));
    }
    assert!(
        exhausted > 0,
        "no call ran out of budget: the dry case is untested"
    );
}
