//! The compiled-plan executor against the pre-change search (the test
//! oracle in `crates/engine/tests/oracle/`) on the coverage tests Castor's
//! ARMG actually runs on UW-CSE: a variablized bottom clause generalized
//! towards another positive example, with a test of the whole clause and
//! of every body prefix up to the blocking atom (Section 7.2.1). Each test
//! runs on the canonical clause under the engine's default histogram plan
//! and the default 30k-node budget, as `Engine::covers` runs it with its
//! caches off. Verdict, nodes consumed and plan feedback must agree on
//! every call, and some calls must run the budget dry.

#[path = "../crates/engine/tests/oracle/mod.rs"]
mod oracle;

use castor_bench::replay_armg;
use castor_datasets::uwcse::{generate, UwCseConfig};
use castor_engine::executor::covers_with_plan_observed;
use castor_engine::{
    canonicalize, ClausePlan, CostModelKind, CostOverrides, DatabaseStatistics, PlanFeedback,
};
use castor_logic::{EvalBudget, DEFAULT_EVAL_NODE_BUDGET};

#[test]
fn executor_matches_oracle_on_uwcse_armg_prefixes() {
    let family = generate(&UwCseConfig::default());
    let variant = family.variant("Original").unwrap();
    let db = &variant.db;
    let stats = DatabaseStatistics::gather(db);
    let (mut tests, mut exhausted) = (0, 0);
    replay_armg(variant, 4, |clause, example| {
        let canonical = canonicalize(clause);
        let plan = ClausePlan::compile_with(
            &canonical,
            &stats,
            CostModelKind::Histogram.model(),
            &CostOverrides::default(),
        );
        let expected_feedback = PlanFeedback::new(plan.steps.len());
        let mut expected_budget = EvalBudget::new(DEFAULT_EVAL_NODE_BUDGET);
        let expected = oracle::covers_with_plan_observed(
            &canonical,
            &plan,
            db,
            example,
            &mut expected_budget,
            Some(&expected_feedback),
        );
        let feedback = PlanFeedback::new(plan.steps.len());
        let mut budget = EvalBudget::new(DEFAULT_EVAL_NODE_BUDGET);
        let actual =
            covers_with_plan_observed(&canonical, &plan, db, example, &mut budget, Some(&feedback));
        assert_eq!(actual, expected, "{canonical}\non {example}");
        assert_eq!(
            budget.remaining(),
            expected_budget.remaining(),
            "{canonical}\non {example}"
        );
        assert_eq!(feedback.executions(), expected_feedback.executions());
        assert_eq!(feedback.observed_rows(), expected_feedback.observed_rows());
        tests += 1;
        exhausted += usize::from(expected.is_exhausted());
        expected.is_covered()
    });
    println!("replayed {tests} ARMG coverage tests, {exhausted} exhausted");
    assert!(tests > 100, "too few tests replayed: {tests}");
    assert!(
        exhausted > 0,
        "no test ran out of budget: the dry case is untested"
    );
}
