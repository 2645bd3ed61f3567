//! Differential property test: the θ-subsumption kernel against the
//! pre-kernel search kept in `oracle/`. On seeded-random clause pairs both
//! must return the same witness, the same exhaustion flag and leave the
//! budget with the same number of nodes, so every cached verdict, every
//! exhaustion count and every learned clause stays what it was.
//!
//! The generator covers the shapes the learners produce: ground specific
//! clauses (coverage against a ground bottom clause), non-ground ones
//! sharing variable names with the general clause (minimization tests a
//! clause against itself minus one literal), repeated variables in one
//! atom, general constants absent from the specific clause, one relation
//! name used at two arities, and budgets small enough to run out.

mod oracle;

use castor_logic::{subsumes_with_eval_budget, Atom, Clause, EvalBudget, Term};
use castor_relational::Value;
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

/// Body relations: `p` appears at two arities.
const RELATIONS: [(&str, usize); 5] = [("p", 2), ("p", 1), ("q", 2), ("r", 3), ("s", 1)];

/// Constants `c0..c5` may occur in specific clauses; `c6`, `c7` and the
/// integer 7 only ever in general ones.
fn constant(rng: &mut Rng, absent_too: bool) -> Term {
    let pool = if absent_too { 9 } else { 6 };
    match rng.below(pool) {
        8 => Term::Const(Value::int(7)),
        i => Term::constant(format!("c{i}")),
    }
}

fn atom(rng: &mut Rng, relation: (&str, usize), mut term: impl FnMut(&mut Rng) -> Term) -> Atom {
    let (name, arity) = relation;
    Atom::new(name, (0..arity).map(|_| term(rng)).collect())
}

fn head(rng: &mut Rng, term: impl FnMut(&mut Rng) -> Term) -> Atom {
    // Now and then a head that cannot match: another relation or arity.
    let relation = match rng.below(20) {
        0 => ("u", 2),
        1 => ("t", 1),
        _ => ("t", 2),
    };
    atom(rng, relation, term)
}

/// A general clause over few variables (so atoms repeat them), with an
/// occasional constant, possibly one the specific clause lacks.
fn general_clause(rng: &mut Rng, vars: usize) -> Clause {
    let mut term = |rng: &mut Rng| {
        if rng.chance(15) {
            constant(rng, true)
        } else {
            Term::var(format!("X{}", rng.below(vars)))
        }
    };
    let head = head(rng, &mut term);
    let len = rng.below(7);
    let body = (0..len)
        .map(|_| {
            let relation = RELATIONS[rng.below(RELATIONS.len())];
            atom(rng, relation, &mut term)
        })
        .collect();
    Clause::new(head, body)
}

/// A specific clause: ground, or mixing constants with variables named
/// like the general clause's.
fn specific_clause(rng: &mut Rng, ground: bool) -> Clause {
    let mut term = |rng: &mut Rng| {
        if ground || rng.chance(50) {
            constant(rng, false)
        } else {
            Term::var(format!("X{}", rng.below(4)))
        }
    };
    let head = head(rng, &mut term);
    let len = 1 + rng.below(14);
    let body = (0..len)
        .map(|_| {
            let relation = RELATIONS[rng.below(RELATIONS.len())];
            atom(rng, relation, &mut term)
        })
        .collect();
    Clause::new(head, body)
}

/// A pair shaped like one minimization test: a clause against itself with
/// one body literal removed.
fn minimization_pair(rng: &mut Rng) -> (Clause, Clause) {
    let mut clause = specific_clause(rng, false);
    // Duplicate a literal now and then: minimization's redundant case.
    if rng.chance(30) {
        let copy = clause.body[rng.below(clause.body.len())].clone();
        clause.body.push(copy);
    }
    let mut reduced = clause.clone();
    reduced.body.remove(rng.below(reduced.body.len()));
    (clause, reduced)
}

const BUDGETS: [usize; 8] = [0, 1, 2, 5, 12, 40, 300, 4_000];

#[derive(Default)]
struct Tally {
    found: usize,
    refuted: usize,
    exhausted: usize,
}

fn assert_same(general: &Clause, specific: &Clause, nodes: usize, tally: &mut Tally) {
    let mut expected_budget = EvalBudget::new(nodes);
    let expected = oracle::subsumes_with_eval_budget(general, specific, &mut expected_budget);
    let mut budget = EvalBudget::new(nodes);
    let actual = subsumes_with_eval_budget(general, specific, &mut budget);
    let context = || format!("general {general}\nspecific {specific}\nbudget {nodes}");
    assert_eq!(actual.witness, expected.witness, "witness\n{}", context());
    assert_eq!(
        actual.exhausted,
        expected.exhausted,
        "exhausted\n{}",
        context()
    );
    assert_eq!(
        budget.remaining(),
        expected_budget.remaining(),
        "nodes left\n{}",
        context()
    );
    assert_eq!(budget.was_exhausted(), expected_budget.was_exhausted());
    if actual.witness.is_some() {
        tally.found += 1;
    } else if actual.exhausted {
        tally.exhausted += 1;
    } else {
        tally.refuted += 1;
    }
}

#[test]
fn kernel_matches_oracle_on_random_clause_pairs() {
    let mut rng = Rng(0x5eed_cafe);
    let mut tally = Tally::default();
    for case in 0..6_000 {
        let nodes = BUDGETS[rng.below(BUDGETS.len())];
        let (general, specific) = match case % 3 {
            0 => (general_clause(&mut rng, 4), specific_clause(&mut rng, true)),
            1 => (
                general_clause(&mut rng, 6),
                specific_clause(&mut rng, false),
            ),
            _ => minimization_pair(&mut rng),
        };
        assert_same(&general, &specific, nodes, &mut tally);
    }
    // Every verdict kind shows up often enough to be compared.
    assert!(tally.found > 500, "found {}", tally.found);
    assert!(tally.refuted > 500, "refuted {}", tally.refuted);
    assert!(tally.exhausted > 200, "exhausted {}", tally.exhausted);
}

#[test]
fn kernel_matches_oracle_on_hard_instances() {
    // Long bodies of one binary relation over few constants: the search
    // backtracks deeply, so the node count at which it stops is tested
    // well away from the first few candidates.
    let mut rng = Rng(42);
    let mut tally = Tally::default();
    for _ in 0..300 {
        let edge = |rng: &mut Rng, term: &mut dyn FnMut(&mut Rng) -> Term| {
            Atom::new("q", vec![term(rng), term(rng)])
        };
        let mut var = |rng: &mut Rng| Term::var(format!("X{}", rng.below(6)));
        let general = Clause::new(
            Atom::new("t", vec![Term::var("X0"), Term::var("X1")]),
            (0..5 + rng.below(4))
                .map(|_| edge(&mut rng, &mut var))
                .collect(),
        );
        let mut constant = |rng: &mut Rng| Term::constant(format!("c{}", rng.below(5)));
        let specific = Clause::new(
            Atom::new("t", vec![Term::constant("c0"), Term::constant("c1")]),
            (0..12 + rng.below(10))
                .map(|_| edge(&mut rng, &mut constant))
                .collect(),
        );
        let nodes = [50, 500, 5_000, 30_000][rng.below(4)];
        assert_same(&general, &specific, nodes, &mut tally);
    }
    assert!(tally.exhausted > 0 && tally.found > 0 && tally.refuted > 0);
}

#[test]
fn a_set_cancellation_token_aborts_as_an_exhaustion() {
    let general = Clause::new(
        Atom::vars("t", &["x"]),
        vec![Atom::vars("p", &["x", "y"]), Atom::vars("q", &["y"])],
    );
    let specific = Clause::new(
        Atom::new("t", vec![Term::constant("a")]),
        vec![
            Atom::new("p", vec![Term::constant("a"), Term::constant("b")]),
            Atom::new("q", vec![Term::constant("b")]),
        ],
    );
    let token = Arc::new(AtomicBool::new(true));
    let mut budget = EvalBudget::with_cancel(1_000, Arc::clone(&token));
    let outcome = subsumes_with_eval_budget(&general, &specific, &mut budget);
    assert!(outcome.witness.is_none());
    assert!(outcome.exhausted);
    assert!(budget.was_cancelled());
    assert_eq!(budget.remaining(), 1_000, "an abort consumes no node");

    let mut oracle_budget = EvalBudget::with_cancel(1_000, token);
    let expected = oracle::subsumes_with_eval_budget(&general, &specific, &mut oracle_budget);
    assert_eq!(expected.exhausted, outcome.exhausted);
    assert_eq!(oracle_budget.remaining(), budget.remaining());

    // The same pair subsumes once the token is clear.
    let mut clear = EvalBudget::with_cancel(1_000, Arc::new(AtomicBool::new(false)));
    assert!(subsumes_with_eval_budget(&general, &specific, &mut clear).subsumes());
}
