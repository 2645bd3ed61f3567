//! Clause minimization by θ-reduction.
//!
//! A literal `L` of clause `C` is redundant if `C` is θ-equivalent to
//! `C − {L}`. Since `C − {L}` always θ-subsumes `C` (it is a subset of the
//! literals, so the identity substitution witnesses it), equivalence holds
//! exactly when `C` θ-subsumes `C − {L}`, i.e. there is a substitution
//! mapping `C` into its own subset. Castor minimizes every
//! bottom-clause and every learned clause this way (Section 7.5.5); the
//! paper uses a polynomial-time approximation of the subsumption test, which
//! we mirror by capping the search through the generic subsumption engine.
//! A capped test that runs out of nodes keeps its literal, so minimization
//! can leave redundant literals behind; [`minimize_clause_counted`] reports
//! how many tests ran out. On UW-CSE bottom clauses most of them do.

use crate::clause::Clause;
use crate::subsumption::subsumes_budgeted;

/// A minimized clause with the tally of the subsumption tests that
/// produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Minimized {
    /// The minimized clause.
    pub clause: Clause,
    /// Subsumption tests run: one per body literal tried.
    pub tests: usize,
    /// Tests that ran out of the node budget. Each kept its literal as
    /// "not redundant" without deciding it, so the clause may still hold
    /// redundant literals.
    pub exhausted: usize,
}

/// Removes syntactically redundant body literals.
///
/// Scans body literals left to right; a literal is dropped when the clause
/// without it still θ-subsumes the original clause. The result is equivalent
/// to the input (it subsumes and is subsumed by it).
pub fn minimize_clause(clause: &Clause) -> Clause {
    minimize_clause_counted(clause).clause
}

/// [`minimize_clause`], also counting its subsumption tests and how many of
/// them ran out of the node budget.
pub fn minimize_clause_counted(clause: &Clause) -> Minimized {
    let mut current = clause.clone();
    let mut tests = 0;
    let mut exhausted = 0;
    let mut i = 0;
    while i < current.body.len() {
        let mut candidate = current.clone();
        candidate.body.remove(i);
        // Removing a literal always generalizes, so `candidate` subsumes
        // `current` trivially. The literal is redundant only if the full
        // clause still maps *into* the reduced one, i.e. `current` θ-subsumes
        // `candidate`; then the two are θ-equivalent.
        let outcome = subsumes_budgeted(&current, &candidate);
        tests += 1;
        exhausted += usize::from(outcome.exhausted);
        if outcome.subsumes() {
            current = candidate;
            // do not advance: the literal at position i is now a new one
        } else {
            i += 1;
        }
    }
    Minimized {
        clause: current,
        tests,
        exhausted,
    }
}

/// Number of literals removed when minimizing `clause`, as a fraction of the
/// original body length. The paper reports 13–19% reductions on the HIV
/// bottom-clauses; this helper feeds that statistic in our experiment
/// reports.
pub fn reduction_ratio(clause: &Clause) -> f64 {
    if clause.body.is_empty() {
        return 0.0;
    }
    let minimized = minimize_clause(clause);
    (clause.body.len() - minimized.body.len()) as f64 / clause.body.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::subsumption::theta_equivalent;
    use crate::term::Term;

    #[test]
    fn removes_duplicate_literals() {
        let c = Clause::new(
            Atom::vars("t", &["x"]),
            vec![
                Atom::vars("p", &["x", "y"]),
                Atom::vars("p", &["x", "y"]),
                Atom::vars("q", &["y"]),
            ],
        );
        let m = minimize_clause(&c);
        assert_eq!(m.body.len(), 2);
        assert!(theta_equivalent(&c, &m));
    }

    #[test]
    fn removes_subsumed_variants() {
        // p(x,z) with a fresh z is redundant given p(x,y), q(y).
        let c = Clause::new(
            Atom::vars("t", &["x"]),
            vec![
                Atom::vars("p", &["x", "y"]),
                Atom::vars("q", &["y"]),
                Atom::vars("p", &["x", "z"]),
            ],
        );
        let m = minimize_clause(&c);
        assert_eq!(m.body.len(), 2);
        assert!(theta_equivalent(&c, &m));
    }

    #[test]
    fn keeps_essential_literals() {
        let c = Clause::new(
            Atom::vars("collaborated", &["x", "y"]),
            vec![
                Atom::vars("publication", &["p", "x"]),
                Atom::vars("publication", &["p", "y"]),
            ],
        );
        let m = minimize_clause(&c);
        assert_eq!(m.body.len(), 2);
    }

    #[test]
    fn counts_tests_and_budget_exhaustions() {
        // A directed chain t(x) <- q(x,v1), q(v1,v2), ... has no redundant
        // literal, but refuting a removal late in a long chain walks every
        // literal's candidates and runs past the node budget.
        let chain = |len: usize| {
            let var = |i: usize| {
                if i == 0 {
                    "x".to_string()
                } else {
                    format!("v{i}")
                }
            };
            Clause::new(
                Atom::vars("t", &["x"]),
                (0..len)
                    .map(|i| Atom::new("q", vec![Term::var(var(i)), Term::var(var(i + 1))]))
                    .collect(),
            )
        };
        let short = minimize_clause_counted(&chain(5));
        assert_eq!((short.tests, short.exhausted), (5, 0));
        assert_eq!(short.clause, chain(5));

        let long = minimize_clause_counted(&chain(70));
        assert_eq!(long.tests, 70);
        assert!(long.exhausted > 0 && long.exhausted < long.tests);
        assert_eq!(long.clause, minimize_clause(&chain(70)));
    }

    #[test]
    fn empty_body_is_untouched() {
        let c = Clause::fact(Atom::vars("t", &["x"]));
        assert_eq!(minimize_clause(&c), c);
        assert_eq!(reduction_ratio(&c), 0.0);
    }

    #[test]
    fn reduction_ratio_reflects_removed_literals() {
        let c = Clause::new(
            Atom::vars("t", &["x"]),
            vec![
                Atom::vars("p", &["x"]),
                Atom::vars("p", &["x"]),
                Atom::vars("p", &["x"]),
                Atom::vars("q", &["x"]),
            ],
        );
        let ratio = reduction_ratio(&c);
        assert!((ratio - 0.5).abs() < 1e-9);
    }

    #[test]
    fn minimized_clause_is_equivalent_to_original() {
        let c = Clause::new(
            Atom::vars("t", &["x"]),
            vec![
                Atom::vars("r", &["x", "a"]),
                Atom::vars("r", &["x", "b"]),
                Atom::vars("s", &["a", "b"]),
                Atom::vars("r", &["x", "c"]),
            ],
        );
        let m = minimize_clause(&c);
        assert!(theta_equivalent(&c, &m));
        assert!(m.body.len() <= c.body.len());
    }
}
