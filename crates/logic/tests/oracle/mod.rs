//! The θ-subsumption search as it was before the interned, trail-based
//! kernel replaced it: a substitution cloned per candidate literal. Kept
//! verbatim as a test oracle, so the differential tests can pin that the
//! kernel finds the same witness, gives up at the same point and consumes
//! the same number of budget nodes on every call. Not used by the library.

use castor_logic::{Atom, Clause, EvalBudget, Substitution, SubsumptionOutcome, Term};
use std::collections::HashMap;

/// The pre-kernel `castor_logic::subsumes_with_eval_budget`.
pub fn subsumes_with_eval_budget(
    general: &Clause,
    specific: &Clause,
    budget: &mut EvalBudget,
) -> SubsumptionOutcome {
    // The head must match under θ as well: heads of both clauses use the
    // target relation, so this amounts to unifying the head arguments.
    let decided = |witness| SubsumptionOutcome {
        witness,
        exhausted: false,
    };
    if general.head.relation != specific.head.relation
        || general.head.arity() != specific.head.arity()
    {
        return decided(None);
    }
    let mut theta = Substitution::new();
    if !match_atom(&general.head, &specific.head, &mut theta) {
        return decided(None);
    }

    // Index the specific clause's body literals by relation name so each
    // general literal only tries compatible candidates.
    let mut by_relation: HashMap<&str, Vec<&Atom>> = HashMap::new();
    for atom in &specific.body {
        by_relation
            .entry(atom.relation.as_str())
            .or_default()
            .push(atom);
    }

    // Deduplicate general body literals (duplicates map to the same target
    // and only multiply the search), then order them: fewest candidate
    // matches first, and among those prefer literals connected by shared
    // variables to the ones already placed — both prune the search
    // dramatically on the long clauses produced by bottom-up learners.
    let mut unique: Vec<&Atom> = Vec::new();
    for atom in &general.body {
        if !unique.contains(&atom) {
            unique.push(atom);
        }
    }
    // Fail fast: a general literal whose relation does not appear in the
    // specific clause can never be matched.
    if unique
        .iter()
        .any(|a| !by_relation.contains_key(a.relation.as_str()))
    {
        return decided(None);
    }
    unique.sort_by_key(|a| by_relation.get(a.relation.as_str()).map_or(0, |v| v.len()));
    let mut ordered: Vec<&Atom> = Vec::new();
    let mut placed_vars: std::collections::BTreeSet<String> = general.head.variables();
    let mut remaining = unique;
    while !remaining.is_empty() {
        let pos = remaining
            .iter()
            .position(|a| a.shares_variable_with(&placed_vars))
            .unwrap_or(0);
        let atom = remaining.remove(pos);
        placed_vars.extend(atom.variables());
        ordered.push(atom);
    }

    let mut exhausted = false;
    if search(
        &ordered,
        0,
        &by_relation,
        &mut theta,
        budget,
        &mut exhausted,
    ) {
        SubsumptionOutcome {
            witness: Some(theta),
            exhausted: false,
        }
    } else {
        SubsumptionOutcome {
            witness: None,
            exhausted,
        }
    }
}

/// Attempts to extend θ so that `general` maps onto the (possibly
/// non-ground) atom `specific`. Constants must match exactly; variables of
/// the general atom may bind to any term of the specific atom.
fn match_atom(general: &Atom, specific: &Atom, theta: &mut Substitution) -> bool {
    if general.relation != specific.relation || general.arity() != specific.arity() {
        return false;
    }
    let mut bound_here: Vec<String> = Vec::new();
    for (g, s) in general.terms.iter().zip(specific.terms.iter()) {
        let ok = match g {
            Term::Const(_) => g == s,
            Term::Var(name) => {
                if theta.binds(name) {
                    theta.get(name) == Some(s)
                } else {
                    theta.bind(name.clone(), s.clone());
                    bound_here.push(name.clone());
                    true
                }
            }
        };
        if !ok {
            for v in bound_here {
                theta.unbind(&v);
            }
            return false;
        }
    }
    // Note: callers that need to backtrack past this atom must snapshot θ.
    // `search` handles that by cloning θ per candidate.
    let _ = bound_here;
    true
}

fn search(
    ordered: &[&Atom],
    index: usize,
    by_relation: &HashMap<&str, Vec<&Atom>>,
    theta: &mut Substitution,
    budget: &mut EvalBudget,
    exhausted: &mut bool,
) -> bool {
    let Some(general) = ordered.get(index) else {
        return true;
    };
    let candidates = by_relation
        .get(general.relation.as_str())
        .map(|v| v.as_slice())
        .unwrap_or(&[]);
    for candidate in candidates {
        if !budget.consume() {
            // The search was actually cut short (budget dry or the
            // cancellation token set): only now is a negative answer
            // approximate (a run that consumed its whole budget on its
            // final node still decided the question exactly).
            *exhausted = true;
            return false;
        }
        let mut attempt = theta.clone();
        if match_atom(general, candidate, &mut attempt)
            && search(
                ordered,
                index + 1,
                by_relation,
                &mut attempt,
                budget,
                exhausted,
            )
        {
            *theta = attempt;
            return true;
        }
    }
    false
}
