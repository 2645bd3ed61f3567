//! θ-subsumption.
//!
//! Clause `C` θ-subsumes clause `D` iff there is a substitution θ such that
//! `Cθ ⊆ D` (treating clauses as sets of literals). Castor's coverage test
//! is exactly θ-subsumption of a candidate clause against the ground
//! bottom-clause of an example (Section 7.5.3); the paper delegates this to
//! the Resumer2 engine, which this module replaces with a backtracking
//! matcher with literal ordering and forward-pruning heuristics.
//!
//! Each test compiles both clauses to integers: every variable of the
//! general clause gets a slot, every distinct term an id (a specific body
//! literal's terms are interned the first time it is tried, so a search
//! that succeeds early touches few of them), and the specific body
//! literals are indexed by relation name. The search runs over one
//! binding array (slot → term id) with an undo trail, so trying a
//! candidate literal costs a few integer compares and backtracking pops
//! the trail; the witnessing [`Substitution`] is built only once a match
//! is found. The literal order, the candidate
//! order and the budget accounting (one [`EvalBudget::consume`] per
//! candidate tried) are part of the contract: they fix which witness is
//! found and after how many nodes a search gives up.

use crate::atom::Atom;
use crate::clause::Clause;
use crate::evaluation::EvalBudget;
use crate::substitution::Substitution;
use crate::term::Term;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// Backtracking budget for one subsumption test outside the coverage
/// engine (clause minimization, [`subsumes`], [`theta_equivalent`]).
/// θ-subsumption is NP-complete; like the paper's implementation (which
/// uses a restarting engine and a polynomial approximation for clause
/// minimization), we bound the search and treat an exhausted budget as
/// "does not subsume". The bound is not only hit on pathological clauses:
/// minimizing a UW-CSE bottom clause against itself runs out of it on most
/// tests (see [`crate::minimize::minimize_clause_counted`]), so such a
/// literal is kept as "not redundant".
const NODE_BUDGET: usize = 4_000;

/// The result of a budgeted subsumption test: the witnessing substitution
/// (when one was found) plus whether the node budget ran out, in which case
/// a `None` witness means "unknown", not "does not subsume".
#[derive(Debug, Clone)]
pub struct SubsumptionOutcome {
    /// The witnessing substitution, if subsumption was established.
    pub witness: Option<Substitution>,
    /// Whether the search budget was exhausted before completing.
    pub exhausted: bool,
}

impl SubsumptionOutcome {
    /// Whether subsumption was established.
    pub fn subsumes(&self) -> bool {
        self.witness.is_some()
    }
}

/// Whether `general` θ-subsumes `specific` (an exhausted budget counts as
/// "does not subsume"; use [`subsumes_budgeted`] to tell the difference).
pub fn subsumes(general: &Clause, specific: &Clause) -> bool {
    subsumes_with(general, specific).is_some()
}

/// Whether `general` θ-subsumes `specific`, returning the witnessing
/// substitution when it does.
pub fn subsumes_with(general: &Clause, specific: &Clause) -> Option<Substitution> {
    subsumes_budgeted(general, specific).witness
}

/// Budgeted subsumption test reporting budget exhaustion instead of
/// conflating it with a negative answer, using the default node budget.
pub fn subsumes_budgeted(general: &Clause, specific: &Clause) -> SubsumptionOutcome {
    subsumes_budgeted_with(general, specific, NODE_BUDGET)
}

/// [`subsumes_budgeted`] with an explicit node budget (the coverage engine
/// passes its configured evaluation budget here, so the knob governs both
/// database evaluation and θ-subsumption coverage testing).
pub fn subsumes_budgeted_with(
    general: &Clause,
    specific: &Clause,
    node_budget: usize,
) -> SubsumptionOutcome {
    subsumes_with_eval_budget(general, specific, &mut EvalBudget::new(node_budget))
}

/// Marks an unbound variable slot, and a candidate literal whose terms are
/// not interned yet.
const UNSET: u32 = u32::MAX;

/// One argument of a general literal, compiled to integers.
#[derive(Debug, Clone, Copy)]
enum Arg {
    /// A variable, by slot in the binding array.
    Var(u32),
    /// A constant, by term id.
    Const(u32),
}

/// Dense ids for distinct keys in first-seen order: a key's id is its
/// index in `keys`.
struct Interner<'a, K: ?Sized> {
    keys: Vec<&'a K>,
    ids: HashMap<&'a K, u32>,
}

impl<'a, K: ?Sized + Eq + Hash> Interner<'a, K> {
    fn new() -> Self {
        Interner {
            keys: Vec::new(),
            ids: HashMap::new(),
        }
    }

    fn id(&mut self, key: &'a K) -> u32 {
        let next = self.keys.len() as u32;
        let id = *self.ids.entry(key).or_insert(next);
        if id == next {
            self.keys.push(key);
        }
        id
    }
}

/// Compiles a general-clause atom's arguments: a variable to its slot, a
/// constant to its term id. Equal terms of both clauses share an id, so a
/// constant the specific clause lacks gets an id no specific term carries.
fn compile<'a>(
    atom: &'a Atom,
    terms: &mut Interner<'a, Term>,
    slots: &mut Interner<'a, str>,
) -> Vec<Arg> {
    atom.terms
        .iter()
        .map(|term| match term {
            Term::Var(name) => Arg::Var(slots.id(name)),
            Term::Const(_) => Arg::Const(terms.id(term)),
        })
        .collect()
}

/// A general body literal in search order: its compiled arguments and its
/// candidates, the specific body literals sharing its relation name.
struct Literal<'c> {
    args: Vec<Arg>,
    candidates: &'c [u32],
}

/// The state of one search: the candidate literals, whose term ids are
/// interned the first time each is tried (a search that succeeds early
/// touches few of them), and the binding array with its undo trail.
struct Search<'a> {
    terms: Interner<'a, Term>,
    /// Specific body literals that are some general literal's candidate.
    atoms: Vec<&'a Atom>,
    /// Where each atom's term ids start in `atom_ids`, or [`UNSET`].
    starts: Vec<u32>,
    atom_ids: Vec<u32>,
    /// Term id bound to each general variable slot, or [`UNSET`].
    bindings: Vec<u32>,
    /// Slots bound so far, in binding order.
    trail: Vec<u32>,
}

impl Search<'_> {
    /// Extends the bindings so `args` maps onto candidate `candidate`.
    /// On failure the caller undoes the partial bindings.
    fn matches(&mut self, args: &[Arg], candidate: u32) -> bool {
        let c = candidate as usize;
        let atom = self.atoms[c];
        if self.starts[c] == UNSET {
            self.starts[c] = self.atom_ids.len() as u32;
            for term in &atom.terms {
                let id = self.terms.id(term);
                self.atom_ids.push(id);
            }
        }
        let start = self.starts[c] as usize;
        let target = &self.atom_ids[start..start + atom.arity()];
        bind(args, target, &mut self.bindings, &mut self.trail)
    }

    /// Unbinds every slot bound after the trail had length `mark`.
    fn undo(&mut self, mark: usize) {
        for slot in self.trail.drain(mark..) {
            self.bindings[slot as usize] = UNSET;
        }
    }

    /// Depth-first search placing `order`'s literals one by one, trying
    /// each literal's candidates in body order and consuming one budget
    /// node per candidate tried. Once the budget fails, every later node
    /// would fail too, so the search unwinds at once; a negative answer is
    /// approximate only then (a run that consumed its whole budget on its
    /// final node still decided the question exactly).
    fn run(&mut self, order: &[Literal], budget: &mut EvalBudget) -> Result<bool, Exhausted> {
        let Some((literal, rest)) = order.split_first() else {
            return Ok(true);
        };
        for &candidate in literal.candidates {
            if !budget.consume() {
                return Err(Exhausted);
            }
            let mark = self.trail.len();
            if self.matches(&literal.args, candidate) && self.run(rest, budget)? {
                return Ok(true);
            }
            self.undo(mark);
        }
        Ok(false)
    }
}

/// Extends `bindings` so `args` maps onto the literal with term ids
/// `target`, pushing newly bound slots on `trail`. Constants must match
/// exactly; an unbound variable binds to the term at its position.
fn bind(args: &[Arg], target: &[u32], bindings: &mut [u32], trail: &mut Vec<u32>) -> bool {
    if args.len() != target.len() {
        return false;
    }
    for (&arg, &term) in args.iter().zip(target) {
        match arg {
            Arg::Const(id) => {
                if id != term {
                    return false;
                }
            }
            Arg::Var(slot) => {
                let bound = &mut bindings[slot as usize];
                if *bound == UNSET {
                    *bound = term;
                    trail.push(slot);
                } else if *bound != term {
                    return false;
                }
            }
        }
    }
    true
}

/// The budget ran out (or an abort token was set) mid-search.
struct Exhausted;

/// [`subsumes_budgeted_with`] driven by a caller-supplied [`EvalBudget`],
/// so a cancellation token installed on the budget aborts the subsumption
/// search (as an exhaustion) within one candidate literal — the serving
/// layer cancels θ-subsumption coverage tests through this entry point.
pub fn subsumes_with_eval_budget(
    general: &Clause,
    specific: &Clause,
    budget: &mut EvalBudget,
) -> SubsumptionOutcome {
    let decided = |witness| SubsumptionOutcome {
        witness,
        exhausted: false,
    };
    if general.head.relation != specific.head.relation
        || general.head.arity() != specific.head.arity()
    {
        return decided(None);
    }

    // Index the specific clause's body literals by relation name (in body
    // order) so each general literal only tries compatible candidates;
    // literals of relations the general clause lacks are never candidates.
    let mut by_relation: HashMap<&str, Vec<u32>> = general
        .body
        .iter()
        .map(|a| (a.relation.as_str(), Vec::new()))
        .collect();
    let mut atoms: Vec<&Atom> = Vec::new();
    for atom in &specific.body {
        if let Some(candidates) = by_relation.get_mut(atom.relation.as_str()) {
            candidates.push(atoms.len() as u32);
            atoms.push(atom);
        }
    }
    // Fail fast: a general literal whose relation does not appear in the
    // specific clause can never be matched.
    if by_relation.values().any(Vec::is_empty) {
        return decided(None);
    }

    // Deduplicate general body literals (duplicates map to the same target
    // and only multiply the search), then order them: fewest candidate
    // matches first, and among those prefer literals connected by shared
    // variables to the ones already placed — both prune the search
    // dramatically on the long clauses produced by bottom-up learners.
    let mut seen: HashSet<&Atom> = HashSet::new();
    let mut unique: Vec<&Atom> = Vec::new();
    for atom in &general.body {
        if seen.insert(atom) {
            unique.push(atom);
        }
    }
    unique.sort_by_key(|a| by_relation[a.relation.as_str()].len());
    let mut terms = Interner::new();
    let mut slots = Interner::new();
    let head_args = compile(&general.head, &mut terms, &mut slots);
    let mut remaining: Vec<(&Atom, Vec<Arg>)> = unique
        .into_iter()
        .map(|a| (a, compile(a, &mut terms, &mut slots)))
        .collect();
    let mut placed = vec![false; slots.keys.len()];
    place(&mut placed, &head_args);
    let mut order: Vec<Literal> = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let pos = remaining
            .iter()
            .position(|(_, args)| {
                args.iter()
                    .any(|arg| matches!(*arg, Arg::Var(slot) if placed[slot as usize]))
            })
            .unwrap_or(0);
        let (atom, args) = remaining.remove(pos);
        place(&mut placed, &args);
        order.push(Literal {
            args,
            candidates: &by_relation[atom.relation.as_str()],
        });
    }

    // The head must match under θ as well: heads of both clauses use the
    // target relation, so this amounts to unifying the head arguments.
    let head_ids: Vec<u32> = specific.head.terms.iter().map(|t| terms.id(t)).collect();
    let mut search = Search {
        terms,
        starts: vec![UNSET; atoms.len()],
        atoms,
        atom_ids: Vec::new(),
        bindings: vec![UNSET; slots.keys.len()],
        trail: Vec::new(),
    };
    if !bind(
        &head_args,
        &head_ids,
        &mut search.bindings,
        &mut search.trail,
    ) {
        return decided(None);
    }
    match search.run(&order, budget) {
        Ok(true) => decided(Some(
            slots
                .keys
                .iter()
                .zip(&search.bindings)
                .filter(|(_, &id)| id != UNSET)
                .map(|(name, &id)| (name.to_string(), search.terms.keys[id as usize].clone()))
                .collect(),
        )),
        Ok(false) => decided(None),
        Err(Exhausted) => SubsumptionOutcome {
            witness: None,
            exhausted: true,
        },
    }
}

/// Marks the variables among `args` as placed.
fn place(placed: &mut [bool], args: &[Arg]) {
    for arg in args {
        if let Arg::Var(slot) = *arg {
            placed[slot as usize] = true;
        }
    }
}

/// Whether two clauses are θ-equivalent (each subsumes the other). This is
/// the syntactic notion of clause equivalence used when checking that two
/// learned definitions are "the same" across schemas.
pub fn theta_equivalent(a: &Clause, b: &Clause) -> bool {
    subsumes(a, b) && subsumes(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Atom;
    use crate::term::Term;

    fn a(rel: &str, vars: &[&str]) -> Atom {
        Atom::vars(rel, vars)
    }

    #[test]
    fn clause_subsumes_itself() {
        let c = Clause::new(
            a("t", &["x", "y"]),
            vec![a("p", &["x", "z"]), a("q", &["z", "y"])],
        );
        assert!(subsumes(&c, &c));
        assert!(theta_equivalent(&c, &c));
    }

    #[test]
    fn more_general_clause_subsumes_specialization() {
        let general = Clause::new(a("t", &["x", "y"]), vec![a("p", &["x", "z"])]);
        let specific = Clause::new(
            a("t", &["x", "y"]),
            vec![a("p", &["x", "y"]), a("q", &["y"])],
        );
        assert!(subsumes(&general, &specific));
        assert!(!subsumes(&specific, &general));
    }

    #[test]
    fn subsumption_of_ground_bottom_clause() {
        // Candidate: collaborated(x,y) ← publication(p,x), publication(p,y)
        // Ground ⊥e: collaborated(ann,bob) ← publication(pl1,ann), publication(pl1,bob)
        let candidate = Clause::new(
            a("collaborated", &["x", "y"]),
            vec![a("publication", &["p", "x"]), a("publication", &["p", "y"])],
        );
        let ground = Clause::new(
            Atom::new(
                "collaborated",
                vec![Term::constant("ann"), Term::constant("bob")],
            ),
            vec![
                Atom::new(
                    "publication",
                    vec![Term::constant("pl1"), Term::constant("ann")],
                ),
                Atom::new(
                    "publication",
                    vec![Term::constant("pl1"), Term::constant("bob")],
                ),
            ],
        );
        let theta = subsumes_with(&candidate, &ground).expect("should subsume");
        assert_eq!(theta.get("x"), Some(&Term::constant("ann")));
        assert_eq!(theta.get("y"), Some(&Term::constant("bob")));
    }

    #[test]
    fn subsumption_fails_when_shared_variable_cannot_be_consistent() {
        // Candidate requires the same publication p for both authors; the
        // ground clause has different publications.
        let candidate = Clause::new(
            a("collaborated", &["x", "y"]),
            vec![a("publication", &["p", "x"]), a("publication", &["p", "y"])],
        );
        let ground = Clause::new(
            Atom::new(
                "collaborated",
                vec![Term::constant("ann"), Term::constant("bob")],
            ),
            vec![
                Atom::new(
                    "publication",
                    vec![Term::constant("pl1"), Term::constant("ann")],
                ),
                Atom::new(
                    "publication",
                    vec![Term::constant("pl2"), Term::constant("bob")],
                ),
            ],
        );
        assert!(!subsumes(&candidate, &ground));
    }

    #[test]
    fn constants_in_candidate_must_match_exactly() {
        let candidate = Clause::new(
            a("t", &["x"]),
            vec![Atom::new(
                "yearsInProgram",
                vec![Term::var("x"), Term::constant(seven())],
            )],
        );
        let ground_match = Clause::new(
            Atom::new("t", vec![Term::constant("s1")]),
            vec![Atom::new(
                "yearsInProgram",
                vec![Term::constant("s1"), Term::constant(seven())],
            )],
        );
        let ground_mismatch = Clause::new(
            Atom::new("t", vec![Term::constant("s1")]),
            vec![Atom::new(
                "yearsInProgram",
                vec![
                    Term::constant("s1"),
                    Term::Const(castor_relational::Value::int(3)),
                ],
            )],
        );
        assert!(subsumes(&candidate, &ground_match));
        assert!(!subsumes(&candidate, &ground_mismatch));
    }

    fn seven() -> castor_relational::Value {
        castor_relational::Value::int(7)
    }

    #[test]
    fn missing_relation_fails_fast() {
        let candidate = Clause::new(a("t", &["x"]), vec![a("nonexistent", &["x"])]);
        let ground = Clause::new(
            Atom::new("t", vec![Term::constant("a")]),
            vec![Atom::new("p", vec![Term::constant("a")])],
        );
        assert!(!subsumes(&candidate, &ground));
    }

    #[test]
    fn different_heads_never_subsume() {
        let c1 = Clause::new(a("t", &["x"]), vec![a("p", &["x"])]);
        let c2 = Clause::new(a("u", &["x"]), vec![a("p", &["x"])]);
        assert!(!subsumes(&c1, &c2));
    }

    #[test]
    fn theta_equivalence_of_variable_renamings() {
        let c1 = Clause::new(a("t", &["x", "y"]), vec![a("p", &["x", "y"])]);
        let c2 = Clause::new(a("t", &["u", "v"]), vec![a("p", &["u", "v"])]);
        assert!(theta_equivalent(&c1, &c2));
    }

    #[test]
    fn redundant_literals_do_not_affect_equivalence() {
        let minimal = Clause::new(a("t", &["x"]), vec![a("p", &["x", "y"])]);
        let redundant = Clause::new(
            a("t", &["x"]),
            vec![a("p", &["x", "y"]), a("p", &["x", "z"])],
        );
        assert!(theta_equivalent(&minimal, &redundant));
    }
}
