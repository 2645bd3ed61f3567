//! Batched beam evaluation: shared join-prefix execution for sibling
//! candidate clauses.
//!
//! Beam refinement scores sets of candidates that differ by a single
//! trailing literal: every sibling re-joins the same body prefix, so
//! per-clause execution re-probes the same indexes `beam_width × branching`
//! times per search level. A [`BatchPlan`] folds the candidates of one beam
//! into a *literal trie*: clauses sharing a body prefix share the trie path
//! for it, so the prefix join executes once per example and each
//! materialized prefix binding forks into the per-candidate suffixes. The
//! executor walks the trie depth-first with a binding trail, keeps a live
//! set of still-undecided candidates to prune exhausted subtrees, and gives
//! every candidate its own node budget so batched verdicts degrade the same
//! way per-clause verdicts do.
//!
//! Sharing is structural: bodies are inserted in clause order (beam
//! refinement appends literals, so siblings share their parent's body
//! verbatim), and candidates whose bodies diverge immediately simply occupy
//! disjoint root subtrees — the trie generalizes gracefully to mixed-parent
//! beams.

use crate::cost::{bound_positions, CostModel, CostModelKind};
use crate::plan::PlanFeedback;
use crate::stats::DatabaseStatistics;
use castor_logic::evaluation::{bind_head, unify_with_tuple};
use castor_logic::{Atom, Clause, CoverageOutcome, EvalBudget, Substitution, Term};
use castor_relational::{DatabaseInstance, Tuple, Value};
use std::collections::BTreeSet;

/// One trie node: a body literal, the argument positions known to be bound
/// when the node executes (head bindings, constants, and every ancestor
/// literal's variables), and the candidates whose bodies end here.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNode {
    /// The body literal this node solves.
    pub atom: Atom,
    /// Argument positions guaranteed bound at execution time.
    pub bound_positions: Vec<usize>,
    /// Child nodes (next body literals), cheapest estimated probe first.
    pub children: Vec<usize>,
    /// Candidate slots whose last body literal is this node.
    pub accepting: Vec<usize>,
    /// Every candidate slot in this node's subtree (`accepting` of self and
    /// all descendants) — the executor's live-set domain.
    pub subtree: Vec<usize>,
    /// Estimated candidate count for this node's probe (child ordering).
    pub estimated_cost: f64,
}

/// A compiled evaluation plan for a set of candidate clauses sharing one
/// canonical head: a literal trie over their bodies. Candidate identity is
/// the *slot* index the caller supplied at compile time.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPlan {
    /// The canonical head shared by every candidate in the batch.
    pub head: Atom,
    nodes: Vec<BatchNode>,
    /// Top-level trie nodes (first body literals), cheapest first.
    pub roots: Vec<usize>,
    /// Candidate slots with empty bodies: covered iff the head binds.
    pub root_accepting: Vec<usize>,
    /// `(relation, epoch)` stamps for every body relation known to the
    /// statistics the trie was costed against — same staleness contract as
    /// [`crate::ClausePlan::epochs`].
    pub epochs: Vec<(String, u64)>,
}

impl BatchPlan {
    /// Compiles a literal trie with the uniform baseline model
    /// (convenience wrapper over [`BatchPlan::compile_with`]).
    pub fn compile(head: &Atom, bodies: &[(usize, &[Atom])], stats: &DatabaseStatistics) -> Self {
        BatchPlan::compile_with(head, bodies, stats, CostModelKind::Uniform.model())
    }

    /// Compiles a literal trie for candidates sharing `head`. Each entry of
    /// `bodies` is `(slot, body)`; the slot is echoed back by the executor.
    /// Bodies are inserted in literal order — canonicalized siblings produced
    /// by beam refinement share their parent prefix verbatim and therefore
    /// share trie nodes. After insertion, *shared prefix chains* (runs of
    /// trie nodes every candidate in the subtree passes through) are
    /// reordered by `model`'s selectivity estimates — the per-clause greedy
    /// order, applied to the shared prefix without breaking sharing.
    pub fn compile_with(
        head: &Atom,
        bodies: &[(usize, &[Atom])],
        stats: &DatabaseStatistics,
        model: &dyn CostModel,
    ) -> Self {
        let mut plan = BatchPlan {
            head: head.clone(),
            nodes: Vec::new(),
            roots: Vec::new(),
            root_accepting: Vec::new(),
            epochs: crate::ClausePlan::stamp_epochs(
                bodies.iter().flat_map(|(_, body)| body.iter()),
                stats,
            ),
        };
        let head_vars: BTreeSet<String> = head
            .terms
            .iter()
            .filter_map(Term::var_name)
            .map(str::to_string)
            .collect();
        for &(slot, body) in bodies {
            if body.is_empty() {
                plan.root_accepting.push(slot);
                continue;
            }
            let mut bound: BTreeSet<String> = head_vars.clone();
            let mut parent: Option<usize> = None;
            for atom in body {
                let siblings = match parent {
                    None => &plan.roots,
                    Some(p) => &plan.nodes[p].children,
                };
                let existing = siblings
                    .iter()
                    .copied()
                    .find(|&i| plan.nodes[i].atom == *atom);
                let node_idx = match existing {
                    Some(i) => i,
                    None => {
                        let borrowed: BTreeSet<&str> = bound.iter().map(String::as_str).collect();
                        let bound_positions: Vec<usize> = atom
                            .terms
                            .iter()
                            .enumerate()
                            .filter(|(_, term)| match term {
                                Term::Const(_) => true,
                                Term::Var(name) => bound.contains(name.as_str()),
                            })
                            .map(|(i, _)| i)
                            .collect();
                        let estimated_cost = model.estimate_atom(atom, &borrowed, stats);
                        let idx = plan.nodes.len();
                        plan.nodes.push(BatchNode {
                            atom: atom.clone(),
                            bound_positions,
                            children: Vec::new(),
                            accepting: Vec::new(),
                            subtree: Vec::new(),
                            estimated_cost,
                        });
                        match parent {
                            None => plan.roots.push(idx),
                            Some(p) => plan.nodes[p].children.push(idx),
                        }
                        idx
                    }
                };
                bound.extend(
                    atom.terms
                        .iter()
                        .filter_map(Term::var_name)
                        .map(str::to_string),
                );
                parent = Some(node_idx);
            }
            let leaf = parent.expect("non-empty body created at least one node");
            plan.nodes[leaf].accepting.push(slot);
        }
        let roots = plan.roots.clone();
        for root in roots {
            plan.reorder_chain(root, head_vars.clone(), model, stats);
        }
        plan.finish();
        plan
    }

    /// Reorders the *shared prefix chains* of the trie by selectivity: a
    /// maximal run of nodes in which every node has exactly one child and
    /// accepts no candidate (except possibly the last) is a conjunction
    /// every candidate in the subtree executes in full, so its literals can
    /// be permuted freely — sharing, accepted bodies, and semantics are
    /// unchanged. Each chain is re-ordered greedily (cheapest bindable
    /// literal first, exactly like [`crate::ClausePlan`] does per clause)
    /// and its nodes' access paths and cost estimates are recomputed for
    /// the new positions. Recurses into the children of each chain end with
    /// the accumulated bound set.
    fn reorder_chain(
        &mut self,
        start: usize,
        mut bound: BTreeSet<String>,
        model: &dyn CostModel,
        stats: &DatabaseStatistics,
    ) {
        // Collect the maximal chain: interior nodes must be non-accepting
        // single-child links, so no candidate's body ends mid-chain.
        let mut chain = vec![start];
        loop {
            let node = &self.nodes[*chain.last().expect("chain is non-empty")];
            if node.children.len() == 1 && node.accepting.is_empty() {
                chain.push(node.children[0]);
            } else {
                break;
            }
        }
        if chain.len() > 1 {
            // Greedy reorder of the chain's atoms under the entry bound
            // set — the same schedule `ClausePlan` computes per clause.
            let atoms: Vec<Atom> = chain.iter().map(|&i| self.nodes[i].atom.clone()).collect();
            let atom_refs: Vec<&Atom> = atoms.iter().collect();
            let ordered = crate::cost::greedy_order(&atom_refs, &mut bound, |_, atom, borrowed| {
                model.estimate_atom(atom, borrowed, stats)
            });
            // Rewrite the chain nodes in the new order; the link structure
            // (and the accepting slots of the chain end) stay put.
            for (&idx, scheduled) in chain.iter().zip(ordered) {
                let node = &mut self.nodes[idx];
                node.atom = atoms[scheduled.index].clone();
                node.bound_positions = scheduled.bound_positions;
                node.estimated_cost = scheduled.estimated_rows;
            }
        } else {
            for &idx in &chain {
                bound.extend(
                    self.nodes[idx]
                        .atom
                        .terms
                        .iter()
                        .filter_map(Term::var_name)
                        .map(str::to_string),
                );
            }
        }
        let end = *chain.last().expect("chain is non-empty");
        for child in self.nodes[end].children.clone() {
            self.reorder_chain(child, bound.clone(), model, stats);
        }
    }

    /// Computes subtree slot lists bottom-up and orders every child list by
    /// estimated probe cost (cheapest first — pure heuristic, the executor
    /// visits every live child anyway).
    fn finish(&mut self) {
        let roots = self.roots.clone();
        for root in &roots {
            self.fill_subtree(*root);
        }
        let mut order: Vec<usize> = roots;
        self.sort_by_cost(&mut order);
        self.roots = order;
        for i in 0..self.nodes.len() {
            let mut children = std::mem::take(&mut self.nodes[i].children);
            self.sort_by_cost(&mut children);
            self.nodes[i].children = children;
        }
    }

    fn fill_subtree(&mut self, node: usize) {
        let children = self.nodes[node].children.clone();
        let mut subtree = self.nodes[node].accepting.clone();
        for child in children {
            self.fill_subtree(child);
            subtree.extend(self.nodes[child].subtree.iter().copied());
        }
        subtree.sort_unstable();
        subtree.dedup();
        self.nodes[node].subtree = subtree;
    }

    fn sort_by_cost(&self, indices: &mut [usize]) {
        indices.sort_by(|&a, &b| {
            self.nodes[a]
                .estimated_cost
                .total_cmp(&self.nodes[b].estimated_cost)
        });
    }

    /// The trie node arena (read-only).
    pub fn node(&self, idx: usize) -> &BatchNode {
        &self.nodes[idx]
    }

    /// Number of trie nodes (shared prefixes collapse candidates, so this
    /// is strictly less than the total literal count whenever sharing
    /// happened).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the trie's costing is still current against `stats` (see
    /// [`crate::ClausePlan::is_current`]).
    pub fn is_current(&self, stats: &DatabaseStatistics) -> bool {
        self.epochs
            .iter()
            .all(|(name, epoch)| stats.epoch_of(name) == Some(*epoch))
    }

    /// Every candidate slot in the plan (root-accepting included).
    pub fn slots(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.root_accepting.clone();
        for &root in &self.roots {
            out.extend(self.nodes[root].subtree.iter().copied());
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Counters gathered while executing one batch work item; merged into the
/// engine's [`crate::EngineStats`] by the caller (no atomics on the inner
/// loop).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchItemStats {
    /// (candidate, example) verdicts produced by actual evaluation.
    pub tests: usize,
    /// Verdicts that ended by per-candidate budget exhaustion.
    pub budget_exhausted: usize,
    /// Per-clause probes saved at shared nodes (`live − 1` per probe that
    /// fed more than one live candidate).
    pub prefix_hits: usize,
    /// Suffix descents forked off a shared binding beyond the first live
    /// child.
    pub suffix_forks: usize,
}

impl BatchItemStats {
    /// Element-wise accumulation.
    pub fn absorb(&mut self, other: &BatchItemStats) {
        self.tests += other.tests;
        self.budget_exhausted += other.budget_exhausted;
        self.prefix_hits += other.prefix_hits;
        self.suffix_forks += other.suffix_forks;
    }
}

/// Mutable execution state for one (example, subtree) work item. Slot
/// arrays are indexed by the caller's slot space.
struct BatchSearch<'a> {
    plan: &'a BatchPlan,
    db: &'a DatabaseInstance,
    theta: Substitution,
    trail: Vec<String>,
    /// `true` while the slot still needs a verdict.
    live: Vec<bool>,
    outcomes: Vec<Option<CoverageOutcome>>,
    budgets: Vec<EvalBudget>,
    stats: BatchItemStats,
    /// Per-trie-node observed candidate rows, recorded for the engine's
    /// feedback recosting of cached tries (step index = trie node index).
    feedback: Option<&'a PlanFeedback>,
}

/// Evaluates one root subtree of `plan` against one example: every live
/// candidate in the subtree gets a [`CoverageOutcome`]. `live` flags (in
/// slot space) select which candidates this item must decide; slots outside
/// the subtree are ignored. `budget` is a per-candidate budget *template*
/// (cloned per slot), so a cancellation token installed on it aborts every
/// candidate of the item. With `feedback`, the item records one execution
/// plus per-trie-node observed candidate rows (step index = node index) —
/// the observations the engine's trie recosting compares against the
/// nodes' estimates. Returns `(slot, outcome)` pairs plus the item's
/// counters.
pub fn evaluate_subtree(
    plan: &BatchPlan,
    root: usize,
    db: &DatabaseInstance,
    example: &Tuple,
    live: &[bool],
    budget: &EvalBudget,
    feedback: Option<&PlanFeedback>,
) -> (Vec<(usize, CoverageOutcome)>, BatchItemStats) {
    let subtree = &plan.node(root).subtree;
    let wanted: Vec<usize> = subtree.iter().copied().filter(|&s| live[s]).collect();
    if wanted.is_empty() {
        return (Vec::new(), BatchItemStats::default());
    }
    let mut stats = BatchItemStats {
        tests: wanted.len(),
        ..Default::default()
    };
    let head_clause = Clause::fact(plan.head.clone());
    let Some(theta) = bind_head(&head_clause, example) else {
        // Head cannot bind: nothing in the batch covers this example.
        return (
            wanted
                .into_iter()
                .map(|s| (s, CoverageOutcome::NotCovered))
                .collect(),
            stats,
        );
    };
    if let Some(feedback) = feedback {
        feedback.record_execution();
    }
    let slot_space = live.len();
    let mut search = BatchSearch {
        plan,
        db,
        theta,
        trail: Vec::new(),
        live: {
            let mut mask = vec![false; slot_space];
            for &s in &wanted {
                mask[s] = true;
            }
            mask
        },
        outcomes: vec![None; slot_space],
        budgets: (0..slot_space).map(|_| budget.clone()).collect(),
        stats: BatchItemStats::default(),
        feedback,
    };
    search.explore(root);
    stats.absorb(&search.stats);
    let outcomes = wanted
        .into_iter()
        .map(|s| {
            let outcome = search.outcomes[s].unwrap_or(CoverageOutcome::NotCovered);
            if outcome.is_exhausted() {
                stats.budget_exhausted += 1;
            }
            (s, outcome)
        })
        .collect();
    (outcomes, stats)
}

impl BatchSearch<'_> {
    /// Depth-first execution of one trie node: probe the index once, then
    /// per candidate tuple fork into the live children. Mirrors the
    /// per-clause executor's semantics (budget consumed per candidate
    /// tuple, bindings undone through the trail).
    fn explore(&mut self, node_idx: usize) {
        // Copy the plan reference out of `self` so node borrows do not pin
        // the whole search state.
        let plan = self.plan;
        let node = plan.node(node_idx);
        let mut live_here: Vec<usize> = node
            .subtree
            .iter()
            .copied()
            .filter(|&s| self.live[s])
            .collect();
        if live_here.is_empty() {
            return;
        }
        let Some(instance) = self.db.relation(&node.atom.relation) else {
            // Unknown relation ⇒ no body through this node is satisfiable;
            // the slots resolve to NotCovered at item end.
            return;
        };
        let key: Vec<&Value> = node
            .bound_positions
            .iter()
            .map(|&pos| match &node.atom.terms[pos] {
                Term::Const(v) => v,
                Term::Var(name) => match self.theta.get(name) {
                    Some(Term::Const(v)) => v,
                    // The trie guarantees ancestor literals bound it.
                    _ => unreachable!("trie-bound variable {name} unbound at execution"),
                },
            })
            .collect();
        let mut candidates: Vec<&Tuple> = Vec::new();
        instance.select_on_positions(&node.bound_positions, &key, &mut candidates);
        if let Some(feedback) = self.feedback {
            feedback.record_step(node_idx, candidates.len());
        }
        if live_here.len() > 1 {
            // One probe fed `live_here.len()` candidates.
            self.stats.prefix_hits += live_here.len() - 1;
        }
        for tuple in candidates {
            // Charge the probe of this tuple to every live candidate whose
            // body runs through this node — the same per-tuple accounting
            // the per-clause executor uses.
            live_here.retain(|&s| self.live[s]);
            live_here.retain(|&s| {
                if self.budgets[s].consume() {
                    true
                } else {
                    self.live[s] = false;
                    self.outcomes[s] = Some(CoverageOutcome::Exhausted);
                    false
                }
            });
            if live_here.is_empty() {
                return;
            }
            let mark = self.trail.len();
            if unify_with_tuple(&node.atom, tuple, &mut self.theta, &mut self.trail) {
                for &s in &node.accepting {
                    if self.live[s] {
                        self.live[s] = false;
                        self.outcomes[s] = Some(CoverageOutcome::Covered);
                    }
                }
                let live_children: Vec<usize> = node
                    .children
                    .iter()
                    .copied()
                    .filter(|&c| plan.node(c).subtree.iter().any(|&s| self.live[s]))
                    .collect();
                if live_children.len() > 1 {
                    self.stats.suffix_forks += live_children.len() - 1;
                }
                for child in live_children {
                    self.explore(child);
                }
            }
            for name in self.trail.drain(mark..) {
                self.theta.unbind(&name);
            }
        }
    }
}

/// Observed-row overrides for recompiling one cached trie, fed back from
/// batch execution: (atom, access path) → average candidate rows actually
/// produced at the trie node that probed it. Like
/// [`crate::cost::CostOverrides`] an observation only transfers while the
/// candidate access path matches the one it was made under; unlike clause
/// plans, trie nodes have no stable literal index, so entries are keyed by
/// the atom itself (tries are small — lookups scan linearly, and the whole
/// structure only exists for the rare recompile).
#[derive(Debug, Default)]
pub struct TrieCostOverrides {
    observed: Vec<(Atom, Vec<usize>, f64)>,
}

impl TrieCostOverrides {
    /// Collects the observed per-invocation averages of `feedback` keyed to
    /// `plan`'s node atoms and access paths (nodes that never ran are
    /// skipped).
    pub fn from_feedback(plan: &BatchPlan, feedback: &PlanFeedback) -> Self {
        let mut overrides = TrieCostOverrides::default();
        for (node_idx, observed) in feedback.observed_rows().into_iter().enumerate() {
            if let (Some(rows), Some(node)) = (observed, plan.nodes.get(node_idx)) {
                overrides
                    .observed
                    .push((node.atom.clone(), node.bound_positions.clone(), rows));
            }
        }
        overrides
    }

    /// The observed rows for `atom` under the access path `positions`, if
    /// recorded.
    pub fn lookup(&self, atom: &Atom, positions: &[usize]) -> Option<f64> {
        self.observed
            .iter()
            .find(|(a, p, _)| a == atom && p == positions)
            .map(|&(_, _, rows)| rows)
    }

    /// Whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.observed.is_empty()
    }
}

/// A [`CostModel`] wrapper consulted during trie recompilation: an observed
/// row count beats the inner model's estimate whenever the candidate access
/// path matches the observation's.
#[derive(Debug)]
pub struct ObservedTrieCost<'a> {
    /// The model answering atoms with no matching observation.
    pub inner: &'a dyn CostModel,
    /// The recorded observations.
    pub overrides: &'a TrieCostOverrides,
}

impl CostModel for ObservedTrieCost<'_> {
    fn estimate_atom(
        &self,
        atom: &Atom,
        bound: &BTreeSet<&str>,
        stats: &DatabaseStatistics,
    ) -> f64 {
        self.overrides
            .lookup(atom, &bound_positions(atom, bound))
            .unwrap_or_else(|| self.inner.estimate_atom(atom, bound, stats))
    }

    fn name(&self) -> &'static str {
        "observed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use castor_relational::{RelationSymbol, Schema};

    fn db() -> DatabaseInstance {
        let mut schema = Schema::new("t");
        schema
            .add_relation(RelationSymbol::new("publication", &["title", "person"]))
            .add_relation(RelationSymbol::new("professor", &["prof"]))
            .add_relation(RelationSymbol::new("student", &["stud"]));
        let mut db = DatabaseInstance::empty(&schema);
        for (t, p) in [("p1", "ann"), ("p1", "bob"), ("p2", "carol"), ("p2", "dan")] {
            db.insert("publication", Tuple::from_strs(&[t, p])).unwrap();
        }
        db.insert("professor", Tuple::from_strs(&["bob"])).unwrap();
        db.insert("student", Tuple::from_strs(&["ann"])).unwrap();
        db
    }

    /// advisedBy(x, y) ← publication(p, x), publication(p, y) [, extra]
    fn siblings() -> (Atom, Vec<Vec<Atom>>) {
        let head = Atom::vars("advisedBy", &["_0", "_1"]);
        let prefix = vec![
            Atom::vars("publication", &["_2", "_0"]),
            Atom::vars("publication", &["_2", "_1"]),
        ];
        let mut with_prof = prefix.clone();
        with_prof.push(Atom::vars("professor", &["_1"]));
        let mut with_stud = prefix.clone();
        with_stud.push(Atom::vars("student", &["_0"]));
        (head, vec![prefix, with_prof, with_stud])
    }

    fn plan_of(head: &Atom, bodies: &[Vec<Atom>], db: &DatabaseInstance) -> BatchPlan {
        let stats = DatabaseStatistics::gather(db);
        let slotted: Vec<(usize, &[Atom])> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.as_slice()))
            .collect();
        BatchPlan::compile(head, &slotted, &stats)
    }

    #[test]
    fn siblings_share_prefix_nodes() {
        let db = db();
        let (head, bodies) = siblings();
        let plan = plan_of(&head, &bodies, &db);
        // 2 shared prefix nodes + 2 suffix leaves, not 2+3+3 literals.
        assert_eq!(plan.node_count(), 4);
        assert_eq!(plan.roots.len(), 1);
        assert_eq!(plan.slots(), vec![0, 1, 2]);
        // The shared second literal accepts the prefix clause and forks into
        // both suffixes.
        let root = plan.node(plan.roots[0]);
        assert_eq!(root.subtree, vec![0, 1, 2]);
        let second = plan.node(root.children[0]);
        assert_eq!(second.accepting, vec![0]);
        assert_eq!(second.children.len(), 2);
    }

    #[test]
    fn batched_outcomes_match_reference_semantics() {
        let db = db();
        let (head, bodies) = siblings();
        let plan = plan_of(&head, &bodies, &db);
        let clauses: Vec<Clause> = bodies
            .iter()
            .map(|b| Clause::new(head.clone(), b.clone()))
            .collect();
        let live = vec![true; clauses.len()];
        for example in [
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["ann", "carol"]),
            Tuple::from_strs(&["carol", "dan"]),
            Tuple::from_strs(&["dan", "dan"]),
        ] {
            let (outcomes, stats) = evaluate_subtree(
                &plan,
                plan.roots[0],
                &db,
                &example,
                &live,
                &EvalBudget::new(10_000),
                None,
            );
            assert_eq!(outcomes.len(), clauses.len());
            assert_eq!(stats.tests, clauses.len());
            for (slot, outcome) in outcomes {
                assert_eq!(
                    outcome.is_covered(),
                    castor_logic::covers_example(&clauses[slot], &db, &example),
                    "slot {slot} diverged on {example}"
                );
            }
        }
    }

    #[test]
    fn shared_probes_and_forks_are_counted() {
        let db = db();
        let (head, bodies) = siblings();
        let plan = plan_of(&head, &bodies, &db);
        let live = vec![true; 3];
        let (_, stats) = evaluate_subtree(
            &plan,
            plan.roots[0],
            &db,
            &Tuple::from_strs(&["ann", "bob"]),
            &live,
            &EvalBudget::new(10_000),
            None,
        );
        assert!(stats.prefix_hits > 0, "no shared probes counted: {stats:?}");
        assert!(stats.suffix_forks > 0, "no suffix forks counted: {stats:?}");
    }

    #[test]
    fn zero_budget_reports_exhaustion_per_candidate() {
        let db = db();
        let (head, bodies) = siblings();
        let plan = plan_of(&head, &bodies, &db);
        let live = vec![true; 3];
        let (outcomes, stats) = evaluate_subtree(
            &plan,
            plan.roots[0],
            &db,
            &Tuple::from_strs(&["ann", "bob"]),
            &live,
            &EvalBudget::new(0),
            None,
        );
        assert!(outcomes.iter().all(|(_, o)| o.is_exhausted()));
        assert_eq!(stats.budget_exhausted, 3);
    }

    #[test]
    fn live_mask_restricts_the_verdicts() {
        let db = db();
        let (head, bodies) = siblings();
        let plan = plan_of(&head, &bodies, &db);
        let live = vec![false, true, false];
        let (outcomes, _) = evaluate_subtree(
            &plan,
            plan.roots[0],
            &db,
            &Tuple::from_strs(&["ann", "bob"]),
            &live,
            &EvalBudget::new(10_000),
            None,
        );
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].0, 1);
    }

    #[test]
    fn trie_epoch_stamps_detect_mutated_relations() {
        // BatchPlans are compiled per call today, but the epoch stamps are
        // the invalidation contract a future cross-round trie cache (see
        // ROADMAP) relies on — pin their semantics now.
        let mut db = db();
        let (head, bodies) = siblings();
        let plan = plan_of(&head, &bodies, &db);
        let names: Vec<&str> = plan.epochs.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["professor", "publication", "student"]);
        let mut stats = DatabaseStatistics::gather(&db);
        assert!(plan.is_current(&stats));
        db.insert("professor", Tuple::from_strs(&["dan"])).unwrap();
        stats.refresh(&db);
        assert!(!plan.is_current(&stats));
    }

    #[test]
    fn shared_prefix_chains_are_reordered_by_selectivity() {
        // Siblings share the badly-ordered prefix [skewed(x,y), flat(x,z)]:
        // the hub relation first, the selective one second. The histogram
        // model must flip the *shared chain* without breaking sharing.
        let mut schema = Schema::new("s");
        schema
            .add_relation(RelationSymbol::new("skewed", &["a", "b"]))
            .add_relation(RelationSymbol::new("flat", &["a", "b"]))
            .add_relation(RelationSymbol::new("p1", &["a"]))
            .add_relation(RelationSymbol::new("p2", &["a"]));
        let mut db = DatabaseInstance::empty(&schema);
        for i in 0..120 {
            db.insert("skewed", Tuple::from_strs(&["hub", &format!("v{i}")]))
                .unwrap();
        }
        for i in 0..80 {
            db.insert(
                "skewed",
                Tuple::from_strs(&[&format!("k{i}"), &format!("w{i}")]),
            )
            .unwrap();
        }
        for i in 0..60 {
            db.insert(
                "flat",
                Tuple::from_strs(&[&format!("f{}", i % 20), &format!("x{i}")]),
            )
            .unwrap();
        }
        db.insert("flat", Tuple::from_strs(&["hub", "y0"])).unwrap();
        db.insert("p1", Tuple::from_strs(&["v0"])).unwrap();
        db.insert("p2", Tuple::from_strs(&["y0"])).unwrap();

        let head = Atom::vars("t", &["_0"]);
        let prefix = vec![
            Atom::vars("skewed", &["_0", "_1"]),
            Atom::vars("flat", &["_0", "_2"]),
        ];
        let mut with_p1 = prefix.clone();
        with_p1.push(Atom::vars("p1", &["_1"]));
        let mut with_p2 = prefix.clone();
        with_p2.push(Atom::vars("p2", &["_2"]));
        let bodies = [prefix.clone(), with_p1, with_p2];
        let slotted: Vec<(usize, &[Atom])> = bodies
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.as_slice()))
            .collect();
        let stats = DatabaseStatistics::gather(&db);

        let uniform =
            BatchPlan::compile_with(&head, &slotted, &stats, CostModelKind::Uniform.model());
        assert_eq!(uniform.node(uniform.roots[0]).atom.relation, "skewed");

        let hist =
            BatchPlan::compile_with(&head, &slotted, &stats, CostModelKind::Histogram.model());
        // Sharing intact: still 2 chain nodes + 2 suffix leaves...
        assert_eq!(hist.node_count(), 4);
        assert_eq!(hist.roots.len(), 1);
        // ...but the selective literal now leads the shared chain.
        let root = hist.node(hist.roots[0]);
        assert_eq!(root.atom.relation, "flat");
        let second = hist.node(root.children[0]);
        assert_eq!(second.atom.relation, "skewed");
        assert_eq!(second.accepting, vec![0]);
        assert_eq!(second.children.len(), 2);
        // Access paths were recomputed for the new positions.
        assert_eq!(root.bound_positions, vec![0]);
        assert_eq!(second.bound_positions, vec![0]);

        // Semantics are untouched by the reorder.
        let clauses: Vec<Clause> = bodies
            .iter()
            .map(|b| Clause::new(head.clone(), b.clone()))
            .collect();
        let live = vec![true; clauses.len()];
        for example in [
            Tuple::from_strs(&["hub"]),
            Tuple::from_strs(&["k3"]),
            Tuple::from_strs(&["f0"]),
        ] {
            for plan in [&uniform, &hist] {
                let (outcomes, _) = evaluate_subtree(
                    plan,
                    plan.roots[0],
                    &db,
                    &example,
                    &live,
                    &EvalBudget::new(100_000),
                    None,
                );
                for (slot, outcome) in outcomes {
                    assert_eq!(
                        outcome.is_covered(),
                        castor_logic::covers_example(&clauses[slot], &db, &example),
                        "slot {slot} diverged on {example}"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_execution_records_per_node_observed_rows() {
        let db = db();
        let (head, bodies) = siblings();
        let plan = plan_of(&head, &bodies, &db);
        let live = vec![true; 3];
        let feedback = PlanFeedback::new(plan.node_count());
        for example in [
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["carol", "dan"]),
        ] {
            evaluate_subtree(
                &plan,
                plan.roots[0],
                &db,
                &example,
                &live,
                &EvalBudget::new(10_000),
                Some(&feedback),
            );
        }
        // One execution per (subtree, example) item with a bindable head.
        assert_eq!(feedback.executions(), 2);
        let observed = feedback.observed_rows();
        // The root probe ran for both examples and produced candidate rows.
        assert!(observed[plan.roots[0]].is_some());
        // The overrides key observations by (atom, access path) and feed a
        // wrapped model during recompilation.
        let overrides = TrieCostOverrides::from_feedback(&plan, &feedback);
        assert!(!overrides.is_empty());
        let root = plan.node(plan.roots[0]);
        assert_eq!(
            overrides.lookup(&root.atom, &root.bound_positions),
            observed[plan.roots[0]]
        );
        // A head that cannot bind records nothing.
        let before = feedback.executions();
        evaluate_subtree(
            &plan,
            plan.roots[0],
            &db,
            &Tuple::from_strs(&["ann"]),
            &live,
            &EvalBudget::new(10_000),
            Some(&feedback),
        );
        assert_eq!(feedback.executions(), before);
    }

    #[test]
    fn empty_bodies_collect_at_the_root() {
        let db = db();
        let head = Atom::vars("t", &["_0"]);
        let stats = DatabaseStatistics::gather(&db);
        let empty: Vec<Atom> = Vec::new();
        let plan = BatchPlan::compile(&head, &[(7, empty.as_slice())], &stats);
        assert_eq!(plan.root_accepting, vec![7]);
        assert!(plan.roots.is_empty());
        assert_eq!(plan.slots(), vec![7]);
    }
}
