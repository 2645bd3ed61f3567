//! Seeded workload inputs. Everything the program under test receives is
//! built here from the workload seed; the program never sees the seed.
//!
//! * The learn workloads use the repository's Table 10 department (the
//!   UW-CSE generator at its default size and generator seed) with a
//!   seeded prefix on every constant. Learning time depends on the
//!   department far more than a 25% bound allows (in one process, Castor
//!   took 11, 36, 31 and 16 s on generator seeds 1, 2, 3 and 7), so a
//!   fresh department per seed would let the seed pick the figure. A
//!   common prefix changes every input byte but keeps the problem,
//!   down to the order of its constants.
//! * `serve-mixed` serves an enlarged department (400 students) and draws
//!   its request stream from the seed.

use castor_datasets::uwcse::{self, UwCseConfig};
use castor_datasets::{cross_validation_folds, SchemaFamily};
use castor_learners::LearnerParams;
use castor_logic::{Atom, Clause, Term};
use castor_relational::{DatabaseInstance, MutationBatch, Tuple, Value};
use castor_transform::{map_clause_through_step, Transformation};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// The UW-CSE schema variants, in the family's order.
pub const VARIANTS: [&str; 4] = ["Original", "4NF", "Denormalized-1", "Denormalized-2"];

/// SplitMix64: the benchmark's own generator, so its inputs do not move
/// when the program's `rand` stand-in changes.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// The learn workloads' department before renaming: Table 10's UW-CSE
/// family.
pub fn learn_department() -> SchemaFamily {
    uwcse::generate(&UwCseConfig::default())
}

/// The enlarged department (400 students, the size of the repository's
/// Figure 2 and RPC benches) that `serve-mixed` serves and the saturation
/// sweep grounds.
pub fn enlarged_family() -> SchemaFamily {
    uwcse::generate(&UwCseConfig {
        students: 400,
        professors: 60,
        courses: 120,
        ..Default::default()
    })
}

/// Puts a prefix drawn from `seed` on every constant of `family`. Tuple and
/// example order are kept, so the folds are those of the repository's
/// instance.
pub fn rename_constants(family: &mut SchemaFamily, seed: u64) {
    // One seeded prefix for every constant keeps the constants' relative
    // order, which the learners' search order follows.
    let mut rng = Rng::new(seed);
    let prefix: String = (0..6)
        .map(|_| char::from(b'a' + rng.below(26) as u8))
        .chain(std::iter::once('_'))
        .collect();
    let rename = |tuple: &Tuple| {
        Tuple::new(
            tuple
                .iter()
                .map(|v| match v {
                    Value::Str(s) => Value::str(format!("{prefix}{s}")),
                    Value::Int(_) => v.clone(),
                })
                .collect(),
        )
    };
    for variant in &mut family.variants {
        let mut db = DatabaseInstance::empty(variant.db.schema());
        for relation in variant.db.relations() {
            for tuple in relation.iter() {
                db.insert(relation.name(), rename(tuple))
                    .expect("renaming keeps the schema");
            }
        }
        variant.db = Arc::new(db);
        let positive = variant.task.positive.iter().map(rename).collect();
        let negative = variant.task.negative.iter().map(rename).collect();
        variant.task = variant.task.with_examples(positive, negative);
    }
}

/// The transformations from the Original schema, in [`VARIANTS`] order.
pub fn variant_taus() -> Vec<Transformation> {
    let original = uwcse::original_schema();
    vec![
        Transformation::identity("original-to-original"),
        uwcse::to_4nf(&original),
        uwcse::to_denormalized1(&original),
        uwcse::to_denormalized2(&original),
    ]
}

/// Maps a clause over the Original schema into the variant `tau` produces.
fn into_variant(clause: &Clause, tau: &Transformation) -> Clause {
    tau.steps()
        .iter()
        .fold(clause.clone(), |c, step| map_clause_through_step(&c, step))
}

/// The kind of one served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Score,
    Covered,
    Apply,
}

impl OpKind {
    pub const ALL: [OpKind; 3] = [OpKind::Score, OpKind::Covered, OpKind::Apply];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Score => "score",
            OpKind::Covered => "covered",
            OpKind::Apply => "apply",
        }
    }
}

/// One request of the `serve-mixed` stream, already mapped into its
/// target variant's schema.
#[derive(Debug, Clone)]
pub struct ServeOp {
    pub kind: OpKind,
    /// Index into [`VARIANTS`].
    pub variant: usize,
    pub clauses: Vec<Clause>,
    pub positive: Vec<Tuple>,
    pub negative: Vec<Tuple>,
    pub batch: MutationBatch,
    /// Whether the benchmark recomputes this answer with the uncached
    /// reference evaluator.
    pub verify: bool,
}

/// Attribute kinds of the Original UW-CSE schema, for building linked
/// candidate literals the way a bottom-up learner's beam does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Stud,
    Prof,
    /// A `publication` author: a student or a professor.
    Person,
    Title,
    Course,
    Term,
    /// A value-like attribute (phase, years, position, level): a constant
    /// position in the learners' mode declarations.
    Value,
}

/// `(relation, attribute kinds)` of the Original schema.
const RELATIONS: [(&str, &[Kind]); 9] = [
    ("student", &[Kind::Stud]),
    ("inPhase", &[Kind::Stud, Kind::Value]),
    ("yearsInProgram", &[Kind::Stud, Kind::Value]),
    ("professor", &[Kind::Prof]),
    ("hasPosition", &[Kind::Prof, Kind::Value]),
    ("publication", &[Kind::Title, Kind::Person]),
    ("courseLevel", &[Kind::Course, Kind::Value]),
    ("taughtBy", &[Kind::Course, Kind::Prof, Kind::Term]),
    ("ta", &[Kind::Course, Kind::Stud, Kind::Term]),
];

fn accepts(slot: Kind, var: Kind) -> bool {
    let person = |k: Kind| matches!(k, Kind::Stud | Kind::Prof | Kind::Person);
    slot == var || ((slot == Kind::Person || var == Kind::Person) && person(slot) && person(var))
}

/// Folds of the cross-validation (the Table 10 harness setting).
pub const FOLDS: usize = 2;

/// The `serve-mixed` request proportions taken from Aleph-Progol's own
/// requests to the engine on `uwcse-progol` (the `progol_requests` detail
/// line of its traced run; seeds 1 and 9 gave the same figures, as the
/// learn inputs differ only in their constants' prefix).
///
/// Clauses per scoring request: 1416 clauses over 57 requests.
const CLAUSES_PER_READ: usize = 25;
/// `covered_set` requests among all requests: 9 of 66.
const COVERED_SHARE: f64 = 9.0 / 66.0;
/// Requests per learn job: 66 over 8 jobs (4 variants × 2 folds).
const READS_PER_JOB: usize = 8;
/// Share of coverage tests the engine answered from its cache.
const REPEAT_SHARE: f64 = 0.0944;

/// Share of request groups that are a logical write. No learner writes, so
/// nothing in the repository measures this: it is the benchmark's choice.
const WRITE_SHARE: f64 = 0.05;

/// Shares of reads and of write groups whose answers the benchmark
/// recomputes with the uncached reference evaluator. They set the cost of
/// the check, not the traffic.
const VERIFY_READS: f64 = 1.0 / 16.0;
const VERIFY_WRITES: f64 = 0.25;

/// A share of the stream met exactly: `take` says yes on every
/// `1 / share`-th call on average, evenly spaced, so the traffic mix does
/// not vary with the seed.
#[derive(Debug)]
struct Share {
    share: f64,
    credit: f64,
}

impl Share {
    fn new(share: f64) -> Self {
        Share { share, credit: 0.0 }
    }

    fn take(&mut self) -> bool {
        self.credit += self.share;
        if self.credit >= 1.0 {
            self.credit -= 1.0;
            true
        } else {
            false
        }
    }
}

/// The seeded, unbounded `serve-mixed` request stream, shaped as
/// Aleph-Progol's requests are.
///
/// Reads follow the harness's order: a learn job's worth of reads on one
/// variant, then on the next. A fresh read is one refinement level of a
/// Progol beam search (`LearnerParams::uwcse()`: beam width 3, clause
/// length 4): the beam's parents, each extended by linked literals, with
/// a constant at every value position as the mode declarations put one.
/// Every read carries the training examples of the served department's
/// first fold, as a learner's first request does. A share of the reads
/// resends an earlier beam sent to the same variant, as a learner's repeated
/// candidates reach the one engine that learner runs on. Writes are logical co-authorship
/// inserts and deletes, applied to all four variants one after another so
/// the variants stay one logical database. The shares are met exactly
/// ([`Share`]), so the seed changes what is asked, not the mix.
#[derive(Debug)]
pub struct ServeStream {
    rng: Rng,
    values: HashMap<&'static str, Vec<Value>>,
    students: Vec<Value>,
    professors: Vec<Value>,
    positive: Vec<Tuple>,
    negative: Vec<Tuple>,
    taus: Vec<Transformation>,
    params: LearnerParams,
    writes: Share,
    covered: Share,
    repeats: Share,
    /// Every fresh beam sent so far to each variant, over the Original
    /// schema.
    sent: Vec<Vec<Vec<Clause>>>,
    inserted: VecDeque<(Value, Value, Value)>,
    variant: usize,
    reads_in_job: usize,
    level: usize,
    titles: usize,
    fresh: usize,
}

impl ServeStream {
    pub fn new(family: &SchemaFamily, seed: u64) -> Self {
        let original = &family.variants[0];
        let column = |relation: &str, pos: usize| -> Vec<Value> {
            let mut values: Vec<Value> = original
                .db
                .relation(relation)
                .expect("Original UW-CSE relation")
                .active_domain_at(pos)
                .into_iter()
                .collect();
            values.sort();
            values
        };
        let values = [
            ("inPhase", column("inPhase", 1)),
            ("yearsInProgram", column("yearsInProgram", 1)),
            ("hasPosition", column("hasPosition", 1)),
            ("courseLevel", column("courseLevel", 1)),
        ]
        .into_iter()
        .collect();
        let fold = cross_validation_folds(&original.task, FOLDS).swap_remove(0);
        ServeStream {
            // Decorrelate the stream from a generator seeded with the
            // same number.
            rng: Rng::new(seed ^ 0x5e77_e5ee_d0c0_ffee),
            values,
            students: column("student", 0),
            professors: column("professor", 0),
            positive: fold.train.positive,
            negative: fold.train.negative,
            taus: variant_taus(),
            params: LearnerParams::uwcse(),
            writes: Share::new(WRITE_SHARE),
            covered: Share::new(COVERED_SHARE),
            repeats: Share::new(REPEAT_SHARE),
            sent: vec![Vec::new(); VARIANTS.len()],
            inserted: VecDeque::new(),
            variant: 0,
            reads_in_job: 0,
            level: 0,
            titles: 0,
            fresh: 0,
        }
    }

    /// The next request group: one read, or one logical write as four
    /// `apply` requests (one per variant).
    pub fn next_group(&mut self) -> Vec<ServeOp> {
        if self.writes.take() {
            return self.write_group();
        }
        if self.reads_in_job == READS_PER_JOB {
            self.reads_in_job = 0;
            self.variant = (self.variant + 1) % VARIANTS.len();
        }
        self.reads_in_job += 1;
        let sent = &self.sent[self.variant];
        let beam = if self.repeats.take() && !sent.is_empty() {
            self.rng.pick(sent).clone()
        } else {
            let beam = self.fresh_beam();
            self.sent[self.variant].push(beam.clone());
            beam
        };
        let kind = if self.covered.take() {
            OpKind::Covered
        } else {
            OpKind::Score
        };
        let tau = &self.taus[self.variant];
        vec![ServeOp {
            kind,
            variant: self.variant,
            clauses: beam.iter().map(|c| into_variant(c, tau)).collect(),
            positive: self.positive.clone(),
            negative: self.negative.clone(),
            batch: MutationBatch::new(),
            verify: self.rng.chance(VERIFY_READS),
        }]
    }

    fn write_group(&mut self) -> Vec<ServeOp> {
        let mut batch = MutationBatch::new();
        if self.inserted.len() >= 4 && self.rng.chance(0.5) {
            let (title, stud, prof) = self.inserted.pop_front().expect("checked non-empty");
            batch = batch
                .remove("publication", Tuple::new(vec![title.clone(), stud]))
                .remove("publication", Tuple::new(vec![title, prof]));
        } else {
            let title = Value::str(format!("bench-pub-{}", self.titles));
            self.titles += 1;
            let stud = self.rng.pick(&self.students).clone();
            let prof = self.rng.pick(&self.professors).clone();
            batch = batch
                .insert("publication", Tuple::new(vec![title.clone(), stud.clone()]))
                .insert("publication", Tuple::new(vec![title.clone(), prof.clone()]));
            self.inserted.push_back((title, stud, prof));
        }
        let verify = self.rng.chance(VERIFY_WRITES);
        (0..VARIANTS.len())
            .map(|variant| ServeOp {
                kind: OpKind::Apply,
                variant,
                clauses: Vec::new(),
                positive: Vec::new(),
                negative: Vec::new(),
                batch: batch.clone(),
                verify,
            })
            .collect()
    }

    /// One refinement level of a beam search: at level 1 the head alone is
    /// extended; at level `l` each of the beam's parents, a linked chain
    /// of `l - 1` literals, is.
    fn fresh_beam(&mut self) -> Vec<Clause> {
        self.level = self.level % self.params.clause_length + 1;
        let parents = if self.level == 1 {
            1
        } else {
            self.params.beam_width
        };
        let mut beam = Vec::with_capacity(CLAUSES_PER_READ);
        for p in 0..parents {
            let mut vars = vec![("S".to_string(), Kind::Stud), ("P".to_string(), Kind::Prof)];
            let mut parent = Clause::new(Atom::vars("advisedBy", &["S", "P"]), Vec::new());
            for _ in 1..self.level {
                let literal = self.linked_literal(&mut vars);
                parent.push(literal);
            }
            // Spread the read's clauses over the parents.
            let children = (CLAUSES_PER_READ + p) / parents;
            for _ in 0..children {
                let mut child = parent.clone();
                let mut child_vars = vars.clone();
                let literal = self.linked_literal(&mut child_vars);
                child.push(literal);
                beam.push(child);
            }
        }
        beam
    }

    /// A literal sharing one variable with the clause so far; its other
    /// attributes get fresh variables, or a constant at a value position.
    fn linked_literal(&mut self, vars: &mut Vec<(String, Kind)>) -> Atom {
        loop {
            let (relation, kinds) = *self.rng.pick(&RELATIONS);
            let (anchor, anchor_kind) = self.rng.pick(vars).clone();
            let slots: Vec<usize> = (0..kinds.len())
                .filter(|&i| accepts(kinds[i], anchor_kind))
                .collect();
            if slots.is_empty() {
                continue;
            }
            let slot = *self.rng.pick(&slots);
            let mut terms = Vec::with_capacity(kinds.len());
            for (i, &kind) in kinds.iter().enumerate() {
                if i == slot {
                    terms.push(Term::var(anchor.clone()));
                } else if kind == Kind::Value {
                    terms.push(Term::constant(
                        self.rng.pick(&self.values[relation]).clone(),
                    ));
                } else {
                    self.fresh += 1;
                    let name = format!("V{}", self.fresh);
                    vars.push((name.clone(), kind));
                    terms.push(Term::var(name));
                }
            }
            return Atom::new(relation, terms);
        }
    }
}

/// FNV-1a, 64 bits: the digest inputs are compared by.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Field separator, so ("ab", "c") and ("a", "bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of a family: every variant's relations and tuples in order, and
/// its learning task.
pub fn family_digest(family: &SchemaFamily, digest: &mut Digest) {
    for variant in &family.variants {
        digest.write_str(&variant.name);
        for relation in variant.db.relations() {
            digest.write_str(relation.name());
            for tuple in relation.iter() {
                digest.write_str(&tuple.to_string());
            }
        }
        for example in variant.task.positive.iter().chain(&variant.task.negative) {
            digest.write_str(&example.to_string());
        }
    }
}

/// Digest of the first `groups` request groups of a stream.
pub fn stream_digest(stream: &mut ServeStream, groups: usize, digest: &mut Digest) {
    for _ in 0..groups {
        for op in stream.next_group() {
            digest.write_str(op.kind.name());
            digest.write_str(VARIANTS[op.variant]);
            for clause in &op.clauses {
                digest.write_str(&clause.to_string());
            }
            for example in op.positive.iter().chain(&op.negative) {
                digest.write_str(&example.to_string());
            }
            for mutation in op.batch.ops() {
                digest.write_str(&format!("{mutation:?}"));
            }
            digest.write(&[u8::from(op.verify)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn learn_family(seed: u64) -> SchemaFamily {
        let mut family = learn_department();
        rename_constants(&mut family, seed);
        family
    }

    fn learn_digest(seed: u64) -> String {
        let mut digest = Digest::default();
        family_digest(&learn_family(seed), &mut digest);
        digest.hex()
    }

    fn serve_digest(seed: u64) -> String {
        let family = enlarged_family();
        let mut digest = Digest::default();
        family_digest(&family, &mut digest);
        stream_digest(&mut ServeStream::new(&family, seed), 200, &mut digest);
        digest.hex()
    }

    #[test]
    fn same_seed_gives_identical_learn_inputs() {
        assert_eq!(learn_digest(11), learn_digest(11));
        assert_ne!(learn_digest(11), learn_digest(12));
    }

    #[test]
    fn same_seed_gives_identical_serve_inputs() {
        assert_eq!(serve_digest(11), serve_digest(11));
        assert_ne!(serve_digest(11), serve_digest(12));
    }

    #[test]
    fn renaming_keeps_the_learning_problem() {
        let plain = uwcse::generate(&UwCseConfig::default());
        let renamed = learn_family(3);
        for (a, b) in plain.variants.iter().zip(&renamed.variants) {
            assert_eq!(a.db.relation_sizes(), b.db.relation_sizes());
            assert_eq!(a.task.positive.len(), b.task.positive.len());
            assert_eq!(a.task.negative.len(), b.task.negative.len());
        }
    }

    #[test]
    fn stream_mixes_every_op_kind_over_every_variant() {
        let family = enlarged_family();
        let ops = |seed| {
            let mut stream = ServeStream::new(&family, seed);
            (0..400)
                .flat_map(|_| stream.next_group())
                .collect::<Vec<ServeOp>>()
        };
        let kinds = |ops: &[ServeOp]| ops.iter().map(|op| op.kind).collect::<Vec<_>>();
        let (ops, other) = (ops(5), ops(6));
        assert_eq!(
            kinds(&ops),
            kinds(&other),
            "the seed must not change the mix"
        );
        for kind in OpKind::ALL {
            assert!(ops.iter().any(|op| op.kind == kind), "{}", kind.name());
        }
        for variant in 0..VARIANTS.len() {
            assert!(ops.iter().any(|op| op.variant == variant));
        }
        let beams: std::collections::BTreeSet<String> = ops
            .iter()
            .filter(|op| op.kind != OpKind::Apply)
            .map(|op| format!("{:?}", op.clauses))
            .collect();
        assert!(beams.len() > 100, "beams must be mostly distinct");
    }
}
