//! Quickstart: learn a Horn definition with Castor on a tiny database.
//!
//! Run with `cargo run --example quickstart`.

use castor_core::{Castor, CastorConfig};
use castor_learners::LearningTask;
use castor_relational::{DatabaseInstance, RelationSymbol, Schema, Tuple};

fn main() {
    // 1. Declare a schema and load a small database: who co-authored what.
    let mut schema = Schema::new("quickstart");
    schema.add_relation(RelationSymbol::new("publication", &["title", "person"]));
    schema.add_relation(RelationSymbol::new("professor", &["prof"]));
    let mut db = DatabaseInstance::empty(&schema);
    for (title, person) in [
        ("p1", "ann"),
        ("p1", "bob"),
        ("p2", "carol"),
        ("p2", "dan"),
        ("p3", "eve"),
        ("p4", "ann"),
    ] {
        db.insert("publication", Tuple::from_strs(&[title, person]))
            .unwrap();
    }
    for prof in ["bob", "dan"] {
        db.insert("professor", Tuple::from_strs(&[prof])).unwrap();
    }

    // 2. Describe the learning task: advisedBy(student, professor).
    let task = LearningTask::new(
        "advisedBy",
        2,
        vec![
            Tuple::from_strs(&["ann", "bob"]),
            Tuple::from_strs(&["carol", "dan"]),
        ],
        vec![
            Tuple::from_strs(&["ann", "dan"]),
            Tuple::from_strs(&["eve", "bob"]),
            Tuple::from_strs(&["carol", "bob"]),
        ],
    );

    // 3. Learn with Castor.
    let mut castor = Castor::new(CastorConfig::default());
    let outcome = castor.learn(&db, &task);

    println!("Learned definition for advisedBy:\n{}", outcome.definition);
    println!(
        "\n({} coverage tests, {:.1} ms; minimization: {} tests, {} out of budget)",
        outcome.coverage_tests,
        outcome.elapsed.as_secs_f64() * 1000.0,
        outcome.minimization_tests,
        outcome.minimization_exhausted
    );
}
