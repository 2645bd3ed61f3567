//! Machine-readable Figure 2 benchmark: thread sweep over parallel
//! ground-bottom-clause construction (the phase that dominated runtime at
//! reduced synthetic scales and kept the original Figure 2 sweep flat).
//! One untimed warm-up pass runs every thread count first; the measured
//! rounds then interleave the thread counts round-robin (each round
//! starting one count later), so host drift spreads over every point
//! instead of landing on whichever count ran last. Writes the results —
//! host core count, best-of-N time and min/max spread per point — to
//! `BENCH_fig2.json` in the current directory, the artifact CI or a
//! tracking dashboard diffs across commits.
//!
//! Run with: `cargo run --release -p castor-bench --bin bench_fig2`

use castor_core::{ground_bottom_clauses, BottomClausePlan, CastorConfig};
use castor_datasets::uwcse::{self, UwCseConfig};
use castor_engine::WorkerPool;
use castor_relational::Tuple;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MEASUREMENTS: usize = 5;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    // Enlarged UW-CSE so one sequential pass costs real time; every sweep
    // point saturates the same deduplicated example list.
    let family = uwcse::generate(&UwCseConfig {
        students: 400,
        professors: 60,
        courses: 120,
        ..Default::default()
    });
    let variant = family.variant("Original").expect("family has Original");
    let plan = BottomClausePlan::compile(variant.db.schema(), false);
    let config = CastorConfig::uwcse();
    let examples: Vec<Tuple> = variant
        .task
        .positive
        .iter()
        .chain(variant.task.negative.iter())
        .cloned()
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let pools: Vec<Arc<WorkerPool>> = THREADS
        .iter()
        .map(|&t| Arc::new(WorkerPool::new(t)))
        .collect();
    let run = |pool: &Arc<WorkerPool>| {
        let start = Instant::now();
        let ground =
            ground_bottom_clauses(&variant.db, &plan, "advisedBy", &examples, &config, pool);
        assert!(!ground.is_empty());
        start.elapsed()
    };

    for pool in &pools {
        run(pool);
    }
    let mut times: Vec<Vec<Duration>> = vec![Vec::with_capacity(MEASUREMENTS); THREADS.len()];
    for round in 0..MEASUREMENTS {
        for k in 0..THREADS.len() {
            let i = (round + k) % THREADS.len();
            times[i].push(run(&pools[i]));
        }
    }

    let mut sweep_json = String::new();
    let baseline = *times[0].iter().min().unwrap();
    for (i, &t) in THREADS.iter().enumerate() {
        let min = *times[i].iter().min().unwrap();
        let max = *times[i].iter().max().unwrap();
        let speedup = baseline.as_secs_f64() / min.as_secs_f64().max(1e-9);
        let spread = (max.as_secs_f64() - min.as_secs_f64()) / min.as_secs_f64().max(1e-9);
        let _ = write!(
            sweep_json,
            "{}    {{ \"threads\": {t}, \"ns_min\": {}, \"ns_max\": {}, \
             \"spread\": {spread:.3}, \"speedup_over_1\": {speedup:.3} }}",
            if i == 0 { "" } else { ",\n" },
            min.as_nanos(),
            max.as_nanos(),
        );
        eprintln!("bottom clauses @ {t} threads: {min:?} best, {max:?} worst ({speedup:.2}x)");
    }

    let json = format!(
        "{{\n  \"bench\": \"fig2\",\n  \"nproc\": {nproc},\n  \"bottom_clause_sweep\": {{\n    \
         \"examples\": {},\n    \"warmup_passes\": 1,\n    \"measurements\": {MEASUREMENTS},\n    \
         \"order\": \"round-robin\",\n    \"points\": [\n{sweep_json}\n    ]\n  }}\n}}\n",
        examples.len(),
    );
    std::fs::write("BENCH_fig2.json", &json).expect("write BENCH_fig2.json");
    print!("{json}");
}
