//! The Castor benchmark: learning time, answer quality and serving latency
//! on seeded UW-CSE workloads, with a traced run that splits the time
//! across the crates (layers) it calls.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload uwcse-castor --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`; the
//! lines before it record the run (seed, `nproc`, commit, build profile,
//! input digest) and its details. See `README.md` for the metrics.

mod inputs;
mod learn;
mod replay;
mod report;
mod serve;

use report::{Outcome, Record};
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`): `(name, unit)`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("work_s", "s"),
    ("precision", "ratio"),
    ("recall", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): `(name, unit)`. A layer the workload
/// never calls reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("core.saturation_s", "s"),
    ("core.bottom_clause_s", "s"),
    ("logic.minimize_s", "s"),
    ("logic.minimize_removed_frac", "ratio"),
    ("core.armg_s", "s"),
    ("core.armg_calls", "count"),
    ("core.armg_kept_frac", "ratio"),
    ("core.coverage_s", "s"),
    ("core.coverage_tests", "count"),
    ("core.coverage_cache_hit_frac", "ratio"),
    ("core.coverage_budget_exhausted", "count"),
    ("core.reduction_s", "s"),
    ("core.learner_self_s", "s"),
    ("core.saturation_1w_s", "s"),
    ("core.saturation_nw_s", "s"),
    ("core.saturation_speedup", "ratio"),
    ("engine.coverage_tests", "count"),
    ("engine.cache_hit_frac", "ratio"),
    ("engine.plans_compiled", "count"),
    ("engine.plan_cache_hit_frac", "ratio"),
    ("engine.plans_recosted", "count"),
    ("engine.batch_prefix_hits", "count"),
    ("engine.budget_exhausted", "count"),
    ("engine.cache_clauses_invalidated", "count"),
    ("engine.plans_invalidated", "count"),
    ("engine.direct_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.job_run_s", "s"),
    ("service.session_s", "s"),
    ("rpc.wire_s", "s"),
    ("rpc.loop_phase_s", "s"),
    ("rpc.response_bytes", "bytes"),
    ("serve.score_p50_ms", "ms"),
    ("serve.score_p99_ms", "ms"),
    ("serve.covered_p50_ms", "ms"),
    ("serve.covered_p99_ms", "ms"),
    ("serve.apply_p50_ms", "ms"),
    ("serve.apply_p99_ms", "ms"),
    ("serve.ops_per_s", "1/s"),
    ("eval.variant.Original.learn_s", "s"),
    ("eval.variant.4NF.learn_s", "s"),
    ("eval.variant.Denormalized-1.learn_s", "s"),
    ("eval.variant.Denormalized-2.learn_s", "s"),
    ("eval.evaluate_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// The workloads, with the layers each one is for.
pub const WORKLOADS: [&str; 3] = ["uwcse-castor", "uwcse-progol", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload: String = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("castor-benchmark: {message}");
            eprintln!(
                "usage: castor-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = match args.workload.as_str() {
        "uwcse-castor" => learn::run(learn::Learner::Castor, args.seed, args.seconds, args.trace),
        "uwcse-progol" => learn::run(learn::Learner::Progol, args.seed, args.seconds, args.trace),
        "serve-mixed" => serve::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload names are checked by parse_args"),
    };
    let record = Record::new(&args.workload, args.seed, args.seconds, args.trace);
    let specs: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    print!("{}", outcome.render(&record, specs));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must name exactly the metrics and workloads this
    /// program emits.
    #[test]
    fn benchmark_json_lists_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        let mut expected: Vec<&str> = WORKLOADS.to_vec();
        expected.extend(END_TO_END.iter().map(|(name, _)| *name));
        expected.extend(PER_LAYER.iter().map(|(name, _)| *name));
        assert_eq!(names, expected);
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry}");
        }
    }
}
