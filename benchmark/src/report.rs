//! Results: the run record, order statistics, process and server
//! readings, and the output lines.

use castor_engine::EngineReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations the workload submitted (learn, evaluation and serving
    /// jobs).
    pub attempted: u64,
    /// Submitted operations that returned an error, were refused or
    /// missed a deadline.
    pub failed: u64,
    /// Failed correctness checks; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// Detail lines (JSON objects) printed before the result.
    pub details: Vec<String>,
    /// Digest of the generated inputs.
    pub input_digest: String,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.metrics.entry(name).or_insert(0.0) += value;
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let message = what();
            eprintln!("check failed: {message}");
            self.violations.push(message);
        }
    }

    /// The output: the run record, the details, then the result line with
    /// every metric of `specs`. A per-layer metric of a layer the workload
    /// never calls reads 0; an end-to-end metric must have been measured.
    pub fn render(&self, record: &Record, specs: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"record\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"nproc\": {}, \"commit\": \"{}\", \"source_digest\": \"{}\", \"profile\": \"{}\", \
             \"input_digest\": \"{}\", \"failed_frac\": {}, \"violations\": {}}}}}",
            record.workload,
            record.seed,
            record.seconds,
            u8::from(record.trace),
            record.nproc,
            record.commit,
            record.source_digest,
            record.profile,
            self.input_digest,
            json_number(self.failed as f64 / self.attempted.max(1) as f64),
            self.violations.len(),
        );
        for line in &self.details {
            let _ = writeln!(out, "{line}");
        }
        let mut metrics = String::new();
        for (i, (name, unit)) in specs.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(value) => *value,
                None if record.trace => 0.0,
                None => panic!("workload did not measure end-to-end metric {name}"),
            };
            let _ = write!(
                metrics,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " },
                json_number(value)
            );
        }
        let correct = self.violations.is_empty() && self.attempted > 0;
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed,
        );
        out
    }
}

/// A finite JSON number with all its digits.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".into()
    }
}

/// What every result is recorded with.
#[derive(Debug)]
pub struct Record {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    nproc: usize,
    commit: String,
    source_digest: String,
    profile: &'static str,
}

impl Record {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        Record {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            nproc: nproc(),
            commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
            source_digest: source_digest(Path::new(".")),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        }
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from the repository's files without
/// running git (a source checkout without `.git` has none).
fn git_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|line| line.strip_suffix(reference)?.strip_suffix(' '))
        .map(str::to_string)
}

/// Digest of the program's sources and manifests (`crates/`, `vendor/`,
/// `benchmark/src/`, the root manifests): identifies the code measured
/// when there is no commit to read.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml" | "lock")
            ) {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "vendor", "benchmark/src"] {
        walk(&root.join(dir), &mut files);
    }
    files.sort();
    let mut digest = crate::inputs::Digest::default();
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            digest.write_str(&file.to_string_lossy());
            digest.write(&bytes);
        }
    }
    digest.hex()
}

/// A field of `/proc/self/status` (`VmHWM` in kB, `Threads`), or 0 where
/// there is none.
fn proc_status(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status
                .lines()
                .find(|l| l.split(':').next() == Some(field))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM") / 1024.0
}

/// Threads of this process.
pub fn thread_count() -> usize {
    proc_status("Threads") as usize
}

/// Set-ups timed per run (the median is reported).
pub const SETUP_REPEATS: usize = 32;

/// Times `SETUP_REPEATS` set-ups back to back after one untimed warm-up,
/// each after the previous one is dropped and its threads have exited
/// (the process is back to `threads` threads, waiting at most 1 s): a
/// dropped server's runner threads free its engines on their way out, and
/// that must not overlap the next timing. All set-ups run in one state of
/// the process: timed before and after the measured work, the learn
/// workloads' set-ups fell into two clusters (4.7 and 2.8 ms) and the
/// median of 16 landed between them.
pub fn time_set_ups<T>(threads: usize, mut set_up: impl FnMut() -> (T, Duration)) -> Vec<f64> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for i in 0..=SETUP_REPEATS {
        let waited = Instant::now();
        while thread_count() > threads && waited.elapsed() < Duration::from_secs(1) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (built, elapsed) = set_up();
        drop(built);
        if i > 0 {
            times.push(secs(elapsed));
        }
    }
    times
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0..=1) of a non-empty sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sum of one field (`sum` or `count`) over every series of a histogram in
/// a Prometheus-text exposition (all label sets).
fn histogram_total(exposition: &str, name: &str, field: &str) -> f64 {
    let prefix = format!("{name}_{field}");
    exposition
        .lines()
        .filter(|line| {
            line.strip_prefix(&prefix)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Sum, in seconds, of every series of a nanosecond histogram.
pub fn histogram_sum_s(exposition: &str, name: &str) -> f64 {
    histogram_total(exposition, name, "sum") / 1e9
}

/// Observations recorded by every series of a histogram.
pub fn histogram_count(exposition: &str, name: &str) -> f64 {
    histogram_total(exposition, name, "count")
}

/// The `engine.*` per-layer metrics of an engine report.
pub fn engine_metrics(r: &EngineReport, out: &mut Outcome) {
    out.set("engine.coverage_tests", r.coverage_tests as f64);
    out.set(
        "engine.cache_hit_frac",
        frac(r.cache_hits, r.cache_hits + r.cache_misses),
    );
    // Single-clause plans and batch tries alike.
    let compiled = r.plans_compiled + r.batch_plans_compiled;
    let reused = r.plan_cache_hits + r.batch_plan_cache_hits;
    out.set("engine.plans_compiled", compiled as f64);
    out.set(
        "engine.plan_cache_hit_frac",
        frac(reused, reused + compiled),
    );
    out.set("engine.plans_recosted", r.plans_recosted as f64);
    out.set("engine.batch_prefix_hits", r.batch_prefix_hits as f64);
    out.set("engine.budget_exhausted", r.budget_exhausted as f64);
    out.set(
        "engine.cache_clauses_invalidated",
        r.cache_clauses_invalidated as f64,
    );
    out.set(
        "engine.plans_invalidated",
        (r.plans_invalidated + r.batch_plans_invalidated) as f64,
    );
}

/// `part / whole`, or 0 for an empty whole.
pub fn frac(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sample: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.5), 500.0);
        assert_eq!(percentile(&sample, 0.99), 990.0);
    }

    #[test]
    fn histogram_sums_cover_every_label_set() {
        let text =
            "# TYPE x_ns histogram\nx_ns_bucket{le=\"1\"} 3\nx_ns_sum{phase=\"read\"} 1500000000\n\
                    x_ns_sum{phase=\"flush\"} 500000000\nx_ns_count{phase=\"read\"} 2\n\
                    x_ns_count{phase=\"flush\"} 1\nx_ns_summary 7\n";
        assert_eq!(histogram_sum_s(text, "x_ns"), 2.0);
        assert_eq!(histogram_count(text, "x_ns"), 3.0);
    }
}
