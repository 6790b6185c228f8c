//! The benchmark's parent process: set-up, the timed loop of jobs,
//! correctness checks, metrics, and the trace file.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::child::{fnv, run_job, JobOutput, Kind, TASK_FAMILIES};
use crate::metrics::{median, percentile, result_line, tail_percentile, Metric};
use crate::spans::{chrome_trace, covered_us, Recorder, Span};
use crate::workload::{write_input, Input, Workload};

/// Untraced runs repeat set-up at least `SETUP_REPS` times, and more
/// (up to `SETUP_MAX_REPS`) until `SETUP_MIN_S` have passed, so that a
/// sub-second set-up is sampled across more than one moment of a noisy
/// host. `setup_s` is the median.
pub const SETUP_REPS: usize = 3;
/// See [`SETUP_REPS`].
pub const SETUP_MAX_REPS: usize = 9;
/// See [`SETUP_REPS`].
pub const SETUP_MIN_S: f64 = 2.0;
/// Fewest timed iterations per run, so every run can compare two. More
/// would not fit: hotel's iterations take ≈10 s, and a check makes 22
/// runs per workload within one time budget.
pub const MIN_ITERATIONS: usize = 2;
/// Least share of a report iteration's file→HTML wall time that its
/// `load`, `create_report` and `render` spans must cover. (A session's
/// gaps between calls are the benchmark's own bookkeeping; its coverage
/// is reported, not checked.)
pub const MIN_SPAN_COVERAGE: f64 = 0.95;

/// Parsed command line of a benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated input.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Whether to make the traced run and print per-layer metrics.
    pub trace: bool,
    /// Row multiplier (1.0 = the real workload).
    pub scale: f64,
    /// Where inputs and the trace file go.
    pub work_dir: PathBuf,
}

const USAGE: &str =
    "usage: eda-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
                     [--scale <f>] [--work-dir <dir>]";

/// Parse `--key value` pairs.
fn flags(args: &[String]) -> Result<BTreeMap<&str, &str>, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key}"))?;
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        map.insert(name, value.as_str());
    }
    Ok(map)
}

fn required<'a>(map: &BTreeMap<&str, &'a str>, key: &str) -> Result<&'a str, String> {
    map.get(key)
        .copied()
        .ok_or_else(|| format!("missing --{key}\n{USAGE}"))
}

fn workload_arg(map: &BTreeMap<&str, &str>) -> Result<Workload, String> {
    let name = required(map, "workload")?;
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

/// Parse a benchmark run's arguments.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let map = flags(args)?;
    let number = |key: &str| -> Result<f64, String> {
        let raw = required(&map, key)?;
        raw.parse::<f64>()
            .map_err(|_| format!("--{key} {raw}: not a number"))
    };
    let args = Args {
        workload: workload_arg(&map)?,
        seed: required(&map, "seed")?
            .parse()
            .map_err(|_| "--seed: not an integer".to_string())?,
        seconds: number("seconds")?,
        trace: match required(&map, "trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other}: expected 0 or 1")),
        },
        scale: map
            .get("scale")
            .map_or(Ok(1.0), |s| s.parse().map_err(|_| "--scale: not a number"))?,
        work_dir: PathBuf::from(map.get("work-dir").copied().unwrap_or(".bench_work")),
    };
    if !(args.seconds >= 0.0 && args.scale > 0.0) {
        return Err("--seconds must be ≥ 0 and --scale > 0".into());
    }
    Ok(args)
}

/// Entry point: `job <kind> ...` runs one job; anything else is a
/// benchmark run. Returns the exit code.
pub fn main(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some("job") {
        return match job_main(&args[1..]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("eda-e2e-bench job: {e}");
                2
            }
        };
    }
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eda-e2e-bench: {e}");
            return 2;
        }
    };
    match run(&args) {
        Ok(result) => {
            for m in &result.metrics {
                eprintln!("{:<32} {:>16.4} {}", m.name, m.value, m.unit);
            }
            for f in &result.failures {
                eprintln!("CHECK FAILED: {f}");
            }
            println!(
                "{}",
                result_line(
                    result.failures.is_empty(),
                    result.attempted,
                    result.failed,
                    &result.metrics
                )
            );
            i32::from(!result.failures.is_empty())
        }
        Err(e) => {
            eprintln!("eda-e2e-bench: {e}");
            1
        }
    }
}

fn job_main(args: &[String]) -> Result<(), String> {
    let (kind, rest) = args.split_first().ok_or("missing job kind")?;
    let kind = Kind::parse(kind).ok_or_else(|| format!("unknown job kind {kind}"))?;
    let map = flags(rest)?;
    let number = |key: &str| -> Result<u64, String> {
        required(&map, key)?
            .parse()
            .map_err(|_| format!("--{key}: not an integer"))
    };
    let out = run_job(
        kind,
        workload_arg(&map)?,
        Path::new(required(&map, "input")?),
        u32::try_from(number("pid")?).map_err(|e| e.to_string())?,
        number("parent")?,
    );
    print!("{}", out.text());
    Ok(())
}

/// Everything a run reports.
#[derive(Debug)]
pub struct RunResult {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// EDA calls attempted across every job of the run.
    pub attempted: usize,
    /// Calls that returned `Err` or had a failed section.
    pub failed: usize,
    /// Failed correctness checks; empty when the run is correct.
    pub failures: Vec<String>,
}

/// Runs jobs as child processes, one at a time.
struct Jobs<'a> {
    workload: Workload,
    input: &'a Path,
    next_pid: u32,
    spans: Vec<Span>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Jobs<'_> {
    /// Run one job to completion under span `parent`.
    fn run(&mut self, kind: Kind, parent: u64) -> Result<JobOutput, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
        let pid = self.next_pid;
        self.next_pid += 1;
        let output = Command::new(exe)
            .args(["job", kind.name(), "--workload", self.workload.name()])
            .arg("--input")
            .arg(self.input)
            .args(["--pid", &pid.to_string(), "--parent", &parent.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting {} job: {e}", kind.name()))?;
        if !output.status.success() {
            return Err(format!("{} job failed: {}", kind.name(), output.status));
        }
        let out = JobOutput::parse(&String::from_utf8_lossy(&output.stdout))?;
        self.spans.extend(out.spans.iter().cloned());
        self.attempted += out.counter("calls_attempted");
        self.failed += out.counter("calls_failed");
        self.failures.extend(
            out.failures
                .iter()
                .map(|f| format!("{} job: {f}", kind.name())),
        );
        Ok(out)
    }
}

/// Median of every job's values under `name`.
fn med(jobs: &[JobOutput], name: &str) -> f64 {
    let values: Vec<f64> = jobs
        .iter()
        .flat_map(|j| j.values.get(name).cloned().unwrap_or_default())
        .collect();
    median(&values)
}

/// Every hash recorded under `name` across `jobs`.
fn hashes<'a>(jobs: &'a [JobOutput], name: &str) -> Vec<&'a String> {
    jobs.iter()
        .flat_map(|j| j.hashes.get(name).into_iter().flatten())
        .collect()
}

/// Each call's median latency across the iterations. Every iteration
/// makes the same calls in the same order, so percentiles over these
/// land on the same calls run after run, and one disturbed iteration
/// cannot move them.
fn per_call_medians(iters: &[JobOutput]) -> Vec<f64> {
    let n = iters.iter().map(|j| j.calls.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| median(&iters.iter().map(|j| j.calls[i]).collect::<Vec<_>>()))
        .collect()
}

/// Share of an iteration span's wall time covered by its direct
/// children (`load`, `create_report`, `render`, or the session calls).
fn span_coverage(job: &JobOutput) -> f64 {
    let Some(it) = job.spans.iter().find(|s| s.name == "iteration") else {
        return 0.0;
    };
    let children: Vec<&Span> = job.spans.iter().filter(|s| s.parent == it.id).collect();
    covered_us(&children) / it.dur_us.max(f64::MIN_POSITIVE)
}

/// Run the benchmark once.
pub fn run(a: &Args) -> Result<RunResult, String> {
    let w = a.workload;
    let dir = a.work_dir.join(w.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let run_id = fnv(format!("{}:{}:{now}", w.name(), a.seed).as_bytes());
    let mut rec = Recorder::new(0);
    let root = rec.open(format!("run:{}", w.name()), 0);
    let input_path = w.input_path(&dir);
    let mut jobs = Jobs {
        workload: w,
        input: &input_path,
        next_pid: 1,
        spans: Vec::new(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };

    // ---- set-up: write the input, several times when timing it ---------
    let (min_reps, max_reps) = if a.trace {
        (1, 1)
    } else {
        (SETUP_REPS, SETUP_MAX_REPS)
    };
    let mut setup_s: Vec<f64> = Vec::new();
    let mut inputs: Vec<Input> = Vec::new();
    while setup_s.len() < min_reps
        || (setup_s.len() < max_reps && setup_s.iter().sum::<f64>() < SETUP_MIN_S)
    {
        let s = rec.open("setup", root.id);
        let sid = s.id;
        inputs.push(write_input(w, a.seed, a.scale, &dir, &mut rec, sid)?);
        setup_s.push(rec.close(s));
    }
    let input = inputs[0].clone();
    if inputs.iter().any(|i| *i != input) {
        jobs.failures
            .push("set-up wrote different inputs for the same seed".into());
    }
    // The session's warm report is checked against one cold report of
    // the same file, computed with the cache off.
    let cold_ref = if w.is_session() {
        Some(jobs.run(Kind::ColdRef, root.id)?)
    } else {
        None
    };

    // ---- timed loop -------------------------------------------------------
    let measure = rec.open("measure", root.id);
    let started = Instant::now();
    let mut iters: Vec<JobOutput> = Vec::new();
    while iters.len() < MIN_ITERATIONS || started.elapsed().as_secs_f64() < a.seconds {
        iters.push(jobs.run(Kind::Iter, measure.id)?);
    }
    rec.close(measure);
    let warm = if !a.trace && !w.is_session() {
        Some(jobs.run(Kind::Warm, root.id)?)
    } else {
        None
    };
    let traced = if a.trace {
        Some(jobs.run(Kind::Traced, root.id)?)
    } else {
        None
    };
    rec.close(root);

    // ---- correctness ------------------------------------------------------
    let mut failures = std::mem::take(&mut jobs.failures);
    let first = &iters[0];
    for (i, it) in iters.iter().enumerate() {
        if it.counter("tasks_failed") != 0 {
            failures.push(format!(
                "iteration {i}: {} tasks failed",
                it.counter("tasks_failed")
            ));
        }
        if it.counters != first.counters {
            failures.push(format!(
                "iteration {i}: counters differ from iteration 0: {:?} vs {:?}",
                it.counters, first.counters
            ));
        }
        let differing: Vec<&String> = it
            .hashes
            .keys()
            .filter(|k| it.hashes.get(*k) != first.hashes.get(*k))
            .collect();
        if !differing.is_empty() || it.hashes.len() != first.hashes.len() {
            failures.push(format!(
                "iteration {i}: HTML differs from iteration 0 in {differing:?}"
            ));
        }
        let coverage = span_coverage(it);
        if !w.is_session() && coverage < MIN_SPAN_COVERAGE {
            failures.push(format!(
                "iteration {i}: named spans cover only {:.1}%",
                coverage * 100.0
            ));
        }
    }
    if first.counter("loaded_fingerprint") != input.fingerprint {
        failures.push(format!(
            "loaded frame fingerprint {:016x} differs from the generated frame's {:016x}",
            first.counter("loaded_fingerprint"),
            input.fingerprint
        ));
    }
    // The cache-off report every cached one must match: the session's
    // cold reference, or the report iterations (already equal).
    let cold_jobs = match &cold_ref {
        Some(c) => std::slice::from_ref(c),
        None => &iters[..],
    };
    let cold_html = hashes(cold_jobs, "html").first().copied();
    let cache_jobs: Vec<&JobOutput> = if w.is_session() {
        iters.iter().chain(&traced).collect()
    } else {
        warm.iter().collect()
    };
    for job in &cache_jobs {
        if job.counter("warm_cache_misses") != 0 {
            failures.push(format!(
                "warm create_report missed the cache {} times",
                job.counter("warm_cache_misses")
            ));
        }
        for name in ["warm_report_html", "fill_html"] {
            for h in job.hashes.get(name).into_iter().flatten() {
                if Some(h) != cold_html {
                    failures.push(format!("{name} differs from the cold report's HTML"));
                }
            }
        }
    }
    if let Some(t) = &traced {
        if !w.is_session() && t.hashes.get("html") != first.hashes.get("html") {
            failures.push("profiled report's HTML differs from the unprofiled one".into());
        }
        for key in [
            "tasks_run",
            "total_nodes",
            "live_nodes",
            "cse_hits",
            "insights",
        ] {
            if t.counter(key) != first.counter(key) {
                failures.push(format!(
                    "profiled run's {key} {} differs from the unprofiled {}",
                    t.counter(key),
                    first.counter(key)
                ));
            }
        }
    }

    // ---- metrics ----------------------------------------------------------
    let calls = per_call_medians(&iters);
    let iteration_s = med(&iters, "iteration_s");
    let report_s = cold_ref
        .as_ref()
        .map_or(iteration_s, |c| c.value("iteration_s"));
    let warm_s = if w.is_session() {
        med(&iters, "warm_report_s")
    } else {
        med(warm.as_slice(), "warm_report_s")
    };
    let mut metrics = Vec::new();
    if !a.trace {
        metrics.extend([
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("report_s", report_s, "s"),
            Metric::new(
                "report_mcells_per_s",
                (input.rows * input.cols) as f64 / 1e6 / report_s,
                "Mcells/s",
            ),
            Metric::new("session_s", iteration_s, "s"),
            Metric::new("call_p50_ms", percentile(&calls, 50.0) * 1e3, "ms"),
            Metric::new("call_p90_ms", percentile(&calls, 90.0) * 1e3, "ms"),
            Metric::new("warm_report_ms", warm_s * 1e3, "ms"),
            Metric::new("peak_rss_mb", med(&iters, "peak_rss_bytes") / 1e6, "MB"),
        ]);
    } else {
        let t = traced.as_ref().expect("traced run");
        let load_s = med(&iters, "load_s");
        let core_s = med(&iters, "core_s");
        let outside: Vec<f64> = iters
            .iter()
            .map(|j| j.value("core_s") - j.value("exec_s"))
            .collect();
        let count = |name: &str| first.counter(name) as f64;
        let (hits, misses) = (count("cache_hits"), count("cache_misses"));
        let coverage: Vec<f64> = iters.iter().map(span_coverage).collect();
        let tail = tail_percentile(calls.len());
        metrics.extend([
            Metric::new("io.load_ms", load_s * 1e3, "ms"),
            Metric::new("io.mb_per_s", input.bytes as f64 / 1e6 / load_s, "MB/s"),
            Metric::new("io.input_bytes", input.bytes as f64, "bytes"),
            Metric::new("taskgraph.exec_ms", med(&iters, "exec_s") * 1e3, "ms"),
        ]);
        for name in [
            "tasks_run",
            "total_nodes",
            "live_nodes",
            "cse_hits",
            "tasks_failed",
            "tasks_retried",
            "cache_hits",
            "cache_misses",
            "cache_bytes_saved",
        ] {
            metrics.push(Metric::new(
                format!("taskgraph.{name}"),
                count(name),
                "count",
            ));
        }
        metrics.extend([
            Metric::new(
                "taskgraph.cache_hit_ratio",
                if hits + misses > 0.0 {
                    hits / (hits + misses)
                } else {
                    0.0
                },
                "ratio",
            ),
            Metric::new(
                "taskgraph.critical_path_ms",
                t.value("trace.critical_path_s") * 1e3,
                "ms",
            ),
            Metric::new(
                "taskgraph.worker_util_min",
                t.value("trace.worker_util_min"),
                "ratio",
            ),
            Metric::new(
                "taskgraph.worker_util_mean",
                t.value("trace.worker_util_mean"),
                "ratio",
            ),
            Metric::new(
                "taskgraph.queue_wait_ms",
                t.value("trace.queue_wait_s") * 1e3,
                "ms",
            ),
            Metric::new("core.report_ms", core_s * 1e3, "ms"),
            Metric::new("core.outside_graph_ms", median(&outside) * 1e3, "ms"),
            Metric::new(
                "core.outside_graph_share",
                median(&outside) / core_s,
                "ratio",
            ),
            Metric::new("core.insights", count("insights"), "count"),
        ]);
        for key in ["kendall", "pearson", "spearman"] {
            metrics.push(Metric::new(
                format!("stats.corr_{key}_ms"),
                t.value(&format!("stats.corr_{key}_s")) * 1e3,
                "ms",
            ));
        }
        for key in ["nullity_corr", "dendrogram", "spectrum"] {
            metrics.push(Metric::new(
                format!("stats.{key}_ms"),
                t.value(&format!("stats.{key}_s")) * 1e3,
                "ms",
            ));
        }
        metrics.extend([
            Metric::new("render.html_ms", med(&iters, "render_s") * 1e3, "ms"),
            Metric::new("render.html_bytes", med(&iters, "html_bytes"), "bytes"),
        ]);
        for f in TASK_FAMILIES {
            metrics.push(Metric::new(
                format!("task.{f}.busy_ms"),
                t.value(&format!("trace.busy.{f}")) * 1e3,
                "ms",
            ));
        }
        metrics.extend([
            Metric::new(
                "task.corr_matrix.max_ms",
                t.value("trace.corr_matrix_max_s") * 1e3,
                "ms",
            ),
            Metric::new(
                "trace.overhead_pct",
                (t.value("iteration_s") / iteration_s - 1.0) * 100.0,
                "%",
            ),
            Metric::new("trace.span_coverage_pct", median(&coverage) * 100.0, "%"),
            Metric::new("samples.iterations", iters.len() as f64, "count"),
            Metric::new("samples.calls", calls.len() as f64, "count"),
            Metric::new("call_tail_pct", tail.unwrap_or(0.0), "%"),
            Metric::new(
                "call_tail_ms",
                tail.map_or(0.0, |p| percentile(&calls, p) * 1e3),
                "ms",
            ),
            Metric::new(
                "error_rate",
                jobs.failed as f64 / jobs.attempted.max(1) as f64,
                "ratio",
            ),
        ]);
    }

    // ---- trace file -------------------------------------------------------
    let mut spans = rec.spans;
    spans.extend(jobs.spans);
    spans.sort_by(|x, y| x.start_us.total_cmp(&y.start_us));
    let trace_path = dir.join("trace.json");
    std::fs::write(&trace_path, chrome_trace(&spans, run_id))
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    std::fs::remove_file(&input_path).ok();

    Ok(RunResult {
        metrics,
        attempted: jobs.attempted as usize,
        failed: jobs.failed as usize,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&strings(
            "--workload session-conflicts --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::SessionConflicts);
        assert_eq!((a.seed, a.seconds, a.trace, a.scale), (7, 10.0, true, 1.0));
        assert_eq!(a.work_dir, PathBuf::from(".bench_work"));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload report-hotel-csv --seed 1 --seconds 1 --trace 2",
            "--workload report-hotel-csv --seed x --seconds 1 --trace 0",
            "--workload report-hotel-csv --seed 1 --trace 0",
            "--workload report-hotel-csv --seed 1 --seconds 1 --trace",
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad}");
        }
    }
}
