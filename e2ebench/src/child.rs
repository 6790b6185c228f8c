//! Jobs: each runs in a process of its own, so every session starts
//! from an empty process-wide result cache and the peak RSS read at the
//! end belongs to that job alone.
//!
//! A job prints its results to standard output, one record per line:
//!
//! | line | meaning |
//! |------|---------|
//! | `v <name> <f64>` | a measured value (seconds, bytes) |
//! | `c <name> <u64>` | a deterministic counter, equal across iterations |
//! | `h <name> <hex>` | a hash of an output, equal across iterations |
//! | `t <seconds>` | one call's latency |
//! | `s <span>` | a span ([`Span::to_line`]) |
//! | `x <message>` | a failed call or check |

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use eda_core::{create_report, load_data, Config, Report, SemanticType};
use eda_dataframe::DataFrame;
use eda_stats::corr::{CorrMatrix, CorrMethod};
use eda_taskgraph::{ExecStats, RunTrace};

use crate::spans::{Recorder, Span, TASK_TID_BASE};
use crate::workload::{session_calls, Call, Workload};

/// What a job does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One timed iteration of the workload, untraced.
    Iter,
    /// Report workloads: fill the result cache with one report, then
    /// time reports served from it.
    Warm,
    /// One cold file→HTML report with the cache off: the reference the
    /// session's cached report must match.
    ColdRef,
    /// One iteration with `engine.profile=true`, then direct timings of
    /// the stats layer on the loaded frame.
    Traced,
}

impl Kind {
    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Iter => "iter",
            Kind::Warm => "warm",
            Kind::ColdRef => "coldref",
            Kind::Traced => "traced",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Kind> {
        [Kind::Iter, Kind::Warm, Kind::ColdRef, Kind::Traced]
            .into_iter()
            .find(|k| k.name() == s)
    }
}

/// Reports timed per warm job.
pub const WARM_REPS: usize = 3;

/// Task families whose busy time the traced run reports.
pub const TASK_FAMILIES: [&str; 9] = [
    "corr_matrix",
    "corr_prep",
    "text_stats",
    "freq",
    "sorted_values",
    "numeric_gather",
    "moments",
    "histogram",
    "null_indicator",
];

/// Accumulates a job's output lines.
#[derive(Debug, Default)]
pub struct Out {
    text: String,
}

impl Out {
    /// The job's output text.
    pub fn text(&self) -> &str {
        &self.text
    }
    fn v(&mut self, name: &str, value: f64) {
        let _ = writeln!(self.text, "v {name} {value}");
    }
    fn c(&mut self, name: &str, value: u64) {
        let _ = writeln!(self.text, "c {name} {value}");
    }
    fn h(&mut self, name: &str, value: u64) {
        let _ = writeln!(self.text, "h {name} {value:016x}");
    }
    fn t(&mut self, secs: f64) {
        let _ = writeln!(self.text, "t {secs}");
    }
    fn x(&mut self, message: &str) {
        let _ = writeln!(self.text, "x {}", message.replace('\n', " "));
    }
}

/// A job's parsed output.
#[derive(Debug, Default, Clone)]
pub struct JobOutput {
    /// `v` lines; a name may repeat, values stay in order.
    pub values: BTreeMap<String, Vec<f64>>,
    /// `c` lines; a repeated name sums.
    pub counters: BTreeMap<String, u64>,
    /// `h` lines; a name may repeat, hashes stay in order.
    pub hashes: BTreeMap<String, Vec<String>>,
    /// `t` lines, in call order.
    pub calls: Vec<f64>,
    /// `s` lines.
    pub spans: Vec<Span>,
    /// `x` lines.
    pub failures: Vec<String>,
}

impl JobOutput {
    /// Parse a job's standard output.
    pub fn parse(text: &str) -> Result<JobOutput, String> {
        let mut out = JobOutput::default();
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let bad = || format!("bad job output line: {line}");
            match tag {
                "v" | "c" | "h" => {
                    let (name, value) = rest.split_once(' ').ok_or_else(bad)?;
                    match tag {
                        "v" => out
                            .values
                            .entry(name.into())
                            .or_default()
                            .push(value.parse().map_err(|_| bad())?),
                        "c" => {
                            *out.counters.entry(name.into()).or_default() +=
                                value.parse::<u64>().map_err(|_| bad())?;
                        }
                        _ => out
                            .hashes
                            .entry(name.into())
                            .or_default()
                            .push(value.into()),
                    }
                }
                "t" => out.calls.push(rest.parse().map_err(|_| bad())?),
                "s" => out.spans.push(Span::from_line(rest).ok_or_else(bad)?),
                "x" => out.failures.push(rest.into()),
                _ => return Err(bad()),
            }
        }
        Ok(out)
    }

    /// The first value recorded under `name`, or 0.
    pub fn value(&self, name: &str) -> f64 {
        self.values
            .get(name)
            .and_then(|v| v.first())
            .copied()
            .unwrap_or(0.0)
    }

    /// A counter, or 0.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// FNV-1a over `bytes`.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// A report's HTML without the parts that describe the run rather than
/// the data: the footer with the run's wall time and task counts, and
/// the profiling panel before it. What remains must not depend on
/// timing, cache state or profiling.
pub fn report_content(html: &str) -> String {
    const FOOTER: &str = "<p><small>computed ";
    const FOOTER_END: &str = "</small></p>";
    let Some(footer) = html.rfind(FOOTER) else {
        return html.to_string();
    };
    let Some(len) = html[footer..].find(FOOTER_END) else {
        return html.to_string();
    };
    let start = html[..footer]
        .find("<h2>Performance</h2>")
        .unwrap_or(footer);
    format!(
        "{}{}",
        &html[..start],
        &html[footer + len + FOOTER_END.len()..]
    )
}

/// Peak resident set size of this process in bytes.
#[cfg(target_os = "linux")]
pub fn peak_rss_bytes() -> u64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the layout of Linux's `struct rusage` on
    // 64-bit targets (two timevals then fourteen longs), and getrusage
    // writes only within it. RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        (usage.maxrss.max(0) as u64) * 1024
    } else {
        0
    }
}

/// Peak resident set size (not measured off Linux).
#[cfg(not(target_os = "linux"))]
pub fn peak_rss_bytes() -> u64 {
    0
}

/// Sums of one or more runs' execution statistics.
#[derive(Debug, Default)]
struct ExecSum {
    exec_s: f64,
    tasks_run: u64,
    total_nodes: u64,
    live_nodes: u64,
    cse_hits: u64,
    tasks_failed: u64,
    tasks_retried: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_bytes_saved: u64,
    insights: u64,
}

impl ExecSum {
    fn add(&mut self, s: &ExecStats, insights: usize) {
        self.exec_s += s.elapsed.as_secs_f64();
        self.tasks_run += s.tasks_run as u64;
        self.total_nodes += s.total_nodes as u64;
        self.live_nodes += s.live_nodes as u64;
        self.cse_hits += s.cse_hits as u64;
        self.tasks_failed += s.tasks_failed as u64;
        self.tasks_retried += s.tasks_retried as u64;
        self.cache_hits += s.cache_hits as u64;
        self.cache_misses += s.cache_misses as u64;
        self.cache_bytes_saved += s.cache_bytes_saved as u64;
        self.insights += insights as u64;
    }

    fn emit(&self, out: &mut Out) {
        out.v("exec_s", self.exec_s);
        for (name, value) in [
            ("tasks_run", self.tasks_run),
            ("total_nodes", self.total_nodes),
            ("live_nodes", self.live_nodes),
            ("cse_hits", self.cse_hits),
            ("tasks_failed", self.tasks_failed),
            ("tasks_retried", self.tasks_retried),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_bytes_saved", self.cache_bytes_saved),
            ("insights", self.insights),
        ] {
            out.c(name, value);
        }
    }
}

/// Sums of one or more traced runs.
#[derive(Debug, Default)]
struct TraceSum {
    elapsed_s: f64,
    critical_s: f64,
    queue_wait_s: f64,
    busy: Vec<f64>,
    family: BTreeMap<String, f64>,
    corr_matrix_max_s: f64,
}

impl TraceSum {
    fn add(&mut self, t: &RunTrace) {
        self.elapsed_s += t.elapsed.as_secs_f64();
        self.critical_s += t.critical_path().total.as_secs_f64();
        if self.busy.len() < t.workers.max(1) {
            self.busy.resize(t.workers.max(1), 0.0);
        }
        for s in t.executed() {
            let d = s.duration().as_secs_f64();
            self.queue_wait_s += s.queue_wait.as_secs_f64();
            if let Some(b) = self.busy.get_mut(s.worker) {
                *b += d;
            }
            let family = s.name.split(':').next().unwrap_or(&s.name);
            *self.family.entry(family.to_string()).or_default() += d;
            if family == "corr_matrix" {
                self.corr_matrix_max_s = self.corr_matrix_max_s.max(d);
            }
        }
    }

    fn emit(&self, out: &mut Out) {
        let util: Vec<f64> = self
            .busy
            .iter()
            .map(|b| (b / self.elapsed_s.max(f64::MIN_POSITIVE)).min(1.0))
            .collect();
        out.v("trace.critical_path_s", self.critical_s);
        out.v("trace.queue_wait_s", self.queue_wait_s);
        out.v(
            "trace.worker_util_min",
            util.iter().copied().fold(f64::INFINITY, f64::min).min(1.0),
        );
        out.v(
            "trace.worker_util_mean",
            util.iter().sum::<f64>() / util.len().max(1) as f64,
        );
        for f in TASK_FAMILIES {
            out.v(
                &format!("trace.busy.{f}"),
                self.family.get(f).copied().unwrap_or(0.0),
            );
        }
        out.v("trace.corr_matrix_max_s", self.corr_matrix_max_s);
    }
}

/// Record a traced run's task spans under the span `parent`, which
/// began when the call that ran the graph began.
fn nest_tasks(rec: &mut Recorder, t: &RunTrace, parent: &Span) {
    for s in &t.spans {
        if !s.status.executed() {
            continue;
        }
        let id = rec.next_id();
        rec.spans.push(Span {
            id,
            parent: parent.id,
            name: s.name.clone(),
            cat: "task".into(),
            start_us: parent.start_us + s.start.as_secs_f64() * 1e6,
            dur_us: s.duration().as_secs_f64() * 1e6,
            pid: parent.pid,
            tid: TASK_TID_BASE + s.worker as u32,
        });
    }
}

/// The last span recorded with this id.
fn span_of(rec: &Recorder, id: u64) -> Span {
    rec.spans
        .iter()
        .rev()
        .find(|s| s.id == id)
        .cloned()
        .expect("span was closed")
}

/// Load the input file as the `load` span under `parent`.
fn load(
    rec: &mut Recorder,
    out: &mut Out,
    input: &Path,
    cfg: &Config,
    parent: u64,
) -> Option<DataFrame> {
    let (df, secs) = rec.time("load", parent, || load_data(input, cfg));
    out.v("load_s", secs);
    match df {
        Ok(df) => Some(df),
        Err(e) => {
            out.x(&format!("load_data({}): {e}", input.display()));
            None
        }
    }
}

/// Check a report's shape and health; record failures.
fn check_report(out: &mut Out, label: &str, report: &Report, df: &DataFrame) -> bool {
    let failed = report.failed_sections();
    if !failed.is_empty() {
        let names: Vec<&str> = failed.iter().map(|(n, _)| n.as_str()).collect();
        out.x(&format!("{label}: failed sections {names:?}"));
        return false;
    }
    if report.variables.len() != df.ncols() {
        out.x(&format!(
            "{label}: {} variable sections for {} columns",
            report.variables.len(),
            df.ncols()
        ));
        return false;
    }
    true
}

/// `create_report` then `render_report_html`, as spans under `parent`.
/// Returns the report, its HTML, and the time of the two calls.
fn report_call(
    rec: &mut Recorder,
    out: &mut Out,
    df: &DataFrame,
    cfg: &Config,
    parent: u64,
    label: &str,
) -> Option<(Report, String, Span, f64)> {
    let open = rec.open("create_report", parent);
    let id = open.id;
    let report = create_report(df, cfg);
    let report_s = rec.close(open);
    let span = span_of(rec, id);
    out.c("calls_attempted", 1);
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            out.x(&format!("{label}: create_report: {e}"));
            out.c("calls_failed", 1);
            return None;
        }
    };
    if !check_report(out, label, &report, df) {
        out.c("calls_failed", 1);
    }
    let (html, render_s) = rec.time("render", parent, || {
        eda_render::render_report_html(&report, &cfg.display)
    });
    out.v("core_s", report_s);
    out.v("render_s", render_s);
    Some((report, html, span, report_s + render_s))
}

/// Run one job and print its output.
pub fn run_job(kind: Kind, w: Workload, input: &Path, pid: u32, parent: u64) -> Out {
    let mut rec = Recorder::new(pid);
    let mut out = Out::default();
    let profile = kind == Kind::Traced;
    let cfg = match kind {
        Kind::ColdRef => crate::workload::report_config(false),
        _ => w.config(profile),
    };
    let root = rec.open(format!("job:{}", kind.name()), parent);
    let root_id = root.id;
    match kind {
        Kind::Warm => warm(&mut rec, &mut out, input, root_id),
        _ if w.is_session() && kind != Kind::ColdRef => {
            session(&mut rec, &mut out, input, &cfg, root_id, profile)
        }
        _ => report_iteration(&mut rec, &mut out, input, &cfg, root_id, profile),
    }
    rec.close(root);
    out.v("peak_rss_bytes", peak_rss_bytes() as f64);
    for s in &rec.spans {
        let _ = writeln!(out.text, "s {}", s.to_line());
    }
    out
}

/// File → `create_report` → HTML, once.
fn report_iteration(
    rec: &mut Recorder,
    out: &mut Out,
    input: &Path,
    cfg: &Config,
    parent: u64,
    profile: bool,
) {
    let it = rec.open("iteration", parent);
    let it_id = it.id;
    let Some(df) = load(rec, out, input, cfg, it_id) else {
        rec.close(it);
        return;
    };
    let Some((report, html, span, call_s)) =
        report_call(rec, out, &df, cfg, it_id, "create_report")
    else {
        rec.close(it);
        return;
    };
    let wall = rec.close(it);
    out.v("iteration_s", wall);
    out.t(call_s);
    let mut sum = ExecSum::default();
    sum.add(&report.stats, report.insights.len());
    sum.emit(out);
    out.v("html_bytes", html.len() as f64);
    out.h("html", fnv(report_content(&html).as_bytes()));
    out.c("loaded_fingerprint", df.content_fingerprint());
    if !html.contains("<svg") {
        out.x("create_report: HTML has no charts");
    }
    if profile {
        traced_extras(
            rec,
            out,
            &df,
            cfg,
            &report,
            std::slice::from_ref(&(span, report.stats.clone())),
        );
    }
}

/// The interactive session: load once, then every call in order, each
/// computed and rendered; the final `create_report` must be served
/// entirely from the result cache.
fn session(
    rec: &mut Recorder,
    out: &mut Out,
    input: &Path,
    cfg: &Config,
    parent: u64,
    profile: bool,
) {
    let it = rec.open("iteration", parent);
    let it_id = it.id;
    let Some(df) = load(rec, out, input, cfg, it_id) else {
        rec.close(it);
        return;
    };
    let mut sum = ExecSum::default();
    let mut compute_s = 0.0;
    let mut render_s = 0.0;
    let mut html_bytes = 0usize;
    let mut traced: Vec<(Span, ExecStats)> = Vec::new();
    let mut final_report: Option<Report> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    for call in session_calls(&df, cfg) {
        let label = call.label();
        let open = rec.open(label.clone(), it_id);
        let call_id = open.id;
        attempted += 1;
        let started = Instant::now();
        let (stats, html, insights) = if call == Call::Report {
            let report = create_report(&df, cfg);
            let c = started.elapsed().as_secs_f64();
            compute_s += c;
            match report {
                Ok(report) => {
                    if !check_report(out, &label, &report, &df) {
                        failed += 1;
                    }
                    let (html, r) = rec.time("render", call_id, || {
                        eda_render::render_report_html(&report, &cfg.display)
                    });
                    render_s += r;
                    out.v("warm_report_s", c + r);
                    out.c("warm_cache_misses", report.stats.cache_misses as u64);
                    let stats = report.stats.clone();
                    let n = report.insights.len();
                    final_report = Some(report);
                    (Some(stats), html, n)
                }
                Err(e) => {
                    out.x(&format!("{label}: {e}"));
                    failed += 1;
                    (None, String::new(), 0)
                }
            }
        } else {
            let analysis = call.run(&df, cfg);
            compute_s += started.elapsed().as_secs_f64();
            match analysis {
                Ok(a) => {
                    if !a.status.is_ok() {
                        out.x(&format!("{label}: {:?}", a.status));
                        failed += 1;
                    }
                    let (html, r) = rec.time("render", call_id, || {
                        eda_render::render_analysis_html(&a, &cfg.display)
                    });
                    render_s += r;
                    (a.stats, html, a.insights.len())
                }
                Err(e) => {
                    out.x(&format!("{label}: {e}"));
                    failed += 1;
                    (None, String::new(), 0)
                }
            }
        };
        let call_s = rec.close(open);
        out.t(call_s);
        html_bytes += html.len();
        if call == Call::Report {
            out.h("warm_report_html", fnv(report_content(&html).as_bytes()));
        } else if !profile {
            out.h(&format!("html:{label}"), fnv(html.as_bytes()));
        }
        if let Some(stats) = stats {
            sum.add(&stats, insights);
            if profile {
                traced.push((span_of(rec, call_id), stats));
            }
        }
    }
    let wall = rec.close(it);
    out.v("iteration_s", wall);
    out.v("core_s", compute_s);
    out.v("render_s", render_s);
    out.c("calls_attempted", attempted);
    out.c("calls_failed", failed);
    sum.emit(out);
    out.v("html_bytes", html_bytes as f64);
    out.c("loaded_fingerprint", df.content_fingerprint());
    if profile {
        match &final_report {
            Some(report) => traced_extras(rec, out, &df, cfg, report, &traced),
            None => out.x("traced session produced no report"),
        }
    }
}

/// Report workloads: fill the cache with one report, then time
/// [`WARM_REPS`] reports served from it.
fn warm(rec: &mut Recorder, out: &mut Out, input: &Path, parent: u64) {
    let cfg = Config::default();
    let Some(df) = load(rec, out, input, &cfg, parent) else {
        return;
    };
    let fill = rec.open("fill_cache", parent);
    let fill_id = fill.id;
    let filled = report_call(
        rec,
        out,
        &df,
        &cfg,
        fill_id,
        "create_report (filling the cache)",
    );
    rec.close(fill);
    let Some((_, html, _, _)) = filled else {
        return;
    };
    out.h("fill_html", fnv(report_content(&html).as_bytes()));
    for _ in 0..WARM_REPS {
        let rep = rec.open("warm_report", parent);
        let rep_id = rep.id;
        let warm = report_call(rec, out, &df, &cfg, rep_id, "create_report (warm)");
        rec.close(rep);
        let Some((report, html, _, call_s)) = warm else {
            return;
        };
        out.v("warm_report_s", call_s);
        out.c("warm_cache_misses", report.stats.cache_misses as u64);
        out.h("warm_report_html", fnv(report_content(&html).as_bytes()));
    }
}

/// Traced-run extras: trace-derived metrics and task spans, then the
/// stats layer timed directly on the same frame and checked against the
/// report it produced.
fn traced_extras(
    rec: &mut Recorder,
    out: &mut Out,
    df: &DataFrame,
    cfg: &Config,
    report: &Report,
    runs: &[(Span, ExecStats)],
) {
    let mut sum = TraceSum::default();
    for (span, stats) in runs {
        match &stats.trace {
            Some(t) => {
                sum.add(t);
                nest_tasks(rec, t, span);
            }
            None => out.x(&format!("{}: profiled run carried no trace", span.name)),
        }
    }
    sum.emit(out);
    stats_layer(out, df, cfg, report);
}

/// Median seconds of `f` over repetitions: at least one, more while the
/// total stays under 0.3 s (at most 7).
fn time_reps<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut total = 0.0;
    loop {
        let t = Instant::now();
        let value = f();
        let secs = t.elapsed().as_secs_f64();
        times.push(secs);
        total += secs;
        if total >= 0.3 || times.len() >= 7 {
            return (value, crate::metrics::median(&times));
        }
    }
}

/// Time the stats layer's public functions on the loaded frame: the
/// three correlation matrices over the report's numeric columns, and the
/// three nullity finishers over every column's null indicator. Each
/// result must equal what the report computed through the task graph.
fn stats_layer(out: &mut Out, df: &DataFrame, cfg: &Config, report: &Report) {
    let numeric: Vec<(String, Vec<f64>)> = df
        .iter()
        .filter(|(_, c)| {
            eda_core::dtype::detect(c, cfg.types.low_cardinality) == SemanticType::Numerical
        })
        .filter_map(|(n, c)| c.to_f64_nan().ok().map(|v| (n.to_string(), v)))
        .collect();
    for method in CorrMethod::ALL {
        let (m, secs) = time_reps(|| CorrMatrix::compute(&numeric, method));
        let key = match method {
            CorrMethod::Pearson => "pearson",
            CorrMethod::Spearman => "spearman",
            CorrMethod::KendallTau => "kendall",
        };
        out.v(&format!("stats.corr_{key}_s"), secs);
        // The report ranks each column once over its own non-null values
        // (pandas rank-once semantics) while `CorrMatrix::compute`
        // re-ranks each pair's complete subset; the two Spearman paths
        // agree only where neither column has nulls, so only those
        // cells are compared.
        let complete: Vec<bool> = numeric
            .iter()
            .map(|(_, v)| !v.iter().any(|x| x.is_nan()))
            .collect();
        let comparable = |k: usize| {
            let (i, j) = (k / numeric.len().max(1), k % numeric.len().max(1));
            method != CorrMethod::Spearman || (complete[i] && complete[j])
        };
        match report.correlations.iter().find(|r| r.method == method) {
            Some(r) if numeric.len() >= 2 => {
                let agree = r.labels == m.labels
                    && r.cells.len() == m.cells.len()
                    && r.cells.iter().zip(&m.cells).enumerate().all(|(k, (a, b))| {
                        !comparable(k)
                            || match (a, b) {
                                (Some(a), Some(b)) => (a - b).abs() <= 1e-9,
                                (None, None) => true,
                                _ => false,
                            }
                    });
                if !agree {
                    out.x(&format!(
                        "stats: {} matrix differs from the report's",
                        method.name()
                    ));
                }
            }
            _ if numeric.len() >= 2 => out.x(&format!("report has no {} matrix", method.name())),
            _ => {}
        }
    }

    let indicators: Vec<(String, Vec<bool>)> = df
        .iter()
        .map(|(n, c)| {
            (
                n.to_string(),
                (0..c.len()).map(|i| !c.is_valid(i)).collect(),
            )
        })
        .collect();
    let (nullity, secs) = time_reps(|| eda_stats::missing::nullity_correlation(&indicators));
    out.v("stats.nullity_corr_s", secs);
    let (_, secs) = time_reps(|| eda_stats::missing::nullity_dendrogram(&indicators));
    out.v("stats.dendrogram_s", secs);
    let (_, secs) =
        time_reps(|| eda_stats::missing::missing_spectrum(&indicators, cfg.spectrum.bins));
    out.v("stats.spectrum_s", secs);
    match report.missing.get("nullity_correlation") {
        Some(eda_core::Inter::NullityCorr { cells, .. }) if *cells == nullity => {}
        _ => out.x("stats: nullity correlation differs from the report's"),
    }
}
