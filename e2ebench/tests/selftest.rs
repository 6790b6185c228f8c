//! Self-tests of the benchmark against its own `BENCHMARK.json`: the file
//! follows the contract, and a small-scale run of every workload prints
//! exactly the metrics the file names, with their units.

use std::path::{Path, PathBuf};
use std::process::Command;

use eda_e2e_bench::json::{parse, Json};
use eda_e2e_bench::metrics::valid_name;
use eda_e2e_bench::workload::Workload;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    parse(&text).expect("BENCHMARK.json parses")
}

fn keys(v: &Json) -> Vec<&str> {
    v.as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{key} is a list"))
}

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} is a string"))
}

fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn manifest_follows_the_contract() {
    let doc = manifest();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    for p in list(&doc, "paths") {
        let p = p.as_str().unwrap();
        assert!(!p.starts_with('/') && !p.contains(".."), "{p}");
    }
    for arg in list(&doc, "command") {
        let arg = arg.as_str().unwrap();
        assert!(
            arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
            "{arg}"
        );
    }

    let mut names = Vec::new();
    let workloads = list(&doc, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = str_of(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        names.push(str_of(w, "name"));
    }
    let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(
        names, expected,
        "BENCHMARK.json names every workload the benchmark runs"
    );

    let e2e = list(&doc, "end_to_end");
    assert!(e2e.iter().any(|m| str_of(m, "name") == "setup_s"
        && str_of(m, "unit") == "s"
        && str_of(m, "better") == "lower"));
    let setup_bound = e2e
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .and_then(|m| m.get("bound")?.as_f64())
        .unwrap();
    for m in e2e {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m.get("bound").and_then(Json::as_f64).unwrap();
        assert!(
            bound > 0.0 && bound <= 0.25 && bound <= setup_bound,
            "{m:?}"
        );
        names.push(str_of(m, "name"));
    }
    for m in list(&doc, "per_layer") {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        names.push(str_of(m, "name"));
    }
    for m in e2e.iter().chain(list(&doc, "per_layer")) {
        assert!(valid_unit(str_of(m, "unit")), "{m:?}");
        assert!(matches!(str_of(m, "better"), "lower" | "higher"), "{m:?}");
    }
    for n in &names {
        assert!(valid_name(n), "{n}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "every name is used once");
}

/// Run the benchmark binary at small scale; returns exit status and the
/// parsed last line of standard output.
fn small_run(workload: &str, trace: u8, dir: &Path) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_eda-e2e-bench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args([
            "--trace",
            &trace.to_string(),
            "--scale",
            "0.01",
            "--work-dir",
        ])
        .arg(dir)
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!(
            "{workload}: no output; stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (
        out.status.success(),
        parse(last).expect("last line is JSON"),
    )
}

#[test]
fn small_runs_emit_every_named_metric() {
    let doc = manifest();
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("e2e-selftest");
    for w in list(&doc, "workloads") {
        let name = str_of(w, "name");
        for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let (ok, result) = small_run(name, trace, &dir);
            assert!(ok, "{name} --trace {trace} exited non-zero: {result:?}");
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{name}");
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            let metrics = result.get("metrics").unwrap();
            let printed = keys(metrics);
            let wanted: Vec<&str> = list(&doc, section)
                .iter()
                .map(|m| str_of(m, "name"))
                .collect();
            assert_eq!(printed, wanted, "{name} --trace {trace}");
            for m in list(&doc, section) {
                let got = metrics.get(str_of(m, "name")).unwrap();
                assert_eq!(
                    got.get("unit").and_then(Json::as_str),
                    Some(str_of(m, "unit"))
                );
                let value = got.get("value").and_then(Json::as_f64).unwrap();
                assert!(value.is_finite(), "{name}: {m:?}");
                if trace == 0 {
                    assert!(value > 0.0, "{name}: end-to-end metric {m:?} reads {value}");
                }
            }
        }
        assert!(
            dir.join(name).join("trace.json").exists(),
            "{name} wrote its trace"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_eda-e2e-bench"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success());
        assert!(
            out.stdout.is_empty(),
            "{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
