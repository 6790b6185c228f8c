//! Bit-exact golden for the correlation matrices.
//!
//! The `f64::to_bits` of every cell of the three report matrices
//! (Pearson, Spearman, Kendall tau-b) is pinned on two frames: a seeded,
//! scaled-down hotel frame with nulls, and a hostile frame (signed
//! zeros, infinities, an all-tied column, a single-value column, and a
//! pair with fewer than two complete rows). `tests/golden/corr_matrices.txt`
//! holds the pinned bits; no tolerance is applied anywhere.
//!
//! Pearson (and Spearman, which is Pearson over ranks) sums in the
//! fixed lane order of the slice kernels. Pearson cells against the
//! hostile `infs` column are undefined (`-`): its infinite power sums
//! leave no finite variance, the same rule as a zero-variance column.
//!
//! The bits were captured from the merge-sort Kendall implementation
//! that preceded the integer-rank kernel. Four hostile Kendall cells
//! (`zeros`×`infs`, `zeros`×`sparse_a`, `zeros`×`sparse_b`,
//! `infs`×`sparse_b`) differ from that capture: its per-pair fallback
//! sorted x by `total_cmp`, so an x-tie group holding both `-0.0` and
//! `0.0` was not sorted by y and its within-group pairs were miscounted
//! as discordant (one of them gave tau = -1.15). The pinned values are
//! those of the O(n²) oracle, which
//! `hostile_kendall_matches_quadratic_oracle` checks cell by cell.
//!
//! A second test runs the same frames through `plot_correlation` under
//! the scheduler knobs that reshape how the matrices are filled (worker
//! count, morsel size, and the per-pair `eager_finish = false` ablation)
//! and requires every configuration to reproduce the golden exactly.
//! The report and the eager `plot_correlation` share one matrix planner.

use dataprep_eda::prelude::*;
use eda_datagen::{generate, kaggle_spec_by_name};
use eda_stats::corr::{kendall_tau_quadratic, CorrMatrix};

const GOLDEN: &str = include_str!("golden/corr_matrices.txt");

/// The seeded hotel shape at ~5k rows: 20 numeric columns, 7 with nulls.
fn hotel_frame() -> DataFrame {
    let spec = kaggle_spec_by_name("hotel").expect("hotel spec");
    generate(&spec.scaled(5_000.0 / spec.rows as f64), 7)
}

/// Every value class the kernels must order and tie consistently.
fn hostile_frame() -> DataFrame {
    let n = 40;
    let zeros = (0..n)
        .map(|i| match i % 5 {
            0 => 0.0,
            1 => -0.0,
            2 => (i % 7) as f64 - 3.0,
            3 => -0.0,
            _ => 0.0,
        })
        .collect();
    let infs = (0..n)
        .map(|i| match i % 6 {
            0 => None,
            1 => Some(f64::INFINITY),
            2 => Some(f64::NEG_INFINITY),
            3 => Some(((i * 13) % 11) as f64),
            4 => Some(-0.0),
            _ => Some(((i * 7) % 5) as f64 - 2.0),
        })
        .collect();
    let tied = vec![4.5; n];
    let single = (0..n).map(|i| (i == 17).then_some(2.0)).collect();
    // `sparse_a` and `sparse_b` overlap on one row only.
    let sparse_a = (0..n)
        .map(|i| (i % 2 == 0).then(|| ((i * 17) % 13) as f64))
        .collect();
    let sparse_b = (0..n)
        .map(|i| (i % 2 == 1 || i == 4).then(|| ((i * 5) % 9) as f64))
        .collect();
    DataFrame::new(vec![
        ("zeros".into(), Column::from_f64(zeros)),
        ("infs".into(), Column::from_opt_f64(infs)),
        ("tied".into(), Column::from_f64(tied)),
        ("single".into(), Column::from_opt_f64(single)),
        ("sparse_a".into(), Column::from_opt_f64(sparse_a)),
        ("sparse_b".into(), Column::from_opt_f64(sparse_b)),
    ])
    .expect("hostile frame")
}

/// One `# frame method` header, then one row of cell bits per line
/// (`-` for an undefined cell).
fn render(frame: &str, matrices: &[CorrMatrix]) -> String {
    let mut out = String::new();
    for m in matrices {
        out.push_str(&format!("# {frame} {}\n", m.method.name()));
        for i in 0..m.size() {
            let row: Vec<String> = (0..m.size())
                .map(|j| match m.get(i, j) {
                    Some(v) => format!("{:016x}", v.to_bits()),
                    None => "-".to_string(),
                })
                .collect();
            out.push_str(&row.join(" "));
            out.push('\n');
        }
    }
    out
}

/// The golden section for one frame.
fn golden(frame: &str) -> String {
    let mut out = String::new();
    let mut keep = false;
    for line in GOLDEN.lines() {
        if let Some(header) = line.strip_prefix("# ") {
            keep = header.split(' ').next() == Some(frame);
        }
        if keep {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Cache off so every run computes. Pearson (and Spearman, Pearson over
/// ranks) cells are summed in the lane kernels' fixed order, so their
/// bits are the same on every backend.
fn config(pairs: &[(&str, &str)]) -> Config {
    let mut all = vec![("engine.cache_budget_bytes", "0")];
    all.extend_from_slice(pairs);
    Config::from_pairs(all).expect("valid config")
}

fn report_matrices(df: &DataFrame, cfg: &Config) -> Vec<CorrMatrix> {
    let report = create_report(df, cfg).expect("report");
    assert_eq!(report.correlations.len(), 3);
    report.correlations
}

fn overview_matrices(df: &DataFrame, cfg: &Config) -> Vec<CorrMatrix> {
    let a = plot_correlation(df, &[], cfg).expect("plot_correlation");
    ["Pearson", "Spearman", "KendallTau"]
        .iter()
        .map(|m| match a.get(&format!("correlation_matrix:{m}")) {
            Some(Inter::Correlation(cm)) => cm.clone(),
            _ => panic!("missing {m} matrix"),
        })
        .collect()
}

fn frames() -> [(&'static str, DataFrame); 2] {
    [("hotel", hotel_frame()), ("hostile", hostile_frame())]
}

#[test]
fn report_matrices_match_golden_bits() {
    for (name, df) in frames() {
        let got = render(name, &report_matrices(&df, &config(&[])));
        assert_eq!(got, golden(name), "{name}: report matrices drifted from the golden");
    }
}

#[test]
fn hostile_kendall_matches_quadratic_oracle() {
    let df = hostile_frame();
    let kendall = &report_matrices(&df, &config(&[]))[2];
    let columns: Vec<Vec<f64>> = kendall
        .labels
        .iter()
        .map(|n| df.column(n).unwrap().to_f64_nan().unwrap())
        .collect();
    for i in 0..columns.len() {
        for j in (i + 1)..columns.len() {
            let oracle = kendall_tau_quadratic(&columns[i], &columns[j]);
            assert_eq!(
                kendall.get(i, j).map(f64::to_bits),
                oracle.map(f64::to_bits),
                "{} x {}",
                kendall.labels[i],
                kendall.labels[j]
            );
        }
    }
}

#[test]
fn fill_knobs_reproduce_golden_bits() {
    for (name, df) in frames() {
        let want = golden(name);
        for workers in ["1", "2"] {
            for morsel in ["0", "262144", "1"] {
                for eager in ["true", "false"] {
                    let cfg = config(&[
                        ("engine.workers", workers),
                        ("engine.morsel_bytes", morsel),
                        ("engine.eager_finish", eager),
                    ]);
                    let knobs = format!("workers={workers} morsel_bytes={morsel} eager={eager}");
                    let got = render(name, &overview_matrices(&df, &cfg));
                    assert_eq!(got, want, "{name}: plot_correlation with {knobs}");
                }
            }
        }
    }
}

