//! Correlation analysis: `plot_correlation` (paper Figure 2, rows 5–7).
//!
//! * `plot_correlation(df)` → Pearson, Spearman, Kendall-tau matrices over
//!   the numeric columns.
//! * `plot_correlation(df, x)` → the three correlation vectors of `x`
//!   against every other numeric column.
//! * `plot_correlation(df, x, y)` → scatter plot with a regression line.
//!
//! This module is the paper's worked example of the two-phase boundary
//! (§5.2). The heavy work runs inside the graph, where it is served by
//! the cross-call result cache on repeat calls:
//!
//! * one `corr_prep:<column>` task per column sorts it once into its
//!   value order, dense integer ranks and mid-ranks
//!   ([`ColumnRanks`]), shared by every pair the column is in;
//! * one `corr_matrix:<method>` task per method fills its matrix from
//!   those preps. Its upper-triangle pairs are the morsel index space of
//!   [`morsel::run_rows`], so idle workers steal pairs; Kendall's tau
//!   is Knight's algorithm over the integer ranks with a Fenwick
//!   counter, for columns with and without nulls alike.
//!
//! Only the cheap insight filtering stays eager. The
//! `engine.eager_finish = false` ablation pushes even the per-pair
//! coefficient computations into the graph as individual tasks, sharing
//! the same per-pair `cell`, demonstrating why `n >> m` makes that
//! granularity pure scheduler overhead.

use std::ops::Range;
use std::sync::Arc;

use eda_stats::corr::{kendall_tau_ranked, pearson, spearman_from_ranks, CorrMatrix, CorrMethod};
use eda_stats::rank::ColumnRanks;
use eda_stats::regression::LinearFit;
use eda_taskgraph::key::TaskKey;
use eda_taskgraph::{morsel, NodeId};

use crate::dtype::{detect, SemanticType};
use crate::error::{EdaError, EdaResult};
use crate::insights::{correlation_insight, Insight};
use crate::intermediate::{Inter, Intermediates};

use super::ctx::{pl, un, un_arc, ComputeContext};
use super::kernels;

/// Numeric columns of the frame, in order.
pub fn numeric_columns(ctx: &ComputeContext<'_>) -> Vec<String> {
    ctx.df
        .iter()
        .filter(|(_, c)| detect(c, ctx.config.types.low_cardinality) == SemanticType::Numerical)
        .map(|(n, _)| n.to_string())
        .collect()
}

/// Run `plot_correlation(df)`.
pub fn compute_correlation_overview(
    ctx: &mut ComputeContext<'_>,
) -> EdaResult<(Intermediates, Vec<Insight>)> {
    let names = numeric_columns(ctx);
    if names.len() < 2 {
        return Err(EdaError::EmptyInput("need at least two numeric columns"));
    }
    let matrices = if ctx.config.engine.eager_finish {
        matrices_two_phase(ctx, &names)?
    } else {
        matrices_all_graph(ctx, &names)?
    };

    let mut ims = Intermediates::new();
    let mut insights = Vec::new();
    for m in matrices {
        for (a, b, r) in m.strong_pairs(ctx.config.insight.correlation) {
            if let Some(i) = correlation_insight(&a, &b, m.method.name(), r, &ctx.config.insight)
            {
                insights.push(i);
            }
        }
        ims.push(
            format!("correlation_matrix:{}", m.method.name()),
            Inter::Correlation(m),
        );
    }
    Ok((ims, insights))
}

/// Per-column state shared across every pair the column participates in —
/// the correlation-matrix instance of the paper's computation sharing.
/// One sort yields the column's value order, its dense integer ranks
/// (Kendall) and its mid-ranks (Spearman, pandas rank-once semantics).
#[derive(Debug, Clone)]
pub struct ColumnPrep {
    /// Raw values, NaN at nulls (shared with the column's gather).
    pub values: Arc<Vec<f64>>,
    /// Value order, dense ranks and mid-ranks of the non-null values.
    pub ranks: ColumnRanks,
}

impl ColumnPrep {
    /// Build the shared state for one gathered column.
    pub fn prepare(values: Arc<Vec<f64>>) -> ColumnPrep {
        let ranks = ColumnRanks::new(&values);
        ColumnPrep { values, ranks }
    }
}

/// One matrix cell from two prepared columns.
fn cell(method: CorrMethod, a: &ColumnPrep, b: &ColumnPrep) -> Option<f64> {
    match method {
        CorrMethod::Pearson => pearson(&a.values, &b.values),
        CorrMethod::Spearman => spearman_from_ranks(&a.ranks.mid, &b.ranks.mid),
        CorrMethod::KendallTau => kendall_tau_ranked(&a.ranks, &b.ranks),
    }
}

/// Bytes one pair touches per row, the morsel size unit of a matrix
/// fill: x's order and dense rank plus y's dense rank, `u32` each.
const PAIR_ROW_BYTES: usize = 12;

/// Short method tag for task names (`corr_matrix:kendall`).
fn method_tag(method: CorrMethod) -> &'static str {
    match method {
        CorrMethod::Pearson => "pearson",
        CorrMethod::Spearman => "spearman",
        CorrMethod::KendallTau => "kendall",
    }
}

/// Fill one `m×m` matrix from prepared columns. The upper-triangle pairs
/// are the morsel index space: idle pool workers join as helpers and
/// steal pairs, and the per-pair results fold back in pair order, so the
/// matrix does not depend on who computed which pair.
fn fill_matrix(method: CorrMethod, labels: Vec<String>, preps: &[&ColumnPrep]) -> CorrMatrix {
    let m = preps.len();
    let pairs: Vec<(usize, usize)> =
        (0..m).flat_map(|i| (i + 1..m).map(move |j| (i, j))).collect();
    let rows = preps.first().map_or(0, |p| p.values.len());
    let compute = |range: Range<usize>| -> Vec<Option<f64>> {
        pairs[range].iter().map(|&(i, j)| cell(method, preps[i], preps[j])).collect()
    };
    let values = morsel::run_rows(pairs.len(), rows * PAIR_ROW_BYTES, compute, |mut a, b| {
        a.extend(b);
        a
    });
    // A cancelled fill may come back short; the scheduler discards it.
    let mut cells = vec![None; m * m];
    for i in 0..m {
        cells[i * m + i] = Some(1.0);
    }
    for (&(i, j), r) in pairs.iter().zip(values) {
        cells[i * m + j] = r;
        cells[j * m + i] = r;
    }
    CorrMatrix { labels, method, cells }
}

/// Plan one shared `corr_prep:<column>` node for a column: the gathered
/// values fed through [`ColumnPrep::prepare`]. Shared (CSE) between the
/// matrix path and the per-pair ablation path.
pub fn plan_corr_prep(ctx: &mut ComputeContext<'_>, name: &str) -> NodeId {
    let gather = kernels::numeric_gather(ctx, name);
    let params = ctx.params(TaskKey::params(&format!("corrprep:{name}")));
    ctx.graph.op(&format!("corr_prep:{name}"), params, vec![gather], |inputs| {
        pl(ColumnPrep::prepare(un_arc::<Vec<f64>>(&inputs[0])))
    })
}

/// Plan the three correlation matrices as graph tasks: per-column prep
/// nodes feed one `corr_matrix:<method>` node per method, which fills its
/// `m×m` matrix pair-parallel through the morsel engine. The heavy
/// O(n log n) per-column preparation and the per-pair coefficients run
/// *inside* the graph — parallel across columns and pairs, and served by
/// the cross-call result cache on repeat calls — while the cheap insight
/// filtering stays eager. Returns one node per [`CorrMethod::ALL`]
/// entry, each with a [`CorrMatrix`] payload.
pub fn plan_matrix_nodes(ctx: &mut ComputeContext<'_>, names: &[String]) -> Vec<NodeId> {
    let preps: Vec<NodeId> = names.iter().map(|n| plan_corr_prep(ctx, n)).collect();
    CorrMethod::ALL
        .iter()
        .map(|&method| {
            let labels = names.to_vec();
            let params =
                ctx.params(TaskKey::params(&format!("corrmatrix:{}", method.name())));
            let name = format!("corr_matrix:{}", method_tag(method));
            ctx.graph.op(&name, params, preps.clone(), move |inputs| {
                let preps: Vec<&ColumnPrep> = inputs.iter().map(un::<ColumnPrep>).collect();
                pl(fill_matrix(method, labels.clone(), &preps))
            })
        })
        .collect()
}

/// Two-phase path: gathers, preps, and matrix fills all run in the graph;
/// only the insight filtering happens eagerly afterwards.
fn matrices_two_phase(
    ctx: &mut ComputeContext<'_>,
    names: &[String],
) -> EdaResult<Vec<CorrMatrix>> {
    let nodes = plan_matrix_nodes(ctx, names);
    let outs = ctx.execute_checked(&nodes)?;
    Ok(outs.iter().map(|p| un::<CorrMatrix>(p).clone()).collect())
}

/// All-graph path (ablation): per-column prep nodes (shared) feed one
/// task per (method, pair); assembly still happens at the end.
fn matrices_all_graph(
    ctx: &mut ComputeContext<'_>,
    names: &[String],
) -> EdaResult<Vec<CorrMatrix>> {
    let prep_nodes: Vec<NodeId> = names.iter().map(|n| plan_corr_prep(ctx, n)).collect();
    let m = names.len();
    let mut pair_nodes: Vec<(usize, usize, CorrMethod, NodeId)> = Vec::new();
    for (mi, &method) in CorrMethod::ALL.iter().enumerate() {
        for i in 0..m {
            for j in (i + 1)..m {
                let params = ctx.params(TaskKey::params(&format!(
                    "corrcell:{mi}:{}:{}",
                    names[i], names[j]
                )));
                let node = ctx.graph.op(
                    "corr_cell",
                    params,
                    vec![prep_nodes[i], prep_nodes[j]],
                    move |inputs| {
                        let a = un::<ColumnPrep>(&inputs[0]);
                        let b = un::<ColumnPrep>(&inputs[1]);
                        pl(cell(method, a, b))
                    },
                );
                pair_nodes.push((i, j, method, node));
            }
        }
    }
    let outputs: Vec<NodeId> = pair_nodes.iter().map(|(_, _, _, n)| *n).collect();
    let outs = ctx.execute_checked(&outputs)?;
    Ok(CorrMethod::ALL
        .iter()
        .map(|&method| {
            let mut cells = vec![None; m * m];
            for i in 0..m {
                cells[i * m + i] = Some(1.0);
            }
            for ((i, j, pm, _), payload) in pair_nodes.iter().zip(&outs) {
                if *pm == method {
                    let r = *un::<Option<f64>>(payload);
                    cells[i * m + j] = r;
                    cells[j * m + i] = r;
                }
            }
            CorrMatrix { labels: names.to_vec(), method, cells }
        })
        .collect())
}

/// Run `plot_correlation(df, x)`.
pub fn compute_correlation_vector(
    ctx: &mut ComputeContext<'_>,
    x: &str,
) -> EdaResult<(Intermediates, Vec<Insight>)> {
    let col = ctx.df.column(x)?;
    if detect(col, ctx.config.types.low_cardinality) != SemanticType::Numerical {
        return Err(EdaError::NotNumeric(x.to_string()));
    }
    let names = numeric_columns(ctx);
    let others: Vec<String> = names.iter().filter(|n| *n != x).cloned().collect();
    if others.is_empty() {
        return Err(EdaError::EmptyInput("no other numeric columns"));
    }

    let gx = kernels::numeric_gather(ctx, x);
    let gathers: Vec<NodeId> = others
        .iter()
        .map(|n| kernels::numeric_gather(ctx, n))
        .collect();
    let mut outputs = vec![gx];
    outputs.extend(&gathers);
    let outs = ctx.execute_checked(&outputs)?;

    let xv = un::<Vec<f64>>(&outs[0]);
    let mut ims = Intermediates::new();
    let mut insights = Vec::new();
    let mut vectors = Vec::new();
    for &method in &CorrMethod::ALL {
        let mut entries = Vec::with_capacity(others.len());
        for (name, p) in others.iter().zip(&outs[1..]) {
            let yv = un::<Vec<f64>>(p);
            let r = method.compute(xv, yv);
            if let Some(r) = r {
                if let Some(i) =
                    correlation_insight(x, name, method.name(), r, &ctx.config.insight)
                {
                    insights.push(i);
                }
            }
            entries.push((name.clone(), r));
        }
        vectors.push((method.name().to_string(), entries));
    }
    ims.push("correlation_vectors", Inter::CorrVectors(vectors));
    Ok((ims, insights))
}

/// Run `plot_correlation(df, x, y)`.
pub fn compute_correlation_pair(
    ctx: &mut ComputeContext<'_>,
    x: &str,
    y: &str,
) -> EdaResult<(Intermediates, Vec<Insight>)> {
    for c in [x, y] {
        if detect(ctx.df.column(c)?, ctx.config.types.low_cardinality)
            != SemanticType::Numerical
        {
            return Err(EdaError::NotNumeric(c.to_string()));
        }
    }
    let pairs_node = kernels::pair_values(ctx, x, y);
    let pp = kernels::pearson_partial(ctx, x, y);
    let outs = ctx.execute_checked(&[pairs_node, pp])?;
    let pairs = un::<Vec<(f64, f64)>>(&outs[0]);
    let partial = un::<eda_stats::corr::PearsonPartial>(&outs[1]);

    let cap = ctx.config.scatter.sample;
    let points: Vec<(f64, f64)> = if pairs.len() > cap {
        let stride = (pairs.len() / cap).max(1);
        pairs.iter().copied().step_by(stride).take(cap).collect()
    } else {
        pairs.clone()
    };

    let mut ims = Intermediates::new();
    let mut insights = Vec::new();
    match LinearFit::from_partial(partial) {
        Some(fit) => {
            if let Some(r) = partial.finish() {
                if let Some(i) = correlation_insight(x, y, "Pearson", r, &ctx.config.insight) {
                    insights.push(i);
                }
            }
            ims.push(
                "regression_scatter",
                Inter::RegressionScatter {
                    points,
                    slope: fit.slope,
                    intercept: fit.intercept,
                    r2: fit.r2,
                },
            );
        }
        None => {
            ims.push("scatter_plot", Inter::Scatter { points, sampled: pairs.len() > cap });
        }
    }
    Ok((ims, insights))
}

/// Shared helper for tests and the report: correlation matrix labels.
pub fn matrix_labels(ims: &Intermediates) -> Vec<String> {
    match ims.get("correlation_matrix:Pearson") {
        Some(Inter::Correlation(m)) => m.labels.clone(),
        _ => Vec::new(),
    }
}

/// Eager reference implementation used by tests to validate both pipeline
/// paths: direct matrices over materialized columns.
#[doc(hidden)]
pub fn reference_matrices(
    df: &eda_dataframe::DataFrame,
    names: &[String],
) -> Vec<CorrMatrix> {
    let columns: Vec<(String, Vec<f64>)> = names
        .iter()
        .map(|n| {
            (
                n.clone(),
                df.column(n).expect("exists").to_f64_nan().expect("numeric"),
            )
        })
        .collect();
    CorrMethod::ALL
        .iter()
        .map(|&m| CorrMatrix::compute(&columns, m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use eda_dataframe::{Column, DataFrame};

    fn frame() -> DataFrame {
        let n = 120;
        DataFrame::new(vec![
            (
                "a".into(),
                Column::from_f64((0..n).map(|i| i as f64).collect()),
            ),
            (
                "b".into(),
                Column::from_f64((0..n).map(|i| (i * 2) as f64 + 1.0).collect()),
            ),
            (
                "c".into(),
                Column::from_opt_f64(
                    (0..n)
                        .map(|i| {
                            if i % 7 == 0 {
                                None
                            } else {
                                Some(((i * 31) % 17) as f64)
                            }
                        })
                        .collect(),
                ),
            ),
            (
                "city".into(),
                Column::from_string((0..n).map(|i| format!("c{}", i % 3)).collect()),
            ),
        ])
        .unwrap()
    }

    #[test]
    fn overview_has_three_matrices() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, insights) = compute_correlation_overview(&mut ctx).unwrap();
        for m in ["Pearson", "Spearman", "KendallTau"] {
            let Some(Inter::Correlation(cm)) = ims.get(&format!("correlation_matrix:{m}"))
            else {
                panic!("missing {m}")
            };
            // Categorical columns excluded.
            assert_eq!(cm.labels, vec!["a", "b", "c"]);
        }
        // a~b are perfectly correlated → insight fires.
        assert!(insights
            .iter()
            .any(|i| i.columns == vec!["a".to_string(), "b".to_string()]));
    }

    #[test]
    fn two_phase_and_all_graph_agree() {
        let df = frame();
        let names = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let eager_cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &eager_cfg);
        let two_phase = matrices_two_phase(&mut ctx, &names).unwrap();

        let lazy_cfg = Config::from_pairs(vec![("engine.eager_finish", "false")]).unwrap();
        let mut ctx2 = ComputeContext::new(&df, &lazy_cfg);
        let all_graph = matrices_all_graph(&mut ctx2, &names).unwrap();

        let reference = reference_matrices(&df, &names);
        for ((a, b), r) in two_phase.iter().zip(&all_graph).zip(&reference) {
            assert_eq!(a.labels, b.labels);
            for i in 0..a.size() {
                for j in 0..a.size() {
                    let (x, y, z) = (a.get(i, j), b.get(i, j), r.get(i, j));
                    // The two DataPrep paths must agree exactly.
                    match (x, y) {
                        (Some(x), Some(y)) => assert!((x - y).abs() < 1e-12, "{x} vs {y}"),
                        _ => assert_eq!(x, y),
                    }
                    // Pearson and Kendall also match the per-pair
                    // reference exactly (both rank columns with nulls
                    // and skip null rows per pair). Spearman uses
                    // pandas rank-once semantics, which only coincides
                    // with the SciPy per-pair reference when neither
                    // column has nulls — column "c" has nulls, so those
                    // cells may differ slightly; require closeness.
                    match (x, z) {
                        (Some(x), Some(z)) if a.method != CorrMethod::Spearman => {
                            assert!((x - z).abs() < 1e-12, "{:?}: {x} vs ref {z}", a.method)
                        }
                        (Some(x), Some(z)) => {
                            assert!((x - z).abs() < 0.15, "spearman: {x} vs ref {z}")
                        }
                        _ => assert_eq!(x, z),
                    }
                }
            }
        }
    }

    #[test]
    fn rank_once_spearman_exact_without_nulls() {
        // On NaN-free columns the pandas and SciPy semantics coincide.
        let df = frame();
        let names = vec!["a".to_string(), "b".to_string()];
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let ours = matrices_two_phase(&mut ctx, &names).unwrap();
        let reference = reference_matrices(&df, &names);
        for (a, r) in ours.iter().zip(&reference) {
            for i in 0..a.size() {
                for j in 0..a.size() {
                    match (a.get(i, j), r.get(i, j)) {
                        (Some(x), Some(z)) => assert!((x - z).abs() < 1e-12),
                        (x, z) => assert_eq!(x, z),
                    }
                }
            }
        }
    }

    #[test]
    fn pairwise_complete_semantics_with_nulls() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _) = compute_correlation_overview(&mut ctx).unwrap();
        let Some(Inter::Correlation(m)) = ims.get("correlation_matrix:Pearson") else {
            panic!()
        };
        // a~b unaffected by c's nulls.
        assert!((m.get_by_name("a", "b").unwrap().unwrap() - 1.0).abs() < 1e-12);
        // a~c defined despite nulls (pairwise complete).
        assert!(m.get_by_name("a", "c").unwrap().is_some());
    }

    #[test]
    fn vector_excludes_self_and_categoricals() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, _) = compute_correlation_vector(&mut ctx, "a").unwrap();
        let Some(Inter::CorrVectors(vs)) = ims.get("correlation_vectors") else {
            panic!()
        };
        assert_eq!(vs.len(), 3); // three methods
        let (_, entries) = &vs[0];
        let names: Vec<&str> = entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn vector_on_categorical_errors() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        assert!(matches!(
            compute_correlation_vector(&mut ctx, "city"),
            Err(EdaError::NotNumeric(_))
        ));
    }

    #[test]
    fn pair_fits_regression() {
        let df = frame();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        let (ims, insights) = compute_correlation_pair(&mut ctx, "a", "b").unwrap();
        let Some(Inter::RegressionScatter { slope, intercept, r2, points }) =
            ims.get("regression_scatter")
        else {
            panic!()
        };
        assert!((slope - 2.0).abs() < 1e-9);
        assert!((intercept - 1.0).abs() < 1e-9);
        assert!((r2 - 1.0).abs() < 1e-9);
        assert!(!points.is_empty());
        assert!(!insights.is_empty());
    }

    #[test]
    fn overview_needs_two_numeric_columns() {
        let df = DataFrame::new(vec![
            ("a".into(), Column::from_f64(vec![1.0, 2.0])),
            ("s".into(), Column::from_strs(&["x", "y"])),
        ])
        .unwrap();
        let cfg = Config::default();
        let mut ctx = ComputeContext::new(&df, &cfg);
        assert!(matches!(
            compute_correlation_overview(&mut ctx),
            Err(EdaError::EmptyInput(_))
        ));
    }
}
