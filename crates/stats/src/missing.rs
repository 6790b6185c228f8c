//! Missing-value analysis kernels.
//!
//! `plot_missing(df)` (paper Figure 2, row 8) shows four views of nullity:
//! a per-column bar chart, a *missing spectrum* (which row ranges are
//! missing-heavy), a nullity correlation heatmap, and a dendrogram grouping
//! columns by co-missingness. These kernels work on per-column null
//! indicator vectors and are independent of the dataframe crate.

/// Per-column missing-rate summary for the bar chart.
#[derive(Debug, Clone, PartialEq)]
pub struct MissingSummary {
    /// Column label.
    pub label: String,
    /// Null count.
    pub nulls: usize,
    /// Total rows.
    pub total: usize,
}

impl MissingSummary {
    /// Fraction of rows missing.
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.nulls as f64 / self.total as f64
        }
    }
}

/// The missing spectrum: row-bin × column missing counts.
///
/// Rows are grouped into `bins` contiguous ranges; each cell counts the
/// nulls of one column within one range, which visualizes *where* in the
/// file the missing values cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct MissingSpectrum {
    /// Column labels.
    pub labels: Vec<String>,
    /// Half-open row ranges, one per bin.
    pub row_ranges: Vec<(usize, usize)>,
    /// `bins × columns` null counts, row-major by bin.
    pub counts: Vec<Vec<usize>>,
}

/// Compute the missing spectrum from null-indicator vectors
/// (`true` = missing).
pub fn missing_spectrum(columns: &[(String, Vec<bool>)], bins: usize) -> MissingSpectrum {
    let labels: Vec<String> = columns.iter().map(|(n, _)| n.clone()).collect();
    let nrows = columns.first().map_or(0, |(_, v)| v.len());
    let bins = bins.max(1).min(nrows.max(1));
    let chunk = nrows.div_ceil(bins).max(1);
    let mut row_ranges = Vec::new();
    let mut counts = Vec::new();
    let mut start = 0;
    while start < nrows {
        let end = (start + chunk).min(nrows);
        row_ranges.push((start, end));
        counts.push(
            columns
                .iter()
                .map(|(_, nulls)| nulls[start..end].iter().filter(|&&b| b).count())
                .collect(),
        );
        start = end;
    }
    if nrows == 0 {
        row_ranges.push((0, 0));
        counts.push(vec![0; columns.len()]);
    }
    MissingSpectrum { labels, row_ranges, counts }
}

/// Nullity correlation matrix: Pearson correlation between the null
/// indicators of column pairs (the Missingno heatmap).
///
/// Columns with no nulls (or all nulls) have undefined correlation and
/// yield `None` cells. On 0/1 indicators Pearson collapses to three
/// popcounts per pair (`vector::bool_pearson`), so no float
/// copy of the indicators is made.
pub fn nullity_correlation(columns: &[(String, Vec<bool>)]) -> Vec<Vec<Option<f64>>> {
    let m = columns.len();
    let mut out = vec![vec![None; m]; m];
    for i in 0..m {
        out[i][i] = Some(1.0);
        for j in (i + 1)..m {
            let r = crate::vector::bool_pearson(&columns[i].1, &columns[j].1);
            out[i][j] = r;
            out[j][i] = r;
        }
    }
    out
}

/// One merge step of the dendrogram: clusters `a` and `b` joined at
/// `distance`, forming cluster `a.min(b)`'s successor.
#[derive(Debug, Clone, PartialEq)]
pub struct DendrogramMerge {
    /// Index of the first merged cluster (column index or earlier merge id).
    pub left: usize,
    /// Index of the second merged cluster.
    pub right: usize,
    /// Join distance.
    pub distance: f64,
    /// Number of leaves under the new cluster.
    pub size: usize,
}

/// Agglomerative clustering (average linkage) of columns by nullity
/// pattern distance.
///
/// Distance between columns is the fraction of rows where their null
/// indicators disagree (normalized Hamming distance). Merge ids follow the
/// SciPy convention: leaves are `0..m`, the `k`-th merge creates id `m+k`.
pub fn nullity_dendrogram(columns: &[(String, Vec<bool>)]) -> Vec<DendrogramMerge> {
    let m = columns.len();
    if m < 2 {
        return Vec::new();
    }
    let nrows = columns[0].1.len().max(1);

    // Pairwise distances between active clusters; clusters hold leaf sets.
    let mut clusters: Vec<Option<Vec<usize>>> = (0..m).map(|i| Some(vec![i])).collect();
    let mut ids: Vec<usize> = (0..m).collect();
    let base: Vec<Vec<f64>> = {
        let mut d = vec![vec![0.0; m]; m];
        for i in 0..m {
            for j in (i + 1)..m {
                let disagree = columns[i]
                    .1
                    .iter()
                    .zip(&columns[j].1)
                    .filter(|(a, b)| a != b)
                    .count();
                let dist = disagree as f64 / nrows as f64;
                d[i][j] = dist;
                d[j][i] = dist;
            }
        }
        d
    };

    let avg_dist = |a: &[usize], b: &[usize]| -> f64 {
        let mut sum = 0.0;
        for &i in a {
            for &j in b {
                sum += base[i][j];
            }
        }
        sum / (a.len() * b.len()) as f64
    };

    let mut merges = Vec::with_capacity(m - 1);
    let mut next_id = m;
    for _ in 0..(m - 1) {
        // Find the closest active pair (deterministic tie-break by index).
        let mut best: Option<(usize, usize, f64)> = None;
        #[allow(clippy::needless_range_loop)] // paired index access below
        for i in 0..clusters.len() {
            let Some(a) = &clusters[i] else { continue };
            for j in (i + 1)..clusters.len() {
                let Some(b) = &clusters[j] else { continue };
                let d = avg_dist(a, b);
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((i, j, d));
                }
            }
        }
        // `m - 1` merge rounds over `m` initial clusters always leave an
        // active pair; if that invariant ever breaks, stop merging early
        // (a truncated dendrogram) rather than panic mid-report.
        let Some((i, j, d)) = best else { break };
        let (Some(a), Some(b)) = (clusters[i].take(), clusters[j].take()) else { break };
        let size = a.len() + b.len();
        merges.push(DendrogramMerge { left: ids[i], right: ids[j], distance: d, size });
        let mut merged = a;
        merged.extend(b);
        clusters.push(Some(merged));
        ids.push(next_id);
        next_id += 1;
    }
    merges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nulls(pattern: &str) -> Vec<bool> {
        pattern.chars().map(|c| c == '1').collect()
    }

    #[test]
    fn summary_rate() {
        let s = MissingSummary { label: "a".into(), nulls: 3, total: 12 };
        assert!((s.rate() - 0.25).abs() < 1e-12);
        let z = MissingSummary { label: "b".into(), nulls: 0, total: 0 };
        assert_eq!(z.rate(), 0.0);
    }

    #[test]
    fn spectrum_counts_by_bin() {
        let cols = vec![
            ("a".into(), nulls("11000000")),
            ("b".into(), nulls("00000011")),
        ];
        let sp = missing_spectrum(&cols, 2);
        assert_eq!(sp.row_ranges, vec![(0, 4), (4, 8)]);
        assert_eq!(sp.counts[0], vec![2, 0]);
        assert_eq!(sp.counts[1], vec![0, 2]);
    }

    #[test]
    fn spectrum_more_bins_than_rows() {
        let cols = vec![("a".into(), nulls("10"))];
        let sp = missing_spectrum(&cols, 10);
        assert_eq!(sp.row_ranges.len(), 2);
        let total: usize = sp.counts.iter().map(|r| r[0]).sum();
        assert_eq!(total, 1);
    }

    #[test]
    fn spectrum_empty_frame() {
        let cols = vec![("a".into(), Vec::new())];
        let sp = missing_spectrum(&cols, 4);
        assert_eq!(sp.row_ranges, vec![(0, 0)]);
        assert_eq!(sp.counts, vec![vec![0]]);
    }

    #[test]
    fn nullity_corr_detects_co_missingness() {
        let cols = vec![
            ("a".into(), nulls("11001100")),
            ("b".into(), nulls("11001100")), // identical pattern: r = 1
            ("c".into(), nulls("00110011")), // inverted: r = -1
            ("d".into(), nulls("00000000")), // no nulls: undefined
        ];
        let m = nullity_correlation(&cols);
        assert!((m[0][1].unwrap() - 1.0).abs() < 1e-12);
        assert!((m[0][2].unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(m[0][3], None);
        assert_eq!(m[3][3], Some(1.0));
    }

    #[test]
    fn dendrogram_merges_similar_columns_first() {
        let cols = vec![
            ("a".into(), nulls("11110000")),
            ("b".into(), nulls("11100000")), // distance 1/8 to a
            ("c".into(), nulls("00001111")), // far from both
        ];
        let merges = nullity_dendrogram(&cols);
        assert_eq!(merges.len(), 2);
        // First merge is a+b (leaves 0 and 1).
        assert_eq!((merges[0].left, merges[0].right), (0, 1));
        assert!((merges[0].distance - 0.125).abs() < 1e-12);
        assert_eq!(merges[0].size, 2);
        // Second merge joins leaf 2 with cluster id 3 (= m + 0).
        assert_eq!(merges[1].right, 3);
        assert_eq!(merges[1].left, 2);
        assert_eq!(merges[1].size, 3);
    }

    #[test]
    fn dendrogram_degenerate() {
        assert!(nullity_dendrogram(&[]).is_empty());
        assert!(nullity_dendrogram(&[("a".into(), nulls("10"))]).is_empty());
    }

    #[test]
    fn dendrogram_identical_columns_distance_zero() {
        let cols = vec![
            ("a".into(), nulls("1010")),
            ("b".into(), nulls("1010")),
        ];
        let merges = nullity_dendrogram(&cols);
        assert_eq!(merges[0].distance, 0.0);
    }
}
