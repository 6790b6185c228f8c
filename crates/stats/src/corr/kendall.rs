//! Kendall's tau-b via Knight's O(n log n) algorithm over integer ranks.
//!
//! The naive tau is O(n²) in pair comparisons — too slow for the row counts
//! in the paper's Table 2. Knight (1966) orders the pairs by one coordinate
//! and counts discordant pairs as inversions of the other, correcting for
//! ties:
//!
//! `tau_b = (n0 - n1 - n2 + n3 - 2·D) / sqrt((n0 - n1)(n0 - n2))`
//!
//! with `n0 = n(n-1)/2`, `n1`/`n2` tie pair counts in x/y, `n3` joint-tie
//! pairs, `D` discordant pairs — the same formulation SciPy uses.
//!
//! Every column is sorted once into a [`ColumnRanks`] (value order plus
//! dense `u32` ranks); a pair then needs no float comparison at all. It
//! walks x's value order, skipping rows where y is null (pairwise-complete
//! observations), sorts y's ranks inside each x-tie group, and counts
//! inversions with a Fenwick tree over y's distinct ranks. The Fenwick
//! counter is used rather than an inversion-counting merge sort over the
//! ranks because the merge's compare branch mispredicts on unordered
//! input.

use super::complete_pairs;
use crate::interrupt::{interrupted, CHECK_INTERVAL};
use crate::rank::{ColumnRanks, NULL_RANK};

/// Kendall's tau-b over pairwise-complete observations.
///
/// Returns `None` when fewer than 2 complete pairs remain, either side is
/// entirely tied, or the slices differ in length.
pub fn kendall_tau(x: &[f64], y: &[f64]) -> Option<f64> {
    kendall_tau_ranked(&ColumnRanks::new(x), &ColumnRanks::new(y))
}

/// Kendall's tau-b from two columns' shared rank state, over the rows
/// where both are non-null. Equal to [`kendall_tau`] on the columns the
/// ranks were built from.
pub fn kendall_tau_ranked(x: &ColumnRanks, y: &ColumnRanks) -> Option<f64> {
    if x.dense.len() != y.dense.len() {
        return None;
    }
    let rank_at = |ranks: &ColumnRanks, row: u32| {
        ranks.dense.get(row as usize).copied().unwrap_or(NULL_RANK)
    };
    let distinct = y.distinct as usize;
    let mut tree = Fenwick::new(distinct);
    let mut y_counts = vec![0u32; distinct];
    let mut group: Vec<u32> = Vec::new();
    let (mut n, mut n1, mut n3, mut discordant) = (0u64, 0u64, 0u64, 0u64);
    let mut walked = 0usize;
    let mut next_poll = 0usize;
    for x_ties in x.order.chunk_by(|&a, &b| rank_at(x, a) == rank_at(x, b)) {
        if walked >= next_poll {
            if interrupted() {
                return None;
            }
            next_poll = walked + CHECK_INTERVAL;
        }
        walked += x_ties.len();
        group.clear();
        group.extend(x_ties.iter().map(|&row| rank_at(y, row)).filter(|&r| r != NULL_RANK));
        if group.len() > 1 {
            group.sort_unstable();
            n1 += pairs(group.len() as u64);
            for joint in group.chunk_by(|a, b| a == b) {
                n3 += pairs(joint.len() as u64);
            }
        }
        // y ascends within the group, so an earlier member of the same
        // x-tie group never ranks strictly above: only pairs across
        // groups count as discordant.
        for &r in &group {
            discordant += n - tree.prefix_count(r as usize);
            tree.add(r as usize);
            if let Some(c) = y_counts.get_mut(r as usize) {
                *c += 1;
            }
            n += 1;
        }
    }
    if n < 2 {
        return None;
    }
    let n2: u64 = y_counts.iter().map(|&c| pairs(c as u64)).sum();
    let n0 = pairs(n);
    let denom = ((n0 - n1) as f64) * ((n0 - n2) as f64);
    if denom <= 0.0 {
        return None;
    }
    let numer = n0 as f64 - n1 as f64 - n2 as f64 + n3 as f64 - 2.0 * discordant as f64;
    Some(numer / denom.sqrt())
}

/// `k choose 2`.
fn pairs(k: u64) -> u64 {
    k * k.saturating_sub(1) / 2
}

/// O(n log n) tau-b cross-check over the raw `f64` values: it sorts the
/// complete pairs by `(x, y)` and counts discordant pairs with a Fenwick
/// tree over y values rank-compressed by binary search. It shares the
/// Fenwick counter with [`kendall_tau_ranked`], so the independent
/// oracle is [`kendall_tau_quadratic`].
#[doc(hidden)]
pub fn kendall_tau_naive(x: &[f64], y: &[f64]) -> Option<f64> {
    let (mut xs, mut ys) = complete_pairs(x, y);
    // `total_cmp` orders -0.0 before 0.0 while `==` ties them; adding
    // 0.0 folds -0.0 onto 0.0 so sort order and tie runs agree.
    for v in xs.iter_mut().chain(ys.iter_mut()) {
        *v += 0.0;
    }
    let n = xs.len();
    if n < 2 {
        return None;
    }

    // Order by (x, y) — the same primary sort Knight uses, so within an
    // x-tie group y never strictly decreases and within-group pairs are
    // never counted as inversions.
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_unstable_by(|&a, &b| xs[a].total_cmp(&xs[b]).then(ys[a].total_cmp(&ys[b])));

    // Tie-pair counts from run lengths: n1 over x, n2 over y, n3 joint.
    let n0 = pairs(n as u64);
    let mut n1 = 0u64;
    let mut n3 = 0u64;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && xs[idx[j + 1]] == xs[idx[i]] {
            j += 1;
        }
        n1 += pairs((j - i + 1) as u64);
        let mut k = i;
        while k <= j {
            let mut m = k;
            while m < j && ys[idx[m + 1]] == ys[idx[k]] {
                m += 1;
            }
            n3 += pairs((m - k + 1) as u64);
            k = m + 1;
        }
        i = j + 1;
    }

    // Rank-compress y and count y tie pairs from the sorted copy.
    let mut distinct: Vec<f64> = ys.clone();
    distinct.sort_unstable_by(f64::total_cmp);
    let mut n2 = 0u64;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && distinct[j + 1] == distinct[i] {
            j += 1;
        }
        n2 += pairs((j - i + 1) as u64);
        i = j + 1;
    }
    distinct.dedup();

    // Discordant pairs: walk in (x, y) order, and for each element count
    // the already-seen elements with a strictly larger y rank.
    let mut tree = Fenwick::new(distinct.len());
    let mut discordant = 0u64;
    for (seen, &p) in idx.iter().enumerate() {
        // Every y is in `distinct` by construction; the insertion
        // point is the same rank, so a miss cannot miscount.
        let rank = distinct
            .binary_search_by(|v| v.total_cmp(&ys[p]))
            .unwrap_or_else(|pos| pos);
        discordant += seen as u64 - tree.prefix_count(rank);
        tree.add(rank);
    }

    // Same integer identities as the double loop: C + D + (n1 + n2 - n3)
    // covers every pair, so C - D falls out exactly. Signed arithmetic —
    // the degenerate all-tied case drives the partial sums negative.
    let concordant = n0 as i64 - n1 as i64 - n2 as i64 + n3 as i64 - discordant as i64;
    let denom = ((n0 - n1) as f64) * ((n0 - n2) as f64);
    if denom <= 0.0 {
        return None;
    }
    Some((concordant - discordant as i64) as f64 / denom.sqrt())
}

/// O(n²) tau-b over every pair of pairwise-complete observations: the
/// test oracle for the O(n log n) paths. It classifies each pair by
/// comparing values (never subtracting them, which would turn tied
/// infinities into NaN), so it shares no mechanism with either.
#[doc(hidden)]
pub fn kendall_tau_quadratic(x: &[f64], y: &[f64]) -> Option<f64> {
    let (xs, ys) = complete_pairs(x, y);
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let sign = |a: f64, b: f64| (a > b) as i64 - (a < b) as i64;
    let (mut score, mut tx, mut ty) = (0i64, 0u64, 0u64);
    for (i, (&xi, &yi)) in xs.iter().zip(&ys).enumerate() {
        for (&xj, &yj) in xs.iter().zip(&ys).skip(i + 1) {
            let (dx, dy) = (sign(xi, xj), sign(yi, yj));
            tx += (dx == 0) as u64;
            ty += (dy == 0) as u64;
            // +1 concordant, -1 discordant, 0 tied on either side.
            score += dx * dy;
        }
    }
    let n0 = (n * (n - 1) / 2) as f64;
    let denom = (n0 - tx as f64) * (n0 - ty as f64);
    if denom <= 0.0 {
        return None;
    }
    Some(score as f64 / denom.sqrt())
}

/// Fenwick tree over element counts, 0-indexed ranks.
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(size: usize) -> Self {
        Fenwick { tree: vec![0; size + 1] }
    }

    /// Increment the count at `rank`.
    fn add(&mut self, rank: usize) {
        let mut i = rank + 1;
        // eda-lint: allow(EDA-L6) bounded: log2(size) steps
        while let Some(count) = self.tree.get_mut(i) {
            *count += 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Number of inserted elements with rank ≤ `rank`.
    fn prefix_count(&self, rank: usize) -> u64 {
        let mut i = rank + 1;
        let mut total = 0u64;
        // eda-lint: allow(EDA-L6) bounded: log2(size) steps
        while i > 0 {
            total += self.tree.get(i).copied().map_or(0, u64::from);
            i -= i & i.wrapping_neg();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_agreement() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert!((kendall_tau(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_disagreement() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [4.0, 3.0, 2.0, 1.0];
        assert!((kendall_tau(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_value() {
        // scipy.stats.kendalltau([1,2,3,4,5], [2,1,4,3,5]).statistic == 0.6
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [2.0, 1.0, 4.0, 3.0, 5.0];
        assert!((kendall_tau(&x, &y).unwrap() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn ties_handled_as_tau_b() {
        // scipy.stats.kendalltau([1,2,2,3], [1,2,3,4]) ≈ 0.9128709291752769
        let x = [1.0, 2.0, 2.0, 3.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        let tau = kendall_tau(&x, &y).unwrap();
        assert!((tau - 0.912_870_929_175_276_9).abs() < 1e-12, "tau = {tau}");
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(kendall_tau(&[], &[]), None);
        assert_eq!(kendall_tau(&[1.0], &[1.0]), None);
        assert_eq!(kendall_tau(&[2.0, 2.0], &[1.0, 3.0]), None);
    }

    #[test]
    fn nan_pairs_dropped() {
        let x = [1.0, f64::NAN, 2.0, 3.0];
        let y = [1.0, 99.0, 2.0, 3.0];
        assert!((kendall_tau(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fast_matches_naive_on_pseudorandom_data() {
        // Deterministic pseudo-random data with plenty of ties.
        let x: Vec<f64> = (0..300).map(|i| ((i * 37 + 11) % 23) as f64).collect();
        let y: Vec<f64> = (0..300).map(|i| ((i * 53 + 7) % 19) as f64).collect();
        let fast = kendall_tau(&x, &y).unwrap();
        let naive = kendall_tau_naive(&x, &y).unwrap();
        assert!((fast - naive).abs() < 1e-12, "{fast} vs {naive}");
    }

    #[test]
    fn fast_matches_naive_continuous() {
        let x: Vec<f64> = (0..200).map(|i| ((i * 97 + 13) % 541) as f64 / 7.0).collect();
        let y: Vec<f64> = (0..200).map(|i| ((i * 31 + 29) % 769) as f64 / 11.0).collect();
        let fast = kendall_tau(&x, &y).unwrap();
        let naive = kendall_tau_naive(&x, &y).unwrap();
        assert!((fast - naive).abs() < 1e-12);
    }

    #[test]
    fn symmetry() {
        let x = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let y = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0];
        let a = kendall_tau(&x, &y).unwrap();
        let b = kendall_tau(&y, &x).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn ranked_matches_quadratic_on_hostile_values() {
        // Signed zeros tie, infinities order, NaNs drop out pairwise.
        let x = [0.0, -0.0, 1.0, -0.0, f64::NAN, 0.0, f64::INFINITY, -1.0, f64::INFINITY];
        let y = [3.0, 1.0, 2.0, f64::NAN, 5.0, -0.0, 0.0, f64::NEG_INFINITY, 4.0];
        for (a, b) in [(&x, &y), (&y, &x)] {
            let fast = kendall_tau(a, b).unwrap();
            let oracle = kendall_tau_quadratic(a, b).unwrap();
            assert_eq!(fast.to_bits(), oracle.to_bits(), "{fast} vs {oracle}");
            assert_eq!(kendall_tau_naive(a, b).unwrap().to_bits(), oracle.to_bits());
        }
    }

    #[test]
    fn ranked_reuses_column_ranks() {
        let x: Vec<f64> = (0..300).map(|i| ((i * 37 + 11) % 23) as f64).collect();
        let y: Vec<f64> = (0..300)
            .map(|i| if i % 9 == 0 { f64::NAN } else { ((i * 53 + 7) % 19) as f64 })
            .collect();
        let (rx, ry) = (ColumnRanks::new(&x), ColumnRanks::new(&y));
        let fast = kendall_tau_ranked(&rx, &ry).unwrap();
        assert_eq!(fast.to_bits(), kendall_tau_ranked(&ry, &rx).unwrap().to_bits());
        assert_eq!(fast.to_bits(), kendall_tau_quadratic(&x, &y).unwrap().to_bits());
        assert_eq!(kendall_tau_ranked(&rx, &ColumnRanks::new(&[1.0])), None);
    }

    #[test]
    fn fenwick_reference_matches_quadratic_oracle() {
        let x: Vec<f64> = (0..300).map(|i| ((i * 37 + 11) % 23) as f64).collect();
        let y: Vec<f64> = (0..300).map(|i| ((i * 53 + 7) % 19) as f64).collect();
        let fenwick = kendall_tau_naive(&x, &y).unwrap();
        let oracle = kendall_tau_quadratic(&x, &y).unwrap();
        assert!((fenwick - oracle).abs() < 1e-12, "{fenwick} vs {oracle}");
        let xc: Vec<f64> = (0..150).map(|i| ((i * 97 + 13) % 541) as f64 / 7.0).collect();
        let yc: Vec<f64> = (0..150).map(|i| ((i * 31 + 29) % 769) as f64 / 11.0).collect();
        let fenwick = kendall_tau_naive(&xc, &yc).unwrap();
        let oracle = kendall_tau_quadratic(&xc, &yc).unwrap();
        assert!((fenwick - oracle).abs() < 1e-12);
    }

    #[test]
    fn fenwick_reference_degenerate_cases() {
        assert_eq!(kendall_tau_naive(&[], &[]), None);
        assert_eq!(kendall_tau_naive(&[1.0], &[1.0]), None);
        // All-tied sides must return None without underflowing the
        // signed pair identities.
        assert_eq!(kendall_tau_naive(&[2.0, 2.0], &[1.0, 3.0]), None);
        assert_eq!(kendall_tau_naive(&[2.0, 2.0, 2.0], &[2.0, 2.0, 2.0]), None);
        let x = [1.0, f64::NAN, 2.0, 3.0];
        let y = [1.0, 99.0, 2.0, 3.0];
        assert!((kendall_tau_naive(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }
}
