//! Rank computation with tie handling.
//!
//! Spearman correlation is Pearson over ranks; ties receive the average of
//! the ranks they span (the "fractional ranking" Pandas uses by default).
//! Kendall's tau only compares values, so it runs on dense integer ranks.
//! [`ColumnRanks`] derives both, plus the column's value order, from one
//! sort per column.

use crate::interrupt::{interrupted, CHECK_INTERVAL};

/// Dense rank of a null (NaN) row in [`ColumnRanks::dense`].
pub const NULL_RANK: u32 = u32::MAX;

/// Per-column rank state, built from one sort and shared by every
/// correlation pair the column takes part in.
///
/// Rows are indexed by `u32`, so a column holds at most `u32::MAX - 1`
/// rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRanks {
    /// The non-null rows in ascending value order.
    pub order: Vec<u32>,
    /// 0-based dense rank of every row ([`NULL_RANK`] at nulls). Values
    /// that compare `==` share a rank, so `-0.0` and `0.0` tie.
    pub dense: Vec<u32>,
    /// Number of distinct non-null values (one past the largest rank).
    pub distinct: u32,
    /// 1-based mid-ranks (NaN at nulls), as returned by [`ranks`].
    pub mid: Vec<f64>,
}

impl ColumnRanks {
    /// Rank `values` (NaN marks a null).
    pub fn new(values: &[f64]) -> ColumnRanks {
        // Sort (key, row) pairs: the integer key orders like
        // `f64::total_cmp`, except that `-0.0` maps onto `0.0`'s key so
        // `==`-equal values form one run. Ties are ordered by row, which
        // nothing downstream depends on.
        let mut keyed: Vec<(i64, u32)> = Vec::with_capacity(values.len());
        let starts = (0u32..).step_by(CHECK_INTERVAL);
        for (start, chunk) in starts.zip(values.chunks(CHECK_INTERVAL)) {
            if interrupted() {
                break;
            }
            for (row, &v) in (start..).zip(chunk) {
                if !v.is_nan() {
                    keyed.push((total_key(v), row));
                }
            }
        }
        keyed.sort_unstable();

        let mut dense = vec![NULL_RANK; values.len()];
        let mut mid = vec![f64::NAN; values.len()];
        let mut distinct = 0u32;
        let mut start = 0usize;
        let mut next_poll = 0usize;
        for run in keyed.chunk_by(|a, b| a.0 == b.0) {
            if start >= next_poll {
                if interrupted() {
                    break;
                }
                next_poll = start + CHECK_INTERVAL;
            }
            // Positions start..start+len are tied; the mid-rank is the
            // average of their 1-based ranks.
            let rank = (start + start + run.len() - 1) as f64 / 2.0 + 1.0;
            for &(_, row) in run {
                if let Some(d) = dense.get_mut(row as usize) {
                    *d = distinct;
                }
                if let Some(m) = mid.get_mut(row as usize) {
                    *m = rank;
                }
            }
            distinct += 1;
            start += run.len();
        }
        let order = keyed.into_iter().map(|(_, row)| row).collect();
        ColumnRanks { order, dense, distinct, mid }
    }
}

/// `f64::total_cmp`'s integer key, with `-0.0` folded onto `0.0`.
fn total_key(v: f64) -> i64 {
    let v = if v == 0.0 { 0.0 } else { v };
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// 1-based mid-ranks of `values`. NaNs receive NaN ranks.
pub fn ranks(values: &[f64]) -> Vec<f64> {
    ColumnRanks::new(values).mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_values() {
        assert_eq!(ranks(&[30.0, 10.0, 20.0]), vec![3.0, 1.0, 2.0]);
    }

    #[test]
    fn ties_get_mid_rank() {
        // [1, 2, 2, 3] -> ranks [1, 2.5, 2.5, 4]
        assert_eq!(ranks(&[1.0, 2.0, 2.0, 3.0]), vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn all_tied() {
        assert_eq!(ranks(&[5.0, 5.0, 5.0]), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn nan_ranks_stay_nan() {
        let r = ranks(&[2.0, f64::NAN, 1.0]);
        assert_eq!(r[0], 2.0);
        assert!(r[1].is_nan());
        assert_eq!(r[2], 1.0);
    }

    #[test]
    fn empty() {
        assert!(ranks(&[]).is_empty());
    }

    #[test]
    fn column_ranks_share_one_order() {
        let vals = [2.0, f64::NAN, -0.0, 5.0, 0.0, 2.0, f64::NEG_INFINITY];
        let r = ColumnRanks::new(&vals);
        assert_eq!(r.dense, vec![2, NULL_RANK, 1, 3, 1, 2, 0]);
        assert_eq!(r.distinct, 4);
        assert_eq!(r.order.len(), 6);
        assert_eq!(r.order[0], 6);
        assert_eq!(&r.order[5..], &[3]);
        // Signed zeros tie, as `==` says.
        assert_eq!(r.mid[2], 2.5);
        assert_eq!(r.mid[4], 2.5);
        assert!(r.mid[1].is_nan());
    }

    #[test]
    fn rank_sum_invariant() {
        // Sum of ranks of n distinct values is n(n+1)/2 — holds with ties too.
        let vals = [4.0, 1.0, 4.0, 2.0, 9.0, 2.0, 2.0];
        let s: f64 = ranks(&vals).iter().sum();
        let n = vals.len() as f64;
        assert!((s - n * (n + 1.0) / 2.0).abs() < 1e-12);
    }
}
