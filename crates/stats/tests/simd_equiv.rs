//! Property tests pinning the lane-kernel contract: every slice entry
//! point (`Moments::push_slice`, `Histogram::from_values` /
//! `fill_slice`, `PearsonPartial::push_slices`,
//! `missing::nullity_correlation`) agrees with the per-value reference
//! loop over the same data — integer-exact statistics bitwise, float
//! moments up to summation order — for arbitrary data, including NaN,
//! infinities, signed zeros, all-null slices, and single-distinct
//! columns. Whether AVX2 or the autovectorized fallback runs underneath
//! does not matter: the two are bit-identity-tested inside
//! `eda_stats::vector`.

// Test code asserts freely; the package-level unwrap/expect deny
// targets shipped code.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use eda_stats::corr::PearsonPartial;
use eda_stats::histogram::Histogram;
use eda_stats::missing::nullity_correlation;
use eda_stats::moments::Moments;
use eda_stats::vector::count_joint;
use proptest::prelude::*;

/// Reference: the streaming Welford update, one value at a time.
fn moments_ref(vals: &[f64]) -> Moments {
    let mut m = Moments::new();
    for &v in vals {
        m.push(v);
    }
    m
}

/// Reference: a finite-extrema scan, then one `push` per value.
fn histogram_ref(vals: &[f64], bins: usize) -> Histogram {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in vals {
        if v.is_finite() {
            min = min.min(v);
            max = max.max(v);
        }
    }
    let mut h = Histogram::new(min, max, bins);
    for &v in vals {
        h.push(v);
    }
    h
}

/// Reference: one co-moment update per pair.
fn pearson_ref(x: &[f64], y: &[f64]) -> PearsonPartial {
    let mut p = PearsonPartial::new();
    for (a, b) in x.iter().zip(y) {
        p.push(*a, *b);
    }
    p
}

/// Finite values mixed with every special class the kernels classify.
fn any_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => -1.0e6..1.0e6f64,
        1 => Just(f64::NAN),
        1 => prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(0.0), Just(-0.0)],
    ]
}

fn values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(any_value(), 0..300)
}

proptest! {
    #[test]
    fn moments_slice_matches_push_loop(vals in values()) {
        let (s, v) = (moments_ref(&vals), Moments::from_slice(&vals));
        // Counters, extrema, and the valid count are exact integers /
        // exact comparisons in both — they must match bitwise.
        prop_assert_eq!(s.count, v.count);
        prop_assert_eq!(s.zeros, v.zeros);
        prop_assert_eq!(s.negatives, v.negatives);
        prop_assert_eq!(s.infinites, v.infinites);
        prop_assert_eq!(s.nans, v.nans);
        // Power sums differ only in association order; extrema are exact.
        if s.count > 0 {
            prop_assert_eq!(s.min.to_bits(), v.min.to_bits());
            prop_assert_eq!(s.max.to_bits(), v.max.to_bits());
            prop_assert!((s.mean - v.mean).abs() <= 1e-9 * (1.0 + s.mean.abs()));
            prop_assert!((s.m2 - v.m2).abs() <= 1e-6 * (1.0 + s.m2.abs()));
        }
    }

    #[test]
    fn moments_all_null_and_single_distinct(x in -1.0e6..1.0e6f64, n in 1usize..200) {
        let nulls = vec![f64::NAN; n];
        let (s, v) = (moments_ref(&nulls), Moments::from_slice(&nulls));
        prop_assert_eq!(s.count, 0);
        prop_assert_eq!(v.count, 0);
        prop_assert_eq!(s.nans, n as u64);
        prop_assert_eq!(v.nans, n as u64);

        let constant = vec![x; n];
        let (s, v) = (moments_ref(&constant), Moments::from_slice(&constant));
        prop_assert_eq!(s.count, v.count);
        prop_assert_eq!(s.min.to_bits(), v.min.to_bits());
        prop_assert_eq!(s.max.to_bits(), v.max.to_bits());
        prop_assert_eq!(s.mean.to_bits(), v.mean.to_bits());
        prop_assert_eq!(s.m2.to_bits(), v.m2.to_bits());
    }

    #[test]
    fn histogram_from_values_matches_push_loop(vals in values(), bins in 1usize..48) {
        // One bin rule: grid, every bin count, and the out-of-range /
        // non-finite classification are identical to the push loop's.
        prop_assert_eq!(Histogram::from_values(&vals, bins), histogram_ref(&vals, bins));
    }

    #[test]
    fn histogram_any_width_bitwise(
        raw in prop::collection::vec(-5120i32..5120, 0..300),
        lo in -300i32..0,
        span in 1i32..600,
        bins in 1usize..48,
    ) {
        // Tenths on arbitrary (mostly non-power-of-two) widths: plenty of
        // values sit on or next to bin boundaries, where `/ width` and
        // `* (1 / width)` round differently. Push and the slice fill
        // share the reciprocal rule, so they agree bin for bin.
        let vals: Vec<f64> = raw.iter().map(|&v| f64::from(v) / 10.0).collect();
        let (min, max) = (f64::from(lo), f64::from(lo + span));
        let mut s = Histogram::new(min, max, bins);
        for &v in &vals {
            s.push(v);
        }
        let mut v = Histogram::new(min, max, bins);
        v.fill_slice(&vals);
        prop_assert_eq!(&s.counts, &v.counts);
        prop_assert_eq!(s.underflow, v.underflow);
        prop_assert_eq!(s.overflow, v.overflow);
    }

    #[test]
    fn pearson_slices_match_push_loop(
        // Finite values plus NaN: the NaN pair-mask is exact in both, but
        // an infinity turns the second moments into NaN by different
        // (order-dependent) propagation paths.
        x in prop::collection::vec(
            prop_oneof![9 => -1.0e6..1.0e6f64, 1 => Just(f64::NAN)], 0..200),
        y in prop::collection::vec(
            prop_oneof![9 => -1.0e6..1.0e6f64, 1 => Just(f64::NAN)], 0..200),
    ) {
        let s = pearson_ref(&x, &y);
        let mut v = PearsonPartial::new();
        v.push_slices(&x, &y);
        prop_assert_eq!(s.n, v.n);
        let (sc, vc) = (s.finish(), v.finish());
        prop_assert_eq!(sc.is_some(), vc.is_some());
        if let (Some(a), Some(b)) = (sc, vc) {
            prop_assert!((a - b).abs() <= 1e-6);
        }
    }

    #[test]
    fn nullity_correlation_matches_push_loop(
        cols in prop::collection::vec(prop::collection::vec(any::<bool>(), 120), 1..6),
        sparse in 0usize..3,
    ) {
        // Some columns all-present or single-null, so the undefined
        // (zero-variance) cells are exercised too.
        let mut cols = cols;
        for c in cols.iter_mut().take(sparse) {
            c.iter_mut().enumerate().for_each(|(i, b)| *b = i == 7);
        }
        if let Some(c) = cols.get_mut(sparse) {
            c.iter_mut().for_each(|b| *b = false);
        }
        let named: Vec<(String, Vec<bool>)> =
            cols.iter().enumerate().map(|(i, c)| (format!("c{i}"), c.clone())).collect();
        let got = nullity_correlation(&named);
        let ind: Vec<Vec<f64>> =
            cols.iter().map(|c| c.iter().map(|&b| f64::from(u8::from(b))).collect()).collect();
        for i in 0..cols.len() {
            prop_assert_eq!(got[i][i], Some(1.0));
            for j in (i + 1)..cols.len() {
                let want = pearson_ref(&ind[i], &ind[j]).finish();
                prop_assert_eq!(got[i][j].is_some(), want.is_some(), "cell {} x {}", i, j);
                if let (Some(a), Some(b)) = (got[i][j], want) {
                    prop_assert!((a - b).abs() <= 1e-12, "cell {} x {}: {} vs {}", i, j, a, b);
                }
                prop_assert_eq!(got[i][j].map(f64::to_bits), got[j][i].map(f64::to_bits));
            }
        }
    }

    #[test]
    fn count_joint_matches_naive_zip(
        a in prop::collection::vec(any::<bool>(), 0..4000),
        b in prop::collection::vec(any::<bool>(), 0..4000),
    ) {
        let naive = a.iter().zip(&b).fold((0u64, 0u64, 0u64), |(na, nb, nab), (&x, &y)| {
            (na + u64::from(x), nb + u64::from(y), nab + u64::from(x && y))
        });
        prop_assert_eq!(count_joint(&a, &b), naive);
    }
}
