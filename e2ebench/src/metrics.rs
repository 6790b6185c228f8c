//! Summary statistics, the metric-name grammar, and the result line.

use crate::json::escape;

/// Median of `xs` (mean of the middle pair for even counts); `0.0` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples: the smallest rank whose share of samples is at least `p`%.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    // Round the product to a millionth first so 90% of 110 is rank 99,
    // not 100 through float error.
    let exact = (p / 100.0 * n as f64 * 1e6).round() / 1e6;
    (exact.ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` of `xs`; `0.0` when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), p) - 1]
}

/// Samples ranked strictly above percentile `p` among `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// The percentiles a tail may be reported at, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, or `None` when even the median
/// has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && samples_beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Build a metric; non-finite values (0/0 ratios) read as zero.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        let value = if value.is_finite() { value } else { 0.0 };
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result object printed as the last line of standard output.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                fmt_number(m.value),
                escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number with every digit the value carries.
fn fmt_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // Fewer than 20 samples: not even the median has ten beyond it.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(3), None);
        assert_eq!(tail_percentile(19), None);
        // 20 samples: rank 10 is the median, ten lie beyond.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        // p90 needs 100 samples (rank 90, ten beyond); 99 leaves nine.
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(110), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 0..3000 {
            if let Some(p) = tail_percentile(n) {
                assert!(samples_beyond(n, p) >= TAIL_MIN_BEYOND, "n={n} p={p}");
                let higher = TAIL_LADDER.iter().find(|&&q| q > p);
                if let Some(&q) = higher {
                    assert!(samples_beyond(n, q) < TAIL_MIN_BEYOND, "n={n} q={q}");
                }
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&xs, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(nearest_rank(110, 90.0), 99);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn name_grammar() {
        for ok in [
            "setup_s",
            "io.load_ms",
            "task.corr_matrix.busy_ms",
            "report-hotel-csv",
            "p90",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_x",
            ".x",
            "-x",
            "a b",
            "a/b",
            "µs",
            "x\"",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn result_line_is_json_with_all_digits() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric::new("a.b", 1.0 / 3.0, "ms"),
                Metric::new("n", 42.0, "count"),
            ],
        );
        let v = crate::json::parse(&line).unwrap();
        let a = v.get("metrics").and_then(|m| m.get("a.b")).unwrap();
        assert_eq!(a.get("value").and_then(|x| x.as_f64()), Some(1.0 / 3.0));
        assert_eq!(a.get("unit").and_then(|x| x.as_str()), Some("ms"));
        assert_eq!(v.get("attempted").and_then(|x| x.as_f64()), Some(3.0));
        assert_eq!(Metric::new("z", f64::NAN, "ms").value, 0.0);
    }
}
