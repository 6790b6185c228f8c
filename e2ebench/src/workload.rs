//! The three workloads: their dataset shapes, how their input files are
//! made from a seed, and the session's call list.

use std::path::{Path, PathBuf};

use eda_core::{Analysis, Config, EdaResult, SemanticType};
use eda_dataframe::DataFrame;
use eda_datagen::{bitcoin::bitcoin_spec, generate, kaggle_spec_by_name, DatasetSpec};

use crate::spans::Recorder;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hotel shape as CSV → `create_report` (cache off) → HTML.
    ReportHotelCsv,
    /// Bitcoin shape at 500k rows as `.edaf` → `create_report` (cache
    /// off) → HTML.
    ReportBitcoinEdaf,
    /// Conflicts shape as CSV, then a fixed ~100-call interactive
    /// session with the result cache on.
    SessionConflicts,
}

/// Rows of the bitcoin workload.
pub const BITCOIN_ROWS: usize = 500_000;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ReportHotelCsv,
        Workload::ReportBitcoinEdaf,
        Workload::SessionConflicts,
    ];

    /// The name the benchmark is invoked with.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReportHotelCsv => "report-hotel-csv",
            Workload::ReportBitcoinEdaf => "report-bitcoin-edaf",
            Workload::SessionConflicts => "session-conflicts",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether this is the interactive session (cache on, many calls).
    pub fn is_session(self) -> bool {
        self == Workload::SessionConflicts
    }

    /// The dataset shape, with rows multiplied by `scale` (1.0 for the
    /// real benchmark; the self-tests shrink it).
    pub fn spec(self, scale: f64) -> DatasetSpec {
        let spec = match self {
            Workload::ReportHotelCsv => kaggle_spec_by_name("hotel"),
            Workload::ReportBitcoinEdaf => Some(bitcoin_spec(BITCOIN_ROWS)),
            Workload::SessionConflicts => kaggle_spec_by_name("conflicts"),
        }
        .expect("Table 2 shape exists");
        if scale == 1.0 {
            spec
        } else {
            spec.scaled(scale)
        }
    }

    /// The input file the workload loads, inside `dir`.
    pub fn input_path(self, dir: &Path) -> PathBuf {
        match self {
            Workload::ReportBitcoinEdaf => dir.join("input.edaf"),
            _ => dir.join("input.csv"),
        }
    }

    /// The configuration the workload's calls run with: defaults for
    /// the session; the result cache off for the report workloads, so
    /// each report computes in full. `profile` turns on tracing.
    pub fn config(self, profile: bool) -> Config {
        if self.is_session() {
            let pairs = if profile {
                vec![("engine.profile", "true")]
            } else {
                Vec::new()
            };
            Config::from_pairs(pairs).expect("known config keys")
        } else {
            report_config(profile)
        }
    }
}

/// Defaults with the result cache off (`engine.cache_budget_bytes=0`),
/// plus tracing when `profile`.
pub fn report_config(profile: bool) -> Config {
    let mut pairs = vec![("engine.cache_budget_bytes", "0")];
    if profile {
        pairs.push(("engine.profile", "true"));
    }
    Config::from_pairs(pairs).expect("known config keys")
}

/// What set-up left on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    /// The file the workload loads.
    pub path: PathBuf,
    /// Its size.
    pub bytes: u64,
    /// Rows × columns of the generated frame.
    pub rows: usize,
    /// Columns of the generated frame.
    pub cols: usize,
    /// Content fingerprint of the generated frame.
    pub fingerprint: u64,
}

/// Generate the workload's frame from `seed` and write its input file
/// into `dir`: CSV through the frame writer, or the `.edaf` columnar
/// format for the `.edaf` workload. Each step is a span under `parent`.
pub fn write_input(
    w: Workload,
    seed: u64,
    scale: f64,
    dir: &Path,
    rec: &mut Recorder,
    parent: u64,
) -> Result<Input, String> {
    let (df, _) = rec.time("generate", parent, || generate(&w.spec(scale), seed));
    let path = w.input_path(dir);
    let written = if w == Workload::ReportBitcoinEdaf {
        rec.time("write_edaf", parent, || {
            eda_io::write_edaf(&path, &df).map(drop)
        })
        .0
        .map_err(|e| e.to_string())
    } else {
        rec.time("write_csv", parent, || {
            eda_dataframe::csv::write_csv(&df, &path)
        })
        .0
        .map_err(|e| e.to_string())
    };
    written.map_err(|e| format!("writing {}: {e}", path.display()))?;
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    Ok(Input {
        path,
        bytes,
        rows: df.nrows(),
        cols: df.ncols(),
        fingerprint: df.content_fingerprint(),
    })
}

/// One call of the interactive session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    /// `plot(df, cols)`.
    Plot(Vec<String>),
    /// `plot_missing(df, cols)`.
    Missing(Vec<String>),
    /// `plot_correlation(df, cols)`.
    Correlation(Vec<String>),
    /// `create_report(df)`.
    Report,
}

impl Call {
    /// Span name, e.g. `plot_missing(num0,num3)`.
    pub fn label(&self) -> String {
        let (f, cols) = match self {
            Call::Plot(c) => ("plot", c),
            Call::Missing(c) => ("plot_missing", c),
            Call::Correlation(c) => ("plot_correlation", c),
            Call::Report => return "create_report()".into(),
        };
        format!("{f}({})", cols.join(","))
    }

    /// Run the call's computation (not its rendering). `create_report`
    /// returns a `Report`, not an `Analysis`; callers handle it apart.
    pub fn run(&self, df: &DataFrame, config: &Config) -> EdaResult<Analysis> {
        type Entry = fn(&DataFrame, &[&str], &Config) -> EdaResult<Analysis>;
        let (entry, cols): (Entry, &Vec<String>) = match self {
            Call::Plot(c) => (eda_core::plot, c),
            Call::Missing(c) => (eda_core::plot_missing, c),
            Call::Correlation(c) => (eda_core::plot_correlation, c),
            Call::Report => panic!("create_report is run through its own path"),
        };
        let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
        entry(df, &cols, config)
    }
}

/// Columns the missing-impact calls look at.
pub const MISSING_IMPACT_COLUMNS: usize = 8;

/// The session's calls, in order — a Figure 5 mix of every granularity:
/// overview, each column, adjacent column pairs; the missing-value
/// overview, impact of 8 columns (those with nulls first) and adjacent
/// pairs; the correlation overview, each numeric column and adjacent
/// numeric pairs; and finally the full report, which by then must be
/// served entirely from the result cache.
pub fn session_calls(df: &DataFrame, config: &Config) -> Vec<Call> {
    let names: Vec<String> = df.names().to_vec();
    let numeric: Vec<String> = df
        .iter()
        .filter(|(_, c)| {
            eda_core::dtype::detect(c, config.types.low_cardinality) == SemanticType::Numerical
        })
        .map(|(n, _)| n.to_string())
        .collect();
    let pairs =
        |cols: &[String]| -> Vec<Vec<String>> { cols.windows(2).map(|w| w.to_vec()).collect() };
    let mut with_nulls: Vec<String> = df
        .iter()
        .filter(|(_, c)| c.null_count() > 0)
        .map(|(n, _)| n.to_string())
        .collect();
    with_nulls.extend(
        names
            .iter()
            .filter(|n| !with_nulls.contains(n))
            .cloned()
            .collect::<Vec<_>>(),
    );
    with_nulls.truncate(MISSING_IMPACT_COLUMNS);

    let mut calls = vec![Call::Plot(Vec::new())];
    calls.extend(names.iter().map(|n| Call::Plot(vec![n.clone()])));
    calls.extend(pairs(&names).into_iter().map(Call::Plot));
    calls.push(Call::Missing(Vec::new()));
    calls.extend(with_nulls.into_iter().map(|n| Call::Missing(vec![n])));
    calls.extend(pairs(&names).into_iter().map(Call::Missing));
    calls.push(Call::Correlation(Vec::new()));
    calls.extend(numeric.iter().map(|n| Call::Correlation(vec![n.clone()])));
    calls.extend(pairs(&numeric).into_iter().map(Call::Correlation));
    calls.push(Call::Report);
    calls
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_valid() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::metrics::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn shapes_match_table_2() {
        let hotel = Workload::ReportHotelCsv.spec(1.0);
        assert_eq!((hotel.rows, hotel.columns.len()), (119_000, 32));
        let btc = Workload::ReportBitcoinEdaf.spec(1.0);
        assert_eq!((btc.rows, btc.columns.len()), (500_000, 8));
        let conflicts = Workload::SessionConflicts.spec(1.0);
        assert_eq!((conflicts.rows, conflicts.columns.len()), (34_000, 25));
    }

    #[test]
    fn session_mix_covers_every_granularity() {
        let df = generate(&Workload::SessionConflicts.spec(0.02), 1);
        let calls = session_calls(&df, &Config::default());
        let labels: Vec<String> = calls.iter().map(Call::label).collect();
        assert_eq!(labels[0], "plot()");
        assert_eq!(labels.last().map(String::as_str), Some("create_report()"));
        let count = |f: fn(&Call) -> bool| calls.iter().filter(|c| f(c)).count();
        // 1 + 25 + 24 plot, 1 + 8 + 24 missing, 1 + numeric + pairs corr.
        assert_eq!(count(|c| matches!(c, Call::Plot(_))), 50);
        assert_eq!(count(|c| matches!(c, Call::Missing(_))), 33);
        assert!(count(|c| matches!(c, Call::Correlation(_))) >= 3);
        assert!(calls.len() >= 100, "{}", calls.len());
        // The impact calls pick columns that actually have nulls.
        for c in &calls {
            if let Call::Missing(cols) = c {
                if cols.len() == 1 {
                    assert!(df.column(&cols[0]).unwrap().null_count() > 0, "{cols:?}");
                }
            }
        }
    }
}
