//! Parallel chunked CSV ingestion.
//!
//! The pipeline (DESIGN.md §16):
//!
//! ```text
//! bytes ──► boundary scan ──► chunk specs ──► pool: parse chunk i ──► fold
//!           (1 streaming       (offset,len,     (independent tasks,     (widen → cast/
//!            pass, O(1)         first_record)    taskgraph workers)      repair → concat)
//!            state)
//! ```
//!
//! * The **boundary scan** streams the source once through the
//!   quote-aware [`BoundaryScanner`], producing `~chunk_bytes` spans
//!   that end on record boundaries, and marks where the leading
//!   type-inference sample ends — the *same* first `infer_rows` records
//!   `read_csv_str` samples, which is what makes the final frame
//!   independent of the chunking.
//! * **Chunk tasks** run on the shared worker pool via
//!   [`eda_taskgraph::ingest`]: each reads its own byte range
//!   (positional `pread` or an in-memory subslice — never a shared
//!   cursor), validates UTF-8, and parses to typed columns with
//!   [`parse_chunk`], the workspace's one CSV parser. Raw field strings
//!   live only for one chunk, so peak staging memory is
//!   O(chunk × workers), not O(file).
//! * The **fold** joins per-chunk schemas under the widening lattice,
//!   promotes i64 chunks to f64 numerically (bit-identical to
//!   re-parsing), re-reads the rare chunks whose column widened to
//!   `Str` ("widening repair" — exact raw spellings recovered from the
//!   source), and concatenates in chunk-index order.
//!
//! A file that fits one chunk takes the same path as one of many
//! chunks: one scan, one parse task, a fold over one part.

use std::path::Path;
use std::sync::Arc;

use eda_dataframe::csv::chunk::{
    self, cast_int_to_float, global_schema, needs_text_repair, parse_chunk, sample_schema,
    BoundaryScanner, ChunkSpec, ParsedChunk,
};
use eda_dataframe::csv::{utf8_error, CsvOptions};
use eda_dataframe::{Column, DataFrame, DataType, Error, Result};
use eda_taskgraph::cache::PayloadSizer;
use eda_taskgraph::ingest::run_chunk_tasks;
use eda_taskgraph::scheduler::ExecOptions;

use crate::source::ByteSource;

/// Block size of the boundary-scan streaming pass.
const SCAN_BLOCK_BYTES: usize = 256 * 1024;

/// Knobs for chunked ingestion. `exec` carries the run-level governance
/// (cancel token, memory gauge, retries, tracing) checked at every chunk
/// boundary by the pool scheduler.
#[derive(Clone)]
pub struct IngestOptions {
    /// CSV dialect and inference options (shared with `read_csv_str`).
    pub csv: CsvOptions,
    /// Target chunk size in bytes (default 8 MiB; clamped to ≥ 1).
    pub chunk_bytes: usize,
    /// Worker threads for the parse pool (`engine.workers`).
    pub workers: usize,
    /// Scheduler options for the chunk tasks (cancellation, budgets,
    /// retries, tracing, metrics).
    pub exec: ExecOptions,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            csv: CsvOptions::default(),
            chunk_bytes: 8 * 1024 * 1024,
            workers: std::thread::available_parallelism().map_or(4, |n| n.get()),
            exec: ExecOptions::default(),
        }
    }
}

/// Everything the parallel phase needs, produced by the single
/// sequential boundary-scan pass.
pub(crate) struct Prepared {
    pub names: Vec<String>,
    pub hint: Vec<DataType>,
    pub specs: Vec<ChunkSpec>,
}

/// One sequential pass over the source: chunk specs, then the schema
/// sampled from the leading records the scan located.
pub(crate) fn prepare(source: &ByteSource, opts: &IngestOptions) -> Result<Option<Prepared>> {
    if source.is_empty() {
        return Ok(None);
    }
    let mut scanner = BoundaryScanner::new(opts.chunk_bytes, &opts.csv);
    let mut specs = Vec::new();
    source.scan_blocks(SCAN_BLOCK_BYTES, |block| scanner.feed(block, &mut specs))?;
    let sample_len = scanner.sample_len().unwrap_or(source.len());
    scanner.finish(&mut specs);
    let (names, hint) = source.with_chunk(0, sample_len as usize, |bytes| {
        let text = std::str::from_utf8(bytes).map_err(|e| utf8_error(&e, 0))?;
        sample_schema(text, &opts.csv)
    })??;
    if names.is_empty() {
        return Ok(None);
    }
    Ok(Some(Prepared { names, hint, specs }))
}

/// A chunk task's payload: the parse result, kept as a value so panics
/// stay reserved for real faults and parse problems travel as data.
pub(crate) type ChunkResult = std::result::Result<ParsedChunk, Error>;

/// Parse chunk `spec` straight off the source.
pub(crate) fn parse_spec(
    source: &ByteSource,
    spec: ChunkSpec,
    skip_first: bool,
    hint: &[DataType],
    names: &[String],
    csv: &CsvOptions,
) -> ChunkResult {
    source.with_chunk(spec.offset, spec.len, |bytes| {
        let text = std::str::from_utf8(bytes).map_err(|e| utf8_error(&e, spec.offset))?;
        parse_chunk(text, spec.offset, spec.first_record, skip_first, hint, names, csv)
    })?
}

/// A [`PayloadSizer`] that prices chunk payloads by their typed column
/// bytes, so memory budgets ([`ExecOptions::gauge`]) see honest numbers
/// during ingestion.
pub fn chunk_payload_sizer() -> PayloadSizer {
    Arc::new(|payload| {
        payload.downcast_ref::<ChunkResult>().map(|r| match r {
            Ok(parsed) => parsed
                .columns
                .iter()
                .map(|c| match c.dtype() {
                    DataType::Float64 | DataType::Int64 => 8 * c.len(),
                    DataType::Bool => c.len(),
                    DataType::Str => c
                        .str_values()
                        .map_or(0, |vs| vs.iter().map(|s| s.len() + 24).sum()),
                })
                .sum(),
            Err(_) => 64,
        })
    })
}

/// Read a CSV file through the chunked parallel pipeline.
pub fn read_csv_chunked<P: AsRef<Path>>(path: P, opts: &IngestOptions) -> Result<DataFrame> {
    let source = ByteSource::open(path.as_ref())?;
    ingest(Arc::new(source), opts)
}

/// Chunked ingestion over in-memory CSV text (copies the text once into
/// the shared source buffer; chunk parsing then borrows subslices).
pub fn read_csv_str_chunked(text: &str, opts: &IngestOptions) -> Result<DataFrame> {
    let source = ByteSource::from_bytes(text.as_bytes().to_vec());
    ingest(Arc::new(source), opts)
}

/// The parallel phase shared by both entry points.
fn ingest(source: Arc<ByteSource>, opts: &IngestOptions) -> Result<DataFrame> {
    let Some(Prepared { names, hint, specs }) = prepare(&source, opts)? else {
        return Ok(DataFrame::empty());
    };

    // Fan the chunk parses out on the worker pool. Cancellation and
    // budgets are enforced by the scheduler at chunk granularity.
    let job_ctx = Arc::new((Arc::clone(&source), specs.clone(), hint.clone(), names.clone(), opts.csv.clone()));
    let has_header = opts.csv.has_header;
    let mut exec = opts.exec.clone();
    if exec.sizer.is_none() {
        exec.sizer = Some(chunk_payload_sizer());
    }
    let result = run_chunk_tasks(
        "csv",
        specs.len(),
        move |i| {
            let (source, specs, hint, names, csv) = &*job_ctx;
            let outcome: ChunkResult = match specs.get(i) {
                Some(&spec) => parse_spec(source, spec, has_header && i == 0, hint, names, csv),
                None => Err(Error::Io(format!("chunk {i} out of range"))),
            };
            Arc::new(outcome)
        },
        opts.workers,
        &exec,
    );

    // Collect in chunk-index order; the first error (by position in the
    // file's chunk order) wins, exactly one error is reported.
    let mut chunks: Vec<ParsedChunk> = Vec::with_capacity(specs.len());
    for (i, outcome) in result.outcomes.into_iter().enumerate() {
        match outcome.payload().and_then(|p| p.downcast_ref::<ChunkResult>()) {
            // Cloning a chunk is cheap: columns are Arc-backed buffers.
            Some(Ok(parsed)) => chunks.push(parsed.clone()),
            Some(Err(e)) => return Err(e.clone()),
            None => {
                let detail = outcome
                    .error()
                    .map_or_else(|| "chunk task produced no payload".to_string(), |e| e.root_description());
                return Err(Error::Io(format!("ingest chunk {i} failed: {detail}")));
            }
        }
    }

    fold_chunks(&source, &specs, chunks, &names, &hint, &opts.csv, has_header)
}

/// Join per-chunk columns under the widened global schema.
fn fold_chunks(
    source: &ByteSource,
    specs: &[ChunkSpec],
    chunks: Vec<ParsedChunk>,
    names: &[String],
    hint: &[DataType],
    csv: &CsvOptions,
    has_header: bool,
) -> Result<DataFrame> {
    let chunk_dtypes: Vec<Vec<DataType>> = chunks.iter().map(|c| c.dtypes.clone()).collect();
    let global = global_schema(hint, &chunk_dtypes);
    let ncols = names.len();

    let mut pairs: Vec<(String, Column)> = Vec::with_capacity(ncols);
    for (c, name) in names.iter().enumerate() {
        let mut parts: Vec<Column> = Vec::with_capacity(chunks.len());
        for (k, parsed) in chunks.iter().enumerate() {
            let have = parsed.dtypes[c];
            let want = global[c];
            let col = if have == want {
                parsed.columns[c].clone()
            } else if !needs_text_repair(have, want) {
                cast_int_to_float(&parsed.columns[c])
            } else {
                // Widening repair: this chunk parsed the column as a
                // narrower type before some other chunk forced Str; the
                // exact raw spellings only exist in the source bytes.
                let spec = specs[k];
                source.with_chunk(spec.offset, spec.len, |bytes| {
                    let text = std::str::from_utf8(bytes)
                        .map_err(|e| utf8_error(&e, spec.offset))?;
                    chunk::reparse_chunk_column_str(
                        text,
                        spec.offset,
                        spec.first_record,
                        has_header && k == 0,
                        c,
                        ncols,
                        csv,
                    )
                })??
            };
            parts.push(col);
        }
        let refs: Vec<&Column> = parts.iter().collect();
        pairs.push((name.clone(), Column::concat(&refs)?));
    }
    DataFrame::new(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_dataframe::csv::read_csv_str;

    fn tiny(chunk_bytes: usize) -> IngestOptions {
        IngestOptions { chunk_bytes, workers: 4, ..IngestOptions::default() }
    }

    fn assert_frames_identical(a: &DataFrame, b: &DataFrame) {
        assert_eq!(a.names(), b.names());
        assert_eq!(a.nrows(), b.nrows());
        for name in a.names() {
            let ca = a.column(name).unwrap();
            let cb = b.column(name).unwrap();
            assert_eq!(ca.dtype(), cb.dtype(), "column {name}");
            assert_eq!(
                ca.content_fingerprint(),
                cb.content_fingerprint(),
                "column {name} bytes differ"
            );
        }
        assert_eq!(a.content_fingerprint(), b.content_fingerprint());
    }

    #[test]
    fn chunked_matches_sequential_simple() {
        let csv = "a,b,c\n1,x,true\n2,y,false\n3,z,\n4,w,true\n";
        let seq = read_csv_str(csv, &CsvOptions::default()).unwrap();
        for chunk_bytes in [1, 7, 13, 64, 1 << 20, usize::MAX] {
            let par = read_csv_str_chunked(csv, &tiny(chunk_bytes)).unwrap();
            assert_frames_identical(&seq, &par);
        }
    }

    #[test]
    fn widening_across_chunks_matches_sequential() {
        // Ints early, a float deep in the stream, a string even deeper:
        // chunks parsed before the contradiction must cast (f64) and
        // repair (str) to match the sequential result.
        let mut csv = String::from("n,s\n");
        for i in 0..50 {
            csv.push_str(&format!("{i},{i}\n"));
        }
        csv.push_str("3.25,x\n");
        for i in 0..10 {
            csv.push_str(&format!("{i},{i}\n"));
        }
        let seq = read_csv_str(&csv, &CsvOptions::default()).unwrap();
        assert_eq!(seq.column("n").unwrap().dtype(), DataType::Float64);
        assert_eq!(seq.column("s").unwrap().dtype(), DataType::Str);
        for chunk_bytes in [8, 32, 100, 1 << 20, usize::MAX] {
            let par = read_csv_str_chunked(&csv, &tiny(chunk_bytes)).unwrap();
            assert_frames_identical(&seq, &par);
        }
    }

    #[test]
    fn str_repair_preserves_raw_spelling() {
        // "07" and " 8 " parse as ints in early chunks; the late "oops"
        // widens the column to Str, and the raw spellings must survive.
        let csv = "v\n07\n 8 \n1.50\noops\n";
        let seq = read_csv_str(csv, &CsvOptions::default()).unwrap();
        for chunk_bytes in [1, 4, 6, 1 << 20, usize::MAX] {
            let par = read_csv_str_chunked(csv, &tiny(chunk_bytes)).unwrap();
            assert_frames_identical(&seq, &par);
            let vals = par.column("v").unwrap().str_values().unwrap().to_vec();
            assert_eq!(vals, vec!["07", " 8 ", "1.50", "oops"]);
        }
    }

    #[test]
    fn ragged_row_error_matches_sequential_position() {
        let csv = "a,b\n1,2\n3,4\n5\n6,7\n";
        let seq_err = read_csv_str(csv, &CsvOptions::default()).unwrap_err();
        let par_err = read_csv_str_chunked(csv, &tiny(4)).unwrap_err();
        assert_eq!(seq_err, par_err);
        match par_err {
            Error::Malformed { line, offset, .. } => {
                assert_eq!(line, 4);
                assert_eq!(offset, Some(12));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_and_header_only_inputs() {
        let opts = tiny(8);
        let empty = read_csv_str_chunked("", &opts).unwrap();
        assert_eq!(empty.ncols(), 0);
        let header_only = read_csv_str_chunked("a,b\n", &opts).unwrap();
        assert_eq!(header_only.ncols(), 2);
        assert_eq!(header_only.nrows(), 0);
        assert_frames_identical(
            &read_csv_str("a,b\n", &CsvOptions::default()).unwrap(),
            &header_only,
        );
    }

    #[test]
    fn cancellation_aborts_between_chunks() {
        use eda_taskgraph::govern::CancelToken;
        let token = CancelToken::new();
        token.cancel();
        let mut opts = tiny(4);
        opts.exec.cancel = Some(token);
        let err = read_csv_str_chunked("a\n1\n2\n3\n4\n", &opts).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "cancelled ingest must fail, got {err:?}");
    }
}
