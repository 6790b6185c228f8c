//! Chunk-granular CSV parsing: the one CSV parser of the workspace.
//! [`super::read_csv_str`] runs it over its whole input as a single
//! chunk; the parallel out-of-core reader in `eda-io` runs it once per
//! chunk on the worker pool.
//!
//! The pipeline splits into three phases, each implemented here so the
//! orchestrator only moves bytes and schedules tasks:
//!
//! 1. **Boundary scan** ([`BoundaryScanner`]): a single streaming pass
//!    over raw bytes that tracks RFC-4180 quote parity and cuts the
//!    stream into ~`chunk_bytes` spans that always end on a record
//!    boundary — a quoted embedded newline never splits a record across
//!    chunks. The same pass records where the type-inference sample
//!    (header + `infer_rows` records) ends. Memory is O(#chunks): only
//!    `(offset, len, first_record)` triples are retained, never the
//!    bytes.
//! 2. **Per-chunk parse** ([`parse_chunk`]): parse records to raw fields
//!    (retained only for the chunk's lifetime), widen a caller-supplied
//!    schema hint when fields contradict it, then build typed columns.
//!    Chunks are independent, so this is what the worker pool
//!    parallelizes. Errors carry absolute 1-based record numbers and
//!    absolute byte offsets, rebased from `chunk_offset`.
//! 3. **Fold** ([`global_schema`], [`cast_int_to_float`],
//!    [`reparse_chunk_column_str`]): per-column chunk results are joined
//!    under the widened global schema in chunk-index order. The only
//!    lossless numeric promotion is i64 → f64 (bit-identical to re-parsing
//!    the text, both round half-to-even); every other promotion targets
//!    `Str` and must re-read the chunk's bytes to recover the exact raw
//!    field text ("widening repair") — rare, bounded to the affected
//!    chunks and column.
//!
//! Determinism: for a fixed input the frame produced via any chunking is
//! bit-identical to the one-chunk [`super::read_csv_str`], provided the
//! schema hint is sampled from the same leading `infer_rows` records —
//! see `global_schema` for why the widening join is chunking-invariant.

use crate::builder::ColumnBuilder;
use crate::column::Column;
use crate::dtype::DataType;
use crate::error::{Error, Result};

use super::infer::{infer_dtype, infer_schema, is_null_field, widen};
use super::parser::{parse_line, split_records_offsets};
use super::reader::{ragged_row, CsvOptions};

/// One chunk of the byte stream: `len` bytes starting at absolute
/// `offset`, guaranteed to begin and end on record boundaries.
/// `first_record` is the 1-based record number (header counts as record 1)
/// of the first record in the chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpec {
    /// Absolute byte offset of the chunk's first byte.
    pub offset: u64,
    /// Chunk length in bytes.
    pub len: usize,
    /// 1-based record number of the chunk's first record.
    pub first_record: usize,
}

/// Incremental quote-aware chunk-boundary scanner.
///
/// Feed the byte stream in arbitrary blocks; the scanner emits
/// [`ChunkSpec`]s whose spans end at the first record boundary at or past
/// the `chunk_bytes` budget, and records where the type-inference sample
/// ends ([`BoundaryScanner::sample_len`]). State is O(1): quote parity, a
/// record counter, and the current chunk's start. Works on raw bytes —
/// UTF-8 validation happens later, per chunk (safe because `"` and `\n`
/// are ASCII and UTF-8 continuation bytes never collide with ASCII).
#[derive(Debug)]
pub struct BoundaryScanner {
    chunk_bytes: usize,
    pos: u64,
    in_quotes: bool,
    /// Records completed so far across the whole stream.
    records_done: usize,
    chunk_start: u64,
    chunk_first_record: usize,
    /// Records in the type-inference sample (header + `infer_rows`).
    sample_records: usize,
    /// Where the sample's last record ends, once the scan has passed it.
    sample_end: Option<u64>,
}

impl BoundaryScanner {
    /// A scanner cutting chunks of at least `chunk_bytes` bytes
    /// (clamped to ≥ 1) and locating the leading sample records that
    /// [`sample_schema`] infers the schema from under `opts`.
    pub fn new(chunk_bytes: usize, opts: &CsvOptions) -> Self {
        BoundaryScanner {
            chunk_bytes: chunk_bytes.max(1),
            pos: 0,
            in_quotes: false,
            records_done: 0,
            chunk_start: 0,
            chunk_first_record: 1,
            // A headerless sample still needs one record to count columns.
            sample_records: (usize::from(opts.has_header) + opts.infer_rows).max(1),
            sample_end: None,
        }
    }

    /// Byte length of the sample prefix (whole records), or `None` while
    /// the scan has not yet passed its last record. A stream that ends
    /// first is its own sample.
    pub fn sample_len(&self) -> Option<u64> {
        self.sample_end
    }

    /// Scan the next block of the stream, appending any completed chunks.
    pub fn feed(&mut self, block: &[u8], out: &mut Vec<ChunkSpec>) {
        for &b in block {
            self.pos += 1;
            match b {
                b'"' => self.in_quotes = !self.in_quotes,
                b'\n' if !self.in_quotes => {
                    self.records_done += 1;
                    if self.records_done == self.sample_records {
                        self.sample_end = Some(self.pos);
                    }
                    if self.pos - self.chunk_start >= self.chunk_bytes as u64 {
                        self.close_chunk(self.pos, out);
                    }
                }
                _ => {}
            }
        }
    }

    /// Flush the trailing partial chunk (a final record without a newline
    /// still terminates at end-of-stream).
    pub fn finish(mut self, out: &mut Vec<ChunkSpec>) {
        if self.pos > self.chunk_start {
            let end = self.pos;
            self.records_done += 1; // the unterminated final record
            self.close_chunk(end, out);
        }
    }

    fn close_chunk(&mut self, end: u64, out: &mut Vec<ChunkSpec>) {
        out.push(ChunkSpec {
            offset: self.chunk_start,
            len: (end - self.chunk_start) as usize,
            first_record: self.chunk_first_record,
        });
        self.chunk_start = end;
        self.chunk_first_record = self.records_done + 1;
    }
}

/// Block size for [`sample_text`]'s scan: it stops within one block of
/// the sample's end.
const SAMPLE_SCAN_BLOCK: usize = 64 * 1024;

/// The leading sample records of in-memory `text` (all of `text` if it
/// holds fewer), cut by a [`BoundaryScanner`] that stops once it passes
/// the sample's end.
pub fn sample_text<'a>(text: &'a str, opts: &CsvOptions) -> &'a str {
    let mut scanner = BoundaryScanner::new(usize::MAX, opts);
    let mut no_chunks = Vec::new();
    for block in text.as_bytes().chunks(SAMPLE_SCAN_BLOCK) {
        scanner.feed(block, &mut no_chunks);
        if let Some(end) = scanner.sample_len() {
            // The cut follows a `\n`, so it is a char boundary.
            return text.get(..end as usize).unwrap_or(text);
        }
    }
    text
}

/// Typed columns parsed from one chunk, at the chunk's (possibly still
/// narrow) local schema.
#[derive(Debug, Clone)]
pub struct ParsedChunk {
    /// Per-column dtypes after widening the hint by this chunk's fields.
    pub dtypes: Vec<DataType>,
    /// One column per schema slot, all of length `nrows`.
    pub columns: Vec<Column>,
    /// Data rows in this chunk.
    pub nrows: usize,
}

/// Column names and a sampled schema hint from the leading bytes of the
/// stream. `sample_text` must span whole records (the caller cuts it on a
/// record boundary) and should contain the header plus up to
/// `opts.infer_rows` data records; extra records are ignored.
///
/// The schema is inferred from the first `infer_rows` data records
/// regardless of where chunk boundaries later fall, which is what makes
/// the final widened schema (and thus the output frame) independent of
/// the chunking.
pub fn sample_schema(sample_text: &str, opts: &CsvOptions) -> Result<(Vec<String>, Vec<DataType>)> {
    let records = split_records_offsets(sample_text);
    let Some(&(_, first)) = records.first() else {
        return Ok((Vec::new(), Vec::new()));
    };
    let (header, data, first_data_line) = if opts.has_header {
        (parse_line(first, opts.separator, 1)?, &records[1..], 2usize)
    } else {
        let ncols = parse_line(first, opts.separator, 1)?.len();
        let header = (0..ncols).map(|i| format!("column_{i}")).collect();
        (header, &records[..], 1usize)
    };
    let ncols = header.len();
    let mut sample: Vec<Vec<String>> = Vec::new();
    for (i, (off, rec)) in data.iter().take(opts.infer_rows).enumerate() {
        let row = parse_line(rec, opts.separator, first_data_line + i)?;
        if row.len() != ncols {
            return Err(ragged_row(first_data_line + i, *off, ncols, row.len()));
        }
        sample.push(row);
    }
    let schema = infer_schema(sample.iter(), ncols);
    Ok((header, schema))
}

/// Parse one chunk's text into typed columns.
///
/// * `chunk_offset` — absolute byte offset of `text` within the source,
///   for error rebasing.
/// * `first_record` — absolute 1-based record number of the chunk's first
///   record (the header is record 1).
/// * `skip_first` — true only for the first chunk of a stream with a
///   header row.
/// * `hint` — sampled schema; the chunk widens it locally when its fields
///   contradict it. `names` supplies error context and the column count.
pub fn parse_chunk(
    text: &str,
    chunk_offset: u64,
    first_record: usize,
    skip_first: bool,
    hint: &[DataType],
    names: &[String],
    opts: &CsvOptions,
) -> Result<ParsedChunk> {
    let ncols = names.len();
    let records = split_records_offsets(text);
    let data = if skip_first && !records.is_empty() { &records[1..] } else { &records[..] };
    let first_data_record = if skip_first { first_record + 1 } else { first_record };

    // Pass 1: records → raw fields, widening the hinted schema. Raw
    // fields live only for this chunk.
    let mut dtypes: Vec<DataType> = hint.to_vec();
    dtypes.resize(ncols, DataType::Str);
    let mut raw_columns: Vec<Vec<Option<String>>> =
        (0..ncols).map(|_| Vec::with_capacity(data.len())).collect();
    for (i, (rec_off, rec)) in data.iter().enumerate() {
        let line = first_data_record + i;
        let row = parse_line(rec, opts.separator, line)?;
        if row.len() != ncols {
            return Err(ragged_row(line, chunk_offset + rec_off, ncols, row.len()));
        }
        for (c, field) in row.into_iter().enumerate() {
            if is_null_field(&field, &opts.extra_nulls) {
                raw_columns[c].push(None);
            } else {
                if let Some(t) = infer_dtype(&field) {
                    dtypes[c] = widen(dtypes[c], t);
                }
                raw_columns[c].push(Some(field));
            }
        }
    }

    // Pass 2: raw fields → typed columns at the chunk-final schema.
    let nrows = data.len();
    let mut columns = Vec::with_capacity(ncols);
    for (c, raws) in raw_columns.into_iter().enumerate() {
        let mut builder = ColumnBuilder::for_dtype(dtypes[c]);
        for field in &raws {
            match field {
                None => builder.push_null(),
                Some(f) => {
                    if !builder.push_parsed(f) {
                        return Err(Error::Malformed {
                            line: 0,
                            offset: Some(chunk_offset),
                            column: names.get(c).cloned(),
                            message: format!(
                                "field {f:?} does not parse as inferred type {}",
                                dtypes[c].name()
                            ),
                        });
                    }
                }
            }
        }
        columns.push(builder.finish());
    }
    Ok(ParsedChunk { dtypes, columns, nrows })
}

/// Join of per-chunk schemas: the widened global schema. Because
/// [`widen`] is an associative, commutative, idempotent join on the
/// bool → i64 → f64 → str lattice, the result equals the one-chunk
/// schema (hint joined with every field's type) for any
/// chunking — this is the invariant behind the bit-identical guarantee.
pub fn global_schema(hint: &[DataType], chunk_dtypes: &[Vec<DataType>]) -> Vec<DataType> {
    let mut global = hint.to_vec();
    for dts in chunk_dtypes {
        for (g, &d) in global.iter_mut().zip(dts) {
            *g = widen(*g, d);
        }
    }
    global
}

/// Whether a chunk column at `have` can fold into global dtype `want`
/// without re-reading the chunk's bytes. i64 → f64 is the one lossless
/// in-memory promotion; promotions into `Str` lost the raw spelling
/// (`" 7"`, `"True"`, `"1.50"`) at parse time and need
/// [`reparse_chunk_column_str`].
pub fn needs_text_repair(have: DataType, want: DataType) -> bool {
    have != want && !(have == DataType::Int64 && want == DataType::Float64)
}

/// Numeric i64 → f64 promotion, preserving validity. `v as f64` rounds
/// half-to-even exactly like parsing the original integer literal as a
/// float, so this is bit-identical to the one-chunk parse.
pub fn cast_int_to_float(col: &Column) -> Column {
    let vals: Vec<f64> = match col.i64_values() {
        Some(ints) => ints.iter().map(|&v| v as f64).collect(),
        None => Vec::new(),
    };
    Column::from_f64_validity(vals, col.validity().cloned())
}

/// Widening repair: rebuild one column of one chunk as `Str` from the
/// chunk's original text, recovering the exact raw field spellings that
/// typed parsing discarded. Same record-numbering contract as
/// [`parse_chunk`].
pub fn reparse_chunk_column_str(
    text: &str,
    chunk_offset: u64,
    first_record: usize,
    skip_first: bool,
    col: usize,
    ncols: usize,
    opts: &CsvOptions,
) -> Result<Column> {
    let records = split_records_offsets(text);
    let data = if skip_first && !records.is_empty() { &records[1..] } else { &records[..] };
    let first_data_record = if skip_first { first_record + 1 } else { first_record };
    let mut builder = ColumnBuilder::for_dtype(DataType::Str);
    for (i, (rec_off, rec)) in data.iter().enumerate() {
        let line = first_data_record + i;
        let mut row = parse_line(rec, opts.separator, line)?;
        if row.len() != ncols {
            return Err(ragged_row(line, chunk_offset + rec_off, ncols, row.len()));
        }
        let field = std::mem::take(&mut row[col]);
        if is_null_field(&field, &opts.extra_nulls) {
            builder.push_null();
        } else if !builder.push_parsed(&field) {
            return Err(Error::Malformed {
                line,
                offset: Some(chunk_offset + rec_off),
                column: None,
                message: format!("field {field:?} does not parse as str"),
            });
        }
    }
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Chunk an in-memory byte slice in one call.
    fn chunk_specs(bytes: &[u8], chunk_bytes: usize) -> Vec<ChunkSpec> {
        let mut out = Vec::new();
        let mut scanner = BoundaryScanner::new(chunk_bytes, &CsvOptions::default());
        scanner.feed(bytes, &mut out);
        scanner.finish(&mut out);
        out
    }

    fn specs_cover(text: &str, specs: &[ChunkSpec]) {
        let mut pos = 0u64;
        for s in specs {
            assert_eq!(s.offset, pos, "chunks must tile the stream");
            pos += s.len as u64;
        }
        assert_eq!(pos, text.len() as u64);
    }

    #[test]
    fn scanner_cuts_on_record_boundaries() {
        let text = "a,b\n1,2\n3,4\n5,6\n";
        let specs = chunk_specs(text.as_bytes(), 5);
        specs_cover(text, &specs);
        assert!(specs.len() > 1);
        for s in &specs {
            // Every chunk ends just after a newline (or at EOF).
            let end = (s.offset as usize + s.len - 1).min(text.len() - 1);
            assert_eq!(text.as_bytes()[end], b'\n');
        }
        assert_eq!(specs[0].first_record, 1);
    }

    #[test]
    fn scanner_never_cuts_inside_quotes() {
        let text = "h\n\"long\nquoted\nfield\",x\ntail\n";
        for budget in 1..text.len() + 1 {
            let specs = chunk_specs(text.as_bytes(), budget);
            specs_cover(text, &specs);
            for s in &specs {
                let span = &text[s.offset as usize..s.offset as usize + s.len];
                // Quote parity must be even inside every chunk.
                assert_eq!(span.bytes().filter(|&b| b == b'"').count() % 2, 0, "budget {budget}");
            }
        }
    }

    #[test]
    fn scanner_incremental_feed_matches_whole_slice() {
        let text = "a,b\n\"x\ny\",2\nlast";
        let whole = chunk_specs(text.as_bytes(), 4);
        for block in 1..6 {
            let mut out = Vec::new();
            let mut sc = BoundaryScanner::new(4, &CsvOptions::default());
            for chunk in text.as_bytes().chunks(block) {
                sc.feed(chunk, &mut out);
            }
            sc.finish(&mut out);
            assert_eq!(out, whole, "block size {block}");
        }
    }

    #[test]
    fn scanner_first_record_numbers() {
        let text = "h\na\nb\nc\nd\n";
        let specs = chunk_specs(text.as_bytes(), 2);
        // Chunks of "h\n", "a\n", ... records 1..=5.
        let firsts: Vec<usize> = specs.iter().map(|s| s.first_record).collect();
        assert_eq!(firsts, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn sample_cut_counts_whole_records() {
        let text = "h\n\"x\ny\"\nb\nc";
        let two = CsvOptions { infer_rows: 2, ..CsvOptions::default() };
        // The quoted newline does not end a record.
        assert_eq!(sample_text(text, &two), "h\n\"x\ny\"\nb\n");
        let many = CsvOptions { infer_rows: 10, ..CsvOptions::default() };
        assert_eq!(sample_text(text, &many), text);
        let headerless = CsvOptions { has_header: false, infer_rows: 0, ..CsvOptions::default() };
        assert_eq!(sample_text(text, &headerless), "h\n");
    }

    #[test]
    fn parse_chunk_errors_carry_absolute_position() {
        // Chunk starting at absolute offset 100, first record number 11.
        let text = "1,2\n3\n";
        let opts = CsvOptions::default();
        let err =
            parse_chunk(text, 100, 11, false, &[DataType::Int64; 2], &["a".into(), "b".into()], &opts)
                .unwrap_err();
        match err {
            Error::Malformed { line, offset, .. } => {
                assert_eq!(line, 12);
                assert_eq!(offset, Some(104));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn global_schema_is_chunking_invariant() {
        use DataType::*;
        let hint = vec![Int64, Bool];
        let a = global_schema(&hint, &[vec![Int64, Bool], vec![Float64, Str]]);
        let b = global_schema(&hint, &[vec![Float64, Str], vec![Int64, Bool]]);
        assert_eq!(a, b);
        assert_eq!(a, vec![Float64, Str]);
    }

    #[test]
    fn int_to_float_cast_matches_reparse() {
        let ints: Vec<i64> = vec![0, 1, -7, i64::MAX, i64::MIN, 1 << 53];
        let col = Column::from_opt_i64(ints.iter().map(|&v| Some(v)).collect());
        let cast = cast_int_to_float(&col);
        let reparsed: Vec<f64> =
            ints.iter().map(|v| v.to_string().parse::<f64>().unwrap()).collect();
        assert_eq!(cast.f64_values().unwrap(), &reparsed[..]);
    }

    #[test]
    fn repair_recovers_raw_spelling() {
        // "07" infers as Int64 (parses as 7) but the raw spelling must
        // survive a widening to Str.
        let text = "07,x\n1.50,y\n";
        let opts = CsvOptions::default();
        let col = reparse_chunk_column_str(text, 0, 2, false, 0, 2, &opts).unwrap();
        assert_eq!(col.str_values().unwrap(), &["07".to_string(), "1.50".to_string()][..]);
    }

    #[test]
    fn needs_repair_table() {
        use DataType::*;
        assert!(!needs_text_repair(Int64, Int64));
        assert!(!needs_text_repair(Int64, Float64));
        assert!(needs_text_repair(Int64, Str));
        assert!(needs_text_repair(Bool, Str));
        assert!(needs_text_repair(Float64, Str));
    }
}
