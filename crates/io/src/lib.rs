//! Parallel out-of-core ingestion for dataprep-eda.
//!
//! Two subsystems (DESIGN.md §16):
//!
//! * **Chunked CSV ingestion** ([`chunked`], [`stream`]) — a
//!   bounded-memory reader that scans record boundaries once
//!   (quote-aware), splits the stream into ~8 MiB spans
//!   ([`IngestOptions::chunk_bytes`]), parses them in parallel on the
//!   taskgraph worker pool, and folds the typed per-chunk columns back
//!   in order. Every chunk runs `eda_dataframe`'s one CSV parser
//!   (`csv::chunk::parse_chunk`), and the result is bit-identical to the
//!   one-chunk `read_csv_str` for every chunking. [`stream`] adds
//!   wave-bounded folds that never materialise the frame — statistics
//!   over files larger than RAM.
//! * **`.edaf` binary columnar format** ([`edaf`]) — typed column
//!   pages with null bitmaps, dictionary/varint/RLE encodings and a
//!   footer of per-column offsets, so projecting one column out of a
//!   wide file is O(that column), not O(parse everything).
//!
//! Byte access is abstracted by [`source::ByteSource`]: in-memory, or
//! positional reads from an open file.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod chunked;
pub mod edaf;
pub mod source;
pub mod stream;

pub use chunked::{read_csv_chunked, read_csv_str_chunked, IngestOptions};
pub use edaf::{edaf_info, read_edaf, read_edaf_columns, write_edaf, EdafInfo};
pub use source::ByteSource;
pub use stream::{fold_csv, read_overview, FoldOutcome};
