//! CSV ingestion and export.
//!
//! The reader performs RFC-4180-style parsing (quoted fields, embedded
//! separators/newlines, doubled quotes) and two-pass type inference:
//! a sampling pass picks the narrowest type each column fits
//! (bool → i64 → f64 → str) and the build pass parses into typed builders,
//! widening on the fly if later rows contradict the sample.

mod infer;
mod parser;
mod reader;
mod writer;

pub mod chunk;

pub use infer::{infer_dtype, infer_schema, is_null_field, widen};
pub use parser::{parse_line, split_records_offsets};
pub use reader::{read_csv, read_csv_str, utf8_error, CsvOptions};
pub use writer::{write_csv, write_csv_string};
