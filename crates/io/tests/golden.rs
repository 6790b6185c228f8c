//! Golden test: the chunked reader reproduces `read_csv` /
//! `read_csv_str` bit-for-bit. `chunk_bytes = 0` is not special: the
//! boundary scanner clamps it to one byte, so every record becomes its
//! own chunk — the most adversarial chunking.

// Test code asserts freely; the package-level unwrap/expect deny
// targets shipped code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use eda_dataframe::csv::{read_csv, read_csv_str, CsvOptions};
use eda_dataframe::{DataType, Value};
use eda_io::chunked::{read_csv_chunked, read_csv_str_chunked, IngestOptions};
use std::io::Write;

/// A fixture exercising every dtype, nulls in every column, quoted
/// fields with embedded delimiters/newlines, CRLF endings, and values
/// whose exact spelling matters ("07" must stay text-like if the column
/// is text; 2.50 must parse to the same bits).
const FIXTURE: &str = "id,price,label,active,note\r\n\
1,2.50,alpha,true,\"plain\"\r\n\
2,NA,\"be,ta\",false,\"line\nbreak\"\n\
3,-0.125,gamma,NA,\"quote \"\"q\"\" here\"\n\
4,1e3,delta,true,NA\n\
NA,0.0,NA,false,last\n";

fn zero_chunk_opts() -> IngestOptions {
    IngestOptions { chunk_bytes: 0, workers: 4, ..IngestOptions::default() }
}

#[test]
fn zero_chunk_bytes_reproduces_sequential_reader_from_str() {
    let seq = read_csv_str(FIXTURE, &CsvOptions::default()).unwrap();
    let off = read_csv_str_chunked(FIXTURE, &zero_chunk_opts()).unwrap();
    assert_eq!(seq, off);
    assert_eq!(seq.content_fingerprint(), off.content_fingerprint());
}

#[test]
fn zero_chunk_bytes_reproduces_sequential_reader_from_file() {
    let dir = std::env::temp_dir().join("eda_io_golden_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("golden.csv");
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(FIXTURE.as_bytes()).unwrap();
    drop(f);

    let seq = read_csv(&path).unwrap();
    let off = read_csv_chunked(&path, &zero_chunk_opts()).unwrap();
    assert_eq!(seq, off);
    assert_eq!(seq.content_fingerprint(), off.content_fingerprint());

    // And the parallel path agrees too, at a chunk size that splits the
    // fixture (golden values below pin the expected content for both).
    let par = read_csv_chunked(&path, &IngestOptions { chunk_bytes: 32, workers: 4, ..IngestOptions::default() })
        .unwrap();
    assert_eq!(seq, par);

    std::fs::remove_file(&path).ok();
}

#[test]
fn golden_values_pin_the_fixture_schema() {
    let df = read_csv_str_chunked(FIXTURE, &zero_chunk_opts()).unwrap();
    assert_eq!(df.nrows(), 5);
    assert_eq!(df.names(), ["id", "price", "label", "active", "note"]);
    assert_eq!(df.column("id").unwrap().dtype(), DataType::Int64);
    assert_eq!(df.column("price").unwrap().dtype(), DataType::Float64);
    assert_eq!(df.column("label").unwrap().dtype(), DataType::Str);
    assert_eq!(df.column("active").unwrap().dtype(), DataType::Bool);
    assert_eq!(df.column("note").unwrap().dtype(), DataType::Str);

    assert_eq!(df.get(0, "price").unwrap(), Value::Float(2.50));
    assert!(df.get(1, "price").unwrap().is_null());
    assert_eq!(df.get(3, "price").unwrap(), Value::Float(1000.0));
    assert_eq!(df.get(1, "label").unwrap(), Value::Str("be,ta".into()));
    assert_eq!(df.get(1, "note").unwrap(), Value::Str("line\nbreak".into()));
    assert_eq!(df.get(2, "note").unwrap(), Value::Str("quote \"q\" here".into()));
    assert!(df.get(2, "active").unwrap().is_null());
    assert!(df.get(4, "id").unwrap().is_null());
}
