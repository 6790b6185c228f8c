//! Chunking-invariance property tests: any valid CSV — embedded
//! newlines, quotes, CRLF endings, nulls, mixed types — parses to a
//! bit-identical frame through `read_csv_str`, the whole-file-as-one-chunk
//! pipeline, and the k-chunk pipeline at *any* chunk size.
//!
//! The property deliberately compares readers over the *same* text
//! rather than values through a write/read cycle: the invariant under
//! test is that chunk boundaries are unobservable.

// Test code asserts freely; the package-level unwrap/expect deny
// targets shipped code.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use eda_dataframe::csv::{read_csv_str, CsvOptions};
use eda_dataframe::DataFrame;
use eda_io::chunked::{read_csv_str_chunked, IngestOptions};
use proptest::prelude::*;

/// CSV-encode one field: quote (and double inner quotes) whenever the
/// raw text contains a metacharacter.
fn encode_field(raw: &str) -> String {
    if raw.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", raw.replace('"', "\"\""))
    } else {
        raw.to_string()
    }
}

/// Raw field text drawn from a hostile alphabet: quotes, commas, bare
/// newlines and carriage returns, null spellings, numbers, booleans.
fn arb_field() -> impl Strategy<Value = String> {
    prop_oneof![
        4 => "[a-z0-9,\" \n\r_.-]{0,10}",
        1 => Just("NA".to_string()),
        1 => Just("3.5".to_string()),
        1 => Just("-17".to_string()),
        1 => Just("true".to_string()),
        1 => Just(String::new()),
    ]
}

fn arb_csv() -> impl Strategy<Value = String> {
    (
        prop::collection::vec(prop::collection::vec(arb_field(), 3), 0..20),
        prop::collection::vec(any::<bool>(), 0..20),
        any::<bool>(),
    )
        .prop_map(|(rows, crlf, trailing_newline)| {
            let mut text = String::from("c0,c1,c2\n");
            let nrows = rows.len();
            for (i, row) in rows.into_iter().enumerate() {
                let encoded: Vec<String> = row.iter().map(|f| encode_field(f)).collect();
                text.push_str(&encoded.join(","));
                if i + 1 < nrows || trailing_newline {
                    if crlf.get(i).copied().unwrap_or(false) {
                        text.push_str("\r\n");
                    } else {
                        text.push('\n');
                    }
                }
            }
            text
        })
}

fn assert_bit_identical(a: &DataFrame, b: &DataFrame, context: &str) {
    assert_eq!(a.names(), b.names(), "{context}: names");
    assert_eq!(a.nrows(), b.nrows(), "{context}: nrows");
    for name in a.names() {
        let (ca, cb) = (a.column(name).unwrap(), b.column(name).unwrap());
        assert_eq!(ca.dtype(), cb.dtype(), "{context}: dtype of {name}");
        assert_eq!(
            ca.content_fingerprint(),
            cb.content_fingerprint(),
            "{context}: bytes of {name}"
        );
    }
    assert_eq!(a, b, "{context}: logical equality");
    assert_eq!(a.content_fingerprint(), b.content_fingerprint(), "{context}: frame bytes");
}

fn opts(chunk_bytes: usize, workers: usize) -> IngestOptions {
    IngestOptions { chunk_bytes, workers, ..IngestOptions::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chunked_reader_is_chunking_invariant(
        csv in arb_csv(),
        chunk_bytes in 1usize..200,
        workers in 1usize..5,
    ) {
        let seq = read_csv_str(&csv, &CsvOptions::default()).unwrap();
        // The whole file as one chunk: the degenerate parallel case.
        let one = read_csv_str_chunked(&csv, &opts(usize::MAX, workers)).unwrap();
        assert_bit_identical(&seq, &one, "1-chunk");
        // Many chunks at an adversarial size (down to 1 byte: every
        // record its own chunk).
        let many = read_csv_str_chunked(&csv, &opts(chunk_bytes, workers)).unwrap();
        assert_bit_identical(&seq, &many, &format!("chunk_bytes={chunk_bytes}"));
    }

    #[test]
    fn error_identity_is_chunking_invariant_for_ragged_rows(
        nrows in 1usize..30,
        bad_row in 0usize..30,
        chunk_bytes in 1usize..64,
    ) {
        // Exactly one structural error: the chunked reader must report
        // the same error (line, offset, message) as the sequential one.
        let bad_row = bad_row % nrows;
        let mut csv = String::from("a,b\n");
        for i in 0..nrows {
            if i == bad_row {
                csv.push_str("only-one-field\n");
            } else {
                csv.push_str(&format!("{i},{i}\n"));
            }
        }
        let seq = read_csv_str(&csv, &CsvOptions::default()).unwrap_err();
        let par = read_csv_str_chunked(&csv, &opts(chunk_bytes, 3)).unwrap_err();
        prop_assert_eq!(seq, par);
    }
}
