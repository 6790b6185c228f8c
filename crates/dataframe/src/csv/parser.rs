//! Low-level CSV tokenization.
//!
//! Handles RFC-4180 quoting: fields wrapped in `"` may contain the
//! separator, newlines, and doubled quotes (`""` escapes one quote).

use crate::error::{Error, Result};

/// Split raw CSV text into logical records, respecting quoted newlines.
///
/// Returns one `(offset, record)` pair per record: the record's text
/// excluding the line terminator, and the byte offset of its first byte
/// within `text`, so chunk parses can report absolute file positions in
/// errors. Both `\n` and `\r\n` are accepted. A trailing newline does
/// not produce an empty final record.
pub fn split_records_offsets(text: &str) -> Vec<(u64, &str)> {
    let bytes = text.as_bytes();
    let mut records = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_quotes = !in_quotes,
            b'\n' if !in_quotes => {
                let mut end = i;
                if end > start && bytes[end - 1] == b'\r' {
                    end -= 1;
                }
                records.push((start as u64, &text[start..end]));
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if start < bytes.len() {
        let mut end = bytes.len();
        if end > start && bytes[end - 1] == b'\r' {
            end -= 1;
        }
        records.push((start as u64, &text[start..end]));
    }
    records
}

/// Parse one record into fields.
///
/// `line_no` is used for error reporting only (1-based).
pub fn parse_line(record: &str, sep: char, line_no: usize) -> Result<Vec<String>> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = record.chars().peekable();
    loop {
        match chars.next() {
            None => {
                fields.push(field);
                return Ok(fields);
            }
            Some(c) if c == sep => {
                fields.push(std::mem::take(&mut field));
            }
            Some('"') => {
                if !field.is_empty() {
                    return Err(Error::Csv {
                        line: line_no,
                        message: "unexpected quote inside unquoted field".into(),
                    });
                }
                // Quoted field: consume until closing quote.
                loop {
                    match chars.next() {
                        None => {
                            return Err(Error::Csv {
                                line: line_no,
                                message: "unterminated quoted field".into(),
                            });
                        }
                        Some('"') => {
                            if chars.peek() == Some(&'"') {
                                chars.next();
                                field.push('"');
                            } else {
                                break;
                            }
                        }
                        Some(c) => field.push(c),
                    }
                }
                // After a closing quote only a separator or end-of-record
                // is legal.
                match chars.peek() {
                    None => {}
                    Some(&c) if c == sep => {}
                    Some(_) => {
                        return Err(Error::Csv {
                            line: line_no,
                            message: "data after closing quote".into(),
                        });
                    }
                }
            }
            Some(c) => field.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_simple_lines() {
        assert_eq!(split_records_offsets("a,b\nc,d\n"), vec![(0, "a,b"), (4, "c,d")]);
        assert_eq!(split_records_offsets("a,b"), vec![(0, "a,b")]);
    }

    #[test]
    fn split_handles_crlf() {
        assert_eq!(split_records_offsets("a\r\nb\r\n"), vec![(0, "a"), (3, "b")]);
    }

    #[test]
    fn split_respects_quoted_newlines() {
        let recs = split_records_offsets("a,\"x\ny\"\nb,c\n");
        assert_eq!(recs, vec![(0, "a,\"x\ny\""), (8, "b,c")]);
    }

    #[test]
    fn split_offsets_are_record_starts() {
        let text = "a,b\nc,\"x\ny\"\r\nd,e";
        let recs = split_records_offsets(text);
        assert_eq!(recs, vec![(0, "a,b"), (4, "c,\"x\ny\""), (13, "d,e")]);
        for (off, rec) in recs {
            assert!(text[off as usize..].starts_with(rec));
        }
    }

    #[test]
    fn parse_plain_fields() {
        assert_eq!(
            parse_line("a,b,,d", ',', 1).unwrap(),
            vec!["a", "b", "", "d"]
        );
    }

    #[test]
    fn parse_quoted_fields() {
        assert_eq!(
            parse_line("\"a,b\",\"c\"\"d\"", ',', 1).unwrap(),
            vec!["a,b", "c\"d"]
        );
    }

    #[test]
    fn parse_quoted_newline() {
        assert_eq!(
            parse_line("\"line1\nline2\",x", ',', 1).unwrap(),
            vec!["line1\nline2", "x"]
        );
    }

    #[test]
    fn parse_alternative_separator() {
        assert_eq!(parse_line("a;b;c", ';', 1).unwrap(), vec!["a", "b", "c"]);
    }

    #[test]
    fn parse_trailing_separator_yields_empty_field() {
        assert_eq!(parse_line("a,", ',', 1).unwrap(), vec!["a", ""]);
    }

    #[test]
    fn unterminated_quote_errors() {
        let e = parse_line("\"abc", ',', 7).unwrap_err();
        assert!(matches!(e, Error::Csv { line: 7, .. }));
    }

    #[test]
    fn data_after_closing_quote_errors() {
        assert!(parse_line("\"a\"b,c", ',', 1).is_err());
    }
}
