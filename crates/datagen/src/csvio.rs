//! Minimal CSV reading/writing (RFC 4180 subset) for dataset I/O.
//!
//! Supports quoted fields, embedded commas/quotes/newlines, and CRLF
//! line endings — enough to load real dedup inputs and write labelled
//! outputs without adding a dependency.

use std::fmt::Write as _;

/// Parse CSV text into rows of fields.
///
/// Handles `"quoted"` fields with `""` escapes, embedded separators and
/// newlines inside quotes, and both `\n` and `\r\n` endings. A trailing
/// newline does not produce an empty record.
///
/// Returns an error message with a line number on malformed input
/// (unterminated quote, characters after a closing quote).
pub fn parse_csv(text: &str) -> Result<Vec<Vec<String>>, String> {
    let mut rows = Vec::new();
    parse_records(text, |_, row| rows.push(row))?;
    Ok(rows)
}

/// [`parse_csv`], each row with the line it starts on (1-based; a quoted
/// newline makes a row span lines, and blank lines are skipped).
pub fn parse_csv_lines(text: &str) -> Result<Vec<(usize, Vec<String>)>, String> {
    let mut rows = Vec::new();
    parse_records(text, |line, row| rows.push((line, row)))?;
    Ok(rows)
}

/// The parser behind [`parse_csv`]: hands each record and the line it
/// starts on to `emit`.
fn parse_records(text: &str, mut emit: impl FnMut(usize, Vec<String>)) -> Result<(), String> {
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut line = 1usize;
    // The line the current record starts on.
    let mut start = 1usize;
    // Whether the current field was quoted (affects what may follow).
    let mut was_quoted = false;
    // Whether any character belongs to the current record.
    let mut record_started = false;

    while let Some(ch) = chars.next() {
        if in_quotes {
            match ch {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push(ch);
                }
                _ => field.push(ch),
            }
            continue;
        }
        match ch {
            '"' => {
                if field.is_empty() && !was_quoted {
                    in_quotes = true;
                    was_quoted = true;
                    record_started = true;
                } else {
                    return Err(format!("line {line}: unexpected quote inside unquoted field"));
                }
            }
            ',' => {
                row.push(std::mem::take(&mut field));
                was_quoted = false;
                record_started = true;
            }
            '\r' => {
                // CRLF: swallow the CR and let the LF terminate the
                // record. A bare CR is field data.
                if chars.peek() != Some(&'\n') {
                    field.push('\r');
                    record_started = true;
                }
            }
            '\n' => {
                line += 1;
                if record_started || !field.is_empty() || !row.is_empty() {
                    row.push(std::mem::take(&mut field));
                    emit(start, std::mem::take(&mut row));
                }
                start = line;
                was_quoted = false;
                record_started = false;
            }
            _ => {
                if was_quoted {
                    // A quoted field already ended; bare chars after it are
                    // malformed (e.g. `"ab"c`).
                    return Err(format!("line {line}: data after closing quote"));
                }
                field.push(ch);
                record_started = true;
            }
        }
    }
    if in_quotes {
        return Err(format!("line {line}: unterminated quoted field"));
    }
    if record_started || !field.is_empty() || !row.is_empty() {
        row.push(field);
        emit(start, row);
    }
    Ok(())
}

/// Quote a field if it contains a separator, quote, or newline.
fn quote_field(field: &str, out: &mut String) {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        out.push('"');
        for ch in field.chars() {
            if ch == '"' {
                out.push('"');
            }
            out.push(ch);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

/// Serialize rows to CSV text (LF endings, trailing newline).
pub fn write_csv<S: AsRef<str>>(rows: &[Vec<S>]) -> String {
    let mut out = String::new();
    for row in rows {
        for (i, field) in row.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            quote_field(field.as_ref(), &mut out);
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_rows() {
        let rows = parse_csv("a,b,c\nd,e,f\n").unwrap();
        assert_eq!(rows, vec![vec!["a", "b", "c"], vec!["d", "e", "f"]]);
    }

    #[test]
    fn no_trailing_newline() {
        let rows = parse_csv("a,b\nc,d").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec!["c", "d"]);
    }

    #[test]
    fn quoted_fields() {
        let rows = parse_csv("\"a,b\",\"say \"\"hi\"\"\",\"multi\nline\"\n").unwrap();
        assert_eq!(rows, vec![vec!["a,b", "say \"hi\"", "multi\nline"]]);
    }

    #[test]
    fn crlf_endings() {
        let rows = parse_csv("a,b\r\nc,d\r\n").unwrap();
        assert_eq!(rows, vec![vec!["a", "b"], vec!["c", "d"]]);
    }

    #[test]
    fn bare_cr_is_field_data() {
        // Only CRLF terminates a record; a lone CR belongs to the field.
        let rows = parse_csv("a\rb,c\n").unwrap();
        assert_eq!(rows, vec![vec!["a\rb", "c"]]);
    }

    #[test]
    fn empty_fields_and_rows() {
        let rows = parse_csv("a,,c\n,,\n").unwrap();
        assert_eq!(rows, vec![vec!["a", "", "c"], vec!["", "", ""]]);
        assert!(parse_csv("").unwrap().is_empty());
        assert!(parse_csv("\n").unwrap().is_empty());
    }

    #[test]
    fn rows_carry_the_line_they_start_on() {
        let rows = parse_csv_lines("a,b\n\n\"multi\nline\",c\r\nd\n").unwrap();
        let lines: Vec<usize> = rows.iter().map(|(line, _)| *line).collect();
        assert_eq!(lines, vec![1, 3, 5]);
        assert_eq!(rows[1].1, vec!["multi\nline", "c"]);
    }

    #[test]
    fn quoted_empty_field() {
        let rows = parse_csv("\"\",x\n").unwrap();
        assert_eq!(rows, vec![vec!["", "x"]]);
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(parse_csv("\"unterminated\n").is_err());
        assert!(parse_csv("\"ab\"c,d\n").is_err());
        assert!(parse_csv("ab\"c\n").is_err());
    }

    #[test]
    fn roundtrip() {
        let rows: Vec<Vec<String>> = vec![
            vec!["plain".into(), "with,comma".into()],
            vec!["with \"quotes\"".into(), "multi\nline".into()],
            vec!["".into(), "end".into()],
        ];
        let text = write_csv(&rows);
        assert_eq!(parse_csv(&text).unwrap(), rows);
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let err = parse_csv("ok,row\nbad\"row\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }
}
