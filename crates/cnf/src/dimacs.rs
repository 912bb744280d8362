//! DIMACS CNF reading and writing.
//!
//! The parser is tolerant: comments may appear anywhere, clauses may span
//! multiple lines, and the header variable/clause counts are treated as hints
//! (the actual content wins), which matches how the sampling benchmark files
//! in the paper are consumed.

use crate::error::ParseDimacsErrorKind;
use crate::{Cnf, Lit, ParseDimacsError, Var};
use std::io::{self, Write};
use std::path::Path;

/// Parses a DIMACS CNF document from a string.
///
/// # Errors
///
/// Returns [`ParseDimacsError`] if the header is malformed or declares more
/// than [`Var::MAX_INDEX`] variables, a literal token is not an integer or
/// its magnitude exceeds [`Var::MAX_INDEX`], or the final clause is not
/// terminated by `0`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), htsat_cnf::ParseDimacsError> {
/// let cnf = htsat_cnf::dimacs::parse_str("p cnf 2 2\n1 -2 0\n2 0\n")?;
/// assert_eq!(cnf.num_vars(), 2);
/// assert_eq!(cnf.num_clauses(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_str(input: &str) -> Result<Cnf, ParseDimacsError> {
    let mut cnf = Cnf::new(0);
    let mut header_seen = false;
    let mut declared_vars = 0usize;
    let mut current: Vec<Lit> = Vec::new();
    let mut last_line = 0usize;

    for (lineno, line) in input.lines().enumerate() {
        let lineno = lineno + 1;
        last_line = lineno;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix('c') {
            cnf.add_comment(comment.trim_start());
            continue;
        }
        if trimmed.starts_with('p') {
            let mut parts = trimmed.split_whitespace();
            let _p = parts.next();
            let fmt = parts.next().unwrap_or("");
            let vars = parts
                .next()
                .and_then(|t| t.parse::<usize>().ok())
                .filter(|&vars| vars <= Var::MAX_INDEX as usize);
            let clauses = parts.next().and_then(|t| t.parse::<usize>().ok());
            if fmt != "cnf" || vars.is_none() || clauses.is_none() {
                return Err(ParseDimacsError {
                    line: lineno,
                    kind: ParseDimacsErrorKind::BadHeader(trimmed.to_string()),
                });
            }
            declared_vars = vars.expect("checked above");
            header_seen = true;
            continue;
        }
        if !header_seen {
            return Err(ParseDimacsError {
                line: lineno,
                kind: ParseDimacsErrorKind::MissingHeader,
            });
        }
        for token in trimmed.split_whitespace() {
            let value: i64 = token
                .parse()
                .ok()
                .filter(|v: &i64| v.unsigned_abs() <= u64::from(Var::MAX_INDEX))
                .ok_or_else(|| ParseDimacsError {
                    line: lineno,
                    kind: ParseDimacsErrorKind::BadLiteral(token.to_string()),
                })?;
            if value == 0 {
                cnf.add_clause(current.drain(..));
            } else {
                current.push(Lit::from_dimacs(value));
            }
        }
    }

    if !current.is_empty() {
        return Err(ParseDimacsError {
            line: last_line,
            kind: ParseDimacsErrorKind::UnterminatedClause,
        });
    }
    cnf.grow_vars(declared_vars);
    Ok(cnf)
}

/// Reads and parses a DIMACS CNF file from disk.
///
/// # Errors
///
/// Returns an [`io::Error`] if the file cannot be read, or a boxed
/// [`ParseDimacsError`] (wrapped in `io::Error` with kind `InvalidData`) if it
/// cannot be parsed.
pub fn read_file<P: AsRef<Path>>(path: P) -> io::Result<Cnf> {
    let text = std::fs::read_to_string(path)?;
    parse_str(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Serialises a [`Cnf`] to DIMACS text, including its comments.
pub fn to_string(cnf: &Cnf) -> String {
    let mut out = String::new();
    for c in cnf.comments() {
        out.push_str("c ");
        out.push_str(c);
        out.push('\n');
    }
    out.push_str(&format!("p cnf {} {}\n", cnf.num_vars(), cnf.num_clauses()));
    for clause in cnf.clauses() {
        out.push_str(&clause.to_string());
        out.push('\n');
    }
    out
}

/// Writes a [`Cnf`] in DIMACS format to any [`Write`] sink.
///
/// # Errors
///
/// Propagates I/O errors from the underlying writer.
pub fn write<W: Write>(cnf: &Cnf, mut writer: W) -> io::Result<()> {
    writer.write_all(to_string(cnf).as_bytes())
}

/// Writes a [`Cnf`] to a file on disk.
///
/// # Errors
///
/// Propagates I/O errors from file creation or writing.
pub fn write_file<P: AsRef<Path>>(cnf: &Cnf, path: P) -> io::Result<()> {
    std::fs::write(path, to_string(cnf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ParseDimacsErrorKind;

    #[test]
    fn parses_basic_document() {
        let cnf = parse_str("c example\np cnf 3 2\n1 -2 0\n2 3 0\n").expect("parse");
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.comments(), ["example"]);
    }

    #[test]
    fn clauses_may_span_lines() {
        let cnf = parse_str("p cnf 3 1\n1 2\n3 0\n").expect("parse");
        assert_eq!(cnf.num_clauses(), 1);
        assert_eq!(cnf.clauses()[0].len(), 3);
    }

    #[test]
    fn multiple_clauses_on_one_line() {
        let cnf = parse_str("p cnf 2 2\n1 0 -2 0\n").expect("parse");
        assert_eq!(cnf.num_clauses(), 2);
    }

    #[test]
    fn rejects_missing_header() {
        let err = parse_str("1 2 0\n").unwrap_err();
        assert_eq!(err.kind, ParseDimacsErrorKind::MissingHeader);
    }

    #[test]
    fn rejects_bad_literal() {
        let err = parse_str("p cnf 2 1\n1 x 0\n").unwrap_err();
        assert!(matches!(err.kind, ParseDimacsErrorKind::BadLiteral(_)));
    }

    #[test]
    fn rejects_unterminated_clause() {
        let err = parse_str("p cnf 2 1\n1 2\n").unwrap_err();
        assert_eq!(err.kind, ParseDimacsErrorKind::UnterminatedClause);
    }

    #[test]
    fn rejects_bad_header() {
        let err = parse_str("p dnf 2 1\n1 0\n").unwrap_err();
        assert!(matches!(err.kind, ParseDimacsErrorKind::BadHeader(_)));
    }

    #[test]
    fn round_trips_through_text() {
        let original = parse_str("p cnf 4 3\n1 -2 0\n3 4 0\n-1 0\n").expect("parse");
        let text = to_string(&original);
        let reparsed = parse_str(&text).expect("reparse");
        assert_eq!(original.num_vars(), reparsed.num_vars());
        assert_eq!(original.clauses(), reparsed.clauses());
    }

    #[test]
    fn rejects_literals_beyond_the_largest_variable() {
        // Accepted, these would alias a small variable or panic.
        for (text, token) in [
            ("p cnf 3 1\n2147483649 0\n", "2147483649"),
            ("p cnf 3 1\n4294967297 -2 0\n", "4294967297"),
            ("p cnf 3 1\n-4294967296 0\n", "-4294967296"),
        ] {
            let err = parse_str(text).unwrap_err();
            assert_eq!(err.line, 2);
            assert_eq!(err.kind, ParseDimacsErrorKind::BadLiteral(token.into()));
        }
        let largest = parse_str("p cnf 1 1\n-2147483648 0\n").expect("parse");
        assert_eq!(largest.clauses()[0].lits()[0].to_dimacs(), -2147483648);
    }

    #[test]
    fn rejects_a_header_beyond_the_largest_variable() {
        let err = parse_str("p cnf 2147483649 0\n").unwrap_err();
        assert!(matches!(err.kind, ParseDimacsErrorKind::BadHeader(_)));
        let largest = parse_str("p cnf 2147483648 0\n").expect("parse");
        assert_eq!(largest.num_vars(), 1 << 31);
    }

    #[test]
    fn header_var_count_is_respected_when_larger() {
        let cnf = parse_str("p cnf 10 1\n1 2 0\n").expect("parse");
        assert_eq!(cnf.num_vars(), 10);
    }
}
