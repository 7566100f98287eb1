//! Report output: aligned ASCII tables and CSV.
//!
//! The figure generators print the paper's data series as tables to stdout
//! and write CSV files under `results/` for plotting. Both writers live
//! here so every experiment formats identically.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// An in-memory table: a header row plus data rows of equal width.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new<S: Into<String>>(title: S, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of pre-formatted cells.
    ///
    /// # Panics
    /// Panics if the width differs from the header.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Render as an aligned ASCII table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "## {}", self.title);
        }
        let rule: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!(" {c:>w$} "))
                .collect::<Vec<_>>()
                .join("|")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header));
        let _ = writeln!(out, "{rule}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }

    /// Write as CSV to `path`, creating parent directories.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let mut csv = Csv::new(&self.header.iter().map(String::as_str).collect::<Vec<_>>());
        for row in &self.rows {
            csv.push_raw(row.clone());
        }
        csv.write(path)
    }
}

/// Minimal CSV writer/reader (RFC-4180 quoting and parsing).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Csv {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Csv {
    /// Create with column names.
    pub fn new(header: &[&str]) -> Self {
        Csv {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append pre-formatted cells.
    ///
    /// # Panics
    /// Panics if the width differs from the header.
    pub fn push_raw(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "CSV row width mismatch");
        self.rows.push(row);
    }

    fn quote(cell: &str) -> String {
        // RFC 4180 §2: fields containing commas, double quotes, or line
        // breaks (LF or CR) must be quoted, with inner quotes doubled.
        if cell.contains([',', '"', '\n', '\r']) {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_string()
        }
    }

    /// Render to a CSV string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let line = |cells: &[String]| {
            // A lone empty field would render as a blank line, which CSV
            // readers (including `parse`) see as no record at all; emit
            // the quoted empty field so the row survives a round trip.
            if cells.len() == 1 && cells[0].is_empty() {
                return "\"\"".to_string();
            }
            cells
                .iter()
                .map(|c| Self::quote(c))
                .collect::<Vec<_>>()
                .join(",")
        };
        let _ = writeln!(out, "{}", line(&self.header));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row));
        }
        out
    }

    /// Parse RFC 4180 CSV text back into header + rows (the inverse of
    /// [`Csv::render`]: `parse(render(c)) == c` for every `Csv`).
    ///
    /// Returns `None` on malformed input: an unterminated quoted field, a
    /// bare quote inside an unquoted field, ragged row widths, or empty
    /// input with no header line.
    pub fn parse(text: &str) -> Option<Csv> {
        let mut records: Vec<Vec<String>> = Vec::new();
        let mut row: Vec<String> = Vec::new();
        let mut cell = String::new();
        let mut chars = text.chars().peekable();
        // Tracks whether we are mid-record (so a trailing newline does not
        // produce a phantom empty record).
        let mut any = false;
        while let Some(c) = chars.next() {
            match c {
                '"' if cell.is_empty() => {
                    // Quoted field: read until the closing quote, honouring
                    // doubled quotes as literal ones.
                    loop {
                        match chars.next()? {
                            '"' => {
                                if chars.peek() == Some(&'"') {
                                    chars.next();
                                    cell.push('"');
                                } else {
                                    break;
                                }
                            }
                            other => cell.push(other),
                        }
                    }
                    // The closing quote must end the field.
                    match chars.peek() {
                        None | Some(',') | Some('\n') | Some('\r') => {}
                        Some(_) => return None,
                    }
                    any = true;
                }
                '"' => return None,
                ',' => {
                    row.push(std::mem::take(&mut cell));
                    any = true;
                }
                '\r' => {
                    // CRLF or bare CR both terminate the record.
                    if chars.peek() == Some(&'\n') {
                        chars.next();
                    }
                    if any || !cell.is_empty() || !row.is_empty() {
                        row.push(std::mem::take(&mut cell));
                        records.push(std::mem::take(&mut row));
                        any = false;
                    }
                }
                '\n' => {
                    if any || !cell.is_empty() || !row.is_empty() {
                        row.push(std::mem::take(&mut cell));
                        records.push(std::mem::take(&mut row));
                        any = false;
                    }
                }
                other => {
                    cell.push(other);
                    any = true;
                }
            }
        }
        if any || !cell.is_empty() || !row.is_empty() {
            row.push(cell);
            records.push(row);
        }
        let mut it = records.into_iter();
        let header = it.next()?;
        let rows: Vec<Vec<String>> = it.collect();
        if rows.iter().any(|r| r.len() != header.len()) {
            return None;
        }
        Some(Csv { header, rows })
    }

    /// Column names.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// Data rows (header excluded).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Write to `path`, creating parent directories as needed.
    pub fn write<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["policy", "delay", "energy"]);
        t.push_row(vec!["NS".into(), "0.00".into(), "4.10".into()]);
        t.push_row(vec!["PAS".into(), "1.50".into(), "0.62".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("policy"));
        assert!(s.contains("PAS"));
        assert!(s.contains("1.50"));
        assert_eq!(s.lines().count(), 5);
        // All data lines have the same length (alignment).
        let lines: Vec<&str> = s.lines().skip(1).collect();
        let lens: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{lens:?}");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_renders_and_quotes() {
        let mut c = Csv::new(&["name", "value"]);
        c.push_raw(vec!["plain".into(), "1".into()]);
        c.push_raw(vec!["with,comma".into(), "quote\"inside".into()]);
        let s = c.render();
        let mut lines = s.lines();
        assert_eq!(lines.next().unwrap(), "name,value");
        assert_eq!(lines.next().unwrap(), "plain,1");
        assert_eq!(lines.next().unwrap(), "\"with,comma\",\"quote\"\"inside\"");
    }

    #[test]
    fn csv_quotes_carriage_returns() {
        let mut c = Csv::new(&["a"]);
        c.push_raw(vec!["line\rbreak".into()]);
        assert!(c.render().contains("\"line\rbreak\""));
    }

    #[test]
    fn csv_roundtrips_hostile_cells() {
        let mut c = Csv::new(&["max_sleep_s, adaptive", "policy\"quoted\""]);
        c.push_raw(vec!["plain".into(), "PAS, tuned".into()]);
        c.push_raw(vec!["multi\nline".into(), "cr\rcell".into()]);
        c.push_raw(vec![String::new(), "\"".into()]);
        let back = Csv::parse(&c.render()).expect("rendered CSV parses");
        assert_eq!(back, c);
    }

    #[test]
    fn csv_roundtrips_lone_empty_cell_rows() {
        let mut c = Csv::new(&["only"]);
        c.push_raw(vec![String::new()]);
        c.push_raw(vec!["x".into()]);
        assert_eq!(c.render(), "only\n\"\"\nx\n");
        let back = Csv::parse(&c.render()).expect("parses");
        assert_eq!(back, c);
    }

    #[test]
    fn csv_parse_rejects_malformed() {
        assert!(Csv::parse("a,b\n\"unterminated").is_none());
        assert!(Csv::parse("a,b\nx\"y,z").is_none());
        assert!(Csv::parse("a,b\nonly-one-cell").is_none());
        assert!(Csv::parse("\"mid\"dle\",b").is_none());
        assert!(Csv::parse("").is_none());
    }

    #[test]
    fn csv_parse_accepts_crlf_lines() {
        let c = Csv::parse("a,b\r\n1,2\r\n").expect("CRLF parses");
        assert_eq!(c.header(), &["a".to_string(), "b".to_string()]);
        assert_eq!(c.rows(), &[vec!["1".to_string(), "2".to_string()]]);
    }

    #[test]
    fn csv_writes_to_disk() {
        let dir = std::env::temp_dir().join("pas_metrics_test_csv");
        let path = dir.join("nested").join("out.csv");
        let mut c = Csv::new(&["a"]);
        c.push_raw(vec!["1".into()]);
        c.write(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, "a\n1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table_to_csv() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(vec!["r".into(), "2.0".into()]);
        let dir = std::env::temp_dir().join("pas_metrics_test_tablecsv");
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert!(back.starts_with("a,b\n"));
        assert!(back.contains("r,2.0"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
