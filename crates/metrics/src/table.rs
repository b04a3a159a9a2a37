//! Small table builder shared by the experiment harness.
//!
//! Every experiment in `geogrid-bench` both prints a human-readable table
//! (the rows/series the paper reports) and writes the same table as CSV into
//! `results/`. [`Table`] is the one implementation of that behaviour.

use std::fmt::{self, Write as _};
use std::fs;
use std::io;
use std::path::Path;

/// A column-labelled table of string cells.
///
/// # Examples
///
/// ```
/// use geogrid_metrics::table::Table;
///
/// let mut t = Table::new(["nodes", "mean", "std"]);
/// t.row(["1000", "0.012", "0.034"]);
/// let csv = t.to_csv();
/// assert!(csv.starts_with("nodes,mean,std\n"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if no columns are given.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        assert!(!header.is_empty(), "table needs at least one column");
        Self {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as CSV (RFC-4180-style quoting for cells containing commas,
    /// quotes or newlines).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if cell.contains([',', '"', '\n']) {
                    out.push('"');
                    out.push_str(&cell.replace('"', "\"\""));
                    out.push('"');
                } else {
                    out.push_str(cell);
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.header);
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from directory creation or the write.
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            fs::create_dir_all(parent)?;
        }
        fs::write(path, self.to_csv())
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut line = String::new();
        for (i, h) in self.header.iter().enumerate() {
            let _ = write!(line, "{:>width$}  ", h, width = widths[i]);
        }
        writeln!(f, "{}", line.trim_end())?;
        writeln!(f, "{}", "-".repeat(line.trim_end().len()))?;
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(line, "{:>width$}  ", cell, width = widths[i]);
            }
            writeln!(f, "{}", line.trim_end())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trips_simple_cells() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2"]).row(["3", "4"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n3,4\n");
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new(["a"]);
        t.row(["x,y"]);
        t.row(["he said \"hi\""]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\""));
        assert!(csv.contains("\"he said \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn display_aligns_columns() {
        let mut t = Table::new(["n", "value"]);
        t.row(["1", "10"]).row(["1000", "2"]);
        let text = format!("{t}");
        assert!(text.contains("1000"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    fn write_csv_creates_dirs() {
        let dir = std::env::temp_dir().join("geogrid_metrics_test");
        let path = dir.join("nested").join("t.csv");
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = Table::new(["a"]);
        t.row(["1"]);
        t.write_csv(&path).expect("write");
        let back = std::fs::read_to_string(&path).expect("read");
        assert_eq!(back, "a\n1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
