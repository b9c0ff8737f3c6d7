//! Plain-text experiment reports.

use std::fmt::Write as _;

/// A simple experiment report: titled sections of aligned rows. JSON
/// payloads travel separately (see
/// [`ExperimentResult`](crate::experiment::ExperimentResult)).
#[derive(Debug, Default, Clone)]
pub struct Report {
    text: String,
}

impl Report {
    /// Starts a report for an experiment id (e.g. `"figure20"`).
    #[must_use]
    pub(crate) fn new(name: &str) -> Report {
        let mut r = Report {
            text: String::new(),
        };
        let bar = "=".repeat(64);
        let _ = writeln!(r.text, "{bar}\n{name}\n{bar}");
        r
    }

    /// Adds a section header.
    pub(crate) fn section(&mut self, title: &str) {
        let _ = writeln!(self.text, "\n-- {title} --");
    }

    /// Adds one row of text.
    pub(crate) fn row(&mut self, line: impl AsRef<str>) {
        let _ = writeln!(self.text, "{}", line.as_ref());
    }

    /// Adds a `key: value` row with padding.
    pub(crate) fn kv(&mut self, key: &str, value: impl std::fmt::Display) {
        let _ = writeln!(self.text, "  {key:<42} {value}");
    }

    /// The accumulated text.
    #[must_use]
    pub(crate) fn text(&self) -> &str {
        &self.text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accumulates_text() {
        let mut r = Report::new("test");
        r.section("s1");
        r.kv("key", 42);
        r.row("plain");
        let t = r.text();
        assert!(t.contains("test"));
        assert!(t.contains("-- s1 --"));
        assert!(t.contains("key"));
        assert!(t.contains("42"));
        assert!(t.contains("plain"));
    }
}
