//! Waivers: the two sanctioned ways to silence a finding, both of which
//! force a written reason into the tree.
//!
//! * **Inline**: `// lint:allow(<rule>) <reason>` on the offending line
//!   or on the line directly above it.
//! * **Waiver file** (`lint.waivers` at the workspace root): one line per
//!   grandfathered file, `<rule> <path> <reason...>`, waiving every
//!   finding of that rule in that file. Meant for code where touching
//!   it is worse than the finding, such as an oracle kept verbatim; the
//!   file has no entries today.
//!
//! Waived findings are still collected and reported (with their reason)
//! so `ehp lint --json` consumers can audit them; they just don't fail
//! the build. A waiver without a reason, or naming an unknown rule, is
//! itself a finding — silence must stay auditable.

use crate::findings::{Finding, Rule};
use crate::tokenizer::LineComment;
use crate::WAIVER_FILE;

/// An inline `lint:allow` waiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineWaiver {
    /// The waived rule.
    pub(crate) rule: Rule,
    /// Comment line; covers findings on this line and the next.
    pub(crate) line: u32,
    /// Mandatory justification.
    pub(crate) reason: String,
}

/// Extracts inline waivers from a file's comments. Malformed waivers
/// (unknown rule, empty reason) are reported as [`Rule::Waiver`]
/// findings instead.
#[must_use]
pub(crate) fn inline_waivers(
    path: &str,
    comments: &[LineComment],
) -> (Vec<InlineWaiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for c in comments {
        let Some(rest) = c.text.trim().strip_prefix("lint:allow(") else {
            continue;
        };
        let Some((name, reason)) = rest.split_once(')') else {
            findings.push(Finding::new(
                Rule::Waiver,
                path,
                c.line,
                "malformed waiver: expected `lint:allow(<rule>) <reason>`",
            ));
            continue;
        };
        let Some(rule) = Rule::from_name(name.trim()) else {
            findings.push(Finding::new(
                Rule::Waiver,
                path,
                c.line,
                format!("waiver names unknown rule {:?}", name.trim()),
            ));
            continue;
        };
        let reason = reason.trim();
        if reason.is_empty() {
            findings.push(Finding::new(
                Rule::Waiver,
                path,
                c.line,
                format!("waiver for `{}` has no reason", rule.name()),
            ));
            continue;
        }
        waivers.push(InlineWaiver {
            rule,
            line: c.line,
            reason: reason.to_string(),
        });
    }
    (waivers, findings)
}

/// Marks findings covered by an inline waiver (same line or the line
/// below the waiver comment) as waived.
pub fn apply_inline(findings: &mut [Finding], waivers: &[InlineWaiver]) {
    for f in findings.iter_mut() {
        if f.waived.is_some() {
            continue;
        }
        if let Some(w) = waivers
            .iter()
            .find(|w| w.rule == f.rule && (w.line == f.line || w.line + 1 == f.line))
        {
            f.waived = Some(w.reason.clone());
        }
    }
}

/// One waiver-file entry: waives `rule` for the whole file at `path`.
#[derive(Debug, Clone)]
pub(crate) struct FileWaiver {
    /// The waived rule.
    pub(crate) rule: Rule,
    /// Workspace-relative path, forward slashes.
    pub(crate) path: String,
    /// Mandatory justification.
    pub(crate) reason: String,
}

/// Parses the waiver file [`WAIVER_FILE`]. Malformed lines become
/// [`Rule::Waiver`] findings attributed to the waiver file itself.
#[must_use]
pub(crate) fn parse_waiver_file(text: &str) -> (Vec<FileWaiver>, Vec<Finding>) {
    let mut waivers = Vec::new();
    let mut findings = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let (name, path, reason) = (
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
            parts.next().unwrap_or("").trim(),
        );
        let Some(rule) = Rule::from_name(name) else {
            findings.push(Finding::new(
                Rule::Waiver,
                WAIVER_FILE,
                line_no,
                format!("unknown rule {name:?} in waiver file"),
            ));
            continue;
        };
        if path.is_empty() || reason.is_empty() {
            findings.push(Finding::new(
                Rule::Waiver,
                WAIVER_FILE,
                line_no,
                "waiver entry needs `<rule> <path> <reason...>`",
            ));
            continue;
        }
        waivers.push(FileWaiver {
            rule,
            path: path.to_string(),
            reason: reason.to_string(),
        });
    }
    (waivers, findings)
}

/// Marks findings covered by a file-level waiver as waived. Returns the
/// indices of waiver entries that matched nothing (stale entries — the
/// caller reports them so the waiver file cannot rot).
#[must_use]
pub(crate) fn apply_file(findings: &mut [Finding], waivers: &[FileWaiver]) -> Vec<usize> {
    let mut used = vec![false; waivers.len()];
    for f in findings.iter_mut() {
        if f.waived.is_some() {
            continue;
        }
        if let Some((i, w)) = waivers
            .iter()
            .enumerate()
            .find(|(_, w)| w.rule == f.rule && w.path == f.path)
        {
            f.waived = Some(w.reason.clone());
            used[i] = true;
        }
    }
    (0..waivers.len()).filter(|&i| !used[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    #[test]
    fn inline_waiver_parses_and_applies() {
        let src = "// lint:allow(hash-iter) order-independent count\nfor x in m.iter() {}\n";
        let f = tokenize(src);
        let (ws, errs) = inline_waivers("a.rs", &f.comments);
        assert!(errs.is_empty());
        assert_eq!(ws.len(), 1);
        let mut findings = vec![Finding::new(Rule::HashIter, "a.rs", 2, "iteration")];
        apply_inline(&mut findings, &ws);
        assert_eq!(
            findings[0].waived.as_deref(),
            Some("order-independent count")
        );
    }

    #[test]
    fn inline_waiver_requires_reason_and_known_rule() {
        let f = tokenize("// lint:allow(hash-iter)\n// lint:allow(bogus) why\n");
        let (ws, errs) = inline_waivers("a.rs", &f.comments);
        assert!(ws.is_empty());
        assert_eq!(errs.len(), 2);
    }

    #[test]
    fn waiver_does_not_leak_to_other_rules_or_lines() {
        let f = tokenize("// lint:allow(hash-iter) reason\n");
        let (ws, _) = inline_waivers("a.rs", &f.comments);
        let mut findings = vec![
            Finding::new(Rule::WallClock, "a.rs", 2, "other rule"),
            Finding::new(Rule::HashIter, "a.rs", 4, "too far"),
        ];
        apply_inline(&mut findings, &ws);
        assert!(findings.iter().all(|x| x.waived.is_none()));
    }

    #[test]
    fn waiver_file_round_trip_and_stale_detection() {
        let text = "# comment\n\nhash-iter crates/x/src/a.rs kept verbatim\nbogus p r\nhash-iter\n";
        let (ws, errs) = parse_waiver_file(text);
        assert_eq!(ws.len(), 1);
        assert_eq!(errs.len(), 2);
        let mut findings = vec![Finding::new(Rule::HashIter, "crates/x/src/a.rs", 7, "it")];
        let stale = apply_file(&mut findings, &ws);
        assert!(stale.is_empty());
        assert!(findings[0].waived.is_some());

        let mut none = vec![Finding::new(Rule::HashIter, "crates/y/src/b.rs", 1, "it")];
        let stale = apply_file(&mut none, &ws);
        assert_eq!(stale, vec![0]);
    }
}
