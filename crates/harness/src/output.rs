//! The single result-writer: every artifact the harness produces lands
//! under one figures directory with a predictable layout.
//!
//! ```text
//! target/figures/
//!   <scenario>.json      figure payload (data series)
//!   <scenario>.txt       rendered text report
//!   run_summary.json     deterministic batch summary (byte-identical
//!                        across same-seed runs)
//!   run_timing.json      wall-clock timings (deliberately separate —
//!                        timing is the one non-deterministic output)
//! ```
//!
//! The directory defaults to `target/figures` relative to the current
//! working directory and can be redirected with `EHP_FIGURES_DIR`
//! (tests use this to write under a tempdir).

use std::fs;
use std::io;
use std::path::PathBuf;

use ehp_sim_core::json::Json;

/// The directory all harness output lands in.
#[must_use]
pub(crate) fn figures_dir() -> PathBuf {
    match std::env::var_os("EHP_FIGURES_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("target/figures"),
    }
}

/// Sanitises a scenario name into a filename stem (sweep-expanded names
/// contain `/` and `=`).
#[must_use]
pub(crate) fn file_stem(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn write(path: &PathBuf, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, contents)
}

/// Writes a figure payload as `<stem>.json`; returns the path.
pub(crate) fn write_figure_json(name: &str, payload: &Json) -> io::Result<PathBuf> {
    let path = figures_dir().join(format!("{}.json", file_stem(name)));
    write(&path, &payload.to_string_pretty())?;
    Ok(path)
}

/// Writes a rendered report as `<stem>.txt`; returns the path.
pub(crate) fn write_report_text(name: &str, text: &str) -> io::Result<PathBuf> {
    let path = figures_dir().join(format!("{}.txt", file_stem(name)));
    write(&path, text)?;
    Ok(path)
}

/// Writes the deterministic batch summary; returns the path.
pub(crate) fn write_run_summary(summary: &Json) -> io::Result<PathBuf> {
    let path = figures_dir().join("run_summary.json");
    write(&path, &summary.to_string_pretty())?;
    Ok(path)
}

/// Writes the (non-deterministic) timing sidecar; returns the path.
pub(crate) fn write_run_timing(timing: &Json) -> io::Result<PathBuf> {
    let path = figures_dir().join("run_timing.json");
    write(&path, &timing.to_string_pretty())?;
    Ok(path)
}

/// Writes the serving-layer cache/pool traffic sidecar. Like timing,
/// this is kept out of `run_summary.json`: hit counts depend on what
/// previous runs left in the cache, so they must never leak into the
/// byte-identical summary.
pub(crate) fn write_cache_stats(stats: &Json) -> io::Result<PathBuf> {
    let path = figures_dir().join("cache_stats.json");
    write(&path, &stats.to_string_pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stems_are_filesystem_safe() {
        assert_eq!(file_stem("figure20"), "figure20");
        assert_eq!(file_stem("ic/ic_mib=2 seed=3"), "ic_ic_mib_2_seed_3");
    }
}
