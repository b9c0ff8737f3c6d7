//! Driver for `ehp lint`: binds the generic analyzer in `ehp-lint` to
//! this workspace's experiment registry (which supplies the S1 scenario
//! schemas) and renders the report. The JSON report is byte-identical
//! across cached, uncached, serial, and parallel runs; cache and timing
//! telemetry reach only the human summary. The lint's wall time is
//! gated by the `lint` microbench (`crates/bench/benches/lint.rs`).

use std::path::Path;

use ehp_lint::{find_workspace_root, lint_workspace, LintConfig, LintReport, Rule};

use crate::registry;

/// How the linter was invoked.
#[derive(Debug, Default, Clone)]
pub(crate) struct LintOptions {
    /// Print the machine-readable JSON report instead of text.
    pub(crate) json: bool,
    /// Skip the incremental cache (`target/lint-cache.json`): re-tokenize
    /// every file and do not refresh the cache.
    pub(crate) no_cache: bool,
    /// Worker threads for cache-miss analysis: `1` = serial (the
    /// default), `0` = one per core, `n` = exactly `n`.
    pub(crate) jobs: Option<usize>,
    /// Print the documentation for one rule (by name or code) and exit.
    pub(crate) explain: Option<String>,
}

/// Runs the linter from `start_dir` (the workspace root is found by
/// walking up). Prints findings to stdout — JSON when `opts.json` is
/// set, one line per finding otherwise — and returns the process exit
/// code: 0 when every finding is waived, 1 when one is not, 2 on I/O
/// failure or an unknown `--explain` rule.
#[must_use]
pub(crate) fn run(start_dir: &Path, opts: &LintOptions) -> i32 {
    if let Some(name) = &opts.explain {
        return explain(name);
    }
    let Some(root) = find_workspace_root(start_dir) else {
        eprintln!(
            "ehp lint: no workspace root (Cargo.toml + crates/) above {}",
            start_dir.display()
        );
        return 2;
    };
    let schemas = registry::schemas();
    let config = LintConfig {
        root,
        schemas: &schemas,
        use_cache: !opts.no_cache,
        jobs: opts.jobs.unwrap_or(1),
    };
    // lint:allow(wall-clock) timing the lint run itself, not sim state
    let started = std::time::Instant::now();
    let report = match lint_workspace(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ehp lint: {e}");
            return 2;
        }
    };
    render(&report, opts, started.elapsed().as_secs_f64());
    i32::from(report.unwaived_count() != 0)
}

/// Prints one rule's documentation; accepts names (`hot-path-reach`) and
/// codes (`H2`), case-insensitively. An unknown rule lists every known
/// one on stderr.
fn explain(name: &str) -> i32 {
    let lower = name.to_ascii_lowercase();
    let rule = Rule::from_name_any(&lower).or_else(|| {
        Rule::ALL
            .iter()
            .copied()
            .find(|r| r.code().eq_ignore_ascii_case(name))
    });
    match rule {
        Some(r) => {
            println!("[{} {}]\n{}", r.code(), r.name(), r.explain());
            0
        }
        None => {
            eprintln!("ehp lint: unknown rule {name:?}; known rules:");
            for r in Rule::ALL {
                eprintln!("  {:<4} {}", r.code(), r.name());
            }
            2
        }
    }
}

/// Prints the report to stdout. The JSON form is byte-identical across
/// cached and uncached runs; cache and timing telemetry goes to the
/// human summary only.
fn render(report: &LintReport, opts: &LintOptions, wall_secs: f64) {
    if opts.json {
        println!("{}", report.to_json().to_string_pretty());
        return;
    }
    for f in &report.findings {
        println!("{}", f.render());
    }
    let per_rule: Vec<String> = Rule::ALL
        .iter()
        .filter_map(|&rule| {
            let n = report.findings.iter().filter(|f| f.rule == rule).count();
            (n > 0).then(|| format!("{} {}", rule.name(), n))
        })
        .collect();
    let rules = if per_rule.is_empty() {
        "no findings".to_string()
    } else {
        per_rule.join(", ")
    };
    println!(
        "ehp lint: {} file(s), {} scenario spec(s): {} unwaived finding(s), {} waived [{rules}]",
        report.files_scanned,
        report.scenarios_scanned,
        report.unwaived_count(),
        report.waived_count()
    );
    println!(
        "ehp lint: {} cache hit(s), {} miss(es), {:.3} s",
        report.cache_hits, report.cache_misses, wall_secs
    );
}
