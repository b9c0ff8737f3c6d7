//! Driver for `ehp lint`: binds the generic analyzer in `ehp-lint` to
//! this workspace's experiment registry (which supplies the S1 scenario
//! schemas), renders the report, and gates the run's wall time against
//! a checked-in budget (`crates/lint/lint_budget.json`). The JSON report
//! is byte-identical across cached, uncached, serial, and parallel runs;
//! cache and timing telemetry reach only the human summary and stderr.

use std::path::Path;

use ehp_lint::{find_workspace_root, lint_workspace, LintConfig, LintReport, Rule};

use crate::registry;

/// How the linter was invoked.
#[derive(Debug, Default, Clone)]
pub struct LintOptions {
    /// Print the machine-readable JSON report instead of text.
    pub json: bool,
    /// Skip the incremental cache (`target/lint-cache.json`): re-tokenize
    /// every file and do not refresh the cache.
    pub no_cache: bool,
    /// Worker threads for cache-miss analysis: `1` = serial (the
    /// default), `0` = one per core, `n` = exactly `n`.
    pub jobs: Option<usize>,
    /// Print the documentation for one rule (by name or code) and exit.
    pub explain: Option<String>,
    /// Wall-time budget gate: path to a checked-in budget file (see
    /// `check_budget`). The run fails (exit 1) when the measured lint
    /// wall time exceeds the budget scaled to this machine's speed.
    pub budget: Option<String>,
    /// Write a fresh budget file from this run's wall time (×3 headroom)
    /// and this machine's calibration, then gate against nothing.
    pub save_budget: Option<String>,
}

/// Runs the linter from `start_dir` (the workspace root is found by
/// walking up). Prints findings to stdout — JSON when `opts.json` is
/// set, one line per finding otherwise — and returns the process exit
/// code: 0 when every finding is waived, 1 when one is not or the run
/// is over its `--budget`, 2 on I/O failure, an unreadable budget file,
/// or an unknown `--explain` rule.
#[must_use]
pub fn run(start_dir: &Path, opts: &LintOptions) -> i32 {
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
    let wall_secs = started.elapsed().as_secs_f64();
    // Render before the budget verdict, so an over-budget run still
    // shows its findings.
    render(&report, opts, wall_secs);
    let mut code = i32::from(report.unwaived_count() != 0);
    if let Some(path) = &opts.save_budget {
        if let Err(e) = save_budget(Path::new(path), wall_secs) {
            eprintln!("ehp lint: cannot save budget: {e}");
            code = 2;
        }
    } else if let Some(path) = &opts.budget {
        match check_budget(Path::new(path), wall_secs) {
            Ok(true) => {}
            Ok(false) => code = code.max(1),
            Err(e) => {
                eprintln!("ehp lint: budget gate: {e}");
                code = 2;
            }
        }
    }
    code
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

/// Headroom factor applied by `--save-budget`: CI boxes run loaded, and
/// the gate exists to catch order-of-magnitude blowups from new
/// analysis layers, not scheduler jitter. The saved budget is the
/// measured wall time times this factor.
const BUDGET_HEADROOM: f64 = 3.0;

/// Machine-speed reference: the same loop-carried multiply-add workload
/// the bench baselines store (`crates/bench/src/microbench.rs`), so a
/// budget calibrated on one machine class scales to another the same
/// way the perf-smoke gates do. Best of five, nanoseconds. Each step
/// depends on the last, so the optimiser can neither vectorise nor
/// elide the loop, and `black_box` keeps its result live.
fn calibrate() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        // lint:allow(wall-clock) measuring the host machine, not sim state
        let start = std::time::Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..1_000_000u64 {
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(i);
        }
        std::hint::black_box(x);
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// Gates a measured lint wall time against a checked-in budget file
/// (`{"schema": "ehp-lint-budget/v1", "budget_ns": .., "calibration_ns": ..}`).
/// The allowance scales by `calibrate()/calibration_ns` — a 2×-slower
/// machine gets a 2×-larger budget, exactly like the bench baselines.
/// Prints the verdict to stderr; returns whether the run fit.
fn check_budget(path: &Path, wall_secs: f64) -> Result<bool, String> {
    use ehp_sim_core::json::Json;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("parsing {}: {e:?}", path.display()))?;
    let budget_ns = json
        .get("budget_ns")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{}: missing budget_ns", path.display()))?;
    let saved_cal = json
        .get("calibration_ns")
        .and_then(Json::as_f64)
        .filter(|c| *c > 0.0)
        .ok_or_else(|| format!("{}: missing calibration_ns", path.display()))?;
    let ratio = calibrate() / saved_cal;
    let allowed_ns = budget_ns * ratio;
    let measured_ns = wall_secs * 1e9;
    let fits = measured_ns <= allowed_ns;
    eprintln!(
        "ehp lint: budget {:.1} ms measured vs {:.1} ms allowed ({:.1} ms budget × {ratio:.3} machine-speed ratio) — {}",
        measured_ns / 1e6,
        allowed_ns / 1e6,
        budget_ns / 1e6,
        if fits { "ok" } else { "OVER BUDGET" },
    );
    Ok(fits)
}

/// Writes a budget file from a measured wall time with
/// [`BUDGET_HEADROOM`] slack, stamped with this machine's calibration.
fn save_budget(path: &Path, wall_secs: f64) -> Result<(), String> {
    use ehp_sim_core::json::Json;
    let json = Json::object([
        ("schema", Json::from("ehp-lint-budget/v1")),
        ("budget_ns", Json::Num(wall_secs * 1e9 * BUDGET_HEADROOM)),
        ("calibration_ns", Json::Num(calibrate())),
    ]);
    std::fs::write(path, json.to_string_pretty() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!(
        "ehp lint: saved budget {} ({:.1} ms × {BUDGET_HEADROOM:.0})",
        path.display(),
        wall_secs * 1e3
    );
    Ok(())
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
