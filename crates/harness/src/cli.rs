//! The `ehp` command-line interface.
//!
//! ```text
//! ehp list                          show every registered experiment
//! ehp run <exp...> [options]       run selected experiments / spec files
//! ehp all [--jobs N]              run the whole registry (N threads, default 1)
//! ehp check [--jobs N]            run + compare against expected shapes
//! ehp lint [--json] [--no-cache] [--jobs N] [--explain <rule>]
//!                                  static determinism/hot-path analysis
//! ```
//!
//! Options: `--jobs N` worker threads (for lint, `0` = one per core),
//! `--seed N` batch base seed, `--param k=v` parameter override
//! (repeatable; `v` parsed as JSON, falling back to a string),
//! `--spec FILE` scenario spec file (repeatable), `--quiet` suppress
//! report text, `--json` machine-readable lint findings, `--no-cache`
//! skip the incremental lint cache, `--explain <rule>` print one lint
//! rule's documentation.
//!
//! Argument parsing is hand-rolled: the environment is offline and the
//! surface is five subcommands.

use std::collections::BTreeMap;
use std::io::IsTerminal;

use ehp_lint::{ExperimentSchema, Finding};
use ehp_sim_core::json::Json;

use crate::check;
use crate::executor::{run_batch, BatchConfig, BatchResult, OutcomeStatus, MAX_SEED};
use crate::output;
use crate::registry;
use crate::scenario::{Scenario, ScenarioSpec};
use crate::serving::{self, ServingConfig};

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    jobs: usize,
    base_seed: u64,
    quiet: bool,
    json: bool,
    no_cache: bool,
    /// `--jobs` exactly as the user typed it (lint distinguishes
    /// "absent" = serial from `0` = one per core; `jobs` above is
    /// clamped to ≥ 1 for the batch executor).
    jobs_given: Option<usize>,
    no_result_cache: bool,
    workers: usize,
    socket: Option<String>,
    explain: Option<String>,
    params: BTreeMap<String, Json>,
    seed_override: Option<u64>,
    specs: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    /// Whether batch progress lines go to stderr: stderr is an
    /// interactive terminal and `--quiet` was not given. Redirected/CI
    /// stderr stays clean — progress is a live-feedback feature, not a
    /// log format.
    fn progress_enabled(&self) -> bool {
        !self.quiet && std::io::stderr().is_terminal()
    }

    /// The serving configuration shared by `run`, `all`, and `serve`.
    fn serving_config(&self) -> ServingConfig {
        ServingConfig {
            jobs: self.jobs,
            base_seed: self.base_seed,
            progress: self.progress_enabled(),
            use_cache: !self.no_result_cache,
            cache_dir: serving::default_cache_dir(),
            workers: self.workers,
            ..ServingConfig::default()
        }
    }
}

/// Runs the CLI; returns the process exit code.
#[must_use]
pub fn run(argv: &[String]) -> i32 {
    let Some((cmd, rest)) = argv.split_first() else {
        print_usage();
        return 2;
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ehp: {e}");
            return 2;
        }
    };
    match cmd.as_str() {
        "list" => cmd_list(),
        "run" => cmd_run(&args),
        "all" => cmd_all(&args),
        "check" => cmd_check(&args),
        "worker" => {
            let mut stdin = std::io::stdin().lock();
            let mut stdout = std::io::stdout().lock();
            serving::worker_loop(&mut stdin, &mut stdout)
        }
        "serve" => {
            let socket = args
                .socket
                .clone()
                .unwrap_or_else(|| "target/ehp-serve.sock".to_string());
            serving::serve_loop(std::path::Path::new(&socket), args.serving_config())
        }
        "lint" => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| ".".into());
            let opts = crate::lint::LintOptions {
                json: args.json,
                no_cache: args.no_cache,
                jobs: args.jobs_given,
                explain: args.explain.clone(),
            };
            crate::lint::run(&cwd, &opts)
        }
        "help" | "--help" | "-h" => {
            print_usage();
            0
        }
        other => {
            eprintln!("ehp: unknown subcommand {other:?}");
            print_usage();
            2
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: ehp <list|run|all|check> [options]\n\
         \n\
         ehp list                         list every experiment\n\
         ehp run <exp...> [options]       run selected experiments\n\
         ehp all [options]                run the whole registry\n\
         ehp check [options]              run + verify expected shapes\n\
         ehp lint [--json] [--no-cache] [--jobs N] [--explain <rule>]\n\
                                          lint the workspace (DESIGN.md §10–§11, §15)\n\
         ehp serve [--socket PATH]        long-running scenario daemon (DESIGN.md §12)\n\
         ehp worker                       pool child (internal; frames on stdin/stdout)\n\
         \n\
         options:\n\
           --jobs N        worker threads (default 1)\n\
           --workers N     child worker processes for run/all, 0-64 (default 0 = in-process)\n\
           --seed N        batch base seed (default 0)\n\
           --param k=v     scenario parameter override (repeatable)\n\
           --spec FILE     scenario spec file (repeatable)\n\
           --quiet         suppress report text\n\
           --no-result-cache  bypass the result cache for this batch\n\
           --socket PATH   serve-mode Unix socket (default target/ehp-serve.sock)\n\
           --json          machine-readable lint findings\n\
           --no-cache      skip the incremental lint cache\n\
           --explain RULE  print one lint rule's documentation (name or code)\n\
           (for lint, --jobs 0 = one worker per core; default 1 = serial)"
    );
}

fn parse_args(rest: &[String]) -> Result<Args, String> {
    let mut args = Args {
        jobs: 1,
        ..Args::default()
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--jobs" | "-j" => {
                let n = value_of("--jobs")?
                    .parse::<usize>()
                    .map_err(|_| "--jobs must be a non-negative integer".to_string())?;
                args.jobs_given = Some(n);
                args.jobs = n.max(1);
            }
            "--seed" => {
                let seed = value_of("--seed")?
                    .parse::<u64>()
                    .ok()
                    .filter(|&s| s <= MAX_SEED)
                    .ok_or_else(|| format!("--seed must be an integer in 0..={MAX_SEED}"))?;
                args.base_seed = seed;
                args.seed_override = Some(seed);
            }
            "--param" | "-p" => {
                let kv = value_of("--param")?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--param {kv:?} is not k=v"))?;
                let value = Json::parse(v).unwrap_or_else(|_| Json::from(v));
                args.params.insert(k.to_string(), value);
            }
            "--workers" | "-w" => {
                args.workers = value_of("--workers")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&w| w <= serving::MAX_WORKERS)
                    .ok_or_else(|| {
                        format!(
                            "--workers must be an integer in 0..={}",
                            serving::MAX_WORKERS
                        )
                    })?;
            }
            "--socket" => args.socket = Some(value_of("--socket")?.to_string()),
            "--spec" => args.specs.push(value_of("--spec")?.to_string()),
            "--quiet" | "-q" => args.quiet = true,
            "--json" => args.json = true,
            "--no-cache" => args.no_cache = true,
            "--no-result-cache" => args.no_result_cache = true,
            "--explain" => args.explain = Some(value_of("--explain")?.to_string()),
            flag if flag.starts_with('-') => {
                return Err(format!("unknown option {flag:?}"));
            }
            positional => args.positional.push(positional.to_string()),
        }
    }
    Ok(args)
}

fn cmd_list() -> i32 {
    println!("{:<18} title", "id");
    for e in registry::all() {
        println!("{:<18} {}", e.id, e.title);
    }
    0
}

/// Builds the scenario list for `run`: positional experiment ids plus
/// expanded spec files, with CLI overrides applied on top. Each spec
/// file, and then every scenario after the overrides, must pass the S1
/// schema check `ehp serve` applies to its requests; the error lists
/// every finding.
fn gather_scenarios(args: &Args) -> Result<Vec<Scenario>, String> {
    let schemas = registry::schemas();
    let mut scenarios = Vec::new();
    for id in &args.positional {
        if registry::find(id).is_none() {
            return Err(format!("unknown experiment {id:?} (see `ehp list`)"));
        }
        scenarios.push(Scenario::default_for(id));
    }
    for path in &args.specs {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read spec {path}: {e}"))?;
        schema_check(path, &text, &schemas)?;
        for spec in ScenarioSpec::parse_file(&text).map_err(|e| e.to_string())? {
            scenarios.extend(spec.expand());
        }
    }
    if scenarios.is_empty() {
        return Err("nothing to run: name experiments or pass --spec".to_string());
    }
    for sc in &mut scenarios {
        for (k, v) in &args.params {
            sc.params.insert(k.clone(), v.clone());
        }
        if let Some(seed) = args.seed_override {
            if sc.seed.is_none() {
                sc.seed = Some(seed);
            }
        }
    }
    for sc in &scenarios {
        let text = sc.to_json().to_string_compact();
        schema_check(&format!("scenario {}", sc.name), &text, &schemas)?;
    }
    Ok(scenarios)
}

/// Validates one scenario spec text against the registry schemas (S1);
/// the error renders every finding, one per line.
fn schema_check(path: &str, text: &str, schemas: &[ExperimentSchema]) -> Result<(), String> {
    let findings = ehp_lint::schema::validate_scenario(path, text, schemas);
    if findings.is_empty() {
        return Ok(());
    }
    let lines: Vec<String> = findings.iter().map(Finding::render).collect();
    Err(format!("invalid scenario:\n{}", lines.join("\n")))
}

/// `all` and `check` run every experiment's default scenario, so the
/// overrides only `run` applies are an error rather than a silent no-op.
fn reject_scenario_flags(cmd: &str, args: &Args) -> Result<(), String> {
    if args.params.is_empty() && args.specs.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "`ehp {cmd}` runs the default scenarios; --param and --spec apply only to `ehp run`"
        ))
    }
}

/// Runs a batch through the serving layer (result cache + optional
/// worker pool) and writes every artifact under the figures directory.
fn execute_and_write(scenarios: &[Scenario], args: &Args, quiet: bool) -> BatchResult {
    let served = serving::run_batch_served(scenarios, &args.serving_config());
    if let Err(e) = output::write_cache_stats(&served.traffic_json()) {
        eprintln!("warning: cannot write cache stats: {e}");
    }
    let result = served.result;
    for o in &result.outcomes {
        if !quiet && !o.report_text.is_empty() {
            println!("{}", o.report_text);
        }
        if o.is_ok() {
            if let Err(e) = output::write_report_text(&o.scenario.name, &o.report_text) {
                eprintln!("warning: cannot write report for {}: {e}", o.scenario.name);
            }
            if let Some(payload) = &o.payload {
                if let Err(e) = output::write_figure_json(&o.scenario.name, payload) {
                    eprintln!("warning: cannot write payload for {}: {e}", o.scenario.name);
                }
            }
        }
    }
    if let Err(e) = output::write_run_summary(&result.summary_json()) {
        eprintln!("warning: cannot write run summary: {e}");
    }
    if let Err(e) = output::write_run_timing(&result.timing_json()) {
        eprintln!("warning: cannot write run timing: {e}");
    }
    result
}

fn print_batch_summary(result: &BatchResult) {
    println!(
        "\n{} / {} scenarios ok in {:.2} s (results under {})",
        result.ok_count(),
        result.outcomes.len(),
        result.wall.as_secs_f64(),
        output::figures_dir().display()
    );
    for o in &result.outcomes {
        match &o.status {
            OutcomeStatus::Ok => {}
            OutcomeStatus::UnknownExperiment => {
                println!("  FAILED {}: unknown experiment", o.scenario.name);
            }
            OutcomeStatus::Panicked(msg) => {
                println!("  FAILED {}: panicked: {msg}", o.scenario.name);
            }
        }
    }
}

fn cmd_run(args: &Args) -> i32 {
    let scenarios = match gather_scenarios(args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ehp: {e}");
            return 2;
        }
    };
    let result = execute_and_write(&scenarios, args, args.quiet);
    print_batch_summary(&result);
    i32::from(result.ok_count() != result.outcomes.len())
}

fn cmd_all(args: &Args) -> i32 {
    if let Err(e) = reject_scenario_flags("all", args) {
        eprintln!("ehp: {e}");
        return 2;
    }
    let scenarios: Vec<Scenario> = registry::ids()
        .into_iter()
        .map(Scenario::default_for)
        .collect();
    let result = execute_and_write(&scenarios, args, true);
    print_batch_summary(&result);
    i32::from(result.ok_count() != result.outcomes.len())
}

fn cmd_check(args: &Args) -> i32 {
    if let Err(e) = reject_scenario_flags("check", args) {
        eprintln!("ehp: {e}");
        return 2;
    }
    // Default scenarios for every experiment the shape table references.
    let mut ids: Vec<&str> = check::expected_shapes()
        .iter()
        .map(|s| s.experiment)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    let scenarios: Vec<Scenario> = ids.iter().map(|id| Scenario::default_for(id)).collect();
    // `ehp check` always executes — a regression gate that replayed
    // cached results would validate the cache, not the code.
    let cfg = BatchConfig {
        jobs: args.jobs,
        base_seed: args.base_seed,
        progress: args.progress_enabled(),
    };
    let result = run_batch(&scenarios, &cfg);

    let findings = check::evaluate(&result.outcomes);
    let mut failures = 0usize;
    println!(
        "{:<18} {:<36} {:>12} {:>22}  result",
        "experiment", "metric", "observed", "expected"
    );
    for f in &findings {
        let observed = f
            .observed
            .map_or("missing".to_string(), |v| format!("{v:.4}"));
        let expected = if (f.range.min - f.range.max).abs() < f64::EPSILON {
            format!("= {:.4}", f.range.min)
        } else {
            format!("[{:.4}, {:.4}]", f.range.min, f.range.max)
        };
        let verdict = if f.pass { "ok" } else { "FAIL" };
        println!(
            "{:<18} {:<36} {:>12} {:>22}  {verdict}",
            f.range.experiment, f.range.metric, observed, expected
        );
        if !f.pass {
            failures += 1;
            println!("    claim: {}", f.range.why);
        }
    }
    for o in &result.outcomes {
        if let OutcomeStatus::Panicked(msg) = &o.status {
            eprintln!("ehp check: {} panicked: {msg}", o.scenario.name);
        }
    }
    println!(
        "\n{} of {} shape checks passed",
        findings.len() - failures,
        findings.len()
    );
    i32::from(failures != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn parse_args_handles_every_flag() {
        let a = parse_args(&strings(&[
            "figure20",
            "--jobs",
            "4",
            "--seed",
            "9",
            "--param",
            "ic_mib=4",
            "--param",
            "pattern=hot",
            "--quiet",
        ]))
        .unwrap();
        assert_eq!(a.positional, vec!["figure20"]);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.base_seed, 9);
        assert!(a.quiet);
        assert_eq!(a.params.get("ic_mib"), Some(&Json::Num(4.0)));
        assert_eq!(a.params.get("pattern"), Some(&Json::from("hot")));
    }

    #[test]
    fn parse_args_rejects_bad_input() {
        assert!(parse_args(&strings(&["--jobs"])).is_err());
        assert!(parse_args(&strings(&["--jobs", "zero"])).is_err());
        assert!(parse_args(&strings(&["--param", "novalue"])).is_err());
        assert!(parse_args(&strings(&["--wat"])).is_err());
    }

    #[test]
    fn gather_rejects_unknown_experiment() {
        let mut args = Args::default();
        args.positional.push("not_a_thing".to_string());
        assert!(gather_scenarios(&args).is_err());
    }
}
