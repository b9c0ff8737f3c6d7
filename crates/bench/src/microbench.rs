//! A minimal, dependency-free microbenchmark runner.
//!
//! Each bench under `benches/` is a plain `fn main` that owns one
//! [`Bench`]: it times named cases with [`Bench::run`] and exits with the
//! code [`Bench::finish`] returns. Every case makes one warm-up call,
//! then a fixed number of individually timed calls, so every case
//! reports mean, standard deviation, minimum and maximum wall-clock time
//! per iteration.
//!
//! Beyond reporting, the runner supports regression gating for CI. It
//! accepts exactly these arguments (plus the `--bench` cargo appends);
//! anything else, or a flag without its value, prints the usage line
//! and exits 2, so a typo never turns a gate into an ungated pass:
//!
//! * `--save-baseline <name>` writes every case's statistics to a JSON
//!   baseline file after the run.
//! * `--baseline <name>` compares the run against a saved baseline and
//!   exits non-zero if any case's per-iteration *minimum* regressed by
//!   more than the threshold (`--threshold <fraction>`, finite and
//!   ≥ 0, default 0.30), or if the baseline names a case the run did
//!   not produce. The minimum, not the mean, is gated: background load
//!   only inflates samples, so the min stays stable on a noisy CI box
//!   while still moving on any real slowdown.
//!
//! A `<name>` containing `/` or ending in `.json` is used as a literal
//! path (so checked-in baselines like `crates/bench/baselines/replay.json`
//! work); anything else resolves to `target/microbench/<name>.json`.
//!
//! Baselines carry a `calibration_ns` measurement of a fixed integer
//! workload taken on the machine that saved them; comparisons scale the
//! saved minima by the ratio of current to saved calibration, so a
//! baseline generated on a faster or slower machine still gates on
//! *relative* regressions rather than raw machine speed.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use ehp_sim_core::json::Json;
use ehp_sim_core::stats::Accumulator;

/// The accepted command line, printed when an argument is rejected.
const USAGE: &str = "usage: cargo bench --bench <name> -- \
[--save-baseline <path|name>] [--baseline <path|name>] [--threshold <fraction>]";

/// One finished case.
#[derive(Debug)]
struct Record {
    name: String,
    mean_ns: f64,
    stddev_ns: f64,
    min_ns: f64,
    max_ns: f64,
    samples: u64,
}

/// The runner's command-line options.
#[derive(Debug, PartialEq)]
struct Options {
    save_baseline: Option<String>,
    baseline: Option<String>,
    threshold: f64,
}

/// Parses the runner's arguments (without the program name). Cargo
/// appends `--bench` after the user's arguments; it is the one extra
/// argument accepted.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        save_baseline: None,
        baseline: None,
        threshold: 0.30,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        // A following flag (such as cargo's `--bench`) is not a value.
        let mut value = || {
            args.next()
                .filter(|v| !v.starts_with("--"))
                .ok_or(format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--bench" => {}
            "--save-baseline" => opts.save_baseline = Some(value()?),
            "--baseline" => opts.baseline = Some(value()?),
            "--threshold" => {
                let v = value()?;
                opts.threshold = v
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or(format!(
                        "--threshold needs a finite fraction >= 0, got {v:?}"
                    ))?;
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(opts)
}

/// One bench binary's runner: its sample count, its options and the
/// cases it has timed so far.
#[derive(Debug)]
pub struct Bench {
    samples: usize,
    opts: Options,
    records: Vec<Record>,
}

impl Bench {
    /// A runner timing `samples` calls per case, configured from the
    /// process arguments. A rejected argument prints the error and the
    /// usage line and exits the process with status 2.
    #[must_use]
    pub fn from_args(samples: usize) -> Bench {
        match parse_args(std::env::args().skip(1)) {
            Ok(opts) => Bench::new(samples, opts),
            Err(e) => {
                eprintln!("error: {e}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    fn new(samples: usize, opts: Options) -> Bench {
        assert!(samples > 0, "a case needs at least one timed sample");
        Bench {
            samples,
            opts,
            records: Vec::new(),
        }
    }

    /// Times case `name`: one warm-up call of `f`, then `samples`
    /// individually timed calls so the spread (stddev/min/max) is
    /// observable. Prints one line and keeps the record for
    /// [`Bench::finish`].
    pub fn run<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        black_box(f());
        let mut acc = Accumulator::default();
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(f());
            acc.record(start.elapsed().as_nanos() as f64);
        }
        let r = Record {
            name: name.to_string(),
            mean_ns: acc.mean().expect("samples > 0"),
            stddev_ns: acc.stddev().expect("samples > 0"),
            min_ns: acc.min().expect("samples > 0"),
            max_ns: acc.max().expect("samples > 0"),
            samples: acc.count(),
        };
        let (scale, unit) = if r.mean_ns >= 1e6 {
            (1e6, "ms")
        } else if r.mean_ns >= 1e3 {
            (1e3, "us")
        } else {
            (1.0, "ns")
        };
        println!(
            "{name:<48} {:>10.2} \u{b1} {:.2} {unit}/iter  [{:.2} .. {:.2}]  ({} samples)",
            r.mean_ns / scale,
            r.stddev_ns / scale,
            r.min_ns / scale,
            r.max_ns / scale,
            r.samples,
        );
        self.records.push(r);
    }

    /// Saves and/or compares baselines as the options ask and returns
    /// the process exit code: 0, or 1 on a regression, a stale
    /// baseline entry or an I/O error.
    #[must_use]
    pub fn finish(self) -> i32 {
        match self.save_and_compare() {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        }
    }

    fn save_and_compare(&self) -> Result<(), String> {
        if let Some(name) = &self.opts.save_baseline {
            let path = save_baseline(name, &self.records)?;
            println!("\nsaved baseline to {}", path.display());
        }
        if let Some(name) = &self.opts.baseline {
            let pct = self.opts.threshold * 100.0;
            let n = compare_against_baseline(name, &self.records, self.opts.threshold)?;
            if n > 0 {
                return Err(format!(
                    "{n} benchmark(s) regressed beyond the {pct:.0}% threshold"
                ));
            }
            println!("no regressions beyond {pct:.0}% threshold");
        }
        Ok(())
    }
}

/// Measures a fixed integer workload (best of five) as a machine-speed
/// reference stored with each baseline. The multiply-add recurrence is
/// loop-carried, so the optimiser cannot collapse it.
fn calibrate() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..1_000_000u64 {
            x = x.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(i);
        }
        black_box(x);
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// Workspace root. Cargo runs bench binaries with the *package*
/// directory as CWD, so relative baseline paths must anchor here to
/// mean the same thing as in a shell at the repo root (where `ci.sh`
/// spells out `crates/bench/baselines/replay.json`).
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Resolves a baseline name to a path: names containing `/` or ending
/// in `.json` are literal paths (relative ones anchored at the
/// workspace root); anything else lands under `target/microbench/`.
fn baseline_path(name: &str) -> PathBuf {
    let p = if name.contains('/') || name.ends_with(".json") {
        PathBuf::from(name)
    } else {
        PathBuf::from("target/microbench").join(format!("{name}.json"))
    };
    if p.is_absolute() {
        p
    } else {
        workspace_root().join(p)
    }
}

fn baseline_json(records: &[Record], calibration_ns: f64) -> Json {
    let benches: Vec<(String, Json)> = records
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                Json::object([
                    ("mean_ns", Json::Num(r.mean_ns)),
                    ("stddev_ns", Json::Num(r.stddev_ns)),
                    ("min_ns", Json::Num(r.min_ns)),
                    ("max_ns", Json::Num(r.max_ns)),
                    ("samples", Json::from(r.samples)),
                ]),
            )
        })
        .collect();
    Json::object([
        ("schema", Json::from("ehp-microbench-baseline/v1")),
        ("calibration_ns", Json::Num(calibration_ns)),
        ("benches", Json::Obj(benches.into_iter().collect())),
    ])
}

fn save_baseline(name: &str, records: &[Record]) -> Result<PathBuf, String> {
    let path = baseline_path(name);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
    }
    let json = baseline_json(records, calibrate());
    std::fs::write(&path, json.to_string_pretty() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

fn compare_against_baseline(name: &str, records: &[Record], threshold: f64) -> Result<u32, String> {
    let path = baseline_path(name);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("reading baseline {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("parsing {}: {e:?}", path.display()))?;
    println!("\nbaseline {}", path.display());
    count_regressions(&json, calibrate(), records, threshold)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Compares `records` against a parsed baseline and returns how many
/// regressed beyond `threshold`. Pure in its inputs: `calibration_ns`
/// is this machine's [`calibrate`] measurement, taken by the caller.
/// A baseline entry no record matches is an error: a renamed or
/// deleted case must not lose its gate silently.
fn count_regressions(
    baseline: &Json,
    calibration_ns: f64,
    records: &[Record],
    threshold: f64,
) -> Result<u32, String> {
    let saved_cal = baseline
        .get("calibration_ns")
        .and_then(Json::as_f64)
        .ok_or("missing calibration_ns")?;
    let benches = baseline
        .get("benches")
        .and_then(Json::as_obj)
        .ok_or("missing benches object")?;

    // Scale saved times to this machine's speed: a 2x-slower machine
    // has a 2x-larger calibration and expects 2x-larger times.
    let cal_ratio = calibration_ns / saved_cal;
    println!("machine-speed ratio {cal_ratio:.3}");

    let mut regressions = 0u32;
    let mut compared = 0u32;
    for r in records {
        // Gate on the per-iteration *minimum*: background load can only
        // inflate samples, so the min is the noise-robust statistic — a
        // real regression shifts it, a busy CI box does not.
        let Some(saved_min) = benches
            .get(&r.name)
            .and_then(|b| b.get("min_ns"))
            .and_then(Json::as_f64)
        else {
            println!("  {:<46} not in baseline (skipped)", r.name);
            continue;
        };
        compared += 1;
        let expected = saved_min * cal_ratio;
        let delta = r.min_ns / expected - 1.0;
        let verdict = if delta > threshold {
            regressions += 1;
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "  {:<46} {:>+7.1}% vs expected {:.2} us  {verdict}",
            r.name,
            delta * 100.0,
            expected / 1e3,
        );
    }
    let stale: Vec<&str> = benches
        .keys()
        .filter(|name| !records.iter().any(|r| &r.name == *name))
        .map(String::as_str)
        .collect();
    for name in &stale {
        println!("  {name:<46} in baseline, not run  STALE");
    }
    if !stale.is_empty() {
        return Err(format!(
            "no case produced baseline entry {}",
            stale.join(", ")
        ));
    }
    if compared == 0 {
        return Err("no benchmark matched the baseline".to_string());
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> Options {
        parse_args([]).unwrap()
    }

    fn args(a: &[&str]) -> Result<Options, String> {
        parse_args(a.iter().map(|s| s.to_string()))
    }

    #[test]
    fn run_makes_one_warm_up_call_then_n_timed_calls() {
        let mut calls = 0u32;
        let mut b = Bench::new(5, defaults());
        b.run("shim/self_test", || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 6);
        assert_eq!(b.records[0].samples, 5);
    }

    #[test]
    fn records_carry_the_names_given_to_run() {
        let mut b = Bench::new(2, defaults());
        for n in [1u32, 2, 3] {
            b.run(&format!("shim/group/{n}"), || n * 2);
        }
        b.run("shim/single", || 0);
        let names: Vec<&str> = b.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "shim/group/1",
                "shim/group/2",
                "shim/group/3",
                "shim/single"
            ]
        );
    }

    #[test]
    fn finish_without_flags_returns_zero_and_writes_nothing() {
        let dir = workspace_root().join("target/microbench");
        let listing = || -> Vec<PathBuf> {
            std::fs::read_dir(&dir)
                .map_or_else(|_| Vec::new(), |d| d.map(|e| e.unwrap().path()).collect())
        };
        let before = listing();
        let mut b = Bench::new(2, defaults());
        b.run("shim/finish", || 1u8);
        assert_eq!(b.finish(), 0);
        assert_eq!(listing(), before);
    }

    #[test]
    fn per_sample_stats_are_recorded() {
        let mut b = Bench::new(16, defaults());
        b.run("shim/stats", || black_box(3u64).wrapping_mul(5));
        let r = &b.records[0];
        assert_eq!(r.samples, 16);
        assert!(r.min_ns <= r.mean_ns && r.mean_ns <= r.max_ns);
        assert!(r.stddev_ns >= 0.0);
    }

    #[test]
    fn no_arguments_or_cargos_bench_flag_give_the_defaults() {
        let d = defaults();
        assert_eq!(
            d,
            Options {
                save_baseline: None,
                baseline: None,
                threshold: 0.30
            }
        );
        assert_eq!(args(&["--bench"]), Ok(d));
    }

    #[test]
    fn accepted_flags_parse_before_cargos_bench_flag() {
        let o = args(&[
            "--save-baseline",
            "before",
            "--baseline",
            "crates/bench/baselines/replay.json",
            "--threshold",
            "2.0",
            "--bench",
        ])
        .unwrap();
        assert_eq!(o.save_baseline.as_deref(), Some("before"));
        assert_eq!(
            o.baseline.as_deref(),
            Some("crates/bench/baselines/replay.json")
        );
        assert_eq!(o.threshold, 2.0);
        assert_eq!(args(&["--threshold", "0"]).unwrap().threshold, 0.0);
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        for bad in [
            &[
                "--baselne",
                "crates/bench/baselines/thermal.json",
                "--bench",
            ][..],
            &["--sample-size", "3"],
            &["replay_hot"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn malformed_thresholds_are_rejected() {
        for bad in ["0,3", "-0.1", "NaN", "inf", ""] {
            assert!(args(&["--threshold", bad]).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn flags_missing_their_value_are_rejected() {
        for flag in ["--save-baseline", "--baseline", "--threshold"] {
            assert!(args(&[flag]).is_err(), "{flag} at the end");
            assert!(args(&[flag, "--bench"]).is_err(), "{flag} before --bench");
        }
    }

    fn record(name: &str, min_ns: f64) -> Record {
        Record {
            name: name.to_string(),
            mean_ns: min_ns + 20.0,
            stddev_ns: 10.0,
            min_ns,
            max_ns: min_ns + 40.0,
            samples: 8,
        }
    }

    #[test]
    fn regressions_scale_with_calibration() {
        // Saved on a machine calibrating at 100 ns with a 1000 ns min.
        let baseline = baseline_json(&[record("x/1", 1000.0)], 100.0);
        let count = |cal: f64, min_ns: f64| {
            count_regressions(&baseline, cal, &[record("x/1", min_ns)], 0.30).unwrap()
        };
        // Same machine speed: within 30% passes, beyond it regresses.
        assert_eq!(count(100.0, 1000.0), 0);
        assert_eq!(count(100.0, 1290.0), 0);
        assert_eq!(count(100.0, 1310.0), 1);
        assert_eq!(count(100.0, 3000.0), 1);
        // A 2x-slower machine expects 2x-larger times.
        assert_eq!(count(200.0, 2500.0), 0);
        assert_eq!(count(200.0, 2700.0), 1);
        // A 2x-faster machine expects half.
        assert_eq!(count(50.0, 700.0), 1);
    }

    #[test]
    fn baseline_round_trip_detects_regressions() {
        // Per-test file name: parallel tests and concurrent test
        // processes never share it.
        let path = std::env::temp_dir().join(format!(
            "ehp-microbench-{}-baseline_round_trip.json",
            std::process::id()
        ));
        let json = baseline_json(&[record("x/1", 1000.0)], 100.0);
        std::fs::write(&path, json.to_string_pretty()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let loaded = Json::parse(&text).unwrap();
        assert_eq!(loaded, json);
        // Fixed calibration: the comparison never depends on how fast
        // this machine happens to run right now.
        let count = |min_ns: f64| {
            count_regressions(&loaded, 100.0, &[record("x/1", min_ns)], 0.30).unwrap()
        };
        assert_eq!(count(1000.0), 0, "same speed: no regression");
        assert_eq!(count(3000.0), 1, "3x slower: regression");
        // A case absent from the baseline is skipped, not an error —
        // but a run where nothing matches is.
        let mixed = [record("x/1", 1000.0), record("y/2", 1.0)];
        assert_eq!(count_regressions(&loaded, 100.0, &mixed, 0.30), Ok(0));
        let stranger = [record("y/2", 1.0)];
        assert!(count_regressions(&loaded, 100.0, &stranger, 0.30).is_err());
        // A baseline entry no case produced fails the comparison, even
        // when every case that ran is within the threshold.
        let stale = baseline_json(&[record("x/1", 1000.0), record("x/999", 1.0)], 100.0);
        let err = count_regressions(&stale, 100.0, &[record("x/1", 1000.0)], 0.30).unwrap_err();
        assert!(err.contains("x/999"), "{err}");
        assert!(
            compare_against_baseline(path.to_str().unwrap(), &[], 0.30).is_err(),
            "a missing baseline file is an error"
        );
    }

    #[test]
    fn baseline_path_resolution() {
        let root = workspace_root();
        assert_eq!(
            baseline_path("replay"),
            root.join("target/microbench/replay.json")
        );
        assert_eq!(
            baseline_path("crates/bench/baselines/replay.json"),
            root.join("crates/bench/baselines/replay.json")
        );
        assert_eq!(baseline_path("local.json"), root.join("local.json"));
        // Absolute paths pass through untouched.
        let abs = std::env::temp_dir().join("b.json");
        assert_eq!(baseline_path(abs.to_str().unwrap()), abs);
    }
}
