//! A minimal, dependency-free microbenchmark runner with a
//! Criterion-compatible surface.
//!
//! The build environment is fully offline, so the `criterion` crate can
//! never resolve; the benches under `benches/` only use a small slice of
//! its API (`bench_function`, `benchmark_group` + `bench_with_input`,
//! `black_box`, the `criterion_group!`/`criterion_main!` macros), and
//! this module implements exactly that slice. Each sample is timed
//! individually, so every benchmark reports mean, standard deviation,
//! minimum and maximum wall-clock time per iteration.
//!
//! Beyond reporting, the runner supports regression gating for CI:
//!
//! * `--save-baseline <name>` writes every benchmark's statistics to a
//!   JSON baseline file after the run.
//! * `--baseline <name>` compares the run against a saved baseline and
//!   exits non-zero if any benchmark's per-iteration *minimum* regressed
//!   by more than the threshold (`--threshold <fraction>`, default
//!   0.30). The minimum, not the mean, is gated: background load only
//!   inflates samples, so the min stays stable on a noisy CI box while
//!   still moving on any real slowdown.
//! * `--sample-size <n>` overrides the default sample count globally.
//!
//! A `<name>` containing `/` or ending in `.json` is used as a literal
//! path (so checked-in baselines like `crates/bench/baselines/replay.json`
//! work); anything else resolves to `target/microbench/<name>.json`.
//!
//! Baselines carry a `calibration_ns` measurement of a fixed integer
//! workload taken on the machine that saved them; comparisons scale the
//! saved means by the ratio of current to saved calibration, so a
//! baseline generated on a faster or slower machine still gates on
//! *relative* regressions rather than raw machine speed.

use std::fmt::Display;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use ehp_sim_core::json::Json;
use ehp_sim_core::stats::Accumulator;

pub use std::hint::black_box;

pub use crate::{criterion_group, criterion_main};

/// One finished benchmark, as recorded in the results registry.
#[derive(Debug, Clone)]
struct Record {
    name: String,
    mean_ns: f64,
    stddev_ns: f64,
    min_ns: f64,
    max_ns: f64,
    samples: u64,
}

static RESULTS: Mutex<Vec<Record>> = Mutex::new(Vec::new());

/// Options parsed once from the process arguments. Unknown flags are
/// ignored because cargo passes its own (e.g. `--bench`).
#[derive(Debug, Clone)]
struct Options {
    save_baseline: Option<String>,
    baseline: Option<String>,
    threshold: f64,
    sample_size: Option<usize>,
}

fn options() -> &'static Options {
    static OPTIONS: OnceLock<Options> = OnceLock::new();
    OPTIONS.get_or_init(|| {
        let mut opts = Options {
            save_baseline: None,
            baseline: None,
            threshold: 0.30,
            sample_size: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--save-baseline" => opts.save_baseline = args.next(),
                "--baseline" => opts.baseline = args.next(),
                "--threshold" => {
                    if let Some(v) = args.next().and_then(|s| s.parse::<f64>().ok()) {
                        opts.threshold = v.max(0.0);
                    }
                }
                "--sample-size" => {
                    if let Some(v) = args.next().and_then(|s| s.parse::<usize>().ok()) {
                        opts.sample_size = Some(v.max(1));
                    }
                }
                _ => {} // cargo's own flags, bench name filters, etc.
            }
        }
        opts
    })
}

/// The benchmark driver (mirrors `criterion::Criterion`).
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_size: options().sample_size.unwrap_or(100),
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark. A
    /// `--sample-size` flag on the command line wins over this.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = options().sample_size.unwrap_or(n.max(1));
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function(
        &mut self,
        name: &str,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Criterion {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        b.report(name);
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
        }
    }
}

/// A parameterised benchmark id (mirrors `criterion::BenchmarkId`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    parameter: String,
}

impl BenchmarkId {
    /// An id labelled only by a parameter value.
    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            parameter: parameter.to_string(),
        }
    }
}

/// A benchmark group (mirrors `criterion::BenchmarkGroup`).
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Runs one parameterised benchmark inside the group.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        let mut b = Bencher::new(self.criterion.sample_size);
        f(&mut b, input);
        b.report(&format!("{}/{}", self.name, id.parameter));
        self
    }

    /// Ends the group (a no-op here; kept for API compatibility).
    pub fn finish(self) {}
}

/// The per-benchmark timing loop (mirrors `criterion::Bencher`).
#[derive(Debug)]
pub struct Bencher {
    samples: usize,
    acc: Accumulator,
}

impl Bencher {
    fn new(samples: usize) -> Bencher {
        Bencher {
            samples,
            acc: Accumulator::default(),
        }
    }

    /// Times `f`: one warm-up call, then `sample_size` individually
    /// timed calls so the spread (stddev/min/max) is observable.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        black_box(f());
        self.acc = Accumulator::default();
        for _ in 0..self.samples {
            let start = Instant::now();
            black_box(f());
            self.acc.record(start.elapsed().as_nanos() as f64);
        }
    }

    fn report(&self, name: &str) {
        let (Some(mean), Some(sd), Some(min), Some(max)) = (
            self.acc.mean(),
            self.acc.stddev(),
            self.acc.min(),
            self.acc.max(),
        ) else {
            println!("{name:<48} (no measurement)");
            return;
        };
        let (scale, unit) = if mean >= 1e6 {
            (1e6, "ms")
        } else if mean >= 1e3 {
            (1e3, "us")
        } else {
            (1.0, "ns")
        };
        println!(
            "{name:<48} {:>10.2} \u{b1} {:.2} {unit}/iter  [{:.2} .. {:.2}]  ({} samples)",
            mean / scale,
            sd / scale,
            min / scale,
            max / scale,
            self.acc.count(),
        );
        RESULTS.lock().unwrap().push(Record {
            name: name.to_string(),
            mean_ns: mean,
            stddev_ns: sd,
            min_ns: min,
            max_ns: max,
            samples: self.acc.count(),
        });
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
    if compared == 0 {
        return Err("no benchmark matched the baseline".to_string());
    }
    Ok(regressions)
}

/// Saves/compares baselines from the accumulated results and returns
/// the process exit code. Called by `criterion_main!` after all groups
/// have run.
#[must_use]
pub fn finalize() -> i32 {
    let records: Vec<Record> = std::mem::take(&mut *RESULTS.lock().unwrap());
    let opts = options();
    if let Some(name) = &opts.save_baseline {
        match save_baseline(name, &records) {
            Ok(path) => println!("\nsaved baseline to {}", path.display()),
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    }
    if let Some(name) = &opts.baseline {
        match compare_against_baseline(name, &records, opts.threshold) {
            Ok(0) => println!(
                "no regressions beyond {:.0}% threshold",
                opts.threshold * 100.0
            ),
            Ok(n) => {
                eprintln!(
                    "error: {n} benchmark(s) regressed beyond the {:.0}% threshold",
                    opts.threshold * 100.0
                );
                return 1;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    }
    0
}

/// Declares a benchmark group function (mirrors
/// `criterion::criterion_group!`; both invocation forms supported).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::microbench::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares the bench `main` (mirrors `criterion::criterion_main!`).
/// After all groups run, [`finalize`] handles `--save-baseline` /
/// `--baseline` and sets the exit code (non-zero on regression).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            std::process::exit($crate::microbench::finalize());
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_the_closure() {
        let mut calls = 0u32;
        Criterion::default()
            .sample_size(5)
            .bench_function("shim/self_test", |b| {
                b.iter(|| {
                    calls += 1;
                    black_box(calls)
                });
            });
        // One warm-up call plus five timed samples.
        assert_eq!(calls, 6);
    }

    #[test]
    fn groups_run_each_input() {
        let mut c = Criterion::default().sample_size(2);
        let mut seen = Vec::new();
        let mut g = c.benchmark_group("shim/group");
        for n in [1u32, 2, 3] {
            g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
                b.iter(|| n * 2);
            });
            seen.push(n);
        }
        g.finish();
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn per_sample_stats_are_recorded() {
        let mut b = Bencher::new(16);
        b.iter(|| black_box(3u64).wrapping_mul(5));
        assert_eq!(b.acc.count(), 16);
        let (mean, min, max) = (
            b.acc.mean().unwrap(),
            b.acc.min().unwrap(),
            b.acc.max().unwrap(),
        );
        assert!(min <= mean && mean <= max);
        assert!(b.acc.stddev().unwrap() >= 0.0);
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
        // A bench absent from the baseline is skipped, not an error —
        // but a run where nothing matches is.
        let mixed = [record("x/1", 1000.0), record("y/2", 1.0)];
        assert_eq!(count_regressions(&loaded, 100.0, &mixed, 0.30), Ok(0));
        let stranger = [record("y/2", 1.0)];
        assert!(count_regressions(&loaded, 100.0, &stranger, 0.30).is_err());
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
