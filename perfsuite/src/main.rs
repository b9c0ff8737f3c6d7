//! The ehp-sim benchmark: three closed-loop workloads, each one
//! in-process caller on one thread, plus a traced run that times the
//! calls into each layer from this package's own files. See README.md
//! for the workloads, the metrics and the layer map.
//!
//! ```text
//! perfsuite --workload <paper_suite|mem_rw_sweep|lint_corpus>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root; scratch files go under
//! `perfsuite/work/` and are removed on exit. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`.

mod corpus;
mod lint_corpus;
mod mem_rw_sweep;
mod paper_suite;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Times one set-up is repeated; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Fewest ops a run makes, whatever `--seconds` says.
const MIN_OPS: usize = 10;

/// In a traced run, each other workload is profiled for this share of
/// `--seconds`, so every per-layer metric appears in every traced run.
const OTHER_SHARE: f64 = 0.25;

/// Per-op values by metric name: span times in ms and counts.
pub type Sample = BTreeMap<&'static str, f64>;

/// Adds `v` to metric `name` of the current op.
pub fn add(sample: &mut Sample, name: &'static str, v: f64) {
    *sample.entry(name).or_default() += v;
}

/// Milliseconds since `t`.
#[must_use]
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and adds its wall time in ms to `name`.
pub fn timed<T>(sample: &mut Sample, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    add(sample, name, ms_since(t));
    out
}

/// Removes `dir` and everything under it; a missing directory is fine.
///
/// # Errors
/// Any other I/O failure.
pub fn clear_dir(dir: &Path) -> io::Result<()> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// One workload as the benchmark drives it.
pub trait Workload: Sized {
    /// The `--workload` name.
    const NAME: &'static str;
    /// Every per-layer metric the traced run reports, with its unit.
    const LAYER_METRICS: &'static [(&'static str, &'static str)];
    /// The per-layer times that add up to one traced op.
    const PARTS: &'static [&'static str];
    /// The kernels that calibrate this workload's timings (see
    /// [`Calibrator`]): code of the same shape as its dominant layers.
    const CALIBRATION: &'static [Kernel] = &[Kernel::SortWalk, Kernel::Tree];

    /// One-time preparation under `work`: generates the inputs and runs
    /// one checked warm-up op, whose outputs become the reference.
    ///
    /// # Errors
    /// A failed warm-up check or I/O error.
    fn setup(seed: u64, work: &Path) -> Result<Self, String>;

    /// One untraced op and its correctness check; returns the op's time
    /// in ms, measured around the op alone.
    ///
    /// # Errors
    /// The op's output failed its check.
    fn op(&mut self) -> Result<f64, String>;

    /// The same work as [`Workload::op`], made as separately timed calls
    /// into each layer; returns the op time and records the spans.
    ///
    /// # Errors
    /// The op's output failed its check.
    fn traced_op(&mut self, sample: &mut Sample) -> Result<f64, String>;

    /// Per-layer calls made outside any op, reported only.
    ///
    /// # Errors
    /// A probe's output failed its check.
    fn probes(&mut self, sample: &mut Sample) -> Result<(), String>;

    /// Checks of the reference that need more than one op's work; made
    /// once after the timed loop of an untraced run.
    ///
    /// # Errors
    /// The reference outputs are wrong.
    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// `(artifact, FNV-1a digest)` of the reference outputs: every
    /// simulated statistic, so a host-only speed-up can show it
    /// changed none of them.
    fn digest(&self) -> (&'static str, u64);
}

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if ![
        paper_suite::PaperSuite::NAME,
        mem_rw_sweep::MemRwSweep::NAME,
        lint_corpus::LintCorpus::NAME,
    ]
    .contains(&workload.as_str())
    {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Linear-interpolated quantile of `xs` (`q` in 0..=1); `xs` non-empty.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// A calibration kernel: fixed code that belongs to the benchmark, not
/// the program.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    /// Sorts 2 MiB of pseudo-random `u64`s, then walks them by dependent
    /// loads.
    SortWalk,
    /// Inserts and looks up 20 000 keys in a fresh `BTreeMap`.
    Tree,
    /// Gauss-Seidel sweeps over a 56x70 `Vec<Vec<f64>>` grid, shaped like
    /// the thermal solver's loop.
    Stencil,
}

impl Kernel {
    /// Median time on the measuring host (2-vCPU Xeon VM) over 470 runs.
    fn typical_ms(self) -> f64 {
        match self {
            Kernel::SortWalk => 10.0,
            Kernel::Tree => 4.7,
            Kernel::Stencil => 16.0,
        }
    }
}

/// Runs a workload's calibration kernels before every op and set-up.
///
/// The shared host's speed swings by half within a minute, and ops slow
/// down with kernels of similar code. Each timing is therefore scaled by
/// the kernels' typical time over their time measured just before it.
/// Over eight runs per workload, that cut the spread of run medians from
/// 9 % to 2 % on `paper_suite` (stencil), from 18 % to 7 % on
/// `mem_rw_sweep` and from 9 % to 1 % on `lint_corpus` (sort-walk plus
/// tree).
struct Calibrator {
    buf: Vec<u64>,
    grid: Vec<Vec<f64>>,
}

impl Calibrator {
    fn new() -> Calibrator {
        Calibrator {
            buf: vec![0; 1 << 18],
            grid: vec![vec![0.0; 70]; 56],
        }
    }

    fn run(&mut self, kernel: Kernel) -> f64 {
        let t = Instant::now();
        match kernel {
            Kernel::SortWalk => {
                let n = self.buf.len();
                let mut x = 0x9E37_79B9_7F4A_7C15u64;
                for v in &mut self.buf {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    *v = x;
                }
                self.buf.sort_unstable();
                let mut i = 0usize;
                let mut acc = 0u64;
                for _ in 0..n {
                    i = (self.buf[i] as usize) & (n - 1);
                    acc = acc.wrapping_add(self.buf[i]);
                }
                std::hint::black_box(acc);
            }
            Kernel::Tree => {
                let mut map = BTreeMap::new();
                let mut x = 0x1234_5678_9ABC_DEF1u64;
                for _ in 0..20_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    map.insert(x % 100_000, x);
                }
                let hits = (0..20_000u64).filter_map(|k| map.get(&(k * 5))).count();
                std::hint::black_box(hits);
            }
            Kernel::Stencil => {
                let g = &mut self.grid;
                let (ny, nx) = (g.len(), g[0].len());
                for row in g.iter_mut() {
                    row.fill(30.0);
                }
                for _ in 0..300 {
                    for j in 0..ny {
                        for i in 0..nx {
                            let mut sum = 0.0;
                            let mut count = 0.0;
                            if i > 0 {
                                sum += g[j][i - 1];
                                count += 1.0;
                            }
                            if i + 1 < nx {
                                sum += g[j][i + 1];
                                count += 1.0;
                            }
                            if j > 0 {
                                sum += g[j - 1][i];
                                count += 1.0;
                            }
                            if j + 1 < ny {
                                sum += g[j + 1][i];
                                count += 1.0;
                            }
                            let source = 0.01 * (i % 5) as f64 + 0.6;
                            g[j][i] = (2.0 * sum + source) / (2.0 * count + 0.02);
                        }
                    }
                }
                std::hint::black_box(&g);
            }
        }
        ms_since(t)
    }

    /// Runs `kernels`; returns the factor that scales a timing taken
    /// right after them to the host's typical state.
    fn scale(&mut self, kernels: &[Kernel]) -> f64 {
        let typical: f64 = kernels.iter().map(|k| k.typical_ms()).sum();
        let measured: f64 = kernels.iter().map(|&k| self.run(k)).sum();
        typical / measured
    }
}

/// What one run prints as its last line.
#[derive(Default)]
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Counts one op's outcome, logging the first few failures.
fn tally(result: &mut RunResult, outcome: Result<f64, String>, times: &mut Vec<f64>) {
    result.attempted += 1;
    match outcome {
        Ok(ms) => times.push(ms),
        Err(e) => {
            result.failed += 1;
            if result.failed <= 3 {
                eprintln!("perfsuite: failed op: {e}");
            }
        }
    }
}

fn print_digest<W: Workload>(w: &W) {
    let (artifact, digest) = w.digest();
    println!("digest {} {artifact} fnv1a64={digest:016x}", W::NAME);
}

/// The untraced run: the end-to-end metrics. Timings are
/// calibration-scaled (see [`Calibrator`]); the raw medians go to
/// standard error.
fn run_untraced<W: Workload>(args: &Args, work: &Path) -> Result<RunResult, String> {
    let mut cal = Calibrator::new();
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut peak_rss = None;
    let mut wl = None;
    for _ in 0..SETUP_REPEATS {
        // The previous set-up's files are removed outside the timing.
        drop(wl.take());
        clear_dir(work).map_err(|e| e.to_string())?;
        let scale = cal.scale(W::CALIBRATION);
        let t = Instant::now();
        wl = Some(W::setup(args.seed, work)?);
        let s = t.elapsed().as_secs_f64();
        raw_setups.push(s);
        setups.push(s * scale);
        // What one CLI invocation holds: inputs plus one op. Later ops
        // run on fresh threads whose malloc arenas may or may not be
        // reused, which makes the whole-run peak vary twofold.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mib()?);
        }
    }
    let mut wl = wl.expect("at least one set-up");

    let mut result = RunResult::default();
    let mut times = Vec::new();
    let mut raw = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while result.attempted < MIN_OPS || Instant::now() < deadline {
        let scale = cal.scale(W::CALIBRATION);
        let outcome = wl.op();
        if let Ok(ms) = outcome {
            raw.push(ms);
        }
        tally(&mut result, outcome.map(|ms| ms * scale), &mut times);
    }
    result.correct = result.failed == 0;
    if let Err(e) = wl.verify() {
        eprintln!("perfsuite: reference check failed: {e}");
        result.correct = false;
        result.failed = result.attempted;
    }
    if times.is_empty() {
        return Err("every op failed".into());
    }
    print_digest(&wl);
    result.metrics = vec![
        ("setup_s".into(), median(&setups), "s"),
        ("op_ms_p50".into(), median(&times), "ms"),
        ("op_ms_p80".into(), quantile(&times, 0.8), "ms"),
        (
            "peak_rss_mib".into(),
            peak_rss.expect("set up at least once"),
            "MiB",
        ),
    ];
    eprintln!(
        "perfsuite: {} ops of {} ({} failed); unscaled setup {:.4} s, op p50 {:.3} ms, p80 {:.3} ms",
        result.attempted,
        W::NAME,
        result.failed,
        median(&raw_setups),
        median(&raw),
        quantile(&raw, 0.8),
    );
    Ok(result)
}

/// Profiles one workload for `seconds`: untraced and traced ops
/// alternate (each going first on every other round), then the probes.
/// Timings here are unscaled host time.
fn profile<W: Workload>(
    seed: u64,
    seconds: f64,
    work: &Path,
    result: &mut RunResult,
) -> Result<(), String> {
    clear_dir(work).map_err(|e| e.to_string())?;
    let mut wl = W::setup(seed, work)?;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut overheads = Vec::new();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut round = 0usize;
    while round < MIN_OPS || Instant::now() < deadline {
        let mut sample = Sample::new();
        let mut pair = [None, None];
        for leg in 0..2 {
            let is_traced = (leg + round) % 2 == 1;
            let outcome = if is_traced {
                wl.traced_op(&mut sample)
            } else {
                wl.op()
            };
            pair[usize::from(is_traced)] = outcome.as_ref().ok().copied();
            tally(
                result,
                outcome,
                if is_traced { &mut traced } else { &mut plain },
            );
        }
        // Paired within the round, so host-speed drift cancels.
        if let [Some(p), Some(t)] = pair {
            overheads.push(t - p);
        }
        if let Err(e) = wl.probes(&mut sample) {
            result.failed += 1;
            eprintln!("perfsuite: failed probe: {e}");
        }
        for (k, v) in sample {
            samples.entry(k).or_default().push(v);
        }
        round += 1;
    }
    if plain.is_empty() || overheads.is_empty() {
        return Err(format!("every {} op failed", W::NAME));
    }
    print_digest(&wl);

    let layer: BTreeMap<&str, f64> = samples.iter().map(|(k, v)| (*k, median(v))).collect();
    let op_ms = median(&plain);
    let parts: f64 = W::PARTS.iter().filter_map(|p| layer.get(p)).sum();
    for &(name, unit) in W::LAYER_METRICS {
        let value = match name.strip_prefix(W::NAME) {
            Some(".op_ms") => op_ms,
            Some(".trace_overhead_ms") => median(&overheads),
            Some(".residual_ms") => parts - op_ms,
            _ => *layer
                .get(name)
                .ok_or_else(|| format!("{} traced run produced no {name}", W::NAME))?,
        };
        result.metrics.push((name.to_string(), value, unit));
    }
    Ok(())
}

/// The traced run: the named workload for `--seconds`, then the other
/// two for a quarter of that each, so that the output holds every
/// per-layer metric.
fn run_traced(args: &Args, work: &Path) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let s = args.seconds;
    let short = (s * OTHER_SHARE).max(1.0);
    let budget = |name: &str| if name == args.workload { s } else { short };
    type Profile = fn(u64, f64, &Path, &mut RunResult) -> Result<(), String>;
    let all: [(&str, Profile); 3] = [
        (
            paper_suite::PaperSuite::NAME,
            profile::<paper_suite::PaperSuite>,
        ),
        (
            mem_rw_sweep::MemRwSweep::NAME,
            profile::<mem_rw_sweep::MemRwSweep>,
        ),
        (
            lint_corpus::LintCorpus::NAME,
            profile::<lint_corpus::LintCorpus>,
        ),
    ];
    for (name, run) in all {
        run(args.seed, budget(name), &work.join(name), &mut result)?;
    }
    result.correct = result.failed == 0;
    Ok(result)
}

fn run(args: &Args, work: &Path) -> Result<RunResult, String> {
    if args.trace {
        return run_traced(args, work);
    }
    match args.workload.as_str() {
        paper_suite::PaperSuite::NAME => run_untraced::<paper_suite::PaperSuite>(args, work),
        mem_rw_sweep::MemRwSweep::NAME => run_untraced::<mem_rw_sweep::MemRwSweep>(args, work),
        lint_corpus::LintCorpus::NAME => run_untraced::<lint_corpus::LintCorpus>(args, work),
        other => unreachable!("parse_args admitted workload {other:?}"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfsuite: {e}");
            return ExitCode::from(2);
        }
    };
    let base = PathBuf::from("perfsuite");
    if !base.is_dir() {
        eprintln!("perfsuite: run from the repository root");
        return ExitCode::from(2);
    }
    let work = base
        .join("work")
        .join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = run(&args, &work);
    let _ = clear_dir(&work);
    // Succeeds only once no other run is using it.
    let _ = fs::remove_dir(base.join("work"));
    match outcome {
        Ok(result) => {
            println!("{}", result.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfsuite: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.8), 4.2);
        assert_eq!(quantile(&[7.0], 0.8), 7.0);
    }

    /// BENCHMARK.json's per-layer list is exactly what the traced run
    /// reports, with the same units.
    #[test]
    fn benchmark_json_lists_every_layer_metric() {
        use ehp_sim_core::json::Json;
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed: Vec<(String, String)> = json
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect();
        let reported: Vec<(String, String)> = paper_suite::PaperSuite::LAYER_METRICS
            .iter()
            .chain(mem_rw_sweep::MemRwSweep::LAYER_METRICS)
            .chain(lint_corpus::LintCorpus::LAYER_METRICS)
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        assert_eq!(listed, reported);
    }
}
