//! The parallel batch executor.
//!
//! Runs a list of scenarios across `jobs` worker threads pulling from a
//! shared work queue (std primitives only — the environment cannot
//! vendor `crossbeam`, and a mutex-guarded deque is indistinguishable at
//! this granularity: scenarios run for milliseconds to seconds, not
//! nanoseconds). Workers claim scenarios in small chunks rather than
//! one at a time, halving lock traffic on large sweeps while keeping
//! the tail balanced (chunk size shrinks as the queue drains, capped at
//! `MAX_CLAIM`). Three properties the rest of the system depends on:
//!
//! * **Panic isolation** — each scenario runs under `catch_unwind`; a
//!   panicking experiment becomes a `Panicked` outcome instead of taking
//!   the batch down.
//! * **Deterministic seeds** — scenarios without an explicit seed get
//!   one derived from the batch base seed and the scenario *name* (not
//!   its position), so adding or reordering scenarios never perturbs the
//!   randomness of the others.
//! * **Deterministic summaries** — outcomes are stored by input index
//!   regardless of completion order, and [`BatchResult::summary_json`]
//!   excludes wall-clock times, so two same-seed runs of the same batch
//!   produce byte-identical `run_summary.json` files. Timings go to a
//!   separate sidecar (`BatchResult::timing_json`).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ehp_sim_core::json::Json;
use ehp_sim_core::rng::SplitMix64;

use crate::experiment::ExperimentResult;
use crate::registry;
use crate::scenario::Scenario;

/// Batch-level knobs.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// Worker threads (`--jobs`); clamped to at least 1.
    pub jobs: usize,
    /// Base seed every derived scenario seed mixes in.
    pub base_seed: u64,
    /// Stream a one-line outcome to stderr as each scenario finishes.
    /// Stderr only — `run_summary.json` stays byte-identical either way.
    pub progress: bool,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            jobs: 1,
            base_seed: 0,
            progress: false,
        }
    }
}

/// Upper bound on how many scenarios one worker claims per lock
/// acquisition. Small enough that a slow chunk never starves the other
/// workers at the tail of a batch.
const MAX_CLAIM: usize = 8;

/// How one scenario ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutcomeStatus {
    /// The experiment returned a result.
    Ok,
    /// The experiment was not in the registry.
    UnknownExperiment,
    /// The experiment panicked; the payload is the panic message.
    Panicked(String),
}

impl OutcomeStatus {
    /// Short human-readable form for progress lines.
    #[must_use]
    pub(crate) fn brief(&self) -> &'static str {
        match self {
            OutcomeStatus::Ok => "ok",
            OutcomeStatus::UnknownExperiment => "unknown experiment",
            OutcomeStatus::Panicked(_) => "PANICKED",
        }
    }
}

/// One scenario's outcome.
#[derive(Debug)]
pub struct Outcome {
    /// The scenario as executed (seed resolved).
    pub scenario: Scenario,
    /// How it ended.
    pub status: OutcomeStatus,
    /// Metrics from the result (empty on panic).
    pub metrics: BTreeMap<String, f64>,
    /// Rendered report text (empty on panic).
    pub report_text: String,
    /// Figure payload, if the experiment produced one.
    pub(crate) payload: Option<Json>,
    /// Wall-clock run time of this scenario.
    pub(crate) wall: Duration,
}

/// A completed batch, in input order.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-scenario outcomes, ordered as the scenarios were given.
    pub outcomes: Vec<Outcome>,
    /// Wall-clock time of the whole batch.
    pub wall: Duration,
}

/// The largest seed a run accepts, 2^53. A scenario's seed is rendered
/// through the f64-backed JSON summary and cache key, which hold every
/// integer up to 2^53 exactly and no larger one reliably;
/// [`Json::as_u64`](ehp_sim_core::json::Json::as_u64) reads back no more.
pub(crate) const MAX_SEED: u64 = 1 << 53;

/// Derives a scenario seed from the batch base seed and scenario name.
///
/// FNV-1a over the name ([`ehp_sim_core::hash`]) feeds a SplitMix64
/// stream keyed by the base seed: stable across runs, platforms, and
/// scenario orderings. Masked to 53 bits so the seed survives the
/// f64-backed JSON summary exactly.
#[must_use]
pub(crate) fn derive_seed(base_seed: u64, name: &str) -> u64 {
    let h = ehp_sim_core::hash::fnv1a_str(name);
    SplitMix64::new(base_seed ^ h).next_u64() & ((1 << 53) - 1)
}

/// Resolves implicit seeds: every scenario without an explicit seed
/// gets one derived from `base_seed` and its *name* via
/// `derive_seed`. Exposed so the serving layer can canonicalise
/// scenarios **before** cache-key hashing and worker dispatch — the
/// cache and the pool must see exactly what would run.
#[must_use]
pub fn resolve_seeds(scenarios: &[Scenario], base_seed: u64) -> Vec<Scenario> {
    scenarios
        .iter()
        .map(|sc| {
            let mut sc = sc.clone();
            if sc.seed.is_none() {
                sc.seed = Some(derive_seed(base_seed, &sc.name));
            }
            sc
        })
        .collect()
}

/// Runs every scenario through the registry on `cfg.jobs` workers.
#[must_use]
pub fn run_batch(scenarios: &[Scenario], cfg: &BatchConfig) -> BatchResult {
    let start = Instant::now();
    // Resolve seeds up front so the outcome records what actually ran.
    let resolved = resolve_seeds(scenarios, cfg.base_seed);

    // Lowest index at the back so `pop`/`split_off` hand out work in
    // input order.
    let queue: Mutex<Vec<usize>> = Mutex::new((0..resolved.len()).rev().collect());
    let slots: Vec<Mutex<Option<Outcome>>> = resolved.iter().map(|_| Mutex::new(None)).collect();
    let total = resolved.len();
    let done = AtomicUsize::new(0);

    let jobs = cfg.jobs.max(1).min(resolved.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                // Claim a chunk: roughly a half-share of what remains,
                // so chunks shrink as the queue drains and the tail
                // stays balanced across workers.
                let chunk = {
                    let mut q = queue.lock().unwrap();
                    if q.is_empty() {
                        return;
                    }
                    let take = q.len().div_ceil(2 * jobs).clamp(1, MAX_CLAIM).min(q.len());
                    let at = q.len() - take;
                    q.split_off(at)
                };
                // The chunk came off the back of the reversed queue;
                // iterate reversed again to run in ascending input order.
                for &i in chunk.iter().rev() {
                    let outcome = run_one(&resolved[i]);
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if cfg.progress {
                        eprintln!(
                            "[{finished}/{total}] {}: {} ({:.1} ms)",
                            outcome.scenario.name,
                            outcome.status.brief(),
                            outcome.wall.as_secs_f64() * 1e3,
                        );
                    }
                    *slots[i].lock().unwrap() = Some(outcome);
                }
            });
        }
    });

    let outcomes = slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap().expect("worker filled slot"))
        .collect();
    BatchResult {
        outcomes,
        wall: start.elapsed(),
    }
}

/// Runs one already-resolved scenario with panic isolation — the
/// in-process path (`run_batch`, and the degrade fallback of the
/// serving layer's worker pool).
#[must_use]
pub fn run_one(scenario: &Scenario) -> Outcome {
    let start = Instant::now();
    let Some(exp) = registry::find(&scenario.experiment) else {
        return unknown_outcome(scenario, start.elapsed());
    };
    // Experiments take &Scenario and build fresh state; unwind safety
    // holds because a panicking run's partial state is discarded whole.
    let run = catch_unwind(AssertUnwindSafe(|| exp.run(scenario)));
    let wall = start.elapsed();
    match run {
        Ok(result) => ok_outcome(scenario, result, wall),
        Err(panic) => Outcome {
            scenario: scenario.clone(),
            status: OutcomeStatus::Panicked(panic_message(&*panic)),
            metrics: BTreeMap::new(),
            report_text: String::new(),
            payload: None,
            wall,
        },
    }
}

/// Runs one scenario **without** panic isolation — the `ehp worker`
/// entry point. A panicking experiment must kill the worker process so
/// the parent's retry/degrade ladder observes the failure; catching it
/// here would hide exactly the failure mode the pool exists to
/// contain. The parent's in-process fallback ([`run_one`]) then turns
/// the deterministic panic into the same `Panicked` outcome a pool-less
/// run would produce.
#[must_use]
pub(crate) fn run_one_uncaught(scenario: &Scenario) -> Outcome {
    let start = Instant::now();
    let Some(exp) = registry::find(&scenario.experiment) else {
        return unknown_outcome(scenario, start.elapsed());
    };
    let result = exp.run(scenario);
    ok_outcome(scenario, result, start.elapsed())
}

fn unknown_outcome(scenario: &Scenario, wall: Duration) -> Outcome {
    Outcome {
        scenario: scenario.clone(),
        status: OutcomeStatus::UnknownExperiment,
        metrics: BTreeMap::new(),
        report_text: String::new(),
        payload: None,
        wall,
    }
}

fn ok_outcome(scenario: &Scenario, result: ExperimentResult, wall: Duration) -> Outcome {
    let ExperimentResult {
        report,
        metrics,
        payload,
    } = result;
    Outcome {
        scenario: scenario.clone(),
        status: OutcomeStatus::Ok,
        metrics,
        report_text: report.text().to_string(),
        payload,
        wall,
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Outcome {
    /// `true` if the scenario completed.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.status == OutcomeStatus::Ok
    }

    fn status_json(&self) -> Json {
        match &self.status {
            OutcomeStatus::Ok => Json::from("ok"),
            OutcomeStatus::UnknownExperiment => Json::from("unknown_experiment"),
            OutcomeStatus::Panicked(msg) => Json::object([("panicked", Json::from(msg.as_str()))]),
        }
    }

    /// The full outcome as JSON — the payload of worker-protocol frames
    /// and result-cache entries. The summary derives from the same
    /// fields, so a decoded outcome reproduces `summary_json` bytes
    /// exactly; non-finite metrics render as JSON `null` (decoding back
    /// to NaN), which matches how the summary renders them.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("scenario", self.scenario.to_json()),
            ("status", self.status_json()),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("report", Json::from(self.report_text.as_str())),
            ("wall_ms", Json::Num(self.wall.as_secs_f64() * 1e3)),
        ];
        if let Some(p) = &self.payload {
            fields.push(("payload", p.clone()));
        }
        Json::object(fields)
    }

    /// Decodes an outcome produced by [`Outcome::to_json`]; `None` on
    /// any shape mismatch (callers treat that as a poisoned frame or a
    /// corrupt cache entry and recompute).
    #[must_use]
    pub(crate) fn from_json(json: &Json) -> Option<Outcome> {
        let scenario = Scenario::from_json(json.get("scenario")?).ok()?;
        let status = match json.get("status")? {
            Json::Str(s) if s == "ok" => OutcomeStatus::Ok,
            Json::Str(s) if s == "unknown_experiment" => OutcomeStatus::UnknownExperiment,
            other => OutcomeStatus::Panicked(other.get("panicked")?.as_str()?.to_string()),
        };
        let metrics = json
            .get("metrics")?
            .as_obj()?
            .iter()
            .map(|(k, v)| match v {
                // JSON has no NaN; `null` is its wire form.
                Json::Null => Some((k.clone(), f64::NAN)),
                other => Some((k.clone(), other.as_f64()?)),
            })
            .collect::<Option<BTreeMap<String, f64>>>()?;
        let report_text = json.get("report")?.as_str()?.to_string();
        let wall_ms = json.get("wall_ms")?.as_f64().unwrap_or(0.0);
        Some(Outcome {
            scenario,
            status,
            metrics,
            report_text,
            payload: json.get("payload").cloned(),
            wall: Duration::from_secs_f64((wall_ms / 1e3).max(0.0)),
        })
    }
}

impl BatchResult {
    /// Number of scenarios that completed.
    #[must_use]
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_ok()).count()
    }

    /// The deterministic batch summary: scenario, seed, status, metrics.
    /// Excludes timing (see `BatchResult::timing_json`) so the bytes
    /// are identical across same-seed runs.
    #[must_use]
    pub fn summary_json(&self) -> Json {
        let scenarios: Vec<Json> = self
            .outcomes
            .iter()
            .map(|o| {
                Json::object([
                    ("scenario", o.scenario.to_json()),
                    ("status", o.status_json()),
                    (
                        "metrics",
                        Json::Obj(
                            o.metrics
                                .iter()
                                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::object([
            ("schema", Json::from("ehp-run-summary/v1")),
            ("total", Json::from(self.outcomes.len())),
            ("ok", Json::from(self.ok_count())),
            ("scenarios", Json::Arr(scenarios)),
        ])
    }

    /// Wall-clock timings, separated from the summary because they are
    /// the one non-reproducible output of a batch.
    #[must_use]
    pub(crate) fn timing_json(&self) -> Json {
        let per: Vec<Json> = self
            .outcomes
            .iter()
            .map(|o| {
                Json::object([
                    ("name", Json::from(o.scenario.name.as_str())),
                    ("wall_ms", Json::Num(o.wall.as_secs_f64() * 1e3)),
                ])
            })
            .collect();
        Json::object([
            ("batch_wall_ms", Json::Num(self.wall.as_secs_f64() * 1e3)),
            ("scenarios", Json::Arr(per)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_stable_and_name_keyed() {
        assert_eq!(derive_seed(7, "a"), derive_seed(7, "a"));
        assert_ne!(derive_seed(7, "a"), derive_seed(7, "b"));
        assert_ne!(derive_seed(7, "a"), derive_seed(8, "a"));
    }

    #[test]
    fn unknown_experiment_is_isolated() {
        let r = run_batch(
            &[Scenario::default_for("no_such_experiment")],
            &BatchConfig::default(),
        );
        assert_eq!(r.outcomes.len(), 1);
        assert_eq!(r.outcomes[0].status, OutcomeStatus::UnknownExperiment);
        assert_eq!(r.ok_count(), 0);
    }

    #[test]
    fn chunked_claiming_fills_every_slot() {
        // Far more scenarios than MAX_CLAIM * jobs: several claim rounds
        // per worker, every slot must still be filled and in input order.
        let scenarios: Vec<Scenario> = (0..75)
            .map(|i| {
                let mut sc = Scenario::default_for("no_such_experiment");
                sc.name = format!("s{i:03}");
                sc
            })
            .collect();
        let r = run_batch(
            &scenarios,
            &BatchConfig {
                jobs: 3,
                base_seed: 0,
                progress: false,
            },
        );
        assert_eq!(r.outcomes.len(), 75);
        for (i, o) in r.outcomes.iter().enumerate() {
            assert_eq!(o.scenario.name, format!("s{i:03}"));
            assert_eq!(o.status, OutcomeStatus::UnknownExperiment);
        }
    }

    #[test]
    fn outcome_codec_round_trips_through_wire_json() {
        let resolved = resolve_seeds(&[Scenario::default_for("table1")], 42);
        let out = run_one(&resolved[0]);
        assert!(out.is_ok());
        // Round trip through the *rendered* form, as frames and cache
        // entries do — not just the in-memory Json tree.
        let wire = Json::parse(&out.to_json().to_string_compact()).unwrap();
        let back = Outcome::from_json(&wire).expect("decodes");
        assert_eq!(back.scenario, out.scenario);
        assert_eq!(back.status, out.status);
        assert_eq!(back.metrics, out.metrics);
        assert_eq!(back.report_text, out.report_text);
        assert_eq!(back.payload, out.payload);
    }

    #[test]
    fn outcome_codec_maps_nan_metrics_through_null() {
        let mut out = unknown_outcome(&Scenario::default_for("x"), Duration::ZERO);
        out.metrics.insert("bad".to_string(), f64::NAN);
        out.metrics.insert("good".to_string(), 1.5);
        let wire = Json::parse(&out.to_json().to_string_compact()).unwrap();
        let back = Outcome::from_json(&wire).unwrap();
        assert!(back.metrics["bad"].is_nan());
        assert_eq!(back.metrics["good"], 1.5);
        // Byte-identity of the summary is what actually matters.
        let a = BatchResult {
            outcomes: vec![out],
            wall: Duration::ZERO,
        };
        let b = BatchResult {
            outcomes: vec![back],
            wall: Duration::ZERO,
        };
        assert_eq!(
            a.summary_json().to_string_compact(),
            b.summary_json().to_string_compact()
        );
    }

    #[test]
    fn uncaught_runner_matches_caught_runner_on_ok_scenarios() {
        let resolved = resolve_seeds(&[Scenario::default_for("table1")], 0);
        let a = run_one(&resolved[0]);
        let b = run_one_uncaught(&resolved[0]);
        assert_eq!(a.status, b.status);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.report_text, b.report_text);
    }

    #[test]
    fn outcomes_keep_input_order_under_parallelism() {
        let scenarios: Vec<Scenario> = ["table1", "figure16", "table1", "figure16"]
            .iter()
            .enumerate()
            .map(|(i, id)| {
                let mut sc = Scenario::default_for(id);
                sc.name = format!("{id}#{i}");
                sc
            })
            .collect();
        let r = run_batch(
            &scenarios,
            &BatchConfig {
                jobs: 4,
                base_seed: 0,
                progress: false,
            },
        );
        let names: Vec<&str> = r
            .outcomes
            .iter()
            .map(|o| o.scenario.name.as_str())
            .collect();
        assert_eq!(
            names,
            vec!["table1#0", "figure16#1", "table1#2", "figure16#3"]
        );
        assert_eq!(r.ok_count(), 4);
    }
}
