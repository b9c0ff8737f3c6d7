//! The harness side of the serving layer (DESIGN.md §12): glue between
//! the experiment registry/executor and the traffic machinery in
//! `ehp-serve`.
//!
//! Three entry points, one per `ehp` mode:
//!
//! * [`run_batch_served`] — the cached, optionally multi-process batch
//!   path behind `ehp run`/`ehp all`. Scenarios are seed-resolved,
//!   keyed ([`scenario_key`]), looked up in the result cache, and only
//!   the misses execute — in-process, or chunked across `ehp worker`
//!   children. The merged [`BatchResult`] is byte-identical to what a
//!   plain `run_batch` produces: cache hits replay the exact outcome
//!   fields, pool results decode into the same `Outcome` the in-process
//!   path builds, and anything undecodable is recomputed locally from
//!   the authoritative resolved scenario.
//! * `worker_loop` — the `ehp worker` child: frames in, outcomes out,
//!   **no panic isolation** (a panicking scenario kills the child so
//!   the parent's retry/degrade ladder sees it).
//! * `serve_loop` — the `ehp serve` daemon: scenario-spec requests
//!   validated against the registry's S1 schemas, batches run through
//!   [`run_batch_served`], per-scenario summaries streamed back, cache
//!   and pool traffic folded into the server's stats.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ehp_serve::cache::{result_key, CacheCounters, ResultCache};
use ehp_serve::frame;
use ehp_serve::pool::{self, PoolConfig, PoolStats, WorkerCommand};
use ehp_serve::server::{self, Handler};
use ehp_serve::stats::ServeStats;
use ehp_sim_core::json::Json;

use crate::executor::{
    resolve_seeds, run_batch, run_one, run_one_uncaught, BatchConfig, BatchResult, Outcome,
    OutcomeStatus,
};
use crate::registry;
use crate::scenario::{Scenario, ScenarioSpec};

/// Where the on-disk result cache lives: `EHP_RESULT_CACHE_DIR`, or
/// `target/result-cache` relative to the working directory.
#[must_use]
pub(crate) fn default_cache_dir() -> PathBuf {
    match std::env::var_os("EHP_RESULT_CACHE_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => PathBuf::from("target/result-cache"),
    }
}

/// The most child worker processes one batch may ask for, through
/// `--workers` or a daemon request's `workers` field: the same bound as
/// the experiments' `jobs` parameter.
pub(crate) const MAX_WORKERS: usize = 64;

/// Knobs for the served batch path.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// In-process worker threads (for the pool-less path and the
    /// degrade fallback).
    pub jobs: usize,
    /// Base seed for implicit scenario seeds.
    pub base_seed: u64,
    /// Stream per-scenario progress lines to stderr.
    pub progress: bool,
    /// Consult/populate the result cache.
    pub use_cache: bool,
    /// Result-cache directory.
    pub cache_dir: PathBuf,
    /// Child worker processes, at most `MAX_WORKERS` (64); 0 = run misses
    /// in-process.
    pub workers: usize,
    /// Pool knobs (chunk size, timeout, retries).
    pub pool: PoolConfig,
    /// How to spawn workers; `None` = current executable + `worker`.
    pub worker_cmd: Option<WorkerCommand>,
}

impl Default for ServingConfig {
    fn default() -> ServingConfig {
        ServingConfig {
            jobs: 1,
            base_seed: 0,
            progress: false,
            use_cache: true,
            cache_dir: default_cache_dir(),
            workers: 0,
            pool: PoolConfig::default(),
            worker_cmd: None,
        }
    }
}

/// A served batch: the merged result plus this batch's traffic.
#[derive(Debug)]
pub struct ServedBatch {
    /// Outcomes in input order, summary byte-identical to `run_batch`.
    pub result: BatchResult,
    /// Cache traffic (hits are *usable* hits — an entry that fails to
    /// decode counts as a miss, because it was recomputed).
    pub cache: CacheCounters,
    /// Pool traffic (zero when everything ran in-process or from cache).
    pub pool: PoolStats,
}

impl ServedBatch {
    /// The `cache_stats.json` sidecar body, with the [`CODE_VERSION`]
    /// that keyed this batch's cache traffic.
    #[must_use]
    pub(crate) fn traffic_json(&self) -> Json {
        Json::object([
            ("cache", self.cache.to_json()),
            ("code_version", Json::from(format!("{CODE_VERSION:016x}"))),
            (
                "pool",
                Json::object([
                    ("chunks", Json::from(self.pool.chunks)),
                    ("worker_spawns", Json::from(self.pool.worker_spawns)),
                    ("worker_restarts", Json::from(self.pool.worker_restarts)),
                    ("fallback_chunks", Json::from(self.pool.fallback_chunks)),
                ]),
            ),
        ])
    }
}

/// The hash of every workspace source file at build time (`build.rs`
/// computes it with `src/code_version.rs`): any source edit re-keys
/// every cached outcome.
pub const CODE_VERSION: u64 = include!(concat!(env!("OUT_DIR"), "/code_version.rs"));

/// The result-cache key for one **seed-resolved** scenario: experiment
/// id + [`CODE_VERSION`] + the scenario's canonical (compact,
/// key-sorted) JSON.
#[must_use]
pub fn scenario_key(sc: &Scenario) -> u64 {
    result_key(
        &sc.experiment,
        CODE_VERSION,
        &sc.to_json().to_string_compact(),
    )
}

/// The worker command for spawning this very binary in `worker` mode.
///
/// # Errors
///
/// Fails when the current executable path cannot be resolved (callers
/// degrade to in-process execution).
pub(crate) fn self_worker_command() -> io::Result<WorkerCommand> {
    let exe = std::env::current_exe()?;
    Ok(WorkerCommand::new(exe, &["worker"]))
}

/// Runs a batch through cache + pool; see the module docs for the
/// merge/degrade guarantees.
#[must_use]
pub fn run_batch_served(scenarios: &[Scenario], cfg: &ServingConfig) -> ServedBatch {
    let start = Instant::now();
    let resolved = resolve_seeds(scenarios, cfg.base_seed);
    let keys: Vec<u64> = resolved.iter().map(scenario_key).collect();

    let mut cache = cfg.use_cache.then(|| ResultCache::disk(&cfg.cache_dir));
    let mut traffic = CacheCounters::default();
    let mut slots: Vec<Option<Outcome>> = resolved.iter().map(|_| None).collect();
    let mut to_run: Vec<usize> = Vec::new();

    for (i, sc) in resolved.iter().enumerate() {
        let hit = cache.as_mut().and_then(|c| {
            let t = Instant::now();
            let mut out = c.lookup(keys[i]).and_then(|j| Outcome::from_json(&j))?;
            // Key collisions and tampered entries are theoretical, but
            // the guarantee is "byte-identical or recomputed", so the
            // decoded scenario must be exactly what we asked for.
            if out.scenario != *sc {
                return None;
            }
            out.wall = t.elapsed();
            Some(out)
        });
        match hit {
            Some(out) => {
                traffic.hits += 1;
                if cfg.progress {
                    eprintln!("[cache] {}: hit", out.scenario.name);
                }
                slots[i] = Some(out);
            }
            None => {
                // A disabled cache records no traffic at all.
                if cache.is_some() {
                    traffic.misses += 1;
                }
                to_run.push(i);
            }
        }
    }

    let mut pool_stats = PoolStats::default();
    if !to_run.is_empty() {
        let subset: Vec<Scenario> = to_run.iter().map(|&i| resolved[i].clone()).collect();
        let worker_cmd = (cfg.workers > 0)
            .then(|| {
                cfg.worker_cmd
                    .clone()
                    .or_else(|| self_worker_command().ok())
            })
            .flatten();
        let computed: Vec<Outcome> = match worker_cmd {
            Some(cmd) => {
                let (outs, stats) = run_subset_pooled(&subset, &cmd, cfg);
                pool_stats = stats;
                outs
            }
            // Pool-less (or unresolvable executable): the plain batch
            // executor. Seeds are already resolved, so base_seed is
            // inert here.
            None => {
                run_batch(
                    &subset,
                    &BatchConfig {
                        jobs: cfg.jobs,
                        base_seed: cfg.base_seed,
                        progress: cfg.progress,
                    },
                )
                .outcomes
            }
        };
        for (&slot, out) in to_run.iter().zip(computed) {
            if let Some(c) = cache.as_mut() {
                // Only completed runs are cached: panics and unknown
                // experiments stay uncached so a fixed experiment (or a
                // registry addition) re-executes instead of replaying
                // the failure.
                if out.status == OutcomeStatus::Ok && c.store(keys[slot], &out.to_json()) {
                    traffic.stores += 1;
                }
            }
            slots[slot] = Some(out);
        }
    }

    let outcomes: Vec<Outcome> = slots
        .into_iter()
        .map(|s| s.expect("every scenario resolved from cache, pool, or fallback"))
        .collect();
    ServedBatch {
        result: BatchResult {
            outcomes,
            wall: start.elapsed(),
        },
        cache: traffic,
        pool: pool_stats,
    }
}

/// Runs the cache-miss subset through the worker pool, decoding frames
/// back into outcomes and recomputing anything undecodable.
fn run_subset_pooled(
    subset: &[Scenario],
    cmd: &WorkerCommand,
    cfg: &ServingConfig,
) -> (Vec<Outcome>, PoolStats) {
    let jobs: Vec<Json> = subset.iter().map(Scenario::to_json).collect();
    let total = jobs.len();
    let done = AtomicUsize::new(0);
    let progress = cfg.progress;
    let on_chunk = move |_start: usize, results: &[Json]| {
        let finished = done.fetch_add(results.len(), Ordering::Relaxed) + results.len();
        if progress {
            for r in results {
                let name = r
                    .get("scenario")
                    .and_then(|s| s.get("name"))
                    .and_then(Json::as_str)
                    .unwrap_or("?");
                eprintln!("[{finished}/{total}] {name} (pool)");
            }
        }
    };
    // The degrade fallback: in-process, panic-isolated, 1:1 with jobs.
    let mut fallback = |chunk: &[Json]| {
        chunk
            .iter()
            .map(|job| match Scenario::from_json(job) {
                Ok(sc) => run_one(&sc).to_json(),
                // Unreachable for our own rendering; a Null decodes to
                // nothing and triggers the recompute below.
                Err(_) => Json::Null,
            })
            .collect()
    };
    let (raw, stats) = pool::run_jobs(
        &jobs,
        cmd,
        cfg.workers,
        &cfg.pool,
        &mut fallback,
        Some(&on_chunk),
    );
    let outcomes = subset
        .iter()
        .zip(raw)
        .map(|(sc, json)| {
            match Outcome::from_json(&json) {
                Some(out) if out.scenario == *sc => out,
                // A worker answered with the wrong/garbled outcome and
                // it slipped past the frame checks: recompute locally
                // from the authoritative scenario.
                _ => run_one(sc),
            }
        })
        .collect();
    (outcomes, stats)
}

/// The `ehp worker` child body: serve `{"id", "chunk"}` frames from
/// `input` until the parent closes the pipe. Scenarios run **without**
/// panic isolation by design — see [`run_one_uncaught`].
pub(crate) fn worker_loop(input: &mut impl Read, output: &mut impl Write) -> i32 {
    let mut input = BufReader::new(input);
    let mut output = BufWriter::new(output);
    loop {
        let request = match frame::read_frame(&mut input) {
            Ok(Some(request)) => request,
            // Parent closed our stdin: the batch is over.
            Ok(None) => return 0,
            Err(_) => return 1,
        };
        let id = request.get("id").and_then(Json::as_u64).unwrap_or(0);
        let response = match request.get("chunk").and_then(Json::as_arr) {
            Some(chunk) => {
                let results: Vec<Json> = chunk
                    .iter()
                    .map(|job| match Scenario::from_json(job) {
                        Ok(sc) => run_one_uncaught(&sc).to_json(),
                        Err(e) => Json::object([("undecodable", Json::from(e.to_string()))]),
                    })
                    .collect();
                Json::object([("id", Json::from(id)), ("results", Json::Arr(results))])
            }
            None => Json::object([
                ("id", Json::from(id)),
                ("error", Json::from("request missing `chunk`")),
            ]),
        };
        if frame::write_frame(&mut output, &response).is_err() {
            return 1;
        }
    }
}

/// The `ehp serve` request handler: validates scenario specs against
/// the registry's S1 schemas, runs them through [`run_batch_served`],
/// and streams one summary frame per scenario before the final reply.
struct RunHandler {
    base: ServingConfig,
}

impl RunHandler {
    fn error(message: impl Into<String>, findings: Vec<Json>) -> Json {
        let mut fields = vec![
            ("ok", Json::Bool(false)),
            ("error", Json::from(message.into())),
        ];
        if !findings.is_empty() {
            fields.push(("findings", Json::Arr(findings)));
        }
        Json::object(fields)
    }
}

impl Handler for RunHandler {
    fn handle(
        &mut self,
        request: &Json,
        stats: &mut ServeStats,
        emit: &mut dyn FnMut(&Json) -> io::Result<()>,
    ) -> Json {
        let op = request.get("op").and_then(Json::as_str).unwrap_or("");
        if op != "run" {
            stats.rejected += 1;
            return RunHandler::error(
                format!("unknown op {op:?} (try run/stats/ping/shutdown)"),
                Vec::new(),
            );
        }
        let Some(spec) = request.get("spec") else {
            stats.rejected += 1;
            return RunHandler::error("run request needs a `spec` field", Vec::new());
        };

        // Validate the spec exactly as `ehp lint` (S1) validates spec
        // files, against the live registry schemas.
        let spec_text = spec.to_string_compact();
        let findings =
            ehp_lint::schema::validate_scenario("request", &spec_text, &registry::schemas());
        if !findings.is_empty() {
            stats.rejected += 1;
            let msgs = findings
                .iter()
                .map(|f| Json::from(f.message.as_str()))
                .collect();
            return RunHandler::error("spec failed schema validation", msgs);
        }
        let specs = match ScenarioSpec::parse_file(&spec_text) {
            Ok(s) => s,
            Err(e) => {
                stats.rejected += 1;
                return RunHandler::error(format!("spec does not parse: {e}"), Vec::new());
            }
        };
        let scenarios: Vec<Scenario> = specs.iter().flat_map(ScenarioSpec::expand).collect();

        // An optional field that is present must be well-typed: a
        // malformed one rejects the request rather than running under
        // the daemon's default.
        let mut cfg = self.base.clone();
        if let Some(seed) = request.get("seed") {
            let Some(seed) = seed.as_u64() else {
                stats.rejected += 1;
                return RunHandler::error("`seed` must be a non-negative integer", Vec::new());
            };
            cfg.base_seed = seed;
        }
        if let Some(workers) = request.get("workers") {
            match workers.as_u64().and_then(|w| usize::try_from(w).ok()) {
                Some(w) if w <= MAX_WORKERS => cfg.workers = w,
                _ => {
                    stats.rejected += 1;
                    return RunHandler::error(
                        format!("`workers` must be an integer in 0..={MAX_WORKERS}"),
                        Vec::new(),
                    );
                }
            }
        }
        if let Some(no_cache) = request.get("no_cache") {
            let Some(no_cache) = no_cache.as_bool() else {
                stats.rejected += 1;
                return RunHandler::error("`no_cache` must be a bool", Vec::new());
            };
            if no_cache {
                cfg.use_cache = false;
            }
        }

        let served = run_batch_served(&scenarios, &cfg);
        for out in &served.result.outcomes {
            let _ = emit(&Json::object([
                ("event", Json::from("scenario")),
                ("name", Json::from(out.scenario.name.as_str())),
                ("status", Json::from(out.status.brief())),
                (
                    "metrics",
                    Json::Obj(
                        out.metrics
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::Num(*v)))
                            .collect(),
                    ),
                ),
            ]));
        }
        stats.scenarios += served.result.outcomes.len() as u64;
        stats.add_cache(served.cache);
        stats.add_pool(served.pool);
        Json::object([
            ("ok", Json::Bool(true)),
            ("total", Json::from(served.result.outcomes.len())),
            ("ok_count", Json::from(served.result.ok_count())),
            ("cache", served.cache.to_json()),
        ])
    }
}

/// The `ehp serve` daemon body: serve on `socket` until a `shutdown`
/// request; returns the process exit code.
#[must_use]
pub(crate) fn serve_loop(socket: &Path, base: ServingConfig) -> i32 {
    eprintln!("ehp serve: listening on {}", socket.display());
    match server::serve(socket, &mut RunHandler { base }) {
        Ok(stats) => {
            eprintln!(
                "ehp serve: shut down after {} requests ({} scenarios)",
                stats.requests, stats.scenarios
            );
            0
        }
        Err(e) => {
            eprintln!("ehp serve: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_scenarios(n: usize) -> Vec<Scenario> {
        (0..n)
            .map(|i| {
                let mut sc = Scenario::default_for("figure13");
                sc.name = format!("st{i:02}");
                sc
            })
            .collect()
    }

    fn memoryless_cfg() -> ServingConfig {
        ServingConfig {
            use_cache: false,
            ..ServingConfig::default()
        }
    }

    #[test]
    fn served_batch_without_cache_matches_plain_run_batch() {
        let scenarios = paper_scenarios(5);
        let plain = run_batch(&scenarios, &BatchConfig::default());
        let served = run_batch_served(&scenarios, &memoryless_cfg());
        assert_eq!(
            plain.summary_json().to_string_compact(),
            served.result.summary_json().to_string_compact()
        );
        assert_eq!(served.cache, CacheCounters::default());
        assert_eq!(served.pool, PoolStats::default());
    }

    #[test]
    fn scenario_key_moves_with_params_and_seed() {
        let resolved = resolve_seeds(&paper_scenarios(1), 0);
        let base = scenario_key(&resolved[0]);
        let mut other = resolved[0].clone();
        other.seed = Some(other.effective_seed() + 1);
        assert_ne!(base, scenario_key(&other));
        let with_param = resolved[0].clone().with_param("workgroups", 128u64);
        assert_ne!(base, scenario_key(&with_param));
        assert_eq!(base, scenario_key(&resolved[0].clone()));
    }

    #[test]
    fn traffic_json_names_the_code_version() {
        let served = run_batch_served(&paper_scenarios(1), &memoryless_cfg());
        let version = served.traffic_json();
        let version = version.get("code_version").and_then(Json::as_str);
        assert_eq!(version, Some(format!("{CODE_VERSION:016x}").as_str()));
    }

    #[test]
    fn run_handler_rejects_a_spec_past_the_scenario_cap_and_keeps_serving() {
        let mut handler = RunHandler {
            base: memoryless_cfg(),
        };
        let mut stats = ServeStats::default();
        let mut frames = 0;
        let mut run = |handler: &mut RunHandler, stats: &mut ServeStats, spec: &str| {
            let request = Json::object([
                ("op", Json::from("run")),
                ("spec", Json::parse(spec).unwrap()),
            ]);
            handler.handle(&request, stats, &mut |_| {
                frames += 1;
                Ok(())
            })
        };
        let seeds: Vec<String> = (1..=4097).map(|s: u64| s.to_string()).collect();
        let huge = format!(
            r#"{{"experiment": "table1", "sweep": {{"seed": [{}]}}}}"#,
            seeds.join(", ")
        );
        let reply = run(&mut handler, &mut stats, &huge);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply:?}");
        let findings = reply.get("findings").and_then(Json::as_arr).unwrap();
        assert_eq!(
            findings[0].as_str(),
            Some("expands to 4097 scenarios; at most 4096 are allowed")
        );
        assert_eq!((stats.rejected, stats.scenarios), (1, 0));

        let reply = run(&mut handler, &mut stats, r#"{"experiment": "table1"}"#);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
        assert_eq!((stats.rejected, stats.scenarios), (1, 1));
        assert_eq!(frames, 1, "only the valid request streamed a scenario");
    }

    #[test]
    fn worker_loop_round_trips_a_chunk() {
        let resolved = resolve_seeds(&paper_scenarios(2), 7);
        let chunk: Vec<Json> = resolved.iter().map(Scenario::to_json).collect();
        let request = Json::object([("id", Json::from(3u64)), ("chunk", Json::Arr(chunk))]);
        let mut input = Vec::new();
        frame::write_frame(&mut input, &request).unwrap();
        let mut output = Vec::new();
        let code = worker_loop(&mut input.as_slice(), &mut output);
        assert_eq!(code, 0, "clean EOF exit");
        let mut r = output.as_slice();
        let response = frame::read_frame(&mut r).unwrap().unwrap();
        assert_eq!(response.get("id"), Some(&Json::from(3u64)));
        let results = response.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        // The worker's outcome decodes to exactly the in-process one.
        let out = Outcome::from_json(&results[0]).unwrap();
        let local = run_one(&resolved[0]);
        assert_eq!(out.status, local.status);
        assert_eq!(out.metrics, local.metrics);
    }

    #[test]
    fn worker_loop_reports_malformed_requests_without_dying() {
        let bad = Json::object([("id", Json::from(1u64))]); // no chunk
        let mut input = Vec::new();
        frame::write_frame(&mut input, &bad).unwrap();
        let mut output = Vec::new();
        assert_eq!(worker_loop(&mut input.as_slice(), &mut output), 0);
        let response = frame::read_frame(&mut output.as_slice()).unwrap().unwrap();
        assert!(response.get("error").is_some());
    }
}
