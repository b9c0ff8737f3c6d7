//! End-to-end tests for the serving layer (DESIGN.md §12): result-cache
//! byte-identity, corruption degrade, worker-pool panic robustness, and
//! the `ehp serve` Unix-socket daemon driven through the real binary,
//! including 1,000 fuzzed client sessions (mutated, truncated, oversized
//! and abandoned frames) that must leave it answering.

use std::fs;
use std::io::{ErrorKind, Write as _};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use ehp_harness::executor::{run_batch, BatchConfig, OutcomeStatus};
use ehp_harness::scenario::Scenario;
use ehp_harness::serving::{run_batch_served, scenario_key, ServingConfig};
use ehp_serve::cache::ResultCache;
use ehp_serve::frame::{read_frame, write_frame, MAX_FRAME_BYTES};
use ehp_serve::pool::{PoolConfig, WorkerCommand};
use ehp_serve::server;
use ehp_sim_core::json::Json;
use ehp_sim_core::rng::SplitMix64;

/// The compiled `ehp` binary — the same executable users run.
const EHP: &str = env!("CARGO_BIN_EXE_ehp");

fn tmp_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp/serving-e2e")
        .join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// `n` cheap, distinct paper scenarios: Figure 13's dispatch flow at
/// different grid sizes.
fn paper_batch(n: usize) -> Vec<Scenario> {
    (0..n)
        .map(|i| {
            let mut sc = Scenario::default_for("figure13");
            sc.name = format!("e2e{i:02}");
            sc = sc.with_param("workgroups", 32u64 + i as u64);
            sc
        })
        .collect()
}

fn cached_cfg(dir: &Path) -> ServingConfig {
    ServingConfig {
        jobs: 2,
        cache_dir: dir.to_path_buf(),
        ..ServingConfig::default()
    }
}

fn summary(
    scenarios: &[Scenario],
    cfg: &ServingConfig,
) -> (String, ehp_serve::cache::CacheCounters) {
    let served = run_batch_served(scenarios, cfg);
    (
        served.result.summary_json().to_string_pretty(),
        served.cache,
    )
}

#[test]
fn cold_warm_and_uncached_summaries_are_byte_identical() {
    let cache_dir = tmp_dir("cold-warm");
    let scenarios = paper_batch(6);
    let cfg = cached_cfg(&cache_dir);

    let (cold, cold_traffic) = summary(&scenarios, &cfg);
    assert_eq!(cold_traffic.hits, 0);
    assert_eq!(cold_traffic.misses, 6);
    assert_eq!(cold_traffic.stores, 6);

    let (warm, warm_traffic) = summary(&scenarios, &cfg);
    assert_eq!(warm_traffic.hits, 6, "warm repeat must hit every entry");
    assert_eq!(warm_traffic.misses, 0);
    assert_eq!(cold, warm, "hot and cold summaries must be byte-identical");

    let uncached_cfg = ServingConfig {
        use_cache: false,
        ..cached_cfg(&cache_dir)
    };
    let (uncached, no_traffic) = summary(&scenarios, &uncached_cfg);
    assert_eq!(no_traffic, ehp_serve::cache::CacheCounters::default());
    assert_eq!(cold, uncached, "--no-result-cache must not change bytes");

    // And all of it matches the plain executor with the same seeds.
    let plain = run_batch(
        &scenarios,
        &BatchConfig {
            jobs: 2,
            ..BatchConfig::default()
        },
    );
    assert_eq!(cold, plain.summary_json().to_string_pretty());
}

#[test]
fn corrupted_entry_degrades_to_recompute_and_repairs() {
    let cache_dir = tmp_dir("corrupt");
    let scenarios = paper_batch(3);
    let cfg = cached_cfg(&cache_dir);
    let (cold, _) = summary(&scenarios, &cfg);

    // Truncate one specific entry on disk.
    let resolved = ehp_harness::executor::resolve_seeds(&scenarios, cfg.base_seed);
    let victim = scenario_key(&resolved[1]);
    let victim_path = cache_dir.join(format!("{victim:016x}.json"));
    assert!(victim_path.exists(), "cold run must have stored the entry");
    fs::write(&victim_path, "{ definitely not an entry").unwrap();

    // The corrupted entry is a miss (recomputed + re-stored); the other
    // two still hit; the summary bytes do not change.
    let (repaired, traffic) = summary(&scenarios, &cfg);
    assert_eq!(traffic.hits, 2);
    assert_eq!(traffic.misses, 1);
    assert_eq!(traffic.stores, 1);
    assert_eq!(cold, repaired);

    // The slot is healthy again afterwards.
    let (_, after) = summary(&scenarios, &cfg);
    assert_eq!(after.hits, 3);
}

#[test]
fn tampered_entry_fails_scenario_check_and_recomputes() {
    let cache_dir = tmp_dir("tamper");
    let scenarios = paper_batch(2);
    let cfg = cached_cfg(&cache_dir);
    let (cold, _) = summary(&scenarios, &cfg);

    // Swap one entry's outcome for the *other* scenario's outcome: the
    // entry decodes fine but records the wrong scenario, so the
    // serving layer must reject and recompute it.
    let resolved = ehp_harness::executor::resolve_seeds(&scenarios, cfg.base_seed);
    let (ka, kb) = (scenario_key(&resolved[0]), scenario_key(&resolved[1]));
    let mut cache = ResultCache::disk(&cache_dir);
    let stolen = cache.lookup(kb).expect("entry b exists");
    assert!(cache.store(ka, &stolen));

    let (healed, traffic) = summary(&scenarios, &cfg);
    assert_eq!(cold, healed);
    assert_eq!(
        traffic.misses, 1,
        "the tampered entry must not count as a hit"
    );
}

/// A pool config tuned for tests: small chunks so a panicking scenario
/// poisons little, tight timeout so the suite stays fast.
fn fast_pool() -> PoolConfig {
    PoolConfig {
        chunk: 2,
        timeout: Duration::from_secs(30),
        max_retries: 1,
        backoff: Duration::from_millis(5),
    }
}

#[test]
fn panicking_scenario_in_worker_degrades_to_identical_summary() {
    let scenarios = {
        let mut v = paper_batch(5);
        // A granule that is not a power of two panics inside ic_sweep.
        let mut bad = Scenario::default_for("ic_sweep").with_param("stack_granule", 3000u64);
        bad.name = "e2e-poison".to_string();
        v.insert(2, bad);
        v
    };

    // Ground truth: the plain in-process executor (panic isolated).
    let plain = run_batch(&scenarios, &BatchConfig::default());
    assert_eq!(plain.ok_count(), 5);
    assert!(matches!(
        plain.outcomes[2].status,
        OutcomeStatus::Panicked(_)
    ));

    // Pooled: the panic kills a worker; the chunk is retried on a fresh
    // one, then degrades to the in-process fallback. Same bytes out.
    let cfg = ServingConfig {
        use_cache: false,
        workers: 2,
        pool: fast_pool(),
        worker_cmd: Some(WorkerCommand::new(EHP, &["worker"])),
        ..ServingConfig::default()
    };
    let served = run_batch_served(&scenarios, &cfg);
    assert_eq!(
        plain.summary_json().to_string_pretty(),
        served.result.summary_json().to_string_pretty(),
        "a worker killed mid-batch must never change the merged summary"
    );
    assert!(
        served.pool.worker_restarts >= 1,
        "the panic must have killed at least one worker: {:?}",
        served.pool
    );
    assert!(
        served.pool.fallback_chunks >= 1,
        "the poisoned chunk must have degraded in-process: {:?}",
        served.pool
    );
}

#[test]
fn pool_spawns_the_requested_worker_count() {
    // Three workers over six one-scenario chunks: the pool starts
    // exactly the three children asked for.
    let scenarios = paper_batch(6);
    let plain = run_batch(&scenarios, &BatchConfig::default());
    let cfg = ServingConfig {
        use_cache: false,
        workers: 3,
        pool: PoolConfig {
            chunk: 1,
            ..fast_pool()
        },
        worker_cmd: Some(WorkerCommand::new(EHP, &["worker"])),
        ..ServingConfig::default()
    };
    let served = run_batch_served(&scenarios, &cfg);
    assert_eq!(
        plain.summary_json().to_string_pretty(),
        served.result.summary_json().to_string_pretty()
    );
    assert_eq!(served.pool.chunks, 6);
    assert_eq!(served.pool.worker_spawns, 3, "{:?}", served.pool);
    assert_eq!(served.pool.fallback_chunks, 0, "{:?}", served.pool);
}

/// Serve-daemon harness: spawns `ehp serve` on a socket under `dir`,
/// waits for it to answer, and guarantees shutdown+reap on drop.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn spawn(dir: &Path) -> Daemon {
        let socket = dir.join("d.sock");
        let child = Command::new(EHP)
            .args(["serve", "--socket"])
            .arg(&socket)
            .env("EHP_FIGURES_DIR", dir.join("figures"))
            .env("EHP_RESULT_CACHE_DIR", dir.join("cache"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ehp serve");
        let daemon = Daemon { child, socket };
        let ping = Json::object([("op", Json::from("ping"))]);
        for _ in 0..400 {
            if server::call(&daemon.socket, &ping).is_ok() {
                return daemon;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("ehp serve never came up on {}", daemon.socket.display());
    }

    fn call(&self, request: &Json) -> Vec<Json> {
        server::call(&self.socket, request).expect("serve call")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = server::call(
            &self.socket,
            &Json::object([("op", Json::from("shutdown"))]),
        );
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn serve_daemon_answers_sweeps_and_tracks_cache_stats() {
    let dir = tmp_dir("daemon");
    let daemon = Daemon::spawn(&dir);

    // A schema-valid sweep: 3 scenarios of Figure 13.
    let spec = Json::object([
        ("experiment", Json::from("figure13")),
        ("name", Json::from("sweep")),
        (
            "sweep",
            Json::object([(
                "workgroups",
                Json::array([Json::from(8u64), Json::from(16u64), Json::from(24u64)]),
            )]),
        ),
    ]);
    let run = Json::object([
        ("op", Json::from("run")),
        ("spec", spec.clone()),
        ("seed", Json::from(11u64)),
    ]);

    // Cold: 3 streamed scenario frames + the final done frame.
    let frames = daemon.call(&run);
    assert_eq!(frames.len(), 4);
    for f in &frames[..3] {
        assert_eq!(f.get("event"), Some(&Json::from("scenario")));
        assert_eq!(f.get("status"), Some(&Json::from("ok")));
        assert!(f
            .get("metrics")
            .and_then(|m| m.get("sync_overhead_cycles"))
            .is_some());
    }
    let done = &frames[3];
    assert_eq!(done.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(done.get("total"), Some(&Json::from(3u64)));
    assert_eq!(done.get("ok_count"), Some(&Json::from(3u64)));

    // Warm: identical request must be served entirely from the cache.
    let frames = daemon.call(&run);
    let cache = frames[3].get("cache").expect("cache traffic in reply");
    assert_eq!(cache.get("hits"), Some(&Json::from(3u64)));
    assert_eq!(cache.get("misses"), Some(&Json::from(0u64)));

    // Schema-invalid spec (unknown parameter) is rejected with findings.
    let bad = Json::object([
        ("op", Json::from("run")),
        (
            "spec",
            Json::object([
                ("experiment", Json::from("figure13")),
                ("params", Json::object([("wrokgroups", Json::from(8u64))])),
            ]),
        ),
    ]);
    let frames = daemon.call(&bad);
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].get("ok"), Some(&Json::Bool(false)));
    assert!(frames[0].get("findings").is_some());

    // Stats reflect all of the above.
    let frames = daemon.call(&Json::object([("op", Json::from("stats"))]));
    let stats = &frames[0];
    assert_eq!(stats.get("requests"), Some(&Json::from(4u64)));
    assert_eq!(stats.get("rejected"), Some(&Json::from(1u64)));
    assert_eq!(stats.get("scenarios"), Some(&Json::from(6u64)));
    let cache = stats.get("cache").unwrap();
    assert_eq!(cache.get("hits"), Some(&Json::from(3u64)));
    assert_eq!(cache.get("misses"), Some(&Json::from(3u64)));
    assert!(stats.get("latency_ms").and_then(|l| l.get("p50")).is_some());
}

#[test]
fn serve_daemon_rejects_malformed_run_fields() {
    let dir = tmp_dir("daemon-fields");
    let daemon = Daemon::spawn(&dir);
    let spec = Json::object([("experiment", Json::from("table1"))]);
    let cases = [
        ("workers", Json::Num(65.0)),
        ("workers", Json::Num(-1.0)),
        ("workers", Json::Num(2.5)),
        ("workers", Json::from("3")),
        ("seed", Json::from("7")),
        ("seed", Json::Num(2.5)),
        ("seed", Json::Num(-1.0)),
        ("no_cache", Json::from("true")),
        ("no_cache", Json::Num(1.0)),
    ];
    for (field, value) in &cases {
        let run = Json::object([
            ("op", Json::from("run")),
            ("spec", spec.clone()),
            (*field, value.clone()),
        ]);
        let frames = daemon.call(&run);
        assert_eq!(frames.len(), 1, "{field} {value:?}: {frames:?}");
        assert_eq!(
            frames[0].get("ok"),
            Some(&Json::Bool(false)),
            "{field} {value:?}"
        );
    }

    // Nothing ran and no worker process was started.
    let frames = daemon.call(&Json::object([("op", Json::from("stats"))]));
    let stats = &frames[0];
    assert_eq!(stats.get("rejected"), Some(&Json::from(cases.len())));
    assert_eq!(stats.get("scenarios"), Some(&Json::from(0u64)));
    let pool = stats.get("pool").unwrap();
    assert_eq!(pool.get("worker_spawns"), Some(&Json::from(0u64)));
    assert_eq!(pool.get("chunks"), Some(&Json::from(0u64)));
}

/// Fuzzed client sessions against one live daemon.
const FUZZ_SESSIONS: u64 = 1_000;

/// Seed of the session stream.
const FUZZ_SEED: u64 = 0x5E55_10F2;

/// How long a session may wait on the daemon before it counts as hung.
const HANG_TIMEOUT: Duration = Duration::from_secs(20);

/// Request bodies the sessions mutate: the read-only builtins and `run`
/// requests over the two parameter-less experiments.
const REQUESTS: &[&str] = &[
    r#"{"op":"ping"}"#,
    r#"{"op":"stats"}"#,
    r#"{"op":"run","spec":{"experiment":"table1"}}"#,
    r#"{"op":"run","seed":7,"spec":{"experiment":"figure16","name":"f16"}}"#,
    r#"{"op":"run","no_cache":true,"spec":[{"experiment":"table1"},{"experiment":"figure16","sweep":{"seed":[1,2]}}]}"#,
];

/// Single bytes the mutator inserts, weighted towards JSON structure.
const FUZZ_BYTES: &[u8] = b"{}[]\",:\\-.019enrtu \x00\xc3\xff";

/// A length-prefixed frame around raw `body` bytes.
fn raw_frame(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

/// Applies one to three byte inserts, deletes, bit flips or truncations.
fn mutate(rng: &mut SplitMix64, body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    for _ in 0..=rng.next_below(3) {
        let at = rng.next_below(out.len() as u64 + 1) as usize;
        match rng.next_below(8) {
            0..=2 => out.insert(
                at,
                FUZZ_BYTES[rng.next_below(FUZZ_BYTES.len() as u64) as usize],
            ),
            3 | 4 if at < out.len() => {
                out.remove(at);
            }
            5 | 6 if at < out.len() => out[at] ^= 1 << rng.next_below(8),
            _ => out.truncate(at),
        }
    }
    out
}

/// Whether a mutant stays inside the corpus's scope: it must not ask
/// for `shutdown` or a worker pool, and must not name an experiment
/// other than `table1` and `figure16`. Unparsable bytes are in scope
/// (the daemon must reject them).
fn in_scope(body: &[u8]) -> bool {
    fn strings<'a>(v: &'a Json, out: &mut Vec<&'a str>) {
        match v {
            Json::Str(s) => out.push(s),
            Json::Arr(items) => items.iter().for_each(|i| strings(i, out)),
            Json::Obj(map) => {
                for (k, v) in map {
                    out.push(k);
                    strings(v, out);
                }
            }
            _ => {}
        }
    }
    let Some(json) = std::str::from_utf8(body)
        .ok()
        .and_then(|t| Json::parse(t).ok())
    else {
        return true;
    };
    let mut found = Vec::new();
    strings(&json, &mut found);
    let ids = ehp_harness::registry::ids();
    found.iter().all(|s| {
        *s != "shutdown"
            && *s != "workers"
            && (!ids.contains(s) || *s == "table1" || *s == "figure16")
    })
}

/// A random corpus request, mutated half of the time; a mutant that
/// leaves the corpus's scope is replaced by its unmutated request.
fn fuzzed_body(rng: &mut SplitMix64) -> Vec<u8> {
    let base = REQUESTS[rng.next_below(REQUESTS.len() as u64) as usize].as_bytes();
    if rng.chance(0.5) {
        return base.to_vec();
    }
    let body = mutate(rng, base);
    if in_scope(&body) {
        body
    } else {
        base.to_vec()
    }
}

fn connect(socket: &Path) -> UnixStream {
    let stream = UnixStream::connect(socket).expect("connect to ehp serve");
    stream.set_read_timeout(Some(HANG_TIMEOUT)).unwrap();
    stream.set_write_timeout(Some(HANG_TIMEOUT)).unwrap();
    stream
}

/// Reads frames until EOF or a broken stream; a read timeout means the
/// daemon hung and fails the test.
fn drain(stream: &mut UnixStream, session: u64) -> Vec<Json> {
    let mut frames = Vec::new();
    loop {
        match read_frame(stream) {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return frames,
            Err(e) => {
                assert!(
                    !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                    "daemon hung in session {session}"
                );
                return frames;
            }
        }
    }
}

/// One fuzzed client session. Write errors are expected: the daemon
/// drops a client at its first malformed frame.
fn fuzz_session(socket: &Path, rng: &mut SplitMix64, session: u64) {
    let mut stream = connect(socket);
    match rng.next_below(5) {
        // One to three mutated frames, then a half-close and a read of
        // every reply.
        0 | 1 => {
            for _ in 0..=rng.next_below(3) {
                let _ = stream.write_all(&raw_frame(&fuzzed_body(rng)));
            }
            let _ = stream.shutdown(Shutdown::Write);
            drain(&mut stream, session);
        }
        // A frame cut short after its prefix, then a close.
        2 => {
            let body = fuzzed_body(rng);
            let cut = 4 + rng.next_below(body.len().max(1) as u64) as usize;
            let _ = stream.write_all(&raw_frame(&body)[..cut]);
        }
        // A length prefix at or above MAX_FRAME_BYTES with a few body
        // bytes, then a half-close: the daemon must let go.
        3 => {
            let len = MAX_FRAME_BYTES as u64 + rng.next_below(3);
            let body = fuzzed_body(rng);
            let mut bytes = (len as u32).to_le_bytes().to_vec();
            bytes.extend_from_slice(&body[..body.len().min(rng.next_below(8) as usize)]);
            let _ = stream.write_all(&bytes);
            let _ = stream.shutdown(Shutdown::Write);
            drain(&mut stream, session);
        }
        // A close inside the length prefix, or right after a complete
        // request without reading the reply.
        _ => {
            let frame = raw_frame(&fuzzed_body(rng));
            let cut = if rng.chance(0.5) {
                1 + rng.next_below(3) as usize
            } else {
                frame.len()
            };
            let _ = stream.write_all(&frame[..cut]);
        }
    }
}

/// Sends `request` over a fresh connection and reads every reply frame.
fn exchange(socket: &Path, request: &Json, session: u64) -> Vec<Json> {
    let mut stream = connect(socket);
    let mut body = Vec::new();
    write_frame(&mut body, request).unwrap();
    stream.write_all(&body).expect("send request");
    stream.shutdown(Shutdown::Write).unwrap();
    drain(&mut stream, session)
}

#[test]
fn fuzzed_client_sessions_leave_the_daemon_serving() {
    let dir = tmp_dir("fuzz-sessions");
    let mut daemon = Daemon::spawn(&dir);
    let ping = Json::object([("op", Json::from("ping"))]);
    let fixed = Json::parse(
        r#"{"op":"run","seed":11,"spec":[{"experiment":"table1"},{"experiment":"figure16"}]}"#,
    )
    .unwrap();
    // The scenario frames and the final verdict, without cache traffic.
    let summary = |frames: Vec<Json>| -> Vec<Json> {
        frames
            .into_iter()
            .map(|f| match f {
                Json::Obj(mut map) => {
                    map.remove("cache");
                    Json::Obj(map)
                }
                other => other,
            })
            .collect()
    };
    let before = summary(exchange(&daemon.socket, &fixed, 0));
    assert_eq!(before.len(), 3, "two scenario frames and the done frame");

    let mut rng = SplitMix64::new(FUZZ_SEED);
    for session in 1..=FUZZ_SESSIONS {
        fuzz_session(&daemon.socket, &mut rng, session);
        let pong = exchange(&daemon.socket, &ping, session);
        assert!(
            pong.len() == 1 && pong[0].get("ok") == Some(&Json::Bool(true)),
            "ping failed after session {session}: {pong:?}"
        );
    }

    assert_eq!(summary(exchange(&daemon.socket, &fixed, 0)), before);
    assert!(
        daemon.child.try_wait().unwrap().is_none(),
        "the daemon exited"
    );
}
