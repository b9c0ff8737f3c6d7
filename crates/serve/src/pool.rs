//! The multi-process worker pool.
//!
//! Jobs (opaque JSON values — the harness passes scenarios) are split
//! into consecutive **chunks**; a fixed set of child processes claim
//! chunks from a shared queue and execute them over the [`frame`]
//! protocol on their stdin/stdout:
//!
//! ```text
//! parent → worker   {"id": <chunk#>, "chunk": [job, ...]}
//! worker → parent   {"id": <chunk#>, "results": [result, ...]}
//! ```
//!
//! Results are stored by chunk index, so the merged output is in input
//! order regardless of which worker finished when — the same
//! determinism rule as the in-process executor.
//!
//! ## The retry/degrade ladder
//!
//! A worker that **dies** (panicking scenario, OOM kill), emits a
//! **malformed frame** (wrong id, missing/miscounted results, an
//! `error` field, junk bytes), or **exceeds the per-chunk timeout** is
//! killed and its chunk retried on a freshly spawned worker, with a
//! linear backoff between attempts. After `1 + max_retries` failed
//! attempts the chunk *degrades* to the caller's in-process fallback —
//! which runs scenarios under `catch_unwind`, so a deterministically
//! panicking scenario ends as a `Panicked` outcome identical to what a
//! pool-less run produces. One poisoned scenario costs retries; it can
//! never sink the batch or change the merged summary.

use std::io;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::Duration;

use ehp_sim_core::json::Json;

use crate::frame;

/// Pool-level knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Jobs per chunk (clamped to at least 1). Small chunks bound the
    /// blast radius of a poisoned scenario; large chunks amortise the
    /// frame round trip.
    pub chunk: usize,
    /// Per-chunk wall-clock budget before the worker is declared hung.
    pub timeout: Duration,
    /// Retries on a fresh worker after the first failed attempt; the
    /// chunk degrades to the in-process fallback once these run out.
    pub max_retries: u32,
    /// Base backoff between attempts (scaled linearly by attempt).
    pub backoff: Duration,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            chunk: 4,
            timeout: Duration::from_secs(120),
            max_retries: 2,
            backoff: Duration::from_millis(25),
        }
    }
}

/// How to spawn one worker: program and arguments.
#[derive(Debug, Clone)]
pub struct WorkerCommand {
    /// Executable path (the harness passes its own binary).
    pub(crate) program: PathBuf,
    /// Arguments (e.g. `["worker"]`).
    pub(crate) args: Vec<String>,
}

impl WorkerCommand {
    /// A command that runs `program` with `args`.
    #[must_use]
    pub fn new(program: impl Into<PathBuf>, args: &[&str]) -> WorkerCommand {
        WorkerCommand {
            program: program.into(),
            args: args.iter().map(|s| (*s).to_string()).collect(),
        }
    }
}

/// What the pool did, for serve stats and the timing sidecar.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Chunks dispatched (including ones that later degraded).
    pub chunks: u64,
    /// Worker processes spawned in total.
    pub worker_spawns: u64,
    /// Workers killed and replaced (death, malformed frame, timeout).
    pub worker_restarts: u64,
    /// Chunks that exhausted retries and ran through the fallback.
    pub fallback_chunks: u64,
}

/// Per-chunk completion observer passed to [`run_jobs`]: called with
/// `(first job index, chunk results)` in completion order.
pub(crate) type ChunkObserver<'a> = &'a (dyn Fn(usize, &[Json]) + Sync);

/// One live worker: the child, its stdin, and a reader thread draining
/// its stdout into a channel (the only portable way to bound a read
/// with a timeout using std alone).
struct Worker {
    child: Child,
    stdin: ChildStdin,
    rx: mpsc::Receiver<io::Result<Json>>,
}

impl Worker {
    fn spawn(cmd: &WorkerCommand) -> io::Result<Worker> {
        let mut child = Command::new(&cmd.program)
            .args(&cmd.args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            // Workers are retried/degraded on failure; their panic
            // backtraces would only pollute batch logs.
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            // The reader thread owns the pipe outright (moved in).
            let mut stdout = stdout;
            loop {
                match frame::read_frame(&mut stdout) {
                    Ok(Some(json)) => {
                        if tx.send(Ok(json)).is_err() {
                            return;
                        }
                    }
                    Ok(None) => {
                        let _ = tx.send(Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "worker closed its stdout",
                        )));
                        return;
                    }
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                }
            }
        });
        Ok(Worker { child, stdin, rx })
    }

    /// One request/response round trip; any error means "kill me and
    /// retry the chunk elsewhere".
    fn exchange(&mut self, id: u64, jobs: &[Json], timeout: Duration) -> Result<Vec<Json>, String> {
        let request = Json::object([("id", Json::from(id)), ("chunk", Json::Arr(jobs.to_vec()))]);
        frame::write_frame(&mut self.stdin, &request).map_err(|e| format!("write: {e}"))?;
        let response = match self.rx.recv_timeout(timeout) {
            Ok(Ok(json)) => json,
            Ok(Err(e)) => return Err(format!("read: {e}")),
            Err(RecvTimeoutError::Timeout) => return Err("chunk timed out".to_string()),
            Err(RecvTimeoutError::Disconnected) => return Err("worker stream closed".to_string()),
        };
        if response.get("id").and_then(Json::as_u64) != Some(id) {
            return Err("response id mismatch".to_string());
        }
        if let Some(msg) = response.get("error").and_then(Json::as_str) {
            return Err(format!("worker reported: {msg}"));
        }
        let results = response
            .get("results")
            .and_then(Json::as_arr)
            .ok_or_else(|| "response missing `results`".to_string())?;
        if results.len() != jobs.len() {
            return Err(format!(
                "worker returned {} results for {} jobs",
                results.len(),
                jobs.len()
            ));
        }
        Ok(results.to_vec())
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        // Workers are stateless; a hard kill is a clean shutdown.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs every job through a pool of `workers` child processes
/// (clamped to `1..=chunks`), returning results **in input order** plus
/// traffic stats.
///
/// `fallback` executes a chunk in-process after the retry ladder is
/// exhausted (it must return exactly one result per job — the harness
/// passes its `catch_unwind` batch runner). `on_chunk` (if given) is
/// invoked once per completed chunk with `(first job index, results)`,
/// in completion order — the serve daemon streams summaries from it.
pub fn run_jobs(
    jobs: &[Json],
    cmd: &WorkerCommand,
    workers: usize,
    cfg: &PoolConfig,
    fallback: &mut dyn FnMut(&[Json]) -> Vec<Json>,
    on_chunk: Option<ChunkObserver<'_>>,
) -> (Vec<Json>, PoolStats) {
    if jobs.is_empty() {
        return (Vec::new(), PoolStats::default());
    }
    let chunk_size = cfg.chunk.max(1);
    let ranges: Vec<std::ops::Range<usize>> = (0..jobs.len())
        .step_by(chunk_size)
        .map(|start| start..(start + chunk_size).min(jobs.len()))
        .collect();

    // Lowest chunk index at the back so `pop` hands out input order.
    let queue: Mutex<Vec<usize>> = Mutex::new((0..ranges.len()).rev().collect());
    let slots: Vec<Mutex<Option<Vec<Json>>>> = ranges.iter().map(|_| Mutex::new(None)).collect();
    let failed: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let spawns = AtomicU64::new(0);
    let restarts = AtomicU64::new(0);

    let workers = workers.max(1).min(ranges.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut worker: Option<Worker> = None;
                loop {
                    let Some(idx) = queue.lock().unwrap().pop() else {
                        return;
                    };
                    let chunk_jobs = &jobs[ranges[idx].clone()];
                    let mut attempts = 0u32;
                    let results = loop {
                        if worker.is_none() {
                            worker = match Worker::spawn(cmd) {
                                Ok(w) => {
                                    spawns.fetch_add(1, Ordering::Relaxed);
                                    Some(w)
                                }
                                // Cannot even spawn: degrade immediately.
                                Err(_) => break None,
                            };
                        }
                        let w = worker.as_mut().expect("worker spawned above");
                        match w.exchange(idx as u64, chunk_jobs, cfg.timeout) {
                            Ok(r) => break Some(r),
                            Err(_why) => {
                                // Kill the (possibly hung or poisoned)
                                // worker; a fresh one retries the chunk.
                                worker = None;
                                restarts.fetch_add(1, Ordering::Relaxed);
                                attempts += 1;
                                if attempts > cfg.max_retries {
                                    break None;
                                }
                                std::thread::sleep(cfg.backoff * attempts);
                            }
                        }
                    };
                    match results {
                        Some(r) => {
                            if let Some(cb) = on_chunk {
                                cb(ranges[idx].start, &r);
                            }
                            *slots[idx].lock().unwrap() = Some(r);
                        }
                        None => failed.lock().unwrap().push(idx),
                    }
                }
            });
        }
    });

    // Degrade: exhausted chunks run in-process, in input order.
    let mut failed = failed.into_inner().unwrap();
    failed.sort_unstable();
    let fallback_chunks = failed.len() as u64;
    for idx in failed {
        let chunk_jobs = &jobs[ranges[idx].clone()];
        let mut r = fallback(chunk_jobs);
        debug_assert_eq!(r.len(), chunk_jobs.len(), "fallback must be 1:1");
        r.resize(chunk_jobs.len(), Json::Null);
        if let Some(cb) = on_chunk {
            cb(ranges[idx].start, &r);
        }
        *slots[idx].lock().unwrap() = Some(r);
    }

    let results: Vec<Json> = slots
        .into_iter()
        .flat_map(|slot| slot.into_inner().unwrap().expect("every chunk resolved"))
        .collect();
    let stats = PoolStats {
        chunks: ranges.len() as u64,
        worker_spawns: spawns.into_inner(),
        worker_restarts: restarts.into_inner(),
        fallback_chunks,
    };
    (results, stats)
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    fn jobs(n: usize) -> Vec<Json> {
        (0..n).map(|i| Json::from(i as u64)).collect()
    }

    /// Fallback that tags each job so tests can see which chunks
    /// degraded and that order is preserved.
    fn echo_fallback(chunk: &[Json]) -> Vec<Json> {
        chunk
            .iter()
            .map(|j| Json::object([("echo", j.clone())]))
            .collect()
    }

    fn fast_cfg() -> PoolConfig {
        PoolConfig {
            chunk: 3,
            timeout: Duration::from_millis(400),
            max_retries: 1,
            backoff: Duration::from_millis(1),
        }
    }

    #[test]
    fn dead_on_arrival_worker_degrades_every_chunk_in_order() {
        // `/bin/false` exits immediately: every exchange sees EOF,
        // retries once, then degrades to the fallback.
        let cmd = WorkerCommand::new("/bin/false", &[]);
        let input = jobs(8);
        let (results, stats) = run_jobs(&input, &cmd, 2, &fast_cfg(), &mut echo_fallback, None);
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.get("echo"), Some(&Json::from(i as u64)), "slot {i}");
        }
        assert_eq!(stats.chunks, 3);
        assert_eq!(stats.fallback_chunks, 3);
        assert!(stats.worker_restarts >= 3, "{stats:?}");
    }

    #[test]
    fn malformed_frames_are_poison_not_results() {
        // `cat` echoes the request verbatim: a well-formed frame whose
        // body is *not* a valid response (no `results`). The ladder
        // must treat it as poison and degrade.
        let cmd = WorkerCommand::new("/bin/cat", &[]);
        let input = jobs(4);
        let (results, stats) = run_jobs(&input, &cmd, 1, &fast_cfg(), &mut echo_fallback, None);
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.get("echo").is_some()));
        assert_eq!(stats.fallback_chunks, 2);
    }

    #[test]
    fn hung_worker_times_out_and_degrades() {
        let cmd = WorkerCommand::new("/bin/sleep", &["30"]);
        let input = jobs(2);
        let (results, stats) = run_jobs(&input, &cmd, 1, &fast_cfg(), &mut echo_fallback, None);
        assert_eq!(results.len(), 2);
        assert_eq!(stats.fallback_chunks, 1);
        assert!(stats.worker_restarts >= 1);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn timed_out_workers_are_killed_and_reaped() {
        // Each worker records its pid, then hangs. Once `run_jobs`
        // returns, every one of them must be gone: killed, and waited
        // for, so not even a zombie keeps its `/proc` entry.
        let pids = std::env::temp_dir().join(format!("ehp-pool-reap-{}.pids", std::process::id()));
        let _ = std::fs::remove_file(&pids);
        let script = format!("echo $$ >> '{}'; exec sleep 30", pids.display());
        let cmd = WorkerCommand::new("/bin/sh", &["-c", &script]);
        let (_, stats) = run_jobs(&jobs(2), &cmd, 1, &fast_cfg(), &mut echo_fallback, None);
        let recorded = std::fs::read_to_string(&pids).expect("workers recorded their pids");
        let _ = std::fs::remove_file(&pids);
        let recorded: Vec<&str> = recorded.lines().collect();
        assert_eq!(recorded.len() as u64, stats.worker_spawns, "{recorded:?}");
        for pid in recorded {
            assert!(
                !std::path::Path::new(&format!("/proc/{pid}")).exists(),
                "worker {pid} outlived the pool"
            );
        }
    }

    #[test]
    fn unspawnable_program_degrades_without_retring_forever() {
        let cmd = WorkerCommand::new("/nonexistent/worker", &[]);
        let input = jobs(5);
        let (results, stats) = run_jobs(&input, &cmd, 3, &fast_cfg(), &mut echo_fallback, None);
        assert_eq!(results.len(), 5);
        assert_eq!(stats.fallback_chunks, 2);
        assert_eq!(stats.worker_spawns, 0);
    }

    #[test]
    fn on_chunk_streams_every_completed_chunk() {
        let cmd = WorkerCommand::new("/bin/false", &[]);
        let input = jobs(7);
        let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let cb = |start: usize, results: &[Json]| {
            assert!(!results.is_empty());
            seen.lock().unwrap().push(start);
        };
        let (_, stats) = run_jobs(&input, &cmd, 2, &fast_cfg(), &mut echo_fallback, Some(&cb));
        let mut starts = seen.into_inner().unwrap();
        starts.sort_unstable();
        assert_eq!(starts, vec![0, 3, 6]);
        assert_eq!(stats.chunks, 3);
    }

    #[test]
    fn empty_jobs_short_circuit() {
        let cmd = WorkerCommand::new("/bin/false", &[]);
        let (results, stats) = run_jobs(
            &[],
            &cmd,
            2,
            &PoolConfig::default(),
            &mut echo_fallback,
            None,
        );
        assert!(results.is_empty());
        assert_eq!(stats, PoolStats::default());
    }
}
