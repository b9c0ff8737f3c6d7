//! Serving-layer bench (DESIGN.md §12): cold vs warm result-cache
//! batches, the cache-key hashing loop, and the frame codec. CI gates
//! the cache benches against `crates/bench/baselines/serve.json` —
//! a warm batch regressing toward cold cost means the cache stopped
//! paying for itself. The worker-pool records are deliberately *not*
//! in the baseline: process spawn cost is OS noise, not model perf.
//!
//! Regenerate after intentional perf changes with:
//! `cargo bench --bench serve -- --save-baseline crates/bench/baselines/serve.json`
//! (then drop the `serve_pool/*` records before committing).

use std::fs;
use std::path::{Path, PathBuf};

use ehp_bench::microbench::Bench;
use ehp_harness::executor::resolve_seeds;
use ehp_harness::scenario::Scenario;
use ehp_harness::serving::{run_batch_served, scenario_key, ServingConfig};
use ehp_serve::frame::{read_frame, write_frame};
use ehp_serve::pool::WorkerCommand;
use ehp_sim_core::json::Json;

const SCENARIOS: usize = 16;

/// Sixteen distinct scenarios of the cheapest paper experiment (Figure
/// 16's chiplet swap, ~20 µs): the batch cost stays cache-bound. Names
/// differ, so seeds and cache keys do too.
fn batch() -> Vec<Scenario> {
    (0..SCENARIOS)
        .map(|i| {
            let mut sc = Scenario::default_for("figure16");
            sc.name = format!("bench{i:02}");
            sc
        })
        .collect()
}

fn bench_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp/serve-bench")
        .join(name)
}

fn cached_cfg(dir: &Path) -> ServingConfig {
    ServingConfig {
        cache_dir: dir.to_path_buf(),
        ..ServingConfig::default()
    }
}

/// Cold batch: empty cache every iteration, so the cost is execute +
/// store. Warm batch: primed cache, so the cost is lookup + decode.
/// The byte-identity contract is asserted outside the timed region.
fn bench_cache(b: &mut Bench) {
    let scenarios = batch();
    let dir = bench_dir("cache");

    let _ = fs::remove_dir_all(&dir);
    let cold = run_batch_served(&scenarios, &cached_cfg(&dir));
    assert_eq!(cold.cache.misses as usize, SCENARIOS);
    let warm = run_batch_served(&scenarios, &cached_cfg(&dir));
    assert_eq!(warm.cache.hits as usize, SCENARIOS);
    assert_eq!(
        cold.result.summary_json().to_string_compact(),
        warm.result.summary_json().to_string_compact(),
        "warm summary must be byte-identical to cold"
    );

    b.run("serve_cache/cold", || {
        let _ = fs::remove_dir_all(&dir);
        run_batch_served(&scenarios, &cached_cfg(&dir)).cache.stores
    });
    // Re-prime after the last cold iteration left stores behind anyway.
    let _ = run_batch_served(&scenarios, &cached_cfg(&dir));
    b.run("serve_cache/warm", || {
        run_batch_served(&scenarios, &cached_cfg(&dir)).cache.hits
    });
}

/// The fenced FNV-1a key derivation over canonical scenario JSON — the
/// per-scenario fixed cost every cached batch pays even on a full hit.
fn bench_key(b: &mut Bench) {
    let resolved = resolve_seeds(&batch(), 0);
    b.run("serve_key/derive16", || {
        let mut acc = 0u64;
        for sc in &resolved {
            acc ^= scenario_key(sc);
        }
        acc
    });
}

/// Length-prefixed frame codec round trip on an outcome-sized payload —
/// the per-chunk protocol overhead of the worker pool and the daemon.
fn bench_frame(b: &mut Bench) {
    let payload = Json::object([
        ("id", Json::from(7u64)),
        (
            "results",
            Json::array((0..8).map(|i| {
                Json::object([
                    ("scenario", Json::from(format!("bench{i:02}"))),
                    ("status", Json::from("ok")),
                    ("checksum", Json::from(0x001f_ffff_ffff_ffffu64)),
                ])
            })),
        ),
    ]);
    b.run("serve_frame/roundtrip", || {
        let mut buf = Vec::with_capacity(1024);
        write_frame(&mut buf, &payload).unwrap();
        let mut r: &[u8] = &buf;
        read_frame(&mut r).unwrap()
    });
}

/// Worker pool vs in-process, unbaselined (spawn cost is environment
/// noise): printed for eyeballing the pool's break-even point. Skipped
/// when the release `ehp` binary has not been built yet.
fn bench_pool(b: &mut Bench) {
    let ehp = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/release/ehp");
    if !ehp.exists() {
        println!("serve_pool: skipped (build target/release/ehp first)");
        return;
    }
    let scenarios = batch();
    let cfg = ServingConfig {
        use_cache: false,
        ..ServingConfig::default()
    };
    b.run("serve_pool/inprocess", || {
        run_batch_served(&scenarios, &cfg).result.ok_count()
    });
    let cfg = ServingConfig {
        use_cache: false,
        workers: 2,
        worker_cmd: Some(WorkerCommand::new(&ehp, &["worker"])),
        ..ServingConfig::default()
    };
    b.run("serve_pool/workers2", || {
        run_batch_served(&scenarios, &cfg).result.ok_count()
    });
}

fn main() {
    let mut b = Bench::from_args(5);
    bench_cache(&mut b);
    bench_key(&mut b);
    bench_frame(&mut b);
    bench_pool(&mut b);
    std::process::exit(b.finish());
}
