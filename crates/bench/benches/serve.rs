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

use ehp_bench::microbench::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
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
fn bench_cache(c: &mut Criterion) {
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

    let mut g = c.benchmark_group("serve_cache");
    g.bench_with_input(
        BenchmarkId::from_parameter("cold"),
        &scenarios,
        |b, scenarios| {
            b.iter(|| {
                let _ = fs::remove_dir_all(&dir);
                black_box(run_batch_served(scenarios, &cached_cfg(&dir)).cache.stores)
            });
        },
    );
    // Re-prime after the last cold iteration left stores behind anyway.
    let _ = run_batch_served(&scenarios, &cached_cfg(&dir));
    g.bench_with_input(
        BenchmarkId::from_parameter("warm"),
        &scenarios,
        |b, scenarios| {
            b.iter(|| black_box(run_batch_served(scenarios, &cached_cfg(&dir)).cache.hits));
        },
    );
    g.finish();
}

/// The fenced FNV-1a key derivation over canonical scenario JSON — the
/// per-scenario fixed cost every cached batch pays even on a full hit.
fn bench_key(c: &mut Criterion) {
    let resolved = resolve_seeds(&batch(), 0);
    c.bench_function("serve_key/derive16", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for sc in &resolved {
                acc ^= scenario_key(sc);
            }
            black_box(acc)
        });
    });
}

/// Length-prefixed frame codec round trip on an outcome-sized payload —
/// the per-chunk protocol overhead of the worker pool and the daemon.
fn bench_frame(c: &mut Criterion) {
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
    c.bench_function("serve_frame/roundtrip", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(1024);
            write_frame(&mut buf, &payload).unwrap();
            let mut r: &[u8] = &buf;
            black_box(read_frame(&mut r).unwrap())
        });
    });
}

/// Worker pool vs in-process, unbaselined (spawn cost is environment
/// noise): printed for eyeballing the pool's break-even point. Skipped
/// when the release `ehp` binary has not been built yet.
fn bench_pool(c: &mut Criterion) {
    let ehp = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/release/ehp");
    if !ehp.exists() {
        println!("serve_pool: skipped (build target/release/ehp first)");
        return;
    }
    let scenarios = batch();
    let mut g = c.benchmark_group("serve_pool");
    g.bench_with_input(
        BenchmarkId::from_parameter("inprocess"),
        &scenarios,
        |b, scenarios| {
            let cfg = ServingConfig {
                use_cache: false,
                ..ServingConfig::default()
            };
            b.iter(|| black_box(run_batch_served(scenarios, &cfg).result.ok_count()));
        },
    );
    g.bench_with_input(
        BenchmarkId::from_parameter("workers2"),
        &scenarios,
        |b, scenarios| {
            let cfg = ServingConfig {
                use_cache: false,
                workers: 2,
                worker_cmd: Some(WorkerCommand::new(&ehp, &["worker"])),
                ..ServingConfig::default()
            };
            b.iter(|| black_box(run_batch_served(scenarios, &cfg).result.ok_count()));
        },
    );
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(5);
    targets = bench_cache, bench_key, bench_frame, bench_pool
}
criterion_main!(benches);
