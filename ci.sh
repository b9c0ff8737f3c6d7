#!/usr/bin/env bash
# Offline-friendly CI for ehp-sim: build, test, lint, and the
# shape-fidelity gate. Every step uses only the vendored toolchain —
# no network access is required or attempted (--offline everywhere).
#
# fmt/clippy degrade to warnings when the components are not installed
# so the script stays useful on minimal toolchains; build, test, and
# `ehp check` failures are always fatal.
set -u

cd "$(dirname "$0")"

failures=0
step() {
    echo
    echo "=== $1 ==="
    shift
    if "$@"; then
        echo "--- ok"
    else
        echo "--- FAILED: $*"
        failures=$((failures + 1))
    fi
}

step "build (release)" cargo build --release --offline
step "tests" cargo test -q --offline

# The benchmark harness (perfsuite/, its own Cargo workspace with path
# deps on crates/*) builds against the crates' public API: building and
# testing it here makes an API change that breaks the benchmark fail CI.
step "perfsuite tests" cargo test --release --offline --manifest-path perfsuite/Cargo.toml

# The benchmark's outputs are pinned too: each workload's run at seed 11
# prints one `digest …` line on stdout (a hash of its run summary or lint
# report), which must appear in tests/golden/perfsuite_digests.txt. A
# change that moves a digest by design re-saves that line and says so.
for workload in paper_suite mem_rw_sweep lint_corpus; do
    step "perfsuite digest $workload" sh -c "
        line=\$(cargo run --release --offline --quiet --manifest-path perfsuite/Cargo.toml -- \
            --workload $workload --seed 11 --seconds 1 --trace 0 | grep '^digest $workload ') &&
        grep -qxF \"\$line\" tests/golden/perfsuite_digests.txt"
done

# Determinism & hot-path static analysis (DESIGN.md §10–§11, §15):
# fails on any unwaived finding — hash-order iteration (D1), wall-clock
# reads (D2), allocations inside (or reachable from) `// lint:hot-path`
# fences (H2), shared-mutable spawn captures (R1), nondeterminism taint
# reaching summary emission (N1), lock-order cycles (L3), correlated
# placement selectors over the bit-provenance lattice (B1, DESIGN.md
# §16), or scenario specs that don't match their experiment's parameter
# schema (S1). Units of measure are checked by the compiler through the
# sim-core newtypes, not the lint.
#
# The lint runs twice through its incremental cache: the cold run
# (parallel, --jobs 0) re-analyzes every file, the warm run must hit
# the cache for all of them and reproduce the JSON report byte-for-byte
# — worker count, cache state, and report bytes are required to be
# mutually invisible. The lint's wall time is gated by the lint perf
# smoke below, not here.
mkdir -p target/figures
step "ehp lint (cold, parallel)" sh -c '
    rm -f target/lint-cache.json &&
    ./target/release/ehp lint --json --jobs 0 > target/lint_report.cold.json'
step "ehp lint (warm)" sh -c \
    './target/release/ehp lint --json > target/figures/lint_report.json'
step "warm lint report byte-identical" \
    cmp target/lint_report.cold.json target/figures/lint_report.json
step "warm lint re-analyzed nothing" sh -c '
    ./target/release/ehp lint > target/lint_human.txt &&
    grep -q ", 0 miss(es)" target/lint_human.txt'

if cargo fmt --version >/dev/null 2>&1; then
    step "rustfmt" cargo fmt --all -- --check
else
    echo "(skipping rustfmt: component not installed)"
fi

if cargo clippy --version >/dev/null 2>&1; then
    step "clippy" cargo clippy --workspace --all-targets --offline -- -D warnings
else
    echo "(skipping clippy: component not installed)"
fi

step "benches compile" cargo build --benches --offline

# Rustdoc must build warning-free: a deleted or renamed item can no
# longer leave a dangling intra-doc link behind. Private items are
# documented too, so the links in `pub(crate)` docs stay checked.
step "rustdoc" env RUSTDOCFLAGS="-D warnings" \
    cargo doc --workspace --no-deps --document-private-items --offline

# Every example under examples/ must run to completion, not just
# compile: a panicking example fails CI. Stdout is discarded; a panic
# message still reaches the log on stderr.
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    step "example $name" sh -c \
        "cargo run --release --offline -q -p ehp-bench --example $name > /dev/null"
done

# Perf smoke: the sharded-replay bench must stay within 30% of the
# checked-in baseline (machine-speed differences are normalised by the
# calibration loop saved alongside the baseline; see
# crates/bench/src/microbench.rs). Includes the replay_hot_skew/* cases
# (a single-granule hot set that piles ~90% of the trace onto one flat
# bank): those gate the work-stealing scheduler — a regression to
# static partitioning serialises them on one worker and trips the
# threshold at jobs > 1. Regenerate after intentional perf
# changes with:
#   cargo bench --bench replay -- --save-baseline crates/bench/baselines/replay.json
step "perf smoke (replay)" cargo bench --offline --bench replay -- \
    --baseline crates/bench/baselines/replay.json --threshold 0.30

# Same gate for the fabric hot path (dense-index route table + solver,
# DESIGN.md §9). The bench itself also hard-asserts that the dense
# solver stays >= 2x the pre-refactor reference and byte-identical to it.
# Regenerate after intentional perf changes with:
#   cargo bench --bench fabric -- --save-baseline crates/bench/baselines/fabric.json
step "perf smoke (fabric)" cargo bench --offline --bench fabric -- \
    --baseline crates/bench/baselines/fabric.json --threshold 0.30

# Same gate for the serving layer (DESIGN.md §12): cold/warm cache
# batches, cache-key derivation, and the frame codec. The threshold is
# looser than the compute benches because the cold path is filesystem
# bound. Regenerate with:
#   cargo bench --bench serve -- --save-baseline crates/bench/baselines/serve.json
# (then drop the serve_pool/* records — spawn cost is OS noise).
step "perf smoke (serve)" cargo bench --offline --bench serve -- \
    --baseline crates/bench/baselines/serve.json --threshold 0.50

# Same gate for the thermal solver (Figure 12(b)/(c) and the power
# loop): residual-stopped red-black SOR at 35×28, 70×56 and 140×112.
# Regenerate with:
#   cargo bench --bench thermal -- --save-baseline crates/bench/baselines/thermal.json
step "perf smoke (thermal)" cargo bench --offline --bench thermal -- \
    --baseline crates/bench/baselines/thermal.json --threshold 0.30

# Same gate for the lint: one uncached, serial `lint_workspace` over the
# repo. The abstract interpreter re-runs its summary fixpoint every
# lint, so this keeps the analysis from silently blowing up CI time. The
# threshold allows three times the baseline minimum: the gate exists to
# catch order-of-magnitude blowups from new analysis layers, not
# scheduler jitter. Regenerate after intentional analysis growth with:
#   cargo bench --bench lint -- --save-baseline crates/bench/baselines/lint.json
step "perf smoke (lint)" cargo bench --offline --bench lint -- \
    --baseline crates/bench/baselines/lint.json --threshold 2.0

# Whole-suite wall-time gate: the `ehp all` path end to end, the first
# full-suite speed baseline. Looser threshold: it aggregates every
# experiment, so it moves with legitimate feature growth — bump the
# baseline deliberately when a change is supposed to add work:
#   cargo bench --bench suite -- --save-baseline crates/bench/baselines/suite.json
step "perf smoke (suite)" cargo bench --offline --bench suite -- \
    --baseline crates/bench/baselines/suite.json --threshold 0.50

# Shape-fidelity gate: every experiment runs, and headline metrics stay
# inside the committed expected ranges (see crates/harness/src/check.rs).
# The batch runs twice through the result cache (DESIGN.md §12): the
# cold run executes and stores every scenario, the warm run must replay
# all of them without re-executing anything ("misses": 0) and reproduce
# run_summary.json byte-for-byte.
step "ehp all (cold cache)" sh -c '
    rm -rf target/result-cache &&
    ./target/release/ehp all --jobs 8 --quiet &&
    cp target/figures/run_summary.json target/run_summary.cold.json'
# Output pinned across commits: the cold summary must equal the
# committed golden file. A change that moves bytes by design re-saves
# it (cp target/run_summary.cold.json tests/golden/run_summary.json)
# and names the metrics that moved in CHANGES.md.
step "ehp all summary matches tests/golden" \
    cmp target/run_summary.cold.json tests/golden/run_summary.json
# The same pin for every per-experiment artifact: the 20 payloads
# target/figures/<id>.json and the 21 reports target/figures/<id>.txt
# must match the committed listing, so a change that moves a report or
# a payload but not the summary still fails. A change that moves them by
# design re-saves the listing (from the repo root):
#   (cd target/figures && ls *.json *.txt | grep -v -e run_summary -e lint_report \
#       -e run_timing -e cache_stats | sort | xargs sha256sum) |
#       sed 's#  #  target/figures/#' > tests/golden/figures.sha256
step "ehp all figures match tests/golden" \
    sha256sum --check --quiet tests/golden/figures.sha256
step "ehp all (warm cache)" ./target/release/ehp all --jobs 8 --quiet
step "warm summary byte-identical" \
    cmp target/run_summary.cold.json target/figures/run_summary.json
step "warm figures match tests/golden" \
    sha256sum --check --quiet tests/golden/figures.sha256
step "warm run re-executed nothing" \
    grep -q '"misses": 0' target/figures/cache_stats.json

# Determinism across parallelism: one thread and a two-process worker
# pool, both uncached, must reproduce the --jobs 8 summary byte for byte.
step "ehp all --jobs 1 byte-identical" sh -c '
    ./target/release/ehp all --jobs 1 --no-result-cache --quiet &&
    cmp target/run_summary.cold.json target/figures/run_summary.json'
step "ehp all --workers 2 byte-identical" sh -c '
    ./target/release/ehp all --workers 2 --no-result-cache --quiet &&
    cmp target/run_summary.cold.json target/figures/run_summary.json'
step "ehp check" ./target/release/ehp check

# The checked-in scenario specs are the users that keep the ic_sweep and
# figure13 parameters settable (DESIGN.md §5), so each one must run, not
# only pass S1. Their figures go to their own directory so the golden
# ones above stay untouched.
for spec in scenarios/*.json; do
    step "spec $(basename "$spec" .json)" env EHP_FIGURES_DIR=target/spec-figures \
        ./target/release/ehp run --spec "$spec" --no-result-cache --quiet
done

echo
if [ "$failures" -ne 0 ]; then
    echo "CI: $failures step(s) failed"
    exit 1
fi
echo "CI: all steps passed"
