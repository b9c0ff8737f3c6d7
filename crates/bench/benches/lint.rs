//! Lint wall-time bench: one uncached, serial `lint_workspace` over this
//! repository with the registry's scenario schemas, the analysis
//! `ehp lint --no-cache` runs. The abstract interpreter re-runs its
//! summary fixpoint on every lint, so this gate keeps a new analysis
//! layer from silently blowing up CI time.
//!
//! Outside the timed region the workspace is linted once and must have
//! no unwaived finding, so a broken tree fails loudly instead of being
//! timed.
//!
//! CI gates this bench against `crates/bench/baselines/lint.json` with
//! `--threshold 2.0`: a run fails above three times the baseline
//! minimum, scaled to this machine's speed (see ci.sh). Regenerate with
//! `cargo bench --bench lint -- --save-baseline crates/bench/baselines/lint.json`.

use std::path::Path;

use ehp_bench::microbench::{black_box, criterion_group, criterion_main, Criterion};
use ehp_harness::registry;
use ehp_lint::{find_workspace_root, lint_workspace, LintConfig};

fn bench_lint(c: &mut Criterion) {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("the bench crate sits inside the workspace");
    let schemas = registry::schemas();
    let cfg = LintConfig {
        root,
        schemas: &schemas,
        use_cache: false,
        jobs: 1,
    };

    let report = lint_workspace(&cfg).expect("lint the workspace");
    assert_eq!(
        report.unwaived_count(),
        0,
        "the workspace has unwaived lint findings; refusing to time them"
    );

    c.bench_function("lint/workspace", |b| {
        b.iter(|| black_box(lint_workspace(&cfg).expect("lint the workspace")));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_lint
}
criterion_main!(benches);
