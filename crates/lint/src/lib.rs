//! `ehp-lint`: the in-repo determinism & hot-path static analyzer
//! (DESIGN.md §10–§11).
//!
//! The simulator's headline guarantee — byte-identical `run_summary.json`
//! for a given seed, regardless of thread count — is carried by coding
//! invariants that `rustc` cannot check: no hash-order iteration feeding
//! results, no wall-clock reads in sim code, no allocation in (or
//! reachable from) the fenced hot paths, no shared mutable captures in
//! worker closures, no nondeterminism reaching summary emission, no
//! lock-order cycles, no correlated placement selectors, and scenario
//! specs that match their experiment's parameter schema. This crate
//! checks them, offline, with its own lightweight tokenizer and item
//! parser (the same zero-dependency philosophy as `ehp_sim_core::json`).
//!
//! | rule              | code | invariant                                        |
//! |-------------------|------|--------------------------------------------------|
//! | `hash-iter`       | D1   | no `HashMap`/`HashSet` iteration in sim crates   |
//! | `wall-clock`      | D2   | no `Instant::now`/`SystemTime` outside bench, the executor and serving |
//! | `hot-path-reach`  | H2   | no allocation in or reachable from fences        |
//! | `thread-capture`  | R1   | no shared mutable capture in spawn closures      |
//! | `nondet-taint`    | N1   | no nondeterminism reaches summary/merge sinks    |
//! | `lock-order`      | L3   | no cycles in the lock acquisition-order graph    |
//! | `correlated-selectors` | B1 | placement selectors use disjoint address lanes |
//! | `scenario-schema` | S1   | `scenarios/*.json` match experiment schemas      |
//!
//! Each file is tokenized once into tokens that borrow the source text
//! ([`tokenizer`]). D1, D2, and R1 are single-file rules and cache
//! per file (content-hash keyed, `target/lint-cache.json`; with the
//! cache off nothing is hashed or built); H2, N1, L3, and the
//! bit-provenance rule B1 walk the workspace call graph (and
//! the [`absint`] lane summaries, which re-evaluate a function only
//! when a callee's summary changed) built from the per-file indexes
//! and are recomputed every run, as are S1 and the waiver file. A cold
//! run fans the per-file work out across threads ([`LintConfig::jobs`])
//! and merges by file index, so the report is byte-identical across
//! serial, parallel, and cached runs.
//!
//! Entry point: [`lint_workspace`]. The `ehp lint` CLI subcommand (in
//! `ehp-harness`, which owns the experiment registry and therefore the
//! schemas) is a thin wrapper around it. Units of measure are not a
//! lint rule: the `ehp-sim-core` newtypes (`Cycle`, `SimTime`, `Bytes`,
//! `Bandwidth`) let the compiler check them.

pub mod absint;
pub mod cache;
pub mod callgraph;
pub mod findings;
pub mod parse;
pub mod rules;
pub mod schema;
pub mod tokenizer;
pub mod waiver;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use findings::{Finding, Rule};
pub use parse::FileIndex;
pub use schema::{ExperimentSchema, ParamKind, ParamSpec};

/// Name of the file-level waiver file at the workspace root.
pub const WAIVER_FILE: &str = "lint.waivers";

/// Cache location relative to the workspace root.
pub(crate) const CACHE_REL_PATH: &str = "target/lint-cache.json";

/// What to lint and against which schemas.
#[derive(Debug)]
pub struct LintConfig<'a> {
    /// Workspace root (the directory holding `crates/` and `scenarios/`).
    pub root: PathBuf,
    /// Experiment parameter schemas for S1 (from the harness registry).
    pub schemas: &'a [ExperimentSchema],
    /// Use (and refresh) the incremental cache at `CACHE_REL_PATH`.
    pub use_cache: bool,
    /// Worker threads for the cold (cache-miss) per-file analysis:
    /// `1` = serial, `0` = one per core, `n` = exactly `n`. The merge
    /// is by file index either way, so the report bytes never depend
    /// on this.
    pub jobs: usize,
}

/// The result of linting a workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Every finding, deterministically ordered; waived ones carry their
    /// reason and do not fail the build.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of scenario specs validated.
    pub scenarios_scanned: usize,
    /// Files whose single-file findings and index came from the cache.
    pub cache_hits: usize,
    /// Files that were (re-)tokenized and analyzed this run.
    pub cache_misses: usize,
}

impl LintReport {
    /// Findings not covered by a waiver — these fail the build.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.waived.is_none())
    }

    /// Count of unwaived findings.
    #[must_use]
    pub fn unwaived_count(&self) -> usize {
        self.unwaived().count()
    }

    /// Count of waived findings.
    #[must_use]
    pub fn waived_count(&self) -> usize {
        self.findings.len() - self.unwaived_count()
    }

    /// Machine-readable report (stable key order via `Json`'s BTreeMap).
    /// Cache hit/miss counters are deliberately excluded: a cached run
    /// must produce a byte-identical report to an uncached one.
    #[must_use]
    pub fn to_json(&self) -> ehp_sim_core::json::Json {
        use ehp_sim_core::json::Json;
        Json::object([
            ("files_scanned", Json::from(self.files_scanned as u64)),
            (
                "scenarios_scanned",
                Json::from(self.scenarios_scanned as u64),
            ),
            ("unwaived", Json::from(self.unwaived_count() as u64)),
            ("waived", Json::from(self.waived_count() as u64)),
            (
                "findings",
                Json::array(self.findings.iter().map(Finding::to_json)),
            ),
        ])
    }
}

/// Finds the workspace root by walking up from `start` until a directory
/// holding both `Cargo.toml` and `crates/` appears.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d);
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Lints a set of in-memory sources: every single-file rule plus the
/// cross-file H2 reachability and N1 taint passes, with inline waivers
/// applied. The pure core of [`lint_workspace`], used directly by
/// tests.
#[must_use]
pub fn lint_sources(sources: &[(&str, &str)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut indexes: Vec<(String, FileIndex)> = Vec::new();
    for (path, text) in sources {
        let a = rules::analyze(path, text);
        findings.extend(a.findings);
        indexes.push(((*path).to_string(), a.index));
    }
    append_reachability(&mut findings, &indexes);
    findings::sort_dedup(&mut findings);
    findings
}

/// Runs the cross-file passes (H2 allocation reachability, N1 nondet
/// taint, B1 bit-provenance, L3 lock-order) over the per-file
/// indexes and appends their findings, applying each root file's
/// inline waivers.
fn append_reachability(findings: &mut Vec<Finding>, indexes: &[(String, FileIndex)]) {
    let mut cross = callgraph::check_reachable_allocs(indexes);
    cross.append(&mut callgraph::check_nondet_taint(indexes));
    cross.append(&mut absint::check_lanes(indexes));
    cross.append(&mut absint::check_lock_order(indexes));
    for f in &mut cross {
        if let Some((_, index)) = indexes.iter().find(|(p, _)| *p == f.path) {
            waiver::apply_inline(std::slice::from_mut(f), &index.waivers);
        }
    }
    findings.append(&mut cross);
}

/// Lints every `crates/*/src/**/*.rs` file and every `scenarios/*.json`
/// under `config.root`, applies inline and file-level waivers, and
/// returns the deterministic report.
///
/// With `config.use_cache`, unchanged files (by content hash) replay
/// their cached findings and index without re-tokenizing; the refreshed
/// cache is written back to `target/lint-cache.json` best-effort.
/// Without it, no file is hashed and no cache is built. The report is
/// byte-identical either way.
///
/// # Errors
/// Propagates I/O errors from walking the tree or reading files.
pub fn lint_workspace(config: &LintConfig) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    let cache_path = config.root.join(CACHE_REL_PATH);
    // Without the cache there is nothing to probe or refresh: no
    // content hash, no cache entry, no index copy.
    let old_cache = config
        .use_cache
        .then(|| cache::LintCache::load(&cache_path));
    let mut new_cache = config.use_cache.then(cache::LintCache::default);

    // Source files: crates/*/src/**/*.rs, crate and file order sorted so
    // the report (and the call-graph walk) is byte-stable.
    let mut rs_files: Vec<PathBuf> = Vec::new();
    for krate in sorted_entries(&config.root.join("crates"))? {
        let src = krate.join("src");
        if src.is_dir() {
            collect_rs(&src, &mut rs_files)?;
        }
    }
    // Phase 1 (serial): read every file; with the cache, hash it and
    // probe the cache (the hash stays 0, unused, without).
    let mut scanned: Vec<(String, String, u64, Option<cache::CacheEntry>)> = Vec::new();
    for path in &rs_files {
        let rel = rel_path(&config.root, path);
        let text = fs::read_to_string(path)?;
        let (hash, hit) = match &old_cache {
            Some(old) => {
                let hash = cache::content_hash(&text);
                (hash, old.lookup(&rel, hash).cloned())
            }
            None => (0, None),
        };
        scanned.push((rel, text, hash, hit));
    }

    // Phase 2: analyze the cache misses, fanning out across worker
    // threads when more than one is requested. Each worker owns a
    // contiguous slice of result slots, and the merge below walks files
    // in index order — the report is byte-identical to a serial run.
    let misses: Vec<usize> = scanned
        .iter()
        .enumerate()
        .filter(|(_, s)| s.3.is_none())
        .map(|(i, _)| i)
        .collect();
    let jobs = match config.jobs {
        // lint:order-invisible worker count only partitions the cold file list; the merge below folds results in file-index order
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(misses.len())
    .max(1);
    let mut fresh: Vec<Option<rules::Analysis>> = Vec::new();
    fresh.resize_with(misses.len(), || None);
    if jobs <= 1 {
        for (slot, &mi) in fresh.iter_mut().zip(&misses) {
            *slot = Some(rules::analyze(&scanned[mi].0, &scanned[mi].1));
        }
    } else {
        let chunk = misses.len().div_ceil(jobs);
        let scanned = &scanned;
        std::thread::scope(|scope| {
            for (mchunk, schunk) in misses.chunks(chunk).zip(fresh.chunks_mut(chunk)) {
                scope.spawn(move || {
                    for (slot, &mi) in schunk.iter_mut().zip(mchunk) {
                        *slot = Some(rules::analyze(&scanned[mi].0, &scanned[mi].1));
                    }
                });
            }
        });
    }

    // Phase 3 (serial): merge hits and fresh analyses in file order.
    let mut fresh_by_file: std::collections::BTreeMap<usize, rules::Analysis> = misses
        .iter()
        .zip(fresh)
        .map(|(&mi, a)| (mi, a.expect("every miss slot is filled")))
        .collect();
    let mut indexes: Vec<(String, FileIndex)> = Vec::new();
    for (i, (rel, _, hash, hit)) in scanned.into_iter().enumerate() {
        let cache = new_cache.as_mut();
        if let Some(e) = hit {
            report.cache_hits += 1;
            report.findings.extend(e.findings.iter().cloned());
            indexes.push((rel.clone(), e.index.clone()));
            if let Some(cache) = cache {
                cache.entries.insert(rel, e);
            }
        } else {
            report.cache_misses += 1;
            let a = fresh_by_file.remove(&i).expect("miss index is present");
            if let Some(cache) = cache {
                report.findings.extend(a.findings.iter().cloned());
                cache.entries.insert(
                    rel.clone(),
                    cache::CacheEntry {
                        hash,
                        findings: a.findings,
                        index: a.index.clone(),
                    },
                );
            } else {
                report.findings.extend(a.findings);
            }
            indexes.push((rel, a.index));
        }
        report.files_scanned += 1;
    }

    // Cross-file passes: H2 reachability, N1 taint, B1 lanes, and
    // L3 lock-order over the graph.
    append_reachability(&mut report.findings, &indexes);

    // Scenario specs.
    let scen_dir = config.root.join("scenarios");
    if scen_dir.is_dir() {
        for path in sorted_entries(&scen_dir)? {
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let rel = rel_path(&config.root, &path);
            let text = fs::read_to_string(&path)?;
            report
                .findings
                .append(&mut schema::validate_scenario(&rel, &text, config.schemas));
            report.scenarios_scanned += 1;
        }
    }

    // File-level waivers; stale entries are findings so the file can't rot.
    let waiver_path = config.root.join(WAIVER_FILE);
    if waiver_path.is_file() {
        let text = fs::read_to_string(&waiver_path)?;
        let (waivers, mut errs) = waiver::parse_waiver_file(&text);
        report.findings.append(&mut errs);
        for idx in waiver::apply_file(&mut report.findings, &waivers) {
            report.findings.push(Finding::new(
                Rule::Waiver,
                WAIVER_FILE,
                0,
                format!(
                    "stale waiver: `{} {}` matches no finding — delete it",
                    waivers[idx].rule.name(),
                    waivers[idx].path
                ),
            ));
        }
    }

    findings::sort_dedup(&mut report.findings);
    if let Some(cache) = new_cache {
        // Best-effort: a read-only target dir must not fail the lint.
        let _ = cache.save(&cache_path);
    }
    Ok(report)
}

/// Directory entries sorted by name (empty if the directory is missing).
fn sorted_entries(dir: &Path) -> io::Result<Vec<PathBuf>> {
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut out: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    out.sort();
    Ok(out)
}

/// Recursively collects `.rs` files under `dir`, sorted.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for path in sorted_entries(dir)? {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (stable across hosts).
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}
