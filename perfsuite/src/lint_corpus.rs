//! `lint_corpus`: one op is `ehp_lint::lint_workspace` with the cache
//! off and one job — `ehp lint --no-cache` — over a workspace that
//! [`crate::corpus`] generates from the seed during set-up.
//!
//! Gate: every planted violation is reported at its file:line, files
//! without a plant report nothing, and the report bytes equal the
//! warm-up op's.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ehp_lint::{absint, cache, callgraph, findings, rules, tokenizer, waiver};
use ehp_lint::{FileIndex, LintConfig, LintReport};

use crate::corpus::{self, Corpus};
use crate::{add, ms_since, timed, Sample, Workload};

pub struct LintCorpus {
    corpus: Corpus,
    root: PathBuf,
    /// Report bytes of the warm-up op.
    reference: String,
    findings: usize,
}

fn lint(root: &Path) -> Result<LintReport, String> {
    ehp_lint::lint_workspace(&LintConfig {
        root: root.to_path_buf(),
        schemas: &[],
        use_cache: false,
        jobs: 1,
    })
    .map_err(|e| format!("lint_workspace: {e}"))
}

/// Every `.rs` file under `dir`, in the sorted order `lint_workspace`
/// walks them.
fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

impl Workload for LintCorpus {
    const NAME: &'static str = "lint_corpus";
    const LAYER_METRICS: &'static [(&'static str, &'static str)] = &[
        ("lint.tokenize_ms", "ms"),
        ("lint.analyze_ms", "ms"),
        ("lint.h2_ms", "ms"),
        ("lint.n1_ms", "ms"),
        ("lint.absint_ms", "ms"),
        ("lint.l3_ms", "ms"),
        ("lint.io_ms", "ms"),
        ("lint.files", "count"),
        ("lint.tokens", "count"),
        ("lint.findings", "count"),
        ("lint_corpus.op_ms", "ms"),
        ("lint_corpus.trace_overhead_ms", "ms"),
        ("lint_corpus.residual_ms", "ms"),
    ];
    const PARTS: &'static [&'static str] = &[
        "lint.analyze_ms",
        "lint.h2_ms",
        "lint.n1_ms",
        "lint.absint_ms",
        "lint.l3_ms",
        "lint.io_ms",
    ];

    fn setup(seed: u64, work: &Path) -> Result<LintCorpus, String> {
        let corpus = corpus::generate(seed);
        let root = work.join("corpus");
        corpus.write(&root).map_err(|e| e.to_string())?;
        let report = lint(&root)?;
        corpus.check(&report.findings)?;
        Ok(LintCorpus {
            reference: report.to_json().to_string_compact(),
            findings: report.findings.len(),
            corpus,
            root,
        })
    }

    fn op(&mut self) -> Result<f64, String> {
        let t = Instant::now();
        let report = lint(&self.root)?;
        let ms = ms_since(t);
        if report.to_json().to_string_compact() != self.reference {
            return Err("lint report differs from the warm-up op's".into());
        }
        Ok(ms)
    }

    /// `lint_workspace` with the cache off and no scenarios or waiver
    /// file, as separately timed phases. Like `lint_workspace`, it still
    /// builds the refreshed cache it would save.
    fn traced_op(&mut self, sample: &mut Sample) -> Result<f64, String> {
        let t = Instant::now();
        let mut paths = Vec::new();
        collect(&self.root.join("crates"), &mut paths).map_err(|e| e.to_string())?;
        // Read and hash every file, then analyze each, then merge in
        // file order while building the refreshed cache: the phases of
        // `lint_workspace`, which holds every text until the merge.
        let mut scanned = Vec::with_capacity(paths.len());
        for path in &paths {
            let rel = path
                .strip_prefix(&self.root)
                .map_err(|e| e.to_string())?
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let text = fs::read_to_string(path).map_err(|e| e.to_string())?;
            let hash = cache::content_hash(&text);
            scanned.push((rel, text, hash));
        }
        let mut phases = 0.0;
        let mut fresh = Vec::with_capacity(scanned.len());
        for (rel, text, _) in &scanned {
            let start = Instant::now();
            fresh.push(rules::analyze(rel, text));
            let ms = ms_since(start);
            add(sample, "lint.analyze_ms", ms);
            phases += ms;
        }
        let mut report = LintReport::default();
        let mut indexes: Vec<(String, FileIndex)> = Vec::new();
        let mut new_cache = cache::LintCache::default();
        for ((rel, _, hash), a) in scanned.into_iter().zip(fresh) {
            report.findings.extend(a.findings.iter().cloned());
            new_cache.entries.insert(
                rel.clone(),
                cache::CacheEntry {
                    hash,
                    findings: a.findings,
                    index: a.index.clone(),
                },
            );
            indexes.push((rel, a.index));
            report.files_scanned += 1;
            report.cache_misses += 1;
        }
        let mut cross = Vec::new();
        for (metric, pass) in [
            (
                "lint.h2_ms",
                callgraph::check_reachable_allocs as fn(&[(String, FileIndex)]) -> _,
            ),
            ("lint.n1_ms", callgraph::check_nondet_taint),
            ("lint.absint_ms", absint::check_lanes),
            ("lint.l3_ms", absint::check_lock_order),
        ] {
            let start = Instant::now();
            cross.append(&mut pass(&indexes));
            let ms = ms_since(start);
            add(sample, metric, ms);
            phases += ms;
        }
        for f in &mut cross {
            if let Some((_, index)) = indexes.iter().find(|(p, _)| *p == f.path) {
                waiver::apply_inline(std::slice::from_mut(f), &index.waivers);
            }
        }
        report.findings.append(&mut cross);
        if self.root.join("scenarios").exists() || self.root.join(ehp_lint::WAIVER_FILE).exists() {
            return Err("the corpus holds no scenarios or waiver file".into());
        }
        findings::sort_dedup(&mut report.findings);
        drop(new_cache);
        let ms = ms_since(t);
        add(sample, "lint.io_ms", ms - phases);
        if report.to_json().to_string_compact() != self.reference {
            return Err("phase-by-phase report differs from lint_workspace's".into());
        }
        Ok(ms)
    }

    fn probes(&mut self, sample: &mut Sample) -> Result<(), String> {
        let mut tokens = 0usize;
        for (_, text) in &self.corpus.files {
            tokens += timed(sample, "lint.tokenize_ms", || {
                tokenizer::tokenize(text).toks.len()
            });
        }
        add(sample, "lint.files", self.corpus.files.len() as f64);
        add(sample, "lint.tokens", tokens as f64);
        add(sample, "lint.findings", self.findings as f64);
        Ok(())
    }

    fn digest(&self) -> (&'static str, u64) {
        (
            "lint_report",
            ehp_sim_core::hash::fnv1a_str(&self.reference),
        )
    }
}
