//! Incremental lint cache (`target/lint-cache.json`).
//!
//! Keyed by FNV-1a content hash per file: a hit skips tokenizing,
//! parsing, and every single-file rule, replaying the cached findings
//! and the cached [`FileIndex`] instead. Cross-file passes (H2
//! reachability, S1 scenarios, the waiver file) are recomputed on every
//! run from the (possibly cached) indexes — they are cheap relative to
//! tokenization and depend on more than one file, so caching them
//! per-file would be wrong.
//!
//! Invalidation rule: a file re-lints iff its content hash changed or
//! [`CACHE_VERSION`] was bumped. Bump the version whenever rules, the
//! parser, or the serialized shapes change — stale semantic state must
//! never survive a linter upgrade. The cache is best-effort: any load
//! or decode failure degrades to an empty cache, never an error.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use ehp_sim_core::json::{Json, ToJson};

use crate::findings::Finding;
use crate::parse::FileIndex;

/// Bump on any change to rules, parser output, or cache shape.
/// 3: N1/L1/L2 — nondet sources, order fences, lock sites, sync
/// captures, and loop lines joined the serialized `FileIndex`.
/// 4: absint (B1/B2/U1/L3) — fn params, bind expressions, file-local
/// consts, and lock targets joined the serialized `FileIndex`.
/// 5: H1 folded into H2 and U1 removed — cached single-file findings
/// no longer carry either rule.
/// 6: D3/D4/L1/L2/B2 removed — seed sites, sync captures, spawn drains,
/// and the L1-only lock-site fields left the serialized `FileIndex`.
pub const CACHE_VERSION: u64 = 6;

/// Cached state for one source file.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// FNV-1a hash of the file contents.
    pub hash: u64,
    /// Findings from the single-file rules (waiver state as computed
    /// before the file-level waiver pass).
    pub findings: Vec<Finding>,
    /// The parsed index, for the cross-file passes.
    pub index: FileIndex,
}

/// The whole cache: workspace-relative path → entry.
#[derive(Debug, Clone, Default)]
pub struct LintCache {
    /// Entries by path (BTreeMap for stable serialization order).
    pub entries: BTreeMap<String, CacheEntry>,
}

/// FNV-1a over the file contents — the shared workspace hash primitive
/// ([`ehp_sim_core::hash`]), so the lint cache, the result cache, and
/// seed derivation can never disagree on the algorithm.
#[must_use]
pub fn content_hash(text: &str) -> u64 {
    ehp_sim_core::hash::fnv1a_str(text)
}

impl LintCache {
    /// Loads a cache file; any failure (missing file, bad JSON, version
    /// mismatch, shape drift) yields an empty cache.
    #[must_use]
    pub fn load(path: &Path) -> LintCache {
        let Ok(text) = fs::read_to_string(path) else {
            return LintCache::default();
        };
        let Ok(json) = Json::parse(&text) else {
            return LintCache::default();
        };
        if json.get("version").and_then(Json::as_u64) != Some(CACHE_VERSION) {
            return LintCache::default();
        }
        let Some(files) = json.get("files").and_then(Json::as_obj) else {
            return LintCache::default();
        };
        let mut cache = LintCache::default();
        for (file, entry) in files {
            let Some(e) = decode_entry(entry) else {
                continue;
            };
            cache.entries.insert(file.clone(), e);
        }
        cache
    }

    /// Writes the cache, creating parent directories as needed.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let files: BTreeMap<String, Json> = self
            .entries
            .iter()
            .map(|(file, e)| {
                (
                    file.clone(),
                    Json::object([
                        // Hex string: u64 hashes exceed f64's exact
                        // integer range, so they can't ride as numbers.
                        ("hash", Json::from(format!("{:016x}", e.hash))),
                        (
                            "findings",
                            Json::array(e.findings.iter().map(Finding::to_json)),
                        ),
                        ("index", e.index.to_json()),
                    ]),
                )
            })
            .collect();
        let json = Json::object([
            ("version", Json::from(CACHE_VERSION)),
            ("files", Json::Obj(files)),
        ]);
        fs::write(path, json.to_string_compact())
    }

    /// Returns the cached entry for `file` iff its hash matches.
    #[must_use]
    pub fn lookup(&self, file: &str, hash: u64) -> Option<&CacheEntry> {
        self.entries.get(file).filter(|e| e.hash == hash)
    }
}

fn decode_entry(j: &Json) -> Option<CacheEntry> {
    let hash = u64::from_str_radix(j.get("hash")?.as_str()?, 16).ok()?;
    let mut findings = Vec::new();
    for f in j.get("findings")?.as_arr()? {
        findings.push(Finding::from_json(f)?);
    }
    let index = FileIndex::from_json(j.get("index")?)?;
    Some(CacheEntry {
        hash,
        findings,
        index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findings::Rule;

    fn test_tmp_dir(name: &str) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/lint-test")
            .join(name)
    }

    #[test]
    fn hash_is_stable_and_content_sensitive() {
        assert_eq!(content_hash("abc"), content_hash("abc"));
        assert_ne!(content_hash("abc"), content_hash("abd"));
        assert_ne!(content_hash(""), content_hash(" "));
    }

    #[test]
    fn cache_round_trips_through_disk() {
        let mut cache = LintCache::default();
        let src = "fn f() { let v: Vec<u8> = Vec::new(); }";
        let (index, _) =
            crate::parse::parse_file("crates/x/src/a.rs", &crate::tokenizer::tokenize(src));
        cache.entries.insert(
            "crates/x/src/a.rs".to_string(),
            CacheEntry {
                hash: content_hash(src),
                findings: vec![Finding::new(Rule::HashIter, "crates/x/src/a.rs", 3, "demo")
                    .with_chain(vec!["a:1 `f`".to_string()])],
                index,
            },
        );
        let dir = test_tmp_dir("lint-cache-test");
        let path = dir.join("cache.json");
        cache.save(&path).expect("save");
        let back = LintCache::load(&path);
        assert_eq!(back.entries.len(), 1);
        let e = back.lookup("crates/x/src/a.rs", content_hash(src)).unwrap();
        assert_eq!(e.findings.len(), 1);
        assert_eq!(e.findings[0].chain.len(), 1);
        assert_eq!(e.index, cache.entries["crates/x/src/a.rs"].index);
        // Wrong hash → miss.
        assert!(back.lookup("crates/x/src/a.rs", 1).is_none());
    }

    #[test]
    fn version_mismatch_empties_the_cache() {
        let dir = test_tmp_dir("lint-cache-ver");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        std::fs::write(&path, "{\"version\": 999999, \"files\": {}}").unwrap();
        assert!(LintCache::load(&path).entries.is_empty());
    }

    #[test]
    fn garbage_on_disk_degrades_to_empty() {
        let dir = test_tmp_dir("lint-cache-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        std::fs::write(&path, "not json at all").unwrap();
        assert!(LintCache::load(&path).entries.is_empty());
        assert!(LintCache::load(Path::new("/nonexistent/x.json"))
            .entries
            .is_empty());
    }
}
