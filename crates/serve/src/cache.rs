//! The content-hash-keyed experiment **result cache**.
//!
//! One entry per executed scenario, keyed by [`result_key`]: FNV-1a
//! ([`ehp_sim_core::hash`]) over the cache schema version, the
//! experiment id, the caller's **code version**, and the scenario's
//! canonical (compact, key-sorted, seed-resolved) JSON. Any input that
//! could change the outcome changes the key:
//!
//! * a different parameter, name, or seed changes the canonical JSON;
//! * any change to the simulator's code changes the code version, which
//!   the harness hashes from every workspace source file at build time,
//!   so a source edit invalidates every entry;
//! * a change to the cached shape itself bumps
//!   `RESULT_CACHE_SCHEMA`, which invalidates everything.
//!
//! The discipline is the one the lint incremental cache proved
//! (DESIGN.md §11): **versioned, degrade-to-empty, byte-identical hot
//! or cold**. Every load failure — missing file, unparsable JSON,
//! schema drift, key mismatch — is a miss, never an error; a corrupted
//! entry is recomputed and overwritten. Disk writes go through a
//! same-directory temp file plus rename so concurrent batches never
//! observe a torn entry.
//!
//! Entries live one file per key under a directory
//! ([`ResultCache::disk`], `target/result-cache/` for the CLI and the
//! serve daemon). The cache keeps no traffic counters: the batch runner
//! counts hits, misses and stores itself.

use std::fs;
use std::path::PathBuf;

use ehp_sim_core::hash::{fnv1a_extend, FNV_OFFSET};
use ehp_sim_core::json::Json;

/// Schema tag stored in every entry; bump on any change to the cached
/// shape or the key derivation.
pub(crate) const RESULT_CACHE_SCHEMA: &str = "ehp-result-cache/v1";

/// Derives the cache key for one scenario execution.
///
/// `canonical_scenario` must be the scenario's compact JSON with the
/// seed already resolved — two spellings of the same scenario hash
/// identically, and two scenarios differing in any executed input
/// (params, name, seed) hash apart. `code_version` identifies the code
/// that computes the outcome.
#[must_use]
pub fn result_key(experiment: &str, code_version: u64, canonical_scenario: &str) -> u64 {
    let mut h = fnv1a_extend(FNV_OFFSET, RESULT_CACHE_SCHEMA.as_bytes());
    h = fnv1a_extend(h, b"\0");
    h = fnv1a_extend(h, experiment.as_bytes());
    h = fnv1a_extend(h, b"\0");
    h = fnv1a_extend(h, &code_version.to_le_bytes());
    fnv1a_extend(h, canonical_scenario.as_bytes())
}

/// Monotonic cache traffic counters (reported by `ehp serve` stats and
/// the `cache_stats.json` artifact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that returned a cached outcome.
    pub hits: u64,
    /// Lookups that found nothing usable (including corrupt entries).
    pub misses: u64,
    /// Outcomes written (or overwritten) into the cache.
    pub stores: u64,
}

impl CacheCounters {
    /// Counters as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object([
            ("hits", Json::from(self.hits)),
            ("misses", Json::from(self.misses)),
            ("stores", Json::from(self.stores)),
        ])
    }
}

/// The result cache: one file per key under a directory.
#[derive(Debug)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// A disk-backed cache rooted at `dir` (created lazily on first
    /// store; a missing directory just means every lookup misses).
    #[must_use]
    pub fn disk(dir: impl Into<PathBuf>) -> ResultCache {
        ResultCache { dir: dir.into() }
    }

    fn entry_path(dir: &std::path::Path, key: u64) -> PathBuf {
        dir.join(format!("{key:016x}.json"))
    }

    /// Looks up a cached outcome; every failure mode is a miss.
    pub fn lookup(&mut self, key: u64) -> Option<Json> {
        fs::read_to_string(Self::entry_path(&self.dir, key))
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .and_then(|entry| decode_entry(&entry, key))
    }

    /// Stores (or overwrites) an outcome; returns whether the write
    /// stuck. Disk failures are swallowed — a cache that cannot write
    /// degrades to recomputation, it does not fail the batch.
    pub fn store(&mut self, key: u64, outcome: &Json) -> bool {
        let entry = Json::object([
            ("schema", Json::from(RESULT_CACHE_SCHEMA)),
            ("key", Json::from(format!("{key:016x}"))),
            ("outcome", outcome.clone()),
        ]);
        write_atomically(&self.dir, key, &entry.to_string_compact())
    }
}

/// Validates one on-disk entry; `None` (a miss) unless the schema tag
/// and the self-recorded key both match.
fn decode_entry(entry: &Json, key: u64) -> Option<Json> {
    if entry.get("schema").and_then(Json::as_str) != Some(RESULT_CACHE_SCHEMA) {
        return None;
    }
    let recorded = u64::from_str_radix(entry.get("key")?.as_str()?, 16).ok()?;
    if recorded != key {
        return None;
    }
    entry.get("outcome").cloned()
}

/// Write-to-temp-then-rename so concurrent readers never see a torn
/// entry; any step failing simply drops the write.
fn write_atomically(dir: &std::path::Path, key: u64, contents: &str) -> bool {
    if fs::create_dir_all(dir).is_err() {
        return false;
    }
    let tmp = dir.join(format!(".tmp-{key:016x}-{}", std::process::id()));
    if fs::write(&tmp, contents).is_err() {
        return false;
    }
    let ok = fs::rename(&tmp, ResultCache::entry_path(dir, key)).is_ok();
    if !ok {
        let _ = fs::remove_file(&tmp);
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(tag: &str) -> Json {
        Json::object([("status", Json::from("ok")), ("tag", Json::from(tag))])
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp/serve-cache-tests")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn key_depends_on_every_input() {
        let k = result_key("figure20", 1, r#"{"experiment":"figure20"}"#);
        assert_eq!(k, result_key("figure20", 1, r#"{"experiment":"figure20"}"#));
        assert_ne!(k, result_key("figure19", 1, r#"{"experiment":"figure20"}"#));
        assert_ne!(k, result_key("figure20", 2, r#"{"experiment":"figure20"}"#));
        assert_ne!(k, result_key("figure20", 1, r#"{"experiment":"figure19"}"#));
    }

    #[test]
    fn disk_round_trip_survives_a_new_handle() {
        let dir = tmp_dir("round-trip");
        let k = result_key("x", 0, "{}");
        let mut c = ResultCache::disk(&dir);
        assert_eq!(c.lookup(k), None, "cold cache must miss");
        assert!(c.store(k, &outcome("a")));
        // A fresh handle (fresh process in real life) sees the entry.
        let mut c2 = ResultCache::disk(&dir);
        assert_eq!(c2.lookup(k), Some(outcome("a")));
    }

    #[test]
    fn corrupted_and_mismatched_entries_degrade_to_misses() {
        let dir = tmp_dir("corrupt");
        let k = result_key("x", 0, "{}");
        let mut c = ResultCache::disk(&dir);
        assert!(c.store(k, &outcome("a")));

        // Truncated JSON → miss.
        fs::write(ResultCache::entry_path(&dir, k), "{\"schema\": \"ehp").unwrap();
        assert_eq!(ResultCache::disk(&dir).lookup(k), None);

        // Wrong schema tag → miss.
        let entry = Json::object([
            ("schema", Json::from("ehp-result-cache/v999")),
            ("key", Json::from(format!("{k:016x}"))),
            ("outcome", outcome("a")),
        ]);
        fs::write(ResultCache::entry_path(&dir, k), entry.to_string_compact()).unwrap();
        assert_eq!(ResultCache::disk(&dir).lookup(k), None);

        // Entry renamed under a different key (key mismatch) → miss.
        let other = result_key("y", 0, "{}");
        let mut c = ResultCache::disk(&dir);
        assert!(c.store(k, &outcome("a")));
        fs::rename(
            ResultCache::entry_path(&dir, k),
            ResultCache::entry_path(&dir, other),
        )
        .unwrap();
        assert_eq!(ResultCache::disk(&dir).lookup(other), None);

        // Overwriting repairs the slot.
        let mut c = ResultCache::disk(&dir);
        assert!(c.store(other, &outcome("b")));
        assert_eq!(c.lookup(other), Some(outcome("b")));
    }

    #[test]
    fn code_version_change_misses_every_old_entry() {
        let mut c = ResultCache::disk(tmp_dir("code-version"));
        c.store(result_key("exp_a", 0, r#"{"name":"a"}"#), &outcome("a"));
        c.store(result_key("exp_b", 0, r#"{"name":"b"}"#), &outcome("b"));
        // New code: every old entry misses; the old code still hits.
        assert_eq!(c.lookup(result_key("exp_a", 1, r#"{"name":"a"}"#)), None);
        assert_eq!(c.lookup(result_key("exp_b", 1, r#"{"name":"b"}"#)), None);
        assert_eq!(
            c.lookup(result_key("exp_b", 0, r#"{"name":"b"}"#)),
            Some(outcome("b"))
        );
    }

    #[test]
    fn missing_directory_is_just_a_miss() {
        let mut c = ResultCache::disk("/nonexistent/definitely/not/here");
        assert_eq!(c.lookup(1), None);
    }
}
