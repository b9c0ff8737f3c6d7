//! The result cache's code version (DESIGN.md §12): one FNV-1a hash
//! over every workspace source file, worked out at build time.
//!
//! `build.rs` and `tests/code_version.rs` include this file with
//! `#[path]`; the build script bakes [`source_hash`] of the workspace
//! into `serving::CODE_VERSION`, which every result-cache key folds in.
//! Any edit under a `crates/<name>/src/` tree therefore re-keys every
//! cached outcome; tests, docs and scenario files do not. Invalidating
//! everything on any source edit costs one cold `ehp all`, and unlike a
//! per-experiment dependency walk it cannot miss an edge and replay
//! stale numbers.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use ehp_sim_core::hash::{fnv1a_extend, FNV_OFFSET};

/// The `crates/<name>/src` directory of every crate under `root`, sorted.
///
/// # Errors
///
/// Propagates I/O errors from listing `root/crates`.
pub(crate) fn source_dirs(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut dirs = Vec::new();
    for entry in fs::read_dir(root.join("crates"))? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            dirs.push(src);
        }
    }
    dirs.sort();
    Ok(dirs)
}

/// FNV-1a over the `/`-separated path (relative to `root`), the length
/// and the bytes of every `crates/*/src/**/*.rs` file, in sorted path
/// order.
///
/// # Errors
///
/// Propagates I/O errors from walking the tree or reading files.
pub fn source_hash(root: &Path) -> io::Result<u64> {
    let mut files = Vec::new();
    for dir in source_dirs(root)? {
        collect_rs(root, &dir, &mut files)?;
    }
    files.sort();
    let mut h = FNV_OFFSET;
    for (rel, path) in files {
        let bytes = fs::read(path)?;
        h = fnv1a_extend(h, rel.as_bytes());
        h = fnv1a_extend(h, &(bytes.len() as u64).to_le_bytes());
        h = fnv1a_extend(h, &bytes);
    }
    Ok(h)
}

/// Appends `(relative path, path)` for every `.rs` file under `dir`.
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let parts: Vec<_> = rel.iter().map(|c| c.to_string_lossy()).collect();
            out.push((parts.join("/"), path));
        }
    }
    Ok(())
}
