//! The result cache's code version (DESIGN.md §12): the constant baked
//! in by `build.rs` is the source hash of this workspace, and the hash
//! moves with exactly the files that can change what an experiment
//! computes.

use std::fs;
use std::path::{Path, PathBuf};

use ehp_harness::serving::CODE_VERSION;

#[path = "../src/code_version.rs"]
mod code_version;

use code_version::source_hash;

fn tmp_tree(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp/code-version")
        .join(name);
    let _ = fs::remove_dir_all(&dir);
    for (rel, text) in [
        ("crates/x/Cargo.toml", "[package]\nname = \"x\"\n"),
        ("crates/x/src/lib.rs", "pub mod sub;\npub fn f() {}\n"),
        ("crates/x/src/sub/mod.rs", "pub const K: u32 = 7;\n"),
        ("crates/x/src/notes.md", "not code\n"),
        ("crates/x/tests/t.rs", "#[test]\nfn t() {}\n"),
        ("crates/y/src/main.rs", "fn main() {}\n"),
    ] {
        write(&dir, rel, text);
    }
    dir
}

fn write(root: &Path, rel: &str, text: &str) {
    let path = root.join(rel);
    fs::create_dir_all(path.parent().unwrap()).unwrap();
    fs::write(path, text).unwrap();
}

#[test]
fn embedded_constant_is_the_workspace_source_hash() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    assert_eq!(source_hash(&root).unwrap(), CODE_VERSION);
}

#[test]
fn source_edits_move_the_hash() {
    let root = tmp_tree("source-edits");
    let base = source_hash(&root).unwrap();
    assert_eq!(source_hash(&root).unwrap(), base, "stable across calls");

    // One byte of a nested source file.
    write(&root, "crates/x/src/sub/mod.rs", "pub const K: u32 = 8;\n");
    let edited = source_hash(&root).unwrap();
    assert_ne!(edited, base);

    // A new source file, even an empty one.
    write(&root, "crates/x/src/extra.rs", "");
    let added = source_hash(&root).unwrap();
    assert_ne!(added, edited);

    // A rename with the same bytes.
    fs::rename(
        root.join("crates/x/src/extra.rs"),
        root.join("crates/x/src/other.rs"),
    )
    .unwrap();
    assert_ne!(source_hash(&root).unwrap(), added);
}

#[test]
fn moving_bytes_between_files_moves_the_hash() {
    let root = tmp_tree("boundaries");
    write(&root, "crates/x/src/a.rs", "ab");
    write(&root, "crates/x/src/b.rs", "");
    let before = source_hash(&root).unwrap();
    write(&root, "crates/x/src/a.rs", "a");
    write(&root, "crates/x/src/b.rs", "b");
    assert_ne!(source_hash(&root).unwrap(), before);
}

#[test]
fn tests_and_non_rust_files_do_not_move_the_hash() {
    let root = tmp_tree("non-source");
    let base = source_hash(&root).unwrap();
    write(&root, "crates/x/tests/t.rs", "#[test]\nfn t2() {}\n");
    write(&root, "crates/x/tests/new.rs", "");
    write(&root, "crates/x/src/notes.md", "still not code\n");
    write(&root, "crates/x/Cargo.toml", "[package]\nname = \"x2\"\n");
    write(&root, "crates/x/benches/b.rs", "fn main() {}\n");
    write(&root, "tests/top.rs", "");
    assert_eq!(source_hash(&root).unwrap(), base);
}
