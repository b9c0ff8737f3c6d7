//! Bakes the result cache's code version into the harness: the hash of
//! every `crates/*/src/**/*.rs` file (see `src/code_version.rs`).

#[path = "src/code_version.rs"]
mod code_version;

use std::path::PathBuf;

fn main() {
    let manifest = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest.join("../..");
    for dir in code_version::source_dirs(&root).expect("list crates/*/src") {
        println!("cargo:rerun-if-changed={}", dir.display());
    }
    let hash = code_version::source_hash(&root).expect("hash crates/*/src");
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("set by cargo"));
    std::fs::write(out.join("code_version.rs"), format!("0x{hash:016x}"))
        .expect("write code_version.rs");
}
