//! Seeded generator for the `lint_corpus` workspace.
//!
//! Writes a tree shaped like this repository's own `crates/*/src`: ten
//! crates of fourteen modules plus a `lib.rs` each, about 40k lines in
//! all. Modules mix arithmetic helpers, cross-file calls,
//! shift/mask/XOR placement selectors, `Mutex` lock sites, scoped
//! spawn closures, `lint:hot-path` fences and `to_json` summary sinks,
//! all written clean. Sixteen violations of the keeper rules are then
//! planted at recorded lines:
//!
//! | plant      | rule | shape                                                  |
//! |------------|------|--------------------------------------------------------|
//! | `B1`       | B1   | channel and bank selectors read overlapping bits       |
//! | `R1`       | R1   | a spawn closure takes `&mut` or a `RefCell` capture    |
//! | `N1`       | N1   | a `to_json` sink reaches a worker-count probe 2 calls away |
//! | `N1Direct` | N1   | a `merge` sink reads the worker count itself           |
//! | `H2`       | H2   | a fenced call reaches an allocation 2 calls away       |
//! | `H2Direct` | H2   | a fenced call's callee allocates itself (zero hops)    |
//!
//! The helpers the `N1` and `H2` plants call live in one support
//! module, so those chains cross a file boundary. Every name is unique
//! to its module, so the type-free call resolution of the linter can
//! never join a clean module to a planted chain.
//!
//! Only constructs the linter's own tokenizer lexes are used: no raw
//! strings, lifetimes, `f32`, hash maps, clocks or seed literals.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use ehp_lint::Finding;
use ehp_sim_core::rng::SplitMix64;

/// Crates in the generated workspace.
pub const CRATES: usize = 10;
/// Modules per crate, besides `lib.rs`.
pub const MODULES_PER_CRATE: usize = 14;

/// Mixing helpers every module defines (`f{m}_mix0` ..), the targets
/// of the clean cross-file calls.
const MIXES: u64 = 3;

/// The planted violations, in generation order.
const PLANTS: [Plant; 16] = [
    Plant::B1,
    Plant::B1,
    Plant::B1,
    Plant::B1,
    Plant::R1,
    Plant::R1,
    Plant::R1,
    Plant::R1,
    Plant::N1,
    Plant::N1,
    Plant::N1Direct,
    Plant::N1Direct,
    Plant::H2,
    Plant::H2,
    Plant::H2Direct,
    Plant::H2Direct,
];

/// A planted violation's kind (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plant {
    /// Correlated placement selectors.
    B1,
    /// Shared mutable capture in a spawn closure.
    R1,
    /// Sink reaching a nondeterminism source through two calls.
    N1,
    /// Sink holding a nondeterminism source itself.
    N1Direct,
    /// Fenced call reaching an allocation through two calls.
    H2,
    /// Fenced call whose callee allocates.
    H2Direct,
}

/// Where one violation was planted: the line the linter must report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What was planted.
    pub plant: Plant,
}

/// A generated workspace and its planted-site manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corpus {
    /// `(workspace-relative path, contents)`, sorted by path.
    pub files: Vec<(String, String)>,
    /// Every planted violation.
    pub sites: Vec<Site>,
}

/// Source text under construction, tracking the next line number.
struct Src {
    text: String,
    next_line: u32,
}

impl Src {
    fn new() -> Src {
        Src {
            text: String::new(),
            next_line: 1,
        }
    }

    /// Appends a block of whole lines.
    fn put(&mut self, block: &str) {
        for line in block.lines() {
            self.text.push_str(line);
            self.text.push('\n');
            self.next_line += 1;
        }
    }
}

/// Generates the workspace for `seed`. Same seed, same bytes.
#[must_use]
pub fn generate(seed: u64) -> Corpus {
    let mut rng = SplitMix64::new(seed);
    let modules = CRATES * MODULES_PER_CRATE;

    // Distinct modules for the plants, plus one support module.
    let mut order: Vec<usize> = (0..modules).collect();
    for i in (1..order.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    let support = order[PLANTS.len()];
    let mut planted: Vec<Option<(usize, Plant)>> = vec![None; modules];
    for (p, plant) in PLANTS.iter().enumerate() {
        planted[order[p]] = Some((p, *plant));
    }

    let mut files = Vec::new();
    let mut sites = Vec::new();
    for k in 0..CRATES {
        let range = k * MODULES_PER_CRATE..(k + 1) * MODULES_PER_CRATE;
        let mut lib = Src::new();
        lib.put(&format!("//! Generated crate k{k:02}.\n"));
        for m in range.clone() {
            lib.put(&format!("pub mod m{m:03};"));
        }
        files.push((format!("crates/k{k:02}/src/lib.rs"), lib.text));
        for (m, &plant) in range.clone().zip(&planted[range]) {
            let path = format!("crates/k{k:02}/src/m{m:03}.rs");
            let src = module(&mut rng, m, modules, support, plant, &path, &mut sites);
            files.push((path, src));
        }
    }
    files.sort();
    sites.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Corpus { files, sites }
}

/// One module: header, the fixed helpers, filler to a seeded length,
/// and its plant or support helpers.
fn module(
    rng: &mut SplitMix64,
    m: usize,
    modules: usize,
    support: usize,
    plant: Option<(usize, Plant)>,
    path: &str,
    sites: &mut Vec<Site>,
) -> String {
    let mut s = Src::new();
    s.put(&format!(
        "//! Generated module {m}: placement, reduction and summary kernels.\n\
         //!\n\
         //! Every helper here is pure integer arithmetic unless its doc\n\
         //! comment says otherwise.\n\
         \n\
         use std::sync::Mutex;\n\
         \n\
         /// Bytes per row in module {m}'s placement model.\n\
         const F{m}_ROW_BYTES: u64 = 1024;\n"
    ));
    for k in 0..MIXES {
        mix(&mut s, rng, m, k);
    }
    state(&mut s, rng, m, modules);

    let target = 220 + rng.next_below(100) as u32;
    let mut k = 0u64;
    while s.next_line < target {
        let other = rng.next_below(modules as u64);
        match rng.next_below(7) {
            0 => window(&mut s, rng, m, k),
            1 => hot(&mut s, rng, m, k, other),
            2 => place(&mut s, rng, m, k),
            3 => tally(&mut s, m, k),
            4 => spread(&mut s, rng, m, k),
            5 => classify(&mut s, rng, m, k, other),
            _ => accumulate(&mut s, rng, m, k, other),
        }
        k += 1;
    }

    if m == support {
        support_helpers(&mut s, support);
    }
    if let Some((p, plant)) = plant {
        let line = plant_site(&mut s, rng, m, p, plant, support);
        sites.push(Site {
            path: path.to_string(),
            line,
            plant,
        });
    }
    s.text
}

fn mix(s: &mut Src, rng: &mut SplitMix64, m: usize, k: u64) {
    let r1 = 7 + rng.next_below(20);
    let r2 = 11 + rng.next_below(20);
    let r3 = 1 + rng.next_below(60);
    let mul = rng.next_u64() | 1;
    s.put(&format!(
        "\n\
         /// Mixing step {k} of module {m}: one xor-shift-multiply round.\n\
         pub fn f{m}_mix{k}(x: u64) -> u64 {{\n\
         \x20   let a = x ^ (x >> {r1});\n\
         \x20   let b = a.wrapping_mul({mul});\n\
         \x20   let c = b ^ (b >> {r2});\n\
         \x20   c.rotate_left({r3})\n\
         }}\n"
    ));
}

/// The module's state type, whose `to_json` is a clean N1 sink root.
fn state(s: &mut Src, rng: &mut SplitMix64, m: usize, modules: usize) {
    let other = rng.next_below(modules as u64);
    let k = rng.next_below(MIXES);
    s.put(&format!(
        "\n\
         /// Running state of module {m}.\n\
         pub struct S{m}State {{\n\
         \x20   total: u64,\n\
         \x20   parts: Vec<u64>,\n\
         }}\n\
         \n\
         impl S{m}State {{\n\
         \x20   /// An empty state.\n\
         \x20   pub fn new() -> S{m}State {{\n\
         \x20       S{m}State {{ total: 0, parts: Vec::new() }}\n\
         \x20   }}\n\
         \n\
         \x20   /// Folds one value into the state.\n\
         \x20   pub fn f{m}_absorb(&mut self, x: u64) {{\n\
         \x20       self.total = self.total.wrapping_add(f{m}_mix0(x));\n\
         \x20       self.parts.push(x);\n\
         \x20   }}\n\
         \n\
         \x20   /// The summary value: a deterministic fold of the state.\n\
         \x20   pub fn to_json(&self) -> u64 {{\n\
         \x20       f{other}_mix{k}(self.total) ^ self.parts.len() as u64\n\
         \x20   }}\n\
         }}\n"
    ));
}

fn window(s: &mut Src, rng: &mut SplitMix64, m: usize, k: u64) {
    let c = rng.next_u64() >> 8;
    s.put(&format!(
        "\n\
         /// Sums a strided window over `xs`.\n\
         pub fn f{m}_window{k}(xs: &[u64], stride: usize) -> u64 {{\n\
         \x20   let mut acc = 0u64;\n\
         \x20   let mut i = 0usize;\n\
         \x20   while i < xs.len() {{\n\
         \x20       acc = acc.wrapping_add(xs[i] ^ {c});\n\
         \x20       i += stride.max(1);\n\
         \x20   }}\n\
         \x20   acc\n\
         }}\n"
    ));
}

/// A fenced loop whose only call is another module's pure mixer.
fn hot(s: &mut Src, rng: &mut SplitMix64, m: usize, k: u64, other: u64) {
    let j = rng.next_below(MIXES);
    let c = rng.next_below(1 << 16);
    s.put(&format!(
        "\n\
         /// Hot loop {k} of module {m}: remaps every element in place.\n\
         pub fn f{m}_hot{k}(xs: &[u64], out: &mut [u64]) {{\n\
         \x20   // lint:hot-path\n\
         \x20   for (o, &x) in out.iter_mut().zip(xs) {{\n\
         \x20       *o = f{other}_mix{j}(x) ^ {c};\n\
         \x20   }}\n\
         \x20   // lint:hot-path-end\n\
         }}\n"
    ));
}

/// Clean placement: disjoint selector lanes, or the XOR-folded bank
/// decorrelation `bank_mix` uses.
fn place(s: &mut Src, rng: &mut SplitMix64, m: usize, k: u64) {
    if rng.chance(0.5) {
        let lo = 4 + rng.next_below(8);
        let hi = lo + 4 + rng.next_below(8);
        s.put(&format!(
            "\n\
             /// Places an address on a (channel, bank) pair from disjoint bits.\n\
             pub fn f{m}_place{k}(addr: u64) -> (u64, u64) {{\n\
             \x20   let chan = (addr >> {lo}) & 0xF;\n\
             \x20   let bank = (addr >> {hi}) & 0xF;\n\
             \x20   (chan, bank)\n\
             }}\n"
        ));
    } else {
        s.put(&format!(
            "\n\
             /// Places an address on a (channel, bank) pair; the bank lane\n\
             /// folds in disjoint higher bits of the block index.\n\
             pub fn f{m}_place{k}(addr: u64) -> (u64, u64) {{\n\
             \x20   let chan = (addr >> 8) & 0xF;\n\
             \x20   let row = addr / F{m}_ROW_BYTES;\n\
             \x20   let block = row >> 4;\n\
             \x20   let mix = block ^ (block >> 5) ^ (block >> 9) ^ (block >> 13);\n\
             \x20   let bank = (row + mix) % 16;\n\
             \x20   (chan, bank)\n\
             }}\n"
        ));
    }
}

/// One lock per statement, guards never nested.
fn tally(s: &mut Src, m: usize, k: u64) {
    s.put(&format!(
        "\n\
         /// Adds `by` to a shared tally and returns the new value.\n\
         pub fn f{m}_tally{k}(m: &Mutex<u64>, by: u64) -> u64 {{\n\
         \x20   let mut g = m.lock().expect(\"tally lock poisoned\");\n\
         \x20   *g = g.wrapping_add(by);\n\
         \x20   *g\n\
         }}\n"
    ));
}

/// Scoped workers, each owning one chunk.
fn spread(s: &mut Src, rng: &mut SplitMix64, m: usize, k: u64) {
    let chunk = 8 << rng.next_below(4);
    let d = 1 + rng.next_below(9);
    s.put(&format!(
        "\n\
         /// Adds {d} to every element on scoped workers, one chunk each.\n\
         pub fn f{m}_spread{k}(data: &mut [u64]) {{\n\
         \x20   std::thread::scope(|s| {{\n\
         \x20       for block in data.chunks_mut({chunk}) {{\n\
         \x20           s.spawn(move || {{\n\
         \x20               for v in block.iter_mut() {{\n\
         \x20                   *v = v.wrapping_add({d});\n\
         \x20               }}\n\
         \x20           }});\n\
         \x20       }}\n\
         \x20   }});\n\
         }}\n"
    ));
}

fn classify(s: &mut Src, rng: &mut SplitMix64, m: usize, k: u64, other: u64) {
    let j = rng.next_below(MIXES);
    let sh = 1 + rng.next_below(6);
    s.put(&format!(
        "\n\
         /// Classifies `v` into one of four update rules.\n\
         pub fn f{m}_classify{k}(v: u64) -> u64 {{\n\
         \x20   match v % 4 {{\n\
         \x20       0 => v.wrapping_add(1),\n\
         \x20       1 => v.wrapping_mul(3),\n\
         \x20       2 => v >> {sh},\n\
         \x20       _ => f{other}_mix{j}(v),\n\
         \x20   }}\n\
         }}\n"
    ));
}

fn accumulate(s: &mut Src, rng: &mut SplitMix64, m: usize, k: u64, other: u64) {
    let j = rng.next_below(MIXES);
    let limit = 1 + rng.next_below(1000);
    s.put(&format!(
        "\n\
         /// Accumulates a clipped, mixed reduction of `xs`.\n\
         pub fn f{m}_accumulate{k}(xs: &[u64]) -> u64 {{\n\
         \x20   let mut acc = 0u64;\n\
         \x20   for i in 0..xs.len() {{\n\
         \x20       let v = xs[i];\n\
         \x20       if v > {limit} {{\n\
         \x20           acc = acc.wrapping_add(f{other}_mix{j}(v));\n\
         \x20       }} else {{\n\
         \x20           acc ^= v << 1;\n\
         \x20       }}\n\
         \x20   }}\n\
         \x20   acc\n\
         }}\n"
    ));
}

/// The hazards the `N1` and `H2` plants call: worker-count probes and
/// allocating helpers. Nothing clean calls them, so this module itself
/// reports nothing.
fn support_helpers(s: &mut Src, sup: usize) {
    for (p, plant) in PLANTS.iter().enumerate() {
        match plant {
            Plant::N1 => s.put(&format!(
                "\n\
                 /// Probes the host's parallelism (a nondeterminism source).\n\
                 pub fn f{sup}_workers{p}() -> usize {{\n\
                 \x20   std::thread::available_parallelism().map_or(1, |n| n.get())\n\
                 }}\n\
                 \n\
                 /// Splits `total` across the probed workers.\n\
                 pub fn f{sup}_plan{p}(total: usize) -> usize {{\n\
                 \x20   total / f{sup}_workers{p}().max(1)\n\
                 }}\n"
            )),
            Plant::H2 => s.put(&format!(
                "\n\
                 /// Widens `x` through a scratch buffer (allocates).\n\
                 pub fn f{sup}_widen{p}(x: u64) -> u64 {{\n\
                 \x20   let scratch: Vec<u64> = Vec::new();\n\
                 \x20   drop(scratch);\n\
                 \x20   x.wrapping_add(x)\n\
                 }}\n\
                 \n\
                 /// Expands `x`; clean itself, but calls `f{sup}_widen{p}`.\n\
                 pub fn f{sup}_expand{p}(x: u64) -> u64 {{\n\
                 \x20   f{sup}_widen{p}(x) + 1\n\
                 }}\n"
            )),
            Plant::H2Direct => s.put(&format!(
                "\n\
                 /// Stages `x` in a fresh buffer (allocates).\n\
                 pub fn f{sup}_scratch{p}(x: u64) -> u64 {{\n\
                 \x20   let staged = vec![x; 4];\n\
                 \x20   staged.len() as u64 + x\n\
                 }}\n"
            )),
            Plant::B1 | Plant::R1 | Plant::N1Direct => {}
        }
    }
}

/// Writes plant `p` and returns the line the linter must report.
fn plant_site(
    s: &mut Src,
    rng: &mut SplitMix64,
    m: usize,
    p: usize,
    plant: Plant,
    sup: usize,
) -> u32 {
    match plant {
        Plant::B1 => {
            let sh = 8 + rng.next_below(3);
            s.put(&format!(
                "\n\
                 /// Routes an address to a (channel, bank) pair.\n\
                 pub fn f{m}_route{p}(addr: u64) -> (u64, u64) {{\n\
                 \x20   let chan = (addr >> {sh}) & 0xF;\n\
                 \x20   let row = addr / F{m}_ROW_BYTES;"
            ));
            let line = s.next_line;
            s.put("    let bank = row % 16;\n    (chan, bank)\n}");
            line
        }
        Plant::R1 if rng.chance(0.5) => {
            s.put(&format!(
                "\n\
                 /// Counts `data` on two workers sharing one accumulator.\n\
                 pub fn f{m}_count{p}(data: &[u64]) {{\n\
                 \x20   let mut total = 0u64;\n\
                 \x20   std::thread::scope(|s| {{\n\
                 \x20       for _w in 0..2 {{\n\
                 \x20           s.spawn(|| {{"
            ));
            let line = s.next_line;
            s.put(
                "                let t = &mut total;\n\
                 \x20               *t += data.len() as u64;\n\
                 \x20           });\n\
                 \x20       }\n\
                 \x20   });\n\
                 }",
            );
            line
        }
        Plant::R1 => {
            s.put(&format!(
                "\n\
                 /// Adds `n` to a cell from a spawned worker.\n\
                 pub fn f{m}_bump{p}(n: u64) {{\n\
                 \x20   let counter = std::cell::RefCell::new(0u64);\n\
                 \x20   std::thread::scope(|s| {{\n\
                 \x20       s.spawn(|| {{"
            ));
            let line = s.next_line;
            s.put(
                "            *counter.borrow_mut() += n;\n\
                 \x20       });\n\
                 \x20   });\n\
                 }",
            );
            line
        }
        Plant::N1 => {
            s.put(&format!(
                "\n\
                 /// Module {m}'s published shard plan.\n\
                 pub struct P{m}Plan;\n\
                 \n\
                 impl P{m}Plan {{\n\
                 \x20   /// Emits the plan."
            ));
            let line = s.next_line;
            s.put(&format!(
                "    pub fn to_json(&self) -> u64 {{\n\
                 \x20       f{sup}_plan{p}(64) as u64\n\
                 \x20   }}\n\
                 }}"
            ));
            line
        }
        Plant::N1Direct => {
            s.put(&format!(
                "\n\
                 /// Module {m}'s merged tally.\n\
                 pub struct T{m}Tally {{\n\
                 \x20   total: u64,\n\
                 }}\n\
                 \n\
                 impl T{m}Tally {{\n\
                 \x20   /// Merges the tally with the worker count."
            ));
            let line = s.next_line;
            s.put(
                "    pub fn merge(&self) -> u64 {\n\
                 \x20       let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());\n\
                 \x20       self.total + jobs as u64\n\
                 \x20   }\n\
                 }",
            );
            line
        }
        Plant::H2 | Plant::H2Direct => {
            let callee = if plant == Plant::H2 {
                format!("f{sup}_expand{p}")
            } else {
                format!("f{sup}_scratch{p}")
            };
            s.put(&format!(
                "\n\
                 /// Hot burst of module {m}.\n\
                 pub fn f{m}_burst{p}(xs: &[u64], out: &mut [u64]) {{\n\
                 \x20   // lint:hot-path\n\
                 \x20   for (o, &x) in out.iter_mut().zip(xs) {{"
            ));
            let line = s.next_line;
            s.put(&format!(
                "        *o = {callee}(x);\n\
                 \x20   }}\n\
                 \x20   // lint:hot-path-end\n\
                 }}"
            ));
            line
        }
    }
}

impl Corpus {
    /// Writes the workspace under `root`, which must not exist yet.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write(&self, root: &Path) -> io::Result<()> {
        for (rel, text) in &self.files {
            let path = root.join(rel);
            if let Some(dir) = path.parent() {
                fs::create_dir_all(dir)?;
            }
            fs::write(path, text)?;
        }
        Ok(())
    }

    /// The correctness gate on a lint report's findings: every planted
    /// site is reported at its file:line (under whatever rule name),
    /// and no file without a plant reports anything.
    ///
    /// # Errors
    /// Describes the first missing site or clean-file finding.
    pub fn check(&self, findings: &[Finding]) -> Result<(), String> {
        for site in &self.sites {
            if !findings
                .iter()
                .any(|f| f.path == site.path && f.line == site.line)
            {
                return Err(format!(
                    "planted {:?} at {}:{} not reported",
                    site.plant, site.path, site.line
                ));
            }
        }
        if let Some(f) = findings
            .iter()
            .find(|f| !self.sites.iter().any(|s| s.path == f.path))
        {
            let mut msg = String::new();
            let _ = write!(
                msg,
                "clean file reported {}:{} ({}): {}",
                f.path,
                f.line,
                f.rule.name(),
                f.message
            );
            return Err(msg);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(corpus: &Corpus) -> Vec<Finding> {
        let sources: Vec<(&str, &str)> = corpus
            .files
            .iter()
            .map(|(p, t)| (p.as_str(), t.as_str()))
            .collect();
        ehp_lint::lint_sources(&sources)
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(generate(7), generate(7));
        assert_ne!(generate(7).files, generate(8).files);
    }

    #[test]
    fn sized_like_the_repository_tree() {
        let c = generate(1);
        assert_eq!(c.files.len(), CRATES * (MODULES_PER_CRATE + 1));
        let lines: usize = c.files.iter().map(|(_, t)| t.lines().count()).sum();
        assert!((35_000..45_000).contains(&lines), "{lines} lines");
        assert_eq!(c.sites.len(), PLANTS.len());
    }

    #[test]
    fn every_planted_site_is_reported_and_clean_files_stay_clean() {
        for seed in (0..16).chain([0xDEAD_BEEF, u64::MAX]) {
            let c = generate(seed);
            let findings = lint(&c);
            c.check(&findings)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn plants_fire_under_their_intended_rules() {
        use ehp_lint::Rule;
        let c = generate(5);
        let findings = lint(&c);
        for site in &c.sites {
            let want = match site.plant {
                Plant::B1 => Rule::CorrelatedSelectors,
                Plant::R1 => Rule::ThreadCapture,
                Plant::N1 | Plant::N1Direct => Rule::NondetTaint,
                Plant::H2 | Plant::H2Direct => Rule::HotPathReach,
            };
            assert!(
                findings
                    .iter()
                    .any(|f| f.path == site.path && f.line == site.line && f.rule == want),
                "{site:?}"
            );
        }
    }

    #[test]
    fn gate_rejects_a_missing_site_and_a_dirty_clean_file() {
        let c = generate(3);
        let findings = lint(&c);
        let dropped: Vec<Finding> = findings
            .iter()
            .filter(|f| !(f.path == c.sites[0].path && f.line == c.sites[0].line))
            .cloned()
            .collect();
        assert!(c.check(&dropped).is_err());

        let clean = c
            .files
            .iter()
            .map(|(p, _)| p)
            .find(|p| !c.sites.iter().any(|s| &s.path == *p))
            .expect("some file has no plant");
        let mut extra = findings.clone();
        extra.push(Finding::new(ehp_lint::Rule::HashIter, clean, 3, "spurious"));
        assert!(c.check(&extra).is_err());
    }
}
