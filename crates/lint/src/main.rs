//! Workspace source lint — `cargo run -p lint`.
//!
//! A zero-dependency scanner enforcing nine repo-specific rules that
//! `rustc`/`clippy` cannot express. R1–R3 share one failure class: this
//! codebase is SPMD over collectives, where a single rank panicking or
//! diverging strands every peer at its next rendezvous.
//!
//! * **R1 `no-panic`** — no `.unwrap()` / `.expect("…")` in non-test
//!   library code. A panicking rank poisons the whole simulated world;
//!   fallible paths must return typed errors. Documented invariants may
//!   be kept as `expect` with an `// audit:` marker on the same or the
//!   preceding line explaining why the invariant holds.
//! * **R2 `checked-narrowing`** — inside wire-format decode functions
//!   (anything reading `from_le_bytes` or the repo's little-endian
//!   helpers), narrowing `as u8/u16/u32/usize` casts must carry an
//!   `// audit:` marker or use checked conversions. A corrupt frame must
//!   surface as a typed error, never alias a valid value by truncation.
//!   Casts of `SCREAMING_CASE` constants and integer literals are exempt
//!   (compile-time-known values, not wire data).
//! * **R3 `collective-contract`** — every `pub fn` taking `&mut Comm`
//!   must say the word "collective" in its doc comment: either that the
//!   call is collective (every rank must make it, in the same order) or
//!   explicitly that it is *not* collective. The hand-audited matching
//!   of collective sequences is this repo's recurring bug class; the
//!   contract belongs on the API surface.
//! * **R4 `engine-reads-views`** — non-test code under `crates/sjoin/src`
//!   builds no geometry from a wire frame (`.to_feature(`, `wkb::decode(`):
//!   the engine reads frames as zero-copy views.
//! * **R5 `one-thread-per-rank`** — non-test library code spawns no
//!   thread (`thread::spawn(`, `thread::scope(`, `thread::Builder`)
//!   outside `crates/msim/src/world.rs`. MPI-Vector-IO runs one
//!   single-threaded process per core, so the simulator runs one OS
//!   thread per rank; parallelism inside a rank is modelled as worker
//!   lanes, not executed.
//! * **R6 `serialize-charge-follows-encode`** — a `Work::SerializeGeoms`
//!   charge in non-test library code sits inside a function that calls
//!   an encoder (`serialize_record(`, `wkb::encode…`). The 12 µs
//!   per-object price is for encoding an object; a copy of bytes that
//!   are already encoded is `Work::CopyBytes`.
//! * **R7 `front-half-encodes-nothing`** — non-test code in
//!   `crates/core/src/pipeline.rs` calls no object encoder
//!   (`wkb::encode…`, `encode_into_scratch`, `serialize_record(`): the
//!   parser transcodes each record's WKB straight from its text once, and
//!   every replica is a copy of those bytes.
//! * **R8 `front-half-posts-its-reads`** — non-test code in
//!   `crates/core/src/pipeline.rs` calls no blocking partitioned read
//!   (`read_partition_text(`, `read_blocked(`, `read_at_together(`):
//!   every layer's Level 0 read is posted up front as stripe pieces and
//!   finished under the transcode, so no layer pays read then parse back
//!   to back.
//! * **R9 `no-dead-pub-fn`** — a library `pub fn` (not `pub(crate)`)
//!   whose name appears in no non-test code outside its own file fails,
//!   unless [`rules::DEAD_PUB_FN_ALLOW`] names it with a reason. Callers
//!   are searched in the scanned files and also in `crates/bench/src`,
//!   `examples/` and `e2e/src`. Public API that nothing calls is code to
//!   keep up and read for no behaviour: delete it, or make it private.
//!   Matching is by name, not resolution, except for a free fn whose
//!   name another fn also declares: that one counts only where a path
//!   names it (`wkb::decode`, an import from `wkb`, or a path through a
//!   `pub use` of it). A dead method that shares its name with a live
//!   one anywhere (`len`, `new`) is still missed. A `pub use` re-export
//!   passes a name on and is no use.
//!
//! Scope: `src/` trees of the workspace library crates and the root
//! crate. Excluded: `crates/bench` (experiment harness, panics are its
//! error handling), this crate, `shims/` (vendored stand-ins for
//! external crates, matching their upstream APIs), `#[cfg(test)]`
//! regions, and integration-test/bench/example targets.
//!
//! Known textual limits, accepted deliberately to stay zero-dependency:
//! the scanner masks strings and comments with a character-level state
//! machine but does not parse Rust. `.expect(` is only flagged with a
//! string-literal argument, so parser-combinator methods *named*
//! `expect` (e.g. `wkt::parse`'s `self.expect(b'(')?`) don't false-
//! positive; an `.expect(msg_variable)` would be missed. R2's function
//! scoping is brace-tracking, not name resolution.

use std::fmt;
use std::path::{Path, PathBuf};

mod mask;
mod rules;

use mask::MaskedFile;

/// One lint finding.
pub struct Finding {
    /// Repo-relative path.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`no-panic`, `checked-narrowing`,
    /// `collective-contract`, `engine-reads-views`, `one-thread-per-rank`,
    /// `serialize-charge-follows-encode`, `front-half-encodes-nothing`,
    /// `front-half-posts-its-reads`, `no-dead-pub-fn`).
    pub rule: &'static str,
    /// Human-readable description, including the offending snippet.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Library crates under `crates/` whose `src/` trees are scanned.
/// `bench` is the experiment harness (panics are its error handling) and
/// `lint` is this tool; both are excluded by not being listed.
const SCANNED_CRATES: &[&str] = &["core", "datagen", "geom", "msim", "pfs", "sjoin"];

fn main() {
    let root = workspace_root();
    let mut files: Vec<PathBuf> = Vec::new();
    for c in SCANNED_CRATES {
        collect_rs(&root.join("crates").join(c).join("src"), &mut files);
    }
    collect_rs(&root.join("src"), &mut files);
    files.sort();

    let mut findings: Vec<Finding> = Vec::new();
    let mut scanned: Vec<(PathBuf, MaskedFile)> = Vec::new();
    for path in &files {
        let rel = path.strip_prefix(&root).unwrap_or(path).to_path_buf();
        let masked = MaskedFile::new(&read(path));
        rules::no_panic(&rel, &masked, &mut findings);
        rules::checked_narrowing(&rel, &masked, &mut findings);
        rules::collective_contract(&rel, &masked, &mut findings);
        rules::engine_reads_views(&rel, &masked, &mut findings);
        rules::one_thread_per_rank(&rel, &masked, &mut findings);
        rules::serialize_charge_follows_encode(&rel, &masked, &mut findings);
        rules::front_half_encodes_nothing(&rel, &masked, &mut findings);
        rules::front_half_posts_its_reads(&rel, &masked, &mut findings);
        scanned.push((rel, masked));
    }

    // R9's callers also include the non-library code that calls the
    // library: the experiment harness, the examples and the benchmark.
    // A `tests.rs` is a test module gated in its parent, so it is no
    // caller.
    let mut caller_files: Vec<PathBuf> = Vec::new();
    for dir in ["crates/bench/src", "examples", "e2e/src"] {
        collect_rs(&root.join(dir), &mut caller_files);
    }
    caller_files.retain(|p| !p.ends_with("tests.rs"));
    let callers: Vec<(PathBuf, MaskedFile)> = caller_files
        .iter()
        .map(|p| (p.clone(), MaskedFile::new(&read(p))))
        .collect();
    rules::no_dead_pub_fn(&scanned, &callers, rules::DEAD_PUB_FN_ALLOW, &mut findings);
    let scanned = scanned.len();

    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("lint: {scanned} files clean");
    } else {
        println!("lint: {} finding(s) in {scanned} files", findings.len());
        std::process::exit(1);
    }
}

/// The text of `path`; exits with status 2 if it cannot be read.
fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("lint: cannot read {}: {e}", path.display());
        std::process::exit(2);
    })
}

/// The workspace root: two levels above this crate's manifest, so the
/// binary works regardless of the invocation directory.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// Recursively collects `.rs` files under `dir` (silently skips a
/// missing directory so the root crate's `src/` is optional).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}
