//! Hermeticity check: the library reads no environment variable, as
//! `docs/KNOBS.md` documents. No `MVIO_*` identifier may occur in the
//! crate sources, and `env::var` in no non-test crate code — a new
//! hidden environment read fails here.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Extracts every `MVIO_[A-Z0-9_]+` identifier from `text`.
fn knob_idents(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let bytes = text.as_bytes();
    let mut at = 0;
    while let Some(pos) = text[at..].find("MVIO_") {
        let start = at + pos;
        let mut end = start + "MVIO_".len();
        while end < bytes.len()
            && (bytes[end].is_ascii_uppercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        // A bare "MVIO_" prefix with no knob name is not an identifier.
        if end > start + "MVIO_".len() {
            out.insert(text[start..end].trim_end_matches('_').to_string());
        }
        at = end;
    }
    out
}

fn rust_sources_under(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources_under(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file under `crates/*/src`, as `(repo-relative path, text)`.
fn crate_sources(root: &Path) -> Vec<(String, String)> {
    let crates = root.join("crates");
    assert!(crates.is_dir(), "expected {} to exist", crates.display());
    let mut sources = Vec::new();
    for entry in fs::read_dir(&crates)
        .expect("readable crates dir")
        .flatten()
    {
        rust_sources_under(&entry.path().join("src"), &mut sources);
    }
    assert!(
        sources.len() > 10,
        "suspiciously few sources found ({}) — did the layout move?",
        sources.len()
    );
    sources
        .into_iter()
        .map(|path| {
            let text = fs::read_to_string(&path).expect("readable source file");
            let rel = path.strip_prefix(root).expect("under the repo root");
            (rel.to_string_lossy().replace('\\', "/"), text)
        })
        .collect()
}

#[test]
fn env_knobs_in_the_workspace_are_exactly_the_documented_set() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut used = BTreeSet::new();
    for (_, text) in crate_sources(&root) {
        used.extend(knob_idents(&text));
    }

    // KNOBS.md names no live knob before the "Removed knobs" heading;
    // the table under it names the ones the code must no longer know.
    let knobs_md =
        fs::read_to_string(root.join("docs").join("KNOBS.md")).expect("readable docs/KNOBS.md");
    let (live, removed) = knobs_md
        .split_once("## Removed knobs")
        .expect("docs/KNOBS.md has a `## Removed knobs` section");
    let (live, removed) = (knob_idents(live), knob_idents(removed));
    assert!(
        live.is_empty() && removed.contains("MVIO_CHECK"),
        "docs/KNOBS.md must document no live knob: live {live:?}, removed {removed:?}"
    );
    assert!(
        used.is_empty(),
        "crate sources name MVIO_* identifiers: {used:?}"
    );
}

#[test]
fn the_environment_is_read_only_where_the_knobs_are_documented() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let readers: Vec<String> = crate_sources(&root)
        .into_iter()
        .filter(|(_, text)| {
            // Unit tests sit in a trailing `#[cfg(test)]` module.
            let code = text.split("#[cfg(test)]").next().unwrap_or_default();
            code.contains("env::var")
        })
        .map(|(path, _)| path)
        .collect();
    assert_eq!(
        readers,
        Vec::<String>::new(),
        "non-test crate code reads the environment"
    );
}

#[test]
fn knob_ident_extraction_handles_word_boundaries() {
    let set = knob_idents("reads MVIO_FOO_BAR, then `MVIO_BAZ=1`; ignores MVIO_ alone");
    assert_eq!(
        set.into_iter().collect::<Vec<_>>(),
        vec!["MVIO_BAZ".to_string(), "MVIO_FOO_BAR".to_string()]
    );
}
