//! The four rule matchers. Each walks a [`MaskedFile`] and appends
//! [`Finding`]s; test regions and `// audit:`-marked lines are exempt
//! where the rule allows it.

use crate::mask::MaskedFile;
use crate::Finding;
use std::path::Path;

/// R1: no `.unwrap()` / `.expect("…")` in non-test library code.
///
/// `.expect(` is only matched with a string-literal argument so that
/// fallible parser methods *named* `expect` (taking byte arguments)
/// don't false-positive. An `// audit:` marker on the same or the
/// preceding line exempts a documented invariant.
pub fn no_panic(path: &Path, m: &MaskedFile, out: &mut Vec<Finding>) {
    for (i, line) in m.code.iter().enumerate() {
        if m.in_test[i] || audited(m, i) {
            continue;
        }
        let hit = line.contains(".unwrap()")
            || line.contains(".expect(\"")
            // Multi-line call: `.expect(` as the last code on the line.
            || line.trim_end().ends_with(".expect(");
        if hit {
            out.push(Finding {
                path: path.to_path_buf(),
                line: i + 1,
                rule: "no-panic",
                message: format!(
                    "unwrap/expect in library code (return a typed error, or document \
                     the invariant with an `// audit:` marker): `{}`",
                    m.raw[i].trim()
                ),
            });
        }
    }
}

/// R2: narrowing `as` casts inside wire-format decode functions need an
/// `// audit:` marker (or a checked conversion instead).
///
/// A "decode function" is one whose body mentions `from_le_bytes` /
/// `from_be_bytes` or one of the repo's little-endian field helpers.
/// Casts of `SCREAMING_CASE` constants and integer literals are exempt:
/// those are compile-time-known values, not wire data.
pub fn checked_narrowing(path: &Path, m: &MaskedFile, out: &mut Vec<Finding>) {
    for (start, end) in fn_spans(&m.code) {
        if m.in_test[start] {
            continue;
        }
        let body = &m.code[start..=end];
        if !body.iter().any(|l| is_decode_marker(l)) {
            continue;
        }
        for (off, line) in body.iter().enumerate() {
            let i = start + off;
            if m.in_test[i] || audited(m, i) {
                continue;
            }
            for at in narrowing_casts(line) {
                if benign_cast_source(line, at) {
                    continue;
                }
                out.push(Finding {
                    path: path.to_path_buf(),
                    line: i + 1,
                    rule: "checked-narrowing",
                    message: format!(
                        "unchecked narrowing cast in a wire-format decode path (use a \
                         checked conversion, or justify with `// audit:`): `{}`",
                        m.raw[i].trim()
                    ),
                });
            }
        }
    }
}

/// R3: every `pub fn` taking `&mut Comm` must mention "collective" in
/// its doc comment — stating the collective-matching contract (or that
/// the function has none).
pub fn collective_contract(path: &Path, m: &MaskedFile, out: &mut Vec<Finding>) {
    for (i, line) in m.code.iter().enumerate() {
        if m.in_test[i] {
            continue;
        }
        let Some(name) = pub_fn_name(line) else {
            continue;
        };
        // Accumulate the signature until its body opens or it ends in a
        // `;` (trait method declarations).
        let mut sig = String::new();
        for l in &m.code[i..m.code.len().min(i + 24)] {
            sig.push_str(l);
            sig.push(' ');
            if l.contains('{') || l.contains(';') {
                break;
            }
        }
        let Some(params) = param_list(&sig) else {
            continue;
        };
        if !takes_mut_comm(&params) {
            continue;
        }
        let doc = doc_block_above(m, i);
        if !doc.to_lowercase().contains("collective") {
            out.push(Finding {
                path: path.to_path_buf(),
                line: i + 1,
                rule: "collective-contract",
                message: format!(
                    "pub fn `{name}` takes `&mut Comm` but its doc comment does not \
                     state the collective-matching contract (say which collectives it \
                     enters and that every rank must call it — or that it is not \
                     collective)"
                ),
            });
        }
    }
}

/// R4: the engine reads views — non-test code under `crates/sjoin/src`
/// builds no geometry from a wire frame: no `.to_feature(`,
/// `wkb::decode(` or `wkb::decode_all(`. Frames are read in place as
/// `wkb::decode_ref` views, which the exact predicates accept as they are.
pub fn engine_reads_views(path: &Path, m: &MaskedFile, out: &mut Vec<Finding>) {
    if !path.starts_with("crates/sjoin/src") {
        return;
    }
    const BUILDS: &[&str] = &[".to_feature(", "wkb::decode(", "wkb::decode_all("];
    for (i, line) in m.code.iter().enumerate() {
        if m.in_test[i] {
            continue;
        }
        if let Some(call) = BUILDS.iter().find(|c| line.contains(*c)) {
            out.push(Finding {
                path: path.to_path_buf(),
                line: i + 1,
                rule: "engine-reads-views",
                message: format!(
                    "`{call}` builds owned geometry from a frame in the engine (read it \
                     as a `wkb::decode_ref` view instead): `{}`",
                    m.raw[i].trim()
                ),
            });
        }
    }
}

/// Whether line `i` carries an `audit:` marker, either on the line
/// itself or anywhere in the contiguous comment block directly above it
/// (a justification often needs more than one comment line).
fn audited(m: &MaskedFile, i: usize) -> bool {
    if m.audit[i] {
        return true;
    }
    let mut k = i;
    while k > 0 {
        k -= 1;
        let is_comment = m.raw[k].trim_start().starts_with("//");
        if !is_comment {
            return false;
        }
        if m.audit[k] {
            return true;
        }
    }
    false
}

/// Brace-tracked `(start, end)` line spans of `fn` items, including
/// nested closures (a span covers the whole outer function).
fn fn_spans(code: &[String]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if !is_fn_line(&code[i]) {
            i += 1;
            continue;
        }
        let mut depth = 0i32;
        let mut opened = false;
        let mut j = i;
        while j < code.len() {
            for ch in code[j].bytes() {
                match ch {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => depth -= 1,
                    b';' if !opened && depth == 0 => {
                        // Declaration without a body (trait method).
                        opened = true;
                    }
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            j += 1;
        }
        spans.push((i, j.min(code.len() - 1)));
        i = j + 1;
    }
    spans
}

/// Whether a masked line starts a `fn` item (not `fn` in prose — the
/// masker already blanked comments and strings).
fn is_fn_line(line: &str) -> bool {
    line.split_whitespace().any(|w| w == "fn")
        || line.contains(" fn ")
        || line.trim_start().starts_with("fn ")
}

/// Whether the line touches decoded wire bytes.
fn is_decode_marker(line: &str) -> bool {
    const MARKERS: &[&str] = &[
        "from_le_bytes",
        "from_be_bytes",
        "le_u64(",
        "le_len(",
        "u64_at(",
        "u32_at(",
        "f64_at(",
        "cell_from_wire(",
        // Zero-copy frame walkers: functions that slice borrowed wire
        // buffers are decode paths even though the byte reads happen in
        // the helpers they call.
        "decode_ref(",
        "record_frames(",
        "validate_frames(",
    ];
    MARKERS.iter().any(|p| line.contains(p))
}

/// Byte offsets of `as u8|u16|u32|usize` casts on the line.
fn narrowing_casts(line: &str) -> Vec<usize> {
    let mut found = Vec::new();
    let b = line.as_bytes();
    let mut from = 0usize;
    while let Some(p) = line[from..].find(" as ") {
        let at = from + p;
        let after = line[at + 4..].trim_start();
        let narrow = ["u8", "u16", "u32", "usize"]
            .iter()
            .any(|t| after.starts_with(t) && !ident_continues(after.as_bytes(), t.len()));
        if narrow && at > 0 && !b[at].is_ascii_alphanumeric() {
            found.push(at);
        }
        from = at + 4;
    }
    found
}

/// Whether the identifier continues past `len` bytes (so `usize` doesn't
/// match a hypothetical `usize_like` type).
fn ident_continues(b: &[u8], len: usize) -> bool {
    b.get(len)
        .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
}

/// Whether the expression being cast at `at` (the offset of `" as "`) is
/// compile-time-known: a `SCREAMING_CASE` constant, an integer literal,
/// or a boolean-yielding call — values that cannot carry corrupt wire
/// data.
fn benign_cast_source(line: &str, at: usize) -> bool {
    let before = line[..at].trim_end();
    // Last identifier-ish token.
    let token: String = before
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    if token.is_empty() {
        return false; // cast of a parenthesized expression — flag it
    }
    if token.chars().all(|c| c.is_ascii_digit()) {
        return true; // integer literal
    }
    token
        .chars()
        .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// The function name if the masked line declares a `pub fn` (including
/// `pub(crate)` and friends).
fn pub_fn_name(line: &str) -> Option<String> {
    let t = line.trim_start();
    let rest = t.strip_prefix("pub")?;
    let rest = rest
        .strip_prefix('(')
        .map_or(rest, |r| r.split_once(')').map_or(r, |(_, after)| after));
    let rest = rest.trim_start();
    // Allow qualifiers between the visibility and `fn`.
    let mut words = rest.split_whitespace();
    loop {
        match words.next()? {
            "fn" => break,
            "const" | "unsafe" | "async" | "extern" => continue,
            w if w.starts_with('"') => continue, // extern "C"
            _ => return None,
        }
    }
    let name = words.next()?;
    let name = name.split(['(', '<']).next().unwrap_or(name);
    (!name.is_empty()).then(|| name.to_string())
}

/// The parenthesized parameter list of a signature (first balanced
/// `(...)` group after `fn`).
fn param_list(sig: &str) -> Option<String> {
    let fn_at = sig.find("fn ")?;
    let open = fn_at + sig[fn_at..].find('(')?;
    let b = sig.as_bytes();
    let mut depth = 0i32;
    for (i, &c) in b.iter().enumerate().skip(open) {
        match c {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(sig[open + 1..i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

/// Whether a parameter list contains a `&mut Comm` (or `&'a mut Comm`)
/// parameter.
fn takes_mut_comm(params: &str) -> bool {
    let mut rest = params;
    while let Some(p) = rest.find("mut ") {
        let before = rest[..p].trim_end();
        let is_ref = before.ends_with('&') || {
            // &'a mut — lifetime between & and mut.
            let no_lt = before
                .trim_end_matches(|c: char| c.is_ascii_alphanumeric() || c == '_' || c == '\'');
            before.contains('\'') && no_lt.trim_end().ends_with('&')
        };
        let after = rest[p + 4..].trim_start();
        if is_ref && (after.starts_with("Comm,") || after == "Comm" || after.starts_with("Comm)"))
            || (is_ref && after.starts_with("Comm") && !ident_continues(after.as_bytes(), 4))
        {
            return true;
        }
        rest = &rest[p + 4..];
    }
    false
}

/// The contiguous doc-comment text above line `i`, skipping attribute
/// lines between the docs and the item.
fn doc_block_above(m: &MaskedFile, i: usize) -> String {
    let mut parts: Vec<&str> = Vec::new();
    let mut k = i;
    while k > 0 {
        k -= 1;
        if let Some(d) = &m.doc[k] {
            parts.push(d);
        } else {
            let t = m.raw[k].trim();
            // Attributes and their continuation lines sit between docs
            // and the fn; plain comments also don't break the block.
            if t.starts_with("#[") || t.starts_with("//") || t.ends_with(']') || t.ends_with(',') {
                continue;
            }
            break;
        }
    }
    parts.reverse();
    parts.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_for(src: &str) -> Vec<(usize, &'static str)> {
        let m = MaskedFile::new(src);
        let mut out = Vec::new();
        let p = Path::new("crates/sjoin/src/t.rs");
        no_panic(p, &m, &mut out);
        checked_narrowing(p, &m, &mut out);
        collective_contract(p, &m, &mut out);
        engine_reads_views(p, &m, &mut out);
        out.into_iter().map(|f| (f.line, f.rule)).collect()
    }

    #[test]
    fn unwrap_in_library_code_is_flagged() {
        let f = findings_for("fn f() { x.unwrap(); }\n");
        assert_eq!(f, vec![(1, "no-panic")]);
    }

    #[test]
    fn audit_marker_exempts_expect() {
        let src = "fn f() {\n    // audit: invariant holds because …\n    x.expect(\"m\");\n}\n";
        assert!(findings_for(src).is_empty());
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(findings_for(src).is_empty());
    }

    #[test]
    fn parser_method_named_expect_is_not_flagged() {
        assert!(findings_for("fn f() { p.expect(b'(')?; }\n").is_empty());
    }

    #[test]
    fn narrowing_in_decode_fn_is_flagged_and_consts_are_exempt() {
        let src = "fn decode(b: &[u8]) -> u32 {\n    let w = u64::from_le_bytes(a);\n    let n = w as u32;\n    let h = HEADER_LEN as usize;\n    n\n}\n";
        let f = findings_for(src);
        assert_eq!(f, vec![(3, "checked-narrowing")]);
    }

    #[test]
    fn narrowing_outside_decode_fns_is_not_flagged() {
        assert!(findings_for("fn f(x: u64) -> u32 { x as u32 }\n").is_empty());
    }

    #[test]
    fn frame_walkers_mark_a_fn_as_decode_path() {
        // The zero-copy helpers slice wire buffers without calling
        // from_le_bytes themselves — they must still pull R2 coverage.
        for call in [
            "decode_ref(buf)",
            "record_frames(buf)",
            "validate_frames(buf)",
        ] {
            let src = format!(
                "fn walk(buf: &[u8], w: u64) -> u32 {{\n    let v = {call};\n    w as u32\n}}\n"
            );
            let f = findings_for(&src);
            assert_eq!(f, vec![(3, "checked-narrowing")], "marker {call}");
        }
    }

    #[test]
    fn undocumented_mut_comm_fn_is_flagged() {
        let src = "/// Does things.\npub fn f(comm: &mut Comm) {}\n";
        assert_eq!(findings_for(src), vec![(2, "collective-contract")]);
    }

    #[test]
    fn collective_doc_satisfies_the_contract() {
        let src = "/// Collective: every rank must call it.\npub fn f(comm: &mut Comm) {}\n";
        assert!(findings_for(src).is_empty());
    }

    #[test]
    fn multiline_signature_is_parsed() {
        let src =
            "/// Plain docs.\npub fn f(\n    a: u32,\n    comm: &mut Comm,\n) -> u32 {\n    a\n}\n";
        assert_eq!(findings_for(src), vec![(2, "collective-contract")]);
    }

    #[test]
    fn non_pub_and_mut_self_fns_are_exempt_from_r3() {
        let src = "fn f(comm: &mut Comm) {}\npub fn g(&mut self) {}\n";
        assert!(findings_for(src).is_empty());
    }

    #[test]
    fn engine_building_geometry_from_a_frame_is_flagged() {
        let src =
            "fn f(fr: &Frame) {\n    let g = wkb::decode_ref(fr.wkb);\n    fr.to_feature()?;\n}\n";
        assert_eq!(findings_for(src), vec![(3, "engine-reads-views")]);
    }

    #[test]
    fn comments_tests_and_other_crates_are_clean_for_r4() {
        let src = "fn f() {\n    // wkb::decode( in a comment\n}\n#[cfg(test)]\nmod tests {\n    fn t() { wkb::decode_all(b); }\n}\n";
        assert!(findings_for(src).is_empty());
        let (mut out, core) = (Vec::new(), MaskedFile::new("fn f() { wkb::decode(b); }\n"));
        engine_reads_views(Path::new("crates/core/src/exchange.rs"), &core, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn doc_block_skips_attributes() {
        let src = "/// Collective rendezvous.\n#[allow(dead_code)]\npub fn f(comm: &mut Comm) {}\n";
        assert!(findings_for(src).is_empty());
    }
}
