//! The nine rule matchers. Each walks a [`MaskedFile`] (R9 walks all of
//! them at once) and appends [`Finding`]s; test regions and
//! `// audit:`-marked lines are exempt where the rule allows it.

use crate::mask::MaskedFile;
use crate::Finding;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

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
/// builds no geometry from a wire frame: no `.to_feature(` or
/// `wkb::decode(`. Frames are read in place as
/// `wkb::decode_ref` views, which the exact predicates accept as they are.
pub fn engine_reads_views(path: &Path, m: &MaskedFile, out: &mut Vec<Finding>) {
    if path.starts_with("crates/sjoin/src") {
        const BUILDS: &[&str] = &[".to_feature(", "wkb::decode("];
        let why = "builds owned geometry from a frame in the engine (read it as a \
                   `wkb::decode_ref` view instead)";
        flag_calls(path, m, BUILDS, "engine-reads-views", why, out);
    }
}

/// R5: one thread per rank — non-test library code spawns no thread
/// (`thread::spawn(`, `thread::scope(`, `thread::Builder`) outside
/// `crates/msim/src/world.rs`, which runs each simulated rank on its own
/// OS thread. Parallelism inside a rank is modelled as worker lanes, not
/// executed.
pub fn one_thread_per_rank(path: &Path, m: &MaskedFile, out: &mut Vec<Finding>) {
    if path != Path::new("crates/msim/src/world.rs") {
        const SPAWNS: &[&str] = &["thread::spawn(", "thread::scope(", "thread::Builder"];
        let why = "runs a thread outside the rank launcher (charge the work to a \
                   modelled lane instead)";
        flag_calls(path, m, SPAWNS, "one-thread-per-rank", why, out);
    }
}

/// R7: the front half encodes nothing — non-test code in
/// `crates/core/src/pipeline.rs` calls no object encoder (`wkb::encode…`,
/// `encode_into_scratch`, `serialize_record(`). Its records arrive as the
/// WKB the parser transcoded from text, and every replica is a copy of
/// those bytes.
pub fn front_half_encodes_nothing(path: &Path, m: &MaskedFile, out: &mut Vec<Finding>) {
    if path == Path::new("crates/core/src/pipeline.rs") {
        const ENCODERS: &[&str] = &["wkb::encode", "encode_into_scratch", "serialize_record("];
        let why = "encodes an object in the text front half (records arrive transcoded: \
                   copy their bytes instead)";
        flag_calls(path, m, ENCODERS, "front-half-encodes-nothing", why, out);
    }
}

/// R8: the front half posts its reads — non-test code in
/// `crates/core/src/pipeline.rs` calls no blocking partitioned read
/// (`read_partition_text(`, `read_blocked(`, `read_at_together(`). Every
/// layer's read is posted up front and finished under the transcode, so
/// a later layer's pieces land while an earlier one is parsed.
pub fn front_half_posts_its_reads(path: &Path, m: &MaskedFile, out: &mut Vec<Finding>) {
    if path == Path::new("crates/core/src/pipeline.rs") {
        const READS: &[&str] = &["read_partition_text(", "read_blocked(", "read_at_together("];
        let why = "reads a layer before its transcode (post every layer's read up front \
                   with `post_partition_text` and finish it under the parse)";
        flag_calls(path, m, READS, "front-half-posts-its-reads", why, out);
    }
}

/// The `pub fn`s R9 lets stand without a non-test caller in another
/// file, each under its reason: tests in other crates or under `tests/`
/// call them, and R9 counts no test as a caller. A fn R9 matches by path
/// is listed as `module::name`.
pub const DEAD_PUB_FN_ALLOW: &[&str] = &[
    // SimFile: the corruption fixture of the snapshot and engine tests.
    "poke",
    // FsConfig: the small filesystem other crates' unit tests build on.
    "test_tiny",
    // The check record_frames requires; tests/common builds frames with it.
    "validate_frames",
    // ApproxTable: proptest_geom checks that the hull holds every left vertex.
    "hull",
    // QueryEngine: the snapshot reload path that failure_injection sweeps.
    "from_snapshot",
    // proptest_decomp's oracle for the Hilbert cell order.
    "hilbert_key_cells_order",
    // proptest_geom locates generated points in owned polygons with it.
    "point_in_polygon",
    // proptest_geom measures its inner-disc radii with it.
    "point_segment_distance",
    // failure_injection walks a received answer block with it.
    "answer_entries",
    // The owned WKB decoder, kept as the independent oracle the view
    // decoders are checked against: exchange::tests holds validate_frames
    // to it and proptest_geom holds decode_ref to it.
    "wkb::decode",
];

/// The line of [`DEAD_PUB_FN_ALLOW`]'s closing bracket, where R9 reports
/// a stale entry.
const DEAD_PUB_FN_ALLOW_END: usize = line!() as usize - 4;

/// R9: no dead `pub fn` — a library `pub fn` (not `pub(crate)`) fails
/// when nothing outside its own file names it in non-test code, unless
/// `allow` names it. An `allow` entry that names no scanned `pub fn` is
/// stale and fails too, reported at [`DEAD_PUB_FN_ALLOW`]. Definitions are read from `scanned`; callers are
/// searched in the non-test code of `scanned` and of `callers` (the
/// experiment harness, the examples and the benchmark), outside `fn`
/// declarations and `pub use` re-exports, and never in a comment or a
/// string.
///
/// Most fns are matched by name: a whole identifier equal to theirs is a
/// use. A free fn (declared at the start of a line, so not a method)
/// whose name another fn in `scanned` also declares is matched by path
/// instead: only `module::name`, or a `use` that imports `name` from
/// `module`, is a use of it, where `module` is its file's
/// [`module_name`]; a `pub use` of it in file `f` makes `f`'s module
/// reach it too, under its alias if the re-export renames it. Its
/// `allow` entry is `module::name`. A method that shares its name with
/// a live one elsewhere (`len`, `new`) is still missed.
pub fn no_dead_pub_fn(
    scanned: &[(PathBuf, MaskedFile)],
    callers: &[(PathBuf, MaskedFile)],
    allow: &[&str],
    out: &mut Vec<Finding>,
) {
    let files: Vec<&(PathBuf, MaskedFile)> = scanned.iter().chain(callers).collect();
    let uses: Vec<Uses> = files.iter().map(|(_, m)| Uses::of(m)).collect();
    let mut declared: HashMap<&str, usize> = HashMap::new();
    for u in &uses[..scanned.len()] {
        for name in &u.declared {
            *declared.entry(name).or_default() += 1;
        }
    }
    let mut listed: HashSet<String> = HashSet::new();
    for (k, (path, m)) in scanned.iter().enumerate() {
        let module = module_name(path);
        for (i, line) in m.code.iter().enumerate() {
            // `pub(crate)` and friends are the demoted form: reachable
            // from a sibling file's tests without being public API.
            if m.in_test[i] || !line.trim_start().starts_with("pub ") {
                continue;
            }
            let Some(name) = pub_fn_name(line) else {
                continue;
            };
            let by_path = line.starts_with("pub ") && declared.get(name.as_str()) > Some(&1);
            let paths = if by_path {
                reachable_as(module, &name, &files, &uses)
            } else {
                Vec::new()
            };
            let called = uses.iter().enumerate().any(|(j, u)| {
                j != k
                    && if by_path {
                        paths.iter().any(|p| u.paths.contains(p))
                    } else {
                        u.names.contains(name.as_str())
                    }
            });
            let entry = if by_path {
                format!("{module}::{name}")
            } else {
                name.clone()
            };
            if allow.contains(&entry.as_str()) {
                listed.insert(entry);
            } else if !called {
                out.push(Finding {
                    path: path.clone(),
                    line: i + 1,
                    rule: "no-dead-pub-fn",
                    message: format!(
                        "pub fn `{entry}` has no non-test caller outside this file (delete it, \
                         make it private, or allow-list it with a reason)"
                    ),
                });
            }
        }
    }
    for entry in allow.iter().filter(|e| !listed.contains(**e)) {
        out.push(Finding {
            path: PathBuf::from(file!()),
            line: DEAD_PUB_FN_ALLOW_END,
            rule: "no-dead-pub-fn",
            message: format!(
                "allow-list entry `{entry}` names no pub fn (remove it from DEAD_PUB_FN_ALLOW)"
            ),
        });
    }
}

/// The name other code reaches a file's items through: its stem, or
/// its directory's name for a `mod.rs`.
fn module_name(path: &Path) -> &str {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let dir = path.parent().and_then(Path::file_name);
    match (stem, dir.and_then(|d| d.to_str())) {
        ("mod", Some(dir)) => dir,
        _ => stem,
    }
}

/// Every `(module, name)` path item `name` of `module` can be reached
/// through: its own and, transitively, each `pub use` re-export of one
/// of them (under the re-exporting file's module, and its alias if any).
fn reachable_as<'a>(
    module: &'a str,
    name: &'a str,
    files: &[&'a (PathBuf, MaskedFile)],
    uses: &[Uses<'a>],
) -> Vec<(&'a str, &'a str)> {
    let mut paths = vec![(module, name)];
    let mut i = 0;
    while i < paths.len() {
        for (f, u) in files.iter().zip(uses) {
            for &(m, n, alias) in &u.exports {
                let via = (module_name(&f.0), alias);
                if (m, n) == paths[i] && !paths.contains(&via) {
                    paths.push(via);
                }
            }
        }
        i += 1;
    }
    paths
}

/// What the non-test code of one file names. A `pub use` re-export
/// passes a name on and does not call it, so its names go to `exports`
/// alone.
#[derive(Default)]
struct Uses<'a> {
    /// Every identifier but the names `fn` declares.
    names: HashSet<&'a str>,
    /// Every `(module, name)` a path spells out: `module::name` in code,
    /// and each name a `use module::{a, b}` group imports (nested groups
    /// included).
    paths: HashSet<(&'a str, &'a str)>,
    /// The `(module, name, exported as)` items `pub use` re-exports
    /// spell out (`exported as` is `name` unless an `as` renames it).
    exports: Vec<(&'a str, &'a str, &'a str)>,
    /// The names `fn` declares.
    declared: Vec<&'a str>,
}

impl<'a> Uses<'a> {
    fn of(m: &'a MaskedFile) -> Self {
        let mut u = Uses::default();
        let mut in_re_export = false;
        // The identifier a `::` may follow, and the module of each open
        // `{` (`None` for a brace that opens no `use` group).
        let mut head: Option<&str> = None;
        let mut groups: Vec<Option<&str>> = Vec::new();
        let mut last = "";
        for (i, line) in m.code.iter().enumerate() {
            if m.in_test[i] {
                continue;
            }
            in_re_export |= is_re_export(line);
            let re_export = in_re_export;
            if in_re_export {
                in_re_export = !line.contains(';');
            }
            for tok in tokens(line) {
                match tok {
                    "::" | "," => {}
                    "{" => groups.push(if last == "::" { head } else { None }),
                    "}" => {
                        groups.pop();
                    }
                    t if t.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_') => {
                        if last == "fn" {
                            u.declared.push(t);
                        } else if !re_export {
                            u.names.insert(t);
                        }
                        let module = match last {
                            "::" => head,
                            "{" | "," => groups.last().copied().flatten(),
                            _ => None,
                        };
                        match (module, re_export) {
                            (Some(module), false) => {
                                u.paths.insert((module, t));
                            }
                            (Some(module), true) => u.exports.push((module, t, t)),
                            (None, true) if last == "as" => {
                                if let Some(item) = u.exports.last_mut() {
                                    item.2 = t;
                                }
                            }
                            (None, _) => {}
                        }
                        head = Some(t);
                    }
                    _ => head = None,
                }
                last = tok;
            }
        }
        u
    }
}

/// The tokens of a masked code line: identifiers, `::`, and every other
/// non-space character on its own.
fn tokens(line: &str) -> impl Iterator<Item = &str> {
    let mut rest = line;
    std::iter::from_fn(move || {
        rest = rest.trim_start();
        let c = rest.chars().next()?;
        let len = if c.is_ascii_alphanumeric() || c == '_' {
            rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len())
        } else if rest.starts_with("::") {
            2
        } else {
            c.len_utf8()
        };
        let (tok, tail) = rest.split_at(len);
        rest = tail;
        Some(tok)
    })
}

/// Whether `line` opens a re-export: `pub use …` or `pub(…) use …`.
fn is_re_export(line: &str) -> bool {
    let Some(rest) = line.trim_start().strip_prefix("pub") else {
        return false;
    };
    let rest = match rest.strip_prefix('(') {
        Some(scoped) => scoped.split_once(')').map_or("", |(_, after)| after),
        None => rest,
    };
    rest.trim_start().starts_with("use ") && rest.starts_with(char::is_whitespace)
}

/// Reports every non-test line of `m` that contains one of `calls`, as
/// `rule`, saying `why`.
fn flag_calls(
    path: &Path,
    m: &MaskedFile,
    calls: &[&str],
    rule: &'static str,
    why: &str,
    out: &mut Vec<Finding>,
) {
    for (i, line) in m.code.iter().enumerate() {
        if m.in_test[i] {
            continue;
        }
        if let Some(call) = calls.iter().find(|c| line.contains(*c)) {
            out.push(Finding {
                path: path.to_path_buf(),
                line: i + 1,
                rule,
                message: format!("`{call}` {why}: `{}`", m.raw[i].trim()),
            });
        }
    }
}

/// R6: a charge follows the work — a `Work::SerializeGeoms` charge in
/// non-test library code sits inside a function that calls an encoder
/// (`serialize_record(`, `wkb::encode…`). Copying bytes that are already
/// encoded (forwarding frames, emitting a record from one encoding,
/// writing answer blocks) is `Work::CopyBytes` work, not an
/// object encode at 12 µs a piece.
pub fn serialize_charge_follows_encode(path: &Path, m: &MaskedFile, out: &mut Vec<Finding>) {
    const ENCODERS: &[&str] = &["serialize_record(", "wkb::encode"];
    for (start, end) in fn_spans(&m.code) {
        if m.in_test[start] {
            continue;
        }
        let body = &m.code[start..=end];
        if body.iter().any(|l| ENCODERS.iter().any(|e| l.contains(e))) {
            continue;
        }
        for i in start..=end {
            if !m.in_test[i] && charges_serialize(&m.code, i) {
                out.push(Finding {
                    path: path.to_path_buf(),
                    line: i + 1,
                    rule: "serialize-charge-follows-encode",
                    message: format!(
                        "`Work::SerializeGeoms` charged in a function that encodes nothing \
                         (a copy of already-encoded bytes is `Work::CopyBytes`): `{}`",
                        m.raw[i].trim()
                    ),
                });
            }
        }
    }
}

/// Whether masked line `i` charges `Work::SerializeGeoms`: the variant
/// is the argument of a `charge(` call opened on the same line or ending
/// the line above (a `match` arm or a cost estimate is not a charge).
fn charges_serialize(code: &[String], i: usize) -> bool {
    let Some(at) = code[i].find("Work::SerializeGeoms") else {
        return false;
    };
    let before = code[i][..at].trim_end();
    before.ends_with("charge(")
        || (before.is_empty() && i > 0 && code[i - 1].trim_end().ends_with("charge("))
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
        one_thread_per_rank(p, &m, &mut out);
        serialize_charge_follows_encode(p, &m, &mut out);
        front_half_encodes_nothing(p, &m, &mut out);
        front_half_posts_its_reads(p, &m, &mut out);
        out.into_iter().map(|f| (f.line, f.rule)).collect()
    }

    /// R9's findings over `files` (named `f0.rs`, `f1.rs`, …) with
    /// `callers` as caller-only files (`c0.rs`, …), as `(file, line)`.
    fn dead_fns(files: &[&str], callers: &[&str], allow: &[&str]) -> Vec<(String, usize)> {
        let scanned: Vec<(PathBuf, MaskedFile)> = files
            .iter()
            .enumerate()
            .map(|(i, src)| (PathBuf::from(format!("f{i}.rs")), MaskedFile::new(src)))
            .collect();
        let callers: Vec<(PathBuf, MaskedFile)> = callers
            .iter()
            .enumerate()
            .map(|(i, src)| (PathBuf::from(format!("c{i}.rs")), MaskedFile::new(src)))
            .collect();
        let mut out = Vec::new();
        no_dead_pub_fn(&scanned, &callers, allow, &mut out);
        assert!(out.iter().all(|f| f.rule == "no-dead-pub-fn"));
        out.into_iter()
            .map(|f| (f.path.display().to_string(), f.line))
            .collect()
    }

    const LIB: &str = "pub fn helper() {}\nfn other() { helper(); }\n";

    #[test]
    fn a_fn_called_only_in_its_own_file_is_flagged() {
        let user = "fn main() { run(); }\n";
        assert_eq!(dead_fns(&[LIB, user], &[], &[]), vec![("f0.rs".into(), 1)]);
        // The demoted form is not public API.
        let demoted = LIB.replace("pub fn", "pub(crate) fn");
        assert!(dead_fns(&[&demoted], &[], &[]).is_empty());
    }

    #[test]
    fn a_caller_in_a_cfg_test_region_does_not_count() {
        let tests = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { super::helper(); }\n}\n";
        assert_eq!(dead_fns(&[LIB, tests], &[], &[]), vec![("f0.rs".into(), 1)]);
    }

    #[test]
    fn a_caller_in_a_second_file_passes() {
        let user = "use crate::a::helper;\nfn run() { helper(); }\n";
        assert!(dead_fns(&[LIB, user], &[], &[]).is_empty());
        // Caller-only files (harness, examples, benchmark) count too, and
        // their own `pub fn`s are not checked.
        let bench = "pub fn unused() {}\nfn main() { mvio::helper(); }\n";
        assert!(dead_fns(&[LIB], &[bench], &[]).is_empty());
    }

    #[test]
    fn an_allow_listed_fn_passes() {
        assert!(dead_fns(&[LIB], &[], &["helper"]).is_empty());
        // `other` is no pub fn: `helper` is dead and the entry is stale.
        let stale = (file!().to_string(), DEAD_PUB_FN_ALLOW_END);
        assert_eq!(
            dead_fns(&[LIB], &[], &["other"]),
            vec![("f0.rs".into(), 1), stale]
        );
    }

    #[test]
    fn a_stale_allow_entry_is_flagged() {
        // `helper` is declared, so its entry stands; `gone` names no fn.
        let at = (file!().to_string(), DEAD_PUB_FN_ALLOW_END);
        assert_eq!(dead_fns(&[LIB], &[], &["helper", "gone"]), vec![at]);
        // An entry of a fn matched by path needs its module.
        let namesake = "fn helper() {}\n";
        let stale = dead_fns(&[LIB, namesake], &[], &["f0::helper", "helper"]);
        assert_eq!(stale.len(), 1, "{stale:?}");
        // The finding points at the list's closing bracket.
        let line = include_str!("rules.rs")
            .lines()
            .nth(DEAD_PUB_FN_ALLOW_END - 1);
        assert_eq!(line, Some("];"));
    }

    #[test]
    fn a_re_export_is_no_caller() {
        // Named only by a re-export (one line or several) and its own
        // tests: dead.
        let tests = "#[cfg(test)]\nmod tests {\n    fn t() { super::helper(); }\n}\n";
        for re_export in [
            "pub use a::helper;\n",
            "pub(crate) use a::helper;\n",
            "pub use a::{\n    helper,\n    other,\n};\n",
        ] {
            assert_eq!(
                dead_fns(&[LIB, re_export, tests], &[], &[]),
                vec![("f0.rs".into(), 1)],
                "{re_export:?}"
            );
        }
        // A call after the re-export still counts, and so does a plain
        // `use` followed by one.
        let called = "pub use a::{\n    helper,\n};\nfn run() { helper(); }\n";
        assert!(dead_fns(&[LIB, called], &[], &[]).is_empty());
        let imported = "use a::helper;\nfn run() { helper(); }\n";
        assert!(dead_fns(&[LIB, imported], &[], &[]).is_empty());
    }

    #[test]
    fn a_free_fn_sharing_its_name_is_matched_by_path() {
        // `helper` is declared twice, so a bare `helper()` is no use of
        // f0's: the namesake in f1 may be the one called.
        let namesake = "fn helper() {}\nfn g() { helper(); }\n";
        let dead = vec![("f0.rs".to_string(), 1)];
        assert_eq!(dead_fns(&[LIB, namesake], &[], &[]), dead);
        // A path, an import, and a path through a (renaming) re-export
        // each reach it.
        for user in [
            "fn u() { f0::helper(); }\n",
            "use crate::f0::{self, helper};\nfn u() { helper(); }\n",
            "use crate::{\n    f0::{helper, other},\n};\n",
        ] {
            assert!(
                dead_fns(&[LIB, namesake, user], &[], &[]).is_empty(),
                "{user:?}"
            );
        }
        let re_export = "pub use crate::f0::helper as assist;\n";
        let bench = "fn main() { mvio::f2::assist(); }\n";
        assert!(dead_fns(&[LIB, namesake, re_export], &[bench], &[]).is_empty());
        assert_eq!(dead_fns(&[LIB, namesake, re_export], &[], &[]), dead);
        // Its allow entry carries the module; a bare name no longer does.
        assert!(dead_fns(&[LIB, namesake], &[], &["f0::helper"]).is_empty());
        let stale = (file!().to_string(), DEAD_PUB_FN_ALLOW_END);
        let dead_and_stale = [dead.clone(), vec![stale]].concat();
        assert_eq!(dead_fns(&[LIB, namesake], &[], &["helper"]), dead_and_stale);
        // A method is matched by name as before.
        let method = "impl T {\n    pub fn helper() {}\n}\n";
        assert!(dead_fns(&[method, namesake], &[], &[]).is_empty());
    }

    #[test]
    fn a_name_in_a_comment_or_a_string_is_no_caller() {
        let prose = "// helper() is called by …\n/// See [`helper`].\nfn f() -> &'static str { \"helper\" }\n";
        assert_eq!(dead_fns(&[LIB, prose], &[], &[]), vec![("f0.rs".into(), 1)]);
        // Nor is a declaration of a namesake, or a longer identifier.
        let namesake = "fn helper() {}\nfn g() { helper_two(); }\n";
        assert_eq!(
            dead_fns(&[LIB, namesake], &[], &[]),
            vec![("f0.rs".into(), 1)]
        );
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
        let src = "fn f() {\n    // wkb::decode( in a comment\n}\n#[cfg(test)]\nmod tests {\n    fn t() { wkb::decode(b); }\n}\n";
        assert!(findings_for(src).is_empty());
        let (mut out, core) = (Vec::new(), MaskedFile::new("fn f() { wkb::decode(b); }\n"));
        engine_reads_views(Path::new("crates/core/src/exchange.rs"), &core, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn spawning_a_thread_in_library_code_is_flagged() {
        let src = "fn f() {\n    std::thread::scope(|s| {\n        s.spawn(|| ());\n    });\n}\n";
        let (mut out, m) = (Vec::new(), MaskedFile::new(src));
        one_thread_per_rank(Path::new("crates/core/src/pipeline.rs"), &m, &mut out);
        let rules: Vec<_> = out.iter().map(|f| (f.line, f.rule)).collect();
        assert_eq!(rules, vec![(2, "one-thread-per-rank")]);
    }

    #[test]
    fn rank_launcher_and_tests_are_clean_for_r5() {
        let launcher = MaskedFile::new("fn run() {\n    std::thread::Builder::new();\n}\n");
        let mut out = Vec::new();
        one_thread_per_rank(Path::new("crates/msim/src/world.rs"), &launcher, &mut out);
        assert!(out.is_empty());
        let src = "fn f() {\n    // thread::spawn( in a comment\n}\n#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| ()); }\n}\n";
        assert!(findings_for(src).is_empty());
    }

    #[test]
    fn serialize_charge_without_an_encode_is_flagged() {
        let src = "fn ship(comm: &mut Comm, buf: &mut Vec<u8>) {\n    emit_frames(side, buf);\n    comm.charge(Work::SerializeGeoms { n, bytes });\n    comm.charge(\n        Work::SerializeGeoms { n, bytes },\n    );\n}\n";
        let rule = "serialize-charge-follows-encode";
        assert_eq!(findings_for(src), vec![(3, rule), (5, rule)]);
    }

    #[test]
    fn encoders_cost_arms_and_tests_are_clean_for_r6() {
        let src = "fn route(comm: &mut Comm) {\n    wkb::encode_into_scratch(&g, &mut scratch);\n    comm.charge(Work::SerializeGeoms { n, bytes });\n}\nfn from_owned(comm: &mut Comm) {\n    serialize_record(cell, &f, &mut scratch, &mut out)?;\n    tally.charge(Work::SerializeGeoms { n, bytes });\n}\nfn cost(w: Work) -> f64 {\n    match w {\n        Work::SerializeGeoms { n, bytes } => 0.0,\n    }\n}\nfn estimate(m: &CostModel) -> f64 {\n    m.cost(Work::SerializeGeoms { n: 1, bytes: 0 })\n}\n#[cfg(test)]\nmod tests {\n    fn t() { comm.charge(Work::SerializeGeoms { n, bytes }); }\n}\n";
        assert!(findings_for(src).is_empty());
    }

    #[test]
    fn doc_block_skips_attributes() {
        let src = "/// Collective rendezvous.\n#[allow(dead_code)]\npub fn f(comm: &mut Comm) {}\n";
        assert!(findings_for(src).is_empty());
    }

    #[test]
    fn an_encoder_in_the_front_half_is_flagged() {
        let src = "fn stage(out: &mut Vec<u8>) {\n    wkb::encode_to(&g, out);\n    \
                   wkb::encode_into_scratch(&g, out);\n    serialize_record(cell, &f, s, out)?;\n    \
                   emit_record(cell, wkb, ud, out)?;\n}\n";
        let (mut out, m) = (Vec::new(), MaskedFile::new(src));
        front_half_encodes_nothing(Path::new("crates/core/src/pipeline.rs"), &m, &mut out);
        let found: Vec<_> = out.iter().map(|f| (f.line, f.rule)).collect();
        let rule = "front-half-encodes-nothing";
        assert_eq!(found, vec![(2, rule), (3, rule), (4, rule)]);
    }

    #[test]
    fn copies_comments_tests_and_other_files_are_clean_for_r7() {
        let src = "fn f() {\n    // wkb::encode_to( in a comment\n    Records::encode(comm, feats);\n    \
                   emit_record(cell, wkb, ud, out)?;\n}\n#[cfg(test)]\nmod tests {\n    \
                   fn t() { serialize_record(1, &f, s, b).unwrap(); }\n}\n";
        let (mut out, m) = (Vec::new(), MaskedFile::new(src));
        front_half_encodes_nothing(Path::new("crates/core/src/pipeline.rs"), &m, &mut out);
        assert!(out.is_empty());
        let encoder = MaskedFile::new("fn f() { wkb::encode_to(&g, out); }\n");
        front_half_encodes_nothing(Path::new("crates/core/src/exchange.rs"), &encoder, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn a_blocking_read_in_the_front_half_is_flagged() {
        let src = "fn ingest(comm: &mut Comm) {\n    read_partition_text(comm, fs, p, r)?;\n    \
                   read_blocked(comm, &file, r)?;\n    file.read_at_together(comm, 0, b)?;\n    \
                   post_partition_text(comm, fs, p, r)?;\n}\n";
        let (mut out, m) = (Vec::new(), MaskedFile::new(src));
        front_half_posts_its_reads(Path::new("crates/core/src/pipeline.rs"), &m, &mut out);
        let found: Vec<_> = out.iter().map(|f| (f.line, f.rule)).collect();
        let rule = "front-half-posts-its-reads";
        assert_eq!(found, vec![(2, rule), (3, rule), (4, rule)]);
    }

    #[test]
    fn posts_comments_tests_and_other_files_are_clean_for_r8() {
        let src = "use crate::partition::{post_partition_text, read_partition_text};\nfn f() {\n    \
                   // read_partition_text( in a comment\n    post_partition_text(comm, fs, p, r)?;\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { read_partition_text(c, f, p, r).unwrap(); }\n}\n";
        let (mut out, m) = (Vec::new(), MaskedFile::new(src));
        front_half_posts_its_reads(Path::new("crates/core/src/pipeline.rs"), &m, &mut out);
        assert!(out.is_empty());
        let reader = MaskedFile::new("fn f() { read_blocked(comm, &file, opts)?; }\n");
        front_half_posts_its_reads(
            Path::new("crates/core/src/partition/mod.rs"),
            &reader,
            &mut out,
        );
        assert!(out.is_empty());
    }
}
