//! The public surface may only shrink.
//!
//! This test lists every `pub` item (fn, struct, enum, const, static,
//! trait, type, mod) whose name appears nowhere in non-test code except
//! inside its own definition (a type's `impl` blocks count as part of
//! it). It fails on any such item that is not on [`ALLOWLIST`], and on
//! any allowlist entry that is no longer such an item (it is gone, or
//! something now calls it), so the list can only shrink. It is an
//! ordinary std-only test, so the plain `cargo test` runs it.
//!
//! Non-test code is `crates/*/src` (bins included), `crates/*/benches`,
//! `src/`, `examples/` and `benchmark/src`, with every item marked
//! `#[cfg(test)]` or `#[test]` cut out. Code blocks in doc comments
//! (doctests) and the Rust code blocks of `README.md` count as callers;
//! `tests/` and `crates/*/tests` do not. A `pub use` re-exports an item
//! without calling it, so the names it re-exports are not callers.
//!
//! The scan matches names, not paths: an item counts as called when any
//! identifier of the same name appears. It can therefore miss a dead
//! item that shares its name with a live one. The files are lexed, not
//! searched line by line, so comments, strings, char literals and
//! lifetimes never hide or invent a caller.
//!
//! ```text
//! cargo test --test surface
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Public items that no program calls and that stay, each with the
/// reason it stays. Entries read `crate: Type::item` (or `crate: item`
/// for a free item), where `crate` is the directory under `crates/`
/// (`modm` for `src/`).
const ALLOWLIST: &[(&str, &str)] = &[
    // Test support: another test calls it to check a different behaviour.
    (
        "cache: ImageCache::index_backend",
        "properties and engine tests check which index a cache built",
    ),
    (
        "cache: IndexedList::check_links",
        "the seed matrix checks the slot list's links against a model list",
    ),
    (
        "controlplane: FaultInjector::seeded",
        "golden and deploy tests draw crash schedules from it",
    ),
    (
        "deploy: EventLogObserver::kind_counts",
        "trace tests check the Perfetto export's event counts",
    ),
    (
        "deploy: summaries_to_json",
        "golden tests render their snapshots with it",
    ),
    (
        "experiments: churn_scenario_for",
        "golden and scenario tests run the churn study on other seeds",
    ),
    (
        "experiments: critical_path_table_for",
        "the golden test pins the critical-path table",
    ),
    (
        "metrics: LatencyReport::samples_secs",
        "engine tests check node and fleet latency samples agree bit for bit",
    ),
    (
        "scenario: Scenario::run_observed_scenario",
        "scenario tests check observed runs equal unobserved ones",
    ),
    (
        "simkit: Json::as_arr",
        "trace and telemetry tests walk exported JSON arrays",
    ),
    (
        "telemetry: SpanTracker::open_spans",
        "telemetry tests check no span is left open",
    ),
    (
        "trace: TraceConfig::with_head_sample",
        "a trace test sets the head-sampling rate",
    ),
    (
        "trace: TraceConfig::with_slowest",
        "a trace test sets the slowest-k retention",
    ),
    // Facade API the README documents.
    (
        "deploy: Summary::approx_eq",
        "README: the equivalence tests' tolerance compare",
    ),
    (
        "deploy: events_to_csv",
        "README: the event log's CSV export",
    ),
    (
        "deploy: events_to_json",
        "README: the event log's JSON Lines export",
    ),
    (
        "fleet: ShardedCache::rebalance",
        "README: the sharded cache's rebalance hook",
    ),
    (
        "workload: RateSchedule::bursty",
        "README: the Markov-modulated bursty arrival schedule",
    ),
    ("workload: parse_csv", "README: the trace CSV format"),
    ("workload: to_csv", "README: the trace CSV format"),
];

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    /// `::`, `->`, `=>` or one punctuation character.
    Punct(String),
    /// A string, char or number literal.
    Lit,
    /// A lifetime or loop label.
    Lifetime,
    /// The text of one doc comment (`///` or `//!`).
    Doc(String),
}

impl Tok {
    fn is_punct(&self, p: &str) -> bool {
        matches!(self, Tok::Punct(q) if q == p)
    }

    fn is_ident(&self, name: &str) -> bool {
        matches!(self, Tok::Ident(n) if n == name)
    }

    fn ident(&self) -> Option<&str> {
        match self {
            Tok::Ident(n) => Some(n),
            _ => None,
        }
    }
}

fn ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Splits Rust source into tokens. Ordinary and block comments are
/// dropped; line doc comments are kept as [`Tok::Doc`].
fn lex(src: &str) -> Vec<Tok> {
    let s: Vec<char> = src.chars().collect();
    let at = |j: usize| s.get(j).copied().unwrap_or('\0');
    let mut toks = Vec::new();
    let mut i = 0;
    while i < s.len() {
        let c = s[i];
        if c.is_whitespace() {
            i += 1;
        } else if c == '/' && at(i + 1) == '/' {
            let end = (i..s.len()).find(|&j| s[j] == '\n').unwrap_or(s.len());
            let doc = (at(i + 2) == '/' && at(i + 3) != '/') || at(i + 2) == '!';
            if doc {
                toks.push(Tok::Doc(s[i + 3..end].iter().collect()));
            }
            i = end;
        } else if c == '/' && at(i + 1) == '*' {
            let mut depth = 0;
            while i < s.len() {
                if s[i] == '/' && at(i + 1) == '*' {
                    depth += 1;
                    i += 2;
                } else if s[i] == '*' && at(i + 1) == '/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if let Some(end) = raw_string_end(&s, i) {
            toks.push(Tok::Lit);
            i = end;
        } else if c == '"' {
            i += 1;
            while i < s.len() && s[i] != '"' {
                i += if s[i] == '\\' { 2 } else { 1 };
            }
            toks.push(Tok::Lit);
            i += 1;
        } else if c == '\'' {
            if at(i + 1) == '\\' {
                // An escaped char: skip the escaped character, then find the close.
                i += 3;
                while i < s.len() && s[i] != '\'' {
                    i += 1;
                }
                toks.push(Tok::Lit);
                i += 1;
            } else if at(i + 2) == '\'' {
                toks.push(Tok::Lit);
                i += 3;
            } else {
                i += 1;
                while i < s.len() && ident_continue(s[i]) {
                    i += 1;
                }
                toks.push(Tok::Lifetime);
            }
        } else if c.is_ascii_digit() {
            i += 1;
            while i < s.len()
                && (ident_continue(s[i]) || (s[i] == '.' && at(i + 1).is_ascii_digit()))
            {
                i += 1;
            }
            toks.push(Tok::Lit);
        } else if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < s.len() && ident_continue(s[i]) {
                i += 1;
            }
            toks.push(Tok::Ident(s[start..i].iter().collect()));
        } else {
            let pair: String = [c, at(i + 1)].iter().collect();
            if matches!(pair.as_str(), "::" | "->" | "=>") {
                toks.push(Tok::Punct(pair));
                i += 2;
            } else {
                toks.push(Tok::Punct(c.to_string()));
                i += 1;
            }
        }
    }
    toks
}

/// The end of the raw string (`r"…"`, `r#"…"#`) starting at `i`, if
/// one starts there.
fn raw_string_end(s: &[char], i: usize) -> Option<usize> {
    if s[i] != 'r' {
        return None;
    }
    let hashes = s[i + 1..].iter().take_while(|&&c| c == '#').count();
    let open = i + 1 + hashes;
    if s.get(open) != Some(&'"') {
        return None;
    }
    let closes = |j: usize| {
        s[j] == '"'
            && s.get(j + 1..j + 1 + hashes)
                .is_some_and(|h| h.iter().all(|&c| c == '#'))
    };
    Some(
        (open + 1..s.len())
            .find(|&j| closes(j))
            .map_or(s.len(), |j| j + 1 + hashes),
    )
}

/// The index of the token after the `(`/`[`/`{` group opening at `i`.
fn group_end(toks: &[Tok], i: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(i) {
        if ["(", "[", "{"].iter().any(|p| t.is_punct(p)) {
            depth += 1;
        } else if [")", "]", "}"].iter().any(|p| t.is_punct(p)) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
    }
    toks.len()
}

/// The index of the token after the item starting at `i`: after its
/// first `;` or its first `{…}` group outside any other group, whichever
/// comes first. Leading attributes and doc comments belong to the item.
fn item_end(toks: &[Tok], mut i: usize) -> usize {
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct(";") {
            return i + 1;
        }
        if t.is_punct("{") {
            return group_end(toks, i);
        }
        if t.is_punct("(") || t.is_punct("[") {
            i = group_end(toks, i);
        } else {
            i += 1;
        }
    }
    toks.len()
}

/// Whether the attribute whose `[` is at `i` compiles its item only
/// under test: `#[test]` or `#[cfg(test)]`.
fn test_only(toks: &[Tok], i: usize) -> bool {
    let inner = &toks[i + 1..group_end(toks, i) - 1];
    match inner {
        [t] => t.is_ident("test"),
        [cfg, open, t, close] => {
            cfg.is_ident("cfg") && open.is_punct("(") && t.is_ident("test") && close.is_punct(")")
        }
        _ => false,
    }
}

/// A file's non-test code: its tokens with every test-only item cut out
/// and doc comments removed, plus the text of those doc comments, one
/// string per run of consecutive doc lines.
fn non_test(toks: &[Tok]) -> (Vec<Tok>, Vec<String>) {
    let mut code = Vec::new();
    let mut docs: Vec<String> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if let Tok::Doc(text) = &toks[i] {
            if i == 0 || !matches!(toks[i - 1], Tok::Doc(_)) {
                docs.push(String::new());
            }
            let block = docs.last_mut().expect("a doc block was pushed");
            block.push_str(text);
            block.push('\n');
            i += 1;
            continue;
        }
        if toks[i].is_punct("#")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("["))
            && test_only(toks, i + 1)
        {
            i = item_end(toks, group_end(toks, i + 1));
            continue;
        }
        code.push(toks[i].clone());
        i += 1;
    }
    (code, docs)
}

/// The Rust code in the fenced blocks of Markdown or doc-comment text:
/// blocks tagged `rust`, untagged, or tagged only with doctest
/// attributes such as `no_run`.
fn fenced_rust(text: &str) -> String {
    let mut code = String::new();
    let mut open: Option<bool> = None;
    for line in text.lines() {
        let trimmed = line.trim_start();
        if let Some(info) = trimmed.strip_prefix("```") {
            open = match open {
                Some(_) => None,
                None => Some(info.split(',').map(str::trim).all(|w| {
                    matches!(
                        w,
                        "" | "rust" | "no_run" | "ignore" | "should_panic" | "compile_fail"
                    ) || w.starts_with("edition")
                })),
            };
        } else if open == Some(true) {
            code.push_str(line);
            code.push('\n');
        }
    }
    code
}

/// Keywords that start an item; the identifier after one is a name
/// being defined, not a caller.
const DEFINES: &[&str] = &[
    "fn", "struct", "enum", "const", "static", "trait", "type", "mod",
];

/// A half-open range of token positions in one file's non-test code.
type Span = (usize, usize);

/// A `pub` item: where it is, its name, and its token span in the file's
/// non-test code.
#[derive(Debug)]
struct Def {
    shown: String,
    name: String,
    /// Whether the item is a type, whose `impl` blocks belong to it.
    is_type: bool,
    file: usize,
    span: Span,
}

/// What one file's non-test code defines and names.
#[derive(Default)]
struct FileScan {
    defs: Vec<Def>,
    /// Every identifier that may call an item, with its token position.
    uses: Vec<(usize, String)>,
    /// Every `impl` block's self type and token span.
    impls: Vec<(String, Span)>,
}

/// The self type's name in the `impl` header starting at `i` (after
/// `impl`), and the index of the body's `{`.
fn impl_self(toks: &[Tok], mut i: usize) -> (Option<String>, usize) {
    let mut angle = 0i32;
    let mut name = None;
    while i < toks.len() {
        let t = &toks[i];
        if angle == 0 && (t.is_punct("{") || t.is_ident("where")) {
            break;
        }
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if angle == 0 && t.is_ident("for") {
            name = None;
        } else if let (0, Some(n)) = (angle, t.ident()) {
            name = Some(n.to_string());
        }
        i += 1;
    }
    while i < toks.len() && !toks[i].is_punct("{") {
        i += 1;
    }
    (name, i)
}

/// Scans a file's non-test code. `label` prefixes each item as shown.
fn scan_file(code: &[Tok], file: usize, label: &str) -> FileScan {
    let mut scan = FileScan::default();
    // The `impl` blocks around the current token: (end, self type).
    let mut impls: Vec<(usize, String)> = Vec::new();
    // The end of the `pub use` statement being read, if any.
    let mut reexport_end = 0usize;
    for (i, t) in code.iter().enumerate() {
        while impls.last().is_some_and(|(end, _)| i >= *end) {
            impls.pop();
        }
        let prev = i.checked_sub(1).map(|p| &code[p]);
        match t {
            Tok::Ident(n) if n == "impl" => {
                let item_start = prev.is_none_or(|p| {
                    [";", "}", "{", "]"].iter().any(|q| p.is_punct(q)) || p.is_ident("unsafe")
                });
                if let (true, (Some(name), body)) = (item_start, impl_self(code, i + 1)) {
                    let end = group_end(code, body);
                    scan.impls.push((name.clone(), (i, end)));
                    impls.push((end, name));
                }
            }
            Tok::Ident(n) if n == "pub" => {
                let mut j = i + 1;
                match code.get(j) {
                    // `pub(crate)` and the like are not public surface.
                    Some(t) if t.is_punct("(") => continue,
                    Some(t) if t.is_ident("use") => {
                        reexport_end = item_end(code, j);
                        continue;
                    }
                    _ => {}
                }
                if code.get(j).is_some_and(|t| t.is_ident("const"))
                    && code.get(j + 1).is_some_and(|t| t.is_ident("fn"))
                {
                    j += 1;
                }
                let kind = code.get(j).and_then(Tok::ident);
                let name = code.get(j + 1).and_then(Tok::ident);
                if let (Some(kind), Some(name)) = (kind, name) {
                    if DEFINES.contains(&kind) {
                        let owner = match (kind, impls.last()) {
                            ("fn" | "const" | "type", Some((_, ty))) => format!("{ty}::"),
                            _ => String::new(),
                        };
                        scan.defs.push(Def {
                            shown: format!("{label}: {owner}{name}"),
                            name: name.to_string(),
                            is_type: matches!(kind, "struct" | "enum" | "type" | "trait"),
                            file,
                            span: (i, item_end(code, j)),
                        });
                    }
                }
            }
            Tok::Ident(n) => {
                let defined = prev
                    .and_then(Tok::ident)
                    .is_some_and(|p| DEFINES.contains(&p));
                let reexported =
                    i < reexport_end && !code.get(i + 1).is_some_and(|t| t.is_punct("::"));
                if !defined && !reexported {
                    scan.uses.push((i, n.clone()));
                }
            }
            _ => {}
        }
    }
    scan
}

/// Whether a file (path relative to the repository root) holds
/// non-test code, and so may define surface and call it.
fn is_non_test(path: &str) -> bool {
    if path == "README.md" {
        return true;
    }
    if !path.ends_with(".rs") {
        return false;
    }
    let parts: Vec<&str> = path.split('/').collect();
    matches!(
        parts.as_slice(),
        ["crates", _, "src" | "benches", ..] | ["src" | "examples", ..] | ["benchmark", "src", ..]
    )
}

/// The items, shown as `crate: Type::item`, that no non-test code
/// calls. `sources` holds (path relative to the repository root, text)
/// pairs; files that are not non-test code are skipped.
fn uncalled(sources: &[(String, String)]) -> BTreeSet<String> {
    let mut defs = Vec::new();
    // Each name's callers, and each type's `impl` blocks, as
    // (file, token position) and (file, token span) pairs.
    let mut uses: BTreeMap<String, Vec<(usize, usize)>> = BTreeMap::new();
    let mut impls: BTreeMap<String, Vec<(usize, Span)>> = BTreeMap::new();
    let mut doc_code = Vec::new();
    for (file, (path, text)) in sources.iter().enumerate() {
        if !is_non_test(path) {
            continue;
        }
        if path.ends_with(".md") {
            doc_code.push(fenced_rust(text));
            continue;
        }
        let parts: Vec<&str> = path.split('/').collect();
        let label = match parts.as_slice() {
            ["crates", name, ..] => *name,
            ["src", ..] => "modm",
            [top, ..] => top,
            [] => "",
        };
        let (code, docs) = non_test(&lex(text));
        doc_code.extend(docs.iter().map(|doc| fenced_rust(doc)));
        let scan = scan_file(&code, file, label);
        defs.extend(scan.defs);
        for (at, name) in scan.uses {
            uses.entry(name).or_default().push((file, at));
        }
        for (name, span) in scan.impls {
            impls.entry(name).or_default().push((file, span));
        }
    }
    // Code blocks have no item spans, so every name in one is a caller.
    for code in &doc_code {
        for (_, name) in scan_file(&non_test(&lex(code)).0, usize::MAX, "").uses {
            uses.entry(name).or_default().push((usize::MAX, 0));
        }
    }
    let within = |(f, at): (usize, usize), (file, (start, end)): (usize, Span)| {
        f == file && (start..end).contains(&at)
    };
    defs.into_iter()
        .filter(|d| {
            let own_impls = impls
                .get(&d.name)
                .filter(|_| d.is_type)
                .map_or(&[][..], Vec::as_slice);
            let inside = |&at: &(usize, usize)| {
                within(at, (d.file, d.span)) || own_impls.iter().any(|&span| within(at, span))
            };
            uses.get(&d.name)
                .is_none_or(|callers| callers.iter().all(inside))
        })
        .map(|d| d.shown)
        .collect()
}

/// One line per problem: an uncalled item off the allowlist, or an
/// allowlist entry that is not an uncalled item.
fn problems(uncalled: &BTreeSet<String>, allowlist: &[(&str, &str)]) -> Vec<String> {
    let allowed: BTreeSet<&str> = allowlist.iter().map(|(item, _)| *item).collect();
    let unlisted = uncalled.iter().filter(|item| !allowed.contains(item.as_str())).map(|item| {
        format!("`{item}` has no caller in non-test code: delete it, make it private, or allowlist it with a reason")
    });
    let stale = allowed.iter().filter(|item| !uncalled.contains(**item)).map(|item| {
        format!("allowlist entry `{item}` is stale (the item is gone or now has a caller): remove the entry")
    });
    unlisted.chain(stale).collect()
}

/// Every non-test source under `root`, as (relative path, text) pairs.
fn read_sources(root: &Path) -> Vec<(String, String)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
            .map(|e| e.expect("directory entry").path())
            .collect();
        entries.sort();
        for path in entries {
            let rel = path.strip_prefix(root).expect("under root");
            let rel = rel.to_string_lossy().replace('\\', "/");
            if path.is_dir() {
                if !path.ends_with("target") {
                    walk(root, &path, out);
                }
            } else if is_non_test(&rel) {
                let text =
                    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {rel}: {e}"));
                out.push((rel, text));
            }
        }
    }
    let mut sources = Vec::new();
    for dir in ["crates", "src", "examples", "benchmark/src"] {
        walk(root, &root.join(dir), &mut sources);
    }
    let readme = std::fs::read_to_string(root.join("README.md")).expect("reading README.md");
    sources.push(("README.md".to_string(), readme));
    sources
}

#[test]
fn every_public_item_has_a_caller_or_a_reason() {
    let sources = read_sources(Path::new(env!("CARGO_MANIFEST_DIR")));
    for expected in [
        "crates/simkit/src/lib.rs",
        "src/lib.rs",
        "benchmark/src/main.rs",
        "README.md",
    ] {
        assert!(
            sources.iter().any(|(path, _)| path == expected),
            "the scan missed {expected}"
        );
    }
    let found = problems(&uncalled(&sources), ALLOWLIST);
    assert!(
        found.is_empty(),
        "{} surface problems:\n{}",
        found.len(),
        found.join("\n")
    );
}

/// The uncalled items among fixture files.
fn scan(files: &[(&str, &str)]) -> Vec<String> {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(p, t)| (p.to_string(), t.to_string()))
        .collect();
    uncalled(&sources).into_iter().collect()
}

const LIB: &str = "crates/demo/src/lib.rs";

#[test]
fn a_backslash_continued_string_does_not_swallow_the_file() {
    let main =
        "const USAGE: &str = \"usage: run \\\n    --flag\\\n\";\nfn main() { as_single(); }\n";
    assert_eq!(
        scan(&[
            (LIB, "pub fn as_single() {}"),
            ("benchmark/src/main.rs", main)
        ]),
        Vec::<String>::new()
    );
}

#[test]
fn comment_markers_and_escaped_quotes_inside_strings_are_text() {
    let lib = "pub fn after_slashes() {}\npub fn after_star() {}\npub fn in_quotes() {}\n\
               fn f() { let _ = \"http://x\"; after_slashes(); let _ = \"/* not a comment\"; after_star(); }\n\
               fn g() { let _ = \"say \\\" in_quotes() \\\"\"; }";
    assert_eq!(scan(&[(LIB, lib)]), ["demo: in_quotes"]);
}

#[test]
fn a_cfg_test_module_declaration_does_not_end_the_non_test_region() {
    let lib = "pub fn later() {}\npub fn in_tests() {}\n\
               #[cfg(test)]\nmod helpers;\nfn f() { later(); }\n\
               #[cfg(test)]\nmod tests { fn t() { in_tests(); } }";
    assert_eq!(scan(&[(LIB, lib)]), ["demo: in_tests"]);
}

#[test]
fn char_literals_and_lifetimes_are_not_strings() {
    let lib = "pub fn after_quote() {}\npub fn after_lifetime() {}\n\
               fn q() -> char { '\"' }\nfn r() { after_quote(); }\n\
               fn l<'a>(x: &'a str) -> &'a str { x }\nfn m() { let _ = '\\''; after_lifetime(); }";
    assert_eq!(scan(&[(LIB, lib)]), Vec::<String>::new());
}

#[test]
fn raw_strings_end_at_their_own_hashes() {
    let lib = "pub fn in_raw() {}\npub fn after_raw() {}\n\
               fn f() { let _ = r#\"a \" in_raw() \"#; after_raw(); let _ = r\"\\\"; }";
    assert_eq!(scan(&[(LIB, lib)]), ["demo: in_raw"]);
}

#[test]
fn block_comments_nest() {
    let lib = "pub fn hidden() {}\npub fn visible() {}\n\
               fn f() { /* outer /* inner */ hidden(); */ visible(); }";
    assert_eq!(scan(&[(LIB, lib)]), ["demo: hidden"]);
}

#[test]
fn doctests_and_readme_code_are_callers_but_prose_is_not() {
    let lib = "/// ```\n/// in_doctest();\n/// ```\npub fn in_doctest() {}\n\
               /// ```text\n/// in_text_block();\n/// ```\npub fn in_text_block() {}\n\
               pub fn in_readme() {}\npub fn in_readme_prose() {}";
    let readme = "Call `in_readme_prose()`.\n\n```rust\nin_readme();\n```\n";
    let found = scan(&[(LIB, lib), ("README.md", readme)]);
    assert_eq!(found, ["demo: in_readme_prose", "demo: in_text_block"]);
}

#[test]
fn an_uncalled_pub_fn_is_reported_with_its_type() {
    let lib = "pub struct Rng;\nimpl Rng {\n    pub fn poisson(&self) -> u32 { self.poisson() }\n    pub fn used(&self) {}\n}\n\
               fn f(r: Rng) { r.used(); }";
    assert_eq!(scan(&[(LIB, lib)]), ["demo: Rng::poisson"]);
    // A type named only by its own `impl` blocks has no caller.
    let lib = "pub enum Error { Bad }\nimpl Error { pub fn bad() -> Error { Error::Bad } }\n\
               impl std::fmt::Display for Error { fn fmt(&self) {} }";
    assert_eq!(scan(&[(LIB, lib)]), ["demo: Error", "demo: Error::bad"]);
}

#[test]
fn callers_in_test_code_do_not_count() {
    let lib = "pub fn only_cfg_test() {}\npub fn only_test_attr() {}\npub fn only_tests_dir() {}\n\
               #[test]\nfn t() { only_test_attr(); }\n\
               #[cfg(test)]\nmod tests { fn t() { only_cfg_test(); } }";
    let test = "fn t() { only_tests_dir(); }";
    let found = scan(&[
        (LIB, lib),
        ("tests/it.rs", test),
        ("crates/demo/tests/it.rs", test),
    ]);
    assert_eq!(
        found,
        [
            "demo: only_cfg_test",
            "demo: only_test_attr",
            "demo: only_tests_dir"
        ]
    );
}

#[test]
fn mentions_in_comments_strings_and_reexports_do_not_count() {
    let lib = "pub fn in_comment() {}\npub fn in_string() {}\n\
               pub mod more { pub fn reexported() {} }\npub use more::reexported;\n\
               // in_comment() is called nowhere\nfn f() { let _ = \"in_string()\"; }";
    let found = scan(&[(LIB, lib)]);
    assert_eq!(
        found,
        ["demo: in_comment", "demo: in_string", "demo: reexported"]
    );
}

#[test]
fn the_allowlist_passes_listed_items_and_fails_stale_entries() {
    let found = scan(&[(
        LIB,
        "pub fn kept() {}\npub fn called() {}\nfn f() { called(); }",
    )]);
    assert_eq!(found, ["demo: kept"]);
    let found: BTreeSet<String> = found.into_iter().collect();
    assert!(problems(&found, &[("demo: kept", "test support")]).is_empty());
    assert_eq!(problems(&found, &[]).len(), 1, "an unlisted item fails");
    let stale = problems(
        &found,
        &[
            ("demo: kept", "test support"),
            ("demo: called", "was dead once"),
        ],
    );
    assert_eq!(stale.len(), 1);
    assert!(stale[0].contains("`demo: called` is stale"), "{stale:?}");
}
