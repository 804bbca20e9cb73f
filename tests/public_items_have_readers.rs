//! Every public item in `crates/*/src` has a reader in product code.
//!
//! The scan collects each `pub` `fn`, `struct`, `enum`, `trait`, `type`,
//! `const`, `static` and `mod` outside `#[cfg(test)]` items and fails,
//! naming it, when its identifier occurs nowhere in product code except
//! where an item of that name is declared, where a `let`, `for`,
//! `if let` or match-arm pattern or a `fn` or closure parameter binds it,
//! and as a plain use of such a binding in scope (a local shadows any item
//! of its name; `x.name`, `name::` and `::name` still read). Product
//! code is `crates/*/src`, `src/`, `examples/` and `benchmark/src`, with
//! comments, string literals and `#[cfg(test)]` items removed; a
//! `pub use` re-export is not a reader (a private `use` is: the compiler
//! warns when its name goes unused). A module counts as read through a
//! re-export of its items.
//!
//! It is a name scan: two items sharing a name share their readers. An
//! item that only a test, a tool or the frozen benchmark harness reads
//! goes on [`ALLOW`] with that reason; an entry whose item is gone or
//! has gained a reader fails the scan too, so the list cannot rot.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// `(file, item, reason)`: public items kept without a product reader.
const ALLOW: &[(&str, &str, &str)] = &[
    (
        "crates/fed/src/round.rs",
        "test_accuracy",
        "tests/integration_golden_backbones.rs hashes its bits",
    ),
    (
        "crates/graph/src/metrics.rs",
        "modularity",
        "the oracle of the Louvain and SBM tests",
    ),
    ("crates/graph/src/csr.rs", "is_symmetric", "test reader: the graph, subgraph and SBM property tests"),
    (
        "crates/graph/src/csr.rs",
        "with_self_loops",
        "the materialized Â of the normalization oracle (norm.rs) and of crates/graph/tests/prop_graph.rs",
    ),
    ("crates/nn/src/ops.rs", "softmax_rows", "test reference for the blocked softmax kernel"),
    (
        "crates/nn/src/ops.rs",
        "matmul_tn",
        "the allocating wrapper and the naive reference are the kernel property tests' oracle pair",
    ),
    (
        "crates/nn/src/ops.rs",
        "matmul_nt",
        "the allocating wrapper and the naive reference are the kernel property tests' oracle pair",
    ),
    ("crates/nn/src/ops.rs", "add_bias", "the unfused reference of the fused bias+ReLU kernel tests"),
    ("crates/nn/src/ops.rs", "relu_inplace", "the unfused reference of the fused bias+ReLU kernel tests"),
    ("crates/nn/src/loss.rs", "softmax_ce", "test reference of the row-subset loss and the blocked softmax"),
    ("crates/nn/src/io.rs", "load_params", "the reader of `--save-params` files; tests/integration_models.rs round-trips one"),
    ("crates/nn/src/workspace.rs", "largest_pooled", "test reader: crates/nn/tests/predict_rows.rs bounds the pooled buffers"),
    (
        "crates/nn/src/workspace.rs",
        "pooled",
        "test reader: the arena's unit tests and crates/nn/tests/softmax_kernels.rs count pooled buffers",
    ),
    ("crates/nn/src/tensor.rs", "from_rows", "test reader: builds small matrices in unit and property tests"),
    ("crates/obs/src/serve.rs", "http_get", "test reader: tests/integration_trace_propagation.rs scrapes /metrics"),
    ("crates/obs/src/sink.rs", "contents", "test reader: the integration tests read traces from the in-memory sink"),
    (
        "crates/obs/src/trace.rs",
        "parse_trace",
        "test reader: the strict, header-checking parser the trace tests round-trip through",
    ),
    (
        "crates/graph/src/store.rs",
        "resident_bytes",
        "test reader: crates/graph/tests/store_resident.rs checks tiles are released",
    ),
    (
        "crates/graph/src/io.rs",
        "write_csr_v2",
        "README's real-data path; the FGTA v2 file-format tests write through it",
    ),
    (
        "crates/graph/src/io.rs",
        "parse_edge_list_text",
        "README's real-data path; tests/integration_extensions.rs loads a toy edge list",
    ),
    (
        "crates/data/src/catalog.rs",
        "from_parts",
        "README's real-data path; tests/integration_extensions.rs loads a toy edge list",
    ),
];

const KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const", "static", "mod"];

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Punct(char),
}

fn ident(t: Option<&Tok>) -> Option<&str> {
    match t {
        Some(Tok::Ident(s)) => Some(s),
        _ => None,
    }
}

fn is_punct(t: Option<&Tok>, c: char) -> bool {
    t == Some(&Tok::Punct(c))
}

/// Tokenizes Rust source into identifiers (keywords included) and
/// punctuation, dropping comments, string and char literals, lifetimes
/// and numbers.
fn lex(src: &str) -> Vec<Tok> {
    let c: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    // Skips a `"`-delimited literal whose opening quote is at `i`; `hashes`
    // > 0 (or `raw`) makes it a raw string.
    let skip_str = |mut i: usize, raw: bool, hashes: usize| -> usize {
        i += 1;
        while i < c.len() {
            if !raw && c[i] == '\\' {
                i += 2;
                continue;
            }
            if c[i] == '"'
                && c[i + 1..].iter().take(hashes).filter(|&&h| h == '#').count() == hashes
            {
                return i + 1 + hashes;
            }
            i += 1;
        }
        i
    };
    while i < c.len() {
        let ch = c[i];
        if ch == '/' && c.get(i + 1) == Some(&'/') {
            while i < c.len() && c[i] != '\n' {
                i += 1;
            }
        } else if ch == '/' && c.get(i + 1) == Some(&'*') {
            let mut depth = 0;
            while i < c.len() {
                if c[i] == '/' && c.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if c[i] == '*' && c.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    i += 1;
                }
            }
        } else if ch == '"' {
            i = skip_str(i, false, 0);
        } else if ch == '\'' {
            if c.get(i + 1) == Some(&'\\') {
                // Past the quote, the backslash and the escaped char.
                i += 3;
                while i < c.len() && c[i] != '\'' {
                    i += 1;
                }
                i += 1;
            } else if c.get(i + 2) == Some(&'\'') {
                i += 3;
            } else {
                // A lifetime or loop label: drop its name too.
                i += 1;
                while i < c.len() && (c[i].is_alphanumeric() || c[i] == '_') {
                    i += 1;
                }
            }
        } else if ch.is_ascii_digit() {
            while i < c.len()
                && (c[i].is_alphanumeric()
                    || c[i] == '_'
                    || (c[i] == '.' && c.get(i + 1).is_some_and(char::is_ascii_digit)))
            {
                i += 1;
            }
        } else if ch.is_alphabetic() || ch == '_' {
            let start = i;
            while i < c.len() && (c[i].is_alphanumeric() || c[i] == '_') {
                i += 1;
            }
            let word: String = c[start..i].iter().collect();
            let raw = matches!(word.as_str(), "r" | "br");
            if matches!(word.as_str(), "b" | "r" | "br")
                && matches!(c.get(i), Some('"') | Some('#'))
            {
                let hashes = c[i..].iter().take_while(|&&h| h == '#').count();
                if raw && c.get(i + hashes) == Some(&'"') {
                    i = skip_str(i + hashes, true, hashes);
                    continue;
                }
                if word == "b" && c.get(i) == Some(&'"') {
                    i = skip_str(i, false, 0);
                    continue;
                }
            }
            out.push(Tok::Ident(word));
        } else {
            if !ch.is_whitespace() {
                out.push(Tok::Punct(ch));
            }
            i += 1;
        }
    }
    out
}

/// Removes every `#[cfg(test)]` item: its remaining attributes and the
/// item through its closing `;` or matching `}`.
fn strip_test_items(toks: Vec<Tok>) -> Vec<Tok> {
    let cfg_test: Vec<Tok> = lex("#[cfg(test)]");
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if !toks[i..].starts_with(&cfg_test) {
            out.push(toks[i].clone());
            i += 1;
            continue;
        }
        i += cfg_test.len();
        let mut depth = 0usize;
        while i < toks.len() {
            match toks[i] {
                Tok::Punct('{') => depth += 1,
                // The enclosing block closes: the item was a field or arm.
                Tok::Punct('}') if depth == 0 => break,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                Tok::Punct(';') if depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    out
}

/// One product file: its path relative to the repository root and its
/// tokens outside test items.
struct Source {
    path: String,
    toks: Vec<Tok>,
}

fn source(path: &str, text: &str) -> Source {
    Source { path: path.to_string(), toks: strip_test_items(lex(text)) }
}

/// A public item the scan found.
struct Item {
    path: String,
    kind: &'static str,
    name: String,
}

/// If an item declaration's keyword sits at `i`, the index of its name.
fn declared_name(toks: &[Tok], i: usize) -> Option<usize> {
    let kw = ident(toks.get(i))?;
    let next = ident(toks.get(i + 1));
    match kw {
        "const" if matches!(next, Some("fn" | "unsafe" | "async" | "extern")) => None,
        "static" if next == Some("mut") => ident(toks.get(i + 2)).map(|_| i + 2),
        _ if KINDS.contains(&kw) && next.is_some() => Some(i + 1),
        _ => None,
    }
}

/// The `pub` items declared in `src`.
fn pub_items(src: &Source) -> Vec<Item> {
    let t = &src.toks;
    let mut items = Vec::new();
    for i in 0..t.len() {
        if ident(t.get(i)) != Some("pub") || is_punct(t.get(i + 1), '(') {
            continue;
        }
        let mut j = i + 1;
        while matches!(ident(t.get(j)), Some("unsafe" | "async" | "extern"))
            || (ident(t.get(j)) == Some("const")
                && matches!(ident(t.get(j + 1)), Some("fn" | "unsafe")))
        {
            j += 1;
        }
        let Some(kind) = ident(t.get(j)).and_then(|k| KINDS.iter().find(|&&kk| kk == k)) else {
            continue;
        };
        if let Some(n) = declared_name(t, j) {
            let name = ident(t.get(n)).expect("declared name is an identifier").to_string();
            items.push(Item { path: src.path.clone(), kind, name });
        }
    }
    items
}

/// Whether `t[i]` opens (`Some(true)`) or closes (`Some(false)`) a
/// bracket group.
fn bracket(t: &[Tok], i: usize) -> Option<bool> {
    match t.get(i) {
        Some(Tok::Punct('(' | '[' | '{')) => Some(true),
        Some(Tok::Punct(')' | ']' | '}')) => Some(false),
        _ => None,
    }
}

/// Whether `t[i]` is a `:` that is not half of a `::`.
fn single_colon(t: &[Tok], i: usize) -> bool {
    is_punct(t.get(i), ':')
        && !is_punct(t.get(i + 1), ':')
        && !is_punct(t.get(i.wrapping_sub(1)), ':')
}

/// The first index from `i` where `stop` holds outside any bracket group
/// opened after `i` (or where such a group would close past `i`).
fn group_end(t: &[Tok], mut i: usize, mut stop: impl FnMut(usize) -> bool) -> usize {
    let mut depth = 0usize;
    while i < t.len() {
        match bracket(t, i) {
            Some(true) => depth += 1,
            Some(false) if depth == 0 => return i,
            Some(false) => depth -= 1,
            None if depth == 0 && stop(i) => return i,
            None => {}
        }
        i += 1;
    }
    i
}

/// The names a pattern `t[range]` binds: lowercase identifiers that are
/// not a path segment, a keyword, a field name or the head of a call,
/// struct or macro.
fn pattern_bindings(t: &[Tok], range: std::ops::Range<usize>) -> Vec<usize> {
    let end = range.end;
    range
        .filter(|&i| {
            let Some(name) = ident(t.get(i)) else { return false };
            let head = name.chars().next().is_some_and(|c| c.is_lowercase() || c == '_');
            let next = |c| is_punct(t.get(i + 1), c);
            let keyword = matches!(name, "mut" | "ref" | "box" | "self" | "_");
            let field = i + 1 < end && next(':');
            head && !keyword
                && !field
                && !next('(')
                && !next('{')
                && !next('!')
                && !(i > 0 && is_punct(t.get(i - 1), ':'))
        })
        .collect()
}

/// The names a parameter list binds, from `start` (just past its opening
/// `(` or `|`) to where `close` holds outside any bracket group: each
/// parameter's pattern, up to its `:` type. Also returns the end index.
fn param_bindings(t: &[Tok], start: usize, close: impl Fn(usize) -> bool) -> (Vec<usize>, usize) {
    let mut out = Vec::new();
    let mut i = start;
    loop {
        let end = group_end(t, i, |k| is_punct(t.get(k), ',') || single_colon(t, k) || close(k));
        out.extend(pattern_bindings(t, i..end));
        i = end;
        if single_colon(t, i) {
            // The type runs to the next `,` outside `<…>` too.
            let mut angle = 0usize;
            i = group_end(t, i + 1, |k| {
                match t.get(k) {
                    Some(Tok::Punct('<')) => angle += 1,
                    Some(Tok::Punct('>'))
                        if !matches!(t.get(k - 1), Some(Tok::Punct('-' | '='))) =>
                    {
                        angle = angle.saturating_sub(1)
                    }
                    _ => {}
                }
                angle == 0 && (is_punct(t.get(k), ',') || close(k))
            });
        }
        if i >= t.len() || !is_punct(t.get(i), ',') {
            return (out, i);
        }
        i += 1;
    }
}

/// The names the match arm starting at `s` (or at the `,` before it)
/// binds: its pattern, up to its `=>` or `if` guard.
fn arm_bindings(t: &[Tok], mut s: usize) -> Vec<usize> {
    if is_punct(t.get(s), ',') {
        s += 1;
    }
    let end = group_end(t, s, |k| {
        (is_punct(t.get(k), '=') && is_punct(t.get(k + 1), '>')) || ident(t.get(k)) == Some("if")
    });
    pattern_bindings(t, s..end)
}

/// Whether a `|` at `i` opens a closure's parameter list rather than
/// being an or.
fn closure_opens(t: &[Tok], i: usize) -> bool {
    is_punct(t.get(i), '|')
        && i > 0
        && match &t[i - 1] {
            Tok::Punct('(' | ',' | '=' | '{' | '[' | ';') => true,
            Tok::Punct('>') => is_punct(t.get(i.wrapping_sub(2)), '='),
            Tok::Ident(k) => matches!(k.as_str(), "move" | "return"),
            _ => false,
        }
}

/// Reads of each identifier: occurrences that are not the name of a
/// declaration or a binding site (a `let`, `for`, `if let` or match-arm
/// pattern, a `fn` or closure parameter), and not a plain use of a binding
/// in scope
/// — a local shadows any item of its name. `reexports` says whether
/// `pub use` statements count.
fn reads(sources: &[Source], reexports: bool) -> HashMap<String, usize> {
    let mut n = HashMap::new();
    for src in sources {
        let t = &src.toks;
        let mut decl = vec![false; t.len()];
        // Names in scope: one set per open bracket group, the file's first.
        let mut scopes: Vec<Vec<String>> = vec![Vec::new()];
        // Bindings waiting for the block they scope (at the given depth)
        // or, for a `let` statement, for its `;`.
        let mut for_block: Vec<(usize, Vec<String>)> = Vec::new();
        let mut for_semi: Vec<(usize, Vec<String>)> = Vec::new();
        // `match` keywords waiting for their block, and open match blocks,
        // by depth: an arm's bindings live in its match block.
        let (mut match_next, mut match_open) = (Vec::new(), Vec::new());
        let mut i = 0;
        while i < t.len() {
            if !reexports && ident(t.get(i)) == Some("pub") && ident(t.get(i + 1)) == Some("use") {
                while i < t.len() && !is_punct(t.get(i), ';') {
                    i += 1;
                }
                continue;
            }
            let depth = scopes.len();
            let names = |idx: &[usize]| -> Vec<String> {
                idx.iter().map(|&k| ident(t.get(k)).unwrap().to_string()).collect()
            };
            match (&t[i], bracket(t, i)) {
                (_, Some(true)) => {
                    let mut scope = Vec::new();
                    if is_punct(t.get(i), '{') {
                        for (_, names) in for_block.extract_if(.., |(d, _)| *d == depth) {
                            scope.extend(names);
                        }
                        if match_next.last() == Some(&depth) {
                            match_next.pop();
                            match_open.push(depth + 1);
                            let bound = arm_bindings(t, i + 1);
                            bound.iter().for_each(|&b| decl[b] = true);
                            scope.extend(names(&bound));
                        }
                    }
                    scopes.push(scope);
                }
                (_, Some(false)) => {
                    if scopes.len() > 1 {
                        scopes.pop();
                    }
                    for_block.retain(|(d, _)| *d <= scopes.len());
                    for_semi.retain(|(d, _)| *d <= scopes.len());
                    match_next.retain(|&d| d <= scopes.len());
                    match_open.retain(|&d| d <= scopes.len());
                    if is_punct(t.get(i), '}') && match_open.last() == Some(&scopes.len()) {
                        // An arm's block body closed: the next arm starts.
                        let bound = arm_bindings(t, i + 1);
                        bound.iter().for_each(|&b| decl[b] = true);
                        scopes.last_mut().unwrap().extend(names(&bound));
                    }
                }
                (Tok::Punct(','), None) if match_open.last() == Some(&depth) => {
                    let bound = arm_bindings(t, i + 1);
                    bound.iter().for_each(|&b| decl[b] = true);
                    scopes.last_mut().unwrap().extend(names(&bound));
                }
                (Tok::Ident(k), None) if k == "match" => match_next.push(depth),
                (Tok::Punct(';'), None) => {
                    for_block.retain(|(d, _)| *d != depth);
                    for (_, names) in for_semi.extract_if(.., |(d, _)| *d == depth) {
                        scopes.last_mut().unwrap().extend(names);
                    }
                }
                (Tok::Ident(k), None) if k == "let" || k == "for" => {
                    let end = group_end(t, i + 1, |j| {
                        if k == "for" {
                            ident(t.get(j)) == Some("in")
                        } else {
                            (is_punct(t.get(j), '=') && !is_punct(t.get(j + 1), '='))
                                || single_colon(t, j)
                                || is_punct(t.get(j), ';')
                        }
                    });
                    let bound = pattern_bindings(t, i + 1..end);
                    bound.iter().for_each(|&b| decl[b] = true);
                    let scoped_by_block = k == "for"
                        || matches!(ident(t.get(i.wrapping_sub(1))), Some("if" | "while"))
                        || is_punct(t.get(i.wrapping_sub(1)), '&');
                    let waiting = if scoped_by_block { &mut for_block } else { &mut for_semi };
                    waiting.push((depth, names(&bound)));
                }
                (Tok::Ident(k), None) if k == "fn" && ident(t.get(i + 1)).is_some() => {
                    let mut open = i + 2;
                    if is_punct(t.get(open), '<') {
                        let mut angle = 0usize;
                        while open < t.len() {
                            match t.get(open) {
                                Some(Tok::Punct('<')) => angle += 1,
                                Some(Tok::Punct('>')) if !is_punct(t.get(open - 1), '-') => {
                                    angle -= 1;
                                    if angle == 0 {
                                        open += 1;
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            open += 1;
                        }
                    }
                    if is_punct(t.get(open), '(') {
                        let (bound, _) = param_bindings(t, open + 1, |k| is_punct(t.get(k), ')'));
                        bound.iter().for_each(|&b| decl[b] = true);
                        for_block.push((depth, names(&bound)));
                    }
                }
                _ if closure_opens(t, i) => {
                    let (bound, end) = param_bindings(t, i + 1, |k| is_punct(t.get(k), '|'));
                    bound.iter().for_each(|&b| decl[b] = true);
                    if is_punct(t.get(end + 1), '{') {
                        for_block.push((depth, names(&bound)));
                    } else {
                        // An expression body: the bindings live while the
                        // group around the closure does.
                        scopes.last_mut().unwrap().extend(names(&bound));
                    }
                    i = end + 1;
                    continue;
                }
                _ => {}
            }
            if let Some(name) = declared_name(t, i) {
                decl[name] = true;
            }
            if let (Tok::Ident(s), false) = (&t[i], decl[i]) {
                let path = is_punct(t.get(i + 1), ':') && is_punct(t.get(i + 2), ':');
                let member = i > 0 && (is_punct(t.get(i - 1), '.') || is_punct(t.get(i - 1), ':'));
                let local = !path && !member && scopes.iter().any(|sc| sc.contains(s));
                if !local {
                    *n.entry(s.clone()).or_insert(0) += 1;
                }
            }
            i += 1;
        }
    }
    n
}

/// What the scan reports: items with no reader and no allow-list entry,
/// and allow-list entries whose item is gone or has a reader.
fn scan(sources: &[Source], allow: &[(&str, &str, &str)]) -> Vec<String> {
    let plain = reads(sources, false);
    let with_reexports = reads(sources, true);
    let unread = |it: &Item| {
        let n = if it.kind == "mod" { &with_reexports } else { &plain };
        n.get(&it.name).copied().unwrap_or(0) == 0
    };
    let items: Vec<Item> =
        sources.iter().filter(|s| s.path.starts_with("crates/")).flat_map(pub_items).collect();
    let allowed = |it: &Item| allow.iter().any(|&(p, n, _)| p == it.path && n == it.name);
    let mut problems: Vec<String> = items
        .iter()
        .filter(|it| unread(it) && !allowed(it))
        .map(|it| {
            format!(
                "{}: `pub {} {}` has no reader in product code \
                 (use it, delete it, or allow-list it with a reason)",
                it.path, it.kind, it.name
            )
        })
        .collect();
    for &(path, name, _) in allow {
        match items.iter().find(|it| it.path == path && it.name == name) {
            None => problems.push(format!("stale allow-list entry: {path}: `{name}` is gone")),
            Some(it) if !unread(it) => problems.push(format!(
                "stale allow-list entry: {path}: `{name}` now has a reader in product code"
            )),
            Some(_) => {}
        }
    }
    problems
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut entries: Vec<PathBuf> = entries.map(|e| e.expect("directory entry").path()).collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// The product sources of this repository.
fn product_sources() -> Vec<Source> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("src"), root.join("examples"), root.join("benchmark/src")];
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ lists")
        .map(|e| e.expect("directory entry").path().join("src"))
        .collect();
    crates.sort();
    dirs.extend(crates);
    let mut files = Vec::new();
    for d in &dirs {
        rust_files(d, &mut files);
    }
    files
        .iter()
        .map(|f| {
            let rel =
                f.strip_prefix(root).expect("under the root").to_string_lossy().replace('\\', "/");
            source(&rel, &std::fs::read_to_string(f).expect("source reads"))
        })
        .collect()
}

#[test]
fn every_public_item_has_a_reader() {
    let sources = product_sources();
    assert!(sources.iter().filter(|s| s.path.starts_with("crates/")).count() > 50);
    let problems = scan(&sources, ALLOW);
    assert!(problems.is_empty(), "\n{}\n", problems.join("\n"));
}

#[test]
fn the_scan_names_planted_and_stale_entries() {
    let mut sources = product_sources();
    let libs: Vec<String> = sources
        .iter()
        .filter(|s| {
            s.path.starts_with("crates/")
                && (s.path.ends_with("/src/lib.rs") || s.path.ends_with("/src/main.rs"))
        })
        .map(|s| s.path.clone())
        .collect();
    assert_eq!(libs.len(), 9, "{libs:?}");
    for (k, lib) in libs.iter().enumerate() {
        // A reader-less `pub fn` in every crate; mentions in a comment, a
        // string or a test module are not readers.
        let planted = format!(
            "/// `planted_{k}` is documented.\n\
             pub fn planted_{k}() -> &'static str {{ \"planted_{k}\" }}\n\
             #[cfg(test)]\nmod planted_tests_{k} {{ fn t() {{ super::planted_{k}(); }} }}\n"
        );
        sources.push(source(lib, &planted));
    }
    // Dead `pub fn`s named like common locals: each name occurs in product
    // code, but only bound by a `let`, a parameter or a closure and used
    // as that binding, so none of it reads the function.
    let locals = ["deg", "total"];
    for name in locals {
        let tok = Tok::Ident(name.to_string());
        assert!(sources.iter().any(|s| s.toks.contains(&tok)), "`{name}` is no local name");
        sources.push(source("crates/graph/src/lib.rs", &format!("pub fn {name}() {{}}\n")));
    }
    let stale = [
        ("crates/graph/src/metrics.rs", "no_such_item", "gone"),
        ("crates/graph/src/csr.rs", "num_nodes", "read everywhere"),
    ];
    let allow: Vec<_> = ALLOW.iter().chain(&stale).copied().collect();
    let problems = scan(&sources, &allow);
    for (k, lib) in libs.iter().enumerate() {
        let want = format!("{lib}: `pub fn planted_{k}` has no reader");
        assert!(problems.iter().any(|p| p.starts_with(&want)), "{want} missing from {problems:#?}");
    }
    assert!(problems
        .iter()
        .any(|p| p.contains("crates/graph/src/metrics.rs: `no_such_item` is gone")));
    assert!(problems
        .iter()
        .any(|p| p.contains("crates/graph/src/csr.rs: `num_nodes` now has a reader")));
    for name in locals {
        let want = format!("crates/graph/src/lib.rs: `pub fn {name}` has no reader");
        assert!(problems.iter().any(|p| p.starts_with(&want)), "{want} missing from {problems:#?}");
    }
    assert_eq!(problems.len(), libs.len() + locals.len() + 2, "{problems:#?}");
}

#[test]
fn the_lexer_drops_comments_literals_and_lifetimes() {
    let toks = lex("a /* b /* c */ d */ e // f\n\"g\\\"h\" r#\"i\"# 'j' '\\n' '\\'' 'k: x<'l> b\"m\" 1.5e3u32 t.0.n");
    let names: Vec<&str> = toks.iter().filter_map(|t| ident(Some(t))).collect();
    assert_eq!(names, ["a", "e", "x", "t", "n"]);
}
