//! Workspace model: scans the source tree, strips `#[cfg(test)]` code,
//! extracts function definitions with their body token ranges, and
//! harvests which field/binding names are Mutex/RwLock-typed.
//!
//! Scope of a scan: `src/` of every crate under `crates/`, plus the root
//! umbrella crate's `src/`. Test modules, integration tests, benches and
//! examples are deliberately out of scope — the wall guards the protocol
//! paths that run in production, and counting test-harness `unwrap()`s
//! would make the panic ratchet fight test-writing.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{lex, Allow, Tok, TokKind};

/// One scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Owning crate (`mocha`, `mocha-net`, ... or `mocha-repro` for the
    /// root umbrella crate).
    pub crate_name: String,
    /// Token stream with `#[cfg(test)]` items removed.
    pub toks: Vec<Tok>,
    /// `// lint: allow(...)` escapes found anywhere in the file.
    pub allows: Vec<Allow>,
    /// Functions defined in this file, in source order.
    pub fns: Vec<FnDef>,
}

/// A function definition and its body token range.
#[derive(Debug)]
pub struct FnDef {
    /// Bare name (`run_shard`).
    pub name: String,
    /// Qualified display name (`Shard::run_shard` inside an impl block).
    pub qual: String,
    /// Token index of the body's opening `{` in [`SourceFile::toks`].
    pub body_open: usize,
    /// Token index of the body's closing `}`.
    pub body_close: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
}

/// The scanned workspace.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root directory.
    pub root: PathBuf,
    /// All scanned files.
    pub files: Vec<SourceFile>,
    /// Names of struct fields / let bindings whose type is (or aliases)
    /// `Mutex` or `RwLock`. Lock identity for the lock-order graph.
    pub lock_names: BTreeSet<String>,
}

impl Workspace {
    /// Scans the workspace rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory walks and file reads.
    pub fn scan(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut entries: Vec<PathBuf> = fs::read_dir(&crates_dir)?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .collect();
            entries.sort();
            for krate in entries {
                let src = krate.join("src");
                if !src.is_dir() {
                    continue;
                }
                let name = krate
                    .file_name()
                    .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
                collect_rs(&src, root, &name, &mut files)?;
            }
        }
        let root_src = root.join("src");
        if root_src.is_dir() {
            collect_rs(&root_src, root, "mocha-repro", &mut files)?;
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        let lock_names = harvest_lock_names(&files);
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
            lock_names,
        })
    }

    /// Looks up the scanned file with the given `/`-separated relative
    /// path suffix (e.g. `runtime/socket.rs`).
    pub fn file_by_suffix(&self, suffix: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel.ends_with(suffix))
    }

    /// True when a diagnostic at `line` of `file` is suppressed by a
    /// `// lint: allow(rule)` on the same line or the line above.
    pub fn is_allowed(file: &SourceFile, rule: &str, line: u32) -> bool {
        file.allows
            .iter()
            .any(|a| (a.line == line || a.line + 1 == line) && a.rules.iter().any(|r| r == rule))
    }
}

fn collect_rs(
    dir: &Path,
    root: &Path,
    crate_name: &str,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, crate_name, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let src = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(load_file(&src, rel, crate_name.to_string()));
        }
    }
    Ok(())
}

/// Loads a single in-memory source for unit tests in sibling modules.
#[cfg(test)]
pub(crate) fn load_file_for_tests(src: &str) -> SourceFile {
    load_file(src, "test.rs".into(), "test-crate".into())
}

fn load_file(src: &str, rel: String, crate_name: String) -> SourceFile {
    let lexed = lex(src);
    let toks = strip_test_items(lexed.toks);
    let fns = extract_fns(&toks);
    SourceFile {
        rel,
        crate_name,
        toks,
        allows: lexed.allows,
        fns,
    }
}

/// Removes `#[cfg(test)]`- and `#[test]`-attributed items from the token
/// stream so no analysis ever sees test code.
fn strip_test_items(toks: Vec<Tok>) -> Vec<Tok> {
    // A module file gated as a whole (`#![cfg(test)]` ahead of its items,
    // the shape of a test-support file declared from `lib.rs`) is all test
    // code.
    let bang = toks.get(1).is_some_and(|t| t.is_punct('!'));
    if bang && toks.first().is_some_and(|t| t.is_punct('#')) && is_cfg_test(&toks, 2) {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if let Some(after_attr) = match_test_attr(&toks, i) {
            i = skip_item(&toks, after_attr);
        } else {
            out.push(toks[i].clone());
            i += 1;
        }
    }
    out
}

/// If a `#[cfg(test)]` or `#[test]` attribute starts at `i`, returns the
/// index just past the closing `]`.
fn match_test_attr(toks: &[Tok], i: usize) -> Option<usize> {
    if !toks.get(i)?.is_punct('#') || !toks.get(i + 1)?.is_punct('[') {
        return None;
    }
    if toks.get(i + 2)?.is_ident("test") && toks.get(i + 3)?.is_punct(']') {
        return Some(i + 4);
    }
    is_cfg_test(toks, i + 1).then_some(i + 7)
}

/// Whether `[cfg(test)]` starts at `open`.
fn is_cfg_test(toks: &[Tok], open: usize) -> bool {
    let shape: [fn(&Tok) -> bool; 6] = [
        |t| t.is_punct('['),
        |t| t.is_ident("cfg"),
        |t| t.is_punct('('),
        |t| t.is_ident("test"),
        |t| t.is_punct(')'),
        |t| t.is_punct(']'),
    ];
    let at = toks.iter().skip(open);
    at.zip(shape).filter(|(t, is)| is(t)).count() == shape.len()
}

/// Skips one item starting at `i` (further attributes included): consumes
/// up to and including either a `;` at depth 0 or a balanced `{ ... }`
/// block. Returns the index just past the item.
fn skip_item(toks: &[Tok], mut i: usize) -> usize {
    // Further attributes on the same item.
    while i + 1 < toks.len() && toks[i].is_punct('#') && toks[i + 1].is_punct('[') {
        let mut depth = 0usize;
        i += 1;
        while i < toks.len() {
            if toks[i].is_punct('[') {
                depth += 1;
            } else if toks[i].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    let mut paren = 0i32;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('(' | '[') => paren += 1,
            TokKind::Punct(')' | ']') => paren -= 1,
            TokKind::Punct(';') if paren == 0 => return i + 1,
            TokKind::Punct('{') if paren == 0 => return skip_balanced_braces(toks, i),
            _ => {}
        }
        i += 1;
    }
    i
}

/// With `toks[i]` an opening `{`, returns the index just past the
/// matching `}`.
fn skip_balanced_braces(toks: &[Tok], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < toks.len() {
        if toks[i].is_punct('{') {
            depth += 1;
        } else if toks[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Extracts every `fn` definition with a body, tracking the enclosing
/// `impl`/`trait` type for qualified display names.
fn extract_fns(toks: &[Tok]) -> Vec<FnDef> {
    let mut fns = Vec::new();
    // Stack of (brace_depth_when_entered, context name) for impl/trait
    // blocks; used only for display names.
    let mut ctx: Vec<(i32, String)> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                while ctx.last().is_some_and(|(d, _)| *d > depth) {
                    ctx.pop();
                }
            }
            TokKind::Ident(kw) if kw == "impl" || kw == "trait" => {
                if let Some(name) = impl_context_name(toks, i) {
                    ctx.push((depth + 1, name));
                }
            }
            TokKind::Ident(kw) if kw == "fn" => {
                if let Some(def) = fn_def_at(toks, i, ctx.last().map(|(_, n)| n.as_str())) {
                    // Jump to just before the body's `{` so the next
                    // iteration processes it for depth tracking; the body
                    // is rescanned so nested `fn` defs are found too.
                    i = def.body_open - 1;
                    fns.push(def);
                }
            }
            _ => {}
        }
        i += 1;
    }
    fns
}

/// For an `impl`/`trait` keyword at `i`, finds the type name the block is
/// about (`impl Foo`, `impl Trait for Foo`, `trait Bar`).
fn impl_context_name(toks: &[Tok], i: usize) -> Option<String> {
    let mut names = Vec::new();
    let mut j = i + 1;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('{') => break,
            TokKind::Punct(';') => return None, // `trait X;` has no body
            TokKind::Ident(s) if s == "for" => names.clear(),
            TokKind::Ident(s) if s == "where" => break,
            TokKind::Ident(s)
                if s.chars().next().is_some_and(char::is_uppercase) && names.is_empty() =>
            {
                names.push(s.clone());
            }
            _ => {}
        }
        j += 1;
    }
    names.pop()
}

/// Parses a `fn` definition starting at keyword index `i`. Returns `None`
/// for body-less declarations (trait methods, `fn` pointer types).
fn fn_def_at(toks: &[Tok], i: usize, ctx: Option<&str>) -> Option<FnDef> {
    let name_tok = toks.get(i + 1)?;
    let name = name_tok.ident()?.to_string();
    // Find the parameter list's opening paren (skipping generics).
    let mut j = i + 2;
    let mut angle = 0i32;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') if !toks[j - 1].is_punct('-') => angle -= 1,
            TokKind::Punct('(') if angle <= 0 => break,
            TokKind::Punct('{' | ';') => return None,
            _ => {}
        }
        j += 1;
    }
    // Skip the balanced parameter list.
    let mut paren = 0i32;
    while j < toks.len() {
        if toks[j].is_punct('(') {
            paren += 1;
        } else if toks[j].is_punct(')') {
            paren -= 1;
            if paren == 0 {
                j += 1;
                break;
            }
        }
        j += 1;
    }
    // Scan the return type / where clause for the body `{` or a `;`.
    let mut depth = 0i32;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct('(' | '[') => depth += 1,
            TokKind::Punct(')' | ']') => depth -= 1,
            TokKind::Punct(';') if depth == 0 => return None,
            TokKind::Punct('{') if depth == 0 => {
                let close = skip_balanced_braces(toks, j) - 1;
                let qual = ctx.map_or_else(|| name.clone(), |c| format!("{c}::{name}"));
                return Some(FnDef {
                    name,
                    qual,
                    body_open: j,
                    body_close: close,
                    line: toks[i].line,
                });
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Harvests the set of field/binding names whose declared type is (or
/// aliases) `Mutex`/`RwLock`.
fn harvest_lock_names(files: &[SourceFile]) -> BTreeSet<String> {
    // Pass 1 (to fixpoint): type aliases that mention a lockish type.
    let mut lockish: BTreeSet<String> = ["Mutex", "RwLock"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    loop {
        let before = lockish.len();
        for f in files {
            let toks = &f.toks;
            let mut i = 0;
            while i + 3 < toks.len() {
                if toks[i].is_ident("type") {
                    if let Some(alias) = toks[i + 1].ident() {
                        if toks[i + 2].is_punct('=') || toks[i + 2].is_punct('<') {
                            let mut j = i + 2;
                            let mut hit = false;
                            while j < toks.len() && !toks[j].is_punct(';') {
                                if toks[j].ident().is_some_and(|s| lockish.contains(s)) {
                                    hit = true;
                                }
                                j += 1;
                            }
                            if hit {
                                lockish.insert(alias.to_string());
                            }
                            i = j;
                        }
                    }
                }
                i += 1;
            }
        }
        if lockish.len() == before {
            break;
        }
    }
    // Pass 2: struct fields + let bindings of a lockish type.
    let mut names = BTreeSet::new();
    for f in files {
        let toks = &f.toks;
        let mut i = 0;
        while i < toks.len() {
            if toks[i].is_ident("struct") && i + 2 < toks.len() {
                // Find the body `{` (skip `struct X;` and tuple structs).
                let mut j = i + 1;
                while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                    if toks[j].is_punct('(') {
                        break;
                    }
                    j += 1;
                }
                if j < toks.len() && toks[j].is_punct('{') {
                    harvest_struct_fields(toks, j, &lockish, &mut names);
                    i = skip_balanced_braces(toks, j);
                    continue;
                }
            } else if toks[i].is_ident("let") {
                harvest_let_binding(toks, i, &lockish, &mut names);
            }
            i += 1;
        }
    }
    names
}

/// With `toks[open]` the `{` of a struct body, records lockish fields.
fn harvest_struct_fields(
    toks: &[Tok],
    open: usize,
    lockish: &BTreeSet<String>,
    names: &mut BTreeSet<String>,
) {
    let close = skip_balanced_braces(toks, open) - 1;
    let mut i = open + 1;
    while i < close {
        // Field pattern at depth 1: `name :` ... type ... (`,` | `}`).
        if toks[i].ident().is_some()
            && i + 1 < close
            && toks[i + 1].is_punct(':')
            && !toks[i + 2].is_punct(':')
        {
            let field = toks[i].ident().unwrap_or_default().to_string();
            let mut j = i + 2;
            let mut depth = 0i32;
            let mut hit = false;
            while j < close {
                match &toks[j].kind {
                    TokKind::Punct('<' | '(') => depth += 1,
                    TokKind::Punct('>' | ')') => depth -= 1,
                    TokKind::Punct(',') if depth <= 0 => break,
                    TokKind::Ident(s) if lockish.contains(s) => hit = true,
                    _ => {}
                }
                j += 1;
            }
            if hit {
                names.insert(field);
            }
            i = j;
        }
        i += 1;
    }
}

/// For a `let` at `i`, records the binding if the initializer calls
/// `Mutex::new` / `RwLock::new` (possibly wrapped in `Arc::new`).
fn harvest_let_binding(
    toks: &[Tok],
    i: usize,
    lockish: &BTreeSet<String>,
    names: &mut BTreeSet<String>,
) {
    let Some(name) = toks.get(i + 1).and_then(Tok::ident) else {
        return;
    };
    if name == "mut" {
        // `let mut name = ...`
        if let Some(n2) = toks.get(i + 2).and_then(Tok::ident) {
            return harvest_let_named(toks, i, n2, lockish, names);
        }
        return;
    }
    harvest_let_named(toks, i, name, lockish, names);
}

fn harvest_let_named(
    toks: &[Tok],
    i: usize,
    name: &str,
    lockish: &BTreeSet<String>,
    names: &mut BTreeSet<String>,
) {
    let mut j = i + 2;
    while j + 2 < toks.len() && !toks[j].is_punct(';') {
        if toks[j].ident().is_some_and(|s| lockish.contains(s))
            && toks[j + 1].is_punct(':')
            && toks[j + 2].is_punct(':')
        {
            names.insert(name.to_string());
            return;
        }
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        load_file(src, "x.rs".into(), "test-crate".into())
    }

    #[test]
    fn extracts_fns_with_impl_context() {
        let f = file(
            "impl Shard { fn run(&mut self) -> Result<(), E> { inner(); } }\n\
             fn inner() {}\n\
             trait T { fn decl(&self); fn with_default(&self) { } }",
        );
        let names: Vec<&str> = f.fns.iter().map(|d| d.qual.as_str()).collect();
        assert_eq!(names, vec!["Shard::run", "inner", "T::with_default"]);
    }

    #[test]
    fn strips_cfg_test_modules_and_test_fns() {
        let f = file(
            "fn live() {}\n\
             #[cfg(test)]\nmod tests { fn helper() { x.unwrap(); } }\n\
             #[test]\nfn a_test() { y.unwrap(); }\n\
             fn also_live() {}",
        );
        let names: Vec<&str> = f.fns.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["live", "also_live"]);
        assert!(!f.toks.iter().any(|t| t.is_ident("unwrap")));
    }

    #[test]
    fn a_file_gated_as_a_whole_is_test_code() {
        let f = file("//! Helpers.\n#![cfg(test)]\nfn helper() { x.unwrap(); v[0]; }");
        assert!(f.toks.is_empty() && f.fns.is_empty());
        // An inner attribute that is not the gate changes nothing.
        let f = file("#![allow(dead_code)]\nfn live() {}");
        assert_eq!(f.fns.len(), 1);
    }

    #[test]
    fn harvests_lock_fields_through_aliases() {
        let files = vec![file(
            "type SharedBook = Arc<RwLock<AddressBook>>;\n\
             struct S { book: SharedBook, log: Arc<Mutex<Vec<u8>>>, plain: u32 }\n\
             fn f() { let extra = Arc::new(Mutex::new(0)); }",
        )];
        let names = harvest_lock_names(&files);
        assert!(names.contains("book"));
        assert!(names.contains("log"));
        assert!(names.contains("extra"));
        assert!(!names.contains("plain"));
    }

    #[test]
    fn generic_fns_and_where_clauses_parse() {
        let f = file(
            "fn call<T: Into<Vec<u8>>>(x: T) -> Option<T> where T: Clone { Some(x) }\n\
             fn arrow() -> impl Fn() -> u32 { || 1 }",
        );
        let names: Vec<&str> = f.fns.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["call", "arrow"]);
    }
}
