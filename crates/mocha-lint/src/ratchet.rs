//! Panic ratchet.
//!
//! Counts potential panic sites per crate — `unwrap()`, `expect(...)`,
//! `panic!`/`todo!`/`unimplemented!`/`unreachable!`, and indexing
//! (`expr[...]`) — in non-test code, and compares against the checked-in
//! `lint-baseline.toml`. For the protocol-path crates (`mocha`,
//! `mocha-net`, `mocha-wire`) a count above baseline fails the lint; for
//! other crates it is reported as a note. Counts below baseline are
//! reported as ratchet-down suggestions: lower the number in the
//! baseline, never raise one. Regenerate with
//! `cargo run -p mocha-lint -- --write-baseline`.
//!
//! An index whose bound the type already proves (a `u8` into a 256-entry
//! table) is not a panic site: `// lint: allow(indexing)` on the same line
//! or the line above, with the bound stated, takes it out of the count.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::lexer::TokKind;
use crate::model::Workspace;
use crate::Diag;

/// Baseline file name, at the workspace root.
pub const BASELINE_FILE: &str = "lint-baseline.toml";
/// Crates where a rising count fails CI.
const PROTOCOL_CRATES: [&str; 3] = ["mocha", "mocha-net", "mocha-wire"];

/// Counts panic sites per crate.
pub fn count(ws: &Workspace) -> BTreeMap<String, usize> {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for file in &ws.files {
        let entry = counts.entry(file.crate_name.clone()).or_insert(0);
        let toks = &file.toks;
        for i in 0..toks.len() {
            let tok = &toks[i];
            let site = match &tok.kind {
                TokKind::Ident(s) if s == "unwrap" || s == "expect" => {
                    toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                        && i > 0
                        && toks[i - 1].is_punct('.')
                }
                TokKind::Ident(s)
                    if s == "panic"
                        || s == "todo"
                        || s == "unimplemented"
                        || s == "unreachable" =>
                {
                    toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
                }
                // Postfix indexing: `[` directly after an expression.
                TokKind::Punct('[') => {
                    i > 0
                        && !Workspace::is_allowed(file, "indexing", tok.line)
                        && match &toks[i - 1].kind {
                            TokKind::Ident(s) => !is_keyword(s),
                            TokKind::Punct(')' | ']') => true,
                            _ => false,
                        }
                }
                _ => false,
            };
            if site {
                *entry += 1;
            }
        }
    }
    counts
}

/// Runs the ratchet against the baseline. `notes` receives non-fatal
/// observations (ratchet-down opportunities, non-protocol regressions).
pub fn run(ws: &Workspace, notes: &mut Vec<String>) -> Vec<Diag> {
    let mut diags = Vec::new();
    let counts = count(ws);
    let path = ws.root.join(BASELINE_FILE);
    let Ok(raw) = fs::read_to_string(&path) else {
        diags.push(Diag {
            rule: "panic-ratchet",
            file: BASELINE_FILE.to_string(),
            line: 1,
            msg: format!(
                "missing {BASELINE_FILE}; generate it with `cargo run -p mocha-lint -- \
                 --write-baseline`"
            ),
        });
        return diags;
    };
    let baseline = parse_baseline(&raw);
    for (krate, &now) in &counts {
        let protocol = PROTOCOL_CRATES.contains(&krate.as_str());
        match baseline.get(krate) {
            Some(&base) if now > base => {
                let msg = format!(
                    "{krate}: {now} panic sites, baseline {base} — new unwrap/expect/\
                     indexing/panic! on a protocol path must be burned down, not added"
                );
                if protocol {
                    diags.push(Diag {
                        rule: "panic-ratchet",
                        file: BASELINE_FILE.to_string(),
                        line: 1,
                        msg,
                    });
                } else {
                    notes.push(format!("panic-ratchet (non-fatal): {msg}"));
                }
            }
            Some(&base) if now < base => {
                notes.push(format!(
                    "panic-ratchet: {krate} is at {now}, baseline {base} — ratchet the \
                     baseline down"
                ));
            }
            Some(_) => {}
            None => {
                let msg = format!("{krate}: {now} panic sites but no entry in {BASELINE_FILE}");
                if protocol {
                    diags.push(Diag {
                        rule: "panic-ratchet",
                        file: BASELINE_FILE.to_string(),
                        line: 1,
                        msg,
                    });
                } else {
                    notes.push(format!("panic-ratchet (non-fatal): {msg}"));
                }
            }
        }
    }
    diags
}

/// Renders a fresh baseline for the current tree.
pub fn render_baseline(ws: &Workspace) -> String {
    let mut out = String::from(
        "# Panic-site ratchet baseline for mocha-lint.\n\
         #\n\
         # Each entry is the number of potential panic sites (unwrap/expect,\n\
         # panic!-family macros, indexing) in that crate's non-test code. CI\n\
         # fails when a protocol-path crate (mocha, mocha-net, mocha-wire)\n\
         # rises above its entry. Numbers only ratchet DOWN: lower one after\n\
         # a burn-down, never raise one. Regenerate with\n\
         #     cargo run -p mocha-lint -- --write-baseline\n\
         \n[panic-sites]\n",
    );
    for (krate, n) in count(ws) {
        let _ = writeln!(out, "{krate} = {n}");
    }
    out
}

/// Writes the baseline file. Returns its rendered contents.
///
/// # Errors
///
/// Propagates the write error.
pub fn write_baseline(ws: &Workspace) -> std::io::Result<String> {
    let rendered = render_baseline(ws);
    fs::write(ws.root.join(BASELINE_FILE), &rendered)?;
    Ok(rendered)
}

/// Parses the `[panic-sites]` table of the baseline file. Deliberately a
/// tiny hand-rolled reader (full TOML is not needed for `key = int`).
fn parse_baseline(raw: &str) -> BTreeMap<String, usize> {
    let mut map = BTreeMap::new();
    let mut in_section = false;
    for line in raw.lines() {
        let line = line.trim();
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            in_section = line == "[panic-sites]";
            continue;
        }
        if !in_section {
            continue;
        }
        if let Some((key, value)) = line.split_once('=') {
            if let Ok(n) = value.trim().parse::<usize>() {
                map.insert(key.trim().to_string(), n);
            }
        }
    }
    map
}

/// Keywords that can directly precede `[` without forming an index
/// expression (`return [..]`, `break [..]`, `in [..]`, ...).
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "return"
            | "break"
            | "continue"
            | "in"
            | "if"
            | "else"
            | "match"
            | "mut"
            | "ref"
            | "move"
            | "as"
            | "dyn"
            | "impl"
            | "where"
            | "let"
            | "const"
            | "static"
            | "type"
            | "fn"
            | "use"
            | "pub"
    )
}

/// Lints the baseline file itself against a freshly counted tree rooted
/// at `root` (used by `--write-baseline` to confirm the write landed).
///
/// # Errors
///
/// Propagates scan errors.
pub fn baseline_in_sync(root: &Path) -> std::io::Result<bool> {
    let ws = Workspace::scan(root)?;
    let raw = fs::read_to_string(ws.root.join(BASELINE_FILE)).unwrap_or_default();
    let baseline = parse_baseline(&raw);
    Ok(count(&ws).iter().all(|(k, &n)| baseline.get(k) == Some(&n)))
}
