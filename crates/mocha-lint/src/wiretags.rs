//! Wire-tag exhaustiveness.
//!
//! Parses the `const T_* : u8 = n;` tag table in
//! `crates/mocha-wire/src/message.rs` and verifies, for every tag:
//!
//! * the tag value is unique,
//! * an encode arm exists (`w.put_u8(T_*)`),
//! * a decode arm exists (`T_* => ...`), naming a `Msg::Variant`,
//! * the decoded variant has a *handler* match arm in one of the
//!   protocol's dispatch files (`daemon.rs`, `sync.rs`, `spawn.rs`,
//!   `client.rs`) — so a PR-4-style message addition cannot ship
//!   encode/decode without anyone consuming the message,
//! * the decoder keeps its `BadTag` fallback for unknown tags.
//!
//! `Ping`/`Pong` are exempt from the handler check: they are the
//! small-message benchmark's synthetic traffic and are consumed by the
//! bench harness, not the protocol dispatchers.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, TokKind};
use crate::model::{SourceFile, Workspace};
use crate::Diag;

/// The file defining the tag table and codec.
const MESSAGE_FILE: &str = "mocha-wire/src/message.rs";
/// Files whose match arms count as protocol handlers: the four sans-IO
/// state machines (`client.rs` is the lock client, which takes grants and
/// revocations and answers heartbeat probes).
const HANDLER_FILES: [&str; 4] = [
    "mocha/src/daemon.rs",
    "mocha/src/sync.rs",
    "mocha/src/spawn.rs",
    "mocha/src/client.rs",
];
/// Variants without a protocol handler by design (bench-only traffic).
const HANDLER_EXEMPT: [&str; 2] = ["Ping", "Pong"];

/// Runs the analysis.
pub fn run(ws: &Workspace) -> Vec<Diag> {
    let Some(msg) = ws.file_by_suffix(MESSAGE_FILE) else {
        return Vec::new();
    };
    let mut diags = Vec::new();
    let toks = &msg.toks;

    // 1. The tag table.
    let mut tags: Vec<(String, u64, u32)> = Vec::new();
    let mut i = 0;
    while i + 5 < toks.len() {
        if toks[i].is_ident("const")
            && toks[i + 1].ident().is_some_and(|n| n.starts_with("T_"))
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("u8")
            && toks[i + 4].is_punct('=')
        {
            if let TokKind::Num(n) = &toks[i + 5].kind {
                let name = toks[i + 1].ident().unwrap_or_default().to_string();
                let value = n.replace('_', "").parse::<u64>().unwrap_or(u64::MAX);
                tags.push((name, value, toks[i + 1].line));
                i += 5;
            }
        }
        i += 1;
    }
    if tags.is_empty() {
        diags.push(Diag {
            rule: "wire-tags",
            file: msg.rel.clone(),
            line: 1,
            msg: "no `const T_*: u8` tag table found".to_string(),
        });
        return diags;
    }
    let mut by_value: BTreeMap<u64, &str> = BTreeMap::new();
    for (name, value, line) in &tags {
        if let Some(first) = by_value.insert(*value, name) {
            diags.push(Diag {
                rule: "wire-tags",
                file: msg.rel.clone(),
                line: *line,
                msg: format!("tag value {value} assigned to both {first} and {name}"),
            });
        }
    }

    // 2. Encode arms: `put_u8(T_*)`.
    let mut encoded: BTreeSet<&str> = BTreeSet::new();
    for (j, t) in toks.iter().enumerate() {
        if t.is_ident("put_u8")
            && toks.get(j + 1).is_some_and(|t| t.is_punct('('))
            && toks
                .get(j + 2)
                .and_then(Tok::ident)
                .is_some_and(|n| n.starts_with("T_"))
        {
            if let Some(name) = toks[j + 2].ident() {
                encoded.insert(name);
            }
        }
    }

    // 3. Decode arms: `T_* =>`, and the Msg variant each constructs.
    let mut decoded: BTreeMap<&str, Option<String>> = BTreeMap::new();
    for (j, t) in toks.iter().enumerate() {
        let Some(name) = t.ident().filter(|n| n.starts_with("T_")) else {
            continue;
        };
        if !(toks.get(j + 1).is_some_and(|t| t.is_punct('='))
            && toks.get(j + 2).is_some_and(|t| t.is_punct('>')))
        {
            continue;
        }
        // The first `Msg::Variant` after the arrow is the constructed
        // variant (arms are short; 300 tokens covers the largest).
        let mut variant = None;
        for k in j + 3..(j + 300).min(toks.len().saturating_sub(2)) {
            if toks[k].is_ident("Msg") && toks[k + 1].is_punct(':') && toks[k + 2].is_punct(':') {
                variant = toks.get(k + 3).and_then(Tok::ident).map(str::to_string);
                break;
            }
        }
        decoded.insert(name, variant);
    }

    for (name, _, line) in &tags {
        if !encoded.contains(name.as_str()) {
            diags.push(Diag {
                rule: "wire-tags",
                file: msg.rel.clone(),
                line: *line,
                msg: format!("{name} has no encode arm (`put_u8({name})` not found)"),
            });
        }
        if !decoded.contains_key(name.as_str()) {
            diags.push(Diag {
                rule: "wire-tags",
                file: msg.rel.clone(),
                line: *line,
                msg: format!("{name} has no decode arm (`{name} => ...` not found)"),
            });
        }
    }

    // 4. Every decodable variant is handled by a protocol dispatcher.
    let handler_files: Vec<&SourceFile> = HANDLER_FILES
        .iter()
        .filter_map(|s| ws.file_by_suffix(s))
        .collect();
    if !handler_files.is_empty() {
        let mut handled: BTreeSet<String> = BTreeSet::new();
        for f in &handler_files {
            collect_match_arms(&f.toks, &mut handled);
        }
        for (name, _, line) in &tags {
            let Some(Some(variant)) = decoded.get(name.as_str()) else {
                continue;
            };
            if HANDLER_EXEMPT.contains(&variant.as_str()) || handled.contains(variant) {
                continue;
            }
            diags.push(Diag {
                rule: "wire-tags",
                file: msg.rel.clone(),
                line: *line,
                msg: format!(
                    "{name} decodes to Msg::{variant} but no handler match arm exists in {}",
                    HANDLER_FILES.join(", ")
                ),
            });
        }
    }

    // 5. The unknown-tag fallback must survive.
    if !toks.iter().any(|t| t.is_ident("BadTag")) {
        diags.push(Diag {
            rule: "wire-tags",
            file: msg.rel.clone(),
            line: 1,
            msg: "decoder has no BadTag fallback for unknown tags".to_string(),
        });
    }
    diags
}

/// Collects variant names that appear as `Msg::Variant` in match-arm
/// position: the pattern may be followed by a braced/parenthesised
/// binding list, then `=>`, `|`, or `if`.
fn collect_match_arms(toks: &[Tok], out: &mut BTreeSet<String>) {
    for j in 0..toks.len().saturating_sub(3) {
        if !(toks[j].is_ident("Msg") && toks[j + 1].is_punct(':') && toks[j + 2].is_punct(':')) {
            continue;
        }
        let Some(variant) = toks[j + 3].ident() else {
            continue;
        };
        let mut k = j + 4;
        // Skip one balanced `{...}` or `(...)` binding list.
        if k < toks.len() && (toks[k].is_punct('{') || toks[k].is_punct('(')) {
            let (open, close) = if toks[k].is_punct('{') {
                ('{', '}')
            } else {
                ('(', ')')
            };
            let mut depth = 0i32;
            while k < toks.len() {
                if toks[k].is_punct(open) {
                    depth += 1;
                } else if toks[k].is_punct(close) {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                k += 1;
            }
        }
        let arm = match toks.get(k).map(|t| &t.kind) {
            Some(TokKind::Punct('|')) => true,
            Some(TokKind::Punct('=')) => toks.get(k + 1).is_some_and(|t| t.is_punct('>')),
            Some(TokKind::Ident(s)) => s == "if",
            _ => false,
        };
        if arm {
            out.insert(variant.to_string());
        }
    }
}
