//! The generic token-pattern scanner.
//!
//! One engine, four contracts: **purity** (`std::{io,time,fs}`, RNG and
//! wall-clock identifiers banned from the pure core — robust to `use …
//! as` renames because the `use` line itself spells the banned path),
//! **no-lock** (`Mutex`/`RwLock` identifiers banned from kernel/cache/
//! serving crates), **hot-path-alloc** (`.to_vec()`/`.clone()`/
//! `Vec::new`/`vec!` banned from designated hot modules), and
//! **panic** (`.unwrap()`/`.expect()`/`panic!` banned from the serving
//! path). Each banned occurrence is a diagnostic unless the line
//! carries a `lint:allow(<rule>) — reason` annotation.
//!
//! Matching runs over *code* tokens only — comments and string/char
//! literals can spell `std::fs` all day (this is the false-positive
//! class the old CI grep suffered from).

use crate::lexer::TokenKind;
use crate::rules::{Diagnostic, ScanRule};
use crate::source::SourceFile;

/// The scanner's verdict on one file.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Unannotated violations.
    pub diags: Vec<Diagnostic>,
    /// Sites a `lint:allow` annotation exempted (budget accounting).
    pub allowed_sites: u64,
}

/// Scans one file against `rule`, appending findings to `out`.
pub fn scan_file(rule: &ScanRule, file: &SourceFile, out: &mut ScanOutcome) {
    let code = file.code_indexes();
    for (pos, &i) in code.iter().enumerate() {
        if !rule.include_tests && file.test_mask[i] {
            continue;
        }
        let tok = file.tokens[i];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let text = file.text(i);
        let found: Option<String> = banned_path(rule, file, &code, pos)
            .map(|p| format!("reference to banned path `{p}`"))
            .or_else(|| {
                rule.ban_idents
                    .contains(&text)
                    .then(|| format!("banned identifier `{text}`"))
            })
            .or_else(|| {
                (is_method_call(file, &code, pos) && rule.ban_methods.contains(&text))
                    .then(|| format!("banned call `.{text}()`"))
            })
            .or_else(|| {
                (is_macro_invocation(file, &code, pos)
                    && rule.ban_macros.contains(&text))
                .then(|| format!("banned macro `{text}!`"))
            });
        let Some(what) = found else { continue };
        if file.allowed(rule.name, tok.line) {
            out.allowed_sites += 1;
            continue;
        }
        let reason = if rule.reason.is_empty() {
            String::new()
        } else {
            format!(" — {}", rule.reason)
        };
        out.diags.push(Diagnostic {
            path: file.path.display().to_string(),
            line: tok.line,
            rule: rule.name.to_string(),
            message: format!("{what}{reason}"),
        });
    }
}

/// If the idents starting at code-index `pos` spell one of the rule's
/// banned `a::b::c` paths, returns the matched path. First match wins.
fn banned_path(
    rule: &ScanRule,
    file: &SourceFile,
    code: &[usize],
    pos: usize,
) -> Option<&'static str> {
    'pattern: for &pattern in rule.ban_paths {
        let mut c = pos;
        let mut segs = pattern.split("::").peekable();
        while let Some(seg) = segs.next() {
            if c >= code.len()
                || file.tokens[code[c]].kind != TokenKind::Ident
                || file.text(code[c]) != seg
            {
                continue 'pattern;
            }
            c += 1;
            if segs.peek().is_some() {
                // Expect `::` between segments.
                if !(punct_at(file, code, c, ":") && punct_at(file, code, c + 1, ":")) {
                    continue 'pattern;
                }
                c += 2;
            }
        }
        return Some(pattern);
    }
    None
}

/// Whether the ident at code-index `pos` is a `.name(` method call.
fn is_method_call(file: &SourceFile, code: &[usize], pos: usize) -> bool {
    pos > 0
        && punct_at(file, code, pos - 1, ".")
        && (punct_at(file, code, pos + 1, "(")
            // `.collect::<Vec<_>>()`-style turbofish on the call.
            || (punct_at(file, code, pos + 1, ":") && punct_at(file, code, pos + 2, ":")))
}

/// Whether the ident at code-index `pos` is a `name!` macro invocation.
fn is_macro_invocation(file: &SourceFile, code: &[usize], pos: usize) -> bool {
    punct_at(file, code, pos + 1, "!")
}

fn punct_at(file: &SourceFile, code: &[usize], pos: usize, what: &str) -> bool {
    code.get(pos).is_some_and(|&i| {
        file.tokens[i].kind == TokenKind::Punct && file.text(i) == what
    })
}
