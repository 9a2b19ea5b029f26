//! Orchestration: walk the rules' paths once, lex each file once,
//! run every rule over the shared [`SourceFile`] cache, and fold the
//! results into one [`Report`].
//!
//! Two cross-cutting checks run here rather than in any single rule:
//!
//! * **annotation hygiene** — a `lint:allow(<rule>)` naming a rule that
//!   isn't in the table is dead weight (usually a typo silently
//!   disabling nothing), and an annotation without a reason defeats
//!   the point of annotations; both are diagnostics;
//! * **budgets** — a budgeted rule's count of annotated sites must
//!   equal the number committed beside it in the table: growth is a
//!   failure, and so is shrinkage until the number is lowered to match.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::rules::{scan, Diagnostic, ScanRule, RULES_FILE};
use crate::source::SourceFile;

/// Everything one lint run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Contract violations — any means a nonzero exit.
    pub diags: Vec<Diagnostic>,
    /// Number of distinct files lexed and scanned.
    pub files_scanned: usize,
}

/// Runs every rule of `rules`; `root` anchors their relative paths.
pub fn run(root: &Path, rules: &[ScanRule]) -> Report {
    let mut report = Report::default();
    let mut files: BTreeMap<String, SourceFile> = BTreeMap::new();

    for rule in rules {
        for rel in rule.paths {
            collect(root, rel.trim_end_matches('/'), &mut files, &mut report.diags);
        }
    }
    report.files_scanned = files.len();

    // Annotation hygiene. Every loaded file is in some rule's scope,
    // so every `lint:allow` seen here was meant to have an effect.
    for (rel, file) in &files {
        for allow in &file.allows {
            if !rules.iter().any(|r| r.name == allow.rule) {
                report.diags.push(Diagnostic {
                    path: rel.clone(),
                    line: allow.line,
                    rule: "annotation".to_string(),
                    message: format!(
                        "`lint:allow({})` names no configured rule (typo?)",
                        allow.rule
                    ),
                });
            } else if !allow.has_reason {
                report.diags.push(Diagnostic {
                    path: rel.clone(),
                    line: allow.line,
                    rule: "annotation".to_string(),
                    message: format!(
                        "`lint:allow({})` has no reason — every exemption \
                         must say why",
                        allow.rule
                    ),
                });
            }
        }
    }

    for r in rules {
        let mut outcome = scan::ScanOutcome::default();
        let mut in_scope_files = 0usize;
        for (rel, file) in &files {
            if !in_scope(rel, r.paths) {
                continue;
            }
            in_scope_files += 1;
            scan::scan_file(r, file, &mut outcome);
        }
        if in_scope_files == 0 {
            report.diags.push(Diagnostic {
                path: r.paths.first().copied().unwrap_or_default().to_string(),
                line: 1,
                rule: r.name.to_string(),
                message: "configured paths match no .rs files — the rule polices \
                          nothing (moved module? fix the rule table)"
                    .to_string(),
            });
        }
        report.diags.extend(outcome.diags);
        if let Some(budget) = r.budget {
            if let Some(message) = off_budget(outcome.allowed_sites, budget) {
                report.diags.push(Diagnostic {
                    path: RULES_FILE.to_string(),
                    line: 1,
                    rule: r.name.to_string(),
                    message,
                });
            }
        }
    }

    report
        .diags
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    report
}

/// One budget comparison: observed vs committed annotated sites.
fn off_budget(observed: u64, budget: u64) -> Option<String> {
    match observed.cmp(&budget) {
        Ordering::Greater => Some(format!(
            "allowed sites grew: {observed} observed vs {budget} committed — the \
             ratchet only turns one way; remove the new site or justify \
             the increase in review"
        )),
        Ordering::Less => Some(format!(
            "allowed sites shrank: {observed} observed vs {budget} committed — \
             lower the rule's `budget` to {observed} to bank the progress"
        )),
        Ordering::Equal => None,
    }
}

/// Whether `rel` is `p` or inside directory `p`, for any `p` in
/// `paths`.
fn in_scope(rel: &str, paths: &[&str]) -> bool {
    paths.iter().any(|p| {
        let p = p.trim_end_matches('/');
        rel == p || (rel.len() > p.len() && rel.starts_with(p) && rel.as_bytes()[p.len()] == b'/')
    })
}

/// Recursively loads `.rs` files under `root`/`rel` into `files`,
/// skipping hidden entries and `target/`. Unreadable files are
/// diagnostics, not panics.
fn collect(
    root: &Path,
    rel: &str,
    files: &mut BTreeMap<String, SourceFile>,
    diags: &mut Vec<Diagnostic>,
) {
    let full = root.join(rel);
    if full.is_dir() {
        let Ok(entries) = fs::read_dir(&full) else {
            return;
        };
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        for name in names {
            if name.starts_with('.') || name == "target" {
                continue;
            }
            collect(root, &format!("{rel}/{name}"), files, diags);
        }
    } else if rel.ends_with(".rs") && full.is_file() && !files.contains_key(rel) {
        match fs::read_to_string(&full) {
            Ok(src) => {
                files.insert(rel.to_string(), SourceFile::new(PathBuf::from(rel), src));
            }
            Err(e) => diags.push(Diagnostic {
                path: rel.to_string(),
                line: 1,
                rule: "read".to_string(),
                message: format!("cannot read file: {e}"),
            }),
        }
    }
}
