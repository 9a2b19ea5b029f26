//! Orchestration: walk the configured paths once, lex each file once,
//! run every rule over the shared [`SourceFile`] cache, and fold the
//! results into one [`Report`].
//!
//! Two cross-cutting checks run here rather than in any single rule:
//!
//! * **annotation hygiene** — a `lint:allow(<rule>)` naming a rule that
//!   isn't configured is dead weight (usually a typo silently
//!   disabling nothing), and an annotation without a reason defeats
//!   the point of annotations; both are diagnostics;
//! * **baseline ratchets** — budgeted rules compare their count of
//!   annotated sites to the committed baseline: growth is a failure,
//!   shrinkage a note suggesting `--fix-baseline`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::baseline::Baseline;
use crate::config::Config;
use crate::rules::{scan, Diagnostic};
use crate::source::SourceFile;

/// Everything one lint run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Contract violations — any means a nonzero exit.
    pub diags: Vec<Diagnostic>,
    /// Informational lines (baseline shrinkage, mostly).
    pub notes: Vec<String>,
    /// Observed counts for every ratcheted rule — what `--fix-baseline`
    /// writes out.
    pub observed: Baseline,
    /// Number of distinct files lexed and scanned.
    pub files_scanned: usize,
}

/// Runs every configured rule. `root` anchors the config-relative
/// paths; `enforce_baseline = false` (the `--fix-baseline` path) skips
/// ratchet comparisons while still running every other check, so a
/// baseline can only be regenerated from an otherwise-clean tree.
pub fn run(root: &Path, cfg: &Config, baseline: &Baseline, enforce_baseline: bool) -> Report {
    let mut report = Report::default();
    let mut files: BTreeMap<String, SourceFile> = BTreeMap::new();

    for (_, rule) in &cfg.rules {
        for rel in &rule.paths {
            collect(root, rel.trim_end_matches('/'), &mut files, &mut report.diags);
        }
    }
    report.files_scanned = files.len();

    // Annotation hygiene. Every loaded file is in some rule's scope,
    // so every `lint:allow` seen here was meant to have an effect.
    let rule_names = cfg.rule_names();
    for (rel, file) in &files {
        for allow in &file.allows {
            if !rule_names.contains(&allow.rule.as_str()) {
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

    for (name, r) in &cfg.rules {
        let mut outcome = scan::ScanOutcome::default();
        let mut in_scope_files = 0usize;
        for (rel, file) in &files {
            if !in_scope(rel, &r.paths) {
                continue;
            }
            in_scope_files += 1;
            scan::scan_file(name, r, file, &mut outcome);
        }
        if in_scope_files == 0 {
            report.diags.push(config_rot(name, &r.paths));
        }
        report.diags.extend(outcome.diags);
        if r.budget {
            report.observed.set(name, "allowed", outcome.allowed_sites);
            if enforce_baseline {
                ratchet(name, outcome.allowed_sites, baseline.get(name, "allowed"), &mut report);
            }
        }
    }

    report
        .diags
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    report
}

/// One ratchet comparison: observed vs committed annotated sites.
fn ratchet(rule: &str, observed: u64, committed: Option<u64>, report: &mut Report) {
    let what = "allowed sites";
    let key_hint = "run `--fix-baseline` and commit the diff";
    match committed {
        None => report.diags.push(Diagnostic {
            path: "lint-baseline.toml".to_string(),
            line: 1,
            rule: rule.to_string(),
            message: format!("no baseline entry for {what} — {key_hint}"),
        }),
        Some(b) if observed > b => report.diags.push(Diagnostic {
            path: "lint-baseline.toml".to_string(),
            line: 1,
            rule: rule.to_string(),
            message: format!(
                "{what} grew: {observed} observed vs {b} committed — the \
                 ratchet only turns one way; remove the new site or justify \
                 the increase in review and {key_hint}"
            ),
        }),
        Some(b) if observed < b => report.notes.push(format!(
            "[{rule}] {what} shrank: {observed} observed vs {b} committed — \
             {key_hint} to bank the progress"
        )),
        Some(_) => {}
    }
}

fn config_rot(rule: &str, paths: &[String]) -> Diagnostic {
    Diagnostic {
        path: paths.first().cloned().unwrap_or_default(),
        line: 1,
        rule: rule.to_string(),
        message: "configured paths match no .rs files — the rule polices \
                  nothing (moved module? fix lint.toml)"
            .to_string(),
    }
}

/// Whether `rel` is `p` or inside directory `p`, for any `p` in
/// `paths`.
fn in_scope(rel: &str, paths: &[String]) -> bool {
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
