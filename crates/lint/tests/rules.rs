//! Rule semantics, driven end-to-end through the engine over the
//! fixture tree: known-bad snippets flag, known-good (annotated or
//! prose-only) snippets pass, ratchets turn one way.

use std::path::{Path, PathBuf};

use iolite_lint::baseline::Baseline;
use iolite_lint::config::Config;
use iolite_lint::engine::{self, Report};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Runs `config` over the fixture tree against `baseline`.
fn run(config: &str, baseline: &Baseline, enforce: bool) -> Report {
    let cfg = Config::parse(config).expect("test config parses");
    engine::run(&fixtures(), &cfg, baseline, enforce)
}

fn lines(report: &Report, rule: &str) -> Vec<(String, u32)> {
    report
        .diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| (d.path.clone(), d.line))
        .collect()
}

#[test]
fn purity_flags_code_but_never_comments_or_strings() {
    let report = run(
        r#"
[rules.purity]
kind = "scan"
include-tests = true
paths = ["purity_bad.rs", "purity_ok.rs"]
ban-paths = ["std::io", "std::time", "std::fs"]
"#,
        &Baseline::default(),
        true,
    );
    // One violation: the renamed `use std::time::Instant as Clock`.
    // The comments, string, and raw string spelling banned paths —
    // and the whole of purity_ok.rs — stay silent.
    assert_eq!(
        lines(&report, "purity"),
        vec![("purity_bad.rs".to_string(), 15)],
        "{:?}",
        report.diags
    );
}

#[test]
fn no_lock_flags_unannotated_and_exempts_annotated() {
    let report = run(
        r#"
[rules.no-lock]
kind = "scan"
paths = ["lock_bad.rs", "lock_allowed.rs"]
ban-idents = ["Mutex", "RwLock"]
budget = true
"#,
        &Baseline::default(),
        false,
    );
    assert_eq!(
        lines(&report, "no-lock"),
        vec![
            ("lock_bad.rs".to_string(), 3),
            ("lock_bad.rs".to_string(), 6)
        ],
        "{:?}",
        report.diags
    );
    // Both annotated sites in lock_allowed.rs count toward the budget.
    assert_eq!(report.observed.get("no-lock", "allowed"), Some(2));
}

#[test]
fn broken_annotations_are_diagnostics() {
    let report = run(
        r#"
[rules.no-lock]
kind = "scan"
paths = ["hygiene_bad.rs"]
ban-idents = ["Mutex"]
"#,
        &Baseline::default(),
        true,
    );
    let msgs: Vec<&str> = report.diags.iter().map(|d| d.message.as_str()).collect();
    assert!(
        msgs.iter().any(|m| m.contains("has no reason")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter().any(|m| m.contains("names no configured rule")),
        "{msgs:?}"
    );
    // The reasonless annotation does not exempt: both Mutex mentions
    // still flag.
    assert_eq!(lines(&report, "no-lock").len(), 2, "{:?}", report.diags);
}

#[test]
fn hot_path_alloc_flags_each_shape_and_skips_test_scope() {
    let report = run(
        r#"
[rules.hot-path-alloc]
kind = "scan"
paths = ["alloc_bad.rs", "alloc_test_scoped.rs"]
ban-paths = ["Vec::new"]
ban-methods = ["to_vec"]
ban-macros = ["vec"]
"#,
        &Baseline::default(),
        true,
    );
    assert_eq!(
        lines(&report, "hot-path-alloc"),
        vec![
            ("alloc_bad.rs".to_string(), 4),
            ("alloc_bad.rs".to_string(), 6),
            ("alloc_bad.rs".to_string(), 8),
        ],
        "test-scoped allocations must not flag: {:?}",
        report.diags
    );
}

#[test]
fn panic_rule_flags_serving_code_not_tests() {
    let report = run(
        r#"
[rules.panic]
kind = "scan"
paths = ["panic_bad.rs"]
ban-methods = ["unwrap", "expect"]
ban-macros = ["panic"]
"#,
        &Baseline::default(),
        true,
    );
    assert_eq!(
        lines(&report, "panic"),
        vec![
            ("panic_bad.rs".to_string(), 4),
            ("panic_bad.rs".to_string(), 6),
        ],
        "the #[test] fn's unwrap must not flag: {:?}",
        report.diags
    );
}

#[test]
fn budget_ratchet_counts_annotated_sites() {
    let config = r#"
[rules.no-lock]
kind = "scan"
paths = ["lock_allowed.rs"]
ban-idents = ["Mutex"]
budget = true
"#;
    // No baseline entry: enforce mode demands a --fix-baseline run.
    let report = run(config, &Baseline::default(), true);
    assert!(
        report
            .diags
            .iter()
            .any(|d| d.message.contains("no baseline entry")),
        "{:?}",
        report.diags
    );
    // At the committed count: clean.
    let mut at_two = Baseline::default();
    at_two.set("no-lock", "allowed", 2);
    let report = run(config, &at_two, true);
    assert!(report.diags.is_empty(), "{:?}", report.diags);
    // Above the committed count: the ratchet only turns one way.
    let mut at_one = Baseline::default();
    at_one.set("no-lock", "allowed", 1);
    let report = run(config, &at_one, true);
    assert_eq!(report.diags.len(), 1, "{:?}", report.diags);
    assert!(report.diags[0].message.contains("grew"));
    // Below an inflated baseline: a note, not a violation.
    let mut at_three = Baseline::default();
    at_three.set("no-lock", "allowed", 3);
    let report = run(config, &at_three, true);
    assert!(report.diags.is_empty());
    assert!(report.notes.iter().any(|n| n.contains("shrank")));
}

#[test]
fn scan_scope_reports_config_rot() {
    let report = run(
        r#"
[rules.purity]
kind = "scan"
paths = ["no/such/dir"]
ban-idents = ["rand"]
"#,
        &Baseline::default(),
        true,
    );
    assert!(
        report
            .diags
            .iter()
            .any(|d| d.message.contains("match no .rs files")),
        "{:?}",
        report.diags
    );
}

#[test]
fn baseline_render_parse_roundtrip() {
    let mut b = Baseline::default();
    b.set("panic", "allowed", 10);
    b.set("hot-path-alloc", "allowed", 0);
    b.set("no-lock", "allowed", 3);
    let reparsed = Baseline::parse(&b.render()).expect("roundtrip parses");
    assert_eq!(reparsed, b);
}

#[test]
fn config_rejects_typos_loudly() {
    for (cfg, needle) in [
        ("[rules.x]\nkind = \"scna\"\npaths = [\"a\"]", "unknown kind"),
        ("[rules.x]\npaths = [\"a\"]", "missing `kind`"),
        (
            "[rules.x]\nkind = \"scan\"\npaths = [\"a\"]",
            "bans nothing",
        ),
        (
            "[rules.x]\nkind = \"scan\"\nban-idents = [\"Mutex\"]",
            "non-empty `paths`",
        ),
        ("", "no [rules.*]"),
    ] {
        let err = Config::parse(cfg).expect_err(cfg);
        assert!(err.contains(needle), "{cfg:?} → {err}");
    }
}
