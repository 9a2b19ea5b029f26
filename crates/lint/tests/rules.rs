//! Rule semantics, driven end-to-end through the engine over the
//! fixture tree: known-bad snippets flag, known-good (annotated or
//! prose-only) snippets pass, budgets hold in both directions.

use std::path::{Path, PathBuf};

use iolite_lint::engine::{self, Report};
use iolite_lint::rules::{ScanRule, RULES};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Runs `rule` over the fixture tree.
fn run(rule: ScanRule) -> Report {
    engine::run(&fixtures(), &[rule])
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
    let report = run(ScanRule {
        name: "purity",
        include_tests: true,
        paths: &["purity_bad.rs", "purity_ok.rs"],
        ban_paths: &["std::io", "std::time", "std::fs"],
        ..ScanRule::default()
    });
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
    let report = run(ScanRule {
        name: "no-lock",
        paths: &["lock_bad.rs", "lock_allowed.rs"],
        ban_idents: &["Mutex", "RwLock"],
        budget: Some(2),
        ..ScanRule::default()
    });
    // Both annotated sites in lock_allowed.rs count toward the budget:
    // at `Some(2)` no budget diagnostic joins the two violations.
    assert_eq!(
        lines(&report, "no-lock"),
        vec![
            ("lock_bad.rs".to_string(), 3),
            ("lock_bad.rs".to_string(), 6)
        ],
        "{:?}",
        report.diags
    );
}

#[test]
fn broken_annotations_are_diagnostics() {
    let report = run(ScanRule {
        name: "no-lock",
        paths: &["hygiene_bad.rs"],
        ban_idents: &["Mutex"],
        ..ScanRule::default()
    });
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
    let report = run(ScanRule {
        name: "hot-path-alloc",
        paths: &["alloc_bad.rs", "alloc_test_scoped.rs"],
        ban_paths: &["Vec::new"],
        ban_methods: &["to_vec"],
        ban_macros: &["vec"],
        ..ScanRule::default()
    });
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
    let report = run(ScanRule {
        name: "panic",
        paths: &["panic_bad.rs"],
        ban_methods: &["unwrap", "expect"],
        ban_macros: &["panic"],
        ..ScanRule::default()
    });
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
    // lock_allowed.rs holds exactly two annotated sites.
    let at = |budget| {
        run(ScanRule {
            name: "no-lock",
            paths: &["lock_allowed.rs"],
            ban_idents: &["Mutex"],
            budget: Some(budget),
            ..ScanRule::default()
        })
    };
    // At the committed count: clean.
    let report = at(2);
    assert!(report.diags.is_empty(), "{:?}", report.diags);
    // An extra annotated site (above the committed count) fails: the
    // ratchet only turns one way.
    let report = at(1);
    assert_eq!(report.diags.len(), 1, "{:?}", report.diags);
    assert!(report.diags[0].message.contains("grew"));
    // A removed site (below the committed count) fails too, until the
    // number is lowered — so the table never overstates the tree.
    let report = at(3);
    assert_eq!(report.diags.len(), 1, "{:?}", report.diags);
    assert!(report.diags[0].message.contains("shrank"));
    assert!(report.diags[0].message.contains("lower the rule's `budget` to 2"));
}

#[test]
fn scan_scope_reports_config_rot() {
    let report = run(ScanRule {
        name: "purity",
        paths: &["no/such/dir"],
        ban_idents: &["rand"],
        ..ScanRule::default()
    });
    assert!(
        report
            .diags
            .iter()
            .any(|d| d.message.contains("match no .rs files")),
        "{:?}",
        report.diags
    );
}

/// The shipped table is PR 8's catalog (minus the two rules PR 13
/// retired): it cannot silently lose a rule, a path or a budget.
#[test]
fn shipped_rules_are_the_pr8_catalog() {
    let shape: Vec<_> = RULES
        .iter()
        .map(|r| (r.name, r.paths, r.include_tests, r.budget))
        .collect();
    assert_eq!(
        shape,
        vec![
            (
                "purity",
                &["crates/core/src/pure", "crates/storm"][..],
                true,
                None
            ),
            (
                "no-lock",
                &["crates/core/src", "crates/fs/src", "crates/http/src"][..],
                false,
                Some(0)
            ),
            (
                "hot-path-alloc",
                &[
                    "crates/http/src/event_loop.rs",
                    "crates/http/src/message.rs",
                    "crates/core/src/shard.rs"
                ][..],
                false,
                Some(8)
            ),
            (
                "panic",
                &["crates/http/src/event_loop.rs", "crates/http/src/sharded.rs"][..],
                false,
                Some(9)
            ),
        ]
    );
    for r in &RULES {
        let bans = r.ban_paths.len() + r.ban_idents.len() + r.ban_methods.len() + r.ban_macros.len();
        assert!(bans > 0, "[{}] bans nothing", r.name);
        assert!(!r.reason.is_empty(), "[{}] states no contract", r.name);
    }
}
