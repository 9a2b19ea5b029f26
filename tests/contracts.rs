//! The exemption ledger: how many sites may waive a contract lint.
//!
//! Clippy holds the contracts (the root and `crates/core` `clippy.toml`
//! bans, the `#![deny]` at the top of the serving modules), and a site
//! that must break one carries `#[expect(clippy::…, reason = "…")]`.
//! An expectation that no longer fires is itself a clippy error, so a
//! stale exemption cannot linger; this test is the other half of the
//! ratchet: adding one fails here until the number below is raised, a
//! one-number diff that review has to accept. The files are read at
//! compile time, so the test does no I/O.

/// The files whose exemptions are counted, and their contents.
const POLICED: [(&str, &str); 4] = [
    (
        "crates/http/src/event_loop.rs",
        include_str!("../crates/http/src/event_loop.rs"),
    ),
    (
        "crates/http/src/sharded.rs",
        include_str!("../crates/http/src/sharded.rs"),
    ),
    (
        "crates/buf/src/pool.rs",
        include_str!("../crates/buf/src/pool.rs"),
    ),
    (
        "crates/core/tests/prop_fd_equiv.rs",
        include_str!("../crates/core/tests/prop_fd_equiv.rs"),
    ),
];

/// The panic family the serving modules deny (PR 5).
const PANIC_LINTS: [&str; 5] = [
    "unwrap_used",
    "expect_used",
    "panic",
    "todo",
    "unimplemented",
];

/// The clippy lints named by each `#[expect(…)]` / `#![expect(…)]`
/// attribute in `src`, however the attribute is wrapped.
fn expected_lints(src: &str) -> Vec<&str> {
    src.match_indices("expect(")
        .filter(|(at, _)| src[..*at].ends_with("#[") || src[..*at].ends_with("#!["))
        .filter_map(|(at, open)| {
            let lint = src[at + open.len()..]
                .trim_start()
                .strip_prefix("clippy::")?;
            let end = lint.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))?;
            Some(&lint[..end])
        })
        .collect()
}

/// Exemptions of any of `lints` across `files`.
fn count(files: &[&str], lints: &[&str]) -> usize {
    POLICED
        .iter()
        .filter(|(path, _)| files.contains(path))
        .flat_map(|(_, src)| expected_lints(src))
        .filter(|lint| lints.contains(lint))
        .count()
}

#[test]
fn exemptions_match_the_ledger() {
    let serving = [
        "crates/http/src/event_loop.rs",
        "crates/http/src/sharded.rs",
    ];
    assert_eq!(
        count(&serving, &PANIC_LINTS),
        5,
        "panic-family exemptions in the serving path"
    );
    let all = POLICED.map(|(path, _)| path);
    assert_eq!(
        count(&all, &["disallowed_types"]),
        2,
        "`disallowed_types` exemptions"
    );
}
