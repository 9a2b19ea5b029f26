//! The rule table, the rule type and its diagnostics.
//!
//! One kind covers every standing contract: [`scan`] — generic
//! token-pattern policing. Purity, no-lock, hot-path allocation and
//! panic discipline are the four rows of [`RULES`]; each row carries
//! its own budget, so lowering one is a one-number diff to this file.

pub mod scan;

/// A scan rule: flag the listed token patterns in the scoped paths
/// unless a `lint:allow` annotation covers the line.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanRule {
    /// The rule's diagnostic name and its `lint:allow(…)` key.
    pub name: &'static str,
    /// Files/directories the rule polices (workspace-relative).
    pub paths: &'static [&'static str],
    /// Whether test-scoped code is policed too.
    pub include_tests: bool,
    /// `a::b` path patterns to flag.
    pub ban_paths: &'static [&'static str],
    /// Bare identifiers to flag.
    pub ban_idents: &'static [&'static str],
    /// Method names whose `.name(` call sites are flagged.
    pub ban_methods: &'static [&'static str],
    /// Macro names whose `name!` invocations are flagged.
    pub ban_macros: &'static [&'static str],
    /// When set, the count of *annotated* (allowed) sites must equal
    /// this number: a new exemption fails until it is argued for in
    /// review, a removed one fails until the number is lowered — so
    /// the committed figure only ratchets down.
    pub budget: Option<u64>,
    /// One-line contract statement, echoed in diagnostics.
    pub reason: &'static str,
}

/// Where [`RULES`] lives, for the budget diagnostics.
pub const RULES_FILE: &str = "crates/lint/src/rules/mod.rs";

/// The ROADMAP's standing contracts as machine-checked rules.
pub const RULES: [ScanRule; 4] = [
    // PR 6: the pure core is deterministic — journal replay re-derives
    // kernel state bit-for-bit, so wall-clocks, RNG, and ambient I/O
    // are banned outright (tests included: a nondeterministic test of
    // a deterministic core is still a bug). PR 9 extends the same
    // contract to the storm harness: a fault storm is only a
    // reproducer if the seed is the whole story, so the harness gets
    // no ambient entropy either.
    ScanRule {
        name: "purity",
        paths: &["crates/core/src/pure", "crates/storm"],
        include_tests: true,
        ban_paths: &[
            "std::io",
            "std::time",
            "std::fs",
            "std::env",
            "std::process",
            "std::net",
            "std::thread",
        ],
        // `HashMap`/`HashSet` spelled bare mean std's default hasher,
        // whose seed is drawn from the OS implicitly — entropy the
        // `RandomState` ban cannot see. Tables here use
        // `iolite_buf::FixedMap` (or a `BTreeMap`).
        ban_idents: &["rand", "RandomState", "SystemTime", "Instant", "HashMap", "HashSet"],
        ban_methods: &["random"],
        ban_macros: &[],
        budget: None,
        reason: "the pure core must stay deterministic (PR 6): replay re-derives state from the journal alone",
    },
    // PR 7: the sharded kernel is shared-nothing — each shard owns its
    // slice outright and cross-shard traffic rides the message fabric.
    // A lock would reintroduce the coherence traffic the design removed.
    ScanRule {
        name: "no-lock",
        paths: &["crates/core/src", "crates/fs/src", "crates/http/src"],
        include_tests: false,
        ban_paths: &[],
        ban_idents: &["Mutex", "RwLock"],
        ban_methods: &[],
        ban_macros: &[],
        budget: Some(0),
        reason: "shared-nothing sharding (PR 7): cross-shard state moves over the fabric, never under a lock",
    },
    // PR 2: aggregates make the serving path zero-copy; a stray
    // to_vec() quietly reintroduces the copy the whole design exists
    // to avoid.
    ScanRule {
        name: "hot-path-alloc",
        paths: &[
            "crates/http/src/event_loop.rs",
            "crates/http/src/message.rs",
            "crates/core/src/shard.rs",
        ],
        include_tests: false,
        ban_paths: &["Vec::new"],
        ban_idents: &[],
        ban_methods: &["to_vec", "clone"],
        ban_macros: &["vec"],
        budget: Some(8),
        reason: "zero-copy aggregates (PR 2): the hot serving path moves buffers by reference",
    },
    // PR 5: a bad request, dead peer, or full pipe must fail the
    // connection, never the server. Justified panics are annotated and
    // budgeted.
    ScanRule {
        name: "panic",
        paths: &["crates/http/src/event_loop.rs", "crates/http/src/sharded.rs"],
        include_tests: false,
        ban_paths: &[],
        ban_idents: &[],
        ban_methods: &["unwrap", "expect"],
        ban_macros: &["panic", "unimplemented", "todo"],
        budget: Some(9),
        reason: "the serving path never panics (PR 5): fail the connection, not the server",
    },
];

/// One finding: a violated contract at a source location.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path relative to the lint root.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// The violated rule's name.
    pub rule: String,
    /// What was found (and, for scan rules, the contract's reason).
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}
