//! The rule implementation and its diagnostics.
//!
//! One kind covers every standing contract: [`scan`] — generic
//! token-pattern policing (purity, no-lock, hot-path allocation and
//! panic discipline are all configurations of this one scanner).

pub mod scan;

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
