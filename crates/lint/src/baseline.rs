//! The committed counts ratchet (`lint-baseline.toml`).
//!
//! Budgeted rules compare their count of annotated (`lint:allow`)
//! sites against this file instead of demanding zero: the count may
//! shrink, never grow. The file is committed, so an intentional change
//! is an explicit, reviewable diff — produced by
//! `iolite-lint --fix-baseline`, never by hand-tweaking counts to make
//! CI pass.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::toml::{Doc, Value};

/// Counts per rule: rule name → key → count. Budgeted rules record
/// the single key `"allowed"`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Baseline {
    tables: BTreeMap<String, BTreeMap<String, u64>>,
}

impl Baseline {
    /// Parses the baseline file's text.
    ///
    /// # Errors
    ///
    /// Returns a message on syntax errors or non-integer counts.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let doc = Doc::parse(text).map_err(|e| format!("baseline: {e}"))?;
        let mut b = Baseline::default();
        for name in doc.table_names() {
            if name.is_empty() {
                continue;
            }
            let table = doc.table(name).expect("listed name");
            for (key, value) in table {
                let Value::Int(n) = value else {
                    return Err(format!("baseline [{name}] {key}: counts must be integers"));
                };
                if *n < 0 {
                    return Err(format!("baseline [{name}] {key}: negative count"));
                }
                b.set(name, key, *n as u64);
            }
        }
        Ok(b)
    }

    /// The recorded count for `(rule, key)`, if any.
    pub fn get(&self, rule: &str, key: &str) -> Option<u64> {
        self.tables.get(rule).and_then(|t| t.get(key)).copied()
    }

    /// Records a count.
    pub fn set(&mut self, rule: &str, key: &str, count: u64) {
        self.tables
            .entry(rule.to_string())
            .or_default()
            .insert(key.to_string(), count);
    }

    /// Renders the file body (stable order — the diff is the review).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# iolite-lint counts ratchet. Regenerate with\n\
             # `cargo run --release -p iolite-lint -- --fix-baseline`;\n\
             # never edit counts by hand (the diff is the review).\n",
        );
        for (rule, table) in &self.tables {
            let _ = write!(out, "\n[{rule}]\n");
            for (key, count) in table {
                let _ = writeln!(out, "{key} = {count}");
            }
        }
        out
    }
}
