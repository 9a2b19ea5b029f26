//! `lint.toml` → typed rule configuration.
//!
//! # Schema
//!
//! ```toml
//! [lint]
//! baseline = "lint-baseline.toml"   # counts ratchet file
//!
//! [rules.<name>]          # one table per rule; <name> is the rule's
//! kind = "scan"           # diagnostic name and its lint:allow key
//! paths = ["crates/…"]    # files or directories, config-relative
//! include-tests = false   # scan #[cfg(test)]/#[test] code too
//! ban-paths = ["std::io"] # `a::b` token sequences to flag
//! ban-idents = ["Mutex"]  # bare identifiers to flag
//! ban-methods = ["clone"] # `.name(` call sites to flag
//! ban-macros = ["vec"]    # `name!` invocations to flag
//! budget = true           # annotated sites ratchet via the baseline
//! reason = "…"            # printed with every diagnostic
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::toml::{Doc, Value};

/// A `kind = "scan"` rule: flag configured token patterns in scoped
/// paths unless a `lint:allow` annotation covers the line.
#[derive(Debug, Clone, Default)]
pub struct ScanRule {
    /// Files/directories the rule polices (config-relative).
    pub paths: Vec<String>,
    /// Whether test-scoped code is policed too.
    pub include_tests: bool,
    /// `a::b` path patterns to flag, split on `::`.
    pub ban_paths: Vec<Vec<String>>,
    /// Bare identifiers to flag.
    pub ban_idents: Vec<String>,
    /// Method names whose `.name(` call sites are flagged.
    pub ban_methods: Vec<String>,
    /// Macro names whose `name!` invocations are flagged.
    pub ban_macros: Vec<String>,
    /// When set, the count of *annotated* (allowed) sites is ratcheted
    /// against the baseline file: it may shrink, never grow.
    pub budget: bool,
    /// One-line contract statement, echoed in diagnostics.
    pub reason: String,
}

/// The whole configuration: named rules in declaration order.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Baseline file path, config-relative.
    pub baseline: PathBuf,
    /// `(name, rule)` pairs in `lint.toml` order.
    pub rules: Vec<(String, ScanRule)>,
}

impl Config {
    /// Parses a `lint.toml` document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on syntax errors, unknown
    /// `kind`s, or missing required keys.
    pub fn parse(text: &str) -> Result<Config, String> {
        let doc = Doc::parse(text).map_err(|e| format!("lint.toml: {e}"))?;
        let mut cfg = Config {
            baseline: PathBuf::from("lint-baseline.toml"),
            rules: Vec::new(),
        };
        if let Some(lint) = doc.table("lint") {
            if let Some(v) = lint.get("baseline") {
                cfg.baseline = PathBuf::from(str_of(v, "lint.baseline")?);
            }
        }
        for name in doc.table_names() {
            let Some(rule_name) = name.strip_prefix("rules.") else {
                continue;
            };
            let table = doc.table(name).expect("listed name");
            let kind = match table.get("kind") {
                Some(v) => str_of(v, "kind")?,
                None => return Err(format!("[{name}] missing `kind`")),
            };
            if kind != "scan" {
                return Err(format!("[{name}] unknown kind `{kind}`"));
            }
            cfg.rules.push((rule_name.to_string(), scan_rule(table, name)?));
        }
        if cfg.rules.is_empty() {
            return Err("lint.toml defines no [rules.*] tables".to_string());
        }
        Ok(cfg)
    }

    /// All configured rule names (valid `lint:allow(…)` keys).
    pub fn rule_names(&self) -> Vec<&str> {
        self.rules.iter().map(|(n, _)| n.as_str()).collect()
    }
}

type Table = BTreeMap<String, Value>;

fn scan_rule(t: &Table, ctx: &str) -> Result<ScanRule, String> {
    Ok(ScanRule {
        paths: strs(t, "paths")?,
        include_tests: flag(t, "include-tests"),
        ban_paths: strs(t, "ban-paths")?
            .into_iter()
            .map(|p| p.split("::").map(str::to_string).collect())
            .collect(),
        ban_idents: strs(t, "ban-idents")?,
        ban_methods: strs(t, "ban-methods")?,
        ban_macros: strs(t, "ban-macros")?,
        budget: flag(t, "budget"),
        reason: opt_str(t, "reason")?.unwrap_or_default(),
    })
    .and_then(|r: ScanRule| {
        if r.paths.is_empty() {
            return Err(format!("[{ctx}] needs non-empty `paths`"));
        }
        if r.ban_paths.is_empty()
            && r.ban_idents.is_empty()
            && r.ban_methods.is_empty()
            && r.ban_macros.is_empty()
        {
            return Err(format!("[{ctx}] bans nothing — remove it or add ban-* keys"));
        }
        Ok(r)
    })
}

fn strs(t: &Table, key: &str) -> Result<Vec<String>, String> {
    match t.get(key) {
        None => Ok(Vec::new()),
        Some(Value::StrArray(v)) => Ok(v.clone()),
        Some(_) => Err(format!("`{key}` must be a string array")),
    }
}

fn flag(t: &Table, key: &str) -> bool {
    matches!(t.get(key), Some(Value::Bool(true)))
}

fn opt_str(t: &Table, key: &str) -> Result<Option<String>, String> {
    match t.get(key) {
        None => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("`{key}` must be a string")),
    }
}

fn str_of(v: &Value, key: &str) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("`{key}` must be a string")),
    }
}
