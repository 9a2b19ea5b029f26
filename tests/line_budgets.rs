//! Line budgets: each crate's size in executable lines, met exactly.
//!
//! Every line of a `crates/*/LINE_BUDGET` is `<budget> <globs…>`, the
//! globs relative to the crate (`*` matches within one file name). The
//! files named must hold exactly `<budget>` executable lines: non-blank
//! lines that do not start with `//` once trimmed and come before the
//! file's `#[cfg(test)]`. Docs, comments, blank lines and the in-file
//! test module are not code, so deleting a doc paragraph moves no
//! budget. Layout is rustfmt's (CI runs `cargo fmt --check`), so joining
//! lines to fit a budget fails there. A deletion lowers its budget in
//! the same diff; a change that needs more lines lowers something else
//! or argues for a new number in review.
//!
//! The cut is sound only while a file's test code is one trailing
//! `mod tests` and no code hides in a block comment, so `count` rejects
//! any other layout. The formatter's escape hatches are pinned the way
//! `tests/contracts.rs` pins lint exemptions: a new `#[rustfmt::skip]`
//! or a rustfmt config file fails here until the ledger is raised.
//!
//! `cargo test --test line_budgets -- --nocapture` prints the table:
//! code against budget per budget line, with doc/comment and test lines
//! beside it (printed, not gated).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::ops::AddAssign;
use std::path::{Path, PathBuf};

/// One file's non-blank lines, by kind.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    /// Executable lines: the budgeted quantity.
    code: usize,
    /// `//`-led lines (`///` and `//!` docs included) before the test
    /// module.
    comment: usize,
    /// Lines of the trailing test module, its `#[cfg(test)]` included.
    test: usize,
}

impl AddAssign for Counts {
    fn add_assign(&mut self, other: Counts) {
        self.code += other.code;
        self.comment += other.comment;
        self.test += other.test;
    }
}

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

/// An attribute that makes what follows test-only: `#[cfg(test)]`,
/// `#[cfg(any(test, …))]`, `#[cfg_attr(test, …)]` and the like.
fn is_test_cfg(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with('#')
        && t.contains("cfg")
        && t.split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .any(|word| word == "test")
}

/// Classifies `src`'s lines, or names the layout fact that fails.
fn count(src: &str) -> Result<Counts, String> {
    let lines: Vec<&str> = src.lines().collect();
    let mut sites = (0..lines.len()).filter(|&i| !is_comment(lines[i]) && is_test_cfg(lines[i]));
    let cut = match (sites.next(), sites.next()) {
        (_, Some(second)) => {
            return Err(format!(
                "line {}: a second test-only item (one trailing `mod tests` per file)",
                second + 1
            ))
        }
        (None, None) => lines.len(),
        (Some(at), None) => {
            if lines[at] != "#[cfg(test)]" || lines.get(at + 1) != Some(&"mod tests {") {
                return Err(format!(
                    "line {}: `#[cfg(test)]` must start a column-0 `mod tests {{`",
                    at + 1
                ));
            }
            let close = lines[at..].iter().position(|l| *l == "}").map(|k| at + k);
            if close != Some(lines.len() - 1) {
                return Err(format!(
                    "line {}: the test module must end, at column 0, on the file's last line",
                    at + 1
                ));
            }
            at
        }
    };
    let mut counts = Counts::default();
    for (i, line) in lines.iter().enumerate() {
        let t = line.trim();
        if t.is_empty() {
            continue;
        }
        if i >= cut {
            counts.test += 1;
        } else if t.starts_with("//") {
            counts.comment += 1;
        } else if t.contains("/*") {
            return Err(format!("line {}: a `/*` comment (write `//` lines)", i + 1));
        } else {
            counts.code += 1;
        }
    }
    Ok(counts)
}

/// The files `glob` names under `dir`, sorted; it must name at least one.
fn expand(dir: &Path, glob: &str) -> Vec<PathBuf> {
    let (sub, pattern) = glob.rsplit_once('/').unwrap_or(("", glob));
    let matches = |name: &str| match pattern.split_once('*') {
        Some((pre, post)) => {
            name.len() >= pre.len() + post.len() && name.starts_with(pre) && name.ends_with(post)
        }
        None => name == pattern,
    };
    let mut files: Vec<PathBuf> = fs::read_dir(dir.join(sub))
        .unwrap_or_else(|e| panic!("{}/{sub}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.is_file() && p.file_name().and_then(|n| n.to_str()).is_some_and(matches))
        .collect();
    files.sort();
    assert!(
        !files.is_empty(),
        "{}: `{glob}` names no file",
        dir.display()
    );
    files
}

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn every_budget_is_met_exactly() {
    let mut crates: Vec<PathBuf> = fs::read_dir(repo().join("crates"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|dir| dir.join("LINE_BUDGET").is_file())
        .collect();
    crates.sort();
    assert!(!crates.is_empty(), "no crates/*/LINE_BUDGET");
    let mut table = format!(
        "{:<6} {:<38} {:>6} {:>6} {:>6} {:>6}\n",
        "crate", "files", "budget", "code", "docs", "tests"
    );
    let mut misses = Vec::new();
    let mut everything = BTreeMap::new();
    for dir in &crates {
        let name = dir.file_name().unwrap().to_string_lossy();
        for line in read(&dir.join("LINE_BUDGET")).lines() {
            let (budget, globs) = line.split_once(' ').unwrap_or((line, ""));
            let budget: usize = budget.parse().unwrap_or_else(|_| {
                panic!("crates/{name}/LINE_BUDGET: `{line}` is not `<budget> <globs…>`")
            });
            let mut sum = Counts::default();
            for glob in globs.split_whitespace() {
                for file in expand(dir, glob) {
                    let counts =
                        count(&read(&file)).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
                    sum += counts;
                    everything.insert(file, counts);
                }
            }
            let (code, docs, tests) = (sum.code, sum.comment, sum.test);
            writeln!(
                table,
                "{name:<6} {globs:<38} {budget:>6} {code:>6} {docs:>6} {tests:>6}"
            )
            .unwrap();
            if code != budget {
                misses.push(format!(
                    "crates/{name}/LINE_BUDGET `{globs}`: {code} executable lines, budget {budget}"
                ));
            }
        }
    }
    let mut total = Counts::default();
    for counts in everything.into_values() {
        total += counts;
    }
    let (code, docs, tests) = (total.code, total.comment, total.test);
    writeln!(
        table,
        "{:<6} {:<38} {:>6} {code:>6} {docs:>6} {tests:>6}",
        "all", "(each file once)", ""
    )
    .unwrap();
    print!("{table}");
    assert!(
        misses.is_empty(),
        "{}\nA deletion lowers its budget in the same diff; more lines are argued for in review.",
        misses.join("\n")
    );
}

/// Every `.rs` file and every rustfmt config under `dir`, skipping build
/// output.
fn walk(dir: &Path, rust: &mut Vec<PathBuf>, configs: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if name != "target" {
                walk(&path, rust, configs);
            }
        } else if name == "rustfmt.toml" || name == ".rustfmt.toml" {
            configs.push(path);
        } else if name.ends_with(".rs") {
            rust.push(path);
        }
    }
}

#[test]
fn the_formatter_escape_hatches_match_the_ledger() {
    let (mut rust, mut configs) = (Vec::new(), Vec::new());
    for top in ["crates", "src", "tests", "examples", "shims"] {
        walk(&repo().join(top), &mut rust, &mut configs);
    }
    for name in ["rustfmt.toml", ".rustfmt.toml"] {
        if repo().join(name).is_file() {
            configs.push(repo().join(name));
        }
    }
    assert!(configs.is_empty(), "rustfmt config files: {configs:?}");
    let mut skips: Vec<String> = Vec::new();
    for path in &rust {
        let src = read(path);
        let sites = src
            .lines()
            .filter(|l| l.trim_start().starts_with('#') && l.contains("rustfmt::skip"))
            .count();
        let rel = path.strip_prefix(repo()).unwrap().to_string_lossy();
        skips.extend(std::iter::repeat_n(rel.replace('\\', "/"), sites));
    }
    skips.sort();
    assert_eq!(
        skips,
        ["crates/bench/src/claims.rs", "crates/bench/src/figures.rs"],
        "`#[rustfmt::skip]` sites (the two hand-laid tables)"
    );
}

#[test]
fn blank_comment_doc_and_attribute_lines_are_classified() {
    let src = "//! Crate docs.\n\
               #![deny(missing_docs)]\n\
               \n\
               /// A doc line.\n\
               #[derive(Debug)]\n\
               pub struct S {\n    \
                   // an indented comment\n    \
                   pub x: u32, // a trailing comment is still code\n\
               }\n   \n";
    assert_eq!(
        count(src).map(|c| (c.code, c.comment, c.test)),
        Ok((5, 3, 0))
    );
}

#[test]
fn the_trailing_test_module_is_not_code() {
    let src = "fn f() {}\n\
               \n\
               #[cfg(test)]\n\
               mod tests {\n    \
                   /// Doc.\n    \
                   #[test]\n    \
                   fn t() {}\n\
               \n\
               }\n";
    assert_eq!(
        count(src).map(|c| (c.code, c.comment, c.test)),
        Ok((1, 0, 6))
    );
}

#[test]
fn any_other_test_layout_is_rejected() {
    let tail = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
    let rejected = [
        format!("#[cfg(test)]\nfn helper() {{}}\n{tail}"),
        format!("#[cfg(any(test, feature = \"x\"))]\nconst X: u8 = 0;\n{tail}"),
        format!("fn f() {{}}\n{tail}fn after() {{}}\n"),
        "#[cfg(test)]\nmod helpers {\n}\n".to_string(),
        "#[cfg(test)]\nmod tests;\n".to_string(),
        "fn f() {} /* hides\nfn g() {}\n*/\n".to_string(),
    ];
    for src in &rejected {
        assert!(count(src).is_err(), "accepted:\n{src}");
    }
    assert!(count(&format!("#[cfg(doc)]\nuse std::fmt;\n{tail}")).is_ok());
}
