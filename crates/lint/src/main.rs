//! The `iolite-lint` binary: runs the rule table
//! ([`iolite_lint::rules::RULES`]) over the workspace it was started
//! in. It takes no arguments; the workspace root is the nearest
//! directory at or above the current one that holds this crate, so it
//! works from any subdirectory of the repo. Exit status: 0 clean,
//! 1 violations, 2 usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use iolite_lint::engine;
use iolite_lint::rules::RULES;

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        return usage(&format!("unexpected argument `{arg}` (it takes none)"));
    }
    let Some(root) = find_root() else {
        return usage("no crates/lint/Cargo.toml here or in any parent directory");
    };

    let report = engine::run(&root, &RULES);
    for diag in &report.diags {
        println!("{diag}");
    }
    println!(
        "iolite-lint: {} files, {} rules, {} violation{}",
        report.files_scanned,
        RULES.len(),
        report.diags.len(),
        if report.diags.len() == 1 { "" } else { "s" },
    );

    if report.diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walks upward from the current directory to the workspace root.
fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("crates/lint/Cargo.toml").is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn usage(message: &str) -> ExitCode {
    eprintln!("iolite-lint: {message}");
    ExitCode::from(2)
}
