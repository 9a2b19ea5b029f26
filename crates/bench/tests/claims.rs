//! The claim table judged over the committed figures, and the `repro`
//! binary's selectors.
//!
//! `repro_all.txt` is `repro all`'s committed stdout, so its figure
//! tables are the rows the claims were last judged on. Parsed back into
//! [`Figures`], every claim must pass; each named perturbation of one
//! number must fail exactly the claims that read it.

use std::process::Command;

use iolite_bench::claims::claims;
use iolite_bench::figures::{AppRow, BandwidthRow, Figures, Rows};

const REPRO_ALL: &str = include_str!("../repro_all.txt");

/// The body of figure `n`'s section of `repro_all.txt`, from its
/// leading blank line up to the next section's.
fn section(n: u32) -> &'static str {
    let start = REPRO_ALL
        .find(&format!("\n==== Figure {n}:"))
        .expect("figure section");
    let len = REPRO_ALL[start + 1..].find("\n====").expect("next section") + 1;
    &REPRO_ALL[start..start + len]
}

/// `500B` / `2KB` / `30` as a row's x.
fn parse_x(label: &str) -> u64 {
    if let Some(kb) = label.strip_suffix("KB") {
        kb.parse::<u64>().unwrap() << 10
    } else {
        label.trim_end_matches('B').parse().unwrap()
    }
}

/// A bandwidth figure's rows: every line whose cells end in `Mb`.
fn bandwidth(n: u32) -> Rows {
    let rows = section(n)
        .lines()
        .filter(|l| l.ends_with("Mb"))
        .map(|l| {
            let mut cells = l.split_whitespace();
            let x = parse_x(cells.next().unwrap());
            let mbps = cells
                .map(|c| c.trim_end_matches("Mb").parse().unwrap())
                .collect();
            BandwidthRow { x, mbps }
        })
        .collect();
    Rows::Bandwidth {
        x: "",
        cols: Vec::new(),
        rows,
    }
}

/// Fig. 13's rows: name, POSIX ms, IO-Lite ms, measured %, paper %.
fn apps() -> Rows {
    let rows = section(13)
        .lines()
        .filter(|l| l.ends_with('%') && !l.contains("paper:"))
        .map(|l| {
            let cells: Vec<&str> = l.split_whitespace().collect();
            let num =
                |i: usize| -> f64 { cells[i].trim_end_matches(['m', 's', '%']).parse().unwrap() };
            let name = ["wc", "permute", "grep", "gcc"]
                .into_iter()
                .find(|n| *n == cells[0])
                .unwrap();
            AppRow {
                name,
                posix_ms: num(1),
                iolite_ms: num(2),
                paper_reduction_pct: num(4),
            }
        })
        .collect();
    Rows::Apps(rows)
}

/// Every figure the claims read, as committed.
fn committed() -> Figures {
    let bandwidth_figures = [("fig3", 3), ("fig4", 4), ("fig5", 5)].into_iter().chain([
        ("fig10", 10),
        ("fig11", 11),
        ("fig12", 12),
    ]);
    let mut figs: Figures = bandwidth_figures
        .map(|(key, n)| (key, bandwidth(n)))
        .collect();
    figs.insert("fig13", apps());
    figs
}

/// The rows of bandwidth figure `key`, for editing.
fn rows<'a>(figs: &'a mut Figures, key: &str) -> &'a mut Vec<BandwidthRow> {
    match figs.get_mut(key) {
        Some(Rows::Bandwidth { rows, .. }) => rows,
        _ => panic!("{key} is not a bandwidth figure"),
    }
}

/// The names of the claims `figs` fails.
fn failing(figs: &Figures) -> Vec<String> {
    claims(figs)
        .into_iter()
        .filter(|c| !c.pass)
        .map(|c| c.name)
        .collect()
}

#[test]
fn every_claim_passes_on_the_committed_figures() {
    let claims = claims(&committed());
    assert_eq!(claims.len(), 20);
    let failed: Vec<_> = claims.iter().filter(|c| !c.pass).collect();
    assert!(failed.is_empty(), "{failed:#?}");
}

/// Applies `perturb` to the committed figures and requires exactly the
/// claims named in `expected` to fail.
fn assert_fails_exactly(perturb: impl FnOnce(&mut Figures), expected: &[&str]) {
    let mut figs = committed();
    perturb(&mut figs);
    assert_eq!(failing(&figs), expected);
}

/// Flash-Lite below Flash at 200KB is also a negative FL/Flash gain, so
/// the swap fails the gain band too.
#[test]
fn swapping_fl_and_flash_at_200kb_fails_fig3s_ordering_and_gain() {
    assert_fails_exactly(
        |f| rows(f, "fig3").last_mut().unwrap().mbps.swap(0, 1),
        &[
            "fig3 ordering at 200KB",
            "fig3 FL/Flash gain at 200KB in 25-60% band (paper 38-43%)",
        ],
    );
}

#[test]
fn apache_above_flash_at_200kb_fails_only_fig3s_ordering() {
    assert_fails_exactly(
        |f| {
            let big = &mut rows(f, "fig3").last_mut().unwrap().mbps;
            big[2] = big[1] + 1.0;
        },
        &["fig3 ordering at 200KB"],
    );
}

#[test]
fn lru_matching_gds_at_150mb_fails_only_fig11s_policy_claim() {
    assert_fails_exactly(
        |f| {
            let disk = &mut rows(f, "fig11").last_mut().unwrap().mbps;
            disk[1] = disk[0];
        },
        &["fig11 GDS beats LRU disk-bound"],
    );
}

#[test]
fn a_15_percent_flash_lite_drop_fails_only_fig12s_resilience() {
    assert_fails_exactly(
        |f| {
            let fig12 = rows(f, "fig12");
            let lan = fig12[0].mbps[0];
            fig12.last_mut().unwrap().mbps[0] = 0.85 * lan;
        },
        &["fig12 Flash-Lite resilient (paper: flat)"],
    );
}

#[test]
fn a_30_percent_grep_reduction_fails_only_fig13s_grep_claim() {
    assert_fails_exactly(
        |f| {
            let Some(Rows::Apps(apps)) = f.get_mut("fig13") else {
                unreachable!()
            };
            let grep = apps.iter_mut().find(|a| a.name == "grep").unwrap();
            grep.iolite_ms = 0.70 * grep.posix_ms;
        },
        &["fig13 grep reduction (paper 48%)"],
    );
}

fn repro(arg: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg(arg)
        .output()
        .expect("run repro")
}

#[test]
fn an_unknown_selector_exits_2() {
    let out = repro("bogus");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "unknown figure: bogus\n"
    );
}

/// Figs. 7 and 9 compute no experiment, so they are cheap enough to
/// compare with their committed sections on every test run.
#[test]
fn trace_figures_print_their_committed_sections() {
    for n in [7, 9] {
        let out = repro(&format!("fig{n}"));
        assert!(out.status.success());
        assert_eq!(String::from_utf8(out.stdout).unwrap(), section(n), "fig{n}");
    }
}
