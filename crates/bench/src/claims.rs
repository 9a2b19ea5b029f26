//! The paper's claims about Figs. 3–5 and 10–13 as one table: each
//! [`Claim`] is a row computed from the figures' rows alone, so
//! `repro all` judges the rows it just printed and a test can judge
//! rows it made up.

use crate::figures::{BandwidthRow, Figures, Rows};

/// One claim: its name (with the paper's statement and the band it is
/// held to), whether the measured rows satisfy it, and what they read.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// What is claimed.
    pub name: String,
    /// Whether the rows bear it out.
    pub pass: bool,
    /// The measured values it was judged on.
    pub detail: String,
}

fn claim(name: impl Into<String>, pass: bool, detail: String) -> Claim {
    Claim {
        name: name.into(),
        pass,
        detail,
    }
}

/// The bandwidth rows of figure `key`; panics when `figs` lacks it.
fn table<'a>(figs: &'a Figures, key: &str) -> &'a [BandwidthRow] {
    match figs.get(key) {
        Some(Rows::Bandwidth { rows, .. }) => rows,
        _ => panic!("{key} not computed"),
    }
}

/// Mb/s per column at `x`.
fn at(rows: &[BandwidthRow], x: u64) -> &[f64] {
    &rows.iter().find(|r| r.x == x).expect("no such point").mbps
}

/// `x` as a whole percentage.
fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// Every claim, in figure order, judged over `figs`.
///
/// # Panics
///
/// When `figs` lacks a figure marked [`crate::figures::Figure::claimed`].
#[rustfmt::skip]
pub fn claims(figs: &Figures) -> Vec<Claim> {
    let (f3, f4, f5) = (table(figs, "fig3"), table(figs, "fig4"), table(figs, "fig5"));
    let (f10, f11, f12) = (table(figs, "fig10"), table(figs, "fig11"), table(figs, "fig12"));
    let Some(Rows::Apps(f13)) = figs.get("fig13") else { panic!("fig13 not computed") };
    let last = |rows: &'_ [BandwidthRow]| rows[rows.len() - 1].mbps.clone();

    let big = at(f3, 200 << 10);
    let gain = big[0] / big[1] - 1.0;
    let small = at(f3, 2 << 10);
    let small_gap = (small[0] / small[1] - 1.0).abs();
    let (cap, fl30) = (420.0, at(f4, 30 << 10)[0]);
    let (np10, p10) = (at(f3, 10 << 10)[0], at(f4, 10 << 10)[0]);
    let (cgi100, static100) = (at(f5, 100 << 10), at(f3, 100 << 10));
    let (flash_ratio, fl_ratio) = (cgi100[1] / static100[1], cgi100[0] / static100[0]);
    let (inmem, disk) = (&f10[0].mbps, last(f10));
    let (inmem11, disk11) = (&f11[0].mbps, last(f11));
    let (lan, wan) = (&f12[0].mbps, last(f12));
    let [fl_drop, flash_drop, apache_drop] = [0, 1, 2].map(|i| 1.0 - wan[i] / lan[i]);

    let mut claims = vec![
        claim("fig3 ordering at 200KB", big[0] > big[1] && big[1] > big[2],
            format!("FL {:.0} > Flash {:.0} > Apache {:.0}", big[0], big[1], big[2])),
        claim("fig3 FL/Flash gain at 200KB in 25-60% band (paper 38-43%)",
            (0.25..=0.60).contains(&gain), pct(gain)),
        claim("fig3 convergence at 2KB (within 15%)", small_gap < 0.15,
            format!("gap {}", pct(small_gap))),
        claim("fig4 FL near saturation at 30KB persistent", fl30 > 0.9 * cap,
            format!("{fl30:.0} of {cap:.0} Mb/s")),
        claim("fig4 persistence helps small files", p10 > 1.5 * np10,
            format!("{np10:.0} -> {p10:.0} Mb/s at 10KB")),
        claim("fig5 Flash CGI roughly halves", (0.3..=0.7).contains(&flash_ratio),
            format!("ratio {flash_ratio:.2}")),
        claim("fig5 Flash-Lite CGI keeps most of its static speed", fl_ratio > 0.75,
            format!("ratio {fl_ratio:.2}")),
        claim("fig5 FL CGI beats Flash static", cgi100[0] > static100[1],
            format!("{:.0} vs {:.0} Mb/s", cgi100[0], static100[1])),
        claim("fig10 FL wins in-memory", inmem[0] > inmem[1] && inmem[1] > inmem[2],
            format!("{:.0} > {:.0} > {:.0}", inmem[0], inmem[1], inmem[2])),
        claim("fig10 FL wins disk-bound", disk[0] > disk[1],
            format!("{:.0} > {:.0}", disk[0], disk[1])),
        claim("fig11 GDS beats LRU disk-bound", disk11[0] > disk11[1],
            format!("GDS {:.0} vs LRU {:.0}", disk11[0], disk11[1])),
        claim("fig11 checksum cache contributes in-memory", inmem11[0] > inmem11[2],
            format!("with {:.0} vs without {:.0}", inmem11[0], inmem11[2])),
        claim("fig11 copy elimination alone beats Flash", inmem11[2] > inmem11[4],
            format!("FL-noCksum {:.0} vs Flash {:.0}", inmem11[2], inmem11[4])),
        claim("fig12 Flash drops with delay (paper ~33%)",
            (0.15..=0.70).contains(&flash_drop), pct(flash_drop)),
        claim("fig12 Apache drops heavily (paper ~50%)",
            (0.30..=0.75).contains(&apache_drop), pct(apache_drop)),
        claim("fig12 Flash-Lite resilient (paper: flat)",
            fl_drop < 0.12 && fl_drop < flash_drop - 0.10, pct(fl_drop)),
    ];
    claims.extend(f13.iter().map(|row| {
        let (measured, paper) = (row.reduction_pct(), row.paper_reduction_pct);
        // A "no change" claim is held to ±5 points, a reduction to ±12.
        let band = if paper == 0.0 { 5.0 } else { 12.0 };
        claim(format!("fig13 {} reduction (paper {paper:.0}%)", row.name),
            (measured - paper).abs() < band, format!("{measured:.1}%"))
    }));
    claims
}
