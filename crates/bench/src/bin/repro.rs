//! `repro`: regenerates every figure of the IO-Lite paper's evaluation.
//!
//! Usage: `repro [all|fig3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|check|scale]`
//!
//! Output is designed to sit next to the paper: each figure prints the
//! measured series plus the claims the paper makes about it, so
//! EXPERIMENTS.md can record paper-vs-measured directly. `check` and
//! `scale` are gates: they exit non-zero unless every claim (resp. the
//! sharded speedup bar) holds; `all` prints every figure, then judges
//! the claims over the rows it printed.

use iolite_bench::figures::{Lab, Scale, FIGURES};

fn main() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let mut lab = Lab::new(Scale::full());
    let ok = match what.as_str() {
        "all" => {
            for figure in &FIGURES {
                figure.print(lab.figure(figure));
            }
            check(&mut lab)
        }
        "check" => check(&mut lab),
        "scale" => scale_table(),
        key => {
            let Some(figure) = FIGURES.iter().find(|f| f.key == key) else {
                eprintln!("unknown figure: {key}");
                std::process::exit(2);
            };
            figure.print(lab.figure(figure));
            true
        }
    };
    if !ok {
        std::process::exit(1);
    }
}

/// Judges every claim over `lab`'s figures (computing those not yet
/// computed); prints PASS/FAIL per claim.
fn check(lab: &mut Lab) -> bool {
    let claims = lab.claims();
    println!("\n==== claim checks ====");
    for c in &claims {
        let verdict = if c.pass { "PASS" } else { "FAIL" };
        println!("  [{verdict}] {}: {}", c.name, c.detail);
    }
    let ok = claims.iter().all(|c| c.pass);
    let overall = if ok {
        "ALL CLAIMS PASS"
    } else {
        "SOME CLAIMS FAILED"
    };
    println!("\noverall: {overall}");
    ok
}

/// Prints the sharded scaling table and holds each row to its bar
/// ([`iolite_bench::scale::ScaleRow::min_speedup`]), with no failed
/// request and no busy-spin.
fn scale_table() -> bool {
    let rows = iolite_bench::scale::sweep();
    println!(
        "\n==== Sharded scaling: 2^18 connections, SCALE-10K corpus, simulated CPU on the parallel makespan ===="
    );
    let barred: Vec<_> = rows.iter().filter(|r| r.min_speedup > 0.0).collect();
    let bars: Vec<String> = barred
        .iter()
        .map(|r| format!("{} shards >= {:.1}x", r.shards, r.min_speedup))
        .collect();
    println!(
        "  bar: {} one shard ({} MB/shard)",
        bars.join(" and "),
        barred[0].ram_per_shard >> 20
    );
    println!(
        "shards  MB/shard  req/cpu-sec  speedup   makespan imbalance hit rate evictions  fetches    waits"
    );
    let base = rows[0].report.requests_per_cpu_sec();
    let mut ok = true;
    for row in &rows {
        let speedup = row.report.requests_per_cpu_sec() / base;
        let pass = speedup >= row.min_speedup && row.report.failed() == 0 && !row.spun();
        ok &= pass;
        println!(
            "{:>6} {:>9} {:>12.0} {:>7.2}x {:>8.1} s {:>9.3} {:>8.3} {:>9} {:>8} {:>8}{}",
            row.shards,
            row.ram_per_shard >> 20,
            row.report.requests_per_cpu_sec(),
            speedup,
            row.report.max_shard_cpu().as_secs(),
            row.report.imbalance(),
            row.hit_rate(),
            row.evictions(),
            row.report.remote_reads(),
            row.remote_waits(),
            if pass { "" } else { "  <- FAIL" },
        );
    }
    let overall = if ok {
        "SCALING BAR HELD"
    } else {
        "SCALING BAR MISSED (speedup below the bar, a failed request, or a shard that spun)"
    };
    println!("\noverall: {overall}");
    ok
}
