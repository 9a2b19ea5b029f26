//! `iolite-perf`: the repo's benchmark. See `README.md`.
//!
//! * `one --workload W --seed N --seconds S --trace 0|1` — one workload
//!   in this process; the last line of stdout is the result object the
//!   benchmark contract asks for (`BENCHMARK.json`'s `command`).
//! * `run --seed N [--seconds S] [--trace] [--quick] [--repeat K]` — every
//!   workload, each in its own child process; prints every metric by
//!   name with its unit and writes the result set under `out/`.
//! * `agree A.json B.json` — compares two result sets against the bounds
//!   in `BENCHMARK.json`.
//! * `manifest` — prints `BENCHMARK.json` from the metric catalog.

mod engine;
mod json;
mod layers;
mod metrics;
mod paper;
mod runner;
mod span;
mod stats;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use json::{obj, Value};
use metrics::{Better, END_TO_END, PER_LAYER};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("one") => cmd_one(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("agree") => cmd_agree(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        _ => Err("usage: iolite-perf one|run|agree|manifest ... (see perf/README.md)".to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("iolite-perf: {msg}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` lookup.
fn opt<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: Option<T>,
) -> Result<T, String> {
    match opt(args, flag) {
        Some(v) => v.parse().map_err(|_| format!("bad value for {flag}: {v}")),
        None => default.ok_or_else(|| format!("missing {flag}")),
    }
}

fn metric_names(trace: bool) -> Box<dyn Iterator<Item = &'static str>> {
    if trace {
        Box::new(PER_LAYER.iter().map(|m| m.name))
    } else {
        Box::new(END_TO_END.iter().map(|m| m.name))
    }
}

fn cmd_one(args: &[String]) -> Result<bool, String> {
    let name = opt(args, "--workload").ok_or("missing --workload")?;
    let spec = workloads::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed: u64 = parsed(args, "--seed", None)?;
    let seconds: f64 = parsed(args, "--seconds", Some(workloads::RUN_SECONDS))?;
    let trace = parsed::<u8>(args, "--trace", Some(0))? != 0;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} outside (0, 60]"));
    }
    let out = runner::run(&spec, seed, seconds, trace);
    println!(
        "workload {name}  seed {seed}  seconds {seconds}  trace {}",
        u8::from(trace)
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for name in metric_names(trace) {
        if let Some(v) = out.values.get(name) {
            println!("  {name:<44} {v:>16.4} {}", metrics::unit_of(name));
        }
    }
    for e in &out.errors {
        println!("  CHECK FAILED: {e}");
    }
    let line = obj([
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::Num(out.attempted.max(1) as f64)),
        ("failed", Value::Num(out.failed as f64)),
        (
            "metrics",
            metrics::to_json(metric_names(trace), &out.values),
        ),
    ]);
    println!("{}", line.to_json());
    Ok(out.correct())
}

/// Runs every workload in its own child process and collects the
/// result lines into one result set.
fn cmd_run(args: &[String]) -> Result<bool, String> {
    let seed: u64 = parsed(args, "--seed", None)?;
    let quick = args.iter().any(|a| a == "--quick");
    let trace = args.iter().any(|a| a == "--trace");
    let seconds: f64 = parsed(
        args,
        "--seconds",
        Some(if quick { 0.2 } else { workloads::RUN_SECONDS }),
    )?;
    let repeat: usize = parsed(args, "--repeat", Some(1))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    let mut rows = Vec::new();
    for spec in workloads::all() {
        let mut runs = Vec::new();
        for _ in 0..repeat {
            let child = Command::new(&exe)
                .args(["one", "--workload", spec.name])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", spec.name))?;
            let output = child
                .wait_with_output()
                .map_err(|e| format!("wait {}: {e}", spec.name))?;
            let text = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = text.lines().collect();
            let last = lines.pop().unwrap_or("");
            // Everything the child printed above its result line.
            for line in lines {
                println!("{line}");
            }
            let parsed =
                json::parse(last).map_err(|e| format!("{}: no result line ({e})", spec.name))?;
            let correct = parsed.get("correct") == Some(&Value::Bool(true));
            all_ok &= correct && output.status.success();
            runs.push(parsed);
        }
        rows.push(obj([
            ("workload", Value::Str(spec.name.into())),
            ("runs", Value::Arr(runs)),
        ]));
    }
    let doc = obj([
        ("benchmark", Value::Str("iolite-perf".into())),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("trace", Value::Bool(trace)),
        ("all_correct", Value::Bool(all_ok)),
        ("results", Value::Arr(rows)),
        // This benchmark is the yardstick; it claims no gain.
        ("claim", Value::Null),
    ]);
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let default_path = format!(
        "{dir}/results-seed{seed}{}{}.json",
        if trace { "-trace" } else { "" },
        if quick { "-quick" } else { "" }
    );
    let path = opt(args, "--out").unwrap_or(&default_path);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, doc.to_json_pretty()))
        .map_err(|e| format!("write {path}: {e}"))?;
    println!(
        "result set written to {path}  (all checks {})",
        if all_ok { "passed" } else { "FAILED" }
    );
    println!(
        "{}",
        obj([("all_correct", Value::Bool(all_ok)), ("claim", Value::Null)]).to_json()
    );
    Ok(all_ok)
}

/// Per (workload, metric): every run's value in a result set.
fn values_of(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("results")
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .flat_map(|r| r.get("runs").map(Value::as_arr).unwrap_or_default())
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// How much worse `mb` is than `ma`, as a share of `ma` (negative =
/// better).
fn worse_share(ma: f64, mb: f64, better: Better) -> f64 {
    let worse = match better {
        Better::Higher => ma - mb,
        Better::Lower => mb - ma,
    };
    worse / ma.abs().max(f64::MIN_POSITIVE)
}

/// The verdict on one (metric, workload) pair of two result sets.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Verdict {
    Agree,
    Regressed,
    Unresolved,
}

/// `a` is the reference, `b` the candidate. Agreement: `b`'s median is
/// not worse than `a`'s by more than `bound` of `a`'s median.
/// Unresolved: `a`'s own spread (IQR, or the range with fewer than four
/// runs) is wider than the bound — unless every run of `b` is better
/// than every run of `a`.
fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let ma = stats::median(a);
    let worse_by = worse_share(ma, stats::median(b), better);
    let spread = if a.len() >= 4 {
        stats::iqr_share(a)
    } else {
        let (lo, hi) = a
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        (hi - lo) / ma.abs().max(f64::MIN_POSITIVE)
    };
    let b_dominates = match better {
        Better::Higher => b.iter().all(|x| a.iter().all(|y| x > y)),
        Better::Lower => b.iter().all(|x| a.iter().all(|y| x < y)),
    };
    if spread > bound && !b_dominates {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Agree
    }
}

fn cmd_agree(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: iolite-perf agree <a.json> <b.json>".into());
    };
    let load = |p: &String| -> Result<Value, String> {
        json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let manifest_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = load(&manifest_path.to_string())?;
    let mut ok = true;
    let mut compared = 0;
    println!(
        "{:<22} {:<20} {:>14} {:>14} {:>8} {:>7}  verdict",
        "metric", "workload", "a (median)", "b (median)", "worse%", "bound%"
    );
    let gated = manifest
        .get("end_to_end")
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter();
    let listed = manifest
        .get("per_layer")
        .map(Value::as_arr)
        .unwrap_or_default()
        .iter();
    for m in gated.chain(listed) {
        let name = m.get("name").and_then(Value::as_str).unwrap_or("");
        let better = if m.get("better").and_then(Value::as_str) == Some("higher") {
            Better::Higher
        } else {
            Better::Lower
        };
        // Per-layer metrics carry no bound: only the exact counts are
        // held to anything (they must agree exactly).
        let bound = match m.get("bound").and_then(Value::as_f64) {
            Some(b) => b,
            None if metrics::EXACT.contains(&name) => 0.0,
            None => continue,
        };
        for w in workloads::all() {
            let (va, vb) = (values_of(&a, w.name, name), values_of(&b, w.name, name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            compared += 1;
            let v = verdict(&va, &vb, better, bound);
            ok &= v == Verdict::Agree;
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let worse = worse_share(ma, mb, better) * 100.0;
            println!(
                "{name:<22} {:<20} {ma:>14.4} {mb:>14.4} {worse:>8.2} {:>7.1}  {v:?}",
                w.name,
                bound * 100.0
            );
        }
    }
    if compared == 0 {
        return Err("the two result sets share no (metric, workload) pair".into());
    }
    println!(
        "{compared} pairs compared: {}",
        if ok { "all agree" } else { "NOT all agree" }
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        // Within the bound either way.
        assert_eq!(
            verdict(&[100.0], &[95.0], Better::Higher, 0.10),
            Verdict::Agree
        );
        assert_eq!(
            verdict(&[100.0], &[105.0], Better::Lower, 0.10),
            Verdict::Agree
        );
        // Worse by more than the bound.
        assert_eq!(
            verdict(&[100.0], &[85.0], Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&[100.0], &[120.0], Better::Lower, 0.10),
            Verdict::Regressed
        );
        // Better is never a regression.
        assert_eq!(
            verdict(&[100.0], &[200.0], Better::Higher, 0.10),
            Verdict::Agree
        );
        // The reference's own spread exceeds the bound: unresolved...
        assert_eq!(
            verdict(&[80.0, 100.0, 120.0], &[100.0], Better::Higher, 0.10),
            Verdict::Unresolved
        );
        // ...unless every candidate run beats every reference run.
        assert_eq!(
            verdict(&[80.0, 100.0, 120.0], &[130.0, 140.0], Better::Higher, 0.10),
            Verdict::Agree
        );
        // Exact counts: bound 0 tolerates no drift in the worse direction.
        assert_eq!(verdict(&[5.0], &[5.0], Better::Lower, 0.0), Verdict::Agree);
        assert_eq!(
            verdict(&[5.0], &[5.0001], Better::Lower, 0.0),
            Verdict::Regressed
        );
    }

    #[test]
    fn result_sets_are_read_per_workload_and_metric() {
        let doc = json::parse(
            r#"{"results": [{"workload": "hot_small", "runs": [
                {"metrics": {"wall_req_per_s": {"value": 10.5, "unit": "req/s"}}},
                {"metrics": {"wall_req_per_s": {"value": 11, "unit": "req/s"}}}]}], "claim": null}"#,
        )
        .expect("valid");
        assert_eq!(
            values_of(&doc, "hot_small", "wall_req_per_s"),
            vec![10.5, 11.0]
        );
        assert!(values_of(&doc, "big_stream", "wall_req_per_s").is_empty());
        assert!(values_of(&doc, "hot_small", "setup_s").is_empty());
    }

    #[test]
    fn flags_parse() {
        let args: Vec<String> = ["--workload", "hot_small", "--seed", "7"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(opt(&args, "--workload"), Some("hot_small"));
        assert_eq!(parsed::<u64>(&args, "--seed", None), Ok(7));
        assert_eq!(parsed::<f64>(&args, "--seconds", Some(10.0)), Ok(10.0));
        assert!(parsed::<u64>(&args, "--trace", None).is_err());
    }
}
