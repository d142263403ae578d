//! The Steno benchmark: three workloads that stress different layers,
//! end-to-end metrics from untraced runs, per-layer metrics from a
//! separate traced run. See `perfbench/NOTES.md`.
//!
//! Usage: `steno-perfbench --workload <compile_churn|scan_large|serve_zipf>
//! --seed <n> --seconds <s> --trace <0|1>`. The last line of standard
//! output is the JSON result.

mod check;
mod compile_churn;
mod ledger;
mod report;
mod rng;
mod scan_large;
mod serve_zipf;
mod shapes;
mod span;
mod stats;
mod timing;

use report::Report;

/// Seconds between two set-ups timed in the measured window; `setup_s`
/// is the median of a run's set-ups. A `compile_churn` set-up takes
/// ~10 ms, a `scan_large` one ~0.35 s and a `serve_zipf` one ~3 ms, so a
/// 30 s run times 10 to 300 of them.
const SETUP_EVERY: [(&str, f64); 3] = [
    ("compile_churn", 0.3),
    ("scan_large", 3.0),
    ("serve_zipf", 0.1),
];

/// The end-to-end metrics: the result line of an untraced run carries
/// these. The workloads also measure throughput and absolute latency
/// (printed on their own lines); those drift with the machine by more
/// than a tenth from run to run, so the result line of the traced run
/// carries them, with the per-layer metrics. `compile_churn` also prints
/// its verifying engine's figures, which apply to no other workload and
/// so are on no result line.
const END_TO_END: [&str; 3] = ["setup_s", "vs_hand.geomean", "peak_rss_mb"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("steno-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let every = SETUP_EVERY
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map_or(f64::INFINITY, |r| r.1);
    let mut report: Report = match (args.workload.as_str(), args.trace) {
        ("compile_churn", false) => compile_churn::run(args.seed, args.seconds, every),
        ("scan_large", false) => scan_large::run(args.seed, args.seconds, every),
        ("serve_zipf", false) => serve_zipf::run(args.seed, args.seconds, every),
        (w @ ("compile_churn" | "scan_large" | "serve_zipf"), true) => {
            ledger::run(w, args.seed, args.seconds)
        }
        (w, _) => {
            eprintln!("steno-perfbench: unknown workload `{w}`");
            std::process::exit(2);
        }
    };
    if !args.trace {
        report.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
    }
    if report.tally.attempted() == 0 {
        report.broken.push("no op was attempted".into());
    }
    report.print(|name| END_TO_END.contains(&name) != args.trace);
    if !report.broken.is_empty() {
        // A failed self-check of the benchmark voids the run's figures.
        std::process::exit(1);
    }
}
