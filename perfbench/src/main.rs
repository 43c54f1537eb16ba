//! Runs one benchmark workload and prints its result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`, with
//! the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). The line before it carries `host.calib_ms`, the echo
//! probe's round trip, the wall-clock figures the normalised metrics
//! came from, and the quantiles' sample count. The exit code is 0 only
//! when every answer matched the graph.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use pl_perfbench::{
    check_accounting, host, run, RunConfig, RunReport, SliceStats, Slices, Workload,
};

const USAGE: &str =
    "usage: pl-perfbench --workload <serve-zipf|serve-uniform|cluster-zipf> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(seed), Some(s), Some(t)) => Ok(RunConfig::new(w, seed, s, t)),
        _ => Err("missing a flag".to_string()),
    }
}

/// The result line. Non-finite values are a bug, reported as `Err`.
fn result_json(report: &RunReport) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.correct, report.attempted, report.failed
    ))
}

/// `min/q1/median/q3/max` of `f` over the slices, for the spread line.
fn five_numbers(slices: &Slices, f: impl Fn(&SliceStats) -> f64) -> String {
    let mut v: Vec<f64> = slices.stats.iter().map(f).collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => "-".to_string(),
        n => format!(
            "{:.0}/{:.0}/{:.0}/{:.0}/{:.0}",
            v[0],
            v[n / 4],
            v[n / 2],
            v[3 * n / 4],
            v[n - 1]
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == [host::PROBE_ARG] {
        return match host::serve_echo_probe() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("pl-perfbench: echo probe: {e}");
                ExitCode::from(1)
            }
        };
    }
    let mut cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("pl-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg.trace {
        let name = format!("spans-{}.jsonl", cfg.workload.name());
        cfg.span_file = Some(Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(name));
    }
    let report = match run(&cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("pl-perfbench: {}: {e}", cfg.workload.name());
            return ExitCode::from(1);
        }
    };
    let s = &report.setup;
    eprintln!(
        "{} seed {}: setup {:.3}s = encode {:.3}s + load {:.3}s + split {:.3}s + build {:.3}s \
         + bind {:.3}s + connect {:.2}ms + first batch {:.2}ms",
        cfg.workload.name(),
        cfg.seed,
        s.setup_s,
        s.encode_s,
        s.load_s,
        s.split_s,
        s.build_s,
        s.bind_s,
        s.connect_ms,
        s.first_batch_ms
    );
    if cfg.trace {
        match check_accounting(&report.metrics) {
            Ok(()) => eprintln!("accounting: ok"),
            Err(e) => eprintln!("accounting: suspect: {e}"),
        }
    }
    let json = match result_json(&report) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("pl-perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let sl = &report.slices;
    if !sl.stats.is_empty() {
        eprintln!(
            "{} slices of {:.2}s, min/q1/median/q3/max: qps {} | p50 us {} | p99 us {} | echo us {}",
            sl.stats.len(),
            sl.slice_s,
            five_numbers(sl, |s| s.qps),
            five_numbers(sl, |s| s.p50_ns / 1e3),
            five_numbers(sl, |s| s.p99_ns / 1e3),
            five_numbers(sl, |s| s.echo_ns / 1e3)
        );
    }
    println!(
        "{{\"host.calib_ms\": {{\"start\": {}, \"end\": {}}}, \"host.echo_rtt_us\": {}, \
         \"raw\": {{\"qps\": {}, \"batch_p50_us\": {}, \"batch_p99_us\": {}, \"cpu_ns_per_query\": {}}}, \
         \"batch_samples\": {}, \"slices\": {}}}",
        report.calib_ms.0,
        report.calib_ms.1,
        sl.median(|s| s.echo_ns) / 1e3,
        sl.median(|s| s.qps),
        sl.rtt_us(0.50),
        sl.rtt_us(0.99),
        sl.median(|s| s.cpu_ns_per_query),
        report.samples,
        sl.stats.len()
    );
    println!("{json}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "pl-perfbench: {} of {} queries failed the graph-truth check",
            report.failed, report.attempted
        );
        ExitCode::from(1)
    }
}
