//! Checks on the benchmark itself: determinism of its inputs, its
//! statistics, its metric names, and what its set-up time covers.

use pl_perfbench::host::{self, EchoProbe};
use pl_perfbench::stats::quantile_sorted;
use pl_perfbench::stream::{graph, QueryStream};
use pl_perfbench::{
    check_accounting, run, valid_metric_name, RunConfig, SliceStats, Workload, END_TO_END,
    PER_LAYER,
};

/// A run small enough for a test: a 3000-vertex graph, a fraction of a
/// second of load.
fn small(workload: Workload, trace: bool) -> RunConfig {
    let mut cfg = RunConfig::new(workload, 7, 0.3, trace);
    cfg.n = 3_000;
    cfg.setups = 2;
    cfg.warmup_s = 0.1;
    cfg.pool_batches = 64;
    cfg.probe_exe = env!("CARGO_BIN_EXE_pl-perfbench").into();
    cfg
}

#[test]
fn same_seed_gives_byte_identical_query_stream() {
    for w in Workload::ALL {
        let a = QueryStream::generate(&graph(2_000, 11), w, 11, 32).to_bytes();
        let b = QueryStream::generate(&graph(2_000, 11), w, 11, 32).to_bytes();
        let other = QueryStream::generate(&graph(2_000, 12), w, 12, 32).to_bytes();
        assert_eq!(a.len(), 32 * 64 * 8);
        assert_eq!(a, b, "{}: same seed, different stream", w.name());
        assert_ne!(a, other, "{}: seed does not reach the stream", w.name());
    }
}

#[test]
fn exact_quantile_matches_hand_sorted_sample() {
    let mut sample = vec![40, 10, 30, 20, 50, 90, 60, 80, 70, 100];
    sample.sort_unstable();
    assert_eq!(sample, [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
    // Nearest rank: the ceil(q * N)-th smallest.
    for (q, want) in [
        (0.0, 10),
        (0.1, 10),
        (0.11, 20),
        (0.5, 50),
        (0.9, 90),
        (0.99, 100),
        (1.0, 100),
    ] {
        assert_eq!(quantile_sorted(&sample, q), want, "q = {q}");
    }
    // Against the definition on a larger sample with ties: the smallest
    // value with at least q * N samples at or below it.
    let mut big: Vec<u64> = (0..1_001u64).map(|i| (i * 7919) % 313).collect();
    big.sort_unstable();
    for q in [0.5, 0.9, 0.99, 0.999] {
        let need = q * big.len() as f64;
        let want = *big
            .iter()
            .find(|&&x| big.iter().filter(|&&y| y <= x).count() as f64 >= need)
            .expect("some value reaches every rank");
        assert_eq!(quantile_sorted(&big, q), want, "q = {q}");
    }
}

#[test]
fn normalised_timings_cancel_host_speed_but_keep_program_cost() {
    let on_ref_host = SliceStats {
        qps: 1.0e6,
        p50_ns: 50_000.0,
        p99_ns: 80_000.0,
        cpu_ns_per_query: 900.0,
        echo_ns: 10_000.0,
    };
    let norm = |s: &SliceStats| {
        (
            s.qps / s.to_ref(),
            s.p50_ns * s.to_ref(),
            s.p99_ns * s.to_ref(),
            s.cpu_ns_per_query * s.to_ref(),
        )
    };
    // The same program on a host 1.6x slower: every time, the echo's
    // included, grows by 1.6 and the rate shrinks by it.
    let slow_host = SliceStats {
        qps: on_ref_host.qps / 1.6,
        p50_ns: on_ref_host.p50_ns * 1.6,
        p99_ns: on_ref_host.p99_ns * 1.6,
        cpu_ns_per_query: on_ref_host.cpu_ns_per_query * 1.6,
        echo_ns: on_ref_host.echo_ns * 1.6,
    };
    let (a, b) = (norm(&on_ref_host), norm(&slow_host));
    for (x, y) in [(a.0, b.0), (a.1, b.1), (a.2, b.2), (a.3, b.3)] {
        assert!((x - y).abs() <= 1e-9 * x, "{x} vs {y}");
    }
    // A program that does 20% more work on the same host shows in full:
    // the echo runs no program code and does not move.
    let slower_program = SliceStats {
        p50_ns: on_ref_host.p50_ns * 1.2,
        ..on_ref_host
    };
    assert!((norm(&slower_program).1 / a.1 - 1.2).abs() < 1e-12);
}

#[test]
fn echo_probe_round_trips_and_stops() {
    let mut probe = EchoProbe::start(env!("CARGO_BIN_EXE_pl-perfbench").as_ref()).expect("probe");
    for _ in 0..10 {
        assert!(probe.rtt_ns().expect("round trip") > 0);
    }
    // Dropping closes the probe's input and waits for the process; a
    // hang here would time the test out.
    drop(probe);
}

/// Scheduling policy of a thread, from its `stat` file (field 41).
fn sched_policy(stat: &std::path::Path) -> u32 {
    let text = std::fs::read_to_string(stat).expect("stat");
    let after_comm = text.rsplit_once(')').expect("comm").1;
    after_comm
        .split_whitespace()
        .nth(41 - 3)
        .and_then(|f| f.parse().ok())
        .expect("policy field")
}

#[test]
fn program_threads_yield_to_the_echo_probe() {
    const SCHED_OTHER: u32 = 0;
    const SCHED_IDLE: u32 = 5;
    let probe = EchoProbe::start(env!("CARGO_BIN_EXE_pl-perfbench").as_ref()).expect("probe");
    let program = std::thread::spawn(|| {
        host::lower_priority().expect("lower priority");
        // Threads the program starts inherit the policy.
        std::thread::spawn(|| sched_policy("/proc/thread-self/stat".as_ref()))
            .join()
            .expect("program thread")
    })
    .join()
    .expect("lowering thread");
    assert_eq!(program, SCHED_IDLE);
    let tasks = std::fs::read_dir(format!("/proc/{}/task", probe.pid())).expect("probe tasks");
    let mut threads = 0;
    for task in tasks {
        let stat = task.expect("task").path().join("stat");
        assert_eq!(sched_policy(&stat), SCHED_OTHER, "{}", stat.display());
        threads += 1;
    }
    // The probe's reader and its echo partner.
    assert_eq!(threads, 2);
}

#[test]
fn metric_names_are_legal_unique_and_match_benchmark_json() {
    for bad in ["", "_x", ".x", "a b", "x/y", "p99µs", &"x".repeat(65)] {
        assert!(!valid_metric_name(bad), "{bad:?} accepted");
    }
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|&(n, _)| n)
        .collect();
    for n in &names {
        assert!(valid_metric_name(n), "{n:?}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate metric name");

    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(json_path).expect("BENCHMARK.json next to perfbench/");
    let declared: Vec<(&str, &str)> = json
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|rest| {
            let name = rest.split('"').next()?;
            let unit = rest.split("\"unit\": \"").nth(1)?.split('"').next()?;
            // Workload entries have no unit before the next name.
            let before_next = rest.split("\"name\"").next()?;
            before_next.contains("\"unit\"").then_some((name, unit))
        })
        .collect();
    let code: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER).copied().collect();
    assert_eq!(
        declared, code,
        "BENCHMARK.json metrics differ from the code"
    );
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
}

#[test]
fn setup_s_excludes_graph_generation_and_warmup() {
    let report = run(&small(Workload::ServeZipf, false)).expect("run");
    let t = &report.timeline;
    assert_eq!(t.setups.len(), 2);
    // Inputs are made before the first set-up starts, warm-up starts
    // after the last set-up ends, and the measured window after that.
    assert!(t.inputs.1 <= t.setups[0].0);
    for w in t.setups.windows(2) {
        assert!(w[0].1 <= w[1].0, "set-ups overlap");
    }
    assert!(t.setups[1].1 <= t.warmup.0);
    assert!(t.warmup.1 <= t.measured.0);
    // setup_s is the median set-up window, so it lies within the
    // shortest and longest of them.
    let lens: Vec<f64> = t
        .setups
        .iter()
        .map(|(a, b)| (*b - *a).as_secs_f64())
        .collect();
    let setup_s = report
        .metrics
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s reported")
        .value;
    let (lo, hi) = (
        lens.iter().copied().fold(f64::MAX, f64::min),
        lens.iter().copied().fold(0.0, f64::max),
    );
    assert!(
        lo <= setup_s && setup_s <= hi,
        "{setup_s} outside [{lo}, {hi}]"
    );
    let warmup_s = (t.warmup.1 - t.warmup.0).as_secs_f64();
    assert!(warmup_s >= 0.1, "warm-up ran {warmup_s}s");
}

#[test]
fn every_workload_answers_correctly_and_reports_every_metric() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let report = run(&small(w, trace)).expect("run");
            assert!(report.correct, "{} trace={trace}: wrong answers", w.name());
            assert_eq!(report.failed, 0);
            assert!(report.attempted >= 64);
            let want = if trace { PER_LAYER } else { END_TO_END };
            let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, want.to_vec(), "{} trace={trace}", w.name());
            let value = |name: &str| {
                report
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.value)
            };
            if trace {
                assert_eq!(value("store.errors"), Some(0.0));
                if let Err(e) = check_accounting(&report.metrics) {
                    panic!("{}: {e}", w.name());
                }
                let router = value("cluster.router_us_per_batch").expect("router");
                let split = value("cluster.split_s").expect("split");
                assert_eq!(w.clustered(), router > 0.0, "router {router}");
                assert_eq!(w.clustered(), split > 0.0, "split {split}");
                let legs = value("cluster.legs_per_batch").expect("legs");
                assert!(
                    if w.clustered() {
                        legs > 1.0
                    } else {
                        legs == 1.0
                    },
                    "legs {legs}"
                );
            } else {
                assert_eq!(value("answered_share"), Some(1.0));
            }
        }
    }
}
