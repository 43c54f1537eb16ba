//! The echo probe that normalised timings are scaled by must not move
//! with the program. This binary holds a single test so that nothing
//! else runs next to it on the pinned CPU.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pl_perfbench::{host, run, RunConfig, RunReport, Workload};

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread, and every thread and process it starts
/// later, to CPU 0, as the benchmark command pins the whole process.
fn pin_to_cpu0() {
    let mask: u64 = 1;
    // pid 0: the calling thread.
    // SAFETY: `mask` outlives the call, which reads its 8 bytes.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    assert_eq!(rc, 0, "{}", std::io::Error::last_os_error());
}

fn value(report: &RunReport, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.value)
        .unwrap_or_else(|| panic!("{name} not reported"))
}

/// A background thread of the program, like a poller that wakes every
/// 20 µs and works for 60 µs, stays runnable on the program's CPU, is
/// scheduled like the program's own threads, and steals time from the
/// batches. The normalised timings must show that, so the probe they
/// are scaled by must not slow down with it. The margins leave room for
/// the host's own drift between two short runs: the echo alone moves by
/// up to about 30% from one to the next.
#[test]
fn background_work_of_the_program_raises_normalised_timings() {
    pin_to_cpu0();
    let mut cfg = RunConfig::new(Workload::ServeUniform, 5, 2.0, false);
    cfg.n = 3_000;
    cfg.setups = 1;
    cfg.warmup_s = 0.2;
    cfg.pool_batches = 64;
    cfg.probe_exe = env!("CARGO_BIN_EXE_pl-perfbench").into();

    let quiet = run(&cfg).expect("quiet run");
    let stop = Arc::new(AtomicBool::new(false));
    let poller = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            host::lower_priority().expect("program priority");
            let mut x = 1u64;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_micros(20));
                let t0 = Instant::now();
                while t0.elapsed() < Duration::from_micros(60) {
                    x = std::hint::black_box(x.wrapping_mul(0x9E37_79B9));
                }
            }
        })
    };
    let loaded = run(&cfg).expect("loaded run");
    stop.store(true, Ordering::Relaxed);
    poller.join().expect("poller");

    assert!(quiet.correct && loaded.correct);
    let echo = |r: &RunReport| r.slices.median(|s| s.echo_ns);
    let (p50_q, p50_l) = (
        value(&quiet, "batch_p50_us_norm"),
        value(&loaded, "batch_p50_us_norm"),
    );
    let (qps_q, qps_l) = (value(&quiet, "qps_norm"), value(&loaded, "qps_norm"));
    eprintln!(
        "quiet -> loaded: echo {:.0} -> {:.0} ns, p50 {p50_q:.1} -> {p50_l:.1} us, qps {qps_q:.0} -> {qps_l:.0}",
        echo(&quiet),
        echo(&loaded)
    );
    assert!(
        echo(&loaded) < 1.5 * echo(&quiet),
        "the probe slowed with the program: echo {} -> {} ns",
        echo(&quiet),
        echo(&loaded)
    );
    assert!(
        p50_l > 1.3 * p50_q,
        "normalised p50 hid the background work: {p50_q} -> {p50_l} us"
    );
    assert!(
        qps_l < 0.75 * qps_q,
        "normalised qps hid the background work: {qps_q} -> {qps_l}"
    );
}
