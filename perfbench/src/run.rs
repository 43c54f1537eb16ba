//! One benchmark run: inputs, set-up, warm-up, the measured window, the
//! answer check, and the metrics.
//!
//! The measured window is a closed loop cut into slices of about
//! [`SLICE_S`]. Inside every slice a loopback echo probe
//! ([`host::EchoProbe`]), a process of its own at a higher priority than
//! the program, times one round trip every [`PROBE_EVERY`] batches; its
//! median tracks the host's speed from moment to moment, and the
//! normalised end-to-end timings scale each slice to a host whose echo
//! takes [`REF_ECHO_NS`]. With tracing on, untraced and traced slices
//! alternate; a traced batch is wrapped in spans and then replayed
//! in-process through each layer's public functions (wire codec, label
//! decoder, store), outside the slice's timed work, so the client round
//! trip can be split into layer self times without instrumenting the
//! server.

use std::collections::BTreeMap;
use std::io;
use std::ops::Range;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use pl_labeling::{AdjacencyDecoder, AnyDecoder};
use pl_obs::registry::{MetricValue, MetricsRegistry};
use pl_serve::{BatchOutcome, Client, LabelStore, QueryPath, StoreConfig, TaggedLabeling};
use pl_wire::protocol::{encode_batch_ctx, encode_batch_reply, parse_batch_ctx, parse_batch_reply};
use pl_wire::{Answer, Query};

use crate::deploy::{deploy, Deployment, SetupTimes};
use crate::spans::{SelfTime, Tracer};
use crate::stats::{median, median_or_zero, quantile_or_zero, quantile_sorted, ratio};
use crate::stream::{Answered, QueryStream, Truth, Workload, BATCH};
use crate::{host, PER_LAYER};

/// Target length of a slice of the measured window.
pub const SLICE_S: f64 = 0.5;
/// Batches between two echo probes (a slice's first batch is preceded
/// by one).
pub const PROBE_EVERY: u64 = 16;
/// Batches per second that no deployment here comes near (the fastest
/// reaches about 20 000). A window's logs reserve room for this rate so
/// that they never move while it runs.
const MAX_BATCH_RATE: f64 = 50_000.0;
/// Echo round trip of the reference host, ns. A normalised timing is
/// the measured one scaled to a host on which one echo takes this long.
pub const REF_ECHO_NS: f64 = 10_000.0;
/// `HEALTH` round trips timed in a traced run.
const HEALTH_PROBES: u64 = 1000;
/// Share of the `HEALTH` round trip that [`check_accounting`] requires
/// a hop's transport to take at least. Below 1 because the `HEALTH`
/// round trips are timed after the window, and the host's speed may
/// have changed in between.
const HEALTH_FLOOR: f64 = 0.5;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Traffic mix and deployment.
    pub workload: Workload,
    /// Seed of the graph and the query stream.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an end-to-end one.
    pub trace: bool,
    /// Graph vertices.
    pub n: usize,
    /// Set-ups per run; `setup_s` is their median and the last one is
    /// measured.
    pub setups: usize,
    /// Untimed warm-up after the last set-up.
    pub warmup_s: f64,
    /// Batches in the query pool.
    pub pool_batches: usize,
    /// Where a traced run writes its spans.
    pub span_file: Option<PathBuf>,
    /// The benchmark binary, started again as the echo probe
    /// ([`host::PROBE_ARG`]).
    pub probe_exe: PathBuf,
}

impl RunConfig {
    /// The benchmark's sizes for `workload`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            // Arena of ~3.5 MB: larger than one core's 2 MiB L2.
            n: 250_000,
            setups: 5,
            warmup_s: 0.5,
            pool_batches: 1 << 13,
            span_file: None,
            probe_exe: std::env::current_exe().unwrap_or_default(),
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// When each phase of a run happened.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Graph and query-stream generation.
    pub inputs: (Instant, Instant),
    /// Every set-up, in order.
    pub setups: Vec<(Instant, Instant)>,
    /// Warm-up after the last set-up.
    pub warmup: (Instant, Instant),
    /// The measured window.
    pub measured: (Instant, Instant),
}

/// What a run measured and whether every answer was right.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Every answer (set-up, warm-up, measured) matched the graph, no
    /// query failed, and the in-process replays agreed with the server.
    pub correct: bool,
    /// Queries sent in the measured window.
    pub attempted: u64,
    /// Of those, answered wrongly, with an error, or not at all.
    pub failed: u64,
    /// Batch round trips timed for the quantiles.
    pub samples: u64,
    /// The untraced window, slice by slice.
    pub slices: Slices,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// `host.calib_ms` before and after the run.
    pub calib_ms: (f64, f64),
    /// Phase boundaries.
    pub timeline: Timeline,
    /// Set-up step times of the median-`setup_s` set-up.
    pub setup: SetupTimes,
}

/// One slice of a window.
#[derive(Debug)]
struct Slice {
    /// The slice's batches, as indices into the window's logs.
    batches: Range<usize>,
    /// The slice's echo probe round trips, as indices into the window's
    /// echo log.
    echoes: Range<usize>,
    /// Wall time of the slice minus its probes and traced replays, s.
    busy_s: f64,
    /// Process CPU time over the slice, ns.
    cpu_ns: u64,
}

impl Slice {
    /// The slice's figures from its round trips `rtt_ns` and echo round
    /// trips `echo_ns`, or `None` when no batch completed in it. Sorts
    /// both.
    fn stats(&self, rtt_ns: &mut [u64], echo_ns: &mut [u64]) -> Option<SliceStats> {
        // A probe precedes a slice's first batch, so a slice with a
        // batch has an echo too.
        if rtt_ns.is_empty() {
            return None;
        }
        let queries = (rtt_ns.len() * BATCH) as f64;
        rtt_ns.sort_unstable();
        echo_ns.sort_unstable();
        Some(SliceStats {
            qps: ratio(queries, self.busy_s),
            p50_ns: quantile_sorted(rtt_ns, 0.50) as f64,
            p99_ns: quantile_sorted(rtt_ns, 0.99) as f64,
            cpu_ns_per_query: ratio(self.cpu_ns as f64, queries),
            echo_ns: quantile_sorted(echo_ns, 0.50) as f64,
        })
    }
}

/// Slices of batches driven through one client: every round trip,
/// every answer and every echo probe, in order.
#[derive(Debug, Default)]
struct Window {
    slices: Vec<Slice>,
    rtt_ns: Vec<u64>,
    log: Vec<Answered>,
    echo_ns: Vec<u64>,
    broken: bool,
}

impl Window {
    /// A window whose logs have room for `seconds` at
    /// [`MAX_BATCH_RATE`]. The room is only reserved: a log's pages
    /// become resident as batches are logged.
    fn with_room(seconds: f64) -> Self {
        let batches = (seconds * MAX_BATCH_RATE).ceil() as usize + 1024;
        Self {
            rtt_ns: Vec::with_capacity(batches),
            log: Vec::with_capacity(batches),
            echo_ns: Vec::with_capacity(batches / PROBE_EVERY as usize + 1024),
            ..Self::default()
        }
    }

    fn queries(&self) -> u64 {
        (self.log.len() * BATCH) as u64
    }

    fn qps(&self) -> f64 {
        let busy: f64 = self.slices.iter().map(|s| s.busy_s).sum();
        ratio(self.queries() as f64, busy)
    }

    /// Resident memory of the logs, MiB, counted in whole pages.
    fn log_mb(&self) -> f64 {
        let pages = |bytes: usize| bytes.div_ceil(4096) * 4096;
        let bytes = pages(std::mem::size_of_val(self.rtt_ns.as_slice()))
            + pages(std::mem::size_of_val(self.log.as_slice()))
            + pages(std::mem::size_of_val(self.echo_ns.as_slice()));
        bytes as f64 / (1024.0 * 1024.0)
    }

    fn summary(&mut self, slice_s: f64) -> Slices {
        let mut out = Slices {
            slice_s,
            stats: Vec::new(),
            rtt_ns: Vec::new(),
            rtt_ref_ns: Vec::new(),
        };
        for slice in &self.slices {
            let rtt_ns = &mut self.rtt_ns[slice.batches.clone()];
            let echo_ns = &mut self.echo_ns[slice.echoes.clone()];
            let Some(stats) = slice.stats(rtt_ns, echo_ns) else {
                continue;
            };
            let to_ref = stats.to_ref();
            out.rtt_ns.extend_from_slice(rtt_ns);
            out.rtt_ref_ns
                .extend(rtt_ns.iter().map(|&t| (t as f64 * to_ref).round() as u64));
            out.stats.push(stats);
        }
        out.rtt_ns.sort_unstable();
        out.rtt_ref_ns.sort_unstable();
        out
    }
}

/// What one slice measured: throughput, exact round-trip quantiles, CPU
/// per query, and the median echo probe round trip.
#[derive(Debug, Clone, Copy)]
pub struct SliceStats {
    /// Queries per second of batch time (probes and traced replays
    /// excluded).
    pub qps: f64,
    /// Exact p50 batch round trip, ns.
    pub p50_ns: f64,
    /// Exact p99 batch round trip, ns.
    pub p99_ns: f64,
    /// Process CPU time per query, ns.
    pub cpu_ns_per_query: f64,
    /// Median echo probe round trip, ns.
    pub echo_ns: f64,
}

impl SliceStats {
    /// How much faster the reference host is than the host was during
    /// this slice: [`REF_ECHO_NS`] over the slice's echo round trip.
    /// Times are multiplied by it, rates divided.
    #[must_use]
    pub fn to_ref(&self) -> f64 {
        REF_ECHO_NS / self.echo_ns
    }
}

/// The slices of a run's untraced window. Rates are medians over
/// slices, so a host stall that covers a few slices does not move them;
/// round-trip quantiles are exact over every batch of the window.
#[derive(Debug, Clone)]
pub struct Slices {
    /// Length of every slice, s.
    pub slice_s: f64,
    /// Every slice in which a batch completed, in order.
    pub stats: Vec<SliceStats>,
    /// Every batch round trip, ascending, ns.
    pub rtt_ns: Vec<u64>,
    /// Every batch round trip scaled to the reference host by its own
    /// slice's echo ([`SliceStats::to_ref`]), ascending, ns.
    pub rtt_ref_ns: Vec<u64>,
}

impl Slices {
    /// Median over slices of `f`, or 0 without slices.
    #[must_use]
    pub fn median(&self, f: impl Fn(&SliceStats) -> f64) -> f64 {
        median_or_zero(&self.stats.iter().map(f).collect::<Vec<_>>())
    }

    /// Exact quantile `q` of the round trips as measured, µs.
    #[must_use]
    pub fn rtt_us(&self, q: f64) -> f64 {
        quantile_or_zero(&self.rtt_ns, q) / 1e3
    }

    /// Exact quantile `q` of the round trips scaled to the reference
    /// host, µs.
    #[must_use]
    pub fn rtt_ref_us(&self, q: f64) -> f64 {
        quantile_or_zero(&self.rtt_ref_ns, q) / 1e3
    }
}

/// The traced run's in-process replay of each layer.
struct Replay {
    tracer: Tracer,
    store: LabelStore,
    decoder: AnyDecoder,
    version: u8,
    /// Wire hops a batch crosses: 1 to a server, 2 through the router.
    hops: usize,
    outcomes: Vec<BatchOutcome>,
    batches: u64,
    fatfat: u64,
    errors: u64,
    /// Replayed answers that differ from the server's.
    disagreements: u64,
}

impl Replay {
    /// Re-runs `queries` through the wire codec (once per hop), the
    /// label decoder and the store, each in its own span, and checks
    /// that each agrees with the server's `answers`.
    fn replay(
        &mut self,
        pairs: &[(u32, u32)],
        queries: &[Query],
        answers: &[Answer],
        seen: Answered,
    ) {
        let id = self.batches;
        let Self {
            tracer: t,
            store,
            decoder,
            version,
            ..
        } = self;
        let v = *version;
        let mut agree = true;
        for _ in 0..self.hops {
            let body = t.time("wire.encode_batch", id, || {
                encode_batch_ctx(queries, None, v)
            });
            let parsed = t.time("wire.parse_batch", id, || {
                body.as_deref().map(|b| parse_batch_ctx(b, v))
            });
            agree &= matches!(parsed, Ok(Ok((ref q, None))) if q == queries);
        }
        let decoded = t.time("labeling.decode", id, || {
            pairs.iter().enumerate().fold(0u64, |m, (i, &(a, b))| {
                match (store.label(a), store.label(b)) {
                    (Some(la), Some(lb)) if decoder.adjacent(la, lb) => m | 1 << i,
                    _ => m,
                }
            })
        });
        let outcomes = &mut self.outcomes;
        t.time("store.adjacent_batch", id, || {
            store.adjacent_batch_traced(pairs, outcomes);
        });
        let mut stored = 0u64;
        for (i, o) in outcomes.iter().enumerate() {
            match o.result {
                Ok((edge, path)) => {
                    stored |= u64::from(edge) << i;
                    self.fatfat += u64::from(matches!(path, QueryPath::FatFat { .. }));
                }
                Err(_) => self.errors += 1,
            }
        }
        for _ in 0..self.hops {
            let reply = t.time("wire.encode_reply", id, || encode_batch_reply(answers, v));
            let parsed = t.time("wire.parse_reply", id, || parse_batch_reply(&reply, v));
            agree &= parsed.as_deref() == Ok(answers);
        }
        agree &= decoded == seen.adjacent && stored == seen.adjacent;
        self.disagreements += u64::from(!agree);
    }
}

/// One slice of the closed loop: sends the pool's batches in order from
/// `next` until `secs` have passed, timing each round trip and probing
/// the host every [`PROBE_EVERY`] batches. A traced batch is replayed
/// after its round trip. The probes' and replays' time is left out of
/// the slice. Stops early if a round trip fails (the batch is logged as
/// missing).
///
/// # Errors
///
/// Fails when the echo probe or `/proc` fails.
fn drive(
    client: &mut Client,
    stream: &QueryStream,
    next: &mut usize,
    secs: f64,
    probe: &mut host::EchoProbe,
    mut replay: Option<&mut Replay>,
    win: &mut Window,
) -> io::Result<()> {
    let (first, first_echo) = (win.log.len(), win.echo_ns.len());
    let mut off_s = 0.0;
    let cpu_before = host::cpu_ns()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(secs);
    for count in 0u64.. {
        if count % PROBE_EVERY == 0 {
            let p0 = Instant::now();
            win.echo_ns.push(probe.rtt_ns()?);
            off_s += p0.elapsed().as_secs_f64();
        }
        let b = *next % stream.batches();
        *next += 1;
        if let Some(r) = replay.as_deref_mut() {
            r.tracer.enter("batch", r.batches);
            r.tracer.enter("client.batch", r.batches);
        }
        let t0 = Instant::now();
        let reply = client.batch(stream.queries(b));
        let t1 = Instant::now();
        win.rtt_ns.push(t1.duration_since(t0).as_nanos() as u64);
        let seen = match &reply {
            Ok(answers) => Answered::new(b, answers),
            Err(_) => Answered::missing(b),
        };
        win.log.push(seen);
        if let Some(r) = replay.as_deref_mut() {
            r.tracer.exit();
            if let Ok(answers) = &reply {
                let r0 = Instant::now();
                r.replay(stream.pairs(b), stream.queries(b), answers, seen);
                off_s += r0.elapsed().as_secs_f64();
            }
            r.tracer.exit();
            r.batches += 1;
        }
        if reply.is_err() {
            win.broken = true;
            break;
        }
        if t1 >= deadline {
            break;
        }
    }
    let busy_s = start.elapsed().as_secs_f64() - off_s;
    let cpu_ns = host::cpu_ns()?.saturating_sub(cpu_before);
    win.slices.push(Slice {
        batches: first..win.log.len(),
        echoes: first_echo..win.echo_ns.len(),
        busy_s,
        cpu_ns,
    });
    Ok(())
}

/// Slices in a measured window of `seconds`: about [`SLICE_S`] each, and
/// an even number, at least two, when untraced and traced slices
/// alternate.
fn slice_count(seconds: f64, trace: bool) -> usize {
    let n = ((seconds / SLICE_S).round() as usize).max(1);
    if trace {
        n.max(2).next_multiple_of(2)
    } else {
        n
    }
}

/// Sum over all label sets of a counter family, or of the values a
/// histogram family recorded.
fn family_total(reg: &MetricsRegistry, name: &str) -> u64 {
    reg.samples()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match &s.value {
            MetricValue::Counter(c) => *c,
            MetricValue::Histogram(h) => h.sum,
            MetricValue::Gauge(_) => 0,
        })
        .sum()
}

/// The router's counters, read around the measured window (all 0 on
/// the serve workloads).
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    failovers: u64,
    queries: u64,
    fanout: u64,
    batches: u64,
    /// The router's own time per batch, summed over batches, ns.
    batch_ns: u64,
}

impl Counts {
    fn read(d: &Deployment) -> Self {
        d.router().map_or_else(Self::default, |r| {
            let reg = r.registry();
            let total = |name| family_total(&reg, name);
            Self {
                failovers: total("plcluster_failover_total"),
                queries: total("plcluster_queries_total"),
                fanout: total("plcluster_fanout_total"),
                batches: total("plcluster_batches_total"),
                batch_ns: total("plcluster_batch_ns"),
            }
        })
    }
}

/// Runs the configured workload: fixes the allocator's mmap threshold
/// ([`host::fix_mmap_threshold`]), starts the echo probe, then runs the
/// rest on a thread of its own at the program's lower priority
/// ([`host::lower_priority`]), so that every thread of the deployment
/// inherits it and the probe does not.
///
/// # Errors
///
/// Fails when the allocator refuses the threshold, the probe cannot be
/// started, the deployment cannot be set up or `/proc` is unreadable.
///
/// # Panics
///
/// Panics when `cfg.setups` is 0.
pub fn run(cfg: &RunConfig) -> io::Result<RunReport> {
    assert!(cfg.setups >= 1, "need at least one set-up");
    host::fix_mmap_threshold()?;
    let mut probe = host::EchoProbe::start(&cfg.probe_exe)?;
    std::thread::scope(|s| {
        s.spawn(|| {
            host::lower_priority()?;
            run_program(cfg, &mut probe)
        })
        .join()
        .unwrap_or_else(|_| Err(io::Error::other("benchmark thread panicked")))
    })
}

fn run_program(cfg: &RunConfig, probe: &mut host::EchoProbe) -> io::Result<RunReport> {
    let calib_start = host::calib_ms();

    let inputs_start = Instant::now();
    let g = crate::stream::graph(cfg.n, cfg.seed);
    let stream = QueryStream::generate(&g, cfg.workload, cfg.seed, cfg.pool_batches);
    let inputs = (inputs_start, Instant::now());

    // Set up several times; the median is `setup_s`, the last one is
    // measured. The first batch of each is checked with the rest.
    let mut setups: Vec<SetupTimes> = Vec::with_capacity(cfg.setups);
    let mut checked = Vec::new();
    let mut live: Option<Deployment> = None;
    for _ in 0..cfg.setups {
        if let Some(d) = live.take() {
            d.shutdown();
        }
        let (d, times, answers) = deploy(cfg.workload, &g, stream.queries(0))?;
        checked.push(Answered::new(0, &answers));
        setups.push(times);
        live = Some(d);
    }
    let mut dep = live.expect("at least one set-up");
    let tagged = TaggedLabeling::from_bytes(&dep.plab)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;

    let warm_start = Instant::now();
    let mut next = 1;
    let mut warm = Window::with_room(cfg.warmup_s);
    drive(
        &mut dep.client,
        &stream,
        &mut next,
        cfg.warmup_s,
        probe,
        None,
        &mut warm,
    )?;
    let warmup = (warm_start, Instant::now());
    checked.extend_from_slice(&warm.log);

    let mut replay = cfg.trace.then(|| Replay {
        tracer: Tracer::new(),
        store: LabelStore::new(tagged.clone(), StoreConfig::default()),
        decoder: tagged.decoder(),
        version: dep.client.version(),
        hops: if cfg.workload.clustered() { 2 } else { 1 },
        outcomes: Vec::with_capacity(BATCH),
        batches: 0,
        fatfat: 0,
        errors: 0,
        disagreements: 0,
    });
    let mut plain = Window::with_room(cfg.seconds);
    let mut traced = if cfg.trace {
        Window::with_room(cfg.seconds)
    } else {
        Window::default()
    };
    let rss_before_mb = host::peak_rss_mb()?;
    let counts_before = Counts::read(&dep);
    let slices = slice_count(cfg.seconds, cfg.trace);
    let slice_s = cfg.seconds / slices as f64;
    let measured_start = Instant::now();
    for i in 0..slices {
        // Odd slices of a traced run are the traced ones.
        let (win, r) = match replay.as_mut() {
            Some(r) if i % 2 == 1 => (&mut traced, Some(r)),
            _ => (&mut plain, None),
        };
        drive(&mut dep.client, &stream, &mut next, slice_s, probe, r, win)?;
        if plain.broken || traced.broken {
            break;
        }
    }
    let measured = (measured_start, Instant::now());
    // The window's logs belong to the benchmark, not to the system
    // under test: their pages come off any peak they raised. Set-up and
    // warm-up peaks are in the reading from before the window.
    let peak_rss_mb = rss_before_mb.max(host::peak_rss_mb()? - plain.log_mb() - traced.log_mb());
    let counts_after = Counts::read(&dep);

    let mut health_ok = true;
    if let Some(r) = replay.as_mut() {
        for i in 0..HEALTH_PROBES {
            r.tracer.enter("server.health", i);
            health_ok &= dep.client.health().is_ok();
            r.tracer.exit();
        }
    }
    dep.shutdown();

    // Everything below runs after the timers have stopped.
    let mut truth = Truth::new(&g, &stream);
    let checked_ok = truth.count_correct(&checked) == (checked.len() * BATCH) as u64;
    let attempted = plain.queries() + traced.queries();
    let answered = truth.count_correct(&plain.log) + truth.count_correct(&traced.log);
    let failed = attempted - answered;
    let disagreements = replay.as_ref().map_or(0, |r| r.disagreements);
    let correct = failed == 0 && checked_ok && health_ok && disagreements == 0;

    let slices = plain.summary(slice_s);
    let setup_s = median(&setups.iter().map(|s| s.setup_s).collect::<Vec<_>>());
    let setup = *setups
        .iter()
        .min_by(|a, b| {
            (a.setup_s - setup_s)
                .abs()
                .total_cmp(&(b.setup_s - setup_s).abs())
        })
        .expect("at least one set-up");

    let calib_end = host::calib_ms();
    let metrics = if let Some(r) = replay.as_ref() {
        let layer = LayerInputs {
            setups: &setups,
            replay: r,
            plain: &plain,
            traced: &traced,
            slices: &slices,
            counts: (counts_before, counts_after),
            clustered: cfg.workload.clustered(),
            calib: (calib_start, calib_end),
        };
        per_layer(&layer)
    } else {
        vec![
            metric("qps_norm", slices.median(|s| s.qps / s.to_ref())),
            metric("batch_p50_us_norm", slices.rtt_ref_us(0.50)),
            metric("batch_p99_us_norm", slices.rtt_ref_us(0.99)),
            metric("answered_share", ratio(answered as f64, attempted as f64)),
            metric("setup_s", setup_s),
            metric(
                "cpu_ns_per_query_norm",
                slices.median(|s| s.cpu_ns_per_query * s.to_ref()),
            ),
            metric("peak_rss_mb", peak_rss_mb),
            metric("label_bits_max", tagged.labeling.max_bits() as f64),
            metric("label_bits_avg", tagged.labeling.avg_bits()),
        ]
    };
    if let (Some(r), Some(path)) = (replay.as_ref(), cfg.span_file.as_ref()) {
        r.tracer.write_jsonl(path)?;
    }
    Ok(RunReport {
        correct,
        attempted,
        failed,
        samples: slices.rtt_ns.len() as u64,
        slices,
        metrics,
        calib_ms: (calib_start, calib_end),
        timeline: Timeline {
            inputs,
            setups: setups.iter().map(|s| s.window).collect(),
            warmup,
            measured,
        },
        setup,
    })
}

/// A metric of either list, with the unit its list gives it.
fn metric(name: &'static str, value: f64) -> Metric {
    let unit = crate::END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .expect("metric is declared in END_TO_END or PER_LAYER");
    Metric { name, unit, value }
}

struct LayerInputs<'a> {
    setups: &'a [SetupTimes],
    replay: &'a Replay,
    plain: &'a Window,
    traced: &'a Window,
    slices: &'a Slices,
    counts: (Counts, Counts),
    clustered: bool,
    calib: (f64, f64),
}

/// Derives the per-layer metrics from the set-up times, the spans and
/// the router counters.
fn per_layer(x: &LayerInputs<'_>) -> Vec<Metric> {
    let st: BTreeMap<&str, SelfTime> = x.replay.tracer.self_times();
    let self_ns = |name: &str| st.get(name).map_or(0, |t| t.self_ns) as f64;
    let batches = x.replay.batches as f64;
    let queries = batches * BATCH as f64;
    let per_batch = |name: &str| ratio(self_ns(name), batches);
    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&x.setups.iter().map(f).collect::<Vec<_>>());

    let wire_ns: f64 = [
        "wire.encode_batch",
        "wire.parse_batch",
        "wire.encode_reply",
        "wire.parse_reply",
    ]
    .iter()
    .map(|n| per_batch(n))
    .sum();
    let store_ns = per_batch("store.adjacent_batch");
    let (before, after) = x.counts;
    let router_batches = (after.batches - before.batches) as f64;
    let router_ns = ratio((after.batch_ns - before.batch_ns) as f64, router_batches);
    let rtt_ns = per_batch("client.batch");
    let health: Vec<f64> = x
        .replay
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == "server.health")
        .map(|s| s.dur_ns() as f64)
        .collect();
    let hits = x.replay.store.cache_hits() as f64;
    let misses = x.replay.store.cache_misses() as f64;
    let (failovers, legs) = if x.clustered {
        (
            ratio(
                (after.failovers - before.failovers) as f64,
                (after.queries - before.queries) as f64,
            ),
            ratio((after.fanout - before.fanout) as f64, router_batches),
        )
    } else {
        // One server answers each batch whole: one leg, nothing to fail
        // over to.
        (0.0, 1.0)
    };
    vec![
        metric("labeling.encode_s", setup_median(|s| s.encode_s)),
        metric("labeling.load_s", setup_median(|s| s.load_s)),
        metric(
            "labeling.decode_ns_per_query",
            ratio(self_ns("labeling.decode"), queries),
        ),
        metric("store.build_s", setup_median(|s| s.build_s)),
        metric(
            "store.ns_per_query",
            ratio(self_ns("store.adjacent_batch"), queries),
        ),
        metric("store.cache_hit_ratio", ratio(hits, hits + misses)),
        metric("store.cache_hits", hits),
        metric("store.cache_misses", misses),
        metric("store.fatfat_share", ratio(x.replay.fatfat as f64, queries)),
        metric("store.errors", x.replay.errors as f64),
        metric("wire.encode_batch_ns", per_batch("wire.encode_batch")),
        metric("wire.parse_batch_ns", per_batch("wire.parse_batch")),
        metric("wire.encode_reply_ns", per_batch("wire.encode_reply")),
        metric("wire.parse_reply_ns", per_batch("wire.parse_reply")),
        metric("server.connect_ms", setup_median(|s| s.connect_ms)),
        metric("server.health_rtt_us", median_or_zero(&health) / 1e3),
        metric(
            "server.transport_us_per_batch",
            (rtt_ns - store_ns - wire_ns) / 1e3,
        ),
        metric("server.rtt_us_per_batch", rtt_ns / 1e3),
        metric("cluster.split_s", setup_median(|s| s.split_s)),
        metric("cluster.first_batch_ms", setup_median(|s| s.first_batch_ms)),
        metric("cluster.failovers_per_query", failovers),
        metric("cluster.legs_per_batch", legs),
        metric("cluster.router_us_per_batch", router_ns / 1e3),
        metric("raw.qps", x.slices.median(|s| s.qps)),
        metric("raw.batch_p50_us", x.slices.rtt_us(0.50)),
        metric("raw.batch_p99_us", x.slices.rtt_us(0.99)),
        metric(
            "raw.cpu_ns_per_query",
            x.slices.median(|s| s.cpu_ns_per_query),
        ),
        metric(
            "trace.overhead_pct",
            100.0 * (1.0 - ratio(x.traced.qps(), x.plain.qps())),
        ),
        metric("trace.batches", batches),
        metric("host.calib_start_ms", x.calib.0),
        metric("host.calib_end_ms", x.calib.1),
        metric("host.echo_rtt_us", x.slices.median(|s| s.echo_ns) / 1e3),
    ]
}

/// Checks a traced run's split of the batch round trip against figures
/// that do not come from the replay. `server.transport_us_per_batch` is
/// the round trip minus the replayed store and wire self times, so by
/// construction they add up; what can go wrong is the replay claiming
/// too much. A `HEALTH` round trip crosses the same loopback hop with no
/// store work, so transport must take at least [`HEALTH_FLOOR`] of it.
/// On the cluster, the router times each batch itself (legs to the
/// backends included): that must fit inside the client's round trip
/// and leave the client's own hop to the router at least the same
/// floor.
///
/// # Errors
///
/// Says which figure is out of line, or that one is missing.
pub fn check_accounting(metrics: &[Metric]) -> Result<(), String> {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
            .ok_or_else(|| format!("{name} not measured"))
    };
    let rtt = get("server.rtt_us_per_batch")?;
    let transport = get("server.transport_us_per_batch")?;
    let floor = HEALTH_FLOOR * get("server.health_rtt_us")?;
    let router = get("cluster.router_us_per_batch")?;
    if transport < floor {
        return Err(format!(
            "transport {transport:.2} us per batch is under {floor:.2} us, \
             {HEALTH_FLOOR} of a HEALTH round trip"
        ));
    }
    if router > 0.0 && rtt - router < floor {
        return Err(format!(
            "the router's own {router:.2} us per batch leaves {:.2} us of the \
             {rtt:.2} us round trip for the hop to it, under {floor:.2} us",
            rtt - router
        ));
    }
    Ok(())
}
