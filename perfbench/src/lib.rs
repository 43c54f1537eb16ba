//! Steady-state serving benchmark for the power-law labeling stack.
//!
//! One seeded Chung–Lu graph (α = 2.5, average degree 5) is encoded with
//! the paper's threshold scheme ([`pl_labeling::PowerLawScheme`]) and
//! served three ways (see [`Workload`]). A run measures one closed-loop
//! client connection sending 64-query batches for a fixed time, then
//! checks every answer against the graph. `main.rs` turns a run into the
//! one-line JSON result; `NOTES.md` records why the workloads are what
//! they are.
//!
//! Modules:
//! * [`stream`] — the seeded query stream and the graph-truth check;
//! * [`stats`] — exact quantiles and medians;
//! * [`host`] — `/proc` readers, the host calibration loop, the
//!   loopback echo probe (a process of its own) that normalised timings
//!   are scaled by, and the scheduling and allocator settings a run
//!   makes;
//! * [`spans`] — the in-memory span recorder of the traced run;
//! * [`deploy`] — set-up (encode → `.plab` → store → bind → connect);
//! * [`run`] — warm-up, timed windows, traced replay, metrics.

pub mod deploy;
pub mod host;
pub mod run;
pub mod spans;
pub mod stats;
pub mod stream;

pub use run::{check_accounting, run, Metric, RunConfig, RunReport, SliceStats, Slices};
pub use stream::Workload;

/// End-to-end metrics, printed by a run with tracing off, as
/// `(name, unit)`. Order matches `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("qps_norm", "1/s"),
    ("batch_p50_us_norm", "us"),
    ("batch_p99_us_norm", "us"),
    ("answered_share", "share"),
    ("setup_s", "s"),
    ("cpu_ns_per_query_norm", "ns"),
    ("peak_rss_mb", "MB"),
    ("label_bits_max", "bits"),
    ("label_bits_avg", "bits"),
];

/// Per-layer metrics, printed by a traced run, as `(name, unit)`.
/// Order matches `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("labeling.encode_s", "s"),
    ("labeling.load_s", "s"),
    ("labeling.decode_ns_per_query", "ns"),
    ("store.build_s", "s"),
    ("store.ns_per_query", "ns"),
    ("store.cache_hit_ratio", "share"),
    ("store.cache_hits", "count"),
    ("store.cache_misses", "count"),
    ("store.fatfat_share", "share"),
    ("store.errors", "count"),
    ("wire.encode_batch_ns", "ns"),
    ("wire.parse_batch_ns", "ns"),
    ("wire.encode_reply_ns", "ns"),
    ("wire.parse_reply_ns", "ns"),
    ("server.connect_ms", "ms"),
    ("server.health_rtt_us", "us"),
    ("server.transport_us_per_batch", "us"),
    ("server.rtt_us_per_batch", "us"),
    ("cluster.split_s", "s"),
    ("cluster.first_batch_ms", "ms"),
    ("cluster.failovers_per_query", "ratio"),
    ("cluster.legs_per_batch", "ratio"),
    ("cluster.router_us_per_batch", "us"),
    ("raw.qps", "1/s"),
    ("raw.batch_p50_us", "us"),
    ("raw.batch_p99_us", "us"),
    ("raw.cpu_ns_per_query", "ns"),
    ("trace.overhead_pct", "%"),
    ("trace.batches", "count"),
    ("host.calib_start_ms", "ms"),
    ("host.calib_end_ms", "ms"),
    ("host.echo_rtt_us", "us"),
];

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters, each in `[A-Za-z0-9_.-]`.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}
