//! Front-end metrics, built on the [`pl_obs`] metrics registry and
//! shared by every consumer of the wire front-end (single-node server
//! and cluster router alike).
//!
//! Every instrument is an `Arc` handed out by a
//! [`MetricsRegistry`] — counters under `plserve_*_total`, the query
//! latency under `plserve_query_latency_ns` — so the same numbers that
//! feed the binary `STATS` reply are scrapeable as Prometheus text from
//! the exposition sidecar. The hot query path still pays only a handful
//! of uncontended relaxed fetch-adds. [`LatencyHistogram`] is
//! [`pl_obs::Histogram`]: 64 power-of-two nanosecond buckets plus exact
//! sum/min/max.

use std::sync::Arc;
use std::time::Instant;

use pl_obs::registry::{Counter, Gauge};
use pl_obs::MetricsRegistry;

/// Power-of-two latency histogram (see [`pl_obs::Histogram`]).
pub type LatencyHistogram = pl_obs::Histogram;

/// The server's counters, registered in a [`MetricsRegistry`]. One
/// instance is shared (via `Arc`d instruments) by every connection
/// thread.
#[derive(Debug)]
pub struct Metrics {
    /// Adjacency queries answered (`plserve_adj_queries_total`).
    pub adj_queries: Arc<Counter>,
    /// Distance queries answered (`plserve_dist_queries_total`).
    pub dist_queries: Arc<Counter>,
    /// Batch frames processed (`plserve_batches_total`).
    pub batches: Arc<Counter>,
    /// Connections accepted (`plserve_connections_total`).
    pub connections: Arc<Counter>,
    /// Bytes read off sockets (`plserve_bytes_in_total`).
    pub bytes_in: Arc<Counter>,
    /// Bytes written to sockets (`plserve_bytes_out_total`).
    pub bytes_out: Arc<Counter>,
    /// Malformed frames rejected (`plserve_protocol_errors_total`).
    pub protocol_errors: Arc<Counter>,
    /// Queries at or over the slow-query threshold
    /// (`plserve_slow_queries_total`).
    pub slow_queries: Arc<Counter>,
    /// Connections refused at the cap with an `OVERLOADED` frame
    /// (`plserve_shed_total`).
    pub shed: Arc<Counter>,
    /// Idle connections reaped by the server (`plserve_idle_reaped_total`).
    pub idle_reaped: Arc<Counter>,
    /// Connections closed for stalling mid-frame past the read deadline
    /// (`plserve_deadline_closes_total`).
    pub deadline_closes: Arc<Counter>,
    /// Currently open connections (`plserve_open_conns`).
    pub open_conns: Arc<Gauge>,
    /// Per-query decode latency (`plserve_query_latency_ns`).
    pub query_latency: Arc<LatencyHistogram>,
}

impl Metrics {
    /// Registers every instrument in `registry`.
    #[must_use]
    pub fn new(registry: &MetricsRegistry) -> Self {
        Self {
            adj_queries: registry.counter("plserve_adj_queries_total"),
            dist_queries: registry.counter("plserve_dist_queries_total"),
            batches: registry.counter("plserve_batches_total"),
            connections: registry.counter("plserve_connections_total"),
            bytes_in: registry.counter("plserve_bytes_in_total"),
            bytes_out: registry.counter("plserve_bytes_out_total"),
            protocol_errors: registry.counter("plserve_protocol_errors_total"),
            slow_queries: registry.counter("plserve_slow_queries_total"),
            shed: registry.counter("plserve_shed_total"),
            idle_reaped: registry.counter("plserve_idle_reaped_total"),
            deadline_closes: registry.counter("plserve_deadline_closes_total"),
            open_conns: registry.gauge("plserve_open_conns"),
            query_latency: registry.histogram("plserve_query_latency_ns"),
        }
    }

    /// Immutable snapshot of all counters; `elapsed` is measured against
    /// `started` for the QPS figure, `shard_cache` carries the store's
    /// per-shard `(hits, misses)` pairs, `faults_injected` the fault
    /// harness's total (0 when no plan is active).
    #[must_use]
    pub fn snapshot(
        &self,
        started: Instant,
        shard_cache: &[(u64, u64)],
        faults_injected: u64,
    ) -> Snapshot {
        let adj = self.adj_queries.get();
        let dist = self.dist_queries.get();
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        let lat = self.query_latency.snapshot();
        Snapshot {
            adj_queries: adj,
            dist_queries: dist,
            batches: self.batches.get(),
            connections: self.connections.get(),
            cache_hits: shard_cache.iter().map(|&(h, _)| h).sum(),
            cache_misses: shard_cache.iter().map(|&(_, m)| m).sum(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            protocol_errors: self.protocol_errors.get(),
            p50_ns: lat.quantile_ns(0.50),
            p90_ns: lat.quantile_ns(0.90),
            p99_ns: lat.quantile_ns(0.99),
            p999_ns: lat.quantile_ns(0.999),
            min_ns: lat.min,
            max_ns: lat.max,
            qps_milli: (((adj + dist) as f64 / secs) * 1000.0) as u64,
            slow_queries: self.slow_queries.get(),
            shard_cache: shard_cache.to_vec(),
            faults_injected,
            shed: self.shed.get(),
            open_conns: self.open_conns.get().max(0) as u64,
        }
    }
}

/// Number of fixed `u64` fields before the per-shard pairs.
const FIXED_FIELDS: usize = 18;

/// Number of `u64` fields after the per-shard pairs (faults injected,
/// shed, open connections).
const TRAILER_FIELDS: usize = 3;

/// A point-in-time copy of [`Metrics`], also the payload of the wire
/// `STATS` reply.
///
/// The wire layout is [`FIXED_FIELDS`] `u64` LE words (the last one the
/// shard count `s`), then `2s` words of per-shard `(hits, misses)`,
/// then the [`TRAILER_FIELDS`]-word resilience trailer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub adj_queries: u64,
    pub dist_queries: u64,
    pub batches: u64,
    pub connections: u64,
    /// Decode-cache hits, summed over shards.
    pub cache_hits: u64,
    /// Decode-cache misses, summed over shards.
    pub cache_misses: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub protocol_errors: u64,
    /// Estimated median decode latency, ns (bucket upper edge).
    pub p50_ns: u64,
    /// Estimated 90th-percentile decode latency, ns.
    pub p90_ns: u64,
    /// Estimated 99th-percentile decode latency, ns.
    pub p99_ns: u64,
    /// Estimated 99.9th-percentile decode latency, ns.
    pub p999_ns: u64,
    /// Smallest observed decode latency, ns.
    pub min_ns: u64,
    /// Largest observed decode latency, ns.
    pub max_ns: u64,
    /// Queries per second × 1000, measured over the server's lifetime.
    pub qps_milli: u64,
    /// Queries at or over the slow-query threshold.
    pub slow_queries: u64,
    /// Per-shard decode-cache `(hits, misses)`.
    pub shard_cache: Vec<(u64, u64)>,
    /// Faults injected by the chaos harness.
    pub faults_injected: u64,
    /// Connections shed at the connection cap.
    pub shed: u64,
    /// Connections open when the snapshot was taken.
    pub open_conns: u64,
}

impl Snapshot {
    /// Serializes the `STATS` reply body.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut fields = vec![
            self.adj_queries,
            self.dist_queries,
            self.batches,
            self.connections,
            self.cache_hits,
            self.cache_misses,
            self.bytes_in,
            self.bytes_out,
            self.protocol_errors,
            self.p50_ns,
            self.p90_ns,
            self.p99_ns,
            self.p999_ns,
            self.min_ns,
            self.max_ns,
            self.qps_milli,
            self.slow_queries,
            self.shard_cache.len() as u64,
        ];
        debug_assert_eq!(fields.len(), FIXED_FIELDS);
        for &(h, m) in &self.shard_cache {
            fields.push(h);
            fields.push(m);
        }
        fields.extend([self.faults_injected, self.shed, self.open_conns]);
        let mut out = Vec::with_capacity(fields.len() * 8);
        for f in fields {
            out.extend_from_slice(&f.to_le_bytes());
        }
        out
    }

    /// Parses a `STATS` reply body; `None` unless its length matches
    /// the declared shard count exactly.
    #[must_use]
    pub fn from_bytes(buf: &[u8]) -> Option<Self> {
        if !buf.len().is_multiple_of(8) {
            return None;
        }
        let words: Vec<u64> = buf.chunks_exact(8).map(crate::bytes::le_u64).collect();
        if words.len() < FIXED_FIELDS {
            return None;
        }
        let shard_count = usize::try_from(words[FIXED_FIELDS - 1]).ok()?;
        let shards_end = shard_count
            .checked_mul(2)
            .and_then(|x| x.checked_add(FIXED_FIELDS))?;
        if words.len() != shards_end.checked_add(TRAILER_FIELDS)? {
            return None;
        }
        let shard_cache = words[FIXED_FIELDS..shards_end]
            .chunks_exact(2)
            .map(|p| (p[0], p[1]))
            .collect();
        Some(Self {
            adj_queries: words[0],
            dist_queries: words[1],
            batches: words[2],
            connections: words[3],
            cache_hits: words[4],
            cache_misses: words[5],
            bytes_in: words[6],
            bytes_out: words[7],
            protocol_errors: words[8],
            p50_ns: words[9],
            p90_ns: words[10],
            p99_ns: words[11],
            p999_ns: words[12],
            min_ns: words[13],
            max_ns: words[14],
            qps_milli: words[15],
            slow_queries: words[16],
            shard_cache,
            faults_injected: words[shards_end],
            shed: words[shards_end + 1],
            open_conns: words[shards_end + 2],
        })
    }

    /// Cache hit rate in `[0, 1]`; 0 when the cache was never consulted.
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Per-shard hit rates in `[0, 1]`, in shard order.
    #[must_use]
    pub fn shard_hit_rates(&self) -> Vec<f64> {
        self.shard_cache
            .iter()
            .map(|&(h, m)| {
                let total = h + m;
                if total == 0 {
                    0.0
                } else {
                    h as f64 / total as f64
                }
            })
            .collect()
    }

    /// Queries per second.
    #[must_use]
    pub fn qps(&self) -> f64 {
        self.qps_milli as f64 / 1000.0
    }
}

impl std::fmt::Display for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "queries: {} adj + {} dist in {} batches over {} connections",
            self.adj_queries, self.dist_queries, self.batches, self.connections
        )?;
        writeln!(
            f,
            "throughput: {:.1} qps, latency p50 < {} ns, p90 < {} ns, p99 < {} ns, p999 < {} ns (min {} ns, max {} ns)",
            self.qps(),
            self.p50_ns,
            self.p90_ns,
            self.p99_ns,
            self.p999_ns,
            self.min_ns,
            self.max_ns
        )?;
        writeln!(
            f,
            "cache: {} hits / {} misses ({:.1}% hit rate)",
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate() * 100.0
        )?;
        for (i, &(h, m)) in self.shard_cache.iter().enumerate() {
            let rate = self.shard_hit_rates()[i] * 100.0;
            writeln!(
                f,
                "  shard {i}: {h} hits / {m} misses ({rate:.1}% hit rate)"
            )?;
        }
        writeln!(f, "slow queries: {}", self.slow_queries)?;
        writeln!(
            f,
            "resilience: {} faults injected, {} conns shed, {} conns open",
            self.faults_injected, self.shed, self.open_conns
        )?;
        write!(
            f,
            "wire: {} bytes in, {} bytes out, {} protocol errors",
            self.bytes_in, self.bytes_out, self.protocol_errors
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The histogram semantics themselves are covered in pl-obs; here we
    // only pin that the re-exported type keeps the serve-side contract.
    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_ns(0.5), 0);
        for _ in 0..99 {
            h.record(100); // bucket 6: [64, 128)
        }
        h.record(1 << 20);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_ns(0.5), 128);
        assert_eq!(h.quantile_ns(0.98), 128);
        assert_eq!(h.quantile_ns(1.0), 1 << 21);
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            adj_queries: 1,
            dist_queries: 2,
            batches: 3,
            connections: 4,
            cache_hits: 9,
            cache_misses: 6,
            bytes_in: 7,
            bytes_out: 8,
            protocol_errors: 9,
            p50_ns: 10,
            p90_ns: 11,
            p99_ns: 12,
            p999_ns: 13,
            min_ns: 2,
            max_ns: 99,
            qps_milli: 12_500,
            slow_queries: 1,
            shard_cache: vec![(4, 1), (5, 5), (0, 0)],
            faults_injected: 17,
            shed: 3,
            open_conns: 2,
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let s = sample_snapshot();
        let bytes = s.to_bytes();
        assert_eq!(bytes.len(), (18 + 2 * 3 + 3) * 8);
        assert_eq!(Snapshot::from_bytes(&bytes), Some(s.clone()));
        // Any truncation is rejected: a partial word, a partial trailer,
        // or a missing trailer.
        for cut in [1, 8, 16, 24] {
            assert_eq!(Snapshot::from_bytes(&bytes[..bytes.len() - cut]), None);
        }
        assert!((s.qps() - 12.5).abs() < 1e-9);
        assert!((s.cache_hit_rate() - 9.0 / 15.0).abs() < 1e-9);
        let rates = s.shard_hit_rates();
        assert!((rates[0] - 0.8).abs() < 1e-9);
        assert!((rates[1] - 0.5).abs() < 1e-9);
        assert!(rates[2].abs() < 1e-9);
    }

    #[test]
    fn snapshot_rejects_inconsistent_shard_count() {
        let s = sample_snapshot();
        let mut bytes = s.to_bytes();
        // Claim one more shard than the body carries.
        let idx = (FIXED_FIELDS - 1) * 8;
        bytes[idx..idx + 8].copy_from_slice(&4u64.to_le_bytes());
        assert_eq!(Snapshot::from_bytes(&bytes), None);
        // Absurd shard count must not allocate or wrap.
        bytes[idx..idx + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(Snapshot::from_bytes(&bytes), None);
    }

    #[test]
    fn snapshot_counts_and_qps() {
        let reg = MetricsRegistry::new();
        let m = Metrics::new(&reg);
        m.adj_queries.add(10);
        m.query_latency.record(500);
        m.shed.add(2);
        m.open_conns.set(5);
        let s = m.snapshot(
            Instant::now() - std::time::Duration::from_secs(1),
            &[(3, 0), (0, 1)],
            7,
        );
        assert_eq!(s.adj_queries, 10);
        assert_eq!(s.faults_injected, 7);
        assert_eq!(s.shed, 2);
        assert_eq!(s.open_conns, 5);
        assert!(s.qps() > 1.0, "ten queries over ~1s");
        assert_eq!(s.cache_hits, 3);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.shard_cache, vec![(3, 0), (0, 1)]);
        assert_eq!(s.min_ns, 500);
        assert_eq!(s.max_ns, 500);
        assert!(s.p90_ns >= s.p50_ns);
        assert!(s.p999_ns >= s.p99_ns);
        // The same numbers are visible through the registry.
        let text = pl_obs::prom::render(&reg);
        assert!(text.contains("plserve_adj_queries_total 10"), "{text}");
        assert!(text.contains("plserve_query_latency_ns_count 1"));
    }
}
