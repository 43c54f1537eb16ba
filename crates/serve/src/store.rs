//! The sharded in-memory label store.
//!
//! The labeling is loaded once as a single contiguous bit arena
//! ([`pl_labeling::Labeling`]) and queried in place: `label(v)` hands out
//! a borrowed [`LabelRef`] window, so the query path performs zero heap
//! allocation. Labels are immutable after load, so reads need no
//! synchronization at all — any number of connection threads query
//! concurrently.
//!
//! The only mutable state is a sharded LRU cache of *decoded fat
//! labels* (vertex `v` maps to shard `v mod S`). A fat vertex's label is
//! a `k`-bit adjacency bitmap over the fat vertices, prefixed by a
//! gamma-coded `k`; a fat–fat query must skip the varint and seek to one
//! bit. Decoding the bitmap once into `u64` words turns repeat queries
//! against the same hub into a word-indexed bit test. Under a power-law
//! workload this is exactly the right thing to cache: the hot vertices
//! *are* the hubs, hubs are fat, and `k` is small (Theorem 4 picks τ so
//! that `k ≈ (C'n/log n)^{1/α}`), so the cache holds the heavy tail of
//! the query distribution in a few KB. Thin labels are deliberately not
//! cached — they are cheap linear scans, and under skew they would flood
//! the LRU with cold entries.
//!
//! Labels are untrusted once a `.plab` leaves the encoder: the threshold
//! fast path reads them with checked (non-panicking) bit reads, and a
//! label that declares more content than it carries answers
//! [`StoreError::Malformed`] for that query instead of killing the
//! connection thread.
//!
//! # Partial stores
//!
//! A store marked [partial](LabelStore::with_partial) holds a cluster
//! partition cut by `plab cluster split`: vertices this backend *owns*
//! carry their full, bit-identical label, while every other vertex
//! carries only a prelude stub (id width + scheme id + fat flag, nothing
//! after). A stub is enough to answer from the *other* endpoint's side —
//! a thin owned label scans its own neighbour list for the stub's scheme
//! id, and a fat owned bitmap is tested against it — so the partial
//! query path tries both sides with checked reads and only reports
//! [`StoreError::NotOwned`] when neither endpoint's content is present
//! (fat–fat with both bitmaps missing, or a thin endpoint stubbed with
//! the other endpoint fat). The router turns `NotOwned` into a re-ask at
//! a replica owning the other endpoint.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use pl_labeling::codec::{decode_adjacent, decode_distance, SchemeTag, TaggedLabeling};
use pl_labeling::scheme::AdjacencyDecoder;
use pl_labeling::threshold::ThresholdDecoder;
use pl_labeling::LabelRef;
use pl_obs::registry::Counter;
use pl_obs::MetricsRegistry;

use crate::cache::LruCache;

/// Store sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Number of cache shards `S`; clamped to at least 1.
    pub shards: usize,
    /// Total decoded-fat-label cache entries across all shards (split
    /// evenly; 0 disables the cache).
    pub cache_capacity: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            cache_capacity: 1024,
        }
    }
}

/// A query the store cannot answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// A vertex id was `≥ n`.
    OutOfRange,
    /// The loaded scheme cannot answer this query kind.
    Unsupported,
    /// A label involved in the query was corrupt (declared more content
    /// than it carries). The store stays up; only this query fails.
    Malformed,
    /// A [partial](LabelStore::with_partial) store holds only prelude
    /// stubs for the queried pair's decodable sides; the query must be
    /// re-asked at a backend owning one of the endpoints.
    NotOwned,
}

/// A fat label's adjacency bitmap, decoded into words for O(1) bit tests.
#[derive(Debug)]
pub struct DecodedFat {
    k: u64,
    words: Vec<u64>,
}

impl DecodedFat {
    /// Decodes the bitmap of a fat threshold label; `None` if the label
    /// is thin — or truncated mid-field, so corrupt labels surface as a
    /// decode failure rather than a panic.
    #[must_use]
    pub fn from_label(label: LabelRef<'_>) -> Option<Self> {
        let mut r = label.reader();
        let w = r.try_read_bits(6)? as usize;
        let _id = r.try_read_bits(w)?;
        if !r.try_read_bit()? {
            return None;
        }
        let k = r.try_read_gamma()? - 1;
        if k > r.remaining() as u64 {
            return None;
        }
        let mut words = vec![0u64; (k as usize).div_ceil(64)];
        for i in 0..k as usize {
            if r.read_bit() {
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        Some(Self { k, words })
    }

    /// Tests adjacency to fat scheme-id `id`.
    #[must_use]
    pub fn test(&self, id: u64) -> bool {
        id < self.k && (self.words[id as usize / 64] >> (id % 64)) & 1 == 1
    }

    /// Number of fat vertices the bitmap covers.
    #[must_use]
    pub fn k(&self) -> u64 {
        self.k
    }
}

/// Checked peek at a threshold label's prelude and fat flag; `None` if
/// the label is too short to carry them.
fn peek_threshold(l: LabelRef<'_>) -> Option<(u64, bool)> {
    let mut r = l.reader();
    let w = r.try_read_bits(6)? as usize;
    let id = r.try_read_bits(w)?;
    let fat = r.try_read_bit()?;
    Some((id, fat))
}

/// Checked scan of a thin threshold label's neighbour list for scheme id
/// `target`; `None` if the label is a prelude stub (or truncated) so the
/// list is unreadable. Mirrors the unchecked decoder's short-circuit on
/// a match.
fn thin_contains(l: LabelRef<'_>, target: u64) -> Option<bool> {
    let mut r = l.reader();
    let w = r.try_read_bits(6)? as usize;
    let _id = r.try_read_bits(w)?;
    let _fat = r.try_read_bit()?;
    let deg = r.try_read_gamma()? - 1;
    for _ in 0..deg {
        if r.try_read_bits(w)? == target {
            return Some(true);
        }
    }
    Some(false)
}

/// How one adjacency query was answered — the provenance attached to
/// slow-query trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryPath {
    /// Non-threshold scheme: generic decoder dispatch.
    Generic,
    /// At least one endpoint thin: neighbour-list scan.
    ThinScan,
    /// Fat–fat pair answered through the decode cache.
    FatFat {
        /// Cache shard consulted (`u mod S`).
        shard: u32,
        /// Whether the decoded bitmap was already cached.
        hit: bool,
    },
}

impl QueryPath {
    /// Packs the provenance into one trace payload word:
    /// low byte = path kind (0 generic, 1 thin, 2 fat–fat),
    /// bit 8 = cache hit, bits 32.. = shard index.
    #[must_use]
    pub fn as_u64(&self) -> u64 {
        match *self {
            Self::Generic => 0,
            Self::ThinScan => 1,
            Self::FatFat { shard, hit } => 2 | (u64::from(hit) << 8) | (u64::from(shard) << 32),
        }
    }
}

/// One query's outcome from [`LabelStore::adjacent_batch_traced`]: the
/// adjacency result (as from [`LabelStore::adjacent_traced`]) plus the
/// measured store-side latency.
#[derive(Debug, Clone, Copy)]
pub struct BatchOutcome {
    /// The adjacency answer, with shard/cache provenance, or the
    /// per-query failure.
    pub result: Result<(bool, QueryPath), StoreError>,
    /// Store-side latency in nanoseconds (under contention this
    /// includes the shard-lock wait).
    pub ns: u64,
}

/// The sharded, concurrently readable label store.
pub struct LabelStore {
    labeling: pl_labeling::Labeling,
    caches: Vec<Mutex<LruCache<Arc<DecodedFat>>>>,
    tag: SchemeTag,
    n: u32,
    /// Per-shard decode-cache hit counters
    /// (`plserve_cache_hits_total{shard=...}`), index-aligned with
    /// `caches`.
    shard_hits: Vec<Arc<Counter>>,
    /// Per-shard miss counters, likewise.
    shard_misses: Vec<Arc<Counter>>,
    /// Cluster-partition sub-store: non-owned vertices are prelude
    /// stubs, and unanswerable queries report [`StoreError::NotOwned`]
    /// instead of [`StoreError::Malformed`].
    partial: bool,
    /// The config this store was built with, so a reconfiguration swap
    /// can rebuild a replacement with identical sharding.
    config: StoreConfig,
}

impl std::fmt::Debug for LabelStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LabelStore")
            .field("tag", &self.tag)
            .field("n", &self.n)
            .field("shards", &self.caches.len())
            .finish_non_exhaustive()
    }
}

impl LabelStore {
    /// Wraps `tagged` with a cache sharded per `config`. The labeling's
    /// arena is kept whole — shards only partition the decode cache.
    /// Cache counters are created privately; use
    /// [`with_registry`](Self::with_registry) to make them scrapeable.
    #[must_use]
    pub fn new(tagged: TaggedLabeling, config: StoreConfig) -> Self {
        Self::with_registry(tagged, config, &MetricsRegistry::new())
    }

    /// Like [`new`](Self::new), but registers the per-shard cache
    /// counters as the `plserve_cache_hits_total{shard=...}` /
    /// `plserve_cache_misses_total{shard=...}` families in `registry`.
    #[must_use]
    pub fn with_registry(
        tagged: TaggedLabeling,
        config: StoreConfig,
        registry: &MetricsRegistry,
    ) -> Self {
        let shard_count = config.shards.max(1);
        let per_shard_cache = config.cache_capacity.div_ceil(shard_count);
        let n = u32::try_from(tagged.labeling.len()).expect("more than u32::MAX labels"); // lint: panic-ok(store construction happens at startup/reconfig, not per-request; vertex ids are u32 on the wire)
        let caches = (0..shard_count)
            .map(|_| {
                Mutex::new(LruCache::new(if config.cache_capacity == 0 {
                    0
                } else {
                    per_shard_cache
                }))
            })
            .collect();
        let shard_counter = |name: &str| -> Vec<Arc<Counter>> {
            (0..shard_count)
                .map(|i| registry.counter_with(name, &[("shard", &i.to_string())]))
                .collect()
        };
        Self {
            labeling: tagged.labeling,
            caches,
            tag: tagged.tag,
            n,
            shard_hits: shard_counter("plserve_cache_hits_total"),
            shard_misses: shard_counter("plserve_cache_misses_total"),
            partial: false,
            config,
        }
    }

    /// The config this store was built with.
    #[must_use]
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Marks the store as a cluster-partition sub-store (see the module
    /// docs): the threshold query path tries both endpoints with checked
    /// reads and reports [`StoreError::NotOwned`] where a full store
    /// would report [`StoreError::Malformed`].
    #[must_use]
    pub fn with_partial(mut self, partial: bool) -> Self {
        self.partial = partial;
        self
    }

    /// Is this a cluster-partition sub-store?
    #[must_use]
    pub fn is_partial(&self) -> bool {
        self.partial
    }

    /// Vertex count.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// The loaded scheme.
    #[must_use]
    pub fn tag(&self) -> SchemeTag {
        self.tag
    }

    /// Number of cache shards.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.caches.len()
    }

    /// Decode-cache hits so far, summed over shards.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.shard_hits.iter().map(|c| c.get()).sum()
    }

    /// Decode-cache misses so far, summed over shards.
    #[must_use]
    pub fn cache_misses(&self) -> u64 {
        self.shard_misses.iter().map(|c| c.get()).sum()
    }

    /// Per-shard liveness, in shard order: a shard is unhealthy if its
    /// cache mutex was poisoned by a panicking connection thread. Labels
    /// themselves are immutable, so an unhealthy shard still answers
    /// queries — this feeds the wire `HEALTH` reply so operators see the
    /// degradation.
    #[must_use]
    pub fn shard_health(&self) -> Vec<bool> {
        self.caches.iter().map(|m| !m.is_poisoned()).collect()
    }

    /// Per-shard `(hits, misses)` pairs, in shard order.
    #[must_use]
    pub fn shard_cache_counts(&self) -> Vec<(u64, u64)> {
        self.shard_hits
            .iter()
            .zip(&self.shard_misses)
            .map(|(h, m)| (h.get(), m.get()))
            .collect()
    }

    /// The label of `v`, viewed in place, if in range.
    #[must_use]
    pub fn label(&self, v: u32) -> Option<LabelRef<'_>> {
        (v < self.n).then(|| self.labeling.label(v))
    }

    /// Answers "is {u, v} an edge?" from labels alone. This is the lean
    /// path: no spans, no provenance — the server uses
    /// [`adjacent_traced`](Self::adjacent_traced) instead.
    pub fn adjacent(&self, u: u32, v: u32) -> Result<bool, StoreError> {
        self.adjacent_inner(u, v).map(|(edge, _)| edge)
    }

    /// Like [`adjacent`](Self::adjacent), but wraps the lookup in a
    /// `store.adjacent` trace span, emits cache hit/miss events, and
    /// reports how the query was answered (shard and cache provenance
    /// for the slow-query log).
    pub fn adjacent_traced(&self, u: u32, v: u32) -> Result<(bool, QueryPath), StoreError> {
        let _span = pl_obs::span!("store.adjacent", u, v);
        let out = self.adjacent_inner(u, v);
        if let Ok((_, QueryPath::FatFat { shard, hit })) = out {
            if hit {
                pl_obs::event!("store.cache_hit", u, shard);
            } else {
                pl_obs::event!("store.cache_miss", u, shard);
            }
        }
        out
    }

    fn adjacent_inner(&self, u: u32, v: u32) -> Result<(bool, QueryPath), StoreError> {
        let la = self.label(u).ok_or(StoreError::OutOfRange)?;
        let lb = self.label(v).ok_or(StoreError::OutOfRange)?;
        if self.tag != SchemeTag::Threshold {
            return Ok((decode_adjacent(self.tag, la, lb), QueryPath::Generic));
        }
        // Threshold fast path: peek at the preludes and fat flags; a
        // fat–fat pair is answered from the cached decoded bitmap.
        let (ida, fat_a) = peek_threshold(la).ok_or(StoreError::Malformed)?;
        let (idb, fat_b) = peek_threshold(lb).ok_or(StoreError::Malformed)?;
        if ida == idb {
            return Ok((false, QueryPath::ThinScan));
        }
        if fat_a && fat_b {
            if !self.partial {
                let (decoded, hit) = self.decoded_fat(u, la).ok_or(StoreError::Malformed)?;
                let shard = (u as usize % self.caches.len()) as u32;
                return Ok((decoded.test(idb), QueryPath::FatFat { shard, hit }));
            }
            // Partial store: either owned bitmap answers a fat–fat pair.
            for (w, lw, other_id) in [(u, la, idb), (v, lb, ida)] {
                if let Some((decoded, hit)) = self.decoded_fat(w, lw) {
                    let shard = (w as usize % self.caches.len()) as u32;
                    return Ok((decoded.test(other_id), QueryPath::FatFat { shard, hit }));
                }
            }
            return Err(StoreError::NotOwned);
        }
        if !self.partial {
            return Ok((ThresholdDecoder.adjacent(la, lb), QueryPath::ThinScan));
        }
        // Partial store: a thin endpoint whose list is present answers
        // one-sidedly (the other endpoint's stub carries the scheme id
        // the scan looks for).
        if !fat_a {
            if let Some(edge) = thin_contains(la, idb) {
                return Ok((edge, QueryPath::ThinScan));
            }
        }
        if !fat_b {
            if let Some(edge) = thin_contains(lb, ida) {
                return Ok((edge, QueryPath::ThinScan));
            }
        }
        Err(StoreError::NotOwned)
    }

    /// Answers "what is dist(u, v)?"; `Ok(None)` means beyond the
    /// scheme's bound (or disconnected).
    pub fn distance(&self, u: u32, v: u32) -> Result<Option<u32>, StoreError> {
        if !self.tag.supports_distance() {
            return Err(StoreError::Unsupported);
        }
        let la = self.label(u).ok_or(StoreError::OutOfRange)?;
        let lb = self.label(v).ok_or(StoreError::OutOfRange)?;
        Ok(decode_distance(self.tag, la, lb))
    }

    /// Answers a batch of adjacency pairs, grouping fat–fat cache
    /// lookups by shard so each touched shard lock is taken **once per
    /// batch** instead of once per query. Outcomes land in `out`
    /// (cleared first) in input order, each carrying its measured
    /// store-side latency.
    ///
    /// Semantics, per-shard hit/miss counter totals, and per-shard LRU
    /// state are identical to calling
    /// [`adjacent_traced`](Self::adjacent_traced) per query: within a
    /// shard, pending lookups resolve in input order. Partial stores
    /// and non-threshold schemes take the sequential path (their
    /// queries have no groupable lock traffic).
    pub fn adjacent_batch_traced(&self, pairs: &[(u32, u32)], out: &mut Vec<BatchOutcome>) {
        out.clear();
        if self.tag != SchemeTag::Threshold || self.partial {
            for &(u, v) in pairs {
                let t0 = Instant::now();
                let result = self.adjacent_traced(u, v);
                out.push(BatchOutcome {
                    result,
                    ns: t0.elapsed().as_nanos() as u64,
                });
            }
            return;
        }
        struct Pending {
            slot: usize,
            u: u32,
            v: u32,
            idb: u64,
            t0: Instant,
        }
        // Indexed by shard, so phase 2 walks shards in index order —
        // concurrent batches touching multiple shards lock them in the
        // same order.
        let mut by_shard: Vec<Vec<Pending>> = (0..self.caches.len()).map(|_| Vec::new()).collect();
        out.resize(
            pairs.len(),
            BatchOutcome {
                result: Err(StoreError::OutOfRange),
                ns: 0,
            },
        );
        // Phase 1: classify. Everything except a full-store fat–fat
        // pair settles immediately (mirroring `adjacent_inner`);
        // fat–fat pairs pend on their shard.
        for (slot, &(u, v)) in pairs.iter().enumerate() {
            let t0 = Instant::now();
            let settled: Option<Result<(bool, QueryPath), StoreError>> = 'classify: {
                let Some(la) = self.label(u) else {
                    break 'classify Some(Err(StoreError::OutOfRange));
                };
                let Some(lb) = self.label(v) else {
                    break 'classify Some(Err(StoreError::OutOfRange));
                };
                let Some((ida, fat_a)) = peek_threshold(la) else {
                    break 'classify Some(Err(StoreError::Malformed));
                };
                let Some((idb, fat_b)) = peek_threshold(lb) else {
                    break 'classify Some(Err(StoreError::Malformed));
                };
                if ida == idb {
                    break 'classify Some(Ok((false, QueryPath::ThinScan)));
                }
                if fat_a && fat_b {
                    by_shard[u as usize % self.caches.len()].push(Pending {
                        slot,
                        u,
                        v,
                        idb,
                        t0,
                    });
                    break 'classify None;
                }
                Some(Ok((ThresholdDecoder.adjacent(la, lb), QueryPath::ThinScan)))
            };
            if let Some(result) = settled {
                let ns = t0.elapsed().as_nanos() as u64;
                self.trace_batch_query(u, v, &result, ns);
                out[slot] = BatchOutcome { result, ns };
            }
        }
        // Phase 2: one lock acquisition per touched shard.
        for (shard_idx, pending) in by_shard.iter().enumerate() {
            if pending.is_empty() {
                continue;
            }
            let mut cache = self.caches[shard_idx]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // One clock read per shard group, not two per query: each
            // pending query is charged classification + queue + lock
            // wait (read at acquisition), which is the contended part
            // of its store-side latency. In-lock resolution time is
            // not attributed per query — at ~2 clock reads saved per
            // query, the amortized timestamp is a measurable slice of
            // the batch API's win.
            let t_lock = Instant::now();
            for p in pending {
                let (decoded, hit) = match cache.get(p.u) {
                    Some(d) => {
                        self.shard_hits[shard_idx].inc();
                        (Some(Arc::clone(d)), true)
                    }
                    None => {
                        self.shard_misses[shard_idx].inc();
                        let fresh = DecodedFat::from_label(self.labeling.label(p.u)).map(Arc::new);
                        if let Some(ref d) = fresh {
                            cache.insert(p.u, Arc::clone(d));
                        }
                        (fresh, false)
                    }
                };
                let result = match decoded {
                    Some(d) => Ok((
                        d.test(p.idb),
                        QueryPath::FatFat {
                            shard: shard_idx as u32,
                            hit,
                        },
                    )),
                    None => Err(StoreError::Malformed),
                };
                // Includes the lock wait — that *is* this query's
                // store-side latency under contention.
                let ns = t_lock.saturating_duration_since(p.t0).as_nanos() as u64;
                self.trace_batch_query(p.u, p.v, &result, ns);
                out[p.slot] = BatchOutcome { result, ns };
            }
        }
    }

    /// Trace parity with [`adjacent_traced`](Self::adjacent_traced) for
    /// batch-resolved queries: a completed `store.adjacent` span plus
    /// cache hit/miss events.
    fn trace_batch_query(
        &self,
        u: u32,
        v: u32,
        result: &Result<(bool, QueryPath), StoreError>,
        ns: u64,
    ) {
        if !pl_obs::tracing_enabled() {
            return;
        }
        let end = pl_obs::trace::now_ns();
        pl_obs::trace::record_complete(
            "store.adjacent",
            end.saturating_sub(ns),
            ns,
            u64::from(u),
            u64::from(v),
        );
        if let Ok((_, QueryPath::FatFat { shard, hit })) = result {
            if *hit {
                pl_obs::event!("store.cache_hit", u, *shard);
            } else {
                pl_obs::event!("store.cache_miss", u, *shard);
            }
        }
    }

    /// The decoded bitmap of fat vertex `u` (plus whether it was a cache
    /// hit), from cache or decoded now; `None` if the label turns out
    /// corrupt (fat flag set, body short).
    fn decoded_fat(&self, u: u32, label: LabelRef<'_>) -> Option<(Arc<DecodedFat>, bool)> {
        let shard_idx = u as usize % self.caches.len();
        // A poisoned shard (a connection thread panicked mid-insert) is
        // reported through `shard_health`, but the cache map itself is
        // never left torn — keep answering rather than cascading the
        // panic into every thread that touches this shard.
        let mut cache = self.caches[shard_idx]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(hit) = cache.get(u) {
            self.shard_hits[shard_idx].inc();
            return Some((Arc::clone(hit), true));
        }
        self.shard_misses[shard_idx].inc();
        let decoded = Arc::new(DecodedFat::from_label(label)?);
        cache.insert(u, Arc::clone(&decoded));
        Some((decoded, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pl_labeling::bits::BitWriter;
    use pl_labeling::scheme::AdjacencyScheme;
    use pl_labeling::{Label, Labeling, ThresholdScheme};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn store_for(g: &pl_graph::Graph, tau: usize, config: StoreConfig) -> LabelStore {
        LabelStore::new(
            TaggedLabeling {
                tag: SchemeTag::Threshold,
                labeling: ThresholdScheme::with_tau(tau).encode(g),
            },
            config,
        )
    }

    fn star_plus_cycle(n: u32) -> pl_graph::Graph {
        let spokes = (1..n).map(|i| (0, i));
        let cycle = (1..n).map(move |i| (i, if i + 1 == n { 1 } else { i + 1 }));
        pl_graph::builder::from_edges(n as usize, spokes.chain(cycle))
    }

    #[test]
    fn matches_graph_for_every_shard_count() {
        let g = star_plus_cycle(40);
        for shards in [1usize, 2, 3, 7, 40, 64] {
            let store = store_for(
                &g,
                3,
                StoreConfig {
                    shards,
                    cache_capacity: 16,
                },
            );
            assert_eq!(store.shard_count(), shards);
            for u in 0..40u32 {
                for v in 0..40u32 {
                    assert_eq!(
                        store.adjacent(u, v).unwrap(),
                        g.has_edge(u, v),
                        "({u}, {v}) with {shards} shards"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_execution_matches_sequential_exactly() {
        let g = star_plus_cycle(64);
        // Two stores with identical contents: one answers per query,
        // one per batch. Counters, LRU state, and answers must agree.
        let config = StoreConfig {
            shards: 4,
            cache_capacity: 8,
        };
        let seq = store_for(&g, 3, config);
        let batched = store_for(&g, 3, config);

        let mut rng = StdRng::seed_from_u64(0xBA7C);
        let pairs: Vec<(u32, u32)> = (0..300)
            .map(|_| (rng.gen_range(0..70), rng.gen_range(0..70)))
            .collect();
        let mut out = Vec::new();
        for chunk in pairs.chunks(32) {
            batched.adjacent_batch_traced(chunk, &mut out);
            assert_eq!(out.len(), chunk.len());
            for (&(u, v), outcome) in chunk.iter().zip(&out) {
                let want = seq.adjacent_traced(u, v);
                match (&outcome.result, &want) {
                    (Ok(got), Ok(expect)) => assert_eq!(got, expect, "({u}, {v})"),
                    (Err(got), Err(expect)) => assert_eq!(got, expect, "({u}, {v})"),
                    (got, expect) => panic!("({u}, {v}): {got:?} vs {expect:?}"),
                }
            }
        }
        assert_eq!(batched.cache_hits(), seq.cache_hits());
        assert_eq!(batched.cache_misses(), seq.cache_misses());
        assert_eq!(batched.shard_cache_counts(), seq.shard_cache_counts());
    }

    #[test]
    fn out_of_range_is_an_error() {
        let g = star_plus_cycle(10);
        let store = store_for(&g, 2, StoreConfig::default());
        assert_eq!(store.adjacent(0, 10), Err(StoreError::OutOfRange));
        assert_eq!(store.adjacent(10, 0), Err(StoreError::OutOfRange));
        assert_eq!(store.adjacent(u32::MAX, 0), Err(StoreError::OutOfRange));
        assert!(store.label(10).is_none());
    }

    #[test]
    fn distance_unsupported_on_adjacency_scheme() {
        let g = star_plus_cycle(10);
        let store = store_for(&g, 2, StoreConfig::default());
        assert_eq!(store.distance(0, 1), Err(StoreError::Unsupported));
    }

    #[test]
    fn fat_fat_queries_hit_the_cache() {
        // Star + cycle with tau=3: the hub (degree n-1) and every cycle
        // vertex (degree 3) are fat.
        let g = star_plus_cycle(30);
        let store = store_for(
            &g,
            3,
            StoreConfig {
                shards: 4,
                cache_capacity: 64,
            },
        );
        for v in 1..30u32 {
            assert!(store.adjacent(0, v).unwrap());
        }
        assert_eq!(store.cache_misses(), 1, "hub decoded once");
        assert_eq!(store.cache_hits(), 28, "then served from cache");
    }

    #[test]
    fn per_shard_counters_and_query_provenance() {
        let g = star_plus_cycle(30);
        let reg = MetricsRegistry::new();
        let store = LabelStore::with_registry(
            TaggedLabeling {
                tag: SchemeTag::Threshold,
                labeling: ThresholdScheme::with_tau(3).encode(&g),
            },
            StoreConfig {
                shards: 4,
                cache_capacity: 64,
            },
            &reg,
        );
        // Hub (vertex 0) vs cycle vertices: all fat–fat, shard 0 holds
        // the hub's decoded bitmap.
        let (edge, path) = store.adjacent_traced(0, 1).unwrap();
        assert!(edge);
        assert_eq!(
            path,
            QueryPath::FatFat {
                shard: 0,
                hit: false
            }
        );
        let (_, path) = store.adjacent_traced(0, 2).unwrap();
        assert_eq!(
            path,
            QueryPath::FatFat {
                shard: 0,
                hit: true
            }
        );
        let counts = store.shard_cache_counts();
        assert_eq!(counts.len(), 4);
        assert_eq!(counts[0], (1, 1), "hub lives in shard 0");
        assert_eq!(counts[1], (0, 0));
        assert_eq!(store.cache_hits(), 1);
        assert_eq!(store.cache_misses(), 1);
        // The same counters surface as a labeled Prometheus family.
        let text = pl_obs::prom::render(&reg);
        assert!(
            text.contains("plserve_cache_hits_total{shard=\"0\"} 1"),
            "{text}"
        );
        assert!(text.contains("plserve_cache_misses_total{shard=\"3\"} 0"));
        // Provenance packing round-trips the interesting bits.
        assert_eq!(QueryPath::Generic.as_u64(), 0);
        assert_eq!(QueryPath::ThinScan.as_u64(), 1);
        let p = QueryPath::FatFat {
            shard: 3,
            hit: true,
        };
        assert_eq!(p.as_u64() & 0xFF, 2);
        assert_eq!((p.as_u64() >> 8) & 1, 1);
        assert_eq!(p.as_u64() >> 32, 3);
    }

    #[test]
    fn zero_capacity_disables_caching_but_stays_correct() {
        let g = star_plus_cycle(20);
        let store = store_for(
            &g,
            3,
            StoreConfig {
                shards: 2,
                cache_capacity: 0,
            },
        );
        for v in 1..20u32 {
            assert!(store.adjacent(0, v).unwrap());
        }
        assert_eq!(store.cache_hits(), 0);
        assert!(store.cache_misses() > 0);
    }

    #[test]
    fn decoded_fat_covers_all_fat_vertices() {
        // Every vertex of star+cycle(25) has degree ≥ 3, so all 25 are fat.
        let g = star_plus_cycle(25);
        let labeling = ThresholdScheme::with_tau(3).encode(&g);
        let hub = DecodedFat::from_label(labeling.label(0)).expect("hub is fat");
        assert_eq!(hub.k(), 25);
        // The hub (scheme id 0, highest degree) is adjacent to every other
        // fat vertex and never to itself.
        assert!(!hub.test(0));
        for id in 1..25 {
            assert!(hub.test(id), "hub should see fat id {id}");
        }
        assert!(!hub.test(25), "out-of-range id is never adjacent");
    }

    #[test]
    fn thin_label_does_not_decode_as_fat() {
        let g = pl_graph::builder::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]);
        let labeling = ThresholdScheme::with_tau(2).encode(&g);
        // Vertex 1 has degree 1 < 2: thin.
        assert!(DecodedFat::from_label(labeling.label(1)).is_none());
    }

    /// A fat-looking label whose bitmap is cut short: prelude and fat
    /// flag parse, the gamma-coded `k` declares 50 bitmap bits, but only
    /// `carried` follow.
    fn truncated_fat_label(id: u64, carried: usize) -> Label {
        let mut w = BitWriter::new();
        w.write_bits(6, 6); // id width
        w.write_bits(id, 6);
        w.write_bit(true); // fat
        w.write_gamma(51); // k = 50
        for _ in 0..carried {
            w.write_bit(false);
        }
        w.into()
    }

    #[test]
    fn corrupt_fat_label_answers_malformed_not_panic() {
        let good = {
            let mut w = BitWriter::new();
            w.write_bits(6, 6);
            w.write_bits(1, 6);
            w.write_bit(true);
            w.write_gamma(51);
            for _ in 0..50 {
                w.write_bit(true);
            }
            Label::from(w)
        };
        let store = LabelStore::new(
            TaggedLabeling {
                tag: SchemeTag::Threshold,
                labeling: Labeling::new(vec![truncated_fat_label(0, 3), good]),
            },
            StoreConfig::default(),
        );
        assert_eq!(store.adjacent(0, 1), Err(StoreError::Malformed));
        // The healthy direction decodes vertex 1's bitmap instead.
        assert_eq!(store.adjacent(1, 0), Ok(true));
        // An empty label can't even carry a prelude.
        let store = LabelStore::new(
            TaggedLabeling {
                tag: SchemeTag::Threshold,
                labeling: Labeling::new(vec![Label::from(BitWriter::new()), good2()]),
            },
            StoreConfig::default(),
        );
        assert_eq!(store.adjacent(0, 1), Err(StoreError::Malformed));
    }

    fn good2() -> Label {
        let mut w = BitWriter::new();
        w.write_bits(6, 6);
        w.write_bits(1, 6);
        w.write_bit(false);
        w.write_gamma(1);
        w.into()
    }

    /// A prelude stub as written by `plab cluster split`: id width,
    /// scheme id, fat flag — and nothing after.
    fn stub(id: u64, fat: bool) -> Label {
        let mut w = BitWriter::new();
        w.write_bits(6, 6);
        w.write_bits(id, 6);
        w.write_bit(fat);
        w.into()
    }

    #[test]
    fn partial_store_answers_from_either_side_and_reports_not_owned() {
        // Scheme ids: 0 = fat hub, 1 = fat, 2 = thin with neighbour 0.
        let fat_hub = {
            let mut w = BitWriter::new();
            w.write_bits(6, 6);
            w.write_bits(0, 6);
            w.write_bit(true);
            w.write_gamma(3); // k = 2
            w.write_bit(false); // not adjacent to fat id 0 (itself)
            w.write_bit(true); // adjacent to fat id 1
            Label::from(w)
        };
        let thin2 = {
            let mut w = BitWriter::new();
            w.write_bits(6, 6);
            w.write_bits(2, 6);
            w.write_bit(false);
            w.write_gamma(2); // degree 1
            w.write_bits(0, 6); // neighbour scheme id 0
            Label::from(w)
        };
        // This partition owns vertex 0 only; 1 and 2 are stubs.
        let store = LabelStore::new(
            TaggedLabeling {
                tag: SchemeTag::Threshold,
                labeling: Labeling::new(vec![fat_hub, stub(1, true), thin2.clone()]),
            },
            StoreConfig::default(),
        )
        .with_partial(true);
        assert!(store.is_partial());
        // Fat–fat: vertex 0's owned bitmap answers both orientations.
        assert_eq!(store.adjacent(0, 1), Ok(true));
        assert_eq!(store.adjacent(1, 0), Ok(true));
        // Thin side stubbed, fat side owned: a thin–fat pair needs the
        // thin list, which lives elsewhere.
        let store2 = LabelStore::new(
            TaggedLabeling {
                tag: SchemeTag::Threshold,
                labeling: Labeling::new(vec![fat_hub_clone(), stub(1, true), stub(2, false)]),
            },
            StoreConfig::default(),
        )
        .with_partial(true);
        assert_eq!(store2.adjacent(0, 2), Err(StoreError::NotOwned));
        assert_eq!(store2.adjacent(2, 0), Err(StoreError::NotOwned));
        // ...but a partition owning the thin endpoint answers it.
        let store3 = LabelStore::new(
            TaggedLabeling {
                tag: SchemeTag::Threshold,
                labeling: Labeling::new(vec![stub(0, true), stub(1, true), thin2]),
            },
            StoreConfig::default(),
        )
        .with_partial(true);
        assert_eq!(store3.adjacent(0, 2), Ok(true));
        assert_eq!(store3.adjacent(2, 0), Ok(true));
        assert_eq!(store3.adjacent(2, 1), Ok(false));
        // Fat–fat with both bitmaps stubbed is unanswerable here.
        assert_eq!(store3.adjacent(0, 1), Err(StoreError::NotOwned));
        // Same scheme id short-circuits before ownership matters.
        assert_eq!(store3.adjacent(0, 0), Ok(false));
    }

    fn fat_hub_clone() -> Label {
        let mut w = BitWriter::new();
        w.write_bits(6, 6);
        w.write_bits(0, 6);
        w.write_bit(true);
        w.write_gamma(3);
        w.write_bit(false);
        w.write_bit(true);
        Label::from(w)
    }

    #[test]
    fn full_store_keeps_strict_malformed_semantics() {
        // The same stubbed labeling on a *full* store is corruption.
        let store = LabelStore::new(
            TaggedLabeling {
                tag: SchemeTag::Threshold,
                labeling: Labeling::new(vec![stub(0, true), stub(1, true)]),
            },
            StoreConfig::default(),
        );
        assert!(!store.is_partial());
        assert_eq!(store.adjacent(0, 1), Err(StoreError::Malformed));
    }

    #[test]
    fn random_graph_random_queries_with_small_cache() {
        let mut r = StdRng::seed_from_u64(77);
        let n = 200u32;
        let mut b = pl_graph::GraphBuilder::new(n as usize);
        for _ in 0..600 {
            let u = r.gen_range(0..n);
            let v = r.gen_range(0..n);
            if u != v {
                b.add_edge(u, v);
            }
        }
        let g = b.build();
        // Tiny cache forces evictions; answers must not change.
        let store = store_for(
            &g,
            4,
            StoreConfig {
                shards: 3,
                cache_capacity: 2,
            },
        );
        for _ in 0..5_000 {
            let u = r.gen_range(0..n);
            let v = r.gen_range(0..n);
            assert_eq!(store.adjacent(u, v).unwrap(), g.has_edge(u, v));
        }
    }
}
