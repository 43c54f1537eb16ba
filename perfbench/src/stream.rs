//! The seeded query stream and the check of answers against the graph.
//!
//! The stream is a pool of 64-query batches generated before any timer
//! starts; a run cycles through the pool for as long as it measures.
//! Answers are logged as two bitmasks per batch (which answers said
//! "adjacent", which were adjacency answers at all), so the timed loop
//! only sets bits and every answer is checked after the timer stops.

use pl_graph::degree::vertices_by_degree_desc;
use pl_graph::Graph;
use pl_wire::{Answer, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Queries per batch; one answer bit per query in a `u64` mask.
pub const BATCH: usize = 64;

/// Zipf exponent of the skewed workloads, over degree rank.
pub const ZIPF_S: f64 = 1.2;

/// A named traffic mix and the deployment that serves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One server, Zipf endpoints: the fat hubs are hot, so many pairs
    /// are fat–fat and answered from the decoded-bitmap cache.
    ServeZipf,
    /// One server, uniform endpoints: thin scans over the whole arena.
    ServeUniform,
    /// Three partial backends (R = 2) behind the router, Zipf endpoints.
    ClusterZipf,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Self::ServeZipf, Self::ServeUniform, Self::ClusterZipf];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::ServeZipf => "serve-zipf",
            Self::ServeUniform => "serve-uniform",
            Self::ClusterZipf => "cluster-zipf",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload is served through the cluster router.
    #[must_use]
    pub fn clustered(self) -> bool {
        self == Self::ClusterZipf
    }

    fn endpoints(self) -> Endpoints {
        match self {
            Self::ServeUniform => Endpoints::Uniform,
            Self::ServeZipf | Self::ClusterZipf => Endpoints::Zipf(ZIPF_S),
        }
    }
}

/// How query endpoints are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Endpoints {
    Uniform,
    /// Rank `r` (0 = highest degree) with probability ∝ `(r + 1)^{-s}`.
    Zipf(f64),
}

/// The workload's graph: Chung–Lu, α = 2.5, average degree 5.
#[must_use]
pub fn graph(n: usize, seed: u64) -> Graph {
    pl_gen::chung_lu_power_law(n, 2.5, 5.0, &mut StdRng::seed_from_u64(seed))
}

/// A pool of query batches, as vertex pairs and as wire queries.
#[derive(Debug, Clone)]
pub struct QueryStream {
    pairs: Vec<(u32, u32)>,
    queries: Vec<Query>,
}

impl QueryStream {
    /// Draws `batches` batches for `workload` over `g`; the same
    /// arguments always give the same stream.
    #[must_use]
    pub fn generate(g: &Graph, workload: Workload, seed: u64, batches: usize) -> Self {
        let n = u32::try_from(g.vertex_count()).expect("vertex ids are u32");
        assert!(n > 0, "empty graph");
        // Independent of the graph generator's stream for the same seed.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0F0E_51A7_C0DE);
        let mut draw: Box<dyn FnMut(&mut StdRng) -> u32> = match workload.endpoints() {
            Endpoints::Uniform => Box::new(move |rng| rng.gen_range(0..n)),
            Endpoints::Zipf(s) => {
                let hot = vertices_by_degree_desc(g);
                let mut cdf: Vec<f64> = (0..n).map(|r| (f64::from(r) + 1.0).powf(-s)).collect();
                let total: f64 = cdf.iter().sum();
                let mut acc = 0.0;
                for c in &mut cdf {
                    acc += *c / total;
                    *c = acc;
                }
                Box::new(move |rng| {
                    let x: f64 = rng.gen();
                    hot[cdf.partition_point(|&c| c < x).min(hot.len() - 1)]
                })
            }
        };
        let pairs: Vec<(u32, u32)> = (0..batches * BATCH)
            .map(|_| (draw(&mut rng), draw(&mut rng)))
            .collect();
        let queries = pairs.iter().map(|&(u, v)| Query::adjacent(u, v)).collect();
        Self { pairs, queries }
    }

    /// Number of batches in the pool.
    #[must_use]
    pub fn batches(&self) -> usize {
        self.pairs.len() / BATCH
    }

    /// Batch `i` of the pool, as pairs.
    #[must_use]
    pub fn pairs(&self, i: usize) -> &[(u32, u32)] {
        &self.pairs[i * BATCH..(i + 1) * BATCH]
    }

    /// Batch `i` of the pool, as wire queries.
    #[must_use]
    pub fn queries(&self, i: usize) -> &[Query] {
        &self.queries[i * BATCH..(i + 1) * BATCH]
    }

    /// The pool as little-endian `u, v` words, for determinism checks.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        self.pairs
            .iter()
            .flat_map(|&(u, v)| u.to_le_bytes().into_iter().chain(v.to_le_bytes()))
            .collect()
    }
}

/// One sent batch's answers, compressed to bitmasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answered {
    /// Pool index of the batch that was sent.
    pub batch: u32,
    /// Bit `i` set: query `i` was answered "adjacent".
    pub adjacent: u64,
    /// Bit `i` set: query `i` got an adjacency answer at all (not an
    /// error, refusal or missing reply).
    pub valid: u64,
}

impl Answered {
    /// Logs `answers` for pool batch `batch`.
    #[must_use]
    pub fn new(batch: usize, answers: &[Answer]) -> Self {
        let mut adjacent = 0;
        let mut valid = 0;
        for (i, a) in answers.iter().enumerate().take(BATCH) {
            match a {
                Answer::Adjacent => {
                    adjacent |= 1 << i;
                    valid |= 1 << i;
                }
                Answer::NotAdjacent => valid |= 1 << i,
                _ => {}
            }
        }
        Self {
            batch: batch as u32,
            adjacent,
            valid,
        }
    }

    /// A batch whose round trip failed: every query missing.
    #[must_use]
    pub fn missing(batch: usize) -> Self {
        Self {
            batch: batch as u32,
            adjacent: 0,
            valid: 0,
        }
    }
}

/// Graph truth for the pool, one "adjacent" bitmask per batch,
/// computed on first use.
pub struct Truth<'a> {
    g: &'a Graph,
    stream: &'a QueryStream,
    masks: Vec<Option<u64>>,
}

impl<'a> Truth<'a> {
    /// Truth for `stream` over `g`.
    #[must_use]
    pub fn new(g: &'a Graph, stream: &'a QueryStream) -> Self {
        Self {
            g,
            stream,
            masks: vec![None; stream.batches()],
        }
    }

    /// The "adjacent" mask of pool batch `i`.
    pub fn mask(&mut self, i: usize) -> u64 {
        let (g, stream) = (self.g, self.stream);
        *self.masks[i].get_or_insert_with(|| {
            stream
                .pairs(i)
                .iter()
                .enumerate()
                .filter(|&(_, &(u, v))| g.has_edge(u, v))
                .fold(0, |m, (bit, _)| m | 1 << bit)
        })
    }

    /// Queries in `log` answered correctly.
    pub fn count_correct(&mut self, log: &[Answered]) -> u64 {
        log.iter()
            .map(|a| {
                u64::from((a.valid & !(a.adjacent ^ self.mask(a.batch as usize))).count_ones())
            })
            .sum()
    }
}
