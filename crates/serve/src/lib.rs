//! pl-serve: a sharded, concurrent label-serving engine.
//!
//! The paper's decoders answer adjacency from two labels alone — no
//! graph needed — which makes a labeling a natural unit to *serve*: load
//! the `.plab` file once, keep the labels in memory, and answer queries
//! over the network. This crate is that serving layer:
//!
//! * [`store`] — the labeling partitioned across shards behind `Arc`s;
//!   immutable labels mean lock-free reads, and each shard keeps a small
//!   LRU of decoded fat-label bitmaps (the hubs — exactly the vertices a
//!   power-law workload hammers).
//! * [`server`] — the shared hardened [`pl_wire::frontend`] TCP
//!   front-end (thread-per-connection, shedding, deadlines, graceful
//!   drain) over a [`server::StoreEngine`] answering batches
//!   shard-grouped. Its [`pl_wire::stats`] counters live in a
//!   per-server [`pl_obs::MetricsRegistry`], snapshotted on demand
//!   (`STATS`) and at shutdown, and renderable as Prometheus text via
//!   [`ServerHandle::prometheus_text`].
//! * [`client`] — blocking client plus a multi-connection load
//!   generator with uniform and Zipf-skewed query mixes, and
//!   [`ResilientClient`]: deadlines, bounded backoff with jitter, and
//!   reconnect-and-replay over the [`ClientError`] retryable/fatal
//!   taxonomy.
//! * [`map`] / [`partition`] — the epoch-numbered, FNV-checksummed
//!   [`ClusterMap`] and the deterministic HRW [`Partitioner`]. They
//!   live here rather than in `pl-cluster` for live
//!   reconfiguration: a backend receiving a `MAP_SET` push validates
//!   the map and computes its own ownership locally
//!   (`pl_cluster::{map, partition}` re-export them unchanged).
//!
//! The wire protocol, its stats payload and the fault-injection harness
//! live in [`pl_wire`]; the scheme tag and tagged container in
//! [`pl_labeling::codec`]. The crate root re-exports the names a
//! serving caller needs ([`Query`], [`Answer`], [`Snapshot`],
//! [`FaultPlan`], [`SchemeTag`], [`TaggedLabeling`], ...) from there.
//!
//! Everything is std-only: no async runtime, no serialization crates.

pub mod cache;
pub mod client;
pub mod map;
pub mod partition;
pub mod server;
pub mod store;

pub use client::loadgen::{LoadReport, LoadgenConfig, Skew};
pub use client::{Client, ClientError, ResilientClient, RetryKind, RetryPolicy};
pub use map::{ClusterMap, MapError};
pub use partition::Partitioner;
pub use pl_labeling::codec::{SchemeTag, TaggedLabeling};
pub use pl_wire::fault::{FaultKind, FaultPlan};
pub use pl_wire::protocol::{Answer, HealthReport, Query, QueryKind};
pub use pl_wire::stats::Snapshot;
pub use server::{serve, serve_with, ServeOptions, ServerHandle, StoreEngine};
pub use store::{BatchOutcome, LabelStore, QueryPath, StoreConfig, StoreError};
