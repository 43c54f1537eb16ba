//! pl-cluster: distributed label serving.
//!
//! The labels of Theorems 3/4 are tiny and self-contained — adjacency is
//! answered from two labels alone, no graph in sight — which makes a
//! labeling a natural unit to partition and replicate. This crate turns
//! one `.plab` file into a serving *cluster*:
//!
//! * [`partition`] — a deterministic rendezvous (HRW) vertex
//!   partitioner over a seeded universal hash family: every vertex
//!   ranks all backends by a seeded score and is *owned* by the top `R`
//!   (the replication factor). No directory service, no state — any
//!   party with the seed computes the same assignment. Since the
//!   reconfiguration work it lives in [`pl_serve::partition`] (backends
//!   validate pushed maps themselves) and is re-exported here.
//! * [`map`] — the serializable [`ClusterMap`]: epoch-numbered,
//!   FNV-checksummed description of the partitioning plus the
//!   backend-address list, small enough to hand to every router and to
//!   push to every backend over `MAP_SET`.
//!   Likewise re-exported from [`pl_serve::map`].
//! * [`reconfig`] — the live-rebalance coordinator: takes the cluster
//!   from epoch `E` to `E+1` without dropping a query by preparing the
//!   new map everywhere, streaming re-owned labels into the gaining
//!   backends while the router dual-routes against both maps, then
//!   committing backends-first and shrinking the losers (see
//!   RELIABILITY.md §Reconfiguration).
//! * [`split`] — cuts a threshold labeling into per-partition PLL2
//!   sub-stores: owned vertices keep their full, bit-identical label;
//!   every other vertex shrinks to a *prelude stub* (id width + scheme
//!   id + fat flag). Stubs are what make one-sided decoding work: a
//!   thin owned label scans its own neighbour list for the stub's
//!   scheme id, and a fat owned bitmap is tested against it.
//! * [`router`] — a scatter-gather engine behind the *shared*
//!   [`pl_wire::frontend`] transport: clients connect to it exactly as
//!   to a single backend, and the router inherits shedding, idle/stall
//!   deadlines, drain-on-shutdown, and fault injection from the same
//!   hardened front-end `pl_serve` uses. Downward it speaks the same
//!   protocol through [`pl_serve`]'s resilient client, fanning each
//!   `BATCH` out per-partition and re-asking per-query failures
//!   (`NOT_OWNED`, overload, dead backend) along the HRW candidate
//!   list `owners(u) ∪ owners(v)`, with quarantine and seeded-backoff
//!   re-probing for unhealthy backends.
//! * [`launch`] — a local process group: split, spawn one `plab serve
//!   --partial` child per backend, start the router in-process, drain
//!   and kill on shutdown. This is what `plab cluster launch` runs and
//!   what CI chaos-tests by SIGKILLing a backend mid-load.
//! * [`trace_merge`] — cluster-wide trace assembly: per-origin tagging
//!   and the causal (parent-before-child) merge of router + backend
//!   trace rings behind the router's `TRACE_DUMP` and
//!   `plab trace --cluster` / `--explain` (the wire's `TRACE_CTX`).
//!
//! With `R ≥ 2` the candidate list survives any single backend death:
//! the killed backend owned at most one of each endpoint's replica
//! slots, so a live owner of `u` and a live owner of `v` both remain —
//! and between them every fat/thin case of the threshold decoder is
//! answerable (see `pl_serve::store`'s partial-store docs).

pub mod launch;
pub mod reconfig;
pub mod router;
pub mod split;
pub mod trace_merge;

// The map and partitioner moved down into pl-serve so backends can
// validate pushed maps and compute ownership during reconfiguration;
// the historical pl_cluster paths keep working through these shims.
pub use pl_serve::{map, partition};

pub use launch::{launch, ClusterHandle, LaunchOptions};
pub use map::{ClusterMap, MapError};
pub use partition::Partitioner;
pub use reconfig::{rebalance, RebalanceAction, RebalanceOptions, ReconfigError, ReconfigReport};
pub use router::{route, route_with, RouterConfig, RouterEngine, RouterHandle};
pub use split::{split_all, split_one, stub_all, SplitError, SplitReport};
pub use trace_merge::{explain as explain_trace, merge as merge_traces, tag_origin};
