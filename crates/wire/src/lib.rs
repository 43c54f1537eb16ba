//! # pl-wire: the shared transport layer
//!
//! Everything two processes in this system say to each other over TCP
//! lives here, in one place, serving both the single-node label server
//! (`pl-serve`) and the cluster scatter-gather router (`pl-cluster`):
//!
//! - [`protocol`] — the length-prefixed binary frame codec: opcodes,
//!   the single-version HELLO check, FNV-1a reply checksums, the
//!   BATCH/STATS/HEALTH/MAP/LABELS layouts, and the incremental
//!   [`FrameBuffer`](protocol::FrameBuffer) reassembler.
//! - [`stats`] — the wire-visible [`Metrics`]/[`Snapshot`] pair: the
//!   instruments the front-end maintains and the STATS payload they
//!   serialize into.
//! - [`fault`] — the deterministic fault-injection harness
//!   ([`FaultPlan`](fault::FaultPlan)/[`FaultInjector`](fault::FaultInjector))
//!   for chaos testing either front-end.
//! - [`frontend`] — the generic hardened TCP front-end: accept loop,
//!   per-connection lifecycle, shedding, idle/stall deadlines,
//!   drain-on-shutdown, and per-connection scratch-buffer reuse, all
//!   parameterized over the [`QueryEngine`] trait.
//!
//! Layering (see DESIGN.md):
//!
//! ```text
//!         pl-wire (frames + front-end)
//!              │ QueryEngine
//!      ┌───────┴────────┐
//!   pl-serve         pl-cluster
//!  (LabelStore)       (Router)
//! ```

pub mod bytes;
pub mod fault;
pub mod frontend;
pub mod protocol;
pub mod stats;
pub mod sync;

pub use frontend::{bind, FrontStats, FrontendHandle, FrontendOptions, QueryEngine};
pub use protocol::{Answer, HealthReport, ProtocolError, Query, QueryKind};
pub use stats::{Metrics, Snapshot};
