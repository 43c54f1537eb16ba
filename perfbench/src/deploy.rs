//! Set-up: encode the graph, round-trip the `.plab` bytes, build the
//! stores, bind the server (or the backends and the router), connect,
//! and get the first batch answered. Each step is timed, and `setup_s`
//! is the whole span; graph generation and warm-up lie outside it.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use pl_cluster::{route, split_all, ClusterMap, Partitioner, RouterConfig, RouterHandle};
use pl_graph::Graph;
use pl_labeling::PowerLawScheme;
use pl_serve::{
    serve_with, Client, LabelStore, SchemeTag, ServeOptions, ServerHandle, StoreConfig,
    TaggedLabeling,
};
use pl_wire::{Answer, Query};

use crate::stream::Workload;

/// Backends of the cluster workload.
pub const BACKENDS: usize = 3;
/// Replication factor of the cluster workload.
pub const REPLICAS: usize = 2;
/// Seed of the cluster's HRW partitioner.
pub const PARTITION_SEED: u64 = 0xC1;

/// The power-law exponent the scheme is built for.
pub const ALPHA: f64 = 2.5;

/// How long each set-up step took.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Threshold encoding.
    pub encode_s: f64,
    /// `TaggedLabeling::to_bytes` then `from_bytes`.
    pub load_s: f64,
    /// `LabelStore` construction (every backend's, on the cluster).
    pub build_s: f64,
    /// `split_all` (cluster only, else 0).
    pub split_s: f64,
    /// Binding the server, or the backends and the router.
    pub bind_s: f64,
    /// `Client::connect`, including the HELLO.
    pub connect_ms: f64,
    /// First batch round trip (on the cluster, the router's lazy
    /// backend dials happen here).
    pub first_batch_ms: f64,
    /// Start of encoding to the first answered batch.
    pub setup_s: f64,
    /// When set-up started and ended.
    pub window: (Instant, Instant),
}

/// A running deployment and the client connected to it.
pub struct Deployment {
    /// The one client connection the run drives.
    pub client: Client,
    /// The `.plab` bytes the stores were loaded from.
    pub plab: Vec<u8>,
    server: Option<ServerHandle>,
    backends: Vec<ServerHandle>,
    router: Option<RouterHandle>,
}

impl Deployment {
    /// The router, on the cluster workload.
    #[must_use]
    pub fn router(&self) -> Option<&RouterHandle> {
        self.router.as_ref()
    }

    /// Says goodbye and stops the router, the backends and the server,
    /// joining their threads.
    pub fn shutdown(self) {
        // A failed GOODBYE only means the peer already hung up.
        let _ = self.client.goodbye();
        if let Some(r) = self.router {
            r.shutdown();
        }
        for b in self.backends {
            b.shutdown();
        }
        if let Some(s) = self.server {
            s.shutdown();
        }
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Deploys `workload` over `g` and sends `first` as the first batch.
///
/// # Errors
///
/// Fails when a socket cannot be bound or connected, or the first batch
/// gets no reply.
pub fn deploy(
    workload: Workload,
    g: &Graph,
    first: &[Query],
) -> io::Result<(Deployment, SetupTimes, Vec<Answer>)> {
    let start = Instant::now();
    let (labeling, _) = PowerLawScheme::new(ALPHA).encode_with_stats(g);
    let encoded = Instant::now();
    let plab = TaggedLabeling {
        tag: SchemeTag::Threshold,
        labeling,
    }
    .to_bytes();
    let tagged = TaggedLabeling::from_bytes(&plab).map_err(|e| invalid(e.to_string()))?;
    let loaded = Instant::now();

    let mut split_s = 0.0;
    let (server, backends, router, built, addr);
    if workload.clustered() {
        let n = u32::try_from(tagged.labeling.len()).expect("vertex ids are u32");
        let part = Partitioner::new(PARTITION_SEED, BACKENDS, REPLICAS);
        let (parts, _) = split_all(&tagged, &part).map_err(|e| invalid(e.to_string()))?;
        drop(tagged);
        split_s = loaded.elapsed().as_secs_f64();
        let stores: Vec<_> = parts
            .into_iter()
            .map(|p| Arc::new(LabelStore::new(p, StoreConfig::default()).with_partial(true)))
            .collect();
        built = Instant::now();
        backends = stores
            .into_iter()
            .map(|s| serve_with(s, "127.0.0.1:0", ServeOptions::default()))
            .collect::<io::Result<Vec<_>>>()?;
        let map = ClusterMap {
            epoch: 1,
            seed: PARTITION_SEED,
            replicas: REPLICAS as u32,
            n,
            tag: SchemeTag::Threshold.as_u8(),
            backends: backends.iter().map(|b| b.addr().to_string()).collect(),
        };
        let r = route(map, "127.0.0.1:0", RouterConfig::default())?;
        addr = r.addr();
        router = Some(r);
        server = None;
    } else {
        let store = Arc::new(LabelStore::new(tagged, StoreConfig::default()));
        built = Instant::now();
        let s = serve_with(store, "127.0.0.1:0", ServeOptions::default())?;
        addr = s.addr();
        server = Some(s);
        backends = Vec::new();
        router = None;
    }
    let bound = Instant::now();
    let mut client = Client::connect(addr)?;
    let connected = Instant::now();
    let answers = client.batch(first)?;
    let end = Instant::now();

    let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
    let times = SetupTimes {
        encode_s: secs(start, encoded),
        load_s: secs(encoded, loaded),
        build_s: secs(loaded, built) - split_s,
        split_s,
        bind_s: secs(built, bound),
        connect_ms: secs(bound, connected) * 1e3,
        first_batch_ms: secs(connected, end) * 1e3,
        setup_s: secs(start, end),
        window: (start, end),
    };
    let deployment = Deployment {
        client,
        plab,
        server,
        backends,
        router,
    };
    Ok((deployment, times, answers))
}
