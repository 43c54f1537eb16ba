//! The live-rebalance coordinator: epoch `E` → `E+1` without dropping
//! a query.
//!
//! The rollout is a prepare/commit protocol over the `MAP_SET` and
//! `LABELS` opcodes (see RELIABILITY.md §Reconfiguration):
//!
//! 1. **Prepare backends.** Every backend of the *new* map gets the
//!    epoch-bumped map (`MAP_SET PREPARE`). Backends validate it
//!    (checksum, `n`, tag, their own index) and stage it; queries are
//!    untouched.
//! 2. **Prepare the router.** The router stages the new map and opens
//!    the *dual-routing window*: every query now tries the new map's
//!    owners first and falls back to the old owners on `NOT_OWNED`. A
//!    vertex whose labels are still in flight keeps answering from its
//!    old owner; one already migrated answers from its new owner.
//! 3. **Stream labels.** Each vertex whose ownership *moves* (a new
//!    owner address that was not an old owner of it) has its full label
//!    streamed to the gaining backend in `LABELS` chunks. The backend
//!    re-decodes every label and re-encodes it byte-identically before
//!    buffering — a frame that fails verification rejects wholesale.
//! 4. **Commit backends, then router.** Gaining backends commit first
//!    (an extra full label can only make a backend answer *more*, never
//!    wrongly), the router commits last (closing the window and
//!    retiring the old map), and only then do losing backends
//!    **shrink** their no-longer-owned labels down to prelude stubs.
//!
//! Any failure in steps 1–3 rolls the whole cluster back: `ABORT` to
//! the router (closing the window, `plcluster_reconfig_rollbacks_total`
//! increments) and to every prepared backend (dropping staged state).
//! The cluster is left exactly at epoch `E`; the push never observably
//! happened.

use std::collections::HashMap;

use pl_serve::{Client, ClusterMap, MapError, TaggedLabeling};
use pl_wire::protocol::{LabelsStatus, MapSetMode, MapSetStatus, MAP_TARGET_ROUTER};

/// What the rebalance should do to the current map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RebalanceAction {
    /// Append one backend address (scale out).
    Add(String),
    /// Remove the backend at this index of the *current* map (scale
    /// in). The remaining backends must still cover the replication
    /// factor.
    Remove(u32),
    /// Install an explicit next map (same `n`, same tag; the epoch is
    /// bumped past the current one if the file's is not already).
    Map(ClusterMap),
}

/// Coordinator tuning.
#[derive(Debug, Clone)]
pub struct RebalanceOptions {
    /// Soft cap on one `LABELS` frame's payload bytes (the hard cap is
    /// the wire's `MAX_FRAME`).
    pub chunk_bytes: usize,
}

impl Default for RebalanceOptions {
    fn default() -> Self {
        Self {
            chunk_bytes: 256 * 1024,
        }
    }
}

/// What a committed rebalance did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconfigReport {
    /// The epoch the cluster was at.
    pub old_epoch: u64,
    /// The committed epoch.
    pub new_epoch: u64,
    /// Vertex-replica moves: `(backend, vertex)` pairs whose full label
    /// was streamed to a gaining backend.
    pub moved: u64,
    /// Per gaining backend: `(address, vertices streamed)`.
    pub gained: Vec<(String, u64)>,
    /// Backends that shrank no-longer-owned labels to stubs.
    pub shrunk: Vec<String>,
}

/// Why a rebalance did not commit. `Refused` and `Io` during the
/// prepare/stream phases mean the rollout was *rolled back* — the
/// cluster is still at the old epoch.
#[derive(Debug)]
pub enum ReconfigError {
    /// Transport failure talking to the router or a backend.
    Io(std::io::Error),
    /// The router's current map did not parse.
    Map(MapError),
    /// The requested action is unsatisfiable (index out of range,
    /// replica floor violated, map mismatch).
    Invalid(String),
    /// A participant refused a prepare, push, or commit.
    Refused(String),
}

impl From<std::io::Error> for ReconfigError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl std::fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "reconfiguration transport error: {e}"),
            Self::Map(e) => write!(f, "router cluster map unreadable: {e}"),
            Self::Invalid(why) => write!(f, "invalid rebalance: {why}"),
            Self::Refused(why) => write!(f, "rebalance refused: {why}"),
        }
    }
}

impl std::error::Error for ReconfigError {}

/// Derives the next-epoch map from the current one and the action.
fn next_map(old: &ClusterMap, action: RebalanceAction) -> Result<ClusterMap, ReconfigError> {
    match action {
        RebalanceAction::Add(addr) => {
            if old.backends.contains(&addr) {
                return Err(ReconfigError::Invalid(format!(
                    "backend {addr} is already in the map"
                )));
            }
            let mut map = old.clone();
            map.epoch += 1;
            map.backends.push(addr);
            Ok(map)
        }
        RebalanceAction::Remove(i) => {
            if i as usize >= old.backends.len() {
                return Err(ReconfigError::Invalid(format!(
                    "backend index {i} out of range (map has {})",
                    old.backends.len()
                )));
            }
            if old.backends.len() - 1 < old.replicas as usize {
                return Err(ReconfigError::Invalid(format!(
                    "removing a backend would leave {} backends for {} replicas",
                    old.backends.len() - 1,
                    old.replicas
                )));
            }
            let mut map = old.clone();
            map.epoch += 1;
            map.backends.remove(i as usize);
            Ok(map)
        }
        RebalanceAction::Map(mut map) => {
            if map.n != old.n || map.tag != old.tag {
                return Err(ReconfigError::Invalid(format!(
                    "next map disagrees with the cluster: n {} vs {}, tag {} vs {}",
                    map.n, old.n, map.tag, old.tag
                )));
            }
            if map.backends.is_empty() || map.backends.len() < map.replicas as usize {
                return Err(ReconfigError::Invalid(format!(
                    "{} backends cannot carry {} replicas",
                    map.backends.len(),
                    map.replicas
                )));
            }
            if map.epoch <= old.epoch {
                map.epoch = old.epoch + 1;
            }
            Ok(map)
        }
    }
}

/// Address-based ownership diff between two maps: for each backend of
/// `new`, the vertices it owns there that its *address* did not own
/// under `old` (`gained`), and whether it holds any vertex it no longer
/// owns (`lost`, the shrink set).
fn ownership_diff(old: &ClusterMap, new: &ClusterMap) -> (Vec<Vec<u32>>, Vec<bool>) {
    let old_part = old.partitioner();
    let new_part = new.partitioner();
    // Address → new-map index, for the lost side of the diff.
    let new_index: HashMap<&str, usize> = new
        .backends
        .iter()
        .enumerate()
        .map(|(i, a)| (a.as_str(), i))
        .collect();
    let mut gained: Vec<Vec<u32>> = vec![Vec::new(); new.backends.len()];
    let mut lost = vec![false; new.backends.len()];
    for v in 0..new.n {
        let old_owners: Vec<&str> = old_part
            .owners(v)
            .into_iter()
            .map(|b| old.backends[b as usize].as_str())
            .collect();
        let new_owners = new_part.owners(v);
        for &b in &new_owners {
            if !old_owners.contains(&new.backends[b as usize].as_str()) {
                gained[b as usize].push(v);
            }
        }
        for addr in old_owners {
            if let Some(&i) = new_index.get(addr) {
                if !new_owners.contains(&(i as u32)) {
                    lost[i] = true;
                }
            }
        }
    }
    (gained, lost)
}

/// Best-effort rollback: `ABORT` every prepared backend and the router.
fn abort_all(router: &mut Client, backends: &mut [Client], map_bytes: &[u8]) {
    for client in backends.iter_mut() {
        let _ = client.map_set(MapSetMode::Abort, 0, 0, map_bytes);
    }
    let _ = router.map_set(MapSetMode::Abort, MAP_TARGET_ROUTER, 0, map_bytes);
}

/// One verified `LABELS` chunk to one gaining backend.
fn push_chunk(
    client: &mut Client,
    addr: &str,
    epoch: u64,
    chunk: &[(u32, Vec<u8>)],
) -> Result<(), ReconfigError> {
    let refs: Vec<(u32, &[u8])> = chunk.iter().map(|(v, b)| (*v, b.as_slice())).collect();
    let (status, _received) = client.push_labels(epoch, &refs)?;
    if status != LabelsStatus::Ok {
        return Err(ReconfigError::Refused(format!(
            "backend {addr} rejected a label chunk: {status:?}"
        )));
    }
    Ok(())
}

/// The rollback-covered phases: prepare every backend, prepare the
/// router (opening the dual window), stream every moved label. Leaves
/// the prepared backend connections in `backends` (new-map order) for
/// the commit phase — and for [`abort_all`] if this returns `Err`.
fn run_rollout(
    tagged: &TaggedLabeling,
    router: &mut Client,
    backends: &mut Vec<Client>,
    new_map: &ClusterMap,
    map_bytes: &[u8],
    gained: &[Vec<u32>],
    options: &RebalanceOptions,
) -> Result<(), ReconfigError> {
    for (i, addr) in new_map.backends.iter().enumerate() {
        let mut client = Client::connect(addr)?;
        let (status, epoch) = client.map_set(MapSetMode::Prepare, i as u32, 0, map_bytes)?;
        if status != MapSetStatus::Prepared {
            return Err(ReconfigError::Refused(format!(
                "backend {addr} refused prepare for epoch {}: {status:?} (at epoch {epoch})",
                new_map.epoch
            )));
        }
        backends.push(client);
    }
    let (status, epoch) = router.map_set(MapSetMode::Prepare, MAP_TARGET_ROUTER, 0, map_bytes)?;
    if status != MapSetStatus::Prepared {
        return Err(ReconfigError::Refused(format!(
            "router refused prepare for epoch {}: {status:?} (at epoch {epoch})",
            new_map.epoch
        )));
    }
    for (i, verts) in gained.iter().enumerate() {
        if verts.is_empty() {
            continue;
        }
        let addr = &new_map.backends[i];
        let mut chunk: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut chunk_bytes = 0usize;
        for &v in verts {
            let bytes = tagged.labeling.label(v).to_label().to_bytes();
            let cost = bytes.len() + 8;
            if !chunk.is_empty()
                && (chunk_bytes + cost > options.chunk_bytes || chunk.len() == u16::MAX as usize)
            {
                push_chunk(&mut backends[i], addr, new_map.epoch, &chunk)?;
                chunk.clear();
                chunk_bytes = 0;
            }
            chunk_bytes += cost;
            chunk.push((v, bytes));
        }
        if !chunk.is_empty() {
            push_chunk(&mut backends[i], addr, new_map.epoch, &chunk)?;
        }
    }
    Ok(())
}

/// Rebalances the cluster behind `router_addr` from its current map to
/// the `action`-derived next map, streaming moved labels from `tagged`
/// (the *full* labeling the cluster serves). On `Ok` the cluster is
/// committed at the new epoch; on `Err` during prepare/streaming it was
/// rolled back to the old one.
pub fn rebalance(
    tagged: &TaggedLabeling,
    router_addr: &str,
    action: RebalanceAction,
    options: &RebalanceOptions,
) -> Result<ReconfigReport, ReconfigError> {
    let mut router = Client::connect(router_addr)?;
    let old_bytes = router
        .map_get()?
        .ok_or_else(|| ReconfigError::Invalid("router serves no cluster map".into()))?;
    let old_map = ClusterMap::from_bytes(&old_bytes).map_err(ReconfigError::Map)?;
    let new_map = next_map(&old_map, action)?;
    if new_map.n as usize != tagged.labeling.len() {
        return Err(ReconfigError::Invalid(format!(
            "labeling has {} vertices but the cluster serves {}",
            tagged.labeling.len(),
            new_map.n
        )));
    }
    if new_map.tag != tagged.tag.as_u8() {
        return Err(ReconfigError::Invalid(format!(
            "labeling tag {} but the cluster serves tag {}",
            tagged.tag.as_u8(),
            new_map.tag
        )));
    }

    let (gained, lost) = ownership_diff(&old_map, &new_map);
    let moved: u64 = gained.iter().map(|g| g.len() as u64).sum();
    let map_bytes = new_map.to_bytes();

    let mut backends: Vec<Client> = Vec::with_capacity(new_map.backends.len());
    if let Err(e) = run_rollout(
        tagged,
        &mut router,
        &mut backends,
        &new_map,
        &map_bytes,
        &gained,
        options,
    ) {
        abort_all(&mut router, &mut backends, &map_bytes);
        return Err(e);
    }

    // Commit: gaining backends first (their extra labels only ever add
    // answers), every other backend next, the router last — the moment
    // it flips, every new owner already holds its labels. A failure
    // from here on is reported, not rolled back: committed backends
    // merely hold supersets of what they need, which is always safe.
    let mut order: Vec<usize> = (0..backends.len()).collect();
    order.sort_by_key(|&i| gained[i].is_empty());
    for i in order {
        let addr = &new_map.backends[i];
        let (status, epoch) = backends[i].map_set(MapSetMode::Commit, i as u32, 0, &map_bytes)?;
        if status != MapSetStatus::Committed {
            return Err(ReconfigError::Refused(format!(
                "backend {addr} refused commit for epoch {}: {status:?} (at epoch {epoch})",
                new_map.epoch
            )));
        }
    }
    let (status, epoch) =
        router.map_set(MapSetMode::Commit, MAP_TARGET_ROUTER, moved, &map_bytes)?;
    if status != MapSetStatus::Committed {
        return Err(ReconfigError::Refused(format!(
            "router refused commit for epoch {}: {status:?} (at epoch {epoch})",
            new_map.epoch
        )));
    }

    // Shrink the losers. Failures here cost only memory on that
    // backend (it answers from labels it no longer owns — correctly),
    // so they drop the backend from the report instead of failing the
    // committed rebalance.
    let mut shrunk = Vec::new();
    for (i, addr) in new_map.backends.iter().enumerate() {
        if !lost[i] {
            continue;
        }
        if let Ok((MapSetStatus::Shrunk, _)) =
            backends[i].map_set(MapSetMode::Shrink, i as u32, 0, &map_bytes)
        {
            shrunk.push(addr.clone());
        }
    }

    Ok(ReconfigReport {
        old_epoch: old_map.epoch,
        new_epoch: new_map.epoch,
        moved,
        gained: new_map
            .backends
            .iter()
            .zip(&gained)
            .filter(|(_, g)| !g.is_empty())
            .map(|(a, g)| (a.clone(), g.len() as u64))
            .collect(),
        shrunk,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(epoch: u64, backends: &[&str]) -> ClusterMap {
        ClusterMap {
            epoch,
            seed: 7,
            replicas: 2,
            n: 100,
            tag: 2,
            backends: backends.iter().map(|s| (*s).to_string()).collect(),
        }
    }

    #[test]
    fn next_map_actions() {
        let old = map(3, &["a:1", "b:2", "c:3"]);
        let added = next_map(&old, RebalanceAction::Add("d:4".into())).expect("add");
        assert_eq!(added.epoch, 4);
        assert_eq!(added.backends.len(), 4);
        assert!(matches!(
            next_map(&old, RebalanceAction::Add("a:1".into())),
            Err(ReconfigError::Invalid(_))
        ));
        let removed = next_map(&old, RebalanceAction::Remove(1)).expect("remove");
        assert_eq!(removed.backends, vec!["a:1", "c:3"]);
        assert!(matches!(
            next_map(&removed, RebalanceAction::Remove(0)),
            Err(ReconfigError::Invalid(_)) // would drop below the replica floor
        ));
        assert!(matches!(
            next_map(&old, RebalanceAction::Remove(9)),
            Err(ReconfigError::Invalid(_))
        ));
        // An explicit map with a lagging epoch gets bumped past the
        // current one; a mismatched one is refused.
        let explicit = next_map(&old, RebalanceAction::Map(map(1, &["a:1", "b:2"]))).expect("map");
        assert_eq!(explicit.epoch, 4);
        let mut wrong_n = map(9, &["a:1", "b:2"]);
        wrong_n.n = 5;
        assert!(matches!(
            next_map(&old, RebalanceAction::Map(wrong_n)),
            Err(ReconfigError::Invalid(_))
        ));
    }

    #[test]
    fn ownership_diff_add_and_remove() {
        let old = map(1, &["a:1", "b:2", "c:3"]);
        // Scale out: only the new backend gains, and it gains exactly
        // the vertices it owns under the new map.
        let new = next_map(&old, RebalanceAction::Add("d:4".into())).expect("add");
        let (gained, lost) = ownership_diff(&old, &new);
        let new_part = new.partitioner();
        assert_eq!(gained[3].len(), {
            (0..new.n).filter(|&v| new_part.owns(3, v)).count()
        });
        for (b, g) in gained.iter().enumerate().take(3) {
            assert!(g.is_empty(), "surviving backend {b} gained {g:?}");
        }
        // Every vertex the joiner gained displaced one old owner, so
        // some survivor must shrink — but the joiner (which owned
        // nothing before) never does.
        assert!(!gained[3].is_empty());
        assert!(lost[..3].iter().any(|&l| l), "no survivor lost anything");
        assert!(!lost[3]);

        // Scale in: survivors gain the removed backend's share.
        let shrunk = next_map(&old, RebalanceAction::Remove(2)).expect("remove");
        let (gained, _) = ownership_diff(&old, &shrunk);
        let total: usize = gained.iter().map(Vec::len).sum();
        assert!(total > 0, "removing a backend must move vertices");
    }
}
