//! Arena-indexed SoA tables for the cluster's node and volume state.
//!
//! Node and volume ids are dense `u32`s handed out by monotonic counters
//! and never reused, so the raw id doubles as a slot index: [`NodeArena`]
//! keeps storage nodes in a `Vec<Option<StorageNode>>` indexed by
//! `NodeId.0` and [`VolumeDirectory`] keeps the volume→node map in a
//! `Vec<NodeId>` indexed by `VolumeId.0`. Lookups that used to pay a
//! BTreeMap descent become one bounds-checked index, and full-fleet scans
//! (placement views, totals, variance maintenance) walk contiguous
//! memory.
//!
//! [`NodeArena`] additionally maintains parallel *hot columns*
//! ([`NodeHot`]: online flag, volume count, used, capacity) — the fields
//! scoring and variance maintenance actually read — split off from the
//! cold per-node metadata (volume lists, load counters, join times).
//! `total_used`-style aggregates and `node_fill` walk the hot column
//! without touching the node structs at all. The single write path is
//! [`NodeArena::sync_hot`], called by every cluster mutation that can
//! change a node's fill or eligibility; [`crate::Cluster::audit`]
//! recomputes the columns from the node structs and fails on drift.
//!
//! Iteration order over either table is ascending id order — exactly the
//! order the former `BTreeMap`s produced — so every determinism contract
//! (canonical views, balancer planning, same-seed byte-identical reports)
//! survives the layout change bit-identically. Slot indices for ids that
//! belong to the *other* table (management ids in the storage arena) stay
//! `None`/unset; with 2–5 management nodes per cluster the holes are
//! noise.
//!
//! Id stability across churn: removing a node or volume never compacts
//! the arena — the slot empties and the id is retired forever (the
//! counters only grow). Checkpoints clone the arenas wholesale exactly as
//! they cloned the maps, so every rewind, to a fork mark or to mark 0,
//! sees identical semantics.

use crate::node::StorageNode;
use crate::types::{Bytes, NodeId, VolumeId};

/// Sentinel owner meaning "no such volume". Node ids are allocated by an
/// incrementing counter starting at 0, so `u32::MAX` is unreachable.
const NO_OWNER: NodeId = NodeId(u32::MAX);

/// The hot per-node columns read by placement scoring, totals, and
/// variance maintenance. One row per arena slot, kept in sync with the
/// cold node struct by [`NodeArena::sync_hot`]. Empty slots hold the
/// default row (`online: false`), so online-filtered scans skip them for
/// free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeHot {
    /// Whether the node is online (false for empty slots).
    pub online: bool,
    /// Number of attached volumes (0 for diskless nodes and empty slots).
    pub volumes: u32,
    /// Bytes stored across all volumes.
    pub used: Bytes,
    /// Total capacity across all volumes.
    pub capacity: Bytes,
}

impl NodeHot {
    /// The hot row a node struct should currently map to (the auditor
    /// recomputes rows through this and fails on drift).
    pub fn of(node: &StorageNode) -> NodeHot {
        NodeHot {
            online: node.online,
            volumes: node.volumes.len() as u32,
            used: node.used(),
            capacity: node.capacity(),
        }
    }
}

/// Dense storage-node table indexed by raw node id, with SoA hot columns.
///
/// The API mirrors the `BTreeMap<NodeId, StorageNode>` it replaced
/// (`get`/`get_mut`/`insert`/`remove`/`values`/`keys`/iteration in id
/// order), so call sites read unchanged.
#[derive(Debug, Clone, Default)]
pub struct NodeArena {
    /// Cold node state, one slot per allocated id (`None` = not a storage
    /// node: removed, or an id belonging to the management table).
    slots: Vec<Option<StorageNode>>,
    /// Parallel hot columns (same indexing as `slots`).
    hot: Vec<NodeHot>,
    /// Number of occupied slots.
    live: usize,
}

impl NodeArena {
    /// Number of storage nodes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the arena holds no storage nodes.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Shared access to a node.
    pub fn get(&self, id: &NodeId) -> Option<&StorageNode> {
        self.slots.get(id.0 as usize).and_then(|s| s.as_ref())
    }

    /// Mutable access to a node. Callers that change fill or eligibility
    /// must follow up with [`NodeArena::sync_hot`] (the cluster's
    /// `refresh_node_stats` does both).
    pub fn get_mut(&mut self, id: &NodeId) -> Option<&mut StorageNode> {
        self.slots.get_mut(id.0 as usize).and_then(|s| s.as_mut())
    }

    /// Whether a node with this id exists.
    pub fn contains_key(&self, id: &NodeId) -> bool {
        self.get(id).is_some()
    }

    /// Inserts a node at its id's slot, growing the arena as needed.
    pub fn insert(&mut self, id: NodeId, node: StorageNode) -> Option<StorageNode> {
        let idx = id.0 as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, || None);
            self.hot.resize(idx + 1, NodeHot::default());
        }
        self.hot[idx] = NodeHot::of(&node);
        let old = self.slots[idx].replace(node);
        if old.is_none() {
            self.live += 1;
        }
        old
    }

    /// Removes a node, emptying its slot (the id is never reused).
    pub fn remove(&mut self, id: &NodeId) -> Option<StorageNode> {
        let old = self.slots.get_mut(id.0 as usize).and_then(|s| s.take());
        if old.is_some() {
            self.live -= 1;
            self.hot[id.0 as usize] = NodeHot::default();
        }
        old
    }

    /// Recomputes the hot row for `id` from its node struct. The single
    /// write path for the hot columns; a no-op for absent ids.
    pub fn sync_hot(&mut self, id: NodeId) {
        let idx = id.0 as usize;
        if let Some(Some(node)) = self.slots.get(idx) {
            self.hot[idx] = NodeHot::of(node);
        }
    }

    /// The hot columns, indexed like the arena. Empty slots hold the
    /// default (offline) row.
    pub fn hot_rows(&self) -> &[NodeHot] {
        &self.hot
    }

    /// Write access to the hot columns, for tests that corrupt them.
    #[cfg(test)]
    pub(crate) fn hot_rows_mut(&mut self) -> &mut [NodeHot] {
        &mut self.hot
    }

    /// `(id, hot row)` for every storage node, in id order.
    pub fn hot_iter(&self) -> impl Iterator<Item = (NodeId, &NodeHot)> + '_ {
        self.slots
            .iter()
            .zip(self.hot.iter())
            .enumerate()
            .filter(|(_, (slot, _))| slot.is_some())
            .map(|(i, (_, hot))| (NodeId(i as u32), hot))
    }

    /// Nodes in id order.
    pub fn values(&self) -> impl Iterator<Item = &StorageNode> + '_ {
        self.slots.iter().filter_map(|s| s.as_ref())
    }

    /// Mutable nodes in id order. Fill/eligibility mutations must be
    /// followed by [`NodeArena::sync_hot`].
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut StorageNode> + '_ {
        self.slots.iter_mut().filter_map(|s| s.as_mut())
    }

    /// Node ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &NodeId> + '_ {
        self.values().map(|n| &n.id)
    }

    /// `(&id, &node)` in id order — the shape BTreeMap iteration had.
    pub fn iter(&self) -> impl Iterator<Item = (&NodeId, &StorageNode)> + '_ {
        self.values().map(|n| (&n.id, n))
    }
}

impl<'a> IntoIterator for &'a NodeArena {
    type Item = (&'a NodeId, &'a StorageNode);
    type IntoIter = Box<dyn Iterator<Item = (&'a NodeId, &'a StorageNode)> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl std::ops::Index<&NodeId> for NodeArena {
    type Output = StorageNode;
    fn index(&self, id: &NodeId) -> &StorageNode {
        self.get(id).expect("no such storage node")
    }
}

/// Dense volume→owner directory indexed by raw volume id.
///
/// Replaces `BTreeMap<VolumeId, NodeId>`: `get` returns `Option<&NodeId>`
/// like the map did, `keys()` yields live volume ids in ascending order
/// (by value — they are copies of the index, not references into the
/// table).
#[derive(Debug, Clone, Default)]
pub struct VolumeDirectory {
    /// Owner per volume id slot; [`NO_OWNER`] marks dead/unallocated ids.
    owner: Vec<NodeId>,
    /// Number of live volumes.
    live: usize,
}

impl VolumeDirectory {
    /// Number of live volumes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no volumes are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The owner of `vol`, if the volume is live.
    pub fn get(&self, vol: &VolumeId) -> Option<&NodeId> {
        self.owner
            .get(vol.0 as usize)
            .filter(|&&owner| owner != NO_OWNER)
    }

    /// Whether `vol` is live.
    pub fn contains_key(&self, vol: &VolumeId) -> bool {
        self.get(vol).is_some()
    }

    /// Records `vol` as owned by `node`.
    pub fn insert(&mut self, vol: VolumeId, node: NodeId) -> Option<NodeId> {
        debug_assert_ne!(node, NO_OWNER, "owner id collides with the sentinel");
        let idx = vol.0 as usize;
        if idx >= self.owner.len() {
            self.owner.resize(idx + 1, NO_OWNER);
        }
        let old = std::mem::replace(&mut self.owner[idx], node);
        if old == NO_OWNER {
            self.live += 1;
            None
        } else {
            Some(old)
        }
    }

    /// Drops `vol` from the directory, returning its former owner.
    pub fn remove(&mut self, vol: &VolumeId) -> Option<NodeId> {
        let slot = self.owner.get_mut(vol.0 as usize)?;
        let old = std::mem::replace(slot, NO_OWNER);
        if old == NO_OWNER {
            None
        } else {
            self.live -= 1;
            Some(old)
        }
    }

    /// Live volume ids in ascending order, by value.
    pub fn keys(&self) -> impl Iterator<Item = VolumeId> + '_ {
        self.owner
            .iter()
            .enumerate()
            .filter(|(_, &owner)| owner != NO_OWNER)
            .map(|(i, _)| VolumeId(i as u32))
    }
}

impl std::ops::Index<&VolumeId> for VolumeDirectory {
    type Output = NodeId;
    fn index(&self, vol: &VolumeId) -> &NodeId {
        self.get(vol).expect("no such volume")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::NodeLoadAccount;
    use crate::node::Volume;
    use crate::types::SimTime;

    fn node(id: u32, online: bool, vols: &[(u32, Bytes, Bytes)]) -> StorageNode {
        StorageNode {
            id: NodeId(id),
            online,
            volumes: vols
                .iter()
                .map(|&(v, capacity, used)| Volume {
                    id: VolumeId(v),
                    capacity,
                    used,
                })
                .collect(),
            load: NodeLoadAccount::default(),
            joined: SimTime::ZERO,
        }
    }

    #[test]
    fn arena_iterates_in_id_order_with_holes() {
        let mut a = NodeArena::default();
        a.insert(NodeId(5), node(5, true, &[(0, 100, 10)]));
        a.insert(NodeId(1), node(1, true, &[(1, 100, 20)]));
        a.insert(NodeId(3), node(3, false, &[]));
        assert_eq!(a.len(), 3);
        let ids: Vec<u32> = a.keys().map(|n| n.0).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        let pairs: Vec<u32> = a
            .iter()
            .map(|(id, n)| {
                assert_eq!(*id, n.id);
                id.0
            })
            .collect();
        assert_eq!(pairs, vec![1, 3, 5]);
        assert!(a.contains_key(&NodeId(3)));
        assert!(!a.contains_key(&NodeId(2)));
        assert_eq!(a[&NodeId(5)].id, NodeId(5));
    }

    #[test]
    fn arena_remove_retires_the_slot() {
        let mut a = NodeArena::default();
        a.insert(NodeId(0), node(0, true, &[(0, 100, 0)]));
        a.insert(NodeId(1), node(1, true, &[(1, 100, 0)]));
        assert!(a.remove(&NodeId(0)).is_some());
        assert!(a.remove(&NodeId(0)).is_none(), "double remove is a no-op");
        assert_eq!(a.len(), 1);
        assert_eq!(a.hot_rows()[0], NodeHot::default());
        let ids: Vec<u32> = a.keys().map(|n| n.0).collect();
        assert_eq!(ids, vec![1]);
    }

    #[test]
    fn hot_rows_track_sync() {
        let mut a = NodeArena::default();
        a.insert(NodeId(2), node(2, true, &[(0, 100, 10), (1, 50, 5)]));
        assert_eq!(
            a.hot_rows()[2],
            NodeHot {
                online: true,
                volumes: 2,
                used: 15,
                capacity: 150
            }
        );
        a.get_mut(&NodeId(2)).unwrap().volumes[0].used = 40;
        assert_eq!(a.hot_rows()[2].used, 15, "stale until synced");
        a.sync_hot(NodeId(2));
        assert_eq!(a.hot_rows()[2].used, 45);
        let hot: Vec<(u32, Bytes)> = a.hot_iter().map(|(id, h)| (id.0, h.used)).collect();
        assert_eq!(hot, vec![(2, 45)]);
    }

    #[test]
    fn directory_tracks_live_volumes() {
        let mut d = VolumeDirectory::default();
        assert!(d.is_empty());
        d.insert(VolumeId(4), NodeId(1));
        d.insert(VolumeId(0), NodeId(2));
        assert_eq!(d.len(), 2);
        assert_eq!(d.get(&VolumeId(4)), Some(&NodeId(1)));
        assert_eq!(d[&VolumeId(0)], NodeId(2));
        assert_eq!(d.get(&VolumeId(2)), None);
        let keys: Vec<u32> = d.keys().map(|v| v.0).collect();
        assert_eq!(keys, vec![0, 4]);
        assert_eq!(d.remove(&VolumeId(4)), Some(NodeId(1)));
        assert_eq!(d.remove(&VolumeId(4)), None);
        assert_eq!(d.len(), 1);
        assert!(!d.contains_key(&VolumeId(4)));
    }
}
