//! Cluster topology and physical data placement state.
//!
//! [`Cluster`] owns the management and storage nodes, their volumes, and
//! the map from file ids to physical replicas. It provides *primitive*
//! mutations (store/free/migrate bytes, add/remove nodes and volumes);
//! policy decisions — which volume receives data, when to rebalance — are
//! made by [`crate::sim::DfsSim`] using the flavor's placement policy and
//! balancer.

use crate::arena::{NodeArena, NodeHot, VolumeDirectory};
use crate::error::{SimError, SimResult};
use crate::journal::UndoJournal;
use crate::loadstats::UtilTracker;
use crate::node::{MgmtNode, StorageNode, Volume};
use crate::placement::VolumeView;
use crate::types::{Bytes, NodeId, NodeRole, VolumeId};
use std::collections::BTreeMap;

/// One physical replica of a file's data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replica {
    /// The volume storing the replica.
    pub volume: VolumeId,
    /// Bytes actually stored (may be less than the file's logical size if a
    /// data-loss bug corrupted a migration).
    pub bytes: Bytes,
}

/// Physical metadata for one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileMeta {
    /// Placement key (hash of the path at creation; renames rehash it).
    pub key: u64,
    /// Replicas currently holding data.
    pub replicas: Vec<Replica>,
    /// DHT linkfile location: set when the file's data no longer lives at
    /// its hash location (GlusterFS semantics).
    pub linkfile_at: Option<VolumeId>,
}

/// A rewind point for the cluster: full clones of the small node/volume
/// maps plus a mark into the file-map undo journal.
#[derive(Debug, Clone)]
pub(crate) struct ClusterCheckpoint {
    mgmt: BTreeMap<NodeId, MgmtNode>,
    storage: NodeArena,
    volume_owner: VolumeDirectory,
    next_node: u32,
    next_volume: u32,
    generation: u64,
    files_mark: usize,
    util_stats: UtilTracker,
    online_storage_nodes: usize,
}

impl ClusterCheckpoint {
    /// The placement topology generation at checkpoint time.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }
}

/// The full cluster state.
#[derive(Debug, Clone, Default)]
pub struct Cluster {
    /// Management nodes by id. Stays a BTreeMap: clusters carry 2–5
    /// management nodes, so there is nothing for an arena to win, and the
    /// map keeps mgmt ids out of the storage arena's slot space accounting.
    pub mgmt: BTreeMap<NodeId, MgmtNode>,
    /// Storage nodes in an arena indexed by raw id, with SoA hot columns
    /// (see [`crate::arena`]). Iteration order is id order, exactly as the
    /// former BTreeMap.
    pub storage: NodeArena,
    /// Physical file metadata by file id (ordered for deterministic
    /// balancer planning). Private so every mutation is forced through a
    /// journaling accessor — direct writes would silently corrupt
    /// snapshot restores.
    files: BTreeMap<crate::types::FileId, FileMeta>,
    /// Owner node of each live volume (dense, indexed by raw volume id).
    pub volume_owner: VolumeDirectory,
    next_node: u32,
    next_volume: u32,
    /// Placement topology generation: bumped on every mutation that changes
    /// which volumes [`Cluster::volume_views`] returns (storage node or
    /// volume membership, capacities, online status). Fill-level changes do
    /// *not* bump it. Placement caches key off this counter.
    generation: u64,
    /// First-touch pre-images of file-map entries, keyed by file id (see
    /// [`crate::journal`]). The node/volume maps are small enough to
    /// checkpoint wholesale, so only `files`, the one collection that
    /// grows with workload size, is journaled.
    journal: UndoJournal<FileMeta>,
    /// Streaming per-node utilization statistics (Σx, Σx², a max tree over
    /// quantized fills). Every mutation that can change a storage node's
    /// utilization or eligibility refreshes its entry, making the
    /// imbalance ratio an O(1) read regardless of cluster size. See the
    /// incremental-variance contract in DESIGN.md; `audit` recomputes it
    /// from the node tables and fails on drift.
    util_stats: UtilTracker,
    /// Online storage node count, maintained by `add`/`remove`/`set_*` so
    /// liveness checks need no fleet walk.
    online_storage_nodes: usize,
    /// Cached canonical volume views (the no-fault, no-hotspot placement
    /// input). Valid while `views_built == Some(generation)`; fill-level
    /// mutations patch entries in place via `sync_view_used`, view-changing
    /// mutations invalidate by bumping `generation`.
    views_cache: Vec<VolumeView>,
    /// Position of each volume in `views_cache`, indexed by raw volume id
    /// (`u32::MAX` = not visible; valid when the cache is fresh).
    view_index: Vec<u32>,
    /// Generation `views_cache` was built at; `None` after a snapshot
    /// restore (divergent suffixes reuse generation numbers, so equality
    /// with `generation` would be a false match).
    views_built: Option<u64>,
    /// When set, fill mutations skip per-call tracker/view maintenance;
    /// [`Cluster::end_bulk_load`] rebuilds both exactly. Never true across
    /// a checkpoint.
    bulk_load: bool,
}

/// Slot value in `view_index` meaning "volume not in the cached views".
const NO_VIEW: u32 = u32::MAX;

impl Cluster {
    /// Creates an empty cluster (nodes are added by the simulator).
    pub fn new() -> Self {
        Cluster::default()
    }

    /// The current placement topology generation (see the field docs).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The streaming utilization statistics over eligible storage nodes
    /// (online, at least one volume, positive capacity) — the O(1) source
    /// for the storage imbalance ratio.
    pub fn util_stats(&self) -> &UtilTracker {
        &self.util_stats
    }

    /// Mutable access to a management node's load telemetry. Load
    /// counters live on the wholesale-checkpointed node maps (the undo
    /// journal only covers the file table) and feed no placement or
    /// tracker state, so the sim's traffic layer charges them through
    /// this accessor instead of reaching into the node tables.
    pub fn mgmt_load_mut(&mut self, id: NodeId) -> Option<&mut crate::metrics::NodeLoadAccount> {
        self.mgmt.get_mut(&id).map(|n| &mut n.load)
    }

    /// Mutable access to a storage node's load telemetry (see
    /// [`Cluster::mgmt_load_mut`]).
    pub fn storage_load_mut(&mut self, id: NodeId) -> Option<&mut crate::metrics::NodeLoadAccount> {
        self.storage.get_mut(&id).map(|n| &mut n.load)
    }

    /// Stamps a node's join time, whichever role owns the id; unknown
    /// ids are ignored. Join times on freshly added nodes are covered by
    /// the wholesale node-map checkpoint, not the file-table journal.
    pub fn note_joined(&mut self, id: NodeId, now: crate::types::SimTime) {
        if let Some(n) = self.mgmt.get_mut(&id) {
            n.joined = now;
        } else if let Some(n) = self.storage.get_mut(&id) {
            n.joined = now;
        }
    }

    /// Re-derives one storage node's hot columns and streaming-stats entry
    /// from its current volumes. Called by every mutation that can change
    /// the node's utilization or eligibility.
    fn refresh_node_stats(&mut self, id: NodeId) {
        self.storage.sync_hot(id);
        let q = self.storage.get(&id).and_then(|n| n.util_q());
        self.util_stats.update(id, q);
    }

    /// Refreshes the streaming stats and the cached canonical view for the
    /// node owning `vol`, after a fill-level mutation.
    fn touch_volume(&mut self, vol: VolumeId) {
        if self.bulk_load {
            return; // end_bulk_load rebuilds trackers and views exactly
        }
        if let Some(&owner) = self.volume_owner.get(&vol) {
            self.refresh_node_stats(owner);
        }
        self.sync_view_used(vol);
    }

    /// Patches `vol`'s entry in the canonical views cache, if fresh.
    fn sync_view_used(&mut self, vol: VolumeId) {
        if self.views_built != Some(self.generation) {
            return;
        }
        let Some(i) = self
            .view_index
            .get(vol.0 as usize)
            .copied()
            .filter(|&i| i != NO_VIEW)
        else {
            return;
        };
        if let Some(v) = self.volume(vol) {
            let (used, capacity) = (v.used, v.capacity);
            let view = &mut self.views_cache[i as usize];
            view.used = used;
            view.capacity = capacity;
        }
    }

    /// Enters bulk-load mode: fill mutations (store/free/migrate) skip the
    /// per-call streaming-stats and cached-view maintenance. Intended for
    /// the preload phase of scaled topologies, where touching the tracker
    /// per replica dominates wall time at 100k nodes. Must be paired with
    /// [`Cluster::end_bulk_load`] before anything reads the stats, views,
    /// or hot columns; topology mutations remain fully maintained.
    pub fn begin_bulk_load(&mut self) {
        self.bulk_load = true;
    }

    /// Leaves bulk-load mode, rebuilding the hot columns and streaming
    /// stats for every storage node from ground truth. The accumulators
    /// are exact integers, so the rebuilt state is identical to what
    /// per-mutation maintenance would have produced; the views cache is
    /// invalidated and rebuilt lazily.
    pub fn end_bulk_load(&mut self) {
        self.bulk_load = false;
        let ids: Vec<NodeId> = self.storage.keys().copied().collect();
        for id in ids {
            self.refresh_node_stats(id);
        }
        self.views_built = None;
    }

    /// The canonical volume views (every volume on online storage nodes),
    /// rebuilt lazily when the placement topology generation moved and
    /// patched in place on fill changes — O(1) amortized on the hot path,
    /// where the previous code rebuilt the full list every operation.
    pub fn canonical_views(&mut self) -> &[VolumeView] {
        if self.views_built != Some(self.generation) {
            let mut buf = std::mem::take(&mut self.views_cache);
            self.volume_views_into(&mut buf);
            self.views_cache = buf;
            self.view_index.clear();
            self.view_index.resize(self.next_volume as usize, NO_VIEW);
            for (i, v) in self.views_cache.iter().enumerate() {
                self.view_index[v.volume.0 as usize] = i as u32;
            }
            self.views_built = Some(self.generation);
        }
        &self.views_cache
    }

    /// Position of `vol` in [`Cluster::canonical_views`], if the cache is
    /// fresh and the volume is visible.
    pub(crate) fn view_pos(&self, vol: VolumeId) -> Option<usize> {
        if self.views_built != Some(self.generation) {
            return None;
        }
        self.view_index
            .get(vol.0 as usize)
            .copied()
            .filter(|&i| i != NO_VIEW)
            .map(|i| i as usize)
    }

    /// Speculatively bumps a cached view's fill during placement planning
    /// (so later fragments of the same request see earlier allocations),
    /// returning the previous value for exact rollback.
    pub(crate) fn bump_view_used(&mut self, pos: usize, bytes: Bytes) -> Bytes {
        let v = &mut self.views_cache[pos];
        let old = v.used;
        v.used = v.used.saturating_add(bytes);
        old
    }

    /// Rolls back a speculative [`Cluster::bump_view_used`].
    pub(crate) fn set_view_used(&mut self, pos: usize, used: Bytes) {
        self.views_cache[pos].used = used;
    }

    /// Read access to the physical file map.
    pub fn files(&self) -> &BTreeMap<crate::types::FileId, FileMeta> {
        &self.files
    }

    /// Mutable access to one file's metadata, journaled.
    pub(crate) fn file_mut(&mut self, fid: crate::types::FileId) -> Option<&mut FileMeta> {
        self.note_file(fid);
        self.files.get_mut(&fid)
    }

    /// Records a file's pre-mutation state in the undo journal.
    fn note_file(&mut self, fid: crate::types::FileId) {
        let files = &self.files;
        self.journal
            .touch(fid.0 as usize, || files.get(&fid).cloned());
    }

    /// Number of undo records held (tests).
    #[cfg(test)]
    pub(crate) fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Write access to the streaming stats, for tests that corrupt them.
    #[cfg(test)]
    pub(crate) fn util_stats_mut(&mut self) -> &mut UtilTracker {
        &mut self.util_stats
    }

    /// Drops the undo history and switches journaling off until the next
    /// checkpoint; every earlier checkpoint becomes invalid.
    pub(crate) fn clear_journal(&mut self) {
        self.journal.clear();
    }

    /// Captures the state needed to rewind back to this point, switching
    /// journaling on if it was off.
    pub(crate) fn checkpoint(&mut self) -> ClusterCheckpoint {
        debug_assert!(!self.bulk_load, "checkpoint during bulk load");
        ClusterCheckpoint {
            mgmt: self.mgmt.clone(),
            storage: self.storage.clone(),
            volume_owner: self.volume_owner.clone(),
            next_node: self.next_node,
            next_volume: self.next_volume,
            generation: self.generation,
            files_mark: self.journal.mark(),
            util_stats: self.util_stats.clone(),
            online_storage_nodes: self.online_storage_nodes,
        }
    }

    /// Rewinds to the state captured by `cp`: writes journaled file-map
    /// pre-images back newest-first and restores the wholesale-cloned node
    /// maps. Checkpoints deeper than `cp` become invalid.
    pub(crate) fn restore_to(&mut self, cp: &ClusterCheckpoint) {
        for (key, old) in self.journal.rewind(cp.files_mark) {
            let fid = crate::types::FileId(key as u64);
            match old {
                Some(meta) => {
                    self.files.insert(fid, meta);
                }
                None => {
                    self.files.remove(&fid);
                }
            }
        }
        self.mgmt.clone_from(&cp.mgmt);
        self.storage.clone_from(&cp.storage);
        self.volume_owner.clone_from(&cp.volume_owner);
        self.next_node = cp.next_node;
        self.next_volume = cp.next_volume;
        self.generation = cp.generation;
        self.util_stats.clone_from(&cp.util_stats);
        self.online_storage_nodes = cp.online_storage_nodes;
        // Divergent suffixes reuse generation numbers, so a fresh-looking
        // cache could describe the abandoned branch: force a rebuild.
        self.views_built = None;
    }

    /// Adds a management node with the given core count.
    pub fn add_mgmt(&mut self, cores: u32) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        self.mgmt.insert(
            id,
            MgmtNode {
                id,
                online: true,
                cores,
                load: Default::default(),
                joined: Default::default(),
            },
        );
        id
    }

    /// Removes a management node. Fails if it is the last online one.
    pub fn remove_mgmt(&mut self, id: NodeId) -> SimResult<()> {
        if !self.mgmt.contains_key(&id) {
            return Err(SimError::NoSuchNode(id));
        }
        if self.mgmt.values().filter(|m| m.online).count() <= 1 {
            return Err(SimError::LastNode(id));
        }
        self.mgmt.remove(&id);
        Ok(())
    }

    /// Adds a storage node with `volumes` volumes of `capacity` bytes each.
    pub fn add_storage(&mut self, volumes: u32, capacity: Bytes) -> (NodeId, Vec<VolumeId>) {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        let mut vols = Vec::with_capacity(volumes as usize);
        let mut vol_ids = Vec::with_capacity(volumes as usize);
        for _ in 0..volumes.max(1) {
            let vid = VolumeId(self.next_volume);
            self.next_volume += 1;
            vols.push(Volume {
                id: vid,
                capacity,
                used: 0,
            });
            self.volume_owner.insert(vid, id);
            vol_ids.push(vid);
        }
        self.storage.insert(
            id,
            StorageNode {
                id,
                online: true,
                volumes: vols,
                load: Default::default(),
                joined: Default::default(),
            },
        );
        self.generation += 1;
        self.online_storage_nodes += 1;
        self.refresh_node_stats(id);
        (id, vol_ids)
    }

    /// Removes a storage node, returning every replica that was stored on
    /// it (the simulator re-places or loses them). Fails if it is the last
    /// online storage node.
    pub fn remove_storage(
        &mut self,
        id: NodeId,
    ) -> SimResult<Vec<(crate::types::FileId, Replica)>> {
        if !self.storage.contains_key(&id) {
            return Err(SimError::NoSuchNode(id));
        }
        if self.online_storage_nodes <= 1 {
            return Err(SimError::LastNode(id));
        }
        let node = self.storage.remove(&id).expect("checked above");
        let dead_vols: Vec<VolumeId> = node.volumes.iter().map(|v| v.id).collect();
        for v in &dead_vols {
            self.volume_owner.remove(v);
        }
        self.generation += 1;
        if node.online {
            self.online_storage_nodes -= 1;
        }
        self.util_stats.update(id, None);
        Ok(self.strip_replicas(&dead_vols))
    }

    /// Detaches the replicas living on the given volumes from the file map
    /// and returns them.
    fn strip_replicas(&mut self, vols: &[VolumeId]) -> Vec<(crate::types::FileId, Replica)> {
        let mut displaced = Vec::new();
        // Disjoint field borrows: the journal is filled while the file map
        // is iterated mutably.
        let (files, journal) = (&mut self.files, &mut self.journal);
        for (fid, meta) in files.iter_mut() {
            let affected = meta.replicas.iter().any(|r| vols.contains(&r.volume))
                || meta.linkfile_at.is_some_and(|v| vols.contains(&v));
            if !affected {
                continue;
            }
            journal.touch(fid.0 as usize, || Some(meta.clone()));
            let mut i = 0;
            while i < meta.replicas.len() {
                if vols.contains(&meta.replicas[i].volume) {
                    displaced.push((*fid, meta.replicas.remove(i)));
                } else {
                    i += 1;
                }
            }
            if meta.linkfile_at.is_some_and(|v| vols.contains(&v)) {
                meta.linkfile_at = None;
            }
        }
        displaced
    }

    /// Attaches a new volume to a storage node.
    pub fn add_volume(&mut self, node: NodeId, capacity: Bytes) -> SimResult<VolumeId> {
        let n = self
            .storage
            .get_mut(&node)
            .ok_or(SimError::NoSuchNode(node))?;
        let vid = VolumeId(self.next_volume);
        self.next_volume += 1;
        n.volumes.push(Volume {
            id: vid,
            capacity,
            used: 0,
        });
        self.volume_owner.insert(vid, node);
        self.generation += 1;
        self.refresh_node_stats(node);
        Ok(vid)
    }

    /// Detaches a volume, returning its displaced replicas. Fails if it is
    /// the only volume left in the cluster.
    pub fn remove_volume(
        &mut self,
        vol: VolumeId,
    ) -> SimResult<Vec<(crate::types::FileId, Replica)>> {
        let owner = *self
            .volume_owner
            .get(&vol)
            .ok_or(SimError::NoSuchVolume(vol))?;
        let live_volumes: usize = self.storage.values().map(|n| n.volumes.len()).sum();
        if live_volumes <= 1 {
            return Err(SimError::LastNode(owner));
        }
        let node = self.storage.get_mut(&owner).expect("owner map consistent");
        node.volumes.retain(|v| v.id != vol);
        self.volume_owner.remove(&vol);
        self.generation += 1;
        self.refresh_node_stats(owner);
        Ok(self.strip_replicas(&[vol]))
    }

    /// Grows a volume by `delta` bytes.
    pub fn expand_volume(&mut self, vol: VolumeId, delta: Bytes) -> SimResult<()> {
        let v = self.volume_mut(vol)?;
        v.capacity = v.capacity.saturating_add(delta);
        self.generation += 1;
        self.touch_volume(vol);
        Ok(())
    }

    /// Shrinks a volume by `delta` bytes; fails if stored data would no
    /// longer fit.
    pub fn reduce_volume(&mut self, vol: VolumeId, delta: Bytes) -> SimResult<()> {
        let v = self.volume_mut(vol)?;
        let new_cap = v.capacity.saturating_sub(delta);
        if v.used > new_cap {
            return Err(SimError::VolumeBusy {
                volume: vol,
                used: v.used,
                requested_capacity: new_cap,
            });
        }
        v.capacity = new_cap;
        self.generation += 1;
        self.touch_volume(vol);
        Ok(())
    }

    fn volume_mut(&mut self, vol: VolumeId) -> SimResult<&mut Volume> {
        let owner = *self
            .volume_owner
            .get(&vol)
            .ok_or(SimError::NoSuchVolume(vol))?;
        self.storage
            .get_mut(&owner)
            .and_then(|n| n.volume_mut(vol))
            .ok_or(SimError::NoSuchVolume(vol))
    }

    /// Shared access to a volume.
    pub fn volume(&self, vol: VolumeId) -> Option<&Volume> {
        let owner = self.volume_owner.get(&vol)?;
        self.storage.get(owner)?.volume(vol)
    }

    /// Views of every volume on online storage nodes, for placement.
    pub fn volume_views(&self) -> Vec<VolumeView> {
        let mut views = Vec::new();
        self.volume_views_into(&mut views);
        views
    }

    /// Allocation-free variant of [`Cluster::volume_views`]: clears and
    /// refills `views`, reusing its capacity. The hot path calls this with
    /// a long-lived buffer once per executed operation.
    pub fn volume_views_into(&self, views: &mut Vec<VolumeView>) {
        views.clear();
        views.extend(self.volume_views_iter());
    }

    /// The views [`Cluster::volume_views`] returns, built one at a time
    /// from the node tables.
    fn volume_views_iter(&self) -> impl Iterator<Item = VolumeView> + '_ {
        self.storage.values().filter(|n| n.online).flat_map(|node| {
            node.volumes.iter().map(|v| VolumeView {
                volume: v.id,
                node: node.id,
                capacity: v.capacity,
                used: v.used,
                online: true,
            })
        })
    }

    /// Stores `bytes` of file `fid` on `vol` as a new replica.
    pub fn store(
        &mut self,
        fid: crate::types::FileId,
        vol: VolumeId,
        bytes: Bytes,
    ) -> SimResult<()> {
        let v = self.volume_mut(vol)?;
        if v.free() < bytes {
            return Err(SimError::OutOfSpace {
                requested: bytes,
                free: v.free(),
            });
        }
        v.used += bytes;
        self.note_file(fid);
        self.files
            .entry(fid)
            .or_default()
            .replicas
            .push(Replica { volume: vol, bytes });
        self.touch_volume(vol);
        Ok(())
    }

    /// Frees every replica of a file and removes its metadata.
    pub fn free_file(&mut self, fid: crate::types::FileId) -> Bytes {
        self.note_file(fid);
        let Some(meta) = self.files.remove(&fid) else {
            return 0;
        };
        let mut freed = 0;
        let mut touched: Vec<VolumeId> = Vec::new();
        for r in meta.replicas {
            if let Ok(v) = self.volume_mut(r.volume) {
                v.used = v.used.saturating_sub(r.bytes);
                freed += r.bytes;
                if !touched.contains(&r.volume) {
                    touched.push(r.volume);
                }
            }
        }
        for vol in touched {
            self.touch_volume(vol);
        }
        freed
    }

    /// Rescales every fragment of `fid` proportionally for a logical resize
    /// from `old_size` to `new_size` bytes.
    ///
    /// Fragment sizes are multiplied by `new_size / old_size`, so a striped
    /// file keeps its distribution shape. Fails with `OutOfSpace` if any
    /// volume cannot absorb the summed growth of the file's fragments on
    /// it; on failure nothing is changed.
    pub fn rescale_file(
        &mut self,
        fid: crate::types::FileId,
        old_size: Bytes,
        new_size: Bytes,
    ) -> SimResult<()> {
        if old_size == new_size {
            return Ok(());
        }
        let meta = match self.files.get(&fid) {
            Some(m) => m.clone(),
            None => return Ok(()), // file had no physical placement
        };
        let scale = |bytes: Bytes| -> Bytes {
            if old_size == 0 {
                0
            } else {
                ((bytes as u128 * new_size as u128) / old_size as u128) as Bytes
            }
        };
        // Validate growth first so the whole rescale is atomic. Several
        // fragments can share a volume, so growth is summed per volume.
        let mut growth: Vec<(VolumeId, Bytes)> = Vec::new();
        for r in &meta.replicas {
            let target = scale(r.bytes);
            if target > r.bytes {
                match growth.iter_mut().find(|(vol, _)| *vol == r.volume) {
                    Some((_, grow)) => *grow += target - r.bytes,
                    None => growth.push((r.volume, target - r.bytes)),
                }
            }
        }
        for (vol, grow) in growth {
            let v = self.volume(vol).ok_or(SimError::NoSuchVolume(vol))?;
            if v.free() < grow {
                return Err(SimError::OutOfSpace {
                    requested: grow,
                    free: v.free(),
                });
            }
        }
        let mut touched: Vec<VolumeId> = Vec::new();
        for r in &meta.replicas {
            let target = scale(r.bytes);
            let old = r.bytes;
            let v = self.volume_mut(r.volume)?;
            v.used = v.used - old + target;
            if !touched.contains(&r.volume) {
                touched.push(r.volume);
            }
        }
        for vol in touched {
            self.touch_volume(vol);
        }
        self.note_file(fid);
        if let Some(m) = self.files.get_mut(&fid) {
            for r in &mut m.replicas {
                r.bytes = scale(r.bytes);
            }
            m.replicas.retain(|r| r.bytes > 0);
        }
        Ok(())
    }

    /// Moves one replica of `fid` from `from` to `to` in one atomic step,
    /// storing `kept` bytes at the destination (normally the full replica;
    /// less when a data-loss effect corrupts the migration). Returns the
    /// bytes freed at the source. The reference the migration micro-steps
    /// below are checked against.
    #[cfg(test)]
    pub(crate) fn migrate(
        &mut self,
        fid: crate::types::FileId,
        from: VolumeId,
        to: VolumeId,
        kept: Bytes,
    ) -> SimResult<Bytes> {
        let meta = self
            .files
            .get(&fid)
            .ok_or(SimError::NoSuchPath(format!("{fid}")))?;
        let idx = meta
            .replicas
            .iter()
            .position(|r| r.volume == from)
            .ok_or(SimError::NoSuchVolume(from))?;
        let moved = meta.replicas[idx].bytes;
        let kept = kept.min(moved);
        {
            let dest = self.volume_mut(to)?;
            if dest.free() < kept {
                return Err(SimError::OutOfSpace {
                    requested: kept,
                    free: dest.free(),
                });
            }
            dest.used += kept;
        }
        {
            let src = self.volume_mut(from)?;
            src.used = src.used.saturating_sub(moved);
        }
        self.note_file(fid);
        let meta = self.files.get_mut(&fid).expect("checked above");
        meta.replicas[idx] = Replica {
            volume: to,
            bytes: kept,
        };
        self.touch_volume(to);
        self.touch_volume(from);
        Ok(moved)
    }

    // ------------------------------------------------------------------
    // Migration micro-steps
    //
    // Every balancer move runs as these micro-operations — per-fragment
    // destination copies, the file-table commit, and the source-space
    // reclaim — so a deterministic crash can land *between* any two of
    // them. Composed with no crash, the sequence leaves the same state as
    // the atomic test reference [`Cluster::migrate`] above (a
    // differential test pins this).
    // ------------------------------------------------------------------

    /// Copies `bytes` of migrating data onto `to` without touching the
    /// file table: the mid-copy state of a real migration, where the
    /// source replica stays authoritative. Fails (state untouched) if the
    /// destination lacks the space.
    pub fn migrate_copy(&mut self, to: VolumeId, bytes: Bytes) -> SimResult<()> {
        let dest = self.volume_mut(to)?;
        if dest.free() < bytes {
            return Err(SimError::OutOfSpace {
                requested: bytes,
                free: dest.free(),
            });
        }
        dest.used += bytes;
        self.touch_volume(to);
        Ok(())
    }

    /// Releases `bytes` previously landed by [`Cluster::migrate_copy`]:
    /// the rollback a *correct* crash recovery performs when the copy
    /// never committed.
    pub fn migrate_rollback_copy(&mut self, to: VolumeId, bytes: Bytes) {
        if let Ok(dest) = self.volume_mut(to) {
            dest.used = dest.used.saturating_sub(bytes);
            self.touch_volume(to);
        }
    }

    /// Commits the file-table side of a migration: the replica of `fid`
    /// on `from` is re-pointed at `to` holding `kept` bytes. Returns the
    /// source replica's former size, which the caller must reclaim with
    /// [`Cluster::migrate_commit_account`] — between the two calls the
    /// moved bytes are counted on both ends, exactly the double-count
    /// window of a real two-phase migration.
    pub fn migrate_commit_swap(
        &mut self,
        fid: crate::types::FileId,
        from: VolumeId,
        to: VolumeId,
        kept: Bytes,
    ) -> SimResult<Bytes> {
        let meta = self
            .files
            .get(&fid)
            .ok_or(SimError::NoSuchPath(format!("{fid}")))?;
        let idx = meta
            .replicas
            .iter()
            .position(|r| r.volume == from)
            .ok_or(SimError::NoSuchVolume(from))?;
        let moved = meta.replicas[idx].bytes;
        self.note_file(fid);
        let meta = self.files.get_mut(&fid).expect("checked above");
        meta.replicas[idx] = Replica {
            volume: to,
            bytes: kept,
        };
        Ok(moved)
    }

    /// Reclaims the source space of a committed migration (`moved` bytes
    /// freed on `from`), completing what
    /// [`Cluster::migrate_commit_swap`] started.
    pub fn migrate_commit_account(&mut self, from: VolumeId, moved: Bytes) {
        if let Ok(src) = self.volume_mut(from) {
            src.used = src.used.saturating_sub(moved);
            self.touch_volume(from);
        }
    }

    /// Bytes stored per online storage node with at least one volume.
    ///
    /// Diskless nodes (all volumes detached) are excluded: they are out of
    /// the storage pool and neither hold nor can receive data. Walks the
    /// contiguous hot columns, not the node structs.
    pub fn node_storage(&self) -> Vec<(NodeId, Bytes)> {
        self.storage
            .hot_iter()
            .filter(|(_, h)| h.online && h.volumes > 0)
            .map(|(id, h)| (id, h.used))
            .collect()
    }

    /// Per-node (used, capacity) for online storage nodes with volumes.
    pub fn node_fill(&self) -> Vec<(NodeId, Bytes, Bytes)> {
        self.storage
            .hot_iter()
            .filter(|(_, h)| h.online && h.volumes > 0)
            .map(|(id, h)| (id, h.used, h.capacity))
            .collect()
    }

    /// Total free bytes across online storage nodes (hot-column scan).
    pub fn total_free(&self) -> Bytes {
        self.storage
            .hot_rows()
            .iter()
            .filter(|h| h.online)
            .map(|h| h.capacity.saturating_sub(h.used))
            .sum()
    }

    /// Total capacity across online storage nodes (hot-column scan).
    pub fn total_capacity(&self) -> Bytes {
        self.storage
            .hot_rows()
            .iter()
            .filter(|h| h.online)
            .map(|h| h.capacity)
            .sum()
    }

    /// Total bytes stored across online storage nodes (hot-column scan).
    pub fn total_used(&self) -> Bytes {
        self.storage
            .hot_rows()
            .iter()
            .filter(|h| h.online)
            .map(|h| h.used)
            .sum()
    }

    /// Online management nodes, in id order.
    pub fn online_mgmt(&self) -> Vec<NodeId> {
        self.mgmt
            .values()
            .filter(|m| m.online)
            .map(|m| m.id)
            .collect()
    }

    /// Online storage nodes, in id order.
    pub fn online_storage(&self) -> Vec<NodeId> {
        self.storage
            .values()
            .filter(|s| s.online)
            .map(|s| s.id)
            .collect()
    }

    /// Whether any management node is online (allocation-free).
    pub fn has_online_mgmt(&self) -> bool {
        self.mgmt.values().any(|m| m.online)
    }

    /// Whether any storage node is online. O(1): reads the maintained
    /// online count instead of walking the fleet.
    pub fn has_online_storage(&self) -> bool {
        self.online_storage_nodes > 0
    }

    /// Number of online storage nodes (O(1), incrementally maintained).
    pub fn online_storage_count(&self) -> usize {
        self.online_storage_nodes
    }

    /// Number of online management nodes (allocation-free).
    pub fn online_mgmt_count(&self) -> usize {
        self.mgmt.values().filter(|m| m.online).count()
    }

    /// The `i`-th online management node in id order (allocation-free).
    pub fn nth_online_mgmt(&self, i: usize) -> Option<NodeId> {
        self.mgmt.values().filter(|m| m.online).nth(i).map(|m| m.id)
    }

    /// Ids of every node (for inventory reporting).
    pub fn node_ids(&self) -> Vec<(NodeId, NodeRole, bool)> {
        let mut out: Vec<(NodeId, NodeRole, bool)> = self
            .mgmt
            .values()
            .map(|m| (m.id, NodeRole::Management, m.online))
            .chain(
                self.storage
                    .values()
                    .map(|s| (s.id, NodeRole::Storage, s.online)),
            )
            .collect();
        out.sort_by_key(|(id, _, _)| *id);
        out
    }

    /// Marks a node offline (crash) without removing it.
    pub fn set_offline(&mut self, id: NodeId) {
        if let Some(n) = self.storage.get_mut(&id) {
            if n.online {
                n.online = false;
                // Offline storage nodes drop out of `volume_views`.
                self.generation += 1;
                self.online_storage_nodes -= 1;
                // util_q is None offline, so this removes the tracker
                // entry and flips the hot row in one refresh.
                self.refresh_node_stats(id);
            }
        }
        if let Some(n) = self.mgmt.get_mut(&id) {
            n.online = false;
        }
    }

    /// Brings a previously offline node back (restart after a crash); its
    /// data survived the outage.
    pub fn set_online(&mut self, id: NodeId) {
        if let Some(n) = self.storage.get_mut(&id) {
            if !n.online {
                n.online = true;
                // The node's volumes re-enter `volume_views`.
                self.generation += 1;
                self.online_storage_nodes += 1;
                self.refresh_node_stats(id);
            }
        }
        if let Some(n) = self.mgmt.get_mut(&id) {
            n.online = true;
        }
    }

    /// Collapses every volume's free space on a storage node to zero
    /// (disk-full fault): existing data stays readable but nothing more
    /// fits. Returns whether anything changed.
    pub fn set_volumes_full(&mut self, id: NodeId) -> bool {
        let Some(n) = self.storage.get_mut(&id) else {
            return false;
        };
        let mut changed = false;
        for v in &mut n.volumes {
            if v.capacity != v.used {
                v.capacity = v.used;
                changed = true;
            }
        }
        if changed {
            // Free-space-driven placement must see the shrunk capacities.
            self.generation += 1;
            self.refresh_node_stats(id);
        }
        changed
    }

    /// First-principles audit of the incremental storage accounting.
    ///
    /// Every byte counter in the cluster is maintained incrementally
    /// (`store`/`free_file`/`rescale_file`/the migration micro-steps
    /// adjust `Volume::used` in place, and snapshot restores rewind those
    /// adjustments through the undo journal). This recomputes the
    /// per-volume totals from the one ground truth — the file table — and
    /// cross-checks:
    ///
    /// * each volume's `used` equals the sum of replica bytes placed on it;
    /// * `used` never exceeds `capacity`;
    /// * every replica lands on a volume some storage node actually holds;
    /// * `volume_owner` and the per-node volume lists agree both ways;
    /// * the streaming utilization stats, the online count, the hot
    ///   columns and a fresh canonical-views cache equal a rebuild from
    ///   the node tables.
    ///
    /// Returns a description of the first inconsistency found. The
    /// simulator runs it after every rewind when its runtime audit is on
    /// (always in debug builds; in release builds when a caller such as
    /// the crash explorer opts in through `DfsSim::set_runtime_audit`),
    /// and the crash-consistency oracle runs it as its backstop.
    pub fn audit(&self) -> Result<(), String> {
        self.audit_with(&self.file_table_usage())
    }

    /// One pass over the file table: the bytes it places on each volume,
    /// and the first replica that sits on a volume no storage node holds
    /// (see [`FileTableUsage`]).
    pub(crate) fn file_table_usage(&self) -> FileTableUsage {
        let mut per_volume: Vec<(Bytes, usize)> = vec![(0, 0); self.next_volume as usize];
        for r in self.files.values().flat_map(|m| &m.replicas) {
            let slot = r.volume.0 as usize;
            if slot >= per_volume.len() {
                // A replica on an id never handed out is still summed.
                per_volume.resize(slot + 1, (0, 0));
            }
            let (bytes, replicas) = &mut per_volume[slot];
            *bytes += r.bytes;
            *replicas += 1;
        }
        // Ownership belongs to the volume, so each volume holding replicas
        // is checked once; only when one fails is the file table walked
        // again for the first replica on it.
        let misplaced = per_volume
            .iter()
            .enumerate()
            .any(|(i, &(_, n))| n > 0 && !self.places_replicas(VolumeId(i as u32)));
        let ownership_error = if misplaced {
            self.files.iter().find_map(|(fid, meta)| {
                let r = meta
                    .replicas
                    .iter()
                    .find(|r| !self.places_replicas(r.volume))?;
                Some(self.misplaced_replica(*fid, r.volume))
            })
        } else {
            None
        };
        FileTableUsage {
            per_volume,
            ownership_error,
        }
    }

    /// Whether `vol` is live and owned by a storage node.
    fn places_replicas(&self, vol: VolumeId) -> bool {
        self.volume_owner
            .get(&vol)
            .is_some_and(|owner| self.storage.contains_key(owner))
    }

    /// Why a replica of `fid` on `vol`, which does not place replicas, is
    /// misplaced: the volume is not live, or its owner is not a storage
    /// node.
    fn misplaced_replica(&self, fid: crate::types::FileId, vol: VolumeId) -> String {
        match self.volume_owner.get(&vol) {
            None => format!("file {fid:?} has a replica on unknown volume {vol:?}"),
            Some(owner) => {
                format!("volume {vol:?} is owned by {owner:?}, which is not a storage node")
            }
        }
    }

    /// [`Cluster::audit`] against a file-table pass the caller already
    /// made, so the crash oracle walks the file table once per check.
    pub(crate) fn audit_with(&self, usage: &FileTableUsage) -> Result<(), String> {
        if let Some(e) = &usage.ownership_error {
            return Err(e.clone());
        }
        let mut vols_seen = 0usize;
        for (nid, node) in &self.storage {
            for v in &node.volumes {
                vols_seen += 1;
                if self.volume_owner.get(&v.id) != Some(nid) {
                    return Err(format!(
                        "volume {:?} listed on node {nid:?} but volume_owner says {:?}",
                        v.id,
                        self.volume_owner.get(&v.id)
                    ));
                }
                let expect = usage.used(v.id);
                if v.used != expect {
                    return Err(format!(
                        "volume {:?} on node {nid:?}: incremental used = {} bytes \
                         but the file table accounts for {} bytes",
                        v.id, v.used, expect
                    ));
                }
                if v.used > v.capacity {
                    return Err(format!(
                        "volume {:?} on node {nid:?}: used {} exceeds capacity {}",
                        v.id, v.used, v.capacity
                    ));
                }
            }
        }
        if vols_seen != self.volume_owner.len() {
            return Err(format!(
                "volume_owner tracks {} volumes but storage nodes hold {}",
                self.volume_owner.len(),
                vols_seen
            ));
        }
        // The streaming utilization stats and the online count are
        // maintained incrementally at every mutation site; rebuild both
        // from the node tables and fail on any drift. The tracker spans
        // the node-id slots up to the highest storage node.
        let slots = self.storage.keys().last().map_or(0, |id| id.0 as usize + 1);
        let fresh = UtilTracker::from_leaves(
            slots,
            self.storage
                .values()
                .filter_map(|n| n.util_q().map(|q| (n.id, q))),
        );
        if fresh != self.util_stats {
            return Err(format!(
                "streaming utilization stats drifted from the node tables: \
                 tracked {} nodes Σq={} max={:?} but recomputation gives \
                 {} nodes Σq={} max={:?}",
                self.util_stats.count(),
                self.util_stats.sum_q(),
                self.util_stats.max_q(),
                fresh.count(),
                fresh.sum_q(),
                fresh.max_q()
            ));
        }
        let online = self.storage.values().filter(|n| n.online).count();
        if online != self.online_storage_nodes {
            return Err(format!(
                "online storage count drifted: tracked {} but {} nodes are online",
                self.online_storage_nodes, online
            ));
        }
        // The SoA hot columns (online/volumes/used/capacity per arena slot)
        // feed totals and placement scans; recompute every row from the
        // node structs and require empty slots to hold the default row.
        let hot = self.storage.hot_rows();
        for (nid, node) in &self.storage {
            let want = NodeHot::of(node);
            let got = hot.get(nid.0 as usize).copied().unwrap_or_default();
            if got != want {
                return Err(format!(
                    "hot columns drifted for node {nid:?}: row {got:?} \
                     but the node recomputes to {want:?}"
                ));
            }
        }
        for (i, row) in hot.iter().enumerate() {
            if self.storage.get(&NodeId(i as u32)).is_none() && *row != NodeHot::default() {
                return Err(format!(
                    "empty arena slot {i} holds a non-default hot row {row:?}"
                ));
            }
        }
        // A fresh canonical-views cache must agree with a from-scratch
        // rebuild (fill mutations patch it in place). The rebuild streams
        // past the cache; only a mismatch collects it, for the message.
        if self.views_built == Some(self.generation)
            && !self
                .volume_views_iter()
                .eq(self.views_cache.iter().copied())
        {
            let rebuilt = self.volume_views();
            return Err(format!(
                "canonical views cache drifted: {} cached vs {} rebuilt entries, \
                 first mismatch {:?}",
                self.views_cache.len(),
                rebuilt.len(),
                rebuilt
                    .iter()
                    .zip(&self.views_cache)
                    .find(|(a, b)| a != b)
                    .map(|(a, _)| a.volume)
            ));
        }
        Ok(())
    }
}

/// Per-volume byte totals summed from the file table in one pass: the
/// ground truth that [`Cluster::audit`] checks the incremental `used`
/// counters against. The crash oracle makes one pass and hands it to both
/// its scoped checks and its backstop audit.
#[derive(Debug)]
pub(crate) struct FileTableUsage {
    /// Replica bytes and replica count per raw volume id (the layout of
    /// `VolumeDirectory`), over every replica, valid or not.
    per_volume: Vec<(Bytes, usize)>,
    /// The first replica, in file order, on a volume that is not live or
    /// is owned by a non-storage node.
    ownership_error: Option<String>,
}

impl FileTableUsage {
    /// Bytes the file table places on `vol`.
    pub(crate) fn used(&self, vol: VolumeId) -> Bytes {
        self.per_volume
            .get(vol.0 as usize)
            .map_or(0, |&(bytes, _)| bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FileId;

    /// The test-only references the dense audit and the oracle's shared
    /// file-table pass are checked against.
    impl Cluster {
        /// The audit as it stood with a `BTreeMap` of per-volume totals,
        /// an allocated views rebuild and a tracker grown by `update`.
        fn audit_btreemap_reference(&self) -> Result<(), String> {
            let mut recomputed: BTreeMap<VolumeId, Bytes> = BTreeMap::new();
            for (fid, meta) in &self.files {
                for r in &meta.replicas {
                    let Some(owner) = self.volume_owner.get(&r.volume) else {
                        return Err(format!(
                            "file {fid:?} has a replica on unknown volume {:?}",
                            r.volume
                        ));
                    };
                    if !self.storage.contains_key(owner) {
                        return Err(format!(
                            "volume {:?} is owned by {owner:?}, which is not a storage node",
                            r.volume
                        ));
                    }
                    *recomputed.entry(r.volume).or_insert(0) += r.bytes;
                }
            }
            let mut vols_seen = 0usize;
            for (nid, node) in &self.storage {
                for v in &node.volumes {
                    vols_seen += 1;
                    if self.volume_owner.get(&v.id) != Some(nid) {
                        return Err(format!(
                            "volume {:?} listed on node {nid:?} but volume_owner says {:?}",
                            v.id,
                            self.volume_owner.get(&v.id)
                        ));
                    }
                    let expect = recomputed.get(&v.id).copied().unwrap_or(0);
                    if v.used != expect {
                        return Err(format!(
                            "volume {:?} on node {nid:?}: incremental used = {} bytes \
                             but the file table accounts for {} bytes",
                            v.id, v.used, expect
                        ));
                    }
                    if v.used > v.capacity {
                        return Err(format!(
                            "volume {:?} on node {nid:?}: used {} exceeds capacity {}",
                            v.id, v.used, v.capacity
                        ));
                    }
                }
            }
            if vols_seen != self.volume_owner.len() {
                return Err(format!(
                    "volume_owner tracks {} volumes but storage nodes hold {}",
                    self.volume_owner.len(),
                    vols_seen
                ));
            }
            // The streaming utilization stats and the online count are
            // maintained incrementally at every mutation site; rebuild both
            // from the node tables and fail on any drift.
            let mut fresh = UtilTracker::new();
            let mut online = 0usize;
            for (nid, node) in &self.storage {
                if node.online {
                    online += 1;
                }
                if let Some(q) = node.util_q() {
                    fresh.update(*nid, Some(q));
                }
            }
            if fresh != self.util_stats {
                return Err(format!(
                    "streaming utilization stats drifted from the node tables: \
                     tracked {} nodes Σq={} max={:?} but recomputation gives \
                     {} nodes Σq={} max={:?}",
                    self.util_stats.count(),
                    self.util_stats.sum_q(),
                    self.util_stats.max_q(),
                    fresh.count(),
                    fresh.sum_q(),
                    fresh.max_q()
                ));
            }
            if online != self.online_storage_nodes {
                return Err(format!(
                    "online storage count drifted: tracked {} but {} nodes are online",
                    self.online_storage_nodes, online
                ));
            }
            // The SoA hot columns (online/volumes/used/capacity per arena slot)
            // feed totals and placement scans; recompute every row from the
            // node structs and require empty slots to hold the default row.
            let hot = self.storage.hot_rows();
            for (nid, node) in &self.storage {
                let want = NodeHot::of(node);
                let got = hot.get(nid.0 as usize).copied().unwrap_or_default();
                if got != want {
                    return Err(format!(
                        "hot columns drifted for node {nid:?}: row {got:?} \
                         but the node recomputes to {want:?}"
                    ));
                }
            }
            for (i, row) in hot.iter().enumerate() {
                if self.storage.get(&NodeId(i as u32)).is_none() && *row != NodeHot::default() {
                    return Err(format!(
                        "empty arena slot {i} holds a non-default hot row {row:?}"
                    ));
                }
            }
            // A fresh canonical-views cache must agree with a from-scratch
            // rebuild (fill mutations patch it in place).
            if self.views_built == Some(self.generation) {
                let rebuilt = self.volume_views();
                if rebuilt != self.views_cache {
                    return Err(format!(
                        "canonical views cache drifted: {} cached vs {} rebuilt entries, \
                         first mismatch {:?}",
                        self.views_cache.len(),
                        rebuilt.len(),
                        rebuilt
                            .iter()
                            .zip(&self.views_cache)
                            .find(|(a, b)| a != b)
                            .map(|(a, _)| a.volume)
                    ));
                }
            }
            Ok(())
        }

        /// Bytes on `vol` summed by its own full file-table scan, as the
        /// crash oracle computed them per checked volume.
        fn recomputed_used(&self, vol: VolumeId) -> Bytes {
            self.files
                .values()
                .flat_map(|m| m.replicas.iter())
                .filter(|r| r.volume == vol)
                .map(|r| r.bytes)
                .sum()
        }
    }

    fn cluster_with(nodes: u32, vols_per: u32, cap: Bytes) -> Cluster {
        let mut c = Cluster::new();
        c.add_mgmt(6);
        for _ in 0..nodes {
            c.add_storage(vols_per, cap);
        }
        c
    }

    #[test]
    fn store_and_free_conserve_bytes() {
        let mut c = cluster_with(3, 1, 1000);
        let vid = c.volume_views()[0].volume;
        c.store(FileId(1), vid, 400).unwrap();
        assert_eq!(c.total_used(), 400);
        assert_eq!(c.free_file(FileId(1)), 400);
        assert_eq!(c.total_used(), 0);
    }

    #[test]
    fn store_rejects_overflow() {
        let mut c = cluster_with(1, 1, 100);
        let vid = c.volume_views()[0].volume;
        assert!(matches!(
            c.store(FileId(1), vid, 200),
            Err(SimError::OutOfSpace { .. })
        ));
        assert_eq!(c.total_used(), 0);
    }

    #[test]
    fn migrate_moves_bytes_between_volumes() {
        let mut c = cluster_with(2, 1, 1000);
        let views = c.volume_views();
        let (a, b) = (views[0].volume, views[1].volume);
        c.store(FileId(1), a, 300).unwrap();
        let moved = c.migrate(FileId(1), a, b, 300).unwrap();
        assert_eq!(moved, 300);
        assert_eq!(c.volume(a).unwrap().used, 0);
        assert_eq!(c.volume(b).unwrap().used, 300);
        assert_eq!(c.files[&FileId(1)].replicas[0].volume, b);
    }

    #[test]
    fn lossy_migration_sheds_bytes() {
        let mut c = cluster_with(2, 1, 1000);
        let views = c.volume_views();
        let (a, b) = (views[0].volume, views[1].volume);
        c.store(FileId(1), a, 300).unwrap();
        c.migrate(FileId(1), a, b, 100).unwrap();
        assert_eq!(c.total_used(), 100, "200 bytes were lost in migration");
        assert_eq!(c.files[&FileId(1)].replicas[0].bytes, 100);
    }

    #[test]
    fn microsteps_match_atomic_migrate() {
        use crate::crash::{fragment_bytes, fragment_count};
        use crate::types::MIB;
        // (replica bytes, kept bytes): one to four fragments (the count
        // clamps at four), with and without bytes lost in flight.
        let cases = [
            (100 * MIB, 100 * MIB),
            (900 * MIB, 300 * MIB),
            (600 * MIB, 600 * MIB),
            (1 << 30, 1 << 30),
            (3 << 30, (1 << 30) + 1),
            (200 * MIB, 0),
        ];
        let mut seen_frags = Vec::new();
        for (bytes, kept) in cases {
            let build = || {
                let mut c = cluster_with(3, 2, 8 << 30);
                let views = c.volume_views();
                c.store(FileId(1), views[0].volume, bytes).unwrap();
                c.store(FileId(1), views[2].volume, bytes).unwrap();
                c.store(FileId(2), views[4].volume, 5 * MIB).unwrap();
                // A fresh views cache, so both paths patch it in place.
                let _ = c.canonical_views();
                (c, views[0].volume, views[4].volume)
            };
            let (mut atomic, from, to) = build();
            let (mut stepped, _, _) = build();
            let moved = atomic.migrate(FileId(1), from, to, kept).unwrap();
            let frags = fragment_count(kept);
            seen_frags.push(frags);
            for i in 0..frags {
                stepped
                    .migrate_copy(to, fragment_bytes(kept, frags, i))
                    .unwrap();
            }
            let swapped = stepped
                .migrate_commit_swap(FileId(1), from, to, kept)
                .unwrap();
            assert_eq!(swapped, moved);
            stepped.migrate_commit_account(from, moved);

            let label = format!("{bytes} bytes keeping {kept} in {frags} fragments");
            assert_eq!(stepped.volume_views(), atomic.volume_views(), "{label}");
            assert_eq!(stepped.files(), atomic.files(), "{label}");
            assert_eq!(stepped.util_stats(), atomic.util_stats(), "{label}");
            assert_eq!(
                stepped.canonical_views(),
                atomic.canonical_views(),
                "{label}"
            );
            assert!(cache_matches_rebuild(&mut stepped), "{label}");
            atomic.audit().unwrap();
            stepped.audit().unwrap();
        }
        for n in 1..=4 {
            assert!(seen_frags.contains(&n), "no {n}-fragment case");
        }
    }

    #[test]
    fn remove_storage_returns_displaced_replicas() {
        let mut c = cluster_with(2, 1, 1000);
        let views = c.volume_views();
        let (a_vol, a_node) = (views[0].volume, views[0].node);
        c.store(FileId(1), a_vol, 250).unwrap();
        let displaced = c.remove_storage(a_node).unwrap();
        assert_eq!(displaced.len(), 1);
        assert_eq!(displaced[0].0, FileId(1));
        assert_eq!(displaced[0].1.bytes, 250);
        assert!(c.files[&FileId(1)].replicas.is_empty());
    }

    #[test]
    fn cannot_remove_last_storage_node() {
        let mut c = cluster_with(1, 1, 1000);
        let node = c.online_storage()[0];
        assert!(matches!(c.remove_storage(node), Err(SimError::LastNode(_))));
    }

    #[test]
    fn cannot_remove_last_mgmt_node() {
        let mut c = cluster_with(1, 1, 1000);
        let m = c.online_mgmt()[0];
        assert!(matches!(c.remove_mgmt(m), Err(SimError::LastNode(_))));
    }

    #[test]
    fn reduce_volume_respects_stored_data() {
        let mut c = cluster_with(1, 1, 1000);
        let vid = c.volume_views()[0].volume;
        c.store(FileId(1), vid, 600).unwrap();
        assert!(matches!(
            c.reduce_volume(vid, 500),
            Err(SimError::VolumeBusy { .. })
        ));
        c.reduce_volume(vid, 300).unwrap();
        assert_eq!(c.volume(vid).unwrap().capacity, 700);
    }

    #[test]
    fn expand_volume_grows_capacity() {
        let mut c = cluster_with(1, 1, 1000);
        let vid = c.volume_views()[0].volume;
        c.expand_volume(vid, 500).unwrap();
        assert_eq!(c.volume(vid).unwrap().capacity, 1500);
        assert_eq!(c.total_capacity(), 1500);
    }

    #[test]
    fn rescale_file_scales_fragments_proportionally() {
        let mut c = cluster_with(2, 1, 10_000);
        let views = c.volume_views();
        // A striped file: 100 B on one volume, 300 B on another (logical
        // size 400, single copy).
        c.store(FileId(1), views[0].volume, 100).unwrap();
        c.store(FileId(1), views[1].volume, 300).unwrap();
        c.rescale_file(FileId(1), 400, 800).unwrap();
        assert_eq!(c.files[&FileId(1)].replicas[0].bytes, 200);
        assert_eq!(c.files[&FileId(1)].replicas[1].bytes, 600);
        c.rescale_file(FileId(1), 800, 200).unwrap();
        assert_eq!(c.total_used(), 200);
    }

    #[test]
    fn rescale_file_growth_is_atomic() {
        let mut c = cluster_with(2, 1, 300);
        let views = c.volume_views();
        c.store(FileId(1), views[0].volume, 100).unwrap();
        c.store(FileId(1), views[1].volume, 100).unwrap();
        // Fill volume 1 so growth fails there.
        c.store(FileId(2), views[1].volume, 180).unwrap();
        assert!(c.rescale_file(FileId(1), 100, 250).is_err());
        // Nothing changed.
        assert_eq!(c.files[&FileId(1)].replicas[0].bytes, 100);
        assert_eq!(c.files[&FileId(1)].replicas[1].bytes, 100);

        // Two fragments on one volume: each one's growth (50 B and 100 B)
        // fits the 130 B free, but together (150 B) they do not.
        let mut c = cluster_with(1, 1, 280);
        let vol = c.volume_views()[0].volume;
        c.store(FileId(1), vol, 50).unwrap();
        c.store(FileId(1), vol, 100).unwrap();
        assert!(matches!(
            c.rescale_file(FileId(1), 150, 300),
            Err(SimError::OutOfSpace {
                requested: 150,
                free: 130
            })
        ));
        assert_eq!(c.files[&FileId(1)].replicas[0].bytes, 50);
        assert_eq!(c.files[&FileId(1)].replicas[1].bytes, 100);
        assert_eq!(c.volume(vol).unwrap().used, 150);
        c.audit().unwrap();
    }

    #[test]
    fn rescale_to_zero_drops_fragments() {
        let mut c = cluster_with(2, 1, 1000);
        let views = c.volume_views();
        c.store(FileId(1), views[0].volume, 100).unwrap();
        c.rescale_file(FileId(1), 100, 0).unwrap();
        assert_eq!(c.total_used(), 0);
        assert!(c.files[&FileId(1)].replicas.is_empty());
    }

    #[test]
    fn remove_volume_displaces_data_and_clears_linkfile() {
        let mut c = cluster_with(2, 2, 1000);
        let views = c.volume_views();
        let v0 = views[0].volume;
        c.store(FileId(1), v0, 100).unwrap();
        // detlint:allow(journal-coverage): test seeds a stale linkfile directly; journaling is off in unit tests
        c.files.get_mut(&FileId(1)).unwrap().linkfile_at = Some(v0);
        let displaced = c.remove_volume(v0).unwrap();
        assert_eq!(displaced.len(), 1);
        assert_eq!(c.files[&FileId(1)].linkfile_at, None);
        assert!(c.volume(v0).is_none());
    }

    #[test]
    fn set_offline_hides_node_from_views() {
        let mut c = cluster_with(2, 1, 1000);
        let node = c.online_storage()[0];
        assert_eq!(c.volume_views().len(), 2);
        c.set_offline(node);
        assert_eq!(c.volume_views().len(), 1);
        assert_eq!(c.online_storage().len(), 1);
    }

    #[test]
    fn generation_tracks_view_changing_mutations_only() {
        let mut c = cluster_with(2, 1, 1000);
        let g0 = c.generation();
        // Fill-level changes do not bump the generation.
        let vid = c.volume_views()[0].volume;
        c.store(FileId(1), vid, 100).unwrap();
        c.free_file(FileId(1));
        c.add_mgmt(4);
        assert_eq!(c.generation(), g0);
        // Every view-changing mutation bumps it.
        let (node, _) = c.add_storage(1, 1000);
        assert_eq!(c.generation(), g0 + 1);
        let v = c.add_volume(node, 1000).unwrap();
        assert_eq!(c.generation(), g0 + 2);
        c.expand_volume(v, 10).unwrap();
        assert_eq!(c.generation(), g0 + 3);
        c.reduce_volume(v, 10).unwrap();
        assert_eq!(c.generation(), g0 + 4);
        c.remove_volume(v).unwrap();
        assert_eq!(c.generation(), g0 + 5);
        c.set_offline(node);
        assert_eq!(c.generation(), g0 + 6);
        let other = c.online_storage()[0];
        assert!(c.remove_storage(other).is_err() || c.generation() > g0 + 6);
        // Failed mutations leave the counter alone.
        let g = c.generation();
        assert!(c.add_volume(NodeId(9999), 10).is_err());
        assert_eq!(c.generation(), g);
    }

    #[test]
    fn volume_views_into_matches_allocating_variant() {
        let mut c = cluster_with(3, 2, 1000);
        let vid = c.volume_views()[2].volume;
        c.store(FileId(7), vid, 123).unwrap();
        let mut buf = vec![VolumeView {
            volume: VolumeId(999),
            node: NodeId(999),
            capacity: 0,
            used: 0,
            online: false,
        }];
        c.volume_views_into(&mut buf);
        assert_eq!(buf, c.volume_views());
    }

    #[test]
    fn node_ids_lists_everyone() {
        let c = cluster_with(2, 1, 1000);
        let ids = c.node_ids();
        assert_eq!(ids.len(), 3);
        assert_eq!(
            ids.iter()
                .filter(|(_, r, _)| *r == NodeRole::Management)
                .count(),
            1
        );
    }

    #[test]
    fn checkpoint_rewinds_file_and_topology_mutations() {
        let mut c = cluster_with(2, 1, 10_000);
        let views = c.volume_views();
        let (a, b) = (views[0].volume, views[1].volume);
        c.store(FileId(1), a, 300).unwrap();
        let cp = c.checkpoint();
        let gen0 = c.generation();

        c.migrate(FileId(1), a, b, 300).unwrap();
        c.store(FileId(2), b, 50).unwrap();
        c.free_file(FileId(1));
        c.rescale_file(FileId(2), 50, 200).unwrap();
        let (node, _) = c.add_storage(1, 10_000);
        c.set_offline(node);
        assert_ne!(c.generation(), gen0);

        c.restore_to(&cp);
        assert_eq!(c.generation(), gen0);
        assert_eq!(c.storage.len(), 2);
        assert_eq!(c.files[&FileId(1)].replicas[0].volume, a);
        assert_eq!(c.files[&FileId(1)].replicas[0].bytes, 300);
        assert!(!c.files.contains_key(&FileId(2)));
        assert_eq!(c.total_used(), 300);
        assert_eq!(c.volume(a).unwrap().used, 300);
        assert_eq!(c.volume(b).unwrap().used, 0);
    }

    #[test]
    fn checkpoint_rewinds_node_removal_with_displaced_replicas() {
        let mut c = cluster_with(3, 2, 1000);
        let views = c.volume_views();
        c.store(FileId(1), views[0].volume, 100).unwrap();
        c.store(FileId(2), views[1].volume, 200).unwrap();
        c.file_mut(FileId(2)).unwrap().linkfile_at = Some(views[0].volume);
        let cp = c.checkpoint();

        c.remove_storage(views[0].node).unwrap();
        assert!(c.files[&FileId(1)].replicas.is_empty());
        assert_eq!(c.files[&FileId(2)].linkfile_at, None);

        c.restore_to(&cp);
        assert_eq!(c.storage.len(), 3);
        assert_eq!(c.files[&FileId(1)].replicas.len(), 1);
        assert_eq!(c.files[&FileId(2)].linkfile_at, Some(views[0].volume));
        assert_eq!(c.total_used(), 300);
    }

    #[test]
    fn checkpoints_nest_along_one_lineage() {
        let mut c = cluster_with(1, 1, 10_000);
        let v = c.volume_views()[0].volume;
        let base = c.checkpoint();
        c.store(FileId(1), v, 10).unwrap();
        let mid = c.checkpoint();
        c.store(FileId(2), v, 20).unwrap();
        c.restore_to(&mid);
        assert!(c.files.contains_key(&FileId(1)));
        assert!(!c.files.contains_key(&FileId(2)));
        c.restore_to(&base);
        assert!(c.files.is_empty());
        assert_eq!(c.total_used(), 0);

        // Three nested marks whose segments all re-touch file 1: each
        // segment keeps its own first-touch pre-image, so restoring the
        // innermost mark and then the outermost lands exactly on each.
        c.store(FileId(1), v, 10).unwrap();
        let outer = c.checkpoint();
        c.rescale_file(FileId(1), 10, 20).unwrap();
        let _middle = c.checkpoint();
        c.rescale_file(FileId(1), 20, 30).unwrap();
        c.store(FileId(2), v, 7).unwrap();
        let inner = c.checkpoint();
        c.rescale_file(FileId(1), 30, 60).unwrap();
        c.free_file(FileId(2));
        c.rescale_file(FileId(1), 60, 90).unwrap();
        assert_eq!(
            c.journal.len() - inner.files_mark,
            2,
            "one record per file touched since the mark"
        );
        c.restore_to(&inner);
        assert_eq!(c.files[&FileId(1)].replicas[0].bytes, 30);
        assert_eq!(c.files[&FileId(2)].replicas[0].bytes, 7);
        assert_eq!(c.total_used(), 37);
        c.restore_to(&outer);
        assert_eq!(c.files[&FileId(1)].replicas[0].bytes, 10);
        assert!(!c.files.contains_key(&FileId(2)));
        assert_eq!(c.total_used(), 10);
        c.audit().unwrap();
    }

    #[test]
    fn audit_accepts_consistent_state() {
        let mut c = cluster_with(3, 2, 10_000);
        let views = c.volume_views();
        c.store(FileId(1), views[0].volume, 400).unwrap();
        c.store(FileId(2), views[1].volume, 250).unwrap();
        c.audit()
            .expect("incrementally built state must audit clean");
        c.free_file(FileId(1));
        c.audit().expect("frees must keep accounting consistent");
    }

    #[test]
    fn audit_catches_counter_drift() {
        let mut c = cluster_with(2, 1, 10_000);
        let vid = c.volume_views()[0].volume;
        c.store(FileId(1), vid, 400).unwrap();
        // Bypass the journaling accessors — exactly the corruption a buggy
        // undo-log rewind would produce.
        let owner = c.volume_owner[&vid];
        // detlint:allow(journal-coverage): deliberate counter corruption to exercise the auditor
        c.storage.get_mut(&owner).unwrap().volumes[0].used += 1;
        let err = c.audit().unwrap_err();
        assert!(err.contains("file table"), "unexpected message: {err}");
    }

    #[test]
    fn audit_catches_ownership_divergence() {
        let mut c = cluster_with(2, 1, 10_000);
        let vid = c.volume_views()[0].volume;
        // detlint:allow(journal-coverage): deliberate ownership corruption to exercise the auditor
        c.volume_owner.remove(&vid);
        assert!(c.audit().is_err());
    }

    /// Drives every mutation primitive and asserts the streaming stats
    /// stay exactly equal to a recomputation (via `audit`) throughout.
    #[test]
    fn streaming_stats_follow_every_mutation() {
        let mut c = cluster_with(3, 2, 10_000);
        assert_eq!(c.online_storage_count(), 3);
        assert_eq!(c.util_stats().count(), 3);
        assert_eq!(c.util_stats().sum_q(), 0);

        let views = c.volume_views();
        c.store(FileId(1), views[0].volume, 5_000).unwrap();
        c.audit().unwrap();
        assert_eq!(
            c.util_stats().max_q(),
            Some(crate::loadstats::quantize(5_000, 20_000))
        );
        assert!(c.util_stats().imbalance_ratio() > 2.9);

        c.store(FileId(2), views[2].volume, 2_000).unwrap();
        c.migrate(FileId(1), views[0].volume, views[3].volume, 5_000)
            .unwrap();
        c.audit().unwrap();

        let node0 = views[0].node;
        c.set_offline(node0);
        c.audit().unwrap();
        assert_eq!(c.online_storage_count(), 2);
        assert_eq!(c.util_stats().count(), 2);
        // Offline twice is a no-op, not a double decrement.
        c.set_offline(node0);
        assert_eq!(c.online_storage_count(), 2);
        c.set_online(node0);
        c.audit().unwrap();
        assert_eq!(c.online_storage_count(), 3);

        c.set_volumes_full(node0);
        c.audit().unwrap();

        let (nid, vids) = c.add_storage(1, 10_000);
        c.audit().unwrap();
        assert_eq!(c.online_storage_count(), 4);
        c.free_file(FileId(2));
        c.rescale_file(FileId(1), 5_000, 1_000).unwrap();
        c.audit().unwrap();
        c.expand_volume(vids[0], 500).unwrap();
        c.reduce_volume(vids[0], 500).unwrap();
        c.audit().unwrap();
        let extra = c.add_volume(nid, 4_000).unwrap();
        c.audit().unwrap();
        c.remove_volume(extra).unwrap();
        c.remove_storage(nid).unwrap();
        c.audit().unwrap();
        assert_eq!(c.online_storage_count(), 3);
    }

    #[test]
    fn checkpoint_restores_streaming_stats_exactly() {
        let mut c = cluster_with(2, 1, 10_000);
        let views = c.volume_views();
        c.store(FileId(1), views[0].volume, 300).unwrap();
        let cp = c.checkpoint();
        let stats0 = c.util_stats().clone();

        c.store(FileId(2), views[1].volume, 800).unwrap();
        c.set_offline(views[1].node);
        let (nid, _) = c.add_storage(2, 10_000);
        c.store(FileId(3), c.storage[&nid].volumes[0].id, 50)
            .unwrap();
        assert_ne!(c.util_stats(), &stats0);

        c.restore_to(&cp);
        assert_eq!(c.util_stats(), &stats0);
        assert_eq!(c.online_storage_count(), 2);
        c.audit().unwrap();
    }

    fn cache_matches_rebuild(c: &mut Cluster) -> bool {
        let cached = c.canonical_views().to_vec();
        cached == c.volume_views()
    }

    #[test]
    fn canonical_views_cache_tracks_fills_and_topology() {
        let mut c = cluster_with(3, 2, 10_000);
        assert!(cache_matches_rebuild(&mut c));
        let vid = c.volume_views()[1].volume;

        // Fill change: patched in place, no rebuild.
        c.store(FileId(1), vid, 123).unwrap();
        let pos = c.view_pos(vid).expect("cache fresh");
        assert_eq!(c.canonical_views()[pos].used, 123);
        assert!(cache_matches_rebuild(&mut c));
        c.audit().unwrap();

        // Topology change: the cache is rebuilt lazily.
        let (nid, _) = c.add_storage(1, 10_000);
        assert_eq!(c.view_pos(vid), None, "generation moved, cache stale");
        assert!(cache_matches_rebuild(&mut c));
        c.set_offline(nid);
        assert!(cache_matches_rebuild(&mut c));
        c.audit().unwrap();
    }

    #[test]
    fn speculative_view_bumps_roll_back_exactly() {
        let mut c = cluster_with(2, 1, 10_000);
        let vid = c.volume_views()[0].volume;
        c.store(FileId(1), vid, 100).unwrap();
        let _ = c.canonical_views();
        let pos = c.view_pos(vid).unwrap();
        let old = c.bump_view_used(pos, 4_000);
        assert_eq!(old, 100);
        assert_eq!(c.canonical_views()[pos].used, 4_100);
        c.set_view_used(pos, old);
        assert!(cache_matches_rebuild(&mut c));
        c.audit().unwrap();
    }

    #[test]
    fn bulk_load_rebuild_matches_incremental_maintenance() {
        let mut a = cluster_with(3, 2, 10_000);
        let mut b = cluster_with(3, 2, 10_000);
        let views = a.volume_views();
        b.begin_bulk_load();
        for (i, v) in views.iter().enumerate() {
            let fid = FileId(i as u64 + 1);
            let bytes = 100 * (i as Bytes + 1);
            a.store(fid, v.volume, bytes).unwrap();
            b.store(fid, v.volume, bytes).unwrap();
        }
        b.end_bulk_load();
        assert_eq!(a.util_stats(), b.util_stats());
        assert_eq!(a.total_used(), b.total_used());
        a.audit().unwrap();
        b.audit().unwrap();
        let av = a.canonical_views().to_vec();
        assert_eq!(av, b.canonical_views());
    }

    #[test]
    fn audit_catches_hot_column_drift() {
        let mut c = cluster_with(2, 1, 10_000);
        let node = c.online_storage()[0];
        // An offline node is invisible to the file-table and streaming
        // checks, so a stale hot row is exactly what the hot-column audit
        // exists to catch.
        c.set_offline(node);
        // detlint:allow(journal-coverage): deliberate hot-column corruption to exercise the auditor
        c.storage.get_mut(&node).unwrap().volumes[0].capacity += 7;
        let err = c.audit().unwrap_err();
        assert!(err.contains("hot columns"), "unexpected message: {err}");
    }

    #[test]
    fn audit_catches_streaming_stats_drift() {
        let mut c = cluster_with(2, 1, 10_000);
        let vid = c.volume_views()[0].volume;
        c.store(FileId(1), vid, 400).unwrap();
        // Corrupt the tracker the way a missed mutation-site update would.
        let owner = c.volume_owner[&vid];
        c.util_stats.update(owner, Some(0));
        let err = c.audit().unwrap_err();
        assert!(err.contains("streaming"), "unexpected message: {err}");
    }

    /// Requires [`Cluster::audit`] to give the reference's verdict, the
    /// same `Ok` or the same error string, and the shared file-table pass
    /// to give the reference per-volume totals on every volume id,
    /// including ids past `next_volume`. Returns the verdict.
    fn matches_reference(c: &Cluster, at: &str) -> Result<(), String> {
        let want = c.audit_btreemap_reference();
        assert_eq!(c.audit(), want, "{at}");
        let usage = c.file_table_usage();
        for vol in (0..c.next_volume + 4).map(VolumeId) {
            assert_eq!(usage.used(vol), c.recomputed_used(vol), "{at}: {vol:?}");
        }
        want
    }

    /// The first volume holding data, with its owner.
    fn data_volume(c: &Cluster) -> (NodeId, VolumeId) {
        c.storage
            .values()
            .flat_map(|n| n.volumes.iter().map(move |v| (n.id, v)))
            .find(|(_, v)| v.used > 0)
            .map(|(n, v)| (n, v.id))
            .expect("some volume holds data")
    }

    /// A replica of the first file holding data moved onto `vol`.
    fn misplace_replica(c: &mut Cluster, vol: VolumeId) {
        let fid = c
            .files
            .iter()
            .find(|(_, m)| !m.replicas.is_empty())
            .map(|(&fid, _)| fid)
            .expect("some file holds data");
        // detlint:allow(journal-coverage): deliberate file-table corruption for the audit differential
        c.files.get_mut(&fid).unwrap().replicas.push(Replica {
            volume: vol,
            bytes: 7,
        });
    }

    /// Two tracked nodes at different utilizations, for a leaf swap that
    /// keeps the count, both sums and the maximum.
    fn unequal_pair(c: &Cluster) -> ((NodeId, u64), (NodeId, u64)) {
        let tracked: Vec<(NodeId, u64)> = c
            .storage
            .keys()
            .filter_map(|&n| c.util_stats.get(n).map(|q| (n, q)))
            .collect();
        let a = tracked[0];
        let b = *tracked
            .iter()
            .find(|(_, q)| *q != a.1)
            .expect("unequal fills");
        (a, b)
    }

    /// A named corruption, applied to its own copy of a cluster.
    type Corruption = (&'static str, fn(&mut Cluster));

    /// Every corruption of the differential test.
    fn corruptions() -> Vec<Corruption> {
        vec![
            ("used one above the file table", |c| {
                let (n, v) = data_volume(c);
                // detlint:allow(journal-coverage): deliberate counter corruption for the audit differential
                c.storage.get_mut(&n).unwrap().volume_mut(v).unwrap().used += 1;
            }),
            ("used one below the file table", |c| {
                let (n, v) = data_volume(c);
                // detlint:allow(journal-coverage): deliberate counter corruption for the audit differential
                c.storage.get_mut(&n).unwrap().volume_mut(v).unwrap().used -= 1;
            }),
            ("replica on the lowest id volume_owner lacks", |c| {
                let vol = (0..)
                    .map(VolumeId)
                    .find(|v| !c.volume_owner.contains_key(v))
                    .unwrap();
                misplace_replica(c, vol);
            }),
            ("replica at next_volume", |c| {
                misplace_replica(c, VolumeId(c.next_volume))
            }),
            ("replica past next_volume", |c| {
                misplace_replica(c, VolumeId(c.next_volume + 3))
            }),
            ("volume holding data dropped from volume_owner", |c| {
                let (_, v) = data_volume(c);
                // detlint:allow(journal-coverage): deliberate ownership corruption for the audit differential
                c.volume_owner.remove(&v);
            }),
            ("volume holding data owned by a management node", |c| {
                let (_, v) = data_volume(c);
                let m = *c.mgmt.keys().next().unwrap();
                // detlint:allow(journal-coverage): deliberate ownership corruption for the audit differential
                c.volume_owner.insert(v, m);
            }),
            ("used above capacity with the file table agreeing", |c| {
                let (n, v) = data_volume(c);
                // detlint:allow(journal-coverage): deliberate capacity corruption for the audit differential
                let vol = c.storage.get_mut(&n).unwrap().volume_mut(v).unwrap();
                vol.capacity = vol.used - 1;
            }),
            ("volume_owner names another storage node", |c| {
                let last = c.storage.values().last().unwrap();
                let (vol, owner) = (last.volumes[0].id, last.id);
                let other = *c.storage.keys().find(|&&n| n != owner).unwrap();
                // detlint:allow(journal-coverage): deliberate ownership corruption for the audit differential
                c.volume_owner.insert(vol, other);
            }),
            ("volume_owner lacks a listed volume", |c| {
                let vol = c.storage.values().last().unwrap().volumes[0].id;
                // detlint:allow(journal-coverage): deliberate ownership corruption for the audit differential
                c.volume_owner.remove(&vol);
            }),
            ("volume_owner tracks a volume no node lists", |c| {
                let n = *c.storage.keys().next().unwrap();
                // detlint:allow(journal-coverage): deliberate ownership corruption for the audit differential
                c.volume_owner.insert(VolumeId(c.next_volume), n);
            }),
            ("tracker leaves of two nodes swapped", |c| {
                let ((a, qa), (b, qb)) = unequal_pair(c);
                c.util_stats.update(a, Some(qb));
                c.util_stats.update(b, Some(qa));
            }),
            ("tracker leaf one quantum up", |c| {
                let ((a, qa), _) = unequal_pair(c);
                c.util_stats.update(a, Some(qa + 1));
            }),
            ("tracker sum one quantum up", |c| {
                c.util_stats.corrupt_sum_for_test()
            }),
            ("tracker root one quantum down", |c| {
                c.util_stats.corrupt_root_for_test()
            }),
            ("online count one up", |c| c.online_storage_nodes += 1),
            ("hot row of a live node drifted", |c| {
                let n = c.storage.keys().last().unwrap().0 as usize;
                // detlint:allow(journal-coverage): deliberate hot-column corruption for the audit differential
                c.storage.hot_rows_mut()[n].used += 1;
            }),
            ("non-default hot row in an empty arena slot", |c| {
                let hole = (0..c.storage.hot_rows().len())
                    .find(|&i| c.storage.get(&NodeId(i as u32)).is_none())
                    .expect("an empty arena slot");
                // detlint:allow(journal-coverage): deliberate hot-column corruption for the audit differential
                c.storage.hot_rows_mut()[hole].capacity = 1;
            }),
            ("fresh views cache entry changed", |c| {
                let mid = c.canonical_views().len() / 2;
                // detlint:allow(journal-coverage): deliberate views-cache corruption for the audit differential
                c.views_cache[mid].used += 1;
            }),
            ("fresh views cache entry added", |c| {
                let first = c.canonical_views()[0];
                // detlint:allow(journal-coverage): deliberate views-cache corruption for the audit differential
                c.views_cache.push(first);
            }),
            ("fresh views cache entry missing", |c| {
                let _ = c.canonical_views();
                // detlint:allow(journal-coverage): deliberate views-cache corruption for the audit differential
                c.views_cache.pop();
            }),
        ]
    }

    /// Checks `c` itself and every corruption of a copy of it against the
    /// reference; each corruption must fail the reference.
    fn corrupt_each(c: &Cluster, at: &str) {
        let _ = matches_reference(c, at);
        let mut fresh = c.clone();
        let _ = fresh.canonical_views();
        let _ = matches_reference(&fresh, &format!("{at}, views cache fresh"));
        for (name, corrupt) in corruptions() {
            let mut bad = c.clone();
            corrupt(&mut bad);
            let verdict = matches_reference(&bad, &format!("{at}: {name}"));
            assert!(verdict.is_err(), "{at}: {name} passed the reference audit");
        }
    }

    #[test]
    fn audit_matches_btreemap_reference() {
        use crate::flavor::Flavor;
        use crate::request::DfsRequest;
        use crate::sim::{BugSet, DfsSim};
        use crate::types::MIB;

        /// Runs one request, then checks the clean state against the
        /// reference; returns whether the request succeeded.
        fn step(s: &mut DfsSim, req: DfsRequest, at: &str) -> bool {
            let ok = s.execute(&req).is_ok();
            matches_reference(s.cluster(), &format!("{at}: {req:?}")).unwrap();
            ok
        }
        /// Enumerates a rebalance window from the mark, then crashes at
        /// the first point whose label starts with `step`.
        fn crash_at_first(s: &mut DfsSim, mark: u64, step: &str) {
            let drive = |s: &mut DfsSim| {
                s.rebalance();
                for _ in 0..60 {
                    if s.crashed_in_flight().is_some() {
                        return;
                    }
                    s.tick(1_500);
                }
            };
            s.arm_crash_enumeration();
            drive(s);
            let labels = s.disarm_crash();
            let k = labels.iter().position(|l| l.starts_with(step));
            let k = k.unwrap_or_else(|| panic!("no '{step}' point in {labels:?}"));
            assert!(s.restore(mark));
            s.arm_crash_at(k as u64);
            drive(s);
            s.disarm_crash();
            assert!(s.crashed_in_flight().is_some(), "the '{step}' crash fired");
        }

        let add = || DfsRequest::AddStorageNode {
            volumes: 2,
            capacity: 4 << 30,
        };
        for flavor in Flavor::all() {
            let at = format!("{flavor:?}");
            let mut s = DfsSim::new(flavor, BugSet::None);
            for i in 0..30 {
                let size = (12 + i % 9) * MIB;
                let path = format!("/f{i}");
                assert!(step(&mut s, DfsRequest::Create { path, size }, &at));
            }
            // A crash in the window the first node add opens: the victim
            // offline mid-move, then restarted; and a mid-copy crash whose
            // recovery leaves orphan bytes, so the corruptions also meet a
            // state that already fails.
            assert!(step(&mut s, add(), &at));
            let mark = s.fork();
            crash_at_first(&mut s, mark, "plan");
            corrupt_each(s.cluster(), &format!("{at} crashed at plan"));
            s.recover_crashed_machine().unwrap();
            matches_reference(s.cluster(), &at).expect("a plan crash recovers clean");
            corrupt_each(s.cluster(), &format!("{at} recovered from plan"));
            assert!(s.restore(mark));
            crash_at_first(&mut s, mark, "copy");
            s.recover_crashed_machine().unwrap();
            let orphan = matches_reference(s.cluster(), &at);
            assert!(orphan.is_err(), "{at}: a copy crash leaves orphan bytes");
            corrupt_each(s.cluster(), &format!("{at} recovered from copy"));
            assert!(s.restore(mark));
            s.release(mark);

            // Node adds, up to the flavor's limit.
            while step(&mut s, add(), &at) {}
            corrupt_each(s.cluster(), &format!("{at} after node adds"));

            // Removals that leave id holes: a volume, then storage nodes
            // replaced by fresh ids until the arena spans 18 slots.
            let last = s.cluster().storage.values().last().unwrap();
            let volume = last.volumes[0].id;
            assert!(step(&mut s, DfsRequest::RemoveVolume { volume }, &at));
            while s.cluster().storage.hot_rows().len() <= 17 {
                let node = s.cluster().online_storage()[0];
                assert!(step(&mut s, DfsRequest::RemoveStorageNode { node }, &at));
                assert!(step(&mut s, add(), &at));
            }
            corrupt_each(s.cluster(), &format!("{at} after removals"));
        }
    }
}
