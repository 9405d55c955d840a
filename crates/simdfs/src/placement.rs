//! Data placement policies.
//!
//! Each DFS flavor places file replicas with a different algorithm, matching
//! the families the paper names (Section 2.1): hash partitioning (GlusterFS
//! DHT), consistent hashing with virtual nodes (LeoFS ring), CRUSH-style
//! weighted rendezvous hashing (Ceph), and free-space-weighted selection
//! (the HDFS block placement heuristic). All policies are deterministic
//! functions of the placement key and the current volume views.

use crate::hashing::{hash01, mix};
use crate::types::{Bytes, NodeId, VolumeId};

/// A read-only view of one candidate volume offered to a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VolumeView {
    /// The volume.
    pub volume: VolumeId,
    /// The storage node hosting it.
    pub node: NodeId,
    /// Volume capacity in bytes.
    pub capacity: Bytes,
    /// Bytes currently stored.
    pub used: Bytes,
    /// Whether the hosting node is online.
    pub online: bool,
}

impl VolumeView {
    /// Free bytes on the volume.
    pub fn free(&self) -> Bytes {
        self.capacity.saturating_sub(self.used)
    }

    /// Relative weight used by weighted policies (capacity in GiB units;
    /// zero-capacity volumes get a tiny epsilon weight so hashing stays
    /// well-defined).
    pub fn weight(&self) -> f64 {
        (self.capacity as f64 / (1u64 << 30) as f64).max(1e-9)
    }
}

/// A replica placement decision: one volume per replica.
pub type Placement = Vec<VolumeId>;

/// Precomputed, generation-invalidated placement state.
///
/// Ring policies pay an `O(V log V)` ring build per [`PlacementPolicy::place`]
/// call; on the fuzzing hot path that cost dominates. A `PlacementCache`
/// holds each policy's precomputed structures — sorted DHT ring, vnode
/// ring, CRUSH weight table — tagged with the cluster *topology generation*
/// they were built for, plus reusable scoring scratch buffers. The
/// structures index into the canonical `views` slice rather than copying
/// it, so per-call fill levels (`used`) are always read fresh while the
/// membership-dependent parts are rebuilt only when the generation changes
/// (see [`crate::cluster::Cluster::generation`]).
#[derive(Debug, Default)]
pub struct PlacementCache {
    /// `(generation, policy name)` the cached structures were built for.
    built: Option<(u64, &'static str)>,
    /// Ring entries `(hash point, tie-break, view index)`.
    ring: Vec<(u64, u32, u32)>,
    /// Per-view weights (CRUSH straw2).
    weights: Vec<f64>,
    /// Scratch: scored candidates `(score, view index)`.
    scored: Vec<(f64, u32)>,
    /// Scratch: nodes already granted a replica for the current key.
    nodes: Vec<NodeId>,
}

impl PlacementCache {
    /// Creates an empty cache (first use triggers a rebuild).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the cached structures; the next placement rebuilds them.
    /// Required when the cluster object itself is replaced (its generation
    /// counter restarts) rather than mutated.
    pub fn invalidate(&mut self) {
        self.built = None;
    }

    /// Whether the cache currently holds structures built for
    /// `(generation, policy)`.
    pub fn is_fresh(&self, generation: u64, policy: &'static str) -> bool {
        self.built == Some((generation, policy))
    }

    /// Drops the cached structures only if they were built for a topology
    /// generation *newer* than `generation`.
    ///
    /// Used by snapshot restore: rewinding to an earlier point of the same
    /// execution lineage cannot change what any generation `<= generation`
    /// looked like, so such structures remain valid. A cache built for a
    /// later generation must go — the re-executed suffix may reuse the
    /// same generation numbers for a different topology.
    pub fn invalidate_if_newer_than(&mut self, generation: u64) {
        if matches!(self.built, Some((g, _)) if g > generation) {
            self.built = None;
        }
    }
}

/// A deterministic replica placement policy.
pub trait PlacementPolicy: std::fmt::Debug + Send {
    /// Human-readable policy name.
    fn name(&self) -> &'static str;

    /// Chooses up to `replicas` volumes (on distinct nodes where possible)
    /// for the data identified by `key`. `views` lists candidate volumes on
    /// online nodes; policies must not return duplicates. An empty result
    /// means no placement is possible.
    ///
    /// This is the uncached reference path: ring policies rebuild their
    /// ring on every call. The simulator's hot path goes through
    /// [`PlacementPolicy::place_cached`] instead.
    fn place(&self, key: u64, size: Bytes, replicas: usize, views: &[VolumeView]) -> Placement;

    /// Rebuilds `cache`'s precomputed structures for `views`. Called by
    /// [`PlacementPolicy::place_cached`] when the topology generation
    /// changed; policies without precomputable state do nothing.
    fn rebuild(&self, _cache: &mut PlacementCache, _views: &[VolumeView]) {}

    /// Places using `cache`, which must hold structures built by
    /// [`PlacementPolicy::rebuild`] for this exact `views` slice (same
    /// membership and order; `used` fill levels may differ), writing the
    /// chosen volumes into `out` (cleared first). The default falls back
    /// to the uncached path.
    fn place_via(
        &self,
        _cache: &mut PlacementCache,
        key: u64,
        size: Bytes,
        replicas: usize,
        views: &[VolumeView],
        out: &mut Placement,
    ) {
        *out = self.place(key, size, replicas, views);
    }

    /// Cached entry point: rebuilds the cache iff `generation` does not
    /// match what it was built for, then places through it into `out`
    /// (cleared first; reuse one buffer across calls to keep the hot loop
    /// allocation-free). `views` must be the canonical view list for
    /// `generation` — callers that filter or reorder views (e.g.
    /// bug-injected hotspot placement) must use
    /// [`PlacementPolicy::place`] directly.
    #[allow(clippy::too_many_arguments)]
    fn place_cached_into(
        &self,
        cache: &mut PlacementCache,
        generation: u64,
        key: u64,
        size: Bytes,
        replicas: usize,
        views: &[VolumeView],
        out: &mut Placement,
    ) {
        if !cache.is_fresh(generation, self.name()) {
            self.rebuild(cache, views);
            cache.built = Some((generation, self.name()));
        }
        self.place_via(cache, key, size, replicas, views, out);
    }

    /// Allocating convenience wrapper around
    /// [`PlacementPolicy::place_cached_into`].
    fn place_cached(
        &self,
        cache: &mut PlacementCache,
        generation: u64,
        key: u64,
        size: Bytes,
        replicas: usize,
        views: &[VolumeView],
    ) -> Placement {
        let mut out = Vec::new();
        self.place_cached_into(cache, generation, key, size, replicas, views, &mut out);
        out
    }
}

/// Selects up to `replicas` entries from scored candidates, preferring
/// distinct nodes first, then filling with remaining volumes if the cluster
/// has fewer nodes than requested replicas.
fn pick_distinct_nodes(
    mut scored: Vec<(f64, VolumeView)>,
    replicas: usize,
    size: Bytes,
) -> Placement {
    // Sort by score descending; ties broken by volume id for determinism.
    // `total_cmp` keeps the comparator a total order even for NaN scores —
    // `partial_cmp(..).unwrap_or(Equal)` silently made the comparison
    // inconsistent and the resulting order permutation-dependent.
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.volume.cmp(&b.1.volume)));
    let mut out = Vec::with_capacity(replicas);
    let mut used_nodes = Vec::new();
    for (_, v) in scored.iter().filter(|(_, v)| v.free() >= size) {
        if out.len() == replicas {
            break;
        }
        if !used_nodes.contains(&v.node) {
            used_nodes.push(v.node);
            out.push(v.volume);
        }
    }
    // Second pass: allow same-node volumes when nodes are scarce.
    if out.len() < replicas {
        for (_, v) in scored.iter().filter(|(_, v)| v.free() >= size) {
            if out.len() == replicas {
                break;
            }
            if !out.contains(&v.volume) {
                out.push(v.volume);
            }
        }
    }
    out
}

/// Candidates per requested replica that [`pick_distinct_nodes_indexed`]
/// selects and sorts up front; the rest is sorted only if the walk runs
/// past them.
const SORTED_PREFIX_PER_REPLICA: usize = 4;

/// Index-based variant of [`pick_distinct_nodes`] used by the cached path,
/// visiting candidates in the same order without sorting all of them.
///
/// The walk usually ends within the first few candidates, so only a prefix
/// of `SORTED_PREFIX_PER_REPLICA * replicas` is selected (`O(V)` expected)
/// and sorted; the remainder is sorted the first time the walk reaches it
/// (full volumes, same-node collisions, or the second pass). The
/// comparator is a total order and ties only between identical entries,
/// so the visited order equals the full sort's. Reuses the caller's node
/// scratch and output buffers, so a call allocates nothing once the
/// buffers are warm.
fn pick_distinct_nodes_indexed(
    scored: &mut [(f64, u32)],
    views: &[VolumeView],
    replicas: usize,
    size: Bytes,
    used_nodes: &mut Vec<NodeId>,
    out: &mut Placement,
) {
    let cmp = |a: &(f64, u32), b: &(f64, u32)| {
        b.0.total_cmp(&a.0)
            .then_with(|| views[a.1 as usize].volume.cmp(&views[b.1 as usize].volume))
    };
    let mut sorted = (SORTED_PREFIX_PER_REPLICA * replicas).min(scored.len());
    if sorted > 0 && sorted < scored.len() {
        scored.select_nth_unstable_by(sorted - 1, cmp);
    }
    scored[..sorted].sort_unstable_by(cmp);
    used_nodes.clear();
    out.clear();
    // First pass: distinct nodes only; second pass: same-node volumes
    // too, when nodes are scarce.
    for distinct_nodes in [true, false] {
        let mut i = 0;
        while out.len() < replicas && i < scored.len() {
            if i == sorted {
                scored[sorted..].sort_unstable_by(cmp);
                sorted = scored.len();
            }
            let v = &views[scored[i].1 as usize];
            let fresh = if distinct_nodes {
                !used_nodes.contains(&v.node)
            } else {
                !out.contains(&v.volume)
            };
            if v.free() >= size && fresh {
                used_nodes.push(v.node);
                out.push(v.volume);
            }
            i += 1;
        }
    }
}

/// GlusterFS-style DHT hash partitioning.
///
/// Volumes own contiguous arcs of a 64-bit hash ring (one point per volume,
/// positioned by hashing the volume id). A key is placed on the volume whose
/// point is the smallest value ≥ the key hash (wrapping), and further
/// replicas walk the ring clockwise to distinct nodes.
#[derive(Debug, Default, Clone)]
pub struct DhtHashRing;

/// Walks a sorted `(hash, tie-break, view index)` ring clockwise from the
/// key's successor point, preferring distinct nodes, then filling with
/// same-node volumes when `fill_same_node` is set and nodes are scarce.
#[allow(clippy::too_many_arguments)]
fn walk_ring(
    ring: &[(u64, u32, u32)],
    views: &[VolumeView],
    key: u64,
    size: Bytes,
    replicas: usize,
    used_nodes: &mut Vec<NodeId>,
    fill_same_node: bool,
    out: &mut Placement,
) {
    out.clear();
    if ring.is_empty() {
        return;
    }
    let start = ring.partition_point(|&(h, _, _)| h < key) % ring.len();
    used_nodes.clear();
    for i in 0..ring.len() {
        let v = &views[ring[(start + i) % ring.len()].2 as usize];
        if out.len() == replicas {
            break;
        }
        if v.free() >= size && !used_nodes.contains(&v.node) && !out.contains(&v.volume) {
            used_nodes.push(v.node);
            out.push(v.volume);
        }
    }
    if fill_same_node && out.len() < replicas {
        for i in 0..ring.len() {
            let v = &views[ring[(start + i) % ring.len()].2 as usize];
            if out.len() == replicas {
                break;
            }
            if v.free() >= size && !out.contains(&v.volume) {
                out.push(v.volume);
            }
        }
    }
}

impl DhtHashRing {
    fn build_ring(views: &[VolumeView], ring: &mut Vec<(u64, u32, u32)>) {
        ring.clear();
        ring.extend(views.iter().enumerate().map(|(i, v)| {
            (
                mix(v.volume.0 as u64, 0x6c75_7374_6572),
                v.volume.0,
                i as u32,
            )
        }));
        ring.sort_unstable_by_key(|&(h, vol, _)| (h, vol));
    }
}

impl PlacementPolicy for DhtHashRing {
    fn name(&self) -> &'static str {
        "dht-hash-ring"
    }

    fn place(&self, key: u64, size: Bytes, replicas: usize, views: &[VolumeView]) -> Placement {
        let mut ring = Vec::new();
        Self::build_ring(views, &mut ring);
        let mut used_nodes = Vec::new();
        let mut out = Vec::new();
        walk_ring(
            &ring,
            views,
            key,
            size,
            replicas,
            &mut used_nodes,
            true,
            &mut out,
        );
        out
    }

    fn rebuild(&self, cache: &mut PlacementCache, views: &[VolumeView]) {
        Self::build_ring(views, &mut cache.ring);
    }

    fn place_via(
        &self,
        cache: &mut PlacementCache,
        key: u64,
        size: Bytes,
        replicas: usize,
        views: &[VolumeView],
        out: &mut Placement,
    ) {
        walk_ring(
            &cache.ring,
            views,
            key,
            size,
            replicas,
            &mut cache.nodes,
            true,
            out,
        );
    }
}

/// LeoFS-style consistent hashing with virtual nodes.
///
/// Each volume is hashed to `vnodes` points on the ring, smoothing arc sizes
/// and reducing the data moved when membership changes.
#[derive(Debug, Clone)]
pub struct VnodeRing {
    /// Virtual nodes per volume (LeoFS defaults to 168; we scale down).
    pub vnodes: u32,
}

impl Default for VnodeRing {
    fn default() -> Self {
        VnodeRing { vnodes: 32 }
    }
}

impl PlacementPolicy for VnodeRing {
    fn name(&self) -> &'static str {
        "vnode-ring"
    }

    fn place(&self, key: u64, size: Bytes, replicas: usize, views: &[VolumeView]) -> Placement {
        let mut ring = Vec::new();
        self.build_ring(views, &mut ring);
        let mut used_nodes = Vec::new();
        let mut out = Vec::new();
        walk_ring(
            &ring,
            views,
            key,
            size,
            replicas,
            &mut used_nodes,
            false,
            &mut out,
        );
        out
    }

    fn rebuild(&self, cache: &mut PlacementCache, views: &[VolumeView]) {
        self.build_ring(views, &mut cache.ring);
    }

    fn place_via(
        &self,
        cache: &mut PlacementCache,
        key: u64,
        size: Bytes,
        replicas: usize,
        views: &[VolumeView],
        out: &mut Placement,
    ) {
        walk_ring(
            &cache.ring,
            views,
            key,
            size,
            replicas,
            &mut cache.nodes,
            false,
            out,
        );
    }
}

impl VnodeRing {
    fn build_ring(&self, views: &[VolumeView], ring: &mut Vec<(u64, u32, u32)>) {
        ring.clear();
        ring.reserve(views.len() * self.vnodes as usize);
        for (idx, v) in views.iter().enumerate() {
            for vn in 0..self.vnodes {
                ring.push((
                    mix(v.volume.0 as u64, vn as u64 + 1),
                    idx as u32,
                    idx as u32,
                ));
            }
        }
        ring.sort_unstable();
    }
}

/// Ceph-style CRUSH placement, modelled as straw2 (weighted rendezvous
/// hashing): each volume draws a straw `-ln(u) / weight` with `u` a
/// deterministic hash of `(key, volume)`, and the shortest straws win.
#[derive(Debug, Default, Clone)]
pub struct CrushStraw2;

impl PlacementPolicy for CrushStraw2 {
    fn name(&self) -> &'static str {
        "crush-straw2"
    }

    fn place(&self, key: u64, size: Bytes, replicas: usize, views: &[VolumeView]) -> Placement {
        let scored: Vec<(f64, VolumeView)> = views
            .iter()
            .map(|v| {
                let u = hash01(mix(key, v.volume.0 as u64));
                // Larger score wins in `pick_distinct_nodes`; straw2 picks
                // the *minimum* -ln(u)/w, i.e. the maximum of its negation.
                (-(-u.ln() / v.weight()), *v)
            })
            .collect();
        pick_distinct_nodes(scored, replicas, size)
    }

    fn rebuild(&self, cache: &mut PlacementCache, views: &[VolumeView]) {
        cache.weights.clear();
        cache.weights.extend(views.iter().map(VolumeView::weight));
    }

    fn place_via(
        &self,
        cache: &mut PlacementCache,
        key: u64,
        size: Bytes,
        replicas: usize,
        views: &[VolumeView],
        out: &mut Placement,
    ) {
        let weights = &cache.weights;
        let scored = &mut cache.scored;
        scored.clear();
        scored.extend(views.iter().enumerate().map(|(i, v)| {
            let u = hash01(mix(key, v.volume.0 as u64));
            (-(-u.ln() / weights[i]), i as u32)
        }));
        pick_distinct_nodes_indexed(scored, views, replicas, size, &mut cache.nodes, out);
    }
}

/// HDFS-style free-space-weighted placement.
///
/// The NameNode prefers DataNode volumes with more free space; we score by
/// free fraction with a deterministic per-key jitter, reproducing the
/// "available = weighted random" feel of the HDFS block placement policy
/// without nondeterminism.
#[derive(Debug, Default, Clone)]
pub struct FreeSpaceWeighted;

impl PlacementPolicy for FreeSpaceWeighted {
    fn name(&self) -> &'static str {
        "free-space-weighted"
    }

    fn place(&self, key: u64, size: Bytes, replicas: usize, views: &[VolumeView]) -> Placement {
        let scored: Vec<(f64, VolumeView)> =
            views.iter().map(|v| (Self::score(key, v), *v)).collect();
        pick_distinct_nodes(scored, replicas, size)
    }

    // Free-space scores depend on live fill levels, so nothing is
    // precomputable; the cached path still reuses the scoring scratch
    // buffers instead of allocating per call.
    fn place_via(
        &self,
        cache: &mut PlacementCache,
        key: u64,
        size: Bytes,
        replicas: usize,
        views: &[VolumeView],
        out: &mut Placement,
    ) {
        let scored = &mut cache.scored;
        scored.clear();
        scored.extend(
            views
                .iter()
                .enumerate()
                .map(|(i, v)| (Self::score(key, v), i as u32)),
        );
        pick_distinct_nodes_indexed(scored, views, replicas, size, &mut cache.nodes, out);
    }
}

impl FreeSpaceWeighted {
    fn score(key: u64, v: &VolumeView) -> f64 {
        let free_frac = if v.capacity == 0 {
            0.0
        } else {
            v.free() as f64 / v.capacity as f64
        };
        let jitter = hash01(mix(key, v.volume.0 as u64 ^ 0x4846_5353));
        free_frac * (0.75 + 0.5 * jitter)
    }
}

/// Power-of-d-choices sampling over free-space scores.
///
/// Instead of scoring all `V` volumes per fragment like
/// [`FreeSpaceWeighted`], the policy draws `d * replicas` candidate volumes
/// with a deterministic hash sequence seeded from the placement key, scores
/// only those, and places among them. The classic two-choices result says
/// sampling a handful of candidates and picking the least loaded keeps the
/// load gap exponentially smaller than one random choice — so the achieved
/// variance stays close to the full scan at `O(d)` cost per fragment (see
/// the differential test `sampled_policies_track_full_scan_variance`).
///
/// Fallbacks keep the policy *complete*: when the view list is no larger
/// than the sample budget, or when the sampled candidates cannot satisfy
/// the request, the policy degenerates to the full scan, so it never fails
/// a placement the full-scan policy would have satisfied.
#[derive(Debug, Clone)]
pub struct PowerOfDChoices {
    /// Candidates sampled per requested replica.
    pub d: usize,
}

impl Default for PowerOfDChoices {
    fn default() -> Self {
        PowerOfDChoices { d: 4 }
    }
}

/// Salt for the candidate-sampling hash sequence ("PODC").
const POWER_OF_D_SALT: u64 = 0x504f_4443;

impl PowerOfDChoices {
    fn budget(&self, replicas: usize) -> usize {
        self.d.max(1) * replicas.max(1)
    }

    /// Deterministic candidate index sequence for `key`: the j-th candidate
    /// is `mix(mix(key, SALT), j) % V`. Duplicate indices are possible and
    /// harmless — the distinct-node selection dedupes by node and volume.
    fn candidate(seed: u64, j: usize, len: usize) -> usize {
        (mix(seed, j as u64) % len as u64) as usize
    }

    fn score_sampled(
        &self,
        key: u64,
        replicas: usize,
        views: &[VolumeView],
        scored: &mut Vec<(f64, u32)>,
    ) {
        scored.clear();
        let budget = self.budget(replicas);
        if views.len() <= budget {
            scored.extend(
                views
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (FreeSpaceWeighted::score(key, v), i as u32)),
            );
            return;
        }
        let seed = mix(key, POWER_OF_D_SALT);
        scored.extend((0..budget).map(|j| {
            let i = Self::candidate(seed, j, views.len());
            (FreeSpaceWeighted::score(key, &views[i]), i as u32)
        }));
    }
}

impl PlacementPolicy for PowerOfDChoices {
    fn name(&self) -> &'static str {
        "power-of-d"
    }

    fn place(&self, key: u64, size: Bytes, replicas: usize, views: &[VolumeView]) -> Placement {
        let mut cache = PlacementCache::new();
        let mut out = Vec::new();
        self.place_via(&mut cache, key, size, replicas, views, &mut out);
        out
    }

    fn place_via(
        &self,
        cache: &mut PlacementCache,
        key: u64,
        size: Bytes,
        replicas: usize,
        views: &[VolumeView],
        out: &mut Placement,
    ) {
        self.score_sampled(key, replicas, views, &mut cache.scored);
        pick_distinct_nodes_indexed(
            &mut cache.scored,
            views,
            replicas,
            size,
            &mut cache.nodes,
            out,
        );
        if out.len() < replicas && views.len() > self.budget(replicas) {
            // The sample could not satisfy the request (e.g. every sampled
            // volume is full); fall back to the full scan so completeness
            // matches `FreeSpaceWeighted`. If the full scan also comes up
            // short, that result is final.
            let scored = &mut cache.scored;
            scored.clear();
            scored.extend(
                views
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (FreeSpaceWeighted::score(key, v), i as u32)),
            );
            pick_distinct_nodes_indexed(scored, views, replicas, size, &mut cache.nodes, out);
        }
    }
}

/// Stride-sampled DHT ring for GlusterFS-style hashing.
///
/// Builds the same hash ring as [`DhtHashRing`] (identical hash points, so
/// the key→successor ownership structure is preserved), but instead of
/// walking all `V` ring entries clockwise it probes the true successor plus
/// `d * replicas - 1` entries spaced a fixed stride apart. The stride keeps
/// probes spread around the whole ring, so replica spill-over under full
/// volumes still lands on far-away arcs the way a full clockwise walk
/// eventually would. Degenerates to the full walk when the ring is no
/// larger than the probe budget or when the probes cannot satisfy the
/// request.
#[derive(Debug, Clone)]
pub struct StrideSampledDht {
    /// Ring probes per requested replica.
    pub d: usize,
}

impl Default for StrideSampledDht {
    fn default() -> Self {
        StrideSampledDht { d: 8 }
    }
}

impl StrideSampledDht {
    fn budget(&self, replicas: usize) -> usize {
        self.d.max(1) * replicas.max(1)
    }

    /// Strided ring walk: probe `budget` entries starting at the key's
    /// successor, spaced `len / budget` apart. Returns true when the
    /// request was satisfied.
    #[allow(clippy::too_many_arguments)]
    fn walk_strided(
        ring: &[(u64, u32, u32)],
        views: &[VolumeView],
        key: u64,
        size: Bytes,
        replicas: usize,
        budget: usize,
        used_nodes: &mut Vec<NodeId>,
        out: &mut Placement,
    ) {
        out.clear();
        used_nodes.clear();
        let len = ring.len();
        let start = ring.partition_point(|&(h, _, _)| h < key) % len;
        let stride = (len / budget).max(1);
        for j in 0..budget {
            if out.len() == replicas {
                break;
            }
            let v = &views[ring[(start + j * stride) % len].2 as usize];
            if v.free() >= size && !used_nodes.contains(&v.node) && !out.contains(&v.volume) {
                used_nodes.push(v.node);
                out.push(v.volume);
            }
        }
        if out.len() < replicas {
            for j in 0..budget {
                if out.len() == replicas {
                    break;
                }
                let v = &views[ring[(start + j * stride) % len].2 as usize];
                if v.free() >= size && !out.contains(&v.volume) {
                    out.push(v.volume);
                }
            }
        }
    }
}

impl PlacementPolicy for StrideSampledDht {
    fn name(&self) -> &'static str {
        "stride-dht"
    }

    fn place(&self, key: u64, size: Bytes, replicas: usize, views: &[VolumeView]) -> Placement {
        let mut cache = PlacementCache::new();
        self.rebuild(&mut cache, views);
        let mut out = Vec::new();
        self.place_via(&mut cache, key, size, replicas, views, &mut out);
        out
    }

    fn rebuild(&self, cache: &mut PlacementCache, views: &[VolumeView]) {
        DhtHashRing::build_ring(views, &mut cache.ring);
    }

    fn place_via(
        &self,
        cache: &mut PlacementCache,
        key: u64,
        size: Bytes,
        replicas: usize,
        views: &[VolumeView],
        out: &mut Placement,
    ) {
        let budget = self.budget(replicas);
        if cache.ring.len() <= budget {
            walk_ring(
                &cache.ring,
                views,
                key,
                size,
                replicas,
                &mut cache.nodes,
                true,
                out,
            );
            return;
        }
        Self::walk_strided(
            &cache.ring,
            views,
            key,
            size,
            replicas,
            budget,
            &mut cache.nodes,
            out,
        );
        if out.len() < replicas {
            // The strided probes came up short; fall back to the full
            // clockwise walk so completeness matches `DhtHashRing`.
            walk_ring(
                &cache.ring,
                views,
                key,
                size,
                replicas,
                &mut cache.nodes,
                true,
                out,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(n: u32, cap: Bytes) -> Vec<VolumeView> {
        (0..n)
            .map(|i| VolumeView {
                volume: VolumeId(i),
                node: NodeId(i),
                capacity: cap,
                used: 0,
                online: true,
            })
            .collect()
    }

    fn policies() -> Vec<Box<dyn PlacementPolicy>> {
        vec![
            Box::new(DhtHashRing),
            Box::new(VnodeRing::default()),
            Box::new(CrushStraw2),
            Box::new(FreeSpaceWeighted),
            Box::new(PowerOfDChoices::default()),
            Box::new(StrideSampledDht::default()),
        ]
    }

    #[test]
    fn all_policies_place_requested_replicas() {
        let vs = views(6, 1 << 30);
        for p in policies() {
            let placed = p.place(12345, 1024, 3, &vs);
            assert_eq!(placed.len(), 3, "{} placed {:?}", p.name(), placed);
            let mut dedup = placed.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "{} returned duplicates", p.name());
        }
    }

    #[test]
    fn all_policies_are_deterministic() {
        let vs = views(6, 1 << 30);
        for p in policies() {
            assert_eq!(
                p.place(7, 10, 2, &vs),
                p.place(7, 10, 2, &vs),
                "{}",
                p.name()
            );
        }
    }

    #[test]
    fn policies_respect_free_space() {
        let mut vs = views(3, 1000);
        vs[0].used = 1000;
        vs[1].used = 1000;
        for p in policies() {
            let placed = p.place(99, 500, 1, &vs);
            assert_eq!(placed, vec![VolumeId(2)], "{}", p.name());
        }
    }

    #[test]
    fn empty_views_place_nothing() {
        for p in policies() {
            assert!(p.place(1, 1, 3, &[]).is_empty(), "{}", p.name());
        }
    }

    #[test]
    fn replicas_prefer_distinct_nodes() {
        // Two volumes on node 0, one on node 1: a 2-replica placement must
        // span both nodes.
        let vs = vec![
            VolumeView {
                volume: VolumeId(0),
                node: NodeId(0),
                capacity: 1 << 30,
                used: 0,
                online: true,
            },
            VolumeView {
                volume: VolumeId(1),
                node: NodeId(0),
                capacity: 1 << 30,
                used: 0,
                online: true,
            },
            VolumeView {
                volume: VolumeId(2),
                node: NodeId(1),
                capacity: 1 << 30,
                used: 0,
                online: true,
            },
        ];
        for p in policies() {
            let placed = p.place(42, 1, 2, &vs);
            assert_eq!(placed.len(), 2, "{}", p.name());
            let has_node1 = placed.contains(&VolumeId(2));
            assert!(
                has_node1,
                "{} did not spread across nodes: {:?}",
                p.name(),
                placed
            );
        }
    }

    #[test]
    fn hash_ring_moves_few_keys_on_node_addition() {
        // Consistent hashing property: adding one volume to a 8-volume ring
        // should relocate well under half the keys.
        let before = views(8, 1 << 30);
        let after = views(9, 1 << 30);
        let ring = VnodeRing::default();
        let total = 2000;
        let mut moved = 0;
        for k in 0..total {
            let key = mix(k, 0xfeed);
            if ring.place(key, 1, 1, &before) != ring.place(key, 1, 1, &after) {
                moved += 1;
            }
        }
        let frac = moved as f64 / total as f64;
        assert!(
            frac < 0.35,
            "vnode ring moved {frac:.2} of keys on single-node add"
        );
        assert!(frac > 0.01, "adding a node should move some keys");
    }

    #[test]
    fn crush_distributes_roughly_by_weight() {
        // One volume with 3x capacity should receive roughly 3x the keys.
        let mut vs = views(4, 1 << 30);
        vs[3].capacity = 3 << 30;
        let p = CrushStraw2;
        let mut counts = [0usize; 4];
        for k in 0..3000u64 {
            let placed = p.place(mix(k, 1), 1, 1, &vs);
            counts[placed[0].0 as usize] += 1;
        }
        let small_avg = (counts[0] + counts[1] + counts[2]) as f64 / 3.0;
        let big = counts[3] as f64;
        let ratio = big / small_avg;
        assert!(
            (2.0..4.5).contains(&ratio),
            "weight ratio {ratio:.2}, counts {counts:?}"
        );
    }

    #[test]
    fn cached_placement_matches_uncached_reference() {
        // The cached path must be bit-identical to `place()` across keys,
        // replica counts, fill-level drift, and topology changes (which
        // bump the generation and force a rebuild).
        for p in policies() {
            let mut cache = PlacementCache::new();
            let mut vs = views(6, 1 << 30);
            // The generation advances once per round (the end-of-round
            // topology change below bumps it).
            for round in 0..4u64 {
                let generation = round;
                for k in 0..200u64 {
                    let key = mix(k, round);
                    let size = 1 + (k % 7) * 1024;
                    let replicas = 1 + (k % 4) as usize;
                    let legacy = p.place(key, size, replicas, &vs);
                    let cached = p.place_cached(&mut cache, generation, key, size, replicas, &vs);
                    assert_eq!(legacy, cached, "{} diverged at key {key:#x}", p.name());
                    // Fill levels drift without a generation bump: caches
                    // must read `used` fresh, not from build time.
                    vs[(k % 6) as usize].used = (vs[(k % 6) as usize].used + size) % (1 << 29);
                }
                // Topology change: add a volume and bump the generation.
                let n = vs.len() as u32;
                vs.push(VolumeView {
                    volume: VolumeId(n),
                    node: NodeId(n),
                    capacity: 1 << 30,
                    used: 0,
                    online: true,
                });
            }
        }
        // View lists longer than the selected-and-sorted prefix, so the
        // cached path's lazy remainder sort and its same-node second pass
        // run: 300 volumes on 100 nodes with mixed capacities and random
        // fills (small or nearly full volumes cannot take larger blocks
        // however well they score), and 40 volumes on 2 nodes, fewer
        // nodes than replicas.
        let fleet = |volumes: u32, nodes: u32, seed: u64| -> Vec<VolumeView> {
            (0..volumes)
                .map(|i| {
                    let h = mix(seed, i as u64);
                    let capacity: Bytes = [1 << 20, 1 << 30, 1 << 32][(h % 3) as usize];
                    let used = match (h >> 8) % 4 {
                        0 => capacity,
                        1 => capacity - (h >> 16) % (1 << 16),
                        _ => (h >> 16) % capacity,
                    };
                    VolumeView {
                        volume: VolumeId(i),
                        node: NodeId(i % nodes),
                        capacity,
                        used,
                        online: true,
                    }
                })
                .collect()
        };
        for (generation, vs) in [fleet(300, 100, 1), fleet(300, 100, 2), fleet(40, 2, 3)]
            .into_iter()
            .enumerate()
        {
            for p in policies() {
                let mut cache = PlacementCache::new();
                for k in 0..300u64 {
                    let key = mix(k, 0x1a2b);
                    let size: Bytes = [1, 1 << 16, 1 << 21, 1 << 28][(k % 4) as usize];
                    let replicas = 1 + (k % 5) as usize;
                    let legacy = p.place(key, size, replicas, &vs);
                    let cached =
                        p.place_cached(&mut cache, generation as u64, key, size, replicas, &vs);
                    assert_eq!(legacy, cached, "{} diverged at key {key:#x}", p.name());
                }
            }
        }
    }

    #[test]
    fn cached_placement_survives_policy_switch_and_invalidate() {
        // One cache shared across policies (as the simulator owns a single
        // cache): switching the policy at the same generation must rebuild,
        // and an explicit invalidate must too.
        let vs = views(5, 1 << 30);
        let mut cache = PlacementCache::new();
        let dht = DhtHashRing;
        let vnode = VnodeRing::default();
        let a = dht.place_cached(&mut cache, 7, 11, 64, 2, &vs);
        assert_eq!(a, dht.place(11, 64, 2, &vs));
        let b = vnode.place_cached(&mut cache, 7, 11, 64, 2, &vs);
        assert_eq!(b, vnode.place(11, 64, 2, &vs));
        cache.invalidate();
        let c = vnode.place_cached(&mut cache, 7, 11, 64, 2, &vs);
        assert_eq!(b, c);
    }

    #[test]
    fn nan_scores_sort_consistently_regardless_of_input_order() {
        // Regression: the old comparator used `partial_cmp(..).unwrap_or(Equal)`,
        // so a NaN score compared Equal to everything and the final order
        // (hence the placement) depended on the input permutation. With
        // `total_cmp`, NaN sorts to a fixed position and both permutations
        // must agree.
        let mk = |vol: u32| VolumeView {
            volume: VolumeId(vol),
            node: NodeId(vol),
            capacity: 1 << 20,
            used: 0,
            online: true,
        };
        let scored_fwd = vec![(0.5, mk(0)), (f64::NAN, mk(1)), (0.9, mk(2))];
        let mut scored_rev = scored_fwd.clone();
        scored_rev.reverse();
        let fwd = pick_distinct_nodes(scored_fwd, 2, 1);
        let rev = pick_distinct_nodes(scored_rev, 2, 1);
        assert_eq!(fwd, rev, "NaN score made placement permutation-dependent");
        // NaN sorts above all ordered floats under total_cmp (positive NaN
        // has the largest bit pattern), so it wins a slot deterministically.
        assert_eq!(fwd, vec![VolumeId(1), VolumeId(2)]);

        // The indexed (cached-path) variant must agree with the same rule.
        let views = vec![mk(0), mk(1), mk(2)];
        let mut fwd_idx = vec![(0.5, 0u32), (f64::NAN, 1), (0.9, 2)];
        let mut rev_idx = fwd_idx.clone();
        rev_idx.reverse();
        let mut scratch = Vec::new();
        let mut a = Vec::new();
        let mut b = Vec::new();
        pick_distinct_nodes_indexed(&mut fwd_idx, &views, 2, 1, &mut scratch, &mut a);
        pick_distinct_nodes_indexed(&mut rev_idx, &views, 2, 1, &mut scratch, &mut b);
        assert_eq!(a, b);
        assert_eq!(a, fwd);
    }

    /// Per-view coefficient of variation of `used` after replaying `keys`
    /// placements through `p`, charging each placed replica to its view.
    fn fill_cv(
        p: &dyn PlacementPolicy,
        keys: u64,
        replicas: usize,
        mut vs: Vec<VolumeView>,
    ) -> f64 {
        let mut cache = PlacementCache::new();
        let size: Bytes = 1 << 20;
        let mut out = Vec::new();
        for k in 0..keys {
            let key = mix(k, 0x5eed);
            p.place_cached_into(&mut cache, 0, key, size, replicas, &vs, &mut out);
            assert_eq!(out.len(), replicas, "{} failed a placement", p.name());
            for vol in &out {
                let v = vs.iter_mut().find(|v| v.volume == *vol).unwrap();
                v.used += size;
            }
        }
        let n = vs.len() as f64;
        let mean = vs.iter().map(|v| v.used as f64).sum::<f64>() / n;
        let var = vs
            .iter()
            .map(|v| (v.used as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }

    #[test]
    fn sampled_policies_track_full_scan_variance() {
        // Differential quality check: replay the same placement stream
        // through the full-scan policy and its sampled counterpart, and
        // compare the resulting fill imbalance (CV of per-volume used).
        // The documented bound — also gated in CI via BENCH_6 — is
        // sampled_cv <= 2 * full_cv + 0.05.
        let vs = views(64, 1 << 30);
        let bound = |full: f64| 2.0 * full + 0.05;

        let full_fsw = fill_cv(&FreeSpaceWeighted, 2000, 2, vs.clone());
        let pod = fill_cv(&PowerOfDChoices { d: 4 }, 2000, 2, vs.clone());
        assert!(
            pod <= bound(full_fsw),
            "power-of-d cv {pod:.4} vs full-scan cv {full_fsw:.4}"
        );

        let full_dht = fill_cv(&DhtHashRing, 2000, 2, vs.clone());
        let stride = fill_cv(&StrideSampledDht { d: 8 }, 2000, 2, vs);
        assert!(
            stride <= bound(full_dht),
            "stride-dht cv {stride:.4} vs full-scan cv {full_dht:.4}"
        );
    }

    #[test]
    fn stride_dht_first_replica_matches_full_ring_successor() {
        // The strided walk starts at the key's true successor, so when the
        // successor volume has room the first replica must agree with the
        // full clockwise walk — the key→owner structure of GlusterFS-style
        // hashing is preserved, only the spill-over search is sampled.
        let vs = views(256, 1 << 30);
        let full = DhtHashRing;
        let sampled = StrideSampledDht { d: 4 };
        for k in 0..500u64 {
            let key = mix(k, 0xd417);
            let a = full.place(key, 1024, 1, &vs);
            let b = sampled.place(key, 1024, 1, &vs);
            assert_eq!(a[0], b[0], "successor diverged at key {key:#x}");
        }
    }

    #[test]
    fn sampled_policies_fall_back_to_full_scan_when_sample_is_full() {
        // 128 volumes, all full except one: a d*replicas sample will
        // usually miss the single free volume, and the fallback must find
        // it anyway — completeness matches the full-scan policies.
        let mut vs = views(128, 1000);
        for v in vs.iter_mut() {
            v.used = 1000;
        }
        vs[97].used = 0;
        for p in [
            Box::new(PowerOfDChoices { d: 2 }) as Box<dyn PlacementPolicy>,
            Box::new(StrideSampledDht { d: 2 }),
        ] {
            for k in 0..50u64 {
                let placed = p.place(mix(k, 3), 500, 1, &vs);
                assert_eq!(placed, vec![VolumeId(97)], "{} key {k}", p.name());
            }
        }
    }

    #[test]
    fn free_space_weighted_prefers_empty_volumes() {
        let mut vs = views(2, 1000);
        vs[0].used = 900;
        let p = FreeSpaceWeighted;
        let mut empties = 0;
        for k in 0..200u64 {
            if p.place(mix(k, 2), 1, 1, &vs)[0] == VolumeId(1) {
                empties += 1;
            }
        }
        assert!(
            empties > 190,
            "free-space policy picked the full volume too often"
        );
    }
}
