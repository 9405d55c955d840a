//! Streaming load-variance accumulators.
//!
//! The load variance model samples the storage-utilization imbalance ratio
//! after every executed operation. Recomputing it from live node state is
//! O(nodes) per op — fine for the paper's 10-node clusters, a blocker for
//! 10k-node campaigns. [`UtilTracker`] maintains the same statistic
//! incrementally: every cluster mutation that can change a node's
//! utilization (or its eligibility) reports the node's new quantized
//! utilization, and the imbalance ratio, mean and variance become O(1)
//! reads (O(log n) per update, usually less: the max-tree walk stops at
//! the first ancestor that does not change).
//!
//! ## Exactness contract
//!
//! All state is integer: utilizations are quantized to `used·2³²/capacity`
//! (a 32-bit fixed-point fraction), the sums are `u128`, and the maximum
//! is the root of a flat max tree over the node-id slots. Integer
//! accumulation is order-independent and loss-free, so the tracker is
//! *exactly* equal to a fresh recomputation from the node tables after
//! any mutation sequence — including snapshot-fork restores, where the
//! tracker is cloned and restored wholesale. `Cluster::audit` recomputes
//! it from scratch and fails on any drift, the tree's maximum included.
//!
//! Quantization granularity is `capacity·2⁻³²` (about 12 bytes on a 48 GiB
//! node), so the ratio differs from the exact `f64` ratio by at most ~1e-9
//! relative at MiB file scales.

use crate::types::{Bytes, NodeId};

/// Fixed-point scale: utilizations are fractions with 32 fractional bits.
const Q_SCALE_BITS: u32 = 32;

/// Quantizes a node utilization `used/capacity` to 32-bit fixed point.
///
/// `used ≤ capacity` (a cluster invariant enforced by every byte mutation)
/// keeps the result in `0..=2³²`. A zero-capacity node — reachable after a
/// disk-full fault shrinks volumes or a resize detaches the last bytes —
/// has no meaningful utilization fraction; it reports as saturated full
/// (`2³²`) so imbalance detection treats it as the worst case instead of
/// dividing by zero (debug) or wrapping to garbage (release).
pub fn quantize(used: Bytes, capacity: Bytes) -> u64 {
    if capacity == 0 {
        return 1u64 << Q_SCALE_BITS;
    }
    ((used as u128 * (1u128 << Q_SCALE_BITS)) / capacity as u128) as u64
}

/// Streaming accumulator over per-node quantized utilizations.
///
/// Tracks Σx, Σx², count, and the exact maximum via a max tree. One entry
/// per *eligible* node; the owner decides eligibility (for the storage
/// dimension: online, has volumes, positive capacity) and calls
/// [`UtilTracker::update`] with `None` to remove a node that became
/// ineligible.
///
/// Entries are the leaves of the tree, indexed by the raw node id (see
/// `crate::arena`), so an update is one array write plus a walk up the
/// leaf's ancestors, with no tree descent or allocation, and the whole
/// tracker is one contiguous vector.
#[derive(Debug, Clone, Default)]
pub struct UtilTracker {
    /// Max tree as an implicit binary heap: `tree[1]` is the root, node
    /// `i` has children `2i` and `2i + 1`, and the leaf of raw node id `n`
    /// is `tree[width + n]`, where `width = tree.len() / 2`. Leaves hold
    /// `q + 1` for a tracked node and 0 for an untracked slot; every
    /// interior node holds the larger of its two children, so 0 means an
    /// empty subtree. `update` widens to powers of two;
    /// [`UtilTracker::from_leaves`] uses the exact slot count, since every
    /// index in `2..2·width` reaches the root through its parents whatever
    /// the width.
    tree: Vec<u64>,
    /// Number of tracked (eligible) nodes.
    live: usize,
    /// Σ quantized utilization. 100k nodes × 2³² < 2⁵⁰ — far inside u128.
    sum: u128,
    /// Σ (quantized utilization)². 100k × 2⁶⁴ < 2⁸¹ — far inside u128.
    sum_sq: u128,
}

/// Trackers compare by *content*: two trackers are equal when they track
/// the same nodes at the same values and report the same maximum,
/// regardless of how wide each tree happens to be (a fresh recomputation
/// may have a narrower tree than a tracker that once saw higher ids).
impl PartialEq for UtilTracker {
    fn eq(&self, other: &Self) -> bool {
        if self.live != other.live
            || self.sum != other.sum
            || self.sum_sq != other.sum_sq
            || self.max_q() != other.max_q()
        {
            return false;
        }
        let n = self.width().max(other.width());
        (0..n).all(|i| self.leaf(i) == other.leaf(i))
    }
}

impl Eq for UtilTracker {}

impl UtilTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// A tracker over `slots` node-id slots holding exactly `leaves`, in
    /// one allocation: the leaves are written in place and the interior
    /// maxima computed once, bottom-up. The audit's from-scratch
    /// recomputation; it shares no code with [`UtilTracker::update`]'s
    /// ancestor walk. Panics if a leaf's id is not below `slots`.
    pub(crate) fn from_leaves(
        slots: usize,
        leaves: impl IntoIterator<Item = (NodeId, u64)>,
    ) -> Self {
        let mut t = UtilTracker {
            tree: vec![0; 2 * slots],
            ..Self::default()
        };
        for (node, q) in leaves {
            t.tree[slots + node.0 as usize] = q + 1;
            t.live += 1;
            t.sum += q as u128;
            t.sum_sq += (q as u128) * (q as u128);
        }
        for i in (1..slots).rev() {
            t.tree[i] = t.tree[2 * i].max(t.tree[2 * i + 1]);
        }
        t
    }

    /// Number of leaves (node-id slots) the tree spans.
    fn width(&self) -> usize {
        self.tree.len() / 2
    }

    /// Leaf value of slot `idx`: `q + 1`, or 0 when untracked.
    fn leaf(&self, idx: usize) -> u64 {
        self.tree.get(self.width() + idx).copied().unwrap_or(0)
    }

    /// Sets, replaces, or removes (`q = None`) a node's quantized
    /// utilization: one leaf write, then a walk up the ancestors that
    /// stops at the first one whose maximum does not change.
    pub fn update(&mut self, node: NodeId, q: Option<u64>) {
        let idx = node.0 as usize;
        if idx >= self.width() {
            if q.is_none() {
                return; // removing a node that was never tracked
            }
            self.widen(idx + 1);
        }
        debug_assert!(
            q != Some(u64::MAX),
            "utilization overflows the leaf encoding"
        );
        let mut i = self.width() + idx;
        let old = std::mem::replace(&mut self.tree[i], q.map_or(0, |v| v + 1));
        if let Some(old) = old.checked_sub(1) {
            self.live -= 1;
            self.sum -= old as u128;
            self.sum_sq -= (old as u128) * (old as u128);
        }
        if let Some(v) = q {
            self.live += 1;
            self.sum += v as u128;
            self.sum_sq += (v as u128) * (v as u128);
        }
        while i > 1 {
            let max = self.tree[i].max(self.tree[i ^ 1]);
            i /= 2;
            if self.tree[i] == max {
                break;
            }
            self.tree[i] = max;
        }
    }

    /// Grows the tree to at least `slots` leaves (a power of two) and
    /// rebuilds its interior nodes.
    fn widen(&mut self, slots: usize) {
        let (old, width) = (self.width(), slots.next_power_of_two());
        let mut tree = vec![0; 2 * width];
        tree[width..width + old].copy_from_slice(&self.tree[old..]);
        for i in (1..width).rev() {
            tree[i] = tree[2 * i].max(tree[2 * i + 1]);
        }
        self.tree = tree;
    }

    /// Number of eligible nodes.
    pub fn count(&self) -> usize {
        self.live
    }

    /// Smallest tracked quantized utilization, if any node is tracked.
    /// A scan of the leaves: nothing on the hot path reads the minimum.
    pub fn min_q(&self) -> Option<u64> {
        self.tree[self.width()..]
            .iter()
            .filter(|&&v| v != 0)
            .min()
            .map(|v| v - 1)
    }

    /// Largest tracked quantized utilization, if any node is tracked: the
    /// root of the max tree.
    pub fn max_q(&self) -> Option<u64> {
        self.tree.get(1).and_then(|v| v.checked_sub(1))
    }

    /// Σ of quantized utilizations.
    pub fn sum_q(&self) -> u128 {
        self.sum
    }

    /// Σ of squared quantized utilizations.
    pub fn sum_sq_q(&self) -> u128 {
        self.sum_sq
    }

    /// Mean utilization as a fraction in `[0, 1]`.
    pub fn mean(&self) -> f64 {
        if self.live == 0 {
            return 0.0;
        }
        (self.sum as f64 / self.live as f64) / (1u64 << Q_SCALE_BITS) as f64
    }

    /// Population variance of the utilization fractions.
    pub fn variance(&self) -> f64 {
        let n = self.live;
        if n < 2 {
            return 0.0;
        }
        // E[x²] − E[x]² over the quantized values, then rescale. Both terms
        // are single divisions of exact integer sums — no float reduction.
        let n = n as f64;
        let scale = (1u64 << Q_SCALE_BITS) as f64;
        let mean = self.sum as f64 / n;
        let var_q = self.sum_sq as f64 / n - mean * mean;
        (var_q / (scale * scale)).max(0.0)
    }

    /// The imbalance ratio `max/mean` over tracked utilizations, matching
    /// [`ClusterSnapshot::imbalance_ratio_iter`]'s conventions: `1.0` for
    /// fewer than two nodes or an (effectively) zero mean.
    ///
    /// [`ClusterSnapshot::imbalance_ratio_iter`]: crate::metrics::ClusterSnapshot
    pub fn imbalance_ratio(&self) -> f64 {
        let n = self.live;
        if n < 2 || self.sum == 0 {
            return 1.0;
        }
        let max = self.max_q().unwrap_or(0);
        // max/mean = max·n/Σ — one float division over exact integers.
        (max as f64 * n as f64) / self.sum as f64
    }

    /// O(1) equivalent of the balancer's activation predicate
    /// `max > mean·(1 + threshold)`: false with fewer than two nodes or an
    /// all-zero load.
    pub fn is_imbalanced(&self, threshold: f64) -> bool {
        let n = self.live;
        if n < 2 || self.sum == 0 {
            return false;
        }
        let max = self.max_q().unwrap_or(0);
        max as f64 * n as f64 > (1.0 + threshold) * self.sum as f64
    }

    /// The tracked quantized utilization for `node`, if eligible.
    pub fn get(&self, node: NodeId) -> Option<u64> {
        self.leaf(node.0 as usize).checked_sub(1)
    }

    /// Lowers the root of the max tree by one quantum, the drift an
    /// ancestor walk that stops one level early leaves behind: leaves,
    /// sums and count stay right, only [`UtilTracker::max_q`] goes stale.
    #[cfg(test)]
    pub(crate) fn corrupt_root_for_test(&mut self) {
        self.tree[1] -= 1;
    }

    /// Raises Σq by one quantum and nothing else: leaves, count, Σq² and
    /// the maximum stay right.
    #[cfg(test)]
    pub(crate) fn corrupt_sum_for_test(&mut self) {
        self.sum += 1;
    }
}

/// From-scratch `f64` mean and population variance over utilization
/// fractions — the reference arm of the tracker's differential tests.
/// The tracker's integer accumulators must agree with this to float
/// precision after arbitrarily long churn sequences.
pub fn float_mean_variance(utils: impl Iterator<Item = f64>) -> (f64, f64) {
    let vals: Vec<f64> = utils.collect();
    if vals.is_empty() {
        return (0.0, 0.0);
    }
    let n = vals.len() as f64;
    // This is the float recompute the exact integer tracker is checked
    // against; it never feeds simulation state.
    // detlint:allow(float-accum): differential-test reference arm
    let mean = vals.iter().sum::<f64>() / n;
    // detlint:allow(float-accum): same reference arm as above.
    let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, if vals.len() < 2 { 0.0 } else { var })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn tracker(vals: &[(u32, u64)]) -> UtilTracker {
        let mut t = UtilTracker::new();
        for &(id, q) in vals {
            t.update(NodeId(id), Some(q));
        }
        t
    }

    #[test]
    fn quantize_is_monotone_and_bounded() {
        assert_eq!(quantize(0, 100), 0);
        assert_eq!(quantize(100, 100), 1 << 32);
        assert_eq!(quantize(50, 100), 1 << 31);
        let a = quantize(1 << 30, 48 << 30);
        let b = quantize(2 << 30, 48 << 30);
        assert!(a < b);
    }

    #[test]
    fn quantize_zero_capacity_saturates_full() {
        // A node whose volumes shrank to zero capacity must read as
        // saturated full, not divide by zero (debug) or wrap (release).
        assert_eq!(quantize(0, 0), 1 << 32);
        assert_eq!(quantize(12345, 0), 1 << 32);
        assert_eq!(quantize(0, 0), quantize(100, 100));
    }

    #[test]
    fn empty_and_singleton_are_balanced() {
        let mut t = UtilTracker::new();
        assert_eq!(t.imbalance_ratio(), 1.0);
        assert!(!t.is_imbalanced(0.1));
        t.update(NodeId(1), Some(1 << 31));
        assert_eq!(t.count(), 1);
        assert_eq!(t.imbalance_ratio(), 1.0);
        assert!(!t.is_imbalanced(0.1));
    }

    #[test]
    fn ratio_matches_direct_computation() {
        let t = tracker(&[(1, 100), (2, 200), (3, 300)]);
        // max/mean = 300/200 = 1.5
        assert!((t.imbalance_ratio() - 1.5).abs() < 1e-12);
        assert!(t.is_imbalanced(0.4));
        assert!(!t.is_imbalanced(0.6));
    }

    #[test]
    fn zero_sum_is_balanced() {
        let t = tracker(&[(1, 0), (2, 0), (3, 0)]);
        assert_eq!(t.imbalance_ratio(), 1.0);
        assert!(!t.is_imbalanced(0.0));
    }

    #[test]
    fn update_and_remove_keep_sums_and_extremes_exact() {
        let mut t = tracker(&[(1, 10), (2, 20), (3, 20), (4, 40)]);
        assert_eq!(t.min_q(), Some(10));
        assert_eq!(t.max_q(), Some(40));
        assert_eq!(t.sum_q(), 90);
        assert_eq!(t.sum_sq_q(), 100 + 400 + 400 + 1600);

        // Replace the max; extremes move.
        t.update(NodeId(4), Some(5));
        assert_eq!(t.min_q(), Some(5));
        assert_eq!(t.max_q(), Some(20));
        assert_eq!(t.sum_q(), 55);

        // Remove one of the duplicated values; the other remains.
        t.update(NodeId(2), None);
        assert_eq!(t.max_q(), Some(20));
        assert_eq!(t.count(), 3);
        assert_eq!(t.sum_q(), 35);

        // Remove everything; back to pristine.
        t.update(NodeId(1), None);
        t.update(NodeId(3), None);
        t.update(NodeId(4), None);
        assert_eq!(t, UtilTracker::new());
    }

    #[test]
    fn equality_ignores_trailing_sentinel_slots() {
        // A tracker that once saw a high node id keeps the (empty) slots;
        // a fresh recomputation does not. They must still compare equal.
        let mut a = tracker(&[(1, 7), (500, 9)]);
        a.update(NodeId(500), None);
        let b = tracker(&[(1, 7)]);
        assert_eq!(a, b);
        assert_eq!(b, a);
        let c = tracker(&[(2, 7)]);
        assert_ne!(b, c, "same value on a different node is not equal");
    }

    #[test]
    fn float_reference_matches_tracker_statistics() {
        let t = tracker(&[(0, 0), (1, 1 << 32), (2, 1 << 31)]);
        let (mean, var) = float_mean_variance([0.0, 1.0, 0.5].into_iter());
        assert!((t.mean() - mean).abs() < 1e-9);
        assert!((t.variance() - var).abs() < 1e-9);
        assert_eq!(float_mean_variance(std::iter::empty()), (0.0, 0.0));
    }

    #[test]
    fn removing_untracked_node_is_a_no_op() {
        let mut t = tracker(&[(1, 7)]);
        t.update(NodeId(99), None);
        assert_eq!(t.count(), 1);
        assert_eq!(t.sum_q(), 7);
    }

    /// The ordered-multiset tracker the max tree replaced, kept as the
    /// reference arm of the random walk.
    #[derive(Default)]
    struct ReferenceTracker {
        entries: Vec<u64>,
        live: usize,
        dist: BTreeMap<u64, u32>,
        sum: u128,
        sum_sq: u128,
    }

    impl ReferenceTracker {
        const NO_ENTRY: u64 = u64::MAX;

        fn update(&mut self, node: NodeId, q: Option<u64>) {
            let idx = node.0 as usize;
            if idx >= self.entries.len() {
                if q.is_none() {
                    return;
                }
                self.entries.resize(idx + 1, Self::NO_ENTRY);
            }
            let old = std::mem::replace(&mut self.entries[idx], q.unwrap_or(Self::NO_ENTRY));
            if old != Self::NO_ENTRY {
                self.live -= 1;
                self.sum -= old as u128;
                self.sum_sq -= (old as u128) * (old as u128);
                match self.dist.get_mut(&old) {
                    Some(n) if *n > 1 => *n -= 1,
                    _ => {
                        self.dist.remove(&old);
                    }
                }
            }
            if let Some(v) = q {
                self.live += 1;
                self.sum += v as u128;
                self.sum_sq += (v as u128) * (v as u128);
                *self.dist.entry(v).or_insert(0) += 1;
            }
        }

        fn min_q(&self) -> Option<u64> {
            self.dist.keys().next().copied()
        }

        fn max_q(&self) -> Option<u64> {
            self.dist.keys().next_back().copied()
        }

        fn imbalance_ratio(&self) -> f64 {
            let n = self.live;
            if n < 2 || self.sum == 0 {
                return 1.0;
            }
            let max = self.max_q().unwrap_or(0);
            (max as f64 * n as f64) / self.sum as f64
        }

        fn is_imbalanced(&self, threshold: f64) -> bool {
            let n = self.live;
            if n < 2 || self.sum == 0 {
                return false;
            }
            let max = self.max_q().unwrap_or(0);
            max as f64 * n as f64 > (1.0 + threshold) * self.sum as f64
        }
    }

    #[test]
    fn tracker_equals_recomputation_after_random_walk() {
        // Deterministic pseudo-random mutation walk. After every step the
        // tracker must equal a from-scratch rebuild, agree with the
        // ordered-multiset reference, and report the shadow map's extremes
        // and ratios. The id span doubles every 1,000 steps (the tree
        // widens from 4 to 256 slots), and a quarter of the steps lower or
        // remove the current maximum.
        let mut t = UtilTracker::new();
        let mut r = ReferenceTracker::default();
        let mut shadow: BTreeMap<NodeId, u64> = BTreeMap::new();
        let mut widths = BTreeSet::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..7_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let span = 4u32 << (step / 1_000);
            let mut id = NodeId((x >> 33) as u32 % span);
            let q = match (x >> 7) % 8 {
                0..=3 => Some(x % ((1u64 << 32) + 1)),
                4 | 5 => None,
                _ => {
                    // Aim at the current maximum: lower it or drop it.
                    let (top, q) = shadow
                        .iter()
                        .map(|(&n, &q)| (n, q))
                        .max_by_key(|&(n, q)| (q, n))
                        .unwrap_or((id, 0));
                    id = top;
                    (x >> 40 & 1 == 0 && q > 0).then(|| (x >> 24) % q)
                }
            };
            t.update(id, q);
            r.update(id, q);
            match q {
                Some(q) => shadow.insert(id, q),
                None => shadow.remove(&id),
            };
            widths.insert(t.width());

            let mut fresh = UtilTracker::new();
            for (&id, &q) in &shadow {
                fresh.update(id, Some(q));
            }
            assert_eq!(t, fresh, "step {step}");
            // The one-shot rebuild at the exact slot count, rarely a power
            // of two, equals the walked tracker and reports its extremes.
            let slots = shadow.keys().next_back().map_or(0, |n| n.0 as usize + 1);
            let built = UtilTracker::from_leaves(slots, shadow.iter().map(|(&n, &q)| (n, q)));
            assert_eq!(built, t, "step {step}");
            assert_eq!(
                (built.max_q(), built.min_q()),
                (t.max_q(), t.min_q()),
                "step {step}"
            );

            let n = shadow.len();
            let sum: u128 = shadow.values().map(|&q| q as u128).sum();
            let max = shadow.values().max().copied();
            assert_eq!(t.max_q(), max, "step {step}");
            assert_eq!(t.min_q(), shadow.values().min().copied(), "step {step}");
            assert_eq!((t.count(), t.sum_q()), (n, sum), "step {step}");
            let ratio = if n < 2 || sum == 0 {
                1.0
            } else {
                (max.unwrap() as f64 * n as f64) / sum as f64
            };
            assert_eq!(t.imbalance_ratio(), ratio, "step {step}");
            for threshold in [0.0, 0.1, 0.2, 1.5] {
                let expect = n >= 2
                    && sum != 0
                    && max.unwrap() as f64 * n as f64 > (1.0 + threshold) * sum as f64;
                assert_eq!(t.is_imbalanced(threshold), expect, "step {step}");
                assert_eq!(t.is_imbalanced(threshold), r.is_imbalanced(threshold));
            }

            assert_eq!(
                (t.max_q(), t.min_q()),
                (r.max_q(), r.min_q()),
                "step {step}"
            );
            assert_eq!(t.imbalance_ratio(), r.imbalance_ratio(), "step {step}");
            assert_eq!(
                (t.count(), t.sum_q(), t.sum_sq_q()),
                (r.live, r.sum, r.sum_sq)
            );
        }
        assert!(
            widths.len() >= 6,
            "the tree widened only through {widths:?}"
        );
    }

    #[test]
    fn variance_matches_two_point_distribution() {
        // Two nodes at 0 and full: mean 1/2, variance 1/4.
        let t = tracker(&[(1, 0), (2, 1 << 32)]);
        assert!((t.mean() - 0.5).abs() < 1e-12);
        assert!((t.variance() - 0.25).abs() < 1e-12);
    }
}
