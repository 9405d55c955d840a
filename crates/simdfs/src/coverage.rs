//! Behavioural branch-coverage model.
//!
//! The paper measures gcov/JaCoCo/ExIntegration branch coverage of the real
//! DFS implementations. Those targets do not exist in this reproduction, so
//! `simdfs` provides a coverage *model*: a per-flavor universe of branch ids
//! partitioned into regions, where executing behaviour deterministically
//! unlocks ids. The regions encode what actually drives coverage in a DFS
//! under test:
//!
//! - **base**: per-operation handling code (op kind × operand shape ×
//!   outcome) — every method reaches these quickly;
//! - **pair**: code guarded by *execution dependencies* between consecutive
//!   operations (the combinations Methods 1–3 of the paper under-explore);
//! - **state**: code conditioned on runtime load state (variance buckets,
//!   balancer phase) — reachable only by driving the cluster into many
//!   distinct load states;
//! - **deep**: rebalance/migration internals — reachable only while the
//!   balancer is actively planning/migrating.
//!
//! Each distinct feature tuple unlocks a small block of branch ids in its
//! region (a feature corresponds to a handful of real branches). Regions
//! saturate like real coverage does, giving Figure 12-style curves.
//!
//! Every executed operation touches two to four features, so the model
//! keeps flat state: covered branch ids are bits of a bitset over the
//! universe (at most 72.5k bits, about 9 KB) with a maintained count, and
//! seen features are an insert-only open-addressed table of their mixed
//! tags. A touch is a few word operations, with no allocation and no
//! tree descent.

use crate::hashing::mix;

/// Region sizes (in branch ids) for one flavor's coverage universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageUniverse {
    /// Per-operation handling branches.
    pub base: u32,
    /// Operation-pair (execution dependency) branches.
    pub pair: u32,
    /// Load-state-conditioned branches.
    pub state: u32,
    /// Balancer/migration internals.
    pub deep: u32,
}

impl CoverageUniverse {
    /// Total number of branch ids in the universe.
    pub fn total(&self) -> u32 {
        self.base + self.pair + self.state + self.deep
    }
}

/// Which region a feature unlocks branches in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Per-operation handling code.
    Base,
    /// Consecutive-operation dependency code.
    Pair,
    /// Load-state-conditioned code.
    State,
    /// Rebalance/migration internals.
    Deep,
}

/// Branches unlocked per previously-unseen feature, per region.
///
/// A "feature" abstracts a small cluster of real branches (e.g. one
/// operation handler with its error/size/replica sub-branches).
const REWARD: [(Region, u32); 4] = [
    (Region::Base, 14),
    (Region::Pair, 10),
    (Region::State, 9),
    (Region::Deep, 16),
];

fn reward(region: Region) -> u32 {
    REWARD
        .iter()
        .find(|(r, _)| *r == region)
        .map(|(_, w)| *w)
        .unwrap_or(8)
}

/// The word index and mask of branch id `id` in a hit bitset.
fn bit_of(id: u32) -> (usize, u64) {
    (id as usize / 64, 1u64 << (id % 64))
}

/// Insert-only set of already-mixed 64-bit feature tags, open-addressed
/// with linear probing over a power-of-two slot array kept at most half
/// full. The tags come out of [`mix`], so their low bits index the table
/// directly. Slot value 0 marks an empty slot; the tag 0 itself is kept
/// in a flag.
#[derive(Debug, Default)]
struct TagSet {
    slots: Vec<u64>,
    len: usize,
    has_zero: bool,
}

impl Clone for TagSet {
    fn clone(&self) -> Self {
        TagSet {
            slots: self.slots.clone(),
            len: self.len,
            has_zero: self.has_zero,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.slots.clone_from(&src.slots);
        self.len = src.len;
        self.has_zero = src.has_zero;
    }
}

impl TagSet {
    /// Smallest slot array allocated on the first insert.
    const MIN_SLOTS: usize = 1024;

    /// Inserts `tag`; returns whether it was absent.
    fn insert(&mut self, tag: u64) -> bool {
        if tag == 0 {
            return !std::mem::replace(&mut self.has_zero, true);
        }
        if self.slots.is_empty() {
            self.slots.resize(Self::MIN_SLOTS, 0);
        }
        let mut i = self.probe(tag);
        if self.slots[i] == tag {
            return false;
        }
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
            i = self.probe(tag);
        }
        self.slots[i] = tag;
        self.len += 1;
        true
    }

    /// Whether `tag` was inserted.
    #[cfg(test)]
    fn contains(&self, tag: u64) -> bool {
        if tag == 0 {
            return self.has_zero;
        }
        !self.slots.is_empty() && self.slots[self.probe(tag)] == tag
    }

    /// The slot holding `tag`, or the empty slot where it would go.
    fn probe(&self, tag: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        while self.slots[i] != 0 && self.slots[i] != tag {
            i = (i + 1) & mask;
        }
        i
    }

    /// Doubles the slot array and re-inserts every stored tag.
    fn grow(&mut self) {
        let doubled = vec![0; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        for tag in old.into_iter().filter(|&t| t != 0) {
            let i = self.probe(tag);
            self.slots[i] = tag;
        }
    }

    /// Empties the set, keeping its slot array.
    fn clear(&mut self) {
        self.slots.fill(0);
        self.len = 0;
        self.has_zero = false;
    }
}

/// Deterministic coverage accumulator for one simulated DFS instance.
#[derive(Debug)]
pub struct CoverageModel {
    universe: CoverageUniverse,
    /// One bit per branch id in `0..universe.total()`, set once covered.
    hits: Vec<u64>,
    /// Number of set bits in `hits`.
    covered: u64,
    seen_features: TagSet,
}

/// `clone_from` reuses the destination's buffers, so rewinding coverage
/// to a saved copy allocates nothing.
impl Clone for CoverageModel {
    fn clone(&self) -> Self {
        CoverageModel {
            universe: self.universe,
            hits: self.hits.clone(),
            covered: self.covered,
            seen_features: self.seen_features.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.universe = src.universe;
        self.hits.clone_from(&src.hits);
        self.covered = src.covered;
        self.seen_features.clone_from(&src.seen_features);
    }
}

impl CoverageModel {
    /// Creates an empty model over the given universe.
    pub fn new(universe: CoverageUniverse) -> Self {
        CoverageModel {
            universe,
            hits: vec![0; (universe.total() as usize).div_ceil(64)],
            covered: 0,
            seen_features: TagSet::default(),
        }
    }

    /// Region id-space offset and length.
    fn region_range(&self, region: Region) -> (u32, u32) {
        let u = &self.universe;
        match region {
            Region::Base => (0, u.base),
            Region::Pair => (u.base, u.pair),
            Region::State => (u.base + u.pair, u.state),
            Region::Deep => (u.base + u.pair + u.state, u.deep),
        }
    }

    /// Records the execution of a feature, unlocking its branch block.
    ///
    /// Returns the number of newly covered branches (0 when the feature was
    /// seen before or its block fully collided with covered ids).
    pub fn touch(&mut self, region: Region, feature: u64) -> u32 {
        let tagged = mix(feature, region as u64 + 0x5eed);
        if !self.seen_features.insert(tagged) {
            return 0;
        }
        let (offset, len) = self.region_range(region);
        if len == 0 {
            return 0;
        }
        let mut new = 0;
        for i in 0..reward(region) {
            let id = offset + (mix(tagged, i as u64) % len as u64) as u32;
            let (word, bit) = bit_of(id);
            if self.hits[word] & bit == 0 {
                self.hits[word] |= bit;
                new += 1;
            }
        }
        self.covered += new as u64;
        new
    }

    /// Number of covered branches.
    pub fn covered(&self) -> u64 {
        self.covered
    }

    /// Covered branches within one region (used by tests/diagnostics).
    pub fn covered_in(&self, region: Region) -> u64 {
        let (offset, len) = self.region_range(region);
        (offset..offset + len)
            .filter(|&id| {
                let (word, bit) = bit_of(id);
                self.hits[word] & bit != 0
            })
            .count() as u64
    }

    /// The configured universe.
    pub fn universe(&self) -> CoverageUniverse {
        self.universe
    }

    /// Clears all coverage (campaign reset does *not* call this — coverage
    /// accumulates across resets exactly as gcov accumulates across DFS
    /// restarts in the paper; see [`crate::sim::DfsSim::reset`]).
    pub fn clear(&mut self) {
        self.hits.fill(0);
        self.covered = 0;
        self.seen_features.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flavor::Flavor;
    use std::collections::BTreeSet;

    /// The ordered-set model this module replaced, kept verbatim as the
    /// reference arm of the differential test.
    #[derive(Clone)]
    struct ReferenceCoverage {
        universe: CoverageUniverse,
        hits: BTreeSet<u32>,
        seen_features: BTreeSet<u64>,
    }

    impl ReferenceCoverage {
        fn new(universe: CoverageUniverse) -> Self {
            ReferenceCoverage {
                universe,
                hits: BTreeSet::new(),
                seen_features: BTreeSet::new(),
            }
        }

        fn region_range(&self, region: Region) -> (u32, u32) {
            let u = &self.universe;
            match region {
                Region::Base => (0, u.base),
                Region::Pair => (u.base, u.pair),
                Region::State => (u.base + u.pair, u.state),
                Region::Deep => (u.base + u.pair + u.state, u.deep),
            }
        }

        fn touch(&mut self, region: Region, feature: u64) -> u32 {
            let tagged = mix(feature, region as u64 + 0x5eed);
            if !self.seen_features.insert(tagged) {
                return 0;
            }
            let (offset, len) = self.region_range(region);
            if len == 0 {
                return 0;
            }
            let mut new = 0;
            for i in 0..reward(region) {
                let id = offset + (mix(tagged, i as u64) % len as u64) as u32;
                if self.hits.insert(id) {
                    new += 1;
                }
            }
            new
        }

        fn covered_in(&self, region: Region) -> u64 {
            let (offset, len) = self.region_range(region);
            self.hits
                .iter()
                .filter(|&&id| id >= offset && id < offset + len)
                .count() as u64
        }

        fn clear(&mut self) {
            self.hits.clear();
            self.seen_features.clear();
        }
    }

    const REGIONS: [Region; 4] = [Region::Base, Region::Pair, Region::State, Region::Deep];

    /// Requires equal total and per-region counts.
    fn assert_counts_agree(m: &CoverageModel, r: &ReferenceCoverage, at: &str) {
        assert_eq!(m.covered(), r.hits.len() as u64, "covered() at {at}");
        for region in REGIONS {
            assert_eq!(
                m.covered_in(region),
                r.covered_in(region),
                "{region:?} at {at}"
            );
        }
    }

    /// Requires equal counts and equal feature sets.
    fn assert_agrees(m: &CoverageModel, r: &ReferenceCoverage, at: &str) {
        assert_counts_agree(m, r, at);
        let stored = m.seen_features.len + m.seen_features.has_zero as usize;
        assert_eq!(stored, r.seen_features.len(), "seen features at {at}");
        for &tag in &r.seen_features {
            assert!(m.seen_features.contains(tag), "tag {tag:#x} lost at {at}");
        }
    }

    #[test]
    fn coverage_matches_btreeset_reference() {
        // The four flavor universes, plus a tiny one that saturates within
        // a few hundred touches and has an empty region.
        let tiny = CoverageUniverse {
            base: 40,
            pair: 23,
            state: 0,
            deep: 9,
        };
        let universes = Flavor::all().map(|f| f.config().coverage);
        for (u, universe) in universes.into_iter().chain([tiny]).enumerate() {
            let mut m = CoverageModel::new(universe);
            let mut r = ReferenceCoverage::new(universe);
            let mut saved = (m.clone(), r.clone());
            let mut x = 0x2545_f491_4f6c_dd1du64 ^ u as u64;
            for step in 0..30_000u32 {
                match step {
                    // Start over mid-stream.
                    9_000 => {
                        m.clear();
                        r.clear();
                    }
                    // Save a copy, then rewind to it once the table grew.
                    15_000 => saved = (m.clone(), r.clone()),
                    22_000 => {
                        m.clone_from(&saved.0);
                        r = saved.1.clone();
                    }
                    // Continue in a fresh model copied from a larger one.
                    26_000 => {
                        let mut fresh = CoverageModel::new(universe);
                        fresh.clone_from(&m);
                        m = fresh;
                    }
                    _ => {}
                }
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let region = REGIONS[(x >> 60) as usize % 4];
                // A small feature pool keeps repeats frequent.
                let feature = (x >> 20) % 12_000;
                let at = format!("universe {u}, step {step}");
                assert_eq!(m.touch(region, feature), r.touch(region, feature), "{at}");
                if step % 1_000 == 0 {
                    assert_agrees(&m, &r, &at);
                } else if u == 4 {
                    assert_counts_agree(&m, &r, &at);
                } else {
                    assert_eq!(m.covered(), r.hits.len() as u64, "{at}");
                }
            }
            assert_agrees(&m, &r, &format!("universe {u}, end"));
        }
    }

    #[test]
    fn tag_set_keeps_every_tag_across_growth() {
        let mut set = TagSet::default();
        let tags: Vec<u64> = (0..5_000u64).map(|i| mix(i, 7)).chain([0]).collect();
        for &t in &tags {
            assert!(set.insert(t));
            assert!(!set.insert(t));
        }
        assert!(set.slots.len() >= 2 * set.len);
        assert!(tags.iter().all(|&t| set.contains(t)));
        assert!(!set.contains(mix(5_000, 7)));
        set.clear();
        assert!(!tags.iter().any(|&t| set.contains(t)));
    }

    fn small() -> CoverageModel {
        CoverageModel::new(CoverageUniverse {
            base: 1000,
            pair: 500,
            state: 400,
            deep: 300,
        })
    }

    #[test]
    fn touch_unlocks_branches_once() {
        let mut m = small();
        let n1 = m.touch(Region::Base, 42);
        assert!(n1 > 0 && n1 <= 14);
        let n2 = m.touch(Region::Base, 42);
        assert_eq!(n2, 0, "repeat feature must not add coverage");
        assert_eq!(m.covered(), n1 as u64);
    }

    #[test]
    fn same_feature_in_different_regions_is_distinct() {
        let mut m = small();
        assert!(m.touch(Region::Base, 7) > 0);
        assert!(m.touch(Region::Pair, 7) > 0);
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut m = small();
        for f in 0..200u64 {
            m.touch(Region::Base, f);
            m.touch(Region::Pair, f);
            m.touch(Region::State, f);
            m.touch(Region::Deep, f);
        }
        let sum = m.covered_in(Region::Base)
            + m.covered_in(Region::Pair)
            + m.covered_in(Region::State)
            + m.covered_in(Region::Deep);
        assert_eq!(sum, m.covered());
    }

    #[test]
    fn region_saturates_at_its_size() {
        let mut m = CoverageModel::new(CoverageUniverse {
            base: 64,
            pair: 0,
            state: 0,
            deep: 0,
        });
        for f in 0..10_000u64 {
            m.touch(Region::Base, f);
        }
        assert!(m.covered() <= 64);
        assert!(
            m.covered() > 55,
            "region should nearly saturate, got {}",
            m.covered()
        );
    }

    #[test]
    fn coverage_is_deterministic() {
        let mut a = small();
        let mut b = small();
        for f in 0..500u64 {
            a.touch(Region::State, f * 3);
            b.touch(Region::State, f * 3);
        }
        assert_eq!(a.covered(), b.covered());
        assert_eq!(a.hits, b.hits);
    }

    #[test]
    fn clear_resets_everything() {
        let mut m = small();
        m.touch(Region::Deep, 1);
        m.clear();
        assert_eq!(m.covered(), 0);
        assert!(m.touch(Region::Deep, 1) > 0);
    }

    #[test]
    fn universe_total_adds_up() {
        let u = CoverageUniverse {
            base: 1,
            pair: 2,
            state: 3,
            deep: 4,
        };
        assert_eq!(u.total(), 10);
    }
}
