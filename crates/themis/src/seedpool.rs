//! The seed pool: interesting test cases kept for mutation (step 3/9 of
//! the workflow in Figure 6).

use crate::spec::TestCase;
use rand::rngs::StdRng;
use rand::RngExt;

/// One pooled seed.
#[derive(Debug, Clone)]
pub struct Seed {
    /// The operation sequence.
    pub case: TestCase,
    /// Guidance score when it was admitted (weighted load variance).
    pub score: f64,
    /// How many times it has been selected for mutation.
    pub picks: u32,
}

/// A bounded, score-ordered seed pool.
#[derive(Debug, Clone)]
pub struct SeedPool {
    seeds: Vec<Seed>,
    cap: usize,
}

impl SeedPool {
    /// Creates a pool holding at most `cap` seeds.
    pub fn new(cap: usize) -> Self {
        SeedPool {
            seeds: Vec::new(),
            cap: cap.max(1),
        }
    }

    /// Number of pooled seeds.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Admits a seed, keeping the pool sorted by score (descending) and
    /// bounded by capacity (the weakest seed is evicted).
    pub fn push(&mut self, case: TestCase, score: f64) {
        let pos = self.seeds.partition_point(|s| s.score >= score);
        self.seeds.insert(
            pos,
            Seed {
                case,
                score,
                picks: 0,
            },
        );
        if self.seeds.len() > self.cap {
            self.seeds.truncate(self.cap);
        }
    }

    /// Selects a seed for mutation, biased toward the top of the pool:
    /// with probability 3/4 a uniform draw from the top quarter, otherwise
    /// a uniform draw from the whole pool.
    pub fn pick(&mut self, rng: &mut StdRng) -> Option<&TestCase> {
        if self.seeds.is_empty() {
            return None;
        }
        let idx = if rng.random_bool(0.75) {
            rng.random_range(0..self.seeds.len().div_ceil(4))
        } else {
            rng.random_range(0..self.seeds.len())
        };
        self.seeds[idx].picks += 1;
        Some(&self.seeds[idx].case)
    }

    /// The best score currently pooled (0 when empty).
    pub fn best_score(&self) -> f64 {
        self.seeds.first().map(|s| s.score).unwrap_or(0.0)
    }

    /// Clears the pool (campaign reset).
    pub fn clear(&mut self) {
        self.seeds.clear();
    }

    /// Iterates pooled seeds, best first.
    pub fn iter(&self) -> impl Iterator<Item = &Seed> {
        self.seeds.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Operand, Operation, Operator};
    use rand::SeedableRng;

    fn case(tag: u64) -> TestCase {
        TestCase::new(vec![Operation::new(
            Operator::Create,
            vec![Operand::FileName(format!("/s{tag}")), Operand::Size(tag)],
        )])
    }

    #[test]
    fn pool_orders_by_score() {
        let mut p = SeedPool::new(8);
        p.push(case(1), 0.5);
        p.push(case(2), 2.0);
        p.push(case(3), 1.0);
        let scores: Vec<f64> = p.iter().map(|s| s.score).collect();
        assert_eq!(scores, vec![2.0, 1.0, 0.5]);
        assert_eq!(p.best_score(), 2.0);
    }

    #[test]
    fn pool_evicts_weakest_when_full() {
        let mut p = SeedPool::new(2);
        p.push(case(1), 1.0);
        p.push(case(2), 3.0);
        p.push(case(3), 2.0);
        assert_eq!(p.len(), 2);
        let scores: Vec<f64> = p.iter().map(|s| s.score).collect();
        assert_eq!(scores, vec![3.0, 2.0]);
    }

    #[test]
    fn pick_prefers_high_scores() {
        let mut p = SeedPool::new(16);
        for i in 0..16 {
            p.push(case(i), i as f64);
        }
        let mut rng = StdRng::seed_from_u64(5);
        let mut top_half = 0;
        for _ in 0..400 {
            let c = p.pick(&mut rng).unwrap().clone();
            // The top half holds scores 8..16, i.e. tags 8..16.
            if let Operand::Size(tag) = c.ops[0].opds[1] {
                if tag >= 8 {
                    top_half += 1;
                }
            }
        }
        assert!(
            top_half > 280,
            "expected bias toward top half, got {top_half}/400"
        );
    }

    #[test]
    fn empty_pool_picks_none() {
        let mut p = SeedPool::new(4);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(p.pick(&mut rng).is_none());
        assert_eq!(p.best_score(), 0.0);
    }

    #[test]
    fn clear_empties_pool() {
        let mut p = SeedPool::new(4);
        p.push(case(1), 1.0);
        p.clear();
        assert!(p.is_empty());
    }
}
