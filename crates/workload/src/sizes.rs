//! Deterministic file-size distributions for workload generation.

use rand::rngs::StdRng;
use rand::RngExt;

const MIB: u64 = 1024 * 1024;
const KIB: u64 = 1024;

/// A file-size distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeDistribution {
    /// Uniform between the bounds (inclusive lower, exclusive upper).
    Uniform(u64, u64),
    /// A discrete heavy-tailed mix: mostly small files, occasional large
    /// ones (approximating the Zipf-like size mixes Filebench personalities
    /// use).
    HeavyTailed,
}

impl SizeDistribution {
    /// Draws one size.
    pub fn sample(&self, rng: &mut StdRng) -> u64 {
        match self {
            SizeDistribution::Uniform(lo, hi) => {
                if hi <= lo {
                    *lo
                } else {
                    rng.random_range(*lo..*hi)
                }
            }
            SizeDistribution::HeavyTailed => match rng.random_range(0..100u32) {
                0..=59 => rng.random_range(4 * KIB..256 * KIB),
                60..=89 => rng.random_range(256 * KIB..8 * MIB),
                90..=98 => rng.random_range(8 * MIB..64 * MIB),
                _ => rng.random_range(64 * MIB..256 * MIB),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let s = SizeDistribution::Uniform(10, 20).sample(&mut rng);
            assert!((10..20).contains(&s));
        }
    }

    #[test]
    fn degenerate_uniform_returns_lower() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(SizeDistribution::Uniform(10, 10).sample(&mut rng), 10);
    }

    #[test]
    fn heavy_tail_is_mostly_small_sometimes_large() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<u64> = (0..2000)
            .map(|_| SizeDistribution::HeavyTailed.sample(&mut rng))
            .collect();
        let small = samples.iter().filter(|&&s| s < 256 * KIB).count();
        let large = samples.iter().filter(|&&s| s >= 64 * MIB).count();
        assert!(small > 1000, "small fraction {small}");
        assert!(large > 0 && large < 100, "large fraction {large}");
    }
}
