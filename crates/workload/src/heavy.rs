//! Heavy-traffic workload generators for large-topology campaigns.
//!
//! The SmallFile/Filebench-style generators model steady client mixes on
//! the paper's 10-node testbed. Scaling studies (1k/10k storage nodes)
//! need traffic whose *shape* stresses the load model instead: a Zipfian
//! hotspot concentrating accesses on a few files, a diurnal cycle whose
//! intensity swells and ebbs, and flash crowds hammering one directory in
//! bursts. All three are deterministic given their seed and emit only
//! file operations (the fixed request side of a campaign).

use crate::sizes::SizeDistribution;
use crate::Workload;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use themis::spec::{Operand, Operation, Operator};

/// A uniform draw from `[0, 1)` with 53 mantissa bits.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn create(path: String, size: u64) -> Operation {
    Operation::new(
        Operator::Create,
        vec![Operand::FileName(path), Operand::Size(size)],
    )
}

/// Zipf-like file popularity: most operations land on a handful of hot
/// files out of a large population.
///
/// Ranks are drawn by the inverse CDF of a continuous log-uniform power
/// law (`rank = ⌊n^u⌋`, `u ~ U[0,1)`), which matches a Zipf distribution
/// with exponent ≈ 1 without needing per-rank harmonic tables — rank 0
/// absorbs a constant fraction of the traffic no matter how large the
/// population grows, so a 10k-node cluster still sees a genuine hotspot.
pub struct ZipfianHotspot {
    rng: StdRng,
    population: usize,
    ops_per_block: usize,
    sizes: SizeDistribution,
    created: Vec<bool>,
    started: bool,
}

impl ZipfianHotspot {
    /// A hotspot workload over `population` files, `ops_per_block` drawn
    /// operations per block.
    pub fn new(seed: u64, population: usize, ops_per_block: usize) -> Self {
        let population = population.max(1);
        ZipfianHotspot {
            rng: StdRng::seed_from_u64(seed),
            population,
            ops_per_block: ops_per_block.max(1),
            sizes: SizeDistribution::Uniform(256 * 1024, 8 * 1024 * 1024),
            created: vec![false; population],
            started: false,
        }
    }

    fn rank(&mut self) -> usize {
        let n = self.population as f64;
        let u = unit(&mut self.rng);
        ((n.powf(u) - 1.0) as usize).min(self.population - 1)
    }
}

impl Workload for ZipfianHotspot {
    fn name(&self) -> &'static str {
        "zipfian-hotspot"
    }

    fn next_block(&mut self) -> Vec<Operation> {
        let mut ops = Vec::with_capacity(self.ops_per_block + 1);
        if !self.started {
            self.started = true;
            ops.push(Operation::new(
                Operator::Mkdir,
                vec![Operand::FileName("/zipf".into())],
            ));
        }
        for _ in 0..self.ops_per_block {
            let r = self.rank();
            let path = format!("/zipf/f{r}");
            if !self.created[r] {
                self.created[r] = true;
                let size = self.sizes.sample(&mut self.rng);
                ops.push(create(path, size));
                continue;
            }
            match self.rng.random_range(0..10u32) {
                0..=6 => ops.push(Operation::new(
                    Operator::Open,
                    vec![Operand::FileName(path)],
                )),
                7..=8 => {
                    let size = self.sizes.sample(&mut self.rng) / 8;
                    ops.push(Operation::new(
                        Operator::Append,
                        vec![Operand::FileName(path), Operand::Size(size.max(4096))],
                    ));
                }
                _ => {
                    let size = self.sizes.sample(&mut self.rng);
                    ops.push(Operation::new(
                        Operator::Overwrite,
                        vec![Operand::FileName(path), Operand::Size(size)],
                    ));
                }
            }
        }
        ops
    }
}

/// Relative hourly intensity of a day of traffic (quiet night, morning
/// ramp, afternoon peak, evening tail). Integer weights keep the cycle
/// bit-identical across platforms — no trig.
const DIURNAL_PROFILE: [u32; 24] = [
    3, 2, 2, 2, 2, 3, 5, 8, 12, 14, 15, 15, 14, 15, 16, 15, 14, 12, 10, 8, 6, 5, 4, 3,
];

/// A diurnal cycle: each block is one "hour", and the number of operations
/// swells and ebbs along a fixed 24-hour intensity profile (quiet night,
/// morning ramp, afternoon peak, evening tail). The mix is create-heavy with
/// reads over recently created files, like an ingest pipeline with
/// daytime-interactive consumers.
pub struct DiurnalCycle {
    rng: StdRng,
    /// Operations per unit of profile weight.
    scale: usize,
    sizes: SizeDistribution,
    hour: u64,
    counter: u64,
    recent: Vec<String>,
}

impl DiurnalCycle {
    /// A diurnal workload emitting about `scale` operations per profile
    /// weight unit (peak hours run 16×`scale` ops, the dead of night 2×).
    pub fn new(seed: u64, scale: usize) -> Self {
        DiurnalCycle {
            rng: StdRng::seed_from_u64(seed),
            scale: scale.max(1),
            sizes: SizeDistribution::HeavyTailed,
            hour: 0,
            counter: 0,
            recent: Vec::new(),
        }
    }
}

impl Workload for DiurnalCycle {
    fn name(&self) -> &'static str {
        "diurnal-cycle"
    }

    fn next_block(&mut self) -> Vec<Operation> {
        let mut ops = Vec::new();
        if self.hour == 0 {
            ops.push(Operation::new(
                Operator::Mkdir,
                vec![Operand::FileName("/diurnal".into())],
            ));
        }
        let weight = DIURNAL_PROFILE[(self.hour % 24) as usize] as usize;
        self.hour += 1;
        for _ in 0..weight * self.scale {
            // Day traffic reads what the pipeline wrote; a third of the
            // operations create fresh data regardless of the hour.
            if self.recent.is_empty() || self.rng.random_range(0..3u32) == 0 {
                self.counter += 1;
                let path = format!("/diurnal/f{}", self.counter);
                let size = self.sizes.sample(&mut self.rng);
                ops.push(create(path.clone(), size));
                self.recent.push(path);
                if self.recent.len() > 256 {
                    self.recent.remove(0);
                }
            } else {
                let idx = self.rng.random_range(0..self.recent.len());
                ops.push(Operation::new(
                    Operator::Open,
                    vec![Operand::FileName(self.recent[idx].clone())],
                ));
            }
        }
        ops
    }
}

/// A flash crowd: a steady trickle of background traffic, interrupted
/// every `period` blocks by a burst that hammers one freshly chosen
/// directory with creates and re-reads — the "everyone uploads to the
/// same place at once" pattern that defeats placement spreading.
pub struct FlashCrowd {
    rng: StdRng,
    /// Blocks between bursts.
    period: u64,
    /// Operations per burst.
    burst_ops: usize,
    /// Background operations per quiet block.
    trickle_ops: usize,
    sizes: SizeDistribution,
    block: u64,
    counter: u64,
}

impl FlashCrowd {
    /// A flash-crowd workload bursting every `period` blocks with
    /// `burst_ops` operations over `trickle_ops` of background noise.
    pub fn new(seed: u64, period: u64, burst_ops: usize, trickle_ops: usize) -> Self {
        FlashCrowd {
            rng: StdRng::seed_from_u64(seed),
            period: period.max(1),
            burst_ops: burst_ops.max(1),
            trickle_ops: trickle_ops.max(1),
            sizes: SizeDistribution::Uniform(512 * 1024, 16 * 1024 * 1024),
            block: 0,
            counter: 0,
        }
    }
}

impl Workload for FlashCrowd {
    fn name(&self) -> &'static str {
        "flash-crowd"
    }

    fn next_block(&mut self) -> Vec<Operation> {
        let mut ops = Vec::new();
        let bursting = self.block % self.period == self.period - 1;
        let crowd = self.block / self.period;
        self.block += 1;
        if bursting {
            ops.push(Operation::new(
                Operator::Mkdir,
                vec![Operand::FileName(format!("/crowd{crowd}"))],
            ));
            let mut burst_files = Vec::new();
            for _ in 0..self.burst_ops {
                // The crowd mostly uploads; re-reads pile onto what just
                // landed, concentrating IO on the same nodes.
                if burst_files.is_empty() || self.rng.random_range(0..5u32) < 3 {
                    self.counter += 1;
                    let path = format!("/crowd{crowd}/f{}", self.counter);
                    let size = self.sizes.sample(&mut self.rng);
                    ops.push(create(path.clone(), size));
                    burst_files.push(path);
                } else {
                    let idx = self.rng.random_range(0..burst_files.len());
                    ops.push(Operation::new(
                        Operator::Open,
                        vec![Operand::FileName(burst_files[idx].clone())],
                    ));
                }
            }
        } else {
            if self.block == 1 {
                ops.push(Operation::new(
                    Operator::Mkdir,
                    vec![Operand::FileName("/background".into())],
                ));
            }
            for _ in 0..self.trickle_ops {
                self.counter += 1;
                let path = format!("/background/f{}", self.counter);
                let size = self.sizes.sample(&mut self.rng);
                ops.push(create(path, size));
            }
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_concentrates_on_low_ranks() {
        let mut w = ZipfianHotspot::new(7, 10_000, 64);
        let mut head = 0usize;
        let mut total = 0usize;
        for _ in 0..50 {
            for op in w.next_block() {
                if let Some(Operand::FileName(p)) = op.opds.first() {
                    if let Some(r) = p.strip_prefix("/zipf/f") {
                        total += 1;
                        if r.parse::<usize>().unwrap() < 100 {
                            head += 1;
                        }
                    }
                }
            }
        }
        // The top 1% of ranks must absorb roughly half the traffic
        // (log-uniform gives ln(100)/ln(10000) = 50%).
        assert!(
            head * 10 > total * 3,
            "hotspot too cold: {head}/{total} on the top 100 ranks"
        );
    }

    #[test]
    fn diurnal_blocks_follow_the_profile() {
        let mut w = DiurnalCycle::new(3, 2);
        let sizes: Vec<usize> = (0..24).map(|_| w.next_block().len()).collect();
        // Peak hour (14:00, weight 16) carries well over the nightly
        // minimum (weight 2).
        assert!(sizes[14] >= sizes[2] * 4, "{sizes:?}");
        // Next day repeats the same weights (± the day-one mkdir).
        let day2: Vec<usize> = (0..24).map(|_| w.next_block().len()).collect();
        assert_eq!(sizes[14], day2[14]);
    }

    #[test]
    fn flash_crowd_bursts_on_schedule() {
        let mut w = FlashCrowd::new(5, 4, 40, 2);
        let sizes: Vec<usize> = (0..12).map(|_| w.next_block().len()).collect();
        for (i, len) in sizes.iter().enumerate() {
            if i as u64 % 4 == 3 {
                assert!(*len > 20, "block {i} should be a burst, got {len}");
            } else {
                assert!(*len <= 4, "block {i} should be quiet, got {len}");
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let mut a = ZipfianHotspot::new(11, 1000, 32);
        let mut b = ZipfianHotspot::new(11, 1000, 32);
        let mut c = DiurnalCycle::new(11, 3);
        let mut d = DiurnalCycle::new(11, 3);
        let mut e = FlashCrowd::new(11, 3, 16, 4);
        let mut f = FlashCrowd::new(11, 3, 16, 4);
        for _ in 0..8 {
            assert_eq!(a.next_block(), b.next_block());
            assert_eq!(c.next_block(), d.next_block());
            assert_eq!(e.next_block(), f.next_block());
        }
    }
}
