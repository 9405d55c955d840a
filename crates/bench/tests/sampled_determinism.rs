//! Sampled placement under the grid executor: the candidate-sampling
//! policies hash their probe sequences from the placement key, so a
//! campaign on a sampled flavor must stay a pure function of its
//! seed no matter how many workers race over the campaign matrix or
//! which steal schedule they happen to take.

use bench::scale100k::run_campaign_100k;
use bench::steal_execute;
use proptest::prelude::*;
use simdfs::Flavor;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same-seed sampled campaigns render byte-identical canonical
    /// reports at 1 (serial reference), 2, 4 and 8 workers, across all
    /// flavors (exercising both the power-of-d and stride-sampled-ring
    /// policies) and randomized topology sizes.
    #[test]
    fn sampled_campaigns_identical_across_worker_counts(
        seed in any::<u64>(),
        flavor_ix in 0usize..4,
        nodes in 80u32..240,
        requests in 96u64..288,
    ) {
        let flavor = Flavor::all()[flavor_ix];
        let seeds: Vec<u64> = (0..4u64)
            .map(|k| seed.wrapping_add(k.wrapping_mul(0x9e37_79b9)))
            .collect();
        let serial: Vec<String> = seeds
            .iter()
            .map(|&s| run_campaign_100k(flavor, nodes, s, requests).report)
            .collect();
        for workers in [2usize, 4, 8] {
            let seeds = &seeds;
            let (reports, _stats) = steal_execute(seeds.len(), workers, |_w| {
                move |i: usize| run_campaign_100k(flavor, nodes, seeds[i], requests).report
            });
            prop_assert_eq!(&reports, &serial, "workers={} diverged", workers);
        }
    }
}
