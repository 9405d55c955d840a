//! # workload — heavy-traffic client workloads for large topologies
//!
//! Deterministic generators of file-operation traffic whose shape
//! stresses the load model on large clusters: a Zipfian hotspot, a
//! diurnal cycle and flash crowds ([`heavy`]), with file sizes drawn from
//! [`sizes`]. Each emits Themis [`Operation`] blocks that a caller sends
//! through any [`themis::DfsAdaptor`]; the large-topology scaling
//! campaigns use them as the fixed request side.
//!
//! [`Operation`]: themis::spec::Operation

pub mod heavy;
pub mod sizes;

pub use heavy::{DiurnalCycle, FlashCrowd, ZipfianHotspot};
pub use sizes::SizeDistribution;

use themis::spec::Operation;

/// A reusable workload: a deterministic script of operations.
pub trait Workload {
    /// Human-readable name.
    fn name(&self) -> &'static str;

    /// Generates the next block of operations. Successive calls continue
    /// the workload (fresh file names, steady mix).
    fn next_block(&mut self) -> Vec<Operation>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_produce_wellformed_blocks() {
        let mut w: Vec<Box<dyn Workload>> = vec![
            Box::new(ZipfianHotspot::new(11, 500, 32)),
            Box::new(DiurnalCycle::new(11, 2)),
            Box::new(FlashCrowd::new(11, 3, 16, 4)),
        ];
        for wl in &mut w {
            for _ in 0..5 {
                let block = wl.next_block();
                assert!(!block.is_empty(), "{}", wl.name());
                assert!(block.iter().all(|op| op.well_formed()), "{}", wl.name());
                assert!(
                    block.iter().all(|op| op.opt.is_file_op()),
                    "{}: fixed request workloads never touch configuration",
                    wl.name()
                );
            }
        }
    }
}
