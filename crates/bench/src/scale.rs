//! Large-topology scaling measurements behind the `BENCH_3.json` artifact:
//! per-operation variance-sampling cost from 10 to 10k storage nodes
//! (proving the streaming accumulators keep `sample_variance` O(1)),
//! heavy-traffic campaigns (Zipfian hotspot, diurnal cycle, flash crowd)
//! on scaled clusters with a mean-field cross-check of the simulated mean
//! load trajectory, and a same-seed determinism check at 10k nodes.

use crate::perf::{json_f64, push_json_str};
use adaptors::SimAdaptor;
use simdfs::{BugSet, DfsRequest, DfsSim, Flavor, FlavorConfig, MeanFieldModel, MIB};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;
use themis::spec::{Operand, Operation, Operator};
use themis::DfsAdaptor;
use workload::{DiurnalCycle, FlashCrowd, Workload, ZipfianHotspot};

/// One timed micro-measurement: `samples` batches of `iters_per_sample`
/// calls (see `sample`).
#[derive(Debug, Clone)]
pub struct RawMeasurement {
    /// `group/function` identifier.
    pub id: String,
    /// Samples taken.
    pub samples: u64,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Mean seconds per iteration.
    pub mean_s: f64,
    /// Fastest sample, seconds per iteration.
    pub min_s: f64,
    /// Slowest sample, seconds per iteration.
    pub max_s: f64,
}

/// Times `f` and reports seconds-per-iteration statistics over
/// `samples` batches of `iters` calls each.
fn sample(id: &str, samples: u64, iters: u64, mut f: impl FnMut()) -> RawMeasurement {
    let mut mean_acc = 0.0;
    let mut min_s = f64::INFINITY;
    let mut max_s = 0.0f64;
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per = start.elapsed().as_secs_f64() / iters as f64;
        mean_acc += per;
        min_s = min_s.min(per);
        max_s = max_s.max(per);
    }
    RawMeasurement {
        id: id.into(),
        samples,
        iters_per_sample: iters,
        mean_s: mean_acc / samples as f64,
        min_s,
        max_s,
    }
}

fn push_measurements(out: &mut String, raw: &[RawMeasurement], indent: &str) {
    for (i, m) in raw.iter().enumerate() {
        out.push_str(indent);
        out.push_str("{\"id\": ");
        push_json_str(out, &m.id);
        out.push_str(&format!(
            ", \"samples\": {}, \"iters_per_sample\": {}, \"mean_s\": {}, \"min_s\": {}, \"max_s\": {}}}{}\n",
            m.samples,
            m.iters_per_sample,
            json_f64(m.mean_s),
            json_f64(m.min_s),
            json_f64(m.max_s),
            if i + 1 < raw.len() { "," } else { "" },
        ));
    }
}

/// Per-operation costs measured on one cluster size.
#[derive(Debug, Clone)]
pub struct VarianceScalingPoint {
    /// Storage fleet size.
    pub nodes: u32,
    /// Wall seconds to build and preload the topology (context, not gated).
    pub build_s: f64,
    /// Per-call cost of the full three-dimension variance probe
    /// (storage/CPU/network — exactly what `sample_variance` pays per
    /// executed operation).
    pub probe: RawMeasurement,
    /// Per-call cost of executing a create (places fragments, maintains
    /// the streaming accumulators).
    pub execute: RawMeasurement,
}

/// Variance-probe cost across cluster sizes.
#[derive(Debug, Clone)]
pub struct VarianceScaling {
    /// One point per measured fleet size, in measurement order.
    pub points: Vec<VarianceScalingPoint>,
}

impl VarianceScaling {
    /// Probe cost at the largest fleet over the cost at the smallest —
    /// the acceptance criterion's flatness number (O(1) sampling keeps
    /// this near 1.0; the old full-recompute walk would scale it with n).
    ///
    /// Best samples are compared rather than means: the probe costs
    /// tens of nanoseconds, where one scheduler preemption in a sample
    /// batch would dominate a mean.
    pub fn probe_cost_ratio(&self) -> f64 {
        let min_nodes = self.points.iter().min_by_key(|p| p.nodes);
        let max_nodes = self.points.iter().max_by_key(|p| p.nodes);
        match (min_nodes, max_nodes) {
            (Some(a), Some(b)) if a.probe.min_s > 0.0 => b.probe.min_s / a.probe.min_s,
            _ => f64::NAN,
        }
    }
}

/// Builds a scaled HDFS-flavor sim and dirties it with enough traffic
/// that probe measurements see a working cluster, not a fresh one.
fn build_scaled(flavor: Flavor, nodes: u32, warmup_files: u32) -> DfsSim {
    let cfg = FlavorConfig::scaled(flavor, nodes);
    let mut sim = DfsSim::with_config(cfg, BugSet::None);
    for k in 0..warmup_files {
        let _ = sim.execute(&DfsRequest::Create {
            path: format!("/warmup{k}"),
            size: 4 * MIB,
        });
    }
    sim
}

/// Measures the per-operation variance-probe and execute costs at each
/// requested fleet size.
pub fn measure_variance_scaling(node_counts: &[u32]) -> VarianceScaling {
    let mut points = Vec::new();
    for &nodes in node_counts {
        let start = Instant::now();
        let mut sim = build_scaled(Flavor::Hdfs, nodes, 64);
        let build_s = start.elapsed().as_secs_f64();

        let probe = sample(&format!("scale/variance_probe_{nodes}"), 10, 2000, || {
            let _ = sim.variance_probe();
        });

        let mut k = 0u64;
        let execute = sample(&format!("scale/execute_create_{nodes}"), 5, 200, || {
            k += 1;
            let _ = sim.execute(&DfsRequest::Create {
                path: format!("/bench{k}"),
                size: 4 * MIB,
            });
        });

        points.push(VarianceScalingPoint {
            nodes,
            build_s,
            probe,
            execute,
        });
    }
    VarianceScaling { points }
}

/// Result of one heavy-traffic campaign on a scaled cluster.
#[derive(Debug, Clone)]
pub struct HeavyCampaign {
    /// Target flavor.
    pub flavor: Flavor,
    /// Storage fleet size.
    pub nodes: u32,
    /// Generator seed.
    pub seed: u64,
    /// Blocks drawn from each generator.
    pub blocks: u64,
    /// Operations sent through the adaptor.
    pub ops_sent: u64,
    /// Operations the cluster accepted.
    pub ops_accepted: u64,
    /// Final max-over-mean storage imbalance ratio.
    pub final_imbalance: f64,
    /// Largest |observed − predicted| mean utilization across the run
    /// (the mean-field cross-check; see `simdfs::MeanFieldModel`).
    pub max_mean_field_dev: f64,
    /// Mean-field observations folded in (one per generator block).
    pub mean_field_samples: u64,
    /// Whether the full state audit (including streaming-accumulator
    /// recomputation) passed at the end of the run.
    pub audit_ok: bool,
    /// Wall seconds for the run (not part of `report`).
    pub wall_s: f64,
    /// Canonical deterministic summary — byte-identical across same-seed
    /// runs; contains no wall-clock quantities.
    pub report: String,
}

/// Tolerance for the mean-field cross-check. The model is fed the exact
/// logical byte flow, so the only legitimate gap is utilization
/// quantization (2^-32 per node) plus float rounding in the mean.
pub const MEAN_FIELD_TOLERANCE: f64 = 1e-6;

impl HeavyCampaign {
    /// Whether the simulated mean tracked the analytic mean-field curve.
    pub fn mean_field_ok(&self) -> bool {
        self.max_mean_field_dev <= MEAN_FIELD_TOLERANCE
    }
}

/// Applies one accepted operation's logical byte flow to the mean-field
/// model, using `sizes` to recover overwrite deltas. Only storage-bearing
/// operators move bytes; opens, mkdirs and the rest are no-ops here.
fn track_logical_flow(
    op: &Operation,
    sizes: &mut BTreeMap<String, u64>,
    model: &mut MeanFieldModel,
) {
    let (path, size) = match (op.opds.first(), op.opds.get(1)) {
        (Some(Operand::FileName(p)), Some(Operand::Size(s))) => (p, *s),
        _ => return,
    };
    match op.opt {
        Operator::Create => {
            model.ingest(size);
            sizes.insert(path.clone(), size);
        }
        Operator::Append => {
            model.ingest(size);
            *sizes.entry(path.clone()).or_insert(0) += size;
        }
        Operator::Overwrite | Operator::TruncateOverwrite => {
            let old = sizes.insert(path.clone(), size).unwrap_or(0);
            if size >= old {
                model.ingest(size - old);
            } else {
                model.remove(old - size);
            }
        }
        _ => {}
    }
}

/// Runs one heavy-traffic campaign: all three heavy generators drive a
/// scaled bug-free cluster through the adaptor, the mean-field model is
/// fed the exact logical byte flow and cross-checked against the
/// cluster's observed mean utilization after every block, and the full
/// state audit runs at the end.
pub fn run_heavy_campaign(flavor: Flavor, nodes: u32, seed: u64, blocks: u64) -> HeavyCampaign {
    let start = Instant::now();
    let cfg = FlavorConfig::scaled(flavor, nodes);
    let replicas = cfg.replicas as u32;
    let sim = DfsSim::with_config(cfg, BugSet::None);
    let (base_used, capacity) = {
        let c = sim.cluster();
        (c.total_capacity() - c.total_free(), c.total_capacity())
    };
    let mut model = MeanFieldModel::new(base_used, capacity, replicas);
    let handle = Rc::new(RefCell::new(sim));
    let mut adaptor = SimAdaptor::from_handle(handle.clone());
    adaptor.command_log_cap = 0;

    let mut generators: Vec<Box<dyn Workload>> = vec![
        Box::new(ZipfianHotspot::new(seed, 4096, 96)),
        Box::new(DiurnalCycle::new(seed ^ 1, 4)),
        Box::new(FlashCrowd::new(seed ^ 2, 6, 64, 8)),
    ];

    let mut sizes: BTreeMap<String, u64> = BTreeMap::new();
    let mut ops_sent = 0u64;
    let mut ops_accepted = 0u64;
    let mut max_dev = 0.0f64;
    let mut samples = 0u64;
    for _ in 0..blocks {
        for gen in &mut generators {
            for op in gen.next_block() {
                ops_sent += 1;
                if adaptor.send(&op).is_ok() {
                    ops_accepted += 1;
                    track_logical_flow(&op, &mut sizes, &mut model);
                }
            }
            let observed = handle.borrow().cluster().util_stats().mean();
            let dev = model.observe(observed).abs();
            max_dev = max_dev.max(dev);
            samples += 1;
        }
    }

    let (final_imbalance, audit_ok) = {
        let sim = handle.borrow();
        (
            sim.cluster().util_stats().imbalance_ratio(),
            sim.audit_state().is_ok(),
        )
    };
    let wall_s = start.elapsed().as_secs_f64();

    let report = format!(
        "heavy-campaign flavor={} nodes={nodes} seed={seed} blocks={blocks} \
         sent={ops_sent} accepted={ops_accepted} live_files={} \
         imbalance={final_imbalance:.9} max_mean_field_dev={max_dev:.12} \
         audit={audit_ok}",
        flavor.name(),
        sizes.len(),
    );
    HeavyCampaign {
        flavor,
        nodes,
        seed,
        blocks,
        ops_sent,
        ops_accepted,
        final_imbalance,
        max_mean_field_dev: max_dev,
        mean_field_samples: samples,
        audit_ok,
        wall_s,
        report,
    }
}

/// Same-seed determinism at scale: two fresh heavy campaigns with
/// identical parameters must produce byte-identical reports.
#[derive(Debug, Clone)]
pub struct DeterminismCheck {
    /// The first run (the one reported in the artifact).
    pub campaign: HeavyCampaign,
    /// Whether the second run's report matched byte for byte.
    pub identical: bool,
}

/// Runs the campaign twice from scratch and compares reports.
pub fn check_campaign_determinism(
    flavor: Flavor,
    nodes: u32,
    seed: u64,
    blocks: u64,
) -> DeterminismCheck {
    let first = run_heavy_campaign(flavor, nodes, seed, blocks);
    let second = run_heavy_campaign(flavor, nodes, seed, blocks);
    let identical = first.report == second.report;
    DeterminismCheck {
        campaign: first,
        identical,
    }
}

/// Renders the scaling artifact (`BENCH_3.json`).
pub fn bench3_json(
    variance: &VarianceScaling,
    campaigns: &[HeavyCampaign],
    determinism: &DeterminismCheck,
) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"themis-bench-v3\",\n");
    out.push_str("  \"schema_version\": 4,\n");
    out.push_str(&format!(
        "  \"host\": {},\n",
        crate::perf::HostTopology::detect().to_json()
    ));
    out.push_str(&format!(
        "  \"variance_probe_cost_ratio\": {},\n",
        json_f64(variance.probe_cost_ratio())
    ));

    out.push_str("  \"variance_scaling\": [\n");
    for (i, p) in variance.points.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"nodes\": {},\n", p.nodes));
        out.push_str(&format!("      \"build_s\": {},\n", json_f64(p.build_s)));
        out.push_str("      \"measurements\": [\n");
        push_measurements(&mut out, &[p.probe.clone(), p.execute.clone()], "        ");
        out.push_str("      ]\n");
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < variance.points.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"heavy_campaigns\": [\n");
    for (i, c) in campaigns.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"flavor\": \"{}\",\n", c.flavor.name()));
        out.push_str(&format!("      \"nodes\": {},\n", c.nodes));
        out.push_str(&format!("      \"seed\": {},\n", c.seed));
        out.push_str(&format!("      \"blocks\": {},\n", c.blocks));
        out.push_str(&format!("      \"ops_sent\": {},\n", c.ops_sent));
        out.push_str(&format!("      \"ops_accepted\": {},\n", c.ops_accepted));
        out.push_str(&format!(
            "      \"final_imbalance\": {},\n",
            json_f64(c.final_imbalance)
        ));
        out.push_str(&format!(
            "      \"max_mean_field_dev\": {},\n",
            json_f64(c.max_mean_field_dev)
        ));
        out.push_str(&format!(
            "      \"mean_field_samples\": {},\n",
            c.mean_field_samples
        ));
        out.push_str(&format!(
            "      \"mean_field_ok\": {},\n",
            c.mean_field_ok()
        ));
        out.push_str(&format!("      \"audit_ok\": {},\n", c.audit_ok));
        out.push_str(&format!("      \"wall_s\": {},\n", json_f64(c.wall_s)));
        out.push_str("      \"report\": ");
        push_json_str(&mut out, &c.report);
        out.push('\n');
        out.push_str(&format!(
            "    }}{}\n",
            if i + 1 < campaigns.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");

    out.push_str("  \"determinism\": {\n");
    out.push_str(&format!("    \"nodes\": {},\n", determinism.campaign.nodes));
    out.push_str(&format!("    \"seed\": {},\n", determinism.campaign.seed));
    out.push_str(&format!("    \"identical\": {},\n", determinism.identical));
    out.push_str("    \"report\": ");
    push_json_str(&mut out, &determinism.campaign.report);
    out.push_str("\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variance_probe_cost_is_flat_small_scale() {
        // The CI gate measures 10 vs 10k; keep the in-tree test cheap with
        // 10 vs 500 — the probe must already be size-independent there.
        let v = measure_variance_scaling(&[10, 500]);
        assert_eq!(v.points.len(), 2);
        let ratio = v.probe_cost_ratio();
        assert!(ratio.is_finite() && ratio > 0.0);
        for p in &v.points {
            assert!(p.probe.min_s > 0.0 && p.execute.min_s > 0.0);
        }
    }

    #[test]
    fn heavy_campaign_audits_and_tracks_mean_field() {
        let c = run_heavy_campaign(Flavor::Hdfs, 200, 0xbe, 4);
        assert!(c.audit_ok, "state audit failed: {}", c.report);
        assert!(c.ops_accepted > 0, "no operations landed: {}", c.report);
        assert!(
            c.mean_field_ok(),
            "mean-field deviation {} exceeds tolerance: {}",
            c.max_mean_field_dev,
            c.report
        );
        assert!(c.final_imbalance >= 1.0);
        assert_eq!(c.mean_field_samples, 4 * 3);
    }

    #[test]
    fn heavy_campaigns_are_deterministic_per_seed() {
        let d = check_campaign_determinism(Flavor::GlusterFs, 120, 7, 3);
        assert!(d.identical, "same-seed reports diverged");
        let other = run_heavy_campaign(Flavor::GlusterFs, 120, 8, 3);
        assert_ne!(d.campaign.report, other.report, "seed must matter");
    }

    #[test]
    fn bench3_json_is_well_formed_enough() {
        let v = VarianceScaling {
            points: vec![VarianceScalingPoint {
                nodes: 10,
                build_s: 0.01,
                probe: RawMeasurement {
                    id: "scale/variance_probe_10".into(),
                    samples: 2,
                    iters_per_sample: 10,
                    mean_s: 1e-7,
                    min_s: 9e-8,
                    max_s: 2e-7,
                },
                execute: RawMeasurement {
                    id: "scale/execute_create_10".into(),
                    samples: 2,
                    iters_per_sample: 10,
                    mean_s: 1e-5,
                    min_s: 9e-6,
                    max_s: 2e-5,
                },
            }],
        };
        let c = HeavyCampaign {
            flavor: Flavor::Hdfs,
            nodes: 10_000,
            seed: 0xbe,
            blocks: 8,
            ops_sent: 1000,
            ops_accepted: 990,
            final_imbalance: 1.25,
            max_mean_field_dev: 1e-9,
            mean_field_samples: 24,
            audit_ok: true,
            wall_s: 3.0,
            report: "heavy-campaign \"quoted\"".into(),
        };
        let d = DeterminismCheck {
            campaign: c.clone(),
            identical: true,
        };
        let j = bench3_json(&v, std::slice::from_ref(&c), &d);
        assert!(j.contains("\"schema\": \"themis-bench-v3\""));
        assert!(j.contains("\"schema_version\": 4"));
        assert!(j.contains("\"host\": {\"available_parallelism\": "));
        assert!(j.contains("\"variance_probe_cost_ratio\""));
        assert!(j.contains("\"mean_field_ok\": true"));
        assert!(j.contains("\\\"quoted\\\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
