//! Criterion benches: one target per paper table/figure (reduced budgets)
//! plus micro-benchmarks of the hot paths (generation, mutation, detector,
//! simulator throughput).
//!
//! The full-budget artifacts are produced by the `repro` binary; these
//! benches time scaled-down versions of the same code paths so regressions
//! in the harness show up in `cargo bench`.

use bench::{run_eval, run_matrix, run_strategy_all_flavors};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use simdfs::{BugSet, DfsRequest, DfsSim, Flavor, MIB};
use std::hint::black_box;
use themis::{Detector, InputModel, NodeInventory, VarianceWeights};

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("paper");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(8));
    g
}

fn bench_tables(c: &mut Criterion) {
    let mut g = quick(c);
    g.bench_function("table1_catalog", |b| {
        b.iter(|| black_box(bench::tables::table1().len()))
    });
    g.bench_function("figure2_reproduction", |b| {
        b.iter(|| black_box(bench::tables::figure2().len()))
    });
    g.bench_function("table2_themis_1h_gluster", |b| {
        b.iter(|| {
            let r = run_eval(
                Flavor::GlusterFs,
                "Themis",
                BugSet::New,
                1,
                0xbe,
                0.25,
                VarianceWeights::default(),
            );
            black_box(r.campaign.ops_sent)
        })
    });
    g.bench_function("table3_5_fig12_matrix_1h", |b| {
        b.iter(|| {
            let m = run_matrix(&["Themis"], BugSet::New, 1, 0xbe);
            black_box(m["Themis"].len())
        })
    });
    g.bench_function("table4_historical_1h", |b| {
        b.iter(|| {
            let rs = run_strategy_all_flavors(
                "Themis",
                BugSet::Historical,
                1,
                0xbe,
                0.25,
                VarianceWeights::default(),
            );
            black_box(rs.len())
        })
    });
    g.bench_function("table6_ablation_1h", |b| {
        b.iter(|| {
            let m = run_matrix(&["Themis", "Themis-"], BugSet::New, 1, 0xbe);
            black_box(m.len())
        })
    });
    g.bench_function("table7_low_threshold_1h", |b| {
        b.iter(|| {
            let r = run_eval(
                Flavor::LeoFs,
                "Themis",
                BugSet::New,
                1,
                0xbe,
                0.05,
                VarianceWeights::default(),
            );
            black_box(r.false_positive_confirms)
        })
    });
    g.bench_function("table8_storage_weight_1h", |b| {
        b.iter(|| {
            let r = run_eval(
                Flavor::LeoFs,
                "Themis",
                BugSet::New,
                1,
                0xbe,
                0.25,
                VarianceWeights::storage_weighted(1.0),
            );
            black_box(r.campaign.iterations)
        })
    });
    g.finish();
}

fn bench_micro(c: &mut Criterion) {
    let mut g = c.benchmark_group("micro");

    // Operation generation + mutation throughput.
    g.bench_function("generate_and_mutate_case", |b| {
        let mut model = InputModel::new();
        model.sync(&NodeInventory {
            mgmt: vec![0, 1],
            storage: (2..10).collect(),
            volumes: (10..26).collect(),
            free_space: 1 << 38,
            files: (0..256).map(|i| format!("/f{i}")).collect(),
            dirs: vec!["/d".into()],
        });
        let mut rng = StdRng::seed_from_u64(9);
        let mut case = themis::gen::random_case(&mut model, &mut rng, 8);
        b.iter(|| {
            case = themis::mutate::mutate(&case, &mut model, &mut rng, 8);
            black_box(case.len())
        })
    });

    // Detector check throughput over a 10-node report.
    g.bench_function("detector_check", |b| {
        let mut adaptor = adaptors::SimAdaptor::new(Flavor::Hdfs, BugSet::None);
        use themis::DfsAdaptor;
        let report = adaptor.load_report();
        let d = Detector::with_threshold(0.25);
        b.iter(|| black_box(d.check(&report).len()))
    });

    // Simulator request throughput (create-heavy stream).
    g.bench_function("sim_execute_create", |b| {
        let mut sim = DfsSim::new(Flavor::CephFs, BugSet::New);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let _ = sim.execute(&DfsRequest::Create {
                path: format!("/bench{i}"),
                size: 8 * MIB,
            });
            if i.is_multiple_of(512) {
                sim.reset();
            }
            black_box(i)
        })
    });

    // Placement policy throughput.
    g.bench_function("placement_crush", |b| {
        use simdfs::placement::{CrushStraw2, PlacementPolicy, VolumeView};
        let views: Vec<VolumeView> = (0..16)
            .map(|i| VolumeView {
                volume: simdfs::VolumeId(i),
                node: simdfs::NodeId(i / 2),
                capacity: 1 << 34,
                used: (i as u64) << 28,
                online: true,
            })
            .collect();
        let p = CrushStraw2;
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            black_box(p.place(k, 8 * MIB, 3, &views).len())
        })
    });

    g.finish();
}

/// 16 synthetic volume views on 8 nodes, shared by the placement
/// before/after pairs.
fn micro_views() -> Vec<simdfs::placement::VolumeView> {
    (0..16)
        .map(|i| simdfs::placement::VolumeView {
            volume: simdfs::VolumeId(i),
            node: simdfs::NodeId(i / 2),
            capacity: 1 << 34,
            used: (i as u64) << 28,
            online: true,
        })
        .collect()
}

/// Per-call placement through the uncached reference path versus the
/// generation-keyed cache, and a full 1h campaign.
fn bench_perf(c: &mut Criterion) {
    use simdfs::placement::{CrushStraw2, DhtHashRing, PlacementCache, PlacementPolicy, VnodeRing};

    let mut g = c.benchmark_group("perf");
    g.sample_size(10);
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.measurement_time(std::time::Duration::from_secs(4));

    let views = micro_views();
    macro_rules! placement_pair {
        ($name:literal, $policy:expr) => {
            g.bench_function(concat!($name, "_uncached"), |b| {
                let p = $policy;
                let mut k = 0u64;
                b.iter(|| {
                    k += 1;
                    black_box(p.place(k, 8 * MIB, 3, &views).len())
                })
            });
            g.bench_function(concat!($name, "_cached"), |b| {
                let p = $policy;
                let mut cache = PlacementCache::new();
                let mut k = 0u64;
                b.iter(|| {
                    k += 1;
                    black_box(p.place_cached(&mut cache, 1, k, 8 * MIB, 3, &views).len())
                })
            });
        };
    }
    placement_pair!("placement_dht", DhtHashRing);
    placement_pair!("placement_vnode", VnodeRing::default());
    placement_pair!("placement_crush", CrushStraw2);

    g.bench_function("campaign_1h", |b| {
        b.iter(|| {
            let r = run_eval(
                Flavor::GlusterFs,
                "Themis",
                BugSet::New,
                1,
                0xbe,
                0.25,
                VarianceWeights::default(),
            );
            black_box(r.campaign.iterations)
        })
    });

    g.finish();
}

criterion_group!(benches, bench_tables, bench_micro, bench_perf);
criterion_main!(benches);
