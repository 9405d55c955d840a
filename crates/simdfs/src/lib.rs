//! # simdfs — a deterministic distributed-file-system cluster simulator
//!
//! This crate is the substrate of the Themis (EuroSys'25) reproduction. The
//! paper tests four real distributed file systems (HDFS, CephFS, GlusterFS,
//! LeoFS) on a 10-node cluster; this crate provides behaviourally faithful,
//! fully deterministic simulations of those systems:
//!
//! - a tree-structured **namespace** with files, directories and DHT
//!   linkfiles ([`namespace`]);
//! - **management and storage nodes** with volumes and live load accounting
//!   ([`node`], [`cluster`], [`metrics`]);
//! - four **placement policies** — DHT hash ring, consistent hashing with
//!   vnodes, CRUSH/straw2, free-space weighting ([`placement`]);
//! - a **storage balancer** pipeline (collector → calculator → planner →
//!   executor) with flavor-specific activation styles ([`balancer`],
//!   [`flavor`]);
//! - a **bug engine** carrying the paper's 10 new and 53 historical
//!   imbalance failures as trigger/effect state machines ([`bugs`]);
//! - a behavioural **coverage model** standing in for gcov/JaCoCo
//!   ([`coverage`]);
//! - virtual **time** ([`clock`], [`types::SimTime`]) making 24-hour
//!   campaigns run in seconds, bit-reproducibly.
//!
//! The entry point is [`sim::DfsSim`]:
//!
//! ```
//! use simdfs::{BugSet, DfsRequest, DfsSim, Flavor};
//!
//! let mut dfs = DfsSim::new(Flavor::GlusterFs, BugSet::New);
//! dfs.execute(&DfsRequest::Create { path: "/data".into(), size: 4 << 20 }).unwrap();
//! let snapshot = dfs.load_snapshot();
//! assert!(snapshot.storage_imbalance() >= 1.0);
//! ```

pub mod arena;
pub mod balancer;
pub mod bugs;
pub mod clock;
pub mod cluster;
pub mod coverage;
pub mod crash;
pub mod error;
pub mod faults;
pub mod flavor;
pub mod hashing;
mod journal;
pub mod loadstats;
pub mod meanfield;
pub mod metrics;
pub mod namespace;
pub mod node;
pub mod placement;
pub mod request;
pub mod sim;
pub mod types;

pub use arena::{NodeArena, VolumeDirectory};
pub use balancer::{Balancer, MigrationMove, RebalanceStatus};
pub use bugs::{BugEngine, BugSpec, Effect, FailureKind, Gate, Metric, SimEvent, Trigger};
pub use cluster::Cluster;
pub use coverage::{CoverageModel, CoverageUniverse, Region};
pub use crash::{CrashClass, CrashViolation, InFlightMove, MigrationStepKind};
pub use error::{SimError, SimResult};
pub use faults::{FaultEvent, FaultInjector, FaultKind, FaultPlan};
pub use flavor::{BalancerStyle, Flavor, FlavorConfig, PlacementKind, RoutingKind};
pub use loadstats::UtilTracker;
pub use meanfield::MeanFieldModel;
pub use metrics::{ClusterSnapshot, NodeLoadSample};
pub use namespace::Namespace;
pub use request::{DfsRequest, OpClass, ReqOutcome};
pub use sim::{BugSet, DfsSim, SimStats};
pub use types::{Bytes, FileId, NodeId, NodeRole, SimTime, VolumeId, GIB, MIB};
