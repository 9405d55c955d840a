//! # Themis — load variance-guided fuzzing for DFS imbalance failures
//!
//! A reproduction of *"Themis: Finding Imbalance Failures in Distributed
//! File Systems via a Load Variance Model"* (EuroSys 2025). Themis tests a
//! distributed file system for **imbalance failures**: errors in its load
//! balancing mechanism that drive the system into a persistently imbalanced
//! state it cannot recover from.
//!
//! The framework has three parts (Figure 10 of the paper):
//!
//! 1. a **Test Case Generator** ([`spec`], [`model`], [`gen`], [`mutate`],
//!    [`seedpool`], [`strategies`]) that models client requests and system
//!    configuration changes as one operation sequence and explores it with
//!    load variance-guided fuzzing;
//! 2. an **Imbalance Detector** ([`lvm`], [`detector`]) monitoring per-node
//!    computation/network/storage load, thresholding max-over-mean ratios,
//!    and double-checking candidates through the target's rebalance API;
//! 3. an **Interaction Adaptor** interface ([`adaptor`]) — the only part
//!    that is target-specific (implementations live in the `adaptors`
//!    crate).
//!
//! [`campaign::run_campaign`] ties them into the full testing loop.
//!
//! ```
//! use themis::spec::{Operand, Operation, Operator, TestCase};
//!
//! // A deep triggering sequence mixing both input spaces:
//! let case = TestCase::new(vec![
//!     Operation::new(Operator::Create, vec![Operand::FileName("/data".into()), Operand::Size(1 << 20)]),
//!     Operation::new(Operator::AddStorage, vec![Operand::Size(1 << 30)]),
//!     Operation::new(Operator::Delete, vec![Operand::FileName("/data".into())]),
//! ]);
//! assert!(case.mixes_input_spaces());
//! ```

pub mod adaptor;
pub mod campaign;
pub mod crash;
pub mod detector;
pub mod gen;
pub mod lvm;
pub mod model;
pub mod mutate;
pub mod report;
pub mod seedpool;
pub mod spec;
pub mod strategies;

pub use adaptor::{
    AdaptorError, CrashExplorable, CrashOracleViolation, DfsAdaptor, LoadReport, NodeInventory,
    NodeLoad, Role, SnapshotCapable,
};
pub use campaign::{
    run_campaign, run_campaign_with_mode, CampaignConfig, CampaignObserver, CampaignResult,
    CoveragePoint, ExecutionMode, NullObserver,
};
pub use crash::{
    enumerate_window, explore_bounded, explore_random, run_crash_campaign, CrashCampaignResult,
    CrashExplorationReport, CrashExplorerConfig, CrashFinding, CrashWindow,
};
pub use detector::{Candidate, Detector, DetectorConfig, ImbalanceKind};
pub use gen::{OpDraw, MAX_SEQ_LEN};
pub use lvm::{VarianceScore, VarianceWeights};
pub use model::InputModel;
pub use report::{ConfirmedFailure, LoggedOp};
pub use seedpool::SeedPool;
pub use spec::{Operand, OperandKind, Operation, Operator, TestCase};
pub use strategies::{
    by_name, Alternate, Concurrent, ExecFeedback, FixConf, FixReq, GenCtx, Strategy, ThemisMinus,
    ThemisStrategy,
};
