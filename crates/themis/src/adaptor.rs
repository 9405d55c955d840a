//! The Interaction Adaptor interface (Figure 10 of the paper).
//!
//! Themis is non-intrusive: it cannot modify the DFS under test. Everything
//! it knows arrives through this trait — sending operations
//! (`operation.send()`), monitoring load (`LoadMonitor()`), driving the
//! rebalance APIs used by the detector's double-check, and resetting the
//! system between failure discoveries. Adapting Themis to a new DFS means
//! implementing exactly this trait (the paper reports only these two
//! interfaces need porting).

use crate::spec::Operation;
use serde::{Deserialize, Serialize};

/// Role of a node as seen by the load monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// Metadata management node.
    Management,
    /// Data storage node.
    Storage,
}

/// Per-node load data collected by `LoadMonitor()` (Figure 8's inputs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeLoad {
    /// Node identifier (opaque to Themis).
    pub node: u64,
    /// Node role.
    pub role: Role,
    /// Whether the node is up.
    pub online: bool,
    /// Whether the node is down *and* unresponsive (crashed, not removed).
    pub crashed: bool,
    /// CPU utilization (sum over cores).
    pub cpu: f64,
    /// Requests handled per unit time.
    pub rps: f64,
    /// Read IO operations per unit time.
    pub read_io: f64,
    /// Write IO operations per unit time.
    pub write_io: f64,
    /// Bytes of file data stored.
    pub storage: u64,
    /// Storage capacity in bytes.
    pub capacity: u64,
    /// Milliseconds since the node joined the cluster (monitors report
    /// uptime; detectors use it to skip nodes that are still warming up).
    pub uptime_ms: u64,
}

impl NodeLoad {
    /// The node's aggregate network load (requests plus IO), the quantity
    /// the paper's network anomaly detector compares across nodes.
    pub fn network(&self) -> f64 {
        self.rps + self.read_io + self.write_io
    }
}

/// A cluster-wide load report at one instant.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Virtual time of collection (ms).
    pub time_ms: u64,
    /// One entry per node.
    pub nodes: Vec<NodeLoad>,
}

impl LoadReport {
    /// Online nodes of a role.
    pub fn by_role(&self, role: Role) -> impl Iterator<Item = &NodeLoad> {
        self.nodes
            .iter()
            .filter(move |n| n.role == role && n.online)
    }

    /// Nodes flagged as crashed.
    pub fn crashed(&self) -> impl Iterator<Item = &NodeLoad> {
        self.nodes.iter().filter(|n| n.crashed)
    }
}

/// A snapshot of the identifiers Themis needs to instantiate operands:
/// the file tree (`Tree_files`), node lists (`list_MN`, `list_S`), volume
/// list and remaining free space.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeInventory {
    /// Management node ids.
    pub mgmt: Vec<u64>,
    /// Storage node ids.
    pub storage: Vec<u64>,
    /// Volume ids.
    pub volumes: Vec<u64>,
    /// Remaining free space in bytes.
    pub free_space: u64,
    /// Existing file paths.
    pub files: Vec<String>,
    /// Existing directory paths.
    pub dirs: Vec<String>,
}

/// Errors surfaced by the adaptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptorError {
    /// The DFS rejected the operation (bad path, no space, etc.). This is a
    /// normal outcome during fuzzing, not a tester failure.
    Rejected(String),
    /// The DFS is unreachable (e.g. crashed cluster).
    Down(String),
}

impl std::fmt::Display for AdaptorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptorError::Rejected(m) => write!(f, "operation rejected: {m}"),
            AdaptorError::Down(m) => write!(f, "DFS unreachable: {m}"),
        }
    }
}

impl std::error::Error for AdaptorError {}

/// The DFS-facing interface of Themis.
///
/// Implementations translate Themis operations into target-specific
/// commands (for the simulated flavors, see the `adaptors` crate; a real
/// deployment would shell out to `hdfs`, `gluster`, `ceph`, `leofs-adm`
/// and read `/proc`, `df`, etc.).
pub trait DfsAdaptor {
    /// Human-readable target name (e.g. `"GlusterFS v12.0-sim"`).
    fn name(&self) -> String;

    /// Sends one operation to the DFS for execution.
    fn send(&mut self, op: &Operation) -> Result<(), AdaptorError>;

    /// Collects the current per-node load data.
    fn load_report(&mut self) -> LoadReport;

    /// Collects the current per-node load data into `out`, reusing its
    /// node buffer. The campaign loop calls this once per iteration with a
    /// long-lived report; adaptors with cheap incremental access should
    /// override it (the default delegates to [`Self::load_report`]).
    fn load_report_into(&mut self, out: &mut LoadReport) {
        *out = self.load_report();
    }

    /// Invokes the DFS's rebalance API.
    fn rebalance(&mut self);

    /// Polls the DFS's `rebalance state` API; `true` when done.
    fn rebalance_done(&mut self) -> bool;

    /// Lets `ms` of target time pass (the tester sleeping).
    fn wait(&mut self, ms: u64);

    /// Resets the DFS to its initial state (container re-deploy).
    fn reset(&mut self);

    /// Branch coverage counter of the instrumented target, if available.
    /// Coverage-guided baselines use this; Themis itself does not need it.
    fn coverage(&mut self) -> u64;

    /// Current target-side time in ms (virtual for simulated targets).
    fn now_ms(&mut self) -> u64;

    /// Lists current nodes/volumes/files for operand instantiation.
    fn inventory(&mut self) -> NodeInventory;

    /// Remaining free space in bytes (a cheap subset of [`Self::inventory`]
    /// refreshed every iteration for Size-operand boundary generation).
    fn free_space(&mut self) -> u64 {
        self.inventory().free_space
    }

    /// Current topology (node and volume ids, free space) without the file
    /// listing — refreshed every iteration so NodeId/VolumeId operands
    /// never go stale. The file tree is tracked incrementally by the input
    /// model instead.
    fn topology(&mut self) -> NodeInventory {
        let mut inv = self.inventory();
        inv.files.clear();
        inv.dirs.clear();
        inv
    }

    /// Optional fork/restore capability. Adaptors whose target can cheaply
    /// save and rewind execution state (the simulator; a real deployment
    /// on a filesystem with snapshots) return `Some`; the crash explorer
    /// needs it to fork once per crash point. The default `None` makes
    /// crash exploration unavailable for this target. Campaigns never
    /// call it.
    fn snapshots(&mut self) -> Option<&mut dyn SnapshotCapable> {
        None
    }

    /// Optional crash-point exploration capability (see
    /// [`CrashExplorable`]). Targets that can decompose their
    /// migration/rebalance pipeline into deterministic crash points return
    /// `Some`; the default `None` means the crash campaign mode is
    /// unavailable for this target.
    fn crash_points(&mut self) -> Option<&mut dyn CrashExplorable> {
        None
    }
}

/// One crash-consistency violation reported by the target's oracle after
/// a crash-and-recover cycle, in adaptor-neutral terms.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashOracleViolation {
    /// Stable snake_case class name (e.g. `orphan_replica`); targets keep
    /// these names fixed so reports aggregate across runs.
    pub class: String,
    /// First-principles description of the inconsistency.
    pub detail: String,
}

impl std::fmt::Display for CrashOracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.class, self.detail)
    }
}

/// Deterministic crash-point instrumentation over the target's
/// migration/rebalance pipeline, exposed by adaptors through
/// [`DfsAdaptor::crash_points`].
///
/// Contract (the explorer in `crate::crash` depends on each of these):
/// - Crash points are **deterministic**: two runs from identical target
///   state under identical driving pass the same points in the same
///   order, so an index recorded while enumerating addresses the same
///   micro-step when replayed with [`CrashExplorable::arm_crash_at`].
/// - Arming is **tester-side probe state**: with nothing armed the target
///   behaves bit-identically to an uninstrumented one, and enumeration
///   mode (count, never crash) is behaviour-transparent too.
/// - A fired crash halts the interrupted migration exactly as a machine
///   power failure would; [`CrashExplorable::recover`] restarts the
///   machine and runs the target's restart-time repair.
pub trait CrashExplorable {
    /// Arms enumeration mode: subsequent driving counts and labels every
    /// crash point passed without crashing anything.
    fn arm_enumeration(&mut self);

    /// Arms a crash at the `k`-th (0-based) crash point passed from now on.
    fn arm_crash_at(&mut self, k: u64);

    /// Disarms the instrumentation, returning the labels of the crash
    /// points passed since arming (empty outside enumeration mode).
    fn disarm(&mut self) -> Vec<String>;

    /// Whether an armed crash has fired and awaits recovery.
    fn crash_fired(&mut self) -> bool;

    /// Restarts the crashed machine and runs the target's recovery.
    /// Returns the label of the interrupted micro-step, or `None` if no
    /// crash is pending.
    fn recover(&mut self) -> Option<String>;

    /// Runs the target's crash-consistency oracle over the recovered
    /// state; `None` means every invariant holds.
    fn check_invariants(&mut self) -> Option<CrashOracleViolation>;

    /// The canonical driving quantum of the target's migration pipeline
    /// in ms (one balancer step). The explorer waits in multiples of this
    /// so enumeration and crash runs stay aligned.
    fn window_step_ms(&self) -> u64;

    /// Opts the target in or out of its always-on state audit while
    /// exploring (the release-mode oracle). Default: no-op for targets
    /// whose audit is not switchable.
    fn set_runtime_audit(&mut self, on: bool) {
        let _ = on;
    }
}

/// Cheap deterministic fork/restore over target state, exposed by
/// adaptors through [`DfsAdaptor::snapshots`].
///
/// Semantics contract (the crash explorer depends on each of these):
/// - Marks form a **stack along one execution lineage**: restoring a mark
///   invalidates every mark taken after it.
/// - [`SnapshotCapable::restore`] rewinds *everything* the target's
///   behaviour depends on — including its clock — so replaying the same
///   operations after a restore reproduces bit-identical outcomes.
/// - A target reset (via [`DfsAdaptor::reset`]) abandons the lineage:
///   all marks die and `restore` returns `false` for them.
pub trait SnapshotCapable {
    /// Marks the current execution point; the id stays valid until
    /// restored past, released, or the target is reset.
    fn snapshot(&mut self) -> u64;

    /// Rewinds to a mark. Returns `false` (state untouched) if the mark
    /// no longer exists; the caller must then rebuild from a reset.
    fn restore(&mut self, id: u64) -> bool;

    /// Drops a mark without restoring it.
    fn release(&mut self, id: u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(role: Role, online: bool, crashed: bool) -> NodeLoad {
        NodeLoad {
            node: 0,
            role,
            online,
            crashed,
            cpu: 1.0,
            rps: 2.0,
            read_io: 3.0,
            write_io: 4.0,
            storage: 5,
            capacity: 10,
            uptime_ms: 1 << 40,
        }
    }

    #[test]
    fn network_sums_components() {
        let n = node(Role::Management, true, false);
        assert!((n.network() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn report_filters_by_role_and_liveness() {
        let report = LoadReport {
            time_ms: 0,
            nodes: vec![
                node(Role::Management, true, false),
                node(Role::Storage, true, false),
                node(Role::Storage, false, true),
            ],
        };
        assert_eq!(report.by_role(Role::Storage).count(), 1);
        assert_eq!(report.by_role(Role::Management).count(), 1);
        assert_eq!(report.crashed().count(), 1);
    }

    #[test]
    fn adaptor_error_display() {
        assert!(AdaptorError::Rejected("x".into())
            .to_string()
            .contains("rejected"));
        assert!(AdaptorError::Down("y".into())
            .to_string()
            .contains("unreachable"));
    }
}
