//! Core identifier and quantity types shared across the simulator.

use serde::{Deserialize, Serialize};

/// Identifier of a node (management or storage) in the simulated cluster.
///
/// Node ids are allocated sequentially by the cluster and are never reused,
/// so an id uniquely identifies a node across its whole lifetime, including
/// after the node has been removed from the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// Identifier of a storage volume (a "brick" in GlusterFS terms, a disk in
/// HDFS terms). Volumes are attached to exactly one storage node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VolumeId(pub u32);

impl std::fmt::Display for VolumeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vol{}", self.0)
    }
}

/// Identifier of a file in the simulated namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FileId(pub u64);

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "file{}", self.0)
    }
}

/// A quantity of bytes.
pub type Bytes = u64;

/// One mebibyte, the granularity most workloads in the paper operate at.
pub const MIB: Bytes = 1024 * 1024;

/// One gibibyte.
pub const GIB: Bytes = 1024 * MIB;

/// A point in simulated time, measured in milliseconds since simulator start.
///
/// The simulator is fully virtual-time driven: a "24 hour" campaign from the
/// paper corresponds to a [`SimTime`] budget of `24 * 3_600_000` ms and runs
/// in seconds of real time.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The zero instant.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs a time from whole simulated seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000)
    }

    /// Milliseconds since simulator start.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Simulated minutes since start, as a float (used by reports).
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }

    /// Saturating difference between two instants, in milliseconds.
    pub fn saturating_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Returns this instant advanced by `ms` milliseconds.
    pub fn advanced(self, ms: u64) -> SimTime {
        SimTime(self.0 + ms)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let total_secs = self.0 / 1000;
        write!(
            f,
            "{:02}:{:02}:{:02}.{:03}",
            total_secs / 3600,
            (total_secs / 60) % 60,
            total_secs % 60,
            self.0 % 1000
        )
    }
}

/// Role of a node within the DFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NodeRole {
    /// Metadata management node (HDFS NameNode, CephFS MDS, LeoFS gateway).
    Management,
    /// Data storage node (HDFS DataNode, Ceph OSD host, Gluster brick host).
    Storage,
}

impl std::fmt::Display for NodeRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeRole::Management => write!(f, "management"),
            NodeRole::Storage => write!(f, "storage"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_time_constructors_agree() {
        assert_eq!(SimTime::from_secs(1).as_millis(), 1_000);
    }

    #[test]
    fn sim_time_saturating_since_never_underflows() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(5);
        assert_eq!(b.saturating_since(a), 4_000);
        assert_eq!(a.saturating_since(b), 0);
    }

    #[test]
    fn sim_time_display_formats_hms() {
        let t = SimTime(3_661_042);
        assert_eq!(t.to_string(), "01:01:01.042");
    }

    #[test]
    fn sim_time_advanced_adds() {
        assert_eq!(SimTime(10).advanced(5), SimTime(15));
    }

    #[test]
    fn display_impls_are_stable() {
        assert_eq!(NodeId(3).to_string(), "node3");
        assert_eq!(VolumeId(7).to_string(), "vol7");
        assert_eq!(FileId(9).to_string(), "file9");
        assert_eq!(NodeRole::Management.to_string(), "management");
        assert_eq!(NodeRole::Storage.to_string(), "storage");
    }

    #[test]
    fn as_mins_f64_is_fractional() {
        assert!((SimTime(90_000).as_mins_f64() - 1.5).abs() < 1e-9);
    }
}
