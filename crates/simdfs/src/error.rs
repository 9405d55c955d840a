//! Error types returned by the simulated DFS.
//!
//! These model the error surface a real DFS client/admin CLI would report
//! back to Themis: requests can fail because a path does not exist, a node
//! is unknown, the cluster is out of space, and so on. The fuzzer treats
//! failed operations as ordinary outcomes (the paper's operand repair keeps
//! them rare but they are legal executions).

use crate::types::{NodeId, VolumeId};

/// Error returned by a simulated DFS request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The referenced path does not exist in the namespace.
    NoSuchPath(String),
    /// The path exists but has the wrong kind (e.g. `rmdir` on a file).
    NotADirectory(String),
    /// The path exists but is a directory where a file was expected.
    IsADirectory(String),
    /// Attempt to create something that already exists.
    AlreadyExists(String),
    /// A directory could not be removed because it is not empty.
    DirectoryNotEmpty(String),
    /// The referenced node is not part of the cluster (or already removed).
    NoSuchNode(NodeId),
    /// The referenced volume is not part of the cluster.
    NoSuchVolume(VolumeId),
    /// The cluster has no online storage volume able to accept the data.
    OutOfSpace { requested: u64, free: u64 },
    /// The operation would remove the last management or storage node.
    LastNode(NodeId),
    /// The target node is offline and cannot serve the request.
    NodeOffline(NodeId),
    /// A volume reduction would drop below the data currently stored on it.
    VolumeBusy {
        volume: VolumeId,
        used: u64,
        requested_capacity: u64,
    },
    /// The testbed has no hardware left for another node or volume (the
    /// paper's environment is a fixed pool of 10 containers).
    ResourceLimit(String),
    /// The cluster has crashed (a crash-type imbalance failure fired) and
    /// refuses all further requests until reset.
    ClusterDown,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NoSuchPath(p) => write!(f, "no such path: {p}"),
            SimError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            SimError::IsADirectory(p) => write!(f, "is a directory: {p}"),
            SimError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            SimError::DirectoryNotEmpty(p) => write!(f, "directory not empty: {p}"),
            SimError::NoSuchNode(n) => write!(f, "no such node: {n}"),
            SimError::NoSuchVolume(v) => write!(f, "no such volume: {v}"),
            SimError::OutOfSpace { requested, free } => {
                write!(f, "out of space: requested {requested} B, free {free} B")
            }
            SimError::LastNode(n) => {
                write!(f, "cannot remove {n}: it is the last node of its role")
            }
            SimError::NodeOffline(n) => write!(f, "node offline: {n}"),
            SimError::VolumeBusy {
                volume,
                used,
                requested_capacity,
            } => write!(
                f,
                "volume {volume} holds {used} B, cannot shrink to {requested_capacity} B"
            ),
            SimError::ResourceLimit(what) => write!(f, "no resources left for {what}"),
            SimError::ClusterDown => write!(f, "cluster is down"),
        }
    }
}

impl SimError {
    /// The variant's name, for tallying failures by cause.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::NoSuchPath(_) => "NoSuchPath",
            SimError::NotADirectory(_) => "NotADirectory",
            SimError::IsADirectory(_) => "IsADirectory",
            SimError::AlreadyExists(_) => "AlreadyExists",
            SimError::DirectoryNotEmpty(_) => "DirectoryNotEmpty",
            SimError::NoSuchNode(_) => "NoSuchNode",
            SimError::NoSuchVolume(_) => "NoSuchVolume",
            SimError::OutOfSpace { .. } => "OutOfSpace",
            SimError::LastNode(_) => "LastNode",
            SimError::NodeOffline(_) => "NodeOffline",
            SimError::VolumeBusy { .. } => "VolumeBusy",
            SimError::ResourceLimit(_) => "ResourceLimit",
            SimError::ClusterDown => "ClusterDown",
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience result alias for simulator operations.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let errs: Vec<SimError> = vec![
            SimError::NoSuchPath("/a".into()),
            SimError::NotADirectory("/a".into()),
            SimError::IsADirectory("/a".into()),
            SimError::AlreadyExists("/a".into()),
            SimError::DirectoryNotEmpty("/a".into()),
            SimError::NoSuchNode(NodeId(1)),
            SimError::NoSuchVolume(VolumeId(2)),
            SimError::OutOfSpace {
                requested: 10,
                free: 5,
            },
            SimError::LastNode(NodeId(0)),
            SimError::NodeOffline(NodeId(3)),
            SimError::VolumeBusy {
                volume: VolumeId(1),
                used: 9,
                requested_capacity: 4,
            },
            SimError::ResourceLimit("node".into()),
            SimError::ClusterDown,
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
