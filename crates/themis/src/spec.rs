//! The test-case specification of Themis (Figure 7 of the paper).
//!
//! A test case is an operation sequence `opSeq`; each operation is an
//! operator `opt` with one or more operands `opd`. Operators fall into
//! three categories: `file_op` models client-request inputs, `node_op` and
//! `volume_op` model system-configuration inputs. Representing both input
//! spaces as one sequence is the paper's key insight: it makes the combined
//! space explorable by sequence-mutation fuzzing.

use serde::{Deserialize, Serialize};

/// The 17 concrete operators of the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Operator {
    /// `create fileName size` — create a file.
    Create,
    /// `delete fileName` — delete a file.
    Delete,
    /// `append fileName size` — append data.
    Append,
    /// `overwrite fileName size` — replace contents.
    Overwrite,
    /// `open fileName` — read a file.
    Open,
    /// `truncate-overwrite fileName size` — truncate then write.
    TruncateOverwrite,
    /// `mkdir fileName` — create a directory.
    Mkdir,
    /// `rmdir fileName` — remove a directory.
    Rmdir,
    /// `rename fileName fileName` — move a file or directory.
    Rename,
    /// `add_MN` — add a metadata management node.
    AddMn,
    /// `remove_MN nodeId` — remove a management node.
    RemoveMn,
    /// `add_storage size` — add a storage node (volume capacity operand).
    AddStorage,
    /// `remove_storage nodeId` — remove a storage node.
    RemoveStorage,
    /// `add_volume nodeId size` — attach a volume to a storage node.
    AddVolume,
    /// `remove_volume volumeId` — detach a volume.
    RemoveVolume,
    /// `expand_volume volumeId size` — grow a volume.
    ExpandVolume,
    /// `reduce_volume volumeId size` — shrink a volume.
    ReduceVolume,
}

/// All operators, in grammar order. `t = 17` in the paper's initial
/// generation (each operator drawn with probability `1/t`).
pub const ALL_OPERATORS: [Operator; 17] = [
    Operator::Create,
    Operator::Delete,
    Operator::Append,
    Operator::Overwrite,
    Operator::Open,
    Operator::TruncateOverwrite,
    Operator::Mkdir,
    Operator::Rmdir,
    Operator::Rename,
    Operator::AddMn,
    Operator::RemoveMn,
    Operator::AddStorage,
    Operator::RemoveStorage,
    Operator::AddVolume,
    Operator::RemoveVolume,
    Operator::ExpandVolume,
    Operator::ReduceVolume,
];

/// Operators modelling client requests (`file_op`).
pub const FILE_OPERATORS: [Operator; 9] = [
    Operator::Create,
    Operator::Delete,
    Operator::Append,
    Operator::Overwrite,
    Operator::Open,
    Operator::TruncateOverwrite,
    Operator::Mkdir,
    Operator::Rmdir,
    Operator::Rename,
];

/// Operators modelling system configuration (`node_op` | `volume_op`).
pub const CONFIG_OPERATORS: [Operator; 8] = [
    Operator::AddMn,
    Operator::RemoveMn,
    Operator::AddStorage,
    Operator::RemoveStorage,
    Operator::AddVolume,
    Operator::RemoveVolume,
    Operator::ExpandVolume,
    Operator::ReduceVolume,
];

impl Operator {
    /// Whether this operator is a client-request (`file_op`).
    pub fn is_file_op(self) -> bool {
        FILE_OPERATORS.contains(&self)
    }

    /// Whether this operator is a configuration change.
    pub fn is_config_op(self) -> bool {
        !self.is_file_op()
    }

    /// The operand categories this operator requires, in order.
    pub fn operand_shape(self) -> &'static [OperandKind] {
        use OperandKind::*;
        match self {
            Operator::Create => &[FileName, Size],
            Operator::Delete => &[FileName],
            Operator::Append => &[FileName, Size],
            Operator::Overwrite => &[FileName, Size],
            Operator::Open => &[FileName],
            Operator::TruncateOverwrite => &[FileName, Size],
            Operator::Mkdir => &[FileName],
            Operator::Rmdir => &[FileName],
            Operator::Rename => &[FileName, FileName],
            Operator::AddMn => &[],
            Operator::RemoveMn => &[NodeId],
            Operator::AddStorage => &[Size],
            Operator::RemoveStorage => &[NodeId],
            Operator::AddVolume => &[NodeId, Size],
            Operator::RemoveVolume => &[VolumeId],
            Operator::ExpandVolume => &[VolumeId, Size],
            Operator::ReduceVolume => &[VolumeId, Size],
        }
    }

    /// Grammar spelling of the operator.
    pub fn spelling(self) -> &'static str {
        match self {
            Operator::Create => "create",
            Operator::Delete => "delete",
            Operator::Append => "append",
            Operator::Overwrite => "overwrite",
            Operator::Open => "open",
            Operator::TruncateOverwrite => "truncate-overwrite",
            Operator::Mkdir => "mkdir",
            Operator::Rmdir => "rmdir",
            Operator::Rename => "rename",
            Operator::AddMn => "add_MN",
            Operator::RemoveMn => "remove_MN",
            Operator::AddStorage => "add_storage",
            Operator::RemoveStorage => "remove_storage",
            Operator::AddVolume => "add_volume",
            Operator::RemoveVolume => "remove_volume",
            Operator::ExpandVolume => "expand_volume",
            Operator::ReduceVolume => "reduce_volume",
        }
    }
}

/// The category of one operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OperandKind {
    /// A path in the file tree (`Tree_files`).
    FileName,
    /// A node identifier (from `list_MN` or `list_S`).
    NodeId,
    /// A volume identifier.
    VolumeId,
    /// A byte count.
    Size,
}

/// One instantiated operand.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// A path.
    FileName(String),
    /// A node id.
    NodeId(u64),
    /// A volume id.
    VolumeId(u64),
    /// A byte count.
    Size(u64),
}

impl Operand {
    /// The operand's category.
    pub fn kind(&self) -> OperandKind {
        match self {
            Operand::FileName(_) => OperandKind::FileName,
            Operand::NodeId(_) => OperandKind::NodeId,
            Operand::VolumeId(_) => OperandKind::VolumeId,
            Operand::Size(_) => OperandKind::Size,
        }
    }
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::FileName(p) => write!(f, "{p}"),
            Operand::NodeId(n) => write!(f, "node{n}"),
            Operand::VolumeId(v) => write!(f, "vol{v}"),
            Operand::Size(s) => write!(f, "{s}B"),
        }
    }
}

/// One operation: an operator plus its operands.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Operation {
    /// The operator.
    pub opt: Operator,
    /// The operands (shape given by [`Operator::operand_shape`]).
    pub opds: Vec<Operand>,
}

impl Operation {
    /// Creates an operation, checking the operand shape.
    ///
    /// # Panics
    ///
    /// Panics if the operand kinds do not match the operator's shape; this
    /// is a programming error in a generator or mutator, never an input
    /// condition.
    pub fn new(opt: Operator, opds: Vec<Operand>) -> Self {
        let shape = opt.operand_shape();
        assert_eq!(
            shape.len(),
            opds.len(),
            "{opt:?} expects {} operands, got {}",
            shape.len(),
            opds.len()
        );
        for (expect, got) in shape.iter().zip(&opds) {
            assert_eq!(*expect, got.kind(), "{opt:?} operand kind mismatch");
        }
        Operation { opt, opds }
    }

    /// Whether the operation's operands match the operator's shape.
    pub fn well_formed(&self) -> bool {
        let shape = self.opt.operand_shape();
        shape.len() == self.opds.len() && shape.iter().zip(&self.opds).all(|(k, o)| *k == o.kind())
    }
}

impl std::fmt::Display for Operation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.opt.spelling())?;
        for opd in &self.opds {
            write!(f, " {opd}")?;
        }
        Ok(())
    }
}

/// A test case: a non-empty operation sequence (`opSeq`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct TestCase {
    /// The operation sequence.
    pub ops: Vec<Operation>,
}

impl TestCase {
    /// Creates a test case from operations.
    pub fn new(ops: Vec<Operation>) -> Self {
        TestCase { ops }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the sequence is empty (invalid as a final test case but
    /// transiently possible during mutation).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Whether every operation is well-formed.
    pub fn well_formed(&self) -> bool {
        self.ops.iter().all(Operation::well_formed)
    }

    /// Whether the case touches both input spaces.
    pub fn mixes_input_spaces(&self) -> bool {
        self.ops.iter().any(|o| o.opt.is_file_op()) && self.ops.iter().any(|o| o.opt.is_config_op())
    }
}

impl std::fmt::Display for TestCase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

pub mod json {
    //! Hand-rolled JSON encoding for test cases.
    //!
    //! The build environment has no crates-io access, so instead of
    //! `serde_json` the test-case format is written directly:
    //! `{"ops":[{"opt":"create","opds":[{"file":"/a"},{"size":100}]}]}`.
    //! Operators are encoded by their grammar [`spelling`], operands by a
    //! one-key object tagging the kind. Campaign reports embed it
    //! (`CampaignResult::to_json`); nothing reads it back.
    //!
    //! [`spelling`]: super::Operator::spelling

    use super::{Operand, TestCase};

    /// Escapes a string into a JSON string literal (without quotes).
    pub fn escape_into(out: &mut String, s: &str) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
    }

    /// Serializes a test case.
    pub fn to_json(case: &TestCase) -> String {
        let mut out = String::with_capacity(32 + case.ops.len() * 48);
        out.push_str("{\"ops\":[");
        for (i, op) in case.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"opt\":\"");
            out.push_str(op.opt.spelling());
            out.push_str("\",\"opds\":[");
            for (j, opd) in op.opds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                match opd {
                    Operand::FileName(p) => {
                        out.push_str("{\"file\":\"");
                        escape_into(&mut out, p);
                        out.push_str("\"}");
                    }
                    Operand::NodeId(n) => {
                        out.push_str(&format!("{{\"node\":{n}}}"));
                    }
                    Operand::VolumeId(v) => {
                        out.push_str(&format!("{{\"vol\":{v}}}"));
                    }
                    Operand::Size(s) => {
                        out.push_str(&format!("{{\"size\":{s}}}"));
                    }
                }
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seventeen_distinct_operators() {
        let mut ops = ALL_OPERATORS.to_vec();
        ops.dedup();
        assert_eq!(ops.len(), 17);
        assert_eq!(FILE_OPERATORS.len() + CONFIG_OPERATORS.len(), 17);
    }

    #[test]
    fn file_and_config_partition() {
        for op in ALL_OPERATORS {
            assert!(op.is_file_op() ^ op.is_config_op());
        }
        assert!(Operator::Create.is_file_op());
        assert!(Operator::AddVolume.is_config_op());
    }

    #[test]
    fn operand_shapes_accept_matching_operands() {
        let op = Operation::new(
            Operator::Create,
            vec![Operand::FileName("/a".into()), Operand::Size(100)],
        );
        assert!(op.well_formed());
    }

    #[test]
    #[should_panic(expected = "expects 2 operands")]
    fn operand_arity_is_enforced() {
        let _ = Operation::new(Operator::Create, vec![Operand::FileName("/a".into())]);
    }

    #[test]
    #[should_panic(expected = "operand kind mismatch")]
    fn operand_kind_is_enforced() {
        let _ = Operation::new(Operator::Delete, vec![Operand::Size(1)]);
    }

    #[test]
    fn display_matches_grammar_spelling() {
        let op = Operation::new(
            Operator::Rename,
            vec![
                Operand::FileName("/a".into()),
                Operand::FileName("/b".into()),
            ],
        );
        assert_eq!(op.to_string(), "rename /a /b");
        let op = Operation::new(Operator::AddMn, vec![]);
        assert_eq!(op.to_string(), "add_MN");
        let op = Operation::new(
            Operator::ExpandVolume,
            vec![Operand::VolumeId(3), Operand::Size(1024)],
        );
        assert_eq!(op.to_string(), "expand_volume vol3 1024B");
    }

    #[test]
    fn testcase_mixes_input_spaces() {
        let file_only = TestCase::new(vec![Operation::new(
            Operator::Open,
            vec![Operand::FileName("/a".into())],
        )]);
        assert!(!file_only.mixes_input_spaces());
        let mixed = TestCase::new(vec![
            Operation::new(Operator::Open, vec![Operand::FileName("/a".into())]),
            Operation::new(Operator::AddMn, vec![]),
        ]);
        assert!(mixed.mixes_input_spaces());
    }

    #[test]
    fn testcase_display_joins_ops() {
        let tc = TestCase::new(vec![
            Operation::new(Operator::Mkdir, vec![Operand::FileName("/d".into())]),
            Operation::new(Operator::AddMn, vec![]),
        ]);
        assert_eq!(tc.to_string(), "mkdir /d; add_MN");
    }

    #[test]
    fn every_operator_shape_is_constructible() {
        for op in ALL_OPERATORS {
            let opds: Vec<Operand> = op
                .operand_shape()
                .iter()
                .map(|k| match k {
                    OperandKind::FileName => Operand::FileName("/x".into()),
                    OperandKind::NodeId => Operand::NodeId(1),
                    OperandKind::VolumeId => Operand::VolumeId(1),
                    OperandKind::Size => Operand::Size(1),
                })
                .collect();
            assert!(Operation::new(op, opds).well_formed());
        }
    }
}

#[cfg(test)]
mod json_tests {
    use super::json::to_json;
    use super::*;

    #[test]
    fn json_writer_escapes_and_tags_operands() {
        let case = TestCase::new(vec![
            Operation::new(
                Operator::Create,
                vec![
                    Operand::FileName("/a b\"\\\n\u{1}".into()),
                    Operand::Size(u64::MAX),
                ],
            ),
            Operation::new(Operator::AddMn, vec![]),
            Operation::new(
                Operator::ExpandVolume,
                vec![Operand::VolumeId(7), Operand::Size(1 << 40)],
            ),
            Operation::new(Operator::RemoveMn, vec![Operand::NodeId(3)]),
        ]);
        assert_eq!(
            to_json(&case),
            concat!(
                r#"{"ops":[{"opt":"create","opds":[{"file":"/a b\"\\\n\u0001"},"#,
                r#"{"size":18446744073709551615}]},{"opt":"add_MN","opds":[]},"#,
                r#"{"opt":"expand_volume","opds":[{"vol":7},{"size":1099511627776}]},"#,
                r#"{"opt":"remove_MN","opds":[{"node":3}]}]}"#,
            )
        );
    }

    #[test]
    fn json_writer_spells_every_operator() {
        for opt in ALL_OPERATORS {
            let opds: Vec<Operand> = opt
                .operand_shape()
                .iter()
                .map(|k| match k {
                    OperandKind::FileName => Operand::FileName("/x/π".into()),
                    OperandKind::NodeId => Operand::NodeId(9),
                    OperandKind::VolumeId => Operand::VolumeId(2),
                    OperandKind::Size => Operand::Size(0),
                })
                .collect();
            let text = to_json(&TestCase::new(vec![Operation::new(opt, opds)]));
            let opt_value = format!("{{\"ops\":[{{\"opt\":\"{}\",", opt.spelling());
            assert!(text.starts_with(&opt_value), "{opt:?}: {text}");
        }
    }

    #[test]
    fn json_empty_case() {
        assert_eq!(to_json(&TestCase::default()), "{\"ops\":[]}");
    }
}
