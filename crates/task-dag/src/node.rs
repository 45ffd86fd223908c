//! Task identifiers and the read-only view of one task.

use crate::memref::{total_accesses, total_footprint_bytes, AccessPattern};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Deref;

/// Identifier of a task within one [`crate::graph::TaskDag`]: a dense index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The task's index into the DAG's per-task columns.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One fine-grained task, the unit of work the schedulers assign to cores,
/// viewed in place inside its [`crate::graph::TaskDag`].
///
/// The DAG stores every field in a column of its own; a `TaskNode` is a
/// `Copy` bundle of borrows into those columns, so taking one allocates
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskNode<'a> {
    /// The task's identifier (its index in the owning DAG).
    pub id: TaskId,
    /// Human-readable label for traces and error messages.
    pub label: &'a str,
    /// Compute instructions executed by the task, *excluding* its memory
    /// references (the engine charges one instruction per reference on top).
    pub compute_instructions: u64,
    /// The task's memory references, in program order.
    pub accesses: Accesses<'a>,
}

impl TaskNode<'_> {
    /// Number of memory references the task issues.
    pub fn memory_accesses(&self) -> u64 {
        total_accesses(&self.accesses)
    }

    /// Total instructions the engine will account to this task: compute
    /// instructions plus one per memory reference.
    pub fn total_instructions(&self) -> u64 {
        self.compute_instructions + self.memory_accesses()
    }

    /// Upper bound on the task's data footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        total_footprint_bytes(&self.accesses)
    }
}

/// A task's access patterns: a borrowed slice of the DAG's pattern arena.
///
/// Derefs to `[AccessPattern]` and iterates by reference, so
/// `for pattern in &node.accesses` and `node.accesses.len()` read as they
/// would on a `Vec`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accesses<'a>(pub(crate) &'a [AccessPattern]);

impl<'a> Accesses<'a> {
    /// The patterns as a slice borrowed from the DAG (not from `self`).
    pub fn as_slice(self) -> &'a [AccessPattern] {
        self.0
    }
}

impl Deref for Accesses<'_> {
    type Target = [AccessPattern];

    fn deref(&self) -> &[AccessPattern] {
        self.0
    }
}

impl<'a> IntoIterator for Accesses<'a> {
    type Item = &'a AccessPattern;
    type IntoIter = std::slice::Iter<'a, AccessPattern>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl<'a> IntoIterator for &Accesses<'a> {
    type Item = &'a AccessPattern;
    type IntoIter = std::slice::Iter<'a, AccessPattern>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_id_display_and_index() {
        let id = TaskId(17);
        assert_eq!(id.index(), 17);
        assert_eq!(id.to_string(), "t17");
    }

    #[test]
    fn instruction_accounting_includes_memory_references() {
        let patterns = [AccessPattern::range_read(0, 640)];
        let node = TaskNode {
            id: TaskId(0),
            label: "leaf",
            compute_instructions: 100,
            accesses: Accesses(&patterns),
        };
        assert_eq!(node.memory_accesses(), 10);
        assert_eq!(node.total_instructions(), 110);
        assert_eq!(node.footprint_bytes(), 640);
    }

    #[test]
    fn task_with_no_accesses_is_pure_compute() {
        let node = TaskNode {
            id: TaskId(1),
            label: "sync",
            compute_instructions: 5,
            accesses: Accesses(&[]),
        };
        assert_eq!(node.memory_accesses(), 0);
        assert_eq!(node.total_instructions(), 5);
        assert_eq!(node.footprint_bytes(), 0);
    }

    #[test]
    fn accesses_iterate_by_reference_and_deref_to_a_slice() {
        let patterns = [
            AccessPattern::range_read(0, 64),
            AccessPattern::range_write(64, 128),
        ];
        let accesses = Accesses(&patterns);
        let mut seen = Vec::new();
        for pattern in &accesses {
            seen.push(pattern.len());
        }
        assert_eq!(seen, vec![1, 2]);
        assert_eq!(accesses.len(), 2);
        assert_eq!(accesses[1], patterns[1]);
        assert_eq!(accesses.as_slice().as_ptr(), patterns.as_ptr());
    }
}
