//! The task DAG itself: flat per-task columns, compressed edge lists,
//! validation and traversal.

use crate::memref::AccessPattern;
use crate::node::{Accesses, TaskId, TaskNode};
use serde::{Deserialize, Serialize};
use std::fmt::{self, Write};
use std::mem::size_of;

/// Errors detected while building or validating a DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// The DAG has no tasks.
    Empty,
    /// An edge references a task id that does not exist.
    UnknownTask {
        /// The offending id.
        id: TaskId,
    },
    /// A self-loop or duplicate edge was added.
    InvalidEdge {
        /// Source of the edge.
        from: TaskId,
        /// Destination of the edge.
        to: TaskId,
        /// Why the edge is invalid.
        reason: &'static str,
    },
    /// The graph contains a cycle (a topological order could not be constructed).
    Cyclic,
    /// The graph has more than one entry task (no predecessors); the schedulers
    /// require a unique root so that "the sequential execution" is well defined.
    MultipleRoots {
        /// The entry tasks found.
        roots: Vec<TaskId>,
    },
    /// More tasks, edges, access patterns or label bytes than the DAG's
    /// 32-bit ids and offsets can address.
    TooLarge {
        /// What overflowed: "tasks", "edges", "access patterns" or "label bytes".
        what: &'static str,
        /// How many there were when the limit was crossed.
        count: usize,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Empty => write!(f, "the DAG has no tasks"),
            DagError::UnknownTask { id } => write!(f, "edge references unknown task {id}"),
            DagError::InvalidEdge { from, to, reason } => {
                write!(f, "invalid edge {from} -> {to}: {reason}")
            }
            DagError::Cyclic => write!(f, "the task graph contains a cycle"),
            DagError::MultipleRoots { roots } => {
                write!(
                    f,
                    "the task graph has {} entry tasks; exactly one is required",
                    roots.len()
                )
            }
            DagError::TooLarge { what, count } => write!(
                f,
                "the DAG has {count} {what}, more than the {} a 32-bit index can address",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for DagError {}

/// The most tasks, edges, access patterns or label bytes one DAG may hold.
pub const MAX_COUNT: usize = u32::MAX as usize;

/// `Err(TooLarge)` when `count` exceeds [`MAX_COUNT`].
pub(crate) fn check_count(what: &'static str, count: usize) -> Result<(), DagError> {
    if count > MAX_COUNT {
        return Err(DagError::TooLarge { what, count });
    }
    Ok(())
}

/// Variable-length rows packed into one array: row `i` is
/// `items[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Rows<T> {
    pub(crate) offsets: Vec<u32>,
    pub(crate) items: Vec<T>,
}

impl<T> Rows<T> {
    /// No rows, with room for `rows` rows of `items` items in all.
    pub(crate) fn with_capacity(rows: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Rows {
            offsets,
            items: Vec::with_capacity(items),
        }
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub(crate) fn row(&self, i: usize) -> &[T] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    pub(crate) fn row_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// End the open row: the items pushed since the last call form it.
    pub(crate) fn close_row(&mut self) {
        self.offsets.push(self.items.len() as u32);
    }

    /// Drop the items pushed since the last [`Rows::close_row`].
    pub(crate) fn discard_open_row(&mut self) {
        let end = *self.offsets.last().expect("offsets start with 0") as usize;
        self.items.truncate(end);
    }

    fn shrink_to_fit(&mut self) {
        self.offsets.shrink_to_fit();
        self.items.shrink_to_fit();
    }

    fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * size_of::<u32>() + self.items.capacity() * size_of::<T>()
    }
}

impl Rows<TaskId> {
    /// Group `edges` into `rows` rows by `key(edge) = (row, item)`; each row
    /// keeps its items in edge order (a stable counting sort).
    pub(crate) fn group(
        rows: usize,
        edges: &[(TaskId, TaskId)],
        key: impl Fn(&(TaskId, TaskId)) -> (TaskId, TaskId),
    ) -> Self {
        // Counts, summed into where each row ends; filling every row from its
        // end, walking the edges backwards, leaves `offsets[r]` where row `r`
        // starts.
        let mut offsets = vec![0u32; rows + 1];
        for edge in edges {
            offsets[key(edge).0.index()] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut items = vec![TaskId(0); edges.len()];
        for edge in edges.iter().rev() {
            let (row, item) = key(edge);
            let slot = &mut offsets[row.index()];
            *slot -= 1;
            items[*slot as usize] = item;
        }
        Rows { offsets, items }
    }

    /// Whether any row lists the same item twice.
    pub(crate) fn has_repeat(&self, universe: usize) -> bool {
        // `seen[item]` holds the last row that listed `item` (rows are
        // `< MAX_COUNT`, so `u32::MAX` is free as "never").
        let mut seen = vec![u32::MAX; universe];
        (0..self.len()).any(|row| {
            self.row(row).iter().any(|item| {
                let last = std::mem::replace(&mut seen[item.index()], row as u32);
                last == row as u32
            })
        })
    }
}

/// One column per task field, the access patterns and labels in arenas.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Tasks {
    pub(crate) compute: Vec<u64>,
    pub(crate) accesses: Rows<AccessPattern>,
    pub(crate) label_offsets: Vec<u32>,
    pub(crate) labels: String,
}

impl Tasks {
    /// No tasks, with room for `tasks` tasks and `patterns` patterns.
    pub(crate) fn with_capacity(tasks: usize, patterns: usize) -> Self {
        let mut label_offsets = Vec::with_capacity(tasks + 1);
        label_offsets.push(0);
        Tasks {
            compute: Vec::with_capacity(tasks),
            accesses: Rows::with_capacity(tasks, patterns),
            label_offsets,
            labels: String::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.compute.len()
    }

    /// Append one access pattern to the open task.
    pub(crate) fn push_access(&mut self, pattern: AccessPattern) {
        self.accesses.items.push(pattern);
    }

    /// Format the open task's label onto the end of the label arena.
    pub(crate) fn push_label(&mut self, label: impl fmt::Display) {
        write!(self.labels, "{label}").expect("a label's `Display` does not fail");
    }

    /// Drop the open task's label bytes and patterns.
    pub(crate) fn discard_open(&mut self) {
        let end = *self.label_offsets.last().expect("offsets start with 0");
        self.labels.truncate(end as usize);
        self.accesses.discard_open_row();
    }

    /// Close the open task: the label bytes and patterns pushed since the
    /// last commit are its label and trace.
    pub(crate) fn commit(&mut self, compute_instructions: u64) -> TaskId {
        let id = TaskId(self.compute.len() as u32);
        self.compute.push(compute_instructions);
        self.accesses.close_row();
        self.label_offsets.push(self.labels.len() as u32);
        id
    }

    /// The first count past [`MAX_COUNT`], if any.
    pub(crate) fn check(&self) -> Result<(), DagError> {
        check_count("tasks", self.len())?;
        check_count("access patterns", self.accesses.items.len())?;
        check_count("label bytes", self.labels.len())
    }

    pub(crate) fn node(&self, id: TaskId) -> TaskNode<'_> {
        let i = id.index();
        TaskNode {
            id,
            label: &self.labels[self.label_offsets[i] as usize..self.label_offsets[i + 1] as usize],
            compute_instructions: self.compute[i],
            accesses: Accesses(self.accesses.row(i)),
        }
    }

    fn shrink_to_fit(&mut self) {
        self.compute.shrink_to_fit();
        self.accesses.shrink_to_fit();
        self.label_offsets.shrink_to_fit();
        self.labels.shrink_to_fit();
    }

    fn heap_bytes(&self) -> usize {
        let explicit: usize = self
            .accesses
            .items
            .iter()
            .map(|p| match p {
                AccessPattern::Explicit { addrs, .. } => addrs.capacity() * size_of::<u64>(),
                _ => 0,
            })
            .sum();
        self.compute.capacity() * size_of::<u64>()
            + self.accesses.heap_bytes()
            + explicit
            + self.label_offsets.capacity() * size_of::<u32>()
            + self.labels.capacity()
    }
}

/// A validated, immutable fork-join computation DAG.
///
/// Construct one through [`crate::builder::DagBuilder`]; the builder checks the
/// invariants (acyclic, unique root, edges well formed) on `finish()`.
///
/// Storage is flat: one column per task field, every task's access patterns
/// in one arena and every label in one string, each with per-task `u32`
/// offsets, and successor and predecessor lists as compressed rows of `u32`
/// ids (each row in edge-insertion order).  A DAG therefore holds at most
/// [`MAX_COUNT`] tasks, edges, patterns and label bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskDag {
    pub(crate) tasks: Tasks,
    pub(crate) successors: Rows<TaskId>,
    pub(crate) predecessors: Rows<TaskId>,
    pub(crate) root: TaskId,
}

impl TaskDag {
    /// Freeze validated parts, trimming the builder's growth slack.
    pub(crate) fn from_parts(
        mut tasks: Tasks,
        successors: Rows<TaskId>,
        predecessors: Rows<TaskId>,
        root: TaskId,
    ) -> Self {
        tasks.shrink_to_fit();
        TaskDag {
            tasks,
            successors,
            predecessors,
            root,
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the DAG has no tasks (never true for a validated DAG).
    pub fn is_empty(&self) -> bool {
        self.tasks.len() == 0
    }

    /// The unique entry task.
    pub fn root(&self) -> TaskId {
        self.root
    }

    /// A view of the task with the given id.
    pub fn node(&self, id: TaskId) -> TaskNode<'_> {
        self.tasks.node(id)
    }

    /// Views of all tasks, in index order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = TaskNode<'_>> + '_ {
        (0..self.len() as u32).map(|i| self.node(TaskId(i)))
    }

    /// Tasks that become (partially) enabled when `id` completes, in the
    /// order their edges were added.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        self.successors.row(id.index())
    }

    /// Tasks that must complete before `id` may run, in the order their
    /// edges were added.
    pub fn predecessors(&self, id: TaskId) -> &[TaskId] {
        self.predecessors.row(id.index())
    }

    /// In-degree (number of predecessors) of every task, indexed by task index.
    pub fn in_degrees(&self) -> Vec<usize> {
        (0..self.len())
            .map(|i| self.predecessors.row_len(i))
            .collect()
    }

    /// Tasks with no successors (the exit tasks).
    pub fn sinks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|t| self.successors.row_len(t.index()) == 0)
            .collect()
    }

    /// Iterate over all task ids in index order.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.len() as u32).map(TaskId)
    }

    /// A topological order computed by Kahn's algorithm, breaking ties by task
    /// index.  The 1DF order (see [`crate::df_order`]) is generally different; this
    /// one is used for analyses that only need *some* valid order.
    pub fn topological_order(&self) -> Vec<TaskId> {
        let mut indeg = self.in_degrees();
        let mut ready: Vec<TaskId> = self.task_ids().filter(|t| indeg[t.index()] == 0).collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(t) = ready.pop() {
            order.push(t);
            for &s in self.successors(t) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    ready.push(s);
                }
            }
        }
        debug_assert_eq!(order.len(), self.len(), "validated DAGs are acyclic");
        order
    }

    /// Check that `order` is a permutation of all tasks that respects every edge.
    pub fn is_valid_schedule_order(&self, order: &[TaskId]) -> bool {
        if order.len() != self.len() {
            return false;
        }
        let mut position = vec![usize::MAX; self.len()];
        for (pos, &t) in order.iter().enumerate() {
            if t.index() >= self.len() || position[t.index()] != usize::MAX {
                return false;
            }
            position[t.index()] = pos;
        }
        for t in self.task_ids() {
            for &s in self.successors(t) {
                if position[t.index()] >= position[s.index()] {
                    return false;
                }
            }
        }
        true
    }

    /// Total number of precedence edges.
    pub fn edge_count(&self) -> usize {
        self.successors.items.len()
    }

    /// Heap bytes the DAG owns: its columns, arenas and edge lists at their
    /// allocated capacity, plus the address lists of explicit patterns.
    pub fn heap_bytes(&self) -> usize {
        self.tasks.heap_bytes() + self.successors.heap_bytes() + self.predecessors.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DagBuilder;

    fn diamond() -> TaskDag {
        let mut b = DagBuilder::new();
        let a = b.task("a").instructions(1).build();
        let l = b.task("l").instructions(1).build();
        let r = b.task("r").instructions(1).build();
        let j = b.task("j").instructions(1).build();
        b.edge(a, l);
        b.edge(a, r);
        b.edge(l, j);
        b.edge(r, j);
        b.finish().unwrap()
    }

    #[test]
    fn diamond_shape_queries() {
        let d = diamond();
        assert_eq!(d.len(), 4);
        assert_eq!(d.edge_count(), 4);
        assert_eq!(d.root(), TaskId(0));
        assert_eq!(d.sinks(), vec![TaskId(3)]);
        assert_eq!(d.successors(TaskId(0)), &[TaskId(1), TaskId(2)]);
        assert_eq!(d.predecessors(TaskId(3)), &[TaskId(1), TaskId(2)]);
        assert_eq!(d.in_degrees(), vec![0, 1, 1, 2]);
        let labels: Vec<&str> = d.nodes().map(|n| n.label).collect();
        assert_eq!(labels, vec!["a", "l", "r", "j"]);
    }

    #[test]
    fn topological_order_is_valid() {
        let d = diamond();
        let order = d.topological_order();
        assert!(d.is_valid_schedule_order(&order));
    }

    #[test]
    fn invalid_orders_are_rejected() {
        let d = diamond();
        // Wrong length.
        assert!(!d.is_valid_schedule_order(&[TaskId(0)]));
        // Duplicate entries.
        assert!(!d.is_valid_schedule_order(&[TaskId(0), TaskId(0), TaskId(1), TaskId(2)]));
        // Join before its predecessors.
        assert!(!d.is_valid_schedule_order(&[TaskId(0), TaskId(3), TaskId(1), TaskId(2)]));
        // Out-of-range id.
        assert!(!d.is_valid_schedule_order(&[TaskId(0), TaskId(1), TaskId(2), TaskId(9)]));
    }

    #[test]
    fn display_of_errors() {
        assert!(DagError::Empty.to_string().contains("no tasks"));
        assert!(DagError::Cyclic.to_string().contains("cycle"));
        assert!(DagError::UnknownTask { id: TaskId(3) }
            .to_string()
            .contains("t3"));
        assert!(DagError::MultipleRoots {
            roots: vec![TaskId(0), TaskId(1)]
        }
        .to_string()
        .contains("2 entry tasks"));
        assert_eq!(
            DagError::TooLarge {
                what: "edges",
                count: 4_294_967_296
            }
            .to_string(),
            "the DAG has 4294967296 edges, more than the 4294967295 a 32-bit index can address"
        );
    }

    #[test]
    fn counts_past_u32_are_too_large() {
        assert_eq!(check_count("tasks", MAX_COUNT), Ok(()));
        assert_eq!(
            check_count("label bytes", MAX_COUNT + 1),
            Err(DagError::TooLarge {
                what: "label bytes",
                count: MAX_COUNT + 1
            })
        );
    }

    #[test]
    fn grouped_rows_keep_edge_order() {
        let edges = [
            (TaskId(2), TaskId(0)),
            (TaskId(0), TaskId(3)),
            (TaskId(2), TaskId(1)),
            (TaskId(0), TaskId(1)),
        ];
        let out = Rows::group(4, &edges, |&e| e);
        assert_eq!(out.row(0), &[TaskId(3), TaskId(1)]);
        assert_eq!(out.row(1), &[]);
        assert_eq!(out.row(2), &[TaskId(0), TaskId(1)]);
        assert!(!out.has_repeat(4));
        let inbound = Rows::group(4, &edges, |&(from, to)| (to, from));
        assert_eq!(inbound.row(1), &[TaskId(2), TaskId(0)]);
        let repeated = Rows::group(2, &[(TaskId(0), TaskId(1)); 2], |&e| e);
        assert!(repeated.has_repeat(2));
    }

    #[test]
    fn heap_bytes_counts_columns_arenas_and_edges() {
        let d = diamond();
        // 4 tasks: compute 4×8, pattern and label offsets 5×4 each, labels
        // 4 bytes, no patterns; 4 edges, twice: 5 offsets + 4 ids.
        assert_eq!(d.heap_bytes(), 32 + 2 * 20 + 4 + 2 * (20 + 16));
    }
}
