//! Ergonomic construction of fork-join DAGs.
//!
//! Two styles are supported:
//!
//! * the low-level [`DagBuilder`] (`task(..)` / `edge(..)` / `finish()`), which the
//!   workload generators use directly, and
//! * the recursive [`SpTree`] description of a series-parallel computation, which
//!   is convenient in tests and property-based generators because every `SpTree`
//!   converts to a valid DAG by construction.

use crate::graph::{check_count, DagError, Rows, TaskDag, Tasks};
use crate::memref::AccessPattern;
use crate::node::TaskId;
use std::collections::HashSet;
use std::fmt;

/// Incremental builder for a [`TaskDag`].
///
/// Tasks are appended straight into the DAG's flat columns and arenas, and
/// edges into one edge list; nothing is allocated per task or per edge.  A
/// label is formatted into the label arena as the task starts, so a
/// generator passes `format_args!(..)` rather than a formatted `String`, and
/// a generator that knows its counts in closed form reserves every column
/// once with [`DagBuilder::with_capacity`].
/// Unknown ids and self-loops are caught as the edge is added, duplicate
/// edges when [`DagBuilder::finish`] groups the list into successor and
/// predecessor rows.
#[derive(Debug, Clone)]
pub struct DagBuilder {
    tasks: Tasks,
    edges: Vec<(TaskId, TaskId)>,
    /// The first edge rejected on the spot, with the number of edges
    /// accepted before it (its place in call order).
    first_rejected: Option<(usize, DagError)>,
    /// The first count that went past the 32-bit limit.
    too_large: Option<DagError>,
}

impl Default for DagBuilder {
    fn default() -> Self {
        Self::with_capacity(0, 0, 0)
    }
}

/// Builder for one task; created by [`DagBuilder::task`].
///
/// Its label and access patterns go straight into the DAG's arenas; the
/// task exists once [`TaskBuilder::build`] is called (a builder dropped
/// without it adds nothing: the next task, or `finish`, discards its bytes).
#[derive(Debug)]
#[must_use = "a task is only added by `build()`"]
pub struct TaskBuilder<'a> {
    dag: &'a mut DagBuilder,
    compute_instructions: u64,
}

impl DagBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder whose columns hold `tasks` tasks, `edges` edges and
    /// `patterns` access patterns without growing.  Reserve exact counts: the
    /// finished DAG trims any slack, which copies the column.
    pub fn with_capacity(tasks: usize, edges: usize, patterns: usize) -> Self {
        DagBuilder {
            tasks: Tasks::with_capacity(tasks, patterns),
            edges: Vec::with_capacity(edges),
            first_rejected: None,
            too_large: None,
        }
    }

    /// Start defining a task, writing its label into the label arena.
    pub fn task(&mut self, label: impl fmt::Display) -> TaskBuilder<'_> {
        // Bytes left by a task builder dropped without `build()`.
        self.tasks.discard_open();
        self.tasks.push_label(label);
        TaskBuilder {
            dag: self,
            compute_instructions: 0,
        }
    }

    /// Add a task directly from its parts and return its id.
    pub fn add_task(
        &mut self,
        label: impl fmt::Display,
        compute_instructions: u64,
        accesses: impl IntoIterator<Item = AccessPattern>,
    ) -> TaskId {
        self.task(label)
            .instructions(compute_instructions)
            .accesses(accesses)
            .build()
    }

    /// Add a precedence edge `from -> to`.
    ///
    /// Errors (unknown ids, self-loops, duplicates) are recorded and reported by
    /// [`DagBuilder::finish`], so call sites can stay assertion-free.
    pub fn edge(&mut self, from: TaskId, to: TaskId) {
        let tasks = self.tasks.len();
        let rejected = if from.index() >= tasks {
            DagError::UnknownTask { id: from }
        } else if to.index() >= tasks {
            DagError::UnknownTask { id: to }
        } else if from == to {
            DagError::InvalidEdge {
                from,
                to,
                reason: "self-loop",
            }
        } else {
            self.edges.push((from, to));
            if let Err(err) = check_count("edges", self.edges.len()) {
                self.too_large.get_or_insert(err);
            }
            return;
        };
        self.first_rejected
            .get_or_insert((self.edges.len(), rejected));
    }

    /// Number of tasks added so far.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no tasks have been added yet.
    pub fn is_empty(&self) -> bool {
        self.tasks.len() == 0
    }

    /// Validate and freeze the DAG.
    ///
    /// Errors, first match wins: a count past [`crate::graph::MAX_COUNT`],
    /// the earliest bad edge in call order (unknown id, self-loop or
    /// duplicate), no tasks, not exactly one root, a cycle.
    pub fn finish(mut self) -> Result<TaskDag, DagError> {
        self.tasks.discard_open();
        if let Some(err) = self.too_large {
            return Err(err);
        }
        let n = self.tasks.len();
        let successors = Rows::group(n, &self.edges, |&edge| edge);
        let duplicate = successors
            .has_repeat(n)
            .then(|| first_duplicate(&self.edges));
        let first_error = match (self.first_rejected, duplicate) {
            (Some((at, _)), Some((dup_at, dup))) if dup_at < at => Some(dup),
            (Some((_, err)), _) | (None, Some((_, err))) => Some(err),
            (None, None) => None,
        };
        if let Some(err) = first_error {
            return Err(err);
        }
        if n == 0 {
            return Err(DagError::Empty);
        }
        let predecessors = Rows::group(n, &self.edges, |&(from, to)| (to, from));
        drop(self.edges);
        let roots: Vec<TaskId> = (0..n as u32)
            .map(TaskId)
            .filter(|t| predecessors.row_len(t.index()) == 0)
            .collect();
        if roots.len() != 1 {
            return Err(DagError::MultipleRoots { roots });
        }
        let dag = TaskDag::from_parts(self.tasks, successors, predecessors, roots[0]);
        // Cycle check: Kahn's algorithm must visit every node.
        if dag.topological_order_len() != dag.len() {
            return Err(DagError::Cyclic);
        }
        Ok(dag)
    }
}

/// The first edge that repeats an earlier one, with its index in `edges`
/// (only called once a repeat is known to exist).
fn first_duplicate(edges: &[(TaskId, TaskId)]) -> (usize, DagError) {
    let mut seen = HashSet::with_capacity(edges.len());
    edges
        .iter()
        .enumerate()
        .find(|(_, edge)| !seen.insert(**edge))
        .map(|(at, &(from, to))| {
            (
                at,
                DagError::InvalidEdge {
                    from,
                    to,
                    reason: "duplicate edge",
                },
            )
        })
        .expect("a repeated edge exists")
}

impl TaskDag {
    /// Number of nodes Kahn's algorithm reaches from the root (equals
    /// `len()` iff acyclic, given that the root is the only entry task).
    fn topological_order_len(&self) -> usize {
        let mut indeg: Vec<u32> = self
            .predecessors
            .offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect();
        let mut ready = vec![self.root];
        let mut visited = 0;
        while let Some(t) = ready.pop() {
            visited += 1;
            for &s in self.successors(t) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    ready.push(s);
                }
            }
        }
        visited
    }
}

impl TaskBuilder<'_> {
    /// Set the task's compute-instruction count.
    pub fn instructions(mut self, n: u64) -> Self {
        self.compute_instructions = n;
        self
    }

    /// Append one memory-access pattern to the task's trace.
    pub fn access(self, pattern: AccessPattern) -> Self {
        self.dag.tasks.push_access(pattern);
        self
    }

    /// Append several access patterns to the task's trace.
    pub fn accesses(self, patterns: impl IntoIterator<Item = AccessPattern>) -> Self {
        for pattern in patterns {
            self.dag.tasks.push_access(pattern);
        }
        self
    }

    /// Finish the task and return its id.
    pub fn build(self) -> TaskId {
        let dag = self.dag;
        let id = dag.tasks.commit(self.compute_instructions);
        if let Err(err) = dag.tasks.check() {
            dag.too_large.get_or_insert(err);
        }
        id
    }
}

/// A series-parallel description of a computation.
///
/// `Seq` runs its children one after another; `Par` forks them (a synthetic fork
/// task precedes them and a synthetic join task follows them).  The conversion
/// produces a DAG with a unique root and is acyclic by construction.
#[derive(Debug, Clone, PartialEq)]
pub enum SpTree {
    /// A leaf task: (label, compute instructions, access patterns).
    Leaf {
        /// Label for the generated task.
        label: String,
        /// Compute instructions.
        instructions: u64,
        /// Memory accesses.
        accesses: Vec<AccessPattern>,
    },
    /// Children execute one after another, left to right.
    Seq(Vec<SpTree>),
    /// Children may execute in parallel between a fork and a join.
    Par(Vec<SpTree>),
}

impl SpTree {
    /// Convenience constructor for a compute-only leaf.
    pub fn leaf(label: &str, instructions: u64) -> Self {
        SpTree::Leaf {
            label: label.to_string(),
            instructions,
            accesses: Vec::new(),
        }
    }

    /// Convenience constructor for a leaf with accesses.
    pub fn leaf_with_accesses(
        label: &str,
        instructions: u64,
        accesses: Vec<AccessPattern>,
    ) -> Self {
        SpTree::Leaf {
            label: label.to_string(),
            instructions,
            accesses,
        }
    }

    /// Number of leaf tasks in the tree.
    pub fn leaf_count(&self) -> usize {
        match self {
            SpTree::Leaf { .. } => 1,
            SpTree::Seq(children) | SpTree::Par(children) => {
                children.iter().map(SpTree::leaf_count).sum()
            }
        }
    }

    /// Convert the tree into a [`TaskDag`].
    ///
    /// Fork and join synchronization points become explicit zero-footprint tasks
    /// with a small instruction cost (`SYNC_INSTRUCTIONS`), mirroring the real
    /// spawn/sync overhead of a fine-grained runtime.
    pub fn into_dag(self) -> Result<TaskDag, DagError> {
        /// Instruction cost charged to synthetic fork/join/sequence glue tasks.
        const SYNC_INSTRUCTIONS: u64 = 20;

        fn emit(tree: SpTree, b: &mut DagBuilder) -> (TaskId, TaskId) {
            match tree {
                SpTree::Leaf {
                    label,
                    instructions,
                    accesses,
                } => {
                    let id = b.add_task(&label, instructions, accesses);
                    (id, id)
                }
                SpTree::Seq(children) => {
                    if children.is_empty() {
                        let id = b.add_task("empty-seq", SYNC_INSTRUCTIONS, []);
                        return (id, id);
                    }
                    let mut iter = children.into_iter();
                    let (entry, mut exit) = emit(iter.next().expect("non-empty"), b);
                    for child in iter {
                        let (c_entry, c_exit) = emit(child, b);
                        b.edge(exit, c_entry);
                        exit = c_exit;
                    }
                    (entry, exit)
                }
                SpTree::Par(children) => {
                    let fork = b.add_task("fork", SYNC_INSTRUCTIONS, []);
                    let join = b.add_task("join", SYNC_INSTRUCTIONS, []);
                    if children.is_empty() {
                        b.edge(fork, join);
                    } else {
                        for child in children {
                            let (c_entry, c_exit) = emit(child, b);
                            b.edge(fork, c_entry);
                            b.edge(c_exit, join);
                        }
                    }
                    (fork, join)
                }
            }
        }

        let mut b = DagBuilder::new();
        let _ = emit(self, &mut b);
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_dense_ids() {
        let mut b = DagBuilder::new();
        let a = b.task("a").build();
        let c = b.task("c").instructions(5).build();
        assert_eq!(a, TaskId(0));
        assert_eq!(c, TaskId(1));
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn labels_are_formatted_in_place_and_dropped_tasks_leave_nothing() {
        let build = |drop_some: bool| {
            let mut b = DagBuilder::with_capacity(2, 1, 1);
            let root = b.task(format_args!("t{}", 0)).build();
            if drop_some {
                let _ = b.task("dropped").access(AccessPattern::range_read(0, 64));
            }
            let leaf = b
                .task(format_args!("t{}[{}..{}]", 1, 2, 3))
                .access(AccessPattern::range_write(64, 64))
                .build();
            if drop_some {
                let _ = b.task(format_args!("open at finish"));
            }
            b.edge(root, leaf);
            b.finish().unwrap()
        };
        let dag = build(true);
        assert_eq!(dag, build(false));
        let labels: Vec<&str> = dag.nodes().map(|n| n.label).collect();
        assert_eq!(labels, vec!["t0", "t1[2..3]"]);
        assert_eq!(dag.tasks.labels, "t0t1[2..3]");
        assert_eq!(dag.node(TaskId(1)).accesses.len(), 1);
    }

    #[test]
    fn empty_builder_is_rejected() {
        assert_eq!(DagBuilder::new().finish(), Err(DagError::Empty));
    }

    #[test]
    fn multiple_roots_are_rejected() {
        let mut b = DagBuilder::new();
        let _a = b.task("a").build();
        let _b2 = b.task("b").build();
        assert!(matches!(
            b.finish(),
            Err(DagError::MultipleRoots { roots }) if roots.len() == 2
        ));
    }

    #[test]
    fn self_loops_and_duplicates_are_rejected() {
        let mut b = DagBuilder::new();
        let a = b.task("a").build();
        b.edge(a, a);
        assert!(matches!(b.finish(), Err(DagError::InvalidEdge { .. })));

        let mut b = DagBuilder::new();
        let a = b.task("a").build();
        let c = b.task("c").build();
        b.edge(a, c);
        b.edge(a, c);
        assert!(matches!(b.finish(), Err(DagError::InvalidEdge { .. })));
    }

    #[test]
    fn unknown_task_in_edge_is_rejected() {
        let mut b = DagBuilder::new();
        let a = b.task("a").build();
        b.edge(a, TaskId(10));
        assert!(matches!(b.finish(), Err(DagError::UnknownTask { .. })));
    }

    #[test]
    fn cycles_are_rejected() {
        let mut b = DagBuilder::new();
        let a = b.task("a").build();
        let c = b.task("c").build();
        let d = b.task("d").build();
        // a -> c -> d -> c would be a duplicate; build a genuine cycle c -> d -> c
        // is impossible without duplicates, so use three nodes: c -> d, d -> c.
        b.edge(a, c);
        b.edge(c, d);
        b.edge(d, c);
        assert_eq!(b.finish(), Err(DagError::Cyclic));
    }

    #[test]
    fn task_builder_accumulates_accesses() {
        let mut b = DagBuilder::new();
        let t = b
            .task("leaf")
            .instructions(42)
            .access(AccessPattern::range_read(0, 64))
            .accesses(vec![
                AccessPattern::range_write(64, 64),
                AccessPattern::range_read(128, 64),
            ])
            .build();
        let dag = b.finish().unwrap();
        let node = dag.node(t);
        assert_eq!(node.compute_instructions, 42);
        assert_eq!(node.accesses.len(), 3);
        assert_eq!(node.memory_accesses(), 3);
    }

    #[test]
    fn sp_tree_par_creates_fork_and_join() {
        let tree = SpTree::Par(vec![SpTree::leaf("x", 10), SpTree::leaf("y", 10)]);
        assert_eq!(tree.leaf_count(), 2);
        let dag = tree.into_dag().unwrap();
        // fork + join + 2 leaves
        assert_eq!(dag.len(), 4);
        assert_eq!(dag.successors(dag.root()).len(), 2);
        assert_eq!(dag.sinks().len(), 1);
        assert!(dag.is_valid_schedule_order(&dag.topological_order()));
    }

    #[test]
    fn sp_tree_seq_chains_children() {
        let tree = SpTree::Seq(vec![
            SpTree::leaf("a", 1),
            SpTree::leaf("b", 2),
            SpTree::leaf("c", 3),
        ]);
        let dag = tree.into_dag().unwrap();
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.edge_count(), 2);
        let order = dag.one_df_order();
        let labels: Vec<_> = order.iter().map(|&t| dag.node(t).label).collect();
        assert_eq!(labels, vec!["a", "b", "c"]);
    }

    #[test]
    fn nested_sp_tree_builds_valid_dag() {
        let tree = SpTree::Seq(vec![
            SpTree::leaf("init", 10),
            SpTree::Par(vec![
                SpTree::Seq(vec![SpTree::leaf("l1", 5), SpTree::leaf("l2", 5)]),
                SpTree::leaf("r", 7),
                SpTree::Par(vec![SpTree::leaf("p1", 1), SpTree::leaf("p2", 1)]),
            ]),
            SpTree::leaf("done", 3),
        ]);
        let dag = tree.into_dag().unwrap();
        assert!(dag.is_valid_schedule_order(&dag.one_df_order()));
        assert_eq!(dag.sinks().len(), 1);
        assert_eq!(dag.node(dag.root()).label, "init");
    }

    #[test]
    fn empty_par_and_seq_still_produce_valid_dags() {
        let dag = SpTree::Par(vec![]).into_dag().unwrap();
        assert_eq!(dag.len(), 2);
        let dag = SpTree::Seq(vec![]).into_dag().unwrap();
        assert_eq!(dag.len(), 1);
    }
}
