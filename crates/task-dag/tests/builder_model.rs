//! The flat `DagBuilder` against a naive reference model.
//!
//! Both receive the same random calls: tasks (some abandoned before
//! `build()`), labels, access patterns, and edges that are valid, repeated,
//! self-loops, backwards or to unknown ids.  The model keeps one `Vec` per
//! task and rejects each bad edge as it is added, the way a DAG builder
//! without an edge list would.  Both must agree on the first error, and on
//! success on every node view and on successor and predecessor order.

use pdfws_task_dag::{AccessPattern, DagBuilder, DagError, TaskId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// A task; `build == false` drops its builder without building it.
    /// A built task gets an edge from the earlier task `parent` picks, if
    /// any, unless `parent` is a multiple of 40 (a second root).
    Task {
        label: String,
        instructions: u64,
        accesses: Vec<AccessPattern>,
        build: bool,
        parent: u32,
    },
    /// An edge from an earlier task (picked by `pick`) to the newest one.
    Tree { pick: u32 },
    /// An edge from the newest task back to an earlier one.
    Back { pick: u32 },
    /// An edge between two existing tasks, lower index first.
    Forward { a: u32, b: u32 },
    /// An edge between raw ids, possibly unknown, equal or backwards.
    Raw { from: u32, to: u32 },
}

fn pattern() -> impl Strategy<Value = AccessPattern> {
    prop_oneof![
        (0u64..4096, 1u64..512).prop_map(|(base, len)| AccessPattern::range_read(base, len)),
        (0u64..4096, 1u64..512).prop_map(|(base, len)| AccessPattern::range_write(base, len)),
        prop::collection::vec(0u64..4096, 0..4).prop_map(AccessPattern::explicit_read),
    ]
}

fn label() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..5, 0..6).prop_map(|chars| {
        chars
            .into_iter()
            .map(|c| ['a', '[', ']', '7', 'é'][c])
            .collect()
    })
}

fn op() -> impl Strategy<Value = Op> {
    let task = || {
        (
            (label(), 0u64..1000),
            prop::collection::vec(pattern(), 0..3),
            0u8..10,
            0u32..1_000_000,
        )
            .prop_map(|((label, instructions), accesses, roll, parent)| Op::Task {
                label,
                instructions,
                accesses,
                build: roll < 9,
                parent,
            })
    };
    // Uniform arms; repeating one weights it.
    prop_oneof![
        task(),
        task(),
        task(),
        (0u32..1_000_000).prop_map(|pick| Op::Tree { pick }),
        (0u32..1_000_000, 0u32..1_000_000).prop_map(|(a, b)| Op::Forward { a, b }),
        (0u32..1_000_000).prop_map(|pick| Op::Back { pick }),
        (0u32..12, 0u32..12).prop_map(|(from, to)| Op::Raw { from, to }),
    ]
}

/// `ops` with the edge kinds `level` allows: 0 keeps tasks and edges to
/// the newest task, 1 adds back edges (cycles), 2 edges between any two
/// tasks (self-loops, duplicates), 3 raw ids (unknown tasks).
fn calls() -> impl Strategy<Value = Vec<Op>> {
    (prop::collection::vec(op(), 0..48), 0u8..4).prop_map(|(ops, level)| {
        ops.into_iter()
            .filter(|op| match op {
                Op::Back { .. } => level >= 1,
                Op::Forward { .. } => level >= 2,
                Op::Raw { .. } => level >= 3,
                _ => true,
            })
            .collect()
    })
}

/// One `Vec` per task and per adjacency list; errors recorded in call order.
#[derive(Default)]
struct Model {
    nodes: Vec<(String, u64, Vec<AccessPattern>)>,
    successors: Vec<Vec<TaskId>>,
    predecessors: Vec<Vec<TaskId>>,
    errors: Vec<DagError>,
}

impl Model {
    fn edge(&mut self, from: TaskId, to: TaskId) {
        let n = self.nodes.len();
        let error = if from.index() >= n {
            Some(DagError::UnknownTask { id: from })
        } else if to.index() >= n {
            Some(DagError::UnknownTask { id: to })
        } else if from == to {
            Some(DagError::InvalidEdge {
                from,
                to,
                reason: "self-loop",
            })
        } else if self.successors[from.index()].contains(&to) {
            Some(DagError::InvalidEdge {
                from,
                to,
                reason: "duplicate edge",
            })
        } else {
            None
        };
        match error {
            Some(err) => self.errors.push(err),
            None => {
                self.successors[from.index()].push(to);
                self.predecessors[to.index()].push(from);
            }
        }
    }

    fn finish(&self) -> Result<TaskId, DagError> {
        if let Some(err) = self.errors.first() {
            return Err(err.clone());
        }
        if self.nodes.is_empty() {
            return Err(DagError::Empty);
        }
        let roots: Vec<TaskId> = (0..self.nodes.len())
            .filter(|&i| self.predecessors[i].is_empty())
            .map(|i| TaskId(i as u32))
            .collect();
        if roots.len() != 1 {
            return Err(DagError::MultipleRoots { roots });
        }
        let mut indeg: Vec<usize> = self.predecessors.iter().map(Vec::len).collect();
        let mut ready = roots.clone();
        let mut visited = 0;
        while let Some(t) = ready.pop() {
            visited += 1;
            for &s in &self.successors[t.index()] {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    ready.push(s);
                }
            }
        }
        if visited != self.nodes.len() {
            return Err(DagError::Cyclic);
        }
        Ok(roots[0])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn flat_builder_matches_the_reference_model(ops in calls()) {
        let mut b = DagBuilder::new();
        let mut model = Model::default();
        for op in ops {
            let n = model.nodes.len() as u32;
            let edge = match op {
                Op::Task { label, instructions, accesses, build, parent } => {
                    let task = b.task(&label).instructions(instructions).accesses(accesses.clone());
                    if !build {
                        continue;
                    }
                    let id = task.build();
                    prop_assert_eq!(id, TaskId(n));
                    model.nodes.push((label, instructions, accesses));
                    model.successors.push(Vec::new());
                    model.predecessors.push(Vec::new());
                    (n >= 1 && parent % 40 != 0).then(|| (parent % n, n))
                }
                Op::Tree { pick } => (n >= 2).then(|| (pick % (n - 1), n - 1)),
                Op::Forward { a, b } => (n >= 1).then(|| {
                    let (a, b) = (a % n, b % n);
                    (a.min(b), a.max(b))
                }),
                Op::Back { pick } => (n >= 2).then(|| (n - 1, pick % (n - 1))),
                Op::Raw { from, to } => Some((from, to)),
            };
            if let Some((from, to)) = edge {
                b.edge(TaskId(from), TaskId(to));
                model.edge(TaskId(from), TaskId(to));
            }
        }
        prop_assert_eq!(b.len(), model.nodes.len());
        let dag = b.finish();
        match model.finish() {
            Err(expected) => prop_assert_eq!(dag.err(), Some(expected)),
            Ok(root) => {
                let dag = dag.expect("the model accepted the same calls");
                prop_assert_eq!(dag.root(), root);
                prop_assert_eq!(dag.len(), model.nodes.len());
                prop_assert_eq!(dag.nodes().len(), model.nodes.len());
                let edges: usize = model.successors.iter().map(Vec::len).sum();
                prop_assert_eq!(dag.edge_count(), edges);
                for (node, (label, instructions, accesses)) in dag.nodes().zip(&model.nodes) {
                    let i = node.id.index();
                    prop_assert_eq!(node.label, label.as_str());
                    prop_assert_eq!(node.compute_instructions, *instructions);
                    prop_assert_eq!(node.accesses.as_slice(), accesses.as_slice());
                    prop_assert_eq!(dag.node(node.id), node);
                    prop_assert_eq!(dag.successors(node.id), model.successors[i].as_slice());
                    prop_assert_eq!(dag.predecessors(node.id), model.predecessors[i].as_slice());
                }
            }
        }
    }
}
