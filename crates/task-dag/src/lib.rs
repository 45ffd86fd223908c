//! Fine-grained fork-join task DAGs with per-task memory traces.
//!
//! Both schedulers in the study operate on the same abstraction: a *computation
//! DAG* whose nodes are the fine-grained tasks ("threads" in the paper's
//! terminology — the unit of work between spawn/sync points) and whose edges are
//! precedence constraints.  A task carries two annotations that the execution
//! engine consumes:
//!
//! * an **instruction count** (pure compute work), and
//! * a list of **memory-access patterns** ([`memref::AccessPattern`]) describing
//!   which byte ranges of the shared address space the task reads and writes, in
//!   order.
//!
//! # Storage
//!
//! A [`TaskDag`] is flat.  Each task field is one column indexed by
//! [`TaskId::index`].  All access patterns sit in one arena and all labels in
//! one string, each with per-task `u32` offsets.  Successor and predecessor
//! lists are compressed rows of `u32` ids, each row in edge-insertion order.
//! No task owns a heap object: [`TaskDag::node`] returns a `Copy` view
//! ([`TaskNode`]) of borrows into those arrays, whose `label` is a `&str` and
//! whose `accesses` ([`Accesses`]) derefs to `[AccessPattern]`.
//! [`DagBuilder`] appends straight into the same arrays and one edge list,
//! with no allocation per task or per edge: a label is any `Display` value
//! (`format_args!("sort[{start}..{end}]")`), formatted into the label arena,
//! and patterns go in one at a time through [`builder::TaskBuilder::access`].  A
//! generator that knows its counts reserves every column once with
//! [`DagBuilder::with_capacity`].
//!
//! The `u32` ids and offsets cap a DAG at [`MAX_COUNT`] (2³² − 1) tasks,
//! edges, access patterns and label bytes; [`DagBuilder::finish`] returns
//! [`DagError::TooLarge`] past any of them.
//!
//! The crate also computes the **1DF order** — the order in which a single
//! processor executing the program depth-first (always following the leftmost
//! enabled child) would run the tasks.  That order is precisely the priority the
//! Parallel Depth First scheduler uses, and it defines the sequential baseline the
//! paper's speedups are measured against.
//!
//! # Example
//!
//! ```
//! use pdfws_task_dag::builder::DagBuilder;
//! use pdfws_task_dag::memref::AccessPattern;
//!
//! // A two-way fork-join: root spawns two children that each scan an array half,
//! // then a join task combines the results.
//! let mut b = DagBuilder::new();
//! let root = b.task("fork").instructions(100).build();
//! let left = b.task("left").instructions(1_000)
//!     .access(AccessPattern::range_read(0, 4096)).build();
//! let right = b.task("right").instructions(1_000)
//!     .access(AccessPattern::range_read(4096, 4096)).build();
//! let join = b.task("join").instructions(50).build();
//! b.edge(root, left);
//! b.edge(root, right);
//! b.edge(left, join);
//! b.edge(right, join);
//! let dag = b.finish().unwrap();
//!
//! assert_eq!(dag.len(), 4);
//! let order = dag.one_df_order();
//! assert_eq!(order.first(), Some(&root));
//! assert_eq!(order.last(), Some(&join));
//! ```

pub mod analysis;
pub mod builder;
pub mod df_order;
pub mod graph;
pub mod memref;
pub mod node;

pub use builder::DagBuilder;
pub use graph::{DagError, TaskDag, MAX_COUNT};
pub use memref::{AccessPattern, MemAccess};
pub use node::{Accesses, TaskId, TaskNode};
