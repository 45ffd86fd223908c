//! In-memory hash join — the second bandwidth-limited irregular workload.
//!
//! Build phase: tasks scan partitions of the build relation and insert into a
//! shared hash table (irregular writes).  Probe phase: tasks scan partitions of
//! the (larger) probe relation and look keys up in the same table (irregular
//! reads).  The relations are streamed once (no reuse, lots of bandwidth); the
//! hash table is the shared structure whose residency in the L2 the scheduler
//! controls.

use crate::layout::AddressSpace;
use crate::{Workload, WorkloadClass};
use pdfws_task_dag::builder::DagBuilder;
use pdfws_task_dag::{AccessPattern, TaskDag};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuple size in bytes (key + payload).
pub const TUPLE_BYTES: u64 = 16;
/// Hash-table bucket size in bytes.
pub const BUCKET_BYTES: u64 = 64;

/// A two-phase (build, probe) hash join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashJoin {
    /// Tuples in the build relation.
    pub build_tuples: u64,
    /// Tuples in the probe relation.
    pub probe_tuples: u64,
    /// Tuples processed by one task.
    pub tuples_per_task: u64,
    /// Number of hash-table buckets.
    pub buckets: u64,
    /// RNG seed for the key distribution.
    pub seed: u64,
    /// Compute instructions per tuple.
    pub instr_per_tuple: u64,
}

impl HashJoin {
    /// A small instance for tests.
    pub fn small() -> Self {
        HashJoin {
            build_tuples: 256,
            probe_tuples: 512,
            tuples_per_task: 64,
            buckets: 128,
            seed: 0x4A01_17AB,
            instr_per_tuple: 12,
        }
    }

    /// Tasks [`Workload::build_dag`] creates, in closed form: init, two
    /// barriers, and one task per chunk of each relation.
    pub fn task_count(&self) -> u64 {
        self.build_tuples
            .div_ceil(self.tuples_per_task)
            .saturating_add(self.probe_tuples.div_ceil(self.tuples_per_task))
            .saturating_add(3)
    }
}

impl Workload for HashJoin {
    fn name(&self) -> &'static str {
        "hashjoin"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::BandwidthLimitedIrregular
    }

    fn build_dag(&self) -> TaskDag {
        let mut space = AddressSpace::new();
        let build_rel = space.alloc(self.build_tuples * TUPLE_BYTES);
        let probe_rel = space.alloc(self.probe_tuples * TUPLE_BYTES);
        let table = space.alloc(self.buckets * BUCKET_BYTES);
        let output = space.alloc(self.probe_tuples * TUPLE_BYTES);

        let mut rng = StdRng::seed_from_u64(self.seed);
        let bucket_addr = |rng: &mut StdRng| -> u64 {
            table.base + rng.gen_range(0..self.buckets) * BUCKET_BYTES
        };

        let mut b = DagBuilder::new();
        let root = b.task("join-init").instructions(100).build();
        let build_done = b.task("build-barrier").instructions(50).build();
        let probe_done = b.task("probe-barrier").instructions(50).build();

        // Build phase.
        let build_tasks = self.build_tuples.div_ceil(self.tuples_per_task);
        for t in 0..build_tasks {
            let first = t * self.tuples_per_task;
            let count = self.tuples_per_task.min(self.build_tuples - first);
            let inserts: Vec<u64> = (0..count).map(|_| bucket_addr(&mut rng)).collect();
            let task = b
                .task(format_args!("build[{first}..{}]", first + count))
                .instructions(count * self.instr_per_tuple)
                .access(AccessPattern::range_read(
                    build_rel.base + first * TUPLE_BYTES,
                    count * TUPLE_BYTES,
                ))
                .access(AccessPattern::explicit_write(inserts))
                .build();
            b.edge(root, task);
            b.edge(task, build_done);
        }

        // Probe phase (starts only after the table is fully built).
        let probe_tasks = self.probe_tuples.div_ceil(self.tuples_per_task);
        for t in 0..probe_tasks {
            let first = t * self.tuples_per_task;
            let count = self.tuples_per_task.min(self.probe_tuples - first);
            let probes: Vec<u64> = (0..count).map(|_| bucket_addr(&mut rng)).collect();
            let task = b
                .task(format_args!("probe[{first}..{}]", first + count))
                .instructions(count * self.instr_per_tuple)
                .access(AccessPattern::range_read(
                    probe_rel.base + first * TUPLE_BYTES,
                    count * TUPLE_BYTES,
                ))
                .access(AccessPattern::explicit_read(probes))
                .access(AccessPattern::range_write(
                    output.base + first * TUPLE_BYTES,
                    count * TUPLE_BYTES,
                ))
                .build();
            b.edge(build_done, task);
            b.edge(task, probe_done);
        }
        b.finish().expect("hash join DAG is valid by construction")
    }

    fn data_bytes(&self) -> u64 {
        (self.build_tuples + 2 * self.probe_tuples) * TUPLE_BYTES + self.buckets * BUCKET_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_ordered_build_before_probe() {
        let dag = HashJoin::small().build_dag();
        let order = dag.one_df_order();
        let pos_of = |prefix: &str| {
            order
                .iter()
                .enumerate()
                .filter(|(_, &t)| dag.node(t).label.starts_with(prefix))
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        };
        let builds = pos_of("build[");
        let probes = pos_of("probe[");
        assert!(!builds.is_empty() && !probes.is_empty());
        assert!(builds.iter().max().unwrap() < probes.iter().min().unwrap());
    }

    #[test]
    fn task_counts_match_partitioning() {
        let hj = HashJoin::small(); // 256/64 = 4 build, 512/64 = 8 probe
        let dag = hj.build_dag();
        let builds = dag
            .nodes()
            .filter(|n| n.label.starts_with("build["))
            .count();
        let probes = dag
            .nodes()
            .filter(|n| n.label.starts_with("probe["))
            .count();
        assert_eq!(builds, 4);
        assert_eq!(probes, 8);
        assert_eq!(dag.len(), 4 + 8 + 3);
    }

    #[test]
    fn table_accesses_stay_inside_the_table() {
        let hj = HashJoin::small();
        let dag = hj.build_dag();
        let table_bytes = hj.buckets * BUCKET_BYTES;
        for n in dag.nodes() {
            for p in &n.accesses {
                if let AccessPattern::Explicit { addrs, .. } = p {
                    let min = addrs.iter().min().unwrap();
                    let max = addrs.iter().max().unwrap();
                    assert!(max - min < table_bytes);
                }
            }
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        assert_eq!(HashJoin::small().build_dag(), HashJoin::small().build_dag());
    }
}
