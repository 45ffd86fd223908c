//! Every workload generator's DAG, pinned byte for byte.
//!
//! For each registered workload's default spec, both coarse-grained
//! variants and the benchmark's large specs (the Figure-1 sweep at 4 Mi keys
//! and the zoo's nested parallel-for), the golden file holds the task, edge
//! and pattern counts and a 64-bit FNV-1a hash over every task's label,
//! compute count and access patterns and every successor row, in task order.
//! A change to how generators build their DAGs must leave it byte-identical;
//! a change to what they build shows up as a diff — regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test dag_fingerprints` and review it.

use pdfws::prelude::*;
use pdfws::task_dag::{AccessPattern, TaskDag};
use pdfws::workloads::WorkloadRegistry;
use std::fmt::Write;

/// Specs pinned beside every registered name's defaults.
const EXTRA_SPECS: &[&str] = &[
    "mergesort:coarse=4",
    "matmul:coarse=4",
    "mergesort:grain=2048,n=4194304",
    "synthetic:depth=2,fanout=24,leaf-instr=200,private-bytes=64,shared-bytes=4096,shared-fraction=0.25,passes=1",
    "synthetic:depth=3,fanout=64,leaf-instr=200,private-bytes=64,shared-bytes=4096,shared-fraction=0.25,passes=1",
];

/// Streaming 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn pattern(&mut self, p: &AccessPattern) {
        match *p {
            AccessPattern::Range { base, len, write } => {
                self.u64(0);
                self.u64(base);
                self.u64(len);
                self.u64(write as u64);
            }
            AccessPattern::RepeatedRange {
                base,
                len,
                passes,
                write,
            } => {
                self.u64(1);
                self.u64(base);
                self.u64(len);
                self.u64(passes as u64);
                self.u64(write as u64);
            }
            AccessPattern::Strided {
                base,
                count,
                stride,
                write,
            } => {
                self.u64(2);
                self.u64(base);
                self.u64(count);
                self.u64(stride);
                self.u64(write as u64);
            }
            AccessPattern::Explicit { ref addrs, write } => {
                self.u64(3);
                self.u64(addrs.len() as u64);
                for &a in addrs {
                    self.u64(a);
                }
                self.u64(write as u64);
            }
        }
    }
}

/// One golden line: counts and the FNV-1a hash of the whole DAG.
fn fingerprint(spec: &str, dag: &TaskDag) -> String {
    let mut h = Fnv::new();
    let mut patterns = 0usize;
    for node in dag.nodes() {
        h.u64(node.label.len() as u64);
        h.bytes(node.label.as_bytes());
        h.u64(node.compute_instructions);
        h.u64(node.accesses.len() as u64);
        for p in node.accesses.iter() {
            h.pattern(p);
        }
        patterns += node.accesses.len();
        let succ = dag.successors(node.id);
        h.u64(succ.len() as u64);
        for s in succ {
            h.u64(s.index() as u64);
        }
    }
    h.u64(dag.root().index() as u64);
    format!(
        "{spec}\n  tasks={} edges={} patterns={} fnv1a={:016x}\n",
        dag.len(),
        dag.edge_count(),
        patterns,
        h.0
    )
}

fn render() -> String {
    let mut specs = WorkloadRegistry::global().names();
    specs.extend(EXTRA_SPECS.iter().map(|s| s.to_string()));
    let mut out = String::new();
    for spec in specs {
        let parsed: WorkloadSpec = spec.parse().expect("pinned specs parse");
        let instance = WorkloadInstance::from_spec(&parsed);
        write!(out, "{}", fingerprint(&spec, &instance.dag)).unwrap();
    }
    out
}

#[test]
fn every_generator_builds_the_pinned_dag() {
    let text = render();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/dag_fingerprints.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).expect("write golden fingerprints");
        return;
    }
    assert_eq!(
        text,
        include_str!("golden/dag_fingerprints.txt"),
        "a generator's DAG changed (UPDATE_GOLDEN=1 to regenerate)"
    );
}
