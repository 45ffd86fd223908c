//! One definition per paper experiment: the grids behind claims C1–C6, as
//! plain data at both scales.  The experiment binaries in `pdfws-bench`
//! render these setups (`--workload` replaces only the workload axis) and
//! the claims of [`ReplicationSuite::paper`](crate::ReplicationSuite::paper)
//! evaluate cells taken from them, so an experiment is re-sized in one place.
//!
//! Workload specs spell out every parameter that differs from the registry's
//! defaults, which are the generators' unit-test (`small()`) sizes: a bare
//! registry spec such as `spmv:rows=131072` keeps the small instance's other
//! parameters and describes another program than the one spelled out below.

use pdfws_core::prelude::*;

/// One experiment's grid at one scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Setup {
    /// Canonical workload spec strings, in table order.
    pub workloads: &'static [&'static str],
    /// The core axis, ascending.
    pub cores: &'static [usize],
    /// Canonical scheduler spec strings, in table order.
    pub schedulers: &'static [&'static str],
    /// Powered fractions of the shared L2, in table order (the power
    /// experiment's axis; empty elsewhere).
    pub l2_fractions: &'static [f64],
}

impl Setup {
    /// Instantiate the workload axis (builds each DAG once).
    pub fn instances(&self) -> Vec<WorkloadInstance> {
        self.workloads
            .iter()
            .map(|w| w.parse().expect("setup workload specs parse"))
            .collect()
    }

    /// The scheduler axis as specs.
    pub fn specs(&self) -> Vec<SchedulerSpec> {
        self.schedulers
            .iter()
            .map(|s| s.parse().expect("setup scheduler specs parse"))
            .collect()
    }

    /// The largest core count of the axis, where the claims compare.
    pub fn top_cores(&self) -> usize {
        *self.cores.last().expect("non-empty core axis")
    }
}

/// A paper experiment at both scales: `--quick` shrinks only the datasets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperExperiment {
    /// The paper-scale grid: the default run of the experiment's binary.
    pub paper: Setup,
    /// The CI-sized workload specs that replace `paper.workloads` under
    /// `--quick`.
    pub quick_workloads: &'static [&'static str],
}

impl PaperExperiment {
    /// The grid at the requested scale.
    pub fn at(&self, quick: bool) -> Setup {
        if quick {
            Setup {
                workloads: self.quick_workloads,
                ..self.paper
            }
        } else {
            self.paper
        }
    }
}

/// Figure 1's x-axis, and the machines `table_configs` lists.
const ALL_CORES: &[usize] = &[1, 2, 4, 8, 16, 32];
/// The core axis of the per-class comparisons.
const CLASS_CORES: &[usize] = &[8, 16, 32];
/// The paper's two schedulers, in claim order.
pub const PAPER_PAIR: &[&str] = &["pdf", "ws"];

/// Figure 1 (`fig1_mergesort`; C1, C2): merge sort at the paper's 2 Ki-key
/// leaf grain, under the pair plus three more specs for the migrations table.
pub const FIG1: PaperExperiment = PaperExperiment {
    paper: Setup {
        workloads: &["mergesort:grain=2048,n=1048576"],
        cores: ALL_CORES,
        schedulers: &["pdf", "ws", "ws:steal=half", "hybrid", "static"],
        l2_fractions: &[],
    },
    quick_workloads: &["mergesort:grain=2048,n=65536"],
};

/// Class A (`class_a_bandwidth_limited`; C3 reads its SpMV):
/// divide-and-conquer and bandwidth-limited irregular programs.
pub const CLASS_A: PaperExperiment = PaperExperiment {
    paper: Setup {
        workloads: &[
            "mergesort:grain=2048,n=1048576",
            "quicksort:grain=2048,n=1048576",
            "matmul:grain=64,n=512",
            "lu:block=64,n=512",
            "spmv:iterations=4,locality-window=8192,nnz-per-row=16,rows=131072,rows-per-task=1024",
            "hashjoin:buckets=16384,build-tuples=65536,probe-tuples=262144,tuples-per-task=4096",
        ],
        cores: CLASS_CORES,
        schedulers: PAPER_PAIR,
        l2_fractions: &[],
    },
    quick_workloads: &[
        "mergesort:grain=2048,n=65536",
        "quicksort:grain=2048,n=65536",
        "matmul:grain=64,n=128",
        "lu:block=64,n=128",
        "spmv:iterations=4,locality-window=8192,nnz-per-row=16,rows=8192,rows-per-task=1024",
        "hashjoin:buckets=1024,build-tuples=4096,probe-tuples=16384,tuples-per-task=4096",
    ],
};

/// Class B (`class_b_neutral`; C4): a limited-reuse scan and a compute-bound
/// kernel.
pub const CLASS_B: PaperExperiment = PaperExperiment {
    paper: Setup {
        workloads: &[
            "scan:grain=8192,n=2097152",
            "compute-kernel:grain=1024,items=131072",
        ],
        cores: CLASS_CORES,
        schedulers: PAPER_PAIR,
        l2_fractions: &[],
    },
    quick_workloads: &[
        "scan:grain=8192,n=131072",
        "compute-kernel:grain=1024,items=8192",
    ],
};

/// Threading granularity (`coarse_vs_fine`; C5 reads its merge sorts): fine
/// and coarse merge sort and matmul under PDF.
pub const COARSE_VS_FINE: PaperExperiment = PaperExperiment {
    paper: Setup {
        workloads: &[
            "mergesort:grain=2048,n=1048576",
            "mergesort:coarse=32,grain=2048,n=1048576",
            "matmul:grain=64,n=512",
            "matmul:coarse=32,grain=64,n=512",
        ],
        cores: CLASS_CORES,
        schedulers: &["pdf"],
        l2_fractions: &[],
    },
    quick_workloads: &[
        "mergesort:grain=2048,n=65536",
        "mergesort:coarse=32,grain=2048,n=65536",
        "matmul:grain=64,n=128",
        "matmul:coarse=32,grain=64,n=128",
    ],
};

/// L2 power-down and multiprogramming (`power_and_multiprogramming`; C6
/// reads the first and last fraction): the Figure-1 merge sort on 8 cores.
pub const POWER: PaperExperiment = PaperExperiment {
    paper: Setup {
        workloads: &["mergesort:grain=2048,n=1048576"],
        cores: &[8],
        schedulers: PAPER_PAIR,
        l2_fractions: &[1.0, 0.5, 0.25],
    },
    quick_workloads: &["mergesort:grain=2048,n=65536"],
};

/// The default machines (`table_configs`): analytic, nothing is simulated.
pub const CONFIGS: PaperExperiment = PaperExperiment {
    paper: Setup {
        workloads: &[],
        cores: ALL_CORES,
        schedulers: &[],
        l2_fractions: &[],
    },
    quick_workloads: &[],
};
