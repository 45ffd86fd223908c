//! The workload registry: name → [`WorkloadFactory`], the open half of the
//! [`WorkloadSpec`] API.
//!
//! Each factory declares its parameters ([`ParamSpec`]) so the spec parser can
//! type-check values and produce helpful unknown-key errors *before* any DAG
//! is generated, checks structural constraints (`matmul`'s power-of-two
//! dimension, `lu`'s block divisibility) at parse time, and instantiates the
//! benchmark program from a validated spec.  **Every parameter's default is
//! the workload's `small()` constructor value**, so the bare name builds
//! exactly the instance the unit tests exercise.
//!
//! The global registry starts with the built-in benchmark programs and is
//! open for extension: register your own factory and its name becomes
//! parseable everywhere a workload spec string is accepted — experiments,
//! sweep grids, job-stream mixes, bench binaries (see
//! `examples/custom_workload.rs`).  The grammar, typed parameters and the
//! registry itself are the generic `pdfws-spec` machinery shared by all four
//! spec axes.

use crate::compute::ComputeKernel;
use crate::hashjoin::HashJoin;
use crate::lu::LuDecomposition;
use crate::matmul::MatMul;
use crate::mergesort::MergeSort;
use crate::quicksort::QuickSort;
use crate::scan::ParallelScan;
use crate::spec::WorkloadSpec;
use crate::spmv::SpMv;
use crate::synthetic::SyntheticTree;
use crate::Workload;
use pdfws_spec::{Domain, Spec, SpecFamily, Vocab};
use pdfws_task_dag::MAX_COUNT;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

pub use pdfws_spec::{ParamKind, ParamSpec};

/// Builds a [`Workload`] from a validated [`WorkloadSpec`].
///
/// Implementations declare their parameters through the [`SpecFamily`]
/// supertrait; the registry guarantees that `build` only ever sees specs
/// whose keys and values passed those declarations (and
/// [`SpecFamily::validate_spec`]), so `build` is infallible.  The
/// [`scale`](WorkloadFactory::scale) and [`reseed`](WorkloadFactory::reseed)
/// hooks let the job-stream sampler vary an instance's problem size and RNG
/// seed without knowing which parameters carry them.
pub trait WorkloadFactory: SpecFamily {
    /// Instantiate the workload the spec describes.
    fn build(&self, spec: &WorkloadSpec) -> Box<dyn Workload>;
    /// Multiply the instance's problem size by `factor` (job-stream
    /// heterogeneity hook).  The returned spec must still validate.  The
    /// default leaves the spec unchanged.
    fn scale(&self, spec: &WorkloadSpec, _factor: u64) -> WorkloadSpec {
        spec.clone()
    }
    /// Re-seed the instance's irregular generators (job-stream sampling
    /// hook); identity for deterministic workloads.
    fn reseed(&self, spec: &WorkloadSpec, _seed: u64) -> WorkloadSpec {
        spec.clone()
    }
}

/// The workload axis.
pub enum WorkloadDomain {}

impl Domain for WorkloadDomain {
    type Factory = dyn WorkloadFactory;
    const VOCAB: &'static Vocab = &Vocab {
        subject: "workload",
        entity: "workload",
        known_label: "known workloads",
    };
    fn builtins() -> Vec<Arc<dyn WorkloadFactory>> {
        vec![
            Arc::new(MergeSortFactory),
            Arc::new(QuickSortFactory),
            Arc::new(MatMulFactory),
            Arc::new(LuFactory),
            Arc::new(SpMvFactory),
            Arc::new(HashJoinFactory),
            Arc::new(ScanFactory),
            Arc::new(ComputeFactory),
            Arc::new(SyntheticFactory),
        ]
    }
    fn global() -> &'static WorkloadRegistry {
        static GLOBAL: OnceLock<WorkloadRegistry> = OnceLock::new();
        GLOBAL.get_or_init(WorkloadRegistry::with_builtins)
    }
}

/// The workload registry: almost all code uses its process-wide
/// [`global`](pdfws_spec::Registry::global) instance, which the spec parser
/// consults; separate instances exist only for tests.
pub type WorkloadRegistry = pdfws_spec::Registry<WorkloadDomain>;

/// Replace one `u64` parameter with a new value (no registry round-trip; the
/// canonical form of a `u64` is its decimal rendering).
fn set_u64(spec: &WorkloadSpec, key: &str, value: u64) -> WorkloadSpec {
    let mut params: BTreeMap<String, String> = spec
        .params()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    params.insert(key.to_string(), value.to_string());
    WorkloadSpec::known_valid(spec.name(), params)
}

// ---------------------------------------------------------------------------
// Built-in factories.  Defaults == the `small()` constructors, so the bare
// name reproduces the test-size instance bit for bit.
// ---------------------------------------------------------------------------

struct MergeSortFactory;

impl SpecFamily for MergeSortFactory {
    fn name(&self) -> &'static str {
        "mergesort"
    }
    fn doc(&self) -> &'static str {
        "parallel merge sort (Figure 1): fork-join recursion with ping-pong buffers"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "n",
                kind: ParamKind::U64,
                doc: "keys to sort (default 256)",
            },
            ParamSpec {
                key: "grain",
                kind: ParamKind::U64,
                doc: "keys per leaf task (default 32)",
            },
            ParamSpec {
                key: "leaf-instr",
                kind: ParamKind::U64,
                doc: "compute instructions per key in a leaf sort (default 12)",
            },
            ParamSpec {
                key: "merge-instr",
                kind: ParamKind::U64,
                doc: "compute instructions per key in a merge (default 4)",
            },
            ParamSpec {
                key: "coarse",
                kind: ParamKind::U64,
                doc: "build the coarse-grained SMP-style variant with this many chunks \
                      (omit for the fine-grained program)",
            },
        ]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        if spec.u64_param("n").unwrap_or(MergeSort::small().n_keys) < 2 {
            return Err("'n' must be at least 2 (need two keys to sort)".into());
        }
        require_nonzero(spec, "coarse")?;
        require_nonzero(spec, "grain")?;
        require_task_ids(Self::instance(spec).task_count())
    }
}

impl MergeSortFactory {
    /// The instance `spec` describes (defaults from `small()`).
    fn instance(spec: &Spec) -> MergeSort {
        // Defaults come from `small()` itself, so the bare name reproduces the
        // test-size instance by construction (pinned by the bit-for-bit test).
        let d = MergeSort::small();
        MergeSort {
            n_keys: spec.u64_param("n").unwrap_or(d.n_keys),
            grain_keys: spec.u64_param("grain").unwrap_or(d.grain_keys),
            leaf_instr_per_key: spec.u64_param("leaf-instr").unwrap_or(d.leaf_instr_per_key),
            merge_instr_per_key: spec
                .u64_param("merge-instr")
                .unwrap_or(d.merge_instr_per_key),
            coarse_chunks: spec.u64_param("coarse"),
        }
    }
}

impl WorkloadFactory for MergeSortFactory {
    fn build(&self, spec: &WorkloadSpec) -> Box<dyn Workload> {
        Box::new(Self::instance(spec))
    }
    fn scale(&self, spec: &WorkloadSpec, factor: u64) -> WorkloadSpec {
        let d = MergeSort::small();
        set_u64(
            spec,
            "n",
            spec.u64_param("n").unwrap_or(d.n_keys) * factor.max(1),
        )
    }
}

struct QuickSortFactory;

impl SpecFamily for QuickSortFactory {
    fn name(&self) -> &'static str {
        "quicksort"
    }
    fn doc(&self) -> &'static str {
        "parallel in-place quicksort: partition-first recursion, 45/55 splits"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "n",
                kind: ParamKind::U64,
                doc: "elements to sort (default 300)",
            },
            ParamSpec {
                key: "grain",
                kind: ParamKind::U64,
                doc: "elements per leaf task (default 32)",
            },
            ParamSpec {
                key: "partition-instr",
                kind: ParamKind::U64,
                doc: "compute instructions per element in a partition pass (default 3)",
            },
            ParamSpec {
                key: "leaf-instr",
                kind: ParamKind::U64,
                doc: "compute instructions per element in a leaf sort (default 14)",
            },
        ]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        if spec.u64_param("n").unwrap_or(QuickSort::small().n_keys) < 2 {
            return Err("'n' must be at least 2 (need two keys to sort)".into());
        }
        require_nonzero(spec, "grain")?;
        require_task_ids(Self::instance(spec).task_count())
    }
}

impl QuickSortFactory {
    /// The instance `spec` describes (defaults from `small()`).
    fn instance(spec: &Spec) -> QuickSort {
        let d = QuickSort::small();
        QuickSort {
            n_keys: spec.u64_param("n").unwrap_or(d.n_keys),
            grain_keys: spec.u64_param("grain").unwrap_or(d.grain_keys),
            partition_instr_per_key: spec
                .u64_param("partition-instr")
                .unwrap_or(d.partition_instr_per_key),
            leaf_instr_per_key: spec.u64_param("leaf-instr").unwrap_or(d.leaf_instr_per_key),
        }
    }
}

impl WorkloadFactory for QuickSortFactory {
    fn build(&self, spec: &WorkloadSpec) -> Box<dyn Workload> {
        Box::new(Self::instance(spec))
    }
    fn scale(&self, spec: &WorkloadSpec, factor: u64) -> WorkloadSpec {
        let d = QuickSort::small();
        set_u64(
            spec,
            "n",
            spec.u64_param("n").unwrap_or(d.n_keys) * factor.max(1),
        )
    }
}

struct MatMulFactory;

impl SpecFamily for MatMulFactory {
    fn name(&self) -> &'static str {
        "matmul"
    }
    fn doc(&self) -> &'static str {
        "recursive blocked matrix multiply: quadrant decomposition, heavy block reuse"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "n",
                kind: ParamKind::U64,
                doc: "matrix dimension, must be a power of two (default 32)",
            },
            ParamSpec {
                key: "grain",
                kind: ParamKind::U64,
                doc: "leaf block dimension (default 8)",
            },
            ParamSpec {
                key: "instr-per-madd",
                kind: ParamKind::U64,
                doc: "compute instructions per multiply-accumulate (default 2)",
            },
            ParamSpec {
                key: "coarse",
                kind: ParamKind::U64,
                doc: "build the coarse-grained banded variant with this many chunks \
                      (omit for the fine-grained program)",
            },
        ]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        let n = spec.u64_param("n").unwrap_or(MatMul::small().n);
        if n < 2 || !n.is_power_of_two() {
            return Err(format!("'n' must be a power of two >= 2, got {n}"));
        }
        require_nonzero(spec, "coarse")?;
        require_nonzero(spec, "grain")?;
        require_task_ids(Self::instance(spec).task_count())
    }
}

impl MatMulFactory {
    /// The instance `spec` describes (defaults from `small()`).
    fn instance(spec: &Spec) -> MatMul {
        let d = MatMul::small();
        MatMul {
            n: spec.u64_param("n").unwrap_or(d.n),
            grain: spec.u64_param("grain").unwrap_or(d.grain),
            instr_per_madd: spec.u64_param("instr-per-madd").unwrap_or(d.instr_per_madd),
            coarse_chunks: spec.u64_param("coarse"),
        }
    }
}

impl WorkloadFactory for MatMulFactory {
    fn build(&self, spec: &WorkloadSpec) -> Box<dyn Workload> {
        Box::new(Self::instance(spec))
    }
    fn scale(&self, spec: &WorkloadSpec, factor: u64) -> WorkloadSpec {
        // The dimension must stay a power of two: round the factor up.
        let factor = factor.max(1).next_power_of_two();
        set_u64(
            spec,
            "n",
            spec.u64_param("n").unwrap_or(MatMul::small().n) * factor,
        )
    }
}

struct LuFactory;

impl SpecFamily for LuFactory {
    fn name(&self) -> &'static str {
        "lu"
    }
    fn doc(&self) -> &'static str {
        "blocked LU decomposition (no pivoting): diag/panel/update DAG, shrinking parallelism"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "n",
                kind: ParamKind::U64,
                doc: "matrix dimension, a multiple of the block size (default 64)",
            },
            ParamSpec {
                key: "block",
                kind: ParamKind::U64,
                doc: "block dimension (default 16)",
            },
            ParamSpec {
                key: "instr-per-elem",
                kind: ParamKind::U64,
                doc: "compute instructions per element per pass (default 6)",
            },
        ]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        let d = LuDecomposition::small();
        let n = spec.u64_param("n").unwrap_or(d.n);
        let block = spec.u64_param("block").unwrap_or(d.block);
        if block == 0 || !n.is_multiple_of(block) || n / block < 2 {
            return Err(format!(
                "'n' ({n}) must be a multiple of 'block' ({block}) with at least 2 blocks per side"
            ));
        }
        require_task_ids(Self::instance(spec).task_count())
    }
}

impl LuFactory {
    /// The instance `spec` describes (defaults from `small()`).
    fn instance(spec: &Spec) -> LuDecomposition {
        let d = LuDecomposition::small();
        LuDecomposition {
            n: spec.u64_param("n").unwrap_or(d.n),
            block: spec.u64_param("block").unwrap_or(d.block),
            instr_per_elem: spec.u64_param("instr-per-elem").unwrap_or(d.instr_per_elem),
        }
    }
}

impl WorkloadFactory for LuFactory {
    fn build(&self, spec: &WorkloadSpec) -> Box<dyn Workload> {
        Box::new(Self::instance(spec))
    }
    fn scale(&self, spec: &WorkloadSpec, factor: u64) -> WorkloadSpec {
        let d = LuDecomposition::small();
        set_u64(
            spec,
            "n",
            spec.u64_param("n").unwrap_or(d.n) * factor.max(1),
        )
    }
}

struct SpMvFactory;

impl SpecFamily for SpMvFactory {
    fn name(&self) -> &'static str {
        "spmv"
    }
    fn doc(&self) -> &'static str {
        "iterative sparse matrix-vector product (CSR): streamed values, clustered gathers into x"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "rows",
                kind: ParamKind::U64,
                doc: "matrix rows and vector length (default 512)",
            },
            ParamSpec {
                key: "nnz-per-row",
                kind: ParamKind::U64,
                doc: "non-zeros per row (default 8)",
            },
            ParamSpec {
                key: "rows-per-task",
                kind: ParamKind::U64,
                doc: "rows handled by one task (default 64)",
            },
            ParamSpec {
                key: "iterations",
                kind: ParamKind::U64,
                doc: "y = A*x iterations (default 2)",
            },
            ParamSpec {
                key: "locality-window",
                kind: ParamKind::U64,
                doc: "gathers fall within this many rows of a task's own rows (default 128)",
            },
            ParamSpec {
                key: "seed",
                kind: ParamKind::U64,
                doc: "seed for the deterministic column-index generator",
            },
            ParamSpec {
                key: "instr-per-nnz",
                kind: ParamKind::U64,
                doc: "compute instructions per non-zero (default 4)",
            },
        ]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        require_nonzero(spec, "rows")?;
        require_nonzero(spec, "rows-per-task")?;
        require_u32(spec, "iterations")?;
        require_task_ids(Self::instance(spec).task_count())
    }
}

impl SpMvFactory {
    /// The instance `spec` describes (defaults from `small()`).
    fn instance(spec: &Spec) -> SpMv {
        let d = SpMv::small();
        SpMv {
            rows: spec.u64_param("rows").unwrap_or(d.rows),
            nnz_per_row: spec.u64_param("nnz-per-row").unwrap_or(d.nnz_per_row),
            rows_per_task: spec.u64_param("rows-per-task").unwrap_or(d.rows_per_task),
            iterations: spec.u64_param("iterations").unwrap_or(d.iterations as u64) as u32,
            locality_window: spec
                .u64_param("locality-window")
                .unwrap_or(d.locality_window),
            seed: spec.u64_param("seed").unwrap_or(d.seed),
            instr_per_nnz: spec.u64_param("instr-per-nnz").unwrap_or(d.instr_per_nnz),
        }
    }
}

impl WorkloadFactory for SpMvFactory {
    fn build(&self, spec: &WorkloadSpec) -> Box<dyn Workload> {
        Box::new(Self::instance(spec))
    }
    fn scale(&self, spec: &WorkloadSpec, factor: u64) -> WorkloadSpec {
        let d = SpMv::small();
        set_u64(
            spec,
            "rows",
            spec.u64_param("rows").unwrap_or(d.rows) * factor.max(1),
        )
    }
    fn reseed(&self, spec: &WorkloadSpec, seed: u64) -> WorkloadSpec {
        set_u64(spec, "seed", seed)
    }
}

struct HashJoinFactory;

impl SpecFamily for HashJoinFactory {
    fn name(&self) -> &'static str {
        "hashjoin"
    }
    fn doc(&self) -> &'static str {
        "two-phase in-memory hash join: streamed relations, shared hash table"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "build-tuples",
                kind: ParamKind::U64,
                doc: "tuples in the build relation (default 256)",
            },
            ParamSpec {
                key: "probe-tuples",
                kind: ParamKind::U64,
                doc: "tuples in the probe relation (default 512)",
            },
            ParamSpec {
                key: "tuples-per-task",
                kind: ParamKind::U64,
                doc: "tuples processed by one task (default 64)",
            },
            ParamSpec {
                key: "buckets",
                kind: ParamKind::U64,
                doc: "hash-table buckets (default 128)",
            },
            ParamSpec {
                key: "seed",
                kind: ParamKind::U64,
                doc: "seed for the key distribution",
            },
            ParamSpec {
                key: "instr-per-tuple",
                kind: ParamKind::U64,
                doc: "compute instructions per tuple (default 12)",
            },
        ]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        require_nonzero(spec, "tuples-per-task")?;
        require_nonzero(spec, "buckets")?;
        require_task_ids(Self::instance(spec).task_count())
    }
}

impl HashJoinFactory {
    /// The instance `spec` describes (defaults from `small()`).
    fn instance(spec: &Spec) -> HashJoin {
        let d = HashJoin::small();
        HashJoin {
            build_tuples: spec.u64_param("build-tuples").unwrap_or(d.build_tuples),
            probe_tuples: spec.u64_param("probe-tuples").unwrap_or(d.probe_tuples),
            tuples_per_task: spec
                .u64_param("tuples-per-task")
                .unwrap_or(d.tuples_per_task),
            buckets: spec.u64_param("buckets").unwrap_or(d.buckets),
            seed: spec.u64_param("seed").unwrap_or(d.seed),
            instr_per_tuple: spec
                .u64_param("instr-per-tuple")
                .unwrap_or(d.instr_per_tuple),
        }
    }
}

impl WorkloadFactory for HashJoinFactory {
    fn build(&self, spec: &WorkloadSpec) -> Box<dyn Workload> {
        Box::new(Self::instance(spec))
    }
    fn scale(&self, spec: &WorkloadSpec, factor: u64) -> WorkloadSpec {
        let d = HashJoin::small();
        let factor = factor.max(1);
        let scaled = set_u64(
            spec,
            "build-tuples",
            spec.u64_param("build-tuples").unwrap_or(d.build_tuples) * factor,
        );
        set_u64(
            &scaled,
            "probe-tuples",
            spec.u64_param("probe-tuples").unwrap_or(d.probe_tuples) * factor,
        )
    }
    fn reseed(&self, spec: &WorkloadSpec, seed: u64) -> WorkloadSpec {
        set_u64(spec, "seed", seed)
    }
}

struct ScanFactory;

impl SpecFamily for ScanFactory {
    fn name(&self) -> &'static str {
        "scan"
    }
    fn doc(&self) -> &'static str {
        "two-phase parallel prefix sum: up-sweep, combine, down-sweep (low reuse)"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "n",
                kind: ParamKind::U64,
                doc: "elements (default 1024)",
            },
            ParamSpec {
                key: "grain",
                kind: ParamKind::U64,
                doc: "elements per task (default 128)",
            },
            ParamSpec {
                key: "instr-per-elem",
                kind: ParamKind::U64,
                doc: "compute instructions per element per phase (default 2)",
            },
        ]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        require_nonzero(spec, "n")?;
        require_nonzero(spec, "grain")?;
        require_task_ids(Self::instance(spec).task_count())
    }
}

impl ScanFactory {
    /// The instance `spec` describes (defaults from `small()`).
    fn instance(spec: &Spec) -> ParallelScan {
        let d = ParallelScan::small();
        ParallelScan {
            n: spec.u64_param("n").unwrap_or(d.n),
            grain: spec.u64_param("grain").unwrap_or(d.grain),
            instr_per_elem: spec.u64_param("instr-per-elem").unwrap_or(d.instr_per_elem),
        }
    }
}

impl WorkloadFactory for ScanFactory {
    fn build(&self, spec: &WorkloadSpec) -> Box<dyn Workload> {
        Box::new(Self::instance(spec))
    }
    fn scale(&self, spec: &WorkloadSpec, factor: u64) -> WorkloadSpec {
        let d = ParallelScan::small();
        set_u64(
            spec,
            "n",
            spec.u64_param("n").unwrap_or(d.n) * factor.max(1),
        )
    }
}

struct ComputeFactory;

impl SpecFamily for ComputeFactory {
    fn name(&self) -> &'static str {
        "compute-kernel"
    }
    fn doc(&self) -> &'static str {
        "compute-bound data-parallel kernel: high arithmetic intensity, bandwidth-neutral"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "items",
                kind: ParamKind::U64,
                doc: "independent work items (default 2048)",
            },
            ParamSpec {
                key: "grain",
                kind: ParamKind::U64,
                doc: "items per task (default 256)",
            },
            ParamSpec {
                key: "instr-per-item",
                kind: ParamKind::U64,
                doc: "compute instructions per item (default 400)",
            },
        ]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        require_nonzero(spec, "items")?;
        require_nonzero(spec, "grain")?;
        require_task_ids(Self::instance(spec).task_count())
    }
}

impl ComputeFactory {
    /// The instance `spec` describes (defaults from `small()`).
    fn instance(spec: &Spec) -> ComputeKernel {
        let d = ComputeKernel::small();
        ComputeKernel {
            items: spec.u64_param("items").unwrap_or(d.items),
            grain: spec.u64_param("grain").unwrap_or(d.grain),
            instr_per_item: spec.u64_param("instr-per-item").unwrap_or(d.instr_per_item),
        }
    }
}

impl WorkloadFactory for ComputeFactory {
    fn build(&self, spec: &WorkloadSpec) -> Box<dyn Workload> {
        Box::new(Self::instance(spec))
    }
    fn scale(&self, spec: &WorkloadSpec, factor: u64) -> WorkloadSpec {
        let d = ComputeKernel::small();
        set_u64(
            spec,
            "items",
            spec.u64_param("items").unwrap_or(d.items) * factor.max(1),
        )
    }
}

struct SyntheticFactory;

impl SpecFamily for SyntheticFactory {
    fn name(&self) -> &'static str {
        "synthetic"
    }
    fn doc(&self) -> &'static str {
        "tunable fork-join tree: every cache-sharing knob (depth, fanout, shared fraction) exposed"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[
            ParamSpec {
                key: "depth",
                kind: ParamKind::U64,
                doc: "tree depth, 0 = one leaf (default 3)",
            },
            ParamSpec {
                key: "fanout",
                kind: ParamKind::U64,
                doc: "children per internal node (default 2)",
            },
            ParamSpec {
                key: "leaf-instr",
                kind: ParamKind::U64,
                doc: "compute instructions per leaf (default 500)",
            },
            ParamSpec {
                key: "private-bytes",
                kind: ParamKind::U64,
                doc: "leaf-private bytes each leaf streams (default 4096)",
            },
            ParamSpec {
                key: "shared-bytes",
                kind: ParamKind::U64,
                doc: "bytes of the region shared by all leaves (default 16384)",
            },
            ParamSpec {
                key: "shared-fraction",
                kind: ParamKind::Fraction,
                doc: "fraction of each leaf's references into the shared region (default 0.5)",
            },
            ParamSpec {
                key: "passes",
                kind: ParamKind::U64,
                doc: "passes each leaf makes over its data (default 2)",
            },
        ]
    }
    fn validate_spec(&self, spec: &Spec) -> Result<(), String> {
        require_nonzero(spec, "fanout")?;
        require_u32(spec, "depth")?;
        require_u32(spec, "fanout")?;
        require_u32(spec, "passes")?;
        require_task_ids(Self::instance(spec).task_count())
    }
}

impl SyntheticFactory {
    /// The instance `spec` describes (defaults from `small()`).
    fn instance(spec: &Spec) -> SyntheticTree {
        let d = SyntheticTree::small();
        SyntheticTree {
            depth: spec.u64_param("depth").unwrap_or(d.depth as u64) as u32,
            fanout: spec.u64_param("fanout").unwrap_or(d.fanout as u64) as u32,
            leaf_instructions: spec.u64_param("leaf-instr").unwrap_or(d.leaf_instructions),
            leaf_private_bytes: spec
                .u64_param("private-bytes")
                .unwrap_or(d.leaf_private_bytes),
            shared_bytes: spec.u64_param("shared-bytes").unwrap_or(d.shared_bytes),
            shared_fraction: spec
                .f64_param("shared-fraction")
                .unwrap_or(d.shared_fraction),
            passes: spec.u64_param("passes").unwrap_or(d.passes as u64) as u32,
        }
    }
}

impl WorkloadFactory for SyntheticFactory {
    fn build(&self, spec: &WorkloadSpec) -> Box<dyn Workload> {
        Box::new(Self::instance(spec))
    }
    fn scale(&self, spec: &WorkloadSpec, factor: u64) -> WorkloadSpec {
        let d = SyntheticTree::small();
        set_u64(
            spec,
            "leaf-instr",
            spec.u64_param("leaf-instr").unwrap_or(d.leaf_instructions) * factor.max(1),
        )
    }
}

/// Shared constraint: if `key` was given explicitly, its value must be >= 1
/// (these parameters size divisions or loops where 0 is meaningless).
fn require_nonzero(spec: &Spec, key: &str) -> Result<(), String> {
    if spec.param(key) == Some("0") {
        return Err(format!("'{key}' must be at least 1"));
    }
    Ok(())
}

/// Shared constraint: the DAG must fit its 32-bit task ids.  `tasks` is the
/// workload's closed-form task count (or an upper bound on it), computed
/// before anything is allocated.
fn require_task_ids(tasks: u64) -> Result<(), String> {
    if tasks > MAX_COUNT as u64 {
        return Err(format!(
            "the DAG would have more than {MAX_COUNT} tasks, the most 32-bit task ids can address"
        ));
    }
    Ok(())
}

/// Shared constraint for parameters stored in `u32` fields: reject values the
/// build would otherwise silently truncate (breaking the spec→instance
/// round-trip, and defeating [`require_nonzero`] via wrap-to-zero).
fn require_u32(spec: &Spec, key: &str) -> Result<(), String> {
    if spec.u64_param(key).unwrap_or(0) > u32::MAX as u64 {
        return Err(format!("'{key}' must fit in 32 bits"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkloadClass;
    use pdfws_spec::SpecErrorKind;

    #[test]
    fn global_registry_knows_the_builtins() {
        let names = WorkloadRegistry::global().names();
        for name in [
            "compute-kernel",
            "hashjoin",
            "lu",
            "matmul",
            "mergesort",
            "quicksort",
            "scan",
            "spmv",
            "synthetic",
        ] {
            assert!(names.contains(&name.to_string()), "{names:?}");
        }
    }

    #[test]
    fn bare_names_build_the_small_instances_bit_for_bit() {
        // The acceptance bar for the spec defaults: `"mergesort"` must build
        // exactly `MergeSort::small()`'s DAG, and likewise for every builtin.
        let cases: Vec<(&str, Box<dyn Workload>)> = vec![
            ("mergesort", Box::new(MergeSort::small())),
            ("quicksort", Box::new(QuickSort::small())),
            ("matmul", Box::new(MatMul::small())),
            ("lu", Box::new(LuDecomposition::small())),
            ("spmv", Box::new(SpMv::small())),
            ("hashjoin", Box::new(HashJoin::small())),
            ("scan", Box::new(ParallelScan::small())),
            ("compute-kernel", Box::new(ComputeKernel::small())),
            ("synthetic", Box::new(SyntheticTree::small())),
        ];
        for (name, small) in cases {
            let spec: WorkloadSpec = name.parse().unwrap();
            let built = spec.build();
            assert_eq!(built.name(), small.name(), "{name}");
            assert_eq!(built.class(), small.class(), "{name}");
            assert_eq!(built.data_bytes(), small.data_bytes(), "{name}");
            assert_eq!(built.build_dag(), small.build_dag(), "{name}: DAG differs");
        }
    }

    #[test]
    fn u32_backed_parameters_reject_values_that_would_truncate() {
        // 2^32 passes ParamKind::U64 but would wrap to 0 in the u32 struct
        // fields, silently desynchronizing the spec from the built instance
        // (and defeating the nonzero checks via wrap-to-zero).
        for raw in [
            "spmv:iterations=4294967296",
            "synthetic:fanout=4294967296",
            "synthetic:depth=4294967296",
            "synthetic:passes=4294967296",
        ] {
            let err = raw.parse::<WorkloadSpec>().unwrap_err();
            assert!(err.to_string().contains("fit in 32 bits"), "{raw}: {err}");
        }
        // The full 32-bit range itself stays valid where the DAG fits its
        // 32-bit task ids: `passes` does not change the task count, and
        // `iterations` may go up to exactly 2^32 - 1 tasks (two per
        // iteration plus the init task).
        assert!("synthetic:passes=4294967295"
            .parse::<WorkloadSpec>()
            .is_ok());
        assert!("spmv:iterations=2147483647,rows=64"
            .parse::<WorkloadSpec>()
            .is_ok());
        let err = "spmv:iterations=4294967295,rows=64"
            .parse::<WorkloadSpec>()
            .unwrap_err();
        assert!(err.to_string().contains("4294967295 tasks"), "{err}");
    }

    #[test]
    fn closed_form_task_counts_match_the_built_dags() {
        let predicted = |spec: &Spec| match spec.name() {
            "mergesort" => MergeSortFactory::instance(spec).task_count(),
            "quicksort" => QuickSortFactory::instance(spec).task_count(),
            "matmul" => MatMulFactory::instance(spec).task_count(),
            "lu" => LuFactory::instance(spec).task_count(),
            "spmv" => SpMvFactory::instance(spec).task_count(),
            "hashjoin" => HashJoinFactory::instance(spec).task_count(),
            "scan" => ScanFactory::instance(spec).task_count(),
            "compute-kernel" => ComputeFactory::instance(spec).task_count(),
            "synthetic" => SyntheticFactory::instance(spec).task_count(),
            other => unreachable!("no task count for {other}"),
        };
        for text in [
            "mergesort:n=1000,grain=7",
            "mergesort:n=4099,grain=1",
            "mergesort:n=2,grain=2",
            "mergesort:n=100,coarse=7",
            "quicksort:n=1000,grain=1",
            "quicksort:n=100000,grain=32",
            "quicksort",
            "matmul:n=64,grain=4",
            "matmul:n=64,grain=64",
            "matmul:n=64,coarse=5",
            "matmul:n=8,coarse=100",
            "lu:n=64,block=8",
            "spmv:rows=1000,rows-per-task=7,iterations=3",
            "hashjoin:build-tuples=100,probe-tuples=333,tuples-per-task=9",
            "scan:n=1000,grain=7",
            "compute-kernel:items=1000,grain=7",
            "synthetic:depth=3,fanout=5",
            "synthetic:depth=4,fanout=1",
            "synthetic:depth=0",
            "synthetic",
        ] {
            let spec: WorkloadSpec = text.parse().unwrap();
            let (predicted, actual) = (predicted(&spec), spec.build().build_dag().len() as u64);
            if spec.name() == "quicksort" {
                // An upper bound, exact at grain 1.
                assert!(
                    predicted >= actual && predicted <= 2 * actual,
                    "{text}: {predicted} vs {actual}"
                );
            } else {
                assert_eq!(predicted, actual, "{text}");
            }
        }
    }

    #[test]
    fn dags_past_the_task_id_range_are_rejected_before_building() {
        for text in [
            "mergesort:n=18446744073709551615",
            "quicksort:n=18446744073709551615",
            "synthetic:depth=40",
            "synthetic:depth=4294967295,fanout=4294967295",
            "matmul:n=9223372036854775808,grain=1",
            "lu:n=18446744073709551615,block=1",
            "spmv:rows=18446744073709551615,rows-per-task=1",
            "hashjoin:probe-tuples=18446744073709551615,tuples-per-task=1",
            "scan:n=18446744073709551615,grain=1",
            "compute-kernel:items=18446744073709551615,grain=1",
            "mergesort:n=4,coarse=18446744073709551615",
        ] {
            let err = text.parse::<WorkloadSpec>().unwrap_err();
            assert!(
                matches!(err.kind, SpecErrorKind::InvalidCombination { .. }),
                "{text}: {err}"
            );
            assert!(
                err.to_string().contains("4294967295 tasks"),
                "{text}: {err}"
            );
        }
        // Exactly at the limit still parses: fork, join and 2^32 - 3 item tasks.
        let edge = "compute-kernel:items=4294967293,grain=1";
        assert!(edge.parse::<WorkloadSpec>().is_ok(), "{edge}");
        assert!("compute-kernel:items=4294967294,grain=1"
            .parse::<WorkloadSpec>()
            .is_err());
    }

    #[test]
    fn coarse_param_selects_the_smp_variant() {
        let spec: WorkloadSpec = "mergesort:coarse=4".parse().unwrap();
        let w = spec.build();
        assert_eq!(w.name(), "mergesort-coarse");
        assert_eq!(w.class(), WorkloadClass::CoarseGrained);
        assert_eq!(
            w.build_dag(),
            MergeSort {
                coarse_chunks: Some(4),
                ..MergeSort::small()
            }
            .build_dag()
        );
        let spec: WorkloadSpec = "matmul:coarse=4".parse().unwrap();
        assert_eq!(spec.build().name(), "matmul-coarse");
    }

    #[test]
    fn scale_hooks_grow_the_problem_and_stay_valid() {
        for name in WorkloadRegistry::global().names() {
            let factory = WorkloadRegistry::global().factory(&name).unwrap();
            let base: WorkloadSpec = name.parse().unwrap();
            for factor in [1u64, 2, 3] {
                let scaled = factory.scale(&base, factor);
                // The scaled spec must still parse (i.e. remain valid).
                let reparsed: WorkloadSpec = scaled.to_string().parse().unwrap_or_else(|e| {
                    panic!("{name} scaled by {factor} produced invalid '{scaled}': {e}")
                });
                assert_eq!(reparsed, scaled);
                let w = scaled.build();
                assert!(w.data_bytes() > 0, "{name}");
            }
            // Scaling by 3 must actually change something for stream-mix
            // workloads (identity is allowed only if the factory opted out).
            let scaled = factory.scale(&base, 3);
            if scaled != base {
                assert!(
                    scaled.build().build_dag().work() > base.build().build_dag().work(),
                    "{name}: scale(3) did not increase work"
                );
            }
        }
    }

    #[test]
    fn reseed_hooks_change_irregular_dags_only() {
        let reg = WorkloadRegistry::global();
        for name in ["spmv", "hashjoin"] {
            let factory = reg.factory(name).unwrap();
            let base: WorkloadSpec = name.parse().unwrap();
            let reseeded = factory.reseed(&base, 12345);
            assert_ne!(
                reseeded.build().build_dag(),
                base.build().build_dag(),
                "{name}: reseed had no effect"
            );
            assert_eq!(reseeded.to_string().parse::<WorkloadSpec>(), Ok(reseeded));
        }
        // Deterministic workloads keep their spec unchanged.
        let factory = reg.factory("scan").unwrap();
        let base: WorkloadSpec = "scan".parse().unwrap();
        assert_eq!(factory.reseed(&base, 9), base);
    }

    #[test]
    fn help_lists_workloads_and_parameters() {
        let help = WorkloadRegistry::global().help();
        assert!(help.contains("mergesort"), "{help}");
        assert!(help.contains("n=<u64>"), "{help}");
        assert!(help.contains("shared-fraction=<0..1>"), "{help}");
        assert!(help.contains("nnz-per-row=<u64>"), "{help}");
    }

    #[test]
    fn custom_factories_extend_the_grammar() {
        struct Pair;
        impl SpecFamily for Pair {
            fn name(&self) -> &'static str {
                "test-pair"
            }
            fn doc(&self) -> &'static str {
                "two leaves (registered by a unit test)"
            }
            fn params(&self) -> &'static [ParamSpec] {
                &[]
            }
        }
        impl WorkloadFactory for Pair {
            fn build(&self, _spec: &WorkloadSpec) -> Box<dyn Workload> {
                let mut t = SyntheticTree::small();
                t.depth = 1;
                Box::new(t)
            }
        }
        WorkloadRegistry::global().register(Arc::new(Pair));
        let spec: WorkloadSpec = "test-pair".parse().unwrap();
        assert_eq!(spec.build().build_dag().len(), 4);
        let err = "test-pair:x=1".parse::<WorkloadSpec>().unwrap_err();
        assert!(err.to_string().contains("takes no parameters"), "{err}");
    }

    #[test]
    fn separate_registries_are_independent() {
        let reg = WorkloadRegistry::empty();
        assert!(reg.names().is_empty());
        let err = reg.parse("mergesort").unwrap_err();
        assert!(matches!(err.kind, SpecErrorKind::UnknownName { .. }));
    }
}
