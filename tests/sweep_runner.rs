//! Integration tests for the sweep layer: the parallel `SweepRunner` must be
//! bit-identical to the sequential path for arbitrary grids, and a workload's
//! DAG must be built exactly once per sweep regardless of how many cells
//! consume it.

use pdfws::prelude::*;
use pdfws::task_dag::builder::SpTree;
use pdfws::task_dag::{AccessPattern, TaskDag};
use pdfws::workloads::MergeSort;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Random series-parallel trees whose leaves carry compute and memory ranges —
/// small enough that a few hundred grid cells stay fast, varied enough to
/// exercise every scheduler path.
fn workload_strategy() -> impl Strategy<Value = SpTree> {
    let leaf = (1u64..1_500, 0u64..3, 1u64..48).prop_map(|(instr, kind, blocks)| {
        let accesses = match kind {
            0 => vec![],
            1 => vec![AccessPattern::range_read(instr * 4096, blocks * 64)],
            _ => vec![
                AccessPattern::range_read(0, blocks * 64), // shared region at 0
                AccessPattern::range_write(instr * 4096, blocks * 64),
            ],
        };
        SpTree::leaf_with_accesses("leaf", instr, accesses)
    });
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(SpTree::Seq),
            prop::collection::vec(inner, 1..4).prop_map(SpTree::Par),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The tentpole determinism guarantee: for every grid, `SweepRunner` with
    // N >= 2 threads returns cell-for-cell identical `SimResult`s and
    // identical report ordering to a single-threaded run.
    #[test]
    fn parallel_sweeps_are_bit_identical_to_sequential(
        tree_a in workload_strategy(),
        tree_b in workload_strategy(),
        cores_pick in prop::sample::select(vec![0usize, 1, 2]),
        spec_pick in prop::sample::select(vec![0usize, 1, 2]),
        threads in prop::sample::select(vec![2usize, 3, 7]),
    ) {
        let cores: &[usize] = match cores_pick {
            0 => &[1],
            1 => &[2, 4],
            _ => &[1, 3, 8],
        };
        let specs: Vec<SchedulerSpec> = match spec_pick {
            0 => vec![SchedulerSpec::pdf()],
            1 => SchedulerSpec::paper_pair().to_vec(),
            _ => vec![
                "ws:victim=random,seed=7".parse().unwrap(),
                "hybrid:threshold=3".parse().unwrap(),
            ],
        };
        let grid = SweepGrid::new()
            .workload(WorkloadInstance::from_parts(
                "a",
                WorkloadClass::DivideAndConquer,
                tree_a.into_dag().unwrap(),
                1 << 16,
            ))
            .workload(WorkloadInstance::from_parts(
                "b",
                WorkloadClass::LowReuse,
                tree_b.into_dag().unwrap(),
                1 << 16,
            ))
            .cores(cores)
            .specs(&specs);

        let sequential = SweepRunner::sequential().run(&grid).unwrap();
        let parallel = SweepRunner::new(threads).run(&grid).unwrap();

        // Report ordering: workloads in insertion order, cores outer x specs
        // inner — and every cell's SimResult bit-identical.
        prop_assert_eq!(&parallel, &sequential);
        for (seq_report, par_report) in sequential.reports().iter().zip(parallel.reports()) {
            prop_assert_eq!(&seq_report.workload, &par_report.workload);
            prop_assert_eq!(seq_report.runs().len(), cores.len() * specs.len());
            for (s, p) in seq_report.runs().iter().zip(par_report.runs()) {
                prop_assert_eq!(s.cores, p.cores);
                prop_assert_eq!(&s.scheduler, &p.scheduler);
                prop_assert_eq!(&s.metrics, &p.metrics);
            }
        }
    }
}

/// Builds of `test-counting`'s DAG, across every instance.
static BUILDS: AtomicUsize = AtomicUsize::new(0);

/// `MergeSort::small()` under another name, counting its DAG builds.
struct CountingMergeSort;

impl Workload for CountingMergeSort {
    fn name(&self) -> &'static str {
        "test-counting"
    }

    fn class(&self) -> WorkloadClass {
        WorkloadClass::DivideAndConquer
    }

    fn build_dag(&self) -> TaskDag {
        BUILDS.fetch_add(1, Ordering::SeqCst);
        MergeSort::small().build_dag()
    }

    fn data_bytes(&self) -> u64 {
        MergeSort::small().data_bytes()
    }
}

/// Registers `test-counting`, a parameterless workload.
struct CountingFactory;

impl SpecFamily for CountingFactory {
    fn name(&self) -> &'static str {
        "test-counting"
    }

    fn doc(&self) -> &'static str {
        "merge sort counting its DAG builds (test workload)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        &[]
    }
}

impl WorkloadFactory for CountingFactory {
    fn build(&self, _spec: &WorkloadSpec) -> Box<dyn Workload> {
        Box::new(CountingMergeSort)
    }
}

/// Pins the `Arc<TaskDag>` sharing behavior: a (cores x specs) sweep — plus
/// its sequential baseline — builds the workload's DAG exactly once.
#[test]
fn build_dag_runs_exactly_once_per_sweep() {
    WorkloadRegistry::global().register(Arc::new(CountingFactory));
    let spec = WorkloadInstance::from_spec(&"test-counting".parse().unwrap());
    assert_eq!(BUILDS.load(Ordering::SeqCst), 1);

    let grid = SweepGrid::new()
        .workload(spec.clone())
        .cores(&[1, 2, 4])
        .specs(&[
            SchedulerSpec::pdf(),
            SchedulerSpec::ws(),
            SchedulerSpec::static_partition(),
        ]);
    let sweep = SweepRunner::new(3).run(&grid).unwrap();
    assert_eq!(sweep.reports()[0].runs().len(), 9);
    assert_eq!(
        BUILDS.load(Ordering::SeqCst),
        1,
        "9 cells + baseline must share one DAG build"
    );

    // Another grid over the same instance, on another pool, shares it too.
    let grid = SweepGrid::new().workload(spec).cores(&[2, 4]);
    let sweep = SweepRunner::new(2).run(&grid).unwrap();
    assert_eq!(sweep.reports()[0].runs().len(), 4);
    assert_eq!(
        BUILDS.load(Ordering::SeqCst),
        1,
        "re-running sweeps over the same WorkloadInstance must not rebuild"
    );
}

/// Sweeps and stream experiments stay deterministic under any thread count.
#[test]
fn experiment_and_stream_threads_are_deterministic() {
    let grid = SweepGrid::new()
        .workload_str("scan")
        .unwrap()
        .cores(&[1, 2]);
    let seq = SweepRunner::new(1).run(&grid).unwrap();
    let par = SweepRunner::new(4).run(&grid).unwrap();
    assert_eq!(seq, par);

    let mix = pdfws::stream::JobMix::class_b();
    let stream = |threads: usize| {
        StreamExperiment::new(mix.clone())
            .jobs(6)
            .cores(2)
            .threads(threads)
            .run()
            .unwrap()
    };
    assert_eq!(stream(1), stream(3));
}
