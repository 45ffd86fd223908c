//! Register your own workload in ~30 lines.
//!
//! The workload API is open, exactly like the scheduler API
//! (`examples/custom_policy.rs`): implement [`Workload`] (four required
//! methods), name it and declare its typed parameters ([`SpecFamily`]), wrap
//! it in a [`WorkloadFactory`] that builds it, and register it.  From that point
//! `"stencil"` — or `"stencil:points=8192,iters=4"` — parses as a
//! [`WorkloadSpec`] everywhere: `SweepGrid::workload_str`, job-stream mixes,
//! and every bench binary's `--workload` flag.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use pdfws::prelude::*;
use pdfws::task_dag::builder::DagBuilder;
use pdfws::task_dag::{AccessPattern, TaskDag};
use pdfws::workloads::layout::AddressSpace;
use std::sync::Arc;

// --- The ~30 lines: a 1D stencil workload and its factory ------------------

/// An iterative 1D three-point stencil: each sweep's chunk tasks read their
/// chunk plus a halo from the previous sweep and write their chunk — nearby
/// chunks share halo data, so the scheduler's co-scheduling choices matter.
struct Stencil {
    points: u64,
    iters: u64,
    grain: u64,
}

impl Workload for Stencil {
    fn name(&self) -> &'static str {
        "stencil"
    }
    fn class(&self) -> WorkloadClass {
        WorkloadClass::BandwidthLimitedIrregular
    }
    fn build_dag(&self) -> TaskDag {
        let mut space = AddressSpace::new();
        let field = space.alloc(self.points * 8);
        let mut b = DagBuilder::new();
        let mut prev = b.task("stencil-init").instructions(50).build();
        for it in 0..self.iters {
            let join = b
                .task(format_args!("sweep-join[{it}]"))
                .instructions(20)
                .build();
            for c in 0..self.points.div_ceil(self.grain) {
                let first = c * self.grain;
                let count = self.grain.min(self.points - first);
                let lo = first.saturating_sub(1);
                let hi = (first + count + 1).min(self.points);
                let halo = field.slice(lo, hi - lo, 8);
                let out = field.slice(first, count, 8);
                let t = b
                    .task(format_args!("sweep[{it}][{c}]"))
                    .instructions(count * 5)
                    .access(AccessPattern::range_read(halo.base, halo.len))
                    .access(AccessPattern::range_write(out.base, out.len))
                    .build();
                b.edge(prev, t);
                b.edge(t, join);
            }
            prev = join;
        }
        b.finish().expect("stencil DAG is valid by construction")
    }
    fn data_bytes(&self) -> u64 {
        self.points * 8
    }
}

struct StencilFactory;

impl SpecFamily for StencilFactory {
    fn name(&self) -> &'static str {
        "stencil"
    }
    fn doc(&self) -> &'static str {
        "iterative 1D three-point stencil (registered by custom_workload example)"
    }
    fn params(&self) -> &'static [ParamSpec] {
        use pdfws::prelude::ParamKind;
        &[
            ParamSpec {
                key: "points",
                kind: ParamKind::U64,
                doc: "field points (default 4096)",
            },
            ParamSpec {
                key: "iters",
                kind: ParamKind::U64,
                doc: "stencil sweeps (default 2)",
            },
            ParamSpec {
                key: "grain",
                kind: ParamKind::U64,
                doc: "points per task (default 256)",
            },
        ]
    }
}

impl WorkloadFactory for StencilFactory {
    fn build(&self, spec: &WorkloadSpec) -> Box<dyn Workload> {
        Box::new(Stencil {
            points: spec.u64_param("points").unwrap_or(4096),
            iters: spec.u64_param("iters").unwrap_or(2),
            grain: spec.u64_param("grain").unwrap_or(256),
        })
    }
}

// ---------------------------------------------------------------------------

fn main() {
    WorkloadRegistry::global().register(Arc::new(StencilFactory));

    // The registry now knows the workload...
    println!(
        "registered workloads:\n{}",
        WorkloadRegistry::global().help()
    );

    // ...and its name parses like any built-in spec, with typed errors:
    let err = "stencil:points=many".parse::<WorkloadSpec>().unwrap_err();
    println!("typed parameters come for free: {err}\n");

    let grid = SweepGrid::new()
        .workload_str("stencil:points=16384,iters=4")
        .expect("the stencil spec parses")
        .cores(&[8])
        .specs(&SchedulerSpec::paper_pair());
    let sweep = SweepRunner::from_env()
        .run(&grid)
        .expect("the 8-core default configuration exists");
    let report = &sweep.reports()[0];

    println!("{} on 8 cores, pdf vs ws:\n", report.workload);
    println!(
        "{:<6} {:>12} {:>18} {:>10}",
        "sched", "cycles", "L2 miss/1k instr", "speedup"
    );
    for run in report.runs() {
        println!(
            "{:<6} {:>12} {:>18.3} {:>10.2}",
            run.metrics.scheduler,
            run.metrics.cycles,
            run.metrics.l2_mpki(),
            report.speedup(run),
        );
    }

    // The spec round-trips through the instance that ran.
    let again: WorkloadSpec = report.workload.parse().expect("report spec re-parses");
    assert_eq!(again.canonical(), report.workload);
}
