//! Add your own scheduler in ~30 lines.
//!
//! The scheduler API is open: implement [`SchedulerPolicy`] (five required
//! methods: `name`, `init`, `task_ready`, `next_task`, `ready_count`), name it and declare its parameters ([`SpecFamily`]), wrap it in
//! a [`PolicyFactory`] that builds it, and register it.  From that point `"lifo"` — or
//! `"lifo:your=params"` if you declare any — parses as a [`SchedulerSpec`]
//! everywhere: `SweepGrid`, `StreamExperiment`, stream configs, bench
//! binaries.
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```

use pdfws::prelude::*;
use pdfws::task_dag::{TaskDag, TaskId};
use std::sync::Arc;

// --- The ~30 lines: a global-LIFO scheduler and its factory ----------------

/// Most-recently-enabled task first, from one shared stack: maximally "hot"
/// tasks, no per-core locality at all.  (A strawman — but a *registerable*
/// strawman.)
struct LifoPolicy {
    name: String,
    stack: Vec<TaskId>,
}

impl SchedulerPolicy for LifoPolicy {
    fn name(&self) -> String {
        self.name.clone()
    }
    fn init(&mut self, _dag: &TaskDag) {
        self.stack.clear();
    }
    fn task_ready(&mut self, task: TaskId, _enabling_core: Option<usize>) {
        self.stack.push(task);
    }
    fn next_task(&mut self, _core: usize) -> Option<TaskId> {
        self.stack.pop()
    }
    fn ready_count(&self) -> usize {
        self.stack.len()
    }
}

struct LifoFactory;

impl SpecFamily for LifoFactory {
    fn name(&self) -> &'static str {
        "lifo"
    }
    fn doc(&self) -> &'static str {
        "global LIFO stack: most recently enabled task first"
    }
    fn params(&self) -> &'static [ParamSpec] {
        &[] // declare ParamSpec entries here and read them via spec.param()
    }
}

impl PolicyFactory for LifoFactory {
    fn build(&self, spec: &SchedulerSpec, _cores: usize) -> Box<dyn SchedulerPolicy> {
        Box::new(LifoPolicy {
            name: spec.canonical(),
            stack: Vec::new(),
        })
    }
}

// ---------------------------------------------------------------------------

fn main() {
    Registry::global().register(Arc::new(LifoFactory));

    // The registry now knows the policy...
    println!("registered policies:\n{}", Registry::global().help());

    // ...and the name parses like any built-in spec.
    let lifo: SchedulerSpec = "lifo".parse().expect("registered name parses");
    let grid = SweepGrid::new()
        .workload_str("mergesort:grain=2048,n=65536")
        .expect("a built-in workload spec")
        .cores(&[8])
        .specs(&[SchedulerSpec::pdf(), SchedulerSpec::ws(), lifo.clone()]);
    let sweep = SweepRunner::from_env()
        .run(&grid)
        .expect("the 8-core default configuration exists");
    let report = &sweep.reports()[0];

    println!("parallel merge sort, 8 cores, pdf vs ws vs your policy:\n");
    println!(
        "{:<8} {:>12} {:>18} {:>10}",
        "sched", "cycles", "L2 miss/1k instr", "speedup"
    );
    for run in report.runs() {
        println!(
            "{:<8} {:>12} {:>18.3} {:>10.2}",
            run.metrics.scheduler,
            run.metrics.cycles,
            run.metrics.l2_mpki(),
            report.speedup(run),
        );
    }
}
