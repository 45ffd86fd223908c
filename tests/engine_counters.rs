//! Pins the engine's event-loop counters on the Figure-1 merge sort at test
//! size.  The counters describe host-side work (steps, steps that issue no
//! reference, queue pops), so they live outside `SimResult` and no golden or
//! `--json` output carries them; this test is where a change to the event
//! loop's shape shows up.  Attaching a trace sink must not move them.

use pdfws::prelude::*;
use pdfws::schedulers::{make_policy, EngineCounters, SimEngine};
use pdfws::trace::NullSink;
use pdfws_cmp_model::default_config;

fn counters(scheduler: &str, traced: bool) -> (EngineCounters, SimResult) {
    let spec: WorkloadSpec = "mergesort:grain=2048,n=65536".parse().unwrap();
    let instance = WorkloadInstance::from_spec(&spec);
    let config = default_config(8).unwrap();
    let scheduler: SchedulerSpec = scheduler.parse().unwrap();
    let mut engine = SimEngine::with_shared_dag(
        instance.dag.clone(),
        &config,
        make_policy(&scheduler, config.cores),
        SimOptions::default(),
    );
    if traced {
        engine.set_trace_sink(Box::new(NullSink));
    }
    assert_eq!(engine.counters(), EngineCounters::default());
    let result = engine.run();
    (engine.counters(), result)
}

#[test]
fn event_loop_counters_are_pinned_on_the_test_size_merge_sort() {
    for (scheduler, steps, empty_steps, queue_pops) in
        [("pdf", 139_601, 60_823, 94), ("ws", 160_301, 75_652, 94)]
    {
        for traced in [false, true] {
            let (c, result) = counters(scheduler, traced);
            // Every task ends with one completion pop, and no wakes are armed
            // under free stealing.
            assert_eq!(c.queue_pops, result.tasks as u64, "{scheduler}");
            assert!(c.empty_steps <= c.steps, "{scheduler}");
            assert_eq!(
                (c.steps, c.empty_steps, c.queue_pops),
                (steps, empty_steps, queue_pops),
                "{scheduler} traced={traced}"
            );
        }
    }
}
