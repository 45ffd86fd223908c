//! The latency/throughput metrics: per-job records, stream summaries, and
//! the JSONL record serialization.
//!
//! Every [`JobRecord`] carries the full [`SchedulerSpec`] that served it *and*
//! the full [`WorkloadSpec`] it was instantiated from (not just short names),
//! so records from two differently parameterized instances of the same policy
//! or program — say `ws:steal=one` vs `ws:steal=half`, or `spmv:rows=256` vs
//! `spmv:rows=1024` — stay distinguishable after they are written out.
//! [`StreamOutcome::to_jsonl`] writes records as one JSON object per line;
//! both specs travel as their canonical strings, which parse back to
//! identical values.  (The vendored `serde` is a no-op marker stand-in — see
//! `vendor/serde` — so the writer here is hand-rolled over the same canonical
//! forms the serde derives would use.)

use pdfws_metrics::Quantiles;
use pdfws_schedulers::SchedulerSpec;
use pdfws_workloads::{WorkloadClass, WorkloadSpec};

/// Everything measured about one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// The job's stream-unique id.
    pub id: u64,
    /// Tenant the job belonged to.
    pub tenant: u32,
    /// SLO class label the job was submitted under (`"none"` outside the
    /// serving tier).
    pub slo_class: String,
    /// Full spec of the workload this job was instantiated from.
    pub workload: WorkloadSpec,
    /// Application class.
    pub class: WorkloadClass,
    /// Full spec of the scheduler that served this job.
    pub scheduler: SchedulerSpec,
    /// Cycle the job entered the system.
    pub arrival_cycle: u64,
    /// Cycle the job was admitted to a slot.
    pub admit_cycle: u64,
    /// Cycle the job first ran on the machine (its first quantum grant).
    /// Equals `admit_cycle` when the supervisor dispatched it immediately.
    pub dispatch_cycle: u64,
    /// Cycle the job's last task finished (global clock).
    pub completion_cycle: u64,
    /// Cycles the job sat in the admission queue (`admit - arrival`).
    pub queue_cycles: u64,
    /// End-to-end latency (`completion - arrival`) — the SLO quantity.
    pub sojourn_cycles: u64,
    /// Cycles of machine time the job consumed (its engine's private clock).
    pub service_cycles: u64,
    /// Instructions the job executed.
    pub instructions: u64,
    /// The job's own L2 misses per 1000 instructions.
    pub l2_mpki: f64,
}

impl JobRecord {
    /// Serialize as one JSON object (one JSONL line, no trailing newline).
    ///
    /// The lifecycle timestamps additionally travel under the dashboard-style
    /// aliases `t_admit` / `t_dispatch` / `t_complete` (`t_admit` =
    /// `admit_cycle`, `t_complete` = `completion_cycle`; `t_dispatch` is the
    /// only serialized form of `dispatch_cycle`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"tenant\":{},\"slo_class\":{},\"workload\":{},\"class\":{},\"scheduler\":{},\
             \"arrival_cycle\":{},\"admit_cycle\":{},\"completion_cycle\":{},\
             \"queue_cycles\":{},\"sojourn_cycles\":{},\"service_cycles\":{},\
             \"instructions\":{},\"l2_mpki\":{:?},\
             \"t_admit\":{},\"t_dispatch\":{},\"t_complete\":{}}}",
            self.id,
            self.tenant,
            json_string(&self.slo_class),
            json_string(&self.workload.to_string()),
            json_string(&self.class.to_string()),
            json_string(&self.scheduler.to_string()),
            self.arrival_cycle,
            self.admit_cycle,
            self.completion_cycle,
            self.queue_cycles,
            self.sojourn_cycles,
            self.service_cycles,
            self.instructions,
            self.l2_mpki,
            self.admit_cycle,
            self.dispatch_cycle,
            self.completion_cycle,
        )
    }
}

/// Escape and quote a string for JSON.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The full result of driving one job stream through one scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// Scheduler spec that served the stream.
    pub scheduler: SchedulerSpec,
    /// Cores of the simulated machine.
    pub cores: usize,
    /// Per-job records, in completion order.
    pub records: Vec<JobRecord>,
    /// Largest number of jobs ever co-resident (admitted, not yet complete).
    pub peak_concurrency: usize,
    /// Global cycle at which the last job completed.
    pub makespan_cycles: u64,
}

/// The aggregate numbers a serving dashboard would show for one stream run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSummary {
    /// Jobs served.
    pub jobs: usize,
    /// Sojourn-time (end-to-end latency) quantiles, in cycles.
    pub sojourn: Quantiles,
    /// Queueing-delay quantiles, in cycles.
    pub queue: Quantiles,
    /// Achieved throughput in jobs per million cycles of wall-clock.
    pub jobs_per_mcycle: f64,
    /// Mean of the per-job L2 MPKI values.
    pub mean_l2_mpki: f64,
    /// Global makespan in cycles.
    pub makespan_cycles: u64,
    /// Largest observed co-residency.
    pub peak_concurrency: usize,
}

impl StreamOutcome {
    /// Summarise the run.
    pub fn summary(&self) -> StreamSummary {
        let sojourns: Vec<f64> = self
            .records
            .iter()
            .map(|r| r.sojourn_cycles as f64)
            .collect();
        let queues: Vec<f64> = self.records.iter().map(|r| r.queue_cycles as f64).collect();
        let mpki: Vec<f64> = self.records.iter().map(|r| r.l2_mpki).collect();
        let jobs_per_mcycle = if self.makespan_cycles == 0 {
            0.0
        } else {
            self.records.len() as f64 * 1.0e6 / self.makespan_cycles as f64
        };
        StreamSummary {
            jobs: self.records.len(),
            sojourn: Quantiles::from_values(&sojourns),
            queue: Quantiles::from_values(&queues),
            jobs_per_mcycle,
            mean_l2_mpki: pdfws_metrics::mean(&mpki),
            makespan_cycles: self.makespan_cycles,
            peak_concurrency: self.peak_concurrency,
        }
    }

    /// Serialize every record as JSONL (one JSON object per line), each
    /// carrying the full scheduler spec string.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, sojourn: u64, queue: u64) -> JobRecord {
        JobRecord {
            id,
            tenant: 0,
            slo_class: "none".to_string(),
            workload: "compute-kernel".parse().unwrap(),
            class: WorkloadClass::ComputeBound,
            scheduler: SchedulerSpec::pdf(),
            arrival_cycle: 0,
            admit_cycle: queue,
            dispatch_cycle: queue,
            completion_cycle: sojourn,
            queue_cycles: queue,
            sojourn_cycles: sojourn,
            service_cycles: sojourn - queue,
            instructions: 1_000,
            l2_mpki: 0.5,
        }
    }

    fn outcome(sojourns: &[u64]) -> StreamOutcome {
        StreamOutcome {
            scheduler: SchedulerSpec::pdf(),
            cores: 4,
            records: sojourns
                .iter()
                .enumerate()
                .map(|(i, &s)| record(i as u64, s, s / 10))
                .collect(),
            peak_concurrency: 2,
            makespan_cycles: 1_000_000,
        }
    }

    #[test]
    fn summary_computes_quantiles_and_throughput() {
        let o = outcome(&[100, 200, 300, 400]);
        let s = o.summary();
        assert_eq!(s.jobs, 4);
        assert_eq!(s.sojourn.p50, 200.0);
        assert_eq!(s.sojourn.max, 400.0);
        assert!((s.jobs_per_mcycle - 4.0).abs() < 1e-9);
        assert_eq!(s.peak_concurrency, 2);
    }

    #[test]
    fn json_round_trips_a_record_exactly() {
        let mut r = record(3, 12_345, 678);
        r.workload = "mergesort:n=4096,grain=64".parse().unwrap();
        r.scheduler = "ws:victim=random,seed=7".parse().unwrap();
        r.l2_mpki = 0.123456789;
        // Both specs travel canonically and the f64 in its shortest
        // round-trip form, so the line parses back to an identical record.
        assert_eq!(
            r.to_json(),
            "{\"id\":3,\"tenant\":0,\"slo_class\":\"none\",\
             \"workload\":\"mergesort:grain=64,n=4096\",\"class\":\"compute-bound\",\
             \"scheduler\":\"ws:seed=7,victim=random\",\"arrival_cycle\":0,\
             \"admit_cycle\":678,\"completion_cycle\":12345,\"queue_cycles\":678,\
             \"sojourn_cycles\":12345,\"service_cycles\":11667,\"instructions\":1000,\
             \"l2_mpki\":0.123456789,\"t_admit\":678,\"t_dispatch\":678,\"t_complete\":12345}"
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        // Ad-hoc workload names can contain anything; serialization must
        // escape them.
        let mut r = record(0, 10, 1);
        r.workload = pdfws_workloads::WorkloadSpec::unregistered("merge \"sort\"\n");
        let line = r.to_json();
        assert!(
            line.contains("\"workload\":\"merge \\\"sort\\\"\\n\""),
            "{line}"
        );
    }

    #[test]
    fn lifecycle_timestamps_travel_as_t_aliases() {
        let mut r = record(5, 10_000, 100);
        r.dispatch_cycle = 250;
        r.slo_class = "latency".to_string();
        assert_eq!(
            r.to_json(),
            "{\"id\":5,\"tenant\":0,\"slo_class\":\"latency\",\
             \"workload\":\"compute-kernel\",\"class\":\"compute-bound\",\
             \"scheduler\":\"pdf\",\"arrival_cycle\":0,\"admit_cycle\":100,\
             \"completion_cycle\":10000,\"queue_cycles\":100,\"sojourn_cycles\":10000,\
             \"service_cycles\":9900,\"instructions\":1000,\"l2_mpki\":0.5,\
             \"t_admit\":100,\"t_dispatch\":250,\"t_complete\":10000}"
        );
    }

    #[test]
    fn u64_fields_above_2_pow_53_survive_the_round_trip() {
        // Integers are written digit for digit, never through an f64.
        let mut r = record(0, 10, 1);
        r.instructions = u64::MAX - 1;
        r.completion_cycle = (1u64 << 53) + 1;
        assert_eq!(
            r.to_json(),
            "{\"id\":0,\"tenant\":0,\"slo_class\":\"none\",\
             \"workload\":\"compute-kernel\",\"class\":\"compute-bound\",\
             \"scheduler\":\"pdf\",\"arrival_cycle\":0,\"admit_cycle\":1,\
             \"completion_cycle\":9007199254740993,\"queue_cycles\":1,\"sojourn_cycles\":10,\
             \"service_cycles\":9,\"instructions\":18446744073709551614,\"l2_mpki\":0.5,\
             \"t_admit\":1,\"t_dispatch\":1,\"t_complete\":9007199254740993}"
        );
    }
}
