//! The latency/throughput metrics: per-job records, stream summaries, and
//! the JSONL record serialization.
//!
//! Every [`JobRecord`] carries the full [`SchedulerSpec`] that served it *and*
//! the full [`WorkloadSpec`] it was instantiated from (not just short names),
//! so records from two differently parameterized instances of the same policy
//! or program — say `ws:steal=one` vs `ws:steal=half`, or `spmv:rows=256` vs
//! `spmv:rows=1024` — stay distinguishable after they are written out.
//! [`StreamOutcome::to_jsonl`] and [`records_from_jsonl`] round-trip records
//! through one JSON object per line; both specs travel as their canonical
//! strings and parse back to identical values.  (The vendored `serde` is a
//! no-op marker stand-in — see `vendor/serde` — so the JSON layer here is
//! hand-rolled over the same canonical forms the serde derives would use.)

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

    /// Parse one record back from its [`JobRecord::to_json`] form.
    pub fn from_json(line: &str) -> Result<JobRecord, String> {
        let fields = parse_json_object(line)?;
        let get = |key: &str| -> Result<&JsonValue, String> {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("job record is missing field '{key}'"))
        };
        let scheduler: SchedulerSpec = get("scheduler")?
            .as_str()?
            .parse()
            .map_err(|e| format!("bad scheduler spec in record: {e}"))?;
        let workload: WorkloadSpec = get("workload")?
            .as_str()?
            .parse()
            .map_err(|e| format!("bad workload spec in record: {e}"))?;
        let class: WorkloadClass = get("class")?.as_str()?.parse()?;
        // Absent in records written before the serving tier existed; those
        // streams predate SLO classes, so default rather than reject.
        let slo_class = match get("slo_class") {
            Ok(v) => v.as_str()?.to_string(),
            Err(_) => "none".to_string(),
        };
        Ok(JobRecord {
            id: get("id")?.as_u64()?,
            tenant: get("tenant")?.as_u64()? as u32,
            slo_class,
            workload,
            class,
            scheduler,
            arrival_cycle: get("arrival_cycle")?.as_u64()?,
            admit_cycle: get("admit_cycle")?.as_u64()?,
            dispatch_cycle: get("t_dispatch")?.as_u64()?,
            completion_cycle: get("completion_cycle")?.as_u64()?,
            queue_cycles: get("queue_cycles")?.as_u64()?,
            sojourn_cycles: get("sojourn_cycles")?.as_u64()?,
            service_cycles: get("service_cycles")?.as_u64()?,
            instructions: get("instructions")?.as_u64()?,
            l2_mpki: get("l2_mpki")?.as_f64()?,
        })
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

/// The subset of JSON values job records use.  Integer tokens keep full u64
/// precision (routing them through f64 would silently round values >= 2^53).
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    String(String),
    Unsigned(u64),
    Number(f64),
}

impl JsonValue {
    fn as_str(&self) -> Result<&str, String> {
        match self {
            JsonValue::String(s) => Ok(s),
            other => Err(format!("expected a string, got {other:?}")),
        }
    }

    fn as_u64(&self) -> Result<u64, String> {
        match self {
            JsonValue::Unsigned(n) => Ok(*n),
            other => Err(format!("expected an unsigned integer, got {other:?}")),
        }
    }

    fn as_f64(&self) -> Result<f64, String> {
        match self {
            JsonValue::Number(n) => Ok(*n),
            JsonValue::Unsigned(n) => Ok(*n as f64),
            JsonValue::String(s) => Err(format!("expected a number, got string '{s}'")),
        }
    }
}

/// Parse one flat JSON object (`{"key":value,...}`) of strings and numbers.
fn parse_json_object(line: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut chars = line.trim().chars().peekable();
    let mut fields = Vec::new();
    if chars.next() != Some('{') {
        return Err("job record must be a JSON object".to_string());
    }
    loop {
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some(',') | Some(' ') => {
                chars.next();
            }
            Some('"') => {
                let key = parse_string(&mut chars)?;
                if chars.next() != Some(':') {
                    return Err(format!("expected ':' after key '{key}'"));
                }
                let value = match chars.peek() {
                    Some('"') => JsonValue::String(parse_string(&mut chars)?),
                    Some(_) => {
                        let mut num = String::new();
                        while let Some(&c) = chars.peek() {
                            if c == ',' || c == '}' {
                                break;
                            }
                            num.push(c);
                            chars.next();
                        }
                        match num.trim().parse::<u64>() {
                            Ok(n) => JsonValue::Unsigned(n),
                            Err(_) => JsonValue::Number(
                                num.trim()
                                    .parse::<f64>()
                                    .map_err(|_| format!("bad number '{num}' for key '{key}'"))?,
                            ),
                        }
                    }
                    None => return Err("record ended mid-value".to_string()),
                };
                fields.push((key, value));
            }
            Some(c) => return Err(format!("unexpected character '{c}' in record")),
            None => return Err("record ended before '}'".to_string()),
        }
    }
    Ok(fields)
}

/// Parse a quoted JSON string (cursor on the opening quote).
fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected a string".to_string());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                    out.push(char::from_u32(code).ok_or("invalid unicode escape")?);
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
            None => return Err("unterminated string".to_string()),
        }
    }
}

/// Parse a whole JSONL document of job records (blank lines ignored).
pub fn records_from_jsonl(text: &str) -> Result<Vec<JobRecord>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(JobRecord::from_json)
        .collect()
}

/// The full result of driving one job stream through one scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// Scheduler spec that served the stream.
    pub scheduler: SchedulerSpec,
    /// Cores of the machine (simulated) or worker threads (real).
    pub cores: usize,
    /// Per-job records, in completion order.
    pub records: Vec<JobRecord>,
    /// Job ids in the order the admission layer released them.
    pub admission_order: Vec<u64>,
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

    /// The record for a specific job id, if it completed.
    pub fn record(&self, id: u64) -> Option<&JobRecord> {
        self.records.iter().find(|r| r.id == id)
    }

    /// Fraction of jobs whose sojourn time met `slo_cycles` (an SLO attainment
    /// number in [0, 1]).
    pub fn slo_attainment(&self, slo_cycles: u64) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let met = self
            .records
            .iter()
            .filter(|r| r.sojourn_cycles <= slo_cycles)
            .count();
        met as f64 / self.records.len() as f64
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
            admission_order: (0..sojourns.len() as u64).collect(),
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
    fn slo_attainment_counts_met_jobs() {
        let o = outcome(&[100, 200, 300, 400]);
        assert!((o.slo_attainment(250) - 0.5).abs() < 1e-12);
        assert_eq!(o.slo_attainment(1_000), 1.0);
        assert_eq!(o.slo_attainment(10), 0.0);
    }

    #[test]
    fn record_lookup_finds_by_id() {
        let o = outcome(&[100, 200]);
        assert_eq!(o.record(1).unwrap().sojourn_cycles, 200);
        assert!(o.record(9).is_none());
    }

    #[test]
    fn json_round_trips_a_record_exactly() {
        let mut r = record(3, 12_345, 678);
        r.workload = "mergesort:n=4096,grain=64".parse().unwrap();
        r.scheduler = "ws:victim=random,seed=7".parse().unwrap();
        r.l2_mpki = 0.123456789;
        let line = r.to_json();
        assert!(
            line.contains("\"scheduler\":\"ws:seed=7,victim=random\""),
            "{line}"
        );
        assert!(
            line.contains("\"workload\":\"mergesort:grain=64,n=4096\""),
            "{line}"
        );
        let back = JobRecord::from_json(&line).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn json_strings_are_escaped() {
        // Ad-hoc workload names can contain anything; serialization must
        // escape them even though such records only parse back once the name
        // is registered.
        let mut r = record(0, 10, 1);
        r.workload = pdfws_workloads::WorkloadSpec::unregistered("merge \"sort\"\n");
        let line = r.to_json();
        assert!(
            line.contains("\"workload\":\"merge \\\"sort\\\"\\n\""),
            "{line}"
        );
    }

    #[test]
    fn jsonl_round_trips_whole_outcomes() {
        let mut o = outcome(&[100, 200, 300]);
        for r in &mut o.records {
            r.scheduler = "hybrid:threshold=2".parse().unwrap();
        }
        let text = o.to_jsonl();
        assert_eq!(text.lines().count(), 3);
        let back = records_from_jsonl(&text).unwrap();
        assert_eq!(back, o.records);
    }

    #[test]
    fn lifecycle_timestamps_travel_as_t_aliases() {
        let mut r = record(5, 10_000, 100);
        r.dispatch_cycle = 250;
        let line = r.to_json();
        assert!(line.contains("\"t_admit\":100"), "{line}");
        assert!(line.contains("\"t_dispatch\":250"), "{line}");
        assert!(line.contains("\"t_complete\":10000"), "{line}");
        let back = JobRecord::from_json(&line).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.dispatch_cycle, 250);
    }

    #[test]
    fn slo_class_round_trips_and_defaults_when_absent() {
        let mut r = record(1, 500, 50);
        r.slo_class = "latency".to_string();
        let line = r.to_json();
        assert!(line.contains("\"slo_class\":\"latency\""), "{line}");
        assert_eq!(JobRecord::from_json(&line).unwrap(), r);
        // Pre-serving-tier JSONL has no slo_class field: default, don't reject.
        let legacy = line.replace("\"slo_class\":\"latency\",", "");
        let back = JobRecord::from_json(&legacy).unwrap();
        assert_eq!(back.slo_class, "none");
    }

    #[test]
    fn u64_fields_above_2_pow_53_survive_the_round_trip() {
        let mut r = record(0, 10, 1);
        r.instructions = u64::MAX - 1;
        r.completion_cycle = (1u64 << 53) + 1;
        let back = JobRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back.instructions, u64::MAX - 1);
        assert_eq!(back.completion_cycle, (1u64 << 53) + 1);
    }

    #[test]
    fn malformed_records_are_rejected_with_context() {
        assert!(JobRecord::from_json("not json").is_err());
        let err = JobRecord::from_json("{\"id\":1}").unwrap_err();
        assert!(err.contains("missing field"), "{err}");
        let bad_spec = record(0, 10, 1).to_json().replace("\"pdf\"", "\"bogus\"");
        let err = JobRecord::from_json(&bad_spec).unwrap_err();
        assert!(err.contains("bad scheduler spec"), "{err}");
        assert!(err.contains("unknown scheduler policy"), "{err}");
    }
}
