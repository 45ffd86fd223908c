//! `pdfws-trace` — structured event tracing for the PDF-vs-WS simulators.
//!
//! End-of-run aggregates (total misses, total migrations, sojourn quantiles)
//! say *how much*; they never say *when*.  This crate adds the time axis: a
//! small vocabulary of typed [`TraceEvent`]s (task start/complete per core,
//! steal attempt/success with victim, migration, the hybrid PDF→WS switch,
//! windowed cache-miss counters, core idle/busy transitions, stream job
//! admit/dispatch/complete), sinks to collect them, and two consumers:
//!
//! * [`perfetto::chrome_trace_json`] — a deterministic Chrome trace-event /
//!   Perfetto JSON exporter, so any experiment cell opens in
//!   `ui.perfetto.dev` with one track per core, instant markers for steals,
//!   and counter tracks for ready depth and cache misses;
//! * [`timeline::timeline_table`] — a binned summary (idle fraction, steal
//!   rate, ready depth over time) as a metrics `Table` for the existing
//!   `Figure`/`ArtifactSet` pipeline.
//!
//! Producers (the simulation engine, the stream and serve loops) keep their
//! sink in an `Option` and emit nothing when it is `None`; the off-mode
//! cost is one branch per emit site, guarded by the
//! `trace_overhead` bench.  Scheduler policies buffer [`PolicyEvent`]s via
//! default-no-op trait hooks and the engine stamps them with simulation time
//! as it drains, so custom policies keep compiling untouched.
//!
//! This crate sits in the substrate layer: it depends only on
//! `pdfws-metrics` (for the timeline `Table`) so every higher tier —
//! schedulers, stream, core, bench, report — can emit into it without
//! dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod perfetto;
pub mod sink;
pub mod timeline;

pub use event::{PolicyEvent, TraceEvent, TraceTime};
pub use perfetto::{chrome_trace_json, TraceTrack};
pub use sink::{EventTrace, NullSink, SharedTrace, TraceSink};
pub use timeline::timeline_table;
