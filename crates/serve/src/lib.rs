//! # pdfws-serve — a multi-tenant, SLO-aware serving tier
//!
//! The stream layer (`pdfws-stream`) answers "what happens when a *batch* of
//! jobs flows through one machine"; this crate scales that question up to a
//! *service*: heavy-tailed open-loop traffic from several tenants, each with
//! its own fair-share weight, workload mix, and p99 sojourn objective,
//! served for millions of jobs in constant memory.
//!
//! Four pieces compose the tier:
//!
//! * [`ArrivalSpec`] — the workspace's **fourth** string-addressable axis
//!   (after schedulers, workloads and memory systems): an
//!   extensible registry of arrival processes, defined in `pdfws-stream`
//!   (the stream backend consumes the same specs) and re-exported here.
//!   `poisson:rate=40` and `uniform:gap=25000` are the classic open loops;
//!   `pareto:alpha=1.5,rate=40` draws heavy-tailed inter-arrival gaps;
//!   `burst:period=400000,duty=0.25,hi=160,lo=10` and
//!   `diurnal:period=2000000,mean=40,amp=0.8` modulate a Poisson process by
//!   exact thinning.  All generators are deterministic in the seed.
//! * [`TenantSpec`] — who submits traffic: a `+`-joined list of
//!   `name:weight=..,slo=..,p99=..,mix=..` tenants ([`parse_tenants`]).
//! * [`AutoscalePolicy`] / [`Autoscaler`] — a hysteresis controller stepping
//!   the machine along a ladder of core levels as load moves.
//! * [`run_serve`] — the serving loop itself: engine-calibrated service
//!   times replayed under fluid processor sharing, with deficit-round-robin
//!   dispatch across tenants and an EWMA-corrected admission estimator that
//!   sheds jobs predicted to violate their tenant's SLO (see the
//!   [`server`] module docs for the model and its deliberate limits).
//!
//! Every per-job statistic folds into `pdfws-metrics` streaming estimators
//! (P² quantiles), so a 10⁷-job day costs the same memory as a 10²-job
//! smoke test.

pub mod autoscale;
pub mod server;
pub mod tenant;

pub use autoscale::{AutoscalePolicy, Autoscaler};
pub use pdfws_stream::{ArrivalDomain, ArrivalFactory, ArrivalGen, ArrivalRegistry, ArrivalSpec};
pub use server::{
    run_serve, run_serve_traced, validate_serve_cfg, ServeConfig, ServeError, ServeReport,
    TenantReport,
};
pub use tenant::{parse_tenants, TenantSpec, DEFAULT_BATCH_P99_CYCLES, DEFAULT_LATENCY_P99_CYCLES};
