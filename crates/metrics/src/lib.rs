//! Metrics, series and table reporting for the scheduler/cache experiments.
//!
//! Every number the paper reports is one of a handful of derived quantities:
//! L2 misses per 1000 instructions, speedup over the one-core sequential run,
//! relative speedup of PDF over WS, and percentage reduction in off-chip traffic.
//! This crate computes them ([`measures`]) and renders sweep results as aligned
//! text tables and CSV ([`table`]) so that every experiment binary prints its
//! figure/table in the same format.

pub mod measures;
pub mod streaming;
pub mod summary;
pub mod table;

pub use measures::{l2_mpki, relative_speedup, speedup, traffic_reduction_percent};
pub use streaming::{P2Quantile, StreamingQuantiles};
pub use summary::{geometric_mean, mean, percentile, Quantiles};
pub use table::{Series, Table};
