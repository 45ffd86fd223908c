//! Trace-driven CMP cache-hierarchy simulator.
//!
//! The paper's evaluation platform is a simulated chip multiprocessor with
//! *fixed-size private L1 caches* and a *shared L2 cache* on chip; every reported
//! metric (L2 misses per 1000 instructions, off-chip traffic, speedup) is a
//! function of how the schedulers interleave the program's memory references on
//! that hierarchy.  This crate provides that hierarchy:
//!
//! * [`cache::Cache`] — one set-associative cache level with LRU replacement,
//!   write-back/write-allocate behaviour and full hit/miss/eviction statistics.
//! * [`hierarchy::CmpCacheHierarchy`] — per-core private L1s in front of one shared,
//!   inclusive L2 with a directory of L1 sharers (a core mask per L2 slot),
//!   MSI-style invalidations and back-invalidation on L2 eviction.
//! * [`power::estimate_energy`] / [`power::EnergyModel`] — the leakage/dynamic
//!   energy model behind the paper's "PDF's smaller working sets provide
//!   opportunities to power down segments of the cache" finding (the powered
//!   L2 fractions themselves come from `pdfws_cmp_model::sweep::sweep_l2_fraction`).
//!
//! The simulator is deterministic, single-threaded, and driven one access at a
//! time by the execution engine in `pdfws-schedulers`.
//!
//! # Example
//!
//! ```
//! use pdfws_cache_sim::hierarchy::CmpCacheHierarchy;
//! use pdfws_cmp_model::default_config;
//!
//! let cfg = default_config(4).unwrap();
//! let mut hier = CmpCacheHierarchy::new(&cfg);
//! // Core 0 touches a block: cold miss all the way to memory.
//! let first = hier.access(0, 0x1000, false);
//! assert!(first.is_offchip());
//! // Core 1 touches the same block: it is now in the shared L2.
//! let second = hier.access(1, 0x1000, false);
//! assert!(second.hit_in_l2());
//! ```

pub mod addr;
pub mod cache;
pub mod hierarchy;
pub mod power;
pub mod stats;

pub use addr::{Addr, BlockAddr};
pub use cache::{AccessKind, Cache, CacheAccessResult};
pub use hierarchy::{AccessOutcome, CmpCacheHierarchy, Level};
pub use stats::{CacheStats, HierarchyStats};
