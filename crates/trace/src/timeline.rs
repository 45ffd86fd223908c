//! Time-binned summaries of a trace: idle fraction, steal rate, ready depth,
//! and cache misses over time, as a metrics [`Table`].
//!
//! Where the Perfetto export preserves every event for interactive viewing,
//! the timeline collapses the same stream into a fixed number of bins so it
//! can ride the existing `Figure`/`ArtifactSet` pipeline (CSV, markdown,
//! ASCII charts) — and so the planned adaptive hybrid has a ready-made
//! windowed signal (ready-depth / steal-rate over time) to consume.

use crate::event::TraceEvent;
use pdfws_metrics::{Series, Table};

/// Bin `events` over the run's duration into `bins` rows.
///
/// Columns (one [`Series`] each):
///
/// * `busy_frac` — fraction of core-time spent running tasks in the bin
///   (1.0 − idle fraction), from `TaskStart`/`TaskComplete` intervals;
/// * `steals` / `steal_attempts` — successful and attempted steals per bin;
/// * `migrations` — cross-core placements per bin;
/// * `ready_depth` — mean of the ready-queue samples in the bin (the last
///   observed sample carries forward through empty bins);
/// * `l2_misses` — shared-L2 misses from `CacheWindow` samples per bin;
/// * `bus_occupancy` — cycles the shared bus spent occupied per bin, from
///   `BusOccupancy` samples;
/// * `dram_queue_depth` — mean over the bin's `DramQueueDepth` samples of
///   the DRAM queue cycles each sample window accrued (the last observed
///   mean carries forward through empty bins).
///
/// The x-axis is the bin's end timestamp in cycles.  An empty event slice
/// yields an all-zero table (the bins still exist).
pub fn timeline_table(title: &str, events: &[TraceEvent], cores: usize, bins: usize) -> Table {
    let bins = bins.max(1);
    let cores = cores.max(1);
    let makespan = events
        .iter()
        .map(TraceEvent::time)
        .max()
        .unwrap_or(0)
        .max(1);
    let width = makespan.div_ceil(bins as u64).max(1);
    let bin_of = |t: u64| ((t / width) as usize).min(bins - 1);

    let mut busy = vec![0.0f64; bins];
    let mut steals = vec![0.0f64; bins];
    let mut attempts = vec![0.0f64; bins];
    let mut migrations = vec![0.0f64; bins];
    let mut l2 = vec![0.0f64; bins];
    let mut bus_busy = vec![0.0f64; bins];
    let mut depth_sum = vec![0.0f64; bins];
    let mut depth_n = vec![0u64; bins];
    let mut dram_sum = vec![0.0f64; bins];
    let mut dram_n = vec![0u64; bins];

    // Per-core currently-open task start time; tasks still open at the end of
    // the trace are treated as running through the makespan.
    let mut open: Vec<Option<u64>> = vec![None; cores];
    let add_interval = |from: u64, to: u64, busy: &mut Vec<f64>| {
        let (from, to) = (from.min(to), to.min(makespan));
        if from >= to {
            return;
        }
        for (i, b) in busy.iter_mut().enumerate() {
            let lo = i as u64 * width;
            let hi = lo + width;
            let overlap = to.min(hi).saturating_sub(from.max(lo));
            *b += overlap as f64;
        }
    };

    for event in events {
        match *event {
            TraceEvent::TaskStart { t, core, .. } if core < cores => {
                open[core] = Some(t);
            }
            TraceEvent::TaskComplete { t, core, .. } => {
                if let Some(start) = open.get_mut(core).and_then(Option::take) {
                    add_interval(start, t, &mut busy);
                }
            }
            TraceEvent::Steal { t, .. } => steals[bin_of(t)] += 1.0,
            TraceEvent::StealAttempt { t, .. } => attempts[bin_of(t)] += 1.0,
            TraceEvent::Migration { t, .. } => migrations[bin_of(t)] += 1.0,
            TraceEvent::ReadyDepth { t, depth } => {
                let b = bin_of(t);
                depth_sum[b] += depth as f64;
                depth_n[b] += 1;
            }
            TraceEvent::CacheWindow { t, l2_misses, .. } => l2[bin_of(t)] += l2_misses as f64,
            TraceEvent::BusOccupancy { t, busy_cycles } => {
                bus_busy[bin_of(t)] += busy_cycles as f64;
            }
            TraceEvent::DramQueueDepth { t, depth } => {
                let b = bin_of(t);
                dram_sum[b] += depth as f64;
                dram_n[b] += 1;
            }
            _ => {}
        }
    }
    for slot in &open {
        if let Some(start) = *slot {
            add_interval(start, makespan, &mut busy);
        }
    }

    let core_time = (cores as u64 * width) as f64;
    let busy_frac: Vec<f64> = busy.iter().map(|b| b / core_time).collect();
    let mean_with_carry = |sums: &[f64], counts: &[u64]| {
        let mut out = Vec::with_capacity(bins);
        let mut carry = 0.0f64;
        for b in 0..bins {
            if counts[b] > 0 {
                carry = sums[b] / counts[b] as f64;
            }
            out.push(carry);
        }
        out
    };
    let ready = mean_with_carry(&depth_sum, &depth_n);
    let dram_depth = mean_with_carry(&dram_sum, &dram_n);

    let x_values: Vec<String> = (0..bins)
        .map(|i| (((i as u64) + 1) * width).min(makespan).to_string())
        .collect();
    let mut table = Table::new(title, "cycle", x_values);
    table.push_series(Series::new("busy_frac", busy_frac));
    table.push_series(Series::new("steals", steals));
    table.push_series(Series::new("steal_attempts", attempts));
    table.push_series(Series::new("migrations", migrations));
    table.push_series(Series::new("ready_depth", ready));
    table.push_series(Series::new("l2_misses", l2));
    table.push_series(Series::new("bus_occupancy", bus_busy));
    table.push_series(Series::new("dram_queue_depth", dram_depth));
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_events_yield_a_zeroed_table() {
        let table = timeline_table("empty", &[], 2, 4);
        assert_eq!(table.x_values.len(), 4);
        for series in &table.series {
            assert!(series.values.iter().all(|v| *v == 0.0), "{}", series.name);
        }
    }

    #[test]
    fn busy_fraction_reflects_task_intervals() {
        // One core, busy for [0, 50) of a 100-cycle run summarized in 2 bins:
        // first bin fully busy, second fully idle.
        let events = vec![
            TraceEvent::TaskStart {
                t: 0,
                core: 0,
                task: 0,
            },
            TraceEvent::TaskComplete {
                t: 50,
                core: 0,
                task: 0,
            },
            TraceEvent::ReadyDepth { t: 100, depth: 0 },
        ];
        let table = timeline_table("busy", &events, 1, 2);
        let busy = &table.series[0];
        assert_eq!(busy.name, "busy_frac");
        assert!((busy.values[0] - 1.0).abs() < 1e-9, "{:?}", busy.values);
        assert!(busy.values[1].abs() < 1e-9, "{:?}", busy.values);
    }

    #[test]
    fn steals_and_misses_land_in_their_bins() {
        let events = vec![
            TraceEvent::Steal {
                t: 10,
                core: 1,
                victim: 0,
                task: 1,
                tasks: 1,
                cost: 0,
            },
            TraceEvent::StealAttempt { t: 10, core: 1 },
            TraceEvent::Migration {
                t: 60,
                core: 0,
                home: 1,
                task: 2,
            },
            TraceEvent::CacheWindow {
                t: 90,
                accesses: 100,
                l1_misses: 10,
                l2_misses: 4,
            },
            TraceEvent::ReadyDepth { t: 99, depth: 8 },
        ];
        let table = timeline_table("bins", &events, 2, 2);
        let series = |name: &str| {
            table
                .series
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing series {name}"))
                .values
                .clone()
        };
        assert_eq!(series("steals"), vec![1.0, 0.0]);
        assert_eq!(series("steal_attempts"), vec![1.0, 0.0]);
        assert_eq!(series("migrations"), vec![0.0, 1.0]);
        assert_eq!(series("l2_misses"), vec![0.0, 4.0]);
        assert_eq!(series("ready_depth"), vec![0.0, 8.0]);
    }

    #[test]
    fn memsys_counters_bin_and_carry() {
        let events = vec![
            TraceEvent::BusOccupancy {
                t: 10,
                busy_cycles: 30,
            },
            TraceEvent::BusOccupancy {
                t: 20,
                busy_cycles: 12,
            },
            TraceEvent::DramQueueDepth { t: 15, depth: 100 },
            TraceEvent::ReadyDepth { t: 99, depth: 0 },
        ];
        let table = timeline_table("memsys", &events, 2, 2);
        let series = |name: &str| {
            table
                .series
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing series {name}"))
                .values
                .clone()
        };
        // Both occupancy samples land in the first bin; the DRAM sample
        // carries its mean into the empty second bin.
        assert_eq!(series("bus_occupancy"), vec![42.0, 0.0]);
        assert_eq!(series("dram_queue_depth"), vec![100.0, 100.0]);
    }

    #[test]
    fn ready_depth_carries_forward_through_empty_bins() {
        let events = vec![
            TraceEvent::ReadyDepth { t: 0, depth: 6 },
            TraceEvent::ReadyDepth { t: 1, depth: 2 },
            // Nothing after cycle 1; later bins inherit the mean of bin 0.
            TraceEvent::CacheWindow {
                t: 400,
                accesses: 0,
                l1_misses: 0,
                l2_misses: 0,
            },
        ];
        let table = timeline_table("carry", &events, 1, 4);
        let ready = table
            .series
            .iter()
            .find(|s| s.name == "ready_depth")
            .unwrap();
        assert_eq!(ready.values, vec![4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn open_tasks_count_as_busy_until_the_end() {
        let events = vec![
            TraceEvent::TaskStart {
                t: 0,
                core: 0,
                task: 0,
            },
            TraceEvent::ReadyDepth { t: 80, depth: 0 },
        ];
        let table = timeline_table("open", &events, 1, 2);
        let busy = &table.series[0].values;
        assert!(busy.iter().all(|v| *v > 0.99), "{busy:?}");
    }
}
