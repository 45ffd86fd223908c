//! The DRAM/memory controller: finite data bandwidth, banked access with
//! per-bank busy windows, and open-row hit/miss latencies.
//!
//! Blocks map to 4 KiB rows ([`ROW_BYTES`]); each row lives wholly on one
//! bank, chosen by hashing the row id (the XOR-style bank indexing real
//! controllers use).  A sequential stream therefore streams open-row hits
//! from each row it walks, successive rows land on pseudo-random banks, and
//! concurrent streams — even regularly-strided ones — keep their open rows
//! on (mostly) different banks instead of closing each other's.
//! Servicing a request costs the bank's busy-window wait, then the row access
//! (the open-row *hit* latency if one of the bank's row buffers already holds
//! the row — see [`ROW_BUFFERS_PER_BANK`] — the *miss* latency otherwise),
//! then the shared data resource: one transfer
//! of `ceil(bytes / bandwidth)` cycles that all banks serialize on.  Both
//! waits — bank and data — are accounted as queuing delay, so memory-level
//! parallelism across banks and its collapse under contention are emergent.
//! A miss occupies its bank for the full row cycle; hits occupy it only for
//! their data burst (back-to-back CAS commands to an open row pipeline, the
//! hit latency being pipeline delay rather than bank occupancy).
//!
//! Like the bus, the controller resolves each request as it arrives
//! ([`DramController::service`]); requests reach it in the order the bus
//! granted them.

use crate::transfer::TransferTable;

/// Bytes per DRAM row (row-buffer reach): 4 KiB, the usual page size.
pub const ROW_BYTES: u64 = 4096;

/// The outcome of servicing one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramService {
    /// Cycle the bank began the access.
    pub start: u64,
    /// Cycle the data finished transferring.
    pub done: u64,
    /// Cycles spent waiting (bank busy + data-resource busy).
    pub queue_cycles: u64,
    /// Whether the access hit the bank's open row.
    pub row_hit: bool,
}

/// Row buffers per bank: the controller fronts a dual-rank module, and the
/// same bank index in either rank keeps its own row open, so one modelled
/// bank holds the two most recently used rows.  A pair of streams whose rows
/// hash to the same bank therefore keep *both* rows open instead of closing
/// each other's on every access; it takes three streams to thrash.
pub const ROW_BUFFERS_PER_BANK: usize = 2;

/// Open-row slot of a bank that holds no row yet.  A row is a block number
/// shifted right, and blocks reach the controller from caches whose tags stay
/// below `2^63`, so no real row equals it.
const NO_ROW: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Bank {
    busy_until: u64,
    /// Open rows, most recently used first ([`NO_ROW`] for an empty buffer).
    open_rows: [u64; ROW_BUFFERS_PER_BANK],
}

impl Default for Bank {
    fn default() -> Self {
        Bank {
            busy_until: 0,
            open_rows: [NO_ROW; ROW_BUFFERS_PER_BANK],
        }
    }
}

impl Bank {
    /// Record an access to `row`: true if it hit an open row buffer.  Updates
    /// LRU order, evicting the least recently used row on a miss: the rows
    /// before the hit (every row, on a miss) move back one place and `row`
    /// takes the front.
    #[inline]
    fn touch(&mut self, row: u64) -> bool {
        debug_assert_ne!(row, NO_ROW, "row id collides with the empty marker");
        let hit = self.open_rows.iter().position(|&r| r == row);
        let moved = hit.unwrap_or(ROW_BUFFERS_PER_BANK - 1);
        self.open_rows.copy_within(..moved, 1);
        self.open_rows[0] = row;
        hit.is_some()
    }
}

/// `x % d` for one fixed divisor `d`, without a division: Lemire, Kaser and
/// Kurz, "Faster Remainder by Direct Computation" (2019).  With the 128-bit
/// magic `ceil(2^128 / d)` the remainder is the high 64 bits of
/// `(magic * x mod 2^128) * d`, exact for every 64-bit `x` and every `d >= 1`
/// (for `d = 1` the magic wraps to 0 and so does the remainder).
#[derive(Debug, Clone, Copy)]
struct FastMod {
    magic: u128,
    divisor: u64,
}

impl FastMod {
    fn new(divisor: u64) -> Self {
        assert!(divisor > 0, "the divisor must be positive");
        FastMod {
            magic: (u128::MAX / u128::from(divisor)).wrapping_add(1),
            divisor,
        }
    }

    /// `x % divisor`.
    #[inline]
    fn rem(self, x: u64) -> u64 {
        let low = self.magic.wrapping_mul(u128::from(x));
        let d = u128::from(self.divisor);
        let bottom = (u128::from(low as u64) * d) >> 64;
        let top = (low >> 64) * d;
        ((bottom + top) >> 64) as u64
    }
}

/// The memory controller.
#[derive(Debug)]
pub struct DramController {
    /// Data-transfer cycles per size, from the bandwidth in bytes per core
    /// cycle.
    transfer: TransferTable,
    /// Open-row hit latency in cycles.
    hit_cycles: u64,
    /// Row activate+access latency in cycles.
    miss_cycles: u64,
    /// `log2` of the blocks per row: a block's row is `block >> row_shift`.
    row_shift: u32,
    /// Reduces a row hash to a bank index.
    bank_of_hash: FastMod,
    banks: Vec<Bank>,
    /// Core cycle until which the shared data resource is occupied.
    data_busy_until: u64,
    queue_cycles: u64,
    row_hits: u64,
    row_misses: u64,
}

impl DramController {
    /// A controller with the given data bandwidth (bytes per core cycle),
    /// bank count, open-row hit latency, and row-miss latency, serving lines
    /// of `line_bytes`.  A row holds `ROW_BYTES / line_bytes` blocks, or one
    /// block if lines are at least a row long.
    ///
    /// # Panics
    ///
    /// If the bandwidth is not positive, `banks` is 0, or `line_bytes` is not
    /// a power of two (cache geometry validation guarantees one).
    pub fn new(
        bytes_per_cycle: f64,
        banks: u64,
        hit_cycles: u64,
        miss_cycles: u64,
        line_bytes: u64,
    ) -> Self {
        assert!(
            bytes_per_cycle > 0.0,
            "DRAM bandwidth must be positive (can be infinite)"
        );
        assert!(banks > 0, "at least one bank");
        assert!(
            line_bytes.is_power_of_two(),
            "line size {line_bytes} must be a power of two"
        );
        let blocks_per_row = (ROW_BYTES / line_bytes).max(1);
        DramController {
            transfer: TransferTable::new(bytes_per_cycle),
            hit_cycles,
            miss_cycles: miss_cycles.max(1),
            row_shift: blocks_per_row.trailing_zeros(),
            bank_of_hash: FastMod::new(banks),
            banks: vec![Bank::default(); banks as usize],
            data_busy_until: 0,
            queue_cycles: 0,
            row_hits: 0,
            row_misses: 0,
        }
    }

    /// The row a block lives in.
    #[inline]
    pub fn row_of(&self, block: u64) -> u64 {
        block >> self.row_shift
    }

    /// The bank a block maps to.
    ///
    /// A whole row shares one bank, chosen by hashing the row id, so a
    /// sequential stream collects open-row hits across each row and
    /// concurrent streams keep their rows open on (mostly) distinct banks.
    /// Any low-bit or in-row interleave instead sends every stream across
    /// every bank, and under concurrency each stream's row-miss closes the
    /// rows the others had open — open-row locality collapses exactly when
    /// it matters.  The hash must avalanche: a plain multiplicative hash
    /// advances by a *constant* per row, so concurrent streams walking rows
    /// at the same rate keep a fixed bank offset from each other — a pair
    /// that collides once then collides on every row for the rest of the
    /// run.  The xor-shift-multiply mix makes successive rows' banks
    /// effectively independent, so collisions last one row and move on.
    #[inline]
    pub fn bank_of(&self, block: u64) -> usize {
        self.bank_of_row(self.row_of(block))
    }

    /// The bank `row` lives on (see [`DramController::bank_of`]).
    #[inline]
    fn bank_of_row(&self, row: u64) -> usize {
        let mut z = row.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.bank_of_hash.rem(z ^ (z >> 31)) as usize
    }

    /// Service a request of `bytes` for `block` arriving at `at`.
    pub fn service(&mut self, block: u64, bytes: u64, at: u64) -> DramService {
        let row = self.row_of(block);
        let bank_idx = self.bank_of_row(row);
        let transfer = self.transfer.cycles(bytes);
        let bank = &mut self.banks[bank_idx];
        let row_hit = bank.touch(row);
        let access = if row_hit {
            self.hit_cycles
        } else {
            self.miss_cycles
        };
        if row_hit {
            self.row_hits += 1;
        } else {
            self.row_misses += 1;
        }
        if transfer == 0 {
            // Unbounded pins: a zero-cycle transfer occupies neither the bank
            // nor the data resource, so accesses pipeline freely — the
            // limiting case where only the flat access latency remains.
            return DramService {
                start: at,
                done: at.saturating_add(access),
                queue_cycles: 0,
                row_hit,
            };
        }
        let start = at.max(bank.busy_until);
        let bank_wait = start - at;
        let ready = start.saturating_add(access);
        let data_start = ready.max(self.data_busy_until);
        let data_wait = data_start - ready;
        let done = data_start.saturating_add(transfer);
        self.data_busy_until = done;
        // A row miss holds the bank for the row cycle (tRC: activate, access,
        // restore) — about three quarters of the end-to-end miss latency; the
        // rest is controller and interconnect time the bank does not see.
        // Open-row hits pipeline: successive CAS commands overlap, so the
        // bank frees at the data-burst rate while the hit latency itself is
        // pure pipeline delay experienced only by the requester.
        bank.busy_until = if row_hit {
            start.saturating_add(transfer)
        } else {
            done.min(start.saturating_add(2 * self.miss_cycles / 3 + transfer))
        };
        let queue_cycles = bank_wait + data_wait;
        self.queue_cycles += queue_cycles;
        DramService {
            start,
            done,
            queue_cycles,
            row_hit,
        }
    }

    /// Total queuing delay (bank + data-resource waits) across all services.
    pub fn queue_cycles(&self) -> u64 {
        self.queue_cycles
    }

    /// Open-row hits so far.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Row misses (activations) so far.
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }

    /// Core cycle until which the shared data resource is occupied.
    pub fn data_busy_until(&self) -> u64 {
        self.data_busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The controller's arithmetic as first written — a division for the
    /// row, `%` for the bank, a `Vec` of open rows — kept as the reference
    /// the division-free path must match service for service.
    struct Reference {
        transfer: TransferTable,
        hit_cycles: u64,
        miss_cycles: u64,
        blocks_per_row: u64,
        banks: Vec<(u64, Vec<u64>)>,
        data_busy_until: u64,
        queue_cycles: u64,
        row_hits: u64,
        row_misses: u64,
    }

    impl Reference {
        fn new(bw: f64, banks: u64, hit: u64, miss: u64, line: u64) -> Self {
            Reference {
                transfer: TransferTable::new(bw),
                hit_cycles: hit,
                miss_cycles: miss.max(1),
                blocks_per_row: (ROW_BYTES / line.max(1)).max(1),
                banks: vec![(0, Vec::new()); banks as usize],
                data_busy_until: 0,
                queue_cycles: 0,
                row_hits: 0,
                row_misses: 0,
            }
        }

        fn service(&mut self, block: u64, bytes: u64, at: u64) -> DramService {
            let row = block / self.blocks_per_row;
            let mut z = row.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let bank_idx = ((z ^ (z >> 31)) % self.banks.len() as u64) as usize;
            let transfer = self.transfer.cycles(bytes);
            let (busy_until, open_rows) = &mut self.banks[bank_idx];
            let row_hit = match open_rows.iter().position(|&r| r == row) {
                Some(pos) => {
                    open_rows.remove(pos);
                    open_rows.insert(0, row);
                    true
                }
                None => {
                    open_rows.insert(0, row);
                    open_rows.truncate(ROW_BUFFERS_PER_BANK);
                    false
                }
            };
            let access = if row_hit {
                self.row_hits += 1;
                self.hit_cycles
            } else {
                self.row_misses += 1;
                self.miss_cycles
            };
            if transfer == 0 {
                return DramService {
                    start: at,
                    done: at.saturating_add(access),
                    queue_cycles: 0,
                    row_hit,
                };
            }
            let start = at.max(*busy_until);
            let ready = start.saturating_add(access);
            let data_start = ready.max(self.data_busy_until);
            let done = data_start.saturating_add(transfer);
            self.data_busy_until = done;
            *busy_until = if row_hit {
                start.saturating_add(transfer)
            } else {
                done.min(start.saturating_add(2 * self.miss_cycles / 3 + transfer))
            };
            let queue_cycles = (start - at) + (data_start - ready);
            self.queue_cycles += queue_cycles;
            DramService {
                start,
                done,
                queue_cycles,
                row_hit,
            }
        }
    }

    #[test]
    fn service_matches_the_reference_arithmetic() {
        for banks in [1u64, 3, 16, 4096] {
            for line in [32u64, 64, 128, 8192] {
                for bw in [8.0, 16.0 / 3.0, f64::INFINITY] {
                    let mut rng = StdRng::seed_from_u64(banks * 10_007 + line);
                    let mut fast = DramController::new(bw, banks, 10, 40, line);
                    let mut reference = Reference::new(bw, banks, 10, 40, line);
                    // Streams over a few rows (row hits and bank conflicts),
                    // scattered blocks (row misses) and wide blocks.
                    let mut at = 0u64;
                    let mut stream = 0u64;
                    for i in 0..4_000u64 {
                        at += rng.gen_range(0..60);
                        let block = match i % 4 {
                            0 => rng.gen_range(0..1u64 << 40),
                            1 => rng.gen::<u64>() >> 1,
                            _ => {
                                stream += rng.gen_range(0..3);
                                stream
                            }
                        };
                        let bytes = [line, 2 * line, 1, 700][rng.gen_range(0..4)];
                        assert_eq!(
                            fast.service(block, bytes, at),
                            reference.service(block, bytes, at),
                            "banks {banks}, line {line}, bw {bw}, request {i}"
                        );
                    }
                    assert_eq!(fast.row_hits(), reference.row_hits);
                    assert_eq!(fast.row_misses(), reference.row_misses);
                    assert_eq!(fast.queue_cycles(), reference.queue_cycles);
                    assert!(fast.row_hits() > 0 && fast.row_misses() > 0);
                }
            }
        }
    }

    #[test]
    fn fast_remainder_equals_the_modulo() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut divisors = vec![
            1u64,
            2,
            3,
            7,
            16,
            1000,
            4095,
            4096,
            u32::MAX as u64,
            u64::MAX,
        ];
        divisors.extend((0..200).map(|_| rng.gen_range(1..=u64::MAX)));
        for d in divisors {
            let fast = FastMod::new(d);
            for x in [0, 1, d - 1, d, d.wrapping_add(1), u64::MAX, u64::MAX - 1] {
                assert_eq!(fast.rem(x), x % d, "{x} % {d}");
            }
            for _ in 0..200 {
                let x = rng.gen::<u64>();
                assert_eq!(fast.rem(x), x % d, "{x} % {d}");
            }
        }
    }

    fn ctrl() -> DramController {
        // 8 B/cyc, 4 banks, hit 10, miss 40, 64-byte lines (64 blocks/row).
        DramController::new(8.0, 4, 10, 40, 64)
    }

    #[test]
    fn first_touch_misses_then_hits_the_open_row() {
        let mut dram = ctrl();
        let a = dram.service(0, 64, 0);
        assert!(!a.row_hit);
        assert_eq!(a.done, 48); // 40 miss + 8 transfer
        let b = dram.service(4, 64, 100); // same row (blocks 0..64), same bank
        assert!(b.row_hit);
        assert_eq!(b.done, 118); // 10 hit + 8 transfer
        assert_eq!(dram.row_hits(), 1);
        assert_eq!(dram.row_misses(), 1);
    }

    #[test]
    fn a_row_lives_on_one_bank_and_rows_spread_across_banks() {
        // 64 blocks per row: the whole row shares a bank, successive rows
        // land on hashed banks that collectively cover the controller.
        let dram = ctrl();
        let row0: std::collections::BTreeSet<usize> = (0..64).map(|b| dram.bank_of(b)).collect();
        assert_eq!(row0.len(), 1, "a row must live wholly on one bank");
        let banks: std::collections::BTreeSet<usize> =
            (0..16u64).map(|r| dram.bank_of(r * 64)).collect();
        assert_eq!(banks.len(), 4, "16 rows should cover all 4 banks");
    }

    #[test]
    fn strided_streams_start_rows_at_decorrelated_banks() {
        // Streams offset by whole rows (the lockstep-core pattern) must not
        // all open their rows on the same bank.
        let dram = ctrl();
        let starts: std::collections::BTreeSet<usize> =
            (0..8u64).map(|i| dram.bank_of(i * 16 * 64)).collect();
        assert!(starts.len() > 1, "row starts all collapsed onto one bank");
    }

    #[test]
    fn banks_overlap_their_accesses_but_share_the_data_pins() {
        let mut dram = ctrl();
        // Two rows on different banks, same arrival: row accesses overlap,
        // transfers serialize on the data resource.
        let other = (1u64..)
            .map(|r| r * 64)
            .find(|&b| dram.bank_of(b) != dram.bank_of(0))
            .unwrap();
        let a = dram.service(0, 64, 0); // miss 40, data 40..48
        let b = dram.service(other, 64, 0); // other bank: miss 40, waits for data
        assert_eq!(a.done, 48);
        assert_eq!(b.done, 56); // data wait 8, then 8 transfer
        assert_eq!(b.queue_cycles, 8);
    }

    #[test]
    fn a_busy_bank_queues_its_next_request() {
        let mut dram = ctrl();
        dram.service(0, 64, 0); // block 0's bank: row cycle holds it to 34
                                // A block of a *different* row mapping to the same bank.
        let conflicting = (64..)
            .find(|&b| dram.bank_of(b) == dram.bank_of(0))
            .unwrap();
        let b = dram.service(conflicting, 64, 10);
        // The miss held its bank for the row cycle (2/3 of the 40-cycle miss
        // latency) plus the 8-cycle burst, not the full end-to-end service.
        assert_eq!(b.start, 34);
        assert_eq!(b.queue_cycles, 24);
        assert!(!b.row_hit); // the row buffers hold only block 0's row
    }

    #[test]
    fn two_rows_stay_open_on_one_dual_rank_bank() {
        // Two streams sharing a bank (one row buffer per rank) keep both rows
        // open: alternating between them keeps hitting, and only a third row
        // evicts the least recently used one.
        let mut dram = ctrl();
        let rows: Vec<u64> = (1u64..)
            .map(|r| r * 64)
            .filter(|&b| dram.bank_of(b) == dram.bank_of(0))
            .take(2)
            .collect();
        let (b, c) = (rows[0], rows[1]);
        assert!(!dram.service(0, 64, 0).row_hit);
        assert!(!dram.service(b, 64, 1_000).row_hit);
        assert!(dram.service(0, 64, 2_000).row_hit, "row 0 still open");
        assert!(dram.service(b, 64, 3_000).row_hit, "row b still open");
        assert!(!dram.service(c, 64, 4_000).row_hit, "third row misses");
        // c evicted the LRU row (0); b survived as the most recent.
        assert!(dram.service(b, 64, 5_000).row_hit);
        assert!(!dram.service(0, 64, 6_000).row_hit);
    }

    #[test]
    fn open_row_hits_pipeline_on_the_bank() {
        let mut dram = ctrl();
        dram.service(0, 64, 0); // miss opens row 0, bank held to 48
        let b = dram.service(4, 64, 100); // hit: 10 access + 8 transfer
        assert_eq!(b.done, 118);
        // The bank frees at the burst rate, so a hit right behind waits only
        // for the previous burst slot, not the full hit latency.
        let c = dram.service(8, 64, 101); // same bank, same row
        assert!(c.row_hit);
        assert_eq!(c.start, 108); // b held the bank for its 8-cycle burst
        assert_eq!(c.done, 126);
        assert_eq!(c.queue_cycles, 7);
    }

    #[test]
    fn infinite_bandwidth_transfers_in_zero_cycles() {
        let mut dram = DramController::new(f64::INFINITY, 4, 10, 40, 64);
        let a = dram.service(0, 1 << 20, 0);
        assert_eq!(a.done, 40); // miss latency only
    }
}
