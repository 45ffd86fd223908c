//! One set-associative, write-back / write-allocate cache level.

use crate::addr::BlockAddr;
use crate::stats::CacheStats;
use pdfws_cmp_model::CacheGeometry;

/// Whether an access reads or writes the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store (marks the line dirty).
    Write,
}

/// A block evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedBlock {
    /// The evicted block's address.
    pub block: BlockAddr,
    /// Whether the evicted line was dirty (requires a write-back).
    pub dirty: bool,
}

/// Outcome of a single access to one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccessResult {
    /// Whether the block was already present.
    pub hit: bool,
    /// The slot (`set * associativity + way`, below
    /// [`CacheGeometry::lines`]) that holds the block after the access: the
    /// hit line, or the line the miss filled.
    pub slot: usize,
    /// A block that had to be evicted to fill the new one (misses only).  It
    /// occupied `slot`.
    pub evicted: Option<EvictedBlock>,
}

/// Flag bit of a tag word marking the line dirty.
const DIRTY: u64 = 1 << 63;

/// Tag word of an empty line.  `Cache::access` admits only blocks below
/// `DIRTY - 1`, so no resident block's tag, dirty or clean, can equal it.
const INVALID: u64 = u64::MAX;

/// Bytes per host cache line, the alignment of the first set's words.
const HOST_LINE_BYTES: usize = 64;

/// `len` words of `fill` in a buffer padded so that word `start` — the
/// first of the `len` — sits on a host cache-line boundary.  A 16-way set's
/// tags then span two host lines and its stamps one, instead of straddling
/// one more: large heap blocks come back 16 bytes past a page boundary.
/// Results never depend on the alignment (a clone may lose it); only the
/// host lines a lookup touches do.
fn aligned_words<T: Copy>(len: usize, fill: T) -> (Box<[T]>, usize) {
    let word = std::mem::size_of::<T>();
    let buf = vec![fill; len + HOST_LINE_BYTES / word - 1].into_boxed_slice();
    let start = (buf.as_ptr() as usize).wrapping_neg() % HOST_LINE_BYTES / word;
    (buf, start)
}

/// The way with the smallest stamp: the LRU way, since stamps are recency
/// timestamps.  Callers only ask for a victim once every way has been
/// filled, and the stamp clock is a monotone counter, so the stamps are
/// distinct.
#[inline]
fn oldest_way(stamps: &[u32]) -> usize {
    debug_assert!(!stamps.is_empty(), "sets have at least one way");
    let mut way = 0;
    let mut best = stamps[0];
    for (w, &stamp) in stamps.iter().enumerate().skip(1) {
        if stamp < best {
            best = stamp;
            way = w;
        }
    }
    way
}

/// A set-associative LRU cache with write-back, write-allocate semantics.
///
/// The cache stores block addresses only (no data): the simulator cares about
/// hits, misses, evictions and write-backs, not values.
///
/// Storage is flat: all lines live in one set-major array (`sets × ways`) of
/// one-word tags — the block number, with bit 63 as the dirty flag and
/// `u64::MAX` for an empty line — with a parallel array of LRU stamps.  An
/// access therefore touches exactly one contiguous `associativity`-word
/// window — no per-set heap structures on the hot path.  Both line arrays
/// start on a host cache-line boundary (see `aligned_words`).
#[derive(Debug, Clone)]
pub struct Cache {
    geometry: CacheGeometry,
    /// All tag words, set-major from word `line0`: slot `i` is
    /// `lines[line0 + i]`, and set `s` owns slots `s*assoc .. (s+1)*assoc`.
    lines: Box<[u64]>,
    line0: usize,
    /// Recency stamps parallel to the tags, slot `i` at `stamps[stamp0 + i]`.
    stamps: Box<[u32]>,
    stamp0: usize,
    /// Cache-global monotone stamp counter (ordering is only compared within a
    /// set, so one clock serves every set).  Stamps are 32 bits, half the
    /// bytes a victim choice reads; when the clock would wrap, every set's
    /// stamps are renumbered by rank first (see `renumber_stamps`).
    clock: u32,
    stats: CacheStats,
    set_mask: u64,
    assoc: usize,
}

impl Cache {
    /// Build an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not validate (configurations coming from
    /// `pdfws-cmp-model` always do), or if a set has `2^32` ways or more,
    /// past what a 32-bit stamp can rank.
    pub fn new(geometry: CacheGeometry) -> Self {
        geometry
            .validate()
            .expect("cache geometry must be valid (validated by pdfws-cmp-model)");
        let num_sets = geometry.sets();
        let assoc = geometry.associativity;
        assert!(
            u32::try_from(assoc).is_ok(),
            "associativity {assoc} does not fit the 32-bit replacement stamps"
        );
        let (lines, line0) = aligned_words(num_sets * assoc, INVALID);
        let (stamps, stamp0) = aligned_words(num_sets * assoc, 0u32);
        Cache {
            geometry,
            lines,
            line0,
            stamps,
            stamp0,
            clock: 0,
            stats: CacheStats::default(),
            set_mask: (num_sets - 1) as u64,
            assoc,
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset the statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// First slot of the set `block` maps to.
    #[inline]
    fn set_base(&self, block: BlockAddr) -> usize {
        (block & self.set_mask) as usize * self.assoc
    }

    /// Number of slots (`sets × ways`).
    #[inline]
    fn slots(&self) -> usize {
        (self.set_mask as usize + 1) * self.assoc
    }

    /// The tag words of every slot.
    #[inline]
    fn tags(&self) -> &[u64] {
        &self.lines[self.line0..][..self.slots()]
    }

    /// The tag words of every slot, to update in place.
    #[inline]
    fn tags_mut(&mut self) -> &mut [u64] {
        let slots = self.slots();
        &mut self.lines[self.line0..][..slots]
    }

    /// Slot holding `block`, if it is resident.
    #[inline]
    fn find(&self, block: BlockAddr) -> Option<usize> {
        let base = self.set_base(block);
        self.lines[self.line0 + base..][..self.assoc]
            .iter()
            .position(|&tag| tag & !DIRTY == block)
            .map(|way| base + way)
    }

    /// Access `block`; on a miss the block is filled (write-allocate), possibly
    /// evicting another block from the same set.
    ///
    /// # Panics
    ///
    /// Panics if `block` is `2^63 - 1` or larger: its tag would collide with
    /// the dirty flag or the empty-line marker.
    pub fn access(&mut self, block: BlockAddr, kind: AccessKind) -> CacheAccessResult {
        assert!(
            block < DIRTY - 1,
            "block {block:#x} collides with the tag flags"
        );
        if self.clock == u32::MAX {
            self.renumber_stamps();
        }
        let base = self.set_base(block);
        let set = &mut self.lines[self.line0 + base..][..self.assoc];

        // One scan finds both the hit way and the first free way.  An empty
        // line's tag never matches a block, so the hit test needs no validity
        // check.
        let mut free_way = usize::MAX;
        let mut hit_way = usize::MAX;
        for (way, &tag) in set.iter().enumerate() {
            if tag & !DIRTY == block {
                hit_way = way;
                break;
            }
            if tag == INVALID && free_way == usize::MAX {
                free_way = way;
            }
        }

        self.clock += 1;

        if hit_way != usize::MAX {
            if kind == AccessKind::Write {
                set[hit_way] |= DIRTY;
                self.stats.write_hits += 1;
            } else {
                self.stats.read_hits += 1;
            }
            self.stamps[self.stamp0 + base + hit_way] = self.clock;
            return CacheAccessResult {
                hit: true,
                slot: base + hit_way,
                evicted: None,
            };
        }

        // Miss: count it, then fill — a free way if one exists, else the
        // LRU way.
        if kind == AccessKind::Write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }

        let (way, evicted) = if free_way != usize::MAX {
            (free_way, None)
        } else {
            let way = oldest_way(&self.stamps[self.stamp0 + base..][..self.assoc]);
            let old = set[way];
            let dirty = old & DIRTY != 0;
            self.stats.evictions += 1;
            if dirty {
                self.stats.writebacks += 1;
            }
            (
                way,
                Some(EvictedBlock {
                    block: old & !DIRTY,
                    dirty,
                }),
            )
        };

        set[way] = if kind == AccessKind::Write {
            block | DIRTY
        } else {
            block
        };
        self.stamps[self.stamp0 + base + way] = self.clock;

        CacheAccessResult {
            hit: false,
            slot: base + way,
            evicted,
        }
    }

    /// Replace every set's stamps by their ranks within the set (ties by
    /// way), and restart the clock just above the largest rank.  Victim
    /// choice compares stamps only within a set, so renumbering keeps every
    /// future choice the one unbounded stamps would make.
    #[cold]
    fn renumber_stamps(&mut self) {
        let mut order: Vec<usize> = Vec::with_capacity(self.assoc);
        let slots = self.slots();
        for stamps in self.stamps[self.stamp0..][..slots].chunks_exact_mut(self.assoc) {
            order.clear();
            order.extend(0..self.assoc);
            order.sort_by_key(|&way| (stamps[way], way));
            for (rank, &way) in order.iter().enumerate() {
                stamps[way] = rank as u32;
            }
        }
        self.clock = self.assoc as u32 - 1;
    }

    /// Check whether `block` is present without disturbing replacement state or
    /// statistics.
    pub fn probe(&self, block: BlockAddr) -> bool {
        self.find(block).is_some()
    }

    /// The block held in `slot`, or `None` if the slot is empty.
    pub fn block_at(&self, slot: usize) -> Option<BlockAddr> {
        let tag = self.tags()[slot];
        (tag != INVALID).then_some(tag & !DIRTY)
    }

    /// Mark the line in `slot` dirty, without touching statistics or
    /// replacement order.  Used to sink write-backs from an upper level into
    /// this one; the slot must hold a block.
    pub fn set_dirty(&mut self, slot: usize) {
        let tag = &mut self.tags_mut()[slot];
        debug_assert_ne!(*tag, INVALID, "set_dirty on an empty slot");
        *tag |= DIRTY;
    }

    /// Invalidate `block` if present.  Returns `Some(dirty)` if a line was
    /// invalidated, `None` if the block was not cached.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
        let slot = self.find(block)?;
        let tag = &mut self.tags_mut()[slot];
        let dirty = *tag & DIRTY != 0;
        *tag = INVALID;
        self.stats.invalidations += 1;
        Some(dirty)
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.tags().iter().filter(|&&tag| tag != INVALID).count()
    }

    /// Iterate over all resident block addresses (used by tests and the working-set
    /// profiler; order is unspecified).
    pub fn resident_blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        (0..self.slots()).filter_map(|slot| self.block_at(slot))
    }

    /// Drop every line (contents and replacement state), keeping statistics.
    pub fn flush(&mut self) {
        self.lines.fill(INVALID);
        self.stamps.fill(0);
        self.clock = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache(capacity: usize, assoc: usize) -> Cache {
        let g = CacheGeometry {
            capacity_bytes: capacity,
            line_bytes: 64,
            associativity: assoc,
            latency_cycles: 1,
        };
        Cache::new(g)
    }

    #[test]
    fn oldest_way_picks_the_smallest_stamp() {
        assert_eq!(oldest_way(&[5, 3, 9, 4]), 1);
        assert_eq!(oldest_way(&[1]), 0);
        // First way wins a (theoretical) tie, matching the previous
        // `min_by_key` behavior.
        assert_eq!(oldest_way(&[2, 2, 2]), 0);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny_cache(4096, 4);
        let first = c.access(7, AccessKind::Read);
        assert!(!first.hit);
        assert!(first.evicted.is_none());
        let second = c.access(7, AccessKind::Read);
        assert!(second.hit);
        assert_eq!(c.stats().read_misses, 1);
        assert_eq!(c.stats().read_hits, 1);
    }

    #[test]
    fn write_allocate_marks_dirty_and_writes_back() {
        // Direct-mapped cache with 2 sets: blocks 0 and 2 collide in set 0.
        let mut c = tiny_cache(128, 1);
        assert_eq!(c.geometry().sets(), 2);
        c.access(0, AccessKind::Write);
        let r = c.access(2, AccessKind::Read);
        assert!(!r.hit);
        let ev = r.evicted.expect("block 0 must be evicted");
        assert_eq!(ev.block, 0);
        assert!(ev.dirty, "written block must be dirty on eviction");
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_is_not_a_writeback() {
        let mut c = tiny_cache(128, 1);
        c.access(0, AccessKind::Read);
        let r = c.access(2, AccessKind::Read);
        assert!(!r.evicted.unwrap().dirty);
        assert_eq!(c.stats().writebacks, 0);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn lru_keeps_the_hot_block() {
        // One set, 2 ways: blocks 0, 2, 4 all map to set 0 (2 sets -> even blocks).
        let mut c = tiny_cache(256, 2);
        assert_eq!(c.geometry().sets(), 2);
        c.access(0, AccessKind::Read);
        c.access(2, AccessKind::Read);
        c.access(0, AccessKind::Read); // 0 is now MRU
        let r = c.access(4, AccessKind::Read); // evicts 2
        assert_eq!(r.evicted.unwrap().block, 2);
        assert!(c.probe(0));
        assert!(!c.probe(2));
    }

    #[test]
    fn working_set_within_capacity_never_evicts() {
        let mut c = tiny_cache(64 * 1024, 8);
        let lines = c.geometry().lines() as u64;
        for round in 0..3 {
            for b in 0..lines {
                let r = c.access(b, AccessKind::Read);
                assert!(r.evicted.is_none(), "round {round} block {b}");
            }
        }
        assert_eq!(c.occupancy(), lines as usize);
        assert_eq!(c.stats().misses(), lines);
        assert_eq!(c.stats().hits(), 2 * lines);
    }

    #[test]
    fn working_set_beyond_capacity_thrashes_with_lru_sequential_scan() {
        let mut c = tiny_cache(4096, 4);
        let lines = c.geometry().lines() as u64;
        // Scan twice over twice-capacity: classic LRU worst case, everything misses.
        for _ in 0..2 {
            for b in 0..2 * lines {
                c.access(b, AccessKind::Read);
            }
        }
        assert_eq!(c.stats().hits(), 0);
        assert_eq!(c.stats().misses(), 4 * lines);
    }

    #[test]
    fn invalidate_removes_block_and_reports_dirty() {
        let mut c = tiny_cache(4096, 4);
        c.access(10, AccessKind::Write);
        c.access(11, AccessKind::Read);
        assert_eq!(c.invalidate(10), Some(true));
        assert_eq!(c.invalidate(11), Some(false));
        assert_eq!(c.invalidate(12), None);
        assert!(!c.probe(10));
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn probe_does_not_change_stats_or_order() {
        let mut c = tiny_cache(256, 2);
        c.access(0, AccessKind::Read);
        c.access(2, AccessKind::Read);
        let before = *c.stats();
        // Probing block 0 many times must not make it MRU.
        for _ in 0..10 {
            assert!(c.probe(0));
        }
        assert_eq!(*c.stats(), before);
        c.access(4, AccessKind::Read); // LRU is still 0
        assert!(!c.probe(0));
        assert!(c.probe(2));
    }

    #[test]
    fn flush_empties_cache_but_keeps_stats() {
        let mut c = tiny_cache(4096, 4);
        for b in 0..10 {
            c.access(b, AccessKind::Read);
        }
        let misses = c.stats().misses();
        c.flush();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.stats().misses(), misses);
        // Everything misses again after the flush.
        c.access(0, AccessKind::Read);
        assert_eq!(c.stats().misses(), misses + 1);
    }

    #[test]
    fn resident_blocks_lists_exactly_the_contents() {
        let mut c = tiny_cache(4096, 4);
        for b in [3u64, 17, 99] {
            c.access(b, AccessKind::Read);
        }
        let mut blocks: Vec<_> = c.resident_blocks().collect();
        blocks.sort_unstable();
        assert_eq!(blocks, vec![3, 17, 99]);
    }

    #[test]
    fn set_dirty_only_affects_resident_blocks() {
        // Direct-mapped, 2 sets: blocks 0 and 1 live in different slots.
        let mut c = tiny_cache(128, 1);
        let slot = c.access(0, AccessKind::Read).slot;
        c.access(1, AccessKind::Read);
        let before = *c.stats();
        c.set_dirty(slot);
        assert_eq!(*c.stats(), before, "set_dirty must not change stats");
        assert_eq!(c.block_at(slot), Some(0), "the tag keeps its block");
        // The dirtied block now requires a write-back when evicted; its
        // neighbour in the other set does not.
        let r = c.access(2, AccessKind::Read);
        assert!(r.evicted.unwrap().dirty);
        let r = c.access(3, AccessKind::Read);
        assert!(!r.evicted.unwrap().dirty);
    }

    #[test]
    fn access_reports_the_slot_that_holds_the_block() {
        // 2 sets x 2 ways: even blocks map to set 0 (slots 0-1), odd to set 1.
        let mut c = tiny_cache(256, 2);
        let a = c.access(4, AccessKind::Write);
        assert_eq!((a.hit, a.slot), (false, 0));
        let b = c.access(3, AccessKind::Read);
        assert_eq!((b.hit, b.slot), (false, 2));
        let hit = c.access(4, AccessKind::Read);
        assert_eq!((hit.hit, hit.slot), (true, 0));
        c.access(6, AccessKind::Read); // fills slot 1
        let evict = c.access(8, AccessKind::Read); // LRU is block 4 in slot 0
        assert_eq!(evict.slot, 0);
        assert_eq!(
            evict.evicted,
            Some(EvictedBlock {
                block: 4,
                dirty: true
            })
        );
        assert_eq!(c.block_at(0), Some(8));
        assert_eq!(c.block_at(3), None);
    }

    #[test]
    #[should_panic(expected = "collides with the tag flags")]
    fn blocks_that_collide_with_the_tag_flags_are_rejected() {
        tiny_cache(4096, 4).access(u64::MAX >> 1, AccessKind::Read);
    }

    /// The lookup and victim choice as first written, kept as the reference
    /// the cache must match access for access: one tag scan, with a branch
    /// per way, finds the hit way and the first free way, and the LRU victim
    /// is the first way with the smallest stamp.
    struct Reference {
        lines: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
        stats: CacheStats,
        set_mask: u64,
        assoc: usize,
    }

    impl Reference {
        fn new(geometry: CacheGeometry) -> Self {
            let (sets, assoc) = (geometry.sets(), geometry.associativity);
            Reference {
                lines: vec![INVALID; sets * assoc],
                stamps: vec![0; sets * assoc],
                clock: 0,
                stats: CacheStats::default(),
                set_mask: (sets - 1) as u64,
                assoc,
            }
        }

        fn find(&self, block: BlockAddr) -> Option<usize> {
            let base = (block & self.set_mask) as usize * self.assoc;
            (base..base + self.assoc).find(|&slot| self.lines[slot] & !DIRTY == block)
        }

        fn access(&mut self, block: BlockAddr, kind: AccessKind) -> CacheAccessResult {
            let base = (block & self.set_mask) as usize * self.assoc;
            let (mut free_way, mut hit_way) = (usize::MAX, usize::MAX);
            for way in 0..self.assoc {
                let tag = self.lines[base + way];
                if tag & !DIRTY == block {
                    hit_way = way;
                    break;
                }
                if tag == INVALID && free_way == usize::MAX {
                    free_way = way;
                }
            }
            self.clock += 1;
            let write = kind == AccessKind::Write;
            if hit_way != usize::MAX {
                let slot = base + hit_way;
                if write {
                    self.lines[slot] |= DIRTY;
                    self.stats.write_hits += 1;
                } else {
                    self.stats.read_hits += 1;
                }
                self.stamps[slot] = self.clock;
                return CacheAccessResult {
                    hit: true,
                    slot,
                    evicted: None,
                };
            }
            if write {
                self.stats.write_misses += 1;
            } else {
                self.stats.read_misses += 1;
            }
            let (way, evicted) = if free_way != usize::MAX {
                (free_way, None)
            } else {
                let stamps = &self.stamps[base..base + self.assoc];
                let mut way = 0;
                for w in 1..self.assoc {
                    if stamps[w] < stamps[way] {
                        way = w;
                    }
                }
                let old = self.lines[base + way];
                let dirty = old & DIRTY != 0;
                self.stats.evictions += 1;
                if dirty {
                    self.stats.writebacks += 1;
                }
                let block = old & !DIRTY;
                (way, Some(EvictedBlock { block, dirty }))
            };
            self.lines[base + way] = if write { block | DIRTY } else { block };
            self.stamps[base + way] = self.clock;
            CacheAccessResult {
                hit: false,
                slot: base + way,
                evicted,
            }
        }

        fn block_at(&self, slot: usize) -> Option<BlockAddr> {
            let tag = self.lines[slot];
            (tag != INVALID).then_some(tag & !DIRTY)
        }

        fn invalidate(&mut self, block: BlockAddr) -> Option<bool> {
            let slot = self.find(block)?;
            let dirty = self.lines[slot] & DIRTY != 0;
            self.lines[slot] = INVALID;
            self.stats.invalidations += 1;
            Some(dirty)
        }

        fn flush(&mut self) {
            self.lines.fill(INVALID);
            self.stamps.fill(0);
            self.clock = 0;
        }
    }

    /// Drive the cache and the reference with the same random reads, writes,
    /// invalidations, dirty marks, probes and (if `flushes`) flushes, the
    /// cache's stamp clock starting at `clock`.
    fn check_against_reference(
        sets: usize,
        assoc: usize,
        seed: u64,
        clock: u32,
        flushes: bool,
    ) -> Cache {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let g = CacheGeometry {
            capacity_bytes: sets * assoc * 64,
            line_bytes: 64,
            associativity: assoc,
            latency_cycles: 1,
        };
        let mut cache = Cache::new(g);
        cache.clock = clock;
        let mut reference = Reference::new(g);
        let mut rng = StdRng::seed_from_u64(seed);
        let lines = (sets * assoc) as u64;
        // Mostly a pool of three times the capacity (hits, misses and
        // evictions), sometimes a block near the top of the admitted range.
        let pick_block = |rng: &mut StdRng| match rng.gen_range(0..16u32) {
            0 => DIRTY - 2 - rng.gen_range(0..4 * lines),
            _ => rng.gen_range(0..3 * lines),
        };
        let what = format!("{sets} sets x {assoc} ways, seed {seed}");
        for op in 0..6_000 {
            match rng.gen_range(0..100u32) {
                98.. if flushes => {
                    cache.flush();
                    reference.flush();
                }
                0..=79 | 98.. => {
                    let block = pick_block(&mut rng);
                    let kind = if rng.gen_bool(0.3) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    let got = cache.access(block, kind);
                    assert_eq!(got, reference.access(block, kind), "{what}: op {op}");
                    assert_eq!(cache.block_at(got.slot), Some(block), "{what}: op {op}");
                }
                80..=89 => {
                    let block = pick_block(&mut rng);
                    assert_eq!(
                        cache.invalidate(block),
                        reference.invalidate(block),
                        "{what}: op {op}"
                    );
                }
                90..=96 => {
                    let slot = rng.gen_range(0..lines as usize);
                    if reference.block_at(slot).is_some() {
                        cache.set_dirty(slot);
                        reference.lines[slot] |= DIRTY;
                    }
                }
                _ => {
                    let block = pick_block(&mut rng);
                    assert_eq!(cache.probe(block), reference.find(block).is_some());
                }
            }
        }
        for slot in 0..lines as usize {
            assert_eq!(
                cache.block_at(slot),
                reference.block_at(slot),
                "{what}: slot {slot}"
            );
        }
        assert_eq!(*cache.stats(), reference.stats, "{what}");
        assert!(
            reference.stats.evictions > 0 && reference.stats.hits() > 0,
            "{what}"
        );
        cache
    }

    #[test]
    fn lookup_and_victim_choice_match_the_reference_scan() {
        // Set-associative shapes of 1 to 32 ways, then fully associative
        // caches (one set) whose way count is not a multiple of 8.
        let shapes = [
            (8, 1),
            (8, 2),
            (8, 3),
            (8, 4),
            (4, 12),
            (4, 16),
            (2, 32),
            (1, 40),
            (1, 5),
        ];
        // Three random sequences per shape.
        for (i, &(sets, assoc)) in shapes.iter().enumerate() {
            for j in 0..3 {
                check_against_reference(sets, assoc, (i * 3 + j) as u64, 0, true);
            }
        }
    }

    #[test]
    fn renumbering_the_stamps_keeps_every_victim_choice() {
        // Start the 32-bit clock a few thousand accesses short of wrapping:
        // the run renumbers every set's stamps and must still choose the
        // victims the reference's unbounded stamps choose.
        for (i, &(sets, assoc)) in [(8, 4), (4, 16), (1, 40)].iter().enumerate() {
            for j in 0..2 {
                let seed = 100 + (i * 2 + j) as u64;
                let cache = check_against_reference(sets, assoc, seed, u32::MAX - 3_000, false);
                assert!(
                    cache.clock < 10_000,
                    "{sets}x{assoc} seed {seed}: no renumbering"
                );
            }
        }
    }

    #[test]
    fn occupancy_never_exceeds_line_count() {
        let mut c = tiny_cache(2048, 2);
        for b in 0..10_000u64 {
            c.access(b % 77, AccessKind::Read);
            assert!(c.occupancy() <= c.geometry().lines());
        }
    }
}
