//! The deterministic event queue the execution engine's cores schedule on.
//!
//! Events are `(time, id)` pairs ordered lexicographically: earliest time
//! first, ties broken by the smaller id.  The tie-break is what makes whole
//! simulations reproducible — two cores due at the same cycle always run in
//! id order, independent of insertion order or of how many
//! worker threads drive independent simulations.
//!
//! Each event is stored as one packed `u64` key, `time << 8 | id`, so the
//! lexicographic order is plain integer order and a compare is a single
//! instruction.  The packing bounds the range: ids must be below
//! [`ID_LIMIT`] (256) and times below [`TIME_LIMIT`] (2^56 cycles); an event
//! outside it panics with a message naming the limit.  Equal events are
//! identical words, so the pop order depends only on the set of keys.
//!
//! The keys live in a sorted ring: a power-of-two buffer whose live entries
//! run in ascending order from a head index, wrapping at the end.  `pop` and
//! `peek` are O(1) and `peek_second` reads the slot after the head.
//! `replace_top` drops the head and inserts the new key from whichever end of
//! the ring is nearer — one compare against the middle entry picks the end —
//! so it shifts O(min(rank, n − rank)) entries, where `rank` is how many
//! entries the key lands behind.  `push` inserts the same way and is O(n).
//! The queue is meant for one or two entries per core: there a
//! shift is one sequential load and store, cheaper than a heap level's two
//! dependent loads, and a core that yields to the back of a round-robin
//! lands in place with no shift at all.

/// Bits of a packed key that hold the event id.
const ID_BITS: u32 = 8;

/// Exclusive upper bound on event ids (a core index).
pub const ID_LIMIT: usize = 1 << ID_BITS;

/// Exclusive upper bound on event times, in cycles.
pub const TIME_LIMIT: u64 = 1 << (u64::BITS - ID_BITS);

/// Buffer size of the first allocation; later growth doubles it.
const INITIAL_CAPACITY: usize = 64;

/// A deterministic queue of `(time, id)` events, one packed word each, kept
/// as a sorted ring.
#[derive(Default, Clone)]
pub struct EventQueue {
    /// Power-of-two buffer (or empty before the first push); live entries
    /// are `ring[(head + i) & mask]` for `i < len`, ascending.
    ring: Vec<u64>,
    head: usize,
    len: usize,
}

/// Pack `(time, id)` into one key whose integer order is the event order.
#[inline]
fn pack(time: u64, id: usize) -> u64 {
    assert!(
        id < ID_LIMIT,
        "event id {id} out of range: ids must be < {ID_LIMIT}"
    );
    assert!(
        time < TIME_LIMIT,
        "event time {time} out of range: times must be < 2^56 cycles"
    );
    time << ID_BITS | id as u64
}

#[inline]
fn unpack(key: u64) -> (u64, usize) {
    (key >> ID_BITS, (key & (ID_LIMIT as u64 - 1)) as usize)
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule `id` to run at `time`.  Duplicate entries are allowed; each
    /// pop returns one.
    ///
    /// # Panics
    ///
    /// If `id >= ID_LIMIT` or `time >= TIME_LIMIT`.
    #[inline]
    pub fn push(&mut self, time: u64, id: usize) {
        let key = pack(time, id);
        if self.len == self.ring.len() {
            self.grow();
        }
        self.insert(self.head, self.len, key);
    }

    /// The earliest `(time, id)` event without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(u64, usize)> {
        self.nth(0)
    }

    /// The earliest event after the top one, so the top can keep its place
    /// while its owner runs up to the next event's time.
    #[inline]
    pub fn peek_second(&self) -> Option<(u64, usize)> {
        self.nth(1)
    }

    /// Re-key the top event to `(time, id)` in place: the head is dropped
    /// and the key inserted from the nearer end, with the same pop order
    /// afterwards as a `pop` plus a `push` (order depends only on the keys).
    /// No-op on an empty queue.
    ///
    /// # Panics
    ///
    /// Like [`EventQueue::push`].
    #[inline]
    pub fn replace_top(&mut self, time: u64, id: usize) {
        let key = pack(time, id);
        if self.len > 0 {
            // The dropped head's slot is free in front of the rest and, on
            // a full ring, is also the free slot behind it.
            self.insert(self.head + 1, self.len - 1, key);
        }
    }

    /// Remove and return the earliest `(time, id)` event.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, usize)> {
        let top = self.nth(0)?;
        self.head = (self.head + 1) & self.mask();
        self.len -= 1;
        Some(top)
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Index mask of the buffer (a power of two in size once allocated).
    #[inline]
    fn mask(&self) -> usize {
        self.ring.len().wrapping_sub(1)
    }

    /// The `i`-th earliest event, if there are more than `i`.
    #[inline]
    fn nth(&self, i: usize) -> Option<(u64, usize)> {
        (i < self.len).then(|| unpack(self.ring[(self.head + i) & self.mask()]))
    }

    /// Double the buffer (or allocate the first one), copying the live
    /// entries to its start in order.
    #[cold]
    fn grow(&mut self) {
        let mask = self.mask();
        let mut ring = vec![0; (2 * self.ring.len()).max(INITIAL_CAPACITY)];
        for (i, slot) in ring[..self.len].iter_mut().enumerate() {
            *slot = self.ring[(self.head + i) & mask];
        }
        self.ring = ring;
        self.head = 0;
    }

    /// Insert `key` among the `live` sorted entries starting at slot
    /// `first`, whose neighbouring slots on both sides are free; the queue
    /// becomes those entries plus `key`.  The key lands behind every entry
    /// not greater than it, from whichever end the middle entry says is
    /// nearer: a key below the middle shifts the entries in front of it one
    /// slot toward the front, any other key shifts the entries behind it one
    /// slot toward the back.  The middle entry bounds either scan, so neither
    /// checks the count.  Always inlined: the engine re-keys once per step.
    #[inline(always)]
    fn insert(&mut self, first: usize, live: usize, key: u64) {
        let mask = self.mask();
        let ring = &mut self.ring[..=mask];
        self.len = live + 1;
        if live == 0 {
            self.head = first & mask;
            ring[self.head] = key;
            return;
        }
        if key < ring[(first + live / 2) & mask] {
            // The middle entry is greater than `key`, so the scan stops
            // there at the latest.  `first + mask` is the slot before
            // `first`, without underflow.
            let mut at = first + mask;
            self.head = at & mask;
            loop {
                let next = ring[(at + 1) & mask];
                if next > key {
                    break;
                }
                ring[at & mask] = next;
                at += 1;
            }
            ring[at & mask] = key;
        } else {
            // The middle entry is not greater than `key`, so the scan stops
            // there at the latest.
            let mut at = first + live;
            self.head = first & mask;
            loop {
                let prev = ring[(at - 1) & mask];
                if prev <= key {
                    break;
                }
                ring[at & mask] = prev;
                at -= 1;
            }
            ring[at & mask] = key;
        }
    }
}

impl std::fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries((0..self.len).filter_map(|i| self.nth(i)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order_with_id_tie_break() {
        let mut q = EventQueue::new();
        q.push(5, 2);
        q.push(3, 9);
        q.push(5, 0);
        q.push(3, 1);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek(), Some((3, 1)));
        assert_eq!(q.pop(), Some((3, 1)));
        assert_eq!(q.pop(), Some((3, 9)));
        assert_eq!(q.pop(), Some((5, 0)));
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn order_is_independent_of_insertion_order() {
        let events = [(7u64, 1usize), (2, 3), (7, 0), (2, 2), (9, 5)];
        let mut fwd = EventQueue::new();
        let mut rev = EventQueue::new();
        for &(t, id) in &events {
            fwd.push(t, id);
        }
        for &(t, id) in events.iter().rev() {
            rev.push(t, id);
        }
        loop {
            let (a, b) = (fwd.pop(), rev.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn peek_second_is_the_earliest_event_below_the_top() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_second(), None);
        q.push(4, 0);
        assert_eq!(q.peek_second(), None);
        q.push(9, 1);
        assert_eq!(q.peek_second(), Some((9, 1)));
        q.push(6, 3);
        q.push(6, 2);
        q.push(1, 7);
        assert_eq!(q.peek(), Some((1, 7)));
        assert_eq!(q.peek_second(), Some((4, 0)));
    }

    #[test]
    fn replace_top_matches_pop_then_push() {
        // Re-key the top of one queue while popping and re-pushing on the
        // other; both must then pop the same sequence.
        let mut keyed = EventQueue::new();
        let mut popped = EventQueue::new();
        for (t, id) in [(3u64, 0usize), (5, 1), (5, 2), (8, 3), (2, 4)] {
            keyed.push(t, id);
            popped.push(t, id);
        }
        for new_time in [2u64, 5, 6, 11, 11, 20] {
            let (_, id) = keyed.peek().unwrap();
            keyed.replace_top(new_time, id);
            let (_, id) = popped.pop().unwrap();
            popped.push(new_time, id);
            assert_eq!(keyed.peek(), popped.peek());
        }
        while let Some(e) = popped.pop() {
            assert_eq!(keyed.pop(), Some(e));
        }
        assert!(keyed.is_empty());
    }

    #[test]
    fn extreme_in_range_keys_round_trip() {
        let mut q = EventQueue::new();
        q.push(TIME_LIMIT - 1, ID_LIMIT - 1);
        q.push(TIME_LIMIT - 1, 0);
        q.push(0, ID_LIMIT - 1);
        assert_eq!(q.pop(), Some((0, ID_LIMIT - 1)));
        assert_eq!(q.pop(), Some((TIME_LIMIT - 1, 0)));
        assert_eq!(q.pop(), Some((TIME_LIMIT - 1, ID_LIMIT - 1)));
    }

    #[test]
    #[should_panic(expected = "event id 256 out of range: ids must be < 256")]
    fn an_id_past_the_packed_range_panics() {
        EventQueue::new().push(0, ID_LIMIT);
    }

    #[test]
    #[should_panic(expected = "out of range: times must be < 2^56 cycles")]
    fn a_time_past_the_packed_range_panics() {
        EventQueue::new().push(TIME_LIMIT, 0);
    }

    #[test]
    #[should_panic(expected = "out of range: times must be < 2^56 cycles")]
    fn replace_top_checks_the_range_too() {
        let mut q = EventQueue::new();
        q.push(1, 1);
        q.replace_top(u64::MAX, 1);
    }

    /// One queue operation of the model test.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Push at the top's time plus a delay.
        Push(u64, usize),
        Pop,
        /// Re-key the top to its own time plus a delay, as a yielding core
        /// does: lands in either half of the ring.
        ReplaceTop(u64),
        /// Re-key the top to the last entry's time plus a delay: lands
        /// behind every other entry, as in a round robin.
        ReplaceTopLast(u64),
        PeekSecond,
    }

    /// Operation mix of one phase of a model-test case.
    #[derive(Clone, Copy)]
    enum Phase {
        /// Pushes balance pops: a small population whose head wraps the
        /// first buffer many times.
        Churn,
        /// Mostly pushes: the ring grows past its first buffer while the
        /// head sits mid-buffer.
        Grow,
        /// Mostly pops.
        Drain,
    }

    fn op(phase: Phase) -> impl Strategy<Value = Op> {
        // Few distinct times and ids, so equal times under different ids and
        // fully duplicate keys are common; id 255 is the top of the range.
        (0u8..64, 0u64..8, 0usize..5).prop_map(move |(roll, t, id)| {
            let id = if id == 4 { ID_LIMIT - 1 } else { id };
            // Cumulative weights out of 64 of push, pop and the two re-keys;
            // the rest is peek_second.
            let weights = match phase {
                Phase::Churn => [16, 32, 40, 56],
                Phase::Grow => [48, 52, 56, 60],
                Phase::Drain => [8, 40, 48, 56],
            };
            match weights.iter().position(|&w| roll < w) {
                Some(0) => Op::Push(t, id),
                Some(1) => Op::Pop,
                Some(2) => Op::ReplaceTop(t),
                Some(3) => Op::ReplaceTopLast(t),
                _ => Op::PeekSecond,
            }
        })
    }

    /// The live entries of `q` in pop order.
    fn contents(q: &EventQueue) -> Vec<(u64, usize)> {
        (0..q.len()).map(|i| q.nth(i).unwrap()).collect()
    }

    proptest! {
        // The queue against a sorted `Vec` of `(time, id)` pairs: every
        // observable result matches after every operation, and the whole
        // contents match after every phase.  Each case churns a small
        // population, grows past 300 entries, then drains; it must wrap the
        // head around the buffer and re-key into both halves of the ring.
        #[test]
        fn matches_a_sorted_vec_model(
            churn in proptest::collection::vec(op(Phase::Churn), 1500..2000),
            grow in proptest::collection::vec(op(Phase::Grow), 500..700),
            drain in proptest::collection::vec(op(Phase::Drain), 800..1500),
        ) {
            let mut q = EventQueue::new();
            let mut model: Vec<(u64, usize)> = Vec::new();
            let insert = |model: &mut Vec<(u64, usize)>, e| {
                let at = model.partition_point(|&m| m <= e);
                model.insert(at, e);
            };
            let (mut peak, mut wraps, mut front, mut back) = (0, 0, 0, 0);
            for phase in [churn, grow, drain] {
                for op in phase {
                    let head = q.head;
                    match op {
                        Op::Push(dt, id) => {
                            // Scheduled at or after the top's time, as events are.
                            let t = model.first().map_or(dt, |&(top, _)| top + dt);
                            q.push(t, id);
                            insert(&mut model, (t, id));
                        }
                        Op::Pop => {
                            let expected = (!model.is_empty()).then(|| model.remove(0));
                            prop_assert_eq!(q.pop(), expected);
                        }
                        Op::ReplaceTop(dt) | Op::ReplaceTopLast(dt) if model.is_empty() => {
                            q.replace_top(dt, 0);
                        }
                        Op::ReplaceTop(dt) | Op::ReplaceTopLast(dt) => {
                            // Re-key the top, keeping its id (as the engine does).
                            let (top, id) = model.remove(0);
                            let base = match op {
                                Op::ReplaceTopLast(_) => model.last().map_or(top, |e| e.0),
                                _ => top,
                            };
                            let key = (base + dt, id);
                            // The end the ring inserts from: the front for a
                            // key below the middle entry.
                            match model.get(model.len() / 2) {
                                Some(&mid) if key < mid => front += 1,
                                Some(_) => back += 1,
                                None => {}
                            }
                            insert(&mut model, key);
                            q.replace_top(key.0, id);
                        }
                        Op::PeekSecond => prop_assert_eq!(q.peek_second(), model.get(1).copied()),
                    }
                    prop_assert_eq!(q.peek(), model.first().copied());
                    prop_assert_eq!(q.len(), model.len());
                    peak = peak.max(model.len());
                    // The head crosses the end of the buffer forward on a
                    // pop or back-end re-key, backward on a front-end push.
                    wraps += match op {
                        Op::Pop | Op::ReplaceTop(_) | Op::ReplaceTopLast(_) => q.head < head,
                        Op::Push(..) => q.head > head,
                        _ => false,
                    } as usize;
                }
                prop_assert_eq!(contents(&q), model.clone());
            }
            while let Some(e) = model.first().copied() {
                model.remove(0);
                prop_assert_eq!(q.pop(), Some(e));
            }
            prop_assert_eq!(q.pop(), None);
            prop_assert!(peak >= 300, "peak {peak}: the ring never grew past 300 entries");
            prop_assert!(wraps >= 8, "the head wrapped only {wraps} times");
            prop_assert!(front > 0 && back > 0, "re-keys from the front {front}, back {back}");
        }
    }
}
