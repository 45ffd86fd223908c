//! The deterministic event queue every component (and the execution engine's
//! cores) schedules on.
//!
//! Events are `(time, id)` pairs ordered lexicographically: earliest time
//! first, ties broken by the smaller id.  The tie-break is what makes whole
//! simulations reproducible — two components (or cores) due at the same cycle
//! always run in id order, independent of insertion order or of how many
//! worker threads drive independent simulations.
//!
//! Each event is stored as one packed `u64` key, `time << 8 | id`, so the
//! lexicographic order is plain integer order and a heap compare is a single
//! instruction.  The packing bounds the range: ids must be below
//! [`ID_LIMIT`] (256) and times below [`TIME_LIMIT`] (2^56 cycles); an event
//! outside it panics with a message naming the limit.  Equal events are
//! identical words, so the pop order depends only on the set of keys, never
//! on the heap's shape.

/// Bits of a packed key that hold the event id.
const ID_BITS: u32 = 8;

/// Exclusive upper bound on event ids (a core index or component index).
pub const ID_LIMIT: usize = 1 << ID_BITS;

/// Exclusive upper bound on event times, in cycles.
pub const TIME_LIMIT: u64 = 1 << (u64::BITS - ID_BITS);

/// A deterministic min-heap of `(time, id)` events, one packed word each.
#[derive(Debug, Default, Clone)]
pub struct EventQueue {
    heap: Vec<u64>,
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
        self.heap.push(key);
        self.sift_up(self.heap.len() - 1, key);
    }

    /// The earliest `(time, id)` event without removing it.
    #[inline]
    pub fn peek(&self) -> Option<(u64, usize)> {
        self.heap.first().map(|&key| unpack(key))
    }

    /// The earliest event after the top one: the smaller of the root's two
    /// children, so the top can keep its place while its owner runs up to
    /// the next event's time.
    #[inline]
    pub fn peek_second(&self) -> Option<(u64, usize)> {
        let key = match self.heap.get(1..3) {
            Some(&[a, b]) => a.min(b),
            _ => *self.heap.get(1)?,
        };
        Some(unpack(key))
    }

    /// Re-key the top event to `(time, id)` in place: one sift instead of a
    /// `pop` plus a `push`, with the same pop order afterwards (order depends
    /// only on the keys).  No-op on an empty queue.
    ///
    /// # Panics
    ///
    /// Like [`EventQueue::push`].
    #[inline]
    pub fn replace_top(&mut self, time: u64, id: usize) {
        let key = pack(time, id);
        if !self.heap.is_empty() {
            self.sift_from_root(key);
        }
    }

    /// Remove and return the earliest `(time, id)` event.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, usize)> {
        let last = self.heap.pop()?;
        let Some(&top) = self.heap.first() else {
            return Some(unpack(last));
        };
        self.sift_from_root(last);
        Some(unpack(top))
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop every scheduled event.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Fill the root with `key`: walk the hole from the root to a leaf along
    /// the smaller child, then sift `key` up from there.  The child is chosen
    /// by arithmetic on a compare, not a branch — a re-keyed core usually
    /// lands deep in the heap, and a branch per level would mispredict about
    /// half the time.  Always inlined, into `pop` and into the engine's step
    /// loop through `replace_top`: the engine re-keys once per step, and the
    /// call was a measurable share of a step's host time.
    #[inline(always)]
    fn sift_from_root(&mut self, key: u64) {
        let heap = &mut self.heap[..];
        let n = heap.len();
        let mut hole = 0;
        let mut child = 1;
        while child + 1 < n {
            child += (heap[child + 1] < heap[child]) as usize;
            heap[hole] = heap[child];
            hole = child;
            child = 2 * hole + 1;
        }
        if child < n {
            heap[hole] = heap[child];
            hole = child;
        }
        self.sift_up(hole, key);
    }

    /// Place `key` at `hole` or above it: move each larger parent down.
    #[inline]
    fn sift_up(&mut self, mut hole: usize, key: u64) {
        let heap = &mut self.heap[..];
        while hole > 0 {
            let parent = (hole - 1) / 2;
            if heap[parent] <= key {
                break;
            }
            heap[hole] = heap[parent];
            hole = parent;
        }
        heap[hole] = key;
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
    #[derive(Debug, Clone)]
    enum Op {
        Push(u64, usize),
        Pop,
        ReplaceTop(u64),
        PeekSecond,
    }

    fn op() -> impl Strategy<Value = Op> {
        // Few distinct times and ids, so equal times under different ids and
        // fully duplicate keys are common; id 255 is the top of the range.
        (0u8..8, 0u64..8, 0usize..5).prop_map(|(kind, t, id)| {
            let id = if id == 4 { ID_LIMIT - 1 } else { id };
            match kind {
                0..=2 => Op::Push(t, id),
                3 | 4 => Op::Pop,
                5 | 6 => Op::ReplaceTop(t),
                _ => Op::PeekSecond,
            }
        })
    }

    proptest! {
        // The queue against a sorted `Vec` of `(time, id)` pairs: every
        // observable result matches after every operation.
        #[test]
        fn matches_a_sorted_vec_model(ops in proptest::collection::vec(op(), 0..200)) {
            let mut q = EventQueue::new();
            let mut model: Vec<(u64, usize)> = Vec::new();
            for op in ops {
                match op {
                    Op::Push(t, id) => {
                        q.push(t, id);
                        model.push((t, id));
                        model.sort_unstable();
                    }
                    Op::Pop => {
                        let expected = (!model.is_empty()).then(|| model.remove(0));
                        prop_assert_eq!(q.pop(), expected);
                    }
                    Op::ReplaceTop(t) => {
                        // Re-key the top, keeping its id (as the engine does).
                        if let Some(&(_, id)) = model.first() {
                            model[0] = (t, id);
                            model.sort_unstable();
                            q.replace_top(t, id);
                        } else {
                            q.replace_top(t, 0);
                        }
                    }
                    Op::PeekSecond => prop_assert_eq!(q.peek_second(), model.get(1).copied()),
                }
                prop_assert_eq!(q.peek(), model.first().copied());
                prop_assert_eq!(q.len(), model.len());
            }
        }
    }

    #[test]
    fn clear_empties_the_queue() {
        let mut q = EventQueue::new();
        q.push(1, 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
