//! The deterministic event queue every component (and the execution engine's
//! cores) schedules on.
//!
//! Events are `(time, id)` pairs ordered lexicographically: earliest time
//! first, ties broken by the smaller id.  The tie-break is what makes whole
//! simulations reproducible — two components (or cores) due at the same cycle
//! always run in id order, independent of insertion order or of how many
//! worker threads drive independent simulations.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A deterministic min-heap of `(time, id)` events.
#[derive(Debug, Default, Clone)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule `id` to run at `time`.  Duplicate entries are allowed; each
    /// pop returns one.
    pub fn push(&mut self, time: u64, id: usize) {
        self.heap.push(Reverse((time, id)));
    }

    /// The earliest `(time, id)` event without removing it.
    pub fn peek(&self) -> Option<(u64, usize)> {
        self.heap.peek().map(|&Reverse(e)| e)
    }

    /// The earliest event after the top one: the smaller of the root's two
    /// children, so the top can keep its place while its owner runs up to
    /// the next event's time.
    pub fn peek_second(&self) -> Option<(u64, usize)> {
        // `BinaryHeap` is a max-heap, so the larger `Reverse` is earlier.
        let heap = self.heap.as_slice();
        let earlier = match (heap.get(1), heap.get(2)) {
            (Some(a), Some(b)) => a.max(b),
            (Some(a), None) => a,
            _ => return None,
        };
        Some(earlier.0)
    }

    /// Re-key the top event to `(time, id)` in place: one sift instead of a
    /// `pop` plus a `push`, with the same pop order afterwards (order depends
    /// only on the keys).  No-op on an empty queue.
    pub fn replace_top(&mut self, time: u64, id: usize) {
        if let Some(mut top) = self.heap.peek_mut() {
            *top = Reverse((time, id));
        }
    }

    /// Remove and return the earliest `(time, id)` event.
    pub fn pop(&mut self) -> Option<(u64, usize)> {
        self.heap.pop().map(|Reverse(e)| e)
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn clear_empties_the_queue() {
        let mut q = EventQueue::new();
        q.push(1, 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
