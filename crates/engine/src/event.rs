//! A deterministic discrete-event queue.
//!
//! Events are ordered by their scheduled [`Cycle`]; events scheduled for the
//! same cycle are delivered in FIFO insertion order, which keeps simulations
//! fully deterministic regardless of heap-internal tie breaking.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::Cycle;

/// An event together with the cycle at which it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// Cycle at which the event fires.
    pub at: Cycle,
    /// Monotonic sequence number used to break ties deterministically.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

/// Internal heap entry: min-heap by (cycle, sequence).
struct HeapEntry<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so BinaryHeap (a max-heap) pops the earliest event first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> fmt::Debug for HeapEntry<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeapEntry")
            .field("at", &self.at)
            .field("seq", &self.seq)
            .finish()
    }
}

/// A deterministic event queue.
///
/// # Example
///
/// ```
/// use refrint_engine::event::EventQueue;
/// use refrint_engine::time::Cycle;
///
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.schedule(Cycle::new(20), "later");
/// q.schedule(Cycle::new(5), "sooner");
/// q.schedule(Cycle::new(5), "sooner-second");
///
/// let first = q.pop().unwrap();
/// assert_eq!((first.at, first.event), (Cycle::new(5), "sooner"));
/// let second = q.pop().unwrap();
/// assert_eq!(second.event, "sooner-second");
/// assert_eq!(q.pop().unwrap().event, "later");
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    now: Cycle,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at cycle zero.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Cycle::ZERO,
        }
    }

    /// The current simulation time: the cycle of the most recently popped
    /// event (or zero if nothing has been popped yet).
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` to fire at cycle `at`.
    ///
    /// Scheduling in the past is permitted (the event will simply be the next
    /// one popped); callers that want to enforce causality should check
    /// [`EventQueue::now`] first.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { at, seq, event });
    }

    /// Removes and returns the earliest pending event, advancing the clock to
    /// its cycle.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop().map(|e| {
            self.now = self.now.max(e.at);
            ScheduledEvent {
                at: e.at,
                seq: e.seq,
                event: e.event,
            }
        })
    }

    /// Returns the cycle of the earliest pending event without removing it.
    #[must_use]
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.at)
    }

    /// Drains and returns every event scheduled at the earliest pending
    /// cycle, in FIFO order.
    pub fn pop_batch(&mut self) -> Vec<ScheduledEvent<E>> {
        let Some(first_time) = self.peek_time() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while self.peek_time() == Some(first_time) {
            out.push(self.pop().expect("peeked event must exist"));
        }
        out
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_cycle() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(30), 3);
        q.schedule(Cycle::new(10), 1);
        q.schedule(Cycle::new(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle::new(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(5), ());
        q.schedule(Cycle::new(15), ());
        assert_eq!(q.now(), Cycle::ZERO);
        q.pop();
        assert_eq!(q.now(), Cycle::new(5));
        q.pop();
        assert_eq!(q.now(), Cycle::new(15));
        // Popping an event scheduled in the past never rewinds the clock.
        q.schedule(Cycle::new(1), ());
        q.pop();
        assert_eq!(q.now(), Cycle::new(15));
    }

    #[test]
    fn pop_batch_returns_all_at_earliest_cycle() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(4), 'a');
        q.schedule(Cycle::new(4), 'b');
        q.schedule(Cycle::new(9), 'c');
        let batch = q.pop_batch();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].event, 'a');
        assert_eq!(batch[1].event, 'b');
        assert_eq!(q.len(), 1);
        assert!(q.pop_batch().len() == 1);
        assert!(q.pop_batch().is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(1), ());
        q.schedule(Cycle::new(2), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
