//! A deterministic, time-bucketed discrete-event queue.
//!
//! Events pop in exactly `(at, insertion)` order: by their scheduled
//! [`Cycle`], and in FIFO insertion order among events scheduled for the
//! same cycle, so a simulation is fully deterministic.
//!
//! Cycles are grouped into buckets of a fixed power-of-two width. The
//! current bucket (the earliest one that has received events) and anything
//! scheduled at or before it sit in a small binary heap ordered by
//! `(at, insertion)`. Every later bucket is an append-only `Vec`, kept in a
//! `BTreeMap` keyed by bucket number, so an event in the far future costs
//! one map entry, not space in proportion to its distance. Once the heap is
//! empty and time reaches the next bucket, that bucket's events move into
//! the heap, and its emptied `Vec` is kept for reuse. Scheduling is thus an
//! append, and popping sifts through the events of one bucket, not through
//! every pending event.
//!
//! The queue does not know what its events mean. A caller whose events can
//! go stale checks each one as it pops and skips it: the system's predicted
//! L3 invalidations are skipped at pop when the line has since been
//! evicted or touched again.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};

use crate::time::Cycle;

/// log2 of a bucket's width in cycles.
const BUCKET_SHIFT: u32 = 10;

/// The bucket that cycle `at` falls in.
fn bucket(at: Cycle) -> u64 {
    at.raw() >> BUCKET_SHIFT
}

/// An event together with the cycle at which it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// Cycle at which the event fires.
    pub at: Cycle,
    /// The event payload.
    pub event: E,
}

/// An event in the heap, ordered by `(at, seq)`. `seq` counts the events
/// that entered the heap: a bucket's events enter it together, in their
/// insertion order, and only into an empty heap, and any event scheduled
/// into that bucket afterwards enters it directly. So within one cycle,
/// `seq` order is insertion order.
#[derive(Debug)]
struct Due<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Due<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Due<E> {}

impl<E> PartialOrd for Due<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Due<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so BinaryHeap (a max-heap) pops the earliest event first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
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
/// q.schedule(Cycle::new(20_000), "later");
/// q.schedule(Cycle::new(5), "sooner");
/// q.schedule(Cycle::new(5), "sooner-second");
///
/// let first = q.pop_due(Cycle::new(10)).unwrap();
/// assert_eq!((first.at, first.event), (Cycle::new(5), "sooner"));
/// assert_eq!(q.pop_due(Cycle::new(10)).unwrap().event, "sooner-second");
/// // Nothing else is due by cycle 10.
/// assert!(q.pop_due(Cycle::new(10)).is_none());
/// assert_eq!(q.pop_due(Cycle::MAX).unwrap().event, "later");
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Every pending event of bucket `current` or earlier.
    due: BinaryHeap<Due<E>>,
    /// The latest bucket whose events go to `due`.
    current: u64,
    /// The `seq` of the next event to enter `due`.
    next_seq: u64,
    /// Every pending event after bucket `current`, by bucket, each bucket
    /// in insertion order. No bucket here is empty.
    later: BTreeMap<u64, Vec<ScheduledEvent<E>>>,
    /// Emptied bucket `Vec`s, kept for reuse.
    spare: Vec<Vec<ScheduledEvent<E>>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue. It allocates nothing until an event is
    /// scheduled.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            due: BinaryHeap::new(),
            current: 0,
            next_seq: 0,
            later: BTreeMap::new(),
            spare: Vec::new(),
        }
    }

    /// Number of pending events (a sum over the pending buckets).
    #[must_use]
    pub fn len(&self) -> usize {
        self.due.len() + self.later.values().map(Vec::len).sum::<usize>()
    }

    /// Whether the queue has no pending events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.due.is_empty() && self.later.is_empty()
    }

    /// Schedules `event` to fire at cycle `at`. An event scheduled before
    /// one that has already popped pops as soon as it is due.
    pub fn schedule(&mut self, at: Cycle, event: E) {
        let b = bucket(at);
        if b <= self.current {
            self.push_due(at, event);
        } else {
            let spare = &mut self.spare;
            self.later
                .entry(b)
                .or_insert_with(|| spare.pop().unwrap_or_default())
                .push(ScheduledEvent { at, event });
        }
    }

    /// Removes and returns the earliest pending event if it fires at or
    /// before `now`, and returns `None` otherwise.
    pub fn pop_due(&mut self, now: Cycle) -> Option<ScheduledEvent<E>> {
        if self.due.is_empty() {
            let (&next, _) = self.later.first_key_value()?;
            if next > bucket(now) {
                return None;
            }
            let (_, mut events) = self.later.pop_first()?;
            self.current = next;
            let seq = self.next_seq;
            self.next_seq += events.len() as u64;
            self.due.extend(
                events
                    .drain(..)
                    .zip(seq..)
                    .map(|(ScheduledEvent { at, event }, seq)| Due { at, seq, event }),
            );
            self.spare.push(events);
        }
        if self.due.peek()?.at > now {
            return None;
        }
        self.due
            .pop()
            .map(|Due { at, event, .. }| ScheduledEvent { at, event })
    }

    fn push_due(&mut self, at: Cycle, event: E) {
        self.due.push(Due {
            at,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DeterministicRng;

    /// Pops every event due by `now`, as `(at, payload)` pairs.
    fn drain<E>(q: &mut EventQueue<E>, now: Cycle) -> Vec<(u64, E)> {
        std::iter::from_fn(|| q.pop_due(now).map(|e| (e.at.raw(), e.event))).collect()
    }

    #[test]
    fn orders_by_cycle() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(30_000), 3);
        q.schedule(Cycle::new(10), 1);
        q.schedule(Cycle::new(2_000), 2);
        assert_eq!(q.len(), 3);
        let order: Vec<i32> = drain(&mut q, Cycle::MAX).into_iter().map(|e| e.1).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Cycle::new(7_000), i);
        }
        // The last 50 are scheduled once their bucket is the current one.
        assert!(q.pop_due(Cycle::new(7_000)).is_some());
        for i in 100..150 {
            q.schedule(Cycle::new(7_000), i);
        }
        let order: Vec<i32> = drain(&mut q, Cycle::new(7_000))
            .into_iter()
            .map(|e| e.1)
            .collect();
        assert_eq!(order, (1..150).collect::<Vec<_>>());
    }

    #[test]
    fn nothing_pops_before_it_is_due() {
        let mut q = EventQueue::new();
        q.schedule(Cycle::new(5_000), 'a');
        assert!(q.pop_due(Cycle::new(4_999)).is_none());
        // Bucket 4 (4,096..5,119) is current now, but 'a' is not yet due.
        assert!(q.pop_due(Cycle::new(4_096)).is_none());
        // An event in the past of the current bucket pops first.
        q.schedule(Cycle::new(1), 'b');
        assert_eq!(
            drain(&mut q, Cycle::new(5_000)),
            vec![(1, 'b'), (5_000, 'a')]
        );
    }

    /// A sorted reference queue: pops the least `(at, seq)` that is due.
    #[derive(Default)]
    struct Model {
        pending: Vec<(u64, u64, u32)>,
        next_seq: u64,
    }

    impl Model {
        fn schedule(&mut self, at: u64, id: u32) {
            self.pending.push((at, self.next_seq, id));
            self.next_seq += 1;
            self.pending.sort_unstable();
        }

        fn pop_due(&mut self, now: u64) -> Option<(u64, u32)> {
            let &(at, _, id) = self.pending.first()?;
            (at <= now).then(|| {
                self.pending.remove(0);
                (at, id)
            })
        }
    }

    /// Random schedules and interleaved `pop_due` calls, checked pop by pop
    /// against [`Model`]. The `at`s cover ties with pending events, the
    /// past, the current bucket, runs into one later bucket, later buckets
    /// near and far, and the far future.
    #[test]
    fn matches_a_sorted_model_under_random_schedules() {
        let width = 1u64 << BUCKET_SHIFT;
        for seed in 0..24 {
            let mut rng = DeterministicRng::from_seed(seed);
            let mut q = EventQueue::new();
            let mut model = Model::default();
            let mut now = 0u64;
            let mut id = 0u32;
            let mut last_at = 0u64;
            for _ in 0..600 {
                if rng.chance(0.6) {
                    let at = match rng.below(7) {
                        // a tie with a pending event
                        0 if !model.pending.is_empty() => {
                            let i = rng.below(model.pending.len() as u64) as usize;
                            model.pending[i].0
                        }
                        // the past
                        1 => rng.below(now + 1),
                        // the current bucket
                        2 => (now & !(width - 1)) + rng.below(width),
                        // the far future
                        3 => u64::MAX - rng.below(4 * width),
                        // a later bucket, near or a few hundred away
                        4 => {
                            let buckets = rng.range(1, 400);
                            now + rng.below(width * buckets)
                        }
                        // near the previous schedule
                        5 => last_at.saturating_add(rng.below(width / 2)),
                        _ => now + rng.below(4 * width),
                    };
                    last_at = at;
                    q.schedule(Cycle::new(at), id);
                    model.schedule(at, id);
                    id += 1;
                } else {
                    now += match rng.below(4) {
                        0 => 0,
                        1 => rng.below(width / 4),
                        2 => rng.below(4 * width),
                        _ => rng.below(200 * width),
                    };
                    for _ in 0..rng.range(1, 8) {
                        let got = q.pop_due(Cycle::new(now)).map(|e| (e.at.raw(), e.event));
                        assert_eq!(got, model.pop_due(now), "seed {seed}, now {now}");
                    }
                }
                assert_eq!(q.len(), model.pending.len(), "seed {seed}");
            }
            let rest: Vec<(u64, u32)> = std::iter::from_fn(|| model.pop_due(u64::MAX)).collect();
            assert_eq!(drain(&mut q, Cycle::MAX), rest, "seed {seed}");
            assert!(q.is_empty());
        }
    }
}
