//! Time-ordered event queue.
//!
//! The queue is a binary heap keyed by `(SimTime, sequence)`. The sequence
//! number breaks ties in insertion order, which keeps simulations
//! deterministic when several events fire at the same instant (e.g. a request
//! arrival and a worker completion in the same microsecond).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::profile;
use crate::time::SimTime;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic time-ordered event queue.
///
/// # Example
///
/// ```
/// use modm_simkit::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_micros(20), "b");
/// q.schedule(SimTime::from_micros(10), "a");
/// q.schedule(SimTime::from_micros(10), "a2"); // same time: FIFO among ties
/// let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!["a", "a2", "b"]);
/// ```
pub struct EventQueue<E> {
    /// The earliest pending entry, held outside the heap. Invariant: `front`
    /// is `Some` whenever the queue is non-empty, and its `(at, seq)` key is
    /// strictly the minimum over all pending entries. The dominant DES
    /// pattern — pop an event, schedule its successor, pop again — then
    /// costs zero heap operations when the successor fires next.
    front: Option<Entry<E>>,
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            front: None,
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Creates an empty queue with room for `capacity` pending events before
    /// the backing heap reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            front: None,
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Schedules `event` to fire at `at`.
    ///
    /// Scheduling in the past (before the last popped event) is allowed but
    /// the event fires "now" from the consumer's perspective; the simulation
    /// clock never runs backwards.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        profile::timed(profile::Subsystem::EventHeap, || {
            let seq = self.next_seq;
            self.next_seq += 1;
            let entry = Entry { at, seq, event };
            match &self.front {
                None => self.front = Some(entry),
                // Strict: equal `at` keeps the earlier-seq front in place,
                // preserving insertion-order tie-breaks.
                Some(f) if (at, seq) < (f.at, f.seq) => {
                    let displaced = self.front.replace(entry).expect("front checked Some");
                    self.heap.push(displaced);
                }
                Some(_) => self.heap.push(entry),
            }
        })
    }

    /// Removes and returns the earliest event, with the (monotonic) time at
    /// which it fires.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        profile::timed(profile::Subsystem::EventHeap, || {
            let entry = self.front.take()?;
            self.front = self.heap.pop();
            // Clamp so consumers observe a monotone clock even if someone
            // scheduled into the past.
            let at = entry.at.max(self.last_popped);
            self.last_popped = at;
            Some((at, entry.event))
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some())
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.front.is_none()
    }

    /// Drops all pending events and resets the queue to its initial state:
    /// the sequence counter and monotonic-clock watermark start over, so a
    /// cleared queue behaves exactly like a fresh one.
    pub fn clear(&mut self) {
        self.front = None;
        self.heap.clear();
        self.next_seq = 0;
        self.last_popped = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for (t, v) in [(5u64, 'e'), (1, 'a'), (3, 'c'), (2, 'b'), (4, 'd')] {
            q.schedule(SimTime::from_micros(t), v);
        }
        let out: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(out, vec!['a', 'b', 'c', 'd', 'e']);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let out: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_never_goes_backwards() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), "first");
        let (t1, _) = q.pop().unwrap();
        q.schedule(SimTime::from_micros(5), "late-scheduled");
        let (t2, _) = q.pop().unwrap();
        assert!(t2 >= t1);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_resets_clock_and_sequence() {
        // Regression: clear() used to leave last_popped and next_seq stale,
        // so a reused queue clamped early events forward in time.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(100), "old");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(100));
        q.clear();
        q.schedule(SimTime::from_micros(5), "fresh");
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(5), "watermark must reset");
        assert_eq!(e, "fresh");

        // The tie-break counter starts over too: a cleared queue pops
        // same-time events in post-clear insertion order.
        q.clear();
        q.schedule(SimTime::from_micros(1), "a");
        q.schedule(SimTime::from_micros(1), "b");
        let out: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(out, vec!["a", "b"]);
    }

    #[test]
    fn front_slot_preserves_order_under_interleaving() {
        // Exercise the front-slot fast path: interleave schedules that land
        // before, at, and after the current front, with pops between.
        let mut q = EventQueue::new();
        let mut popped = Vec::new();
        q.schedule(SimTime::from_micros(50), 50);
        q.schedule(SimTime::from_micros(10), 10); // displaces front
        q.schedule(SimTime::from_micros(30), 30); // lands in heap
        popped.push(q.pop().unwrap()); // 10; refill from heap
        q.schedule(SimTime::from_micros(20), 20); // displaces refilled front
        q.schedule(SimTime::from_micros(20), 21); // ties with front: stays behind
        while let Some(p) = q.pop() {
            popped.push(p);
        }
        let order: Vec<i32> = popped.iter().map(|&(_, e)| e).collect();
        assert_eq!(order, vec![10, 20, 21, 30, 50]);
        let times: Vec<SimTime> = popped.iter().map(|&(t, _)| t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(64);
        for (t, v) in [(3u64, 'c'), (1, 'a'), (2, 'b')] {
            q.schedule(SimTime::from_micros(t), v);
        }
        assert_eq!(q.len(), 3);
        let out: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(out, vec!['a', 'b', 'c']);
    }
}
