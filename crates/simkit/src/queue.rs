//! FIFO request queue with waiting-time accounting.
//!
//! MoDM's request scheduler keeps a cache-hit queue and a cache-miss queue
//! (paper Fig 4); this type backs both, and also the single queue of the
//! baseline systems. Waiting time feeds the latency/SLO metrics.

use std::collections::VecDeque;

use crate::stats::StreamingStats;
use crate::time::SimTime;

/// An item waiting in a [`FifoQueue`] together with its enqueue time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Queued<T> {
    /// The queued payload.
    pub item: T,
    /// When the payload entered the queue.
    pub enqueued_at: SimTime,
}

/// First-in-first-out queue that tracks depth and waiting time statistics.
///
/// # Example
///
/// ```
/// use modm_simkit::{FifoQueue, SimTime};
/// let mut q = FifoQueue::new();
/// q.push(SimTime::from_secs_f64(0.0), "req-1");
/// q.push(SimTime::from_secs_f64(1.0), "req-2");
/// let popped = q.pop(SimTime::from_secs_f64(3.0)).unwrap();
/// assert_eq!(popped.item, "req-1");
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct FifoQueue<T> {
    items: VecDeque<Queued<T>>,
    wait_stats: StreamingStats,
    peak_depth: usize,
    total_enqueued: u64,
}

impl<T> Default for FifoQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FifoQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        FifoQueue {
            items: VecDeque::new(),
            wait_stats: StreamingStats::new(),
            peak_depth: 0,
            total_enqueued: 0,
        }
    }

    /// Enqueues `item` at virtual time `now`.
    pub fn push(&mut self, now: SimTime, item: T) {
        self.items.push_back(Queued {
            item,
            enqueued_at: now,
        });
        self.total_enqueued += 1;
        self.peak_depth = self.peak_depth.max(self.items.len());
    }

    /// Dequeues the oldest item at virtual time `now`, recording its wait.
    pub fn pop(&mut self, now: SimTime) -> Option<Queued<T>> {
        let q = self.items.pop_front()?;
        self.wait_stats
            .record(now.saturating_since(q.enqueued_at).as_secs_f64());
        Some(q)
    }

    /// Looks at the oldest item without removing it.
    pub fn peek(&self) -> Option<&Queued<T>> {
        self.items.front()
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Deepest the queue has ever been.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// Total number of items ever enqueued.
    pub fn total_enqueued(&self) -> u64 {
        self.total_enqueued
    }

    /// Waiting-time statistics (seconds) over all dequeued items.
    pub fn wait_stats(&self) -> &StreamingStats {
        &self.wait_stats
    }

    /// Iterates over the queued items from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = &Queued<T>> {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = FifoQueue::new();
        for i in 0..5 {
            q.push(SimTime::from_micros(i), i);
        }
        for i in 0..5 {
            assert_eq!(q.pop(SimTime::from_micros(100)).unwrap().item, i);
        }
        assert!(q.pop(SimTime::from_micros(100)).is_none());
    }

    #[test]
    fn wait_times_recorded() {
        let mut q = FifoQueue::new();
        q.push(SimTime::from_secs_f64(0.0), "a");
        q.push(SimTime::from_secs_f64(0.0), "b");
        q.pop(SimTime::from_secs_f64(2.0));
        q.pop(SimTime::from_secs_f64(4.0));
        assert_eq!(q.wait_stats().count(), 2);
        assert!((q.wait_stats().mean() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn peak_depth_tracked() {
        let mut q = FifoQueue::new();
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        q.push(SimTime::ZERO, 3);
        q.pop(SimTime::ZERO);
        q.push(SimTime::ZERO, 4);
        assert_eq!(q.peak_depth(), 3);
        assert_eq!(q.total_enqueued(), 4);
    }
}
