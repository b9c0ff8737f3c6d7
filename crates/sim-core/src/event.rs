//! A binary-heap discrete-event queue for timed simulations.
//!
//! Events carry an arbitrary payload `E` and fire in non-decreasing time
//! order; events scheduled for the same cycle fire in FIFO order of
//! scheduling (a sequence number breaks ties), which keeps simulations
//! deterministic regardless of heap internals.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::Cycle;

#[derive(Debug, Clone)]
struct Entry<E> {
    time: Cycle,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// The queue tracks the simulation's current time: popping an event
/// advances `now()` to that event's timestamp. Scheduling into the past is
/// a logic error and panics, which catches causality bugs early
/// (C-VALIDATE).
///
/// # Example
///
/// ```
/// use ehp_sim_core::event::EventQueue;
/// use ehp_sim_core::time::Cycle;
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { MemResponse(u64), Tick }
///
/// let mut q = EventQueue::new();
/// q.schedule_after(Cycle(3), Ev::Tick);
/// q.schedule_after(Cycle(1), Ev::MemResponse(0xfeed));
/// assert_eq!(q.pop(), Some((Cycle(1), Ev::MemResponse(0xfeed))));
/// assert_eq!(q.now(), Cycle(1));
/// assert_eq!(q.pop(), Some((Cycle(3), Ev::Tick)));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: Cycle,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    #[must_use]
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Cycle::ZERO,
        }
    }

    /// The current simulation time (timestamp of the last popped event).
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time (causality
    /// violation).
    pub fn schedule_at(&mut self, at: Cycle, payload: E) {
        assert!(
            at >= self.now,
            "causality violation: scheduling at {at} but now is {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            time: at,
            seq,
            payload,
        }));
    }

    /// Schedules `payload` to fire `delay` cycles from now.
    pub fn schedule_after(&mut self, delay: Cycle, payload: E) {
        let at = self.now + delay;
        self.schedule_at(at, payload);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.payload))
    }

    /// Timestamp of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Removes and returns the earliest event only if its timestamp is at
    /// or before `limit`; otherwise leaves the queue untouched.
    pub fn pop_due(&mut self, limit: Cycle) -> Option<(Cycle, E)> {
        if self.peek_time()? > limit {
            return None;
        }
        self.pop()
    }

    /// Runs the queue to completion, calling `handler` for each event.
    ///
    /// The handler receives the queue itself so it can schedule follow-up
    /// events; this is the main loop of most simulations in this project.
    /// The queue is left empty (not consumed) so callers can keep using
    /// it — e.g. to interleave bounded runs with external stimulus.
    pub fn run(&mut self, mut handler: impl FnMut(&mut EventQueue<E>, Cycle, E)) -> Cycle {
        while let Some((t, e)) = self.pop() {
            handler(self, t, e);
        }
        self.now
    }

    /// Runs events with timestamps at or before `limit`, calling `handler`
    /// for each; later events stay queued. Returns the current time
    /// afterwards (the last fired timestamp, or the time on entry if
    /// nothing was due).
    pub fn run_until(
        &mut self,
        limit: Cycle,
        mut handler: impl FnMut(&mut EventQueue<E>, Cycle, E),
    ) -> Cycle {
        while let Some((t, e)) = self.pop_due(limit) {
            handler(self, t, e);
        }
        self.now
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycle(30), "c");
        q.schedule_at(Cycle(10), "a");
        q.schedule_at(Cycle(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_events_fire_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(Cycle(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_advances_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycle(42), ());
        assert_eq!(q.now(), Cycle::ZERO);
        q.pop();
        assert_eq!(q.now(), Cycle(42));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycle(10), 1u32);
        q.pop();
        q.schedule_after(Cycle(5), 2u32);
        assert_eq!(q.pop(), Some((Cycle(15), 2)));
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycle(10), ());
        q.pop();
        q.schedule_at(Cycle(5), ());
    }

    #[test]
    fn run_drains_and_allows_rescheduling() {
        let mut q = EventQueue::new();
        q.schedule_at(Cycle(1), 0u32);
        let mut fired = Vec::new();
        let end = q.run(|q, t, n| {
            fired.push((t, n));
            if n < 4 {
                q.schedule_after(Cycle(2), n + 1);
            }
        });
        assert_eq!(fired.len(), 5);
        assert_eq!(end, Cycle(9));
        assert_eq!(fired.last(), Some(&(Cycle(9), 4)));
    }

    #[test]
    fn run_until_stops_at_the_limit_and_keeps_the_queue() {
        let mut q = EventQueue::new();
        for t in [1u64, 5, 9, 13] {
            q.schedule_at(Cycle(t), t);
        }
        let mut fired = Vec::new();
        let at = q.run_until(Cycle(9), |_, t, _| fired.push(t.0));
        assert_eq!(fired, vec![1, 5, 9]);
        assert_eq!(at, Cycle(9));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Cycle(13), 13)));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule_at(Cycle(3), ());
        q.schedule_at(Cycle(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycle(1)));
    }
}
