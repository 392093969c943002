//! A deterministic discrete-event queue.
//!
//! The orchestrator schedules future actions (idle-instance termination,
//! demand-window expiry, host maintenance reboots) as events on this queue.
//! The world pops due events while advancing its simulation time.
//!
//! Determinism: events at the same instant are delivered in insertion order
//! (a monotone sequence number breaks ties), so a fixed seed always replays
//! the same trajectory.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::SimTime;

/// A scheduled event carrying a payload of type `T`.
#[derive(Debug, Clone)]
pub struct Event<T> {
    due: SimTime,
    seq: u64,
    payload: T,
}

impl<T> Event<T> {
    /// When the event fires.
    pub fn due(&self) -> SimTime {
        self.due
    }

    /// Borrows the payload.
    pub fn payload(&self) -> &T {
        &self.payload
    }

    /// Consumes the event, returning the payload.
    pub fn into_payload(self) -> T {
        self.payload
    }
}

// Order by (due, seq), inverted for the max-heap so the earliest event pops
// first.
impl<T> PartialEq for Event<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}

impl<T> Eq for Event<T> {}

impl<T> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Event<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// A time-ordered queue of future events.
///
/// # Examples
///
/// ```
/// use eaao_simcore::events::EventQueue;
/// use eaao_simcore::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(10), "reap");
/// q.schedule(SimTime::from_secs(5), "expire-window");
/// let first = q.pop_due(SimTime::from_secs(7)).expect("due");
/// assert_eq!(*first.payload(), "expire-window");
/// assert!(q.pop_due(SimTime::from_secs(7)).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Event<T>>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` to fire at `due`.
    pub fn schedule(&mut self, due: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { due, seq, payload });
    }

    /// Schedules a whole batch of events in one pass.
    ///
    /// Events are assigned consecutive sequence numbers in iteration
    /// order, exactly as if [`schedule`](EventQueue::schedule) had been
    /// called once per item — same-instant FIFO semantics are preserved —
    /// but the heap is restructured once via [`BinaryHeap::append`], which
    /// amortizes to O(k + log n) for large batches instead of k separate
    /// O(log n) sift-ups.
    pub fn schedule_batch(&mut self, batch: impl IntoIterator<Item = (SimTime, T)>) {
        let staged: BinaryHeap<Event<T>> = batch
            .into_iter()
            .map(|(due, payload)| {
                let seq = self.next_seq;
                self.next_seq += 1;
                Event { due, seq, payload }
            })
            .collect();
        let mut staged = staged;
        self.heap.append(&mut staged);
    }

    /// The time of the earliest pending event, if any.
    pub fn next_due(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.due)
    }

    /// Pops the earliest event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Event<T>> {
        if self.heap.peek().is_some_and(|e| e.due <= now) {
            self.heap.pop()
        } else {
            None
        }
    }

    /// Pops every event due at or before `now`, in firing order.
    pub fn drain_due(&mut self, now: SimTime) -> Vec<Event<T>> {
        let mut out = Vec::new();
        while let Some(e) = self.pop_due(now) {
            out.push(e);
        }
        out
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<T: fmt::Debug> fmt::Display for EventQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EventQueue({} pending)", self.heap.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'c');
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        let fired: Vec<char> = q
            .drain_due(SimTime::from_secs(10))
            .into_iter()
            .map(Event::into_payload)
            .collect();
        assert_eq!(fired, vec!['a', 'b', 'c']);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let fired: Vec<i32> = q
            .drain_due(t)
            .into_iter()
            .map(Event::into_payload)
            .collect();
        assert_eq!(fired, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_batch_preserves_fifo_ties_with_singles() {
        // A batch interleaved with single schedules keeps one global
        // insertion order for same-instant ties.
        let t = SimTime::from_secs(1);
        let mut q = EventQueue::new();
        q.schedule(t, 0);
        q.schedule_batch((1..=3).map(|i| (t, i)));
        q.schedule(t, 4);
        q.schedule_batch([(SimTime::from_secs(0), 99), (t, 5)]);
        let fired: Vec<i32> = q
            .drain_due(SimTime::from_secs(2))
            .into_iter()
            .map(Event::into_payload)
            .collect();
        assert_eq!(fired, vec![99, 0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert!(q.pop_due(SimTime::from_secs(4)).is_none());
        assert_eq!(q.len(), 1);
        let e = q.pop_due(SimTime::from_secs(5)).unwrap();
        assert_eq!(e.due(), SimTime::from_secs(5));
    }

    #[test]
    fn next_due_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.next_due().is_none());
        q.schedule(SimTime::from_secs(8), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.next_due(), Some(SimTime::from_secs(2)));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.to_string(), "EventQueue(0 pending)");
    }

    #[test]
    fn event_accessors() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), String::from("x"));
        let e = q.pop_due(SimTime::from_secs(1)).unwrap();
        assert_eq!(e.payload(), "x");
        assert_eq!(e.into_payload(), "x");
    }
}
