//! The pending-event set: a stable push/pop priority queue.
//!
//! The queue is a hierarchical timing wheel (the `wheel` module) over a
//! recycled slab arena (the `arena` module). The wheel moves only
//! compact `(time, seq, slot)` keys; payloads stay put in the slab from
//! schedule to fire, and at steady state every slot is recycled, so push
//! and pop allocate nothing (pinned by the counting-allocator benches in
//! `crates/bench`).
//!
//! The contract:
//! * pops come out in `(time, seq)` order — events at equal timestamps
//!   fire in insertion order (NS-2 calendar queues make the same
//!   guarantee, and several protocol behaviours — e.g. "receive before
//!   your own round timer at the same instant" — depend on a stable
//!   order). The equivalence with a stable binary heap is pinned by a
//!   wheel-vs-heap proptest in `crates/des/tests/wheel_vs_heap.rs`.
//! * push and pop are the only operations: every pushed event pops
//!   exactly once, unless `clear` drops it. A caller that supersedes a
//!   timer (Optimized Gossiping-2 postponing its rebroadcast) pushes a
//!   new one and discards the stale wake-up when it fires.
//!
//! Scheduling at or below the last popped time is best-effort (such
//! events still pop, first), but the [`crate::Scheduler`] layer rejects
//! past scheduling outright.

use crate::arena::EventArena;
use crate::time::SimTime;
use crate::wheel::TimingWheel;

/// Operation counters, cheap enough to maintain unconditionally.
/// Consumed by the `perfstat` harness for per-phase breakdowns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events pushed over the queue's lifetime.
    pub pushes: u64,
    /// Events delivered by `pop`.
    pub pops: u64,
    /// Timing-wheel cascade moves (node re-placements on level descent).
    pub cascades: u64,
}

/// A time-ordered, FIFO-stable event queue.
pub struct EventQueue<E> {
    wheel: TimingWheel,
    arena: EventArena<E>,
    /// Count of pending events.
    len: usize,
    /// Events pushed so far; also the next push's `seq`.
    pushes: u64,
    pops: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            wheel: TimingWheel::new(),
            arena: EventArena::new(),
            len: 0,
            pushes: 0,
            pops: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lifetime operation counters.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            pushes: self.pushes,
            pops: self.pops,
            cascades: self.wheel.cascades(),
        }
    }

    /// Enqueue `event` at time `t`.
    pub fn push(&mut self, t: SimTime, event: E) {
        let seq = self.pushes;
        self.pushes += 1;
        self.len += 1;
        let slot = self.arena.insert(t, seq, event);
        self.wheel.schedule(&mut self.arena, t, seq, slot);
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, _seq, event) = self.wheel.pop(&mut self.arena)?;
        self.len -= 1;
        self.pops += 1;
        Some((t, event))
    }

    /// Timestamp of the earliest event, or `None` when empty.
    pub fn peek_time(&self) -> Option<SimTime> {
        // Read-only wheel scan; cheap at the front (the common case) and
        // never worse than the O(n) heap scan it replaced. Only used by
        // stepped drivers (`run_until`), never in the hot pop loop.
        self.wheel.peek(&self.arena).map(|(t, _)| t)
    }

    /// Drop every pending event. Sequence numbers keep counting.
    pub fn clear(&mut self) {
        self.wheel.clear();
        self.arena.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.push(t(2.0), "b1");
        q.push(t(1.0), "a");
        q.push(t(2.0), "b2");
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        assert_eq!(q.pop(), Some((t(2.0), "b1")));
        assert_eq!(q.pop(), Some((t(2.0), "b2")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn len_tracks_pushes_and_pops() {
        let mut q = EventQueue::new();
        q.push(t(1.0), 1);
        q.push(t(2.0), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((t(1.0), 1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop(), Some((t(2.0), 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_empty_is_none() {
        let q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clear_empties_everything() {
        let mut q = EventQueue::new();
        q.push(t(1.0), 1);
        q.push(t(2.0), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        // The queue keeps working after a clear.
        q.push(t(3.0), 3);
        assert_eq!(q.pop(), Some((t(3.0), 3)));
    }

    #[test]
    fn many_events_maintain_order_invariant() {
        // Insert pseudo-random times; pops must come out sorted.
        let mut q = EventQueue::new();
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for i in 0..1000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.push(SimTime::from_micros(x % 1_000_000), i);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((ti, _)) = q.pop() {
            assert!(ti >= last);
            last = ti;
            n += 1;
        }
        assert_eq!(n, 1000);
    }

    #[test]
    fn stats_count_operations() {
        let mut q = EventQueue::new();
        q.push(t(1.0), 1);
        q.push(t(2.0), 2);
        q.pop();
        let s = q.stats();
        assert_eq!((s.pushes, s.pops), (2, 1));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Regardless of the push order, pops are `(time, push order)`
        /// sorted and every pushed event comes out exactly once.
        #[test]
        fn pop_order_and_membership(
            times in proptest::collection::vec(0u64..1_000, 1..100),
        ) {
            let mut q = EventQueue::new();
            for (i, &tt) in times.iter().enumerate() {
                q.push(SimTime::from_micros(tt), i);
            }
            let mut expect: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, &tt)| (tt, i)).collect();
            expect.sort_unstable();
            let mut got = Vec::new();
            while let Some((tt, i)) = q.pop() {
                got.push((tt.as_micros(), i));
            }
            prop_assert_eq!(got, expect);
        }
    }
}
