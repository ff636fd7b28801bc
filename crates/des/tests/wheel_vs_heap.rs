//! Wheel-vs-heap equivalence: the timing-wheel `EventQueue` must be
//! observationally identical to a stable `BinaryHeap` keyed on
//! `(time, seq)`. A reference heap lives in this file, and proptest
//! drives both side-by-side through random push/pop interleavings —
//! including deltas spanning every wheel level and the far-future
//! overflow ring — plus a deterministic model of the Optimized
//! Gossiping-2 postpone storm, where every postponement pushes a new
//! timer and the superseded ones fire and are discarded by the caller.
//! Every pop must match exactly.

use ia_des::{EventQueue, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference queue: a min-heap on `(time, seq)`, where `seq` is the
/// push order, so equal times pop first-in first-out.
struct RefQueue<E> {
    heap: BinaryHeap<Reverse<(u64, u64, ValueCell<E>)>>,
    next_seq: u64,
}

/// Payload wrapper that compares as always-equal so the heap orders
/// purely on `(time, seq)`.
struct ValueCell<E>(E);
impl<E> PartialEq for ValueCell<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for ValueCell<E> {}
impl<E> PartialOrd for ValueCell<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for ValueCell<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> RefQueue<E> {
    fn new() -> Self {
        RefQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, t: u64, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((t, seq, ValueCell(event))));
    }

    fn pop(&mut self) -> Option<(u64, E)> {
        self.heap.pop().map(|Reverse((t, _, cell))| (t, cell.0))
    }
}

/// Both queues side by side: every push goes to both, every pop must
/// agree bitwise.
struct Pair {
    wheel: EventQueue<usize>,
    heap: RefQueue<usize>,
}

impl Pair {
    fn new() -> Self {
        Pair {
            wheel: EventQueue::new(),
            heap: RefQueue::new(),
        }
    }

    fn push(&mut self, t: u64, payload: usize) {
        self.wheel.push(SimTime::from_micros(t), payload);
        self.heap.push(t, payload);
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        let got = self.wheel.pop().map(|(t, p)| (t.as_micros(), p));
        let want = self.heap.pop();
        assert_eq!(got, want, "wheel and heap pops diverged");
        got
    }

    /// Pop both queues dry; the full remaining order must agree.
    fn drain(&mut self) {
        while self.pop().is_some() {}
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `last popped time + delta` with the next payload id.
    Push(u64),
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Deltas chosen to land on every wheel level: level 0 (≤63 µs), mid
    // levels, the top level, and past the 64^8 span into the overflow
    // ring. The vendored `prop_oneof!` is unweighted, so the common
    // small-delta and pop arms are simply repeated.
    prop_oneof![
        (0u64..64).prop_map(Op::Push),
        (0u64..64).prop_map(Op::Push),
        (0u64..100_000).prop_map(Op::Push),
        (0u64..100_000).prop_map(Op::Push),
        (0u64..4_000_000_000).prop_map(Op::Push),
        (1u64 << 47..1 << 52).prop_map(Op::Push),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn wheel_matches_heap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut q = Pair::new();
        let mut now = 0u64;
        for (payload, op) in ops.iter().enumerate() {
            match op {
                Op::Push(delta) => q.push(now.saturating_add(*delta), payload),
                Op::Pop => {
                    if let Some((t, _)) = q.pop() {
                        now = t;
                    }
                }
            }
        }
        q.drain();
    }
}

/// The Optimized Gossiping-2 pattern: each overheard copy postpones a
/// peer's rebroadcast by pushing a new timer; the superseded timers stay
/// queued, fire, and are discarded by the caller, which remembers only
/// each peer's latest timer. Model 32 peers postponing across
/// interleaved pops. Every 64th postponement is pushed `64^k` µs further
/// out (k cycling through 0..=8), so the storm crosses every wheel level
/// and the overflow ring.
#[test]
fn postpone_storm_matches_heap() {
    const PEERS: usize = 32;
    let mut q = Pair::new();
    // Payload = timer number * PEERS + peer; `latest[peer]` is the
    // payload of the peer's current timer.
    let mut latest = [0usize; PEERS];
    let mut timers = 0usize;
    let mut arm = |q: &mut Pair, latest: &mut [usize; PEERS], peer: usize, t: u64| {
        let payload = timers * PEERS + peer;
        timers += 1;
        latest[peer] = payload;
        q.push(t, payload);
    };

    for peer in 0..PEERS {
        arm(&mut q, &mut latest, peer, 1_000 + 37 * peer as u64);
    }

    let mut x: u64 = 0xDEADBEEFCAFE;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };

    let (mut fired, mut stale) = (0u64, 0u64);
    let mut on_pop = |latest: &[usize; PEERS], payload: usize| {
        if latest[payload % PEERS] == payload {
            fired += 1;
        } else {
            stale += 1;
        }
    };
    let mut now = 0u64;
    for round in 0..2_000u64 {
        // A copy is overheard at a pseudo-random peer: postpone it.
        let peer = (rand() % PEERS as u64) as usize;
        let mut delay = 500 + rand() % 50_000;
        if round % 64 == 63 {
            delay += 64u64.pow((round / 64 % 9) as u32);
        }
        arm(&mut q, &mut latest, peer, now + delay);

        // Occasionally let time advance.
        if round % 5 == 0 {
            if let Some((t, payload)) = q.pop() {
                now = t;
                on_pop(&latest, payload);
            }
        }
    }
    while let Some((_, payload)) = q.pop() {
        on_pop(&latest, payload);
    }
    assert!(q.wheel.is_empty());
    assert_eq!(fired + stale, PEERS as u64 + 2_000);
    assert!(stale > 1_000, "most timers are superseded ({stale} stale)");
    assert!(fired >= PEERS as u64, "every peer's last timer fires");
}
