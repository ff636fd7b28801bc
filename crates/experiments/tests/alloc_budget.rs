//! Whole-run allocation budget: the heap allocations `World::run` makes
//! are bounded by the advertisement copies the run itself counts —
//! broadcasts and accepts — plus the geometric growth of recycled
//! buffers. The component proofs in `ia-bench` show that single callbacks
//! do not allocate; this shows that nothing else in a whole run does
//! either (entry timers, rounds, duplicate receipts, the medium, the
//! scheduler and the observers).
//!
//! A thread-local counting allocator attributes allocations to the thread
//! that made them, so the tests in this binary may run in parallel.

use ia_core::{AdId, AdMessage, ProtocolKind};
use ia_des::{SimDuration, SimTime};
use ia_experiments::{BroadcastInfo, Scenario, SimObserver, World};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct ThreadCountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator may run while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for ThreadCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: ThreadCountingAllocator = ThreadCountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// The run's own counts of the events that copy an advertisement.
#[derive(Default)]
struct Copies {
    broadcasts: u64,
    accepts: u64,
}

impl SimObserver for Copies {
    fn on_broadcast(&mut self, _: SimTime, _: u32, _: &AdMessage, _: &BroadcastInfo) {
        self.broadcasts += 1;
    }

    fn on_accept(&mut self, _: SimTime, _: u32, _: AdId) {
        self.accepts += 1;
    }
}

/// Allocations per broadcast: the copy's sketch registers and the
/// `Arc`'d message the medium shares among the receivers.
const PER_BROADCAST: u64 = 2;
/// Allocations per accept: the copy admitted to the cache (gossip) or the
/// first-receipt record (flooding), plus at most one node of the delivery
/// tracker's per-peer record.
const PER_ACCEPT: u64 = 2;
/// Allocations per issued ad: `Advertisement::new` builds the topic list,
/// its shared slice and the sketch registers.
const PER_ISSUE: u64 = 3;
/// Upper bound on the recycled buffers that may grow during a run
/// (scheduler due batch, grid arrays, position snapshot, cursor lanes,
/// broadcast outcome, action sink, traffic timeline, issuer list). Each
/// grows geometrically, so it reallocates at most `log2(len) + 1` times.
const GROWING_BUFFERS: u64 = 16;

fn check_budget(kind: ProtocolKind, peers: usize, seed: u64) {
    let s = Scenario::paper(kind, peers)
        .with_seed(seed)
        .with_life_cycle(SimDuration::from_secs(600.0));
    let issued = s.ads.len() as u64;
    let mut w = World::new(s);
    w.attach_observer(Box::new(Copies::default()));
    let before = allocations();
    w.run();
    let allocated = allocations() - before;

    let events = w.events_processed();
    let c = w.observer::<Copies>().expect("attached above");
    assert!(
        c.broadcasts > 0 && c.accepts > 0,
        "{kind}: the ad never spread"
    );
    let growth = GROWING_BUFFERS * (events.max(1).ilog2() as u64 + 1);
    let budget =
        PER_BROADCAST * c.broadcasts + PER_ACCEPT * c.accepts + PER_ISSUE * issued + growth;
    assert!(
        allocated <= budget,
        "{kind} ({peers} peers, seed {seed}): {allocated} allocations over {events} events \
         exceed the budget {budget} ({} broadcasts, {} accepts, {issued} issues, growth {growth})",
        c.broadcasts,
        c.accepts,
    );
}

#[test]
fn optimized_gossiping_run_stays_within_its_copy_budget() {
    for seed in [1, 2] {
        check_budget(ProtocolKind::OptGossip, 200, seed);
    }
}

#[test]
fn optimized_gossiping_2_run_stays_within_its_copy_budget() {
    check_budget(ProtocolKind::OptGossip2, 200, 3);
}

#[test]
fn pure_gossiping_run_stays_within_its_copy_budget() {
    for seed in [1, 2] {
        check_budget(ProtocolKind::Gossip, 200, seed);
    }
}

#[test]
fn flooding_run_stays_within_its_copy_budget() {
    for seed in [1, 2] {
        check_budget(ProtocolKind::Flooding, 200, seed);
    }
}
