//! Component microbenchmarks: the hot paths of every substrate.
//!
//! This binary also *proves* the event-sink contract: every allocation
//! goes through the counting global allocator below, and
//! `bench_sink_dispatch` asserts that the protocol callback hot path —
//! a duplicate receipt pushed through a warm, reused [`ActionSink`] —
//! performs zero allocations per event, and `bench_ad_copies` asserts
//! the ad-copy budget: entry timers and gossip rounds allocate exactly
//! once per broadcast they push, and an advertisement clone and an
//! encoded frame allocate once each. The companion `vec_collect`
//! benchmark measures the old return-a-`Vec<Action>` shape for
//! comparison.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ia_core::{
    build_protocol, codec, postpone, prob, Action, ActionSink, AdId, AdMessage, Advertisement,
    GossipParams, PeerContext, PeerId, Protocol, ProtocolKind, RxMeta, UserProfile,
};
use ia_des::{EventQueue, SimDuration, SimRng, SimTime};
use ia_geo::{Circle, FlatGrid, Point, UniformGrid, Vector};
use ia_mobility::{Fleet, MobilityModel, RandomWaypoint};
use ia_radio::{BroadcastOutcome, Medium, RadioConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator wrapper that counts every allocation, so benchmarks
/// can assert allocation-freedom rather than eyeball it.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("des_event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut x: u64 = 0x9E3779B97F4A7C15;
            for i in 0..10_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                q.push(SimTime::from_micros(x % 1_000_000), i);
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            n
        })
    });
}

/// Postponement churn modelled on Optimized Gossiping-2: every peer
/// keeps one current broadcast timer, and each arriving copy postpones
/// it by pushing a new timer. Superseded timers stay queued, fire, and
/// are discarded by the caller, exactly as `Gossip::on_entry_timer`
/// ignores stale wake-ups. The workload is therefore one push per round
/// with a pop every fifth round, then a full drain.
const CHURN_PEERS: usize = 32;
const CHURN_ROUNDS: usize = 512;

/// Pass starts are aligned to 64^6-µs blocks: far larger than one pass's
/// time span, so within a pass every event time shares the block's high
/// bits and the wheel's XOR-based level placement is exactly
/// translation-invariant from pass to pass. That keeps successive passes
/// structurally identical (same chains, cascades, and buffer peaks),
/// which the zero-alloc proof below relies on.
const CHURN_BLOCK: u64 = 1 << 36;

/// One churn pass from `start`; returns how many popped timers were
/// still current (not superseded) when they fired.
fn churn(q: &mut EventQueue<usize>, start: u64) -> u64 {
    // Payload = timer number * CHURN_PEERS + peer.
    let mut latest = [0usize; CHURN_PEERS];
    let mut timers = 0usize;
    let mut arm = |q: &mut EventQueue<usize>, latest: &mut [usize], peer: usize, t: u64| {
        let payload = timers * CHURN_PEERS + peer;
        timers += 1;
        latest[peer] = payload;
        q.push(SimTime::from_micros(t), payload);
    };
    let mut now = start;
    for peer in 0..CHURN_PEERS {
        arm(q, &mut latest, peer, now + 1_000 + 37 * peer as u64);
    }
    let mut x: u64 = 0xDEADBEEFCAFE;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut fired = 0u64;
    for round in 0..CHURN_ROUNDS {
        let peer = (rand() % CHURN_PEERS as u64) as usize;
        arm(q, &mut latest, peer, now + 500 + rand() % 50_000);
        if round % 5 == 0 {
            if let Some((t, payload)) = q.pop() {
                now = t.as_micros();
                fired += (latest[payload % CHURN_PEERS] == payload) as u64;
            }
        }
    }
    while let Some((_, payload)) = q.pop() {
        fired += (latest[payload % CHURN_PEERS] == payload) as u64;
    }
    fired
}

fn bench_queue_churn(c: &mut Criterion) {
    // Zero-alloc proof: a warm wheel's push/pop churn must not touch the
    // allocator. The first passes size the slab arena, the due batch,
    // and the slot chains; later block-aligned passes are structurally
    // identical and must recycle every one of them.
    let mut q: EventQueue<usize> = EventQueue::new();
    let mut pass = 1u64;
    let mut warm_fired = 0;
    for _ in 0..2 {
        warm_fired = black_box(churn(&mut q, pass * CHURN_BLOCK));
        pass += 1;
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let fired = churn(&mut q, pass * CHURN_BLOCK);
    pass += 1;
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "wheel push/pop churn allocated {allocated} times over {CHURN_ROUNDS} rounds"
    );
    // Every pass replays the same PRNG sequence, so the count of current
    // timers that fire must be identical pass to pass.
    assert_eq!(fired, warm_fired);
    println!(
        "des_queue_churn_wheel: 0 allocations over {CHURN_ROUNDS} postpone rounds, stale timers fired and discarded (verified)"
    );

    c.bench_function("des_queue_churn_wheel", |b| {
        b.iter(|| {
            let fired = black_box(churn(&mut q, pass * CHURN_BLOCK));
            pass += 1;
            fired
        })
    });
}

fn bench_grid(c: &mut Criterion) {
    let mut rng = SimRng::from_master(1);
    let pts: Vec<(u32, Point)> = (0..1000)
        .map(|i| {
            (
                i,
                Point::new(rng.range_f64(0.0, 5000.0), rng.range_f64(0.0, 5000.0)),
            )
        })
        .collect();
    let grid = UniformGrid::build(250.0, pts.clone());
    c.bench_function("geo_grid_disk_query_1000pts", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            grid.query_disk_into(black_box(Point::new(2500.0, 2500.0)), 250.0, &mut out);
            out.len()
        })
    });

    // The CSR replacement, same workload: queries hit id-sorted packed
    // runs (no per-query sort), rebuilds are two counting-sort passes
    // into recycled buffers.
    let positions: Vec<Point> = pts.iter().map(|&(_, p)| p).collect();
    let mut flat = FlatGrid::new();
    flat.rebuild(250.0, &positions);
    c.bench_function("geo_flat_grid_disk_query_1000pts", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            flat.query_disk_into(black_box(Point::new(2500.0, 2500.0)), 250.0, &mut out);
            out.len()
        })
    });
    c.bench_function("geo_flat_grid_rebuild_1000pts", |b| {
        b.iter(|| {
            flat.rebuild(250.0, black_box(&positions));
            flat.len()
        })
    });

    // grid_rebuild_query: steady-state rebuild + query cycles through a
    // warm FlatGrid must not touch the allocator at all.
    let mut out = Vec::with_capacity(1024);
    for _ in 0..4 {
        flat.rebuild(250.0, &positions);
        for q in 0..64 {
            let p = Point::new(78.125 * q as f64, 5000.0 - 78.125 * q as f64);
            flat.query_disk_into(p, 250.0, &mut out);
            black_box(out.len());
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    flat.rebuild(250.0, &positions);
    for q in 0..64 {
        let p = Point::new(78.125 * q as f64, 5000.0 - 78.125 * q as f64);
        flat.query_disk_into(p, 250.0, &mut out);
        black_box(out.len());
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "grid_rebuild_query allocated {allocated} times (rebuild + 64 queries)"
    );
    println!("grid_rebuild_query: 0 allocations over rebuild + 64 queries (verified)");
}

fn bench_lens(c: &mut Criterion) {
    let a = Circle::new(Point::ORIGIN, 250.0);
    c.bench_function("geo_lens_overlap_fraction", |b| {
        let mut d = 0.0f64;
        b.iter(|| {
            d = (d + 7.3) % 250.0;
            a.overlap_fraction(&Circle::new(Point::new(black_box(d), 0.0), 250.0))
        })
    });
}

fn bench_mobility(c: &mut Criterion) {
    let model = RandomWaypoint::paper(ia_geo::Rect::with_size(5000.0, 5000.0), 10.0, 5.0);
    c.bench_function("mobility_rwp_generate_2000s", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut rng = SimRng::from_master(seed);
            model.trajectory(&mut rng, SimTime::ZERO, SimTime::from_secs(2000.0))
        })
    });
    let mut rng = SimRng::from_master(9);
    let tr = model.trajectory(&mut rng, SimTime::ZERO, SimTime::from_secs(2000.0));
    c.bench_function("mobility_position_lookup", |b| {
        let mut t = 0.0f64;
        b.iter(|| {
            t = (t + 13.7) % 2000.0;
            tr.position_at(SimTime::from_secs(black_box(t)))
        })
    });
}

fn bench_radio(c: &mut Criterion) {
    let model = RandomWaypoint::paper(ia_geo::Rect::with_size(5000.0, 5000.0), 10.0, 5.0);
    let fleet = Fleet::generate(&model, 1000, 3, SimTime::ZERO, SimTime::from_secs(200.0));
    c.bench_function("radio_broadcast_1000_nodes", |b| {
        let mut medium = Medium::new(RadioConfig::paper());
        let mut rng = SimRng::from_master(4);
        let mut src = 0u32;
        b.iter(|| {
            src = (src + 1) % 1000;
            medium.broadcast(&fleet, SimTime::from_secs(100.0), src, 300, &mut rng)
        })
    });

    // The zero-alloc proof for the broadcast → protocol-dispatch chain:
    // `broadcast_into` through a recycled outcome buffer, every resulting
    // delivery fed into a warm protocol `on_receive` through a reused
    // sink. The paper radio has no contention, so nothing in the steady
    // state may allocate — grid rebuilds *included* (the CSR index and
    // the position snapshot rebuild into recycled buffers; a second
    // assertion below forces a rebuild before every broadcast).
    let params = GossipParams::paper();
    let mut peer = build_protocol(
        ProtocolKind::OptGossip,
        params.clone(),
        UserProfile::indifferent(1),
    );
    let ad = Advertisement::new(
        AdId::new(PeerId(7), 0),
        Point::new(2500.0, 2500.0),
        SimTime::from_secs(10.0),
        1000.0,
        SimDuration::from_secs(1800.0),
        vec![1],
        200,
        &params,
    );
    let msg = AdMessage::gossip(ad);
    let mut medium = Medium::new(RadioConfig::paper());
    let mut rng = SimRng::from_master(4);
    let mut out = BroadcastOutcome::default();
    let mut sink = ActionSink::new();
    let t = SimTime::from_secs(100.0);
    let chain = |medium: &mut Medium,
                 peer: &mut dyn ia_core::Protocol,
                 out: &mut BroadcastOutcome,
                 sink: &mut ActionSink,
                 rng: &mut SimRng,
                 src: u32| {
        medium.broadcast_into(&fleet, t, src, 300, rng, out);
        for d in &out.deliveries {
            let meta = RxMeta {
                sender_pos: d.sender_pos,
                from: d.from,
                distance: d.distance,
            };
            let mut ctx = PeerContext {
                now: t,
                position: d.sender_pos,
                velocity: Vector::new(-10.0, 0.0),
                rng,
            };
            peer.on_receive(&mut ctx, &msg, &meta, sink);
            for action in sink.drain() {
                black_box(&action);
            }
        }
        black_box(out.deliveries.len())
    };
    // Warm-up: a full pass over every source sizes the grid, the leg
    // cursors, the scratch/outcome buffers, and the peer's ad cache.
    for src in 0..1000 {
        chain(
            &mut medium,
            peer.as_mut(),
            &mut out,
            &mut sink,
            &mut rng,
            src,
        );
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for src in 0..1000 {
        chain(
            &mut medium,
            peer.as_mut(),
            &mut out,
            &mut sink,
            &mut rng,
            src,
        );
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "broadcast_into -> dispatch allocated {allocated} times over 1000 broadcasts"
    );
    println!("radio_broadcast_into_dispatch: 0 allocations over 1000 broadcasts (verified)");

    // Same chain with a forced grid rebuild (snapshot resample + CSR
    // counting sort) before every broadcast: still zero allocations.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for src in 0..256 {
        medium.invalidate_grid();
        chain(
            &mut medium,
            peer.as_mut(),
            &mut out,
            &mut sink,
            &mut rng,
            src,
        );
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "rebuild -> broadcast_into -> dispatch allocated {allocated} times over 256 rebuilds"
    );
    println!("radio_rebuild_broadcast_dispatch: 0 allocations over 256 forced rebuilds (verified)");

    c.bench_function("radio_broadcast_into_dispatch_1000_nodes", |b| {
        let mut src = 0u32;
        b.iter(|| {
            src = (src + 1) % 1000;
            chain(
                &mut medium,
                peer.as_mut(),
                &mut out,
                &mut sink,
                &mut rng,
                src,
            )
        })
    });
}

fn bench_formulas(c: &mut Criterion) {
    let mut group = c.benchmark_group("core_formulas");
    {
        let alpha = 0.5f64;
        group.bench_with_input(BenchmarkId::new("formula1", alpha), &alpha, |b, &a| {
            let mut d = 0.0;
            b.iter(|| {
                d = (d + 17.0) % 2000.0;
                prob::forwarding_probability(a, black_box(d), 1000.0, 100.0, 25.0)
            })
        });
        group.bench_with_input(BenchmarkId::new("formula3", alpha), &alpha, |b, &a| {
            let mut d = 0.0;
            b.iter(|| {
                d = (d + 17.0) % 2000.0;
                prob::annular_probability(a, black_box(d), 1000.0, 250.0, 100.0, 25.0, 25.0)
            })
        });
    }

    group.bench_function("formula2_radius", |b| {
        let mut t = 0.0;
        b.iter(|| {
            t = (t + 3.0) % 1800.0;
            prob::radius_at(
                0.5,
                1000.0,
                SimDuration::from_secs(black_box(t)),
                SimDuration::from_secs(1800.0),
                SimDuration::from_secs(5.0),
            )
        })
    });
    group.bench_function("formula4_postponement", |b| {
        let mut d = 0.0;
        b.iter(|| {
            d = (d + 3.0) % 250.0;
            postpone::postponement(
                SimDuration::from_secs(5.0),
                Point::ORIGIN,
                Vector::new(10.0, 3.0),
                Point::new(black_box(d), 10.0),
                250.0,
            )
        })
    });
    group.finish();
}

fn bench_sink_dispatch(c: &mut Criterion) {
    let params = GossipParams::paper();
    let mut peer = build_protocol(
        ProtocolKind::OptGossip,
        params.clone(),
        UserProfile::indifferent(1),
    );
    let mut rng = SimRng::from_master(5);
    let ad = Advertisement::new(
        AdId::new(PeerId(7), 0),
        Point::new(2500.0, 2500.0),
        SimTime::from_secs(10.0),
        1000.0,
        SimDuration::from_secs(1800.0),
        vec![1],
        200,
        &params,
    );
    let msg = AdMessage::gossip(ad);
    let meta = RxMeta {
        sender_pos: Point::new(2550.0, 2500.0),
        from: 3,
        distance: 50.0,
    };
    let position = Point::new(2520.0, 2500.0);
    let velocity = Vector::new(-10.0, 0.0);

    // Prime the peer (first receipt caches the ad — that one allocates)
    // and warm the sink's capacity, exactly as the simulation world does.
    let mut sink = ActionSink::new();
    let event =
        |peer: &mut dyn ia_core::Protocol, rng: &mut SimRng, sink: &mut ActionSink, i: u64| {
            let mut ctx = PeerContext {
                now: SimTime::from_secs(10.0 + i as f64 * 1e-3),
                position,
                velocity,
                rng,
            };
            // Duplicate receipt: the per-event hot path (absorb + postpone).
            peer.on_receive(&mut ctx, &msg, &meta, sink);
            for action in sink.drain() {
                black_box(&action);
            }
        };
    for i in 0..16 {
        event(peer.as_mut(), &mut rng, &mut sink, i);
    }

    // The proof: N further events through the warm sink, zero allocations.
    const EVENTS: u64 = 10_000;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..EVENTS {
        event(peer.as_mut(), &mut rng, &mut sink, 16 + i);
    }
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocated, 0,
        "sink hot path allocated {allocated} times over {EVENTS} events"
    );
    println!("protocol_dispatch_sink_reuse: 0 allocations over {EVENTS} events (verified)");

    let mut n = 16 + EVENTS;
    c.bench_function("protocol_dispatch_sink_reuse", |b| {
        b.iter(|| {
            n += 1;
            event(peer.as_mut(), &mut rng, &mut sink, n);
        })
    });
    // The pre-refactor API shape: every callback returns a fresh
    // Vec<Action>. One allocation per non-empty event, for comparison.
    c.bench_function("protocol_dispatch_vec_collect", |b| {
        b.iter(|| {
            n += 1;
            let mut ctx = PeerContext {
                now: SimTime::from_secs(10.0 + n as f64 * 1e-3),
                position,
                velocity,
                rng: &mut rng,
            };
            let actions = ActionSink::collect(|out| peer.on_receive(&mut ctx, &msg, &meta, out));
            black_box(actions.len())
        })
    });
}

/// Heap allocations made while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// On the rim of the advertising area the forwarding probability is
/// about 1/2, so both outcomes of the coin flip are exercised.
const RIM: Point = Point::new(3500.0, 2500.0);

/// Run one callback of a stationary peer on the rim at `now` seconds,
/// drain the sink, and return how many broadcasts the callback pushed.
fn rim_callback(
    peer: &mut dyn Protocol,
    now: f64,
    rng: &mut SimRng,
    sink: &mut ActionSink,
    f: impl FnOnce(&mut dyn Protocol, &mut PeerContext<'_>, &mut ActionSink),
) -> u64 {
    let mut ctx = PeerContext {
        now: SimTime::from_secs(now),
        position: RIM,
        velocity: Vector::new(0.0, 0.0),
        rng,
    };
    f(peer, &mut ctx, sink);
    let mut broadcasts = 0;
    for action in sink.drain() {
        broadcasts += matches!(action, Action::Broadcast(_)) as u64;
        black_box(&action);
    }
    broadcasts
}

/// Fire `n` rim callbacks one round apart from `*now`, returning the
/// broadcasts they pushed and the allocations they made.
fn every_round(
    peer: &mut dyn Protocol,
    now: &mut f64,
    n: u64,
    rng: &mut SimRng,
    sink: &mut ActionSink,
    f: impl Fn(&mut dyn Protocol, &mut PeerContext<'_>, &mut ActionSink) + Copy,
) -> (u64, u64) {
    let round = GossipParams::paper().round_time.as_secs();
    let mut broadcasts = 0;
    let allocated = allocations_during(|| {
        for _ in 0..n {
            *now += round;
            broadcasts += rim_callback(peer, *now, rng, sink, f);
        }
    });
    (broadcasts, allocated)
}

/// The ad-copy budget: a protocol callback allocates exactly once per ad
/// copy it puts on air (the copy's sketch registers) and nothing else.
/// Entry timers whose coin flip loses and pure-gossip round refreshes
/// therefore allocate nothing; `Advertisement::clone` allocates once,
/// because copies share the topic list and derive the hash family.
fn bench_ad_copies(c: &mut Criterion) {
    let params = GossipParams::paper();
    let ad = |seq: u32| {
        Advertisement::new(
            AdId::new(PeerId(7), seq),
            Point::new(2500.0, 2500.0),
            SimTime::from_secs(10.0),
            1000.0,
            // Long-lived, so thousands of rounds run before it expires.
            SimDuration::from_secs(1.0e6),
            vec![1, 4, 9],
            200,
            &params,
        )
    };
    let meta = RxMeta {
        sender_pos: Point::new(3450.0, 2500.0),
        from: 3,
        distance: 50.0,
    };
    let mut rng = SimRng::from_master(11);
    let mut sink = ActionSink::new();

    let original = ad(0);
    let mut copy = None;
    let allocated = allocations_during(|| copy = Some(original.clone()));
    assert_eq!(
        allocated, 1,
        "Advertisement::clone allocated {allocated} times"
    );
    assert_eq!(copy.as_ref(), Some(&original));
    drop(copy);
    println!("advertisement_clone: 1 allocation per copy (verified)");
    c.bench_function("advertisement_clone", |b| {
        b.iter(|| black_box(&original).clone())
    });

    // A checked frame (body + CRC trailer) is written into one buffer
    // sized up front, so encoding it allocates exactly once.
    let on_air = AdMessage::gossip(original.clone());
    black_box(codec::encode_frame(&on_air));
    let mut frame = Vec::new();
    let allocated = allocations_during(|| frame = codec::encode_frame(black_box(&on_air)));
    assert_eq!(
        allocated, 1,
        "codec::encode_frame allocated {allocated} times"
    );
    assert_eq!(
        frame.len(),
        codec::message_encoded_len(&on_air) + codec::FRAME_CRC_BYTES
    );
    println!("codec_encode_frame: 1 allocation per frame (verified)");

    // OptGossip entry timers copy the ad only when the coin flip wins,
    // so allocations == broadcasts exactly.
    const TIMERS: u64 = 4_000;
    let mut peer = build_protocol(
        ProtocolKind::OptGossip,
        params.clone(),
        UserProfile::indifferent(1),
    );
    let msg = AdMessage::gossip(ad(0));
    let on_timer = |p: &mut dyn Protocol, ctx: &mut PeerContext<'_>, out: &mut ActionSink| {
        p.on_entry_timer(ctx, msg.ad.id, out)
    };
    rim_callback(peer.as_mut(), 20.0, &mut rng, &mut sink, |p, ctx, out| {
        p.on_receive(ctx, &msg, &meta, out)
    });
    let mut now = 20.0;
    every_round(peer.as_mut(), &mut now, 16, &mut rng, &mut sink, on_timer);
    let (broadcasts, allocated) = every_round(
        peer.as_mut(),
        &mut now,
        TIMERS,
        &mut rng,
        &mut sink,
        on_timer,
    );
    assert!(
        0 < broadcasts && broadcasts < TIMERS,
        "both coin-flip outcomes must occur ({broadcasts}/{TIMERS} won)"
    );
    assert_eq!(
        allocated, broadcasts,
        "{TIMERS} entry timers pushed {broadcasts} broadcasts but allocated {allocated} times"
    );
    println!(
        "protocol_entry_timer: 0 allocations over {} lost coin flips, 1 per broadcast (verified)",
        TIMERS - broadcasts
    );

    // Pure-gossip rounds over a full cache: refreshing every entry's
    // probability allocates nothing; only the broadcast copies do.
    const ROUNDS: u64 = 1_000;
    let mut peer = build_protocol(
        ProtocolKind::Gossip,
        params.clone(),
        UserProfile::indifferent(1),
    );
    for seq in 0..params.cache_capacity as u32 {
        let msg = AdMessage::gossip(ad(seq));
        rim_callback(peer.as_mut(), 20.0, &mut rng, &mut sink, |p, ctx, out| {
            p.on_receive(ctx, &msg, &meta, out)
        });
    }
    let on_round = |p: &mut dyn Protocol, ctx: &mut PeerContext<'_>, out: &mut ActionSink| {
        p.on_round(ctx, out)
    };
    let mut now = 20.0;
    every_round(peer.as_mut(), &mut now, 16, &mut rng, &mut sink, on_round);
    let (broadcasts, allocated) = every_round(
        peer.as_mut(),
        &mut now,
        ROUNDS,
        &mut rng,
        &mut sink,
        on_round,
    );
    assert!(0 < broadcasts && broadcasts < ROUNDS * params.cache_capacity as u64);
    assert_eq!(
        allocated, broadcasts,
        "{ROUNDS} gossip rounds pushed {broadcasts} broadcasts but allocated {allocated} times"
    );
    println!(
        "protocol_gossip_round: 0 allocations beyond the {broadcasts} broadcasts of {ROUNDS} full-cache rounds (verified)"
    );
    c.bench_function("protocol_gossip_round_full_cache", |b| {
        b.iter(|| every_round(peer.as_mut(), &mut now, 1, &mut rng, &mut sink, on_round))
    });
}

criterion_group!(
    benches,
    bench_sink_dispatch,
    bench_ad_copies,
    bench_event_queue,
    bench_queue_churn,
    bench_grid,
    bench_lens,
    bench_mobility,
    bench_radio,
    bench_formulas
);
criterion_main!(benches);
