//! Layer replays: after a traced run, each layer's public entry points
//! are timed from here on the work that run recorded.
//!
//! Every replay adds raw sums (nanoseconds, operation counts) to a
//! [`Tally`]; sums over a repetition's worlds become the per-layer
//! metrics in [`crate::metrics::per_layer`].

use crate::alloc::allocations;
use crate::recorder::{arrival_digest, Recorder};
use ia_core::{codec, Advertisement};
use ia_des::{rng::stream, Scheduler, SimDuration, SimRng, SimTime};
use ia_experiments::{MobilityKind, Scenario, World};
use ia_geo::{FlatGrid, Point};
use ia_mobility::{
    Fleet, FleetCursor, Manhattan, MobilityModel, RandomWaypoint, Stationary, Trajectory,
};
use ia_radio::{BroadcastOutcome, DropReason, Medium};
use std::hint::black_box;
use std::time::Instant;

/// Passes over the sampled messages per advertisement/codec replay.
const CORE_PASSES: usize = 64;

/// The world's velocity-fix window (two position fixes one second apart).
const VELOCITY_FIX_WINDOW: SimDuration = SimDuration::from_millis(1000);

/// Raw per-layer sums over a repetition's worlds: operation counts and
/// nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub des_events: f64,
    pub des_pushes: f64,
    pub des_pops: f64,
    pub des_cascades: f64,
    pub des_replay_ns: f64,
    pub des_replay_ops: f64,
    pub des_replay_pushes: f64,
    pub radio_broadcasts: f64,
    pub radio_receptions: f64,
    pub radio_grid_rebuilds: f64,
    pub radio_grid_queries: f64,
    pub radio_broadcast_ns: f64,
    pub radio_replayed: f64,
    /// Frame copies that reached a receiver's event: delivered or dropped.
    pub radio_addressed: f64,
    pub geo_rebuild_ns: f64,
    pub geo_rebuilds: f64,
    pub geo_query_ns: f64,
    pub geo_queries: f64,
    pub geo_candidates: f64,
    pub suppress_hooks: f64,
    pub core_deliveries: f64,
    pub core_accepts: f64,
    pub core_ad_clone_ns: f64,
    pub core_ad_clone_allocs: f64,
    pub core_ad_clones: f64,
    pub core_codec_roundtrip_ns: f64,
    pub sketch_absorb_ns: f64,
    pub mobility_fleet_build_ns: f64,
    pub mobility_position_ns: f64,
    pub mobility_velocity_ns: f64,
    pub mobility_lookups: f64,
    pub phase_queue_ns: f64,
    pub phase_grid_ns: f64,
    pub phase_protocol_ns: f64,
    pub phase_observer_ns: f64,
    /// Wall time of the traced and of the untraced `World::run` calls.
    pub trace_run_ns: f64,
    pub untraced_run_ns: f64,
}

fn ns_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// Counters the world itself keeps, plus the recorder's hook counts.
pub fn world_counters(world: &World, rec: &Recorder, tally: &mut Tally) {
    let q = world.queue_stats();
    let medium = world.medium();
    let stats = medium.stats();
    tally.des_events += world.events_processed() as f64;
    tally.des_pushes += q.pushes as f64;
    tally.des_pops += q.pops as f64;
    tally.des_cascades += q.cascades as f64;
    tally.radio_broadcasts += stats.messages as f64;
    tally.radio_receptions += stats.receptions as f64;
    tally.radio_grid_rebuilds += medium.grid_rebuilds() as f64;
    tally.radio_grid_queries += medium.grid_queries() as f64;
    tally.core_deliveries += rec.deliveries as f64;
    tally.core_accepts += rec.accepts as f64;
    tally.suppress_hooks += rec.suppressed as f64;
    tally.radio_addressed += (rec.deliveries + rec.suppressed) as f64;
    if let Some(p) = world.phase_profile() {
        tally.phase_queue_ns += p.queue_ns as f64;
        tally.phase_grid_ns += p.grid_ns as f64;
        tally.phase_protocol_ns += p.protocol_ns as f64;
        tally.phase_observer_ns += p.observer_ns as f64;
    }
}

/// A fresh medium configured as `World::new` configures its own.
fn medium_for(world: &World) -> Medium {
    let sc = world.scenario();
    let mut medium = Medium::new(sc.radio.clone());
    medium.set_fleet_speed_bound(world.fleet().max_speed());
    for zone in &sc.faults.jam_zones {
        medium.add_jam_zone(*zone);
    }
    if let Some(burst) = &sc.faults.burst_loss {
        medium.set_burst_loss(burst.from, burst.until, burst.channel());
    }
    medium
}

/// Replay every recorded broadcast through `Medium::broadcast_into` on a
/// fresh medium with the world's radio stream, and check that it yields
/// the receivers and drops the world reported, and the arrival times and
/// receivers of every frame copy that arrived before the horizon.
/// Returns, per broadcast, whether it rebuilt the grid; a mismatch is
/// added to `failures`.
pub fn radio(
    world: &World,
    rec: &Recorder,
    tally: &mut Tally,
    failures: &mut Vec<String>,
) -> Vec<bool> {
    let fleet = world.fleet();
    let mut medium = medium_for(world);
    let mut rng = SimRng::derive(world.scenario().seed, stream::RADIO);
    let mut out = BroadcastOutcome::default();
    let mut seen = Vec::with_capacity(rec.broadcasts.len());
    let horizon = SimTime::ZERO + world.scenario().sim_time;
    let mut arrivals = 0u64;
    let t0 = Instant::now();
    for b in &rec.broadcasts {
        let rebuilds = medium.grid_rebuilds();
        medium.broadcast_into(fleet, b.t, b.node, b.info.bytes, &mut rng, &mut out);
        let mut drops = [0u64; 3];
        for d in &out.drops {
            drops[match d.reason {
                DropReason::Loss => 0,
                DropReason::Jam => 1,
                DropReason::Collision => 2,
            }] += 1;
        }
        for d in out.deliveries.iter().filter(|d| d.arrival < horizon) {
            arrivals = arrivals.wrapping_add(arrival_digest(d.arrival, d.to));
        }
        seen.push((
            out.deliveries.len(),
            drops,
            medium.grid_rebuilds() != rebuilds,
        ));
    }
    tally.radio_broadcast_ns += ns_since(t0);
    tally.radio_replayed += rec.broadcasts.len() as f64;
    let diverged = rec
        .broadcasts
        .iter()
        .zip(&seen)
        .position(|(b, (receivers, drops, _))| {
            *receivers != b.info.receivers
                || *drops != [b.info.dropped, b.info.jammed, b.info.collisions]
        });
    if let Some(i) = diverged {
        let b = &rec.broadcasts[i];
        failures.push(format!(
            "radio replay diverged at broadcast {i} (t={}, node {}): got {:?}, world reported {:?}",
            b.t, b.node, seen[i], b.info
        ));
    } else if arrivals != rec.arrivals {
        failures.push("radio replay scheduled different frame arrivals than the world".into());
    }
    seen.into_iter().map(|(_, _, rebuilt)| rebuilt).collect()
}

/// Rebuild a `FlatGrid` over a cursor snapshot wherever the radio replay
/// rebuilt its grid, and query it for every broadcast with the medium's
/// stale-widened radius.
pub fn geo(world: &World, rec: &Recorder, rebuilt: &[bool], tally: &mut Tally) {
    let fleet = world.fleet();
    let radio = &world.scenario().radio;
    let speed = radio.max_speed.min(fleet.max_speed());
    let mut cursor = FleetCursor::new();
    let mut grid = FlatGrid::new();
    let mut snapshot = Vec::new();
    let mut queries: Vec<(Point, f64)> = Vec::new();
    let mut found = Vec::new();
    let mut built_at = SimTime::ZERO;
    let (mut query_ns, mut candidates) = (0.0, 0usize);
    let (mut rebuild_ns, mut rebuilds) = (0.0, 0usize);
    let mut flush = |queries: &mut Vec<(Point, f64)>, grid: &FlatGrid| {
        let t0 = Instant::now();
        for &(center, radius) in queries.iter() {
            grid.query_disk_into(center, radius, &mut found);
            candidates += found.len();
        }
        query_ns += ns_since(t0);
        queries.clear();
    };
    for (b, &rebuild) in rec.broadcasts.iter().zip(rebuilt) {
        if rebuild {
            flush(&mut queries, &grid);
            cursor.positions_into(fleet, b.t, &mut snapshot);
            let t0 = Instant::now();
            grid.rebuild(radio.range.max(1.0), &snapshot);
            rebuild_ns += ns_since(t0);
            rebuilds += 1;
            built_at = b.t;
        }
        let center = if b.t == built_at {
            snapshot[b.node as usize]
        } else {
            cursor.position(fleet, b.node, b.t)
        };
        let margin = 2.0 * speed * b.t.since(built_at).as_secs();
        queries.push((center, radio.range + margin));
    }
    flush(&mut queries, &grid);
    tally.geo_rebuild_ns += rebuild_ns;
    tally.geo_rebuilds += rebuilds as f64;
    tally.geo_query_ns += query_ns;
    tally.geo_queries += rec.broadcasts.len() as f64;
    tally.geo_candidates += candidates as f64;
}

/// Push and pop the recorded (scheduled at, fires at) pairs through a
/// fresh `Scheduler` in scheduling order, popping everything due before
/// each push.
pub fn des(rec: &Recorder, tally: &mut Tally) {
    let mut timers = rec.timers.clone();
    timers.sort_by_key(|&(at, _)| at);
    let mut sched: Scheduler<u32> = Scheduler::new();
    let mut pops = 0u64;
    let t0 = Instant::now();
    for (i, &(at, fires)) in timers.iter().enumerate() {
        while sched.peek_time().is_some_and(|t| t < at) {
            black_box(sched.pop());
            pops += 1;
        }
        sched.schedule_at(fires, i as u32);
    }
    while black_box(sched.pop()).is_some() {
        pops += 1;
    }
    tally.des_replay_ns += ns_since(t0);
    tally.des_replay_ops += (timers.len() as u64 + pops) as f64;
    tally.des_replay_pushes += timers.len() as f64;
}

/// `FleetCursor` position and velocity lookups at every recorded
/// dispatch, each on its own fresh cursor.
pub fn mobility(world: &World, rec: &Recorder, tally: &mut Tally) {
    let fleet = world.fleet();
    let mut cursor = FleetCursor::new();
    let mut acc = 0.0;
    let t0 = Instant::now();
    for &(t, node) in &rec.dispatches {
        acc += cursor.position(fleet, node, t).x;
    }
    tally.mobility_position_ns += ns_since(t0);
    let mut cursor = FleetCursor::new();
    let t0 = Instant::now();
    for &(t, node) in &rec.dispatches {
        acc += cursor
            .estimated_velocity(fleet, node, t, VELOCITY_FIX_WINDOW)
            .x;
    }
    tally.mobility_velocity_ns += ns_since(t0);
    tally.mobility_lookups += rec.dispatches.len() as f64;
    black_box(acc);
}

/// Generate the scenario's fleet the way `World::new` does, timed, and
/// check that it matches the world's own fleet.
pub fn fleet_build(world: &World, tally: &mut Tally, failures: &mut Vec<String>) {
    let sc = world.scenario();
    let t0 = Instant::now();
    let fleet = build_fleet(sc);
    tally.mobility_fleet_build_ns += ns_since(t0);
    let probe = SimTime::ZERO + sc.sim_time.mul_f64(0.5);
    let differs = (0..fleet.len() as u32)
        .find(|&node| fleet.position(node, probe) != world.fleet().position(node, probe));
    if let Some(node) = differs {
        failures.push(format!(
            "rebuilt fleet differs from the world's at node {node}"
        ));
    }
}

fn build_fleet(sc: &Scenario) -> Fleet {
    let (start, end) = (SimTime::ZERO, SimTime::ZERO + sc.sim_time);
    let mobile = |model: &dyn MobilityModel| -> Vec<Trajectory> {
        (0..sc.n_peers as u64)
            .map(|i| {
                let mut rng = SimRng::derive(sc.seed, stream::MOBILITY | i);
                model.trajectory(&mut rng, start, end)
            })
            .collect()
    };
    let mut trajectories = match sc.mobility {
        MobilityKind::RandomWaypoint => mobile(
            &RandomWaypoint::paper(sc.area, sc.speed_mean, sc.speed_delta)
                .with_pause(0.0, sc.pause_max),
        ),
        MobilityKind::Manhattan => {
            mobile(&Manhattan::paper(sc.area, sc.speed_mean, sc.speed_delta))
        }
    };
    for spec in &sc.ads {
        let mut rng = SimRng::derive(sc.seed, stream::PLACEMENT);
        trajectories.push(Stationary::at(spec.issue_pos).trajectory(&mut rng, start, end));
    }
    Fleet::from_trajectories(trajectories)
}

/// Advertisement clones, sketch absorbs and frame codec round trips over
/// the sampled messages; every sampled message must survive the codec.
pub fn core(rec: &Recorder, tally: &mut Tally, failures: &mut Vec<String>) {
    let msgs = &rec.messages;
    if msgs
        .iter()
        .any(|m| codec::decode_frame(&codec::encode_frame(m)).as_ref() != Ok(m))
    {
        failures.push("a sampled message did not survive a codec round trip".into());
    }
    let mut clones: Vec<Advertisement> = Vec::with_capacity(msgs.len());
    let (mut clone_ns, mut clone_allocs) = (0.0, 0);
    for _ in 0..CORE_PASSES {
        let a0 = allocations();
        let t0 = Instant::now();
        for m in msgs {
            clones.push(m.ad.clone());
        }
        clone_ns += ns_since(t0);
        clone_allocs += allocations() - a0;
        clones.clear();
    }
    tally.core_ad_clone_ns += clone_ns;
    tally.core_ad_clone_allocs += clone_allocs as f64;
    tally.core_ad_clones += (CORE_PASSES * msgs.len()) as f64;

    // One accumulator per advertisement absorbs every sampled copy of it.
    let mut accs: Vec<Advertisement> = Vec::new();
    let slots: Vec<usize> = msgs
        .iter()
        .map(|m| match accs.iter().position(|a| a.id == m.ad.id) {
            Some(i) => i,
            None => {
                accs.push(m.ad.clone());
                accs.len() - 1
            }
        })
        .collect();
    let t0 = Instant::now();
    for _ in 0..CORE_PASSES {
        for (m, &slot) in msgs.iter().zip(&slots) {
            accs[slot].absorb(&m.ad);
        }
    }
    tally.sketch_absorb_ns += ns_since(t0);
    black_box(&accs);

    let t0 = Instant::now();
    for _ in 0..CORE_PASSES {
        for m in msgs {
            let frame = codec::encode_frame(black_box(m));
            black_box(codec::decode_frame(&frame).is_ok());
        }
    }
    tally.core_codec_roundtrip_ns += ns_since(t0);
}
