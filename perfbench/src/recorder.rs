//! The traced run's recording observer: an event-stream fingerprint plus
//! the inputs the layer replays need.

use crate::outputs::Fnv;
use ia_core::{AdId, AdMessage, RxMeta};
use ia_des::SimTime;
use ia_experiments::{BroadcastInfo, SimObserver, SuppressReason};

/// Hooks between two fingerprint checkpoints.
pub const CHECKPOINT_EVERY: u64 = 1 << 16;
/// Every this many-th delivered message is kept for the core replays.
pub const SAMPLE_EVERY: u64 = 997;
/// Cap on kept messages per world.
pub const MAX_SAMPLES: usize = 256;

/// One transmission as the world reported it.
#[derive(Clone, Copy, Debug)]
pub struct RecordedBroadcast {
    pub t: SimTime,
    pub node: u32,
    pub info: BroadcastInfo,
}

/// Records every observer hook of one world.
#[derive(Default)]
pub struct Recorder {
    /// Rolling hash over (kind, time, node, ad) of every hook.
    pub hash: Fnv,
    pub hooks: u64,
    /// `hash` after every [`CHECKPOINT_EVERY`] hooks, so two diverging
    /// streams can be told apart by window.
    pub checkpoints: Vec<u64>,
    pub broadcasts: Vec<RecordedBroadcast>,
    /// (time, node) of every observed protocol dispatch: receptions and
    /// rounds, in event order.
    pub dispatches: Vec<(SimTime, u32)>,
    /// (scheduled at, fires at) of every observed reception and round.
    /// A reception is scheduled by its sender's latest broadcast, a round
    /// by the node's previous round (or its start at time zero).
    pub timers: Vec<(SimTime, SimTime)>,
    /// Delivered messages sampled for the advertisement and codec replays.
    pub messages: Vec<AdMessage>,
    /// Order-independent digest of every (arrival, receiver) of a frame
    /// copy that reached its receiver's event, delivered or dropped there
    /// (receiver off-line, checksum failure); see [`arrival_digest`].
    pub arrivals: u64,
    pub deliveries: u64,
    pub accepts: u64,
    pub suppressed: u64,
    last_broadcast: Vec<SimTime>,
    last_round: Vec<SimTime>,
}

fn ad_word(ad: AdId) -> u64 {
    (ad.issuer.0 as u64) << 32 | ad.seq as u64
}

/// Digest term of one frame arrival; terms are summed, so the total does
/// not depend on the order arrivals are seen in.
pub fn arrival_digest(t: SimTime, node: u32) -> u64 {
    let mut z = t.as_micros() ^ (node as u64) << 44;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The latest time stored for `node`, or zero; grows `v` to hold it.
fn slot(v: &mut Vec<SimTime>, node: u32) -> &mut SimTime {
    let i = node as usize;
    if v.len() <= i {
        v.resize(i + 1, SimTime::ZERO);
    }
    &mut v[i]
}

impl Recorder {
    fn hook(&mut self, kind: u64, t: SimTime, node: u32, ad: u64) {
        for w in [kind, t.as_micros(), node as u64, ad] {
            self.hash.word(w);
        }
        self.hooks += 1;
        if self.hooks.is_multiple_of(CHECKPOINT_EVERY) {
            self.checkpoints.push(self.hash.0);
        }
    }
}

impl SimObserver for Recorder {
    fn on_broadcast(&mut self, now: SimTime, node: u32, msg: &AdMessage, info: &BroadcastInfo) {
        self.hook(1, now, node, ad_word(msg.ad.id));
        self.broadcasts.push(RecordedBroadcast {
            t: now,
            node,
            info: *info,
        });
        *slot(&mut self.last_broadcast, node) = now;
    }

    fn on_deliver(&mut self, now: SimTime, to: u32, msg: &AdMessage, meta: &RxMeta) {
        self.hook(2, now, to, ad_word(msg.ad.id));
        if self.deliveries.is_multiple_of(SAMPLE_EVERY) && self.messages.len() < MAX_SAMPLES {
            self.messages.push(msg.clone());
        }
        self.deliveries += 1;
        self.arrivals = self.arrivals.wrapping_add(arrival_digest(now, to));
        self.dispatches.push((now, to));
        let sent = *slot(&mut self.last_broadcast, meta.from);
        self.timers.push((sent, now));
    }

    fn on_accept(&mut self, now: SimTime, node: u32, ad: AdId) {
        self.hook(3, now, node, ad_word(ad));
        self.accepts += 1;
    }

    fn on_suppress(&mut self, now: SimTime, to: u32, msg: &AdMessage, reason: SuppressReason) {
        let code = match reason {
            SuppressReason::Offline => 0,
            SuppressReason::ChannelLoss => 1,
            SuppressReason::Jammed => 2,
            SuppressReason::Collision => 3,
            SuppressReason::Corrupted => 4,
        };
        self.hook(16 + code, now, to, ad_word(msg.ad.id));
        if matches!(reason, SuppressReason::Offline | SuppressReason::Corrupted) {
            self.arrivals = self.arrivals.wrapping_add(arrival_digest(now, to));
        }
        self.suppressed += 1;
    }

    fn on_cache_evict(&mut self, now: SimTime, node: u32, ad: AdId) {
        self.hook(4, now, node, ad_word(ad));
    }

    fn on_round(&mut self, now: SimTime, node: u32) {
        self.hook(5, now, node, u64::MAX);
        self.dispatches.push((now, node));
        let last = slot(&mut self.last_round, node);
        self.timers.push((*last, now));
        *last = now;
    }

    fn on_depart(&mut self, now: SimTime, node: u32) {
        self.hook(6, now, node, u64::MAX);
    }

    fn on_rejoin(&mut self, now: SimTime, node: u32) {
        self.hook(7, now, node, u64::MAX);
    }
}
