//! The simulated outputs every timed run is checked against.

use crate::workload::Pinned;
use ia_experiments::World;

/// FNV-1a over 64-bit words: the digest and fingerprint hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub const fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// What one finished world reports.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutputs {
    pub events: u64,
    pub messages: u64,
    pub receptions: u64,
    pub bytes: u64,
    /// Dropped frame copies by reason: loss, jam, collision, offline,
    /// corrupt.
    pub drops: [u64; 5],
    /// Per advertisement: passage delivery rate (%) and mean delivery
    /// time (s).
    pub ads: Vec<(f64, f64)>,
}

impl SimOutputs {
    pub fn of(world: &World) -> Self {
        let stats = world.medium().stats();
        let (offline, corrupted) = world
            .timeline()
            .rounds()
            .iter()
            .fold((0, 0), |(o, c), r| (o + r.offline, c + r.corrupted));
        SimOutputs {
            events: world.events_processed(),
            messages: stats.messages,
            receptions: stats.receptions,
            bytes: stats.bytes_sent,
            drops: [
                stats.drops,
                stats.jammed,
                stats.collisions,
                offline,
                corrupted,
            ],
            ads: world
                .tracker()
                .outcomes()
                .iter()
                .map(|o| (o.delivery_rate, o.mean_delivery_time))
                .collect(),
        }
    }

    fn fold_into(&self, h: &mut Fnv) {
        for w in [self.events, self.messages, self.receptions, self.bytes] {
            h.word(w);
        }
        for d in self.drops {
            h.word(d);
        }
        for &(rate, time) in &self.ads {
            h.word(rate.to_bits());
            h.word(time.to_bits());
        }
    }
}

/// Digest over the outputs of every scenario of one repetition, in order.
pub fn digest(outputs: &[SimOutputs]) -> u64 {
    let mut h = Fnv::new();
    for o in outputs {
        o.fold_into(&mut h);
    }
    h.0
}

/// Describe how one repetition's outputs differ from the pinned values
/// (the fingerprint fields are checked by the traced run).
pub fn check_pinned(outputs: &[SimOutputs], pinned: &Pinned) -> Result<(), String> {
    let sum = |f: fn(&SimOutputs) -> u64| outputs.iter().map(f).sum::<u64>();
    let mut drops = [0; 5];
    for o in outputs {
        for (d, x) in drops.iter_mut().zip(o.drops) {
            *d += x;
        }
    }
    let got = [
        ("events", sum(|o| o.events), pinned.events),
        ("messages", sum(|o| o.messages), pinned.messages),
        ("receptions", sum(|o| o.receptions), pinned.receptions),
        ("bytes", sum(|o| o.bytes), pinned.bytes),
        ("digest", digest(outputs), pinned.digest),
    ];
    let mut diffs: Vec<String> = got
        .iter()
        .filter(|(_, g, p)| g != p)
        .map(|(name, g, p)| format!("{name} {g} (pinned {p})"))
        .collect();
    if drops != pinned.drops {
        diffs.push(format!("drops {drops:?} (pinned {:?})", pinned.drops));
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(diffs.join(", "))
    }
}
