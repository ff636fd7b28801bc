//! The three workloads, the scenarios each one runs, and the values each
//! must reproduce at the default seed.

use ia_core::ProtocolKind;
use ia_des::SimDuration;
use ia_experiments::figures::chaos;
use ia_experiments::Scenario;

/// The seed at which the pinned values of [`Workload::pinned`] apply.
pub const DEFAULT_SEED: u64 = 1;

/// The paper's advertisement life cycle, seconds.
pub const LIFE_CYCLE_S: f64 = 1800.0;

/// Simulation seeds per `chaos-severe` repetition: `seed * 8 .. seed * 8 + 8`.
pub const CHAOS_BATCH: u64 = 8;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Optimized Gossiping, 3000 peers on the paper's 5 km field.
    OptDense,
    /// Pure Opportunistic Gossiping, 1000 peers: fig. 7's densest point.
    GossipPaper,
    /// The ext-6 severe fault rung over Flooding, Gossiping and Optimized
    /// Gossiping at 300 peers.
    ChaosSevere,
}

/// Whole-workload outputs at the default seed and full life cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pinned {
    pub events: u64,
    pub messages: u64,
    pub receptions: u64,
    pub bytes: u64,
    /// Drops by reason: loss, jam, collision, offline, corrupt.
    pub drops: [u64; 5],
    /// Digest over every scenario's outputs, per-ad delivery rate and
    /// time included (see [`crate::outputs::digest`]).
    pub digest: u64,
    /// Final event-stream fingerprint of the traced run.
    pub fingerprint: u64,
    /// Observer hooks folded into the fingerprint.
    pub hooks: u64,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OptDense,
        Workload::GossipPaper,
        Workload::ChaosSevere,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OptDense => "opt-dense",
            Workload::GossipPaper => "gossip-paper",
            Workload::ChaosSevere => "chaos-severe",
        }
    }

    /// One line on what the workload stresses (written to BENCHMARK.json).
    pub fn why(self) -> &'static str {
        match self {
            Workload::OptDense => {
                "OptGossip 3000 peers: protocol callbacks, ad clones and the deepest event queue dominate; the medium does little"
            }
            Workload::GossipPaper => {
                "Gossip 1000 peers (fig. 7 densest): medium, grid rebuilds and queries dominate; the protocol allocates little"
            }
            Workload::ChaosSevere => {
                "ext-6 severe faults, 3 protocols x 300 peers: the only run of burst loss, jam, CRC codec, partitions, flooding"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenarios one repetition runs, in order, for workload `seed`.
    pub fn scenarios(self, seed: u64, life_cycle: SimDuration) -> Vec<Scenario> {
        let paper = |kind, n, s| {
            Scenario::paper(kind, n)
                .with_seed(s)
                .with_life_cycle(life_cycle)
        };
        match self {
            Workload::OptDense => vec![paper(ProtocolKind::OptGossip, 3000, seed)],
            Workload::GossipPaper => vec![paper(ProtocolKind::Gossip, 1000, seed)],
            Workload::ChaosSevere => {
                let severe = chaos::levels().pop().expect("the chaos ladder has rungs");
                assert_eq!(severe.label, "severe", "last chaos rung is the severe one");
                let base = seed.wrapping_mul(CHAOS_BATCH);
                let mut out = Vec::new();
                for s in (0..CHAOS_BATCH).map(|i| base.wrapping_add(i)) {
                    for kind in [
                        ProtocolKind::Flooding,
                        ProtocolKind::Gossip,
                        ProtocolKind::OptGossip,
                    ] {
                        let mut sc =
                            paper(kind, chaos::N_PEERS, s).with_faults(severe.faults.clone());
                        if let Some(after) = severe.issuer_offline_after {
                            sc = sc.with_issuer_offline_after(after);
                        }
                        out.push(sc);
                    }
                }
                out
            }
        }
    }

    /// How strongly the workload's `World::run` wall time follows the
    /// calibration kernel's slice time: the log-log slope of the run
    /// medians over the slice medians of 30 runs (seeds 1–10 in three
    /// host phases, slices 4–11 ms; see the README). `opt-dense` slows
    /// more than the kernel when the host is busy, `gossip-paper` less.
    pub fn run_elasticity(self) -> f64 {
        match self {
            Workload::OptDense => 1.5,
            Workload::GossipPaper => 0.7,
            Workload::ChaosSevere => 1.0,
        }
    }

    /// What the workload must reproduce at [`DEFAULT_SEED`] over the full
    /// [`LIFE_CYCLE_S`].
    pub fn pinned(self) -> Pinned {
        match self {
            Workload::OptDense => Pinned {
                events: 1_070_294,
                messages: 5_626,
                receptions: 239_292,
                bytes: 1_794_694,
                drops: [0, 0, 0, 0, 0],
                digest: 0x727c_dc3b_5baa_54c1,
                fingerprint: 0x5078_4019_1fd7_a1bb,
                hooks: 247_903,
            },
            Workload::GossipPaper => Pinned {
                events: 1_589_662,
                messages: 79_742,
                receptions: 1_226_298,
                bytes: 25_437_698,
                drops: [0, 0, 0, 0, 0],
                digest: 0x5228_ba56_555b_a754,
                fingerprint: 0x622e_aece_7ec1_f31c,
                hooks: 1_669_395,
            },
            Workload::ChaosSevere => Pinned {
                events: 2_118_656,
                messages: 182_297,
                receptions: 744_560,
                bytes: 58_158_479,
                drops: [85_115, 13_795, 0, 20_471, 36_133],
                digest: 0x3512_e0c0_0fef_5bea,
                fingerprint: 0x25cd_7c2c_8684_3913,
                hooks: 1_869_887,
            },
        }
    }
}
