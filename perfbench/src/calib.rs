//! The calibration kernel: a fixed slice of simulator-like work that the
//! untraced repetitions time between worlds, so that the host's speed at
//! that moment can be divided out of `setup_s` and `run_s`.
//!
//! The hosts this benchmark runs on are shared. Co-tenants slow the
//! vCPUs down by up to 3.5× for minutes at a time, and a world's wall
//! time follows. A slice of this kernel, timed right before and right
//! after the world, slows down with it, though not always by the same
//! factor: in the host's busiest phases `opt-dense` slows more than the
//! kernel and `gossip-paper` less. So a world's wall time `t` around which
//! the mean slice time was `s` counts as `t · (REF_SLICE_S / s)^e`:
//! seconds at the reference speed, where the elasticity `e` is the
//! measured log-log slope of that workload's time over slice time
//! ([`SETUP_ELASTICITY`], `Workload::run_elasticity`).
//!
//! A slice mixes the work the simulator does: pops and pushes on an
//! event heap, neighbour scans over a uniform grid of moving points,
//! read-modify-writes at random places in a table larger than the L2
//! cache, and small heap allocations. The code depends on nothing in the
//! simulator, so a change to the simulator cannot change it. Changing
//! this file re-bases `setup_s` and `run_s`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Slice time on an unloaded reference host (Intel Xeon "Sapphire
/// Rapids" KVM guest, 2 vCPUs, rustc 1.95.0; 3.4–3.9 ms measured): the
/// speed every calibrated time is scaled to.
pub const REF_SLICE_S: f64 = 0.004;

/// Elasticity of `World::new` time to the kernel's slice time, shared by
/// every workload (the log-log slope over 30 runs in three host phases,
/// 0.74–0.89 per workload; see the README).
pub const SETUP_ELASTICITY: f64 = 0.8;

/// Wall time `t`, measured while the mean slice time was `slice`, scaled
/// to the reference speed for a workload of the given elasticity.
pub fn at_reference(t: f64, slice: f64, elasticity: f64) -> f64 {
    t * (REF_SLICE_S / slice).powf(elasticity)
}

/// Points on the grid.
const POINTS: usize = 2048;
/// Grid cells per side; the field is the unit square.
const SIDE: usize = 32;
/// Neighbour radius, in field units.
const RADIUS: f32 = 1.5 / SIDE as f32;
/// Table words: 8 MiB, larger than one core's L2.
const TABLE: usize = 1 << 20;
/// Events per slice.
const STEPS: usize = 8_000;

/// xorshift64: fast, deterministic and independent of `ia_des`.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// The kernel's state; it evolves from slice to slice, but every slice
/// does statistically the same work.
pub struct Kernel {
    rng: XorShift,
    pos: Vec<(f32, f32)>,
    cells: Vec<Vec<u32>>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    table: Vec<u64>,
    boxes: Vec<Vec<u64>>,
}

fn cell_of((x, y): (f32, f32)) -> usize {
    let c = |v: f32| ((v * SIDE as f32) as usize).min(SIDE - 1);
    c(x) * SIDE + c(y)
}

impl Kernel {
    pub fn new() -> Self {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        let pos: Vec<(f32, f32)> = (0..POINTS).map(|_| (rng.unit(), rng.unit())).collect();
        let mut cells = vec![Vec::new(); SIDE * SIDE];
        for (i, &p) in pos.iter().enumerate() {
            cells[cell_of(p)].push(i as u32);
        }
        let heap = (0..POINTS as u32)
            .map(|i| Reverse((rng.next() % 1_000, i)))
            .collect();
        let table = (0..TABLE as u64).collect();
        Kernel {
            rng,
            pos,
            cells,
            heap,
            table,
            boxes: Vec::new(),
        }
    }

    fn step(&mut self) -> u64 {
        let Reverse((t, node)) = self.heap.pop().expect("the heap never empties");
        let p = self.pos[node as usize];
        let c = cell_of(p);
        let (cx, cy) = (c / SIDE, c % SIDE);
        let mut acc = 0u64;
        for x in cx.saturating_sub(1)..=(cx + 1).min(SIDE - 1) {
            for y in cy.saturating_sub(1)..=(cy + 1).min(SIDE - 1) {
                for &o in &self.cells[x * SIDE + y] {
                    let q = self.pos[o as usize];
                    if (q.0 - p.0).powi(2) + (q.1 - p.1).powi(2) < RADIUS * RADIUS {
                        let slot = (self.rng.next() as usize) & (TABLE - 1);
                        self.table[slot] = self.table[slot].wrapping_add(o as u64 + t);
                        acc = acc.wrapping_add(self.table[slot]);
                    }
                }
            }
        }
        if acc & 3 == 0 {
            self.boxes.push(vec![acc; 6]);
            if self.boxes.len() > 256 {
                let i = self.rng.next() as usize % self.boxes.len();
                self.boxes.swap_remove(i);
            }
        }
        if t % 8 == 0 {
            // Move the point and keep the grid in step with it.
            let q = (
                (p.0 + (self.rng.unit() - 0.5) * 0.02).clamp(0.0, 0.999),
                (p.1 + (self.rng.unit() - 0.5) * 0.02).clamp(0.0, 0.999),
            );
            let d = cell_of(q);
            if d != c {
                self.cells[c].retain(|&o| o != node);
                self.cells[d].push(node);
            }
            self.pos[node as usize] = q;
        }
        self.heap
            .push(Reverse((t + 1 + self.rng.next() % 1_000, node)));
        acc
    }

    /// Run one slice; returns its wall time in seconds.
    pub fn slice(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..STEPS {
            acc = acc.wrapping_add(self.step());
        }
        black_box(acc);
        t0.elapsed().as_secs_f64()
    }
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}
