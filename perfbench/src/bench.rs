//! The measurement loops: untraced repetitions for the end-to-end
//! metrics, traced repetitions for the per-layer ones.
//!
//! Each repetition runs every scenario of the workload once and counts as
//! one attempted operation. It fails when its simulated outputs, its
//! allocation count or (traced) its event-stream fingerprint differ from
//! the first repetition's, when they differ from the pinned values at the
//! default seed, or when a layer replay disagrees with the world.

use crate::alloc::allocations;
use crate::calib::{at_reference, Kernel, REF_SLICE_S, SETUP_ELASTICITY};
use crate::metrics::{median, per_layer, per_layer_defs, MetricDef, END_TO_END};
use crate::outputs::{check_pinned, digest, Fnv, SimOutputs};
use crate::recorder::{Recorder, CHECKPOINT_EVERY};
use crate::replay::{self, Tally};
use crate::workload::{Workload, DEFAULT_SEED, LIFE_CYCLE_S};
use ia_des::SimDuration;
use ia_experiments::{Scenario, World};
use std::time::{Duration, Instant};

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Simulated life cycle; pinned values apply only at [`LIFE_CYCLE_S`].
    pub life_cycle: SimDuration,
}

impl Options {
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Options {
            workload,
            seed,
            seconds,
            trace,
            life_cycle: SimDuration::from_secs(LIFE_CYCLE_S),
        }
    }

    fn pinned_applies(&self) -> bool {
        self.seed == DEFAULT_SEED && self.life_cycle == SimDuration::from_secs(LIFE_CYCLE_S)
    }
}

/// The outcome of one benchmark run.
#[derive(Clone, Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the mode, in definition order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Event-stream fingerprint and hook count of the first traced
    /// repetition (traced runs only).
    pub fingerprint: Option<(u64, u64)>,
    /// Digest of the first repetition's outputs.
    pub digest: u64,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, v)| v.is_finite())
    }
}

/// Count one repetition, failed when it returned any failure lines.
fn record<T>(report: &mut Report, (value, failures): (T, Vec<String>)) -> T {
    report.attempted += 1;
    if !failures.is_empty() {
        report.failed += 1;
        report.failures.extend(failures);
    }
    value
}

/// Repeat `rep` until `deadline` has passed (at least once).
fn repeat<T>(
    deadline: Instant,
    report: &mut Report,
    mut rep: impl FnMut() -> (T, Vec<String>),
) -> Vec<T> {
    let mut out = Vec::new();
    loop {
        out.push(record(report, rep()));
        if Instant::now() >= deadline {
            return out;
        }
    }
}

/// The repetitions timings are taken from: all but the first, which
/// warms the heap and caches, unless it is the only one.
fn timed<T>(reps: &[T]) -> &[T] {
    if reps.len() > 1 {
        &reps[1..]
    } else {
        reps
    }
}

/// One untraced world, its `World::run` wall time and allocations.
struct Timed {
    run: f64,
    allocs: u64,
    world: World,
}

fn timed_world(scenario: &Scenario) -> Timed {
    let mut world = World::new(scenario.clone());
    let a0 = allocations();
    let t0 = Instant::now();
    world.run();
    let run = t0.elapsed().as_secs_f64();
    Timed {
        run,
        allocs: allocations() - a0,
        world,
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run the benchmark described by `opts`.
pub fn run(opts: &Options) -> Report {
    let scenarios = opts.workload.scenarios(opts.seed, opts.life_cycle);
    let mut report = Report {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        failures: Vec::new(),
        fingerprint: None,
        digest: 0,
    };
    if opts.trace {
        traced(opts, &scenarios, &mut report);
    } else {
        untraced(opts, &scenarios, &mut report);
    }
    report
}

/// Checks shared by both modes: outputs and allocations equal the first
/// repetition's, and the pinned values at the default seed.
struct Reference {
    outputs: Option<(Vec<SimOutputs>, u64)>,
}

impl Reference {
    fn check(
        &mut self,
        opts: &Options,
        outputs: Vec<SimOutputs>,
        allocs: u64,
        failures: &mut Vec<String>,
    ) {
        if let Some((first, first_allocs)) = &self.outputs {
            if outputs != *first {
                failures.push(format!(
                    "outputs differ from the first repetition: {outputs:?} vs {first:?}"
                ));
            }
            if allocs != *first_allocs {
                failures.push(format!(
                    "run allocations {allocs} differ from the first repetition's {first_allocs}"
                ));
            }
        }
        if opts.pinned_applies() {
            if let Err(e) = check_pinned(&outputs, &opts.workload.pinned()) {
                failures.push(format!("outputs differ from the pinned values: {e}"));
            }
        }
        self.outputs.get_or_insert((outputs, allocs));
    }

    fn digest(&self) -> u64 {
        self.outputs.as_ref().map_or(0, |(o, _)| digest(o))
    }
}

/// Slices of the calibration kernel in the gap before and after a world:
/// about a tenth of the world's warm-up run time, so the kernel samples
/// the host's speed on both sides of it.
fn gap_slices(warm_run: f64) -> usize {
    ((0.1 * warm_run / REF_SLICE_S).round() as usize).clamp(1, 64)
}

/// Mean slice time over `n` slices.
fn gap(kernel: &mut Kernel, n: usize) -> f64 {
    (0..n).map(|_| kernel.slice()).sum::<f64>() / n as f64
}

/// One untraced repetition, summed over the workload's scenarios.
struct Rep {
    /// Calibrated `setup_s` and `run_s`: seconds at the reference speed.
    setup: f64,
    run: f64,
    /// Wall times as measured.
    raw_setup: f64,
    raw_run: f64,
    /// Mean calibration slice time, seconds (0 without the kernel).
    slice: f64,
    allocs_per_event: f64,
    /// Per scenario: wall time of `World::run`.
    runs: Vec<f64>,
}

/// Builds per scenario and repetition; `setup_s` takes their median.
const SETUP_BUILDS: usize = 3;

/// Run every scenario once. With a kernel, each world is scaled to the
/// reference speed by the mean calibration slice time of the gaps right
/// before and right after it. The gap after scenario `j` runs `slices[j]` slices and is also the
/// gap before scenario `j + 1`; the first gap runs `slices[0]`.
fn untraced_rep(
    opts: &Options,
    scenarios: &[Scenario],
    reference: &mut Reference,
    mut kernel: Option<(&mut Kernel, &[usize])>,
) -> (Rep, Vec<String>) {
    let mut failures = Vec::new();
    let mut rep = Rep {
        setup: 0.0,
        run: 0.0,
        raw_setup: 0.0,
        raw_run: 0.0,
        slice: 0.0,
        allocs_per_event: 0.0,
        runs: Vec::with_capacity(scenarios.len()),
    };
    let (mut allocs, mut events, mut slices) = (0, 0, 0.0);
    let mut outputs = Vec::with_capacity(scenarios.len());
    let mut before = match &mut kernel {
        Some((k, n)) => gap(k, n[0]),
        None => 0.0,
    };
    for (j, sc) in scenarios.iter().enumerate() {
        let mut setups = [0.0; SETUP_BUILDS];
        let mut world = None;
        for s in &mut setups {
            drop(world.take());
            let sc = sc.clone();
            let t0 = Instant::now();
            world = Some(World::new(sc));
            *s = t0.elapsed().as_secs_f64();
        }
        let mut world = world.expect("built at least once");
        let setup = median(&setups);
        let a0 = allocations();
        let t0 = Instant::now();
        world.run();
        let run = t0.elapsed().as_secs_f64();
        allocs += allocations() - a0;
        events += world.events_processed();
        outputs.push(SimOutputs::of(&world));
        drop(world);
        let (setup_ref, run_ref) = match &mut kernel {
            Some((k, n)) => {
                let after = gap(k, n[j]);
                let mean = (before + after) / 2.0;
                slices += mean;
                before = after;
                (
                    at_reference(setup, mean, SETUP_ELASTICITY),
                    at_reference(run, mean, opts.workload.run_elasticity()),
                )
            }
            None => (setup, run),
        };
        rep.setup += setup_ref;
        rep.run += run_ref;
        rep.raw_setup += setup;
        rep.raw_run += run;
        rep.runs.push(run);
    }
    rep.slice = slices / scenarios.len() as f64;
    rep.allocs_per_event = allocs as f64 / events.max(1) as f64;
    reference.check(opts, outputs, allocs, &mut failures);
    (rep, failures)
}

/// Spread of `xs` for the stderr summary: median [q1, q3].
fn quartiles(xs: &[f64]) -> String {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| v[((v.len() - 1) as f64 * p).round() as usize];
    format!("{:.5} [{:.5}, {:.5}]", q(0.5), q(0.25), q(0.75))
}

fn untraced(opts: &Options, scenarios: &[Scenario], report: &mut Report) {
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut reference = Reference { outputs: None };
    // The warm-up repetition warms the heap and caches and is not timed.
    // It runs before the calibration kernel exists, so the peak resident
    // set read after it is the workload's own.
    let warm = record(report, untraced_rep(opts, scenarios, &mut reference, None));
    let peak_rss = peak_rss_mb();
    let slices: Vec<usize> = warm.runs.iter().map(|&r| gap_slices(r)).collect();
    let mut kernel = Kernel::new();
    let reps = repeat(deadline, report, || {
        untraced_rep(
            opts,
            scenarios,
            &mut reference,
            Some((&mut kernel, &slices)),
        )
    });
    let col = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    eprintln!(
        "{} timed repetitions, median [q1, q3]: run_s {} raw {}, setup_s {} raw {}, slice {}",
        reps.len(),
        quartiles(&col(|r| r.run)),
        quartiles(&col(|r| r.raw_run)),
        quartiles(&col(|r| r.setup)),
        quartiles(&col(|r| r.raw_setup)),
        quartiles(&col(|r| r.slice)),
    );
    let values = [
        median(&col(|r| r.setup)),
        median(&col(|r| r.run)),
        peak_rss,
        median(&col(|r| r.allocs_per_event)),
    ];
    report.metrics = END_TO_END.iter().copied().zip(values).collect();
    report.digest = reference.digest();
}

/// Fingerprint of one traced repetition: the per-world hashes folded in
/// order, the total hook count, and each world's checkpoints.
#[derive(Clone, Debug, PartialEq)]
struct Fingerprint {
    hash: u64,
    hooks: u64,
    checkpoints: Vec<Vec<u64>>,
}

impl Fingerprint {
    /// Where `self` first departs from `first`, for a failure message.
    fn first_divergence(&self, first: &Fingerprint) -> String {
        for (w, (a, b)) in self.checkpoints.iter().zip(&first.checkpoints).enumerate() {
            if let Some(k) = a.iter().zip(b).position(|(x, y)| x != y) {
                let lo = k as u64 * CHECKPOINT_EVERY;
                return format!("world {w}, hooks {lo}..{}", lo + CHECKPOINT_EVERY);
            }
            if a.len() != b.len() {
                return format!("world {w}, after checkpoint {}", a.len().min(b.len()));
            }
        }
        "in the final window of some world".into()
    }
}

/// Trace one world: replays, counters and the replay cross-checks.
fn trace_world(world: &World, rec: &Recorder, tally: &mut Tally, failures: &mut Vec<String>) {
    replay::world_counters(world, rec, tally);
    let rebuilt = replay::radio(world, rec, tally, failures);
    replay::geo(world, rec, &rebuilt, tally);
    replay::des(rec, tally);
    replay::mobility(world, rec, tally);
    replay::fleet_build(world, tally, failures);
    replay::core(rec, tally, failures);
}

fn traced(opts: &Options, scenarios: &[Scenario], report: &mut Report) {
    let mut reference = Reference { outputs: None };
    let mut first_print: Option<Fingerprint> = None;
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let reps = repeat(deadline, report, || {
        let mut failures = Vec::new();
        let mut tally = Tally::default();
        let mut print = Fingerprint {
            hash: 0,
            hooks: 0,
            checkpoints: Vec::new(),
        };
        let mut hash = Fnv::new();
        let (mut outputs, mut allocs) = (Vec::new(), 0);
        for sc in scenarios {
            let plain = timed_world(sc);
            tally.untraced_run_ns += plain.run * 1e9;
            allocs += plain.allocs;
            let plain_outputs = SimOutputs::of(&plain.world);
            drop(plain);

            let mut world = World::new(sc.clone());
            world.enable_phase_profile();
            world.attach_observer(Box::new(Recorder::default()));
            let t0 = Instant::now();
            world.run();
            tally.trace_run_ns += t0.elapsed().as_nanos() as f64;
            let traced_outputs = SimOutputs::of(&world);
            if traced_outputs != plain_outputs {
                failures.push("tracing changed the simulated outputs".into());
            }
            outputs.push(traced_outputs);
            let rec = world.observer::<Recorder>().expect("recorder attached");
            hash.word(rec.hash.0);
            print.hooks += rec.hooks;
            print.checkpoints.push(rec.checkpoints.clone());
            trace_world(&world, rec, &mut tally, &mut failures);
        }
        print.hash = hash.0;
        reference.check(opts, outputs, allocs, &mut failures);
        match &first_print {
            None => first_print = Some(print.clone()),
            Some(first) if *first != print => failures.push(format!(
                "event-stream fingerprint differs from the first repetition at {}",
                print.first_divergence(first)
            )),
            Some(_) => {}
        }
        if opts.pinned_applies() {
            let pinned = opts.workload.pinned();
            if (print.hash, print.hooks) != (pinned.fingerprint, pinned.hooks) {
                failures.push(format!(
                    "event-stream fingerprint {:#018x} over {} hooks, pinned {:#018x} over {}",
                    print.hash, print.hooks, pinned.fingerprint, pinned.hooks
                ));
            }
        }
        (per_layer(&tally).map(|(_, v)| v), failures)
    });
    let reps = timed(&reps);
    report.metrics = per_layer_defs()
        .iter()
        .enumerate()
        .map(|(i, m)| (*m, median(&reps.iter().map(|r| r[i]).collect::<Vec<_>>())))
        .collect();
    report.fingerprint = first_print.map(|p| (p.hash, p.hooks));
    report.digest = reference.digest();
}
