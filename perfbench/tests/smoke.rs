//! Every workload runs end to end, untraced and traced, on a shortened
//! life cycle at a seed other than the default one.

use ia_des::SimDuration;
use ia_perfbench::alloc::CountingAlloc;
use ia_perfbench::bench::{run, Options, Report};
use ia_perfbench::metrics::{END_TO_END, N_PER_LAYER};
use ia_perfbench::workload::Workload;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn smoke(workload: Workload, trace: bool) -> Report {
    let mut opts = Options::new(workload, 7, 0.0, trace);
    opts.life_cycle = SimDuration::from_secs(60.0);
    let report = run(&opts);
    assert!(
        report.correct(),
        "{}: {:?}",
        workload.name(),
        report.failures
    );
    // Untraced runs always time one repetition after the warm-up.
    let reps = if trace { 1 } else { 2 };
    assert_eq!((report.attempted, report.failed), (reps, 0));
    report
}

fn value(report: &Report, name: &str) -> f64 {
    let (_, v) = report
        .metrics
        .iter()
        .find(|(m, _)| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"));
    *v
}

#[test]
fn every_workload_runs_untraced_and_traced() {
    for w in Workload::ALL {
        let plain = smoke(w, false);
        assert_eq!(plain.metrics.len(), END_TO_END.len());
        for name in ["setup_s", "run_s", "peak_rss_mb", "allocs_per_event"] {
            assert!(value(&plain, name) > 0.0, "{}: {name} is zero", w.name());
        }
        let traced = smoke(w, true);
        assert_eq!(traced.metrics.len(), N_PER_LAYER);
        assert_eq!(
            traced.digest,
            plain.digest,
            "{}: tracing moved outputs",
            w.name()
        );
        assert!(traced.fingerprint.is_some_and(|(_, hooks)| hooks > 0));
        for name in [
            "des.events",
            "radio.broadcasts",
            "core.deliveries",
            "trace.overhead",
        ] {
            assert!(value(&traced, name) > 0.0, "{}: {name} is zero", w.name());
        }
        let drops = value(&traced, "radio.drop_share");
        assert_eq!(
            drops > 0.0,
            w == Workload::ChaosSevere,
            "{}: drop share {drops}",
            w.name()
        );
    }
}
