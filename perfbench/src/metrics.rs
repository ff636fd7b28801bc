//! Metric definitions, the per-layer values derived from a [`Tally`],
//! and the `BENCHMARK.json` manifest generated from both.

use crate::replay::Tally;
use crate::workload::Workload;

/// Seconds one benchmark run measures.
pub const RUN_SECONDS: u64 = 35;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Reported by untraced runs (`--trace 0`).
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", 0.25),
    e2e("run_s", "s", 0.25),
    e2e("peak_rss_mb", "MB", 0.1),
    e2e("allocs_per_event", "1/event", 0.08),
];

use Better::{Higher, Lower};

/// Per-layer metrics reported by traced runs (`--trace 1`).
pub const N_PER_LAYER: usize = 31;

/// `num / den`, or zero when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every per-layer metric with its value in one traced repetition.
/// `*_ns` replay metrics are per operation; the `phase.*` metrics are
/// whole-run totals.
pub fn per_layer(t: &Tally) -> [(MetricDef, f64); N_PER_LAYER] {
    let covered = t.phase_queue_ns + t.phase_grid_ns + t.phase_protocol_ns + t.phase_observer_ns;
    let per_clone = |ns| ratio(ns, t.core_ad_clones);
    [
        (layer("des.events", "count", Lower), t.des_events),
        (layer("des.pushes", "count", Lower), t.des_pushes),
        (
            layer("des.cascades_per_pop", "1/pop", Lower),
            ratio(t.des_cascades, t.des_pops),
        ),
        (
            layer("des.push_pop_ns", "ns", Lower),
            ratio(t.des_replay_ns, t.des_replay_ops),
        ),
        (
            layer("des.replay_share", "ratio", Higher),
            ratio(t.des_replay_pushes, t.des_pushes),
        ),
        (
            layer("radio.broadcasts", "count", Lower),
            t.radio_broadcasts,
        ),
        (
            layer("radio.receptions_per_broadcast", "1/broadcast", Lower),
            ratio(t.radio_receptions, t.radio_broadcasts),
        ),
        (
            layer("radio.grid_rebuilds", "count", Lower),
            t.radio_grid_rebuilds,
        ),
        (
            layer("radio.grid_queries", "count", Lower),
            t.radio_grid_queries,
        ),
        (
            layer("radio.broadcast_ns", "ns", Lower),
            ratio(t.radio_broadcast_ns, t.radio_replayed),
        ),
        (
            layer("radio.drop_share", "ratio", Lower),
            ratio(t.suppress_hooks, t.radio_addressed),
        ),
        (
            layer("geo.rebuild_ns", "ns", Lower),
            ratio(t.geo_rebuild_ns, t.geo_rebuilds),
        ),
        (
            layer("geo.query_ns", "ns", Lower),
            ratio(t.geo_query_ns, t.geo_queries),
        ),
        (
            layer("geo.candidates_per_query", "1/query", Lower),
            ratio(t.geo_candidates, t.geo_queries),
        ),
        (
            layer("experiments.suppress_hooks", "count", Lower),
            t.suppress_hooks,
        ),
        (layer("core.deliveries", "count", Lower), t.core_deliveries),
        (
            layer("core.accepts_per_delivery", "ratio", Higher),
            ratio(t.core_accepts, t.core_deliveries),
        ),
        (
            layer("core.ad_clone_ns", "ns", Lower),
            per_clone(t.core_ad_clone_ns),
        ),
        (
            layer("core.ad_clone_allocs", "1/clone", Lower),
            per_clone(t.core_ad_clone_allocs),
        ),
        (
            layer("core.codec_roundtrip_ns", "ns", Lower),
            per_clone(t.core_codec_roundtrip_ns),
        ),
        (
            layer("sketch.absorb_ns", "ns", Lower),
            per_clone(t.sketch_absorb_ns),
        ),
        (
            layer("mobility.fleet_build_s", "s", Lower),
            t.mobility_fleet_build_ns * 1e-9,
        ),
        (
            layer("mobility.position_ns", "ns", Lower),
            ratio(t.mobility_position_ns, t.mobility_lookups),
        ),
        (
            layer("mobility.velocity_ns", "ns", Lower),
            ratio(t.mobility_velocity_ns, t.mobility_lookups),
        ),
        (
            layer("mobility.replay_share", "ratio", Higher),
            ratio(t.mobility_lookups, t.des_events),
        ),
        (layer("phase.queue_ns", "ns", Lower), t.phase_queue_ns),
        (layer("phase.grid_ns", "ns", Lower), t.phase_grid_ns),
        (layer("phase.protocol_ns", "ns", Lower), t.phase_protocol_ns),
        (layer("phase.observer_ns", "ns", Lower), t.phase_observer_ns),
        (
            layer("phase.other_ns", "ns", Lower),
            (t.trace_run_ns - covered).max(0.0),
        ),
        (
            layer("trace.overhead", "ratio", Lower),
            ratio(t.trace_run_ns, t.untraced_run_ns),
        ),
    ]
}

/// The per-layer metric definitions, in report order.
pub fn per_layer_defs() -> [MetricDef; N_PER_LAYER] {
    per_layer(&Tally::default()).map(|(m, _)| m)
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

fn metric_json(m: &MetricDef) -> String {
    let better = match m.better {
        Lower => "lower",
        Higher => "higher",
    };
    match m.bound {
        Some(b) => format!(
            r#"{{"name": "{}", "unit": "{}", "better": "{better}", "bound": {b}}}"#,
            m.name, m.unit
        ),
        None => format!(
            r#"{{"name": "{}", "unit": "{}", "better": "{better}"}}"#,
            m.name, m.unit
        ),
    }
}

/// The `BENCHMARK.json` manifest this benchmark implements.
pub fn manifest() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let workloads = Workload::ALL
        .iter()
        .map(|w| format!(r#"{{"name": "{}", "why": "{}"}}"#, w.name(), w.why()))
        .collect();
    format!(
        concat!(
            "{{\n",
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", ",
            "\"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
            "  \"paths\": [\"perfbench\"],\n",
            "  \"run_seconds\": {},\n",
            "  \"workloads\": {},\n",
            "  \"end_to_end\": {},\n",
            "  \"per_layer\": {}\n",
            "}}\n"
        ),
        RUN_SECONDS,
        list(workloads),
        list(END_TO_END.iter().map(metric_json).collect()),
        list(per_layer_defs().iter().map(metric_json).collect()),
    )
}
