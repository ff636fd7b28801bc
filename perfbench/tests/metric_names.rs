//! The metric tables, workload names and the checked-in manifest agree
//! with the benchmark contract.

use ia_perfbench::metrics::{manifest, per_layer_defs, Better, END_TO_END};
use ia_perfbench::workload::Workload;
use std::collections::HashSet;

/// Whether `name` is a valid metric or workload name: a letter or digit,
/// then at most 63 letters, digits, `_`, `.` or `-`.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` or `-`.
fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn every_name_and_unit_is_valid_and_used_once() {
    let mut seen = HashSet::new();
    for m in END_TO_END.iter().chain(&per_layer_defs()) {
        assert!(valid_name(m.name), "bad metric name {:?}", m.name);
        assert!(valid_unit(m.unit), "bad unit {:?} of {}", m.unit, m.name);
        assert!(seen.insert(m.name), "metric {} defined twice", m.name);
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()), "bad workload name {:?}", w.name());
        assert!(seen.insert(w.name()), "workload {} reuses a name", w.name());
        assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert!(Workload::parse("opt_dense").is_none());
}

#[test]
fn name_validation_rejects_what_the_contract_forbids() {
    assert!(valid_name("a") && valid_name("des.push_pop_ns") && valid_name("9-x"));
    assert!(!valid_name("") && !valid_name(".x") && !valid_name("_x"));
    assert!(!valid_name("a b") && !valid_name("a/b") && !valid_name(&"x".repeat(65)));
    assert!(valid_name(&"x".repeat(64)));
    assert!(valid_unit("1/event") && valid_unit("%") && valid_unit("MB"));
    assert!(!valid_unit("") && !valid_unit("n s") && !valid_unit(&"u".repeat(17)));
}

#[test]
fn end_to_end_metrics_carry_the_required_bounds() {
    let names: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(
        names,
        ["setup_s", "run_s", "peak_rss_mb", "allocs_per_event"]
    );
    let largest = END_TO_END
        .iter()
        .filter_map(|m| m.bound)
        .fold(0.0, f64::max);
    for m in &END_TO_END {
        let b = m.bound.expect("end-to-end metrics have a bound");
        assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        assert_eq!(m.better, Better::Lower);
    }
    let setup = &END_TO_END[0];
    assert_eq!((setup.unit, setup.bound), ("s", Some(largest)));
    assert!(per_layer_defs().iter().all(|m| m.bound.is_none()));
}

#[test]
fn checked_in_manifest_is_the_generated_one() {
    assert_eq!(
        include_str!("../../BENCHMARK.json"),
        manifest(),
        "regenerate with `ia-perfbench --emit-manifest > BENCHMARK.json`"
    );
}
