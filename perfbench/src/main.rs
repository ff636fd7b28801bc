//! `ia-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//! runs one benchmark measurement and prints, as
//! its last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; the line before it carries the provenance.
//! `ia-perfbench --emit-manifest` prints the `BENCHMARK.json` it implements.

use ia_perfbench::alloc::CountingAlloc;
use ia_perfbench::bench::{self, Options, Report};
use ia_perfbench::metrics::{manifest, RUN_SECONDS};
use ia_perfbench::provenance::{self, json_str};
use ia_perfbench::workload::{Workload, DEFAULT_SEED};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: ia-perfbench --workload opt-dense|gossip-paper|chaos-severe \
[--seed N] [--seconds S] [--trace 0|1] | --emit-manifest";

fn parse(args: &[String]) -> Result<Option<Options>, String> {
    let mut workload = None;
    let mut opts = Options::new(Workload::OptDense, DEFAULT_SEED, RUN_SECONDS as f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--emit-manifest" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=86_400.0).contains(&opts.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(Some(opts))
}

fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(m, v)| {
            // JSON has no NaN or infinity; `correct` is false for them.
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, m.name, m.unit)
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            print!("{}", manifest());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = bench::run(&opts);
    for f in &report.failures {
        eprintln!("FAILED: {f}");
    }
    let fingerprint = report.fingerprint.map_or(String::new(), |(h, n)| {
        format!(r#", "fingerprint": "{h:#018x}", "hooks": {n}"#)
    });
    println!(
        r#"{{"provenance": {{{}, "workload": {}, "trace": {}, "digest": "{:#018x}"{fingerprint}}}}}"#,
        provenance::fields(opts.seed),
        json_str(opts.workload.name()),
        u8::from(opts.trace),
        report.digest,
    );
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}
