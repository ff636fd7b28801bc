//! `instant-ads` — run a custom instant-advertising scenario from the
//! command line.
//!
//! ```text
//! USAGE: instant-ads [OPTIONS]
//!
//!   --protocol KIND     flooding | gossip | opt1 | opt2 | opt   [opt]
//!   --peers N           mobile peers                            [300]
//!   --field METRES      square field side                       [5000]
//!   --radius METRES     advertising radius R                    [1000]
//!   --duration SECS     advertisement lifetime D                [1800]
//!   --speed MPS         mean peer speed (delta 5 m/s)           [10]
//!   --alpha X --beta X  formula (1)/(2) decay parameters        [0.5]
//!   --round SECS        gossiping round time                    [5]
//!   --dis METRES        mechanism-1 annulus width               [250]
//!   --cache K           cache capacity                          [10]
//!   --range METRES      radio transmission range                [250]
//!   --loss P            i.i.d. frame loss probability           [0]
//!   --manhattan         street-grid mobility instead of RWP
//!   --issuer-offline S  issuer departs S seconds after issuing
//!   --seeds N           average over N seeds                    [1]
//!   --seed X            first seed                              [42]
//!   --churn UP:DOWN     mean up/down seconds, e.g. 120:60
//!   --export-trace F    write the fleet as an NS-2 setdest trace
//! ```
//!
//! Example:
//!
//! ```sh
//! cargo run --release -- --protocol opt --peers 500 --loss 0.1 --seeds 3
//! ```

use instant_ads::core::ProtocolKind;
use instant_ads::des::SimDuration;
use instant_ads::experiments::scenario::MobilityKind;
use instant_ads::experiments::{run_seeds, summarize, Scenario};
use instant_ads::geo::{Point, Rect};
use instant_ads::radio::LossModel;

fn usage() -> ! {
    // The doc comment above is the authoritative help text.
    eprintln!("instant-ads: run a custom instant-advertising scenario");
    eprintln!("see `cargo doc` or src/main.rs for the full option list");
    std::process::exit(2);
}

struct Args(std::vec::IntoIter<String>);

impl Args {
    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let Some(raw) = self.0.next() else {
            eprintln!("{flag} needs a value");
            usage();
        };
        raw.parse().unwrap_or_else(|_| {
            eprintln!("{flag}: cannot parse '{raw}'");
            usage();
        })
    }
}

fn main() {
    let mut protocol = ProtocolKind::OptGossip;
    let mut peers = 300usize;
    let mut field = 5000.0f64;
    let mut radius = 1000.0f64;
    let mut duration = 1800.0f64;
    let mut speed = 10.0f64;
    let mut alpha = 0.5f64;
    let mut beta = 0.5f64;
    let mut round = 5.0f64;
    let mut dis = 250.0f64;
    let mut cache = 10usize;
    let mut range = 250.0f64;
    let mut loss = 0.0f64;
    let mut manhattan = false;
    let mut issuer_offline: Option<f64> = None;
    let mut n_seeds = 1u64;
    let mut seed0 = 42u64;
    let mut churn: Option<(f64, f64)> = None;
    let mut export_trace: Option<String> = None;

    let mut args = Args(std::env::args().skip(1).collect::<Vec<_>>().into_iter());
    while let Some(arg) = args.0.next() {
        match arg.as_str() {
            "--protocol" => {
                let v: String = args.value("--protocol");
                protocol = match v.as_str() {
                    "flooding" => ProtocolKind::Flooding,
                    "gossip" => ProtocolKind::Gossip,
                    "opt1" => ProtocolKind::OptGossip1,
                    "opt2" => ProtocolKind::OptGossip2,
                    "opt" => ProtocolKind::OptGossip,
                    other => {
                        eprintln!("unknown protocol '{other}'");
                        usage();
                    }
                };
            }
            "--peers" => {
                peers = args.value("--peers");
                if peers == 0 {
                    eprintln!("--peers must be at least 1");
                    usage();
                }
            }
            "--field" => field = args.value("--field"),
            "--radius" => {
                radius = args.value("--radius");
                if !(radius.is_finite() && radius > 0.0) {
                    eprintln!("--radius must be a finite number of metres above 0");
                    usage();
                }
            }
            "--duration" => {
                duration = args.value("--duration");
                // The clock counts whole microseconds: this also rejects
                // negative, non-finite and sub-microsecond values.
                if SimDuration::from_secs(duration).is_zero() {
                    eprintln!("--duration must be a finite number of seconds above 0");
                    usage();
                }
            }
            "--speed" => speed = args.value("--speed"),
            "--alpha" => alpha = args.value("--alpha"),
            "--beta" => beta = args.value("--beta"),
            "--round" => round = args.value("--round"),
            "--dis" => dis = args.value("--dis"),
            "--cache" => cache = args.value("--cache"),
            "--range" => range = args.value("--range"),
            "--loss" => loss = args.value("--loss"),
            "--manhattan" => manhattan = true,
            "--issuer-offline" => issuer_offline = Some(args.value("--issuer-offline")),
            "--seeds" => n_seeds = args.value("--seeds"),
            "--seed" => seed0 = args.value("--seed"),
            "--churn" => {
                let v: String = args.value("--churn");
                let Some((up, down)) = v.split_once(':') else {
                    eprintln!("--churn wants UP:DOWN seconds");
                    usage();
                };
                churn = Some((
                    up.parse().unwrap_or_else(|_| usage()),
                    down.parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--export-trace" => export_trace = Some(args.value("--export-trace")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument '{other}'");
                usage();
            }
        }
    }

    let mut s = Scenario::paper(protocol, peers);
    s.area = Rect::with_size(field, field);
    s.ads[0].issue_pos = Point::new(field / 2.0, field / 2.0);
    s.ads[0].radius = radius;
    s = s.with_life_cycle(SimDuration::from_secs(duration));
    let delta = (speed * 0.5).min(5.0);
    s = s.with_speed(speed, delta);
    s.params = s
        .params
        .with_alpha(alpha)
        .with_beta(beta)
        .with_round_time(SimDuration::from_secs(round))
        .with_dis(dis)
        .with_cache_capacity(cache);
    s.params.tx_range = range;
    s.radio = s.radio.clone().with_range(range);
    if loss > 0.0 {
        s.radio = s.radio.clone().with_loss(LossModel::Bernoulli(loss));
    }
    if manhattan {
        s = s.with_mobility(MobilityKind::Manhattan);
    }
    if let Some(after) = issuer_offline {
        s = s.with_issuer_offline_after(SimDuration::from_secs(after));
    }
    if let Some((up, down)) = churn {
        s = s.with_churn(instant_ads::experiments::ChurnSpec::new(
            SimDuration::from_secs(up),
            SimDuration::from_secs(down),
        ));
    }
    s.validate();

    if let Some(path) = &export_trace {
        let world = instant_ads::experiments::World::new(s.clone().with_seed(seed0));
        let trace = instant_ads::mobility::ns2::export_fleet(world.fleet());
        std::fs::write(path, &trace).expect("write trace");
        println!(
            "wrote NS-2 setdest trace for {} nodes to {path}",
            s.n_nodes()
        );
    }

    println!("instant-ads: {protocol} | {peers} peers on {field:.0} m x {field:.0} m");
    println!(
        "  ad: R = {radius:.0} m, D = {duration:.0} s | alpha {alpha}, beta {beta}, round {round:.0} s, DIS {dis:.0} m, k = {cache}"
    );
    println!(
        "  radio: {range:.0} m range, loss {loss} | mobility: {} at {speed:.0} +/- {delta:.0} m/s{}",
        if manhattan { "Manhattan" } else { "Random Waypoint" },
        match issuer_offline {
            Some(a) => format!(" | issuer departs after {a:.0} s"),
            None => String::new(),
        }
    );

    let seeds: Vec<u64> = (0..n_seeds).map(|k| seed0 + k).collect();
    let results = run_seeds(&s, &seeds);
    let sum = summarize(&results);
    println!();
    println!(
        "delivery rate : {:.2}% (std {:.2}) over {} seed(s)",
        sum.delivery_rate_mean, sum.delivery_rate_std, sum.runs
    );
    println!(
        "delivery time : {:.2} s (std {:.2})",
        sum.delivery_time_mean, sum.delivery_time_std
    );
    println!(
        "messages      : {:.0} (std {:.0})",
        sum.messages_mean, sum.messages_std
    );
    let tails = &results[0].delivery_time_dist[0];
    println!(
        "wait tails    : p50 {:.2} s, p90 {:.2} s, p99 {:.2} s, max {:.2} s (seed {seed0})",
        tails.p50, tails.p90, tails.p99, tails.max
    );
    let bytes: f64 = results
        .iter()
        .map(|r| r.traffic.bytes_sent as f64)
        .sum::<f64>()
        / results.len() as f64;
    println!("traffic       : {:.1} kB mean", bytes / 1000.0);
}
