//! `simbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1]`
//!
//! Runs one workload for at least `--seconds` of wall time and prints, as
//! the last line of standard output, one JSON object with the
//! correctness verdict, the operations attempted and failed, and the
//! metrics: the end-to-end metrics with `--trace 0` (the default), the
//! per-layer metrics of the layer replay with `--trace 1`. Details (every
//! sample, each check, the span table) go to standard error.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use senn_sim::{Metrics, Simulator};
use senn_simbench::checks::{self, Check};
use senn_simbench::replay::{self, Pair};
use senn_simbench::workload::{Workload, DEFAULT_SEED};
use senn_simbench::{endtoend, median, result_line, sys, Metric};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload <la_steady|metro_1m|snnn_road> \
                 [--seed <n>] [--seconds <s>] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "simbench: workload={} seed={} seconds={} trace={} host: {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        sys::host_fingerprint()
    );
    let measure = Duration::from_secs(args.seconds);
    let line = if args.trace {
        traced(&args, measure)
    } else {
        untraced(&args, measure)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

fn report_checks(checks: &[Check]) -> bool {
    for c in checks {
        eprintln!(
            "check {:<26} compared {:>7}  mismatches {}",
            c.name, c.compared, c.mismatches
        );
    }
    checks.iter().all(Check::passed)
}

/// Operations attempted and failed: the queries the measured runs
/// issued after warm-up, and those whose server request failed outright.
fn ops(m: &Metrics) -> (u64, u64) {
    (m.queries, m.server_failed)
}

/// The replay must reproduce `Simulator::run`'s Metrics. Batch-shared
/// expansion, an implementation switch the replay does not model, changes
/// only the settlements it reports saved, so that counter is left out.
fn same_apart_from_sharing(a: &Metrics, b: &Metrics) -> bool {
    let (mut a, mut b) = (a.clone(), b.clone());
    a.shared_settles_saved = 0;
    b.shared_settles_saved = 0;
    a == b
}

fn untraced(args: &Args, measure: Duration) -> String {
    let mut e = endtoend::measure(args.workload, args.seed, measure);
    eprintln!("setup_s samples {:?}", e.setup_secs);
    eprintln!("run_s samples   {:?}", e.run_secs);
    eprintln!("cpu_s samples   {:?}", e.cpu_secs);
    eprintln!("batch stats of the last run: {:?}", e.sim.batch_stats());
    let metrics = e.metrics.clone();
    let checks = checks::run_all(args.workload, args.seed, &mut e.sim, &metrics);
    let correct = report_checks(&checks) && e.repeatable;
    if !e.repeatable {
        eprintln!("check repeat: runs of one seed gave different Metrics");
    }
    let (attempted, failed) = ops(&metrics);
    let runs = e.run_secs.len() as u64;
    result_line(correct, attempted * runs, failed * runs, &e.metrics())
}

fn traced(args: &Args, measure: Duration) -> String {
    let config = args.workload.config(args.seed);
    let started_all = Instant::now();
    // Untraced runs of the program alternate with replays, so that each
    // replay can be set beside the program's own account of a run made
    // moments before it.
    let mut pairs: Vec<Pair> = Vec::new();
    let mut pair_secs = Vec::new();
    let mut untraced_secs = Vec::new();
    let mut reference: Option<Metrics> = None;
    let mut faithful = true;
    let mut repeatable = true;
    let mut last: Option<Simulator> = None;
    // The cold first build (it faults the allocator's memory in) would
    // skew the set-up comparison; it is not part of any pair.
    drop(Simulator::new(config));
    loop {
        let pair_started = Instant::now();
        drop(last.take());
        let started = Instant::now();
        let mut sim = Simulator::new(config);
        let setup_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let metrics = sim.run();
        untraced_secs.push(started.elapsed().as_secs_f64());
        let (replayed, stats) = replay::replay(config);
        faithful &= same_apart_from_sharing(&replayed, &metrics);
        match &reference {
            None => reference = Some(metrics),
            Some(m) => repeatable &= *m == metrics,
        }
        pairs.push(Pair {
            setup_s,
            batch: *sim.batch_stats(),
            stats,
        });
        last = Some(sim);
        pair_secs.push(pair_started.elapsed().as_secs_f64());
        if started_all.elapsed().as_secs_f64() + median(&pair_secs) > measure.as_secs_f64() {
            break;
        }
    }
    let reference = reference.expect("at least one run");
    let mut sim = last.expect("at least one run");
    let latest = pairs.last().expect("at least one replay");
    let (stats, batch) = (&latest.stats, &latest.batch);
    eprintln!("{}", stats.span_table());
    eprintln!(
        "untraced Simulator::run {:.4} s (median); traced replay loop {:.4} s \
         (of which settle counting {:.4} s); program BatchStats: move_secs {:.4} s, \
         exec_secs {:.4} s, stage_nanos {:?}",
        median(&untraced_secs),
        stats.loop_s,
        stats.settle_count_s,
        batch.move_secs,
        batch.exec_secs,
        batch.stage_nanos
    );
    let (drift, report) = replay::against_program(&pairs);
    eprint!("{report}");
    if !faithful {
        eprintln!("check replay: the replay's Metrics differ from Simulator::run");
    }
    if !repeatable {
        eprintln!("check repeat: runs of one seed gave different Metrics");
    }
    let mut checks = checks::run_all(args.workload, args.seed, &mut sim, &reference);
    checks.push(Check {
        name: "replay_vs_simulator",
        compared: pairs.len() as u64,
        mismatches: u64::from(!faithful),
    });
    checks.push(drift);
    let correct = report_checks(&checks) && repeatable;

    // Per-layer medians over the replays.
    let per_rep: Vec<Vec<Metric>> = pairs.iter().map(|p| p.stats.metrics()).collect();
    let metrics: Vec<Metric> = per_rep[0]
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = per_rep.iter().map(|r| r[i].value).collect();
            Metric::new(m.name, m.unit, median(&values))
        })
        .collect();
    let (attempted, failed) = ops(&reference);
    let runs = pairs.len() as u64;
    result_line(correct, attempted * runs, failed * runs, &metrics)
}
