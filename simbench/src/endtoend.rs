//! End-to-end timing of whole simulator runs, with tracing off.
//!
//! A run repeats build + whole-horizon `Simulator::run` until the
//! measuring time is spent, builds the world some more times on its own
//! after every repetition (set-up samples), and reports medians. Every repetition uses the same
//! seed, so its Metrics must repeat exactly; the last simulator is kept
//! for the correctness checks.

use std::time::{Duration, Instant};

use senn_sim::{Metrics, SimConfig, Simulator};

use crate::sys::{peak_rss_mib, process_cpu_secs};
use crate::workload::Workload;
use crate::{median, Metric};

/// The first repetition is followed by set-up-only builds until they have
/// taken this long; every later repetition by as many builds as that
/// first slice held (at least one).
pub const SETUP_SLICE_SECS: f64 = 0.25;
/// Fewest whole-horizon runs a benchmark run times.
pub const MIN_RUNS: usize = 3;

/// What the timed repetitions produced.
pub struct EndToEnd {
    /// Set-up samples: the mean build time of each position of a slice
    /// (see [`measure`]).
    pub setup_secs: Vec<f64>,
    pub run_secs: Vec<f64>,
    pub cpu_secs: Vec<f64>,
    pub peak_rss_mib: f64,
    /// Metrics of the first repetition (every repetition must match).
    pub metrics: Metrics,
    /// Whole-run metrics of every repetition were identical.
    pub repeatable: bool,
    /// The last repetition's simulator, after its run.
    pub sim: Simulator,
}

impl EndToEnd {
    /// The end-to-end metrics, by the names `BENCHMARK.json` lists.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", "s", median(&self.setup_secs)),
            Metric::new("run_s", "s", median(&self.run_secs)),
            Metric::new("cpu_s", "s", median(&self.cpu_secs)),
            Metric::new("peak_rss_mb", "MiB", self.peak_rss_mib),
            Metric::new("server_queries", "count", self.metrics.server as f64),
            Metric::new("server_pages", "count", self.metrics.einn_accesses as f64),
        ]
    }
}

/// Times `workload` under `seed` for about `measure` of wall time.
///
/// The first repetition's build is the cold one (it faults the
/// allocator's memory in) and is not timed as set-up. The peak resident
/// set is read right after that repetition's run, so it is the peak of
/// one world built and run. Repetitions continue until the next one would
/// overrun `measure` (at least [`MIN_RUNS`]).
///
/// Set-up is timed in slices, one after every repetition: the
/// repetition's own build (from the second on), then a fixed number of
/// set-up-only builds. The host's speed changes from second to second, so
/// builds close in time run alike; a sample is therefore the mean of the
/// builds at one position of every slice, which spans the whole run, and
/// `setup_s` is the median of these samples.
pub fn measure(workload: Workload, seed: u64, measure: Duration) -> EndToEnd {
    let config = workload.config(seed);
    let started_all = Instant::now();
    let mut run_secs = Vec::new();
    let mut cpu_secs = Vec::new();
    let mut rep_secs = Vec::new();
    let mut peak_rss = 0.0;
    let mut first: Option<Metrics> = None;
    // by_position[0] holds the repetitions' own builds, by_position[i]
    // the i-th set-up-only build of each slice.
    let mut by_position: Vec<Vec<f64>> = vec![Vec::new()];
    let mut repeatable = true;
    let mut last: Option<Simulator> = None;
    loop {
        let rep_started = Instant::now();
        // Free the previous world before building the next, so the peak
        // resident set is one world's, not two.
        drop(last.take());
        let started = Instant::now();
        let mut sim = Simulator::new(config);
        let build_secs = started.elapsed().as_secs_f64();

        let cpu_before = process_cpu_secs();
        let started = Instant::now();
        let metrics = sim.run();
        run_secs.push(started.elapsed().as_secs_f64());
        cpu_secs.push(process_cpu_secs() - cpu_before);
        match &first {
            None => {
                first = Some(metrics);
                peak_rss = peak_rss_mib();
                let started = Instant::now();
                while by_position.len() == 1 || started.elapsed().as_secs_f64() < SETUP_SLICE_SECS {
                    by_position.push(vec![timed_build(config)]);
                }
            }
            Some(m) => {
                repeatable &= *m == metrics;
                by_position[0].push(build_secs);
                for samples in &mut by_position[1..] {
                    samples.push(timed_build(config));
                }
            }
        }
        last = Some(sim);
        rep_secs.push(rep_started.elapsed().as_secs_f64());
        let next_end = started_all.elapsed().as_secs_f64() + median(&rep_secs);
        if run_secs.len() >= MIN_RUNS && next_end > measure.as_secs_f64() {
            break;
        }
    }
    let setup_secs = by_position
        .iter()
        .filter(|v| !v.is_empty())
        .map(|v| v.iter().sum::<f64>() / v.len() as f64)
        .collect();
    EndToEnd {
        setup_secs,
        run_secs,
        cpu_secs,
        peak_rss_mib: peak_rss,
        metrics: first.expect("at least one run"),
        repeatable,
        sim: last.expect("at least one run"),
    }
}

/// The wall time of one `Simulator::new` (dropping the world is not
/// timed).
fn timed_build(config: SimConfig) -> f64 {
    let started = Instant::now();
    let sim = Simulator::new(config);
    let secs = started.elapsed().as_secs_f64();
    drop(std::hint::black_box(sim));
    secs
}
