//! Property: the worker-thread count is an implementation detail. At a
//! short horizon, every workload's world gives identical query counts,
//! server load and server page reads — indeed identical Metrics — with 1
//! and with 2 threads, across seeds.

use senn_sim::{Metrics, Simulator};
use senn_simbench::workload::Workload;

fn run(workload: Workload, seed: u64, horizon_secs: f64, threads: usize) -> Metrics {
    let config = workload
        .config_with_horizon(seed, horizon_secs)
        .to_builder()
        .threads(threads)
        .build();
    Simulator::new(config).run()
}

fn assert_thread_invariant(workload: Workload, seeds: &[u64], horizon_secs: f64) {
    for &seed in seeds {
        let one = run(workload, seed, horizon_secs, 1);
        let two = run(workload, seed, horizon_secs, 2);
        assert!(
            one.queries > 0,
            "{} seed {seed}: no queries",
            workload.name()
        );
        assert_eq!(one.queries, two.queries, "{} seed {seed}", workload.name());
        assert_eq!(one.server, two.server, "{} seed {seed}", workload.name());
        assert_eq!(
            one.einn_accesses,
            two.einn_accesses,
            "{} seed {seed}",
            workload.name()
        );
        assert_eq!(one, two, "{} seed {seed}: Metrics differ", workload.name());
    }
}

#[test]
fn la_steady_is_thread_invariant() {
    assert_thread_invariant(Workload::LaSteady, &[1, 2, 3], 300.0);
}

#[test]
fn snnn_road_is_thread_invariant() {
    assert_thread_invariant(Workload::SnnnRoad, &[1, 2, 3], 300.0);
}

#[test]
fn metro_1m_is_thread_invariant() {
    assert_thread_invariant(Workload::Metro1m, &[1], 5.0);
}
