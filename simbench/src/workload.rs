//! The benchmark's workloads. Each one sets scenario inputs only —
//! parameter set and scale, movement mode, distance metric, shard count,
//! horizon and seed — and leaves every implementation switch of
//! `SimConfig` (`threads`, `shared_expansion`, `expansion_batching`,
//! `grid_maintenance`, `transport`) at the program's default.

use senn_sim::{MovementMode, NetworkModelKind, ParamSet, SimConfig, SimParams};

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20_060_402;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table-4 Los Angeles densities at 1/8 scale, road movement,
    /// Euclidean SENN, 60 simulated minutes.
    LaSteady,
    /// One million hosts at Los Angeles density under free movement,
    /// 600 queries/min, 1 s mean interval, no warm-up, 60 simulated
    /// seconds.
    Metro1m,
    /// The `la_steady` world with network-distance SNNN (A\* over road
    /// lengths) and a 4-shard service, 20 simulated minutes.
    SnnnRoad,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::LaSteady, Workload::Metro1m, Workload::SnnnRoad];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LaSteady => "la_steady",
            Workload::Metro1m => "metro_1m",
            Workload::SnnnRoad => "snnn_road",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated horizon, in seconds.
    pub fn horizon_secs(self) -> f64 {
        match self {
            Workload::LaSteady => 3600.0,
            Workload::Metro1m => 60.0,
            Workload::SnnnRoad => 1200.0,
        }
    }

    /// The scenario for `seed`, over the workload's own horizon.
    pub fn config(self, seed: u64) -> SimConfig {
        self.config_with_horizon(seed, self.horizon_secs())
    }

    /// The scenario for `seed` over a caller-chosen horizon (the thread
    /// property test runs short horizons of the same worlds).
    pub fn config_with_horizon(self, seed: u64, horizon_secs: f64) -> SimConfig {
        match self {
            Workload::LaSteady | Workload::SnnnRoad => {
                let mut params = SimParams::thirty_by_thirty(ParamSet::LosAngeles).scaled_down(8.0);
                params.t_execution_hours = horizon_secs / 3600.0;
                let mut builder = SimConfig::builder()
                    .params(params)
                    .seed(seed)
                    .mode(MovementMode::RoadNetwork);
                if self == Workload::SnnnRoad {
                    builder = builder
                        .distance_model(NetworkModelKind::AStar)
                        .server_shards(4);
                }
                builder.build()
            }
            Workload::Metro1m => {
                // Los Angeles host density (Table 4) scaled up to a
                // million hosts: the area grows with the host count, and
                // POIs keep their density too.
                let base = SimParams::thirty_by_thirty(ParamSet::LosAngeles);
                let hosts = 1_000_000usize;
                let factor = hosts as f64 / base.mh_number as f64;
                let mut params = base;
                params.area_miles = base.area_miles * factor.sqrt();
                params.mh_number = hosts;
                params.poi_number = (base.poi_number as f64 * factor).round() as usize;
                params.lambda_query_per_min = 600.0;
                params.t_execution_hours = horizon_secs / 3600.0;
                SimConfig::builder()
                    .params(params)
                    .seed(seed)
                    .mode(MovementMode::FreeMovement)
                    .mean_interval_secs(1.0)
                    .warmup_frac(0.0)
                    .build()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn la_steady_matches_table_4_at_one_eighth() {
        let p = Workload::LaSteady.config(1).params;
        assert_eq!(p.mh_number, 15_188);
        assert_eq!(p.poi_number, 506);
        assert_eq!(p.lambda_query_per_min, 1012.5);
        assert_eq!((p.c_size, p.lambda_knn, p.tx_range_m), (20, 5, 200.0));
    }

    #[test]
    fn workloads_leave_implementation_switches_at_their_defaults() {
        let defaults = SimConfig::default();
        for w in Workload::ALL {
            let c = w.config(3);
            assert_eq!(c.threads, defaults.threads);
            assert_eq!(c.shared_expansion, defaults.shared_expansion);
            assert_eq!(c.expansion_batching, defaults.expansion_batching);
            assert_eq!(c.grid_maintenance, defaults.grid_maintenance);
            assert!(c.transport.is_none());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }
}
