//! The traced run: a replay of a workload's world through the layers'
//! public functions, in the simulator's interval order, with a span
//! around each layer call.
//!
//! The replay builds the world the way `Simulator::new` does (road
//! network, POIs, hosts, grid) and runs the interval loop of
//! `Simulator::run` — movement, query plan, peer execution fanned out by
//! `senn_par`, one residual batch through the configured service, SNNN
//! expansion rounds, the measurement pass and the merge fold — drawing
//! the same random numbers in the same order. Its `Metrics` must
//! therefore equal an untraced `Simulator::run` of the same scenario,
//! which the traced run checks: the per-layer numbers describe the very
//! run the end-to-end metrics time.
//!
//! Span times are summed in memory per layer and printed when the run
//! ends. A movement span covers one interval's
//! `HostMobility::step` calls and another its `HostGrid::apply_move`
//! calls, rather than one span per host, so that timer reads do not
//! dominate a million-host step.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use senn_cache::{CacheEntry, CachedNn, MostRecentCache, QueryCache};
use senn_core::{
    DistanceModel, EuclideanBound, QueryContext, RTreeServer, Resolution, SearchBounds, SennConfig,
    SennEngine, SennOutcome, ServerReply, ServerRequest, SnnnExpansion, SpatialService, Stage,
    STAGE_COUNT,
};
use senn_geom::{Point, Rect};
use senn_mobility::{HostMobility, RandomWaypoint, RoadMover, RoadMoverConfig, WaypointConfig};
use senn_network::{
    counting_astar, generate_network, GeneratorConfig, NetworkDistance, NodeLocator, RoadNetwork,
};
use senn_server::ShardedService;
use senn_sim::{BatchStats, HostGrid, KChoice, Metrics, MovementMode, NetworkModelKind, SimConfig};

use crate::checks::Check;
use crate::{median, Metric};

/// Per-layer accumulators of one replay (seconds are summed wall time of
/// the spans; counts are work done).
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    pub setup_network_s: f64,
    pub setup_pois_s: f64,
    pub setup_hosts_s: f64,
    pub mobility_step_s: f64,
    pub mobility_host_steps: u64,
    pub grid_maintain_s: f64,
    pub grid_cell_moves: u64,
    pub grid_within_s: f64,
    pub grid_peer_hits: u64,
    pub plan_s: f64,
    pub execute_s: f64,
    pub engine_s: f64,
    pub stage_s: [f64; STAGE_COUNT],
    pub stage_calls: [u64; STAGE_COUNT],
    pub extend_s: f64,
    pub extend_certified: u64,
    pub queries_executed: u64,
    pub par_batches: u64,
    pub par_fanout_s: f64,
    pub residual_s: f64,
    pub server_requests: u64,
    pub server_submit_s: f64,
    pub server_pages: u64,
    pub server_shard_pages_max: u64,
    pub complete_s: f64,
    pub expand_s: f64,
    pub snnn_rounds: u64,
    pub snnn_model_evals: u64,
    pub network_distance_s: f64,
    pub network_settles: u64,
    pub settle_count_s: f64,
    pub measure_s: f64,
    pub measure_inn_s: f64,
    pub measure_grade_s: f64,
    pub merge_s: f64,
    pub cache_store_s: f64,
    pub cache_entries: u64,
    /// Wall time of the whole interval loop.
    pub loop_s: f64,
}

impl LayerStats {
    /// Wall time the interval-level spans cover (movement, plan, execute,
    /// residual, expand, measure, merge).
    pub fn covered_s(&self) -> f64 {
        self.mobility_step_s
            + self.grid_maintain_s
            + self.plan_s
            + self.execute_s
            + self.residual_s
            + self.expand_s
            + self.measure_s
            + self.merge_s
    }

    /// The per-layer metrics, by the names `BENCHMARK.json` lists.
    pub fn metrics(&self) -> Vec<Metric> {
        let per_query = |n: u64| {
            if self.queries_executed == 0 {
                0.0
            } else {
                n as f64 / self.queries_executed as f64
            }
        };
        vec![
            Metric::new("mobility.step_s", "s", self.mobility_step_s),
            Metric::new(
                "mobility.host_steps",
                "count",
                self.mobility_host_steps as f64,
            ),
            Metric::new("grid.maintain_s", "s", self.grid_maintain_s),
            Metric::new("grid.cell_moves", "count", self.grid_cell_moves as f64),
            Metric::new("grid.within_s", "s", self.grid_within_s),
            Metric::new(
                "grid.peers_per_query",
                "peers/query",
                per_query(self.grid_peer_hits),
            ),
            Metric::new(
                "core.peer_probe_s",
                "s",
                self.stage_s[Stage::PeerProbe.index()],
            ),
            Metric::new(
                "core.single_verify_s",
                "s",
                self.stage_s[Stage::SingleVerify.index()],
            ),
            Metric::new(
                "core.multi_verify_s",
                "s",
                self.stage_s[Stage::MultiVerify.index()],
            ),
            Metric::new(
                "core.residual_merge_s",
                "s",
                self.stage_s[Stage::ServerResidual.index()],
            ),
            Metric::new("core.extend_s", "s", self.extend_s),
            Metric::new(
                "core.extend_certified",
                "count",
                self.extend_certified as f64,
            ),
            Metric::new("par.batches", "count", self.par_batches as f64),
            Metric::new("par.fanout_s", "s", self.par_fanout_s),
            Metric::new("server.requests", "count", self.server_requests as f64),
            Metric::new("server.submit_s", "s", self.server_submit_s),
            Metric::new("server.pages", "count", self.server_pages as f64),
            Metric::new(
                "server.shard_pages_max",
                "count",
                self.server_shard_pages_max as f64,
            ),
            Metric::new("measure.inn_s", "s", self.measure_inn_s),
            Metric::new("measure.grade_s", "s", self.measure_grade_s),
            Metric::new("cache.store_s", "s", self.cache_store_s),
            Metric::new("cache.entries", "count", self.cache_entries as f64),
            Metric::new("snnn.rounds", "count", self.snnn_rounds as f64),
            Metric::new("snnn.model_evals", "count", self.snnn_model_evals as f64),
            Metric::new("network.distance_s", "s", self.network_distance_s),
            Metric::new("network.settles", "count", self.network_settles as f64),
            Metric::new("setup.network_s", "s", self.setup_network_s),
            Metric::new("setup.pois_s", "s", self.setup_pois_s),
            Metric::new("setup.hosts_s", "s", self.setup_hosts_s),
            Metric::new("replay.loop_s", "s", self.loop_s),
            Metric::new(
                "replay.span_coverage",
                "%",
                100.0 * self.covered_s() / self.loop_s,
            ),
        ]
    }

    /// Folds one `query_peers_only_with` call that took `engine_s`: its
    /// peer-stage split, and the rest of the call (the cache-extension
    /// walk).
    fn account_engine(&mut self, outcome: &SennOutcome, engine_s: f64) {
        let staged: u64 = outcome.trace.stage_nanos.iter().sum();
        for (acc, ns) in self.stage_s.iter_mut().zip(outcome.trace.stage_nanos) {
            *acc += ns as f64 * 1e-9;
        }
        self.engine_s += engine_s;
        self.extend_s += engine_s - staged as f64 * 1e-9;
        self.extend_certified += outcome.extra_certain.len() as u64;
    }

    /// Folds the merge stage of one `complete_residual` call.
    fn account_residual(&mut self, outcome: &SennOutcome) {
        let i = Stage::ServerResidual.index();
        self.stage_s[i] += outcome.trace.stage_nanos[i] as f64 * 1e-9;
    }

    /// A human-readable span table, parents before children.
    pub fn span_table(&self) -> String {
        let rows: [(&str, f64); 26] = [
            ("setup.network", self.setup_network_s),
            ("setup.pois", self.setup_pois_s),
            ("setup.hosts", self.setup_hosts_s),
            ("interval loop", self.loop_s),
            ("  movement.step", self.mobility_step_s),
            ("  movement.grid", self.grid_maintain_s),
            ("  plan", self.plan_s),
            ("  execute (par_map wall)", self.execute_s),
            ("    grid.within (summed over workers)", self.grid_within_s),
            ("    engine (summed; with expand rounds)", self.engine_s),
            ("      peer_probe", self.stage_s[0]),
            ("      single_verify", self.stage_s[1]),
            ("      multi_verify", self.stage_s[2]),
            ("      extend_certains", self.extend_s),
            ("    fan-out beyond busiest worker", self.par_fanout_s),
            ("  residual", self.residual_s),
            ("    complete_residual (with expand)", self.complete_s),
            ("  expand", self.expand_s),
            ("    network.distance (A*)", self.network_distance_s),
            ("    settle counting (trace-only)", self.settle_count_s),
            ("  service.submit (residual + expand)", self.server_submit_s),
            ("  measure (par_map wall)", self.measure_s),
            ("    inn shadow (summed)", self.measure_inn_s),
            ("    einn shadow + grading (summed)", self.measure_grade_s),
            ("  merge", self.merge_s),
            ("cache entry build + store (summed)", self.cache_store_s),
        ];
        let mut out = String::new();
        for (name, secs) in rows {
            out.push_str(&format!("{name:<40} {secs:>10.4} s\n"));
        }
        out.push_str(&format!(
            "{:<40} {:>10.1} %\n",
            "span coverage of the loop",
            100.0 * self.covered_s() / self.loop_s
        ));
        out
    }
}

/// The service the residual batches go to: the single-tree server for
/// one shard, the strip-sharded service otherwise.
enum Service {
    Plain(RTreeServer),
    Sharded(ShardedService),
}

impl Service {
    fn submit(&self, batch: &[ServerRequest]) -> Vec<ServerReply> {
        match self {
            Service::Plain(s) => s.submit(batch),
            Service::Sharded(s) => s.submit(batch),
        }
    }

    fn shard_pages_max(&self) -> Option<u64> {
        match self {
            Service::Plain(_) => None,
            Service::Sharded(s) => s.metrics().shards.iter().map(|m| m.node_accesses).max(),
        }
    }
}

/// A replayed world: everything `Simulator::new` builds.
struct World {
    config: SimConfig,
    network: RoadNetwork,
    locator: NodeLocator,
    server: RTreeServer,
    service: Service,
    engine: SennEngine,
    positions: Vec<Point>,
    mobility: Vec<HostMobility>,
    rngs: Vec<SmallRng>,
    movers: Vec<u32>,
    caches: HashMap<u32, MostRecentCache>,
    grid: HostGrid,
    rng: SmallRng,
    time: f64,
}

/// One planned query.
#[derive(Clone, Copy)]
struct Plan {
    querier: u32,
    k: usize,
}

/// One query after the execute pass.
struct Pending {
    outcome: SennOutcome,
    remote_entries: u64,
    remote_records: u64,
}

/// What one worker's query reports besides the outcome.
struct Timed<R> {
    value: R,
    worker: std::thread::ThreadId,
    busy_s: f64,
}

/// Per-worker scratch of the execute pass.
struct Scratch<'a> {
    peer_ids: Vec<u32>,
    peers: Vec<&'a CacheEntry>,
    ctx: QueryContext,
}

impl Scratch<'_> {
    fn new() -> Self {
        Scratch {
            peer_ids: Vec::new(),
            peers: Vec::new(),
            ctx: QueryContext::new(),
        }
    }
}

/// Per-query timings of the execute pass.
#[derive(Default)]
struct ExecTimes {
    within_s: f64,
    engine_s: f64,
    peer_hits: u64,
}

/// The A\* model behind a span: times every exact evaluation and counts
/// the nodes an equal search settles (counted apart, outside the span).
struct TimedAStar<'a> {
    inner: NetworkDistance<'a>,
    net: &'a RoadNetwork,
    locator: &'a NodeLocator,
    distance_s: f64,
    evals: u64,
    settles: u64,
    settle_count_s: f64,
}

impl DistanceModel for TimedAStar<'_> {
    fn distance(&mut self, query: Point, p: Point) -> Option<f64> {
        let started = Instant::now();
        let d = self.inner.distance(query, p);
        self.distance_s += started.elapsed().as_secs_f64();
        self.evals += 1;
        let started = Instant::now();
        if let Some(pn) = self.locator.nearest(p) {
            let (_, stats) = counting_astar(self.net, self.inner.query_node(), pn);
            self.settles += stats.settled;
        }
        self.settle_count_s += started.elapsed().as_secs_f64();
        d
    }
}

/// Draws a Poisson count exactly as the simulator does (Knuth's method,
/// normal approximation above λ = 700).
fn poisson(lambda: f64, rng: &mut SmallRng) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 700.0 {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let z = (-2.0 * u1.ln()).sqrt() * u2.cos();
        return (lambda + z * lambda.sqrt()).round().max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0..1.0);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

impl World {
    /// Builds the world in `Simulator::new`'s order and with its draws,
    /// timing the network, POI and host phases.
    fn build(config: SimConfig, stats: &mut LayerStats) -> World {
        let params = config.params;
        let side = params.area_side_m();
        let area = Rect::new(Point::ORIGIN, Point::new(side, side));

        let started = Instant::now();
        let network = generate_network(&GeneratorConfig::city(side, config.seed ^ 0x9e37));
        let locator = NodeLocator::new(&network);
        stats.setup_network_s += secs_since(started);

        let started = Instant::now();
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut pois = Vec::with_capacity(params.poi_number);
        for i in 0..params.poi_number {
            let raw = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            let snapped = locator
                .nearest(raw)
                .map(|n| network.position(n))
                .unwrap_or(raw);
            let jx = rng.gen_range(-20.0..20.0);
            let jy = rng.gen_range(-20.0..20.0);
            let p = Point::new(
                (snapped.x + jx).clamp(0.0, side),
                (snapped.y + jy).clamp(0.0, side),
            );
            pois.push((i as u64, p));
        }
        let service = if config.server_shards > 1 {
            Service::Sharded(ShardedService::new(pois.clone(), config.server_shards))
        } else {
            Service::Plain(RTreeServer::new(pois.clone()))
        };
        let server = RTreeServer::new(pois);
        stats.setup_pois_s += secs_since(started);

        let started = Instant::now();
        let mover_cfg = RoadMoverConfig {
            velocity_mps: params.velocity_mps(),
            max_pause_secs: 600.0,
            trip_radius: (side * 0.5).min(3000.0),
        };
        let mut waypoint_cfg = WaypointConfig::new(area, params.velocity_mps());
        waypoint_cfg.max_pause_secs = mover_cfg.max_pause_secs;
        waypoint_cfg.trip_radius = Some(mover_cfg.trip_radius);
        let n = params.mh_number;
        let mut positions = Vec::with_capacity(n);
        let mut mobility = Vec::with_capacity(n);
        let mut rngs = Vec::with_capacity(n);
        let mut movers = Vec::new();
        for i in 0..n {
            let mut host_rng = SmallRng::seed_from_u64(config.seed ^ (0xc0ffee + i as u64 * 7919));
            let start = Point::new(host_rng.gen_range(0.0..side), host_rng.gen_range(0.0..side));
            let moves = host_rng.gen_bool(params.m_percentage);
            let m = if !moves {
                HostMobility::Parked(start)
            } else {
                match config.mode {
                    MovementMode::FreeMovement => {
                        HostMobility::Free(RandomWaypoint::new(start, waypoint_cfg, &mut host_rng))
                    }
                    MovementMode::RoadNetwork => {
                        let node = locator.nearest(start).expect("network non-empty");
                        HostMobility::Road(RoadMover::new(&network, node, mover_cfg))
                    }
                }
            };
            positions.push(m.position());
            if m.is_mobile() {
                movers.push(i as u32);
            }
            mobility.push(m);
            rngs.push(host_rng);
        }
        let engine = SennEngine::new(SennConfig {
            region_method: config.region_method,
            accept_uncertain: config.accept_uncertain,
            server_fetch: params.c_size,
        });
        let grid = HostGrid::build(area, params.tx_range_m.max(1.0), &positions);
        stats.setup_hosts_s += secs_since(started);

        World {
            config,
            network,
            locator,
            server,
            service,
            engine,
            positions,
            mobility,
            rngs,
            movers,
            caches: HashMap::new(),
            grid,
            rng,
            time: 0.0,
        }
    }

    fn movement(&mut self, dt: f64, stats: &mut LayerStats) {
        let started = Instant::now();
        let net = Some(&self.network);
        for &i in &self.movers {
            let i = i as usize;
            self.mobility[i].step(net, dt, &mut self.rngs[i]);
            self.positions[i] = self.mobility[i].position();
        }
        stats.mobility_step_s += secs_since(started);
        stats.mobility_host_steps += self.movers.len() as u64;

        let started = Instant::now();
        for &i in &self.movers {
            if self.grid.apply_move(i, self.positions[i as usize]) {
                stats.grid_cell_moves += 1;
            }
        }
        stats.grid_maintain_s += secs_since(started);
    }

    fn plan(&mut self, n: usize) -> Vec<Plan> {
        (0..n)
            .map(|_| {
                let querier = self.rng.gen_range(0..self.positions.len());
                let k = match self.config.k_choice {
                    KChoice::Fixed(k) => k,
                    KChoice::Uniform(lo, hi) => self.rngs[querier].gen_range(lo..=hi.max(lo)),
                    KChoice::MeanLambda => {
                        let max_k = (2 * self.config.params.lambda_knn).saturating_sub(1).max(1);
                        self.rngs[querier].gen_range(1..=max_k)
                    }
                };
                Plan {
                    querier: querier as u32,
                    k,
                }
            })
            .collect()
    }

    /// The querier's own cache entry first, then every peer's in range.
    /// Returns the own-entry count.
    fn gather<'a>(&'a self, plan: &Plan, s: &mut Scratch<'a>, t: &mut ExecTimes) -> usize {
        let q = self.positions[plan.querier as usize];
        let started = Instant::now();
        self.grid.within_into(
            &self.positions,
            q,
            self.config.params.tx_range_m,
            plan.querier,
            &mut s.peer_ids,
        );
        t.within_s += secs_since(started);
        t.peer_hits += s.peer_ids.len() as u64;
        s.peers.clear();
        if let Some(c) = self.caches.get(&plan.querier) {
            s.peers.extend(c.entry());
        }
        let own = s.peers.len();
        for id in &s.peer_ids {
            if let Some(c) = self.caches.get(id) {
                s.peers.extend(c.entry());
            }
        }
        own
    }

    fn execute_one<'a>(&'a self, plan: &Plan, s: &mut Scratch<'a>) -> (Pending, ExecTimes) {
        let mut t = ExecTimes::default();
        let q = self.positions[plan.querier as usize];
        let own = self.gather(plan, s, &mut t);
        let started = Instant::now();
        let outcome = self
            .engine
            .query_peers_only_with(q, plan.k, &s.peers, &mut s.ctx);
        t.engine_s = secs_since(started);
        let remote_entries = (s.peers.len() - own) as u64;
        let remote_records = s.peers[own..].iter().map(|e| e.len() as u64).sum();
        (
            Pending {
                outcome,
                remote_entries,
                remote_records,
            },
            t,
        )
    }

    fn run_batch(&mut self, interval: f64, metrics: &mut Metrics, stats: &mut LayerStats) {
        let threads = senn_par::worker_count();
        let started = Instant::now();
        let lambda = self.config.params.lambda_query_per_min * interval / 60.0;
        let n = poisson(lambda, &mut self.rng).min(self.positions.len() as u64) as usize;
        if n == 0 {
            stats.plan_s += secs_since(started);
            return;
        }
        let plans = self.plan(n);
        stats.plan_s += secs_since(started);

        // Execute: peer gathering and the engine's peer stages, fanned out.
        let started = Instant::now();
        let world = &*self;
        let executed =
            senn_par::par_map_with_threads(&plans, threads, Scratch::new, |s, _, plan| {
                let t0 = Instant::now();
                let value = world.execute_one(plan, s);
                Timed {
                    value,
                    worker: std::thread::current().id(),
                    busy_s: secs_since(t0),
                }
            });
        let wall = secs_since(started);
        stats.execute_s += wall;
        stats.par_batches += 1;
        stats.par_fanout_s += wall - busiest(&executed);
        let mut pendings = Vec::with_capacity(n);
        for Timed { value: (p, t), .. } in executed {
            stats.grid_within_s += t.within_s;
            stats.grid_peer_hits += t.peer_hits;
            stats.account_engine(&p.outcome, t.engine_s);
            stats.queries_executed += 1;
            pendings.push(p);
        }

        let started = Instant::now();
        let mut pendings = self.residual(&plans, pendings, stats);
        stats.residual_s += secs_since(started);

        if let Some(kind) = self.config.distance_model {
            assert_eq!(kind, NetworkModelKind::AStar, "the replay models A* only");
            let started = Instant::now();
            self.expand(&plans, &mut pendings, stats);
            stats.expand_s += secs_since(started);
        }

        let started = Instant::now();
        let world = &*self;
        let measured = senn_par::par_map_with_threads(
            &pendings,
            threads,
            || (),
            |(), i, p| {
                let t0 = Instant::now();
                let value = world.measure_one(&plans[i], p);
                Timed {
                    value,
                    worker: std::thread::current().id(),
                    busy_s: secs_since(t0),
                }
            },
        );
        let wall = secs_since(started);
        stats.measure_s += wall;
        stats.par_fanout_s += wall - busiest(&measured);

        let started = Instant::now();
        for ((plan, pending), m) in plans.iter().zip(pendings).zip(measured) {
            let (m, t) = m.value;
            stats.measure_inn_s += t.inn_s;
            stats.measure_grade_s += t.grade_s;
            stats.cache_store_s += t.entry_s;
            self.merge(plan, pending, m, metrics, stats);
        }
        stats.merge_s += secs_since(started);
    }

    /// One service batch for every unresolved query (request id = query
    /// index), then completion, in query order.
    fn residual(
        &self,
        plans: &[Plan],
        pendings: Vec<Pending>,
        stats: &mut LayerStats,
    ) -> Vec<Pending> {
        let requests: Vec<ServerRequest> = pendings
            .iter()
            .enumerate()
            .filter(|(_, p)| p.outcome.resolution() == Resolution::Unresolved)
            .map(|(i, p)| {
                let q = self.positions[plans[i].querier as usize];
                self.engine
                    .residual_request(i as u64, q, plans[i].k, &p.outcome)
            })
            .collect();
        if requests.is_empty() {
            return pendings;
        }
        let mut replies = self.submit(&requests, stats).into_iter();
        let started = Instant::now();
        let done = pendings
            .into_iter()
            .enumerate()
            .map(|(i, mut p)| {
                if p.outcome.resolution() == Resolution::Unresolved {
                    let reply = replies.next().expect("one reply per request");
                    p.outcome =
                        self.engine
                            .complete_residual(plans[i].k, p.outcome, reply.response);
                    stats.account_residual(&p.outcome);
                }
                p
            })
            .collect();
        stats.complete_s += secs_since(started);
        done
    }

    fn submit(&self, requests: &[ServerRequest], stats: &mut LayerStats) -> Vec<ServerReply> {
        let started = Instant::now();
        let replies = self.service.submit(requests);
        stats.server_submit_s += secs_since(started);
        stats.server_requests += requests.len() as u64;
        stats.server_pages += replies
            .iter()
            .map(|r| r.response.node_accesses)
            .sum::<u64>();
        replies
    }

    /// SNNN expansion, interval-batched in lockstep as the simulator's
    /// default layout runs it.
    fn expand(&self, plans: &[Plan], pendings: &mut [Pending], stats: &mut LayerStats) {
        let Some(inner) = NetworkDistance::new(&self.network, &self.locator, Point::ORIGIN) else {
            return;
        };
        let mut model = TimedAStar {
            inner,
            net: &self.network,
            locator: &self.locator,
            distance_s: 0.0,
            evals: 0,
            settles: 0,
            settle_count_s: 0.0,
        };
        let mut oracle = EuclideanBound;
        let max_rounds = self.config.snnn_max_expansion;
        let finish = |p: &mut Pending, exp: &SnnnExpansion| {
            p.outcome.trace.cap_hit = exp.cap_hit();
            p.outcome.trace.lb_evals = exp.lb_evals();
            p.outcome.trace.model_evals_saved = exp.model_evals_saved();
        };
        let mut active: Vec<(usize, SnnnExpansion)> = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            let p = &pendings[i];
            let eligible = matches!(
                p.outcome.resolution(),
                Resolution::SinglePeer | Resolution::MultiPeer | Resolution::Server
            ) && p.outcome.results.iter().all(|e| e.certain);
            if !eligible {
                continue;
            }
            let q = self.positions[plan.querier as usize];
            if !model.inner.rebase(q) {
                continue;
            }
            let exp = SnnnExpansion::begin(q, plan.k, &p.outcome.results, &mut model);
            if exp.needs_round() && max_rounds > 0 {
                active.push((i, exp));
            } else {
                finish(&mut pendings[i], &exp);
            }
        }
        let mut scratch = Scratch::new();
        let mut times = ExecTimes::default();
        while !active.is_empty() {
            let mut rounds: Vec<Option<SennOutcome>> = Vec::with_capacity(active.len());
            let mut requests = Vec::new();
            let mut slots = Vec::new();
            for (idx, exp) in &active {
                let plan = &plans[*idx];
                let q = self.positions[plan.querier as usize];
                stats.snnn_rounds += 1;
                let kk = exp.next_k();
                self.gather(plan, &mut scratch, &mut times);
                let started = Instant::now();
                let round =
                    self.engine
                        .query_peers_only_with(q, kk, &scratch.peers, &mut scratch.ctx);
                stats.account_engine(&round, secs_since(started));
                if round.resolution() == Resolution::Unresolved {
                    requests.push(self.engine.residual_request(*idx as u64, q, kk, &round));
                    slots.push(rounds.len());
                }
                rounds.push(Some(round));
            }
            if !requests.is_empty() {
                let replies = self.submit(&requests, stats);
                let started = Instant::now();
                for (&slot, reply) in slots.iter().zip(replies) {
                    let kk = active[slot].1.next_k();
                    let peers_only = rounds[slot].take().expect("staged above");
                    let done = self
                        .engine
                        .complete_residual(kk, peers_only, reply.response);
                    stats.account_residual(&done);
                    rounds[slot] = Some(done);
                }
                stats.complete_s += secs_since(started);
            }
            let mut still = Vec::with_capacity(active.len());
            for (slot, (idx, mut exp)) in active.into_iter().enumerate() {
                let round = rounds[slot].take().expect("staged above");
                let pending = &mut pendings[idx];
                pending.outcome.trace.absorb(&round.trace);
                if round.results.iter().any(|e| !e.certain) {
                    exp.abort();
                    finish(pending, &exp);
                    continue;
                }
                let q = self.positions[plans[idx].querier as usize];
                model.inner.rebase(q);
                exp.offer_pruned(&round.results, &mut model, &mut oracle);
                if exp.needs_round() && exp.rounds() < max_rounds {
                    still.push((idx, exp));
                } else {
                    finish(pending, &exp);
                }
            }
            active = still;
        }
        stats.grid_within_s += times.within_s;
        stats.network_distance_s += model.distance_s;
        stats.snnn_model_evals += model.evals;
        stats.network_settles += model.settles;
        stats.settle_count_s += model.settle_count_s;
    }

    /// The measurement-only work of one finished query: the EINN page
    /// count and INN baseline on the truth server (PAR), and the cache
    /// entry the querier will store.
    fn measure_one(&self, plan: &Plan, p: &Pending) -> (Measured, MeasureTimes) {
        let mut t = MeasureTimes::default();
        let q = self.positions[plan.querier as usize];
        let outcome = &p.outcome;
        let mut m = Measured::default();
        if matches!(
            outcome.resolution(),
            Resolution::Server | Resolution::Unresolved
        ) {
            let started = Instant::now();
            m.heap_state_idx = outcome.heap_state.map(|s| {
                use senn_core::HeapState::*;
                match s {
                    FullMixed => 0,
                    FullUncertain => 1,
                    PartialMixed => 2,
                    PartialCertain => 3,
                    PartialUncertain => 4,
                    Empty => 5,
                }
            });
            let strictly_below = match outcome.bounds.lower {
                Some(lb) => outcome
                    .results
                    .iter()
                    .filter(|e| e.certain && e.dist < lb - senn_geom::EPS)
                    .count(),
                None => 0,
            };
            let need = plan.k.saturating_sub(strictly_below).max(1);
            m.einn = self.server.knn_one(q, need, outcome.bounds).node_accesses;
            t.grade_s = secs_since(started);
            if self.config.compare_inn {
                let started = Instant::now();
                m.inn = Some(
                    self.server
                        .knn_one(q, plan.k, SearchBounds::NONE)
                        .node_accesses,
                );
                t.inn_s = secs_since(started);
            }
        }
        let started = Instant::now();
        let cacheable: Vec<CachedNn> = outcome.cacheable().iter().map(|e| e.poi).collect();
        m.entry = (!cacheable.is_empty()).then(|| CacheEntry::new(q, cacheable).at_time(self.time));
        t.entry_s = secs_since(started);
        (m, t)
    }

    /// The merge fold, in query order, as the simulator's cache step.
    fn merge(
        &mut self,
        plan: &Plan,
        p: Pending,
        m: Measured,
        metrics: &mut Metrics,
        stats: &mut LayerStats,
    ) {
        metrics.record_trace(&p.outcome.trace);
        for (acc, n) in stats
            .stage_calls
            .iter_mut()
            .zip(p.outcome.trace.stage_calls)
        {
            *acc += n;
        }
        metrics.peer_entries_received += p.remote_entries;
        metrics.peer_records_received += p.remote_records;
        if matches!(
            p.outcome.trace.resolution(),
            Resolution::Server | Resolution::Unresolved
        ) {
            if let Some(i) = m.heap_state_idx {
                metrics.heap_states[i] += 1;
            }
            metrics.einn_accesses += m.einn;
            metrics.inn_accesses += m.inn.unwrap_or(0);
            let e = metrics.per_k.entry(plan.k).or_default();
            e.queries += 1;
            e.einn_accesses += m.einn;
            e.inn_accesses += m.inn.unwrap_or(0);
        }
        if let Some(entry) = m.entry {
            let started = Instant::now();
            let capacity = self.config.params.c_size;
            self.caches
                .entry(plan.querier)
                .or_insert_with(|| MostRecentCache::new(capacity))
                .store(entry);
            stats.cache_store_s += secs_since(started);
        }
    }
}

#[derive(Default)]
struct Measured {
    heap_state_idx: Option<usize>,
    einn: u64,
    inn: Option<u64>,
    entry: Option<CacheEntry>,
}

#[derive(Default)]
struct MeasureTimes {
    inn_s: f64,
    grade_s: f64,
    entry_s: f64,
}

/// The busy time of the busiest worker of one `par_map` call.
fn busiest<R>(items: &[Timed<R>]) -> f64 {
    let mut per_worker: Vec<(std::thread::ThreadId, f64)> = Vec::new();
    for t in items {
        match per_worker.iter_mut().find(|(w, _)| *w == t.worker) {
            Some((_, s)) => *s += t.busy_s,
            None => per_worker.push((t.worker, t.busy_s)),
        }
    }
    per_worker.iter().map(|(_, s)| *s).fold(0.0, f64::max)
}

/// Replays `config` over its whole horizon. Returns the replay's Metrics
/// (post warm-up, like `Simulator::run`) and the layer accounting.
pub fn replay(config: SimConfig) -> (Metrics, LayerStats) {
    let mut stats = LayerStats::default();
    let mut world = World::build(config, &mut stats);
    let mut metrics = Metrics::new();
    let total = config.params.duration_secs();
    let warmup_end = total * config.warmup_frac;
    let mut warmed_up = false;
    let started = Instant::now();
    while world.time < total {
        let u: f64 = world.rng.gen_range(f64::MIN_POSITIVE..1.0);
        let interval = (-u.ln() * config.mean_interval_secs)
            .min(total - world.time)
            .max(1e-6);
        world.movement(interval, &mut stats);
        world.time += interval;
        if !warmed_up && world.time >= warmup_end {
            metrics.reset();
            warmed_up = true;
        }
        world.run_batch(interval, &mut metrics, &mut stats);
    }
    stats.loop_s = secs_since(started);
    stats.cache_entries = world
        .caches
        .values()
        .filter(|c| c.entry().is_some())
        .count() as u64;
    stats.server_shard_pages_max = world
        .service
        .shard_pages_max()
        .unwrap_or(stats.server_pages);
    (metrics, stats)
}

/// Largest factor by which a replay time may differ from the program's
/// own timer of the same work before the replay counts as drifted.
pub const TIME_TOLERANCE: f64 = 1.4;
/// Program times shorter than this are not compared: fixed per-call
/// costs (thread start-up of a small `par_map`, timer reads) dominate them.
pub const MIN_COMPARED_SECS: f64 = 0.15;

/// The replay's figure and the program's for one compared time of a pair.
type Figures = fn(&Pair) -> (f64, f64);

/// One untraced run of the program beside the replay that followed it.
pub struct Pair {
    /// Wall time of the run's `Simulator::new`.
    pub setup_s: f64,
    /// The program's own account of the run.
    pub batch: BatchStats,
    /// The replay's.
    pub stats: LayerStats,
}

/// Checks the replay against the program's own account of the same
/// scenario, so that a change to the simulator's internals that leaves
/// `Metrics` alone cannot leave the replay's copies of those internals
/// (world build, movement loop, measurement pass) timing stale code
/// unnoticed. Counts must agree exactly; times, paired run by run, must
/// agree within [`TIME_TOLERANCE`] at the median. Returns the check and
/// a report of every comparison.
pub fn against_program(pairs: &[Pair]) -> (Check, String) {
    let mut check = Check::new("replay_vs_batch_stats");
    let mut report = String::new();
    let Some(first) = pairs.first() else {
        return (check, report);
    };
    let (b, r) = (&first.batch, &first.stats);
    let counts: [(&str, &[u64], &[u64]); 5] = [
        ("batches", &[r.par_batches], &[b.batches]),
        ("queries", &[r.queries_executed], &[b.queries]),
        (
            "grid_cell_moves",
            &[r.grid_cell_moves],
            &[b.grid_cell_moves],
        ),
        ("snnn_rounds", &[r.snnn_rounds], &[b.snnn_rounds]),
        ("stage_calls", &r.stage_calls, &b.stage_calls),
    ];
    for (name, replay, program) in counts {
        let ok = replay == program;
        check.record(ok);
        report.push_str(&format!(
            "replay vs program {name:<16} {replay:?} vs {program:?}{}\n",
            if ok { "" } else { "  MISMATCH" }
        ));
    }
    let times: [(&str, Figures); 4] = [
        ("setup", |p| {
            let s = &p.stats;
            (
                s.setup_network_s + s.setup_pois_s + s.setup_hosts_s,
                p.setup_s,
            )
        }),
        ("movement", |p| {
            let s = &p.stats;
            (s.mobility_step_s + s.grid_maintain_s, p.batch.move_secs)
        }),
        ("exec", |p| {
            let s = &p.stats;
            let replay = s.execute_s + s.residual_s + s.expand_s + s.measure_s;
            (replay - s.settle_count_s, p.batch.exec_secs)
        }),
        ("stages", |p| {
            let staged: u64 = p.batch.stage_nanos.iter().sum();
            (p.stats.stage_s.iter().sum(), staged as f64 * 1e-9)
        }),
    ];
    for (name, figures) in times {
        let pairs: Vec<(f64, f64)> = pairs.iter().map(figures).collect();
        let program = median(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
        let ratio = median(&pairs.iter().map(|p| p.0 / p.1).collect::<Vec<_>>());
        let compared = program >= MIN_COMPARED_SECS;
        let ok = !compared || (1.0 / TIME_TOLERANCE..=TIME_TOLERANCE).contains(&ratio);
        if compared {
            check.record(ok);
        }
        report.push_str(&format!(
            "replay vs program {name:<16} program {program:.4} s, replay/program {ratio:.3}{}\n",
            match (compared, ok) {
                (false, _) => "  (too short to compare)",
                (true, true) => "",
                (true, false) => "  DRIFT",
            }
        ));
    }
    (check, report)
}
