//! Correctness checks run after every benchmark run, against
//! computations the benchmark makes itself — linear scans, brute-force
//! kNN and reverse kNN, its own Dijkstra — and against properties the
//! method must have. Answers are compared tie-aware: by distance
//! sequence, not by POI id, so equidistant POIs never count as a
//! mismatch.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use senn_cache::{CacheEntry, CachedNn};
use senn_core::{
    DistanceModel, RTreeServer, Resolution, SearchBounds, SennConfig, SennEngine, SpatialService,
};
use senn_geom::Point;
use senn_network::{NetworkDistance, NodeId, NodeLocator, RoadNetwork};
use senn_sim::{Metrics, RknnQuery, Simulator};

use crate::workload::Workload;

/// Relative tolerance of a distance comparison.
const REL_TOL: f64 = 1e-9;

/// The outcome of one check: how many comparisons it made and how many
/// disagreed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    pub name: &'static str,
    pub compared: u64,
    pub mismatches: u64,
}

impl Check {
    pub(crate) fn new(name: &'static str) -> Self {
        Check {
            name,
            compared: 0,
            mismatches: 0,
        }
    }

    pub(crate) fn record(&mut self, ok: bool) {
        self.compared += 1;
        if !ok {
            self.mismatches += 1;
        }
    }

    /// True when the check compared something and found no mismatch.
    pub fn passed(&self) -> bool {
        self.compared > 0 && self.mismatches == 0
    }
}

/// Runs every check that applies to `workload` on a simulator that has
/// finished its run. `metrics` is what that run returned.
pub fn run_all(
    workload: Workload,
    seed: u64,
    sim: &mut Simulator,
    metrics: &Metrics,
) -> Vec<Check> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_c4ec);
    let hosts: Vec<Point> = sim.rknn_hosts().iter().map(|h| h.position).collect();
    let mut checks = vec![
        metrics_properties(metrics),
        server_knn_matches_scan(sim, &mut rng, 200),
        certified_answers_match_bruteforce(sim, &hosts, &mut rng, 300),
    ];
    if workload == Workload::SnnnRoad {
        checks.push(astar_matches_dijkstra(sim, &hosts, &mut rng, 40, 8));
    }
    if workload == Workload::LaSteady {
        checks.push(rknn_matches_bruteforce(sim));
    }
    checks
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

/// Two ascending distance sequences agree, entry for entry.
pub fn same_distances(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(&g, &w)| close(g, w))
}

/// The `k` nearest POIs of `q` by linear scan: `(id, distance)` in
/// ascending distance.
pub fn scan_knn(pois: &[Point], q: Point, k: usize) -> Vec<(u64, f64)> {
    let mut all: Vec<(u64, f64)> = pois
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u64, q.dist(*p)))
        .collect();
    let k = k.min(all.len());
    if k == 0 {
        return Vec::new();
    }
    all.select_nth_unstable_by(k - 1, |a, b| a.1.total_cmp(&b.1));
    all.truncate(k);
    all.sort_by(|a, b| a.1.total_cmp(&b.1));
    all
}

/// The Metrics identities: every query is attributed to exactly one
/// resolution, none is left unanswered, and EINN never reads more pages
/// than INN.
pub fn metrics_properties(m: &Metrics) -> Check {
    let mut c = Check::new("metrics_properties");
    c.record(m.queries > 0);
    c.record(m.queries == m.single_peer + m.multi_peer + m.server + m.accepted_uncertain);
    c.record(m.server_failed == 0);
    c.record(m.einn_accesses <= m.inn_accesses);
    let per_k: u64 = m.per_k.values().map(|s| s.queries).sum();
    c.record(per_k == m.server);
    c
}

/// A sample of the server's k-NN replies, unbounded and through the
/// batched service seam, matches a linear scan over the POI positions.
pub fn server_knn_matches_scan(sim: &Simulator, rng: &mut SmallRng, samples: usize) -> Check {
    let mut c = Check::new("server_knn_vs_scan");
    let pois = sim.poi_positions();
    let side = sim.config().params.area_side_m();
    let server: &RTreeServer = sim.server();
    for i in 0..samples {
        let q = Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
        let k = rng.gen_range(1..=20usize);
        let want: Vec<f64> = scan_knn(pois, q, k).into_iter().map(|(_, d)| d).collect();
        let reply = if i % 2 == 0 {
            server.knn_one(q, k, SearchBounds::NONE)
        } else {
            let req = senn_core::ServerRequest::plain(i as u64, q, k);
            server
                .submit(std::slice::from_ref(&req))
                .pop()
                .expect("one request, one reply")
                .response
        };
        // Each reported distance is the true distance of the POI it names.
        let named = reply.pois.iter().all(|(nn, d)| {
            close(q.dist(pois[nn.poi_id as usize]), *d) && nn.position == pois[nn.poi_id as usize]
        });
        let got: Vec<f64> = reply.pois.iter().map(|(_, d)| *d).collect();
        c.record(named && same_distances(&got, &want));
    }
    c
}

/// At sampled host positions, with peer caches filled from brute-force
/// kNN (the hosts in radio range, plus the querier's own earlier result
/// from a nearby point), every answer the engine certifies — including
/// the certified cache extension — is a prefix of the brute-force
/// ranking; answers completed by the server match it too.
pub fn certified_answers_match_bruteforce(
    sim: &Simulator,
    hosts: &[Point],
    rng: &mut SmallRng,
    samples: usize,
) -> Check {
    let mut c = Check::new("certified_vs_bruteforce");
    let config = sim.config();
    let params = config.params;
    let engine = SennEngine::new(SennConfig {
        region_method: config.region_method,
        accept_uncertain: false,
        server_fetch: params.c_size,
    });
    let pois = sim.poi_positions();
    let fill = |at: Point| -> CacheEntry {
        let nn: Vec<CachedNn> = scan_knn(pois, at, params.c_size)
            .into_iter()
            .map(|(id, _)| CachedNn {
                poi_id: id,
                position: pois[id as usize],
            })
            .collect();
        CacheEntry::new(at, nn)
    };
    let range = params.tx_range_m;
    let mut certified = 0u64;
    for _ in 0..samples {
        let qi = rng.gen_range(0..hosts.len());
        let q = hosts[qi];
        let k = rng.gen_range(1..=(2 * params.lambda_knn - 1));
        let mut peers: Vec<CacheEntry> = Vec::new();
        // The querier's own result from an earlier position.
        let own = Point::new(
            q.x + rng.gen_range(-300.0..300.0),
            q.y + rng.gen_range(-300.0..300.0),
        );
        peers.push(fill(own));
        for (j, h) in hosts.iter().enumerate() {
            if j != qi && h.dist(q) <= range && peers.len() < 9 {
                peers.push(fill(*h));
            }
        }
        let out = engine.query_peers_only(q, k, &peers);
        let truth: Vec<f64> = scan_knn(pois, q, k + params.c_size)
            .into_iter()
            .map(|(_, d)| d)
            .collect();
        match out.resolution() {
            Resolution::SinglePeer | Resolution::MultiPeer => {
                certified += 1;
                let answer: Vec<f64> = out.results.iter().map(|e| e.dist).collect();
                let all_certain = out.results.iter().all(|e| e.certain);
                let cached: Vec<f64> = out.cacheable().iter().map(|e| e.dist).collect();
                c.record(
                    all_certain
                        && same_distances(&answer, &truth[..k.min(truth.len())])
                        && same_distances(&cached, &truth[..cached.len().min(truth.len())]),
                );
            }
            _ => {
                let req = engine.residual_request(0u64, q, k, &out);
                let reply = sim
                    .server()
                    .submit(std::slice::from_ref(&req))
                    .pop()
                    .expect("one request, one reply");
                let done = engine.complete_residual(k, out, reply.response);
                let answer: Vec<f64> = done.results.iter().map(|e| e.dist).collect();
                c.record(same_distances(&answer, &truth[..k.min(truth.len())]));
            }
        }
    }
    // A sample in which peers certified nothing would check nothing of
    // the paper's claim.
    c.record(certified > 0);
    c
}

/// Nearest network node by linear scan.
fn nearest_node(net: &RoadNetwork, p: Point) -> NodeId {
    let (best, _) = net
        .positions()
        .iter()
        .enumerate()
        .map(|(i, n)| (i, n.dist(p)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("the network has nodes");
    best as NodeId
}

/// Single-source shortest road lengths by a plain binary-heap Dijkstra.
fn dijkstra_all(net: &RoadNetwork, from: NodeId) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; net.node_count()];
    let mut heap = BinaryHeap::new();
    dist[from as usize] = 0.0;
    heap.push(Reverse((OrdF64(0.0), from)));
    while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for e in net.neighbors(u) {
            let nd = d + e.length;
            if nd < dist[e.to as usize] {
                dist[e.to as usize] = nd;
                heap.push(Reverse((OrdF64(nd), e.to)));
            }
        }
    }
    dist
}

#[derive(Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Sampled A\* road distances (the SNNN model, snap legs included) equal
/// the benchmark's own Dijkstra over the simulator's road network.
pub fn astar_matches_dijkstra(
    sim: &Simulator,
    hosts: &[Point],
    rng: &mut SmallRng,
    origins: usize,
    targets: usize,
) -> Check {
    let mut c = Check::new("astar_vs_dijkstra");
    let net = sim.network().expect("road workloads keep their network");
    let locator = NodeLocator::new(net);
    let pois = sim.poi_positions();
    for _ in 0..origins {
        let q = hosts[rng.gen_range(0..hosts.len())];
        let qn = nearest_node(net, q);
        let dist = dijkstra_all(net, qn);
        let mut model = NetworkDistance::new(net, &locator, q).expect("non-empty network");
        for _ in 0..targets {
            let p = pois[rng.gen_range(0..pois.len())];
            let pn = nearest_node(net, p);
            let want = q.dist(net.position(qn)) + dist[pn as usize] + net.position(pn).dist(p);
            let got = model.distance(q, p);
            c.record(match got {
                Some(d) => close(d, want),
                None => !want.is_finite(),
            });
        }
    }
    c
}

/// Reverse kNN over every POI through `Simulator::run_rknn` equals a
/// brute-force loop over every host. A host whose distance to the POI
/// ties its k-th nearest distance may fall either way.
pub fn rknn_matches_bruteforce(sim: &mut Simulator) -> Check {
    let mut c = Check::new("rknn_vs_bruteforce");
    let pois: Vec<Point> = sim.poi_positions().to_vec();
    let queries: Vec<RknnQuery> = pois
        .iter()
        .enumerate()
        .map(|(i, p)| RknnQuery {
            id: i as u64,
            poi_id: i as u64,
            position: *p,
            k: 1 + i % 9,
        })
        .collect();
    let max_k = queries.iter().map(|q| q.k).max().unwrap_or(1);
    let hosts = sim.rknn_hosts();
    let batch = sim.run_rknn(&queries);
    // members[p] sorted, from `run_rknn`.
    let mut got: Vec<Vec<u64>> = vec![Vec::new(); pois.len()];
    for o in &batch.outcomes {
        let mut m = o.members.clone();
        m.sort_unstable();
        got[o.poi_id as usize] = m;
    }
    let mut sure: Vec<Vec<u64>> = vec![Vec::new(); pois.len()];
    let mut maybe: Vec<Vec<u64>> = vec![Vec::new(); pois.len()];
    for h in &hosts {
        // The host's max_k + 1 nearest POIs decide every membership.
        let near = scan_knn(&pois, h.position, max_k + 1);
        for (rank, &(poi, d)) in near.iter().enumerate() {
            let k = queries[poi as usize].k;
            if rank > k {
                continue;
            }
            // Distance of the k-th and (k+1)-th nearest POI.
            let kth = near.get(k - 1).map(|e| e.1).unwrap_or(f64::INFINITY);
            let next = near.get(k).map(|e| e.1).unwrap_or(f64::INFINITY);
            let tie = close(d, kth) && close(kth, next);
            if tie {
                maybe[poi as usize].push(h.host_id);
            } else if rank < k {
                sure[poi as usize].push(h.host_id);
            }
        }
    }
    for p in 0..pois.len() {
        let g = &got[p];
        let ok = sure[p].iter().all(|h| g.binary_search(h).is_ok())
            && g.iter()
                .all(|h| sure[p].contains(h) || maybe[p].contains(h));
        c.record(ok);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_knn_orders_by_distance() {
        let pois = [
            Point::new(5.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(3.0, 0.0),
        ];
        let got = scan_knn(&pois, Point::ORIGIN, 2);
        assert_eq!(got, vec![(1, 1.0), (2, 3.0)]);
        assert_eq!(scan_knn(&pois, Point::ORIGIN, 9).len(), 3);
    }

    #[test]
    fn distance_sequences_compare_tie_aware() {
        assert!(same_distances(&[1.0, 2.0], &[1.0, 2.0 + 1e-12]));
        assert!(!same_distances(&[1.0, 2.0], &[1.0, 2.1]));
        assert!(!same_distances(&[1.0], &[1.0, 2.0]));
    }

    #[test]
    fn own_dijkstra_matches_a_hand_computed_path() {
        let mut net = RoadNetwork::new();
        let a = net.add_node(Point::new(0.0, 0.0));
        let b = net.add_node(Point::new(3.0, 0.0));
        let d = net.add_node(Point::new(3.0, 4.0));
        net.add_edge(a, b, senn_network::RoadClass::Local);
        net.add_edge(b, d, senn_network::RoadClass::Local);
        net.add_edge(a, d, senn_network::RoadClass::Local);
        let dist = dijkstra_all(&net, a);
        assert_eq!(dist, vec![0.0, 3.0, 5.0]);
    }
}
