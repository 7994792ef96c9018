//! The merged LSDE platform: generated clusters mapped onto a generated
//! topology (Section III.2 — "we merge the two models by mapping the
//! nodes from our network model with the clusters generated by our
//! synthetic compute resource generator").

use crate::cluster::{Cluster, ClusterId};
use crate::generator::ResourceGenSpec;
use crate::rc::{CommModel, ResourceCollection};
use crate::topology::{Topology, TopologySpec};
use crate::REFERENCE_BANDWIDTH_BPS;

/// A synthetic large-scale distributed environment: compute clusters
/// plus a network connecting them.
///
/// A platform is mostly read-only, but a live grid drifts: the delta
/// layer ([`crate::delta`]) mutates host counts and clock rates in
/// place and records bandwidth drift in a per-cluster scale overlay
/// (`bw_scale`), because topology bandwidth is derived from spanning-
/// tree link capacities and cannot be edited per pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    clusters: Vec<Cluster>,
    topology: Topology,
    /// Per-cluster bandwidth scale (1.0 = nominal). Effective
    /// inter-cluster bandwidth is the raw topology number times the
    /// *smaller* endpoint scale: a degraded uplink throttles every
    /// path through it.
    bw_scale: Vec<f64>,
}

impl Platform {
    /// Merges generated clusters and a topology. The topology must have
    /// exactly one node per cluster.
    pub fn new(clusters: Vec<Cluster>, topology: Topology) -> Platform {
        assert_eq!(
            clusters.len(),
            topology.len(),
            "one topology node per cluster"
        );
        let bw_scale = vec![1.0; clusters.len()];
        Platform {
            clusters,
            topology,
            bw_scale,
        }
    }

    /// Generates a platform from the generator and topology specs with a
    /// shared seed.
    pub fn generate(gen: ResourceGenSpec, mut topo: TopologySpec, seed: u64) -> Platform {
        let clusters = gen.generate(seed);
        topo.nodes = clusters.len();
        let topology = topo.generate(seed.wrapping_add(0x9E37_79B9));
        Platform::new(clusters, topology)
    }

    /// The Chapter IV resource universe: 1000 clusters, 33,667 hosts,
    /// Waxman topology.
    pub fn paper_universe(seed: u64) -> Platform {
        Platform::generate(
            ResourceGenSpec::paper_universe(),
            TopologySpec::default(),
            seed,
        )
    }

    /// All clusters.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Total number of hosts across all clusters.
    pub fn total_hosts(&self) -> usize {
        self.clusters.iter().map(|c| c.hosts as usize).sum()
    }

    /// Bottleneck bandwidth between two clusters, bps, after applying
    /// any live bandwidth-drift overlay on either endpoint.
    pub fn bandwidth_bps(&self, a: ClusterId, b: ClusterId) -> f64 {
        let raw = self.topology.bandwidth_bps(a.index(), b.index());
        if a == b {
            return raw;
        }
        raw * self.bw_scale[a.index()].min(self.bw_scale[b.index()])
    }

    /// Latency between two clusters, milliseconds.
    pub fn latency_ms(&self, a: ClusterId, b: ClusterId) -> f64 {
        self.topology.latency_ms(a.index(), b.index())
    }

    /// Communication slowdown factor between clusters relative to the
    /// reference bandwidth (≥ 1; 1 within a cluster).
    pub fn comm_factor(&self, a: ClusterId, b: ClusterId) -> f64 {
        if a == b {
            1.0
        } else {
            (REFERENCE_BANDWIDTH_BPS / self.bandwidth_bps(a, b)).max(1.0)
        }
    }

    /// Cluster ids sorted by clock rate, fastest first (ties by id for
    /// determinism).
    pub fn clusters_by_clock_desc(&self) -> Vec<ClusterId> {
        let mut ids: Vec<ClusterId> = self.clusters.iter().map(|c| c.id).collect();
        ids.sort_by(|x, y| {
            let cx = self.clusters[x.index()].clock_mhz;
            let cy = self.clusters[y.index()].clock_mhz;
            cy.partial_cmp(&cx).unwrap().then(x.cmp(y))
        });
        ids
    }

    /// The naive "top hosts" abstraction of Section IV.2.4.1: the `k`
    /// fastest hosts in the universe, ignoring connectivity.
    pub fn top_hosts_rc(&self, k: usize) -> ResourceCollection {
        assert!(k >= 1, "need at least one host");
        let mut picks: Vec<(ClusterId, u32)> = Vec::new();
        let mut remaining = k;
        for id in self.clusters_by_clock_desc() {
            if remaining == 0 {
                break;
            }
            let take = (self.clusters[id.index()].hosts as usize).min(remaining);
            picks.push((id, take as u32));
            remaining -= take;
        }
        assert!(
            remaining == 0,
            "requested {k} hosts but the universe only holds {}",
            self.total_hosts()
        );
        self.rc_from_picks(&picks)
    }

    /// Builds an RC from `(cluster, host-count)` picks, carrying the
    /// clustered communication model.
    pub fn rc_from_picks(&self, picks: &[(ClusterId, u32)]) -> ResourceCollection {
        assert!(!picks.is_empty());
        let k = picks.len();
        let mut clocks = Vec::new();
        let mut host_cluster = Vec::new();
        for (local, &(id, count)) in picks.iter().enumerate() {
            let c = &self.clusters[id.index()];
            assert!(count >= 1 && count <= c.hosts, "invalid pick {id}:{count}");
            for _ in 0..count {
                clocks.push(c.clock_mhz);
                host_cluster.push(local as u32);
            }
        }
        let mut factors = vec![1.0; k * k];
        for (i, &(a, _)) in picks.iter().enumerate() {
            for (j, &(b, _)) in picks.iter().enumerate() {
                if i != j {
                    factors[i * k + j] = self.comm_factor(a, b);
                }
            }
        }
        ResourceCollection::new(
            clocks,
            CommModel::Clustered {
                host_cluster,
                k,
                factors,
            },
        )
    }

    /// A vgES-style TightBag (Section IV.2.4.2): up to `max_hosts` hosts
    /// with clock ≥ `min_clock_mhz` drawn from clusters whose pairwise
    /// latency stays below `latency_threshold_ms`, preferring faster
    /// clusters. Returns `None` when fewer than `min_hosts` qualify.
    pub fn tightbag_rc(
        &self,
        min_hosts: usize,
        max_hosts: usize,
        min_clock_mhz: f64,
        latency_threshold_ms: f64,
    ) -> Option<ResourceCollection> {
        let mut picks: Vec<(ClusterId, u32)> = Vec::new();
        let mut total = 0usize;
        for id in self.clusters_by_clock_desc() {
            let c = &self.clusters[id.index()];
            if c.clock_mhz < min_clock_mhz {
                break; // sorted by clock: nothing further qualifies
            }
            // Latency constraint against every already-picked cluster.
            if picks
                .iter()
                .all(|&(p, _)| self.latency_ms(p, id) <= latency_threshold_ms)
            {
                let take = (c.hosts as usize).min(max_hosts - total);
                if take > 0 {
                    picks.push((id, take as u32));
                    total += take;
                }
                if total >= max_hosts {
                    break;
                }
            }
        }
        if total >= min_hosts.max(1) {
            Some(self.rc_from_picks(&picks))
        } else {
            None
        }
    }

    /// The whole universe as an RC (implicit resource selection —
    /// "running the heuristic on the universe").
    pub fn universe_rc(&self) -> ResourceCollection {
        let picks: Vec<(ClusterId, u32)> = self.clusters.iter().map(|c| (c.id, c.hosts)).collect();
        self.rc_from_picks(&picks)
    }

    /// Sets `cluster`'s host count (live host join/leave). The count
    /// must stay ≥ 1 — an emptied cluster would invalidate every
    /// `ClusterId` after it.
    pub fn set_cluster_hosts(&mut self, cluster: ClusterId, hosts: u32) {
        assert!(hosts >= 1, "a live cluster keeps at least one host");
        self.clusters[cluster.index()].hosts = hosts;
    }

    /// Sets `cluster`'s clock rate (live clock drift), MHz. Must be
    /// finite and positive; range policy lives in the delta validator.
    pub fn set_cluster_clock(&mut self, cluster: ClusterId, clock_mhz: f64) {
        assert!(
            clock_mhz.is_finite() && clock_mhz > 0.0,
            "clock must be finite and positive"
        );
        self.clusters[cluster.index()].clock_mhz = clock_mhz;
    }

    /// Sets `cluster`'s bandwidth scale overlay (live bandwidth drift).
    /// Absolute, not compounding: 1.0 restores nominal bandwidth
    /// bit-for-bit.
    pub fn set_bw_scale(&mut self, cluster: ClusterId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "bandwidth scale must be finite and positive"
        );
        self.bw_scale[cluster.index()] = factor;
    }

    /// The current bandwidth scale overlay for `cluster` (1.0 when no
    /// drift has been recorded).
    pub fn bw_scale(&self, cluster: ClusterId) -> f64 {
        self.bw_scale[cluster.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_platform() -> Platform {
        Platform::generate(
            ResourceGenSpec {
                clusters: 50,
                year: 2006,
                target_hosts: Some(1500),
            },
            TopologySpec::default(),
            7,
        )
    }

    #[test]
    fn host_count_matches() {
        let p = small_platform();
        assert_eq!(p.total_hosts(), 1500);
        assert_eq!(p.universe_rc().len(), 1500);
    }

    #[test]
    fn top_hosts_are_fastest() {
        let p = small_platform();
        let rc = p.top_hosts_rc(100);
        assert_eq!(rc.len(), 100);
        let slowest_picked = rc.slowest_clock_mhz();
        // No cluster faster than the slowest picked host can be fully
        // unpicked: the picks walk clusters in clock order.
        let faster_hosts: usize = p
            .clusters()
            .iter()
            .filter(|c| c.clock_mhz > slowest_picked)
            .map(|c| c.hosts as usize)
            .sum();
        assert!(faster_hosts <= 100);
    }

    #[test]
    fn comm_factor_at_least_one_between_clusters() {
        let p = small_platform();
        let a = p.clusters()[0].id;
        let b = p.clusters()[1].id;
        assert!(p.comm_factor(a, b) >= 1.0);
        assert_eq!(p.comm_factor(a, a), 1.0);
    }

    #[test]
    fn tightbag_respects_clock_floor() {
        let p = small_platform();
        let median = {
            let mut clocks: Vec<f64> = p.clusters().iter().map(|c| c.clock_mhz).collect();
            clocks.sort_by(|a, b| a.partial_cmp(b).unwrap());
            clocks[clocks.len() / 2]
        };
        if let Some(rc) = p.tightbag_rc(1, 200, median, 1e9) {
            assert!(rc.slowest_clock_mhz() >= median);
            assert!(rc.len() <= 200);
        }
    }

    #[test]
    fn tightbag_returns_none_when_unsatisfiable() {
        let p = small_platform();
        assert!(p.tightbag_rc(10, 20, 99_999.0, 1e9).is_none());
    }

    #[test]
    #[should_panic(expected = "universe only holds")]
    fn top_hosts_overflow_panics() {
        let p = small_platform();
        let _ = p.top_hosts_rc(1_000_000);
    }

    #[test]
    fn rc_from_picks_comm_structure() {
        let p = small_platform();
        let a = p.clusters()[0].id;
        let b = p.clusters()[1].id;
        let rc = p.rc_from_picks(&[(a, 2), (b, 3)]);
        assert_eq!(rc.len(), 5);
        // Hosts 0,1 share a cluster; factor 0 between same host.
        assert_eq!(rc.comm_factor(0, 1), 1.0);
        assert!(rc.comm_factor(0, 2) >= 1.0);
    }
}
