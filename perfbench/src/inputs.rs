//! Seeded input generation. Every input a workload sends is built
//! here from `--seed` alone, before anything is timed; the program
//! under test sees only the generated bodies.

use rsg_core::observation::ObservationGrid;
use rsg_dag::RandomDagSpec;
use rsg_obs::json::escape;
use rsg_platform::delta::PlatformDelta;
use rsg_platform::{ClusterId, CostModel, Platform, ResourceGenSpec, TopologySpec};

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Log-uniform in `[lo, hi]`.
    pub fn log_range(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + (hi.ln() - lo.ln()) * self.unit()).exp()
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Rounds to 4 decimals so bodies look like what a client would send.
fn r4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

/// The fast observation grid with its CCR and α values shifted by the
/// seed (at most ±1 % and ±0.005): the same 144 cells × 3 instances,
/// different task costs, shapes and knees per seed. The shifts are kept
/// small because α sets DAG width and with it the sweep's work; larger
/// ones would make seeds differ in load, not just in inputs.
pub fn train_grid(seed: u64) -> ObservationGrid {
    let mut rng = Rng::new(seed, 1);
    let mut grid = ObservationGrid::fast();
    for c in &mut grid.ccrs {
        *c = r4(*c * rng.range(0.99, 1.01));
    }
    for a in &mut grid.alphas {
        *a = r4(*a + rng.range(-0.005, 0.005));
    }
    grid
}

/// Characteristics-only `/spec` bodies drawn from inside the trained
/// axes: size 100–800, CCR 0.01–1, α 0.3–0.9, β 0.01–1.
pub fn light_bodies(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 2);
    (0..n)
        .map(|_| {
            format!(
                "{{\"characteristics\": {{\"size\": {}, \"ccr\": {}, \"parallelism\": {}, \
                 \"density\": 0.5, \"regularity\": {}, \"mean_comp\": {}}}}}",
                100 + rng.below(701),
                r4(rng.log_range(0.01, 1.0)),
                r4(rng.range(0.3, 0.9)),
                r4(rng.log_range(0.01, 1.0)),
                r4(rng.range(20.0, 60.0))
            )
        })
        .collect()
}

/// Largest serialized DAG a full-DAG body carries. Wide DAGs (α near
/// 0.9 at 800 tasks) serialize to megabytes — past the daemon's 1 MiB
/// body limit — and a few of them would set every percentile, so a
/// draw over this size is redrawn narrower.
const MAX_DAG_BYTES: usize = 256 * 1024;

/// A seeded permutation of `0..n`.
fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i as u64 + 1) as usize);
    }
    p
}

/// Full-DAG `/spec` bodies: seeded random DAGs of 100–800 tasks,
/// serialized as `rsg-dag v1` documents. Size and α are stratified
/// (each of the `n` strata of either axis is used once, in seeded
/// order) so every seed sends the same mix of DAG sizes and shapes and
/// seeds differ in the DAGs, not in the load. Every fourth body (index
/// `i % 4 == 3`) asks for negotiation, so cycling through the list in
/// order makes one request in four negotiate.
pub fn dag_bodies(seed: u64, n: usize) -> Vec<String> {
    let mut rng = Rng::new(seed, 3);
    let sizes = permutation(&mut rng, n);
    let alphas = permutation(&mut rng, n);
    (0..n)
        .map(|i| {
            let size = 100 + (701.0 * (sizes[i] as f64 + rng.unit()) / n as f64) as usize;
            let mut parallelism = r4(0.3 + 0.6 * (alphas[i] as f64 + rng.unit()) / n as f64);
            let ccr = r4(rng.log_range(0.01, 1.0));
            let regularity = r4(rng.log_range(0.01, 1.0));
            let dag_seed = rng.next_u64();
            let text = loop {
                let spec = RandomDagSpec {
                    size,
                    ccr,
                    parallelism,
                    density: 0.5,
                    regularity,
                    mean_comp: 40.0,
                };
                let text = rsg_dag::io::write_dag(&spec.generate(dag_seed));
                if text.len() <= MAX_DAG_BYTES || parallelism <= 0.3 {
                    break text;
                }
                parallelism = r4(parallelism - 0.05);
            };
            let negotiate = if i % 4 == 3 {
                ", \"negotiate\": true"
            } else {
                ""
            };
            format!("{{\"dag\": {}{negotiate}}}", escape(&text))
        })
        .collect()
}

/// The platform the daemon's push tracker starts from (the serving
/// universe: 40 clusters, 1200 hosts, 2006 hardware, seed 11).
pub fn serving_platform() -> Platform {
    Platform::generate(
        ResourceGenSpec {
            clusters: 40,
            year: 2006,
            target_hosts: Some(1200),
        },
        TopologySpec::default(),
        11,
    )
}

/// The delta batch that warms a fresh daemon up: a price change, which
/// builds the push tracker (its initial sweep) without moving a host.
pub fn warmup_batch() -> Vec<(u64, PlatformDelta)> {
    vec![(
        1,
        PlatformDelta::PriceChange {
            dollars_per_hour: 0.25,
        },
    )]
}

/// `n` delta batches of two records each, sequence numbers from 2 on,
/// valid in order against the serving platform. Every fourth batch
/// targets the three fastest clusters — the ones the sweep cells
/// actually draw hosts from — so recomputation really runs; the rest
/// touch uniformly random clusters, which rarely dirty a cell.
pub fn delta_batches(seed: u64, n: usize) -> Vec<Vec<(u64, PlatformDelta)>> {
    let mut rng = Rng::new(seed, 4);
    let mut scratch = serving_platform();
    let mut cost = CostModel::default();
    for (_, d) in warmup_batch() {
        d.apply(&mut scratch, &mut cost)
            .expect("warm-up delta applies");
    }
    let mut seq = 1u64;
    (0..n)
        .map(|b| {
            let targeted = b % 4 == 0;
            (0..2)
                .map(|_| {
                    let delta = loop {
                        let candidate = draw_delta(&mut rng, &scratch, targeted);
                        if candidate.apply(&mut scratch, &mut cost).is_ok() {
                            break candidate;
                        }
                    };
                    seq += 1;
                    (seq, delta)
                })
                .collect()
        })
        .collect()
}

fn draw_delta(rng: &mut Rng, p: &Platform, targeted: bool) -> PlatformDelta {
    let c = if targeted {
        p.clusters_by_clock_desc()[rng.below(3) as usize]
    } else {
        ClusterId(rng.below(p.clusters().len() as u64) as u32)
    };
    let cl = &p.clusters()[c.index()];
    match rng.below(if targeted { 3 } else { 5 }) {
        0 => PlatformDelta::HostJoin {
            cluster: c,
            hosts: 1 + rng.below(4) as u32,
        },
        1 if cl.hosts > 2 => PlatformDelta::HostLeave {
            cluster: c,
            hosts: 1,
        },
        1 | 2 => PlatformDelta::ClockDrift {
            cluster: c,
            clock_mhz: r4((cl.clock_mhz * rng.range(0.97, 1.03)).clamp(900.0, 30_000.0)),
        },
        3 => PlatformDelta::BandwidthDrift {
            cluster: c,
            factor: r4(rng.range(0.5, 1.5)),
        },
        _ => PlatformDelta::PriceChange {
            dollars_per_hour: r4(rng.range(0.05, 0.45)),
        },
    }
}

/// The `/admin/platform` body of one batch.
pub fn batch_body(batch: &[(u64, PlatformDelta)]) -> String {
    let items: Vec<String> = batch
        .iter()
        .map(|(seq, d)| format!("{{\"seq\": {seq}, \"delta\": {}}}", escape(&d.to_tsv())))
        .collect();
    format!("{{\"deltas\": [{}]}}", items.join(", "))
}
