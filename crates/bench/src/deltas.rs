//! Seeded platform-delta streams, shared by `bench_push` and the push
//! integration tests so both drive the engine with identical records.

use rsg_core::push::DeltaRecord;
use rsg_platform::delta::PlatformDelta;
use rsg_platform::{ClusterId, CostModel, Platform};

/// splitmix64 — the stream must be identical across runs and machines.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded stream of `n` deltas, each validated against a scratch
/// platform so the sequence stays legal when applied in order.
pub fn delta_stream(p: &Platform, n: usize, seed: u64) -> Vec<DeltaRecord> {
    let mut state = seed;
    let mut scratch = p.clone();
    let mut cost = CostModel::default();
    let mut out = Vec::with_capacity(n);
    for seq in 1..=n as u64 {
        let clusters = scratch.clusters().len();
        let delta = loop {
            let c = ClusterId((splitmix(&mut state) % clusters as u64) as u32);
            let have = scratch.clusters()[c.index()].hosts;
            let candidate = match splitmix(&mut state) % 5 {
                0 => PlatformDelta::HostJoin {
                    cluster: c,
                    hosts: 1 + (splitmix(&mut state) % 4) as u32,
                },
                1 if have > 2 => PlatformDelta::HostLeave {
                    cluster: c,
                    hosts: 1,
                },
                2 => PlatformDelta::ClockDrift {
                    cluster: c,
                    clock_mhz: (scratch.clusters()[c.index()].clock_mhz
                        * (0.95 + (splitmix(&mut state) % 11) as f64 / 100.0))
                        .clamp(900.0, 30_000.0),
                },
                3 => PlatformDelta::BandwidthDrift {
                    cluster: c,
                    factor: 0.5 + (splitmix(&mut state) % 100) as f64 / 100.0,
                },
                _ => PlatformDelta::PriceChange {
                    dollars_per_hour: 0.05 + (splitmix(&mut state) % 40) as f64 / 100.0,
                },
            };
            if candidate.apply(&mut scratch, &mut cost).is_ok() {
                break candidate;
            }
        };
        out.push(DeltaRecord { seq, delta });
    }
    out
}
