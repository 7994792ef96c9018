//! Figure VII-7: the relative RC-size threshold for moving from
//! 3.5 GHz collections to slower tiers — how many more slow hosts make
//! up for the clock deficit.

use rsg_bench::experiments::{instances, Scale};
use rsg_bench::report::Table;
use rsg_core::alternative::{tier_size_threshold, CLOCK_TIERS_MHZ};
use rsg_core::curve::CurveConfig;
use rsg_dag::RandomDagSpec;

fn main() {
    let scale = Scale::from_env();
    let spec = RandomDagSpec {
        size: match scale {
            Scale::Full => 5000,
            Scale::Fast => 800,
        },
        ccr: 0.1,
        parallelism: 0.8,
        density: 0.5,
        regularity: 0.8,
        mean_comp: 40.0,
    };
    let dags = instances(spec, scale.instances(), 99);
    let cfg = CurveConfig::default();
    let base_sizes: Vec<usize> = match scale {
        Scale::Full => vec![50, 100, 200, 400],
        Scale::Fast => vec![25, 50, 100, 200],
    };
    let tiers = CLOCK_TIERS_MHZ;

    let mut table = Table::new(
        std::iter::once("base size @3.5GHz".to_string())
            .chain(tiers.iter().map(|t| format!("ratio to {t:.0} MHz")))
            .collect(),
    );
    for &s in &base_sizes {
        let mut row = vec![s.to_string()];
        for &tier in &tiers {
            match tier_size_threshold(&dags, s, 3500.0, tier, &cfg) {
                Some(r) => row.push(format!("{r:.2}")),
                None => row.push("n/a".to_string()),
            }
        }
        table.row(row);
    }
    table.print("Figure VII-7: relative RC-size thresholds for slower clock tiers");
    println!("(a ratio r means: prefer the slower tier only if it offers >= r x the hosts)");
}
