//! The chaos harness against a live in-process daemon. It runs in its
//! own test binary because `Server::spawn` switches the process-wide
//! observability sinks on, which the library's unit tests must not see.

use rsg_bench::chaostcp::{run_chaos, ChaosConfig};
use rsg_core::curve::CurveConfig;
use rsg_core::heurmodel::HeuristicPredictionModel;
use rsg_core::observation::{measure, ObservationGrid};
use rsg_core::ThresholdedSizeModel;
use rsg_sched::HeuristicKind;
use rsg_serve::{ModelRegistry, ServeConfig, Server};

#[test]
fn full_chaos_run_against_a_live_daemon_passes() {
    let tables = measure(
        &ObservationGrid::tiny(),
        &CurveConfig::default(),
        &rsg_core::THRESHOLD_LADDER,
        0,
    );
    let registry = ModelRegistry::from_models(
        ThresholdedSizeModel::fit(&tables),
        HeuristicPredictionModel::fixed(HeuristicKind::Mcp),
    );
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        // Short deadline so the slowloris scenario resolves fast.
        default_deadline_s: 1.0,
        ..ServeConfig::default()
    };
    let server = Server::spawn(&cfg, registry).unwrap();
    let chaos = ChaosConfig {
        seed: 7,
        deadline_hint_s: 1.0,
        read_timeout_s: 10.0,
        connections_per_fault: 2,
    };
    let report = run_chaos(server.addr(), &chaos).expect("daemon reachable");
    assert!(report.passed(), "chaos report:\n{}", report.render());
    assert_eq!(report.outcomes.len(), 9, "all scenarios ran");
}
