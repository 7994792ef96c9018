//! Deterministic checks of the observation-sweep fast path, written to
//! `BENCH_sweep.json`. Nothing here reads a clock: perfbench's `train`
//! workload measures the sweep's time (and `--trace 1` gives the
//! per-layer report); this binary proves the fast path does the same
//! work as the reference and that it actually engages.
//!
//! Every check runs on every invocation and aborts the run on failure:
//!
//! * the optimized sweep ([`rsg_core::observation::measure`]) produces
//!   knee tables bit-identical to the reference sweep
//!   ([`rsg_core::observation::measure_naive`]);
//! * re-running it with observability and live tracing enabled leaves
//!   the tables bit-identical (instrumentation never perturbs results);
//! * a journal-checkpointed sweep on a fresh journal
//!   ([`rsg_core::observation::measure_checkpointed`]) produces the same
//!   tables and checkpoints every cell;
//! * for MCP and DLS at 10 to 10k hosts, the fast placement kernel
//!   engages ([`rsg_sched::heuristics::fast_placement_available`], so a
//!   silent fallback to the naive scan fails the run) and reproduces
//!   the reference schedule and [`rsg_sched::OpCount`] exactly.
//!
//! The JSON holds only deterministic values: the identity results, the
//! checkpointed cell count and ladder evaluations from the returned
//! [`rsg_core::observation::CheckpointStats`], and the per-(heuristic,
//! hosts) op counts. `--quick` runs the tiny grid with the host axis
//! capped at 1k; the committed file is the full (`fast` grid) run.

use rsg_bench::report::Table;
use rsg_core::curve::CurveConfig;
use rsg_core::observation::{
    measure, measure_checkpointed, measure_naive, CheckpointConfig, ObservationGrid,
};
use rsg_core::THRESHOLD_LADDER;
use rsg_dag::RandomDagSpec;
use rsg_platform::ResourceCollection;
use rsg_sched::heuristics::fast_placement_available;
use rsg_sched::{ExecutionContext, HeuristicKind};

/// Refinement rounds used by the sweep comparison.
const REFINE_ROUNDS: u32 = 2;

/// Host counts of the placement-kernel check.
const HOST_COUNTS: [usize; 4] = [10, 100, 1000, 10_000];

/// Number of tasks in the placement-kernel DAG.
const KERNEL_TASKS: usize = 300;

/// One placement-kernel check: the fast kernel engaged and matched
/// the reference scan, doing this many modeled operations.
struct KernelCheck {
    heuristic: HeuristicKind,
    hosts: usize,
    ops: u64,
}

/// What the three sweep runs after the reference one returned.
struct SweepChecks {
    checkpointed_cells: usize,
    ladder_evals: u64,
}

fn kernel_dag() -> rsg_dag::Dag {
    RandomDagSpec {
        size: KERNEL_TASKS,
        ccr: 0.1,
        parallelism: 0.6,
        density: 0.5,
        regularity: 0.5,
        mean_comp: 20.0,
    }
    .generate(11)
}

/// Runs the fast and the reference placement at every host count up
/// to `max_hosts`, asserting the fast kernel engages and matches.
fn kernel_checks(max_hosts: usize) -> Vec<KernelCheck> {
    let dag = kernel_dag();
    let mut out = Vec::new();
    for heuristic in [HeuristicKind::Mcp, HeuristicKind::Dls] {
        for hosts in HOST_COUNTS.into_iter().filter(|&h| h <= max_hosts) {
            eprintln!("bench_sweep: placement kernel {heuristic} at P={hosts}...");
            let rc = ResourceCollection::homogeneous(hosts, 1500.0);
            let ctx = ExecutionContext::new(&dag, &rc);
            assert!(
                fast_placement_available(&ctx),
                "{heuristic} P={hosts}: the fast placement kernel did not engage"
            );
            let (s_fast, ops_fast) = heuristic.run(&ctx);
            let (s_naive, ops_naive) = heuristic.run_reference(&ctx);
            assert_eq!(
                ops_fast, ops_naive,
                "{heuristic} P={hosts}: op counts differ"
            );
            assert_eq!(
                (s_fast.host, s_fast.start, s_fast.finish),
                (s_naive.host, s_naive.start, s_naive.finish),
                "{heuristic} P={hosts}: schedules differ"
            );
            out.push(KernelCheck {
                heuristic,
                hosts,
                ops: ops_fast.0,
            });
        }
    }
    out
}

/// Runs the reference, optimized, instrumented and checkpointed sweeps
/// and asserts all four produce the same knee tables.
fn sweep_checks(grid: &ObservationGrid) -> SweepChecks {
    let cfg = CurveConfig::default();

    eprintln!("bench_sweep: reference sweep (measure_naive)...");
    let naive_tables = measure_naive(grid, &cfg, &THRESHOLD_LADDER, REFINE_ROUNDS);
    eprintln!("bench_sweep: optimized sweep (measure)...");
    let fast_tables = measure(grid, &cfg, &THRESHOLD_LADDER, REFINE_ROUNDS);
    assert_eq!(
        fast_tables, naive_tables,
        "optimized sweep diverged from the reference sweep"
    );

    eprintln!("bench_sweep: optimized sweep with obs + trace enabled...");
    rsg_obs::enable(true);
    rsg_obs::set_trace(true);
    let obs_tables = measure(grid, &cfg, &THRESHOLD_LADDER, REFINE_ROUNDS);
    rsg_obs::set_trace(false);
    rsg_obs::enable(false);
    assert_eq!(
        obs_tables, fast_tables,
        "sweep diverged when observability/tracing was enabled"
    );

    // A fresh journal, so every cell is both computed and fsynced.
    eprintln!("bench_sweep: checkpointed sweep (measure_checkpointed)...");
    let journal = std::path::PathBuf::from("target/bench_sweep.journal");
    let _ = std::fs::remove_file(&journal);
    let (ckpt_tables, stats) = measure_checkpointed(
        grid,
        &cfg,
        &THRESHOLD_LADDER,
        REFINE_ROUNDS,
        &CheckpointConfig::new(&journal),
    )
    .expect("checkpointed sweep failed");
    let _ = std::fs::remove_file(&journal);
    assert_eq!(
        ckpt_tables, fast_tables,
        "checkpointed sweep diverged from the plain sweep"
    );
    assert_eq!(
        (stats.resumed, stats.checkpointed),
        (0, grid.cells()),
        "a fresh journal must checkpoint every cell"
    );
    SweepChecks {
        checkpointed_cells: stats.checkpointed,
        ladder_evals: stats.ladder_evals,
    }
}

fn write_json(
    path: &str,
    grid_label: &str,
    grid: &ObservationGrid,
    sweep: &SweepChecks,
    kernel: &[KernelCheck],
) -> std::io::Result<()> {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"benchmark\": \"observation-sweep fast path\",\n");
    j.push_str("  \"schema\": \"rsg-bench-sweep/v2\",\n");
    j.push_str(&format!(
        "  \"grid\": {{\"label\": \"{grid_label}\", \"cells\": {}, \"instances\": {}}},\n",
        grid.cells(),
        grid.instances
    ));
    j.push_str(&format!(
        "  \"thetas\": [{}],\n",
        THRESHOLD_LADDER
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    j.push_str(&format!("  \"refine_rounds\": {REFINE_ROUNDS},\n"));
    j.push_str(&format!(
        "  \"sweep\": {{\"fast_equals_naive\": true, \"obs_trace_equals_plain\": true, \
         \"checkpointed_equals_plain\": true, \"checkpointed_cells\": {}, \
         \"ladder_evaluations\": {}}},\n",
        sweep.checkpointed_cells, sweep.ladder_evals
    ));
    j.push_str("  \"placement_kernel\": [\n");
    for (i, k) in kernel.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"heuristic\": \"{}\", \"hosts\": {}, \"tasks\": {KERNEL_TASKS}, \
             \"fast_path\": true, \"schedule_identical\": true, \"ops\": {}}}{}\n",
            k.heuristic,
            k.hosts,
            k.ops,
            if i + 1 < kernel.len() { "," } else { "" }
        ));
    }
    j.push_str("  ]\n}\n");
    std::fs::write(path, j)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (grid_label, grid, max_hosts) = if quick {
        ("tiny", ObservationGrid::tiny(), 1000)
    } else {
        ("fast", ObservationGrid::fast(), usize::MAX)
    };
    eprintln!(
        "bench_sweep: {} cells x {} instances, {} thresholds, {} refine rounds",
        grid.cells(),
        grid.instances,
        THRESHOLD_LADDER.len(),
        REFINE_ROUNDS
    );

    let sweep = sweep_checks(&grid);
    let kernel = kernel_checks(max_hosts);

    let mut table = Table::new(vec!["heuristic", "hosts", "ops (fast = reference)"]);
    for k in &kernel {
        table.row(vec![
            k.heuristic.to_string(),
            k.hosts.to_string(),
            k.ops.to_string(),
        ]);
    }
    table.print(&format!(
        "Placement kernel ({KERNEL_TASKS}-task DAG): fast path engaged, schedules identical"
    ));

    write_json("BENCH_sweep.json", grid_label, &grid, &sweep, &kernel)
        .expect("failed to write BENCH_sweep.json");
    eprintln!(
        "bench_sweep: ok — {} cells, fast = naive = obs+trace = checkpointed, \
         {} ladder evaluations; wrote BENCH_sweep.json",
        sweep.checkpointed_cells, sweep.ladder_evals
    );
}
