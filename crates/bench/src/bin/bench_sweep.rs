//! End-to-end benchmark of the observation-sweep fast path: runs the
//! reference sweep ([`rsg_core::observation::measure_naive`]) and the
//! optimized sweep ([`rsg_core::observation::measure`]) on the `fast`
//! grid, asserts the knee tables are bit-identical, measures
//! per-heuristic schedule throughput with and without the placement
//! kernel, and writes the results to `BENCH_sweep.json`.
//!
//! The timed comparison runs keep observability *disabled* (the
//! `rsg-obs` layer's documented overhead budget is measured against
//! these numbers). A third, untimed-for-the-headline sweep then re-runs
//! `measure` with observability and tracing enabled and asserts the
//! knee tables are still bit-identical, so instrumentation can never
//! perturb results. Pass `--obs` to embed the captured
//! [`rsg_obs::RunReport`] from that instrumented sweep under an `"obs"`
//! key in `BENCH_sweep.json`.
//!
//! The sweep speedup recorded here is the headline number of the
//! fast-path work; the run aborts if it falls below 5x so a regression
//! cannot slip through silently.
//!
//! Pass `--checkpoint` to also time a journal-checkpointed sweep
//! ([`rsg_core::observation::measure_checkpointed`] on a fresh journal,
//! so every cell is computed *and* fsynced): the tables must stay
//! bit-identical and the overhead lands in `BENCH_sweep.json` under
//! `checkpoint_s` / `checkpoint_overhead`.

use rsg_bench::report::{secs, Table};
use rsg_core::curve::CurveConfig;
use rsg_core::observation::{
    measure, measure_checkpointed, measure_naive, CheckpointConfig, ObservationGrid,
};
use rsg_core::THRESHOLD_LADDER;
use rsg_dag::RandomDagSpec;
use rsg_platform::ResourceCollection;
use rsg_sched::{ExecutionContext, HeuristicKind};
use std::time::Instant;

/// Refinement rounds used by the sweep comparison.
const REFINE_ROUNDS: u32 = 2;

/// Host counts for the placement-kernel throughput microbenchmark.
const HOST_COUNTS: [usize; 3] = [10, 100, 1000];

/// Number of tasks in the throughput DAG (per-task cost denominator).
const BENCH_TASKS: usize = 300;

/// Host-scaling extension of the microbenchmark: the reference scan is
/// still *run* once at every count (bit-identity stays pinned at
/// scale), but only *timed* up to [`HOST_COUNTS`]' maximum — above
/// that, timing it would dominate the benchmark's wall-clock for a
/// number nobody reads off this axis.
const SCALING_HOST_COUNTS: [usize; 4] = [10, 100, 1000, 10_000];

/// One throughput measurement: schedules per second at a host count.
struct Throughput {
    heuristic: HeuristicKind,
    hosts: usize,
    fast_per_s: f64,
    naive_per_s: f64,
}

/// One host-scaling sample: fast-path throughput plus the derived
/// per-task placement cost; the naive baseline where it was timed.
struct Scaling {
    heuristic: HeuristicKind,
    hosts: usize,
    fast_per_s: f64,
    per_task_us: f64,
    naive_per_s: Option<f64>,
}

/// Times `f` adaptively: repeats until at least `min_elapsed` seconds
/// have accumulated (and at least 3 repetitions ran), then returns
/// runs-per-second.
fn runs_per_second<F: FnMut()>(mut f: F, min_elapsed: f64) -> f64 {
    // Warm-up run, untimed.
    f();
    let mut reps = 0u64;
    let t0 = Instant::now();
    loop {
        f();
        reps += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if reps >= 3 && elapsed >= min_elapsed {
            return reps as f64 / elapsed;
        }
    }
}

fn bench_dag() -> rsg_dag::Dag {
    RandomDagSpec {
        size: BENCH_TASKS,
        ccr: 0.1,
        parallelism: 0.6,
        density: 0.5,
        regularity: 0.5,
        mean_comp: 20.0,
    }
    .generate(11)
}

fn kernel_throughput() -> Vec<Throughput> {
    let dag = bench_dag();
    let mut out = Vec::new();
    for kind in [HeuristicKind::Mcp, HeuristicKind::Dls] {
        for &hosts in &HOST_COUNTS {
            let rc = ResourceCollection::homogeneous(hosts, 1500.0);
            let ctx = ExecutionContext::new(&dag, &rc);
            // Equal work check first: the fast kernel must reproduce the
            // naive schedule and op count exactly before we time it.
            let (s_fast, ops_fast) = kind.run(&ctx);
            let (s_naive, ops_naive) = kind.run_reference(&ctx);
            assert_eq!(ops_fast, ops_naive, "{kind} P={hosts}: op counts differ");
            assert_eq!(
                (s_fast.host, s_fast.start, s_fast.finish),
                (s_naive.host, s_naive.start, s_naive.finish),
                "{kind} P={hosts}: schedules differ"
            );
            let fast_per_s = runs_per_second(
                || {
                    let _ = kind.run(&ctx);
                },
                0.2,
            );
            let naive_per_s = runs_per_second(
                || {
                    let _ = kind.run_reference(&ctx);
                },
                0.2,
            );
            out.push(Throughput {
                heuristic: kind,
                hosts,
                fast_per_s,
                naive_per_s,
            });
        }
    }
    out
}

/// Extends the timed [`HOST_COUNTS`] samples up the host axis. Counts
/// already covered by `throughput` reuse those timings; larger counts
/// run the reference scan once (the bit-identity check) and time only
/// the fast path. `max_hosts` truncates the axis in `--quick` CI runs.
fn host_scaling(throughput: &[Throughput], max_hosts: usize) -> Vec<Scaling> {
    let dag = bench_dag();
    let mut out = Vec::new();
    for kind in [HeuristicKind::Mcp, HeuristicKind::Dls] {
        for &hosts in &SCALING_HOST_COUNTS {
            if hosts > max_hosts {
                continue;
            }
            let per_task = |per_s: f64| 1e6 / (per_s * BENCH_TASKS as f64);
            if let Some(t) = throughput
                .iter()
                .find(|t| t.heuristic == kind && t.hosts == hosts)
            {
                out.push(Scaling {
                    heuristic: kind,
                    hosts,
                    fast_per_s: t.fast_per_s,
                    per_task_us: per_task(t.fast_per_s),
                    naive_per_s: Some(t.naive_per_s),
                });
                continue;
            }
            eprintln!("bench_sweep: host-scaling {kind} at P={hosts}...");
            let rc = ResourceCollection::homogeneous(hosts, 1500.0);
            let ctx = ExecutionContext::new(&dag, &rc);
            let (s_fast, ops_fast) = kind.run(&ctx);
            let (s_naive, ops_naive) = kind.run_reference(&ctx);
            assert_eq!(ops_fast, ops_naive, "{kind} P={hosts}: op counts differ");
            assert_eq!(
                (s_fast.host, s_fast.start, s_fast.finish),
                (s_naive.host, s_naive.start, s_naive.finish),
                "{kind} P={hosts}: schedules differ"
            );
            let fast_per_s = runs_per_second(
                || {
                    let _ = kind.run(&ctx);
                },
                0.2,
            );
            out.push(Scaling {
                heuristic: kind,
                hosts,
                fast_per_s,
                per_task_us: per_task(fast_per_s),
                naive_per_s: None,
            });
        }
    }
    out
}

/// Minimal JSON string escaping (the strings here are ASCII labels).
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Wall-clock results of the three sweep runs.
struct SweepTimings {
    naive_s: f64,
    fast_s: f64,
    obs_on_s: f64,
    /// Wall-clock of the journal-checkpointed sweep (`--checkpoint`).
    checkpoint_s: Option<f64>,
    identical: bool,
}

fn write_json(
    path: &str,
    grid_label: &str,
    grid: &ObservationGrid,
    sweep: &SweepTimings,
    throughput: &[Throughput],
    scaling: &[Scaling],
    obs_report: Option<&rsg_obs::RunReport>,
) -> std::io::Result<()> {
    let SweepTimings {
        naive_s,
        fast_s,
        obs_on_s,
        checkpoint_s,
        identical,
    } = *sweep;
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"benchmark\": \"observation-sweep fast path\",\n");
    j.push_str("  \"grid\": {\n");
    j.push_str(&format!("    \"label\": {},\n", json_str(grid_label)));
    j.push_str(&format!("    \"cells\": {},\n", grid.cells()));
    j.push_str(&format!("    \"instances\": {}\n", grid.instances));
    j.push_str("  },\n");
    j.push_str(&format!(
        "  \"thetas\": [{}],\n",
        THRESHOLD_LADDER
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    j.push_str(&format!("  \"refine_rounds\": {REFINE_ROUNDS},\n"));
    j.push_str("  \"sweep\": {\n");
    j.push_str(&format!("    \"naive_s\": {naive_s},\n"));
    j.push_str(&format!("    \"fast_s\": {fast_s},\n"));
    j.push_str(&format!("    \"speedup\": {},\n", naive_s / fast_s));
    j.push_str(&format!("    \"obs_on_s\": {obs_on_s},\n"));
    j.push_str(&format!(
        "    \"obs_on_overhead\": {},\n",
        obs_on_s / fast_s - 1.0
    ));
    if let Some(ckpt_s) = checkpoint_s {
        j.push_str(&format!("    \"checkpoint_s\": {ckpt_s},\n"));
        j.push_str(&format!(
            "    \"checkpoint_overhead\": {},\n",
            ckpt_s / fast_s - 1.0
        ));
    }
    j.push_str(&format!("    \"tables_identical\": {identical}\n"));
    j.push_str("  },\n");
    j.push_str("  \"placement_kernel\": [\n");
    for (i, t) in throughput.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"heuristic\": {}, \"hosts\": {}, \"fast_schedules_per_s\": {}, \
             \"naive_schedules_per_s\": {}, \"speedup\": {}}}{}\n",
            json_str(&t.heuristic.to_string()),
            t.hosts,
            t.fast_per_s,
            t.naive_per_s,
            t.fast_per_s / t.naive_per_s,
            if i + 1 < throughput.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    j.push_str("  \"host_scaling\": [\n");
    for (i, s) in scaling.iter().enumerate() {
        let naive = match s.naive_per_s {
            Some(n) => format!(
                ", \"naive_schedules_per_s\": {}, \"speedup\": {}",
                n,
                s.fast_per_s / n
            ),
            None => String::new(),
        };
        j.push_str(&format!(
            "    {{\"heuristic\": {}, \"hosts\": {}, \"fast_schedules_per_s\": {}, \
             \"per_task_us\": {}{}}}{}\n",
            json_str(&s.heuristic.to_string()),
            s.hosts,
            s.fast_per_s,
            s.per_task_us,
            naive,
            if i + 1 < scaling.len() { "," } else { "" }
        ));
    }
    if let Some(report) = obs_report {
        j.push_str("  ],\n");
        j.push_str(&format!("  \"obs\": {}\n", report.to_json().trim_end()));
    } else {
        j.push_str("  ]\n");
    }
    j.push_str("}\n");
    std::fs::write(path, j)
}

fn main() {
    let obs_mode = std::env::args().any(|a| a == "--obs");
    let checkpoint_mode = std::env::args().any(|a| a == "--checkpoint");
    // `--quick`: the reduced CI configuration — tiny grid, host axis
    // capped at 1k, headline speedup assertions skipped (CI machines
    // are too noisy to gate on them; the JSON *schema* is still
    // diffed there, so a key regression is caught).
    let quick_mode = std::env::args().any(|a| a == "--quick");
    let (grid_label, grid) = if quick_mode {
        ("tiny", ObservationGrid::tiny())
    } else {
        ("fast", ObservationGrid::fast())
    };
    let cfg = CurveConfig::default();

    eprintln!(
        "bench_sweep: {} cells x {} instances, {} thresholds, {} refine rounds",
        grid.cells(),
        grid.instances,
        THRESHOLD_LADDER.len(),
        REFINE_ROUNDS
    );

    eprintln!("bench_sweep: running reference sweep (measure_naive)...");
    let t0 = Instant::now();
    let naive_tables = measure_naive(&grid, &cfg, &THRESHOLD_LADDER, REFINE_ROUNDS);
    let naive_s = t0.elapsed().as_secs_f64();
    eprintln!("bench_sweep: reference sweep took {naive_s:.2}s");

    eprintln!("bench_sweep: running optimized sweep (measure)...");
    let t0 = Instant::now();
    let fast_tables = measure(&grid, &cfg, &THRESHOLD_LADDER, REFINE_ROUNDS);
    let fast_s = t0.elapsed().as_secs_f64();
    eprintln!("bench_sweep: optimized sweep took {fast_s:.2}s");

    assert_eq!(
        fast_tables, naive_tables,
        "optimized sweep diverged from the reference sweep"
    );
    let speedup = naive_s / fast_s;

    // Instrumentation must never perturb results: re-run the optimized
    // sweep with observability *and* live tracing enabled and require
    // bit-identical knee tables.
    eprintln!("bench_sweep: re-running optimized sweep with obs + trace enabled...");
    rsg_obs::enable(true);
    rsg_obs::set_trace(true);
    rsg_obs::reset();
    let t0 = Instant::now();
    let obs_tables = measure(&grid, &cfg, &THRESHOLD_LADDER, REFINE_ROUNDS);
    let obs_on_s = t0.elapsed().as_secs_f64();
    rsg_obs::set_trace(false);
    let obs_report = rsg_obs::RunReport::capture();
    rsg_obs::enable(false);
    assert_eq!(
        obs_tables, fast_tables,
        "sweep diverged when observability/tracing was enabled"
    );
    eprintln!(
        "bench_sweep: obs+trace sweep took {obs_on_s:.2}s ({:+.1}% vs obs-off)",
        (obs_on_s / fast_s - 1.0) * 100.0
    );

    // Optional: a checkpointed sweep on a fresh journal, so every cell
    // is both computed and fsynced — the worst case for the journal.
    let checkpoint_s = checkpoint_mode.then(|| {
        let journal = std::path::PathBuf::from("target/bench_sweep.journal");
        let _ = std::fs::remove_file(&journal);
        eprintln!("bench_sweep: running checkpointed sweep (measure_checkpointed)...");
        let ckpt = CheckpointConfig::new(&journal);
        let t0 = Instant::now();
        let (ckpt_tables, _) =
            measure_checkpointed(&grid, &cfg, &THRESHOLD_LADDER, REFINE_ROUNDS, &ckpt)
                .expect("checkpointed sweep failed");
        let ckpt_s = t0.elapsed().as_secs_f64();
        assert_eq!(
            ckpt_tables, fast_tables,
            "checkpointed sweep diverged from the plain sweep"
        );
        let _ = std::fs::remove_file(&journal);
        eprintln!(
            "bench_sweep: checkpointed sweep took {ckpt_s:.2}s ({:+.2}% vs plain)",
            (ckpt_s / fast_s - 1.0) * 100.0
        );
        ckpt_s
    });

    eprintln!("bench_sweep: measuring placement-kernel throughput...");
    let throughput = kernel_throughput();
    let max_hosts = if quick_mode { 1000 } else { usize::MAX };
    let scaling = host_scaling(&throughput, max_hosts);

    let mut sweep_table = Table::new(vec!["sweep", "wall-clock (s)", "speedup"]);
    sweep_table.row(vec![
        "naive".to_string(),
        secs(naive_s),
        "1.00x".to_string(),
    ]);
    sweep_table.row(vec![
        "fast".to_string(),
        secs(fast_s),
        format!("{speedup:.2}x"),
    ]);
    sweep_table.print("Observation sweep: fast vs naive (bit-identical knee tables)");

    let mut kernel_table = Table::new(vec![
        "heuristic",
        "hosts",
        "fast sched/s",
        "naive sched/s",
        "speedup",
    ]);
    for t in &throughput {
        kernel_table.row(vec![
            t.heuristic.to_string(),
            t.hosts.to_string(),
            format!("{:.1}", t.fast_per_s),
            format!("{:.1}", t.naive_per_s),
            format!("{:.2}x", t.fast_per_s / t.naive_per_s),
        ]);
    }
    kernel_table.print("Placement-kernel schedule throughput (300-task DAG)");

    let mut scaling_table = Table::new(vec!["heuristic", "hosts", "fast sched/s", "us/task"]);
    for s in &scaling {
        scaling_table.row(vec![
            s.heuristic.to_string(),
            s.hosts.to_string(),
            format!("{:.1}", s.fast_per_s),
            format!("{:.2}", s.per_task_us),
        ]);
    }
    scaling_table.print("Host-scaling: fast-path throughput up the host axis");

    write_json(
        "BENCH_sweep.json",
        grid_label,
        &grid,
        &SweepTimings {
            naive_s,
            fast_s,
            obs_on_s,
            checkpoint_s,
            identical: true,
        },
        &throughput,
        &scaling,
        obs_mode.then_some(&obs_report),
    )
    .expect("failed to write BENCH_sweep.json");
    eprintln!(
        "bench_sweep: wrote BENCH_sweep.json (sweep speedup {speedup:.2}x{})",
        if obs_mode {
            ", run report embedded"
        } else {
            ""
        }
    );

    if quick_mode {
        eprintln!("bench_sweep: --quick run, speedup gates skipped");
        return;
    }
    assert!(
        speedup >= 5.0,
        "end-to-end sweep speedup {speedup:.2}x is below the required 5x"
    );
    let dls_1k = throughput
        .iter()
        .find(|t| t.heuristic == HeuristicKind::Dls && t.hosts == 1000)
        .expect("DLS 1k-host sample");
    let dls_speedup = dls_1k.fast_per_s / dls_1k.naive_per_s;
    assert!(
        dls_speedup >= 10.0,
        "DLS kernel speedup at 1k hosts is {dls_speedup:.1}x, below the required 10x"
    );
}
