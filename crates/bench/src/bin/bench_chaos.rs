//! Chaos benchmark: fault-injected execution and selection hardening.
//!
//! Two sweeps, both fully deterministic (every number written to
//! `BENCH_chaos.json` derives from simulated time, never wall-clock):
//!
//! 1. **Crash fraction × RC size.** For each crash fraction the knee-size
//!    request (θ = 1%) and a speculative +25% over-provisioned request
//!    are executed under seeded fault plans
//!    ([`rsg_sched::FaultPlanSpec`]) and rescued by the chaos engine
//!    ([`rsg_sched::execute_with_faults`]). The headline is the
//!    *knee-size stretch*: resilient turnaround relative to the
//!    fault-free run at the same size, and whether over-provisioning
//!    buys that stretch back. The zero-fault column doubles as a live
//!    differential check — it must be bit-identical to the plain
//!    simulator replay or the run aborts.
//!
//! 2. **Selector flakiness × retrying negotiator.** A hand-built
//!    resource spec and its degradation ladder
//!    ([`rsg_core::alternative::alternatives`]) are bound against a
//!    vgES finder wrapped in the flaky injector
//!    ([`rsg_select::FlakySelector`]), driven by the retrying
//!    negotiator ([`rsg_core::negotiate_with_retry`]). Per-rate
//!    attempt/backoff/rung statistics are recorded, along with the
//!    `core.negotiate.*` counters captured from `rsg-obs`.
//!
//! Pass `--fast` for the CI-scale run, `--obs` to embed the full
//! captured [`rsg_obs::RunReport`] under an `"obs"` key.

use rsg_bench::report::{secs, Table};
use rsg_core::alternative::{
    alternatives, attempt_from_outcome, negotiate_with_retry, CLOCK_TIERS_MHZ,
};
use rsg_core::curve::CurveConfig;
use rsg_core::specgen::ResourceSpec;
use rsg_core::{find_knee, turnaround_curve, RetryPolicy, SpecGenerator};
use rsg_dag::{Dag, RandomDagSpec};
use rsg_platform::{Platform, PlatformFile};
use rsg_sched::{
    evaluate_with_schedule, execute_with_faults, replay, resilient_turnaround, ExecutionContext,
    FaultPlanSpec, Perturbation, SchedTimeModel,
};
use rsg_select::vgdl::AggregateKind;
use rsg_select::{FlakyConfig, FlakySelector, VgesFinder};

/// Knee threshold of the chaos sweep: 1%.
const KNEE_THETA: f64 = 0.01;

/// Speculative over-provisioning factor compared against the knee.
const OVERPROVISION: f64 = 1.25;

/// Negotiations run per flakiness rate.
const NEGOTIATIONS_PER_RATE: usize = 20;

/// One (crash fraction, RC size) cell of the chaos sweep, averaged over
/// the DAG instances.
struct ChaosCell {
    crash_fraction: f64,
    rc_size: usize,
    role: &'static str,
    mean_turnaround_s: f64,
    mean_resilient_s: f64,
    mean_recovery_s: f64,
    /// Resilient turnaround over the fault-free turnaround at the same
    /// size (1.0 in the zero-fault column by construction).
    stretch: f64,
    crashes: u64,
    outages: u64,
    tasks_lost: u64,
    tasks_rescued: u64,
    work_lost_s: f64,
}

/// Aggregated negotiator behaviour at one flakiness rate.
struct NegotiatorCell {
    rate: f64,
    runs: usize,
    bound: usize,
    unfulfillable: usize,
    mean_attempts: f64,
    mean_rung: f64,
    mean_backoff_s: f64,
    mean_elapsed_s: f64,
}

fn instances(fast: bool) -> Vec<Dag> {
    let (count, size) = if fast { (3, 50) } else { (5, 80) };
    (0..count)
        .map(|seed| {
            RandomDagSpec {
                size,
                ccr: 0.4,
                parallelism: 0.6,
                density: 0.5,
                regularity: 0.5,
                mean_comp: 10.0,
            }
            .generate(seed)
        })
        .collect()
}

/// Runs every DAG at `size` hosts under a fault plan drawn for
/// `crash_fraction` and returns the averaged cell. Zero-fault cells are
/// asserted bit-identical to the plain replay.
fn chaos_cell(
    dags: &[Dag],
    cfg: &CurveConfig,
    size: usize,
    role: &'static str,
    crash_fraction: f64,
) -> ChaosCell {
    let rc = cfg.rc_family.build(size);
    let model = SchedTimeModel::default();
    let mut cell = ChaosCell {
        crash_fraction,
        rc_size: size,
        role,
        mean_turnaround_s: 0.0,
        mean_resilient_s: 0.0,
        mean_recovery_s: 0.0,
        stretch: 0.0,
        crashes: 0,
        outages: 0,
        tasks_lost: 0,
        tasks_rescued: 0,
        work_lost_s: 0.0,
    };
    for (di, dag) in dags.iter().enumerate() {
        let (report, schedule) = evaluate_with_schedule(dag, &rc, cfg.heuristic, &model);
        let plan = FaultPlanSpec {
            seed: (di as u64).wrapping_mul(7919) ^ (crash_fraction * 1000.0) as u64,
            crash_fraction,
            outage_fraction: crash_fraction * 0.5,
            joins: usize::from(crash_fraction > 0.0),
            horizon_s: (report.makespan_s * 0.9).max(1.0),
            ..Default::default()
        }
        .generate(rc.len());
        let out = execute_with_faults(dag, &rc, &schedule, &plan, &Perturbation::none())
            .expect("the home node survives every generated plan");
        // Completeness: the rescue rescheduler must finish every task.
        for i in 0..dag.len() {
            assert!(
                out.start[i].is_finite() && out.finish[i] >= out.start[i],
                "task {i} lost under crash fraction {crash_fraction} at size {size}"
            );
        }
        if crash_fraction == 0.0 {
            // Live differential check: zero faults ⇒ bit-identical to
            // the plain simulator replay.
            let ctx = ExecutionContext::new(dag, &rc);
            let r = replay(&ctx, &schedule, &Perturbation::none());
            assert_eq!(
                out.makespan.to_bits(),
                r.makespan.to_bits(),
                "zero-fault chaos diverged from replay at size {size}"
            );
            for i in 0..dag.len() {
                assert_eq!(out.start[i].to_bits(), r.start[i].to_bits());
                assert_eq!(out.finish[i].to_bits(), r.finish[i].to_bits());
            }
        }
        let res = resilient_turnaround(&report, &out, &model);
        cell.mean_turnaround_s += report.turnaround_s();
        cell.mean_resilient_s += res.resilient_turnaround_s();
        cell.mean_recovery_s += res.recovery_overhead_s();
        cell.crashes += res.stats.crashes;
        cell.outages += res.stats.outages;
        cell.tasks_lost += res.stats.tasks_lost;
        cell.tasks_rescued += res.stats.tasks_rescued;
        cell.work_lost_s += res.work_lost_s;
    }
    let n = dags.len() as f64;
    cell.mean_turnaround_s /= n;
    cell.mean_resilient_s /= n;
    cell.mean_recovery_s /= n;
    cell.stretch = cell.mean_resilient_s / cell.mean_turnaround_s;
    cell
}

/// Runs [`NEGOTIATIONS_PER_RATE`] negotiations at one flakiness rate
/// over distinct flaky-selector seeds and aggregates the outcome.
fn negotiator_cell(
    ladder: &[rsg_core::Alternative],
    platform: &Platform,
    policy: &RetryPolicy,
    rate: f64,
) -> NegotiatorCell {
    let finder = VgesFinder::default();
    let mut cell = NegotiatorCell {
        rate,
        runs: NEGOTIATIONS_PER_RATE,
        bound: 0,
        unfulfillable: 0,
        mean_attempts: 0.0,
        mean_rung: 0.0,
        mean_backoff_s: 0.0,
        mean_elapsed_s: 0.0,
    };
    for run in 0..NEGOTIATIONS_PER_RATE {
        let cfg = FlakyConfig::from_seed_rate(0xC0FFEE ^ run as u64, rate);
        let mut flaky = FlakySelector::new(cfg).expect("valid flaky config");
        let result = negotiate_with_retry(ladder, policy, |spec| {
            let vg = SpecGenerator::to_vgdl(spec);
            attempt_from_outcome(flaky.select(|| finder.find(platform, &vg)), spec.min_size)
        });
        let stats = match &result {
            Ok(n) => {
                cell.bound += 1;
                cell.mean_rung += n.rung as f64;
                &n.stats
            }
            Err(u) => {
                cell.unfulfillable += 1;
                &u.stats
            }
        };
        cell.mean_attempts += stats.attempts as f64;
        cell.mean_backoff_s += stats.backoff_total_s;
        cell.mean_elapsed_s += stats.elapsed_s;
        if rate == 0.0 {
            let n = result.as_ref().expect("healthy selector must bind");
            assert_eq!(n.rung, 0, "healthy selector must bind the original spec");
            assert_eq!(n.stats.attempts, 1, "healthy bind must take one ask");
        }
    }
    let n = NEGOTIATIONS_PER_RATE as f64;
    cell.mean_attempts /= n;
    cell.mean_backoff_s /= n;
    cell.mean_elapsed_s /= n;
    if cell.bound > 0 {
        cell.mean_rung /= cell.bound as f64;
    }
    cell
}

/// Minimal JSON string escaping (the strings here are ASCII labels).
fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    fast: bool,
    knee: usize,
    over: usize,
    instances: usize,
    cells: &[ChaosCell],
    policy: &RetryPolicy,
    negotiator: &[NegotiatorCell],
    negotiate_counters: &[(String, u64)],
    backoff_records: u64,
    obs_report: Option<&rsg_obs::RunReport>,
) -> std::io::Result<()> {
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"benchmark\": \"chaos sweep & retrying negotiator\",\n");
    j.push_str(&format!(
        "  \"mode\": {},\n",
        json_str(if fast { "fast" } else { "full" })
    ));
    j.push_str(&format!(
        "  \"knee\": {{\"theta\": {KNEE_THETA}, \"size\": {knee}, \"over_size\": {over}}},\n"
    ));
    j.push_str(&format!("  \"instances\": {instances},\n"));
    j.push_str("  \"chaos\": [\n");
    for (i, c) in cells.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"crash_fraction\": {}, \"rc_size\": {}, \"role\": {}, \
             \"mean_turnaround_s\": {}, \"mean_resilient_s\": {}, \"mean_recovery_s\": {}, \
             \"stretch\": {}, \"crashes\": {}, \"outages\": {}, \"tasks_lost\": {}, \
             \"tasks_rescued\": {}, \"work_lost_s\": {}}}{}\n",
            c.crash_fraction,
            c.rc_size,
            json_str(c.role),
            c.mean_turnaround_s,
            c.mean_resilient_s,
            c.mean_recovery_s,
            c.stretch,
            c.crashes,
            c.outages,
            c.tasks_lost,
            c.tasks_rescued,
            c.work_lost_s,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    j.push_str("  \"negotiator\": {\n");
    j.push_str(&format!(
        "    \"policy\": {{\"max_attempts_per_rung\": {}, \"backoff_base_s\": {}, \
         \"backoff_cap_s\": {}, \"attempt_deadline_s\": {}, \"total_deadline_s\": {}}},\n",
        policy.max_attempts_per_rung,
        policy.backoff_base_s,
        policy.backoff_cap_s,
        policy.attempt_deadline_s,
        policy.total_deadline_s,
    ));
    j.push_str("    \"rates\": [\n");
    for (i, c) in negotiator.iter().enumerate() {
        j.push_str(&format!(
            "      {{\"rate\": {}, \"runs\": {}, \"bound\": {}, \"unfulfillable\": {}, \
             \"mean_attempts\": {}, \"mean_rung\": {}, \"mean_backoff_s\": {}, \
             \"mean_elapsed_s\": {}}}{}\n",
            c.rate,
            c.runs,
            c.bound,
            c.unfulfillable,
            c.mean_attempts,
            c.mean_rung,
            c.mean_backoff_s,
            c.mean_elapsed_s,
            if i + 1 < negotiator.len() { "," } else { "" }
        ));
    }
    j.push_str("    ],\n");
    j.push_str("    \"obs_counters\": {");
    for (i, (name, v)) in negotiate_counters.iter().enumerate() {
        j.push_str(&format!(
            "{}{}: {v}",
            if i == 0 { "" } else { ", " },
            json_str(name)
        ));
    }
    j.push_str("},\n");
    j.push_str(&format!("    \"obs_backoff_records\": {backoff_records}\n"));
    if let Some(report) = obs_report {
        j.push_str("  },\n");
        j.push_str(&format!("  \"obs\": {}\n", report.to_json().trim_end()));
    } else {
        j.push_str("  }\n");
    }
    j.push_str("}\n");
    std::fs::write(path, j)
}

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let obs_mode = std::env::args().any(|a| a == "--obs");
    let dags = instances(fast);
    let cfg = CurveConfig::default();

    eprintln!(
        "bench_chaos: {} instances of {} tasks, θ = {KNEE_THETA}",
        dags.len(),
        dags[0].len()
    );
    let curve = turnaround_curve(&dags, &cfg);
    let knee = find_knee(&curve, KNEE_THETA);
    let over = ((knee as f64 * OVERPROVISION).ceil() as usize).max(knee + 1);
    eprintln!("bench_chaos: knee size {knee}, over-provisioned size {over}");

    let crash_fractions: &[f64] = if fast {
        &[0.0, 0.2]
    } else {
        &[0.0, 0.1, 0.2, 0.3, 0.4]
    };
    let mut cells = Vec::new();
    for &f in crash_fractions {
        eprintln!("bench_chaos: crash fraction {:.0}%...", f * 100.0);
        cells.push(chaos_cell(&dags, &cfg, knee, "knee", f));
        cells.push(chaos_cell(&dags, &cfg, over, "over", f));
    }

    let mut chaos_table = Table::new(vec![
        "crash frac",
        "size (role)",
        "turnaround",
        "resilient",
        "stretch",
        "lost",
        "rescued",
    ]);
    for c in &cells {
        chaos_table.row(vec![
            format!("{:.0}%", c.crash_fraction * 100.0),
            format!("{} ({})", c.rc_size, c.role),
            secs(c.mean_turnaround_s),
            secs(c.mean_resilient_s),
            format!("{:.3}x", c.stretch),
            c.tasks_lost.to_string(),
            c.tasks_rescued.to_string(),
        ]);
    }
    chaos_table.print("Chaos sweep: crash fraction x RC size (knee vs +25% over-provisioned)");

    // --- Negotiator sweep -------------------------------------------------
    eprintln!("bench_chaos: building degradation ladder...");
    let platform = PlatformFile::serve_default().realize();
    let original = ResourceSpec {
        rc_size: knee as u32,
        min_size: ((knee / 2).max(1)) as u32,
        clock_mhz: (1200.0, 3500.0),
        heuristic: cfg.heuristic,
        aggregate: AggregateKind::LooseBagOf,
        threshold: KNEE_THETA,
        memory_mb: 512,
    };
    let ladder = alternatives(&original, &dags, &CLOCK_TIERS_MHZ, &cfg);
    eprintln!("bench_chaos: ladder has {} rungs", ladder.len());

    let flaky_rates: &[f64] = if fast {
        &[0.0, 0.35]
    } else {
        &[0.0, 0.2, 0.4, 0.6]
    };
    // A 20 s attempt deadline sits below the injector's 30 s latency
    // spikes, so a spiked reply counts as a transient timeout rather
    // than a slow success — the sweep then exercises the backoff and
    // ladder-descent paths, not just the happy path.
    let policy = RetryPolicy {
        attempt_deadline_s: 20.0,
        ..RetryPolicy::default()
    };
    rsg_obs::enable(true);
    rsg_obs::reset();
    let negotiator: Vec<NegotiatorCell> = flaky_rates
        .iter()
        .map(|&rate| {
            eprintln!("bench_chaos: negotiating at flakiness rate {rate}...");
            negotiator_cell(&ladder, &platform, &policy, rate)
        })
        .collect();
    let report = rsg_obs::RunReport::capture();
    rsg_obs::enable(false);
    let negotiate_counters: Vec<(String, u64)> = [
        "core.negotiate.attempts.original",
        "core.negotiate.attempts.slower_clock",
        "core.negotiate.attempts.wider_het",
        "core.negotiate.attempts.smaller_size",
        "core.negotiate.bound",
        "core.negotiate.unfulfillable",
    ]
    .iter()
    .map(|&name| (name.to_string(), report.counter(name)))
    .collect();
    let backoff_records = report
        .histogram("core.negotiate.backoff")
        .map_or(0, |h| h.count);

    let mut neg_table = Table::new(vec![
        "flaky rate",
        "bound",
        "unfulfillable",
        "mean attempts",
        "mean rung",
        "mean backoff",
        "mean elapsed",
    ]);
    for c in &negotiator {
        neg_table.row(vec![
            format!("{:.0}%", c.rate * 100.0),
            format!("{}/{}", c.bound, c.runs),
            c.unfulfillable.to_string(),
            format!("{:.2}", c.mean_attempts),
            format!("{:.2}", c.mean_rung),
            secs(c.mean_backoff_s),
            secs(c.mean_elapsed_s),
        ]);
    }
    neg_table.print("Retrying negotiator vs flaky selector (20 negotiations per rate)");

    write_json(
        "BENCH_chaos.json",
        fast,
        knee,
        over,
        dags.len(),
        &cells,
        &policy,
        &negotiator,
        &negotiate_counters,
        backoff_records,
        obs_mode.then_some(&report),
    )
    .expect("failed to write BENCH_chaos.json");
    eprintln!(
        "bench_chaos: wrote BENCH_chaos.json ({} chaos cells, {} negotiator rates{})",
        cells.len(),
        negotiator.len(),
        if obs_mode {
            ", run report embedded"
        } else {
            ""
        }
    );
}
