//! The `train` workload: the batch observation sweep over the seeded
//! fast grid (144 cells × 3 instances, the 6-threshold ladder, 2 refine
//! rounds) followed by the planar size-model fit.
//!
//! Untraced, every sweep runs in a fresh worker process — a cold start
//! like every `rsg train` a user runs — so `setup_s` (spawn until the
//! inputs are built), the sweep time and the peak memory all belong to
//! the process doing the work. Traced, the coordinator runs one
//! parallel sweep and then replays the same cells on one thread through
//! `instances_of` → `evaluate_prefix` over `size_ladder` →
//! `refine_knee` → `ThresholdedSizeModel::fit`, with spans around each
//! call, and checks that the replay reproduces the sweep's tables.

use crate::inputs::train_grid;
use crate::trace::Tracer;
use crate::{cpu_seconds, peak_rss_mb, percentile, Opts, Outcome};
use rsg_core::curve::{size_ladder, Curve, CurveConfig};
use rsg_core::knee::refine_knee;
use rsg_core::observation::{measure, KneeTable, ObservationGrid};
use rsg_core::persist::knee_tables_to_tsv;
use rsg_core::{ThresholdedSizeModel, THRESHOLD_LADDER};
use rsg_sched::evaluate_prefix;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Refinement rounds of the measured sweep.
const REFINE_ROUNDS: u32 = 2;
/// Fewest sweeps one untraced run measures, however short `--seconds`.
const MIN_SWEEPS: usize = 3;

/// FNV-1a digest of the serialized tables and fitted model.
fn digest(tables: &[KneeTable], model: &ThresholdedSizeModel) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in knee_tables_to_tsv(tables)
        .bytes()
        .chain(model.to_tsv().bytes())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn sweep(grid: &ObservationGrid, cfg: &CurveConfig) -> (Vec<KneeTable>, ThresholdedSizeModel) {
    let tables = measure(grid, cfg, &THRESHOLD_LADDER, REFINE_ROUNDS);
    let model = ThresholdedSizeModel::fit(&tables);
    (tables, model)
}

/// Worker mode: build the inputs, say `ready`, sweep + fit, and report
/// `done <train_s> <cpu_s> <digest> <peak_rss_mb>` on stdout.
pub fn worker(args: &[String]) -> i32 {
    let Some(seed) = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<u64>().ok())
    else {
        eprintln!("perfbench: --train-worker needs --seed N");
        return 2;
    };
    let grid = train_grid(seed);
    let cfg = CurveConfig::default();
    println!("ready");
    let cpu_before = cpu_seconds("self").unwrap_or(0.0);
    let started = Instant::now();
    let (tables, model) = sweep(&grid, &cfg);
    let train_s = started.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds("self").unwrap_or(0.0) - cpu_before;
    let rss = peak_rss_mb("self").unwrap_or(0.0);
    println!(
        "done {train_s:?} {cpu_s:?} {} {rss:?}",
        digest(&tables, &model)
    );
    0
}

/// What one cold sweep in a worker process measured.
struct ColdSweep {
    setup_s: f64,
    train_s: f64,
    cpu_s: f64,
    digest: String,
    peak_rss_mb: f64,
}

fn cold_sweep(seed: u64) -> Result<ColdSweep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let started = Instant::now();
    let mut child = Command::new(exe)
        .args(["--train-worker", "--seed", &seed.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn train worker: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let mut next = || -> Result<String, String> {
        lines
            .next()
            .ok_or("train worker exited early")?
            .map_err(|e| format!("read train worker: {e}"))
    };
    let ready = next();
    let setup_s = started.elapsed().as_secs_f64();
    let done = ready.and_then(|r| {
        if r == "ready" {
            next()
        } else {
            Err(format!("unexpected '{r}'"))
        }
    });
    let status = child
        .wait()
        .map_err(|e| format!("wait train worker: {e}"))?;
    let done = done?;
    if !status.success() {
        return Err(format!("train worker exited with {status}"));
    }
    let f: Vec<&str> = done.split_whitespace().collect();
    match f.as_slice() {
        ["done", t, c, d, r] => Ok(ColdSweep {
            setup_s,
            train_s: t.parse().map_err(|_| "bad train_s")?,
            cpu_s: c.parse().map_err(|_| "bad cpu_s")?,
            digest: (*d).to_string(),
            peak_rss_mb: r.parse().map_err(|_| "bad rss")?,
        }),
        _ => Err(format!("unexpected worker output '{done}'")),
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    if opts.trace {
        return traced(opts);
    }
    let mut out = Outcome::default();
    let window = Instant::now();
    let mut runs: Vec<ColdSweep> = Vec::new();
    // Start another sweep only while it should end inside the window.
    let fits = |runs: &[ColdSweep]| {
        let last = runs.last().map_or(0.0, |r| r.train_s);
        window.elapsed().as_secs_f64() + last < opts.seconds
    };
    while runs.len() < MIN_SWEEPS || fits(&runs) {
        out.attempted += 1;
        match cold_sweep(opts.seed) {
            Ok(r) => runs.push(r),
            Err(e) => out.violation(format!("sweep {}: {e}", out.attempted)),
        }
        if out.attempted as usize >= MIN_SWEEPS * 4 && runs.is_empty() {
            break;
        }
    }
    if let Some(first) = runs.first() {
        for (i, r) in runs.iter().enumerate().skip(1) {
            if r.digest != first.digest {
                out.violation(format!(
                    "sweep {i} serialized differently ({} vs {})",
                    r.digest, first.digest
                ));
            }
        }
    }
    let n = runs.len();
    let col = |f: fn(&ColdSweep) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    let mut trains = col(|r| r.train_s);
    out.put("setup_s", percentile(&mut col(|r| r.setup_s), 0.5), "s", n);
    out.put("op_p50_ms", percentile(&mut trains, 0.5) * 1e3, "ms", n);
    out.put(
        "cpu_ms_per_op",
        percentile(&mut col(|r| r.cpu_s), 0.5) * 1e3,
        "ms",
        n,
    );
    out.put(
        "peak_rss_mb",
        percentile(&mut col(|r| r.peak_rss_mb), 0.5),
        "MB",
        n,
    );
    out.detail("train_s", percentile(&mut trains, 0.5), "s", n);
    out.detail("train_p90_s", percentile(&mut trains, 0.9), "s", n);
    eprintln!(
        "perfbench: train: {n} cold sweeps, median {:.3} s, digest {}",
        percentile(&mut trains, 0.5),
        runs.first().map_or("-", |r| r.digest.as_str())
    );
    Ok(out)
}

/// Per-layer counts a replay produces alongside its spans.
#[derive(Default)]
struct ReplayCounts {
    evaluations: u64,
    ops: u64,
    refine_evals: u64,
    memo_hits: u64,
}

/// One `evaluate_prefix` call inside a `sched.evaluate` span.
fn evaluate(
    tr: &mut Tracer,
    counts: &mut ReplayCounts,
    id: u64,
    d: &rsg_dag::Dag,
    rc: &rsg_platform::ResourceCollection,
    size: usize,
    cfg: &CurveConfig,
) -> f64 {
    let r = tr.span("sched.evaluate", id, || {
        evaluate_prefix(d, rc, size, cfg.heuristic, &cfg.time_model)
    });
    counts.evaluations += 1;
    counts.ops += r.ops.0;
    r.turnaround_s()
}

/// The sweep of [`measure`] replayed cell by cell on one thread, with a
/// span around every call into a layer. Returns the same tables and
/// model `measure` + `fit` produce.
fn replay(
    grid: &ObservationGrid,
    cfg: &CurveConfig,
    tr: &mut Tracer,
) -> (Vec<KneeTable>, ThresholdedSizeModel, ReplayCounts) {
    let mut counts = ReplayCounts::default();
    tr.enter("train.replay", 0);
    let mut cells = Vec::with_capacity(grid.cells());
    for si in 0..grid.sizes.len() {
        for ci in 0..grid.ccrs.len() {
            for ai in 0..grid.alphas.len() {
                for bi in 0..grid.betas.len() {
                    cells.push((si, ci, ai, bi));
                }
            }
        }
    }
    let dags: Vec<Vec<rsg_dag::Dag>> = cells
        .iter()
        .enumerate()
        .map(|(c, &(si, ci, ai, bi))| {
            tr.span("dag.generate", c as u64, || {
                grid.instances_of(si, ci, ai, bi)
            })
        })
        .collect();
    let ladders: Vec<Vec<usize>> = dags
        .iter()
        .map(|ds| size_ladder(ds.iter().map(|d| d.width() as usize).max().unwrap_or(1)))
        .collect();
    let global_max = ladders
        .iter()
        .filter_map(|l| l.last().copied())
        .max()
        .unwrap_or(1);
    let rc = cfg.rc_family.build(global_max);
    let ninst = grid.instances.max(1);
    let mut knees: Vec<Vec<f64>> = Vec::with_capacity(cells.len());
    for (c, (cell_dags, ladder)) in dags.iter().zip(&ladders).enumerate() {
        let id = c as u64;
        let per_instance: Vec<Vec<f64>> = cell_dags
            .iter()
            .map(|d| {
                ladder
                    .iter()
                    .map(|&s| evaluate(tr, &mut counts, id, d, &rc, s, cfg))
                    .collect()
            })
            .collect();
        let points: Vec<(usize, f64)> = ladder
            .iter()
            .enumerate()
            .map(|(j, &s)| {
                let mut total = 0.0f64;
                for inst in per_instance.iter().take(ninst) {
                    total += inst[j];
                }
                (s, total / ninst as f64)
            })
            .collect();
        let curve = Curve { points };
        let mut memo: HashMap<usize, f64> = curve.points.iter().copied().collect();
        let mut cell_knees = Vec::with_capacity(THRESHOLD_LADDER.len());
        for &theta in &THRESHOLD_LADDER {
            tr.enter("core.knee.refine", id);
            let k = refine_knee(&curve, theta, REFINE_ROUNDS, |s| {
                if let Some(&cached) = memo.get(&s) {
                    counts.memo_hits += 1;
                    return cached;
                }
                counts.refine_evals += 1;
                let total: f64 = cell_dags
                    .iter()
                    .map(|d| evaluate(tr, &mut counts, id, d, &rc, s, cfg))
                    .sum();
                let mean = total / ninst as f64;
                memo.insert(s, mean);
                mean
            });
            tr.exit();
            cell_knees.push(k as f64);
        }
        knees.push(cell_knees);
    }
    let tables: Vec<KneeTable> = THRESHOLD_LADDER
        .iter()
        .enumerate()
        .map(|(ti, &theta)| {
            let column = knees.iter().map(|k| k[ti]).collect();
            KneeTable::from_parts(grid.clone(), theta, column).expect("one knee per cell")
        })
        .collect();
    let model = tr.span("core.planefit.fit", 0, || {
        ThresholdedSizeModel::fit(&tables)
    });
    tr.exit();
    (tables, model, counts)
}

fn traced(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let grid = train_grid(opts.seed);
    let cfg = CurveConfig::default();

    let started = Instant::now();
    let (tables, model) = sweep(&grid, &cfg);
    let train_s = started.elapsed().as_secs_f64();
    let reference = digest(&tables, &model);

    let mut tr = Tracer::new(true);
    let started = Instant::now();
    let (t_tables, t_model, counts) = replay(&grid, &cfg, &mut tr);
    let traced_s = started.elapsed().as_secs_f64();
    let mut off = Tracer::new(false);
    let started = Instant::now();
    let (u_tables, u_model, _) = replay(&grid, &cfg, &mut off);
    let untraced_s = started.elapsed().as_secs_f64();
    out.attempted = 3;
    if digest(&t_tables, &t_model) != reference {
        out.violation("traced replay did not reproduce measure's tables and model".into());
    }
    if digest(&u_tables, &u_model) != reference {
        out.violation("untraced replay did not reproduce measure's tables and model".into());
    }

    let selfs = tr.self_times();
    let get = |k: &str| selfs.get(k).copied().unwrap_or((0.0, 0));
    let (gen_s, gen_n) = get("dag.generate");
    let (eval_s, eval_n) = get("sched.evaluate");
    let (knee_s, knee_n) = get("core.knee.refine");
    let (fit_s, _) = get("core.planefit.fit");
    let (root_s, _) = get("train.replay");
    // The sweep runs one thread per available core.
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let lookups = counts.refine_evals + counts.memo_hits;
    out.put("dag.generate_s", gen_s, "s", gen_n);
    out.put(
        "sched.evaluations",
        counts.evaluations as f64,
        "count",
        eval_n,
    );
    out.put("sched.ops", counts.ops as f64, "count", eval_n);
    out.put("sched.evaluate_s", eval_s, "s", eval_n);
    out.put(
        "sched.us_per_evaluation",
        eval_s * 1e6 / counts.evaluations.max(1) as f64,
        "us",
        eval_n,
    );
    out.put(
        "core.knee.refine_evals",
        counts.refine_evals as f64,
        "count",
        knee_n,
    );
    out.put("core.knee.self_s", knee_s, "s", knee_n);
    out.put(
        "core.knee.memo_hit_ratio",
        counts.memo_hits as f64 / lookups.max(1) as f64,
        "1",
        lookups as usize,
    );
    out.put("core.planefit.fit_s", fit_s, "s", 1);
    out.put("train.unattributed_s", root_s, "s", 1);
    out.put("train.sched_share", eval_s / traced_s, "1", 1);
    out.put(
        "train.parallel_efficiency",
        untraced_s / (train_s * threads as f64),
        "1",
        1,
    );
    out.put("trace.overhead_ratio", traced_s / untraced_s - 1.0, "1", 1);
    out.detail("train_s", train_s, "s", 1);
    out.detail("train.replay_traced_s", traced_s, "s", 1);
    out.detail("train.replay_untraced_s", untraced_s, "s", 1);
    out.detail("train.threads", threads as f64, "count", 1);
    eprintln!(
        "perfbench: train traced: sweep {train_s:.3} s on {threads} threads; replay {traced_s:.3} s \
         traced / {untraced_s:.3} s untraced; self time: generate {gen_s:.3} s, sched {eval_s:.3} s \
         ({:.1} %), knee {knee_s:.3} s, fit {fit_s:.4} s, unattributed {root_s:.3} s",
        100.0 * eval_s / traced_s
    );
    tr.write_out(&format!("train-{}.tsv", opts.seed));
    Ok(out)
}
