//! The CLI commands.

use crate::args::Args;
use crate::CliError;
use rsg_core::alternative::{alternatives, attempt_from_outcome, negotiate_with_retry};
use rsg_core::curve::{turnaround_curve, CurveConfig, RcFamily};
use rsg_core::heurmodel::{HeuristicPredictionModel, HeuristicTraining};
use rsg_core::knee::find_knees;
use rsg_core::observation::ObservationGrid;
use rsg_core::specgen::{GeneratorConfig, SpecGenerator};
use rsg_core::{RetryPolicy, ThresholdedSizeModel};
use rsg_dag::io::{read_dag, to_dot, write_dag};
use rsg_dag::{Dag, DagStats, RandomDagSpec};
use rsg_platform::{Platform, ResourceCollection, ResourceGenSpec, TopologySpec};
use rsg_sched::{
    evaluate_with_schedule, execute_with_faults, resilient_turnaround, FaultPlanSpec,
    HeuristicKind, Perturbation, SchedTimeModel,
};
use rsg_select::{FlakyConfig, FlakySelector, VgesFinder};
use std::io::{Read, Write};

use rsg_core::persist::{HEUR_MODEL_KIND, SIZE_MODEL_KIND};

fn load_dag(path: &str) -> Result<Dag, CliError> {
    let text = if path == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s)?;
        s
    } else {
        std::fs::read_to_string(path)
            .map_err(|e| CliError::Io(format!("cannot read {path}: {e}")))?
    };
    read_dag(&text).map_err(|e| CliError::Decode(format!("{path}: {e}")))
}

fn emit(out_path: Option<&str>, content: &str, out: &mut dyn Write) -> Result<(), CliError> {
    match out_path {
        Some(p) => {
            std::fs::write(p, content)
                .map_err(|e| CliError::Failed(format!("cannot write {p}: {e}")))?;
            Ok(())
        }
        None => {
            out.write_all(content.as_bytes())?;
            Ok(())
        }
    }
}

/// `rsg gen random|montage …`
pub fn gen(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let what = args.require_positional("generator (random|montage)")?;
    let dag = match what.as_str() {
        "random" => {
            let spec = RandomDagSpec {
                size: args.int("size", 1000)? as usize,
                ccr: args.num("ccr", 0.1)?,
                parallelism: args.num("parallelism", 0.5)?,
                density: args.num("density", 0.5)?,
                regularity: args.num("regularity", 0.5)?,
                mean_comp: args.num("mean-comp", 40.0)?,
            };
            spec.generate(args.int("seed", 42)?)
        }
        "montage" => {
            let tasks = args.int("tasks", 1629)?;
            let comm = match args.opt("ccr") {
                Some(_) => rsg_dag::montage::MontageComm::Ccr(args.num("ccr", 1.0)?),
                None => rsg_dag::montage::MontageComm::ActualFiles,
            };
            match tasks {
                1629 => rsg_dag::montage::MontageSpec::m1629(comm).generate(),
                4469 => rsg_dag::montage::MontageSpec::m4469(comm).generate(),
                other => {
                    return Err(CliError::Usage(format!(
                        "--tasks must be 1629 or 4469, got {other}"
                    )))
                }
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown generator '{other}' (random|montage)"
            )))
        }
    };
    emit(args.opt("out"), &write_dag(&dag), out)
}

/// `rsg stats FILE`
pub fn stats(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.require_positional("DAG file")?;
    let dag = load_dag(&path)?;
    let s = DagStats::measure(&dag);
    writeln!(out, "name         {}", dag.name())?;
    writeln!(out, "size         {}", s.size)?;
    writeln!(out, "edges        {}", dag.edge_count())?;
    writeln!(out, "height       {}", s.height)?;
    writeln!(out, "width        {}", s.width)?;
    writeln!(out, "tasks/level  {:.2}", s.tasks_per_level)?;
    writeln!(out, "CCR          {:.4}", s.ccr)?;
    writeln!(out, "parallelism  {:.3}", s.parallelism)?;
    writeln!(out, "density      {:.3}", s.density)?;
    writeln!(out, "regularity   {:.3}", s.regularity)?;
    writeln!(out, "mean comp    {:.2} s", s.mean_comp)?;
    writeln!(out, "total work   {:.1} s", dag.total_work())?;
    Ok(())
}

/// `rsg curve FILE [--heuristic H] [--instances K]`
pub fn curve(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.require_positional("DAG file")?;
    let dag = load_dag(&path)?;
    let heuristic = parse_heuristic(args.opt("heuristic").unwrap_or("MCP"))?;
    let cfg = CurveConfig {
        heuristic,
        ..CurveConfig::default()
    };
    let c = turnaround_curve(std::slice::from_ref(&dag), &cfg);
    writeln!(out, "{:>8}  {:>14}", "RC size", "turnaround (s)")?;
    for &(s, t) in &c.points {
        writeln!(out, "{s:>8}  {t:>14.2}")?;
    }
    let knees = find_knees(&c, &rsg_core::THRESHOLD_LADDER);
    write!(out, "knee ladder: ")?;
    for (theta, k) in rsg_core::THRESHOLD_LADDER.iter().zip(&knees) {
        write!(out, "{}%→{k}  ", theta * 100.0)?;
    }
    writeln!(out)?;
    Ok(())
}

/// Grid selection shared by `train` and its shard workers.
fn grid_by_name(label: &str) -> Result<ObservationGrid, CliError> {
    match label {
        "tiny" => Ok(ObservationGrid::tiny()),
        "fast" => Ok(ObservationGrid::fast()),
        "paper" => Ok(ObservationGrid::paper()),
        other => Err(CliError::Usage(format!(
            "--grid must be tiny|fast|paper, got '{other}'"
        ))),
    }
}

/// Runs the sweep sharded over `count` worker processes, each invoking
/// this same binary's hidden `train-shard` subcommand on a disjoint
/// cell subset with its own journal, then merges the shard journals.
fn sharded_sweep(
    grid: &rsg_core::ObservationGrid,
    label: &str,
    journal: &str,
    count: usize,
    out: &mut dyn Write,
) -> Result<Vec<rsg_core::KneeTable>, CliError> {
    let exe = std::env::current_exe()
        .map_err(|e| CliError::Failed(format!("cannot locate own executable: {e}")))?;
    let mut children = Vec::with_capacity(count);
    for i in 0..count {
        let child = std::process::Command::new(&exe)
            .args([
                "train-shard",
                "--grid",
                label,
                "--journal",
                journal,
                "--shard",
                &format!("{i}/{count}"),
            ])
            .stdout(std::process::Stdio::null())
            .spawn()
            .map_err(|e| CliError::Failed(format!("cannot spawn shard {i}/{count}: {e}")))?;
        children.push(child);
    }
    for (i, mut child) in children.into_iter().enumerate() {
        let status = child
            .wait()
            .map_err(|e| CliError::Failed(format!("shard {i}/{count}: {e}")))?;
        if !status.success() {
            return Err(CliError::Failed(format!(
                "shard {i}/{count} exited with {status}; rerun to resume from its journal"
            )));
        }
    }
    writeln!(out, "merging {count} shard journals ...")?;
    Ok(rsg_core::merge_shards(
        grid,
        &CurveConfig::default(),
        &rsg_core::THRESHOLD_LADDER,
        0,
        std::path::Path::new(journal),
        count,
    )?)
}

/// `rsg train [--grid tiny|fast|paper] [--out FILE] [--journal FILE]
/// [--shards N]`
pub fn train(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let label = args.opt("grid").unwrap_or("fast").to_string();
    let grid = grid_by_name(&label)?;
    writeln!(
        out,
        "training on {} configurations x {} instances ...",
        grid.cells(),
        grid.instances
    )?;
    let cfg = CurveConfig::default();
    let shards = match args.opt("shards") {
        None => None,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => {
                return Err(CliError::Usage(format!(
                    "--shards expects a positive integer, got '{v}'"
                )))
            }
        },
    };
    let tables = match (shards, args.opt("journal")) {
        (Some(_), None) => {
            return Err(CliError::Usage(
                "--shards requires --journal BASE (shard journals are \
                 derived from the base path)"
                    .into(),
            ))
        }
        (Some(n), Some(j)) => {
            let tables = sharded_sweep(&grid, &label, j, n, out)?;
            writeln!(out, "sweep sharded {n} ways, journals at {j}.shard*")?;
            tables
        }
        (None, Some(j)) => {
            let ckpt = rsg_core::CheckpointConfig::new(j);
            let (tables, _) = rsg_core::observation::measure_checkpointed(
                &grid,
                &cfg,
                &rsg_core::THRESHOLD_LADDER,
                0,
                &ckpt,
            )?;
            writeln!(out, "sweep checkpointed to {j}")?;
            tables
        }
        (None, None) => rsg_core::observation::measure(&grid, &cfg, &rsg_core::THRESHOLD_LADDER, 0),
    };
    let model = ThresholdedSizeModel::fit(&tables);
    let text = model.to_tsv();
    match args.opt("out") {
        Some(p) => {
            rsg_core::store::write_atomic(std::path::Path::new(p), SIZE_MODEL_KIND, &text)?;
            writeln!(out, "model written to {p}")?;
        }
        None => out.write_all(text.as_bytes())?,
    }
    Ok(())
}

/// `rsg train-shard --grid tiny|fast|paper --journal BASE --shard i/N`
///
/// Hidden worker subcommand behind `rsg train --shards N`: computes one
/// shard's cells of the sweep into `<BASE>.shard<i>-of-<N>` and exits.
/// Resumable — a rerun skips cells already journaled.
pub fn train_shard(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let grid = grid_by_name(args.require("grid")?)?;
    let journal = args.require("journal")?;
    let spec = args.require("shard")?;
    let shard = spec
        .split_once('/')
        .and_then(|(i, n)| Some((i.parse::<usize>().ok()?, n.parse::<usize>().ok()?)))
        .filter(|&(i, n)| n > 0 && i < n)
        .map(|(index, count)| rsg_core::ShardSpec { index, count })
        .ok_or_else(|| CliError::Usage(format!("--shard expects i/N with i < N, got '{spec}'")))?;
    let ckpt = rsg_core::CheckpointConfig::new(journal);
    let computed = rsg_core::measure_shard(
        &grid,
        &CurveConfig::default(),
        &rsg_core::THRESHOLD_LADDER,
        0,
        &ckpt,
        shard,
    )?;
    writeln!(
        out,
        "shard {}/{}: {computed} cells computed",
        shard.index, shard.count
    )?;
    Ok(())
}

fn load_model(path: &str) -> Result<ThresholdedSizeModel, CliError> {
    rsg_core::persist::load_size_model(std::path::Path::new(path)).map_err(CliError::from)
}

/// `rsg predict --model FILE DAGFILE`
pub fn predict(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let model = load_model(args.require("model")?)?;
    let path = args.require_positional("DAG file")?;
    let dag = load_dag(&path)?;
    let s = DagStats::measure(&dag);
    writeln!(
        out,
        "DAG: {} tasks, width {}, CCR {:.4}, alpha {:.2}, beta {:.2}",
        s.size, s.width, s.ccr, s.parallelism, s.regularity
    )?;
    writeln!(out, "{:>10}  {:>9}", "threshold", "RC size")?;
    for m in &model.models {
        writeln!(out, "{:>9.1}%  {:>9}", m.theta * 100.0, m.predict(&s))?;
    }
    Ok(())
}

/// `rsg spec (--model FILE | --grid tiny|fast) DAGFILE [--lang …]
/// [--clock MHZ] [--het H]`
pub fn spec(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let lang = args.opt("lang").unwrap_or("all").to_string();
    if !["vgdl", "classad", "sword", "all"].contains(&lang.as_str()) {
        return Err(CliError::Usage(format!(
            "--lang must be vgdl|classad|sword|all, got '{lang}'"
        )));
    }
    // Size model: a persisted one, or trained inline from a small grid
    // (with one refinement round, so a single invocation exercises the
    // whole sweep → knee → fit pipeline).
    let model = match (args.opt("model"), args.opt("grid")) {
        (Some(p), _) => load_model(p)?,
        (None, Some(g)) => {
            let grid = match g {
                "tiny" => ObservationGrid::tiny(),
                "fast" => ObservationGrid::fast(),
                other => {
                    return Err(CliError::Usage(format!(
                        "--grid must be tiny|fast for inline training, got '{other}'"
                    )))
                }
            };
            let tables = rsg_core::observation::measure(
                &grid,
                &CurveConfig::default(),
                &rsg_core::THRESHOLD_LADDER,
                1,
            );
            ThresholdedSizeModel::fit(&tables)
        }
        (None, None) => {
            return Err(CliError::Usage(
                "spec needs --model FILE or --grid tiny|fast".into(),
            ))
        }
    };
    let path = args.require_positional("DAG file")?;
    let dag = load_dag(&path)?;

    // Heuristic: explicit flag, or a degenerate single-cell model
    // defaulting to MCP (training a full heuristic model is a separate,
    // slower step — `fig6_1` at experiment scale).
    let heur_model = match (args.opt("heuristic-model"), args.opt("heuristic")) {
        (Some(path), _) => rsg_core::persist::load_heuristic_model(std::path::Path::new(path))
            .map_err(CliError::from)?,
        (None, Some(h)) => HeuristicPredictionModel::fixed(parse_heuristic(h)?),
        (None, None) => HeuristicPredictionModel::fixed(HeuristicKind::Mcp),
    };
    let generator = SpecGenerator::new(model, heur_model);
    let cfg = GeneratorConfig {
        target_clock_mhz: args.num("clock", 3500.0)?,
        heterogeneity_tolerance: args.num("het", 0.0)?,
        ..Default::default()
    };
    let spec = generator.generate(&dag, &cfg);
    writeln!(
        out,
        "RC size {} (min {}), clocks {:.0}..{:.0} MHz, heuristic {}, threshold {:.1}%",
        spec.rc_size,
        spec.min_size,
        spec.clock_mhz.0,
        spec.clock_mhz.1,
        spec.heuristic,
        spec.threshold * 100.0
    )?;
    if lang == "vgdl" || lang == "all" {
        writeln!(out, "\n--- vgDL ---")?;
        writeln!(out, "{}", SpecGenerator::to_vgdl(&spec))?;
    }
    if lang == "classad" || lang == "all" {
        writeln!(out, "\n--- ClassAd ---")?;
        writeln!(out, "{}", SpecGenerator::to_classad(&spec))?;
    }
    if lang == "sword" || lang == "all" {
        writeln!(out, "\n--- SWORD ---")?;
        write!(
            out,
            "{}",
            rsg_select::sword::write_sword(&SpecGenerator::to_sword(&spec))
        )?;
    }
    // `--selector-flaky SEED:RATE` (or plain `--negotiate`) binds the
    // spec against a vgES finder, retrying and degrading on failure.
    let flaky_cfg = match args.opt("selector-flaky") {
        Some(v) => {
            let (seed, rate) = parse_seed_rate("selector-flaky", v)?;
            Some(FlakyConfig::from_seed_rate(seed, rate))
        }
        None if args.flag("negotiate") => Some(FlakyConfig::default()),
        None => None,
    };
    if let Some(cfg) = flaky_cfg {
        negotiate_spec(&spec, &dag, cfg, out)?;
    }
    Ok(())
}

/// Parses a `SEED:RATE` flag value (e.g. `--faults 7:0.3`).
fn parse_seed_rate(what: &str, v: &str) -> Result<(u64, f64), CliError> {
    let bad = || CliError::Usage(format!("--{what} wants SEED:RATE (e.g. 7:0.3), got '{v}'"));
    let (seed, rate) = v.split_once(':').ok_or_else(bad)?;
    let seed: u64 = seed.parse().map_err(|_| bad())?;
    let rate: f64 = rate.parse().map_err(|_| bad())?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(CliError::Usage(format!(
            "--{what} rate must be in [0, 1], got {rate}"
        )));
    }
    Ok((seed, rate))
}

/// `rsg chaos FILE [--hosts N] [--clock MHZ] [--het H] [--heuristic H]
/// [--faults SEED:RATE] [--outages RATE] [--joins K]`
///
/// Schedules the DAG, draws a seeded fault plan (host crashes, outage
/// windows, late joins), executes it through the rescue rescheduler and
/// reports the resilient turnaround next to the fault-free baseline.
pub fn chaos(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.require_positional("DAG file")?;
    let dag = load_dag(&path)?;
    let hosts = args.int("hosts", 16)? as usize;
    if hosts == 0 {
        return Err(CliError::Usage("--hosts must be at least 1".into()));
    }
    let heuristic = parse_heuristic(args.opt("heuristic").unwrap_or("MCP"))?;
    let family = RcFamily {
        clock_mhz: args.num("clock", rsg_dag::REFERENCE_CLOCK_MHZ)?,
        heterogeneity: args.num("het", 0.0)?,
        bw_heterogeneity: 0.0,
        seed: 42,
    };
    let rc: ResourceCollection = family.build(hosts);
    let (seed, crash_rate) = match args.opt("faults") {
        Some(v) => parse_seed_rate("faults", v)?,
        None => (0, 0.0),
    };
    let outage_rate = args.num("outages", 0.0)?;
    let joins = args.int("joins", 0)? as usize;

    let model = SchedTimeModel::default();
    let (report, schedule) = evaluate_with_schedule(&dag, &rc, heuristic, &model);
    let plan = FaultPlanSpec {
        seed,
        crash_fraction: crash_rate,
        outage_fraction: outage_rate,
        joins,
        horizon_s: (report.makespan_s * 0.9).max(1.0),
        ..Default::default()
    }
    .generate(rc.len());
    let outcome = execute_with_faults(&dag, &rc, &schedule, &plan, &Perturbation::none())
        .map_err(|e| CliError::Failed(format!("chaos execution failed: {e}")))?;
    let res = resilient_turnaround(&report, &outcome, &model);

    writeln!(
        out,
        "schedule   {} on {} hosts, makespan {:.2} s",
        heuristic, hosts, report.makespan_s
    )?;
    writeln!(
        out,
        "faults     {} crashes, {} outages, {} joins (seed {seed}, rate {crash_rate})",
        res.stats.crashes, res.stats.outages, res.stats.joins
    )?;
    writeln!(
        out,
        "rescue     {} in-flight tasks lost, {} tasks re-placed, {:.2} s of work discarded",
        res.stats.tasks_lost, res.stats.tasks_rescued, res.work_lost_s
    )?;
    writeln!(
        out,
        "turnaround baseline {:.2} s -> resilient {:.2} s (stretch {:.3}x, recovery {:.2} s)",
        report.turnaround_s(),
        res.resilient_turnaround_s(),
        res.resilient_turnaround_s() / report.turnaround_s(),
        res.recovery_overhead_s()
    )?;
    Ok(())
}

/// The negotiation tail of `rsg spec`: binds the emitted spec against a
/// vgES finder over a generated platform, optionally through the flaky
/// injector, descending the degradation ladder on failure.
fn negotiate_spec(
    spec: &rsg_core::ResourceSpec,
    dag: &Dag,
    flaky_cfg: FlakyConfig,
    out: &mut dyn Write,
) -> Result<(), CliError> {
    let platform = Platform::generate(
        ResourceGenSpec {
            clusters: 40,
            year: 2006,
            target_hosts: Some(1200),
        },
        TopologySpec::default(),
        11,
    );
    let tiers: Vec<f64> = [3000.0, 2500.0, 2000.0]
        .into_iter()
        .filter(|&t| t < spec.clock_mhz.1)
        .collect();
    let ladder = alternatives(
        spec,
        std::slice::from_ref(dag),
        &tiers,
        &CurveConfig::default(),
    );
    let finder = VgesFinder::default();
    let mut flaky =
        FlakySelector::new(flaky_cfg).map_err(|e| CliError::Usage(format!("flaky config: {e}")))?;
    writeln!(out, "\n--- negotiation ({} rungs) ---", ladder.len())?;
    let result = negotiate_with_retry(&ladder, &RetryPolicy::default(), |s| {
        let vg = SpecGenerator::to_vgdl(s);
        attempt_from_outcome(flaky.select(|| finder.find(&platform, &vg)), s.min_size)
    });
    match result {
        Ok(n) => {
            let alt = &ladder[n.rung];
            writeln!(
                out,
                "bound rung {} ({:?}) with {} hosts after {} attempts \
                 ({} transient, {:.1} s backoff, {:.1} s elapsed)",
                n.rung,
                alt.degradation,
                n.value.len(),
                n.stats.attempts,
                n.stats.transient_failures,
                n.stats.backoff_total_s,
                n.stats.elapsed_s
            )?;
        }
        Err(u) => {
            writeln!(
                out,
                "unfulfillable after {} attempts over {} rungs \
                 ({} transient, {} rejected, deadline hit: {})",
                u.stats.attempts,
                u.stats.rungs_visited,
                u.stats.transient_failures,
                u.stats.permanent_rejections,
                u.deadline_hit
            )?;
        }
    }
    Ok(())
}

/// `rsg train-heuristic [--preset fast|paper] [--out FILE]`
pub fn train_heuristic(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let training = match args.opt("preset").unwrap_or("fast") {
        "fast" => HeuristicTraining::fast(),
        "paper" => HeuristicTraining::paper(),
        other => {
            return Err(CliError::Usage(format!(
                "--preset must be fast|paper, got '{other}'"
            )))
        }
    };
    writeln!(
        out,
        "training heuristic model on {} x {} cells ...",
        training.sizes.len(),
        training.ccrs.len()
    )?;
    let model = HeuristicPredictionModel::train(&training, &CurveConfig::default());
    let text = model.to_tsv();
    match args.opt("out") {
        Some(p) => {
            rsg_core::store::write_atomic(std::path::Path::new(p), HEUR_MODEL_KIND, &text)?;
            writeln!(out, "heuristic model written to {p}")?;
        }
        None => out.write_all(text.as_bytes())?,
    }
    Ok(())
}

/// `rsg store verify PATH...` — read-only integrity check of persisted
/// artifacts: envelope magic/version/length/checksum, or per-line
/// checksums for sweep and platform-delta journals. A path whose
/// `.shard<i>-of-<N>` siblings exist (a sharded sweep) has every shard
/// verified too. Prints one line per file; the exit status reflects
/// the first failure found.
pub fn store(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let action = args.require_positional("store action (verify)")?;
    if action != "verify" {
        return Err(CliError::Usage(format!(
            "unknown store action '{action}' (verify)"
        )));
    }
    let mut paths = Vec::new();
    while let Some(p) = args.positional() {
        for sibling in shard_siblings(&p) {
            if !paths.contains(&sibling) {
                paths.push(sibling);
            }
        }
        if !paths.contains(&p) {
            paths.push(p);
        }
    }
    if paths.is_empty() {
        return Err(CliError::Usage(
            "store verify needs at least one path".into(),
        ));
    }
    let mut first_err: Option<CliError> = None;
    for p in &paths {
        match verify_artifact(p) {
            Ok(desc) => writeln!(out, "{p}: OK — {desc}")?,
            Err(e) => {
                writeln!(out, "{p}: FAILED — {e}")?;
                if first_err.is_none() {
                    first_err = Some(e.into());
                }
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Expands a sharded sweep's journals: `BASE` names shards
/// `BASE.shard<i>-of-<N>` in the same directory (the layout
/// [`rsg_core::shard_journal_path`] writes), so verifying the base
/// path should cover every shard a partitioned `rsg train` produced.
/// Returns the existing siblings in name order; never errors — a path
/// in an unreadable directory just expands to nothing.
fn shard_siblings(path: &str) -> Vec<String> {
    let p = std::path::Path::new(path);
    let (Some(dir), Some(name)) = (p.parent(), p.file_name().map(|n| n.to_string_lossy())) else {
        return Vec::new();
    };
    let prefix = format!("{name}.shard");
    let Ok(entries) = std::fs::read_dir(if dir.as_os_str().is_empty() {
        std::path::Path::new(".")
    } else {
        dir
    }) else {
        return Vec::new();
    };
    let mut out: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let fname = e.file_name().to_string_lossy().into_owned();
            (fname.starts_with(&prefix) && fname.contains("-of-"))
                .then(|| dir.join(&fname).to_string_lossy().into_owned())
        })
        .collect();
    out.sort();
    out
}

/// Verifies one file: a sweep journal or delta journal (by magic) or a
/// store envelope.
fn verify_artifact(path: &str) -> Result<String, rsg_core::StoreError> {
    let p = std::path::Path::new(path);
    let text = std::fs::read_to_string(p).map_err(|e| rsg_core::StoreError::io(p, "read", &e))?;
    if rsg_core::SweepJournal::sniff(&text) {
        let (fp, thetas, cells) = verify_journal::<rsg_core::store::SweepCell>(p)?;
        return Ok(format!(
            "sweep journal, fingerprint {fp:016x}, {cells} cells x {thetas} thetas"
        ));
    }
    if rsg_core::DeltaJournal::sniff(&text) {
        let (fp, (), deltas) = verify_journal::<rsg_core::DeltaRecord>(p)?;
        return Ok(format!(
            "delta journal, fingerprint {fp:016x}, {deltas} deltas"
        ));
    }
    let (kind, payload) = rsg_core::store::unwrap_envelope(&text).map_err(|e| e.with_path(p))?;
    Ok(format!(
        "artifact '{kind}', {} payload bytes, checksum verified",
        payload.len()
    ))
}

/// A journal's fingerprint, shape and intact record count; a torn tail
/// is a decode error naming the first damaged line.
fn verify_journal<R: rsg_core::store::JournalRecord>(
    p: &std::path::Path,
) -> Result<(u64, R::Shape, usize), rsg_core::StoreError> {
    let (fp, shape, good, bad) = rsg_core::store::RecordJournal::<R>::verify(p)?;
    if bad > 0 {
        return Err(rsg_core::StoreError::parse(
            R::MAGIC.trim_start_matches("rsg-"),
            good + 2,
            format!("{bad} damaged line(s) after {good} intact records"),
        ));
    }
    Ok((fp, shape, good))
}

/// `rsg lint FILE... [--format human|json|tsv] [--platform]` — static
/// analysis of spec and DAG files. The document kind is sniffed from
/// the content; all spec documents in one invocation are treated as
/// renderings of the same request and cross-checked. Error-level
/// diagnostics map to exit code 6.
pub fn lint(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let format = args.opt("format").unwrap_or("human").to_string();
    if !["human", "json", "tsv"].contains(&format.as_str()) {
        return Err(CliError::Usage(format!(
            "--format must be human|json|tsv, got '{format}'"
        )));
    }
    let with_platform = args.flag("platform");
    let mut inputs = Vec::new();
    while let Some(p) = args.positional() {
        let text = std::fs::read_to_string(&p)
            .map_err(|e| CliError::Io(format!("cannot read {p}: {e}")))?;
        inputs.push(rsg_analyze::Input::new(&p, &text));
    }
    if inputs.is_empty() {
        return Err(CliError::Usage("lint needs at least one file".into()));
    }
    // The satisfiability check runs against the same deterministic
    // 2006-era platform the negotiation path uses.
    let platform = with_platform.then(|| {
        Platform::generate(
            ResourceGenSpec {
                clusters: 40,
                year: 2006,
                target_hosts: Some(1200),
            },
            TopologySpec::default(),
            11,
        )
    });
    let report = rsg_analyze::analyze(&inputs, platform.as_ref());
    match format.as_str() {
        "json" => writeln!(out, "{}", report.to_json())?,
        "tsv" => write!(out, "{}", report.to_tsv())?,
        _ => write!(out, "{}", report.to_human())?,
    }
    if report.errors() > 0 {
        return Err(CliError::Lint(format!(
            "{} error-level diagnostic(s)",
            report.errors()
        )));
    }
    Ok(())
}

/// `rsg audit DIR [--format human|json|tsv]` — whole-deployment static
/// verification of the artifact graph. Same format options and exit
/// discipline as `rsg lint`: error-level diagnostics exit 6.
pub fn audit(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let format = args.opt("format").unwrap_or("human").to_string();
    if !["human", "json", "tsv"].contains(&format.as_str()) {
        return Err(CliError::Usage(format!(
            "--format must be human|json|tsv, got '{format}'"
        )));
    }
    let dir = args
        .positional()
        .ok_or_else(|| CliError::Usage("audit needs a deployment directory".into()))?;
    let root = std::path::Path::new(&dir);
    if !root.is_dir() {
        return Err(CliError::Io(format!("{dir} is not a directory")));
    }
    let report = rsg_analyze::audit_tree(root)
        .map_err(|e| CliError::Io(format!("cannot walk {dir}: {e}")))?;
    match format.as_str() {
        "json" => writeln!(out, "{}", report.to_json())?,
        "tsv" => write!(out, "{}", report.to_tsv())?,
        _ => write!(out, "{}", report.to_human())?,
    }
    if report.errors() > 0 {
        return Err(CliError::Lint(format!(
            "{} error-level diagnostic(s)",
            report.errors()
        )));
    }
    Ok(())
}

/// `rsg dot FILE [--out FILE]`
pub fn dot(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let path = args.require_positional("DAG file")?;
    let dag = load_dag(&path)?;
    emit(args.opt("out"), &to_dot(&dag), out)
}

fn parse_heuristic(s: &str) -> Result<HeuristicKind, CliError> {
    HeuristicKind::parse(s).ok_or_else(|| {
        CliError::Usage(format!("unknown heuristic '{s}' (MCP|DLS|FCA|FCFS|Greedy)"))
    })
}

/// `rsg serve --models DIR [--addr A] [--admin-addr A] [--workers N]
/// [--queue N] [--deadline-s S] [--max-staleness S]
/// [--delta-journal FILE]`: load the model registry as generation 1,
/// then answer requests until the process is killed or drained through
/// the admin surface.
pub fn serve(args: &mut Args, out: &mut dyn Write) -> Result<(), CliError> {
    let models = args
        .opt("models")
        .ok_or_else(|| CliError::Usage("serve needs --models DIR".into()))?
        .to_string();
    let mut cfg = rsg_serve::ServeConfig::default();
    if let Some(a) = args.opt("addr") {
        cfg.addr = a.to_string();
    }
    if let Some(a) = args.opt("admin-addr") {
        cfg.admin_addr = Some(a.to_string());
    }
    if let Some(w) = args.opt("workers") {
        cfg.workers = w
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| CliError::Usage(format!("bad --workers '{w}'")))?;
    }
    if let Some(q) = args.opt("queue") {
        cfg.queue_depth = q
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| CliError::Usage(format!("bad --queue '{q}'")))?;
    }
    if let Some(d) = args.opt("deadline-s") {
        cfg.default_deadline_s = d
            .parse::<f64>()
            .ok()
            .filter(|&s| s > 0.0 && s.is_finite())
            .ok_or_else(|| CliError::Usage(format!("bad --deadline-s '{d}'")))?;
    }
    if let Some(s) = args.opt("max-staleness") {
        cfg.max_staleness_s = Some(
            s.parse::<f64>()
                .ok()
                .filter(|&v| v > 0.0 && v.is_finite())
                .ok_or_else(|| CliError::Usage(format!("bad --max-staleness '{s}'")))?,
        );
    }
    if let Some(p) = args.opt("delta-journal") {
        cfg.delta_journal = Some(std::path::PathBuf::from(p));
    }
    if args.flag("preflight") {
        // Audit the deployment tree before binding anything: a tree
        // that fails the audit refuses to boot (structured diagnostics
        // on stderr, lint exit code); warnings are surfaced and served
        // through.
        let report = rsg_analyze::audit_tree(std::path::Path::new(&models))
            .map_err(|e| CliError::Io(format!("preflight: cannot walk {models}: {e}")))?;
        if !report.is_clean() {
            eprint!("{}", report.to_tsv());
        }
        if report.errors() > 0 {
            return Err(CliError::Lint(format!(
                "preflight: {} error-level diagnostic(s) in {models}; refusing to boot",
                report.errors()
            )));
        }
        writeln!(
            out,
            "preflight: {} clean ({} warning(s))",
            models,
            report.warnings()
        )?;
    }
    let registry =
        rsg_serve::ModelRegistry::load(std::path::Path::new(&models)).map_err(CliError::from)?;
    writeln!(
        out,
        "loaded size model {} ({} thresholds), heuristic model {}",
        registry.size_model_path.as_deref().unwrap_or("inline"),
        registry.size_model.models.len(),
        registry
            .heuristic_model_path
            .as_deref()
            .unwrap_or("fixed MCP fallback"),
    )?;
    let server = rsg_serve::Server::spawn(&cfg, registry)
        .map_err(|e| CliError::Io(format!("cannot bind {}: {e}", cfg.addr)))?;
    writeln!(
        out,
        "rsg-serve listening on http://{} ({} workers, queue {}, default deadline {:.0}s)",
        server.addr(),
        cfg.workers,
        cfg.queue_depth,
        cfg.default_deadline_s
    )?;
    if let Some(admin) = server.admin_addr() {
        writeln!(
            out,
            "admin surface on http://{admin} (loopback only: /admin/reload, /admin/drain, \
             /admin/platform)"
        )?;
    }
    out.flush()?;
    server.join();
    Ok(())
}
