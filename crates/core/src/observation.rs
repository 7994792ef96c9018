//! Observation-set driver (Section V.2.3).
//!
//! The paper builds its size prediction model by measuring knee values
//! over the cross product of DAG characteristics in Table V-1 (1260
//! configurations × 10 instances). This module drives that sweep — in
//! parallel with rayon — and stores the per-cell knees for every
//! threshold of interest.

use crate::curve::{mean_turnaround_reference, size_ladder, Curve, CurveConfig};
use crate::knee::{find_knee, refine_knee};
use crate::store::{fnv1a, StoreError, SweepCell, SweepJournal};
use rayon::prelude::*;
use rsg_dag::{Dag, RandomDagSpec};
use rsg_obs::Counter;
use rsg_platform::ResourceCollection;
use rsg_sched::evaluate_prefix;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// DAG instances generated by sweeps ([`measure`] phase 1).
static OBS_DAGS: Counter = Counter::new("core.sweep.dags_generated");
/// Ladder-point schedule evaluations ([`measure`] phase 2).
static OBS_LADDER_EVALS: Counter = Counter::new("core.sweep.ladder_evals");
/// Knee-refinement probe evaluations that missed the per-cell memo.
static OBS_REFINE_EVALS: Counter = Counter::new("core.sweep.refine_evals");
/// Knee-refinement probes served from the per-cell memo.
static OBS_MEMO_HITS: Counter = Counter::new("core.sweep.memo_hits");
/// Cells computed by sharded sweep workers ([`measure_shard`]).
static OBS_SHARD_CELLS: Counter = Counter::new("core.sweep.shard_cells");
/// Sweep cells restored from a journal instead of being recomputed.
static OBS_CELLS_RESUMED: Counter = Counter::new("core.store.cells_resumed");
/// Cells appended to a checkpoint journal.
static OBS_CELLS_CHECKPOINTED: Counter = Counter::new("core.store.cells_checkpointed");

/// The observation-grid axes (Table V-1) and instance count.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationGrid {
    /// DAG sizes (tasks).
    pub sizes: Vec<usize>,
    /// CCR values.
    pub ccrs: Vec<f64>,
    /// Parallelism values α.
    pub alphas: Vec<f64>,
    /// Regularity values β.
    pub betas: Vec<f64>,
    /// Fixed density δ.
    pub density: f64,
    /// Fixed mean computational cost ω, seconds.
    pub mean_comp: f64,
    /// Instances per configuration.
    pub instances: usize,
}

impl ObservationGrid {
    /// The full Table V-1 grid: 5 × 6 × 7 × 6 = 1260 configurations, 10
    /// instances each. Paper-scale: hours of CPU even in Rust.
    pub fn paper() -> ObservationGrid {
        ObservationGrid {
            sizes: vec![100, 500, 1000, 5000, 10_000],
            ccrs: vec![0.01, 0.1, 0.3, 0.5, 0.8, 1.0],
            alphas: vec![0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            betas: vec![0.01, 0.1, 0.3, 0.5, 0.8, 1.0],
            density: 0.5,
            mean_comp: 40.0,
            instances: 10,
        }
    }

    /// A reduced grid that trains a usable model in seconds-to-minutes;
    /// the default for examples and the `fast` experiment preset.
    pub fn fast() -> ObservationGrid {
        ObservationGrid {
            sizes: vec![100, 300, 800],
            ccrs: vec![0.01, 0.1, 0.5, 1.0],
            alphas: vec![0.3, 0.5, 0.7, 0.9],
            betas: vec![0.01, 0.5, 1.0],
            density: 0.5,
            mean_comp: 40.0,
            instances: 3,
        }
    }

    /// A minimal grid for unit tests.
    pub fn tiny() -> ObservationGrid {
        ObservationGrid {
            sizes: vec![50, 200],
            ccrs: vec![0.01, 0.5],
            alphas: vec![0.4, 0.7],
            betas: vec![0.1, 0.9],
            density: 0.5,
            mean_comp: 20.0,
            instances: 2,
        }
    }

    /// Number of configurations (cells).
    pub fn cells(&self) -> usize {
        self.sizes.len() * self.ccrs.len() * self.alphas.len() * self.betas.len()
    }

    fn index(&self, si: usize, ci: usize, ai: usize, bi: usize) -> usize {
        ((si * self.ccrs.len() + ci) * self.alphas.len() + ai) * self.betas.len() + bi
    }

    /// The [`RandomDagSpec`] of one cell.
    pub fn spec(&self, si: usize, ci: usize, ai: usize, bi: usize) -> RandomDagSpec {
        RandomDagSpec {
            size: self.sizes[si],
            ccr: self.ccrs[ci],
            parallelism: self.alphas[ai],
            density: self.density,
            regularity: self.betas[bi],
            mean_comp: self.mean_comp,
        }
    }

    /// Deterministic instances of one cell.
    pub fn instances_of(&self, si: usize, ci: usize, ai: usize, bi: usize) -> Vec<Dag> {
        (0..self.instances)
            .map(|k| self.instance((si, ci, ai, bi), k))
            .collect()
    }

    /// Instance `k` of a cell, generated from seed `cell_seed(..) + k`.
    fn instance(&self, (si, ci, ai, bi): (usize, usize, usize, usize), k: usize) -> Dag {
        self.spec(si, ci, ai, bi)
            .generate(cell_seed(si, ci, ai, bi).wrapping_add(k as u64))
    }
}

/// Deterministic seed per grid cell.
fn cell_seed(si: usize, ci: usize, ai: usize, bi: usize) -> u64 {
    let mut z = (si as u64) << 48 | (ci as u64) << 32 | (ai as u64) << 16 | bi as u64;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Measured knee values over a grid for one threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct KneeTable {
    /// The grid the knees were measured on.
    pub grid: ObservationGrid,
    /// The knee threshold θ.
    pub theta: f64,
    knees: Vec<f64>,
}

impl KneeTable {
    /// Rebuilds a table from its parts (the persistence path); the knee
    /// vector must be in grid-index order and cover every cell.
    pub fn from_parts(
        grid: ObservationGrid,
        theta: f64,
        knees: Vec<f64>,
    ) -> Result<KneeTable, StoreError> {
        if knees.len() != grid.cells() {
            return Err(StoreError::parse(
                "knee-table",
                1,
                format!(
                    "knee table has {} values for a {}-cell grid",
                    knees.len(),
                    grid.cells()
                ),
            ));
        }
        Ok(KneeTable { grid, theta, knees })
    }

    /// The raw knee values in grid-index order (see
    /// [`ObservationGrid::cells`]).
    pub fn knees(&self) -> &[f64] {
        &self.knees
    }

    /// Knee at a cell.
    pub fn knee(&self, si: usize, ci: usize, ai: usize, bi: usize) -> f64 {
        self.knees[self.grid.index(si, ci, ai, bi)]
    }

    /// The `(α, β, log2 knee)` samples of one `(size, CCR)` slice — the
    /// Figure V-4 surface.
    pub fn plane_samples(&self, si: usize, ci: usize) -> Vec<(f64, f64, f64)> {
        let mut out = Vec::new();
        for (ai, &a) in self.grid.alphas.iter().enumerate() {
            for (bi, &b) in self.grid.betas.iter().enumerate() {
                let k = self.knee(si, ci, ai, bi).max(1.0);
                out.push((a, b, k.log2()));
            }
        }
        out
    }
}

pub(crate) fn cell_list(grid: &ObservationGrid) -> Vec<(usize, usize, usize, usize)> {
    (0..grid.sizes.len())
        .flat_map(|si| {
            (0..grid.ccrs.len()).flat_map(move |ci| {
                (0..grid.alphas.len())
                    .flat_map(move |ai| (0..grid.betas.len()).map(move |bi| (si, ci, ai, bi)))
            })
        })
        .collect()
}

pub(crate) fn assemble_tables(
    grid: &ObservationGrid,
    cells: &[(usize, usize, usize, usize)],
    per_cell: &[Vec<f64>],
    thetas: &[f64],
) -> Vec<KneeTable> {
    thetas
        .iter()
        .enumerate()
        .map(|(ti, &theta)| {
            let mut knees = vec![0.0f64; grid.cells()];
            for (cell_idx, &(si, ci, ai, bi)) in cells.iter().enumerate() {
                knees[grid.index(si, ci, ai, bi)] = per_cell[cell_idx][ti];
            }
            KneeTable {
                grid: grid.clone(),
                theta,
                knees,
            }
        })
        .collect()
}

/// Measures knee tables for every threshold in `thetas` over the grid.
/// `refine_rounds > 0` bisects between ladder points for sharper knees.
///
/// This is the optimized sweep — bit-identical to [`measure_naive`]:
///
/// * parallelism is over `(cell × instance)` tasks, not cells, so the
///   few expensive cells (large size × high parallelism) cannot
///   serialize the tail of the sweep;
/// * one maximum-size RC is built for the whole grid and every
///   evaluation uses a prefix view of it (prefix-stable families);
/// * per-cell `(size → mean turnaround)` results are memoized and
///   shared between curve sampling and knee refinement across all
///   thresholds;
/// * MCP/DLS placement goes through the candidate-set kernel
///   ([`rsg_sched::heuristics::placement`]) where it applies.
///
/// The phases are `prepare`, then the two halves of the cell kernel
/// the checkpointed, sharded and push sweeps run fused per cell
/// (`compute_cell`): ladder evaluation in parallel over
/// `(cell × instance)`, then knees in parallel over cells.
pub fn measure(
    grid: &ObservationGrid,
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
) -> Vec<KneeTable> {
    let _sweep = rsg_obs::span("sweep");
    let inp = prepare(grid, cfg);
    let ninst = inp.ninst;

    let eval_span = rsg_obs::span("evaluate");
    let per_instance: Vec<Vec<f64>> = (0..inp.dags.len())
        .into_par_iter()
        .map(|i| evaluate_ladder(&inp.dags[i], &inp.ladders[i / ninst], &inp.rc, cfg))
        .collect();
    drop(eval_span);

    let knee_span = rsg_obs::span("knees");
    let per_cell: Vec<Vec<f64>> = (0..inp.cells.len())
        .into_par_iter()
        .map(|c| {
            let results = &per_instance[c * ninst..(c + 1) * ninst];
            cell_knees(&inp, cfg, thetas, refine_rounds, c, &inp.rc, results)
        })
        .collect();
    drop(knee_span);

    assemble_tables(grid, &inp.cells, &per_cell, thetas)
}

/// The grid-wide inputs every sweep driver builds deterministically
/// before computing cells: the cell list, every DAG instance, the
/// per-cell ladders, and the single maximum-size RC all evaluations
/// take prefixes of. Rebuilding is cheap relative to cell compute and
/// keeps workers coordination-free — any process that runs [`prepare`]
/// on the same `(grid, cfg)` sees bit-identical inputs.
pub(crate) struct SweepInputs {
    pub(crate) cells: Vec<(usize, usize, usize, usize)>,
    pub(crate) ninst: usize,
    pub(crate) dags: Vec<Dag>,
    pub(crate) ladders: Vec<Vec<usize>>,
    pub(crate) rc: ResourceCollection,
}

/// Phase 1 of every sweep: generate every DAG instance (parallel over
/// cell × instance; instance `k` of a cell keeps its seed
/// `cell_seed(..) + k` regardless of schedule order), size the
/// per-cell ladders by each cell's widest instance, and build the
/// grid-wide RC.
pub(crate) fn prepare(grid: &ObservationGrid, cfg: &CurveConfig) -> SweepInputs {
    let cells = cell_list(grid);
    let ninst = grid.instances.max(1);
    let ntasks = cells.len() * ninst;

    let gen_span = rsg_obs::span("generate");
    let dags: Vec<Dag> = (0..ntasks)
        .into_par_iter()
        .map(|i| grid.instance(cells[i / ninst], i % ninst))
        .collect();
    OBS_DAGS.add(ntasks as u64);
    drop(gen_span);

    let ladders: Vec<Vec<usize>> = dags
        .chunks(ninst)
        .map(|cell_dags| size_ladder(cell_dags.iter().map(|d| d.width() as usize).max().unwrap()))
        .collect();
    let global_max = ladders
        .iter()
        .map(|l| *l.last().unwrap())
        .max()
        .unwrap_or(1);
    let rc = cfg.rc_family.build(global_max);

    SweepInputs {
        cells,
        ninst,
        dags,
        ladders,
        rc,
    }
}

/// Turnaround of one DAG instance at every size of its cell's ladder,
/// each a prefix view of `rc` — the evaluation half of the cell kernel.
fn evaluate_ladder(
    d: &Dag,
    ladder: &[usize],
    rc: &ResourceCollection,
    cfg: &CurveConfig,
) -> Vec<f64> {
    OBS_LADDER_EVALS.add(ladder.len() as u64);
    ladder
        .iter()
        .map(|&s| evaluate_prefix(d, rc, s, cfg.heuristic, &cfg.time_model).turnaround_s())
        .collect()
}

/// The knee half of the cell kernel: reduces cell `c`'s per-instance
/// ladder results to its mean curve, summing in instance order (the
/// same left-to-right fold as the naive per-cell loop), and takes the
/// knee for every threshold. Refinement probes share one per-cell
/// `(size → mean)` memo across all thresholds and evaluate against
/// `rc`.
fn cell_knees(
    inp: &SweepInputs,
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
    c: usize,
    rc: &ResourceCollection,
    per_instance: &[Vec<f64>],
) -> Vec<f64> {
    let ninst = inp.ninst;
    let cell_dags = &inp.dags[c * ninst..(c + 1) * ninst];
    let points = inp.ladders[c]
        .iter()
        .enumerate()
        .map(|(j, &s)| {
            let mut total = 0.0f64;
            for inst in per_instance {
                total += inst[j];
            }
            (s, total / ninst as f64)
        })
        .collect();
    let curve = Curve { points };
    let mut memo: HashMap<usize, f64> = curve.points.iter().copied().collect();
    thetas
        .iter()
        .map(|&theta| {
            let k = if refine_rounds > 0 {
                refine_knee(&curve, theta, refine_rounds, |s| {
                    if let Some(&cached) = memo.get(&s) {
                        OBS_MEMO_HITS.incr();
                        return cached;
                    }
                    OBS_REFINE_EVALS.incr();
                    let total: f64 = cell_dags
                        .iter()
                        .map(|d| {
                            evaluate_prefix(d, rc, s, cfg.heuristic, &cfg.time_model).turnaround_s()
                        })
                        .sum();
                    let mean = total / ninst as f64;
                    memo.insert(s, mean);
                    mean
                })
            } else {
                find_knee(&curve, theta)
            };
            k as f64
        })
        .collect()
}

/// One cell, both kernel halves fused: evaluate every instance over the
/// cell's ladder against `rc`, then take the knees. Cells are mutually
/// independent, so any scheduling of these calls — across threads or
/// across processes — produces bit-identical knees. The checkpointed
/// and sharded sweeps pass the grid-wide RC in `inp`; the push engine
/// and its from-scratch reference pass each cell's platform-derived
/// RC, which is what makes incremental-vs-full bit-identity structural
/// rather than numerical luck. Returns the knees with the number of
/// ladder evaluations it ran — the value `core.sweep.ladder_evals` is
/// fed.
pub(crate) fn compute_cell(
    inp: &SweepInputs,
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
    c: usize,
    rc: &ResourceCollection,
) -> (Vec<f64>, u64) {
    let ladder = &inp.ladders[c];
    let per_instance: Vec<Vec<f64>> = inp.dags[c * inp.ninst..(c + 1) * inp.ninst]
        .iter()
        .map(|d| evaluate_ladder(d, ladder, rc, cfg))
        .collect();
    let knees = cell_knees(inp, cfg, thetas, refine_rounds, c, rc, &per_instance);
    (knees, (inp.ninst * ladder.len()) as u64)
}

/// Version tag folded into [`sweep_fingerprint`]; bump whenever the
/// sweep algorithm changes in a way that invalidates journaled cells.
pub const SWEEP_CODE_VERSION: &str = "sweep-v1";

/// Identity of one sweep: grid, curve configuration, threshold ladder,
/// refinement depth, the observability configuration, and
/// [`SWEEP_CODE_VERSION`]. A checkpoint journal records this digest in
/// its header; on restart a mismatch quarantines the journal instead of
/// resuming cells that no longer mean the same thing. The sweep cache
/// in `rsg-bench` keys its entries off the same digest.
pub fn sweep_fingerprint(
    grid: &ObservationGrid,
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
) -> u64 {
    fnv1a(
        format!(
            "{SWEEP_CODE_VERSION}|{grid:?}|{cfg:?}|{thetas:?}|{refine_rounds}|{}",
            rsg_obs::config_fingerprint()
        )
        .as_bytes(),
    )
}

/// Configuration for a checkpointed sweep ([`measure_checkpointed`]).
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Where the cell journal lives (created if missing, replayed and
    /// extended if present).
    pub journal_path: PathBuf,
    /// Abort with [`StoreError::Aborted`] after computing this many new
    /// cells — the fault-injection hook the kill-and-resume tests use.
    /// `None` runs to completion.
    pub cell_budget: Option<usize>,
}

impl CheckpointConfig {
    /// A checkpoint configuration that runs to completion.
    pub fn new(journal_path: impl Into<PathBuf>) -> CheckpointConfig {
        CheckpointConfig {
            journal_path: journal_path.into(),
            cell_budget: None,
        }
    }
}

/// What one [`measure_checkpointed`] call did. Each count is taken
/// where the work happens — journal replay, journal append, ladder
/// evaluation — at the same points that feed the process-wide
/// `core.store.cells_*` and `core.sweep.ladder_evals` obs counters, but
/// scoped to this call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointStats {
    /// Cells served from the journal rather than recomputed.
    pub resumed: usize,
    /// Cells computed and appended to the journal.
    pub checkpointed: usize,
    /// Ladder evaluations run (one per instance per ladder size).
    pub ladder_evals: u64,
}

/// [`measure`] with cell-granular crash recovery: every completed cell
/// is appended to a checksummed journal, and a restarted sweep replays
/// the journal and computes only the missing cells — yielding tables
/// bit-identical to an uninterrupted [`measure`] run.
///
/// Resume still regenerates every DAG (phase 1): the per-cell ladders
/// and the single shared RC are sized from the whole grid, and
/// generation is the cheap phase. What resume skips is the expensive
/// part — ladder evaluations and knee refinement for journaled cells.
/// Per-cell results are computed with the same evaluations and the same
/// left-to-right instance fold as [`measure`], and cells are mutually
/// independent, so the floats match bitwise. The tables come back with
/// the call's own [`CheckpointStats`].
pub fn measure_checkpointed(
    grid: &ObservationGrid,
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
    checkpoint: &CheckpointConfig,
) -> Result<(Vec<KneeTable>, CheckpointStats), StoreError> {
    let _sweep = rsg_obs::span("sweep_checkpointed");
    let (inp, per_cell, stats) =
        checkpoint_cells(grid, cfg, thetas, refine_rounds, checkpoint, None)?;
    Ok((assemble_tables(grid, &inp.cells, &per_cell, thetas), stats))
}

/// The resume-and-checkpoint loop of [`measure_checkpointed`] and
/// [`measure_shard`]: opens (replays) the journal of `shard` (the whole
/// sweep when `None`), then computes the shard's cells the journal is
/// missing — at most `checkpoint.cell_budget` of them — journaling
/// each as it lands. Returns the inputs, every cell's knees by grid
/// index (empty for another shard's cells the journal does not hold),
/// and the call's accounting; a budget-cut run aborts with counts
/// relative to the shard's own cells.
fn checkpoint_cells(
    grid: &ObservationGrid,
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
    checkpoint: &CheckpointConfig,
    shard: Option<ShardSpec>,
) -> Result<(SweepInputs, Vec<Vec<f64>>, CheckpointStats), StoreError> {
    // Open (replay) the journal first: a stale fingerprint quarantines
    // it before any compute is spent.
    let journal = SweepJournal::open(
        &shard.map_or_else(
            || checkpoint.journal_path.clone(),
            |s| shard_journal_path(&checkpoint.journal_path, s),
        ),
        sweep_fingerprint(grid, cfg, thetas, refine_rounds),
        thetas.len(),
    )?;

    let inp = prepare(grid, cfg);
    let mut per_cell = journaled_cells(&journal, inp.cells.len());
    let resumed = per_cell.iter().flatten().count();
    OBS_CELLS_RESUMED.add(resumed as u64);

    // The shard's cells missing from the journal, in sweep order,
    // bounded by the abort budget when one is injected.
    let owned: Vec<usize> = (0..inp.cells.len())
        .filter(|c| shard.is_none_or(|s| c % s.count == s.index))
        .collect();
    let total = owned.len();
    let mut todo: Vec<usize> = owned
        .into_iter()
        .filter(|&c| per_cell[c].is_none())
        .collect();
    let truncated = match checkpoint.cell_budget {
        Some(budget) if budget < todo.len() => {
            todo.truncate(budget);
            true
        }
        _ => false,
    };

    // Phases 2+3 fused per missing cell, so each cell becomes durable
    // the moment it completes.
    let eval_span = rsg_obs::span("evaluate");
    let computed: Vec<Result<_, StoreError>> = todo
        .par_iter()
        .map(|&c| {
            let (knees, ladder_evals) = compute_cell(&inp, cfg, thetas, refine_rounds, c, &inp.rc);
            let cell = SweepCell { idx: c, knees };
            journal.append(&cell)?;
            OBS_CELLS_CHECKPOINTED.incr();
            if shard.is_some() {
                OBS_SHARD_CELLS.incr();
            }
            Ok((cell, ladder_evals))
        })
        .collect();
    drop(eval_span);
    let computed: Vec<(SweepCell, u64)> = computed.into_iter().collect::<Result<_, _>>()?;

    if truncated {
        return Err(StoreError::Aborted {
            completed: resumed + computed.len(),
            total,
        });
    }

    let stats = CheckpointStats {
        resumed,
        checkpointed: journal.appended(),
        ladder_evals: computed.iter().map(|&(_, n)| n).sum(),
    };
    for (cell, _) in computed {
        per_cell[cell.idx] = Some(cell.knees);
    }
    let per_cell = per_cell
        .into_iter()
        .map(Option::unwrap_or_default)
        .collect();
    Ok((inp, per_cell, stats))
}

/// The cells a sweep journal recovered, by grid index (a later record
/// for the same cell wins; indices outside the grid are ignored).
fn journaled_cells(journal: &SweepJournal, ncells: usize) -> Vec<Option<Vec<f64>>> {
    let mut cells = vec![None; ncells];
    for cell in journal.recovered() {
        if let Some(slot) = cells.get_mut(cell.idx) {
            *slot = Some(cell.knees.clone());
        }
    }
    cells
}

/// One worker's slice of a sharded sweep: shard `index` of `count`.
///
/// Shards partition the cell list by `cell_index % count`, so every
/// shard gets a representative mix of cheap and expensive cells (the
/// cell list is ordered size-major, and size dominates cell cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This worker's shard, `0 ≤ index < count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

/// The journal a shard appends to: `<base>.shard<i>-of-<N>`. Keeping
/// one journal per shard means workers in different OS processes never
/// contend on a file; the journals are the *only* coordination between
/// them.
pub fn shard_journal_path(base: &Path, shard: ShardSpec) -> PathBuf {
    let name = base.file_name().map_or_else(
        || "sweep.journal".to_string(),
        |s| s.to_string_lossy().into_owned(),
    );
    base.with_file_name(format!("{name}.shard{}-of-{}", shard.index, shard.count))
}

/// Computes one shard's missing cells and journals each as it lands;
/// returns the number of cells computed by this call. Safe to run
/// concurrently with the other shards from separate OS processes: every
/// worker deterministically rebuilds the same inputs (`prepare`), owns
/// a disjoint cell subset, and appends to its own journal (same
/// fingerprint discipline as [`measure_checkpointed`], so a stale shard
/// journal quarantines rather than resumes). A killed worker loses at
/// most its in-flight cells; re-running the shard resumes from its
/// journal. `checkpoint.cell_budget` bounds the cells computed in this
/// call and aborts with [`StoreError::Aborted`] (counts relative to the
/// shard's own cell set) — the fault-injection hook for
/// kill-and-resume tests.
pub fn measure_shard(
    grid: &ObservationGrid,
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
    checkpoint: &CheckpointConfig,
    shard: ShardSpec,
) -> Result<usize, StoreError> {
    assert!(
        shard.count > 0 && shard.index < shard.count,
        "invalid shard {}/{}",
        shard.index,
        shard.count
    );
    let _sweep = rsg_obs::span("sweep_shard");
    let (_, _, stats) =
        checkpoint_cells(grid, cfg, thetas, refine_rounds, checkpoint, Some(shard))?;
    Ok(stats.checkpointed)
}

/// Merges the `count` shard journals of a sharded sweep into knee
/// tables. Every cell must be present in some shard journal (shards are
/// disjoint, so exactly one); otherwise returns [`StoreError::Aborted`]
/// with the coverage so the caller can rerun the incomplete shards.
/// Because each cell's result is computed by the same code over
/// deterministically regenerated inputs, the merged tables are
/// bit-identical to a single-process [`measure`] run — asserted by
/// `tests/sweep_shard.rs`.
pub fn merge_shards(
    grid: &ObservationGrid,
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
    base: &Path,
    count: usize,
) -> Result<Vec<KneeTable>, StoreError> {
    let cells = cell_list(grid);
    let fp = sweep_fingerprint(grid, cfg, thetas, refine_rounds);
    let mut per_cell: Vec<Option<Vec<f64>>> = vec![None; cells.len()];
    let mut found = 0usize;
    for index in 0..count {
        let path = shard_journal_path(base, ShardSpec { index, count });
        let journal = SweepJournal::open(&path, fp, thetas.len())?;
        for (slot, knees) in per_cell
            .iter_mut()
            .zip(journaled_cells(&journal, cells.len()))
        {
            if slot.is_none() && knees.is_some() {
                found += 1;
                *slot = knees;
            }
        }
    }
    if found < cells.len() {
        return Err(StoreError::Aborted {
            completed: found,
            total: cells.len(),
        });
    }
    let per_cell: Vec<Vec<f64>> = per_cell.into_iter().map(Option::unwrap).collect();
    Ok(assemble_tables(grid, &cells, &per_cell, thetas))
}

/// The unoptimized observation sweep: parallel over cells only, a fresh
/// exact-size RC per evaluation, full host scans in MCP/DLS, no
/// memoization. Kept as the reference implementation — [`measure`] must
/// produce bit-identical tables (asserted in tests and by the
/// `bench_sweep` binary).
pub fn measure_naive(
    grid: &ObservationGrid,
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
) -> Vec<KneeTable> {
    let _sweep = rsg_obs::span("sweep_naive");
    let cells = cell_list(grid);

    // Per-cell knees for each theta, in parallel over cells.
    let per_cell: Vec<Vec<f64>> = cells
        .par_iter()
        .map(|&(si, ci, ai, bi)| {
            let dags = grid.instances_of(si, ci, ai, bi);
            let width = dags.iter().map(|d| d.width() as usize).max().unwrap();
            let points = size_ladder(width)
                .into_iter()
                .map(|s| (s, mean_turnaround_reference(&dags, s, cfg)))
                .collect();
            let curve = Curve { points };
            thetas
                .iter()
                .map(|&theta| {
                    let k = if refine_rounds > 0 {
                        refine_knee(&curve, theta, refine_rounds, |s| {
                            mean_turnaround_reference(&dags, s, cfg)
                        })
                    } else {
                        find_knee(&curve, theta)
                    };
                    k as f64
                })
                .collect()
        })
        .collect();

    assemble_tables(grid, &cells, &per_cell, thetas)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_grid_measures() {
        let grid = ObservationGrid::tiny();
        let tables = measure(&grid, &CurveConfig::default(), &[0.001, 0.05], 0);
        assert_eq!(tables.len(), 2);
        let t = &tables[0];
        for si in 0..grid.sizes.len() {
            for ci in 0..grid.ccrs.len() {
                for ai in 0..grid.alphas.len() {
                    for bi in 0..grid.betas.len() {
                        let k = t.knee(si, ci, ai, bi);
                        assert!(k >= 1.0, "knee {k} must be >= 1");
                    }
                }
            }
        }
    }

    #[test]
    fn fast_measure_matches_naive() {
        let grid = ObservationGrid::tiny();
        let cfg = CurveConfig::default();
        for refine in [0u32, 2] {
            let fast = measure(&grid, &cfg, &[0.001, 0.05], refine);
            let naive = measure_naive(&grid, &cfg, &[0.001, 0.05], refine);
            assert_eq!(fast, naive, "refine_rounds = {refine}");
        }
    }

    #[test]
    fn knee_grows_with_parallelism() {
        // Low-CCR slice: higher α needs more hosts (Table V-2 trend).
        let grid = ObservationGrid {
            sizes: vec![300],
            ccrs: vec![0.01],
            alphas: vec![0.3, 0.8],
            betas: vec![0.8],
            density: 0.5,
            mean_comp: 20.0,
            instances: 2,
        };
        let t = &measure(&grid, &CurveConfig::default(), &[0.001], 0)[0];
        let low = t.knee(0, 0, 0, 0);
        let high = t.knee(0, 0, 1, 0);
        assert!(
            high > low,
            "knee should grow with parallelism: α=0.3 → {low}, α=0.8 → {high}"
        );
    }

    #[test]
    fn higher_threshold_never_bigger_knee() {
        let grid = ObservationGrid::tiny();
        let tables = measure(&grid, &CurveConfig::default(), &[0.001, 0.10], 0);
        for si in 0..grid.sizes.len() {
            for ci in 0..grid.ccrs.len() {
                for ai in 0..grid.alphas.len() {
                    for bi in 0..grid.betas.len() {
                        assert!(tables[1].knee(si, ci, ai, bi) <= tables[0].knee(si, ci, ai, bi));
                    }
                }
            }
        }
    }

    #[test]
    fn checkpointed_matches_plain_and_resumes() {
        let dir = std::env::temp_dir().join(format!("rsg_ckpt_unit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let grid = ObservationGrid::tiny();
        let cfg = CurveConfig::default();
        let thetas = [0.001, 0.05];
        let plain = measure(&grid, &cfg, &thetas, 2);

        // Clean checkpointed run, then a resume-everything run: both
        // must be bit-identical to the plain sweep.
        let ckpt = CheckpointConfig::new(dir.join("sweep.journal"));
        let (full, _) = measure_checkpointed(&grid, &cfg, &thetas, 2, &ckpt).unwrap();
        assert_eq!(full, plain);
        let (resumed, _) = measure_checkpointed(&grid, &cfg, &thetas, 2, &ckpt).unwrap();
        assert_eq!(resumed, plain);

        // Abort after 3 cells on a fresh journal, then finish: the
        // resumed tables must still be bit-identical.
        let mut aborting = CheckpointConfig::new(dir.join("sweep_abort.journal"));
        aborting.cell_budget = Some(3);
        let err = measure_checkpointed(&grid, &cfg, &thetas, 2, &aborting).unwrap_err();
        match err {
            StoreError::Aborted { completed, total } => {
                assert_eq!(completed, 3);
                assert_eq!(total, grid.cells());
            }
            other => panic!("expected an abort, got {other:?}"),
        }
        aborting.cell_budget = None;
        let (finished, _) = measure_checkpointed(&grid, &cfg, &thetas, 2, &aborting).unwrap();
        assert_eq!(finished, plain);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_shards_partition_and_merge_bit_identically() {
        let dir = std::env::temp_dir().join(format!("rsg_shard_unit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let grid = ObservationGrid::tiny();
        let cfg = CurveConfig::default();
        let thetas = [0.001, 0.05];
        let plain = measure(&grid, &cfg, &thetas, 2);

        // Merge with no shard journals present: clean abort, not a panic.
        let base = dir.join("sweep.journal");
        let err = merge_shards(&grid, &cfg, &thetas, 2, &base, 2).unwrap_err();
        assert!(matches!(
            err,
            StoreError::Aborted {
                completed: 0,
                total
            } if total == grid.cells()
        ));

        // Two in-process shards: disjoint, covering, and the merged
        // tables are bit-identical to the single-process sweep.
        let ckpt = CheckpointConfig::new(base.clone());
        let n0 = measure_shard(
            &grid,
            &cfg,
            &thetas,
            2,
            &ckpt,
            ShardSpec { index: 0, count: 2 },
        )
        .unwrap();
        let n1 = measure_shard(
            &grid,
            &cfg,
            &thetas,
            2,
            &ckpt,
            ShardSpec { index: 1, count: 2 },
        )
        .unwrap();
        assert_eq!(n0 + n1, grid.cells());
        assert!(n0 > 0 && n1 > 0, "both shards should own cells");
        let merged = merge_shards(&grid, &cfg, &thetas, 2, &base, 2).unwrap();
        assert_eq!(merged, plain);

        // Re-running a shard is a no-op resume.
        let again = measure_shard(
            &grid,
            &cfg,
            &thetas,
            2,
            &ckpt,
            ShardSpec { index: 0, count: 2 },
        )
        .unwrap();
        assert_eq!(again, 0);

        // A budget-limited shard aborts with counts relative to its own
        // cell set, then resumes to completion.
        let mut limited = CheckpointConfig::new(dir.join("limited.journal"));
        limited.cell_budget = Some(1);
        let err = measure_shard(
            &grid,
            &cfg,
            &thetas,
            2,
            &limited,
            ShardSpec { index: 1, count: 2 },
        )
        .unwrap_err();
        match err {
            StoreError::Aborted { completed, total } => {
                assert_eq!(completed, 1);
                assert_eq!(total, n1);
            }
            other => panic!("expected an abort, got {other:?}"),
        }
        limited.cell_budget = None;
        let rest = measure_shard(
            &grid,
            &cfg,
            &thetas,
            2,
            &limited,
            ShardSpec { index: 1, count: 2 },
        )
        .unwrap();
        assert_eq!(rest, n1 - 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_fingerprint_tracks_inputs() {
        let grid = ObservationGrid::tiny();
        let cfg = CurveConfig::default();
        let base = sweep_fingerprint(&grid, &cfg, &[0.001], 0);
        assert_eq!(base, sweep_fingerprint(&grid, &cfg, &[0.001], 0));
        assert_ne!(base, sweep_fingerprint(&grid, &cfg, &[0.001], 2));
        assert_ne!(base, sweep_fingerprint(&grid, &cfg, &[0.05], 0));
        let mut other = grid.clone();
        other.instances += 1;
        assert_ne!(base, sweep_fingerprint(&other, &cfg, &[0.001], 0));
    }

    #[test]
    fn cell_instances_deterministic() {
        let grid = ObservationGrid::tiny();
        let a = grid.instances_of(0, 0, 0, 0);
        let b = grid.instances_of(0, 0, 0, 0);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].edge_count(), b[0].edge_count());
        let c = grid.instances_of(0, 0, 0, 1);
        // Different cell, different DAG shape (regularity differs).
        assert!(a[0].level_sizes() != c[0].level_sizes() || a[0].edge_count() != c[0].edge_count());
    }

    #[test]
    fn plane_samples_cover_slice() {
        let grid = ObservationGrid::tiny();
        let t = &measure(&grid, &CurveConfig::default(), &[0.001], 0)[0];
        let samples = t.plane_samples(0, 0);
        assert_eq!(samples.len(), grid.alphas.len() * grid.betas.len());
        assert!(samples.iter().all(|&(_, _, z)| z >= 0.0));
    }
}
