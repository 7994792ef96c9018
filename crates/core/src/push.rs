//! Push-mode incremental recomputation with self-healing reconciliation.
//!
//! The paper sweeps a *static* platform snapshot; a long-lived service
//! tracks a live grid where hosts join and leave, clocks and bandwidths
//! drift, and prices change. A full resweep per change is unaffordable
//! and a missed change is silently wrong, so this module maintains the
//! model state — sweep cells, knee tables, planar fits, the cost
//! model — under the sweep fingerprint (the same digest the checkpoint
//! journals record), and propagates [`PlatformDelta`]s through it:
//! only the cells whose platform footprint actually changed are
//! recomputed, then the tables and fit downstream of them.
//!
//! Robustness is the headline contract, in three layers:
//!
//! * **Transport** — deltas arrive through [`DeltaJournal`], the
//!   store's one checksummed append-only [`RecordJournal`] over
//!   [`DeltaRecord`]s: torn tails truncate back to the last good
//!   record, a damaged or mismatched header quarantines the file to
//!   `*.corrupt`, and every record carries a sequence number so the
//!   engine can detect duplicates, reorderings and gaps instead of
//!   trusting delivery order.
//! * **Apply** — the engine is a [`DeltaSequencer`] plus
//!   recomputation. [`PushEngine::submit_batch`] sequences a batch with
//!   it (transactional: one bad record rolls back the whole batch;
//!   duplicates are idempotently skipped; out-of-order records park in
//!   a bounded buffer until the gap fills — quarantine-and-resync,
//!   never a panic), then recomputes the cells the new platform
//!   dirtied. [`PushEngine::replay`] does the same for a recovered
//!   journal with one recompute at the end. The [`Staleness`] stamp
//!   (applied seq + lag) rides on every answer so a consumer always
//!   knows how current the state is. `rsg audit` folds journals with
//!   the same sequencer, so its predictions are the engine's behaviour
//!   by construction.
//! * **Audit** — [`PushEngine::audit`] periodically recomputes a
//!   seeded random sample of cells from scratch off the live platform
//!   and asserts bit-identity against the incremental state. Any
//!   divergence quarantines the cell, forces a selective recompute,
//!   and bumps `push.divergence` — the engine heals itself rather than
//!   serving the wrong number.
//!
//! Bit-identity between the incremental state and a from-scratch
//! resweep ([`measure_on_platform`]) is structural, not numerical luck:
//! both paths derive each cell's [`RcFamily`] from the platform with
//! the same function and evaluate the cell with the same
//! `compute_cell` kernel, and cells are mutually independent.

use crate::curve::{CurveConfig, RcFamily};
use crate::observation::{
    assemble_tables, compute_cell, prepare, sweep_fingerprint, KneeTable, ObservationGrid,
    SweepInputs,
};
use crate::sizemodel::ThresholdedSizeModel;
use crate::store::{JournalRecord, RecordJournal};
use rayon::prelude::*;
use rsg_obs::Counter;
use rsg_platform::delta::{DeltaError, DeltaSequencer, PlatformDelta, SequenceOutcome};
pub use rsg_platform::delta::{DeltaRecord, Staleness, MAX_PARKED};
use rsg_platform::{CostModel, Platform};
use std::fmt::Write as _;

/// Deltas applied to the live platform (post-dedup, post-ordering).
static OBS_DELTAS_APPLIED: Counter = Counter::new("push.deltas_applied");
/// Duplicate deltas (seq ≤ applied or already parked) skipped idempotently.
static OBS_DELTAS_DUPLICATE: Counter = Counter::new("push.deltas_duplicate");
/// Out-of-order deltas parked awaiting a gap fill.
static OBS_DELTAS_PARKED: Counter = Counter::new("push.deltas_parked");
/// Deltas dropped as invalid or unparkable (bounded buffer overflow).
static OBS_DELTAS_REJECTED: Counter = Counter::new("push.deltas_rejected");
/// Cells dirtied by delta propagation.
static OBS_CELLS_DIRTIED: Counter = Counter::new("push.cells_dirtied");
/// Cells recomputed (delta propagation + divergence repair).
static OBS_CELLS_RECOMPUTED: Counter = Counter::new("push.cells_recomputed");
/// Anti-entropy audit passes run.
static OBS_AUDITS: Counter = Counter::new("push.audits");
/// Audited cells whose incremental state diverged from scratch.
static OBS_DIVERGENCE: Counter = Counter::new("push.divergence");
/// Batches that closed a pre-existing sequence gap.
static OBS_RESYNCS: Counter = Counter::new("push.resyncs");

impl JournalRecord for DeltaRecord {
    const MAGIC: &'static str = "rsg-delta-journal";
    /// The delta journal's header ends at the fingerprint.
    type Shape = ();

    fn write_shape((): (), _header: &mut String) {}

    fn read_shape(_fields: &[&str]) -> Result<(), &'static str> {
        Ok(())
    }

    fn encode(&self, line: &mut String) {
        let _ = write!(line, "delta\t{}\t{}", self.seq, self.delta.to_tsv());
    }

    /// The sequence number must parse as `u64` — a hostile or
    /// bit-flipped seq field fails here and classifies the line as
    /// damaged.
    fn decode(line: &str, (): ()) -> Option<DeltaRecord> {
        let (seq, delta) = line.strip_prefix("delta\t")?.split_once('\t')?;
        Some(DeltaRecord {
            seq: seq.parse().ok()?,
            delta: PlatformDelta::from_tsv(delta).ok()?,
        })
    }
}

/// The durable transport between a platform-monitoring source and the
/// [`PushEngine`]: an append-only, self-checksummed journal of
/// [`DeltaRecord`]s. [`recovered`](RecordJournal::recovered) holds
/// every intact record in file order (duplicates and reorderings
/// included — the sequencer owns those).
pub type DeltaJournal = RecordJournal<DeltaRecord>;

/// What one [`PushEngine::submit_batch`] (or [`PushEngine::replay`])
/// call did: the [`SequenceOutcome`] plus the recompute it caused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchOutcome {
    /// Records applied to the platform (batch + drained parked).
    pub applied: usize,
    /// Records skipped as duplicates.
    pub duplicates: usize,
    /// Records parked awaiting a gap fill.
    pub parked: usize,
    /// Previously parked records dropped at drain time (invalid against
    /// the state the gap fill produced), plus parked-buffer overflow.
    pub rejected: usize,
    /// Cells dirtied by the applied deltas.
    pub dirtied: usize,
    /// Cells recomputed (== dirtied; recompute is eager).
    pub recomputed: usize,
    /// Whether this batch closed a pre-existing sequence gap.
    pub resynced: bool,
}

/// What one [`PushEngine::audit`] pass found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuditReport {
    /// Cells recomputed from scratch and compared.
    pub checked: usize,
    /// Cells whose incremental state diverged (each was quarantined and
    /// selectively recomputed before this call returned).
    pub divergent: usize,
}

/// Derives the [`RcFamily`] a cell of capacity `cap` sees on
/// `platform`: walk clusters fastest-first until the prefix holds `cap`
/// hosts (the cell's *footprint*), then summarize the prefix as a
/// family — fastest clock as the nominal clock, clock spread as
/// heterogeneity, worst intra-footprint communication factor as
/// bandwidth heterogeneity. Deltas outside the footprint leave the
/// family — and therefore the cell — untouched; that locality is what
/// makes single-cluster deltas cheap.
///
/// Both the incremental engine and [`measure_on_platform`] call this
/// exact function, so their per-cell inputs are bit-identical by
/// construction.
pub fn derive_family(platform: &Platform, base: &CurveConfig, cap: usize) -> RcFamily {
    let order = platform.clusters_by_clock_desc();
    let clusters = platform.clusters();
    let mut prefix = Vec::new();
    let mut hosts = 0usize;
    for id in order {
        prefix.push(id);
        hosts += clusters[id.index()].hosts as usize;
        if hosts >= cap {
            break;
        }
    }
    let fastest = clusters[prefix[0].index()].clock_mhz;
    let slowest = clusters[prefix[prefix.len() - 1].index()].clock_mhz;
    let heterogeneity = (1.0 - slowest / fastest).clamp(0.0, 0.95);
    let mut max_cf = 1.0f64;
    for (i, &a) in prefix.iter().enumerate() {
        for &b in prefix.iter().skip(i + 1) {
            max_cf = max_cf.max(platform.comm_factor(a, b));
        }
    }
    let bw_heterogeneity = (1.0 - 1.0 / max_cf).clamp(0.0, 0.95);
    RcFamily {
        clock_mhz: fastest,
        heterogeneity,
        bw_heterogeneity,
        seed: base.rc_family.seed,
    }
}

/// From-scratch platform-aware sweep: every cell evaluated against the
/// RC its footprint on `platform` implies. This is the reference the
/// anti-entropy audit and the convergence tests compare the incremental
/// state against — and the expensive thing [`PushEngine`] exists to
/// avoid rerunning per delta.
pub fn measure_on_platform(
    grid: &ObservationGrid,
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
    platform: &Platform,
) -> Vec<KneeTable> {
    let inputs = prepare(grid, cfg);
    let (_, per_cell) = sweep_on(&inputs, cfg, thetas, refine_rounds, platform);
    assemble_tables(grid, &inputs.cells, &per_cell, thetas)
}

/// The sweep a [`PushEngine`] maintains: observation grid, curve
/// configuration, knee thresholds and refinement depth.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSweep {
    /// The observation grid.
    pub grid: ObservationGrid,
    /// Heuristic, scheduling-time model and base RC family.
    pub cfg: CurveConfig,
    /// Knee thresholds, one table each.
    pub thetas: Vec<f64>,
    /// Knee-refinement depth.
    pub refine_rounds: u32,
}

impl EngineSweep {
    /// The sweep `rsg serve`'s push tracker maintains: the tiny
    /// observation grid (small enough that the initial sweep is a
    /// boot-time cost, real enough that every delta path exercises the
    /// full kernel), the default curve configuration and the paper's
    /// threshold ladder at refinement depth zero. `rsg audit` binds
    /// delta journals to its [`fingerprint`](Self::fingerprint).
    pub fn serving() -> EngineSweep {
        EngineSweep {
            grid: ObservationGrid::tiny(),
            cfg: CurveConfig::default(),
            thetas: crate::THRESHOLD_LADDER.to_vec(),
            refine_rounds: 0,
        }
    }

    /// The sweep fingerprint an engine over this sweep keys its delta
    /// journal with.
    pub fn fingerprint(&self) -> u64 {
        sweep_fingerprint(&self.grid, &self.cfg, &self.thetas, self.refine_rounds)
    }

    /// [`measure_on_platform`] over this sweep.
    pub fn measure_on(&self, platform: &Platform) -> Vec<KneeTable> {
        measure_on_platform(
            &self.grid,
            &self.cfg,
            &self.thetas,
            self.refine_rounds,
            platform,
        )
    }

    /// A [`PushEngine`] over this sweep, built with a full initial
    /// sweep of `platform`.
    pub fn engine(self, platform: Platform, cost: CostModel) -> PushEngine {
        PushEngine::new(
            self.grid,
            self.cfg,
            self.thetas,
            self.refine_rounds,
            platform,
            cost,
        )
    }
}

/// Every cell's family on `platform`, and every cell evaluated against
/// it: the full sweep [`measure_on_platform`] runs and
/// [`PushEngine::new`] starts from.
fn sweep_on(
    inputs: &SweepInputs,
    cfg: &CurveConfig,
    thetas: &[f64],
    refine_rounds: u32,
    platform: &Platform,
) -> (Vec<RcFamily>, Vec<Vec<f64>>) {
    let families = families_on(inputs, cfg, platform);
    let per_cell = (0..inputs.cells.len())
        .into_par_iter()
        .map(|c| {
            let rc = families[c].build(*inputs.ladders[c].last().unwrap());
            compute_cell(inputs, cfg, thetas, refine_rounds, c, &rc).0
        })
        .collect();
    (families, per_cell)
}

/// Every cell's [`derive_family`] on `platform`.
fn families_on(inputs: &SweepInputs, cfg: &CurveConfig, platform: &Platform) -> Vec<RcFamily> {
    (0..inputs.cells.len())
        .map(|c| derive_family(platform, cfg, *inputs.ladders[c].last().unwrap()))
        .collect()
}

/// The push-mode incremental recomputation engine: a
/// [`DeltaSequencer`] plus recomputation. See the module docs for the
/// contract; see [`PushEngine::submit_batch`] for the delta path and
/// [`PushEngine::audit`] for the reconciliation path.
pub struct PushEngine {
    grid: ObservationGrid,
    cfg: CurveConfig,
    thetas: Vec<f64>,
    refine_rounds: u32,
    fingerprint: u64,
    inputs: SweepInputs,
    sequencer: DeltaSequencer,
    families: Vec<RcFamily>,
    per_cell: Vec<Vec<f64>>,
    tables: Vec<KneeTable>,
    model: ThresholdedSizeModel,
}

impl PushEngine {
    /// Builds the engine with a full initial sweep of `platform` — the
    /// last full sweep it ever needs while the journal stays healthy.
    pub fn new(
        grid: ObservationGrid,
        cfg: CurveConfig,
        thetas: Vec<f64>,
        refine_rounds: u32,
        platform: Platform,
        cost: CostModel,
    ) -> PushEngine {
        let fingerprint = sweep_fingerprint(&grid, &cfg, &thetas, refine_rounds);
        let inputs = prepare(&grid, &cfg);
        let (families, per_cell) = sweep_on(&inputs, &cfg, &thetas, refine_rounds, &platform);
        let tables = assemble_tables(&grid, &inputs.cells, &per_cell, &thetas);
        let model = ThresholdedSizeModel::fit(&tables);

        PushEngine {
            grid,
            cfg,
            thetas,
            refine_rounds,
            fingerprint,
            inputs,
            sequencer: DeltaSequencer::new(platform, cost),
            families,
            per_cell,
            tables,
            model,
        }
    }

    /// The engine's sweep fingerprint — the digest its delta journal is
    /// keyed by.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The current (delta-tracked) platform.
    pub fn platform(&self) -> &Platform {
        self.sequencer.platform()
    }

    /// The current cost model.
    pub fn cost(&self) -> CostModel {
        self.sequencer.cost()
    }

    /// The knee tables consistent with every applied delta.
    pub fn tables(&self) -> &[KneeTable] {
        &self.tables
    }

    /// The thresholded size model fitted to [`tables`](Self::tables).
    pub fn model(&self) -> &ThresholdedSizeModel {
        &self.model
    }

    /// Number of sweep cells under management.
    pub fn cells(&self) -> usize {
        self.inputs.cells.len()
    }

    /// How current the engine is. `lag > 0` means a sequence gap is
    /// open: the source must re-deliver the missing records (resync) —
    /// until then answers are stale-but-stamped, never wrong.
    pub fn staleness(&self) -> Staleness {
        self.sequencer.staleness()
    }

    /// The lowest missing sequence number, when a gap is open.
    pub fn gap(&self) -> Option<u64> {
        self.sequencer.gap()
    }

    /// Applies a batch of delta records transactionally: sequences them
    /// with [`DeltaSequencer::submit_batch`] (see there for the
    /// duplicate / conflict / park classification and the all-or-nothing
    /// refusal — the serving tier maps an `Err` to a 422 with the batch
    /// rolled back), then recomputes the dirty set eagerly: per-cell
    /// families are rederived from the mutated platform and exactly the
    /// cells whose family changed are recomputed, then the downstream
    /// tables and fit rebuilt.
    pub fn submit_batch(&mut self, records: &[DeltaRecord]) -> Result<BatchOutcome, DeltaError> {
        let sequenced = self.sequencer.submit_batch(records)?;
        Ok(self.recompute(sequenced))
    }

    /// Replays recovered journal records with the boot-replay
    /// discipline of [`DeltaSequencer::replay`] (one record at a time,
    /// refusals dropped and returned), then recomputes once. The final
    /// state equals submitting the records one by one, because the
    /// recompute depends only on the final platform.
    pub fn replay(
        &mut self,
        records: &[DeltaRecord],
    ) -> (BatchOutcome, Vec<(DeltaRecord, DeltaError)>) {
        let (sequenced, refused) = self.sequencer.replay(records);
        (self.recompute(sequenced), refused)
    }

    /// Mirrors a sequencing outcome into the obs counters and, when
    /// anything was applied, propagates it through the model.
    fn recompute(&mut self, sequenced: SequenceOutcome) -> BatchOutcome {
        OBS_DELTAS_APPLIED.add(sequenced.applied as u64);
        OBS_DELTAS_DUPLICATE.add(sequenced.duplicates as u64);
        OBS_DELTAS_PARKED.add(sequenced.parked as u64);
        OBS_DELTAS_REJECTED.add(sequenced.rejected as u64);
        if sequenced.resynced {
            OBS_RESYNCS.incr();
        }
        let (dirtied, recomputed) = if sequenced.applied > 0 {
            self.propagate()
        } else {
            (0, 0)
        };
        BatchOutcome {
            applied: sequenced.applied,
            duplicates: sequenced.duplicates,
            parked: sequenced.parked,
            rejected: sequenced.rejected,
            dirtied,
            recomputed,
            resynced: sequenced.resynced,
        }
    }

    /// Rederives every cell's family from the current platform,
    /// recomputes exactly the cells whose family changed (the dirty
    /// set), and rebuilds the downstream tables and fit. Returns
    /// `(dirtied, recomputed)`.
    fn propagate(&mut self) -> (usize, usize) {
        let ncells = self.inputs.cells.len();
        let fresh = families_on(&self.inputs, &self.cfg, self.sequencer.platform());
        let dirty: Vec<usize> = (0..ncells)
            .filter(|&c| fresh[c] != self.families[c])
            .collect();
        OBS_CELLS_DIRTIED.add(dirty.len() as u64);

        self.families = fresh;
        let recomputed: Vec<(usize, Vec<f64>)> = dirty
            .par_iter()
            .map(|&c| (c, self.compute(c, &self.families[c])))
            .collect();
        for (c, knees) in recomputed {
            self.per_cell[c] = knees;
        }
        OBS_CELLS_RECOMPUTED.add(dirty.len() as u64);

        if !dirty.is_empty() {
            self.rebuild_downstream();
        }
        (dirty.len(), dirty.len())
    }

    /// Evaluates cell `c` of this engine's sweep against `family`.
    fn compute(&self, c: usize, family: &RcFamily) -> Vec<f64> {
        let rc = family.build(*self.inputs.ladders[c].last().unwrap());
        compute_cell(
            &self.inputs,
            &self.cfg,
            &self.thetas,
            self.refine_rounds,
            c,
            &rc,
        )
        .0
    }

    /// Rebuilds the tables and fit from the per-cell state.
    fn rebuild_downstream(&mut self) {
        self.tables = assemble_tables(&self.grid, &self.inputs.cells, &self.per_cell, &self.thetas);
        self.model = ThresholdedSizeModel::fit(&self.tables);
    }

    /// Anti-entropy audit: recomputes a seeded random sample of cells
    /// from scratch off the live platform and compares bit-for-bit
    /// against the incremental state. A divergent cell is replaced by
    /// the fresh value and counted in
    /// `push.divergence`; the downstream tables and fit are rebuilt
    /// before the call returns, so the engine never keeps serving a
    /// number it knows to be wrong.
    ///
    /// The sample is deterministic in `(fingerprint, applied_seq,
    /// salt)` — two replicas auditing at the same point check the same
    /// cells.
    pub fn audit(&mut self, sample: usize, salt: u64) -> AuditReport {
        OBS_AUDITS.incr();
        let ncells = self.inputs.cells.len();
        let mut state = self
            .fingerprint
            .wrapping_add(
                self.staleness()
                    .applied_seq
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15),
            )
            .wrapping_add(salt);
        let mut picked = std::collections::BTreeSet::new();
        for _ in 0..sample.min(ncells) * 4 {
            // splitmix64 step
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            picked.insert((z % ncells as u64) as usize);
            if picked.len() >= sample.min(ncells) {
                break;
            }
        }

        let mut report = AuditReport {
            checked: picked.len(),
            divergent: 0,
        };
        let mut repaired = false;
        for c in picked {
            let cap = *self.inputs.ladders[c].last().unwrap();
            let fam = derive_family(self.sequencer.platform(), &self.cfg, cap);
            let fresh = self.compute(c, &fam);
            let identical = fresh.len() == self.per_cell[c].len()
                && fresh
                    .iter()
                    .zip(&self.per_cell[c])
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            if !identical {
                OBS_DIVERGENCE.incr();
                report.divergent += 1;
                self.per_cell[c] = fresh;
                self.families[c] = fam;
                OBS_CELLS_RECOMPUTED.incr();
                repaired = true;
            }
        }
        if repaired {
            self.rebuild_downstream();
        }
        report
    }

    /// Test / drill hook: corrupts one cell's incremental state in a
    /// way only the anti-entropy audit can detect (nothing marks it
    /// stale). Used by the convergence tests and the
    /// chaos bench to prove the audit actually repairs divergence.
    pub fn poison_cell(&mut self, c: usize) {
        for k in &mut self.per_cell[c] {
            *k += 1.0;
        }
        self.rebuild_downstream();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_platform::{ClusterId, ResourceGenSpec, TopologySpec};
    use std::path::PathBuf;

    fn tiny_platform() -> Platform {
        Platform::generate(
            ResourceGenSpec {
                clusters: 12,
                year: 2006,
                target_hosts: Some(420),
            },
            TopologySpec::default(),
            11,
        )
    }

    fn engine() -> PushEngine {
        EngineSweep::serving().engine(tiny_platform(), CostModel::default())
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rsg-push-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn initial_state_matches_from_scratch() {
        let eng = engine();
        let reference = EngineSweep::serving().measure_on(&tiny_platform());
        assert_eq!(eng.tables(), &reference[..]);
    }

    #[test]
    fn duplicate_and_out_of_order_records_converge() {
        let mut eng = engine();
        let slowest = *eng.platform().clusters_by_clock_desc().last().unwrap();
        let fastest = eng.platform().clusters_by_clock_desc()[0];
        let r1 = DeltaRecord {
            seq: 1,
            delta: PlatformDelta::HostJoin {
                cluster: slowest,
                hosts: 3,
            },
        };
        let r2 = DeltaRecord {
            seq: 2,
            delta: PlatformDelta::ClockDrift {
                cluster: fastest,
                clock_mhz: eng.platform().clusters()[fastest.index()].clock_mhz + 100.0,
            },
        };
        let r3 = DeltaRecord {
            seq: 3,
            delta: PlatformDelta::PriceChange {
                dollars_per_hour: 0.2,
            },
        };
        // Deliver out of order with duplicates: 3, 1, 3, 2, 1.
        let out = eng.submit_batch(&[r3, r1]).unwrap();
        assert_eq!(out.applied, 1); // r1
        assert_eq!(out.parked, 1); // r3
        assert_eq!(eng.staleness().lag, 2);
        assert_eq!(eng.gap(), Some(2));
        let out = eng.submit_batch(&[r3, r2, r1]).unwrap();
        assert_eq!(out.applied, 2); // r2 + drained r3
        assert_eq!(out.duplicates, 2);
        assert!(out.resynced);
        assert_eq!(eng.staleness().lag, 0);
        assert_eq!(eng.gap(), None);
        assert_eq!(eng.cost().dollars_per_hour, 0.2);

        // Incremental state now matches a from-scratch sweep of the
        // final platform, bit for bit.
        let reference = EngineSweep::serving().measure_on(eng.platform());
        assert_eq!(eng.tables(), &reference[..]);
    }

    #[test]
    fn bad_delta_rolls_back_whole_batch() {
        let mut eng = engine();
        let before_seq = eng.staleness().applied_seq;
        let slowest = *eng.platform().clusters_by_clock_desc().last().unwrap();
        let good = DeltaRecord {
            seq: 1,
            delta: PlatformDelta::HostJoin {
                cluster: slowest,
                hosts: 1,
            },
        };
        let bad = DeltaRecord {
            seq: 2,
            delta: PlatformDelta::ClockDrift {
                cluster: ClusterId(0),
                clock_mhz: f64::INFINITY,
            },
        };
        let err = eng.submit_batch(&[good, bad]).unwrap_err();
        assert!(matches!(err, DeltaError::BadClock(_)));
        // Nothing committed — not even the good record.
        assert_eq!(eng.staleness().applied_seq, before_seq);
        assert_eq!(eng.staleness().lag, 0);
    }

    #[test]
    fn audit_detects_and_repairs_poison() {
        let mut eng = engine();
        eng.poison_cell(0);
        // Audit the whole grid so cell 0 is certainly sampled.
        let report = eng.audit(eng.cells(), 7);
        assert_eq!(report.divergent, 1);
        let reference = EngineSweep::serving().measure_on(eng.platform());
        assert_eq!(eng.tables(), &reference[..]);
        // A second audit finds nothing.
        let report = eng.audit(eng.cells(), 7);
        assert_eq!(report.divergent, 0);
    }

    #[test]
    fn out_of_footprint_delta_dirties_nothing() {
        let mut eng = engine();
        // The slowest cluster is outside every cell's footprint (caps
        // are small relative to the fast prefix), so shrinking it is
        // invisible to the models.
        let slowest = *eng.platform().clusters_by_clock_desc().last().unwrap();
        let rec = DeltaRecord {
            seq: 1,
            delta: PlatformDelta::HostLeave {
                cluster: slowest,
                hosts: 1,
            },
        };
        let out = eng.submit_batch(&[rec]).unwrap();
        assert_eq!(out.applied, 1);
        assert_eq!(out.dirtied, 0);
        assert_eq!(out.recomputed, 0);
    }

    #[test]
    fn journal_rejects_hostile_lines() {
        let dir = tmpdir("hostile");
        let path = dir.join("deltas.journal");
        let fp = 0x1234_u64;
        // Valid header, hostile bodies: bad checksum, bad seq, bad TSV.
        let header = format!("rsg-delta-journal\tv1\t{fp:016x}\n");
        for tail in [
            "delta\t1\tprice\t0.1\t0000000000000000\n",
            "delta\t99999999999999999999999\tprice\t0.1\tdeadbeef\n",
            "delta\t-1\tprice\t0.1\tdeadbeef\n",
            "garbage\n",
        ] {
            std::fs::write(&path, format!("{header}{tail}")).unwrap();
            let (_, (), good, bad) = DeltaJournal::verify(&path).unwrap();
            assert_eq!(good, 0, "{tail:?}");
            assert_eq!(bad, 1, "{tail:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
