//! The resource specification generator (Chapter VII).
//!
//! Combines the size prediction model, the heuristic prediction model,
//! the heterogeneity/SCR adjustments and platform assumptions into one
//! [`ResourceSpec`], then renders it in the three target languages:
//! vgDL (Figure VII-5), a Condor ClassAd (Figure VII-3) and a SWORD XML
//! query (Figure VII-4).

use crate::heterogeneity::HeterogeneityAdjustment;
use crate::heurmodel::HeuristicPredictionModel;
use crate::sizemodel::ThresholdedSizeModel;
use crate::utility::UtilityFunction;
use rsg_dag::{Dag, DagStats};
use rsg_obs::Counter;
use rsg_sched::HeuristicKind;
use rsg_select::classad::{ClassAd, Expr};
use rsg_select::sword::{AttrRange, Bound, SwordGroup, SwordRequest};
use rsg_select::vgdl::{Aggregate, AggregateKind, CmpOp, NodeConstraint, VgdlSpec};

/// A generated resource specification — the common denominator behind
/// the three target languages.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceSpec {
    /// Requested RC size (the model's prediction).
    pub rc_size: u32,
    /// Smallest acceptable RC size (from the most permissive threshold
    /// of the ladder, letting the selector degrade gracefully).
    pub min_size: u32,
    /// Requested clock range (min, max), MHz.
    pub clock_mhz: (f64, f64),
    /// Heuristic to schedule with once the RC is bound.
    pub heuristic: HeuristicKind,
    /// Aggregate/topology requirement derived from the CCR.
    pub aggregate: AggregateKind,
    /// Knee threshold used for `rc_size`.
    pub threshold: f64,
    /// Memory floor, MB (from the application, default 512).
    pub memory_mb: u32,
}

/// A semantic defect in a [`ResourceSpec`] — the single source of truth
/// for the basic well-formedness rules. `rsg-analyze` maps each
/// violation onto a stable diagnostic code (SPEC001–SPEC005); the
/// generator itself checks them behind
/// [`GeneratorConfig::validate_output`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecViolation {
    /// `rc_size == 0`: an empty collection can run nothing.
    ZeroSize,
    /// `min_size > rc_size`: the floor exceeds the request.
    MinExceedsSize,
    /// `clock_mhz.0 > clock_mhz.1`: inverted clock range.
    ClockInverted,
    /// A clock bound is NaN, infinite at the lower end, or ≤ 0.
    BadClock,
    /// `memory_mb == 0`: no host can satisfy a zero-memory floor
    /// meaningfully; it always indicates a defaulting bug.
    ZeroMemory,
    /// `threshold` outside `(0, 1)` — thresholds are fractions of
    /// turnaround degradation.
    ThresholdOutOfRange,
}

impl std::fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecViolation::ZeroSize => write!(f, "requested RC size is zero"),
            SpecViolation::MinExceedsSize => write!(f, "min_size exceeds rc_size"),
            SpecViolation::ClockInverted => write!(f, "clock range is inverted (min > max)"),
            SpecViolation::BadClock => write!(f, "clock bound is non-finite or non-positive"),
            SpecViolation::ZeroMemory => write!(f, "memory floor is zero"),
            SpecViolation::ThresholdOutOfRange => {
                write!(f, "knee threshold outside (0, 1)")
            }
        }
    }
}

impl ResourceSpec {
    /// The one-line summary `rsg spec` prints first and `/spec` returns
    /// as `"summary"`.
    pub fn summary(&self) -> String {
        format!(
            "RC size {} (min {}), clocks {:.0}..{:.0} MHz, heuristic {}, threshold {:.1}%",
            self.rc_size,
            self.min_size,
            self.clock_mhz.0,
            self.clock_mhz.1,
            self.heuristic,
            self.threshold * 100.0
        )
    }

    /// Checks the basic semantic well-formedness rules and returns
    /// every violated one (empty for a healthy spec). Deterministic
    /// order: the order of the checks below.
    pub fn violations(&self) -> Vec<SpecViolation> {
        let mut out = Vec::new();
        if self.rc_size == 0 {
            out.push(SpecViolation::ZeroSize);
        }
        if self.min_size > self.rc_size {
            out.push(SpecViolation::MinExceedsSize);
        }
        let (lo, hi) = self.clock_mhz;
        if lo.is_nan() || hi.is_nan() || lo.is_infinite() || lo <= 0.0 || hi <= 0.0 {
            out.push(SpecViolation::BadClock);
        } else if lo > hi {
            out.push(SpecViolation::ClockInverted);
        }
        if self.memory_mb == 0 {
            out.push(SpecViolation::ZeroMemory);
        }
        if !self.threshold.is_finite() || self.threshold <= 0.0 || self.threshold >= 1.0 {
            out.push(SpecViolation::ThresholdOutOfRange);
        }
        out
    }
}

/// Platform/application assumptions the generator needs beyond the
/// models (Table VII-2-ish knobs).
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Nominal clock of the target tier, MHz (e.g. 3500 in Figure
    /// VII-6).
    pub target_clock_mhz: f64,
    /// Heterogeneity tolerance `H`: the generator requests clocks in
    /// `[target·(1−H), target]`.
    pub heterogeneity_tolerance: f64,
    /// Optional utility function choosing among thresholds; `None`
    /// keeps the strictest (0.1%).
    pub utility: Option<UtilityFunction>,
    /// Rows of `(threshold, expected degradation, expected relative
    /// cost)` the utility chooses from, when known. Pairs with
    /// `utility`.
    pub threshold_tradeoffs: Vec<(f64, f64, f64)>,
    /// Memory floor, MB.
    pub memory_mb: u32,
    /// When set, the generator re-checks its own output with
    /// [`ResourceSpec::violations`]: a violation increments the
    /// `core.specgen.validation_failures` counter and aborts debug
    /// builds (a generated spec must never be malformed).
    pub validate_output: bool,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            target_clock_mhz: 3500.0,
            heterogeneity_tolerance: 0.0,
            utility: None,
            threshold_tradeoffs: Vec::new(),
            memory_mb: 512,
            validate_output: false,
        }
    }
}

/// The generator: trained models plus adjustments.
#[derive(Debug, Clone)]
pub struct SpecGenerator {
    /// Size models per threshold.
    pub size_model: ThresholdedSizeModel,
    /// Heuristic model.
    pub heuristic_model: HeuristicPredictionModel,
    /// Optional heterogeneity size adjustment.
    pub het_adjustment: Option<HeterogeneityAdjustment>,
}

impl SpecGenerator {
    /// Builds a generator from trained models.
    pub fn new(
        size_model: ThresholdedSizeModel,
        heuristic_model: HeuristicPredictionModel,
    ) -> SpecGenerator {
        SpecGenerator {
            size_model,
            heuristic_model,
            het_adjustment: None,
        }
    }

    /// Generates the specification for a DAG.
    pub fn generate(&self, dag: &Dag, cfg: &GeneratorConfig) -> ResourceSpec {
        self.generate_from_stats(&DagStats::measure(dag), cfg)
    }

    /// Generates from pre-measured characteristics.
    pub fn generate_from_stats(&self, stats: &DagStats, cfg: &GeneratorConfig) -> ResourceSpec {
        static OBS_SPECS: Counter = Counter::new("core.specgen.specs_generated");
        let _span = rsg_obs::span("specgen/predict");
        OBS_SPECS.incr();
        // Threshold selection: utility over known trade-off rows, else
        // the strictest model.
        let threshold = match (&cfg.utility, cfg.threshold_tradeoffs.is_empty()) {
            (Some(u), false) => {
                let i = u.choose(&cfg.threshold_tradeoffs);
                cfg.threshold_tradeoffs[i].0
            }
            _ => self.size_model.strictest().theta,
        };
        let model = self
            .size_model
            .for_threshold(threshold)
            .unwrap_or_else(|| self.size_model.strictest());
        let mut size = model.predict(stats);

        // Heterogeneity adjustment: a tolerant request may need a few
        // more hosts to compensate for slower members.
        if cfg.heterogeneity_tolerance > 0.0 {
            if let Some(adj) = &self.het_adjustment {
                size = adj.adjust(size, cfg.heterogeneity_tolerance);
            }
        }
        let size = (size as u32).min(stats.width.max(1));

        // Minimum acceptable size: the most permissive model's
        // prediction (never above the requested size).
        let min_size = {
            let permissive = self.size_model.models.last().expect("non-empty ladder");
            (permissive.predict(stats) as u32).min(size).max(1)
        };

        let heuristic = self.heuristic_model.predict(stats);

        // Connectivity class from the CCR: communication-heavy DAGs
        // need a single well-connected cluster; communication-light
        // ones tolerate a (tight) bag (Section VII.2 discussion).
        let aggregate = if stats.ccr >= 0.3 {
            AggregateKind::ClusterOf
        } else if stats.ccr >= 0.001 {
            AggregateKind::TightBagOf
        } else {
            AggregateKind::LooseBagOf
        };

        let spec = ResourceSpec {
            rc_size: size,
            min_size,
            clock_mhz: (
                cfg.target_clock_mhz * (1.0 - cfg.heterogeneity_tolerance),
                cfg.target_clock_mhz,
            ),
            heuristic,
            aggregate,
            threshold,
            memory_mb: cfg.memory_mb,
        };
        if cfg.validate_output {
            static OBS_INVALID: Counter = Counter::new("core.specgen.validation_failures");
            let violations = spec.violations();
            if !violations.is_empty() {
                OBS_INVALID.incr();
            }
            debug_assert!(
                violations.is_empty(),
                "generated spec violates its own invariants: {violations:?}"
            );
        }
        spec
    }

    /// Renders a spec as vgDL (Figure VII-5).
    pub fn to_vgdl(spec: &ResourceSpec) -> VgdlSpec {
        let _span = rsg_obs::span("specgen/emit_vgdl");
        let mut constraints = vec![NodeConstraint::num("Clock", CmpOp::Ge, spec.clock_mhz.0)];
        if spec.clock_mhz.1.is_finite() {
            constraints.push(NodeConstraint::num("Clock", CmpOp::Le, spec.clock_mhz.1));
        }
        constraints.push(NodeConstraint::num(
            "Memory",
            CmpOp::Ge,
            spec.memory_mb as f64,
        ));
        VgdlSpec::single(Aggregate {
            kind: spec.aggregate,
            var: "nodes".into(),
            min: spec.min_size,
            max: spec.rc_size,
            rank: Some("Nodes".into()),
            constraints,
        })
    }

    /// Renders a spec as a Condor ClassAd request (Figure VII-3).
    pub fn to_classad(spec: &ResourceSpec) -> ClassAd {
        let _span = rsg_obs::span("specgen/emit_classad");
        let mut ad = ClassAd::new();
        ad.set("Type", Expr::Str("Job".into()));
        ad.set("Count", Expr::Num(spec.rc_size as f64));
        ad.set("MinCount", Expr::Num(spec.min_size as f64));
        ad.set(
            "SchedulingHeuristic",
            Expr::Str(spec.heuristic.name().into()),
        );
        let mut req = vec![
            Expr::bin(
                rsg_select::classad::BinOp::Eq,
                Expr::scoped("other", "Type"),
                Expr::Str("Machine".into()),
            ),
            Expr::bin(
                rsg_select::classad::BinOp::Eq,
                Expr::scoped("other", "OpSys"),
                Expr::Str("LINUX".into()),
            ),
            Expr::bin(
                rsg_select::classad::BinOp::Ge,
                Expr::scoped("other", "Clock"),
                Expr::Num(spec.clock_mhz.0),
            ),
            Expr::bin(
                rsg_select::classad::BinOp::Ge,
                Expr::scoped("other", "Memory"),
                Expr::Num(spec.memory_mb as f64),
            ),
        ];
        if spec.clock_mhz.1.is_finite() {
            req.push(Expr::bin(
                rsg_select::classad::BinOp::Le,
                Expr::scoped("other", "Clock"),
                Expr::Num(spec.clock_mhz.1),
            ));
        }
        ad.set("Requirements", Expr::and_all(req));
        ad.set("Rank", Expr::scoped("other", "Clock"));
        ad
    }

    /// Renders a spec as a SWORD request (Figure VII-4).
    pub fn to_sword(spec: &ResourceSpec) -> SwordRequest {
        let _span = rsg_obs::span("specgen/emit_sword");
        let group = SwordGroup {
            name: "rc".into(),
            num_machines: spec.rc_size,
            attrs: vec![
                AttrRange {
                    name: "clock".into(),
                    req_min: spec.clock_mhz.0,
                    des_min: spec.clock_mhz.1,
                    des_max: Bound::Max,
                    req_max: Bound::Max,
                    penalty: 1.0,
                },
                AttrRange {
                    name: "free_mem".into(),
                    req_min: spec.memory_mb as f64,
                    des_min: spec.memory_mb as f64 * 2.0,
                    des_max: Bound::Max,
                    req_max: Bound::Max,
                    penalty: 0.1,
                },
            ],
            os: Some("Linux".into()),
            region: None,
        };
        SwordRequest::with_groups(vec![group])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curve::CurveConfig;
    use crate::heurmodel::HeuristicTraining;
    use crate::observation::{measure, ObservationGrid};

    fn generator() -> SpecGenerator {
        let grid = ObservationGrid::tiny();
        let cfg = CurveConfig::default();
        let tables = measure(&grid, &cfg, &[0.001, 0.05], 0);
        let size_model = ThresholdedSizeModel::fit(&tables);
        let mut t = HeuristicTraining::fast();
        t.sizes = vec![50, 200];
        t.instances = 1;
        let heur = crate::heurmodel::HeuristicPredictionModel::train(&t, &cfg);
        SpecGenerator::new(size_model, heur)
    }

    #[test]
    fn generates_consistent_spec() {
        let gen = generator();
        let dag = rsg_dag::RandomDagSpec {
            size: 150,
            ccr: 0.1,
            parallelism: 0.6,
            density: 0.5,
            regularity: 0.8,
            mean_comp: 20.0,
        }
        .generate(3);
        let spec = gen.generate(&dag, &GeneratorConfig::default());
        assert!(spec.rc_size >= 1);
        assert!(spec.min_size <= spec.rc_size);
        assert!(spec.clock_mhz.0 <= spec.clock_mhz.1);
        assert_eq!(spec.aggregate, AggregateKind::TightBagOf);
    }

    #[test]
    fn high_ccr_requests_a_cluster() {
        let gen = generator();
        let dag = rsg_dag::RandomDagSpec {
            size: 100,
            ccr: 1.0,
            parallelism: 0.5,
            density: 0.5,
            regularity: 0.8,
            mean_comp: 20.0,
        }
        .generate(4);
        let spec = gen.generate(&dag, &GeneratorConfig::default());
        assert_eq!(spec.aggregate, AggregateKind::ClusterOf);
    }

    #[test]
    fn heterogeneity_tolerance_widens_clock_range() {
        let gen = generator();
        let dag = rsg_dag::workflows::fork_join(3, 20, 10.0, 0.1);
        let cfg = GeneratorConfig {
            heterogeneity_tolerance: 0.3,
            ..Default::default()
        };
        let spec = gen.generate(&dag, &cfg);
        assert!((spec.clock_mhz.0 - 3500.0 * 0.7).abs() < 1e-9);
        assert!((spec.clock_mhz.1 - 3500.0).abs() < 1e-9);
    }

    #[test]
    fn renders_all_three_languages() {
        let gen = generator();
        let dag = rsg_dag::montage::montage_1629_actual();
        let spec = gen.generate(&dag, &GeneratorConfig::default());

        let vgdl = SpecGenerator::to_vgdl(&spec);
        let vg_text = vgdl.to_string();
        assert!(vg_text.contains("Clock >="));
        // Round-trips through the vgDL parser.
        assert_eq!(rsg_select::vgdl::parse_vgdl(&vg_text).unwrap(), vgdl);

        let ad = SpecGenerator::to_classad(&spec);
        let ad_text = ad.to_string();
        assert!(ad_text.contains("Count"));
        assert!(ad_text.contains("other.Clock >="));
        assert_eq!(rsg_select::classad::parse_classad(&ad_text).unwrap(), ad);

        let sword = SpecGenerator::to_sword(&spec);
        let xml = rsg_select::sword::write_sword(&sword);
        assert!(xml.contains("<num_machines>"));
        assert_eq!(rsg_select::sword::parse_sword(&xml).unwrap(), sword);
    }

    #[test]
    fn violations_catch_each_defect_class() {
        let gen = generator();
        let dag = rsg_dag::workflows::fork_join(2, 10, 5.0, 0.1);
        let cfg = GeneratorConfig {
            validate_output: true,
            ..Default::default()
        };
        let good = gen.generate(&dag, &cfg);
        assert!(good.violations().is_empty(), "{:?}", good.violations());

        let mut s = good.clone();
        s.rc_size = 0;
        assert!(s.violations().contains(&SpecViolation::ZeroSize));
        assert!(s.violations().contains(&SpecViolation::MinExceedsSize));

        let mut s = good.clone();
        s.clock_mhz = (3500.0, 2000.0);
        assert_eq!(s.violations(), vec![SpecViolation::ClockInverted]);

        let mut s = good.clone();
        s.clock_mhz = (f64::NAN, 3500.0);
        assert_eq!(s.violations(), vec![SpecViolation::BadClock]);

        let mut s = good.clone();
        s.memory_mb = 0;
        assert_eq!(s.violations(), vec![SpecViolation::ZeroMemory]);

        let mut s = good;
        s.threshold = 1.5;
        assert_eq!(s.violations(), vec![SpecViolation::ThresholdOutOfRange]);
    }

    #[test]
    fn utility_picks_trade_off_threshold() {
        let gen = generator();
        let dag = rsg_dag::workflows::fork_join(2, 30, 10.0, 0.1);
        let cfg = GeneratorConfig {
            utility: Some(UtilityFunction::one_for_ten()),
            threshold_tradeoffs: vec![(0.001, 0.0, 0.0), (0.05, 0.005, -0.2)],
            ..Default::default()
        };
        let spec = gen.generate(&dag, &cfg);
        assert_eq!(spec.threshold, 0.05, "utility should pick the cheap row");
    }
}
