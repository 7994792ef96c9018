//! In-process replays of the serve workloads' generated inputs, with a
//! span around each call into a layer's public functions:
//!
//! * `/spec` bodies go once through `handlers::handle` (the whole
//!   handler, `serve.handle`) and once through the handler's stages
//!   called one by one — JSON parse, lint, DAG parse, DAG stats, spec
//!   generation, the three renderings, and for negotiated requests the
//!   alternative ladder and the vgES finder. What `handle` spends
//!   outside those stages is the handler's unattributed remainder.
//! * Delta batches go through `lint_delta_batch` and
//!   `PushEngine::submit_batch` on an engine built exactly like the
//!   daemon's push tracker, and the final platform is swept from
//!   scratch once (`measure_on_platform`), the bound no batch should
//!   exceed.

use crate::trace::Tracer;
use rsg_analyze::{analyze, lint_delta_batch, Input};
use rsg_core::alternative::{alternatives, attempt_from_outcome, negotiate_with_retry};
use rsg_core::curve::CurveConfig;
use rsg_core::observation::ObservationGrid;
use rsg_core::push::{measure_on_platform, DeltaRecord, PushEngine};
use rsg_core::specgen::{GeneratorConfig, SpecGenerator};
use rsg_core::{RetryPolicy, THRESHOLD_LADDER};
use rsg_dag::io::read_dag;
use rsg_dag::DagStats;
use rsg_obs::json::Json;
use rsg_platform::delta::PlatformDelta;
use rsg_platform::{CostModel, Platform};
use rsg_select::{FlakyConfig, FlakySelector, VgesFinder};
use rsg_serve::{Deadline, HttpRequest, ServerContext};

/// The request a `/spec` body arrives as.
pub fn spec_request(body: &str) -> HttpRequest {
    HttpRequest {
        method: "POST".to_string(),
        path: "/spec".to_string(),
        body: body.to_string(),
    }
}

/// Per-request statistics of the staged replay.
#[derive(Default)]
pub struct SpecCounts {
    pub bound: u64,
    pub attempts: u64,
}

/// DAG statistics from a characteristics object, derived the way the
/// `/spec` handler derives them (`τ = n^α`, width `⌈τ⌉`).
fn stats_from_characteristics(c: &Json) -> DagStats {
    let f = |k: &str| c.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let size = f("size");
    let parallelism = f("parallelism");
    let tau = size.powf(parallelism.clamp(0.0, 1.0)).max(1.0);
    DagStats {
        size: size as usize,
        height: (size / tau).round().max(1.0) as u32,
        tasks_per_level: tau,
        width: tau.ceil() as u32,
        ccr: f("ccr"),
        parallelism,
        density: f("density"),
        regularity: f("regularity"),
        mean_comp: f("mean_comp"),
    }
}

/// Replays every body twice, back to back so both see the same cache
/// state: once through `handlers::handle` inside a `serve.handle` span,
/// then through the handler's stages called one by one, each inside
/// its span. The enclosing `handler.staged` span's self time is the
/// replay's own glue and belongs to no layer.
pub fn replay_spec(
    ctx: &ServerContext,
    generator: &SpecGenerator,
    platform: &Platform,
    bodies: &[String],
    tr: &mut Tracer,
) -> SpecCounts {
    let mut counts = SpecCounts::default();
    let finder = VgesFinder::default();
    for (i, b) in bodies.iter().enumerate() {
        let id = i as u64;
        let req = spec_request(b);
        let resp = tr.span("serve.handle", id, || {
            rsg_serve::handlers::handle(ctx, &req, &Deadline::start(30.0))
        });
        assert_eq!(
            resp.status, 200,
            "in-process replay answered {}",
            resp.status
        );
        tr.enter("handler.staged", id);
        let body = tr
            .span("obs.json_parse", id, || Json::parse(b))
            .expect("generated JSON");
        let (stats, dag) = match body.get("dag").and_then(Json::as_str) {
            Some(text) => {
                let report = tr.span("analyze.lint", id, || {
                    analyze(&[Input::new("request.dag", text)], None)
                });
                assert_eq!(report.errors(), 0, "generated DAG failed lint");
                let dag = tr
                    .span("dag.parse", id, || read_dag(text))
                    .expect("generated DAG parses");
                let stats = tr.span("dag.stats", id, || DagStats::measure(&dag));
                (stats, Some(dag))
            }
            None => {
                let c = body.get("characteristics").expect("characteristics body");
                (stats_from_characteristics(c), None)
            }
        };
        let gcfg = GeneratorConfig {
            target_clock_mhz: 3500.0,
            heterogeneity_tolerance: 0.0,
            ..Default::default()
        };
        let spec = tr.span("core.specgen", id, || {
            let spec = generator.generate_from_stats(&stats, &gcfg);
            let ladder: Vec<usize> = generator
                .size_model
                .models
                .iter()
                .map(|m| m.predict(&stats))
                .collect();
            std::hint::black_box(ladder);
            spec
        });
        let rendered = tr.span("select.render", id, || {
            (
                SpecGenerator::to_vgdl(&spec).to_string(),
                SpecGenerator::to_classad(&spec).to_string(),
                rsg_select::sword::write_sword(&SpecGenerator::to_sword(&spec)),
            )
        });
        std::hint::black_box(rendered);
        if let (Some(Json::Bool(true)), Some(dag)) = (body.get("negotiate"), &dag) {
            let tiers: Vec<f64> = [3000.0, 2500.0, 2000.0]
                .into_iter()
                .filter(|&t| t < spec.clock_mhz.1)
                .collect();
            let ladder = tr.span("core.alternative", id, || {
                alternatives(
                    &spec,
                    std::slice::from_ref(dag),
                    &tiers,
                    &CurveConfig::default(),
                )
            });
            let mut flaky = FlakySelector::new(FlakyConfig::default()).expect("default config");
            tr.enter("core.negotiate", id);
            let result = negotiate_with_retry(&ladder, &RetryPolicy::default(), |s| {
                let vg = tr.span("select.render", id, || SpecGenerator::to_vgdl(s));
                attempt_from_outcome(
                    flaky.select(|| tr.span("select.find", id, || finder.find(platform, &vg))),
                    s.min_size,
                )
            });
            tr.exit();
            match result {
                Ok(n) => {
                    counts.bound += 1;
                    counts.attempts += n.stats.attempts;
                }
                Err(u) => counts.attempts += u.stats.attempts,
            }
        }
        tr.exit();
    }
    counts
}

/// What the push replay measured.
pub struct PushReplay {
    /// `submit_batch` wall time per batch, ms.
    pub apply_ms: Vec<f64>,
    /// Cells recomputed by each batch.
    pub recomputed: Vec<u64>,
    /// Cells in the engine's grid.
    pub cells: usize,
    /// One from-scratch sweep of the final platform, ms.
    pub full_resweep_ms: f64,
    /// Whether the incremental tables equal that sweep's, bit for bit.
    pub converged: bool,
}

/// Replays `batches` (warm-up first) through the delta lints and the
/// push engine, in order, as the daemon applies them.
pub fn replay_push(
    platform: Platform,
    batches: &[Vec<(u64, PlatformDelta)>],
    tr: &mut Tracer,
) -> PushReplay {
    let cfg = CurveConfig::default();
    let mut engine = tr.span("push.init", 0, || {
        PushEngine::new(
            ObservationGrid::tiny(),
            cfg,
            THRESHOLD_LADDER.to_vec(),
            0,
            platform,
            CostModel::default(),
        )
    });
    let mut apply_ms = Vec::with_capacity(batches.len());
    let mut recomputed = Vec::with_capacity(batches.len());
    for (i, batch) in batches.iter().enumerate() {
        let id = i as u64;
        let records: Vec<DeltaRecord> = batch
            .iter()
            .map(|&(seq, delta)| DeltaRecord { seq, delta })
            .collect();
        let diags = tr.span("analyze.delta_lint", id, || {
            lint_delta_batch(
                &records,
                engine.platform(),
                engine.staleness().applied_seq,
                "/admin/platform",
            )
        });
        assert!(diags.is_empty(), "generated delta batch {i} failed lint");
        let started = std::time::Instant::now();
        let outcome = tr
            .span("push.apply", id, || engine.submit_batch(&records))
            .expect("generated delta batch applies");
        apply_ms.push(started.elapsed().as_secs_f64() * 1e3);
        recomputed.push(outcome.recomputed as u64);
    }
    let started = std::time::Instant::now();
    let tables = tr.span("push.full_resweep", 0, || {
        measure_on_platform(
            &ObservationGrid::tiny(),
            &cfg,
            &THRESHOLD_LADDER,
            0,
            engine.platform(),
        )
    });
    let full_resweep_ms = started.elapsed().as_secs_f64() * 1e3;
    PushReplay {
        converged: tables.as_slice() == engine.tables(),
        apply_ms,
        recomputed,
        cells: engine.cells(),
        full_resweep_ms,
    }
}
