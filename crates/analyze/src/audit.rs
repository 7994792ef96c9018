//! `rsg audit`: whole-deployment static verification of the artifact
//! graph.
//!
//! Every artifact the pipeline emits — size/heuristic models, knee
//! tables, sweep journals, the platform file, delta journals, rendered
//! specs — already checks *itself* (store checksums, `rsg lint`, the
//! push engine's validation). What nothing checked until now is the
//! *graph*: whether the artifacts sitting together in one deployment
//! tree are mutually consistent at the moment `rsg serve` would boot
//! on them. This module audits the tree offline:
//!
//! * the fingerprint chain — a delta journal keyed to a different
//!   engine configuration, or sweep-journal shards that disagree with
//!   each other, are errors *before* boot, not quarantines at runtime;
//! * a **delta-stream fold** that replays the delta journals onto the
//!   platform with the push engine's own [`DeltaSequencer`] — the
//!   engine is that sequencer plus recomputation, so the fold's
//!   classification, refusals and final platform are the boot replay's
//!   by construction, without paying for a single sweep cell —
//!   surfacing open sequence gaps, conflicting redeliveries, records
//!   boot would refuse, and clamp-saturating drifts;
//! * whether the **post-fold** platform still satisfies every spec in
//!   the corpus, reusing the SPEC satisfiability model — a stream of
//!   perfectly valid host-leave deltas that strands a committed spec is
//!   a deployment bug no per-file check can see;
//! * `MODEL00x` lints on the models themselves (see
//!   [`model_lints`](crate::model_lints)).
//!
//! Findings reuse the [`AnalysisReport`] taxonomy under the `AUDIT` and
//! `MODEL` families, so `rsg audit` renders and exits exactly like
//! `rsg lint`.

use crate::artifact_lints::{classify, relative_subject, Artifact, ArtifactKind};
use crate::diag::{AnalysisReport, Code, Diagnostic, Severity};
use crate::model_lints::{lint_heuristic_model, lint_size_model};
use crate::{analyze, Input};
use rsg_core::observation::{sweep_fingerprint, ObservationGrid};
use rsg_core::push::DeltaJournal;
use rsg_core::{CurveConfig, SweepJournal, THRESHOLD_LADDER};
use rsg_platform::delta::{DeltaError, DeltaSequencer};
use rsg_platform::{CostModel, Platform, PlatformFile};
use std::path::{Path, PathBuf};

static OBS_AUDITS: rsg_obs::Counter = rsg_obs::Counter::new("audit.trees");
static OBS_AUDIT_ARTIFACTS: rsg_obs::Counter = rsg_obs::Counter::new("audit.artifacts");

/// The engine configuration fingerprint `rsg serve` keys its delta
/// journal with: the tiny observation grid, default curve
/// configuration and the paper's threshold ladder at refinement depth
/// zero. A delta journal in a deployment tree that carries any other
/// fingerprint will be quarantined at boot.
pub fn serve_engine_fingerprint() -> u64 {
    sweep_fingerprint(
        &ObservationGrid::tiny(),
        &CurveConfig::default(),
        &THRESHOLD_LADDER,
        0,
    )
}

/// Audits one deployment tree rooted at `root`. Only I/O on the root
/// itself (missing directory, permission failure on the walk) is an
/// `Err`; everything found *inside* the tree — including unreadable or
/// corrupt artifacts — is a diagnostic.
pub fn audit_tree(root: &Path) -> std::io::Result<AnalysisReport> {
    let _span = rsg_obs::span("audit_tree");
    OBS_AUDITS.incr();
    let artifacts = classify(root)?;
    OBS_AUDIT_ARTIFACTS.add(artifacts.len() as u64);
    let mut diagnostics = Vec::new();

    // 1. Platform: the recorded file when the tree ships one, else the
    //    deterministic serving-tier universe.
    let platform_files: Vec<&Artifact> = artifacts
        .iter()
        .filter(|a| a.kind == ArtifactKind::PlatformFile)
        .collect();
    let mut base_platform = None;
    for a in &platform_files {
        match PlatformFile::from_tsv(&a.text) {
            Ok(pf) => {
                if base_platform.is_none() {
                    base_platform = Some(pf.realize());
                } else {
                    diagnostics.push(Diagnostic::warn(
                        Code::Audit002,
                        &a.subject,
                        "tree carries more than one platform file; only the first \
                         (in path order) binds the audit",
                    ));
                }
            }
            Err(e) => {
                diagnostics.push(Diagnostic::error(Code::Audit002, &a.subject, e.to_string()));
            }
        }
    }
    let base_platform = base_platform.unwrap_or_else(|| PlatformFile::serve_default().realize());

    // 2. Models: the registry discovery rule must find a size model, and
    //    every model artifact must decode and pass the MODEL lints.
    diagnostics.extend(lint_models(root, &artifacts, &base_platform));

    // 3. Sweep journals: per-file integrity plus the shard-set
    //    fingerprint agreement no single-file check can do.
    diagnostics.extend(lint_sweep_journals(&artifacts));

    // 4. Delta journals: fingerprint binding, then the sequencer fold
    //    in path order (segments of one stream — cross-journal duplicate
    //    and conflict semantics come free from the sequencer).
    let (fold, delta_diags) = fold_delta_journals(&artifacts, &base_platform);
    diagnostics.extend(delta_diags);

    // 5. Spec corpus: full document lints against the base platform,
    //    then the cross-artifact question — does the *post-fold*
    //    platform still satisfy every spec the corpus commits to?
    diagnostics.extend(lint_spec_corpus(&artifacts, &base_platform, &fold));

    Ok(AnalysisReport { diagnostics })
}

fn lint_models(root: &Path, artifacts: &[Artifact], platform: &Platform) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let model_dir = if root.join("models").is_dir() {
        root.join("models")
    } else {
        root.to_path_buf()
    };
    if discoverable_size_model(&model_dir).is_none() {
        out.push(Diagnostic::error(
            Code::Audit001,
            &relative_subject(root, &model_dir),
            "no size model the registry can discover (size_model.tsv or \
             size_model*.tsv); rsg serve --models on this tree will refuse to boot",
        ));
    }
    for a in artifacts {
        match a.kind {
            ArtifactKind::SizeModel => match rsg_core::persist::load_size_model(&a.path) {
                Ok(model) => out.extend(lint_size_model(&model, platform, &a.subject)),
                Err(e) => out.push(Diagnostic::error(Code::Audit002, &a.subject, e.to_string())),
            },
            ArtifactKind::HeurModel => match rsg_core::persist::load_heuristic_model(&a.path) {
                Ok(model) => out.extend(lint_heuristic_model(&model, &a.subject)),
                Err(e) => out.push(Diagnostic::error(Code::Audit002, &a.subject, e.to_string())),
            },
            ArtifactKind::KneeTables => {
                if let Err(e) = rsg_core::persist::knee_tables_from_tsv(&a.text) {
                    out.push(Diagnostic::error(Code::Audit002, &a.subject, e.to_string()));
                }
            }
            ArtifactKind::DamagedEnvelope => {
                out.push(Diagnostic::error(
                    Code::Audit002,
                    &a.subject,
                    a.text.clone(),
                ));
            }
            _ => {}
        }
    }
    out
}

/// Mirrors `ModelRegistry`'s size-model discovery: exact
/// `size_model.tsv` preferred, else the lexicographically first
/// `size_model*.tsv`.
fn discoverable_size_model(dir: &Path) -> Option<PathBuf> {
    let exact = dir.join("size_model.tsv");
    if exact.is_file() {
        return Some(exact);
    }
    let mut candidates: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.is_file()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("size_model") && n.ends_with(".tsv"))
        })
        .collect();
    candidates.sort();
    candidates.into_iter().next()
}

fn lint_sweep_journals(artifacts: &[Artifact]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut fingerprints: Vec<(String, u64)> = Vec::new();
    for a in artifacts
        .iter()
        .filter(|a| a.kind == ArtifactKind::SweepJournal)
    {
        match SweepJournal::verify(&a.path) {
            Ok((fp, _thetas, good, bad)) => {
                if bad > 0 {
                    out.push(Diagnostic::warn(
                        Code::Audit008,
                        &a.subject,
                        format!(
                            "torn tail: {bad} damaged line(s) after {good} intact cell(s); \
                             resume will truncate them"
                        ),
                    ));
                }
                fingerprints.push((a.subject.clone(), fp));
            }
            Err(e) => out.push(Diagnostic::error(Code::Audit002, &a.subject, e.to_string())),
        }
    }
    // Shard agreement: every sweep journal in one tree must digest the
    // same sweep, or a shard merge will quarantine the stragglers.
    if let Some((first_subject, first_fp)) = fingerprints.first().cloned() {
        for (subject, fp) in fingerprints.iter().skip(1) {
            if *fp != first_fp {
                out.push(Diagnostic::error(
                    Code::Audit003,
                    subject,
                    format!(
                        "sweep fingerprint {fp:016x} disagrees with sibling \
                         {first_subject} ({first_fp:016x}); these shards are not \
                         from the same sweep"
                    ),
                ));
            }
        }
    }
    out
}

fn fold_delta_journals(
    artifacts: &[Artifact],
    base_platform: &Platform,
) -> (DeltaSequencer, Vec<Diagnostic>) {
    let mut out = Vec::new();
    let mut fold = DeltaSequencer::new(base_platform.clone(), CostModel::default());
    let expected_fp = serve_engine_fingerprint();
    let mut last_subject = None;
    for a in artifacts
        .iter()
        .filter(|a| a.kind == ArtifactKind::DeltaJournal)
    {
        let journal = match DeltaJournal::read(&a.path) {
            Ok(j) => j,
            Err(e) => {
                out.push(Diagnostic::error(Code::Audit002, &a.subject, e.to_string()));
                continue;
            }
        };
        let (fp, records) = (journal.fingerprint, journal.records);
        if fp != expected_fp {
            out.push(Diagnostic::error(
                Code::Audit003,
                &a.subject,
                format!(
                    "journal fingerprint {fp:016x} does not bind to the serving \
                     engine ({expected_fp:016x}); rsg serve would quarantine this \
                     journal and lose its history"
                ),
            ));
            continue;
        }
        if journal.damaged > 0 {
            out.push(Diagnostic::warn(
                Code::Audit008,
                &a.subject,
                format!(
                    "torn tail: {} damaged line(s) after {} intact record(s); \
                     boot will truncate them",
                    journal.damaged,
                    records.len()
                ),
            ));
        }
        for rec in &records {
            if rec.delta.saturates_clock_clamp() {
                out.push(Diagnostic::warn(
                    Code::Audit009,
                    &a.subject,
                    format!(
                        "seq {}: clock drift pinned to the physical clamp boundary \
                         ({}); the source is likely clamping an out-of-range reading",
                        rec.seq,
                        rec.delta.to_tsv()
                    ),
                ));
            }
        }
        for (rec, error) in fold.replay(&records).1 {
            let (code, verb) = match error {
                DeltaError::ConflictingSeq(_) => (Code::Audit005, "conflicting redelivery"),
                _ => (Code::Audit006, "invalid record"),
            };
            out.push(Diagnostic::error(
                code,
                &a.subject,
                format!("seq {}: {verb} dropped at boot replay: {error}", rec.seq),
            ));
        }
        last_subject = Some(a.subject.clone());
    }
    if let (Some(subject), Some(missing)) = (last_subject, fold.gap()) {
        out.push(Diagnostic::error(
            Code::Audit004,
            &subject,
            format!(
                "delta stream ends with an open gap: seq {missing} never arrived, \
                 leaving the platform {} update(s) behind (applied through {})",
                fold.staleness().lag,
                fold.staleness().applied_seq
            ),
        ));
    }
    (fold, out)
}

fn lint_spec_corpus(
    artifacts: &[Artifact],
    base_platform: &Platform,
    fold: &DeltaSequencer,
) -> Vec<Diagnostic> {
    let specs: Vec<&Artifact> = artifacts
        .iter()
        .filter(|a| a.kind == ArtifactKind::Spec)
        .collect();
    if specs.is_empty() {
        return Vec::new();
    }
    let inputs: Vec<Input> = specs
        .iter()
        .map(|a| Input::new(&a.subject, &a.text))
        .collect();
    let base = analyze(&inputs, Some(base_platform));
    let mut out = base.diagnostics.clone();
    if fold.staleness().applied_seq == 0 {
        return out; // no delta stream moved the platform
    }
    let folded_platform = fold.platform();
    let folded = analyze(&inputs, Some(folded_platform));
    for d in &folded.diagnostics {
        let satisfiability = matches!(d.code, Code::Spec006 | Code::Spec009);
        // A regression is a satisfiability *error* that the base
        // platform did not produce for the same document under the
        // same code (details carry platform-dependent numbers, so
        // equality on them would misread a changed message as new).
        let regressed = satisfiability
            && d.severity == Severity::Error
            && !base.diagnostics.iter().any(|b| {
                b.code == d.code && b.subject == d.subject && b.severity == Severity::Error
            });
        if regressed {
            out.push(Diagnostic::error(
                Code::Audit007,
                &d.subject,
                format!(
                    "satisfiable against the recorded platform, but not after \
                     folding the delta stream ({} hosts -> {}): {} {}",
                    base_platform.total_hosts(),
                    folded_platform.total_hosts(),
                    d.code,
                    d.detail
                ),
            ));
        }
    }
    out
}
