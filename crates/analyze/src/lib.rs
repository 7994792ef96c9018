//! # rsg-analyze — static analysis for specs, DAGs and their renderings
//!
//! The paper's pipeline ends by *emitting* a resource specification in
//! three real languages (vgDL, Condor ClassAds, SWORD XML); this crate
//! is the correctness tooling for those artifacts. It runs three lint
//! families over any mix of input documents and produces typed,
//! machine-readable diagnostics with stable codes:
//!
//! * **DAG lints** (`DAG001`–`DAG005`) — cycles as diagnostics instead
//!   of panics, malformed structure, invalid weights, orphan tasks,
//!   and requested-size-vs-width degeneracy.
//! * **Spec lints** (`SPEC001`–`SPEC009`) — bounds/unit sanity,
//!   platform satisfiability (including the population ceiling),
//!   degradation-ladder monotonicity, utility-config sanity.
//! * **Cross-language analysis** (`XLANG001`–`XLANG003`) — every
//!   document is reduced to a [`SpecView`]; views from co-analyzed
//!   documents must agree on shared fields, and each view must be a
//!   fixed point of render→parse in its own language.
//!
//! Parse failures are themselves diagnostics (`PARSE001`–`PARSE005`),
//! so one defective file never aborts the analysis of the rest.
//!
//! Reports render as JSON, TSV or a human table (see
//! [`AnalysisReport`]), mirroring the `rsg-obs` report formats.

#![warn(missing_docs)]

pub mod artifact_lints;
pub mod audit;
pub mod dag_lints;
pub mod delta;
pub mod diag;
pub mod model_lints;
pub mod spec_lints;
pub mod specfile;
pub mod xlang;

pub use artifact_lints::{classify, Artifact, ArtifactKind};
pub use audit::{audit_tree, serve_engine_fingerprint};
pub use dag_lints::lint_dag;
pub use delta::{code_for, lint_delta_batch, DeltaCode, DeltaDiagnostic};
pub use diag::{AnalysisReport, Code, Diagnostic, Severity};
pub use model_lints::{lint_heuristic_model, lint_size_model};
pub use spec_lints::{lint_population, lint_resource_spec, lint_satisfiability, lint_spec_doc};
pub use specfile::{parse_spec_doc, write_spec_doc, SpecDoc, SpecFileError, SpecRung};
pub use xlang::{
    expected_view, lint_roundtrip, lint_spec_roundtrip, lint_view, view_divergences, SpecLang,
    SpecView,
};

use rsg_dag::io::RawDag;
use rsg_dag::Dag;
use rsg_obs::Counter;
use rsg_platform::Platform;
use rsg_select::classad::parse_classad;
use rsg_select::sword::parse_sword;
use rsg_select::vgdl::parse_vgdl;

static OBS_INPUTS: Counter = Counter::new("analyze.inputs");
static OBS_DIAGS: Counter = Counter::new("analyze.diagnostics");

/// What kind of document an input holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceKind {
    /// `rsg-dag v1` workflow file.
    Dag,
    /// Native `rsg-spec v1` file.
    NativeSpec,
    /// vgDL text.
    Vgdl,
    /// Condor ClassAd.
    ClassAd,
    /// SWORD XML.
    Sword,
}

/// Sniffs the document kind from its content: the two native formats
/// carry headers, SWORD is the only XML dialect, ClassAds open with
/// `[`, and anything else is treated as vgDL (whose parser reports
/// precise errors for non-vgDL text).
pub fn sniff_kind(text: &str) -> SourceKind {
    let t = text.trim_start();
    if t.starts_with("rsg-dag") {
        SourceKind::Dag
    } else if t.starts_with("rsg-spec") {
        SourceKind::NativeSpec
    } else if t.starts_with('<') {
        SourceKind::Sword
    } else if t.starts_with('[') {
        SourceKind::ClassAd
    } else {
        SourceKind::Vgdl
    }
}

/// One named input document.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    /// Display name (file name).
    pub name: String,
    /// Document text.
    pub text: String,
}

impl Input {
    /// Convenience constructor.
    pub fn new(name: &str, text: &str) -> Input {
        Input {
            name: name.to_string(),
            text: text.to_string(),
        }
    }
}

/// Analyzes a batch of documents together.
///
/// All spec documents in one invocation are treated as renderings of
/// the *same* request: their views are compared pairwise (`XLANG002`),
/// and each spec's requested size is checked against the width of the
/// DAGs analyzed alongside it (`DAG005`). Pass a [`Platform`] to
/// enable the satisfiability lints (`SPEC006`).
pub fn analyze(inputs: &[Input], platform: Option<&Platform>) -> AnalysisReport {
    let _span = rsg_obs::span("analyze/run");

    let mut diagnostics = Vec::new();
    // Views of every spec document, with their subject, for the
    // cross-document comparisons.
    let mut views: Vec<(String, SpecView)> = Vec::new();
    // Maximum DAG width seen, for DAG005.
    let mut max_width: Option<u32> = None;

    for input in inputs {
        OBS_INPUTS.incr();
        let subject = input.name.as_str();
        match sniff_kind(&input.text) {
            SourceKind::Dag => {
                if let Some((_, Some(w))) = lint_dag_text(&input.text, subject, &mut diagnostics) {
                    max_width = Some(max_width.map_or(w, |m| m.max(w)));
                }
            }
            SourceKind::NativeSpec => match parse_spec_doc(&input.text) {
                Ok(doc) => {
                    diagnostics.extend(lint_spec_doc(&doc, subject, platform));
                    if let Some(rung) = doc.rungs.first() {
                        views.push((input.name.clone(), rung_view(rung)));
                    }
                }
                Err(e) => {
                    diagnostics.push(Diagnostic::error(Code::Parse005, subject, e.to_string()));
                }
            },
            SourceKind::Vgdl => match parse_vgdl(&input.text) {
                Ok(spec) => {
                    let view = xlang::view_from_vgdl(&spec, subject, &mut diagnostics);
                    diagnostics.extend(lint_view(&view, subject));
                    diagnostics.extend(lint_roundtrip(&view, SpecLang::Vgdl, subject));
                    lint_view_satisfiability(&view, platform, subject, &mut diagnostics);
                    views.push((input.name.clone(), view));
                }
                Err(e) => {
                    diagnostics.push(Diagnostic::error(Code::Parse001, subject, e.to_string()));
                }
            },
            SourceKind::ClassAd => match parse_classad(&input.text) {
                Ok(ad) => {
                    let view = xlang::view_from_classad(&ad, subject, &mut diagnostics);
                    diagnostics.extend(lint_view(&view, subject));
                    diagnostics.extend(lint_roundtrip(&view, SpecLang::ClassAd, subject));
                    lint_view_satisfiability(&view, platform, subject, &mut diagnostics);
                    views.push((input.name.clone(), view));
                }
                Err(e) => {
                    diagnostics.push(Diagnostic::error(Code::Parse002, subject, e.to_string()));
                }
            },
            SourceKind::Sword => match parse_sword(&input.text) {
                Ok(req) => {
                    let view = xlang::view_from_sword(&req, subject, &mut diagnostics);
                    diagnostics.extend(lint_view(&view, subject));
                    diagnostics.extend(lint_roundtrip(&view, SpecLang::Sword, subject));
                    lint_view_satisfiability(&view, platform, subject, &mut diagnostics);
                    views.push((input.name.clone(), view));
                }
                Err(e) => {
                    diagnostics.push(Diagnostic::error(Code::Parse003, subject, e.to_string()));
                }
            },
        }
    }

    // --- DAG005: requested size vs. co-analyzed DAG width ------------
    if let Some(width) = max_width {
        for (name, view) in &views {
            if let Some(size) = view.size {
                if size.is_finite() && size > f64::from(width) {
                    diagnostics.push(Diagnostic::warn(
                        Code::Dag005,
                        name,
                        format!(
                            "requested RC size {size} exceeds the maximum DAG width {width} — \
                             the extra hosts can never run in parallel"
                        ),
                    ));
                }
            }
        }
    }

    // --- XLANG002: pairwise view agreement ---------------------------
    for i in 0..views.len() {
        for j in (i + 1)..views.len() {
            let (na, va) = &views[i];
            let (nb, vb) = &views[j];
            for (field, left, right) in view_divergences(va, vb) {
                diagnostics.push(Diagnostic::error(
                    Code::Xlang002,
                    na,
                    format!("{field} diverges: {left} here, {right} in {nb}"),
                ));
            }
        }
    }

    OBS_DIAGS.add(diagnostics.len() as u64);
    AnalysisReport { diagnostics }
}

/// Analyzes one `rsg-dag v1` document and builds its [`Dag`]: the text
/// is decoded once, linted, and the [`Dag`] is built from that same
/// decoded document. The [`Dag`] is returned exactly when no
/// error-level diagnostic was found.
pub fn analyze_dag(text: &str, subject: &str) -> (Vec<Diagnostic>, Option<Dag>) {
    let _span = rsg_obs::span("analyze/run");
    OBS_INPUTS.incr();
    let mut diagnostics = Vec::new();
    // The lints refuse every document the builder refuses, so a clean
    // document always builds (tests/dag_ingest.rs holds them to it).
    let dag = lint_dag_text(text, subject, &mut diagnostics)
        .filter(|_| !diagnostics.iter().any(|d| d.severity == Severity::Error))
        .and_then(|(raw, _)| raw.build().ok());
    OBS_DIAGS.add(diagnostics.len() as u64);
    (diagnostics, dag)
}

/// Decodes and lints one DAG document, appending the findings to
/// `out` (a decode failure is `PARSE004`). Returns the decoded
/// document and its level width when it decoded.
fn lint_dag_text(
    text: &str,
    subject: &str,
    out: &mut Vec<Diagnostic>,
) -> Option<(RawDag, Option<u32>)> {
    match rsg_dag::io::read_dag_raw(text) {
        Ok(raw) => {
            let (diags, width) = lint_dag(&raw, subject);
            out.extend(diags);
            Some((raw, width))
        }
        Err(e) => {
            out.push(Diagnostic::error(Code::Parse004, subject, e.to_string()));
            None
        }
    }
}

/// SPEC006/SPEC009 for a view, when it expresses enough to check.
fn lint_view_satisfiability(
    view: &SpecView,
    platform: Option<&Platform>,
    subject: &str,
    out: &mut Vec<Diagnostic>,
) {
    let Some(platform) = platform else { return };
    if view.size.is_none() {
        return;
    }
    // Only check views whose numerics are sane; the sanity lints
    // already reported the rest.
    if !lint_view(view, subject).is_empty() {
        return;
    }
    let spec = xlang::view_to_spec(view);
    if view.clock_lo.is_none() {
        // No clock window: the per-constraint SPEC006 breakdown cannot
        // run, but the population ceiling (SPEC009) does not depend on
        // it.
        out.extend(spec_lints::lint_population(&spec, platform, subject));
    } else {
        out.extend(lint_satisfiability(&spec, platform, subject));
    }
}

/// The view a native spec rung presents to the cross-language
/// comparison.
fn rung_view(rung: &SpecRung) -> SpecView {
    SpecView {
        size: rung.size,
        min_size: rung.min_size,
        clock_lo: rung.clock.map(|c| c.0),
        clock_hi: rung.clock.map(|c| c.1),
        memory_mb: rung.memory_mb,
        heuristic: rung.heuristic.clone(),
        aggregate: rung.aggregate.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN_DAG: &str = "rsg-dag v1\ntask 0 1.0\ntask 1 2.0\ntask 2 2.0\ntask 3 1.0\n\
                             edge 0 1 0.5\nedge 0 2 0.5\nedge 1 3 0.2\nedge 2 3 0.2\nend\n";

    #[test]
    fn sniffing() {
        assert_eq!(sniff_kind(CLEAN_DAG), SourceKind::Dag);
        assert_eq!(
            sniff_kind("rsg-spec v1\nsize 5\nend\n"),
            SourceKind::NativeSpec
        );
        assert_eq!(sniff_kind("  <request></request>"), SourceKind::Sword);
        assert_eq!(sniff_kind("[ Count = 5 ]"), SourceKind::ClassAd);
        assert_eq!(
            sniff_kind("VG = TightBagOf(n) [1:2] { n = [ Clock >= 1 ] }"),
            SourceKind::Vgdl
        );
    }

    #[test]
    fn clean_batch_is_clean() {
        let spec = rsg_core::ResourceSpec {
            rc_size: 2,
            min_size: 1,
            clock_mhz: (1000.0, 3600.0),
            heuristic: rsg_sched::HeuristicKind::Mcp,
            aggregate: rsg_select::vgdl::AggregateKind::TightBagOf,
            threshold: 0.001,
            memory_mb: 512,
        };
        let inputs = [
            Input::new("w.dag", CLEAN_DAG),
            Input::new(
                "s.vgdl",
                &rsg_core::SpecGenerator::to_vgdl(&spec).to_string(),
            ),
            Input::new(
                "s.classad",
                &rsg_core::SpecGenerator::to_classad(&spec).to_string(),
            ),
            Input::new(
                "s.xml",
                &rsg_select::sword::write_sword(&rsg_core::SpecGenerator::to_sword(&spec)),
            ),
        ];
        let report = analyze(&inputs, None);
        assert!(report.is_clean(), "{:?}", report.diagnostics);
    }

    #[test]
    fn oversized_spec_against_narrow_dag_warns_dag005() {
        let report = analyze(
            &[
                Input::new("w.dag", CLEAN_DAG),
                Input::new(
                    "s.spec",
                    "rsg-spec v1\nsize 64\nmin 2\nclock 1000 3600\nend\n",
                ),
            ],
            None,
        );
        assert!(
            report.diagnostics.iter().any(|d| d.code == Code::Dag005),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn divergent_renderings_trip_xlang002() {
        let report = analyze(
            &[
                Input::new(
                    "a.classad",
                    "[ Count = 20; Requirements = other.Clock >= 1000 ]",
                ),
                Input::new(
                    "b.classad",
                    "[ Count = 32; Requirements = other.Clock >= 1000 ]",
                ),
            ],
            None,
        );
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == Code::Xlang002 && d.detail.contains("size")),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    fn parse_failures_become_diagnostics() {
        let report = analyze(
            &[
                Input::new("bad.dag", "rsg-dag v1\ntask zero\nend\n"),
                Input::new("bad.spec", "rsg-spec v1\nwat 1\nend\n"),
                Input::new("bad.vgdl", "WeirdBagOf(x) [1:2] { x = [ Clock >= 1 ] }"),
                Input::new("bad.classad", "[ Count = ; ]"),
                Input::new("bad.xml", "<request><group></request>"),
            ],
            None,
        );
        let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
        for c in [
            Code::Parse001,
            Code::Parse002,
            Code::Parse003,
            Code::Parse004,
            Code::Parse005,
        ] {
            assert!(codes.contains(&c), "missing {c} in {codes:?}");
        }
    }
}
