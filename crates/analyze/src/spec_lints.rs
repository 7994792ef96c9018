//! Spec semantic lint family (`SPEC001`–`SPEC009`): bounds and unit
//! sanity, platform satisfiability, degradation-ladder monotonicity
//! and utility-configuration sanity.

use crate::diag::{Code, Diagnostic};
use crate::specfile::{SpecDoc, SpecRung};
use rsg_core::{ladder_violations, Alternative, ResourceSpec, SpecViolation};
use rsg_platform::Platform;
use rsg_sched::HeuristicKind;
use rsg_select::vgdl::AggregateKind;

/// Maps the core well-formedness rules ([`ResourceSpec::violations`])
/// onto stable diagnostic codes.
pub fn lint_resource_spec(spec: &ResourceSpec, subject: &str) -> Vec<Diagnostic> {
    spec.violations()
        .into_iter()
        .map(|v| {
            let code = match v {
                SpecViolation::ZeroSize => Code::Spec001,
                SpecViolation::MinExceedsSize => Code::Spec002,
                SpecViolation::ClockInverted => Code::Spec003,
                SpecViolation::BadClock | SpecViolation::ZeroMemory => Code::Spec004,
                SpecViolation::ThresholdOutOfRange => Code::Spec005,
            };
            Diagnostic::error(code, subject, v.to_string())
        })
        .collect()
}

/// `SPEC009`: the requested host count exceeds the platform model's
/// *total* host population, before any clock or memory filtering. Such
/// a request can never be bound by any selector on this platform, so
/// the diagnostic is always an error. Unlike `SPEC006` the check does
/// not read the spec's clock window, so it also applies to renderings
/// that omit one.
pub fn lint_population(spec: &ResourceSpec, platform: &Platform, subject: &str) -> Vec<Diagnostic> {
    let population: u64 = platform.clusters().iter().map(|c| u64::from(c.hosts)).sum();
    let needed = u64::from(spec.rc_size.max(spec.min_size));
    if needed > population {
        vec![Diagnostic::error(
            Code::Spec009,
            subject,
            format!(
                "requested {needed} hosts but the platform's total population is \
                 {population} — unsatisfiable regardless of clock or memory constraints"
            ),
        )]
    } else {
        Vec::new()
    }
}

/// `SPEC006`: counts hosts in the platform model that satisfy the
/// spec's clock window and memory floor. Fewer matching hosts than
/// `min_size` is an error (no selector can bind the request); fewer
/// than `rc_size` is a warning (only a degraded bind is possible).
///
/// Fails fast with `SPEC009` alone when the request exceeds the
/// platform's entire population — the per-constraint breakdown is
/// noise once no filter could ever help.
pub fn lint_satisfiability(
    spec: &ResourceSpec,
    platform: &Platform,
    subject: &str,
) -> Vec<Diagnostic> {
    let population = lint_population(spec, platform, subject);
    if !population.is_empty() {
        return population;
    }
    let (lo, hi) = spec.clock_mhz;
    let matching: u64 = platform
        .clusters()
        .iter()
        .filter(|c| c.clock_mhz >= lo && c.clock_mhz <= hi && c.memory_mb >= spec.memory_mb)
        .map(|c| u64::from(c.hosts))
        .sum();
    let mut out = Vec::new();
    if matching < u64::from(spec.min_size) {
        out.push(Diagnostic::error(
            Code::Spec006,
            subject,
            format!(
                "only {matching} platform hosts match clock [{lo}, {hi}] MHz / {} MB — \
                 fewer than the minimum acceptable size {}",
                spec.memory_mb, spec.min_size
            ),
        ));
    } else if matching < u64::from(spec.rc_size) {
        out.push(Diagnostic::warn(
            Code::Spec006,
            subject,
            format!(
                "only {matching} platform hosts match clock [{lo}, {hi}] MHz / {} MB — \
                 fewer than the requested size {}",
                spec.memory_mb, spec.rc_size
            ),
        ));
    }
    out
}

/// Lints one decoded native spec document: per-rung field sanity,
/// utility-config sanity, satisfiability of the original request, and
/// ladder monotonicity across rungs.
pub fn lint_spec_doc(doc: &SpecDoc, subject: &str, platform: Option<&Platform>) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // --- utility configuration (SPEC008) ----------------------------
    if let Some((p, c)) = doc.utility {
        if !p.is_finite() || !c.is_finite() || p < 0.0 || c < 0.0 {
            out.push(Diagnostic::error(
                Code::Spec008,
                subject,
                format!("utility weights ({p}, {c}) must be finite and non-negative"),
            ));
        } else if p == 0.0 && c == 0.0 {
            out.push(Diagnostic::error(
                Code::Spec008,
                subject,
                "utility weights are both zero — every trade-off scores the same",
            ));
        } else if doc.tradeoffs.is_empty() {
            out.push(Diagnostic::warn(
                Code::Spec008,
                subject,
                "utility configured but no trade-off rows to choose from",
            ));
        }
    }
    for (i, &(theta, deg, cost)) in doc.tradeoffs.iter().enumerate() {
        let theta_ok = theta.is_finite() && theta > 0.0 && theta < 1.0;
        let deg_ok = deg.is_finite() && deg >= 0.0;
        let cost_ok = cost.is_finite() && cost > 0.0;
        if !theta_ok || !deg_ok || !cost_ok {
            out.push(Diagnostic::error(
                Code::Spec008,
                subject,
                format!("trade-off row {i} ({theta}, {deg}, {cost}) is out of range"),
            ));
        }
    }

    // --- per-rung field sanity (SPEC001–SPEC005) ---------------------
    let mut all_rungs_convertible = true;
    for (i, rung) in doc.rungs.iter().enumerate() {
        let before = out.len();
        lint_rung(rung, i, subject, &mut out);
        if out[before..].iter().any(|d| d.code != Code::Spec005) {
            // SPEC005 (threshold) does not affect the ladder geometry;
            // anything else makes the converted ladder meaningless.
            all_rungs_convertible = false;
        }
    }

    // --- satisfiability of the original request (SPEC006) ------------
    if let (Some(p), Some(rung)) = (platform, doc.rungs.first()) {
        if let Some(spec) = rung_to_spec(rung) {
            out.extend(lint_satisfiability(&spec, p, subject));
        }
    }

    // --- ladder monotonicity (SPEC007) -------------------------------
    if doc.rungs.len() > 1 && all_rungs_convertible {
        let ladder: Option<Vec<Alternative>> = doc
            .rungs
            .iter()
            .map(|r| {
                rung_to_spec(r).map(|spec| Alternative {
                    spec,
                    degradation: r.degradation,
                    predicted_turnaround_s: r.turnaround_s.unwrap_or(f64::NAN),
                })
            })
            .collect();
        if let Some(ladder) = ladder {
            for v in ladder_violations(&ladder) {
                out.push(Diagnostic::error(Code::Spec007, subject, v));
            }
        }
    }
    out
}

fn lint_rung(rung: &SpecRung, index: usize, subject: &str, out: &mut Vec<Diagnostic>) {
    let at = |field: &str| {
        if index == 0 {
            field.to_string()
        } else {
            format!("rung {index}: {field}")
        }
    };
    let positive = |name: &str, v: f64, out: &mut Vec<Diagnostic>| {
        if !v.is_finite() || v <= 0.0 {
            out.push(Diagnostic::error(
                Code::Spec004,
                subject,
                format!("{} is {v}, expected a positive finite value", at(name)),
            ));
            false
        } else {
            true
        }
    };
    match rung.size {
        None => out.push(Diagnostic::error(
            Code::Spec004,
            subject,
            at("size is missing"),
        )),
        Some(0.0) => out.push(Diagnostic::error(
            Code::Spec001,
            subject,
            at("requested RC size is zero"),
        )),
        Some(v) => {
            positive("size", v, out);
        }
    }
    if let Some(min) = rung.min_size {
        if positive("min", min, out) {
            if let Some(size) = rung.size {
                if size.is_finite() && min > size {
                    out.push(Diagnostic::error(
                        Code::Spec002,
                        subject,
                        format!(
                            "{} ({min} > {size})",
                            at("minimum size exceeds the request")
                        ),
                    ));
                }
            }
        }
    }
    if let Some((lo, hi)) = rung.clock {
        let lo_ok = positive("clock min", lo, out);
        let hi_ok = positive("clock max", hi, out);
        if lo_ok && hi_ok && lo > hi {
            out.push(Diagnostic::error(
                Code::Spec003,
                subject,
                format!("{} ({lo} > {hi})", at("clock range is inverted")),
            ));
        }
    }
    if let Some(mem) = rung.memory_mb {
        positive("memory", mem, out);
    }
    if let Some(t) = rung.turnaround_s {
        positive("turnaround", t, out);
    }
    if let Some(h) = &rung.heuristic {
        if HeuristicKind::parse(h).is_none() {
            out.push(Diagnostic::error(
                Code::Spec004,
                subject,
                format!("{} '{h}'", at("unknown heuristic")),
            ));
        }
    }
    if let Some(a) = &rung.aggregate {
        if parse_aggregate(a).is_none() {
            out.push(Diagnostic::error(
                Code::Spec004,
                subject,
                format!("{} '{a}'", at("unknown aggregate kind")),
            ));
        }
    }
    if let Some(t) = rung.threshold {
        if !t.is_finite() || t <= 0.0 || t >= 1.0 {
            out.push(Diagnostic::error(
                Code::Spec005,
                subject,
                format!("{} is {t}, expected a fraction in (0, 1)", at("threshold")),
            ));
        }
    }
}

/// Parses an aggregate keyword (case-insensitive).
pub fn parse_aggregate(s: &str) -> Option<AggregateKind> {
    [
        AggregateKind::LooseBagOf,
        AggregateKind::TightBagOf,
        AggregateKind::ClusterOf,
    ]
    .into_iter()
    .find(|k| k.keyword().eq_ignore_ascii_case(s))
}

/// Best-effort conversion of a rung into a concrete [`ResourceSpec`]
/// (defaults fill the gaps); `None` when the numeric fields are too
/// broken to represent.
pub fn rung_to_spec(rung: &SpecRung) -> Option<ResourceSpec> {
    let size = rung.size?;
    if !size.is_finite() || size < 0.0 {
        return None;
    }
    let size = size as u32;
    let min = match rung.min_size {
        Some(m) if m.is_finite() && m >= 0.0 => m as u32,
        Some(_) => return None,
        None => size,
    };
    let clock = rung.clock.unwrap_or((3500.0, 3500.0));
    Some(ResourceSpec {
        rc_size: size,
        min_size: min,
        clock_mhz: clock,
        heuristic: rung
            .heuristic
            .as_deref()
            .and_then(HeuristicKind::parse)
            .unwrap_or(HeuristicKind::Mcp),
        aggregate: rung
            .aggregate
            .as_deref()
            .and_then(parse_aggregate)
            .unwrap_or(AggregateKind::TightBagOf),
        threshold: rung.threshold.unwrap_or(rsg_core::DEFAULT_KNEE_THRESHOLD),
        memory_mb: rung.memory_mb.map_or(512, |m| m as u32),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specfile::parse_spec_doc;
    use rsg_platform::{Platform, PlatformFile};

    fn platform() -> Platform {
        PlatformFile::serve_default().realize()
    }

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_doc_is_clean() {
        let doc = parse_spec_doc(
            "rsg-spec v1\nutility 1.0 0.1\ntradeoff 0.001 0.0 1.0\ntradeoff 0.05 0.04 0.6\n\
             rung none 1200\nsize 20\nmin 5\nclock 1000 3600\nheuristic MCP\n\
             aggregate TightBagOf\nthreshold 0.001\nmemory 512\nend\n\
             rung smaller-size 1400\nsize 12\nmin 5\nclock 1000 3600\nheuristic MCP\n\
             aggregate TightBagOf\nthreshold 0.05\nmemory 512\nend\n",
        )
        .unwrap();
        let diags = lint_spec_doc(&doc, "s", Some(&platform()));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn field_defects_map_to_codes() {
        let doc = parse_spec_doc(
            "rsg-spec v1\nsize 0\nmin 9\nclock 3600 1000\nthreshold 2.0\nmemory -5\nend\n",
        )
        .unwrap();
        let diags = lint_spec_doc(&doc, "s", None);
        let cs = codes(&diags);
        assert!(cs.contains(&Code::Spec001), "{diags:?}");
        assert!(cs.contains(&Code::Spec003), "{diags:?}");
        assert!(cs.contains(&Code::Spec004), "{diags:?}");
        assert!(cs.contains(&Code::Spec005), "{diags:?}");
        // min 9 > size 0 is masked by SPEC001 semantics but still
        // reported against the finite size.
        let doc2 = parse_spec_doc("rsg-spec v1\nsize 4\nmin 9\nend\n").unwrap();
        assert!(codes(&lint_spec_doc(&doc2, "s", None)).contains(&Code::Spec002));
    }

    #[test]
    fn unsatisfiable_clock_window_is_spec006() {
        let doc = parse_spec_doc("rsg-spec v1\nsize 20\nmin 5\nclock 10000 20000\nend\n").unwrap();
        let diags = lint_spec_doc(&doc, "s", Some(&platform()));
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::Spec006 && d.severity == crate::diag::Severity::Error),
            "{diags:?}"
        );
        // Without a platform model the check is skipped.
        assert!(!codes(&lint_spec_doc(&doc, "s", None)).contains(&Code::Spec006));
    }

    #[test]
    fn population_ceiling_is_spec009_and_fails_fast() {
        // 10000 hosts against a 1200-host platform: SPEC009, and only
        // SPEC009 — the per-constraint SPEC006 breakdown is suppressed.
        let doc = parse_spec_doc("rsg-spec v1\nsize 10000\nmin 5\nclock 1000 4000\nend\n").unwrap();
        let diags = lint_spec_doc(&doc, "s", Some(&platform()));
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::Spec009 && d.severity == crate::diag::Severity::Error),
            "{diags:?}"
        );
        assert!(!codes(&diags).contains(&Code::Spec006), "{diags:?}");
        // A request within the population is judged by SPEC006 alone.
        let doc2 = parse_spec_doc("rsg-spec v1\nsize 20\nmin 5\nclock 1000 4000\nend\n").unwrap();
        assert!(!codes(&lint_spec_doc(&doc2, "s", Some(&platform()))).contains(&Code::Spec009));
        // The standalone check reads only the size fields.
        let spec = rung_to_spec(
            &parse_spec_doc("rsg-spec v1\nsize 2000\nend\n")
                .unwrap()
                .rungs[0],
        )
        .unwrap();
        assert_eq!(
            codes(&lint_population(&spec, &platform(), "s")),
            [Code::Spec009]
        );
    }

    #[test]
    fn broken_ladder_is_spec007() {
        // Second rung is *larger* than the original and its turnaround
        // is better — neither strictly weaker nor ordered.
        let doc = parse_spec_doc(
            "rsg-spec v1\nrung none 1200\nsize 20\nclock 1000 3600\nend\n\
             rung smaller-size 900\nsize 30\nclock 1000 3600\nend\n",
        )
        .unwrap();
        let diags = lint_spec_doc(&doc, "s", None);
        assert!(codes(&diags).contains(&Code::Spec007), "{diags:?}");
    }

    #[test]
    fn bad_utility_is_spec008() {
        let doc =
            parse_spec_doc("rsg-spec v1\nutility -1 0.5\ntradeoff 2.0 0.0 1.0\nsize 5\nend\n")
                .unwrap();
        let diags = lint_spec_doc(&doc, "s", None);
        assert_eq!(
            codes(&diags)
                .iter()
                .filter(|c| **c == Code::Spec008)
                .count(),
            2
        );
    }

    #[test]
    fn generated_specs_lint_clean_by_construction() {
        let spec = ResourceSpec {
            rc_size: 20,
            min_size: 5,
            clock_mhz: (1000.0, 3600.0),
            heuristic: HeuristicKind::Mcp,
            aggregate: AggregateKind::TightBagOf,
            threshold: 0.001,
            memory_mb: 512,
        };
        assert!(lint_resource_spec(&spec, "s").is_empty());
        assert!(lint_satisfiability(&spec, &platform(), "s").is_empty());
    }
}
