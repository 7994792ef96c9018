//! `MODEL00x` lints: sanity of trained prediction models, checked
//! against the deployment's platform.
//!
//! A model file can be perfectly well-formed TSV — checksummed, typed,
//! decodable — and still be garbage: a planar fit that exploded on a
//! degenerate sample, a threshold ladder whose rungs predict in the
//! wrong order, axes that never sort, knees far beyond any host count
//! the platform can muster. The store cannot see any of that (it
//! checks bytes), and the paper's training path will not either when a
//! future knob distorts its inputs. These lints are the auditor's
//! opinion of the *numbers*.

use crate::diag::{Code, Diagnostic};
use rsg_core::{HeuristicPredictionModel, SizePredictionModel, ThresholdedSizeModel};
use rsg_platform::Platform;

/// Largest |coefficient| a planar fit may carry before the predicted
/// knee (`2^(a·α+b·β+c)`) stops being a host count and starts being a
/// cosmology. 2^64 hosts is already beyond any grid.
const MAX_PLANE_COEFF: f64 = 64.0;

/// Relative tolerance for ladder monotonicity: independent per-θ fits
/// wobble a little (a trained fast-grid model inverts adjacent rungs
/// by a few percent at the extrapolation corners), so only a violation
/// beyond this ratio *and* [`MONOTONE_MIN_HOSTS`] absolute hosts is
/// reported.
const MONOTONE_TOLERANCE: f64 = 0.5;

/// Absolute floor for a monotonicity violation: inversions of a host
/// or two at sub-handful knees are fit noise, not a defective ladder.
const MONOTONE_MIN_HOSTS: f64 = 4.0;

/// The four corners of the (α, β) characteristic square — the extreme
/// inputs a plane will ever be evaluated at.
const CHAR_CORNERS: [(f64, f64); 4] = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)];

/// Lints one thresholded size model against the deployment platform.
/// Emits `MODEL001` (coefficient sanity), `MODEL002` (ladder
/// monotonicity), `MODEL003` (axis coverage) and `MODEL004`
/// (extrapolation past the platform population).
pub fn lint_size_model(
    model: &ThresholdedSizeModel,
    platform: &Platform,
    subject: &str,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut coeffs_ok = true;
    for m in &model.models {
        let (sizes, ccrs) = m.axes();
        out.extend(lint_axis(sizes, "sizes", m.theta, subject));
        out.extend(lint_axis(ccrs, "ccrs", m.theta, subject));
        for si in 0..sizes.len() {
            for ci in 0..ccrs.len() {
                let p = m.plane(si, ci);
                for (name, v) in [("a", p.a), ("b", p.b), ("c", p.c)] {
                    if !v.is_finite() || v.abs() > MAX_PLANE_COEFF {
                        coeffs_ok = false;
                        out.push(Diagnostic::error(
                            Code::Model001,
                            subject,
                            format!(
                                "theta {}: plane fit at cell ({si}, {ci}) has \
                                 coefficient {name} = {v} (|{name}| must be finite \
                                 and <= {MAX_PLANE_COEFF})",
                                m.theta
                            ),
                        ));
                    }
                }
            }
        }
    }

    // Ladder order: duplicated or unsorted thresholds break the
    // strictest-first contract every consumer relies on.
    for pair in model.models.windows(2) {
        if pair[1].theta <= pair[0].theta {
            out.push(Diagnostic::error(
                Code::Model002,
                subject,
                format!(
                    "threshold ladder is not strictly ascending: theta {} follows {}",
                    pair[1].theta, pair[0].theta
                ),
            ));
        }
    }

    // With sane coefficients, a stricter threshold (smaller θ) must
    // never predict *fewer* hosts than a looser one on the same cell —
    // degradation tolerance only ever relaxes the knee.
    if coeffs_ok {
        out.extend(lint_ladder_monotone(model, subject));
        out.extend(lint_extrapolation(model, platform, subject));
    }
    out
}

fn lint_axis(axis: &[f64], name: &str, theta: f64, subject: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if axis.is_empty() {
        out.push(Diagnostic::error(
            Code::Model003,
            subject,
            format!("theta {theta}: {name} axis is empty"),
        ));
        return out;
    }
    for v in axis {
        if !v.is_finite() || *v <= 0.0 {
            out.push(Diagnostic::error(
                Code::Model003,
                subject,
                format!("theta {theta}: {name} axis carries non-positive value {v}"),
            ));
            return out;
        }
    }
    if axis.windows(2).any(|w| w[1] <= w[0]) {
        out.push(Diagnostic::error(
            Code::Model003,
            subject,
            format!(
                "theta {theta}: {name} axis is not strictly ascending ({axis:?}); \
                 interpolation between its cells is undefined"
            ),
        ));
    } else if axis.len() == 1 {
        out.push(Diagnostic::warn(
            Code::Model003,
            subject,
            format!(
                "theta {theta}: {name} axis has a single point; every query \
                 degenerates to that cell"
            ),
        ));
    }
    out
}

fn lint_ladder_monotone(model: &ThresholdedSizeModel, subject: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for pair in model.models.windows(2) {
        let (strict, loose) = (&pair[0], &pair[1]);
        if loose.theta <= strict.theta {
            continue; // already reported as a ladder-order error
        }
        if let Some((alpha, beta, ks, kl)) = monotone_violation(strict, loose) {
            out.push(Diagnostic::warn(
                Code::Model002,
                subject,
                format!(
                    "theta {} predicts {ks:.1} hosts but looser theta {} predicts \
                     {kl:.1} at (alpha {alpha}, beta {beta}); a larger degradation \
                     tolerance must never need more hosts",
                    strict.theta, loose.theta
                ),
            ));
        }
    }
    out
}

/// The worst monotonicity violation between two rungs over the shared
/// grid corners, if any exceeds the tolerance.
fn monotone_violation(
    strict: &SizePredictionModel,
    loose: &SizePredictionModel,
) -> Option<(f64, f64, f64, f64)> {
    let (sizes, ccrs) = strict.axes();
    let mut worst: Option<(f64, f64, f64, f64)> = None;
    let mut worst_ratio = 1.0 + MONOTONE_TOLERANCE;
    for &n in sizes {
        for &ccr in ccrs {
            for &(alpha, beta) in &CHAR_CORNERS {
                let ks = strict.predict_chars(n, ccr, alpha, beta);
                let kl = loose.predict_chars(n, ccr, alpha, beta);
                if kl > ks * (1.0 + MONOTONE_TOLERANCE)
                    && kl - ks > MONOTONE_MIN_HOSTS
                    && kl / ks > worst_ratio
                {
                    worst_ratio = kl / ks;
                    worst = Some((alpha, beta, ks, kl));
                }
            }
        }
    }
    worst
}

fn lint_extrapolation(
    model: &ThresholdedSizeModel,
    platform: &Platform,
    subject: &str,
) -> Vec<Diagnostic> {
    let population = platform.total_hosts() as f64;
    let mut max_knee = 0.0f64;
    let mut where_ = (0.0, 0.0);
    let strict = model.strictest();
    let (sizes, ccrs) = strict.axes();
    for &n in sizes {
        for &ccr in ccrs {
            for &(alpha, beta) in &CHAR_CORNERS {
                let k = strict.predict_chars(n, ccr, alpha, beta);
                if k > max_knee {
                    max_knee = k;
                    where_ = (n, ccr);
                }
            }
        }
    }
    if max_knee > population {
        vec![Diagnostic::warn(
            Code::Model004,
            subject,
            format!(
                "strictest model can recommend up to {max_knee:.0} hosts (at size \
                 {}, ccr {}) but the platform holds only {population:.0}; those \
                 specs will be clamped or unsatisfiable",
                where_.0, where_.1
            ),
        )]
    } else {
        Vec::new()
    }
}

/// Lints a heuristic model's grid axes (`MODEL003`). Its cell payloads
/// are label data with no numeric invariants worth opining on beyond
/// what the decoder already enforces.
pub fn lint_heuristic_model(model: &HeuristicPredictionModel, subject: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let sizes: Vec<f64> = model.sizes.iter().map(|&s| s as f64).collect();
    out.extend(lint_axis(&sizes, "sizes", f64::NAN, subject));
    out.extend(lint_axis(&model.ccrs, "ccrs", f64::NAN, subject));
    // The NaN theta placeholder reads poorly; rewrite the prefix.
    for d in &mut out {
        d.detail = d.detail.replace("theta NaN: ", "").trim_start().to_string();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsg_core::PlaneFit;
    use rsg_platform::PlatformFile;

    fn platform() -> Platform {
        PlatformFile::serve_default().realize()
    }

    fn model(theta: f64, c: f64) -> SizePredictionModel {
        let fits = vec![PlaneFit { a: 1.0, b: 0.5, c }; 4];
        SizePredictionModel::from_parts(theta, vec![100.0, 300.0], vec![0.1, 0.5], fits)
    }

    #[test]
    fn sane_model_is_clean() {
        let m = ThresholdedSizeModel {
            models: vec![model(0.001, 5.0), model(0.05, 4.0)],
        };
        assert!(lint_size_model(&m, &platform(), "m.tsv").is_empty());
    }

    #[test]
    fn nan_coefficient_trips_model001_and_gates_the_rest() {
        let mut bad = model(0.001, f64::NAN);
        let _ = &mut bad;
        let m = ThresholdedSizeModel { models: vec![bad] };
        let diags = lint_size_model(&m, &platform(), "m.tsv");
        assert!(diags.iter().any(|d| d.code == Code::Model001));
        assert!(diags.iter().all(|d| d.code != Code::Model004));
    }

    #[test]
    fn inverted_ladder_trips_model002() {
        let m = ThresholdedSizeModel {
            models: vec![model(0.001, 4.0), model(0.05, 6.0)],
        };
        let diags = lint_size_model(&m, &platform(), "m.tsv");
        assert!(diags.iter().any(|d| d.code == Code::Model002), "{diags:?}");
    }

    #[test]
    fn unsorted_axis_trips_model003() {
        let fits = vec![
            PlaneFit {
                a: 1.0,
                b: 0.5,
                c: 5.0
            };
            4
        ];
        let m = ThresholdedSizeModel {
            models: vec![SizePredictionModel::from_parts(
                0.001,
                vec![300.0, 100.0],
                vec![0.1, 0.5],
                fits,
            )],
        };
        let diags = lint_size_model(&m, &platform(), "m.tsv");
        assert!(diags.iter().any(|d| d.code == Code::Model003));
    }

    #[test]
    fn oversized_knee_trips_model004() {
        let m = ThresholdedSizeModel {
            models: vec![model(0.001, 14.0)],
        };
        let diags = lint_size_model(&m, &platform(), "m.tsv");
        assert!(
            diags.iter().any(|d| d.code == Code::Model004),
            "2^(14+1.5) hosts must exceed 1200: {diags:?}"
        );
    }
}
