//! Fixture-corpus tests for the static analyzer: the committed clean
//! corpus must analyze without findings, the seeded-defect corpus must
//! trip every diagnostic code at least once, and the defect report must
//! match its golden JSON/TSV snapshots byte-for-byte.
//!
//! Regenerate the goldens after an intentional analyzer change with
//! `RSG_UPDATE_GOLDEN=1 cargo test --test lint_corpus`.

use rsg::analyze::{analyze, AnalysisReport, Code, Input};
use rsg::platform::{Platform, PlatformFile};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/lint")
}

/// Loads a corpus directory in sorted file-name order (the order is
/// part of the golden output: XLANG002 attaches to the first document
/// of a divergent pair).
fn corpus(dir: &str) -> Vec<Input> {
    let root = fixture_root().join(dir);
    let mut names: Vec<String> = std::fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("{}: {e}", root.display()))
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(!names.is_empty(), "empty corpus {dir}");
    names
        .into_iter()
        .map(|n| Input::new(&n, &std::fs::read_to_string(root.join(&n)).unwrap()))
        .collect()
}

/// The same deterministic 2006-era platform `rsg lint --platform` uses.
fn platform() -> Platform {
    PlatformFile::serve_default().realize()
}

fn defect_report() -> AnalysisReport {
    analyze(&corpus("defect"), Some(&platform()))
}

#[test]
fn clean_corpus_is_clean() {
    let report = analyze(&corpus("clean"), Some(&platform()));
    assert!(report.is_clean(), "{:?}", report.diagnostics);
}

#[test]
fn defect_corpus_trips_every_code() {
    let report = defect_report();
    let tripped = report.codes();
    for code in Code::ALL {
        // AUDIT/MODEL codes need a deployment *tree*, not a document
        // corpus; tests/audit_corpus.rs owns their coverage.
        if matches!(code.family(), "AUDIT" | "MODEL") {
            continue;
        }
        assert!(
            tripped.contains(&code),
            "{code} never tripped; got {tripped:?}"
        );
    }
    assert!(report.errors() > 0, "defect corpus must exit non-zero");
}

/// Each defect file is named after the code it seeds; the analyzer must
/// attribute that code to that file.
#[test]
fn defect_files_trip_their_named_code() {
    let report = defect_report();
    for input in corpus("defect") {
        let prefix = input.name.split('_').next().unwrap();
        let code = Code::ALL
            .into_iter()
            .find(|c| c.as_str() == prefix)
            .unwrap_or_else(|| panic!("{}: unknown code prefix", input.name));
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == code && d.subject == input.name),
            "{} did not trip {code}: {:?}",
            input.name,
            report.diagnostics
        );
    }
}

fn check_golden(name: &str, actual: &str) {
    let path = fixture_root().join("golden").join(name);
    if std::env::var_os("RSG_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with RSG_UPDATE_GOLDEN=1)", path.display()));
    assert_eq!(
        actual, want,
        "{name} drifted from its golden snapshot — if the analyzer change \
         is intentional, regenerate with RSG_UPDATE_GOLDEN=1"
    );
}

#[test]
fn defect_report_matches_golden_json() {
    check_golden("defect_report.json", &defect_report().to_json());
}

#[test]
fn defect_report_matches_golden_tsv() {
    check_golden("defect_report.tsv", &defect_report().to_tsv());
}
