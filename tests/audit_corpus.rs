//! Fixture-corpus tests for `rsg audit`: the committed clean deployment
//! tree must audit without findings, every `AUDIT`/`MODEL` diagnostic
//! code must be tripped by exactly the defect tree named after it, and
//! the aggregated defect report must match its golden JSON/TSV
//! snapshots byte-for-byte.
//!
//! Several fixtures are bound to the serving engine's sweep fingerprint
//! and the journal checksum format, so the corpus is machine-written:
//! regenerate the trees *and* the goldens after an intentional change
//! with `RSG_UPDATE_GOLDEN=1 cargo test --test audit_corpus`.

use rsg::analyze::{audit_tree, serve_engine_fingerprint, Code};
use rsg::core::push::{DeltaJournal, DeltaRecord};
use rsg::core::PlaneFit;
use rsg::platform::delta::PlatformDelta;
use rsg::platform::{ClusterId, CostModel, PlatformFile};
use rsg::prelude::{SizePredictionModel, ThresholdedSizeModel};
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/audit")
}

fn updating() -> bool {
    std::env::var_os("RSG_UPDATE_GOLDEN").is_some()
}

/// Regenerates every fixture tree once per process when updating.
fn fixtures() -> PathBuf {
    static REGEN: std::sync::Once = std::sync::Once::new();
    REGEN.call_once(|| {
        if updating() {
            regenerate().expect("fixture regeneration");
        }
    });
    fixture_root()
}

// ---- fixture generation ------------------------------------------------

fn write(path: &Path, text: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(path.parent().unwrap())?;
    std::fs::write(path, text)
}

/// Writes a checksummed delta journal bound to the serving engine.
fn write_journal(path: &Path, records: &[DeltaRecord]) -> std::io::Result<()> {
    std::fs::create_dir_all(path.parent().unwrap())?;
    let _ = std::fs::remove_file(path);
    let j = DeltaJournal::open(path, serve_engine_fingerprint(), ()).expect("journal open");
    for rec in records {
        j.append(rec).expect("journal append");
    }
    Ok(())
}

fn model(theta: f64, c: f64) -> SizePredictionModel {
    let fits = vec![PlaneFit { a: 1.0, b: 0.5, c }; 4];
    SizePredictionModel::from_parts(theta, vec![100.0, 300.0], vec![0.1, 0.5], fits)
}

/// A handcrafted ladder that passes every MODEL lint: strictly
/// ascending thetas, monotone knees, max knee 2^6.5 ≈ 91 hosts — far
/// inside the 1200-host serving platform.
fn clean_model_tsv() -> String {
    ThresholdedSizeModel {
        models: vec![model(0.001, 5.0), model(0.05, 4.0)],
    }
    .to_tsv()
}

fn join(seq: u64, hosts: u32) -> DeltaRecord {
    DeltaRecord {
        seq,
        delta: PlatformDelta::HostJoin {
            cluster: ClusterId(0),
            hosts,
        },
    }
}

/// A legal contiguous stream of host-leave deltas shrinking the serving
/// platform by `shrink` hosts — enough to break a near-population spec.
fn shrink_stream(shrink: u32) -> Vec<DeltaRecord> {
    let mut scratch = PlatformFile::serve_default().realize();
    let mut cost = CostModel::default();
    let mut out = Vec::new();
    let mut removed = 0u32;
    let mut seq = 0u64;
    for c in 0..scratch.clusters().len() {
        if removed >= shrink {
            break;
        }
        let have = scratch.clusters()[c].hosts;
        let take = have.saturating_sub(2).min(shrink - removed);
        if take == 0 {
            continue;
        }
        seq += 1;
        let rec = DeltaRecord {
            seq,
            delta: PlatformDelta::HostLeave {
                cluster: ClusterId(c as u32),
                hosts: take,
            },
        };
        rec.delta
            .apply(&mut scratch, &mut cost)
            .expect("shrink delta must be legal in order");
        removed += take;
        out.push(rec);
    }
    assert!(
        removed >= shrink,
        "platform too small to shrink by {shrink}"
    );
    out
}

/// The near-population spec `AUDIT007_spec_regression` commits to:
/// satisfiable on the recorded 1200-host platform, unsatisfiable once
/// the journal's host-leave stream has folded 60 hosts away.
const REGRESSION_SPEC: &str = "rsg-spec v1\n\
    # Needs 1150 of the serving platform's 1200 hosts; any meaningful\n\
    # shrink makes this unsatisfiable.\n\
    rung none\n\
    size 1150\n\
    min 1100\n\
    clock 800 32000\n\
    memory 128\n\
    end\n";

/// The clean corpus' size-4 request, shared with the lint corpus.
const CLEAN_SPEC: &str = "rsg-spec v1\n\
    rung none\n\
    size 4\n\
    min 2\n\
    clock 1000 3600\n\
    heuristic MCP\n\
    aggregate TightBagOf\n\
    threshold 0.001\n\
    memory 512\n\
    end\n";

fn regenerate() -> std::io::Result<()> {
    let root = fixture_root();
    for sub in ["clean", "defect"] {
        let dir = root.join(sub);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
    }

    // The clean deployment tree: platform file, model, delta journal,
    // spec corpus — all mutually consistent.
    let clean = root.join("clean");
    write(
        &clean.join("platform.tsv"),
        &PlatformFile::serve_default().to_tsv(),
    )?;
    write(&clean.join("models/size_model.tsv"), &clean_model_tsv())?;
    write(&clean.join("specs/request.spec"), CLEAN_SPEC)?;
    write_journal(
        &clean.join("deltas.journal"),
        &[
            join(1, 1),
            DeltaRecord {
                seq: 2,
                delta: PlatformDelta::PriceChange {
                    dollars_per_hour: 0.25,
                },
            },
        ],
    )?;

    // One defect tree per code, each tripping exactly its name.
    let defect = root.join("defect");
    let tree = |name: &str| defect.join(name);

    write(
        &tree("AUDIT001_no_discoverable_model").join("README.md"),
        "This tree deliberately ships no size_model*.tsv.\n",
    )?;

    let t = tree("AUDIT002_damaged_envelope");
    write(&t.join("models/size_model.tsv"), &clean_model_tsv())?;
    write(
        &t.join("model.envelope"),
        "rsg-artifact\tv1\tsize-model\t5\t0000000000000000\nhello",
    )?;

    let t = tree("AUDIT003_foreign_journal");
    write(&t.join("models/size_model.tsv"), &clean_model_tsv())?;
    write(
        &t.join("deltas.journal"),
        "rsg-delta-journal\tv1\t00000000deadbeef\n",
    )?;

    let t = tree("AUDIT004_sequence_gap");
    write(&t.join("models/size_model.tsv"), &clean_model_tsv())?;
    write_journal(&t.join("deltas.journal"), &[join(2, 1)])?;

    let t = tree("AUDIT005_conflicting_redelivery");
    write(&t.join("models/size_model.tsv"), &clean_model_tsv())?;
    write_journal(
        &t.join("deltas.journal"),
        &[join(2, 1), join(2, 2), join(1, 1)],
    )?;

    let t = tree("AUDIT006_invalid_record");
    write(&t.join("models/size_model.tsv"), &clean_model_tsv())?;
    write_journal(
        &t.join("deltas.journal"),
        &[DeltaRecord {
            seq: 1,
            delta: PlatformDelta::HostLeave {
                cluster: ClusterId(0),
                hosts: 10_000,
            },
        }],
    )?;

    let t = tree("AUDIT007_spec_regression");
    write(&t.join("models/size_model.tsv"), &clean_model_tsv())?;
    write(&t.join("specs/request.spec"), REGRESSION_SPEC)?;
    write_journal(&t.join("deltas.journal"), &shrink_stream(60))?;

    let t = tree("AUDIT008_torn_tail");
    write(&t.join("models/size_model.tsv"), &clean_model_tsv())?;
    write_journal(&t.join("deltas.journal"), &[join(1, 1)])?;
    let jpath = t.join("deltas.journal");
    let mut text = std::fs::read_to_string(&jpath)?;
    text.push_str("this line was torn mid-write\n");
    std::fs::write(&jpath, text)?;

    let t = tree("AUDIT009_clamped_clock");
    write(&t.join("models/size_model.tsv"), &clean_model_tsv())?;
    write_journal(
        &t.join("deltas.journal"),
        &[DeltaRecord {
            seq: 1,
            delta: PlatformDelta::ClockDrift {
                cluster: ClusterId(0),
                clock_mhz: 800.0,
            },
        }],
    )?;

    write(
        &tree("MODEL001_wild_coefficient").join("models/size_model.tsv"),
        &ThresholdedSizeModel {
            models: vec![model(0.001, 100.0)],
        }
        .to_tsv(),
    )?;

    write(
        &tree("MODEL002_non_monotone_ladder").join("models/size_model.tsv"),
        &ThresholdedSizeModel {
            models: vec![model(0.001, 4.0), model(0.05, 8.0)],
        }
        .to_tsv(),
    )?;

    let fits = vec![
        PlaneFit {
            a: 1.0,
            b: 0.5,
            c: 5.0
        };
        4
    ];
    write(
        &tree("MODEL003_unsorted_axis").join("models/size_model.tsv"),
        &ThresholdedSizeModel {
            models: vec![SizePredictionModel::from_parts(
                0.001,
                vec![300.0, 100.0],
                vec![0.1, 0.5],
                fits,
            )],
        }
        .to_tsv(),
    )?;

    write(
        &tree("MODEL004_overreach").join("models/size_model.tsv"),
        &ThresholdedSizeModel {
            models: vec![model(0.001, 14.0)],
        }
        .to_tsv(),
    )?;

    Ok(())
}

// ---- the tests ---------------------------------------------------------

fn defect_trees() -> Vec<PathBuf> {
    let defect = fixtures().join("defect");
    let mut trees: Vec<PathBuf> = std::fs::read_dir(&defect)
        .unwrap_or_else(|e| panic!("{}: {e} (run with RSG_UPDATE_GOLDEN=1)", defect.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_dir())
        .collect();
    trees.sort();
    assert!(!trees.is_empty(), "empty defect corpus");
    trees
}

#[test]
fn clean_tree_audits_clean() {
    let report = audit_tree(&fixtures().join("clean")).expect("audit walk");
    assert!(report.is_clean(), "{}", report.to_human());
}

/// Each defect tree is named after the one code it seeds; the audit of
/// that tree must report that code and *only* that code — a fixture
/// that trips a second code is masking coverage.
#[test]
fn defect_trees_trip_exactly_their_named_code() {
    let mut covered = Vec::new();
    for tree in defect_trees() {
        let name = tree.file_name().unwrap().to_str().unwrap();
        let prefix = name.split('_').next().unwrap();
        let code = Code::ALL
            .into_iter()
            .find(|c| c.as_str() == prefix)
            .unwrap_or_else(|| panic!("{name}: unknown code prefix"));
        let report = audit_tree(&tree).expect("audit walk");
        assert_eq!(
            report.codes(),
            vec![code],
            "{name} must trip exactly {code}:\n{}",
            report.to_human()
        );
        covered.push(code);
    }
    // And the corpus as a whole must cover every AUDIT/MODEL code.
    for code in Code::ALL {
        if matches!(code.family(), "AUDIT" | "MODEL") {
            assert!(covered.contains(&code), "{code} has no defect tree");
        }
    }
}

fn check_golden(name: &str, actual: &str) {
    let path = fixtures().join("golden").join(name);
    if updating() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (run with RSG_UPDATE_GOLDEN=1)", path.display()));
    assert_eq!(
        actual, want,
        "{name} drifted from its golden snapshot — if the auditor change \
         is intentional, regenerate with RSG_UPDATE_GOLDEN=1"
    );
}

#[test]
fn defect_audits_match_golden_tsv() {
    let mut out = String::new();
    for tree in defect_trees() {
        let name = tree.file_name().unwrap().to_str().unwrap();
        out.push_str(&format!("# {name}\n"));
        out.push_str(&audit_tree(&tree).expect("audit walk").to_tsv());
    }
    check_golden("defect_audits.tsv", &out);
}

#[test]
fn defect_audits_match_golden_json() {
    let mut out = String::from("[");
    for (i, tree) in defect_trees().iter().enumerate() {
        let name = tree.file_name().unwrap().to_str().unwrap();
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"tree\": \"{name}\", \"report\": {}}}",
            audit_tree(tree).expect("audit walk").to_json().trim_end()
        ));
    }
    out.push_str("\n]\n");
    check_golden("defect_audits.json", &out);
}
