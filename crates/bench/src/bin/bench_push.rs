//! Deterministic checks of the push engine's incremental
//! recomputation, written to `BENCH_push.json`.
//!
//! Builds a [`PushEngine`] over the tiny observation grid and the
//! serving platform, then applies single-delta batches and asserts the
//! exact number of cells each one dirties and recomputes: a delta
//! outside every cell's footprint recomputes nothing, and the worst
//! case recomputes every cell — the same work as a full resweep, never
//! more. A final convergence block drives a seeded, shuffled,
//! duplicated delta stream (plus one corrupt journal record) through a
//! journal round-trip and asserts the incremental state is
//! bit-identical to a from-scratch sweep of the final platform, with
//! zero divergence found by an anti-entropy audit of every cell.
//!
//! Nothing here reads a clock (perfbench's `spec-dag-live` workload
//! times the push path), so two runs write byte-identical files.

use rsg_bench::deltas::{delta_stream, splitmix};
use rsg_bench::report::Table;
use rsg_core::push::{DeltaJournal, DeltaRecord, EngineSweep, PushEngine};
use rsg_platform::delta::PlatformDelta;
use rsg_platform::{CostModel, PlatformFile};

/// Deltas in the convergence block's stream.
const STREAM_DELTAS: usize = 24;

struct Case {
    name: &'static str,
    dirtied: usize,
    recomputed: usize,
}

fn engine() -> PushEngine {
    EngineSweep::serving().engine(
        PlatformFile::serve_default().realize(),
        CostModel::default(),
    )
}

/// The convergence-under-fault proof: shuffled chunks with injected
/// duplicates, one corrupt journal record, journal replay into a fresh
/// engine, then bit-identity against a from-scratch sweep plus a
/// clean full audit. Returns (deltas, duplicates, bit_identical,
/// divergent_after_resync, audited).
fn convergence_block(seed: u64) -> (usize, usize, bool, usize, usize) {
    let mut eng = engine();
    let stream = delta_stream(eng.platform(), STREAM_DELTAS, seed);

    // Shuffle into delivery order and duplicate every third record.
    let mut order: Vec<usize> = (0..stream.len()).collect();
    let mut state = seed ^ 0xDEAD_BEEF;
    for i in (1..order.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut delivery: Vec<DeltaRecord> = order.iter().map(|&i| stream[i]).collect();
    let dupes: Vec<DeltaRecord> = delivery.iter().step_by(3).copied().collect();
    let duplicates = dupes.len();
    delivery.extend(dupes);

    // Journal the hostile delivery order, then splice one corrupt
    // record into the middle of the file.
    let dir = std::env::temp_dir().join(format!("rsg-bench-push-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let jpath = dir.join("deltas.journal");
    let fp = EngineSweep::serving().fingerprint();
    {
        let j = DeltaJournal::open(&jpath, fp, ()).expect("journal");
        for rec in &delivery {
            j.append(rec).expect("append");
        }
    }
    let text = std::fs::read_to_string(&jpath).expect("read journal");
    let mut lines: Vec<&str> = text.lines().collect();
    let corrupt = "delta\t9999\tprice\t0.5\t0123456789abcdef";
    lines.insert(lines.len() / 2, corrupt);
    std::fs::write(&jpath, format!("{}\n", lines.join("\n"))).expect("rewrite");

    // Replay through a fresh engine. The corrupt record fails its
    // checksum, so the journal truncates there (everything after a
    // damaged record is untrusted) — the replayed prefix leaves the
    // engine lagging, which is exactly the quarantine-and-resync
    // contract: idempotent redelivery of the stream closes the gap.
    let j = DeltaJournal::open(&jpath, fp, ()).expect("reopen");
    assert!(
        j.recovered().len() < delivery.len(),
        "the corrupt record should have truncated the replay"
    );
    let (_, refused) = eng.replay(j.recovered());
    assert!(refused.is_empty(), "boot replay refused {refused:?}");
    for chunk in delivery.chunks(5) {
        let out = eng.submit_batch(chunk).expect("resync chunk");
        for rec in chunk {
            if out.applied > 0 || out.duplicates > 0 {
                // Redelivered records are re-journaled; duplicates are
                // deduped on the next replay by idempotent apply.
                j.append(rec).expect("re-append");
            }
        }
    }
    drop(j);
    let lag = eng.staleness().lag;

    let reference = EngineSweep::serving().measure_on(eng.platform());
    let bit_identical = lag == 0 && eng.tables() == &reference[..];
    let cells = eng.cells();
    let report = eng.audit(cells, seed);
    let _ = std::fs::remove_dir_all(&dir);
    (
        stream.len(),
        duplicates,
        bit_identical,
        report.divergent,
        report.checked,
    )
}

fn main() {
    eprintln!("bench_push: building engine (initial sweep)…");
    let mut eng = engine();
    let cells = eng.cells();
    let clusters = eng.platform().clusters().len();
    let hosts: u32 = eng.platform().clusters().iter().map(|c| c.hosts).sum();

    let by_clock = eng.platform().clusters_by_clock_desc();
    let slowest = *by_clock.last().expect("clusters");
    let fastest = by_clock[0];
    let fast_clock = eng.platform().clusters()[fastest.index()].clock_mhz;
    // (name, delta, expected dirtied = recomputed cells)
    let singles = [
        (
            "single-host join (outside footprint)",
            PlatformDelta::HostJoin {
                cluster: slowest,
                hosts: 1,
            },
            0,
        ),
        (
            "price change (cost node only)",
            PlatformDelta::PriceChange {
                dollars_per_hour: 0.42,
            },
            0,
        ),
        (
            "clock drift on fastest cluster (worst case)",
            PlatformDelta::ClockDrift {
                cluster: fastest,
                clock_mhz: fast_clock * 1.02,
            },
            cells,
        ),
    ];

    let mut cases = Vec::new();
    for (i, (name, delta, expected)) in singles.into_iter().enumerate() {
        let rec = DeltaRecord {
            seq: i as u64 + 1,
            delta,
        };
        let out = eng.submit_batch(&[rec]).expect("apply");
        assert_eq!(
            (out.dirtied, out.recomputed),
            (expected, expected),
            "{name}: (dirtied, recomputed) of {cells} cells"
        );
        cases.push(Case {
            name,
            dirtied: out.dirtied,
            recomputed: out.recomputed,
        });
    }

    eprintln!("bench_push: convergence-under-fault block…");
    let (deltas, duplicates, bit_identical, divergent, audited) = convergence_block(0xBADC_0FFE);
    assert!(
        bit_identical,
        "incremental state diverged from the from-scratch resweep"
    );
    assert_eq!(divergent, 0, "anti-entropy audit found divergent cells");
    assert_eq!(audited, cells, "the audit must check every cell");

    let mut table = Table::new(vec!["case", "dirtied", "recomputed", "of cells"]);
    for c in &cases {
        table.row(vec![
            c.name.to_string(),
            c.dirtied.to_string(),
            c.recomputed.to_string(),
            cells.to_string(),
        ]);
    }

    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"benchmark\": \"rsg-push incremental recomputation\",\n");
    j.push_str("  \"schema\": \"rsg-bench-push/v2\",\n");
    j.push_str(&format!(
        "  \"engine\": {{\"cells\": {cells}, \"clusters\": {clusters}, \"hosts\": {hosts}}},\n"
    ));
    j.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"name\": \"{}\", \"dirtied\": {}, \"recomputed\": {}}}{}\n",
            c.name,
            c.dirtied,
            c.recomputed,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    j.push_str(&format!(
        "  \"convergence\": {{\"deltas\": {deltas}, \"duplicates\": {duplicates}, \
         \"corrupt_records\": 1, \"bit_identical\": {bit_identical}, \
         \"divergent_after_resync\": {divergent}, \"audited_cells\": {audited}}}\n"
    ));
    j.push_str("}\n");
    std::fs::write("BENCH_push.json", &j).expect("failed to write BENCH_push.json");

    table.print("rsg-push incremental recomputation (exact cell counts)");
    eprintln!(
        "bench_push: ok — convergence ({deltas} deltas, {duplicates} duplicates, \
         1 corrupt record, {audited} cells audited); wrote BENCH_push.json"
    );
}
