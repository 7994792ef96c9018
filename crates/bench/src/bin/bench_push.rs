//! Incremental-vs-full recomputation benchmark for the push engine.
//!
//! Builds a [`PushEngine`] over the tiny observation grid and a
//! generated platform, times one from-scratch resweep of the whole
//! model state, then times single-delta batches through the
//! incremental path — the headline number is the speedup of applying
//! one platform delta over recomputing everything it could have
//! touched. A final convergence block drives a seeded, shuffled,
//! duplicated delta stream (plus one corrupt journal record) through
//! a journal round-trip and asserts the incremental state is
//! bit-identical to a from-scratch sweep of the final platform, with
//! zero divergence found by the anti-entropy audit.
//!
//! Writes `BENCH_push.json`. Pass `--quick` for the CI-scale run
//! (smaller platform, single timing rep); the schema is identical.

use rsg_bench::deltas::{delta_stream, splitmix};
use rsg_bench::report::Table;
use rsg_core::push::{DeltaJournal, DeltaRecord, EngineSweep, PushEngine};
use rsg_platform::delta::PlatformDelta;
use rsg_platform::{CostModel, Platform, PlatformFile, ResourceGenSpec, TopologySpec};
use std::time::Instant;

struct Case {
    name: &'static str,
    dirtied: usize,
    recomputed: usize,
    incremental_ms: f64,
    speedup: f64,
}

/// The serving platform, or a 12-cluster one for the CI-scale run.
fn platform(quick: bool) -> Platform {
    if quick {
        let spec = ResourceGenSpec {
            clusters: 12,
            year: 2006,
            target_hosts: Some(420),
        };
        Platform::generate(spec, TopologySpec::default(), 11)
    } else {
        PlatformFile::serve_default().realize()
    }
}

fn engine(quick: bool) -> PushEngine {
    EngineSweep::serving().engine(platform(quick), CostModel::default())
}

/// Times one full from-scratch resweep of the engine's current
/// platform, best of `reps`.
fn time_full_resweep(eng: &PushEngine, reps: usize) -> f64 {
    let sweep = EngineSweep::serving();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let tables = sweep.measure_on(eng.platform());
        assert!(!tables.is_empty());
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The convergence-under-fault proof: shuffled chunks with injected
/// duplicates, one corrupt journal record, journal replay into a fresh
/// engine, then bit-identity against a from-scratch sweep plus a
/// clean full audit. Returns (deltas, duplicates, bit_identical,
/// divergent_after_resync, audited).
fn convergence_block(quick: bool, seed: u64) -> (usize, usize, bool, usize, usize) {
    let n = if quick { 12 } else { 24 };
    let stream = delta_stream(&platform(quick), n, seed);

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
    let mut eng = engine(quick);
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
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 3 };

    eprintln!("bench_push: building engine (initial sweep)…");
    let mut eng = engine(quick);
    let cells = eng.cells();
    let clusters = eng.platform().clusters().len();
    let hosts: u32 = eng.platform().clusters().iter().map(|c| c.hosts).sum();

    eprintln!("bench_push: timing full resweep ({reps} rep(s))…");
    let full_ms = time_full_resweep(&eng, reps);

    let by_clock = eng.platform().clusters_by_clock_desc();
    let slowest = *by_clock.last().expect("clusters");
    let fastest = by_clock[0];
    let fast_clock = eng.platform().clusters()[fastest.index()].clock_mhz;
    let singles = [
        (
            "single-host join (outside footprint)",
            PlatformDelta::HostJoin {
                cluster: slowest,
                hosts: 1,
            },
        ),
        (
            "price change (cost node only)",
            PlatformDelta::PriceChange {
                dollars_per_hour: 0.42,
            },
        ),
        (
            "clock drift on fastest cluster (worst case)",
            PlatformDelta::ClockDrift {
                cluster: fastest,
                clock_mhz: fast_clock * 1.02,
            },
        ),
    ];

    let mut cases = Vec::new();
    for (i, (name, delta)) in singles.into_iter().enumerate() {
        let rec = DeltaRecord {
            seq: i as u64 + 1,
            delta,
        };
        let started = Instant::now();
        let out = eng.submit_batch(&[rec]).expect("apply");
        let incremental_ms = started.elapsed().as_secs_f64() * 1e3;
        cases.push(Case {
            name,
            dirtied: out.dirtied,
            recomputed: out.recomputed,
            incremental_ms,
            speedup: full_ms / incremental_ms.max(1e-6),
        });
    }

    eprintln!("bench_push: convergence-under-fault block…");
    let (deltas, duplicates, bit_identical, divergent, audited) =
        convergence_block(quick, 0xBADC_0FFE);
    assert!(
        bit_identical,
        "incremental state diverged from the from-scratch resweep"
    );
    assert_eq!(divergent, 0, "anti-entropy audit found divergent cells");

    let mut table = Table::new(vec!["case", "dirtied", "recomputed", "ms", "speedup"]);
    for c in &cases {
        table.row(vec![
            c.name.to_string(),
            c.dirtied.to_string(),
            c.recomputed.to_string(),
            format!("{:.3}", c.incremental_ms),
            format!("{:.1}x", c.speedup),
        ]);
    }

    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"benchmark\": \"rsg-push incremental recomputation\",\n");
    j.push_str("  \"schema\": \"rsg-bench-push/v1\",\n");
    j.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    j.push_str(&format!(
        "  \"engine\": {{\"cells\": {cells}, \"clusters\": {clusters}, \"hosts\": {hosts}}},\n"
    ));
    j.push_str(&format!("  \"full_resweep_ms\": {full_ms:.3},\n"));
    j.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"name\": \"{}\", \"dirtied\": {}, \"recomputed\": {}, \
             \"incremental_ms\": {:.3}, \"speedup_vs_full\": {:.1}}}{}\n",
            c.name,
            c.dirtied,
            c.recomputed,
            c.incremental_ms,
            c.speedup,
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

    table.print("rsg-push incremental vs full resweep");
    eprintln!(
        "bench_push: full resweep {full_ms:.1} ms; single-host delta speedup {:.0}x; \
         convergence ok ({deltas} deltas, {duplicates} duplicates, 1 corrupt record)",
        cases[0].speedup
    );
}
