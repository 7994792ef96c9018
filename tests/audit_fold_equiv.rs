//! The push engine is a [`DeltaSequencer`] plus recomputation, and
//! `rsg audit` folds delta journals with that same sequencer. This test
//! pins the wrapper: over seeded hostile streams — shuffled with
//! duplicates, gapped, conflicting, and replayed from a journal with a
//! corrupt record — every [`PushEngine`] verdict must equal a
//! standalone sequencer's on the same input, the engine must recompute
//! exactly the cells it dirtied, and its incremental tables must equal
//! a from-scratch sweep of the platform it ends on.
//!
//! If the engine ever drifted from the sequencer, `rsg audit` would
//! either bless a deployment the server will refuse to boot, or condemn
//! one it would happily serve.

mod common;

use common::{delta_stream, engine, platform, splitmix};
use rsg::core::curve::CurveConfig;
use rsg::core::observation::ObservationGrid;
use rsg::core::push::{measure_on_platform, BatchOutcome, DeltaJournal, DeltaRecord, PushEngine};
use rsg::core::THRESHOLD_LADDER;
use rsg::platform::delta::{DeltaError, DeltaSequencer, PlatformDelta, SequenceOutcome};
use rsg::platform::CostModel;

/// Mutates a legal stream into one of the hostile shapes the auditor
/// must judge identically to the engine.
fn distort(stream: &mut Vec<DeltaRecord>, shape: u64, state: &mut u64) {
    match shape {
        // Valid, but shuffled with duplicates — at-least-once delivery.
        0 => {
            for i in (1..stream.len()).rev() {
                let j = (splitmix(state) % (i as u64 + 1)) as usize;
                stream.swap(i, j);
            }
            let dupes: Vec<DeltaRecord> = stream.iter().step_by(3).copied().collect();
            stream.extend(dupes);
        }
        // Gapped: drop a record from the middle, never redelivered.
        1 => {
            let drop = 1 + (splitmix(state) as usize % (stream.len() - 1));
            stream.remove(drop);
        }
        // Conflicting redelivery: one seq arrives twice with different
        // payloads.
        2 => {
            let i = (splitmix(state) as usize) % stream.len();
            let mut twin = stream[i];
            twin.delta = PlatformDelta::PriceChange {
                dollars_per_hour: 123.75,
            };
            stream.push(twin);
        }
        // Everything at once: shuffle, duplicate, drop, contradict.
        _ => {
            distort(stream, 0, state);
            distort(stream, 1, state);
            distort(stream, 2, state);
        }
    }
}

/// The engine's outcome is the sequencer's plus the recompute it
/// caused, and it recomputes exactly what it dirtied.
fn assert_outcomes_match(
    seed: u64,
    batch: usize,
    seq: &Result<SequenceOutcome, DeltaError>,
    eng: &Result<BatchOutcome, DeltaError>,
) {
    match (seq, eng) {
        (Ok(s), Ok(e)) => {
            let s = (s.applied, s.duplicates, s.parked, s.rejected, s.resynced);
            let e_seq = (e.applied, e.duplicates, e.parked, e.rejected, e.resynced);
            assert_eq!(s, e_seq, "seed {seed:#x} batch {batch}: outcome drift");
            assert_eq!(
                e.dirtied, e.recomputed,
                "seed {seed:#x} batch {batch}: recompute drift"
            );
        }
        (Err(se), Err(ee)) => {
            assert_eq!(se, ee, "seed {seed:#x} batch {batch}: refusal drift");
        }
        (s, e) => {
            panic!("seed {seed:#x} batch {batch}: verdict drift — sequencer {s:?} vs engine {e:?}")
        }
    }
}

/// The engine ends where the standalone sequencer ends, and its
/// incremental tables equal a from-scratch sweep of that platform.
fn assert_states_match(seed: u64, seq: &DeltaSequencer, eng: &PushEngine) {
    assert_eq!(
        (seq.staleness(), seq.gap()),
        (eng.staleness(), eng.gap()),
        "seed {seed:#x}: sequence drift"
    );
    assert!(
        seq.platform() == eng.platform(),
        "seed {seed:#x}: platform drift"
    );
    assert_eq!(seq.cost(), eng.cost(), "seed {seed:#x}: cost drift");
    let reference = measure_on_platform(
        &ObservationGrid::tiny(),
        &CurveConfig::default(),
        &THRESHOLD_LADDER,
        0,
        eng.platform(),
    );
    assert_eq!(
        eng.tables(),
        &reference[..],
        "seed {seed:#x}: incremental state diverged from the from-scratch sweep"
    );
}

/// Seeded valid / gapped / conflicting streams, delivered in identical
/// batch segmentation to the engine and to a standalone sequencer.
#[test]
fn push_engine_matches_sequencer_on_hostile_streams() {
    // One engine build plus one reference sweep per case is the
    // expensive part; 12 cases × 4 shapes stays well under tier-1
    // budget.
    for case in 0..12u64 {
        let seed = 0xA0D1_7000 + case;
        let shape = case % 4;
        let mut state = seed ^ 0xFACE_FEED;
        let mut stream = delta_stream(&platform(), 8, seed);
        distort(&mut stream, shape, &mut state);

        let mut eng = engine();
        let mut seq = DeltaSequencer::new(platform(), CostModel::default());
        let batch_len = 1 + (splitmix(&mut state) as usize % 4);
        for (b, chunk) in stream.chunks(batch_len).enumerate() {
            let s = seq.submit_batch(chunk);
            let e = eng.submit_batch(chunk);
            assert_outcomes_match(seed, b, &s, &e);
        }
        assert_states_match(seed, &seq, &eng);
    }
}

/// The corrupt-tail path: a journal with a damaged record in the middle
/// truncates on open. The auditor's read-only decode and the boot
/// path's open must see the same surviving prefix, and the engine's
/// one-recompute [`PushEngine::replay`] must agree with the
/// sequencer's tolerant replay on every count and refusal.
#[test]
fn push_engine_replay_matches_sequencer_through_corrupt_journal() {
    let seed = 0xC0DE_D00Du64;
    let stream = delta_stream(&platform(), 10, seed);

    let dir = std::env::temp_dir().join(format!("rsg-fold-equiv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let jpath = dir.join("deltas.journal");
    let mut eng = engine();
    {
        let j = DeltaJournal::open(&jpath, eng.fingerprint(), ()).expect("journal");
        for rec in &stream {
            j.append(rec).expect("append");
        }
    }
    let text = std::fs::read_to_string(&jpath).expect("read");
    let mut lines: Vec<&str> = text.lines().collect();
    lines.insert(lines.len() / 2, "delta\t9999\tprice\t0.5\t0123456789abcdef");
    std::fs::write(&jpath, format!("{}\n", lines.join("\n"))).expect("rewrite");

    // The auditor reads without truncating; the boot path truncates.
    // Both see the same surviving prefix.
    let audited = DeltaJournal::read(&jpath).expect("read");
    assert!(
        audited.damaged > 0,
        "the spliced record must be counted as damage"
    );
    let j = DeltaJournal::open(&jpath, eng.fingerprint(), ()).expect("reopen");
    assert_eq!(
        audited.records,
        j.recovered(),
        "auditor and boot replay disagree"
    );

    let mut seq = DeltaSequencer::new(platform(), CostModel::default());
    let (s, s_refused) = seq.replay(&audited.records);
    let (e, e_refused) = eng.replay(&audited.records);
    assert_outcomes_match(seed, 0, &Ok(s), &Ok(e));
    assert_eq!(s_refused, e_refused, "refusal drift");
    assert!(
        e_refused.is_empty(),
        "replay refused records of a legal stream: {e_refused:?}"
    );
    assert_states_match(seed, &seq, &eng);

    let _ = std::fs::remove_dir_all(&dir);
}
