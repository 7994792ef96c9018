//! Fuzz-style property tests: every parser and decoder that touches
//! persisted bytes — specification parsers, the DAG reader, model and
//! knee-table decoders, store envelopes and sweep journals — must
//! return a typed error, never panic, on arbitrary input, including
//! inputs derived from valid documents by truncation or mutation.

use proptest::prelude::*;
use rsg::core::persist::knee_tables_from_tsv;
use rsg::core::store;
use rsg::select::classad::parse_classad;
use rsg::select::sword::parse_sword;
use rsg::select::vgdl::parse_vgdl;
use rsg::serve::http::read_request;
use std::io::Read as IoRead;

/// Serves a byte buffer in fixed-size fragments, so the HTTP reader
/// sees torn request lines and CRLF pairs split across reads — the
/// same shapes a hostile or merely slow TCP peer produces.
struct Torn<'a> {
    bytes: &'a [u8],
    at: usize,
    chunk: usize,
}

impl IoRead for Torn<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self
            .bytes
            .len()
            .saturating_sub(self.at)
            .min(self.chunk)
            .min(buf.len());
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// A valid single-table knee document (built once, deterministically).
fn valid_knee_doc() -> String {
    use rsg::core::observation::{KneeTable, ObservationGrid};
    let grid = ObservationGrid {
        sizes: vec![50, 100],
        ccrs: vec![0.1],
        alphas: vec![0.4, 0.7],
        betas: vec![0.5],
        density: 0.5,
        mean_comp: 10.0,
        instances: 1,
    };
    let knees = vec![4.0, 6.0, 8.0, 12.0];
    let table = KneeTable::from_parts(grid, 0.05, knees).unwrap();
    rsg::core::persist::knee_tables_to_tsv(std::slice::from_ref(&table))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parsers_never_panic_on_garbage(s in "[ -~\\n\\t]{0,200}") {
        let _ = parse_classad(&s);
        let _ = parse_vgdl(&s);
        let _ = parse_sword(&s);
    }

    #[test]
    fn parsers_never_panic_on_mutated_valid_docs(
        cut in 0usize..400,
        insert in "[\\[\\]{}()<>\"=&|;:,a-z0-9 ]{0,12}",
    ) {
        let classad = r#"[ Type = "Job"; Count = 5; Requirements = other.Clock >= 2000 && other.OpSys == "LINUX"; Rank = other.Clock ]"#;
        let vgdl = r#"VG = TightBagOf(nodes) [10:20] [rank = Nodes] { nodes = [ (Clock >= 2000) && (Memory >= 512) ] }"#;
        let sword = "<request><group><name>g</name><num_machines>5</num_machines><clock>1.0, 2.0, MAX, MAX, 0.5</clock></group></request>";
        for doc in [classad, vgdl, sword] {
            let cut = cut.min(doc.len());
            // Splice arbitrary text into the document.
            let mutated = format!("{}{}{}", &doc[..cut], insert, &doc[cut..]);
            if mutated.is_char_boundary(cut) {
                let _ = parse_classad(&mutated);
                let _ = parse_vgdl(&mutated);
                let _ = parse_sword(&mutated);
            }
        }
    }

    #[test]
    fn parsers_never_panic_on_unicode_mutations(
        cut in 0usize..400,
        insert in "[\u{2028}\u{00A0}\u{1F600}\u{FEFF}äß中 \"<>\\[\\]{}=]{0,8}",
    ) {
        // Multi-byte whitespace (U+2028, U+00A0), a BOM, emoji and
        // accented letters spliced into valid documents: the byte-level
        // cursors must reject these with typed errors, never slice off
        // a char boundary.
        let classad = r#"[ Type = "Job"; Count = 5; Requirements = other.Clock >= 2000; Rank = other.Clock ]"#;
        let vgdl = r#"VG = TightBagOf(nodes) [10:20] { nodes = [ Clock >= 2000 ] }"#;
        let sword = "<request><group><name>g</name><num_machines>5</num_machines><clock>1.0, 2.0, MAX, MAX, 0.5</clock></group></request>";
        for doc in [classad, vgdl, sword] {
            let cut = cut.min(doc.len());
            if doc.is_char_boundary(cut) {
                let mutated = format!("{}{}{}", &doc[..cut], insert, &doc[cut..]);
                let _ = parse_classad(&mutated);
                let _ = parse_vgdl(&mutated);
                let _ = parse_sword(&mutated);
            }
        }
    }

    #[test]
    fn dag_reader_never_panics(s in "[ -~\\n\\t]{0,300}") {
        let _ = rsg::dag::io::read_dag(&s);
        let _ = rsg::dag::io::read_dag_raw(&s);
        let with_header = format!("rsg-dag v1\n{s}");
        let _ = rsg::dag::io::read_dag(&with_header);
        let _ = rsg::dag::io::read_dag_raw(&with_header);
    }

    #[test]
    fn model_decoder_never_panics(s in "[ -~\\n\\t]{0,300}") {
        let _ = rsg::core::SizePredictionModel::from_tsv(&s);
        let _ = rsg::core::ThresholdedSizeModel::from_tsv(&s);
        let _ = rsg::core::HeuristicPredictionModel::from_tsv(&s);
        let with_header = format!("rsg-size-model\tv1\n{s}");
        let _ = rsg::core::SizePredictionModel::from_tsv(&with_header);
    }

    #[test]
    fn knee_table_decoder_never_panics(s in "[ -~\\n\\t]{0,300}") {
        let _ = knee_tables_from_tsv(&s);
        let with_header = format!("rsg-knee-table\tv1\n{s}");
        let _ = knee_tables_from_tsv(&with_header);
    }

    #[test]
    fn envelope_and_journal_never_panic(s in "[ -~\\n\\t]{0,300}") {
        let _ = store::unwrap_envelope(&s);
        let with_header = format!("rsg-artifact\tv1\t{s}");
        let _ = store::unwrap_envelope(&with_header);
        // Journal replay is exercised through the read-only verifier
        // (same line parser, no filesystem writes).
        let dir = std::env::temp_dir()
            .join(format!("rsg-fuzz-journal-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("j.journal");
        std::fs::write(&path, &s).unwrap();
        let _ = rsg::core::SweepJournal::verify(&path);
        std::fs::write(&path, format!("rsg-sweep-journal\tv1\tdeadbeef\t2\n{s}")).unwrap();
        let _ = rsg::core::SweepJournal::verify(&path);
    }

    #[test]
    fn delta_journal_never_panics(
        s in "[ -~\\n\\t]{0,300}",
        seq in "[-0-9a-fx.]{0,24}",
        flip in 0usize..400,
    ) {
        // The delta journal shares the torn-tail contract with the
        // sweep journal: arbitrary bytes, truncations, bit-flips and
        // hostile sequence numbers must classify as a clean recovery
        // prefix or a typed StoreError — never a panic. Replay is
        // exercised through the read-only verifier (same line parser).
        let dir = std::env::temp_dir()
            .join(format!("rsg-fuzz-delta-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("d.journal");
        std::fs::write(&path, &s).unwrap();
        let _ = rsg::core::DeltaJournal::verify(&path);
        // Same garbage under a well-formed header: the body parser,
        // not the header sniffer, has to hold the line.
        std::fs::write(
            &path,
            format!("rsg-delta-journal\tv1\t00000000deadbeef\n{s}"),
        ).unwrap();
        let _ = rsg::core::DeltaJournal::verify(&path);
        // Hostile sequence-number field spliced into an otherwise
        // plausible record line (checksum will not match — that must
        // truncate, not crash).
        std::fs::write(
            &path,
            format!(
                "rsg-delta-journal\tv1\t00000000deadbeef\n\
                 delta\t{seq}\tprice\t0.5\t0123456789abcdef\n"
            ),
        ).unwrap();
        let _ = rsg::core::DeltaJournal::verify(&path);
        // Bit-flip a byte of a genuinely valid journal: verify must
        // report the damage (or a shortened clean prefix), not panic.
        let fp = 0x1234_5678_9abc_def0u64;
        {
            let j = rsg::core::DeltaJournal::open(&path, fp, ()).unwrap();
            for (i, tsv) in ["price\t0.25", "clock-drift\t0\t2400", "price\t0.75"]
                .iter()
                .enumerate()
            {
                let d = rsg::platform::PlatformDelta::from_tsv(tsv).unwrap();
                j.append(&rsg::core::DeltaRecord { seq: i as u64 + 1, delta: d })
                    .unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let at = flip % bytes.len();
        bytes[at] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        let _ = rsg::core::DeltaJournal::verify(&path);
    }

    #[test]
    fn platform_delta_parser_never_panics(s in "[ -~\\n\\t]{0,120}") {
        let _ = rsg::platform::PlatformDelta::from_tsv(&s);
        for head in ["host-join\t", "host-leave\t", "clock-drift\t", "bw-drift\t", "price\t"] {
            let _ = rsg::platform::PlatformDelta::from_tsv(&format!("{head}{s}"));
        }
    }

    #[test]
    fn http_reader_never_panics_on_garbage(
        s in "[ -~\\r\\n\\t]{0,400}",
        chunk in 1usize..9,
    ) {
        // Arbitrary printable bytes, delivered whole and in torn
        // fragments: the request reader must return a typed HttpError
        // or a request — never panic, never loop.
        let _ = read_request(&mut s.as_bytes(), 1024);
        let mut torn = Torn { bytes: s.as_bytes(), at: 0, chunk };
        let _ = read_request(&mut torn, 1024);
    }

    #[test]
    fn http_reader_never_panics_on_mutated_valid_requests(
        cut in 0usize..120,
        insert in "[ -~]{0,10}",
        chunk in 1usize..9,
        content_length in "[0-9]{0,24}",
    ) {
        let body = "{\"dag\": \"x\"}";
        let valid = format!(
            "POST /spec HTTP/1.1\r\nHost: f\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        // Splice garbage into a valid request, and separately truncate
        // it at an arbitrary byte: both must classify cleanly.
        let cut = cut.min(valid.len());
        let mutated = format!("{}{}{}", &valid[..cut], insert, &valid[cut..]);
        for text in [mutated.as_str(), &valid[..cut]] {
            let _ = read_request(&mut text.as_bytes(), 1024);
            let mut torn = Torn { bytes: text.as_bytes(), at: 0, chunk };
            let _ = read_request(&mut torn, 1024);
        }
        // Oversized and unparseable Content-Length values: huge decimal
        // strings must yield TooLarge or Malformed, never an attempt to
        // allocate the declared size.
        let evil = format!(
            "POST /spec HTTP/1.1\r\nHost: f\r\nContent-Length: {content_length}\r\n\r\nx"
        );
        match read_request(&mut evil.as_bytes(), 1024) {
            Ok(req) => prop_assert!(req.body.len() <= 1024),
            Err(e) => {
                let shown = format!("{e}");
                prop_assert!(!shown.is_empty());
            }
        }
    }

    #[test]
    fn truncated_and_mutated_valid_docs_never_panic(
        cut in 0usize..600,
        insert in "[\\t\\na-z0-9.]{0,8}",
    ) {
        // A valid knee-table doc and its envelope, spliced and cut at
        // arbitrary points: decode must fail cleanly or succeed — never
        // panic, and a mutated *envelope* must never pass its checksum
        // unless the splice was a no-op.
        let doc = valid_knee_doc();
        let env = store::wrap_envelope("knee-tables", &doc);
        for text in [&doc, &env] {
            let cut = cut.min(text.len());
            if text.is_char_boundary(cut) {
                let truncated = &text[..cut];
                let _ = knee_tables_from_tsv(truncated);
                let _ = store::unwrap_envelope(truncated);
                let mutated = format!("{}{}{}", &text[..cut], insert, &text[cut..]);
                let _ = knee_tables_from_tsv(&mutated);
                if !insert.is_empty() {
                    if let Ok((kind, payload)) = store::unwrap_envelope(&mutated) {
                        // The envelope checksum caught every real
                        // mutation; a surviving parse means the splice
                        // landed harmlessly (e.g. inside the header's
                        // kind field before re-deriving it is possible:
                        // kind may differ, payload must not).
                        assert!(kind == "knee-tables" || payload == doc);
                    }
                }
            }
        }
    }
}
