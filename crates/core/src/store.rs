//! Crash-safe artifact store: checksummed envelopes, atomic writes,
//! quarantine-and-rebuild, and the sweep checkpoint journal.
//!
//! Every durable artifact the pipeline writes (trained models, knee
//! tables, sweep caches) goes through this module so that a crash,
//! preemption or partial write can never leave a corrupt file that is
//! later *trusted*. The discipline is the one long-lived Condor daemons
//! use: write to a temporary file, fsync, rename into place, and verify
//! a checksum on every load.
//!
//! # Envelope format
//!
//! An envelope is a one-line header followed by the raw payload bytes:
//!
//! ```text
//! rsg-artifact<TAB>v1<TAB><kind><TAB><payload-bytes><TAB><fnv64-hex>
//! <payload ...>
//! ```
//!
//! The checksum is FNV-1a (64-bit) over the payload, computed in-crate
//! to stay dependency-free. A load re-derives it and fails with a typed
//! [`StoreError`] — never a panic, never silently wrong data — when
//! anything disagrees.
//!
//! # Journal format
//!
//! [`RecordJournal`] is the one append-only journal discipline; a
//! [`JournalRecord`] type supplies only its magic, its extra header
//! fields and its line codec. Every line carries the FNV-1a checksum of
//! its own body:
//!
//! ```text
//! <magic><TAB>v1<TAB><fingerprint-hex>[<TAB><shape>...]
//! <record body><TAB><fnv64-hex-of-body>
//! ```
//!
//! Two record types exist. The sweep checkpoint journal ([`SweepJournal`],
//! see
//! [`observation::measure_checkpointed`](crate::observation::measure_checkpointed))
//! holds one line per completed grid cell:
//!
//! ```text
//! rsg-sweep-journal<TAB>v1<TAB><fingerprint-hex><TAB><thetas>
//! cell<TAB><idx><TAB><knee0><TAB>...<TAB><fnv64-hex-of-prefix>
//! ```
//!
//! The delta journal ([`DeltaJournal`](crate::push::DeltaJournal)) holds one
//! sequenced platform delta per line:
//!
//! ```text
//! rsg-delta-journal<TAB>v1<TAB><fingerprint-hex>
//! delta<TAB><seq><TAB><delta-tsv...><TAB><fnv64-hex-of-prefix>
//! ```
//!
//! A torn tail (the line being appended when the process died) fails
//! its line checksum; replay truncates the journal back to the last
//! good line and the reader redoes only what is missing. A header
//! whose fingerprint does not match the current configuration moves the
//! whole journal aside (`*.corrupt`) and starts fresh.

use rsg_obs::{Counter, TimingHistogram};
use std::fmt;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Envelope-format version written by this crate.
pub const ENVELOPE_VERSION: &str = "v1";
/// Journal-format version written by this crate.
pub const JOURNAL_VERSION: &str = "v1";

/// Completed atomic artifact writes.
static OBS_WRITES: Counter = Counter::new("core.store.writes");
/// fsync calls issued by the store (artifact writes + journal appends).
static OBS_FSYNCS: Counter = Counter::new("core.store.fsyncs");
/// Envelope/journal checksum verifications that failed.
static OBS_CHECKSUM_FAILURES: Counter = Counter::new("core.store.checksum_failures");
/// Artifacts moved aside to `*.corrupt`.
static OBS_QUARANTINED: Counter = Counter::new("core.store.quarantined");
/// Journal replays that recovered at least one record.
static OBS_JOURNAL_REPLAYS: Counter = Counter::new("core.store.journal_replays");
/// Wall-clock of atomic artifact writes (write + fsync + rename).
static OBS_WRITE_TIME: TimingHistogram = TimingHistogram::new("core.store.write_ns");

/// Typed errors for every durable-artifact operation: loading, storing,
/// decoding and journal replay. Each variant carries enough context
/// (path, line, section) to act on without a debugger.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// An OS-level I/O failure (open, read, write, fsync, rename).
    Io {
        /// File the operation targeted.
        path: String,
        /// The operation that failed (`"read"`, `"write"`, `"rename"`, …).
        op: &'static str,
        /// The OS error message.
        msg: String,
    },
    /// The file does not start with the expected magic string.
    BadMagic {
        /// File (empty when decoding from memory).
        path: String,
        /// What the first line actually was (truncated).
        found: String,
    },
    /// The artifact uses a format version this build cannot read.
    Version {
        /// File (empty when decoding from memory).
        path: String,
        /// The version string found.
        found: String,
    },
    /// The payload is shorter than its header claims.
    Truncated {
        /// File (empty when decoding from memory).
        path: String,
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The payload checksum does not match its header.
    Checksum {
        /// File (empty when decoding from memory).
        path: String,
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes on disk.
        found: u64,
    },
    /// The envelope holds a different artifact kind than expected.
    Kind {
        /// File (empty when decoding from memory).
        path: String,
        /// Kind the caller required.
        expected: String,
        /// Kind recorded in the envelope.
        found: String,
    },
    /// A payload section failed to parse.
    Parse {
        /// Artifact family (`"size-model"`, `"knee-table"`, …).
        artifact: &'static str,
        /// 1-based line number within the document.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A checkpointed sweep stopped early (injected cell budget); the
    /// journal holds everything completed so far and a restart resumes.
    Aborted {
        /// Cells durable in the journal.
        completed: usize,
        /// Cells the full sweep needs.
        total: usize,
    },
}

impl StoreError {
    /// Constructs a parse error (1-based `line` within the document).
    pub fn parse(artifact: &'static str, line: usize, msg: impl Into<String>) -> StoreError {
        StoreError::Parse {
            artifact,
            line,
            msg: msg.into(),
        }
    }

    /// Constructs an I/O error from a `std::io::Error`.
    pub fn io(path: &Path, op: &'static str, e: &std::io::Error) -> StoreError {
        StoreError::Io {
            path: path.display().to_string(),
            op,
            msg: e.to_string(),
        }
    }

    /// Shifts a [`StoreError::Parse`] line number by `offset` lines —
    /// used when a section decoder ran on a slice of a larger document.
    pub fn with_line_offset(self, offset: usize) -> StoreError {
        match self {
            StoreError::Parse {
                artifact,
                line,
                msg,
            } => StoreError::Parse {
                artifact,
                line: line + offset,
                msg,
            },
            other => other,
        }
    }

    /// Fills in the file path on variants decoded from memory.
    pub fn with_path(self, p: &Path) -> StoreError {
        let set = |path: String| {
            if path.is_empty() {
                p.display().to_string()
            } else {
                path
            }
        };
        match self {
            StoreError::BadMagic { path, found } => StoreError::BadMagic {
                path: set(path),
                found,
            },
            StoreError::Version { path, found } => StoreError::Version {
                path: set(path),
                found,
            },
            StoreError::Truncated {
                path,
                expected,
                found,
            } => StoreError::Truncated {
                path: set(path),
                expected,
                found,
            },
            StoreError::Checksum {
                path,
                expected,
                found,
            } => StoreError::Checksum {
                path: set(path),
                expected,
                found,
            },
            StoreError::Kind {
                path,
                expected,
                found,
            } => StoreError::Kind {
                path: set(path),
                expected,
                found,
            },
            other => other,
        }
    }

    /// Whether the artifact bytes themselves are damaged (as opposed to
    /// unreadable, unparseable or merely stale) — the cases a cache
    /// should quarantine and rebuild rather than surface.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            StoreError::BadMagic { .. }
                | StoreError::Version { .. }
                | StoreError::Truncated { .. }
                | StoreError::Checksum { .. }
        )
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = |path: &str| {
            if path.is_empty() {
                String::new()
            } else {
                format!(" in {path}")
            }
        };
        match self {
            StoreError::Io { path, op, msg } => write!(f, "cannot {op} {path}: {msg}"),
            StoreError::BadMagic { path, found } => {
                write!(f, "not an rsg artifact{}: starts '{found}'", at(path))
            }
            StoreError::Version { path, found } => {
                write!(f, "unsupported artifact version '{found}'{}", at(path))
            }
            StoreError::Truncated {
                path,
                expected,
                found,
            } => write!(
                f,
                "truncated artifact{}: header promises {expected} payload bytes, found {found}",
                at(path)
            ),
            StoreError::Checksum {
                path,
                expected,
                found,
            } => write!(
                f,
                "checksum mismatch{}: header {expected:016x}, payload {found:016x}",
                at(path)
            ),
            StoreError::Kind {
                path,
                expected,
                found,
            } => write!(
                f,
                "wrong artifact kind{}: expected '{expected}', found '{found}'",
                at(path)
            ),
            StoreError::Parse {
                artifact,
                line,
                msg,
            } => write!(f, "{artifact} decode error at line {line}: {msg}"),
            StoreError::Aborted { completed, total } => write!(
                f,
                "sweep aborted by cell budget: {completed}/{total} cells journaled"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<rsg_dag::io::DagIoError> for StoreError {
    fn from(e: rsg_dag::io::DagIoError) -> StoreError {
        StoreError::parse("dag", e.line, e.msg)
    }
}

/// FNV-1a 64-bit hash — the store's dependency-free checksum.
///
/// ```
/// // The canonical FNV-1a test vector.
/// assert_eq!(rsg_core::store::fnv1a(b""), 0xcbf29ce484222325);
/// assert_eq!(rsg_core::store::fnv1a(b"a"), 0xaf63dc4c8601ec8c);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Wraps a payload in a versioned, checksummed envelope.
pub fn wrap_envelope(kind: &str, payload: &str) -> String {
    format!(
        "rsg-artifact\t{ENVELOPE_VERSION}\t{kind}\t{}\t{:016x}\n{payload}",
        payload.len(),
        fnv1a(payload.as_bytes())
    )
}

/// Validates an envelope and returns `(kind, payload)`. Errors carry no
/// path (decode-from-memory); callers with a file attach it via
/// [`StoreError::with_path`].
pub fn unwrap_envelope(text: &str) -> Result<(&str, &str), StoreError> {
    let nopath = String::new;
    let (header, payload) = text.split_once('\n').ok_or_else(|| StoreError::BadMagic {
        path: nopath(),
        found: text.chars().take(40).collect(),
    })?;
    let fields: Vec<&str> = header.split('\t').collect();
    if fields.first() != Some(&"rsg-artifact") {
        return Err(StoreError::BadMagic {
            path: nopath(),
            found: header.chars().take(40).collect(),
        });
    }
    if fields.get(1) != Some(&ENVELOPE_VERSION) {
        return Err(StoreError::Version {
            path: nopath(),
            found: fields.get(1).unwrap_or(&"").to_string(),
        });
    }
    let &[kind, len, sum] = &fields[2..] else {
        return Err(StoreError::BadMagic {
            path: nopath(),
            found: header.chars().take(40).collect(),
        });
    };
    let expected_len: usize = len.parse().map_err(|_| StoreError::BadMagic {
        path: nopath(),
        found: header.chars().take(40).collect(),
    })?;
    let expected_sum = u64::from_str_radix(sum, 16).map_err(|_| StoreError::BadMagic {
        path: nopath(),
        found: header.chars().take(40).collect(),
    })?;
    if payload.len() != expected_len {
        return Err(StoreError::Truncated {
            path: nopath(),
            expected: expected_len,
            found: payload.len(),
        });
    }
    let found_sum = fnv1a(payload.as_bytes());
    if found_sum != expected_sum {
        OBS_CHECKSUM_FAILURES.incr();
        return Err(StoreError::Checksum {
            path: nopath(),
            expected: expected_sum,
            found: found_sum,
        });
    }
    Ok((kind, payload))
}

/// Whether a file's first bytes look like a store envelope (used to
/// accept legacy bare-TSV artifacts alongside wrapped ones).
pub fn looks_like_envelope(text: &str) -> bool {
    text.starts_with("rsg-artifact\t")
}

/// Atomically writes an envelope-wrapped artifact: the payload goes to
/// `<path>.tmp-<pid>` in the same directory, is fsynced, and is renamed
/// into place, so a crash at any instant leaves either the old file or
/// the new one — never a torn mixture.
pub fn write_atomic(path: &Path, kind: &str, payload: &str) -> Result<(), StoreError> {
    let t0 = std::time::Instant::now();
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io(path, "create parent of", &e))?;
    }
    let tmp = tmp_path(path);
    let body = wrap_envelope(kind, payload);
    let mut f = File::create(&tmp).map_err(|e| StoreError::io(&tmp, "create", &e))?;
    f.write_all(body.as_bytes())
        .map_err(|e| StoreError::io(&tmp, "write", &e))?;
    f.sync_all()
        .map_err(|e| StoreError::io(&tmp, "fsync", &e))?;
    OBS_FSYNCS.incr();
    drop(f);
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        StoreError::io(path, "rename into", &e)
    })?;
    OBS_WRITES.incr();
    OBS_WRITE_TIME.record(t0.elapsed());
    Ok(())
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp-{}", std::process::id()));
    path.with_file_name(name)
}

/// Reads an envelope-wrapped artifact, verifying magic, version, length
/// and checksum, and requiring the stored kind to be `expect_kind`.
pub fn read_artifact(path: &Path, expect_kind: &str) -> Result<String, StoreError> {
    let text = std::fs::read_to_string(path).map_err(|e| StoreError::io(path, "read", &e))?;
    let (kind, payload) = unwrap_envelope(&text).map_err(|e| e.with_path(path))?;
    if kind != expect_kind {
        return Err(StoreError::Kind {
            path: path.display().to_string(),
            expected: expect_kind.to_string(),
            found: kind.to_string(),
        });
    }
    Ok(payload.to_string())
}

/// Moves a damaged artifact aside to `<path>.corrupt` (overwriting any
/// previous quarantine of the same file) so the slot can be rebuilt
/// while the evidence survives for inspection. Returns the quarantine
/// path, or `None` if the rename itself failed (e.g. the file vanished).
pub fn quarantine(path: &Path) -> Option<PathBuf> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".corrupt");
    let dest = path.with_file_name(name);
    match std::fs::rename(path, &dest) {
        Ok(()) => {
            OBS_QUARANTINED.incr();
            Some(dest)
        }
        Err(_) => None,
    }
}

/// Loads an envelope-wrapped artifact and decodes it, quarantining and
/// rebuilding on *any* damage: a missing file rebuilds silently, a
/// corrupt or undecodable one is moved to `*.corrupt` first. `rebuild`
/// returns the fresh value and the payload to persist; persistence
/// failures are reported to `warn` but never fail the load (the value
/// is still returned — the store degrades to compute-every-time).
pub fn load_or_rebuild<T>(
    path: &Path,
    kind: &str,
    decode: impl Fn(&str) -> Result<T, StoreError>,
    rebuild: impl FnOnce() -> (T, String),
    mut warn: impl FnMut(&str),
) -> T {
    let missing = !path.exists();
    if !missing {
        match read_artifact(path, kind).and_then(|payload| decode(&payload)) {
            Ok(v) => return v,
            Err(e) => match quarantine(path) {
                Some(q) => warn(&format!("{e}; quarantined to {}", q.display())),
                None => warn(&format!("{e}; could not quarantine")),
            },
        }
    }
    let (value, payload) = rebuild();
    if let Err(e) = write_atomic(path, kind, &payload) {
        warn(&format!("rebuilt {kind} not persisted: {e}"));
    }
    value
}

/// What a [`RecordJournal::open`] replay found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecovery {
    /// No journal existed; a fresh one was created.
    Fresh,
    /// The header matched and `cells` intact records were recovered
    /// (zero for a header-only journal, which resumes as it is).
    Resumed {
        /// Records recovered from the journal.
        cells: usize,
    },
    /// The journal belonged to a different configuration (or was
    /// damaged beyond its header) and was quarantined; a fresh one was
    /// created.
    Quarantined,
}

/// One record type of a [`RecordJournal`]: its on-disk magic, the
/// header fields its records are checked against, and its line codec.
/// The header, checksums, torn-tail truncation, quarantine and
/// verification belong to the journal and are written once.
pub trait JournalRecord: Sized {
    /// First header field, naming the journal kind on disk.
    const MAGIC: &'static str;
    /// Header fields after the fingerprint that every record is decoded
    /// against (the sweep journal's theta count; `()` for none).
    type Shape: Copy + PartialEq;
    /// Appends the shape's header fields, each with its leading tab.
    fn write_shape(shape: Self::Shape, header: &mut String);
    /// Parses the header fields after the fingerprint.
    fn read_shape(fields: &[&str]) -> Result<Self::Shape, &'static str>;
    /// Appends the record's line body (no checksum, no newline).
    fn encode(&self, line: &mut String);
    /// Decodes a line body whose checksum has already verified.
    fn decode(line: &str, shape: Self::Shape) -> Option<Self>;
}

/// A journal file decoded read-only by [`RecordJournal::read`].
pub struct JournalContents<R: JournalRecord> {
    /// Configuration fingerprint recorded in the header.
    pub fingerprint: u64,
    /// Header fields after the fingerprint.
    pub shape: R::Shape,
    /// Every intact record before the first damaged line, in file order
    /// (duplicates and reorderings included — the reader owns those).
    pub records: Vec<R>,
    /// Non-blank lines from the first damaged one on: a torn tail that
    /// [`RecordJournal::open`] would truncate.
    pub damaged: usize,
    /// Byte length of the header plus the intact records.
    valid_len: usize,
}

/// An append-only journal of self-checksummed records, one per line
/// under a `<magic>\tv1\t<fingerprint>[\t<shape>...]` header (see the
/// module docs for the format).
///
/// Thread-safe: appends serialize through an internal mutex so rayon
/// workers can checkpoint concurrently.
#[derive(Debug)]
pub struct RecordJournal<R> {
    path: PathBuf,
    recovered: Vec<R>,
    recovery: JournalRecovery,
    file: Mutex<File>,
    appended: AtomicUsize,
}

impl<R: JournalRecord> RecordJournal<R> {
    /// Whether `text` starts with this journal kind's header.
    pub fn sniff(text: &str) -> bool {
        text.strip_prefix(R::MAGIC)
            .is_some_and(|rest| rest.starts_with('\t'))
    }

    /// Opens (or creates) the journal at `path` for a configuration
    /// that digests to `fingerprint`, holding records of `shape`.
    ///
    /// Replay rules:
    /// * matching header → every intact record is recovered in file
    ///   order; the first damaged line (a torn append) and everything
    ///   after it is truncated away. A header-only journal resumes with
    ///   zero records;
    /// * mismatched or damaged header → the whole file is quarantined
    ///   to `*.corrupt` and a fresh journal starts;
    /// * no file → a fresh journal starts.
    pub fn open(path: &Path, fingerprint: u64, shape: R::Shape) -> Result<Self, StoreError> {
        let found = match std::fs::read_to_string(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(StoreError::io(path, "read", &e)),
            Ok(text) => Some(Self::parse(&text)),
        };
        let (file, recovered, recovery) = match found {
            Some(Ok(c)) if c.fingerprint == fingerprint && c.shape == shape => {
                if c.damaged > 0 {
                    OBS_CHECKSUM_FAILURES.incr();
                }
                if !c.records.is_empty() {
                    OBS_JOURNAL_REPLAYS.incr();
                }
                // Truncate any torn tail, then reopen for appending.
                OpenOptions::new()
                    .write(true)
                    .open(path)
                    .and_then(|f| f.set_len(c.valid_len as u64))
                    .map_err(|e| StoreError::io(path, "truncate", &e))?;
                let file = OpenOptions::new()
                    .append(true)
                    .open(path)
                    .map_err(|e| StoreError::io(path, "open", &e))?;
                let recovery = JournalRecovery::Resumed {
                    cells: c.records.len(),
                };
                (file, c.records, recovery)
            }
            found => {
                let recovery = if found.is_some() {
                    quarantine(path);
                    JournalRecovery::Quarantined
                } else {
                    JournalRecovery::Fresh
                };
                if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                    std::fs::create_dir_all(dir)
                        .map_err(|e| StoreError::io(path, "create parent of", &e))?;
                }
                let mut header = format!("{}\t{JOURNAL_VERSION}\t{fingerprint:016x}", R::MAGIC);
                R::write_shape(shape, &mut header);
                header.push('\n');
                let mut f = File::create(path).map_err(|e| StoreError::io(path, "create", &e))?;
                f.write_all(header.as_bytes())
                    .map_err(|e| StoreError::io(path, "write", &e))?;
                f.sync_all()
                    .map_err(|e| StoreError::io(path, "fsync", &e))?;
                OBS_FSYNCS.incr();
                (f, Vec::new(), recovery)
            }
        };
        Ok(RecordJournal {
            path: path.to_path_buf(),
            recovered,
            recovery,
            file: Mutex::new(file),
            appended: AtomicUsize::new(0),
        })
    }

    /// Decodes journal text. A damaged *header* is an error (the caller
    /// quarantines); a damaged *line* merely ends the intact prefix.
    fn parse(text: &str) -> Result<JournalContents<R>, StoreError> {
        let bad_magic = |found: &str| StoreError::BadMagic {
            path: String::new(),
            found: found.chars().take(40).collect(),
        };
        let (header, body) = text.split_once('\n').ok_or_else(|| bad_magic(text))?;
        let fields: Vec<&str> = header.split('\t').collect();
        if fields[0] != R::MAGIC {
            return Err(bad_magic(header));
        }
        let version = fields.get(1).copied().unwrap_or_default();
        if version != JOURNAL_VERSION {
            return Err(StoreError::Version {
                path: String::new(),
                found: version.to_string(),
            });
        }
        let artifact = R::MAGIC.trim_start_matches("rsg-");
        let fingerprint = fields
            .get(2)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| StoreError::parse(artifact, 1, "bad fingerprint field"))?;
        let shape =
            R::read_shape(&fields[3..]).map_err(|msg| StoreError::parse(artifact, 1, msg))?;

        let mut records = Vec::new();
        let mut valid_len = header.len() + 1;
        for line in body.split_inclusive('\n') {
            let Some(rec) = line
                .strip_suffix('\n')
                .and_then(|l| Self::decode_line(l, shape))
            else {
                break; // torn or damaged tail
            };
            records.push(rec);
            valid_len += line.len();
        }
        let damaged = text[valid_len..]
            .lines()
            .filter(|l| !l.trim().is_empty())
            .count();
        Ok(JournalContents {
            fingerprint,
            shape,
            records,
            damaged,
            valid_len,
        })
    }

    /// Verifies one line's trailing checksum, then decodes its body.
    fn decode_line(line: &str, shape: R::Shape) -> Option<R> {
        let (body, sum) = line.rsplit_once('\t')?;
        if u64::from_str_radix(sum, 16).ok()? != fnv1a(body.as_bytes()) {
            return None;
        }
        R::decode(body, shape)
    }

    /// Read-only decode of the journal at `path`: never truncates,
    /// quarantines or creates anything. The caller decides what a
    /// fingerprint mismatch means.
    pub fn read(path: &Path) -> Result<JournalContents<R>, StoreError> {
        let text = std::fs::read_to_string(path).map_err(|e| StoreError::io(path, "read", &e))?;
        Self::parse(&text).map_err(|e| e.with_path(path))
    }

    /// Read-only validation (`rsg store verify`): `(fingerprint, shape,
    /// intact records, damaged tail lines)`.
    pub fn verify(path: &Path) -> Result<(u64, R::Shape, usize, usize), StoreError> {
        let c = Self::read(path)?;
        Ok((c.fingerprint, c.shape, c.records.len(), c.damaged))
    }

    /// The records recovered by [`open`](Self::open), in file order.
    pub fn recovered(&self) -> &[R] {
        &self.recovered
    }

    /// What [`open`](Self::open) found on disk.
    pub fn recovery(&self) -> JournalRecovery {
        self.recovery
    }

    /// How many records this handle has appended since it was opened.
    pub fn appended(&self) -> usize {
        self.appended.load(Ordering::Relaxed)
    }

    /// Durably appends one record (a one-record [`append_batch`](Self::append_batch)).
    pub fn append(&self, record: &R) -> Result<(), StoreError> {
        self.append_batch(std::slice::from_ref(record))
    }

    /// Durably appends a batch as one write + one fsync under the
    /// journal lock. On any error the file is truncated back to its
    /// pre-append length (best effort), so the journal holds either the
    /// whole batch or none of it.
    pub fn append_batch(&self, records: &[R]) -> Result<(), StoreError> {
        let mut buf = String::new();
        for rec in records {
            let start = buf.len();
            rec.encode(&mut buf);
            let sum = fnv1a(&buf.as_bytes()[start..]);
            let _ = writeln!(buf, "\t{sum:016x}");
        }
        let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
        let rollback = f.metadata().map(|m| m.len()).ok();
        let res = f
            .write_all(buf.as_bytes())
            .map_err(|e| StoreError::io(&self.path, "append to", &e))
            .and_then(|()| {
                f.sync_data()
                    .map_err(|e| StoreError::io(&self.path, "fsync", &e))
            });
        match res {
            Ok(()) => {
                OBS_FSYNCS.incr();
                self.appended.fetch_add(records.len(), Ordering::Relaxed);
            }
            Err(_) => {
                if let Some(len) = rollback {
                    let _ = f.set_len(len);
                }
            }
        }
        res
    }
}

/// One completed sweep cell as the checkpoint journal records it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// Grid cell index.
    pub idx: usize,
    /// Knees, one per theta, exactly as measured.
    pub knees: Vec<f64>,
}

impl JournalRecord for SweepCell {
    const MAGIC: &'static str = "rsg-sweep-journal";
    /// Knees per cell.
    type Shape = usize;

    fn write_shape(thetas: usize, header: &mut String) {
        let _ = write!(header, "\t{thetas}");
    }

    fn read_shape(fields: &[&str]) -> Result<usize, &'static str> {
        fields
            .first()
            .and_then(|s| s.parse().ok())
            .ok_or("bad theta-count field")
    }

    /// Knees serialize in shortest-round-trip form, so a replayed value
    /// is bit-identical to the measured one.
    fn encode(&self, line: &mut String) {
        let _ = write!(line, "cell\t{}", self.idx);
        for k in &self.knees {
            let _ = write!(line, "\t{k}");
        }
    }

    fn decode(line: &str, thetas: usize) -> Option<SweepCell> {
        let mut parts = line.split('\t');
        if parts.next() != Some("cell") {
            return None;
        }
        let idx = parts.next()?.parse().ok()?;
        let knees: Vec<f64> = parts.map(|s| s.parse().ok()).collect::<Option<_>>()?;
        (knees.len() == thetas).then_some(SweepCell { idx, knees })
    }
}

/// The sweep checkpoint journal: one [`SweepCell`] per completed grid
/// cell (see
/// [`observation::measure_checkpointed`](crate::observation::measure_checkpointed)).
pub type SweepJournal = RecordJournal<SweepCell>;

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rsg-store-{tag}-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&d);
        d
    }

    fn cell(idx: usize, knees: &[f64]) -> SweepCell {
        SweepCell {
            idx,
            knees: knees.to_vec(),
        }
    }

    #[test]
    fn envelope_round_trip() {
        let body = "hello\tworld\n1\t2\t3\n";
        let env = wrap_envelope("test-kind", body);
        let (kind, payload) = unwrap_envelope(&env).unwrap();
        assert_eq!(kind, "test-kind");
        assert_eq!(payload, body);
        assert!(looks_like_envelope(&env));
        assert!(!looks_like_envelope(body));
    }

    #[test]
    fn envelope_detects_damage() {
        let env = wrap_envelope("k", "payload payload payload");
        // Flip a payload byte.
        let mut bytes = env.clone().into_bytes();
        let n = bytes.len();
        bytes[n - 3] ^= 0x20;
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(matches!(
            unwrap_envelope(&flipped),
            Err(StoreError::Checksum { .. })
        ));
        // Truncate the payload.
        let cut = &env[..env.len() - 4];
        assert!(matches!(
            unwrap_envelope(cut),
            Err(StoreError::Truncated { .. })
        ));
        // Wrong magic and wrong version.
        assert!(matches!(
            unwrap_envelope("garbage\nx"),
            Err(StoreError::BadMagic { .. })
        ));
        assert!(matches!(
            unwrap_envelope("rsg-artifact\tv9\tk\t1\t00\nx"),
            Err(StoreError::Version { .. })
        ));
        assert!(unwrap_envelope("").is_err());
    }

    #[test]
    fn atomic_write_and_read_back() {
        let dir = tmpdir("atomic");
        let path = dir.join("artifact.tsv");
        write_atomic(&path, "knee-tables", "some\tpayload\n").unwrap();
        assert_eq!(
            read_artifact(&path, "knee-tables").unwrap(),
            "some\tpayload\n"
        );
        // Wrong kind is a typed error.
        assert!(matches!(
            read_artifact(&path, "size-model"),
            Err(StoreError::Kind { .. })
        ));
        // No temp droppings.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn load_or_rebuild_quarantines_corruption() {
        let dir = tmpdir("rebuild");
        let path = dir.join("cache.tsv");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(dir.join("cache.tsv.corrupt"));
        let decode = |s: &str| -> Result<String, StoreError> { Ok(s.to_string()) };
        // Missing → rebuild silently.
        let v = load_or_rebuild(
            &path,
            "k",
            decode,
            || ("v1".to_string(), "v1".to_string()),
            |_| panic!("no warning expected for a missing cache"),
        );
        assert_eq!(v, "v1");
        // Cached → served without rebuild.
        let v = load_or_rebuild(
            &path,
            "k",
            decode,
            || panic!("must not rebuild a healthy cache"),
            |_| {},
        );
        assert_eq!(v, "v1");
        // Corrupt → quarantined + rebuilt.
        std::fs::write(&path, "garbage bytes, not an envelope").unwrap();
        let mut warned = false;
        let v = load_or_rebuild(
            &path,
            "k",
            decode,
            || ("v2".to_string(), "v2".to_string()),
            |_| warned = true,
        );
        assert_eq!(v, "v2");
        assert!(warned);
        assert!(dir.join("cache.tsv.corrupt").exists());
        // And the slot now holds the rebuilt artifact.
        assert_eq!(read_artifact(&path, "k").unwrap(), "v2");
    }

    #[test]
    fn journal_round_trip_and_torn_tail() {
        let dir = tmpdir("journal");
        let path = dir.join("sweep.journal");
        let _ = std::fs::remove_file(&path);
        {
            let j = SweepJournal::open(&path, 0xABCD, 2).unwrap();
            assert_eq!(j.recovery(), JournalRecovery::Fresh);
            j.append(&cell(3, &[1.5, 2.5])).unwrap();
            j.append(&cell(7, &[8.0, 16.0])).unwrap();
        }
        // Simulate a torn append: half a line at the tail.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"cell\t9\t4.0").unwrap();
        }
        let j = SweepJournal::open(&path, 0xABCD, 2).unwrap();
        assert_eq!(j.recovery(), JournalRecovery::Resumed { cells: 2 });
        assert_eq!(
            j.recovered(),
            &[cell(3, &[1.5, 2.5]), cell(7, &[8.0, 16.0])]
        );
        // The torn bytes were truncated away; appending resumes cleanly.
        j.append(&cell(9, &[4.0, 5.0])).unwrap();
        drop(j);
        let j = SweepJournal::open(&path, 0xABCD, 2).unwrap();
        assert_eq!(j.recovered().len(), 3);
        let (fp, thetas, good, bad) = SweepJournal::verify(&path).unwrap();
        assert_eq!((fp, thetas, good, bad), (0xABCD, 2, 3, 0));
    }

    #[test]
    fn journal_fingerprint_mismatch_quarantines() {
        let dir = tmpdir("journal-fp");
        let path = dir.join("sweep.journal");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(dir.join("sweep.journal.corrupt"));
        {
            let j = SweepJournal::open(&path, 1, 1).unwrap();
            j.append(&cell(0, &[2.0])).unwrap();
        }
        let j = SweepJournal::open(&path, 2, 1).unwrap();
        assert_eq!(j.recovery(), JournalRecovery::Quarantined);
        assert!(j.recovered().is_empty());
        assert!(dir.join("sweep.journal.corrupt").exists());
    }

    #[test]
    fn journal_garbage_header_quarantines() {
        let dir = tmpdir("journal-hdr");
        let path = dir.join("sweep.journal");
        std::fs::write(&path, "total garbage\nmore garbage\n").unwrap();
        let j = SweepJournal::open(&path, 5, 1).unwrap();
        assert_eq!(j.recovery(), JournalRecovery::Quarantined);
        j.append(&cell(1, &[3.0])).unwrap();
        drop(j);
        let j = SweepJournal::open(&path, 5, 1).unwrap();
        assert_eq!(j.recovery(), JournalRecovery::Resumed { cells: 1 });
    }

    #[test]
    fn journal_floats_replay_bit_identical() {
        let dir = tmpdir("journal-bits");
        let path = dir.join("sweep.journal");
        let _ = std::fs::remove_file(&path);
        let knees = [
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            1234.567891234e-7,
            2f64.powi(-40) + 1.0,
        ];
        {
            let j = SweepJournal::open(&path, 9, knees.len()).unwrap();
            j.append(&cell(0, &knees)).unwrap();
        }
        let j = SweepJournal::open(&path, 9, knees.len()).unwrap();
        let back = &j.recovered()[0].knees;
        for (a, b) in knees.iter().zip(back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} != {b}");
        }
    }

    /// Pins the on-disk bytes of both journal kinds: headers, record
    /// bodies (shortest round-trip floats), checksums, and what a torn
    /// tail reads as and truncates back to.
    #[test]
    fn journal_bytes_are_pinned() {
        use crate::push::{DeltaJournal, DeltaRecord};
        use rsg_platform::delta::PlatformDelta;
        use rsg_platform::ClusterId;
        let dir = tmpdir("journal-format");
        let torn = |path: &Path, bytes: &[u8]| {
            let mut f = OpenOptions::new().append(true).open(path).unwrap();
            f.write_all(bytes).unwrap();
        };

        let sweep = dir.join("sweep.journal");
        let _ = std::fs::remove_file(&sweep);
        {
            let j = SweepJournal::open(&sweep, 0xABCD, 2).unwrap();
            j.append(&cell(3, &[0.1 + 0.2, 1.5])).unwrap();
            j.append(&cell(7, &[1.0 / 3.0, 16.0])).unwrap();
        }
        let expected = "rsg-sweep-journal\tv1\t000000000000abcd\t2\n\
                        cell\t3\t0.30000000000000004\t1.5\tbd95e13bc07c35a4\n\
                        cell\t7\t0.3333333333333333\t16\t4363c2618f968efa\n";
        assert_eq!(std::fs::read_to_string(&sweep).unwrap(), expected);
        torn(&sweep, b"cell\t9\t4.0");
        assert_eq!(SweepJournal::verify(&sweep).unwrap(), (0xABCD, 2, 2, 1));
        let j = SweepJournal::open(&sweep, 0xABCD, 2).unwrap();
        assert_eq!(j.recovery(), JournalRecovery::Resumed { cells: 2 });
        drop(j);
        assert_eq!(std::fs::read_to_string(&sweep).unwrap(), expected);

        let deltas = dir.join("deltas.journal");
        let _ = std::fs::remove_file(&deltas);
        let records = [
            PlatformDelta::HostJoin {
                cluster: ClusterId(2),
                hosts: 4,
            },
            PlatformDelta::HostLeave {
                cluster: ClusterId(0),
                hosts: 1,
            },
            PlatformDelta::ClockDrift {
                cluster: ClusterId(5),
                clock_mhz: 2312.5,
            },
            PlatformDelta::BandwidthDrift {
                cluster: ClusterId(1),
                factor: 0.25,
            },
            PlatformDelta::PriceChange {
                dollars_per_hour: 0.1 + 0.2,
            },
        ]
        .iter()
        .zip(1..)
        .map(|(&delta, seq)| DeltaRecord { seq, delta })
        .collect::<Vec<_>>();
        {
            let j = DeltaJournal::open(&deltas, 0xDEAD_BEEF, ()).unwrap();
            for rec in &records {
                j.append(rec).unwrap();
            }
        }
        let expected = "rsg-delta-journal\tv1\t00000000deadbeef\n\
                        delta\t1\thost-join\t2\t4\t3933b93abdbd4665\n\
                        delta\t2\thost-leave\t0\t1\t3dd674183eec8eaa\n\
                        delta\t3\tclock-drift\t5\t2312.5\tc35202d2efdde344\n\
                        delta\t4\tbw-drift\t1\t0.25\t997bf015ea349188\n\
                        delta\t5\tprice\t0.30000000000000004\t7eab528be1fb0539\n";
        assert_eq!(std::fs::read_to_string(&deltas).unwrap(), expected);
        torn(&deltas, b"delta\t6\tprice\t0.");
        let (fp, (), good, bad) = DeltaJournal::verify(&deltas).unwrap();
        assert_eq!((fp, good, bad), (0xDEAD_BEEF, 5, 1));
        let j = DeltaJournal::open(&deltas, 0xDEAD_BEEF, ()).unwrap();
        assert_eq!(j.recovery(), JournalRecovery::Resumed { cells: 5 });
        assert_eq!(j.recovered(), &records[..]);
        drop(j);
        assert_eq!(std::fs::read_to_string(&deltas).unwrap(), expected);
    }

    /// One rule for both record types: a journal holding only its
    /// (matching) header resumes with zero records and is left as it
    /// is on disk.
    #[test]
    fn header_only_journal_resumes_empty() {
        use crate::push::DeltaJournal;
        let dir = tmpdir("journal-header-only");
        let sweep = dir.join("sweep.journal");
        let header = "rsg-sweep-journal\tv1\t0000000000000005\t3\n";
        std::fs::write(&sweep, header).unwrap();
        let j = SweepJournal::open(&sweep, 5, 3).unwrap();
        assert_eq!(j.recovery(), JournalRecovery::Resumed { cells: 0 });
        assert_eq!(std::fs::read_to_string(&sweep).unwrap(), header);

        let deltas = dir.join("deltas.journal");
        let header = "rsg-delta-journal\tv1\t0000000000000005\n";
        std::fs::write(&deltas, header).unwrap();
        let j = DeltaJournal::open(&deltas, 5, ()).unwrap();
        assert_eq!(j.recovery(), JournalRecovery::Resumed { cells: 0 });
        assert_eq!(std::fs::read_to_string(&deltas).unwrap(), header);
    }
}
