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
//! The sweep checkpoint journal (see
//! [`observation::measure_checkpointed`](crate::observation::measure_checkpointed))
//! is append-only, one self-checksummed line per completed grid cell:
//!
//! ```text
//! rsg-sweep-journal<TAB>v1<TAB><fingerprint-hex><TAB><thetas>
//! cell<TAB><idx><TAB><knee0><TAB>...<TAB><fnv64-hex-of-prefix>
//! ```
//!
//! A torn tail (the line being appended when the process died) fails
//! its line checksum; replay truncates the journal back to the last
//! good line and the sweep recomputes only what is missing. A header
//! whose fingerprint does not match the current configuration moves the
//! whole journal aside (`*.corrupt`) and starts fresh.

use rsg_obs::{Counter, TimingHistogram};
use std::collections::HashMap;
use std::fmt;
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
/// Journal replays that recovered at least one completed cell.
static OBS_JOURNAL_REPLAYS: Counter = Counter::new("core.store.journal_replays");
/// Sweep cells restored from a journal instead of being recomputed.
static OBS_CELLS_RESUMED: Counter = Counter::new("core.store.cells_resumed");
/// Cells appended to a checkpoint journal.
static OBS_CELLS_CHECKPOINTED: Counter = Counter::new("core.store.cells_checkpointed");
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
    /// A journal was written under a different configuration
    /// fingerprint than the current run's.
    Fingerprint {
        /// Journal file.
        path: String,
        /// Fingerprint of the current configuration.
        expected: u64,
        /// Fingerprint recorded in the journal header.
        found: u64,
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
            StoreError::Fingerprint {
                path,
                expected,
                found,
            } => write!(
                f,
                "journal {path} was written under configuration {found:016x}, \
                 current is {expected:016x}",
            ),
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

/// What a [`SweepJournal::open`] replay found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecovery {
    /// No journal existed; a fresh one was created.
    Fresh,
    /// The journal matched and `cells` completed cells were recovered.
    Resumed {
        /// Cells recovered from the journal.
        cells: usize,
    },
    /// The journal belonged to a different configuration (or was
    /// damaged beyond its header) and was quarantined; a fresh one was
    /// created.
    Quarantined,
}

/// An append-only, self-checksummed record of completed sweep cells.
///
/// Thread-safe: [`append`](SweepJournal::append) serializes through an
/// internal mutex so rayon workers can checkpoint concurrently.
#[derive(Debug)]
pub struct SweepJournal {
    path: PathBuf,
    completed: HashMap<usize, Vec<f64>>,
    recovery: JournalRecovery,
    file: Mutex<File>,
    appended: AtomicUsize,
}

impl SweepJournal {
    /// Opens (or creates) the journal at `path` for a sweep whose
    /// configuration digests to `fingerprint` and measures
    /// `thetas_len` thresholds per cell.
    ///
    /// Replay rules:
    /// * matching header → every line whose checksum and shape verify
    ///   is recovered; the first damaged line (a torn append) truncates
    ///   the journal back to the last good line;
    /// * mismatched or damaged header → the whole file is quarantined
    ///   to `*.corrupt` and a fresh journal starts.
    pub fn open(
        path: &Path,
        fingerprint: u64,
        thetas_len: usize,
    ) -> Result<SweepJournal, StoreError> {
        let mut completed = HashMap::new();
        let mut recovery = JournalRecovery::Fresh;
        let mut good_bytes = 0usize;

        match std::fs::read_to_string(path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(StoreError::io(path, "read", &e)),
            Ok(text) => match Self::replay(&text, fingerprint, thetas_len) {
                Ok((cells, valid_len)) => {
                    good_bytes = valid_len;
                    if !cells.is_empty() {
                        OBS_JOURNAL_REPLAYS.incr();
                        OBS_CELLS_RESUMED.add(cells.len() as u64);
                        recovery = JournalRecovery::Resumed { cells: cells.len() };
                    }
                    completed = cells;
                }
                Err(_) => {
                    quarantine(path);
                    recovery = JournalRecovery::Quarantined;
                }
            },
        }

        if recovery == JournalRecovery::Fresh || recovery == JournalRecovery::Quarantined {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir)
                    .map_err(|e| StoreError::io(path, "create parent of", &e))?;
            }
            let mut f = File::create(path).map_err(|e| StoreError::io(path, "create", &e))?;
            f.write_all(Self::header(fingerprint, thetas_len).as_bytes())
                .map_err(|e| StoreError::io(path, "write", &e))?;
            f.sync_all()
                .map_err(|e| StoreError::io(path, "fsync", &e))?;
            OBS_FSYNCS.incr();
            return Ok(SweepJournal {
                path: path.to_path_buf(),
                completed,
                recovery,
                file: Mutex::new(f),
                appended: AtomicUsize::new(0),
            });
        }

        // Truncate any torn tail, then reopen for appending.
        let f = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| StoreError::io(path, "open", &e))?;
        f.set_len(good_bytes as u64)
            .map_err(|e| StoreError::io(path, "truncate", &e))?;
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| StoreError::io(path, "open", &e))?;
        Ok(SweepJournal {
            path: path.to_path_buf(),
            completed,
            recovery,
            file: Mutex::new(file),
            appended: AtomicUsize::new(0),
        })
    }

    fn header(fingerprint: u64, thetas_len: usize) -> String {
        format!("rsg-sweep-journal\t{JOURNAL_VERSION}\t{fingerprint:016x}\t{thetas_len}\n")
    }

    /// Parses journal text; returns the recovered cells and the byte
    /// length of the valid prefix (header + good lines). A damaged
    /// *header* is an error (quarantine); a damaged *line* merely ends
    /// the valid prefix (torn append).
    fn replay(
        text: &str,
        fingerprint: u64,
        thetas_len: usize,
    ) -> Result<(HashMap<usize, Vec<f64>>, usize), StoreError> {
        let (header, _) = text.split_once('\n').ok_or_else(|| StoreError::BadMagic {
            path: String::new(),
            found: text.chars().take(40).collect(),
        })?;
        let fields: Vec<&str> = header.split('\t').collect();
        if fields.first() != Some(&"rsg-sweep-journal") {
            return Err(StoreError::BadMagic {
                path: String::new(),
                found: header.chars().take(40).collect(),
            });
        }
        if fields.get(1) != Some(&JOURNAL_VERSION) {
            return Err(StoreError::Version {
                path: String::new(),
                found: fields.get(1).unwrap_or(&"").to_string(),
            });
        }
        let found_fp = fields
            .get(2)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| StoreError::parse("sweep-journal", 1, "bad fingerprint field"))?;
        if found_fp != fingerprint {
            return Err(StoreError::Fingerprint {
                path: String::new(),
                expected: fingerprint,
                found: found_fp,
            });
        }
        let found_thetas: usize = fields
            .get(3)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| StoreError::parse("sweep-journal", 1, "bad theta-count field"))?;
        if found_thetas != thetas_len {
            return Err(StoreError::parse(
                "sweep-journal",
                1,
                format!("journal holds {found_thetas} thetas per cell, sweep wants {thetas_len}"),
            ));
        }

        let mut completed = HashMap::new();
        let mut good = header.len() + 1;
        for line in text[good..].split_inclusive('\n') {
            let body = line.strip_suffix('\n');
            match body.and_then(|b| Self::parse_line(b, thetas_len)) {
                Some((idx, knees)) => {
                    completed.insert(idx, knees);
                    good += line.len();
                }
                None => {
                    // Torn or damaged tail: stop here; everything after
                    // the last good line is recomputed.
                    OBS_CHECKSUM_FAILURES.incr();
                    break;
                }
            }
        }
        Ok((completed, good))
    }

    /// Parses one `cell` line, verifying its trailing checksum and that
    /// it carries exactly `thetas_len` knee values.
    fn parse_line(line: &str, thetas_len: usize) -> Option<(usize, Vec<f64>)> {
        let (prefix, sum) = line.rsplit_once('\t')?;
        let expected = u64::from_str_radix(sum, 16).ok()?;
        if fnv1a(prefix.as_bytes()) != expected {
            return None;
        }
        let mut parts = prefix.split('\t');
        if parts.next() != Some("cell") {
            return None;
        }
        let idx: usize = parts.next()?.parse().ok()?;
        let knees: Option<Vec<f64>> = parts.map(|s| s.parse().ok()).collect();
        let knees = knees?;
        if knees.len() != thetas_len {
            return None;
        }
        Some((idx, knees))
    }

    /// The cells recovered by replay: grid cell index → per-theta
    /// knees, exactly as they were measured before the interruption.
    pub fn completed(&self) -> &HashMap<usize, Vec<f64>> {
        &self.completed
    }

    /// What [`SweepJournal::open`] found on disk.
    pub fn recovery(&self) -> JournalRecovery {
        self.recovery
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Durably appends one completed cell (write + fsync under the
    /// journal lock). Knees serialize in shortest-round-trip form, so a
    /// replayed value is bit-identical to the measured one.
    pub fn append(&self, idx: usize, knees: &[f64]) -> Result<(), StoreError> {
        let mut prefix = format!("cell\t{idx}");
        for k in knees {
            prefix.push('\t');
            prefix.push_str(&k.to_string());
        }
        let line = format!("{prefix}\t{:016x}\n", fnv1a(prefix.as_bytes()));
        let mut f = self.file.lock().unwrap_or_else(|e| e.into_inner());
        f.write_all(line.as_bytes())
            .map_err(|e| StoreError::io(&self.path, "append to", &e))?;
        f.sync_data()
            .map_err(|e| StoreError::io(&self.path, "fsync", &e))?;
        OBS_FSYNCS.incr();
        OBS_CELLS_CHECKPOINTED.incr();
        self.appended.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// How many cells this handle has appended since it was opened.
    pub fn appended(&self) -> usize {
        self.appended.load(Ordering::Relaxed)
    }

    /// Read-only validation of a journal file (used by `rsg store
    /// verify`): checks magic, version and every line checksum without
    /// truncating or quarantining anything. Returns `(fingerprint,
    /// thetas per cell, valid cells, damaged tail lines)`.
    pub fn verify(path: &Path) -> Result<(u64, usize, usize, usize), StoreError> {
        let text = std::fs::read_to_string(path).map_err(|e| StoreError::io(path, "read", &e))?;
        let (header, rest) = text.split_once('\n').ok_or_else(|| StoreError::BadMagic {
            path: path.display().to_string(),
            found: text.chars().take(40).collect(),
        })?;
        let fields: Vec<&str> = header.split('\t').collect();
        if fields.first() != Some(&"rsg-sweep-journal") {
            return Err(StoreError::BadMagic {
                path: path.display().to_string(),
                found: header.chars().take(40).collect(),
            });
        }
        if fields.get(1) != Some(&JOURNAL_VERSION) {
            return Err(StoreError::Version {
                path: path.display().to_string(),
                found: fields.get(1).unwrap_or(&"").to_string(),
            });
        }
        let fp = fields
            .get(2)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| {
                StoreError::parse("sweep-journal", 1, "bad fingerprint field").with_path(path)
            })?;
        let thetas: usize = fields.get(3).and_then(|s| s.parse().ok()).ok_or_else(|| {
            StoreError::parse("sweep-journal", 1, "bad theta-count field").with_path(path)
        })?;
        let mut good = 0usize;
        let mut bad = 0usize;
        for line in rest.split_inclusive('\n') {
            let ok = line
                .strip_suffix('\n')
                .and_then(|b| Self::parse_line(b, thetas))
                .is_some();
            if ok && bad == 0 {
                good += 1;
            } else if !line.trim().is_empty() {
                bad += 1;
            }
        }
        Ok((fp, thetas, good, bad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rsg-store-{tag}-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&d);
        d
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
            j.append(3, &[1.5, 2.5]).unwrap();
            j.append(7, &[8.0, 16.0]).unwrap();
        }
        // Simulate a torn append: half a line at the tail.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"cell\t9\t4.0").unwrap();
        }
        let j = SweepJournal::open(&path, 0xABCD, 2).unwrap();
        assert_eq!(j.recovery(), JournalRecovery::Resumed { cells: 2 });
        assert_eq!(j.completed()[&3], vec![1.5, 2.5]);
        assert_eq!(j.completed()[&7], vec![8.0, 16.0]);
        // The torn bytes were truncated away; appending resumes cleanly.
        j.append(9, &[4.0, 5.0]).unwrap();
        drop(j);
        let j = SweepJournal::open(&path, 0xABCD, 2).unwrap();
        assert_eq!(j.completed().len(), 3);
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
            j.append(0, &[2.0]).unwrap();
        }
        let j = SweepJournal::open(&path, 2, 1).unwrap();
        assert_eq!(j.recovery(), JournalRecovery::Quarantined);
        assert!(j.completed().is_empty());
        assert!(dir.join("sweep.journal.corrupt").exists());
    }

    #[test]
    fn journal_garbage_header_quarantines() {
        let dir = tmpdir("journal-hdr");
        let path = dir.join("sweep.journal");
        std::fs::write(&path, "total garbage\nmore garbage\n").unwrap();
        let j = SweepJournal::open(&path, 5, 1).unwrap();
        assert_eq!(j.recovery(), JournalRecovery::Quarantined);
        j.append(1, &[3.0]).unwrap();
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
            j.append(0, &knees).unwrap();
        }
        let j = SweepJournal::open(&path, 9, knees.len()).unwrap();
        let back = &j.completed()[&0];
        for (a, b) in knees.iter().zip(back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} != {b}");
        }
    }
}
