//! Deployment-tree discovery: walking a tree and classifying every
//! artifact in it by *content*, not by name.
//!
//! Naming conventions drift; headers do not. Every artifact family in
//! the pipeline is self-describing — store envelopes open with
//! `rsg-artifact`, models with `rsg-size-model`/`rsg-heur-model`, knee
//! tables with `rsg-knee-table`, journals with their own magics, the
//! platform file with `rsg-platform` — so the auditor sniffs the first
//! bytes of each file and lets everything it does not recognize pass
//! untouched (a deployment tree legitimately carries READMEs, unit
//! files, whatever). The single naming-based rule is the spec corpus:
//! any file under a `specs/` directory is analyzed as a spec document,
//! because spec languages (vgDL, ClassAds) have no reserved magic.

use rsg_core::store;
use rsg_core::{DeltaJournal, SweepJournal};
use std::path::{Path, PathBuf};

/// What a classified file is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A size prediction model (bare TSV or checksummed envelope).
    SizeModel,
    /// A heuristic prediction model (bare TSV or envelope).
    HeurModel,
    /// Persisted knee tables.
    KneeTables,
    /// A sweep checkpoint journal (possibly one shard of a set).
    SweepJournal,
    /// A platform delta journal.
    DeltaJournal,
    /// A platform generation file.
    PlatformFile,
    /// A spec-corpus document (anything under `specs/`).
    Spec,
    /// A store envelope whose payload cannot be trusted (bad checksum,
    /// unknown kind, truncation). `Artifact::text` holds the reason.
    DamagedEnvelope,
}

/// One classified file of the deployment tree.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Absolute (or root-relative, as given) path on disk.
    pub path: PathBuf,
    /// Diagnostic subject: the path relative to the audited root, with
    /// `/` separators regardless of platform.
    pub subject: String,
    /// File content — the envelope *payload* for enveloped artifacts,
    /// the raw text otherwise, or the damage reason for
    /// [`ArtifactKind::DamagedEnvelope`].
    pub text: String,
    /// What the file is.
    pub kind: ArtifactKind,
}

/// The diagnostic subject for `path` inside `root`.
pub fn relative_subject(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let s = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/");
    if s.is_empty() {
        ".".to_string()
    } else {
        s
    }
}

/// Walks `root` recursively (sorted, deterministic) and classifies
/// every file. Only the walk itself can fail; an unreadable *file* is
/// skipped silently, because a non-UTF-8 blob in the tree (a tarball, a
/// core dump) is not an artifact and not the audit's business.
pub fn classify(root: &Path) -> std::io::Result<Vec<Artifact>> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue; // binary or unreadable: not an artifact
        };
        let subject = relative_subject(root, &path);
        let in_specs = path
            .strip_prefix(root)
            .ok()
            .is_some_and(|rel| rel.components().any(|c| c.as_os_str() == "specs"));
        if let Some((kind, text)) = classify_text(&text, in_specs) {
            out.push(Artifact {
                path,
                subject,
                text,
                kind,
            });
        }
    }
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else {
            out.push(path);
        }
    }
    Ok(())
}

/// Classifies one file's content. Returns `None` for files the audit
/// has no opinion about.
fn classify_text(text: &str, in_specs: bool) -> Option<(ArtifactKind, String)> {
    if store::looks_like_envelope(text) {
        return Some(match store::unwrap_envelope(text) {
            Ok((kind, payload)) => match kind {
                rsg_core::persist::SIZE_MODEL_KIND => {
                    (ArtifactKind::SizeModel, payload.to_string())
                }
                rsg_core::persist::HEUR_MODEL_KIND => {
                    (ArtifactKind::HeurModel, payload.to_string())
                }
                other => (
                    ArtifactKind::DamagedEnvelope,
                    format!("envelope carries unknown artifact kind '{other}'"),
                ),
            },
            Err(e) => (ArtifactKind::DamagedEnvelope, e.to_string()),
        });
    }
    let head = text.trim_start();
    let kind = if head.starts_with("rsg-size-model\t") {
        ArtifactKind::SizeModel
    } else if head.starts_with("rsg-heur-model\t") {
        ArtifactKind::HeurModel
    } else if head.starts_with("rsg-knee-table\t") {
        ArtifactKind::KneeTables
    } else if SweepJournal::sniff(head) {
        ArtifactKind::SweepJournal
    } else if DeltaJournal::sniff(head) {
        ArtifactKind::DeltaJournal
    } else if head.starts_with("rsg-platform\t") {
        ArtifactKind::PlatformFile
    } else if in_specs {
        ArtifactKind::Spec
    } else {
        return None;
    };
    Some((kind, text.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_by_magic_and_location() {
        assert_eq!(
            classify_text("rsg-size-model\tv1\n", false).unwrap().0,
            ArtifactKind::SizeModel
        );
        assert_eq!(
            classify_text("rsg-delta-journal\tv1\tdeadbeef\n", false)
                .unwrap()
                .0,
            ArtifactKind::DeltaJournal
        );
        assert_eq!(
            classify_text("rsg-platform\tv1\n", false).unwrap().0,
            ArtifactKind::PlatformFile
        );
        // Arbitrary text is an artifact only inside specs/.
        assert!(classify_text("RC = 64 hosts\n", false).is_none());
        assert_eq!(
            classify_text("RC = 64 hosts\n", true).unwrap().0,
            ArtifactKind::Spec
        );
    }

    #[test]
    fn damaged_envelope_carries_reason() {
        let bad = "rsg-artifact\tv1\tsize-model\t5\t0000000000000000\nhello";
        let (kind, reason) = classify_text(bad, false).unwrap();
        assert_eq!(kind, ArtifactKind::DamagedEnvelope);
        assert!(!reason.is_empty());
    }

    #[test]
    fn subjects_are_root_relative() {
        let root = Path::new("/tmp/tree");
        assert_eq!(
            relative_subject(root, &root.join("models/size_model.tsv")),
            "models/size_model.tsv"
        );
    }
}
