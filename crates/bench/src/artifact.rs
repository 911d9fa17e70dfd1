//! Durable artefact I/O: atomic JSON writes with typed errors and content
//! checksums.
//!
//! Every JSON artefact the `repro` binary persists goes through
//! [`write_json_atomic`]: write to a dot-temp file, `fsync` the file, rename
//! into place, then `fsync` the parent directory so the rename itself
//! survives a power cut. A crash at any point leaves either the old bytes or
//! the new bytes — never a torn file. Failures surface as
//! [`ArtifactIoError`] (path + operation + OS error) instead of a panic, so
//! a full disk or a read-only output directory degrades to a reported
//! per-artefact failure while the rest of the run completes.
//!
//! The checksum everywhere in the journal/fsck layer is FNV-1a 64 — tiny,
//! dependency-free, and byte-stable across platforms. It guards against
//! truncation and accidental edits, not adversaries.

use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A failed filesystem operation on an artefact, with enough context to
/// report which artefact and which step failed.
#[derive(Debug)]
pub struct ArtifactIoError {
    /// The path being operated on.
    pub path: PathBuf,
    /// The operation that failed (`"create dir"`, `"write temp"`, ...).
    pub op: &'static str,
    /// The underlying OS error.
    pub source: std::io::Error,
}

impl fmt::Display for ArtifactIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.op, self.path.display(), self.source)
    }
}

impl std::error::Error for ArtifactIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

pub(crate) fn io_err<'p>(
    path: &'p Path,
    op: &'static str,
) -> impl FnOnce(std::io::Error) -> ArtifactIoError + 'p {
    move |source| ArtifactIoError { path: path.to_path_buf(), op, source }
}

/// What [`write_json_atomic`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The file was (re)written.
    Written,
    /// The file already held exactly the requested bytes; nothing moved.
    Unchanged,
}

/// FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a 64 rendered as the 16-hex-digit form used in the run journal.
pub fn fnv1a64_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// Write `content` to `dir/stem.json` atomically and durably.
///
/// Returns the outcome plus the content's checksum (the value journaled and
/// later verified by `--resume` / `--fsck`). The write is skipped entirely
/// when the file already holds exactly `content`, so mtimes move only when
/// bytes do.
pub fn write_json_atomic(
    dir: &Path,
    stem: &str,
    content: &str,
) -> Result<(WriteOutcome, String), ArtifactIoError> {
    let checksum = fnv1a64_hex(content.as_bytes());
    std::fs::create_dir_all(dir).map_err(io_err(dir, "create dir"))?;
    let path = dir.join(format!("{stem}.json"));
    if std::fs::read_to_string(&path).is_ok_and(|old| old == content) {
        return Ok((WriteOutcome::Unchanged, checksum));
    }
    let tmp = dir.join(format!(".{stem}.json.tmp"));
    {
        let mut f = std::fs::File::create(&tmp).map_err(io_err(&tmp, "create temp"))?;
        f.write_all(content.as_bytes()).map_err(io_err(&tmp, "write temp"))?;
        f.sync_all().map_err(io_err(&tmp, "sync temp"))?;
    }
    std::fs::rename(&tmp, &path).map_err(io_err(&path, "rename into place"))?;
    // Durability of the rename itself: fsync the directory so the new
    // directory entry is on disk before we journal the artefact as done.
    std::fs::File::open(dir).and_then(|d| d.sync_all()).map_err(io_err(dir, "sync dir"))?;
    Ok((WriteOutcome::Written, checksum))
}

/// Checksum `dir/stem.json` as it exists on disk, or `None` if unreadable.
/// Only [`crate::journal::verdicts`], the one trust rule, reads it.
pub(crate) fn checksum_on_disk(dir: &Path, stem: &str) -> Option<String> {
    std::fs::read(dir.join(format!("{stem}.json"))).ok().map(|b| fnv1a64_hex(&b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bench_artifact_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn write_then_rewrite_is_unchanged() {
        let d = tmpdir("rewrite");
        let (o1, c1) = write_json_atomic(&d, "x", "{\"a\":1}").unwrap();
        let (o2, c2) = write_json_atomic(&d, "x", "{\"a\":1}").unwrap();
        assert_eq!(o1, WriteOutcome::Written);
        assert_eq!(o2, WriteOutcome::Unchanged);
        assert_eq!(c1, c2);
        assert_eq!(checksum_on_disk(&d, "x"), Some(c1));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn checksum_tracks_content() {
        let d = tmpdir("checksum");
        let (_, c1) = write_json_atomic(&d, "x", "one").unwrap();
        let (_, c2) = write_json_atomic(&d, "x", "two").unwrap();
        assert_ne!(c1, c2);
        assert_eq!(checksum_on_disk(&d, "x"), Some(c2.clone()));
        // Truncation is detected.
        std::fs::write(d.join("x.json"), "tw").unwrap();
        assert_ne!(checksum_on_disk(&d, "x"), Some(c2));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn unwritable_target_is_a_typed_error_not_a_panic() {
        // Point the "directory" at an existing file: create_dir_all must
        // fail, and the failure must carry the path and operation. (A
        // read-only-dir probe is useless under root, which CI runs as.)
        let d = tmpdir("typed");
        std::fs::create_dir_all(&d).unwrap();
        let blocker = d.join("blocker");
        std::fs::write(&blocker, "x").unwrap();
        let err = write_json_atomic(&blocker, "y", "{}").unwrap_err();
        assert_eq!(err.op, "create dir");
        assert!(err.to_string().contains("blocker"), "{err}");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64_hex(b"a").len(), 16);
    }
}
