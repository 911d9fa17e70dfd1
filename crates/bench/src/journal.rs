//! The persisted run journal behind `repro --resume` and `repro --fsck`.
//!
//! A journal is a JSONL file (`_journal.jsonl` inside the `--json`
//! directory; underscore-prefixed so artefact diffs exclude it) appended and
//! fsync'd record-by-record as the supervised sweep progresses:
//!
//! * `run_start` — format version, run fingerprint (items + scale), the
//!   requested items and scale;
//! * `cell` — one per executed cell: label, owning artefact, final status,
//!   attempt count, wall clock, failure brief;
//! * `artifact` — one per finished artefact: key, JSON file stem (absent
//!   for text-only artefacts), byte count and FNV-1a 64 checksum of the
//!   written JSON, or `"status":"failed"` for quarantined artefacts;
//! * `run_end` — `clean` or `degraded`.
//!
//! The reader is *prefix-tolerant*: a journal killed mid-write (SIGKILL,
//! power loss) ends in a torn line, and [`read_journal`] parses every
//! complete leading line and ignores the first malformed one onward. Any
//! byte-prefix of a valid journal therefore loads as a valid (possibly
//! shorter) [`ResumeState`] — the property the proptest in
//! `tests/supervisor_resume.rs` pins down.

use std::io::Write;
use std::path::{Path, PathBuf};

use serde::Value;

use crate::artifact::{fnv1a64_hex, ArtifactIoError};

/// Journal format version; bumped on incompatible record changes.
pub const JOURNAL_VERSION: u64 = 1;

/// File name of the journal inside a `--json` directory.
pub const JOURNAL_FILE: &str = "_journal.jsonl";

/// Fingerprint of a run's *plan*: items, scale, and journal version. Two
/// runs with the same fingerprint enumerate identical cells, so artefacts
/// verified against the journal may be skipped on `--resume`.
pub fn run_fingerprint(items: &[String], scale: &str) -> String {
    let blob = format!("v{JOURNAL_VERSION}|scale={scale}|items={items:?}");
    fnv1a64_hex(blob.as_bytes())
}

/// `s` as a JSON string literal, quotes and escapes included.
pub(crate) fn esc(s: &str) -> String {
    serde_json::to_string(&s).expect("string serialization")
}

/// Append-only JSONL writer with the journal's durability discipline: every
/// line is written and fsync'd before [`append`](JsonlWriter::append)
/// returns, so the on-disk file never claims a record that has not durably
/// happened. Shared by the run journal and the trace sink.
///
/// # Examples
///
/// ```
/// let path = std::env::temp_dir().join(format!("jsonl_doc_{}.jsonl", std::process::id()));
/// let mut w = bench::journal::JsonlWriter::create(&path).unwrap();
/// w.append("{\"kind\":\"example\"}").unwrap();
/// assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"kind\":\"example\"}\n");
/// std::fs::remove_file(&path).unwrap();
/// ```
pub struct JsonlWriter {
    file: std::fs::File,
    path: PathBuf,
}

impl JsonlWriter {
    /// Create (truncate) a JSONL file at `path`.
    pub fn create(path: &Path) -> Result<JsonlWriter, ArtifactIoError> {
        let file = std::fs::File::create(path).map_err(|source| ArtifactIoError {
            path: path.into(),
            op: "create jsonl",
            source,
        })?;
        Ok(JsonlWriter { file, path: path.into() })
    }

    /// Open an existing JSONL file for appending.
    pub fn open_append(path: &Path) -> Result<JsonlWriter, ArtifactIoError> {
        let file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|source| ArtifactIoError { path: path.into(), op: "open jsonl", source })?;
        Ok(JsonlWriter { file, path: path.into() })
    }

    /// Append one record line (the trailing newline is added here), then
    /// fsync before returning.
    pub fn append(&mut self, line: &str) -> Result<(), ArtifactIoError> {
        let err = |op| {
            let path = self.path.clone();
            move |source| ArtifactIoError { path, op, source }
        };
        self.file.write_all(line.as_bytes()).map_err(err("append jsonl"))?;
        self.file.write_all(b"\n").map_err(err("append jsonl"))?;
        self.file.sync_data().map_err(err("sync jsonl"))?;
        Ok(())
    }

    /// The path this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Append-only journal writer. Every record is flushed and fsync'd before
/// `append` returns, so the on-disk journal never claims work that has not
/// durably happened.
///
/// # Examples
///
/// ```no_run
/// use std::path::Path;
/// let items = vec!["fig5".to_string()];
/// let mut j = bench::Journal::create(Path::new("out"), &items, "golden").unwrap();
/// j.cell("fig5", "fig5/tegra2", "ok", 1, 2.5, None).unwrap();
/// j.artifact_json("fig5", "fig5", 123, "00deadbeef001122", false).unwrap();
/// j.run_end(true).unwrap();
/// ```
pub struct Journal {
    w: JsonlWriter,
}

impl Journal {
    /// Create (truncate) `dir/_journal.jsonl` and write the `run_start`
    /// record.
    pub fn create(dir: &Path, items: &[String], scale: &str) -> Result<Journal, ArtifactIoError> {
        std::fs::create_dir_all(dir).map_err(|source| ArtifactIoError {
            path: dir.into(),
            op: "create dir",
            source,
        })?;
        let mut j = Journal { w: JsonlWriter::create(&dir.join(JOURNAL_FILE))? };
        let items_json: Vec<String> = items.iter().map(|i| esc(i)).collect();
        j.append(&format!(
            "{{\"kind\":\"run_start\",\"version\":{JOURNAL_VERSION},\"fingerprint\":{},\"scale\":{},\"items\":[{}]}}",
            esc(&run_fingerprint(items, scale)),
            esc(scale),
            items_json.join(","),
        ))?;
        Ok(j)
    }

    fn append(&mut self, line: &str) -> Result<(), ArtifactIoError> {
        self.w.append(line)
    }

    /// Record one executed cell.
    pub fn cell(
        &mut self,
        artefact: &str,
        label: &str,
        status: &str,
        attempts: u32,
        wall_ms: f64,
        failure: Option<&str>,
    ) -> Result<(), ArtifactIoError> {
        let failure = match failure {
            Some(f) => format!(",\"failure\":{}", esc(f)),
            None => String::new(),
        };
        self.append(&format!(
            "{{\"kind\":\"cell\",\"artefact\":{},\"label\":{},\"status\":{},\"attempts\":{attempts},\"wall_ms\":{wall_ms:.3}{failure}}}",
            esc(artefact),
            esc(label),
            esc(status),
        ))
    }

    /// Record a completed artefact with a persisted JSON file.
    pub fn artifact_json(
        &mut self,
        key: &str,
        stem: &str,
        bytes: u64,
        checksum: &str,
        resumed: bool,
    ) -> Result<(), ArtifactIoError> {
        self.append(&format!(
            "{{\"kind\":\"artifact\",\"key\":{},\"status\":\"ok\",\"stem\":{},\"bytes\":{bytes},\"checksum\":{},\"resumed\":{resumed}}}",
            esc(key),
            esc(stem),
            esc(checksum),
        ))
    }

    /// Record a completed text-only artefact (nothing persisted to verify).
    pub fn artifact_text(&mut self, key: &str) -> Result<(), ArtifactIoError> {
        self.append(&format!("{{\"kind\":\"artifact\",\"key\":{},\"status\":\"ok\"}}", esc(key)))
    }

    /// Record an artefact that produced no trustworthy output.
    pub fn artifact_failed(&mut self, key: &str) -> Result<(), ArtifactIoError> {
        self.append(&format!(
            "{{\"kind\":\"artifact\",\"key\":{},\"status\":\"failed\"}}",
            esc(key)
        ))
    }

    /// Record the end of the run.
    pub fn run_end(&mut self, clean: bool) -> Result<(), ArtifactIoError> {
        let status = if clean { "clean" } else { "degraded" };
        self.append(&format!("{{\"kind\":\"run_end\",\"status\":\"{status}\"}}"))
    }

    /// Open an existing journal for appending (fsck repair records). The
    /// reader takes the *last* record per artefact key, so appended repairs
    /// supersede the originals.
    pub fn open_append(dir: &Path) -> Result<Journal, ArtifactIoError> {
        Ok(Journal { w: JsonlWriter::open_append(&dir.join(JOURNAL_FILE))? })
    }
}

/// One `artifact` record as read back from a journal.
#[derive(Clone, Debug, PartialEq)]
pub struct JournaledArtifact {
    /// Artefact key (`fig6`, `hpl`, ...).
    pub key: String,
    /// JSON file stem, when the artefact persisted one.
    pub stem: Option<String>,
    /// Size of the persisted JSON in bytes.
    pub bytes: u64,
    /// FNV-1a 64 checksum (16 hex digits) of the persisted JSON.
    pub checksum: Option<String>,
    /// Whether the artefact completed (vs was quarantined).
    pub ok: bool,
}

/// One `cell` record as read back from a journal.
#[derive(Clone, Debug, PartialEq)]
pub struct JournaledCell {
    /// Owning artefact key.
    pub artefact: String,
    /// Cell label.
    pub label: String,
    /// Final status string (`ok` / `quarantined`; journals written while
    /// failed cells were retried may also say `recovered`).
    pub status: String,
    /// Attempt count.
    pub attempts: u64,
}

/// Everything `--resume` / `--fsck` need from a journal, reconstructed from
/// any byte-prefix of the file.
#[derive(Clone, Debug, Default)]
pub struct ResumeState {
    /// Run fingerprint from `run_start` (empty when the journal is empty or
    /// starts torn).
    pub fingerprint: String,
    /// Requested items of the journaled run.
    pub items: Vec<String>,
    /// Scale name of the journaled run (`golden` / `quick` / `full`).
    pub scale: String,
    /// Artefact records, last record per key wins (fsck repairs re-append).
    pub artifacts: Vec<JournaledArtifact>,
    /// Cell records, in execution order.
    pub cells: Vec<JournaledCell>,
    /// Whether a `run_end` record was seen.
    pub complete: bool,
}

impl ResumeState {
    /// The journaled artefact record for `key`, if any.
    pub fn artifact(&self, key: &str) -> Option<&JournaledArtifact> {
        self.artifacts.iter().find(|a| a.key == key)
    }
}

/// The field `key` of a JSON object; `None` for a missing key or a
/// non-object. It and the typed readers below also serve the trace and
/// counterexample parsers.
pub(crate) fn get<'v>(obj: &'v Value, key: &str) -> Option<&'v Value> {
    match obj {
        Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// The string field `key`, if present and a string.
pub(crate) fn get_str(obj: &Value, key: &str) -> Option<String> {
    match get(obj, key) {
        Some(Value::String(s)) => Some(s.clone()),
        _ => None,
    }
}

/// The non-negative integer field `key`, if present.
pub(crate) fn get_u64(obj: &Value, key: &str) -> Option<u64> {
    match get(obj, key) {
        Some(Value::UInt(n)) => Some(*n),
        Some(Value::Int(n)) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// Parse journal `content` into a [`ResumeState`].
///
/// Tolerant of truncation anywhere: parsing stops at the first line that is
/// not a complete, well-formed record, and everything before it is used.
/// Records of unknown kind are skipped (forward compatibility). A journal
/// whose `run_start` is missing or torn yields the default (empty) state —
/// nothing will verify, so nothing is skipped.
pub fn parse_journal(content: &str) -> ResumeState {
    let mut st = ResumeState::default();
    for line in content.split('\n') {
        if line.is_empty() {
            continue;
        }
        let Ok(v) = serde_json::from_str(line) else {
            break; // torn or corrupt tail: trust only the prefix
        };
        let Some(kind) = get_str(&v, "kind") else {
            break;
        };
        match kind.as_str() {
            "run_start" => {
                st.fingerprint = get_str(&v, "fingerprint").unwrap_or_default();
                st.scale = get_str(&v, "scale").unwrap_or_default();
                if let Some(Value::Array(items)) = get(&v, "items") {
                    st.items = items
                        .iter()
                        .filter_map(|i| match i {
                            Value::String(s) => Some(s.clone()),
                            _ => None,
                        })
                        .collect();
                }
            }
            "cell" => {
                let (Some(artefact), Some(label), Some(status)) =
                    (get_str(&v, "artefact"), get_str(&v, "label"), get_str(&v, "status"))
                else {
                    break;
                };
                st.cells.push(JournaledCell {
                    artefact,
                    label,
                    status,
                    attempts: get_u64(&v, "attempts").unwrap_or(0),
                });
            }
            "artifact" => {
                let (Some(key), Some(status)) = (get_str(&v, "key"), get_str(&v, "status")) else {
                    break;
                };
                let rec = JournaledArtifact {
                    stem: get_str(&v, "stem"),
                    bytes: get_u64(&v, "bytes").unwrap_or(0),
                    checksum: get_str(&v, "checksum"),
                    ok: status == "ok",
                    key,
                };
                // Last record per key wins: fsck appends repair records.
                if let Some(slot) = st.artifacts.iter_mut().find(|a| a.key == rec.key) {
                    *slot = rec;
                } else {
                    st.artifacts.push(rec);
                }
            }
            "run_end" => st.complete = true,
            _ => {} // unknown record kind: skip, keep reading
        }
    }
    st
}

/// Read and parse `dir/_journal.jsonl`. A missing journal is an empty state.
pub fn read_journal(dir: &Path) -> ResumeState {
    match std::fs::read_to_string(dir.join(JOURNAL_FILE)) {
        Ok(content) => parse_journal(&content),
        Err(_) => ResumeState::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bench_journal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn roundtrip_through_writer_and_reader() {
        let d = tmpdir("roundtrip");
        let items = strings(&["fig5", "hpl"]);
        let mut j = Journal::create(&d, &items, "golden").unwrap();
        // Older journals carry a `ckpt` record (the retired window-checkpoint
        // configuration) right after `run_start`; the reader must skip it
        // and keep every later record.
        j.append("{\"kind\":\"ckpt\",\"dir\":\"/tmp/out/_ckpt\",\"every\":8}").unwrap();
        j.cell("fig5", "fig5/tegra2", "ok", 1, 1.5, None).unwrap();
        j.cell("fig5", "fig5/tegra3", "recovered", 3, 4.0, None).unwrap();
        j.artifact_json("fig5", "fig5", 123, "00deadbeef001122", false).unwrap();
        j.cell("hpl", "hpl/n=4", "quarantined", 2, 9.0, Some("panic: boom")).unwrap();
        j.artifact_failed("hpl").unwrap();
        j.run_end(false).unwrap();

        let st = read_journal(&d);
        assert_eq!(st.fingerprint, run_fingerprint(&items, "golden"));
        assert_eq!(st.items, items);
        assert_eq!(st.scale, "golden");
        assert!(st.complete);
        assert_eq!(st.cells.len(), 3);
        assert_eq!(st.cells[1].attempts, 3);
        let fig5 = st.artifact("fig5").unwrap();
        assert!(fig5.ok);
        assert_eq!(fig5.stem.as_deref(), Some("fig5"));
        assert_eq!(fig5.checksum.as_deref(), Some("00deadbeef001122"));
        assert!(!st.artifact("hpl").unwrap().ok);
        assert_eq!(st.artifacts.len(), 2);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_tail_is_ignored() {
        let d = tmpdir("torn");
        let items = strings(&["all"]);
        let mut j = Journal::create(&d, &items, "quick").unwrap();
        j.artifact_json("fig1", "fig1", 10, "0000000000000001", false).unwrap();
        drop(j);
        // Simulate a SIGKILL mid-append: a torn half-record at the tail.
        let p = d.join(JOURNAL_FILE);
        let mut content = std::fs::read_to_string(&p).unwrap();
        content.push_str("{\"kind\":\"artifact\",\"key\":\"fig");
        std::fs::write(&p, &content).unwrap();

        let st = read_journal(&d);
        assert_eq!(st.fingerprint, run_fingerprint(&items, "quick"));
        assert_eq!(st.artifacts.len(), 1);
        assert!(!st.complete);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn repair_records_win_by_key() {
        let mut content = String::new();
        content.push_str("{\"kind\":\"artifact\",\"key\":\"fig6\",\"status\":\"failed\"}\n");
        content.push_str(
            "{\"kind\":\"artifact\",\"key\":\"fig6\",\"status\":\"ok\",\"stem\":\"fig6\",\"bytes\":5,\"checksum\":\"000000000000000a\",\"resumed\":false}\n",
        );
        let st = parse_journal(&content);
        assert_eq!(st.artifacts.len(), 1);
        assert!(st.artifacts[0].ok);
        assert_eq!(st.artifacts[0].bytes, 5);
    }

    #[test]
    fn missing_journal_is_empty_state() {
        let st = read_journal(Path::new("/nonexistent/nowhere"));
        assert!(st.fingerprint.is_empty());
        assert!(st.artifacts.is_empty());
        assert!(!st.complete);
    }

    #[test]
    fn fingerprint_separates_items_and_scales() {
        let a = run_fingerprint(&strings(&["all"]), "golden");
        let b = run_fingerprint(&strings(&["all"]), "quick");
        let c = run_fingerprint(&strings(&["fig5"]), "golden");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, run_fingerprint(&strings(&["all"]), "golden"));
    }
}
