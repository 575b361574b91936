//! Streaming run-logs: an append-only, JSONL-chunked on-disk format
//! with bounded writer memory, and the workspace's one run-log format.
//!
//! Every run-log leaves the process as a `dms-runlog/1` directory: the
//! experiments' `--metrics-dir` logs (staged in a [`crate::RunLog`],
//! whose one renderer is [`stream_run_log`]), the socket driver's log
//! (streamed record by record as its engine steps), the benchmark's,
//! and the golden snapshots. [`RunLogWriter`] streams: records leave
//! the process as canonical single-line JSON the moment a bounded
//! buffer fills, so writer memory is O(buffer), not O(run).
//!
//! # On-disk layout
//!
//! A run-log is a *directory*:
//!
//! ```text
//! <dir>/meta.json        string metadata, sorted keys   (written first)
//! <dir>/chunk-00000.jsonl  one canonical record per line
//! <dir>/chunk-00001.jsonl  ... rotated every `chunk_records` records
//! <dir>/metrics.json     the MetricsRegistry snapshot  (written by finish)
//! <dir>/MANIFEST.json    format version + exact counts (written LAST)
//! ```
//!
//! `MANIFEST.json` is the clean-close marker: it is written only after
//! every chunk is flushed, so a crash mid-run leaves a directory with
//! no manifest and (at worst) one partial final line. [`RunLogReader`]
//! exploits that: every complete line of every chunk parses cleanly,
//! a partial *final* line is detected and reported (not an error), and
//! a torn line anywhere else — which append-only writing cannot
//! produce — is a hard error.
//!
//! # Canonicalisation
//!
//! Golden snapshots and the CI `DMS_THREADS` byte-diffs compare these
//! files byte for byte, so rendering is canonical:
//!
//! * each record is [`JsonValue::render_compact`] — no whitespace,
//!   fields in insertion order, floats via shortest-round-trip
//!   `Display` (a pure function of the bits) — followed by `\n`;
//! * `meta.json` and `metrics.json` are the pretty two-space form of
//!   [`JsonValue::render`], newline-terminated, keys sorted
//!   (`BTreeMap`) where the source map is sorted;
//! * chunk files rotate at a fixed record count, so identical record
//!   streams produce identical file sets.
//!
//! Two runs that compute identical values therefore produce
//! byte-identical directories — `diff -r` is the whole comparison.
//!
//! # Examples
//!
//! ```
//! use dms_sim::{MetricsRegistry, RunLogReader, RunLogWriter, RunRecord};
//!
//! let dir = std::env::temp_dir().join(format!("dms-runlog-doc-{}", std::process::id()));
//! let mut w = RunLogWriter::create(&dir).unwrap();
//! w.set_meta("experiment", "doc");
//! for slot in 0..3u64 {
//!     w.record(&RunRecord::new("row").at(slot).with("v", slot)).unwrap();
//! }
//! let mut reg = MetricsRegistry::new();
//! reg.counter_add("rows", 3);
//! let summary = w.finish(&reg).unwrap();
//! assert_eq!(summary.records, 3);
//!
//! let scan = RunLogReader::open(&dir).unwrap().read_all().unwrap();
//! assert!(scan.clean_close);
//! assert_eq!(scan.records.len(), 3);
//! assert_eq!(scan.meta.get("experiment").map(String::as_str), Some("doc"));
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::metrics::{JsonValue, MetricsRegistry, RunLog, RunRecord};

/// On-disk format tag carried in `MANIFEST.json`.
pub const RUNLOG_FORMAT: &str = "dms-runlog/1";

/// Default records per chunk before rotation.
pub const DEFAULT_CHUNK_RECORDS: u64 = 8192;

/// Default buffered bytes before a flush to the chunk file.
pub const DEFAULT_BUFFER_BYTES: usize = 64 * 1024;

fn chunk_name(index: u32) -> String {
    format!("chunk-{index:05}.jsonl")
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Exact counts reported by [`RunLogWriter::finish`] (and recorded in
/// `MANIFEST.json`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLogSummary {
    /// Chunk files written (possibly zero).
    pub chunks: u32,
    /// Records written across all chunks.
    pub records: u64,
}

/// Streaming writer for the JSONL-chunked run-log format.
///
/// See the module docs for the layout and canonicalisation rules.
/// Memory held is the metadata map plus at most `buffer_bytes` of
/// pending lines — independent of how many records the run emits.
#[derive(Debug)]
pub struct RunLogWriter {
    dir: PathBuf,
    meta: BTreeMap<String, String>,
    meta_written: bool,
    buf: String,
    file: Option<File>,
    chunk_records: u64,
    buffer_bytes: usize,
    records_in_chunk: u64,
    chunks: u32,
    records: u64,
}

impl RunLogWriter {
    /// Creates `dir` (and parents) and prepares a fresh run-log in it,
    /// removing any files a previous run-log left there so the
    /// directory's final content is exactly this run's.
    ///
    /// # Errors
    ///
    /// Any I/O error creating the directory or clearing stale files.
    pub fn create(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let stale = name == "meta.json"
                || name == "metrics.json"
                || name == "MANIFEST.json"
                || (name.starts_with("chunk-") && name.ends_with(".jsonl"));
            if stale {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(RunLogWriter {
            dir,
            meta: BTreeMap::new(),
            meta_written: false,
            buf: String::new(),
            file: None,
            chunk_records: DEFAULT_CHUNK_RECORDS,
            buffer_bytes: DEFAULT_BUFFER_BYTES,
            records_in_chunk: 0,
            chunks: 0,
            records: 0,
        })
    }

    /// Sets the chunk-rotation record count (must be positive).
    #[must_use]
    pub fn with_chunk_records(mut self, records: u64) -> Self {
        assert!(records > 0, "chunk size must be positive");
        self.chunk_records = records;
        self
    }

    /// Sets the flush threshold in buffered bytes.
    ///
    /// Test access: the `runlog_io` tests flush every record through it
    /// to tear a run-log at any byte.
    #[must_use]
    pub fn with_buffer_bytes(mut self, bytes: usize) -> Self {
        self.buffer_bytes = bytes.max(1);
        self
    }

    /// Sets (or replaces) a metadata entry. Metadata is frozen — and
    /// `meta.json` written — at the first [`record`]; later calls
    /// panic rather than silently diverge from the file on disk.
    ///
    /// # Panics
    ///
    /// Panics if a record has already been written.
    ///
    /// [`record`]: RunLogWriter::record
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        assert!(
            !self.meta_written,
            "metadata is frozen once the first record is written"
        );
        self.meta.insert(key.into(), value.into());
    }

    fn meta_json(&self) -> JsonValue {
        JsonValue::Object(
            self.meta
                .iter()
                .map(|(k, v)| (k.clone(), JsonValue::from(v.as_str())))
                .collect(),
        )
    }

    fn write_meta_if_needed(&mut self) -> io::Result<()> {
        if !self.meta_written {
            let mut text = self.meta_json().render();
            text.push('\n');
            fs::write(self.dir.join("meta.json"), text)?;
            self.meta_written = true;
        }
        Ok(())
    }

    fn flush_buf(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let file = match &mut self.file {
            Some(f) => f,
            None => {
                let path = self.dir.join(chunk_name(self.chunks));
                self.chunks += 1;
                self.file = Some(File::create(path)?);
                self.file.as_mut().expect("just created")
            }
        };
        file.write_all(self.buf.as_bytes())?;
        self.buf.clear();
        Ok(())
    }

    /// Appends one record as a canonical JSONL line.
    ///
    /// # Errors
    ///
    /// Any I/O error flushing the bounded buffer or rotating chunks.
    pub fn record(&mut self, record: &RunRecord) -> io::Result<()> {
        self.write_meta_if_needed()?;
        if self.records_in_chunk == self.chunk_records {
            // Rotate: flush what belongs to the current chunk, then
            // drop the handle so the next flush opens the next file.
            self.flush_buf()?;
            self.file = None;
            self.records_in_chunk = 0;
        }
        record.render_compact_into(&mut self.buf);
        self.buf.push('\n');
        self.records_in_chunk += 1;
        self.records += 1;
        if self.buf.len() >= self.buffer_bytes {
            self.flush_buf()?;
        }
        Ok(())
    }

    /// Flushes everything, writes `metrics.json` from `registry`, and
    /// writes `MANIFEST.json` last as the clean-close marker.
    ///
    /// # Errors
    ///
    /// Any I/O error on the final flush or file writes.
    pub fn finish(mut self, registry: &MetricsRegistry) -> io::Result<RunLogSummary> {
        self.write_meta_if_needed()?;
        self.flush_buf()?;
        self.file = None;
        let mut metrics = registry.to_json().render();
        metrics.push('\n');
        fs::write(self.dir.join("metrics.json"), metrics)?;
        let manifest = JsonValue::Object(vec![
            ("format".to_string(), JsonValue::from(RUNLOG_FORMAT)),
            (
                "chunks".to_string(),
                JsonValue::Uint(u64::from(self.chunks)),
            ),
            ("records".to_string(), JsonValue::Uint(self.records)),
            (
                "chunk_records".to_string(),
                JsonValue::Uint(self.chunk_records),
            ),
        ]);
        let mut text = manifest.render();
        text.push('\n');
        fs::write(self.dir.join("MANIFEST.json"), text)?;
        Ok(RunLogSummary {
            chunks: self.chunks,
            records: self.records,
        })
    }
}

/// Streams an in-memory [`RunLog`] into the chunked on-disk format:
/// meta, then every record, then the registry. A `RunLog`'s one
/// renderer, used by the experiments driver, whose logs are bounded by
/// their grids; code that records as it runs writes through
/// [`RunLogWriter`] directly.
///
/// # Errors
///
/// Any I/O error from the underlying writer.
pub fn stream_run_log(log: &RunLog, dir: impl AsRef<Path>) -> io::Result<RunLogSummary> {
    let mut writer = RunLogWriter::create(dir)?;
    for (key, value) in log.meta_entries() {
        writer.set_meta(key, value);
    }
    for record in log.records() {
        writer.record(record)?;
    }
    writer.finish(log.registry())
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// How a run-log directory's record stream ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailState {
    /// Manifest present, counts match, every line complete.
    Clean,
    /// No manifest (or counts mismatched) but every present line is
    /// complete — e.g. a crash between chunk flushes.
    MissingManifest,
    /// The final line of the final chunk is torn; `complete_records`
    /// earlier records parsed cleanly.
    TruncatedTail {
        /// The chunk file holding the partial line.
        chunk: String,
        /// Records recovered before the tear.
        complete_records: u64,
    },
}

/// Everything read back from a run-log directory.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLogScan {
    /// `meta.json` contents.
    pub meta: BTreeMap<String, String>,
    /// Every complete record, in write order.
    pub records: Vec<JsonValue>,
    /// `metrics.json` contents, if the run closed far enough to write it.
    pub metrics: Option<JsonValue>,
    /// How the stream ended.
    pub tail: TailState,
    /// Whether the directory carries a matching clean-close manifest.
    pub clean_close: bool,
}

/// Reader for the chunked run-log format: iterates chunk files in
/// order, holding one chunk in memory at a time.
#[derive(Debug)]
pub struct RunLogReader {
    dir: PathBuf,
    chunk_files: Vec<String>,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl RunLogReader {
    /// Opens a run-log directory and discovers its chunk files.
    ///
    /// # Errors
    ///
    /// I/O errors listing the directory; `InvalidData` if it has no
    /// `meta.json` (the file written before any record).
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        if !dir.join("meta.json").is_file() {
            return Err(invalid(format!(
                "{}: not a run-log directory (no meta.json)",
                dir.display()
            )));
        }
        let mut chunk_files: Vec<String> = fs::read_dir(&dir)?
            .filter_map(Result::ok)
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("chunk-") && n.ends_with(".jsonl"))
            .collect();
        chunk_files.sort(); // zero-padded indices sort numerically
        Ok(RunLogReader { dir, chunk_files })
    }

    /// The chunk file names in stream order.
    #[must_use]
    pub fn chunk_files(&self) -> &[String] {
        &self.chunk_files
    }

    /// Parses `meta.json` into a sorted map.
    ///
    /// # Errors
    ///
    /// I/O reading the file; `InvalidData` if it is not a string map.
    pub fn meta(&self) -> io::Result<BTreeMap<String, String>> {
        let text = fs::read_to_string(self.dir.join("meta.json"))?;
        let value = JsonValue::parse(&text).map_err(|e| invalid(format!("meta.json: {e}")))?;
        let JsonValue::Object(fields) = value else {
            return Err(invalid("meta.json: not an object".to_string()));
        };
        let mut meta = BTreeMap::new();
        for (key, value) in fields {
            let JsonValue::Str(s) = value else {
                return Err(invalid(format!("meta.json: non-string value for {key}")));
            };
            meta.insert(key, s);
        }
        Ok(meta)
    }

    /// Streams every record through `f`, returning the tail state.
    ///
    /// Complete lines always parse (or the scan fails with
    /// `InvalidData`): the writer is append-only, so a torn line can
    /// only be the *final* line of the *final* chunk — anywhere else
    /// it is corruption, reported as an error rather than skipped.
    ///
    /// # Errors
    ///
    /// I/O reading chunks; `InvalidData` on a malformed non-final line.
    pub fn for_each_record(&self, mut f: impl FnMut(JsonValue)) -> io::Result<TailState> {
        let mut complete: u64 = 0;
        for (ci, name) in self.chunk_files.iter().enumerate() {
            let last_chunk = ci + 1 == self.chunk_files.len();
            let mut text = String::new();
            File::open(self.dir.join(name))?.read_to_string(&mut text)?;
            let mut rest = text.as_str();
            while !rest.is_empty() {
                let (line, complete_line, tail) = match rest.find('\n') {
                    Some(at) => (&rest[..at], true, &rest[at + 1..]),
                    None => (rest, false, ""),
                };
                let parsed = JsonValue::parse(line);
                let final_line = tail.is_empty() && last_chunk;
                match parsed {
                    Ok(value) if complete_line => {
                        complete += 1;
                        f(value);
                    }
                    // A parseable prefix without its newline is still
                    // a torn write: the writer terminates every line.
                    Ok(_) | Err(_) if final_line => {
                        return Ok(TailState::TruncatedTail {
                            chunk: name.clone(),
                            complete_records: complete,
                        });
                    }
                    Ok(_) | Err(_) => {
                        return Err(invalid(format!(
                            "{name}: malformed record mid-stream (line after {complete} records)"
                        )));
                    }
                }
                rest = tail;
            }
        }
        // All lines complete: clean iff the manifest agrees.
        match self.manifest()? {
            Some((chunks, records))
                if chunks == self.chunk_files.len() as u64 && records == complete =>
            {
                Ok(TailState::Clean)
            }
            _ => Ok(TailState::MissingManifest),
        }
    }

    /// Parses `MANIFEST.json` if present: `(chunks, records)`.
    ///
    /// # Errors
    ///
    /// I/O reading the file; `InvalidData` if present but malformed.
    pub fn manifest(&self) -> io::Result<Option<(u64, u64)>> {
        let path = self.dir.join("MANIFEST.json");
        if !path.is_file() {
            return Ok(None);
        }
        let text = fs::read_to_string(path)?;
        let value = JsonValue::parse(&text).map_err(|e| invalid(format!("MANIFEST.json: {e}")))?;
        let format = value.get("format").and_then(JsonValue::as_str);
        if format != Some(RUNLOG_FORMAT) {
            return Err(invalid(format!("MANIFEST.json: unknown format {format:?}")));
        }
        let chunks = value.get("chunks").and_then(JsonValue::as_f64);
        let records = value.get("records").and_then(JsonValue::as_f64);
        match (chunks, records) {
            (Some(c), Some(r)) => Ok(Some((c as u64, r as u64))),
            _ => Err(invalid("MANIFEST.json: missing counts".to_string())),
        }
    }

    /// Reads the whole run-log into memory (tooling convenience; code
    /// on the E15 scale should use [`for_each_record`]).
    ///
    /// # Errors
    ///
    /// As [`for_each_record`], plus `metrics.json` parse errors.
    ///
    /// [`for_each_record`]: RunLogReader::for_each_record
    pub fn read_all(&self) -> io::Result<RunLogScan> {
        let meta = self.meta()?;
        let mut records = Vec::new();
        let tail = self.for_each_record(|v| records.push(v))?;
        let metrics_path = self.dir.join("metrics.json");
        let metrics = if metrics_path.is_file() {
            let text = fs::read_to_string(metrics_path)?;
            Some(JsonValue::parse(&text).map_err(|e| invalid(format!("metrics.json: {e}")))?)
        } else {
            None
        };
        let clean_close = tail == TailState::Clean;
        Ok(RunLogScan {
            meta,
            records,
            metrics,
            tail,
            clean_close,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dms-runlog-{tag}-{}", std::process::id()))
    }

    fn sample_records(n: u64) -> Vec<RunRecord> {
        (0..n)
            .map(|i| {
                RunRecord::new("row")
                    .at(i)
                    .with("value", i as f64 * 0.5)
                    .with("label", format!("r{i}"))
            })
            .collect()
    }

    #[test]
    fn writer_round_trips_records_and_meta() {
        let dir = temp_dir("roundtrip");
        let mut w = RunLogWriter::create(&dir).expect("create");
        w.set_meta("experiment", "unit");
        w.set_meta("arm", "server");
        let records = sample_records(10);
        for r in &records {
            w.record(r).expect("record");
        }
        let mut reg = MetricsRegistry::new();
        reg.counter_add("rows", 10);
        let summary = w.finish(&reg).expect("finish");
        assert_eq!(
            summary,
            RunLogSummary {
                chunks: 1,
                records: 10
            }
        );

        let scan = RunLogReader::open(&dir)
            .expect("open")
            .read_all()
            .expect("read");
        assert!(scan.clean_close);
        assert_eq!(scan.tail, TailState::Clean);
        assert_eq!(scan.records.len(), 10);
        assert_eq!(scan.meta.get("arm").map(String::as_str), Some("server"));
        assert_eq!(
            scan.records[3].get("slot").and_then(JsonValue::as_f64),
            Some(3.0)
        );
        assert_eq!(
            scan.metrics
                .as_ref()
                .and_then(|m| m.get("rows"))
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64),
            Some(10.0)
        );
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn chunks_rotate_at_the_record_bound() {
        let dir = temp_dir("rotate");
        let mut w = RunLogWriter::create(&dir)
            .expect("create")
            .with_chunk_records(4)
            .with_buffer_bytes(16);
        for r in sample_records(10) {
            w.record(&r).expect("record");
        }
        let summary = w.finish(&MetricsRegistry::new()).expect("finish");
        assert_eq!(
            summary,
            RunLogSummary {
                chunks: 3,
                records: 10
            }
        );
        let reader = RunLogReader::open(&dir).expect("open");
        assert_eq!(
            reader.chunk_files(),
            &[
                "chunk-00000.jsonl",
                "chunk-00001.jsonl",
                "chunk-00002.jsonl"
            ]
        );
        let mut seen = 0u64;
        let tail = reader.for_each_record(|_| seen += 1).expect("scan");
        assert_eq!((seen, tail), (10, TailState::Clean));
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn create_clears_stale_run_log_files() {
        let dir = temp_dir("stale");
        fs::create_dir_all(&dir).expect("mkdir");
        fs::write(dir.join("chunk-00042.jsonl"), "{}\n").expect("stale chunk");
        fs::write(dir.join("MANIFEST.json"), "{}\n").expect("stale manifest");
        fs::write(dir.join("unrelated.txt"), "keep me").expect("bystander");
        let mut w = RunLogWriter::create(&dir).expect("create");
        w.record(&RunRecord::new("row")).expect("record");
        w.finish(&MetricsRegistry::new()).expect("finish");
        assert!(
            !dir.join("chunk-00042.jsonl").exists(),
            "stale chunk removed"
        );
        assert!(dir.join("unrelated.txt").exists(), "bystanders survive");
        let scan = RunLogReader::open(&dir)
            .expect("open")
            .read_all()
            .expect("read");
        assert!(scan.clean_close);
        assert_eq!(scan.records.len(), 1);
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn records_are_single_canonical_lines() {
        let dir = temp_dir("canonical");
        let mut w = RunLogWriter::create(&dir).expect("create");
        // A newline inside a string must stay escaped in JSONL.
        w.record(&RunRecord::new("row").with("s", "a\nb").with("x", 0.25))
            .expect("record");
        w.finish(&MetricsRegistry::new()).expect("finish");
        let text = fs::read_to_string(dir.join("chunk-00000.jsonl")).expect("read");
        assert_eq!(
            text,
            "{\"kind\":\"row\",\"fields\":{\"s\":\"a\\nb\",\"x\":0.25}}\n"
        );
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn meta_after_first_record_panics() {
        let dir = temp_dir("frozen");
        let result = std::panic::catch_unwind(|| {
            let mut w = RunLogWriter::create(&dir).expect("create");
            w.record(&RunRecord::new("row")).expect("record");
            w.set_meta("too", "late");
        });
        // Remove the directory before asserting, so neither outcome
        // leaves it behind.
        std::fs::remove_dir_all(&dir).ok();
        let payload = result.expect_err("set_meta after a record must panic");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("frozen"), "panic message: {message:?}");
    }

    #[test]
    fn stream_run_log_matches_manual_writer() {
        let dir_a = temp_dir("bridge-a");
        let dir_b = temp_dir("bridge-b");
        let mut log = RunLog::new();
        log.set_meta("experiment", "bridge");
        log.registry_mut().counter_add("n", 2);
        log.push(RunRecord::new("row").at(0).with("v", 1u64));
        log.push(RunRecord::new("row").at(1).with("v", 2u64));
        stream_run_log(&log, &dir_a).expect("stream");

        let mut w = RunLogWriter::create(&dir_b).expect("create");
        w.set_meta("experiment", "bridge");
        for r in log.records() {
            w.record(r).expect("record");
        }
        w.finish(log.registry()).expect("finish");

        for name in [
            "meta.json",
            "chunk-00000.jsonl",
            "metrics.json",
            "MANIFEST.json",
        ] {
            let a = fs::read(dir_a.join(name)).expect("a");
            let b = fs::read(dir_b.join(name)).expect("b");
            assert_eq!(a, b, "{name} differs");
        }
        fs::remove_dir_all(&dir_a).expect("cleanup");
        fs::remove_dir_all(&dir_b).expect("cleanup");
    }
}
