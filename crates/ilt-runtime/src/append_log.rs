//! The workspace's one durable JSON Lines log: the checkpoint WAL and the
//! server state log are both an [`AppendLog`].
//!
//! The contract, in one place: a record is one line, made durable
//! (`write` + `sync_data`) before [`AppendLog::append`] returns; a crash can
//! therefore only tear the *final* line. [`AppendLog::replay`] drops exactly
//! that line, and [`AppendLog::open`] cuts it off before the first new
//! append — so a record is never glued onto a torn predecessor.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

use crate::json::{self, Value};

/// An append-only, fsynced JSON Lines file shared between threads.
pub struct AppendLog {
    file: Mutex<File>,
}

/// What [`AppendLog::replay`] read back.
#[derive(Debug)]
pub struct Replay {
    /// Every intact record, in file order.
    pub records: Vec<Value>,
    /// True when a torn final line was dropped.
    pub dropped_tail: bool,
}

impl AppendLog {
    /// Opens `path` for appending, creating it when absent. A file whose
    /// final line lacks its `\n` was torn by a crash mid-append: that line
    /// is cut off (or, when all of it but the newline made it to disk and
    /// it parses, terminated — the same verdict [`AppendLog::replay`]
    /// reaches) and the repair is synced before any new record lands.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors opening, reading or repairing the file.
    pub fn open(path: &Path) -> io::Result<AppendLog> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        let bytes = std::fs::read(path)?;
        let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        if complete < bytes.len() {
            if json::parse(&bytes[complete..]).is_ok() {
                file.write_all(b"\n")?;
            } else {
                file.set_len(complete as u64)?;
            }
            file.sync_data()?;
        }
        Ok(AppendLog { file: Mutex::new(file) })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, File> {
        self.file.lock().expect("append log lock poisoned")
    }

    /// Appends `line` plus `\n` and syncs it to disk before returning.
    /// Appends from different threads never interleave.
    ///
    /// # Errors
    ///
    /// Propagates the write or sync failure; the caller decides whether a
    /// lost record is fatal.
    pub fn append(&self, line: &str) -> io::Result<()> {
        let record = format!("{line}\n");
        let mut file = self.lock();
        file.write_all(record.as_bytes())?;
        file.sync_data()
    }

    /// Bytes in the log (0 if the file cannot be examined).
    pub fn len(&self) -> u64 {
        self.lock().metadata().map_or(0, |m| m.len())
    }

    /// True when the log holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `install` — typically the atomic write of a snapshot that
    /// supersedes the log — and, when it succeeds, empties the log. Both
    /// happen under the append lock, so no record can land in between and
    /// be lost. A crash in between leaves the snapshot *and* the full log.
    ///
    /// # Errors
    ///
    /// Returns `install`'s error (the log is left untouched) or the
    /// truncation's.
    pub fn truncate_after(&self, install: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        let file = self.lock();
        install()?;
        file.set_len(0)?;
        file.sync_data()
    }

    /// Reads every record of the log at `path` through the strict shared
    /// parser. Blank lines are skipped; a missing file is an empty log. With
    /// `tolerate_torn_tail` the final non-empty line — and only it — may
    /// fail to parse: it is the torn append of a crash, dropped and
    /// reported. Pass `false` for files written atomically, where any
    /// damage is real corruption.
    ///
    /// # Errors
    ///
    /// A message naming the file and line for an unreadable file or a
    /// corrupt line that is not a tolerated torn tail.
    pub fn replay(path: &Path, tolerate_torn_tail: bool) -> Result<Replay, String> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let lines: Vec<(usize, &[u8])> = bytes
            .split(|&b| b == b'\n')
            .enumerate()
            .filter(|(_, l)| !l.iter().all(u8::is_ascii_whitespace))
            .collect();
        let mut records = Vec::with_capacity(lines.len());
        for (nth, &(i, line)) in lines.iter().enumerate() {
            match json::parse(line) {
                Ok(value) => records.push(value),
                Err(_) if tolerate_torn_tail && nth + 1 == lines.len() => {
                    return Ok(Replay { records, dropped_tail: true });
                }
                Err(e) => {
                    return Err(format!("{} line {} is corrupt: {e}", path.display(), i + 1));
                }
            }
        }
        Ok(Replay { records, dropped_tail: false })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_log(tag: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("ilt-append-log-{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn append_replay_truncate_round_trip() {
        let path = temp_log("basic");
        assert!(AppendLog::replay(&path, false).unwrap().records.is_empty(), "missing = empty");
        let log = AppendLog::open(&path).unwrap();
        assert!(log.is_empty());
        log.append("{\"n\":1}").unwrap();
        log.append("{\"n\":2}").unwrap();
        assert_eq!(log.len(), 16);
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"n\":1}\n{\"n\":2}\n");
        let replay = AppendLog::replay(&path, false).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1].field_u64("n"), Ok(2));

        // A failed install leaves the log alone; a successful one empties it.
        assert!(log.truncate_after(|| Err(io::Error::other("no"))).is_err());
        assert_eq!(log.len(), 16);
        log.truncate_after(|| Ok(())).unwrap();
        assert!(log.is_empty());
        log.append("{\"n\":3}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"n\":3}\n");
        // Reopening an intact log continues it and knows its size.
        drop(log);
        assert_eq!(AppendLog::open(&path).unwrap().len(), 8);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn only_the_final_line_may_be_torn() {
        let path = temp_log("torn");
        std::fs::write(&path, "{\"n\":1}\n\n{\"n\":2}\n{\"n\":").unwrap();
        let replay = AppendLog::replay(&path, true).unwrap();
        assert!(replay.dropped_tail);
        assert_eq!(replay.records.len(), 2);
        let err = AppendLog::replay(&path, false).unwrap_err();
        assert!(err.contains("line 4 is corrupt"), "{err}");
        // The same damage before the end is corruption either way.
        std::fs::write(&path, "{\"n\":\n{\"n\":2}\n").unwrap();
        let err = AppendLog::replay(&path, true).unwrap_err();
        assert!(err.contains("line 1 is corrupt"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_never_glues_a_record_onto_a_torn_tail() {
        let path = temp_log("glue");
        // Torn mid-record: cut back to the last complete line.
        std::fs::write(&path, "{\"n\":1}\n{\"n\":").unwrap();
        let log = AppendLog::open(&path).unwrap();
        assert_eq!(log.len(), 8);
        log.append("{\"n\":3}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"n\":1}\n{\"n\":3}\n");
        drop(log);
        // Torn between a record and its newline: replay accepts that record,
        // so open keeps it too and only supplies the newline.
        std::fs::write(&path, "{\"n\":1}\n{\"n\":2}").unwrap();
        assert!(!AppendLog::replay(&path, true).unwrap().dropped_tail);
        let log = AppendLog::open(&path).unwrap();
        log.append("{\"n\":3}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"n\":1}\n{\"n\":2}\n{\"n\":3}\n");
        assert_eq!(log.len(), 24);
        // A file that is nothing but a torn first line empties out.
        drop(log);
        std::fs::write(&path, "{\"kind\":\"run_hea").unwrap();
        assert!(AppendLog::open(&path).unwrap().is_empty());
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        let _ = std::fs::remove_file(&path);
    }
}
