//! The session journal: the storage container binding a session's WAL
//! and its periodic snapshots.
//!
//! Two backends share one API: an **in-memory** store (used by tests,
//! which simulate a mid-run kill by truncating it at a batch boundary
//! and resuming from what is left) and a **directory** store for
//! persistence across real process death. All mutators return
//! `io::Result`; the in-memory backend never fails.
//!
//! The directory store holds two append-only files:
//!
//! * `wal.jsonl` — one JSON line per WAL record;
//! * `snapshots.bin` — one frame per snapshot, laid out as
//!   `batch u64 LE | len u64 LE | crc32 u32 LE | bytes`. The CRC-32
//!   (IEEE 802.3) covers the batch, the length and the payload.
//!
//! Each file is opened for append on its first write and the handle is
//! kept. A WAL record (line plus `\n`) and a snapshot frame each go out
//! as a single `write_all`, with nothing buffered across records: when
//! an append returns, the record is in the file.
//!
//! [`SessionJournal::latest_snapshot`] returns the highest-batch frame
//! whose CRC matches, so a torn or corrupt frame falls back to the one
//! before it. That is safe because the WAL is complete and a resume
//! replays every record after the chosen batch. `snap-<batch>.bin` files
//! of the older one-file-per-snapshot layout are ignored: a journal that
//! holds only those resumes by replaying its whole WAL.

use crate::wal::WalRecord;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

const WAL_FILE: &str = "wal.jsonl";
const SNAPSHOT_FILE: &str = "snapshots.bin";
/// Bytes of a snapshot frame ahead of its payload: batch, length, CRC.
const FRAME_HEADER: usize = 20;

/// A session's persisted recovery state: an append-only WAL plus the
/// snapshots taken at batch boundaries. A clone of a directory journal
/// names the same directory and opens its own handles on first append.
#[derive(Debug, Clone)]
pub struct SessionJournal {
    store: Store,
}

/// One in-memory WAL entry. Typed records are kept as structs and
/// serialised lazily on read: the append sits on the session hot path,
/// and for a process-memory store eager stringification buys no
/// durability — it only costs the overhead gate its budget. Raw lines
/// come from [`SessionJournal::append_wal`] (tests inject torn lines to
/// exercise recovery).
#[derive(Debug, Clone)]
enum Line {
    Raw(String),
    Rec(WalRecord),
}

impl Line {
    fn render(&self) -> String {
        match self {
            Line::Raw(s) => s.clone(),
            Line::Rec(r) => r.to_line(),
        }
    }

    fn is_header(&self) -> bool {
        match self {
            Line::Raw(s) => raw_is_header(s),
            Line::Rec(r) => matches!(r, WalRecord::Header(_)),
        }
    }

    fn batch_id(&self) -> Option<u64> {
        match self {
            Line::Raw(s) => raw_batch_id(s),
            Line::Rec(WalRecord::Batch(b)) => Some(b.batch),
            Line::Rec(WalRecord::Exploit(e)) => Some(e.batch),
            Line::Rec(WalRecord::Header(_)) => None,
        }
    }
}

fn raw_is_header(line: &str) -> bool {
    line.starts_with("{\"t\":\"hdr\"")
}

fn raw_batch_id(line: &str) -> Option<u64> {
    line.split("\"b\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|b| b.trim().parse::<u64>().ok())
}

/// Where a kill after `records` non-header WAL entries cuts `entries`:
/// the length of the surviving prefix, the non-header entries in it,
/// and the highest batch id among them.
fn kill_point<T>(
    entries: &[T],
    records: usize,
    is_header: impl Fn(&T) -> bool,
    batch_id: impl Fn(&T) -> Option<u64>,
) -> (usize, usize, u64) {
    let (mut kept, mut non_header, mut max_batch) = (0, 0, 0);
    for entry in entries {
        if !is_header(entry) {
            if non_header == records {
                break;
            }
            non_header += 1;
            if let Some(b) = batch_id(entry) {
                max_batch = max_batch.max(b);
            }
        }
        kept += 1;
    }
    (kept, non_header, max_batch)
}

#[derive(Debug, Clone)]
enum Store {
    Memory {
        wal: Vec<Line>,
        snapshots: Vec<(u64, Vec<u8>)>,
    },
    Dir(DirStore),
}

/// The directory backend: its path plus the append handles of its two
/// files, each opened on first use.
#[derive(Debug)]
struct DirStore {
    dir: PathBuf,
    wal: Option<File>,
    snapshots: Option<File>,
}

impl Clone for DirStore {
    fn clone(&self) -> Self {
        DirStore {
            dir: self.dir.clone(),
            wal: None,
            snapshots: None,
        }
    }
}

/// Treats a missing file as empty.
fn or_empty<T: Default>(read: io::Result<T>) -> io::Result<T> {
    match read {
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(T::default()),
        other => other,
    }
}

impl DirStore {
    fn read_wal(&self) -> io::Result<String> {
        or_empty(fs::read_to_string(self.dir.join(WAL_FILE)))
    }

    fn read_snapshots(&self) -> io::Result<Vec<u8>> {
        or_empty(fs::read(self.dir.join(SNAPSHOT_FILE)))
    }

    /// Writes `bytes` to the end of the WAL in one `write_all`.
    fn append_wal(&mut self, bytes: &[u8]) -> io::Result<()> {
        append(&mut self.wal, &self.dir, WAL_FILE, bytes)
    }

    /// Keeps the first `wal_lines` lines of the WAL `text`, the last of
    /// them newline-terminated, and the snapshot frames before the first
    /// one past `max_batch` or the first torn one. Cuts use `set_len`,
    /// so the bytes kept are never rewritten.
    fn keep(&mut self, text: &str, wal_lines: usize, max_batch: u64) -> io::Result<()> {
        let keep: usize = text
            .split_inclusive('\n')
            .take(wal_lines)
            .map(str::len)
            .sum();
        if keep < text.len() {
            self.wal = None;
            cut(&self.dir, WAL_FILE, keep)?;
        }
        if keep > 0 && !text[..keep].ends_with('\n') {
            self.append_wal(b"\n")?;
        }
        let log = self.read_snapshots()?;
        let mut frames = Frames::new(&log);
        let end = frames
            .find(|f| f.batch > max_batch)
            .map_or(frames.end, |f| f.at);
        if end < log.len() {
            self.snapshots = None;
            cut(&self.dir, SNAPSHOT_FILE, end)?;
        }
        Ok(())
    }
}

/// Writes `bytes` to the end of `dir/name` in one `write_all`, opening
/// the file for append into `handle` on first use.
fn append(handle: &mut Option<File>, dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
    let file = match handle {
        Some(file) => file,
        None => handle.insert(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(name))?,
        ),
    };
    file.write_all(bytes)
}

fn cut(dir: &Path, name: &str, len: usize) -> io::Result<()> {
    OpenOptions::new()
        .write(true)
        .open(dir.join(name))?
        .set_len(len as u64)
}

/// CRC-32 lookup table for the reflected IEEE 802.3 polynomial.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// The IEEE CRC-32 of `parts` taken as one contiguous buffer.
fn crc32(parts: &[&[u8]]) -> u32 {
    let mut crc = !0u32;
    for &part in parts {
        for &byte in part {
            crc = CRC_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
        }
    }
    !crc
}

/// One frame of a snapshot log, borrowed from the log's bytes.
struct Frame<'a> {
    /// Byte offset of the frame in the log.
    at: usize,
    batch: u64,
    /// The batch and length words the CRC covers.
    head: &'a [u8],
    crc: u32,
    bytes: &'a [u8],
}

impl Frame<'_> {
    fn intact(&self) -> bool {
        crc32(&[self.head, self.bytes]) == self.crc
    }
}

/// Walks the frames of a snapshot log in order, stopping at the first
/// one that does not fit in the log (a torn tail); `end` is then the
/// length of the well-framed prefix.
struct Frames<'a> {
    log: &'a [u8],
    end: usize,
}

impl<'a> Frames<'a> {
    fn new(log: &'a [u8]) -> Self {
        Frames { log, end: 0 }
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Frame<'a>;

    fn next(&mut self) -> Option<Frame<'a>> {
        let rest = &self.log[self.end..];
        let (header, payload) = rest.split_first_chunk::<FRAME_HEADER>()?;
        let (head, crc) = header.split_at(16);
        let word =
            |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().expect("8-byte frame word"));
        let len = usize::try_from(word(8))
            .ok()
            .filter(|&len| len <= payload.len())?;
        let frame = Frame {
            at: self.end,
            batch: word(0),
            head,
            crc: u32::from_le_bytes(crc.try_into().expect("4-byte frame CRC")),
            bytes: &payload[..len],
        };
        self.end += FRAME_HEADER + len;
        Some(frame)
    }
}

impl SessionJournal {
    /// An in-memory journal (lives and dies with the process; the test
    /// backend).
    pub fn in_memory() -> Self {
        SessionJournal {
            store: Store::Memory {
                wal: Vec::new(),
                snapshots: Vec::new(),
            },
        }
    }

    /// A directory-backed journal at `dir` (created if missing):
    /// `wal.jsonl` plus the snapshot log `snapshots.bin`.
    pub fn at_dir(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SessionJournal {
            store: Store::Dir(DirStore {
                dir,
                wal: None,
                snapshots: None,
            }),
        })
    }

    /// Whether the journal holds no WAL lines (a fresh session).
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.wal_lines()?.is_empty())
    }

    /// Appends one WAL line.
    pub fn append_wal(&mut self, line: &str) -> io::Result<()> {
        debug_assert!(!line.contains('\n'));
        match &mut self.store {
            Store::Memory { wal, .. } => {
                wal.push(Line::Raw(line.to_owned()));
                Ok(())
            }
            Store::Dir(d) => {
                let mut text = String::with_capacity(line.len() + 1);
                text.push_str(line);
                text.push('\n');
                d.append_wal(text.as_bytes())
            }
        }
    }

    /// Appends one typed WAL record. The in-memory backend stores the
    /// record as-is (a move) and serialises lazily on read; the
    /// directory backend serialises and writes immediately — the write
    /// is what makes the record durable there.
    pub fn append_record(&mut self, rec: WalRecord) -> io::Result<()> {
        match &mut self.store {
            Store::Memory { wal, .. } => {
                wal.push(Line::Rec(rec));
                Ok(())
            }
            Store::Dir(d) => {
                let mut line = rec.to_line();
                line.push('\n');
                d.append_wal(line.as_bytes())
            }
        }
    }

    /// All WAL lines, in append order.
    pub fn wal_lines(&self) -> io::Result<Vec<String>> {
        match &self.store {
            Store::Memory { wal, .. } => Ok(wal.iter().map(Line::render).collect()),
            Store::Dir(d) => Ok(d.read_wal()?.lines().map(str::to_owned).collect()),
        }
    }

    /// Stores the snapshot taken after `batch` committed.
    pub fn put_snapshot(&mut self, batch: u64, bytes: &[u8]) -> io::Result<()> {
        match &mut self.store {
            Store::Memory { snapshots, .. } => {
                snapshots.retain(|(b, _)| *b != batch);
                snapshots.push((batch, bytes.to_vec()));
                Ok(())
            }
            Store::Dir(d) => {
                let mut frame = Vec::with_capacity(FRAME_HEADER + bytes.len());
                frame.extend_from_slice(&batch.to_le_bytes());
                frame.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
                let crc = crc32(&[&frame, bytes]);
                frame.extend_from_slice(&crc.to_le_bytes());
                frame.extend_from_slice(bytes);
                append(&mut d.snapshots, &d.dir, SNAPSHOT_FILE, &frame)
            }
        }
    }

    /// The snapshot with the highest batch id, if any. In a directory
    /// journal that is the highest-batch frame whose CRC matches.
    pub fn latest_snapshot(&self) -> io::Result<Option<(u64, Vec<u8>)>> {
        match &self.store {
            Store::Memory { snapshots, .. } => Ok(snapshots
                .iter()
                .max_by_key(|(b, _)| *b)
                .map(|(b, bytes)| (*b, bytes.clone()))),
            Store::Dir(d) => {
                let log = d.read_snapshots()?;
                let mut frames: Vec<Frame> = Frames::new(&log).collect();
                // stable: of two frames for one batch the later wins
                frames.sort_by_key(|f| f.batch);
                Ok(frames
                    .iter()
                    .rev()
                    .find(|f| f.intact())
                    .map(|f| (f.batch, f.bytes.to_vec())))
            }
        }
    }

    /// Simulates a kill at a batch boundary: keeps the header plus the
    /// first `records` non-header WAL lines and drops any snapshot taken
    /// after the surviving prefix. Returns the number of non-header
    /// records kept.
    pub fn truncate_records(&mut self, records: usize) -> io::Result<usize> {
        match &mut self.store {
            Store::Memory { wal, snapshots } => {
                let (kept, non_header, max_batch) =
                    kill_point(wal, records, Line::is_header, Line::batch_id);
                wal.truncate(kept);
                snapshots.retain(|(b, _)| *b <= max_batch);
                Ok(non_header)
            }
            Store::Dir(d) => {
                let text = d.read_wal()?;
                let lines: Vec<&str> = text.lines().collect();
                let (kept, non_header, max_batch) =
                    kill_point(&lines, records, |l| raw_is_header(l), |l| raw_batch_id(l));
                d.keep(&text, kept, max_batch)?;
                Ok(non_header)
            }
        }
    }

    /// Readies a resumed journal for appends: keeps its first
    /// `wal_lines` WAL lines (the ones recovery accepted), ends the last
    /// of them with a newline, and cuts a torn frame off the end of the
    /// snapshot log, so nothing appended later fuses with a torn record.
    pub fn cut_torn_tail(&mut self, wal_lines: usize) -> io::Result<()> {
        match &mut self.store {
            Store::Memory { wal, .. } => {
                wal.truncate(wal_lines);
                Ok(())
            }
            Store::Dir(d) => {
                let text = d.read_wal()?;
                d.keep(&text, wal_lines, u64::MAX)
            }
        }
    }

    /// Total serialised size: WAL bytes plus snapshot payload bytes
    /// (frame headers not counted). Used by the recovery experiment to
    /// report deterministic storage overhead.
    pub fn size_bytes(&self) -> io::Result<(usize, usize)> {
        let wal: usize = self.wal_lines()?.iter().map(|l| l.len() + 1).sum();
        let snaps = match &self.store {
            Store::Memory { snapshots, .. } => snapshots.iter().map(|(_, b)| b.len()).sum(),
            Store::Dir(d) => Frames::new(&d.read_snapshots()?)
                .map(|f| f.bytes.len())
                .sum(),
        };
        Ok((wal, snaps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(journal: &mut SessionJournal) {
        assert!(journal.is_empty().unwrap());
        journal.append_wal("{\"t\":\"hdr\",\"v\":1}").unwrap();
        journal.append_wal("{\"t\":\"batch\",\"b\":1}").unwrap();
        journal.append_wal("{\"t\":\"batch\",\"b\":2}").unwrap();
        journal.append_wal("{\"t\":\"batch\",\"b\":3}").unwrap();
        journal.put_snapshot(2, b"two").unwrap();
        journal.put_snapshot(3, b"three").unwrap();
        assert_eq!(journal.wal_lines().unwrap().len(), 4);
        let (b, bytes) = journal.latest_snapshot().unwrap().unwrap();
        assert_eq!((b, bytes.as_slice()), (3, b"three".as_slice()));

        // kill after batch 2: batch-3 record and snapshot vanish
        assert_eq!(journal.truncate_records(2).unwrap(), 2);
        let lines = journal.wal_lines().unwrap();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].contains("\"b\":2"));
        let (b, _) = journal.latest_snapshot().unwrap().unwrap();
        assert_eq!(b, 2);
        let (wal_bytes, snap_bytes) = journal.size_bytes().unwrap();
        assert!(wal_bytes > 0 && snap_bytes == 3);
    }

    #[test]
    fn memory_backend() {
        exercise(&mut SessionJournal::in_memory());
    }

    /// A fresh directory private to one test.
    fn temp_dir(test: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("harmony-journal-{test}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn dir_backend() {
        let dir = temp_dir("backend");
        exercise(&mut SessionJournal::at_dir(&dir).unwrap());
        // a reopened journal sees the same state
        let reopened = SessionJournal::at_dir(&dir).unwrap();
        assert_eq!(reopened.wal_lines().unwrap().len(), 3);
        assert_eq!(reopened.latest_snapshot().unwrap().unwrap().0, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[]), 0);
    }

    /// A dir journal with snapshots at batches 2, 4 and 6; returns it
    /// with the log's length after each frame.
    fn three_frames(dir: &Path) -> (SessionJournal, [u64; 3]) {
        let mut journal = SessionJournal::at_dir(dir).unwrap();
        journal.append_wal("{\"t\":\"hdr\",\"v\":1}").unwrap();
        let mut ends = [0; 3];
        for (i, b) in [2u64, 4, 6].into_iter().enumerate() {
            journal
                .append_wal(&format!("{{\"t\":\"batch\",\"b\":{b}}}"))
                .unwrap();
            journal.put_snapshot(b, &[b as u8; 5]).unwrap();
            ends[i] = fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len();
        }
        (journal, ends)
    }

    fn flip(path: &Path, at: u64) {
        let mut bytes = fs::read(path).unwrap();
        bytes[at as usize] ^= 0x80;
        fs::write(path, bytes).unwrap();
    }

    #[test]
    fn corrupt_or_torn_frames_fall_back_to_the_previous_one() {
        let dir = temp_dir("fallback");
        let log = dir.join(SNAPSHOT_FILE);
        let (journal, ends) = three_frames(&dir);
        assert_eq!(ends, [25, 50, 75], "20-byte header plus payload");
        assert_eq!(journal.latest_snapshot().unwrap(), Some((6, vec![6; 5])));
        assert_eq!(journal.size_bytes().unwrap().1, 15, "payload bytes only");

        // a flipped payload byte, batch word or CRC word all fail the CRC
        for at in [ends[1] + 22, ends[1], ends[1] + 17] {
            flip(&log, at);
            assert_eq!(journal.latest_snapshot().unwrap().unwrap().0, 4);
            flip(&log, at);
        }
        // a torn tail: the last frame lost its final byte
        OpenOptions::new()
            .write(true)
            .open(&log)
            .unwrap()
            .set_len(ends[2] - 1)
            .unwrap();
        assert_eq!(journal.latest_snapshot().unwrap().unwrap().0, 4);
        assert_eq!(journal.size_bytes().unwrap().1, 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cut_torn_tail_drops_torn_bytes_before_the_next_append() {
        let dir = temp_dir("torn");
        let (mut journal, ends) = three_frames(&dir);
        let mut wal = fs::read(dir.join(WAL_FILE)).unwrap();
        wal.extend_from_slice(b"{\"t\":\"batch\",\"b\":8,\"es");
        fs::write(dir.join(WAL_FILE), &wal).unwrap();
        let mut log = fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        log.extend_from_slice(&8u64.to_le_bytes());
        fs::write(dir.join(SNAPSHOT_FILE), &log).unwrap();

        journal.cut_torn_tail(4).unwrap();
        journal.append_wal("{\"t\":\"batch\",\"b\":8}").unwrap();
        journal.put_snapshot(8, b"eight").unwrap();
        let lines = journal.wal_lines().unwrap();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[4], "{\"t\":\"batch\",\"b\":8}");
        assert_eq!(
            fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len(),
            ends[2] + 25
        );
        assert_eq!(
            journal.latest_snapshot().unwrap(),
            Some((8, b"eight".to_vec()))
        );

        // an accepted last line that lost only its newline is kept and
        // terminated, so the next record starts a line of its own
        let text = fs::read_to_string(dir.join(WAL_FILE)).unwrap();
        fs::write(dir.join(WAL_FILE), text.trim_end()).unwrap();
        journal.cut_torn_tail(5).unwrap();
        journal.append_wal("{\"t\":\"batch\",\"b\":9}").unwrap();
        assert_eq!(journal.wal_lines().unwrap().len(), 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_cuts_the_log_at_the_first_frame_past_the_kill() {
        let dir = temp_dir("truncate");
        let (mut journal, ends) = three_frames(&dir);
        assert_eq!(journal.truncate_records(2).unwrap(), 2);
        assert_eq!(
            fs::metadata(dir.join(SNAPSHOT_FILE)).unwrap().len(),
            ends[1]
        );
        assert_eq!(journal.latest_snapshot().unwrap().unwrap().0, 4);
        // the journal appends after the cut, through a reopened handle
        journal.put_snapshot(6, b"six").unwrap();
        assert_eq!(journal.latest_snapshot().unwrap().unwrap().0, 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn older_snap_files_are_ignored() {
        let dir = temp_dir("legacy");
        let mut journal = SessionJournal::at_dir(&dir).unwrap();
        journal.append_wal("{\"t\":\"hdr\",\"v\":1}").unwrap();
        fs::write(dir.join("snap-4.bin"), b"old").unwrap();
        assert_eq!(journal.latest_snapshot().unwrap(), None);
        assert_eq!(journal.size_bytes().unwrap().1, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_cloned_dir_journal_appends_to_the_same_files() {
        let dir = temp_dir("clone");
        let mut journal = SessionJournal::at_dir(&dir).unwrap();
        journal.append_wal("{\"t\":\"hdr\",\"v\":1}").unwrap();
        let mut twin = journal.clone();
        twin.append_wal("{\"t\":\"batch\",\"b\":1}").unwrap();
        journal.append_wal("{\"t\":\"batch\",\"b\":2}").unwrap();
        assert_eq!(twin.wal_lines().unwrap().len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }
}
