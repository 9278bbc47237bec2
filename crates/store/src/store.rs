//! The event store: an append-only segment log with durable compacted
//! snapshots and a per-user extent index.
//!
//! ## Model
//!
//! Every applied event is appended as one checksummed record (see
//! [`crate::segment`]) carrying `(user, t, payload)`; records are numbered
//! by a monotonically increasing **LSN** (log sequence number) from
//! genesis. Segments are **never deleted** — the log *is* the queryable
//! history behind as-of/windowed reads. What snapshots compact is
//! *recovery cost*: a snapshot file stores an opaque caller-state payload
//! covering everything below its LSN, so reopening replays only the delta
//! past the newest durable snapshot (O(delta), not O(history)); older
//! snapshot files are garbage-collected.
//!
//! ## Historical reads
//!
//! An in-memory **extent index** maps each user to the byte ranges of the
//! log that hold its records: `(t_first, segment, offset, end)`, 24 bytes
//! each. An append extends the user's last extent when it lands in the
//! same segment at most [`EXTENT_GAP`] bytes past that extent's end, and
//! opens a new extent otherwise, so a batch of one user's records is one
//! extent, and interleaved single-event traffic keeps about one extent per
//! user per segment as long as (users interleaved) × (record bytes) stays
//! under the gap — about 100 users of ~35 B records. [`EventStore::query`]
//! reads only the user's extents (one positioned read each), so a read
//! costs O(the user's records) plus at most [`EXTENT_GAP`] foreign bytes
//! per extent, not O(the log).
//!
//! Wider interleaving would give every record its own extent (24 B per
//! event), so the index also keeps a memory budget: past 16 extents a
//! user opens a new one only while it averages at least 12 records per
//! extent, and otherwise its last extent absorbs the gap. The index then
//! costs at most 2 B per event plus 17 extents per user and one per
//! segment the user touches, and a read of such a user scans the log span
//! its records lie in, no more than every read cost before the index.
//! The index is not persisted: `open` rebuilds it from the scan it
//! already does.
//!
//! ## Durability
//!
//! Appends are buffered in memory and flushed when the pending tail
//! exceeds [`FLUSH_THRESHOLD`], on segment roll, on snapshot, and on
//! demand. The store never lies about durability: a failed flush keeps the
//! bytes buffered and reports the error, a short (torn) write is detected
//! by the flush path itself and repaired by rewinding the file to the last
//! durable boundary and rewriting. A tail torn by a real crash is
//! truncated away on open by the scan-truncate rule, with the offset
//! reported and counted.

use crate::codec::crc32;
use crate::metrics;
use crate::segment::{append_record, scan_records, RecordRef, SENTINEL_USER};
use geosocial_fault::{FaultPlan, FsFault};
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Buffered bytes that trigger an automatic background flush.
pub const FLUSH_THRESHOLD: usize = 64 * 1024;

/// Magic prefix of a snapshot file.
const SNAP_MAGIC: &[u8; 4] = b"GSNP";
/// Snapshot file format version.
const SNAP_VERSION: u32 = 1;
/// Bounded retries for must-succeed flushes (each attempt re-rolls any
/// injected fault).
const FLUSH_RETRIES: u32 = 64;

/// Store tuning knobs.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Roll to a new segment file once the active one reaches this size.
    pub segment_bytes: usize,
    /// Fault plan consulted by the flush path (default inert).
    pub fault: FaultPlan,
    /// Shard/owner id: keys fault decisions and log lines.
    pub shard: u64,
    /// Buffered bytes that trigger an automatic flush on append. `0`
    /// flushes every append — acked events then survive a SIGKILL of the
    /// whole process (the bytes are in the page cache), which is what the
    /// cluster chaos suite runs with.
    pub flush_bytes: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            segment_bytes: 4 * 1024 * 1024,
            fault: FaultPlan::none(),
            shard: 0,
            flush_bytes: FLUSH_THRESHOLD,
        }
    }
}

/// One record read back from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredRecord {
    /// Log sequence number (position from genesis).
    pub lsn: u64,
    /// Owning user ([`SENTINEL_USER`] for control records).
    pub user: u32,
    /// Event time.
    pub t: i64,
    /// The opaque payload exactly as appended.
    pub payload: Vec<u8>,
}

/// A sealed (read-only) segment.
#[derive(Debug)]
struct Sealed {
    first_lsn: u64,
    path: PathBuf,
    bytes_len: u64,
}

/// The segment currently being appended to.
#[derive(Debug)]
struct Active {
    first_lsn: u64,
    path: PathBuf,
    file: File,
    /// Full in-memory mirror of the segment (flushed prefix + pending tail).
    bytes: Vec<u8>,
    /// How many of `bytes` are known to be on disk.
    flushed: usize,
}

/// Largest run of foreign bytes an extent absorbs: a user's record that
/// starts at most this far past the end of the user's last extent (in the
/// same segment) extends it instead of opening a new one. Reads then pay
/// at most this many skipped bytes per extent, and interleaved one-event
/// traffic keeps about one extent per user per segment while (users
/// interleaved) × (record bytes) stays under the gap.
pub const EXTENT_GAP: u64 = 4096;

/// Memory budget of the index: past its first [`EXTENT_SLACK`] extents a
/// user may open a new extent only while it holds fewer than one per
/// `EXTENT_RECORDS` of its records; otherwise its last extent absorbs the
/// gap too. Interleaving wider than [`EXTENT_GAP`] (one record per
/// extent) therefore costs at most 24 B per 12 records — 2 B per event —
/// and reads of such a user scan the log span its records lie in.
const EXTENT_RECORDS: u64 = 12;
/// Extents every user may open regardless of [`EXTENT_RECORDS`].
const EXTENT_SLACK: u64 = 16;

/// A byte range `[off, end)` of segment `seg` holding a run of one user's
/// records (possibly with foreign records in between). 24 bytes.
#[derive(Debug, Clone, Copy)]
struct Extent {
    /// Time of the first record of the run.
    t_first: i64,
    seg: u32,
    off: u32,
    end: u32,
}

const _: () = assert!(std::mem::size_of::<Extent>() <= 24);

/// One user's entry: applied-event count and extents in log order.
#[derive(Debug, Default)]
struct UserExtents {
    applied: u64,
    extents: Vec<Extent>,
}

/// Per-user extent index: where each user's records lie in the log, as
/// byte ranges. A historical read visits only those ranges: O(the user's
/// records) plus at most [`EXTENT_GAP`] skipped bytes per extent, or, for
/// a user held to its [`EXTENT_RECORDS`] budget, the log span its records
/// lie in.
#[derive(Debug, Default)]
struct ExtentIndex {
    users: HashMap<u32, UserExtents>,
    /// Extents across all users (the `store.index.extents` gauge).
    extents: u64,
}

impl ExtentIndex {
    /// Record that `user`'s record at `t` occupies `[off, end)` of `seg`.
    fn note(&mut self, user: u32, t: i64, seg: u32, off: u32, end: u32) {
        if user == SENTINEL_USER {
            return;
        }
        let entry = self.users.entry(user).or_default();
        let budget = EXTENT_SLACK + entry.applied / EXTENT_RECORDS;
        let over_budget = entry.extents.len() as u64 >= budget;
        entry.applied += 1;
        match entry.extents.last_mut() {
            Some(last)
                if last.seg == seg && (over_budget || u64::from(off - last.end) <= EXTENT_GAP) =>
            {
                last.end = end;
            }
            _ => {
                entry.extents.push(Extent { t_first: t, seg, off, end });
                self.extents += 1;
            }
        }
    }

    /// Extents to read for events of `user` with `t >= t0`, in log order.
    fn extents_from(&self, user: u32, t0: i64) -> &[Extent] {
        let Some(entry) = self.users.get(&user) else {
            return &[];
        };
        // The last extent starting strictly before the window (its tail
        // may still hold in-window records); the first one if the window
        // starts before everything.
        let i = entry.extents.partition_point(|e| e.t_first < t0);
        &entry.extents[i.saturating_sub(1)..]
    }

    fn applied(&self, user: u32) -> u64 {
        self.users.get(&user).map_or(0, |e| e.applied)
    }
}

/// Log-structured event store. See the module docs for the model.
#[derive(Debug)]
pub struct EventStore {
    dir: PathBuf,
    opts: StoreOptions,
    sealed: Vec<Sealed>,
    active: Active,
    next_lsn: u64,
    snapshot_lsn: u64,
    snapshot_state: Option<Vec<u8>>,
    /// `(segment, offset)` where the log's post-snapshot delta starts —
    /// cached so the live-bytes gauge never re-scans a segment on the
    /// append path. Segment indices are stable (segments are never
    /// deleted), so the anchor survives rolls.
    live_anchor: (usize, u64),
    index: ExtentIndex,
    flush_ops: u64,
    /// Gauge contributions this instance currently claims (subtracted on
    /// drop so reopening a store during recovery never double-counts).
    claimed_segments: i64,
    claimed_extents: i64,
    claimed_total: i64,
    claimed_live: i64,
}

fn seg_path(dir: &Path, first_lsn: u64) -> PathBuf {
    dir.join(format!("seg-{first_lsn:016x}.log"))
}

fn snap_path(dir: &Path, lsn: u64) -> PathBuf {
    dir.join(format!("snap-{lsn:016x}.snap"))
}

/// Parse `<prefix>-<16 hex>.<ext>` file names back to their number.
fn parse_numbered(name: &str, prefix: &str, ext: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?.strip_suffix(ext)?;
    (rest.len() == 16).then(|| u64::from_str_radix(rest, 16).ok())?
}

impl EventStore {
    /// Open (or create) the store rooted at `dir`: scan every segment in
    /// LSN order rebuilding the extent index, truncate a torn tail at the
    /// last valid record boundary, and load the newest valid snapshot so
    /// callers replay only the delta past it.
    pub fn open(dir: impl Into<PathBuf>, opts: StoreOptions) -> io::Result<EventStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;

        let mut seg_lsns = Vec::new();
        let mut snap_lsns = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(lsn) = parse_numbered(name, "seg-", ".log") {
                seg_lsns.push(lsn);
            } else if let Some(lsn) = parse_numbered(name, "snap-", ".snap") {
                snap_lsns.push(lsn);
            }
        }
        seg_lsns.sort_unstable();
        snap_lsns.sort_unstable();

        let mut index = ExtentIndex::default();
        let mut sealed: Vec<Sealed> = Vec::new();
        let mut next_lsn = 0u64;
        let mut last_bytes: Vec<u8> = Vec::new();
        for (i, &first_lsn) in seg_lsns.iter().enumerate() {
            if first_lsn != next_lsn {
                // A gap in the chain: everything past it is unreachable
                // garbage (e.g. copied in by hand); ignore it.
                break;
            }
            let path = seg_path(&dir, first_lsn);
            let mut bytes = fs::read(&path)?;
            let seg_idx = i as u32;
            let scan = scan_records(&bytes, |r| {
                let off = r.offset as u32;
                index.note(r.user, r.t, seg_idx, off, off + r.len);
                next_lsn += 1;
                true
            });
            if let Err(torn) = scan {
                // Scan-truncate: keep the valid prefix, drop the torn tail
                // (and any later segments, which can only be stale).
                metrics::torn_truncated().inc();
                bytes.truncate(torn.offset as usize);
                fs::write(&path, &bytes)?;
                sealed.push(Sealed { first_lsn, path, bytes_len: bytes.len() as u64 });
                last_bytes = bytes;
                break;
            }
            sealed.push(Sealed { first_lsn, path, bytes_len: bytes.len() as u64 });
            last_bytes = bytes;
        }
        // The last surviving segment becomes the active one.
        let active = match sealed.pop() {
            Some(Sealed { first_lsn, path, .. }) => {
                let mut file = OpenOptions::new().write(true).open(&path)?;
                file.seek(SeekFrom::Start(last_bytes.len() as u64))?;
                let flushed = last_bytes.len();
                Active { first_lsn, path, file, bytes: last_bytes, flushed }
            }
            None => {
                let path = seg_path(&dir, 0);
                let file =
                    OpenOptions::new().create(true).write(true).truncate(true).open(&path)?;
                Active { first_lsn: 0, path, file, bytes: Vec::new(), flushed: 0 }
            }
        };
        // Newest valid snapshot at or below the log head wins; every other
        // snapshot file is garbage (stale, torn, or past the truncated
        // tail) and is collected.
        let mut snapshot_lsn = 0u64;
        let mut snapshot_state = None;
        for &lsn in snap_lsns.iter().rev() {
            if snapshot_state.is_none() && lsn <= next_lsn {
                if let Some(state) = read_snapshot_file(&snap_path(&dir, lsn))? {
                    snapshot_lsn = lsn;
                    snapshot_state = Some(state);
                    continue;
                }
            }
            fs::remove_file(snap_path(&dir, lsn)).ok();
            metrics::snapshots_gc().inc();
        }

        metrics::recovery_replayed().add(next_lsn - snapshot_lsn);

        let mut store = EventStore {
            dir,
            opts,
            sealed,
            active,
            next_lsn,
            snapshot_lsn,
            snapshot_state,
            live_anchor: (0, 0),
            index,
            flush_ops: 0,
            claimed_segments: 0,
            claimed_extents: 0,
            claimed_total: 0,
            claimed_live: 0,
        };
        store.live_anchor = if snapshot_lsn >= store.next_lsn {
            (store.sealed.len(), store.active.bytes.len() as u64)
        } else {
            store.locate(snapshot_lsn)?.map(|(seg, off)| (seg, off as u64)).unwrap_or((0, 0))
        };
        store.reclaim_gauges();
        Ok(store)
    }

    /// Re-assert this instance's share of the process-wide gauges.
    fn reclaim_gauges(&mut self) {
        let segments = self.sealed.len() as i64 + 1;
        let extents = self.index.extents as i64;
        let total = self.total_bytes() as i64;
        let live = self.live_bytes() as i64;
        metrics::segments().add(segments - self.claimed_segments);
        metrics::index_extents().add(extents - self.claimed_extents);
        metrics::bytes_total().add(total - self.claimed_total);
        metrics::bytes_live().add(live - self.claimed_live);
        self.claimed_segments = segments;
        self.claimed_extents = extents;
        self.claimed_total = total;
        self.claimed_live = live;
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// LSN the next append will get (= records in the log).
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// LSN covered by the newest durable snapshot.
    pub fn snapshot_lsn(&self) -> u64 {
        self.snapshot_lsn
    }

    /// Records appended past the newest durable snapshot — the replay
    /// cost of the next recovery.
    pub fn records_since_snapshot(&self) -> u64 {
        self.next_lsn - self.snapshot_lsn
    }

    /// The newest durable snapshot's caller-state payload, if any.
    pub fn snapshot_state(&self) -> Option<&[u8]> {
        self.snapshot_state.as_deref()
    }

    /// Segment files (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// Total log bytes — the full queryable history.
    pub fn total_bytes(&self) -> u64 {
        self.sealed.iter().map(|s| s.bytes_len).sum::<u64>() + self.active.bytes.len() as u64
    }

    /// Log bytes past the snapshot LSN — the recovery delta.
    pub fn live_bytes(&self) -> u64 {
        let (seg, off) = self.live_anchor;
        let mut live = self.segment_len(seg).saturating_sub(off);
        for s in seg + 1..self.segment_count() {
            live += self.segment_len(s);
        }
        live
    }

    fn segment_len(&self, seg: usize) -> u64 {
        if seg < self.sealed.len() {
            self.sealed[seg].bytes_len
        } else {
            self.active.bytes.len() as u64
        }
    }

    /// Events applied for `user` (its next expected 0-based sequence
    /// number) — O(1) from the index.
    pub fn applied(&self, user: u32) -> u64 {
        self.index.applied(user)
    }

    /// Append one record; buffered until the next flush. Returns its LSN.
    pub fn append(&mut self, user: u32, t: i64, payload: &[u8]) -> io::Result<u64> {
        let start = Instant::now();
        let lsn = self.next_lsn;
        let seg = self.sealed.len() as u32;
        let off = self.active.bytes.len() as u32;
        let len = append_record(&mut self.active.bytes, user, t, payload);
        self.index.note(user, t, seg, off, off + len as u32);
        self.next_lsn += 1;
        metrics::appends().inc();

        let mut result = Ok(());
        if self.active.bytes.len() >= self.opts.segment_bytes {
            // Roll: the active segment must be fully durable before it is
            // sealed. If flushing fails (injected or real), stay on this
            // segment and retry the roll at the next append.
            result = self.flush();
            if result.is_ok() {
                self.roll()?;
            }
        } else if self.active.bytes.len() - self.active.flushed >= self.opts.flush_bytes {
            // Background flush: an error here is not data loss — the tail
            // stays buffered and the next flush retries.
            result = self.flush();
        }
        self.reclaim_gauges();
        metrics::append_us().observe(start.elapsed().as_micros() as u64);
        result.map(|()| lsn)
    }

    fn roll(&mut self) -> io::Result<()> {
        debug_assert_eq!(self.active.flushed, self.active.bytes.len(), "roll of unflushed segment");
        let path = seg_path(&self.dir, self.next_lsn);
        let file = OpenOptions::new().create(true).write(true).truncate(true).open(&path)?;
        let old = std::mem::replace(
            &mut self.active,
            Active { first_lsn: self.next_lsn, path, file, bytes: Vec::new(), flushed: 0 },
        );
        self.sealed.push(Sealed {
            first_lsn: old.first_lsn,
            path: old.path,
            bytes_len: old.bytes.len() as u64,
        });
        Ok(())
    }

    /// Flush the buffered tail to the active segment file. A short (torn)
    /// write injected by the fault plan is detected here and repaired by
    /// rewinding to the last durable boundary and rewriting; an injected
    /// flush failure keeps the bytes buffered and surfaces the error.
    pub fn flush(&mut self) -> io::Result<()> {
        let pending = self.active.bytes.len() - self.active.flushed;
        if pending == 0 {
            return Ok(());
        }
        let start = Instant::now();
        let op = self.flush_ops;
        self.flush_ops += 1;
        let tail = &self.active.bytes[self.active.flushed..];
        match self.opts.fault.fs_fault(self.opts.shard, op) {
            FsFault::FlushFail => {
                metrics::fs_flush_failures().inc();
                return Err(io::Error::other(format!(
                    "injected fault: flush {op} of shard {} store failed",
                    self.opts.shard
                )));
            }
            FsFault::ShortWrite => {
                // Tear the write mid-record, then run the repair path the
                // store would run after noticing a torn tail it just
                // wrote: rewind the file to the last durable boundary and
                // rewrite the whole tail.
                metrics::fs_short_writes().inc();
                self.active.file.write_all(&tail[..pending / 2])?;
                self.active.file.flush()?;
                self.active.file.set_len(self.active.flushed as u64)?;
                self.active.file.seek(SeekFrom::Start(self.active.flushed as u64))?;
                self.active.file.write_all(tail)?;
            }
            FsFault::None => {
                self.active.file.write_all(tail)?;
            }
        }
        self.active.file.flush()?;
        self.active.flushed = self.active.bytes.len();
        metrics::flush_us().observe(start.elapsed().as_micros() as u64);
        Ok(())
    }

    /// Flush, retrying through failed flushes (bounded; each attempt
    /// re-rolls any injected fault). For the points that must leave
    /// nothing buffered: a snapshot, and closing the store.
    pub fn flush_durably(&mut self) -> io::Result<()> {
        let mut last = Ok(());
        for _ in 0..FLUSH_RETRIES {
            last = self.flush();
            if last.is_ok() {
                return Ok(());
            }
        }
        last
    }

    /// Write a durable snapshot covering everything appended so far:
    /// flush the log, persist `state` to a `snap-<lsn>` file, and
    /// garbage-collect older snapshot files. Returns the covered LSN.
    ///
    /// This is the store's compaction: the log keeps its full history for
    /// historical reads, but recovery replay shrinks to zero.
    pub fn snapshot(&mut self, state: &[u8]) -> io::Result<u64> {
        self.flush_durably()?;
        let lsn = self.next_lsn;
        let mut buf = Vec::with_capacity(state.len() + 24);
        buf.extend_from_slice(SNAP_MAGIC);
        buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        buf.extend_from_slice(&lsn.to_le_bytes());
        buf.extend_from_slice(&(state.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(state).to_le_bytes());
        buf.extend_from_slice(state);
        fs::write(snap_path(&self.dir, lsn), &buf)?;
        let old = self.snapshot_lsn;
        self.snapshot_lsn = lsn;
        self.snapshot_state = Some(state.to_vec());
        // The delta restarts at the current end of the log.
        self.live_anchor = (self.sealed.len(), self.active.bytes.len() as u64);
        if old != lsn {
            let stale = snap_path(&self.dir, old);
            if stale.exists() && fs::remove_file(stale).is_ok() {
                metrics::snapshots_gc().inc();
            }
        }
        metrics::compactions().inc();
        self.reclaim_gauges();
        Ok(lsn)
    }

    /// Locate `(segment, offset)` of record `lsn`, walking record frames
    /// within its segment. `None` when `lsn` is the log head; an error when
    /// the segment cannot be read back intact.
    fn locate(&self, lsn: u64) -> io::Result<Option<(usize, u32)>> {
        if lsn >= self.next_lsn {
            return Ok(None);
        }
        // Segment first-LSNs are strictly increasing, so the owning
        // segment is the last one starting at or below `lsn`.
        let seg = if lsn >= self.active.first_lsn {
            self.sealed.len()
        } else {
            self.sealed.partition_point(|s| s.first_lsn <= lsn) - 1
        };
        let first = if seg < self.sealed.len() {
            self.sealed[seg].first_lsn
        } else {
            self.active.first_lsn
        };
        let mut ranges = Ranges::new(self);
        let data = ranges.read(seg, 0, self.segment_len(seg) as u32)?;
        let mut remaining = lsn - first;
        let mut found = 0u32;
        scan_records(data, |r| {
            if remaining == 0 {
                found = r.offset as u32;
                return false;
            }
            remaining -= 1;
            true
        })
        .map_err(|torn| io::Error::other(format!("segment {seg} corrupt: {torn}")))?;
        Ok(Some((seg, found)))
    }

    /// Walk records from `(seg, off)` to the log head; `f` returns `false`
    /// to stop early. Reads sealed segments from disk and the active
    /// segment from its mirror.
    fn walk(
        &self,
        mut seg: usize,
        mut off: u32,
        mut lsn: u64,
        f: &mut impl FnMut(u64, RecordRef<'_>) -> bool,
    ) -> io::Result<()> {
        let mut ranges = Ranges::new(self);
        while seg < self.segment_count() {
            let slice = ranges.read(seg, off, self.segment_len(seg) as u32)?;
            let base = off as u64;
            let mut stop = false;
            scan_records(slice, |r| {
                let keep = f(lsn, RecordRef { offset: r.offset + base, ..r });
                lsn += 1;
                stop = !keep;
                keep
            })
            .map_err(|torn| io::Error::other(format!("segment {seg} corrupt mid-walk: {torn}")))?;
            if stop {
                return Ok(());
            }
            seg += 1;
            off = 0;
        }
        Ok(())
    }

    /// Records past the newest durable snapshot, in LSN order — the
    /// recovery delta a caller replays on top of the snapshot state.
    pub fn replay_delta(&self) -> io::Result<Vec<StoredRecord>> {
        let mut out = Vec::new();
        let Some((seg, off)) = self.locate(self.snapshot_lsn)? else {
            return Ok(out);
        };
        self.walk(seg, off, self.snapshot_lsn, &mut |lsn, r| {
            out.push(StoredRecord { lsn, user: r.user, t: r.t, payload: r.payload.to_vec() });
            true
        })?;
        Ok(out)
    }

    /// Historical read: every record of `user` with `t ∈ [t0, t1]`, in
    /// applied order. Binary-searches the user's extents for the last one
    /// starting before `t0`, then reads only the user's extents from
    /// there (one positioned read each), CRC-checking every record in
    /// them and skipping foreign ones; stops at the user's first record
    /// past `t1`. Cost is O(the user's records), not O(the log), unless
    /// the index's memory budget merged the user's extents across gaps
    /// (see the module docs): then it is the log span they cover. Per-user
    /// times must be non-decreasing for `t0 > i64::MIN` (true of an
    /// in-order log); a `t0 = i64::MIN` read holds for any times.
    pub fn query(&self, user: u32, t0: i64, t1: i64) -> io::Result<Vec<StoredRecord>> {
        let start = Instant::now();
        let mut out = Vec::new();
        let mut ranges = Ranges::new(self);
        for e in self.index.extents_from(user, t0) {
            let data = ranges.read(e.seg as usize, e.off, e.end)?;
            let mut past = false;
            scan_records(data, |r| {
                if r.user != user {
                    return true;
                }
                if r.t > t1 {
                    past = true;
                    return false;
                }
                if r.t >= t0 {
                    out.push(StoredRecord {
                        lsn: 0,
                        user: r.user,
                        t: r.t,
                        payload: r.payload.to_vec(),
                    });
                }
                true
            })
            .map_err(|torn| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("segment {} corrupt in bytes {}..{}: {torn}", e.seg, e.off, e.end),
                )
            })?;
            if past {
                break;
            }
        }
        metrics::query_us().observe(start.elapsed().as_micros() as u64);
        Ok(out)
    }

    /// Ship this shard's durable state for a handoff: flush, then copy
    /// every segment and the newest snapshot into `dest` alongside a
    /// checksummed [`HANDOFF_MANIFEST`] file. The replacement process
    /// validates the copy with [`import_handoff`] and then simply opens
    /// `dest` — recovery replays it like any restart.
    ///
    /// The export is taken at a quiescent point (the shard is drained or
    /// its process is already dead); the store keeps running afterwards,
    /// so a botched handoff can fall back to the original directory.
    pub fn export_handoff(&mut self, dest: impl AsRef<Path>) -> io::Result<HandoffManifest> {
        self.flush()?;
        let dest = dest.as_ref();
        fs::create_dir_all(dest)?;
        let mut names: Vec<String> = Vec::new();
        for seg in 0..self.segment_count() {
            let path = if seg < self.sealed.len() {
                self.sealed[seg].path.clone()
            } else {
                self.active.path.clone()
            };
            names.push(file_name(&path)?);
        }
        if self.snapshot_state.is_some() {
            names.push(file_name(&snap_path(&self.dir, self.snapshot_lsn))?);
        }
        let mut manifest = HandoffManifest {
            next_lsn: self.next_lsn,
            snapshot_lsn: self.snapshot_lsn,
            files: Vec::with_capacity(names.len()),
        };
        for name in names {
            let bytes = fs::read(self.dir.join(&name))?;
            fs::write(dest.join(&name), &bytes)?;
            manifest.files.push(HandoffFile { name, len: bytes.len() as u64, crc: crc32(&bytes) });
        }
        fs::write(dest.join(HANDOFF_MANIFEST), manifest.render())?;
        Ok(manifest)
    }
}

/// Reads byte ranges of one store's log for a single walk or query:
/// sealed segments by positioned reads through a handle opened once per
/// segment visited (and closed with the reader, so the store holds no
/// descriptors between reads), the active segment from its mirror.
struct Ranges<'s> {
    store: &'s EventStore,
    file: Option<(usize, File)>,
    buf: Vec<u8>,
}

impl<'s> Ranges<'s> {
    fn new(store: &'s EventStore) -> Self {
        Ranges { store, file: None, buf: Vec::new() }
    }

    /// Bytes `[off, end)` of segment `seg`.
    fn read(&mut self, seg: usize, off: u32, end: u32) -> io::Result<&[u8]> {
        let Some(s) = self.store.sealed.get(seg) else {
            return Ok(&self.store.active.bytes[off as usize..end as usize]);
        };
        let context = |e: io::Error| {
            io::Error::new(
                e.kind(),
                format!("segment {} bytes {off}..{end} unreadable: {e}", s.path.display()),
            )
        };
        let file = match &self.file {
            Some((open, file)) if *open == seg => file,
            _ => &self.file.insert((seg, File::open(&s.path).map_err(context)?)).1,
        };
        self.buf.resize((end - off) as usize, 0);
        file.read_exact_at(&mut self.buf, u64::from(off)).map_err(context)?;
        Ok(&self.buf)
    }
}

/// Name of the checksum manifest [`EventStore::export_handoff`] writes
/// next to the shipped segments.
pub const HANDOFF_MANIFEST: &str = "MANIFEST";

/// What a handoff export shipped: the log head and every copied file with
/// its length and CRC, so the receiving side can prove the state arrived
/// intact before adopting it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandoffManifest {
    /// Log head of the exported store (records shipped).
    pub next_lsn: u64,
    /// LSN covered by the shipped snapshot (0 = none).
    pub snapshot_lsn: u64,
    /// Every shipped file.
    pub files: Vec<HandoffFile>,
}

/// One file named by a [`HandoffManifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandoffFile {
    /// Bare file name inside the handoff directory.
    pub name: String,
    /// Expected byte length.
    pub len: u64,
    /// Expected CRC32 of the whole file.
    pub crc: u32,
}

impl HandoffManifest {
    fn render(&self) -> String {
        let mut out = format!(
            "geosocial-handoff v1\nnext_lsn {}\nsnapshot_lsn {}\n",
            self.next_lsn, self.snapshot_lsn
        );
        for f in &self.files {
            out.push_str(&format!("file {} {} {:08x}\n", f.name, f.len, f.crc));
        }
        out
    }

    fn parse(text: &str) -> Result<Self, String> {
        let mut lines = text.lines();
        if lines.next() != Some("geosocial-handoff v1") {
            return Err("bad manifest header".into());
        }
        let field = |line: Option<&str>, key: &str| -> Result<u64, String> {
            line.and_then(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| format!("manifest missing `{key}`"))
        };
        let next_lsn = field(lines.next(), "next_lsn ")?;
        let snapshot_lsn = field(lines.next(), "snapshot_lsn ")?;
        let mut files = Vec::new();
        for line in lines.filter(|l| !l.trim().is_empty()) {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some("file"), Some(name), Some(len), Some(crc)) => files.push(HandoffFile {
                    name: name.to_string(),
                    len: len.parse().map_err(|e| format!("manifest file len: {e}"))?,
                    crc: u32::from_str_radix(crc, 16)
                        .map_err(|e| format!("manifest file crc: {e}"))?,
                }),
                _ => return Err(format!("bad manifest line `{line}`")),
            }
        }
        Ok(Self { next_lsn, snapshot_lsn, files })
    }
}

/// Validate a shipped handoff directory against its manifest: every named
/// file must exist with the exact length and CRC the exporter recorded.
/// Returns the manifest on success so the caller knows the log head it is
/// adopting; fails with [`io::ErrorKind::InvalidData`] on any mismatch —
/// the replacement process must refuse to serve from a torn copy.
pub fn import_handoff(dir: impl AsRef<Path>) -> io::Result<HandoffManifest> {
    let dir = dir.as_ref();
    let text = fs::read_to_string(dir.join(HANDOFF_MANIFEST))?;
    let manifest =
        HandoffManifest::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    for f in &manifest.files {
        let bytes = fs::read(dir.join(&f.name))?;
        if bytes.len() as u64 != f.len || crc32(&bytes) != f.crc {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "handoff file {} corrupt in transit: {} bytes crc {:08x}, manifest says \
                     {} bytes crc {:08x}",
                    f.name,
                    bytes.len(),
                    crc32(&bytes),
                    f.len,
                    f.crc
                ),
            ));
        }
    }
    Ok(manifest)
}

fn file_name(path: &Path) -> io::Result<String> {
    path.file_name()
        .and_then(|n| n.to_str())
        .map(str::to_string)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unnameable store file"))
}

impl Drop for EventStore {
    fn drop(&mut self) {
        // Release this instance's gauge contributions; a recovery reopen
        // re-claims them from zero.
        metrics::segments().add(-self.claimed_segments);
        metrics::index_extents().add(-self.claimed_extents);
        metrics::bytes_total().add(-self.claimed_total);
        metrics::bytes_live().add(-self.claimed_live);
    }
}

/// Read and validate one snapshot file; `Ok(None)` when it is torn or
/// corrupt (the caller falls back to an older snapshot).
fn read_snapshot_file(path: &Path) -> io::Result<Option<Vec<u8>>> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if bytes.len() < 24 || &bytes[..4] != SNAP_MAGIC {
        return Ok(None);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != SNAP_VERSION {
        return Ok(None);
    }
    let state_len = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    let Some(state) = bytes.get(24..24 + state_len) else {
        return Ok(None);
    };
    if crc32(state) != crc {
        return Ok(None);
    }
    Ok(Some(state.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("geosocial-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn small_opts() -> StoreOptions {
        StoreOptions { segment_bytes: 512, ..StoreOptions::default() }
    }

    fn fill(store: &mut EventStore, n: usize) {
        for i in 0..n {
            let user = (i % 3) as u32;
            let t = i as i64 * 10;
            let payload = [user as u8, i as u8, 0xAB];
            store.append(user, t, &payload).expect("append");
        }
    }

    #[test]
    fn append_flush_reopen_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let mut store = EventStore::open(&dir, small_opts()).expect("open");
        fill(&mut store, 100);
        assert_eq!(store.next_lsn(), 100);
        assert!(store.segment_count() > 1, "512-byte segments must roll");
        store.flush().expect("flush");
        let total = store.total_bytes();
        drop(store);

        let store = EventStore::open(&dir, small_opts()).expect("reopen");
        assert_eq!(store.next_lsn(), 100, "every record survives reopen");
        assert_eq!(store.total_bytes(), total);
        let delta = store.replay_delta().expect("delta");
        assert_eq!(delta.len(), 100, "no snapshot yet: the whole log is delta");
        assert_eq!(delta[0].lsn, 0);
        assert_eq!(delta[99].lsn, 99);
        assert_eq!(delta[7].user, 1);
        assert_eq!(delta[7].t, 70);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn handoff_export_import_roundtrip_and_corruption_detection() {
        let dir = tmp_dir("handoff-src");
        let dest = tmp_dir("handoff-dest");
        let mut store = EventStore::open(&dir, small_opts()).expect("open");
        fill(&mut store, 60);
        store.snapshot(b"state@60").expect("snapshot");
        fill(&mut store, 40);
        let manifest = store.export_handoff(&dest).expect("export");
        assert_eq!(manifest.next_lsn, 100);
        assert_eq!(manifest.snapshot_lsn, 60);
        assert!(manifest.files.len() >= 2, "segments + snapshot shipped");

        let verified = import_handoff(&dest).expect("import validates");
        assert_eq!(verified, manifest);

        // The shipped copy opens like any restart and carries everything.
        let copy = EventStore::open(&dest, small_opts()).expect("open shipped copy");
        assert_eq!(copy.next_lsn(), 100);
        assert_eq!(copy.snapshot_lsn(), 60);
        assert_eq!(copy.snapshot_state(), Some(&b"state@60"[..]));
        assert_eq!(copy.replay_delta().expect("delta").len(), 40);
        drop(copy);

        // A byte flipped in transit must fail the import, not serve.
        let victim = dest.join(&manifest.files[0].name);
        let mut bytes = fs::read(&victim).unwrap();
        bytes[0] ^= 0xFF;
        fs::write(&victim, &bytes).unwrap();
        let err = import_handoff(&dest).expect_err("corrupt copy rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(&dest).ok();
    }

    #[test]
    fn snapshot_bounds_recovery_delta_and_gcs_old_files() {
        let dir = tmp_dir("snapshot");
        let mut store = EventStore::open(&dir, small_opts()).expect("open");
        fill(&mut store, 50);
        store.snapshot(b"state@50").expect("snapshot");
        assert_eq!(store.records_since_snapshot(), 0);
        fill(&mut store, 30);
        store.snapshot(b"state@80").expect("snapshot");
        fill(&mut store, 20);
        store.flush().expect("flush");
        drop(store);

        let store = EventStore::open(&dir, small_opts()).expect("reopen");
        assert_eq!(store.snapshot_lsn(), 80);
        assert_eq!(store.snapshot_state(), Some(&b"state@80"[..]));
        let delta = store.replay_delta().expect("delta");
        assert_eq!(delta.len(), 20, "recovery replays only past the snapshot");
        assert_eq!(delta[0].lsn, 80);
        let snaps = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().starts_with("snap-"))
            .count();
        assert_eq!(snaps, 1, "older snapshot files are garbage-collected");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unflushed_tail_is_lost_but_log_stays_valid() {
        let dir = tmp_dir("tail");
        let mut store = EventStore::open(&dir, StoreOptions::default()).expect("open");
        fill(&mut store, 10);
        store.flush().expect("flush");
        fill(&mut store, 5); // buffered only
        drop(store);

        let store = EventStore::open(&dir, StoreOptions::default()).expect("reopen");
        assert_eq!(store.next_lsn(), 10, "the unflushed tail is the documented loss window");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_to_last_boundary_on_open() {
        let dir = tmp_dir("torn");
        let mut store = EventStore::open(&dir, StoreOptions::default()).expect("open");
        fill(&mut store, 10);
        store.flush().expect("flush");
        let path = store.active.path.clone();
        drop(store);
        // Tear the tail mid-record.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let torn_len = fs::metadata(&path).unwrap().len();
        let store = EventStore::open(&dir, StoreOptions::default()).expect("reopen");
        assert_eq!(store.next_lsn(), 9, "torn record dropped, valid prefix kept");
        assert!(
            fs::metadata(&path).unwrap().len() < torn_len,
            "open truncated the torn tail off the file"
        );
        let delta = store.replay_delta().expect("delta");
        assert_eq!(delta.len(), 9);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn queries_answer_historical_windows_per_user() {
        let dir = tmp_dir("query");
        let mut store = EventStore::open(&dir, small_opts()).expect("open");
        // User 7 at t = 0,100,200,...,900 interleaved with user 8 and
        // control sentinels.
        for i in 0..10i64 {
            store.append(7, i * 100, &[7, i as u8]).expect("append");
            store.append(8, i * 100 + 1, &[8, i as u8]).expect("append");
            store.append(SENTINEL_USER, 0, b"ctl").expect("append");
        }
        let all = store.query(7, i64::MIN, i64::MAX).expect("query");
        assert_eq!(all.len(), 10);
        assert_eq!(store.applied(7), 10);
        assert_eq!(store.applied(SENTINEL_USER), 0, "sentinels are not user history");

        let window = store.query(7, 200, 600).expect("query");
        assert_eq!(window.iter().map(|r| r.t).collect::<Vec<_>>(), vec![200, 300, 400, 500, 600]);
        assert_eq!(window[0].payload, vec![7, 2]);

        let as_of = store.query(7, i64::MIN, 449).expect("query");
        assert_eq!(as_of.len(), 5, "as-of 449 sees t = 0..400");

        assert!(store.query(99, i64::MIN, i64::MAX).expect("query").is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn queries_see_history_across_reopen_and_snapshot() {
        let dir = tmp_dir("query-reopen");
        let mut store = EventStore::open(&dir, small_opts()).expect("open");
        for i in 0..40i64 {
            store.append(1, i, &[i as u8]).expect("append");
        }
        store.snapshot(b"s").expect("snapshot");
        for i in 40..60i64 {
            store.append(1, i, &[i as u8]).expect("append");
        }
        store.flush().expect("flush");
        drop(store);

        let store = EventStore::open(&dir, small_opts()).expect("reopen");
        let all = store.query(1, i64::MIN, i64::MAX).expect("query");
        assert_eq!(all.len(), 60, "snapshots compact recovery, never the history");
        assert_eq!(all[59].t, 59);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn extent_count_follows_runs_and_round_robin() {
        // 128 users appending 64-record runs in turn: a user's next run
        // starts ~270 KB past its last one, so every run is one extent.
        let dir = tmp_dir("extents-runs");
        let mut store = EventStore::open(&dir, StoreOptions::default()).expect("open");
        let mut runs = 0u64;
        for round in 0..2i64 {
            for user in 0..128u32 {
                for i in 0..64i64 {
                    store.append(user, round * 64 + i, &[0x5A; 23]).expect("append");
                }
                runs += 1;
            }
        }
        assert_eq!(store.segment_count(), 1);
        assert_eq!(store.index.extents, runs, "one extent per run");
        assert_eq!(store.applied(5), 128);
        store.flush().expect("flush");
        drop(store);
        let store = EventStore::open(&dir, StoreOptions::default()).expect("reopen");
        assert_eq!(store.index.extents, runs, "reopen rebuilds the same extents");
        drop(store);
        fs::remove_dir_all(&dir).ok();

        // 16 users round-robin with ~33 B records: 15 foreign records
        // (~500 B) between a user's records stay inside the gap, so each
        // user has one extent per segment.
        let dir = tmp_dir("extents-rr");
        let opts = StoreOptions { segment_bytes: 16 * 1024, ..StoreOptions::default() };
        let mut store = EventStore::open(&dir, opts.clone()).expect("open");
        let mut i = 0i64;
        let mut next = |store: &mut EventStore| {
            store.append((i % 16) as u32, i, &[0xA5; 22]).expect("append");
            i += 1;
        };
        while store.segment_count() < 4 {
            next(&mut store);
        }
        // Two more rounds so the fresh active segment holds every user.
        for _ in 0..32 {
            next(&mut store);
        }
        assert_eq!(store.index.extents, 16 * 4, "one extent per user per segment");
        store.flush().expect("flush");
        drop(store);
        let store = EventStore::open(&dir, opts).expect("reopen");
        assert_eq!(store.index.extents, 16 * 4);
        drop(store);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn extent_budget_caps_interleaving_wider_than_the_gap() {
        // 64 users round-robin with 75 B records: 4.7 KB of other users'
        // records between two of one user's, past the gap, so only the
        // budget merges them: 16 free extents, then one per 12 records.
        let dir = tmp_dir("extents-budget");
        let mut store = EventStore::open(&dir, StoreOptions::default()).expect("open");
        for i in 0..64 * 240i64 {
            store.append((i % 64) as u32, i, &[0x3C; 64]).expect("append");
        }
        assert_eq!(store.segment_count(), 1);
        let per_user = EXTENT_SLACK + 240 / EXTENT_RECORDS - 1;
        assert_eq!(store.index.extents, 64 * per_user, "budget binds for every user");
        let got = store.query(5, 64 * 100, 64 * 200).expect("query");
        let want: Vec<i64> = (100..=200).map(|k| k * 64 + 5).filter(|&t| t <= 64 * 200).collect();
        assert_eq!(got.iter().map(|r| r.t).collect::<Vec<_>>(), want);
        assert_eq!(store.query(5, i64::MIN, i64::MAX).expect("query").len(), 240);
        store.flush().expect("flush");
        drop(store);
        let store = EventStore::open(&dir, StoreOptions::default()).expect("reopen");
        assert_eq!(store.index.extents, 64 * per_user, "reopen rebuilds the same extents");
        drop(store);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn extent_gap_boundary_is_inclusive() {
        for (gap, want) in [(EXTENT_GAP, 1), (EXTENT_GAP + 1, 2)] {
            let dir = tmp_dir(&format!("extents-gap-{gap}"));
            let mut store = EventStore::open(&dir, StoreOptions::default()).expect("open");
            store.append(7, 1, b"a").expect("append");
            // One foreign record of exactly `gap` framed bytes: 8 header
            // + 1 user varint + 1 time zigzag + payload.
            store.append(8, 0, &vec![0; gap as usize - 10]).expect("append");
            store.append(7, 2, b"b").expect("append");
            assert_eq!(store.index.extents_from(7, i64::MIN).len(), want, "gap {gap}");
            let got = store.query(7, i64::MIN, i64::MAX).expect("query");
            assert_eq!(got.iter().map(|r| r.t).collect::<Vec<_>>(), vec![1, 2]);
            drop(store);
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_older_one() {
        let dir = tmp_dir("badsnap");
        let mut store = EventStore::open(&dir, small_opts()).expect("open");
        fill(&mut store, 20);
        store.snapshot(b"good").expect("snapshot");
        fill(&mut store, 10);
        store.snapshot(b"newer").expect("snapshot");
        let newer = snap_path(&dir, 30);
        drop(store);
        // Corrupt the newest snapshot's payload.
        let mut bytes = fs::read(&newer).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newer, &bytes).unwrap();
        // Re-create the older snapshot the GC removed.
        drop(bytes);
        let mut resurrect = EventStore::open(tmp_dir("badsnap-aux"), small_opts()).expect("open");
        fill(&mut resurrect, 20);
        resurrect.snapshot(b"good").expect("snapshot");
        fs::copy(snap_path(resurrect.dir(), 20), snap_path(&dir, 20)).unwrap();

        let store = EventStore::open(&dir, small_opts()).expect("reopen");
        assert_eq!(store.snapshot_lsn(), 20, "corrupt snapshot skipped");
        assert_eq!(store.snapshot_state(), Some(&b"good"[..]));
        assert!(!newer.exists(), "corrupt snapshot file collected");
        fs::remove_dir_all(&dir).ok();
        fs::remove_dir_all(tmp_dir("badsnap-aux")).ok();
    }
}
