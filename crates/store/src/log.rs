//! The append-only segment log: open/recover, get/put, cap eviction and
//! compaction. See the crate docs for the on-disk layout.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// On-disk format version, written into every segment header. A segment
/// with a different version is ignored (never misparsed).
pub const STORE_VERSION: u32 = 1;

const MAGIC: [u8; 4] = *b"HCST";
/// Segment header: 4-byte magic + 4-byte version.
const SEG_HEADER: u64 = 8;
/// Record header: u32 len + u32 crc.
const REC_HEADER: u64 = 8;
/// Upper bound on one record's body — a corrupt length prefix must fail
/// the CRC path, not drive a giant allocation.
const MAX_RECORD: u32 = 64 << 20;

/// CRC32 (IEEE, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes` — the checksum guarding every record.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// How a [`Store`] is opened.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Directory holding the lock file and segments (created if missing).
    pub dir: PathBuf,
    /// Soft cap on live bytes; crossing it evicts the oldest records and
    /// schedules a compaction. `None` means unbounded.
    pub cap_bytes: Option<u64>,
    /// `sync_data` after every append (HC_STORE_SYNC). Durability against
    /// power loss at a large throughput cost; off by default.
    pub sync: bool,
    /// Target size before the tail segment is rotated.
    pub segment_bytes: u64,
}

impl StoreOptions {
    /// Defaults for `dir`: unbounded, no fsync, 8 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> StoreOptions {
        StoreOptions {
            dir: dir.into(),
            cap_bytes: None,
            sync: false,
            segment_bytes: 8 << 20,
        }
    }
}

/// A point-in-time view of the store, for metrics and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Segment files on disk.
    pub segments: usize,
    /// Live (indexed) records.
    pub records: usize,
    /// Bytes of live records (headers included).
    pub live_bytes: u64,
    /// Bytes of dead records awaiting compaction.
    pub dead_bytes: u64,
    /// Total segment file bytes on disk.
    pub file_bytes: u64,
    /// True when another live process holds the write lock.
    pub read_only: bool,
    /// Torn tails truncated during open.
    pub truncated_tails: u64,
    /// Mid-segment records that failed their CRC during open or get.
    pub corrupt_records: u64,
    /// Compactions completed over this handle's lifetime.
    pub compactions: u64,
    /// Records evicted to stay under the cap.
    pub evicted_records: u64,
}

/// What a read-only scan of a store directory found; see [`Store::verify`].
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Segment files scanned.
    pub segments: usize,
    /// CRC-intact records.
    pub records: usize,
    /// Segment file bytes scanned.
    pub bytes: u64,
    /// Segments whose header is missing, foreign, or version-mismatched.
    pub bad_headers: usize,
    /// Records that failed their CRC before the final segment's tail.
    pub corrupt_records: usize,
    /// Trailing bytes of the last segment that do not form an intact
    /// record — the recoverable torn-write case, not corruption.
    pub torn_tail_bytes: u64,
}

impl VerifyReport {
    /// True when every byte before the final tail is CRC-intact.
    pub fn ok(&self) -> bool {
        self.bad_headers == 0 && self.corrupt_records == 0
    }
}

/// Where a live record lives.
#[derive(Debug, Clone, Copy)]
struct Loc {
    seg: u32,
    offset: u64,
    /// Whole record size: headers + body.
    total: u64,
}

#[derive(Debug)]
struct SegMeta {
    id: u32,
    size: u64,
}

struct Inner {
    /// `[kind] ++ key` → location of the live record.
    index: HashMap<Vec<u8>, Loc>,
    /// Ascending by id; the last one is the tail.
    segs: Vec<SegMeta>,
    /// Append handle for the tail segment (writable opens only).
    tail: Option<File>,
    live_bytes: u64,
    dead_bytes: u64,
    truncated_tails: u64,
    corrupt_records: u64,
    compactions: u64,
    evicted_records: u64,
}

struct Shared {
    dir: PathBuf,
    sync: bool,
    cap_bytes: Option<u64>,
    segment_bytes: u64,
    read_only: bool,
    owns_lock: bool,
    inner: Mutex<Inner>,
    compacting: AtomicBool,
    gets: AtomicU64,
    hits: AtomicU64,
    puts: AtomicU64,
    put_drops: AtomicU64,
}

impl Drop for Shared {
    fn drop(&mut self) {
        if self.owns_lock {
            let _ = fs::remove_file(self.dir.join("LOCK"));
        }
    }
}

/// A handle on one on-disk store. Cheap to clone; all clones share the
/// same index, lock and counters.
#[derive(Clone)]
pub struct Store {
    shared: Arc<Shared>,
}

fn seg_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("seg-{id:06}.hcs"))
}

fn seg_id(name: &str) -> Option<u32> {
    name.strip_prefix("seg-")?
        .strip_suffix(".hcs")?
        .parse()
        .ok()
}

fn map_key(kind: u8, key: &[u8]) -> Vec<u8> {
    let mut k = Vec::with_capacity(1 + key.len());
    k.push(kind);
    k.extend_from_slice(key);
    k
}

/// `len | crc | kind | key_len | key | value` as raw bytes.
fn encode_record(kind: u8, key: &[u8], value: &[u8]) -> Vec<u8> {
    assert!(key.len() <= u16::MAX as usize, "store key too long");
    let body_len = 1 + 2 + key.len() + value.len();
    assert!(body_len <= MAX_RECORD as usize, "store record too large");
    let mut rec = Vec::with_capacity(REC_HEADER as usize + body_len);
    rec.extend_from_slice(&(body_len as u32).to_le_bytes());
    rec.extend_from_slice(&[0; 4]); // crc patched below
    rec.push(kind);
    rec.extend_from_slice(&(key.len() as u16).to_le_bytes());
    rec.extend_from_slice(key);
    rec.extend_from_slice(value);
    let crc = crc32(&rec[REC_HEADER as usize..]);
    rec[4..8].copy_from_slice(&crc.to_le_bytes());
    rec
}

/// Splits a CRC-verified record body into `(kind, key, value)`.
fn split_body(body: &[u8]) -> Option<(u8, &[u8], &[u8])> {
    if body.len() < 3 {
        return None;
    }
    let kind = body[0];
    let key_len = u16::from_le_bytes([body[1], body[2]]) as usize;
    let rest = &body[3..];
    if key_len > rest.len() {
        return None;
    }
    Some((kind, &rest[..key_len], &rest[key_len..]))
}

/// One record found while scanning a segment.
struct ScannedRecord {
    offset: u64,
    total: u64,
    map_key: Vec<u8>,
}

/// What scanning one segment file yields.
struct SegScan {
    records: Vec<ScannedRecord>,
    /// First byte that is not part of an intact record (file length when
    /// the whole segment is clean).
    clean_len: u64,
    bad_header: bool,
    /// A record before the tail failed its CRC (scan stops there).
    corrupt: bool,
}

fn scan_segment(path: &Path) -> std::io::Result<SegScan> {
    let data = fs::read(path)?;
    let mut scan = SegScan {
        records: Vec::new(),
        clean_len: 0,
        bad_header: false,
        corrupt: false,
    };
    if data.len() < SEG_HEADER as usize
        || data[..4] != MAGIC
        || u32::from_le_bytes(data[4..8].try_into().expect("4")) != STORE_VERSION
    {
        scan.bad_header = true;
        return Ok(scan);
    }
    let mut pos = SEG_HEADER as usize;
    scan.clean_len = pos as u64;
    while data.len() - pos >= REC_HEADER as usize {
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4"));
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4"));
        let body_start = pos + REC_HEADER as usize;
        let Some(body_end) = (len <= MAX_RECORD)
            .then(|| body_start.checked_add(len as usize))
            .flatten()
            .filter(|&e| e <= data.len())
        else {
            break;
        };
        let body = &data[body_start..body_end];
        if crc32(body) != crc {
            break;
        }
        let Some((kind, key, _value)) = split_body(body) else {
            break;
        };
        scan.records.push(ScannedRecord {
            offset: pos as u64,
            total: REC_HEADER + u64::from(len),
            map_key: map_key(kind, key),
        });
        pos = body_end;
        scan.clean_len = pos as u64;
    }
    // Anything after clean_len is torn (tail segment) or corrupt
    // (interior segment) — the caller decides which, since only it knows
    // whether this file is the tail.
    scan.corrupt = scan.clean_len < data.len() as u64;
    Ok(scan)
}

fn sorted_segment_ids(dir: &Path) -> std::io::Result<Vec<u32>> {
    let mut ids = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(id) = entry.file_name().to_str().and_then(seg_id) {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

fn write_seg_header(file: &mut File) -> std::io::Result<()> {
    file.write_all(&MAGIC)?;
    file.write_all(&STORE_VERSION.to_le_bytes())
}

/// Reads the pid in `LOCK`, if the file exists and parses.
fn lock_holder(dir: &Path) -> Option<u32> {
    let text = fs::read_to_string(dir.join("LOCK")).ok()?;
    text.trim().parse().ok()
}

fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

impl Store {
    /// Opens (creating if needed) the store at `opts.dir`, recovering
    /// from torn writes by truncating the tail back to the last intact
    /// record. If another *live* process holds the lock — including this
    /// one, via an earlier handle — the store opens read-only: gets are
    /// served from the state at open, puts are dropped.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures creating the directory or reading
    /// segments; corruption is never an error, only skipped data.
    pub fn open(opts: StoreOptions) -> std::io::Result<Store> {
        let mut span = hc_obs::trace::span("store.open");
        fs::create_dir_all(&opts.dir)?;
        let read_only = match lock_holder(&opts.dir) {
            Some(pid) if pid_alive(pid) => true,
            _ => {
                // No holder, or a stale lock from a dead process: take it.
                fs::write(opts.dir.join("LOCK"), format!("{}\n", std::process::id()))?;
                false
            }
        };

        let mut inner = Inner {
            index: HashMap::new(),
            segs: Vec::new(),
            tail: None,
            live_bytes: 0,
            dead_bytes: 0,
            truncated_tails: 0,
            corrupt_records: 0,
            compactions: 0,
            evicted_records: 0,
        };

        let ids = sorted_segment_ids(&opts.dir)?;
        for (i, &id) in ids.iter().enumerate() {
            let path = seg_path(&opts.dir, id);
            let is_tail = i + 1 == ids.len();
            let scan = scan_segment(&path)?;
            if scan.bad_header {
                inner.corrupt_records += 1;
                continue;
            }
            if scan.corrupt {
                if is_tail && !read_only {
                    // Torn append: drop the tail back to the last intact
                    // record so the log is clean for new writes.
                    let f = OpenOptions::new().write(true).open(&path)?;
                    f.set_len(scan.clean_len)?;
                    inner.truncated_tails += 1;
                } else {
                    inner.corrupt_records += 1;
                }
            }
            let size = if scan.corrupt && is_tail && !read_only {
                scan.clean_len
            } else {
                fs::metadata(&path)?.len()
            };
            inner.segs.push(SegMeta { id, size });
            for rec in scan.records {
                let loc = Loc {
                    seg: id,
                    offset: rec.offset,
                    total: rec.total,
                };
                inner.live_bytes += rec.total;
                if let Some(old) = inner.index.insert(rec.map_key, loc) {
                    // A later duplicate (e.g. interrupted compaction)
                    // supersedes the earlier copy.
                    inner.live_bytes -= old.total;
                    inner.dead_bytes += old.total;
                }
            }
        }

        if !read_only {
            let tail_id = inner.segs.last().map_or(0, |s| s.id);
            let path = seg_path(&opts.dir, tail_id);
            let mut tail = OpenOptions::new().create(true).append(true).open(&path)?;
            if inner.segs.is_empty() || inner.segs.last().is_some_and(|s| s.size < SEG_HEADER) {
                write_seg_header(&mut tail)?;
                if inner.segs.is_empty() {
                    inner.segs.push(SegMeta {
                        id: tail_id,
                        size: SEG_HEADER,
                    });
                } else if let Some(s) = inner.segs.last_mut() {
                    s.size = SEG_HEADER;
                }
            }
            inner.tail = Some(tail);
        }

        span.attach("segments", inner.segs.len());
        span.attach("records", inner.index.len());
        span.attach("read_only", read_only);
        hc_obs::metrics::counter("store.opens").inc();

        Ok(Store {
            shared: Arc::new(Shared {
                dir: opts.dir,
                sync: opts.sync,
                cap_bytes: opts.cap_bytes,
                segment_bytes: opts.segment_bytes.max(SEG_HEADER + REC_HEADER),
                read_only,
                owns_lock: !read_only,
                inner: Mutex::new(inner),
                compacting: AtomicBool::new(false),
                gets: AtomicU64::new(0),
                hits: AtomicU64::new(0),
                puts: AtomicU64::new(0),
                put_drops: AtomicU64::new(0),
            }),
        })
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.shared.dir
    }

    /// True when another live process held the lock at open time.
    pub fn read_only(&self) -> bool {
        self.shared.read_only
    }

    /// True when a live record exists for `(kind, key)`.
    pub fn contains(&self, kind: u8, key: &[u8]) -> bool {
        let inner = self.shared.inner.lock().expect("store lock");
        inner.index.contains_key(&map_key(kind, key))
    }

    /// Live record count (cheap; for metrics).
    pub fn len(&self) -> usize {
        self.shared.inner.lock().expect("store lock").index.len()
    }

    /// True when the store holds no live records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetches the value stored for `(kind, key)`, re-verifying the
    /// record CRC on the way out. A record that fails its CRC (bit rot
    /// since open) is dropped from the index and reported as a miss.
    pub fn get(&self, kind: u8, key: &[u8]) -> Option<Vec<u8>> {
        self.shared.gets.fetch_add(1, Ordering::Relaxed);
        let mk = map_key(kind, key);
        let loc = {
            let inner = self.shared.inner.lock().expect("store lock");
            *inner.index.get(&mk)?
        };
        // Read outside the lock: the region is immutable while indexed
        // (compaction swaps the whole index under the same lock, and
        // retries below cover losing that race).
        match self.read_record(loc, kind, key) {
            Some(v) => {
                self.shared.hits.fetch_add(1, Ordering::Relaxed);
                hc_obs::metrics::counter("store.hits").inc();
                Some(v)
            }
            None => {
                let mut inner = self.shared.inner.lock().expect("store lock");
                if let Some(cur) = inner.index.get(&mk).copied() {
                    if cur.seg == loc.seg && cur.offset == loc.offset {
                        // Genuinely unreadable, not a compaction race.
                        inner.index.remove(&mk);
                        inner.live_bytes = inner.live_bytes.saturating_sub(loc.total);
                        inner.dead_bytes += loc.total;
                        inner.corrupt_records += 1;
                        return None;
                    }
                    drop(inner);
                    // Compaction moved it; follow the new location.
                    let got = self.read_record(cur, kind, key);
                    if got.is_some() {
                        self.shared.hits.fetch_add(1, Ordering::Relaxed);
                        hc_obs::metrics::counter("store.hits").inc();
                    }
                    return got;
                }
                None
            }
        }
    }

    fn read_record(&self, loc: Loc, kind: u8, key: &[u8]) -> Option<Vec<u8>> {
        let path = seg_path(&self.shared.dir, loc.seg);
        let mut f = File::open(path).ok()?;
        f.seek(SeekFrom::Start(loc.offset)).ok()?;
        let mut rec = vec![0u8; loc.total as usize];
        f.read_exact(&mut rec).ok()?;
        let crc = u32::from_le_bytes(rec[4..8].try_into().expect("4"));
        let body = &rec[REC_HEADER as usize..];
        if crc32(body) != crc {
            return None;
        }
        let (k, rec_key, value) = split_body(body)?;
        if k != kind || rec_key != key {
            return None;
        }
        Some(value.to_vec())
    }

    /// Appends `(kind, key, value)` if no live record exists for the key.
    /// Returns `true` when the record was written; `false` when it was
    /// dropped (already present, or this handle is read-only) — the
    /// content-addressed contract is first-write-wins.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures appending to the tail segment.
    pub fn put(&self, kind: u8, key: &[u8], value: &[u8]) -> std::io::Result<bool> {
        if self.shared.read_only {
            self.shared.put_drops.fetch_add(1, Ordering::Relaxed);
            return Ok(false);
        }
        let mk = map_key(kind, key);
        let rec = encode_record(kind, key, value);
        let mut spawn_compact = false;
        {
            let mut inner = self.shared.inner.lock().expect("store lock");
            if inner.index.contains_key(&mk) {
                self.shared.put_drops.fetch_add(1, Ordering::Relaxed);
                return Ok(false);
            }
            self.rotate_if_needed(&mut inner, rec.len() as u64)?;
            let seg = inner.segs.last().expect("tail segment");
            let (seg_id, offset) = (seg.id, seg.size);
            let tail = inner.tail.as_mut().expect("writable store has a tail");
            tail.write_all(&rec)?;
            if self.shared.sync {
                tail.sync_data()?;
            }
            let total = rec.len() as u64;
            inner.segs.last_mut().expect("tail segment").size += total;
            inner.live_bytes += total;
            inner.index.insert(
                mk,
                Loc {
                    seg: seg_id,
                    offset,
                    total,
                },
            );
            self.shared.puts.fetch_add(1, Ordering::Relaxed);
            hc_obs::metrics::counter("store.puts").inc();
            if let Some(cap) = self.shared.cap_bytes {
                if inner.live_bytes + inner.dead_bytes > cap {
                    self.evict_to(&mut inner, cap - cap / 10);
                }
            }
            // Compact once dead weight dominates; the threshold keeps
            // small stores from churning.
            if inner.dead_bytes > self.shared.segment_bytes.min(1 << 20)
                && inner.dead_bytes > inner.live_bytes
            {
                spawn_compact = true;
            }
        }
        if spawn_compact && !self.shared.compacting.swap(true, Ordering::AcqRel) {
            let store = self.clone();
            std::thread::Builder::new()
                .name("hc-store-compact".into())
                .spawn(move || {
                    let _ = store.compact_locked();
                    store.shared.compacting.store(false, Ordering::Release);
                })
                .expect("spawn compaction thread");
        }
        Ok(true)
    }

    /// Opens a fresh tail segment when the current one is at target size.
    fn rotate_if_needed(&self, inner: &mut Inner, incoming: u64) -> std::io::Result<()> {
        let tail = inner.segs.last().expect("tail segment");
        if tail.size > SEG_HEADER && tail.size + incoming > self.shared.segment_bytes {
            let id = tail.id + 1;
            let path = seg_path(&self.shared.dir, id);
            let mut f = OpenOptions::new().create(true).append(true).open(&path)?;
            write_seg_header(&mut f)?;
            inner.tail = Some(f);
            inner.segs.push(SegMeta {
                id,
                size: SEG_HEADER,
            });
        }
        Ok(())
    }

    /// Drops the oldest live records (by append order) until live bytes
    /// fall to `target`. The bytes stay on disk as dead weight until the
    /// next compaction.
    fn evict_to(&self, inner: &mut Inner, target: u64) {
        let mut order: Vec<(u64, Vec<u8>)> = inner
            .index
            .iter()
            .map(|(k, l)| ((u64::from(l.seg) << 40) | l.offset, k.clone()))
            .collect();
        order.sort_unstable();
        for (_, key) in order {
            if inner.live_bytes <= target {
                break;
            }
            if let Some(loc) = inner.index.remove(&key) {
                inner.live_bytes -= loc.total;
                inner.dead_bytes += loc.total;
                inner.evicted_records += 1;
                hc_obs::metrics::counter("store.evicted").inc();
            }
        }
    }

    /// Rewrites the live records into fresh segments and deletes the old
    /// files, reclaiming dead bytes. Runs synchronously; the store's
    /// background compaction calls this off-thread.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error the old segments are untouched
    /// (a crash mid-compaction leaves both generations, and the open
    /// scan resolves duplicates toward the newer copy).
    pub fn compact_now(&self) -> std::io::Result<()> {
        if self.shared.read_only {
            return Ok(());
        }
        while self.shared.compacting.swap(true, Ordering::AcqRel) {
            // A background pass is mid-flight; let it finish first so
            // callers observe a compacted store on return.
            std::thread::yield_now();
        }
        let out = self.compact_locked();
        self.shared.compacting.store(false, Ordering::Release);
        out
    }

    fn compact_locked(&self) -> std::io::Result<()> {
        let mut span = hc_obs::trace::span("store.compact");
        let mut inner = self.shared.inner.lock().expect("store lock");
        let old_ids: Vec<u32> = inner.segs.iter().map(|s| s.id).collect();
        let next_id = old_ids.last().map_or(0, |id| id + 1);
        span.attach("live_bytes", inner.live_bytes);
        span.attach("dead_bytes", inner.dead_bytes);

        // Copy live records in append order into fresh segments.
        let mut order: Vec<(Vec<u8>, Loc)> =
            inner.index.iter().map(|(k, l)| (k.clone(), *l)).collect();
        order.sort_unstable_by_key(|(_, l)| (l.seg, l.offset));

        let mut seg_cache: HashMap<u32, Vec<u8>> = HashMap::new();
        let mut new_index: HashMap<Vec<u8>, Loc> = HashMap::new();
        let mut new_segs: Vec<SegMeta> = Vec::new();
        let mut live = 0u64;
        let mut out: Option<File> = None;
        for (key, loc) in order {
            let data = match seg_cache.entry(loc.seg) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(fs::read(seg_path(&self.shared.dir, loc.seg))?)
                }
            };
            let end = (loc.offset + loc.total) as usize;
            if end > data.len() {
                continue; // lost to bit rot since open; drop it
            }
            let rec = &data[loc.offset as usize..end];
            if new_segs.last().is_none_or(|s| {
                s.size > SEG_HEADER && s.size + loc.total > self.shared.segment_bytes
            }) {
                let id = next_id + new_segs.len() as u32;
                let mut f = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(seg_path(&self.shared.dir, id))?;
                write_seg_header(&mut f)?;
                if let Some(prev) = out.replace(f) {
                    prev.sync_data()?;
                }
                new_segs.push(SegMeta {
                    id,
                    size: SEG_HEADER,
                });
            }
            let seg = new_segs.last_mut().expect("fresh segment");
            let f = out.as_mut().expect("fresh segment file");
            f.write_all(rec)?;
            new_index.insert(
                key,
                Loc {
                    seg: seg.id,
                    offset: seg.size,
                    total: loc.total,
                },
            );
            seg.size += loc.total;
            live += loc.total;
        }
        // Durability point: every new segment is fully on disk before any
        // old one is removed.
        if let Some(f) = out.take() {
            f.sync_data()?;
        }
        if new_segs.is_empty() {
            let id = next_id;
            let mut f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(seg_path(&self.shared.dir, id))?;
            write_seg_header(&mut f)?;
            out = Some(f);
            new_segs.push(SegMeta {
                id,
                size: SEG_HEADER,
            });
        } else {
            out = Some(OpenOptions::new().append(true).open(seg_path(
                &self.shared.dir,
                new_segs.last().expect("tail").id,
            ))?);
        }
        for id in old_ids {
            let _ = fs::remove_file(seg_path(&self.shared.dir, id));
        }
        inner.index = new_index;
        inner.segs = new_segs;
        inner.tail = out;
        inner.live_bytes = live;
        inner.dead_bytes = 0;
        inner.compactions += 1;
        hc_obs::metrics::counter("store.compactions").inc();
        span.attach("compacted_bytes", live);
        Ok(())
    }

    /// Current stats (counters are handle-lifetime, sizes are live).
    pub fn stats(&self) -> StoreStats {
        let inner = self.shared.inner.lock().expect("store lock");
        StoreStats {
            segments: inner.segs.len(),
            records: inner.index.len(),
            live_bytes: inner.live_bytes,
            dead_bytes: inner.dead_bytes,
            file_bytes: inner.segs.iter().map(|s| s.size).sum(),
            read_only: self.shared.read_only,
            truncated_tails: inner.truncated_tails,
            corrupt_records: inner.corrupt_records,
            compactions: inner.compactions,
            evicted_records: inner.evicted_records,
        }
    }

    /// Lifetime get/hit/put/drop counters for this handle:
    /// `(gets, hits, puts, put_drops)`.
    pub fn io_counters(&self) -> (u64, u64, u64, u64) {
        (
            self.shared.gets.load(Ordering::Relaxed),
            self.shared.hits.load(Ordering::Relaxed),
            self.shared.puts.load(Ordering::Relaxed),
            self.shared.put_drops.load(Ordering::Relaxed),
        )
    }

    /// Read-only integrity scan of a store directory: walks every
    /// segment, CRC-checking each record, without taking the lock or
    /// modifying anything. Used by the `storecheck` binary.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures reading the directory or files.
    pub fn verify(dir: &Path) -> std::io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        let ids = sorted_segment_ids(dir)?;
        for (i, &id) in ids.iter().enumerate() {
            let path = seg_path(dir, id);
            let len = fs::metadata(&path)?.len();
            report.segments += 1;
            report.bytes += len;
            let scan = scan_segment(&path)?;
            if scan.bad_header {
                report.bad_headers += 1;
                continue;
            }
            report.records += scan.records.len();
            if scan.corrupt {
                if i + 1 == ids.len() {
                    report.torn_tail_bytes = len - scan.clean_len;
                } else {
                    report.corrupt_records += 1;
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("hc-store-{tag}-{}-{n}", std::process::id()))
    }

    fn cleanup(dir: &Path) {
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn put_get_round_trip_and_first_write_wins() {
        let dir = temp_dir("rt");
        let store = Store::open(StoreOptions::new(&dir)).unwrap();
        assert!(store.put(1, b"alpha", b"one").unwrap());
        assert!(store.put(2, b"alpha", b"two").unwrap()); // different kind
        assert!(!store.put(1, b"alpha", b"changed").unwrap()); // dropped
        assert_eq!(store.get(1, b"alpha").unwrap(), b"one");
        assert_eq!(store.get(2, b"alpha").unwrap(), b"two");
        assert!(store.get(1, b"missing").is_none());
        assert!(store.contains(1, b"alpha"));
        assert!(!store.contains(3, b"alpha"));
        let (gets, hits, puts, drops) = store.io_counters();
        assert_eq!((gets, hits, puts, drops), (3, 2, 2, 1));
        drop(store);
        cleanup(&dir);
    }

    #[test]
    fn records_survive_reopen() {
        let dir = temp_dir("reopen");
        {
            let store = Store::open(StoreOptions::new(&dir)).unwrap();
            store.put(1, b"k", b"persistent value").unwrap();
        }
        let store = Store::open(StoreOptions::new(&dir)).unwrap();
        assert!(!store.read_only(), "lock released on drop");
        assert_eq!(store.get(1, b"k").unwrap(), b"persistent value");
        drop(store);
        cleanup(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = temp_dir("torn");
        {
            let store = Store::open(StoreOptions::new(&dir)).unwrap();
            store.put(1, b"a", b"intact-1").unwrap();
            store.put(1, b"b", b"intact-2").unwrap();
            store.put(1, b"c", b"will be torn").unwrap();
        }
        // Tear the last record: chop bytes off the segment's end.
        let path = seg_path(&dir, 0);
        let len = fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 5)
            .unwrap();
        let store = Store::open(StoreOptions::new(&dir)).unwrap();
        assert_eq!(store.get(1, b"a").unwrap(), b"intact-1");
        assert_eq!(store.get(1, b"b").unwrap(), b"intact-2");
        assert!(store.get(1, b"c").is_none(), "torn record discarded");
        let stats = store.stats();
        assert_eq!(stats.truncated_tails, 1);
        assert_eq!(stats.records, 2);
        // The log accepts appends again after recovery.
        assert!(store.put(1, b"c", b"rewritten").unwrap());
        assert_eq!(store.get(1, b"c").unwrap(), b"rewritten");
        drop(store);
        cleanup(&dir);
    }

    #[test]
    fn live_lock_holder_forces_read_only() {
        let dir = temp_dir("lock");
        let writer = Store::open(StoreOptions::new(&dir)).unwrap();
        writer.put(1, b"k", b"v").unwrap();
        let reader = Store::open(StoreOptions::new(&dir)).unwrap();
        assert!(reader.read_only());
        assert_eq!(reader.get(1, b"k").unwrap(), b"v");
        assert!(!reader.put(1, b"new", b"dropped").unwrap());
        assert!(!reader.contains(1, b"new"));
        drop(reader);
        // The reader must not have stolen the writer's lock.
        assert!(writer.put(1, b"again", b"v2").unwrap());
        drop(writer);
        // A stale lock (dead pid) is taken over.
        fs::write(dir.join("LOCK"), "4294967294\n").unwrap();
        let taker = Store::open(StoreOptions::new(&dir)).unwrap();
        assert!(!taker.read_only());
        drop(taker);
        cleanup(&dir);
    }

    #[test]
    fn cap_evicts_oldest_and_compaction_reclaims_disk() {
        let dir = temp_dir("cap");
        let mut opts = StoreOptions::new(&dir);
        opts.segment_bytes = 4096;
        opts.cap_bytes = Some(16 * 1024);
        let store = Store::open(opts.clone()).unwrap();
        let value = vec![0xABu8; 700];
        for i in 0..64u32 {
            store.put(1, &i.to_le_bytes(), &value).unwrap();
        }
        let stats = store.stats();
        assert!(
            stats.live_bytes <= 16 * 1024,
            "live {} over cap",
            stats.live_bytes
        );
        assert!(stats.evicted_records > 0);
        assert!(
            store.get(1, &0u32.to_le_bytes()).is_none(),
            "oldest evicted"
        );
        assert!(store.get(1, &63u32.to_le_bytes()).is_some(), "newest kept");
        store.compact_now().unwrap();
        let stats = store.stats();
        assert_eq!(stats.dead_bytes, 0);
        assert!(
            stats.file_bytes <= 18 * 1024,
            "disk {} not reclaimed",
            stats.file_bytes
        );
        assert!(
            store.get(1, &63u32.to_le_bytes()).is_some(),
            "live survives compaction"
        );
        drop(store);
        // Compacted store reopens clean.
        let store = Store::open(opts).unwrap();
        assert!(store.get(1, &63u32.to_le_bytes()).is_some());
        assert!(Store::verify(&dir).unwrap().ok());
        drop(store);
        cleanup(&dir);
    }

    #[test]
    fn segments_rotate_at_target_size() {
        let dir = temp_dir("rotate");
        let mut opts = StoreOptions::new(&dir);
        opts.segment_bytes = 1024;
        let store = Store::open(opts).unwrap();
        for i in 0..16u32 {
            store.put(1, &i.to_le_bytes(), &[0u8; 300]).unwrap();
        }
        assert!(store.stats().segments > 1);
        for i in 0..16u32 {
            assert!(store.get(1, &i.to_le_bytes()).is_some(), "key {i}");
        }
        drop(store);
        cleanup(&dir);
    }

    #[test]
    fn verify_reports_torn_tail_and_interior_corruption() {
        let dir = temp_dir("verify");
        {
            let mut opts = StoreOptions::new(&dir);
            opts.segment_bytes = 512;
            let store = Store::open(opts).unwrap();
            for i in 0..8u32 {
                store.put(1, &i.to_le_bytes(), &[i as u8; 200]).unwrap();
            }
        }
        let clean = Store::verify(&dir).unwrap();
        assert!(clean.ok());
        assert_eq!(clean.records, 8);
        assert_eq!(clean.torn_tail_bytes, 0);
        // Flip a payload byte mid-way through the first segment.
        let path = seg_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let report = Store::verify(&dir).unwrap();
        assert!(!report.ok());
        assert_eq!(report.corrupt_records, 1);
        cleanup(&dir);
    }

    #[test]
    fn sync_mode_writes_are_readable() {
        let dir = temp_dir("sync");
        let mut opts = StoreOptions::new(&dir);
        opts.sync = true;
        let store = Store::open(opts).unwrap();
        store.put(1, b"k", b"durable").unwrap();
        assert_eq!(store.get(1, b"k").unwrap(), b"durable");
        drop(store);
        cleanup(&dir);
    }

    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A record body: arbitrary bytes, or a kind and a small key length
    /// followed by arbitrary bytes, so the length is sometimes in range.
    fn body() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..40),
            (
                any::<u8>(),
                0u16..48,
                proptest::collection::vec(any::<u8>(), 0..40)
            )
                .prop_map(|(kind, key_len, rest)| {
                    let mut b = vec![kind];
                    b.extend_from_slice(&key_len.to_le_bytes());
                    b.extend(rest);
                    b
                }),
        ]
    }

    /// One stretch of a segment after its header: raw bytes, or a record
    /// frame whose CRC matches its body under a length field that may lie.
    fn stretch() -> impl Strategy<Value = Vec<u8>> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..24),
            (body(), 0u8..4).prop_map(|(body, lie)| {
                let len = match lie {
                    0 => u32::MAX,
                    1 => body.len() as u32 + 1,
                    _ => body.len() as u32,
                };
                let mut rec = len.to_le_bytes().to_vec();
                rec.extend_from_slice(&crc32(&body).to_le_bytes());
                rec.extend(body);
                rec
            }),
        ]
    }

    proptest! {
        /// Every body splits into parts that tile it, or is rejected.
        #[test]
        fn split_body_never_panics(body in body()) {
            let split = catch_unwind(|| split_body(&body).map(|(_, k, v)| (k.len(), v.len())));
            let split = split.unwrap_or_else(|_| panic!("split_body panicked on {body:?}"));
            if let Some((key, value)) = split {
                prop_assert_eq!(3 + key + value, body.len());
            }
        }

        /// A segment with a valid header and arbitrary bytes after it
        /// scans without panicking, and its intact prefix stays in bounds.
        #[test]
        fn scan_segment_never_panics(stretches in proptest::collection::vec(stretch(), 0..12)) {
            let dir = temp_dir("scan");
            fs::create_dir_all(&dir).unwrap();
            let path = seg_path(&dir, 0);
            let mut bytes = MAGIC.to_vec();
            bytes.extend_from_slice(&STORE_VERSION.to_le_bytes());
            bytes.extend(stretches.concat());
            fs::write(&path, &bytes).unwrap();
            let scan = catch_unwind(AssertUnwindSafe(|| scan_segment(&path)));
            cleanup(&dir);
            let scan = scan
                .unwrap_or_else(|_| panic!("scan_segment panicked on {bytes:?}"))
                .unwrap();
            prop_assert!(!scan.bad_header);
            prop_assert!(scan.clean_len <= bytes.len() as u64);
            prop_assert_eq!(scan.corrupt, scan.clean_len < bytes.len() as u64);
            let tiled: u64 = scan.records.iter().map(|r| r.total).sum();
            prop_assert_eq!(SEG_HEADER + tiled, scan.clean_len);
        }
    }
}
