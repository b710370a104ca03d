//! Pluggable spill backends — the storage-adapter layer under
//! [`crate::spill`].
//!
//! A [`SpillFile`](crate::spill::SpillFile) produces *logical* blocks:
//! [`BLOCK_SIZE`]-byte slices of the row/key
//! stream, charged to the modeled or pool meters exactly as the paper's
//! cost model prices them. This module owns everything **below** that
//! charging layer: where the block bytes physically live, what they cost in
//! wall time, and whether they are compressed at rest.
//!
//! ```text
//!   SpillFile / SpillReader          logical blocks, meter charging
//!        │          ▲
//!        │ write    │ read (direct or via the read-ahead Prefetcher)
//!        ▼          │
//!   Box<dyn BackendFile>             one spill object, block-granular
//!        ▲
//!        │ open()
//!   Arc<dyn SpillBackend>
//!        ├─ MemBackend         a Vec of payloads per object
//!        └─ LocalFileBackend   the spill arena:
//!
//!             one unlinked temp file per backend, SLOT_SIZE-byte slots
//!             ┌────────┬────────┬────────┬────────┬────────┬──
//!             │ slot 0 │ slot 1 │ slot 2 │ slot 3 │ slot 4 │ …
//!             └────────┴────────┴────────┴────────┴────────┴──
//!             object A = [0, 3]   object B = [1, 4]   free list = [2]
//! ```
//!
//! A file-backed spill object is nothing but its slot list: appending takes
//! a slot off the free list (or grows the file by one), deleting pushes the
//! object's slots back. No object ever creates, opens or unlinks an OS file
//! — a Hashed Sort that victim-spills a thousand small buckets costs a
//! thousand slot-list pushes, not a thousand `open`/`unlink` pairs.
//!
//! The invariant that makes the layering safe: a backend only ever sees
//! opaque block payloads. Rows, modeled counters, and pool counters are
//! decided entirely above this line, so **every backend is bit-identical in
//! all three** — only wall time (and the informational [`BackendStats`])
//! may differ. `tests/storage_backend_tests.rs` gates this across the full
//! backend × compression × prefetch matrix.
//!
//! Compression is negotiated per backend: a [`SpillConfig`] may request it,
//! but it only takes effect when the backend's
//! [`SpillBackend::compressible`] says the medium benefits (RAM-to-RAM
//! copies do not).

use crate::block::BLOCK_SIZE;
use crate::codec::FRAME_HEADER;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use wf_common::{Error, Result};

/// Shared request/byte counters of one backend instance. Every file opened
/// from the backend feeds the same counters, so [`BackendStats`] aggregates
/// the whole store's spill traffic (informational — never part of modeled
/// time or pool counters).
#[derive(Debug, Default)]
pub struct BackendCounters {
    opened: AtomicU64,
    put_requests: AtomicU64,
    get_requests: AtomicU64,
    delete_requests: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    prefetch_hits: AtomicU64,
    prefetch_misses: AtomicU64,
}

impl BackendCounters {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    #[inline]
    pub(crate) fn record_open(&self) {
        self.opened.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_put(&self, bytes: usize) {
        self.put_requests.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_get(&self, bytes: usize) {
        self.get_requests.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_delete(&self) {
        self.delete_requests.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_prefetch(&self, hit: bool) {
        if hit {
            self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.prefetch_misses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A point-in-time read of a backend's [`BackendCounters`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BackendStats {
    /// Backend name (`"mem"` / `"file"`).
    pub backend: &'static str,
    /// Block-append requests issued.
    pub put_requests: u64,
    /// Block-read requests issued (prefetched reads included).
    pub get_requests: u64,
    /// Spill objects deleted (every one is, eventually — delete-on-drop).
    pub delete_requests: u64,
    /// Physical bytes written (post-compression).
    pub bytes_written: u64,
    /// Physical bytes read (pre-decompression).
    pub bytes_read: u64,
    /// Reads served from the read-ahead buffer without blocking.
    pub prefetch_hits: u64,
    /// Reads that had to wait for (or issue) the fetch.
    pub prefetch_misses: u64,
    /// Spill objects opened and not yet deleted. Every object deletes itself
    /// on drop, so this reads 0 whenever no query is running — however the
    /// last one ended. The leak oracle on every backend.
    pub live_objects: u64,
    /// Bytes of backing storage the backend holds open: for the file
    /// backend, the arena's length (slots ever handed out × [`SLOT_SIZE`],
    /// free ones included — the high-water mark of live blocks); 0 on the
    /// heap backends.
    pub footprint_bytes: u64,
}

impl BackendStats {
    /// Fraction of reads served from the read-ahead buffer (0 when no
    /// prefetched read happened).
    pub fn prefetch_hit_rate(&self) -> f64 {
        let total = self.prefetch_hits + self.prefetch_misses;
        if total == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / total as f64
        }
    }
}

/// Block-granular storage adapter — where spill blocks physically live.
///
/// Implementations must be cheap to share ([`Arc`]) and thread-safe:
/// [`SpillBackend::open`] is called once per spill file, from any worker
/// thread.
pub trait SpillBackend: Send + Sync {
    /// Short stable name (`"mem"` / `"file"`).
    fn name(&self) -> &'static str;
    /// Whether compressing blocks saves real transfer or storage cost on
    /// this medium; [`SpillConfig::effective_compress`] negotiates against
    /// it. RAM-backed media decline: the CPU spent would buy nothing.
    fn compressible(&self) -> bool;
    /// Create a fresh, empty spill object.
    fn open(&self) -> Result<Box<dyn BackendFile>>;
    /// The backend's shared traffic counters.
    fn counters(&self) -> &Arc<BackendCounters>;
    /// Bytes of backing storage held open (see
    /// [`BackendStats::footprint_bytes`]).
    fn footprint_bytes(&self) -> u64 {
        0
    }

    /// Snapshot the traffic counters.
    fn stats(&self) -> BackendStats {
        let c = self.counters();
        // Deletes first: an object is deleted after it is opened, so a
        // concurrent snapshot can over- but never under-count the live set.
        let delete_requests = c.delete_requests.load(Ordering::Relaxed);
        BackendStats {
            backend: self.name(),
            put_requests: c.put_requests.load(Ordering::Relaxed),
            get_requests: c.get_requests.load(Ordering::Relaxed),
            delete_requests,
            bytes_written: c.bytes_written.load(Ordering::Relaxed),
            bytes_read: c.bytes_read.load(Ordering::Relaxed),
            prefetch_hits: c.prefetch_hits.load(Ordering::Relaxed),
            prefetch_misses: c.prefetch_misses.load(Ordering::Relaxed),
            live_objects: c
                .opened
                .load(Ordering::Relaxed)
                .saturating_sub(delete_requests),
            footprint_bytes: self.footprint_bytes(),
        }
    }
}

/// One spill object: an append-only sequence of opaque block payloads.
///
/// Writes go through `&mut self` (single producer — the `SpillFile`);
/// reads take `&self` so the prefetcher's worker threads can fetch
/// concurrently. Every implementation deletes its storage on drop — the
/// handle *is* the object's lifetime, which is what keeps aborted queries
/// (cancel/timeout dropping a reader mid-stream) from leaking spill space.
pub trait BackendFile: Send + Sync {
    /// Append one block payload.
    fn append_block(&mut self, block: &[u8]) -> Result<()>;
    /// Read back the payload of block `idx` (0-based append order).
    fn read_block(&self, idx: u64) -> Result<Vec<u8>>;
    /// Blocks appended so far.
    fn block_count(&self) -> u64;
    /// Release the underlying storage. Idempotent; also invoked by drop.
    fn delete(&self);
    /// The owning backend's shared traffic counters (prefetch hit/miss
    /// accounting reports here).
    fn counters(&self) -> &Arc<BackendCounters>;
}

// ---------------------------------------------------------------------------
// MemBackend
// ---------------------------------------------------------------------------

/// In-memory backend (the default): blocks live on the process heap. This
/// absorbs the old `SimStore` — counts are what matter, wall I/O is free.
#[derive(Debug, Default)]
pub struct MemBackend {
    counters: Arc<BackendCounters>,
}

impl MemBackend {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }
}

impl SpillBackend for MemBackend {
    fn name(&self) -> &'static str {
        "mem"
    }

    fn compressible(&self) -> bool {
        false
    }

    fn open(&self) -> Result<Box<dyn BackendFile>> {
        self.counters.record_open();
        Ok(Box::new(MemFile {
            blocks: Mutex::new(Some(Vec::new())),
            counters: Arc::clone(&self.counters),
        }))
    }

    fn counters(&self) -> &Arc<BackendCounters> {
        &self.counters
    }
}

struct MemFile {
    /// `None` after delete.
    blocks: Mutex<Option<Vec<Vec<u8>>>>,
    counters: Arc<BackendCounters>,
}

impl BackendFile for MemFile {
    fn append_block(&mut self, block: &[u8]) -> Result<()> {
        let mut guard = self.blocks.lock().expect("mem spill lock");
        let blocks = guard
            .as_mut()
            .ok_or_else(|| Error::Execution("append to deleted spill object".into()))?;
        blocks.push(block.to_vec());
        self.counters.record_put(block.len());
        Ok(())
    }

    fn read_block(&self, idx: u64) -> Result<Vec<u8>> {
        let guard = self.blocks.lock().expect("mem spill lock");
        let blocks = guard
            .as_ref()
            .ok_or_else(|| Error::Execution("read from deleted spill object".into()))?;
        let block = blocks
            .get(idx as usize)
            .ok_or_else(|| Error::Execution(format!("spill block {idx} out of range")))?
            .clone();
        self.counters.record_get(block.len());
        Ok(block)
    }

    fn block_count(&self) -> u64 {
        self.blocks
            .lock()
            .expect("mem spill lock")
            .as_ref()
            .map_or(0, |b| b.len() as u64)
    }

    fn delete(&self) {
        if self.blocks.lock().expect("mem spill lock").take().is_some() {
            self.counters.record_delete();
        }
    }

    fn counters(&self) -> &Arc<BackendCounters> {
        &self.counters
    }
}

impl Drop for MemFile {
    fn drop(&mut self) {
        self.delete();
    }
}

// ---------------------------------------------------------------------------
// LocalFileBackend — the spill arena
// ---------------------------------------------------------------------------

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Bytes one arena slot spans: a logical block plus the block codec's
/// worst-case framing (an incompressible block is stored raw behind a
/// [`FRAME_HEADER`]), so any payload the spill path produces fits one slot.
/// A shorter (compressed, or trailing partial) payload occupies the front of
/// its slot; the unwritten tail is a hole in the sparse file.
pub const SLOT_SIZE: usize = BLOCK_SIZE + FRAME_HEADER;

/// Local-disk backend: every spill object of one backend instance lives in
/// **one** temp file, the *spill arena*, carved into fixed [`SLOT_SIZE`]
/// slots (PostgreSQL's `logtape.c` scheme at its simplest).
///
/// * **Lifetime.** The file is created under the backend's directory by the
///   first block ever appended — a backend that never spills creates
///   nothing — and is **unlinked right after it is opened**: but for that
///   instant the directory shows no entry, and no crash, panic or abort
///   path can leak one; the kernel reclaims the space when the backend (and
///   the last object handle) drops.
/// * **Allocation.** A free list of slot numbers under one short mutex:
///   O(1) alloc and free, no compaction. Deleting an object (explicitly or
///   by drop) returns its slots, and the next append anywhere reuses them,
///   so the file's length — [`BackendStats::footprint_bytes`], slots ever
///   handed out × [`SLOT_SIZE`], free ones included — is the high-water
///   mark of *live* blocks, not the volume ever spilled.
/// * **I/O.** Positional reads and writes issued outside the allocator
///   lock: no seek, and concurrent readers (the prefetcher's workers) of one
///   object or of many never serialise on each other.
#[derive(Debug)]
pub struct LocalFileBackend {
    arena: Arc<Arena>,
    counters: Arc<BackendCounters>,
}

impl LocalFileBackend {
    /// Spill into the OS temp dir.
    pub fn new() -> Arc<Self> {
        Self::in_dir(std::env::temp_dir())
    }

    /// Spill into a caller-chosen directory (tests point this at a private
    /// dir to observe that it never holds an entry).
    pub fn in_dir(dir: PathBuf) -> Arc<Self> {
        Arc::new(LocalFileBackend {
            arena: Arc::new(Arena {
                dir,
                file: OnceLock::new(),
                alloc: Mutex::new(SlotAlloc::default()),
            }),
            counters: Arc::new(BackendCounters::default()),
        })
    }
}

impl SpillBackend for LocalFileBackend {
    fn name(&self) -> &'static str {
        "file"
    }

    fn compressible(&self) -> bool {
        true
    }

    fn open(&self) -> Result<Box<dyn BackendFile>> {
        self.counters.record_open();
        Ok(Box::new(ArenaFile {
            arena: Arc::clone(&self.arena),
            index: RwLock::new(Some(Vec::new())),
            counters: Arc::clone(&self.counters),
        }))
    }

    fn counters(&self) -> &Arc<BackendCounters> {
        &self.counters
    }

    fn footprint_bytes(&self) -> u64 {
        lock(&self.arena.alloc).slots * SLOT_SIZE as u64
    }
}

/// The one temp file behind a [`LocalFileBackend`] and its slot allocator.
#[derive(Debug)]
struct Arena {
    dir: PathBuf,
    /// Set once, by the first allocation, while holding `alloc`.
    file: OnceLock<File>,
    alloc: Mutex<SlotAlloc>,
}

#[derive(Debug, Default)]
struct SlotAlloc {
    /// Slots given back by deleted objects; reused last-in first-out.
    free: Vec<u64>,
    /// Slots ever handed out — the file's high-water mark.
    slots: u64,
}

/// Allocator and slot-list updates are single pushes and pops that leave the
/// data valid at every step, so a poisoned lock is safe to recover — and
/// `delete` runs from `Drop`, which must not panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn io_err(what: &str, e: std::io::Error) -> Error {
    Error::Execution(format!("{what}: {e}"))
}

/// Create the arena's temp file and unlink it while keeping it open.
fn create_unlinked(dir: &Path) -> Result<File> {
    let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("wfopt-spill-{}-{}.tmp", std::process::id(), n));
    let file = OpenOptions::new()
        .create_new(true)
        .read(true)
        .write(true)
        .open(&path)
        .map_err(|e| io_err("create spill file", e))?;
    std::fs::remove_file(&path).map_err(|e| io_err("unlink spill file", e))?;
    Ok(file)
}

impl Arena {
    /// Take one slot: a recycled one if any, else the next past the
    /// high-water mark. The first call creates the file.
    fn alloc(&self) -> Result<(u64, &File)> {
        let mut alloc = lock(&self.alloc);
        let file = match self.file.get() {
            Some(file) => file,
            None => {
                let created = create_unlinked(&self.dir)?;
                self.file.get_or_init(|| created)
            }
        };
        let slot = alloc.free.pop().unwrap_or_else(|| {
            alloc.slots += 1;
            alloc.slots - 1
        });
        Ok((slot, file))
    }

    fn free(&self, slots: impl IntoIterator<Item = u64>) {
        lock(&self.alloc).free.extend(slots);
    }
}

/// One spill object of the arena: the slots holding its blocks, in append
/// order.
struct ArenaFile {
    arena: Arc<Arena>,
    /// `(slot, payload length)` per block; `None` once deleted. Reads hold
    /// the lock shared *across the transfer* and delete takes it exclusive,
    /// so a read racing a delete returns an error or the object's own bytes
    /// — never those of whoever the slot was recycled to.
    index: RwLock<Option<Vec<(u64, u32)>>>,
    counters: Arc<BackendCounters>,
}

fn slot_offset(slot: u64) -> u64 {
    slot * SLOT_SIZE as u64
}

impl BackendFile for ArenaFile {
    fn append_block(&mut self, block: &[u8]) -> Result<()> {
        if block.len() > SLOT_SIZE {
            return Err(Error::Execution(format!(
                "spill block of {} bytes exceeds the {SLOT_SIZE}-byte slot",
                block.len()
            )));
        }
        let index = self
            .index
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .as_mut()
            .ok_or_else(|| Error::Execution("append to deleted spill object".into()))?;
        let (slot, file) = self.arena.alloc()?;
        if let Err(e) = file.write_all_at(block, slot_offset(slot)) {
            self.arena.free([slot]);
            return Err(io_err("spill write", e));
        }
        index.push((slot, block.len() as u32));
        self.counters.record_put(block.len());
        Ok(())
    }

    fn read_block(&self, idx: u64) -> Result<Vec<u8>> {
        let guard = self.index.read().unwrap_or_else(PoisonError::into_inner);
        let index = guard
            .as_ref()
            .ok_or_else(|| Error::Execution("read from deleted spill object".into()))?;
        let &(slot, len) = usize::try_from(idx)
            .ok()
            .and_then(|i| index.get(i))
            .ok_or_else(|| Error::Execution(format!("spill block {idx} out of range")))?;
        let file = self
            .arena
            .file
            .get()
            .ok_or_else(|| Error::Execution("spill arena has no file".into()))?;
        let mut buf = vec![0u8; len as usize];
        file.read_exact_at(&mut buf, slot_offset(slot))
            .map_err(|e| io_err("spill read", e))?;
        self.counters.record_get(buf.len());
        Ok(buf)
    }

    fn block_count(&self) -> u64 {
        self.index
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map_or(0, |index| index.len() as u64)
    }

    fn delete(&self) {
        let taken = self
            .index
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(index) = taken {
            self.arena.free(index.into_iter().map(|(slot, _)| slot));
            self.counters.record_delete();
        }
    }

    fn counters(&self) -> &Arc<BackendCounters> {
        &self.counters
    }
}

impl Drop for ArenaFile {
    fn drop(&mut self) {
        self.delete();
    }
}

// ---------------------------------------------------------------------------
// Selection & configuration
// ---------------------------------------------------------------------------

/// Serializable backend selector — what [`DatabaseConfig`] and CLI flags
/// carry around ([`SpillConfig`] holds the live `Arc<dyn SpillBackend>`).
///
/// [`DatabaseConfig`]: https://docs.rs/wfopt
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpillBackendKind {
    /// In-memory ([`MemBackend`], the default).
    #[default]
    Mem,
    /// One local temp file holding every spill object
    /// ([`LocalFileBackend`], the spill arena).
    File,
}

impl SpillBackendKind {
    /// The backend the `WF_SPILL_BACKEND` environment variable selects
    /// (`mem`, `file`; unset → `Mem`). Panics on any other value.
    pub fn from_env() -> Self {
        read_env("WF_SPILL_BACKEND", parse_backend)
    }

    /// Instantiate a fresh backend (its own counters).
    pub fn build(self) -> Arc<dyn SpillBackend> {
        match self {
            SpillBackendKind::Mem => MemBackend::new(),
            SpillBackendKind::File => LocalFileBackend::new(),
        }
    }
}

/// Read the environment variable `name` (unset reads as empty) through its
/// parse function. A value the function rejects panics with its message:
/// running some other configuration than the one asked for would pass off
/// one backend's results as another's.
fn read_env<T>(name: &str, parse: fn(&str) -> std::result::Result<T, String>) -> T {
    let value = std::env::var_os(name).unwrap_or_default();
    parse(&value.to_string_lossy()).unwrap_or_else(|e| panic!("{e}"))
}

fn rejected(name: &str, value: &str, accepted: &str) -> String {
    format!("{name}={value:?} is not recognised (accepted: {accepted})")
}

/// `WF_SPILL_BACKEND`: `mem`, `file`, or empty for the default `Mem`.
fn parse_backend(value: &str) -> std::result::Result<SpillBackendKind, String> {
    match value {
        "" | "mem" => Ok(SpillBackendKind::Mem),
        "file" => Ok(SpillBackendKind::File),
        _ => Err(rejected(
            "WF_SPILL_BACKEND",
            value,
            "`mem`, `file` or empty",
        )),
    }
}

/// `WF_SPILL_COMPRESS`: `1` / `true` requests compression; `0`, `false`
/// or empty leaves it off.
fn parse_compress(value: &str) -> std::result::Result<bool, String> {
    match value {
        "1" | "true" => Ok(true),
        "" | "0" | "false" => Ok(false),
        _ => Err(rejected(
            "WF_SPILL_COMPRESS",
            value,
            "`1`, `true`, `0`, `false` or empty",
        )),
    }
}

/// Everything the spill path needs to know: which backend, whether to
/// compress blocks at rest, and how deep to read ahead. Cloning shares the
/// backend (and its counters) — one config per chain/store aggregates all
/// of its spill traffic.
#[derive(Clone)]
pub struct SpillConfig {
    /// Where blocks live.
    pub backend: Arc<dyn SpillBackend>,
    /// Request block compression (applied only where
    /// [`SpillBackend::compressible`] agrees).
    pub compress: bool,
    /// Read-ahead depth in blocks (`0` = synchronous cold reads).
    pub prefetch_blocks: usize,
}

impl SpillConfig {
    /// In-memory backend, no compression, no read-ahead — the default.
    pub fn mem() -> Self {
        Self::of_kind(SpillBackendKind::Mem)
    }

    /// Local-disk backend (one temp file, the spill arena).
    pub fn file() -> Self {
        Self::of_kind(SpillBackendKind::File)
    }

    /// A fresh backend of the given kind, compression and prefetch off.
    pub fn of_kind(kind: SpillBackendKind) -> Self {
        SpillConfig {
            backend: kind.build(),
            compress: false,
            prefetch_blocks: 0,
        }
    }

    /// Backend from `WF_SPILL_BACKEND`, compression from
    /// `WF_SPILL_COMPRESS`, no read-ahead — the defaults every environment
    /// not given an explicit config starts from. Panics on a value either
    /// variable does not accept.
    pub fn from_env() -> Self {
        Self::of_kind(SpillBackendKind::from_env())
            .with_compress(read_env("WF_SPILL_COMPRESS", parse_compress))
    }

    /// Same config with compression requested/cleared.
    pub fn with_compress(mut self, compress: bool) -> Self {
        self.compress = compress;
        self
    }

    /// Same config with the read-ahead depth set.
    pub fn with_prefetch(mut self, prefetch_blocks: usize) -> Self {
        self.prefetch_blocks = prefetch_blocks;
        self
    }

    /// Whether blocks will actually be compressed: requested **and** the
    /// backend's medium benefits (the negotiation).
    pub fn effective_compress(&self) -> bool {
        self.compress && self.backend.compressible()
    }

    /// Traffic snapshot of the shared backend.
    pub fn stats(&self) -> BackendStats {
        self.backend.stats()
    }
}

impl std::fmt::Debug for SpillConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillConfig")
            .field("backend", &self.backend.name())
            .field("compress", &self.compress)
            .field("prefetch_blocks", &self.prefetch_blocks)
            .finish()
    }
}

/// The logical block size backends receive (uncompressed payloads are
/// exactly this long except for a file's trailing partial block).
pub const LOGICAL_BLOCK: usize = BLOCK_SIZE;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faulty::FaultyBackend;
    use std::time::Duration;

    fn round_trip(backend: &dyn SpillBackend) {
        let mut f = backend.open().unwrap();
        let blocks: Vec<Vec<u8>> = (0..5u8)
            .map(|i| vec![i; if i == 4 { 100 } else { BLOCK_SIZE }])
            .collect();
        for b in &blocks {
            f.append_block(b).unwrap();
        }
        assert_eq!(f.block_count(), 5);
        // Out-of-order reads are allowed (merge cascades interleave runs).
        for idx in [3u64, 0, 4, 2, 1] {
            assert_eq!(f.read_block(idx).unwrap(), blocks[idx as usize]);
        }
        assert!(f.read_block(5).is_err());
        let s = backend.stats();
        assert_eq!(s.put_requests, 5);
        assert_eq!(s.get_requests, 5);
        assert_eq!(backend.stats().live_objects, 1);
        drop(f);
        let s = backend.stats();
        assert_eq!((s.delete_requests, s.live_objects), (1, 0));
    }

    #[test]
    fn mem_backend_round_trips() {
        round_trip(&*MemBackend::new());
    }

    #[test]
    fn file_backend_round_trips() {
        round_trip(&*LocalFileBackend::new());
    }

    /// A private, empty directory for one test's arena.
    fn private_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wfopt-arenatest-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entries(dir: &Path) -> usize {
        std::fs::read_dir(dir).unwrap().count()
    }

    fn slots(backend: &LocalFileBackend) -> u64 {
        backend.stats().footprint_bytes / SLOT_SIZE as u64
    }

    /// Deterministic, object- and block-specific payload of a given length.
    fn payload(object: usize, block: usize, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (object * 31 + block * 7 + i % 13) as u8)
            .collect()
    }

    #[test]
    fn arena_file_is_unlinked_and_delete_is_idempotent() {
        let dir = private_dir("unlinked");
        let backend = LocalFileBackend::in_dir(dir.clone());
        let mut f = backend.open().unwrap();
        f.append_block(&[1, 2, 3]).unwrap();
        assert_eq!(entries(&dir), 0, "the arena file is unlinked once open");
        assert_eq!(f.read_block(0).unwrap(), [1, 2, 3]);
        assert_eq!(backend.stats().live_objects, 1);
        f.delete();
        f.delete();
        drop(f);
        let s = backend.stats();
        assert_eq!((s.delete_requests, s.live_objects), (1, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backend_that_never_spills_creates_no_file() {
        let dir = private_dir("idle");
        let backend = LocalFileBackend::in_dir(dir.clone());
        let f = backend.open().unwrap();
        assert_eq!(f.block_count(), 0);
        drop(f);
        let s = backend.stats();
        assert_eq!(
            (s.put_requests, s.footprint_bytes, s.live_objects),
            (0, 0, 0)
        );
        assert!(backend.arena.file.get().is_none());
        assert_eq!(entries(&dir), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn freed_slots_are_recycled_so_the_footprint_tracks_live_blocks() {
        let dir = private_dir("recycle");
        let backend = LocalFileBackend::in_dir(dir.clone());
        let mut live = std::collections::VecDeque::new();
        for i in 0..10_000usize {
            let mut f = backend.open().unwrap();
            f.append_block(&payload(i, 0, 64)).unwrap();
            f.append_block(&payload(i, 1, 64)).unwrap();
            live.push_back((i, f));
            if live.len() == 8 {
                let (oldest, f) = live.pop_front().unwrap();
                assert_eq!(f.read_block(1).unwrap(), payload(oldest, 1, 64));
            }
            assert!(
                slots(&backend) <= 16,
                "object {i}: {} slots",
                slots(&backend)
            );
        }
        live.clear();
        let s = backend.stats();
        assert_eq!(s.live_objects, 0);
        assert_eq!(s.delete_requests, 10_000);
        assert_eq!(s.put_requests, 20_000);
        assert_eq!(entries(&dir), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interleaved_objects_read_back_out_of_order() {
        // The merge cascade's access pattern: many runs appended round-robin
        // (so their slots interleave in the file), compressed payloads of
        // varying length, read back in an unrelated order.
        let backend = LocalFileBackend::new();
        let raw = |o: usize, b: usize| payload(o, b, 1 + (o * 977 + b * 4099) % BLOCK_SIZE);
        let mut files: Vec<_> = (0..64).map(|_| backend.open().unwrap()).collect();
        for b in 0..6 {
            for (o, f) in files.iter_mut().enumerate() {
                f.append_block(&crate::codec::compress_block(&raw(o, b)))
                    .unwrap();
            }
        }
        for b in [4usize, 0, 5, 2, 1, 3] {
            for o in (0..64).rev() {
                let frame = files[o].read_block(b as u64).unwrap();
                assert_eq!(
                    crate::codec::decompress_block(&frame).unwrap(),
                    raw(o, b),
                    "object {o} block {b}"
                );
            }
        }
        assert_eq!(slots(&backend), 64 * 6);
        assert_eq!(backend.stats().live_objects, 64);
    }

    #[test]
    fn a_read_racing_a_delete_never_sees_a_recycled_slot() {
        use std::sync::Barrier;
        let backend = LocalFileBackend::new();
        for round in 0..200usize {
            let mut f = backend.open().unwrap();
            let own = payload(round, 0, BLOCK_SIZE);
            f.append_block(&own).unwrap();
            let victim: Arc<dyn BackendFile> = Arc::from(f);
            let barrier = Barrier::new(2);
            std::thread::scope(|scope| {
                let reader = scope.spawn(|| {
                    barrier.wait();
                    victim.read_block(0)
                });
                barrier.wait();
                victim.delete();
                // Whoever gets the freed slot overwrites it at once.
                let mut next = backend.open().unwrap();
                next.append_block(&vec![0xEE; BLOCK_SIZE]).unwrap();
                match reader.join().expect("reader thread") {
                    Ok(bytes) => assert_eq!(bytes, own, "round {round}"),
                    Err(e) => assert!(matches!(e, Error::Execution(_)), "{e}"),
                }
            });
            assert!(
                victim.read_block(0).is_err(),
                "deleted objects stay deleted"
            );
        }
        assert_eq!(backend.stats().live_objects, 0);
        assert_eq!(slots(&backend), 1, "every round reused the one slot");
    }

    #[test]
    fn arena_failures_are_typed_errors_and_leak_nothing() {
        let dir = private_dir("faults");
        // The directory does not exist, so the arena cannot create its file.
        let broken = LocalFileBackend::in_dir(dir.join("missing"));
        let mut f = broken.open().unwrap();
        let err = f.append_block(&[1, 2, 3]).unwrap_err();
        assert!(matches!(err, Error::Execution(_)), "{err}");
        assert_eq!(f.block_count(), 0);
        drop(f);
        let s = broken.stats();
        assert_eq!(
            (s.put_requests, s.live_objects, s.footprint_bytes),
            (0, 0, 0)
        );

        let backend = LocalFileBackend::in_dir(dir.clone());
        let mut f = backend.open().unwrap();
        f.append_block(&[7; 10]).unwrap();
        for bad in [1, u64::MAX] {
            let err = f.read_block(bad).unwrap_err();
            assert!(matches!(err, Error::Execution(_)), "{err}");
        }
        let err = f.append_block(&vec![0; SLOT_SIZE + 1]).unwrap_err();
        assert!(matches!(err, Error::Execution(_)), "{err}");
        f.delete();
        for result in [f.read_block(0).map(drop), f.append_block(&[1])] {
            let err = result.unwrap_err();
            assert!(matches!(err, Error::Execution(_)), "{err}");
        }
        drop(f);
        let s = backend.stats();
        assert_eq!((s.live_objects, s.put_requests), (0, 1));
        assert_eq!(slots(&backend), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compression_negotiation_follows_caps() {
        let mem = SpillConfig::mem().with_compress(true);
        assert!(!mem.effective_compress(), "RAM declines compression");
        let file = SpillConfig::file().with_compress(true);
        assert!(file.effective_compress());
        let wrapped = SpillConfig {
            backend: FaultyBackend::slow(LocalFileBackend::new(), Duration::ZERO),
            ..file
        };
        assert!(
            wrapped.effective_compress(),
            "a wrapper forwards its medium's answer"
        );
        assert!(!SpillConfig::file().effective_compress(), "off by default");
    }

    #[test]
    fn kind_selects_backends() {
        assert_eq!(SpillBackendKind::Mem.build().name(), "mem");
        assert_eq!(SpillBackendKind::File.build().name(), "file");
    }

    #[test]
    fn environment_values_parse_or_name_what_is_accepted() {
        assert_eq!(parse_backend(""), Ok(SpillBackendKind::Mem));
        assert_eq!(parse_backend("mem"), Ok(SpillBackendKind::Mem));
        assert_eq!(parse_backend("file"), Ok(SpillBackendKind::File));
        for garbage in ["objectstore", "File", " file", "disk"] {
            let err = parse_backend(garbage).unwrap_err();
            assert!(err.contains("WF_SPILL_BACKEND"), "{err}");
            assert!(err.contains(&format!("{garbage:?}")), "{err}");
            assert!(err.contains("`mem`, `file`"), "{err}");
        }
        for (value, on) in [
            ("", false),
            ("0", false),
            ("false", false),
            ("1", true),
            ("true", true),
        ] {
            assert_eq!(parse_compress(value), Ok(on), "{value:?}");
        }
        for garbage in ["yes", "on", "TRUE", "2"] {
            let err = parse_compress(garbage).unwrap_err();
            assert!(err.contains("WF_SPILL_COMPRESS"), "{err}");
            assert!(err.contains(&format!("{garbage:?}")), "{err}");
            assert!(err.contains("`1`, `true`"), "{err}");
        }
    }
}
