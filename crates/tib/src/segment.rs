//! The tiered TIB storage engine: a mutable head segment sealing into
//! immutable time-partitioned segments, with WAL-backed crash recovery,
//! cold-segment eviction to disk, and a swap-a-pointer concurrent read
//! path.
//!
//! # Tiers
//!
//! - **Head** — a [`Tib`]: fixed-width rows, the head's own path
//!   dictionary and its path-level indexes (see the `tib` module docs),
//!   the only mutable tier. Every insert lands here (after the optional
//!   WAL append).
//! - **Sealed segments** — when the head reaches the seal threshold (or
//!   [`TieredTib::seal`] is called) it is frozen wholesale into an
//!   immutable sealed segment: the already-built indexes become the
//!   segment's, shrunk to their exact size, and its `(min stime, max
//!   etime)` hull, kept by the head as it grew, prunes ranged queries.
//!   Path ids are per segment — the same path may have another id in the
//!   next one — so segments fold answers, never ids.
//! - **Cold segments** — [`TieredTib::evict_cold`] writes a sealed
//!   segment's compact record block to disk and drops the in-memory
//!   index; a ranged query that reaches into it lazily reloads and
//!   re-caches it ([`TieredTib::cold_reloads`] counts these).
//!
//! # Query semantics
//!
//! [`TieredTib`] implements [`TibRead`] **bit-identically** to a single
//! [`Tib`] holding the same records in the same insertion order — pinned
//! by `prop_equivalence` across arbitrary insert/seal/evict/query
//! interleavings. It shares one `TibRead` body with [`SealedView`] and
//! [`LiveView`]; each view only names the tiers it covers. Segments fold
//! in seal order (then the open arenas), so
//! insertion-order outputs concatenate with global dedup; count maps sum;
//! duration merges via [`Tib::duration_bounds`]. Whole-store aggregates
//! (`get_flows(ANY, ANY)`, all-time `get_count`/`top_k_flows`/
//! `link_flow_counts`) are answered from global running aggregates the
//! seal/evict lifecycle never touches — no segment access, hence no cold
//! reloads, on those paths.
//!
//! # Concurrent reads
//!
//! Sealing publishes an [`Arc<SealedView>`] into a shared slot (the
//! arc-swap pattern, built on a briefly-held [`Mutex`] since the
//! workspace vendors no lock-free crate). A [`TibReader`] — cheap to
//! clone, `Send + Sync` — snapshots that slot and queries the immutable
//! sealed prefix with no further coordination: readers never observe a
//! partially-built segment and never block the ingest path, which only
//! touches the slot for one pointer store per seal. Readers see every
//! record up to the last seal; the standing engine instead rides the
//! insert path itself (fed exactly once per record, before and after any
//! seal boundary), so its incremental state never misses head records.
//!
//! # Durability
//!
//! With a WAL attached ([`TieredTib::attach_wal`]), every insert batch
//! appends one CRC-framed batch ([`crate::wal`]), in one write, before any
//! of its records becomes queryable.
//! [`TieredTib::checkpoint`] writes a TIB3 snapshot (see
//! [`crate::snapshot`]) and resets the log; [`TieredTib::recover`] loads
//! a snapshot and replays a WAL over it, tolerating a torn tail but no
//! other corruption. A WAL append failure must not take down the
//! datapath: it is counted ([`TieredTib::wal_errors`]) and ingest
//! continues with degraded durability.

use crate::record::TibRecord;
use crate::tib::{select_top_k, FlowTable, Tib, TibRead};
use crate::wal::{self, WalStore};
use pathdump_topology::{FlowId, FnvBuild, LinkPattern, Nanos, Path, TimeRange};
use pathdump_wire::{from_bytes, to_bytes, WireError, WireResult};
use std::collections::HashSet;
use std::path::{Path as FsPath, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Failures of the tiered store's disk interactions: WAL/segment file
/// I/O, or decoding a snapshot/segment/WAL byte stream.
#[derive(Debug)]
pub enum StoreError {
    /// Reading or writing a segment/WAL/snapshot file failed.
    Io(std::io::Error),
    /// Stored bytes did not decode (truncation, corruption).
    Wire(WireError),
    /// A record to insert ends before it starts (`etime < stime`).
    EndsBeforeStart(TibRecord),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "segment store i/o: {e}"),
            StoreError::Wire(e) => write!(f, "segment store decode: {e}"),
            StoreError::EndsBeforeStart(r) => write!(f, "record ends before it starts: {r:?}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        StoreError::Wire(e)
    }
}

/// Result alias for tiered-store disk paths.
pub type StoreResult<T> = Result<T, StoreError>;

/// Locks a mutex, recovering the guard from a poisoned lock: the data
/// under every lock here is a plain pointer swap or cache fill, valid
/// even if some other thread panicked mid-hold, and the datapath must
/// not panic in sympathy.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Where a sealed segment's data currently lives. At least one of the
/// three is always present.
#[derive(Debug, Default)]
struct SegState {
    /// The queryable index, when hot.
    tib: Option<Arc<Tib>>,
    /// The compact record block (`varint count + records`, a snapshot's
    /// per-segment block), cached at first save/evict/reload.
    encoded: Option<Arc<Vec<u8>>>,
    /// The on-disk block, once evicted cold.
    file: Option<PathBuf>,
}

/// One immutable sealed segment of the tiered store.
#[derive(Debug)]
struct SealedSegment {
    /// `(min stime, max etime)` hull; `None` only for an empty segment
    /// decoded from a (degenerate but well-formed) snapshot.
    span: Option<(Nanos, Nanos)>,
    bucket_width: Nanos,
    state: Mutex<SegState>,
    /// Cold→hot index rebuilds served (lazy reloads).
    reloads: AtomicU64,
    /// Reads that failed to materialize the segment (I/O or decode): the
    /// query degraded to the loadable subset.
    read_failures: AtomicU64,
}

impl SealedSegment {
    /// Seals a head arena wholesale: its indexes become the segment's.
    fn from_tib(tib: Tib) -> Self {
        SealedSegment {
            span: tib.span(),
            bucket_width: tib.bucket_width(),
            state: Mutex::new(SegState {
                tib: Some(Arc::new(tib)),
                encoded: None,
                file: None,
            }),
            reloads: AtomicU64::new(0),
            read_failures: AtomicU64::new(0),
        }
    }

    /// Rebuilds a segment from a snapshot's record block. The index is
    /// built lazily on first query; `records` is the block's decoded
    /// contents (already validated by the caller).
    fn from_encoded(encoded: Arc<Vec<u8>>, records: &[TibRecord], bucket_width: Nanos) -> Self {
        let mut span: Option<(Nanos, Nanos)> = None;
        for rec in records {
            span = Some(match span {
                Some((lo, hi)) => (lo.min(rec.stime), hi.max(rec.etime)),
                None => (rec.stime, rec.etime),
            });
        }
        SealedSegment {
            span,
            bucket_width,
            state: Mutex::new(SegState {
                tib: None,
                encoded: Some(encoded),
                file: None,
            }),
            reloads: AtomicU64::new(0),
            read_failures: AtomicU64::new(0),
        }
    }

    /// Can any record in this segment overlap `range`? (Hull test — a
    /// superset, like bucket pruning; exact overlap is re-checked by the
    /// per-segment query.)
    fn overlaps(&self, range: &TimeRange) -> bool {
        match self.span {
            Some((lo, hi)) => range.overlaps(lo, hi),
            None => false,
        }
    }

    /// True when the segment currently has no in-memory index.
    fn is_cold(&self) -> bool {
        lock(&self.state).tib.is_none()
    }

    /// The compact record block, producing and caching it on first use
    /// (from the hot index, or from the cold file).
    fn encoded_block(&self) -> StoreResult<Arc<Vec<u8>>> {
        let mut st = lock(&self.state);
        if let Some(enc) = &st.encoded {
            return Ok(Arc::clone(enc));
        }
        let enc = if let Some(tib) = &st.tib {
            Arc::new(to_bytes(&**tib))
        } else if let Some(path) = &st.file {
            Arc::new(std::fs::read(path)?)
        } else {
            // As `tib()`: the records are gone, and an empty block here
            // would be written over them by `evict`.
            return Err(StoreError::Wire(WireError::UnexpectedEof));
        };
        st.encoded = Some(Arc::clone(&enc));
        Ok(enc)
    }

    /// The segment's queryable index, lazily reloading (and re-caching)
    /// a cold segment from its encoded block or disk file; a rebuilt index
    /// is shrunk to its exact size, as `seal` shrinks the head.
    fn tib(&self) -> StoreResult<Arc<Tib>> {
        let mut st = lock(&self.state);
        if let Some(tib) = &st.tib {
            return Ok(Arc::clone(tib));
        }
        let encoded = if let Some(enc) = &st.encoded {
            Arc::clone(enc)
        } else if let Some(path) = &st.file {
            let enc = Arc::new(std::fs::read(path)?);
            st.encoded = Some(Arc::clone(&enc));
            enc
        } else {
            return Err(StoreError::Wire(WireError::UnexpectedEof));
        };
        let records: Vec<TibRecord> = from_bytes(&encoded).map_err(StoreError::Wire)?;
        let mut tib = Tib::with_bucket_width(self.bucket_width);
        for rec in records {
            tib.insert(rec);
        }
        tib.shrink_to_fit();
        let tib = Arc::new(tib);
        st.tib = Some(Arc::clone(&tib));
        self.reloads.fetch_add(1, Ordering::Relaxed);
        Ok(tib)
    }

    /// Like [`tib`](Self::tib), but a failure degrades the query to the
    /// loadable subset (counted) instead of panicking the read path.
    fn tib_or_skip(&self) -> Option<Arc<Tib>> {
        match self.tib() {
            Ok(t) => Some(t),
            Err(_) => {
                self.read_failures.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Evicts the segment cold: writes the record block to
    /// `dir/seg-<seq>.tibseg` and drops the in-memory index and block
    /// cache. Returns `false` when the segment is already cold.
    fn evict(&self, dir: &FsPath, seq: u64) -> StoreResult<bool> {
        let encoded = {
            let st = lock(&self.state);
            if st.tib.is_none() {
                return Ok(false);
            }
            drop(st);
            self.encoded_block()?
        };
        let path = dir.join(format!("seg-{seq:06}.tibseg"));
        std::fs::write(&path, encoded.as_slice())?;
        let mut st = lock(&self.state);
        st.file = Some(path);
        st.tib = None;
        st.encoded = None;
        Ok(true)
    }

    /// Approximate resident bytes (hot index, or cached block, or ~0
    /// when fully cold).
    fn approx_bytes(&self) -> usize {
        let st = lock(&self.state);
        if let Some(tib) = &st.tib {
            tib.approx_bytes()
        } else {
            st.encoded.as_ref().map_or(0, |e| e.len())
        }
    }
}

/// An immutable snapshot of the sealed prefix: every record sealed at
/// publish time, none of the head. Obtained from a [`TibReader`]; query
/// it via [`TibRead`] with no coordination with the writer. It reads its
/// segments only: the store's all-time table covers the head too, so no
/// query takes its shortcut.
#[derive(Debug, Clone, Default)]
pub struct SealedView {
    segments: Vec<Arc<SealedSegment>>,
    len: usize,
}

impl SealedView {
    /// Sealed segments in the view.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }
}

/// A [`TieredTib`] and, behind it, a borrowed arena of records that are
/// not in the store yet — the host agent's trajectory memory, for the
/// alarm-time queries of §3.2. Built by [`TieredTib::with_live`]. Every
/// answer is the union's: the store's all-time table does not cover the
/// extra tier, so no query takes its shortcut.
#[derive(Debug)]
pub struct LiveView<'a>(Tiers<'a>);

/// A cloneable, `Send + Sync` handle for querying the sealed prefix
/// concurrently with ingest. [`snapshot`](Self::snapshot) costs one
/// brief lock + `Arc` clone; everything after is on immutable data.
#[derive(Debug, Clone)]
pub struct TibReader {
    slot: Arc<Mutex<Arc<SealedView>>>,
}

impl TibReader {
    /// The current sealed prefix (consistent: exactly the records sealed
    /// by some prefix of the writer's seal sequence).
    pub fn snapshot(&self) -> Arc<SealedView> {
        Arc::clone(&lock(&self.slot))
    }
}

/// What a crash recovery replayed. See [`TieredTib::recover`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records restored from the snapshot.
    pub snapshot_records: usize,
    /// Records replayed from the WAL tail.
    pub wal_records: usize,
    /// Torn-tail bytes dropped from the WAL (0 for a clean shutdown).
    pub dropped_tail: usize,
}

/// The tiered per-host TIB. See the module docs for the design; the
/// default configuration (no seal threshold, no WAL) behaves exactly
/// like a plain [`Tib`].
#[derive(Debug)]
pub struct TieredTib {
    head: Tib,
    sealed: Vec<Arc<SealedSegment>>,
    sealed_len: usize,
    bucket_width: Nanos,
    /// Auto-seal the head when it reaches this many records.
    seal_after: Option<usize>,
    /// Store-wide flow table, never touched by seal/evict: its
    /// first-appearance order serves `get_flows(ANY, ANY)` and its totals
    /// the all-time `get_count`/`top_k_flows`/`link_flow_counts` with no
    /// segment access.
    flows: FlowTable,
    wal: Option<Box<dyn WalStore>>,
    /// The frame of the batch being appended, reused across batches.
    wal_buf: Vec<u8>,
    wal_errors: u64,
    /// The published reader view, swapped on every seal.
    published: Arc<Mutex<Arc<SealedView>>>,
}

impl Default for TieredTib {
    fn default() -> Self {
        TieredTib::with_bucket_width(crate::tib::DEFAULT_BUCKET_WIDTH)
    }
}

impl TieredTib {
    /// An empty tiered store with the default bucket width, no seal
    /// threshold and no WAL.
    pub fn new() -> Self {
        TieredTib::default()
    }

    /// An empty tiered store whose segments index stimes with
    /// `width`-wide buckets.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero (as [`Tib::with_bucket_width`]).
    pub fn with_bucket_width(width: Nanos) -> Self {
        TieredTib {
            head: Tib::with_bucket_width(width),
            sealed: Vec::new(),
            sealed_len: 0,
            bucket_width: width,
            seal_after: None,
            flows: FlowTable::default(),
            wal: None,
            wal_buf: Vec::new(),
            wal_errors: 0,
            published: Arc::new(Mutex::new(Arc::new(SealedView::default()))),
        }
    }

    /// Sets (or clears) the auto-seal threshold: the head seals whenever
    /// it reaches `n` records.
    pub fn set_seal_after(&mut self, n: Option<usize>) {
        self.seal_after = n.filter(|&n| n > 0);
    }

    /// Attaches a write-ahead log; subsequent inserts append to it
    /// before becoming queryable. Replaces any previous log.
    pub fn attach_wal(&mut self, wal: Box<dyn WalStore>) {
        self.wal = Some(wal);
    }

    /// The configured stime bucket width.
    pub fn bucket_width(&self) -> Nanos {
        self.bucket_width
    }

    /// Total records across all tiers.
    pub fn len(&self) -> usize {
        self.sealed_len + self.head.len()
    }

    /// True when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The mutable head segment, for callers that want the unsealed tail
    /// specifically.
    pub fn head(&self) -> &Tib {
        &self.head
    }

    /// Number of sealed segments.
    pub fn num_sealed(&self) -> usize {
        self.sealed.len()
    }

    /// Number of sealed segments currently without an in-memory index.
    pub fn num_cold(&self) -> usize {
        self.sealed.iter().filter(|s| s.is_cold()).count()
    }

    /// Lazy cold→hot reloads served so far.
    pub fn cold_reloads(&self) -> u64 {
        self.sealed
            .iter()
            .map(|s| s.reloads.load(Ordering::Relaxed))
            .sum()
    }

    /// Reads that degraded because a segment failed to load.
    pub fn read_failures(&self) -> u64 {
        self.sealed
            .iter()
            .map(|s| s.read_failures.load(Ordering::Relaxed))
            .sum()
    }

    /// WAL appends that failed (durability degraded; ingest continued).
    pub fn wal_errors(&self) -> u64 {
        self.wal_errors
    }

    /// Current WAL length in bytes (0 when none is attached).
    pub fn wal_len(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.len())
    }

    /// The WAL's current contents (empty when none is attached).
    pub fn wal_bytes(&self) -> std::io::Result<Vec<u8>> {
        match &self.wal {
            Some(w) => w.bytes(),
            None => Ok(Vec::new()),
        }
    }

    /// Inserts one record: [`TieredTib::insert_batch`] of a batch of one,
    /// so its WAL frame is the [`WAL_FRAME_RECORD`](crate::wal::WAL_FRAME_RECORD)
    /// a per-record log always held.
    ///
    /// # Panics
    ///
    /// Panics, naming the record, if it ends before it starts
    /// (`etime < stime`); nothing is logged or filed first.
    pub fn insert(&mut self, rec: TibRecord) {
        if let Err(e) = self.insert_batch(std::slice::from_ref(&rec), |_, _| {}) {
            panic!("{e}");
        }
    }

    /// Inserts an eviction batch (group commit): with a WAL attached, the
    /// whole batch is framed into a buffer the store keeps
    /// ([`wal::frame_batch`]) and appended in one write *before* any of its
    /// records becomes queryable; a failed append is counted in
    /// [`TieredTib::wal_errors`] and ingest continues. Then each record, in
    /// order, goes to the global aggregates and the head arena, the
    /// auto-seal check runs, and `each` sees the store and the record just
    /// filed — so a per-record observer (the standing engine) steps exactly
    /// once per record, across seal boundaries. An empty batch writes
    /// nothing.
    ///
    /// A batch that holds a record ending before it starts is refused
    /// whole with [`StoreError::EndsBeforeStart`], naming the first such
    /// record: nothing of it is logged or filed. Logged, such a record
    /// would fail the replay of the whole log.
    pub fn insert_batch(
        &mut self,
        batch: &[TibRecord],
        each: impl FnMut(&Self, &TibRecord),
    ) -> StoreResult<()> {
        if let Some(rec) = batch.iter().find(|r| r.etime < r.stime) {
            return Err(StoreError::EndsBeforeStart(rec.clone()));
        }
        self.file_batch(batch, each);
        Ok(())
    }

    /// [`TieredTib::insert_batch`] past its check on the records.
    fn file_batch(&mut self, batch: &[TibRecord], mut each: impl FnMut(&Self, &TibRecord)) {
        if batch.is_empty() {
            return;
        }
        if let Some(w) = self.wal.as_mut() {
            self.wal_buf.clear();
            wal::frame_batch(batch, &mut self.wal_buf);
            if w.append(&self.wal_buf).is_err() {
                self.wal_errors += 1;
            }
        }
        for rec in batch {
            self.flows.add(rec.flow, rec.bytes, rec.pkts);
            self.head.insert_ref(rec);
            if let Some(n) = self.seal_after {
                if self.head.len() >= n {
                    self.seal();
                }
            }
            each(self, rec);
        }
    }

    /// Seals the head into an immutable segment (no-op on an empty head)
    /// and publishes the new sealed prefix to readers. The head sheds its
    /// growth slack first: a sealed index never grows again, so it holds
    /// every buffer and map at its exact size.
    pub fn seal(&mut self) {
        if self.head.is_empty() {
            return;
        }
        let mut head = std::mem::replace(&mut self.head, Tib::with_bucket_width(self.bucket_width));
        head.shrink_to_fit();
        self.sealed_len += head.len();
        self.sealed.push(Arc::new(SealedSegment::from_tib(head)));
        self.publish();
    }

    /// Swap-publishes the current sealed prefix for readers.
    fn publish(&mut self) {
        let view = Arc::new(SealedView {
            segments: self.sealed.clone(),
            len: self.sealed_len,
        });
        *lock(&self.published) = view;
    }

    /// This store with `live` read as one more tier after the head: what
    /// the store would answer had `live`'s records been inserted last.
    pub fn with_live<'a>(&'a self, live: &'a Tib) -> LiveView<'a> {
        LiveView(Tiers {
            open: [Some(&self.head), Some(live)],
            all_time: None,
            len: self.len() + live.len(),
            ..self.tiers()
        })
    }

    /// A concurrent-read handle over the sealed prefix. Clones of it
    /// (and the views it snapshots) stay valid across later seals and
    /// evictions.
    pub fn reader(&self) -> TibReader {
        TibReader {
            slot: Arc::clone(&self.published),
        }
    }

    /// Evicts all but the newest `keep_hot` sealed segments to disk
    /// under `dir` (which must exist), bounding resident memory to the
    /// head + hot tail. Returns how many segments went cold.
    pub fn evict_cold(&mut self, keep_hot: usize, dir: &FsPath) -> StoreResult<usize> {
        let n = self.sealed.len().saturating_sub(keep_hot);
        let mut evicted = 0;
        for (i, seg) in self.sealed.iter().enumerate().take(n) {
            if seg.evict(dir, i as u64)? {
                evicted += 1;
            }
        }
        Ok(evicted)
    }

    /// Serializes a TIB3 snapshot and, on success, resets the WAL (its
    /// records are now durable in the snapshot). The delta property:
    /// sealed segments reuse their cached encoded blocks, so only the
    /// head is re-encoded on repeated checkpoints.
    pub fn checkpoint(&mut self, out: &mut Vec<u8>) -> StoreResult<()> {
        crate::snapshot::save_tiered_into(self, out)?;
        if let Some(w) = self.wal.as_mut() {
            w.reset()?;
        }
        Ok(())
    }

    /// Crash recovery: loads a snapshot (TIB2 or TIB3) and replays a WAL
    /// byte stream over it. A torn WAL tail is tolerated and reported;
    /// snapshot truncation or any WAL corruption besides the tail is an
    /// error. The recovered store has no WAL attached — re-attach one
    /// before resuming ingest.
    pub fn recover(snapshot: &[u8], wal_bytes: &[u8]) -> WireResult<(TieredTib, RecoveryReport)> {
        let mut store = crate::snapshot::load_tiered(snapshot)?;
        let snapshot_records = store.len();
        let replayed = wal::replay(wal_bytes)?;
        let wal_records = replayed.records.len();
        // The log's decoder reads a duration, so no replayed record ends
        // before it starts.
        store.file_batch(&replayed.records, |_, _| {});
        Ok((
            store,
            RecoveryReport {
                snapshot_records,
                wal_records,
                dropped_tail: replayed.dropped_tail,
            },
        ))
    }

    /// Appends a sealed segment rebuilt from a snapshot's record block
    /// (snapshot loading only: keeps the global aggregates in the
    /// original insertion order).
    pub(crate) fn push_sealed_block(&mut self, encoded: Arc<Vec<u8>>, records: &[TibRecord]) {
        for rec in records {
            self.flows.add(rec.flow, rec.bytes, rec.pkts);
        }
        self.sealed_len += records.len();
        self.sealed.push(Arc::new(SealedSegment::from_encoded(
            encoded,
            records,
            self.bucket_width,
        )));
        self.publish();
    }

    /// Each sealed segment's encoded record block, oldest first
    /// (snapshot serialization).
    pub(crate) fn sealed_blocks(&self) -> StoreResult<Vec<Arc<Vec<u8>>>> {
        self.sealed.iter().map(|s| s.encoded_block()).collect()
    }

    /// Approximate resident bytes: the store-wide flow table (which no
    /// seal or eviction shrinks) and every tier (cold segments count only
    /// their cached blocks, if any).
    pub fn approx_bytes(&self) -> usize {
        let tiers =
            self.head.approx_bytes() + self.sealed.iter().map(|s| s.approx_bytes()).sum::<usize>();
        self.flows.approx_bytes() + tiers
    }
}

// ---------------------------------------------------------------------
// The query fold: one `TibRead` body for the three tiered views, each of
// which only says which tiers it covers.
// ---------------------------------------------------------------------

/// What a tiered read covers, borrowed: the sealed segments in seal order,
/// then the open arenas (a store's head, then a live arena), and the
/// store-wide flow table. A read takes the table's all-time shortcut only
/// when the table covers exactly its tiers: [`TieredTib`] passes its own,
/// [`SealedView`] (no head) and [`LiveView`] (one tier more) pass none.
#[derive(Clone, Copy, Debug)]
struct Tiers<'a> {
    sealed: &'a [Arc<SealedSegment>],
    open: [Option<&'a Tib>; 2],
    all_time: Option<&'a FlowTable>,
    len: usize,
}

impl<'a> Tiers<'a> {
    /// The all-time table, when it may answer a query over `range`.
    fn table_for(&self, range: TimeRange) -> Option<&'a FlowTable> {
        self.all_time.filter(|_| range == TimeRange::ANY)
    }

    /// Calls `f` on each tier a query over `range` reads, in insertion
    /// order: the sealed segments whose hull overlaps the range (one that
    /// fails to load is counted and skipped), then the open arenas.
    fn each(&self, range: &TimeRange, mut f: impl FnMut(&Tib)) {
        for seg in self.sealed.iter().filter(|s| s.overlaps(range)) {
            if let Some(t) = seg.tib_or_skip() {
                f(&t);
            }
        }
        self.open.iter().flatten().for_each(|t| f(t));
    }

    /// Insertion-order lists concatenate with global dedup.
    fn dedup<T>(&self, range: &TimeRange, list: impl Fn(&Tib) -> Vec<T>) -> Vec<T>
    where
        T: Clone + Eq + std::hash::Hash,
    {
        let mut seen: HashSet<T, FnvBuild> = HashSet::default();
        let mut out = Vec::new();
        self.each(range, |t| {
            out.extend(list(t).into_iter().filter(|x| seen.insert(x.clone())));
        });
        out
    }
}

/// A view of the tiered store, answering [`TibRead`] over its [`Tiers`].
trait Tiered {
    fn tiers(&self) -> Tiers<'_>;
}

impl Tiered for TieredTib {
    fn tiers(&self) -> Tiers<'_> {
        Tiers {
            sealed: &self.sealed,
            open: [Some(&self.head), None],
            all_time: Some(&self.flows),
            len: self.len(),
        }
    }
}

impl Tiered for SealedView {
    fn tiers(&self) -> Tiers<'_> {
        Tiers {
            sealed: &self.segments,
            open: [None; 2],
            all_time: None,
            len: self.len,
        }
    }
}

impl Tiered for LiveView<'_> {
    fn tiers(&self) -> Tiers<'_> {
        self.0
    }
}

impl<V: Tiered> TibRead for V {
    fn num_records(&self) -> usize {
        self.tiers().len
    }

    fn for_each_record(&self, f: &mut dyn FnMut(&TibRecord)) {
        let each = |t: &Tib| t.for_each_record(&mut *f);
        self.tiers().each(&TimeRange::ANY, each);
    }

    fn get_flows(&self, link: LinkPattern, range: TimeRange) -> Vec<FlowId> {
        let tiers = self.tiers();
        match tiers.table_for(range) {
            // Global aggregate: no segment access, no cold reloads.
            Some(table) if link.is_any() => table.order.clone(),
            _ => tiers.dedup(&range, |t| t.get_flows(link, range)),
        }
    }

    fn get_paths(&self, flow: FlowId, link: LinkPattern, range: TimeRange) -> Vec<Path> {
        let paths = |t: &Tib| t.get_paths(flow, link, range);
        self.tiers().dedup(&range, paths)
    }

    fn get_count(&self, flow: FlowId, path: Option<&Path>, range: TimeRange) -> (u64, u64) {
        let tiers = self.tiers();
        match tiers.table_for(range) {
            Some(table) if path.is_none() => table.count(flow),
            _ => {
                let mut sum = (0, 0);
                tiers.each(&range, |t| {
                    let (b, p) = t.get_count(flow, path, range);
                    sum = (sum.0 + b, sum.1 + p);
                });
                sum
            }
        }
    }

    /// Per-tier bounds merge into one hull ([`Tib::duration_bounds`]).
    fn get_duration(&self, flow: FlowId, path: Option<&Path>, range: TimeRange) -> Nanos {
        let mut bounds: Option<(Nanos, Nanos)> = None;
        self.tiers().each(&range, |t| {
            if let Some((s, e)) = t.duration_bounds(flow, path, range) {
                bounds = Some(bounds.map_or((s, e), |(lo, hi)| (lo.min(s), hi.max(e))));
            }
        });
        match bounds {
            Some((lo, hi)) if lo < hi => hi - lo,
            _ => Nanos::ZERO,
        }
    }

    fn for_each_flow_count(
        &self,
        link: LinkPattern,
        range: TimeRange,
        f: &mut dyn FnMut(FlowId, u64, u64),
    ) {
        let tiers = self.tiers();
        match tiers.table_for(range) {
            // Global aggregate: no segment access, no cold reloads.
            Some(table) if link.is_any() => table.counts().for_each(|(&id, &(b, p))| f(id, b, p)),
            _ => tiers.each(&range, |t| t.for_each_flow_count(link, range, f)),
        }
    }

    fn top_k_flows(&self, k: usize, range: TimeRange) -> Vec<(u64, FlowId)> {
        match self.tiers().table_for(range) {
            Some(table) => select_top_k(table.counts(), k),
            None => select_top_k(self.link_flow_counts(LinkPattern::ANY, range).iter(), k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::VecWal;
    use pathdump_topology::{Ip, SwitchId};

    fn flow(sport: u16) -> FlowId {
        FlowId::tcp(Ip::new(10, 0, 0, 2), sport, Ip::new(10, 1, 0, 2), 80)
    }

    fn path(ids: &[u16]) -> Path {
        Path::new(ids.iter().map(|&i| SwitchId(i)).collect())
    }

    fn rec(sport: u16, p: &[u16], t0: u64, t1: u64, bytes: u64) -> TibRecord {
        TibRecord {
            flow: flow(sport),
            path: path(p),
            stime: Nanos(t0),
            etime: Nanos(t1),
            bytes,
            pkts: bytes / 1000 + 1,
        }
    }

    fn sample_records() -> Vec<TibRecord> {
        vec![
            rec(1, &[0, 8, 4], 0, 100, 5000),
            rec(1, &[0, 9, 4], 50, 150, 3000),
            rec(2, &[0, 8, 4], 200, 300, 10_000),
            rec(3, &[1, 9, 5], 0, 400, 70_000),
            rec(2, &[0, 9, 4], 500, 600, 2_000),
            rec(4, &[1, 8, 5], 700, 900, 400),
        ]
    }

    /// Inserts `recs` sealing after every `every` records.
    fn tiered(recs: &[TibRecord], every: usize) -> TieredTib {
        let mut t = TieredTib::with_bucket_width(Nanos(64));
        t.set_seal_after(Some(every));
        for r in recs {
            t.insert(r.clone());
        }
        t
    }

    fn flat(recs: &[TibRecord]) -> Tib {
        let mut t = Tib::with_bucket_width(Nanos(64));
        for r in recs {
            t.insert(r.clone());
        }
        t
    }

    fn assert_matches_flat(t: &impl TibRead, flat: &Tib) {
        let ranges = [
            TimeRange::ANY,
            TimeRange::between(Nanos(60), Nanos(220)),
            TimeRange::since(Nanos(180)),
            TimeRange::until(Nanos(120)),
        ];
        let links = [
            LinkPattern::ANY,
            LinkPattern::exact(SwitchId(0), SwitchId(8)),
            LinkPattern::into(SwitchId(4)),
            LinkPattern::out_of(SwitchId(1)),
        ];
        for range in ranges {
            for link in links {
                assert_eq!(
                    TibRead::get_flows(t, link, range),
                    flat.get_flows(link, range),
                    "get_flows {link:?} {range:?}"
                );
                assert_eq!(
                    TibRead::link_flow_counts(t, link, range),
                    flat.link_flow_counts(link, range),
                    "link_flow_counts {link:?} {range:?}"
                );
            }
            for sport in 1..=5 {
                assert_eq!(
                    TibRead::get_paths(t, flow(sport), LinkPattern::ANY, range),
                    flat.get_paths(flow(sport), LinkPattern::ANY, range)
                );
                assert_eq!(
                    TibRead::get_count(t, flow(sport), None, range),
                    flat.get_count(flow(sport), None, range)
                );
                assert_eq!(
                    TibRead::get_duration(t, flow(sport), None, range),
                    flat.get_duration(flow(sport), None, range)
                );
            }
            for k in [0, 2, 10] {
                assert_eq!(
                    TibRead::top_k_flows(t, k, range),
                    flat.top_k_flows(k, range)
                );
            }
        }
        assert_eq!(t.records_vec(), flat.records_vec());
    }

    #[test]
    fn no_threshold_means_single_head() {
        let recs = sample_records();
        let mut t = TieredTib::with_bucket_width(Nanos(64));
        for r in &recs {
            t.insert(r.clone());
        }
        assert_eq!(t.num_sealed(), 0);
        assert_eq!(t.len(), recs.len());
        assert_matches_flat(&t, &flat(&recs));
    }

    #[test]
    fn sealed_segments_match_flat_store() {
        let recs = sample_records();
        for every in [1, 2, 3, 5] {
            let t = tiered(&recs, every);
            assert!(t.num_sealed() >= 1, "seal_after={every}");
            assert_matches_flat(&t, &flat(&recs));
            // The same store with its last two records read as a live tier.
            let t = tiered(&recs[..4], every);
            assert_matches_flat(&t.with_live(&flat(&recs[4..])), &flat(&recs));
        }
    }

    #[test]
    fn manual_seal_and_empty_seal() {
        let mut t = TieredTib::new();
        t.seal();
        assert_eq!(t.num_sealed(), 0, "empty head does not seal");
        t.insert(rec(1, &[0, 8, 4], 0, 10, 100));
        t.seal();
        t.seal();
        assert_eq!(t.num_sealed(), 1, "second seal is a no-op");
        assert_eq!(t.head().len(), 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn evict_cold_and_lazy_reload() {
        let dir = std::env::temp_dir().join(format!("pathdump-seg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let recs = sample_records();
        let mut t = tiered(&recs, 2);
        assert_eq!(t.num_sealed(), 3);
        let evicted = t.evict_cold(1, &dir).unwrap();
        assert_eq!(evicted, 2);
        assert_eq!(t.num_cold(), 2);
        assert_eq!(t.cold_reloads(), 0);

        // The all-time aggregate paths never touch segments.
        assert_eq!(
            TibRead::get_flows(&t, LinkPattern::ANY, TimeRange::ANY).len(),
            4
        );
        assert_eq!(
            TibRead::get_count(&t, flow(3), None, TimeRange::ANY).0,
            70_000
        );
        assert_eq!(t.num_cold(), 2, "aggregate queries reload nothing");

        // A ranged query over only the newest records prunes the cold
        // segments by their time hull.
        let late = TibRead::get_flows(&t, LinkPattern::ANY, TimeRange::since(Nanos(650)));
        assert_eq!(late, vec![flow(4)]);
        assert_eq!(t.num_cold(), 2, "hull-pruned: still cold");

        // A ranged query reaching into the old era lazily reloads.
        assert_matches_flat(&t, &flat(&recs));
        assert!(t.cold_reloads() >= 2);
        assert_eq!(t.num_cold(), 0, "reloaded segments re-cache hot");
        assert_eq!(t.read_failures(), 0);

        // Evicting again works (files are rewritten in place).
        assert_eq!(t.evict_cold(0, &dir).unwrap(), 3);
        assert_eq!(t.num_cold(), 3);
        assert_matches_flat(&t, &flat(&recs));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segment_without_a_data_source_is_an_error_both_ways() {
        // No code path builds one; if one ever does, neither accessor may
        // invent an empty segment for `evict` to write over the lost one.
        let seg = SealedSegment::from_tib(flat(&sample_records()));
        *lock(&seg.state) = SegState::default();
        let eof = |e| matches!(e, StoreError::Wire(WireError::UnexpectedEof));
        assert!(seg.encoded_block().is_err_and(eof));
        assert!(seg.tib().is_err_and(eof));
    }

    #[test]
    fn reader_sees_consistent_sealed_prefix() {
        let recs = sample_records();
        let mut t = TieredTib::with_bucket_width(Nanos(64));
        let reader = t.reader();
        assert_eq!(reader.snapshot().num_records(), 0);
        for r in &recs[..4] {
            t.insert(r.clone());
        }
        let before_seal = reader.snapshot();
        assert_eq!(before_seal.num_records(), 0, "head not visible to readers");
        t.seal();
        let after_seal = reader.snapshot();
        assert_eq!(after_seal.num_records(), 4);
        assert_eq!(after_seal.num_segments(), 1);
        // The old view is still valid and still answers for its prefix.
        assert_eq!(before_seal.num_records(), 0);
        // The sealed view matches a flat store over the sealed prefix.
        let prefix = flat(&recs[..4]);
        assert_eq!(
            after_seal.get_flows(LinkPattern::ANY, TimeRange::ANY),
            prefix.get_flows(LinkPattern::ANY, TimeRange::ANY)
        );
        assert_eq!(
            after_seal.top_k_flows(3, TimeRange::ANY),
            prefix.top_k_flows(3, TimeRange::ANY)
        );
        assert_eq!(
            after_seal.get_count(flow(1), None, TimeRange::between(Nanos(0), Nanos(120))),
            prefix.get_count(flow(1), None, TimeRange::between(Nanos(0), Nanos(120)))
        );
        assert_eq!(after_seal.records_vec(), prefix.records_vec());
        // Later inserts stay invisible until the next seal.
        for r in &recs[4..] {
            t.insert(r.clone());
        }
        assert_eq!(reader.snapshot().num_records(), 4);
        t.seal();
        assert_eq!(reader.snapshot().num_records(), recs.len());
    }

    #[test]
    fn wal_records_every_insert_and_checkpoint_resets() {
        let mut t = TieredTib::with_bucket_width(Nanos(64));
        t.attach_wal(Box::new(VecWal::new()));
        let recs = sample_records();
        for r in &recs[..3] {
            t.insert(r.clone());
        }
        let replay = wal::replay(&t.wal_bytes().unwrap()).unwrap();
        assert_eq!(replay.records, recs[..3].to_vec());
        assert_eq!(t.wal_errors(), 0);

        let mut snap = Vec::new();
        t.checkpoint(&mut snap).unwrap();
        assert_eq!(t.wal_len(), 0, "checkpoint resets the log");
        for r in &recs[3..] {
            t.insert(r.clone());
        }
        let replay = wal::replay(&t.wal_bytes().unwrap()).unwrap();
        assert_eq!(
            replay.records,
            recs[3..].to_vec(),
            "only post-snapshot tail"
        );

        // Snapshot + WAL reconstruct the full store.
        let (back, report) = TieredTib::recover(&snap, &t.wal_bytes().unwrap()).unwrap();
        assert_eq!(report.snapshot_records, 3);
        assert_eq!(report.wal_records, 3);
        assert_eq!(report.dropped_tail, 0);
        assert_matches_flat(&back, &flat(&recs));
    }
}
