//! The segmented sealed delta-log storage engine.
//!
//! Whole-snapshot persistence seals and stores the *entire* service
//! state on every batch, so total state size bounds throughput — the
//! bottleneck the paper's asynchronous-write mode hides but does not
//! remove. [`DeltaLogStorage`] removes it: the enclave emits small
//! sealed *deltas* per batch, and this engine journals them into an
//! append-style segmented log over any inner [`StableStorage`], with
//!
//! * a **group-commit writer, two commits deep** — concurrent delta
//!   stores from many shards'/replicas' lanes are drained into one
//!   inner write (one modelled fsync) of a journal *head* by whichever
//!   caller wins the committer role, the rest blocking until their
//!   record is durable. There are two heads (`dlog.head` and
//!   `dlog.head.1`): a store that finds a commit on the device takes
//!   the free head and starts its own inner write at once, instead of
//!   waiting out a write it is not part of and then its own;
//! * **sealed segments** — a head is sealed into an immutable segment
//!   once it reaches [`DeltaLogConfig::segment_bytes`], with the engine
//!   lock released while the other head keeps committing;
//! * **compaction** — a sealed checkpoint store supersedes the slot's
//!   older deltas; fully superseded segments are garbage-collected from
//!   the low end of the log;
//! * **batched stores** — [`StableStorage::store_all`] journals a run
//!   of one slot's deltas (a replica-group straggler's buffer) as one
//!   group commit, one head write;
//! * **recovery** — reopening scans checkpoints + segments + both
//!   heads, truncates a torn head tail at that head's last intact frame
//!   ([`crate::framing`]), and replays the surviving records merged in
//!   epoch order. A medium that only ever had one head opens unchanged.
//!   Which layer checks what on the way is listed under
//!   [Who checks what at a reboot](#who-checks-what-at-a-reboot).
//!
//! The engine never opens a seal: deltas and checkpoints are opaque
//! ciphertexts that it routes by a one-byte *kind* prefix the enclave
//! places in front of every blob. On `load` it reassembles
//! `checkpoint ‖ deltas` into a *bundle* the enclave unseals and
//! re-verifies delta by delta against its hash chain — a host that
//! reorders, drops, or splices journal records is detected exactly like
//! any other rollback/forking attempt.
//!
//! # Two commits in flight: the three rules
//!
//! 1. **Acknowledge in order.** Commits are numbered as they take the
//!    queue, each takes a *prefix* of the epoch-ordered queue, and one
//!    publishes — `committed_epoch`, the slot mirrors, its callers'
//!    return — only after every earlier one has. So no `store` returns
//!    before its record *and every earlier-epoch record* is on the
//!    medium (or has failed its own caller): an acknowledged record
//!    never has an unacknowledged predecessor, even when the later
//!    commit's inner write finishes first.
//! 2. **One slot, one commit at a time.** A record whose slot has a
//!    record in the unfinished commit on the other head stays queued
//!    (and, the queue being taken by prefix, so does everything behind
//!    it). Two head writes that are in flight together therefore never
//!    carry the same slot, and whichever of them a crash lands, each
//!    slot's surviving records are a prefix of that slot's history.
//!    No lane stores one slot concurrently today; the engine does not
//!    depend on that.
//! 3. **Recovery merges both heads by epoch.** Records are keyed by
//!    epoch wherever they were found (segments, either head — a record
//!    may be in a segment and still in its head), and a torn tail
//!    truncates its own head only.
//!
//! The single-lane case is the same code with one head ever busy.
//!
//! # Who checks what at a reboot
//!
//! A reboot passes every sealed byte through three layers. Each pass
//! of [`framing::crc32`] over the bytes answers a question no other
//! pass can, and there is no pass beside these:
//!
//! 1. **The probe** ([`DeltaLogStorage::open`]) decides *which bytes
//!    count*. Both parity slots of every slot the manifest names are
//!    loaded and their one frame is checked, because a torn checkpoint
//!    overwrite must not be taken for current: the valid one with the
//!    higher epoch is current, the other's epoch is the generation that
//!    gates garbage collection. The journal — segments, then both heads
//!    — is scanned once, which is what finds each head's torn tail. A
//!    record its slot's current checkpoint already supersedes is
//!    indexed (collection must know which segment holds it) but its
//!    blob is not copied out: collection runs one generation late, so
//!    on a busy log that is most of the window.
//! 2. **`load`** answers for *the frame it hands up*. It reads the
//!    current parity slot from the medium again — the engine keeps no
//!    checkpoint in memory, and what the medium serves now is what the
//!    enclave has to judge — and checks that frame as read: a slot
//!    that rotted since the probe is "no state", not bytes to pass on
//!    under a fresh checksum. Then it frames what goes up: the
//!    checkpoint blob without its epoch (another payload, so another
//!    checksum) and each kept delta. A slot with no deltas goes up
//!    bare — no frame, no second pass.
//! 3. **The enclave's [`parse_bundle`]** answers for *the boundary*:
//!    the bundle crossed the host, so before any frame is opened it
//!    must be exactly whole frames with no trailing bytes. What is
//!    inside a frame is the seal's to judge, frame by frame, after
//!    that.
//!
//! So a checkpoint byte is checksummed once per parity at the probe,
//! twice in `load` (as read, as handed up) and once in the enclave; a
//! kept journal byte once at the probe, once into the bundle, once in
//! the enclave. ([`crate::BundleStorage`] has the same three roles in
//! two places: its `load` cuts the torn tail, the enclave checks the
//! boundary.)
//!
//! # Crash-safety invariants
//!
//! Exercised by the recovery proptests in `tests/storage_torture.rs`:
//!
//! 1. every record is tagged with a monotone *epoch* and every
//!    acknowledged record survives: replaying a prefix of inner writes —
//!    in any order the host flushed them, with either of two in-flight
//!    head writes lost — recovers, *per slot*, a prefix of that slot's
//!    committed history that holds everything acknowledged;
//! 2. checkpoints alternate between two parity slots and deltas are
//!    GC-eligible only one checkpoint generation late, so a torn
//!    checkpoint overwrite always leaves the previous checkpoint plus
//!    the deltas needed to reach (at least) its state;
//! 3. the manifest is written before any checkpoint that would make a
//!    new slot discoverable, and covers a sealed segment before that
//!    segment's head is cleared, so no acknowledged record is ever
//!    unreachable. A seal holds no lock across its three device writes:
//!    the full head stays marked busy (no commit touches it), its
//!    segment number is reserved under the lock (garbage collection
//!    stops below a reserved number, the other head's seal takes the
//!    next), then segment → manifest → head clear run in that order.
//!    Manifest writes queue behind one another, never behind the lock.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use lcm_runtime::CountedCondvar;

use crate::{
    framing, make_bundle, parse_bundle, Result, StableStorage, StorageError, BLOB_KIND_BUNDLE,
    BLOB_KIND_CHECKPOINT, BLOB_KIND_DELTA,
};

/// Slots holding the two active (unsealed) journal heads. Head 0 keeps
/// the name the one-head layout used, so media written by it open as
/// they are.
const HEAD_SLOTS: [&str; 2] = ["dlog.head", "dlog.head.1"];

fn seg_slot(k: u64) -> String {
    format!("dlog.seg.{k:08}")
}

fn meta_slot(parity: u8) -> String {
    format!("dlog.meta.{parity}")
}

fn ckpt_slot(slot: &str, parity: u8) -> String {
    format!("dlog.ckpt.{parity}.{slot}")
}

/// Cuts a torn tail off a bundle read from a plain slot: what is left
/// is the longest intact `checkpoint ‖ deltas` prefix. A bundle whose
/// *checkpoint* frame is torn, and any other blob, is left as it is.
pub(crate) fn cut_torn_bundle(blob: &mut Vec<u8>) {
    if let Some((&BLOB_KIND_BUNDLE, body)) = blob.split_first() {
        let scanned = framing::scan(body);
        if !scanned.payloads.is_empty() {
            blob.truncate(1 + scanned.valid_len);
        }
    }
}

/// Tuning knobs for [`DeltaLogStorage`].
#[derive(Debug, Clone, Copy)]
pub struct DeltaLogConfig {
    /// Seal a journal head into an immutable segment once it reaches
    /// this many bytes.
    pub segment_bytes: usize,
}

impl Default for DeltaLogConfig {
    fn default() -> Self {
        DeltaLogConfig {
            segment_bytes: 64 * 1024,
        }
    }
}

/// Observable engine counters (monotone since `open`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaLogStats {
    /// Inner writes of a journal head — each one is a group commit
    /// covering every record drained that round.
    pub group_commits: u64,
    /// Group commits that started while the other head's was still
    /// unfinished — the overlap the second head exists for.
    pub overlapped_commits: u64,
    /// Delta records appended across all group commits.
    pub records_appended: u64,
    /// Head buffers sealed into immutable segments.
    pub segments_sealed: u64,
    /// Checkpoints stored (compaction points).
    pub checkpoints: u64,
    /// Fully superseded segments garbage-collected.
    pub segments_gced: u64,
    /// Torn tails truncated during recovery (head or segment).
    pub torn_truncations: u64,
}

#[derive(Debug, Default)]
struct SlotState {
    /// Epoch of the newest durable checkpoint, if any.
    ckpt_epoch: Option<u64>,
    /// Which parity slot holds the newest checkpoint.
    ckpt_parity: u8,
    /// Epoch of the previous checkpoint generation: deltas at or below
    /// it are GC-eligible (the lag keeps a torn checkpoint overwrite
    /// recoverable from its predecessor).
    prev_ckpt_epoch: u64,
    /// Deltas newer than the current checkpoint, by epoch — exactly
    /// what `load` appends to the checkpoint frame. Shared, so `load`
    /// takes references under the lock and copies outside it.
    deltas: BTreeMap<u64, Arc<[u8]>>,
    /// A checkpoint of this slot is being written with the core lock
    /// released; the next one waits, because the parity it may
    /// overwrite is whichever this one does not publish.
    ckpt_in_flight: bool,
    /// The inner store's own slot of this name has been looked at for
    /// a state written without the engine, and adopted if it held one
    /// (`DeltaLogStorage::adopt`).
    inner_checked: bool,
}

/// One delta on its way into the journal.
struct Record {
    epoch: u64,
    slot: String,
    blob: Arc<[u8]>,
}

/// One of the two journal heads.
#[derive(Default)]
struct Head {
    /// In-memory mirror of the durable head slot. Away with the
    /// committer (empty here) while the head is `busy`.
    buf: Vec<u8>,
    /// (epoch, slot) of every record in the head slot.
    index: Vec<(u64, String)>,
    /// The records of the unfinished commit on this head, empty without
    /// one. Kept here rather than with its committer so the other
    /// head's next commit can apply rule 2 against it.
    batch: Vec<Record>,
    /// A commit or a seal owns this head: its inner writes run with the
    /// core lock released, and nothing else may touch the head slot.
    busy: bool,
}

/// A commit whose inner write failed, kept until each of its callers
/// has collected the error.
struct FailedCommit {
    first: u64,
    last: u64,
    message: String,
    /// Callers (one per record) that have not returned yet.
    uncollected: usize,
}

struct Core {
    /// Records enqueued for a coming group commit, in epoch order.
    queue: VecDeque<Record>,
    next_epoch: u64,
    /// Highest epoch whose commit has published (ok or failed).
    committed_epoch: u64,
    /// Commits are numbered as they take the queue and publish in that
    /// order (rule 1): `commits_published` is the number of the next
    /// one allowed to.
    commits_started: u64,
    commits_published: u64,
    failed: Vec<FailedCommit>,
    heads: [Head; 2],
    seg_lo: u64,
    /// Next unreserved segment number; a seal in flight holds one below
    /// it that has no `seg_index` entry yet.
    seg_next: u64,
    /// (epoch, slot) of every record per sealed segment.
    seg_index: BTreeMap<u64, Vec<(u64, String)>>,
    meta_gen: u64,
    meta_parity: u8,
    /// A manifest write is on the device (lock released); the next
    /// waits, so generations reach the medium in order.
    meta_busy: bool,
    slots: HashMap<String, SlotState>,
    stats: DeltaLogStats,
}

impl Core {
    fn take_epoch(&mut self) -> u64 {
        self.next_epoch += 1;
        self.next_epoch - 1
    }

    /// Starts a group commit if a head is free and the queue's front is
    /// eligible: takes the longest queue prefix rule 2 allows onto the
    /// free head, numbers the commit, and returns `(head, number)`.
    fn begin_commit(&mut self) -> Option<(usize, u64)> {
        let h = self.heads.iter().position(|head| !head.busy)?;
        let unfinished = &self.heads[h ^ 1].batch;
        let eligible = self
            .queue
            .iter()
            .position(|r| unfinished.iter().any(|u| u.slot == r.slot))
            .unwrap_or(self.queue.len());
        if eligible == 0 {
            return None;
        }
        if !unfinished.is_empty() {
            self.stats.overlapped_commits += 1;
        }
        let number = self.commits_started;
        self.commits_started += 1;
        let head = &mut self.heads[h];
        head.busy = true;
        head.batch.extend(self.queue.drain(..eligible));
        Some((h, number))
    }

    /// The outcome of the published commit that carried `epoch`; a
    /// failed commit is forgotten once its last caller has asked.
    fn collect(&mut self, epoch: u64) -> Result<()> {
        let Some(i) = self
            .failed
            .iter()
            .position(|f| (f.first..=f.last).contains(&epoch))
        else {
            return Ok(());
        };
        let failed = &mut self.failed[i];
        let message = format!("group commit failed: {}", failed.message);
        failed.uncollected -= 1;
        if failed.uncollected == 0 {
            self.failed.swap_remove(i);
        }
        Err(StorageError::Io(std::io::Error::other(message)))
    }
}

/// The segmented sealed delta-log engine. See the module docs.
///
/// Wrap it once around the *root* storage of a deployment: slot names
/// arriving from per-shard/per-replica [`crate::NamespacedStorage`]
/// layers stay distinct, so one engine instance journals every lane —
/// which is what lets the group-commit writer amortize one inner write
/// across all of them. `lcm::deployment::DeploymentBuilder` does so for
/// any medium that is not [`StableStorage::delta_capable`].
///
/// A medium a store without the engine wrote — a plain slot holding a
/// checkpoint or a [`crate::BundleStorage`] bundle under the slot's own
/// name — loads as it is until the first delta on that slot, which
/// adopts it into the engine first (`adopt`): no delta is acknowledged
/// on top of a state the engine could not load back.
pub struct DeltaLogStorage {
    inner: Arc<dyn StableStorage>,
    config: DeltaLogConfig,
    core: Mutex<Core>,
    /// Everything a caller can block on — a commit publishing, a head
    /// coming free after a seal, a checkpoint or manifest write
    /// finishing. Counted: every change is made under `core`'s lock and
    /// waiters register under it, so a notify with nobody parked (the
    /// single-lane case, always) is no system call and none is lost.
    commit_done: CountedCondvar,
}

impl std::fmt::Debug for DeltaLogStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core = self.lock_core();
        f.debug_struct("DeltaLogStorage")
            .field("segments", &(core.seg_lo..core.seg_next))
            .field(
                "head_bytes",
                &[core.heads[0].buf.len(), core.heads[1].buf.len()],
            )
            .field("slots", &core.slots.len())
            .field("stats", &core.stats)
            .finish()
    }
}

/// Appends the journal frame of `r` — `epoch ‖ len(slot) ‖ slot ‖ blob`
/// — to a head buffer.
fn append_record(buf: &mut Vec<u8>, r: &Record) {
    framing::append_frame_parts(
        buf,
        &[
            &r.epoch.to_be_bytes(),
            &(r.slot.len() as u32).to_be_bytes(),
            r.slot.as_bytes(),
            &r.blob,
        ],
    );
}

/// `blob`, bound for `slot`, as a record to journal (its epoch is
/// assigned as it takes the queue).
fn record(slot: &str, blob: &[u8]) -> Record {
    Record {
        epoch: 0,
        slot: slot.to_string(),
        blob: Arc::from(blob),
    }
}

fn records(slot: &str, blobs: &[&[u8]]) -> Vec<Record> {
    blobs.iter().map(|blob| record(slot, blob)).collect()
}

fn parse_record(payload: &[u8]) -> Option<(u64, &str, &[u8])> {
    let epoch = u64::from_be_bytes(payload.get(..8)?.try_into().ok()?);
    let slot_len = u32::from_be_bytes(payload.get(8..12)?.try_into().ok()?) as usize;
    let slot = std::str::from_utf8(payload.get(12..12 + slot_len)?).ok()?;
    Some((epoch, slot, payload.get(12 + slot_len..)?))
}

fn encode_meta(gen: u64, seg_lo: u64, seg_next: u64, slots: &[&String]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&gen.to_be_bytes());
    payload.extend_from_slice(&seg_lo.to_be_bytes());
    payload.extend_from_slice(&seg_next.to_be_bytes());
    payload.extend_from_slice(&(slots.len() as u32).to_be_bytes());
    for slot in slots {
        payload.extend_from_slice(&(slot.len() as u32).to_be_bytes());
        payload.extend_from_slice(slot.as_bytes());
    }
    let mut framed = Vec::new();
    framing::append_frame(&mut framed, &payload);
    framed
}

fn parse_meta(buf: &[u8]) -> Option<(u64, u64, u64, Vec<String>)> {
    let scanned = framing::scan(buf);
    let payload = *scanned.payloads.first()?;
    let gen = u64::from_be_bytes(payload.get(..8)?.try_into().ok()?);
    let seg_lo = u64::from_be_bytes(payload.get(8..16)?.try_into().ok()?);
    let seg_next = u64::from_be_bytes(payload.get(16..24)?.try_into().ok()?);
    let n = u32::from_be_bytes(payload.get(24..28)?.try_into().ok()?) as usize;
    let mut slots = Vec::with_capacity(n.min(1 << 16));
    let mut at = 28;
    for _ in 0..n {
        let len = u32::from_be_bytes(payload.get(at..at + 4)?.try_into().ok()?) as usize;
        at += 4;
        slots.push(std::str::from_utf8(payload.get(at..at + len)?).ok()?.into());
        at += len;
    }
    Some((gen, seg_lo, seg_next, slots))
}

/// The checkpoint slot's content: one frame over `epoch ‖ blob`, the
/// blob copied once, straight into it.
fn encode_ckpt(epoch: u64, blob: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(framing::FRAME_HEADER + 8 + blob.len());
    framing::append_frame_parts(&mut framed, &[&epoch.to_be_bytes(), blob]);
    framed
}

/// The epoch and (borrowed) blob of a checkpoint slot's content.
fn parse_ckpt(buf: &[u8]) -> Option<(u64, &[u8])> {
    let scanned = framing::scan(buf);
    if scanned.valid_len != buf.len() {
        return None; // a torn checkpoint overwrite is invalid wholesale
    }
    let payload = *scanned.payloads.first()?;
    let epoch = u64::from_be_bytes(payload.get(..8)?.try_into().ok()?);
    Some((epoch, payload.get(8..)?))
}

impl DeltaLogStorage {
    /// Opens the engine over `inner` with default configuration,
    /// running recovery (manifest + checkpoints + segment/head scan).
    ///
    /// # Errors
    ///
    /// Fails only on inner I/O errors; torn or corrupt journal state is
    /// recovered from, not reported.
    pub fn open(inner: Arc<dyn StableStorage>) -> Result<Self> {
        Self::with_config(inner, DeltaLogConfig::default())
    }

    /// Opens the engine with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Fails only on inner I/O errors.
    pub fn with_config(inner: Arc<dyn StableStorage>, config: DeltaLogConfig) -> Result<Self> {
        let mut core = Core {
            queue: VecDeque::new(),
            next_epoch: 1,
            committed_epoch: 0,
            commits_started: 0,
            commits_published: 0,
            failed: Vec::new(),
            heads: Default::default(),
            seg_lo: 0,
            seg_next: 0,
            seg_index: BTreeMap::new(),
            meta_gen: 0,
            meta_parity: 0,
            meta_busy: false,
            slots: HashMap::new(),
            stats: DeltaLogStats::default(),
        };

        // Manifest: the valid parity with the highest generation wins.
        let mut best_meta: Option<(u64, u8, u64, u64, Vec<String>)> = None;
        for parity in 0..2u8 {
            if let Some(buf) = inner.load(&meta_slot(parity))? {
                if let Some((gen, lo, next, slots)) = parse_meta(&buf) {
                    if best_meta.as_ref().map_or(true, |b| gen > b.0) {
                        best_meta = Some((gen, parity, lo, next, slots));
                    }
                }
            }
        }
        let mut max_epoch = 0u64;
        let mut manifest_slots = Vec::new();
        if let Some((gen, parity, lo, next, slots)) = best_meta {
            core.meta_gen = gen;
            core.meta_parity = parity;
            core.seg_lo = lo;
            core.seg_next = next;
            manifest_slots = slots;
        }

        // Checkpoints: probe both parities per manifest slot; the valid
        // one with the higher epoch is current, the other is the
        // fallback generation that gates delta GC.
        for slot in manifest_slots {
            let mut found: Vec<(u64, u8)> = Vec::new();
            for parity in 0..2u8 {
                if let Some(buf) = inner.load(&ckpt_slot(&slot, parity))? {
                    if let Some((epoch, _)) = parse_ckpt(&buf) {
                        found.push((epoch, parity));
                    }
                }
            }
            found.sort_unstable();
            let mut state = SlotState::default();
            if let Some(&(epoch, parity)) = found.last() {
                state.ckpt_epoch = Some(epoch);
                state.ckpt_parity = parity;
                state.prev_ckpt_epoch = found.iter().rev().nth(1).map_or(0, |&(e, _)| e);
                max_epoch = max_epoch.max(epoch);
            }
            core.slots.insert(slot, state);
        }

        // Sealed segments, then both heads: collect records by epoch
        // (rule 3 — where a record was found does not matter, and one
        // found twice is one record). The checkpoints are known by now,
        // so a record its slot's checkpoint supersedes is indexed but
        // never copied; its epoch is below the checkpoint's, which
        // `max_epoch` already covers.
        let mut records: BTreeMap<u64, (String, Arc<[u8]>)> = BTreeMap::new();
        let mut collect =
            |buf: &[u8], slots: &HashMap<String, SlotState>, stats: &mut DeltaLogStats| {
                let scanned = framing::scan(buf);
                if scanned.is_torn(buf.len()) {
                    stats.torn_truncations += 1;
                }
                let mut index = Vec::new();
                for payload in scanned.payloads {
                    if let Some((epoch, slot, blob)) = parse_record(payload) {
                        index.push((epoch, slot.to_string()));
                        let ckpt_epoch = slots.get(slot).and_then(|s| s.ckpt_epoch);
                        if epoch > ckpt_epoch.unwrap_or(0) {
                            records.insert(epoch, (slot.to_string(), Arc::from(blob)));
                        }
                    }
                }
                (index, scanned.valid_len)
            };
        for k in core.seg_lo..core.seg_next {
            // A number in the window with nothing (left) behind it — a
            // seal that reserved it and died, a segment cleared before
            // the manifest that drops it landed — still gets its (empty)
            // index, or garbage collection could never pass it.
            let buf = inner.load(&seg_slot(k))?.unwrap_or_default();
            let (index, _) = collect(&buf, &core.slots, &mut core.stats);
            core.seg_index.insert(k, index);
        }
        for (head, slot) in core.heads.iter_mut().zip(HEAD_SLOTS) {
            if let Some(mut buf) = inner.load(slot)? {
                let (index, valid_len) = collect(&buf, &core.slots, &mut core.stats);
                buf.truncate(valid_len); // a torn tail cuts its own head only
                head.buf = buf;
                head.index = index;
            }
        }

        for (epoch, (slot, blob)) in records {
            max_epoch = max_epoch.max(epoch);
            core.slots
                .entry(slot)
                .or_default()
                .deltas
                .insert(epoch, blob);
        }
        core.next_epoch = max_epoch + 1;
        core.committed_epoch = max_epoch;

        Ok(DeltaLogStorage {
            inner,
            config,
            core: Mutex::new(core),
            commit_done: CountedCondvar::new(),
        })
    }

    fn lock_core(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A snapshot of the engine counters.
    pub fn stats(&self) -> DeltaLogStats {
        self.lock_core().stats
    }

    /// The inner storage the engine journals into (for assertions).
    pub fn inner(&self) -> &Arc<dyn StableStorage> {
        &self.inner
    }

    /// Writes the manifest — the current segment window and slot names
    /// — to the non-current parity slot; on success flips the current
    /// parity. Call with the core lock **released**: it is taken only to
    /// read the window and to publish the flip, never across the device
    /// write, and concurrent manifest writers take turns.
    fn write_meta(&self) -> Result<()> {
        let mut core = self.lock_core();
        while core.meta_busy {
            core = self.commit_done.wait(core);
        }
        core.meta_busy = true;
        let gen = core.meta_gen + 1;
        let parity = core.meta_parity ^ 1;
        let slots: Vec<&String> = core.slots.keys().collect();
        let buf = encode_meta(gen, core.seg_lo, core.seg_next, &slots);
        drop(core);
        let written = self.inner.store(&meta_slot(parity), &buf);
        let mut core = self.lock_core();
        core.meta_busy = false;
        if written.is_ok() {
            core.meta_gen = gen;
            core.meta_parity = parity;
        }
        drop(core);
        self.commit_done.notify_all();
        written
    }

    /// The device writes of sealing head `h`, whose content is `buf`,
    /// into segment `k` — all with the core lock released.
    fn seal_writes(&self, h: usize, k: u64, buf: &[u8]) -> Result<()> {
        self.inner.store(&seg_slot(k), buf)?;
        // The manifest must cover the segment before the head may be
        // cleared, or a crash between the two writes would orphan every
        // record in it. (`k` was reserved before the segment was
        // written, so any manifest from here on covers it.)
        self.write_meta()?;
        let _ = self.inner.store(HEAD_SLOTS[h], &[]); // dup records dedupe by epoch
        Ok(())
    }

    /// Takes the fully superseded segments off the low end of the log
    /// window, returning their numbers for the caller to clear on the
    /// medium. A manifest written before they are cleared merely stops
    /// naming segments no recovery needs. Stops below a segment number
    /// a seal in flight has reserved (it has no index yet).
    fn take_superseded(core: &mut Core) -> std::ops::Range<u64> {
        let lo = core.seg_lo;
        while core.seg_lo < core.seg_next {
            let Some(index) = core.seg_index.get(&core.seg_lo) else {
                break;
            };
            let superseded = index.iter().all(|(epoch, slot)| {
                core.slots
                    .get(slot)
                    .is_some_and(|s| *epoch <= s.prev_ckpt_epoch)
            });
            if !superseded {
                break;
            }
            core.seg_index.remove(&core.seg_lo);
            core.seg_lo += 1;
            core.stats.segments_gced += 1;
        }
        lo..core.seg_lo
    }

    /// The group-commit path for deltas of one slot: adopt the slot's
    /// pre-engine state if it may have one, then journal them.
    fn store_deltas(&self, slot: &str, records: impl IntoIterator<Item = Record>) -> Result<()> {
        let mut core = self.lock_core();
        if !core
            .slots
            .get(slot)
            .is_some_and(|s| s.ckpt_epoch.is_some() || s.inner_checked)
        {
            drop(core);
            self.adopt(slot)?;
            core = self.lock_core();
        }
        self.journal(core, records)
    }

    /// Enqueues `records` at consecutive epochs, then — until the
    /// commit that carried them has published — either wins the
    /// committer role on a free head, or blocks until something
    /// changes. One commit carries them all: they share a slot and sit
    /// together in the queue, and a commit takes a queue prefix that
    /// rule 2 cuts only in front of a record of a busy slot.
    fn journal<'a>(
        &'a self,
        mut core: MutexGuard<'a, Core>,
        records: impl IntoIterator<Item = Record>,
    ) -> Result<()> {
        let first = core.next_epoch;
        for mut r in records {
            r.epoch = core.take_epoch();
            core.queue.push_back(r);
        }
        if core.next_epoch == first {
            return Ok(());
        }
        let last = core.next_epoch - 1;
        loop {
            if core.committed_epoch >= last {
                // Every record's outcome is collected, so a failed
                // commit is forgotten; they share the one outcome.
                let mut outcome = Ok(());
                for epoch in first..=last {
                    let collected = core.collect(epoch);
                    outcome = outcome.and(collected);
                }
                return outcome;
            }
            core = match core.begin_commit() {
                Some((h, number)) => self.commit(core, h, number),
                None => self.commit_done.wait(core),
            };
        }
    }

    /// Takes over, once, the state a store *without* the engine left
    /// under `slot`'s own name on the inner store — a plain slot holding
    /// a checkpoint or a `checkpoint ‖ deltas` bundle, as a deployment
    /// of a plain medium wrote it before it got an engine. Runs before
    /// the first delta on a slot the engine holds no checkpoint of:
    /// `load` falls back to that inner slot, so the enclave restored
    /// from it, and a delta journaled without it would extend a state
    /// the engine cannot load back — lost at the next reboot, and a
    /// false rollback for every client that saw it.
    ///
    /// The state becomes the slot's engine checkpoint plus journaled
    /// deltas. The checkpoint's epoch is reserved first and its write
    /// comes last, after the deltas (epochs above it) are durable, so a
    /// crash at any point leaves either the finished adoption or an
    /// unlisted or checkpoint-less slot whose `load` still falls back
    /// to the untouched inner slot (the orphaned deltas sort below the
    /// next adoption's checkpoint). Checkpoints of the slot wait for it
    /// as for one in flight, and so does a second delta.
    fn adopt(&self, slot: &str) -> Result<()> {
        let mut core = self.lock_core();
        loop {
            match core.slots.get(slot) {
                Some(s) if s.ckpt_epoch.is_some() || s.inner_checked => return Ok(()),
                Some(s) if s.ckpt_in_flight => core = self.commit_done.wait(core),
                _ => break,
            }
        }
        // Held from here like a checkpoint in flight.
        core.slots
            .entry(slot.to_string())
            .or_default()
            .ckpt_in_flight = true;
        drop(core);
        let mut state = match self.inner.load(slot) {
            Ok(Some(state)) => state,
            Ok(None) => return self.release_checkpoint(slot, Ok(())),
            Err(e) => return self.release_checkpoint(slot, Err(e)),
        };
        cut_torn_bundle(&mut state);
        let (checkpoint, deltas) = match state.first() {
            Some(&BLOB_KIND_CHECKPOINT) => (&state[..], Vec::new()),
            Some(&BLOB_KIND_BUNDLE) => match parse_bundle(&state) {
                Some(parsed) => parsed,
                // A torn checkpoint frame: no enclave restored from it,
                // so no delta extends it.
                None => return self.release_checkpoint(slot, Ok(())),
            },
            _ => return self.release_checkpoint(slot, Ok(())),
        };
        let records = records(slot, &deltas);
        let mut core = self.lock_core();
        let epoch = core.take_epoch();
        match self.journal(core, records) {
            Ok(()) => self.write_checkpoint(slot, checkpoint, epoch),
            Err(e) => self.release_checkpoint(slot, Err(e)),
        }
    }

    /// Runs commit `number`, whose batch [`Core::begin_commit`] put on
    /// head `h`: one inner write of the whole head with the lock
    /// released, publication in commit order, and the head's seal if it
    /// filled up. Returns the re-taken lock.
    fn commit<'a>(
        &'a self,
        mut core: MutexGuard<'a, Core>,
        h: usize,
        number: u64,
    ) -> MutexGuard<'a, Core> {
        // The head mirror leaves the core for the write (the head is
        // busy: nobody else touches it) and grows in place; a failed
        // write cuts it back to the records acknowledged so far.
        let head = &mut core.heads[h];
        let mut buf = std::mem::take(&mut head.buf);
        let durable_len = buf.len();
        for r in &head.batch {
            append_record(&mut buf, r);
        }
        drop(core);
        let written = self.inner.store(HEAD_SLOTS[h], &buf);

        let mut core = self.lock_core();
        // Rule 1: our write may have finished first, our callers do not.
        while core.commits_published != number {
            core = self.commit_done.wait(core);
        }
        core.commits_published += 1;
        let batch = std::mem::take(&mut core.heads[h].batch);
        let (first, last) = (batch[0].epoch, batch[batch.len() - 1].epoch);
        core.committed_epoch = last;
        let mut seal_into = None;
        match &written {
            Ok(()) => {
                core.stats.group_commits += 1;
                core.stats.records_appended += batch.len() as u64;
                for r in batch {
                    core.heads[h].index.push((r.epoch, r.slot.clone()));
                    let state = core.slots.entry(r.slot).or_default();
                    // A checkpoint of the slot that overtook this record
                    // has superseded it already.
                    if r.epoch > state.ckpt_epoch.unwrap_or(0) {
                        state.deltas.insert(r.epoch, r.blob);
                    }
                }
                if buf.len() >= self.config.segment_bytes {
                    // Reserved here, under the lock: the other head's
                    // seal takes the next number, garbage collection
                    // stops below this one.
                    seal_into = Some(core.seg_next);
                    core.seg_next += 1;
                }
            }
            Err(e) => {
                buf.truncate(durable_len);
                core.failed.push(FailedCommit {
                    first,
                    last,
                    message: e.to_string(),
                    uncollected: batch.len(),
                });
            }
        }
        if let Some(k) = seal_into {
            // The commit's callers go now; the head stays busy and the
            // other head keeps committing while this one seals.
            drop(core);
            self.commit_done.notify_all();
            let sealed = self.seal_writes(h, k, &buf);
            core = self.lock_core();
            match sealed {
                Ok(()) => {
                    let index = std::mem::take(&mut core.heads[h].index);
                    core.seg_index.insert(k, index);
                    core.stats.segments_sealed += 1;
                    buf.clear(); // keeps its capacity for the next fill
                }
                // Best effort: the records stay durable in the head and
                // the seal retries after this head's next commit; the
                // reserved number stays behind as an empty segment.
                Err(_) => {
                    core.seg_index.insert(k, Vec::new());
                }
            }
        }
        core.heads[h].buf = buf;
        core.heads[h].busy = false;
        drop(core);
        self.commit_done.notify_all();
        self.lock_core()
    }

    /// The compaction path: a checkpoint supersedes the slot's deltas.
    ///
    /// Every device write here — the manifest that makes a new slot
    /// discoverable, the O(state) checkpoint, the per-segment clears of
    /// the garbage collection that follows and its manifest — runs with
    /// the core lock *released*: every lane of the deployment
    /// group-commits through that lock, and one lane's compaction must
    /// not stall the rest. Epoch and parity are reserved under the lock
    /// before the write and the result is published under it after.
    fn store_checkpoint(&self, slot: &str, blob: &[u8]) -> Result<()> {
        let mut core = self.lock_core();
        while core.slots.get(slot).is_some_and(|s| s.ckpt_in_flight) {
            core = self.commit_done.wait(core);
        }
        let epoch = Self::reserve_checkpoint(&mut core, slot);
        drop(core);
        self.write_checkpoint(slot, blob, epoch)
    }

    /// Reserves the next epoch for a checkpoint of `slot` and marks one
    /// in flight. Call with none of the slot's in flight.
    fn reserve_checkpoint(core: &mut Core, slot: &str) -> u64 {
        let epoch = core.take_epoch();
        core.slots
            .entry(slot.to_string())
            .or_default()
            .ckpt_in_flight = true;
        epoch
    }

    /// Clears the in-flight mark [`Self::reserve_checkpoint`] set,
    /// without a checkpoint, and passes `outcome` on. An `Ok` one is an
    /// adoption that found nothing to adopt.
    fn release_checkpoint(&self, slot: &str, outcome: Result<()>) -> Result<()> {
        let mut core = self.lock_core();
        if let Some(state) = core.slots.get_mut(slot) {
            state.ckpt_in_flight = false;
            state.inner_checked |= outcome.is_ok();
        }
        drop(core);
        self.commit_done.notify_all();
        outcome
    }

    /// Writes the checkpoint [`Self::reserve_checkpoint`] reserved
    /// `epoch` for, publishes it and collects what it supersedes.
    fn write_checkpoint(&self, slot: &str, blob: &[u8], epoch: u64) -> Result<()> {
        let core = self.lock_core();
        let state = core
            .slots
            .get(slot)
            .expect("reserved slots are never removed");
        let (parity, first) = match state.ckpt_epoch {
            Some(_) => (state.ckpt_parity ^ 1, false),
            None => (0, true),
        };
        drop(core);
        if first {
            // The slot must be discoverable before its first checkpoint
            // lands, or a crash in between loses it entirely.
            if let Err(e) = self.write_meta() {
                return self.release_checkpoint(slot, Err(e));
            }
        }

        let written = self
            .inner
            .store(&ckpt_slot(slot, parity), &encode_ckpt(epoch, blob));

        let mut core = self.lock_core();
        let state = core
            .slots
            .get_mut(slot)
            .expect("reserved slots are never removed");
        state.ckpt_in_flight = false;
        let superseded = match written {
            Ok(()) => {
                state.prev_ckpt_epoch = state.ckpt_epoch.unwrap_or(0);
                state.ckpt_epoch = Some(epoch);
                state.ckpt_parity = parity;
                state.deltas = state.deltas.split_off(&(epoch + 1));
                core.stats.checkpoints += 1;
                Self::take_superseded(&mut core)
            }
            Err(_) => 0..0,
        };
        drop(core);
        self.commit_done.notify_all();
        written?;
        if superseded.is_empty() {
            return Ok(());
        }

        for k in superseded {
            let _ = self.inner.store(&seg_slot(k), &[]);
        }
        let _ = self.write_meta(); // the old manifest merely names cleared segments
        Ok(())
    }
}

impl StableStorage for DeltaLogStorage {
    fn store(&self, slot: &str, blob: &[u8]) -> Result<()> {
        match blob.first() {
            Some(&BLOB_KIND_DELTA) => self.store_deltas(slot, [record(slot, blob)]),
            Some(&BLOB_KIND_CHECKPOINT) => self.store_checkpoint(slot, blob),
            _ => self.inner.store(slot, blob),
        }
    }

    /// Every run of deltas among `blobs` is journaled as one group
    /// commit — one head write — under the same three rules as a single
    /// delta; anything else is stored in turn between the runs.
    fn store_all(&self, slot: &str, blobs: &[&[u8]]) -> Result<()> {
        let mut rest = blobs;
        while let Some(blob) = rest.first() {
            let run = rest
                .iter()
                .take_while(|b| b.first() == Some(&BLOB_KIND_DELTA))
                .count();
            if run == 0 {
                self.store(slot, blob)?;
                rest = &rest[1..];
            } else {
                self.store_deltas(slot, records(slot, &rest[..run]))?;
                rest = &rest[run..];
            }
        }
        Ok(())
    }

    fn load(&self, slot: &str) -> Result<Option<Vec<u8>>> {
        // Under the lock: reference bumps only. The O(state) work — the
        // checkpoint read, the bundle's assembly — happens outside it.
        let (parity, deltas) = {
            let core = self.lock_core();
            match core.slots.get(slot) {
                Some(state) if state.ckpt_epoch.is_some() => (
                    state.ckpt_parity,
                    state.deltas.values().cloned().collect::<Vec<_>>(),
                ),
                _ => {
                    drop(core);
                    return self.inner.load(slot);
                }
            }
        };
        let Some(mut buf) = self.inner.load(&ckpt_slot(slot, parity))? else {
            return Ok(None);
        };
        let Some((_, ckpt_blob)) = parse_ckpt(&buf) else {
            return Ok(None);
        };
        if deltas.is_empty() {
            // The blob is the tail of the slot's one frame: hand the
            // buffer itself back, minus what precedes the blob.
            let blob_at = buf.len() - ckpt_blob.len();
            buf.drain(..blob_at);
            return Ok(Some(buf));
        }
        Ok(Some(make_bundle(ckpt_blob, deltas.iter().map(|d| &**d))))
    }

    fn delta_capable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayedStorage, MemoryStorage, BLOB_KIND_OPAQUE};
    use std::sync::mpsc::{channel, Receiver, Sender};
    use std::time::Duration;

    fn ckpt(n: u8) -> Vec<u8> {
        let mut b = vec![BLOB_KIND_CHECKPOINT];
        b.extend_from_slice(&[n; 16]);
        b
    }

    fn delta(n: u8) -> Vec<u8> {
        let mut b = vec![BLOB_KIND_DELTA];
        b.extend_from_slice(&[n; 8]);
        b
    }

    fn engine(segment_bytes: usize) -> (Arc<MemoryStorage>, DeltaLogStorage) {
        let inner = Arc::new(MemoryStorage::new());
        let engine =
            DeltaLogStorage::with_config(inner.clone(), DeltaLogConfig { segment_bytes }).unwrap();
        (inner, engine)
    }

    #[test]
    fn checkpoint_then_load_returns_it_verbatim() {
        let (_, e) = engine(1 << 20);
        e.store("s", &ckpt(1)).unwrap();
        assert_eq!(e.load("s").unwrap().unwrap(), ckpt(1));
    }

    #[test]
    fn deltas_bundle_after_the_checkpoint_in_order() {
        let (_, e) = engine(1 << 20);
        e.store("s", &ckpt(1)).unwrap();
        e.store("s", &delta(2)).unwrap();
        e.store("s", &delta(3)).unwrap();
        let bundle = e.load("s").unwrap().unwrap();
        let (c, ds) = parse_bundle(&bundle).unwrap();
        assert_eq!(c, &ckpt(1)[..]);
        assert_eq!(ds, vec![&delta(2)[..], &delta(3)[..]]);
    }

    #[test]
    fn opaque_blobs_pass_through() {
        let (inner, e) = engine(1 << 20);
        let opaque = [BLOB_KIND_OPAQUE, 9, 9];
        e.store("key", &opaque).unwrap();
        assert_eq!(inner.load("key").unwrap().unwrap(), opaque);
        assert_eq!(e.load("key").unwrap().unwrap(), opaque);
        assert_eq!(e.load("never-stored").unwrap(), None);
    }

    #[test]
    fn recovery_replays_checkpoint_and_deltas() {
        let (inner, e) = engine(1 << 20);
        e.store("s", &ckpt(1)).unwrap();
        e.store("s", &delta(2)).unwrap();
        e.store("s", &delta(3)).unwrap();
        drop(e);
        let e2 = DeltaLogStorage::open(inner).unwrap();
        let got = e2.load("s").unwrap().unwrap();
        let (c, ds) = parse_bundle(&got).unwrap();
        assert_eq!(c, &ckpt(1)[..]);
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn sealing_rolls_the_head_into_segments_and_recovers() {
        let (inner, e) = engine(64); // tiny: every record seals a segment
        e.store("s", &ckpt(1)).unwrap();
        for n in 2..8u8 {
            e.store("s", &delta(n)).unwrap();
        }
        assert!(e.stats().segments_sealed >= 2, "{:?}", e.stats());
        drop(e);
        let e2 = DeltaLogStorage::open(inner).unwrap();
        let got = e2.load("s").unwrap().unwrap();
        let (_, ds) = parse_bundle(&got).unwrap();
        assert_eq!(ds.len(), 6, "all sealed + head records recovered");
    }

    #[test]
    fn torn_head_tail_is_truncated_to_the_last_record() {
        let (inner, e) = engine(1 << 20);
        e.store("s", &ckpt(1)).unwrap();
        e.store("s", &delta(2)).unwrap();
        e.store("s", &delta(3)).unwrap();
        drop(e);
        // Crash mid-append: chop bytes off the durable head.
        let mut head = inner.load(HEAD_SLOTS[0]).unwrap().unwrap();
        head.truncate(head.len() - 3);
        inner.store(HEAD_SLOTS[0], &head).unwrap();
        let e2 = DeltaLogStorage::open(inner).unwrap();
        assert_eq!(e2.stats().torn_truncations, 1);
        let got = e2.load("s").unwrap().unwrap();
        let (_, ds) = parse_bundle(&got).unwrap();
        assert_eq!(ds, vec![&delta(2)[..]], "prefix survives, torn tail gone");
    }

    #[test]
    fn compaction_gcs_superseded_segments_one_generation_late() {
        let (_, e) = engine(32);
        e.store("s", &ckpt(1)).unwrap();
        for n in 2..6u8 {
            e.store("s", &delta(n)).unwrap();
        }
        let sealed = e.stats().segments_sealed;
        assert!(sealed >= 2);
        // First checkpoint after the deltas: supersedes them, but GC
        // lags one generation (the fallback invariant).
        e.store("s", &ckpt(7)).unwrap();
        assert_eq!(e.stats().segments_gced, 0);
        // Second checkpoint: the old generation's deltas are now safe.
        e.store("s", &ckpt(8)).unwrap();
        assert_eq!(e.stats().segments_gced, sealed);
    }

    #[test]
    fn torn_checkpoint_overwrite_falls_back_to_the_previous_one() {
        let (inner, e) = engine(1 << 20);
        e.store("s", &ckpt(1)).unwrap();
        e.store("s", &delta(2)).unwrap();
        e.store("s", &ckpt(3)).unwrap(); // parity 1
        e.store("s", &delta(4)).unwrap();
        e.store("s", &ckpt(5)).unwrap(); // parity 0 (overwrites ckpt 1)
        drop(e);
        // Tear the newest checkpoint's write.
        let slot = ckpt_slot("s", 0);
        let mut buf = inner.load(&slot).unwrap().unwrap();
        buf.truncate(buf.len() - 2);
        inner.store(&slot, &buf).unwrap();
        let e2 = DeltaLogStorage::open(inner).unwrap();
        let got = e2.load("s").unwrap().unwrap();
        let (c, ds) = parse_bundle(&got).unwrap();
        assert_eq!(c, &ckpt(3)[..], "previous generation serves");
        assert_eq!(ds, vec![&delta(4)[..]], "its deltas were not GC'd");
    }

    #[test]
    fn group_commit_amortizes_inner_head_writes() {
        let inner = Arc::new(DelayedStorage::new(
            MemoryStorage::new(),
            Duration::from_millis(4),
        ));
        let e = Arc::new(
            DeltaLogStorage::with_config(
                inner.clone() as Arc<dyn StableStorage>,
                DeltaLogConfig {
                    segment_bytes: 1 << 20,
                },
            )
            .unwrap(),
        );
        e.store("s", &ckpt(1)).unwrap();
        let before = inner.stores();
        const LANES: u64 = 16;
        let handles: Vec<_> = (0..LANES)
            .map(|i| {
                let e = e.clone();
                std::thread::spawn(move || e.store(&format!("lane{i}"), &delta(i as u8)).unwrap())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let head_writes = inner.stores() - before;
        assert!(
            head_writes < LANES,
            "{LANES} concurrent lanes took {head_writes} inner writes — no amortization"
        );
        assert_eq!(e.stats().records_appended, LANES);
        assert_eq!(e.stats().group_commits, head_writes);
    }

    /// A plain store whose writes to chosen slots announce themselves
    /// and then block until the test decides their outcome — how the
    /// tests below hold an inner write on the device without sleeping.
    #[derive(Default)]
    struct GatedStore {
        inner: MemoryStorage,
        gates: Mutex<HashMap<String, Gate>>,
    }

    #[derive(Clone)]
    struct Gate {
        entered: Sender<()>,
        /// `true` lets the write through, `false` fails it. A test that
        /// ended (sender dropped) releases whatever is still gated.
        outcome: Arc<Mutex<Receiver<bool>>>,
    }

    impl GatedStore {
        /// Gates every write to exactly `slot`; returns the "a write is
        /// inside" receiver and the outcome sender.
        fn gate(&self, slot: &str) -> (Receiver<()>, Sender<bool>) {
            let (entered, entered_rx) = channel();
            let (outcome_tx, outcome) = channel();
            let gate = Gate {
                entered,
                outcome: Arc::new(Mutex::new(outcome)),
            };
            self.gates.lock().unwrap().insert(slot.to_string(), gate);
            (entered_rx, outcome_tx)
        }
    }

    impl StableStorage for GatedStore {
        fn store(&self, slot: &str, blob: &[u8]) -> Result<()> {
            let gate = self.gates.lock().unwrap().get(slot).cloned();
            if let Some(gate) = gate {
                let _ = gate.entered.send(());
                if gate.outcome.lock().unwrap().recv() == Ok(false) {
                    return Err(StorageError::Io(std::io::Error::other("gated: failed")));
                }
            }
            self.inner.store(slot, blob)
        }
        fn load(&self, slot: &str) -> Result<Option<Vec<u8>>> {
            self.inner.load(slot)
        }
    }

    /// `e.store(slot, blob)` on its own thread, the result on a channel.
    fn store_on_a_thread(
        e: &Arc<DeltaLogStorage>,
        slot: &'static str,
        blob: Vec<u8>,
    ) -> (std::thread::JoinHandle<()>, Receiver<Result<()>>) {
        let (done_tx, done) = channel();
        let e = e.clone();
        let thread = std::thread::spawn(move || done_tx.send(e.store(slot, &blob)).unwrap());
        (thread, done)
    }

    /// Spins until `n` callers are parked inside the engine. Waiters
    /// register under the core lock, so reading `n` with it held means
    /// they are in `wait`, with everything they did before it visible.
    fn await_parked(e: &DeltaLogStorage, n: usize) -> MutexGuard<'_, Core> {
        loop {
            let core = e.lock_core();
            if e.commit_done.parked() == n {
                return core;
            }
            drop(core);
            std::thread::yield_now();
        }
    }

    const LONG: Duration = Duration::from_secs(10);

    #[test]
    fn a_checkpoint_write_does_not_hold_up_another_slots_delta() {
        let store = Arc::new(GatedStore::default());
        let (entered, release) = store.gate(&ckpt_slot("a", 0));
        let e = Arc::new(DeltaLogStorage::open(store).unwrap());
        let (checkpointer, checkpointed) = store_on_a_thread(&e, "a", ckpt(1));
        entered.recv().unwrap(); // "a"'s checkpoint is inside the inner write
        let (other_lane, done) = store_on_a_thread(&e, "b", delta(2));
        let outcome = done.recv_timeout(LONG);
        release.send(true).unwrap(); // before any assert: never leave a thread gated
        checkpointer.join().unwrap();
        other_lane.join().unwrap();
        checkpointed.recv().unwrap().unwrap();
        outcome
            .expect("the delta waited for another slot's checkpoint write")
            .unwrap();
        assert_eq!(e.load("a").unwrap().unwrap(), ckpt(1));
        assert_eq!(e.stats().records_appended, 1);
    }

    #[test]
    fn a_second_commit_starts_while_the_first_is_on_the_device_and_acknowledges_after_it() {
        let store = Arc::new(GatedStore::default());
        let (head0_entered, head0) = store.gate(HEAD_SLOTS[0]);
        let (head1_entered, head1) = store.gate(HEAD_SLOTS[1]);
        let e = Arc::new(DeltaLogStorage::open(store).unwrap());
        let (first, first_done) = store_on_a_thread(&e, "a", delta(1));
        head0_entered.recv().unwrap(); // "a"'s commit is inside head 0's write
        let (second, second_done) = store_on_a_thread(&e, "b", delta(2));
        // With one commit at a time this never comes: "b" would wait
        // for "a"'s commit to finish before starting its own.
        let overlapped = head1_entered.recv_timeout(LONG);
        head1.send(true).unwrap(); // "b"'s inner write finishes first…
        let early = overlapped.is_ok().then(|| {
            // …and its committer parks behind rule 1, nothing published.
            let core = await_parked(&e, 1);
            (second_done.try_recv().is_ok(), core.committed_epoch)
        });
        head0.send(true).unwrap();
        first.join().unwrap();
        second.join().unwrap();
        overlapped.expect("the second slot's delta waited for the first commit");
        assert_eq!(
            early,
            Some((false, 0)),
            "the later commit acknowledged before the earlier one"
        );
        first_done.recv().unwrap().unwrap();
        second_done.recv().unwrap().unwrap();
        let stats = e.stats();
        assert_eq!((stats.group_commits, stats.overlapped_commits), (2, 1));
        assert_eq!(e.lock_core().committed_epoch, 2);
    }

    #[test]
    fn a_same_slot_record_stays_queued_behind_its_slots_in_flight_commit() {
        let store = Arc::new(GatedStore::default());
        let (head0_entered, head0) = store.gate(HEAD_SLOTS[0]);
        // Sender dropped: a write to head 1 would announce itself and
        // pass, not block the test.
        let (head1_entered, _) = store.gate(HEAD_SLOTS[1]);
        let e = Arc::new(DeltaLogStorage::open(store).unwrap());
        e.store("a", &ckpt(0)).unwrap();
        let (first, first_done) = store_on_a_thread(&e, "a", delta(1));
        head0_entered.recv().unwrap();
        let (same_slot, same_slot_done) = store_on_a_thread(&e, "a", delta(2));
        let core = await_parked(&e, 1);
        // Rule 2: head 1 is free, and the record is not on it.
        let queued_behind = (core.queue.len(), core.heads[1].busy);
        drop(core);
        // Rule 1 takes the queue by prefix, so another slot's record
        // behind the held one waits with it rather than overtaking.
        let (behind, behind_done) = store_on_a_thread(&e, "b", delta(3));
        let core = await_parked(&e, 2);
        let both_queued = (core.queue.len(), core.heads[1].busy);
        drop(core);
        head0.send(true).unwrap(); // "a"'s first commit…
        head0_entered.recv().unwrap();
        head0.send(true).unwrap(); // …then one commit for what waited
        for t in [first, same_slot, behind] {
            t.join().unwrap();
        }
        assert_eq!(queued_behind, (1, false));
        assert_eq!(both_queued, (2, false));
        assert!(head1_entered.try_recv().is_err(), "nothing went to head 1");
        for done in [first_done, same_slot_done, behind_done] {
            done.recv().unwrap().unwrap();
        }
        let bundle = e.load("a").unwrap().unwrap();
        let (_, ds) = parse_bundle(&bundle).unwrap();
        assert_eq!(ds, vec![&delta(1)[..], &delta(2)[..]]);
        let stats = e.stats();
        assert_eq!((stats.group_commits, stats.overlapped_commits), (2, 0));
    }

    #[test]
    fn a_sealing_head_does_not_hold_up_a_commit_on_the_other_head() {
        let store = Arc::new(GatedStore::default());
        let (seal_entered, seal) = store.gate(&seg_slot(0));
        let config = DeltaLogConfig { segment_bytes: 16 }; // every commit fills its head
        let e = Arc::new(DeltaLogStorage::with_config(store.clone(), config).unwrap());
        e.store("a", &ckpt(0)).unwrap();
        e.store("b", &ckpt(0)).unwrap();
        let (sealer, sealed) = store_on_a_thread(&e, "a", delta(1));
        seal_entered.recv().unwrap(); // head 0's seal is inside its segment write
        let (other_lane, done) = store_on_a_thread(&e, "b", delta(2));
        let outcome = done.recv_timeout(LONG);
        seal.send(true).unwrap();
        sealer.join().unwrap();
        other_lane.join().unwrap();
        outcome
            .expect("the delta waited for the other head's seal")
            .unwrap();
        sealed.recv().unwrap().unwrap();
        // "b"'s commit filled and sealed head 1 meanwhile — as segment
        // 1, the number after the one head 0's seal had reserved.
        assert_eq!(e.stats().segments_sealed, 2);
        assert_eq!(e.lock_core().seg_index[&1], vec![(4, "b".to_string())]);
        drop(e);
        let reopened = DeltaLogStorage::open(store).unwrap();
        for (slot, d) in [("a", delta(1)), ("b", delta(2))] {
            let bundle = reopened.load(slot).unwrap().unwrap();
            assert_eq!(parse_bundle(&bundle).unwrap().1, vec![&d[..]]);
        }
    }

    #[test]
    fn a_failed_commit_fails_its_own_callers_and_not_the_overlapping_commits() {
        let store = Arc::new(GatedStore::default());
        let (head0_entered, head0) = store.gate(HEAD_SLOTS[0]);
        let (head1_entered, head1) = store.gate(HEAD_SLOTS[1]);
        let e = Arc::new(DeltaLogStorage::open(store.clone()).unwrap());
        e.store("a", &ckpt(0)).unwrap();
        e.store("b", &ckpt(0)).unwrap();
        let (first, first_done) = store_on_a_thread(&e, "a", delta(1));
        head0_entered.recv().unwrap();
        let (second, second_done) = store_on_a_thread(&e, "b", delta(2));
        head1_entered.recv().unwrap();
        head1.send(true).unwrap();
        head0.send(false).unwrap(); // the earlier commit's write fails
        first.join().unwrap();
        second.join().unwrap();
        assert!(first_done.recv().unwrap().is_err());
        second_done.recv().unwrap().unwrap();
        assert!(e.lock_core().failed.is_empty(), "collected, so forgotten");
        drop(e);
        let reopened = DeltaLogStorage::open(store).unwrap();
        assert_eq!(reopened.load("a").unwrap().unwrap(), ckpt(0));
        let bundle = reopened.load("b").unwrap().unwrap();
        assert_eq!(parse_bundle(&bundle).unwrap().1, vec![&delta(2)[..]]);
    }

    #[test]
    fn store_all_journals_every_delta_in_one_head_write() {
        let inner = Arc::new(DelayedStorage::new(MemoryStorage::new(), Duration::ZERO));
        let e = DeltaLogStorage::open(inner.clone()).unwrap();
        e.store("s", &ckpt(1)).unwrap();
        let before = inner.stores();
        e.store_all("s", &[&delta(2), &delta(3), &delta(4)])
            .unwrap();
        assert_eq!(inner.stores(), before + 1, "one write for three records");
        assert_eq!(e.stats().group_commits, 1);
        let bundle = e.load("s").unwrap().unwrap();
        let (c, ds) = parse_bundle(&bundle).unwrap();
        assert_eq!(c, &ckpt(1)[..]);
        assert_eq!(ds, vec![&delta(2)[..], &delta(3)[..], &delta(4)[..]]);

        // A checkpoint among them is its own write between the runs of
        // deltas around it; nothing at all writes nothing.
        e.store_all("s", &[&delta(5), &ckpt(6), &delta(7)]).unwrap();
        e.store_all("s", &[]).unwrap();
        assert_eq!(inner.stores(), before + 4);
        assert_eq!(
            parse_bundle(&e.load("s").unwrap().unwrap()),
            Some((&ckpt(6)[..], vec![&delta(7)[..]]))
        );
        drop(e);
        let reopened = DeltaLogStorage::open(inner).unwrap();
        assert_eq!(
            parse_bundle(&reopened.load("s").unwrap().unwrap()),
            Some((&ckpt(6)[..], vec![&delta(7)[..]]))
        );
    }

    #[test]
    fn a_plain_slot_is_adopted_before_the_first_delta_on_it() {
        let inner = Arc::new(MemoryStorage::new());
        let old = make_bundle(&ckpt(1), [&delta(2)[..], &delta(3)[..]].into_iter());
        inner.store("bundled", &old).unwrap();
        inner.store("bare", &ckpt(4)).unwrap();
        let e = DeltaLogStorage::open(inner.clone()).unwrap();
        // Until a delta arrives, the plain slot is what loads.
        assert_eq!(e.load("bundled").unwrap().unwrap(), old);
        e.store("bundled", &delta(5)).unwrap();
        e.store("bare", &delta(6)).unwrap();
        e.store("bare", &delta(7)).unwrap();
        // Nothing to adopt: journaled as ever, probed once.
        e.store("fresh", &delta(8)).unwrap();
        assert!(e.lock_core().slots["fresh"].inner_checked);
        drop(e);

        let reopened = DeltaLogStorage::open(inner.clone()).unwrap();
        let bundle = reopened.load("bundled").unwrap().unwrap();
        let (c, ds) = parse_bundle(&bundle).unwrap();
        assert_eq!(c, &ckpt(1)[..]);
        assert_eq!(ds, vec![&delta(2)[..], &delta(3)[..], &delta(5)[..]]);
        let bundle = reopened.load("bare").unwrap().unwrap();
        assert_eq!(
            parse_bundle(&bundle),
            Some((&ckpt(4)[..], vec![&delta(6)[..], &delta(7)[..]]))
        );
        // The plain slots are left as they were.
        assert_eq!(inner.load("bundled").unwrap().unwrap(), old);
    }

    #[test]
    fn a_delta_whose_adoption_fails_is_not_acknowledged_and_adopts_again() {
        let store = Arc::new(GatedStore::default());
        let old = make_bundle(&ckpt(1), [&delta(2)[..]].into_iter());
        store.store("s", &old).unwrap();
        let (entered, outcome) = store.gate(&ckpt_slot("s", 0));
        let e = Arc::new(DeltaLogStorage::open(store.clone()).unwrap());
        let (writer, done) = store_on_a_thread(&e, "s", delta(3));
        // The adopted delta is journaled, then the checkpoint write
        // comes — and fails.
        let adopting = entered.recv_timeout(LONG);
        outcome.send(false).unwrap();
        writer.join().unwrap();
        adopting.expect("the delta was journaled without adopting the slot");
        assert!(done.recv().unwrap().is_err());
        drop(e);
        // The orphaned journal records change nothing: the plain slot
        // still loads, and the next delta adopts it anew.
        let e = Arc::new(DeltaLogStorage::open(store.clone()).unwrap());
        assert_eq!(e.load("s").unwrap().unwrap(), old);
        let (writer, done) = store_on_a_thread(&e, "s", delta(4));
        let adopting = entered.recv_timeout(LONG);
        outcome.send(true).unwrap();
        adopting.unwrap();
        writer.join().unwrap();
        done.recv().unwrap().unwrap();
        drop(e);
        let reopened = DeltaLogStorage::open(store).unwrap();
        assert_eq!(
            parse_bundle(&reopened.load("s").unwrap().unwrap()),
            Some((&ckpt(1)[..], vec![&delta(2)[..], &delta(4)[..]]))
        );
    }

    #[test]
    fn epochs_continue_after_recovery() {
        let (inner, e) = engine(1 << 20);
        e.store("s", &ckpt(1)).unwrap();
        e.store("s", &delta(2)).unwrap();
        drop(e);
        let e2 = DeltaLogStorage::open(inner.clone()).unwrap();
        e2.store("s", &delta(3)).unwrap();
        drop(e2);
        let e3 = DeltaLogStorage::open(inner).unwrap();
        let got = e3.load("s").unwrap().unwrap();
        let (_, ds) = parse_bundle(&got).unwrap();
        assert_eq!(ds, vec![&delta(2)[..], &delta(3)[..]]);
    }

    #[test]
    fn bundle_parse_rejects_tampering() {
        let bundle = make_bundle(&ckpt(1), [&delta(2)[..]].into_iter());
        assert!(parse_bundle(&bundle).is_some());
        // Trailing garbage, wrong kind, truncation: all rejected.
        let mut trailing = bundle.clone();
        trailing.push(0);
        assert!(parse_bundle(&trailing).is_none());
        let mut wrong_kind = bundle.clone();
        wrong_kind[0] = BLOB_KIND_CHECKPOINT;
        assert!(parse_bundle(&wrong_kind).is_none());
        assert!(parse_bundle(&bundle[..bundle.len() - 1]).is_none());
        assert!(parse_bundle(&[BLOB_KIND_BUNDLE]).is_none());
    }

    #[test]
    fn failed_group_commit_surfaces_to_the_caller() {
        let flaky = Arc::new(crate::FlakyStorage::new(MemoryStorage::new()));
        let e = DeltaLogStorage::open(flaky.clone() as Arc<dyn StableStorage>).unwrap();
        e.store("s", &ckpt(1)).unwrap();
        flaky.set_mode(crate::FailureMode::FailStores);
        assert!(e.store("s", &delta(2)).is_err());
        flaky.set_mode(crate::FailureMode::None);
        // The engine keeps working after the failure.
        e.store("s", &delta(3)).unwrap();
        let got = e.load("s").unwrap().unwrap();
        let (_, ds) = parse_bundle(&got).unwrap();
        assert_eq!(ds, vec![&delta(3)[..]]);
    }

    #[test]
    fn failed_commits_are_forgotten_once_their_callers_have_the_error() {
        let flaky = Arc::new(crate::FlakyStorage::new(MemoryStorage::new()));
        let e = DeltaLogStorage::open(flaky.clone() as Arc<dyn StableStorage>).unwrap();
        e.store("s", &ckpt(1)).unwrap();
        flaky.set_mode(crate::FailureMode::FailStores);
        for round in 0..1_000u32 {
            assert!(e.store("s", &delta(round as u8)).is_err());
            assert!(e.lock_core().failed.len() <= 1, "round {round}");
        }
        assert!(e.lock_core().failed.is_empty());
        flaky.set_mode(crate::FailureMode::None);
        e.store("s", &delta(7)).unwrap();
        let bundle = e.load("s").unwrap().unwrap();
        assert_eq!(parse_bundle(&bundle).unwrap().1, vec![&delta(7)[..]]);
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// The bytes the engine puts on the medium and hands the enclave,
    /// as the one-head engine of commit `2594420` wrote them (recorded
    /// by this very schedule in a scratch clone): the checkpoint slot,
    /// the journal head, the manifest and the recovery bundle.
    #[test]
    fn medium_and_bundle_bytes_are_the_recorded_ones() {
        let (inner, e) = engine(1 << 20);
        let blob = |kind: u8, body: &[u8]| [&[kind][..], body].concat();
        e.store(
            "lane.a",
            &blob(BLOB_KIND_CHECKPOINT, b"checkpoint-of-lane-a"),
        )
        .unwrap();
        e.store("lane.a", &blob(BLOB_KIND_DELTA, b"delta-one"))
            .unwrap();
        e.store("lane.b", &blob(BLOB_KIND_DELTA, b"other-lane"))
            .unwrap();
        e.store("lane.a", &blob(BLOB_KIND_DELTA, b"delta-two"))
            .unwrap();
        let on_medium = |slot: &str| inner.load(slot).unwrap().unwrap();
        assert_eq!(
            on_medium("dlog.ckpt.0.lane.a"),
            unhex("0000001d2e9090c0000000000000000101636865636b706f696e742d6f662d6c616e652d61")
        );
        assert_eq!(
            on_medium("dlog.head"),
            unhex(concat!(
                "0000001ca01542d30000000000000002000000066c616e652e610264656c74612d6f6e65",
                "0000001de9f12f2e0000000000000003000000066c616e652e62026f746865722d6c616e65",
                "0000001c3d8e4b820000000000000004000000066c616e652e610264656c74612d74776f",
            ))
        );
        assert_eq!(
            on_medium("dlog.meta.1"),
            unhex(concat!(
                "000000264b73d95d000000000000000100000000000000000000000000000000",
                "00000001000000066c616e652e61",
            ))
        );
        assert_eq!(
            inner.load("dlog.head.1").unwrap(),
            None,
            "one lane, one head"
        );
        assert_eq!(
            e.load("lane.a").unwrap().unwrap(),
            unhex(concat!(
                "030000001573e8f4ad01636865636b706f696e742d6f662d6c616e652d61",
                "0000000ad179d9870264656c74612d6f6e650000000abadfd5100264656c74612d74776f",
            ))
        );
    }
}
