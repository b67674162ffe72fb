//! The segmented sealed delta-log storage engine.
//!
//! Whole-snapshot persistence seals and stores the *entire* service
//! state on every batch, so total state size bounds throughput — the
//! bottleneck the paper's asynchronous-write mode hides but does not
//! remove. [`DeltaLogStorage`] removes it: the enclave emits small
//! sealed *deltas* per batch, and this engine journals them into an
//! append-style segmented log over any inner [`StableStorage`], with
//!
//! * a **group-commit writer, one commit per busy head** — concurrent
//!   delta stores from many shards'/replicas' lanes are drained into
//!   one inner write (one modelled fsync) of a journal *head* by
//!   whichever caller wins the committer role, the rest blocking until
//!   their record is durable. There are [`HEADS`] heads (`dlog.head`,
//!   then `dlog.head.1` through `dlog.head.3`): a store that finds
//!   commits on the device takes the lowest free head and starts its
//!   own inner write at once, instead of waiting out writes it is not
//!   part of and then its own. A lone writer only ever finds head 0
//!   free, so it writes `dlog.head` alone;
//! * **sealed segments** — a head is sealed into a segment once it
//!   reaches [`DeltaLogConfig::segment_bytes`], with the engine lock
//!   released while the other heads keep committing. A seal is one
//!   device write of the full head into the lowest free segment slot
//!   the manifest covers; only a seal that finds none grows the range,
//!   and writes the manifest after its segment. The head is not
//!   cleared: its next commit rewrites the slot;
//! * **compaction** — a sealed checkpoint store supersedes the slot's
//!   older deltas. A segment whose every record is superseded one
//!   checkpoint generation late goes on an in-memory free list, and a
//!   later seal overwrites it in place: like a log-structured file
//!   system, the log reclaims a segment by reusing it, not by erasing
//!   it, so collection is bookkeeping and costs no device write;
//! * **batched stores** — [`StableStorage::store_all`] journals a run
//!   of one slot's deltas (a replica-group straggler's buffer) as one
//!   group commit, one head write;
//! * **recovery** — reopening scans checkpoints, every segment slot in
//!   the manifest's range and every head slot, truncates a torn head
//!   tail at that head's last intact frame ([`crate::framing`]),
//!   replays the surviving records merged in epoch order, and rebuilds
//!   the free list from the same scan. An absent head slot is an empty
//!   head, so a medium written with one or two heads, or whose
//!   collection cleared segments instead of freeing them, opens
//!   unchanged. Which layer checks what on the way is listed under
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
//! # Commits in flight on many heads: the three rules
//!
//! 1. **Acknowledge in order.** Commits are numbered as they take the
//!    queue, each takes a *prefix* of the epoch-ordered queue, and one
//!    publishes — `committed_epoch`, the slot mirrors, its callers'
//!    return — only after every earlier one has. So no `store` returns
//!    before its record *and every earlier-epoch record* is on the
//!    medium (or has failed its own caller): an acknowledged record
//!    never has an unacknowledged predecessor, even when a later
//!    commit's inner write finishes first.
//! 2. **One slot, one commit at a time.** A record whose slot has a
//!    record in *any* unfinished commit stays queued (and, the queue
//!    being taken by prefix, so does everything behind it). Head writes
//!    that are in flight together therefore never carry the same slot,
//!    and whichever of them a crash lands, each slot's surviving
//!    records are a prefix of that slot's history. No lane stores one
//!    slot concurrently today; the engine does not depend on that.
//! 3. **Recovery merges every head by epoch.** Records are keyed by
//!    epoch wherever they were found (segments, any head — a record
//!    may be in a segment and still in its head), and a torn tail
//!    truncates its own head only.
//!
//! The single-lane case is the same code with one head ever busy: a
//! commit takes the lowest free head, so one writer journals through
//! `dlog.head` alone and its medium is the one-head layout's, byte for
//! byte. Four heads because the widest deployment whose lanes share one
//! engine has four lanes (the front-end posture, `fe4`; a lane over a
//! store that is not delta-capable opens an engine of its own, so a
//! wider sharded server is one writer per engine): each lane's commit
//! then finds a head of its own, and queues only behind a commit that
//! carries its own slot.
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
//!    gates garbage collection. The journal — every segment slot in
//!    the manifest's range, then every head — is scanned once, which
//!    is what finds each head's torn tail. A record its slot's current
//!    checkpoint already supersedes is indexed (collection must know
//!    which segment holds it) but its blob is not copied out:
//!    collection runs one generation late, so on a busy log that is
//!    most of the window, and the leftover frames of a reused slot are
//!    such records. A head whose bytes a segment holds whole was sealed
//!    and starts empty.
//! 2. **`load`** answers for *the frame it hands up*. It reads the
//!    current parity slot from the medium again — the engine keeps no
//!    checkpoint in memory, and what the medium serves now is what the
//!    enclave has to judge — and checks that frame as read: a slot
//!    that rotted since the probe is "no state", not bytes to pass on
//!    under a fresh checksum. Then it frames what goes up: the
//!    checkpoint blob without its epoch (another payload, so another
//!    checksum) and each kept delta. It does so in the buffer the
//!    medium returned — the slot frame's head is rewritten as the
//!    bundle's and the delta frames are appended behind the blob — so
//!    the checkpoint is never copied into a second buffer. A slot with
//!    no deltas goes up bare — no frame, no second pass.
//! 3. **The enclave's [`parse_bundle`]** answers for *the boundary*:
//!    the bundle crossed the host, so before any frame is opened it
//!    must be exactly whole frames with no trailing bytes. What is
//!    inside a frame is the seal's to judge, frame by frame, after
//!    that.
//!
//! So a checkpoint byte is checksummed once per parity at the probe,
//! twice in `load` (as read, as handed up) and once in the enclave; a
//! kept journal byte once at the probe, once into the bundle, once in
//! the enclave. A plain slot the engine has not adopted has the same
//! roles in two places: `load` cuts its torn tail, the enclave checks
//! the boundary. A bare lane runs the probe again at every boot
//! ([`DeltaLogStorage::reopen`]), so a reboot recovers what the medium
//! serves *then*, never what the engine held before the crash.
//!
//! # Crash-safety invariants
//!
//! Exercised by the recovery proptests in `tests/storage_torture.rs`,
//! and for a reused segment by the crash-point unit tests below:
//!
//! 1. every record is tagged with a monotone *epoch* and every
//!    acknowledged record survives: replaying a prefix of inner writes —
//!    in any order the host flushed them, with any of the head writes
//!    in flight together lost — recovers, *per slot*, a prefix of that
//!    slot's committed history that holds everything acknowledged;
//! 2. checkpoints alternate between two parity slots, and a segment is
//!    freed only one checkpoint generation late — when every record in
//!    it is at or below its slot's *previous* checkpoint — so a torn or
//!    lost newest checkpoint always leaves the previous checkpoint plus
//!    the deltas needed to reach (at least) its state. A freed slot's
//!    frames stay on the medium until a seal overwrites them; whichever
//!    of the two checkpoints recovery lands on supersedes them by
//!    epoch, so they are indexed and never replayed;
//! 3. the manifest is written before any checkpoint that would make a
//!    new slot discoverable, and a seal writes only into a segment the
//!    medium's manifest already covers or, growing the range, writes
//!    the manifest after its segment; the sealed records stay in their
//!    head slot until that head's next commit rewrites it, which starts
//!    only after the seal has returned. So a torn seal — a reused slot
//!    overwritten in part — loses no acknowledged record: the head
//!    still holds them, and the slot's old frames were free. A seal
//!    holds no lock across its device writes: the full head stays
//!    marked busy (no commit touches it) and its segment is taken off
//!    the free list or reserved under the lock, so another head's seal
//!    takes another. Manifest writes queue behind one another,
//!    never behind the lock.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use lcm_runtime::CountedCondvar;

use crate::{
    framing, parse_bundle, Result, StableStorage, StorageError, BLOB_KIND_BUNDLE,
    BLOB_KIND_CHECKPOINT, BLOB_KIND_DELTA,
};

/// How many journal heads can have a commit on the device at once.
const HEADS: usize = 4;

/// Slots holding the active (unsealed) journal heads. Head 0 keeps the
/// name the one-head layout used, so media written by it open as they
/// are, and a slot that is absent is an empty head.
const HEAD_SLOTS: [&str; HEADS] = ["dlog.head", "dlog.head.1", "dlog.head.2", "dlog.head.3"];

fn seg_slot(k: u64) -> String {
    format!("dlog.seg.{k:08}")
}

fn meta_slot(parity: u8) -> String {
    format!("dlog.meta.{parity}")
}

fn ckpt_slot(slot: &str, parity: u8) -> String {
    format!("dlog.ckpt.{parity}.{slot}")
}

/// Assembles a recovery bundle from a checkpoint blob and delta blobs:
/// the inverse of [`crate::parse_bundle`], which the enclave runs. This
/// half is the host's; it is public so tests can fabricate bundles
/// without an engine. Sized up front, so the checkpoint — the O(state)
/// part — is copied exactly once. [`DeltaLogStorage`]'s `load` writes
/// the same bytes without that copy, in the buffer it read the
/// checkpoint into.
pub fn make_bundle<'a>(
    checkpoint: &[u8],
    deltas: impl Iterator<Item = &'a [u8]> + Clone,
) -> Vec<u8> {
    let mut bundle = Vec::with_capacity(
        1 + framing::FRAME_HEADER + checkpoint.len() + delta_frames_len(deltas.clone()),
    );
    bundle.push(BLOB_KIND_BUNDLE);
    framing::append_frame(&mut bundle, checkpoint);
    for d in deltas {
        framing::append_frame(&mut bundle, d);
    }
    bundle
}

/// What a bundle holds before its checkpoint's bytes: the kind byte
/// and the checkpoint frame's `len ‖ crc32`. `load` writes it over the
/// tail of the checkpoint slot's own frame head, so the checkpoint is
/// never copied into a second buffer.
fn bundle_head(checkpoint: &[u8]) -> [u8; 1 + framing::FRAME_HEADER] {
    let mut head = [BLOB_KIND_BUNDLE; 1 + framing::FRAME_HEADER];
    head[1..5].copy_from_slice(&(checkpoint.len() as u32).to_be_bytes());
    head[5..].copy_from_slice(&framing::crc32(checkpoint).to_be_bytes());
    head
}

/// The bytes `deltas` take as a bundle's frames.
fn delta_frames_len<'a>(deltas: impl Iterator<Item = &'a [u8]>) -> usize {
    deltas.map(|d| framing::FRAME_HEADER + d.len()).sum()
}

/// Cuts a torn tail off a bundle read from a plain slot: what is left
/// is the longest intact `checkpoint ‖ deltas` prefix. A bundle whose
/// *checkpoint* frame is torn, and any other blob, is left as it is.
fn cut_torn_bundle(blob: &mut Vec<u8>) {
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

/// Observable engine counters (monotone since the last (re)open).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaLogStats {
    /// Inner writes of a journal head — each one is a group commit
    /// covering every record drained that round.
    pub group_commits: u64,
    /// Group commits that started while another head was busy with a
    /// commit or a seal — the overlap the extra heads exist for.
    pub overlapped_commits: u64,
    /// The most heads that had a commit or a seal on the device at
    /// once: 1 for a lone writer, at most the engine's four.
    pub peak_heads_busy: u64,
    /// Delta records appended across all group commits.
    pub records_appended: u64,
    /// Head buffers sealed into immutable segments.
    pub segments_sealed: u64,
    /// Checkpoints stored (compaction points).
    pub checkpoints: u64,
    /// Fully superseded segments put on the free list for reuse.
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
    /// Epoch of the previous checkpoint generation: a segment whose
    /// records of this slot are all at or below it may be freed (the
    /// lag keeps a torn checkpoint overwrite recoverable from its
    /// predecessor).
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

/// One of the [`HEADS`] journal heads.
#[derive(Default)]
struct Head {
    /// In-memory mirror of the durable head slot. Away with the
    /// committer (empty here) while the head is `busy`.
    buf: Vec<u8>,
    /// What the head slot holds, as its segment will be indexed.
    index: SegIndex,
    /// The records of the unfinished commit on this head, empty without
    /// one. Kept here rather than with its committer so the other
    /// heads' next commits can apply rule 2 against it.
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

/// The engine's state; `Default` is the engine before recovery, which
/// knows nothing and accepts no record.
#[derive(Default)]
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
    heads: [Head; HEADS],
    seg_lo: u64,
    /// Next unreserved segment number. Every number in `seg_lo..seg_next`
    /// is in exactly one of `seg_index`, `free`, or a seal in flight.
    seg_next: u64,
    /// The live sealed segments: some record in each is still needed.
    seg_index: BTreeMap<u64, SegIndex>,
    /// Segments whose every record is superseded one generation late:
    /// a seal may overwrite them.
    free: BTreeSet<u64>,
    /// `seg_next` as the newest manifest on the medium has it: a seal
    /// reuses only a free segment below it, which recovery will scan.
    meta_seg_next: u64,
    meta_gen: u64,
    meta_parity: u8,
    /// A manifest write is on the device (lock released); the next
    /// waits, so generations reach the medium in order.
    meta_busy: bool,
    slots: HashMap<String, SlotState>,
    stats: DeltaLogStats,
    /// Recovery has run. Until then a sealed record is refused: its
    /// commit would overwrite slots the engine has not read.
    open: bool,
}

impl Core {
    fn take_epoch(&mut self) -> u64 {
        self.next_epoch += 1;
        self.next_epoch - 1
    }

    /// The segment a full head seals into: the lowest free one the
    /// medium's manifest covers, or else a new number, with `true` —
    /// the range grows, so the manifest must follow the segment.
    fn take_segment(&mut self) -> (u64, bool) {
        if let Some(&k) = self.free.range(..self.meta_seg_next).next() {
            self.free.remove(&k);
            return (k, false);
        }
        self.seg_next += 1;
        (self.seg_next - 1, true)
    }

    /// Collection: moves every live segment whose records are all
    /// superseded one generation late onto the free list. Bookkeeping
    /// only — the next seal that takes one overwrites it.
    fn free_superseded(&mut self) {
        let Core {
            seg_index,
            free,
            slots,
            stats,
            ..
        } = self;
        seg_index.retain(|&k, index| {
            if !superseded(slots, index) {
                return true;
            }
            free.insert(k);
            stats.segments_gced += 1;
            false
        });
    }

    /// Starts a group commit if a head is free and the queue's front is
    /// eligible: takes the longest queue prefix rule 2 allows onto the
    /// lowest free head, numbers the commit, and returns `(head, number)`.
    fn begin_commit(&mut self) -> Option<(usize, u64)> {
        let h = self.heads.iter().position(|head| !head.busy)?;
        let unfinished = self.heads.iter().flat_map(|head| &head.batch);
        let eligible = self
            .queue
            .iter()
            .position(|r| unfinished.clone().any(|u| u.slot == r.slot))
            .unwrap_or(self.queue.len());
        if eligible == 0 {
            return None;
        }
        let busy = self.heads.iter().filter(|head| head.busy).count() as u64;
        if busy > 0 {
            self.stats.overlapped_commits += 1;
        }
        self.stats.peak_heads_busy = self.stats.peak_heads_busy.max(busy + 1);
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
/// any medium that is not [`StableStorage::delta_capable`]; a bare
/// `LcmServer` over such a medium opens one of its own.
///
/// A medium a store without the engine wrote — a plain slot holding a
/// checkpoint or a `checkpoint ‖ deltas` bundle ([`make_bundle`]) under
/// the slot's own name, as servers before the engine wrote it — loads
/// as it is, torn tail cut, until the first delta on that slot, which
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
                &core.heads.iter().map(|h| h.buf.len()).collect::<Vec<_>>(),
            )
            .field("slots", &core.slots.len())
            .field("stats", &core.stats)
            .finish()
    }
}

/// The newest epoch of each slot with records in a segment (or head):
/// all collection needs to know of it.
type SegIndex = Vec<(u64, String)>;

/// Notes a record of `slot` at `epoch`, the newest so far, in `index`.
fn note(index: &mut SegIndex, epoch: u64, slot: &str) {
    match index.iter_mut().find(|(_, s)| s == slot) {
        Some(entry) => entry.0 = entry.0.max(epoch),
        None => index.push((epoch, slot.to_string())),
    }
}

/// Whether every record `index` describes is at or below its slot's
/// previous checkpoint — needed by neither checkpoint on the medium.
fn superseded(slots: &HashMap<String, SlotState>, index: &SegIndex) -> bool {
    index
        .iter()
        .all(|(epoch, slot)| slots.get(slot).is_some_and(|s| *epoch <= s.prev_ckpt_epoch))
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
        let engine = Self::closed(inner, config);
        engine.reopen()?;
        Ok(engine)
    }

    /// An engine over `inner` that has not run recovery yet: it
    /// refuses every sealed record until [`DeltaLogStorage::reopen`]
    /// succeeds, and loads fall through to `inner`. A bare lane makes
    /// its engine this way and opens it at every boot.
    pub fn closed(inner: Arc<dyn StableStorage>, config: DeltaLogConfig) -> Self {
        DeltaLogStorage {
            inner,
            config,
            core: Mutex::new(Core::default()),
            commit_done: CountedCondvar::new(),
        }
    }

    /// Runs recovery again over what the medium serves now, replacing
    /// all the engine held in memory; every `Arc` to it stays valid.
    /// Call it with no store in flight (a lane drains its writer
    /// first). If recovery fails the engine is left closed.
    ///
    /// # Errors
    ///
    /// Fails only on inner I/O errors.
    pub fn reopen(&self) -> Result<()> {
        *self.lock_core() = Core::default();
        let core = Self::recover(&*self.inner)?;
        *self.lock_core() = core;
        Ok(())
    }

    /// Recovery: reads the manifest, both checkpoint parities of every
    /// slot it names, every segment slot in its range and every head, and
    /// returns the engine state they describe (module docs, "Who checks
    /// what at a reboot").
    fn recover(inner: &dyn StableStorage) -> Result<Core> {
        let mut core = Core {
            open: true,
            ..Core::default()
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
            core.meta_seg_next = next;
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

        // Every segment slot in the range, then every head: collect
        // records by epoch (rule 3 — where a record was found does not
        // matter, and one found twice is one record). The checkpoints
        // are known by now, so a record its slot's checkpoint supersedes
        // — a reused slot's leftover frames among them — is indexed but
        // never copied; its epoch is below the checkpoint's, which
        // `max_epoch` already covers.
        let mut records: BTreeMap<u64, (String, Arc<[u8]>)> = BTreeMap::new();
        let mut collect =
            |buf: &[u8], slots: &HashMap<String, SlotState>, stats: &mut DeltaLogStats| {
                let scanned = framing::scan(buf);
                if scanned.is_torn(buf.len()) {
                    stats.torn_truncations += 1;
                }
                let mut index = SegIndex::new();
                for payload in scanned.payloads {
                    if let Some((epoch, slot, blob)) = parse_record(payload) {
                        note(&mut index, epoch, slot);
                        let ckpt_epoch = slots.get(slot).and_then(|s| s.ckpt_epoch);
                        if epoch > ckpt_epoch.unwrap_or(0) {
                            records.insert(epoch, (slot.to_string(), Arc::from(blob)));
                        }
                    }
                }
                (index, scanned.valid_len)
            };
        let mut head_bufs = HEAD_SLOTS
            .iter()
            .map(|slot| inner.load(slot))
            .collect::<Result<Vec<_>>>()?;
        for k in core.seg_lo..core.seg_next {
            // A number with nothing behind it — a seal that grew the
            // range and died, a slot an older engine cleared — scans
            // empty and is free like any other superseded segment.
            let buf = inner.load(&seg_slot(k))?.unwrap_or_default();
            // A seal writes its head whole and leaves the head slot as
            // it was: a head some segment holds byte for byte was
            // sealed, and starts empty — its next commit rewrites it.
            for head in &mut head_bufs {
                if !buf.is_empty() && head.as_deref() == Some(&buf[..]) {
                    *head = None;
                }
            }
            let (index, _) = collect(&buf, &core.slots, &mut core.stats);
            if superseded(&core.slots, &index) {
                core.free.insert(k);
            } else {
                core.seg_index.insert(k, index);
            }
        }
        for (head, buf) in core.heads.iter_mut().zip(head_bufs) {
            if let Some(mut buf) = buf {
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
        Ok(core)
    }

    fn lock_core(&self) -> MutexGuard<'_, Core> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`Self::lock_core`] for a path that writes a sealed record: an
    /// engine that has not recovered refuses it.
    fn lock_open(&self) -> Result<MutexGuard<'_, Core>> {
        let core = self.lock_core();
        if core.open {
            return Ok(core);
        }
        Err(StorageError::Io(std::io::Error::other(
            "the delta log has not recovered its medium: reopen it first",
        )))
    }

    /// A snapshot of the engine counters.
    pub fn stats(&self) -> DeltaLogStats {
        self.lock_core().stats
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
        let seg_next = core.seg_next;
        let buf = encode_meta(gen, core.seg_lo, seg_next, &slots);
        drop(core);
        let written = self.inner.store(&meta_slot(parity), &buf);
        let mut core = self.lock_core();
        core.meta_busy = false;
        if written.is_ok() {
            core.meta_gen = gen;
            core.meta_parity = parity;
            core.meta_seg_next = seg_next;
        }
        drop(core);
        self.commit_done.notify_all();
        written
    }

    /// The device writes of sealing a head whose content is `buf` into
    /// segment `k`, with the core lock released: the segment, and the
    /// manifest after it only if `k` grows the range. (`k` was taken
    /// before the segment was written, so any manifest from here on
    /// covers it.) The head slot is left as it is — its records stay
    /// there until the head's next commit, so a torn segment loses
    /// none, and a copy found in both places is one record by epoch.
    fn seal_writes(&self, k: u64, grows: bool, buf: &[u8]) -> Result<()> {
        self.inner.store(&seg_slot(k), buf)?;
        if grows {
            self.write_meta()?;
        }
        Ok(())
    }

    /// The group-commit path for deltas of one slot: adopt the slot's
    /// pre-engine state if it may have one, then journal them.
    fn store_deltas(&self, slot: &str, records: impl IntoIterator<Item = Record>) -> Result<()> {
        let mut core = self.lock_open()?;
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
                    note(&mut core.heads[h].index, r.epoch, &r.slot);
                    let state = core.slots.entry(r.slot).or_default();
                    // A checkpoint of the slot that overtook this record
                    // has superseded it already.
                    if r.epoch > state.ckpt_epoch.unwrap_or(0) {
                        state.deltas.insert(r.epoch, r.blob);
                    }
                }
                if buf.len() >= self.config.segment_bytes {
                    // Taken here, under the lock: another head's seal
                    // takes another segment.
                    seal_into = Some(core.take_segment());
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
        if let Some((k, grows)) = seal_into {
            // The commit's callers go now; the head stays busy and the
            // other heads keep committing while this one seals.
            drop(core);
            self.commit_done.notify_all();
            let sealed = self.seal_writes(k, grows, &buf);
            core = self.lock_core();
            match sealed {
                Ok(()) => {
                    let index = std::mem::take(&mut core.heads[h].index);
                    core.seg_index.insert(k, index);
                    core.stats.segments_sealed += 1;
                    buf.clear(); // keeps its capacity for the next fill
                }
                // Best effort: the records stay durable in the head and
                // the seal retries after this head's next commit. What
                // the segment holds now is in the head too, so it is
                // free again.
                Err(_) => {
                    core.free.insert(k);
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
    /// Both device writes here — the manifest that makes a new slot
    /// discoverable and the O(state) checkpoint — run with the core lock
    /// *released*: every lane of the deployment
    /// group-commits through that lock, and one lane's compaction must
    /// not stall the rest. Epoch and parity are reserved under the lock
    /// before the write and the result is published under it after.
    fn store_checkpoint(&self, slot: &str, blob: &[u8]) -> Result<()> {
        let mut core = self.lock_open()?;
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
    /// `epoch` for, publishes it and frees what it supersedes one
    /// generation late ([`Core::free_superseded`]).
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
        if written.is_ok() {
            state.prev_ckpt_epoch = state.ckpt_epoch.unwrap_or(0);
            state.ckpt_epoch = Some(epoch);
            state.ckpt_parity = parity;
            state.deltas = state.deltas.split_off(&(epoch + 1));
            core.stats.checkpoints += 1;
            core.free_superseded();
        }
        drop(core);
        self.commit_done.notify_all();
        written
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
                    // Not adopted: the plain slot as the medium holds
                    // it, a torn tail cut as `adopt` would cut it.
                    drop(core);
                    let mut blob = self.inner.load(slot)?;
                    if let Some(blob) = &mut blob {
                        cut_torn_bundle(blob);
                    }
                    return Ok(blob);
                }
            }
        };
        let Some(mut buf) = self.inner.load(&ckpt_slot(slot, parity))? else {
            return Ok(None);
        };
        let Some((_, ckpt_blob)) = parse_ckpt(&buf) else {
            return Ok(None);
        };
        // The blob is the tail of the slot's one frame, behind
        // `len ‖ crc ‖ epoch`: the buffer itself goes up, minus what
        // precedes the blob — bare, or as the bundle's first frame.
        let blob_at = buf.len() - ckpt_blob.len();
        if deltas.is_empty() {
            buf.drain(..blob_at);
            return Ok(Some(buf));
        }
        let head = bundle_head(ckpt_blob);
        let at = blob_at - head.len();
        buf[at..blob_at].copy_from_slice(&head);
        buf.drain(..at);
        buf.reserve_exact(delta_frames_len(deltas.iter().map(|d| &**d)));
        for d in &deltas {
            framing::append_frame(&mut buf, d);
        }
        Ok(Some(buf))
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

    /// A plain medium that lists the slots it is written, and can tear
    /// one chosen overwrite in place: only the new blob's first `keep`
    /// bytes land over the old ones, as on power loss mid-write.
    #[derive(Default)]
    struct Medium {
        slots: Mutex<HashMap<String, Vec<u8>>>,
        written: Mutex<Vec<String>>,
        tear: Mutex<Option<(String, usize)>>,
    }

    impl Medium {
        /// The slots written since the last call, in order.
        fn take_written(&self) -> Vec<String> {
            std::mem::take(&mut *self.written.lock().unwrap())
        }

        /// Cuts `slot`'s stored bytes short, as a torn write leaves them.
        fn truncate(&self, slot: &str, by: usize) {
            let mut slots = self.slots.lock().unwrap();
            let buf = slots.get_mut(slot).unwrap();
            buf.truncate(buf.len() - by);
        }
    }

    impl StableStorage for Medium {
        fn store(&self, slot: &str, blob: &[u8]) -> Result<()> {
            self.written.lock().unwrap().push(slot.to_string());
            let mut slots = self.slots.lock().unwrap();
            let mut tear = self.tear.lock().unwrap();
            let torn = tear.as_ref().filter(|(s, _)| s == slot).map(|&(_, k)| k);
            let bytes = match (torn, slots.get(slot)) {
                (Some(keep), Some(old)) if keep < blob.len() => {
                    *tear = None;
                    let mut torn = blob[..keep].to_vec();
                    torn.extend_from_slice(old.get(keep..).unwrap_or_default());
                    torn
                }
                _ => blob.to_vec(),
            };
            slots.insert(slot.to_string(), bytes);
            Ok(())
        }
        fn load(&self, slot: &str) -> Result<Option<Vec<u8>>> {
            Ok(self.slots.lock().unwrap().get(slot).cloned())
        }
    }

    /// One journal frame per `delta` on slot "s": 8 + 8 + 4 + 1 + 9.
    const FRAME: usize = 30;

    /// An engine over `medium` whose head seals at every second delta
    /// of slot "s".
    fn two_frame_engine(medium: &Arc<Medium>) -> DeltaLogStorage {
        let config = DeltaLogConfig {
            segment_bytes: 2 * FRAME - 1,
        };
        DeltaLogStorage::with_config(medium.clone(), config).unwrap()
    }

    /// Stores `ckpt(epoch)` or `delta(epoch)` for each epoch in turn:
    /// the engine numbers them 1, 2, … in this order, so each blob names
    /// its own epoch.
    fn store_epochs(e: &DeltaLogStorage, checkpoints: &[u8], epochs: std::ops::RangeInclusive<u8>) {
        for n in epochs {
            let blob = if checkpoints.contains(&n) {
                ckpt(n)
            } else {
                delta(n)
            };
            e.store("s", &blob).unwrap();
        }
    }

    fn loaded(e: &DeltaLogStorage) -> (Vec<u8>, Vec<Vec<u8>>) {
        let bundle = e.load("s").unwrap().unwrap();
        let (c, ds) = parse_bundle(&bundle).unwrap();
        (c.to_vec(), ds.into_iter().map(<[u8]>::to_vec).collect())
    }

    fn deltas(epochs: &[u8]) -> Vec<Vec<u8>> {
        epochs.iter().map(|&n| delta(n)).collect()
    }

    #[test]
    fn a_torn_newest_checkpoint_falls_back_over_reused_segments_without_replaying_leftovers() {
        let medium = Arc::new(Medium::default());
        let e = two_frame_engine(&medium);
        // Four generations: checkpoints at epochs 1, 6, 11 and 16, on
        // parities 0, 1, 0, 1. The one at 11 frees segments 0 and 1
        // (epochs 2–5, at or below the one at 6) and its deltas reuse
        // them; the one at 16 frees 2 and 3, and 17–18 reuse 2.
        store_epochs(&e, &[1, 6, 11, 16], 1..=18);
        assert_eq!(e.stats().segments_sealed, 7);
        assert_eq!(e.stats().segments_gced, 4);
        assert_eq!(e.lock_core().free, BTreeSet::from([3]));
        assert_eq!(
            medium.load(&seg_slot(4)).unwrap(),
            None,
            "four segments serve"
        );
        drop(e);
        // The checkpoint at 16 is torn: recovery falls back to 11 and
        // needs every delta after it, two of them in the head too.
        // Segment 3 still holds 9–10, which 11 supersedes.
        medium.truncate(&ckpt_slot("s", 1), 2);
        let e = two_frame_engine(&medium);
        assert_eq!(loaded(&e), (ckpt(11), deltas(&[12, 13, 14, 15, 17, 18])));
        assert_eq!(e.lock_core().seg_index[&3], vec![(10, "s".to_string())]);
    }

    #[test]
    fn a_torn_overwrite_of_a_reused_segment_loses_no_acknowledged_record() {
        for newest_torn in [false, true] {
            let medium = Arc::new(Medium::default());
            let e = two_frame_engine(&medium);
            // Checkpoints at 1, 6 and 11 (parities 0, 1, 0): the one at
            // 11 frees segments 0 and 1, and 12–13 seal into segment 0 —
            // torn one frame in, so 12 lands over 2 and 3 stays behind.
            store_epochs(&e, &[1, 6, 11], 1..=11);
            *medium.tear.lock().unwrap() = Some((seg_slot(0), FRAME));
            store_epochs(&e, &[], 12..=13);
            drop(e);
            let torn = medium.load(&seg_slot(0)).unwrap().unwrap();
            let frames = framing::scan(&torn).payloads;
            let epochs: Vec<u64> = frames.iter().map(|p| parse_record(p).unwrap().0).collect();
            assert_eq!(epochs, vec![12, 3], "the new frame, then a leftover");
            // The head still holds 12–13. With the checkpoint at 11 lost
            // too, recovery falls back to 6 and replays 7–10 from the
            // segments it never freed.
            let expected = if newest_torn {
                medium.truncate(&ckpt_slot("s", 0), 2);
                (ckpt(6), deltas(&[7, 8, 9, 10, 12, 13]))
            } else {
                (ckpt(11), deltas(&[12, 13]))
            };
            let e = two_frame_engine(&medium);
            assert_eq!(
                loaded(&e),
                expected,
                "newest checkpoint torn: {newest_torn}"
            );
        }
    }

    #[test]
    fn a_seal_into_a_free_segment_is_one_write_and_collection_is_none() {
        let medium = Arc::new(Medium::default());
        let e = two_frame_engine(&medium);
        store_epochs(&e, &[1, 6], 1..=10);
        medium.take_written();
        // The checkpoint at 11 frees segments 0 and 1: its one write is
        // all collection costs.
        e.store("s", &ckpt(11)).unwrap();
        assert_eq!(medium.take_written(), vec![ckpt_slot("s", 0)]);
        assert_eq!(e.stats().segments_gced, 2);
        // The delta that fills the head: its commit, then its seal into
        // the lowest free segment — no manifest, no head clear.
        e.store("s", &delta(12)).unwrap();
        e.store("s", &delta(13)).unwrap();
        assert_eq!(
            medium.take_written(),
            vec![
                HEAD_SLOTS[0].to_string(),
                HEAD_SLOTS[0].to_string(),
                seg_slot(0)
            ]
        );
        // 14–15 take the other free segment; 16–17 find none and grow
        // the range: segment, then manifest.
        store_epochs(&e, &[], 14..=17);
        let head = HEAD_SLOTS[0];
        let (seg1, seg4, meta) = (seg_slot(1), seg_slot(4), meta_slot(0));
        assert_eq!(
            medium.take_written(),
            [head, head, &seg1, head, head, &seg4, &meta]
        );
    }

    #[test]
    fn the_medium_stays_bounded_while_sealing_across_twenty_generations() {
        let inner = Arc::new(MemoryStorage::new());
        let config = DeltaLogConfig {
            segment_bytes: 2 * FRAME - 1,
        };
        let e = DeltaLogStorage::with_config(inner.clone(), config).unwrap();
        // Each generation: a checkpoint, then eight deltas — four seals.
        // Segments of two generations are live at most, and one more
        // generation's are being written while they free, so the medium
        // never holds more than twelve segments beside its two
        // manifests, one head and two checkpoint parities.
        let mut n = 0u8;
        for generation in 0..20 {
            e.store("s", &ckpt(n)).unwrap();
            for _ in 0..8 {
                n = n.wrapping_add(1);
                e.store("s", &delta(n)).unwrap();
            }
            assert!(
                inner.len() <= 5 + 12,
                "generation {generation}: {} slots",
                inner.len()
            );
        }
        assert_eq!(e.stats().segments_sealed, 80);
    }

    #[test]
    fn a_single_writer_journals_through_dlog_head_only() {
        let (inner, e) = engine(2 * FRAME - 1); // every second delta seals
        for generation in 0..4u8 {
            e.store("s", &ckpt(generation)).unwrap();
            for n in 0..6u8 {
                e.store("s", &delta(n)).unwrap();
            }
            e.store_all("s", &[&delta(6), &delta(7)]).unwrap();
        }
        let stats = e.stats();
        assert!(stats.segments_sealed > 0, "{stats:?}");
        assert_eq!(stats.checkpoints, 4);
        assert_eq!((stats.peak_heads_busy, stats.overlapped_commits), (1, 0));
        assert!(inner.load(HEAD_SLOTS[0]).unwrap().is_some());
        for slot in &HEAD_SLOTS[1..] {
            assert_eq!(inner.load(slot).unwrap(), None, "one writer wrote {slot}");
        }
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
    fn a_same_slot_record_stays_queued_while_its_slot_commits_on_any_head() {
        let store = Arc::new(GatedStore::default());
        let gates: Vec<_> = HEAD_SLOTS[..3].iter().map(|h| store.gate(h)).collect();
        let e = Arc::new(DeltaLogStorage::open(store).unwrap());
        for slot in ["a", "b", "c"] {
            e.store(slot, &ckpt(0)).unwrap();
        }
        // "a", "b" and "c" commit on heads 0, 1 and 2, all three held.
        let mut threads = Vec::new();
        for ((slot, n), (entered, _)) in [("a", 1), ("b", 2), ("c", 3)].into_iter().zip(&gates) {
            threads.push(store_on_a_thread(&e, slot, delta(n)));
            entered.recv().unwrap();
        }
        // Head 3 is free, but "a" is on head 0: the record waits, however
        // far from the free head its slot's commit is.
        threads.push(store_on_a_thread(&e, "a", delta(4)));
        let core = await_parked(&e, 1);
        let queued = (core.queue.len(), core.heads[3].busy);
        drop(core);
        // Failing here drops the gates, which lets every held write through.
        assert_eq!(queued, (1, false), "a slot was on two heads at once");
        gates[0].1.send(true).unwrap(); // "a"'s first commit publishes…
        gates[0].0.recv().unwrap(); // …and its second takes head 0 again
        for (_, release) in &gates {
            release.send(true).unwrap();
        }
        for (thread, done) in threads {
            thread.join().unwrap();
            done.recv().unwrap().unwrap();
        }
        let bundle = e.load("a").unwrap().unwrap();
        assert_eq!(
            parse_bundle(&bundle).unwrap().1,
            vec![&delta(1)[..], &delta(4)[..]]
        );
        let stats = e.stats();
        assert_eq!((stats.group_commits, stats.peak_heads_busy), (4, 3));
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
    fn a_torn_last_frame_of_a_plain_slot_loads_as_checkpoint_and_intact_deltas() {
        let inner = Arc::new(MemoryStorage::new());
        let bundle = make_bundle(&ckpt(1), [&delta(2)[..], &delta(3)[..]].into_iter());
        inner.store("s", &bundle[..bundle.len() - 3]).unwrap();
        let e = DeltaLogStorage::open(inner.clone()).unwrap();
        let got = e.load("s").unwrap().unwrap();
        assert_eq!(
            parse_bundle(&got),
            Some((&ckpt(1)[..], vec![&delta(2)[..]]))
        );
        // The next delta adopts the intact prefix, not the torn bytes.
        e.store("s", &delta(4)).unwrap();
        let got = e.load("s").unwrap().unwrap();
        assert_eq!(
            parse_bundle(&got).unwrap().1,
            vec![&delta(2)[..], &delta(4)[..]]
        );

        // A torn checkpoint frame has nothing to fall back to: the
        // enclave sees (and refuses) the bytes as they are.
        let torn = &bundle[..1 + framing::FRAME_HEADER + 4];
        inner.store("t", torn).unwrap();
        assert_eq!(e.load("t").unwrap().unwrap(), torn);
    }

    #[test]
    fn a_closed_engine_refuses_records_until_reopen_reads_the_medium_as_it_is_now() {
        let (inner, first) = engine(1 << 20);
        first.store("s", &ckpt(1)).unwrap();
        first.store("s", &delta(2)).unwrap();
        let e = DeltaLogStorage::closed(inner.clone(), DeltaLogConfig::default());
        assert!(e.store("s", &delta(3)).is_err());
        assert!(e.store("s", &ckpt(3)).is_err());
        e.reopen().unwrap();
        e.store("s", &delta(3)).unwrap();
        // The medium moves underneath (another engine writes it): a
        // reopen forgets what this one remembered and loads what is
        // there now.
        first.store("s", &ckpt(4)).unwrap();
        assert_eq!(
            parse_bundle(&e.load("s").unwrap().unwrap())
                .unwrap()
                .1
                .len(),
            2
        );
        e.reopen().unwrap();
        assert_eq!(e.load("s").unwrap().unwrap(), ckpt(4));
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// `load` frames the bundle in the buffer it read the
        /// checkpoint into, and what it hands up is byte for byte
        /// `make_bundle` of the same checkpoint and deltas: for any two
        /// checkpoint generations, any run of deltas after each (none:
        /// the bare checkpoint), any segment size, and after the newest
        /// checkpoint's parity is torn (the previous one serves, with
        /// every delta since it).
        #[test]
        fn load_frames_make_bundles_bytes_in_the_buffer_it_read(
            older in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=600),
            newer in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=600),
            before in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=64),
                0..=6,
            ),
            after in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=64),
                0..=6,
            ),
            segment_bytes in 32usize..=512,
            tear in proptest::prelude::any::<bool>(),
        ) {
            let blob = |kind: u8, body: &[u8]| [&[kind][..], body].concat();
            let (older, newer) = (blob(BLOB_KIND_CHECKPOINT, &older), blob(BLOB_KIND_CHECKPOINT, &newer));
            let before: Vec<_> = before.iter().map(|d| blob(BLOB_KIND_DELTA, d)).collect();
            let after: Vec<_> = after.iter().map(|d| blob(BLOB_KIND_DELTA, d)).collect();
            let expected = |ckpt: &[u8], deltas: &[&Vec<u8>]| match deltas {
                [] => ckpt.to_vec(),
                _ => make_bundle(ckpt, deltas.iter().map(|d| d.as_slice())),
            };
            let (inner, e) = engine(segment_bytes);
            for b in std::iter::once(&older).chain(&before).chain([&newer]).chain(&after) {
                e.store("s", b).unwrap();
            }
            let loaded = e.load("s").unwrap().unwrap();
            proptest::prop_assert_eq!(loaded, expected(&newer, &after.iter().collect::<Vec<_>>()));
            if tear {
                drop(e);
                let newest = ckpt_slot("s", 1);
                let mut torn = inner.load(&newest).unwrap().unwrap();
                torn.pop();
                inner.store(&newest, &torn).unwrap();
                let config = DeltaLogConfig { segment_bytes };
                let e = DeltaLogStorage::with_config(inner, config).unwrap();
                let since_older: Vec<_> = before.iter().chain(&after).collect();
                proptest::prop_assert_eq!(e.load("s").unwrap().unwrap(), expected(&older, &since_older));
            }
        }
    }
}
