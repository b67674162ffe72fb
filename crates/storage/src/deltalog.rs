//! The segmented sealed delta-log storage engine.
//!
//! Whole-snapshot persistence seals and stores the *entire* service
//! state on every batch, so total state size bounds throughput — the
//! bottleneck the paper's asynchronous-write mode hides but does not
//! remove. [`DeltaLogStorage`] removes it: the enclave emits small
//! sealed *deltas* per batch, and this engine journals them into an
//! append-style segmented log over any inner [`StableStorage`], with
//!
//! * a **group-commit writer** — concurrent delta stores from many
//!   shards'/replicas' lanes are drained into one inner write (one
//!   modelled fsync) by whichever caller wins the committer role, the
//!   rest blocking until their record is durable;
//! * **sealed segments** — the active journal head is sealed into an
//!   immutable segment once it reaches
//!   [`DeltaLogConfig::segment_bytes`];
//! * **compaction** — a sealed checkpoint store supersedes the slot's
//!   older deltas; fully superseded segments are garbage-collected from
//!   the low end of the log;
//! * **recovery** — reopening scans checkpoints + segments + head,
//!   truncates any torn head tail at the last intact frame
//!   ([`crate::framing`]), and replays the surviving records in epoch
//!   order.
//!
//! The engine never opens a seal: deltas and checkpoints are opaque
//! ciphertexts that it routes by a one-byte *kind* prefix the enclave
//! places in front of every blob. On `load` it reassembles
//! `checkpoint ‖ deltas` into a *bundle* the enclave unseals and
//! re-verifies delta by delta against its hash chain — a host that
//! reorders, drops, or splices journal records is detected exactly like
//! any other rollback/forking attempt.
//!
//! Crash-safety invariants (exercised by the recovery proptests in
//! `tests/storage_torture.rs`):
//!
//! 1. every record is tagged with a monotone *epoch*, so replaying a
//!    prefix of inner writes — in any order the host flushed them —
//!    recovers a *prefix* of the committed history;
//! 2. checkpoints alternate between two parity slots and deltas are
//!    GC-eligible only one checkpoint generation late, so a torn
//!    checkpoint overwrite always leaves the previous checkpoint plus
//!    the deltas needed to reach (at least) its state;
//! 3. the manifest is written before any checkpoint that would make a
//!    new slot discoverable, and before the head is cleared when a
//!    segment seals, so no acknowledged record is ever unreachable.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use crate::framing;
use crate::{Result, StableStorage, StorageError};

/// Kind byte of a blob the engine must not interpret (sealed key
/// blobs, foreign slots): stored and loaded verbatim.
pub const BLOB_KIND_OPAQUE: u8 = 0;
/// Kind byte of a sealed full-state checkpoint.
pub const BLOB_KIND_CHECKPOINT: u8 = 1;
/// Kind byte of a sealed per-batch delta.
pub const BLOB_KIND_DELTA: u8 = 2;
/// Kind byte of an engine-assembled recovery bundle:
/// `[3] ‖ frame(checkpoint) ‖ frame(delta)…` ([`parse_bundle`]).
pub const BLOB_KIND_BUNDLE: u8 = 3;

/// Slot holding the active (unsealed) journal segment.
const HEAD_SLOT: &str = "dlog.head";

fn seg_slot(k: u64) -> String {
    format!("dlog.seg.{k:08}")
}

fn meta_slot(parity: u8) -> String {
    format!("dlog.meta.{parity}")
}

fn ckpt_slot(slot: &str, parity: u8) -> String {
    format!("dlog.ckpt.{parity}.{slot}")
}

/// Splits an engine-assembled bundle blob into its checkpoint frame
/// and delta frames. Returns `None` unless the blob has the bundle
/// kind byte, at least one frame, and **no** trailing bytes — a
/// tampered bundle must not parse.
pub fn parse_bundle(blob: &[u8]) -> Option<(&[u8], Vec<&[u8]>)> {
    let body = match blob.split_first() {
        Some((&BLOB_KIND_BUNDLE, body)) => body,
        _ => return None,
    };
    let scanned = framing::scan(body);
    if scanned.valid_len != body.len() || scanned.payloads.is_empty() {
        return None;
    }
    let mut frames = scanned.payloads.into_iter();
    let checkpoint = frames.next().expect("non-empty");
    Some((checkpoint, frames.collect()))
}

/// Assembles a recovery bundle from a checkpoint blob and delta blobs
/// (the inverse of [`parse_bundle`]; public so tests can fabricate
/// bundles without an engine).
pub fn make_bundle<'a>(checkpoint: &[u8], deltas: impl Iterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut bundle = vec![BLOB_KIND_BUNDLE];
    framing::append_frame(&mut bundle, checkpoint);
    for d in deltas {
        framing::append_frame(&mut bundle, d);
    }
    bundle
}

/// Tuning knobs for [`DeltaLogStorage`].
#[derive(Debug, Clone, Copy)]
pub struct DeltaLogConfig {
    /// Seal the journal head into an immutable segment once it reaches
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
    /// Inner writes of the journal head — each one is a group commit
    /// covering every record drained that round.
    pub group_commits: u64,
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
    /// what `load` appends to the checkpoint frame.
    deltas: BTreeMap<u64, Vec<u8>>,
    /// A checkpoint of this slot is being written with the core lock
    /// released; the next one waits, because the parity it may
    /// overwrite is whichever this one does not publish.
    ckpt_in_flight: bool,
}

struct Core {
    /// Records enqueued for the next group commit.
    queue: Vec<(u64, String, Vec<u8>)>,
    next_epoch: u64,
    /// Highest epoch whose commit round has finished (ok or failed).
    committed_epoch: u64,
    /// Whether a committer is currently writing the head.
    committing: bool,
    /// Epoch ranges whose commit round hit an inner store error.
    failed: Vec<(u64, u64, String)>,
    /// In-memory mirror of the durable journal head.
    head_buf: Vec<u8>,
    /// (epoch, slot) of every record in the head.
    head_index: Vec<(u64, String)>,
    seg_lo: u64,
    seg_next: u64,
    /// (epoch, slot) of every record per sealed segment.
    seg_index: BTreeMap<u64, Vec<(u64, String)>>,
    meta_gen: u64,
    meta_parity: u8,
    slots: HashMap<String, SlotState>,
    stats: DeltaLogStats,
}

/// The segmented sealed delta-log engine. See the module docs.
///
/// Wrap it once around the *root* storage of a deployment: slot names
/// arriving from per-shard/per-replica [`crate::NamespacedStorage`]
/// layers stay distinct, so one engine instance journals every lane —
/// which is what lets the group-commit writer amortize one inner write
/// across all of them.
pub struct DeltaLogStorage {
    inner: Arc<dyn StableStorage>,
    config: DeltaLogConfig,
    core: Mutex<Core>,
    /// Signalled when a group commit finishes and when a checkpoint
    /// publishes: everything a caller can block on.
    commit_done: Condvar,
}

impl std::fmt::Debug for DeltaLogStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let core = self.lock_core();
        f.debug_struct("DeltaLogStorage")
            .field("segments", &(core.seg_lo..core.seg_next))
            .field("head_bytes", &core.head_buf.len())
            .field("slots", &core.slots.len())
            .field("stats", &core.stats)
            .finish()
    }
}

fn encode_record(epoch: u64, slot: &str, blob: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 4 + slot.len() + blob.len());
    out.extend_from_slice(&epoch.to_be_bytes());
    out.extend_from_slice(&(slot.len() as u32).to_be_bytes());
    out.extend_from_slice(slot.as_bytes());
    out.extend_from_slice(blob);
    out
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

fn encode_ckpt(epoch: u64, blob: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + blob.len());
    payload.extend_from_slice(&epoch.to_be_bytes());
    payload.extend_from_slice(blob);
    let mut framed = Vec::new();
    framing::append_frame(&mut framed, &payload);
    framed
}

fn parse_ckpt(buf: &[u8]) -> Option<(u64, Vec<u8>)> {
    let scanned = framing::scan(buf);
    if scanned.valid_len != buf.len() {
        return None; // a torn checkpoint overwrite is invalid wholesale
    }
    let payload = *scanned.payloads.first()?;
    let epoch = u64::from_be_bytes(payload.get(..8)?.try_into().ok()?);
    Some((epoch, payload.get(8..)?.to_vec()))
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
            queue: Vec::new(),
            next_epoch: 1,
            committed_epoch: 0,
            committing: false,
            failed: Vec::new(),
            head_buf: Vec::new(),
            head_index: Vec::new(),
            seg_lo: 0,
            seg_next: 0,
            seg_index: BTreeMap::new(),
            meta_gen: 0,
            meta_parity: 0,
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

        // Sealed segments, then the head: collect records by epoch.
        let mut records: BTreeMap<u64, (String, Vec<u8>)> = BTreeMap::new();
        for k in core.seg_lo..core.seg_next {
            let Some(buf) = inner.load(&seg_slot(k))? else {
                continue; // GC'd before a manifest update landed
            };
            if buf.is_empty() {
                continue;
            }
            let scanned = framing::scan(&buf);
            if scanned.is_torn(buf.len()) {
                core.stats.torn_truncations += 1;
            }
            let mut index = Vec::new();
            for payload in scanned.payloads {
                if let Some((epoch, slot, blob)) = parse_record(payload) {
                    index.push((epoch, slot.to_string()));
                    records.insert(epoch, (slot.to_string(), blob.to_vec()));
                }
            }
            core.seg_index.insert(k, index);
        }
        if let Some(buf) = inner.load(HEAD_SLOT)? {
            let scanned = framing::scan(&buf);
            if scanned.is_torn(buf.len()) {
                core.stats.torn_truncations += 1;
            }
            for payload in &scanned.payloads {
                if let Some((epoch, slot, blob)) = parse_record(payload) {
                    core.head_index.push((epoch, slot.to_string()));
                    records.insert(epoch, (slot.to_string(), blob.to_vec()));
                }
            }
            core.head_buf = buf[..scanned.valid_len].to_vec();
        }

        for (epoch, (slot, blob)) in records {
            max_epoch = max_epoch.max(epoch);
            let state = core.slots.entry(slot).or_default();
            if epoch > state.ckpt_epoch.unwrap_or(0) {
                state.deltas.insert(epoch, blob);
            }
        }
        core.next_epoch = max_epoch + 1;
        core.committed_epoch = max_epoch;

        Ok(DeltaLogStorage {
            inner,
            config,
            core: Mutex::new(core),
            commit_done: Condvar::new(),
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

    /// Writes the manifest to the non-current parity slot with the
    /// given segment window; on success flips the current parity.
    fn write_meta(&self, core: &mut Core, seg_lo: u64, seg_next: u64) -> Result<()> {
        let gen = core.meta_gen + 1;
        let parity = core.meta_parity ^ 1;
        let slots: Vec<&String> = core.slots.keys().collect();
        let buf = encode_meta(gen, seg_lo, seg_next, &slots);
        self.inner.store(&meta_slot(parity), &buf)?;
        core.meta_gen = gen;
        core.meta_parity = parity;
        Ok(())
    }

    /// Seals the head into an immutable segment if it is full. Best
    /// effort: a failed inner write leaves the head in place (records
    /// stay durable there) and sealing retries at the next commit.
    fn maybe_seal(&self, core: &mut Core) {
        if core.head_buf.len() < self.config.segment_bytes {
            return;
        }
        let k = core.seg_next;
        if self.inner.store(&seg_slot(k), &core.head_buf).is_err() {
            return;
        }
        // The manifest must cover the segment before the head may be
        // cleared, or a crash between the two writes would orphan every
        // record in it.
        if self.write_meta(core, core.seg_lo, k + 1).is_err() {
            return;
        }
        let _ = self.inner.store(HEAD_SLOT, &[]); // dup records dedupe by epoch
        let index = std::mem::take(&mut core.head_index);
        core.seg_index.insert(k, index);
        core.seg_next = k + 1;
        core.head_buf.clear();
        core.stats.segments_sealed += 1;
    }

    /// Takes the fully superseded segments off the low end of the log
    /// window, returning their numbers for the caller to clear on the
    /// medium. A manifest written before they are cleared merely stops
    /// naming segments no recovery needs.
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

    /// The group-commit path: enqueue, then either win the committer
    /// role and drain everything pending into one inner head write, or
    /// block until a committer covered our epoch.
    fn store_delta(&self, slot: &str, blob: &[u8]) -> Result<()> {
        let mut core = self.lock_core();
        let epoch = core.next_epoch;
        core.next_epoch += 1;
        core.queue.push((epoch, slot.to_string(), blob.to_vec()));
        loop {
            if let Some(msg) = core
                .failed
                .iter()
                .find(|&&(lo, hi, _)| (lo..=hi).contains(&epoch))
                .map(|(_, _, m)| m.clone())
            {
                return Err(StorageError::Io(std::io::Error::other(format!(
                    "group commit failed: {msg}"
                ))));
            }
            if core.committed_epoch >= epoch {
                return Ok(());
            }
            if !core.committing {
                core.committing = true;
                let batch = std::mem::take(&mut core.queue);
                let first = batch.first().map(|r| r.0).unwrap_or(epoch);
                let last = batch.last().map(|r| r.0).unwrap_or(epoch);
                // The head mirror leaves the core for the write (only
                // the committer touches it) and grows in place; a failed
                // write cuts it back to the records acknowledged so far.
                let mut buf = std::mem::take(&mut core.head_buf);
                let durable_len = buf.len();
                for (e, s, b) in &batch {
                    framing::append_frame(&mut buf, &encode_record(*e, s, b));
                }
                // One inner write covers the whole drained batch; the
                // lock is released so more lanes can enqueue meanwhile.
                drop(core);
                let written = self.inner.store(HEAD_SLOT, &buf);
                if written.is_err() {
                    buf.truncate(durable_len);
                }
                core = self.lock_core();
                core.head_buf = buf;
                core.committing = false;
                core.committed_epoch = last;
                match written {
                    Ok(()) => {
                        core.stats.group_commits += 1;
                        core.stats.records_appended += batch.len() as u64;
                        for (e, s, b) in batch {
                            core.head_index.push((e, s.clone()));
                            core.slots.entry(s).or_default().deltas.insert(e, b);
                        }
                        self.maybe_seal(&mut core);
                    }
                    Err(e) => core.failed.push((first, last, e.to_string())),
                }
                self.commit_done.notify_all();
                continue;
            }
            core = self
                .commit_done
                .wait(core)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The compaction path: a checkpoint supersedes the slot's deltas.
    ///
    /// The O(state) checkpoint write and the per-segment clears of the
    /// garbage collection that follows run with the core lock
    /// *released* — every lane of the deployment group-commits through
    /// that lock, and one lane's compaction must not stall the rest.
    /// Epoch and parity are reserved under the lock before the write
    /// and the result is published under it after.
    fn store_checkpoint(&self, slot: &str, blob: &[u8]) -> Result<()> {
        let mut core = self.lock_core();
        while core.slots.get(slot).is_some_and(|s| s.ckpt_in_flight) {
            core = self
                .commit_done
                .wait(core)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let epoch = core.next_epoch;
        core.next_epoch += 1;
        if !core.slots.contains_key(slot) {
            // The slot must be discoverable before its first checkpoint
            // lands, or a crash in between loses it entirely.
            core.slots.insert(slot.to_string(), SlotState::default());
            let (lo, next) = (core.seg_lo, core.seg_next);
            if let Err(e) = self.write_meta(&mut core, lo, next) {
                core.slots.remove(slot);
                return Err(e);
            }
        }
        let state = core.slots.get_mut(slot).expect("inserted above");
        let parity = match state.ckpt_epoch {
            Some(_) => state.ckpt_parity ^ 1,
            None => 0,
        };
        state.ckpt_in_flight = true;
        drop(core);

        let written = self
            .inner
            .store(&ckpt_slot(slot, parity), &encode_ckpt(epoch, blob));

        let mut core = self.lock_core();
        let state = core
            .slots
            .get_mut(slot)
            .expect("slots are never removed once discoverable");
        state.ckpt_in_flight = false;
        self.commit_done.notify_all();
        written?;
        state.prev_ckpt_epoch = state.ckpt_epoch.unwrap_or(0);
        state.ckpt_epoch = Some(epoch);
        state.ckpt_parity = parity;
        state.deltas = state.deltas.split_off(&(epoch + 1));
        core.stats.checkpoints += 1;
        let superseded = Self::take_superseded(&mut core);
        if superseded.is_empty() {
            return Ok(());
        }
        drop(core);

        for k in superseded {
            let _ = self.inner.store(&seg_slot(k), &[]);
        }

        let mut core = self.lock_core();
        let (lo, next) = (core.seg_lo, core.seg_next);
        let _ = self.write_meta(&mut core, lo, next);
        Ok(())
    }
}

impl StableStorage for DeltaLogStorage {
    fn store(&self, slot: &str, blob: &[u8]) -> Result<()> {
        match blob.first() {
            Some(&BLOB_KIND_DELTA) => self.store_delta(slot, blob),
            Some(&BLOB_KIND_CHECKPOINT) => self.store_checkpoint(slot, blob),
            _ => self.inner.store(slot, blob),
        }
    }

    fn load(&self, slot: &str) -> Result<Option<Vec<u8>>> {
        let (parity, deltas) = {
            let core = self.lock_core();
            let Some(state) = core.slots.get(slot) else {
                drop(core);
                return self.inner.load(slot);
            };
            if state.ckpt_epoch.is_none() {
                drop(core);
                return self.inner.load(slot);
            }
            (
                state.ckpt_parity,
                state.deltas.values().cloned().collect::<Vec<_>>(),
            )
        };
        let Some(buf) = self.inner.load(&ckpt_slot(slot, parity))? else {
            return Ok(None);
        };
        let Some((_, ckpt_blob)) = parse_ckpt(&buf) else {
            return Ok(None);
        };
        if deltas.is_empty() {
            return Ok(Some(ckpt_blob));
        }
        Ok(Some(make_bundle(
            &ckpt_blob,
            deltas.iter().map(Vec::as_slice),
        )))
    }

    fn delta_capable(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DelayedStorage, MemoryStorage};
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
        let mut head = inner.load(HEAD_SLOT).unwrap().unwrap();
        head.truncate(head.len() - 3);
        inner.store(HEAD_SLOT, &head).unwrap();
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

    /// A plain store whose checkpoint-slot writes announce themselves
    /// and then block until released.
    struct GatedCheckpoints {
        inner: MemoryStorage,
        entered: Mutex<std::sync::mpsc::Sender<()>>,
        release: Mutex<std::sync::mpsc::Receiver<()>>,
    }

    impl StableStorage for GatedCheckpoints {
        fn store(&self, slot: &str, blob: &[u8]) -> Result<()> {
            if slot.starts_with("dlog.ckpt.") {
                self.entered.lock().unwrap().send(()).unwrap();
                self.release.lock().unwrap().recv().unwrap();
            }
            self.inner.store(slot, blob)
        }
        fn load(&self, slot: &str) -> Result<Option<Vec<u8>>> {
            self.inner.load(slot)
        }
    }

    #[test]
    fn a_checkpoint_write_does_not_hold_up_another_slots_delta() {
        use std::sync::mpsc::channel;
        let (entered_tx, entered) = channel();
        let (release, release_rx) = channel();
        let e = Arc::new(
            DeltaLogStorage::open(Arc::new(GatedCheckpoints {
                inner: MemoryStorage::new(),
                entered: Mutex::new(entered_tx),
                release: Mutex::new(release_rx),
            }))
            .unwrap(),
        );
        let checkpointer = {
            let e = e.clone();
            std::thread::spawn(move || e.store("a", &ckpt(1)))
        };
        entered.recv().unwrap(); // "a"'s checkpoint is inside the inner write
        let (done_tx, done) = channel();
        let other_lane = {
            let e = e.clone();
            std::thread::spawn(move || done_tx.send(e.store("b", &delta(2))).unwrap())
        };
        let outcome = done.recv_timeout(Duration::from_secs(10));
        release.send(()).unwrap(); // before any assert: never leave a thread gated
        checkpointer.join().unwrap().unwrap();
        other_lane.join().unwrap();
        outcome
            .expect("the delta waited for another slot's checkpoint write")
            .unwrap();
        assert_eq!(e.load("a").unwrap().unwrap(), ckpt(1));
        assert_eq!(e.stats().records_appended, 1);
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
}
