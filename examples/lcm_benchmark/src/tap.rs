//! A bench-owned [`StableStorage`] decorator: counts and times every
//! `store`/`load` crossing it and, on the traced run, records a span
//! per call. One tap sits where the lanes write (above the delta log)
//! and one on the device (below it), so the engine's cost and write
//! amplification are the difference between the two.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lcm::core::server::SLOT_STATE_BLOB;
use lcm::storage::{StableStorage, BLOB_KIND_CHECKPOINT};

use crate::trace::{Layer, Parent, Tracer};

thread_local! {
    /// The lane-level store span open on this thread, so the device
    /// tap can parent the writes the engine issues underneath it.
    static OPEN_LANE_STORE: Cell<u32> = const { Cell::new(0) };
}

/// Monotone counters; the harness diffs two [`Tap::snapshot`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct TapCounts {
    pub stores: u64,
    pub store_bytes: u64,
    pub store_ns: u64,
    pub loads: u64,
    pub load_ns: u64,
    /// Stores into a lane's sealed-state slot (one per persisted batch).
    pub state_stores: u64,
    pub state_store_ns: u64,
    /// Stores whose blob is a full checkpoint.
    pub checkpoint_stores: u64,
    /// Follower applies of a replicated batch: state stores that follow
    /// the leader's blob being lifted off its slot.
    pub applies: u64,
    pub apply_ns: u64,
    pub apply_bytes: u64,
}

impl TapCounts {
    pub fn since(&self, earlier: &TapCounts) -> TapCounts {
        TapCounts {
            stores: self.stores - earlier.stores,
            store_bytes: self.store_bytes - earlier.store_bytes,
            store_ns: self.store_ns - earlier.store_ns,
            loads: self.loads - earlier.loads,
            load_ns: self.load_ns - earlier.load_ns,
            state_stores: self.state_stores - earlier.state_stores,
            state_store_ns: self.state_store_ns - earlier.state_store_ns,
            checkpoint_stores: self.checkpoint_stores - earlier.checkpoint_stores,
            applies: self.applies - earlier.applies,
            apply_ns: self.apply_ns - earlier.apply_ns,
            apply_bytes: self.apply_bytes - earlier.apply_bytes,
        }
    }
}

#[derive(Default)]
struct Atomics {
    stores: AtomicU64,
    store_bytes: AtomicU64,
    store_ns: AtomicU64,
    loads: AtomicU64,
    load_ns: AtomicU64,
    state_stores: AtomicU64,
    state_store_ns: AtomicU64,
    checkpoint_stores: AtomicU64,
    applies: AtomicU64,
    apply_ns: AtomicU64,
    apply_bytes: AtomicU64,
}

#[derive(Default)]
struct SlotInfo {
    /// Size of the blob currently visible under the slot.
    bytes: usize,
    /// Stores the slot has seen (per-member batch counts on
    /// replicated workloads).
    stores: u64,
}

pub struct Tap {
    inner: Arc<dyn StableStorage>,
    store_layer: Layer,
    load_layer: Layer,
    tracer: Arc<Tracer>,
    counts: Atomics,
    slots: Mutex<HashMap<String, SlotInfo>>,
    /// Replication bookkeeping: a `ReplicaGroup` lifts the leader's
    /// sealed state off its slot, then each follower's apply ends in a
    /// store to that follower's own state slot. Holds the slot the
    /// blob was last lifted from and when the previous step of that
    /// hand-over chain ended.
    lifted: Mutex<Option<(String, Instant)>>,
    /// Which state stores (by ordinal since the tap was made) carried
    /// a full checkpoint. A single lane persists one state blob per
    /// executed batch, in order, so the ordinal names the `step` that
    /// sealed it.
    checkpoint_ordinals: Mutex<Vec<u64>>,
}

impl Tap {
    /// A tap where the lanes write.
    pub fn lane(inner: Arc<dyn StableStorage>, tracer: Arc<Tracer>) -> Self {
        Self::new(inner, Layer::LaneStore, Layer::LaneLoad, tracer)
    }

    /// A tap on the device.
    pub fn device(inner: Arc<dyn StableStorage>, tracer: Arc<Tracer>) -> Self {
        Self::new(inner, Layer::DeviceStore, Layer::DeviceLoad, tracer)
    }

    fn new(
        inner: Arc<dyn StableStorage>,
        store_layer: Layer,
        load_layer: Layer,
        tracer: Arc<Tracer>,
    ) -> Self {
        Tap {
            inner,
            store_layer,
            load_layer,
            tracer,
            counts: Atomics::default(),
            slots: Mutex::new(HashMap::new()),
            lifted: Mutex::new(None),
            checkpoint_ordinals: Mutex::new(Vec::new()),
        }
    }

    pub fn snapshot(&self) -> TapCounts {
        let c = &self.counts;
        let get = |a: &AtomicU64| a.load(Ordering::SeqCst);
        TapCounts {
            stores: get(&c.stores),
            store_bytes: get(&c.store_bytes),
            store_ns: get(&c.store_ns),
            loads: get(&c.loads),
            load_ns: get(&c.load_ns),
            state_stores: get(&c.state_stores),
            state_store_ns: get(&c.state_store_ns),
            checkpoint_stores: get(&c.checkpoint_stores),
            applies: get(&c.applies),
            apply_ns: get(&c.apply_ns),
            apply_bytes: get(&c.apply_bytes),
        }
    }

    /// Bytes currently visible on the medium below this tap.
    pub fn space_bytes(&self) -> u64 {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots.values().map(|s| s.bytes as u64).sum()
    }

    /// Copies every slot written through this tap — the stale image a
    /// rollback attack serves later.
    pub fn image(&self) -> Vec<(String, Vec<u8>)> {
        let names: Vec<String> = {
            let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
            slots.keys().cloned().collect()
        };
        names
            .into_iter()
            .filter_map(|slot| {
                let blob = self.inner.load(&slot).ok()??;
                Some((slot, blob))
            })
            .collect()
    }

    /// How many batches the slowest member's state slot trails the
    /// most-written one by (replicated workloads; 0 elsewhere).
    pub fn state_slot_lag(&self) -> u64 {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let per_member: Vec<u64> = slots
            .iter()
            .filter(|(slot, _)| slot.ends_with(SLOT_STATE_BLOB) && slot.contains(".rep"))
            .map(|(_, s)| s.stores)
            .collect();
        match (per_member.iter().max(), per_member.iter().min()) {
            (Some(max), Some(min)) => max - min,
            _ => 0,
        }
    }

    /// Drains the ordinals of the state stores that were checkpoints.
    pub fn take_checkpoint_ordinals(&self) -> Vec<u64> {
        std::mem::take(
            &mut *self
                .checkpoint_ordinals
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        )
    }

    fn parent(&self) -> Option<Parent> {
        if self.store_layer == Layer::DeviceStore {
            let open = OPEN_LANE_STORE.with(Cell::get);
            if open != 0 {
                return Some(Parent {
                    id: open,
                    layer: Layer::LaneStore,
                });
            }
        }
        self.tracer.enclosing_step()
    }

    fn note_replication(&self, slot: &str, bytes: usize, end: Instant) {
        let mut lifted = self.lifted.lock().unwrap_or_else(|e| e.into_inner());
        let Some((lifted_from, since)) = lifted.take() else {
            return;
        };
        if lifted_from == slot {
            // The leader persisting its next batch: the hand-over
            // chain of the previous one is over.
            return;
        }
        let c = &self.counts;
        c.applies.fetch_add(1, Ordering::SeqCst);
        c.apply_bytes.fetch_add(bytes as u64, Ordering::SeqCst);
        c.apply_ns.fetch_add(
            end.saturating_duration_since(since).as_nanos() as u64,
            Ordering::SeqCst,
        );
        *lifted = Some((lifted_from, end));
    }
}

impl StableStorage for Tap {
    fn store(&self, slot: &str, blob: &[u8]) -> lcm::storage::Result<()> {
        let tracing = self.tracer.is_on();
        let is_state = slot.ends_with(SLOT_STATE_BLOB);
        let is_checkpoint = is_state && blob.first() == Some(&BLOB_KIND_CHECKPOINT);
        let (id, parent) = if tracing {
            (self.tracer.next_id(), self.parent())
        } else {
            (0, None)
        };
        let lane_level = self.store_layer == Layer::LaneStore;
        let start = Instant::now();
        if tracing && lane_level {
            OPEN_LANE_STORE.with(|c| c.set(id));
        }
        let outcome = self.inner.store(slot, blob);
        if tracing && lane_level {
            OPEN_LANE_STORE.with(|c| c.set(0));
        }
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;

        let c = &self.counts;
        c.stores.fetch_add(1, Ordering::SeqCst);
        c.store_bytes.fetch_add(blob.len() as u64, Ordering::SeqCst);
        c.store_ns.fetch_add(ns, Ordering::SeqCst);
        if is_state {
            let ordinal = c.state_stores.fetch_add(1, Ordering::SeqCst);
            if is_checkpoint {
                self.checkpoint_ordinals
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(ordinal);
            }
            c.state_store_ns.fetch_add(ns, Ordering::SeqCst);
            self.note_replication(slot, blob.len(), end);
        }
        if is_checkpoint {
            c.checkpoint_stores.fetch_add(1, Ordering::SeqCst);
        }
        {
            let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
            let info = slots.entry(slot.to_string()).or_default();
            info.bytes = blob.len();
            info.stores += 1;
        }
        if tracing {
            self.tracer
                .record_server_side(self.store_layer, id, start, end, parent);
        }
        outcome
    }

    fn load(&self, slot: &str) -> lcm::storage::Result<Option<Vec<u8>>> {
        let tracing = self.tracer.is_on();
        let start = Instant::now();
        let outcome = self.inner.load(slot);
        let end = Instant::now();
        let c = &self.counts;
        c.loads.fetch_add(1, Ordering::SeqCst);
        c.load_ns.fetch_add(
            end.duration_since(start).as_nanos() as u64,
            Ordering::SeqCst,
        );
        if slot.ends_with(SLOT_STATE_BLOB) && slot.contains(".rep") {
            let mut lifted = self.lifted.lock().unwrap_or_else(|e| e.into_inner());
            *lifted = Some((slot.to_string(), end));
        }
        if tracing {
            let id = self.tracer.next_id();
            self.tracer
                .record_server_side(self.load_layer, id, start, end, self.parent());
        }
        outcome
    }

    fn delta_capable(&self) -> bool {
        self.inner.delta_capable()
    }
}
