//! Heap bytes a reboot allocates, as a fixed multiple of the sealed
//! state it loads: a crashed one-lane `KvStore` deployment holding
//! [`RECORDS`] records and at least [`MIN_DELTAS`] journaled deltas
//! boots — the engine reads the checkpoint and frames the recovery
//! bundle, the host encodes the `Init` call, the enclave opens the
//! checkpoint, rebuilds the store and replays every delta — allocating
//! at most [`BOOT_BUDGET`] times the bytes its state slot loads,
//! counted on every thread by this binary's own global allocator.
//!
//! The multiple holds each whole-state transfer to one buffer: an
//! `Init` buffer grown past the state it carries adds two states' bytes
//! and fails it. A reallocation counts at its new size, so the bundle
//! the engine frames in the buffer it read counts as one buffer, as a
//! copy would. It also prints the boot's allocation count, which a
//! delta opened in a fresh buffer instead of the context's reused one
//! raises by one per replayed delta. The binary holds this one test:
//! the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lcm::client::LcmClient;
use lcm::core::codec::WireCodec;
use lcm::core::server::{BatchServer, SLOT_STATE_BLOB};
use lcm::core::types::ClientId;
use lcm::deployment::DeploymentBuilder;
use lcm::kvs::ops::KvOp;
use lcm::kvs::store::KvStore;
use lcm::storage::{parse_bundle, DeltaLogStorage, MemoryStorage, StableStorage};

/// The most heap bytes a boot may allocate, per byte of the state blob
/// it loads. A boot that grows its `Init` call past the state and opens
/// each delta into a fresh buffer reads ≈ 7.5 here; one whose call
/// ends with the state, so it grows once, reads ≈ 5.2.
const BOOT_BUDGET: f64 = 5.5;

const RECORDS: u64 = 10_000;
const MIN_DELTAS: usize = 100;
const CLIENTS: u32 = 16;
const BATCH: usize = 16;
const VALUE_LEN: usize = 100;

/// Counts every allocation and reallocation with the bytes it asks
/// for, then defers to the system allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The lane's store: the engine as it is, noting the length and the
/// journaled deltas of the last state blob it handed up.
struct StateTap {
    engine: DeltaLogStorage,
    /// `(blob length, deltas in it)` of the last state-slot load.
    loaded: Mutex<Option<(usize, usize)>>,
}

impl StableStorage for StateTap {
    fn store(&self, slot: &str, blob: &[u8]) -> lcm::storage::Result<()> {
        self.engine.store(slot, blob)
    }

    fn store_all(&self, slot: &str, blobs: &[&[u8]]) -> lcm::storage::Result<()> {
        self.engine.store_all(slot, blobs)
    }

    fn load(&self, slot: &str) -> lcm::storage::Result<Option<Vec<u8>>> {
        let blob = self.engine.load(slot)?;
        if let Some(blob) = blob.as_ref().filter(|_| slot.ends_with(SLOT_STATE_BLOB)) {
            let deltas = parse_bundle(blob).map_or(0, |(_, deltas)| deltas.len());
            *self.loaded.lock().unwrap() = Some((blob.len(), deltas));
        }
        Ok(blob)
    }

    fn delta_capable(&self) -> bool {
        self.engine.delta_capable()
    }
}

/// A `Put` of record `key` (of [`RECORDS`]) in round `round`.
fn put(key: u64, round: u64) -> Vec<u8> {
    let key = format!("{:016x}", key % RECORDS);
    KvOp::Put(key.into_bytes(), vec![(round % 251) as u8; VALUE_LEN]).to_bytes()
}

/// One round: every client puts one record, one step answers them.
fn round(server: &mut dyn BatchServer, clients: &mut [LcmClient], n: u64) {
    for (slot, c) in clients.iter_mut().enumerate() {
        let op = put(n * u64::from(CLIENTS) + slot as u64, n);
        server.submit(c.invoke_for::<KvStore>(&op).unwrap());
    }
    let replies = server.step().unwrap();
    assert_eq!(replies.len(), CLIENTS as usize, "round {n}");
    for (id, wire) in replies {
        clients[id.0 as usize - 1].handle_reply(&wire).unwrap();
    }
}

#[test]
fn a_reboot_allocates_within_its_budget_per_state_byte() {
    let clients: Vec<ClientId> = (1..=CLIENTS).map(ClientId).collect();
    let engine = DeltaLogStorage::open(Arc::new(MemoryStorage::new())).unwrap();
    let tap = Arc::new(StateTap {
        engine,
        loaded: Mutex::new(None),
    });
    let mut dep = DeploymentBuilder::<KvStore>::new()
        .clients(clients.clone())
        .batch_limit(BATCH)
        .storage(tap.clone())
        .build()
        .unwrap();
    let mut lcm: Vec<_> = clients.iter().map(|&id| dep.client(id)).collect();
    let server: &mut dyn BatchServer = dep.frontend_mut();

    let mut round = |server: &mut dyn BatchServer, n: u64| round(server, &mut lcm, n);
    // Every record written, then overwritten until the journal holds
    // more than `MIN_DELTAS` deltas past the last checkpoint: one delta
    // per round, and a checkpoint cut resets the count.
    let fill = RECORDS / u64::from(CLIENTS);
    let mut n = 0;
    while n < fill {
        round(server, n);
        n += 1;
    }
    let mut checkpoints = tap.engine.stats().checkpoints;
    let mut since = 0;
    while since < MIN_DELTAS + 8 {
        round(server, n);
        n += 1;
        since += 1;
        let now = tap.engine.stats().checkpoints;
        if now != checkpoints {
            (checkpoints, since) = (now, 0);
        }
    }

    server.crash();
    let (bytes, allocations) = (
        BYTES.load(Ordering::Relaxed),
        ALLOCATIONS.load(Ordering::Relaxed),
    );
    assert!(!server.boot().unwrap(), "a reboot resumes");
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;

    let (state, deltas) = tap
        .loaded
        .lock()
        .unwrap()
        .expect("the boot loaded its state");
    assert!(
        deltas >= MIN_DELTAS,
        "the state slot replays {deltas} deltas"
    );
    let per_byte = bytes as f64 / state as f64;
    println!(
        "boot: {bytes} B in {allocations} allocations for a {state} B state of {deltas} deltas: \
         {per_byte:.2} B per state byte"
    );
    assert!(
        per_byte <= BOOT_BUDGET,
        "a boot allocates {per_byte:.2} B per state byte, over its budget of {BOOT_BUDGET}"
    );

    // The rebooted lane answers where it left off.
    round(server, n);
}
