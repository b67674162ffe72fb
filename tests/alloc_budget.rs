//! Heap allocations per operation on the request path, as a fixed
//! budget: a `Put` from the client's `invoke` to its verified reply —
//! routing, the ecall, the enclave step, the sealed delta, the store,
//! the reply book and the client's check — makes at most
//! [`PUT_BUDGET`] heap allocations, counted on every thread by this
//! binary's own global allocator.
//!
//! The deployment is the compute-bound benchmark stack in miniature:
//! one synchronous lane of a `KvStore`, a delta log over memory, 16
//! clients and batches of 16, driven without driver threads. Keys are
//! written before the count starts, so a counted `Put` overwrites a
//! record of the same size — the steady state of a store under a
//! uniform update load. The binary holds this one test: the counter is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lcm::core::codec::WireCodec;
use lcm::core::server::BatchServer;
use lcm::core::types::ClientId;
use lcm::deployment::DeploymentBuilder;
use lcm::kvs::ops::KvOp;
use lcm::kvs::store::KvStore;
use lcm::storage::{DeltaLogStorage, MemoryStorage};

/// The most heap allocations one `Put` may make end to end.
const PUT_BUDGET: f64 = 5.5;

const CLIENTS: u32 = 16;
const BATCH: usize = 16;
const KEYS: u64 = 1024;
const VALUE_LEN: usize = 100;

/// Counts every allocation and reallocation, then defers to the
/// system allocator.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The `Put` of round `round` for client slot `slot`: every client
/// cycles over the whole key space, one record per round.
fn put(round: u64, slot: u64) -> Vec<u8> {
    let key = format!("{:016x}", (round * u64::from(CLIENTS) + slot) % KEYS);
    KvOp::Put(key.into_bytes(), vec![(round % 251) as u8; VALUE_LEN]).to_bytes()
}

#[test]
fn a_put_stays_within_its_allocation_budget() {
    let clients: Vec<ClientId> = (1..=CLIENTS).map(ClientId).collect();
    let engine = DeltaLogStorage::open(Arc::new(MemoryStorage::new())).unwrap();
    let mut dep = DeploymentBuilder::<KvStore>::new()
        .clients(clients.clone())
        .batch_limit(BATCH)
        .storage(Arc::new(engine))
        .build()
        .unwrap();
    let mut lcm: Vec<_> = clients.iter().map(|&id| dep.client(id)).collect();
    let server: &mut dyn BatchServer = dep.frontend_mut();

    // One round: every client submits one `Put`, one step answers all
    // of them, every reply is verified. The operations are encoded
    // before the round; the round is what is counted.
    let mut round = |n: u64, ops: &[Vec<u8>]| {
        for (c, op) in lcm.iter_mut().zip(ops) {
            server.submit(c.invoke_for::<KvStore>(op).unwrap());
        }
        let replies = server.step().unwrap();
        assert_eq!(replies.len(), CLIENTS as usize, "round {n}");
        for (id, wire) in replies {
            let done = lcm[id.0 as usize - 1].handle_reply(&wire).unwrap();
            assert!(done.seq.0 > 0);
        }
    };
    let ops_of = |n: u64| -> Vec<Vec<u8>> { (0..u64::from(CLIENTS)).map(|s| put(n, s)).collect() };

    // Warm-up: every key written twice, every buffer that lives across
    // operations grown to its working size, several checkpoints cut.
    let warm = 2 * KEYS / u64::from(CLIENTS);
    for n in 0..warm {
        round(n, &ops_of(n));
    }

    let rounds = 256;
    let mut counted = 0;
    for n in warm..warm + rounds {
        let ops = ops_of(n);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        round(n, &ops);
        counted += ALLOCATIONS.load(Ordering::Relaxed) - before;
    }
    let per_put = counted as f64 / (rounds * u64::from(CLIENTS)) as f64;
    println!("{per_put:.2} heap allocations per Put");
    assert!(
        per_put <= PUT_BUDGET,
        "a Put makes {per_put:.2} heap allocations, over its budget of {PUT_BUDGET}"
    );
}
