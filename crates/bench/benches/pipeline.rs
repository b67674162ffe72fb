//! Criterion benches for the execution pipeline: synchronous loop vs
//! asynchronous-write mode (`into_pipelined`) under identical storage cost.
//!
//! The acceptance bar for the pipeline: at batch=16 the async-write
//! mode must sustain at least the synchronous loop's throughput — the
//! store cost leaves the execution path.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lcm_core::admin::AdminHandle;
use lcm_core::client::LcmClient;
use lcm_core::server::{BatchServer, LcmServer};
use lcm_core::stability::Quorum;
use lcm_core::types::ClientId;
use lcm_kvs::ops::KvOp;
use lcm_kvs::store::KvStore;
use lcm_storage::{DelayedStorage, MemoryStorage};
use lcm_tee::world::TeeWorld;

const N_CLIENTS: u32 = 16;
/// Modelled write+fsync latency per store call.
const STORE_DELAY: Duration = Duration::from_micros(100);

fn setup(batch: usize, pipelined: bool, seed: u64) -> (Box<dyn BatchServer>, Vec<LcmClient>) {
    let world = TeeWorld::new_deterministic(seed);
    let platform = world.platform_deterministic(1);
    let storage = Arc::new(DelayedStorage::new(MemoryStorage::new(), STORE_DELAY));
    let inner = LcmServer::<KvStore>::new(&platform, storage, batch);
    let mut server: Box<dyn BatchServer> = if pipelined {
        Box::new(inner.into_pipelined())
    } else {
        Box::new(inner)
    };
    server.boot().unwrap();
    let ids: Vec<ClientId> = (1..=N_CLIENTS).map(ClientId).collect();
    let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, seed);
    admin.bootstrap(&mut *server).unwrap();
    let clients = ids
        .iter()
        .map(|&id| LcmClient::new(id, admin.client_key()))
        .collect();
    (server, clients)
}

/// One full round: every client submits one 100 B put, the server
/// processes the queue as batches, replies complete.
fn round(server: &mut Box<dyn BatchServer>, clients: &mut [LcmClient], payload: &[u8]) {
    for c in clients.iter_mut() {
        let op = KvOp::Put(b"bench-key".to_vec(), payload.to_vec());
        use lcm_core::codec::WireCodec;
        server.submit(c.invoke(&op.to_bytes()).unwrap());
    }
    let replies = server.process_all().unwrap();
    for (id, wire) in replies {
        let c = clients.iter_mut().find(|c| c.id() == id).unwrap();
        c.handle_reply(&wire).unwrap();
    }
}

fn bench_pipeline(c: &mut Criterion) {
    let payload = vec![0xa5u8; 100];
    let mut group = c.benchmark_group("pipeline_batch16");
    group.throughput(Throughput::Elements(N_CLIENTS as u64));

    group.bench_function(BenchmarkId::from_parameter("sync_write"), |b| {
        let (mut server, mut clients) = setup(16, false, 70);
        b.iter(|| round(&mut server, &mut clients, &payload));
    });

    group.bench_function(BenchmarkId::from_parameter("async_write"), |b| {
        let (mut server, mut clients) = setup(16, true, 70);
        b.iter(|| round(&mut server, &mut clients, &payload));
        server.flush_persists().unwrap();
    });

    group.finish();
}

/// Sharded stage 2: one round of 64 clients PUTting their own keys
/// (spread across shards by route hash) per iteration, at 1 vs 4
/// shards under identical storage cost. The single-shard server needs
/// four serial seal-and-store cycles per round where four shards need
/// one each, in parallel — the stage-2 speedup the sharded host
/// exists for.
fn bench_sharded(c: &mut Criterion) {
    use lcm_bench::shardbench::{setup, ShardRun};

    const SHARD_CLIENTS: u32 = 64;

    let mut group = c.benchmark_group("sharded_stage2");
    group.throughput(Throughput::Elements(u64::from(SHARD_CLIENTS)));
    for shards in [1u32, 4] {
        let mut stack = setup(&ShardRun {
            shards,
            batch: 16,
            pipelined: false,
            clients: SHARD_CLIENTS,
            rounds: 0, // driven by criterion below
            store_delay: Duration::from_micros(400),
        });
        group.bench_function(
            BenchmarkId::from_parameter(format!("shards_{shards}")),
            |b| b.iter(|| stack.round()),
        );
        stack.flush();
    }
    group.finish();
}

/// The host plane around one lane: `n` closed-loop clients on a
/// one-shard [`lcm_core::shard::ShardedServer`] over `Counter` on
/// plain `MemoryStorage`, each iteration one `step` (a batch of 16),
/// the 16 replies verified and their clients' next wires submitted.
/// Printed per operation: how the cost of one operation moves with
/// the number of clients *waiting* is the host's side of ROADMAP item
/// 5(c) (the rows also carry `T`'s and the store's share, equal at
/// equal `n`, so compare two commits row by row).
fn bench_host_plane(c: &mut Criterion) {
    use lcm_core::functionality::Counter;

    let mut group = c.benchmark_group("host_plane");
    group.throughput(Throughput::Elements(16));
    for n in [16u32, 512, 16_384] {
        let world = TeeWorld::new_deterministic(71);
        let storage = Arc::new(MemoryStorage::new());
        let mut server =
            lcm_core::shard::build_sharded::<Counter>(&world, 1, storage, 16, 1, false);
        server.boot().unwrap();
        let ids: Vec<ClientId> = (1..=n).map(ClientId).collect();
        let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 71);
        admin.bootstrap(&mut server).unwrap();
        let mut clients: Vec<LcmClient> = ids
            .iter()
            .map(|&id| LcmClient::new_sharded(id, admin.client_key(), 1))
            .collect();
        let op = Counter::inc_op(b"n", 1);
        for client in &mut clients {
            server.submit(client.invoke_for::<Counter>(&op).unwrap());
        }
        group.bench_function(BenchmarkId::new("step_16_of_n", n), |b| {
            b.iter(|| {
                for (id, wire) in server.step().unwrap() {
                    let client = &mut clients[id.0 as usize - 1];
                    client.handle_reply(&wire).unwrap();
                    server.submit(client.invoke_for::<Counter>(&op).unwrap());
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_sharded, bench_host_plane);
criterion_main!(benches);
