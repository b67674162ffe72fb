//! Criterion microbenches for the LCM protocol path: the unbatched
//! full-operation round trip and `majority_stable` — one-shot over a
//! map, and per operation through the [`VState`] index.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcm_core::admin::AdminHandle;
use lcm_core::server::LcmServer;
use lcm_core::stability::{majority_stable, Quorum, VEntry, VMap, VState};
use lcm_core::types::{ChainValue, ClientId, SeqNo};
use lcm_kvs::client::KvsClient;
use lcm_kvs::ops::KvOp;
use lcm_kvs::store::KvStore;
use lcm_storage::MemoryStorage;
use lcm_tee::world::TeeWorld;

fn setup() -> (LcmServer<KvStore>, KvsClient) {
    let world = TeeWorld::new_deterministic(77);
    let platform = world.platform_deterministic(1);
    let mut server = LcmServer::<KvStore>::new(&platform, Arc::new(MemoryStorage::new()), 1);
    server.boot().unwrap();
    let mut admin = AdminHandle::new_deterministic(
        &world,
        vec![ClientId(1)],
        lcm_core::stability::Quorum::Majority,
        1,
    );
    admin.bootstrap(&mut server).unwrap();
    let client = KvsClient::new(ClientId(1), admin.client_key());
    (server, client)
}

fn bench_full_operation(c: &mut Criterion) {
    // One client, one op in flight: the unbatched round trip. Batch
    // formation and client-side encode cost are measured where a batch
    // can actually form — `core.server.step_ns_per_op`,
    // `core.server.ops_per_batch` and `core.client.invoke_ns` in
    // `examples/lcm_benchmark`.
    c.bench_function("full_op_roundtrip/unbatched", |b| {
        let (mut server, mut client) = setup();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            client
                .run(
                    &mut server,
                    &KvOp::Put(b"bench-key".to_vec(), i.to_be_bytes().to_vec()),
                )
                .unwrap()
        });
    });
}

fn bench_majority_stable(c: &mut Criterion) {
    let mut group = c.benchmark_group("majority_stable");
    for n in [16u32, 256, 4096, 65_536] {
        // The map a round-robin closed loop leaves after two rounds.
        let v: VMap = (0..n)
            .map(|i| {
                let entry = VEntry {
                    ta: SeqNo(u64::from(i) + 1),
                    t: SeqNo(u64::from(n + i) + 1),
                    h: ChainValue::GENESIS,
                    cached: None,
                };
                (ClientId(i), entry)
            })
            .collect();
        // Building the index from a map: what a restore pays once.
        group.bench_with_input(BenchmarkId::new("one_shot", n), &v, |b, v| {
            b.iter(|| majority_stable(v));
        });
        // What every operation pays: finding the client's slot, its
        // turn, then the query.
        group.bench_with_input(BenchmarkId::new("advance", n), &v, |b, v| {
            let mut state = VState::new(Quorum::Majority);
            state.replace(v.clone(), Quorum::Majority);
            let mut t = u64::from(2 * n);
            b.iter(|| {
                let client = ClientId((t % u64::from(n)) as u32);
                let tc = SeqNo(t - u64::from(n) + 1);
                t += 1;
                let (slot, _) = state.find(client).unwrap();
                state.advance(slot, tc, SeqNo(t), ChainValue::GENESIS);
                state.stable()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_full_operation, bench_majority_stable);
criterion_main!(benches);
