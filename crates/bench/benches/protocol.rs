//! Criterion microbenches for the LCM protocol path: the unbatched
//! full-operation round trip and the `majority_stable` scan.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcm_core::admin::AdminHandle;
use lcm_core::server::LcmServer;
use lcm_core::stability::{majority_stable, VEntry, VMap};
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
    for n in [4usize, 16, 64, 256] {
        let v: VMap = (0..n as u32)
            .map(|i| {
                (
                    ClientId(i),
                    VEntry {
                        ta: SeqNo(u64::from(i)),
                        t: SeqNo(u64::from(i) + 3),
                        h: ChainValue::GENESIS,
                        cached: None,
                    },
                )
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &v, |b, v| {
            b.iter(|| majority_stable(v));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_full_operation, bench_majority_stable);
criterion_main!(benches);
