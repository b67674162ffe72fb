//! Criterion benches comparing the real in-process servers: LCM vs the
//! SGX baseline — wall-clock per-operation cost of the actual
//! implementations (complements the calibrated simulator).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcm_core::admin::AdminHandle;
use lcm_core::server::LcmServer;
use lcm_core::stability::Quorum;
use lcm_core::types::ClientId;
use lcm_kvs::baseline::{SecureKvsClient, SgxKvsServer};
use lcm_kvs::client::KvsClient;
use lcm_kvs::ops::KvOp;
use lcm_kvs::store::KvStore;
use lcm_storage::MemoryStorage;
use lcm_tee::world::TeeWorld;

fn bench_servers(c: &mut Criterion) {
    let mut group = c.benchmark_group("put_100B");

    // SGX baseline (sealing, no LCM).
    group.bench_function(BenchmarkId::from_parameter("sgx"), |b| {
        let world = TeeWorld::new_deterministic(81);
        let platform = world.platform_deterministic(1);
        let mut server = SgxKvsServer::new(&platform, Arc::new(MemoryStorage::new()), 1);
        server.boot().unwrap();
        let client = SecureKvsClient::new(SgxKvsServer::session_key_for(&platform));
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            client
                .run(
                    &mut server,
                    &KvOp::Put(b"key".to_vec(), i.to_be_bytes().to_vec()),
                )
                .unwrap()
        });
    });

    // LCM (full protocol).
    group.bench_function(BenchmarkId::from_parameter("lcm"), |b| {
        let world = TeeWorld::new_deterministic(82);
        let platform = world.platform_deterministic(1);
        let mut server = LcmServer::<KvStore>::new(&platform, Arc::new(MemoryStorage::new()), 1);
        server.boot().unwrap();
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 1);
        admin.bootstrap(&mut server).unwrap();
        let mut client = KvsClient::new(ClientId(1), admin.client_key());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            client
                .run(
                    &mut server,
                    &KvOp::Put(b"key".to_vec(), i.to_be_bytes().to_vec()),
                )
                .unwrap()
        });
    });

    group.finish();
}

criterion_group!(benches, bench_servers);
criterion_main!(benches);
