//! Criterion rows for the persist layer: what one batch of 16 `Put`s
//! costs the trusted context to seal on a lane, and to apply on a
//! group follower — the bare context, no host and no storage, over a
//! store of 10⁴ records of 100 bytes.
//!
//! * `persist/seal_delta/{16,512}` — `persist_batch_blobs` after 16
//!   `Put`s from 16 of the lane's 16 or 512 clients, on a lane whose
//!   host takes deltas: one sealed delta per batch, and a checkpoint
//!   whenever the cadence asks for one, as on the compute-bound
//!   benchmark's lane.
//! * `persist/apply_replica/16` — a follower's `apply_replica` of the
//!   record its group's leader sealed for such a batch.
//!
//! The `Put`s and the leader's seal are set up outside the clock.

use std::cell::RefCell;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use lcm_core::client::LcmClient;
use lcm_core::codec::WireCodec;
use lcm_core::context::{ProvisionPayload, ShardIdentity, TrustedContext, LABEL_PROVISION};
use lcm_core::program::lcm_measurement;
use lcm_core::stability::Quorum;
use lcm_core::types::ClientId;
use lcm_crypto::aead::{self, AeadKey};
use lcm_crypto::keys::SecretKey;
use lcm_kvs::ops::KvOp;
use lcm_kvs::store::KvStore;
use lcm_tee::platform::TeeServices;
use lcm_tee::world::TeeWorld;

const RECORDS: u64 = 10_000;
const VALUE_LEN: usize = 100;
const BATCH: u64 = 16;

fn k_c() -> SecretKey {
    SecretKey::from_bytes([2u8; 32])
}

/// A context provisioned with `clients` clients as `identity`, on a
/// host that takes deltas.
fn provisioned(
    world: &TeeWorld,
    platform: u64,
    clients: u32,
    identity: ShardIdentity,
) -> TrustedContext<KvStore> {
    let services = TeeServices::for_tests(
        world.platform_deterministic(platform),
        lcm_measurement(),
        platform,
    );
    let mut ctx = TrustedContext::new(services);
    ctx.init(None, None, true).unwrap();
    let payload = ProvisionPayload {
        k_p: SecretKey::from_bytes([1u8; 32]),
        k_c: k_c(),
        k_a: SecretKey::from_bytes([3u8; 32]),
        clients: (1..=clients).map(ClientId).collect(),
        quorum: Quorum::Majority,
        identity,
    };
    let channel = AeadKey::from_secret(&world.admin_provision_key(&lcm_measurement()));
    let sealed = aead::auth_encrypt(&channel, &payload.to_bytes(), LABEL_PROVISION).unwrap();
    ctx.provision(&sealed).unwrap();
    ctx
}

/// The clients of a lane and the batches they send it.
struct Load {
    clients: Vec<LcmClient>,
    batches: u64,
}

impl Load {
    fn new(clients: u32) -> Self {
        Load {
            clients: (1..=clients)
                .map(|c| LcmClient::new(ClientId(c), &k_c()))
                .collect(),
            batches: 0,
        }
    }

    /// Runs one operation of client slot `slot` on `ctx`, reply checked.
    fn run(&mut self, ctx: &mut TrustedContext<KvStore>, slot: usize, op: &KvOp) {
        let client = &mut self.clients[slot];
        let wire = client.invoke_for::<KvStore>(&op.to_bytes()).unwrap();
        let (_, reply) = ctx.handle_invoke(&wire).unwrap();
        client.handle_reply(&reply).unwrap();
    }

    /// The store's records, loaded by the first client.
    fn preload(&mut self, ctx: &mut TrustedContext<KvStore>) {
        let fill = KvOp::Fill {
            pin: Vec::new(),
            start: 0,
            count: RECORDS as u32,
            value_len: VALUE_LEN as u32,
        };
        self.run(ctx, 0, &fill);
    }

    /// One batch: 16 `Put`s over the records, each from the next client
    /// in turn.
    fn batch(&mut self, ctx: &mut TrustedContext<KvStore>) {
        let n = self.clients.len() as u64;
        for i in 0..BATCH {
            let op = self.batches * BATCH + i;
            let key = format!("{:016x}", op.wrapping_mul(7919) % RECORDS).into_bytes();
            let put = KvOp::Put(key, vec![(op % 251) as u8; VALUE_LEN]);
            self.run(ctx, (op % n) as usize, &put);
        }
        self.batches += 1;
    }
}

fn bench_persist(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist");
    for clients in [16u32, 512] {
        let world = TeeWorld::new_deterministic(77);
        let mut lane = provisioned(&world, 1, clients, ShardIdentity::SOLO);
        let mut load = Load::new(clients);
        load.preload(&mut lane);
        lane.persist_batch_blobs().unwrap();
        // Both closures drive the lane: one fills its batch, the other
        // persists it.
        let lane = RefCell::new(lane);
        group.bench_function(BenchmarkId::new("seal_delta", clients), |b| {
            b.iter_batched(
                || load.batch(&mut lane.borrow_mut()),
                |()| lane.borrow_mut().persist_batch_blobs().unwrap(),
                BatchSize::SmallInput,
            );
        });
    }

    let world = TeeWorld::new_deterministic(78);
    let member = |replica| ShardIdentity::new(0, 1).with_replica(replica, 2);
    let mut leader = provisioned(&world, 1, 16, member(0));
    let mut follower = provisioned(&world, 2, 16, member(1));
    let mut load = Load::new(16);
    load.preload(&mut leader);
    let seal = |leader: &mut TrustedContext<KvStore>| {
        let record = leader.persist_batch_blobs().unwrap().record;
        record.expect("a group member emits a record")
    };
    follower.apply_replica(&seal(&mut leader)).unwrap();
    group.bench_function(BenchmarkId::new("apply_replica", 16), |b| {
        b.iter_batched(
            || {
                load.batch(&mut leader);
                seal(&mut leader)
            },
            |record| follower.apply_replica(&record).unwrap(),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_persist);
criterion_main!(benches);
