//! Short single-thread probes that drive one bare layer through its
//! `pub` surface at the workload's client count and store size. They
//! run after the traced window and give the per-layer numbers the
//! end-to-end run cannot separate from outside.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lcm::core::client::LcmClient;
use lcm::core::codec::{WireCodec, Writer};
use lcm::core::context::{ProvisionPayload, ShardIdentity, TrustedContext, LABEL_PROVISION};
use lcm::core::functionality::Functionality;
use lcm::core::program::{lcm_measurement, HostCall, HostReply, LcmProgram};
use lcm::core::server::BatchServer;
use lcm::core::shard::{build_sharded, route_for};
use lcm::core::stability::{encode_vmap, stable_with, CachedReply, Quorum, VEntry, VMap};
use lcm::core::types::{ChainValue, ClientId, SeqNo};
use lcm::crypto::aead::{self, AeadKey};
use lcm::crypto::hmac::hmac_sha256;
use lcm::crypto::keys::SecretKey;
use lcm::crypto::sha256;
use lcm::kvs::baseline::{SecureKvsClient, SgxKvsServer};
use lcm::kvs::ops::{KvOp, KvResult};
use lcm::kvs::store::KvStore;
use lcm::runtime::queue::BoundedQueue;
use lcm::storage::MemoryStorage;
use lcm::tee::enclave::Enclave;
use lcm::tee::platform::TeeServices;
use lcm::tee::world::TeeWorld;

use crate::metrics::Values;
use crate::stats::median_f64;
use crate::workloads::{fill_op, PoolOp, Spec, BATCH, VALUE_LEN};

/// Wall time one probe may spend measuring.
const BUDGET: Duration = Duration::from_millis(60);

/// Mean nanoseconds per call of `f`: the median of five batches sized
/// so the whole probe fits [`BUDGET`].
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let one = t.elapsed().as_nanos().max(1);
    let iters = ((BUDGET.as_nanos() / 5) / one).clamp(1, 1_000_000) as u64;
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median_f64(&mut batches)
}

pub fn crypto(out: &mut Values) {
    let key = AeadKey::from_secret(&SecretKey::from_bytes([5u8; 32]));
    let msg = vec![0x42u8; 145];
    let aad = [7u8; 34];
    out.insert(
        "crypto.aead.seal_ns_145B",
        per_call_ns(|| {
            black_box(aead::auth_encrypt(&key, black_box(&msg), &aad).expect("seal"));
        }),
    );
    let sealed = aead::auth_encrypt(&key, &msg, &aad).expect("seal");
    out.insert(
        "crypto.aead.open_ns_145B",
        per_call_ns(|| {
            black_box(aead::auth_decrypt(&key, black_box(&sealed), &aad).expect("open"));
        }),
    );
    let mib = vec![0x17u8; 1 << 20];
    let seal_ns = per_call_ns(|| {
        black_box(aead::auth_encrypt(&key, black_box(&mib), &aad).expect("seal"));
    });
    out.insert("crypto.aead.seal_mib_s_1MiB", 1e9 / seal_ns);
    let op = vec![0x33u8; 121];
    out.insert(
        "crypto.sha256.chain_step_ns",
        per_call_ns(|| {
            black_box(ChainValue::GENESIS.extend(black_box(&op), SeqNo(7), ClientId(3)));
        }),
    );
    let block = vec![0x29u8; 16 << 10];
    let hash_ns = per_call_ns(|| {
        black_box(sha256::digest(black_box(&block)));
    });
    out.insert("crypto.sha256.mib_s_16KiB", 1e9 / hash_ns / 64.0);
    let data = [0x61u8; 64];
    out.insert(
        "crypto.hmac.tag_ns_64B",
        per_call_ns(|| {
            black_box(hmac_sha256(&[9u8; 32], black_box(&data)));
        }),
    );
}

/// The bare `KvStore` at the lane's store size, driven with the
/// workload's own operations.
pub fn kvs(spec: &Spec, pool: &[PoolOp], out: &mut Values) {
    let mut store = KvStore::default();
    store.apply(&KvOp::Fill {
        pin: Vec::new(),
        start: 0,
        count: spec.records as u32,
        value_len: VALUE_LEN as u32,
    });
    store.take_delta();
    let ops: Vec<KvOp> = pool
        .iter()
        .take(4096)
        .map(|p| KvOp::from_bytes(&p.bytes).expect("pool ops decode"))
        .collect();
    let puts: Vec<KvOp> = ops
        .iter()
        .map(|op| match op {
            KvOp::Get(k) => KvOp::Put(k.clone(), vec![b'v'; VALUE_LEN]),
            other => other.clone(),
        })
        .collect();
    let gets: Vec<KvOp> = puts.iter().map(|op| KvOp::Get(op.key().to_vec())).collect();
    let mut i = 0;
    out.insert(
        "kvs.store.put_ns",
        per_call_ns(|| {
            black_box(store.apply(&puts[i % puts.len()]));
            i += 1;
        }),
    );
    store.take_delta();
    out.insert(
        "kvs.store.get_ns",
        per_call_ns(|| {
            black_box(store.apply(&gets[i % gets.len()]));
            i += 1;
        }),
    );
    let mut take_ns: Vec<f64> = (0..32)
        .map(|_| {
            for _ in 0..BATCH {
                store.apply(&puts[i % puts.len()]);
                i += 1;
            }
            let t = Instant::now();
            black_box(store.take_delta());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    out.insert(
        "kvs.store.take_delta_ns_per_batch",
        median_f64(&mut take_ns),
    );
    let mut snap_ns: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(store.snapshot());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    out.insert("kvs.store.snapshot_ns", median_f64(&mut snap_ns));
    out.insert("kvs.store.heap_bytes", store.heap_bytes() as f64);
    let put = &puts[0];
    let stored = KvResult::Stored;
    out.insert(
        "kvs.ops.codec_ns",
        per_call_ns(|| {
            black_box(KvOp::from_bytes(&black_box(put).to_bytes()).expect("op"));
            black_box(KvResult::from_bytes(&black_box(&stored).to_bytes()).expect("result"));
        }),
    );
}

/// `stable_with` and the V-map encoding at the workload's client
/// count, on the map a round-robin closed loop leaves mid-round: the
/// first half of the clients have executed this round's operation
/// (acknowledging last round's), the second half are one round behind.
pub fn stability(spec: &Spec, out: &mut Values) {
    let n = u64::from(spec.clients);
    let round = |k: u64, c: u64| SeqNo(k * n + c);
    let v: VMap = (1..=n)
        .map(|c| {
            let k = if c <= n / 2 { 20 } else { 19 };
            let t = round(k, c);
            let entry = VEntry {
                ta: round(k - 1, c),
                t,
                h: ChainValue::GENESIS,
                cached: Some(CachedReply {
                    t,
                    q: round(k - 2, c),
                    h: ChainValue::GENESIS,
                    hc_echo: ChainValue::GENESIS,
                    redirect: false,
                    result: KvResult::Stored.to_bytes(),
                }),
            };
            (ClientId(c as u32), entry)
        })
        .collect();
    out.insert(
        "core.stability.stable_with_ns",
        per_call_ns(|| {
            black_box(stable_with(black_box(&v), Quorum::Majority));
        }),
    );
    let mut w = Writer::new();
    out.insert(
        "core.stability.vmap_encode_ns",
        per_call_ns(|| {
            w.clear();
            encode_vmap(black_box(&v), &mut w);
        }),
    );
}

/// The admin's sealed provisioning payload for a bare solo enclave of
/// `world`, plus the client key it carries.
fn provisioning(world: &TeeWorld, spec: &Spec) -> (Vec<u8>, SecretKey) {
    let k_c = SecretKey::from_bytes([2u8; 32]);
    let payload = ProvisionPayload {
        k_p: SecretKey::from_bytes([1u8; 32]),
        k_c: k_c.clone(),
        k_a: SecretKey::from_bytes([3u8; 32]),
        clients: spec.client_ids(),
        quorum: Quorum::Majority,
        identity: ShardIdentity::SOLO,
    };
    let channel = AeadKey::from_secret(&world.admin_provision_key(&lcm_measurement()));
    let sealed =
        aead::auth_encrypt(&channel, &payload.to_bytes(), LABEL_PROVISION).expect("seal payload");
    (sealed, k_c)
}

fn probe_clients(spec: &Spec, k_c: &SecretKey) -> Vec<LcmClient> {
    spec.client_ids()
        .into_iter()
        .map(|id| LcmClient::new(id, k_c))
        .collect()
}

/// Untimed and timed batches of a context probe. Clients take turns
/// in order, as the closed loop has them; two untimed rounds bring the
/// V-map to the state it has mid-run (a first-round map, where nobody
/// has acknowledged anything yet, makes `stable_with` nearly free),
/// then one round is timed.
fn probe_batches(spec: &Spec) -> (usize, usize) {
    let round = (spec.clients as usize).div_ceil(BATCH);
    (2 * round, round.max(8))
}

/// Bare `TrustedContext<KvStore>`: `handle_invoke`, the per-batch
/// persist, and `serve_read`.
pub fn context(spec: &Spec, pool: &[PoolOp], out: &mut Values) -> Result<(), String> {
    let world = TeeWorld::new_deterministic(41);
    let services = TeeServices::for_tests(world.platform_deterministic(1), lcm_measurement(), 41);
    let mut ctx = TrustedContext::<KvStore>::new(services);
    ctx.init(None, None, spec.delta_log)
        .map_err(|e| format!("probe init: {e}"))?;
    let (sealed, k_c) = provisioning(&world, spec);
    ctx.provision(&sealed)
        .map_err(|e| format!("probe provision: {e}"))?;
    let mut clients = probe_clients(spec, &k_c);

    let fill = clients[0]
        .invoke_for::<KvStore>(&fill_op(spec))
        .map_err(|e| e.to_string())?;
    let (_, reply) = ctx.handle_invoke(&fill).map_err(|e| e.to_string())?;
    clients[0].handle_reply(&reply).map_err(|e| e.to_string())?;
    ctx.persist_blobs().map_err(|e| e.to_string())?;
    // The fill's bytes pushed the delta budget past the checkpoint
    // size; let that deferred checkpoint happen before timing.
    ctx.persist_batch_blobs().map_err(|e| e.to_string())?;

    let puts: Vec<&PoolOp> = pool.iter().filter(|p| !p.is_read).collect();
    let (mut invoke_ns, mut invoked) = (0u128, 0u64);
    let mut persist_ns = Vec::new();
    let mut delta_bytes = Vec::new();
    let mut turn = 0usize;
    let (warm, timed) = probe_batches(spec);
    for batch in 0..warm + timed {
        for _ in 0..BATCH {
            let client = &mut clients[turn % spec.clients as usize];
            let op = puts[turn % puts.len()];
            turn += 1;
            let wire = client
                .invoke_for::<KvStore>(&op.bytes)
                .map_err(|e| e.to_string())?;
            let t = Instant::now();
            let (_, reply) = ctx.handle_invoke(&wire).map_err(|e| e.to_string())?;
            if batch >= warm {
                invoke_ns += t.elapsed().as_nanos();
                invoked += 1;
            }
            client.handle_reply(&reply).map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        let blobs = ctx.persist_batch_blobs().map_err(|e| e.to_string())?;
        if batch >= warm {
            persist_ns.push(t.elapsed().as_nanos() as f64);
            delta_bytes.push(blobs.state_blob.len() as f64);
        }
    }
    out.insert("core.context.invoke_ns", invoke_ns as f64 / invoked as f64);
    out.insert(
        "core.context.persist_ns_per_batch",
        median_f64(&mut persist_ns),
    );
    out.insert(
        "core.context.delta_bytes_per_batch",
        median_f64(&mut delta_bytes),
    );

    let mut read_ns = Vec::new();
    for (i, client) in clients.iter_mut().enumerate().take(64) {
        let get = KvOp::Get(crate::workloads::key_of(puts[i % puts.len()].rank)).to_bytes();
        let wire = client
            .read_for::<KvStore>(&get, 0)
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        let reply = ctx.serve_read(&wire).map_err(|e| e.to_string())?;
        read_ns.push(t.elapsed().as_nanos() as f64);
        client
            .handle_read_reply(&reply)
            .map_err(|e| e.to_string())?;
    }
    out.insert("core.context.serve_read_ns", median_f64(&mut read_ns));
    Ok(())
}

/// Bare `Enclave<LcmProgram<KvStore>>::ecall` on 16-operation
/// `HostCall` batches: `handle_invoke` × 16 + persist + the ecall
/// codec, per operation.
pub fn enclave(spec: &Spec, pool: &[PoolOp], out: &mut Values) -> Result<(), String> {
    let world = TeeWorld::new_deterministic(43);
    let mut enclave = Enclave::<LcmProgram<KvStore>>::create(&world.platform_deterministic(1));
    enclave.start().map_err(|e| e.to_string())?;
    let mut call = |bytes: &[u8]| -> Result<HostReply, String> {
        let raw = enclave.ecall(bytes).map_err(|e| e.to_string())?;
        HostReply::from_bytes(&raw).map_err(|e| e.to_string())
    };
    call(
        &HostCall::Init {
            key_blob: None,
            state_blob: None,
            want_deltas: spec.delta_log,
        }
        .to_bytes(),
    )?;
    let (sealed, k_c) = provisioning(&world, spec);
    call(&HostCall::Provision(sealed).to_bytes())?;
    let mut clients = probe_clients(spec, &k_c);

    let mut run_batch =
        |clients: &mut [LcmClient], ops: &[(usize, &[u8])]| -> Result<Duration, String> {
            let wires: Vec<Vec<u8>> = ops
                .iter()
                .map(|&(c, op)| {
                    clients[c]
                        .invoke_for::<KvStore>(op)
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<_, _>>()?;
            let mut w = Writer::new();
            HostCall::encode_invoke_batch_into(&mut w, &wires);
            let t = Instant::now();
            let reply = call(w.as_slice())?;
            let took = t.elapsed();
            let HostReply::BatchOk { replies, .. } = reply else {
                return Err(format!("probe batch failed: {reply:?}"));
            };
            for (&(c, _), (_, wire)) in ops.iter().zip(&replies) {
                clients[c].handle_reply(wire).map_err(|e| e.to_string())?;
            }
            Ok(took)
        };
    let fill = fill_op(spec);
    run_batch(&mut clients, &[(0, fill.as_slice())])?;
    let puts: Vec<&PoolOp> = pool.iter().filter(|p| !p.is_read).collect();
    let n = spec.clients as usize;
    let mut turn = 0usize;
    let batch_ops = |turn: &mut usize| -> Vec<(usize, &[u8])> {
        (0..BATCH.min(n))
            .map(|_| {
                let pick = (*turn % n, puts[*turn % puts.len()].bytes.as_slice());
                *turn += 1;
                pick
            })
            .collect()
    };
    // The untimed batches also let the fill's deferred checkpoint
    // happen before the clock starts.
    let (warm, timed) = probe_batches(spec);
    let (mut total, mut ops) = (Duration::ZERO, 0usize);
    for i in 0..warm + timed {
        let batch = batch_ops(&mut turn);
        let took = run_batch(&mut clients, &batch)?;
        if i >= warm {
            total += took;
            ops += batch.len();
        }
    }
    out.insert(
        "tee.enclave.ecall_ns_per_op",
        total.as_nanos() as f64 / ops as f64,
    );
    Ok(())
}

/// Routing arithmetic and the bounded queue, each on its own.
pub fn plumbing(spec: &Spec, pool: &[PoolOp], out: &mut Values) -> Result<(), String> {
    let k_c = SecretKey::from_bytes([2u8; 32]);
    let router = LcmClient::new_sharded(ClientId(1), &k_c, spec.shards);
    let keys: Vec<Vec<u8>> = pool
        .iter()
        .take(1024)
        .map(|p| crate::workloads::key_of(p.rank))
        .collect();
    let mut i = 0;
    out.insert(
        "core.routing.route_ns",
        per_call_ns(|| {
            let route = route_for(ClientId(1), Some(&keys[i % keys.len()]));
            black_box(router.shard_of_route(route));
            i += 1;
        }),
    );

    let queue = BoundedQueue::<u64>::new(1024);
    out.insert(
        "runtime.queue.push_pop_ns",
        per_call_ns(|| {
            let _ = queue.try_push(black_box(7));
            black_box(queue.try_pop());
        }),
    );

    Ok(())
}

/// The shard layer's own share of a submit: 512 wires into a sharded
/// server that is never booted, so `submit` only routes, tickets and
/// enqueues.
pub fn shard_submit_ns(spec: &Spec, pool: &[PoolOp]) -> Result<f64, String> {
    let k_c = SecretKey::from_bytes([2u8; 32]);
    let world = TeeWorld::new_deterministic(47);
    let mut server = build_sharded::<KvStore>(
        &world,
        1,
        Arc::new(MemoryStorage::new()),
        BATCH,
        spec.shards,
        false,
    );
    let wires: Vec<Vec<u8>> = (0..512usize)
        .map(|c| {
            LcmClient::new_sharded(ClientId(c as u32 + 1), &k_c, spec.shards)
                .invoke_for::<KvStore>(&pool[c % pool.len()].bytes)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let n = wires.len();
    let t = Instant::now();
    for wire in wires {
        server.submit(wire);
    }
    Ok(t.elapsed().as_nanos() as f64 / n as f64)
}

/// The SGX-only store on the same operations: batches of 16 for
/// `window`, every reply decrypted. Returns operations per second.
pub struct SgxBaseline {
    server: SgxKvsServer,
    client: SecureKvsClient,
    ops: Vec<KvOp>,
    next: usize,
}

impl SgxBaseline {
    pub fn new(spec: &Spec, pool: &[PoolOp]) -> Result<Self, String> {
        let world = TeeWorld::new_deterministic(53);
        let platform = world.platform_deterministic(1);
        let mut server = SgxKvsServer::new(&platform, Arc::new(MemoryStorage::new()), BATCH);
        server.boot()?;
        let client = SecureKvsClient::new(SgxKvsServer::session_key_for(&platform));
        let fill = KvOp::from_bytes(&fill_op(spec)).map_err(|e| e.to_string())?;
        client.run(&mut server, &fill)?;
        let ops = pool
            .iter()
            .take(8192)
            .map(|p| KvOp::from_bytes(&p.bytes).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok(SgxBaseline {
            server,
            client,
            ops,
            next: 0,
        })
    }

    pub fn run_for(&mut self, window: Duration) -> Result<f64, String> {
        let start = Instant::now();
        let mut done = 0u64;
        while start.elapsed() < window {
            for _ in 0..BATCH {
                let op = &self.ops[self.next % self.ops.len()];
                self.next += 1;
                self.server.submit(self.client.encrypt_op(op)?);
            }
            for reply in self.server.process_all()? {
                black_box(self.client.decrypt_reply(&reply)?);
                done += 1;
            }
        }
        Ok(done as f64 / start.elapsed().as_secs_f64())
    }
}

/// Median duration, in milliseconds, of the `step()` calls that sealed
/// a full checkpoint. `steps` are the calls of one single-lane window
/// in order and `first_ordinal` the lane tap's state-store count when
/// it began: a lane persists one state blob per executed batch, in
/// order, so the checkpoint's ordinal names its step — also when a
/// pipelined lane's writer stores it later.
pub fn checkpoint_step_ms(
    steps: &[(Instant, Instant)],
    first_ordinal: u64,
    checkpoint_ordinals: &[u64],
) -> f64 {
    let mut ms: Vec<f64> = checkpoint_ordinals
        .iter()
        .filter_map(|&ordinal| {
            let (start, end) = *steps.get(ordinal.checked_sub(first_ordinal)? as usize)?;
            Some(end.duration_since(start).as_secs_f64() * 1e3)
        })
        .collect();
    median_f64(&mut ms)
}
