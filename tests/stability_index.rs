//! The stability index inside a real `TrustedContext<KvStore>`: every
//! path that installs `V` wholesale (restore from a checkpoint and a
//! delta suffix, `apply_replica` of a checkpoint, whole-context
//! migration) must rebuild the index, a follower applying the
//! replication stream's delta records must keep it current entry by
//! entry, and the incremental path must keep answering exactly what
//! the definition of stability answers — at a client-group size where
//! evaluating that definition per operation is out of the question.

use std::collections::BTreeMap;

use lcm::core::client::LcmClient;
use lcm::core::codec::{WireCodec, Writer};
use lcm::core::context::{
    AdminOp, ProvisionPayload, ShardIdentity, TrustedContext, LABEL_ADMIN, LABEL_PROVISION,
};
use lcm::core::program::lcm_measurement;
use lcm::core::stability::Quorum;
use lcm::core::types::{ClientId, SeqNo};
use lcm::crypto::aead::{self, AeadKey};
use lcm::crypto::keys::SecretKey;
use lcm::kvs::ops::KvOp;
use lcm::kvs::store::KvStore;
use lcm::storage::make_bundle;
use lcm::tee::platform::TeeServices;
use lcm::tee::world::TeeWorld;

type Ctx = TrustedContext<KvStore>;

fn k_c() -> SecretKey {
    SecretKey::from_bytes([2u8; 32])
}

fn boot(world: &TeeWorld, platform: u64) -> Ctx {
    let services = TeeServices::for_tests(
        world.platform_deterministic(platform),
        lcm_measurement(),
        platform,
    );
    Ctx::new(services)
}

fn provisioned(world: &TeeWorld, platform: u64, n: u32, quorum: Quorum, id: ShardIdentity) -> Ctx {
    let mut ctx = boot(world, platform);
    ctx.init(None, None, true).unwrap();
    let payload = ProvisionPayload {
        k_p: SecretKey::from_bytes([1u8; 32]),
        k_c: k_c(),
        k_a: SecretKey::from_bytes([3u8; 32]),
        clients: (1..=n).map(ClientId).collect(),
        quorum,
        identity: id,
    };
    let channel = AeadKey::from_secret(&world.admin_provision_key(&lcm_measurement()));
    let sealed = aead::auth_encrypt(&channel, &payload.to_bytes(), LABEL_PROVISION).unwrap();
    ctx.provision(&sealed).unwrap();
    ctx
}

/// The test's own copy of `V`'s `(ta, t)` columns, driven by the
/// replies the clients verify, and the watermark the definition of
/// stability assigns to it.
struct Model {
    quorum: Quorum,
    v: BTreeMap<u32, (SeqNo, SeqNo)>,
}

impl Model {
    fn new(n: u32, quorum: Quorum) -> Self {
        Model {
            quorum,
            v: (1..=n).map(|c| (c, (SeqNo::ZERO, SeqNo::ZERO))).collect(),
        }
    }

    /// Records that `client` executed `t`, acknowledging its previous
    /// operation.
    fn advance(&mut self, client: u32, t: SeqNo) {
        let entry = self.v.get_mut(&client).unwrap();
        *entry = (entry.1, t);
    }

    /// "The largest acknowledged sequence number in V that is less
    /// than or equal to [at least `required`] sequence numbers in V",
    /// skipping the acknowledgements no larger than the best so far,
    /// which cannot change the answer.
    fn quadratic(&self) -> SeqNo {
        let required = self.quorum.required(self.v.len());
        let qualifies = |a: SeqNo| self.v.values().filter(|(_, t)| *t >= a).count() >= required;
        let mut best = SeqNo::ZERO;
        for &(a, _) in self.v.values() {
            if a > best && qualifies(a) {
                best = a;
            }
        }
        best
    }

    /// The same by sorting: the `required`-th largest `t` bounds the
    /// acknowledgements that qualify.
    fn sorted(&self) -> SeqNo {
        let mut ts: Vec<SeqNo> = self.v.values().map(|&(_, t)| t).collect();
        ts.sort_unstable_by(|a, b| b.cmp(a));
        let tau = ts[self.quorum.required(ts.len()) - 1];
        let acks = self.v.values().map(|&(ta, _)| ta);
        acks.filter(|&a| a <= tau).max().unwrap_or(SeqNo::ZERO)
    }
}

/// One Put by `client`; returns the verified reply's `(t, q)`.
fn put(ctx: &mut Ctx, client: &mut LcmClient, i: u64) -> (SeqNo, SeqNo) {
    let op = KvOp::Put(
        format!("k{}", i % 64).into_bytes(),
        i.to_be_bytes().to_vec(),
    )
    .to_bytes();
    let wire = client.invoke_for::<KvStore>(&op).unwrap();
    let (_, reply) = ctx.handle_invoke(&wire).unwrap();
    let done = client.handle_reply(&reply).unwrap();
    (done.seq, done.stable)
}

struct Group {
    clients: Vec<LcmClient>,
    model: Model,
    /// `T` reports `max` over the history of the map's watermark (the
    /// raw formula is not monotone); so does the test.
    floor: SeqNo,
    ops: u64,
}

impl Group {
    fn new(n: u32, quorum: Quorum) -> Self {
        Group {
            clients: (1..=n)
                .map(|c| LcmClient::new(ClientId(c), &k_c()))
                .collect(),
            model: Model::new(n, quorum),
            floor: SeqNo::ZERO,
            ops: 0,
        }
    }

    /// One operation by each client of `turns` in order, each reply's
    /// `q` checked against the quadratic definition.
    fn run(&mut self, ctx: &mut Ctx, turns: &[usize]) {
        for &c in turns {
            self.ops += 1;
            let (t, q) = put(ctx, &mut self.clients[c], self.ops);
            self.model.advance(c as u32 + 1, t);
            self.floor = self.floor.max(self.model.quadratic());
            assert_eq!(q, self.floor, "op {} by client {}", self.ops, c + 1);
        }
    }

    /// The first operation on a context rebuilt from sealed bytes, by
    /// a client chosen so that the answer lies above the floor those
    /// bytes carry and depends on entries the rebuilt context has not
    /// touched: a stale or empty index cannot produce it.
    fn first_after_rebuild(&mut self, ctx: &mut Ctx, turn: usize) {
        let sealed_floor = self.floor;
        self.run(ctx, &[turn]);
        assert!(self.floor > sealed_floor, "the first reply must move q");
    }
}

/// Two full rounds of seven clients, then clients 1 and 2 run ahead
/// while the others lag — so the next operation of a lagging client
/// moves `q` by an amount that depends on everybody's entry.
const WARM: [usize; 14] = [0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6];
const AHEAD: [usize; 2] = [0, 1];

#[test]
fn index_is_rebuilt_by_restore_from_checkpoint_and_delta_suffix() {
    let world = TeeWorld::new_deterministic(7);
    let mut group = Group::new(7, Quorum::Majority);
    let mut ctx = provisioned(&world, 1, 7, Quorum::Majority, ShardIdentity::SOLO);
    group.run(&mut ctx, &WARM);
    let checkpoint = ctx.persist_blobs().unwrap();
    let mut deltas = Vec::new();
    for _ in 0..3 {
        group.run(&mut ctx, &AHEAD);
        deltas.push(ctx.persist_batch_blobs().unwrap().state_blob);
    }

    // Crash; recover from the checkpoint and the three deltas.
    drop(ctx);
    let deltas = deltas.iter().map(|d| d.as_slice());
    let bundle = make_bundle(&checkpoint.state_blob, deltas);
    let mut ctx = boot(&world, 1);
    ctx.init(Some(&checkpoint.key_blob), Some(&bundle), true)
        .unwrap();
    group.first_after_rebuild(&mut ctx, 2);
    group.run(&mut ctx, &WARM);
}

#[test]
fn index_is_rebuilt_by_apply_replica() {
    let world = TeeWorld::new_deterministic(8);
    let member = |r| ShardIdentity::new(0, 1).with_replica(r, 3);
    let mut group = Group::new(7, Quorum::All);
    let mut leader = provisioned(&world, 1, 7, Quorum::All, member(0));
    let mut follower = provisioned(&world, 2, 7, Quorum::All, member(1));
    group.run(&mut leader, &WARM);
    for _ in 0..3 {
        group.run(&mut leader, &AHEAD);
    }
    let blob = leader.persist_blobs().unwrap().state_blob;
    follower.apply_replica(&blob).unwrap();
    // The leader dies; the clients carry on against the follower.
    group.first_after_rebuild(&mut follower, 2);
    group.run(&mut follower, &WARM);
}

#[test]
fn index_is_maintained_by_applied_delta_records() {
    // The delta twin of the test above: the follower never installs
    // `V` wholesale — it receives the touched entries batch by batch
    // through the replication stream, and its index must follow.
    let world = TeeWorld::new_deterministic(8);
    let member = |r| ShardIdentity::new(0, 1).with_replica(r, 3);
    let mut group = Group::new(7, Quorum::All);
    let mut leader = provisioned(&world, 1, 7, Quorum::All, member(0));
    let mut follower = provisioned(&world, 2, 7, Quorum::All, member(1));
    let mut ship = |leader: &mut Ctx| {
        let record = leader.persist_batch_blobs().unwrap().record.unwrap();
        follower.apply_replica(&record).unwrap();
    };
    group.run(&mut leader, &WARM[..7]);
    ship(&mut leader);
    group.run(&mut leader, &WARM[7..]);
    ship(&mut leader);
    for _ in 0..3 {
        group.run(&mut leader, &AHEAD);
        ship(&mut leader);
    }
    // The leader dies; the clients carry on against the follower.
    group.first_after_rebuild(&mut follower, 2);
    group.run(&mut follower, &WARM);
}

#[test]
fn index_is_rebuilt_by_whole_context_migration() {
    let world = TeeWorld::new_deterministic(9);
    let mut group = Group::new(7, Quorum::AtLeast(2));
    let mut origin = provisioned(&world, 1, 7, Quorum::AtLeast(2), ShardIdentity::SOLO);
    group.run(&mut origin, &WARM);
    for _ in 0..3 {
        group.run(&mut origin, &AHEAD);
    }
    let ticket = origin.export_migration().unwrap();
    let mut target = boot(&world, 2);
    target.init(None, None, true).unwrap();
    target.import_migration(&ticket, None).unwrap();
    group.first_after_rebuild(&mut target, 0);
    group.run(&mut target, &WARM);
}

/// 65 536 clients, 20 000 operations. With the definition evaluated
/// per operation this is 20 000 × 65 536² comparisons; with the index
/// the group size does not show.
#[test]
fn a_65536_client_context_serves_20000_operations() {
    const N: u32 = 65_536;
    const ACTIVE: u64 = 8_192;
    // A quorum the active clients can reach: the other 57 344 never
    // invoke and tie at the genesis sequence number.
    let quorum = Quorum::AtLeast(4_096);
    let world = TeeWorld::new_deterministic(10);
    let mut ctx = provisioned(&world, 1, N, quorum, ShardIdentity::SOLO);
    let mut clients: Vec<LcmClient> = (1..=ACTIVE as u32)
        .map(|c| LcmClient::new(ClientId(c), &k_c()))
        .collect();
    let mut model = Model::new(N, quorum);
    let mut last_q = SeqNo::ZERO;
    for i in 1..=20_000u64 {
        // 7919 is coprime to 8192, so this is a scrambled round-robin:
        // the map's watermark never falls and needs no floor here.
        let c = (i * 7919 % ACTIVE) as usize;
        let (t, q) = put(&mut ctx, &mut clients[c], i);
        assert_eq!(t, SeqNo(i));
        model.advance(c as u32 + 1, t);
        if i % 1_000 == 0 {
            assert_eq!(q, model.sorted(), "op {i}");
        }
        last_q = q;
    }
    assert_eq!(last_q, SeqNo(20_000 - ACTIVE), "one round behind");
}

/// Seals `op` as the admin's `seq`-th request and has `ctx` handle it.
fn admin(ctx: &mut Ctx, seq: u64, op: AdminOp) {
    let mut w = Writer::new();
    w.put_u64(seq);
    op.encode(&mut w);
    let channel = AeadKey::from_secret(&SecretKey::from_bytes([3u8; 32]));
    let wire = aead::auth_encrypt(&channel, &w.into_bytes(), LABEL_ADMIN).unwrap();
    ctx.handle_admin(&wire).unwrap();
}

/// A membership change rebuilds the index from a table whose slots
/// have shifted: 512 clients, one removed and later added back while
/// the others keep running, every reply's `q` checked against the
/// quadratic definition over the group as it stands. Fewer than a
/// majority run ahead of the rest, so `τ` lies among the clients left
/// behind and the boundary's rank decides `q`; and after the removal
/// the clients step from the most recent down, so that one of them
/// steps from the boundary itself.
#[test]
fn index_follows_membership_changes() {
    const N: u32 = 512;
    const GONE: usize = 199;
    let world = TeeWorld::new_deterministic(11);
    let mut group = Group::new(N, Quorum::Majority);
    let mut ctx = provisioned(&world, 1, N, Quorum::Majority, ShardIdentity::SOLO);
    // A scrambled round over the clients but `skip`; 263 is coprime to
    // 512.
    let round = |skip: Option<usize>| -> Vec<usize> {
        let order = (0..N as usize).map(|i| i * 263 % N as usize);
        order.filter(|&c| Some(c) != skip).collect()
    };
    group.run(&mut ctx, &round(None));
    group.run(&mut ctx, &round(None)[..200]);
    let moving = group.floor;
    assert!(moving > SeqNo::ZERO);

    // The client in slot 199 leaves mid-run; `kC` rotates with it.
    let k_c = SecretKey::from_bytes([4u8; 32]);
    let gone = ClientId(GONE as u32 + 1);
    admin(&mut ctx, 1, AdminOp::RemoveClient(gone, k_c.clone()));
    group.model.v.remove(&gone.0);
    for client in &mut group.clients {
        client.rotate_key(&k_c);
    }
    group.run(&mut ctx, &round(Some(GONE))[200..250]);
    let mut recent = round(Some(GONE));
    recent.sort_by_key(|&c| std::cmp::Reverse(group.model.v[&(c as u32 + 1)].1));
    group.run(&mut ctx, &recent[..300]);

    // It comes back as a new member with a genesis entry.
    admin(&mut ctx, 2, AdminOp::AddClient(gone));
    group.model.v.insert(gone.0, (SeqNo::ZERO, SeqNo::ZERO));
    group.clients[GONE] = LcmClient::new(gone, &k_c);
    group.run(&mut ctx, &round(None)[250..]);
    group.run(&mut ctx, &[GONE, GONE]);
    assert!(group.floor > moving);
}
