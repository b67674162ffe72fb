//! The replication stream, driven enclave to enclave: a group's
//! followers verify-and-apply the leader's sealed batch deltas with the
//! function delta-by-delta recovery runs, so a follower fed the stream,
//! a context recovered from the leader's medium and the leader itself
//! must be the same state at the same chain position — and a stream the
//! host drops from, duplicates, reorders, replays across generations,
//! corrupts or splices from another group must change nothing and earn
//! no acknowledgement.
//!
//! Contexts are compared by what they seal: the test provisions them
//! with a `kP` it knows, opens each context's checkpoint and compares
//! the plaintexts byte for byte. That plaintext is the whole protocol
//! state — `kC`, admin sequence, stable floor, quorum, identity,
//! routing table, every `V` entry with its cached reply (hence `t` and
//! `h`), the functionality's snapshot — followed by the chain position.
//! A public `persist_blobs()` re-roots the position, so positions are
//! compared the way the protocol compares them: a delta applies only at
//! the position it was sealed against.

use std::sync::Arc;

use lcm::core::client::{LcmClient, ReadOutcome};
use lcm::core::codec::WireCodec;
use lcm::core::context::{
    PersistBlobs, Phase, ProvisionPayload, ShardIdentity, TrustedContext, LABEL_DELTA_BLOB,
    LABEL_DELTA_BLOB_V1, LABEL_PROVISION, LABEL_STATE_BLOB,
};
use lcm::core::functionality::{Counter, Functionality};
use lcm::core::program::lcm_measurement;
use lcm::core::server::{BatchServer, SLOT_STATE_BLOB};
use lcm::core::shard::{build_replicated, build_sharded, ReplicationSpec};
use lcm::core::stability::Quorum;
use lcm::core::types::ClientId;
use lcm::core::{LcmError, Violation};
use lcm::crypto::aead::{self, AeadKey, AtRestKey, OpenKey};
use lcm::crypto::gcm::{self, GcmKey};
use lcm::crypto::keys::SecretKey;
use lcm::kvs::ops::KvOp;
use lcm::kvs::store::KvStore;
use lcm::storage::{
    make_bundle, parse_bundle, BundleStorage, DeltaLogStorage, MemoryStorage, StableStorage,
    BLOB_KIND_CHECKPOINT, BLOB_KIND_DELTA,
};
use lcm::tee::platform::TeeServices;
use lcm::tee::world::TeeWorld;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

const CLIENTS: u32 = 4;

fn k_p() -> SecretKey {
    SecretKey::from_bytes([1u8; 32])
}

fn k_c() -> SecretKey {
    SecretKey::from_bytes([2u8; 32])
}

fn boot<F: Functionality>(world: &TeeWorld, platform: u64, epoch: u64) -> TrustedContext<F> {
    let services = TeeServices::for_tests(
        world.platform_deterministic(platform),
        lcm_measurement(),
        epoch,
    );
    TrustedContext::new(services)
}

fn member(shard: u32, shards: u32, replica: u32) -> ShardIdentity {
    ShardIdentity::new(shard, shards).with_replica(replica, 3)
}

/// What a member persists through.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Store {
    /// A plain store under a host that takes no deltas: the enclave
    /// seals a checkpoint per batch.
    Blob,
    /// A plain store the way `LcmServer` runs it — behind the adapter
    /// that keeps its one slot as `checkpoint ‖ deltas`.
    Bundle,
    /// The segmented delta-log engine.
    DeltaLog,
}

impl Store {
    /// What the host announces to the enclave at `init`.
    fn takes_deltas(self) -> bool {
        self != Store::Blob
    }
}

fn arb_store() -> impl Strategy<Value = Store> {
    prop_oneof![
        Just(Store::Blob),
        Just(Store::Bundle),
        Just(Store::DeltaLog)
    ]
}

/// A context provisioned as `identity` over `store`, with the blobs
/// its provisioning sealed.
fn provisioned<F: Functionality>(
    world: &TeeWorld,
    platform: u64,
    identity: ShardIdentity,
    store: Store,
) -> (TrustedContext<F>, PersistBlobs) {
    let mut ctx = boot::<F>(world, platform, platform);
    ctx.init(None, None, store.takes_deltas()).unwrap();
    let payload = ProvisionPayload {
        k_p: k_p(),
        k_c: k_c(),
        k_a: SecretKey::from_bytes([3u8; 32]),
        clients: (1..=CLIENTS).map(ClientId).collect(),
        quorum: Quorum::Majority,
        identity,
    };
    let channel = AeadKey::from_secret(&world.admin_provision_key(&lcm_measurement()));
    let sealed = aead::auth_encrypt(&channel, &payload.to_bytes(), LABEL_PROVISION).unwrap();
    let blobs = ctx.provision(&sealed).unwrap();
    (ctx, blobs)
}

/// The plaintext of the checkpoint `ctx` seals now, split into the
/// protocol state and the (re-rooted) chain position that trails it.
fn sealed_state<F: Functionality>(ctx: &mut TrustedContext<F>) -> Vec<u8> {
    let blob = ctx.persist_blobs().unwrap().state_blob;
    assert_eq!(blob[0], BLOB_KIND_CHECKPOINT);
    let k_p = AtRestKey::from_secret(&k_p());
    let mut plain = k_p.auth_decrypt(&blob[1..], LABEL_STATE_BLOB).unwrap();
    plain.truncate(plain.len() - 32);
    plain
}

/// One member's medium, written the way `LcmServer` writes it.
struct Medium {
    /// The plain store at the bottom.
    raw: Arc<MemoryStorage>,
    storage: Arc<dyn StableStorage>,
    key_blob: Vec<u8>,
}

impl Medium {
    fn new(store: Store, provisioning: &PersistBlobs) -> Self {
        let raw = Arc::new(MemoryStorage::new());
        let storage: Arc<dyn StableStorage> = match store {
            Store::Blob => raw.clone(),
            Store::Bundle => Arc::new(BundleStorage::new(raw.clone())),
            Store::DeltaLog => Arc::new(DeltaLogStorage::open(raw.clone()).unwrap()),
        };
        let medium = Medium {
            raw,
            storage,
            key_blob: provisioning.key_blob.clone(),
        };
        medium.store(provisioning);
        medium
    }

    fn store(&self, blobs: &PersistBlobs) {
        self.storage
            .store(SLOT_STATE_BLOB, &blobs.state_blob)
            .unwrap();
    }

    /// A fresh context on `platform` recovered from this medium.
    fn recover<F: Functionality>(&self, world: &TeeWorld, platform: u64) -> TrustedContext<F> {
        let state = self.storage.load(SLOT_STATE_BLOB).unwrap().unwrap();
        let mut ctx = boot::<F>(world, platform, 100 + platform);
        ctx.init(Some(&self.key_blob), Some(&state), false).unwrap();
        ctx
    }
}

#[derive(Debug, Clone)]
enum Step {
    /// Client `client` invokes `op`. With `lost_reply` the reply never
    /// reaches it: its next turn starts with the §4.6.1 retry, which
    /// the leader serves from the reply cache — possibly batches later.
    Op {
        client: usize,
        op: Vec<u8>,
        lost_reply: bool,
    },
    /// The batch ends: the leader persists and its record ships.
    Cut,
    /// A control-plane re-seal on the leader (what admin calls and
    /// slice moves end in): a checkpoint at a fresh chain root, which
    /// the follower installs.
    Reseal,
}

fn arb_steps(op: BoxedStrategy<Vec<u8>>) -> impl Strategy<Value = Vec<Step>> {
    let step = prop_oneof![
        12 => (0..CLIENTS as usize, op, any::<u8>()).prop_map(|(client, op, lose)| Step::Op {
            client,
            op,
            lost_reply: lose % 5 == 0,
        }),
        4 => Just(Step::Cut),
        1 => Just(Step::Reseal),
    ];
    proptest::collection::vec(step, 1..120)
}

fn arb_kv_op() -> BoxedStrategy<Vec<u8>> {
    let key = (0u8..16).prop_map(|k| format!("key-{k}").into_bytes());
    let put = (key.clone(), proptest::collection::vec(any::<u8>(), 0..200))
        .prop_map(|(k, v)| KvOp::Put(k, v).to_bytes());
    let del = key.prop_map(|k| KvOp::Del(k).to_bytes());
    proptest::strategy::boxed(prop_oneof![4 => put, 1 => del])
}

fn arb_counter_op() -> BoxedStrategy<Vec<u8>> {
    proptest::strategy::boxed(
        (0u8..8, any::<u64>()).prop_map(|(n, by)| Counter::inc_op(&[b'n', n], by)),
    )
}

/// A leader and one follower of a 3-member group, enclave to enclave,
/// each over its own medium.
struct Pair<F: Functionality> {
    world: TeeWorld,
    leader: TrustedContext<F>,
    follower: TrustedContext<F>,
    leader_medium: Medium,
    follower_medium: Medium,
    clients: Vec<LcmClient>,
    /// Clients whose last reply was lost.
    owed_retry: Vec<bool>,
}

impl<F: Functionality> Pair<F> {
    fn new(seed: u64, leader_store: Store, follower_store: Store) -> Self {
        let world = TeeWorld::new_deterministic(seed);
        let (leader, l_blobs) = provisioned::<F>(&world, 1, member(0, 1, 0), leader_store);
        let (follower, f_blobs) = provisioned::<F>(&world, 2, member(0, 1, 1), follower_store);
        Pair {
            leader,
            follower,
            leader_medium: Medium::new(leader_store, &l_blobs),
            follower_medium: Medium::new(follower_store, &f_blobs),
            clients: (1..=CLIENTS)
                .map(|c| LcmClient::new(ClientId(c), &k_c()))
                .collect(),
            owed_retry: vec![false; CLIENTS as usize],
            world,
        }
    }

    /// Serves the retry `client` owes, if any, from the reply cache.
    fn settle(&mut self, client: usize) {
        if std::mem::take(&mut self.owed_retry[client]) {
            let wire = self.clients[client].retry().unwrap();
            let (_, reply) = self.leader.handle_invoke(&wire).unwrap();
            self.clients[client].handle_reply(&reply).unwrap();
        }
    }

    fn op(&mut self, client: usize, op: &[u8], lost_reply: bool) {
        self.settle(client);
        let wire = self.clients[client].invoke_for::<F>(op).unwrap();
        let (_, reply) = self.leader.handle_invoke(&wire).unwrap();
        if lost_reply {
            self.owed_retry[client] = true;
        } else {
            self.clients[client].handle_reply(&reply).unwrap();
        }
    }

    /// Ends the leader's batch; returns the record it emitted.
    fn seal_batch(&mut self) -> Vec<u8> {
        let blobs = self.leader.persist_batch_blobs().unwrap();
        self.leader_medium.store(&blobs);
        let record = blobs.record.expect("a group member emits a record");
        assert_eq!(record[0], BLOB_KIND_DELTA);
        record
    }

    /// Delivers `record` to the follower as the group would.
    fn deliver(&mut self, record: &[u8]) -> Result<(), LcmError> {
        let (ack, blobs) = self.follower.apply_replica(record)?;
        assert_eq!(
            ack[..],
            record[record.len() - 16..],
            "the ack is the record's tag"
        );
        assert!(blobs.key_blob.is_empty() && blobs.record.is_none());
        self.follower_medium.store(&blobs);
        Ok(())
    }

    fn cut(&mut self) {
        let record = self.seal_batch();
        self.deliver(&record).unwrap();
    }

    fn reseal(&mut self) {
        let blobs = self.leader.persist_blobs().unwrap();
        self.leader_medium.store(&blobs);
        self.deliver(&blobs.state_blob).unwrap();
    }

    fn run(&mut self, steps: &[Step]) {
        for step in steps {
            match step {
                Step::Op {
                    client,
                    op,
                    lost_reply,
                } => self.op(*client, op, *lost_reply),
                Step::Cut => self.cut(),
                Step::Reseal => self.reseal(),
            }
        }
        for client in 0..CLIENTS as usize {
            self.settle(client);
        }
        self.cut();
    }

    /// What leader and follower seal now. Ends the stream: both
    /// re-root.
    fn sealed_states(&mut self) -> (Vec<u8>, Vec<u8>) {
        (
            sealed_state(&mut self.leader),
            sealed_state(&mut self.follower),
        )
    }

    /// A verified read of `op` by `client`, pinned to the follower.
    fn follower_read(&mut self, client: usize, op: &[u8]) -> Result<ReadOutcome, LcmError> {
        let wire = self.clients[client].read_for::<F>(op, 1).unwrap();
        let reply = self.follower.serve_read(&wire)?;
        self.clients[client].handle_read_reply(&reply)
    }
}

/// The leader, the follower fed its stream, and a context recovered
/// from each one's medium — a checkpoint per batch, the one-slot
/// bundle, or the journal — agree on every sealed byte and on the
/// chain position.
fn replication_equals_recovery<F: Functionality>(
    steps: &[Step],
    seed: u64,
    leader_store: Store,
    follower_store: Store,
    probe_op: &[u8],
) -> Result<(), TestCaseError> {
    let mut pair = Pair::<F>::new(seed, leader_store, follower_store);
    pair.run(steps);
    let mut from_leader = pair.leader_medium.recover::<F>(&pair.world, 1);
    let mut from_follower = pair.follower_medium.recover::<F>(&pair.world, 2);

    // Positions: one more batch's record applies on all three others.
    pair.op(0, probe_op, false);
    let probe = pair.seal_batch();
    pair.deliver(&probe).unwrap();
    prop_assert!(from_leader.apply_replica(&probe).is_ok());
    prop_assert!(from_follower.apply_replica(&probe).is_ok());

    // States, byte for byte.
    let (leader, follower) = pair.sealed_states();
    prop_assert_eq!(&sealed_state(&mut from_leader), &leader);
    prop_assert_eq!(&sealed_state(&mut from_follower), &follower);
    prop_assert!(differ_in_replica_only(&leader, &follower));
    Ok(())
}

/// Whether the leader's and the follower's sealed states are the same
/// but for the replica coordinate of their identities (slot 0, slot 1).
fn differ_in_replica_only(leader: &[u8], follower: &[u8]) -> bool {
    let differing: Vec<_> = leader
        .iter()
        .zip(follower)
        .filter(|(a, b)| a != b)
        .collect();
    leader.len() == follower.len() && differing == [(&0u8, &1u8)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn replication_equals_recovery_for_the_kvs(
        steps in arb_steps(arb_kv_op()),
        seed in 0u64..1000,
        leader_store in arb_store(),
        follower_store in arb_store(),
    ) {
        let probe = KvOp::Put(b"probe".to_vec(), b"x".to_vec()).to_bytes();
        replication_equals_recovery::<KvStore>(&steps, seed, leader_store, follower_store, &probe)?;
    }

    #[test]
    fn replication_equals_recovery_for_counters(
        steps in arb_steps(arb_counter_op()),
        seed in 0u64..1000,
        leader_store in arb_store(),
        follower_store in arb_store(),
    ) {
        let probe = Counter::inc_op(b"probe", 1);
        replication_equals_recovery::<Counter>(&steps, seed, leader_store, follower_store, &probe)?;
    }
}

/// Where the host takes deltas the follower's persist for a record
/// *is* the record (nothing re-sealed), until its own cadence asks for
/// a checkpoint; where it does not, it is one checkpoint. And each
/// medium ends up holding what its kind says: the last checkpoint
/// alone, that checkpoint and the records since in the one slot of a
/// plain store, or those records in a delta log's journal.
#[test]
fn a_follower_persists_as_its_own_storage_dictates() {
    for follower_store in [Store::Blob, Store::Bundle, Store::DeltaLog] {
        let mut pair = Pair::<Counter>::new(5, Store::Blob, follower_store);
        let mut verbatim = 0;
        let mut last_checkpoint = Vec::new();
        let mut since_checkpoint: Vec<Vec<u8>> = Vec::new();
        for round in 0..40u64 {
            pair.op(0, &Counter::inc_op(b"n", round), false);
            let record = pair.seal_batch();
            let (_, blobs) = pair.follower.apply_replica(&record).unwrap();
            pair.follower_medium.store(&blobs);
            if follower_store.takes_deltas() && blobs.state_blob == record {
                verbatim += 1;
                since_checkpoint.push(record);
            } else {
                assert_eq!(blobs.state_blob[0], BLOB_KIND_CHECKPOINT);
                last_checkpoint = blobs.state_blob;
                since_checkpoint.clear();
            }
        }
        let slot = pair.follower_medium.raw.load(SLOT_STATE_BLOB).unwrap();
        match follower_store {
            Store::Blob => {
                assert_eq!(verbatim, 0);
                assert_eq!(slot, Some(last_checkpoint));
            }
            Store::Bundle => {
                assert!((30..40).contains(&verbatim), "{verbatim} of 40 verbatim");
                assert!(!since_checkpoint.is_empty(), "the run ends mid-cadence");
                let slot = slot.unwrap();
                let (checkpoint, records) = parse_bundle(&slot).unwrap();
                assert_eq!(checkpoint, &last_checkpoint[..]);
                assert_eq!(records, since_checkpoint);
            }
            Store::DeltaLog => {
                assert!((30..40).contains(&verbatim), "{verbatim} of 40 verbatim");
                // Nothing under the slot's own name: the engine spreads
                // it over checkpoint slots and journal segments ...
                assert_eq!(slot, None);
                // ... and reassembles exactly the records since the
                // last checkpoint.
                let state = pair.follower_medium.storage.load(SLOT_STATE_BLOB);
                let state = state.unwrap().unwrap();
                let (checkpoint, records) = parse_bundle(&state).unwrap();
                assert_eq!(checkpoint, &last_checkpoint[..]);
                assert_eq!(records, since_checkpoint);
            }
        }
    }
}

const N: &[u8] = b"n";

fn inc() -> Vec<u8> {
    Counter::inc_op(N, 1)
}

/// The follower's counter as client `client` reads it there.
fn read_n(pair: &mut Pair<Counter>, client: usize) -> Result<ReadOutcome, LcmError> {
    pair.follower_read(client, &Counter::read_op(N))
}

fn fresh_value(outcome: Result<ReadOutcome, LcmError>) -> u64 {
    match outcome {
        Ok(ReadOutcome::Fresh(done)) => Counter::decode_result(&done.result).unwrap(),
        other => panic!("expected a fresh read, got {other:?}"),
    }
}

/// Three batches of one increment each, by clients 0, 1 and 2.
fn three_records(pair: &mut Pair<Counter>) -> [Vec<u8>; 3] {
    [0, 1, 2].map(|client| {
        pair.op(client, &inc(), false);
        pair.seal_batch()
    })
}

#[test]
fn a_dropped_record_is_refused_until_the_gap_is_filled() {
    let mut pair = Pair::<Counter>::new(11, Store::Blob, Store::Blob);
    let [r1, r2, r3] = three_records(&mut pair);
    pair.deliver(&r1).unwrap();
    // r2 never arrives.
    assert_eq!(pair.deliver(&r3), Err(LcmError::RecordOutOfOrder));
    // Nothing moved: client 0 (in r1) reads its own write, client 1
    // (in the dropped r2) is told the member is behind.
    assert_eq!(fresh_value(read_n(&mut pair, 0)), 1);
    assert_eq!(read_n(&mut pair, 1), Ok(ReadOutcome::Behind));
    // The stream resumes exactly where it stopped.
    pair.deliver(&r2).unwrap();
    pair.deliver(&r3).unwrap();
    assert_eq!(fresh_value(read_n(&mut pair, 2)), 3);
    let (leader, follower) = pair.sealed_states();
    assert!(differ_in_replica_only(&leader, &follower));
}

#[test]
fn a_duplicated_record_is_refused() {
    let mut pair = Pair::<Counter>::new(12, Store::Blob, Store::Blob);
    let [r1, r2, _] = three_records(&mut pair);
    pair.deliver(&r1).unwrap();
    assert_eq!(pair.deliver(&r1), Err(LcmError::RecordOutOfOrder));
    assert_eq!(fresh_value(read_n(&mut pair, 0)), 1, "applied once");
    pair.deliver(&r2).unwrap();
    assert_eq!(fresh_value(read_n(&mut pair, 1)), 2);
}

#[test]
fn swapped_records_apply_only_in_order() {
    let mut pair = Pair::<Counter>::new(13, Store::Blob, Store::Blob);
    let [r1, r2, _] = three_records(&mut pair);
    assert_eq!(pair.deliver(&r2), Err(LcmError::RecordOutOfOrder));
    assert_eq!(read_n(&mut pair, 0), Ok(ReadOutcome::Behind));
    pair.deliver(&r1).unwrap();
    pair.deliver(&r2).unwrap();
    assert_eq!(fresh_value(read_n(&mut pair, 1)), 2);
}

#[test]
fn a_record_from_before_a_control_plane_checkpoint_does_not_apply_after_it() {
    let mut pair = Pair::<Counter>::new(14, Store::Blob, Store::Blob);
    let [r1, r2, _] = three_records(&mut pair);
    pair.deliver(&r1).unwrap();
    // The leader re-seals at a fresh root (as an admin call would) with
    // r2's batch inside; the follower installs that checkpoint.
    pair.reseal();
    assert_eq!(fresh_value(read_n(&mut pair, 2)), 3);
    // Neither the old generation's applied record nor its undelivered
    // one fits the new root.
    assert_eq!(pair.deliver(&r1), Err(LcmError::RecordOutOfOrder));
    assert_eq!(pair.deliver(&r2), Err(LcmError::RecordOutOfOrder));
    assert_eq!(fresh_value(read_n(&mut pair, 2)), 3);
    // The new generation's stream does.
    pair.op(3, &inc(), false);
    pair.cut();
    assert_eq!(fresh_value(read_n(&mut pair, 3)), 4);
}

#[test]
fn a_corrupted_record_is_a_violation() {
    let mut pair = Pair::<Counter>::new(15, Store::Blob, Store::Blob);
    let [r1, r2, _] = three_records(&mut pair);
    pair.deliver(&r1).unwrap();
    let mut bad = r2.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 1;
    assert_eq!(
        pair.follower.apply_replica(&bad).map(|(ack, _)| ack),
        Err(LcmError::Violation(Violation::BadAuthentication))
    );
    // Unlike a refusal this is tampering: the enclave is done, and its
    // medium still holds r1's state and nothing of r2.
    assert_eq!(pair.deliver(&r2), Err(LcmError::Halted));
    let mut recovered = pair.follower_medium.recover::<Counter>(&pair.world, 2);
    assert_eq!(recovered.functionality().value(N), 1);
    assert!(recovered.apply_replica(&r2).is_ok());
}

#[test]
fn another_groups_records_do_not_apply() {
    let mut pair = Pair::<Counter>::new(16, Store::Blob, Store::Blob);
    // Shard 1's group of the same deployment: same kP, other slot.
    let world = TeeWorld::new_deterministic(16);
    let (mut home, _) = provisioned::<Counter>(&world, 1, member(0, 2, 0), Store::Blob);
    let (mut follower, _) = provisioned::<Counter>(&world, 2, member(0, 2, 1), Store::Blob);
    let (mut foreign, foreign_blobs) =
        provisioned::<Counter>(&world, 3, member(1, 2, 0), Store::Blob);
    let foreign_record = foreign.persist_batch_blobs().unwrap().record.unwrap();
    let home_record = home.persist_batch_blobs().unwrap().record.unwrap();

    // Its delta opens under the shared kP but was sealed against a
    // position this group never stands at.
    assert_eq!(
        follower.apply_replica(&foreign_record).map(|(ack, _)| ack),
        Err(LcmError::RecordOutOfOrder)
    );
    assert!(follower.apply_replica(&home_record).is_ok());
    // Its checkpoint names the other group: a violation.
    assert!(matches!(
        follower.apply_replica(&foreign_blobs.state_blob),
        Err(LcmError::Violation(Violation::WrongShard { owner: 1, .. }))
    ));
    // And a 1-shard deployment's group is a different group again.
    assert_eq!(pair.deliver(&home_record), Err(LcmError::RecordOutOfOrder));
}

/// The anchor rule, through recovery: a member's batch-path checkpoint
/// *records* the position its delta arrived at, so the chain runs on
/// across checkpoints — and still a delta fits nowhere but the one
/// position it was sealed against, and nothing sealed before a
/// control-plane re-seal fits after it.
#[test]
fn bundles_recover_only_along_the_chain() {
    let mut pair = Pair::<Counter>::new(17, Store::Blob, Store::Blob);
    // Batch k on a blob-store member: its own checkpoint c_k beside
    // the record d_k.
    let batch = |pair: &mut Pair<Counter>| {
        pair.op(0, &inc(), false);
        let blobs = pair.leader.persist_batch_blobs().unwrap();
        (blobs.state_blob, blobs.record.unwrap())
    };
    let (c1, _d1) = batch(&mut pair);
    let (c2, d2) = batch(&mut pair);
    let (c3, d3) = batch(&mut pair);
    let resealed = pair.leader.persist_blobs().unwrap().state_blob;
    let (_c4, d4) = batch(&mut pair);

    let key_blob = pair.leader_medium.key_blob.clone();
    let recover = |checkpoint: &[u8], deltas: &[&[u8]]| {
        let bundle = make_bundle(checkpoint, deltas.iter().copied());
        let mut ctx = boot::<Counter>(&pair.world, 1, 200);
        ctx.init(Some(&key_blob), Some(&bundle), false)
            .map(|_| ctx.functionality().value(N))
    };
    let broken = Err(LcmError::Violation(Violation::BadAuthentication));
    assert_eq!(recover(&c1, &[&d2, &d3]), Ok(3), "across two checkpoints");
    assert_eq!(recover(&c2, &[&d3]), Ok(3));
    assert_eq!(recover(&c1, &[&d3]), broken, "a gap");
    assert_eq!(recover(&c2, &[&d2]), broken, "a delta already inside");
    assert_eq!(recover(&c3, &[&d4]), broken, "across a re-seal");
    assert_eq!(recover(&resealed, &[&d4]), Ok(4));
}

/// Every single-bit flip of a sealed checkpoint and of a sealed delta
/// — kind byte, nonce, body and tag alike — is refused by a follower's
/// `apply_replica` and by a rebooting enclave's `init`, and nothing of
/// the flipped blob is applied: the follower stays at the state it
/// had, the rebooted enclave serves nothing. Both blobs are AES-128-GCM
/// under `kP`, the delta under the tag-chained label `lcm.delta.2`: a
/// flip cannot make it open under the older label either.
#[test]
fn every_bit_flip_of_a_sealed_checkpoint_or_delta_is_refused_by_apply_and_init() {
    let mut pair = Pair::<Counter>::new(18, Store::Blob, Store::Blob);
    pair.op(0, &inc(), false);
    pair.cut();
    // The leader's checkpoint at 1, then its checkpoint and delta at 2.
    let base = pair.leader_medium.storage.load(SLOT_STATE_BLOB);
    let base = base.unwrap().unwrap();
    pair.op(1, &inc(), false);
    let blobs = pair.leader.persist_batch_blobs().unwrap();
    let (checkpoint, delta) = (blobs.state_blob, blobs.record.unwrap());
    let aes = GcmKey::from_secret(&k_p());
    assert!(gcm::auth_decrypt(&aes, &checkpoint[1..], LABEL_STATE_BLOB).is_ok());
    assert!(gcm::auth_decrypt(&aes, &delta[1..], LABEL_DELTA_BLOB).is_ok());
    assert!(gcm::auth_decrypt(&aes, &delta[1..], LABEL_DELTA_BLOB_V1).is_err());

    let key_blob = pair.leader_medium.key_blob.clone();
    for (what, blob) in [("checkpoint", &checkpoint), ("delta", &delta)] {
        for bit in 0..blob.len() * 8 {
            let mut flipped = blob.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let mut follower = pair.follower_medium.recover::<Counter>(&pair.world, 2);
            assert!(
                matches!(
                    follower.apply_replica(&flipped),
                    Err(LcmError::Violation(_))
                ),
                "apply of the {what} with bit {bit} flipped"
            );
            assert_eq!(follower.functionality().value(N), 1, "{what} bit {bit}");

            // At a reboot the checkpoint is the state slot, the delta
            // the journal's record after the checkpoint it extends,
            // which is restored (and halted on) before the delta fails.
            let (state, restored) = match blob[0] {
                BLOB_KIND_CHECKPOINT => (flipped, 0),
                _ => (make_bundle(&base, [&flipped[..]].into_iter()), 1),
            };
            let mut rebooted = boot::<Counter>(&pair.world, 1, 300);
            let refused = rebooted.init(Some(&key_blob), Some(&state), false);
            assert!(
                matches!(refused, Err(LcmError::Violation(_))),
                "init over the {what} with bit {bit} flipped: {refused:?}"
            );
            assert_eq!(rebooted.phase(), Phase::Halted, "{what} bit {bit}");
            assert_eq!(
                rebooted.functionality().value(N),
                restored,
                "{what} bit {bit}"
            );
        }
    }
    // Unflipped, both apply.
    let mut follower = pair.follower_medium.recover::<Counter>(&pair.world, 2);
    follower.apply_replica(&delta).unwrap();
    assert_eq!(follower.functionality().value(N), 2);
    let mut follower = pair.follower_medium.recover::<Counter>(&pair.world, 2);
    follower.apply_replica(&checkpoint).unwrap();
    assert_eq!(follower.functionality().value(N), 2);
}

/// The position a delta was sealed at: the first 32 bytes of its
/// plaintext.
fn sealed_at(delta: &[u8]) -> Vec<u8> {
    let plain = AtRestKey::from_secret(&k_p()).auth_decrypt(&delta[1..], LABEL_DELTA_BLOB);
    plain.unwrap()[..32].to_vec()
}

/// A host forks a member: it boots two enclaves from one medium and
/// hands both the same wires. Each seals a delta at the one position
/// the medium holds — the same plaintext, under its own lifetime's
/// nonce — and the two deltas move their forks to different positions,
/// each `H("lcm.delta-tag-chain" ‖ prev ‖ nonce ‖ tag)` of its own
/// sealed bytes. Neither fork's next delta then fits the other: a
/// follower that took one branch refuses the other's record, and a
/// journal spliced from both halts the reboot.
#[test]
fn forks_of_one_medium_chain_apart_and_neither_s_next_delta_fits_the_other() {
    let mut pair = Pair::<Counter>::new(19, Store::Blob, Store::Blob);
    pair.op(0, &inc(), false);
    pair.cut();
    let base = pair.leader_medium.storage.load(SLOT_STATE_BLOB);
    let base = base.unwrap().unwrap();
    let key_blob = pair.leader_medium.key_blob.clone();
    let mut forks = [400, 401].map(|epoch| {
        let mut fork = boot::<Counter>(&pair.world, 1, epoch);
        fork.init(Some(&key_blob), Some(&base), false).unwrap();
        fork
    });
    // Two batches, each one client's first operation, on both forks.
    let mut batch = |client: usize| {
        let wire = pair.clients[client].invoke_for::<Counter>(&inc()).unwrap();
        forks.each_mut().map(|fork| {
            fork.handle_invoke(&wire).unwrap();
            fork.persist_batch_blobs().unwrap().record.unwrap()
        })
    };
    let [a1, b1] = batch(1);
    let [a2, b2] = batch(2);

    let position = |prev: &[u8], d: &[u8]| {
        let input = [b"lcm.delta-tag-chain", prev, &d[1..13], &d[d.len() - 16..]].concat();
        lcm::crypto::sha256::digest(&input).as_bytes().to_vec()
    };
    assert_eq!(sealed_at(&a1), sealed_at(&b1), "one position forked");
    let plain = |d: &[u8]| AtRestKey::from_secret(&k_p()).auth_decrypt(&d[1..], LABEL_DELTA_BLOB);
    assert_eq!(plain(&a1).unwrap(), plain(&b1).unwrap(), "one plaintext");
    assert_ne!(sealed_at(&a2), sealed_at(&b2), "two positions");
    assert_eq!(sealed_at(&a2), position(&sealed_at(&a1), &a1));
    assert_eq!(sealed_at(&b2), position(&sealed_at(&b1), &b1));

    // A follower on one branch refuses the other's next record, and
    // still takes its own.
    for (own, next, other) in [(&a1, &a2, &b2), (&b1, &b2, &a2)] {
        let mut follower = pair.follower_medium.recover::<Counter>(&pair.world, 2);
        follower.apply_replica(own).unwrap();
        assert_eq!(
            follower.apply_replica(other).map(|(ack, _)| ack),
            Err(LcmError::RecordOutOfOrder)
        );
        assert_eq!(follower.functionality().value(N), 2);
        follower.apply_replica(next).unwrap();
        assert_eq!(follower.functionality().value(N), 3);
    }
    // A journal spliced from both branches halts the reboot; either
    // branch whole recovers.
    let reboot = |deltas: [&[u8]; 2]| {
        let mut ctx = boot::<Counter>(&pair.world, 1, 500);
        let bundle = make_bundle(&base, deltas.into_iter());
        let outcome = ctx.init(Some(&key_blob), Some(&bundle), false);
        (outcome.map(|_| ctx.functionality().value(N)), ctx.phase())
    };
    let halted = (
        Err(LcmError::Violation(Violation::BadAuthentication)),
        Phase::Halted,
    );
    assert_eq!(reboot([&a1, &b2]), halted);
    assert_eq!(reboot([&b1, &a2]), halted);
    assert_eq!(reboot([&a1, &a2]), (Ok(3), Phase::Ready));
    assert_eq!(reboot([&b1, &b2]), (Ok(3), Phase::Ready));
}

/// A plain medium that keeps every blob ever stored to it.
#[derive(Default)]
struct Recording {
    inner: MemoryStorage,
    stored: std::sync::Mutex<Vec<Vec<u8>>>,
}

impl StableStorage for Recording {
    fn store(&self, slot: &str, blob: &[u8]) -> Result<(), lcm::storage::StorageError> {
        self.stored.lock().unwrap().push(blob.to_vec());
        self.inner.store(slot, blob)
    }
    fn load(&self, slot: &str) -> Result<Option<Vec<u8>>, lcm::storage::StorageError> {
        self.inner.load(slot)
    }
}

/// `kP` is shared by every member of a group and outlives every
/// enclave lifetime, and under GCM one repeated nonce gives away the
/// authentication key of every blob sealed under it. So: every
/// checkpoint and delta a 3-member group puts on its members' media —
/// through a leader kill and promotion, a power-failed member, and
/// reboots that level members with the leader's state — has a nonce
/// no other sealed blob has.
#[test]
fn every_checkpoint_and_delta_on_a_group_s_media_has_its_own_nonce() {
    use lcm::core::admin::AdminHandle;
    use std::collections::hash_map::Entry;
    let world = TeeWorld::new_deterministic(23);
    let medium = Arc::new(Recording::default());
    let spec = ReplicationSpec {
        shards: 1,
        replicas: 3,
        quorum: Quorum::Majority,
    };
    let mut group = build_replicated::<Counter>(&world, 1, medium.clone(), 4, spec, false);
    assert!(group.boot().unwrap());
    let ids: Vec<ClientId> = (1..=CLIENTS).map(ClientId).collect();
    let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 4);
    admin.bootstrap(&mut group).unwrap();
    let mut clients: Vec<LcmClient> = ids
        .iter()
        .map(|&id| LcmClient::new_sharded(id, admin.client_key(), 1))
        .collect();
    let mut rounds = |group: &mut dyn BatchServer, n: usize| {
        for _ in 0..n {
            for client in &mut clients {
                group.submit(client.invoke_for::<Counter>(&inc()).unwrap());
            }
            for (id, wire) in group.process_all().unwrap() {
                clients[id.0 as usize - 1].handle_reply(&wire).unwrap();
            }
        }
    };
    rounds(&mut group, 3);
    group.kill_member(0, 0, false).unwrap(); // the leader: 1 is promoted
    rounds(&mut group, 3);
    group.reboot_member(0, 0).unwrap();
    rounds(&mut group, 3);
    group.kill_member(0, 2, true).unwrap();
    rounds(&mut group, 2);
    group.reboot_member(0, 2).unwrap();
    group.kill_member(0, 1, false).unwrap(); // the leader again
    rounds(&mut group, 3);
    group.reboot_member(0, 1).unwrap();
    rounds(&mut group, 2);
    group.flush_persists().unwrap();

    let mut by_nonce = std::collections::HashMap::new();
    let mut kinds = [0usize; 3];
    let stored = std::mem::take(&mut *medium.stored.lock().unwrap());
    for stored in &stored {
        let sealed: Vec<&[u8]> = match parse_bundle(stored) {
            Some((checkpoint, deltas)) => [checkpoint].into_iter().chain(deltas).collect(),
            None => vec![stored],
        };
        for blob in sealed {
            if !matches!(blob[0], BLOB_KIND_CHECKPOINT | BLOB_KIND_DELTA) {
                continue;
            }
            // The same blob stored again (a follower's copy of the
            // leader's delta, a bundle rewritten) is one seal.
            let nonce = blob[1..1 + gcm::NONCE_LEN].to_vec();
            match by_nonce.entry(nonce) {
                Entry::Vacant(seal) => {
                    seal.insert(blob);
                    kinds[usize::from(blob[0])] += 1;
                }
                Entry::Occupied(seal) => {
                    assert!(
                        *seal.get() == blob,
                        "two blobs share the nonce {:02x?}",
                        seal.key()
                    )
                }
            }
        }
    }
    // Checkpoints sealed by every member (installs, cadence) and the
    // leaders' deltas.
    println!("distinct checkpoints and deltas: {:?}", &kinds[1..]);
    assert!(kinds[1] >= 5 && kinds[2] >= 12, "{kinds:?}");
}

/// Client 0's operation writing `preload` records of 100 B.
fn fill(preload: u32) -> KvOp {
    KvOp::Fill {
        pin: b"fill".to_vec(),
        start: 0,
        count: preload,
        value_len: 100,
    }
}

/// One 100 B `Put` from each of the eight clients, keys tagged `tag`.
fn puts(tag: u32) -> Vec<(usize, KvOp)> {
    (0..8)
        .map(|c| {
            let key = format!("w{c}-{tag}").into_bytes();
            (c, KvOp::Put(key, vec![7u8; 100]))
        })
        .collect()
}

/// One 8-Put batch through a `replicas`-member KVS group (a solo lane
/// for `replicas == 1`) on top of `preload` records.
struct OneBatch {
    /// The batch's sealed delta: the record the leader's enclave
    /// sealed, stored by the leader and shipped to every follower.
    record: Vec<u8>,
    /// Whether each member's slot ends in `record` right after the
    /// batch.
    ends_in_record: Vec<bool>,
    /// The same after `flush_persists`.
    ends_in_record_after_flush: Vec<bool>,
    /// Storage loads performed for the batch.
    loads: u64,
}

impl OneBatch {
    fn holders(ends_in_record: &[bool]) -> usize {
        ends_in_record.iter().filter(|&&held| held).count()
    }
}

fn one_batch<S: StableStorage + 'static>(preload: u32, replicas: u32, medium: S) -> OneBatch {
    use lcm::core::admin::AdminHandle;
    use lcm::storage::{DelayedStorage, NamespacedStorage};
    let world = TeeWorld::new_deterministic(21);
    // Zero delay: the wrapper is here for its load counter.
    let counting = Arc::new(DelayedStorage::new(medium, std::time::Duration::ZERO));
    let lane = NamespacedStorage::shard_prefix(0);
    let (mut group, regions) = if replicas == 1 {
        let solo = build_sharded::<KvStore>(&world, 1, counting.clone(), 16, 1, false);
        (solo, vec![lane])
    } else {
        let spec = ReplicationSpec {
            shards: 1,
            replicas,
            quorum: Quorum::Majority,
        };
        let group = build_replicated::<KvStore>(&world, 1, counting.clone(), 16, spec, false);
        let regions = (0..replicas).map(|r| format!("{lane}rep{r}."));
        (group, regions.collect())
    };
    assert!(group.boot().unwrap());
    let ids: Vec<ClientId> = (1..=8).map(ClientId).collect();
    let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 3);
    admin.bootstrap(&mut group).unwrap();
    let mut clients: Vec<LcmClient> = ids
        .iter()
        .map(|&id| LcmClient::new_sharded(id, admin.client_key(), 1))
        .collect();
    let mut round = |ops: Vec<(usize, KvOp)>| {
        let n = ops.len();
        for (c, op) in ops {
            let wire = clients[c].invoke_for::<KvStore>(&op.to_bytes()).unwrap();
            group.submit(wire);
        }
        let replies = group.process_all().unwrap();
        assert_eq!(replies.len(), n, "released at quorum in the same step");
        for (id, wire) in replies {
            clients[id.0 as usize - 1].handle_reply(&wire).unwrap();
        }
    };
    round(vec![(0, fill(preload))]);
    // Let the fill's deferred compaction checkpoint happen first.
    round(puts(0));
    round(puts(1));

    let loads_before = counting.loads();
    round(puts(2));
    let loads = counting.loads() - loads_before;
    let last_deltas = || -> Vec<Option<Vec<u8>>> {
        regions
            .iter()
            .map(|region| {
                let slot = counting
                    .load(&format!("{region}{SLOT_STATE_BLOB}"))
                    .unwrap()?;
                let (_, deltas) = parse_bundle(&slot)?;
                deltas.last().map(|delta| delta.to_vec())
            })
            .collect()
    };
    let after_batch = last_deltas();
    group.flush_persists().unwrap();
    let after_flush = last_deltas();
    // Member 0 leads throughout: its slot ends in the record.
    let record = after_batch[0].clone().expect("the leader stored a delta");
    let ends_in = |slots: Vec<Option<Vec<u8>>>| -> Vec<bool> {
        slots.iter().map(|d| d.as_ref() == Some(&record)).collect()
    };
    OneBatch {
        ends_in_record: ends_in(after_batch),
        ends_in_record_after_flush: ends_in(after_flush),
        record,
        loads,
    }
}

/// The batch's record is the same size at 5 000 and 50 000 resident
/// records, well under a page, and costs no load on the batch path. A
/// quorum of members stores it in the batch's own step; the rest
/// store it with their next flush.
fn assert_batch_shaped(replicas: u32, small: &OneBatch, large: &OneBatch) {
    let quorum = Quorum::Majority.required(replicas as usize);
    for run in [small, large] {
        assert_eq!(
            OneBatch::holders(&run.ends_in_record),
            quorum,
            "right after the batch, exactly a quorum's slots end in its delta: {:?}",
            run.ends_in_record
        );
        assert_eq!(
            OneBatch::holders(&run.ends_in_record_after_flush),
            replicas as usize,
            "after flush_persists every member's slot ends in the leader's delta, verbatim"
        );
    }
    assert!(small.record.len() < 4096, "{} B", small.record.len());
    assert_eq!(
        small.record.len(),
        large.record.len(),
        "the record is batch-shaped, not state-shaped"
    );
    assert_eq!(
        (small.loads, large.loads),
        (0, 0),
        "no load on the batch path"
    );
}

#[test]
fn shipped_bytes_do_not_depend_on_state() {
    let delta_log = || DeltaLogStorage::open(Arc::new(MemoryStorage::new())).unwrap();
    let small = one_batch(5_000, 3, delta_log());
    let large = one_batch(50_000, 3, delta_log());
    assert_batch_shaped(3, &small, &large);
}

/// What PR 15 did for the bytes a group ships, the bundle adapter does
/// for the bytes every enclave seals: over a plain store — solo or in
/// a group — a batch seals one delta, not the state.
#[test]
fn sealed_bytes_per_batch_do_not_depend_on_state_on_a_plain_store() {
    for replicas in [1, 3] {
        let small = one_batch(5_000, replicas, MemoryStorage::new());
        let large = one_batch(50_000, replicas, MemoryStorage::new());
        assert_batch_shaped(replicas, &small, &large);
    }
}

/// A plain medium that counts the bytes stored to it.
#[derive(Default)]
struct ByteCounting {
    inner: MemoryStorage,
    bytes: std::sync::atomic::AtomicU64,
}

impl StableStorage for ByteCounting {
    fn store(&self, slot: &str, blob: &[u8]) -> Result<(), lcm::storage::StorageError> {
        self.bytes
            .fetch_add(blob.len() as u64, std::sync::atomic::Ordering::Relaxed);
        self.inner.store(slot, blob)
    }
    fn load(&self, slot: &str) -> Result<Option<Vec<u8>>, lcm::storage::StorageError> {
        self.inner.load(slot)
    }
}

/// The bytes one 8-Put batch puts on the plain medium under a
/// `replicas`-member deployment from `DeploymentBuilder`, on top of
/// `preload` records — every member's share, the straggler's included
/// (`flush_persists` before and after).
fn device_bytes_of_one_batch(preload: u32, replicas: u32) -> u64 {
    use lcm::deployment::DeploymentBuilder;
    use std::sync::atomic::Ordering;
    let medium = Arc::new(ByteCounting::default());
    let ids: Vec<ClientId> = (1..=8).map(ClientId).collect();
    let mut dep = DeploymentBuilder::<KvStore>::new()
        .replicas(replicas)
        .clients(ids.clone())
        .storage(medium.clone())
        .build()
        .unwrap();
    let mut clients: Vec<LcmClient> = ids.iter().map(|&id| dep.client(id)).collect();
    let mut round = |ops: Vec<(usize, KvOp)>| {
        let n = ops.len();
        for (c, op) in ops {
            let wire = clients[c].invoke_for::<KvStore>(&op.to_bytes()).unwrap();
            dep.frontend_mut().submit(wire);
        }
        let replies = dep.process_all().unwrap();
        assert_eq!(replies.len(), n);
        for (id, wire) in replies {
            clients[id.0 as usize - 1].handle_reply(&wire).unwrap();
        }
        dep.frontend_mut().flush_persists().unwrap();
        medium.bytes.load(Ordering::Relaxed)
    };
    round(vec![(0, fill(preload))]);
    // Let the fill's deferred compaction checkpoint happen first.
    round(puts(0));
    let before = round(puts(1));
    round(puts(2)) - before
}

/// What the sealed delta did for the bytes an enclave seals, the
/// deployment's journal does for the bytes the device takes: a
/// deployment over a plain medium journals each batch's deltas instead
/// of rewriting every member's whole `checkpoint ‖ deltas` slot.
#[test]
fn device_bytes_per_batch_do_not_depend_on_state_in_a_deployment_over_a_plain_store() {
    for replicas in [1, 3] {
        let small = device_bytes_of_one_batch(5_000, replicas);
        let large = device_bytes_of_one_batch(50_000, replicas);
        println!("{replicas} replicas: {small} B at 5 000 records, {large} B at 50 000");
        // 5 000 records of 100 B are ≈ 0.5 MB of state per member.
        assert!(
            small < 64 * 1024 * u64::from(replicas),
            "{small} B for one batch of 8 Puts"
        );
        assert!(
            large <= small + small / 4,
            "{large} B at 50 000 records against {small} B at 5 000"
        );
    }
}
