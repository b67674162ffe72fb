//! Adversarial integration tests: every power the paper grants the
//! malicious server (§2.3), exercised against the real stack, must be
//! either harmless or detected.
//!
//! Each scenario runs against both server modes (synchronous loop and
//! asynchronous-write pipeline). Where the adversary inspects or
//! re-modes storage, the scenario first calls
//! `BatchServer::flush_persists` — the adversary acts on a quiescent
//! medium, so in-flight background writes cannot race the attack
//! setup (on the synchronous server this is a no-op).

mod common;

use std::sync::Arc;

use common::{all_modes, mk_client, mk_server, Mode};
use lcm::core::admin::AdminHandle;
use lcm::core::routing::slice_of;
use lcm::core::server::BatchServer;
use lcm::core::shard::route_hash;
use lcm::core::stability::Quorum;
use lcm::core::types::ClientId;
use lcm::core::verify::check_single_history;
use lcm::core::LcmError;
use lcm::kvs::client::KvsClient;
use lcm::kvs::ops::KvOp;
use lcm::kvs::store::KvStore;
use lcm::storage::{AdversaryMode, RollbackStorage, StableStorage, Version};
use lcm::tee::world::TeeWorld;

fn setup_adversarial(
    mode: Mode,
    n_clients: u32,
    seed: u64,
) -> (
    TeeWorld,
    Arc<RollbackStorage>,
    Box<dyn BatchServer>,
    AdminHandle,
    Vec<KvsClient>,
) {
    let world = TeeWorld::new_deterministic(seed);
    let storage = Arc::new(RollbackStorage::new());
    let mut server = mk_server::<KvStore>(mode, &world, 1, storage.clone(), 1);
    server.boot().unwrap();
    let ids: Vec<ClientId> = (1..=n_clients).map(ClientId).collect();
    let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, seed);
    admin.bootstrap(&mut *server).unwrap();
    let clients = ids
        .iter()
        .map(|&id| {
            let mut c = mk_client(mode, id, admin.client_key());
            c.lcm_mut().set_recording(true);
            c
        })
        .collect();
    (world, storage, server, admin, clients)
}

/// Forks `storage` at the latest version of every shard's slots and
/// boots a second server instance of the same mode on the branch.
fn fork_second_instance(
    mode: Mode,
    storage: &Arc<RollbackStorage>,
    seed: u64,
) -> Box<dyn BatchServer> {
    // Seed the branch from shard 0's state, then copy every remaining
    // slot (other shards' states, all key blobs) at latest.
    let first_state = mode.state_slot(0);
    let state_v = storage.history().latest_version(&first_state).unwrap();
    let branch = storage.fork_at(&first_state, state_v).unwrap();
    for shard in 0..mode.shards() {
        for replica in 0..mode.replicas() {
            let mut slots = vec![mode.member_key_slot(shard, replica)];
            let state = mode.member_state_slot(shard, replica);
            if state != first_state {
                slots.push(state);
            }
            for slot in slots {
                let v = storage.history().latest_version(&slot).unwrap();
                branch
                    .store(&slot, &storage.history().load_version(&slot, v).unwrap())
                    .unwrap();
            }
        }
    }
    let world = TeeWorld::new_deterministic(seed);
    let mut server_b = mk_server::<KvStore>(mode, &world, 1, Arc::new(branch), 1);
    server_b.boot().unwrap();
    server_b
}

fn rollback_one_step_detected_by_victim(mode: Mode) {
    let (_w, storage, mut server, _a, mut clients) = setup_adversarial(mode, 1, 21);
    let c = &mut clients[0];
    c.put(&mut *server, b"k", b"v1").unwrap();
    c.put(&mut *server, b"k", b"v2").unwrap();

    server.flush_persists().unwrap();
    storage.set_mode(AdversaryMode::ServeStale { steps_back: 1 });
    server.crash();
    server.boot().unwrap();

    let err = c.get(&mut *server, b"k").unwrap_err();
    assert!(err.is_violation(), "got {err:?}");
}

fn rollback_to_genesis_detected(mode: Mode) {
    let (_w, storage, mut server, _a, mut clients) = setup_adversarial(mode, 2, 22);
    clients[0].put(&mut *server, b"k", b"v1").unwrap();
    clients[1].put(&mut *server, b"k", b"v2").unwrap();

    // Roll all the way back to the freshly-provisioned state.
    server.flush_persists().unwrap();
    storage.set_mode(AdversaryMode::ServeVersion(Version(0)));
    server.crash();
    server.boot().unwrap();

    let err = clients[0].get(&mut *server, b"k").unwrap_err();
    assert!(err.is_violation());
}

fn dropped_writes_surface_as_rollback_on_restart(mode: Mode) {
    let (_w, storage, mut server, _a, mut clients) = setup_adversarial(mode, 1, 23);
    let c = &mut clients[0];
    c.put(&mut *server, b"k", b"v1").unwrap();
    // The server silently discards all subsequent persistence.
    server.flush_persists().unwrap();
    storage.set_mode(AdversaryMode::DropWrites);
    c.put(&mut *server, b"k", b"v2").unwrap();
    c.put(&mut *server, b"k", b"v3").unwrap();

    server.flush_persists().unwrap();
    storage.set_mode(AdversaryMode::Honest);
    server.crash();
    server.boot().unwrap();

    // T recovered from the last version that actually hit storage; the
    // client's context is ahead ⇒ detected.
    let err = c.get(&mut *server, b"k").unwrap_err();
    assert!(err.is_violation());
}

fn fork_detected_when_clients_cross(mode: Mode) {
    let (_w, storage, mut server_a, _admin, mut clients) = setup_adversarial(mode, 3, 24);
    let (alice, rest) = clients.split_at_mut(1);
    let alice = &mut alice[0];
    let bob = &mut rest[0];

    alice.put(&mut *server_a, b"doc", b"v1").unwrap();
    bob.put(&mut *server_a, b"doc", b"v2").unwrap();

    // Fork the storage and start a second instance.
    server_a.flush_persists().unwrap();
    let mut server_b = fork_second_instance(mode, &storage, 24);

    // Divergent progress on both branches.
    alice.put(&mut *server_a, b"doc", b"a-edit").unwrap();
    bob.put(&mut *server_b, b"doc", b"b-edit").unwrap();

    // Any crossing detects the fork.
    let err = bob.get(&mut *server_a, b"doc").unwrap_err();
    assert!(err.is_violation());
    // And the out-of-band record comparison sees divergent chains.
    assert!(check_single_history(&[alice.lcm().records(), bob.lcm().records()]).is_err());
}

fn forked_minority_never_becomes_stable(mode: Mode) {
    // 3 clients; the fork isolates one client on branch B. Its ops can
    // never reach majority stability there.
    let (_w, storage, mut server_a, _admin, mut clients) = setup_adversarial(mode, 3, 25);
    for c in clients.iter_mut() {
        c.put(&mut *server_a, b"warm", b"up").unwrap();
    }
    server_a.flush_persists().unwrap();
    let mut server_b = fork_second_instance(mode, &storage, 25);

    let victim = &mut clients[2];
    for i in 0..10u32 {
        let done = victim
            .put(&mut *server_b, b"lonely", &i.to_be_bytes())
            .unwrap();
        // The watermark can never cover the victim's new ops: no
        // majority of acknowledgers exists on branch B.
        assert!(done.stable < done.seq, "op {} must not stabilize", done.seq);
    }
    assert!(victim.lcm().stable_seq() <= victim.lcm().last_seq());
}

fn forked_views_never_join(mode: Mode) {
    // Fork-linearizability's no-join property on a real forked run:
    // after the branches diverge, the two clients' views never agree
    // on any later sequence number.
    use lcm::core::verify::check_no_join;
    let (_w, storage, mut server_a, _admin, mut clients) = setup_adversarial(mode, 3, 34);
    let (alice, rest) = clients.split_at_mut(1);
    let alice = &mut alice[0];
    let bob = &mut rest[0];

    alice.put(&mut *server_a, b"doc", b"common-1").unwrap();
    bob.put(&mut *server_a, b"doc", b"common-2").unwrap();

    server_a.flush_persists().unwrap();
    let mut server_b = fork_second_instance(mode, &storage, 34);

    // Extended divergent progress on both branches.
    for i in 0..5u32 {
        alice.put(&mut *server_a, b"doc", &i.to_be_bytes()).unwrap();
        bob.put(&mut *server_b, b"doc", &(100 + i).to_be_bytes())
            .unwrap();
    }

    // The common prefix agrees, the fork never rejoins.
    check_no_join(alice.lcm().records(), bob.lcm().records()).unwrap();
    // But the union is not a single history.
    assert!(check_single_history(&[alice.lcm().records(), bob.lcm().records()]).is_err());
}

fn replayed_invoke_halts_context(mode: Mode) {
    let (_w, _s, mut server, _a, mut clients) = setup_adversarial(mode, 1, 26);
    let c = &mut clients[0];

    // The host forwards the request and keeps a copy of the wire.
    let wire = c
        .invoke_wire(&KvOp::Put(b"k".to_vec(), b"v".to_vec()))
        .unwrap();
    server.submit(wire.clone());
    let replies = server.process_all().unwrap();
    c.complete(&replies[0].1).unwrap();

    // The server replays the captured request.
    server.submit(wire);
    let err = server.process_all().unwrap_err();
    assert!(err.is_violation(), "got {err:?}");
}

fn tampered_invoke_halts_context(mode: Mode) {
    let (_w, _s, mut server, _a, mut clients) = setup_adversarial(mode, 1, 27);
    let c = &mut clients[0];
    let mut wire = c.invoke_wire(&KvOp::Get(b"k".to_vec())).unwrap();
    let mid = wire.len() / 2;
    wire[mid] ^= 0x40;
    server.submit(wire);
    let err = server.process_all().unwrap_err();
    assert!(err.is_violation());
}

fn tampered_reply_halts_client(mode: Mode) {
    let (_w, _s, mut server, _a, mut clients) = setup_adversarial(mode, 1, 28);
    let c = &mut clients[0];
    server.submit(c.invoke_wire(&KvOp::Get(b"k".to_vec())).unwrap());
    let mut replies = server.process_all().unwrap();
    replies[0].1[3] ^= 0x01;
    let err = c.complete(&replies[0].1).unwrap_err();
    assert!(err.is_violation());
    assert!(c.lcm().is_halted());
}

fn reply_swapped_between_clients_detected(mode: Mode) {
    let (_w, _s, mut server, _a, mut clients) = setup_adversarial(mode, 2, 29);
    let w1 = clients[0]
        .invoke_wire(&KvOp::Put(b"a".to_vec(), b"1".to_vec()))
        .unwrap();
    let w2 = clients[1]
        .invoke_wire(&KvOp::Put(b"b".to_vec(), b"2".to_vec()))
        .unwrap();
    server.submit(w1);
    server.submit(w2);
    let replies = server.process_all().unwrap();
    // Malicious routing: client 0 gets client 1's reply. Replies are
    // FIFO per client but carry no cross-client order (the two ops may
    // live on different shards), so pick client 1's reply by id.
    let stolen = replies
        .iter()
        .find(|(id, _)| *id == clients[1].lcm().id())
        .map(|(_, wire)| wire.clone())
        .unwrap();
    let err = clients[0].complete(&stolen).unwrap_err();
    assert!(err.is_violation());
}

fn reordered_requests_from_one_client_detected(mode: Mode) {
    // FIFO violation: the adversary delays a client's first message
    // and delivers the (illegally obtained) second... since a correct
    // client never has two in flight, the adversary instead replays an
    // OLD buffered message after newer progress — same signature.
    let (_w, _s, mut server, _a, mut clients) = setup_adversarial(mode, 1, 30);
    let c = &mut clients[0];
    let old_wire = c
        .invoke_wire(&KvOp::Put(b"k".to_vec(), b"old".to_vec()))
        .unwrap();
    server.submit(old_wire.clone());
    let replies = server.process_all().unwrap();
    c.complete(&replies[0].1).unwrap();
    server.submit(
        c.invoke_wire(&KvOp::Put(b"k".to_vec(), b"new".to_vec()))
            .unwrap(),
    );
    let replies = server.process_all().unwrap();
    c.complete(&replies[0].1).unwrap();

    server.submit(old_wire);
    assert!(server.process_all().unwrap_err().is_violation());
}

fn wrong_world_enclave_fails_bootstrap(mode: Mode) {
    // A server trying to run a lookalike enclave on a non-genuine
    // platform cannot pass attestation.
    let honest_world = TeeWorld::new_deterministic(31);
    let evil_world = TeeWorld::new_deterministic(666);
    let mut server =
        mk_server::<KvStore>(mode, &evil_world, 1, Arc::new(RollbackStorage::new()), 1);
    server.boot().unwrap();
    let mut admin =
        AdminHandle::new_deterministic(&honest_world, vec![ClientId(1)], Quorum::Majority, 31);
    assert!(admin.bootstrap(&mut *server).is_err());
}

fn halted_context_refuses_everything(mode: Mode) {
    let (_w, _s, mut server, mut admin, mut clients) = setup_adversarial(mode, 1, 32);
    let c = &mut clients[0];
    // Trigger a violation.
    let mut wire = c.invoke_wire(&KvOp::Get(b"k".to_vec())).unwrap();
    wire[10] ^= 1;
    server.submit(wire);
    assert!(server.process_all().unwrap_err().is_violation());

    // Everything afterwards is refused, including admin operations.
    server.submit(c.lcm_mut().retry().unwrap());
    assert_eq!(server.process_all().unwrap_err(), LcmError::Halted);
    assert!(admin.status(&mut *server).is_err());
}

fn stale_state_with_fresh_keyblob_detected(mode: Mode) {
    // Mixing blob versions (fresh key blob + stale state) is still a
    // rollback and must be caught.
    let (_w, storage, mut server, _a, mut clients) = setup_adversarial(mode, 1, 33);
    let c = &mut clients[0];
    c.put(&mut *server, b"k", b"v1").unwrap();
    c.put(&mut *server, b"k", b"v2").unwrap();
    server.flush_persists().unwrap();

    // Adversary: serve the victim shard (the one owning "k") its
    // second-to-latest state but the latest key blob; every other
    // shard gets honest latest blobs. Emulate by copying blobs into a
    // fresh honest storage.
    let victim = mode.shard_of_key(b"k");
    let mixed = lcm::storage::MemoryStorage::new();
    for shard in 0..mode.shards() {
        let state_slot = mode.state_slot(shard);
        let latest = storage.history().latest_version(&state_slot).unwrap();
        let state_v = if shard == victim {
            Version(latest.0 - 1)
        } else {
            latest
        };
        mixed
            .store(
                &state_slot,
                &storage
                    .history()
                    .load_version(&state_slot, state_v)
                    .unwrap(),
            )
            .unwrap();
        let key_slot = mode.key_slot(shard);
        let key_v = storage.history().latest_version(&key_slot).unwrap();
        mixed
            .store(
                &key_slot,
                &storage.history().load_version(&key_slot, key_v).unwrap(),
            )
            .unwrap();
    }
    let world = TeeWorld::new_deterministic(33);
    let mut server2 = mk_server::<KvStore>(mode, &world, 1, Arc::new(mixed), 1);
    server2.boot().unwrap();

    let err = c.get(&mut *server2, b"k").unwrap_err();
    assert!(err.is_violation());
}

fn first_op_misdelivered_to_wrong_shard_detected(mode: Mode) {
    // The protocol's security argument needs the verifier to attest
    // exactly the enclave that executes its operations. The host
    // redirects a client's FIRST-ever operation — no history exists on
    // any shard, so the client-context check `V[i] = (tc, hc)` matches
    // the genesis entry everywhere and cannot catch the redirect. The
    // enclave's attested shard identity must: executing a wire it does
    // not own is a violation, not a misplaced write.
    let (_w, _s, mut server, _a, mut clients) = setup_adversarial(mode, 1, 34);
    let c = &mut clients[0];
    let key = b"first-op-key".to_vec();
    let wire = c
        .invoke_wire(&KvOp::Put(key.clone(), b"v".to_vec()))
        .unwrap();
    if mode.shards() > 1 {
        // Intact wire, wrong shard: the host's router is its own
        // software, so it can deliver anywhere it likes.
        let sibling = (mode.shard_of_key(&key) + 1) % mode.shards();
        server.submit_to_shard(sibling, wire);
    } else {
        // A single-shard deployment has no sibling to redirect to; the
        // closest host move is rewriting the plaintext envelope route
        // on the intact ciphertext — which breaks the AAD binding.
        let mut wire = wire;
        wire[4] ^= 0x01; // a route byte of the plaintext envelope
        server.submit(wire);
    }
    let err = server.process_all().unwrap_err();
    assert!(err.is_violation(), "got {err:?}");
    if mode.shards() > 1 {
        assert!(
            err.to_string().contains("shard"),
            "the violation should name the shard mismatch: {err}"
        );
    }
    // Detected, not misplaced: nothing executed anywhere.
    assert_eq!(server.ops_processed(), 0);
}

fn misdelivery_after_history_still_detected_by_enclave(mode: Mode) {
    // A client with real history on its home shard gets a later wire
    // redirected to a sibling it has NEVER talked to (the sibling's
    // V[i] still holds the genesis entry — but the wire carries the
    // home shard's context, so even pre-identity servers would catch
    // this one; the identity check just fails faster and with sharper
    // evidence). Either way: violation, nothing executed.
    let (_w, _s, mut server, _a, mut clients) = setup_adversarial(mode, 1, 35);
    let c = &mut clients[0];
    let key = b"seasoned-key".to_vec();
    c.put(&mut *server, &key, b"v1").unwrap();
    let ops_before = server.ops_processed();
    let wire = c
        .invoke_wire(&KvOp::Put(key.clone(), b"v2".to_vec()))
        .unwrap();
    if mode.shards() > 1 {
        let sibling = (mode.shard_of_key(&key) + 1) % mode.shards();
        server.submit_to_shard(sibling, wire);
    } else {
        let mut wire = wire;
        wire[7] ^= 0x80;
        server.submit(wire);
    }
    let err = server.process_all().unwrap_err();
    assert!(err.is_violation(), "got {err:?}");
    assert_eq!(server.ops_processed(), ops_before);
}

fn moved_slice_cannot_resurrect_on_old_owner(mode: Mode) {
    // Live slice migration bumps the routing epoch; the old owner's
    // enclave installs the new table before the move completes. A host
    // that keeps delivering a stale client's wires to the OLD owner —
    // pretending the migration never happened, which would fork the
    // slice's history from the migrated state — gets only a typed
    // redirect: the enclave NEVER executes a slice outside its
    // installed table, no matter how the wire reaches it.
    use lcm::core::client::WriteOutcome;
    let (_w, _s, mut server, _a, mut clients) = setup_adversarial(mode, 1, 36);
    let c = &mut clients[0];
    let key = b"moving-key".to_vec();
    c.put(&mut *server, &key, b"v1").unwrap();
    if mode.shards() < 2 {
        // No sibling to migrate to: the surface must refuse cleanly
        // instead of corrupting the single-lane topology.
        assert!(server.migrate_slice(0, 1).is_err());
        return;
    }
    let old_owner = mode.shard_of_key(&key);
    let slice = slice_of(route_hash(&key));
    server
        .migrate_slice(slice, (old_owner + 1) % mode.shards())
        .unwrap();

    // The client has not heard about the move: it stamps the old epoch
    // and routes to the old owner, and the host delivers exactly as
    // routed.
    let op = KvOp::Put(key.clone(), b"v2".to_vec());
    let wire = c.invoke_wire(&op).unwrap();
    server.submit_to_shard(old_owner, wire);
    let replies = server.process_all().unwrap();
    // A `Done` here would be the resurrection: the old owner
    // acknowledging a write on a slice it no longer owns, forking the
    // slice's history from the migrated state.
    let (_, outcome) = c.lcm_mut().handle_reply_on(&replies[0].1).unwrap();
    assert!(
        matches!(outcome, WriteOutcome::Redirected { .. }),
        "got {outcome:?}"
    );

    // The chase converges: the re-minted wire lands exactly once on
    // the new owner.
    server.submit(c.invoke_wire(&op).unwrap());
    let replies = server.process_all().unwrap();
    let done = c.complete(&replies[0].1).unwrap();
    assert_eq!(done.result, lcm::kvs::ops::KvResult::Stored);
    assert_eq!(c.get(&mut *server, &key).unwrap().unwrap(), b"v2".to_vec());
}

fn stale_epoch_delivery_to_bystander_detected(mode: Mode) {
    // Variant of the resurrection attack: the host delivers the stale
    // wire to a shard that never owned the moved slice — under either
    // epoch. The bystander adopted the new table during the handshake,
    // so its recomputation rejects the wire just like the old owner's.
    let (_w, _s, mut server, _a, mut clients) = setup_adversarial(mode, 1, 37);
    if mode.shards() < 3 {
        return; // needs old owner, new owner, and a third shard
    }
    let c = &mut clients[0];
    let key = b"bystander-key".to_vec();
    c.put(&mut *server, &key, b"v1").unwrap();
    let old_owner = mode.shard_of_key(&key);
    let new_owner = (old_owner + 1) % mode.shards();
    let bystander = (old_owner + 2) % mode.shards();
    server
        .migrate_slice(slice_of(route_hash(&key)), new_owner)
        .unwrap();

    let wire = c
        .invoke_wire(&KvOp::Put(key.clone(), b"v2".to_vec()))
        .unwrap();
    let ops_before = server.ops_processed();
    server.submit_to_shard(bystander, wire);
    let err = server.process_all().unwrap_err();
    assert!(err.is_violation(), "got {err:?}");
    assert_eq!(server.ops_processed(), ops_before, "nothing executed");
}

all_modes!(
    rollback_one_step_detected_by_victim,
    rollback_to_genesis_detected,
    dropped_writes_surface_as_rollback_on_restart,
    fork_detected_when_clients_cross,
    forked_minority_never_becomes_stable,
    forked_views_never_join,
    replayed_invoke_halts_context,
    tampered_invoke_halts_context,
    tampered_reply_halts_client,
    reply_swapped_between_clients_detected,
    reordered_requests_from_one_client_detected,
    wrong_world_enclave_fails_bootstrap,
    halted_context_refuses_everything,
    stale_state_with_fresh_keyblob_detected,
    first_op_misdelivered_to_wrong_shard_detected,
    misdelivery_after_history_still_detected_by_enclave,
    moved_slice_cannot_resurrect_on_old_owner,
    stale_epoch_delivery_to_bystander_detected,
);
