//! Crash-torture sweep: crash the server at *every* point of a fixed
//! operation schedule — before processing, after processing but before
//! the reply is delivered — and verify that retry-based recovery is
//! exactly-once at each crash point.
//!
//! Every schedule runs in both server modes: the synchronous loop and
//! the asynchronous-write pipeline (where `crash` models a process
//! crash — writes accepted by the OS complete before recovery).

mod common;

use std::sync::Arc;

use common::{all_modes, mk_client, mk_server, Mode};
use lcm::core::admin::AdminHandle;
use lcm::core::stability::Quorum;
use lcm::core::types::ClientId;
use lcm::kvs::ops::{KvOp, KvResult};
use lcm::kvs::store::KvStore;
use lcm::storage::MemoryStorage;
use lcm::tee::world::TeeWorld;

const SCHEDULE_LEN: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq)]
enum CrashKind {
    /// Crash after submit, before the batch is processed (request
    /// lost; retry re-executes).
    BeforeProcess,
    /// Crash after processing and persistence, before reply delivery
    /// (reply lost; retry returns the cached result).
    AfterProcess,
}

fn run_with_crash(mode: Mode, crash_at: usize, kind: CrashKind) {
    let world = TeeWorld::new_deterministic(4_000 + crash_at as u64);
    let mut server = mk_server::<KvStore>(mode, &world, 1, Arc::new(MemoryStorage::new()), 1);
    server.boot().unwrap();
    let mut admin = AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 8);
    admin.bootstrap(&mut *server).unwrap();
    let mut client = mk_client(mode, ClientId(1), admin.client_key());

    // Sequence numbers are per shard; predict them with the router.
    let mut per_shard_seq = vec![0u64; mode.shards() as usize];
    for i in 0..SCHEDULE_LEN {
        let key = format!("k{i}").into_bytes();
        let value = (i as u64).to_be_bytes().to_vec();
        let wire = client
            .invoke_wire(&KvOp::Put(key.clone(), value.clone()))
            .unwrap();

        if i == crash_at {
            match kind {
                CrashKind::BeforeProcess => {
                    server.submit(wire);
                    server.crash(); // queued request vanishes
                    server.boot().unwrap();
                }
                CrashKind::AfterProcess => {
                    server.submit(wire);
                    let _lost_reply = server.process_all().unwrap();
                    server.crash();
                    server.boot().unwrap();
                }
            }
            // Timeout ⇒ retry.
            server.submit(client.lcm_mut().retry().unwrap());
        } else {
            server.submit(wire);
        }

        let replies = server.process_all().unwrap();
        let done = client.complete(&replies[0].1).unwrap();
        assert_eq!(done.result, KvResult::Stored, "op {i}, crash at {crash_at}");
        let shard = mode.shard_of_key(&key) as usize;
        per_shard_seq[shard] += 1;
        assert_eq!(
            done.completion.seq.0, per_shard_seq[shard],
            "exactly-once sequencing on shard {shard}"
        );
    }

    // Full state check after the torture run.
    for i in 0..SCHEDULE_LEN {
        let got = client
            .get(&mut *server, format!("k{i}").as_bytes())
            .unwrap();
        assert_eq!(got.unwrap(), (i as u64).to_be_bytes().to_vec());
    }
}

fn crash_before_processing_at_every_point(mode: Mode) {
    for crash_at in 0..SCHEDULE_LEN {
        run_with_crash(mode, crash_at, CrashKind::BeforeProcess);
    }
}

fn crash_after_processing_at_every_point(mode: Mode) {
    for crash_at in 0..SCHEDULE_LEN {
        run_with_crash(mode, crash_at, CrashKind::AfterProcess);
    }
}

fn double_crash_same_operation(mode: Mode) {
    // Crash before processing, recover, crash again after processing,
    // recover, retry again: still exactly-once.
    let world = TeeWorld::new_deterministic(4_100);
    let mut server = mk_server::<KvStore>(mode, &world, 1, Arc::new(MemoryStorage::new()), 1);
    server.boot().unwrap();
    let mut admin = AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 9);
    admin.bootstrap(&mut *server).unwrap();
    let mut client = mk_client(mode, ClientId(1), admin.client_key());

    let wire = client
        .invoke_wire(&KvOp::Put(b"k".to_vec(), b"v".to_vec()))
        .unwrap();
    server.submit(wire);
    server.crash();
    server.boot().unwrap();

    // First retry gets processed but the reply is lost in a second crash.
    server.submit(client.lcm_mut().retry().unwrap());
    let _lost = server.process_all().unwrap();
    server.crash();
    server.boot().unwrap();

    // Second retry returns the cached reply.
    server.submit(client.lcm_mut().retry().unwrap());
    let replies = server.process_all().unwrap();
    let done = client.complete(&replies[0].1).unwrap();
    assert_eq!(done.completion.seq.0, 1);
    assert_eq!(client.get(&mut *server, b"k").unwrap().unwrap(), b"v");
    assert_eq!(
        client.lcm().last_seq().0,
        2,
        "one put + one get, nothing duplicated"
    );
}

/// Kills one group member at every batch boundary of the schedule —
/// cycling through the member slots — and reboots it immediately.
/// Acknowledged writes must survive every kill (replication holds them
/// at a quorum; unreplicated modes persisted them before the reply),
/// sequencing stays exactly-once, and no kill may surface as a false
/// violation to the client.
fn member_kill_churn(mode: Mode, power_failure: bool) {
    let world = TeeWorld::new_deterministic(4_200 + u64::from(power_failure));
    let mut server = mk_server::<KvStore>(mode, &world, 1, Arc::new(MemoryStorage::new()), 1);
    server.boot().unwrap();
    let mut admin = AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 10);
    admin.bootstrap(&mut *server).unwrap();
    let mut client = mk_client(mode, ClientId(1), admin.client_key());
    let replicas = mode.replicas();

    let mut per_shard_seq = vec![0u64; mode.shards() as usize];
    for i in 0..SCHEDULE_LEN {
        let key = format!("k{i}").into_bytes();
        let done = client
            .run(
                &mut *server,
                &KvOp::Put(key.clone(), (i as u64).to_be_bytes().to_vec()),
            )
            .unwrap();
        assert_eq!(done.result, KvResult::Stored, "op {i}");
        let shard = mode.shard_of_key(&key);
        per_shard_seq[shard as usize] += 1;
        assert_eq!(
            done.completion.seq.0, per_shard_seq[shard as usize],
            "exactly-once sequencing across member kills (shard {shard})"
        );

        // Batch boundary: kill one member of the shard the op landed
        // on, then reboot it. Power failure against the sole member of
        // an unreplicated deployment is only survivable once its
        // writes are flushed; a replica group needs no such care — the
        // quorum holds every acknowledged write.
        let victim = if power_failure && replicas > 1 {
            1 + (i as u32 % (replicas - 1)) // churn the followers
        } else {
            i as u32 % replicas
        };
        if power_failure && replicas == 1 {
            server.flush_persists().unwrap();
        }
        server.kill_member(shard, victim, power_failure).unwrap();
        assert!(
            !server.reboot_member(shard, victim).unwrap(),
            "rebooted member resumes from sealed state, never fresh"
        );
    }

    for i in 0..SCHEDULE_LEN {
        let got = client
            .get(&mut *server, format!("k{i}").as_bytes())
            .unwrap();
        assert_eq!(got.unwrap(), (i as u64).to_be_bytes().to_vec());
    }
    assert!(
        !client.lcm().is_halted(),
        "churn must not look like an attack"
    );
}

fn member_crash_stop_churn_at_batch_boundaries(mode: Mode) {
    member_kill_churn(mode, false);
}

fn member_power_failure_churn_at_batch_boundaries(mode: Mode) {
    member_kill_churn(mode, true);
}

/// Kills the group leader while a wire sits queued and unexecuted. The
/// wire dies with the leader (it was never acknowledged); the client's
/// §4.6.1 timeout-retry must then complete it exactly once — against a
/// promoted follower in replicated modes (no reboot of the dead
/// leader), against the rebooted server otherwise.
fn leader_kill_with_queued_work_recovers_via_retry(mode: Mode) {
    let world = TeeWorld::new_deterministic(4_300);
    let mut server = mk_server::<KvStore>(mode, &world, 1, Arc::new(MemoryStorage::new()), 1);
    server.boot().unwrap();
    let mut admin = AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 11);
    admin.bootstrap(&mut *server).unwrap();
    let mut client = mk_client(mode, ClientId(1), admin.client_key());

    client.put(&mut *server, b"warm", b"up").unwrap();

    let key = b"contested".to_vec();
    let shard = mode.shard_of_key(&key);
    let wire = client
        .invoke_wire(&KvOp::Put(key.clone(), b"v".to_vec()))
        .unwrap();
    server.submit(wire);
    let leader = server.group_leader(shard);
    server.kill_member(shard, leader, false).unwrap();
    if mode.replicas() == 1 {
        // No follower to promote: the sole member must come back.
        server.reboot_member(shard, leader).unwrap();
    }

    // Timeout ⇒ retry; a promoted follower serves it from the
    // quorum-held state without any false violation.
    server.submit(client.lcm_mut().retry().unwrap());
    let replies = server.process_all().unwrap();
    let done = client.complete(&replies[0].1).unwrap();
    assert_eq!(done.result, KvResult::Stored);
    if mode.replicas() > 1 {
        assert_ne!(
            server.group_leader(shard),
            leader,
            "a follower took over the dead leader's group"
        );
    }
    assert_eq!(
        client.get(&mut *server, &key).unwrap().unwrap(),
        b"v".to_vec()
    );
    assert!(!client.lcm().is_halted());
}

/// Live slice migration interrupted by a target-shard crash: the
/// handshake parks as a pending move (the origin already exported, so
/// no new move may start), the rest of the deployment keeps serving,
/// resuming after the reboot finishes the move exactly once — and the
/// rollback alarm still fires for the slice on its NEW home, proving
/// the migrated V-map entries and hash chain came across intact.
#[test]
fn crash_mid_slice_migration_resumes_and_rollback_protection_survives() {
    use lcm::core::routing::slice_of;
    use lcm::core::server::BatchServer;
    use lcm::core::shard::{build_sharded, nth_key_routing_to, route_hash};
    use lcm::storage::{AdversaryMode, RollbackStorage};

    const SHARDS: u32 = 4;
    let world = TeeWorld::new_deterministic(4242);
    let storage = Arc::new(RollbackStorage::new());
    let mut server = build_sharded::<KvStore>(&world, 1, storage.clone(), 1, SHARDS, false);
    assert!(server.boot().unwrap());
    let ids = vec![ClientId(1), ClientId(2)];
    let mut admin = AdminHandle::new_deterministic(&world, ids, Quorum::Majority, 11);
    admin.bootstrap(&mut server).unwrap();
    let mut victim =
        lcm::kvs::client::KvsClient::new_sharded(ClientId(1), admin.client_key(), SHARDS);
    let mut bystander =
        lcm::kvs::client::KvsClient::new_sharded(ClientId(2), admin.client_key(), SHARDS);

    // A key on the slice that will move (origin shard 0) and one on a
    // shard outside the handshake.
    let moving = nth_key_routing_to(0, SHARDS, "mv", 0);
    let parked = nth_key_routing_to(1, SHARDS, "by", 0);
    victim.put(&mut server, &moving, b"v1").unwrap();
    bystander.put(&mut server, &parked, b"w1").unwrap();

    let slice = slice_of(route_hash(&moving));
    let to = 2u32;
    // The target dies before the handshake: the export succeeds, the
    // sealed ticket cannot be delivered.
    server.with_shard(to, |s| s.crash());
    let err = server.migrate_slice(slice, to).unwrap_err();
    assert!(!err.is_violation(), "a dead target parks the move: {err:?}");
    assert_eq!(server.pending_slice_move(), Some((slice, 0, to)));
    // A second move cannot start while the handshake is parked.
    assert!(server
        .migrate_slice(slice_of(route_hash(&parked)), 3)
        .is_err());

    // Shards outside the handshake keep serving.
    assert_eq!(
        bystander.get(&mut server, &parked).unwrap().unwrap(),
        b"w1".to_vec()
    );

    // Reboot the target (recovery, not re-provisioning) and finish.
    assert!(!server.with_shard(to, |s| s.boot()).unwrap());
    server.resume_slice_migration().unwrap();
    assert_eq!(server.pending_slice_move(), None);
    assert_eq!(server.routing_epoch(), 1);

    // The stale client chases the redirect onto the new owner.
    assert_eq!(
        victim.get(&mut server, &moving).unwrap().unwrap(),
        b"v1".to_vec()
    );
    victim.put(&mut server, &moving, b"v2").unwrap();

    // Rollback protection followed the slice: the new owner
    // acknowledges a write whose persist is silently dropped, crashes,
    // recovers from the stale medium — the victim must detect it.
    server.flush_persists().unwrap();
    storage.set_mode(AdversaryMode::DropWrites);
    victim.put(&mut server, &moving, b"v3").unwrap();
    server.flush_persists().unwrap();
    storage.set_mode(AdversaryMode::Honest);
    server
        .with_shard(to, |s| {
            s.crash();
            s.boot()
        })
        .unwrap();
    let err = victim
        .run(&mut server, &KvOp::Get(moving.clone()))
        .unwrap_err();
    assert!(err.is_violation(), "got {err:?}");
}

all_modes!(
    crash_before_processing_at_every_point,
    crash_after_processing_at_every_point,
    double_crash_same_operation,
    member_crash_stop_churn_at_batch_boundaries,
    member_power_failure_churn_at_batch_boundaries,
    leader_kill_with_queued_work_recovers_via_retry,
);
