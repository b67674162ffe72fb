//! Integration tests for the §4.6 extensions under longer lifecycles:
//! chained migrations, migration + attack interplay, membership churn.

use std::sync::Arc;

use lcm::core::admin::AdminHandle;
use lcm::core::server::LcmServer;
use lcm::core::stability::Quorum;
use lcm::core::types::ClientId;
use lcm::kvs::client::KvsClient;
use lcm::kvs::store::KvStore;
use lcm::storage::{AdversaryMode, MemoryStorage, RollbackStorage};
use lcm::tee::world::TeeWorld;

fn fresh_server(world: &TeeWorld, platform_id: u64) -> LcmServer<KvStore> {
    let platform = world.platform_deterministic(platform_id);
    let mut server = LcmServer::<KvStore>::new(&platform, Arc::new(MemoryStorage::new()), 8);
    server.boot().unwrap();
    server
}

#[test]
fn chained_migration_across_three_platforms() {
    let world = TeeWorld::new_deterministic(40);
    let mut a = fresh_server(&world, 1);
    let mut admin = AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 1);
    admin.bootstrap(&mut a).unwrap();
    let mut client = KvsClient::new(ClientId(1), admin.client_key());

    client.put(&mut a, b"k", b"on-a").unwrap();

    let mut b = fresh_server(&world, 2);
    admin.migrate(&mut a, &mut b).unwrap();
    client.put(&mut b, b"k", b"on-b").unwrap();

    let mut c = fresh_server(&world, 3);
    admin.migrate(&mut b, &mut c).unwrap();
    let done = client.put(&mut c, b"k", b"on-c").unwrap();

    // The global sequence spans all three machines.
    assert_eq!(done.seq.0, 3);
    assert_eq!(client.get(&mut c, b"k").unwrap().unwrap(), b"on-c");
    // Earlier hosts refuse service.
    assert!(b.process_all().is_ok()); // empty queue is fine
    client.lcm_mut().set_recording(false);
}

#[test]
fn rollback_after_migration_still_detected() {
    let world = TeeWorld::new_deterministic(41);
    let mut origin = fresh_server(&world, 1);
    let mut admin = AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 2);
    admin.bootstrap(&mut origin).unwrap();
    let mut client = KvsClient::new(ClientId(1), admin.client_key());
    client.put(&mut origin, b"k", b"v1").unwrap();

    // Migrate to a server with adversarial storage.
    let platform = world.platform_deterministic(2);
    let storage = Arc::new(RollbackStorage::new());
    let mut target = LcmServer::<KvStore>::new(&platform, storage.clone(), 8);
    target.boot().unwrap();
    admin.migrate(&mut origin, &mut target).unwrap();
    let migrated = storage.version();

    client.put(&mut target, b"k", b"v2").unwrap();
    client.put(&mut target, b"k", b"v3").unwrap();

    // The new host rolls back to the post-migration state.
    storage.set_mode(AdversaryMode::ServeVersion(migrated));
    target.crash();
    target.boot().unwrap();

    let err = client.get(&mut target, b"k").unwrap_err();
    assert!(err.is_violation());
}

#[test]
fn migration_ticket_replay_on_second_target_rejected() {
    // The origin exports once; the host tries to "migrate" to two
    // targets (a fork attempt via migration). The second import works
    // cryptographically (same ticket) — but the origin only produced
    // ONE ticket and stopped, so the host must replay it. Both targets
    // would then serve the same state: a fork, detectable as usual.
    let world = TeeWorld::new_deterministic(42);
    let mut origin = fresh_server(&world, 1);
    let mut admin = AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 3);
    admin.bootstrap(&mut origin).unwrap();
    let mut client = KvsClient::new(ClientId(1), admin.client_key());
    client.put(&mut origin, b"k", b"v1").unwrap();

    let ticket = origin.export_migration().unwrap();

    let mut t1 = fresh_server(&world, 2);
    let mut t2 = fresh_server(&world, 3);
    t1.import_migration(ticket.clone(), None).unwrap();
    t2.import_migration(ticket, None).unwrap();

    // Client proceeds on t1; its context diverges from t2's copy.
    client.put(&mut t1, b"k", b"v2").unwrap();
    // Crossing to the replayed instance is detected immediately.
    let err = client.get(&mut t2, b"k").unwrap_err();
    assert!(err.is_violation());
}

#[test]
fn membership_churn_with_ongoing_traffic() {
    let world = TeeWorld::new_deterministic(43);
    let mut server = fresh_server(&world, 1);
    let ids = vec![ClientId(1), ClientId(2)];
    let mut admin = AdminHandle::new_deterministic(&world, ids, Quorum::Majority, 4);
    admin.bootstrap(&mut server).unwrap();
    let mut c1 = KvsClient::new(ClientId(1), admin.client_key());
    let mut c2 = KvsClient::new(ClientId(2), admin.client_key());

    c1.put(&mut server, b"k", b"1").unwrap();
    c2.put(&mut server, b"k", b"2").unwrap();

    // Add three clients one by one with traffic in between.
    for new_id in 3..=5u32 {
        admin.add_client(&mut server, ClientId(new_id)).unwrap();
        let mut newcomer = KvsClient::new(ClientId(new_id), admin.client_key());
        newcomer
            .put(&mut server, b"k", &new_id.to_be_bytes())
            .unwrap();
        c1.put(&mut server, b"k", b"still-here").unwrap();
    }
    let (_, _, n) = admin.status(&mut server).unwrap();
    assert_eq!(n, 5);

    // Remove two; each removal rotates kC and remaining clients follow.
    for gone in [ClientId(4), ClientId(5)] {
        let new_kc = admin.remove_client(&mut server, gone).unwrap();
        c1.lcm_mut().rotate_key(&new_kc);
        c2.lcm_mut().rotate_key(&new_kc);
        c1.put(&mut server, b"k", b"rotated").unwrap();
        c2.get(&mut server, b"k").unwrap();
    }
    let (_, _, n) = admin.status(&mut server).unwrap();
    assert_eq!(n, 3);

    // Survives a crash after all the churn.
    server.crash();
    server.boot().unwrap();
    assert_eq!(c1.get(&mut server, b"k").unwrap().unwrap(), b"rotated");
}

#[test]
fn stability_floor_survives_membership_removal() {
    // Removing a member shrinks V; the reported watermark must not
    // regress (the context's monotone floor).
    let world = TeeWorld::new_deterministic(44);
    let mut server = fresh_server(&world, 1);
    let ids = vec![ClientId(1), ClientId(2), ClientId(3)];
    let mut admin = AdminHandle::new_deterministic(&world, ids, Quorum::Majority, 5);
    admin.bootstrap(&mut server).unwrap();
    let mut clients: Vec<KvsClient> = (1..=3u32)
        .map(|i| KvsClient::new(ClientId(i), admin.client_key()))
        .collect();

    // Two rounds: watermark advances.
    for _ in 0..2 {
        for c in clients.iter_mut() {
            c.put(&mut server, b"k", b"v").unwrap();
        }
    }
    let watermark_before = clients[0].put(&mut server, b"k", b"v").unwrap().stable;
    assert!(watermark_before.0 >= 1);

    // Remove the client with the highest executed seqno.
    let new_kc = admin.remove_client(&mut server, ClientId(3)).unwrap();
    clients[0].lcm_mut().rotate_key(&new_kc);
    clients[1].lcm_mut().rotate_key(&new_kc);

    let after = clients[0].put(&mut server, b"k", b"v").unwrap();
    assert!(
        after.stable >= watermark_before,
        "watermark regressed: {} -> {}",
        watermark_before,
        after.stable
    );
}

#[test]
fn migration_preserves_stability_floor() {
    let world = TeeWorld::new_deterministic(45);
    let mut origin = fresh_server(&world, 1);
    let mut admin = AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 6);
    admin.bootstrap(&mut origin).unwrap();
    let mut client = KvsClient::new(ClientId(1), admin.client_key());
    client.put(&mut origin, b"k", b"1").unwrap();
    let stable_on_origin = client.put(&mut origin, b"k", b"2").unwrap().stable;
    assert!(stable_on_origin.0 >= 1);

    let mut target = fresh_server(&world, 2);
    admin.migrate(&mut origin, &mut target).unwrap();
    let after = client.put(&mut target, b"k", b"3").unwrap();
    assert!(after.stable >= stable_on_origin);
}
