//! Property-based tests over whole protocol executions.
//!
//! Strategy: generate random schedules (which client acts, what it
//! does, where batches cut, when the server crashes and recovers) and
//! assert the protocol invariants on the resulting histories; generate
//! random attack injections and assert they are detected or harmless.

use std::sync::Arc;

use lcm::core::admin::AdminHandle;
use lcm::core::server::LcmServer;
use lcm::core::stability::Quorum;
use lcm::core::types::ClientId;
use lcm::core::verify::{check_client_view, check_single_history, check_stable_prefix};
use lcm::kvs::client::KvsClient;
use lcm::kvs::ops::{KvOp, KvResult};
use lcm::kvs::store::KvStore;
use lcm::storage::{AdversaryMode, RollbackStorage};
use lcm::tee::world::TeeWorld;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Step {
    /// Client `i % n` performs the op.
    Put(u8, Vec<u8>),
    Get(u8),
    Del(u8),
    /// Crash the server and recover.
    CrashRecover,
    /// Process with a different batch boundary (submit several ops
    /// from distinct clients before processing).
    RoundRobinBurst,
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..32))
            .prop_map(|(k, v)| Step::Put(k, v)),
        3 => any::<u8>().prop_map(Step::Get),
        1 => any::<u8>().prop_map(Step::Del),
        1 => Just(Step::CrashRecover),
        1 => Just(Step::RoundRobinBurst),
    ]
}

fn build(n_clients: u32, seed: u64, batch: usize) -> (LcmServer<KvStore>, Vec<KvsClient>) {
    let world = TeeWorld::new_deterministic(seed);
    let platform = world.platform_deterministic(1);
    let mut server = LcmServer::<KvStore>::new(
        &platform,
        Arc::new(lcm::storage::MemoryStorage::new()),
        batch,
    );
    server.boot().unwrap();
    let ids: Vec<ClientId> = (1..=n_clients).map(ClientId).collect();
    let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, seed);
    admin.bootstrap(&mut server).unwrap();
    let clients = ids
        .iter()
        .map(|&id| {
            let mut c = KvsClient::new(id, admin.client_key());
            c.lcm_mut().set_recording(true);
            c
        })
        .collect();
    (server, clients)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Honest runs under arbitrary schedules satisfy every protocol
    /// invariant and mirror a reference store.
    #[test]
    fn honest_runs_are_consistent(
        steps in proptest::collection::vec(arb_step(), 1..60),
        n_clients in 1u32..5,
        batch in 1usize..20,
        seed in 0u64..1000,
    ) {
        let (mut server, mut clients) = build(n_clients, seed, batch);
        let mut reference = std::collections::BTreeMap::<Vec<u8>, Vec<u8>>::new();
        let mut turn = 0usize;

        for step in &steps {
            match step {
                Step::Put(k, v) => {
                    let c = &mut clients[turn % n_clients as usize];
                    turn += 1;
                    let key = vec![*k];
                    c.put(&mut server, &key, v).unwrap();
                    reference.insert(key, v.clone());
                }
                Step::Get(k) => {
                    let c = &mut clients[turn % n_clients as usize];
                    turn += 1;
                    let got = c.get(&mut server, &[*k]).unwrap();
                    prop_assert_eq!(got.as_deref(), reference.get(&vec![*k]).map(|v| v.as_slice()));
                }
                Step::Del(k) => {
                    let c = &mut clients[turn % n_clients as usize];
                    turn += 1;
                    let existed = c.del(&mut server, &[*k]).unwrap();
                    prop_assert_eq!(existed, reference.remove(&vec![*k]).is_some());
                }
                Step::CrashRecover => {
                    server.crash();
                    prop_assert!(!server.boot().unwrap());
                }
                Step::RoundRobinBurst => {
                    // All clients submit one op before any processing.
                    let wires: Vec<_> = clients
                        .iter_mut()
                        .map(|c| c.invoke_wire(&KvOp::Get(b"burst".to_vec())).unwrap())
                        .collect();
                    for w in wires {
                        server.submit(w);
                    }
                    let replies = server.process_all().unwrap();
                    for (id, wire) in replies {
                        let c = clients.iter_mut().find(|c| c.lcm().id() == id).unwrap();
                        let done = c.complete(&wire).unwrap();
                        prop_assert!(matches!(done.result, KvResult::Value(_)));
                    }
                }
            }
        }

        // Invariants over the recorded histories.
        let views: Vec<&[_]> = clients.iter().map(|c| c.lcm().records()).collect();
        check_single_history(&views).map_err(|e| TestCaseError::fail(e.to_string()))?;
        check_stable_prefix(&views).map_err(|e| TestCaseError::fail(e.to_string()))?;
        for view in &views {
            check_client_view(view).map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
    }

    /// A rollback injected at a random point is always detected by the
    /// next operation of any client that had completed an operation
    /// after the rollback point.
    #[test]
    fn random_rollbacks_detected(
        pre_ops in 2usize..12,
        post_ops in 1usize..6,
        rollback_to in 0usize..3,
        seed in 0u64..1000,
    ) {
        let world = TeeWorld::new_deterministic(seed);
        let platform = world.platform_deterministic(1);
        let storage = Arc::new(RollbackStorage::new());
        let mut server = LcmServer::<KvStore>::new(&platform, storage.clone(), 1);
        server.boot().unwrap();
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, seed);
        admin.bootstrap(&mut server).unwrap();
        let mut client = KvsClient::new(ClientId(1), admin.client_key());

        // `marks[i]`: the medium after provisioning and `i` puts.
        let mut marks = vec![storage.version()];
        for i in 0..pre_ops {
            client.put(&mut server, b"k", &(i as u64).to_be_bytes()).unwrap();
            marks.push(storage.version());
        }

        // Roll back to some strictly earlier state.
        let target = rollback_to.min(pre_ops - 1);
        storage.set_mode(AdversaryMode::ServeVersion(marks[target]));
        server.crash();
        server.boot().unwrap();

        // The very next operation must detect the rollback.
        let result = client.put(&mut server, b"k", b"after");
        prop_assert!(result.is_err(), "rollback to v{target} went undetected");
        prop_assert!(result.unwrap_err().is_violation());

        // And the client refuses to continue afterwards.
        for _ in 0..post_ops {
            prop_assert!(client.put(&mut server, b"k", b"x").is_err());
        }
    }

    /// Random single-bit corruption of any message in either direction
    /// is always detected, never silently accepted.
    #[test]
    fn random_message_corruption_detected(
        bit in 0usize..4096,
        corrupt_reply in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let (mut server, mut clients) = build(1, seed, 1);
        let c = &mut clients[0];
        // One honest op to move past genesis.
        c.put(&mut server, b"k", b"v").unwrap();

        let mut wire = c.invoke_wire(&KvOp::Get(b"k".to_vec())).unwrap();
        if corrupt_reply {
            server.submit(wire);
            let mut replies = server.process_all().unwrap();
            let reply = &mut replies[0].1;
            let b = bit % (reply.len() * 8);
            reply[b / 8] ^= 1 << (b % 8);
            let err = c.complete(reply).unwrap_err();
            prop_assert!(err.is_violation());
        } else {
            let b = bit % (wire.len() * 8);
            wire[b / 8] ^= 1 << (b % 8);
            server.submit(wire);
            let err = server.process_all().unwrap_err();
            prop_assert!(err.is_violation());
        }
    }

    /// Crash/retry at arbitrary points never duplicates or loses an
    /// operation: the store always reflects each op exactly once.
    #[test]
    fn crash_retry_is_exactly_once(
        crash_after_store in any::<bool>(),
        ops in 1usize..8,
        seed in 0u64..1000,
    ) {
        let (mut server, mut clients) = build(1, seed, 1);
        let c = &mut clients[0];

        for i in 0..ops {
            let value = (i as u64).to_be_bytes().to_vec();
            let wire = c
                .invoke_wire(&KvOp::Put(format!("k{i}").into_bytes(), value.clone()))
                .unwrap();
            if crash_after_store {
                // Processed, but the reply is lost in the crash.
                server.submit(wire);
                let _lost = server.process_all().unwrap();
            } else {
                // Never processed.
            }
            server.crash();
            server.boot().unwrap();
            // Retry until completion.
            server.submit(c.lcm_mut().retry().unwrap());
            let replies = server.process_all().unwrap();
            let done = c.complete(&replies[0].1).unwrap();
            prop_assert_eq!(done.result, KvResult::Stored);
        }

        // Every key present exactly once with its final value; the
        // global sequence counted each op exactly once.
        for i in 0..ops {
            let got = c.get(&mut server, format!("k{i}").as_bytes()).unwrap();
            prop_assert_eq!(got.unwrap(), (i as u64).to_be_bytes().to_vec());
        }
        prop_assert_eq!(c.lcm().last_seq().0, (2 * ops) as u64);
    }
}
