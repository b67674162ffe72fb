//! Robustness property tests for the SGX-only baseline, the mirror of
//! lcm-core's `codec_fuzz` for the lane: arbitrary bytes the host hands
//! the baseline's enclave, as a call or as a wire, never panic it, and
//! arbitrary bytes where its sealed state should be never become a
//! state.

use std::sync::Arc;

use lcm_core::codec::WireCodec;
use lcm_core::program::{HostCall, HostReply};
use lcm_core::server::{SLOT_KEY_BLOB, SLOT_STATE_BLOB};
use lcm_kvs::baseline::{SecureKvsClient, SgxKvsProgram, SgxKvsServer};
use lcm_kvs::ops::{KvOp, KvResult};
use lcm_storage::{DeltaLogStorage, MemoryStorage, StableStorage};
use lcm_tee::enclave::Enclave;
use lcm_tee::world::TeeWorld;
use proptest::prelude::*;

/// A baseline over `medium` with the outcome of its boot, and a client
/// of it.
fn baseline(medium: Arc<MemoryStorage>) -> (Result<(), String>, SgxKvsServer, SecureKvsClient) {
    let platform = TeeWorld::new_deterministic(11).platform_deterministic(1);
    let mut server = SgxKvsServer::new(&platform, medium, 16);
    let booted = server.boot();
    let client = SecureKvsClient::new(SgxKvsServer::session_key_for(&platform));
    (booted, server, client)
}

fn get(key: &[u8]) -> KvOp {
    KvOp::Get(key.to_vec())
}

proptest! {
    /// Arbitrary bytes as a whole host call, before `Init` and after
    /// it, are answered with a reply the host can read, never a panic;
    /// as a wire in a batch they are answered `Malformed`, sealed for
    /// the client, and the baseline serves on and restarts from its
    /// medium.
    #[test]
    fn host_supplied_baseline_inputs_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        kind in 0u8..4,
    ) {
        // Three cases in four carry a real call tag (`Init`, a call the
        // baseline does not take, `InvokeBatch`), so the bytes get past
        // the dispatch and into that call's decoder.
        let mut bytes = bytes;
        if let (Some(first), 1..=3) = (bytes.first_mut(), kind) {
            *first = kind;
        }
        let platform = TeeWorld::new_deterministic(11).platform_deterministic(1);
        let mut enclave = Enclave::<SgxKvsProgram>::create(&platform);
        enclave.start().unwrap();
        let init = HostCall::Init { key_blob: None, state_blob: None, want_deltas: true };
        for call in [bytes.clone(), init.to_bytes(), bytes.clone()] {
            let out = enclave.ecall(&call).unwrap();
            prop_assert!(HostReply::from_bytes(&out).is_ok(), "unreadable reply to {:?}", call);
        }

        let (booted, mut server, client) = baseline(Arc::new(MemoryStorage::new()));
        booted.unwrap();
        client.run(&mut server, &KvOp::Put(b"k".to_vec(), b"v".to_vec())).unwrap();
        server.submit(bytes);
        let replies = server.process_all().unwrap();
        prop_assert_eq!(client.decrypt_reply(&replies[0]).unwrap(), KvResult::Malformed);
        server.crash();
        server.boot().unwrap();
        prop_assert_eq!(
            client.run(&mut server, &get(b"k")).unwrap(),
            KvResult::Value(Some(b"v".to_vec()))
        );
    }

    /// Arbitrary bytes in the state slot never boot the baseline, and
    /// a baseline that refused its medium serves nothing.
    #[test]
    fn arbitrary_bytes_on_the_medium_never_become_a_state(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        kind in 0u8..5,
    ) {
        // Four cases in five carry a real blob-kind byte, so the bytes
        // get past the dispatch and into that kind's decoder.
        let mut bytes = bytes;
        if let (Some(first), 1..=4) = (bytes.first_mut(), kind) {
            *first = kind - 1;
        }
        let medium = Arc::new(MemoryStorage::new());
        medium.store(SLOT_STATE_BLOB, &bytes).unwrap();
        let (booted, mut server, client) = baseline(medium);
        prop_assert!(booted.is_err(), "booted from {:?}", bytes);
        prop_assert!(client.run(&mut server, &get(b"k")).is_err());
    }
}

/// A withheld state blob is a rollback to genesis the baseline cannot
/// see: rebooted over a medium that holds everything its old one did
/// except the state slot, it boots without an error and answers a key
/// it stored as absent.
#[test]
fn a_withheld_state_boots_empty_and_a_stored_key_reads_absent() {
    let written = Arc::new(MemoryStorage::new());
    let (booted, mut server, client) = baseline(written.clone());
    booted.unwrap();
    let put = KvOp::Put(b"k".to_vec(), b"v".to_vec());
    client.run(&mut server, &put).unwrap();
    let stored = KvResult::Value(Some(b"v".to_vec()));
    assert_eq!(client.run(&mut server, &get(b"k")).unwrap(), stored);
    // The state is all the baseline keeps — no key blob beside it —
    // so the medium without it is an empty one.
    let engine = DeltaLogStorage::open(written).unwrap();
    assert!(engine.load(SLOT_STATE_BLOB).unwrap().is_some());
    assert_eq!(engine.load(SLOT_KEY_BLOB).unwrap(), None, "a key blob");

    let (booted, mut server, client) = baseline(Arc::new(MemoryStorage::new()));
    booted.expect("a withheld state boots like a first start");
    assert_eq!(
        client.run(&mut server, &get(b"k")).unwrap(),
        KvResult::Value(None)
    );
}
