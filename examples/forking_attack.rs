//! Forking attack demo: a malicious host runs TWO instances of the
//! trusted context and partitions the clients between them.
//!
//! Run with: `cargo run --example forking_attack`
//!
//! The server forks the sealed state, gives each enclave instance its
//! own branch, and routes Alice to instance A and Bob to instance B.
//! Each instance is internally consistent, so neither client detects
//! anything *immediately* — exactly what fork-linearizability permits.
//! But the protocol guarantees the fork can never heal:
//!
//! 1. **Stability stalls**: each branch only sees one client's
//!    acknowledgements, so with a 3-client group no operation ever
//!    becomes majority-stable on either branch.
//! 2. **Any crossing detects**: the moment a client's message reaches
//!    the other branch, the context check fails and that instance
//!    halts.
//! 3. **Out-of-band comparison detects**: exchanging `(seq, chain)`
//!    records shows two different histories for the same sequence
//!    numbers (the paper's "lightweight out-of-band mechanism").

use std::sync::Arc;

use lcm::core::admin::AdminHandle;
use lcm::core::server::LcmServer;
use lcm::core::stability::Quorum;
use lcm::core::types::ClientId;
use lcm::core::verify::{check_single_history, ForkEvidence};
use lcm::kvs::client::KvsClient;
use lcm::kvs::store::KvStore;
use lcm::storage::RollbackStorage;
use lcm::tee::world::TeeWorld;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let world = TeeWorld::new_deterministic(99);
    let platform = world.platform(1);
    let storage = Arc::new(RollbackStorage::new());

    // Bootstrap one honest-looking server with three clients.
    let mut server_a = LcmServer::<KvStore>::new(&platform, storage.clone(), 1);
    server_a.boot()?;
    let group = vec![ClientId(1), ClientId(2), ClientId(3)];
    let mut admin = AdminHandle::new(&world, group, Quorum::Majority);
    admin.bootstrap(&mut server_a)?;

    let mut alice = KvsClient::new(ClientId(1), admin.client_key());
    let mut bob = KvsClient::new(ClientId(2), admin.client_key());
    alice.lcm_mut().set_recording(true);
    bob.lcm_mut().set_recording(true);

    // A common prefix both clients observe.
    alice.put(&mut server_a, b"doc", b"v1")?;
    bob.put(&mut server_a, b"doc", b"v2")?;
    println!("common prefix: both clients ran one op (seq 1, 2)");

    // --- The fork: spawn a second enclave instance fed from a copied
    // branch of the whole medium as it stands now.
    let branch = storage.fork_at(storage.version())?;

    let mut server_b = LcmServer::<KvStore>::new(&platform, Arc::new(branch), 1);
    server_b.boot()?;
    println!("fork: second enclave instance started from the same sealed state");

    // Partition: Alice talks to A, Bob talks to B. Each branch works.
    alice.put(&mut server_a, b"doc", b"alice-edit")?;
    bob.put(&mut server_b, b"doc", b"bob-edit")?;
    let a_doc = alice.get(&mut server_a, b"doc")?;
    let b_doc = bob.get(&mut server_b, b"doc")?;
    println!(
        "partitioned views: alice sees {:?}, bob sees {:?}",
        String::from_utf8_lossy(&a_doc.unwrap()),
        String::from_utf8_lossy(&b_doc.unwrap())
    );

    // 1. Stability stalls on both branches: with 3 registered clients,
    //    a single client's acknowledgements are not a majority.
    println!(
        "stability watermarks: alice {}, bob {} (stuck — ops never became majority-stable)",
        alice.lcm().stable_seq(),
        bob.lcm().stable_seq()
    );
    assert!(alice.lcm().stable_seq().0 <= 2);
    assert!(bob.lcm().stable_seq().0 <= 2);

    // 2. Crossing the partition detects instantly: Bob's context
    //    belongs to branch B's history; instance A must reject it.
    match bob.get(&mut server_a, b"doc") {
        Err(e) => println!("bob's message on branch A: ✓ DETECTED ({e})"),
        Ok(_) => return Err("crossing the fork went undetected!".into()),
    }

    // 3. Out-of-band record exchange: the checker finds divergent
    //    chains at the same sequence number.
    let evidence = check_single_history(&[alice.lcm().records(), bob.lcm().records()]);
    match evidence {
        Err(ForkEvidence::DivergentChains { seq, a, b }) => {
            println!("out-of-band check: ✓ DETECTED divergent chains at {seq} between {a} and {b}");
        }
        other => return Err(format!("expected divergence evidence, got {other:?}").into()),
    }

    println!("\nConclusion: the fork kept working only while clients stayed");
    println!("partitioned forever — any contact or comparison exposes it.");
    Ok(())
}
