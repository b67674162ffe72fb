//! Rollback attack demo: a malicious host restarts the enclave from a
//! stale sealed state.
//!
//! Run with: `cargo run --example rollback_attack`
//!
//! Two acts:
//! 1. Against the **SGX baseline** (sealing only, no LCM): the attack
//!    silently succeeds — a client reads an outdated balance with no
//!    error anywhere.
//! 2. Against the **LCM-protected** store: the very first operation
//!    after the rollback trips the context verification (`V[i]` does
//!    not match the client's `(tc, hc)`), the trusted context halts,
//!    and the client learns the server cheated.

use std::sync::Arc;

use lcm::core::admin::AdminHandle;
use lcm::core::server::{LcmServer, SLOT_STATE_BLOB};
use lcm::core::stability::Quorum;
use lcm::core::types::ClientId;
use lcm::core::LcmError;
use lcm::kvs::baseline::{SecureKvsClient, SgxKvsServer};
use lcm::kvs::client::KvsClient;
use lcm::kvs::ops::{KvOp, KvResult};
use lcm::kvs::store::KvStore;
use lcm::storage::{AdversaryMode, DeltaLogStorage, RollbackStorage, StableStorage};
use lcm::tee::world::TeeWorld;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let world = TeeWorld::new_deterministic(7);

    println!("=== Act 1: rollback vs the SGX baseline (no LCM) ===");
    {
        let platform = world.platform(1);
        // The adversary controls storage and retains every version.
        let storage = Arc::new(RollbackStorage::new());
        let mut server = SgxKvsServer::new(&platform, storage.clone(), 1);
        server.boot().map_err(AsErr)?;
        let client = SecureKvsClient::new(SgxKvsServer::session_key_for(&platform));

        client
            .run(
                &mut server,
                &KvOp::Put(b"balance".to_vec(), b"100 EUR".to_vec()),
            )
            .map_err(AsErr)?;
        // The host notes the medium as it stands with balance=100.
        let mark = storage.version();
        client
            .run(
                &mut server,
                &KvOp::Put(b"balance".to_vec(), b"0 EUR".to_vec()),
            )
            .map_err(AsErr)?;
        println!("  wrote balance=100, then spent it: balance=0");

        // The malicious host restarts the enclave from the old medium,
        // whose sealed state an engine over it reassembles.
        let then = DeltaLogStorage::open(Arc::new(storage.fork_at(mark)?))?;
        let stale = then.load(SLOT_STATE_BLOB)?.unwrap_or_default();
        storage.set_mode(AdversaryMode::ServeVersion(mark));
        println!(
            "  host rolls storage back to {mark:?} ({} sealed bytes)",
            stale.len()
        );
        server.crash();
        server.boot().map_err(AsErr)?;

        let result = client
            .run(&mut server, &KvOp::Get(b"balance".to_vec()))
            .map_err(AsErr)?;
        if let KvResult::Value(Some(v)) = result {
            println!(
                "  ✗ SGX baseline serves balance={:?} — stale money restored, NOBODY NOTICED",
                String::from_utf8_lossy(&v)
            );
        }
    }

    println!("\n=== Act 2: the same attack vs LCM ===");
    {
        let platform = world.platform(2);
        let storage = Arc::new(RollbackStorage::new());
        let mut server = LcmServer::<KvStore>::new(&platform, storage.clone(), 1);
        server.boot()?;
        let mut admin = AdminHandle::new(&world, vec![ClientId(1)], Quorum::Majority);
        admin.bootstrap(&mut server)?;
        let mut client = KvsClient::new(ClientId(1), admin.client_key());

        client.put(&mut server, b"balance", b"100 EUR")?;
        let mark = storage.version();
        client.put(&mut server, b"balance", b"0 EUR")?;
        println!("  wrote balance=100, then spent it: balance=0");

        // Roll back to the medium right after the first PUT.
        storage.set_mode(AdversaryMode::ServeVersion(mark));
        println!("  host rolls storage back and restarts the enclave");
        server.crash();
        server.boot()?;

        // The client's (tc, hc) now refers to a future the rolled-back
        // T has never seen: detection is immediate.
        match client.get(&mut server, b"balance") {
            Err(e @ LcmError::Violation(_)) => {
                println!("  ✓ LCM DETECTED the rollback: {e}");
            }
            Err(e) => println!("  ✓ rejected ({e})"),
            Ok(v) => {
                println!("  ✗ unexpected success: {v:?}");
                return Err("rollback went undetected!".into());
            }
        }
    }

    println!("\nConclusion: sealing alone cannot provide state continuity;");
    println!("LCM's collective memory catches the rollback on first contact.");
    Ok(())
}

/// Adapter for the baseline's plain-string errors.
#[derive(Debug)]
struct AsErr(String);
impl std::fmt::Display for AsErr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}
impl std::error::Error for AsErr {}
