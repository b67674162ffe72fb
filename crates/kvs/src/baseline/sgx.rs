//! The SGX-secured KVS baseline: enclave isolation and sealing, but
//! **no rollback or forking detection**.
//!
//! This is the paper's primary comparison point ("SGX" in Figs. 4–6):
//! client messages are encrypted, state is sealed before it leaves the
//! enclave — yet a host that restarts the enclave from a stale sealed
//! blob goes completely undetected, because nothing ties the client's
//! view to the enclave's history.
//!
//! It is the LCM lane minus the protocol: [`SgxKvsServer`] is an
//! [`LcmServer`] over [`SgxKvsProgram`], which shares the lane's ecall
//! codec, nonces, checkpoint cadence, sealed checkpoint and delta
//! format and ciphers (AES-128-GCM on the session channel and at rest),
//! and carries no chain, no `V`, no stability and no `(tc, hc)`.
//!
//! Sealing gives integrity, not freshness: a state blob that fails to
//! authenticate or decode fails boot, an intact stale one boots and
//! serves stale data, and a withheld one boots the store empty — a
//! rollback to genesis, which the baseline by design cannot detect.

use std::sync::Arc;

use lcm_core::codec::{WireCodec, Writer};
use lcm_core::context::{Cadence, Nonces, PersistBlobs};
use lcm_core::functionality::Functionality;
use lcm_core::program::{answer_ecall, DataPlane, InitView};
use lcm_core::server::LcmServer;
use lcm_core::types::ClientId;
use lcm_core::wire::{open_blob, seal_message, seal_message_into};
use lcm_core::{LcmError, Violation};
use lcm_crypto::aead::AtRestKey;
use lcm_crypto::gcm::{self, GcmKey};
use lcm_storage::{StableStorage, BLOB_KIND_BUNDLE, BLOB_KIND_CHECKPOINT, BLOB_KIND_DELTA};
use lcm_tee::enclave::EnclaveProgram;
use lcm_tee::measurement::Measurement;
use lcm_tee::platform::{TeePlatform, TeeServices};

use crate::ops::{KvOp, KvResult};
use crate::store::KvStore;

/// AAD label for client→enclave messages.
const LABEL_REQ: &[u8] = b"sgx-kvs.req";
/// AAD label for enclave→client messages.
const LABEL_RES: &[u8] = b"sgx-kvs.res";
/// AAD label for a sealed checkpoint of the store.
const LABEL_CHECKPOINT: &[u8] = b"sgx-kvs.checkpoint";
/// AAD label for a sealed per-batch delta of the store.
const LABEL_DELTA: &[u8] = b"sgx-kvs.delta";

/// The session key clients use: derived from the sealing key in this
/// baseline. Clients of the SGX KVS are assumed to have obtained it via
/// attestation; the baseline's security properties are not the object
/// of study.
fn session_key(services: &TeeServices) -> GcmKey {
    let key = lcm_crypto::hkdf::derive_key(&services.sealing_key(), b"sgx-kvs", b"session");
    GcmKey::from_secret(&key)
}

/// The enclave program: a sealed KVS without history metadata.
pub struct SgxKvsProgram {
    services: TeeServices,
    store: KvStore,
    session: GcmKey,
    /// The TEE sealing key every checkpoint and delta is sealed under:
    /// AES-128-GCM, as the lane's `kP` (older ChaCha20-Poly1305 blobs
    /// still open).
    sealing: AtRestKey,
    nonces: Nonces,
    cadence: Cadence,
    /// `None` until `Init` is answered, then whether it recovered.
    ready: Option<bool>,
    /// The buffer a wire is copied into to be opened in place.
    scratch: Vec<u8>,
    /// Length of the last reply (see [`answer_ecall`]).
    reply_len: usize,
}

impl SgxKvsProgram {
    fn require_ready(&self) -> lcm_core::Result<()> {
        match self.ready {
            Some(true) => Ok(()),
            _ => Err(LcmError::NotProvisioned),
        }
    }

    /// Seals `plain` as a blob of storage kind `kind`.
    fn seal(&mut self, kind: u8, label: &[u8], plain: &[u8]) -> lcm_core::Result<Vec<u8>> {
        let nonce = self.nonces.next(&self.services);
        seal_message(&self.sealing, &nonce, label, &[kind], plain.len(), |w| {
            w.put_raw(plain)
        })
    }

    /// Opens a sealed blob of storage kind `kind`, however stale: no
    /// freshness check is possible here. That is the vulnerability LCM
    /// exists to close.
    fn open(&self, blob: &[u8], kind: u8, label: &[u8]) -> lcm_core::Result<Vec<u8>> {
        open_blob(&self.sealing, blob, kind, label)
            .ok_or(LcmError::Violation(Violation::BadAuthentication))
    }
}

impl DataPlane for SgxKvsProgram {
    fn recover(&mut self, init: InitView<'_>) -> lcm_core::Result<bool> {
        if self.ready.is_some() {
            return Err(LcmError::AlreadyProvisioned);
        }
        // Refused unless it completes.
        self.ready = Some(false);
        self.cadence = Cadence::new(init.want_deltas);
        if let Some(blob) = init.state_blob {
            let (checkpoint, deltas) = match blob.first() {
                Some(&BLOB_KIND_BUNDLE) => lcm_storage::parse_bundle(blob)
                    .ok_or(LcmError::Violation(Violation::BadAuthentication))?,
                _ => (blob, Vec::new()),
            };
            let snapshot = self.open(checkpoint, BLOB_KIND_CHECKPOINT, LABEL_CHECKPOINT)?;
            self.store.restore(&snapshot)?;
            self.cadence.checkpoint(snapshot.len());
            for delta in deltas {
                let plain = self.open(delta, BLOB_KIND_DELTA, LABEL_DELTA)?;
                self.store.apply_delta(&plain)?;
                self.cadence.delta(delta.len());
            }
        }
        self.ready = Some(true);
        Ok(false)
    }

    fn invoke_into(&mut self, wire: &[u8], out: &mut Writer) -> lcm_core::Result<ClientId> {
        self.require_ready()?;
        self.scratch.clear();
        self.scratch.extend_from_slice(wire);
        let result = match gcm::open_in_place(&self.session, LABEL_REQ, &mut self.scratch) {
            Ok(op) => self.store.exec(op),
            Err(_) => KvResult::Malformed.to_bytes(),
        };
        let (key, nonce) = (&self.session, self.nonces.next(&self.services));
        seal_message_into(out, key, &nonce, LABEL_RES, &[], result.len(), |w| {
            w.put_raw(&result)
        })?;
        // Nothing identifies a client: the host routes by position.
        Ok(ClientId(0))
    }

    /// The store's delta while the cadence allows one, else a
    /// checkpoint of the whole store: the base the next deltas extend.
    fn persist_batch(&mut self) -> lcm_core::Result<PersistBlobs> {
        self.require_ready()?;
        let state_blob = match self.cadence.allows_delta().then(|| self.store.take_delta()) {
            Some(Some(delta)) => {
                let sealed = self.seal(BLOB_KIND_DELTA, LABEL_DELTA, &delta)?;
                self.cadence.delta(sealed.len());
                sealed
            }
            _ => {
                // Encoded where it is sealed, as the lane's checkpoint;
                // the last one's size is where the buffer starts.
                let _ = self.store.take_delta();
                let nonce = self.nonces.next(&self.services);
                let hint = self.cadence.checkpoint_len() + self.cadence.checkpoint_len() / 8;
                let (key, framing) = (&self.sealing, [BLOB_KIND_CHECKPOINT]);
                let sealed = seal_message(key, &nonce, LABEL_CHECKPOINT, &framing, hint, |w| {
                    self.store.snapshot_into(w)
                })?;
                // Kind byte, nonce and tag around the snapshot.
                self.cadence
                    .checkpoint(sealed.len() - 1 - gcm::MIN_SEALED_LEN);
                sealed
            }
        };
        Ok(PersistBlobs::state_only(state_blob, None))
    }
}

impl EnclaveProgram for SgxKvsProgram {
    fn measurement() -> Measurement {
        Measurement::of_program("sgx-kvs", "2")
    }

    fn boot(services: TeeServices) -> Self {
        SgxKvsProgram {
            session: session_key(&services),
            sealing: AtRestKey::from_secret(&services.sealing_key()),
            services,
            store: KvStore::default(),
            nonces: Nonces::default(),
            cadence: Cadence::new(false),
            ready: None,
            scratch: Vec::new(),
            reply_len: 0,
        }
    }

    fn ecall(&mut self, input: &[u8]) -> Vec<u8> {
        let out = answer_ecall(self, self.reply_len, input);
        self.reply_len = out.len();
        out
    }
}

/// Host server for the SGX KVS baseline: [`LcmServer`]'s host loop —
/// enclave, batching, sealed delta persistence — over
/// [`SgxKvsProgram`].
#[derive(Debug)]
pub struct SgxKvsServer(LcmServer<KvStore, SgxKvsProgram>);

impl SgxKvsServer {
    /// Creates the server on `platform`, persisting sealed state to
    /// `storage`, batching up to `batch_limit` ops per persist.
    pub fn new(
        platform: &TeePlatform,
        storage: Arc<dyn StableStorage>,
        batch_limit: usize,
    ) -> Self {
        SgxKvsServer(LcmServer::new(platform, storage, batch_limit))
    }

    /// Starts (or restarts) the enclave and loads the sealed state.
    ///
    /// # Errors
    ///
    /// Propagates TEE and storage failures, and a sealed state that
    /// fails to authenticate or decode, as strings.
    pub fn boot(&mut self) -> Result<(), String> {
        self.0.boot().map(drop).map_err(|e| e.to_string())
    }

    /// Simulates a crash.
    pub fn crash(&mut self) {
        self.0.crash();
    }

    /// Enqueues an encrypted request.
    pub fn submit(&mut self, wire: Vec<u8>) {
        self.0.submit(wire);
    }

    /// Processes all queued requests, returning encrypted replies in
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates TEE and storage failures as strings.
    pub fn process_all(&mut self) -> Result<Vec<Vec<u8>>, String> {
        let replies = self.0.process_all().map_err(|e| e.to_string())?;
        Ok(replies.into_iter().map(|(_, reply)| reply).collect())
    }

    /// The session key clients use (obtained via attestation in a real
    /// deployment; exposed here for the baseline client).
    pub fn session_key_for(platform: &TeePlatform) -> GcmKey {
        let measurement = SgxKvsProgram::measurement();
        session_key(&TeeServices::for_tests(platform.clone(), measurement, 0))
    }
}

/// Client for the SGX KVS baseline.
#[derive(Clone, Debug)]
pub struct SecureKvsClient {
    key: GcmKey,
}

impl SecureKvsClient {
    /// Creates a client holding the session key.
    pub fn new(key: GcmKey) -> Self {
        SecureKvsClient { key }
    }

    /// Encrypts one operation.
    ///
    /// # Errors
    ///
    /// Fails only on pathological payload sizes.
    pub fn encrypt_op(&self, op: &KvOp) -> Result<Vec<u8>, String> {
        gcm::auth_encrypt(&self.key, &op.to_bytes(), LABEL_REQ).map_err(|e| e.to_string())
    }

    /// Decrypts one reply.
    ///
    /// # Errors
    ///
    /// Fails on tampered replies.
    pub fn decrypt_reply(&self, wire: &[u8]) -> Result<KvResult, String> {
        let plain = gcm::auth_decrypt(&self.key, wire, LABEL_RES).map_err(|e| e.to_string())?;
        KvResult::from_bytes(&plain).map_err(|e| e.to_string())
    }

    /// Convenience: run one op to completion against an in-process
    /// server.
    ///
    /// # Errors
    ///
    /// Propagates transport and decryption failures.
    pub fn run(&self, server: &mut SgxKvsServer, op: &KvOp) -> Result<KvResult, String> {
        server.submit(self.encrypt_op(op)?);
        let replies = server.process_all()?;
        let last = replies.last().ok_or("no reply")?;
        self.decrypt_reply(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcm_core::server::SLOT_STATE_BLOB;
    use lcm_storage::framing::FRAME_HEADER;
    use lcm_storage::{parse_bundle, AdversaryMode, MemoryStorage, RollbackStorage, Version};
    use lcm_tee::world::TeeWorld;

    fn setup() -> (SgxKvsServer, SecureKvsClient) {
        let world = TeeWorld::new_deterministic(8);
        let platform = world.platform_deterministic(1);
        let mut server = SgxKvsServer::new(&platform, Arc::new(MemoryStorage::new()), 16);
        server.boot().unwrap();
        let client = SecureKvsClient::new(SgxKvsServer::session_key_for(&platform));
        (server, client)
    }

    #[test]
    fn put_get_cycle() {
        let (mut server, client) = setup();
        assert_eq!(
            client
                .run(&mut server, &KvOp::Put(b"k".to_vec(), b"v".to_vec()))
                .unwrap(),
            KvResult::Stored
        );
        assert_eq!(
            client.run(&mut server, &KvOp::Get(b"k".to_vec())).unwrap(),
            KvResult::Value(Some(b"v".to_vec()))
        );
    }

    #[test]
    fn crash_recovery_from_sealed_state() {
        let (mut server, client) = setup();
        // Enough batches that recovery replays `checkpoint ‖ deltas`
        // across cadence checkpoints.
        for i in 0..64u32 {
            let put = KvOp::Put(i.to_be_bytes().to_vec(), vec![i as u8; 100]);
            client.run(&mut server, &put).unwrap();
        }
        client
            .run(&mut server, &KvOp::Put(b"k".to_vec(), b"v".to_vec()))
            .unwrap();
        server.crash();
        server.boot().unwrap();
        assert_eq!(
            client.run(&mut server, &KvOp::Get(b"k".to_vec())).unwrap(),
            KvResult::Value(Some(b"v".to_vec()))
        );
        assert_eq!(
            client
                .run(&mut server, &KvOp::Get(7u32.to_be_bytes().to_vec()))
                .unwrap(),
            KvResult::Value(Some(vec![7; 100]))
        );
    }

    #[test]
    fn tampered_message_rejected() {
        let (mut server, client) = setup();
        let mut wire = client.encrypt_op(&KvOp::Get(b"k".to_vec())).unwrap();
        wire[5] ^= 0xff;
        server.submit(wire);
        let replies = server.process_all().unwrap();
        assert_eq!(
            client.decrypt_reply(&replies[0]).unwrap(),
            KvResult::Malformed
        );
    }

    #[test]
    fn rollback_attack_succeeds_against_sgx_baseline() {
        // THE motivating experiment: the SGX KVS accepts a stale sealed
        // state with no way to notice.
        let world = TeeWorld::new_deterministic(8);
        let platform = world.platform_deterministic(1);
        let storage = Arc::new(RollbackStorage::new());
        let mut server = SgxKvsServer::new(&platform, storage.clone(), 1);
        server.boot().unwrap();
        let client = SecureKvsClient::new(SgxKvsServer::session_key_for(&platform));

        client
            .run(
                &mut server,
                &KvOp::Put(b"balance".to_vec(), b"100".to_vec()),
            )
            .unwrap();
        client
            .run(&mut server, &KvOp::Put(b"balance".to_vec(), b"0".to_vec()))
            .unwrap();

        // Malicious host: restart the enclave from the first version.
        storage.set_mode(AdversaryMode::ServeVersion(Version(0)));
        server.crash();
        server.boot().unwrap();

        // The stale balance is served without any error.
        assert_eq!(
            client
                .run(&mut server, &KvOp::Get(b"balance".to_vec()))
                .unwrap(),
            KvResult::Value(Some(b"100".to_vec()))
        );
    }

    /// Sealing gives integrity, not freshness: a state altered in any
    /// sealed byte fails `boot`, an intact stale one boots and serves
    /// its stale data. (A damaged *last* delta of a bundle never reaches
    /// the enclave: the plain store's adapter cuts it as a torn tail,
    /// which leaves the stale state before it.)
    #[test]
    fn a_tampered_state_fails_boot_and_a_stale_one_serves_stale_data() {
        let world = TeeWorld::new_deterministic(8);
        let platform = world.platform_deterministic(1);
        let medium = Arc::new(MemoryStorage::new());
        let mut server = SgxKvsServer::new(&platform, medium.clone(), 1);
        server.boot().unwrap();
        let client = SecureKvsClient::new(SgxKvsServer::session_key_for(&platform));
        let slot = || medium.load(SLOT_STATE_BLOB).unwrap().unwrap();
        let put = |server: &mut SgxKvsServer, balance: &[u8]| {
            let op = KvOp::Put(b"balance".to_vec(), balance.to_vec());
            client.run(server, &op).unwrap();
        };
        // Each of the first `sealed` bytes of `blob` altered fails boot;
        // `blob` intact boots again.
        let refused_if_altered = |server: &mut SgxKvsServer, blob: &[u8], sealed: usize| {
            for at in 0..sealed {
                let mut tampered = blob.to_vec();
                tampered[at] ^= 0x01;
                medium.store(SLOT_STATE_BLOB, &tampered).unwrap();
                server.crash();
                assert!(server.boot().is_err(), "byte {at} altered, yet it booted");
            }
            medium.store(SLOT_STATE_BLOB, blob).unwrap();
            server.crash();
            server.boot().unwrap();
        };
        put(&mut server, b"100");
        let stale = slot();
        refused_if_altered(&mut server, &stale, stale.len());
        put(&mut server, b"0");
        let bundle = slot();
        let checkpoint = parse_bundle(&bundle).unwrap().0.len();
        refused_if_altered(&mut server, &bundle, 1 + FRAME_HEADER + checkpoint);

        medium.store(SLOT_STATE_BLOB, &stale).unwrap();
        server.crash();
        server.boot().unwrap();
        assert_eq!(
            client
                .run(&mut server, &KvOp::Get(b"balance".to_vec()))
                .unwrap(),
            KvResult::Value(Some(b"100".to_vec()))
        );
    }

    /// What one batch seals is the size of the batch, not of the
    /// state: at 5 000 and at 50 000 records the batch's delta is the
    /// same number of bytes, well under a page.
    #[test]
    fn sealed_bytes_per_batch_do_not_grow_with_the_state() {
        let one_batch = |records: u32| -> usize {
            let world = TeeWorld::new_deterministic(8);
            let platform = world.platform_deterministic(1);
            let medium = Arc::new(MemoryStorage::new());
            let mut server = SgxKvsServer::new(&platform, medium.clone(), 16);
            server.boot().unwrap();
            let client = SecureKvsClient::new(SgxKvsServer::session_key_for(&platform));
            let fill = KvOp::Fill {
                pin: b"fill".to_vec(),
                start: 0,
                count: records,
                value_len: 100,
            };
            client.run(&mut server, &fill).unwrap();
            for c in 0..8u8 {
                let put = KvOp::Put(vec![b'w', c], vec![7; 100]);
                server.submit(client.encrypt_op(&put).unwrap());
            }
            assert_eq!(server.process_all().unwrap().len(), 8);
            // What the batch sealed: the delta that ends the bundle, or
            // the whole slot if that is a bare checkpoint.
            let slot = medium.load(SLOT_STATE_BLOB).unwrap().unwrap();
            let delta = parse_bundle(&slot).and_then(|(_, deltas)| deltas.last().map(|d| d.len()));
            delta.unwrap_or(slot.len())
        };
        let (small, large) = (one_batch(5_000), one_batch(50_000));
        assert!(small < 4096, "{small} B");
        assert_eq!(small, large, "the delta is batch-shaped, not state-shaped");
    }
}
