//! The SGX-secured KVS baseline: enclave isolation and sealing, but
//! **no rollback or forking detection**.
//!
//! This is the paper's primary comparison point ("SGX" in Figs. 4–6):
//! client messages are encrypted, state is sealed before it leaves the
//! enclave — yet a host that restarts the enclave from a stale sealed
//! blob goes completely undetected, because nothing ties the client's
//! view to the enclave's history.

use std::collections::VecDeque;
use std::sync::Arc;

use lcm_core::codec::{CodecError, Reader, WireCodec, Writer};
use lcm_core::functionality::Functionality;
use lcm_crypto::aead::{self, AeadKey};
use lcm_storage::StableStorage;
use lcm_tee::enclave::{Enclave, EnclaveProgram};
use lcm_tee::measurement::Measurement;
use lcm_tee::platform::{TeePlatform, TeeServices};

use crate::ops::{KvOp, KvResult};
use crate::store::KvStore;

/// AAD label for client→enclave messages.
const LABEL_REQ: &[u8] = b"sgx-kvs.req";
/// AAD label for enclave→client messages.
const LABEL_RES: &[u8] = b"sgx-kvs.res";
/// AAD label for the sealed state.
const LABEL_STATE: &[u8] = b"sgx-kvs.state";

/// Storage slot for the sealed KVS state.
pub const SLOT_SGX_STATE: &str = "sgx-kvs.state";

enum ProgramCall {
    Init(Option<Vec<u8>>),
    Batch(Vec<Vec<u8>>),
}

impl ProgramCall {
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            ProgramCall::Init(blob) => {
                w.put_u8(1);
                match blob {
                    None => w.put_bool(false),
                    Some(b) => {
                        w.put_bool(true);
                        w.put_bytes(b);
                    }
                }
            }
            ProgramCall::Batch(msgs) => {
                w.put_u8(2);
                w.put_u32(msgs.len() as u32);
                for m in msgs {
                    w.put_bytes(m);
                }
            }
        }
        w.into_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let out = match r.get_u8()? {
            1 => {
                let blob = if r.get_bool()? {
                    Some(r.get_bytes()?.to_vec())
                } else {
                    None
                };
                ProgramCall::Init(blob)
            }
            2 => {
                let n = r.get_u32()? as usize;
                let mut msgs = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    msgs.push(r.get_bytes()?.to_vec());
                }
                ProgramCall::Batch(msgs)
            }
            other => return Err(CodecError::InvalidTag(other)),
        };
        r.finish()?;
        Ok(out)
    }
}

/// The enclave program: a sealed KVS without history metadata.
pub struct SecureKvsProgram {
    services: TeeServices,
    store: KvStore,
    session: AeadKey,
    nonce_counter: u64,
}

impl SecureKvsProgram {
    fn seal_state(&mut self) -> Vec<u8> {
        let seal = AeadKey::from_secret(&self.services.sealing_key());
        let nonce = self.next_nonce();
        aead::auth_encrypt_with_nonce(&seal, &nonce, &self.store.snapshot(), LABEL_STATE)
            .expect("sealing cannot fail for snapshot-sized payloads")
    }

    fn next_nonce(&mut self) -> [u8; 12] {
        use rand::RngCore;
        self.nonce_counter += 1;
        let mut rng = self.services.rng();
        let mut base = [0u8; 12];
        rng.fill_bytes(&mut base);
        for (i, b) in self.nonce_counter.to_be_bytes().iter().enumerate() {
            base[i + 4] ^= b;
        }
        base
    }
}

impl EnclaveProgram for SecureKvsProgram {
    fn measurement() -> Measurement {
        Measurement::of_program("sgx-kvs", "1")
    }

    fn boot(services: TeeServices) -> Self {
        // The session key is derived from the sealing key in this
        // baseline: clients of the SGX KVS are assumed to have obtained
        // it via attestation; the baseline's security properties are
        // not the object of study.
        let session = AeadKey::from_secret(&lcm_crypto::hkdf::derive_key(
            &services.sealing_key(),
            b"sgx-kvs",
            b"session",
        ));
        SecureKvsProgram {
            services,
            store: KvStore::default(),
            session,
            nonce_counter: 0,
        }
    }

    fn ecall(&mut self, input: &[u8]) -> Vec<u8> {
        let Ok(call) = ProgramCall::from_bytes(input) else {
            return Vec::new();
        };
        match call {
            ProgramCall::Init(blob) => {
                if let Some(blob) = blob {
                    let seal = AeadKey::from_secret(&self.services.sealing_key());
                    // No freshness check is POSSIBLE here: any correctly
                    // sealed blob unseals, however stale. That is the
                    // vulnerability LCM exists to close.
                    if let Ok(snapshot) = aead::auth_decrypt(&seal, &blob, LABEL_STATE) {
                        let _ = self.store.restore(&snapshot);
                    }
                }
                Vec::new()
            }
            ProgramCall::Batch(msgs) => {
                let mut w = Writer::new();
                w.put_u32(msgs.len() as u32);
                for msg in msgs {
                    let reply = match aead::auth_decrypt(&self.session, &msg, LABEL_REQ) {
                        Ok(plain) => match KvOp::from_bytes(&plain) {
                            Ok(op) => self.store.apply(&op),
                            Err(_) => KvResult::Malformed,
                        },
                        Err(_) => KvResult::Malformed,
                    };
                    let nonce = self.next_nonce();
                    let sealed = aead::auth_encrypt_with_nonce(
                        &self.session,
                        &nonce,
                        &reply.to_bytes(),
                        LABEL_RES,
                    )
                    .expect("reply encryption");
                    w.put_bytes(&sealed);
                }
                w.put_bytes(&self.seal_state());
                w.into_bytes()
            }
        }
    }
}

/// Host server for the SGX KVS baseline: enclave + sealed persistence +
/// batching, mirroring [`lcm_core::server::LcmServer`] minus LCM.
pub struct SgxKvsServer {
    enclave: Enclave<SecureKvsProgram>,
    storage: Arc<dyn StableStorage>,
    batch_limit: usize,
    queue: VecDeque<Vec<u8>>,
}

impl std::fmt::Debug for SgxKvsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SgxKvsServer")
            .field("running", &self.enclave.is_running())
            .field("queued", &self.queue.len())
            .finish()
    }
}

impl SgxKvsServer {
    /// Creates the server on `platform`, persisting sealed snapshots to
    /// `storage`, batching up to `batch_limit` ops per seal.
    pub fn new(
        platform: &TeePlatform,
        storage: Arc<dyn StableStorage>,
        batch_limit: usize,
    ) -> Self {
        SgxKvsServer {
            enclave: Enclave::create(platform),
            storage,
            batch_limit: batch_limit.max(1),
            queue: VecDeque::new(),
        }
    }

    /// Starts (or restarts) the enclave and loads the sealed state.
    ///
    /// # Errors
    ///
    /// Propagates TEE and storage failures as strings.
    pub fn boot(&mut self) -> Result<(), String> {
        if self.enclave.is_running() {
            self.enclave.stop();
        }
        self.enclave.start().map_err(|e| e.to_string())?;
        let blob = self
            .storage
            .load(SLOT_SGX_STATE)
            .map_err(|e| e.to_string())?;
        self.enclave
            .ecall(&ProgramCall::Init(blob).to_bytes())
            .map_err(|e| e.to_string())?;
        Ok(())
    }

    /// Simulates a crash.
    pub fn crash(&mut self) {
        self.enclave.stop();
        self.queue.clear();
    }

    /// Enqueues an encrypted request.
    pub fn submit(&mut self, wire: Vec<u8>) {
        self.queue.push_back(wire);
    }

    /// Processes all queued requests, returning encrypted replies in
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates TEE and storage failures as strings.
    pub fn process_all(&mut self) -> Result<Vec<Vec<u8>>, String> {
        let mut out = Vec::new();
        while !self.queue.is_empty() {
            let take = self.batch_limit.min(self.queue.len());
            let batch: Vec<Vec<u8>> = self.queue.drain(..take).collect();
            let raw = self
                .enclave
                .ecall(&ProgramCall::Batch(batch).to_bytes())
                .map_err(|e| e.to_string())?;
            let mut r = Reader::new(&raw);
            let n = r.get_u32().map_err(|e| e.to_string())? as usize;
            for _ in 0..n {
                out.push(r.get_bytes().map_err(|e| e.to_string())?.to_vec());
            }
            let state = r.get_bytes().map_err(|e| e.to_string())?;
            self.storage
                .store(SLOT_SGX_STATE, state)
                .map_err(|e| e.to_string())?;
        }
        Ok(out)
    }

    /// The session key clients use (obtained via attestation in a real
    /// deployment; exposed here for the baseline client).
    pub fn session_key_for(platform: &TeePlatform) -> AeadKey {
        let services = TeeServices::for_tests(platform.clone(), SecureKvsProgram::measurement(), 0);
        AeadKey::from_secret(&lcm_crypto::hkdf::derive_key(
            &services.sealing_key(),
            b"sgx-kvs",
            b"session",
        ))
    }
}

/// Client for the SGX KVS baseline.
#[derive(Clone)]
pub struct SecureKvsClient {
    key: AeadKey,
}

impl std::fmt::Debug for SecureKvsClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SecureKvsClient")
    }
}

impl SecureKvsClient {
    /// Creates a client holding the session key.
    pub fn new(key: AeadKey) -> Self {
        SecureKvsClient { key }
    }

    /// Encrypts one operation.
    ///
    /// # Errors
    ///
    /// Fails only on pathological payload sizes.
    pub fn encrypt_op(&self, op: &KvOp) -> Result<Vec<u8>, String> {
        aead::auth_encrypt(&self.key, &op.to_bytes(), LABEL_REQ).map_err(|e| e.to_string())
    }

    /// Decrypts one reply.
    ///
    /// # Errors
    ///
    /// Fails on tampered replies.
    pub fn decrypt_reply(&self, wire: &[u8]) -> Result<KvResult, String> {
        let plain = aead::auth_decrypt(&self.key, wire, LABEL_RES).map_err(|e| e.to_string())?;
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
    use lcm_storage::{AdversaryMode, MemoryStorage, RollbackStorage, Version};
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
        client
            .run(&mut server, &KvOp::Put(b"k".to_vec(), b"v".to_vec()))
            .unwrap();
        server.crash();
        server.boot().unwrap();
        assert_eq!(
            client.run(&mut server, &KvOp::Get(b"k".to_vec())).unwrap(),
            KvResult::Value(Some(b"v".to_vec()))
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
}
