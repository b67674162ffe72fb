//! The trusted admin: bootstrapping, membership, and migration
//! orchestration (paper §4.3, §4.6).
//!
//! Bootstrapping (§4.3) has three phases: (1) the admin instructs the
//! server to create `T`; (2) remote attestation convinces the admin
//! that `T` runs LCM on a genuine TEE; (3) the admin generates `kC` and
//! `kP`, injects them through the attested secure channel, and
//! distributes `kC` to the clients.

use lcm_crypto::aead::{self, AeadKey};
use lcm_crypto::gcm::GcmKey;
use lcm_crypto::keys::SecretKey;
use lcm_crypto::sha256::{self, Digest};
use lcm_tee::attestation::{Quote, QuoteVerifier};
use lcm_tee::measurement::Measurement;
use lcm_tee::world::TeeWorld;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::codec::{Reader, WireCodec, Writer};
use crate::context::{
    attest_user_data, AdminOp, AdminReply, ProvisionPayload, ShardIdentity, LABEL_ADMIN,
    LABEL_PROVISION,
};
use crate::program::lcm_measurement;
use crate::server::BatchServer;
use crate::stability::Quorum;
use crate::types::ClientId;
use crate::{LcmError, Result, Violation};

/// The verified shape of a deployment: one identity-bound attestation
/// quote per *member* — every replica of every shard group — in
/// shard-major, replica-minor order.
///
/// Produced by [`AdminHandle::bootstrap`] and
/// [`AdminHandle::verify_deployment`]. Quote `i*replicas + r` proves
/// that a genuine LCM enclave answered a fresh challenge *while
/// holding identity `(i, shards, r, replicas)`* — so the manifest as a
/// whole says the admin's keys live in exactly `shards × replicas`
/// enclaves, one per seat of the deployment, with no member
/// represented by a sibling (not even by another replica of its own
/// group: the replica coordinate is bound into the quote).
#[derive(Debug, Clone)]
pub struct DeploymentManifest {
    /// Number of shards the deployment was verified at.
    pub shards: u32,
    /// Number of replicas per shard group (1 when unreplicated).
    pub replicas: u32,
    /// The per-member quotes: index `i*replicas + r` bound to identity
    /// `(i, shards, r, replicas)`.
    pub quotes: Vec<Quote>,
}

impl DeploymentManifest {
    /// A compact fingerprint of the attested deployment: digest over
    /// the shape and every quote's measurement and (identity-bound)
    /// user data, in member order. Two manifests with the same digest
    /// attest the same program at the same identities.
    pub fn digest(&self) -> Digest {
        let mut buf = Vec::with_capacity(8 + self.quotes.len() * 64);
        buf.extend_from_slice(&self.shards.to_be_bytes());
        buf.extend_from_slice(&self.replicas.to_be_bytes());
        for q in &self.quotes {
            buf.extend_from_slice(q.measurement.as_bytes());
            buf.extend_from_slice(q.user_data.as_bytes());
        }
        sha256::digest(&buf)
    }
}

/// The special admin client of the paper: generates and distributes
/// keys, verifies attestation, manages membership.
pub struct AdminHandle {
    provision_channel: AeadKey,
    verifier: QuoteVerifier,
    expected_measurement: Measurement,
    k_p: SecretKey,
    k_c: SecretKey,
    /// `kC` expanded for sealing, replaced with it at every rotation.
    client_cipher: GcmKey,
    k_a: SecretKey,
    admin_key: AeadKey,
    clients: Vec<ClientId>,
    quorum: Quorum,
    admin_seq: u64,
    rng: StdRng,
}

impl std::fmt::Debug for AdminHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdminHandle")
            .field("clients", &self.clients)
            .field("admin_seq", &self.admin_seq)
            .finish()
    }
}

impl AdminHandle {
    /// Creates an admin for the LCM program in `world`, with the given
    /// initial client group and stability quorum. Keys are drawn from
    /// the OS RNG.
    pub fn new(world: &TeeWorld, clients: Vec<ClientId>, quorum: Quorum) -> Self {
        let mut seed = [0u8; 8];
        rand::thread_rng().fill_bytes(&mut seed);
        Self::build(
            world,
            clients,
            quorum,
            StdRng::seed_from_u64(u64::from_be_bytes(seed)),
        )
    }

    /// Deterministic variant for tests and simulations.
    pub fn new_deterministic(
        world: &TeeWorld,
        clients: Vec<ClientId>,
        quorum: Quorum,
        seed: u64,
    ) -> Self {
        Self::build(
            world,
            clients,
            quorum,
            StdRng::seed_from_u64(seed ^ 0xad_417),
        )
    }

    fn build(world: &TeeWorld, clients: Vec<ClientId>, quorum: Quorum, mut rng: StdRng) -> Self {
        let measurement = lcm_measurement();
        let k_p = SecretKey::generate_with(&mut rng);
        let k_c = SecretKey::generate_with(&mut rng);
        let k_a = SecretKey::generate_with(&mut rng);
        AdminHandle {
            provision_channel: AeadKey::from_secret(&world.admin_provision_key(&measurement)),
            verifier: world.authority().verifier(),
            expected_measurement: measurement,
            admin_key: AeadKey::from_secret(&k_a),
            k_p,
            client_cipher: GcmKey::from_secret(&k_c),
            k_c,
            k_a,
            clients,
            quorum,
            admin_seq: 0,
            rng,
        }
    }

    /// The communication key `kC` to distribute to group clients over
    /// the admin's secure channels to them.
    pub fn client_key(&self) -> &SecretKey {
        &self.k_c
    }

    /// `kC` expanded for sealing: the clients of a group share clones
    /// of this one expansion instead of each deriving its own.
    pub fn client_cipher(&self) -> &GcmKey {
        &self.client_cipher
    }

    /// The current client group, as the admin believes it to be.
    pub fn clients(&self) -> &[ClientId] {
        &self.clients
    }

    /// Performs phases 2–3 of bootstrapping against `server`, for
    /// *every* shard of the deployment: challenge and attest each
    /// still-unprovisioned lane, inject each lane's keys **and shard
    /// identity** through the attested channel, then re-attest the
    /// whole deployment with identity binding.
    ///
    /// Returns the verified [`DeploymentManifest`] — one quote per
    /// shard, quote `i` bound to identity `(i, n)` — so the admin holds
    /// evidence that every member, not just a representative, runs LCM
    /// on a genuine platform under the identity it was assigned.
    ///
    /// # Errors
    ///
    /// * [`LcmError::Tee`] — attestation failed on some shard: that
    ///   lane is not running LCM on a genuine platform, or claims a
    ///   different identity than assigned (e.g. the host swapped
    ///   provisioning payloads between lanes).
    /// * Context errors from provisioning.
    pub fn bootstrap<S: BatchServer + ?Sized>(
        &mut self,
        server: &mut S,
    ) -> Result<DeploymentManifest> {
        let n = server.shard_count();
        let r = server.replica_count();
        // Phase 2: attest every member with a fresh challenge before
        // any key material moves. An unprovisioned enclave binds "no
        // identity" into its report; anything else here means the
        // member already holds state and must not be re-provisioned.
        for shard in 0..n {
            for replica in 0..r {
                let challenge = self.fresh_challenge();
                let quote = server.attest_member(shard, replica, challenge)?;
                self.verifier.verify(
                    &quote,
                    &self.expected_measurement,
                    &attest_user_data(&challenge, None),
                )?;
            }
        }

        // Phase 3: inject keys through the attested channel — one
        // payload per member, identical keys, each naming its own
        // identity (i, n, r', r).
        for shard in 0..n {
            for replica in 0..r {
                let payload = ProvisionPayload {
                    k_p: self.k_p.clone(),
                    k_c: self.k_c.clone(),
                    k_a: self.k_a.clone(),
                    clients: self.clients.clone(),
                    quorum: self.quorum,
                    identity: ShardIdentity::new(shard, n).with_replica(replica, r),
                };
                let sealed = aead::auth_encrypt(
                    &self.provision_channel,
                    &payload.to_bytes(),
                    LABEL_PROVISION,
                )
                .map_err(|e| LcmError::Tee(e.to_string()))?;
                server.provision_member(shard, replica, sealed)?;
            }
        }

        // Whole-deployment attestation: every member proves it holds
        // the identity it was just assigned.
        self.verify_deployment(server)
    }

    /// Attests every member of `server` and verifies each quote
    /// against the identity that member must hold — `(i, n, r', r)`
    /// for replica `r'` of lane `i` of an `n`-shard, `r`-replica
    /// deployment. Run after bootstrap (automatic), after a
    /// migration import ([`AdminHandle::migrate`] does this), or any
    /// time an operator wants fresh evidence that no member was
    /// swapped, cloned, or re-homed.
    ///
    /// # Errors
    ///
    /// * [`LcmError::Tee`] — some lane failed attestation or holds the
    ///   wrong identity.
    pub fn verify_deployment<S: BatchServer + ?Sized>(
        &mut self,
        server: &mut S,
    ) -> Result<DeploymentManifest> {
        let n = server.shard_count();
        let r = server.replica_count();
        let mut quotes = Vec::with_capacity((n * r) as usize);
        for shard in 0..n {
            for replica in 0..r {
                let challenge = self.fresh_challenge();
                let quote = server.attest_member(shard, replica, challenge)?;
                self.verifier.verify(
                    &quote,
                    &self.expected_measurement,
                    &attest_user_data(
                        &challenge,
                        Some(ShardIdentity::new(shard, n).with_replica(replica, r)),
                    ),
                )?;
                quotes.push(quote);
            }
        }
        Ok(DeploymentManifest {
            shards: n,
            replicas: r,
            quotes,
        })
    }

    fn fresh_challenge(&mut self) -> Digest {
        let mut nonce = [0u8; 32];
        self.rng.fill_bytes(&mut nonce);
        sha256::digest(&nonce)
    }

    /// Adds `id` to the group (§4.6.3). On success the admin sends the
    /// (unchanged) `kC` to the new client out of band.
    ///
    /// # Errors
    ///
    /// * [`LcmError::Violation`] — the admin reply failed verification.
    /// * The context's rejection is surfaced as [`LcmError::Tee`] with
    ///   the rejection message.
    pub fn add_client<S: BatchServer + ?Sized>(
        &mut self,
        server: &mut S,
        id: ClientId,
    ) -> Result<()> {
        let reply = self.roundtrip(server, AdminOp::AddClient(id))?;
        match reply {
            AdminReply::Ok => {
                self.clients.push(id);
                Ok(())
            }
            AdminReply::Rejected(msg) => Err(LcmError::Tee(msg)),
            other => Err(LcmError::Tee(format!("unexpected admin reply {other:?}"))),
        }
    }

    /// Removes `id` from the group and rotates `kC` so the removed
    /// client is locked out (§4.6.3). Returns the fresh `kC` that must
    /// be distributed to all remaining clients.
    ///
    /// # Errors
    ///
    /// Same classes as [`AdminHandle::add_client`].
    pub fn remove_client<S: BatchServer + ?Sized>(
        &mut self,
        server: &mut S,
        id: ClientId,
    ) -> Result<SecretKey> {
        let new_kc = SecretKey::generate_with(&mut self.rng);
        let reply = self.roundtrip(server, AdminOp::RemoveClient(id, new_kc.clone()))?;
        match reply {
            AdminReply::Ok => {
                self.clients.retain(|&c| c != id);
                self.client_cipher = GcmKey::from_secret(&new_kc);
                self.k_c = new_kc.clone();
                Ok(new_kc)
            }
            AdminReply::Rejected(msg) => Err(LcmError::Tee(msg)),
            other => Err(LcmError::Tee(format!("unexpected admin reply {other:?}"))),
        }
    }

    /// Queries the context's `(t, q, n)` status.
    ///
    /// # Errors
    ///
    /// Same classes as [`AdminHandle::add_client`].
    pub fn status<S: BatchServer + ?Sized>(
        &mut self,
        server: &mut S,
    ) -> Result<(crate::types::SeqNo, crate::types::SeqNo, u32)> {
        match self.roundtrip(server, AdminOp::Status)? {
            AdminReply::Status { t, q, n } => Ok((t, q, n)),
            other => Err(LcmError::Tee(format!("unexpected admin reply {other:?}"))),
        }
    }

    /// Orchestrates migration origin → target (§4.6.2): exports the
    /// ticket from `origin`, imports it into a booted, unprovisioned
    /// `target`, then **re-verifies the whole target deployment** —
    /// each imported lane must attest the shard identity its slice of
    /// the ticket carried, so a host that reshuffles ticket parts
    /// between lanes is caught here instead of at some later client's
    /// misrouted operation. Clients keep working unchanged — their
    /// `(tc, hc)` context verifies against the migrated `V`.
    ///
    /// # Errors
    ///
    /// Propagates context errors from either side; attestation errors
    /// from the post-import verification.
    pub fn migrate<A: BatchServer + ?Sized, B: BatchServer + ?Sized>(
        &mut self,
        origin: &mut A,
        target: &mut B,
    ) -> Result<DeploymentManifest> {
        let ticket = origin.export_migration()?;
        target.import_migration(ticket)?;
        self.verify_deployment(target)
    }

    /// Orchestrates a live slice move on a running deployment — the
    /// slice-level sibling of [`AdminHandle::migrate`]: drives the
    /// export → import → adopt handshake through
    /// [`BatchServer::migrate_slice`], then probes the deployment
    /// with an authenticated status roundtrip so the operator learns
    /// immediately whether the lanes still answer under the advanced
    /// epoch. Unlike whole-deployment migration there is nothing to
    /// re-attest: no new enclave identity joins, and the ticket and
    /// table bulletin of the handshake are already authenticated
    /// shard-to-shard inside the enclaves. Returns the routing epoch
    /// after the move.
    ///
    /// # Errors
    ///
    /// Propagates migration errors (single-shard deployments reject —
    /// there is nowhere to move a slice to) and context errors from
    /// the status probe.
    pub fn reshard<S: BatchServer + ?Sized>(
        &mut self,
        server: &mut S,
        slice: u32,
        to: u32,
    ) -> Result<u64> {
        server.migrate_slice(slice, to)?;
        self.status(server)?;
        Ok(server.routing_epoch())
    }

    fn roundtrip<S: BatchServer + ?Sized>(
        &mut self,
        server: &mut S,
        op: AdminOp,
    ) -> Result<AdminReply> {
        let seq = self.admin_seq + 1;
        let mut w = Writer::new();
        w.put_u64(seq);
        op.encode(&mut w);
        let wire = aead::auth_encrypt(&self.admin_key, &w.into_bytes(), LABEL_ADMIN)
            .map_err(|e| LcmError::Tee(e.to_string()))?;
        let reply_wire = server.admin(wire)?;
        self.admin_seq = seq;

        let plain = aead::auth_decrypt(&self.admin_key, &reply_wire, LABEL_ADMIN)
            .map_err(|_| LcmError::Violation(Violation::BadAuthentication))?;
        let mut r = Reader::new(&plain);
        let echoed_seq = r.get_u64()?;
        if echoed_seq != seq {
            return Err(Violation::AdminReplay.into());
        }
        let reply = AdminReply::decode(&mut r)?;
        r.finish()?;
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::LcmClient;
    use crate::functionality::AppendLog;
    use crate::server::LcmServer;
    use lcm_storage::MemoryStorage;
    use std::sync::Arc;

    fn fresh() -> (TeeWorld, LcmServer<AppendLog>) {
        let world = TeeWorld::new_deterministic(5);
        let platform = world.platform_deterministic(1);
        let mut server = LcmServer::<AppendLog>::new(&platform, Arc::new(MemoryStorage::new()), 16);
        assert!(server.boot().unwrap());
        (world, server)
    }

    #[test]
    fn bootstrap_succeeds_on_genuine_platform() {
        let (world, mut server) = fresh();
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 1);
        let manifest = admin.bootstrap(&mut server).unwrap();
        // One identity-bound quote per shard (unsharded: exactly one).
        assert_eq!(manifest.shards, 1);
        assert_eq!(manifest.quotes.len(), 1);
        // Re-verification on demand succeeds and attests the same
        // program; the digest differs only through the fresh challenge.
        let again = admin.verify_deployment(&mut server).unwrap();
        assert_eq!(again.shards, 1);
        assert_eq!(manifest.quotes[0].measurement, again.quotes[0].measurement);
        assert_ne!(manifest.digest(), again.digest());
    }

    #[test]
    fn bootstrap_attests_every_shard_of_a_deployment() {
        use crate::functionality::Counter;
        use crate::shard::build_sharded;

        let world = TeeWorld::new_deterministic(6);
        let mut server =
            build_sharded::<Counter>(&world, 1, Arc::new(MemoryStorage::new()), 8, 4, false);
        assert!(server.boot().unwrap());
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 6);
        let manifest = admin.bootstrap(&mut server).unwrap();
        assert_eq!(manifest.shards, 4);
        assert_eq!(manifest.quotes.len(), 4);
        // Quotes are distinguishable per shard: each binds a different
        // identity into its user data (challenges are fresh anyway,
        // but identity alone already separates them for a fixed
        // challenge — see context::attest_user_data tests).
        let unique: std::collections::BTreeSet<_> = manifest
            .quotes
            .iter()
            .map(|q| q.user_data.as_bytes().to_vec())
            .collect();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn bootstrap_refuses_an_already_provisioned_deployment() {
        // Re-running bootstrap against a provisioned server fails at
        // phase 2 already: the enclave's quote binds its identity, not
        // the "unprovisioned" marker a fresh lane would bind.
        let (world, mut server) = fresh();
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 1);
        admin.bootstrap(&mut server).unwrap();
        assert!(admin.bootstrap(&mut server).is_err());
    }

    #[test]
    fn bootstrap_fails_against_foreign_world() {
        // The server's platform belongs to a different world than the
        // admin trusts: attestation must fail.
        let world_evil = TeeWorld::new_deterministic(66);
        let platform = world_evil.platform_deterministic(1);
        let mut server = LcmServer::<AppendLog>::new(&platform, Arc::new(MemoryStorage::new()), 16);
        server.boot().unwrap();

        let world_good = TeeWorld::new_deterministic(5);
        let mut admin =
            AdminHandle::new_deterministic(&world_good, vec![ClientId(1)], Quorum::Majority, 1);
        assert!(admin.bootstrap(&mut server).is_err());
    }

    #[test]
    fn membership_add_remove_flow() {
        let (world, mut server) = fresh();
        let mut admin = AdminHandle::new_deterministic(
            &world,
            vec![ClientId(1), ClientId(2)],
            Quorum::Majority,
            1,
        );
        admin.bootstrap(&mut server).unwrap();

        // Add a third client.
        admin.add_client(&mut server, ClientId(3)).unwrap();
        assert_eq!(admin.clients().len(), 3);
        let mut c3 = LcmClient::new(ClientId(3), admin.client_key());
        server.submit(c3.invoke(b"hello").unwrap());
        let replies = server.process_all().unwrap();
        c3.handle_reply(&replies[0].1).unwrap();

        // Adding twice is rejected without halting.
        assert!(admin.add_client(&mut server, ClientId(3)).is_err());
        let (_, _, n) = admin.status(&mut server).unwrap();
        assert_eq!(n, 3);

        // Remove client 3; kC rotates.
        let new_kc = admin.remove_client(&mut server, ClientId(3)).unwrap();
        let (_, _, n) = admin.status(&mut server).unwrap();
        assert_eq!(n, 2);

        // Remaining client with the rotated key still works.
        let mut c1 = LcmClient::new(ClientId(1), &new_kc);
        server.submit(c1.invoke(b"post-rotation").unwrap());
        let replies = server.process_all().unwrap();
        c1.handle_reply(&replies[0].1).unwrap();
    }

    #[test]
    fn status_reports_progress() {
        let (world, mut server) = fresh();
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 1);
        admin.bootstrap(&mut server).unwrap();
        let (t, q, n) = admin.status(&mut server).unwrap();
        assert_eq!((t.0, q.0, n), (0, 0, 1));

        let mut c = LcmClient::new(ClientId(1), admin.client_key());
        server.submit(c.invoke(b"x").unwrap());
        let replies = server.process_all().unwrap();
        c.handle_reply(&replies[0].1).unwrap();
        let (t, _q, _n) = admin.status(&mut server).unwrap();
        assert_eq!(t.0, 1);
    }

    #[test]
    fn migration_via_admin() {
        let (world, mut origin) = fresh();
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 1);
        admin.bootstrap(&mut origin).unwrap();

        let mut c = LcmClient::new(ClientId(1), admin.client_key());
        origin.submit(c.invoke(b"pre-migration").unwrap());
        let replies = origin.process_all().unwrap();
        c.handle_reply(&replies[0].1).unwrap();

        // Target server on a different platform, same world.
        let target_platform = world.platform_deterministic(2);
        let mut target =
            LcmServer::<AppendLog>::new(&target_platform, Arc::new(MemoryStorage::new()), 16);
        assert!(target.boot().unwrap());

        admin.migrate(&mut origin, &mut target).unwrap();

        // The client continues against the target, unaware.
        target.submit(c.invoke(b"post-migration").unwrap());
        let replies = target.process_all().unwrap();
        let done = c.handle_reply(&replies[0].1).unwrap();
        assert_eq!(done.seq.0, 2);

        // The origin refuses service after migrating away.
        origin.submit(c.invoke(b"never-answered").unwrap());
        assert!(origin.process_all().is_err());
    }

    #[test]
    fn resharding_via_admin() {
        use crate::client::WriteOutcome;
        use crate::functionality::Counter;
        use crate::routing::slice_of;
        use crate::shard::{self, build_sharded};

        let world = TeeWorld::new_deterministic(7);
        let mut server =
            build_sharded::<Counter>(&world, 1, Arc::new(MemoryStorage::new()), 8, 2, false);
        assert!(server.boot().unwrap());
        let mut admin =
            AdminHandle::new_deterministic(&world, vec![ClientId(1)], Quorum::Majority, 7);
        admin.bootstrap(&mut server).unwrap();

        // A counter pinned to a genesis slice of shard 0.
        let name = shard::nth_key_routing_to(0, 2, "adm-", 0);
        let op = Counter::inc_op(&name, 1);
        let mut c = LcmClient::new_sharded(ClientId(1), admin.client_key(), 2);
        let bump = |server: &mut shard::ShardedServer, c: &mut LcmClient| {
            server.submit(c.invoke_for::<Counter>(&op).unwrap());
            let mut replies = server.process_all().unwrap();
            loop {
                match c.handle_reply_on(&replies[0].1).unwrap() {
                    (_, WriteOutcome::Done(done)) => {
                        break Counter::decode_result(&done.result).unwrap()
                    }
                    // Stale table: chase the redirect under the newer
                    // one it taught us.
                    (_, WriteOutcome::Redirected { .. }) => {
                        server.submit(c.invoke_for::<Counter>(&op).unwrap());
                        replies = server.process_all().unwrap();
                    }
                }
            }
        };
        assert_eq!(bump(&mut server, &mut c), 1);

        // The admin drives the live move and the status probe answers
        // under the advanced epoch.
        let slice = slice_of(shard::route_hash(&name));
        let epoch = admin.reshard(&mut server, slice, 1).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(server.current_table().owner(slice), 1);

        // The counter's state moved with its slice: exactly-once
        // continuation on the new owner.
        assert_eq!(bump(&mut server, &mut c), 2);
    }
}
