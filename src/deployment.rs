//! The unified deployment builder: one fluent entry point that
//! assembles the whole LCM stack — TEE world, sharded servers,
//! concurrent transport front-end, admission control, and the trusted
//! admin's bootstrap — and hands back a ready-to-use [`Deployment`].
//!
//! ```
//! use lcm::prelude::*;
//! use lcm::kvs::store::KvStore;
//!
//! let mut dep = DeploymentBuilder::<KvStore>::new()
//!     .shards(4)
//!     .mode(Mode::Pipelined)
//!     .clients(vec![ClientId(1), ClientId(2)])
//!     .build()
//!     .unwrap();
//! let mut alice = dep.kvs_client(ClientId(1));
//! alice.put(dep.frontend_mut(), b"motd", b"hello").unwrap();
//! ```
//!
//! The builder replaces the hand-rolled boilerplate (`TeeWorld` →
//! `build_sharded` → `Frontend::new` → `boot` → `AdminHandle` →
//! `bootstrap`) that every example and test used to repeat; the
//! underlying constructors remain public and unchanged for callers
//! that need to wire the layers differently.

use std::marker::PhantomData;
use std::sync::Arc;

use lcm_core::admin::{AdminHandle, DeploymentManifest};
use lcm_core::admission::{AdmissionConfig, HealthSnapshot};
use lcm_core::client::LcmClient;
use lcm_core::functionality::Functionality;
use lcm_core::server::{BatchServer, Replies, DEFAULT_BATCH_LIMIT};
use lcm_core::shard::build_sharded;
use lcm_core::stability::Quorum;
use lcm_core::transport::{Frontend, FrontendPort, TransportStats};
use lcm_core::types::ClientId;
use lcm_core::Result;
use lcm_kvs::client::KvsClient;
use lcm_storage::{MemoryStorage, StableStorage};
use lcm_tee::world::TeeWorld;

/// Execution mode of the deployment's server lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Synchronous seal-and-store: each batch's sealed state reaches
    /// stable storage before the replies leave the enclave.
    #[default]
    Sync,
    /// Asynchronous-write pipeline: sealed state persists on a
    /// background writer while the enclave executes the next batch
    /// (the mode behind the paper's Figs. 4/5).
    Pipelined,
}

/// Fluent builder over the whole stack. `F` is the functionality the
/// enclaves run (e.g. [`lcm_kvs::store::KvStore`],
/// [`lcm_core::functionality::Counter`]).
///
/// Every knob has a working default: one shard, [`Mode::Sync`], a
/// front-end without driver threads (the caller steps it with
/// `process_all`, deterministically), client group `{1}`, majority
/// quorum, fresh in-memory storage, no admission policy.
pub struct DeploymentBuilder<F: Functionality + 'static> {
    shards: u32,
    replicas: u32,
    mode: Mode,
    /// `Some(n)` = continuous front-end with `n` driver threads;
    /// `None` = no drivers, the caller steps the deployment.
    driver_threads: Option<usize>,
    admission: Option<AdmissionConfig>,
    batch_limit: usize,
    clients: Vec<ClientId>,
    quorum: Quorum,
    seed: u64,
    storage: Option<Arc<dyn StableStorage>>,
    _functionality: PhantomData<fn() -> F>,
}

impl<F: Functionality + 'static> Default for DeploymentBuilder<F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: Functionality + 'static> std::fmt::Debug for DeploymentBuilder<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeploymentBuilder")
            .field("shards", &self.shards)
            .field("mode", &self.mode)
            .field("driver_threads", &self.driver_threads)
            .field("clients", &self.clients)
            .field("seed", &self.seed)
            .finish()
    }
}

impl<F: Functionality + 'static> DeploymentBuilder<F> {
    /// Starts a builder with the defaults described on the type.
    pub fn new() -> Self {
        DeploymentBuilder {
            shards: 1,
            replicas: 1,
            mode: Mode::Sync,
            driver_threads: None,
            admission: None,
            batch_limit: DEFAULT_BATCH_LIMIT,
            clients: vec![ClientId(1)],
            quorum: Quorum::Majority,
            seed: 2024,
            storage: None,
            _functionality: PhantomData,
        }
    }

    /// Number of server shards (≥ 1; default 1).
    pub fn shards(mut self, n: u32) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Replicas per shard group (≥ 1; default 1). With `n > 1` each
    /// shard runs as a [`lcm_core::replica::ReplicaGroup`] of `n`
    /// members: writes release only once a quorum of members holds the
    /// sealed state, a crashed leader fails over to the most advanced
    /// follower, and followers serve verified reads. Use an odd `n`
    /// (`2f + 1`) to tolerate `f` crashes.
    pub fn replicas(mut self, n: u32) -> Self {
        self.replicas = n.max(1);
        self
    }

    /// Execution mode of the lanes (default [`Mode::Sync`]).
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Runs the front-end continuously with `driver_threads` driver
    /// threads (the deployment posture: replies stream to ports while
    /// producers submit). Without this, the front-end has no driver
    /// threads — submissions queue until [`Deployment::process_all`]
    /// steps the lanes on the caller's thread, which keeps batch
    /// arithmetic deterministic for tests.
    pub fn frontend(mut self, driver_threads: usize) -> Self {
        self.driver_threads = Some(driver_threads.max(1));
        self
    }

    /// Installs a multi-tenant admission policy at the front door:
    /// per-tenant token buckets, weighted fair queueing, retry dedup,
    /// and per-tenant × shard latency histograms (see
    /// [`lcm_core::admission`]).
    pub fn admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = Some(config);
        self
    }

    /// Per-shard batch limit (default [`DEFAULT_BATCH_LIMIT`], 16).
    pub fn batch_limit(mut self, n: usize) -> Self {
        self.batch_limit = n.max(1);
        self
    }

    /// The initial client group the admin provisions (default `{1}`).
    pub fn clients(mut self, ids: Vec<ClientId>) -> Self {
        self.clients = ids;
        self
    }

    /// Stability quorum (default [`Quorum::Majority`]).
    pub fn quorum(mut self, quorum: Quorum) -> Self {
        self.quorum = quorum;
        self
    }

    /// Determinism seed for the TEE world and the admin's RNG
    /// (default 2024). Two builds with the same seed and storage
    /// derive the same key material.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Stable storage medium (default: fresh in-memory storage).
    pub fn storage(mut self, storage: Arc<dyn StableStorage>) -> Self {
        self.storage = Some(storage);
        self
    }

    /// Assembles and bootstraps the deployment: builds the sharded
    /// servers over the TEE world, installs the admission policy,
    /// lifts them into the concurrent front-end, boots every lane,
    /// and (for a fresh deployment) runs the admin's attest-and-
    /// provision bootstrap.
    ///
    /// # Errors
    ///
    /// Boot and bootstrap failures surface unchanged (attestation
    /// rejection, storage errors, provisioning rejections).
    pub fn build(self) -> Result<Deployment> {
        let world = TeeWorld::new_deterministic(self.seed);
        let storage = self
            .storage
            .unwrap_or_else(|| Arc::new(MemoryStorage::new()));
        let server = if self.replicas > 1 {
            lcm_core::shard::build_replicated::<F>(
                &world,
                1,
                storage,
                self.batch_limit,
                lcm_core::shard::ReplicationSpec {
                    shards: self.shards,
                    replicas: self.replicas,
                    quorum: self.quorum,
                },
                matches!(self.mode, Mode::Pipelined),
            )
        } else {
            build_sharded::<F>(
                &world,
                1,
                storage,
                self.batch_limit,
                self.shards,
                matches!(self.mode, Mode::Pipelined),
            )
        };
        if let Some(config) = self.admission {
            server.configure_admission(config);
        }
        let mut frontend = Frontend::new(server, self.driver_threads.unwrap_or(0));
        let fresh = frontend.boot()?;
        let mut admin =
            AdminHandle::new_deterministic(&world, self.clients, self.quorum, self.seed);
        let manifest = if fresh {
            Some(admin.bootstrap(&mut frontend)?)
        } else {
            // Rebooted from existing sealed state: the enclaves
            // already hold their keys (same seed ⇒ the deterministic
            // admin re-derives matching client keys).
            None
        };
        Ok(Deployment {
            shards: self.shards,
            replicas: self.replicas,
            frontend,
            admin,
            manifest,
            world,
        })
    }
}

/// A fully bootstrapped LCM deployment: the sharded servers behind
/// their concurrent front-end, plus the trusted admin — everything
/// [`DeploymentBuilder::build`] assembled, ready for clients.
pub struct Deployment {
    shards: u32,
    replicas: u32,
    frontend: Frontend,
    admin: AdminHandle,
    manifest: Option<DeploymentManifest>,
    world: TeeWorld,
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("shards", &self.shards)
            .field("clients", &self.admin.clients().len())
            .field("bootstrapped", &self.manifest.is_some())
            .finish()
    }
}

impl Deployment {
    /// Number of server shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Replicas per shard group (1 unless built with
    /// [`DeploymentBuilder::replicas`]).
    pub fn replicas(&self) -> u32 {
        self.replicas
    }

    /// The deployment's concurrent verified-read surface: a
    /// thread-safe port serving read legs against the addressed
    /// replica without touching the write lanes (always `Some`: every
    /// deployment is sharded, and a sharded server always has one).
    pub fn read_port(&self) -> Option<Arc<dyn lcm_core::server::ReadPort>> {
        self.frontend.read_port()
    }

    /// A protocol client for `id`, wired for this deployment's shard
    /// count and holding the group key from the admin's bootstrap.
    pub fn client(&self, id: ClientId) -> LcmClient {
        LcmClient::new_sharded(id, self.admin.client_key(), self.shards)
    }

    /// A key-value client for `id` (meaningful when the deployment
    /// runs [`lcm_kvs::store::KvStore`]).
    pub fn kvs_client(&self, id: ClientId) -> KvsClient {
        KvsClient::new_sharded(id, self.admin.client_key(), self.shards)
    }

    /// Connects `id` to the front-end's reply demux, returning its
    /// thread-safe submit/receive port.
    pub fn port(&self, id: ClientId) -> FrontendPort {
        self.frontend.connect(id)
    }

    /// The concurrent front-end (shared surface: connect, stats,
    /// admission).
    pub fn frontend(&self) -> &Frontend {
        &self.frontend
    }

    /// The front-end's exclusive surface (pumping, crash hooks, the
    /// wrapped server). The [`BatchServer`] methods clients take
    /// (`&mut server`) are all here.
    pub fn frontend_mut(&mut self) -> &mut Frontend {
        &mut self.frontend
    }

    /// The trusted admin's shared surface (client group, keys).
    pub fn admin(&self) -> &AdminHandle {
        &self.admin
    }

    /// The trusted admin (membership changes, migration, manifests).
    pub fn admin_mut(&mut self) -> &mut AdminHandle {
        &mut self.admin
    }

    /// The deployment manifest from the bootstrap's whole-deployment
    /// attestation (`None` when `build` attached to already-
    /// provisioned storage).
    pub fn manifest(&self) -> Option<&DeploymentManifest> {
        self.manifest.as_ref()
    }

    /// The simulated TEE world hosting the enclaves.
    pub fn world(&self) -> &TeeWorld {
        &self.world
    }

    /// The front-end's shared flow/drop counters.
    pub fn stats(&self) -> Arc<TransportStats> {
        self.frontend.stats()
    }

    /// Per-tenant × shard admission/latency health (always `Some`;
    /// the `Option` is what `lcm_benchmark` was frozen against).
    pub fn health_snapshot(&self) -> Option<HealthSnapshot> {
        Some(self.frontend.health_snapshot())
    }

    /// Pumps every queued wire to completion and returns the buffered
    /// replies of clients without a connected port (see
    /// [`BatchServer::process_all`]).
    ///
    /// # Errors
    ///
    /// Surfaces the first lane failure recorded since the last call.
    pub fn process_all(&mut self) -> Result<Replies> {
        self.frontend.process_all()
    }
}
