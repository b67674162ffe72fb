//! Shared scaffolding for running integration scenarios against every
//! server mode: a bare `LcmServer` with synchronous or asynchronous
//! write (`into_pipelined`), the sharded multi-enclave `ShardedServer`
//! at 1 and 4 shards (each lane sync or pipelined; every submit goes
//! through its thread-safe ingress and every reply through its demux,
//! without driver threads, so batch arithmetic and crash scheduling
//! stay deterministic), the 4-shard `ShardedServer` with an
//! admission policy installed ([`Mode::Admitted`], the `frontend_*_4`
//! rows), and replicated shard groups.
//!
//! The `frontend_*_4` rows keep the scenario ids of the former
//! `Frontend` wrapper, which now is the `ShardedServer` itself. They
//! differ from the `sharded_*_4` row of their write mode in one thing:
//! the front door's admission controller is switched on (no tenants,
//! so every client is unmetered). A plain `submit` does not consult
//! it, so these rows pin that an installed policy leaves every
//! scenario's outcome as it is — a replayed wire still
//! reaches the enclave instead of being answered from the retry
//! cache.
//!
//! Every mode is handed out as a `Box<dyn BatchServer>` — the
//! deployment role; a bare `LcmServer` fills it through the blanket
//! impl over `Lane`. A box is not itself a `BatchServer`: scenarios
//! pass it on as `&mut *server`. [`bootstrap`] boots one, provisions
//! it and hands out KVS clients that record every completion.
//!
//! The seeded churn tiers share one [`fleet`] instead: a
//! [`DeploymentBuilder`] deployment of `Counter` lanes (one delta log
//! under every lane, like every deployment) with driver threads and a
//! recording client per thread. Clients increment through
//! [`increment_once`], the one exactly-once loop (a §4.6.1 retry after
//! [`RETRY_AFTER`], a redirect chased). [`settle`] joins them, judges
//! their histories with `check_single_history` and
//! `check_stable_prefix`, and checks that honest churn surfaced no
//! violation, dropped no reply and left nothing in flight. Every
//! seeded tier reads `LCM_STRESS_SEED` through [`stress_seed`].

// Compiled once per test binary; not every binary uses every helper.
#![allow(dead_code, unused_macros, unused_imports)]

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use lcm::core::admin::AdminHandle;
use lcm::core::admission::AdmissionConfig;
use lcm::core::client::{LcmClient, WriteOutcome};
use lcm::core::functionality::{Counter, Functionality};
use lcm::core::server::{BatchServer, LcmServer};
use lcm::core::shard;
use lcm::core::stability::Quorum;
use lcm::core::transport::FrontendPort;
use lcm::core::types::ClientId;
use lcm::core::verify::{check_single_history, check_stable_prefix};
use lcm::crypto::keys::SecretKey;
use lcm::deployment::{self, Deployment, DeploymentBuilder};
use lcm::kvs::client::KvsClient;
use lcm::kvs::store::KvStore;
use lcm::storage::{NamespacedStorage, StableStorage};
use lcm::tee::world::TeeWorld;

/// Which execution mode a scenario runs the server in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `LcmServer`: submit → step → persist, strictly in order.
    Sync,
    /// `LcmServer::into_pipelined`: persistence overlaps execution on
    /// a background writer thread.
    Pipelined,
    /// `ShardedServer` over `shards` lanes; each lane is a plain
    /// `LcmServer`, synchronous (`pipelined: false`) or pipelined.
    /// There are no driver threads, so each `step` runs one batch per
    /// lane and scenarios stay deterministic.
    Sharded {
        /// Number of shards.
        shards: u32,
        /// Whether each shard persists on a background writer.
        pipelined: bool,
    },
    /// `Sharded`, with the admission controller switched on and no
    /// tenant configured: every client is unmetered, and plain
    /// submits bypass the controller. Its rows keep the
    /// `frontend_*_4` ids (module docs).
    Admitted {
        /// Number of shards.
        shards: u32,
        /// Whether each shard persists on a background writer.
        pipelined: bool,
    },
    /// Every shard runs as a `ReplicaGroup` of `replicas` members
    /// (majority quorum): writes release only once a quorum holds the
    /// sealed state, and a crashed leader fails over to the most
    /// advanced follower. Scenarios written against the other modes
    /// run unchanged — the group hides behind the same `BatchServer`
    /// surface.
    Replicated {
        /// Number of shard groups.
        shards: u32,
        /// Members per group (`2f + 1` tolerates `f` crashes).
        replicas: u32,
        /// Whether each member persists on a background writer.
        pipelined: bool,
    },
}

impl Mode {
    /// Shard count of the deployment (1 for the unsharded modes).
    pub fn shards(self) -> u32 {
        match self {
            Mode::Sync | Mode::Pipelined => 1,
            Mode::Sharded { shards, .. }
            | Mode::Admitted { shards, .. }
            | Mode::Replicated { shards, .. } => shards,
        }
    }

    /// Replicas per shard group (1 for unreplicated modes).
    pub fn replicas(self) -> u32 {
        match self {
            Mode::Replicated { replicas, .. } => replicas,
            _ => 1,
        }
    }

    /// Whether the mode routes through the sharded fan-out layer.
    pub fn is_sharded(self) -> bool {
        matches!(
            self,
            Mode::Sharded { .. } | Mode::Admitted { .. } | Mode::Replicated { .. }
        )
    }

    /// The slot-name prefix of the region a given shard persists its
    /// sealed state and key blob in (the group **leader's** region in
    /// replicated mode — where the authoritative state a host could
    /// attack lives). A bare lane's engine journals there.
    pub fn region(self, shard: u32) -> String {
        match self {
            Mode::Sync | Mode::Pipelined => String::new(),
            Mode::Sharded { .. } | Mode::Admitted { .. } => NamespacedStorage::shard_prefix(shard),
            Mode::Replicated { .. } => format!("{}rep0.", NamespacedStorage::shard_prefix(shard)),
        }
    }

    /// The shard a KVS operation on `key` routes to in this mode.
    pub fn shard_of_key(self, key: &[u8]) -> u32 {
        shard::shard_index(shard::route_hash(key), self.shards())
    }
}

/// Builds a server of the requested mode behind the common
/// [`BatchServer`] interface. Sharded modes place shard `i` on
/// platform `platform_base + i` of `world` and give it the
/// `shard{i}.`-prefixed region of `storage`.
pub fn mk_server<F: Functionality + 'static>(
    mode: Mode,
    world: &TeeWorld,
    platform_base: u64,
    storage: Arc<dyn StableStorage>,
    batch: usize,
) -> Box<dyn BatchServer> {
    match mode {
        Mode::Sync => {
            let platform = world.platform_deterministic(platform_base);
            Box::new(LcmServer::<F>::new(&platform, storage, batch))
        }
        Mode::Pipelined => {
            let platform = world.platform_deterministic(platform_base);
            Box::new(LcmServer::<F>::new(&platform, storage, batch).into_pipelined())
        }
        Mode::Sharded { shards, pipelined } => Box::new(shard::build_sharded::<F>(
            world,
            platform_base,
            storage,
            batch,
            shards,
            pipelined,
        )),
        Mode::Admitted { shards, pipelined } => {
            let sharded =
                shard::build_sharded::<F>(world, platform_base, storage, batch, shards, pipelined);
            sharded.set_admission(AdmissionConfig::new(Vec::new()));
            Box::new(sharded)
        }
        Mode::Replicated {
            shards,
            replicas,
            pipelined,
        } => Box::new(shard::build_replicated::<F>(
            world,
            platform_base,
            storage,
            batch,
            shard::ReplicationSpec {
                shards,
                replicas,
                quorum: lcm::core::stability::Quorum::Majority,
            },
            pipelined,
        )),
    }
}

/// Builds a KVS client wired for the mode's shard count.
pub fn mk_client(mode: Mode, id: ClientId, k_c: &SecretKey) -> KvsClient {
    KvsClient::new_sharded(id, k_c, mode.shards())
}

/// Boots a KVS server of `mode` on `storage` (fresh), bootstraps
/// clients `1..=clients` under the admin's deterministic `seed`, and
/// hands them out recording, ready for the history checkers.
pub fn bootstrap(
    mode: Mode,
    storage: Arc<dyn StableStorage>,
    clients: u32,
    batch: usize,
    seed: u64,
) -> (TeeWorld, Box<dyn BatchServer>, AdminHandle, Vec<KvsClient>) {
    let world = TeeWorld::new_deterministic(seed);
    let mut server = mk_server::<KvStore>(mode, &world, 1, storage, batch);
    assert!(server.boot().unwrap(), "a scenario boots on a fresh medium");
    let ids: Vec<ClientId> = (1..=clients).map(ClientId).collect();
    let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, seed);
    admin.bootstrap(&mut *server).unwrap();
    let clients = ids
        .iter()
        .map(|&id| {
            let mut c = mk_client(mode, id, admin.client_key());
            c.lcm_mut().set_recording(true);
            c
        })
        .collect();
    (world, server, admin, clients)
}

/// How many seal-and-store cycles one round of `keys` (one op per key,
/// all queued before processing) costs at batch limit `batch`: the sum
/// over shards of `ceil(ops_on_shard / batch)`.
pub fn expected_batches(mode: Mode, keys: &[Vec<u8>], batch: usize) -> u64 {
    let mut per_shard = vec![0u64; mode.shards() as usize];
    for key in keys {
        per_shard[mode.shard_of_key(key) as usize] += 1;
    }
    per_shard
        .iter()
        .filter(|&&n| n > 0)
        .map(|&n| n.div_ceil(batch as u64))
        .sum()
}

/// The seed of a seeded tier: `LCM_STRESS_SEED`, 1 when unset, logged
/// under the running test's name so a failing schedule can be
/// replayed.
pub fn stress_seed() -> u64 {
    let var = std::env::var("LCM_STRESS_SEED");
    let seed = var.map_or(1, |v| v.parse().unwrap_or(1));
    let test = std::thread::current();
    eprintln!("{}: seed={seed}", test.name().unwrap_or("?"));
    seed
}

/// How long a fleet client waits for a reply before its §4.6.1 retry:
/// an idle-system reply (microseconds) never races it.
pub const RETRY_AFTER: Duration = Duration::from_millis(500);

/// A [`fleet`]: the deployment and its client threads.
pub type Fleet = (Deployment, Vec<JoinHandle<LcmClient>>);

/// Builds `builder`'s deployment of `Counter` lanes (sync or
/// `pipelined`) for clients `1..=clients`, and runs `body` for each
/// client on a thread of its own, over its client port, recording
/// its history. [`settle`] joins the threads.
pub fn fleet(
    builder: DeploymentBuilder<Counter>,
    pipelined: bool,
    clients: u32,
    body: fn(&mut LcmClient, &FrontendPort),
) -> Fleet {
    let ids: Vec<ClientId> = (1..=clients).map(ClientId).collect();
    let lanes = if pipelined {
        deployment::Mode::Pipelined
    } else {
        deployment::Mode::Sync
    };
    let dep = builder.mode(lanes).clients(ids.clone()).build().unwrap();
    let threads = ids
        .into_iter()
        .map(|id| {
            let mut client = dep.client(id);
            client.set_recording(true);
            let port = dep.port(id);
            std::thread::spawn(move || {
                body(&mut client, &port);
                client
            })
        })
        .collect();
    (dep, threads)
}

/// One counter name per shard of `shards`, private to `client`, so
/// every client exercises every shard without sharing state.
pub fn names_covering_all_shards(client: ClientId, shards: u32) -> Vec<Vec<u8>> {
    (0..shards)
        .map(|shard| shard::nth_key_routing_to(shard, shards, &format!("c{}-", client.0), 0))
        .collect()
}

/// One exactly-once increment of the counter `name`, which must then
/// read `round`. A reply lost to a crash, a failover or a move is asked
/// for again by a §4.6.1 retry; a redirect is re-invoked under the
/// table it taught. Stale duplicates are drained afterwards.
pub fn increment_once(client: &mut LcmClient, port: &FrontendPort, name: &[u8], round: u64) {
    let op = Counter::inc_op(name, 1);
    let id = client.id();
    let what = || format!("client {id:?} name {:?}", String::from_utf8_lossy(name));
    port.send(client.invoke_for::<Counter>(&op).unwrap());
    let mut attempts = 0u32;
    let value = loop {
        attempts += 1;
        assert!(attempts <= 120, "op starved: {} round {round}", what());
        let Some(reply) = port.recv_timeout(RETRY_AFTER) else {
            port.send(client.retry().unwrap());
            continue;
        };
        match client.handle_reply_on(&reply).unwrap() {
            (_, WriteOutcome::Done(done)) => break Counter::decode_result(&done.result).unwrap(),
            (_, WriteOutcome::Redirected { .. }) => {
                port.send(client.invoke_for::<Counter>(&op).unwrap());
            }
        }
    };
    // Exactly-once: the i-th completed increment reads i, through any
    // number of retries, write-offs, failovers and slice moves.
    assert_eq!(value, round, "lost or doubled op: {}", what());
    while port.try_recv().is_some() {}
}

/// Joins a [`fleet`]'s client threads and judges what they saw: no
/// client halted or holds a pending operation, the recorded histories
/// are one history with a common stable prefix, and the deployment
/// surfaced no violation, dropped no reply and left no ticket in
/// flight. Returns how many completions it judged.
pub fn settle(dep: &mut Deployment, threads: Vec<JoinHandle<LcmClient>>) -> u64 {
    let clients: Vec<LcmClient> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    for c in &clients {
        assert!(
            !c.is_halted() && !c.has_pending(),
            "{:?} halted or hangs",
            c.id()
        );
    }
    let views: Vec<&[_]> = clients.iter().map(LcmClient::records).collect();
    check_single_history(&views).unwrap();
    check_stable_prefix(&views).unwrap();
    // Wires fed to a stopped enclave surface as non-violation errors
    // (enclave unavailable), never as protocol violations.
    if let Err(e) = dep.process_all() {
        assert!(!e.is_violation(), "honest churn misclassified: {e:?}");
    }
    assert_eq!(dep.stats().dropped_replies(), 0);
    assert_eq!(dep.frontend().in_flight(), 0, "every ticket settled");
    views.iter().map(|v| v.len() as u64).sum()
}

/// Instantiates each `fn scenario(Mode)` in the invoking test crate as
/// a `#[test]` per server mode: both unsharded modes, the sharded
/// fan-out at 1 and 4 shards, the 4-shard fan-out with admission
/// switched on, and replicated groups, each sync and pipelined.
macro_rules! all_modes {
    ($($name:ident),* $(,)?) => {
        mod sync_mode {
            $(#[test] fn $name() { super::$name(crate::common::Mode::Sync) })*
        }
        mod pipelined_mode {
            $(#[test] fn $name() { super::$name(crate::common::Mode::Pipelined) })*
        }
        mod sharded_sync_1 {
            $(#[test] fn $name() { super::$name(
                crate::common::Mode::Sharded { shards: 1, pipelined: false }) })*
        }
        mod sharded_sync_4 {
            $(#[test] fn $name() { super::$name(
                crate::common::Mode::Sharded { shards: 4, pipelined: false }) })*
        }
        mod sharded_pipelined_1 {
            $(#[test] fn $name() { super::$name(
                crate::common::Mode::Sharded { shards: 1, pipelined: true }) })*
        }
        mod sharded_pipelined_4 {
            $(#[test] fn $name() { super::$name(
                crate::common::Mode::Sharded { shards: 4, pipelined: true }) })*
        }
        mod frontend_sync_4 {
            $(#[test] fn $name() { super::$name(
                crate::common::Mode::Admitted { shards: 4, pipelined: false }) })*
        }
        mod frontend_pipelined_4 {
            $(#[test] fn $name() { super::$name(
                crate::common::Mode::Admitted { shards: 4, pipelined: true }) })*
        }
        mod replicated_sync_2x3 {
            $(#[test] fn $name() { super::$name(
                crate::common::Mode::Replicated { shards: 2, replicas: 3, pipelined: false }) })*
        }
        mod replicated_pipelined_2x3 {
            $(#[test] fn $name() { super::$name(
                crate::common::Mode::Replicated { shards: 2, replicas: 3, pipelined: true }) })*
        }
    };
}
pub(crate) use all_modes;
