//! Shared scaffolding for running integration scenarios against every
//! server mode: a bare `LcmServer` with synchronous or asynchronous
//! write (`into_pipelined`), the sharded multi-enclave `ShardedServer`
//! at 1 and 4 shards (each lane sync or pipelined), the sharded
//! deployment behind the concurrent transport `Frontend`
//! (multi-threaded lane driving; `OnDemand` so batch arithmetic and
//! crash scheduling stay deterministic), and replicated shard groups.
//!
//! Every mode is handed out as a `Box<dyn BatchServer>` — the
//! deployment role; a bare `LcmServer` fills it through the blanket
//! impl over `Lane`. A box is not itself a `BatchServer`: scenarios
//! pass it on as `&mut *server`.

// Compiled once per test binary; not every binary uses every helper.
#![allow(dead_code, unused_macros, unused_imports)]

use std::sync::Arc;

use lcm::core::functionality::Functionality;
use lcm::core::server::{BatchServer, LcmServer};
use lcm::core::shard;
use lcm::core::transport::{DriveMode, Frontend};
use lcm::core::types::ClientId;
use lcm::crypto::keys::SecretKey;
use lcm::kvs::client::KvsClient;
use lcm::storage::{DeltaLogConfig, DeltaLogStorage, NamespacedStorage, StableStorage};
use lcm::tee::world::TeeWorld;

/// Driver threads the concurrent-frontend mode attaches.
pub const FRONTEND_THREADS: usize = 3;

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
    Sharded {
        /// Number of shards.
        shards: u32,
        /// Whether each shard persists on a background writer.
        pipelined: bool,
    },
    /// The sharded deployment behind the concurrent transport
    /// `Frontend`: every submit goes through the thread-safe ingress
    /// plane and every pump is executed by [`FRONTEND_THREADS`] driver
    /// threads concurrently (on-demand windows keep scenarios
    /// deterministic).
    Frontend {
        /// Number of shards behind the front-end.
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
            | Mode::Frontend { shards, .. }
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
            Mode::Sharded { .. } | Mode::Frontend { .. } | Mode::Replicated { .. }
        )
    }

    /// The storage slot a given shard persists its sealed state to
    /// (the group **leader's** region in replicated mode — where the
    /// authoritative blob a host could attack lives).
    pub fn state_slot(self, shard: u32) -> String {
        match self {
            Mode::Sync | Mode::Pipelined => "lcm.state".into(),
            Mode::Sharded { .. } | Mode::Frontend { .. } => {
                format!("{}lcm.state", NamespacedStorage::shard_prefix(shard))
            }
            Mode::Replicated { .. } => {
                format!("{}rep0.lcm.state", NamespacedStorage::shard_prefix(shard))
            }
        }
    }

    /// The storage slot a given shard persists its sealed key blob to.
    pub fn key_slot(self, shard: u32) -> String {
        match self {
            Mode::Sync | Mode::Pipelined => "lcm.keyblob".into(),
            Mode::Sharded { .. } | Mode::Frontend { .. } => {
                format!("{}lcm.keyblob", NamespacedStorage::shard_prefix(shard))
            }
            Mode::Replicated { .. } => {
                format!("{}rep0.lcm.keyblob", NamespacedStorage::shard_prefix(shard))
            }
        }
    }

    /// The storage slot one group member persists its sealed state to
    /// (`replica` must be 0 outside replicated mode).
    pub fn member_state_slot(self, shard: u32, replica: u32) -> String {
        match self {
            Mode::Replicated { .. } => format!(
                "{}rep{replica}.lcm.state",
                NamespacedStorage::shard_prefix(shard)
            ),
            _ => {
                assert_eq!(replica, 0, "unreplicated modes have a single member");
                self.state_slot(shard)
            }
        }
    }

    /// The storage slot one group member persists its sealed key blob
    /// to (`replica` must be 0 outside replicated mode).
    pub fn member_key_slot(self, shard: u32, replica: u32) -> String {
        match self {
            Mode::Replicated { .. } => format!(
                "{}rep{replica}.lcm.keyblob",
                NamespacedStorage::shard_prefix(shard)
            ),
            _ => {
                assert_eq!(replica, 0, "unreplicated modes have a single member");
                self.key_slot(shard)
            }
        }
    }

    /// The shard a KVS operation on `key` routes to in this mode.
    pub fn shard_of_key(self, key: &[u8]) -> u32 {
        shard::shard_index(shard::route_hash(key), self.shards())
    }
}

/// Interposes the sealed delta-log engine between the servers and the
/// scenario's root storage when `LCM_STRESS_DELTALOG=1` — the
/// storage-torture CI tier runs the whole crash/churn suite through
/// the engine this way. A tiny segment budget forces seals and
/// compactions to fire constantly so short schedules still exercise
/// the full segment lifecycle.
pub fn maybe_deltalog(storage: Arc<dyn StableStorage>) -> Arc<dyn StableStorage> {
    if std::env::var("LCM_STRESS_DELTALOG").is_ok_and(|v| v == "1") {
        let engine = DeltaLogStorage::with_config(
            storage,
            DeltaLogConfig {
                segment_bytes: 2048,
            },
        )
        .expect("delta-log engine opens on the scenario's root storage");
        Arc::new(engine)
    } else {
        storage
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
    let storage = maybe_deltalog(storage);
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
        Mode::Frontend { shards, pipelined } => {
            let sharded =
                shard::build_sharded::<F>(world, platform_base, storage, batch, shards, pipelined);
            Box::new(Frontend::new(
                sharded,
                FRONTEND_THREADS,
                DriveMode::OnDemand,
            ))
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

/// Instantiates each `fn scenario(Mode)` in the invoking test crate as
/// a `#[test]` per server mode: both unsharded modes and the sharded
/// fan-out at 1 and 4 shards, sync and pipelined.
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
                crate::common::Mode::Frontend { shards: 4, pipelined: false }) })*
        }
        mod frontend_pipelined_4 {
            $(#[test] fn $name() { super::$name(
                crate::common::Mode::Frontend { shards: 4, pipelined: true }) })*
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
