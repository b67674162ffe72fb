//! The four workloads: what each stack looks like, how it is built
//! through `DeploymentBuilder`, and the operation streams derived from
//! `--seed`.

use std::sync::Arc;
use std::time::Duration;

use lcm::core::admission::{AdmissionConfig, TenantConfig, TenantId};
use lcm::core::codec::WireCodec;
use lcm::core::stability::Quorum;
use lcm::core::types::ClientId;
use lcm::deployment::{Deployment, DeploymentBuilder, Mode};
use lcm::kvs::ops::KvOp;
use lcm::kvs::store::KvStore;
use lcm::storage::{DelayedStorage, DeltaLogStorage, MemoryStorage, StableStorage};
use lcm::workload::dist::{KeyChooser, Uniform, Zipfian};
use rand::{Rng, SeedableRng, StdRng};

use crate::stats::mix;
use crate::tap::Tap;
use crate::trace::Tracer;

/// Bytes of every value written (the paper's 100 B objects).
pub const VALUE_LEN: usize = 100;
/// Bytes of every key (`{:016x}` of the record's rank).
pub const KEY_LEN: usize = 16;
/// Operations pre-generated per run; drivers cycle through them.
pub const POOL_OPS: usize = 1 << 16;
/// Batch limit of every lane (the paper's evaluation setting).
pub const BATCH: usize = 16;

/// How a workload's clients are driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// One harness thread keeps every client busy through
    /// `ShardedServer::submit` / `step`.
    SingleDriver,
    /// Rounds on one harness thread: half the clients `Put` through
    /// the quorum, the other half issue a verified follower read; the
    /// halves swap every round.
    QuorumRounds,
    /// Clients multiplexed over at most `nproc` generator threads
    /// through `FrontendPort`s into a continuous front-end.
    Frontend,
}

#[derive(Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub drive: Drive,
    pub shards: u32,
    pub replicas: u32,
    pub mode: Mode,
    pub clients: u32,
    /// Records preloaded before the window.
    pub records: u64,
    pub delta_log: bool,
    pub store_delay: Duration,
    pub admission: bool,
    /// Share of `Get`s in the operation stream, in percent.
    pub read_pct: u32,
    pub zipfian: bool,
    /// Operations of warm-up after the preload (part of `setup_s`).
    pub warmup_ops: u64,
    /// Operations driven before each fault cycle, so the nine faults
    /// land at nine different distances from the last checkpoint
    /// (recovery replays the deltas since then) and their median is a
    /// mid-cycle recovery.
    pub fault_gap_ops: u64,
}

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "kv-put-n16",
        why: "1 sync lane, 16 clients, uniform PUT over 1e4 records, zero delays: \
              compute-bound baseline where crypto, codecs and handle_invoke are nearly all the time",
        drive: Drive::SingleDriver,
        shards: 1,
        replicas: 1,
        mode: Mode::Sync,
        clients: 16,
        records: 10_000,
        delta_log: true,
        store_delay: Duration::ZERO,
        admission: false,
        read_pct: 0,
        zipfian: false,
        warmup_ops: 2_000,
        fault_gap_ops: 600,
    },
    Spec {
        name: "kv-put-n512",
        why: "same stack and traffic with 512 clients: stable_with and the V-map dominate, \
              crypto is a small share; a stability fix moves this one and leaves kv-put-n16 alone",
        drive: Drive::SingleDriver,
        shards: 1,
        replicas: 1,
        mode: Mode::Sync,
        clients: 512,
        records: 10_000,
        delta_log: true,
        store_delay: Duration::ZERO,
        admission: false,
        read_pct: 0,
        zipfian: false,
        warmup_ops: 1_024,
        fault_gap_ops: 600,
    },
    Spec {
        name: "fe4-ycsb-a-100k",
        why: "deployment posture: 4 pipelined shards behind the continuous front-end with admission, \
              delta log over a 200us device, 64 clients, 50/50 Get/Put, zipfian 0.99 over 1e5 records",
        drive: Drive::Frontend,
        shards: 4,
        replicas: 1,
        mode: Mode::Pipelined,
        clients: 64,
        records: 100_000,
        delta_log: true,
        store_delay: Duration::from_micros(200),
        admission: true,
        read_pct: 50,
        zipfian: true,
        warmup_ops: 4_096,
        fault_gap_ops: 5_000,
    },
    Spec {
        name: "rep3-rw-5k",
        why: "1 shard x 3 replicas, majority quorum, 16 clients: quorum Puts beside verified follower \
              reads, leader failover as the fault; the only workload where replication dominates",
        drive: Drive::QuorumRounds,
        shards: 1,
        replicas: 3,
        mode: Mode::Sync,
        clients: 16,
        records: 5_000,
        delta_log: false,
        store_delay: Duration::ZERO,
        admission: false,
        read_pct: 50,
        zipfian: false,
        warmup_ops: 256,
        fault_gap_ops: 16,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// Harness threads that generate load.
    pub fn generator_threads(&self, nproc: usize) -> usize {
        match self.drive {
            Drive::Frontend => nproc.min(self.clients as usize).max(1),
            Drive::SingleDriver | Drive::QuorumRounds => 1,
        }
    }

    /// Length of the segments the timed window is cut into, with a
    /// machine-speed sample between them (see `run::Segment`). The
    /// host's speed moves within a second, and the single driver stops
    /// and starts for the price of a drain, so its segments are short.
    /// The front-end's generator threads and pipeline take a moment to
    /// fill (ten seeds spread less with longer segments), and a
    /// segment of quorum rounds holds a whole number of them (16
    /// operations each, some thirty a second), so those two get
    /// longer ones.
    pub fn segment(&self) -> Duration {
        match self.drive {
            Drive::SingleDriver => Duration::from_millis(250),
            Drive::QuorumRounds | Drive::Frontend => Duration::from_secs(1),
        }
    }

    pub fn client_ids(&self) -> Vec<ClientId> {
        (1..=self.clients).map(ClientId).collect()
    }

    /// Records each lane holds once the preload is done.
    pub fn records_per_lane(&self) -> u64 {
        self.records / u64::from(self.shards)
    }
}

pub fn key_of(rank: u64) -> Vec<u8> {
    format!("{rank:016x}").into_bytes()
}

/// The rank a `{:016x}` key names.
pub fn rank_of(key: &[u8]) -> Option<u64> {
    u64::from_str_radix(std::str::from_utf8(key).ok()?, 16).ok()
}

/// A self-describing value: the rank it belongs under, the pool entry
/// that wrote it, then filler. Lets every `Get` be checked without a
/// model of the whole store.
pub fn value_of(rank: u64, writer: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(VALUE_LEN);
    v.extend_from_slice(&rank.to_be_bytes());
    v.extend_from_slice(&writer.to_be_bytes());
    v.resize(VALUE_LEN, b'v');
    v
}

/// Whether `value` may be what the store holds under `rank`: either a
/// self-describing value for that rank or the preload's `KvOp::Fill`
/// filler.
pub fn value_fits(rank: u64, value: &[u8]) -> bool {
    value.len() == VALUE_LEN
        && (value.iter().all(|&b| b == b'x') || value[..8] == rank.to_be_bytes())
}

/// One pre-generated operation.
pub struct PoolOp {
    /// The encoded `KvOp`.
    pub bytes: Vec<u8>,
    pub rank: u64,
    pub is_read: bool,
}

/// Writer tag of values written by the preload (not a pool index).
const PRELOAD_WRITER: u32 = u32::MAX;

/// The measured operation stream: `POOL_OPS` operations over the
/// workload's key distribution and read share, a pure function of
/// `seed`.
fn generate_pool(spec: &Spec, seed: u64) -> Vec<PoolOp> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x706f_6f6c));
    let mut uniform = Uniform::new(spec.records);
    let mut zipfian = Zipfian::with_theta(spec.records, 0.99, true);
    (0..POOL_OPS)
        .map(|i| {
            let rank = if spec.zipfian {
                zipfian.next_index(&mut rng)
            } else {
                uniform.next_index(&mut rng)
            };
            let is_read = rng.gen_range(0..100u32) < spec.read_pct;
            let op = if is_read {
                KvOp::Get(key_of(rank))
            } else {
                KvOp::Put(key_of(rank), value_of(rank, i as u32))
            };
            PoolOp {
                bytes: op.to_bytes(),
                rank,
                is_read,
            }
        })
        .collect()
}

/// The preload stream of a multi-shard workload: one `Put` per record,
/// through the protocol (`KvOp::Fill` writes a contiguous rank range
/// into the *pinned* shard, so it cannot place each key on the shard
/// its own hash routes to).
fn generate_preload_puts(spec: &Spec) -> Vec<PoolOp> {
    (0..spec.records)
        .map(|rank| PoolOp {
            bytes: KvOp::Put(key_of(rank), value_of(rank, PRELOAD_WRITER)).to_bytes(),
            rank,
            is_read: false,
        })
        .collect()
}

/// The preload of a single-shard workload: one bulk `KvOp::Fill`.
pub fn fill_op(spec: &Spec) -> Vec<u8> {
    KvOp::Fill {
        pin: b"fill".to_vec(),
        start: 0,
        count: spec.records as u32,
        value_len: VALUE_LEN as u32,
    }
    .to_bytes()
}

/// Every operation stream of a run, generated from `--seed` before
/// anything is timed.
pub struct Traffic {
    /// The measured stream, cycled.
    pub pool: Vec<PoolOp>,
    /// What loads the records: one fill on one shard, one `Put` per
    /// record on several.
    pub preload: Vec<PoolOp>,
    /// The stream's first `Put`, alone: what a fault cycle waits for.
    pub first_put: Vec<PoolOp>,
}

impl Traffic {
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        let pool = generate_pool(spec, seed);
        let preload = if spec.shards > 1 {
            generate_preload_puts(spec)
        } else {
            vec![PoolOp {
                bytes: fill_op(spec),
                rank: 0,
                is_read: false,
            }]
        };
        let first_put = pool
            .iter()
            .find(|p| !p.is_read)
            .map(|p| PoolOp {
                bytes: p.bytes.clone(),
                rank: p.rank,
                is_read: false,
            })
            .into_iter()
            .collect();
        Traffic {
            pool,
            preload,
            first_put,
        }
    }
}

/// Everything below `DeploymentBuilder`: the medium, the modelled
/// device delay, the taps and the delta-log engine. Survives a reboot
/// of the deployment above it.
pub struct Medium {
    pub delayed: Arc<DelayedStorage<Arc<MemoryStorage>>>,
    /// Tap on the device (below the delta log when there is one).
    pub device: Arc<Tap>,
}

impl Medium {
    pub fn new(spec: &Spec, tracer: &Arc<Tracer>) -> Self {
        Self::over(Arc::new(MemoryStorage::new()), spec, tracer)
    }

    /// A medium over bytes that already exist (a reboot, or the stale
    /// image of a rollback).
    pub fn over(raw: Arc<MemoryStorage>, spec: &Spec, tracer: &Arc<Tracer>) -> Self {
        let delayed = Arc::new(DelayedStorage::new(raw, spec.store_delay));
        let device = Arc::new(Tap::device(delayed.clone(), tracer.clone()));
        Medium { delayed, device }
    }
}

/// The workload's admission policy: two unmetered tenants, so nothing
/// is ever refused but retry dedup and the latency histograms run.
pub fn admission_config(spec: &Spec) -> Option<AdmissionConfig> {
    spec.admission.then(|| {
        let half = spec.clients / 2;
        AdmissionConfig::new(vec![
            TenantConfig::unlimited(TenantId(1), (1..=half).map(ClientId).collect(), 1),
            TenantConfig::unlimited(
                TenantId(2),
                (half + 1..=spec.clients).map(ClientId).collect(),
                1,
            ),
        ])
    })
}

/// A built deployment with the handles the harness measures through.
pub struct Stack {
    pub dep: Deployment,
    pub medium: Medium,
    /// Tap where the lanes write; the device tap itself when the
    /// workload has no delta log.
    pub lane_tap: Arc<Tap>,
    pub engine: Option<Arc<DeltaLogStorage>>,
    /// Time `DeltaLogStorage::open` took (its recovery scan).
    pub engine_open: Duration,
}

/// Assembles the workload's stack over `medium` through
/// `DeploymentBuilder`. Over an empty medium this bootstraps a fresh
/// deployment; over existing bytes it is the reboot path (`boot()`
/// recovers every lane from what the medium holds).
pub fn build_stack(
    spec: &Spec,
    seed: u64,
    medium: Medium,
    tracer: &Arc<Tracer>,
) -> lcm::core::Result<Stack> {
    let t0 = std::time::Instant::now();
    let (lane_tap, engine) = if spec.delta_log {
        let engine = Arc::new(
            DeltaLogStorage::open(medium.device.clone())
                .map_err(|e| lcm::core::LcmError::Storage(e.to_string()))?,
        );
        let tap = Arc::new(Tap::lane(engine.clone(), tracer.clone()));
        (tap, Some(engine))
    } else {
        (medium.device.clone(), None)
    };
    let engine_open = t0.elapsed();
    let storage: Arc<dyn StableStorage> = lane_tap.clone();
    let mut builder = DeploymentBuilder::<KvStore>::new()
        .shards(spec.shards)
        .replicas(spec.replicas)
        .mode(spec.mode)
        .batch_limit(BATCH)
        .quorum(Quorum::Majority)
        .clients(spec.client_ids())
        .seed(mix(seed, 0x6465_706c))
        .storage(storage);
    if spec.drive == Drive::Frontend {
        builder = builder.frontend(2);
    }
    if let Some(config) = admission_config(spec) {
        builder = builder.admission(config);
    }
    Ok(Stack {
        dep: builder.build()?,
        medium,
        lane_tap,
        engine,
        engine_open,
    })
}
