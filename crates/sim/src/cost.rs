//! The cost model: constants and per-server-kind service profiles.

use std::time::Duration;

use lcm_core::wire::{INVOKE_OVERHEAD, REPLY_OVERHEAD, ROUTE_HINT_LEN};
use lcm_tee::epc::{EpcModel, MapMemoryModel};

use crate::DiskModel;

/// AEAD framing bytes (nonce + tag) added by the transport encryption
/// of this workspace's crypto substrate.
pub const AEAD_FRAMING: usize = 12 + 16;

/// The key length used throughout the paper's evaluation.
pub const KEY_LEN: usize = 40;

/// The server variants benchmarked in Figs. 5/6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerKind {
    /// Unprotected KVS, Stunnel transport encryption (parallel).
    Native,
    /// Redis-style append-only-file KVS with group commit, Stunnel.
    RedisTls,
    /// SGX-sealed KVS, no rollback protection.
    Sgx {
        /// Operations per seal-and-store batch (1 = no batching).
        batch: usize,
    },
    /// LCM-protected KVS.
    Lcm {
        /// Operations per seal-and-store batch (1 = no batching).
        batch: usize,
    },
    /// SGX KVS gated by a trusted monotonic counter per request.
    SgxTmc,
}

impl ServerKind {
    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> String {
        match self {
            ServerKind::Native => "Native".into(),
            ServerKind::RedisTls => "Redis TLS".into(),
            ServerKind::Sgx { batch: 1 } => "SGX".into(),
            ServerKind::Sgx { .. } => "SGX with batching".into(),
            ServerKind::Lcm { batch: 1 } => "LCM".into(),
            ServerKind::Lcm { .. } => "LCM with batching".into(),
            ServerKind::SgxTmc => "SGX + TMC".into(),
        }
    }

    /// All seven series of Fig. 5/6 in the paper's legend order.
    pub fn figure5_series() -> Vec<ServerKind> {
        vec![
            ServerKind::Sgx { batch: 1 },
            ServerKind::Sgx { batch: 16 },
            ServerKind::Native,
            ServerKind::Lcm { batch: 1 },
            ServerKind::Lcm { batch: 16 },
            ServerKind::RedisTls,
            ServerKind::SgxTmc,
        ]
    }
}

/// Calibrated cost constants (see module docs of [`crate`] for what is
/// calibrated vs. derived).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// One-way network latency per message (LAN + TCP + client stack).
    pub net_one_way: Duration,
    /// Network cost per byte (1 Gbps ⇒ 8 ns/B).
    pub net_ns_per_byte: f64,
    /// Stunnel encrypt/decrypt latency added per direction for
    /// Native/Redis (parallel worker processes: latency, not a
    /// single-threaded bottleneck).
    pub stunnel_latency: Duration,
    /// Single-threaded host work per request (socket recv/send, queue
    /// management) — paid by every server kind.
    pub host_per_op: Duration,
    /// Native/Redis in-process work per op (map access, log append).
    pub plain_exec: Duration,
    /// Fixed cost of one ecall (enclave transition), per batch.
    pub ecall_overhead: Duration,
    /// Fixed cost of one in-enclave AEAD operation.
    pub aead_fixed: Duration,
    /// Per-byte in-enclave AEAD cost.
    pub aead_ns_per_byte: f64,
    /// In-enclave KVS operation execution (std::map access).
    pub enclave_exec: Duration,
    /// One SHA-256 hash-chain step (LCM only).
    pub hash_step: Duration,
    /// Contention surcharge of the concurrent transport front-end:
    /// the fraction of the per-op *host* work added per extra active
    /// driver thread (lock handoffs on the shared ingress/reply book,
    /// demux serialization). Applied only when a scenario pins
    /// `frontend_threads` explicitly; the auto default (one driver per
    /// lane, no surcharge) is the pre-front-end model.
    pub frontend_contention: f64,
    /// The in-enclave shard-identity route check (LCM only): FNV-1a
    /// over the operation's partition key, recomputed from the
    /// decrypted plaintext, plus the modulo comparison against the
    /// enclave's attested `(index, count)`. A few dozen bytes hashed
    /// per request — noise next to the AEAD work, but modelled so the
    /// simulator's LCM per-op cost stays an itemized account of what
    /// the real enclave does (validated against the real stack in
    /// `tests/sharding_validation.rs`).
    pub route_check: Duration,
    /// The host-side admission check at the front door (LCM only):
    /// one token-bucket refill-and-take, the weighted-fair in-flight
    /// accounting, the retry-dedup map probes, and the latency
    /// histogram record — all under the reply-book lock at ingress.
    /// A few map operations plus arithmetic per request; charged to
    /// the *host* share of the per-op cost (it runs outside the
    /// enclave), and validated against the real admission-enabled
    /// front-end in `tests/sharding_validation.rs`.
    pub admission_check: Duration,
    /// Per-follower acknowledgement overhead of a replicated shard
    /// group (LCM only, charged once per follower per batch): the host
    /// handing the leader's record over, the follower's in-enclave
    /// digest over what it applied, and the group's holder/quorum
    /// bookkeeping. The record's *application* itself (the follower
    /// opens the sealed batch delta, replays it and stores it as it
    /// came — on a plain store as on a delta log, never a whole-state
    /// seal) is modelled as another `per_batch` in the engine; this
    /// term is only the ack plumbing around it. Validated against the real `ReplicaGroup` stack in
    /// `tests/sharding_validation.rs`.
    pub replica_ack: Duration,
    /// Per-group-commit bookkeeping of the sealed delta-log storage
    /// engine (LCM only, and only when a scenario enables
    /// `delta_log`): encoding the touched-key diff, the length+CRC
    /// record framing, the head-slot rewrite, and the segment/anchor
    /// accounting around the delta seal. The seal itself is charged
    /// through the model's internal seal curve over the *delta* bytes
    /// instead of the full state — that substitution, not this term,
    /// is where the
    /// engine wins — so `delta_store` is just the fixed plumbing per
    /// commit. Validated against the real `DeltaLogStorage` stack in
    /// `tests/sharding_validation.rs`.
    pub delta_store: Duration,
    /// Fixed cost of sealing the state, per batch.
    pub seal_fixed: Duration,
    /// Per-byte sealing cost.
    pub seal_ns_per_byte: f64,
    /// LCM metadata premium at 100 B objects (fitted to Fig. 4:
    /// 20.12 % throughput overhead at saturation).
    pub lcm_premium_100: f64,
    /// LCM metadata premium at 2500 B objects (fitted: 10.96 %).
    pub lcm_premium_2500: f64,
    /// TMC increment latency (paper §6.5: 60 ms measured).
    pub tmc_increment: Duration,
    /// Disk model for persistence costs.
    pub disk: DiskModel,
    /// EPC paging model (only material for the §6.2 experiment).
    pub epc: EpcModel,
    /// `std::map` memory accounting.
    pub map_memory: MapMemoryModel,
    /// Maximum ops merged into one Redis group commit.
    pub group_commit_limit: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            net_one_way: Duration::from_micros(190),
            net_ns_per_byte: 8.0,
            stunnel_latency: Duration::from_micros(12),
            host_per_op: Duration::from_micros(14),
            plain_exec: Duration::from_micros(3),
            ecall_overhead: Duration::from_micros(9),
            // Fitted to `cargo bench -p lcm-bench --bench crypto` on the
            // 2-core reference container (ChaCha20-Poly1305, mean of
            // encrypt and decrypt): 145 B 0.43 µs, 1 KiB 1.70 µs,
            // 16 KiB 23.4 µs ⇒ 1.41 ns/B over a 0.25 µs intercept.
            // The values stay there (the validation bands and figure
            // bins depend on them). Re-measured per ChaCha20 kernel
            // with radix-2⁶⁴ Poly1305 (2.1 GHz Xeon), the two fits a
            // `measured(trace)` profile takes: lane-array 145 B
            // 0.47 µs, 1 KiB 1.74 µs, 16 KiB 23.9 µs ⇒ 1.44 ns/B over
            // 0.26 µs; AVX2 145 B 0.37 µs, 1 KiB 1.33 µs, 16 KiB
            // 14.8 µs ⇒ 0.89 ns/B over 0.24 µs. In place (no copy, no
            // `thread_rng` nonce) a 145 B seal is 0.30 µs on AVX2. The
            // per-operation channel (`kC`) now seals on AES-128-GCM
            // (`lcm_crypto::gcm`): ≈ 0.1 µs an 82 B or 166 B seal on
            // AES-NI, the constants unchanged.
            aead_fixed: Duration::from_nanos(250),
            aead_ns_per_byte: 1.4,
            enclave_exec: Duration::from_micros(2),
            // Stays at the paper-testbed figure the figure bins
            // reproduce. Measured on the reference container
            // (`crypto.sha256.chain_step_ns`, a 100 B-value Put's 165 B
            // preimage): ≈ 0.8 µs on the portable kernel, ≈ 0.2 µs on
            // SHA-NI — the two values a `measured(trace)` profile takes.
            hash_step: Duration::from_nanos(600),
            frontend_contention: 0.04,
            route_check: Duration::from_nanos(120),
            admission_check: Duration::from_nanos(250),
            replica_ack: Duration::from_micros(2),
            // Fixed plumbing only; the frame checksum under it is the
            // one per-byte part and no longer worth a term: criterion
            // `crc32/1048576` fits ≈ 0.05 ns/B on the CLMUL kernel
            // (`lcm_storage::framing::backend()` = "clmul"; a 4.3 KB
            // group commit ≈ 0.2 µs) against ≈ 0.65 ns/B on the table
            // kernel (`crc32_table/…`, ≈ 2.8 µs for the same commit —
            // there it is this whole microsecond and more).
            delta_store: Duration::from_micros(1),
            seal_fixed: Duration::from_micros(3),
            // Stays at the paper testbed's AES-NI GCM rate (≈ 4 GB/s):
            // the full-state seal is what places the SGX baseline in
            // Fig. 5/6. This workspace's software AEAD seals bulk at
            // 1.4 ns/B (criterion `aead/encrypt/335872`: 0.65 GiB/s);
            // at that rate the modelled SGX/Native ratio falls to
            // about 0.03–0.45× against the paper's 0.42–0.78×.
            seal_ns_per_byte: 0.25,
            lcm_premium_100: 0.2519,  // 1/(1-0.2012) - 1
            lcm_premium_2500: 0.1231, // 1/(1-0.1096) - 1
            tmc_increment: Duration::from_millis(60),
            disk: DiskModel::default(),
            epc: EpcModel::default(),
            map_memory: MapMemoryModel::default(),
            group_commit_limit: 64,
        }
    }
}

fn dur_mul(d: Duration, f: f64) -> Duration {
    Duration::from_nanos((d.as_nanos() as f64 * f) as u64)
}

impl CostModel {
    /// LCM's metadata premium for a given object size, interpolated
    /// linearly between the two fitted anchors and clamped outside.
    pub fn lcm_premium(&self, object_size: usize) -> f64 {
        let (x0, y0) = (100.0, self.lcm_premium_100);
        let (x1, y1) = (2500.0, self.lcm_premium_2500);
        let x = (object_size as f64).clamp(x0, x1);
        y0 + (x - x0) * (y1 - y0) / (x1 - x0)
    }

    fn aead(&self, bytes: usize) -> Duration {
        self.aead_fixed + Duration::from_nanos((bytes as f64 * self.aead_ns_per_byte) as u64)
    }

    fn seal(&self, bytes: usize) -> Duration {
        self.seal_fixed + Duration::from_nanos((bytes as f64 * self.seal_ns_per_byte) as u64)
    }

    /// One-way network time for a message of `bytes`.
    pub fn net_one_way(&self, bytes: usize) -> Duration {
        self.net_one_way + Duration::from_nanos((bytes as f64 * self.net_ns_per_byte) as u64)
    }

    /// Builds the [`ServiceProfile`] for `kind` serving `record_count`
    /// objects of `object_size` bytes, with fsync on or off.
    ///
    /// Message sizes: a PUT carries `key + value` plus per-protocol
    /// metadata; a GET reply carries the value. Both directions are
    /// averaged for the 50/50 workload-A mix.
    pub fn profile(
        &self,
        kind: ServerKind,
        record_count: usize,
        object_size: usize,
        fsync: bool,
    ) -> ServiceProfile {
        let payload_in = KEY_LEN + object_size; // PUT-shaped request
        let payload_out = object_size; // GET-shaped reply
        let state_bytes = record_count * self.map_memory.bytes_per_object(KEY_LEN, object_size);
        let heap_penalty = self.epc.access_penalty(state_bytes);

        // Wire sizes per protocol.
        let (wire_in, wire_out) = match kind {
            ServerKind::Lcm { .. } => (
                // The plaintext routing envelope rides outside the AEAD.
                payload_in + ROUTE_HINT_LEN + INVOKE_OVERHEAD + AEAD_FRAMING,
                payload_out + REPLY_OVERHEAD + AEAD_FRAMING,
            ),
            ServerKind::Sgx { .. } | ServerKind::SgxTmc => (
                payload_in + 1 + AEAD_FRAMING,
                payload_out + 1 + AEAD_FRAMING,
            ),
            // Native/Redis: TLS record framing, roughly the same size.
            ServerKind::Native | ServerKind::RedisTls => (payload_in + 29, payload_out + 29),
        };

        match kind {
            ServerKind::Native => ServiceProfile {
                kind,
                wire_in,
                wire_out,
                per_op: self.host_per_op + self.plain_exec,
                host_share: self.host_per_op,
                per_batch: Duration::ZERO,
                batch_limit: 1,
                extra_latency: 2 * self.stunnel_latency,
                disk_bytes_per_commit: state_bytes.min(1 << 16), // async snapshot page writes
                fsync,
                group_commit: false,
                fsync_per_op: true,
                tmc_per_op: Duration::ZERO,
            },
            ServerKind::RedisTls => ServiceProfile {
                kind,
                wire_in,
                wire_out,
                per_op: self.host_per_op + self.plain_exec,
                host_share: self.host_per_op,
                per_batch: Duration::ZERO,
                batch_limit: 1,
                extra_latency: 2 * self.stunnel_latency,
                // AOF appends only the op entry, not the state.
                disk_bytes_per_commit: payload_in + 16,
                fsync,
                group_commit: true,
                fsync_per_op: false,
                tmc_per_op: Duration::ZERO,
            },
            ServerKind::Sgx { batch } | ServerKind::Lcm { batch } => {
                let crypto = self.aead(wire_in) + self.aead(wire_out);
                let exec = dur_mul(self.enclave_exec, heap_penalty);
                let crypto_cost = crypto;
                let exec_cost = exec;
                let mut per_op = self.host_per_op + crypto_cost + exec_cost;
                let mut host_share = self.host_per_op;
                let mut state = state_bytes;
                let mut per_batch = self.ecall_overhead + self.seal(state);
                if let ServerKind::Lcm { .. } = kind {
                    per_op += self.hash_step + self.route_check + self.admission_check;
                    host_share += self.admission_check;
                    // V map entries (~100 B per client, plus the cached
                    // reply of the retry extension) enlarge the sealed
                    // state; dominated by the KVS state itself.
                    state += 4 * 1024;
                    per_batch = self.ecall_overhead + self.seal(state);
                    // Fitted metadata premium (see module docs): covers
                    // the per-request protocol bookkeeping AND the
                    // heavier seal (V, cached replies) that the paper's
                    // measurements include. Applied to the whole
                    // enclave cycle, matching the throughput overhead
                    // Fig. 4 reports at saturation.
                    let premium = 1.0 + self.lcm_premium(object_size);
                    per_op = dur_mul(per_op, premium);
                    per_batch = dur_mul(per_batch, premium);
                    host_share = dur_mul(host_share, premium);
                }
                ServiceProfile {
                    kind,
                    wire_in,
                    wire_out,
                    per_op,
                    host_share,
                    per_batch,
                    batch_limit: batch.max(1),
                    extra_latency: Duration::ZERO,
                    disk_bytes_per_commit: state,
                    fsync,
                    group_commit: false,
                    fsync_per_op: false,
                    tmc_per_op: Duration::ZERO,
                }
            }
            ServerKind::SgxTmc => {
                let base = self.profile(
                    ServerKind::Sgx { batch: 1 },
                    record_count,
                    object_size,
                    fsync,
                );
                ServiceProfile {
                    kind,
                    tmc_per_op: self.tmc_increment,
                    ..base
                }
            }
        }
    }

    /// Like [`CostModel::profile`], but with the server persisting
    /// through the sealed delta-log storage engine: each group commit
    /// seals only the batch's touched-key diff — plus the engine's
    /// fixed bookkeeping, [`CostModel::delta_store`] — instead of
    /// resealing the whole resident state.
    ///
    /// Only the LCM kinds change (the engine passes every other
    /// server's blobs through untouched). The per-*op* cost keeps its
    /// full state-size dependence — the EPC paging penalty taxes
    /// lookups regardless of how the state is persisted — but the
    /// per-*batch* cost and the commit's disk footprint become
    /// functions of the batch alone, which is why the engine's
    /// throughput is nearly independent of record count (the
    /// `delta-1M` vs `delta-small` bench cells, gated in CI).
    pub fn profile_delta_log(
        &self,
        kind: ServerKind,
        record_count: usize,
        object_size: usize,
        fsync: bool,
    ) -> ServiceProfile {
        let mut profile = self.profile(kind, record_count, object_size, fsync);
        let ServerKind::Lcm { batch } = kind else {
            return profile;
        };
        // One sealed delta: the batch's keys and values with their
        // per-record codec framing, plus the V-map subset for the
        // batch's clients and the anchor/floor header — none of it
        // scales with the resident record count.
        let delta_bytes = batch.max(1) * (KEY_LEN + object_size + 16) + 512;
        let premium = 1.0 + self.lcm_premium(object_size);
        profile.per_batch = dur_mul(
            self.ecall_overhead + self.seal(delta_bytes) + self.delta_store,
            premium,
        );
        profile.disk_bytes_per_commit = delta_bytes;
        profile
    }
}

/// The per-request/per-batch costs of one server configuration, as
/// consumed by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceProfile {
    /// Which server this profiles.
    pub kind: ServerKind,
    /// Request wire size in bytes.
    pub wire_in: usize,
    /// Reply wire size in bytes.
    pub wire_out: usize,
    /// Single-threaded server work per operation.
    pub per_op: Duration,
    /// The untrusted-host share of `per_op` (socket recv/send, queue
    /// management, routing) — the part the transport front-end's
    /// driver threads pay, and the base of the front-end contention
    /// surcharge.
    pub host_share: Duration,
    /// Single-threaded server work per batch (ecall + seal).
    pub per_batch: Duration,
    /// Maximum operations per batch.
    pub batch_limit: usize,
    /// Extra round-trip latency not serialized at the server
    /// (Stunnel worker processes).
    pub extra_latency: Duration,
    /// Bytes written to disk per commit.
    pub disk_bytes_per_commit: usize,
    /// Whether writes are fsynced (Fig. 6) or async (Figs. 4/5).
    pub fsync: bool,
    /// Whether concurrent commits share one fsync (Redis group
    /// commit).
    pub group_commit: bool,
    /// Whether the fsync is per operation (Native snapshots) rather
    /// than per batch.
    pub fsync_per_op: bool,
    /// Trusted-monotonic-counter increment charged per operation.
    pub tmc_per_op: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn lcm_premium_interpolates() {
        let m = model();
        assert!((m.lcm_premium(100) - m.lcm_premium_100).abs() < 1e-9);
        assert!((m.lcm_premium(2500) - m.lcm_premium_2500).abs() < 1e-9);
        let mid = m.lcm_premium(1300);
        assert!(mid < m.lcm_premium_100 && mid > m.lcm_premium_2500);
        // Clamped outside the anchors (within float tolerance).
        assert!((m.lcm_premium(50) - m.lcm_premium_100).abs() < 1e-9);
        assert!((m.lcm_premium(10_000) - m.lcm_premium_2500).abs() < 1e-9);
    }

    #[test]
    fn lcm_costs_more_than_sgx() {
        let m = model();
        for size in [100, 500, 2500] {
            let sgx = m.profile(ServerKind::Sgx { batch: 1 }, 1000, size, false);
            let lcm = m.profile(ServerKind::Lcm { batch: 1 }, 1000, size, false);
            assert!(lcm.per_op > sgx.per_op, "size {size}");
            assert!(lcm.wire_in > sgx.wire_in);
            assert!(lcm.wire_out > sgx.wire_out);
        }
    }

    #[test]
    fn route_check_is_charged_to_lcm_only() {
        let mut cheap = model();
        cheap.route_check = Duration::ZERO;
        let m = model();
        let with_check = m.profile(ServerKind::Lcm { batch: 1 }, 1000, 100, false);
        let without = cheap.profile(ServerKind::Lcm { batch: 1 }, 1000, 100, false);
        assert!(with_check.per_op > without.per_op);
        // SGX has no in-enclave router to pay for.
        assert_eq!(
            m.profile(ServerKind::Sgx { batch: 1 }, 1000, 100, false)
                .per_op,
            cheap
                .profile(ServerKind::Sgx { batch: 1 }, 1000, 100, false)
                .per_op
        );
        // The check is small: well under 1% of the LCM per-op budget,
        // matching its footprint on the real stack.
        let delta = with_check.per_op - without.per_op;
        assert!(delta * 100 < with_check.per_op);
    }

    #[test]
    fn admission_check_is_charged_to_lcm_host_share() {
        let mut cheap = model();
        cheap.admission_check = Duration::ZERO;
        let m = model();
        let with_check = m.profile(ServerKind::Lcm { batch: 1 }, 1000, 100, false);
        let without = cheap.profile(ServerKind::Lcm { batch: 1 }, 1000, 100, false);
        // The front door runs on the host, so both the total and the
        // host share of the per-op cost carry it.
        assert!(with_check.per_op > without.per_op);
        assert!(with_check.host_share > without.host_share);
        // SGX has no multi-tenant front door to pay for.
        assert_eq!(
            m.profile(ServerKind::Sgx { batch: 1 }, 1000, 100, false)
                .per_op,
            cheap
                .profile(ServerKind::Sgx { batch: 1 }, 1000, 100, false)
                .per_op
        );
        // Like the route check, it is noise next to the crypto work:
        // under 2% of the LCM per-op budget.
        let delta = with_check.per_op - without.per_op;
        assert!(delta * 50 < with_check.per_op);
    }

    #[test]
    fn delta_log_per_batch_is_state_size_independent() {
        let m = model();
        let kind = ServerKind::Lcm { batch: 16 };
        let small = m.profile_delta_log(kind, 1_000, 100, true);
        let big = m.profile_delta_log(kind, 1_000_000, 100, true);
        // The sealed diff per commit does not grow with the store.
        assert_eq!(small.per_batch, big.per_batch);
        assert_eq!(small.disk_bytes_per_commit, big.disk_bytes_per_commit);
        // Full-state sealing at 10^6 records dwarfs both.
        let full = m.profile(kind, 1_000_000, 100, true);
        assert!(full.per_batch > 10 * big.per_batch);
        assert!(full.disk_bytes_per_commit > 100 * big.disk_bytes_per_commit);
        // The per-op EPC tax survives: reads still walk the big map.
        assert!(big.per_op > small.per_op);
    }

    #[test]
    fn delta_store_is_charged_per_group_commit() {
        let mut cheap = model();
        cheap.delta_store = Duration::ZERO;
        let m = model();
        let kind = ServerKind::Lcm { batch: 4 };
        let with_term = m.profile_delta_log(kind, 1000, 100, true);
        let without = cheap.profile_delta_log(kind, 1000, 100, true);
        // Bookkeeping lands on the batch, not on each op.
        assert!(with_term.per_batch > without.per_batch);
        assert_eq!(with_term.per_op, without.per_op);
        // Non-LCM blobs pass through the engine untouched.
        let sgx = ServerKind::Sgx { batch: 4 };
        assert_eq!(
            m.profile_delta_log(sgx, 1000, 100, true),
            m.profile(sgx, 1000, 100, true)
        );
    }

    #[test]
    fn native_is_cheapest_per_op() {
        let m = model();
        let native = m.profile(ServerKind::Native, 1000, 100, false);
        let sgx = m.profile(ServerKind::Sgx { batch: 1 }, 1000, 100, false);
        assert!(native.per_op < sgx.per_op + sgx.per_batch);
    }

    #[test]
    fn batching_reduces_per_op_share() {
        let m = model();
        let unbatched = m.profile(ServerKind::Sgx { batch: 1 }, 1000, 100, false);
        let batched = m.profile(ServerKind::Sgx { batch: 16 }, 1000, 100, false);
        assert_eq!(unbatched.per_batch, batched.per_batch);
        assert_eq!(batched.batch_limit, 16);
    }

    #[test]
    fn tmc_inherits_sgx_and_adds_counter() {
        let m = model();
        let sgx = m.profile(ServerKind::Sgx { batch: 1 }, 1000, 100, false);
        let tmc = m.profile(ServerKind::SgxTmc, 1000, 100, false);
        assert_eq!(tmc.per_op, sgx.per_op);
        assert_eq!(tmc.tmc_per_op, Duration::from_millis(60));
    }

    #[test]
    fn redis_disk_is_incremental() {
        let m = model();
        let redis = m.profile(ServerKind::RedisTls, 1000, 100, true);
        let sgx = m.profile(ServerKind::Sgx { batch: 1 }, 1000, 100, true);
        assert!(redis.disk_bytes_per_commit < sgx.disk_bytes_per_commit / 10);
        assert!(redis.group_commit);
        assert!(!sgx.group_commit);
    }

    #[test]
    fn epc_penalty_inflates_exec_for_huge_stores() {
        let m = model();
        let small = m.profile(ServerKind::Sgx { batch: 1 }, 1000, 100, false);
        let huge = m.profile(ServerKind::Sgx { batch: 1 }, 1_000_000, 100, false);
        assert!(huge.per_op > small.per_op);
    }

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(ServerKind::Lcm { batch: 16 }.label(), "LCM with batching");
        assert_eq!(ServerKind::Sgx { batch: 1 }.label(), "SGX");
        assert_eq!(ServerKind::figure5_series().len(), 7);
    }
}
