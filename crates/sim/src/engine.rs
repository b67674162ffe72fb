//! The closed-loop discrete-event engine.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Duration;

use crate::cost::ServiceProfile;
use crate::metrics::Metrics;

/// Nanoseconds of virtual time.
type Nanos = u64;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// A request from `client` arrives at its shard's ingress queue.
    Arrival { client: usize },
    /// Shard `shard` finishes the cycle serving these clients.
    ServerDone { shard: usize, clients: Vec<usize> },
}

/// A closed-loop simulation: `n_clients` YCSB workers, one server
/// described by a [`ServiceProfile`] — optionally split into several
/// independent shard stations ([`Simulation::with_shards`]), each with
/// its own queue and its own disk, modelling the sharded
/// multi-enclave host.
///
/// Deterministic: service times are the profile's constants and
/// clients have zero think time, exactly like a saturating YCSB run.
/// Clients are partitioned over shards round-robin, mirroring a
/// uniform route-hash distribution under the genesis slice table;
/// [`Simulation::with_hot_shard`] pins a prefix of them to one
/// station instead, modelling a skewed key population before
/// heat-aware rebalancing spreads its slices back out.
///
/// # Example
///
/// ```
/// use lcm_sim::{CostModel, ServerKind, Simulation};
/// use std::time::Duration;
///
/// let model = CostModel::default();
/// let profile = model.profile(ServerKind::Native, 1000, 100, false);
/// let sim = Simulation::new(profile, &model, 8, Duration::from_secs(5));
/// let metrics = sim.run();
/// assert!(metrics.throughput() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Simulation {
    profile: ServiceProfile,
    disk: lcm_storage::DiskModel,
    n_clients: usize,
    shards: usize,
    /// Transport front-end driver threads (0 = auto: one driver per
    /// shard, the pre-front-end model with no contention surcharge).
    frontend_threads: usize,
    /// Per-extra-driver contention surcharge on the host share of
    /// `per_op` (see `CostModel::frontend_contention`).
    frontend_contention: f64,
    /// Clients pinned to shard 0 (hot-skew model; 0 = uniform).
    hot_clients: usize,
    /// Members per shard group (1 = unreplicated).
    replicas: usize,
    /// Per-follower ack plumbing charged per batch (see
    /// `CostModel::replica_ack`).
    replica_ack: Duration,
    duration: Nanos,
    warmup: Nanos,
    request_leg: Nanos,
    reply_leg: Nanos,
}

impl Simulation {
    /// Builds a simulation of `n_clients` closed-loop clients against
    /// the given profile for `duration` of virtual time (the paper
    /// measures 30-second windows; 5–30 s all give identical rates in
    /// this deterministic engine).
    pub fn new(
        profile: ServiceProfile,
        model: &crate::cost::CostModel,
        n_clients: usize,
        duration: Duration,
    ) -> Self {
        let request_leg =
            (model.net_one_way(profile.wire_in) + profile.extra_latency / 2).as_nanos() as Nanos;
        let reply_leg =
            (model.net_one_way(profile.wire_out) + profile.extra_latency / 2).as_nanos() as Nanos;
        let duration_ns = duration.as_nanos() as Nanos;
        Simulation {
            profile,
            disk: model.disk,
            n_clients: n_clients.max(1),
            shards: 1,
            frontend_threads: 0,
            frontend_contention: 0.0,
            hot_clients: 0,
            replicas: 1,
            replica_ack: Duration::ZERO,
            duration: duration_ns,
            warmup: duration_ns / 10,
            request_leg,
            reply_leg,
        }
    }

    /// Splits the server into `shards` independent stations — the
    /// sharded multi-enclave host. Stage-2 work (execute + seal) and
    /// persistence parallelize across stations; the network legs are
    /// unchanged.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Pins the first `hot_clients` clients to shard 0, modelling a
    /// skewed key population whose slices all hash to one station —
    /// the workload the real stack's `*-hot` bench cells measure. The
    /// remaining clients spread round-robin as before. `0` (the
    /// default) is the uniform table; it is also the end state
    /// heat-aware rebalancing converges to once the hot slices have
    /// been migrated off the loaded shard, so the throughput gap
    /// between a skewed run and a uniform one bounds what live slice
    /// migration can recover.
    #[must_use]
    pub fn with_hot_shard(mut self, hot_clients: usize) -> Self {
        self.hot_clients = hot_clients;
        self
    }

    /// Models the concurrent transport front-end: at most `threads`
    /// driver threads execute shard cycles concurrently (a shard with
    /// queued work waits for a free driver), and each active extra
    /// driver adds `contention` of the per-op host share (lock
    /// handoffs on the shared ingress/reply planes). `threads = 0` is
    /// the auto default — one driver per shard, no surcharge — which
    /// is exactly the pre-front-end model.
    #[must_use]
    pub fn with_frontend_threads(mut self, threads: usize, contention: f64) -> Self {
        self.frontend_threads = threads;
        self.frontend_contention = contention.max(0.0);
        self
    }

    /// Runs each shard station as a replica group of `replicas`
    /// members. Every batch cycle then additionally ships the sealed
    /// blob to each of the `replicas - 1` followers — the follower's
    /// apply is an unseal + reseal of the state, modelled as another
    /// `per_batch`, plus the `ack` plumbing — and, under fsync, each
    /// member persists its own copy of the blob before the quorum
    /// releases the batch. `1` (the default) reproduces the
    /// unreplicated model exactly.
    #[must_use]
    pub fn with_replicas(mut self, replicas: usize, ack: Duration) -> Self {
        self.replicas = replicas.max(1);
        self.replica_ack = ack;
        self
    }

    fn effective_batch(&self) -> usize {
        if self.profile.group_commit {
            // Group commit merges whatever is queued (bounded).
            64
        } else {
            self.profile.batch_limit
        }
    }

    fn cycle_duration(&self, k: usize) -> Nanos {
        let p = &self.profile;
        let mut total = p.per_op * (k as u32) + p.per_batch + p.tmc_per_op * (k as u32);
        let followers = (self.replicas - 1) as u32;
        if followers > 0 {
            // Replication is in the batch path: the released replies
            // wait for every follower's apply and ack before the
            // quorum frees them. A follower's `per_batch` is its *own*
            // persist of the batch — it applied the leader's sealed
            // delta and stores the record as it came, on a delta log
            // and on a plain store alike, sealing a checkpoint only
            // when its own cadence asks for one — not a reinstall of
            // the leader's state, and not a whole-state seal.
            total += (p.per_batch + self.replica_ack) * followers;
        }
        if p.fsync {
            let commits = if p.fsync_per_op { k } else { self.replicas };
            for _ in 0..commits {
                total += self.disk.sync_write_cost(p.disk_bytes_per_commit);
            }
        }
        total.as_nanos() as Nanos
    }

    /// Runs the simulation to completion, returning measured metrics.
    pub fn run(&self) -> Metrics {
        let mut heap: BinaryHeap<Reverse<(Nanos, u64, Event)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let push = |heap: &mut BinaryHeap<_>, t: Nanos, e: Event, seq: &mut u64| {
            *seq += 1;
            heap.push(Reverse((t, *seq, e)));
        };

        let shards = self.shards;
        // Front-end driver pool: a shard cycle occupies one driver
        // thread from start to finish, so at most `eff_drivers` shard
        // cycles overlap. The auto default (one driver per shard,
        // surcharge-free) reproduces the pre-front-end model exactly.
        let eff_drivers = if self.frontend_threads == 0 {
            shards
        } else {
            self.frontend_threads.min(shards).max(1)
        };
        let per_op_surcharge: Nanos = if self.frontend_threads == 0 {
            0
        } else {
            (self.profile.host_share.as_nanos() as f64
                * self.frontend_contention
                * (eff_drivers - 1) as f64) as Nanos
        };
        let mut free_drivers = eff_drivers;
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); shards];
        let mut busy: Vec<bool> = vec![false; shards];
        let mut send_time: Vec<Nanos> = vec![0; self.n_clients];
        let mut metrics = Metrics::new(Duration::from_nanos(self.duration - self.warmup));
        // Client→shard partition: the engine's stand-in for the slice
        // table. Round-robin mirrors a uniform route-hash spread; the
        // first `hot_clients` pin to shard 0 to model a skewed key
        // population (all of its slices owned by one station).
        let hot = self.hot_clients.min(self.n_clients);
        let shard_of = move |client: usize| {
            if client < hot {
                0
            } else {
                client % shards
            }
        };

        // All clients fire at t=0 with a 1 µs stagger to avoid
        // artificial phase lock.
        for (c, send) in send_time.iter_mut().enumerate() {
            let t0 = c as Nanos * 1_000;
            *send = t0;
            push(
                &mut heap,
                t0 + self.request_leg,
                Event::Arrival { client: c },
                &mut seq,
            );
        }

        // Starts a cycle on `shard` if it has work and a driver is
        // free.
        macro_rules! try_start {
            ($shard:expr, $now:expr, $heap:expr, $seq:expr, $queues:expr, $busy:expr, $free:expr) => {{
                let shard = $shard;
                if !$busy[shard] && !$queues[shard].is_empty() && $free > 0 {
                    let k = self.effective_batch().min($queues[shard].len());
                    let batch: Vec<usize> = $queues[shard].drain(..k).collect();
                    $busy[shard] = true;
                    $free -= 1;
                    let cycle =
                        self.cycle_duration(batch.len()) + per_op_surcharge * batch.len() as Nanos;
                    push(
                        $heap,
                        $now + cycle,
                        Event::ServerDone {
                            shard,
                            clients: batch,
                        },
                        $seq,
                    );
                }
            }};
        }

        while let Some(Reverse((now, _, event))) = heap.pop() {
            if now >= self.duration {
                break;
            }
            match event {
                Event::Arrival { client } => {
                    let shard = shard_of(client);
                    queues[shard].push_back(client);
                    try_start!(shard, now, &mut heap, &mut seq, queues, busy, free_drivers);
                }
                Event::ServerDone { shard, clients } => {
                    busy[shard] = false;
                    free_drivers += 1;
                    for client in clients {
                        let completion = now + self.reply_leg;
                        if completion >= self.warmup && completion < self.duration {
                            metrics.record(Duration::from_nanos(completion - send_time[client]));
                        }
                        // Closed loop: immediately send the next request.
                        send_time[client] = completion;
                        push(
                            &mut heap,
                            completion + self.request_leg,
                            Event::Arrival { client },
                            &mut seq,
                        );
                    }
                    // The freed driver picks up waiting work, starting
                    // with the shard it just finished (round-robin).
                    for offset in 0..shards {
                        try_start!(
                            (shard + offset) % shards,
                            now,
                            &mut heap,
                            &mut seq,
                            queues,
                            busy,
                            free_drivers
                        );
                    }
                }
            }
        }
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostModel, ServerKind};

    fn run(kind: ServerKind, n: usize, fsync: bool) -> Metrics {
        let model = CostModel::default();
        let profile = model.profile(kind, 1000, 100, fsync);
        Simulation::new(profile, &model, n, Duration::from_secs(5)).run()
    }

    #[test]
    fn single_client_throughput_is_rtt_bound() {
        let m = run(ServerKind::Native, 1, false);
        // RTT ≈ 0.43 ms ⇒ ~2.3 kops/s.
        let x = m.throughput();
        assert!((1_500.0..3_500.0).contains(&x), "native@1 = {x}");
    }

    #[test]
    fn native_scales_with_clients() {
        let x1 = run(ServerKind::Native, 1, false).throughput();
        let x8 = run(ServerKind::Native, 8, false).throughput();
        let x32 = run(ServerKind::Native, 32, false).throughput();
        assert!(x8 > 6.0 * x1, "x1={x1} x8={x8}");
        assert!(x32 > 2.5 * x8, "x8={x8} x32={x32}");
    }

    #[test]
    fn sgx_saturates_around_eight_clients() {
        let x8 = run(ServerKind::Sgx { batch: 1 }, 8, false).throughput();
        let x32 = run(ServerKind::Sgx { batch: 1 }, 32, false).throughput();
        assert!(
            x32 < 1.15 * x8,
            "SGX should be saturated by 8 clients: x8={x8} x32={x32}"
        );
    }

    #[test]
    fn lcm_is_slower_than_sgx_but_close() {
        for n in [1usize, 8, 32] {
            let sgx = run(ServerKind::Sgx { batch: 1 }, n, false).throughput();
            let lcm = run(ServerKind::Lcm { batch: 1 }, n, false).throughput();
            let ratio = lcm / sgx;
            assert!((0.60..=1.0).contains(&ratio), "LCM/SGX@{n} = {ratio:.3}");
        }
    }

    #[test]
    fn tmc_throughput_is_a_dozen_ops() {
        for n in [1usize, 8, 32] {
            let x = run(ServerKind::SgxTmc, n, false).throughput();
            assert!((8.0..=20.0).contains(&x), "TMC@{n} = {x}");
        }
    }

    #[test]
    fn fsync_flattens_unbatched_variants() {
        let x1 = run(ServerKind::Sgx { batch: 1 }, 1, true).throughput();
        let x32 = run(ServerKind::Sgx { batch: 1 }, 32, true).throughput();
        assert!(x32 < 1.3 * x1, "x1={x1} x32={x32}");
        assert!(x32 < 1_000.0, "fsync-bound must be slow: {x32}");
    }

    #[test]
    fn batching_rescues_fsync_throughput() {
        let unbatched = run(ServerKind::Lcm { batch: 1 }, 32, true).throughput();
        let batched = run(ServerKind::Lcm { batch: 16 }, 32, true).throughput();
        assert!(
            batched > 4.0 * unbatched,
            "unbatched={unbatched} batched={batched}"
        );
    }

    #[test]
    fn redis_group_commit_scales_under_fsync() {
        let x1 = run(ServerKind::RedisTls, 1, true).throughput();
        let x32 = run(ServerKind::RedisTls, 32, true).throughput();
        assert!(x32 > 5.0 * x1, "x1={x1} x32={x32}");
    }

    #[test]
    fn deterministic_runs() {
        let a = run(ServerKind::Lcm { batch: 16 }, 8, false).ops();
        let b = run(ServerKind::Lcm { batch: 16 }, 8, false).ops();
        assert_eq!(a, b);
    }

    fn run_sharded(shards: usize, n: usize, fsync: bool) -> Metrics {
        let model = CostModel::default();
        let profile = model.profile(ServerKind::Lcm { batch: 16 }, 1000, 100, fsync);
        Simulation::new(profile, &model, n, Duration::from_secs(5))
            .with_shards(shards)
            .run()
    }

    #[test]
    fn sharding_scales_a_saturated_server() {
        // At 64 clients one LCM station is saturated; 4 stations with
        // their own disks should clear well over 1.5x of it.
        let x1 = run_sharded(1, 64, true).throughput();
        let x4 = run_sharded(4, 64, true).throughput();
        assert!(x4 > 1.5 * x1, "x1={x1} x4={x4}");
        assert!(x4 < 4.5 * x1, "superlinear scaling is a model bug");
    }

    #[test]
    fn sharding_is_neutral_when_unsaturated() {
        // A single client cannot use more than one shard.
        let x1 = run_sharded(1, 1, false).throughput();
        let x4 = run_sharded(4, 1, false).throughput();
        let ratio = x4 / x1;
        assert!((0.95..=1.05).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn one_shard_equals_unsharded() {
        let base = run(ServerKind::Lcm { batch: 16 }, 16, false).ops();
        let one = run_sharded(1, 16, false).ops();
        assert_eq!(base, one);
    }

    fn run_frontend(shards: usize, threads: usize, n: usize) -> Metrics {
        let model = CostModel::default();
        let profile = model.profile(ServerKind::Lcm { batch: 16 }, 1000, 100, true);
        Simulation::new(profile, &model, n, Duration::from_secs(5))
            .with_shards(shards)
            .with_frontend_threads(threads, model.frontend_contention)
            .run()
    }

    #[test]
    fn auto_frontend_matches_legacy_model() {
        // threads = 0 (auto: one driver per shard, no surcharge) must
        // reproduce the pre-front-end predictions exactly.
        let legacy = run_sharded(4, 64, true).ops();
        let auto = run_frontend(4, 0, 64).ops();
        assert_eq!(legacy, auto);
    }

    #[test]
    fn single_driver_serializes_the_shard_fanout() {
        // One front-end driver executes shard cycles one at a time:
        // the 4-shard speedup collapses toward 1x, and adding drivers
        // restores it.
        let one_driver = run_frontend(4, 1, 64).throughput();
        let four_drivers = run_frontend(4, 4, 64).throughput();
        assert!(
            four_drivers > 2.0 * one_driver,
            "1 driver {one_driver:.0} vs 4 drivers {four_drivers:.0}"
        );
        // A single driver over 4 shards is no better than ~the
        // single-shard server (same serial store path).
        let one_shard = run_frontend(1, 1, 64).throughput();
        assert!(
            one_driver < 1.4 * one_shard,
            "single driver must not scale: {one_driver:.0} vs {one_shard:.0}"
        );
    }

    #[test]
    fn extra_drivers_beyond_shards_only_add_contention() {
        let matched = run_frontend(4, 4, 64).throughput();
        let oversubscribed = run_frontend(4, 16, 64).throughput();
        // Drivers are capped at the shard count; the surcharge uses
        // the effective count, so oversubscription is neutral here.
        assert!((oversubscribed / matched - 1.0).abs() < 0.01);
    }

    #[test]
    fn contention_surcharge_is_mild_but_real() {
        let model = CostModel::default();
        let profile = model.profile(ServerKind::Lcm { batch: 16 }, 1000, 100, false);
        let free = Simulation::new(profile.clone(), &model, 64, Duration::from_secs(5))
            .with_shards(4)
            .with_frontend_threads(4, 0.0)
            .run()
            .throughput();
        let charged = Simulation::new(profile, &model, 64, Duration::from_secs(5))
            .with_shards(4)
            .with_frontend_threads(4, model.frontend_contention)
            .run()
            .throughput();
        assert!(charged <= free);
        assert!(
            charged > 0.8 * free,
            "surcharge too harsh: {charged} vs {free}"
        );
    }

    #[test]
    fn hot_skew_collapses_sharded_throughput() {
        // 64 saturating clients all pinned to one of 4 stations: the
        // other three idle, so throughput falls back to roughly the
        // single-shard rate — the collapse the real stack's `*-hot`
        // bench cells measure.
        let uniform = run_sharded(4, 64, true).throughput();
        let x1 = run_sharded(1, 64, true).throughput();
        let model = CostModel::default();
        let profile = model.profile(ServerKind::Lcm { batch: 16 }, 1000, 100, true);
        let skewed = Simulation::new(profile, &model, 64, Duration::from_secs(5))
            .with_shards(4)
            .with_hot_shard(64)
            .run()
            .throughput();
        assert!(skewed < 0.6 * uniform, "uniform={uniform} skewed={skewed}");
        let vs_single = skewed / x1;
        assert!(
            (0.9..=1.1).contains(&vs_single),
            "fully skewed 4-shard must degenerate to 1 shard: {vs_single:.3}"
        );
    }

    #[test]
    fn rebalancing_recovers_the_hot_skew_collapse() {
        // `with_hot_shard(0)` is the uniform table heat-aware
        // rebalancing converges to: the recovery the migration bench
        // cells gate on is exactly the skewed→uniform gap.
        let model = CostModel::default();
        let profile = model.profile(ServerKind::Lcm { batch: 16 }, 1000, 100, true);
        let mk = |hot: usize| {
            let p = profile.clone();
            Simulation::new(p, &model, 64, Duration::from_secs(5))
                .with_shards(4)
                .with_hot_shard(hot)
                .run()
                .throughput()
        };
        let skewed = mk(64);
        let rebalanced = mk(0);
        assert!(
            rebalanced > 2.0 * skewed,
            "skewed={skewed} rebalanced={rebalanced}"
        );
        assert_eq!(
            mk(0),
            run_sharded(4, 64, true).throughput(),
            "hot=0 must reproduce the uniform model exactly"
        );
    }

    fn run_replicated(replicas: usize, n: usize, fsync: bool) -> Metrics {
        let model = CostModel::default();
        let profile = model.profile(ServerKind::Lcm { batch: 16 }, 1000, 100, fsync);
        Simulation::new(profile, &model, n, Duration::from_secs(5))
            .with_replicas(replicas, model.replica_ack)
            .run()
    }

    #[test]
    fn one_replica_equals_unreplicated() {
        let base = run(ServerKind::Lcm { batch: 16 }, 16, false).ops();
        let one = run_replicated(1, 16, false).ops();
        assert_eq!(base, one);
    }

    #[test]
    fn replication_charges_the_batch_path() {
        // Three members = two extra blob applies + acks per batch, and
        // three persisted copies under fsync: write throughput must
        // drop, and drop harder when the store is the bottleneck.
        let x1 = run_replicated(1, 32, true).throughput();
        let x3 = run_replicated(3, 32, true).throughput();
        assert!(x3 < x1, "x1={x1} x3={x3}");
        let slowdown = x1 / x3;
        assert!(
            (1.2..=4.0).contains(&slowdown),
            "3-replica fsync slowdown out of band: {slowdown:.2}x"
        );
        // Async writes: the two extra applies still cost real batch
        // work, but without the per-member commit the penalty is mild.
        let a1 = run_replicated(1, 32, false).throughput();
        let a3 = run_replicated(3, 32, false).throughput();
        assert!(a3 < a1);
        assert!(a1 / a3 < x1 / x3, "fsync must amplify the replica cost");
    }

    #[test]
    fn latency_increases_at_saturation() {
        let low = run(ServerKind::Sgx { batch: 1 }, 1, false).mean_latency();
        let high = run(ServerKind::Sgx { batch: 1 }, 32, false).mean_latency();
        assert!(high > 2 * low, "low={low:?} high={high:?}");
    }
}
