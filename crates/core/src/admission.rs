//! Multi-tenant admission control for the host's ingress plane: the
//! production "front door" in front of the sharded deployment.
//!
//! The paper's model (§2.3) already grants the server-side host every
//! power over messages, so admission control adds **no trust** — it is
//! pure host-side traffic engineering layered under
//! [`crate::transport::FrontendPort::try_send`]:
//!
//! ```text
//!             ┌ tenant A: token bucket ─ WFQ credits ┐
//!  clients ──▶┤ tenant B: token bucket ─ WFQ credits ├─▶ ingress lanes ─▶ shards
//!   (wires)   └ unregistered: measured, not limited  ┘      │
//!             retry dedup (authenticated seq) ──────────────┘
//!             p50/p99/p999 histograms per tenant × shard × mode
//! ```
//!
//! * **Token-bucket rate limiting** — each [`TenantConfig`] names a
//!   set of [`ClientId`]s and grants them a sustained `rate` (ops/s)
//!   with a `burst` allowance. An exhausted bucket produces a typed
//!   [`RetryAfter`] rejection instead of blocking the submitter.
//! * **Weighted fair queueing** — the deployment-wide in-flight budget
//!   ([`AdmissionConfig::max_in_flight`]) is split between tenants in
//!   proportion to their `weight`s; a greedy tenant exhausts *its own*
//!   credits and backs off while other tenants' shares stay free. This
//!   is the bound behind the isolation criterion: a flooding tenant
//!   cannot occupy another tenant's queue slots.
//! * **Idempotent retry dedup** — the wire's plaintext envelope
//!   carries the client sequence number `tc`
//!   ([`crate::wire::RouteHint::seq`]), *bound into the INVOKE's AEAD
//!   associated data and cross-checked by the enclave against the
//!   encrypted copy*, so the host can recognize a retried submission
//!   without decrypting anything. A retry of an op whose reply was
//!   already released is answered from the reply book's cached copy
//!   (replay, not re-execution); a retry of an op still in flight is
//!   absorbed. The enclave's own §4.6.1 retry handling remains the
//!   correctness backstop — host dedup is an optimization the enclave
//!   never has to trust.
//! * **Latency observability** — every ticket is timestamped from
//!   admission to reply release; per-(tenant, shard) HDR-style
//!   histograms surface p50/p99/p999 through [`HealthSnapshot`]
//!   (reachable via `Frontend::health_snapshot` and
//!   `ShardedServer::health_snapshot`).
//!
//! # Trust boundary
//!
//! Everything in this module runs **outside** the enclave and is
//! *untrusted*. Nothing here weakens the protocol:
//!
//! * The enclave's AAD checks are unchanged — the envelope fields
//!   (client, route, seq) are authenticated end-to-end, and the
//!   enclave cross-checks `seq == tc` and the attested shard route on
//!   every INVOKE ([`crate::context`]).
//! * A replayed reply is byte-identical to the released original; the
//!   client verifies it against its hash chain exactly as it would the
//!   first copy.
//! * A malicious host refusing service (rejecting everything) is the
//!   model's permitted denial of service; admission control makes the
//!   *honest* host's refusals typed, bounded, and observable.
//!
//! Clients not named by any tenant are measured under the implicit
//! [`TenantId::UNMETERED`] tenant but never rate-limited — existing
//! single-tenant deployments keep working with admission enabled.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::types::ClientId;

/// Identifies one tenant of the deployment's front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The implicit tenant of clients not named by any
    /// [`TenantConfig`]: measured in the latency histograms, never
    /// rate-limited.
    pub const UNMETERED: TenantId = TenantId(u32::MAX);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == TenantId::UNMETERED {
            write!(f, "tenant(unmetered)")
        } else {
            write!(f, "tenant({})", self.0)
        }
    }
}

/// One tenant's admission policy: which clients belong to it and how
/// much traffic they may push collectively.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// The tenant's identity (must not be [`TenantId::UNMETERED`]).
    pub id: TenantId,
    /// The clients whose wires this policy governs. A client named by
    /// two tenants belongs to the first that names it.
    pub clients: Vec<ClientId>,
    /// Sustained admission rate in operations per second
    /// (`f64::INFINITY` disables the bucket).
    pub rate: f64,
    /// Token-bucket depth: how many ops may be admitted back-to-back
    /// beyond the sustained rate.
    pub burst: u32,
    /// Weighted-fair-queueing weight: this tenant's share of
    /// [`AdmissionConfig::max_in_flight`] is
    /// `weight / sum-of-weights` (minimum one slot).
    pub weight: u32,
}

impl TenantConfig {
    /// A tenant with no rate limit, only its fair-queueing share.
    pub fn unlimited(id: TenantId, clients: Vec<ClientId>, weight: u32) -> Self {
        TenantConfig {
            id,
            clients,
            rate: f64::INFINITY,
            burst: u32::MAX,
            weight,
        }
    }

    /// A tenant metered to `rate` ops/s with a `burst` allowance.
    pub fn metered(
        id: TenantId,
        clients: Vec<ClientId>,
        rate: f64,
        burst: u32,
        weight: u32,
    ) -> Self {
        TenantConfig {
            id,
            clients,
            rate,
            burst,
            weight,
        }
    }
}

/// The whole front door's admission policy.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// The registered tenants.
    pub tenants: Vec<TenantConfig>,
    /// Deployment-wide in-flight budget split between tenants by
    /// weight. Unregistered clients are not counted against it.
    pub max_in_flight: usize,
}

impl AdmissionConfig {
    /// A config with the given tenants and a default in-flight budget
    /// sized like the ingress plane
    /// ([`crate::shard::DEFAULT_INGRESS_CAPACITY`]).
    pub fn new(tenants: Vec<TenantConfig>) -> Self {
        AdmissionConfig {
            tenants,
            max_in_flight: crate::shard::DEFAULT_INGRESS_CAPACITY,
        }
    }
}

/// What happened to a wire offered to
/// [`crate::transport::FrontendPort::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Accepted: ticketed and enqueued toward its shard.
    Enqueued,
    /// Recognized as a retry of an operation whose reply was already
    /// released: the cached reply was re-queued for delivery and the
    /// wire was **not** re-executed.
    ReplayedReply,
    /// Recognized as a retry of an operation still in flight: absorbed
    /// (the original submission will produce the reply).
    DuplicateInFlight,
}

/// Why a wire was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's token bucket is empty.
    RateLimited,
    /// The tenant's weighted share of the in-flight budget is
    /// exhausted.
    QueueFull,
}

/// A typed back-pressure rejection: the wire was **not** accepted, and
/// the submitter should wait roughly [`RetryAfter::retry_after`]
/// before re-offering it. Carries the rejected wire back to the
/// caller so nothing is cloned on the hot path.
#[derive(Debug)]
pub struct RetryAfter {
    /// The tenant whose budget rejected the wire (`None` when the
    /// client could not be attributed).
    pub tenant: Option<TenantId>,
    /// Why the wire was rejected.
    pub reason: RejectReason,
    /// Suggested back-off before re-offering the wire.
    pub retry_after: Duration,
    /// The rejected wire, returned untouched.
    pub wire: Vec<u8>,
}

impl std::fmt::Display for RetryAfter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let who = self
            .tenant
            .map_or_else(|| "unattributed".to_string(), |t| t.to_string());
        let why = match self.reason {
            RejectReason::RateLimited => "rate limited",
            RejectReason::QueueFull => "queue share full",
        };
        write!(f, "{who} {why}; retry after {:?}", self.retry_after)
    }
}

impl std::error::Error for RetryAfter {}

/// A ticket leaving the reply book, reported back to the admission
/// state: returns the tenant's in-flight credit and records the
/// end-to-end latency (when the ticket settled with a reply rather
/// than a write-off).
#[derive(Debug)]
pub struct SettledTicket {
    /// The envelope client the ticket belonged to.
    pub client: ClientId,
    /// The shard that executed (or wrote off) the ticket.
    pub shard: u32,
    /// Admission-to-release latency; `None` for write-offs (crash,
    /// shed), which record no latency sample.
    pub latency: Option<Duration>,
    /// Whether the ticket holds one of its tenant's WFQ credits.
    pub credited: bool,
}

/// Number of linear sub-buckets per power-of-two octave (8 ⇒ ≤ 12.5 %
/// relative quantile error — tight enough that a 3× p99 isolation
/// bound is not blurred by bucketing).
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = SUB * (64 - SUB_BITS as usize + 1);

/// A fixed-footprint HDR-style (log-linear) histogram over
/// microsecond latencies: 8 linear sub-buckets per power-of-two
/// octave, covering the full `u64` range in 496 counters.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("p50_us", &self.quantile(0.50))
            .field("p99_us", &self.quantile(0.99))
            .finish()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: Box::new([0u64; BUCKETS]),
            total: 0,
        }
    }

    fn index(value_us: u64) -> usize {
        if value_us < SUB as u64 {
            return value_us as usize;
        }
        let msb = 63 - value_us.leading_zeros();
        let octave = msb - SUB_BITS;
        let sub = ((value_us >> octave) as usize) & (SUB - 1);
        (octave as usize + 1) * SUB + sub
    }

    /// The midpoint latency (µs) a bucket index stands for.
    fn value_at(index: usize) -> u64 {
        if index < SUB {
            return index as u64;
        }
        let octave = (index / SUB - 1) as u32;
        let sub = (index % SUB) as u64;
        let lower = (SUB as u64 + sub) << octave;
        lower + (1u64 << octave) / 2
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.counts[Self::index(us)] += 1;
        self.total += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The latency (µs) at quantile `q` (clamped to `0.0..=1.0`);
    /// `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value_at(i);
            }
        }
        Self::value_at(BUCKETS - 1)
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    /// The standard percentile cell for snapshots.
    fn cell(&self, shard: u32) -> LatencyCell {
        LatencyCell {
            shard,
            count: self.total,
            p50_us: self.quantile(0.50),
            p99_us: self.quantile(0.99),
            p999_us: self.quantile(0.999),
        }
    }
}

/// One (tenant, shard) latency cell of a [`HealthSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyCell {
    /// The shard the samples were executed on (`u32::MAX` in the
    /// all-shards rollup cell).
    pub shard: u32,
    /// Number of settled operations behind the percentiles.
    pub count: u64,
    /// Median admission-to-release latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile latency, microseconds.
    pub p999_us: u64,
}

/// One tenant's row of a [`HealthSnapshot`].
#[derive(Debug, Clone)]
pub struct TenantHealth {
    /// Which tenant ([`TenantId::UNMETERED`] for unregistered
    /// clients).
    pub tenant: TenantId,
    /// Wires admitted (ticketed) for this tenant.
    pub admitted: u64,
    /// Wires rejected with [`RetryAfter`].
    pub rejected: u64,
    /// Retries answered from the reply book without re-execution.
    pub replayed: u64,
    /// Retries absorbed because the original was still in flight.
    pub deduped: u64,
    /// Credits currently held (admitted, not yet settled).
    pub in_flight: usize,
    /// This tenant's credit cap (its weighted share; `usize::MAX`
    /// when unmetered).
    pub in_flight_cap: usize,
    /// Per-shard latency percentiles.
    pub cells: Vec<LatencyCell>,
    /// All shards merged (`shard == u32::MAX`).
    pub overall: LatencyCell,
}

/// A point-in-time health view of the front door: per-tenant
/// admission counters and latency percentiles, labelled with the
/// deployment mode.
#[derive(Debug, Clone)]
pub struct HealthSnapshot {
    /// Deployment mode label (`"sync"` / `"pipelined"`), set by the
    /// deployment builder.
    pub mode: String,
    /// Whether admission control (metering + dedup) is active.
    pub admission_enabled: bool,
    /// One row per tenant that has seen traffic or is registered.
    pub tenants: Vec<TenantHealth>,
}

impl HealthSnapshot {
    /// The row for `tenant`, if present.
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantHealth> {
        self.tenants.iter().find(|t| t.tenant == tenant)
    }
}

/// Per-tenant runtime: the token bucket, the WFQ credit account, and
/// the admission counters.
#[derive(Debug)]
struct TenantRuntime {
    cfg: TenantConfig,
    tokens: f64,
    last_refill: Instant,
    in_flight: usize,
    cap: usize,
    admitted: u64,
    rejected: u64,
    replayed: u64,
    deduped: u64,
}

#[derive(Debug, Default)]
struct Observed {
    admitted: u64,
    replayed: u64,
    deduped: u64,
    in_flight: usize,
}

#[derive(Debug)]
struct AdmissionInner {
    tenant_of: BTreeMap<ClientId, usize>,
    tenants: Vec<TenantRuntime>,
    /// Counters for unregistered clients (never limited).
    unmetered: Observed,
    /// Latency histograms keyed by (tenant, shard);
    /// [`TenantId::UNMETERED`] collects unregistered clients.
    histograms: BTreeMap<(TenantId, u32), LatencyHistogram>,
    mode: String,
}

/// The shared, thread-safe admission state of one deployment's
/// ingress: owned by the sharded core, configured through
/// `ShardedServer::configure_admission` (or the deployment builder),
/// and observable while traffic flows.
///
/// With no configuration installed the state is *passive*: every wire
/// is admitted, no dedup map is maintained, and only the latency
/// histograms fill (under [`TenantId::UNMETERED`]).
pub struct AdmissionState {
    enabled: AtomicBool,
    inner: Mutex<AdmissionInner>,
}

impl std::fmt::Debug for AdmissionState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionState")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for AdmissionState {
    fn default() -> Self {
        Self::new()
    }
}

impl AdmissionState {
    /// A passive (unconfigured) admission state.
    pub fn new() -> Self {
        AdmissionState {
            enabled: AtomicBool::new(false),
            inner: Mutex::new(AdmissionInner {
                tenant_of: BTreeMap::new(),
                tenants: Vec::new(),
                unmetered: Observed::default(),
                histograms: BTreeMap::new(),
                mode: String::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, AdmissionInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether metering + dedup are active (a config is installed).
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Installs (or replaces) the admission policy and activates
    /// metering + retry dedup. Histograms and counters restart.
    pub fn configure(&self, config: AdmissionConfig) {
        let mut inner = self.lock();
        let total_weight: u64 = config
            .tenants
            .iter()
            .map(|t| u64::from(t.weight.max(1)))
            .sum::<u64>()
            .max(1);
        let budget = config.max_in_flight as u64;
        let now = Instant::now();
        inner.tenant_of.clear();
        inner.tenants = config
            .tenants
            .into_iter()
            .map(|cfg| {
                let share = budget.saturating_mul(u64::from(cfg.weight.max(1))) / total_weight;
                TenantRuntime {
                    tokens: f64::from(cfg.burst.max(1)).min(1e18),
                    last_refill: now,
                    in_flight: 0,
                    cap: (share as usize).max(1),
                    admitted: 0,
                    rejected: 0,
                    replayed: 0,
                    deduped: 0,
                    cfg,
                }
            })
            .collect();
        let registrations: Vec<(usize, Vec<ClientId>)> = inner
            .tenants
            .iter()
            .enumerate()
            .map(|(idx, t)| (idx, t.cfg.clients.clone()))
            .collect();
        for (idx, clients) in registrations {
            for c in clients {
                // First registration wins when a client is named twice.
                inner.tenant_of.entry(c).or_insert(idx);
            }
        }
        inner.unmetered = Observed::default();
        inner.histograms.clear();
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Sets the deployment-mode label reported by snapshots.
    pub fn set_mode(&self, mode: &str) {
        self.lock().mode = mode.to_string();
    }

    /// One admission decision for `client`. On success the tenant's
    /// token and in-flight credit are taken; the caller **must**
    /// eventually report the ticket back through
    /// [`AdmissionState::settle`] with `credited = true`. Returns a
    /// wire-less [`RetryAfter`] on rejection (the caller re-attaches
    /// the wire).
    pub fn admit(&self, client: ClientId) -> std::result::Result<bool, RetryAfter> {
        if !self.is_enabled() {
            return Ok(false);
        }
        let mut inner = self.lock();
        let Some(&idx) = inner.tenant_of.get(&client) else {
            inner.unmetered.admitted += 1;
            inner.unmetered.in_flight += 1;
            return Ok(true);
        };
        let t = &mut inner.tenants[idx];
        // Refill the bucket from wall time.
        if t.cfg.rate.is_finite() {
            let now = Instant::now();
            let elapsed = now.duration_since(t.last_refill).as_secs_f64();
            t.last_refill = now;
            t.tokens = (t.tokens + elapsed * t.cfg.rate).min(f64::from(t.cfg.burst.max(1)));
            if t.tokens < 1.0 {
                t.rejected += 1;
                let wait = ((1.0 - t.tokens) / t.cfg.rate.max(1e-9)).min(1.0);
                return Err(RetryAfter {
                    tenant: Some(t.cfg.id),
                    reason: RejectReason::RateLimited,
                    retry_after: Duration::from_secs_f64(wait.max(50e-6)),
                    wire: Vec::new(),
                });
            }
        }
        // Weighted fair queueing: the tenant spends its own share of
        // the deployment's in-flight budget.
        if t.in_flight >= t.cap {
            t.rejected += 1;
            return Err(RetryAfter {
                tenant: Some(t.cfg.id),
                reason: RejectReason::QueueFull,
                retry_after: Duration::from_micros(200),
                wire: Vec::new(),
            });
        }
        if t.cfg.rate.is_finite() {
            t.tokens -= 1.0;
        }
        t.in_flight += 1;
        t.admitted += 1;
        Ok(true)
    }

    /// Records a retry answered from the reply book.
    pub fn note_replayed(&self, client: ClientId) {
        let mut inner = self.lock();
        match inner.tenant_of.get(&client).copied() {
            Some(idx) => inner.tenants[idx].replayed += 1,
            None => inner.unmetered.replayed += 1,
        }
    }

    /// Records a retry absorbed while the original is in flight.
    pub fn note_deduped(&self, client: ClientId) {
        let mut inner = self.lock();
        match inner.tenant_of.get(&client).copied() {
            Some(idx) => inner.tenants[idx].deduped += 1,
            None => inner.unmetered.deduped += 1,
        }
    }

    /// Reports settled tickets: returns WFQ credits and records
    /// latency samples into the (tenant, shard) histograms.
    pub fn settle(&self, settled: &[SettledTicket]) {
        if settled.is_empty() {
            return;
        }
        let mut inner = self.lock();
        for s in settled {
            let tenant = match inner.tenant_of.get(&s.client).copied() {
                Some(idx) => {
                    if s.credited {
                        let t = &mut inner.tenants[idx];
                        t.in_flight = t.in_flight.saturating_sub(1);
                    }
                    inner.tenants[idx].cfg.id
                }
                None => {
                    if s.credited {
                        inner.unmetered.in_flight = inner.unmetered.in_flight.saturating_sub(1);
                    }
                    TenantId::UNMETERED
                }
            };
            if let Some(latency) = s.latency {
                inner
                    .histograms
                    .entry((tenant, s.shard))
                    .or_default()
                    .record(latency);
            }
        }
    }

    /// Records a latency sample for an uncredited ticket (the plain
    /// `submit` path with admission passive): observability without
    /// metering.
    pub fn observe(&self, client: ClientId, shard: u32, latency: Duration) {
        self.settle(&[SettledTicket {
            client,
            shard,
            latency: Some(latency),
            credited: false,
        }]);
    }

    /// Zeroes every in-flight credit account (the deployment
    /// crash-stopped: all outstanding tickets died wholesale).
    pub fn reset_in_flight(&self) {
        let mut inner = self.lock();
        for t in &mut inner.tenants {
            t.in_flight = 0;
        }
        inner.unmetered.in_flight = 0;
    }

    /// A point-in-time health view: per-tenant counters and
    /// p50/p99/p999 latency per shard plus an all-shard rollup.
    pub fn health_snapshot(&self) -> HealthSnapshot {
        let inner = self.lock();
        let mut tenants: Vec<TenantHealth> = Vec::with_capacity(inner.tenants.len() + 1);
        let row = |tenant: TenantId,
                   admitted: u64,
                   rejected: u64,
                   replayed: u64,
                   deduped: u64,
                   in_flight: usize,
                   cap: usize| {
            let mut cells = Vec::new();
            let mut merged = LatencyHistogram::new();
            for ((t, shard), h) in inner.histograms.iter() {
                if *t == tenant {
                    cells.push(h.cell(*shard));
                    merged.merge(h);
                }
            }
            TenantHealth {
                tenant,
                admitted,
                rejected,
                replayed,
                deduped,
                in_flight,
                in_flight_cap: cap,
                cells,
                overall: merged.cell(u32::MAX),
            }
        };
        for t in &inner.tenants {
            tenants.push(row(
                t.cfg.id,
                t.admitted,
                t.rejected,
                t.replayed,
                t.deduped,
                t.in_flight,
                t.cap,
            ));
        }
        let u = &inner.unmetered;
        let unmetered_has_samples = inner
            .histograms
            .keys()
            .any(|(t, _)| *t == TenantId::UNMETERED);
        if u.admitted > 0 || u.replayed > 0 || u.deduped > 0 || unmetered_has_samples {
            tenants.push(row(
                TenantId::UNMETERED,
                u.admitted,
                0,
                u.replayed,
                u.deduped,
                u.in_flight,
                usize::MAX,
            ));
        }
        HealthSnapshot {
            mode: inner.mode.clone(),
            admission_enabled: self.is_enabled(),
            tenants,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_tight() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.50) as f64;
        let p99 = h.quantile(0.99) as f64;
        // Log-linear with 8 sub-buckets: ≤ 12.5 % relative error.
        assert!((p50 - 500.0).abs() / 500.0 < 0.13, "p50 {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.13, "p99 {p99}");
        assert_eq!(h.quantile(0.0).min(1), 1);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_micros(10));
        b.record(Duration::from_micros(1_000_000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile(1.0) >= 900_000);
    }

    #[test]
    fn unconfigured_state_admits_everything() {
        let adm = AdmissionState::new();
        assert!(!adm.is_enabled());
        assert!(!adm.admit(ClientId(1)).unwrap());
    }

    #[test]
    fn token_bucket_rejects_past_burst_and_refills() {
        let adm = AdmissionState::new();
        adm.configure(AdmissionConfig::new(vec![TenantConfig::metered(
            TenantId(1),
            vec![ClientId(1)],
            1000.0,
            3,
            1,
        )]));
        // Burst admits back-to-back…
        for _ in 0..3 {
            assert!(adm.admit(ClientId(1)).is_ok());
        }
        // …then the empty bucket rejects with a sensible hint.
        let rej = adm.admit(ClientId(1)).unwrap_err();
        assert_eq!(rej.reason, RejectReason::RateLimited);
        assert_eq!(rej.tenant, Some(TenantId(1)));
        assert!(rej.retry_after <= Duration::from_millis(2));
        // At 1000 ops/s a token accrues within a few ms.
        std::thread::sleep(Duration::from_millis(5));
        assert!(adm.admit(ClientId(1)).is_ok());
    }

    #[test]
    fn wfq_shares_split_by_weight() {
        let adm = AdmissionState::new();
        adm.configure(AdmissionConfig {
            tenants: vec![
                TenantConfig::unlimited(TenantId(1), vec![ClientId(1)], 3),
                TenantConfig::unlimited(TenantId(2), vec![ClientId(2)], 1),
            ],
            max_in_flight: 8,
        });
        // Tenant 1 (weight 3 of 4) gets 6 slots; tenant 2 gets 2.
        for _ in 0..6 {
            assert!(adm.admit(ClientId(1)).is_ok());
        }
        let rej = adm.admit(ClientId(1)).unwrap_err();
        assert_eq!(rej.reason, RejectReason::QueueFull);
        // Tenant 2's share is untouched by tenant 1's saturation.
        for _ in 0..2 {
            assert!(adm.admit(ClientId(2)).is_ok());
        }
        assert!(adm.admit(ClientId(2)).is_err());
        // Settling returns credits.
        adm.settle(&[SettledTicket {
            client: ClientId(1),
            shard: 0,
            latency: Some(Duration::from_micros(250)),
            credited: true,
        }]);
        assert!(adm.admit(ClientId(1)).is_ok());
        let snap = adm.health_snapshot();
        let t1 = snap.tenant(TenantId(1)).unwrap();
        assert_eq!(t1.in_flight_cap, 6);
        assert_eq!(t1.overall.count, 1);
        assert!(t1.rejected >= 1);
    }

    #[test]
    fn unregistered_clients_are_measured_not_limited() {
        let adm = AdmissionState::new();
        adm.configure(AdmissionConfig {
            tenants: vec![TenantConfig::metered(
                TenantId(1),
                vec![ClientId(1)],
                10.0,
                1,
                1,
            )],
            max_in_flight: 4,
        });
        for _ in 0..100 {
            assert!(adm.admit(ClientId(99)).is_ok());
        }
        adm.observe(ClientId(99), 2, Duration::from_micros(300));
        let snap = adm.health_snapshot();
        let un = snap.tenant(TenantId::UNMETERED).unwrap();
        assert_eq!(un.overall.count, 1);
        assert_eq!(un.cells[0].shard, 2);
    }

    #[test]
    fn unmetered_row_reports_each_counter_in_its_own_column() {
        let adm = AdmissionState::new();
        adm.configure(AdmissionConfig::new(vec![TenantConfig::unlimited(
            TenantId(1),
            vec![ClientId(1)],
            1,
        )]));
        let stranger = ClientId(2);
        assert!(adm.admit(stranger).unwrap());
        adm.note_replayed(stranger);
        adm.note_replayed(stranger);
        adm.note_deduped(stranger);
        adm.note_deduped(stranger);
        adm.note_deduped(stranger);
        let snap = adm.health_snapshot();
        let un = snap.tenant(TenantId::UNMETERED).unwrap();
        assert_eq!(
            (un.admitted, un.rejected, un.replayed, un.deduped),
            (1, 0, 2, 3)
        );
    }

    #[test]
    fn snapshot_carries_mode_label() {
        let adm = AdmissionState::new();
        adm.set_mode("pipelined");
        assert_eq!(adm.health_snapshot().mode, "pipelined");
    }
}
