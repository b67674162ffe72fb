//! Storage-engine torture: sealed deltas under adversarial media and
//! arbitrary crash points — journalled by the delta-log engine, and
//! appended to the one `checkpoint ‖ deltas` slot of a plain store by
//! the adapter `LcmServer` puts around it.
//!
//! Three attack surfaces, each on both stores, all driven through the
//! full server stack (enclave + sealing + storage engine), never
//! against the engine in isolation:
//!
//! 1. **Torn writes** — every write reaching the medium keeps only a
//!    prefix (`AdversaryMode::TornWrites`), modelling power loss
//!    mid-sector or a lying disk. Recovery must truncate at the last
//!    sealed frame boundary; a client that saw acknowledgements must
//!    either read its values back intact or detect the loss as a
//!    rollback (§2.3) — never read a wrong value silently.
//! 2. **Reordered flushes** — the medium commits buffered write pairs
//!    newest-first and a power failure takes the volatile cache
//!    (`AdversaryMode::ReorderedFlush` + `drop_buffered`). The
//!    engine's epoch-keyed records must keep replay idempotent.
//! 3. **Kill points** (proptests) — an honest recording of every inner
//!    write, cut at *every* index: recovery from any prefix must boot,
//!    re-verify the hash chain end-to-end, and expose exactly a prefix
//!    of the acknowledged operations, with everything whose commit
//!    write survived the cut still present.
//!
//! The CI `storage-torture` job repeats this suite with distinct
//! `LCM_STRESS_SEED`s; the seed is logged so a failing schedule can be
//! replayed.

mod common;

use std::sync::{Arc, Mutex};

use lcm::core::admin::AdminHandle;
use lcm::core::server::{BatchServer, LcmServer};
use lcm::core::stability::Quorum;
use lcm::core::types::ClientId;
use lcm::kvs::client::KvsClient;
use lcm::kvs::ops::KvOp;
use lcm::kvs::store::KvStore;
use lcm::storage::{
    AdversaryMode, DeltaLogConfig, DeltaLogStorage, MemoryStorage, Result as StorageResult,
    RollbackStorage, StableStorage,
};
use lcm::tee::world::TeeWorld;
use proptest::prelude::*;

fn stress_seed() -> u64 {
    let seed = std::env::var("LCM_STRESS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1u64);
    eprintln!("storage_torture config: seed={seed}");
    seed
}

/// Tiny xorshift so the adversary's tear widths vary per CI seed
/// without pulling in a full RNG.
fn mix(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

const WARMUP: usize = 4;
const TORTURED: usize = 6;

/// What a sync server (batch 1) persists through, over `disk`.
#[derive(Debug, Clone, Copy)]
enum Store {
    /// A fresh delta-log engine; tiny segments force seal +
    /// compaction traffic on short schedules.
    DeltaLog { segment_bytes: usize },
    /// `disk` as it is: the server adds the bundle adapter.
    Plain,
}

fn mk_server(world: &TeeWorld, disk: Arc<dyn StableStorage>, store: Store) -> LcmServer<KvStore> {
    let storage = match store {
        Store::DeltaLog { segment_bytes } => Arc::new(
            DeltaLogStorage::with_config(disk, DeltaLogConfig { segment_bytes })
                .expect("engine recovery must succeed on any honest-prefix or torn medium"),
        ),
        Store::Plain => disk,
    };
    LcmServer::<KvStore>::new(&world.platform_deterministic(1), storage, 1)
}

const TORTURED_ENGINE: Store = Store::DeltaLog { segment_bytes: 256 };

/// The full put schedule, in acknowledgement order.
fn schedule() -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut s = Vec::new();
    for i in 0..WARMUP {
        s.push((
            format!("warm{i}").into_bytes(),
            format!("warm-value-{i}").into_bytes(),
        ));
    }
    for i in 0..TORTURED {
        s.push((format!("torn{i}").into_bytes(), torn_value(i)));
    }
    s
}

/// After the crash: a fresh client reads back the schedule and the
/// surviving state must be a *prefix* — once one key is missing, every
/// later one must be missing too, and every surviving value must be
/// the one acknowledged. A fresh client carries no history, so any
/// self-consistent (possibly stale) state verifies for it; the prefix
/// shape is what recovery's truncate-at-sealed-boundary guarantees,
/// and staleness is the acknowledging client's job to detect.
fn assert_prefix_consistent(server: &mut dyn BatchServer, admin: &AdminHandle) {
    let mut fresh = KvsClient::new_sharded(ClientId(2), admin.client_key(), 1);
    let mut lost_from = None;
    for (i, (key, value)) in schedule().iter().enumerate() {
        let got = fresh
            .get(server, key)
            .expect("fresh client reads verify on recovered state");
        match got {
            Some(v) => {
                assert!(
                    lost_from.is_none(),
                    "op {i} survived although op {} was lost: not a prefix",
                    lost_from.unwrap()
                );
                assert_eq!(&v, value, "op {i} recovered with a wrong value");
            }
            None => lost_from = lost_from.or(Some(i)),
        }
    }
}

/// Values large enough that the torn phase crosses segment seals and
/// the delta→checkpoint cadence, so tears land on every record type.
fn torn_value(i: usize) -> Vec<u8> {
    let mut v = format!("torn-value-{i}-").into_bytes();
    v.resize(600, b'.');
    v
}

/// The client that *saw the acknowledgements* reads after recovery:
/// either every acknowledged value is intact, or the very first
/// divergence is detected as a rollback violation and the client
/// halts. A wrong value or a silent gap is the one forbidden outcome.
fn assert_acknowledged_client_outcome(server: &mut dyn BatchServer, client: &mut KvsClient) {
    for (i, (key, value)) in schedule().iter().enumerate() {
        match client.get(server, key) {
            Ok(got) => assert_eq!(
                got.as_ref(),
                Some(value),
                "acknowledged op {i} served wrong/missing without a violation"
            ),
            Err(e) => {
                // Detection can land on either side: the client halts
                // on a reply extending the wrong chain, or the server
                // enclave spots the client's attested counter running
                // ahead of the recorded context (claimed #n > recorded
                // #m ⇒ rollback) and reports the violation itself.
                assert!(
                    client.lcm().is_halted() || matches!(e, lcm::core::LcmError::Violation(_)),
                    "read failed without a detected violation: {e:?}"
                );
                return; // detection: the loss cannot be papered over
            }
        }
    }
}

/// Runs the warm-up + tortured schedule against `store` over the
/// adversarial disk, crashes (fresh engine or adapter, fresh server —
/// the old one's in-memory caches die with the process), and checks
/// both the fresh-client prefix shape and the acknowledged client's
/// detection guarantee.
fn torture_run(seed: u64, store: Store, adversary_phase: impl Fn(&RollbackStorage, &mut u64)) {
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let world = TeeWorld::new_deterministic(7_000 + seed);
    let disk = Arc::new(RollbackStorage::new());
    let mut server = mk_server(&world, disk.clone(), store);
    server.boot().unwrap();
    let mut admin = AdminHandle::new_deterministic(
        &world,
        vec![ClientId(1), ClientId(2)],
        Quorum::Majority,
        21,
    );
    admin.bootstrap(&mut server).unwrap();
    let mut client = KvsClient::new_sharded(ClientId(1), admin.client_key(), 1);

    for i in 0..WARMUP {
        client
            .put(
                &mut server,
                format!("warm{i}").as_bytes(),
                format!("warm-value-{i}").as_bytes(),
            )
            .unwrap();
    }

    adversary_phase(&disk, &mut rng);
    for i in 0..TORTURED {
        // The server believes every persist succeeded; the adversary
        // decides what actually reaches the medium.
        client
            .run(
                &mut server,
                &KvOp::Put(format!("torn{i}").into_bytes(), torn_value(i)),
            )
            .unwrap();
    }

    // Power failure: the process (and any volatile cache) is gone.
    drop(server);
    disk.drop_buffered();
    disk.set_mode(AdversaryMode::Honest);

    let mut server = mk_server(&world, disk, store);
    match server.boot() {
        Ok(_) => {
            assert_prefix_consistent(&mut server, &admin);
            assert_acknowledged_client_outcome(&mut server, &mut client);
        }
        // The enclave refusing a broken chain outright is the other
        // legitimate detection outcome: adversarial media may leave a
        // checkpoint whose delta chain no longer connects, and replay
        // must reject the splice rather than serve it.
        Err(e) => assert!(
            matches!(e, lcm::core::LcmError::Violation(_)),
            "recovery on adversarial media must detect, not fail: {e:?}"
        ),
    }
}

/// Five rounds of torn writes keeping `1 + rng % widest` bytes.
fn torn_writes(store: Store, widest: u64) {
    let mut seed = stress_seed();
    for round in 0..5 {
        let keep = 1 + (mix(&mut seed) % widest) as usize;
        eprintln!("torn-writes round {round}: keep={keep}");
        torture_run(seed.wrapping_add(round), store, |disk, _| {
            disk.set_mode(AdversaryMode::TornWrites { keep });
        });
    }
}

fn reordered_flushes(store: Store) {
    let mut seed = stress_seed();
    for round in 0..5 {
        mix(&mut seed);
        eprintln!("reordered-flush round {round}");
        torture_run(seed.wrapping_add(round), store, |disk, _| {
            disk.set_mode(AdversaryMode::ReorderedFlush);
        });
    }
}

#[test]
fn torn_writes_recover_to_a_detectable_prefix() {
    // Tear widths from one byte up to roughly a whole frame.
    torn_writes(TORTURED_ENGINE, 640);
}

#[test]
fn torn_writes_over_a_plain_store_recover_to_a_detectable_prefix() {
    // The slot is rewritten whole, so a tear can land anywhere in it:
    // inside the checkpoint frame (nothing to fall back to — the
    // enclave must refuse it) or inside any delta frame after it (the
    // adapter cuts the tail, the chain verifies up to the cut).
    torn_writes(Store::Plain, 6_000);
}

#[test]
fn reordered_flushes_with_power_failure_recover_to_a_detectable_prefix() {
    reordered_flushes(TORTURED_ENGINE);
}

#[test]
fn reordered_flushes_over_a_plain_store_recover_to_a_detectable_prefix() {
    // Newest-first within a pair: an older `checkpoint ‖ deltas` lands
    // on top of a newer one, and the power failure keeps it there.
    reordered_flushes(Store::Plain);
}

#[test]
fn torn_writes_after_honest_flush_keep_the_flushed_state() {
    // Degenerate tear (keep = 0): nothing written during the tortured
    // phase reaches the medium at all. Recovery must land exactly on
    // the warm-up state and the acknowledged client must halt.
    torture_run(stress_seed(), TORTURED_ENGINE, |disk, _| {
        disk.set_mode(AdversaryMode::TornWrites { keep: 0 });
    });
}

// ---------------------------------------------------------------------
// Kill-point recovery proptests: cut the honest write log everywhere.
// ---------------------------------------------------------------------

/// One recorded inner write: `(slot, blob)`.
type WriteRecord = (String, Vec<u8>);

/// Records every inner write in order while forwarding to a real
/// memory store — the honest write log the kill points cut.
#[derive(Clone)]
struct RecorderStorage {
    inner: Arc<MemoryStorage>,
    log: Arc<Mutex<Vec<WriteRecord>>>,
}

impl RecorderStorage {
    fn new() -> Self {
        RecorderStorage {
            inner: Arc::new(MemoryStorage::new()),
            log: Arc::new(Mutex::new(Vec::new())),
        }
    }

    fn writes(&self) -> Vec<WriteRecord> {
        self.log.lock().unwrap().clone()
    }
}

impl StableStorage for RecorderStorage {
    fn store(&self, slot: &str, blob: &[u8]) -> StorageResult<()> {
        self.log
            .lock()
            .unwrap()
            .push((slot.to_string(), blob.to_vec()));
        self.inner.store(slot, blob)
    }

    fn load(&self, slot: &str) -> StorageResult<Option<Vec<u8>>> {
        self.inner.load(slot)
    }
}

/// Crash-safety invariant: for *every* prefix of the inner write
/// log, recovery boots, the hash chain verifies end-to-end (a
/// fresh client's reads succeed), the surviving puts form a
/// contiguous prefix of the schedule, and every put acknowledged
/// by write `k` is still present.
fn every_kill_point_recovers(
    world_seed: u64,
    n_puts: usize,
    value_len: usize,
    store: Store,
) -> Result<(), TestCaseError> {
    let world = TeeWorld::new_deterministic(9_000 + world_seed);
    let recorder = RecorderStorage::new();
    let mut server = mk_server(&world, Arc::new(recorder.clone()), store);
    server.boot().unwrap();
    let mut admin = AdminHandle::new_deterministic(
        &world,
        vec![ClientId(1), ClientId(2)],
        Quorum::Majority,
        22,
    );
    admin.bootstrap(&mut server).unwrap();
    let mut client = KvsClient::new_sharded(ClientId(1), admin.client_key(), 1);

    // `persisted_by[i]` = write-log length when put i was
    // acknowledged: cuts at or past it must preserve put i.
    let mut persisted_by = Vec::with_capacity(n_puts);
    for i in 0..n_puts {
        let mut value = format!("v{i}-").into_bytes();
        value.resize(value.len() + value_len, b'=');
        client
            .put(&mut server, format!("key{i}").as_bytes(), &value)
            .unwrap();
        persisted_by.push(recorder.writes().len());
    }
    drop(server);
    let writes = recorder.writes();

    for k in 0..=writes.len() {
        let disk: Arc<dyn StableStorage> = Arc::new(MemoryStorage::new());
        for (slot, blob) in &writes[..k] {
            disk.store(slot, blob).unwrap();
        }
        let mut server = mk_server(&world, disk, store);
        server.boot().unwrap_or_else(|e| {
            panic!(
                "recovery from honest prefix k={k}/{} failed: {e:?}",
                writes.len()
            )
        });

        let must_hold = persisted_by.iter().filter(|&&idx| idx <= k).count();
        if must_hold == 0 {
            continue; // cut may predate provisioning: nothing readable yet
        }
        let mut fresh = KvsClient::new_sharded(ClientId(2), admin.client_key(), 1);
        let mut lost_from = None;
        for i in 0..n_puts {
            let got = fresh
                .get(&mut server, format!("key{i}").as_bytes())
                .unwrap_or_else(|e| panic!("verified read failed at k={k}: {e:?}"));
            match got {
                Some(v) => {
                    prop_assert!(
                        lost_from.is_none(),
                        "k={k}: key{i} present after key{} was lost",
                        lost_from.unwrap()
                    );
                    let mut expect = format!("v{i}-").into_bytes();
                    expect.resize(expect.len() + value_len, b'=');
                    prop_assert!(v == expect, "k={}: key{} wrong value", k, i);
                }
                None => lost_from = lost_from.or(Some(i)),
            }
        }
        let held = lost_from.unwrap_or(n_puts);
        prop_assert!(
            held >= must_hold,
            "k={k}: only {held} puts survived but {must_hold} were acknowledged \
             by that write"
        );
    }
    Ok(())
}

proptest! {
    // Each case replays every kill point of its schedule, so a few
    // cases already cover hundreds of recoveries.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_kill_point_recovers_prefix_consistent(
        world_seed in 0u64..1_000,
        n_puts in 1usize..8,
        value_len in 0usize..400,
        segment_bytes in prop_oneof![Just(64usize), Just(192), Just(1024)],
    ) {
        every_kill_point_recovers(world_seed, n_puts, value_len, Store::DeltaLog { segment_bytes })?;
    }

    /// Every inner write of a plain store is a whole slot — a
    /// checkpoint, a `checkpoint ‖ deltas` bundle one delta longer than
    /// the last, or the key blob — so every cut leaves a whole state.
    /// Long values push the schedule across the delta → checkpoint
    /// cadence.
    #[test]
    fn every_kill_point_of_a_plain_store_recovers_prefix_consistent(
        world_seed in 0u64..1_000,
        n_puts in 1usize..12,
        value_len in 0usize..1_500,
    ) {
        every_kill_point_recovers(world_seed, n_puts, value_len, Store::Plain)?;
    }
}
