//! Storage-engine torture: sealed deltas under adversarial media and
//! arbitrary crash points — journalled by delta-log engines the tests
//! open with small segments, and by the engine `LcmServer` opens over a
//! plain store and re-opens at every boot.
//!
//! Four attack surfaces, the first three on both stores, all driven
//! through the full server stack (enclave + sealing + storage engine), never
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
//! 4. **Lanes on heads of their own** (proptests) — two or three lanes
//!    journal through one engine, so as many group commits (or commits
//!    beside a seal, a checkpoint, a manifest) are on the device
//!    together. A gate records which inner writes were in flight at
//!    once and in what order they landed; recovery is judged at every
//!    prefix of that recording *and* with every non-empty subset of
//!    each concurrent group lost. A medium written by the one-head
//!    layout must open unchanged.
//!
//! The CI `storage-torture` job repeats this suite with distinct
//! `LCM_STRESS_SEED`s; the seed is logged so a failing schedule can be
//! replayed.

mod common;

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use common::stress_seed;
use lcm::core::admin::AdminHandle;
use lcm::core::server::{BatchServer, LcmServer};
use lcm::core::stability::Quorum;
use lcm::core::types::ClientId;
use lcm::kvs::client::KvsClient;
use lcm::kvs::ops::KvOp;
use lcm::kvs::store::KvStore;
use lcm::storage::{
    parse_bundle, AdversaryMode, DeltaLogConfig, DeltaLogStorage, MemoryStorage, NamespacedStorage,
    Result as StorageResult, RollbackStorage, StableStorage,
};
use lcm::tee::world::TeeWorld;
use proptest::prelude::*;

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
    /// `disk` as it is: the server opens its own engine over it.
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
    // The lane's own engine at its default segment size: a tear can
    // land anywhere in a journal head, a checkpoint or a manifest
    // write, up to 6 000 bytes in.
    torn_writes(Store::Plain, 6_000);
}

#[test]
fn reordered_flushes_with_power_failure_recover_to_a_detectable_prefix() {
    reordered_flushes(TORTURED_ENGINE);
}

#[test]
fn reordered_flushes_over_a_plain_store_recover_to_a_detectable_prefix() {
    // Newest-first within a pair: an older journal head lands on top
    // of a newer one, and the power failure keeps it there.
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

    /// Every inner write of the engine a lane opens over a plain store,
    /// at its default segment size. Long values push the schedule
    /// across the delta → checkpoint cadence.
    #[test]
    fn every_kill_point_of_a_plain_store_recovers_prefix_consistent(
        world_seed in 0u64..1_000,
        n_puts in 1usize..12,
        value_len in 0usize..1_500,
    ) {
        every_kill_point_recovers(world_seed, n_puts, value_len, Store::Plain)?;
    }
}

// ---------------------------------------------------------------------
// Lanes on heads of their own: kill points over a recorded interleaving.
// ---------------------------------------------------------------------

/// What the gate tells the controller about a lane's thread.
enum LaneEvent {
    /// Inside an inner write, held until released.
    Entered(usize),
    /// Done with its schedule.
    Finished(usize),
}

/// Records every inner write like [`RecorderStorage`] — and holds each
/// write made by a registered lane thread until the controller releases
/// that lane, so the test sees which writes are on the device together
/// and decides the order they land in.
struct GatedRecorder {
    inner: MemoryStorage,
    log: Mutex<Vec<WriteRecord>>,
    lanes: Mutex<HashMap<ThreadId, usize>>,
    events: Mutex<Sender<LaneEvent>>,
    releases: Vec<Mutex<Receiver<()>>>,
}

impl GatedRecorder {
    fn written(&self) -> usize {
        self.log.lock().unwrap().len()
    }

    fn tell(&self, event: LaneEvent) {
        self.events.lock().unwrap().send(event).unwrap();
    }
}

impl StableStorage for GatedRecorder {
    fn store(&self, slot: &str, blob: &[u8]) -> StorageResult<()> {
        let lane = self
            .lanes
            .lock()
            .unwrap()
            .get(&std::thread::current().id())
            .copied();
        if let Some(lane) = lane {
            self.tell(LaneEvent::Entered(lane));
            self.releases[lane].lock().unwrap().recv().unwrap();
        }
        // Landing and logging are one step, so the log is the order the
        // medium saw.
        let mut log = self.log.lock().unwrap();
        self.inner.store(slot, blob)?;
        log.push((slot.to_string(), blob.to_vec()));
        Ok(())
    }

    fn load(&self, slot: &str) -> StorageResult<Option<Vec<u8>>> {
        self.inner.load(slot)
    }
}

/// Writes `at..at + len` of the recording were in flight together.
#[derive(Debug, Clone, Copy)]
struct Concurrent {
    at: usize,
    len: usize,
}

/// Releases gated writes until every lane has finished. Whenever two or
/// more lanes are held inside an inner write at once, `first_lands`
/// picks whether they are released in lane order or against it, and
/// the group is noted.
fn release_in_recorded_order(
    recorder: &GatedRecorder,
    events: &Receiver<LaneEvent>,
    releases: &[Sender<()>],
    first_lands: &[bool],
) -> Vec<Concurrent> {
    #[derive(Clone, Copy, PartialEq)]
    enum Lane {
        Running,
        Held,
        Finished,
    }
    let mut lanes = vec![Lane::Running; releases.len()];
    let mut groups = Vec::new();
    let mut first_lands = first_lands.iter().cycle();
    loop {
        // Let every running lane reach its next inner write. A lane
        // that stays silent is parked inside the engine behind a write
        // another lane is held in (a manifest's turn, say) — except
        // before the first release, when nothing can be: that round is
        // waited out, so every recording has every lane's write on the
        // device at once.
        let patience = match groups.is_empty() {
            true => Duration::from_secs(30),
            false => Duration::from_millis(5),
        };
        while lanes.contains(&Lane::Running) {
            match events.recv_timeout(patience) {
                Ok(LaneEvent::Entered(l)) => lanes[l] = Lane::Held,
                Ok(LaneEvent::Finished(l)) => lanes[l] = Lane::Finished,
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => panic!("a lane thread died"),
            }
        }
        let mut held: Vec<usize> = (0..lanes.len())
            .filter(|&l| lanes[l] == Lane::Held)
            .collect();
        if held.is_empty() && lanes.iter().all(|&l| l == Lane::Finished) {
            return groups;
        }
        if held.len() > 1 {
            groups.push(Concurrent {
                at: recorder.written(),
                len: held.len(),
            });
            if first_lands.next() != Some(&true) {
                held.reverse();
            }
        }
        for l in held {
            lanes[l] = Lane::Running;
            releases[l].send(()).unwrap();
        }
    }
}

/// One lane of the schedule: its own world, admin and client, its own
/// namespace of the shared engine.
struct TortureLane {
    world: TeeWorld,
    admin: AdminHandle,
    server: LcmServer<KvStore>,
}

const LANE_PREFIXES: [&str; 3] = ["laneA.", "laneB.", "laneC."];

fn mk_lane(world: &TeeWorld, engine: &Arc<DeltaLogStorage>, lane: usize) -> LcmServer<KvStore> {
    let storage = NamespacedStorage::new(
        engine.clone() as Arc<dyn StableStorage>,
        LANE_PREFIXES[lane],
    );
    LcmServer::<KvStore>::new(&world.platform_deterministic(1), Arc::new(storage), 1)
}

fn lane_key(i: usize) -> Vec<u8> {
    format!("key{i}").into_bytes()
}

fn lane_value(lane: usize, i: usize, value_len: usize) -> Vec<u8> {
    let mut value = format!("lane{lane}-v{i}-").into_bytes();
    value.resize(value.len() + value_len, b'=');
    value
}

/// What reached the medium in each crash the recording allows, with
/// how many writes the crash is known to follow: every prefix, then,
/// for every group of writes on the device together, every non-empty
/// subset of the group lost — a crash with all of them in flight,
/// before any was acknowledged, in which only the others landed. A
/// subset that leaves a prefix is a prefix cut already.
fn crash_cuts<'w>(
    writes: &'w [WriteRecord],
    groups: &[Concurrent],
) -> Vec<(Vec<&'w WriteRecord>, usize)> {
    let mut cuts: Vec<_> = (0..=writes.len())
        .map(|k| (writes[..k].iter().collect(), k))
        .collect();
    for &Concurrent { at, len } in groups {
        for lost in 1..1u32 << len {
            let kept = !lost & ((1 << len) - 1);
            if kept & (kept + 1) == 0 {
                continue; // the group's first writes landed: a prefix
            }
            let mut landed: Vec<&WriteRecord> = writes[..at].iter().collect();
            landed.extend(
                (0..len)
                    .filter(|i| kept >> i & 1 == 1)
                    .map(|i| &writes[at + i]),
            );
            cuts.push((landed, at));
        }
    }
    cuts
}

/// One run of [`every_concurrent_kill_point_recovers`]: the world seed,
/// each lane's put count and value length, the segment size, and which
/// of the held writes lands first, group by group.
type Schedule = (u64, usize, usize, usize, Vec<bool>);

/// The schedules every lane count is tried over, so the two- and
/// three-lane tests draw from one space.
fn schedules() -> impl Strategy<Value = Schedule> {
    (
        0u64..1_000,
        1usize..7,
        0usize..300,
        prop_oneof![Just(192usize), Just(1024), Just(1 << 16)],
        proptest::collection::vec(any::<bool>(), 1..8),
    )
}

/// Crash-safety with `lanes` commits in flight: for every prefix of the
/// recorded inner writes, and for every group of writes that were on
/// the device together with any non-empty subset of them lost instead,
/// every lane boots, its chain verifies end to end, its surviving puts
/// are a prefix of *that lane's* schedule, and every put acknowledged
/// before the cut is still there.
fn every_concurrent_kill_point_recovers(
    lanes: usize,
    (world_seed, n_puts, value_len, segment_bytes, first_lands): Schedule,
) -> Result<(), TestCaseError> {
    let (events_tx, events) = channel();
    let (releases, held): (Vec<_>, Vec<_>) = (0..lanes).map(|_| channel()).unzip();
    let recorder = Arc::new(GatedRecorder {
        inner: MemoryStorage::new(),
        log: Mutex::new(Vec::new()),
        lanes: Mutex::new(HashMap::new()),
        events: Mutex::new(events_tx),
        releases: held.into_iter().map(Mutex::new).collect(),
    });
    let config = DeltaLogConfig { segment_bytes };
    let engine = Arc::new(DeltaLogStorage::with_config(recorder.clone(), config).unwrap());

    // Provisioning runs ungated (this thread is no lane) but recorded.
    let mut lanes: Vec<TortureLane> = (0..lanes)
        .map(|lane| {
            let world = TeeWorld::new_deterministic(9_500 + 2 * world_seed + lane as u64);
            let mut server = mk_lane(&world, &engine, lane);
            server.boot().unwrap();
            let mut admin = AdminHandle::new_deterministic(
                &world,
                vec![ClientId(1), ClientId(2)],
                Quorum::Majority,
                23,
            );
            admin.bootstrap(&mut server).unwrap();
            TortureLane {
                world,
                admin,
                server,
            }
        })
        .collect();

    // `acked[lane][i]` = recording length when the lane's put i was
    // acknowledged: cuts at or past it must preserve that put.
    let (acked, groups) = std::thread::scope(|s| {
        let threads: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(lane, l)| {
                let recorder = &recorder;
                let mut client = KvsClient::new_sharded(ClientId(1), l.admin.client_key(), 1);
                let server = &mut l.server;
                s.spawn(move || {
                    let me = std::thread::current().id();
                    recorder.lanes.lock().unwrap().insert(me, lane);
                    let mut acked = Vec::with_capacity(n_puts);
                    for i in 0..n_puts {
                        client
                            .put(server, &lane_key(i), &lane_value(lane, i, value_len))
                            .unwrap();
                        acked.push(recorder.written());
                    }
                    recorder.lanes.lock().unwrap().remove(&me);
                    recorder.tell(LaneEvent::Finished(lane));
                    acked
                })
            })
            .collect();
        let groups = release_in_recorded_order(&recorder, &events, &releases, &first_lands);
        let acked: Vec<Vec<usize>> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        (acked, groups)
    });
    // Every lane's first put commits while the others' are held, each
    // on a head of its own.
    let stats = engine.stats();
    prop_assert!(
        stats.peak_heads_busy == lanes.len() as u64,
        "not every lane's commit had a head of its own: {:?}",
        stats
    );
    drop(engine);
    let writes = recorder.log.lock().unwrap().clone();

    for (landed, follows) in crash_cuts(&writes, &groups) {
        let what = format!("cut after {follows} with {} landed", landed.len());
        let disk: Arc<dyn StableStorage> = Arc::new(MemoryStorage::new());
        for (slot, blob) in landed {
            disk.store(slot, blob).unwrap();
        }
        let engine = Arc::new(DeltaLogStorage::with_config(disk, config).unwrap());
        for (lane, l) in lanes.iter().enumerate() {
            let mut server = mk_lane(&l.world, &engine, lane);
            server
                .boot()
                .unwrap_or_else(|e| panic!("lane {lane} failed to recover, {what}: {e:?}"));
            let must_hold = acked[lane].iter().filter(|&&at| at <= follows).count();
            if must_hold == 0 {
                continue; // cut may predate provisioning: nothing readable yet
            }
            let mut fresh = KvsClient::new_sharded(ClientId(2), l.admin.client_key(), 1);
            let mut lost_from = None;
            for i in 0..n_puts {
                let got = fresh
                    .get(&mut server, &lane_key(i))
                    .unwrap_or_else(|e| panic!("lane {lane} verified read failed, {what}: {e:?}"));
                match got {
                    Some(v) => {
                        prop_assert!(
                            lost_from.is_none(),
                            "lane {lane}, {what}: key{i} present after key{} was lost",
                            lost_from.unwrap()
                        );
                        prop_assert!(
                            v == lane_value(lane, i, value_len),
                            "lane {lane}, {what}: key{i} wrong value"
                        );
                    }
                    None => lost_from = lost_from.or(Some(i)),
                }
            }
            let held = lost_from.unwrap_or(n_puts);
            prop_assert!(
                held >= must_hold,
                "lane {lane}, {what}: only {held} puts survived but {must_hold} were acknowledged"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_kill_point_with_two_commits_in_flight_recovers_prefix_consistent_per_lane(
        schedule in schedules(),
    ) {
        every_concurrent_kill_point_recovers(2, schedule)?;
    }

    /// Three lanes: three writes on the device together, so a commit
    /// finds two heads busy, not one.
    #[test]
    fn every_kill_point_with_three_commits_in_flight_recovers_prefix_consistent_per_lane(
        schedule in schedules(),
    ) {
        every_concurrent_kill_point_recovers(3, schedule)?;
    }
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// A medium written by the one-head engine — the bytes commit `2594420`
/// left behind for `checkpoint(lane.a), delta(lane.a), delta(lane.b),
/// delta(lane.a)`, recorded in a scratch clone — opens under the
/// multi-head engine, serves its state, and keeps journalling.
#[test]
fn a_medium_written_with_one_head_opens_and_accepts_further_deltas() {
    let disk = Arc::new(MemoryStorage::new());
    for (slot, hex) in [
        (
            "dlog.ckpt.0.lane.a",
            "0000001d2e9090c0000000000000000101636865636b706f696e742d6f662d6c616e652d61",
        ),
        (
            "dlog.head",
            concat!(
                "0000001ca01542d30000000000000002000000066c616e652e610264656c74612d6f6e65",
                "0000001de9f12f2e0000000000000003000000066c616e652e62026f746865722d6c616e65",
                "0000001c3d8e4b820000000000000004000000066c616e652e610264656c74612d74776f",
            ),
        ),
        (
            "dlog.meta.1",
            concat!(
                "000000264b73d95d000000000000000100000000000000000000000000000000",
                "00000001000000066c616e652e61",
            ),
        ),
    ] {
        disk.store(slot, &unhex(hex)).unwrap();
    }
    let engine = DeltaLogStorage::open(disk.clone()).unwrap();
    assert_eq!(engine.stats().torn_truncations, 0);
    // What the one-head engine's own `load` returned for this medium.
    assert_eq!(
        engine.load("lane.a").unwrap().unwrap(),
        unhex(concat!(
            "030000001573e8f4ad01636865636b706f696e742d6f662d6c616e652d61",
            "0000000ad179d9870264656c74612d6f6e650000000abadfd5100264656c74612d74776f",
        ))
    );
    engine.store("lane.a", b"\x02delta-three").unwrap();
    drop(engine);
    let engine = DeltaLogStorage::open(disk).unwrap();
    let bundle = engine.load("lane.a").unwrap().unwrap();
    let (checkpoint, deltas) = parse_bundle(&bundle).unwrap();
    assert_eq!(checkpoint, b"\x01checkpoint-of-lane-a");
    assert_eq!(
        deltas,
        [&b"\x02delta-one"[..], b"\x02delta-two", b"\x02delta-three"]
    );
}
