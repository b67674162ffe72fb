//! Asynchronous write: the background persist writer behind a
//! pipelined [`LcmServer`].
//!
//! The paper's headline throughput numbers (Figs. 4/5) come from the
//! *asynchronous-write* mode, where sealing persistence overlaps
//! request execution. That mode is a **persist policy of the one
//! server type**, not a server of its own:
//! [`LcmServer::into_pipelined`] attaches the writer defined here, and
//! from then on [`LcmServer::step`] hands each batch's sealed blobs to
//! it instead of storing them inline:
//!
//! ```text
//!            stage 1 — intake          stage 2 — execution        stage 3 — persistence
//!   clients ──────────────────▶ queue ────────────────────▶ seal ──────────────────────▶ disk
//!            submit                    enclave ecall              background writer
//!            (caller thread)           (caller thread)            (StageWorker thread)
//! ```
//!
//! Stages 1–2 run on the caller's thread exactly as in the synchronous
//! mode; stage 3 runs on a dedicated
//! [`lcm_runtime::stage::StageWorker`] thread fed through a **bounded**
//! queue. While the writer persists batch *n*, the enclave executes
//! batch *n+1* — replies leave the server before their sealed state
//! hits the disk. Control-plane host calls (boot, provision, admin,
//! migration, replica apply, slice moves) drain the writer first, so
//! they always read and supersede ordered state.
//!
//! ## Back-pressure
//!
//! The writer queue holds at most `queue_capacity` sealed snapshots
//! (default [`DEFAULT_WRITER_QUEUE`]). When the disk falls that far
//! behind, [`LcmServer::step`] blocks until a slot frees up: a slow
//! disk throttles the enclave instead of buffering unbounded sealed
//! state in host memory. [`LcmServer::backpressure_events`] counts how
//! often that happened.
//!
//! ## Crash semantics — the durability window
//!
//! Queued-but-unwritten blobs model data handed to the OS page cache:
//!
//! * [`LcmServer::crash`] — the server *process* dies. The kernel
//!   still completes accepted writes, so the writer drains its queue
//!   before the enclave stops; recovery sees the latest state.
//! * [`LcmServer::crash_power_failure`] (reached through
//!   [`BatchServer::kill_member`]`(.., true)`) — the machine dies.
//!   Queued blobs are lost, recovery boots from whatever had actually
//!   reached the medium. Operations whose persistence was lost are
//!   rolled back — which LCM clients *detect* on their next operation
//!   (`V[i]` mismatch). This is exactly the paper's trade: async mode
//!   buys throughput, and the stability watermark (§4.5) tells each
//!   client which operations were guaranteed durable.
//!
//! A replica group's member holds back a second kind of unwritten
//! record: a straggler's applied-but-unstored deltas
//! ([`LcmServer::buffered_records`]). Both crash kinds discard those.
//! The group never counted them as held; the composed guarantee in
//! [`crate::replica`] says why that loses no acknowledged write.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use lcm_runtime::stage::StageWorker;
use lcm_storage::StableStorage;

use crate::context::PersistBlobs;
use crate::server::store_blobs;
#[allow(unused_imports)] // rustdoc links
use crate::server::{BatchServer, LcmServer};
use crate::{LcmError, Result};

/// Default bound on the writer queue: how many sealed snapshots may be
/// in flight before execution blocks on persistence.
pub const DEFAULT_WRITER_QUEUE: usize = 4;

/// State shared between the server thread and the writer thread.
struct WriterShared {
    /// First storage error the writer hit; everything after it is
    /// skipped and the error surfaces on the next server call. (Never
    /// held across I/O, so checking it per step does not contend.)
    error: Mutex<Option<String>>,
    /// Snapshots fully persisted (both slots stored).
    persisted: AtomicU64,
}

impl WriterShared {
    fn error(&self) -> std::sync::MutexGuard<'_, Option<String>> {
        self.error.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The persistence stage of a pipelined [`crate::server::LcmServer`]:
/// a writer thread storing sealed blobs in submission order.
pub(crate) struct PersistWriter {
    stage: StageWorker<PersistBlobs>,
    shared: Arc<WriterShared>,
}

impl PersistWriter {
    /// Spawns the writer over `storage` with a queue of
    /// `queue_capacity` snapshots (min 1).
    pub(crate) fn spawn(storage: Arc<dyn StableStorage>, queue_capacity: usize) -> Self {
        let shared = Arc::new(WriterShared {
            error: Mutex::new(None),
            persisted: AtomicU64::new(0),
        });
        let writer_shared = shared.clone();
        let stage = StageWorker::spawn(
            "lcm-persist-writer",
            queue_capacity,
            move |blobs: PersistBlobs| {
                if writer_shared.error().is_some() {
                    return;
                }
                match store_blobs(&*storage, &blobs) {
                    Ok(()) => {
                        writer_shared.persisted.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(e) => *writer_shared.error() = Some(e.to_string()),
                }
            },
        );
        PersistWriter { stage, shared }
    }

    /// Surfaces a storage error the writer hit on an earlier snapshot.
    pub(crate) fn check(&self) -> Result<()> {
        match self.shared.error().as_deref() {
            None => Ok(()),
            Some(msg) => Err(LcmError::Storage(format!("async persist failed: {msg}"))),
        }
    }

    /// Queues one sealed snapshot, blocking while the queue is full
    /// (back-pressure).
    pub(crate) fn submit(&mut self, blobs: PersistBlobs) -> Result<()> {
        self.stage
            .submit(blobs)
            .map_err(|_| LcmError::Storage("persist writer stopped".into()))
    }

    /// Blocks until every queued snapshot is stored, then surfaces any
    /// storage error the writer hit.
    pub(crate) fn flush(&self) -> Result<()> {
        self.stage.flush();
        self.check()
    }

    /// The writer's side of a server crash: a process crash lets
    /// accepted writes complete, a power failure discards what is
    /// still queued (the in-flight store completes). Returns how many
    /// snapshots were dropped. A pending writer error is cleared
    /// either way: the restarted process gets a fresh writer, and the
    /// write that failed is simply lost — if it mattered, clients
    /// detect the resulting rollback.
    pub(crate) fn crash(&self, power_failure: bool) -> usize {
        let dropped = if power_failure {
            self.stage.discard_pending()
        } else {
            self.stage.flush();
            0
        };
        *self.shared.error() = None;
        dropped
    }

    pub(crate) fn persisted(&self) -> u64 {
        self.shared.persisted.load(Ordering::SeqCst)
    }

    pub(crate) fn pending(&self) -> usize {
        self.stage.pending()
    }

    pub(crate) fn blocked_pushes(&self) -> u64 {
        self.stage.queue_stats().blocked_pushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::AdminHandle;
    use crate::client::LcmClient;
    use crate::functionality::AppendLog;
    use crate::server::LcmServer;
    use crate::stability::Quorum;
    use crate::types::ClientId;
    use lcm_storage::MemoryStorage;
    use lcm_tee::world::TeeWorld;

    fn setup(n_clients: u32, batch: usize) -> (LcmServer<AppendLog>, AdminHandle, Vec<LcmClient>) {
        let world = TeeWorld::new_deterministic(42);
        let platform = world.platform_deterministic(1);
        let storage = Arc::new(MemoryStorage::new());
        let mut server = LcmServer::<AppendLog>::new(&platform, storage, batch).into_pipelined();
        assert!(server.boot().unwrap());

        let clients: Vec<ClientId> = (1..=n_clients).map(ClientId).collect();
        let mut admin =
            AdminHandle::new_deterministic(&world, clients.clone(), Quorum::Majority, 7);
        admin.bootstrap(&mut server).unwrap();

        let lcm_clients = clients
            .iter()
            .map(|&id| LcmClient::new(id, admin.client_key()))
            .collect();
        (server, admin, lcm_clients)
    }

    #[test]
    fn end_to_end_single_client() {
        let (mut server, _admin, mut clients) = setup(1, 1);
        let c = &mut clients[0];
        server.submit(c.invoke(b"first").unwrap());
        let replies = server.process_all().unwrap();
        assert_eq!(replies.len(), 1);
        let done = c.handle_reply(&replies[0].1).unwrap();
        assert_eq!(done.seq.0, 1);
        server.flush().unwrap();
        assert_eq!(server.persists_completed(), 1);
    }

    #[test]
    fn replies_can_outrun_persistence() {
        // With a generous queue the reply returns even though nothing
        // forces the persist to have completed yet; flush establishes
        // the durable point.
        let (mut server, _admin, mut clients) = setup(3, 16);
        for c in clients.iter_mut() {
            server.submit(c.invoke(b"op").unwrap());
        }
        let replies = server.process_all().unwrap();
        assert_eq!(replies.len(), 3);
        server.flush().unwrap();
        assert_eq!(server.batches_processed(), 1);
        assert_eq!(server.persists_completed(), 1);
    }

    #[test]
    fn process_crash_preserves_accepted_writes() {
        let (mut server, _admin, mut clients) = setup(1, 1);
        let c = &mut clients[0];
        server.submit(c.invoke(b"durable").unwrap());
        let replies = server.process_all().unwrap();
        c.handle_reply(&replies[0].1).unwrap();

        server.crash();
        assert!(!server.is_running());
        assert!(!server.boot().unwrap(), "no re-provisioning after crash");

        server.submit(c.invoke(b"after").unwrap());
        let replies = server.process_all().unwrap();
        let done = c.handle_reply(&replies[0].1).unwrap();
        assert_eq!(done.seq.0, 2, "sequence continues after recovery");
    }

    /// Storage whose writes block until a gate opens — pins persist
    /// jobs in the writer pipeline at a deterministic point.
    struct GatedStorage {
        inner: MemoryStorage,
        gate: Mutex<bool>,
        opened: std::sync::Condvar,
    }

    impl GatedStorage {
        fn new() -> Self {
            GatedStorage {
                inner: MemoryStorage::new(),
                gate: Mutex::new(true),
                opened: std::sync::Condvar::new(),
            }
        }

        fn open(&self) {
            *self.gate.lock().unwrap() = true;
            self.opened.notify_all();
        }

        fn close(&self) {
            *self.gate.lock().unwrap() = false;
        }
    }

    impl lcm_storage::StableStorage for GatedStorage {
        fn store(&self, slot: &str, blob: &[u8]) -> lcm_storage::Result<()> {
            let mut open = self.gate.lock().unwrap();
            while !*open {
                open = self.opened.wait(open).unwrap();
            }
            drop(open);
            self.inner.store(slot, blob)
        }
        fn load(&self, slot: &str) -> lcm_storage::Result<Option<Vec<u8>>> {
            self.inner.load(slot)
        }
    }

    /// A pipelined server over a gated medium, bootstrapped for one
    /// client, with one durable operation behind it.
    fn gated_setup(
        seed: u64,
    ) -> (
        TeeWorld,
        Arc<GatedStorage>,
        LcmServer<AppendLog>,
        AdminHandle,
        LcmClient,
    ) {
        let world = TeeWorld::new_deterministic(seed);
        let platform = world.platform_deterministic(1);
        let storage = Arc::new(GatedStorage::new());
        let mut server =
            LcmServer::<AppendLog>::new(&platform, storage.clone(), 1).into_pipelined_with_queue(8);
        assert!(server.boot().unwrap());
        let ids = vec![ClientId(1)];
        let mut admin = AdminHandle::new_deterministic(&world, ids, Quorum::Majority, 9);
        admin.bootstrap(&mut server).unwrap();
        let mut c = LcmClient::new(ClientId(1), admin.client_key());
        run(&mut server, &mut c, b"durable");
        server.flush().unwrap();
        (world, storage, server, admin, c)
    }

    fn run(server: &mut LcmServer<AppendLog>, c: &mut LcmClient, op: &[u8]) {
        server.submit(c.invoke(op).unwrap());
        let replies = server.process_all().unwrap();
        c.handle_reply(&replies[0].1).unwrap();
    }

    #[test]
    fn power_failure_rolls_back_and_clients_detect() {
        let (_world, storage, mut server, _admin, mut c) = gated_setup(43);

        // Close the gate: the next two acknowledged ops stall in the
        // persistence stage (one in-flight, one queued).
        storage.close();
        run(&mut server, &mut c, b"volatile-1");
        run(&mut server, &mut c, b"volatile-2");
        // Wait until exactly one job is queued behind the in-flight one.
        while server.pending_persists() != 1 {
            std::thread::yield_now();
        }

        // Power failure: the queued snapshot is lost; the in-flight
        // write completes once "the controller" (gate) lets it.
        let dropped = server.crash_power_failure();
        assert_eq!(dropped, 1);
        storage.open();
        server.boot().unwrap();

        // The context recovered without volatile-2; the client's
        // (tc, hc) is ahead — its next operation trips detection.
        server.submit(c.invoke(b"next").unwrap());
        let err = server.process_all().unwrap_err();
        assert!(err.is_violation(), "got {err:?}");
    }

    /// Every control-plane host call reads or supersedes what stable
    /// storage holds, so each must have drained the writer by the time
    /// it returns — as a set, against one gated medium: acknowledge an
    /// operation whose persist stalls, issue the call from the main
    /// thread, open the gate from a helper, and require the stalled
    /// persist on the medium the moment the call is back (whatever its
    /// verdict; several of these are rejected by the enclave in this
    /// state, which is irrelevant to the barrier). The helper's delay
    /// only gives a call *without* the barrier time to return early: a
    /// call with it blocks until the gate opens, however late that is,
    /// so timing can never fail a correct server.
    #[test]
    fn control_plane_calls_drain_the_writer_first() {
        type Call = fn(&mut LcmServer<AppendLog>, &mut AdminHandle);
        let calls: [(&str, Call); 9] = [
            ("boot", |s, _| drop(s.boot())),
            ("provision", |s, _| drop(s.provision(vec![0; 8]))),
            ("admin", |s, a| drop(a.add_client(s, ClientId(2)))),
            ("export_migration", |s, _| drop(s.export_migration())),
            ("import_migration", |s, _| {
                drop(s.import_migration(vec![], Some((0, 1))))
            }),
            ("apply_replica", |s, _| drop(s.apply_replica(&[]))),
            ("export_slice", |s, _| drop(s.export_slice(0, 0))),
            ("import_slice", |s, _| drop(s.import_slice(vec![]))),
            ("adopt_table", |s, _| drop(s.adopt_table(vec![]))),
        ];
        for (i, (name, call)) in calls.iter().enumerate() {
            let (_world, storage, mut server, mut admin, mut c) = gated_setup(50 + i as u64);
            storage.close();
            run(&mut server, &mut c, b"stalled");
            let before = server.persists_completed();
            let opener = {
                let storage = storage.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    storage.open();
                })
            };
            call(&mut server, &mut admin);
            assert_eq!(server.pending_persists(), 0, "{name}: writer queue");
            assert!(
                server.persists_completed() > before,
                "{name} returned before the stalled persist reached the medium"
            );
            opener.join().unwrap();
        }
    }
}
