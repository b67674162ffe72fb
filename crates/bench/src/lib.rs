//! Shared helpers for the per-figure reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§6) and prints the same rows/series the paper
//! reports; the README's "Reproducing the paper's evaluation" section
//! lists them and how to run each.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Formats a throughput in the paper's "kops/sec" unit.
pub fn kops(ops_per_sec: f64) -> String {
    format!("{:8.2}", ops_per_sec / 1000.0)
}

/// Prints a Markdown-style table header.
pub fn header(columns: &[&str]) {
    println!("| {} |", columns.join(" | "));
    println!(
        "|{}|",
        columns.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// A paper-vs-measured comparison line for the run summary.
pub fn compare(label: &str, paper: &str, measured: &str) {
    println!("  {label:<46} paper: {paper:<18} measured: {measured}");
}

/// Additionally writes a figure's rows as `<name>.csv` under
/// `$LCM_OUT_DIR`, when that variable is set — CI runs every figure
/// binary with it and uploads the directory as a workflow artifact.
/// Does nothing (and never fails the figure run) otherwise.
pub fn write_csv(name: &str, columns: &[&str], rows: &[Vec<String>]) {
    let Ok(dir) = std::env::var("LCM_OUT_DIR") else {
        return;
    };
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut csv = String::new();
        csv.push_str(&columns.join(","));
        csv.push('\n');
        for row in rows {
            // Values are plain numbers/identifiers; quote defensively
            // if a field ever contains a comma.
            let cells: Vec<String> = row
                .iter()
                .map(|v| {
                    if v.contains(',') || v.contains('"') {
                        format!("\"{}\"", v.replace('"', "\"\""))
                    } else {
                        v.clone()
                    }
                })
                .collect();
            csv.push_str(&cells.join(","));
            csv.push('\n');
        }
        let path = std::path::Path::new(&dir).join(format!("{name}.csv"));
        std::fs::write(&path, csv)?;
        eprintln!("(wrote {})", path.display());
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!("(LCM_OUT_DIR set but writing {name}.csv failed: {e})");
    }
}

/// [`write_csv`] for a Fig. 5/6-style per-series client sweep.
pub fn series_csv(name: &str, series: &[lcm_sim::scenario::FigureSeries]) {
    let rows: Vec<Vec<String>> = series
        .iter()
        .flat_map(|s| {
            s.rows
                .iter()
                .map(move |(n, x)| vec![s.label(), n.to_string(), format!("{x:.1}")])
        })
        .collect();
    write_csv(name, &["series", "clients", "ops_per_s"], &rows);
}

/// Real-stack throughput measurement of the sharded multi-enclave
/// server, shared by the shard and front-end ablations and the
/// criterion benches.
pub mod shardbench {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use lcm_core::admin::AdminHandle;
    use lcm_core::client::LcmClient;
    use lcm_core::server::BatchServer;
    use lcm_core::shard::build_sharded;
    use lcm_core::stability::Quorum;
    use lcm_core::types::ClientId;
    use lcm_kvs::ops::KvOp;
    use lcm_kvs::store::KvStore;
    use lcm_storage::{DelayedStorage, MemoryStorage};
    use lcm_tee::world::TeeWorld;

    /// One measurement configuration.
    #[derive(Debug, Clone, Copy)]
    pub struct ShardRun {
        /// Number of server shards.
        pub shards: u32,
        /// Per-shard batch limit.
        pub batch: usize,
        /// Whether each shard persists on a background writer.
        pub pipelined: bool,
        /// Closed-loop client count (each client PUTs its own key, so
        /// keys spread across shards by route hash).
        pub clients: u32,
        /// Full submit-all/process-all rounds to measure.
        pub rounds: u32,
        /// Modelled write+fsync latency per store call.
        pub store_delay: Duration,
    }

    /// The key client `i` writes: its own, spread across shards by
    /// route hash. Shared by the single-driver and front-end
    /// measurements so their cells stay comparable.
    pub fn client_key(i: u32) -> Vec<u8> {
        format!("k{i}").into_bytes()
    }

    /// A live sharded KVS stack: server + bootstrapped clients, ready
    /// to run closed-loop rounds.
    pub struct ShardStack {
        server: Box<dyn BatchServer>,
        clients: Vec<LcmClient>,
        keys: Vec<Vec<u8>>,
        payload: Vec<u8>,
    }

    impl ShardStack {
        /// One full round: every client PUTs a 100 B value under its
        /// own key (keys spread across shards by route hash), then all
        /// replies are processed and completed.
        pub fn round(&mut self) {
            use lcm_core::codec::WireCodec;
            for (i, c) in self.clients.iter_mut().enumerate() {
                let op = KvOp::Put(self.keys[i].clone(), self.payload.clone());
                self.server
                    .submit(c.invoke_for::<KvStore>(&op.to_bytes()).unwrap());
            }
            let replies = self.server.process_all().unwrap();
            for (id, wire) in replies {
                let c = self.clients.iter_mut().find(|c| c.id() == id).unwrap();
                c.handle_reply(&wire).unwrap();
            }
        }

        /// Blocks until every persist issued so far is durable.
        pub fn flush(&mut self) {
            self.server.flush_persists().unwrap();
        }
    }

    /// Builds the sharded KVS stack for `cfg` (booted, provisioned,
    /// clients attached).
    pub fn setup(cfg: &ShardRun) -> ShardStack {
        let world = TeeWorld::new_deterministic(8_800 + u64::from(cfg.shards));
        let storage = Arc::new(DelayedStorage::new(MemoryStorage::new(), cfg.store_delay));
        let mut server: Box<dyn BatchServer> = Box::new(build_sharded::<KvStore>(
            &world,
            1,
            storage,
            cfg.batch,
            cfg.shards,
            cfg.pipelined,
        ));
        assert!(server.boot().unwrap());
        let ids: Vec<ClientId> = (1..=cfg.clients).map(ClientId).collect();
        let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 13);
        admin.bootstrap(&mut *server).unwrap();
        let clients = ids
            .iter()
            .map(|&id| LcmClient::new_sharded(id, admin.client_key(), cfg.shards))
            .collect();
        let keys = (0..cfg.clients).map(client_key).collect();
        ShardStack {
            server,
            clients,
            keys,
            payload: vec![0x42u8; 100],
        }
    }

    /// Builds the stack and measures ops/s over the configured rounds
    /// (including a final persistence flush).
    pub fn measure(cfg: &ShardRun) -> f64 {
        let mut stack = setup(cfg);
        let t0 = Instant::now();
        for _ in 0..cfg.rounds {
            stack.round();
        }
        stack.flush();
        f64::from(cfg.clients * cfg.rounds) / t0.elapsed().as_secs_f64()
    }

    /// Time-bounded [`measure`]: runs whole submit-all/process-all
    /// rounds until `window` has elapsed and reports ops/s over the
    /// actual elapsed time. This is the single-driver cell of the
    /// front-end comparison: no client submits again until the whole
    /// round completes.
    pub fn measure_for(cfg: &ShardRun, window: Duration) -> f64 {
        let mut stack = setup(cfg);
        let mut ops = 0u64;
        let t0 = Instant::now();
        while t0.elapsed() < window {
            stack.round();
            ops += u64::from(cfg.clients);
        }
        stack.flush();
        ops as f64 / t0.elapsed().as_secs_f64()
    }

    /// The same workload as [`measure_for`], driven continuously for
    /// `window`: the deployment runs `driver_threads` lane drivers
    /// (`ShardedServer::with_drivers`), and every client runs its own
    /// closed loop on its
    /// own OS thread through a `FrontendPort` — independent clients
    /// submitting from independent threads, no global round barrier.
    ///
    /// The single-driver [`measure_for`] waits for the *slowest*
    /// shard's full backlog before any client may continue; here each
    /// shard serves its own clients at its own pace.
    pub fn measure_frontend_for(cfg: &ShardRun, driver_threads: usize, window: Duration) -> f64 {
        use lcm_core::codec::WireCodec;

        let world = TeeWorld::new_deterministic(8_900 + u64::from(cfg.shards));
        let storage = Arc::new(DelayedStorage::new(MemoryStorage::new(), cfg.store_delay));
        let mut fe =
            build_sharded::<KvStore>(&world, 1, storage, cfg.batch, cfg.shards, cfg.pipelined)
                .with_drivers(driver_threads);
        assert!(fe.boot().unwrap());
        let ids: Vec<ClientId> = (1..=cfg.clients).map(ClientId).collect();
        let mut admin = AdminHandle::new_deterministic(&world, ids.clone(), Quorum::Majority, 13);
        admin.bootstrap(&mut fe).unwrap();

        let payload = vec![0x42u8; 100];
        let t0 = Instant::now();
        let deadline = t0 + window;
        let workers: Vec<_> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let mut client = LcmClient::new_sharded(id, admin.client_key(), cfg.shards);
                let port = fe.connect(id);
                let payload = payload.clone();
                let key = client_key(i as u32);
                std::thread::spawn(move || {
                    let mut done = 0u64;
                    while Instant::now() < deadline {
                        let op = KvOp::Put(key.clone(), payload.clone());
                        port.send(client.invoke_for::<KvStore>(&op.to_bytes()).unwrap());
                        let reply = port
                            .recv_timeout(Duration::from_secs(60))
                            .expect("closed-loop reply");
                        client.handle_reply(&reply).unwrap();
                        done += 1;
                    }
                    done
                })
            })
            .collect();
        let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        let elapsed = t0.elapsed();
        fe.flush_persists().unwrap();
        total as f64 / elapsed.as_secs_f64()
    }
}
