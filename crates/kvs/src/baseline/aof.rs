//! File-backed append-only-file baseline with fsync batching (group
//! commit): the "Redis TLS" series.
//!
//! The paper benchmarks Redis configured with an append log (§6.1);
//! Redis itself is out of scope, and this server models its AOF
//! strategy with no security machinery in the server process: a
//! **real file**, appended incrementally, with the three
//! durability policies Redis exposes as `appendfsync`
//! (`always` / `everysec`-style batching / `no`). Group commit is the
//! baseline counterpart of the LCM server's seal batching — one fsync
//! amortized over N operations — and anchors the Fig. 6 fsync-bound
//! series to a real disk.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use lcm_core::codec::WireCodec;
use lcm_storage::framing;

use crate::ops::{KvOp, KvResult};
use crate::store::KvStore;

/// When the append-only file is forced to the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `appendfsync always`: every mutating operation fsyncs.
    EveryOp,
    /// Group commit: fsync once per `n` mutating operations (min 1).
    EveryN(usize),
    /// `appendfsync no`: never fsync explicitly; the OS decides.
    Never,
}

/// An append-only-file key-value server persisting to a real file.
pub struct FileAofKvsServer {
    store: KvStore,
    path: PathBuf,
    file: File,
    policy: FsyncPolicy,
    /// Mutations appended since the last fsync.
    unsynced_ops: usize,
    fsyncs: u64,
    appended_bytes: u64,
}

impl std::fmt::Debug for FileAofKvsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileAofKvsServer")
            .field("objects", &self.store.len())
            .field("policy", &self.policy)
            .field("fsyncs", &self.fsyncs)
            .finish()
    }
}

impl FileAofKvsServer {
    /// Opens (creating if necessary) a server whose AOF lives at
    /// `path`, replaying any existing log.
    ///
    /// # Errors
    ///
    /// Fails on file I/O errors.
    pub fn open(path: impl AsRef<Path>, policy: FsyncPolicy) -> std::io::Result<Self> {
        let path = path.as_ref().to_owned();
        let mut store = KvStore::default();
        let mut valid_len = None;
        if let Ok(mut existing) = File::open(&path) {
            let mut aof = Vec::new();
            existing.read_to_end(&mut aof)?;
            let valid = replay(&aof, &mut store);
            if valid < aof.len() {
                valid_len = Some(valid as u64);
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        // Truncate a torn tail entry (crash mid-append) so future
        // appends land after the valid prefix, not after garbage that
        // would end every later replay early.
        if let Some(len) = valid_len {
            file.set_len(len)?;
        }
        Ok(FileAofKvsServer {
            store,
            path,
            file,
            policy,
            unsynced_ops: 0,
            fsyncs: 0,
            appended_bytes: 0,
        })
    }

    /// Executes one operation, appending mutations to the AOF and
    /// fsyncing per the configured policy.
    ///
    /// # Errors
    ///
    /// Fails on file I/O errors (the mutation is still applied in
    /// memory — matching Redis, which replies before the AOF write is
    /// guaranteed durable).
    pub fn handle(&mut self, op: &KvOp) -> std::io::Result<KvResult> {
        let result = self.store.apply(op);
        if !matches!(op, KvOp::Get(_)) {
            // Entries use the same length-prefixed CRC framing as the
            // sealed delta log's segments, so torn-tail detection is
            // one shared scanner rather than two hand-rolled parsers.
            let mut entry = Vec::new();
            framing::append_frame(&mut entry, &op.to_bytes());
            self.file.write_all(&entry)?;
            self.appended_bytes += entry.len() as u64;
            self.unsynced_ops += 1;
            match self.policy {
                FsyncPolicy::EveryOp => self.fsync()?,
                FsyncPolicy::EveryN(n) => {
                    if self.unsynced_ops >= n.max(1) {
                        self.fsync()?;
                    }
                }
                FsyncPolicy::Never => {}
            }
        }
        Ok(result)
    }

    /// Forces everything appended so far to the medium (end-of-batch
    /// group commit).
    ///
    /// # Errors
    ///
    /// Fails on file I/O errors.
    pub fn fsync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()?;
        self.fsyncs += 1;
        self.unsynced_ops = 0;
        Ok(())
    }

    /// Drops in-memory state and replays the AOF from disk — crash
    /// recovery.
    ///
    /// # Errors
    ///
    /// Fails on file I/O errors.
    pub fn recover(&mut self) -> std::io::Result<()> {
        self.store = KvStore::default();
        let mut aof = Vec::new();
        File::open(&self.path)?.read_to_end(&mut aof)?;
        let valid = replay(&aof, &mut self.store);
        if valid < aof.len() {
            self.file.set_len(valid as u64)?;
        }
        self.unsynced_ops = 0;
        Ok(())
    }

    /// Number of fsyncs performed — the group-commit amortization
    /// signal: `ops / fsyncs` is the effective batch size.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    /// Bytes appended to the AOF so far.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// Whether the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }
}

/// Replays `aof` into `store`, returning the length of the valid
/// prefix — everything past it is a torn tail entry (crash mid-append)
/// the caller should truncate away.
fn replay(aof: &[u8], store: &mut KvStore) -> usize {
    let scanned = framing::scan(aof);
    let mut valid = 0;
    for payload in scanned.payloads {
        // A CRC-valid frame that is not a decodable op means the log
        // was produced by something else (or corrupted in a way CRC
        // happens to miss); stop at the last decodable record.
        let Ok(op) = KvOp::from_bytes(payload) else {
            break;
        };
        store.apply(&op);
        valid += framing::FRAME_HEADER + payload.len();
    }
    valid
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_aof(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lcm-kvs-aof-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("server.aof")
    }

    #[test]
    fn ops_survive_recovery() {
        let path = temp_aof("recovery");
        let mut s = FileAofKvsServer::open(&path, FsyncPolicy::EveryOp).unwrap();
        s.handle(&KvOp::Put(b"a".to_vec(), b"1".to_vec())).unwrap();
        s.handle(&KvOp::Put(b"b".to_vec(), b"2".to_vec())).unwrap();
        s.handle(&KvOp::Del(b"a".to_vec())).unwrap();
        s.recover().unwrap();
        assert_eq!(
            s.handle(&KvOp::Get(b"a".to_vec())).unwrap(),
            KvResult::Value(None)
        );
        assert_eq!(
            s.handle(&KvOp::Get(b"b".to_vec())).unwrap(),
            KvResult::Value(Some(b"2".to_vec()))
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn reopen_replays_the_file() {
        let path = temp_aof("reopen");
        {
            let mut s = FileAofKvsServer::open(&path, FsyncPolicy::EveryOp).unwrap();
            s.handle(&KvOp::Put(b"k".to_vec(), b"v".to_vec())).unwrap();
        }
        let mut s = FileAofKvsServer::open(&path, FsyncPolicy::EveryOp).unwrap();
        assert_eq!(
            s.handle(&KvOp::Get(b"k".to_vec())).unwrap(),
            KvResult::Value(Some(b"v".to_vec()))
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn group_commit_amortizes_fsyncs() {
        let path = temp_aof("group");
        let mut every_op = FileAofKvsServer::open(&path, FsyncPolicy::EveryOp).unwrap();
        for i in 0..32u32 {
            every_op
                .handle(&KvOp::Put(b"k".to_vec(), i.to_be_bytes().to_vec()))
                .unwrap();
        }
        assert_eq!(every_op.fsyncs(), 32);

        let path8 = temp_aof("group8");
        let mut batched = FileAofKvsServer::open(&path8, FsyncPolicy::EveryN(8)).unwrap();
        for i in 0..32u32 {
            batched
                .handle(&KvOp::Put(b"k".to_vec(), i.to_be_bytes().to_vec()))
                .unwrap();
        }
        assert_eq!(batched.fsyncs(), 4, "one group commit per 8 ops");
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
        let _ = std::fs::remove_dir_all(path8.parent().unwrap());
    }

    #[test]
    fn reads_do_not_append_or_fsync() {
        let path = temp_aof("reads");
        let mut s = FileAofKvsServer::open(&path, FsyncPolicy::EveryOp).unwrap();
        s.handle(&KvOp::Put(b"k".to_vec(), b"v".to_vec())).unwrap();
        let (bytes, fsyncs) = (s.appended_bytes(), s.fsyncs());
        s.handle(&KvOp::Get(b"k".to_vec())).unwrap();
        assert_eq!(s.appended_bytes(), bytes);
        assert_eq!(s.fsyncs(), fsyncs);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn fsynced_entries_after_a_torn_tail_survive_the_next_replay() {
        let path = temp_aof("torn-then-append");
        {
            let mut s = FileAofKvsServer::open(&path, FsyncPolicy::EveryOp).unwrap();
            s.handle(&KvOp::Put(b"old".to_vec(), b"1".to_vec()))
                .unwrap();
        }
        // Crash mid-append leaves garbage at the tail.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            // A frame header promising 16 payload bytes, then power
            // loss after only one landed.
            f.write_all(&[0, 0, 0, 16, 0xde, 0xad, 0xbe, 0xef, 0xff])
                .unwrap();
        }
        // Reopen truncates the torn tail; a new durable entry follows.
        {
            let mut s = FileAofKvsServer::open(&path, FsyncPolicy::EveryOp).unwrap();
            s.handle(&KvOp::Put(b"new".to_vec(), b"2".to_vec()))
                .unwrap();
        }
        // The next replay must see BOTH entries — nothing fsynced lost.
        let mut s = FileAofKvsServer::open(&path, FsyncPolicy::EveryOp).unwrap();
        assert_eq!(
            s.handle(&KvOp::Get(b"old".to_vec())).unwrap(),
            KvResult::Value(Some(b"1".to_vec()))
        );
        assert_eq!(
            s.handle(&KvOp::Get(b"new".to_vec())).unwrap(),
            KvResult::Value(Some(b"2".to_vec()))
        );
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_entry_is_truncated_on_replay() {
        let path = temp_aof("torn");
        {
            let mut s = FileAofKvsServer::open(&path, FsyncPolicy::Never).unwrap();
            s.handle(&KvOp::Put(b"good".to_vec(), b"v".to_vec()))
                .unwrap();
        }
        // Simulate a crash mid-append: garbage half-entry at the tail.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            // A frame header promising 16 payload bytes, then power
            // loss after only one landed.
            f.write_all(&[0, 0, 0, 16, 0xde, 0xad, 0xbe, 0xef, 0xff])
                .unwrap();
        }
        let mut s = FileAofKvsServer::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(
            s.handle(&KvOp::Get(b"good".to_vec())).unwrap(),
            KvResult::Value(Some(b"v".to_vec()))
        );
        assert_eq!(s.len(), 1);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
