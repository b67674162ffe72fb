//! Honest file-backed storage.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::{Result, StableStorage};

/// An honest blob store persisting each slot as a file in a directory.
///
/// Used by examples that demonstrate recovery across process restarts.
/// Writes go through a temporary file followed by a rename so a crash
/// mid-write never leaves a torn blob (the paper's correct server is
/// assumed to write atomically; torn writes would surface as unseal
/// failures, not rollbacks).
#[derive(Debug, Clone)]
pub struct FileStorage {
    dir: PathBuf,
}

impl FileStorage {
    /// Opens (creating if necessary) a store rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(FileStorage {
            dir: dir.as_ref().to_owned(),
        })
    }

    fn path_for(&self, slot: &str) -> PathBuf {
        // Encode the slot name so arbitrary strings map to safe file names.
        let mut name = String::with_capacity(slot.len() + 5);
        for b in slot.bytes() {
            match b {
                b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' => name.push(b as char),
                other => {
                    name.push('%');
                    name.push_str(&format!("{other:02x}"));
                }
            }
        }
        name.push_str(".blob");
        self.dir.join(name)
    }
}

impl StableStorage for FileStorage {
    fn store(&self, slot: &str, blob: &[u8]) -> Result<()> {
        let path = self.path_for(slot);
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(blob)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        // The rename lives in the directory's own data: until the
        // directory is synced, a power loss can bring back the old
        // entry (or none), and an acknowledged store vanishes (Pillai
        // et al., "All File Systems Are Not Created Equal", OSDI'14).
        // Directories open for reading, and sync, only on Unix.
        #[cfg(unix)]
        fs::File::open(&self.dir)?.sync_all()?;
        Ok(())
    }

    fn load(&self, slot: &str) -> Result<Option<Vec<u8>>> {
        match fs::read(self.path_for(slot)) {
            Ok(data) => Ok(Some(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lcm-storage-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_and_overwrite() {
        let dir = tempdir("roundtrip");
        let s = FileStorage::open(&dir).unwrap();
        s.store("state", b"v1").unwrap();
        s.store("state", b"v2").unwrap();
        assert_eq!(s.load("state").unwrap().unwrap(), b"v2");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_is_none() {
        let dir = tempdir("missing");
        let s = FileStorage::open(&dir).unwrap();
        assert_eq!(s.load("never-stored").unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn survives_reopen() {
        let dir = tempdir("reopen");
        {
            let s = FileStorage::open(&dir).unwrap();
            s.store("state", b"persisted").unwrap();
        }
        let s = FileStorage::open(&dir).unwrap();
        assert_eq!(s.load("state").unwrap().unwrap(), b"persisted");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn slot_names_with_special_chars() {
        let dir = tempdir("special");
        let s = FileStorage::open(&dir).unwrap();
        s.store("slot/with:odd*chars", b"data").unwrap();
        assert_eq!(s.load("slot/with:odd*chars").unwrap().unwrap(), b"data");
        // A visually similar slot must not alias.
        assert_eq!(s.load("slot-with-odd-chars").unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }
}
