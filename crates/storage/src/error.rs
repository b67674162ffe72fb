use std::error::Error;
use std::fmt;

/// Error type for storage operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum StorageError {
    /// An underlying I/O failure (file-backed stores).
    Io(std::io::Error),
    /// The requested historical version does not exist.
    NoSuchVersion {
        /// The slot that was queried.
        slot: String,
        /// The version index that was requested.
        version: u64,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage I/O failure: {e}"),
            StorageError::NoSuchVersion { slot, version } => {
                write!(f, "no version {version} for slot {slot:?}")
            }
        }
    }
}

impl Error for StorageError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<StorageError> for lcm_trusted::LcmError {
    fn from(e: StorageError) -> Self {
        lcm_trusted::LcmError::Storage(e.to_string())
    }
}
