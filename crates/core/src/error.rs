//! The error type shared by CDStore clients, servers, and the system façade.

use core::fmt;

use cdstore_secretsharing::SharingError;
use cdstore_storage::StorageError;

/// Errors surfaced by CDStore operations.
#[derive(Debug)]
pub enum CdStoreError {
    /// The `(n, k)` or chunking configuration is invalid.
    InvalidConfig(String),
    /// A convergent-dispersal (CAONT-RS) error.
    Sharing(SharingError),
    /// A container / backend storage error on some server.
    Storage(StorageError),
    /// Fewer than `k` CDStore servers are reachable.
    NotEnoughClouds {
        /// Servers required (`k`).
        needed: usize,
        /// Servers reachable.
        available: usize,
    },
    /// The requested file is not known to the contacted servers.
    FileNotFound(String),
    /// A share referenced by a file recipe is missing from a server.
    MissingShare(String),
    /// The recovered data failed its integrity check on every decode subset.
    IntegrityFailure(String),
    /// Recipes fetched from different servers disagree.
    InconsistentMetadata(String),
    /// A remote transport failed: connection refused or lost, request timed
    /// out, or the peer violated the wire protocol. Carries a human-readable
    /// description; the operation may have partially executed on the server.
    Remote(String),
    /// Reading the backup source or writing the restore destination failed
    /// (streaming entry points only). Carries the I/O error's description.
    Io(String),
}

impl fmt::Display for CdStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdStoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CdStoreError::Sharing(e) => write!(f, "convergent dispersal error: {e}"),
            CdStoreError::Storage(e) => write!(f, "storage error: {e}"),
            CdStoreError::NotEnoughClouds { needed, available } => {
                write!(
                    f,
                    "need {needed} reachable clouds, only {available} available"
                )
            }
            CdStoreError::FileNotFound(path) => write!(f, "file not found: {path}"),
            CdStoreError::MissingShare(fp) => write!(f, "missing share: {fp}"),
            CdStoreError::IntegrityFailure(msg) => write!(f, "integrity failure: {msg}"),
            CdStoreError::InconsistentMetadata(msg) => write!(f, "inconsistent metadata: {msg}"),
            CdStoreError::Remote(msg) => write!(f, "remote transport error: {msg}"),
            CdStoreError::Io(msg) => write!(f, "stream I/O error: {msg}"),
        }
    }
}

impl std::error::Error for CdStoreError {}

impl From<SharingError> for CdStoreError {
    fn from(e: SharingError) -> Self {
        CdStoreError::Sharing(e)
    }
}

impl From<StorageError> for CdStoreError {
    fn from(e: StorageError) -> Self {
        CdStoreError::Storage(e)
    }
}

impl From<std::io::Error> for CdStoreError {
    fn from(e: std::io::Error) -> Self {
        CdStoreError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable_messages() {
        let e = CdStoreError::NotEnoughClouds {
            needed: 3,
            available: 2,
        };
        assert!(e.to_string().contains("need 3"));
        let e = CdStoreError::FileNotFound("/backup.tar".into());
        assert!(e.to_string().contains("/backup.tar"));
        let e: CdStoreError = SharingError::IntegrityCheckFailed.into();
        assert!(matches!(e, CdStoreError::Sharing(_)));
    }
}
