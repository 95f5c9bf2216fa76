//! [`ServerTransport`]: the client ⇄ server boundary as a trait.
//!
//! The paper's architecture (§4) has CDStore clients talking to one server
//! per cloud *over a network*. This module abstracts that boundary: every
//! operation a client performs against a server — the two-stage dedup
//! queries, batched share upload/download, recipe put/get, delete, gc,
//! flush, statistics — is a method of [`ServerTransport`], and the rest of
//! the crate ([`crate::client::CdStoreClient`], [`crate::system::CdStore`])
//! is generic over it.
//!
//! Two implementations exist:
//!
//! * the **in-process path** — [`CdStoreServer`] implements the trait
//!   directly (plain function calls, as the benchmarks of PR 3–5 used), and
//! * the **remote path** — `cdstore_net::RemoteServer` speaks the
//!   length-prefixed binary TCP protocol to a `cdstore_net::NetServer`
//!   (or a `cdstore-serve` process) wrapping the same server.
//!
//! Because the two paths share this one trait, `CdStore::backup`,
//! `restore`, `delete`, and `gc` run unchanged over either, and every test
//! written against the in-process deployment is also a specification of the
//! wire behaviour.
//!
//! Transport methods all return `Result`: the in-process implementations
//! are mostly infallible, but a remote call can always fail with
//! [`CdStoreError::Remote`] (connection loss, timeout, protocol violation).

use cdstore_crypto::Fingerprint;

use crate::error::CdStoreError;
use crate::metadata::{FileRecipe, ShareMetadata};
use crate::server::{CdStoreServer, GcConfig, GcReport, ServerStats};

/// Per-share outcome of a batched share upload, as reported back to the
/// client: whether the share's bytes were physically stored or removed by
/// inter-/intra-user deduplication. This is what makes the upload RPC's
/// response self-describing — a networked client can account for dedup
/// traffic without a second stats round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareVerdict {
    /// The share was new to this server; its bytes were written.
    Stored,
    /// Another user had already stored identical content (inter-user dedup).
    DuplicateInterUser,
    /// This user had already stored identical content — e.g. two of their
    /// uploads racing past the intra-user query stage.
    DuplicateIntraUser,
}

/// The response of a batched share upload: the per-share dedup verdicts plus
/// the aggregate number of bytes that were physically new.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreReceipt {
    /// Share bytes physically written (i.e. not removed by dedup).
    pub new_bytes: u64,
    /// One verdict per uploaded share, in batch order.
    pub verdicts: Vec<ShareVerdict>,
}

/// A one-RPC snapshot of a server's observable counters, used by
/// [`crate::system::CdStore::stats`] and by benchmarks/tests that need
/// server-side numbers without reaching into the concrete type.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerProbe {
    /// Traffic and deduplication counters.
    pub stats: ServerStats,
    /// Container bytes currently stored at the server's cloud backend.
    pub backend_bytes: u64,
    /// Approximate size of the server's indices in bytes.
    pub index_bytes: u64,
    /// Number of globally unique shares stored.
    pub unique_shares: u64,
    /// Bytes of unique shares currently referenced by at least one file.
    pub live_share_bytes: u64,
}

/// The full client-visible server API, as one object-safe trait.
///
/// Implementations must be `Send + Sync`: a transport handle is shared by
/// every client thread of a deployment, exactly like the in-process
/// [`CdStoreServer`] it abstracts.
pub trait ServerTransport: Send + Sync {
    /// The index of the cloud this server fronts.
    fn cloud_index(&self) -> usize;

    /// Intra-user deduplication query: for each client-computed fingerprint,
    /// has this user already uploaded the share? (§3.3.)
    fn intra_user_query(
        &self,
        user: u64,
        fingerprints: &[Fingerprint],
    ) -> Result<Vec<bool>, CdStoreError>;

    /// Uploads a batch of shares, returning per-share dedup verdicts and the
    /// number of physically new bytes.
    fn store_shares(
        &self,
        user: u64,
        shares: &[(ShareMetadata, Vec<u8>)],
    ) -> Result<StoreReceipt, CdStoreError>;

    /// Stores the file recipe and settles share reference counts (see
    /// [`CdStoreServer::put_file`]).
    fn put_file(
        &self,
        user: u64,
        encoded_pathname: &[u8],
        recipe: &FileRecipe,
        uploaded: &[Fingerprint],
    ) -> Result<(), CdStoreError>;

    /// Drops the transient per-upload references of an abandoned upload
    /// (best-effort; see [`CdStoreServer::release_uploads`]).
    fn release_uploads(&self, user: u64, fingerprints: &[Fingerprint]) -> Result<(), CdStoreError>;

    /// Whether the server knows the given file of the given user.
    fn has_file(&self, user: u64, encoded_pathname: &[u8]) -> Result<bool, CdStoreError>;

    /// Fetches the file recipe for a user's file.
    fn get_recipe(&self, user: u64, encoded_pathname: &[u8]) -> Result<FileRecipe, CdStoreError>;

    /// Deletes a file, releasing its share references. Returns whether the
    /// file existed.
    fn delete_file(&self, user: u64, encoded_pathname: &[u8]) -> Result<bool, CdStoreError>;

    /// Downloads a batch of shares owned by `user`, identified by the client
    /// fingerprints recorded in the file recipe. The whole batch comes back
    /// in one reply, so the caller bounds it by how much it asks for (see
    /// [`crate::CdStoreClient::download_stream`]).
    fn fetch_shares(
        &self,
        user: u64,
        fingerprints: &[Fingerprint],
    ) -> Result<Vec<Vec<u8>>, CdStoreError>;

    /// Seals and persists all open containers.
    fn flush(&self) -> Result<(), CdStoreError>;

    /// Runs a garbage-collection pass.
    fn gc_with(&self, config: GcConfig) -> Result<GcReport, CdStoreError>;

    /// Snapshots the server's observable counters in one round-trip.
    fn probe(&self) -> Result<ServerProbe, CdStoreError>;
}

impl ServerTransport for CdStoreServer {
    fn cloud_index(&self) -> usize {
        CdStoreServer::cloud_index(self)
    }

    fn intra_user_query(
        &self,
        user: u64,
        fingerprints: &[Fingerprint],
    ) -> Result<Vec<bool>, CdStoreError> {
        Ok(CdStoreServer::intra_user_query(self, user, fingerprints))
    }

    fn store_shares(
        &self,
        user: u64,
        shares: &[(ShareMetadata, Vec<u8>)],
    ) -> Result<StoreReceipt, CdStoreError> {
        self.store_shares_detailed(user, shares)
    }

    fn put_file(
        &self,
        user: u64,
        encoded_pathname: &[u8],
        recipe: &FileRecipe,
        uploaded: &[Fingerprint],
    ) -> Result<(), CdStoreError> {
        CdStoreServer::put_file(self, user, encoded_pathname, recipe, uploaded)
    }

    fn release_uploads(&self, user: u64, fingerprints: &[Fingerprint]) -> Result<(), CdStoreError> {
        CdStoreServer::release_uploads(self, user, fingerprints);
        Ok(())
    }

    fn has_file(&self, user: u64, encoded_pathname: &[u8]) -> Result<bool, CdStoreError> {
        Ok(CdStoreServer::has_file(self, user, encoded_pathname))
    }

    fn get_recipe(&self, user: u64, encoded_pathname: &[u8]) -> Result<FileRecipe, CdStoreError> {
        CdStoreServer::get_recipe(self, user, encoded_pathname)
    }

    fn delete_file(&self, user: u64, encoded_pathname: &[u8]) -> Result<bool, CdStoreError> {
        CdStoreServer::delete_file(self, user, encoded_pathname)
    }

    fn fetch_shares(
        &self,
        user: u64,
        fingerprints: &[Fingerprint],
    ) -> Result<Vec<Vec<u8>>, CdStoreError> {
        CdStoreServer::fetch_shares(self, user, fingerprints)
    }

    fn flush(&self) -> Result<(), CdStoreError> {
        CdStoreServer::flush(self)
    }

    fn gc_with(&self, config: GcConfig) -> Result<GcReport, CdStoreError> {
        CdStoreServer::gc_with(self, config)
    }

    fn probe(&self) -> Result<ServerProbe, CdStoreError> {
        Ok(ServerProbe {
            stats: self.stats(),
            backend_bytes: self.backend_bytes(),
            index_bytes: self.index_bytes() as u64,
            unique_shares: self.unique_shares() as u64,
            live_share_bytes: self.live_share_bytes(),
        })
    }
}

/// A shared transport handle is itself a transport: `Arc<CdStoreServer>` is
/// what `cdstore_net::NetServer` wraps, and deployments that hand the same
/// server to several components clone the `Arc` rather than the server.
impl<T: ServerTransport + ?Sized> ServerTransport for std::sync::Arc<T> {
    fn cloud_index(&self) -> usize {
        (**self).cloud_index()
    }

    fn intra_user_query(
        &self,
        user: u64,
        fingerprints: &[Fingerprint],
    ) -> Result<Vec<bool>, CdStoreError> {
        (**self).intra_user_query(user, fingerprints)
    }

    fn store_shares(
        &self,
        user: u64,
        shares: &[(ShareMetadata, Vec<u8>)],
    ) -> Result<StoreReceipt, CdStoreError> {
        (**self).store_shares(user, shares)
    }

    fn put_file(
        &self,
        user: u64,
        encoded_pathname: &[u8],
        recipe: &FileRecipe,
        uploaded: &[Fingerprint],
    ) -> Result<(), CdStoreError> {
        (**self).put_file(user, encoded_pathname, recipe, uploaded)
    }

    fn release_uploads(&self, user: u64, fingerprints: &[Fingerprint]) -> Result<(), CdStoreError> {
        (**self).release_uploads(user, fingerprints)
    }

    fn has_file(&self, user: u64, encoded_pathname: &[u8]) -> Result<bool, CdStoreError> {
        (**self).has_file(user, encoded_pathname)
    }

    fn get_recipe(&self, user: u64, encoded_pathname: &[u8]) -> Result<FileRecipe, CdStoreError> {
        (**self).get_recipe(user, encoded_pathname)
    }

    fn delete_file(&self, user: u64, encoded_pathname: &[u8]) -> Result<bool, CdStoreError> {
        (**self).delete_file(user, encoded_pathname)
    }

    fn fetch_shares(
        &self,
        user: u64,
        fingerprints: &[Fingerprint],
    ) -> Result<Vec<Vec<u8>>, CdStoreError> {
        (**self).fetch_shares(user, fingerprints)
    }

    fn flush(&self) -> Result<(), CdStoreError> {
        (**self).flush()
    }

    fn gc_with(&self, config: GcConfig) -> Result<GcReport, CdStoreError> {
        (**self).gc_with(config)
    }

    fn probe(&self) -> Result<ServerProbe, CdStoreError> {
        (**self).probe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_transport_reports_per_share_verdicts() {
        let server = CdStoreServer::new(0);
        let data = b"transport verdict share".to_vec();
        let meta = ShareMetadata {
            fingerprint: Fingerprint::of(&data),
            share_size: data.len() as u32,
            secret_seq: 0,
            secret_size: data.len() as u32 * 3,
        };
        let batch = vec![(meta.clone(), data.clone())];
        let first = ServerTransport::store_shares(&server, 1, &batch).unwrap();
        assert_eq!(first.verdicts, vec![ShareVerdict::Stored]);
        assert_eq!(first.new_bytes, data.len() as u64);
        let again = ServerTransport::store_shares(&server, 1, &batch).unwrap();
        assert_eq!(again.verdicts, vec![ShareVerdict::DuplicateIntraUser]);
        let other = ServerTransport::store_shares(&server, 2, &batch).unwrap();
        assert_eq!(other.verdicts, vec![ShareVerdict::DuplicateInterUser]);
        assert_eq!(other.new_bytes, 0);
    }

    #[test]
    fn probe_matches_direct_accessors() {
        let server = CdStoreServer::new(3);
        let probe = ServerTransport::probe(&server).unwrap();
        assert_eq!(probe.stats, server.stats());
        assert_eq!(probe.unique_shares, 0);
        assert_eq!(ServerTransport::cloud_index(&server), 3);
    }
}
