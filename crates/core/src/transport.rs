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
//! * the **in-process path** — [`crate::CdStoreServer`] implements the
//!   trait directly (plain function calls; these are its only names for
//!   the calls), and
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
use crate::server::{GcConfig, GcReport, ServerStats};

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
/// [`crate::CdStoreServer`] it abstracts.
///
/// A file's fixed cost is two calls per cloud to back it up — the dedup
/// query for its last batch, then [`ServerTransport::commit_file`] carrying
/// that batch and the recipe — and one call on each of `k` clouds to
/// restore it, [`ServerTransport::open_file`], while it fits one restore
/// window. Both merged calls have default bodies composing the calls they
/// replace, so a wrapper that implements only those keeps working; one that
/// forwards to a remote transport must override them too, or it pays the
/// separate round trips.
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

    /// Stores the file recipe and settles share reference counts: each
    /// recipe entry holds one reference afterwards, and the per-upload
    /// references [`ServerTransport::store_shares`] took for `uploaded` are
    /// given back, so a share's count is the number of live recipe entries
    /// naming it. A newer version of the file releases the older one's.
    fn put_file(
        &self,
        user: u64,
        encoded_pathname: &[u8],
        recipe: &FileRecipe,
        uploaded: &[Fingerprint],
    ) -> Result<(), CdStoreError>;

    /// Ends an upload on this cloud in one call: stores `last_batch` (which
    /// may be empty) as [`ServerTransport::store_shares`] does, then settles
    /// the file as [`ServerTransport::put_file`] does with `uploaded` plus
    /// the batch's fingerprints.
    ///
    /// An `Err` means the server holds no reference this upload took. The
    /// call is never retried in place: after an `Err`, or a lost reply that
    /// may have committed the file, the caller releases nothing on this
    /// cloud and replays the whole upload.
    ///
    /// The default composes the two calls and, if the store fails, releases
    /// `uploaded` and the batch itself.
    fn commit_file(
        &self,
        user: u64,
        encoded_pathname: &[u8],
        last_batch: &[(ShareMetadata, Vec<u8>)],
        recipe: &FileRecipe,
        uploaded: &[Fingerprint],
    ) -> Result<StoreReceipt, CdStoreError> {
        let settled: Vec<Fingerprint> = (uploaded.iter().copied())
            .chain(last_batch.iter().map(|(meta, _)| meta.fingerprint))
            .collect();
        let receipt = if last_batch.is_empty() {
            StoreReceipt::default()
        } else {
            self.store_shares(user, last_batch).inspect_err(|_| {
                let _ = self.release_uploads(user, &settled);
            })?
        };
        self.put_file(user, encoded_pathname, recipe, &settled)?;
        Ok(receipt)
    }

    /// Drops the transient per-upload references of an abandoned upload
    /// (best-effort: fingerprints the user holds no reference on are
    /// skipped).
    fn release_uploads(&self, user: u64, fingerprints: &[Fingerprint]) -> Result<(), CdStoreError>;

    /// Whether the server knows the given file of the given user.
    fn has_file(&self, user: u64, encoded_pathname: &[u8]) -> Result<bool, CdStoreError>;

    /// Fetches the file recipe for a user's file.
    fn get_recipe(&self, user: u64, encoded_pathname: &[u8]) -> Result<FileRecipe, CdStoreError>;

    /// Opens a file for restore in one call: its recipe, plus the shares of
    /// the recipe's first window, cut by [`FileRecipe::window_len`] from
    /// secret 0 under these bounds. `max_secrets == 0` asks for the recipe
    /// alone.
    ///
    /// The default composes [`ServerTransport::get_recipe`] and
    /// [`ServerTransport::fetch_shares`].
    fn open_file(
        &self,
        user: u64,
        encoded_pathname: &[u8],
        max_secrets: usize,
        max_secret_bytes: u64,
    ) -> Result<(FileRecipe, Vec<Vec<u8>>), CdStoreError> {
        let recipe = self.get_recipe(user, encoded_pathname)?;
        let first = recipe.window_len(0, max_secrets, max_secret_bytes);
        let shares = if first == 0 {
            Vec::new()
        } else {
            self.fetch_shares(user, &recipe.fingerprints(0..first))?
        };
        Ok((recipe, shares))
    }

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

    // Forwarded, not defaulted: the default would split the inner
    // transport's one call back into two.
    fn commit_file(
        &self,
        user: u64,
        encoded_pathname: &[u8],
        last_batch: &[(ShareMetadata, Vec<u8>)],
        recipe: &FileRecipe,
        uploaded: &[Fingerprint],
    ) -> Result<StoreReceipt, CdStoreError> {
        (**self).commit_file(user, encoded_pathname, last_batch, recipe, uploaded)
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

    fn open_file(
        &self,
        user: u64,
        encoded_pathname: &[u8],
        max_secrets: usize,
        max_secret_bytes: u64,
    ) -> Result<(FileRecipe, Vec<Vec<u8>>), CdStoreError> {
        (**self).open_file(user, encoded_pathname, max_secrets, max_secret_bytes)
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
    use crate::CdStoreServer;

    #[test]
    fn in_process_transport_reports_per_share_verdicts() {
        let server = CdStoreServer::new(0);
        let batch = vec![share(b"transport verdict share")];
        let len = batch[0].1.len() as u64;
        let first = server.store_shares(1, &batch).unwrap();
        assert_eq!(first.verdicts, vec![ShareVerdict::Stored]);
        assert_eq!(first.new_bytes, len);
        let again = server.store_shares(1, &batch).unwrap();
        assert_eq!(again.verdicts, vec![ShareVerdict::DuplicateIntraUser]);
        let other = server.store_shares(2, &batch).unwrap();
        assert_eq!(other.verdicts, vec![ShareVerdict::DuplicateInterUser]);
        assert_eq!(other.new_bytes, 0);
    }

    #[test]
    fn probe_reports_the_servers_counters() {
        let server = CdStoreServer::new(3);
        assert_eq!(server.probe().unwrap(), ServerProbe::default());
        assert_eq!(server.cloud_index(), 3);
        let batch = vec![share(b"probed share")];
        let len = batch[0].1.len() as u64;
        server.store_shares(1, &batch).unwrap();
        server.store_shares(2, &batch).unwrap();
        let probe = server.probe().unwrap();
        assert_eq!(probe.stats.shares_received, 2);
        assert_eq!(probe.stats.received_share_bytes, 2 * len);
        assert_eq!(probe.stats.physical_share_bytes, len);
        assert_eq!(probe.stats.inter_user_duplicates, 1);
        assert_eq!(probe.unique_shares, 1);
    }

    fn share(data: &[u8]) -> (ShareMetadata, Vec<u8>) {
        let meta = ShareMetadata {
            fingerprint: Fingerprint::of(data),
            share_size: data.len() as u32,
            secret_seq: 0,
            secret_size: data.len() as u32 * 3,
        };
        (meta, data.to_vec())
    }
}
