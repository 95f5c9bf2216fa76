//! Request/response messages for the full server API.
//!
//! Every payload begins with a `req_id: u64` envelope: the client assigns
//! request ids and the server echoes each one in its response, which the
//! client checks against the request it has in flight on that connection
//! (the server answers pipelined requests in order). Message types
//! occupy one byte: requests are `0x01..=0x7f`, responses have the top bit
//! set (`0x81..`). The full table lives in `docs/protocol.md`.

use cdstore_core::server::{GcReport, ServerStats};
use cdstore_core::transport::{ServerProbe, ShareVerdict, StoreReceipt};
use cdstore_core::{CdStoreError, FileRecipe, ShareMetadata};
use cdstore_crypto::Fingerprint;

use crate::frame::{begin_frame, seal_frame, FrameError, MAX_FRAME_BYTES};
use crate::wire::{WireReader, WireWriter};

/// A client → server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness / version probe.
    Ping,
    /// Intra-user dedup query over a batch of client fingerprints.
    IntraUserQuery {
        /// Querying user.
        user: u64,
        /// Client-computed share fingerprints.
        fingerprints: Vec<Fingerprint>,
    },
    /// Batched share upload.
    StoreShares {
        /// Uploading user.
        user: u64,
        /// `(metadata, share bytes)` pairs.
        shares: Vec<(ShareMetadata, Vec<u8>)>,
    },
    /// An upload's last request: its last batch of shares (possibly empty),
    /// the recipe, and reference settlement — `ServerTransport::commit_file`.
    PutFile {
        /// Owning user.
        user: u64,
        /// The last batch's `(metadata, share bytes)` pairs.
        shares: Vec<(ShareMetadata, Vec<u8>)>,
        /// The user's encoded pathname share for this cloud.
        encoded_pathname: Vec<u8>,
        /// The per-cloud file recipe.
        recipe: FileRecipe,
        /// Fingerprints the earlier batches physically sent (settled with
        /// `shares`' own).
        uploaded: Vec<Fingerprint>,
    },
    /// Drops transient upload references of an abandoned upload.
    ReleaseUploads {
        /// Owning user.
        user: u64,
        /// Fingerprints whose per-upload references to drop.
        fingerprints: Vec<Fingerprint>,
    },
    /// Opens a file for restore: its recipe and the shares of the recipe's
    /// first window — `ServerTransport::open_file`. A zero window asks for
    /// the recipe alone.
    GetRecipe {
        /// Owning user.
        user: u64,
        /// Encoded pathname share.
        encoded_pathname: Vec<u8>,
        /// Most secrets in the first window.
        max_secrets: u32,
        /// Most secret bytes in the first window (one secret always fits).
        max_secret_bytes: u64,
    },
    /// Deletes a file.
    DeleteFile {
        /// Owning user.
        user: u64,
        /// Encoded pathname share.
        encoded_pathname: Vec<u8>,
    },
    /// Batched share download: one window of a restore, answered in one
    /// response frame (or a typed `Err` if the reply would not fit one).
    FetchShares {
        /// Owning user.
        user: u64,
        /// Client fingerprints from the recipe.
        fingerprints: Vec<Fingerprint>,
    },
    /// Seals open containers.
    Flush,
    /// Runs a garbage-collection pass.
    Gc {
        /// `GcConfig::dead_ratio`, IEEE-754 bits (floats never travel raw).
        dead_ratio_bits: u64,
    },
    /// Snapshots the server's counters.
    Probe,
}

/// A server → client response. Exactly one response answers each request,
/// carrying the request's id.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Ping answer.
    Pong {
        /// The cloud index the server fronts.
        cloud_index: u32,
    },
    /// Answer to `IntraUserQuery`.
    Bools(Vec<bool>),
    /// Answer to `StoreShares` and `PutFile`.
    Receipt(StoreReceipt),
    /// Success carrying no data (`ReleaseUploads`, `Flush`).
    Unit,
    /// Answer to `DeleteFile`.
    Bool(bool),
    /// Answer to `GetRecipe`.
    Recipe {
        /// The per-cloud file recipe.
        recipe: FileRecipe,
        /// The shares of its first window, in recipe order.
        shares: Vec<Vec<u8>>,
    },
    /// Answer to `FetchShares`.
    Shares(Vec<Vec<u8>>),
    /// Answer to `Gc`.
    Gc(GcReport),
    /// Answer to `Probe`.
    Probe(ServerProbe),
    /// The request failed server-side; decodes back into a
    /// [`CdStoreError`].
    Err {
        /// Error discriminant (see `error_to_wire`).
        code: u8,
        /// `NotEnoughClouds::needed` (0 otherwise).
        needed: u64,
        /// `NotEnoughClouds::available` (0 otherwise).
        available: u64,
        /// Human-readable detail / the error's string payload.
        msg: String,
    },
}

// Request message types (0x01..=0x7f). 0x0a and 0x0b are retired (the v1
// share stream), 0x06 too (`HasFile`, version 4), and must never be reused.
const MT_PING: u8 = 0x01;
const MT_INTRA_QUERY: u8 = 0x02;
const MT_STORE_SHARES: u8 = 0x03;
const MT_PUT_FILE: u8 = 0x04;
const MT_RELEASE_UPLOADS: u8 = 0x05;
const MT_GET_RECIPE: u8 = 0x07;
const MT_DELETE_FILE: u8 = 0x08;
const MT_FETCH_SHARES: u8 = 0x09;
const MT_FLUSH: u8 = 0x0c;
const MT_GC: u8 = 0x0d;
const MT_PROBE: u8 = 0x0e;

// Response message types (top bit set). 0x88 and 0x89 are retired likewise.
const MT_PONG: u8 = 0x81;
const MT_BOOLS: u8 = 0x82;
const MT_RECEIPT: u8 = 0x83;
const MT_UNIT: u8 = 0x84;
const MT_BOOL: u8 = 0x85;
const MT_RECIPE: u8 = 0x86;
const MT_SHARES: u8 = 0x87;
const MT_GC_REPORT: u8 = 0x8a;
const MT_PROBE_REPORT: u8 = 0x8b;
const MT_ERR: u8 = 0x8c;

fn write_fingerprints(w: &mut WireWriter, fps: &[Fingerprint]) {
    w.u32(fps.len() as u32);
    for fp in fps {
        w.fingerprint(fp);
    }
}

/// A `u32` count, then that many items. The vector is sized for no more
/// items than the bytes left could encode at `min_bytes` each, so a hostile
/// count costs no more memory than the frame that carries it.
fn read_vec<'a, T>(
    r: &mut WireReader<'a>,
    min_bytes: usize,
    mut item: impl FnMut(&mut WireReader<'a>) -> Option<T>,
) -> Option<Vec<T>> {
    let n = r.u32()? as usize;
    let mut items = Vec::with_capacity(n.min(r.remaining() / min_bytes));
    for _ in 0..n {
        items.push(item(r)?);
    }
    Some(items)
}

fn read_fingerprints(r: &mut WireReader<'_>) -> Option<Vec<Fingerprint>> {
    read_vec(r, Fingerprint::SIZE, WireReader::fingerprint)
}

fn write_share_metadata(w: &mut WireWriter, m: &ShareMetadata) {
    w.fingerprint(&m.fingerprint);
    w.u32(m.share_size);
    w.u64(m.secret_seq);
    w.u32(m.secret_size);
}

fn read_share_metadata(r: &mut WireReader<'_>) -> Option<ShareMetadata> {
    Some(ShareMetadata {
        fingerprint: r.fingerprint()?,
        share_size: r.u32()?,
        secret_seq: r.u64()?,
        secret_size: r.u32()?,
    })
}

/// Encoded size of a [`ShareMetadata`]: fingerprint, two `u32`s, one `u64`.
const SHARE_METADATA_BYTES: usize = Fingerprint::SIZE + 4 + 8 + 4;

/// The `StoreShares` body after the envelope — also the head of a `PutFile`
/// body — with room reserved for it and the `tail` bytes that follow before
/// the first share is copied.
fn write_store_shares(
    w: &mut WireWriter,
    user: u64,
    shares: &[(ShareMetadata, Vec<u8>)],
    tail: usize,
) -> u8 {
    let share_bytes: usize = shares.iter().map(|(_, data)| data.len()).sum();
    w.reserve(8 + 4 + shares.len() * (SHARE_METADATA_BYTES + 4) + share_bytes + tail);
    w.u64(user);
    w.u32(shares.len() as u32);
    for (meta, data) in shares {
        write_share_metadata(w, meta);
        w.bytes(data);
    }
    MT_STORE_SHARES
}

/// `(metadata, share bytes)` pairs, as a `StoreShares` body carries them.
type ShareBatch = Vec<(ShareMetadata, Vec<u8>)>;

/// The `StoreShares` body: `user` and its batch.
fn read_store_shares(r: &mut WireReader<'_>) -> Option<(u64, ShareBatch)> {
    let user = r.u64()?;
    let shares = read_vec(r, SHARE_METADATA_BYTES + 4, |r| {
        Some((read_share_metadata(r)?, r.bytes()?))
    })?;
    Some((user, shares))
}

/// The `PutFile` body after the envelope: the last batch as a `StoreShares`
/// body, then the pathname share, the recipe and the earlier batches'
/// fingerprints, all in one exactly sized buffer.
fn write_put_file(
    w: &mut WireWriter,
    user: u64,
    shares: &[(ShareMetadata, Vec<u8>)],
    encoded_pathname: &[u8],
    recipe: &FileRecipe,
    uploaded: &[Fingerprint],
) -> u8 {
    let recipe = recipe.to_bytes();
    let tail =
        4 + encoded_pathname.len() + 4 + recipe.len() + 4 + uploaded.len() * Fingerprint::SIZE;
    write_store_shares(w, user, shares, tail);
    w.bytes(encoded_pathname);
    w.bytes(&recipe);
    write_fingerprints(w, uploaded);
    MT_PUT_FILE
}

/// The bytes of a `Shares` body besides its shares' own: the share count
/// and a length word a share, led in a `Recipe` body by the length-prefixed
/// recipe of `recipe_len` bytes.
fn shares_body_overhead(recipe_len: Option<usize>, count: usize) -> usize {
    recipe_len.map_or(0, |len| 4 + len) + 4 + 4 * count
}

/// Writes a `Shares` body — or, led by `recipe`, a `Recipe` body — up to
/// its shares, and returns its message type. The shares follow, each as
/// [`WireWriter::bytes`].
fn write_shares_head(w: &mut WireWriter, recipe: Option<&[u8]>, count: usize) -> u8 {
    if let Some(recipe) = recipe {
        w.bytes(recipe);
    }
    w.u32(count as u32);
    if recipe.is_some() {
        MT_RECIPE
    } else {
        MT_SHARES
    }
}

/// A `Shares` body — or, led by `recipe`, a `Recipe` body — sized exactly
/// first.
fn write_shares_body(w: &mut WireWriter, recipe: Option<&[u8]>, shares: &[Vec<u8>]) -> u8 {
    let share_bytes: usize = shares.iter().map(Vec::len).sum();
    w.reserve(shares_body_overhead(recipe.map(<[u8]>::len), shares.len()) + share_bytes);
    let msg_type = write_shares_head(w, recipe, shares.len());
    for s in shares {
        w.bytes(s);
    }
    msg_type
}

/// A `Shares` reply — or, given the recipe's bytes, a `Recipe` reply —
/// framed as its shares arrive, byte for byte the frame [`response_frame`]
/// makes of the collected response. The frame is allocated once, at its
/// exact size, and each share is copied once: from wherever the server
/// reads it into the frame.
pub(crate) struct SharesReply {
    w: WireWriter,
    msg_type: u8,
}

impl SharesReply {
    /// The most share bytes a reply of `count` shares, led by `recipe_len`
    /// bytes of recipe, can carry under [`MAX_FRAME_BYTES`]; `None` if not
    /// even its framing fits.
    pub(crate) fn room(recipe_len: Option<usize>, count: usize) -> Option<usize> {
        // version + type bytes, `req_id`, then the body.
        MAX_FRAME_BYTES.checked_sub(2 + 8 + shares_body_overhead(recipe_len, count))
    }

    /// Opens the reply to request `req_id`: `count` shares of `share_bytes`
    /// in all.
    pub(crate) fn open(
        req_id: u64,
        recipe: Option<&[u8]>,
        count: usize,
        share_bytes: usize,
    ) -> Self {
        let body = shares_body_overhead(recipe.map(<[u8]>::len), count) + share_bytes;
        let mut w = WireWriter::append_to(begin_frame(8 + body));
        w.u64(req_id);
        let msg_type = write_shares_head(&mut w, recipe, count);
        SharesReply { w, msg_type }
    }

    /// Appends the next share.
    pub(crate) fn push(&mut self, share: &[u8]) {
        self.w.bytes(share);
    }

    /// Seals the frame, ready for `write_all`.
    pub(crate) fn seal(self) -> Result<Vec<u8>, FrameError> {
        let mut frame = self.w.finish();
        seal_frame(&mut frame, self.msg_type)?;
        Ok(frame)
    }
}

fn read_shares(r: &mut WireReader<'_>) -> Option<Vec<Vec<u8>>> {
    read_vec(r, 4, WireReader::bytes)
}

/// Writes envelope and body of one request, returning its message type.
fn write_request(w: &mut WireWriter, req_id: u64, req: &Request) -> u8 {
    w.u64(req_id);
    match req {
        Request::Ping => MT_PING,
        Request::IntraUserQuery { user, fingerprints } => {
            w.u64(*user);
            write_fingerprints(w, fingerprints);
            MT_INTRA_QUERY
        }
        Request::StoreShares { user, shares } => write_store_shares(w, *user, shares, 0),
        Request::PutFile {
            user,
            shares,
            encoded_pathname,
            recipe,
            uploaded,
        } => write_put_file(w, *user, shares, encoded_pathname, recipe, uploaded),
        Request::ReleaseUploads { user, fingerprints } => {
            w.u64(*user);
            write_fingerprints(w, fingerprints);
            MT_RELEASE_UPLOADS
        }
        Request::GetRecipe {
            user,
            encoded_pathname,
            max_secrets,
            max_secret_bytes,
        } => {
            w.u64(*user);
            w.bytes(encoded_pathname);
            w.u32(*max_secrets);
            w.u64(*max_secret_bytes);
            MT_GET_RECIPE
        }
        Request::DeleteFile {
            user,
            encoded_pathname,
        } => {
            w.u64(*user);
            w.bytes(encoded_pathname);
            MT_DELETE_FILE
        }
        Request::FetchShares { user, fingerprints } => {
            w.u64(*user);
            write_fingerprints(w, fingerprints);
            MT_FETCH_SHARES
        }
        Request::Flush => MT_FLUSH,
        Request::Gc { dead_ratio_bits } => {
            w.u64(*dead_ratio_bits);
            MT_GC
        }
        Request::Probe => MT_PROBE,
    }
}

/// Runs a message writer over a frame opened in place and seals it.
fn framed(write: impl FnOnce(&mut WireWriter) -> u8) -> Result<Vec<u8>, FrameError> {
    // Small messages fit; the bulk writers reserve their exact size.
    let mut w = WireWriter::append_to(begin_frame(118));
    let msg_type = write(&mut w);
    let mut frame = w.finish();
    seal_frame(&mut frame, msg_type)?;
    Ok(frame)
}

/// One request as a sealed frame, ready for `write_all`.
pub(crate) fn request_frame(req_id: u64, req: &Request) -> Result<Vec<u8>, FrameError> {
    framed(|w| write_request(w, req_id, req))
}

/// [`request_frame`] of a [`Request::StoreShares`] straight from the caller's
/// borrowed batch: the share bytes are copied once, into the frame.
pub(crate) fn store_shares_frame(
    req_id: u64,
    user: u64,
    shares: &[(ShareMetadata, Vec<u8>)],
) -> Result<Vec<u8>, FrameError> {
    framed(|w| {
        w.u64(req_id);
        write_store_shares(w, user, shares, 0)
    })
}

/// [`request_frame`] of a [`Request::PutFile`] straight from the caller's
/// borrowed parts, copying the last batch's share bytes once, like
/// [`store_shares_frame`].
pub(crate) fn put_file_frame(
    req_id: u64,
    user: u64,
    shares: &[(ShareMetadata, Vec<u8>)],
    encoded_pathname: &[u8],
    recipe: &FileRecipe,
    uploaded: &[Fingerprint],
) -> Result<Vec<u8>, FrameError> {
    framed(|w| {
        w.u64(req_id);
        write_put_file(w, user, shares, encoded_pathname, recipe, uploaded)
    })
}

/// One response as a sealed frame, ready for `write_all`.
pub(crate) fn response_frame(req_id: u64, resp: &Response) -> Result<Vec<u8>, FrameError> {
    framed(|w| write_response(w, req_id, resp))
}

/// Encodes one request as `(msg_type, payload)`; the payload leads with the
/// pipelining envelope (`req_id`).
pub fn encode_request(req_id: u64, req: &Request) -> (u8, Vec<u8>) {
    let mut w = WireWriter::new();
    let msg_type = write_request(&mut w, req_id, req);
    (msg_type, w.finish())
}

/// Decodes a request payload; `None` on any malformation (wrong type byte,
/// short payload, trailing garbage).
pub fn decode_request(msg_type: u8, payload: &[u8]) -> Option<(u64, Request)> {
    let mut r = WireReader::new(payload);
    let req_id = r.u64()?;
    let req = match msg_type {
        MT_PING => Request::Ping,
        MT_INTRA_QUERY => Request::IntraUserQuery {
            user: r.u64()?,
            fingerprints: read_fingerprints(&mut r)?,
        },
        MT_STORE_SHARES => {
            let (user, shares) = read_store_shares(&mut r)?;
            Request::StoreShares { user, shares }
        }
        MT_PUT_FILE => {
            let (user, shares) = read_store_shares(&mut r)?;
            Request::PutFile {
                user,
                shares,
                encoded_pathname: r.bytes()?,
                recipe: FileRecipe::from_bytes(&r.bytes()?)?,
                uploaded: read_fingerprints(&mut r)?,
            }
        }
        MT_RELEASE_UPLOADS => Request::ReleaseUploads {
            user: r.u64()?,
            fingerprints: read_fingerprints(&mut r)?,
        },
        MT_GET_RECIPE => Request::GetRecipe {
            user: r.u64()?,
            encoded_pathname: r.bytes()?,
            max_secrets: r.u32()?,
            max_secret_bytes: r.u64()?,
        },
        MT_DELETE_FILE => Request::DeleteFile {
            user: r.u64()?,
            encoded_pathname: r.bytes()?,
        },
        MT_FETCH_SHARES => Request::FetchShares {
            user: r.u64()?,
            fingerprints: read_fingerprints(&mut r)?,
        },
        MT_FLUSH => Request::Flush,
        MT_GC => Request::Gc {
            dead_ratio_bits: r.u64()?,
        },
        MT_PROBE => Request::Probe,
        _ => return None,
    };
    r.is_empty().then_some((req_id, req))
}

fn write_server_stats(w: &mut WireWriter, s: &ServerStats) {
    w.u64(s.received_share_bytes);
    w.u64(s.physical_share_bytes);
    w.u64(s.shares_received);
    w.u64(s.inter_user_duplicates);
    w.u64(s.recipe_bytes);
    w.u64(s.served_share_bytes);
}

fn read_server_stats(r: &mut WireReader<'_>) -> Option<ServerStats> {
    Some(ServerStats {
        received_share_bytes: r.u64()?,
        physical_share_bytes: r.u64()?,
        shares_received: r.u64()?,
        inter_user_duplicates: r.u64()?,
        recipe_bytes: r.u64()?,
        served_share_bytes: r.u64()?,
    })
}

/// Writes envelope and body of one response, returning its message type.
fn write_response(w: &mut WireWriter, req_id: u64, resp: &Response) -> u8 {
    w.u64(req_id);
    match resp {
        Response::Pong { cloud_index } => {
            w.u32(*cloud_index);
            MT_PONG
        }
        Response::Bools(bools) => {
            w.u32(bools.len() as u32);
            for &b in bools {
                w.bool(b);
            }
            MT_BOOLS
        }
        Response::Receipt(receipt) => {
            w.u64(receipt.new_bytes);
            w.u32(receipt.verdicts.len() as u32);
            for v in &receipt.verdicts {
                w.u8(match v {
                    ShareVerdict::Stored => 0,
                    ShareVerdict::DuplicateInterUser => 1,
                    ShareVerdict::DuplicateIntraUser => 2,
                });
            }
            MT_RECEIPT
        }
        Response::Unit => MT_UNIT,
        Response::Bool(b) => {
            w.bool(*b);
            MT_BOOL
        }
        Response::Recipe { recipe, shares } => {
            write_shares_body(w, Some(&recipe.to_bytes()), shares)
        }
        Response::Shares(shares) => write_shares_body(w, None, shares),
        Response::Gc(report) => {
            w.u64(report.containers_deleted);
            w.u64(report.containers_compacted);
            w.u64(report.shares_rewritten);
            w.u64(report.reclaimed_bytes);
            w.u64(report.rewritten_bytes);
            MT_GC_REPORT
        }
        Response::Probe(probe) => {
            write_server_stats(w, &probe.stats);
            w.u64(probe.backend_bytes);
            w.u64(probe.index_bytes);
            w.u64(probe.unique_shares);
            w.u64(probe.live_share_bytes);
            MT_PROBE_REPORT
        }
        Response::Err {
            code,
            needed,
            available,
            msg,
        } => {
            w.u8(*code);
            w.u64(*needed);
            w.u64(*available);
            w.bytes(msg.as_bytes());
            MT_ERR
        }
    }
}

/// Encodes one response as `(msg_type, payload)`, same envelope as requests.
pub fn encode_response(req_id: u64, resp: &Response) -> (u8, Vec<u8>) {
    let mut w = WireWriter::new();
    let msg_type = write_response(&mut w, req_id, resp);
    (msg_type, w.finish())
}

/// Decodes a response payload; `None` on any malformation.
pub fn decode_response(msg_type: u8, payload: &[u8]) -> Option<(u64, Response)> {
    let mut r = WireReader::new(payload);
    let req_id = r.u64()?;
    let resp = match msg_type {
        MT_PONG => Response::Pong {
            cloud_index: r.u32()?,
        },
        MT_BOOLS => Response::Bools(read_vec(&mut r, 1, WireReader::bool)?),
        MT_RECEIPT => Response::Receipt(StoreReceipt {
            new_bytes: r.u64()?,
            verdicts: read_vec(&mut r, 1, |r| match r.u8()? {
                0 => Some(ShareVerdict::Stored),
                1 => Some(ShareVerdict::DuplicateInterUser),
                2 => Some(ShareVerdict::DuplicateIntraUser),
                _ => None,
            })?,
        }),
        MT_UNIT => Response::Unit,
        MT_BOOL => Response::Bool(r.bool()?),
        MT_RECIPE => Response::Recipe {
            recipe: FileRecipe::from_bytes(&r.bytes()?)?,
            shares: read_shares(&mut r)?,
        },
        MT_SHARES => Response::Shares(read_shares(&mut r)?),
        MT_GC_REPORT => Response::Gc(GcReport {
            containers_deleted: r.u64()?,
            containers_compacted: r.u64()?,
            shares_rewritten: r.u64()?,
            reclaimed_bytes: r.u64()?,
            rewritten_bytes: r.u64()?,
        }),
        MT_PROBE_REPORT => Response::Probe(ServerProbe {
            stats: read_server_stats(&mut r)?,
            backend_bytes: r.u64()?,
            index_bytes: r.u64()?,
            unique_shares: r.u64()?,
            live_share_bytes: r.u64()?,
        }),
        MT_ERR => Response::Err {
            code: r.u8()?,
            needed: r.u64()?,
            available: r.u64()?,
            msg: String::from_utf8(r.bytes()?).ok()?,
        },
        _ => return None,
    };
    r.is_empty().then_some((req_id, resp))
}

/// Maps a server-side error into the wire `Err` response.
///
/// The structured variants clients branch on (`NotEnoughClouds`,
/// `FileNotFound`, `MissingShare`, …) survive the crossing exactly; the
/// server-internal ones (`Sharing`, `Storage`) arrive as
/// [`CdStoreError::Remote`] with the rendered message — their payloads are
/// meaningless outside the server process. Code 4 is retired.
pub fn error_to_wire(e: &CdStoreError) -> Response {
    let (code, needed, available, msg) = match e {
        CdStoreError::InvalidConfig(m) => (1, 0, 0, m.clone()),
        CdStoreError::Sharing(inner) => (2, 0, 0, inner.to_string()),
        CdStoreError::Storage(inner) => (3, 0, 0, inner.to_string()),
        CdStoreError::NotEnoughClouds { needed, available } => {
            (5, *needed as u64, *available as u64, String::new())
        }
        CdStoreError::FileNotFound(m) => (6, 0, 0, m.clone()),
        CdStoreError::MissingShare(m) => (7, 0, 0, m.clone()),
        CdStoreError::IntegrityFailure(m) => (8, 0, 0, m.clone()),
        CdStoreError::InconsistentMetadata(m) => (9, 0, 0, m.clone()),
        CdStoreError::Remote(m) => (10, 0, 0, m.clone()),
        // Server-side operations take no Read/Write streams; an Io error
        // crossing the wire is as server-internal as Sharing/Storage above.
        CdStoreError::Io(m) => (11, 0, 0, m.clone()),
    };
    Response::Err {
        code,
        needed,
        available,
        msg,
    }
}

/// Reconstructs the client-side error from a wire `Err` response.
pub fn error_from_wire(code: u8, needed: u64, available: u64, msg: String) -> CdStoreError {
    match code {
        1 => CdStoreError::InvalidConfig(msg),
        5 => CdStoreError::NotEnoughClouds {
            needed: needed as usize,
            available: available as usize,
        },
        6 => CdStoreError::FileNotFound(msg),
        7 => CdStoreError::MissingShare(msg),
        8 => CdStoreError::IntegrityFailure(msg),
        9 => CdStoreError::InconsistentMetadata(msg),
        // 2/3 (sharing/storage internals), 10 (already remote), 11
        // (server-side I/O), and any code the client does not know.
        _ => CdStoreError::Remote(msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let fp = Fingerprint::of(b"share");
        let reqs = vec![
            Request::Ping,
            Request::IntraUserQuery {
                user: 9,
                fingerprints: vec![fp],
            },
            Request::StoreShares {
                user: 9,
                shares: vec![(
                    ShareMetadata {
                        fingerprint: fp,
                        share_size: 5,
                        secret_seq: 3,
                        secret_size: 15,
                    },
                    b"share".to_vec(),
                )],
            },
            Request::PutFile {
                user: 9,
                shares: vec![],
                encoded_pathname: vec![1, 2, 3],
                recipe: FileRecipe {
                    file_size: 15,
                    entries: vec![],
                },
                uploaded: vec![fp],
            },
            Request::GetRecipe {
                user: 9,
                encoded_pathname: vec![4, 5],
                max_secrets: 0,
                max_secret_bytes: 1 << 20,
            },
            Request::FetchShares {
                user: 9,
                fingerprints: vec![fp, fp],
            },
            Request::Gc {
                dead_ratio_bits: 0.5f64.to_bits(),
            },
            Request::Probe,
        ];
        for req in reqs {
            let (mt, payload) = encode_request(77, &req);
            let (req_id, back) = decode_request(mt, &payload).unwrap();
            assert_eq!(req_id, 77);
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Pong { cloud_index: 2 },
            Response::Bools(vec![true, false, true]),
            Response::Receipt(StoreReceipt {
                new_bytes: 99,
                verdicts: vec![
                    ShareVerdict::Stored,
                    ShareVerdict::DuplicateInterUser,
                    ShareVerdict::DuplicateIntraUser,
                ],
            }),
            Response::Unit,
            Response::Bool(true),
            Response::Recipe {
                recipe: FileRecipe {
                    file_size: 3,
                    entries: vec![],
                },
                shares: vec![b"abc".to_vec()],
            },
            Response::Shares(vec![b"one".to_vec(), b"two".to_vec()]),
            Response::Gc(GcReport {
                containers_deleted: 1,
                containers_compacted: 2,
                shares_rewritten: 3,
                reclaimed_bytes: 4,
                rewritten_bytes: 5,
            }),
            Response::Probe(ServerProbe::default()),
            error_to_wire(&CdStoreError::FileNotFound("/x".into())),
        ];
        for resp in resps {
            let (mt, payload) = encode_response(5, &resp);
            let (req_id, back) = decode_response(mt, &payload).unwrap();
            assert_eq!(req_id, 5);
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn structured_errors_survive_the_wire() {
        let e = CdStoreError::NotEnoughClouds {
            needed: 3,
            available: 1,
        };
        if let Response::Err {
            code,
            needed,
            available,
            msg,
        } = error_to_wire(&e)
        {
            let back = error_from_wire(code, needed, available, msg);
            assert!(matches!(
                back,
                CdStoreError::NotEnoughClouds {
                    needed: 3,
                    available: 1
                }
            ));
        } else {
            panic!("expected Err response");
        }
        let e = CdStoreError::Storage(cdstore_storage::StorageError::NotFound("c1".into()));
        if let Response::Err { code, msg, .. } = error_to_wire(&e) {
            assert!(matches!(
                error_from_wire(code, 0, 0, msg),
                CdStoreError::Remote(_)
            ));
        } else {
            panic!("expected Err response");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (mt, mut payload) = encode_request(1, &Request::Ping);
        payload.push(0);
        assert!(decode_request(mt, &payload).is_none());
        assert!(decode_request(0x7f, &[0; 8]).is_none(), "unknown msg type");
    }
}
