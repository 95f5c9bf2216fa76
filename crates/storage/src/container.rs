//! The container format: 4 MB units of shares or file recipes.
//!
//! "The container module maintains two types of containers in the storage
//! backend: share containers, which hold the globally unique shares, and
//! recipe containers, which hold the file recipes of different files. We cap
//! the container size at 4MB, except that if a file recipe is very large ...
//! we keep the file recipe in a single container and allow the container to
//! go beyond 4MB." (§4.5)
//!
//! Containers are organised per user so each container contains only the
//! data of a single user, retaining the spatial locality of backup streams.

use cdstore_crypto::Fingerprint;

/// Cap on the size of a sealed container's payload in bytes (4 MB).
pub const CONTAINER_CAPACITY: usize = 4 * 1024 * 1024;

/// What a container holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContainerKind {
    /// Globally unique shares after inter-user deduplication.
    Share,
    /// File recipes (per-file lists of share fingerprints and secret sizes).
    Recipe,
}

/// One entry inside a container: a share or recipe blob and its identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContainerEntry {
    /// Fingerprint identifying the blob (share fingerprint, or the file-key
    /// hash for recipes).
    pub fingerprint: Fingerprint,
    /// Offset of the blob within the container payload.
    pub offset: u32,
    /// Length of the blob in bytes.
    pub length: u32,
}

/// A sealed (immutable) container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Container {
    /// Unique container identifier (assigned by the container store).
    pub id: u64,
    /// Owning user: containers are single-user to preserve locality (§4.5).
    pub user: u64,
    /// Whether this is a share container or a recipe container.
    pub kind: ContainerKind,
    /// Index of contained blobs.
    pub entries: Vec<ContainerEntry>,
    /// Concatenated blob payload.
    pub payload: Vec<u8>,
}

impl Container {
    /// Total payload size in bytes.
    pub fn payload_size(&self) -> usize {
        self.payload.len()
    }

    /// Number of blobs in the container.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Returns the blob with the given fingerprint, if present.
    pub fn get(&self, fingerprint: &Fingerprint) -> Option<&[u8]> {
        self.entries
            .iter()
            .find(|e| &e.fingerprint == fingerprint)
            .map(|e| &self.payload[e.offset as usize..(e.offset + e.length) as usize])
    }

    /// Returns the blob at a known offset/length (avoids the entry scan when
    /// the caller has a [`crate::store::ShareLocation`]).
    pub fn get_at(&self, offset: u32, length: u32) -> Option<&[u8]> {
        let end = offset.checked_add(length)? as usize;
        self.payload.get(offset as usize..end)
    }

    /// The serialised prefix of the container object: magic, identity, the
    /// entry table, and the payload length — everything
    /// [`Container::to_bytes`] writes before the payload itself. The store
    /// seals with `put_parts(key, [header, payload])`, so the 4 MB payload
    /// is never copied into a second buffer.
    pub fn header_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(33 + self.entries.len() * 40);
        out.extend_from_slice(b"CDCT");
        out.extend_from_slice(&self.id.to_be_bytes());
        out.extend_from_slice(&self.user.to_be_bytes());
        out.push(match self.kind {
            ContainerKind::Share => 0,
            ContainerKind::Recipe => 1,
        });
        out.extend_from_slice(&(self.entries.len() as u32).to_be_bytes());
        for entry in &self.entries {
            out.extend_from_slice(entry.fingerprint.as_bytes());
            out.extend_from_slice(&entry.offset.to_be_bytes());
            out.extend_from_slice(&entry.length.to_be_bytes());
        }
        out.extend_from_slice(&(self.payload.len() as u64).to_be_bytes());
        out
    }

    /// Serialises the container to a flat byte buffer (the object written to
    /// the cloud backend): [`Container::header_bytes`] followed by the
    /// payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        [self.header_bytes().as_slice(), &self.payload].concat()
    }

    /// Reopens the sealed container as a builder with identical id, user,
    /// entries, and payload — the inverse of [`ContainerBuilder::seal`].
    /// Used to restore an open buffer after a failed backend write.
    pub fn reopen(self) -> ContainerBuilder {
        ContainerBuilder {
            id: self.id,
            user: self.user,
            kind: self.kind,
            entries: self.entries,
            payload: self.payload,
        }
    }

    /// Parses a container serialised by [`Container::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Container> {
        if bytes.len() < 25 || &bytes[..4] != b"CDCT" {
            return None;
        }
        let id = u64::from_be_bytes(bytes[4..12].try_into().ok()?);
        let user = u64::from_be_bytes(bytes[12..20].try_into().ok()?);
        let kind = match bytes[20] {
            0 => ContainerKind::Share,
            1 => ContainerKind::Recipe,
            _ => return None,
        };
        let entry_count = u32::from_be_bytes(bytes[21..25].try_into().ok()?) as usize;
        // A count the input cannot hold is corrupt, not an allocation size.
        if entry_count > (bytes.len() - 25) / 40 {
            return None;
        }
        let mut offset = 25usize;
        let mut entries = Vec::with_capacity(entry_count);
        for _ in 0..entry_count {
            if bytes.len() < offset + 40 {
                return None;
            }
            let fp_bytes: [u8; 32] = bytes[offset..offset + 32].try_into().ok()?;
            let entry_offset = u32::from_be_bytes(bytes[offset + 32..offset + 36].try_into().ok()?);
            let length = u32::from_be_bytes(bytes[offset + 36..offset + 40].try_into().ok()?);
            entries.push(ContainerEntry {
                fingerprint: Fingerprint::from_bytes(fp_bytes),
                offset: entry_offset,
                length,
            });
            offset += 40;
        }
        if bytes.len() < offset + 8 {
            return None;
        }
        let payload_len = u64::from_be_bytes(bytes[offset..offset + 8].try_into().ok()?);
        offset += 8;
        if (bytes.len() - offset) as u64 != payload_len {
            return None;
        }
        let payload = bytes[offset..].to_vec();
        // Sanity-check the entry ranges.
        for entry in &entries {
            if (entry.offset as usize) + (entry.length as usize) > payload.len() {
                return None;
            }
        }
        Some(Container {
            id,
            user,
            kind,
            entries,
            payload,
        })
    }
}

/// An open (mutable) container accumulating blobs until it reaches capacity.
#[derive(Debug, Clone)]
pub struct ContainerBuilder {
    id: u64,
    user: u64,
    kind: ContainerKind,
    entries: Vec<ContainerEntry>,
    payload: Vec<u8>,
}

impl ContainerBuilder {
    /// Starts a new open container.
    pub fn new(id: u64, user: u64, kind: ContainerKind) -> Self {
        ContainerBuilder {
            id,
            user,
            kind,
            entries: Vec::new(),
            payload: Vec::new(),
        }
    }

    /// Identifier that the sealed container will carry.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Returns the blob at a known offset/length from the live payload —
    /// the open-buffer counterpart of [`Container::get_at`], so readers can
    /// serve a single share without cloning the whole builder.
    pub fn get_at(&self, offset: u32, length: u32) -> Option<&[u8]> {
        let end = offset.checked_add(length)? as usize;
        self.payload.get(offset as usize..end)
    }

    /// Current payload size.
    pub fn payload_size(&self) -> usize {
        self.payload.len()
    }

    /// Whether the container has no blobs yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether adding `len` more bytes would exceed the 4 MB cap.
    ///
    /// An empty container always accepts a blob, even one larger than the
    /// cap — this mirrors the paper's rule of keeping an oversized file
    /// recipe in a single container.
    pub fn would_overflow(&self, len: usize) -> bool {
        !self.is_empty() && self.payload.len() + len > CONTAINER_CAPACITY
    }

    /// Appends a blob, returning its offset within the container.
    ///
    /// # Panics
    ///
    /// Panics if the blob would overflow the container (callers must check
    /// [`ContainerBuilder::would_overflow`] first and seal the container).
    pub fn append(&mut self, fingerprint: Fingerprint, data: &[u8]) -> u32 {
        assert!(
            !self.would_overflow(data.len()),
            "blob of {} bytes overflows the open container",
            data.len()
        );
        let offset = self.payload.len() as u32;
        // A share container that has reached a quarter of the cap is being
        // filled by a stream: reserve the rest once instead of doubling
        // there (re-copying the payload and faulting in twice the pages).
        // Below that it grows as it goes, so the many containers a flush
        // seals early never hold a cap's worth of memory.
        let needed = self.payload.len() + data.len();
        if self.kind == ContainerKind::Share
            && needed > self.payload.capacity()
            && self.payload.len() >= CONTAINER_CAPACITY / 4
        {
            self.payload
                .reserve_exact(CONTAINER_CAPACITY.max(needed) - self.payload.len());
        }
        self.payload.extend_from_slice(data);
        self.entries.push(ContainerEntry {
            fingerprint,
            offset,
            length: data.len() as u32,
        });
        offset
    }

    /// Seals the container, making it immutable.
    pub fn seal(self) -> Container {
        Container {
            id: self.id,
            user: self.user,
            kind: self.kind,
            entries: self.entries,
            payload: self.payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fp(i: u32) -> Fingerprint {
        Fingerprint::of(&i.to_be_bytes())
    }

    #[test]
    fn builder_appends_and_seals() {
        let mut builder = ContainerBuilder::new(1, 42, ContainerKind::Share);
        assert!(builder.is_empty());
        let off_a = builder.append(fp(1), b"first share");
        let off_b = builder.append(fp(2), b"second");
        assert_eq!(off_a, 0);
        assert_eq!(off_b, 11);
        let container = builder.seal();
        assert_eq!(container.entry_count(), 2);
        assert_eq!(container.get(&fp(1)), Some(b"first share".as_slice()));
        assert_eq!(container.get(&fp(2)), Some(b"second".as_slice()));
        assert_eq!(container.get(&fp(3)), None);
        assert_eq!(container.get_at(11, 6), Some(b"second".as_slice()));
        assert_eq!(container.get_at(11, 600), None);
    }

    #[test]
    fn overflow_detection_honours_the_cap() {
        let mut builder = ContainerBuilder::new(1, 1, ContainerKind::Share);
        assert!(
            !builder.would_overflow(CONTAINER_CAPACITY + 1),
            "empty container accepts oversized blobs"
        );
        builder.append(fp(0), &vec![0u8; CONTAINER_CAPACITY - 100]);
        assert!(!builder.would_overflow(100));
        assert!(builder.would_overflow(101));
    }

    #[test]
    fn a_share_container_reserves_the_rest_of_its_cap_once() {
        let share = vec![0x5a; 3 * 1024];
        let mut builder = ContainerBuilder::new(1, 1, ContainerKind::Share);
        let mut i = 0;
        while builder.payload_size() < CONTAINER_CAPACITY / 4 {
            builder.append(fp(i), &share);
            i += 1;
        }
        // Past a quarter of the cap, the next growth reserves the rest.
        while builder.payload.capacity() < CONTAINER_CAPACITY {
            builder.append(fp(i), &share);
            i += 1;
        }
        assert_eq!(builder.payload.capacity(), CONTAINER_CAPACITY);
        let payload = builder.payload.as_ptr();
        while !builder.would_overflow(share.len()) {
            builder.append(fp(i), &share);
            i += 1;
        }
        let rest = CONTAINER_CAPACITY - builder.payload_size();
        builder.append(fp(i), &vec![0xa5; rest]);
        assert_eq!(builder.payload_size(), CONTAINER_CAPACITY);
        assert_eq!(builder.payload.as_ptr(), payload, "the payload moved");
        assert_eq!(builder.payload.capacity(), CONTAINER_CAPACITY);

        // A container sealed early holds what it grew to.
        for kind in [ContainerKind::Share, ContainerKind::Recipe] {
            let mut small = ContainerBuilder::new(2, 1, kind);
            small.append(fp(0), &share);
            assert!(small.payload.capacity() < CONTAINER_CAPACITY / 4);
        }
    }

    #[test]
    #[should_panic(expected = "overflows the open container")]
    fn append_past_capacity_panics() {
        let mut builder = ContainerBuilder::new(1, 1, ContainerKind::Share);
        builder.append(fp(0), &vec![0u8; CONTAINER_CAPACITY]);
        builder.append(fp(1), &[0u8; 1]);
    }

    #[test]
    fn oversized_recipe_is_allowed_in_an_empty_container() {
        let mut builder = ContainerBuilder::new(9, 1, ContainerKind::Recipe);
        let big = vec![7u8; CONTAINER_CAPACITY + 4096];
        builder.append(fp(1), &big);
        let container = builder.seal();
        assert_eq!(container.payload_size(), big.len());
        assert_eq!(container.get(&fp(1)).unwrap(), big.as_slice());
    }

    #[test]
    fn reopen_restores_an_appendable_builder() {
        let mut builder = ContainerBuilder::new(7, 3, ContainerKind::Share);
        builder.append(fp(1), b"first");
        let sealed = builder.seal();
        let mut reopened = sealed.clone().reopen();
        assert_eq!(reopened.id(), 7);
        assert_eq!(reopened.payload_size(), sealed.payload_size());
        reopened.append(fp(2), b"second");
        let resealed = reopened.seal();
        assert_eq!(resealed.get(&fp(1)), Some(b"first".as_slice()));
        assert_eq!(resealed.get(&fp(2)), Some(b"second".as_slice()));
    }

    #[test]
    fn serialisation_round_trips() {
        let mut builder = ContainerBuilder::new(0xabcdef, 7, ContainerKind::Recipe);
        builder.append(fp(10), b"recipe one");
        builder.append(fp(11), b"recipe two, a bit longer");
        let container = builder.seal();
        let bytes = container.to_bytes();
        assert_eq!(Container::from_bytes(&bytes), Some(container));
    }

    #[test]
    fn malformed_bytes_are_rejected() {
        assert_eq!(Container::from_bytes(b""), None);
        assert_eq!(Container::from_bytes(b"XXXX123456789012345678901"), None);
        // Corrupt a valid container's magic.
        let mut builder = ContainerBuilder::new(1, 1, ContainerKind::Share);
        builder.append(fp(1), b"data");
        let mut bytes = builder.seal().to_bytes();
        bytes[0] = b'X';
        assert_eq!(Container::from_bytes(&bytes), None);
        // Truncation is rejected.
        let mut builder = ContainerBuilder::new(1, 1, ContainerKind::Share);
        builder.append(fp(1), b"data");
        let bytes = builder.seal().to_bytes();
        assert_eq!(Container::from_bytes(&bytes[..bytes.len() - 1]), None);
    }

    #[test]
    fn hostile_header_counts_are_rejected() {
        // An entry count of u32::MAX once allocated 160 GiB up front and
        // aborted; a payload length of u64::MAX once overflowed an add.
        for (entry_count, payload_len) in [(u32::MAX, 0), (0, u64::MAX)] {
            let mut bytes = b"CDCT".to_vec();
            bytes.extend_from_slice(&[0; 17]);
            bytes.extend_from_slice(&entry_count.to_be_bytes());
            bytes.extend_from_slice(&payload_len.to_be_bytes());
            assert_eq!(Container::from_bytes(&bytes), None);
        }
    }

    /// Hostile-input cases: a quick pass under `cargo test`, thousands in
    /// release builds.
    const HOSTILE_CASES: u32 = if cfg!(debug_assertions) { 64 } else { 4096 };

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(HOSTILE_CASES))]

        // Behind a valid magic and kind, so the decoder reads every field.
        #[test]
        fn arbitrary_bytes_decode_to_none_or_their_own_bytes(
            body in proptest::collection::vec(any::<u8>(), 0..400),
        ) {
            let mut bytes = b"CDCT".to_vec();
            bytes.extend_from_slice(&body);
            if bytes.len() > 20 {
                bytes[20] %= 2;
            }
            if let Some(container) = Container::from_bytes(&bytes) {
                prop_assert_eq!(container.to_bytes(), bytes);
            }
        }

        // No checksum covers a container, so a flipped id, fingerprint or
        // payload byte still decodes — but only to exactly the bytes read.
        #[test]
        fn one_mutated_byte_decodes_to_none_or_its_own_bytes(
            blobs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..6),
            at in any::<u32>(),
            value in any::<u8>(),
        ) {
            let mut builder = ContainerBuilder::new(5, 3, ContainerKind::Share);
            for (i, blob) in blobs.iter().enumerate() {
                builder.append(fp(i as u32), blob);
            }
            let container = builder.seal();
            let mut bytes = container.to_bytes();
            let at = at as usize % bytes.len();
            let unchanged = bytes[at] == value;
            bytes[at] = value;
            match Container::from_bytes(&bytes) {
                Some(decoded) if unchanged => prop_assert_eq!(decoded, container),
                Some(decoded) => prop_assert_eq!(decoded.to_bytes(), bytes),
                None => prop_assert!(!unchanged),
            }
        }
    }

    proptest! {
        #[test]
        fn round_trips_for_arbitrary_blobs(blobs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 0..20)) {
            let mut builder = ContainerBuilder::new(5, 3, ContainerKind::Share);
            for (i, blob) in blobs.iter().enumerate() {
                builder.append(fp(i as u32), blob);
            }
            let container = builder.seal();
            let decoded = Container::from_bytes(&container.to_bytes()).unwrap();
            prop_assert_eq!(&decoded, &container);
            for (i, blob) in blobs.iter().enumerate() {
                prop_assert_eq!(decoded.get(&fp(i as u32)).unwrap(), blob.as_slice());
            }
        }
    }
}
