//! Storage backend abstraction: where sealed containers are persisted.
//!
//! In a real deployment each CDStore server writes containers to its cloud's
//! object store (S3, Azure Blob, ...) through the internal network. The
//! simulation uses [`MemoryBackend`] (fast, for tests and benchmarks) or
//! [`DirBackend`] (a directory on local disk, mirroring the LAN testbed's
//! SATA-disk backend in §5.1).

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Errors returned by storage backends.
#[derive(Debug)]
pub enum StorageError {
    /// The requested object does not exist.
    NotFound(String),
    /// An underlying I/O error.
    Io(std::io::Error),
    /// The object exists but its content is not a valid container.
    Corrupt(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound(key) => write!(f, "object not found: {key}"),
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
            StorageError::Corrupt(key) => write!(f, "corrupt object: {key}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// A flat object store keyed by string names.
pub trait StorageBackend: Send + Sync {
    /// Writes (or overwrites) an object.
    fn put(&self, key: &str, data: &[u8]) -> Result<(), StorageError>;

    /// Writes (or overwrites) an object whose bytes are the concatenation of
    /// `parts`, in order. The contract is exactly `put(key, parts.concat())`
    /// — same atomicity, same durability, same resulting object — which is
    /// also what this default does; backends that can write the parts
    /// straight to their destination override it to skip the intermediate
    /// buffer (a sealed container is a small header plus a 4 MB payload that
    /// already sits in memory).
    fn put_parts(&self, key: &str, parts: &[&[u8]]) -> Result<(), StorageError> {
        self.put(key, &parts.concat())
    }

    /// Reads an object.
    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError>;

    /// Deletes an object (no error if absent).
    fn delete(&self, key: &str) -> Result<(), StorageError>;

    /// Whether an object exists.
    fn exists(&self, key: &str) -> Result<bool, StorageError>;

    /// Lists all object keys (sorted).
    fn list(&self) -> Result<Vec<String>, StorageError>;

    /// Appends bytes to an object, creating it if absent. The durability
    /// primitive behind the metadata journal ([`crate::journal`]): backends
    /// with a native append (local files, in-memory buffers) override this;
    /// pure put/get object stores fall back to read-modify-write.
    fn append(&self, key: &str, data: &[u8]) -> Result<(), StorageError> {
        let mut existing = match self.get(key) {
            Ok(bytes) => bytes,
            Err(StorageError::NotFound(_)) => Vec::new(),
            Err(e) => return Err(e),
        };
        existing.extend_from_slice(data);
        self.put(key, &existing)
    }

    /// Size of one object in bytes.
    fn object_size(&self, key: &str) -> Result<u64, StorageError> {
        Ok(self.get(key)?.len() as u64)
    }

    /// Reads `len` bytes starting at `offset` within an object — the random
    /// read primitive behind the disk-resident index's block fetches. The
    /// default reads the whole object and slices; backends with positioned
    /// reads (local files, in-memory buffers) override it. A range reaching
    /// past the end of the object is a [`StorageError::Corrupt`] error, not
    /// a short read: callers always know the exact extent they framed.
    fn read_range(&self, key: &str, offset: u64, len: usize) -> Result<Vec<u8>, StorageError> {
        let data = self.get(key)?;
        range_of(&data, key, offset, len)
    }

    /// Total bytes stored across all objects.
    fn total_bytes(&self) -> Result<u64, StorageError> {
        let mut total = 0u64;
        for key in self.list()? {
            total += self.object_size(&key)?;
        }
        Ok(total)
    }
}

/// Slices `data[offset..offset + len]`, mapping out-of-bounds ranges to
/// [`StorageError::Corrupt`].
fn range_of(data: &[u8], key: &str, offset: u64, len: usize) -> Result<Vec<u8>, StorageError> {
    let start = usize::try_from(offset).map_err(|_| StorageError::Corrupt(key.to_string()))?;
    let end = start
        .checked_add(len)
        .ok_or_else(|| StorageError::Corrupt(key.to_string()))?;
    data.get(start..end)
        .map(|s| s.to_vec())
        .ok_or_else(|| StorageError::Corrupt(key.to_string()))
}

/// An in-memory backend for tests and benchmarks.
#[derive(Default)]
pub struct MemoryBackend {
    objects: RwLock<BTreeMap<String, Vec<u8>>>,
}

impl MemoryBackend {
    /// Creates an empty in-memory backend.
    pub fn new() -> Self {
        Self::default()
    }

    fn objects(&self) -> RwLockReadGuard<'_, BTreeMap<String, Vec<u8>>> {
        self.objects.read().expect("memory backend lock")
    }

    fn objects_mut(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Vec<u8>>> {
        self.objects.write().expect("memory backend lock")
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.objects().len()
    }

    /// Corrupts an object by flipping a byte (failure-injection helper for
    /// integrity tests).
    pub fn corrupt(&self, key: &str, byte_index: usize) -> Result<(), StorageError> {
        let mut objects = self.objects_mut();
        let data = objects
            .get_mut(key)
            .ok_or_else(|| StorageError::NotFound(key.to_string()))?;
        if let Some(b) = data.get_mut(byte_index) {
            *b ^= 0xff;
        }
        Ok(())
    }
}

impl StorageBackend for MemoryBackend {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), StorageError> {
        self.objects_mut().insert(key.to_string(), data.to_vec());
        Ok(())
    }

    fn put_parts(&self, key: &str, parts: &[&[u8]]) -> Result<(), StorageError> {
        // `concat` sizes the one allocation exactly; it becomes the object.
        self.objects_mut().insert(key.to_string(), parts.concat());
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        self.objects()
            .get(key)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(key.to_string()))
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.objects_mut().remove(key);
        Ok(())
    }

    fn exists(&self, key: &str) -> Result<bool, StorageError> {
        Ok(self.objects().contains_key(key))
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        Ok(self.objects().keys().cloned().collect())
    }

    fn append(&self, key: &str, data: &[u8]) -> Result<(), StorageError> {
        self.objects_mut()
            .entry(key.to_string())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn object_size(&self, key: &str) -> Result<u64, StorageError> {
        self.objects()
            .get(key)
            .map(|v| v.len() as u64)
            .ok_or_else(|| StorageError::NotFound(key.to_string()))
    }

    fn read_range(&self, key: &str, offset: u64, len: usize) -> Result<Vec<u8>, StorageError> {
        let objects = self.objects();
        let data = objects
            .get(key)
            .ok_or_else(|| StorageError::NotFound(key.to_string()))?;
        range_of(data, key, offset, len)
    }

    fn total_bytes(&self) -> Result<u64, StorageError> {
        Ok(self.objects().values().map(|v| v.len() as u64).sum())
    }
}

/// A backend storing each object as a file in a directory.
pub struct DirBackend {
    root: PathBuf,
}

impl DirBackend {
    /// Creates (if needed) and opens a directory-backed store.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self, StorageError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(DirBackend { root })
    }

    fn path_for(&self, key: &str) -> PathBuf {
        // Keys are sanitised to a flat, filesystem-safe name.
        let safe: String = key
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        self.root.join(safe)
    }

    /// Best-effort fsync of the backing directory, making renames and file
    /// creations durable against a host crash. Errors are swallowed: some
    /// filesystems (and platforms) reject directory fsync, and the data
    /// itself was already synced.
    fn sync_root(&self) {
        if let Ok(dir) = fs::File::open(&self.root) {
            let _ = dir.sync_all();
        }
    }
}

impl StorageBackend for DirBackend {
    fn put(&self, key: &str, data: &[u8]) -> Result<(), StorageError> {
        self.put_parts(key, &[data])
    }

    fn put_parts(&self, key: &str, parts: &[&[u8]]) -> Result<(), StorageError> {
        let path = self.path_for(key);
        let tmp = path.with_extension("tmp");
        {
            let mut file = fs::File::create(&tmp)?;
            for part in parts {
                file.write_all(part)?;
            }
            // The temp file's content must be on disk *before* the rename:
            // otherwise a crash can leave the final name pointing at an
            // empty (or partial) container even though the rename itself
            // was atomic.
            file.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        // ...and the rename must be durable too, which requires syncing the
        // parent directory's entries.
        self.sync_root();
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        let path = self.path_for(key);
        let mut file =
            fs::File::open(&path).map_err(|_| StorageError::NotFound(key.to_string()))?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        Ok(data)
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        let path = self.path_for(key);
        match fs::remove_file(path) {
            Ok(()) => {
                self.sync_root();
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn append(&self, key: &str, data: &[u8]) -> Result<(), StorageError> {
        let path = self.path_for(key);
        let created = !path.exists();
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(data)?;
        // Journal appends are write-ahead durability points: fsync every
        // append so a crash can tear at most the final record, never
        // reorder them.
        file.sync_all()?;
        if created {
            self.sync_root();
        }
        Ok(())
    }

    fn object_size(&self, key: &str) -> Result<u64, StorageError> {
        let path = self.path_for(key);
        match fs::metadata(&path) {
            Ok(meta) => Ok(meta.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StorageError::NotFound(key.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn read_range(&self, key: &str, offset: u64, len: usize) -> Result<Vec<u8>, StorageError> {
        use std::io::{Seek, SeekFrom};
        let path = self.path_for(key);
        let mut file =
            fs::File::open(&path).map_err(|_| StorageError::NotFound(key.to_string()))?;
        file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        file.read_exact(&mut buf)
            .map_err(|_| StorageError::Corrupt(key.to_string()))?;
        Ok(buf)
    }

    fn exists(&self, key: &str) -> Result<bool, StorageError> {
        Ok(self.path_for(key).exists())
    }

    fn list(&self) -> Result<Vec<String>, StorageError> {
        let mut keys = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry
                .path()
                .extension()
                .map(|e| e == "tmp")
                .unwrap_or(false)
            {
                continue;
            }
            if let Some(name) = entry.file_name().to_str() {
                keys.push(name.to_string());
            }
        }
        keys.sort();
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_backend(backend: &dyn StorageBackend) {
        assert!(!backend.exists("a").unwrap());
        backend.put("a", b"alpha").unwrap();
        backend.put("b", b"beta").unwrap();
        assert!(backend.exists("a").unwrap());
        assert_eq!(backend.get("a").unwrap(), b"alpha");
        assert_eq!(
            backend.list().unwrap(),
            vec!["a".to_string(), "b".to_string()]
        );
        assert_eq!(backend.total_bytes().unwrap(), 9);
        backend.put("a", b"alpha2").unwrap();
        assert_eq!(backend.get("a").unwrap(), b"alpha2");
        backend.delete("a").unwrap();
        assert!(!backend.exists("a").unwrap());
        assert!(matches!(backend.get("a"), Err(StorageError::NotFound(_))));
        backend.delete("never-existed").unwrap();
        // `put_parts` is `put` of the concatenation, overwriting included.
        backend.put("parts", b"overwritten").unwrap();
        backend.put_parts("parts", &[b"he", b"", b"llo"]).unwrap();
        assert_eq!(backend.get("parts").unwrap(), b"hello");
        assert_eq!(backend.object_size("parts").unwrap(), 5);
        backend.delete("parts").unwrap();
    }

    #[test]
    fn memory_backend_semantics() {
        let backend = MemoryBackend::new();
        exercise_backend(&backend);
        assert_eq!(backend.object_count(), 1);
    }

    #[test]
    fn dir_backend_semantics() {
        let dir = std::env::temp_dir().join(format!("cdstore-backend-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let backend = DirBackend::new(&dir).unwrap();
        exercise_backend(&backend);
        // Data survives re-opening the directory.
        let reopened = DirBackend::new(&dir).unwrap();
        assert_eq!(reopened.get("b").unwrap(), b"beta");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dir_backend_sanitises_keys() {
        let dir =
            std::env::temp_dir().join(format!("cdstore-backend-sanitise-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let backend = DirBackend::new(&dir).unwrap();
        backend.put("shares/container:1", b"x").unwrap();
        assert_eq!(backend.get("shares/container:1").unwrap(), b"x");
        let _ = fs::remove_dir_all(&dir);
    }

    fn exercise_append(backend: &dyn StorageBackend) {
        // Appending to a missing object creates it.
        backend.append("log", b"one").unwrap();
        backend.append("log", b"-two").unwrap();
        assert_eq!(backend.get("log").unwrap(), b"one-two");
        assert_eq!(backend.object_size("log").unwrap(), 7);
        // Appending to an object written with put extends it.
        backend.put("log", b"reset").unwrap();
        backend.append("log", b"!").unwrap();
        assert_eq!(backend.get("log").unwrap(), b"reset!");
        assert!(matches!(
            backend.object_size("missing"),
            Err(StorageError::NotFound(_))
        ));
    }

    fn exercise_read_range(backend: &dyn StorageBackend) {
        backend.put("obj", b"0123456789").unwrap();
        assert_eq!(backend.read_range("obj", 0, 4).unwrap(), b"0123");
        assert_eq!(backend.read_range("obj", 6, 4).unwrap(), b"6789");
        assert_eq!(backend.read_range("obj", 3, 0).unwrap(), b"");
        // Ranges past the end are corruption, not short reads.
        assert!(matches!(
            backend.read_range("obj", 8, 4),
            Err(StorageError::Corrupt(_))
        ));
        assert!(matches!(
            backend.read_range("obj", 11, 1),
            Err(StorageError::Corrupt(_))
        ));
        assert!(matches!(
            backend.read_range("missing", 0, 1),
            Err(StorageError::NotFound(_))
        ));
    }

    #[test]
    fn memory_backend_read_range_semantics() {
        exercise_read_range(&MemoryBackend::new());
    }

    #[test]
    fn dir_backend_read_range_semantics() {
        let dir =
            std::env::temp_dir().join(format!("cdstore-backend-range-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let backend = DirBackend::new(&dir).unwrap();
        exercise_read_range(&backend);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_backend_append_semantics() {
        exercise_append(&MemoryBackend::new());
    }

    #[test]
    fn dir_backend_append_semantics() {
        let dir =
            std::env::temp_dir().join(format!("cdstore-backend-append-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let backend = DirBackend::new(&dir).unwrap();
        exercise_append(&backend);
        // Appended data survives re-opening the directory.
        let reopened = DirBackend::new(&dir).unwrap();
        assert_eq!(reopened.get("log").unwrap(), b"reset!");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_backend_corruption_helper() {
        let backend = MemoryBackend::new();
        backend.put("c", &[1, 2, 3]).unwrap();
        backend.corrupt("c", 1).unwrap();
        assert_eq!(backend.get("c").unwrap(), vec![1, 2 ^ 0xff, 3]);
        assert!(matches!(
            backend.corrupt("missing", 0),
            Err(StorageError::NotFound(_))
        ));
    }
}
