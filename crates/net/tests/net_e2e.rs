//! Process-per-node end-to-end test: four real `cdstore-serve` processes on
//! loopback ports, driven by [`cdstore_net::NetClient`] through the generic
//! [`cdstore_core::CdStore`] façade.
//!
//! This is the deployment shape of the paper — clients and servers in
//! different processes, every byte crossing a socket — and it asserts the
//! tentpole acceptance criteria: multi-user backup/restore/delete/gc over
//! the wire, byte-exact restores identical to the in-process path, intact
//! dedup counters, k-of-n restores surviving the kill of one server
//! process mid-churn, and a graceful stop that loses nothing.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use cdstore_core::{CdStore, CdStoreConfig, CdStoreError};
use cdstore_net::{NetClientConfig, RemoteServer};

/// One spawned `cdstore-serve` child and its parsed listen address.
struct ServeProc {
    child: Child,
    addr: String,
}

impl ServeProc {
    fn spawn(cloud: usize) -> ServeProc {
        Self::spawn_in(cloud, None)
    }

    /// A server over `dir` (durable), or over memory.
    fn spawn_in(cloud: usize, dir: Option<&Path>) -> ServeProc {
        let mut command = Command::new(env!("CARGO_BIN_EXE_cdstore-serve"));
        command.args(["--cloud", &cloud.to_string(), "--addr", "127.0.0.1:0"]);
        if let Some(dir) = dir {
            command.arg("--dir").arg(dir);
        }
        let mut child = command
            .stdin(Stdio::piped()) // held open; EOF would stop the server
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn cdstore-serve");
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read LISTENING line");
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
            .to_string();
        ServeProc { child, addr }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// The graceful stop: close the child's stdin and wait for it to exit.
    fn stop(mut self) {
        drop(self.child.stdin.take());
        let status = self.child.wait().expect("wait for cdstore-serve");
        assert!(status.success(), "cdstore-serve exited with {status}");
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Client config tuned for the test: fail fast when a server is dead.
fn client_config() -> NetClientConfig {
    NetClientConfig {
        request_timeout: Duration::from_secs(10),
        connect_timeout: Duration::from_secs(2),
        ..NetClientConfig::default()
    }
}

fn connect_store(procs: &[ServeProc]) -> CdStore<RemoteServer> {
    let transports: Vec<RemoteServer> = procs
        .iter()
        .map(|p| RemoteServer::connect(p.addr.as_str(), client_config()).expect("connect"))
        .collect();
    CdStore::from_transports(CdStoreConfig::new(4, 3).unwrap(), transports).unwrap()
}

/// Position-dependent low-entropy data: stable chunk boundaries, honest
/// dedup behaviour — the same generator the in-process tests use, so the
/// cross-check against `CdStore::new` compares identical workloads.
fn sample(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| ((i / 700) as u8).wrapping_mul(17).wrapping_add(seed))
        .collect()
}

fn file_size() -> usize {
    // Debug builds run this in CI's test sweep too; keep them brisk.
    if cfg!(debug_assertions) {
        96_000
    } else {
        400_000
    }
}

#[test]
fn four_processes_full_lifecycle_and_kill_one() {
    let procs: Vec<ServeProc> = (0..4).map(ServeProc::spawn).collect();
    let store = connect_store(&procs);

    // --- Multi-user backup / restore, byte-exact, dedup intact. -----------
    let alice_data = sample(file_size(), 3);
    let bob_data = alice_data.clone(); // cross-user duplicate content
    let carol_data = sample(file_size() / 2, 9);

    let a = store.backup(1, "/alice/docs.tar", &alice_data).unwrap();
    let b = store.backup(2, "/bob/docs.tar", &bob_data).unwrap();
    store.backup(3, "/carol/photos.tar", &carol_data).unwrap();

    assert_eq!(store.restore(1, "/alice/docs.tar").unwrap(), alice_data);
    assert_eq!(store.restore(2, "/bob/docs.tar").unwrap(), bob_data);
    assert_eq!(store.restore(3, "/carol/photos.tar").unwrap(), carol_data);

    // Inter-user dedup happened server-side, across the wire: Bob paid the
    // transfer but stored nothing new.
    assert!(b.dedup.transferred_share_bytes > 0);
    assert_eq!(b.dedup.physical_share_bytes, 0);
    assert_eq!(
        a.dedup.transferred_share_bytes,
        b.dedup.transferred_share_bytes
    );
    let stats = store.stats();
    assert_eq!(stats.servers.len(), 4);
    for s in &stats.servers {
        assert!(s.shares_received > 0);
        assert!(s.inter_user_duplicates > 0, "dedup counters over the wire");
    }

    // --- The wire path matches the in-process path byte for byte. ---------
    let local = CdStore::new(CdStoreConfig::new(4, 3).unwrap());
    local.backup(1, "/alice/docs.tar", &alice_data).unwrap();
    assert_eq!(
        local.restore(1, "/alice/docs.tar").unwrap(),
        store.restore(1, "/alice/docs.tar").unwrap()
    );

    // --- Delete + gc over the wire reclaim real space. ---------------------
    let doomed = sample(file_size(), 21);
    store.backup(3, "/carol/tmp.tar", &doomed).unwrap();
    store.flush().unwrap();
    let before: u64 = store.stats().backend_bytes.iter().sum();
    assert!(store.delete(3, "/carol/tmp.tar").unwrap());
    let report = store.gc().unwrap();
    assert!(report.reclaimed_bytes > 0);
    let after: u64 = store.stats().backend_bytes.iter().sum();
    assert!(after < before, "gc shrank the remote backends");
    assert!(matches!(
        store.restore(3, "/carol/tmp.tar"),
        Err(CdStoreError::FileNotFound(_))
    ));

    // --- Kill one server process mid-churn: k-of-n survives. --------------
    let mut procs = procs;
    procs[0].kill();
    // The dead server fails its requests with transport errors, which the
    // restore path treats as transient: it retries, then swaps cloud 0 for
    // the spare — the read succeeds without anyone flagging the cloud.
    assert_eq!(store.restore(1, "/alice/docs.tar").unwrap(), alice_data);
    // Marking the cloud failed (what a deployment's health check does)
    // skips the dead transport up front instead of paying the retries.
    store.fail_cloud(0);
    assert_eq!(store.restore(1, "/alice/docs.tar").unwrap(), alice_data);
    assert_eq!(store.restore(2, "/bob/docs.tar").unwrap(), bob_data);
    assert_eq!(store.restore(3, "/carol/photos.tar").unwrap(), carol_data);
    // Churn continues on the survivors: deletes and gc still work.
    assert!(store.delete(2, "/bob/docs.tar").unwrap());
    assert!(store.gc().is_ok());
    assert_eq!(store.restore(1, "/alice/docs.tar").unwrap(), alice_data);
}

#[test]
fn wire_errors_carry_structure() {
    let procs: Vec<ServeProc> = (0..4).map(ServeProc::spawn).collect();
    let store = connect_store(&procs);
    // FileNotFound crosses the wire as FileNotFound, not a stringly blob.
    assert!(matches!(
        store.restore(9, "/never/backed/up"),
        Err(CdStoreError::FileNotFound(_))
    ));
}

#[test]
fn concurrent_clients_share_the_wire() {
    let procs: Vec<ServeProc> = (0..4).map(ServeProc::spawn).collect();
    let store = connect_store(&procs);
    std::thread::scope(|scope| {
        for user in 1..=4u64 {
            let store = store.clone();
            scope.spawn(move || {
                let data = sample(file_size() / 2, user as u8);
                let path = format!("/u{user}/data.tar");
                store.backup(user, &path, &data).unwrap();
                assert_eq!(store.restore(user, &path).unwrap(), data);
            });
        }
    });
    assert_eq!(store.stats().files, 4);
}

/// A graceful stop seals what the connections left open: a backup nobody
/// flushed survives the stop and restart of all four `--dir` servers. (A
/// server that only shut its listener down would throw its open containers
/// away, and the next start's recovery would prune those shares.)
#[test]
fn a_graceful_stop_loses_nothing() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("graceful-stop");
    let _ = std::fs::remove_dir_all(&root);
    let dirs: Vec<_> = (0..4).map(|i| root.join(format!("cloud-{i}"))).collect();
    let spawn_all = || -> Vec<ServeProc> {
        (dirs.iter().enumerate())
            .map(|(i, dir)| ServeProc::spawn_in(i, Some(dir)))
            .collect()
    };
    let data = sample(file_size(), 5);

    let procs = spawn_all();
    let store = connect_store(&procs);
    store.backup(1, "/alice/unflushed.tar", &data).unwrap();
    drop(store);
    procs.into_iter().for_each(ServeProc::stop);

    let procs = spawn_all();
    let store = connect_store(&procs);
    assert_eq!(store.restore(1, "/alice/unflushed.tar").unwrap(), data);
    let _ = std::fs::remove_dir_all(&root);
}
