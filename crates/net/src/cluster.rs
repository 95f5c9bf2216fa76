//! [`LoopbackCluster`]: `n` networked servers on loopback, in one process.
//!
//! The benches and many tests need a real TCP boundary (serialization,
//! syscalls, flow control) without the cost of spawning processes; this
//! helper binds `n` [`NetServer`]s on OS-assigned loopback ports and hands
//! out [`RemoteServer`] transports to them. For genuinely separate server
//! *processes*, see the `cdstore-serve` binary and `tests/net_e2e.rs`.

use std::net::SocketAddr;
use std::sync::Arc;

use cdstore_core::{CdStore, CdStoreConfig, CdStoreError, CdStoreServer, RecoveryReport};

use crate::client::{NetClientConfig, RemoteServer};
use crate::server::NetServer;

/// `n` wire-protocol servers on loopback ports, shut down on drop.
pub struct LoopbackCluster {
    servers: Vec<NetServer>,
    cores: Vec<Arc<CdStoreServer>>,
    addrs: Vec<SocketAddr>,
}

impl LoopbackCluster {
    /// Spawns `n` servers (cloud indices `0..n`) over in-memory backends.
    pub fn spawn(n: usize) -> std::io::Result<LoopbackCluster> {
        Self::spawn_with_servers((0..n).map(|i| Arc::new(CdStoreServer::new(i))).collect())
    }

    /// Spawns one wire-protocol server per prebuilt [`CdStoreServer`] —
    /// the chaos harness uses this to run networked deployments over
    /// fault-injecting backends it keeps handles to.
    pub fn spawn_with_servers(cores: Vec<Arc<CdStoreServer>>) -> std::io::Result<LoopbackCluster> {
        let mut servers = Vec::with_capacity(cores.len());
        let mut addrs = Vec::with_capacity(cores.len());
        for core in &cores {
            let server = NetServer::bind(Arc::clone(core), "127.0.0.1:0")?;
            addrs.push(server.local_addr());
            servers.push(server);
        }
        Ok(LoopbackCluster {
            servers,
            cores,
            addrs,
        })
    }

    /// Crash-restarts server `i`: tears the wire server down (in-flight
    /// connections drop, clients see transport errors), rebuilds the
    /// CDStore server from its backend through the full recovery path, and
    /// rebinds on the same address so existing transports reconnect.
    ///
    /// Unlike `CdStore::restart_server`, nothing is flushed first — open
    /// containers are torn away exactly as a process crash would, which is
    /// the shape the chaos suite wants.
    pub fn restart(&mut self, i: usize) -> Result<RecoveryReport, CdStoreError> {
        self.servers[i].shutdown();
        let backend = self.cores[i].backend();
        let (core, report) = CdStoreServer::open(i, backend)?;
        let core = Arc::new(core);
        self.cores[i] = Arc::clone(&core);
        // `shutdown` returned with the old listener dropped and every
        // connection joined, so the address is free to bind again.
        self.servers[i] = NetServer::bind(core, self.addrs[i])
            .map_err(|e| CdStoreError::Remote(e.to_string()))?;
        Ok(report)
    }

    /// The in-process server behind wire server `i` (for state assertions).
    pub fn core(&self, i: usize) -> Arc<CdStoreServer> {
        Arc::clone(&self.cores[i])
    }

    /// The listening addresses, indexed by cloud.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Connects one transport per server.
    pub fn transports(&self, config: NetClientConfig) -> Result<Vec<RemoteServer>, CdStoreError> {
        self.addrs
            .iter()
            .map(|addr| RemoteServer::connect(addr, config.clone()))
            .collect()
    }

    /// Builds a [`CdStore`] deployment running entirely over the wire.
    pub fn store(
        &self,
        config: CdStoreConfig,
        client_config: NetClientConfig,
    ) -> Result<CdStore<RemoteServer>, CdStoreError> {
        CdStore::from_transports(config, self.transports(client_config)?)
    }

    /// Shuts every server down (also happens on drop).
    pub fn shutdown(&mut self) {
        for server in &mut self.servers {
            server.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdstore_core::ServerTransport;

    #[test]
    fn backup_and_restore_run_over_real_sockets() {
        let cluster = LoopbackCluster::spawn(4).unwrap();
        let store = cluster
            .store(
                CdStoreConfig::new(4, 3).unwrap(),
                NetClientConfig::default(),
            )
            .unwrap();
        let data: Vec<u8> = (0..120_000u32)
            .map(|i| ((i / 600) as u8).wrapping_mul(23).wrapping_add(5))
            .collect();
        store.backup(1, "/wire/backup.tar", &data).unwrap();
        assert_eq!(store.restore(1, "/wire/backup.tar").unwrap(), data);
        // Dedup counters crossed the wire too.
        let stats = store.stats();
        assert_eq!(stats.servers.len(), 4);
        assert!(stats.servers.iter().all(|s| s.received_share_bytes > 0));
        // k-of-n still holds with a cloud marked unavailable client-side.
        store.fail_cloud(3);
        assert_eq!(store.restore(1, "/wire/backup.tar").unwrap(), data);
    }

    #[test]
    fn crash_restart_recovers_a_server_on_the_same_address() {
        let mut cluster = LoopbackCluster::spawn(4).unwrap();
        let store = cluster
            .store(
                CdStoreConfig::new(4, 3).unwrap(),
                NetClientConfig::default(),
            )
            .unwrap();
        let data: Vec<u8> = (0..90_000u32)
            .map(|i| ((i / 512) as u8).wrapping_mul(29).wrapping_add(3))
            .collect();
        store.backup(2, "/wire/crash.tar", &data).unwrap();
        // Flush so the backup survives the crash-style restart (an unflushed
        // tail torn away mid-upload is exercised by the chaos suite).
        store.flush().unwrap();
        let addr_before = cluster.addrs()[1];
        cluster.restart(1).unwrap();
        assert_eq!(cluster.addrs()[1], addr_before);
        // Existing transports reconnect and the restored data is byte-exact.
        assert_eq!(store.restore(2, "/wire/crash.tar").unwrap(), data);
        assert!(cluster.core(1).probe().unwrap().unique_shares > 0);
    }

    /// One request, one response, even with everything on one connection: a
    /// restore's window fetches and another thread's probes take turns on
    /// the single pooled socket, and each call gets exactly its own reply.
    #[test]
    fn a_restore_and_concurrent_probes_share_one_connection() {
        use cdstore_core::ServerTransport;
        use std::sync::atomic::{AtomicBool, Ordering};

        let cluster = LoopbackCluster::spawn(4).unwrap();
        let store = cluster
            .store(
                CdStoreConfig::new(4, 3).unwrap(),
                NetClientConfig {
                    connections: 1,
                    ..NetClientConfig::default()
                },
            )
            .unwrap();
        // A few restore windows' worth of 8 KB-average secrets.
        let data: Vec<u8> = (0..3_000_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        store.backup(1, "/wire/shared-link.tar", &data).unwrap();

        let restoring = AtomicBool::new(true);
        let (probing_tx, probing_rx) = std::sync::mpsc::channel();
        let probes_during_restore = std::thread::scope(|scope| {
            let prober = scope.spawn(|| {
                let mut during_restore = 0u32;
                probing_tx.send(()).unwrap();
                while restoring.load(Ordering::SeqCst) {
                    store.with_servers(|servers| {
                        for server in servers {
                            let probe = server.probe().expect("probe during a restore");
                            assert!(probe.unique_shares > 0);
                        }
                    });
                    during_restore += 1;
                }
                during_restore
            });
            // The restore starts only once the prober is running, and the
            // prober stops only once the restore is over.
            probing_rx.recv().unwrap();
            let restored = store.restore(1, "/wire/shared-link.tar");
            restoring.store(false, Ordering::SeqCst);
            assert_eq!(restored.unwrap(), data);
            prober.join().expect("prober panicked")
        });
        assert!(probes_during_restore > 0);
    }
}
