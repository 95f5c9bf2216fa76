//! `cdstore-serve`: one CDStore server as a standalone process.
//!
//! ```text
//! cdstore-serve --cloud 0 [--addr 127.0.0.1:0] [--dir /var/lib/cdstore0]
//! ```
//!
//! Prints `LISTENING <addr>` on stdout once the listener is up (the e2e
//! harness parses this to learn OS-assigned ports), then serves until stdin
//! reaches EOF — so a child process dies with its parent instead of
//! lingering as an orphan — after draining its connections and sealing its
//! open containers, so the next start loses nothing.

use std::io::Read;
use std::process::exit;
use std::sync::Arc;

use cdstore_core::{CdStoreServer, ServerTransport};
use cdstore_net::NetServer;
use cdstore_storage::{DirBackend, StorageBackend};

fn usage() -> ! {
    eprintln!(
        "usage: cdstore-serve --cloud <index> [--addr <host:port>] [--dir <path>]\n\
         \n\
         --cloud <index>    cloud index this server fronts (required)\n\
         --addr <host:port> listen address (default 127.0.0.1:0)\n\
         --dir <path>       durable storage directory (default: in-memory)"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cloud: Option<usize> = None;
    let mut addr = String::from("127.0.0.1:0");
    let mut dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--cloud" => cloud = it.next().and_then(|v| v.parse().ok()),
            "--addr" => addr = it.next().cloned().unwrap_or_else(|| usage()),
            "--dir" => dir = it.next().cloned(),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let Some(cloud) = cloud else { usage() };

    let server = match &dir {
        Some(path) => {
            let backend = match DirBackend::new(path) {
                Ok(b) => Arc::new(b) as Arc<dyn StorageBackend>,
                Err(e) => {
                    eprintln!("cdstore-serve: cannot open {path}: {e}");
                    exit(1);
                }
            };
            // Recover whatever a previous incarnation left behind.
            match CdStoreServer::open(cloud, backend) {
                Ok((server, report)) => {
                    eprintln!(
                        "cdstore-serve: cloud {cloud} recovered \
                         (checkpoint: {}, replayed: {})",
                        report.used_checkpoint, report.records_replayed
                    );
                    server
                }
                Err(e) => {
                    eprintln!("cdstore-serve: recovery failed: {e}");
                    exit(1);
                }
            }
        }
        None => CdStoreServer::new(cloud),
    };

    let server = Arc::new(server);
    let mut net = match NetServer::bind(Arc::clone(&server), addr.as_str()) {
        Ok(net) => net,
        Err(e) => {
            eprintln!("cdstore-serve: cannot bind {addr}: {e}");
            exit(1);
        }
    };
    // The harness contract: exactly one LISTENING line, immediately flushed.
    println!("LISTENING {}", net.local_addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();

    // Serve until the parent closes our stdin (or sends any byte stream
    // ending in EOF). This is the whole lifecycle protocol: no signals, no
    // pid files.
    let mut sink = [0u8; 1024];
    let mut stdin = std::io::stdin();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}
    net.shutdown();
    // No request is in flight any more: seal what they left open, or the
    // next start's recovery prunes it as if this had been a crash.
    if let Err(e) = server.flush() {
        eprintln!("cdstore-serve: flush on shutdown failed: {e}");
        exit(1);
    }
}
