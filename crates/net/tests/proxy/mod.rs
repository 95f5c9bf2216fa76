//! A TCP proxy in front of one server that sees every frame. It logs each
//! request's message type, and it can withhold the reply to the first
//! request of an armed type: the server has answered, so it has applied the
//! request, and the proxy closes that connection instead of passing the
//! answer on.

// Each test binary compiles this module and uses its own part of it.
#![allow(dead_code)]

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU8, Ordering::SeqCst};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};

use cdstore_net::frame::{encode_frame, FrameReader, Polled};

/// Request types (`docs/protocol.md`).
pub const INTRA_USER_QUERY: u8 = 0x02;
pub const STORE_SHARES: u8 = 0x03;
pub const PUT_FILE: u8 = 0x04;
pub const RELEASE_UPLOADS: u8 = 0x05;
pub const GET_RECIPE: u8 = 0x07;
pub const FETCH_SHARES: u8 = 0x09;

pub struct Proxy {
    /// Where clients connect.
    pub addr: SocketAddr,
    /// The request type whose next reply is lost; 0 when disarmed.
    lose: Arc<AtomicU8>,
    requests: Arc<Mutex<Vec<u8>>>,
}

impl Proxy {
    /// Starts a proxy in front of `upstream`. Its threads end with their
    /// sockets, the listener's with the process.
    pub fn spawn(upstream: SocketAddr) -> Proxy {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let proxy = Proxy {
            addr: listener.local_addr().unwrap(),
            lose: Arc::default(),
            requests: Arc::default(),
        };
        let (lose, requests) = (Arc::clone(&proxy.lose), Arc::clone(&proxy.requests));
        std::thread::spawn(move || {
            for client in listener.incoming().flatten() {
                let server = TcpStream::connect(upstream).unwrap();
                // Each reply is matched to its request by order: the server
                // answers a connection's requests one by one.
                let (asked, answered) = channel();
                let (from, to) = (client.try_clone().unwrap(), server.try_clone().unwrap());
                let requests = Arc::clone(&requests);
                std::thread::spawn(move || {
                    let mut reader = FrameReader::new();
                    while let Ok(Polled::Frame(msg_type, payload)) = reader.poll(&mut &from) {
                        // Logged before the server can answer, so a call
                        // that returned is in the log.
                        requests.lock().unwrap().push(msg_type);
                        let _ = asked.send(msg_type);
                        if (&to).write_all(&encode_frame(msg_type, payload)).is_err() {
                            break;
                        }
                    }
                    let _ = to.shutdown(Shutdown::Write);
                });
                let lose = Arc::clone(&lose);
                std::thread::spawn(move || {
                    let mut reader = FrameReader::new();
                    while let Ok(Polled::Frame(msg_type, payload)) = reader.poll(&mut &server) {
                        let request = answered.recv().unwrap_or(0);
                        let lost = request != 0
                            && lose.compare_exchange(request, 0, SeqCst, SeqCst).is_ok();
                        if lost
                            || (&client)
                                .write_all(&encode_frame(msg_type, payload))
                                .is_err()
                        {
                            break;
                        }
                    }
                    let _ = server.shutdown(Shutdown::Both);
                    let _ = client.shutdown(Shutdown::Both);
                });
            }
        });
        proxy
    }

    /// Loses the reply to the next request of type `request`.
    pub fn lose_reply_to(&self, request: u8) {
        self.lose.store(request, SeqCst);
    }

    /// Whether a reply is still waiting to be lost.
    pub fn armed(&self) -> bool {
        self.lose.load(SeqCst) != 0
    }

    /// The types of the requests sent since the last call, in order.
    pub fn take_requests(&self) -> Vec<u8> {
        std::mem::take(&mut self.requests.lock().unwrap())
    }
}
