//! One TCP connection, many concurrent requests: the coordinator-side
//! link multiplexer.
//!
//! Every request carries a unique tag; the peer echoes the tag on its
//! response. A dedicated reader thread routes incoming frames to the
//! requester blocked on that tag, so any number of worker-shim threads
//! can share one socket — shipments and executions interleave freely.
//!
//! Liveness: an optional heartbeat thread sends [`Frame::Heartbeat`]
//! every `interval` and expects the ack within `timeout`. A missed ack,
//! a read error, or a write error *kills* the link: the socket is shut
//! down, every pending requester gets an error, and all later requests
//! fail fast. The engine maps those errors to
//! [`RemoteError::Lost`](versa_runtime::RemoteError) — node retirement
//! and task requeue, never a hang.

use crate::protocol::{read_frame, write_frame, Frame, ProtoError};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Heartbeat cadence for a [`Mux`].
#[derive(Clone, Copy, Debug)]
pub struct HeartbeatConfig {
    /// How often to probe.
    pub interval: Duration,
    /// How long to wait for the ack before declaring the node lost.
    pub timeout: Duration,
}

impl Default for HeartbeatConfig {
    fn default() -> HeartbeatConfig {
        HeartbeatConfig { interval: Duration::from_millis(500), timeout: Duration::from_secs(2) }
    }
}

/// Read-side buffer of a link: absorbs the small fields of a frame;
/// bulk reads larger than this bypass it.
pub(crate) const READ_BUFFER: usize = 64 << 10;

/// A tag-multiplexed request/response link over one TCP stream.
pub struct Mux {
    writer: Mutex<TcpStream>,
    /// Kept for `shutdown(Both)` on kill (unblocks the reader thread).
    stream: TcpStream,
    pending: Mutex<HashMap<u64, mpsc::Sender<Result<Frame, ProtoError>>>>,
    next_tag: AtomicU64,
    alive: AtomicBool,
}

impl Mux {
    /// Wrap `stream`, spawning the reader thread and (when `heartbeat`
    /// is set) the heartbeat thread.
    pub fn spawn(stream: TcpStream, heartbeat: Option<HeartbeatConfig>) -> Result<Arc<Mux>, ProtoError> {
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        let mut reader = BufReader::with_capacity(READ_BUFFER, stream.try_clone()?);
        let mux = Arc::new(Mux {
            writer: Mutex::new(writer),
            stream,
            pending: Mutex::new(HashMap::new()),
            // Tag 0 is reserved for the pre-mux handshake.
            next_tag: AtomicU64::new(1),
            alive: AtomicBool::new(true),
        });

        let m = Arc::clone(&mux);
        std::thread::Builder::new()
            .name("versa-net-reader".into())
            .spawn(move || {
                while let Ok(Some((frame, tag))) = read_frame(&mut reader) {
                    m.deliver(tag, Ok(frame));
                }
                m.kill();
            })
            .expect("spawn reader thread");

        if let Some(hb) = heartbeat {
            let m = Arc::clone(&mux);
            std::thread::Builder::new()
                .name("versa-net-heartbeat".into())
                .spawn(move || {
                    while m.is_alive() {
                        std::thread::sleep(hb.interval);
                        if !m.is_alive() {
                            break;
                        }
                        match m.request_timeout(&Frame::Heartbeat, Some(hb.timeout)) {
                            Ok(Frame::HeartbeatAck) => {}
                            _ => {
                                m.kill();
                                break;
                            }
                        }
                    }
                })
                .expect("spawn heartbeat thread");
        }

        Ok(mux)
    }

    /// Whether the link is still up.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Send `frame` and block until the peer's response arrives.
    pub fn request(&self, frame: &Frame) -> Result<Frame, ProtoError> {
        self.request_timeout(frame, None)
    }

    /// [`Mux::request`] with an optional response deadline. A timeout
    /// kills the link (the peer is presumed gone).
    pub fn request_timeout(
        &self,
        frame: &Frame,
        timeout: Option<Duration>,
    ) -> Result<Frame, ProtoError> {
        if !self.is_alive() {
            return Err(ProtoError::Io("link is down".into()));
        }
        let tag = self.next_tag.fetch_add(1, Ordering::SeqCst);
        let (tx, rx) = mpsc::channel();
        self.pending.lock().unwrap().insert(tag, tx);

        if let Err(e) = write_frame(&mut *self.writer.lock().unwrap(), frame, tag) {
            self.pending.lock().unwrap().remove(&tag);
            self.kill();
            return Err(e);
        }

        let res = match timeout {
            None => rx.recv().map_err(|_| ProtoError::Io("connection lost".into()))?,
            Some(t) => match rx.recv_timeout(t) {
                Ok(r) => r,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    self.pending.lock().unwrap().remove(&tag);
                    self.kill();
                    return Err(ProtoError::Io("response timeout".into()));
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(ProtoError::Io("connection lost".into()))
                }
            },
        };
        res
    }

    /// Fire-and-forget send of a one-way frame (`Free`); no response is
    /// awaited.
    pub fn send(&self, frame: &Frame) -> Result<(), ProtoError> {
        if !self.is_alive() {
            return Err(ProtoError::Io("link is down".into()));
        }
        let tag = self.next_tag.fetch_add(1, Ordering::SeqCst);
        write_frame(&mut *self.writer.lock().unwrap(), frame, tag)
    }

    /// Tear the link down: shut the socket, fail every pending request.
    /// Idempotent.
    pub fn kill(&self) {
        if self.alive.swap(false, Ordering::SeqCst) {
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
            let pending: Vec<_> = self.pending.lock().unwrap().drain().collect();
            for (_, tx) in pending {
                let _ = tx.send(Err(ProtoError::Io("connection lost".into())));
            }
        }
    }

    fn deliver(&self, tag: u64, res: Result<Frame, ProtoError>) {
        if let Some(tx) = self.pending.lock().unwrap().remove(&tag) {
            let _ = tx.send(res);
        }
    }
}

impl Drop for Mux {
    fn drop(&mut self) {
        self.kill();
    }
}
