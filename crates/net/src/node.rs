//! [`TcpRemoteNode`]: the coordinator-side transport implementing
//! [`RemoteNode`] over a [`Mux`].
//!
//! The engine's worker-shim threads call [`RemoteNode::ship`] and
//! [`RemoteNode::exec`] concurrently; the mux interleaves them on one
//! socket. Tile buffers cross as `Arc<AlignedBuf>`s shared with the
//! arena: the frame writer streams a shipment from the mirror buffer,
//! and written outputs come back in the buffers the frame reader filled.
//!
//! Transport failures (dead link, timeout, protocol violation)
//! map to [`RemoteError::Lost`] — the engine retires the node and
//! requeues its tasks — while a kernel failure reported by the worker
//! maps to [`RemoteError::Task`], charged to the version like a local
//! panic.

use crate::link::Mux;
use crate::protocol::{Frame, WireAccess};
use std::sync::Arc;
use std::time::Duration;
use versa_mem::{AccessMode, AlignedBuf, DataId};
use versa_runtime::{RemoteCaps, RemoteDone, RemoteError, RemoteExec, RemoteNode};

/// A remote worker process reached over TCP.
pub struct TcpRemoteNode {
    caps: RemoteCaps,
    mux: Arc<Mux>,
}

impl TcpRemoteNode {
    /// Wrap an established, handshaken link.
    pub fn new(caps: RemoteCaps, mux: Arc<Mux>) -> TcpRemoteNode {
        TcpRemoteNode { caps, mux }
    }

    /// Whether the link to the node is still up.
    pub fn is_alive(&self) -> bool {
        self.mux.is_alive()
    }

    /// Clean shutdown carrying the coordinator's final profile hints
    /// (the worker caches them for a warm rejoin). Waits briefly for the
    /// ack, then tears the link down either way.
    pub fn shutdown_with_hints(&self, hints: &str) {
        let _ = self.mux.request_timeout(
            &Frame::Shutdown { hints: hints.to_string() },
            Some(Duration::from_secs(2)),
        );
        self.mux.kill();
    }
}

fn mode_byte(mode: AccessMode) -> u8 {
    match mode {
        AccessMode::In => 0,
        AccessMode::Out => 1,
        AccessMode::InOut => 2,
    }
}

impl RemoteNode for TcpRemoteNode {
    fn caps(&self) -> RemoteCaps {
        self.caps.clone()
    }

    fn ship(&self, data: DataId, bytes: Arc<AlignedBuf>) -> Result<(), RemoteError> {
        match self.mux.request(&Frame::Ship { data: data.0, bytes }) {
            Ok(Frame::ShipAck) => Ok(()),
            Ok(other) => Err(RemoteError::Lost(format!(
                "protocol violation: expected ShipAck, got frame type {}",
                other.type_byte()
            ))),
            Err(e) => Err(RemoteError::Lost(e.to_string())),
        }
    }

    fn exec(&self, req: &RemoteExec) -> Result<RemoteDone, RemoteError> {
        let frame = Frame::Exec {
            task: req.task.0,
            template: req.template.clone(),
            version: req.version.0,
            attempt: req.attempt,
            accesses: req
                .accesses
                .iter()
                .map(|a| WireAccess {
                    data: a.region.data.0,
                    offset: a.region.offset,
                    len: a.region.len,
                    alloc_len: a.alloc_len,
                    mode: mode_byte(a.mode),
                })
                .collect(),
        };
        match self.mux.request(&frame) {
            Ok(Frame::ExecOk { kernel_ns, writes }) => Ok(RemoteDone {
                kernel_time: Duration::from_nanos(kernel_ns),
                writes: writes.into_iter().map(|(d, b)| (DataId(d), b)).collect(),
            }),
            Ok(Frame::ExecErr { message }) => Err(RemoteError::Task(message)),
            Ok(other) => Err(RemoteError::Lost(format!(
                "protocol violation: expected ExecOk/ExecErr, got frame type {}",
                other.type_byte()
            ))),
            Err(e) => Err(RemoteError::Lost(e.to_string())),
        }
    }

    fn free(&self, data: DataId) {
        // One-way: a dead link has nothing left to free.
        let _ = self.mux.send(&Frame::Free { data: data.0 });
    }

    fn shutdown(&self) {
        self.shutdown_with_hints("");
    }
}
