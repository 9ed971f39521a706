//! The remote worker process: connect, handshake, serve.
//!
//! A worker owns no task graph and no scheduler — it is a kernel
//! execution service. It registers the *same templates and kernels* as
//! the coordinator (both call the application's registration function,
//! e.g. `versa_apps::matmul::register_native`), so the template names
//! the coordinator dispatches resolve to real closures here.
//!
//! Serve loop semantics:
//!
//! * `Ship` — install the received buffer in the local arena (host
//!   space; the frame reader filled it, so no copy), ack. Handled
//!   inline: shipments are ordered with respect to the executions the
//!   coordinator issues after them.
//! * `Exec` — queued to the node's exec threads: one per advertised
//!   worker, started at join and joined at shutdown, so a node with N
//!   advertised workers really executes N tasks concurrently and
//!   heartbeats keep being answered while kernels run. Kernel panics are
//!   caught and reported as `ExecErr` — the connection survives. Written
//!   buffers go back in `ExecOk` straight from the arena.
//! * `Free` — drop the allocation's buffer (one-way, no reply).
//! * `Heartbeat` — acked inline.
//! * `Shutdown` — cache the coordinator's gossiped hints to the
//!   configured file (warmth for the next join), ack, exit.

use crate::link::READ_BUFFER;
use crate::protocol::{read_frame, write_frame, Frame, ProtoError, WireAccess};
use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use versa_core::{SchedulerKind, VersionId};
use versa_mem::{AccessMode, DataId, MemSpace, Region};
use versa_runtime::{DetachedExecutor, NativeConfig, Runtime, RuntimeConfig};

/// How a worker process joins a cluster.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Coordinator address to dial (`host:port`).
    pub connect: String,
    /// Self-reported node name (empty = let the coordinator use the
    /// peer address).
    pub name: String,
    /// SMP workers to advertise (the coordinator schedules this many
    /// concurrent tasks onto the node).
    pub smp_workers: usize,
    /// Where to cache gossiped profile hints across memberships
    /// (`None` = don't cache).
    pub hints_cache: Option<PathBuf>,
}

impl WorkerConfig {
    /// A worker dialing `connect` with `smp_workers` advertised workers.
    pub fn new(connect: impl Into<String>, smp_workers: usize) -> WorkerConfig {
        WorkerConfig {
            connect: connect.into(),
            name: String::new(),
            smp_workers,
            hints_cache: None,
        }
    }
}

/// What a worker did during one membership.
#[derive(Clone, Debug)]
pub struct WorkerReport {
    /// The node id the coordinator assigned.
    pub node_id: u16,
    /// Profile-hint records applied from the coordinator's welcome
    /// gossip (0 = the coordinator was cold).
    pub hints_applied: usize,
    /// Tasks executed.
    pub execs: u64,
    /// Shipments received.
    pub ships: u64,
    /// Bytes still held in the worker's arena when it stopped serving:
    /// 0 once the coordinator freed everything it shipped or had
    /// written here.
    pub resident_bytes: u64,
}

/// Run a worker to completion: dial the coordinator, serve until it
/// sends `Shutdown` (or drops the connection), return what happened.
///
/// `register` binds the application's templates and kernels onto the
/// worker's runtime — it must match what the coordinator registered, or
/// dispatched templates will fail with `ExecErr`.
pub fn run_worker(
    cfg: WorkerConfig,
    register: impl FnOnce(&mut Runtime),
) -> Result<WorkerReport, ProtoError> {
    let mut rt = Runtime::native(
        RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
        NativeConfig::new(cfg.smp_workers.max(1), 0),
    );
    register(&mut rt);

    let cached = cfg
        .hints_cache
        .as_ref()
        .and_then(|p| std::fs::read_to_string(p).ok())
        .unwrap_or_default();

    let mut stream = TcpStream::connect(&cfg.connect)?;
    stream.set_nodelay(true).ok();
    write_frame(
        &mut stream,
        &Frame::Hello {
            name: cfg.name.clone(),
            smp_workers: cfg.smp_workers as u32,
            simd_tier: versa_kernels_tier(),
            hints: cached,
        },
        0,
    )?;
    let (frame, _) = read_frame(&mut stream)?.ok_or(ProtoError::Truncated)?;
    let Frame::Welcome { node_id, hints } = frame else {
        return Err(ProtoError::BadPayload);
    };
    let hints_applied =
        if hints.is_empty() { 0 } else { rt.load_hints(&hints).map(|(a, _)| a).unwrap_or(0) };

    let executor = rt.detach_executor().expect("native runtime has an executor");
    serve(stream, &executor, &cfg, node_id, hints_applied)
}

fn versa_kernels_tier() -> String {
    versa_kernels::simd::active_tier().name().to_string()
}

/// One `Exec` waiting for a node exec thread.
struct ExecJob {
    tag: u64,
    template: String,
    version: u16,
    accesses: Vec<WireAccess>,
}

fn serve(
    stream: TcpStream,
    executor: &DetachedExecutor,
    cfg: &WorkerConfig,
    node_id: u16,
    hints_applied: usize,
) -> Result<WorkerReport, ProtoError> {
    let writer = Mutex::new(stream.try_clone()?);
    let mut reader = BufReader::with_capacity(READ_BUFFER, stream);
    let execs = AtomicU64::new(0);
    let mut ships = 0u64;
    let (jobs, queue) = mpsc::channel::<ExecJob>();
    let queue = Mutex::new(queue);

    std::thread::scope(|s| {
        let exec_threads: Vec<_> = (0..cfg.smp_workers.max(1))
            .map(|i| {
                std::thread::Builder::new()
                    .name(format!("versa-node-exec-{i}"))
                    .spawn_scoped(s, || loop {
                        // The queue lock is released before the kernel runs.
                        let next = queue.lock().expect("exec queue lock poisoned").recv();
                        let Ok(job) = next else { break };
                        let reply = run_exec(executor, &job.template, job.version, &job.accesses);
                        execs.fetch_add(1, Ordering::SeqCst);
                        // A dead socket surfaces on the serve loop's read.
                        let _ = write_frame(
                            &mut *writer.lock().expect("worker socket lock poisoned"),
                            &reply,
                            job.tag,
                        );
                    })
                    .expect("spawn node exec thread")
            })
            .collect();

        let served = serve_frames(&mut reader, &writer, executor, &jobs, cfg, &mut ships);
        // Queued executions drain, then the exec threads exit.
        drop(jobs);
        let panicked = exec_threads.into_iter().map(|t| t.join()).filter(Result::is_err).count();
        served?;
        if panicked > 0 {
            return Err(ProtoError::Io(format!("{panicked} node exec thread(s) panicked")));
        }
        Ok(())
    })?;

    Ok(WorkerReport {
        node_id,
        hints_applied,
        execs: execs.into_inner(),
        ships,
        resident_bytes: executor.arena().resident_bytes(),
    })
}

/// The serve loop proper. Ends when the coordinator sends Shutdown, or
/// drops the connection without one — from this side the latter is a
/// normal (if abrupt) end of service.
fn serve_frames(
    reader: &mut BufReader<TcpStream>,
    writer: &Mutex<TcpStream>,
    executor: &DetachedExecutor,
    jobs: &mpsc::Sender<ExecJob>,
    cfg: &WorkerConfig,
    ships: &mut u64,
) -> Result<(), ProtoError> {
    while let Some((frame, tag)) = read_frame(reader)? {
        match frame {
            Frame::Ship { data, bytes } => {
                // DataIds are never reused, so a re-shipment of a
                // different length is a coordinator bug.
                executor
                    .arena()
                    .install(DataId(data), MemSpace::HOST, bytes)
                    .map_err(|_| ProtoError::BadPayload)?;
                *ships += 1;
                write_frame(&mut *writer.lock().unwrap(), &Frame::ShipAck, tag)?;
            }
            Frame::Free { data } => executor.arena().free(DataId(data)),
            Frame::Heartbeat => {
                write_frame(&mut *writer.lock().unwrap(), &Frame::HeartbeatAck, tag)?;
            }
            Frame::Exec { template, version, accesses, .. } => {
                let job = ExecJob { tag, template, version, accesses };
                jobs.send(job).map_err(|_| ProtoError::Io("node exec threads are gone".into()))?;
            }
            Frame::Shutdown { hints } => {
                if let Some(path) = &cfg.hints_cache {
                    if !hints.is_empty() {
                        let _ = std::fs::write(path, &hints);
                    }
                }
                write_frame(&mut *writer.lock().unwrap(), &Frame::ShutdownAck, tag)?;
                break;
            }
            // A worker never receives responses or handshake frames;
            // tolerate and ignore rather than dying mid-job.
            _ => {}
        }
    }
    Ok(())
}

/// Execute one dispatched task against the local arena and build the
/// response frame (never panics — kernel panics become `ExecErr`).
fn run_exec(
    executor: &DetachedExecutor,
    template: &str,
    version: u16,
    accesses: &[WireAccess],
) -> Frame {
    let arena = executor.arena();
    let mut typed = Vec::with_capacity(accesses.len());
    for a in accesses {
        let mode = match a.mode {
            0 => AccessMode::In,
            1 => AccessMode::Out,
            _ => AccessMode::InOut,
        };
        // Output-only allocations were never shipped; materialize them
        // zeroed at full length so the kernel has a buffer to fill.
        arena.ensure(DataId(a.data), MemSpace::HOST, a.alloc_len as usize);
        typed.push((Region { data: DataId(a.data), offset: a.offset, len: a.len }, mode));
    }
    match executor.execute(template, VersionId(version), &typed) {
        Ok(kernel_time) => {
            let writes = typed
                .iter()
                .filter(|(_, mode)| *mode != AccessMode::In)
                .map(|(region, _)| (region.data.0, arena.read_arc(region.data, MemSpace::HOST)))
                .collect();
            Frame::ExecOk { kernel_ns: kernel_time.as_nanos() as u64, writes }
        }
        Err(message) => Frame::ExecErr { message },
    }
}
