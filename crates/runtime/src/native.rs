//! Real execution engine: OS worker threads, real memory copies between
//! per-device arenas, real Rust kernels.
//!
//! SMP workers execute kernels on one core each. An *emulated GPU* is a
//! worker whose kernels may parallelize over [`NativeConfig::gpu_lanes`]
//! cores and whose memory is a separate arena space — it genuinely cannot
//! read host buffers, so the coherence machinery is exercised for real.
//! Kernels reach an emulated GPU's [`LanePool`] through
//! [`KernelCtx::exec`] (or the [`KernelCtx::par_bands`] convenience).
//! Task durations reported to the scheduler are wall-clock kernel times,
//! so the versioning scheduler learns real device speed ratios.
//!
//! Thread lifecycle: every worker owns a stager and an exec thread, and
//! an emulated GPU's exec thread owns its lane pool. The runtime starts
//! them at its first native run, [`Runtime::attach_remote_node`] adds
//! threads for the workers it creates, they park on their channels
//! between runs (and between a service's waves), and they are joined
//! when the runtime drops. A run therefore costs channel wakeups, never
//! a thread spawn; per-run state (epoch, trace sink) travels with the
//! work messages. Copy-ins either overlap on the stagers or, with
//! `async_transfers = false`, are staged *inline* by the coordinator in
//! plan order — one coordinator loop drives both (DESIGN.md §2.2).

use crate::assign::drain_pool;
use crate::lanepool::LanePool;
use crate::remote::RemotePlan;
use crate::report::{FailureReport, RunError, TaskFailure, WorkerTransferStats};
use crate::runtime::{EngineKind, NativeFn};
use crate::{RunReport, Runtime};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Range;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use versa_core::{FailureKind, TaskId, TemplateId, VersionId, WorkerId, WorkerState};
use versa_kernels::chunk_ranges;
use versa_kernels::exec::{LaneExec, SerialExec};
use versa_mem::{
    AccessMode, AlignedBuf, Arena, DataId, HandleState, MemSpace, ReadyCell, Region, StagingLedger,
    Transfer, TransferStats,
};
use versa_trace::{TraceEvent, TraceSink, Ts};

/// Wall-clock offset from the run's epoch as a trace timestamp.
fn ts(wall0: Instant) -> Ts {
    Ts(wall0.elapsed().as_nanos() as u64)
}

/// Native-engine sizing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NativeConfig {
    /// Number of single-core SMP workers.
    pub smp_workers: usize,
    /// Number of emulated GPU devices (one worker each, own memory space).
    pub gpus: usize,
    /// Cores an emulated GPU kernel may parallelize over.
    pub gpu_lanes: usize,
    /// Emulated interconnect bandwidth in bytes/second: each planned
    /// transfer takes at least `bytes / link_bandwidth` wall time (the
    /// memcpy runs, then the mover sleeps off the residual). `None`
    /// (default) moves bytes at memcpy speed — the historical behaviour.
    /// Real machines pay PCIe for every copy; our in-process "devices"
    /// otherwise copy at DRAM speed, which makes transfer scheduling
    /// decisions invisible. Applied identically on the synchronous and
    /// asynchronous staging paths.
    pub link_bandwidth: Option<u64>,
}

impl NativeConfig {
    /// `smp` SMP workers + `gpus` emulated GPUs with the default 4 lanes.
    pub fn new(smp: usize, gpus: usize) -> NativeConfig {
        NativeConfig { smp_workers: smp, gpus, gpu_lanes: 4, link_bandwidth: None }
    }

    /// Validate the configuration. Shape problems (no workers, zero-lane
    /// GPUs) are errors; oversubscription is only a [`warning`].
    ///
    /// [`warning`]: NativeConfig::warnings
    pub fn validate(&self) -> Result<(), String> {
        if self.smp_workers + self.gpus == 0 {
            return Err("native config has no workers".into());
        }
        if self.gpus > 0 && self.gpu_lanes == 0 {
            return Err("emulated GPUs need at least one lane".into());
        }
        if self.link_bandwidth == Some(0) {
            return Err("link_bandwidth must be positive (use None for unthrottled)".into());
        }
        Ok(())
    }

    /// Non-fatal configuration diagnostics. Asking one emulated GPU for
    /// more lanes than the machine has hardware threads still runs
    /// correctly (lanes are ordinary OS threads) — it just can't speed
    /// anything up, so it is reported here rather than rejected by
    /// [`validate`](NativeConfig::validate).
    pub fn warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        let avail = std::thread::available_parallelism().map_or(1, |p| p.get());
        if self.gpus > 0 && self.gpu_lanes > avail {
            out.push(format!(
                "gpu_lanes = {} exceeds available parallelism ({avail}); \
                 lanes will time-share cores",
                self.gpu_lanes
            ));
        }
        out
    }
}

/// Two SMP workers and one emulated GPU with the default 4 lanes —
/// the smallest heterogeneous setup (`NativeConfig::new(2, 1)`).
impl Default for NativeConfig {
    fn default() -> Self {
        NativeConfig::new(2, 1)
    }
}

enum Slot {
    /// Access into a taken-out buffer: index + byte range. `writable` is
    /// false for an `input` clause aliasing a buffer the task also
    /// writes (same memory, read-only view).
    Owned { buf: usize, range: Range<usize>, writable: bool },
    /// Read-only access that does not alias any written buffer: a shared
    /// handle to the arena's own buffer (zero-copy — the arena keeps
    /// writers out until the last reader drops its handle).
    Shared(Arc<AlignedBuf>, Range<usize>),
}

/// The view a native kernel gets of its task: one argument per access
/// clause, in declaration order, plus the executor carrying the device's
/// parallelism.
pub struct KernelCtx<'a> {
    bufs: &'a mut [AlignedBuf],
    slots: Vec<Slot>,
    exec: &'a dyn LaneExec,
}

impl<'a> KernelCtx<'a> {
    /// Cores this kernel may use (1 on SMP workers, `gpu_lanes` on
    /// emulated GPUs).
    pub fn lanes(&self) -> usize {
        self.exec.lanes()
    }

    /// The executor carrying this worker's parallelism: a persistent
    /// lane pool on emulated GPUs, serial on SMP workers. Hand it to the
    /// `_on` kernel entry points.
    pub fn exec(&self) -> &'a dyn LaneExec {
        self.exec
    }

    /// Run `f` once per contiguous band of `0..n`, one band per lane,
    /// in parallel on this worker's lanes. A convenience for ad-hoc
    /// kernels that don't take a [`LaneExec`] themselves.
    pub fn par_bands(&self, n: usize, f: impl Fn(Range<usize>) + Sync) {
        let f = &f;
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = chunk_ranges(n, self.exec.lanes())
            .into_iter()
            .map(|band| Box::new(move || f(band)) as Box<dyn FnOnce() + Send + '_>)
            .collect();
        self.exec.run_batch(jobs);
    }

    /// Number of arguments (access clauses).
    pub fn arg_count(&self) -> usize {
        self.slots.len()
    }

    /// Raw bytes of argument `i`.
    pub fn bytes(&self, i: usize) -> &[u8] {
        match &self.slots[i] {
            Slot::Owned { buf, range, .. } => &self.bufs[*buf].as_bytes()[range.clone()],
            Slot::Shared(b, range) => &b.as_bytes()[range.clone()],
        }
    }

    /// Mutable raw bytes of argument `i`.
    ///
    /// # Panics
    /// Panics if access `i` is an `input` (read-only) clause.
    pub fn bytes_mut(&mut self, i: usize) -> &mut [u8] {
        match &self.slots[i] {
            Slot::Owned { buf, range, writable: true } => {
                &mut self.bufs[*buf].as_bytes_mut()[range.clone()]
            }
            _ => panic!("argument {i} is read-only (input clause)"),
        }
    }

    /// Argument `i` as `f64`s.
    pub fn f64(&self, i: usize) -> &[f64] {
        let (pre, mid, post) = unsafe { self.bytes(i).align_to::<f64>() };
        assert!(pre.is_empty() && post.is_empty(), "argument {i} is not f64-aligned");
        mid
    }

    /// Argument `i` as mutable `f64`s (write/inout accesses only).
    pub fn f64_mut(&mut self, i: usize) -> &mut [f64] {
        let (pre, mid, post) = unsafe { self.bytes_mut(i).align_to_mut::<f64>() };
        assert!(pre.is_empty() && post.is_empty(), "argument {i} is not f64-aligned");
        mid
    }

    /// Argument `i` as `f32`s.
    pub fn f32(&self, i: usize) -> &[f32] {
        let (pre, mid, post) = unsafe { self.bytes(i).align_to::<f32>() };
        assert!(pre.is_empty() && post.is_empty(), "argument {i} is not f32-aligned");
        mid
    }

    /// Argument `i` as mutable `f32`s (write/inout accesses only).
    pub fn f32_mut(&mut self, i: usize) -> &mut [f32] {
        let (pre, mid, post) = unsafe { self.bytes_mut(i).align_to_mut::<f32>() };
        assert!(pre.is_empty() && post.is_empty(), "argument {i} is not f32-aligned");
        mid
    }

    /// Panic unless read argument `r` is backed by memory disjoint from
    /// written argument `w` (shared slots never alias taken-out buffers;
    /// owned slots alias iff they view the same buffer).
    fn assert_disjoint(&self, r: usize, w: usize) {
        if let (Slot::Owned { buf: rb, .. }, Slot::Owned { buf: wb, .. }) =
            (&self.slots[r], &self.slots[w])
        {
            assert!(
                rb != wb,
                "argument {r} aliases written argument {w}; borrow them separately"
            );
        }
    }

    /// Borrow several read arguments and one written argument at once as
    /// `f64` slices — the shape every matmul/Cholesky kernel needs
    /// (`C ← f(A, B, …, C)`) and one the plain accessors can't express
    /// because `f64_mut` borrows the whole context mutably.
    ///
    /// # Panics
    /// Panics if `rw` is not a write/inout clause, if any read argument
    /// aliases `rw`, or on misalignment.
    pub fn f64_reads_and_mut(&mut self, reads: &[usize], rw: usize) -> (Vec<&[f64]>, &mut [f64]) {
        for &r in reads {
            self.assert_disjoint(r, rw);
        }
        // Safety: the written slice comes from the taken-out buffer of
        // `rw`; every read slice was just checked to be backed by
        // different memory, so the borrows are disjoint.
        let out: *mut [f64] = self.f64_mut(rw);
        let reads = reads.iter().map(|&r| unsafe { &*(self.f64(r) as *const [f64]) }).collect();
        (reads, unsafe { &mut *out })
    }

    /// `f32` twin of [`KernelCtx::f64_reads_and_mut`].
    ///
    /// # Panics
    /// As [`KernelCtx::f64_reads_and_mut`].
    pub fn f32_reads_and_mut(&mut self, reads: &[usize], rw: usize) -> (Vec<&[f32]>, &mut [f32]) {
        for &r in reads {
            self.assert_disjoint(r, rw);
        }
        let out: *mut [f32] = self.f32_mut(rw);
        let reads = reads.iter().map(|&r| unsafe { &*(self.f32(r) as *const [f32]) }).collect();
        (reads, unsafe { &mut *out })
    }
}

/// One task execution as an exec thread sees it.
struct WorkItem {
    task: TaskId,
    kernel: NativeFn,
    accesses: Vec<(Region, AccessMode)>,
    /// Trace identity of this execution attempt (version + template from
    /// the assignment, attempt = failures so far + 1, both computed by
    /// the coordinator at dispatch time).
    version: VersionId,
    template: TemplateId,
    attempt: u32,
}

/// Per-run state the long-lived pipeline threads need. It travels with
/// every work message, so the threads themselves outlive any one run.
struct RunCtx {
    /// The run's epoch: trace stamps and overlap spans are offsets from it.
    wall0: Instant,
    sink: Option<Arc<TraceSink>>,
    /// Template names for remote dispatch (closures don't cross the
    /// wire; remote processes resolve templates by name against their
    /// own registries). Empty without remote nodes.
    names: HashMap<TemplateId, String>,
}

impl RunCtx {
    fn now(&self) -> Ts {
        ts(self.wall0)
    }

    /// Record an event into `worker`'s lane (`None`: the coordinator's).
    /// The event is only built when tracing is on.
    fn record(&self, worker: Option<WorkerId>, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.record(worker.map_or(sink.coordinator(), |w| w.index()), event());
        }
    }
}

/// Extract a readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "kernel panicked".to_string())
}

/// Sleep off the residual of an emulated link budget: a transfer of
/// `bytes` bytes must take at least `bytes / bw` seconds of wall time,
/// of which `spent` already elapsed in the memcpy.
fn throttle_link(link_bandwidth: Option<u64>, bytes: u64, spent: Duration) {
    let Some(bw) = link_bandwidth else { return };
    let budget = Duration::from_secs_f64(bytes as f64 / bw as f64);
    if let Some(residual) = budget.checked_sub(spent) {
        std::thread::sleep(residual);
    }
}

/// How a task execution failed: the message plus the failure class the
/// scheduler is charged with (`Panic` for kernel failures, `NodeLost`
/// when the hosting remote node disappeared).
struct WorkFailure {
    message: String,
    kind: FailureKind,
}

/// The exec side of a remote worker: the kernel runs on the remote
/// machine. Copy-ins were already shipped at transfer time, so the
/// request carries only metadata; returned output buffers are written
/// back into the coordinator's mirror space before completion is
/// reported, keeping every later read local.
fn execute_remote(
    node: &dyn crate::remote::RemoteNode,
    arena: &Arena,
    space: MemSpace,
    item: WorkItem,
    run: &RunCtx,
) -> Result<Duration, WorkFailure> {
    use crate::remote::{RemoteAccess, RemoteError, RemoteExec};
    let req = RemoteExec {
        task: item.task,
        template: run.names.get(&item.template).cloned().unwrap_or_default(),
        version: item.version,
        attempt: item.attempt,
        accesses: item
            .accesses
            .iter()
            .map(|(region, mode)| RemoteAccess {
                region: *region,
                mode: *mode,
                // The mirror buffer exists for every access (perform
                // for reads, ensure for outputs), so its length is
                // the allocation length the node must materialize.
                alloc_len: arena.read_arc(region.data, space).len() as u64,
            })
            .collect(),
    };
    match node.exec(&req) {
        Ok(reply) => {
            for (data, bytes) in &reply.writes {
                arena.write(*data, space, bytes);
            }
            Ok(reply.kernel_time)
        }
        Err(RemoteError::Task(message)) => Err(WorkFailure { message, kind: FailureKind::Panic }),
        Err(RemoteError::Lost(message)) => {
            Err(WorkFailure { message, kind: FailureKind::NodeLost })
        }
    }
}

/// Execute a bound kernel outside the engine — the remote *worker
/// process* path (`versa-net`): no graph, no scheduler, just the kernel
/// against the given arena space, panic-safe.
pub(crate) fn execute_detached(
    kernel: NativeFn,
    accesses: Vec<(Region, AccessMode)>,
    arena: &Arena,
    space: MemSpace,
) -> Result<Duration, String> {
    let item = WorkItem {
        task: TaskId(0),
        kernel,
        accesses,
        version: VersionId(0),
        template: TemplateId(0),
        attempt: 1,
    };
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_item(item, arena, space, &SerialExec)
    }))
    .map_err(panic_message)
}

/// Run one task's kernel against this worker's arena space, returning the
/// wall-clock kernel time.
fn execute_item(item: WorkItem, arena: &Arena, space: MemSpace, exec: &dyn LaneExec) -> Duration {
    // Buffers this task writes are taken out of the arena for the
    // kernel's duration; read-only arguments that don't alias them keep a
    // shared handle to the arena's buffer — no copy. Concurrent transfers
    // sourcing those buffers stay safe because the arena copies-on-write
    // around live handles.
    let mut write_ids: Vec<DataId> = Vec::new();
    for (region, mode) in &item.accesses {
        if mode.writes() {
            assert!(
                !write_ids.contains(&region.data),
                "task {:?} writes {:?} through two access clauses",
                item.task,
                region.data
            );
            write_ids.push(region.data);
        }
    }
    arena.with_buffers(space, &write_ids, |bufs| {
        let slots: Vec<Slot> = item
            .accesses
            .iter()
            .map(|(region, mode)| {
                let lo = region.offset as usize;
                let hi = region.end() as usize;
                if let Some(buf) = write_ids.iter().position(|d| *d == region.data) {
                    // Reads aliasing a written buffer view the same
                    // (taken-out) memory, read-only.
                    Slot::Owned { buf, range: lo..hi, writable: mode.writes() }
                } else {
                    Slot::Shared(arena.read_arc(region.data, space), lo..hi)
                }
            })
            .collect();
        let mut ctx = KernelCtx { bufs, slots, exec };
        let t0 = Instant::now();
        (item.kernel)(&mut ctx);
        t0.elapsed()
    })
}

// ---------------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------------
//
// Per worker, two long-lived threads:
//
//   coordinator ──plan──▶ outbox ──▶ stager ──▶ exec ──done──▶ coordinator
//
// The coordinator performs every directory transition (acquire,
// snapshot, rollback) single-threaded, in plan order — decisions stay
// deterministic. With overlapped staging each planned task becomes a
// `StagedItem` whose `StageOp`s the worker's *stager* executes (waiting
// on in-flight sources via the `StagingLedger`'s `ReadyCell`s), after
// which the item flows to the *exec* thread that runs the kernel. At most
// `lookahead_depth + 1` items occupy a worker's pipeline, so the next
// task's inputs stage while the current kernel computes.
//
// With *inline staging* (`async_transfers = false`, and always once a
// remote node is attached) the coordinator performs each copy itself, in
// plan order, before it hands the task straight to the exec thread.
//
// The threads start at a runtime's first native run (and for every
// worker `attach_remote_node` adds later), park on their channels between
// runs, and are joined when the runtime drops.

/// One step of a staged item's pre-kernel pipeline, planned by the
/// coordinator, executed by the destination worker's stager.
enum StageOp {
    /// Move bytes: wait for the source copy if it is itself in flight,
    /// perform the transfer, publish the destination cell.
    Copy {
        t: Transfer,
        wait_src: Option<Arc<ReadyCell>>,
        publish: Arc<ReadyCell>,
        /// Test hook: panic instead of copying (see
        /// [`Runtime::inject_stage_fault`]).
        inject_fault: bool,
    },
    /// The datum is already directory-valid in this space, but its bytes
    /// may still be in flight from an earlier concurrent reader's staged
    /// copy — wait for that copy to land.
    WaitLocal(Arc<ReadyCell>),
    /// Allocate zeroed backing for an output-only access.
    Ensure { data: DataId, len: usize },
}

/// A copy dropped before it was performed (its item abandoned, or still
/// queued when the coordinator unwound) must resolve its publish cell —
/// a stager on another worker may be blocked waiting on it. A performed
/// copy already published, which makes this a no-op.
impl Drop for StageOp {
    fn drop(&mut self) {
        if let StageOp::Copy { publish, .. } = self {
            publish.publish_failed_if_pending("staged item dropped before execution");
        }
    }
}

/// A planned task travelling through one worker's staging pipeline.
struct StagedItem {
    work: WorkItem,
    run: Arc<RunCtx>,
    ops: Vec<StageOp>,
}

/// The copies a stager made for one item, returned with the item's
/// outcome: `(bytes, start, end)` per copy, offsets from the run's epoch
/// in ns. Empty under inline staging, where the coordinator accounts for
/// its own copies as it makes them.
type Staged = Vec<(u64, u64, u64)>;

/// Work for an exec thread: a staged task, or a stager's failure notice
/// (forwarded as an outcome so per-worker completions stay FIFO).
enum ExecMsg {
    Run { work: WorkItem, run: Arc<RunCtx>, staged: Staged },
    Failed {
        task: TaskId,
        msg: String,
        /// True when this task did not fail itself but observed another
        /// task's staging failure (its copy source, or a local cell) —
        /// it is requeued without charging a retry.
        upstream: bool,
    },
}

/// What the exec thread reports back to the coordinator per task.
enum Outcome {
    Done {
        kernel: Duration,
        /// Kernel `(start, end)` offsets from the run's epoch, ns.
        kernel_span: (u64, u64),
        staged: Staged,
    },
    Failed(WorkFailure),
    StageFailed { msg: String, upstream: bool },
}

type Completion = (WorkerId, TaskId, Outcome);

/// Undo record for one task's optimistic directory updates, applied in
/// reverse push order when its staging fails.
enum Rollback {
    /// Undo a read copy-in. Commutative across concurrently failing
    /// readers (each only removes its own destination space).
    Retract(DataId, MemSpace),
    /// Undo a write acquire with an exact pre-acquire snapshot. Exact
    /// restore is safe because the graph serializes every writer against
    /// all other accessors of the datum — no concurrent planner can have
    /// touched the entry in between.
    Restore(DataId, HandleState),
}

/// The staging lane of one worker: executes `StageOp`s in plan order,
/// then forwards the item to the exec thread (or a failure notice, so
/// per-worker completion order stays FIFO).
fn stager_loop(
    rx: mpsc::Receiver<StagedItem>,
    tx: mpsc::Sender<ExecMsg>,
    arena: Arc<Arena>,
    space: MemSpace,
    link_bandwidth: Option<u64>,
    wid: WorkerId,
) {
    while let Ok(StagedItem { work, run, ops }) = rx.recv() {
        // Every planned `Copy` gets exactly one Transfer event — a real
        // span on success, a truncated (or empty) span when the copy
        // faults or is abandoned — so traced bytes reconcile with
        // plan-time TransferStats.
        let record_copy = |t: &Transfer, start: Ts, end: Ts| {
            run.record(Some(wid), || TraceEvent::Transfer {
                start,
                end,
                data: t.data,
                from: t.from,
                to: t.to,
                bytes: t.bytes,
                by: Some(wid),
            });
        };
        let mut staged = Staged::new();
        let mut failure: Option<(String, bool)> = None;
        let mut ops = ops.into_iter();
        for op in ops.by_ref() {
            match &op {
                StageOp::WaitLocal(cell) => {
                    if let Err(msg) = cell.wait() {
                        failure = Some((format!("upstream staging failed: {msg}"), true));
                        break;
                    }
                }
                StageOp::Ensure { data, len } => arena.ensure(*data, space, *len),
                StageOp::Copy { t, wait_src, publish, inject_fault } => {
                    debug_assert_eq!(t.to, space, "copy planned onto the wrong lane");
                    if let Some(src) = wait_src {
                        if let Err(msg) = src.wait() {
                            let msg = format!("upstream staging failed: {msg}");
                            publish.publish_failed(msg.clone());
                            let now = run.now();
                            record_copy(t, now, now);
                            failure = Some((msg, true));
                            break;
                        }
                    }
                    let start = run.wall0.elapsed();
                    let moved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if *inject_fault {
                            panic!("injected staging fault for {:?}", t.data);
                        }
                        arena.perform(t);
                    }));
                    match moved {
                        Ok(()) => {
                            throttle_link(link_bandwidth, t.bytes, run.wall0.elapsed() - start);
                            let end = run.wall0.elapsed();
                            let span = (start.as_nanos() as u64, end.as_nanos() as u64);
                            staged.push((t.bytes, span.0, span.1));
                            record_copy(t, Ts(span.0), Ts(span.1));
                            publish.publish_ok();
                        }
                        Err(payload) => {
                            let msg = panic_message(payload);
                            publish.publish_failed(msg.clone());
                            record_copy(t, Ts(start.as_nanos() as u64), run.now());
                            failure = Some((msg, false));
                            break;
                        }
                    }
                }
            }
        }
        let msg = match failure {
            Some((msg, upstream)) => {
                // Poison the copies this item never attempted, so
                // cross-worker waiters observe failure instead of
                // hanging; the coordinator rolls all of them back.
                for op in ops {
                    if let StageOp::Copy { t, publish, .. } = &op {
                        publish.publish_failed("abandoned after earlier staging failure");
                        let now = run.now();
                        record_copy(t, now, now);
                    }
                }
                ExecMsg::Failed { task: work.task, msg, upstream }
            }
            None => ExecMsg::Run { work, run, staged },
        };
        if tx.send(msg).is_err() {
            return; // exec thread gone
        }
    }
}

/// The exec thread of one worker: runs kernels through `execute` (a
/// local kernel on this worker's lanes, or a remote node's `Exec`),
/// forwards staging failures unchanged (keeping completion order FIFO),
/// and reports outcomes with wall-clock spans for overlap accounting.
fn exec_loop(
    rx: mpsc::Receiver<ExecMsg>,
    done: mpsc::Sender<Completion>,
    wid: WorkerId,
    mut execute: impl FnMut(WorkItem, &RunCtx) -> Result<Duration, WorkFailure>,
) {
    while let Ok(msg) = rx.recv() {
        let (task, outcome) = match msg {
            ExecMsg::Failed { task, msg, upstream } => {
                (task, Outcome::StageFailed { msg, upstream })
            }
            ExecMsg::Run { work, run, staged } => {
                let (task, version, template, attempt) =
                    (work.task, work.version, work.template, work.attempt);
                // This thread records its own lifecycle events into its
                // own lane, so per-worker spans are monotonic by
                // construction.
                let start = run.wall0.elapsed();
                run.record(Some(wid), || TraceEvent::TaskStart {
                    time: Ts(start.as_nanos() as u64),
                    task,
                    worker: wid,
                    version,
                    template,
                    attempt,
                });
                let res = execute(work, &run);
                let end = run.wall0.elapsed();
                run.record(Some(wid), || {
                    let time = Ts(end.as_nanos() as u64);
                    match &res {
                        Ok(kernel) => TraceEvent::TaskEnd {
                            time,
                            task,
                            worker: wid,
                            kernel_ns: kernel.as_nanos() as u64,
                        },
                        Err(_) => {
                            TraceEvent::TaskFailed { time, task, worker: wid, version, attempt }
                        }
                    }
                });
                let outcome = match res {
                    Ok(kernel) => Outcome::Done {
                        kernel,
                        kernel_span: (start.as_nanos() as u64, end.as_nanos() as u64),
                        staged,
                    },
                    Err(fail) => Outcome::Failed(fail),
                };
                (task, outcome)
            }
        };
        if done.send((wid, task, outcome)).is_err() {
            return;
        }
    }
}

/// The threads of one worker and the channels into them.
struct WorkerThreads {
    /// Into the stager (overlapped staging). `None` on a remote worker,
    /// which always stages inline.
    stage: Option<mpsc::Sender<StagedItem>>,
    /// Straight into the exec thread (inline staging).
    exec: mpsc::Sender<ExecMsg>,
    threads: Vec<JoinHandle<()>>,
}

/// The native engine's long-lived threads, owned by the runtime: per
/// worker a stager and an exec thread (an emulated GPU's exec thread owns
/// its [`LanePool`]), plus the channel every exec thread reports
/// completions on.
pub(crate) struct Pipeline {
    workers: Vec<WorkerThreads>,
    done_tx: mpsc::Sender<Completion>,
    done_rx: mpsc::Receiver<Completion>,
}

fn spawn(name: String, f: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new().name(name).spawn(f).expect("spawn native engine thread")
}

impl Pipeline {
    fn new() -> Pipeline {
        let (done_tx, done_rx) = mpsc::channel();
        Pipeline { workers: Vec::new(), done_tx, done_rx }
    }

    /// Start the threads of every worker that has none yet: all of them
    /// at a runtime's first run, later only the workers
    /// [`Runtime::attach_remote_node`] added.
    pub(crate) fn grow(
        &mut self,
        workers: &[WorkerState],
        remotes: &RemotePlan,
        arena: &Arc<Arena>,
        cfg: &NativeConfig,
    ) {
        for w in &workers[self.workers.len()..] {
            let info = w.info;
            let wi = info.id.index();
            let (exec_tx, exec_rx) = mpsc::channel();
            let done = self.done_tx.clone();
            let arena = Arc::clone(arena);
            let mut threads = Vec::with_capacity(2);
            let stage = if let Some(node) = remotes.by_space.get(&info.space) {
                let node = Arc::clone(node);
                threads.push(spawn(format!("versa-exec-{wi}"), move || {
                    exec_loop(exec_rx, done, info.id, |work, run| {
                        execute_remote(node.as_ref(), &arena, info.space, work, run)
                    })
                }));
                None
            } else {
                let (stage_tx, stage_rx) = mpsc::channel();
                let (to_exec, stager_arena) = (exec_tx.clone(), Arc::clone(&arena));
                let link = cfg.link_bandwidth;
                threads.push(spawn(format!("versa-stage-{wi}"), move || {
                    stager_loop(stage_rx, to_exec, stager_arena, info.space, link, info.id)
                }));
                let lanes = if info.device.shares_host_memory() { 1 } else { cfg.gpu_lanes };
                threads.push(spawn(format!("versa-exec-{wi}"), move || {
                    let pool = (lanes > 1).then(|| LanePool::new(lanes));
                    let exec: &dyn LaneExec = match &pool {
                        Some(pool) => pool,
                        None => &SerialExec,
                    };
                    exec_loop(exec_rx, done, info.id, |work, _| {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            execute_item(work, &arena, info.space, exec)
                        }))
                        .map_err(|p| WorkFailure {
                            message: panic_message(p),
                            kind: FailureKind::Panic,
                        })
                    })
                }));
                Some(stage_tx)
            };
            self.workers.push(WorkerThreads { stage, exec: exec_tx, threads });
        }
    }

    /// The next completion. The pipeline's own `done_tx` keeps the
    /// channel open, so long waits check that every thread is still
    /// alive: a thread that died outside its panic guards becomes a
    /// coordinator panic instead of a hang.
    fn recv(&self) -> Completion {
        loop {
            match self.done_rx.recv_timeout(Duration::from_millis(100)) {
                Ok(done) => return done,
                Err(mpsc::RecvTimeoutError::Timeout) => assert!(
                    !self.workers.iter().flat_map(|w| &w.threads).any(JoinHandle::is_finished),
                    "a native engine thread died"
                ),
                Err(mpsc::RecvTimeoutError::Disconnected) => unreachable!("pipeline holds done_tx"),
            }
        }
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        // Hanging up every work channel stops the stagers, whose exit
        // drops the last senders into the exec threads, which then stop
        // (an exec thread drops its lane pool, joining the lanes).
        let threads: Vec<JoinHandle<()>> =
            self.workers.drain(..).flat_map(|w| w.threads).collect();
        for t in threads {
            // A kernel panic is caught on its thread, so a panicked engine
            // thread is a bug; report it, but never panic inside drop.
            if t.join().is_err() {
                eprintln!("versa: a native engine thread panicked");
            }
        }
    }
}

/// Nanoseconds of `stage` spans that intersect any `kernel` span —
/// staging time hidden under compute. Kernel spans are merged first;
/// stage spans never overlap each other (one sequential stager).
fn overlap_ns(kernel: &mut [(u64, u64)], stage: &[(u64, u64)]) -> u64 {
    kernel.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::with_capacity(kernel.len());
    for &(s, e) in kernel.iter() {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    let mut total = 0u64;
    for &(s, e) in stage {
        // First merged kernel interval that ends after this stage span
        // starts; walk forward while intervals still intersect it.
        let mut i = merged.partition_point(|&(_, ke)| ke <= s);
        while i < merged.len() && merged[i].0 < e {
            total += e.min(merged[i].1) - s.max(merged[i].0);
            i += 1;
        }
    }
    total
}

/// Run every submitted task to completion on the runtime's pipeline.
///
/// A kernel panic does not take the process down: the exec thread
/// catches the unwind, the coordinator rolls the task back to the ready
/// frontier (worker bookkeeping unwound, buffers restored by the arena's
/// unwind guard), reports the failure to the scheduler (quarantine
/// accounting), and retries elsewhere — until
/// [`RuntimeConfig::max_task_retries`](crate::RuntimeConfig) is
/// exhausted, which aborts with a [`RunError`] carrying the partial
/// report. An abort stops dispatching and drains every task already
/// dispatched before returning; the failing task goes back to the ready
/// pool, so the runtime stays usable.
///
/// With `max_dispatch` set, at most that many tasks are dispatched this
/// call (a *wave*); everything dispatched drains before returning, and
/// ready tasks beyond the budget stay pooled in the runtime.
///
/// [`RuntimeConfig::async_transfers`](crate::RuntimeConfig) selects how
/// copy-ins happen: overlapped on the workers' stagers with a bounded
/// lookahead (default), or inline on the coordinator in plan order
/// (DESIGN.md §2.2). Remote nodes always stage inline: shipping at
/// transfer time needs coordinator-ordered copies.
pub(crate) fn run_native(rt: &mut Runtime, max_dispatch: Option<u64>) -> Result<RunReport, RunError> {
    let remotes = rt.remote_plan();
    let EngineKind::Native { cfg, arena, pipeline } = &mut rt.engine else {
        unreachable!("run_native on a non-native runtime")
    };
    let link_bandwidth = cfg.link_bandwidth;
    let arena = Arc::clone(arena);
    // Taken out for the run so the coordinator can borrow the runtime
    // freely; put back below. Should the coordinator unwind, dropping it
    // joins the threads.
    let mut pipe = pipeline.take().unwrap_or_else(Pipeline::new);
    pipe.grow(&rt.workers, &remotes, &arena, cfg);

    let n_workers = rt.workers.len();
    let names = if rt.remotes.is_empty() {
        HashMap::new()
    } else {
        rt.templates
            .iter()
            .enumerate()
            .map(|(i, t)| (TemplateId(i as u32), t.name.clone()))
            .collect()
    };
    let wall0 = Instant::now();
    let sink = TraceSink::from_config(&rt.config.tracing, n_workers);
    let log_here = crate::tracing::begin_decision_log(rt, &sink);
    crate::tracing::record_live_created(rt, &sink, ts(wall0));
    let node_count = remotes.node_of_worker.iter().copied().max().map_or(1, |m| m as usize + 1);

    let mut run = Coordinator {
        pipe: &pipe,
        ctx: Arc::new(RunCtx { wall0, sink, names }),
        arena,
        link_bandwidth,
        inline: !rt.config.async_transfers || !remotes.by_space.is_empty(),
        remotes,
        // The running task plus `lookahead_depth` staging successors.
        inflight_cap: rt.config.lookahead_depth + 1,
        budget: max_dispatch.unwrap_or(u64::MAX),
        dispatched: 0,
        in_flight: 0,
        lane_busy: vec![0; n_workers],
        node_inflight: vec![0; node_count],
        outbox: (0..n_workers).map(|_| VecDeque::new()).collect(),
        ledger: StagingLedger::new(),
        rollbacks: HashMap::new(),
        attempts: HashMap::new(),
        lost_nodes: HashSet::new(),
        deferred_loss: Vec::new(),
        abort: None,
        kernel_spans: vec![Vec::new(); n_workers],
        stage_spans: vec![Vec::new(); n_workers],
        // The remaining fields are filled in by `finish`.
        report: RunReport {
            scheduler: String::new(),
            makespan: Duration::ZERO,
            tasks_executed: 0,
            transfers: TransferStats::default(),
            version_counts: HashMap::new(),
            worker_task_counts: vec![0; n_workers],
            worker_busy: vec![Duration::ZERO; n_workers],
            worker_transfers: vec![WorkerTransferStats::default(); n_workers],
            completed: false,
            profile_table: None,
            trace: None,
            failures: FailureReport::default(),
        },
    };

    loop {
        if run.abort.is_none() {
            run.dispatch(rt);
        }
        run.pump();
        if run.in_flight == 0 {
            if run.abort.is_some() || rt.graph.all_done() || run.dispatched >= run.budget {
                break; // done, wave budget spent, or aborted — and drained
            }
            panic!(
                "native engine stalled with {} live tasks and {} pooled tasks",
                rt.graph.live_tasks(),
                rt.pending.len()
            );
        }
        let (wid, tid, outcome) = run.pipe.recv();
        run.complete(rt, wid, tid, outcome);
        run.ledger.prune();
    }

    // An aborted run skips the flush (the graph still has live tasks and
    // the caller gets the partial report through the error); a partial
    // wave skips it too, leaving data in place for the next wave.
    if run.abort.is_none() && rt.config.flush_on_wait && rt.graph.all_done() {
        for t in rt.directory.flush_all_to_host() {
            run.report.transfers.record(t.kind(), t.bytes);
            run.copy(rt, &t, None);
        }
    }
    crate::tracing::end_decision_log(rt, log_here);
    let result = run.finish(rt);
    if let EngineKind::Native { pipeline, .. } = &mut rt.engine {
        *pipeline = Some(pipe);
    }
    result
}

/// One run's coordinator state: what has been dispatched where, the
/// staging ledger and rollback records, and the report being built.
struct Coordinator<'p> {
    pipe: &'p Pipeline,
    ctx: Arc<RunCtx>,
    arena: Arc<Arena>,
    link_bandwidth: Option<u64>,
    remotes: RemotePlan,
    /// Copies happen on the coordinator (see the pipeline comment above).
    inline: bool,
    inflight_cap: usize,
    budget: u64,
    dispatched: u64,
    /// Tasks dispatched and not yet completed, queued items included.
    in_flight: usize,
    /// Items inside each worker's threads (sent, not yet completed).
    lane_busy: Vec<usize>,
    node_inflight: Vec<usize>,
    /// Planned items not yet admitted to a stager.
    outbox: Vec<VecDeque<StagedItem>>,
    ledger: StagingLedger,
    rollbacks: HashMap<TaskId, Vec<Rollback>>,
    attempts: HashMap<TaskId, u32>,
    /// Nodes already declared lost — workers retired, loss recorded.
    lost_nodes: HashSet<u16>,
    /// Lost nodes whose `NodeLost` trace event waits until every task
    /// still in flight on the node has reported back: exec threads stamp
    /// `TaskStart` on their own clocks, so recording the loss at
    /// detection time can predate a sibling worker's already-running
    /// start. Draining first guarantees the loss stamp postdates every
    /// start on the node.
    deferred_loss: Vec<u16>,
    abort: Option<(TaskId, String)>,
    kernel_spans: Vec<Vec<(u64, u64)>>,
    stage_spans: Vec<Vec<(u64, u64)>>,
    report: RunReport,
}

impl Coordinator<'_> {
    /// Assign everything currently assignable within the wave budget,
    /// perform or plan each task's directory transitions, and hand the
    /// task to its worker: straight to the exec thread under inline
    /// staging, else into the outbox for the stager. The ready pool lives
    /// in the runtime so over-budget tasks carry to the next wave.
    fn dispatch(&mut self, rt: &mut Runtime) {
        let newly = rt.graph.take_newly_ready();
        if let Some(sink) = &self.ctx.sink {
            let lane = sink.coordinator();
            for &tid in &newly {
                sink.record(lane, TraceEvent::TaskReady { time: self.ctx.now(), task: tid });
            }
        }
        rt.pending.extend(newly);
        let remaining = self.budget - self.dispatched;
        if remaining == 0 {
            return;
        }
        if rt.config.fair_scheduling {
            rt.fair.order(&mut rt.pending, &rt.graph);
        }
        let assigned = drain_pool(
            &mut rt.pending,
            rt.scheduler.as_mut(),
            &rt.templates,
            &mut rt.workers,
            &rt.directory,
            &mut rt.graph,
            (self.budget != u64::MAX).then_some(remaining as usize),
            rt.config.batched_bids,
        );
        self.dispatched += assigned.len() as u64;
        if rt.config.fair_scheduling {
            rt.fair.note_dispatched(&rt.graph, assigned.iter().map(|(t, _)| t));
        }
        crate::tracing::drain_decisions(rt, &self.ctx.sink, self.ctx.now());
        for (tid, a) in assigned {
            let wi = a.worker.index();
            let space = rt.workers[wi].info.space;
            let accesses = rt.graph.node(tid).instance.accesses.clone();
            let ops = self.stage(rt, tid, a.worker, space, &accesses);
            let template = rt.graph.node(tid).instance.template;
            let kernel = if self.remotes.by_space.contains_key(&space) {
                // Remote worker: the kernel runs on the node; the exec
                // side ignores this placeholder.
                Arc::new(|_: &mut KernelCtx<'_>| {}) as NativeFn
            } else {
                rt.kernels
                    .get(&(template, a.version))
                    .unwrap_or_else(|| {
                        panic!(
                            "no native kernel bound for ({:?}, {:?})",
                            rt.templates.get(template).name,
                            a.version
                        )
                    })
                    .clone()
            };
            rt.graph.mark_running(tid);
            let work = WorkItem {
                task: tid,
                kernel,
                accesses,
                version: a.version,
                template,
                attempt: self.attempts.get(&tid).copied().unwrap_or(0) + 1,
            };
            self.in_flight += 1;
            self.node_inflight[self.remotes.node_of_worker[wi] as usize] += 1;
            let run = Arc::clone(&self.ctx);
            if self.inline {
                self.lane_busy[wi] += 1;
                self.pipe.workers[wi]
                    .exec
                    .send(ExecMsg::Run { work, run, staged: Staged::new() })
                    .expect("exec thread died");
            } else {
                self.outbox[wi].push_back(StagedItem { work, run, ops });
            }
        }
    }

    /// Acquire every access of `tid` in `space`. Inline staging performs
    /// each copy right here, in plan order (sources are always
    /// materialized in time because coordinator order matches directory
    /// order). Overlapped staging instead returns the `StageOp`s for the
    /// worker's stager and records the task's rollback ledger — no byte
    /// movement.
    fn stage(
        &mut self,
        rt: &mut Runtime,
        tid: TaskId,
        worker: WorkerId,
        space: MemSpace,
        accesses: &[(Region, AccessMode)],
    ) -> Vec<StageOp> {
        let mut ops: Vec<StageOp> = Vec::new();
        let mut rb: Vec<Rollback> = Vec::new();
        for (region, mode) in accesses {
            let data = region.data;
            if !self.inline && mode.writes() {
                if let Some(snap) = rt.directory.snapshot(data) {
                    rb.push(Rollback::Restore(data, snap));
                }
            }
            if let Some(t) = rt.directory.acquire(data, space, *mode) {
                // Counted at plan time, in plan order, in both modes —
                // so fault-free runs produce identical TransferStats.
                self.report.transfers.record(t.kind(), t.bytes);
                let wt = &mut self.report.worker_transfers[worker.index()];
                wt.staged_bytes += t.bytes;
                wt.staged_count += 1;
                if self.inline {
                    let took = self.copy(rt, &t, Some(worker));
                    self.report.worker_transfers[worker.index()].stage_time += took;
                } else {
                    if !mode.writes() {
                        // A pure read copy-in rolls back by retraction;
                        // a write's snapshot (above) already covers its
                        // transfer.
                        rb.push(Rollback::Retract(data, space));
                    }
                    let (wait_src, publish) = self.ledger.plan_copy(&t);
                    let inject_fault = rt.take_stage_fault(data);
                    ops.push(StageOp::Copy { t, wait_src, publish, inject_fault });
                }
            } else if !self.inline && mode.reads() {
                if let Some(cell) = self.ledger.pending(data, space) {
                    ops.push(StageOp::WaitLocal(cell));
                }
            }
            if mode.writes() {
                // Output-only accesses get no copy-in, but the kernel
                // still needs backing memory in `space`.
                let len = rt.directory.bytes(data) as usize;
                if self.inline {
                    self.arena.ensure(data, space, len);
                } else {
                    // Plan-order invariant: a writer's datum has no
                    // pending cells (the graph serialized all prior
                    // accessors); drop stale failed cells so they stop
                    // gating future readers.
                    self.ledger.note_write(data);
                    ops.push(StageOp::Ensure { data, len });
                }
            }
        }
        if !self.inline {
            self.rollbacks.insert(tid, rb);
        }
        ops
    }

    /// Move one transfer's bytes on the coordinator — an inline copy-in
    /// (`by` its worker) or the final flush (`by` none) — and feed the
    /// measured time to the scheduler's bandwidth EWMA.
    fn copy(&mut self, rt: &mut Runtime, t: &Transfer, by: Option<WorkerId>) -> Duration {
        let start = self.ctx.now();
        let t0 = Instant::now();
        self.arena.perform(t);
        if let Some(node) = self.remotes.by_space.get(&t.to) {
            // Mirror-space destination: push the bytes over the wire
            // inside the timed window, so the elapsed time fed to
            // `transfer_done` below is the real NIC cost and the
            // scheduler's bandwidth EWMA learns the link. A transport
            // error is deferred: the exec on the dead node fails with
            // `NodeLost` and the retry machinery takes over.
            let buf = self.arena.read_arc(t.data, t.to);
            let _ = node.ship(t.data, buf.as_bytes());
        }
        throttle_link(self.link_bandwidth, t.bytes, t0.elapsed());
        let took = t0.elapsed();
        self.ctx.record(None, || TraceEvent::Transfer {
            start,
            end: self.ctx.now(),
            data: t.data,
            from: t.from,
            to: t.to,
            bytes: t.bytes,
            by,
        });
        rt.scheduler.transfer_done(t.to, t.bytes, took);
        took
    }

    /// Admit queued items to each worker's stager up to the lookahead cap.
    fn pump(&mut self) {
        for (wi, queue) in self.outbox.iter_mut().enumerate() {
            while self.lane_busy[wi] < self.inflight_cap {
                let Some(item) = queue.pop_front() else { break };
                let stage = self.pipe.workers[wi].stage.as_ref();
                stage.expect("remote workers stage inline").send(item).expect("staging lane died");
                self.lane_busy[wi] += 1;
            }
        }
    }

    /// Fold one completion back into the graph, the scheduler and the
    /// report.
    fn complete(&mut self, rt: &mut Runtime, wid: WorkerId, tid: TaskId, outcome: Outcome) {
        let wi = wid.index();
        self.in_flight -= 1;
        self.lane_busy[wi] -= 1;
        self.node_inflight[self.remotes.node_of_worker[wi] as usize] -= 1;
        let q = rt.workers[wi].start_next().expect("completion from a worker with an empty queue");
        assert_eq!(q.task, tid, "worker completions must be FIFO");
        rt.workers[wi].finish(tid);

        match outcome {
            Outcome::Done { kernel, kernel_span, staged } => {
                self.rollbacks.remove(&tid);
                rt.graph.complete(tid, wid);
                let node = rt.graph.node(tid);
                let assignment = node.assignment.expect("completed task was assigned");
                rt.scheduler.task_finished(&node.instance, assignment, kernel);
                let report = &mut self.report;
                let key = (node.instance.template, assignment.version);
                *report.version_counts.entry(key).or_insert(0) += 1;
                let space = rt.workers[wi].info.space;
                for (bytes, start, end) in staged {
                    let took = Duration::from_nanos(end - start);
                    rt.scheduler.transfer_done(space, bytes, took);
                    report.worker_transfers[wi].stage_time += took;
                    self.stage_spans[wi].push((start, end));
                }
                report.worker_task_counts[wi] += 1;
                report.worker_busy[wi] += kernel;
                report.worker_transfers[wi].compute_time += kernel;
                report.tasks_executed += 1;
                self.kernel_spans[wi].push(kernel_span);
            }
            Outcome::Failed(fail) => {
                // Kernel (or remote) failure: staging succeeded, so the
                // directory's optimistic state is real — no rollback.
                self.rollbacks.remove(&tid);
                self.charge(rt, wid, tid, fail);
            }
            Outcome::StageFailed { msg, upstream } => {
                // The kernel never ran: undo this task's optimistic
                // directory updates (LIFO, so a same-task read copy-in
                // preceding a write acquire of the same datum unwinds
                // correctly), then requeue.
                for op in self.rollbacks.remove(&tid).unwrap_or_default().into_iter().rev() {
                    match op {
                        Rollback::Retract(d, s) => rt.directory.retract(d, s),
                        Rollback::Restore(d, st) => rt.directory.restore(d, st),
                    }
                }
                if upstream {
                    // Collateral of another task's staging failure:
                    // replan without charging this task an attempt — the
                    // origin task's retry budget bounds the cascade.
                    // Deliberately not traced.
                    rt.graph.requeue(tid);
                } else {
                    // A staging failure never reached the exec thread, so
                    // no TaskStart exists — record the terminal event
                    // here (Failed-without-Start is legal).
                    let assignment = rt.graph.node(tid).assignment;
                    let version = assignment.expect("failed task was assigned").version;
                    let attempt = self.attempts.get(&tid).copied().unwrap_or(0) + 1;
                    let time = self.ctx.now();
                    self.ctx.record(None, || TraceEvent::TaskFailed {
                        time,
                        task: tid,
                        worker: wid,
                        version,
                        attempt,
                    });
                    let fail = WorkFailure { message: msg, kind: FailureKind::Panic };
                    self.charge(rt, wid, tid, fail);
                }
            }
        }

        let (node_inflight, ctx) = (&self.node_inflight, &self.ctx);
        self.deferred_loss.retain(|&node| {
            if node_inflight[node as usize] > 0 {
                return true;
            }
            ctx.record(None, || TraceEvent::NodeLost { time: ctx.now(), node });
            false
        });
    }

    /// Charge one failed attempt: log it, report it to the scheduler, and
    /// return the task to the ready pool. Node loss retires the node
    /// instead of burning the task's retry budget; any other failure past
    /// `max_task_retries` aborts the run (the first such task is the one
    /// reported).
    fn charge(&mut self, rt: &mut Runtime, wid: WorkerId, tid: TaskId, fail: WorkFailure) {
        let node = rt.graph.node(tid);
        let assignment = node.assignment.expect("failed task was assigned");
        let attempt = {
            let n = self.attempts.entry(tid).or_insert(0);
            *n += 1;
            *n
        };
        self.report.failures.events.push(TaskFailure {
            task: tid,
            template: node.instance.template,
            version: assignment.version,
            worker: wid,
            kind: fail.kind,
            message: fail.message.clone(),
            attempt,
        });
        rt.scheduler.task_failed(&node.instance, assignment, fail.kind);
        rt.graph.requeue(tid);
        if fail.kind == FailureKind::NodeLost {
            // Charge the node, not the version: retire every worker the
            // lost node hosted so the scheduler stops placing work
            // there, and record the loss once it drained.
            let node = self.remotes.node_of_worker[wid.index()];
            if self.lost_nodes.insert(node) {
                for (i, w) in rt.workers.iter_mut().enumerate() {
                    if self.remotes.node_of_worker[i] == node {
                        w.retire();
                    }
                }
                self.deferred_loss.push(node);
            }
        } else if attempt > rt.config.max_task_retries {
            self.abort.get_or_insert((tid, fail.message));
            return;
        }
        self.report.failures.retries += 1;
    }

    /// Complete the run's report (or the abort error carrying it).
    fn finish(mut self, rt: &Runtime) -> Result<RunReport, RunError> {
        debug_assert!(self.deferred_loss.is_empty(), "a drained run leaves no loss deferred");
        let mut report = self.report;
        let spans = self.kernel_spans.iter_mut().zip(&self.stage_spans);
        for (wt, (kernel, stage)) in report.worker_transfers.iter_mut().zip(spans) {
            wt.overlap_time = Duration::from_nanos(overlap_ns(kernel, stage));
        }
        report.scheduler = rt.scheduler.name().to_string();
        report.makespan = self.ctx.wall0.elapsed();
        report.completed = rt.graph.all_done();
        report.profile_table =
            rt.scheduler.as_versioning().map(|v| v.profiles().render_table(&rt.templates));
        report.trace =
            self.ctx.sink.as_ref().map(|s| s.drain(crate::tracing::trace_meta(rt, "native")));
        report.failures.quarantined = rt.quarantined_versions();
        match self.abort {
            Some((task, message)) => {
                Err(RunError { task, kind: FailureKind::Panic, message, report: Box::new(report) })
            }
            None => Ok(report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_config_validation() {
        assert!(NativeConfig::new(2, 1).validate().is_ok());
        assert!(NativeConfig { smp_workers: 0, gpus: 0, ..NativeConfig::new(0, 0) }
            .validate()
            .is_err());
        assert!(NativeConfig { gpu_lanes: 0, ..NativeConfig::new(1, 1) }.validate().is_err());
        assert!(NativeConfig { gpu_lanes: 2, ..NativeConfig::new(0, 1) }.validate().is_ok());
        assert!(NativeConfig { link_bandwidth: Some(0), ..NativeConfig::new(1, 0) }
            .validate()
            .is_err());
        assert!(NativeConfig { link_bandwidth: Some(1 << 30), ..NativeConfig::new(1, 1) }
            .validate()
            .is_ok());
    }

    #[test]
    fn default_config_is_small_but_valid() {
        let c = NativeConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.gpu_lanes, 4);
    }

    #[test]
    fn oversubscription_warns_but_validates() {
        let c = NativeConfig { gpu_lanes: 100_000, ..NativeConfig::new(1, 1) };
        assert!(c.validate().is_ok());
        assert!(!c.warnings().is_empty());
        // No GPUs → lane count is irrelevant, no warning either.
        let smp_only = NativeConfig { gpu_lanes: 100_000, ..NativeConfig::new(2, 0) };
        assert!(smp_only.warnings().is_empty());
    }

    #[test]
    fn ctx_split_borrow_and_par_bands() {
        let mut bufs = vec![AlignedBuf::zeroed(4 * 8)];
        let shared = Arc::new(AlignedBuf::from_bytes(&7.0f64.to_ne_bytes()));
        let slots = vec![
            Slot::Owned { buf: 0, range: 0..32, writable: true },
            Slot::Shared(shared, 0..8),
        ];
        let mut ctx = KernelCtx { bufs: &mut bufs, slots, exec: &SerialExec };
        assert_eq!(ctx.lanes(), 1);
        assert_eq!(ctx.arg_count(), 2);
        let (reads, out) = ctx.f64_reads_and_mut(&[1], 0);
        assert_eq!(reads[0], &[7.0]);
        out.fill(3.0);
        assert_eq!(ctx.f64(0), &[3.0; 4]);

        let sum = std::sync::Mutex::new(0usize);
        ctx.par_bands(10, |band| {
            *sum.lock().unwrap() += band.len();
        });
        assert_eq!(*sum.lock().unwrap(), 10);
    }

    #[test]
    #[should_panic(expected = "aliases written argument")]
    fn split_borrow_rejects_aliasing() {
        let mut bufs = vec![AlignedBuf::zeroed(16)];
        let slots = vec![
            Slot::Owned { buf: 0, range: 0..16, writable: true },
            Slot::Owned { buf: 0, range: 0..8, writable: false },
        ];
        let mut ctx = KernelCtx { bufs: &mut bufs, slots, exec: &SerialExec };
        let _ = ctx.f64_reads_and_mut(&[1], 0);
    }
}
