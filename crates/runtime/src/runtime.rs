//! The user-facing runtime: data allocation, task submission, execution.

use crate::fair::FairState;
use crate::graph::TaskGraph;
use crate::native::{KernelCtx, NativeConfig};
use crate::report::QuarantinedVersion;
use crate::{RunError, RunReport, RuntimeConfig};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use versa_core::{
    make_scheduler, DeviceKind, JobTag, Scheduler, TaskId, TaskInstance, TemplateBuilder,
    TemplateId, TemplateRegistry, VersionId, VersioningScheduler, WorkerId, WorkerInfo,
    WorkerState,
};
use versa_mem::{AccessMode, AlignedBuf, Arena, DataId, DeviceCache, Directory, MemSpace, Region};
use versa_sim::{CostTable, PlatformConfig};

/// A task implementation body for native execution.
pub type NativeFn = Arc<dyn Fn(&mut KernelCtx<'_>) + Send + Sync>;

pub(crate) enum EngineKind {
    /// Virtual-time execution on a simulated heterogeneous node. The
    /// device caches persist across runs/waves so residency decisions
    /// made for one job carry over to the next.
    Sim { platform: PlatformConfig, caches: Option<Vec<DeviceCache>> },
    /// Real execution on OS threads with emulated accelerator devices.
    /// The pipeline threads start at the first run and live until the
    /// runtime drops.
    Native { cfg: NativeConfig, arena: Arc<Arena>, pipeline: Option<crate::native::Pipeline> },
}

/// The versa runtime: an OmpSs-like task runtime with multi-version task
/// scheduling.
///
/// Construct with [`Runtime::simulated`] (virtual time; reproduces the
/// paper's experiments without GPUs) or [`Runtime::native`] (real threads,
/// real memory copies, real kernels). Then:
///
/// 1. register task templates and their versions ([`Runtime::template`]);
/// 2. bind execution costs ([`Runtime::bind_cost`], simulated runs) and/or
///    kernel bodies ([`Runtime::bind_native`], native runs);
/// 3. allocate data ([`Runtime::alloc_bytes`], [`Runtime::alloc_from_f64`], …);
/// 4. submit tasks ([`Runtime::task`] / [`Runtime::submit`]);
/// 5. [`Runtime::run`] — the `taskwait`: executes everything submitted so
///    far and returns a [`RunReport`].
///
/// State (data placement, scheduler profiles) persists across `run()`
/// calls, so iterative applications keep benefiting from what the
/// versioning scheduler has learned.
///
/// ```
/// use std::time::Duration;
/// use versa_core::{DeviceKind, SchedulerKind, VersionId};
/// use versa_runtime::{Runtime, RuntimeConfig};
/// use versa_sim::PlatformConfig;
///
/// let mut rt = Runtime::simulated(
///     RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
///     PlatformConfig::minotauro(2, 1),
/// );
/// let task = rt
///     .template("axpy")
///     .main("axpy_cuda", &[DeviceKind::Cuda])
///     .version("axpy_smp", &[DeviceKind::Smp])
///     .register();
/// rt.bind_cost(task, VersionId(0), |_| Duration::from_millis(1));
/// rt.bind_cost(task, VersionId(1), |_| Duration::from_millis(8));
///
/// let x = rt.alloc_bytes(1 << 20);
/// let y = rt.alloc_bytes(1 << 20);
/// for _ in 0..20 {
///     rt.task(task).read(x).read_write(y).submit();
/// }
/// let report = rt.run().expect("no task exhausted its retries");
/// assert_eq!(report.tasks_executed, 20);
/// assert!(report.makespan > Duration::ZERO);
/// ```
pub struct Runtime {
    pub(crate) config: RuntimeConfig,
    pub(crate) templates: TemplateRegistry,
    pub(crate) directory: Directory,
    pub(crate) graph: TaskGraph,
    pub(crate) workers: Vec<WorkerState>,
    pub(crate) scheduler: Box<dyn Scheduler>,
    pub(crate) costs: CostTable,
    pub(crate) kernels: HashMap<(TemplateId, VersionId), NativeFn>,
    pub(crate) engine: EngineKind,
    pub(crate) run_count: u64,
    /// Ready tasks not yet dispatched — persists across bounded waves.
    pub(crate) pending: VecDeque<TaskId>,
    /// Cross-job fair-queuing dispatch accounting.
    pub(crate) fair: FairState,
    /// Tag stamped onto subsequently submitted tasks (multi-job service).
    current_job: Option<JobTag>,
    /// Test hook: pending injected staging faults per datum (native
    /// engine, async mode). See [`Runtime::inject_stage_fault`].
    pub(crate) stage_faults: HashMap<DataId, u32>,
    pub(crate) remotes: Vec<crate::remote::RemoteAttachment>,
    next_data: u32,
}

impl Runtime {
    fn make_workers(smp: usize, gpus: usize) -> Vec<WorkerState> {
        let mut workers = Vec::with_capacity(smp + gpus);
        for i in 0..smp {
            workers.push(WorkerState::new(WorkerInfo {
                id: WorkerId(i as u16),
                device: DeviceKind::Smp,
                space: MemSpace::HOST,
            }));
        }
        for g in 0..gpus {
            workers.push(WorkerState::new(WorkerInfo {
                id: WorkerId((smp + g) as u16),
                device: DeviceKind::Cuda,
                space: MemSpace::device(g as u16),
            }));
        }
        workers
    }

    /// Runtime over the simulated heterogeneous node.
    ///
    /// # Panics
    /// Panics if `platform` fails validation.
    pub fn simulated(config: RuntimeConfig, platform: PlatformConfig) -> Runtime {
        platform.validate().expect("invalid platform");
        let mut workers = Self::make_workers(platform.smp_workers, platform.gpus);
        // Remote-node workers: SMP cores living in the node's mirror
        // space `device(gpus + j)`, reached over its NIC link — the
        // simulated analogue of `attach_remote_node`.
        for (j, node) in platform.nodes.iter().enumerate() {
            let space = MemSpace::device((platform.gpus + j) as u16);
            for _ in 0..node.smp_workers {
                workers.push(WorkerState::new(WorkerInfo {
                    id: WorkerId(workers.len() as u16),
                    device: DeviceKind::Smp,
                    space,
                }));
            }
        }
        let scheduler = make_scheduler(&config.scheduler);
        Runtime {
            config,
            templates: TemplateRegistry::new(),
            directory: Directory::new(),
            graph: TaskGraph::new(),
            workers,
            scheduler,
            costs: CostTable::new(),
            kernels: HashMap::new(),
            engine: EngineKind::Sim { platform, caches: None },
            run_count: 0,
            pending: VecDeque::new(),
            fair: FairState::default(),
            current_job: None,
            stage_faults: HashMap::new(),
            remotes: Vec::new(),
            next_data: 0,
        }
    }

    /// Runtime executing for real on OS threads. SMP workers run kernels
    /// on one core each; each emulated GPU runs kernels on an internal
    /// pool of [`NativeConfig::gpu_lanes`] cores, giving it a genuine
    /// speed advantage for parallel kernels. Construction spawns no
    /// thread: the workers start at the first run, park between runs and
    /// are joined when the runtime drops.
    pub fn native(config: RuntimeConfig, native: NativeConfig) -> Runtime {
        native.validate().expect("invalid native config");
        let workers = Self::make_workers(native.smp_workers, native.gpus);
        let scheduler = make_scheduler(&config.scheduler);
        let arena = Arc::new(Arena::new(native.gpus));
        Runtime {
            config,
            templates: TemplateRegistry::new(),
            directory: Directory::new(),
            graph: TaskGraph::new(),
            workers,
            scheduler,
            costs: CostTable::new(),
            kernels: HashMap::new(),
            engine: EngineKind::Native { cfg: native, arena, pipeline: None },
            run_count: 0,
            pending: VecDeque::new(),
            fair: FairState::default(),
            current_job: None,
            stage_faults: HashMap::new(),
            remotes: Vec::new(),
            next_data: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Mutable access to the configuration. The behavioural flags
    /// (`prefetch`, `flush_on_wait`, `fair_scheduling`, …) take effect
    /// on the next run; changing `scheduler` here has no effect — the
    /// policy object was built at construction.
    pub fn config_mut(&mut self) -> &mut RuntimeConfig {
        &mut self.config
    }

    /// The registered templates.
    pub fn templates(&self) -> &TemplateRegistry {
        &self.templates
    }

    /// Worker descriptions (SMP workers first, then one per GPU).
    pub fn workers(&self) -> Vec<WorkerInfo> {
        self.workers.iter().map(|w| w.info).collect()
    }

    /// Attach a remote node: its advertised workers become schedulable
    /// like local ones, against a fresh *mirror space* in the native
    /// arena (see [`crate::remote`] for the data plane). Returns the
    /// node's dense 1-based id (0 is the coordinator process itself).
    ///
    /// Remote workers stage inline (copies ship from the coordinator in
    /// plan order), so attaching a node turns `async_transfers` off for
    /// this runtime. Once the runtime has run, the new workers' threads
    /// start here.
    ///
    /// # Panics
    /// Panics on a simulated runtime (use
    /// [`PlatformConfig::nodes`](versa_sim::PlatformConfig) there) or if
    /// the node advertises zero workers.
    pub fn attach_remote_node(&mut self, node: Arc<dyn crate::remote::RemoteNode>) -> u16 {
        let EngineKind::Native { arena, .. } = &self.engine else {
            panic!("attach_remote_node requires a native runtime");
        };
        let caps = node.caps();
        assert!(caps.smp_workers > 0, "remote node {:?} advertises no workers", caps.name);
        let space = MemSpace::device((arena.space_count() - 1) as u16);
        arena.add_spaces(1);
        for _ in 0..caps.smp_workers {
            self.workers.push(WorkerState::new(WorkerInfo {
                id: WorkerId(self.workers.len() as u16),
                device: DeviceKind::Smp,
                space,
            }));
        }
        let node_id = (self.remotes.len() + 1) as u16;
        self.config.async_transfers = false;
        self.remotes.push(crate::remote::RemoteAttachment { node, node_id, space });
        let plan = self.remote_plan();
        if let EngineKind::Native { cfg, arena, pipeline: Some(pipeline) } = &mut self.engine {
            pipeline.grow(&self.workers, &plan, arena, cfg);
        }
        node_id
    }

    /// Which cluster node hosts a worker (0 = this process).
    pub fn node_of_worker(&self, worker: WorkerId) -> u16 {
        let space = self.workers[worker.index()].info.space;
        if let EngineKind::Sim { platform, .. } = &self.engine {
            // Simulated nodes: device spaces past the GPUs are node
            // mirror spaces (node j at device(gpus + j), 1-based id).
            return match space.device_index() {
                Some(d) if usize::from(d) >= platform.gpus => {
                    (usize::from(d) - platform.gpus + 1) as u16
                }
                _ => 0,
            };
        }
        self.remotes.iter().find(|r| r.space == space).map_or(0, |r| r.node_id)
    }

    /// Snapshot the remote lookup tables the native engine needs.
    pub(crate) fn remote_plan(&self) -> crate::remote::RemotePlan {
        crate::remote::RemotePlan {
            by_space: self
                .remotes
                .iter()
                .map(|r| (r.space, Arc::clone(&r.node)))
                .collect(),
            node_of_worker: self
                .workers
                .iter()
                .map(|w| {
                    self.remotes
                        .iter()
                        .find(|r| r.space == w.info.space)
                        .map_or(0, |r| r.node_id)
                })
                .collect(),
        }
    }

    /// The native arena, when this is a native runtime — the worker
    /// process side of `versa-net` executes kernels against it directly.
    pub fn arena(&self) -> Option<Arc<Arena>> {
        match &self.engine {
            EngineKind::Native { arena, .. } => Some(Arc::clone(arena)),
            EngineKind::Sim { .. } => None,
        }
    }

    /// Execute a bound kernel by template *name* against host-space data,
    /// outside the engines — the remote worker process path: no graph, no
    /// scheduler, panic-safe. Returns the measured kernel time.
    pub fn execute_bound_kernel(
        &self,
        template: &str,
        version: VersionId,
        accesses: &[(Region, AccessMode)],
    ) -> Result<std::time::Duration, String> {
        let arena = self.arena().ok_or("execute_bound_kernel requires a native runtime")?;
        let tpl = self
            .templates
            .by_name(template)
            .ok_or_else(|| format!("unknown template {template:?}"))?;
        let kernel = self
            .kernels
            .get(&(tpl, version))
            .ok_or_else(|| format!("no native kernel bound for ({template:?}, {version})"))?
            .clone();
        crate::native::execute_detached(kernel, accesses.to_vec(), &arena, MemSpace::HOST)
    }

    /// Snapshot the bound native kernels and arena into a standalone,
    /// thread-safe executor — what a remote worker process shares across
    /// its serve threads (the full `Runtime` is not `Sync`). `None` on
    /// the sim engine.
    pub fn detach_executor(&self) -> Option<DetachedExecutor> {
        let arena = self.arena()?;
        let kernels = self
            .kernels
            .iter()
            .map(|(&(tpl, v), k)| ((self.templates.get(tpl).name.clone(), v), k.clone()))
            .collect();
        Some(DetachedExecutor { kernels, arena })
    }

    /// Start declaring a task template (the `#pragma omp task` +
    /// `implements` annotations of paper Fig. 4).
    pub fn template(&mut self, name: &str) -> TemplateBuilder<'_> {
        self.templates.template(name)
    }

    /// Bind a simulated execution-time model for one version.
    pub fn bind_cost(
        &mut self,
        template: TemplateId,
        version: VersionId,
        f: impl Fn(u64) -> std::time::Duration + Send + Sync + 'static,
    ) {
        self.costs.set_fn(template, version, f);
    }

    /// Bind a native kernel body for one version.
    pub fn bind_native(
        &mut self,
        template: TemplateId,
        version: VersionId,
        f: impl Fn(&mut KernelCtx<'_>) + Send + Sync + 'static,
    ) {
        self.kernels.insert((template, version), Arc::new(f));
    }

    /// Replace or tweak the scheduling policy in place (e.g. to install
    /// a baseline with non-default parameters). Only do this before any
    /// task has been submitted; swapping mid-run discards learned state.
    pub fn scheduler_mut(&mut self) -> &mut Box<dyn Scheduler> {
        &mut self.scheduler
    }

    /// The versioning scheduler, if that is the configured policy — for
    /// seeding profile hints or reading the learned Table I.
    pub fn versioning(&self) -> Option<&VersioningScheduler> {
        self.scheduler.as_versioning()
    }

    /// Mutable access to the versioning scheduler, if configured.
    pub fn versioning_mut(&mut self) -> Option<&mut VersioningScheduler> {
        self.scheduler.as_versioning_mut()
    }

    // ------------------------------------------------------------------
    // Data management
    // ------------------------------------------------------------------

    fn register_data(&mut self, bytes: u64) -> DataId {
        let id = DataId(self.next_data);
        self.next_data += 1;
        self.directory.register(id, bytes, MemSpace::HOST);
        id
    }

    /// Allocate `bytes` bytes of runtime-managed data (zero-filled in
    /// native mode; contentless in simulated mode).
    pub fn alloc_bytes(&mut self, bytes: u64) -> DataId {
        let id = self.register_data(bytes);
        if let EngineKind::Native { arena, .. } = &self.engine {
            arena.alloc_host_zeroed(id, bytes as usize);
        }
        id
    }

    /// Allocate runtime-managed data initialized from an `f64` slice.
    pub fn alloc_from_f64(&mut self, init: &[f64]) -> DataId {
        let id = self.register_data(std::mem::size_of_val(init) as u64);
        if let EngineKind::Native { arena, .. } = &self.engine {
            arena.alloc_host_buf(id, AlignedBuf::from_f64(init));
        }
        id
    }

    /// Allocate runtime-managed data initialized from an `f32` slice.
    pub fn alloc_from_f32(&mut self, init: &[f32]) -> DataId {
        let id = self.register_data(std::mem::size_of_val(init) as u64);
        if let EngineKind::Native { arena, .. } = &self.engine {
            arena.alloc_host_buf(id, AlignedBuf::from_f32(init));
        }
        id
    }

    /// Size of an allocation in bytes.
    pub fn data_bytes(&self, id: DataId) -> u64 {
        self.directory.bytes(id)
    }

    /// Free a runtime-managed allocation: the directory forgets it and
    /// (in native mode) every copy is dropped, remote nodes' included.
    ///
    /// # Panics
    /// Panics if tasks touching the allocation are still pending or in
    /// flight (use [`Runtime::try_free`] for a recoverable check).
    pub fn free(&mut self, id: DataId) {
        self.try_free(id).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Free an allocation, or report why it cannot be freed yet. Unlike
    /// the old whole-graph gate, only tasks that actually reference the
    /// allocation block the free — in a multi-job service, one job can
    /// release its data while another job's tasks are still queued.
    ///
    /// # Errors
    /// Returns a description of the conflict when unfinished tasks still
    /// reference the allocation; the allocation is left untouched.
    pub fn try_free(&mut self, id: DataId) -> Result<(), FreeError> {
        let users = self.graph.live_users(id);
        if users > 0 {
            return Err(FreeError { data: id, live_users: users });
        }
        self.directory.unregister(id);
        self.graph.forget_data(id);
        if let EngineKind::Native { arena, .. } = &self.engine {
            // A node holds a copy only if its mirror space does: every
            // shipment and every written-back output lands there too.
            for remote in &self.remotes {
                if arena.has(id, remote.space) {
                    remote.node.free(id);
                }
            }
            arena.free(id);
        }
        Ok(())
    }

    /// Recycle graph storage for completed tasks: drop every finished
    /// task with an id below `before` from the front of the graph's
    /// window (typically `before` is the earliest task id any
    /// still-active job owns — a pruned task's node can no longer be
    /// inspected). Returns how many nodes were recycled. `versa-serve`
    /// calls this between waves so steady-state admission allocates
    /// O(live window), not O(jobs ever served).
    pub fn prune_done_tasks(&mut self, before: TaskId) -> usize {
        self.graph.prune_done_prefix(before)
    }

    /// Drop the fair-queuing dispatch account of a finished job, so a
    /// long-running service's accounting table does not grow with every
    /// job ever served. Call only once the job has no tasks left.
    pub fn forget_job(&mut self, job: u64) {
        self.fair.forget_job(job);
    }

    /// Serialize the versioning scheduler's learned profile to the hints
    /// text format (paper §VII: a file "written by OmpSs runtime from a
    /// previous application's execution"). Returns `None` when another
    /// policy is active.
    pub fn save_hints(&self) -> Option<String> {
        self.scheduler
            .as_versioning()
            .map(|v| versa_core::profile::render_hints(v.profiles(), &self.templates))
    }

    /// Seed the versioning scheduler from hints text produced by
    /// [`Runtime::save_hints`]. Returns `(applied, skipped)` record
    /// counts, or an error for malformed text — including a
    /// [`PolicyMismatch`](versa_core::profile::HintsError::PolicyMismatch)
    /// when the file was recorded under different bucketing/mean
    /// policies than the active scheduler uses.
    ///
    /// # Panics
    /// Panics if the active policy is not the versioning scheduler.
    pub fn load_hints(&mut self, text: &str) -> Result<(usize, usize), versa_core::profile::HintsError> {
        let file = versa_core::profile::parse_hints(text)?;
        let templates = self.templates.clone();
        let scheduler = self
            .scheduler
            .as_versioning_mut()
            .expect("load_hints requires the versioning scheduler");
        versa_core::profile::apply_hints(scheduler.profiles_mut(), &templates, &file)
    }

    /// Read data back as `f64`s, flushing the latest copy to the host
    /// first (the `taskwait on(...)` idiom). Native engine only.
    ///
    /// # Panics
    /// Panics in simulated mode (there are no bytes to read) or if tasks
    /// touching the datum are still in flight (call [`Runtime::run`]
    /// first).
    pub fn read_f64(&mut self, id: DataId) -> Vec<f64> {
        let bytes = self.read_bytes(id);
        bytes.chunks_exact(8).map(|c| f64::from_ne_bytes(c.try_into().unwrap())).collect()
    }

    /// Read data back as `f32`s (see [`Runtime::read_f64`]).
    pub fn read_f32(&mut self, id: DataId) -> Vec<f32> {
        let bytes = self.read_bytes(id);
        bytes.chunks_exact(4).map(|c| f32::from_ne_bytes(c.try_into().unwrap())).collect()
    }

    fn read_bytes(&mut self, id: DataId) -> Vec<u8> {
        assert!(
            self.graph.live_users(id) == 0,
            "read of {id:?} while tasks referencing it are in flight; run() first"
        );
        let EngineKind::Native { arena, .. } = &self.engine else {
            panic!("read_bytes is only available on the native engine");
        };
        if let Some(t) = self.directory.flush_to_host(id) {
            arena.perform(&t);
        }
        arena.read(id, MemSpace::HOST)
    }

    // ------------------------------------------------------------------
    // Task submission
    // ------------------------------------------------------------------

    /// Stamp every subsequently submitted task with a job tag (or stop
    /// stamping with `None`). The tag drives fair multi-job dispatch
    /// ordering when [`RuntimeConfig::fair_scheduling`] is on and lets
    /// reports attribute tasks to jobs. One-shot applications never need
    /// this; `versa-serve` sets it around each job's build closure.
    pub fn set_job_tag(&mut self, tag: Option<JobTag>) {
        self.current_job = tag;
    }

    /// The task graph (read-only): inspect task states, count live
    /// tasks, or map a job's id range to completion states.
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// Submit a task instance with explicit accesses.
    pub fn submit(&mut self, template: TemplateId, accesses: Vec<(Region, AccessMode)>) -> TaskId {
        for (region, _) in &accesses {
            let bytes = self.directory.bytes(region.data);
            assert!(
                region.end() <= bytes,
                "access {region:?} exceeds allocation size {bytes}"
            );
        }
        let data_set_size =
            TaskInstance::data_set_size_of(&accesses, |d| self.directory.bytes(d));
        let id = TaskId(self.graph.len() as u64);
        self.graph.submit(TaskInstance { id, template, accesses, data_set_size, job: self.current_job })
    }

    /// Fluent task submission: `rt.task(tpl).read(a).read(b).read_write(c).submit()`.
    pub fn task(&mut self, template: TemplateId) -> TaskSubmitter<'_> {
        TaskSubmitter { rt: self, template, accesses: Vec::new() }
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    /// Execute every submitted-but-unfinished task to completion — the
    /// implicit `taskwait` — and report what happened. With
    /// [`RuntimeConfig::flush_on_wait`] set, device-resident data is
    /// flushed back to host memory at the end (and accounted as Output
    /// Tx).
    ///
    /// # Errors
    /// Task failures (native kernel panics, simulated injected faults)
    /// are recoverable: the task is rescheduled, failing versions are
    /// quarantined, and the run keeps going. Only when a single task
    /// fails more than [`RuntimeConfig::max_task_retries`] times does
    /// the run abort with a [`RunError`] carrying the partial
    /// [`RunReport`]. A native run drains every task it already
    /// dispatched before returning the error and puts the failing task
    /// back in the ready pool, so the runtime stays usable: a later run
    /// retries that task with a fresh budget. An aborted simulated
    /// runtime still has tasks in flight and must not be reused.
    pub fn run(&mut self) -> Result<RunReport, RunError> {
        self.run_bounded(None)
    }

    /// Execute one *wave*: dispatch at most `max_dispatch` tasks (counted
    /// at dispatch, so an eager scheduler cannot blow the budget by bulk
    /// enqueueing), let everything dispatched drain, and return. Ready
    /// tasks beyond the budget stay pooled in the runtime for the next
    /// wave; [`RunReport::completed`] says whether the graph fully
    /// drained. `None` behaves exactly like [`Runtime::run`].
    ///
    /// This is the re-entry point a multi-job service loops on: between
    /// waves it can admit new jobs, whose tasks then compete fairly
    /// (see [`RuntimeConfig::fair_scheduling`]) with the backlog.
    ///
    /// # Errors
    /// As [`Runtime::run`].
    pub fn run_bounded(&mut self, max_dispatch: Option<u64>) -> Result<RunReport, RunError> {
        let report = match &self.engine {
            EngineKind::Sim { .. } => crate::sim_engine::run_sim(self, max_dispatch),
            EngineKind::Native { .. } => crate::native::run_native(self, max_dispatch),
        };
        self.run_count += 1;
        report
    }

    /// Like [`Runtime::run`], but without the trailing flush — the
    /// `taskwait(noflush)` of paper §III: tasks synchronize, but data is
    /// left wherever it lives (typically on the devices), so a following
    /// batch can reuse it without round-tripping through host memory.
    ///
    /// # Errors
    /// As [`Runtime::run`].
    pub fn run_noflush(&mut self) -> Result<RunReport, RunError> {
        let saved = self.config.flush_on_wait;
        self.config.flush_on_wait = false;
        let report = self.run();
        self.config.flush_on_wait = saved;
        report
    }

    /// Install a fault-injection plan on the simulated platform (a
    /// convenience over rebuilding the [`PlatformConfig`]). Plans are
    /// evaluated at every simulated task start; an empty plan leaves the
    /// simulation byte-identical to a run without one.
    ///
    /// # Panics
    /// Panics on the native engine (panics there are the real faults)
    /// or if the plan fails validation.
    pub fn set_fault_plan(&mut self, faults: versa_sim::FaultPlan) {
        let EngineKind::Sim { platform, .. } = &mut self.engine else {
            panic!("fault plans only apply to the simulated engine");
        };
        faults.validate(platform.nodes.len()).expect("invalid fault plan");
        platform.faults = faults;
    }

    /// Arrange for the next `times` staged copies of `data` to panic
    /// mid-transfer (native engine, `async_transfers` mode). This is the
    /// staging analogue of the simulated engine's fault plans: it proves
    /// a transfer-lane failure routes through the same
    /// `task_failed`/retry/quarantine machinery as a kernel panic.
    /// Inline staging never consults it (its copies run on the
    /// coordinator), and an empty plan leaves execution byte-identical.
    pub fn inject_stage_fault(&mut self, data: DataId, times: u32) {
        if times > 0 {
            *self.stage_faults.entry(data).or_insert(0) += times;
        }
    }

    /// Consume one pending staging fault for `data`, if any (called by
    /// the async planner per planned copy).
    pub(crate) fn take_stage_fault(&mut self, data: DataId) -> bool {
        match self.stage_faults.get_mut(&data) {
            Some(n) if *n > 0 => {
                *n -= 1;
                if *n == 0 {
                    self.stage_faults.remove(&data);
                }
                true
            }
            _ => false,
        }
    }

    /// Versions currently quarantined by the versioning scheduler
    /// (empty for other policies).
    pub fn quarantined_versions(&self) -> Vec<QuarantinedVersion> {
        self.scheduler
            .as_versioning()
            .map(|v| v.profiles().quarantined().into_iter().map(Into::into).collect())
            .unwrap_or_default()
    }
}

/// A thread-safe snapshot of a runtime's bound native kernels plus its
/// arena, produced by [`Runtime::detach_executor`]. A remote worker
/// process serves concurrent `Exec` requests through one of these: the
/// kernels are `Arc` closures and the arena synchronizes internally, so
/// the executor is freely shared across serve threads.
pub struct DetachedExecutor {
    kernels: HashMap<(String, VersionId), NativeFn>,
    arena: Arc<Arena>,
}

impl DetachedExecutor {
    /// The arena backing kernel execution (shipments land here).
    pub fn arena(&self) -> &Arc<Arena> {
        &self.arena
    }

    /// Execute a bound kernel by template name against host-space data.
    /// Panic-safe; returns the measured kernel time.
    pub fn execute(
        &self,
        template: &str,
        version: VersionId,
        accesses: &[(Region, AccessMode)],
    ) -> Result<std::time::Duration, String> {
        let kernel = self
            .kernels
            .get(&(template.to_string(), version))
            .ok_or_else(|| format!("no native kernel bound for ({template:?}, {version})"))?
            .clone();
        crate::native::execute_detached(kernel, accesses.to_vec(), &self.arena, MemSpace::HOST)
    }
}

/// Builder returned by [`Runtime::task`].
pub struct TaskSubmitter<'a> {
    rt: &'a mut Runtime,
    template: TemplateId,
    accesses: Vec<(Region, AccessMode)>,
}

impl TaskSubmitter<'_> {
    /// `input(...)` clause over a whole allocation.
    pub fn read(mut self, data: DataId) -> Self {
        let bytes = self.rt.directory.bytes(data);
        self.accesses.push((Region::whole(data, bytes), AccessMode::In));
        self
    }

    /// `output(...)` clause over a whole allocation.
    pub fn write(mut self, data: DataId) -> Self {
        let bytes = self.rt.directory.bytes(data);
        self.accesses.push((Region::whole(data, bytes), AccessMode::Out));
        self
    }

    /// `inout(...)` clause over a whole allocation.
    pub fn read_write(mut self, data: DataId) -> Self {
        let bytes = self.rt.directory.bytes(data);
        self.accesses.push((Region::whole(data, bytes), AccessMode::InOut));
        self
    }

    /// An explicit sub-range access (array-section dependence).
    pub fn region(mut self, region: Region, mode: AccessMode) -> Self {
        self.accesses.push((region, mode));
        self
    }

    /// Create the task.
    pub fn submit(self) -> TaskId {
        let TaskSubmitter { rt, template, accesses } = self;
        rt.submit(template, accesses)
    }
}

/// Why [`Runtime::try_free`] refused to free an allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FreeError {
    /// The allocation that could not be freed.
    pub data: DataId,
    /// How many unfinished tasks still reference it.
    pub live_users: usize,
}

impl std::fmt::Display for FreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot free {:?}: {} unfinished task(s) still reference it; run() first",
            self.data, self.live_users
        )
    }
}

impl std::error::Error for FreeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use versa_core::SchedulerKind;

    fn sim_runtime() -> Runtime {
        Runtime::simulated(
            RuntimeConfig::with_scheduler(SchedulerKind::DepAware),
            PlatformConfig::minotauro(2, 1),
        )
    }

    #[test]
    fn workers_are_smp_then_gpu() {
        let rt = sim_runtime();
        let infos = rt.workers();
        assert_eq!(infos.len(), 3);
        assert_eq!(infos[0].device, DeviceKind::Smp);
        assert_eq!(infos[1].device, DeviceKind::Smp);
        assert_eq!(infos[2].device, DeviceKind::Cuda);
        assert_eq!(infos[2].space, MemSpace::device(0));
    }

    #[test]
    fn alloc_registers_in_directory() {
        let mut rt = sim_runtime();
        let a = rt.alloc_bytes(1024);
        assert_eq!(rt.data_bytes(a), 1024);
        let b = rt.alloc_from_f64(&[1.0, 2.0, 3.0]);
        assert_eq!(rt.data_bytes(b), 24);
        assert_ne!(a, b);
    }

    #[test]
    fn native_typed_alloc_round_trips_bit_patterns() {
        let mut rt = Runtime::native(
            RuntimeConfig::with_scheduler(SchedulerKind::DepAware),
            NativeConfig::new(1, 0),
        );
        let f64s = [-0.0f64, f64::from_bits(0x7ff8_0000_dead_beef), 1.5];
        let d = rt.alloc_from_f64(&f64s);
        assert_eq!(rt.data_bytes(d), 24);
        let back: Vec<u64> = rt.read_f64(d).iter().map(|v| v.to_bits()).collect();
        assert_eq!(back, f64s.map(f64::to_bits));

        let f32s = [-0.0f32, f32::from_bits(0x7fc0_1234), 2.5];
        let d = rt.alloc_from_f32(&f32s);
        assert_eq!(rt.data_bytes(d), 12);
        let back: Vec<u32> = rt.read_f32(d).iter().map(|v| v.to_bits()).collect();
        assert_eq!(back, f32s.map(f32::to_bits));
    }

    #[test]
    fn task_builder_computes_data_set_size() {
        let mut rt = sim_runtime();
        let tpl = rt
            .template("t")
            .main("smp", &[DeviceKind::Smp])
            .register();
        let a = rt.alloc_bytes(100);
        let c = rt.alloc_bytes(50);
        let id = rt.task(tpl).read(a).read_write(c).submit();
        assert_eq!(rt.graph.node(id).instance.data_set_size, 150);
        assert_eq!(rt.graph.node(id).instance.accesses.len(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds allocation size")]
    fn oversized_region_rejected() {
        let mut rt = sim_runtime();
        let tpl = rt.template("t").main("smp", &[DeviceKind::Smp]).register();
        let a = rt.alloc_bytes(10);
        let _ = rt
            .task(tpl)
            .region(Region::range(a, 0, 20), AccessMode::In)
            .submit();
    }

    #[test]
    fn free_forgets_the_allocation() {
        let mut rt = sim_runtime();
        let a = rt.alloc_bytes(10);
        rt.free(a);
        // The id can be observed gone via the directory.
        assert!(rt.directory.state(a).is_none());
    }

    #[test]
    fn free_is_rejected_while_queued_tasks_reference_the_data() {
        let mut rt = sim_runtime();
        let tpl = rt.template("t").main("t_smp", &[DeviceKind::Smp]).register();
        rt.bind_cost(tpl, versa_core::VersionId(0), |_| std::time::Duration::from_millis(1));
        let used = rt.alloc_bytes(64);
        let idle = rt.alloc_bytes(64);
        rt.task(tpl).read_write(used).submit();

        let err = rt.try_free(used).unwrap_err();
        assert_eq!(err, FreeError { data: used, live_users: 1 });
        assert!(err.to_string().contains("unfinished task"));
        // The rejected free left the allocation intact...
        assert!(rt.directory.state(used).is_some());
        // ...and data no queued task references frees fine meanwhile.
        rt.try_free(idle).expect("no task references this allocation");

        rt.run().expect("run failed");
        rt.try_free(used).expect("all referencing tasks are done");
        assert!(rt.directory.state(used).is_none());
    }

    #[test]
    #[should_panic(expected = "unfinished task")]
    fn free_panics_while_queued_tasks_reference_the_data() {
        let mut rt = sim_runtime();
        let tpl = rt.template("t").main("t_smp", &[DeviceKind::Smp]).register();
        rt.bind_cost(tpl, versa_core::VersionId(0), |_| std::time::Duration::from_millis(1));
        let a = rt.alloc_bytes(64);
        rt.task(tpl).read_write(a).submit();
        rt.free(a);
    }

    #[test]
    fn hints_roundtrip_through_runtime_api() {
        let mut rt = Runtime::simulated(
            RuntimeConfig::default(),
            PlatformConfig::minotauro(1, 1),
        );
        let tpl = rt
            .template("t")
            .main("t_gpu", &[DeviceKind::Cuda])
            .version("t_smp", &[DeviceKind::Smp])
            .register();
        rt.versioning_mut().unwrap().profiles_mut().seed(
            tpl,
            2,
            1000,
            versa_core::VersionId(0),
            std::time::Duration::from_millis(5),
            10,
        );
        let text = rt.save_hints().expect("versioning active");
        assert!(text.contains("hint t 0"));
        let mut rt2 = Runtime::simulated(
            RuntimeConfig::default(),
            PlatformConfig::minotauro(1, 1),
        );
        let _tpl2 = rt2
            .template("t")
            .main("t_gpu", &[DeviceKind::Cuda])
            .version("t_smp", &[DeviceKind::Smp])
            .register();
        let (applied, skipped) = rt2.load_hints(&text).unwrap();
        assert_eq!((applied, skipped), (1, 0));
        assert!(rt2.load_hints("garbage line").is_err());
    }

    #[test]
    fn save_hints_is_none_for_baselines() {
        let rt = sim_runtime();
        assert!(rt.save_hints().is_none());
    }

    #[test]
    fn versioning_accessor_matches_policy() {
        let rt = sim_runtime();
        assert!(rt.versioning().is_none());
        let rt2 = Runtime::simulated(
            RuntimeConfig::default(),
            PlatformConfig::minotauro(1, 1),
        );
        assert!(rt2.versioning().is_some());
    }
}
