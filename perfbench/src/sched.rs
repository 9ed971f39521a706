//! A delegating [`Scheduler`] that times the core layer from outside.
//!
//! [`install`] wraps whatever policy a runtime was built with. Every
//! trait method forwards to the wrapped policy unchanged, so decisions
//! are identical with and without the wrapper; the wrapper only counts
//! calls and times `assign` and each `begin_wave`/`end_wave` bracket.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use versa::core::scheduler::{Assignment, FailureKind, SchedCtx, Scheduler};
use versa::core::{make_scheduler, SchedulerKind, TaskInstance, VersioningScheduler};
use versa::mem::MemSpace;
use versa::runtime::Runtime;

/// Call counts and times of the wrapped scheduler. Plain statistics, so
/// every counter is `Relaxed`.
#[derive(Debug, Default)]
pub struct SchedStats {
    calls: AtomicU64,
    assigns: AtomicU64,
    assign_ns: AtomicU64,
    waves: AtomicU64,
    wave_ns: AtomicU64,
}

impl SchedStats {
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Forget everything counted so far.
    pub fn reset(&self) {
        for c in [
            &self.calls,
            &self.assigns,
            &self.assign_ns,
            &self.waves,
            &self.wave_ns,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Every trait call made into the scheduler.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Mean `assign` time, µs.
    pub fn assign_us(&self) -> f64 {
        per(
            self.assign_ns.load(Ordering::Relaxed),
            self.assigns.load(Ordering::Relaxed),
        ) / 1e3
    }

    /// Mean time inside `begin_wave` plus `end_wave` per wave, µs.
    pub fn wave_us(&self) -> f64 {
        per(
            self.wave_ns.load(Ordering::Relaxed),
            self.waves.load(Ordering::Relaxed),
        ) / 1e3
    }
}

fn per(total: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The timing wrapper.
pub struct Timed {
    inner: Box<dyn Scheduler>,
    stats: Arc<SchedStats>,
}

impl Scheduler for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn assign(&mut self, task: &TaskInstance, ctx: &SchedCtx<'_>) -> Assignment {
        let t = Instant::now();
        let a = self.inner.assign(task, ctx);
        let s = &self.stats;
        SchedStats::add(&s.assign_ns, ns(t.elapsed()));
        SchedStats::add(&s.assigns, 1);
        SchedStats::add(&s.calls, 1);
        a
    }

    fn task_finished(&mut self, task: &TaskInstance, assignment: Assignment, measured: Duration) {
        SchedStats::add(&self.stats.calls, 1);
        self.inner.task_finished(task, assignment, measured);
    }

    fn transfer_done(&mut self, to: MemSpace, bytes: u64, elapsed: Duration) {
        SchedStats::add(&self.stats.calls, 1);
        self.inner.transfer_done(to, bytes, elapsed);
    }

    fn task_failed(&mut self, task: &TaskInstance, assignment: Assignment, kind: FailureKind) {
        SchedStats::add(&self.stats.calls, 1);
        self.inner.task_failed(task, assignment, kind);
    }

    fn supports_versions(&self) -> bool {
        self.inner.supports_versions()
    }

    fn begin_wave(&mut self, frontier: &[&TaskInstance], ctx: &SchedCtx<'_>) {
        let t = Instant::now();
        self.inner.begin_wave(frontier, ctx);
        SchedStats::add(&self.stats.wave_ns, ns(t.elapsed()));
        SchedStats::add(&self.stats.waves, 1);
        SchedStats::add(&self.stats.calls, 1);
    }

    fn end_wave(&mut self) {
        let t = Instant::now();
        self.inner.end_wave();
        SchedStats::add(&self.stats.wave_ns, ns(t.elapsed()));
        SchedStats::add(&self.stats.calls, 1);
    }

    fn eager(&self, task: &TaskInstance, ctx: &SchedCtx<'_>) -> bool {
        SchedStats::add(&self.stats.calls, 1);
        self.inner.eager(task, ctx)
    }

    fn as_versioning(&self) -> Option<&VersioningScheduler> {
        self.inner.as_versioning()
    }

    fn as_versioning_mut(&mut self) -> Option<&mut VersioningScheduler> {
        self.inner.as_versioning_mut()
    }
}

/// Wrap `rt`'s scheduler so its calls land in `stats`. Call before any
/// task is submitted.
pub fn install(rt: &mut Runtime, stats: &Arc<SchedStats>) {
    let slot = rt.scheduler_mut();
    let inner = std::mem::replace(slot, make_scheduler(&SchedulerKind::BreadthFirst));
    *slot = Box::new(Timed {
        inner,
        stats: Arc::clone(stats),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use versa::apps::matmul::{self, MatmulConfig, MatmulVariant};
    use versa::runtime::{RunReport, RuntimeConfig};
    use versa::sim::PlatformConfig;

    fn sim_run(wrapped: Option<&Arc<SchedStats>>) -> (RunReport, bool) {
        let mut platform = PlatformConfig::minotauro(2, 2);
        platform.seed = 0xBE_4C;
        let mut rt = Runtime::simulated(RuntimeConfig::default(), platform);
        if let Some(stats) = wrapped {
            install(&mut rt, stats);
        }
        let app = matmul::build(
            &mut rt,
            MatmulConfig { n: 4096, bs: 512 },
            MatmulVariant::Hybrid,
        );
        let first = rt.run().expect("sim run");
        // A second region runs on learned profiles and resident tiles.
        let nb = app.config.nb();
        matmul::submit_tasks(&mut rt, app.template, nb, &app.a, &app.b, &app.c);
        let second = rt.run().expect("sim run");
        assert_eq!(first.tasks_executed, second.tasks_executed);
        (second, rt.versioning().is_some())
    }

    #[test]
    fn wrapper_leaves_the_seeded_sim_run_unchanged() {
        let stats = Arc::new(SchedStats::default());
        let (plain, plain_ver) = sim_run(None);
        let (timed, timed_ver) = sim_run(Some(&stats));
        assert_eq!(plain.version_counts, timed.version_counts);
        assert_eq!(plain.worker_task_counts, timed.worker_task_counts);
        assert_eq!(plain.makespan, timed.makespan, "virtual makespan");
        assert!(plain.transfers == timed.transfers, "transfer accounting");
        assert_eq!(plain.scheduler, timed.scheduler, "name is delegated");
        assert!(plain_ver && timed_ver, "as_versioning is delegated");
        // The wrapper saw the calls it times.
        assert!(stats.assigns.load(Ordering::Relaxed) >= 512 + 64);
        assert!(
            stats.waves.load(Ordering::Relaxed) > 0,
            "begin_wave is delegated"
        );
        assert!(stats.calls() > stats.assigns.load(Ordering::Relaxed));
        assert!(stats.assign_us() > 0.0 && stats.wave_us() > 0.0);
    }
}
