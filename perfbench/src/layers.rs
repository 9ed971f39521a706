//! Per-layer measurements taken from outside: sums over the reports
//! versa returns, and standalone probes of single layers.

use std::collections::HashMap;
use std::time::{Duration, Instant};
use versa::core::{DeviceKind, SchedulerKind, TemplateId, VersionId};
use versa::kernels::exec::ScopedExec;
use versa::kernels::gemm;
use versa::runtime::{RunReport, Runtime, RuntimeConfig, WorkerTransferStats};
use versa::sim::PlatformConfig;

use crate::stats;

/// Worker time of one or more runs, summed: capacity (workers × wall),
/// kernel time, staging time and the part of staging hidden under a
/// kernel.
#[derive(Clone, Debug, Default)]
pub struct Work {
    capacity_s: f64,
    busy_s: f64,
    stage_s: f64,
    overlap_s: f64,
    staged_bytes: u64,
    tasks: u64,
}

impl Work {
    /// Add the workers of one run: `busy` and `transfers` per worker,
    /// over `wall`.
    pub fn add(&mut self, wall: Duration, busy: &[Duration], transfers: &[WorkerTransferStats]) {
        self.capacity_s += busy.len() as f64 * wall.as_secs_f64();
        self.busy_s += busy.iter().map(Duration::as_secs_f64).sum::<f64>();
        for t in transfers {
            self.stage_s += t.stage_time.as_secs_f64();
            self.overlap_s += t.overlap_time.as_secs_f64();
            self.staged_bytes += t.staged_bytes;
        }
    }

    /// Add one run report, over its makespan.
    pub fn add_report(&mut self, r: &RunReport) {
        self.add(r.makespan, &r.worker_busy, &r.worker_transfers);
        self.tasks += r.tasks_executed;
    }

    /// Count tasks run outside [`Work::add_report`].
    pub fn add_tasks(&mut self, tasks: u64) {
        self.tasks += tasks;
    }

    fn share(&self, x: f64) -> f64 {
        if self.capacity_s > 0.0 {
            x / self.capacity_s
        } else {
            0.0
        }
    }

    /// Kernel time over worker capacity.
    pub fn busy_share(&self) -> f64 {
        self.share(self.busy_s)
    }

    /// Staging time over worker capacity.
    pub fn stage_share(&self) -> f64 {
        self.share(self.stage_s)
    }

    /// Share of staging time hidden under a kernel.
    pub fn overlap_ratio(&self) -> f64 {
        if self.stage_s > 0.0 {
            self.overlap_s / self.stage_s
        } else {
            0.0
        }
    }

    /// Worker capacity spent neither in a kernel nor in staging that a
    /// kernel did not hide: what the runtime's own bookkeeping and idle
    /// time cost.
    pub fn overhead_share(&self) -> f64 {
        self.share(self.capacity_s - self.busy_s - (self.stage_s - self.overlap_s))
    }

    /// Bytes staged into workers' spaces per task.
    pub fn staged_bytes_per_task(&self) -> f64 {
        self.staged_bytes as f64 / self.tasks.max(1) as f64
    }

    /// Bytes staged into workers' spaces, in total.
    pub fn staged_bytes(&self) -> u64 {
        self.staged_bytes
    }

    /// Tasks counted.
    pub fn tasks(&self) -> u64 {
        self.tasks
    }
}

/// Executions on the version with the lowest learned mean, per
/// template, over all executions: `(best, total)`. Reads the learned
/// profile of `rt`'s versioning scheduler.
pub fn best_version_tasks(
    rt: &Runtime,
    version_counts: &HashMap<(TemplateId, VersionId), u64>,
) -> (u64, u64) {
    let total = version_counts.values().sum();
    let Some(ver) = rt.versioning() else {
        return (0, total);
    };
    let mut best: HashMap<TemplateId, (Duration, VersionId)> = HashMap::new();
    for (tpl, _, group) in ver.profiles().iter() {
        for (v, s) in group.versions().iter().enumerate() {
            let (Some(mean), Ok(v)) = (s.mean(), u16::try_from(v)) else {
                continue;
            };
            let e = best.entry(tpl).or_insert((mean, VersionId(v)));
            if mean < e.0 {
                *e = (mean, VersionId(v));
            }
        }
    }
    let on_best = best
        .iter()
        .map(|(&t, &(_, v))| version_counts.get(&(t, v)).copied().unwrap_or(0));
    (on_best.sum(), total)
}

/// A gemm kernel as the apps bind it: `C += A·B` on `bs × bs` tiles.
pub type Gemm = fn(&[f64], &[f64], &mut [f64], usize);

/// The emulated-GPU kernel at `lanes` lanes, as `register_native` binds
/// `matmul_tile_cublas`.
pub fn parallel_gemm(lanes: usize) -> impl Fn(&[f64], &[f64], &mut [f64], usize) {
    move |a, b, c, n| gemm::dgemm_parallel_on(&ScopedExec::new(lanes), a, b, c, n)
}

/// GFLOP/s of `kernel` called directly on `bs × bs` tiles: the median
/// of repeated calls over about `budget` (at least three calls).
pub fn gemm_gflops(
    kernel: impl Fn(&[f64], &[f64], &mut [f64], usize),
    bs: usize,
    budget: Duration,
) -> f64 {
    let a = versa::kernels::verify::random_matrix_f64(bs, 1);
    let b = versa::kernels::verify::random_matrix_f64(bs, 2);
    let mut c = vec![0.0; bs * bs];
    let flops = 2.0 * (bs as f64).powi(3);
    let start = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        kernel(
            std::hint::black_box(&a),
            std::hint::black_box(&b),
            &mut c,
            bs,
        );
        rates.push(flops / t.elapsed().as_secs_f64() / 1e9);
    }
    std::hint::black_box(&c);
    stats::median(&rates)
}

/// Tasks in one batch of the sim-engine probe.
const SIM_PROBE_TASKS: usize = 1024;

/// µs of `Runtime::run` per task for a batch of tiny two-version tasks
/// on the sim engine, with no service in front: the median batch over
/// about `budget`.
pub fn sim_run_us_per_task(budget: Duration) -> f64 {
    let mut rt = Runtime::simulated(
        RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
        PlatformConfig::minotauro(4, 0),
    );
    let tpl = rt
        .template("probe_axpy")
        .main("probe_axpy_unrolled", &[DeviceKind::Smp])
        .version("probe_axpy_serial", &[DeviceKind::Smp])
        .register();
    rt.bind_cost(tpl, VersionId(0), |_| Duration::from_micros(2));
    rt.bind_cost(tpl, VersionId(1), |_| Duration::from_micros(3));
    let data: Vec<_> = (0..SIM_PROBE_TASKS).map(|_| rt.alloc_bytes(2048)).collect();
    let start = Instant::now();
    let mut per_task = Vec::new();
    while per_task.len() < 3 || start.elapsed() < budget {
        for pair in data.chunks_exact(2) {
            rt.task(tpl).read(pair[0]).read_write(pair[1]).submit();
            rt.task(tpl).read(pair[0]).read_write(pair[1]).submit();
        }
        let t = Instant::now();
        let report = rt.run().expect("the sim probe has no faults");
        per_task.push(t.elapsed().as_secs_f64() * 1e6 / report.tasks_executed.max(1) as f64);
    }
    stats::median(&per_task)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_share_is_never_negative() {
        let mut w = Work::default();
        let busy = [Duration::from_millis(60), Duration::from_millis(90)];
        let t = |stage: u64, overlap: u64| WorkerTransferStats {
            stage_time: Duration::from_millis(stage),
            overlap_time: Duration::from_millis(overlap),
            staged_bytes: 1 << 20,
            ..Default::default()
        };
        // Staging hidden under kernels does not count twice.
        w.add(Duration::from_millis(100), &busy, &[t(30, 30), t(40, 30)]);
        w.add_tasks(4);
        assert!(
            (w.overhead_share() - 0.2).abs() < 1e-12,
            "{}",
            w.overhead_share()
        );
        assert!((w.busy_share() - 0.75).abs() < 1e-12);
        assert!((w.overlap_ratio() - 60.0 / 70.0).abs() < 1e-12);
        assert_eq!(w.staged_bytes_per_task(), (2 << 20) as f64 / 4.0);
        assert_eq!(Work::default().overhead_share(), 0.0);
    }

    #[test]
    fn probes_measure_something() {
        assert!(gemm_gflops(gemm::dgemm_naive, 32, Duration::ZERO) > 0.0);
        assert!(gemm_gflops(parallel_gemm(1), 32, Duration::ZERO) > 0.0);
        assert!(sim_run_us_per_task(Duration::ZERO) > 0.0);
    }
}
