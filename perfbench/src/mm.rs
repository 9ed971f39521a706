//! The matmul workloads: repeated solves, each on a fresh runtime.
//!
//! * `mm-hyb-native` — the paper's mm-hyb (Fig. 6) on the native engine:
//!   three gemm versions, one SMP worker plus one emulated GPU.
//! * `cluster-mm-wide` — mm-wide on an in-process coordinator with one
//!   local SMP worker plus one loopback versa-net node with one worker;
//!   every solve is a cold join.
//!
//! A solve runs from runtime (or coordinator) construction through
//! submission and taskwait to the result being read back. Input
//! generation and the output check are outside it; a request's
//! turnaround covers all three.

use std::sync::Arc;
use std::time::{Duration, Instant};
use versa::apps::matmul::{self, MatmulVariant};
use versa::cluster_cli::{self, WorkerOpts};
use versa::core::{SchedulerKind, WorkerId};
use versa::kernels::gemm;
use versa::kernels::verify::random_matrix_f64;
use versa::net::Cluster;
use versa::runtime::{NativeConfig, RunReport, Runtime, RuntimeConfig};

use crate::check::{product_check, quiet, Intervals};
use crate::layers::{self, Gemm, Work};
use crate::sched::{self, SchedStats};
use crate::{stats, trace, Outcome, Pass};

/// One matmul workload.
pub struct Spec {
    /// Matrix dimension.
    pub n: usize,
    /// Tile dimension.
    pub bs: usize,
    /// Version set.
    pub variant: MatmulVariant,
    /// Local SMP workers.
    pub smp: usize,
    /// Local emulated GPUs (one lane each).
    pub gpus: usize,
    /// Workers of the loopback versa-net node (0 = no cluster).
    pub remote: usize,
    /// The gemm versions the workers can run, as probed kernels.
    pub kernels: &'static [(&'static str, Gemm)],
}

fn cublas_1_lane(a: &[f64], b: &[f64], c: &mut [f64], n: usize) {
    layers::parallel_gemm(1)(a, b, c, n);
}

/// `mm-hyb-native`: n=2048, bs=256, 512 gemm tasks, 1 SMP + 1 GPU.
pub const HYB: Spec = Spec {
    n: 2048,
    bs: 256,
    variant: MatmulVariant::Hybrid,
    smp: 1,
    gpus: 1,
    remote: 0,
    kernels: &[
        ("kernels.gemm_gflops.cublas", cublas_1_lane),
        ("kernels.gemm_gflops.cuda", gemm::dgemm_blocked),
        ("kernels.gemm_gflops.cblas", gemm::dgemm_naive),
    ],
};

/// `cluster-mm-wide`: n=1024, bs=256, 1 local SMP + 1 remote SMP. The
/// wide set's GPU versions cannot run on this CPU-only cluster.
pub const CLUSTER: Spec = Spec {
    n: 1024,
    bs: 256,
    variant: MatmulVariant::Wide,
    smp: 1,
    gpus: 0,
    remote: 1,
    kernels: &[
        ("kernels.gemm_gflops.simd", gemm::dgemm_packed),
        ("kernels.gemm_gflops.cblas", gemm::dgemm_packed_scalar),
        ("kernels.gemm_gflops.naive", gemm::dgemm_naive),
    ],
};

impl Spec {
    fn nb(&self) -> usize {
        self.n / self.bs
    }

    fn flops(&self) -> f64 {
        2.0 * (self.n as f64).powi(3)
    }
}

/// Tile contents of one request.
struct Inputs {
    a: Vec<Vec<f64>>,
    b: Vec<Vec<f64>>,
}

fn inputs(spec: &Spec, seed: u64, request: u64) -> Inputs {
    let tiles = (spec.nb() * spec.nb()) as u64;
    let base = seed.wrapping_mul(1 << 32) ^ request.wrapping_mul(4 * tiles);
    let mk = |off: u64| {
        (0..tiles)
            .map(|t| random_matrix_f64(spec.bs, base + off + t))
            .collect()
    };
    Inputs {
        a: mk(0),
        b: mk(2 * tiles),
    }
}

/// What one solve produced.
struct Solved {
    c: Vec<Vec<f64>>,
    wall: Duration,
    report: RunReport,
    best: (u64, u64),
    join: Option<Duration>,
    remote_tasks: u64,
    ship_bytes: u64,
    ship_time: Duration,
}

/// The loopback node of a cluster solve: its listener and the worker
/// thread serving it.
struct Node {
    cluster: Cluster,
    worker: std::thread::JoinHandle<Result<versa::net::WorkerReport, String>>,
}

impl Node {
    fn start(spec: &Spec, rt: &mut Runtime) -> Result<(Node, Duration), String> {
        let mut cluster = Cluster::listen("127.0.0.1:0").map_err(|e| format!("listen: {e}"))?;
        let addr = cluster.local_addr().map_err(|e| e.to_string())?.to_string();
        let opts = WorkerOpts {
            connect: addr,
            name: "perfbench-node".into(),
            workers: spec.remote,
            variant: spec.variant,
            bs: spec.bs,
            hints_cache: None,
        };
        let worker = std::thread::spawn(move || cluster_cli::run_matmul_worker(&opts));
        let t = Instant::now();
        match cluster.accept_node(rt) {
            Ok(_) => Ok((Node { cluster, worker }, t.elapsed())),
            Err(e) => {
                drop(cluster);
                let _ = worker.join();
                Err(format!("node join: {e}"))
            }
        }
    }

    fn stop(mut self, rt: &Runtime) -> Result<(), String> {
        self.cluster.shutdown(rt);
        drop(self.cluster);
        match self.worker.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(e),
            Err(_) => Err("node worker thread panicked".into()),
        }
    }
}

/// One solve on `smp` local SMP workers, plus the spec's GPUs and remote
/// node when `full`.
fn solve(
    spec: &Spec,
    inp: &Inputs,
    req: u64,
    full: bool,
    sched_stats: Option<&Arc<SchedStats>>,
) -> Result<Solved, String> {
    let _root = trace::span("solve", req);
    let t0 = Instant::now();
    let (smp, gpus) = if full {
        (spec.smp, spec.gpus)
    } else {
        (spec.smp + spec.remote, spec.gpus)
    };
    let native = NativeConfig {
        gpu_lanes: 1,
        ..NativeConfig::new(smp, gpus)
    };
    let mut rt = trace::timed("runtime.construct", req, || {
        Runtime::native(
            RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
            native,
        )
    });
    if let Some(s) = sched_stats {
        sched::install(&mut rt, s);
    }
    let template = matmul::register_native(&mut rt, spec.variant, spec.bs);
    let node = if full && spec.remote > 0 {
        let _s = trace::span("net.join", req);
        Some(Node::start(spec, &mut rt)?)
    } else {
        None
    };
    let zero = vec![0.0; spec.bs * spec.bs];
    let alloc =
        |rt: &mut Runtime, tile: &[f64]| trace::timed("mem.alloc", req, || rt.alloc_from_f64(tile));
    let a: Vec<_> = inp.a.iter().map(|t| alloc(&mut rt, t)).collect();
    let b: Vec<_> = inp.b.iter().map(|t| alloc(&mut rt, t)).collect();
    let c: Vec<_> = (0..a.len()).map(|_| alloc(&mut rt, &zero)).collect();
    let nb = spec.nb();
    for i in 0..nb {
        for j in 0..nb {
            for k in 0..nb {
                let (ta, tb, tc) = (a[i * nb + k], b[k * nb + j], c[i * nb + j]);
                trace::timed("runtime.submit", req, || {
                    rt.task(template).read(ta).read(tb).read_write(tc).submit()
                });
            }
        }
    }
    let run = trace::timed("runtime.run", req, || rt.run());
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            if let Some((node, _)) = node {
                let _ = node.stop(&rt);
            }
            return Err(format!("run aborted: {e}"));
        }
    };
    let c_out: Vec<Vec<f64>> = trace::timed("mem.read", req, || {
        c.iter().map(|&t| rt.read_f64(t)).collect()
    });
    let wall = t0.elapsed();

    let best = layers::best_version_tasks(&rt, &report.version_counts);
    let mut solved = Solved {
        c: c_out,
        wall,
        best,
        join: node.as_ref().map(|(_, j)| *j),
        remote_tasks: 0,
        ship_bytes: 0,
        ship_time: Duration::ZERO,
        report,
    };
    for (w, t) in solved.report.worker_transfers.iter().enumerate() {
        let id = WorkerId(u16::try_from(w).expect("worker ids fit u16"));
        if rt.node_of_worker(id) != 0 {
            solved.remote_tasks += solved.report.worker_task_counts[w];
            solved.ship_bytes += t.staged_bytes;
            solved.ship_time += t.stage_time;
        }
    }
    for id in a.iter().chain(&b).chain(&c) {
        trace::timed("mem.free", req, || rt.free(*id));
    }
    if let Some((node, _)) = node {
        trace::timed("net.shutdown", req, || node.stop(&rt))?;
    }
    Ok(solved)
}

/// Sums over the solves of a pass.
#[derive(Default)]
struct Tally {
    solve_ms: Vec<f64>,
    turnaround_ms: Vec<f64>,
    /// Hypervisor steal share while each solve ran.
    steal: Vec<f64>,
    single_ms: Vec<f64>,
    join_ms: Vec<f64>,
    solve_s: f64,
    work: Work,
    device_bytes: u64,
    best: (u64, u64),
    remote_tasks: u64,
    ship_bytes: u64,
    ship_s: f64,
}

impl Tally {
    fn add(&mut self, s: &Solved) {
        self.solve_ms.push(s.wall.as_secs_f64() * 1e3);
        self.solve_s += s.wall.as_secs_f64();
        self.work.add_report(&s.report);
        self.device_bytes += s.report.transfers.total_bytes();
        self.best.0 += s.best.0;
        self.best.1 += s.best.1;
        self.remote_tasks += s.remote_tasks;
        self.ship_bytes += s.ship_bytes;
        self.ship_s += s.ship_time.as_secs_f64();
        if let Some(j) = s.join {
            self.join_ms.push(j.as_secs_f64() * 1e3);
        }
    }
}

/// Generate, solve and check one request; returns the solve when its
/// output checks out.
fn request(
    spec: &Spec,
    pass: &Pass,
    req: u64,
    full: bool,
    sched_stats: Option<&Arc<SchedStats>>,
    out: &mut Outcome,
) -> Option<Solved> {
    out.attempted += 1;
    let inp = trace::timed("gen.inputs", req, || inputs(spec, pass.seed, req));
    let mut solved = match solve(spec, &inp, req, full, sched_stats) {
        Ok(s) => s,
        Err(e) => {
            out.fail(format!("request {req}: {e}"));
            return None;
        }
    };
    if pass.corrupt && req == 0 {
        solved.c[1][7] += 1e-3;
    }
    let checked = trace::timed("check", req, || {
        product_check(
            &inp.a,
            &inp.b,
            &solved.c,
            spec.nb(),
            spec.bs,
            pass.seed ^ req,
        )
    });
    match checked {
        Ok(()) => Some(solved),
        Err(e) => {
            out.fail(format!("request {req}: {e}"));
            None
        }
    }
}

/// Requests of the setup phase are numbered from here, apart from the
/// measured ones.
const SETUP_REQUESTS: u64 = 1 << 40;

/// Run a matmul workload for one pass.
pub fn run(spec: &Spec, pass: &Pass) -> Outcome {
    let mut out = Outcome::default();
    let sched_stats = pass.traced.then(|| Arc::new(SchedStats::default()));

    // Setup: one warm-up request per setup, the first timed from process
    // start; they are checked but not counted as measured requests.
    let mut setup_s = Vec::new();
    for s in 0..pass.setups {
        let t = pass.started.filter(|_| s == 0).unwrap_or_else(Instant::now);
        let mut warm = Outcome::default();
        let _ = request(spec, pass, SETUP_REQUESTS + s as u64, true, None, &mut warm);
        out.failed += warm.failed;
        out.problems.extend(warm.problems);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    out.notes.push(format!("setup times (s): {setup_s:?}"));
    if pass.traced {
        trace::enable(1);
    }

    let mut tally = Tally::default();
    // One interval per request: its peak resident set and steal share.
    let mut intervals = Intervals::start(Duration::ZERO);
    let start = Instant::now();
    let mut req = 0;
    while req == 0 || start.elapsed() < pass.seconds {
        let t = Instant::now();
        let solved = request(spec, pass, req, true, sched_stats.as_ref(), &mut out);
        let turnaround = t.elapsed();
        // The traced cluster pass also solves each matrix on the same
        // number of workers in one process.
        if pass.traced && spec.remote > 0 {
            if let Some(s) = request(spec, pass, req, false, None, &mut out) {
                tally.single_ms.push(s.wall.as_secs_f64() * 1e3);
            }
        }
        intervals.tick();
        if let Some(s) = solved {
            tally.add(&s);
            tally.turnaround_ms.push(turnaround.as_secs_f64() * 1e3);
            tally.steal.push(intervals.last_steal());
        }
        req += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    if tally.solve_ms.is_empty() {
        if out.failed == 0 {
            out.fail("no solve completed");
        }
        return out;
    }

    let solves = tally.solve_ms.len() as f64;
    let solve_p50 = stats::median(&tally.solve_ms);
    out.cost = solve_p50;
    if !pass.traced {
        // End-to-end figures over the solves of the quieter half of the
        // run (see `Intervals`).
        let keep = quiet(&tally.steal);
        let pick = |xs: &[f64]| -> Vec<f64> {
            xs.iter()
                .zip(&keep)
                .filter(|(_, k)| **k)
                .map(|(x, _)| *x)
                .collect()
        };
        let (solve_ms, turnaround_ms) = (pick(&tally.solve_ms), pick(&tally.turnaround_ms));
        let (t99, q) = stats::tail(&turnaround_ms, 0.99);
        let kept = solve_ms.len() as f64;
        out.notes.push(format!(
            "{solves} solves in {wall:.2} s; figures from the {kept} with the least steal \
             (steal shares {:?}); turnaround_ms_p99 is p{:.1}",
            tally
                .steal
                .iter()
                .map(|s| (s * 1e3).round() / 1e3)
                .collect::<Vec<_>>(),
            q * 100.0,
        ));
        out.set("setup_s", stats::median(&setup_s));
        out.set("solve_ms_p50", stats::median(&solve_ms));
        out.set(
            "gflops",
            spec.flops() * kept / solve_ms.iter().sum::<f64>() / 1e6,
        );
        out.set("jobs_per_s", kept * 1e3 / turnaround_ms.iter().sum::<f64>());
        out.set("turnaround_ms_p50", stats::median(&turnaround_ms));
        out.set("turnaround_ms_p99", t99);
        out.set("peak_rss_mb", intervals.peak_rss_mb());
        return out;
    }

    let w = &tally.work;
    for &(name, kernel) in spec.kernels {
        out.set(
            name,
            layers::gemm_gflops(kernel, spec.bs, Duration::from_millis(150)),
        );
    }
    out.set("kernels.busy_share", w.busy_share());
    out.set("mem.staged_bytes_per_task", w.staged_bytes_per_task());
    out.set("mem.stage_share", w.stage_share());
    out.set("mem.overlap_ratio", w.overlap_ratio());
    out.set(
        "mem.device_bytes_per_solve",
        tally.device_bytes as f64 / solves,
    );
    let ss = sched_stats.expect("traced pass has a wrapper");
    out.set("core.assign_us", ss.assign_us());
    out.set("core.wave_us", ss.wave_us());
    out.set(
        "core.calls_per_task",
        ss.calls() as f64 / w.tasks().max(1) as f64,
    );
    out.set(
        "core.best_version_share",
        tally.best.0 as f64 / tally.best.1.max(1) as f64,
    );
    let overhead = w.overhead_share();
    if overhead < 0.0 {
        out.fail(format!("runtime.overhead_share is negative ({overhead})"));
    }
    out.set("runtime.overhead_share", overhead);
    out.set(
        "sim.run_us_per_task",
        layers::sim_run_us_per_task(Duration::from_millis(150)),
    );
    if spec.remote > 0 {
        out.set("net.join_ms", stats::median(&tally.join_ms));
        out.set(
            "net.remote_task_share",
            tally.remote_tasks as f64 / w.tasks().max(1) as f64,
        );
        out.set("net.ship_bytes_per_solve", tally.ship_bytes as f64 / solves);
        out.set(
            "net.ship_share",
            tally.ship_s / (tally.solve_s * (spec.smp + spec.remote) as f64),
        );
        if !tally.single_ms.is_empty() {
            out.set(
                "net.cluster_over_single",
                solve_p50 / stats::median(&tally.single_ms),
            );
        }
    }
    out
}
