//! The served job streams: one process, one generator thread.
//!
//! * `serve-tiny-sim` — a closed loop holding [`TINY_IN_FLIGHT`] tiny
//!   AXPY jobs in flight against a service on the sim engine, where
//!   every microsecond is coordination: admission, graph, bids,
//!   directory and arena work.
//! * `serve-mixed-native` — an open loop of seeded Poisson arrivals at
//!   [`MIXED_RATE`] jobs/s against one native service: every
//!   [`HEAVY_EVERY`]-th job is a 256×256 matmul (bs=64, real kernels),
//!   the rest are tiny AXPY jobs. Latency runs from each arrival's due
//!   time.
//!
//! Jobs use the templates the `versa-apps` factories register (the
//! setup submits one factory job of each kind); the benchmark's own
//! build and finish closures allocate, submit, read back, check and
//! free, so each of those calls can be timed.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use versa::apps::jobs;
use versa::apps::matmul::MatmulConfig;
use versa::core::SchedulerKind;
use versa::kernels::verify::random_matrix_f64;
use versa::runtime::{NativeConfig, Runtime, RuntimeConfig, WorkerTransferStats};
use versa::serve::{
    Client, FinishFn, JobReport, JobSpec, JobTicket, MetricsSnapshot, RejectReason, ServeConfig,
    Service, SubmitOutcome,
};
use versa::sim::PlatformConfig;

use crate::check::{fastest, product_check, Intervals, Rng};
use crate::layers::{self, Work};
use crate::sched::{self, SchedStats};
use crate::{stats, trace, Outcome, Pass};

/// Elements per AXPY buffer.
const ELEMS: usize = 256;
/// Jobs the closed loop keeps in flight.
const TINY_IN_FLIGHT: usize = 256;
/// Jobs one setup pushes through the closed loop before measuring.
const TINY_WARMUP_JOBS: u64 = 20_000;
/// Open-loop arrival rate, jobs/s: well under the native service's
/// capacity on two cores.
const MIXED_RATE: f64 = 1_000.0;
/// One arrival in this many is a heavy matmul job.
const HEAVY_EVERY: u64 = 32;
/// The heavy job's matrix.
const HEAVY: MatmulConfig = MatmulConfig { n: 256, bs: 64 };
/// Jobs one setup of the mixed workload runs (closed loop, same mix).
const MIXED_WARMUP_JOBS: u64 = 1_024;
/// An open-loop run is invalid when the generator's p99 lateness
/// exceeds this many mean inter-arrival gaps: beyond that, arrivals
/// leave in bursts instead of as the seeded Poisson stream.
const LATE_LIMIT_GAPS: f64 = 10.0;
/// Window over which the closed loop's throughput and tail are taken:
/// short, so a burst of host noise spoils few windows, and long enough
/// that its p99 has more than ten sampled jobs beyond it.
const TINY_WINDOW_S: f64 = 0.5;
/// Share of the closed loop's windows its end-to-end figures come from:
/// those that completed the most jobs (see [`fastest`]).
const TINY_KEEP_SHARE: f64 = 0.25;
/// Window over which the open loop's throughput and tail are taken: the
/// shortest whose p99 has ten jobs beyond it.
const MIXED_WINDOW_S: f64 = 1.0;
/// The closed loop keeps the latencies of every this-many-th job.
const TINY_SAMPLE_STRIDE: u64 = 16;
/// Request ids of setup jobs start here, apart from measured ones.
const SETUP_REQUESTS: u64 = 1 << 40;

fn tiny_flops() -> f64 {
    // Two dependent AXPY tasks of 2·ELEMS flops each.
    4.0 * ELEMS as f64
}

fn heavy_flops() -> f64 {
    2.0 * (HEAVY.n as f64).powi(3)
}

/// A tiny AXPY job on the `tiny_axpy` template: `y = 1 + 2x + 2x`.
/// With `check`, the finish closure reads `y` back and compares.
fn tiny_job(seed: u64, req: u64, check: bool) -> JobSpec {
    JobSpec::new("tiny-axpy", move |rt| {
        let _s = trace::span("serve.build", req);
        let tpl = rt
            .templates()
            .by_name("tiny_axpy")
            .expect("registered during setup");
        let xs: Vec<f64> = (0..ELEMS as u64)
            .map(|i| ((seed + i) % 97) as f64)
            .collect();
        let x = trace::timed("mem.alloc", req, || rt.alloc_from_f64(&xs));
        let y = trace::timed("mem.alloc", req, || rt.alloc_from_f64(&[1.0; ELEMS]));
        for _ in 0..2 {
            trace::timed("runtime.submit", req, || {
                rt.task(tpl).read(x).read_write(y).submit()
            });
        }
        let finish: FinishFn = Box::new(move |rt| {
            let _s = trace::span("serve.finish", req);
            let result = if check {
                let got = trace::timed("mem.read", req, || rt.read_f64(y));
                match got.iter().zip(&xs).position(|(g, x)| *g != 1.0 + 4.0 * x) {
                    None if got.len() == ELEMS => Ok(()),
                    None => Err(format!("tiny job {req}: read {} elements", got.len())),
                    Some(i) => Err(format!("tiny job {req}: y[{i}] = {}", got[i])),
                }
            } else {
                Ok(())
            };
            trace::timed("mem.free", req, || rt.free(x));
            trace::timed("mem.free", req, || rt.free(y));
            result
        });
        finish
    })
}

/// A heavy matmul job on the `matmul_tile` template; its finish closure
/// runs the randomized product check.
fn heavy_job(seed: u64, req: u64) -> JobSpec {
    let (nb, bs) = (HEAVY.nb(), HEAVY.bs);
    let tiles = (nb * nb) as u64;
    let base = seed.wrapping_mul(1 << 32) ^ req.wrapping_mul(2 * tiles);
    let a: Vec<Vec<f64>> = (0..tiles)
        .map(|t| random_matrix_f64(bs, base + t))
        .collect();
    let b: Vec<Vec<f64>> = (0..tiles)
        .map(|t| random_matrix_f64(bs, base + tiles + t))
        .collect();
    JobSpec::new("matmul-256", move |rt| {
        let _s = trace::span("serve.build", req);
        let tpl = rt
            .templates()
            .by_name("matmul_tile")
            .expect("registered during setup");
        let alloc =
            |rt: &mut Runtime, t: &[f64]| trace::timed("mem.alloc", req, || rt.alloc_from_f64(t));
        let ia: Vec<_> = a.iter().map(|t| alloc(rt, t)).collect();
        let ib: Vec<_> = b.iter().map(|t| alloc(rt, t)).collect();
        let ic: Vec<_> = (0..ia.len())
            .map(|_| alloc(rt, &vec![0.0; bs * bs]))
            .collect();
        for i in 0..nb {
            for j in 0..nb {
                for k in 0..nb {
                    let (ta, tb, tc) = (ia[i * nb + k], ib[k * nb + j], ic[i * nb + j]);
                    trace::timed("runtime.submit", req, || {
                        rt.task(tpl).read(ta).read(tb).read_write(tc).submit()
                    });
                }
            }
        }
        let finish: FinishFn = Box::new(move |rt| {
            let _s = trace::span("serve.finish", req);
            let c: Vec<Vec<f64>> = trace::timed("mem.read", req, || {
                ic.iter().map(|&t| rt.read_f64(t)).collect()
            });
            let result = trace::timed("check", req, || {
                product_check(&a, &b, &c, nb, bs, seed ^ req)
            });
            for id in ia.iter().chain(&ib).chain(&ic) {
                trace::timed("mem.free", req, || rt.free(*id));
            }
            result.map_err(|e| format!("matmul job {req}: {e}"))
        });
        finish
    })
}

fn start(mut rt: Runtime, sched_stats: Option<&Arc<SchedStats>>) -> Service {
    if let Some(s) = sched_stats {
        sched::install(&mut rt, s);
    }
    let config = ServeConfig {
        queue_capacity: 256,
        wave_dispatch: 64,
        ..ServeConfig::default()
    };
    Service::start(rt, config)
}

fn versioning() -> RuntimeConfig {
    RuntimeConfig::with_scheduler(SchedulerKind::versioning())
}

/// Run one factory job to completion (registers its templates).
fn register(client: &Client, spec: JobSpec) -> Result<(), String> {
    match client.submit(spec) {
        SubmitOutcome::Accepted(t) => t.wait().outcome,
        other => Err(format!("registration job not accepted: {other:?}")),
    }
}

/// Completed jobs of a pass. Every job counts in the totals of the
/// window it completed in; every `stride`-th one also keeps its
/// latencies as a sample, so a run of a million jobs stays small in
/// memory.
struct Done {
    window_s: f64,
    /// Jobs and flops completed in each whole window of the span.
    windows: Vec<(f64, f64)>,
    stride: u64,
    jobs: u64,
    flops: f64,
    /// The window each sample completed in, if inside the span.
    window_of: Vec<Option<usize>>,
    turnaround_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    exec_ms: Vec<f64>,
}

impl Done {
    fn new(span: Duration, window_s: f64, stride: u64) -> Done {
        let n = (span.as_secs_f64() / window_s).floor() as usize;
        Done {
            window_s,
            windows: vec![(0.0, 0.0); n],
            stride,
            jobs: 0,
            flops: 0.0,
            window_of: Vec::new(),
            turnaround_ms: Vec::new(),
            wait_ms: Vec::new(),
            exec_ms: Vec::new(),
        }
    }

    /// Count one completed job; `finished` is since the span began.
    fn add(&mut self, finished: Duration, turnaround: Duration, report: &JobReport, flops: f64) {
        let w = (finished.as_secs_f64() / self.window_s) as usize;
        let window = (w < self.windows.len()).then_some(w);
        if let Some(w) = window {
            self.windows[w].0 += 1.0;
            self.windows[w].1 += flops;
        }
        if self.jobs.is_multiple_of(self.stride) {
            self.window_of.push(window);
            self.turnaround_ms.push(turnaround.as_secs_f64() * 1e3);
            self.wait_ms.push(report.wait.as_secs_f64() * 1e3);
            self.exec_ms.push(report.exec.as_secs_f64() * 1e3);
        }
        self.jobs += 1;
        self.flops += flops;
    }

    /// The samples of `xs` that completed in a window marked in `keep`.
    fn kept(&self, xs: &[f64], keep: &[bool]) -> Vec<f64> {
        let inside = |w: &Option<usize>| w.is_some_and(|w| keep[w]);
        self.window_of
            .iter()
            .zip(xs)
            .filter(|(w, _)| inside(w))
            .map(|(_, x)| *x)
            .collect()
    }

    /// Completions per second, GFLOP/s and p99 turnaround of each whole
    /// window marked in `keep`, each as the median over those windows.
    fn windowed(&self, keep: &[bool]) -> Option<(f64, f64, f64)> {
        let mut per_window = vec![Vec::new(); self.windows.len()];
        for (w, t) in self.window_of.iter().zip(&self.turnaround_ms) {
            if let Some(w) = w {
                per_window[*w].push(*t);
            }
        }
        let mut jobs = Vec::new();
        let mut flops = Vec::new();
        let mut p99 = Vec::new();
        for (w, t) in per_window.iter().enumerate() {
            if keep[w] && !t.is_empty() {
                jobs.push(self.windows[w].0 / self.window_s);
                flops.push(self.windows[w].1 / self.window_s / 1e9);
                p99.push(stats::tail(t, 0.99).0);
            }
        }
        (!p99.is_empty()).then(|| {
            (
                stats::median(&jobs),
                stats::median(&flops),
                stats::median(&p99),
            )
        })
    }
}

/// An accepted job and its ticket.
struct InFlight {
    ticket: JobTicket,
    job: Sent,
}

/// How long a reaping generator polls before it blocks.
const POLL_BEFORE_BLOCKING: Duration = Duration::from_millis(5);

impl InFlight {
    /// Wait for the job and record it. The generator polls for a few
    /// milliseconds before blocking: a blocked thread lets its virtual
    /// CPU halt, and on a shared host every wake-up then waits for the
    /// hypervisor, which would put host noise into the figures.
    fn reap(self, out: &mut Outcome, done: &mut Done) {
        let until = Instant::now() + POLL_BEFORE_BLOCKING;
        let report = loop {
            if let Some(r) = self.ticket.try_wait() {
                break r;
            }
            if Instant::now() >= until {
                break self.ticket.wait();
            }
            std::thread::yield_now();
        };
        self.job.record(out, done, report);
    }
}

/// A submitted job: its request id and nominal flops, when it was sent
/// (or due) since the measured phase began, and how late after its due
/// time it was submitted.
struct Sent {
    req: u64,
    flops: f64,
    sent: Duration,
    late: Duration,
}

impl Sent {
    fn record(&self, out: &mut Outcome, done: &mut Done, report: JobReport) {
        let req = self.req;
        if report.wait + report.exec != report.turnaround {
            out.fail(format!(
                "job {req}: wait {:?} + exec {:?} != turnaround {:?}",
                report.wait, report.exec, report.turnaround
            ));
        } else if let Err(e) = report.outcome {
            out.fail(format!("job {req}: {e}"));
        } else {
            let turnaround = self.late + report.turnaround;
            done.add(self.sent + turnaround, turnaround, &report, self.flops);
        }
    }
}

/// Keep `in_flight` jobs in flight until `more` says stop, then drain.
/// Completion times count from the loop's start.
/// A full admission queue is backpressure: the loop waits for a
/// completion and offers the same job again.
fn closed_loop(
    client: &Client,
    in_flight: usize,
    mut more: impl FnMut(u64) -> bool,
    mut make: impl FnMut(u64) -> (JobSpec, f64),
    first_req: u64,
    out: &mut Outcome,
    done: &mut Done,
) {
    let mut pending: VecDeque<InFlight> = VecDeque::with_capacity(in_flight);
    let t0 = Instant::now();
    let mut n = 0;
    while more(n) {
        if pending.len() >= in_flight {
            pending.pop_front().expect("in flight").reap(out, done);
        }
        let req = first_req + n;
        let (spec, flops) = make(req);
        let sent = t0.elapsed();
        match trace::timed("serve.submit", req, || client.submit(spec)) {
            SubmitOutcome::Accepted(ticket) => {
                out.attempted += 1;
                let job = Sent {
                    req,
                    flops,
                    sent,
                    late: Duration::ZERO,
                };
                pending.push_back(InFlight { ticket, job });
                n += 1;
            }
            SubmitOutcome::Rejected(RejectReason::QueueFull) => match pending.pop_front() {
                Some(job) => job.reap(out, done),
                None => std::thread::yield_now(),
            },
            other => {
                out.attempted += 1;
                out.fail(format!("job {req} not admitted: {other:?}"));
                n += 1;
            }
        }
    }
    for job in pending {
        job.reap(out, done);
    }
}

/// The admission books must balance and every accepted job complete.
fn check_books(m: &MetricsSnapshot, out: &mut Outcome) {
    let offered = m.accepted + m.rejected_queue_full + m.rejected_shutdown + m.shed_deadline;
    if m.submitted != offered {
        out.fail(format!(
            "admission books: {} submitted, {offered} accounted for",
            m.submitted
        ));
    }
    if m.completed + m.failed != m.accepted {
        out.fail(format!(
            "{} accepted but {} completed and {} failed",
            m.accepted, m.completed, m.failed
        ));
    }
}

/// Worker time between two snapshots, over `wall`.
fn work_between(a: &MetricsSnapshot, b: &MetricsSnapshot, wall: Duration) -> Work {
    let busy: Vec<Duration> = b
        .worker_busy
        .iter()
        .zip(&a.worker_busy)
        .map(|(y, x)| *y - *x)
        .collect();
    let transfers: Vec<WorkerTransferStats> = b
        .worker_transfers
        .iter()
        .zip(&a.worker_transfers)
        .map(|(y, x)| WorkerTransferStats {
            staged_bytes: y.staged_bytes - x.staged_bytes,
            staged_count: y.staged_count - x.staged_count,
            stage_time: y.stage_time - x.stage_time,
            compute_time: y.compute_time - x.compute_time,
            overlap_time: y.overlap_time - x.overlap_time,
        })
        .collect();
    let mut w = Work::default();
    w.add(wall, &busy, &transfers);
    w.add_tasks(b.tasks_executed - a.tasks_executed);
    w
}

/// A service ready to measure: warmed up, counters of the warm-up
/// behind it.
struct Ready {
    service: Service,
    before: MetricsSnapshot,
    /// How long each setup took, s.
    setup_s: Vec<f64>,
}

/// Time `setups` setups from `pass.started`/now, keep the last service.
fn set_up(
    pass: &Pass,
    out: &mut Outcome,
    sched_stats: Option<&Arc<SchedStats>>,
    mut once: impl FnMut(&mut Outcome) -> Service,
) -> Ready {
    let mut times = Vec::new();
    let mut kept = None;
    for s in 0..pass.setups {
        let t = pass.started.filter(|_| s == 0).unwrap_or_else(Instant::now);
        if let Some(old) = kept.take() {
            shut_down(old, out);
        }
        let mut warm = Outcome::default();
        kept = Some(once(&mut warm));
        out.failed += warm.failed;
        out.problems.extend(warm.problems);
        times.push(t.elapsed().as_secs_f64());
    }
    let service = kept.expect("at least one setup");
    if let Some(s) = sched_stats {
        s.reset();
    }
    let before = service.metrics();
    out.notes.push(format!("setup times (s): {times:?}"));
    Ready {
        service,
        before,
        setup_s: times,
    }
}

fn shut_down(service: Service, out: &mut Outcome) -> Runtime {
    let m = service.metrics();
    check_books(&m, out);
    service.shutdown()
}

/// Which windows of a serve run its end-to-end figures come from.
#[derive(Clone, Copy)]
enum Keep {
    /// The half with the least hypervisor steal: an open loop's
    /// throughput is set by its arrivals, not by how fast the host runs.
    LeastSteal,
    /// The [`TINY_KEEP_SHARE`] that completed the most jobs; the tail
    /// alone comes from every window, since the windows left out are the
    /// ones holding the stalls a tail exists to report.
    Fastest,
}

/// Metrics shared by both serve workloads.
#[allow(clippy::too_many_arguments)]
fn report(
    pass: &Pass,
    out: &mut Outcome,
    ready: Ready,
    done: &Done,
    mut intervals: Intervals,
    keep: Keep,
    wall: Duration,
    sched_stats: Option<&Arc<SchedStats>>,
) {
    let after = ready.service.metrics();
    let rt = shut_down(ready.service, out);
    if done.turnaround_ms.is_empty() {
        if out.failed == 0 {
            out.fail("no job completed");
        }
        return;
    }
    let jobs = done.jobs as f64;
    let (t99, q) = stats::tail(&done.turnaround_ms, 0.99);
    out.notes.push(format!(
        "{jobs} jobs in {:.2} s (drain included): {:.1} jobs/s, {:.6} GFLOP/s; latencies \
         sampled from every {}th job, whole-run turnaround p{:.2} {t99:.4} ms",
        wall.as_secs_f64(),
        jobs / wall.as_secs_f64(),
        done.flops / wall.as_secs_f64() / 1e9,
        done.stride,
        q * 100.0,
    ));
    if !pass.traced {
        // End-to-end figures over the run's quiet windows (see `Keep`).
        let peak_rss_mb = intervals.peak_rss_mb();
        let n = done.windows.len();
        let (keep, tail, chosen_by) = match keep {
            Keep::LeastSteal => {
                let quiet = intervals.quiet(n);
                (quiet.clone(), quiet, "the least steal")
            }
            Keep::Fastest => {
                let jobs: Vec<f64> = done.windows.iter().map(|w| w.0).collect();
                (
                    fastest(&jobs, TINY_KEEP_SHARE),
                    vec![true; n],
                    "the most completions",
                )
            }
        };
        let (Some((per_s, gflops, _)), Some((_, _, p99))) =
            (done.windowed(&keep), done.windowed(&tail))
        else {
            out.fail("the run is shorter than one window");
            return;
        };
        out.notes.push(format!(
            "figures from the {} of {n} windows of {} s with {chosen_by}; jobs_per_s and gflops \
             are medians over those windows, turnaround_ms_p99 the median over {} windows of \
             each window's p99",
            keep.iter().filter(|k| **k).count(),
            done.window_s,
            tail.iter().filter(|k| **k).count(),
        ));
        out.set("setup_s", stats::median(&ready.setup_s));
        out.set(
            "solve_ms_p50",
            stats::median(&done.kept(&done.exec_ms, &keep)),
        );
        out.set("gflops", gflops);
        out.set("jobs_per_s", per_s);
        out.set(
            "turnaround_ms_p50",
            stats::median(&done.kept(&done.turnaround_ms, &keep)),
        );
        out.set("turnaround_ms_p99", p99);
        out.set("peak_rss_mb", peak_rss_mb);
        return;
    }
    let b = &ready.before;
    let w = work_between(b, &after, wall);
    out.set("kernels.busy_share", w.busy_share());
    out.set("mem.staged_bytes_per_task", w.staged_bytes_per_task());
    out.set("mem.stage_share", w.stage_share());
    out.set("mem.overlap_ratio", w.overlap_ratio());
    out.set("mem.device_bytes_per_solve", w.staged_bytes() as f64 / jobs);
    let ss = sched_stats.expect("traced pass has a wrapper");
    out.set("core.assign_us", ss.assign_us());
    out.set("core.wave_us", ss.wave_us());
    out.set(
        "core.calls_per_task",
        ss.calls() as f64 / w.tasks().max(1) as f64,
    );
    let mut counts = after.version_counts.clone();
    for (k, v) in &b.version_counts {
        *counts.entry(*k).or_insert(0) -= v;
    }
    let (best, total) = layers::best_version_tasks(&rt, &counts);
    out.set("core.best_version_share", best as f64 / total.max(1) as f64);
    let overhead = w.overhead_share();
    if overhead < 0.0 {
        out.fail(format!("runtime.overhead_share is negative ({overhead})"));
    }
    out.set("runtime.overhead_share", overhead);
    out.set(
        "sim.run_us_per_task",
        layers::sim_run_us_per_task(Duration::from_millis(150)),
    );
    out.set("serve.queue_wait_ms_p50", stats::median(&done.wait_ms));
    out.set(
        "serve.queue_wait_ms_p99",
        stats::tail(&done.wait_ms, 0.99).0,
    );
    out.set("serve.exec_ms_p50", stats::median(&done.exec_ms));
    out.set("serve.exec_ms_p99", stats::tail(&done.exec_ms, 0.99).0);
    let waves = (after.waves - b.waves).max(1);
    out.set("serve.tasks_per_wave", w.tasks() as f64 / waves as f64);
    let offered = (after.submitted - b.submitted).max(1);
    out.set(
        "serve.backpressure_share",
        (after.rejected_queue_full - b.rejected_queue_full) as f64 / offered as f64,
    );
    let wall_s = wall.as_secs_f64();
    let util: Vec<f64> = after
        .worker_busy
        .iter()
        .zip(&b.worker_busy)
        .map(|(y, x)| ((*y - *x).as_secs_f64() / wall_s).min(1.0))
        .collect();
    out.set("serve.worker_utilization", stats::mean(&util));
}

/// `serve-tiny-sim`.
pub fn run_tiny_sim(pass: &Pass) -> Outcome {
    let mut out = Outcome::default();
    let sched_stats = pass.traced.then(|| Arc::new(SchedStats::default()));
    let seed = pass.seed;
    let ready = set_up(pass, &mut out, sched_stats.as_ref(), |warm| {
        let rt = Runtime::simulated(versioning(), PlatformConfig::minotauro(4, 0));
        let service = start(rt, sched_stats.as_ref());
        let client = service.client();
        if let Err(e) = register(&client, jobs::tiny_axpy_job(ELEMS, seed)) {
            warm.fail(e);
        }
        let mut done = Done::new(Duration::ZERO, TINY_WINDOW_S, 1);
        let make = |req: u64| (tiny_job(seed ^ req, req, false), tiny_flops());
        closed_loop(
            &client,
            TINY_IN_FLIGHT,
            |n| n < TINY_WARMUP_JOBS,
            make,
            SETUP_REQUESTS,
            warm,
            &mut done,
        );
        service
    });
    if pass.traced {
        trace::enable(64);
    }
    let client = ready.service.client();
    let mut done = Done::new(pass.seconds, TINY_WINDOW_S, TINY_SAMPLE_STRIDE);
    let mut intervals = Intervals::start(Duration::from_secs_f64(TINY_WINDOW_S));
    let t0 = Instant::now();
    let make = |req: u64| (tiny_job(seed ^ req, req, false), tiny_flops());
    let more = |_| {
        intervals.tick();
        t0.elapsed() < pass.seconds
    };
    closed_loop(&client, TINY_IN_FLIGHT, more, make, 0, &mut out, &mut done);
    let wall = t0.elapsed();
    drop(client);
    out.cost = wall.as_secs_f64() / done.jobs.max(1) as f64;
    report(
        pass,
        &mut out,
        ready,
        &done,
        intervals,
        Keep::Fastest,
        wall,
        sched_stats.as_ref(),
    );
    out
}

fn mixed_job(seed: u64, req: u64) -> (JobSpec, f64) {
    if (req + seed).is_multiple_of(HEAVY_EVERY) {
        (heavy_job(seed, req), heavy_flops())
    } else {
        (tiny_job(seed ^ req, req, true), tiny_flops())
    }
}

/// Arrival offsets from the start of the measured phase: Poisson
/// arrivals at `rate` conditioned on their count, so every seed offers
/// the same number of jobs over the same span.
fn arrivals(seed: u64, rate: f64, span: Duration) -> Vec<Duration> {
    let n = ((rate * span.as_secs_f64()).round() as usize).max(1);
    let mut rng = Rng::new(seed ^ 0xA11_1BA1);
    let mut at: Vec<f64> = Vec::with_capacity(n);
    let mut t = 0.0;
    for _ in 0..=n {
        t += -rng.unit().ln();
        at.push(t);
    }
    let total = at.pop().expect("n + 1 gaps");
    at.iter().map(|x| span.mul_f64(x / total)).collect()
}

/// `serve-mixed-native`.
pub fn run_mixed_native(pass: &Pass) -> Outcome {
    let mut out = Outcome::default();
    let sched_stats = pass.traced.then(|| Arc::new(SchedStats::default()));
    let seed = pass.seed;
    let mut schedule = Vec::new();
    let ready = set_up(pass, &mut out, sched_stats.as_ref(), |warm| {
        schedule = arrivals(seed, MIXED_RATE, pass.seconds);
        let native = NativeConfig {
            gpu_lanes: 1,
            ..NativeConfig::new(1, 1)
        };
        let service = start(Runtime::native(versioning(), native), sched_stats.as_ref());
        let client = service.client();
        for spec in [
            jobs::tiny_axpy_job(ELEMS, seed),
            jobs::matmul_native_job(HEAVY, seed, false),
        ] {
            if let Err(e) = register(&client, spec) {
                warm.fail(e);
            }
        }
        let mut done = Done::new(Duration::ZERO, MIXED_WINDOW_S, 1);
        let make = |req: u64| mixed_job(seed, req);
        closed_loop(
            &client,
            16,
            |n| n < MIXED_WARMUP_JOBS,
            make,
            SETUP_REQUESTS,
            warm,
            &mut done,
        );
        service
    });
    if pass.traced {
        trace::enable(8);
    }

    let client = ready.service.client();
    let mut done = Done::new(pass.seconds, MIXED_WINDOW_S, 1);
    let mut intervals = Intervals::start(Duration::from_secs_f64(MIXED_WINDOW_S));
    let mut late_ms = Vec::with_capacity(schedule.len());
    let mut pending: VecDeque<InFlight> = VecDeque::new();
    // A short lead so the first arrival is not due before the loop runs.
    let t0 = Instant::now() + Duration::from_millis(5);
    for (k, offset) in schedule.iter().enumerate() {
        let req = k as u64;
        let (spec, flops) = mixed_job(seed, req);
        let due = t0 + *offset;
        // Yield rather than sleep until the arrival is due: a sleeping
        // generator lets its virtual CPU halt, and on a shared host the
        // wake-up then waits for the hypervisor.
        while Instant::now() < due {
            std::thread::yield_now();
        }
        let late = Instant::now().saturating_duration_since(due);
        late_ms.push(late.as_secs_f64() * 1e3);
        out.attempted += 1;
        match trace::timed("serve.submit", req, || client.submit(spec)) {
            SubmitOutcome::Accepted(ticket) => {
                let job = Sent {
                    req,
                    flops,
                    sent: *offset,
                    late,
                };
                pending.push_back(InFlight { ticket, job });
            }
            other => out.fail(format!("arrival {req} not admitted: {other:?}")),
        }
        intervals.tick();
        while let Some(report) = pending.front().and_then(|j| j.ticket.try_wait()) {
            pending
                .pop_front()
                .expect("front exists")
                .job
                .record(&mut out, &mut done, report);
        }
    }
    for job in pending {
        job.reap(&mut out, &mut done);
    }
    let wall = t0.elapsed();
    drop(client);

    let late_p99 = stats::tail(&late_ms, 0.99).0;
    let limit_ms = LATE_LIMIT_GAPS * 1e3 / MIXED_RATE;
    // The traced half reports per-layer metrics only, none of which
    // includes the generator's lateness.
    if !pass.traced && late_p99 > limit_ms {
        out.invalid = Some(format!(
            "generator p99 lateness {late_p99:.3} ms exceeds {limit_ms} ms \
             ({LATE_LIMIT_GAPS} mean inter-arrival gaps)"
        ));
    }
    if !done.turnaround_ms.is_empty() {
        out.cost = stats::median(&done.turnaround_ms);
    }
    out.notes
        .push(format!("generator lateness p99 {late_p99:.4} ms"));
    if pass.traced {
        out.set("bench.generator_late_ms_p99", late_p99);
        // The heavy jobs bind mm-hyb's kernels, at their own tile size.
        for &(name, kernel) in crate::mm::HYB.kernels {
            let budget = Duration::from_millis(100);
            out.set(name, layers::gemm_gflops(kernel, HEAVY.bs, budget));
        }
    }
    report(
        pass,
        &mut out,
        ready,
        &done,
        intervals,
        Keep::LeastSteal,
        wall,
        sched_stats.as_ref(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_seeded_sorted_and_span_the_run() {
        let span = Duration::from_secs(2);
        let a = arrivals(5, 1000.0, span);
        assert_eq!(a.len(), 2000);
        assert_eq!(a, arrivals(5, 1000.0, span));
        assert_ne!(a, arrivals(6, 1000.0, span));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < span);
        // Mean gap close to 1/rate.
        let mean_gap = a.last().unwrap().as_secs_f64() / 1999.0;
        assert!((mean_gap - 1e-3).abs() < 1e-4, "{mean_gap}");
    }
}
