//! `versa-perfbench` — versa's benchmark: four named workloads, one
//! command.
//!
//! ```text
//! versa-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! versa-perfbench --self-test
//! ```
//!
//! An untraced run (`--trace 0`) measures one workload for `--seconds`
//! and prints its end-to-end metrics. A traced run (`--trace 1`) spends
//! half the time untraced and half with the benchmark's spans and the
//! scheduler timing wrapper on, and prints the per-layer metrics plus
//! the tracing overhead between the two halves. Every output is checked;
//! any failed check, failed or shed job marks the run incorrect and
//! exits 1. The last line of standard output is the result as one JSON
//! object. The benchmark drives versa only through its public API and
//! takes every input from `--seed`.

mod check;
mod layers;
mod mm;
mod sched;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("solve_ms_p50", "ms"),
    ("gflops", "GFLOP/s"),
    ("jobs_per_s", "jobs/s"),
    ("turnaround_ms_p50", "ms"),
    ("turnaround_ms_p99", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: every traced run reports each of them, 0 where
/// the workload gives the layer no work.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("kernels.gemm_gflops.cublas", "GFLOP/s"),
    ("kernels.gemm_gflops.cuda", "GFLOP/s"),
    ("kernels.gemm_gflops.simd", "GFLOP/s"),
    ("kernels.gemm_gflops.cblas", "GFLOP/s"),
    ("kernels.gemm_gflops.naive", "GFLOP/s"),
    ("kernels.busy_share", "ratio"),
    ("mem.staged_bytes_per_task", "B"),
    ("mem.stage_share", "ratio"),
    ("mem.overlap_ratio", "ratio"),
    ("mem.device_bytes_per_solve", "B"),
    ("mem.alloc_us", "us"),
    ("mem.free_us", "us"),
    ("core.assign_us", "us"),
    ("core.wave_us", "us"),
    ("core.calls_per_task", "count"),
    ("core.best_version_share", "ratio"),
    ("runtime.submit_us_per_task", "us"),
    ("runtime.overhead_share", "ratio"),
    ("sim.run_us_per_task", "us"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.exec_ms_p50", "ms"),
    ("serve.exec_ms_p99", "ms"),
    ("serve.tasks_per_wave", "count"),
    ("serve.backpressure_share", "ratio"),
    ("serve.worker_utilization", "ratio"),
    ("net.join_ms", "ms"),
    ("net.remote_task_share", "ratio"),
    ("net.ship_bytes_per_solve", "B"),
    ("net.ship_share", "ratio"),
    ("net.cluster_over_single", "ratio"),
    ("bench.generator_late_ms_p99", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// Setups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// How one pass of a workload runs.
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: Duration,
    /// Spans and the scheduler wrapper on.
    pub traced: bool,
    /// Setups to time (the last one is used).
    pub setups: usize,
    /// Corrupt one result tile of the first measured solve (self-test).
    pub corrupt: bool,
    /// When the process started, for the pass whose first setup is the
    /// process's first.
    pub started: Option<Instant>,
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted: solves, or jobs offered to the service.
    pub attempted: u64,
    /// Failed, shed or refused requests and failed output checks.
    pub failed: u64,
    /// The first few failures, described.
    pub problems: Vec<String>,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Cost per request (lower is better), compared between the untraced
    /// and traced halves of a traced run.
    pub cost: f64,
    /// Why the pass cannot be reported, when it cannot.
    pub invalid: Option<String>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Count one failure.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 10 {
            self.problems.push(why.into());
        }
    }

    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    MmHybNative,
    ServeTinySim,
    ServeMixedNative,
    ClusterMmWide,
}

const ALL: [Workload; 4] = [
    Workload::MmHybNative,
    Workload::ServeTinySim,
    Workload::ServeMixedNative,
    Workload::ClusterMmWide,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::MmHybNative => "mm-hyb-native",
            Workload::ServeTinySim => "serve-tiny-sim",
            Workload::ServeMixedNative => "serve-mixed-native",
            Workload::ClusterMmWide => "cluster-mm-wide",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    fn run(self, pass: &Pass) -> Outcome {
        match self {
            Workload::MmHybNative => mm::run(&mm::HYB, pass),
            Workload::ClusterMmWide => mm::run(&mm::CLUSTER, pass),
            Workload::ServeTinySim => serve::run_tiny_sim(pass),
            Workload::ServeMixedNative => serve::run_mixed_native(pass),
        }
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = match v.as_str() {
                    "all" => None,
                    _ => {
                        Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?)
                    }
                };
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--self-test" => args.self_test = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Every metric the mode must print, in order, with the missing
/// per-layer ones as 0 and a failure for a missing or non-positive
/// end-to-end one.
fn finalize_metrics(out: &mut Outcome, traced: bool) -> Vec<(&'static str, f64)> {
    let names = if traced {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    if let Some(extra) = out
        .metrics
        .keys()
        .find(|k| !names.iter().any(|(n, _)| n == *k))
    {
        panic!("metric {extra} is not in the benchmark's list");
    }
    let mut list = Vec::new();
    for &(name, _) in names {
        let value = out.metrics.get(name).copied();
        match value {
            Some(v) if v.is_finite() && (traced || v > 0.0) => list.push((name, v)),
            Some(v) if v.is_finite() => {
                out.fail(format!("{name} is {v}, not a positive measurement"));
                list.push((name, v));
            }
            Some(v) => {
                out.fail(format!("{name} is {v}"));
                list.push((name, 0.0));
            }
            None if traced => list.push((name, 0.0)),
            None => {
                out.fail(format!("{name} was not measured"));
                list.push((name, 0.0));
            }
        }
    }
    list
}

/// The result line: one JSON object, every value with all its digits.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let unit = unit_of(name);
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn meta_line(workload: &str, args: &Args) -> String {
    format!(
        "# meta workload={workload} seed={} seconds={} trace={} nproc={} simd={} commit={} \
         loadavg={:.2}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        check::nproc(),
        versa::kernels::simd::active_tier(),
        check::git_commit(),
        check::load_average(),
    )
}

/// Run one workload (untraced, or the two halves of a traced run).
fn run_one(w: Workload, args: &Args, started: Instant) -> Outcome {
    let seconds = Duration::from_secs_f64(args.seconds);
    let pass = Pass {
        seed: args.seed,
        seconds,
        traced: false,
        setups: SETUPS,
        corrupt: false,
        started: Some(started),
    };
    if !args.trace {
        return w.run(&pass);
    }
    let half = Pass {
        seconds: seconds / 2,
        setups: 1,
        ..pass
    };
    let plain = w.run(&half);
    let mut traced = w.run(&Pass {
        traced: true,
        started: None,
        ..half
    });
    let spans = trace::collect();
    for (metric, span) in [
        ("mem.alloc_us", "mem.alloc"),
        ("mem.free_us", "mem.free"),
        ("runtime.submit_us_per_task", "runtime.submit"),
        ("serve.submit_us", "serve.submit"),
    ] {
        traced.set(metric, spans.get(span).mean_us());
    }
    traced.set(
        "bench.trace_overhead_pct",
        100.0 * (traced.cost / plain.cost - 1.0),
    );
    traced.attempted += plain.attempted;
    traced.failed += plain.failed;
    traced.problems.extend(plain.problems);
    traced.invalid = traced.invalid.or(plain.invalid);

    let mut table = String::from("# self time by span (kept records)\n");
    for (name, t) in &spans.totals {
        let _ = writeln!(
            table,
            "#   {name:<20} calls {:>9}  mean {:>10.3} us  kept {:>7}  self {:>10.3} ms",
            t.count,
            t.mean_us(),
            t.kept,
            t.self_ns as f64 / 1e6
        );
    }
    eprint!("{table}");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{}.tsv", w.name(), args.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_tsv())) {
        Ok(()) => eprintln!("# spans written to {}", path.display()),
        Err(e) => eprintln!("# could not write {}: {e}", path.display()),
    }
    traced
}

/// `--workload all`: each workload in its own process, so each has its
/// own peak RSS, printing its table and result line in turn.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            failed.push(w.name());
        }
    }
    if failed.is_empty() {
        println!("# all {} workloads correct", ALL.len());
        ExitCode::SUCCESS
    } else {
        println!("# failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// Corrupt one result tile of an mm-hyb-native run and expect the run
/// to fail its output check; then expect a clean run to pass.
fn self_test(started: Instant) -> ExitCode {
    let pass = Pass {
        seed: 7,
        seconds: Duration::from_millis(1),
        traced: false,
        setups: 1,
        corrupt: true,
        started: Some(started),
    };
    let bad = mm::run(&mm::HYB, &pass);
    let good = mm::run(
        &mm::HYB,
        &Pass {
            corrupt: false,
            started: None,
            ..pass
        },
    );
    println!(
        "corrupted run: {} of {} failed: {:?}",
        bad.failed, bad.attempted, bad.problems
    );
    println!("clean run: {} of {} failed", good.failed, good.attempted);
    if bad.failed >= 1 && good.failed == 0 && good.attempted >= 1 {
        println!("self-test passed: the corrupted tile failed the run");
        ExitCode::SUCCESS
    } else {
        println!("self-test FAILED");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: versa-perfbench --workload <mm-hyb-native|serve-tiny-sim|\
                 serve-mixed-native|cluster-mm-wide|all> --seed <n> --seconds <s> --trace <0|1>\n\
                 \x20      versa-perfbench --self-test"
            );
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        return self_test(started);
    }
    let Some(w) = args.workload else {
        return run_all(&args);
    };

    println!("{}", meta_line(w.name(), &args));
    let ticks = check::cpu_ticks();
    let mut out = run_one(w, &args, started);
    let steal = check::steal_share(ticks, check::cpu_ticks());
    println!(
        "# host: {:.1}% of CPU time stolen by the hypervisor during the run",
        steal * 100.0
    );
    if let Some(why) = &out.invalid {
        eprintln!("run invalid, not reported: {why}");
        return ExitCode::from(3);
    }
    let list = finalize_metrics(&mut out, args.trace);
    for note in &out.notes {
        println!("# {note}");
    }
    for (name, value) in &list {
        println!("{name:<30} {value:>16.6} {}", unit_of(name));
    }
    let failed_share = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "failed_share {failed_share} ({} of {} requests)",
        out.failed, out.attempted
    );
    for p in &out.problems {
        eprintln!("failure: {p}");
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{}",
        result_json(correct, out.attempted.max(1), out.failed, &list)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric object in a `BENCHMARK.json` list.
    fn listed(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let field = |f: &str| {
                    let rest =
                        &obj[obj.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5..];
                    rest[..rest.find('"').expect("string closes")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), own(&PER_LAYER));
        for w in ALL {
            assert!(
                json.contains(&format!("\"name\": \"{}\"", w.name())),
                "{} listed",
                w.name()
            );
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(true, 3, 0, &[("setup_s", 0.25), ("core.assign_us", 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.25, \"unit\": \"s\"}, \"core.assign_us\": {\"value\": 1.5, \
             \"unit\": \"us\"}}}"
        );
    }
}
