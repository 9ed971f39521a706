//! The emulated GPU's lane pool must be persistent: every multi-lane
//! kernel batch across every task of a run has to execute on the same
//! small, fixed set of OS threads (the worker plus its pooled lanes) —
//! never on per-task spawned threads. The same holds across runs: the
//! native engine starts its threads once per runtime, not once per wave.

use std::collections::HashSet;
use std::sync::{Arc, Barrier, Mutex};
use std::thread::ThreadId;
use versa_core::{DeviceKind, SchedulerKind, VersionId};
use versa_runtime::{NativeConfig, Runtime, RuntimeConfig};

#[test]
fn gpu_kernels_reuse_a_fixed_thread_set_across_tasks() {
    const TASKS: usize = 40;
    const LANES: usize = 4;

    let mut rt = Runtime::native(
        RuntimeConfig::with_scheduler(SchedulerKind::DepAware),
        NativeConfig { smp_workers: 0, gpus: 1, gpu_lanes: LANES, link_bandwidth: None },
    );
    let template = rt.template("lane_probe").main("lane_probe_gpu", &[DeviceKind::Cuda]).register();

    // Record which OS thread executes each parallel band of each task.
    let ids: Arc<Mutex<HashSet<ThreadId>>> = Arc::new(Mutex::new(HashSet::new()));
    let sink = Arc::clone(&ids);
    rt.bind_native(template, VersionId(0), move |ctx| {
        let sink = &sink;
        ctx.par_bands(64, |band| {
            assert!(!band.is_empty());
            sink.lock().unwrap().insert(std::thread::current().id());
        });
        ctx.f64_mut(0)[0] += 1.0;
    });

    let cells: Vec<_> = (0..TASKS).map(|_| rt.alloc_from_f64(&[0.0])).collect();
    for &cell in &cells {
        rt.task(template).read_write(cell).submit();
    }
    let report = rt.run().expect("run failed");
    assert_eq!(report.tasks_executed as usize, TASKS);
    for &cell in &cells {
        assert_eq!(rt.read_f64(cell)[0], 1.0);
    }

    // 40 tasks × bands each, but only the worker thread + its LANES − 1
    // persistent pool threads may ever run a band. Per-task spawning
    // (the old behavior) would show up as ~TASKS × (LANES − 1) ids.
    let distinct = ids.lock().unwrap().len();
    assert!(
        distinct <= LANES,
        "parallel bands ran on {distinct} distinct threads; the lane pool must cap this at {LANES}"
    );
}

/// A service drives one runtime through many bounded waves. Every kernel
/// band after the first wave must run on a thread the first wave already
/// used — with overlapped staging and with inline staging alike. Per-wave
/// thread spawning would show up as fresh `ThreadId`s (never reused
/// within a process) in every wave.
#[test]
fn bounded_waves_spawn_no_threads_after_the_first() {
    const WAVES: usize = 50;
    const WAVE: usize = 8;

    for async_transfers in [true, false] {
        let mut config = RuntimeConfig::with_scheduler(SchedulerKind::DepAware);
        config.async_transfers = async_transfers;
        let mut rt = Runtime::native(
            config,
            NativeConfig { smp_workers: 1, gpus: 1, gpu_lanes: 2, link_bandwidth: None },
        );
        let smp = rt.template("wave_smp").main("wave_smp", &[DeviceKind::Smp]).register();
        let gpu = rt.template("wave_gpu").main("wave_gpu", &[DeviceKind::Cuda]).register();
        let seen: Arc<Mutex<HashSet<ThreadId>>> = Arc::new(Mutex::new(HashSet::new()));
        for template in [smp, gpu] {
            let sink = Arc::clone(&seen);
            rt.bind_native(template, VersionId(0), move |ctx| {
                // One band per lane, and no band finishes before every
                // lane holds one: each wave sees the device's whole
                // thread set, so the first wave's set is complete.
                let all_lanes = Barrier::new(ctx.lanes());
                ctx.par_bands(ctx.lanes(), |_| {
                    sink.lock().unwrap().insert(std::thread::current().id());
                    all_lanes.wait();
                });
                for v in ctx.f64_mut(0) {
                    *v += 1.0;
                }
            });
        }

        let mut first_wave: Option<HashSet<ThreadId>> = None;
        for wave in 0..WAVES {
            let start = wave as f64;
            let cells: Vec<_> = (0..WAVE)
                .map(|i| {
                    let cell = rt.alloc_from_f64(&[start; 16]);
                    rt.task(if i % 2 == 0 { smp } else { gpu }).read_write(cell).submit();
                    cell
                })
                .collect();
            let report = rt.run_bounded(Some(WAVE as u64)).expect("wave failed");
            assert_eq!(report.tasks_executed as usize, WAVE);
            assert!(report.completed);
            for cell in cells {
                assert_eq!(rt.read_f64(cell), vec![start + 1.0; 16]);
                rt.free(cell);
            }
            let ids = std::mem::take(&mut *seen.lock().unwrap());
            match &first_wave {
                None => {
                    // SMP exec thread + GPU exec thread + one pooled lane.
                    assert_eq!(ids.len(), 3, "async_transfers = {async_transfers}");
                    first_wave = Some(ids);
                }
                Some(first) => assert!(
                    ids.is_subset(first),
                    "wave {wave} (async_transfers = {async_transfers}) ran kernels on {} \
                     thread(s) the first wave never used",
                    ids.difference(first).count()
                ),
            }
        }
    }
}
