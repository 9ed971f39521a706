//! Lifecycle of the native engine's threads: they start at the first run,
//! survive an aborted run without leaking its completions into the next
//! one, and are joined when the runtime drops.
//!
//! This binary holds a single test on purpose: it counts the process's
//! threads, which concurrently running tests would disturb.

use std::time::{Duration, Instant};
use versa::prelude::*;
use versa::runtime::{NativeConfig, TaskState};

/// Threads of this process (Linux only; `None` elsewhere).
fn thread_count() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

/// Wait until the thread count settles at `want`: a joined thread may
/// linger in `/proc` for a moment after `join` returns.
fn settles_at(want: usize) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if thread_count() == Some(want) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

#[test]
fn abort_drains_the_runtime_stays_usable_and_drop_joins_its_threads() {
    for async_transfers in [true, false] {
        let before = thread_count();
        let mut config = RuntimeConfig::with_scheduler(SchedulerKind::DepAware);
        config.async_transfers = async_transfers;
        let mut rt = Runtime::native(
            config,
            NativeConfig { smp_workers: 1, gpus: 1, gpu_lanes: 2, link_bandwidth: None },
        );
        assert_eq!(thread_count(), before, "constructing a runtime spawns no thread");

        let bad = rt.template("bad").main("bad_smp", &[DeviceKind::Smp]).register();
        let slow = rt.template("slow").main("slow_gpu", &[DeviceKind::Cuda]).register();
        rt.bind_native(bad, VersionId(0), |_| panic!("always down"));
        rt.bind_native(slow, VersionId(0), |ctx| {
            // Long enough that GPU tasks are still queued or running
            // when the SMP task exhausts its retries.
            std::thread::sleep(Duration::from_millis(3));
            for v in ctx.f64_mut(0) {
                *v += 1.0;
            }
        });
        let broken = rt.alloc_from_f64(&[1.0; 8]);
        let bad_task = rt.task(bad).read_write(broken).submit();
        let slow_cells: Vec<_> = (0..6)
            .map(|i| {
                let cell = rt.alloc_from_f64(&[i as f64; 8]);
                rt.task(slow).read_write(cell).submit();
                cell
            })
            .collect();

        let err = rt.run().expect_err("an always-panicking task must abort the run");
        assert_eq!(err.task, bad_task);
        assert!(err.message.contains("always down"), "got: {}", err.message);
        assert_eq!(err.report.failures.failure_count(), 4, "1 attempt + 3 retries");
        assert!(!err.report.completed);
        // The abort drained every dispatched task: nothing is left
        // running, and the failing task is back in the ready pool.
        assert!(rt.graph().nodes().all(|n| n.state != TaskState::Running));
        assert_eq!(rt.graph().node(bad_task).state, TaskState::Ready);
        let threads_alive = thread_count();
        if let (Some(before), Some(alive)) = (before, threads_alive) {
            // A stager and an exec thread per worker, plus the GPU's one
            // pooled lane.
            assert_eq!(alive, before + 5, "the first run started the pipeline threads");
        }

        // Fix the kernel and keep going on the same runtime: the retried
        // task, the drained tasks and fresh work all complete exactly. A
        // completion leaked from the aborted run would trip the engine's
        // FIFO check here.
        rt.bind_native(bad, VersionId(0), |ctx| {
            for v in ctx.f64_mut(0) {
                *v *= 3.0;
            }
        });
        let fresh: Vec<_> = (0..4)
            .map(|i| {
                let cell = rt.alloc_from_f64(&[10.0 * i as f64; 8]);
                rt.task(if i % 2 == 0 { bad } else { slow }).read_write(cell).submit();
                cell
            })
            .collect();
        let report = rt.run().expect("the runtime is reusable after an abort");
        assert!(report.completed);
        assert_eq!(
            err.report.tasks_executed + report.tasks_executed,
            1 + 6 + 4,
            "every task ran exactly once successfully"
        );
        assert_eq!(rt.read_f64(broken), vec![3.0; 8]);
        for (i, &cell) in slow_cells.iter().enumerate() {
            assert_eq!(rt.read_f64(cell), vec![i as f64 + 1.0; 8]);
        }
        for (i, &cell) in fresh.iter().enumerate() {
            let v = 10.0 * i as f64;
            let want = if i % 2 == 0 { v * 3.0 } else { v + 1.0 };
            assert_eq!(rt.read_f64(cell), vec![want; 8]);
        }
        assert_eq!(thread_count(), threads_alive, "a later run spawns no thread");

        drop(rt);
        if let Some(before) = before {
            assert!(settles_at(before), "dropping the runtime joins every engine thread");
        }
    }
}
