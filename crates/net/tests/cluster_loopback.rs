//! End-to-end cluster tests over real loopback TCP: coordinator +
//! worker threads speaking the actual wire protocol. These cover what
//! the in-process `RemoteNode` mocks in versa-runtime can't: framing,
//! the mux, the handshake, profile gossip, hint caching, membership
//! probation, and clean shutdown.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use versa_core::scheduler::DecisionPhase;
use versa_core::{DeviceKind, SchedulerKind, VersionId};
use versa_mem::DataId;
use versa_net::{Cluster, WorkerConfig};
use versa_runtime::{NativeConfig, Runtime, RuntimeConfig};

/// Register the shared test template on a runtime (coordinator and
/// workers must agree, like real applications sharing `register_native`).
fn register_scale2(rt: &mut Runtime) {
    let tpl = rt.template("scale2").main("smp", &[DeviceKind::Smp]).register();
    rt.bind_native(tpl, VersionId(0), |ctx| {
        for v in ctx.f64_mut(0) {
            *v *= 2.0;
        }
    });
}

fn coordinator() -> Runtime {
    let mut rt = Runtime::native(
        RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
        NativeConfig::new(2, 0),
    );
    register_scale2(&mut rt);
    rt
}

fn submit_and_run(rt: &mut Runtime, bufs: usize, rounds: usize) -> Vec<Vec<f64>> {
    let tpl = rt.templates().by_name("scale2").expect("scale2 is registered");
    let ids: Vec<DataId> =
        (0..bufs).map(|i| rt.alloc_from_f64(&[i as f64 + 1.0, -0.5, 3.25])).collect();
    for _ in 0..rounds {
        for &id in &ids {
            rt.task(tpl).read_write(id).submit();
        }
    }
    rt.run().expect("run failed");
    ids.iter().map(|&id| rt.read_f64(id)).collect()
}

/// A unique temp path for hint caches (no global state, test-name keyed).
fn temp_hints_path(key: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let n = SEQ.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!(
        "versa-net-hints-{}-{key}-{n}.txt",
        std::process::id()
    ))
}

#[test]
fn tcp_cluster_matches_single_process() {
    let mut single = coordinator();
    let expected = submit_and_run(&mut single, 8, 3);

    let mut rt = coordinator();
    let mut cluster = Cluster::listen("127.0.0.1:0").unwrap();
    let addr = cluster.local_addr().unwrap().to_string();

    let workers: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut cfg = WorkerConfig::new(addr, 2);
                cfg.name = format!("w{i}");
                versa_net::run_worker(cfg, register_scale2)
            })
        })
        .collect();

    let j1 = cluster.accept_node(&mut rt).unwrap();
    let j2 = cluster.accept_node(&mut rt).unwrap();
    let mut ids = [j1.node_id, j2.node_id];
    ids.sort_unstable();
    assert_eq!(ids, [1, 2]);
    assert!(!j1.probation && !j2.probation, "fresh names never start on probation");
    assert_eq!(rt.workers().len(), 6, "2 local + 2×2 remote workers");

    let got = submit_and_run(&mut rt, 8, 3);
    assert_eq!(got, expected, "TCP cluster must be numerically identical");

    cluster.shutdown(&rt);
    let mut total_execs = 0;
    for w in workers {
        let report = w.join().unwrap().expect("worker must shut down cleanly");
        total_execs += report.execs;
    }
    assert!(total_execs > 0, "remote workers never executed a task");
}

#[test]
fn shutdown_gossip_warms_the_next_join() {
    // Life 1: a cold coordinator + one worker caching hints at shutdown.
    let cache = temp_hints_path("warm");
    let _ = std::fs::remove_file(&cache);

    let mut rt = coordinator();
    let mut cluster = Cluster::listen("127.0.0.1:0").unwrap();
    let addr = cluster.local_addr().unwrap().to_string();
    let cache1 = cache.clone();
    let w = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut cfg = WorkerConfig::new(addr, 1);
            cfg.hints_cache = Some(cache1);
            versa_net::run_worker(cfg, register_scale2)
        }
    });
    let join1 = cluster.accept_node(&mut rt).unwrap();
    assert_eq!(join1.hints_applied, 0, "nothing cached yet: the worker joins cold");
    submit_and_run(&mut rt, 6, 4);
    cluster.shutdown(&rt);
    let report1 = w.join().unwrap().unwrap();
    assert_eq!(report1.hints_applied, 0, "coordinator was cold at welcome time");
    assert!(cache.exists(), "shutdown gossip must be cached to disk");

    // Life 2: a FRESH coordinator, warmed only by the worker's cached
    // gossip. The pre-warmed template must skip the learning phase
    // entirely: zero Learning-phase decisions.
    let mut rt2 = coordinator();
    rt2.versioning_mut().unwrap().set_decision_logging(true);
    let mut cluster2 = Cluster::listen("127.0.0.1:0").unwrap();
    let addr2 = cluster2.local_addr().unwrap().to_string();
    let cache2 = cache.clone();
    let w2 = std::thread::spawn(move || {
        let mut cfg = WorkerConfig::new(addr2, 1);
        cfg.hints_cache = Some(cache2);
        versa_net::run_worker(cfg, register_scale2)
    });
    let join2 = cluster2.accept_node(&mut rt2).unwrap();
    assert!(
        join2.hints_applied > 0,
        "the rejoining worker's cached hints must warm the fresh coordinator"
    );
    submit_and_run(&mut rt2, 6, 4);
    let decisions = rt2.versioning_mut().unwrap().drain_decisions();
    assert!(!decisions.is_empty(), "decision logging was on");
    let learning = decisions
        .iter()
        .filter(|d| d.phase == DecisionPhase::Learning)
        .count();
    assert_eq!(
        learning, 0,
        "a gossip-warmed coordinator must record zero learning-phase decisions"
    );

    cluster2.shutdown(&rt2);
    w2.join().unwrap().unwrap();
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn abrupt_disconnect_is_reaped_and_rejoin_enters_probation() {
    use versa_net::protocol::{read_frame, write_frame, Frame};

    let mut rt = coordinator();
    let mut cluster = Cluster::listen("127.0.0.1:0").unwrap();
    let addr = cluster.local_addr().unwrap();

    // A hand-rolled worker that registers, then drops the connection.
    let t = std::thread::spawn(move || {
        let mut s = std::net::TcpStream::connect(addr).unwrap();
        write_frame(
            &mut s,
            &Frame::Hello {
                name: "flaky".into(),
                smp_workers: 1,
                simd_tier: "scalar".into(),
                hints: String::new(),
            },
            0,
        )
        .unwrap();
        let (frame, _) = read_frame(&mut s).unwrap().unwrap();
        assert!(matches!(frame, Frame::Welcome { node_id: 1, .. }));
        // Connection dropped here: the coordinator must notice.
    });
    let join = cluster.accept_node(&mut rt).unwrap();
    assert_eq!(join.name, "flaky");
    assert!(!join.probation);
    t.join().unwrap();

    // The reader thread sees EOF and kills the link; reap records the loss.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let mut lost = Vec::new();
    while lost.is_empty() && std::time::Instant::now() < deadline {
        lost = cluster.reap();
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(lost, vec!["flaky".to_string()]);
    assert_eq!(cluster.membership.record("flaky").unwrap().losses, 1);

    // The same name rejoining is flagged as on probation.
    let addr2 = cluster.local_addr().unwrap().to_string();
    let w = std::thread::spawn(move || {
        let mut cfg = WorkerConfig::new(addr2, 1);
        cfg.name = "flaky".into();
        versa_net::run_worker(cfg, register_scale2)
    });
    let rejoin = cluster.accept_node(&mut rt).unwrap();
    assert!(rejoin.probation, "a name with recorded losses rejoins on probation");
    assert_eq!(rejoin.node_id, 2);
    cluster.shutdown(&rt);
    w.join().unwrap().unwrap();
}

#[test]
fn freed_data_leaves_the_node() {
    let mut rt = coordinator();
    let mut cluster = Cluster::listen("127.0.0.1:0").unwrap();
    let addr = cluster.local_addr().unwrap().to_string();
    let w = std::thread::spawn(move || {
        versa_net::run_worker(WorkerConfig::new(addr, 2), register_scale2)
    });
    cluster.accept_node(&mut rt).unwrap();

    // Two alloc/run/free rounds on one membership: every tile shipped to
    // or written on the node must be dropped there when it is freed.
    let tpl = rt.templates().by_name("scale2").unwrap();
    for round in 0..2 {
        let ids: Vec<DataId> =
            (0..8).map(|i| rt.alloc_from_f64(&[i as f64, round as f64, 1.5, -2.0])).collect();
        for _ in 0..3 {
            for &id in &ids {
                rt.task(tpl).read_write(id).submit();
            }
        }
        rt.run().expect("run failed");
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(rt.read_f64(id), vec![8.0 * i as f64, 8.0 * round as f64, 12.0, -16.0]);
            rt.free(id);
        }
    }

    cluster.shutdown(&rt);
    let report = w.join().unwrap().expect("worker must shut down cleanly");
    assert!(report.ships > 0 && report.execs > 0, "the node never held any data: {report:?}");
    assert_eq!(report.resident_bytes, 0, "freed allocations must not stay resident on the node");
}

#[test]
fn node_exec_threads_persist_across_waves() {
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    // The node records which of its threads ran a kernel; the
    // coordinator's own copy of the kernel does not record.
    let seen: Arc<Mutex<HashSet<ThreadId>>> = Arc::default();
    let mut rt = coordinator();
    let mut cluster = Cluster::listen("127.0.0.1:0").unwrap();
    let addr = cluster.local_addr().unwrap().to_string();
    let node_seen = Arc::clone(&seen);
    let w = std::thread::spawn(move || {
        versa_net::run_worker(WorkerConfig::new(addr, 1), move |rt: &mut Runtime| {
            let tpl = rt.template("scale2").main("smp", &[DeviceKind::Smp]).register();
            rt.bind_native(tpl, VersionId(0), move |ctx| {
                node_seen.lock().unwrap().insert(std::thread::current().id());
                for v in ctx.f64_mut(0) {
                    *v *= 2.0;
                }
            });
        })
    });
    cluster.accept_node(&mut rt).unwrap();

    let mut waves = Vec::new();
    for _ in 0..2 {
        submit_and_run(&mut rt, 8, 3);
        waves.push(std::mem::take(&mut *seen.lock().unwrap()));
    }
    cluster.shutdown(&rt);
    w.join().unwrap().expect("worker must shut down cleanly");

    assert!(!waves[0].is_empty() && !waves[1].is_empty(), "both waves ran remote kernels");
    assert!(
        waves[1].is_subset(&waves[0]),
        "wave 2 ran remote kernels on threads wave 1 never used: {waves:?}"
    );
}
