//! In-process loopback tests for the remote-node data plane: a mock
//! [`RemoteNode`] standing in for a `versa-net` worker process. These
//! prove the coordinator-side machinery — mirror-space shipping,
//! name-based dispatch, write-back, node-loss retirement/requeue, NIC
//! bandwidth learning — without any sockets.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use versa_core::{DeviceKind, FailureKind, SchedulerKind, VersionId};
use versa_mem::{AlignedBuf, DataId, MemSpace};
use versa_runtime::{
    NativeConfig, RemoteCaps, RemoteDone, RemoteError, RemoteExec, RemoteNode, Runtime,
    RuntimeConfig,
};
use versa_trace::TraceEvent;

/// A stand-in for a remote worker process: its own byte store (the
/// "remote arena") plus the same `scale2` kernel the coordinator binds
/// locally. Optionally dies after a fixed number of executions.
struct MockNode {
    workers: usize,
    store: Mutex<HashMap<DataId, Vec<u8>>>,
    execs: AtomicU32,
    ships: AtomicU32,
    /// Executions before the node "dies" (`u32::MAX` = immortal).
    fail_after: u32,
}

impl MockNode {
    fn new(workers: usize, fail_after: u32) -> MockNode {
        MockNode {
            workers,
            store: Mutex::new(HashMap::new()),
            execs: AtomicU32::new(0),
            ships: AtomicU32::new(0),
            fail_after,
        }
    }
}

impl RemoteNode for MockNode {
    fn caps(&self) -> RemoteCaps {
        RemoteCaps {
            name: "mock:0".into(),
            smp_workers: self.workers,
            simd_tier: "scalar".into(),
        }
    }

    fn ship(&self, data: DataId, bytes: Arc<AlignedBuf>) -> Result<(), RemoteError> {
        if self.execs.load(Ordering::SeqCst) >= self.fail_after {
            return Err(RemoteError::Lost("connection reset".into()));
        }
        self.ships.fetch_add(1, Ordering::SeqCst);
        self.store.lock().unwrap().insert(data, bytes.as_bytes().to_vec());
        Ok(())
    }

    fn exec(&self, req: &RemoteExec) -> Result<RemoteDone, RemoteError> {
        let n = self.execs.fetch_add(1, Ordering::SeqCst);
        if n >= self.fail_after {
            return Err(RemoteError::Lost("connection reset".into()));
        }
        if req.template != "scale2" {
            return Err(RemoteError::Task(format!("unknown template {:?}", req.template)));
        }
        let mut store = self.store.lock().unwrap();
        let acc = &req.accesses[0];
        // Out-only buffers were never shipped; materialize them zeroed,
        // exactly as the real worker process does.
        let bytes = store
            .entry(acc.region.data)
            .or_insert_with(|| vec![0u8; acc.alloc_len as usize]);
        for chunk in bytes.chunks_exact_mut(8) {
            let v = f64::from_ne_bytes(chunk.try_into().unwrap());
            chunk.copy_from_slice(&(v * 2.0).to_ne_bytes());
        }
        Ok(RemoteDone {
            kernel_time: Duration::from_micros(50),
            writes: vec![(acc.region.data, Arc::new(AlignedBuf::from_bytes(bytes)))],
        })
    }
}

/// 2 local SMP workers, `scale2` bound; the caller decides whether to
/// attach a remote node before submitting.
fn scale2_runtime() -> (Runtime, versa_core::TemplateId) {
    let mut rt = Runtime::native(
        RuntimeConfig::with_scheduler(SchedulerKind::versioning()),
        NativeConfig::new(2, 0),
    );
    let tpl = rt.template("scale2").main("smp", &[DeviceKind::Smp]).register();
    rt.bind_native(tpl, VersionId(0), |ctx| {
        for v in ctx.f64_mut(0) {
            *v *= 2.0;
        }
    });
    (rt, tpl)
}

/// Run `rounds` dependent `scale2` passes over `bufs` buffers and return
/// the final contents of each.
fn run_scale2(rt: &mut Runtime, tpl: versa_core::TemplateId, bufs: usize, rounds: usize) -> Vec<Vec<f64>> {
    let ids: Vec<DataId> =
        (0..bufs).map(|i| rt.alloc_from_f64(&[i as f64 + 1.0, 0.5, -3.25, 1e6])).collect();
    for _ in 0..rounds {
        for &id in &ids {
            rt.task(tpl).read_write(id).submit();
        }
    }
    rt.run().expect("run failed");
    ids.iter().map(|&id| rt.read_f64(id)).collect()
}

#[test]
fn loopback_cluster_matches_single_process() {
    let (mut local, tpl) = scale2_runtime();
    let expected = run_scale2(&mut local, tpl, 8, 3);

    let (mut clustered, tpl) = scale2_runtime();
    let node = Arc::new(MockNode::new(2, u32::MAX));
    let id = clustered.attach_remote_node(node.clone());
    assert_eq!(id, 1);
    assert_eq!(clustered.workers().len(), 4, "2 local + 2 remote workers");
    let got = run_scale2(&mut clustered, tpl, 8, 3);

    assert_eq!(got, expected, "cluster results must be numerically identical");
    assert!(
        node.execs.load(Ordering::SeqCst) > 0,
        "remote workers never executed anything"
    );
    assert!(node.ships.load(Ordering::SeqCst) > 0, "no tiles were shipped");
}

#[test]
fn node_loss_mid_job_requeues_and_completes() {
    let (mut rt, tpl) = scale2_runtime();
    rt.config_mut().tracing = versa_trace::TraceConfig::on();
    let node = Arc::new(MockNode::new(2, 3));
    rt.attach_remote_node(node.clone());

    let ids: Vec<DataId> = (0..12).map(|i| rt.alloc_from_f64(&[i as f64, 1.0])).collect();
    for _ in 0..3 {
        for &id in &ids {
            rt.task(tpl).read_write(id).submit();
        }
    }
    let report = rt.run().expect("node loss must not abort the run");
    assert!(report.completed, "all tasks must complete via requeue");
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(rt.read_f64(id), vec![i as f64 * 8.0, 8.0], "results correct after requeue");
    }

    let lost: Vec<_> = report
        .failures
        .events
        .iter()
        .filter(|f| f.kind == FailureKind::NodeLost)
        .collect();
    assert!(!lost.is_empty(), "the loss must be reported as NodeLost failures");
    assert!(report.failures.retries >= lost.len() as u64, "each loss requeues");
    assert!(
        report.failures.quarantined.is_empty(),
        "node loss must not quarantine versions: {:?}",
        report.failures.quarantined
    );

    // The trace records the loss, places remote workers on node 1, and
    // upholds the cross-node invariant (nothing starts on the dead node
    // after the loss).
    let trace = report.trace.expect("tracing was on");
    assert!(
        trace.events().iter().any(|e| matches!(e, TraceEvent::NodeLost { node: 1, .. })),
        "trace must record the node loss"
    );
    assert!(trace.meta.workers.iter().any(|w| w.node == 1));
    let violations = versa_trace::invariants::check(&trace);
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn remote_link_bandwidth_is_learned() {
    let (mut rt, tpl) = scale2_runtime();
    rt.attach_remote_node(Arc::new(MockNode::new(2, u32::MAX)));
    // NativeConfig::new(2, 0) has no GPUs, so the mirror space of node 1
    // is the arena's first device space.
    let mirror = MemSpace::device(0);
    assert!(
        rt.versioning().unwrap().measured_bandwidth(mirror).is_none(),
        "no NIC samples before any shipment"
    );
    run_scale2(&mut rt, tpl, 6, 2);
    let bw = rt
        .versioning()
        .unwrap()
        .measured_bandwidth(mirror)
        .expect("shipping tiles must feed the bandwidth EWMA");
    assert!(bw > 0.0, "learned NIC bandwidth must be positive, got {bw}");
}
