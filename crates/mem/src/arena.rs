//! Native-mode backing store: real per-space byte buffers.
//!
//! In native execution every address space — the host and each emulated
//! accelerator — owns an [`Arena`]: a map from [`DataId`] to a real byte
//! buffer. Coherence transfers become `memcpy`s between arenas, and kernels
//! receive slices into the arena of the space they execute in, so a task
//! scheduled on an emulated GPU genuinely cannot see host memory.
//!
//! Buffers are reference-counted (`Arc<AlignedBuf>`): read-only kernel
//! arguments clone the `Arc` ([`Arena::read_arc`]) and view the bytes in
//! place with zero copies, while writers take the buffer out of the map
//! ([`Arena::with_buffers`]) and unwrap it to unique ownership. The task
//! graph's dependence tracking guarantees no reader/writer overlap on the
//! same allocation in the same space, so unwrap contention is limited to
//! the instants a transfer briefly holds a second reference.

use crate::{AlignedBuf, DataId, MemSpace, Transfer};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

type SpaceMap = HashMap<DataId, Arc<AlignedBuf>>;

/// Number of lock stripes per space. Buffer operations are keyed to a
/// stripe by data id, so concurrent kernels, stagers, and admissions
/// touching different allocations in the same space never serialize on
/// one map-wide lock. Power of two so the modulo compiles to a mask.
const SHARDS: usize = 16;

/// One space's buffer pool, lock-striped by data id.
struct SpaceShards {
    shards: Vec<Mutex<SpaceMap>>,
}

impl SpaceShards {
    fn new() -> SpaceShards {
        SpaceShards { shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect() }
    }

    /// The stripe holding `data`'s buffer.
    fn shard(&self, data: DataId) -> MutexGuard<'_, SpaceMap> {
        self.shards[data.0 as usize % SHARDS].lock().expect("arena lock poisoned")
    }
}

/// Per-space buffer pools for native execution.
///
/// Buffers are lazily created in device spaces on first transfer. All
/// buffers for one allocation have the registered size; transfers always
/// move whole allocations (matching the [`Directory`](crate::Directory)'s
/// handle-granularity coherence).
///
/// Each space's map is lock-striped by data id ([`SHARDS`] stripes), so
/// operations on different allocations in the same space proceed
/// concurrently.
///
/// The space list can grow after construction ([`Arena::add_spaces`]) so
/// remote nodes attached mid-setup get local mirror spaces; existing
/// spaces are never removed or renumbered.
pub struct Arena {
    spaces: RwLock<Vec<Arc<SpaceShards>>>,
}

impl Arena {
    /// An arena covering the host plus `devices` device spaces.
    pub fn new(devices: usize) -> Arena {
        Arena {
            spaces: RwLock::new((0..devices + 1).map(|_| Arc::new(SpaceShards::new())).collect()),
        }
    }

    /// Number of spaces (host + devices).
    pub fn space_count(&self) -> usize {
        self.spaces.read().expect("arena lock poisoned").len()
    }

    /// Append `n` fresh empty spaces (mirror spaces for remote devices).
    /// Existing space indices are unaffected.
    pub fn add_spaces(&self, n: usize) {
        let mut spaces = self.spaces.write().expect("arena lock poisoned");
        for _ in 0..n {
            spaces.push(Arc::new(SpaceShards::new()));
        }
    }

    fn space_arc(&self, s: MemSpace) -> Arc<SpaceShards> {
        let spaces = self.spaces.read().expect("arena lock poisoned");
        spaces
            .get(s.index())
            .cloned()
            .unwrap_or_else(|| panic!("space {s} not present in arena"))
    }

    /// Run `f` holding the stripe of `data` in space `s`. The outer space
    /// list lock is released before `f` runs, so `add_spaces` never
    /// deadlocks against in-flight buffer operations.
    fn with_shard<R>(&self, s: MemSpace, data: DataId, f: impl FnOnce(&mut SpaceMap) -> R) -> R {
        let arc = self.space_arc(s);
        let mut guard = arc.shard(data);
        f(&mut guard)
    }

    /// Create the host buffer for `data`, initialized from `init`.
    ///
    /// # Panics
    /// Panics if `data` already has a host buffer.
    pub fn alloc_host(&self, data: DataId, init: &[u8]) {
        self.alloc_host_buf(data, AlignedBuf::from_bytes(init));
    }

    /// Create a zero-filled host buffer of `len` bytes for `data`.
    pub fn alloc_host_zeroed(&self, data: DataId, len: usize) {
        self.alloc_host_buf(data, AlignedBuf::zeroed(len));
    }

    /// Install an already built buffer as the host copy of `data` (see
    /// [`AlignedBuf::from_f64`] for building one from typed values
    /// without an intermediate byte vector).
    ///
    /// # Panics
    /// Panics if `data` already has a host buffer.
    pub fn alloc_host_buf(&self, data: DataId, buf: AlignedBuf) {
        self.with_shard(MemSpace::HOST, data, |host| {
            let prev = host.insert(data, Arc::new(buf));
            assert!(prev.is_none(), "{data:?} allocated twice on host");
        })
    }

    /// Drop every buffer of `data` in every space.
    pub fn free(&self, data: DataId) {
        let spaces: Vec<Arc<SpaceShards>> =
            self.spaces.read().expect("arena lock poisoned").clone();
        for s in &spaces {
            s.shard(data).remove(&data);
        }
    }

    /// Perform a real copy for `t`, creating the destination buffer if
    /// needed.
    ///
    /// # Panics
    /// Panics if the source buffer does not exist or sizes mismatch.
    pub fn perform(&self, t: &Transfer) {
        assert_ne!(t.from, t.to, "degenerate transfer");
        let src = self.with_shard(t.from, t.data, |from| {
            let buf = from
                .get(&t.data)
                .unwrap_or_else(|| panic!("{:?} has no buffer in {}", t.data, t.from));
            assert_eq!(buf.len() as u64, t.bytes, "transfer size mismatch for {:?}", t.data);
            Arc::clone(buf)
        });
        // Deep copy outside the source lock: each space owns its bytes.
        let copy = Arc::new(AlignedBuf::clone(&src));
        self.with_shard(t.to, t.data, |to| {
            to.insert(t.data, copy);
        });
    }

    /// Read the bytes of `data` in `space` (copies out).
    ///
    /// # Panics
    /// Panics if no buffer exists there.
    pub fn read(&self, data: DataId, space: MemSpace) -> Vec<u8> {
        self.read_arc(data, space).as_bytes().to_vec()
    }

    /// Shared handle to the buffer of `data` in `space` — the zero-copy
    /// path for read-only kernel arguments.
    ///
    /// # Panics
    /// Panics if no buffer exists there.
    pub fn read_arc(&self, data: DataId, space: MemSpace) -> Arc<AlignedBuf> {
        self.with_shard(space, data, |sp| {
            sp.get(&data)
                .map(Arc::clone)
                .unwrap_or_else(|| panic!("{data:?} has no buffer in {space}"))
        })
    }

    /// Install `buf` as the copy of `data` in `space`, replacing any
    /// existing copy without a byte copy: the landing path for bytes a
    /// peer sent over the wire, read straight into `buf`. A reader
    /// still holding the old buffer keeps it.
    ///
    /// # Errors
    /// When `space` already holds a buffer of a different length,
    /// returns that length and leaves the arena unchanged.
    pub fn install(&self, data: DataId, space: MemSpace, buf: Arc<AlignedBuf>) -> Result<(), usize> {
        self.with_shard(space, data, |sp| match sp.get(&data) {
            Some(old) if old.len() != buf.len() => Err(old.len()),
            _ => {
                sp.insert(data, buf);
                Ok(())
            }
        })
    }

    /// Total bytes of every buffer in every space.
    pub fn resident_bytes(&self) -> u64 {
        let spaces: Vec<Arc<SpaceShards>> =
            self.spaces.read().expect("arena lock poisoned").clone();
        spaces
            .iter()
            .flat_map(|s| &s.shards)
            .map(|shard| {
                let map = shard.lock().expect("arena lock poisoned");
                map.values().map(|b| b.len() as u64).sum::<u64>()
            })
            .sum()
    }

    /// Whether `data` has a buffer in `space`.
    pub fn has(&self, data: DataId, space: MemSpace) -> bool {
        self.with_shard(space, data, |sp| sp.contains_key(&data))
    }

    /// Materialize a zero-filled buffer of `len` bytes for `data` in
    /// `space` if none exists yet. Needed for `output`-only accesses on
    /// devices: no copy-in happens, but the kernel still needs backing
    /// memory to write into.
    pub fn ensure(&self, data: DataId, space: MemSpace, len: usize) {
        self.with_shard(space, data, |sp| {
            sp.entry(data).or_insert_with(|| Arc::new(AlignedBuf::zeroed(len)));
        })
    }

    /// Run `f` with mutable access to the buffer of `data` in `space`.
    ///
    /// # Panics
    /// Panics if no buffer exists there.
    pub fn with_mut<R>(&self, data: DataId, space: MemSpace, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.with_shard(space, data, |sp| {
            let arc = sp
                .get_mut(&data)
                .unwrap_or_else(|| panic!("{data:?} has no buffer in {space}"));
            f(Arc::make_mut(arc).as_bytes_mut())
        })
    }

    /// Take the buffers of several allocations out of `space`, run `f`,
    /// and put them back. This allows a kernel to borrow multiple buffers
    /// mutably at once without holding the space lock while computing.
    ///
    /// If a transfer is mid-copy from one of the buffers, the take-out
    /// spins until the transient reference drops; the task graph's
    /// dependences rule out longer-lived readers.
    ///
    /// The buffers are restored even if `f` panics (the unwind carries
    /// whatever partial writes the kernel made), so a failed task can be
    /// retried with the data still materialized.
    ///
    /// # Panics
    /// Panics if any buffer is missing or an allocation is listed twice.
    pub fn with_buffers<R>(
        &self,
        space: MemSpace,
        ids: &[DataId],
        f: impl FnOnce(&mut [AlignedBuf]) -> R,
    ) -> R {
        // Take each buffer out of its own stripe: ids are distinct (a
        // duplicate trips the panic below on its second removal), so the
        // per-id locking order cannot deadlock.
        let shards = self.space_arc(space);
        let arcs: Vec<Arc<AlignedBuf>> = ids
            .iter()
            .map(|id| {
                shards.shard(*id).remove(id).unwrap_or_else(|| {
                    panic!("{id:?} has no buffer in {space} (or listed twice)")
                })
            })
            .collect();
        let bufs: Vec<AlignedBuf> = arcs
            .into_iter()
            .map(|mut arc| loop {
                match Arc::try_unwrap(arc) {
                    Ok(buf) => break buf,
                    Err(shared) => {
                        arc = shared;
                        std::thread::yield_now();
                    }
                }
            })
            .collect();

        /// Re-inserts the taken-out buffers on scope exit, unwind
        /// included — a panicking kernel must not leave the arena with
        /// missing allocations.
        struct Restore<'a> {
            arena: &'a Arena,
            space: MemSpace,
            ids: &'a [DataId],
            bufs: Vec<AlignedBuf>,
        }
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                let ids = self.ids;
                let bufs = std::mem::take(&mut self.bufs);
                for (id, buf) in ids.iter().zip(bufs) {
                    self.arena.with_shard(self.space, *id, |sp| {
                        sp.insert(*id, Arc::new(buf));
                    });
                }
            }
        }

        let mut restore = Restore { arena: self, space, ids, bufs };
        f(&mut restore.bufs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transfer(data: DataId, from: MemSpace, to: MemSpace, bytes: u64) -> Transfer {
        Transfer { data, from, to, bytes }
    }

    #[test]
    fn alloc_and_read_host() {
        let a = Arena::new(2);
        a.alloc_host(DataId(0), &[1, 2, 3]);
        assert_eq!(a.read(DataId(0), MemSpace::HOST), vec![1, 2, 3]);
        assert!(a.has(DataId(0), MemSpace::HOST));
        assert!(!a.has(DataId(0), MemSpace::device(0)));
    }

    #[test]
    fn transfer_copies_bytes_between_spaces() {
        let a = Arena::new(1);
        a.alloc_host(DataId(0), &[9, 8, 7, 6]);
        a.perform(&transfer(DataId(0), MemSpace::HOST, MemSpace::device(0), 4));
        assert_eq!(a.read(DataId(0), MemSpace::device(0)), vec![9, 8, 7, 6]);
        // Mutate on device, copy back.
        a.with_mut(DataId(0), MemSpace::device(0), |b| b[0] = 42);
        a.perform(&transfer(DataId(0), MemSpace::device(0), MemSpace::HOST, 4));
        assert_eq!(a.read(DataId(0), MemSpace::HOST), vec![42, 8, 7, 6]);
    }

    #[test]
    fn transfers_deep_copy_not_alias() {
        let a = Arena::new(1);
        a.alloc_host(DataId(0), &[1, 2]);
        a.perform(&transfer(DataId(0), MemSpace::HOST, MemSpace::device(0), 2));
        a.with_mut(DataId(0), MemSpace::device(0), |b| b[0] = 99);
        // Host copy is unaffected: spaces own their bytes.
        assert_eq!(a.read(DataId(0), MemSpace::HOST), vec![1, 2]);
    }

    #[test]
    fn read_arc_shares_until_write() {
        let a = Arena::new(0);
        a.alloc_host(DataId(0), &[5, 6]);
        let shared = a.read_arc(DataId(0), MemSpace::HOST);
        // A write while a reader holds the Arc must not mutate the
        // reader's view (copy-on-write via make_mut).
        a.with_mut(DataId(0), MemSpace::HOST, |b| b.copy_from_slice(&[7, 8]));
        assert_eq!(shared.as_bytes(), &[5, 6]);
        assert_eq!(a.read(DataId(0), MemSpace::HOST), vec![7, 8]);
    }

    #[test]
    fn install_swaps_in_the_buffer_without_copying() {
        let a = Arena::new(1);
        let dev = MemSpace::device(0);
        let first = Arc::new(AlignedBuf::from_bytes(&[1, 2, 3]));
        a.install(DataId(0), dev, Arc::clone(&first)).unwrap();
        assert!(Arc::ptr_eq(&a.read_arc(DataId(0), dev), &first), "installed, not copied");
        let reader = a.read_arc(DataId(0), dev);
        let second = Arc::new(AlignedBuf::from_bytes(&[4, 5, 6]));
        a.install(DataId(0), dev, Arc::clone(&second)).unwrap();
        assert!(Arc::ptr_eq(&a.read_arc(DataId(0), dev), &second));
        assert_eq!(reader.as_bytes(), &[1, 2, 3], "a live reader keeps the old bytes");
        let wrong = Arc::new(AlignedBuf::from_bytes(&[7]));
        assert_eq!(a.install(DataId(0), dev, wrong), Err(3), "length is checked");
        assert_eq!(a.read(DataId(0), dev), vec![4, 5, 6], "a rejected install changes nothing");
    }

    #[test]
    fn resident_bytes_counts_every_space_until_free() {
        let a = Arena::new(1);
        assert_eq!(a.resident_bytes(), 0);
        a.alloc_host(DataId(0), &[0; 24]);
        a.alloc_host(DataId(1), &[0; 8]);
        a.perform(&transfer(DataId(0), MemSpace::HOST, MemSpace::device(0), 24));
        assert_eq!(a.resident_bytes(), 24 + 8 + 24);
        a.free(DataId(0));
        a.free(DataId(1));
        assert_eq!(a.resident_bytes(), 0);
    }

    #[test]
    fn with_buffers_takes_and_restores() {
        let a = Arena::new(0);
        a.alloc_host(DataId(0), &[1, 1]);
        a.alloc_host(DataId(1), &[2, 2]);
        a.with_buffers(MemSpace::HOST, &[DataId(0), DataId(1)], |bufs| {
            assert_eq!(bufs.len(), 2);
            bufs[0].as_bytes_mut()[0] = 10;
            bufs[1].as_bytes_mut()[1] = 20;
        });
        assert_eq!(a.read(DataId(0), MemSpace::HOST), vec![10, 1]);
        assert_eq!(a.read(DataId(1), MemSpace::HOST), vec![2, 20]);
    }

    #[test]
    fn with_buffers_waits_out_transient_readers() {
        let a = Arc::new(Arena::new(0));
        a.alloc_host(DataId(0), &[0; 8]);
        let reader = a.read_arc(DataId(0), MemSpace::HOST);
        let a2 = Arc::clone(&a);
        let t = std::thread::spawn(move || {
            a2.with_buffers(MemSpace::HOST, &[DataId(0)], |bufs| {
                bufs[0].as_bytes_mut()[0] = 1;
            });
        });
        // The writer spins until this reference drops.
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(reader);
        t.join().unwrap();
        assert_eq!(a.read(DataId(0), MemSpace::HOST)[0], 1);
    }

    #[test]
    fn with_buffers_restores_on_panic() {
        let a = Arena::new(0);
        a.alloc_host(DataId(0), &[1, 2]);
        a.alloc_host(DataId(1), &[3, 4]);
        let unwind = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.with_buffers(MemSpace::HOST, &[DataId(0), DataId(1)], |bufs| {
                bufs[0].as_bytes_mut()[0] = 9;
                panic!("kernel blew up");
            })
        }));
        assert!(unwind.is_err());
        // Both buffers are back in the arena — a retry can still run —
        // and carry whatever the kernel wrote before panicking.
        assert_eq!(a.read(DataId(0), MemSpace::HOST), vec![9, 2]);
        assert_eq!(a.read(DataId(1), MemSpace::HOST), vec![3, 4]);
    }

    #[test]
    fn free_drops_all_copies() {
        let a = Arena::new(1);
        a.alloc_host(DataId(0), &[5]);
        a.perform(&transfer(DataId(0), MemSpace::HOST, MemSpace::device(0), 1));
        a.free(DataId(0));
        assert!(!a.has(DataId(0), MemSpace::HOST));
        assert!(!a.has(DataId(0), MemSpace::device(0)));
    }

    #[test]
    fn zeroed_allocation() {
        let a = Arena::new(0);
        a.alloc_host_zeroed(DataId(3), 8);
        assert_eq!(a.read(DataId(3), MemSpace::HOST), vec![0; 8]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn transfer_size_mismatch_panics() {
        let a = Arena::new(1);
        a.alloc_host(DataId(0), &[1, 2]);
        a.perform(&transfer(DataId(0), MemSpace::HOST, MemSpace::device(0), 3));
    }

    #[test]
    #[should_panic(expected = "no buffer")]
    fn read_missing_buffer_panics() {
        let a = Arena::new(0);
        a.read(DataId(0), MemSpace::HOST);
    }

    #[test]
    fn add_spaces_grows_without_disturbing_existing_buffers() {
        let a = Arena::new(1);
        a.alloc_host(DataId(0), &[1, 2]);
        assert_eq!(a.space_count(), 2);
        a.add_spaces(2);
        assert_eq!(a.space_count(), 4);
        // New spaces are live transfer targets; old data is untouched.
        a.perform(&transfer(DataId(0), MemSpace::HOST, MemSpace::device(2), 2));
        assert_eq!(a.read(DataId(0), MemSpace::device(2)), vec![1, 2]);
        assert_eq!(a.read(DataId(0), MemSpace::HOST), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn out_of_range_space_panics() {
        let a = Arena::new(0);
        a.has(DataId(0), MemSpace::device(5));
    }
}
