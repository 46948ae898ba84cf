//! The device runtime: allocation, stream/event creation, peer copies,
//! and the kernel cost model.

use crate::buffer::Buffer;
use crate::event::GpuEvent;
use crate::ipc::IpcCache;
use crate::memory::{MemTracker, MemoryStats, StagingPool};
use crate::stream::{Stream, STREAM};
use mpx_sim::{Engine, Label};
use mpx_topo::units::Secs;
use mpx_topo::{DeviceId, LinkId, TopologyError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cost model for on-device compute kernels.
///
/// Two rates: element-wise *reductions* read two operands and write one
/// (three memory streams — slow), while local *pack/copy* kernels are
/// two-stream and run near memory bandwidth. The gap is what makes
/// MPI_Allreduce benefit less from faster transport than MPI_Alltoall
/// (paper Observation 3 of Section 5.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCostModel {
    /// Fixed kernel launch cost.
    pub launch: Secs,
    /// Streaming rate of an element-wise reduction (bytes of *input*
    /// processed per second).
    pub bytes_per_sec: f64,
    /// Streaming rate of a local device copy / pack kernel.
    pub copy_bytes_per_sec: f64,
}

impl KernelCostModel {
    /// V100/A100-ballpark: ~3 µs launch; the element-wise reduction
    /// streams two reads and one write per input element (~400 GB/s of
    /// HBM traffic → ~130 GB/s of *input*), while a plain device copy
    /// runs near memory bandwidth (~1.3 TB/s).
    pub const fn default_gpu() -> Self {
        KernelCostModel {
            launch: 3e-6,
            bytes_per_sec: 130e9,
            copy_bytes_per_sec: 1300e9,
        }
    }

    /// Free compute — for tests that isolate communication time.
    pub const fn zero() -> Self {
        KernelCostModel {
            launch: 0.0,
            bytes_per_sec: f64::INFINITY,
            copy_bytes_per_sec: f64::INFINITY,
        }
    }

    /// Cost of reducing `bytes` of input.
    pub fn cost(&self, bytes: usize) -> Secs {
        self.launch + bytes as f64 / self.bytes_per_sec
    }

    /// Cost of locally copying/packing `bytes`.
    pub fn cost_copy(&self, bytes: usize) -> Secs {
        self.launch + bytes as f64 / self.copy_bytes_per_sec
    }
}

impl Default for KernelCostModel {
    fn default() -> Self {
        Self::default_gpu()
    }
}

struct RuntimeInner {
    engine: Engine,
    kernel_cost: KernelCostModel,
    ipc: IpcCache,
    memory: Arc<MemTracker>,
    staging: Arc<StagingPool>,
    next_stream: AtomicU64,
}

/// Handle to the simulated GPU runtime. Cloning shares the runtime.
#[derive(Clone)]
pub struct GpuRuntime {
    inner: Arc<RuntimeInner>,
}

impl GpuRuntime {
    /// Creates a runtime over `engine` with the default kernel cost model.
    pub fn new(engine: Engine) -> GpuRuntime {
        GpuRuntime::with_kernel_cost(engine, KernelCostModel::default())
    }

    /// Creates a runtime with an explicit kernel cost model.
    pub fn with_kernel_cost(engine: Engine, kernel_cost: KernelCostModel) -> GpuRuntime {
        let devices = engine.topology().device_count();
        GpuRuntime {
            inner: Arc::new(RuntimeInner {
                engine,
                kernel_cost,
                ipc: IpcCache::new(),
                memory: MemTracker::new(devices),
                staging: StagingPool::new(devices),
                next_stream: AtomicU64::new(0),
            }),
        }
    }

    /// Per-device memory counters (runtime-allocated buffers only).
    pub fn memory_stats(&self) -> MemoryStats {
        self.inner.memory.stats()
    }

    /// The underlying simulation engine.
    pub fn engine(&self) -> &Engine {
        &self.inner.engine
    }

    /// The kernel cost model.
    pub fn kernel_cost(&self) -> &KernelCostModel {
        &self.inner.kernel_cost
    }

    /// The CUDA-IPC handle cache.
    pub fn ipc(&self) -> &IpcCache {
        &self.inner.ipc
    }

    /// Allocates a synthetic buffer (timing-only payload) on `device`.
    pub fn alloc(&self, device: DeviceId, len: usize) -> Buffer {
        Buffer::build(device, len, None, Some(self.inner.memory.clone()), None)
    }

    /// Allocates a real buffer holding `data` on `device`.
    pub fn alloc_bytes(&self, device: DeviceId, data: Vec<u8>) -> Buffer {
        let memory = Some(self.inner.memory.clone());
        Buffer::build(device, data.len(), Some(data), memory, None)
    }

    /// Allocates a zero-filled real buffer on `device`.
    pub fn alloc_zeroed(&self, device: DeviceId, len: usize) -> Buffer {
        self.alloc_bytes(device, vec![0; len])
    }

    /// Allocates a real staging buffer on `device` with **unspecified
    /// contents**: its storage is recycled from staging buffers this
    /// runtime retired earlier (and goes back when this one is dropped),
    /// so repeated transfers of one size neither allocate nor zero. The
    /// caller must write every byte before reading it.
    pub fn alloc_staging(&self, device: DeviceId, len: usize) -> Buffer {
        let (memory, pool) = (self.inner.memory.clone(), self.inner.staging.clone());
        let data = pool.take(device.index(), len);
        Buffer::build(device, len, Some(data), Some(memory), Some(pool))
    }

    /// Creates a stream on `device`.
    pub fn stream(&self, device: DeviceId) -> Stream {
        let n = self.inner.next_stream.fetch_add(1, Ordering::Relaxed);
        let name = STREAM.label(&[device.0 as u64, n]);
        Stream::new(self.inner.engine.clone(), device, name)
    }

    /// Creates a one-shot event.
    pub fn event(&self, name: impl Into<Label>) -> GpuEvent {
        GpuEvent::new(name)
    }

    /// The single-link route between two devices, if one exists — the
    /// route of a direct peer copy.
    pub fn direct_route(&self, src: DeviceId, dst: DeviceId) -> Result<Vec<LinkId>, TopologyError> {
        Ok(vec![
            self.inner.engine.topology().link_between(src, dst)?.id,
        ])
    }

    /// Convenience: enqueue a whole-buffer direct peer copy on `stream`,
    /// charging the topology's copy-launch overhead.
    pub fn memcpy_peer_async(
        &self,
        stream: &Stream,
        src: &Buffer,
        dst: &Buffer,
    ) -> Result<(), TopologyError> {
        assert_eq!(src.len(), dst.len(), "peer copy length mismatch");
        let route = self.direct_route(src.device(), dst.device())?;
        let launch = self.inner.engine.topology().overheads.copy_launch;
        stream.copy(src, 0, dst, 0, src.len(), route, launch, "memcpy_peer");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpx_sim::Waker;
    use mpx_topo::presets;

    fn runtime() -> GpuRuntime {
        GpuRuntime::new(Engine::new(Arc::new(presets::synthetic_default())))
    }

    #[test]
    fn streams_are_named_as_the_format_they_replaced() {
        let rt = runtime();
        let gpus = rt.engine().topology().gpus();
        for n in 0..300 {
            let device = gpus[n % gpus.len()];
            assert_eq!(
                rt.stream(device).name().to_string(),
                format!("{device}.s{n}")
            );
        }
    }

    #[test]
    fn kernel_cost_model_math() {
        let m = KernelCostModel {
            launch: 1e-6,
            bytes_per_sec: 1e9,
            copy_bytes_per_sec: 2e9,
        };
        assert!((m.cost(1_000_000) - 1.001e-3).abs() < 1e-12);
        assert!((m.cost_copy(1_000_000) - 0.501e-3).abs() < 1e-12);
        assert_eq!(KernelCostModel::zero().cost(1 << 30), 0.0);
        assert_eq!(KernelCostModel::zero().cost_copy(1 << 30), 0.0);
    }

    #[test]
    fn memcpy_peer_moves_data_and_time() {
        let rt = runtime();
        let topo = rt.engine().topology().clone();
        let gpus = topo.gpus();
        let src = rt.alloc_bytes(gpus[0], (0u8..=255).collect());
        let dst = rt.alloc_zeroed(gpus[1], 256);
        let s = rt.stream(gpus[0]);
        rt.memcpy_peer_async(&s, &src, &dst).unwrap();
        rt.engine().run_until_idle();
        assert_eq!(dst.to_vec().unwrap(), (0u8..=255).collect::<Vec<_>>());
        // 2 µs link latency dominates 256 bytes at 50 GB/s.
        assert!(rt.engine().now().as_secs() >= 2e-6);
    }

    #[test]
    fn stream_ops_execute_in_order() {
        let rt = runtime();
        let topo = rt.engine().topology().clone();
        let gpus = topo.gpus();
        let a = rt.alloc_bytes(gpus[0], vec![1; 8]);
        let b = rt.alloc_zeroed(gpus[1], 8);
        let c = rt.alloc_zeroed(gpus[2], 8);
        let s = rt.stream(gpus[0]);
        // b <- a, then c <- b. Ordering matters: if the second copy ran
        // first it would move zeros.
        s.copy(
            &a,
            0,
            &b,
            0,
            8,
            rt.direct_route(gpus[0], gpus[1]).unwrap(),
            0.0,
            "c1",
        );
        s.copy(
            &b,
            0,
            &c,
            0,
            8,
            rt.direct_route(gpus[1], gpus[2]).unwrap(),
            0.0,
            "c2",
        );
        rt.engine().run_until_idle();
        assert_eq!(c.to_vec().unwrap(), vec![1; 8]);
    }

    #[test]
    fn cross_stream_event_serializes() {
        let rt = runtime();
        let topo = rt.engine().topology().clone();
        let gpus = topo.gpus();
        let a = rt.alloc_bytes(gpus[0], vec![7; 16]);
        let staging = rt.alloc_zeroed(gpus[2], 16);
        let b = rt.alloc_zeroed(gpus[1], 16);
        let s1 = rt.stream(gpus[0]);
        let s2 = rt.stream(gpus[2]);
        let ev = rt.event("chunk0");
        // Staged copy: s1 moves a -> staging, records; s2 waits, moves
        // staging -> b. Enqueue s2's work *first* to prove the wait holds.
        s2.wait_event(&ev);
        s2.copy(
            &staging,
            0,
            &b,
            0,
            16,
            rt.direct_route(gpus[2], gpus[1]).unwrap(),
            0.0,
            "leg2",
        );
        s1.copy(
            &a,
            0,
            &staging,
            0,
            16,
            rt.direct_route(gpus[0], gpus[2]).unwrap(),
            0.0,
            "leg1",
        );
        s1.record(&ev);
        rt.engine().run_until_idle();
        assert_eq!(b.to_vec().unwrap(), vec![7; 16]);
        assert!(ev.is_complete());
    }

    #[test]
    fn wait_on_completed_event_passes_immediately() {
        let rt = runtime();
        let gpus = rt.engine().topology().gpus();
        let s1 = rt.stream(gpus[0]);
        let s2 = rt.stream(gpus[1]);
        let ev = rt.event("pre");
        s1.record(&ev);
        rt.engine().run_until_idle();
        assert!(ev.is_complete());
        let w = Waker::new("done");
        s2.wait_event(&ev);
        s2.signal(&w);
        rt.engine().run_until_idle();
        assert!(w.is_signaled());
    }

    #[test]
    fn kernel_charges_time_and_applies_effect() {
        let rt = GpuRuntime::with_kernel_cost(
            Engine::new(Arc::new(presets::synthetic_default())),
            KernelCostModel {
                launch: 1e-6,
                bytes_per_sec: 1e9,
                copy_bytes_per_sec: 2e9,
            },
        );
        let gpus = rt.engine().topology().gpus();
        let buf = rt.alloc_bytes(gpus[0], vec![3; 4]);
        let s = rt.stream(gpus[0]);
        let cost = rt.kernel_cost().cost(1_000_000);
        let b2 = buf.clone();
        s.kernel(
            cost,
            Some(Box::new(move || {
                b2.with_data(|d| d.iter_mut().for_each(|x| *x *= 2));
            })),
            "double",
        );
        rt.engine().run_until_idle();
        assert_eq!(buf.to_vec().unwrap(), vec![6; 4]);
        assert!((rt.engine().now().as_secs() - 1.001e-3).abs() < 1e-9);
    }

    #[test]
    fn synchronize_blocks_simulated_thread() {
        let rt = runtime();
        let topo = rt.engine().topology().clone();
        let gpus = topo.gpus();
        let src = rt.alloc(gpus[0], 50_000_000_000);
        let dst = rt.alloc(gpus[1], 50_000_000_000);
        let t = rt.engine().register_thread("host");
        let rt2 = rt.clone();
        let h = std::thread::spawn(move || {
            let s = rt2.stream(gpus[0]);
            rt2.memcpy_peer_async(&s, &src, &dst).unwrap();
            s.synchronize(&t);
            t.now().as_secs()
        });
        let done = h.join().unwrap();
        assert!((done - 1.0).abs() < 1e-3, "done = {done}");
    }

    #[test]
    fn pending_ops_counts_in_flight_work() {
        let rt = runtime();
        let gpus = rt.engine().topology().gpus();
        let src = rt.alloc(gpus[0], 1 << 20);
        let dst = rt.alloc(gpus[1], 1 << 20);
        let s = rt.stream(gpus[0]);
        assert_eq!(s.pending_ops(), 0);
        rt.memcpy_peer_async(&s, &src, &dst).unwrap();
        assert_eq!(s.pending_ops(), 1);
        rt.engine().run_until_idle();
        assert_eq!(s.pending_ops(), 0);
    }

    #[test]
    fn direct_route_missing_link_errors() {
        let rt = GpuRuntime::new(Engine::new(Arc::new(presets::pcie_only(2))));
        let gpus = rt.engine().topology().gpus();
        assert!(rt.direct_route(gpus[0], gpus[1]).is_err());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn memcpy_peer_length_mismatch_panics() {
        let rt = runtime();
        let gpus = rt.engine().topology().gpus();
        let src = rt.alloc(gpus[0], 8);
        let dst = rt.alloc(gpus[1], 4);
        let s = rt.stream(gpus[0]);
        let _ = rt.memcpy_peer_async(&s, &src, &dst);
    }
}
