//! Device and host buffers.
//!
//! A buffer either carries **real bytes** (correctness tests check that
//! multi-path chunking reassembles messages exactly) or is **synthetic**
//! (benchmarks move hundreds of gigabytes of virtual data without
//! allocating them). Copies between two real buffers move bytes; copies
//! involving a synthetic side only move simulated time.

use crate::memory::{MemTracker, StagingPool};
use mpx_topo::DeviceId;
use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(0);

struct BufferInner {
    id: u64,
    device: DeviceId,
    len: usize,
    data: Mutex<Option<Vec<u8>>>,
    tracker: Option<Arc<MemTracker>>,
    /// Where a staging slot's storage goes when the slot is retired.
    pool: Option<Arc<StagingPool>>,
}

impl Drop for BufferInner {
    fn drop(&mut self) {
        if let Some(t) = &self.tracker {
            t.release(self.device.index(), self.len as u64);
        }
        if let (Some(p), Some(v)) = (&self.pool, self.data.get_mut().take()) {
            p.give(self.device.index(), v);
        }
    }
}

/// A (simulated) memory allocation on a device or in host memory.
/// Cloning shares the allocation.
#[derive(Clone)]
pub struct Buffer {
    inner: Arc<BufferInner>,
}

impl Buffer {
    /// Allocates a synthetic buffer of `len` bytes on `device`.
    pub fn synthetic(device: DeviceId, len: usize) -> Buffer {
        Buffer::build(device, len, None, None, None)
    }

    /// Allocates a real buffer on `device` holding `data`.
    pub fn from_bytes(device: DeviceId, data: Vec<u8>) -> Buffer {
        let len = data.len();
        Buffer::build(device, len, Some(data), None, None)
    }

    /// Tracked constructor used by the runtime's allocation methods.
    pub(crate) fn build(
        device: DeviceId,
        len: usize,
        data: Option<Vec<u8>>,
        tracker: Option<Arc<MemTracker>>,
        pool: Option<Arc<StagingPool>>,
    ) -> Buffer {
        if let Some(t) = &tracker {
            t.acquire(device.index(), len as u64);
        }
        Buffer {
            inner: Arc::new(BufferInner {
                id: NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed),
                device,
                len,
                data: Mutex::new(data),
                tracker,
                pool,
            }),
        }
    }

    /// Allocates a zero-filled real buffer.
    pub fn zeroed(device: DeviceId, len: usize) -> Buffer {
        Buffer::from_bytes(device, vec![0; len])
    }

    /// Globally unique allocation id (used as the IPC handle key).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The device this buffer lives on.
    pub fn device(&self) -> DeviceId {
        self.inner.device
    }

    /// Allocation size in bytes.
    pub fn len(&self) -> usize {
        self.inner.len
    }

    /// True if the buffer has zero length.
    pub fn is_empty(&self) -> bool {
        self.inner.len == 0
    }

    /// True if this buffer carries no real bytes.
    pub fn is_synthetic(&self) -> bool {
        self.inner.data.lock().is_none()
    }

    /// Panics unless `[off, off + len)` lies inside the allocation.
    pub(crate) fn check_range(&self, what: &str, off: usize, len: usize) {
        assert!(
            off.checked_add(len)
                .is_some_and(|end| end <= self.inner.len),
            "{what} [{off}, {off}+{len}) out of bounds (len {})",
            self.inner.len
        );
    }

    /// Reads `len` bytes at `off`; `None` for synthetic buffers.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn read(&self, off: usize, len: usize) -> Option<Vec<u8>> {
        self.check_range("read", off, len);
        self.inner
            .data
            .lock()
            .as_ref()
            .map(|d| d[off..off + len].to_vec())
    }

    /// Copies the whole contents out; `None` for synthetic buffers.
    pub fn to_vec(&self) -> Option<Vec<u8>> {
        self.read(0, self.inner.len)
    }

    /// Writes `bytes` at `off`. No-op on synthetic buffers.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn write(&self, off: usize, bytes: &[u8]) {
        self.check_range("write", off, bytes.len());
        if let Some(d) = self.inner.data.lock().as_mut() {
            d[off..off + bytes.len()].copy_from_slice(bytes);
        }
    }

    /// Applies `f` to the real contents in place; no-op when synthetic.
    pub fn with_data<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> Option<R> {
        self.inner.data.lock().as_mut().map(|d| f(d.as_mut_slice()))
    }

    /// Applies `f` to the real contents of `src` and `dst`, two distinct
    /// allocations; `None` if either is synthetic. Both stay locked for
    /// the call, taken in `id` order so opposite transfers cannot deadlock.
    pub(crate) fn with_pair<R>(
        src: &Buffer,
        dst: &Buffer,
        f: impl FnOnce(&[u8], &mut [u8]) -> R,
    ) -> Option<R> {
        assert!(!Arc::ptr_eq(&src.inner, &dst.inner), "operands alias");
        let src_first = src.id() < dst.id();
        let (first, second) = if src_first { (src, dst) } else { (dst, src) };
        let mut first = first.inner.data.lock();
        let first = first.as_mut()?;
        let mut second = second.inner.data.lock();
        let second = second.as_mut()?;
        let (s, d) = if src_first {
            (first, second)
        } else {
            (second, first)
        };
        Some(f(s, d))
    }

    /// Transfers `len` bytes from `src[src_off..]` to `dst[dst_off..]` if
    /// both sides are real: one `memcpy`, or a `memmove` within one
    /// allocation. This is the data effect of a completed copy.
    ///
    /// # Panics
    /// Panics if either range is out of bounds, synthetic sides included,
    /// so timing-only runs catch addressing bugs too.
    pub fn transfer(src: &Buffer, src_off: usize, dst: &Buffer, dst_off: usize, len: usize) {
        if len == 0 {
            return;
        }
        src.check_range("read", src_off, len);
        dst.check_range("write", dst_off, len);
        if Arc::ptr_eq(&src.inner, &dst.inner) {
            src.with_data(|d| d.copy_within(src_off..src_off + len, dst_off));
        } else {
            Buffer::with_pair(src, dst, |s, d| {
                d[dst_off..][..len].copy_from_slice(&s[src_off..][..len])
            });
        }
    }
}

impl fmt::Debug for Buffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Buffer")
            .field("id", &self.inner.id)
            .field("device", &self.inner.device)
            .field("len", &self.inner.len)
            .field("synthetic", &self.is_synthetic())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_buffer_has_no_data() {
        let b = Buffer::synthetic(DeviceId(0), 100);
        assert!(b.is_synthetic());
        assert_eq!(b.read(0, 10), None);
        assert_eq!(b.len(), 100);
        b.write(0, &[1, 2, 3]); // silently ignored
        assert!(b.is_synthetic());
    }

    #[test]
    fn real_buffer_roundtrip() {
        let b = Buffer::from_bytes(DeviceId(1), vec![1, 2, 3, 4]);
        assert!(!b.is_synthetic());
        assert_eq!(b.read(1, 2), Some(vec![2, 3]));
        b.write(2, &[9, 9]);
        assert_eq!(b.to_vec(), Some(vec![1, 2, 9, 9]));
    }

    #[test]
    fn zeroed_is_real_and_zero() {
        let b = Buffer::zeroed(DeviceId(0), 4);
        assert_eq!(b.to_vec(), Some(vec![0; 4]));
    }

    #[test]
    fn clones_alias_storage() {
        let b = Buffer::zeroed(DeviceId(0), 4);
        let c = b.clone();
        c.write(0, &[7]);
        assert_eq!(b.read(0, 1), Some(vec![7]));
        assert_eq!(b.id(), c.id());
    }

    #[test]
    fn ids_are_unique() {
        let a = Buffer::synthetic(DeviceId(0), 1);
        let b = Buffer::synthetic(DeviceId(0), 1);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn transfer_moves_bytes_between_real_buffers() {
        let src = Buffer::from_bytes(DeviceId(0), vec![10, 20, 30, 40]);
        let dst = Buffer::zeroed(DeviceId(1), 4);
        Buffer::transfer(&src, 1, &dst, 2, 2);
        assert_eq!(dst.to_vec(), Some(vec![0, 0, 20, 30]));
    }

    #[test]
    fn transfer_with_synthetic_src_is_timing_only() {
        let src = Buffer::synthetic(DeviceId(0), 4);
        let dst = Buffer::zeroed(DeviceId(1), 4);
        Buffer::transfer(&src, 0, &dst, 0, 4);
        assert_eq!(dst.to_vec(), Some(vec![0; 4]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_out_of_bounds_panics() {
        Buffer::zeroed(DeviceId(0), 4).read(2, 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn write_out_of_bounds_panics() {
        Buffer::zeroed(DeviceId(0), 4).write(3, &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn transfer_to_synthetic_still_bounds_checks() {
        let src = Buffer::synthetic(DeviceId(0), 10);
        let dst = Buffer::synthetic(DeviceId(1), 4);
        Buffer::transfer(&src, 0, &dst, 2, 4);
    }

    #[test]
    fn with_data_mutates_in_place() {
        let b = Buffer::from_bytes(DeviceId(0), vec![1, 2, 3]);
        let sum = b.with_data(|d| {
            d.iter_mut().for_each(|x| *x *= 2);
            d.iter().map(|&x| x as u32).sum::<u32>()
        });
        assert_eq!(sum, Some(12));
        assert_eq!(b.to_vec(), Some(vec![2, 4, 6]));
    }
}
