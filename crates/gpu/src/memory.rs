//! Per-device memory accounting.
//!
//! Simulated allocations are cheap, but *bounded staging memory* is a
//! correctness property of the pipeline engine (its staging ring must
//! not grow with message size), so the runtime tracks current and peak
//! bytes per device and tests assert the bound.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Live/peak byte counters for every device of a topology.
#[derive(Debug)]
pub struct MemTracker {
    per_device: Vec<(AtomicU64, AtomicU64)>, // (current, peak)
}

/// Snapshot of the tracker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryStats {
    /// Live bytes per device (indexed by `DeviceId`).
    pub current: Vec<u64>,
    /// Peak live bytes per device since runtime creation.
    pub peak: Vec<u64>,
}

impl MemTracker {
    /// A tracker for `devices` devices.
    pub fn new(devices: usize) -> Arc<MemTracker> {
        Arc::new(MemTracker {
            per_device: (0..devices)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
        })
    }

    pub(crate) fn acquire(&self, device: usize, len: u64) {
        let Some((cur, peak)) = self.per_device.get(device) else {
            return;
        };
        let now = cur.fetch_add(len, Ordering::AcqRel) + len;
        peak.fetch_max(now, Ordering::AcqRel);
    }

    pub(crate) fn release(&self, device: usize, len: u64) {
        if let Some((cur, _)) = self.per_device.get(device) {
            cur.fetch_sub(len, Ordering::AcqRel);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            current: self
                .per_device
                .iter()
                .map(|(c, _)| c.load(Ordering::Acquire))
                .collect(),
            peak: self
                .per_device
                .iter()
                .map(|(_, p)| p.load(Ordering::Acquire))
                .collect(),
        }
    }
}

/// Retired staging vectors kept per device; past it the oldest is freed.
/// A transfer holds one ring per staged path on a device, so this covers
/// a few message sizes in rotation.
const STAGING_FREE_MAX: usize = 16;

/// Bounded per-device free lists of retired staging storage. The ring's
/// slots are the one allocation made per transfer, so a retired slot's
/// vector is kept and the next ring takes it back, contents and all.
pub(crate) struct StagingPool(Vec<Mutex<Vec<Vec<u8>>>>);

impl StagingPool {
    pub(crate) fn new(devices: usize) -> Arc<StagingPool> {
        Arc::new(StagingPool(
            (0..devices).map(|_| Mutex::default()).collect(),
        ))
    }

    /// `len` bytes of storage with unspecified contents: a retired vector
    /// of exactly that length, else one with the capacity (only a grown
    /// tail is zeroed), else a new allocation.
    pub(crate) fn take(&self, device: usize, len: usize) -> Vec<u8> {
        let recycled = self.0.get(device).and_then(|free| {
            let mut free = free.lock();
            let i = free
                .iter()
                .position(|v| v.len() == len)
                .or_else(|| free.iter().position(|v| v.capacity() >= len))?;
            Some(free.remove(i))
        });
        let mut v = recycled.unwrap_or_default();
        v.truncate(len);
        v.resize(len, 0);
        v
    }

    /// Retires `v`, evicting the oldest retired vector when full.
    pub(crate) fn give(&self, device: usize, v: Vec<u8>) {
        if let Some(free) = self.0.get(device) {
            let mut free = free.lock();
            if free.len() == STAGING_FREE_MAX {
                free.remove(0);
            }
            free.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_current_and_peak() {
        let t = MemTracker::new(2);
        t.acquire(0, 100);
        t.acquire(0, 50);
        t.acquire(1, 10);
        t.release(0, 100);
        let s = t.stats();
        assert_eq!(s.current, vec![50, 10]);
        assert_eq!(s.peak, vec![150, 10]);
    }

    #[test]
    fn out_of_range_device_ignored() {
        let t = MemTracker::new(1);
        t.acquire(5, 100);
        t.release(5, 100);
        assert_eq!(t.stats().current, vec![0]);
    }
}
