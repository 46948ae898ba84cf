//! Concurrency-scalable, read-mostly caching primitives for the planning
//! hot path.
//!
//! The configuration cache (paper Section 4) is consulted on every
//! transfer; under concurrent rank threads a single `Mutex<HashMap>`
//! serializes all of them. This module provides the two building blocks
//! the planner and the transport share instead:
//!
//! * [`ShardedMap`] — a hash map split into shards, each behind its own
//!   `RwLock`. Cache hits take a shard *read* lock (shared, no exclusive
//!   contention between readers) and the shard index is derived from a
//!   caller-chosen *shard key* — the `(src, dst, selection)` pair — so
//!   drift-based invalidation locks only the affected pair's shard.
//! * [`CacheCounters`] — relaxed atomic hit/miss/size-class/invalidation
//!   counters, readable concurrently without touching any map lock.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Shards per map. Plenty for the device-pair count of one node (a
/// 4-GPU node has 12 ordered pairs) while keeping the footprint small.
pub(crate) const SHARDS: usize = 16;

/// A minimal FxHash-style hasher: multiply-xor over the written words.
/// The cache keys are tiny `Copy` tuples of ids and sizes; SipHash's
/// DoS resistance buys nothing here and costs a meaningful fraction of
/// the hit path.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    #[inline]
    fn write_u8(&mut self, b: u8) {
        self.hash = (self.hash.rotate_left(5) ^ b as u64).wrapping_mul(SEED);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.hash = (self.hash.rotate_left(5) ^ v).wrapping_mul(SEED);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The map-level hasher state (zero-sized, deterministic).
pub type BuildFxHasher = BuildHasherDefault<FxHasher>;

pub(crate) fn fx_hash_of(key: &impl Hash) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// A sharded, read-mostly concurrent map.
///
/// Every operation takes an explicit *shard key* (hashable, typically a
/// prefix of the entry key such as the device pair) that selects the
/// shard; the entry key itself may carry more detail (message size,
/// size class). Entries whose shard key differ must never share an
/// entry key, which holds whenever the shard key is a function of the
/// entry key.
pub struct ShardedMap<K, V> {
    shards: Box<[RwLock<HashMap<K, V, BuildFxHasher>>]>,
}

impl<K: Eq + Hash, V: Clone> ShardedMap<K, V> {
    /// Creates an empty map.
    pub fn new() -> ShardedMap<K, V> {
        ShardedMap {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(HashMap::default()))
                .collect(),
        }
    }

    #[inline]
    fn shard(&self, shard_key: &impl Hash) -> &RwLock<HashMap<K, V, BuildFxHasher>> {
        let idx = fx_hash_of(shard_key) as usize % self.shards.len();
        &self.shards[idx]
    }

    /// Looks up `key` under a shard *read* lock (shared with all other
    /// readers of the shard).
    #[inline]
    pub fn get(&self, shard_key: &impl Hash, key: &K) -> Option<V> {
        self.shard(shard_key).read().get(key).cloned()
    }

    /// Inserts `key → value` (exclusive lock on one shard only).
    pub fn insert(&self, shard_key: &impl Hash, key: K, value: V) {
        self.shard(shard_key).write().insert(key, value);
    }

    /// Removes one entry; returns whether it existed.
    pub fn remove(&self, shard_key: &impl Hash, key: &K) -> bool {
        self.shard(shard_key).write().remove(key).is_some()
    }

    /// Drops every entry of `shard_key`'s shard whose key fails the
    /// predicate — the per-pair invalidation primitive. Only the one
    /// shard is locked; other pairs' lookups proceed untouched.
    pub fn retain_in_shard(&self, shard_key: &impl Hash, mut keep: impl FnMut(&K) -> bool) {
        self.shard(shard_key).write().retain(|k, _| keep(k));
    }

    /// Clears the whole map (exclusive lock per shard, one at a time).
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.write().clear();
        }
    }

    /// Total entries across shards (advisory; taken shard by shard).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Eq + Hash, V: Clone> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap::new()
    }
}

/// Relaxed atomic counters of one plan cache. Reads never contend with
/// the planning hot path (no lock is shared with the maps).
#[derive(Debug, Default)]
pub struct CacheCounters {
    /// Plans served straight from the exact-size cache.
    pub hits: AtomicU64,
    /// Plans computed from scratch.
    pub misses: AtomicU64,
    /// Plans realized cheaply from a cached size-class entry.
    pub class_hits: AtomicU64,
    /// Size-class candidates rejected by the ε guard (fell back to an
    /// exact solve).
    pub class_fallbacks: AtomicU64,
    /// Drift-triggered invalidations.
    pub invalidations: AtomicU64,
}

impl CacheCounters {
    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn read(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn get_insert_remove_roundtrip() {
        let m: ShardedMap<(u64, usize), Arc<String>> = ShardedMap::new();
        let pair = 7u64;
        assert!(m.get(&pair, &(pair, 1)).is_none());
        m.insert(&pair, (pair, 1), Arc::new("a".into()));
        m.insert(&pair, (pair, 2), Arc::new("b".into()));
        assert_eq!(m.get(&pair, &(pair, 1)).unwrap().as_str(), "a");
        assert_eq!(m.len(), 2);
        assert!(m.remove(&pair, &(pair, 1)));
        assert!(!m.remove(&pair, &(pair, 1)));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn retain_in_shard_only_touches_matching_keys() {
        let m: ShardedMap<(u64, usize), usize> = ShardedMap::new();
        for pair in 0..8u64 {
            for n in 0..4usize {
                m.insert(&pair, (pair, n), n);
            }
        }
        m.retain_in_shard(&3u64, |k| k.0 != 3);
        assert_eq!(m.len(), 28);
        for pair in 0..8u64 {
            let expect = if pair == 3 { None } else { Some(0) };
            assert_eq!(m.get(&pair, &(pair, 0)), expect);
        }
    }

    #[test]
    fn concurrent_readers_and_writers_make_progress() {
        let m: Arc<ShardedMap<(u64, usize), u64>> = Arc::new(ShardedMap::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = m.clone();
                s.spawn(move || {
                    for i in 0..1000usize {
                        m.insert(&t, (t, i), t);
                        assert_eq!(m.get(&t, &(t, i)), Some(t));
                    }
                });
            }
        });
        assert_eq!(m.len(), 8000);
    }

    #[test]
    fn fx_hash_spreads_small_tuples() {
        let mut seen = std::collections::HashSet::new();
        for a in 0..16u64 {
            for b in 0..16usize {
                seen.insert(fx_hash_of(&(a, b)) % SHARDS as u64);
            }
        }
        assert!(seen.len() >= SHARDS / 2, "shard spread too poor: {seen:?}");
    }
}
