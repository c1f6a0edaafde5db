//! A sharded, thread-safe memo table for pure functions.
//!
//! Every memoized value in this workspace — PE synthesis, assembled
//! engine prices, serial cycles, whole-model walks, and the digit-count
//! statistics behind the serial cycle model — is a deterministic function
//! of its key. A [`Memo`] only skips recomputation: the compute closure
//! runs outside every lock, two threads racing on one cold key may both
//! compute, and the first insert wins. Determinism makes both outcomes
//! identical, so memoization can never change a result, and readers never
//! block on a computation (which matters because a whole-model walk
//! consults the cycle and price memos from inside its own closure).
//!
//! The table is split into 16 independent `RwLock<HashMap>`s
//! selected by key hash, so concurrent workers contend only when they
//! touch the same shard, and warm reads take a shared lock. Shard
//! selection uses std's randomly keyed [`RandomState`] (keys can come from
//! network clients), and each shard's map draws its own key so the keys
//! within one shard still spread over all of that map's buckets.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of independent lock shards per memo. 16 keeps the footprint
/// trivial while making same-shard contention unlikely at realistic
/// worker counts.
const SHARDS: usize = 16;

/// A concurrent memo table from `K` to `V` (see the module docs for the
/// race discipline).
#[derive(Debug)]
pub struct Memo<K, V> {
    shard_hasher: RandomState,
    shards: [RwLock<HashMap<K, V>>; SHARDS],
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self {
            shard_hasher: RandomState::new(),
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
        }
    }
}

impl<K: Hash + Eq, V: Clone> Memo<K, V> {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        &self.shards[(self.shard_hasher.hash_one(key) as usize) % SHARDS]
    }

    fn read(shard: &RwLock<HashMap<K, V>>) -> RwLockReadGuard<'_, HashMap<K, V>> {
        shard.read().expect("memo poisoned")
    }

    fn write(shard: &RwLock<HashMap<K, V>>) -> RwLockWriteGuard<'_, HashMap<K, V>> {
        shard.write().expect("memo poisoned")
    }

    /// The memoized value for `key`, if any.
    pub fn get(&self, key: &K) -> Option<V> {
        Self::read(self.shard(key)).get(key).cloned()
    }

    /// Stores `value` under `key` unless the key is already present (the
    /// first insert wins), and returns the stored value.
    pub fn insert(&self, key: K, value: V) -> V {
        Self::write(self.shard(&key))
            .entry(key)
            .or_insert(value)
            .clone()
    }

    /// The memoized value for `key`, running `compute` outside every lock
    /// on a miss.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        match self.get(&key) {
            Some(value) => value,
            None => self.insert(key, compute()),
        }
    }

    /// Copies every entry out, in unspecified order.
    pub fn entries(&self) -> Vec<(K, V)>
    where
        K: Clone,
    {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            out.extend(
                Self::read(shard)
                    .iter()
                    .map(|(k, v)| (k.clone(), v.clone())),
            );
        }
        out
    }

    /// Bulk-inserts `entries`; an existing entry is never overwritten.
    pub fn extend(&self, entries: impl IntoIterator<Item = (K, V)>) {
        for (key, value) in entries {
            Self::write(self.shard(&key)).entry(key).or_insert(value);
        }
    }

    /// Number of memoized entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| Self::read(s).len()).sum()
    }

    /// Whether nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn racing_callers_on_one_cold_key_all_get_the_stored_value() {
        const THREADS: usize = 8;
        let memo: Memo<u32, Vec<u64>> = Memo::new();
        let computed = AtomicUsize::new(0);
        let start = Barrier::new(THREADS);
        let results: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS as u64)
                .map(|t| {
                    let (memo, computed, start) = (&memo, &computed, &start);
                    scope.spawn(move || {
                        start.wait();
                        memo.get_or_insert_with(7, || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            // Each racer computes a distinct value, so a
                            // caller that got its own value instead of the
                            // stored one would show.
                            vec![t; 4]
                        })
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(computed.load(Ordering::Relaxed) >= 1);
        let stored = memo.get(&7).expect("the key is memoized");
        assert!(results.iter().all(|r| *r == stored), "{results:?}");
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn extend_and_insert_never_overwrite() {
        let memo: Memo<&str, i32> = Memo::new();
        assert_eq!(memo.insert("a", 1), 1);
        memo.extend([("a", 2), ("b", 3), ("b", 4)]);
        assert_eq!(memo.get(&"a"), Some(1));
        assert_eq!(memo.get(&"b"), Some(3));
        assert_eq!(memo.insert("b", 5), 3, "insert returns the stored value");
        assert_eq!(memo.get_or_insert_with("a", || unreachable!()), 1);
        assert_eq!(memo.len(), 2);
    }
}
