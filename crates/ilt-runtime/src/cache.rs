//! A process-wide, capacity-bounded cache of built lithography simulators.
//!
//! [`ilt_optics::LithoSimulator::new`] is the cold-start of every job: it
//! builds the Hopkins TCC and eigendecomposes it into SOCS kernels, which
//! dwarfs a few ILT iterations at small grids. Batch runs hit a handful of
//! distinct configurations (one per grid size / pixel pitch / optics stack),
//! so the pool shares one simulator per configuration across all worker
//! threads instead of rebuilding per job — the `Rc -> Arc` refactor of the
//! optics crate exists exactly to make this sound.
//!
//! A long-lived server cannot afford the batch engine's original unbounded
//! map: every distinct per-request configuration would pin a simulator
//! (kernels are O(grid²) complex samples each) for the life of the process.
//! The cache therefore takes an optional capacity and evicts the least
//! recently used entry when it overflows; hit/miss/eviction counters feed
//! the server's `/metrics` endpoint.
//!
//! Keying: the full [`OpticsConfig`] (which embeds the grid size and the
//! pixel pitch, and therefore the multi-level scale geometry) rendered
//! through its `Debug` form. The key is process-local — it never reaches a
//! disk or a wire, so whatever `#[derive(Debug)]` prints this build is good
//! enough: every field is plain data, and two configs collide exactly when
//! they would build identical simulators. (What *is* persisted about a
//! configuration is `checkpoint::config_fingerprint`, a written format.)

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ilt_optics::{LithoSimulator, OpticsConfig};

type Slot = Arc<OnceLock<Result<Arc<LithoSimulator>, String>>>;

struct Entry {
    slot: Slot,
    /// Logical clock value of the most recent request; smallest = LRU.
    last_used: u64,
}

#[derive(Default)]
struct Store {
    map: HashMap<String, Entry>,
    tick: u64,
}

/// A shared, thread-safe simulator cache with optional LRU bounding.
///
/// Cloning is cheap (the store is behind an `Arc`), so hand clones to worker
/// threads freely. Construction of distinct configurations proceeds in
/// parallel; concurrent requests for the *same* configuration block on one
/// builder and then share its result. Eviction drops only the cache's
/// reference: jobs holding an `Arc` to an evicted simulator keep using it,
/// and an in-flight build of an evicted slot completes harmlessly.
///
/// # Examples
///
/// ```
/// use ilt_optics::OpticsConfig;
/// use ilt_runtime::SimulatorCache;
///
/// let cache = SimulatorCache::with_capacity(8);
/// let cfg = OpticsConfig { grid: 64, nm_per_px: 8.0, num_kernels: 3, ..OpticsConfig::default() };
/// let a = cache.get_or_build(&cfg).unwrap();
/// let b = cache.get_or_build(&cfg).unwrap();
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// assert_eq!(cache.misses(), 1);
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(cache.evictions(), 0);
/// ```
#[derive(Clone, Default)]
pub struct SimulatorCache {
    store: Arc<Mutex<Store>>,
    capacity: Option<usize>,
    hits: Arc<AtomicUsize>,
    misses: Arc<AtomicUsize>,
    evictions: Arc<AtomicUsize>,
}

impl std::fmt::Debug for SimulatorCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulatorCache")
            .field("entries", &self.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl SimulatorCache {
    /// Creates an empty, unbounded cache (the batch engine's default: a
    /// one-shot run touches a small, known set of configurations).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty cache holding at most `capacity` simulators,
    /// evicting least-recently-used entries beyond that. A capacity of 0 is
    /// clamped to 1 (the entry being requested can never be evicted by its
    /// own insertion).
    pub fn with_capacity(capacity: usize) -> Self {
        Self { capacity: Some(capacity.max(1)), ..Self::default() }
    }

    /// The cache key for a configuration.
    pub fn key(cfg: &OpticsConfig) -> String {
        format!("{cfg:?}")
    }

    /// Returns the simulator for `cfg`, building it on first request.
    ///
    /// # Errors
    ///
    /// Propagates the configuration-validation error of
    /// [`LithoSimulator::new`]; failures are cached too, so a bad
    /// configuration fails fast on every subsequent job instead of
    /// re-attempting the build (until evicted like any other entry).
    pub fn get_or_build(&self, cfg: &OpticsConfig) -> Result<Arc<LithoSimulator>, String> {
        let key = Self::key(cfg);
        let slot: Slot = {
            let mut store = self.store.lock().expect("simulator cache lock poisoned");
            store.tick += 1;
            let tick = store.tick;
            let slot = {
                let entry = store
                    .map
                    .entry(key.clone())
                    .or_insert_with(|| Entry { slot: Slot::default(), last_used: 0 });
                entry.last_used = tick;
                entry.slot.clone()
            };
            if let Some(cap) = self.capacity {
                while store.map.len() > cap {
                    let victim = store
                        .map
                        .iter()
                        .filter(|(k, _)| **k != key)
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(k, _)| k.clone());
                    match victim {
                        Some(v) => {
                            store.map.remove(&v);
                            self.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                        None => break,
                    }
                }
            }
            slot
        };
        let mut built = false;
        let result = slot.get_or_init(|| {
            built = true;
            LithoSimulator::new(cfg.clone()).map(Arc::new)
        });
        if built {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }

    /// Number of configurations currently resident.
    pub fn len(&self) -> usize {
        self.store.lock().expect("simulator cache lock poisoned").map.len()
    }

    /// True when no configuration is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Requests served from an already-built simulator.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that had to build (or wait on a concurrent build).
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by the LRU policy since construction.
    pub fn evictions(&self) -> usize {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn small_cfg(grid: usize) -> OpticsConfig {
        OpticsConfig { grid, nm_per_px: 8.0, num_kernels: 3, ..OpticsConfig::default() }
    }

    #[test]
    fn same_config_shares_one_simulator() {
        let cache = SimulatorCache::new();
        let a = cache.get_or_build(&small_cfg(64)).unwrap();
        let b = cache.get_or_build(&small_cfg(64)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.capacity, None);
    }

    #[test]
    fn different_grids_get_distinct_simulators() {
        let cache = SimulatorCache::new();
        let a = cache.get_or_build(&small_cfg(64)).unwrap();
        let b = cache.get_or_build(&small_cfg(32)).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn invalid_config_error_is_cached() {
        let cache = SimulatorCache::new();
        let bad = OpticsConfig { grid: 100, ..small_cfg(64) }; // not a power of two
        assert!(cache.get_or_build(&bad).is_err());
        assert!(cache.get_or_build(&bad).is_err());
        assert_eq!(cache.misses(), 1, "the failed build must not be retried");
    }

    #[test]
    fn concurrent_requests_converge_on_one_instance() {
        let cache = SimulatorCache::new();
        let sims: Vec<_> = thread::scope(|s| {
            (0..4)
                .map(|_| {
                    let cache = cache.clone();
                    s.spawn(move || cache.get_or_build(&small_cfg(64)).unwrap())
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for sim in &sims[1..] {
            assert!(Arc::ptr_eq(&sims[0], sim));
        }
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 3);
    }

    #[test]
    fn capacity_bounds_residency_and_counts_evictions() {
        let cache = SimulatorCache::with_capacity(2);
        cache.get_or_build(&small_cfg(32)).unwrap(); // miss: {32}
        cache.get_or_build(&small_cfg(64)).unwrap(); // miss: {32, 64}
        assert_eq!(cache.len(), 2);
        cache.get_or_build(&small_cfg(128)).unwrap(); // miss, evicts 32 (LRU)
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        // 64 survived (more recently used than 32 was); no rebuild.
        cache.get_or_build(&small_cfg(64)).unwrap();
        assert_eq!(cache.hits(), 1);
        // 32 was evicted: requesting it again is a fresh build and evicts
        // the now-least-recent 128.
        cache.get_or_build(&small_cfg(32)).unwrap();
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn touching_an_entry_refreshes_its_lru_position() {
        let cache = SimulatorCache::with_capacity(2);
        cache.get_or_build(&small_cfg(32)).unwrap();
        cache.get_or_build(&small_cfg(64)).unwrap();
        cache.get_or_build(&small_cfg(32)).unwrap(); // refresh 32: 64 is now LRU
        cache.get_or_build(&small_cfg(128)).unwrap(); // evicts 64
        assert_eq!(cache.evictions(), 1);
        cache.get_or_build(&small_cfg(32)).unwrap(); // still resident
        assert_eq!(cache.hits(), 2);
        cache.get_or_build(&small_cfg(64)).unwrap(); // evicted: rebuild
        assert_eq!(cache.misses(), 4);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let cache = SimulatorCache::with_capacity(0);
        assert_eq!(cache.capacity, Some(1));
        cache.get_or_build(&small_cfg(32)).unwrap();
        cache.get_or_build(&small_cfg(64)).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
    }
}
