//! Content-addressed memo cache for the measurement front-half.
//!
//! Every design point in a sweep runs the same front-half: optimize the
//! netlist, then synthesize it twice (default and `maxdsp=0`). Fig. 1 and
//! the IEEE-1180 conformance sweep revisit the *same module* under many
//! stimuli and sweep parameters, so that work is identical across points —
//! [`front_half`] computes it once per distinct module and shares the
//! result process-wide.
//!
//! The key is the input module's 128-bit structural hash
//! ([`hc_rtl::hash::content_hash`]). Entries are computed outside the
//! table lock; when two workers race on the same miss, the first insert
//! wins and the loser's work is dropped (correct, merely redundant).
//!
//! # Concurrency
//!
//! The table is one LRU behind one mutex, held only for a map lookup or
//! insert. Eviction picks the stalest entry via a lazy-deletion min-heap
//! of `(stamp, key)` pairs — `O(log n)` per operation where a scan would
//! be `O(n)` on every insert at capacity. `HC_CACHE_CAP` bounds it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use hc_obs::metrics::Counter;

use hc_rtl::hash::content_hash;
use hc_rtl::passes::{optimize, OptReport};
use hc_rtl::Module;
use hc_synth::{synthesize, Device, SynthOptions, SynthReport};

/// The shared, immutable result of one front-half computation.
#[derive(Debug)]
pub struct FrontHalf {
    /// The module after the optimization pipeline (what gets simulated and
    /// what the synthesis reports describe).
    pub module: Arc<Module>,
    /// Pass-pipeline accounting.
    pub opt: OptReport,
    /// Synthesis with default options (DSPs allowed).
    pub full: Arc<SynthReport>,
    /// Synthesis with `maxdsp=0` (the paper's normalization run).
    pub nodsp: Arc<SynthReport>,
    /// The cache key this artifact lives under: the content hash of the
    /// *input* module. Carried so downstream tiers (the persistent store's
    /// measurement records) can derive their own keys without re-hashing.
    pub key: u128,
}

/// A stamped map plus a lazy-deletion min-heap over stamps.
///
/// Every hit refreshes the entry's clock stamp in the map and pushes the
/// fresh `(stamp, key)` pair onto the heap; stale heap entries (whose
/// stamp no longer matches the map) are discarded when they surface at the
/// top during eviction. The heap is rebuilt from the map whenever the
/// stale fraction grows past the live size, keeping memory bounded and
/// every operation amortized `O(log n)`.
#[derive(Debug)]
struct Lru<K, V> {
    cap: usize,
    clock: u64,
    map: HashMap<K, (V, u64)>,
    heap: BinaryHeap<Reverse<(u64, K)>>,
}

impl<K: Hash + Eq + Copy + Ord, V: Clone> Lru<K, V> {
    fn new(cap: usize) -> Self {
        Lru {
            cap: cap.max(1),
            clock: 0,
            map: HashMap::new(),
            heap: BinaryHeap::new(),
        }
    }

    fn get(&mut self, k: &K) -> Option<V> {
        self.clock += 1;
        let clock = self.clock;
        let hit = self.map.get_mut(k).map(|(v, stamp)| {
            *stamp = clock;
            v.clone()
        });
        if hit.is_some() {
            self.push_stamp(clock, *k);
        }
        hit
    }

    /// Inserts under first-insert-wins semantics: if `k` is already present
    /// (a racing worker computed it first), the existing value is returned
    /// and `v` is dropped. The existing entry's stamp is *not* refreshed —
    /// the same contract the scan-based table had.
    fn insert(&mut self, k: K, v: V) -> V {
        self.clock += 1;
        if let Some((existing, _)) = self.map.get(&k) {
            return existing.clone();
        }
        if self.map.len() >= self.cap {
            self.evict_stalest();
        }
        let clock = self.clock;
        self.map.insert(k, (v.clone(), clock));
        self.push_stamp(clock, k);
        v
    }

    /// Removes the entry with the minimum live stamp. Heap entries whose
    /// stamp disagrees with the map are leftovers from refreshes and are
    /// dropped on the way down.
    fn evict_stalest(&mut self) {
        while let Some(Reverse((stamp, k))) = self.heap.pop() {
            match self.map.get(&k) {
                Some((_, live)) if *live == stamp => {
                    self.map.remove(&k);
                    return;
                }
                _ => continue, // stale heap entry
            }
        }
    }

    fn push_stamp(&mut self, stamp: u64, k: K) {
        self.heap.push(Reverse((stamp, k)));
        // Bound the stale backlog: when more than half the heap is dead
        // weight, rebuild it from the live stamps.
        if self.heap.len() > self.map.len().saturating_mul(2) + 16 {
            self.heap = self
                .map
                .iter()
                .map(|(k, (_, stamp))| Reverse((*stamp, *k)))
                .collect();
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.heap.clear();
    }
}

/// Locks a table. A panic while holding the lock (a caller's clone
/// panicking) leaves no torn state: every mutation completes before
/// control returns to the caller, so a poisoned table is safe to adopt.
fn lock<K, V>(table: &Mutex<Lru<K, V>>) -> MutexGuard<'_, Lru<K, V>> {
    table.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide front-half table, bounded by the `HC_CACHE_CAP`
/// override in the active [`hc_obs::config`] snapshot (default 256 — a
/// full Fig. 1 sweep holds ~70 distinct modules, so the default keeps any
/// realistic sweep fully resident while bounding multi-sweep processes).
fn table() -> &'static Mutex<Lru<u128, Arc<FrontHalf>>> {
    static TABLE: OnceLock<Mutex<Lru<u128, Arc<FrontHalf>>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(Lru::new(hc_obs::config().cache_cap.unwrap_or(256))))
}

/// Hit/miss accounting lives in the process-wide metrics registry
/// (`cache.hits` / `cache.misses` / `cache.store_hits`); these cached
/// handles keep each bump one uncontended atomic add. The three counters
/// partition every lookup: `hits` answered in memory, `store_hits`
/// answered by the persistent tier, `misses` fully computed — a
/// store-tier answer is **not** also a miss.
fn counters() -> (Counter, Counter, Counter) {
    static CELLS: OnceLock<(Counter, Counter, Counter)> = OnceLock::new();
    *CELLS.get_or_init(|| {
        (
            hc_obs::metrics::counter("cache.hits"),
            hc_obs::metrics::counter("cache.misses"),
            hc_obs::metrics::counter("cache.store_hits"),
        )
    })
}

/// Optimizes and synthesizes `module`, memoized on its structural hash.
///
/// The input module is not mutated; the returned [`FrontHalf`] carries the
/// optimized copy.
pub fn front_half(module: &Module) -> Arc<FrontHalf> {
    let (hits, misses, store_hits) = counters();
    let key = content_hash(module);
    let mut span = hc_obs::span("front_half").with("module", module.name());
    let hit = lock(table()).get(&key);
    if let Some(hit) = hit {
        hits.inc();
        span.attach("hit", true);
        return hit;
    }

    // Second tier: the persistent store (when HC_STORE_DIR is set). A
    // store answer is *not* a miss — `cache.misses` counts only fully
    // computed artifacts, so hit-rate math stays honest when the store
    // absorbs the cold start.
    if let Some(store) = crate::persist::store() {
        let tier = crate::persist::tier_counters();
        if let Some(entry) = crate::persist::load_front_in(store, key) {
            store_hits.inc();
            tier.front_hits.inc();
            span.attach("store_hit", true);
            return lock(table()).insert(key, entry);
        }
        tier.front_misses.inc();
    }
    misses.inc();
    span.attach("hit", false);

    // Compute outside the lock: synthesis takes milliseconds and would
    // serialize every worker behind a single miss.
    let mut optimized = module.clone();
    let opt = optimize(&mut optimized);
    let device = Device::xcvu9p();
    let full = synthesize(&optimized, &device, &SynthOptions::default());
    let nodsp = synthesize(&optimized, &device, &SynthOptions::no_dsp());
    let entry = Arc::new(FrontHalf {
        module: Arc::new(optimized),
        opt,
        full: Arc::new(full),
        nodsp: Arc::new(nodsp),
        key,
    });
    if let Some(store) = crate::persist::store() {
        crate::persist::save_front_in(store, &entry);
    }
    lock(table()).insert(key, entry)
}

/// `(hits, misses)` since process start or the last [`reset_stats`] —
/// reads of the `cache.hits` / `cache.misses` metrics counters.
pub fn stats() -> (u64, u64) {
    let (hits, misses, _) = counters();
    (hits.get(), misses.get())
}

/// Lookups answered by the persistent store tier since process start or
/// the last [`reset_stats`] (the `cache.store_hits` counter).
pub fn store_hits() -> u64 {
    counters().2.get()
}

/// Zeroes the hit/miss counters (the cached entries stay).
pub fn reset_stats() {
    let (hits, misses, store_hits) = counters();
    hits.reset();
    misses.reset();
    store_hits.reset();
}

/// Drops every cached entry and zeroes the counters. Benchmarks use this
/// to measure a cold front-half honestly.
pub fn clear() {
    lock(table()).clear();
    reset_stats();
}

#[cfg(test)]
mod tests {
    use super::*;
    use hc_rtl::BinaryOp;

    fn redundant_adder(name: &str) -> Module {
        let mut m = Module::new(name);
        let a = m.input("a", 8);
        let z = m.const_u(8, 0);
        let s1 = m.binary(BinaryOp::Add, a, z, 8);
        let s2 = m.binary(BinaryOp::Add, a, z, 8);
        let y = m.binary(BinaryOp::Or, s1, s2, 8);
        m.output("y", y);
        m
    }

    #[test]
    fn second_lookup_hits_and_shares_the_artifact() {
        let m = redundant_adder("cache_t1");
        let first = front_half(&m);
        let second = front_half(&m.clone());
        assert!(Arc::ptr_eq(&first, &second), "hit must share the entry");
        assert!(first.opt.changed(), "the adder had redundancy to remove");
        assert_eq!(first.full.module, "cache_t1");
        assert_eq!(first.key, content_hash(&m));
    }

    #[test]
    fn different_modules_do_not_alias() {
        let a = front_half(&redundant_adder("cache_t2a"));
        let b = front_half(&redundant_adder("cache_t2b"));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.nodsp.area.dsp, 0);
    }

    #[test]
    fn lru_evicts_the_stalest_entry_at_the_cap() {
        let mut lru: Lru<u64, u32> = Lru::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.get(&1), Some(10)); // refresh 1 — 2 is now stalest
        lru.insert(3, 30);
        assert_eq!(lru.map.len(), 2);
        assert_eq!(lru.get(&2), None, "stalest entry evicted");
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
    }

    #[test]
    fn lru_insert_is_first_wins_and_never_evicts_on_rerace() {
        let mut lru: Lru<u64, u32> = Lru::new(1);
        assert_eq!(lru.insert(7, 70), 70);
        // A racing loser's insert returns the winner's value...
        assert_eq!(lru.insert(7, 71), 70);
        // ...and a full table keeps a re-inserted key without eviction.
        assert_eq!(lru.map.len(), 1);
        assert_eq!(lru.get(&7), Some(70));
    }

    #[test]
    fn lru_cap_zero_still_holds_one_entry() {
        let mut lru: Lru<u64, u32> = Lru::new(0);
        lru.insert(1, 10);
        assert_eq!(lru.get(&1), Some(10));
        lru.insert(2, 20);
        assert_eq!(lru.map.len(), 1);
        assert_eq!(lru.get(&2), Some(20));
    }

    #[test]
    fn a_poisoned_table_is_adopted() {
        let table = Mutex::new(Lru::<u64, u32>::new(4));
        lock(&table).insert(1, 10);
        let _ = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = lock(&table);
                panic!("poison the table");
            })
            .join()
        });
        assert!(table.is_poisoned());
        assert_eq!(lock(&table).get(&1), Some(10));
        assert_eq!(lock(&table).insert(2, 20), 20);
    }

    /// The scan-based table the heap replaced, kept verbatim as the
    /// eviction-order oracle: stamps are unique (the clock ticks on every
    /// operation), so `min_by_key` picks a deterministic victim and the
    /// heap-based table must agree on every step.
    struct ScanLru<K, V> {
        cap: usize,
        clock: u64,
        map: HashMap<K, (V, u64)>,
    }

    impl<K: std::hash::Hash + Eq + Copy, V: Clone> ScanLru<K, V> {
        fn new(cap: usize) -> Self {
            ScanLru {
                cap: cap.max(1),
                clock: 0,
                map: HashMap::new(),
            }
        }

        fn get(&mut self, k: &K) -> Option<V> {
            self.clock += 1;
            let clock = self.clock;
            self.map.get_mut(k).map(|(v, stamp)| {
                *stamp = clock;
                v.clone()
            })
        }

        fn insert(&mut self, k: K, v: V) -> V {
            self.clock += 1;
            if self.map.len() >= self.cap && !self.map.contains_key(&k) {
                if let Some(victim) = self
                    .map
                    .iter()
                    .min_by_key(|(_, (_, stamp))| *stamp)
                    .map(|(k, _)| *k)
                {
                    self.map.remove(&victim);
                }
            }
            let clock = self.clock;
            self.map.entry(k).or_insert((v, clock)).0.clone()
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Pins victim selection of the heap-based table against the old
        /// O(n) scan on random mixed get/insert sequences over a key space
        /// big enough that eviction fires constantly: every get result,
        /// every insert return and the final population must agree.
        #[test]
        fn heap_eviction_order_matches_the_old_scan(
            cap in 1usize..24,
            ops in proptest::collection::vec((any::<bool>(), 0u64..48, any::<u64>()), 0..400),
        ) {
            let mut heap: Lru<u64, u64> = Lru::new(cap);
            let mut scan: ScanLru<u64, u64> = ScanLru::new(cap);
            for (step, (is_insert, k, v)) in ops.iter().enumerate() {
                if *is_insert {
                    prop_assert_eq!(
                        heap.insert(*k, *v),
                        scan.insert(*k, *v),
                        "step {} insert diverged on key {}", step, k
                    );
                } else {
                    prop_assert_eq!(
                        heap.get(k),
                        scan.get(k),
                        "step {} get diverged on key {}", step, k
                    );
                }
            }
            prop_assert_eq!(heap.map.len(), scan.map.len());
        }

        /// Multi-threaded hit/miss storm: racing threads insert distinct
        /// values under shared content-hash keys; first-insert-wins means
        /// every thread observes one winner per key, and re-reads keep
        /// returning it.
        #[test]
        fn storm_first_insert_wins_across_threads(
            nkeys in 1u64..33,
            threads in 2u64..7,
        ) {
            let nkeys = u128::from(nkeys);
            let table: Mutex<Lru<u128, u64>> = Mutex::new(Lru::new(4096));
            let winners: Vec<Mutex<Vec<u64>>> =
                (0..nkeys).map(|_| Mutex::new(Vec::new())).collect();
            std::thread::scope(|s| {
                for t in 0..threads {
                    let table = &table;
                    let winners = &winners;
                    s.spawn(move || {
                        for k in 0..nkeys {
                            let hash = (k + 1) << 64 | k;
                            let won = lock(table).insert(hash, t * 1000 + k as u64);
                            winners[k as usize].lock().unwrap().push(won);
                            // Re-reads keep returning the same winner.
                            assert_eq!(lock(table).get(&hash), Some(won));
                        }
                    });
                }
            });
            for (k, w) in winners.iter().enumerate() {
                let w = w.lock().unwrap();
                prop_assert_eq!(w.len(), threads as usize);
                // Every thread saw the SAME winner, and it belongs to this
                // key (no cross-key aliasing).
                for v in w.iter() {
                    prop_assert_eq!(*v, w[0], "key {}: winners diverged", k);
                    prop_assert_eq!(*v % 1000, k as u64, "key {}: foreign value", k);
                }
            }
            // Exactly one live entry per key.
            prop_assert_eq!(lock(&table).map.len(), nkeys as usize);
        }
    }
}
