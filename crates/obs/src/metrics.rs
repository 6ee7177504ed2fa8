//! Process-wide metrics registry.
//!
//! One flat namespace of named `u64` counters replaces the ad-hoc statics
//! that used to live wherever a subsystem happened to count something
//! (cache hits in `hc_core::cache`, fusion counts inside `TapeOptReport`
//! plumbing, cones skipped inside each simulator). Subsystems bump
//! counters at pipeline-stage granularity; [`snapshot_json`] feeds both
//! the `metrics` section of `BENCH_sim.json` and the `counters` field of
//! hc-serve's `/v1/metrics`, so every figure lands in one place.
//!
//! A [`Counter`] is a `Copy` handle to a leaked `AtomicU64`: after the
//! first [`counter`] lookup a caller can cache the handle and every bump is
//! one uncontended atomic add, no lock. The set of distinct names is small
//! and static, so the leak is bounded.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json::Json;

fn registry() -> &'static Mutex<BTreeMap<&'static str, &'static AtomicU64>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, &'static AtomicU64>>> = OnceLock::new();
    REGISTRY.get_or_init(Mutex::default)
}

/// A cheap, copyable handle to one registered counter.
#[derive(Clone, Copy, Debug)]
pub struct Counter(&'static AtomicU64);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Zeroes this counter (it stays registered).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }

    /// Overwrites the value — for gauge-style metrics (a level like
    /// `serve.queue_depth`, not an accumulating count). Last write wins;
    /// that is the meaning a gauge wants.
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }
}

/// The counter registered under `name`, creating it at zero on first use.
pub fn counter(name: &'static str) -> Counter {
    let mut reg = registry().lock().expect("metrics registry");
    let cell = reg
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(AtomicU64::new(0))));
    Counter(cell)
}

/// Zeroes every registered counter (entries stay registered).
pub fn reset() {
    for (_, cell) in registry().lock().expect("metrics registry").iter() {
        cell.store(0, Ordering::Relaxed);
    }
}

/// Every registered counter and its current value as a flat JSON object
/// (`{"name": value, ...}`), sorted by name.
pub fn snapshot_json() -> Json {
    let registry = registry().lock().expect("metrics registry");
    let counters = registry.iter();
    Json::Obj(
        counters
            .map(|(name, cell)| ((*name).to_owned(), Json::from(cell.load(Ordering::Relaxed))))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `reset` is process-global, so the tests touching it serialize.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn counters_accumulate_and_snapshot() {
        let _g = test_lock();
        let c = counter("test.metrics.alpha");
        let base = c.get();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), base + 5);
        // Re-looking up the same name yields the same cell.
        assert_eq!(counter("test.metrics.alpha").get(), base + 5);
        let snap = snapshot_json();
        let alpha = snap.get("test.metrics.alpha").and_then(Json::as_u64);
        assert_eq!(alpha, Some(base + 5));
    }

    #[test]
    fn snapshot_json_is_flat_and_sorted() {
        counter("test.metrics.b").add(2);
        counter("test.metrics.a").add(1);
        let Json::Obj(fields) = snapshot_json() else {
            panic!("snapshot is an object");
        };
        let at = |name: &str| fields.iter().position(|(k, _)| k == name).unwrap();
        assert!(at("test.metrics.a") < at("test.metrics.b"), "sorted order");
        assert!(fields[at("test.metrics.b")]
            .1
            .as_u64()
            .is_some_and(|v| v >= 2));
    }

    #[test]
    fn handles_survive_reset() {
        let _g = test_lock();
        let c = counter("test.metrics.reset");
        c.add(3);
        reset();
        assert_eq!(c.get(), 0);
        c.inc();
        assert_eq!(c.get(), 1);
    }
}
