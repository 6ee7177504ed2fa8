//! Deterministic fork-join helper for measurement sweeps.
//!
//! The DSE drivers measure dozens of independent design points; each point
//! is an optimize → synthesize → simulate pipeline with no shared mutable
//! state, so they fan out across scoped threads. Results always come back
//! in input order regardless of completion order, keeping every report and
//! Pareto computation identical to a serial run.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Write-once result storage for the fork-join maps.
///
/// The old layout was `Vec<Mutex<Option<R>>>` — one lock acquire/release in
/// every worker's result path, pure overhead given the claiming discipline:
/// the atomic cursor hands each index to exactly one worker, so the slot
/// write is already exclusive and the collection phase only runs after the
/// scope has joined every thread. The cells encode exactly that contract:
/// no lock anywhere, with `&mut self` collection providing the final
/// happens-before (the scope join synchronizes the writes).
struct OnceSlots<R> {
    slots: Vec<UnsafeCell<Option<R>>>,
}

// SAFETY: shared access is only used through `write`, whose caller
// guarantees per-index exclusivity (the atomic-cursor claim); `R: Send`
// because values cross from worker threads to the collector.
unsafe impl<R: Send> Sync for OnceSlots<R> {}

impl<R> OnceSlots<R> {
    fn new(n: usize) -> Self {
        OnceSlots {
            slots: (0..n).map(|_| UnsafeCell::new(None)).collect(),
        }
    }

    /// Stores the result for claimed index `i`.
    ///
    /// # Safety
    ///
    /// `i` must have been claimed exclusively (each index written by at
    /// most one thread, no concurrent reads — the collection phase runs
    /// only after all writers joined).
    unsafe fn write(&self, i: usize, r: R) {
        *self.slots[i].get() = Some(r);
    }

    /// Consumes the storage; every slot must have been written.
    fn into_vec(self) -> Vec<R> {
        self.slots
            .into_iter()
            .map(|c| c.into_inner().expect("worker ran"))
            .collect()
    }
}

/// The worker-pool width a given observability [`Config`](hc_obs::Config)
/// implies: its `HC_THREADS` override when present, otherwise
/// [`std::thread::available_parallelism`] (falling back to 1 when the
/// platform cannot report it).
///
/// Pure in the config, so tests inject a [`hc_obs::Config::from_vars`]
/// fixture instead of mutating process-global environment state (the old
/// `set_var`-based test raced with every other test reading the
/// environment).
pub fn workers_for(cfg: &hc_obs::Config) -> usize {
    match cfg.threads {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
    }
}

/// The configured worker-pool width, per the active [`hc_obs::config`]
/// snapshot (one `HC_THREADS` read at first use, not one per call).
///
/// `HC_THREADS` exists because `available_parallelism` honors cgroup and
/// affinity limits: inside a constrained container it can legitimately
/// report 1, silently serializing every sweep. The override lets a caller
/// (or CI) force a pool width; it is also how `BENCH_sim.json` records an
/// honest `threads` figure instead of guessing.
pub fn configured_workers() -> usize {
    workers_for(&hc_obs::config())
}

/// The number of workers [`parallel_map`] will actually use for `n` items:
/// [`configured_workers`] capped at the item count.
pub fn worker_count(n: usize) -> usize {
    configured_workers().min(n).max(1)
}

/// Applies `f` to every item, fanning out over [`worker_count`] scoped
/// threads, and returns the results **in input order**.
///
/// Work is distributed by an atomic cursor, so long-running items do not
/// serialize behind each other. With one item (or one configured worker)
/// this degrades to a plain serial map with no thread overhead.
///
/// # Panics
///
/// Propagates a panic from any worker (the scope joins all threads first),
/// so assertion failures inside `f` surface just as they would serially.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_chunked(items, 1, f)
}

/// Runs `workers` copies of `body` on scoped threads and re-raises the
/// first worker panic with its own payload, so a failing item surfaces
/// exactly as it would serially (a bare scope replaces the payload with
/// "a scoped thread panicked").
fn run_workers(workers: usize, body: impl Fn() + Sync) {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(&body)).collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Target per-task wall time for [`adaptive_chunk`]: long enough that
/// spawn/locking overhead disappears into the work, short enough that the
/// cursor still balances uneven points across workers.
pub const TARGET_TASK_SECONDS: f64 = 0.050;

/// Picks a chunk size for [`parallel_map_chunked`]: batch items until a
/// task is estimated to take [`TARGET_TASK_SECONDS`], clamped so every
/// worker still gets at least one chunk.
///
/// `est_item_seconds` is typically measured by timing one representative
/// item; degenerate estimates — zero or negative (a timer too coarse to
/// see the item), NaN (a 0/0 rate), or infinite — fall back to the largest
/// per-worker chunk rather than poisoning the division.
pub fn adaptive_chunk(n: usize, est_item_seconds: f64) -> usize {
    if n == 0 {
        return 1;
    }
    let per_worker = n.div_ceil(worker_count(n));
    let ideal = if est_item_seconds.is_finite() && est_item_seconds > 0.0 {
        (TARGET_TASK_SECONDS / est_item_seconds).ceil() as usize
    } else {
        per_worker
    };
    ideal.clamp(1, per_worker.max(1))
}

/// [`parallel_map`] with the atomic cursor advancing `chunk` items at a
/// time, so each claim amortizes scheduling overhead over a contiguous run
/// of items. Results still come back **in input order**. `chunk == 1` is
/// [`parallel_map`]; a chunk covering all items degrades to a serial map
/// on the calling thread.
///
/// # Panics
///
/// Propagates a panic from any worker, like [`parallel_map`].
pub fn parallel_map_chunked<T, R, F>(items: &[T], chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let chunk = chunk.max(1);
    let workers = worker_count(n.div_ceil(chunk));
    if workers <= 1 || chunk >= n {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: OnceSlots<R> = OnceSlots::new(n);
    run_workers(workers, || loop {
        let start = next.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        let end = (start + chunk).min(n);
        for (offset, item) in items[start..end].iter().enumerate() {
            let r = f(item);
            // SAFETY: the chunk claim [start, start+chunk) belongs
            // to this thread alone; collection is post-join.
            unsafe { slots.write(start + offset, r) };
        }
    });
    slots.into_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<u64>>());
    }

    #[test]
    fn handles_empty_and_single() {
        assert_eq!(parallel_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(parallel_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn worker_count_caps_at_item_count() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1000) >= 1);
        assert!(worker_count(1000) <= configured_workers());
    }

    #[test]
    fn hc_threads_overrides_detection() {
        // Injected config fixtures instead of set_var/remove_var: env
        // mutation is process-global and raced with every concurrently
        // running test that reads the environment.
        let cfg = |v: Option<&'static str>| {
            hc_obs::Config::from_vars(move |name| {
                (name == "HC_THREADS")
                    .then(|| v.map(String::from))
                    .flatten()
            })
        };
        assert_eq!(workers_for(&cfg(Some("3"))), 3);
        assert_eq!(workers_for(&cfg(Some("1"))), 1);
        let detected = workers_for(&cfg(None));
        assert!(detected >= 1, "detection always yields a worker");
        assert_eq!(
            workers_for(&cfg(Some("not-a-number"))),
            detected,
            "garbage override falls back to detection"
        );
        assert_eq!(workers_for(&cfg(Some("0"))), detected, "zero is ignored");
        // The live path agrees with the injected one for the active config.
        assert_eq!(configured_workers(), workers_for(&hc_obs::config()));
        let items: Vec<u64> = (0..40).collect();
        let out = parallel_map(&items, |&x| x + 1);
        assert_eq!(out, (1..41).collect::<Vec<u64>>());
    }

    #[test]
    fn chunked_preserves_input_order() {
        let items: Vec<u64> = (0..103).collect();
        let want: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for chunk in [1, 2, 7, 50, 103, 500] {
            assert_eq!(parallel_map_chunked(&items, chunk, |&x| x * 3), want);
        }
        // chunk 0 is treated as 1, not a hang.
        assert_eq!(parallel_map_chunked(&items, 0, |&x| x * 3), want);
    }

    #[test]
    fn adaptive_chunk_targets_task_seconds() {
        // 1 ms items batch into ~50-item tasks (capped by per-worker share).
        let c = adaptive_chunk(1000, 0.001);
        assert!((1..=1000).contains(&c));
        assert!(c <= 1000_usize.div_ceil(worker_count(1000)));
        // Items already at the target run unbatched.
        assert_eq!(adaptive_chunk(1000, TARGET_TASK_SECONDS), 1);
        assert_eq!(adaptive_chunk(1000, 1.0), 1);
        // Degenerate estimates fall back to per-worker batches, and the
        // result never exceeds them.
        assert!(adaptive_chunk(8, 0.0) >= 1);
        assert_eq!(adaptive_chunk(0, 0.001), 1);
    }

    #[test]
    fn adaptive_chunk_clamps_degenerate_estimates() {
        let per_worker = |n: usize| n.div_ceil(worker_count(n));
        // Zero, negative, NaN and both infinities all take the per-worker
        // fallback instead of poisoning the target-seconds division.
        for est in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let c = adaptive_chunk(64, est);
            assert_eq!(c, per_worker(64), "est={est}");
            assert!(c >= 1);
        }
        // A denormal-tiny estimate saturates at the per-worker cap rather
        // than overflowing the float-to-usize cast.
        assert_eq!(adaptive_chunk(64, 1e-300), per_worker(64));
        // n == 0 stays well-defined for every estimate.
        for est in [0.0, f64::NAN, f64::INFINITY] {
            assert_eq!(adaptive_chunk(0, est), 1);
        }
    }

    #[test]
    fn once_slots_survive_uneven_work() {
        // Uneven per-item work shuffles completion order across workers;
        // every slot must still land exactly once at its own index.
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(&items, |&x| {
            if x % 17 == 0 {
                std::thread::yield_now();
            }
            (x, x.wrapping_mul(0x9e37_79b9))
        });
        for (i, (x, y)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
            assert_eq!(*y, (i as u64).wrapping_mul(0x9e37_79b9));
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..8).collect();
        parallel_map(&items, |&x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }
}
