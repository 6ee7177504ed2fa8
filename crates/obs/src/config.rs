//! The single read of every `HC_*` environment variable.
//!
//! Before this module each knob was parsed at its point of use —
//! `HC_THREADS` in `par`, `HC_CACHE_CAP` in the memo cache, `HC_NO_NATIVE`
//! in the JIT tiers — which meant the values could change mid-process and
//! the only way for a test to exercise a knob was to mutate the global
//! environment, racing every other test in the parallel harness. Now the
//! environment is read **once** into a [`Config`] snapshot; tests and
//! tools that need different settings use [`set_override`] (process-wide,
//! explicit) or call the pure [`Config::from_vars`] parser directly — no
//! `set_var` anywhere. Debugging switches that only bisect a miscompare
//! are API options, not variables: `PassConfig::none()` for the IR passes.
//! The tape optimizer has no switch: a tape miscompare is bisected against
//! the interpreter oracle (`hc_sim::Simulator`), which replays no tape.

use std::sync::{Arc, OnceLock, RwLock};

/// Parsed snapshot of every observability-relevant environment variable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Config {
    /// `HC_THREADS`: worker-pool width override (`None` = autodetect).
    pub threads: Option<usize>,
    /// `HC_CACHE_CAP`: front-half memo-cache capacity (`None` = default).
    pub cache_cap: Option<usize>,
    /// `HC_TRACE`: Chrome-trace output path; tracing is on iff set.
    pub trace: Option<String>,
    /// `HC_NO_NATIVE`: disable the per-cone x86-64 JIT tiers — both the
    /// scalar `NativeSimulator` codegen and the vector
    /// `NativeBatchedSimulator` codegen — forcing the interpreted paths.
    pub no_native: bool,
    /// `HC_SERVE_THREADS`: hc-serve worker-pool width (`None` = derived
    /// from the machine's parallelism).
    pub serve_threads: Option<usize>,
    /// `HC_SERVE_QUEUE_CAP`: hc-serve job-queue bound; submissions beyond
    /// it are rejected with `429` (`None` = default).
    pub serve_queue_cap: Option<usize>,
    /// `HC_STORE_DIR`: directory of the persistent result store; the
    /// store is on iff set.
    pub store_dir: Option<String>,
    /// `HC_STORE_CAP_MB`: soft cap on the store's live bytes, in MiB
    /// (`None` = unbounded).
    pub store_cap_mb: Option<usize>,
    /// `HC_STORE_SYNC`: fsync the store after every append.
    pub store_sync: bool,
    /// `HC_SERVE_RPS`: per-client requests-per-second budget in hc-serve;
    /// rate limiting is on iff set.
    pub serve_rps: Option<usize>,
}

/// A flag variable is "set" when nonempty and not `"0"`.
fn flag(v: Option<String>) -> bool {
    matches!(v, Some(v) if !v.is_empty() && v != "0")
}

/// A positive-integer variable; garbage or zero falls back to `None`.
fn positive(v: Option<String>) -> Option<usize> {
    v.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

impl Config {
    /// Parses a configuration from an arbitrary variable source. This is
    /// the injection point for tests: pass a closure over a fixture map
    /// instead of mutating the process environment.
    pub fn from_vars<F: Fn(&str) -> Option<String>>(get: F) -> Self {
        Config {
            threads: positive(get("HC_THREADS")),
            cache_cap: positive(get("HC_CACHE_CAP")),
            trace: get("HC_TRACE").filter(|p| !p.is_empty()),
            no_native: flag(get("HC_NO_NATIVE")),
            serve_threads: positive(get("HC_SERVE_THREADS")),
            serve_queue_cap: positive(get("HC_SERVE_QUEUE_CAP")),
            store_dir: get("HC_STORE_DIR").filter(|p| !p.is_empty()),
            store_cap_mb: positive(get("HC_STORE_CAP_MB")),
            store_sync: flag(get("HC_STORE_SYNC")),
            serve_rps: positive(get("HC_SERVE_RPS")),
        }
    }

    /// Parses the process environment.
    pub fn from_env() -> Self {
        Self::from_vars(|k| std::env::var(k).ok())
    }
}

fn state() -> &'static RwLock<Arc<Config>> {
    static STATE: OnceLock<RwLock<Arc<Config>>> = OnceLock::new();
    STATE.get_or_init(|| {
        let cfg = Arc::new(Config::from_env());
        crate::trace::refresh(&cfg);
        RwLock::new(cfg)
    })
}

/// The active configuration: the environment snapshot taken on first
/// access, unless an explicit [`set_override`] replaced it.
pub fn config() -> Arc<Config> {
    state().read().expect("config lock").clone()
}

/// Replaces the active configuration process-wide (also re-arming or
/// disarming the tracer to match `cfg.trace`). Intended for tools and test
/// binaries; library code should only ever read.
pub fn set_override(cfg: Config) {
    let cfg = Arc::new(cfg);
    crate::trace::refresh(&cfg);
    *state().write().expect("config lock") = cfg;
}

/// Drops any override and restores the environment snapshot.
pub fn reset_to_env() {
    set_override(Config::from_env());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(pairs: &[(&str, &str)]) -> Config {
        Config::from_vars(|k| {
            pairs
                .iter()
                .find(|(key, _)| *key == k)
                .map(|(_, v)| (*v).to_string())
        })
    }

    #[test]
    fn empty_environment_is_all_defaults() {
        let cfg = fixture(&[]);
        assert_eq!(cfg, Config::default());
        assert!(!cfg.no_native && !cfg.store_sync);
        assert_eq!(cfg.threads, None);
    }

    #[test]
    fn flags_follow_the_nonempty_nonzero_convention() {
        assert!(fixture(&[("HC_NO_NATIVE", "1")]).no_native);
        assert!(fixture(&[("HC_NO_NATIVE", "yes")]).no_native);
        assert!(!fixture(&[("HC_NO_NATIVE", "0")]).no_native);
        assert!(!fixture(&[("HC_NO_NATIVE", "")]).no_native);
        assert!(fixture(&[("HC_STORE_SYNC", "on")]).store_sync);
        assert!(!fixture(&[("HC_STORE_SYNC", "")]).store_sync);
    }

    #[test]
    fn integers_reject_garbage_and_zero() {
        assert_eq!(fixture(&[("HC_THREADS", "3")]).threads, Some(3));
        assert_eq!(fixture(&[("HC_THREADS", " 4 ")]).threads, Some(4));
        assert_eq!(fixture(&[("HC_THREADS", "0")]).threads, None);
        assert_eq!(fixture(&[("HC_THREADS", "not-a-number")]).threads, None);
        assert_eq!(fixture(&[("HC_CACHE_CAP", "64")]).cache_cap, Some(64));
        assert_eq!(fixture(&[("HC_CACHE_CAP", "-1")]).cache_cap, None);
        assert_eq!(fixture(&[("HC_SERVE_THREADS", "4")]).serve_threads, Some(4));
        assert_eq!(
            fixture(&[("HC_SERVE_QUEUE_CAP", "128")]).serve_queue_cap,
            Some(128)
        );
        assert_eq!(
            fixture(&[("HC_SERVE_QUEUE_CAP", "bogus")]).serve_queue_cap,
            None
        );
        assert_eq!(
            fixture(&[("HC_STORE_CAP_MB", "256")]).store_cap_mb,
            Some(256)
        );
        assert_eq!(fixture(&[("HC_STORE_CAP_MB", "0")]).store_cap_mb, None);
        assert_eq!(fixture(&[("HC_SERVE_RPS", "50")]).serve_rps, Some(50));
        assert_eq!(fixture(&[("HC_SERVE_RPS", "0")]).serve_rps, None);
    }

    #[test]
    fn store_knobs_parse() {
        let cfg = fixture(&[("HC_STORE_DIR", "/tmp/s"), ("HC_STORE_SYNC", "1")]);
        assert_eq!(cfg.store_dir.as_deref(), Some("/tmp/s"));
        assert!(cfg.store_sync);
        assert_eq!(fixture(&[("HC_STORE_DIR", "")]).store_dir, None);
        assert!(!fixture(&[("HC_STORE_SYNC", "0")]).store_sync);
    }

    #[test]
    fn trace_path_passes_through_verbatim() {
        assert_eq!(
            fixture(&[("HC_TRACE", "out.json")]).trace.as_deref(),
            Some("out.json")
        );
        assert_eq!(fixture(&[("HC_TRACE", "")]).trace, None);
    }
}
