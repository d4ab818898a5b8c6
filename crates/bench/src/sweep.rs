//! `sweep` — the parallel experiment sweep engine.
//!
//! Every experiment binary replays one paper figure or table by evaluating a
//! grid of independent `(device, kernel build, config)` points, each of
//! which runs the cycle simulator ([`gpusim::simulate`]) on its own private
//! [`gpusim::Gpu`]. Points share nothing, so the engine runs
//! them on a fixed-size host thread pool (`std::thread::scope`, the same
//! pattern as [`gpusim::Gpu::launch_parallel`]) and collects results **by
//! point index, never by completion order** — tables and `--json` records
//! are bit-identical to a serial run regardless of `--jobs`.
//!
//! Results are backed by the persistent content-addressed cache in
//! [`crate::simcache`]: a point whose [`CacheKey`] is already stored loads
//! from disk instead of simulating, so regenerating a figure after touching
//! one kernel re-simulates only the affected points and a warm rerun is
//! near-instant.
//!
//! The experiment binaries reach the engine through one call,
//! [`crate::report::Report::measure`], which runs one sweep named after the
//! experiment; a stored value that fails the sweep's [`Sweep::check`] is a
//! miss. Flags understood by every binary that runs a sweep
//! ([`SweepOptions::from_args`]):
//!
//! | flag | effect |
//! |---|---|
//! | `--jobs N` | worker threads (default: available parallelism) |
//! | `--no-cache` | neither read nor write the cache |
//! | `--cache-dir PATH` | cache location (default `target/simcache/`) |
//! | `--selfcheck` | run every miss twice, assert identical result JSON |
//!
//! A `[sweep]` summary line (points, hits, misses, wall time) goes to
//! stderr, never stdout, so piped table output stays clean.
//!
//! The engine assumes (and `--selfcheck` verifies) that every point closure
//! is **deterministic**: the simulator is, and closures must not read
//! clocks, RNGs or ambient state. Cached and fresh runs are then
//! indistinguishable — the property the cache-correctness tests in
//! `bench/tests/sweep_cache.rs` pin down.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::Json;
use crate::report::flag_value;
use crate::simcache::{CacheKey, Store};

/// Engine configuration, usually parsed from the command line.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Worker threads for cache misses.
    pub jobs: usize,
    /// Consult and populate the persistent cache?
    pub cache: bool,
    /// Cache directory (ignored when `cache` is false).
    pub cache_dir: std::path::PathBuf,
    /// Determinism audit: evaluate every miss twice and assert that both
    /// runs render identical JSON before storing.
    pub selfcheck: bool,
    /// Suppress the `[sweep]` stderr summary (used by tests).
    pub quiet: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache: true,
            cache_dir: Store::default_dir(),
            selfcheck: false,
            quiet: false,
        }
    }
}

impl SweepOptions {
    /// Parse `--jobs/--no-cache/--cache-dir/--selfcheck` from the process
    /// arguments; unrelated flags are ignored (each binary owns its own
    /// argument parsing).
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        let mut o = SweepOptions::default();
        if let Some(j) = flag_value(&args, "--jobs") {
            o.jobs = j
                .parse::<usize>()
                .unwrap_or_else(|e| panic!("--jobs {j}: {e}"))
                .max(1);
        }
        if args.iter().any(|a| a == "--no-cache") {
            o.cache = false;
        }
        if let Some(dir) = flag_value(&args, "--cache-dir") {
            o.cache_dir = dir.into();
        }
        if args.iter().any(|a| a == "--selfcheck") {
            o.selfcheck = true;
        }
        o
    }
}

/// Outcome of [`Sweep::run`]: per-point results in registration order plus
/// run statistics.
pub struct SweepOutcome {
    /// One record per registered point, in registration order.
    pub results: Vec<Json>,
    /// Points served from the persistent cache.
    pub hits: usize,
    /// Points simulated (and stored, when caching is on).
    pub misses: usize,
}

struct Point {
    key: CacheKey,
    run: Box<dyn Fn() -> Json + Send + Sync>,
}

/// A grid of independent experiment points with deterministic output order.
pub struct Sweep {
    name: String,
    opts: SweepOptions,
    points: Vec<Point>,
    /// What a stored value must pass to count as a hit.
    check: Box<dyn Fn(&Json) -> bool>,
}

impl Sweep {
    pub fn new(name: &str, opts: SweepOptions) -> Self {
        Sweep {
            name: name.to_string(),
            opts,
            points: Vec::new(),
            check: Box::new(|_| true),
        }
    }

    /// Count a stored value as a hit only if `check` accepts it (by default
    /// every stored value that parses is a hit). A refused value is a miss:
    /// the point runs again and its entry is overwritten.
    pub fn check(mut self, check: impl Fn(&Json) -> bool + 'static) -> Self {
        self.check = Box::new(check);
        self
    }

    /// Register one grid point. `key` must content-address everything `f`
    /// depends on (see [`gpusim::digest`]); `f` must be deterministic. The
    /// closure is `Fn`, not `FnOnce`, so `--selfcheck` can evaluate it
    /// twice.
    pub fn point(&mut self, key: CacheKey, f: impl Fn() -> Json + Send + Sync + 'static) {
        self.points.push(Point {
            key,
            run: Box::new(f),
        });
    }

    /// Evaluate every point — cache lookups first, then misses on the
    /// thread pool — and return results in registration order.
    pub fn run(self) -> SweepOutcome {
        let t0 = Instant::now();
        let n = self.points.len();
        let store = self.opts.cache.then(|| Store::new(&self.opts.cache_dir));

        let mut slots: Vec<Option<Json>> = Vec::with_capacity(n);
        let mut misses: Vec<usize> = Vec::new();
        for (i, p) in self.points.iter().enumerate() {
            let stored = store.as_ref().and_then(|s| s.load(&p.key));
            match stored.filter(|v| (self.check)(v)) {
                Some(v) => slots.push(Some(v)),
                None => {
                    slots.push(None);
                    misses.push(i);
                }
            }
        }
        let hits = n - misses.len();

        if !misses.is_empty() {
            let workers = self.opts.jobs.max(1).min(misses.len());
            let cursor = AtomicUsize::new(0);
            let slots_mx = Mutex::new(&mut slots);
            let points = &self.points;
            let misses_ref = &misses;
            let selfcheck = self.opts.selfcheck;
            let store_ref = store.as_ref();
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let next = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&idx) = misses_ref.get(next) else {
                            break;
                        };
                        let point = &points[idx];
                        let value = (point.run)();
                        if selfcheck {
                            let again = (point.run)();
                            assert_eq!(
                                value.render(),
                                again.render(),
                                "sweep selfcheck: point {idx} (key {}) is not \
                                 deterministic — two runs produced different JSON",
                                point.key.as_str()
                            );
                        }
                        if let Some(st) = store_ref {
                            st.store(&point.key, &value);
                        }
                        slots_mx.lock().unwrap()[idx] = Some(value);
                    });
                }
            });
        }

        let results: Vec<Json> = slots
            .into_iter()
            .map(|s| s.expect("every sweep point produced a result"))
            .collect();
        if !self.opts.quiet {
            eprintln!(
                "[sweep] {}: {} points ({} cached, {} simulated) in {:.2}s  (jobs={}, cache={})",
                self.name,
                n,
                hits,
                misses.len(),
                t0.elapsed().as_secs_f64(),
                self.opts.jobs,
                match &store {
                    Some(s) => s.dir().display().to_string(),
                    None => "off".to_string(),
                },
            );
        }
        SweepOutcome {
            results,
            hits,
            misses: misses.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn key(tag: u64) -> CacheKey {
        let mut d = gpusim::Digest::new();
        d.u64(tag);
        CacheKey::from_digest(&d)
    }

    fn opts(cache: bool, jobs: usize) -> SweepOptions {
        SweepOptions {
            jobs,
            cache,
            cache_dir: std::env::temp_dir().join(format!("sweep-unit-{}", std::process::id())),
            selfcheck: true,
            quiet: true,
        }
    }

    #[test]
    fn results_follow_registration_order() {
        // Uncached, many points, several workers: order must be by index.
        let mut sw = Sweep::new("unit", opts(false, 4));
        for i in 0..64u64 {
            sw.point(key(i), move || obj(&[("i", i.into())]));
        }
        let out = sw.run();
        assert_eq!(out.hits, 0);
        assert_eq!(out.misses, 64);
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(r.get("i").unwrap().as_f64(), Some(i as f64));
        }
    }

    #[test]
    fn warm_run_hits_every_point() {
        let o = opts(true, 2);
        let dir = o.cache_dir.clone();
        std::fs::remove_dir_all(&dir).ok();
        let build = |o: SweepOptions| {
            let mut sw = Sweep::new("unit-warm", o);
            for i in 100..108u64 {
                sw.point(key(i), move || obj(&[("v", (i * 3).into())]));
            }
            sw
        };
        let cold = build(o.clone()).run();
        assert_eq!((cold.hits, cold.misses), (0, 8));
        let warm = build(o).run();
        assert_eq!((warm.hits, warm.misses), (8, 0));
        let warm_json: Vec<String> = warm.results.iter().map(|r| r.render()).collect();
        let cold_json: Vec<String> = cold.results.iter().map(|r| r.render()).collect();
        assert_eq!(warm_json, cold_json);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_refused_stored_value_is_rerun_and_overwritten() {
        let o = SweepOptions {
            cache_dir: std::env::temp_dir().join(format!("sweep-check-{}", std::process::id())),
            ..opts(true, 1)
        };
        std::fs::remove_dir_all(&o.cache_dir).ok();
        let run = |v: u64| {
            let mut sw = Sweep::new("unit-check", o.clone());
            sw.point(key(200), move || obj(&[("v", v.into())]));
            sw.check(|r| r.get("v").and_then(Json::as_u64) == Some(2))
                .run()
        };
        // Stored as 1 by a run whose own value the check would refuse.
        let first = run(1);
        assert_eq!((first.hits, first.misses), (0, 1));
        let refused = run(2);
        assert_eq!((refused.hits, refused.misses), (0, 1));
        // The rerun's 2 overwrote the 1, and now passes as a hit.
        let warm = run(3);
        assert_eq!((warm.hits, warm.misses), (1, 0));
        assert_eq!(warm.results[0].get("v").and_then(Json::as_u64), Some(2));
        std::fs::remove_dir_all(&o.cache_dir).ok();
    }
}
