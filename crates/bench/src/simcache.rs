//! `simcache` — the persistent, content-addressed result cache behind the
//! sweep engine ([`crate::sweep`]).
//!
//! Every cacheable grid point carries a [`CacheKey`]: a stable 128-bit
//! digest (see [`gpusim::digest`]) of everything its simulation depends on —
//! device spec, assembled program bytes, launch configuration and
//! [`gpusim::TimingOptions`]. The point's result (a [`Json`] record) is
//! stored under `<cache-dir>/<hex-digest>.json`, one file per point, so:
//!
//! * a warm rerun of a figure binary loads every point from disk and is
//!   near-instant;
//! * touching one kernel emitter changes that kernel's program bytes, hence
//!   only the affected points' digests — everything else still hits;
//! * the cache needs no invalidation logic, no manifest and no locking
//!   beyond atomic file replacement (write-to-temp + rename), because a key
//!   can only ever map to one timing, with or without the hardware counters
//!   that observed it ([`timing_to_json`]).
//!
//! The default location is `target/simcache/`; every experiment binary
//! accepts `--cache-dir PATH` to relocate it and `--no-cache` to bypass it
//! (see [`crate::sweep::SweepOptions`]).

use std::path::{Path, PathBuf};

use gpusim::{HwCounters, KernelTiming};
use wino_core::{Algo, AlgoTiming};

use crate::json::{obj, parse, Json};

/// Content address of one sweep point: 32 lowercase hex chars from
/// [`gpusim::Digest`]. Also usable directly as a filename stem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey(String);

impl CacheKey {
    /// Wrap a finished digest. Accepts any non-empty string of `[0-9a-f]`;
    /// panics otherwise — keys must come from a digest, not free text.
    pub fn new(hex: String) -> Self {
        assert!(
            !hex.is_empty() && hex.bytes().all(|c| c.is_ascii_hexdigit()),
            "cache key must be a hex digest, got {hex:?}"
        );
        CacheKey(hex.to_ascii_lowercase())
    }

    /// Finish a [`gpusim::Digest`] into a key.
    pub fn from_digest(d: &gpusim::Digest) -> Self {
        CacheKey(d.hex())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// A directory of `<key>.json` result files.
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Open (and create, on first write) a store at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Store { dir: dir.into() }
    }

    /// The default store location, shared by all experiment binaries.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("target/simcache")
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.as_str()))
    }

    /// Look a key up; `None` on miss or an unreadable/corrupt entry (a
    /// corrupt file is treated as a miss and overwritten on store).
    pub fn load(&self, key: &CacheKey) -> Option<Json> {
        let text = std::fs::read_to_string(self.path_of(key)).ok()?;
        parse(&text).ok()
    }

    /// Persist a value. Failures to write are reported on stderr but not
    /// fatal — a broken cache must never break an experiment run.
    pub fn store(&self, key: &CacheKey, value: &Json) {
        if let Err(e) = self.try_store(key, value) {
            eprintln!(
                "[simcache] warning: failed to store {}: {e}",
                self.path_of(key).display()
            );
        }
    }

    /// Delete a key if present. Needed by eviction policies layered on the
    /// store (the serve plan cache's LRU cap); a plain content-addressed
    /// cache never calls this. Removal failures are ignored — the entry
    /// simply survives until the next eviction pass.
    pub fn remove(&self, key: &CacheKey) {
        let _ = std::fs::remove_file(self.path_of(key));
    }

    fn try_store(&self, key: &CacheKey, value: &Json) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let final_path = self.path_of(key);
        // Atomic publish: concurrent writers of the same key (same content,
        // by construction) race benignly on the rename. The temp name must
        // be unique per *writer*, not just per process — sweep workers are
        // threads, and two threads writing the same key with a pid-only
        // suffix would interleave write/rename on one temp file (one rename
        // then fails with NotFound, losing a store). A process-wide counter
        // disambiguates them.
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            "{}.tmp.{}.{}",
            key.as_str(),
            std::process::id(),
            seq
        ));
        std::fs::write(&tmp, value.render() + "\n")?;
        std::fs::rename(&tmp, &final_path)
    }
}

/// Serialize a [`KernelTiming`] to a JSON object. The per-line stall
/// profile is intentionally dropped: it is an observability artifact, large,
/// and never consulted by the experiment tables. The hardware counters of a
/// counted run are kept, as exact integers under `counters`; a plain run's
/// record has no `counters` key.
pub fn timing_to_json(t: &KernelTiming) -> Json {
    let mut fields = vec![
        ("wave_cycles", t.wave_cycles.into()),
        ("waves", t.waves.into()),
        ("blocks_per_sm", t.blocks_per_sm.into()),
        ("total_blocks", t.total_blocks.into()),
        ("busy_sms", t.busy_sms.into()),
        ("time_s", t.time_s.into()),
        ("flops", t.flops.into()),
        ("tflops", t.tflops.into()),
        ("sol_pct", t.sol_pct.into()),
        ("sol_total_pct", t.sol_total_pct.into()),
        ("dram_bytes", t.dram_bytes.into()),
        ("dram_time_s", t.dram_time_s.into()),
        ("region_cycles", t.region_cycles.into()),
        ("smem_conflict_cycles", t.smem_conflict_cycles.into()),
    ];
    if let Some(c) = &t.counters {
        fields.push(("counters", counters_to_json(c)));
    }
    obj(&fields)
}

/// Reconstruct a [`KernelTiming`] from [`timing_to_json`] output. Returns
/// `None` if any field is missing or mistyped, or a counter is not an exact
/// integer, in the timing or in its `counters`. The stall profile is
/// restored as `None`, and so are the counters of a plain record (see
/// `gpusim::digest` for why a plain and a counted run share one key).
/// Fields it does not read are ignored, so a record that still carries
/// fields since dropped from `KernelTiming` keeps hitting under its key.
pub fn timing_from_json(j: &Json) -> Option<KernelTiming> {
    let f = |k: &str| j.get(k)?.as_f64();
    let u = |k: &str| j.get(k)?.as_u64();
    let narrow = |k: &str| u32::try_from(u(k)?).ok();
    let counters = match j.get("counters") {
        Some(c) => Some(counters_from_json(c)?),
        None => None,
    };
    Some(KernelTiming {
        wave_cycles: u("wave_cycles")?,
        waves: u("waves")?,
        blocks_per_sm: narrow("blocks_per_sm")?,
        total_blocks: u("total_blocks")?,
        busy_sms: narrow("busy_sms")?,
        time_s: f("time_s")?,
        flops: f("flops")?,
        tflops: f("tflops")?,
        sol_pct: f("sol_pct")?,
        sol_total_pct: f("sol_total_pct")?,
        dram_bytes: u("dram_bytes")?,
        dram_time_s: f("dram_time_s")?,
        region_cycles: u("region_cycles")?,
        smem_conflict_cycles: u("smem_conflict_cycles")?,
        profile: None,
        counters,
    })
}

/// [`HwCounters`] as a JSON object: the three gauges, then every counter of
/// [`HwCounters::words_mut`], a one-word counter as a number and an array
/// as a list.
fn counters_to_json(c: &HwCounters) -> Json {
    let mut fields = vec![
        ("schedulers", c.schedulers.into()),
        ("resident_warps", c.resident_warps.into()),
        ("max_warps_per_sm", c.max_warps_per_sm.into()),
    ];
    for (name, words) in c.clone().words_mut() {
        let value = match words {
            [w] => (*w).into(),
            _ => Json::Arr(words.iter().map(|&w| w.into()).collect()),
        };
        fields.push((name, value));
    }
    obj(&fields)
}

/// Reconstruct [`counters_to_json`] output; `None` unless every counter is
/// there as an exact integer and every list has its length.
fn counters_from_json(j: &Json) -> Option<HwCounters> {
    let narrow = |k: &str| u32::try_from(j.get(k)?.as_u64()?).ok();
    let mut c = HwCounters {
        schedulers: narrow("schedulers")?,
        resident_warps: narrow("resident_warps")?,
        max_warps_per_sm: narrow("max_warps_per_sm")?,
        ..HwCounters::default()
    };
    for (name, words) in c.words_mut() {
        match (j.get(name)?, words) {
            (v, [w]) => *w = v.as_u64()?,
            (Json::Arr(vs), words) if vs.len() == words.len() => {
                for (w, v) in words.iter_mut().zip(vs) {
                    *w = v.as_u64()?;
                }
            }
            _ => return None,
        }
    }
    Some(c)
}

/// Serialize a whole [`AlgoTiming`] (the [`wino_core::Conv::time`] result):
/// algorithm, totals, phase breakdown, and the dominant kernel's
/// [`KernelTiming`] when one ran.
pub fn algo_timing_to_json(t: &AlgoTiming) -> Json {
    obj(&[
        ("algo", t.algo.name().into()),
        ("time_s", t.time_s.into()),
        ("tflops_effective", t.tflops_effective.into()),
        (
            "kernel",
            match &t.kernel {
                Some(k) => timing_to_json(k),
                None => Json::Null,
            },
        ),
        (
            "phases",
            Json::Arr(
                t.phases
                    .iter()
                    .map(|(name, s)| obj(&[("phase", name.as_str().into()), ("s", (*s).into())]))
                    .collect(),
            ),
        ),
    ])
}

/// Reconstruct an [`AlgoTiming`] from [`algo_timing_to_json`] output.
pub fn algo_timing_from_json(j: &Json) -> Option<AlgoTiming> {
    let name = j.get("algo")?.as_str()?;
    let algo = Algo::ALL.into_iter().find(|a| a.name() == name)?;
    let kernel = match j.get("kernel")? {
        Json::Null => None,
        k => Some(timing_from_json(k)?),
    };
    let mut phases = Vec::new();
    for p in j.get("phases")?.as_arr()? {
        phases.push((p.get("phase")?.as_str()?.to_string(), p.get("s")?.as_f64()?));
    }
    Some(AlgoTiming {
        algo,
        time_s: j.get("time_s")?.as_f64()?,
        tflops_effective: j.get("tflops_effective")?.as_f64()?,
        kernel,
        phases,
        trace: None,
    })
}

/// [`Store`] as a [`serve::plan::PlanStorage`]: serve plans, tuned
/// schedules and the plan-cache index are ordinary records under their
/// content address, sharing the simcache directory (and its atomic
/// write-and-rename discipline) with the sweep results. Used by both the
/// `serve` binary (plan cache + schedule lookup) and the `tune` binary
/// (schedule publishing), which is what lets "tune once, serve forever"
/// cross process boundaries.
pub struct SimStore(pub Store);

impl serve::plan::PlanStorage for SimStore {
    fn load(&self, key: &str) -> Option<Json> {
        self.0.load(&CacheKey::new(key.to_string()))
    }

    fn store(&self, key: &str, value: &Json) {
        self.0.store(&CacheKey::new(key.to_string()), value);
    }

    fn remove(&self, key: &str) {
        self.0.remove(&CacheKey::new(key.to_string()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_validates_hex() {
        CacheKey::new("0123abcdef".into());
    }

    #[test]
    #[should_panic(expected = "hex digest")]
    fn key_rejects_free_text() {
        CacheKey::new("../escape".into());
    }

    /// Regression: two threads storing the same key concurrently must both
    /// succeed. With the old pid-only temp-file suffix they shared one temp
    /// path; the loser's rename failed with NotFound and the store was
    /// dropped (reported as a `[simcache] warning` and a cold next run).
    #[test]
    fn concurrent_same_key_stores_do_not_collide() {
        let dir = std::env::temp_dir().join(format!(
            "simcache-race-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let store = Store::new(&dir);
        let key = CacheKey::new("cafe0123".into());
        let v = obj(&[("time_us", 1.5.into())]);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..200 {
                        store
                            .try_store(&key, &v)
                            .expect("concurrent same-key store must not fail");
                    }
                });
            }
        });
        assert_eq!(store.load(&key), Some(v));
        // No leaked temp files: every writer renamed its own file away.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "leaked temp files: {leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_round_trips() {
        let dir = std::env::temp_dir().join(format!("simcache-test-{}", std::process::id()));
        let store = Store::new(&dir);
        let key = CacheKey::new("deadbeef".into());
        assert_eq!(store.load(&key), None);
        let v = obj(&[("time_us", 12.5.into()), ("label", "x".into())]);
        store.store(&key, &v);
        assert_eq!(store.load(&key), Some(v));
        std::fs::remove_dir_all(&dir).ok();
    }
}
