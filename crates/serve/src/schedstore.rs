//! `schedstore` — persistent store of v2-tuned fused schedules.
//!
//! The two-tier autotuner (`bench`'s `tune` binary) is the expensive way to
//! find a schedule: Tier 2 searches the emitter-parameter grid and Tier 1
//! runs island-model annealing on each survivor. Its winners are worth
//! keeping — a serve-time [`crate::plan::Planner`] should *replay* them,
//! not re-search. This module is the handoff point: the tuner
//! [`ScheduleStore::save`]s one [`StoredSchedule`] per
//! `(device, FusedConfig)` into any [`PlanStorage`] backend, and plan
//! building [`ScheduleStore::load`]s it back, digest-verified.
//!
//! **Keying.** [`ScheduleStore::key`] content-addresses an entry by the
//! timing-model version, the device, and the *complete* `FusedConfig`
//! (including the Tier-2 knobs `bk`, `filter_ldg`, `pipeline_depth`), so a
//! schedule tuned for one emitted module can never be replayed against a
//! different one. Plans fold [`ScheduleStore::fingerprint`] — a digest of
//! the stored entries a build would consult — into their own plan key, so
//! publishing a new tuned schedule automatically invalidates every cached
//! plan that should now pick it up.
//!
//! Entries are `gpusim::json` records ([`StoredSchedule::to_json`]), the
//! cubin as hex, decoded as strictly as plans.

use gpusim::json::{from_hex, obj, to_hex, Json};
use gpusim::{DeviceSpec, Digest};
use kernels::FusedConfig;
use sass::Module;

use crate::plan::{field_str, verified_module, PlanStorage};

/// One persisted autotuner result: the tuned module plus the provenance a
/// replayer needs to verify and report it.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredSchedule {
    /// Winning Tier-2 emitter point, `EmitterParams::label` form
    /// (e.g. `bk64-bn32-bc8-w64-p2`).
    pub params: String,
    /// `module_hex` of the tuned module; checked on every load.
    pub schedule_digest: String,
    /// The assembled tuned module (`Module::to_cubin`).
    pub cubin: Vec<u8>,
    /// Device-model cycles of the hand schedule at this shape.
    pub hand_cycles: u64,
    /// Device-model cycles of the tuned schedule.
    pub tuned_cycles: u64,
    /// Objective evaluations the search spent end to end.
    pub evals: u64,
}

impl StoredSchedule {
    /// The schedule as a store record; the cubin rides as hex.
    pub fn to_json(&self) -> Json {
        obj(&[
            ("params", self.params.as_str().into()),
            ("schedule_digest", self.schedule_digest.as_str().into()),
            ("hand_cycles", self.hand_cycles.into()),
            ("tuned_cycles", self.tuned_cycles.into()),
            ("evals", self.evals.into()),
            ("cubin", to_hex(&self.cubin).into()),
        ])
    }

    /// Decode a [`StoredSchedule::to_json`] record; `None` on a missing or
    /// mistyped field or an inexact integer (callers treat that as a store
    /// miss).
    pub fn from_json(j: &Json) -> Option<StoredSchedule> {
        let u = |k: &str| j.get(k)?.as_u64();
        Some(StoredSchedule {
            params: field_str(j, "params")?,
            schedule_digest: field_str(j, "schedule_digest")?,
            cubin: from_hex(j.get("cubin")?.as_str()?)?,
            hand_cycles: u("hand_cycles")?,
            tuned_cycles: u("tuned_cycles")?,
            evals: u("evals")?,
        })
    }

    /// Decode the cubin and check it against the recorded digest.
    pub fn module(&self) -> Option<Module> {
        verified_module(&self.cubin, &self.schedule_digest)
    }
}

/// Digest-keyed view of tuned schedules over any [`PlanStorage`].
pub struct ScheduleStore<'a> {
    storage: &'a dyn PlanStorage,
}

impl<'a> ScheduleStore<'a> {
    pub fn new(storage: &'a dyn PlanStorage) -> Self {
        ScheduleStore { storage }
    }

    /// Content address of the schedule for `cfg` on `device`.
    ///
    /// The full config is digested through its `Debug` form so *every*
    /// emitter knob participates — adding a knob to `FusedConfig` moves all
    /// addresses, which is exactly the staleness behavior we want.
    pub fn key(device: &DeviceSpec, cfg: &FusedConfig) -> String {
        let mut d = Digest::new();
        d.str("tune/sched/v2").u32(gpusim::TIMING_MODEL_VERSION);
        device.digest_into(&mut d);
        d.str(&format!("{cfg:?}"));
        d.hex()
    }

    /// Load and verify the entry for `(device, cfg)`. An entry that does
    /// not decode or fails digest verification is dropped and reported as
    /// absent.
    pub fn load(&self, device: &DeviceSpec, cfg: &FusedConfig) -> Option<StoredSchedule> {
        let key = Self::key(device, cfg);
        match self
            .storage
            .load(&key)
            .as_ref()
            .and_then(StoredSchedule::from_json)
        {
            Some(s) if s.module().is_some() => Some(s),
            _ => {
                self.storage.remove(&key);
                None
            }
        }
    }

    /// Persist `sched` as the tuned schedule for `(device, cfg)`.
    pub fn save(&self, device: &DeviceSpec, cfg: &FusedConfig, sched: &StoredSchedule) {
        self.storage
            .store(&Self::key(device, cfg), &sched.to_json());
    }

    /// Fingerprint of the store contents a plan build over `cfgs` would
    /// consult: the digest of each entry's rendered record (or `none`), in
    /// order.
    /// Folding this into a plan key makes cached plans rebuild whenever a
    /// relevant tuned schedule appears, changes, or disappears.
    pub fn fingerprint(&self, device: &DeviceSpec, cfgs: &[FusedConfig]) -> String {
        let mut d = Digest::new();
        d.str("tune/sched-fp/v1");
        for cfg in cfgs {
            match self.storage.load(&Self::key(device, cfg)) {
                Some(record) => d.str(&record.render()),
                None => d.str("none"),
            };
        }
        d.hex()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::MemStorage;
    use gpusim::digest::module_hex;
    use kernels::FusedKernel;

    fn entry() -> (FusedConfig, StoredSchedule) {
        let cfg = FusedConfig::ours(32, 8, 8, 32, 64);
        let kern = FusedKernel::emit(cfg);
        let sched = StoredSchedule {
            params: "bk64-bn32-bc8-w64-p2".into(),
            schedule_digest: module_hex(&kern.module),
            cubin: kern.module.to_cubin(),
            hand_cycles: 31018,
            tuned_cycles: 30269,
            evals: 400,
        };
        (cfg, sched)
    }

    #[test]
    fn json_round_trip_and_verify() {
        let (_, sched) = entry();
        let t = sched.to_json().render();
        let rt = StoredSchedule::from_json(&gpusim::json::parse(&t).unwrap()).unwrap();
        assert_eq!(rt, sched);
        assert_eq!(rt.to_json().render(), t);
        assert!(rt.module().is_some());
        let mut bad = sched.clone();
        bad.schedule_digest = format!("{:032x}", 0);
        assert!(bad.module().is_none());
    }

    #[test]
    fn store_load_and_corruption() {
        let mem = MemStorage::new();
        let dev = gpusim::DeviceSpec::v100();
        let (cfg, sched) = entry();
        let store = ScheduleStore::new(&mem);
        assert!(store.load(&dev, &cfg).is_none());
        store.save(&dev, &cfg, &sched);
        assert_eq!(store.load(&dev, &cfg).unwrap(), sched);
        // A different config is a different address.
        let mut other = cfg;
        other.pipeline_depth = 1;
        assert!(store.load(&dev, &other).is_none());
        // Tampered digest: entry is dropped on load.
        let key = ScheduleStore::key(&dev, &cfg);
        let mut bad = sched.clone();
        bad.schedule_digest = format!("{:032x}", 0);
        mem.store(&key, &bad.to_json());
        assert!(store.load(&dev, &cfg).is_none());
        assert!(mem.load(&key).is_none());
        // An entry that does not decode — here a JSON string of the older
        // line-based text — is dropped too, so it stops moving plan keys
        // through `fingerprint`.
        mem.store(
            &key,
            &Json::Str(format!("sched v1\nparams {}\n", sched.params)),
        );
        assert!(store.load(&dev, &cfg).is_none());
        assert!(mem.load(&key).is_none());
    }

    #[test]
    fn fingerprint_tracks_store_contents() {
        let mem = MemStorage::new();
        let dev = gpusim::DeviceSpec::v100();
        let (cfg, sched) = entry();
        let store = ScheduleStore::new(&mem);
        let empty = store.fingerprint(&dev, &[cfg]);
        store.save(&dev, &cfg, &sched);
        let full = store.fingerprint(&dev, &[cfg]);
        assert_ne!(empty, full);
        // Deterministic for fixed contents.
        assert_eq!(store.fingerprint(&dev, &[cfg]), full);
    }
}
