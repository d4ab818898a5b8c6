//! `schedstore` — persistent store of v2-tuned fused schedules.
//!
//! The two-tier autotuner (`bench`'s `tune` binary) is the expensive way to
//! find a schedule: Tier 2 searches the emitter-parameter grid and Tier 1
//! runs island-model annealing on each survivor. Its winners are worth
//! keeping — a serve-time [`crate::plan::Planner`] should *replay* them,
//! not re-search. This module is the handoff point: the tuner
//! [`ScheduleStore::save`]s one [`StoredSchedule`] per launch it tuned into
//! any [`PlanStorage`] backend, and plan building [`ScheduleStore::load`]s
//! it back, digest-verified.
//!
//! **Keying.** A tuned schedule is a reordering of one emitted program, so
//! [`ScheduleStore::key`] addresses it by that program's launch: the
//! [`Search::key`] of the freshly emitted hand kernel the [`Search`] runs
//! on (device, program bytes, launch geometry, parameter bytes, timed
//! region and timing-model version, all through `gpusim::key`), under the
//! domain string `schedule`. Both `save` and `load` take that `Search`. An
//! emitter change that alters the hand program therefore moves the address
//! even when the `FusedConfig` is unchanged, and a schedule of the old
//! emission is never replayed against the new one. Plans fold each stored
//! record a build would consult into their own key
//! ([`crate::plan::Planner::plan_key_with`]), so publishing a new tuned
//! schedule invalidates every cached plan that should now pick it up.
//!
//! Entries are `gpusim::json` records ([`StoredSchedule::to_json`]), the
//! cubin as hex, decoded as strictly as plans.

use gpusim::json::{from_hex, obj, to_hex, Json};
use gpusim::Digest;
use kernels::search::Search;
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

    /// Content address of the schedule for the launch `search` re-times:
    /// the [`Search::key`] of its hand module.
    pub fn key(search: &Search) -> String {
        let hand = &search.kernel().module;
        let mut d = Digest::new();
        d.str("schedule").digest(&search.key(hand));
        d.hex()
    }

    /// Load and verify the entry for `search`'s launch. An entry that does
    /// not decode or fails digest verification is dropped and reported as
    /// absent.
    pub fn load(&self, search: &Search) -> Option<StoredSchedule> {
        let key = Self::key(search);
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

    /// Persist `sched` as the tuned schedule for `search`'s launch.
    pub fn save(&self, search: &Search, sched: &StoredSchedule) {
        self.storage.store(&Self::key(search), &sched.to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::MemStorage;
    use gpusim::digest::module_hex;
    use gpusim::DeviceSpec;
    use kernels::{FusedConfig, FusedKernel};

    fn cfg() -> FusedConfig {
        FusedConfig::ours(32, 8, 8, 32, 64)
    }

    fn entry(kern: &FusedKernel) -> StoredSchedule {
        StoredSchedule {
            params: "bk64-bn32-bc8-w64-p2".into(),
            schedule_digest: module_hex(&kern.module),
            cubin: kern.module.to_cubin(),
            hand_cycles: 31018,
            tuned_cycles: 30269,
            evals: 400,
        }
    }

    #[test]
    fn json_round_trip_and_verify() {
        let sched = entry(&FusedKernel::emit(cfg()));
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
        let dev = DeviceSpec::v100();
        let hand = FusedKernel::emit(cfg());
        let search = Search::new(&dev, &hand);
        let sched = entry(&hand);
        let store = ScheduleStore::new(&mem);
        assert!(store.load(&search).is_none());
        store.save(&search, &sched);
        assert_eq!(store.load(&search).unwrap(), sched);
        // A different config is a different address.
        let mut other = cfg();
        other.pipeline_depth = 1;
        let other = FusedKernel::emit(other);
        assert!(store.load(&Search::new(&dev, &other)).is_none());
        // So is the same launch on another device.
        let turing = DeviceSpec::rtx2070();
        assert!(store.load(&Search::new(&turing, &hand)).is_none());
        // Tampered digest: entry is dropped on load.
        let key = ScheduleStore::key(&search);
        let mut bad = sched.clone();
        bad.schedule_digest = format!("{:032x}", 0);
        mem.store(&key, &bad.to_json());
        assert!(store.load(&search).is_none());
        assert!(mem.load(&key).is_none());
        // An entry that does not decode — here a JSON string of the older
        // line-based text — is dropped too, so it stops moving plan keys.
        mem.store(
            &key,
            &Json::Str(format!("sched v1\nparams {}\n", sched.params)),
        );
        assert!(store.load(&search).is_none());
        assert!(mem.load(&key).is_none());
    }

    /// A schedule is keyed by the program it reorders, not by the config
    /// that emitted it. A fresh emission of the same config finds it; the
    /// same config whose module differs in one control code — standing in
    /// for an emitter change — misses it, so a schedule of the old emission
    /// is never replayed against the new one.
    #[test]
    fn an_emitter_change_misses_the_stored_schedule() {
        let mem = MemStorage::new();
        let dev = DeviceSpec::v100();
        let store = ScheduleStore::new(&mem);
        let hand = FusedKernel::emit(cfg());
        let sched = entry(&hand);
        store.save(&Search::new(&dev, &hand), &sched);

        let fresh = FusedKernel::emit(cfg());
        assert_eq!(store.load(&Search::new(&dev, &fresh)), Some(sched));

        let mut changed = FusedKernel::emit(cfg());
        let mut insts = changed.module.insts.clone();
        let last = insts.last_mut().unwrap();
        last.ctrl.stall = (last.ctrl.stall + 1) % 16;
        changed.module = changed.module.with_insts(insts);
        assert_ne!(module_hex(&changed.module), module_hex(&hand.module));
        assert!(store.load(&Search::new(&dev, &changed)).is_none());
    }
}
