//! Stable content digests of simulation inputs, for the experiment harness's
//! persistent result cache (`bench::simcache`).
//!
//! A [`crate::simulate`] call is a pure function of `{device spec,
//! assembled program bytes, launch configuration, parameter bytes, Model,
//! TimingOptions}`: the cycle model has no randomness and no dependence on
//! host state. Hashing exactly those inputs ([`key`]) therefore yields a
//! *content address* for the result — if the digest matches, the cached
//! [`crate::KernelTiming`] is the answer the simulator would produce.
//! [`key`] is the one recipe for that address and the one place the
//! timing-model version enters a digest; every other persisted key in the
//! workspace (`Conv::key`, tuned schedules, plans) folds in the `key`s of
//! the launches it stands for.
//!
//! The hash is a fixed, hand-rolled 128-bit FNV-1a variant: two 64-bit
//! streams with different offset bases and different multipliers, NOT
//! `std::hash`: `DefaultHasher` is explicitly not stable across releases,
//! and cache keys must survive toolchain upgrades and round-trip through
//! filenames. Both multipliers are odd, so multiplying is a bijection on
//! `u64` and no byte's influence ever leaves a stream. An even multiplier
//! would shift the whole state left one bit per byte, so the stream would
//! depend only on the last 64 bytes absorbed. Digests are rendered as 32
//! lowercase hex characters.

use sass::Module;

use crate::device::{Arch, DeviceSpec};
use crate::launch::LaunchDims;
use crate::timing::{Model, TimingOptions};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Second stream: its own offset basis (FNV-1a of "gpusim") and its own odd
/// multiplier (the 64-bit golden ratio).
const FNV_OFFSET_B: u64 = 0xa68c_c2c8_7d12_89f1;
const MUL_B: u64 = 0x9e37_79b9_7f4a_7c15;

/// An incremental 128-bit content hash with a stable definition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    a: u64,
    b: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    pub fn new() -> Self {
        Digest {
            a: FNV_OFFSET,
            b: FNV_OFFSET_B,
        }
    }

    /// Absorb raw bytes.
    pub fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &byte in data {
            self.a = (self.a ^ byte as u64).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ byte as u64).wrapping_mul(MUL_B);
        }
        self
    }

    /// Absorb a length-prefixed string (prefixing prevents concatenation
    /// collisions between adjacent fields).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.bytes(&[v as u8])
    }

    /// Absorb an `f64` by bit pattern (exact, including -0.0 vs 0.0).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.bytes(&v.to_bits().to_le_bytes())
    }

    /// Absorb another digest (a sub-key, such as one launch's [`key`]).
    pub fn digest(&mut self, d: &Digest) -> &mut Self {
        self.u64(d.a).u64(d.b)
    }

    /// Render as 32 lowercase hex characters.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.a, self.b)
    }
}

/// A module's own digest as hex: of the exact program bytes
/// ([`Module::to_cubin`] encodes every instruction and control code). It is
/// the schedule digest plans and stored schedules record and verify.
pub fn module_hex(module: &Module) -> String {
    Digest::new().bytes(&module.to_cubin()).hex()
}

/// Version of the timing-model *semantics*, mixed into [`key`] and nowhere
/// else. Bump it whenever a model change legitimately moves numbers, so
/// results cached under the old semantics can never be returned for the new
/// ones.
///
/// * v1 — one-wave simulation + wave arithmetic (PRs 1–5).
/// * v2 — full-device multi-wave simulation ([`crate::device_sim`]); the
///   retained one-wave path also changed (residency capped at
///   `ceil(total/num_sms)`, empty grids cost nothing, `busy_sms` reported).
pub const TIMING_MODEL_VERSION: u32 = 2;

/// The content address of one [`crate::simulate`] call: the model version,
/// every device field that influences simulation, the exact program bytes,
/// the launch dims, the parameter bytes, the timing options and the model.
///
/// Of the options, `profile`, `counters` and `trace` are deliberately
/// excluded: observability flags never change the timing numbers — with any
/// of them off the cycle loop takes the exact same path and every
/// `KernelTiming` field is bit-identical (asserted by
/// `gpusim/tests/profile_invariants.rs`,
/// `gpusim/tests/counter_invariants.rs` and `gpusim/tests/device_sim.rs`);
/// the flags only attach a profile, counter set or trace to the result.
/// Keeping them out of the digest means an instrumented run and a plain run
/// share one cache entry, so turning observability on never invalidates a
/// warm cache. `bench::simcache` stores no profile or trace, and restores
/// them as `None`; it keeps a counted run's counters, and a run that needs
/// counters re-simulates an entry that has none. `jobs` is excluded too:
/// the device model is bit-stable under any sharding.
pub fn key(
    device: &DeviceSpec,
    module: &Module,
    dims: LaunchDims,
    params: &[u8],
    model: Model,
    opts: TimingOptions,
) -> Digest {
    let mut d = Digest::new();
    d.u32(TIMING_MODEL_VERSION);
    let arch = match device.arch {
        Arch::Volta => "volta",
        Arch::Turing => "turing",
    };
    d.str(device.name)
        .str(arch)
        .u32(device.num_sms)
        .f64(device.clock_hz)
        .u32(device.fp32_lanes_per_sm)
        .u32(device.schedulers_per_sm)
        .u32(device.regs_per_sm)
        .u32(device.max_regs_per_thread)
        .u32(device.smem_per_sm)
        .u32(device.max_threads_per_sm)
        .u32(device.max_blocks_per_sm)
        .f64(device.dram_bw)
        .f64(device.l2_bw)
        .u64(device.l2_bytes)
        .u32(device.l2_hit_latency)
        .u32(device.l2_miss_latency)
        .u32(device.smem_latency)
        .u32(device.l1_smem_combined)
        .u32(device.l1_latency);
    d.bytes(&module.to_cubin());
    for v in dims.grid.iter().chain(dims.block.iter()) {
        d.u32(*v);
    }
    d.u64(params.len() as u64).bytes(params);
    match opts.blocks_per_sm {
        Some(b) => d.bool(true).u32(b),
        None => d.bool(false),
    };
    match opts.region {
        Some((a, b)) => d.bool(true).u32(a).u32(b),
        None => d.bool(false),
    };
    d.bool(opts.strict_writeback);
    d.bytes(&[model as u8]);
    d
}

// The sweep engine (`bench::sweep`) runs independent timing simulations on
// host threads; everything a grid point owns must cross thread boundaries.
// Compile-time proof that the simulation state is `Send` — if a field ever
// picks up an `Rc`/raw pointer, this stops compiling.
#[allow(dead_code)]
fn assert_sim_state_send() {
    fn is_send<T: Send>() {}
    is_send::<crate::launch::Gpu>();
    is_send::<crate::memory::GlobalMemory>();
    is_send::<crate::memory::ConstBank>();
    is_send::<DeviceSpec>();
    is_send::<LaunchDims>();
    is_send::<TimingOptions>();
    is_send::<crate::timing::KernelTiming>();
    is_send::<crate::simprof::KernelProfile>();
    is_send::<crate::counters::HwCounters>();
    is_send::<sass::Module>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass::assemble;

    fn module() -> Module {
        assemble("MOV R0, 0x1;\nEXIT;").unwrap()
    }

    /// The key of `module()` on a V100, 4 × 32 threads, under `model`.
    fn key_of(m: &Module, params: &[u8], model: Model, opts: TimingOptions) -> String {
        let dims = LaunchDims::linear(4, 32);
        key(&DeviceSpec::v100(), m, dims, params, model, opts).hex()
    }

    #[test]
    fn digest_is_stable_and_deterministic() {
        let m = module();
        let a = key_of(&m, &[1, 2, 3], Model::OneWave, TimingOptions::default());
        let b = key_of(&m, &[1, 2, 3], Model::OneWave, TimingOptions::default());
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        assert!(a.bytes().all(|c| c.is_ascii_hexdigit()));
        // The empty digest is a fixed constant — a change here means every
        // existing cache entry silently invalidates. Bump knowingly.
        assert_eq!(Digest::new().hex(), "cbf29ce484222325a68cc2c87d1289f1");
        // So is the digest of a fixed input: the hash definition itself
        // cannot drift silently.
        let mut d = Digest::new();
        d.str("gpusim").u64(2020).f64(-0.5);
        assert_eq!(d.hex(), "c5b43a885ee6c606f5c27ee2a897c376");
    }

    /// Both streams depend on every byte absorbed, not just on a suffix:
    /// two inputs that differ only in their first byte, followed by the
    /// same 64-byte tail, differ in both halves of the digest. (A stream
    /// with an even multiplier forgets all but the last 64 bytes.)
    #[test]
    fn both_halves_see_the_first_byte() {
        let tail = [0x5a; 64];
        let halves = |first: u8| {
            let hex = Digest::new().bytes(&[first]).bytes(&tail).hex();
            (hex[..16].to_string(), hex[16..].to_string())
        };
        let (a0, b0) = halves(0);
        let (a1, b1) = halves(1);
        assert_ne!(a0, a1, "high half");
        assert_ne!(b0, b1, "low half");
    }

    #[test]
    fn digest_separates_all_inputs() {
        let m = module();
        let dims = LaunchDims::linear(4, 32);
        let one_wave = Model::OneWave;
        let plain = TimingOptions::default();
        let base = || key_of(&m, &[], one_wave, plain);
        // Different device.
        let turing = key(&DeviceSpec::rtx2070(), &m, dims, &[], one_wave, plain);
        assert_ne!(base(), turing.hex());
        // Different program (one immediate changed).
        let m2 = assemble("MOV R0, 0x2;\nEXIT;").unwrap();
        assert_ne!(base(), key_of(&m2, &[], one_wave, plain));
        // Different launch config.
        let wider = LaunchDims::linear(8, 32);
        let wider = key(&DeviceSpec::v100(), &m, wider, &[], one_wave, plain);
        assert_ne!(base(), wider.hex());
        // Different params.
        assert_ne!(base(), key_of(&m, &[0], one_wave, plain));
        // Different options.
        let occupancy = TimingOptions {
            blocks_per_sm: Some(1),
            ..Default::default()
        };
        assert_ne!(base(), key_of(&m, &[], one_wave, occupancy));
        // Every model has its own key.
        let models = [Model::OneWave, Model::Device, Model::DeviceExact];
        let keys: Vec<String> = models
            .iter()
            .map(|&md| key_of(&m, &[], md, plain))
            .collect();
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
        // Observability and sharding do NOT change the key (bit-identical
        // timing): profiled, counted, traced or sharded, under every
        // model, the cache entry is shared.
        for (model, want) in models.into_iter().zip(&keys) {
            for (profile, counters, trace, jobs) in [
                (true, false, false, 0),
                (false, true, false, 0),
                (false, false, true, 0),
                (false, false, false, 3),
                (true, true, true, 1),
            ] {
                let observed = TimingOptions {
                    profile,
                    counters,
                    trace,
                    jobs,
                    ..Default::default()
                };
                assert_eq!(
                    want,
                    &key_of(&m, &[], model, observed),
                    "{model:?} key must ignore profile={profile} counters={counters} \
                     trace={trace} jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn field_boundaries_do_not_collide() {
        // "ab" + "c" must differ from "a" + "bc" (length prefixes).
        let mut d1 = Digest::new();
        d1.str("ab").str("c");
        let mut d2 = Digest::new();
        d2.str("a").str("bc");
        assert_ne!(d1.hex(), d2.hex());
    }
}
