//! Stable content digests of simulation inputs, for the experiment harness's
//! persistent result cache (`bench::simcache`).
//!
//! A [`crate::simulate`] call is a pure function of `{device spec,
//! assembled program bytes, launch configuration, parameter bytes, Model,
//! TimingOptions}`: the cycle model has no randomness and no dependence on
//! host state. Hashing exactly those inputs ([`key`]) therefore yields a
//! *content address* for the result — if the digest matches, the cached
//! [`crate::KernelTiming`] is the answer the simulator would produce.
//!
//! The hash is a fixed, hand-rolled 128-bit FNV-1a variant (two independent
//! 64-bit streams), NOT `std::hash`: `DefaultHasher` is explicitly not
//! stable across releases, and cache keys must survive toolchain upgrades
//! and round-trip through filenames. Digests are rendered as 32 lowercase
//! hex characters.

use sass::Module;

use crate::device::DeviceSpec;
use crate::launch::LaunchDims;
use crate::timing::{Model, TimingOptions};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Second stream: same prime, different offset basis (FNV-1a of "gpusim").
const FNV_OFFSET_B: u64 = 0xa68c_c2c8_7d12_89f1;

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
            self.b = (self.b ^ byte as u64).wrapping_mul(FNV_PRIME.rotate_left(1));
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

    /// Render as 32 lowercase hex characters.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.a, self.b)
    }
}

impl DeviceSpec {
    /// Absorb every field that influences simulation into `d`.
    pub fn digest_into(&self, d: &mut Digest) {
        d.str(self.name)
            .str(match self.arch {
                crate::device::Arch::Volta => "volta",
                crate::device::Arch::Turing => "turing",
            })
            .u32(self.num_sms)
            .f64(self.clock_hz)
            .u32(self.fp32_lanes_per_sm)
            .u32(self.schedulers_per_sm)
            .u32(self.regs_per_sm)
            .u32(self.max_regs_per_thread)
            .u32(self.smem_per_sm)
            .u32(self.max_threads_per_sm)
            .u32(self.max_blocks_per_sm)
            .f64(self.dram_bw)
            .f64(self.l2_bw)
            .u64(self.l2_bytes)
            .u32(self.l2_hit_latency)
            .u32(self.l2_miss_latency)
            .u32(self.smem_latency)
            .u32(self.l1_smem_combined)
            .u32(self.l1_latency);
    }
}

impl LaunchDims {
    /// Absorb the grid/block shape into `d`.
    pub fn digest_into(&self, d: &mut Digest) {
        for v in self.grid.iter().chain(self.block.iter()) {
            d.u32(*v);
        }
    }
}

impl TimingOptions {
    /// Absorb every option that influences the timing result into `d`.
    ///
    /// `profile`, `counters` and `trace` are deliberately excluded:
    /// observability flags never change the timing numbers — with any of
    /// them off the cycle loop takes the exact same path and every
    /// `KernelTiming` field is bit-identical (asserted by
    /// `gpusim/tests/profile_invariants.rs`,
    /// `gpusim/tests/counter_invariants.rs` and `gpusim/tests/device_sim.rs`);
    /// the flags only attach a profile, counter set or trace to the result.
    /// Keeping them out of the digest means an instrumented run and a plain
    /// run share one cache entry, so turning observability on never
    /// invalidates a warm cache (the cached value stores none of the
    /// artifacts — `bench::simcache` restores them as `None`). `jobs` is
    /// excluded too: the device model is bit-stable under any sharding.
    pub fn digest_into(&self, d: &mut Digest) {
        match self.blocks_per_sm {
            Some(b) => d.bool(true).u32(b),
            None => d.bool(false),
        };
        match self.region {
            Some((a, b)) => d.bool(true).u32(a).u32(b),
            None => d.bool(false),
        };
        d.bool(self.strict_writeback);
    }
}

/// Absorb an assembled module: the exact program bytes (via
/// [`Module::to_cubin`], which encodes every instruction and control code)
/// — the same bytes the hardware would execute.
pub fn module_digest(module: &Module, d: &mut Digest) {
    d.bytes(&module.to_cubin());
}

/// A module's own digest as hex — the schedule digest plans and stored
/// schedules record and verify.
pub fn module_hex(module: &Module) -> String {
    let mut d = Digest::new();
    module_digest(module, &mut d);
    d.hex()
}

/// Version of the timing-model *semantics* mixed into every timing digest.
/// Bump it whenever a model change legitimately moves numbers, so results
/// cached under the old semantics can never be returned for the new ones.
///
/// * v1 — one-wave simulation + wave arithmetic (PRs 1–5).
/// * v2 — full-device multi-wave simulation ([`crate::device_sim`]); the
///   retained one-wave path also changed (residency capped at
///   `ceil(total/num_sms)`, empty grids cost nothing, `busy_sms` reported).
pub const TIMING_MODEL_VERSION: u32 = 2;

/// The content address of one [`crate::simulate`] call: `{model version,
/// device, program, launch dims, params, options}`, plus the `exact` flag
/// of the device models ([`Model::DeviceExact`]). A [`Model::OneWave`] key
/// carries no model byte, so it stays the key
/// `gpusim/tests/golden/hotloop_identity.txt` pins.
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
    device.digest_into(&mut d);
    module_digest(module, &mut d);
    dims.digest_into(&mut d);
    d.u64(params.len() as u64).bytes(params);
    opts.digest_into(&mut d);
    if model != Model::OneWave {
        d.bool(model == Model::DeviceExact);
    }
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
