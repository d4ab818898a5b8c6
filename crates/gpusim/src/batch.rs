//! Batch evaluation of schedule-tuner candidates.
//!
//! The schedule autotuner (`sass::tune`) evaluates thousands of candidate
//! streams that all share one baseline's *instructions* and differ only in
//! control codes and intra-block order. Building a fresh `InstDesc` table
//! per candidate would redo the operand analysis (source lists, bank-conflict
//! tables, reuse latches) for every proposal even though none of it changed.
//! [`BatchTimer`] decodes the baseline once, then serves each candidate by
//! cloning the baseline descriptor of the *same instruction* (located through
//! the tuner's position map) and re-patching only the control-code-derived
//! fields (`InstDesc::repatch_ctrl`).
//!
//! `gpusim/tests/batch_identity.rs` pins that this path is result-identical
//! to a fresh [`simulate`] on every candidate shape the tuner produces.

use crate::decode::{decode_module, InstDesc};
use crate::device_sim::DeviceTrace;
use crate::launch::{Gpu, LaunchDims, LaunchError};
use crate::timing::{simulate, simulate_decoded, KernelTiming, Model, TimingOptions};
use sass::Module;

/// Reusable decoded-descriptor table for timing many schedule variants of
/// one baseline module.
///
/// `Clone` hands each chain of a parallel search (`sass::island`) its own
/// scratch space over the *same* decoded baseline, so the operand analysis
/// is still done exactly once per module no matter how many islands evaluate
/// candidates concurrently (the clone shares no mutable state — `scratch`
/// starts empty).
#[derive(Clone)]
pub struct BatchTimer {
    /// Baseline descriptors, decoded with `region: None` (the per-candidate
    /// region is re-patched in, since reorders move PCs across markers).
    base: Vec<InstDesc>,
    /// Baseline ops, kept to `debug_assert` that the position map really
    /// points each candidate instruction at its own descriptor.
    #[cfg(debug_assertions)]
    base_ops: Vec<sass::Op>,
    scratch: Vec<InstDesc>,
}

impl BatchTimer {
    /// Decode `base` once. Candidates handed to [`BatchTimer::time`] must be
    /// permutations of this module's instruction list (with arbitrary
    /// control codes).
    pub fn new(base: &Module) -> BatchTimer {
        BatchTimer {
            base: decode_module(&base.insts, None),
            #[cfg(debug_assertions)]
            base_ops: base.insts.iter().map(|i| i.op).collect(),
            scratch: Vec::new(),
        }
    }

    /// [`simulate`] `candidate`, whose instruction at position `i` is
    /// baseline instruction `perm[i]`. Falls back to a fresh decode when the
    /// shapes don't match (different length — e.g. a candidate from some
    /// other module), so the call is always safe.
    #[allow(clippy::too_many_arguments)]
    pub fn time(
        &mut self,
        gpu: &mut Gpu,
        candidate: &Module,
        perm: &[u32],
        dims: LaunchDims,
        params: &[u8],
        model: Model,
        opts: TimingOptions,
    ) -> Result<(KernelTiming, Option<DeviceTrace>), LaunchError> {
        let n = candidate.insts.len();
        if perm.len() != n || self.base.len() != n {
            return simulate(gpu, candidate, dims, params, model, opts);
        }
        self.scratch.clear();
        for (pc, inst) in candidate.insts.iter().enumerate() {
            let src = perm[pc] as usize;
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                self.base_ops[src], inst.op,
                "position map mismatch at pc {pc}: perm says baseline {src}"
            );
            let mut d = self.base[src].clone();
            d.repatch_ctrl(inst, pc as u32, opts.region);
            self.scratch.push(d);
        }
        simulate_decoded(gpu, candidate, dims, params, model, opts, &self.scratch)
    }
}
