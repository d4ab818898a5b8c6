//! Tier-2 emitter-parameter search space for the fused Winograd kernel.
//!
//! The schedule autotuner (`sass::tune`) searches *within* one emitted
//! kernel; this module spans the discrete knobs the emitter itself exposes
//! — output-channel blocking `bk`, filter LDG width and fragment
//! software-pipelining depth — following the Volta kernel-generation line
//! of work (see PAPERS.md), whose search covers only what its generator can
//! emit. The block tiling `bn`/`bc` is fixed by the block structure (see
//! [`BN`], [`BC`]), so it is not a knob. Which points the emitter accepts
//! is [`FusedConfig::check`]'s verdict alone — the same rule set the
//! network planner filters its candidates with — and every rejection keeps
//! `check`'s reason, so the search reports what it pruned.
//!
//! Every legal point produces the same arithmetic in the same order (the
//! accumulation chain over channels is fixed by the FFMA emission order,
//! which none of these knobs touch), so variants are functionally
//! *bit-exact* against each other — pinned by
//! `kernels/tests/tune_differential.rs`.

use crate::winograd_fused::{FilterLdgWidth, FusedConfig, BC, BN};

/// One point of the emitter-parameter grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmitterParams {
    /// Filters per block: 32 or 64.
    pub bk: u32,
    /// Filter LDG width.
    pub filter_ldg: FilterLdgWidth,
    /// Fragment pipelining depth: 1 (single buffer) or 2 (double buffer).
    pub pipeline_depth: u32,
}

impl EmitterParams {
    /// The paper's hand-chosen point: bk=64, 64-bit filter loads,
    /// double-buffered fragments.
    pub fn hand() -> EmitterParams {
        EmitterParams {
            bk: 64,
            filter_ldg: FilterLdgWidth::W64,
            pipeline_depth: 2,
        }
    }

    /// Compact display label, e.g. `bk64-bn32-bc8-w64-p2`. Plans and stored
    /// schedules record it, so the fixed `bn`/`bc` stay in the string.
    pub fn label(&self) -> String {
        format!(
            "bk{}-bn{BN}-bc{BC}-w{}-p{}",
            self.bk,
            self.filter_ldg.bits(),
            self.pipeline_depth
        )
    }

    /// The 2×2×2 knob grid at `base` (`bk`, then filter LDG width, then
    /// pipelining depth), split by [`FusedConfig::check`] into the legal
    /// points and the rejected ones with `check`'s reason, both in grid
    /// order.
    pub fn grid(base: FusedConfig) -> (Vec<EmitterParams>, Vec<(EmitterParams, &'static str)>) {
        let (mut legal, mut rejected) = (Vec::new(), Vec::new());
        for bk in [32, 64] {
            for filter_ldg in [FilterLdgWidth::W32, FilterLdgWidth::W64] {
                for pipeline_depth in [1, 2] {
                    let p = EmitterParams {
                        bk,
                        filter_ldg,
                        pipeline_depth,
                    };
                    match p.set(base).check() {
                        Ok(()) => legal.push(p),
                        Err(why) => rejected.push((p, why)),
                    }
                }
            }
        }
        (legal, rejected)
    }

    fn set(&self, base: FusedConfig) -> FusedConfig {
        FusedConfig {
            bk: self.bk,
            filter_ldg: self.filter_ldg,
            pipeline_depth: self.pipeline_depth,
            ..base
        }
    }

    /// Specialize a problem-shaped base config to this parameter point.
    /// Panics if [`FusedConfig::check`] rejects the result.
    pub fn apply(&self, base: FusedConfig) -> FusedConfig {
        let cfg = self.set(base);
        if let Err(why) = cfg.check() {
            panic!("{}: {why}", self.label());
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FusedKernel;

    fn base() -> FusedConfig {
        FusedConfig::ours(32, 4, 4, 32, 64)
    }

    #[test]
    fn legal_set_is_what_check_accepts_in_grid_order() {
        let (legal, rejected) = EmitterParams::grid(base());
        let labels = |v: &[EmitterParams]| v.iter().map(|p| p.label()).collect::<Vec<_>>();
        assert_eq!(
            labels(&legal),
            [
                "bk32-bn32-bc8-w32-p1",
                "bk64-bn32-bc8-w32-p1",
                "bk64-bn32-bc8-w32-p2",
                "bk64-bn32-bc8-w64-p1",
                "bk64-bn32-bc8-w64-p2",
            ]
        );
        assert_eq!(
            labels(&rejected.iter().map(|r| r.0).collect::<Vec<_>>()),
            [
                "bk32-bn32-bc8-w32-p2",
                "bk32-bn32-bc8-w64-p1",
                "bk32-bn32-bc8-w64-p2",
            ]
        );
        for p in &legal {
            assert!(p.set(base()).check().is_ok());
        }
        for (p, why) in &rejected {
            assert_eq!(p.set(base()).check(), Err(*why));
        }
        assert!(legal.contains(&EmitterParams::hand()));
    }

    #[test]
    fn apply_produces_valid_configs() {
        for p in EmitterParams::grid(base()).0 {
            let kern = FusedKernel::emit(p.apply(base()));
            assert_eq!(kern.config.bk, p.bk);
            assert_eq!(kern.config.filter_ldg, p.filter_ldg);
            assert_eq!(kern.config.pipeline_depth, p.pipeline_depth);
        }
    }

    /// `bk` must divide K: at K = 32 only the bk=32 point is legal, and
    /// every bk=64 point carries `check`'s reason instead of reaching the
    /// emitter.
    #[test]
    fn bk64_is_rejected_when_k_is_32() {
        let (legal, rejected) = EmitterParams::grid(FusedConfig::ours(32, 4, 4, 32, 32));
        assert_eq!(legal.len(), 1);
        assert_eq!(legal[0].bk, 32);
        let bk64: Vec<_> = rejected.iter().filter(|(p, _)| p.bk == 64).collect();
        assert_eq!(bk64.len(), 4);
        for (p, why) in bk64 {
            assert_eq!(*why, "K must be a multiple of bk", "{}", p.label());
        }
    }
}
