//! `counters` — per-launch hardware-counter collection for the timing model
//! (our equivalent of an Nsight Compute section set: memory workload,
//! scheduler statistics, occupancy and pipe utilization).
//!
//! When [`crate::TimingOptions::counters`] is set, the cycle loop under
//! [`crate::simulate`] fills an [`HwCounters`] alongside the ordinary
//! [`crate::KernelTiming`] result, under every [`crate::Model`] (the device
//! models sum it over SMs). It follows the same zero-cost pattern as
//! [`crate::simprof`]: the collector lives in an `Option`, every
//! instrumentation site is a pure read of state the loop already computes,
//! and with the flag off the timing numbers are bit-identical (asserted by
//! `gpusim/tests/counter_invariants.rs`) — which is also why the flag is
//! excluded from cache digests ([`crate::key`]).
//!
//! Every counter carries an **exactness invariant** that reconciles it with
//! the rest of the model ([`HwCounters::validate`] checks the internal ones;
//! the integration tests check the ones against `KernelTiming` and the
//! [`crate::simprof`] profile):
//!
//! | counter | invariant |
//! |---|---|
//! | `issued_by_pipe` | sums to `issued` |
//! | `issued` | `==` the profile's `Σ executed`, so `issue_efficiency_pct()` is the profile's issue-slot share |
//! | `eligible_hist` | one bucket entry per scheduler per cycle: sums to `schedulers × wave_cycles` |
//! | `fp_pipe_busy_cycles` | `== 2 × fp_issues + reg_bank_conflicts` (the pipe's §5.2.2 occupancy law) |
//! | `reg_bank_conflicts + smem_extra_phases` | `==` the profile's `Σ bank_conflict_cycles` |
//! | `smem_phases` | `== smem_ideal_phases + smem_extra_phases` |
//! | `smem_extra_phases` | `== KernelTiming::smem_conflict_cycles` (MIO occupancy attributed to bank conflicts) |
//! | `smem_mio_cycles + global_mio_cycles` | total MIO-pipe busy cycles; `≤ wave_cycles` |
//! | `global_sectors` | `== l1_sector_hits + l2_sector_hits + l2_sector_misses` |
//! | `dram_read_bytes + dram_write_bytes` | wave-local DRAM traffic; scaled by `total/simulated` blocks it equals `KernelTiming::dram_bytes` |
//!
//! These are the only memory-traffic counts in the simulator: a functional
//! launch ([`crate::Gpu::launch`]) counts nothing.

/// Per-launch hardware counters of one simulated wave (unscaled: counts are
/// for the `blocks_per_sm` resident blocks the wave executes, like the
/// per-SM counters hardware profilers report).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HwCounters {
    // ---- issue statistics ----------------------------------------------------
    /// Cycles of the simulated wave (same as `KernelTiming::wave_cycles`).
    pub wave_cycles: u64,
    /// Warp schedulers per SM during the run.
    pub schedulers: u32,
    /// Warp instructions issued.
    pub issued: u64,
    /// Issues by pipe: `[fp32, int, mio, ctrl]`. Sums to `issued`.
    pub issued_by_pipe: [u64; 4],
    /// Eligible-warps histogram: `eligible_hist[k]` is the number of
    /// scheduler-cycles that had exactly `k` warps ready to issue
    /// (bucket 8 = "8 or more"). A scheduler recovering from a warp switch
    /// counts as 0 eligible — it cannot select that cycle.
    pub eligible_hist: [u64; 9],
    /// Warps resident on the SM during the wave.
    pub resident_warps: u32,
    /// Device limit on resident warps per SM (occupancy denominator).
    pub max_warps_per_sm: u32,

    // ---- FP32 pipe and register file -----------------------------------------
    /// FP32-pipe warp instructions issued.
    pub fp_issues: u64,
    /// FP32-pipe busy cycles across all schedulers:
    /// `2 × fp_issues + reg_bank_conflicts`.
    pub fp_pipe_busy_cycles: u64,
    /// Register-bank conflict stalls (one extra pipe cycle each, §5.2.2).
    pub reg_bank_conflicts: u64,
    /// Operand fetches served by the reuse cache, per operand slot.
    pub reuse_hits: [u64; 4],
    /// Operand fetches that read the register banks, per operand slot.
    pub reuse_misses: [u64; 4],

    // ---- shared memory -------------------------------------------------------
    /// Shared-memory warp accesses (LDS + STS).
    pub smem_accesses: u64,
    /// Shared-memory accesses by width: `[32-bit, 64-bit, 128-bit]`. Wide
    /// accesses are served in multiple half/quarter-warp phases — the count
    /// here times the per-width minimum phases gives `smem_ideal_phases`.
    pub smem_accesses_by_width: [u64; 3],
    /// Total MIO phases all shared accesses needed (bank-exact).
    pub smem_phases: u64,
    /// Conflict-free phase floor (`max(1, bytes/128)` per access).
    pub smem_ideal_phases: u64,
    /// Extra phases from bank conflicts: `smem_phases - smem_ideal_phases`.
    pub smem_extra_phases: u64,
    /// MIO-pipe busy cycles spent on shared accesses (`max(1, phases)` each).
    pub smem_mio_cycles: u64,

    // ---- global memory / L2 / DRAM -------------------------------------------
    /// Global-memory warp accesses (LDG + STG).
    pub global_accesses: u64,
    /// Distinct 32 B sectors those accesses touched (post-coalescing).
    pub global_sectors: u64,
    /// Load sectors served by the L1 (no backend traffic).
    pub l1_sector_hits: u64,
    /// Sectors served by the L2.
    pub l2_sector_hits: u64,
    /// Sectors that missed the L2 and went to DRAM.
    pub l2_sector_misses: u64,
    /// MIO-pipe busy cycles spent on global accesses.
    pub global_mio_cycles: u64,
    /// DRAM bytes read by the wave (32 B per missed load sector).
    pub dram_read_bytes: u64,
    /// DRAM bytes written by the wave (32 B per missed store sector).
    pub dram_write_bytes: u64,
}

impl HwCounters {
    pub(crate) fn new(schedulers: u32, resident_warps: u32, max_warps_per_sm: u32) -> Self {
        HwCounters {
            schedulers,
            resident_warps,
            max_warps_per_sm,
            ..Default::default()
        }
    }

    /// Accumulate `k` copies of `other` into `self` — the device model's
    /// merge: per-wave counters add across an SM's waves (with `k > 1` for
    /// fast-forwarded steady-state waves) and then across SMs. Every event
    /// count is linear, so all [`HwCounters::validate`] identities survive
    /// the merge: `wave_cycles` accumulates the *busy* scheduler-cycles
    /// (the sum over SMs, not the device makespan), keeping
    /// `Σ eligible_hist = schedulers × wave_cycles` exact.
    pub fn add_scaled(&mut self, other: &HwCounters, k: u64) {
        debug_assert_eq!(self.schedulers, other.schedulers);
        self.resident_warps = self.resident_warps.max(other.resident_warps);
        self.max_warps_per_sm = self.max_warps_per_sm.max(other.max_warps_per_sm);
        let mut other = other.clone();
        for ((_, sum), (_, add)) in self.words_mut().into_iter().zip(other.words_mut()) {
            for (s, a) in sum.iter_mut().zip(add.iter()) {
                *s += k * a;
            }
        }
    }

    /// Every counter but the three gauges (`schedulers`, `resident_warps`,
    /// `max_warps_per_sm`, which do not add), by name, as its words: the one
    /// list that [`HwCounters::add_scaled`] merges and the result cache
    /// (`bench::simcache`) stores, so no counter can be merged but not
    /// cached, or cached but not merged.
    pub fn words_mut(&mut self) -> [(&'static str, &mut [u64]); 23] {
        use std::slice::from_mut as one;
        [
            ("wave_cycles", one(&mut self.wave_cycles)),
            ("issued", one(&mut self.issued)),
            ("issued_by_pipe", &mut self.issued_by_pipe),
            ("eligible_hist", &mut self.eligible_hist),
            ("fp_issues", one(&mut self.fp_issues)),
            ("fp_pipe_busy_cycles", one(&mut self.fp_pipe_busy_cycles)),
            ("reg_bank_conflicts", one(&mut self.reg_bank_conflicts)),
            ("reuse_hits", &mut self.reuse_hits),
            ("reuse_misses", &mut self.reuse_misses),
            ("smem_accesses", one(&mut self.smem_accesses)),
            ("smem_accesses_by_width", &mut self.smem_accesses_by_width),
            ("smem_phases", one(&mut self.smem_phases)),
            ("smem_ideal_phases", one(&mut self.smem_ideal_phases)),
            ("smem_extra_phases", one(&mut self.smem_extra_phases)),
            ("smem_mio_cycles", one(&mut self.smem_mio_cycles)),
            ("global_accesses", one(&mut self.global_accesses)),
            ("global_sectors", one(&mut self.global_sectors)),
            ("l1_sector_hits", one(&mut self.l1_sector_hits)),
            ("l2_sector_hits", one(&mut self.l2_sector_hits)),
            ("l2_sector_misses", one(&mut self.l2_sector_misses)),
            ("global_mio_cycles", one(&mut self.global_mio_cycles)),
            ("dram_read_bytes", one(&mut self.dram_read_bytes)),
            ("dram_write_bytes", one(&mut self.dram_write_bytes)),
        ]
    }

    // ---- derived metrics (the numbers profilers print) -----------------------

    /// Issued slots over available slots, percent (Nsight's "issue slot
    /// utilization").
    pub fn issue_efficiency_pct(&self) -> f64 {
        100.0 * self.issued as f64 / self.slot_capacity() as f64
    }

    /// Resident warps over the device limit, percent.
    pub fn achieved_occupancy_pct(&self) -> f64 {
        100.0 * self.resident_warps as f64 / self.max_warps_per_sm.max(1) as f64
    }

    /// Mean eligible warps per scheduler-cycle (bucket 8 counted as 8).
    pub fn eligible_warps_avg(&self) -> f64 {
        let slots: u64 = self.eligible_hist.iter().sum();
        if slots == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .eligible_hist
            .iter()
            .enumerate()
            .map(|(k, &n)| k as u64 * n)
            .sum();
        weighted as f64 / slots as f64
    }

    /// FP32-pipe busy fraction of its issue capacity, percent. Unlike
    /// `KernelTiming::sol_total_pct` this includes register-bank conflict
    /// cycles — busy is busy, even when the cycle does no useful math.
    pub fn fp_pipe_util_pct(&self) -> f64 {
        100.0 * self.fp_pipe_busy_cycles as f64 / self.slot_capacity() as f64
    }

    /// MIO-pipe busy fraction of the wave, percent (one MIO pipe per SM).
    pub fn mio_util_pct(&self) -> f64 {
        100.0 * (self.smem_mio_cycles + self.global_mio_cycles) as f64
            / self.wave_cycles.max(1) as f64
    }

    /// Reuse-cache hit rate over all FP32 operand fetches, percent.
    pub fn reuse_hit_pct(&self) -> f64 {
        let hits: u64 = self.reuse_hits.iter().sum();
        let total = hits + self.reuse_misses.iter().sum::<u64>();
        if total == 0 {
            return 0.0;
        }
        100.0 * hits as f64 / total as f64
    }

    /// L1 hit rate over all load/store sectors, percent.
    pub fn l1_hit_pct(&self) -> f64 {
        if self.global_sectors == 0 {
            return 0.0;
        }
        100.0 * self.l1_sector_hits as f64 / self.global_sectors as f64
    }

    /// L2 hit rate over the sectors that reached it, percent.
    pub fn l2_hit_pct(&self) -> f64 {
        let reached = self.l2_sector_hits + self.l2_sector_misses;
        if reached == 0 {
            return 0.0;
        }
        100.0 * self.l2_sector_hits as f64 / reached as f64
    }

    /// Scheduler issue slots available during the wave.
    pub fn slot_capacity(&self) -> u64 {
        self.schedulers as u64 * self.wave_cycles.max(1)
    }

    /// Check every internal exactness invariant (see the module table);
    /// returns the first violated identity as an error string.
    pub fn validate(&self) -> Result<(), String> {
        let by_pipe: u64 = self.issued_by_pipe.iter().sum();
        if by_pipe != self.issued {
            return Err(format!(
                "issued_by_pipe sums to {by_pipe}, issued is {}",
                self.issued
            ));
        }
        let hist: u64 = self.eligible_hist.iter().sum();
        if hist != self.slot_capacity() {
            return Err(format!(
                "eligible_hist covers {hist} scheduler-cycles, expected {} ({} schedulers x {} wave_cycles)",
                self.slot_capacity(),
                self.schedulers,
                self.wave_cycles
            ));
        }
        if self.fp_pipe_busy_cycles != 2 * self.fp_issues + self.reg_bank_conflicts {
            return Err(format!(
                "fp_pipe_busy_cycles {} != 2*{} fp_issues + {} conflicts",
                self.fp_pipe_busy_cycles, self.fp_issues, self.reg_bank_conflicts
            ));
        }
        if self.fp_issues > self.issued_by_pipe[0] {
            return Err(format!(
                "fp_issues {} exceeds fp32 pipe issues {}",
                self.fp_issues, self.issued_by_pipe[0]
            ));
        }
        if self.smem_phases != self.smem_ideal_phases + self.smem_extra_phases {
            return Err(format!(
                "smem_phases {} != ideal {} + extra {}",
                self.smem_phases, self.smem_ideal_phases, self.smem_extra_phases
            ));
        }
        let widths: u64 = self.smem_accesses_by_width.iter().sum();
        if widths != self.smem_accesses {
            return Err(format!(
                "smem width buckets sum to {widths}, accesses are {}",
                self.smem_accesses
            ));
        }
        if self.smem_mio_cycles < self.smem_phases {
            return Err(format!(
                "smem_mio_cycles {} below phase count {} (each access occupies max(1, phases))",
                self.smem_mio_cycles, self.smem_phases
            ));
        }
        let served = self.l1_sector_hits + self.l2_sector_hits + self.l2_sector_misses;
        if served != self.global_sectors {
            return Err(format!(
                "sector hits {} + {} + misses {} != global_sectors {}",
                self.l1_sector_hits,
                self.l2_sector_hits,
                self.l2_sector_misses,
                self.global_sectors
            ));
        }
        if self.dram_read_bytes + self.dram_write_bytes != 32 * self.l2_sector_misses {
            return Err(format!(
                "DRAM bytes {}+{} != 32 B x {} L2 misses",
                self.dram_read_bytes, self.dram_write_bytes, self.l2_sector_misses
            ));
        }
        if self.smem_mio_cycles + self.global_mio_cycles > self.wave_cycles {
            return Err(format!(
                "MIO busy {} + {} exceeds wave_cycles {}",
                self.smem_mio_cycles, self.global_mio_cycles, self.wave_cycles
            ));
        }
        Ok(())
    }
}

/// Counter collector driven by the cycle loop in `timing.rs`, mirroring the
/// [`crate::simprof::Collector`] pattern: the scheduler loop records this
/// cycle's eligible-warp counts into scratch, and [`CounterCollector::commit`]
/// charges them for the span of cycles the classification stands for
/// (1 normally; the dead-time jump width when nothing could issue — a window
/// in which, by construction, no scheduler had an eligible warp).
pub(crate) struct CounterCollector {
    pub c: HwCounters,
    /// Scratch: eligible warps per scheduler this visited cycle.
    pub eligible: Vec<usize>,
}

impl CounterCollector {
    pub fn new(schedulers: usize, resident_warps: u32, max_warps_per_sm: u32) -> Self {
        CounterCollector {
            c: HwCounters::new(schedulers as u32, resident_warps, max_warps_per_sm),
            eligible: vec![0; schedulers],
        }
    }

    /// Charge this cycle's eligible counts for `span` cycles and reset.
    pub fn commit(&mut self, span: u64) {
        for e in &mut self.eligible {
            self.c.eligible_hist[(*e).min(8)] += span;
            *e = 0;
        }
    }

    /// Finalize with the wave length (after the loop exits).
    pub fn finish(mut self, wave_cycles: u64) -> HwCounters {
        self.c.wave_cycles = wave_cycles;
        self.c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HwCounters {
        HwCounters {
            wave_cycles: 10,
            schedulers: 4,
            issued: 12,
            issued_by_pipe: [8, 2, 1, 1],
            eligible_hist: [20, 12, 8, 0, 0, 0, 0, 0, 0],
            resident_warps: 8,
            max_warps_per_sm: 64,
            fp_issues: 8,
            fp_pipe_busy_cycles: 18,
            reg_bank_conflicts: 2,
            reuse_hits: [3, 0, 0, 0],
            reuse_misses: [5, 8, 8, 0],
            smem_accesses: 1,
            smem_accesses_by_width: [0, 0, 1],
            smem_phases: 6,
            smem_ideal_phases: 4,
            smem_extra_phases: 2,
            smem_mio_cycles: 6,
            global_accesses: 1,
            global_sectors: 4,
            l1_sector_hits: 1,
            l2_sector_hits: 2,
            l2_sector_misses: 1,
            global_mio_cycles: 1,
            dram_read_bytes: 32,
            dram_write_bytes: 0,
        }
    }

    #[test]
    fn sample_validates_and_derives() {
        let c = sample();
        c.validate().unwrap();
        assert!((c.issue_efficiency_pct() - 30.0).abs() < 1e-9);
        assert!((c.achieved_occupancy_pct() - 12.5).abs() < 1e-9);
        assert!((c.fp_pipe_util_pct() - 45.0).abs() < 1e-9);
        assert!((c.mio_util_pct() - 70.0).abs() < 1e-9);
        assert!((c.l1_hit_pct() - 25.0).abs() < 1e-9);
        assert!((c.l2_hit_pct() - 100.0 * 2.0 / 3.0).abs() < 1e-9);
        assert!((c.eligible_warps_avg() - 0.7).abs() < 1e-9);
        assert!((c.reuse_hit_pct() - 12.5).abs() < 1e-9);
    }

    /// Zeroing the gauges and every listed word leaves nothing: a counter
    /// missing from `words_mut` would be neither merged nor cached.
    #[test]
    fn word_list_holds_every_counter_but_the_gauges() {
        let mut c = sample();
        c.dram_write_bytes = 32; // the one counter `sample` leaves at 0
        (c.schedulers, c.resident_warps, c.max_warps_per_sm) = (0, 0, 0);
        for (_, words) in c.words_mut() {
            words.fill(0);
        }
        assert_eq!(c, HwCounters::default());
    }

    #[test]
    fn add_scaled_adds_every_word_and_keeps_the_gauges() {
        let mut sum = sample();
        sum.add_scaled(&sample(), 2);
        let mut want = sample();
        for (_, words) in want.words_mut() {
            words.iter_mut().for_each(|w| *w *= 3);
        }
        assert_eq!(sum, want);
        sum.validate().unwrap();
    }

    #[test]
    fn validate_catches_each_broken_identity() {
        let mut c = sample();
        c.issued += 1;
        assert!(c.validate().unwrap_err().contains("issued_by_pipe"));

        let mut c = sample();
        c.eligible_hist[0] += 1;
        assert!(c.validate().unwrap_err().contains("eligible_hist"));

        let mut c = sample();
        c.reg_bank_conflicts += 1;
        assert!(c.validate().unwrap_err().contains("fp_pipe_busy_cycles"));

        let mut c = sample();
        c.smem_extra_phases += 1;
        assert!(c.validate().unwrap_err().contains("smem_phases"));

        let mut c = sample();
        c.l1_sector_hits += 1;
        assert!(c.validate().unwrap_err().contains("global_sectors"));

        let mut c = sample();
        c.dram_write_bytes += 32;
        assert!(c.validate().unwrap_err().contains("DRAM bytes"));
    }

    #[test]
    fn collector_commit_spans_cover_slots() {
        let mut cc = CounterCollector::new(4, 8, 64);
        cc.eligible = vec![2, 0, 1, 9];
        cc.commit(1);
        // Scratch resets, so a jump charges the zero bucket.
        cc.commit(5);
        let c = cc.finish(6);
        assert_eq!(c.eligible_hist.iter().sum::<u64>(), 4 * 6);
        assert_eq!(c.eligible_hist[2], 1);
        assert_eq!(c.eligible_hist[8], 1);
        assert_eq!(c.eligible_hist[0], 1 + 4 * 5);
        assert_eq!(c.wave_cycles, 6);
    }
}
