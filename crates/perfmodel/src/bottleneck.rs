//! `bottleneck` — roofline-driven bottleneck classification.
//!
//! Takes a simulated [`KernelTiming`] (and its hardware counters when
//! [`gpusim::TimingOptions::counters`] was on) and labels the run
//! compute-bound, DRAM-bound, shared-memory-bound or latency-bound, with
//! the headroom left against the binding ceiling. This is the judgment call
//! a performance engineer makes from an Nsight "speed of light" section,
//! made mechanical:
//!
//! * **compute pressure** — FP32-pipe busy cycles over issue capacity
//!   (counter-exact when available, else `sol_total_pct`);
//! * **DRAM pressure** — the pure-bandwidth lower bound `dram_time_s` over
//!   achieved `time_s` (§3.2's wall);
//! * **smem pressure** — MIO-pipe busy cycles over the wave (bank conflicts
//!   raise it; only available with counters, else approximated from
//!   `smem_conflict_cycles`);
//!
//! The largest pressure ≥ [`BOUND_THRESHOLD`] names the bound; when no pipe
//! or wall dominates, the run is **latency-bound** — cycles go to waiting,
//! the §7.1 occupancy story. Analytic (non-simulated) phases are classified
//! straight from the roofline: intensity under the ridge is DRAM-bound,
//! over it compute-bound.

use gpusim::{DeviceSpec, HwCounters, KernelTiming};

use crate::roofline::ridge_intensity;

/// Pressure level above which a resource is called *the* bottleneck.
pub const BOUND_THRESHOLD: f64 = 0.60;

/// What binds a kernel's runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// FP32 pipe near saturation: more FLOPs need a better algorithm.
    Compute,
    /// DRAM-bandwidth wall: more speed needs less traffic (§3.2).
    Dram,
    /// MIO/shared-memory pipe saturated (bank conflicts included).
    Smem,
    /// No resource saturated: cycles go to latency — occupancy, stalls,
    /// dependency chains (§7.1).
    Latency,
}

impl Bound {
    pub fn name(self) -> &'static str {
        match self {
            Bound::Compute => "compute",
            Bound::Dram => "dram",
            Bound::Smem => "smem",
            Bound::Latency => "latency",
        }
    }
}

/// A classified run: the bound plus every pressure that was weighed.
#[derive(Clone, Copy, Debug)]
pub struct BottleneckReport {
    pub bound: Bound,
    /// FP32-pipe busy fraction of issue capacity, 0..=1.
    pub compute_pressure: f64,
    /// DRAM lower bound over achieved time, 0..=1.
    pub dram_pressure: f64,
    /// MIO-pipe busy fraction of the wave, 0..=1.
    pub smem_pressure: f64,
    /// Headroom to the binding ceiling in percent: how much faster the run
    /// could get before the *current* bottleneck pins it.
    pub headroom_pct: f64,
}

impl BottleneckReport {
    fn from_pressures(compute: f64, dram: f64, smem: f64) -> Self {
        let compute = compute.clamp(0.0, 1.0);
        let dram = dram.clamp(0.0, 1.0);
        let smem = smem.clamp(0.0, 1.0);
        let (bound, top) = [
            (Bound::Compute, compute),
            (Bound::Dram, dram),
            (Bound::Smem, smem),
        ]
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
        if top >= BOUND_THRESHOLD {
            BottleneckReport {
                bound,
                compute_pressure: compute,
                dram_pressure: dram,
                smem_pressure: smem,
                headroom_pct: 100.0 * (1.0 - top),
            }
        } else {
            // Nothing saturated: latency-bound. Headroom is measured to the
            // *closest* ceiling — removing latency runs into it first.
            BottleneckReport {
                bound: Bound::Latency,
                compute_pressure: compute,
                dram_pressure: dram,
                smem_pressure: smem,
                headroom_pct: 100.0 * (1.0 - top),
            }
        }
    }

    /// Classify a simulated kernel run. Uses the counter-exact pipe
    /// pressures when `t.counters` is present; otherwise falls back to the
    /// always-collected aggregates (`sol_total_pct`, `smem_conflict_cycles`).
    pub fn classify(t: &KernelTiming) -> Self {
        let slot_capacity = |c: &HwCounters| c.slot_capacity().max(1) as f64;
        let compute = match &t.counters {
            Some(c) => c.fp_pipe_busy_cycles as f64 / slot_capacity(c),
            None => t.sol_total_pct / 100.0,
        };
        let dram = if t.time_s > 0.0 {
            t.dram_time_s / t.time_s
        } else {
            0.0
        };
        let smem = match &t.counters {
            Some(c) => {
                (c.smem_mio_cycles + c.global_mio_cycles) as f64 / c.wave_cycles.max(1) as f64
            }
            // Without counters only the conflict overage is known — a lower
            // bound on MIO occupancy, still enough to flag pathologies.
            None => t.smem_conflict_cycles as f64 / t.wave_cycles.max(1) as f64,
        };
        Self::from_pressures(compute, dram, smem)
    }

    /// Classify an analytic (roofline) phase at `intensity` ops/byte: under
    /// the ridge the DRAM wall binds and compute pressure is what the roof
    /// lets through; above it the pipe binds and the wall recedes.
    pub fn classify_analytic(dev: &DeviceSpec, intensity: f64) -> Self {
        let ridge = ridge_intensity(dev);
        if intensity <= 0.0 {
            return Self::from_pressures(0.0, 1.0, 0.0);
        }
        if intensity < ridge {
            Self::from_pressures(intensity / ridge, 1.0, 0.0)
        } else {
            Self::from_pressures(1.0, ridge / intensity, 0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressures_pick_the_dominant_bound() {
        let r = BottleneckReport::from_pressures(0.95, 0.3, 0.1);
        assert_eq!(r.bound, Bound::Compute);
        assert!((r.headroom_pct - 5.0).abs() < 1e-9);
        let r = BottleneckReport::from_pressures(0.2, 0.9, 0.1);
        assert_eq!(r.bound, Bound::Dram);
        let r = BottleneckReport::from_pressures(0.2, 0.3, 0.7);
        assert_eq!(r.bound, Bound::Smem);
        let r = BottleneckReport::from_pressures(0.4, 0.3, 0.2);
        assert_eq!(r.bound, Bound::Latency);
        assert!((r.headroom_pct - 60.0).abs() < 1e-9);
    }

    #[test]
    fn analytic_classification_follows_the_ridge() {
        let v100 = DeviceSpec::v100();
        let ridge = ridge_intensity(&v100);
        // The memory-bound transforms sit far under the ridge.
        let r = BottleneckReport::classify_analytic(&v100, 0.25);
        assert_eq!(r.bound, Bound::Dram);
        assert!(r.compute_pressure < 0.05);
        // Far above the ridge, the pipe binds and the wall is distant.
        let r = BottleneckReport::classify_analytic(&v100, 100.0 * ridge);
        assert_eq!(r.bound, Bound::Compute);
        assert!(r.dram_pressure < 0.05);
        // At the ridge both walls touch.
        let r = BottleneckReport::classify_analytic(&v100, ridge);
        assert!(r.compute_pressure > 0.99 && r.dram_pressure > 0.99);
    }

    #[test]
    fn bound_names_are_stable() {
        // These strings are report-schema surface (the baselines/ reports).
        assert_eq!(Bound::Compute.name(), "compute");
        assert_eq!(Bound::Dram.name(), "dram");
        assert_eq!(Bound::Smem.name(), "smem");
        assert_eq!(Bound::Latency.name(), "latency");
    }
}
