//! `metrics` — the `--metrics` hardware-counter layer shared by every
//! experiment binary.
//!
//! Under `--metrics`, [`crate::report::Report::measure`] times each grid
//! point with [`gpusim::TimingOptions::counters`] on, in its one sweep, and
//! queues one extra `--json` record per point that simulates a kernel, with
//! `config.kind == "metrics"` (the same marker scheme the stall profile uses
//! with `"profile"`): [`kernel_metrics`] of the timing the sweep returned,
//! classified by [`perfmodel::BottleneckReport`]. The report writes them
//! after the binary's own records. The analytic binaries file their roofline
//! classification ([`analytic_metrics`]) through
//! [`crate::report::Report::add_metrics`] instead. `convbench --metrics`
//! additionally prints the classification as a table.
//!
//! Counter collection changes no timing numbers (the cycle results are
//! bit-identical, asserted by `gpusim/tests/counter_invariants.rs`), so a
//! counted run is cached under the plain [`wino_core::Conv::key`], its
//! counters kept in the timing record ([`crate::simcache`]). The metrics
//! themselves are never cached: they are a pure view of a counted timing,
//! recomputed on every run, so a change to this module or to the classifier
//! shows on the next run without invalidating anything.
//!
//! The committed `baselines/*.json` reports are built from these records and
//! gated by the `metricsdiff` binary in CI; metric names and the
//! [`perfmodel::Bound::name`] strings are therefore schema surface.

use gpusim::{DeviceSpec, KernelTiming};
use perfmodel::BottleneckReport;
use wino_core::AlgoTiming;

use crate::json::{obj, Json};
use crate::{Point, Table};

/// Named metric list — what one `--json` metrics record holds.
pub type Metrics = Vec<(&'static str, Json)>;

/// The metrics record for one counted kernel run: bottleneck classification
/// first, then the counter-derived rates; `None` for an uncounted timing.
pub fn kernel_metrics(t: &KernelTiming) -> Option<Metrics> {
    let c = t.counters.as_ref()?;
    let b = BottleneckReport::classify(t);
    Some(vec![
        ("bound", b.bound.name().into()),
        ("headroom_pct", b.headroom_pct.into()),
        ("compute_pressure", b.compute_pressure.into()),
        ("dram_pressure", b.dram_pressure.into()),
        ("smem_pressure", b.smem_pressure.into()),
        ("kernel_time_us", (t.time_s * 1e6).into()),
        ("wave_cycles", t.wave_cycles.into()),
        ("issue_efficiency_pct", c.issue_efficiency_pct().into()),
        ("achieved_occupancy_pct", c.achieved_occupancy_pct().into()),
        ("eligible_warps_avg", c.eligible_warps_avg().into()),
        ("fp_pipe_util_pct", c.fp_pipe_util_pct().into()),
        ("mio_util_pct", c.mio_util_pct().into()),
        ("reg_bank_conflicts", c.reg_bank_conflicts.into()),
        ("reuse_hit_pct", c.reuse_hit_pct().into()),
        ("smem_extra_phases", c.smem_extra_phases.into()),
        ("l1_hit_pct", c.l1_hit_pct().into()),
        ("l2_hit_pct", c.l2_hit_pct().into()),
        ("dram_read_mb", (c.dram_read_bytes as f64 / 1e6).into()),
        ("dram_write_mb", (c.dram_write_bytes as f64 / 1e6).into()),
    ])
}

/// The metrics record for an analytic (roofline-only) phase: classification
/// from intensity alone, no counters to report.
pub fn analytic_metrics(dev: &DeviceSpec, intensity: f64) -> Metrics {
    let b = BottleneckReport::classify_analytic(dev, intensity);
    vec![
        ("bound", b.bound.name().into()),
        ("headroom_pct", b.headroom_pct.into()),
        ("compute_pressure", b.compute_pressure.into()),
        ("dram_pressure", b.dram_pressure.into()),
        ("smem_pressure", b.smem_pressure.into()),
        ("intensity", intensity.into()),
    ]
}

/// The metrics of `p`, measured as `t`: [`kernel_metrics`], plus
/// `mainloop_tflops` for a main-loop point (Figures 7–9, the ablation);
/// `None` for an uncounted timing and for the analytically modeled FFT
/// algorithms, which run no simulated kernel (their bottleneck comes from
/// [`analytic_metrics`] where an experiment wants one).
pub(crate) fn point_metrics(p: &Point, t: &AlgoTiming) -> Option<Json> {
    let mut m = kernel_metrics(t.kernel.as_ref()?)?;
    if let Some(tflops) = p.mainloop_tflops(t) {
        m.push(("mainloop_tflops", tflops.into()));
    }
    Some(obj(&m))
}

/// Print `kind=metrics` report records as an aligned table, one row per
/// record labelled by its config's `algo` (`convbench --metrics`).
pub fn print_metrics_table(records: &[Json]) {
    let pct = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_f64)
            .map_or_else(|| "-".into(), |v| format!("{v:.1}"))
    };
    let mut t = Table::new(&[
        "kernel",
        "bound",
        "headroom%",
        "issue%",
        "occ%",
        "fp%",
        "mio%",
        "l2hit%",
        "dram MB",
    ]);
    for r in records {
        let label = r.get("config").and_then(|c| c.get("algo"));
        let m = r.get("metrics").expect("a report record");
        let dram_mb = m.get("dram_read_mb").and_then(Json::as_f64).unwrap_or(0.0)
            + m.get("dram_write_mb").and_then(Json::as_f64).unwrap_or(0.0);
        t.row(vec![
            label.and_then(Json::as_str).unwrap_or("-").to_string(),
            m.get("bound")
                .and_then(Json::as_str)
                .unwrap_or("-")
                .to_string(),
            pct(m, "headroom_pct"),
            pct(m, "issue_efficiency_pct"),
            pct(m, "achieved_occupancy_pct"),
            pct(m, "fp_pipe_util_pct"),
            pct(m, "mio_util_pct"),
            pct(m, "l2_hit_pct"),
            format!("{dram_mb:.2}"),
        ]);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_core::{Algo, Conv, ConvProblem};

    fn small_conv() -> Conv {
        // Same small problem the conv.rs unit tests use — fast to simulate.
        Conv::new(ConvProblem::resnet3x3(32, 8, 8, 64), DeviceSpec::v100())
    }

    #[test]
    fn kernel_metrics_names_are_stable() {
        // Metric names are baselines/metricsdiff schema surface.
        let t = small_conv()
            .time_counted(Algo::OursFused)
            .expect("simulated");
        let m = kernel_metrics(&t).expect("a counted timing has metrics");
        let names: Vec<&str> = m.iter().map(|(k, _)| *k).collect();
        for want in [
            "bound",
            "headroom_pct",
            "kernel_time_us",
            "issue_efficiency_pct",
            "achieved_occupancy_pct",
            "smem_extra_phases",
            "l2_hit_pct",
            "dram_read_mb",
        ] {
            assert!(names.contains(&want), "missing metric {want}");
        }
        let o = obj(&m);
        assert!(o.get("bound").and_then(Json::as_str).is_some());
        // The same timing without its counters has none.
        let plain = KernelTiming {
            counters: None,
            ..t
        };
        assert!(kernel_metrics(&plain).is_none());
    }

    #[test]
    fn analytic_metrics_classify_from_intensity() {
        let m = analytic_metrics(&DeviceSpec::v100(), 0.25);
        assert_eq!(
            obj(&m).get("bound").and_then(Json::as_str),
            Some("dram"),
            "transform intensity sits under the ridge"
        );
    }
}
