//! `metrics` — the `--metrics` hardware-counter layer shared by every
//! experiment binary.
//!
//! Passing `--metrics` to an experiment re-times each point's dominant
//! simulated kernel with [`gpusim::TimingOptions::counters`] on, classifies
//! the run with [`perfmodel::BottleneckReport`], and appends one extra
//! `--json` record per point with `config.kind == "metrics"` (the same
//! marker scheme the stall profile uses with `"profile"`). `convbench
//! --metrics` additionally prints the classification as a table.
//!
//! Counter collection changes no timing numbers (the cycle results are
//! bit-identical, asserted by `gpusim/tests/counter_invariants.rs`), but the
//! counted runs are cached under their own key — the plain
//! [`wino_core::Conv::key`] plus a `"metrics/v1"` tag — so warming the
//! timing cache never pays for counters and vice versa. Bump the tag when
//! the metric schema changes.
//!
//! The committed `baselines/*.json` reports are built from these records and
//! gated by the `metricsdiff` binary in CI; metric names and the
//! [`perfmodel::Bound::name`] strings are therefore schema surface.

use gpusim::{DeviceSpec, KernelTiming};
use kernels::FusedConfig;
use perfmodel::BottleneckReport;
use wino_core::{Algo, Conv, Kernels, Observe, Target};

use crate::json::{obj, Json};
use crate::simcache::CacheKey;
use crate::sweep::Sweep;
use crate::Table;

/// Named metric list — what one `--json` metrics record holds.
pub type Metrics = Vec<(&'static str, Json)>;

/// Was `--metrics` passed on the command line?
pub fn wanted() -> bool {
    std::env::args().any(|a| a == "--metrics")
}

/// The metrics record for one counted kernel run: bottleneck classification
/// first, then the counter-derived rates. Requires `t.counters` (panics
/// otherwise — counted timings always carry them).
pub fn kernel_metrics(t: &KernelTiming) -> Metrics {
    let b = BottleneckReport::classify(t);
    let c = t
        .counters
        .as_ref()
        .expect("kernel_metrics needs a counted timing");
    vec![
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
    ]
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

/// Tag a config with the `kind=metrics` marker that distinguishes metrics
/// records from the timing records of the same grid point.
pub fn metrics_config<'a>(base: &[(&'a str, Json)]) -> Vec<(&'a str, Json)> {
    let mut c = base.to_vec();
    c.push(("kind", "metrics".into()));
    c
}

fn tagged_key(mut d: gpusim::Digest) -> CacheKey {
    d.str("metrics/v1");
    CacheKey::from_digest(&d)
}

/// Counted-run metrics for every `(conv, target)` point, on the sweep
/// engine, in registration order; `None` for the analytically modeled FFT
/// algorithms, which run no simulated kernel (their bottleneck comes from
/// [`analytic_metrics`] where an experiment wants one). Main-loop targets
/// (Figures 7–9 / ablation) also record `mainloop_tflops`.
pub fn metrics_sweep(name: &str, points: Vec<(Conv, Target)>) -> Vec<Option<Json>> {
    let mut sw = Sweep::from_args(name);
    for (conv, target) in points {
        sw.point(tagged_key(conv.key(target)), move || {
            let Some(t) = conv.measure(target, Observe::COUNTERS).kernel else {
                return Json::Null;
            };
            let mut m = kernel_metrics(&t);
            match target.kernels {
                Kernels::Fused(cfg) if cfg.main_loop_only => {
                    let tflops = t.region_tflops(&conv.device, cfg.mainloop_flops_per_block());
                    m.push(("mainloop_tflops", tflops.into()));
                }
                _ => {}
            }
            obj(&m)
        });
    }
    let results = sw.run().results.into_iter();
    results.map(|r| (r != Json::Null).then_some(r)).collect()
}

/// [`metrics_sweep`] of [`Conv::time`] for every `(conv, algo)` point.
pub fn conv_metrics_sweep(name: &str, points: Vec<(Conv, Algo)>) -> Vec<Option<Json>> {
    let targets = points.into_iter().map(|(c, a)| (c, Target::algo(a)));
    metrics_sweep(name, targets.collect())
}

/// `(device name, config pairs)` for one sweep point — what
/// [`add_metrics_records`] needs to emit the point's report record.
pub type PointConfig = (String, Vec<(&'static str, Json)>);

/// Run the counted sweep over `points` and append one `kind=metrics` record
/// per simulated point to `report`; `config_of(index)` names the point.
/// FFT points are silently skipped (no simulated kernel).
pub fn add_metrics_records(
    report: &mut crate::report::Report,
    name: &str,
    points: Vec<(Conv, Target)>,
    config_of: impl Fn(usize) -> PointConfig,
) {
    for (i, rec) in metrics_sweep(name, points).into_iter().enumerate() {
        let Some(Json::Obj(fields)) = rec else {
            continue;
        };
        let metrics: Vec<(&str, Json)> = fields
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        let (device, config) = config_of(i);
        report.add(&device, &metrics_config(&config), &metrics);
    }
}

/// [`add_metrics_records`] of [`Conv::time`] points; `config_of(index,
/// algo)` names the point.
pub fn add_conv_metrics_records(
    report: &mut crate::report::Report,
    name: &str,
    points: Vec<(Conv, Algo)>,
    config_of: impl Fn(usize, Algo) -> PointConfig,
) {
    let algos: Vec<Algo> = points.iter().map(|(_, a)| *a).collect();
    let targets = points.into_iter().map(|(c, a)| (c, Target::algo(a)));
    add_metrics_records(report, name, targets.collect(), |i| config_of(i, algos[i]));
}

/// [`add_metrics_records`] of [`Target::mainloop`] points.
pub fn add_mainloop_metrics_records(
    report: &mut crate::report::Report,
    name: &str,
    points: Vec<(Conv, FusedConfig)>,
    config_of: impl Fn(usize) -> PointConfig,
) {
    let targets = points
        .into_iter()
        .map(|(c, cfg)| (c, Target::mainloop(cfg)));
    add_metrics_records(report, name, targets.collect(), config_of);
}

/// Print metrics records as an aligned table (`convbench --metrics`).
/// `rows` pairs a point label with the record built by [`kernel_metrics`].
pub fn print_metrics_table(rows: &[(String, Json)]) {
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
    for (label, m) in rows {
        let dram_mb = m.get("dram_read_mb").and_then(Json::as_f64).unwrap_or(0.0)
            + m.get("dram_write_mb").and_then(Json::as_f64).unwrap_or(0.0);
        t.row(vec![
            label.clone(),
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
    use gpusim::DeviceSpec;
    use wino_core::ConvProblem;

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
        let m = kernel_metrics(&t);
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

    #[test]
    fn metrics_config_appends_kind() {
        let c = metrics_config(&[("layer", "Conv2".into())]);
        assert_eq!(obj(&c).get("kind").and_then(Json::as_str), Some("metrics"));
    }
}
