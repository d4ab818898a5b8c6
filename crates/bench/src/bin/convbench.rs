//! `convbench` — run any single convolution configuration through any
//! algorithm on either simulated device.
//!
//! ```text
//! convbench [--device v100|rtx2070] [--algo ours|winograd|gemm|implicit|
//!            precomp|nonfused|fft|fft-tiling|all] [--n N] [--c C] [--hw HW]
//!            [--k K] [--layer Conv2|Conv3|Conv4|Conv5] [--verify]
//!            [--profile] [--metrics] [--json PATH] [--trace PATH]
//!            [--jobs N] [--no-cache] [--cache-dir PATH] [--selfcheck]
//! ```
//!
//! `--profile` runs the fused kernel through the cycle simulator with
//! per-instruction stall attribution on, and prints the top hot lines with
//! their stall breakdown plus per-region totals. `--metrics` times each
//! algorithm with hardware counters on (in the same sweep, so each point
//! simulates at most once), prints the dominant kernels' bottleneck
//! classification table and appends `kind=metrics` records to the `--json`
//! report (see `bench::metrics`). `--trace PATH` writes the fused
//! kernel's full-device multi-wave timeline as Chrome trace-event JSON
//! (load in Perfetto or `chrome://tracing`): one lane per SM, each wave a
//! complete event, wave hand-offs as instants — the `exact`-mode device
//! simulation of every SM, so tail waves and SM imbalance are visible
//! instead of extrapolated. `--json PATH` writes the measured numbers as
//! JSON records.

use bench::report::{check_args, Report, REPORT_FLAGS, SWEEP_FLAGS};
use bench::Point;
use gpusim::{DeviceSpec, KernelProfile, StallCause};
use tensor::{allclose, LayoutKind, Tensor4};
use wino_core::resnet::layer_by_name;
use wino_core::{conv2d_direct, Algo, Conv, ConvProblem, Model, Observe, Target};

struct Args {
    device: DeviceSpec,
    algos: Vec<Algo>,
    problem: ConvProblem,
    verify: bool,
    profile: bool,
    trace: Option<String>,
}

/// The flags [`parse_args`] reads, beside `--json`, `--metrics` and the
/// sweep engine's.
const CONVBENCH_FLAGS: &[&str] = &[
    "--device NAME",
    "--algo NAME",
    "--layer NAME",
    "--n N",
    "--c C",
    "--hw HW",
    "--k K",
    "--verify",
    "--profile",
    "--trace PATH",
];

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut device = DeviceSpec::rtx2070();
    let mut algos = vec![Algo::OursFused];
    let (mut n, mut c, mut hw, mut k) = (32usize, 64usize, 56usize, 64usize);
    let mut verify = false;
    let mut profile = false;
    let mut trace = None;
    // `check_args` has rejected unknown flags and missing values, so this
    // loop only reads values.
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().expect("checked by check_args").as_str();
        match flag.as_str() {
            "--device" => {
                device = match value() {
                    "v100" => DeviceSpec::v100(),
                    "rtx2070" => DeviceSpec::rtx2070(),
                    other => return Err(format!("unknown device {other}")),
                };
            }
            "--algo" => {
                algos = match value() {
                    "ours" => vec![Algo::OursFused],
                    "winograd" => vec![Algo::CudnnWinograd],
                    "gemm" => vec![Algo::Gemm],
                    "implicit" => vec![Algo::ImplicitGemm],
                    "precomp" => vec![Algo::ImplicitPrecompGemm],
                    "nonfused" => vec![Algo::WinogradNonfused],
                    "fft" => vec![Algo::Fft],
                    "fft-tiling" => vec![Algo::FftTiling],
                    "all" => Algo::ALL.to_vec(),
                    other => return Err(format!("unknown algo {other}")),
                };
            }
            "--layer" => {
                let l = layer_by_name(value()).ok_or("unknown layer")?;
                c = l.c;
                k = l.c;
                hw = l.hw;
            }
            "--n" => n = value().parse().map_err(|e| format!("--n: {e}"))?,
            "--c" => c = value().parse().map_err(|e| format!("--c: {e}"))?,
            "--hw" => hw = value().parse().map_err(|e| format!("--hw: {e}"))?,
            "--k" => k = value().parse().map_err(|e| format!("--k: {e}"))?,
            "--verify" => verify = true,
            "--profile" => profile = true,
            "--trace" => trace = Some(value().to_string()),
            // The report's and the sweep engine's flags, read by
            // `Report::from_args`: skip the values of those that take one.
            "--json" | "--jobs" | "--cache-dir" => {
                value();
            }
            _ => {}
        }
    }
    // The GPU kernels carry the paper's alignment constraints (§8.3);
    // reject misaligned shapes with a clean message instead of a panic.
    if n % 32 != 0 {
        return Err(format!("--n must be a multiple of 32 (got {n})"));
    }
    if c % 8 != 0 {
        return Err(format!("--c must be a multiple of 8 (got {c})"));
    }
    let needs_k64 = algos.iter().any(|a| {
        matches!(
            a,
            Algo::OursFused
                | Algo::Gemm
                | Algo::ImplicitGemm
                | Algo::ImplicitPrecompGemm
                | Algo::WinogradNonfused
        )
    });
    if needs_k64 && k % 64 != 0 {
        return Err(format!(
            "--k must be a multiple of 64 for this algorithm set (got {k})"
        ));
    }
    if k % 32 != 0 {
        return Err(format!("--k must be a multiple of 32 (got {k})"));
    }
    if (profile || trace.is_some())
        && !algos
            .iter()
            .any(|a| matches!(a, Algo::OursFused | Algo::CudnnWinograd))
    {
        return Err("--profile/--trace need a fused kernel algo (ours or winograd)".into());
    }
    Ok(Args {
        device,
        algos,
        problem: ConvProblem::resnet3x3(n, c, hw, k),
        verify,
        profile,
        trace,
    })
}

fn main() {
    check_args("convbench", &[CONVBENCH_FLAGS, REPORT_FLAGS, SWEEP_FLAGS]);
    let Args {
        device,
        algos,
        problem,
        verify,
        profile,
        trace,
    } = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("see the module docs at the top of convbench.rs for usage");
            std::process::exit(2);
        }
    };
    let dev_name = device.name;
    println!(
        "{}  N={} C={} HxW={}x{} K={}",
        device.name, problem.n, problem.c, problem.h, problem.w, problem.k
    );
    let conv = Conv::new(problem, device);
    let points: Vec<Point> = algos
        .iter()
        .map(|&a| Point {
            conv: conv.clone(),
            target: Target::algo(a),
            config: vec![
                ("algo", a.name().into()),
                ("n", problem.n.into()),
                ("c", problem.c.into()),
                ("hw", problem.h.into()),
                ("k", problem.k.into()),
            ],
        })
        .collect();
    let mut report = Report::from_args("convbench");
    let timings = report.measure(&points);

    let reference = if verify {
        let input = Tensor4::random(
            LayoutKind::Nchw,
            [problem.n, problem.c, problem.h, problem.w],
            -1.0,
            1.0,
            1,
        );
        let filter = Tensor4::random(LayoutKind::Kcrs, [problem.k, problem.c, 3, 3], -1.0, 1.0, 2);
        let want = conv2d_direct(&problem, &input, &filter);
        Some((input, filter, want))
    } else {
        None
    };

    println!(
        "{:<24} {:>10} {:>9} {:>11} {:>9}",
        "algorithm", "time (us)", "eff TF", "wkspc (MB)", "verify"
    );
    for ((&algo, p), t) in algos.iter().zip(&points).zip(&timings) {
        let v = match &reference {
            Some((input, filter, want)) => {
                let got = conv.run(algo, input, filter);
                if allclose(want.as_slice(), got.output.as_slice(), 5e-3, 5e-3) {
                    "PASS"
                } else {
                    "FAIL"
                }
            }
            None => "-",
        };
        let workspace_mb = conv.workspace_bytes(algo) as f64 / 1e6;
        println!(
            "{:<24} {:>10.1} {:>9.2} {:>11.2} {:>9}",
            algo.name(),
            t.time_s * 1e6,
            t.tflops_effective,
            workspace_mb,
            v
        );
        report.add(
            dev_name,
            &p.config,
            &[
                ("time_us", (t.time_s * 1e6).into()),
                ("tflops_effective", t.tflops_effective.into()),
                ("workspace_mb", workspace_mb.into()),
                ("verify", v.into()),
            ],
        );
    }

    if let Some(records) = report.counted() {
        println!("\n== hardware counters & bottleneck classification ==");
        bench::metrics::print_metrics_table(records);
        for (&algo, t) in algos.iter().zip(&timings) {
            if t.kernel.is_none() {
                println!("{:<24} (analytic model, no simulated kernel)", algo.name());
            }
        }
    }

    if profile || trace.is_some() {
        let (&algo, point) = algos
            .iter()
            .zip(&points)
            .find(|(a, _)| matches!(a, Algo::OursFused | Algo::CudnnWinograd))
            .unwrap();
        if profile {
            let observe = Observe {
                profile: true,
                ..Default::default()
            };
            let t = conv.measure(Target::algo(algo), observe).kernel;
            let p = t.as_ref().and_then(|k| k.profile.as_ref());
            let mut config = point.config.clone();
            config.push(("kind", "profile".into()));
            print_profile(algo, p.expect("profiled"), &mut report, dev_name, &config);
        }
        if let Some(path) = &trace {
            // Device-exact, so every SM gets its own simulated lane.
            let observe = Observe {
                trace: true,
                ..Default::default()
            };
            let target = Target::fused(conv.fused_config(algo), Model::DeviceExact);
            let t = conv.measure(target, observe);
            let dt = t.trace.expect("traced run carries a trace");
            let tr = wave_trace(algo, &conv.device, &dt);
            std::fs::write(path, tr.render())
                .unwrap_or_else(|e| panic!("failed to write --trace {path}: {e}"));
            println!(
                "\n[trace] wrote {} wave spans to {path}{}",
                dt.spans.len(),
                if dt.truncated { " (truncated)" } else { "" }
            );
            if dt.truncated {
                eprintln!(
                    "[trace] warning: wave-span buffer hit its cap; the trace covers only \
                     the first {} spans of the launch (the file carries \"truncated\": true)",
                    dt.spans.len()
                );
            }
        }
    }
    report.finish();
}

/// Render a full-device wave timeline as a Chrome trace: one lane per SM,
/// each wave execution a complete event (a span with `repeats > 1` covers
/// that many identical back-to-back waves collapsed by the simulator's
/// steady-state fast path), and a "wave boundary" instant on each lane at
/// every hand-off between consecutive spans. `ts`/`dur` are SM cycles.
fn wave_trace(algo: Algo, dev: &DeviceSpec, dt: &gpusim::DeviceTrace) -> bench::trace::ChromeTrace {
    let mut tr = bench::trace::ChromeTrace::new();
    tr.set_truncated(dt.truncated);
    tr.process_name(0, &format!("{} on {}", algo.name(), dev.name));
    let mut last_sm = None;
    for s in &dt.spans {
        // Spans arrive grouped by SM in ascending-SM order; name each lane
        // once, and mark the boundary with the lane's previous wave.
        if last_sm != Some(s.sm) {
            tr.thread_name(0, s.sm as u64, &format!("SM {}", s.sm));
        } else {
            tr.instant(0, s.sm as u64, "wave boundary", s.start_cycle, &[]);
        }
        last_sm = Some(s.sm);
        tr.complete(
            0,
            s.sm as u64,
            &format!("wave {}", s.wave),
            s.start_cycle,
            s.duration(),
            &[
                ("blocks", s.blocks.into()),
                ("repeats", s.repeats.into()),
                ("cycles_per_wave", s.cycles.into()),
                ("share_sms", s.share_sms.into()),
            ],
        );
    }
    tr
}

/// Print per-region totals and the top hot lines with stall attribution,
/// ending with the reconciliation identity against `wave_cycles`, and
/// record the stall totals under `config`.
fn print_profile(
    algo: Algo,
    p: &KernelProfile,
    report: &mut Report,
    dev_name: &str,
    config: &[(&str, bench::json::Json)],
) {
    let slots = p.schedulers as u64 * p.wave_cycles;
    let issue: u64 = p.lines.iter().map(|l| l.executed).sum();
    let stalls: u64 = p.lines.iter().map(|l| l.stalls.total()).sum();
    println!("\n== stall-attribution profile: {} ==", algo.name());
    println!(
        "wave_cycles {}  schedulers {}  issue slots {} ({:.1}%)  stall slots {}  empty {}",
        p.wave_cycles,
        p.schedulers,
        issue,
        100.0 * issue as f64 / slots as f64,
        stalls,
        p.empty_cycles
    );

    println!("\nper-region slot cycles:");
    println!(
        "{:<20} {:>12} {:>14} {:>7}",
        "region", "executed", "slot cycles", "share"
    );
    for (name, executed, cycles) in p.region_totals() {
        println!(
            "{:<20} {:>12} {:>14} {:>6.1}%",
            name,
            executed,
            cycles,
            100.0 * cycles as f64 / slots as f64
        );
    }

    const TOP_N: usize = 20;
    println!("\ntop {TOP_N} hot lines (slot cycles = issue + attributed stalls):");
    println!(
        "{:>5} {:<16} {:>10} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7}  instruction",
        "line",
        "region",
        "executed",
        "issue",
        "barrier",
        "scbrd",
        "mio",
        "stallct",
        "pipe",
        "yield",
        "bankcf"
    );
    for pc in p.hot_lines(TOP_N) {
        let l = &p.lines[pc];
        let region = p
            .region_of(pc as u32)
            .map(|r| r.name.as_str())
            .unwrap_or("-");
        let mut text = l.text.clone();
        if text.len() > 44 {
            text.truncate(41);
            text.push_str("...");
        }
        println!(
            "{:>5} {:<16} {:>10} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7} {:>7}  {}",
            pc,
            region,
            l.executed,
            l.executed,
            l.stalls.by_cause[StallCause::Barrier as usize],
            l.stalls.by_cause[StallCause::Scoreboard as usize],
            l.stalls.by_cause[StallCause::MioQueue as usize],
            l.stalls.by_cause[StallCause::StallCount as usize],
            l.stalls.by_cause[StallCause::PipeBusy as usize],
            l.stalls.yield_switch,
            l.bank_conflict_cycles,
            text
        );
    }

    let attributed = p.attributed_cycles();
    println!(
        "\nreconciliation: issue {} + stalls {} + empty {} = {}  vs  {} schedulers x {} wave_cycles = {}  [{}]",
        issue,
        stalls,
        p.empty_cycles,
        attributed,
        p.schedulers,
        p.wave_cycles,
        slots,
        if attributed == slots { "OK" } else { "MISMATCH" }
    );

    let mut by_cause: [u64; 5] = [0; 5];
    let mut yield_switch = 0u64;
    for l in &p.lines {
        for c in StallCause::ALL {
            by_cause[c as usize] += l.stalls.by_cause[c as usize];
        }
        yield_switch += l.stalls.yield_switch;
    }
    let mut metrics: Vec<(&str, bench::json::Json)> = vec![
        ("wave_cycles", p.wave_cycles.into()),
        ("schedulers", p.schedulers.into()),
        ("issue_slots", issue.into()),
        ("empty_slots", p.empty_cycles.into()),
        ("yield_switch_slots", yield_switch.into()),
    ];
    for c in StallCause::ALL {
        metrics.push((c.name(), by_cause[c as usize].into()));
    }
    report.add(dev_name, config, &metrics);
}
