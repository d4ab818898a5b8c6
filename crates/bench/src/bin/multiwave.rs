//! `multiwave` — the one-wave model's partial-tail overcharge, measured.
//!
//! For every Table 2 `(layer, batch)` point on both devices, times the
//! paper's fused Winograd kernel under both timing models:
//!
//! * the retained one-wave analytic path (`gpusim::simulate` under
//!   `Model::OneWave`): one steady-state wave on one SM, extrapolated to
//!   `ceil(total / (resident × SMs))` full device waves;
//! * the full-device multi-wave simulation (`Model::Device`): every block
//!   dispatched to its SM, partial tail waves simulated exactly.
//!
//! The recorded divergence is *signed*. Positive `correction_pct` means the
//! one-wave model overcharged the grid — typically a partial tail billed as
//! a full device wave. Negative means the device model runs slower — the
//! effects only it can see: L2/L1 and memory-backlog carry from wave to
//! wave, and the per-wave bandwidth share of however many SMs are actually
//! busy. (Bit-for-bit agreement between the two models on exact-multiple
//! grids holds for coordinate-independent kernels and is pinned by
//! `gpusim/tests/device_sim.rs`; the real fused kernel carries cache state
//! across waves, so its grids diverge in both directions.) The committed
//! `BENCH_multiwave.json` at the repo root is this binary's output — the
//! record of which evaluation points move, and by how much.
//!
//! Every (device, layer, N) point under both models is one [`Point`] of one
//! cached sweep ([`Report::measure`]), so a run over a warm result cache
//! simulates nothing. Each point asserts that both models give a positive
//! time within 4× of each other.
//!
//! Flags: `--json PATH` (default `BENCH_multiwave.json`).

use bench::report::{check_args, flag_value, Report};
use bench::{Point, Table};
use gpusim::DeviceSpec;
use wino_core::resnet::eval_grid;
use wino_core::{Conv, Model, Target};

fn main() {
    check_args("multiwave", &[&["--json PATH"]]);
    let args: Vec<String> = std::env::args().collect();
    let json_path = flag_value(&args, "--json").unwrap_or_else(|| "BENCH_multiwave.json".into());

    println!("multiwave: one-wave extrapolation vs full-device simulation (fused kernel, ours)");
    let mut report = Report::to_path("multiwave", Some(json_path));
    let mut grid = Vec::new();
    for dev in [DeviceSpec::v100(), DeviceSpec::rtx2070()] {
        for (layer, n) in eval_grid() {
            grid.push((Conv::new(layer.problem(n), dev.clone()), layer, n));
        }
    }
    let points: Vec<Point> = grid
        .iter()
        .flat_map(|(conv, _, _)| {
            [Model::OneWave, Model::Device].map(|model| Point {
                conv: conv.clone(),
                target: Target::fused(conv.ours_config(), model),
                config: Vec::new(),
            })
        })
        .collect();
    let timings = report.measure(&points);
    let mut t = Table::new(&[
        "device",
        "layer",
        "N",
        "blocks",
        "busy SMs",
        "waves",
        "tail",
        "one-wave us",
        "device us",
        "corr %",
    ]);

    let mut overcharged = 0usize;
    let mut undercharged = 0usize;
    for ((conv, layer, n), pair) in grid.iter().zip(timings.chunks(2)) {
        let dev = &conv.device;
        let kernel = |i: usize| pair[i].kernel.as_ref().expect("fused kernel simulates");
        let (ow, dv) = (kernel(0), kernel(1));
        let full_wave = dv.blocks_per_sm as u64 * dev.num_sms as u64;
        let partial = dv.total_blocks % full_wave != 0;
        let corr_pct = 100.0 * (ow.time_s - dv.time_s) / ow.time_s;

        // Sanity, not direction: the divergence is signed (see the
        // module doc), but the two models must stay in the same world.
        assert!(
            dv.time_s > 0.0 && ow.time_s > 0.0,
            "{}/{}: non-positive kernel time",
            layer.name,
            n
        );
        assert!(
            dv.time_s < 4.0 * ow.time_s && ow.time_s < 4.0 * dv.time_s,
            "{}/{}: models diverge beyond sanity (one-wave {:.3e}s, device {:.3e}s)",
            layer.name,
            n,
            ow.time_s,
            dv.time_s
        );
        if corr_pct > 0.0 {
            overcharged += 1;
        } else if corr_pct < 0.0 {
            undercharged += 1;
        }

        t.row(vec![
            dev.name.to_string(),
            layer.name.to_string(),
            n.to_string(),
            dv.total_blocks.to_string(),
            dv.busy_sms.to_string(),
            dv.waves.to_string(),
            if partial { "partial" } else { "full" }.to_string(),
            format!("{:.2}", ow.time_s * 1e6),
            format!("{:.2}", dv.time_s * 1e6),
            format!("{:.2}", corr_pct),
        ]);
        report.add(
            dev.name,
            &[("layer", layer.name.into()), ("n", (*n).into())],
            &[
                ("total_blocks", dv.total_blocks.into()),
                ("blocks_per_sm", dv.blocks_per_sm.into()),
                ("busy_sms", dv.busy_sms.into()),
                ("waves", dv.waves.into()),
                ("partial_tail", partial.into()),
                ("one_wave_us", (ow.time_s * 1e6).into()),
                ("device_us", (dv.time_s * 1e6).into()),
                ("correction_pct", corr_pct.into()),
            ],
        );
    }
    t.print();
    println!(
        "\n{overcharged} points overcharged by the one-wave model (corr > 0), \
         {undercharged} undercharged (corr < 0)"
    );
    report.finish();
}
