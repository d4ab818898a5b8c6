//! Reproduce the §6.1 yield-flag experiment on a single layer: the same
//! main loop, scheduled with cuDNN's, NVCC's and the paper's "Natural"
//! yield strategies (a miniature of Figure 7).
//!
//! ```sh
//! cargo run --release --example yield_tuning
//! ```

use winograd_gpu::gpusim::DeviceSpec;
use winograd_gpu::kernels::YieldStrategy;
use winograd_gpu::wino_core::{Conv, ConvProblem, Observe, Target};

pub fn main() {
    // Conv3N64 on the RTX 2070, like the paper's SASS experiments (§6).
    let problem = ConvProblem::resnet3x3(64, 128, 28, 128);
    let conv = Conv::new(problem, DeviceSpec::rtx2070());

    println!("main-loop throughput by yield strategy (simulated RTX 2070, Conv3N64)\n");
    let mut results = Vec::new();
    for (name, strat) in [
        ("cuDNN (clear every 7)", YieldStrategy::Cudnn),
        ("NVCC (clear every 8)", YieldStrategy::Nvcc),
        ("Natural (never clear)", YieldStrategy::Natural),
    ] {
        let mut cfg = conv.ours_config();
        cfg.yield_strategy = strat;
        let observe = Observe {
            profile: true,
            ..Observe::default()
        };
        let timing = conv.measure(Target::mainloop(cfg), observe);
        let timing = timing.kernel.expect("main loop simulates");
        let tflops = timing.region_tflops(&conv.device, cfg.mainloop_flops_per_block());
        let profile = timing.profile.expect("profile requested");
        let recovery: u64 = profile.lines.iter().map(|l| l.stalls.yield_switch).sum();
        println!(
            "  {:<24} {:>6.2} TFLOPS   (scheduler slots lost to switch recovery per wave: {})",
            name, tflops, recovery
        );
        results.push(tflops);
    }
    println!(
        "\nNatural vs cuDNN strategy: {:.2}x   (paper §6.1: ~1.11x)",
        results[2] / results[0]
    );
    println!(
        "Natural vs NVCC strategy:  {:.2}x   (paper §6.1: ~1.09x)",
        results[2] / results[1]
    );
}
