//! Sweep all 3×3 ResNet layers (the paper's Table 1 workload) on both
//! simulated devices, reporting our kernel against the cuDNN-like baseline —
//! a miniature of the paper's headline evaluation.
//!
//! ```sh
//! cargo run --release --example resnet_sweep
//! ```

use winograd_gpu::gpusim::DeviceSpec;
use winograd_gpu::wino_core::resnet::RESNET_LAYERS;
use winograd_gpu::wino_core::{Algo, Conv};

pub fn main() {
    let batch = 32;
    for dev in [DeviceSpec::rtx2070(), DeviceSpec::v100()] {
        println!(
            "== {} (peak {:.1} TFLOPS fp32) ==",
            dev.name,
            dev.peak_fp32_flops() / 1e12
        );
        println!(
            "{:<10} {:>12} {:>12} {:>9} {:>14}",
            "layer", "ours (us)", "cuDNN (us)", "speedup", "main-loop SOL%"
        );
        for layer in RESNET_LAYERS {
            let conv = Conv::new(layer.problem(batch), dev.clone());
            let ours = conv.time(Algo::OursFused);
            let cudnn = conv.time(Algo::CudnnWinograd);
            let sol = ours.kernel.as_ref().map(|k| k.sol_pct).unwrap_or(0.0);
            println!(
                "{:<10} {:>12.1} {:>12.1} {:>8.2}x {:>13.1}",
                layer.label(batch),
                ours.time_s * 1e6,
                cudnn.time_s * 1e6,
                cudnn.time_s / ours.time_s,
                sol
            );
        }
        println!();
    }
    println!("Paper reference (Table 6): RTX 2070 speedups 1.65x-2.65x, V100 1.23x-2.13x.");
}
