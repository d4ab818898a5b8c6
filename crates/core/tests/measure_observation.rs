//! Observation never changes a measurement. On the small problem the
//! `conv.rs` unit tests use, for every simulated algorithm:
//!
//! * a measurement with any `Observe` set (counters, profile, trace) is
//!   bit-identical in `time_s`, the dominant kernel's timing and every
//!   phase to the plain one — and `Conv::key` cannot tell them apart, since
//!   it never receives the observe set;
//! * a traced fused measurement equals the plain device-exact one;
//! * the profiled fused measurement carries the emitter's region names.

use gpusim::DeviceSpec;
use kernels::FusedKernel;
use wino_core::{Algo, AlgoTiming, Conv, ConvProblem, Model, Observe, Target};

const SIMULATED: [Algo; 6] = [
    Algo::OursFused,
    Algo::CudnnWinograd,
    Algo::Gemm,
    Algo::ImplicitGemm,
    Algo::ImplicitPrecompGemm,
    Algo::WinogradNonfused,
];

fn conv() -> Conv {
    Conv::new(ConvProblem::resnet3x3(32, 8, 8, 64), DeviceSpec::v100())
}

/// Everything a measurement reports except the observation artifacts,
/// rendered exactly (`f64` Debug output round-trips).
fn numbers(t: &AlgoTiming) -> String {
    let mut t = t.clone();
    if let Some(k) = t.kernel.as_mut() {
        k.profile = None;
        k.counters = None;
    }
    t.trace = None;
    format!("{t:?}")
}

fn observe_sets() -> Vec<Observe> {
    let mut v = Vec::new();
    for bits in 1..8u8 {
        v.push(Observe {
            profile: bits & 1 != 0,
            counters: bits & 2 != 0,
            trace: bits & 4 != 0,
        });
    }
    v
}

#[test]
fn observation_changes_no_number_and_no_key() {
    let conv = conv();
    for algo in SIMULATED {
        let target = Target::algo(algo);
        let key = conv.key(target).hex();
        let plain = conv.measure(target, Observe::default());
        assert!(plain.kernel.is_some(), "{algo:?} simulates a kernel");
        for observe in observe_sets() {
            let seen = conv.measure(target, observe);
            assert_eq!(
                numbers(&plain),
                numbers(&seen),
                "{algo:?} under {observe:?} moved a number"
            );
            assert_eq!(plain.time_s.to_bits(), seen.time_s.to_bits(), "{algo:?}");
            let k = seen.kernel.as_ref().unwrap();
            assert_eq!(plain.kernel.as_ref().unwrap().wave_cycles, k.wave_cycles);
            assert_eq!(k.profile.is_some(), observe.profile, "{algo:?}");
            assert_eq!(k.counters.is_some(), observe.counters, "{algo:?}");
            assert_eq!(seen.trace.is_some(), observe.trace, "{algo:?}");
            assert_eq!(conv.key(target).hex(), key, "{algo:?}");
        }
    }
}

#[test]
fn traced_fused_equals_plain_device_exact() {
    let conv = conv();
    for cfg in [conv.ours_config(), conv.cudnn_config()] {
        let target = Target::fused(cfg, Model::DeviceExact);
        let plain = conv.measure(target, Observe::default());
        let traced = conv.measure(
            target,
            Observe {
                trace: true,
                ..Default::default()
            },
        );
        assert_eq!(numbers(&plain), numbers(&traced));
        let trace = traced.trace.expect("trace requested");
        assert!(!trace.spans.is_empty() && trace.makespan_cycles > 0);
    }
}

#[test]
fn profiled_fused_carries_emitter_regions() {
    let conv = conv();
    let profile = Observe {
        profile: true,
        ..Default::default()
    };
    for (algo, cfg) in [
        (Algo::OursFused, conv.ours_config()),
        (Algo::CudnnWinograd, conv.cudnn_config()),
    ] {
        let want: Vec<String> = FusedKernel::emit(cfg)
            .regions
            .iter()
            .map(|r| r.name.clone())
            .collect();
        assert!(want.iter().any(|n| n == "main_loop"), "{want:?}");
        let t = conv.measure(Target::algo(algo), profile);
        let prof = t.kernel.and_then(|k| k.profile).expect("profile requested");
        let got: Vec<String> = prof.regions.iter().map(|r| r.name.clone()).collect();
        assert_eq!(got, want, "{algo:?}");
    }
}
