//! Cache-correctness regression tests for the sweep engine: real simulator
//! timings driven through `bench::sweep` + `bench::simcache`, pinning the
//! properties the experiment binaries rely on —
//!
//! * determinism (selfcheck: every point evaluated twice yields identical
//!   JSON);
//! * a warm rerun hits every point and reproduces the cold run bit-for-bit;
//! * changing one kernel's program invalidates exactly that point;
//! * `KernelTiming` survives the JSON round trip (store → load → equal),
//!   with or without its hardware counters.

use bench::json::obj;
use bench::simcache::{timing_from_json, timing_to_json, CacheKey, Store};
use bench::sweep::{Sweep, SweepOptions};
use gpusim::{DeviceSpec, Gpu, KernelTiming, LaunchDims, Model, ParamBuilder, TimingOptions};
use sass::assemble;

const K1: &str = "MOV R0, 0x1;\nEXIT;";
const K2: &str = "MOV R0, 0x2;\nEXIT;";
const K3: &str = "MOV R0, 0x3;\nEXIT;";

fn tmpdir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("sweep-cache-{}-{}", tag, std::process::id()))
}

fn opts(dir: &std::path::Path, selfcheck: bool) -> SweepOptions {
    SweepOptions {
        jobs: 2,
        cache: true,
        cache_dir: dir.into(),
        selfcheck,
        quiet: true,
    }
}

/// Register a real cycle-simulator timing of `src`, content-addressed the
/// same way the experiment binaries do it.
fn sim_point(sw: &mut Sweep, src: &'static str) {
    let dev = DeviceSpec::rtx2070();
    let module = assemble(src).unwrap();
    let dims = LaunchDims::linear(2, 32);
    let (model, opts) = (Model::OneWave, TimingOptions::default());
    let key = CacheKey::from_digest(&gpusim::key(&dev, &module, dims, &[], model, opts));
    sw.point(key, move || {
        let mut gpu = Gpu::new(dev.clone(), 1 << 20);
        let (t, _) =
            gpusim::simulate(&mut gpu, &module, dims, &[], model, opts).expect("test kernel times");
        timing_to_json(&t)
    });
}

#[test]
fn warm_rerun_hits_everything_and_matches_cold_bit_for_bit() {
    let dir = tmpdir("warm");
    std::fs::remove_dir_all(&dir).ok();
    let run = |selfcheck| {
        let mut sw = Sweep::new("it-warm", opts(&dir, selfcheck));
        for src in [K1, K2, K3] {
            sim_point(&mut sw, src);
        }
        sw.run()
    };
    // Cold, with the determinism audit on: every miss is evaluated twice
    // and must produce identical JSON.
    let cold = run(true);
    assert_eq!((cold.hits, cold.misses), (0, 3));
    let warm = run(false);
    assert_eq!((warm.hits, warm.misses), (3, 0));
    for (c, w) in cold.results.iter().zip(&warm.results) {
        assert_eq!(c.render(), w.render());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn changing_one_kernel_invalidates_only_that_point() {
    let dir = tmpdir("invalidate");
    std::fs::remove_dir_all(&dir).ok();
    let run = |srcs: [&'static str; 3]| {
        let mut sw = Sweep::new("it-inv", opts(&dir, false));
        for src in srcs {
            sim_point(&mut sw, src);
        }
        sw.run()
    };
    let first = run([K1, K2, K3]);
    assert_eq!((first.hits, first.misses), (0, 3));
    // One program changed: exactly that point re-simulates.
    let second = run([K1, "MOV R0, 0x7;\nEXIT;", K3]);
    assert_eq!((second.hits, second.misses), (2, 1));
    std::fs::remove_dir_all(&dir).ok();
}

/// A kernel that reaches every counter family: global loads and stores,
/// shared memory, the FP32 pipe.
const MIXED: &str = r#"
.kernel mixed
.params 16
.smem 1024
    --:-:-:Y:1  S2R R0, SR_TID.X;
    --:-:-:Y:1  S2R R1, SR_CTAID.X;
    --:-:-:Y:6  MOV R10, c[0x0][0x160];
    --:-:-:Y:6  MOV R11, c[0x0][0x164];
    --:-:-:Y:6  IMAD R2, R1, 0x20, R0;
    --:-:-:Y:6  IMAD.WIDE.U32 R2, R2, 0x4, R10;
    --:-:-:Y:6  IMAD R6, R0, 0x4, RZ;
    --:-:0:-:2  LDG.E R4, [R2];
    01:-:-:Y:2  STS [R6], R4;
    --:-:1:-:2  LDS R5, [R6];
    02:-:-:Y:4  FFMA R5, R5, R5, R4;
    --:-:-:Y:2  STG.E [R2], R5;
    --:-:-:Y:5  EXIT;
"#;

#[test]
fn kernel_timing_survives_json_round_trip() {
    let dev = DeviceSpec::v100();
    let module = assemble(MIXED).unwrap();
    let time = |counters: bool| {
        let mut gpu = Gpu::new(dev.clone(), 1 << 20);
        let buf = gpu.alloc(1 << 16);
        let params = ParamBuilder::new().push_ptr(buf).build();
        let opts = TimingOptions {
            counters,
            ..TimingOptions::default()
        };
        let dims = LaunchDims::linear(3 * dev.num_sms, 32);
        gpusim::simulate(&mut gpu, &module, dims, &params, Model::Device, opts)
            .expect("test kernel times")
            .0
    };

    let t = time(false);
    let j = timing_to_json(&t);
    assert!(
        j.get("counters").is_none(),
        "a plain record has no counters"
    );
    let back = timing_from_json(&j).expect("timing record parses back");
    assert_eq!(j.render(), timing_to_json(&back).render());
    assert_eq!(t.time_s, back.time_s);
    assert_eq!(t.wave_cycles, back.wave_cycles);
    assert_eq!(t.smem_conflict_cycles, back.smem_conflict_cycles);
    assert!(back.profile.is_none());
    assert!(back.counters.is_none());

    // A counted record round-trips byte for byte, and so do its counters,
    // merged over SMs; without them it is the plain record.
    let counted = time(true);
    let j = timing_to_json(&counted);
    let back = timing_from_json(&j).expect("counted record parses back");
    assert_eq!(j.render(), timing_to_json(&back).render());
    let c = back.counters.clone().expect("counters restored");
    assert_eq!(Some(&c), counted.counters.as_ref());
    c.validate().unwrap();
    assert!(c.global_sectors > 0 && c.smem_accesses > 0 && c.fp_issues > 0);
    let uncounted = KernelTiming {
        counters: None,
        ..back
    };
    assert_eq!(
        timing_to_json(&uncounted).render(),
        timing_to_json(&t).render()
    );
}

#[test]
fn store_load_round_trips_awkward_floats_exactly() {
    // store → load goes through render + parse; the JSON layer guarantees
    // exact f64 round trips, so a cache hit is bit-identical to a miss.
    let dir = tmpdir("floats");
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::new(&dir);
    let key = CacheKey::new("f00d".into());
    let v = obj(&[
        ("tenth", 0.1f64.into()),
        ("third", (1.0f64 / 3.0).into()),
        ("tiny", 4.9e-324f64.into()),
        ("neg", (-0.0f64).into()),
    ]);
    store.store(&key, &v);
    assert_eq!(store.load(&key), Some(v));
    std::fs::remove_dir_all(&dir).ok();
}
