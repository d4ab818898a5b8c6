//! Key honesty: a result may change only if its key changes.
//!
//! The sweep cache (`bench::simcache`) serves a stored result whenever the
//! [`Conv::key`] of a point matches, so a key that misses an input the
//! result depends on silently serves stale numbers. This test pins one
//! `(key, result digest)` pair per `Conv` point family in a committed
//! golden file:
//!
//! * `time/<ALGO>` — [`Conv::time`] of every algorithm, FFT included;
//! * `counted/<ALGO>` — the same measurement with counters on, as a
//!   `--metrics` run caches it: under the key of `time/<ALGO>`, with the
//!   counters inside the result, so the counters are pinned too;
//! * `mainloop`, `fused/one-wave`, `fused/device` — the single-kernel
//!   targets of Figures 7–9 and the `multiwave` cross-check.
//!
//! The unprefixed lines use a V100 problem whose OURS kernel is one wave
//! that, on the device model, hits no cache. The `rtx2070/` lines repeat
//! `time`, `counted/OURS` and `fused` on a problem whose OURS kernel makes
//! L1 and L2 sector hits and ends in a partial wave, so those model paths
//! are under the test too (`wide_problem_reaches_the_caches_and_a_partial_wave`
//! keeps it so).
//!
//! A line whose result changed under an unchanged key fails with the
//! dishonest-key message. A line whose key moved fails as a stale golden:
//! after checking that the move is intended, regenerate with
//!
//! ```sh
//! CONV_KEY_GOLDEN_REGEN=1 cargo test -p wino-core --test key_honesty
//! ```

use gpusim::{DeviceSpec, Digest};
use wino_core::{Algo, AlgoTiming, Conv, ConvProblem, Model, Observe, Target};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/conv_keys.txt");

fn digest_of(text: &str) -> String {
    let mut d = Digest::new();
    d.str(text);
    d.hex()
}

/// The problem of the `rtx2070/` lines: OURS runs 64 blocks at one block
/// per SM on 36 SMs, through the L1 and the L2.
fn wide() -> Conv {
    Conv::new(ConvProblem::resnet3x3(32, 8, 16, 64), DeviceSpec::rtx2070())
}

/// `(label, key, result digest)` for every point family.
fn points() -> Vec<(String, String, String)> {
    let line = |conv: &Conv, label: String, target: Target, observe: Observe| {
        let t: AlgoTiming = conv.measure(target, observe);
        (label, conv.key(target).hex(), digest_of(&format!("{t:?}")))
    };
    let conv = Conv::new(ConvProblem::resnet3x3(32, 8, 8, 64), DeviceSpec::v100());
    let mut v = Vec::new();
    for algo in Algo::ALL {
        let label = format!("time/{}", algo.name());
        v.push(line(&conv, label, Target::algo(algo), Observe::default()));
    }
    for algo in [Algo::OursFused, Algo::ImplicitPrecompGemm] {
        let label = format!("counted/{}", algo.name());
        v.push(line(&conv, label, Target::algo(algo), Observe::COUNTERS));
    }
    let cfg = conv.ours_config();
    let mainloop = Target::mainloop(cfg);
    v.push(line(&conv, "mainloop".into(), mainloop, Observe::default()));
    for model in [Model::OneWave, Model::Device] {
        let label = format!("fused/{model:?}");
        let target = Target::fused(cfg, model);
        v.push(line(&conv, label, target, Observe::default()));
    }

    let wide = wide();
    for algo in Algo::ALL {
        let label = format!("rtx2070/time/{}", algo.name());
        v.push(line(&wide, label, Target::algo(algo), Observe::default()));
    }
    let ours = Target::algo(Algo::OursFused);
    v.push(line(
        &wide,
        "rtx2070/counted/OURS".into(),
        ours,
        Observe::COUNTERS,
    ));
    for model in [Model::OneWave, Model::Device] {
        let label = format!("rtx2070/fused/{model:?}");
        let target = Target::fused(wide.ours_config(), model);
        v.push(line(&wide, label, target, Observe::default()));
    }
    v
}

/// The `rtx2070/` lines cover what the V100 lines cannot: cache hits and a
/// partial last wave. If the problem or the model drifts so that they no
/// longer do, this fails before the golden quietly stops testing them.
#[test]
fn wide_problem_reaches_the_caches_and_a_partial_wave() {
    let conv = wide();
    let t = conv
        .time_counted(Algo::OursFused)
        .expect("OURS runs a kernel");
    let c = t.counters.as_ref().expect("counters requested");
    assert!(c.l1_sector_hits > 0, "no L1 sector hits");
    assert!(c.l2_sector_hits > 0, "no L2 sector hits");
    let full_wave = u64::from(t.blocks_per_sm) * u64::from(conv.device.num_sms);
    assert!(t.waves > 1, "one wave only");
    assert_ne!(t.total_blocks % full_wave, 0, "the last wave is full");
}

#[test]
fn results_change_only_with_their_keys() {
    let got = points();
    let text: String = got
        .iter()
        .map(|(label, key, result)| format!("{label} key={key} result={result}\n"))
        .collect();
    if std::env::var("CONV_KEY_GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN).parent().unwrap()).unwrap();
        std::fs::write(GOLDEN, &text).unwrap();
        eprintln!("regenerated {GOLDEN}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("missing golden file; run with CONV_KEY_GOLDEN_REGEN=1 to create it");
    let want: Vec<(&str, &str, &str)> = golden
        .lines()
        .map(|l| {
            let mut f = l.split(' ');
            let label = f.next().unwrap();
            let key = f.next().and_then(|s| s.strip_prefix("key=")).unwrap();
            let result = f.next().and_then(|s| s.strip_prefix("result=")).unwrap();
            (label, key, result)
        })
        .collect();
    let mut errors = Vec::new();
    for (label, key, result) in &got {
        match want.iter().find(|(l, _, _)| l == label) {
            None => errors.push(format!("{label}: not in the golden; regenerate it")),
            Some((_, k, r)) if k == key && r != result => errors.push(format!(
                "{label}: DISHONEST KEY — the result changed ({r} -> {result}) under the \
                 unchanged key {key}; the key misses an input the result depends on"
            )),
            Some((_, k, _)) if k != key => errors.push(format!(
                "{label}: key moved ({k} -> {key}); if intended, regenerate the golden"
            )),
            Some(_) => {}
        }
    }
    for (label, _, _) in &want {
        if !got.iter().any(|(l, _, _)| l == label) {
            errors.push(format!("{label}: in the golden but no longer measured"));
        }
    }
    assert!(errors.is_empty(), "\n{}", errors.join("\n"));
}
