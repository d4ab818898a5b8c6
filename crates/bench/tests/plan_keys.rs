//! Key honesty for plans: a plan record may change only if its key changes.
//!
//! A plan key ([`Planner::plan_key_with`]) is a content address of what the
//! build measures — every probe's `Conv::key`, the stored schedule records —
//! plus `PLAN_FORMAT_VERSION` for what the planner computes from them, which
//! no content key can see. This test pins one `(plan key, record digest)`
//! pair per device and smoke class, built through [`Planner::acquire`] over
//! an empty store at the smoke batch sizes with tuning off (the anneal path
//! is pinned by `BENCH_serve.json`).
//!
//! A line whose record changed under an unchanged key fails with a message
//! to bump `PLAN_FORMAT_VERSION`. A line whose key moved fails as a stale
//! golden: after checking that the move is intended, regenerate with the
//! switch `core/tests/key_honesty.rs` uses for `Conv::key`:
//!
//! ```sh
//! CONV_KEY_GOLDEN_REGEN=1 cargo test -p bench --test plan_keys
//! ```

use gpusim::{DeviceSpec, Digest};
use serve::{MemStorage, PlanCache, Planner, ShapeClass};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/plan_keys.txt");

/// `(label, plan key, digest of the rendered plan record)` per device and
/// smoke class.
fn points() -> Vec<(String, String, String)> {
    let mut v = Vec::new();
    for dev in [DeviceSpec::v100(), DeviceSpec::rtx2070()] {
        let planner = Planner::new(dev.clone(), vec![32, 64]);
        let mem = MemStorage::new();
        let mut cache = PlanCache::new(&mem, dev.name, 0);
        for class in ShapeClass::smoke_mix() {
            let (plan, hit) = planner.acquire(&mut cache, &class);
            assert!(!hit, "an empty store served {}", class.name);
            let key = cache.keys().last().expect("the plan was stored").clone();
            let mut d = Digest::new();
            d.str(&plan.to_json().render());
            v.push((format!("{}/{}", dev.name, class.name), key, d.hex()));
        }
    }
    v
}

#[test]
fn plan_records_change_only_with_their_keys() {
    let got = points();
    let text: String = got
        .iter()
        .map(|(label, key, record)| format!("{label} key={key} record={record}\n"))
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
            let record = f.next().and_then(|s| s.strip_prefix("record=")).unwrap();
            (label, key, record)
        })
        .collect();
    let mut errors = Vec::new();
    for (label, key, record) in &got {
        match want.iter().find(|(l, _, _)| l == label) {
            None => errors.push(format!("{label}: not in the golden; regenerate it")),
            Some((_, k, r)) if k == key && r != record => errors.push(format!(
                "{label}: the plan record changed ({r} -> {record}) under the unchanged key \
                 {key}; bump PLAN_FORMAT_VERSION (serve::plan) for a change in what the \
                 planner computes, or add the input the key misses"
            )),
            Some((_, k, _)) if k != key => errors.push(format!(
                "{label}: key moved ({k} -> {key}); if intended, regenerate the golden"
            )),
            Some(_) => {}
        }
    }
    for (label, _, _) in &want {
        if !got.iter().any(|(l, _, _)| l == label) {
            errors.push(format!("{label}: in the golden but no longer planned"));
        }
    }
    assert!(errors.is_empty(), "\n{}", errors.join("\n"));
}
