//! Plans, tuned schedules and simcache timings as records in the directory
//! store.
//!
//! * Warm path: records written through one `SimStore` come back from a
//!   fresh `SimStore` on the same directory. Every tracked output is the
//!   same whether a plan load hits or misses, so only a test like this
//!   catches a codec that turns every load into a miss.
//! * Strict decoding: every corruption of a record — a field dropped or
//!   retyped, an integer made negative, fractional or larger than 2^53, a
//!   float made `null`, a list emptied, the text truncated at any byte —
//!   reads as a miss, with no panic and no silently coerced value. That
//!   holds inside a counted timing's hardware counters too.
//! * Older records: a timing record that still carries fields
//!   `KernelTiming` has since dropped decodes to the same timing.

use std::path::{Path, PathBuf};

use bench::json::Json;
use bench::simcache::{timing_from_json, timing_to_json, CacheKey, SimStore, Store};
use gpusim::digest::module_hex;
use gpusim::{DeviceSpec, Gpu, KernelTiming, LaunchDims, Model, TimingOptions};
use kernels::search::Search;
use kernels::{FusedConfig, FusedKernel};
use sass::{assemble, Module};
use serve::plan::{Plan, PlanCache, PlanStorage, PlanVariant, TunedSchedule};
use serve::{MemStorage, ScheduleStore, StoredSchedule};

const PLAN_KEY: &str = "0123456789abcdef0123456789abcdef";

/// Number fields that hold floats; every other number in these records is
/// an integer counter.
const FLOATS: &[&str] = &[
    "break_even_k",
    "assumed_rps",
    "tflops",
    "time_s",
    "flops",
    "sol_pct",
    "sol_total_pct",
    "dram_time_s",
];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("store-records-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A small real module, so truncating its records at every byte is cheap.
fn tiny_module() -> Module {
    assemble("MOV R0, 0x1;\nEXIT;").expect("tiny kernel assembles")
}

fn schedule(module: &Module) -> StoredSchedule {
    StoredSchedule {
        params: "bk64-bn32-bc8-w64-p2".into(),
        schedule_digest: module_hex(module),
        cubin: module.to_cubin(),
        hand_cycles: 537_563,
        tuned_cycles: 524_042,
        evals: 1_234,
    }
}

/// A plan that replays `module` as its tuned schedule.
fn tuned_plan(module: &Module) -> Plan {
    let dev = DeviceSpec::v100();
    Plan {
        device: dev.name.into(),
        class: "Conv2".into(),
        bound: "smem".into(),
        break_even_k: perfmodel::break_even_k(&dev),
        variants: vec![
            PlanVariant {
                n: 32,
                algo: "OURS".into(),
                service_ns: 123_457,
                tflops: 7.3125,
            },
            PlanVariant {
                n: 64,
                algo: "WINOGRAD_NONFUSED".into(),
                service_ns: 222_223,
                tflops: 1.0 / 3.0,
            },
        ],
        build_cost_ns: 98_765_432,
        assumed_rps: 20_000.0 / 3.0,
        tuned: Some(TunedSchedule {
            n: 32,
            schedule_digest: module_hex(module),
            cubin: module.to_cubin(),
            hand_cycles: 537_563,
            tuned_cycles: 524_042,
            evals: 1_234,
            params: "bk64-bn32-bc8-w64-p2".into(),
            source: "store".into(),
        }),
    }
}

/// Every corruption of `j` (found under field `key`) that a strict decoder
/// must refuse, labelled: `j` replaced by a value of the wrong type, an
/// inexact integer or a `null` float, a list emptied, and recursively each
/// object field dropped or corrupted.
fn corruptions(j: &Json, key: &str) -> Vec<(String, Json)> {
    let replacements = match j {
        Json::Num(_) if FLOATS.contains(&key) => vec![Json::Null, "1".into()],
        Json::Num(_) => vec![
            Json::Null,
            "1".into(),
            Json::Num(-1.0),
            Json::Num(1.5),
            Json::Num(((1u64 << 53) + 2) as f64),
        ],
        Json::Str(_) if key == "cubin" => vec![Json::Num(1.0), "abc".into(), "zz".into()],
        Json::Str(_) => vec![Json::Null, Json::Num(1.0)],
        Json::Arr(_) => vec![Json::Arr(vec![]), "[]".into()],
        Json::Obj(_) => vec![Json::Arr(vec![]), "{}".into()],
        _ => vec![],
    };
    let mut out: Vec<(String, Json)> = replacements
        .into_iter()
        .map(|v| (format!("{key} = {}", v.render()), v))
        .collect();
    match j {
        Json::Obj(pairs) => {
            for (i, (k, v)) in pairs.iter().enumerate() {
                let mut dropped = pairs.clone();
                dropped.remove(i);
                out.push((format!("{k} dropped"), Json::Obj(dropped)));
                for (label, bad) in corruptions(v, k) {
                    let mut edited = pairs.clone();
                    edited[i].1 = bad;
                    out.push((label, Json::Obj(edited)));
                }
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                for (label, bad) in corruptions(v, key) {
                    let mut edited = items.clone();
                    edited[i] = bad;
                    out.push((format!("{key}[{i}]: {label}"), Json::Arr(edited)));
                }
            }
        }
        _ => {}
    }
    out
}

/// Write each proper prefix of `record`'s rendering as the file for `key`
/// in `dir`; `hit` must report a miss for every one.
fn assert_truncations_miss(dir: &Path, key: &str, record: &Json, mut hit: impl FnMut() -> bool) {
    let text = record.render();
    let path = dir.join(format!("{key}.json"));
    for end in 0..text.len() {
        std::fs::write(&path, &text.as_bytes()[..end]).expect("write a truncated record");
        assert!(!hit(), "truncated at byte {end} of {}", text.len());
    }
}

#[test]
fn records_survive_a_fresh_store_on_the_same_dir() {
    let dir = tmpdir("warm");
    let dev = DeviceSpec::v100();
    let hand = FusedKernel::emit(FusedConfig::ours(32, 8, 8, 32, 64));
    let search = Search::new(&dev, &hand);
    let (plan, sched) = (tuned_plan(&hand.module), schedule(&hand.module));
    {
        let store = SimStore(Store::new(&dir));
        PlanCache::new(&store, dev.name, 0).put(PLAN_KEY, &plan);
        ScheduleStore::new(&store).save(&search, &sched);
    }
    let fresh = SimStore(Store::new(&dir));
    let mut cache = PlanCache::new(&fresh, dev.name, 0);
    assert_eq!(cache.keys(), [PLAN_KEY], "the index lists the plan");
    let back = cache
        .get(PLAN_KEY)
        .expect("the plan loads from a fresh store");
    assert_eq!(back, plan);
    assert!(back.verify());
    assert_eq!((cache.stats.hits, cache.stats.misses), (1, 0));
    assert_eq!(ScheduleStore::new(&fresh).load(&search), Some(sched));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_plan_records_are_misses() {
    let plan = tuned_plan(&tiny_module());
    let record = plan.to_json();
    let mem = MemStorage::new();
    let mut cache = PlanCache::new(&mem, "V100", 0);
    // The intact record hits, so each miss below is the corruption's.
    mem.store(PLAN_KEY, &record);
    assert_eq!(cache.get(PLAN_KEY), Some(plan));
    let cases = corruptions(&record, "plan");
    assert!(cases.len() > 100, "{} corruptions", cases.len());
    for (label, bad) in cases {
        assert_eq!(Plan::from_json(&bad), None, "{label}");
        mem.store(PLAN_KEY, &bad);
        assert_eq!(cache.get(PLAN_KEY), None, "{label}");
        assert!(mem.load(PLAN_KEY).is_none(), "{label}: entry kept");
    }

    let dir = tmpdir("plan");
    let store = SimStore(Store::new(&dir));
    let mut cache = PlanCache::new(&store, "V100", 0);
    store.store(PLAN_KEY, &record);
    assert!(cache.get(PLAN_KEY).is_some());
    assert_truncations_miss(&dir, PLAN_KEY, &record, || cache.get(PLAN_KEY).is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_schedule_records_are_misses() {
    let hand = FusedKernel::emit(FusedConfig::ours(32, 8, 8, 32, 64));
    let search = Search::new(&DeviceSpec::v100(), &hand);
    let key = ScheduleStore::key(&search);
    let sched = schedule(&tiny_module());
    let record = sched.to_json();
    let mem = MemStorage::new();
    let store = ScheduleStore::new(&mem);
    mem.store(&key, &record);
    assert_eq!(store.load(&search), Some(sched));
    for (label, bad) in corruptions(&record, "schedule") {
        assert_eq!(StoredSchedule::from_json(&bad), None, "{label}");
        mem.store(&key, &bad);
        assert_eq!(store.load(&search), None, "{label}");
        assert!(mem.load(&key).is_none(), "{label}: entry kept");
    }

    let dir = tmpdir("schedule");
    let sim = SimStore(Store::new(&dir));
    let store = ScheduleStore::new(&sim);
    sim.store(&key, &record);
    assert!(store.load(&search).is_some());
    assert_truncations_miss(&dir, &key, &record, || store.load(&search).is_some());
    std::fs::remove_dir_all(&dir).ok();
}

/// The tiny module timed as a plain one-wave run and as a counted run on
/// the device model, whose counters are merged over SMs and fast-forwarded
/// waves.
fn plain_and_counted_timings() -> [KernelTiming; 2] {
    let dev = DeviceSpec::rtx2070();
    let module = tiny_module();
    let time = |blocks: u32, model: Model, counters: bool| {
        let opts = TimingOptions {
            counters,
            ..TimingOptions::default()
        };
        let mut gpu = Gpu::new(dev.clone(), 1 << 20);
        let dims = LaunchDims::linear(blocks, 32);
        let (t, _) =
            gpusim::simulate(&mut gpu, &module, dims, &[], model, opts).expect("kernel times");
        t
    };
    let counted = time(4 * dev.num_sms, Model::Device, true);
    assert!(counted.counters.is_some());
    [time(2, Model::OneWave, false), counted]
}

/// A plain and a counted timing record each read as a miss under every
/// corruption, inside `counters` too, and every truncation. Only dropping
/// `counters` whole leaves a valid record, the plain one of the same run.
#[test]
fn corrupt_timing_records_are_misses() {
    let dir = tmpdir("timing");
    let store = Store::new(&dir);
    let key = CacheKey::new(PLAN_KEY.into());
    for t in plain_and_counted_timings() {
        let record = timing_to_json(&t);
        let back = timing_from_json(&record).expect("the intact record decodes");
        assert_eq!(timing_to_json(&back), record);
        let uncounted = KernelTiming {
            counters: None,
            ..t.clone()
        };
        for (label, bad) in corruptions(&record, "timing") {
            if label == "counters dropped" {
                let back = timing_from_json(&bad).expect("a plain record decodes");
                assert_eq!(timing_to_json(&back), timing_to_json(&uncounted));
            } else {
                assert!(timing_from_json(&bad).is_none(), "{label}");
            }
        }

        store.store(&key, &record);
        let hit = || {
            store
                .load(&key)
                .as_ref()
                .and_then(timing_from_json)
                .is_some()
        };
        assert!(hit());
        assert_truncations_miss(&dir, PLAN_KEY, &record, hit);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Timing records written before `KernelTiming` dropped its issue
/// utilization, register-bank and warp-switch tallies and its idle
/// breakdown carry those four fields. Keys did not change, so a warm cache
/// keeps serving such records: each still decodes, to the timing the
/// trimmed record of the same run decodes to.
#[test]
fn timing_records_with_dropped_fields_still_decode() {
    for t in plain_and_counted_timings() {
        let record = timing_to_json(&t);
        let Json::Obj(mut fields) = record.clone() else {
            panic!("a timing record is an object")
        };
        // Where the older writer put them.
        let mut insert_after = |key: &str, field: &str, value: Json| {
            let at = fields.iter().position(|(k, _)| k == key).expect("field");
            fields.insert(at + 1, (field.into(), value));
        };
        insert_after("sol_total_pct", "issue_util_pct", Json::Num(37.5));
        insert_after("region_cycles", "reg_bank_conflict_cycles", 3u64.into());
        insert_after("smem_conflict_cycles", "yield_switch_cycles", 5u64.into());
        let idle = [1u64, 2, 0, 4, 9].map(Json::from).to_vec();
        insert_after("yield_switch_cycles", "idle_breakdown", Json::Arr(idle));
        let older = timing_from_json(&Json::Obj(fields)).expect("an older record decodes");
        let trimmed = timing_from_json(&record).expect("the trimmed record decodes");
        assert_eq!(format!("{older:?}"), format!("{trimmed:?}"));
    }
}
