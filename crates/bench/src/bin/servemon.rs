//! `servemon` — replay a `serve --events` flight-recorder log into a
//! terminal operations summary.
//!
//! ```text
//! servemon --log PATH [--window-ms W] [--top N] [--slo-target F] [--smoke]
//! ```
//!
//! The log is the JSON-lines stream the `serve` binary writes with
//! `--events`: one object per lifecycle event, context-tagged with `device`
//! and `phase`. `servemon` groups lines by `(device, phase)` in first-seen
//! order and prints, per group:
//!
//! * a one-line headline (requests / completed / misses / batches and the
//!   nearest-rank p50 / p99 / p99.9 latency recomputed from the raw
//!   per-request completions — no histogram approximation);
//! * the SLO **burn-rate table**: fixed `--window-ms` windows over
//!   completion time, each with its miss count split by attributed cause
//!   (queueing vs service vs plan-build) and the burn rate against
//!   `--slo-target` (default 0.999: miss fraction over the window divided
//!   by the 0.1% error budget — above 1.0 the budget is burning);
//! * the top `--top` **starved classes** ranked by p99 arrival-to-dispatch
//!   wait, with their worst observed queue-depth gauge reading;
//! * the **drift report**: every mix-drift event (observed per-class
//!   arrival-rate EWMA leaving the band around the plan's probe-time
//!   assumption), or a one-line all-clear.
//!
//! `--smoke` additionally asserts the stream's internal consistency —
//! timestamps sorted, every arrival enqueued, every completion preceded by
//! its batch dispatch, gauge `queued` equal to the sum of per-class depths,
//! no event later than the group's last completion — and prints
//! `[servemon] smoke OK`; CI replays the smoke-run log through this to keep
//! the writer and the reader honest against each other.

use bench::json::{parse, Json};
use bench::report::{check_args, flag_value};
use bench::Table;
use std::collections::{HashMap, HashSet};

struct Args {
    log: String,
    window_ns: u64,
    top: usize,
    slo_target: f64,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().collect();
    let f = |flag: &str, dflt: f64| -> Result<f64, String> {
        flag_value(&args, flag).map_or(Ok(dflt), |v| v.parse().map_err(|e| format!("{flag}: {e}")))
    };
    // A NaN or sub-nanosecond window would cast to 0 ns.
    let window_ns = f("--window-ms", 100.0)? * 1e6;
    if window_ns.is_nan() || window_ns < 1.0 {
        return Err("--window-ms must be at least 1e-6 (1 ns)".into());
    }
    Ok(Args {
        log: flag_value(&args, "--log").ok_or("--log PATH is required")?,
        window_ns: window_ns as u64,
        top: f("--top", 5.0)? as usize,
        slo_target: f("--slo-target", 0.999)?,
        smoke: args.iter().any(|a| a == "--smoke"),
    })
}

/// One parsed event line (only the fields the summary needs).
struct Line {
    t: u64,
    kind: String,
    v: Json,
}

/// All events of one `(device, phase)` context, in log order.
struct Group {
    device: String,
    phase: String,
    lines: Vec<Line>,
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn nat(v: &Json, key: &str) -> u64 {
    num(v, key) as u64
}

fn text<'j>(v: &'j Json, key: &str) -> &'j str {
    v.get(key).and_then(Json::as_str).unwrap_or("?")
}

/// Nearest-rank percentile over an ascending slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn main() {
    check_args(
        "servemon",
        &[&[
            "--log PATH",
            "--window-ms MS",
            "--top N",
            "--slo-target F",
            "--smoke",
        ]],
    );
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: servemon --log PATH [--window-ms W] [--top N] [--slo-target F] [--smoke]"
            );
            std::process::exit(2);
        }
    };
    assert!(
        args.slo_target > 0.0 && args.slo_target < 1.0,
        "--slo-target must be in (0, 1)"
    );
    let raw = std::fs::read_to_string(&args.log)
        .unwrap_or_else(|e| panic!("failed to read --log {}: {e}", args.log));

    let mut groups: Vec<Group> = Vec::new();
    for (lineno, line) in raw.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse(line).unwrap_or_else(|e| panic!("line {}: bad JSON: {e}", lineno + 1));
        let (device, phase) = (
            text(&v, "device").to_string(),
            text(&v, "phase").to_string(),
        );
        let g = match groups
            .iter_mut()
            .find(|g| g.device == device && g.phase == phase)
        {
            Some(g) => g,
            None => {
                groups.push(Group {
                    device,
                    phase,
                    lines: Vec::new(),
                });
                groups.last_mut().unwrap()
            }
        };
        g.lines.push(Line {
            t: nat(&v, "t"),
            kind: text(&v, "kind").to_string(),
            v,
        });
    }
    println!(
        "replayed {} events, {} contexts from {}",
        groups.iter().map(|g| g.lines.len()).sum::<usize>(),
        groups.len(),
        args.log
    );

    for g in &groups {
        summarize(g, &args);
    }
    if args.smoke {
        assert!(
            !groups.is_empty(),
            "smoke log must hold at least one context"
        );
        eprintln!("[servemon] smoke OK");
    }
}

fn summarize(g: &Group, args: &Args) {
    let mut arrivals = 0u64;
    let mut enqueued: HashSet<u64> = HashSet::new();
    let mut dispatched_batches: HashSet<u64> = HashSet::new();
    let mut batches = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    // Per class: completion count, waits, misses.
    let mut class_waits: HashMap<String, Vec<u64>> = HashMap::new();
    let mut worst_depth: HashMap<usize, u32> = HashMap::new();
    let mut class_order: Vec<String> = Vec::new();
    // (complete_t, miss, cause)
    let mut completions: Vec<(u64, bool, String)> = Vec::new();
    let mut drift: Vec<&Json> = Vec::new();
    let mut prev_t = 0u64;

    for l in &g.lines {
        if args.smoke {
            assert!(l.t >= prev_t, "{}/{}: timestamps sorted", g.device, g.phase);
        }
        prev_t = l.t;
        match l.kind.as_str() {
            "arrival" => arrivals += 1,
            "enqueue" => {
                enqueued.insert(nat(&l.v, "id"));
            }
            "dispatch" => {
                batches += 1;
                dispatched_batches.insert(nat(&l.v, "batch"));
            }
            "complete" => {
                let class = text(&l.v, "class").to_string();
                if !class_order.contains(&class) {
                    class_order.push(class.clone());
                }
                latencies.push(nat(&l.v, "latency_ns"));
                class_waits
                    .entry(class)
                    .or_default()
                    .push(nat(&l.v, "wait_ns"));
                let miss = l.v.get("miss") == Some(&Json::Bool(true));
                completions.push((l.t, miss, text(&l.v, "cause").to_string()));
                if args.smoke {
                    assert!(
                        enqueued.contains(&nat(&l.v, "id")),
                        "{}/{}: completion without enqueue",
                        g.device,
                        g.phase
                    );
                    assert!(
                        dispatched_batches.contains(&nat(&l.v, "batch")),
                        "{}/{}: completion without dispatch",
                        g.device,
                        g.phase
                    );
                }
            }
            "gauge" => {
                let depths = l.v.get("depths").and_then(Json::as_arr).unwrap_or(&[]);
                for (c, d) in depths.iter().enumerate() {
                    let d = d.as_f64().unwrap_or(0.0) as u32;
                    let w = worst_depth.entry(c).or_insert(0);
                    *w = (*w).max(d);
                }
                if args.smoke {
                    let sum: f64 = depths.iter().filter_map(Json::as_f64).sum();
                    assert_eq!(
                        sum as u64,
                        nat(&l.v, "queued"),
                        "{}/{}: gauge queued reconciles",
                        g.device,
                        g.phase
                    );
                }
            }
            "drift" => drift.push(&l.v),
            _ => {}
        }
    }
    if args.smoke {
        assert_eq!(
            arrivals,
            enqueued.len() as u64,
            "{}/{}: every arrival enqueued",
            g.device,
            g.phase
        );
        // Timestamps are sorted, so the last line is the latest event.
        assert_eq!(
            Some(prev_t),
            completions.last().map(|&(t, _, _)| t),
            "{}/{}: the stream ends at its last completion",
            g.device,
            g.phase
        );
    }

    latencies.sort_unstable();
    let completed = latencies.len() as u64;
    let missed = completions.iter().filter(|(_, m, _)| *m).count() as u64;
    println!("\n== {} ({}) ==", g.device, g.phase);
    println!(
        "requests {}  completed {}  missed {} ({:.2}%)  batches {}  p50 {:.1} us  p99 {:.1} us  p99.9 {:.1} us",
        arrivals,
        completed,
        missed,
        if completed > 0 {
            100.0 * missed as f64 / completed as f64
        } else {
            0.0
        },
        batches,
        us(percentile(&latencies, 50.0)),
        us(percentile(&latencies, 99.0)),
        us(percentile(&latencies, 99.9)),
    );

    // Burn-rate table over fixed windows of completion time.
    let budget = 1.0 - args.slo_target;
    let mut windows: Vec<(u64, u64, [u64; 3])> = Vec::new(); // (completed, missed, causes)
    for &(t, miss, ref cause) in &completions {
        let w = (t / args.window_ns) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, (0, 0, [0; 3]));
        }
        windows[w].0 += 1;
        if miss {
            windows[w].1 += 1;
            let ci = match cause.as_str() {
                "queueing" => 0,
                "service" => 1,
                _ => 2,
            };
            windows[w].2[ci] += 1;
        }
    }
    println!(
        "burn rate (window {:.0} ms, objective {:.3}%):",
        ms(args.window_ns),
        100.0 * args.slo_target
    );
    let mut t = Table::new(&[
        "window ms",
        "completed",
        "missed",
        "burn",
        "queueing",
        "service",
        "plan_build",
    ]);
    for (w, &(c, m, causes)) in windows.iter().enumerate() {
        let burn = if c > 0 {
            (m as f64 / c as f64) / budget
        } else {
            0.0
        };
        t.row(vec![
            format!("{:.0}", ms(w as u64 * args.window_ns)),
            c.to_string(),
            m.to_string(),
            format!("{burn:.2}"),
            causes[0].to_string(),
            causes[1].to_string(),
            causes[2].to_string(),
        ]);
    }
    t.print();

    // Starvation: classes ranked by p99 arrival-to-dispatch wait.
    let mut ranked: Vec<(&String, u64, u64, usize)> = class_order
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut waits = class_waits[name].clone();
            waits.sort_unstable();
            let p99 = percentile(&waits, 99.0);
            let max = waits.last().copied().unwrap_or(0);
            (name, p99, max, i)
        })
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!(
        "top {} starved classes (p99 wait):",
        args.top.min(ranked.len())
    );
    let mut t = Table::new(&[
        "class",
        "completed",
        "p99 wait us",
        "max wait us",
        "peak depth",
    ]);
    for &(name, p99, max, i) in ranked.iter().take(args.top) {
        t.row(vec![
            name.clone(),
            class_waits[name].len().to_string(),
            format!("{:.1}", us(p99)),
            format!("{:.1}", us(max)),
            worst_depth.get(&i).copied().unwrap_or(0).to_string(),
        ]);
    }
    t.print();

    if drift.is_empty() {
        println!("drift: none (observed mix stayed within the plan's assumed band)");
    } else {
        println!("drift events:");
        for d in &drift {
            println!(
                "  t {:.1} ms  {}  observed {:.0} rps vs assumed {:.0} rps (ratio {:.2}) {}",
                ms(nat(d, "t")),
                text(d, "class"),
                num(d, "observed_rps"),
                num(d, "assumed_rps"),
                num(d, "ratio"),
                if d.get("drifted") == Some(&Json::Bool(true)) {
                    "LEFT BAND"
                } else {
                    "returned"
                }
            );
        }
    }
}
