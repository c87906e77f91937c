//! The repository benchmark: three workloads through the scheduler's public
//! API, end-to-end metrics from an untraced run and a per-layer split from a
//! traced one. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod alloc;
mod hysteresis;
mod offline;
mod periodic;
mod report;
mod serve;
mod stats;
mod trace;

use report::{json_line, object, Metric, Outcome};
use serde_json::Value;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Recorder;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

pub const WORKLOADS: [&str; 3] = ["offline-n300", "serve-hysteresis", "serve-periodic"];

/// The untraced result line's metrics, on every workload.
pub const END_TO_END: [&str; 9] = [
    "setup_s",
    "plan_p50_ms",
    "eval_p50_ms",
    "replan_p25_ms",
    "replan_p50_ms",
    "replan_tail_ms",
    "events_per_s",
    "delivered_pct",
    "peak_rss_mb",
];

/// The traced result line's metrics, on every workload. The traced run
/// prints and records further per-layer metrics of the layers only some
/// workloads reach.
pub const PER_LAYER: [&str; 19] = [
    "state.snapshot_ms",
    "state.sweep_ms",
    "state.sweep_cells",
    "state.commit_ms",
    "engine.candidates",
    "engine.candidates_ms",
    "engine.select_ms",
    "engine.select_tail_ms",
    "engine.iterations",
    "best_config.solves",
    "best_config.solve_ratio",
    "matching.solve_us",
    "memo.exact_hits",
    "memo.near_hits",
    "memo.misses",
    "memo.hit_ratio",
    "alloc.bytes_per_plan",
    "alloc.allocs_per_event",
    "trace.overhead_pct",
];

/// Environment variables that silently change the program being measured.
const ENV_KNOBS: [&str; 3] = ["OCTOPUS_THREADS", "OCTOPUS_KERNEL", "OCTOPUS_CACHE"];

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Workload sizes: the benchmark's, or tiny ones for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// Runs `setup` [`SETUP_REPS`] times; returns the last result and the
/// median time in seconds.
fn setup_median<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = stats::Samples::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times.median())
}

/// Memo counters for workloads whose re-plans never consult the cache.
pub fn idle_memo(out: &mut Outcome) {
    for name in ["memo.exact_hits", "memo.near_hits", "memo.misses"] {
        out.layer_count(name, 0);
    }
    out.layer("memo.hit_ratio", "ratio", 0.0, "cache idle".to_string());
}

/// Sets up and runs one workload.
pub fn run_workload(
    name: &str,
    scale: Scale,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(Outcome, Option<Recorder>), String> {
    let full = scale == Scale::Full;
    let ((mut out, rec), setup_s) = match name {
        "offline-n300" => {
            let p = if full {
                offline::Params::full()
            } else {
                offline::Params::tiny()
            };
            let (fx, setup_s) = setup_median(|| offline::setup(&p));
            (offline::run(&p, &fx, seed, seconds, traced), setup_s)
        }
        "serve-hysteresis" => {
            let p = if full {
                hysteresis::Params::full()
            } else {
                hysteresis::Params::tiny()
            };
            let (fx, setup_s) = setup_median(|| hysteresis::setup(&p, seed));
            (hysteresis::run(&fx, seconds, traced), setup_s)
        }
        "serve-periodic" => {
            let p = if full {
                periodic::Params::full()
            } else {
                periodic::Params::tiny()
            };
            let (fx, setup_s) = setup_median(|| periodic::setup(&p, seed));
            (periodic::run(&p, &fx, seconds, traced), setup_s)
        }
        other => return Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    };
    if !traced {
        out.end_to_end.insert(
            0,
            Metric {
                name: "setup_s".to_string(),
                unit: "s",
                value: setup_s,
                note: format!("p50 of {SETUP_REPS} set-ups"),
            },
        );
    }
    Ok((out, rec))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out_dir,
    })
}

/// The commit of the checkout, when it is a git work tree of its own.
fn git_commit() -> String {
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let here = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    let top =
        run(&["rev-parse", "--show-toplevel"]).and_then(|t| Path::new(&t).canonicalize().ok());
    match (here, top) {
        (Some(h), Some(t)) if h == t => {
            run(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown".to_string(),
    }
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// Run metadata printed with every result and stamped on every record.
struct Meta {
    commit: String,
    nproc: usize,
}

/// Writes one `{bench, commit, nproc, threads, case, layer, metric, value}`
/// record per metric, and the spans of a traced run (one file per
/// workload, replaced by each traced run: a serve session is tens of MB).
fn write_records(
    dir: &Path,
    workload: &str,
    case: &str,
    meta: &Meta,
    metrics: &[&Metric],
    rec: Option<&Recorder>,
) -> std::io::Result<()> {
    use std::io::Write;
    std::fs::create_dir_all(dir)?;
    let mut w = BufWriter::new(std::fs::File::create(
        dir.join(format!("{case}.records.jsonl")),
    )?);
    for m in metrics {
        let layer = m.name.split_once('.').map_or("end_to_end", |(l, _)| l);
        let record = object(vec![
            ("bench", text("perfbench")),
            ("commit", text(&meta.commit)),
            ("nproc", Value::U64(meta.nproc as u64)),
            ("threads", Value::U64(1)),
            ("case", text(case)),
            ("layer", text(layer)),
            ("metric", text(&m.name)),
            ("value", Value::F64(m.value)),
        ]);
        writeln!(w, "{}", json_line(&record))?;
    }
    w.flush()?;
    if let Some(rec) = rec {
        let f = std::fs::File::create(dir.join(format!("{workload}.spans.jsonl")))?;
        rec.write_jsonl(BufWriter::new(f))?;
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let set: Vec<String> = ENV_KNOBS
        .iter()
        .filter_map(|k| std::env::var_os(k).map(|v| format!("{k}={}", v.to_string_lossy())))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: each changes the program being measured",
            set.join(", ")
        );
        std::process::exit(2);
    }
    let meta = Meta {
        commit: git_commit(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let (out, rec) = match run_workload(
        &args.workload,
        Scale::Full,
        args.seed,
        args.seconds,
        args.trace,
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };

    let (wanted, shown): (&[&str], &[Metric]) = if args.trace {
        (&PER_LAYER, &out.per_layer)
    } else {
        (&END_TO_END, &out.end_to_end)
    };
    let picked: Vec<&Metric> = wanted
        .iter()
        .filter_map(|w| shown.iter().find(|m| m.name == *w))
        .collect();
    let complete = picked.len() == wanted.len() && picked.iter().all(|m| m.value.is_finite());

    let mut run_meta = vec![
        ("workload", text(&args.workload)),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::F64(args.seconds)),
        ("trace", Value::U64(u64::from(args.trace))),
        ("commit", text(&meta.commit)),
        ("nproc", Value::U64(meta.nproc as u64)),
        ("threads", Value::U64(1)),
    ];
    // The run refuses to start when any of these is set.
    run_meta.extend(ENV_KNOBS.map(|k| (k, text("unset"))));
    println!("meta {}", json_line(&object(run_meta)));
    for m in shown {
        println!(
            "  {:<28} {:>16.4} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "  operations: {} failed of {} attempted",
        out.failed, out.attempted
    );
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    if !complete {
        println!("  FAILED: missing or non-finite metrics");
    }
    let case = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let all: Vec<&Metric> = out.end_to_end.iter().chain(&out.per_layer).collect();
    if let Err(e) = write_records(
        &args.out_dir,
        &args.workload,
        &case,
        &meta,
        &all,
        rec.as_ref(),
    ) {
        eprintln!("perfbench: could not write records: {e}");
    }

    let metrics = picked
        .iter()
        .map(|m| {
            let value = object(vec![("value", Value::F64(m.value)), ("unit", text(m.unit))]);
            (m.name.clone(), value)
        })
        .collect();
    let result = object(vec![
        (
            "correct",
            Value::Bool(out.failed == 0 && complete && out.attempted > 0),
        ),
        ("attempted", Value::U64(out.attempted)),
        ("failed", Value::U64(out.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!("{}", json_line(&result));
}

#[cfg(test)]
mod tests {
    use super::*;
    use octopus_core::{octopus, OctopusConfig};
    use octopus_net::{Configuration, Matching};

    /// Per-layer metrics each workload prints beyond [`PER_LAYER`].
    fn printed_only(workload: &str) -> Vec<&'static str> {
        let serve = [
            "serve.admit_us",
            "serve.admit_tail_us",
            "serve.cancel_us",
            "serve.cancel_tail_us",
            "serve.parse_us",
            "serve.encode_us",
        ];
        match workload {
            "offline-n300" => vec![
                "sim.run_ms",
                "state.admit_ms",
                "engine.iteration_self_ms",
                "engine.window_self_ms",
            ],
            "serve-hysteresis" => serve.to_vec(),
            _ => {
                let mut v = serve.to_vec();
                v.extend([
                    "memo.exact_replan_ms",
                    "memo.near_replan_ms",
                    "memo.miss_replan_ms",
                ]);
                v
            }
        }
    }

    fn names(ms: &[Metric]) -> Vec<&str> {
        ms.iter().map(|m| m.name.as_str()).collect()
    }

    #[test]
    fn every_metric_is_emitted_at_tiny_sizes() {
        for w in WORKLOADS {
            let (out, rec) = run_workload(w, Scale::Tiny, 7, 0.0, false).unwrap();
            assert!(rec.is_none());
            assert_eq!(out.failed, 0, "{w}: {:?}", out.failures);
            assert!(out.attempted > 0);
            assert_eq!(names(&out.end_to_end), END_TO_END, "{w}");
            assert!(
                out.end_to_end
                    .iter()
                    .all(|m| m.value.is_finite() && m.value > 0.0),
                "{w}: {:?}",
                out.end_to_end
            );

            let (out, rec) = run_workload(w, Scale::Tiny, 7, 0.0, true).unwrap();
            assert_eq!(out.failed, 0, "{w} traced: {:?}", out.failures);
            assert!(!rec.expect("traced runs keep spans").spans().is_empty());
            let got = names(&out.per_layer);
            for want in PER_LAYER.iter().chain(&printed_only(w)) {
                assert!(got.contains(want), "{w} traced run lacks {want}");
            }
        }
    }

    #[test]
    fn work_counters_repeat_exactly() {
        for w in WORKLOADS {
            let counts = || {
                let (out, _) = run_workload(w, Scale::Tiny, 3, 0.0, true).unwrap();
                out.per_layer
                    .into_iter()
                    // Allocation counts repeat per process, not across runs
                    // sharing one test process's allocator and workspaces.
                    .filter(|m| m.unit == "count" && !m.name.starts_with("alloc."))
                    .map(|m| (m.name, m.value))
                    .collect::<Vec<_>>()
            };
            assert_eq!(counts(), counts(), "{w}");
        }
    }

    #[test]
    fn corrupted_schedules_fail_the_validity_check() {
        let p = offline::Params::tiny();
        let fx = offline::setup(&p);
        let cfg = OctopusConfig {
            window: p.window,
            delta: p.delta,
            ..OctopusConfig::default()
        };
        let planned = octopus(&fx.net, &fx.instances[0].load, &cfg).unwrap();
        let ok = offline::check_schedule(&planned.schedule, &fx.net, p.window, p.delta);
        assert_eq!(ok, Ok(()));

        let mut zero = planned.schedule.clone();
        let any = zero.configs()[0].matching.clone();
        zero.push(Configuration::new(any.clone(), 0));
        assert!(offline::check_schedule(&zero, &fx.net, p.window, p.delta).is_err());

        let mut long = planned.schedule.clone();
        long.push(Configuration::new(any, p.window));
        assert!(offline::check_schedule(&long, &fx.net, p.window, p.delta).is_err());

        let mut off_fabric = planned.schedule.clone();
        let ring = octopus_net::topology::ring(p.n).unwrap();
        let chord = Matching::new_free([(0u32, p.n / 2)]).unwrap();
        off_fabric.push(Configuration::new(chord, 1));
        assert!(offline::check_schedule(&off_fabric, &ring, p.window, p.delta).is_err());
    }

    #[test]
    fn benchmark_json_lists_these_workloads_and_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let v: serde_json::Value = serde_json::from_str(&text).unwrap();
        let list = |key: &str| -> Vec<String> {
            let serde_json::Value::Array(items) = &v[key] else {
                panic!("{key} is not a list");
            };
            items
                .iter()
                .map(|i| match &i["name"] {
                    serde_json::Value::String(s) => s.clone(),
                    other => panic!("bad name {other:?}"),
                })
                .collect()
        };
        assert_eq!(list("workloads"), WORKLOADS);
        assert_eq!(list("end_to_end"), END_TO_END);
        assert_eq!(list("per_layer"), PER_LAYER);
    }
}
