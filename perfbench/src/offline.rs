//! `offline-n300`: the paper's Fig 10(b) window. Each instance is planned
//! with `octopus()`, replayed through `Simulator::run`, and then re-planned
//! a few steps further on the traffic the window left behind.
//!
//! The instances come from a fixed pool of synthetic seeds; the run's seed
//! only sets the order they are planned in. Plan time differs by up to 2x
//! between synthetic instances at this size (143 to 274 solves per window),
//! so a pool drawn from the run's seed would move the window median between
//! seeds by more than any useful bound, and the pool is planned in whole
//! passes so every run's median is over the same windows.

use crate::alloc::{counted, AllocCount};
use crate::report::{ms_since, peak_rss_mb, Budget, Outcome};
use crate::stats::Samples;
use crate::trace::Recorder;
use octopus_core::{
    octopus, BipartiteFabric, CandidateExtension, OctopusConfig, RemainingTraffic, ScheduleEngine,
    SearchPolicy,
};
use octopus_matching::AssignmentSolver;
use octopus_net::{topology, Configuration, Network, Schedule};
use octopus_sim::{resolve, SimConfig, SimReport, Simulator};
use octopus_traffic::synthetic::{self, SyntheticConfig};
use octopus_traffic::TrafficLoad;
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

/// Sizes of the workload.
#[derive(Debug, Clone)]
pub struct Params {
    pub n: u32,
    pub window: u64,
    pub delta: u64,
    /// Synthetic-generator seeds of the instance pool.
    pub pool: Vec<u64>,
    /// Re-plans run on the traffic each window leaves.
    pub replans: usize,
}

/// Pool instances planned in the traced phase of a traced run.
const TRACED: usize = 2;

impl Params {
    pub fn full() -> Self {
        Params {
            n: 300,
            window: 10_000,
            delta: 20,
            pool: vec![1, 2, 3, 4, 5, 6, 7],
            replans: 10,
        }
    }

    pub fn tiny() -> Self {
        Params {
            n: 12,
            window: 800,
            delta: 5,
            pool: vec![1, 2, 3],
            replans: 2,
        }
    }

    fn config(&self) -> OctopusConfig {
        OctopusConfig {
            window: self.window,
            delta: self.delta,
            ..OctopusConfig::default()
        }
    }

    fn policy(&self) -> SearchPolicy {
        let cfg = self.config();
        SearchPolicy {
            search: cfg.alpha_search,
            parallel: cfg.parallel,
            prefer_larger_alpha: false,
            kernel: cfg.kernel,
        }
    }

    fn fabric(&self) -> BipartiteFabric {
        BipartiteFabric {
            kind: self.config().matching,
        }
    }
}

pub struct Instance {
    pub seed: u64,
    pub load: TrafficLoad,
    pub sim: Simulator,
}

/// Everything generated before timing starts.
pub struct Fixture {
    pub net: Network,
    pub instances: Vec<Instance>,
}

pub fn setup(p: &Params) -> Fixture {
    let net = topology::complete(p.n);
    let instances = p
        .pool
        .iter()
        .map(|&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let gen = SyntheticConfig::paper_default(p.n, p.window);
            let load = synthetic::generate(&gen, &net, &mut rng);
            let flows = resolve(&load).expect("synthetic loads are single-route");
            let sim_cfg = SimConfig {
                delta: p.delta,
                ..SimConfig::default()
            };
            let sim = Simulator::new(Some(&net), flows, sim_cfg).expect("routes lie in the fabric");
            Instance { seed, load, sim }
        })
        .collect();
    Fixture { net, instances }
}

/// Whether `schedule` is a valid plan for a `window`-slot window on `net`.
pub fn check_schedule(
    schedule: &Schedule,
    net: &Network,
    window: u64,
    delta: u64,
) -> Result<(), String> {
    schedule
        .validate(Some(net))
        .map_err(|e| format!("invalid schedule: {e}"))?;
    let cost = schedule.total_cost(delta);
    if cost > window {
        return Err(format!("schedule costs {cost} slots > window {window}"));
    }
    Ok(())
}

fn check_sim(report: Result<SimReport, impl std::fmt::Display>) -> Result<SimReport, String> {
    let r = report.map_err(|e| format!("simulation failed: {e}"))?;
    if !r.conserves_packets() {
        return Err(format!(
            "simulation loses packets: {} + {} + {} != {}",
            r.delivered, r.stranded, r.never_moved, r.total_packets
        ));
    }
    Ok(r)
}

/// Measurements of one untraced window.
struct Window {
    plan_ms: f64,
    eval_ms: f64,
    flows_per_s: f64,
    replan_ms: Vec<f64>,
    plan_alloc: AllocCount,
    admit_alloc: AllocCount,
    flows: u64,
    delivered: u64,
    total: u64,
    schedule: Schedule,
}

/// Plans one instance with `octopus()`, simulates the plan, then re-plans
/// on the leftover traffic. Checks are counted into `out`.
fn window(p: &Params, fx: &Fixture, inst: &Instance, out: &mut Outcome) -> Option<Window> {
    let cfg = p.config();
    let t0 = Instant::now();
    let (planned, plan_alloc) = counted(|| octopus(&fx.net, &inst.load, &cfg));
    let plan_ms = ms_since(t0);
    let planned = match planned {
        Ok(o) => o,
        Err(e) => {
            out.check(false, || {
                format!("instance {}: octopus failed: {e}", inst.seed)
            });
            return None;
        }
    };
    let report = inst.sim.run(&planned.schedule);
    let eval_ms = ms_since(t0);

    let valid = check_schedule(&planned.schedule, &fx.net, p.window, p.delta);
    out.check(valid.is_ok(), || {
        format!("instance {}: {valid:?}", inst.seed)
    });
    let report = check_sim(report);
    out.check(report.is_ok(), || {
        format!("instance {}: {report:?}", inst.seed)
    });
    let (delivered, total) = report.map_or((0, 0), |r| (r.delivered, r.total_packets));

    // Admission: the state layer ingesting every flow of the window.
    let ta = Instant::now();
    let (tr, admit_alloc) = counted(|| RemainingTraffic::new(&inst.load, cfg.weighting));
    let admit_s = ta.elapsed().as_secs_f64();
    let mut tr = match tr {
        Ok(tr) => tr,
        Err(e) => {
            out.check(false, || {
                format!("instance {}: admission failed: {e}", inst.seed)
            });
            return None;
        }
    };
    let flows = inst.load.len() as u64;

    // Replay the window into the state, then re-plan on what it left.
    for c in planned.schedule.configs() {
        tr.apply(c.matching.links(), c.alpha);
    }
    let replayed = tr.planned_delivered();
    out.check(replayed == planned.planned_delivered, || {
        format!(
            "instance {}: replayed window delivers {replayed}, plan said {}",
            inst.seed, planned.planned_delivered
        )
    });
    let (fabric, policy) = (p.fabric(), p.policy());
    let mut engine = ScheduleEngine::new(&mut tr, p.n, p.delta);
    let mut replan_ms = Vec::new();
    for step in 0..p.replans {
        let t = Instant::now();
        let choice = engine.select(
            &fabric,
            p.window - p.delta,
            CandidateExtension::None,
            &policy,
        );
        let ok = match &choice {
            Some(c) => engine.commit(&fabric, &c.matching, c.alpha).is_ok(),
            None => false,
        };
        replan_ms.push(ms_since(t));
        out.check(ok, || {
            format!(
                "instance {}: re-plan {step} found or committed nothing",
                inst.seed
            )
        });
    }

    Some(Window {
        plan_ms,
        eval_ms,
        flows_per_s: flows as f64 / admit_s,
        replan_ms,
        plan_alloc,
        admit_alloc,
        flows,
        delivered,
        total,
        schedule: planned.schedule,
    })
}

/// Work counters of traced windows.
#[derive(Default)]
struct Counters {
    iterations: u64,
    candidates: u64,
    solves: u64,
    sweep_cells: u64,
}

/// One window planned by the same greedy loop `octopus()` runs, through the
/// engine's public calls, with a span around each layer.
fn traced_window(
    p: &Params,
    fx: &Fixture,
    inst: &Instance,
    req: u64,
    rec: &mut Recorder,
    counters: &mut Counters,
    out: &mut Outcome,
) -> Schedule {
    let cfg = p.config();
    let (fabric, policy) = (p.fabric(), p.policy());
    let mut solver = AssignmentSolver::new();
    let mut schedule = Schedule::new();
    let window = rec.open("window", req);
    let tr = rec.span("state.admit", req, |_| {
        inst.load
            .validate(&fx.net)
            .map_err(|e| e.to_string())
            .and_then(|()| {
                RemainingTraffic::new(&inst.load, cfg.weighting).map_err(|e| e.to_string())
            })
    });
    let mut tr = match tr {
        Ok(tr) => tr,
        Err(e) => {
            out.check(false, || {
                format!("instance {}: admission failed: {e}", inst.seed)
            });
            rec.close(window);
            return schedule;
        }
    };
    let mut engine = ScheduleEngine::new(&mut tr, p.n, p.delta);
    rec.span("state.snapshot", req, |_| {
        engine.queues();
    });
    let mut used = 0u64;
    while !engine.is_drained() && used + p.delta < p.window {
        let budget = p.window - used - p.delta;
        let iteration = rec.open("iteration", req);
        let cands = rec.span("engine.candidates", req, |_| {
            engine.candidates(budget, CandidateExtension::None)
        });
        let sweep = rec.span("state.sweep", req, |_| {
            engine.queues().weighted_edges_multi(&cands)
        });
        let choice = rec.span("engine.select", req, |_| {
            engine.select(&fabric, budget, CandidateExtension::None, &policy)
        });
        let Some(choice) = choice else {
            rec.close(iteration);
            break;
        };
        counters.iterations += 1;
        counters.candidates += cands.len() as u64;
        counters.solves += choice.matchings_computed as u64;
        counters.sweep_cells += (sweep.edges().len() * sweep.alphas().len()) as u64;
        let matched = rec.span("matching.solve", req, |_| {
            solver.load_topology(sweep.n(), sweep.n(), sweep.edges());
            solver
                .solve_reweighted(sweep.column(sweep.index_of(choice.alpha)))
                .to_vec()
        });
        drop(sweep);
        out.check(matched == choice.matching, || {
            format!(
                "instance {}: re-solving the winning column gave another matching",
                inst.seed
            )
        });
        let committed = rec.span("state.commit", req, |_| {
            engine.commit(&fabric, &choice.matching, choice.alpha)
        });
        rec.close(iteration);
        match committed {
            Ok(m) => schedule.push(Configuration::new(m, choice.alpha)),
            Err(e) => {
                out.check(false, || {
                    format!("instance {}: commit failed: {e}", inst.seed)
                });
                break;
            }
        }
        used += choice.alpha + p.delta;
    }
    rec.close(window);
    let report = rec.span("sim.run", req, |_| inst.sim.run(&schedule));
    let valid = check_schedule(&schedule, &fx.net, p.window, p.delta);
    out.check(valid.is_ok(), || {
        format!("instance {}: {valid:?}", inst.seed)
    });
    let report = check_sim(report);
    out.check(report.is_ok(), || {
        format!("instance {}: {report:?}", inst.seed)
    });
    schedule
}

/// Runs the workload for `seconds`; traced runs also return the spans.
pub fn run(
    p: &Params,
    fx: &Fixture,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> (Outcome, Option<Recorder>) {
    let mut out = Outcome::default();
    // The first window in a process runs slower (the allocator's thresholds
    // and the kernel workspaces are still growing); one untimed window
    // warms the process up, as a controller planning window after window is.
    window(p, fx, &fx.instances[0], &mut out);
    if traced {
        let rec = run_traced(p, fx, &mut out);
        return (out, Some(rec));
    }
    let mut order: Vec<usize> = (0..fx.instances.len()).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));

    let (mut plan, mut eval, mut replan, mut rate) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let (mut delivered, mut total) = (0u64, 0u64);
    let mut budget = Budget::new(seconds);
    for pass in 0.. {
        let t = Instant::now();
        for &i in &order {
            let Some(w) = window(p, fx, &fx.instances[i], &mut out) else {
                continue;
            };
            plan.push(w.plan_ms);
            eval.push(w.eval_ms);
            rate.push(w.flows_per_s);
            for r in w.replan_ms {
                replan.push(r);
            }
            if pass == 0 {
                delivered += w.delivered;
                total += w.total;
            }
        }
        if !budget.another(t.elapsed().as_secs_f64()) {
            break;
        }
    }
    out.e2e_median("plan_p50_ms", "ms", &plan);
    out.e2e_median("eval_p50_ms", "ms", &eval);
    out.e2e_percentile("replan_p25_ms", "ms", 25.0, &replan);
    out.e2e_median("replan_p50_ms", "ms", &replan);
    out.e2e_tail("replan_tail_ms", "ms", &replan);
    out.e2e_median("events_per_s", "1/s", &rate);
    out.e2e(
        "delivered_pct",
        "%",
        100.0 * delivered as f64 / total.max(1) as f64,
        format!("{delivered} of {total} packets, simulated"),
    );
    out.e2e("peak_rss_mb", "MB", peak_rss_mb(), "VmHWM".to_string());
    (out, None)
}

/// The traced run: the first [`TRACED`] pool instances planned with spans,
/// then the same instances planned untraced, for the overhead and to check
/// that the traced loop reproduces `octopus()` exactly.
fn run_traced(p: &Params, fx: &Fixture, out: &mut Outcome) -> Recorder {
    let mut rec = Recorder::default();
    let mut counters = Counters::default();
    let traced: Vec<&Instance> = fx.instances.iter().take(TRACED).collect();
    let mut schedules = Vec::new();
    for (req, inst) in traced.iter().enumerate() {
        schedules.push(traced_window(
            p,
            fx,
            inst,
            req as u64,
            &mut rec,
            &mut counters,
            out,
        ));
    }
    let (mut plan, mut bytes, mut admit_allocs, mut flows) = (Samples::default(), 0u64, 0u64, 0u64);
    for (inst, traced_schedule) in traced.iter().zip(&schedules) {
        let Some(w) = window(p, fx, inst, out) else {
            continue;
        };
        out.check(&w.schedule == traced_schedule, || {
            format!(
                "instance {}: traced loop and octopus() planned differently",
                inst.seed
            )
        });
        plan.push(w.plan_ms);
        bytes += w.plan_alloc.bytes;
        admit_allocs += w.admit_alloc.allocs;
        flows += w.flows;
    }
    let windows = plan.len().max(1) as f64;
    let traced_window_ms = rec.durations("window", 1e6);
    let select = rec.durations("engine.select", 1e6);

    out.layer_median(
        "state.snapshot_ms",
        "ms",
        &rec.durations("state.snapshot", 1e6),
    );
    out.layer_median("state.sweep_ms", "ms", &rec.durations("state.sweep", 1e6));
    out.layer_count("state.sweep_cells", counters.sweep_cells);
    out.layer_median("state.commit_ms", "ms", &rec.durations("state.commit", 1e6));
    out.layer_count("engine.candidates", counters.candidates);
    out.layer_median(
        "engine.candidates_ms",
        "ms",
        &rec.durations("engine.candidates", 1e6),
    );
    out.layer_median("engine.select_ms", "ms", &select);
    out.layer_tail("engine.select_tail_ms", "ms", &select);
    out.layer_count("engine.iterations", counters.iterations);
    out.layer_count("best_config.solves", counters.solves);
    out.layer(
        "best_config.solve_ratio",
        "ratio",
        counters.solves as f64 / counters.candidates.max(1) as f64,
        "solves / candidates".to_string(),
    );
    out.layer_median(
        "matching.solve_us",
        "us",
        &rec.durations("matching.solve", 1e3),
    );
    crate::idle_memo(out);
    out.layer(
        "alloc.bytes_per_plan",
        "B",
        bytes as f64 / windows,
        "per octopus() window".to_string(),
    );
    out.layer(
        "alloc.allocs_per_event",
        "count",
        admit_allocs as f64 / flows.max(1) as f64,
        "per flow admitted".to_string(),
    );
    out.layer(
        "trace.overhead_pct",
        "%",
        overhead_pct(traced_window_ms.median(), plan.median()),
        format!(
            "traced window p50 {:.3} ms vs untraced plan p50 {:.3} ms",
            traced_window_ms.median(),
            plan.median()
        ),
    );
    // Printed and recorded, but not part of the result line: these layers
    // are idle on the serve workloads.
    out.layer_median("sim.run_ms", "ms", &rec.durations("sim.run", 1e6));
    out.layer_median("state.admit_ms", "ms", &rec.durations("state.admit", 1e6));
    out.layer_median(
        "engine.iteration_self_ms",
        "ms",
        &rec.self_times("iteration", 1e6),
    );
    out.layer_median(
        "engine.window_self_ms",
        "ms",
        &rec.self_times("window", 1e6),
    );
    rec
}

pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    if untraced <= 0.0 {
        0.0
    } else {
        100.0 * (traced - untraced) / untraced
    }
}
