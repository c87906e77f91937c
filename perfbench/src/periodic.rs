//! `serve-periodic`: the only workload through the schedule cache
//! (`octopus_core::memo`). The daemon runs the full Octopus window policy
//! with the cache on; each round is one batch of arrivals and one `Replan`
//! that drains it. The batches are drawn from a fixed mix: recurring
//! templates (exact hits), the same templates with a few sizes jittered
//! within the cache quantum (near hits), and novel batches (misses).
//!
//! The mix is an assumption, not taken from a trace: 35 % exact, 35 % near
//! and 30 % misses (each template's cold round plus the novel batches), so
//! the re-plan p25 lies among the exact-hit replays, the p50 among the
//! warm-started near hits and the tail among the misses.
//!
//! Every batch uses routes from one fixed universe, and a session opens
//! with a round that admits the whole universe. After it no batch interns
//! a new link, so the interned-key generation in the window fingerprint
//! stays put and a recurring template can hit exactly.

use crate::report::{ms_since, Budget, Outcome};
use crate::serve::{
    self, check_answers, check_plan, feed, layer_metrics, random_route, render, traced_lines, Plan,
    Search, Shadow, Traced, REPLAN_LINE,
};
use crate::stats::Samples;
use crate::trace::Recorder;
use octopus_core::{CacheOutcome, CacheStats};
use octopus_net::{topology, Network};
use octopus_serve::{Event, PlanConfig, PolicyMode, ServeConfig, ServeState};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Params {
    pub n: u32,
    /// Distinct sessions generated per seed.
    pub sessions: usize,
    /// Routes in the universe every batch of a session draws from.
    pub universe: usize,
    pub templates: usize,
    /// Flows per template, jittered and novel batch.
    pub batch_flows: usize,
    /// Rounds per session of each kind, after the universe round and one
    /// cold round per template, shuffled.
    pub exact_rounds: usize,
    pub near_rounds: usize,
    pub novel_rounds: usize,
    /// Flows whose size a near batch changes.
    pub jitter_flows: usize,
    pub max_size: u64,
}

impl Params {
    pub fn full() -> Self {
        Params {
            n: 64,
            sessions: 8,
            universe: 512,
            templates: 4,
            batch_flows: 192,
            exact_rounds: 14,
            near_rounds: 14,
            novel_rounds: 8,
            jitter_flows: 6,
            max_size: 64,
        }
    }

    pub fn tiny() -> Self {
        Params {
            n: 8,
            sessions: 2,
            universe: 24,
            templates: 2,
            batch_flows: 10,
            exact_rounds: 2,
            near_rounds: 2,
            novel_rounds: 1,
            jitter_flows: 1,
            max_size: 16,
        }
    }

    fn config() -> ServeConfig {
        ServeConfig {
            policy: PolicyMode::Octopus,
            ..ServeConfig::default()
        }
    }
}

/// What a round's batch was drawn as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Universe,
    /// A template's first appearance in the session.
    Cold(usize),
    Exact(usize),
    Near(usize),
    Novel,
}

struct Round {
    kind: Kind,
    block: Vec<u8>,
    flows: u64,
    admitted: u64,
}

pub struct Fixture {
    net: Network,
    /// Distinct sessions; timed sessions cycle through them.
    sessions: Vec<Vec<Round>>,
}

/// How the cache resolved one re-plan, from its counters around the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolved {
    Exact,
    Near,
    Miss,
    Uncached,
}

fn resolved(before: CacheStats, after: CacheStats) -> Resolved {
    if after.exact_hits > before.exact_hits {
        Resolved::Exact
    } else if after.near_hits > before.near_hits {
        Resolved::Near
    } else if after.misses > before.misses {
        Resolved::Miss
    } else {
        Resolved::Uncached
    }
}

pub fn setup(p: &Params, seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let sessions = (0..p.sessions)
        .map(|_| session_rounds(p, &mut rng))
        .collect();
    Fixture {
        net: topology::complete(p.n),
        sessions,
    }
}

/// One session's rounds: a universe, templates and novel batches of its own.
fn session_rounds(p: &Params, rng: &mut StdRng) -> Vec<Round> {
    let universe: Vec<Vec<u32>> = (0..p.universe)
        .map(|_| {
            let hops = rng.gen_range(1..=3usize);
            random_route(rng, p.n, hops)
        })
        .collect();
    let draw_batch = |rng: &mut StdRng| -> Vec<(usize, u64)> {
        let mut idx: Vec<usize> = (0..p.universe).collect();
        idx.shuffle(rng);
        idx.truncate(p.batch_flows);
        idx.into_iter()
            .map(|r| (r, rng.gen_range(1..=p.max_size)))
            .collect()
    };
    let templates: Vec<Vec<(usize, u64)>> = (0..p.templates).map(|_| draw_batch(rng)).collect();

    let mut kinds = vec![Kind::Universe];
    kinds.extend((0..p.templates).map(Kind::Cold));
    let mut mixed = Vec::new();
    for _ in 0..p.exact_rounds {
        mixed.push(Kind::Exact(rng.gen_range(0..p.templates)));
    }
    for _ in 0..p.near_rounds {
        mixed.push(Kind::Near(rng.gen_range(0..p.templates)));
    }
    mixed.extend(std::iter::repeat_n(Kind::Novel, p.novel_rounds));
    mixed.shuffle(rng);
    kinds.extend(mixed);

    let mut next_id = 1u64;
    kinds
        .into_iter()
        .map(|kind| {
            let batch: Vec<(usize, u64)> = match kind {
                Kind::Universe => (0..p.universe).map(|r| (r, 1)).collect(),
                Kind::Cold(t) | Kind::Exact(t) => templates[t].clone(),
                Kind::Near(t) => {
                    let mut b = templates[t].clone();
                    for _ in 0..p.jitter_flows {
                        let k = rng.gen_range(0..b.len());
                        let d = rng.gen_range(1..=4u64);
                        b[k].1 = if b[k].1 > d { b[k].1 - d } else { b[k].1 + d };
                    }
                    b
                }
                Kind::Novel => draw_batch(rng),
            };
            let mut block = Vec::new();
            let mut admitted = 0;
            for &(r, size) in &batch {
                let event = Event::Arrival {
                    id: next_id,
                    route: universe[r].clone(),
                    size,
                };
                next_id += 1;
                admitted += size;
                render(&mut block, &event);
            }
            Round {
                kind,
                block,
                flows: batch.len() as u64,
                admitted,
            }
        })
        .collect()
}

/// The serve metrics plus the cache's outcomes: re-plan times of the timed
/// sessions and counts of the untimed first one, by exact, near, miss.
#[derive(Default)]
struct Measured {
    e2e: serve::Measured,
    by_outcome: [Samples; 3],
    counts: [u64; 3],
}

/// Checks one round's plan: the batch is drained, and an exact hit replays
/// the template's cold plan bit for bit.
fn check_round(
    out: &mut Outcome,
    k: usize,
    kind: Kind,
    how: Resolved,
    plan: &Plan,
    cold: &mut [Option<Vec<PlanConfig>>],
) {
    out.check(plan.backlog == 0, || {
        format!("round {k}: {} packets left", plan.backlog)
    });
    match (kind, how) {
        (Kind::Cold(t), _) => cold[t] = Some(plan.configs.clone()),
        (Kind::Exact(t), Resolved::Exact) => {
            out.check(cold[t].as_ref() == Some(&plan.configs), || {
                format!("round {k}: exact hit on template {t} differs from its cold plan")
            });
        }
        _ => {}
    }
}

/// How the shadow's own cache resolved its window.
fn shadow_resolved(outcome: CacheOutcome) -> Resolved {
    match outcome {
        CacheOutcome::ExactHit => Resolved::Exact,
        CacheOutcome::NearHit(_) => Resolved::Near,
        CacheOutcome::Miss => Resolved::Miss,
        CacheOutcome::Disabled => Resolved::Uncached,
    }
}

/// Runs one session. The warm-up session (`timed == false`) records the
/// deterministic counts; timed sessions record the timings, and timed runs
/// of the first session (`first`) also their re-plans alone.
fn session(
    p: &Params,
    fx: &Fixture,
    rounds: &[Round],
    m: &mut Measured,
    (timed, first): (bool, bool),
    out: &mut Outcome,
) {
    let mut state = ServeState::new(fx.net.clone(), Params::config()).expect("valid config");
    let mut cold = vec![None; p.templates];
    let (mut answers, mut plan_answer) = (Vec::new(), Vec::new());
    for (k, round) in rounds.iter().enumerate() {
        let t0 = Instant::now();
        let fed = feed(&mut state, &round.block, &mut answers);
        let t1 = Instant::now();
        let before = state.cache_stats();
        let replanned = feed(&mut state, REPLAN_LINE, &mut plan_answer);
        let replan_ms = ms_since(t1);
        let how = resolved(before, state.cache_stats());
        if timed && first {
            m.e2e.first_replan.push(replan_ms);
        }
        // The universe round only opens the session; its re-plan is checked
        // but not timed.
        if timed && round.kind != Kind::Universe {
            m.e2e.eval.push(ms_since(t0));
            m.e2e.replan.push(replan_ms);
            m.e2e
                .rate
                .push(round.flows as f64 / (t1 - t0).as_secs_f64());
        }
        let class = [Resolved::Exact, Resolved::Near, Resolved::Miss]
            .iter()
            .position(|&r| r == how);
        if let Some(i) = class {
            if !timed {
                m.counts[i] += 1;
            } else if round.kind != Kind::Universe {
                m.by_outcome[i].push(replan_ms);
            }
        }
        out.check(fed.is_ok() && replanned.is_ok(), || {
            format!("round {k}: {fed:?} {replanned:?}")
        });
        check_answers(out, &answers, round.flows, &format!("round {k}"));
        if let Some(plan) = check_plan(out, &plan_answer, &format!("round {k}")) {
            check_round(out, k, round.kind, how, &plan, &mut cold);
            if !timed {
                m.e2e.delivered += plan.delivered;
            } else if round.kind != Kind::Universe {
                m.e2e.plan.push(plan.elapsed_us as f64 / 1e3);
            }
        }
        if !timed {
            m.e2e.admitted += round.admitted;
        }
    }
    if !timed {
        out.check(m.counts.iter().all(|&c| c > 0), || {
            format!(
                "cache outcomes exact/near/miss = {:?}: a class never occurred",
                m.counts
            )
        });
    }
}

/// The first session through the daemon's public calls, mirrored in the
/// shadow, whose own cache must resolve every window as the daemon's did.
fn traced_session(p: &Params, fx: &Fixture, out: &mut Outcome) -> (Recorder, Traced, [u64; 3]) {
    let cfg = Params::config();
    let mut state = ServeState::new(fx.net.clone(), cfg.clone()).expect("valid config");
    let mut shadow = Shadow::new(fx.net.num_nodes(), &cfg);
    let (mut rec, mut counters, mut req) = (Recorder::default(), Traced::default(), 0u64);
    let mut cold = vec![None; p.templates];
    let mut counts = [0u64; 3];
    for (k, round) in fx.sessions[0].iter().enumerate() {
        traced_lines(
            &mut state,
            &mut shadow,
            &round.block,
            &mut req,
            &mut rec,
            &mut counters,
            out,
        );
        let before = state.cache_stats();
        let planned = traced_lines(
            &mut state,
            &mut shadow,
            REPLAN_LINE,
            &mut req,
            &mut rec,
            &mut counters,
            out,
        );
        let how = resolved(before, state.cache_stats());
        if let Some(i) = [Resolved::Exact, Resolved::Near, Resolved::Miss]
            .iter()
            .position(|&r| r == how)
        {
            counts[i] += 1;
        }
        let Some((plan, search)) = planned else {
            out.check(false, || format!("round {k}: no plan"));
            continue;
        };
        let shadow_how = match search {
            Search::Window(w) => Some(shadow_resolved(w.outcome)),
            Search::Best(_) => None,
        };
        out.check(shadow_how == Some(how), || {
            format!("round {k}: daemon cache {how:?}, shadow cache {shadow_how:?}")
        });
        check_round(out, k, round.kind, how, &plan, &mut cold);
    }
    (rec, counters, counts)
}

pub fn run(p: &Params, fx: &Fixture, seconds: f64, traced: bool) -> (Outcome, Option<Recorder>) {
    let mut out = Outcome::default();
    let mut m = Measured::default();
    // One untimed session warms the process up (see `hysteresis::run`).
    session(p, fx, &fx.sessions[0], &mut m, (false, false), &mut out);
    let start = Instant::now();
    let traced = traced.then(|| traced_session(p, fx, &mut out));
    let mut budget = Budget::new((seconds - start.elapsed().as_secs_f64()).max(0.0));
    for (i, rounds) in fx.sessions.iter().enumerate().cycle() {
        let t = Instant::now();
        session(p, fx, rounds, &mut m, (true, i == 0), &mut out);
        if !budget.another(t.elapsed().as_secs_f64()) {
            break;
        }
    }
    if let Some((rec, counters, counts)) = traced {
        let [exact, near, miss] = counts;
        out.layer_count("memo.exact_hits", exact);
        out.layer_count("memo.near_hits", near);
        out.layer_count("memo.misses", miss);
        out.layer(
            "memo.hit_ratio",
            "ratio",
            (exact + near) as f64 / (exact + near + miss).max(1) as f64,
            "exact and near hits / lookups".to_string(),
        );
        layer_metrics(
            &mut out,
            &rec,
            &counters,
            "memo.plan_window",
            &m.e2e.first_replan,
        );
        let names = [
            "memo.exact_replan_ms",
            "memo.near_replan_ms",
            "memo.miss_replan_ms",
        ];
        for (name, s) in names.iter().zip(&m.by_outcome) {
            out.layer_median(name, "ms", s);
        }
        return (out, Some(rec));
    }
    m.e2e.report(&mut out);
    (out, None)
}
