//! `serve-hysteresis`: the daemon's production path. A stream of arrivals on
//! random 1-3 hop routes, one cancel in five once enough flows are live,
//! and a `Replan` after every period of events, under the hysteresis
//! policy. The stream is deliberately overloaded, so the backlog and the
//! state arenas grow through a session; admits and cancels (writes to the
//! state layer) interleave with re-plans (reads of it).
//!
//! Every event is a pre-rendered NDJSON line fed through `serve_lines` in
//! memory. A run replays whole sessions of the same stream on a fresh
//! daemon, so every run measures the same backlog trajectory.

use crate::report::{ms_since, Budget, Outcome};
use crate::serve::{
    check_answers, check_plan, feed, layer_metrics, random_route, render, traced_lines, Measured,
    Shadow, Traced, REPLAN_LINE,
};
use crate::trace::Recorder;
use octopus_net::{topology, Network};
use octopus_serve::{Event, PolicyMode, ServeConfig, ServeState};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Params {
    pub n: u32,
    /// Distinct sessions generated per seed.
    pub sessions: usize,
    /// Periods per session; each period ends with one `Replan`.
    pub periods: usize,
    /// Arrival and cancel lines per period.
    pub period_events: usize,
    pub max_size: u64,
    /// Cancels start once this many flows are live.
    pub live_floor: usize,
}

impl Params {
    pub fn full() -> Self {
        Params {
            n: 64,
            sessions: 3,
            periods: 100,
            period_events: 1_000,
            max_size: 64,
            live_floor: 64,
        }
    }

    pub fn tiny() -> Self {
        Params {
            n: 8,
            sessions: 2,
            periods: 6,
            period_events: 40,
            max_size: 16,
            live_floor: 8,
        }
    }

    fn config() -> ServeConfig {
        ServeConfig {
            policy: PolicyMode::Hysteresis,
            ..ServeConfig::default()
        }
    }
}

/// One period: its event lines and how many packets they admit.
pub struct Period {
    block: Vec<u8>,
    events: u64,
    admitted: u64,
}

pub struct Fixture {
    net: Network,
    /// Distinct sessions; timed sessions cycle through them.
    sessions: Vec<Vec<Period>>,
}

pub fn setup(p: &Params, seed: u64) -> Fixture {
    let mut rng = StdRng::seed_from_u64(seed);
    let sessions = (0..p.sessions)
        .map(|_| session_stream(p, &mut rng))
        .collect();
    Fixture {
        net: topology::complete(p.n),
        sessions,
    }
}

/// One session's stream: ids restart with every session, as each runs on
/// a fresh daemon.
fn session_stream(p: &Params, rng: &mut StdRng) -> Vec<Period> {
    let mut live: Vec<u64> = Vec::new();
    let mut next_id = 1u64;
    (0..p.periods)
        .map(|_| {
            let mut block = Vec::new();
            let mut admitted = 0;
            for _ in 0..p.period_events {
                let event = if live.len() > p.live_floor && rng.gen_range(0..5u32) == 0 {
                    let id = live.swap_remove(rng.gen_range(0..live.len()));
                    Event::Cancel { id }
                } else {
                    let hops = rng.gen_range(1..=3usize);
                    let route = random_route(rng, p.n, hops);
                    let size = rng.gen_range(1..=p.max_size);
                    let id = next_id;
                    next_id += 1;
                    live.push(id);
                    admitted += size;
                    Event::Arrival { id, route, size }
                };
                render(&mut block, &event);
            }
            Period {
                block,
                events: p.period_events as u64,
                admitted,
            }
        })
        .collect()
}

/// Runs one session. The warm-up session (`timed == false`) records the
/// deterministic delivery counts; timed sessions record the timings, and
/// timed runs of the first session (`first`) also their re-plans alone.
fn session(
    fx: &Fixture,
    periods: &[Period],
    m: &mut Measured,
    timed: bool,
    first: bool,
    out: &mut Outcome,
) {
    let mut state = ServeState::new(fx.net.clone(), Params::config()).expect("valid config");
    let (mut answers, mut plan_answer) = (Vec::new(), Vec::new());
    for (k, period) in periods.iter().enumerate() {
        let t0 = Instant::now();
        let fed = feed(&mut state, &period.block, &mut answers);
        let t1 = Instant::now();
        let replanned = feed(&mut state, REPLAN_LINE, &mut plan_answer);
        let replan_ms = ms_since(t1);
        if timed {
            m.eval.push(ms_since(t0));
            m.replan.push(replan_ms);
            m.rate.push(period.events as f64 / (t1 - t0).as_secs_f64());
            if first {
                m.first_replan.push(replan_ms);
            }
        }
        out.check(fed.is_ok() && replanned.is_ok(), || {
            format!("period {k}: {fed:?} {replanned:?}")
        });
        check_answers(out, &answers, period.events, &format!("period {k}"));
        if let Some(plan) = check_plan(out, &plan_answer, &format!("period {k}")) {
            if timed {
                m.plan.push(plan.elapsed_us as f64 / 1e3);
            } else {
                m.delivered += plan.delivered;
            }
        }
        if !timed {
            m.admitted += period.admitted;
        }
    }
}

/// The first session through the daemon's public calls, mirrored in the
/// shadow, with spans around each layer.
fn traced_session(fx: &Fixture, out: &mut Outcome) -> (Recorder, Traced) {
    let cfg = Params::config();
    let mut state = ServeState::new(fx.net.clone(), cfg.clone()).expect("valid config");
    let mut shadow = Shadow::new(fx.net.num_nodes(), &cfg);
    let (mut rec, mut counters, mut req) = (Recorder::default(), Traced::default(), 0u64);
    for period in &fx.sessions[0] {
        for block in [&period.block[..], REPLAN_LINE] {
            traced_lines(
                &mut state,
                &mut shadow,
                block,
                &mut req,
                &mut rec,
                &mut counters,
                out,
            );
        }
    }
    (rec, counters)
}

pub fn run(fx: &Fixture, seconds: f64, traced: bool) -> (Outcome, Option<Recorder>) {
    let mut out = Outcome::default();
    let mut m = Measured::default();
    // The first session in a process runs slower (the allocator's
    // thresholds and the kernel workspaces are still growing), so one
    // untimed session warms the process up, as a long-running daemon is.
    session(fx, &fx.sessions[0], &mut m, false, false, &mut out);
    let start = Instant::now();
    let traced = traced.then(|| traced_session(fx, &mut out));
    // The untraced phase gets what the traced session left of the budget.
    let mut budget = Budget::new((seconds - start.elapsed().as_secs_f64()).max(0.0));
    for (i, periods) in fx.sessions.iter().enumerate().cycle() {
        let t = Instant::now();
        session(fx, periods, &mut m, true, i == 0, &mut out);
        if !budget.another(t.elapsed().as_secs_f64()) {
            break;
        }
    }
    if let Some((rec, counters)) = traced {
        crate::idle_memo(&mut out);
        layer_metrics(&mut out, &rec, &counters, "engine.select", &m.first_replan);
        return (out, Some(rec));
    }
    m.report(&mut out);
    (out, None)
}
