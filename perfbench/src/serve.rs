//! What the two serve workloads share: stream generation, the in-memory
//! NDJSON transport, response checks, and the shadow engine of the traced
//! run.
//!
//! The daemon hides its engine, so the traced run mirrors it in a shadow
//! `ScheduleEngine<RemainingTraffic>` fed the same events, which makes the
//! same re-plan calls the daemon makes: `best_configuration` under
//! hysteresis, `plan_window_cached` with a schedule cache of its own under
//! the Octopus policy. After every response the shadow's backlog must equal
//! the daemon's, and its plan must be the daemon's.

use crate::alloc::{counted, AllocCount};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::Samples;
use crate::trace::Recorder;
use octopus_core::engine::Realized;
use octopus_core::{
    best_configuration, plan_window_cached, BestChoice, BipartiteFabric, CandidateExtension,
    Fabric, LinkQueue, LinkQueues, MatchingKind, MultiAlphaEdges, OctopusConfig, RemainingTraffic,
    SchedError, ScheduleCache, ScheduleEngine, SearchPolicy, TrafficSource, WindowPlan,
};
use octopus_matching::AssignmentSolver;
use octopus_net::NodeId;
use octopus_serve::{
    serve_lines, Event, PlanConfig, PolicyMode, Response, ServeConfig, ServeState,
};
use octopus_traffic::{FlowId, Route};
use rand::Rng;
use std::borrow::Borrow;
use std::sync::Mutex;
use std::time::Instant;

pub const REPLAN_LINE: &[u8] = b"\"Replan\"\n";

/// A random loop-free route of `hops` hops over an `n`-node complete fabric.
pub fn random_route<R: Rng>(rng: &mut R, n: u32, hops: usize) -> Vec<u32> {
    let mut route = Vec::with_capacity(hops + 1);
    route.push(rng.gen_range(0..n));
    while route.len() < hops + 1 {
        let next = rng.gen_range(0..n);
        if !route.contains(&next) {
            route.push(next);
        }
    }
    route
}

/// Appends `event` to `block` as one NDJSON line.
pub fn render(block: &mut Vec<u8>, event: &Event) {
    let line = serde_json::to_string(event).expect("events serialize");
    block.extend_from_slice(line.as_bytes());
    block.push(b'\n');
}

/// Feeds `input` through the daemon's NDJSON session loop; the answers land
/// in `answers` (cleared first).
pub fn feed(state: &mut ServeState, input: &[u8], answers: &mut Vec<u8>) -> Result<(), String> {
    answers.clear();
    serve_lines(input, &mut *answers, state).map_err(|e| format!("transport error: {e}"))
}

/// Counts the answers to a block of `expected` event lines into `out`: one
/// operation per line, failed when the answer is missing or an `Error`.
pub fn check_answers(out: &mut Outcome, answers: &[u8], expected: u64, what: &str) {
    let mut lines = 0u64;
    for line in answers.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        lines += 1;
        out.check(!line.starts_with(b"{\"Error\""), || {
            format!("{what}: {}", String::from_utf8_lossy(line))
        });
    }
    for _ in lines..expected {
        out.check(false, || format!("{what}: missing answer"));
    }
}

/// Parses the answer to one `Replan` line; counts it as one operation.
pub fn check_plan(out: &mut Outcome, answers: &[u8], what: &str) -> Option<Plan> {
    let text = String::from_utf8_lossy(answers);
    let parsed = serde_json::from_str::<Response>(text.trim());
    let plan = match parsed {
        Ok(Response::Plan {
            configs,
            delivered,
            backlog,
            elapsed_us,
            ..
        }) => Some(Plan {
            configs,
            delivered,
            backlog,
            elapsed_us,
        }),
        _ => None,
    };
    out.check(plan.is_some(), || {
        format!("{what}: re-plan answered {}", text.trim())
    });
    plan
}

/// The fields of a `Plan` answer the benchmark reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub configs: Vec<PlanConfig>,
    pub delivered: u64,
    pub backlog: u64,
    pub elapsed_us: u64,
}

/// End-to-end samples of a serve workload's timed sessions, and the
/// delivery counts of its untimed first session.
#[derive(Debug, Default)]
pub struct Measured {
    pub plan: Samples,
    pub eval: Samples,
    pub replan: Samples,
    /// Every re-plan of the timed runs of the first session, whose stream
    /// the traced session replays: the untraced side of the trace overhead.
    pub first_replan: Samples,
    pub rate: Samples,
    pub delivered: u64,
    pub admitted: u64,
}

impl Measured {
    /// The end-to-end metrics every serve workload reports.
    pub fn report(&self, out: &mut Outcome) {
        out.e2e_median("plan_p50_ms", "ms", &self.plan);
        out.e2e_median("eval_p50_ms", "ms", &self.eval);
        out.e2e_percentile("replan_p25_ms", "ms", 25.0, &self.replan);
        out.e2e_median("replan_p50_ms", "ms", &self.replan);
        out.e2e_tail("replan_tail_ms", "ms", &self.replan);
        out.e2e_median("events_per_s", "1/s", &self.rate);
        out.e2e(
            "delivered_pct",
            "%",
            100.0 * self.delivered as f64 / self.admitted.max(1) as f64,
            format!(
                "{} of {} admitted packets of a session, planned",
                self.delivered, self.admitted
            ),
        );
        out.e2e("peak_rss_mb", "MB", peak_rss_mb(), "VmHWM".to_string());
    }
}

/// The daemon's answer backlog, if the answer carries one.
pub fn answer_backlog(r: &Response) -> Option<u64> {
    match r {
        Response::Admitted { backlog, .. }
        | Response::Cancelled { backlog, .. }
        | Response::Plan { backlog, .. } => Some(*backlog),
        _ => None,
    }
}

/// Work counters and spans of a traced session.
#[derive(Debug, Default)]
pub struct Traced {
    pub searches: u64,
    pub candidates: u64,
    pub solves: u64,
    pub sweep_cells: u64,
    pub event_allocs: AllocCount,
    pub events: u64,
    pub replan_allocs: AllocCount,
    pub replans: u64,
}

/// The daemon's mirror: same events, and the same re-plan calls on its own
/// engine (and, under the Octopus policy, its own schedule cache).
pub struct Shadow {
    engine: ScheduleEngine<TimedTraffic>,
    cfg: ServeConfig,
    incumbent: Option<Vec<(u32, u32)>>,
    solver: AssignmentSolver,
    cache: ScheduleCache,
}

/// What the shadow's re-plan produced.
pub enum Search {
    /// Hysteresis: the fresh matching `best_configuration` picked, if any.
    Best(Option<BestChoice>),
    /// Octopus: the whole window `plan_window_cached` planned and committed.
    Window(WindowPlan),
}

/// The shadow's traffic state. It times each commit's write to the state
/// (`TrafficSource::apply_served`), which the engine also makes inside
/// `plan_window_cached`, out of reach of a span.
#[derive(Debug)]
pub struct TimedTraffic {
    inner: RemainingTraffic,
    commits: Vec<(Instant, Instant)>,
}

impl TrafficSource for TimedTraffic {
    fn snapshot_queues(&self, n: u32) -> LinkQueues {
        self.inner.snapshot_queues(n)
    }

    fn apply_served(&mut self, served: &[(NodeId, NodeId, u64)]) -> Option<Vec<(u32, u32)>> {
        let t = Instant::now();
        let dirty = self.inner.apply_served(served);
        self.commits.push((t, Instant::now()));
        dirty
    }

    fn refresh_link(&self, link: (u32, u32)) -> Option<LinkQueue> {
        TrafficSource::refresh_link(&self.inner, link)
    }

    fn is_drained(&self) -> bool {
        TrafficSource::is_drained(&self.inner)
    }

    fn apply_chained(
        &mut self,
        moves: &[(FlowId, Route, u32, u32, u64)],
    ) -> Result<Option<Vec<(u32, u32)>>, SchedError> {
        self.inner.apply_chained(moves)
    }
}

impl Borrow<RemainingTraffic> for TimedTraffic {
    fn borrow(&self) -> &RemainingTraffic {
        &self.inner
    }
}

/// The daemon's fabric with the weight sweep, which the engine runs once
/// per α-search, timed and counted. The engine needs a `Sync` fabric, hence
/// the mutex.
struct SweptFabric {
    inner: BipartiteFabric,
    sweeps: Mutex<Sweeps>,
}

#[derive(Default)]
struct Sweeps {
    times: Vec<(Instant, Instant)>,
    candidates: u64,
    cells: u64,
    /// The window's first sweep, to re-solve its winning column afterwards.
    first: Option<MultiAlphaEdges>,
}

impl<S> Fabric<S> for SweptFabric {
    fn evaluate(&self, source: &S, queues: &LinkQueues, alpha: u64, delta: u64) -> BestChoice {
        self.inner.evaluate(source, queues, alpha, delta)
    }

    fn realize(&self, source: &S, links: &[(u32, u32)], alpha: u64) -> Realized {
        Fabric::<S>::realize(&self.inner, source, links, alpha)
    }

    fn upper_bound_valid(&self) -> bool {
        Fabric::<S>::upper_bound_valid(&self.inner)
    }

    fn weight_sweep(
        &self,
        source: &S,
        queues: &LinkQueues,
        candidates: &[u64],
    ) -> Option<(MultiAlphaEdges, MatchingKind)> {
        let t = Instant::now();
        let swept = self.inner.weight_sweep(source, queues, candidates)?;
        let end = Instant::now();
        let mut sweeps = self.sweeps.lock().expect("one thread");
        sweeps.times.push((t, end));
        sweeps.candidates += candidates.len() as u64;
        sweeps.cells += (swept.0.edges().len() * swept.0.alphas().len()) as u64;
        if sweeps.first.is_none() {
            sweeps.first = Some(swept.0.clone());
        }
        Some(swept)
    }
}

impl Shadow {
    pub fn new(n: u32, cfg: &ServeConfig) -> Self {
        let tr = TimedTraffic {
            inner: RemainingTraffic::from_subflows(std::iter::empty(), cfg.octopus.weighting),
            commits: Vec::new(),
        };
        Shadow {
            engine: ScheduleEngine::new(tr, n, cfg.delta),
            cfg: cfg.clone(),
            incumbent: None,
            solver: AssignmentSolver::new(),
            cache: ScheduleCache::new(cfg.cache.resolved()),
        }
    }

    pub fn backlog(&self) -> u64 {
        self.engine.source().inner.remaining_packets()
    }

    fn octopus(&self) -> OctopusConfig {
        self.cfg.octopus
    }

    fn fabric(&self) -> BipartiteFabric {
        BipartiteFabric {
            kind: self.octopus().matching,
        }
    }

    /// Applies an admitted arrival or a cancellation.
    pub fn apply_event(&mut self, event: &Event) -> Result<(), String> {
        let dirty = match event {
            Event::Arrival { id, route, size } => {
                let route = Route::from_ids(route.iter().copied()).map_err(|e| e.to_string())?;
                self.engine
                    .source_mut()
                    .inner
                    .admit_subflows([(FlowId(*id), route, 0, *size)])
                    .map_err(|e| e.to_string())?
            }
            Event::Cancel { id } => self.engine.source_mut().inner.cancel_flow(FlowId(*id)).1,
            _ => return Ok(()),
        };
        self.engine.patch_links(&dirty);
        Ok(())
    }

    /// The re-plan's search on the shadow, one span per layer: snapshot,
    /// candidates, then the policy's own search.
    pub fn search(
        &mut self,
        rec: &mut Recorder,
        req: u64,
        counters: &mut Traced,
    ) -> Result<Search, String> {
        let hysteresis = self.cfg.policy == PolicyMode::Hysteresis;
        let budget = if hysteresis {
            self.cfg.horizon.saturating_sub(self.cfg.delta).max(1)
        } else {
            self.cfg.horizon - self.cfg.delta
        };
        let engine = &mut self.engine;
        rec.span("state.snapshot", req, |_| {
            engine.queues();
        });
        let cands = rec.span("engine.candidates", req, |_| {
            engine.candidates(budget, CandidateExtension::None)
        });
        if hysteresis {
            Ok(Search::Best(self.best(rec, req, counters, budget, &cands)))
        } else {
            self.window(rec, req, counters).map(Search::Window)
        }
    }

    /// Hysteresis: the weight sweep and `best_configuration`, as the daemon
    /// runs it, and a re-solve of the winning column.
    fn best(
        &mut self,
        rec: &mut Recorder,
        req: u64,
        counters: &mut Traced,
        budget: u64,
        cands: &[u64],
    ) -> Option<BestChoice> {
        let o = self.octopus();
        let queues = self.engine.queues();
        let sweep = rec.span("state.sweep", req, |_| queues.weighted_edges_multi(cands));
        let choice = rec.span("engine.select", req, |_| {
            best_configuration(
                queues,
                self.cfg.delta,
                budget,
                o.alpha_search,
                o.matching,
                o.parallel,
            )
        })?;
        counters.searches += 1;
        counters.candidates += cands.len() as u64;
        counters.solves += choice.matchings_computed as u64;
        counters.sweep_cells += (sweep.edges().len() * sweep.alphas().len()) as u64;
        resolve_column(&mut self.solver, rec, req, &sweep, choice.alpha);
        Some(choice)
    }

    /// Octopus: the whole window through the shadow's own cache, as the
    /// daemon plans it, committed to the shadow. Each iteration's weight
    /// sweep is timed and counted; the first one's winning column is then
    /// re-solved on its own and must give the window's first matching.
    fn window(
        &mut self,
        rec: &mut Recorder,
        req: u64,
        counters: &mut Traced,
    ) -> Result<WindowPlan, String> {
        let o = self.octopus();
        let policy = SearchPolicy {
            search: o.alpha_search,
            parallel: o.parallel,
            prefer_larger_alpha: false,
            kernel: o.kernel,
        };
        // The cache salt 0 below is the daemon's for exact matchings.
        if o.matching != MatchingKind::Exact {
            return Err("the shadow mirrors exact matchings only".to_string());
        }
        let span = rec.open("memo.plan_window", req);
        let fabric = SweptFabric {
            inner: self.fabric(),
            sweeps: Mutex::default(),
        };
        let planned = plan_window_cached(
            &mut self.engine,
            &fabric,
            &policy,
            self.cfg.horizon,
            &mut self.cache,
            0,
        );
        let sweeps = fabric.sweeps.into_inner().expect("one thread");
        for &(start, end) in &sweeps.times {
            rec.record("state.sweep", req, start, end);
        }
        self.record_commits(rec, req);
        rec.close(span);
        counters.searches += sweeps.times.len() as u64;
        counters.candidates += sweeps.candidates;
        counters.sweep_cells += sweeps.cells;
        let first = sweeps.first;
        let plan = planned.map_err(|e| e.to_string())?;
        counters.solves += plan.matchings_computed as u64;
        if let (Some(sweep), Some((links, alpha))) = (first, plan.configs.first()) {
            let matched = resolve_column(&mut self.solver, rec, req, &sweep, *alpha);
            if sorted(&matched) != sorted(links) {
                return Err("re-solving the first winning column gave another matching".into());
            }
        }
        Ok(plan)
    }

    /// Moves the commit times the traffic state took into `rec`.
    fn record_commits(&mut self, rec: &mut Recorder, req: u64) {
        for (start, end) in self.engine.source_mut().commits.drain(..) {
            rec.record("state.commit", req, start, end);
        }
    }

    /// Hysteresis: commits the plan the daemon emitted. A plan without
    /// configurations keeps serving the held matching for the whole horizon.
    pub fn hold(&mut self, rec: &mut Recorder, req: u64, configs: &[PlanConfig]) {
        let (links, alpha) = match configs.first() {
            Some(c) => (c.links.clone(), c.alpha),
            None => match &self.incumbent {
                Some(links) => (links.clone(), self.cfg.horizon),
                None => return,
            },
        };
        let budgets: Vec<(NodeId, NodeId, u64)> = links
            .iter()
            .map(|&(i, j)| (NodeId(i), NodeId(j), alpha))
            .collect();
        self.engine.commit_budgets(&budgets);
        self.record_commits(rec, req);
        self.incumbent = Some(links);
    }
}

/// Re-solves the weight column of `alpha` in `sweep` on its own, timed as
/// the matching layer; returns the matching.
fn resolve_column(
    solver: &mut AssignmentSolver,
    rec: &mut Recorder,
    req: u64,
    sweep: &MultiAlphaEdges,
    alpha: u64,
) -> Vec<(u32, u32)> {
    rec.span("matching.solve", req, |_| {
        solver.load_topology(sweep.n(), sweep.n(), sweep.edges());
        solver
            .solve_reweighted(sweep.column(sweep.index_of(alpha)))
            .to_vec()
    })
}

/// Sorted copy of a link list, for comparing matchings.
pub fn sorted(links: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut v = links.to_vec();
    v.sort_unstable();
    v
}

/// Whether the daemon's plan is the one the shadow's search found: the whole
/// window under the Octopus policy; under hysteresis, a switch adopts the
/// matching the shadow picked.
fn agrees(configs: &[PlanConfig], search: &Search) -> bool {
    match search {
        Search::Window(w) => {
            configs.len() == w.configs.len()
                && configs
                    .iter()
                    .zip(&w.configs)
                    .all(|(c, (links, alpha))| c.links == *links && c.alpha == *alpha)
        }
        Search::Best(choice) => configs
            .first()
            .is_none_or(|c| choice.as_ref().map(|b| sorted(&b.matching)) == Some(sorted(&c.links))),
    }
}

/// Feeds one block of event lines, each as its own request, through the
/// daemon's public calls with spans around decode, handle and encode, and
/// mirrors every request into the shadow. The request's span covers all of
/// it, the shadow's search and mirroring included. Returns the plan and the
/// shadow's search when the block is a single `Replan`.
pub fn traced_lines(
    state: &mut ServeState,
    shadow: &mut Shadow,
    block: &[u8],
    next_req: &mut u64,
    rec: &mut Recorder,
    counters: &mut Traced,
    out: &mut Outcome,
) -> Option<(Plan, Search)> {
    let mut last_plan = None;
    for line in block.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
        let req = *next_req;
        *next_req += 1;
        let text = std::str::from_utf8(line).expect("rendered lines are UTF-8");
        let replan = line == &REPLAN_LINE[..REPLAN_LINE.len() - 1];
        let request = rec.open(
            if replan {
                "serve.replan"
            } else {
                "serve.event"
            },
            req,
        );
        let event = rec.span("serve.parse", req, |_| serde_json::from_str::<Event>(text));
        let Ok(event) = event else {
            rec.close(request);
            out.check(false, || format!("request {req}: undecodable line {text}"));
            continue;
        };
        let search = replan.then(|| shadow.search(rec, req, counters));
        let name = match &event {
            Event::Arrival { .. } => "serve.admit",
            Event::Cancel { .. } => "serve.cancel",
            _ => "serve.handle",
        };
        let handled = event.clone();
        let ((response, _), allocs) = rec.span(name, req, |_| counted(|| state.handle(handled)));
        let encoded = rec.span("serve.encode", req, |_| serde_json::to_string(&response));
        let counted = if replan {
            counters.replans += 1;
            &mut counters.replan_allocs
        } else {
            counters.events += 1;
            &mut counters.event_allocs
        };
        counted.allocs += allocs.allocs;
        counted.bytes += allocs.bytes;
        let mirrored = match (&response, &search) {
            (Response::Error { message }, _) => Err(format!("daemon error: {message}")),
            (_, Some(Err(e))) => Err(format!("shadow: {e}")),
            (Response::Plan { configs, .. }, Some(Ok(search))) => {
                if let Search::Best(_) = search {
                    shadow.hold(rec, req, configs);
                }
                if agrees(configs, search) {
                    Ok(())
                } else {
                    Err("daemon and shadow planned differently".to_string())
                }
            }
            _ => shadow.apply_event(&event),
        };
        rec.close(request);
        let backlog = answer_backlog(&response);
        let problem = if encoded.is_err() {
            Some("answer failed to encode".to_string())
        } else if let Err(e) = mirrored {
            Some(e)
        } else if backlog != Some(shadow.backlog()) {
            Some(format!(
                "daemon backlog {backlog:?}, shadow backlog {}",
                shadow.backlog()
            ))
        } else {
            None
        };
        out.check(problem.is_none(), || format!("request {req}: {problem:?}"));
        if let (
            Response::Plan {
                configs,
                delivered,
                backlog,
                elapsed_us,
                ..
            },
            Some(Ok(search)),
        ) = (response, search)
        {
            last_plan = Some((
                Plan {
                    configs,
                    delivered,
                    backlog,
                    elapsed_us,
                },
                search,
            ));
        }
    }
    last_plan
}

/// Per-layer metrics every serve workload reports from its traced session.
/// `search` names the span of the re-plan's search: `engine.select` around
/// `best_configuration` under hysteresis, `memo.plan_window` around the
/// cached window under the Octopus policy. `untraced_replan` holds the
/// untraced re-plan times of the same session's stream.
pub fn layer_metrics(
    out: &mut Outcome,
    rec: &Recorder,
    c: &Traced,
    search: &str,
    untraced_replan: &Samples,
) {
    let select = rec.durations(search, 1e6);
    out.layer_median(
        "state.snapshot_ms",
        "ms",
        &rec.durations("state.snapshot", 1e6),
    );
    out.layer_median("state.sweep_ms", "ms", &rec.durations("state.sweep", 1e6));
    out.layer_count("state.sweep_cells", c.sweep_cells);
    out.layer_median("state.commit_ms", "ms", &rec.durations("state.commit", 1e6));
    out.layer_count("engine.candidates", c.candidates);
    out.layer_median(
        "engine.candidates_ms",
        "ms",
        &rec.durations("engine.candidates", 1e6),
    );
    out.layer_median("engine.select_ms", "ms", &select);
    out.layer_tail("engine.select_tail_ms", "ms", &select);
    out.layer_count("engine.iterations", c.searches);
    out.layer_count("best_config.solves", c.solves);
    out.layer(
        "best_config.solve_ratio",
        "ratio",
        c.solves as f64 / c.candidates.max(1) as f64,
        "solves / candidates".to_string(),
    );
    out.layer_median(
        "matching.solve_us",
        "us",
        &rec.durations("matching.solve", 1e3),
    );
    out.layer(
        "alloc.bytes_per_plan",
        "B",
        c.replan_allocs.bytes as f64 / c.replans.max(1) as f64,
        "per Replan handled".to_string(),
    );
    out.layer(
        "alloc.allocs_per_event",
        "count",
        c.event_allocs.allocs as f64 / c.events.max(1) as f64,
        "per Arrival/Cancel handled".to_string(),
    );
    let traced_replan = rec.durations("serve.replan", 1e6);
    out.layer(
        "trace.overhead_pct",
        "%",
        crate::offline::overhead_pct(traced_replan.median(), untraced_replan.median()),
        format!(
            "traced re-plan request p50 {:.3} ms vs untraced p50 {:.3} ms, same stream",
            traced_replan.median(),
            untraced_replan.median()
        ),
    );
    // Printed and recorded, but not part of the result line.
    let admit = rec.durations("serve.admit", 1e3);
    let cancel = rec.durations("serve.cancel", 1e3);
    out.layer_median("serve.admit_us", "us", &admit);
    out.layer_tail("serve.admit_tail_us", "us", &admit);
    out.layer_median("serve.cancel_us", "us", &cancel);
    out.layer_tail("serve.cancel_tail_us", "us", &cancel);
    out.layer_median("serve.parse_us", "us", &rec.durations("serve.parse", 1e3));
    out.layer_median("serve.encode_us", "us", &rec.durations("serve.encode", 1e3));
}
