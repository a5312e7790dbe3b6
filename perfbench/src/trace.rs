//! The traced run. The benchmark drives every run itself through the
//! layers' public entry points (`build_data`, `build_cluster`,
//! `Session::new`, the profiler, the selectors, then `plan_round` →
//! `train_contributor` → the fold → `finish_round` → `evaluate_global`
//! per round) and times each call from its own code; nothing inside the
//! program is instrumented. The traced reports must equal the untraced
//! product run's by digest chain, which proves the decomposition
//! executes the same program.

use crate::cell::{panic_text, proc_status_mb, tamper_digest};
use crate::workload::Plan;
use crate::Fault;
use serde::Serialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tifl_comm::CodecSpec;
use tifl_core::experiment::ExperimentConfig;
use tifl_core::profiler::Profiler;
use tifl_core::runner::{RunRequest, SelectionStrategy, SharedProfile};
use tifl_core::scheduler::{AdaptiveConfig, AdaptiveTierSelector, StaticTierSelector};
use tifl_core::tiering::TierAssignment;
use tifl_fl::aggregator::{ClientUpdate, StreamingFold};
use tifl_fl::checkpoint::SelectorState;
use tifl_fl::session::{RoundPlan, Session, SessionConfig, SessionOverrides};
use tifl_fl::{ClientSelector, RandomSelector, RoundReport, TrainingReport};
use tifl_sweep::scheduler::profile_key;
use tifl_sweep::{audit_store, AuditReport, ProfileCache, RunArtifact, RunKey, RunStore};
use tifl_tensor::{split_seed, ParamVec};

/// Where a span sits: its parent, the run and round it serves, and the
/// thread lane (0 is the coordinating thread, `1..` the train workers).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx {
    parent: u64,
    run: u32,
    round: Option<u64>,
    tid: u32,
}

/// One timed call, in seconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub run: u32,
    pub round: Option<u64>,
    pub tid: u32,
}

impl Span {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// Spans are kept in memory and written out when the benchmark ends.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Time `f` as a span named `name` under `ctx`; `f` receives the
    /// context its own child spans nest under.
    pub fn timed<T>(&self, ctx: Ctx, name: &'static str, f: impl FnOnce(Ctx) -> T) -> T {
        // Relaxed: the id only has to be unique, it publishes no data.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        let out = f(Ctx { parent: id, ..ctx });
        let end = self.now();
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            parent: ctx.parent,
            name,
            start,
            end,
            run: ctx.run,
            round: ctx.round,
            tid: ctx.tid,
        });
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("span log poisoned");
        spans.sort_by(|a, b| a.start.total_cmp(&b.start));
        spans
    }
}

/// Counts taken at the same boundaries as the spans.
#[derive(Debug, Default)]
pub struct Counters {
    pub data_samples: u64,
    pub trained_samples: u64,
    pub fold_calls: u64,
    /// Σ over fan-outs of workers × fan-out wall seconds.
    pub fanout_capacity_s: f64,
    pub rounds: u64,
    pub up_bytes: u64,
    pub down_bytes: u64,
    /// VmRSS deltas of the first run: across its session build and
    /// across its round loop.
    pub session_mb: Option<f64>,
    pub round_growth_mb: Option<f64>,
    pub to_target_wall_s: Vec<f64>,
    pub to_target_virtual_s: Vec<f64>,
    pub runs_missing_target: u64,
}

/// Times `select` and `observe` of the run's real selector.
struct TimedSelector<'t> {
    inner: Box<dyn ClientSelector>,
    tracer: &'t Tracer,
    ctx: Ctx,
}

impl ClientSelector for TimedSelector<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn select(&mut self, round: u64, count: usize) -> Vec<usize> {
        let inner = &mut self.inner;
        self.tracer.timed(self.ctx, "core.scheduler.select", |_| {
            inner.select(round, count)
        })
    }

    fn monitored_groups(&self, round: u64) -> Option<Vec<Vec<usize>>> {
        self.inner.monitored_groups(round)
    }

    fn observe(&mut self, round: u64, accuracies: &[f64]) {
        let inner = &mut self.inner;
        self.tracer.timed(self.ctx, "core.scheduler.observe", |_| {
            inner.observe(round, accuracies)
        });
    }

    fn export_state(&self) -> Option<SelectorState> {
        self.inner.export_state()
    }

    fn restore_state(&mut self, state: &SelectorState) {
        self.inner.restore_state(state);
    }
}

/// `Experiment::build_session`, one layer call at a time.
fn build_session(
    tr: &Tracer,
    ctx: Ctx,
    exp: &ExperimentConfig,
    overrides: &SessionOverrides,
    counters: &mut Counters,
) -> Session {
    let data = tr.timed(ctx, "data.build", |_| exp.build_data());
    counters.data_samples += data.global_test.len() as u64
        + data
            .clients
            .iter()
            .map(|c| (c.train.len() + c.test.len()) as u64)
            .sum::<u64>();
    let cluster = tr.timed(ctx, "sim.cluster", |_| exp.build_cluster());
    let config = SessionConfig {
        model: exp.model,
        client: exp.client,
        clients_per_round: exp.clients_per_round,
        rounds: exp.rounds,
        eval_every: exp.eval_every,
        tmax_sec: exp.profiler.tmax_sec,
        aggregation: exp.aggregation,
        comm: exp.comm,
        seed: split_seed(exp.seed, 0x5E55),
    }
    .with_overrides(overrides);
    tr.timed(ctx, "fl.session.build", |_| {
        Session::new(data, cluster, config)
    })
}

/// The §4.2 profiling pass (`Experiment::profile_and_tier_with`).
fn profile(
    tr: &Tracer,
    ctx: Ctx,
    exp: &ExperimentConfig,
    overrides: &SessionOverrides,
    counters: &mut Counters,
) -> SharedProfile {
    tr.timed(ctx, "core.profiler.profile", |ctx| {
        let session = build_session(tr, ctx, exp, overrides, counters);
        let result =
            Profiler::new(exp.profiler).profile(session.cluster(), |c| session.task_for(c));
        let assignment = TierAssignment::from_latencies(&result.mean_latency, &exp.tiering);
        Arc::new((assignment, result))
    })
}

/// The selector `Runner` builds for the spec.
fn build_selector(
    exp: &ExperimentConfig,
    selection: &SelectionStrategy,
    profile: Option<&SharedProfile>,
) -> Box<dyn ClientSelector> {
    let seed = split_seed(exp.seed, 0x5E1EC7);
    let tiers = || profile.expect("tiered selection is profiled").0.clone();
    match selection {
        s if s.is_vanilla() => Box::new(RandomSelector::new(exp.num_clients, seed)),
        SelectionStrategy::TierPolicy { policy } => {
            Box::new(StaticTierSelector::new(tiers(), policy.clone(), seed))
        }
        SelectionStrategy::Adaptive { config } => {
            let tiers = tiers();
            let config =
                config.unwrap_or_else(|| AdaptiveConfig::for_run(exp.rounds, tiers.num_tiers()));
            Box::new(AdaptiveTierSelector::new(tiers, config, seed))
        }
        other => panic!("selection {other:?} is in no workload"),
    }
}

/// Train the round's contributors on `threads` workers pulling from a
/// shared queue, one span per `train_contributor` call.
fn fan_out(
    tr: &Tracer,
    ctx: Ctx,
    session: &Session,
    plan: &RoundPlan,
    threads: usize,
    counters: &mut Counters,
) -> Vec<ClientUpdate> {
    let n = plan.contributors.len();
    let workers = threads.min(n);
    let start = tr.now();
    let next = &AtomicUsize::new(0);
    let slots: &Vec<Mutex<Option<ClientUpdate>>> = &(0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let lane = Ctx {
                tid: w as u32 + 1,
                ..ctx
            };
            scope.spawn(move || loop {
                // Relaxed: a work index; the scope join publishes the slots.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&c) = plan.contributors.get(i) else {
                    break;
                };
                let update = tr.timed(lane, "fl.client.train_call", |_| {
                    session.train_contributor(c, plan.round)
                });
                *slots[i].lock().expect("update slot poisoned") = Some(update);
            });
        }
    });
    counters.fanout_capacity_s += workers as f64 * (tr.now() - start);
    counters.trained_samples += plan
        .contributors
        .iter()
        .map(|&c| {
            let task = session.task_for(c);
            (task.samples * task.epochs) as u64
        })
        .sum::<u64>();
    slots
        .iter()
        .map(|s| {
            s.lock()
                .expect("update slot poisoned")
                .take()
                .expect("every contributor trained")
        })
        .collect()
}

/// FedAvg over the round's updates in canonical order, through the
/// codec with error feedback when one is configured.
fn fold(
    session: &mut Session,
    codec: Option<CodecSpec>,
    updates: &[ClientUpdate],
) -> Option<ParamVec> {
    if updates.is_empty() {
        return None;
    }
    let weights: Vec<f32> = updates.iter().map(|u| u.samples as f32).collect();
    let mut fold = StreamingFold::with_acc(session.take_fold_acc(), &weights);
    match codec {
        None | Some(CodecSpec::Identity) => {
            for u in updates {
                fold.fold(u);
            }
            fold.finish()
        }
        Some(codec) => {
            let base = session.global_params().clone();
            for u in updates {
                let (feedback, scratch) = session.codec_state_mut();
                fold.fold_compensated(&codec, u, &base, feedback, scratch);
            }
            fold.finish_against(&base)
        }
    }
}

fn traced_round(
    tr: &Tracer,
    ctx: Ctx,
    session: &mut Session,
    selector: &mut TimedSelector<'_>,
    threads: usize,
    counters: &mut Counters,
) -> RoundReport {
    let codec = session.config().comm.map(|spec| spec.codec);
    let plan = tr.timed(ctx, "fl.session.plan", |ctx| {
        selector.ctx = ctx;
        session.plan_round(selector)
    });
    let updates = tr.timed(ctx, "fl.client.train", |ctx| {
        fan_out(tr, ctx, session, &plan, threads, counters)
    });
    counters.fold_calls += updates.len() as u64;
    let new_global = tr.timed(ctx, "fl.aggregator.fold", |_| {
        fold(session, codec, &updates)
    });
    let round = plan.round;
    let mut report = tr.timed(ctx, "fl.session.finish", |ctx| {
        selector.ctx = ctx;
        session.finish_round(plan, new_global, selector, false)
    });
    if session.is_eval_round(round) {
        let eval = tr.timed(ctx, "fl.session.eval", |_| session.evaluate_global());
        report.accuracy = Some(eval.accuracy);
        report.loss = Some(eval.loss);
    }
    counters.rounds += 1;
    counters.up_bytes += report.bytes_up;
    counters.down_bytes += report.bytes_down;
    report
}

/// One run, traced end to end: set-up, profile, rounds.
fn traced_run(
    tr: &Tracer,
    ctx: Ctx,
    request: &RunRequest,
    cache: &ProfileCache,
    plan: &Plan,
    counters: &mut Counters,
) -> TrainingReport {
    let start = tr.now();
    let exp = request.experiment();
    let spec = &request.spec;
    assert!(
        spec.reprofile_every.is_none(),
        "re-profiling is in no workload"
    );
    let first = counters.session_mb.is_none();
    let rss = proc_status_mb("VmRSS");
    let mut session = build_session(tr, ctx, &exp, &spec.session_overrides(), counters);
    if first {
        counters.session_mb = Some(proc_status_mb("VmRSS") - rss);
    }
    let profile = spec.selection.needs_profile().then(|| {
        let overrides = SessionOverrides {
            comm: spec.profile_axis(),
            ..SessionOverrides::default()
        };
        cache.get_or_compute(profile_key(&exp, overrides.comm), || {
            profile(tr, ctx, &exp, &overrides, counters)
        })
    });
    let mut selector = TimedSelector {
        inner: build_selector(&exp, &spec.selection, profile.as_ref()),
        tracer: tr,
        ctx,
    };
    let rss = proc_status_mb("VmRSS");
    let mut rounds = Vec::with_capacity(exp.rounds as usize);
    let mut to_target = None;
    for round in 0..exp.rounds {
        let rctx = Ctx {
            round: Some(round),
            ..ctx
        };
        let report = tr.timed(rctx, "round", |rctx| {
            traced_round(
                tr,
                rctx,
                &mut session,
                &mut selector,
                plan.threads,
                counters,
            )
        });
        if to_target.is_none() && report.accuracy.is_some_and(|a| a >= plan.target) {
            to_target = Some(tr.now() - start);
        }
        rounds.push(report);
    }
    if first {
        counters.round_growth_mb = Some(proc_status_mb("VmRSS") - rss);
    }
    let report = TrainingReport {
        policy: spec.display_label(),
        rounds,
    };
    // A run that never reaches the target is censored at its horizon.
    if to_target.is_none() {
        counters.runs_missing_target += 1;
    }
    counters
        .to_target_wall_s
        .push(to_target.unwrap_or_else(|| tr.now() - start));
    counters.to_target_virtual_s.push(
        report
            .time_to_accuracy(plan.target)
            .unwrap_or_else(|| report.total_time()),
    );
    report
}

/// The outcome of tracing every run of a workload.
pub struct Traced {
    pub spans: Vec<Span>,
    pub counters: Counters,
    /// One entry per run, in manifest order: the report or the failure.
    pub runs: Vec<Result<TrainingReport, String>>,
    pub audit: AuditReport,
    pub wall_s: f64,
}

/// Trace every run of `plan`, persist each report into a fresh store and
/// audit it, as the product's sweep path does.
pub fn trace_workload(plan: &Plan, fault: Fault, store_dir: &std::path::Path) -> Traced {
    let tracer = Tracer::new();
    let mut counters = Counters::default();
    let store = RunStore::open(store_dir).expect("benchmark store opens");
    let cache = ProfileCache::new();
    let mut requests = plan.traced_requests();
    if fault == Fault::Panic {
        requests[0].clients_per_round = Some(requests[0].experiment.num_clients + 1);
    }
    let mut runs = Vec::with_capacity(requests.len());
    let root = Ctx::default();
    let (audit, wall_s) = tracer.timed(root, "workload", |root| {
        let start = tracer.now();
        for (i, request) in requests.iter().enumerate() {
            let ctx = Ctx {
                run: i as u32,
                ..root
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                tracer.timed(ctx, "run", |ctx| {
                    traced_run(&tracer, ctx, request, &cache, plan, &mut counters)
                })
            }));
            let outcome = outcome.map_err(|p| panic_text(p.as_ref()));
            if let Ok(report) = &outcome {
                let artifact =
                    RunArtifact::new(RunKey::of(request), request.clone(), report.clone());
                tracer
                    .timed(ctx, "sweep.store_write", |_| store.write(&artifact))
                    .expect("benchmark store writable");
                if fault == Fault::Digest && i == 0 {
                    tamper_digest(&store, artifact.key);
                }
            }
            runs.push(outcome);
        }
        let audit = tracer.timed(root, "sweep.audit", |_| audit_store(&store));
        (audit, tracer.now() - start)
    });
    Traced {
        spans: tracer.into_spans(),
        counters,
        runs,
        audit,
        wall_s,
    }
}

/// Spans that belong to no layer: their self time is unattributed.
const GLUE: [&str; 3] = ["workload", "run", "round"];

/// Per-name self time and call count of the coordinating thread's spans
/// (self time = duration minus the children's), which partition the
/// traced wall time exactly; worker spans are reported beside it.
pub struct LayerTable {
    pub rows: Vec<(&'static str, f64, u64)>,
    pub wall_s: f64,
    pub unattributed_s: f64,
}

pub fn layer_table(spans: &[Span]) -> LayerTable {
    let mut child_s = std::collections::BTreeMap::<u64, f64>::new();
    for s in spans.iter().filter(|s| s.tid == 0) {
        *child_s.entry(s.parent).or_default() += s.dur();
    }
    let mut rows = std::collections::BTreeMap::<&'static str, (f64, u64)>::new();
    for s in spans {
        let own = if s.tid == 0 {
            s.dur() - child_s.get(&s.id).copied().unwrap_or(0.0)
        } else {
            s.dur()
        };
        let row = rows.entry(s.name).or_default();
        row.0 += own;
        row.1 += 1;
    }
    let wall_s = spans
        .iter()
        .find(|s| s.name == "workload")
        .map_or(0.0, Span::dur);
    let unattributed_s = GLUE.iter().filter_map(|g| rows.get(g)).map(|r| r.0).sum();
    LayerTable {
        rows: rows.into_iter().map(|(n, (s, c))| (n, s, c)).collect(),
        wall_s,
        unattributed_s,
    }
}

impl LayerTable {
    pub fn self_s(&self, name: &str) -> f64 {
        self.rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1)
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.rows.iter().find(|r| r.0 == name).map_or(0, |r| r.2)
    }

    /// Fixed-width text: one row per span name, worker lanes marked.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<28} {:>12} {:>8} {:>8}\n",
            "span", "self [s]", "share", "calls"
        );
        for &(name, secs, calls) in &self.rows {
            let lane = if name == "fl.client.train_call" {
                " (worker lanes, not in the wall partition)"
            } else if GLUE.contains(&name) {
                " (unattributed)"
            } else {
                ""
            };
            out.push_str(&format!(
                "{name:<28} {secs:>12.6} {:>7.2}% {calls:>8}{lane}\n",
                100.0 * secs / self.wall_s
            ));
        }
        out
    }
}

/// One Chrome trace-event (`"X"` complete event), the format
/// `tifl trace --host` writes; the benchmark's spans use pid 3 so they
/// open beside the program's own virtual (pid 1) and host (pid 2) lanes.
#[derive(Serialize)]
struct ChromeSpan {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    dur: f64,
    pid: u64,
    tid: u64,
    args: ChromeArgs,
}

#[derive(Serialize)]
struct ChromeArgs {
    span: u64,
    parent: u64,
    run: u32,
    round: Option<u64>,
}

pub fn chrome_json(spans: &[Span]) -> String {
    let events: Vec<ChromeSpan> = spans
        .iter()
        .map(|s| ChromeSpan {
            name: s.name.to_string(),
            cat: format!(
                "perfbench:{}",
                s.name.rsplit_once('.').map_or(s.name, |(l, _)| l)
            ),
            ph: "X".into(),
            ts: s.start * 1e6,
            dur: s.dur() * 1e6,
            pid: 3,
            tid: u64::from(s.tid),
            args: ChromeArgs {
                span: s.id,
                parent: s.parent,
                run: s.run,
                round: s.round,
            },
        })
        .collect();
    serde_json::to_string(&events).expect("trace events serialize")
}
