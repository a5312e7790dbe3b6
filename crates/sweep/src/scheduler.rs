//! The sweep scheduler: whole runs multiplexed over a worker pool,
//! with per-run panic isolation and a shared profile cache.
//!
//! Every run is an independent pure function of its request, so the
//! scheduler can hand runs to `std::thread` workers in any order and
//! still produce results bit-for-bit identical to a serial loop — the
//! worker count is an execution knob, never a result knob (pinned in
//! `tests/sweep.rs`). The one piece of genuinely shared work, the
//! profiling pass, goes through a [`ProfileCache`] keyed by
//! (experiment × comm axis) — exactly the key `Runner`'s own per-config
//! cache uses — so a sweep profiles each topology once, not once per
//! run.

use crate::manifest::{content_key, KeyedRun, RunKey, SweepManifest};
use crate::store::{
    host_parallelism, LaneSpan, RunArtifact, RunStore, RunSummaryLine, SweepSummary, WorkerLane,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Write;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tifl_comm::CommSpec;
use tifl_core::experiment::ExperimentConfig;
use tifl_core::runner::{Experiment, RunRequest, Runner, SharedProfile};
use tifl_fl::session::SessionOverrides;
use tifl_fl::TrainingReport;
use tifl_obs::{HostClock, MetricsSnapshot, Phase, PhaseTotals, RealClock};

/// The cross-run profile-cache key: a content hash of the resolved
/// experiment and the spec's comm axis — the same two inputs
/// `Runner::profile` derives its measurement from, so equal keys imply
/// interchangeable profiles.
#[must_use]
pub fn profile_key(experiment: &ExperimentConfig, comm: Option<CommSpec>) -> u128 {
    let canon = serde_json::to_string(&(experiment, comm)).expect("experiment configs serialize");
    content_key(&canon)
}

/// A mutex-guarded profile/tier cache shared by every worker of a
/// sweep. Each key is computed exactly once: concurrent requesters of
/// the same topology block on the key's slot until the first one
/// finishes measuring.
#[derive(Default)]
pub struct ProfileCache {
    slots: Mutex<HashMap<u128, Arc<Mutex<Option<SharedProfile>>>>>,
    computed: AtomicUsize,
    hits: AtomicUsize,
}

impl ProfileCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// How many profiling passes actually ran — the sharing observable
    /// the tests and the sweep summary assert on.
    #[must_use]
    pub fn computed(&self) -> usize {
        self.computed.load(Ordering::SeqCst)
    }

    /// How many requests were answered from the cache — the work the
    /// sharing saved (`hits + computed == requests`).
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::SeqCst)
    }

    /// The profile under `key`, computing it with `compute` on first
    /// use. `compute` runs outside the global map lock (only the
    /// per-key slot is held), so distinct topologies profile in
    /// parallel while duplicate requests wait instead of re-measuring.
    ///
    /// A `compute` that panics leaves the slot empty, not wedged: the
    /// panic unwinds to this run's isolation boundary with its real
    /// message, and later requesters of the key recover the (poisoned
    /// but still empty) slot and try the measurement themselves — so
    /// every affected run reports the actual profiling error instead
    /// of a lock-poisoning artifact.
    pub fn get_or_compute(
        &self,
        key: u128,
        compute: impl FnOnce() -> SharedProfile,
    ) -> SharedProfile {
        let slot = {
            let mut slots = self
                .slots
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            Arc::clone(slots.entry(key).or_default())
        };
        let mut guard = slot
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(profile) = guard.as_ref() {
            self.hits.fetch_add(1, Ordering::SeqCst);
            return Arc::clone(profile);
        }
        let profile = compute();
        *guard = Some(Arc::clone(&profile));
        self.computed.fetch_add(1, Ordering::SeqCst);
        profile
    }
}

/// What happened to one scheduled run.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Executed this sweep; artifact written (when a store is attached).
    Completed {
        /// The produced artifact.
        artifact: RunArtifact,
        /// Wall-clock seconds spent on the run.
        wall_clock_sec: f64,
        /// Per-phase host-seconds inside the run (profile, plan, train,
        /// encode, fold, eval) plus the artifact's store write.
        phases: PhaseTotals,
    },
    /// A valid artifact already existed — resume skipped the run and
    /// loaded it instead.
    Skipped {
        /// The pre-existing artifact.
        artifact: RunArtifact,
    },
    /// The run (or its artifact write) panicked/failed; the rest of the
    /// sweep was unaffected.
    Failed {
        /// The run's key.
        key: RunKey,
        /// The run's display label.
        label: String,
        /// Panic or I/O message.
        message: String,
    },
}

impl RunOutcome {
    /// The run's key.
    #[must_use]
    pub fn key(&self) -> RunKey {
        match self {
            RunOutcome::Completed { artifact, .. } | RunOutcome::Skipped { artifact } => {
                artifact.key
            }
            RunOutcome::Failed { key, .. } => *key,
        }
    }

    /// The run's label.
    #[must_use]
    pub fn label(&self) -> &str {
        match self {
            RunOutcome::Completed { artifact, .. } | RunOutcome::Skipped { artifact } => {
                &artifact.label
            }
            RunOutcome::Failed { label, .. } => label,
        }
    }

    /// The training report, unless the run failed.
    #[must_use]
    pub fn report(&self) -> Option<&TrainingReport> {
        match self {
            RunOutcome::Completed { artifact, .. } | RunOutcome::Skipped { artifact } => {
                Some(&artifact.report)
            }
            RunOutcome::Failed { .. } => None,
        }
    }

    /// True for [`RunOutcome::Failed`].
    #[must_use]
    pub fn is_failed(&self) -> bool {
        matches!(self, RunOutcome::Failed { .. })
    }

    /// The run's per-phase host-seconds (zero unless completed).
    #[must_use]
    pub fn phases(&self) -> PhaseTotals {
        match self {
            RunOutcome::Completed { phases, .. } => *phases,
            _ => PhaseTotals::default(),
        }
    }

    fn summary_line(&self) -> RunSummaryLine {
        match self {
            RunOutcome::Completed {
                artifact,
                wall_clock_sec,
                ..
            } => RunSummaryLine {
                key: artifact.key,
                status: "completed".into(),
                wall_clock_sec: *wall_clock_sec,
                summary: Some(artifact.report.summary()),
                error: None,
            },
            RunOutcome::Skipped { artifact } => RunSummaryLine {
                key: artifact.key,
                status: "skipped".into(),
                wall_clock_sec: 0.0,
                summary: Some(artifact.report.summary()),
                error: None,
            },
            RunOutcome::Failed {
                key,
                label: _,
                message,
            } => RunSummaryLine {
                key: *key,
                status: "failed".into(),
                wall_clock_sec: 0.0,
                summary: None,
                error: Some(message.clone()),
            },
        }
    }
}

/// The result of one sweep execution: per-run outcomes in canonical
/// manifest order plus sweep-level observables.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-run outcomes, in manifest order.
    pub outcomes: Vec<RunOutcome>,
    /// Worker threads the sweep ran on.
    pub workers: usize,
    /// Profiling passes actually executed (see [`ProfileCache`]).
    pub profiles_computed: usize,
    /// Profile requests answered from the shared cache.
    pub profile_cache_hits: usize,
    /// Per-worker utilization timelines (one lane per worker).
    pub worker_lanes: Vec<WorkerLane>,
    /// Total wall-clock seconds.
    pub wall_clock_sec: f64,
}

impl SweepReport {
    /// Runs executed this sweep.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, RunOutcome::Completed { .. }))
            .count()
    }

    /// Runs satisfied from pre-existing artifacts.
    #[must_use]
    pub fn skipped(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, RunOutcome::Skipped { .. }))
            .count()
    }

    /// Runs that failed.
    #[must_use]
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_failed()).count()
    }

    /// `(key, label, message)` of every failed run.
    #[must_use]
    pub fn failures(&self) -> Vec<(RunKey, &str, &str)> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                RunOutcome::Failed {
                    key,
                    label,
                    message,
                } => Some((*key, label.as_str(), message.as_str())),
                _ => None,
            })
            .collect()
    }

    /// The reports of the non-failed runs, in manifest order.
    #[must_use]
    pub fn reports(&self) -> Vec<&TrainingReport> {
        self.outcomes
            .iter()
            .filter_map(RunOutcome::report)
            .collect()
    }

    /// All reports, in manifest order, consuming the sweep.
    ///
    /// # Panics
    /// Panics if any run failed, naming every failure — the behaviour
    /// the figure binaries want (a partially plotted figure is a bug).
    #[must_use]
    pub fn into_reports(self) -> Vec<TrainingReport> {
        assert!(
            self.failed() == 0,
            "sweep had failures: {:?}",
            self.failures()
        );
        self.outcomes
            .into_iter()
            .map(|o| match o {
                RunOutcome::Completed { artifact, .. } | RunOutcome::Skipped { artifact } => {
                    artifact.report
                }
                // tifl-lint: allow(panic-in-library) — invariant panic: the assert! above guarantees no Failed outcome reaches this map
                RunOutcome::Failed { .. } => unreachable!("asserted above"),
            })
            .collect()
    }

    /// Summed per-run wall-clock over completed runs — how busy the
    /// pool was, for the occupancy ratio in the summary sidecar.
    #[must_use]
    pub fn worker_busy_sec(&self) -> f64 {
        self.outcomes
            .iter()
            .map(|o| match o {
                RunOutcome::Completed { wall_clock_sec, .. } => *wall_clock_sec,
                _ => 0.0,
            })
            .sum()
    }

    /// Per-phase host-seconds merged over every completed run — where
    /// the sweep's busy time actually went.
    #[must_use]
    pub fn host_phase_sec(&self) -> PhaseTotals {
        let mut totals = PhaseTotals::default();
        for outcome in &self.outcomes {
            totals.merge(&outcome.phases());
        }
        totals
    }

    /// The summary sidecar for this execution.
    #[must_use]
    pub fn summary(&self, name: Option<String>) -> SweepSummary {
        SweepSummary {
            name,
            workers: self.workers,
            host_parallelism: host_parallelism(),
            profiles_computed: self.profiles_computed,
            profile_cache_hits: self.profile_cache_hits,
            resume_skips: self.skipped(),
            worker_busy_sec: self.worker_busy_sec(),
            host_phase_sec: self.host_phase_sec(),
            worker_lanes: self.worker_lanes.clone(),
            wall_clock_sec: self.wall_clock_sec,
            runs: self.outcomes.iter().map(RunOutcome::summary_line).collect(),
        }
    }
}

/// One line of the `--progress` JSONL event stream. Every event
/// carries the same field set (inapplicable ones are `null`), so
/// consumers parse each line with one schema and dispatch on `event`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgressEvent {
    /// `sweep_started` / `run_started` / `run_finished` /
    /// `run_panicked` / `sweep_finished`.
    pub event: String,
    /// Host seconds since the sweep started.
    pub at_sec: f64,
    /// Total runs in the sweep.
    pub total: usize,
    /// Worker threads in the pool (sweep-level events only).
    pub workers: Option<usize>,
    /// Worker that handled the run (run-level events only).
    pub worker: Option<usize>,
    /// The run's canonical manifest index (run-level events only).
    pub index: Option<usize>,
    /// The run's key, rendered as its artifact stem.
    pub key: Option<String>,
    /// The run's display label.
    pub label: Option<String>,
    /// `completed` / `skipped` / `failed` (terminal run events only).
    pub status: Option<String>,
    /// Wall-clock seconds spent on the run (terminal run events only).
    pub wall_clock_sec: Option<f64>,
    /// Per-phase host-seconds inside the run (completed runs only).
    pub phases: Option<PhaseTotals>,
    /// Runs finished so far, including this one.
    pub done: Option<usize>,
    /// Estimated host seconds to sweep completion, extrapolated from
    /// the rate of runs finished so far.
    pub eta_sec: Option<f64>,
    /// Failure message (`run_panicked` only).
    pub message: Option<String>,
}

impl ProgressEvent {
    fn sweep(event: &str, at_sec: f64, total: usize, workers: usize) -> Self {
        Self {
            event: event.to_string(),
            at_sec,
            total,
            workers: Some(workers),
            worker: None,
            index: None,
            key: None,
            label: None,
            status: None,
            wall_clock_sec: None,
            phases: None,
            done: None,
            eta_sec: None,
            message: None,
        }
    }

    fn run(event: &str, at_sec: f64, total: usize, worker: usize, run: &KeyedRun) -> Self {
        Self {
            event: event.to_string(),
            at_sec,
            total,
            workers: None,
            worker: Some(worker),
            index: Some(run.index),
            key: Some(run.key.to_string()),
            label: Some(run.request.spec.display_label()),
            status: None,
            wall_clock_sec: None,
            phases: None,
            done: None,
            eta_sec: None,
            message: None,
        }
    }
}

/// A line-buffered JSONL sink for [`ProgressEvent`]s, shared by every
/// worker of a sweep. Emission is best-effort operator telemetry: a
/// failed write never fails the sweep.
pub struct ProgressLog {
    out: Mutex<Box<dyn Write + Send>>,
}

impl std::fmt::Debug for ProgressLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressLog").finish_non_exhaustive()
    }
}

impl ProgressLog {
    /// A log writing to an arbitrary sink (tests use a shared buffer).
    #[must_use]
    pub fn to_writer(out: Box<dyn Write + Send>) -> Self {
        Self {
            out: Mutex::new(out),
        }
    }

    /// A log appending to a file at `path` (created if missing).
    ///
    /// # Errors
    /// Propagates the underlying filesystem error.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::to_writer(Box::new(file)))
    }

    /// Emit one event as one JSON line, flushing so a tailing consumer
    /// sees it immediately. Write errors are swallowed (best-effort).
    pub fn emit(&self, event: &ProgressEvent) {
        let mut line = serde_json::to_string(event).expect("progress events serialize");
        line.push('\n');
        let mut out = self
            .out
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = out.write_all(line.as_bytes());
        let _ = out.flush();
    }
}

/// Multiplexes whole runs over a pool of `std::thread` workers.
///
/// All host-time reads go through the injected [`HostClock`]
/// ([`RealClock`] by default, a frozen clock in tests), so the
/// scheduler itself contains no raw wall-clock calls — timings are an
/// operator-facing observable, never an input to run results.
#[derive(Clone)]
pub struct SweepScheduler {
    workers: usize,
    clock: Arc<dyn HostClock>,
}

impl std::fmt::Debug for SweepScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepScheduler")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl SweepScheduler {
    /// A scheduler with `workers` threads (0 = one per logical core).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            host_parallelism()
        } else {
            workers
        };
        Self {
            workers,
            clock: RealClock::shared(),
        }
    }

    /// Replace the host clock (tests pin timeline structure with a
    /// deterministic clock).
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn HostClock>) -> Self {
        self.clock = clock;
        self
    }

    /// The worker count in effect.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Expand `manifest` and execute it. With a store attached, every
    /// completed run is persisted under its key and (when `resume` is
    /// set) runs whose valid artifacts already exist are skipped; the
    /// sweep summary sidecar is rewritten at the end.
    pub fn run(
        &self,
        manifest: &SweepManifest,
        store: Option<&RunStore>,
        resume: bool,
    ) -> SweepReport {
        self.run_logged(manifest, store, resume, None)
    }

    /// [`SweepScheduler::run`] with an optional JSONL progress stream
    /// (the `tifl sweep --progress` path).
    pub fn run_logged(
        &self,
        manifest: &SweepManifest,
        store: Option<&RunStore>,
        resume: bool,
        progress: Option<&ProgressLog>,
    ) -> SweepReport {
        let runs = manifest.expand();
        let report = self.execute_logged(&runs, store, resume, progress);
        if let Some(store) = store {
            if let Err(e) = store.write_summary(&report.summary(manifest.name.clone())) {
                // tifl-lint: allow(print-in-library) — operator-facing warning: a lost sidecar must be visible even though the sweep result stands
                eprintln!("[sweep] warning: writing sweep summary failed: {e}");
            }
        }
        report
    }

    /// Execute an explicit run list (the seam `run` and the tests
    /// share). Outcomes come back in input order regardless of which
    /// worker finished which run when.
    pub fn execute(
        &self,
        runs: &[KeyedRun],
        store: Option<&RunStore>,
        resume: bool,
    ) -> SweepReport {
        self.execute_logged(runs, store, resume, None)
    }

    /// [`SweepScheduler::execute`] with an optional JSONL progress
    /// stream.
    #[allow(clippy::too_many_lines)]
    pub fn execute_logged(
        &self,
        runs: &[KeyedRun],
        store: Option<&RunStore>,
        resume: bool,
        progress: Option<&ProgressLog>,
    ) -> SweepReport {
        let clock = self.clock.as_ref();
        let t0 = clock.now_sec();
        let total = runs.len();
        let cache = ProfileCache::new();
        let next = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<RunOutcome>>> = (0..total).map(|_| Mutex::new(None)).collect();
        let workers = self.workers.min(total.max(1));
        let lane_slots: Vec<Mutex<Vec<LaneSpan>>> =
            (0..workers).map(|_| Mutex::new(Vec::new())).collect();

        if let Some(log) = progress {
            log.emit(&ProgressEvent::sweep("sweep_started", 0.0, total, workers));
        }

        std::thread::scope(|scope| {
            let slots = &slots;
            let cache = &cache;
            let next = &next;
            let finished = &finished;
            for (w, lane_slot) in lane_slots.iter().enumerate() {
                scope.spawn(move || {
                    let mut lane: Vec<LaneSpan> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= total {
                            break;
                        }
                        let run = &runs[i];
                        let start_sec = clock.now_sec() - t0;
                        if let Some(log) = progress {
                            log.emit(&ProgressEvent::run("run_started", start_sec, total, w, run));
                        }
                        let outcome = execute_one(run, cache, store, resume, clock);
                        let end_sec = clock.now_sec() - t0;
                        let done = finished.fetch_add(1, Ordering::SeqCst) + 1;
                        let tag = match &outcome {
                            RunOutcome::Completed { wall_clock_sec, .. } => {
                                format!("done in {wall_clock_sec:.1}s")
                            }
                            RunOutcome::Skipped { .. } => "skipped (artifact exists)".into(),
                            RunOutcome::Failed { message, .. } => format!("FAILED: {message}"),
                        };
                        // tifl-lint: allow(print-in-library) — operator-facing progress line for long sweeps; stderr only, never part of results
                        eprintln!(
                            "[sweep] {done}/{total} {} ({}): {tag}",
                            outcome.label(),
                            run.key,
                        );
                        if let Some(log) = progress {
                            let name = if outcome.is_failed() {
                                "run_panicked"
                            } else {
                                "run_finished"
                            };
                            let mut event = ProgressEvent::run(name, end_sec, total, w, run);
                            event.status = Some(
                                match &outcome {
                                    RunOutcome::Completed { .. } => "completed",
                                    RunOutcome::Skipped { .. } => "skipped",
                                    RunOutcome::Failed { .. } => "failed",
                                }
                                .to_string(),
                            );
                            event.wall_clock_sec = Some(end_sec - start_sec);
                            event.done = Some(done);
                            if let RunOutcome::Completed { phases, .. } = &outcome {
                                event.phases = Some(*phases);
                            }
                            if let RunOutcome::Failed { message, .. } = &outcome {
                                event.message = Some(message.clone());
                            }
                            // ETA from the completed-run rate so far:
                            // runs-per-second over the elapsed window,
                            // extrapolated to the remainder.
                            if end_sec > 0.0 && done < total {
                                let rate = done as f64 / end_sec;
                                event.eta_sec = Some((total - done) as f64 / rate);
                            }
                            log.emit(&event);
                        }
                        lane.push(LaneSpan {
                            index: run.index,
                            key: run.key,
                            label: outcome.label().to_string(),
                            start_sec,
                            end_sec,
                            phases: outcome.phases(),
                        });
                        *slots[i].lock().expect("outcome slot poisoned") = Some(outcome);
                    }
                    *lane_slot.lock().expect("lane slot poisoned") = lane;
                });
            }
        });

        let outcomes: Vec<RunOutcome> = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("outcome slot poisoned")
                    .expect("every slot filled before scope exit")
            })
            .collect();
        let worker_lanes: Vec<WorkerLane> = lane_slots
            .into_iter()
            .enumerate()
            .map(|(worker, slot)| WorkerLane {
                worker,
                runs: slot.into_inner().expect("lane slot poisoned"),
            })
            .collect();
        let wall_clock_sec = clock.now_sec() - t0;
        if let Some(log) = progress {
            let mut event = ProgressEvent::sweep("sweep_finished", wall_clock_sec, total, workers);
            event.done = Some(outcomes.len());
            log.emit(&event);
        }
        SweepReport {
            outcomes,
            workers,
            profiles_computed: cache.computed(),
            profile_cache_hits: cache.hits(),
            worker_lanes,
            wall_clock_sec,
        }
    }
}

fn execute_one(
    run: &KeyedRun,
    cache: &ProfileCache,
    store: Option<&RunStore>,
    resume: bool,
    clock: &dyn HostClock,
) -> RunOutcome {
    if resume {
        if let Some(artifact) = store.and_then(|s| s.load_valid(run.key, &run.request)) {
            return RunOutcome::Skipped { artifact };
        }
    }
    let label = run.request.spec.display_label();
    let started = clock.now_sec();
    match std::panic::catch_unwind(AssertUnwindSafe(|| run_one(&run.request, cache, clock))) {
        Ok((report, metrics, mut phases)) => {
            let mut artifact = RunArtifact::new(run.key, run.request.clone(), report);
            artifact.metrics = Some(metrics);
            if let Some(store) = store {
                let t_write = clock.now_sec();
                let wrote = store.write(&artifact);
                phases.add(Phase::StoreWrite, clock.now_sec() - t_write);
                if let Err(e) = wrote {
                    return RunOutcome::Failed {
                        key: run.key,
                        label,
                        message: format!("writing artifact: {e}"),
                    };
                }
            }
            RunOutcome::Completed {
                artifact,
                wall_clock_sec: clock.now_sec() - started,
                phases,
            }
        }
        Err(payload) => RunOutcome::Failed {
            key: run.key,
            label,
            message: panic_message(payload.as_ref()),
        },
    }
}

/// Execute one request, sourcing the profiling pass from the shared
/// cache. The report is bit-for-bit equivalent to `request.run()`: the
/// cache hands the runner exactly the measurement it would have taken
/// itself (re-profiling runs measure per segment inside the run and
/// bypass the cache, like an unshared runner). Runs observed with a
/// zero-capacity ring — the deterministic metrics snapshot rides into
/// the artifact, no trace is stored — and the run's per-phase
/// host-seconds come back alongside for the sweep's utilization lanes.
/// The cache request — a fill, or a wait on another worker's fill —
/// is timed on `clock` and charged to the run's [`Phase::Profile`].
fn run_one(
    request: &RunRequest,
    cache: &ProfileCache,
    clock: &dyn HostClock,
) -> (TrainingReport, MetricsSnapshot, PhaseTotals) {
    let experiment = request.experiment();
    let spec = request.spec.clone();
    let wants_shared = spec.selection.needs_profile() && spec.reprofile_every.is_none();
    let mut fill_sec = 0.0;
    let mut observed = if wants_shared {
        let comm = spec.profile_axis();
        let t_fill = clock.now_sec();
        let profile = cache.get_or_compute(profile_key(&experiment, comm), || {
            let overrides = SessionOverrides {
                comm,
                ..SessionOverrides::default()
            };
            Arc::new(experiment.profile_and_tier_with(&overrides))
        });
        fill_sec = clock.now_sec() - t_fill;
        Runner::with_shared_profile(&experiment, spec, profile).run_observed(0)
    } else {
        Runner::with_spec(&experiment, spec).run_observed(0)
    };
    observed.host_phases.add(Phase::Profile, fill_sec);
    (observed.report, observed.metrics, observed.host_phases)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "run panicked".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::SweepManifest;
    use tifl_core::policy::Policy;
    use tifl_core::runner::{RunSpec, SelectionStrategy};

    fn tiny_manifest(policies: &[Policy]) -> SweepManifest {
        let mut manifest = SweepManifest::new(ExperimentConfig::tiny(60));
        manifest.axes.selection = policies
            .iter()
            .map(|p| SelectionStrategy::TierPolicy { policy: p.clone() })
            .collect();
        manifest
    }

    #[test]
    fn profile_cache_computes_each_key_once() {
        let cache = ProfileCache::new();
        let exp = ExperimentConfig::tiny(60);
        let mk = || Arc::new(exp.profile_and_tier());
        let a = cache.get_or_compute(1, mk);
        let b = cache.get_or_compute(1, || unreachable!("key 1 already cached"));
        assert!(Arc::ptr_eq(&a, &b));
        let _ = cache.get_or_compute(2, mk);
        assert_eq!(cache.computed(), 2);
    }

    #[test]
    fn profile_cache_survives_a_panicking_compute() {
        // A compute that panics (a degenerate topology) must not wedge
        // the key's slot: the next requester recovers it and takes the
        // measurement itself, so each run surfaces the real error.
        let cache = ProfileCache::new();
        let attempt = std::panic::catch_unwind(AssertUnwindSafe(|| {
            cache.get_or_compute(1, || panic!("profiling exploded"));
        }));
        assert!(attempt.is_err());
        assert_eq!(cache.computed(), 0);
        let exp = ExperimentConfig::tiny(60);
        let profile = cache.get_or_compute(1, || Arc::new(exp.profile_and_tier()));
        assert_eq!(cache.computed(), 1);
        let again = cache.get_or_compute(1, || unreachable!("cached after recovery"));
        assert!(Arc::ptr_eq(&profile, &again));
    }

    #[test]
    fn profile_keys_separate_experiments_and_comm() {
        let a = ExperimentConfig::tiny(1);
        let b = ExperimentConfig::tiny(2);
        assert_eq!(profile_key(&a, None), profile_key(&a, None));
        assert_ne!(profile_key(&a, None), profile_key(&b, None));
        assert_ne!(
            profile_key(&a, None),
            profile_key(&a, Some(CommSpec::default()))
        );
    }

    #[test]
    fn sweep_shares_one_profile_across_tiered_runs() {
        let manifest = tiny_manifest(&[Policy::uniform(5), Policy::fast(5), Policy::slow(5)]);
        let report = SweepScheduler::new(2).run(&manifest, None, false);
        assert_eq!(report.completed(), 3);
        assert_eq!(report.failed(), 0);
        assert_eq!(
            report.profiles_computed, 1,
            "one topology must profile exactly once"
        );
    }

    #[test]
    fn vanilla_sweeps_never_profile() {
        let manifest = SweepManifest::new(ExperimentConfig::tiny(61));
        let report = SweepScheduler::new(1).run(&manifest, None, false);
        assert_eq!(report.completed(), 1);
        assert_eq!(report.profiles_computed, 0);
    }

    #[test]
    fn a_panicking_run_is_isolated() {
        // vanilla + reprofile_every is rejected by the runner with a
        // panic; the surrounding sweep must carry on.
        let mut runs = tiny_manifest(&[Policy::uniform(5)]).expand();
        let mut bad = runs[0].request.clone();
        bad.spec = RunSpec {
            reprofile_every: Some(2),
            ..RunSpec::default()
        };
        runs.push(KeyedRun {
            index: 1,
            key: RunKey::of(&bad),
            request: bad,
        });
        let report = SweepScheduler::new(2).execute(&runs, None, false);
        assert_eq!(report.completed(), 1);
        assert_eq!(report.failed(), 1);
        let failures = report.failures();
        assert!(
            failures[0]
                .2
                .contains("re-profiling requires a tiered policy"),
            "unexpected failure message: {failures:?}"
        );
        assert!(!report.outcomes[0].is_failed());
        assert!(report.outcomes[1].is_failed());
    }

    #[test]
    fn scheduler_defaults_workers_to_host_parallelism() {
        assert_eq!(SweepScheduler::new(0).workers(), host_parallelism());
        assert_eq!(SweepScheduler::new(3).workers(), 3);
    }

    #[test]
    fn completed_runs_carry_phase_totals_and_lanes() {
        let manifest = tiny_manifest(&[Policy::uniform(5), Policy::fast(5)]);
        let report = SweepScheduler::new(2).run(&manifest, None, false);
        assert_eq!(report.completed(), 2);
        for outcome in &report.outcomes {
            let phases = outcome.phases();
            assert!(
                phases.train_sec >= 0.0 && phases.fold_sec >= 0.0,
                "phase totals must be populated: {phases:?}"
            );
        }
        // Every run appears on exactly one worker lane.
        assert_eq!(report.worker_lanes.len(), report.workers);
        let lane_runs: usize = report.worker_lanes.iter().map(|l| l.runs.len()).sum();
        assert_eq!(lane_runs, 2);
        // The merged phase totals land in the summary sidecar shape.
        let summary = report.summary(None);
        assert_eq!(summary.worker_lanes, report.worker_lanes);
        assert!((summary.host_phase_sec.total() - report.host_phase_sec().total()).abs() < 1e-12);
    }

    #[test]
    fn frozen_clock_pins_sweep_timeline_structure() {
        use tifl_obs::FrozenClock;
        // Serial sweep on a frozen clock: every clock read ticks once,
        // so the lane timeline is fully deterministic — monotone,
        // non-overlapping spans in pick-up order.
        let manifest = tiny_manifest(&[Policy::uniform(5), Policy::fast(5)]);
        let report = SweepScheduler::new(1)
            .with_clock(FrozenClock::shared())
            .run(&manifest, None, false);
        assert_eq!(report.completed(), 2);
        assert_eq!(report.worker_lanes.len(), 1);
        let lane = &report.worker_lanes[0];
        assert_eq!(lane.runs.len(), 2);
        let mut last_end = 0.0;
        for span in &lane.runs {
            assert!(span.start_sec >= last_end, "lane spans must not overlap");
            assert!(span.end_sec > span.start_sec);
            last_end = span.end_sec;
        }
        assert!(report.wall_clock_sec >= last_end);
    }

    #[test]
    fn profile_cache_requests_are_charged_to_the_run() {
        use tifl_obs::FrozenClock;
        // On a serial sweep's frozen clock (one second per read) the
        // cache request spans exactly one tick, fill or hit; the run's
        // own lookup adds only microseconds, and vanilla runs profile
        // nothing.
        let mut manifest = tiny_manifest(&[Policy::uniform(5), Policy::fast(5)]);
        manifest.axes.selection.push(SelectionStrategy::Vanilla);
        let report = SweepScheduler::new(1)
            .with_clock(FrozenClock::shared())
            .run(&manifest, None, false);
        assert_eq!(report.completed(), 3);
        assert_eq!(report.profiles_computed, 1);
        for outcome in &report.outcomes {
            let profile_sec = outcome.phases().profile_sec;
            if outcome.label() == "vanilla" {
                assert_eq!(profile_sec, 0.0);
            } else {
                assert!(
                    (1.0..1.5).contains(&profile_sec),
                    "{}: profile_sec {profile_sec}",
                    outcome.label()
                );
            }
        }
    }

    #[test]
    fn progress_log_streams_parseable_events() {
        use std::sync::Arc as StdArc;

        #[derive(Clone, Default)]
        struct SharedBuf(StdArc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("buf").extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let buf = SharedBuf::default();
        let log = ProgressLog::to_writer(Box::new(buf.clone()));
        let manifest = tiny_manifest(&[Policy::uniform(5), Policy::fast(5)]);
        let runs = manifest.expand();
        let report = SweepScheduler::new(2).execute_logged(&runs, None, false, Some(&log));
        assert_eq!(report.completed(), 2);

        let bytes = buf.0.lock().expect("buf").clone();
        let text = String::from_utf8(bytes).expect("utf8");
        let events: Vec<ProgressEvent> = text
            .lines()
            .map(|line| serde_json::from_str(line).expect("every line parses"))
            .collect();
        // started + per-run (started, finished) + finished.
        assert_eq!(events.len(), 2 + 2 * runs.len());
        assert_eq!(events[0].event, "sweep_started");
        assert_eq!(events[0].workers, Some(2));
        assert_eq!(events.last().expect("nonempty").event, "sweep_finished");
        let finished: Vec<_> = events
            .iter()
            .filter(|e| e.event == "run_finished")
            .collect();
        assert_eq!(finished.len(), runs.len());
        assert!(finished
            .iter()
            .all(|e| e.status.as_deref() == Some("completed") && e.phases.is_some()));
        // `done` counters over terminal events are a permutation of 1..=n.
        let mut dones: Vec<usize> = finished.iter().filter_map(|e| e.done).collect();
        dones.sort_unstable();
        assert_eq!(dones, vec![1, 2]);
    }

    #[test]
    fn a_panicking_run_emits_run_panicked() {
        let mut runs = tiny_manifest(&[Policy::uniform(5)]).expand();
        let mut bad = runs[0].request.clone();
        bad.spec = RunSpec {
            reprofile_every: Some(2),
            ..RunSpec::default()
        };
        runs.push(KeyedRun {
            index: 1,
            key: RunKey::of(&bad),
            request: bad,
        });
        let dir = std::env::temp_dir().join(format!("tifl-progress-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("progress.jsonl");
        let log = ProgressLog::create(&path).expect("log opens");
        let report = SweepScheduler::new(1).execute_logged(&runs, None, false, Some(&log));
        assert_eq!(report.failed(), 1);
        let text = std::fs::read_to_string(&path).expect("log readable");
        let events: Vec<ProgressEvent> = text
            .lines()
            .map(|line| serde_json::from_str(line).expect("every line parses"))
            .collect();
        let panicked: Vec<_> = events
            .iter()
            .filter(|e| e.event == "run_panicked")
            .collect();
        assert_eq!(panicked.len(), 1);
        assert!(panicked[0]
            .message
            .as_deref()
            .expect("message present")
            .contains("re-profiling requires a tiered policy"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
