//! The composable run API: [`RunSpec`] describes *what* to run,
//! [`Runner`] owns the one canonical profile → tier → select → train
//! pipeline that executes it.
//!
//! The paper's evaluation (§5) is a cross product of selection strategy
//! (vanilla / static tier policy / adaptive / deadline), aggregation
//! mode (wait-all vs Bonawitz-style over-selection), local-training
//! variant (FedAvg vs FedProx) and re-profiling cadence. A [`RunSpec`]
//! is exactly that cross product as a serde-serializable value, so every
//! cell of the grid — including combinations the paper never ran, like
//! FedProx under adaptive tiering — is one declarative description away:
//!
//! ```no_run
//! use tifl_core::experiment::ExperimentConfig;
//! use tifl_core::runner::Experiment;
//!
//! let cfg = ExperimentConfig::cifar10_resource_het(42);
//! let report = cfg.runner().adaptive(None).fedprox(0.01).run();
//! println!("final accuracy {:.3}", report.final_accuracy());
//! ```
//!
//! A [`Runner`] binds specs to one experiment and caches the profiling
//! outcome ([`TierAssignment`] + [`ProfileResult`]), so multi-curve
//! figure binaries profile once per configuration instead of once per
//! curve. Anything implementing [`Experiment`] gets the full API —
//! `ExperimentConfig` and `tifl_leaf::LeafExperiment` both do.
//!
//! RNG streams are bit-for-bit compatible with the legacy `run_*`
//! methods: the selector stream is `split_seed(seed, 0x5E1EC7)` (keyed
//! per re-profiling segment exactly as before) and the session stream is
//! owned by [`Experiment::build_session`], so a spec reproducing a
//! legacy call reproduces its [`TrainingReport`] exactly.

use crate::baselines::DeadlineSelector;
use crate::exec::{EventEngine, ExecBackend};
use crate::experiment::ExperimentConfig;
use crate::policy::Policy;
use crate::profiler::{ProfileResult, Profiler, ProfilerConfig};
use crate::scheduler::{AdaptiveConfig, AdaptiveTierSelector, StaticTierSelector};
use crate::tiering::{TierAssignment, TieringConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tifl_comm::{CodecSpec, CommSpec, HierarchySpec, LinkModel};
use tifl_fl::selector::{ClientSelector, RandomSelector};
use tifl_fl::session::{AggregationMode, Session, SessionOverrides};
use tifl_fl::TrainingReport;
use tifl_obs::{
    HostClock, HostProfiler, HostSpan, MetricsSnapshot, Phase, PhaseTotals, RealClock, RunObserver,
    TraceEvent, TraceRecord,
};
use tifl_tensor::split_seed;

/// Which client-selection strategy drives the run (the rows of the
/// paper's evaluation matrix).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum SelectionStrategy {
    /// Vanilla FedAvg: uniform random over the whole pool (Algorithm 1).
    #[default]
    Vanilla,
    /// Static tier selection under a fixed probability vector (§4.3).
    /// A vanilla [`Policy`] degrades gracefully to [`Vanilla`]
    /// (matching the legacy `run_policy` behaviour).
    ///
    /// [`Vanilla`]: SelectionStrategy::Vanilla
    TierPolicy {
        /// The Table 1 policy to select tiers with.
        policy: Policy,
    },
    /// Adaptive credit-based tier selection (Algorithm 2, §4.4).
    Adaptive {
        /// Selector parameters; `None` uses [`AdaptiveConfig::for_run`]
        /// defaults for the experiment's round count and tier count.
        config: Option<AdaptiveConfig>,
    },
    /// FedCS-style deadline-filtered random selection (§2 related work).
    Deadline {
        /// Per-round response deadline over profiled latencies.
        deadline_sec: f64,
    },
}

impl SelectionStrategy {
    /// True when the strategy selects uniformly from the whole pool
    /// (either explicitly or via a vanilla tier policy).
    #[must_use]
    pub fn is_vanilla(&self) -> bool {
        match self {
            SelectionStrategy::Vanilla => true,
            SelectionStrategy::TierPolicy { policy } => policy.is_vanilla(),
            _ => false,
        }
    }

    /// True when the strategy needs profiled latencies to select.
    #[must_use]
    pub fn needs_profile(&self) -> bool {
        !self.is_vanilla()
    }
}

/// The local-training objective (§2 related work).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum LocalTraining {
    /// Plain FedAvg local SGD/RMSprop — keeps whatever proximal
    /// coefficient the experiment's `ClientConfig` already carries.
    #[default]
    FedAvg,
    /// FedProx (Li et al.): add the proximal term `μ‖w − w_global‖²/2`
    /// to every local objective.
    FedProx {
        /// Proximal coefficient μ.
        mu: f32,
    },
}

/// A declarative, serializable description of one training run — the
/// cross product of the §5 evaluation axes.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunSpec {
    /// Client-selection strategy.
    #[serde(default)]
    pub selection: SelectionStrategy,
    /// Update-collection strategy: `None` inherits the experiment's
    /// configured mode; `Some(WaitAll)` reproduces Algorithm 1 and
    /// `Some(FirstK { .. })` the Bonawitz et al. over-selection
    /// baseline, regardless of what the experiment configured.
    #[serde(default)]
    pub aggregation: Option<AggregationMode>,
    /// Local-training variant.
    #[serde(default)]
    pub local: LocalTraining,
    /// Re-profile (and re-tier) every this many rounds (§4.2's answer
    /// to drifting device performance). `None` profiles once up front.
    #[serde(default)]
    pub reprofile_every: Option<u64>,
    /// Report label override; `None` derives one from the other fields
    /// (see [`RunSpec::display_label`]).
    #[serde(default)]
    pub label: Option<String>,
    /// Execution mechanism (see [`ExecBackend`]). Never changes the
    /// results — [`ExecBackend::EventDriven`] is bit-for-bit equal to
    /// the default lockstep loop — so it does not decorate the label;
    /// but [`AggregationMode::Async`] scenarios require it.
    #[serde(default)]
    pub backend: ExecBackend,
    /// Communication model: update codec × link model (× optional
    /// aggregation hierarchy). `None` inherits the experiment's
    /// communication setup (the legacy scalar model unless the
    /// experiment configures one); `Some(CommSpec::default())` is the
    /// bit-for-bit Identity/cluster-default equivalent of `None`.
    #[serde(default)]
    pub comm: Option<CommSpec>,
}

/// A profiling outcome shareable across runners and threads — the
/// currency of cross-run profile caches (e.g. the sweep scheduler's):
/// one measurement, many concurrent consumers.
pub type SharedProfile = Arc<(TierAssignment, ProfileResult)>;

impl RunSpec {
    /// The axis the profiling outcome depends on: profiled latencies
    /// see the communication model (links and encoded upload sizes) and
    /// *nothing else* in the spec. This is exactly the [`Runner`]'s
    /// profile-cache key; cross-run caches key on
    /// (experiment, `profile_axis()`) the same way.
    #[must_use]
    pub fn profile_axis(&self) -> Option<CommSpec> {
        self.comm
    }

    /// The session-level overrides this spec implies.
    #[must_use]
    pub fn session_overrides(&self) -> SessionOverrides {
        SessionOverrides {
            aggregation: self.aggregation,
            proximal_mu: match self.local {
                LocalTraining::FedAvg => None,
                LocalTraining::FedProx { mu } => Some(mu),
            },
            comm: self.comm,
        }
    }

    /// The `TrainingReport::policy` label for this spec: the explicit
    /// [`RunSpec::label`] if set, otherwise the selector's name with
    /// `fedprox(μ)` / `overselect(factor)` / `+reprofile` decorations
    /// (matching the labels the legacy `run_*` methods produced).
    /// An inherited aggregation mode (`aggregation: None`) is not
    /// decorated, mirroring how legacy `run_policy` never relabelled
    /// runs on over-selecting configs.
    #[must_use]
    pub fn display_label(&self) -> String {
        if let Some(label) = &self.label {
            return label.clone();
        }
        let mut base = match &self.selection {
            SelectionStrategy::Vanilla => "vanilla".to_string(),
            SelectionStrategy::TierPolicy { policy } => policy.name.clone(),
            SelectionStrategy::Adaptive { .. } => "adaptive".to_string(),
            SelectionStrategy::Deadline { .. } => "fedcs".to_string(),
        };
        if let LocalTraining::FedProx { mu } = self.local {
            base = if self.selection.is_vanilla() {
                format!("fedprox({mu})")
            } else {
                format!("{base}+fedprox({mu})")
            };
        }
        if let Some(AggregationMode::FirstK { factor }) = self.aggregation {
            base = if base == "vanilla" {
                format!("overselect({factor})")
            } else {
                format!("{base}+overselect({factor})")
            };
        }
        if let Some(AggregationMode::Async { max_staleness }) = self.aggregation {
            base = if base == "vanilla" {
                format!("async({max_staleness})")
            } else {
                format!("{base}+async({max_staleness})")
            };
        }
        // The codec decorates only when it is lossy: an Identity comm
        // spec is bit-for-bit the undecorated run, so its label (and
        // reports) must match too. Unlike the other axes the bare
        // suffix (`i8`, `topk(0.1)`) would be cryptic alone, so the
        // selection base always stays.
        if let Some(suffix) = self.comm.and_then(|c| c.codec.label_suffix()) {
            base = format!("{base}+{suffix}");
        }
        if self.reprofile_every.is_some() {
            base = format!("{base}+reprofile");
        }
        base
    }
}

/// An experiment a [`Runner`] can execute: everything the canonical
/// pipeline needs — seeds, horizons, and fresh [`Session`]s.
///
/// Implemented by [`ExperimentConfig`] and `tifl_leaf::LeafExperiment`;
/// implement it for your own experiment type to get the whole
/// [`RunSpec`] grid (including the profiling cache and re-profiling)
/// for free.
pub trait Experiment {
    /// Root seed; the selector stream (`0x5E1EC7`) derives from it.
    fn seed(&self) -> u64;
    /// Global rounds `N`.
    fn rounds(&self) -> u64;
    /// `|K|`: total clients in the pool.
    fn num_clients(&self) -> usize;
    /// Profiler parameters (§4.2).
    fn profiler_config(&self) -> ProfilerConfig;
    /// Tiering parameters (`m` tiers).
    fn tiering_config(&self) -> TieringConfig;
    /// Build a fresh training session with `overrides` applied to the
    /// session configuration (deterministic per experiment).
    fn build_session(&self, overrides: &SessionOverrides) -> Session;

    /// Run the profiler over all clients and tier them (§4.2) — the one
    /// canonical implementation shared by every selection strategy.
    ///
    /// Synthesizes the experiment's data for a throwaway session (see
    /// [`Experiment::profile_and_tier_with`]). Prefer [`Runner::profile`]
    /// in loops: it caches this result.
    #[must_use]
    fn profile_and_tier(&self) -> (TierAssignment, ProfileResult) {
        self.profile_and_tier_with(&SessionOverrides::default())
    }

    /// As [`Experiment::profile_and_tier`] under session overrides —
    /// profiled latencies see the overrides' communication model
    /// (links and encoded upload sizes), so a bandwidth-heterogeneous
    /// or compressed run is tiered by the latencies it will actually
    /// experience.
    ///
    /// This builds a whole session — data synthesis included — only to
    /// profile it and drop it. A caller that already holds a fresh
    /// session under the same comm axis should call
    /// [`Experiment::profile_and_tier_on`] instead, as
    /// [`Runner::run`] does.
    #[must_use]
    fn profile_and_tier_with(
        &self,
        overrides: &SessionOverrides,
    ) -> (TierAssignment, ProfileResult) {
        self.profile_and_tier_on(&self.build_session(overrides))
    }

    /// Profile and tier an already-built `session` at round 0. Profiled
    /// latencies read only the session's cluster (with its comm links)
    /// and each client's training task, so any session this experiment
    /// built under the same comm axis gives the same outcome, whatever
    /// its aggregation mode or FedProx μ.
    #[must_use]
    fn profile_and_tier_on(&self, session: &Session) -> (TierAssignment, ProfileResult) {
        let profiler = Profiler::new(self.profiler_config());
        let result = profiler.profile(session.cluster(), |c| session.task_for(c));
        let assignment =
            TierAssignment::from_latencies(&result.mean_latency, &self.tiering_config());
        (assignment, result)
    }

    /// A [`Runner`] bound to this experiment, with a vanilla default
    /// spec — the entry point of the fluent builder:
    /// `cfg.runner().adaptive(None).fedprox(0.01).run()`.
    fn runner(&self) -> Runner<'_, Self>
    where
        Self: Sized,
    {
        Runner::new(self)
    }
}

/// Executes [`RunSpec`]s against one [`Experiment`], caching the
/// profiling outcome across runs.
///
/// The builder methods mutate the runner's current spec and return
/// `&mut Self`, so one-liners
/// (`cfg.runner().policy(&p).reprofile_every(10).run()`) and reuse
/// across curves
/// (`let mut r = cfg.runner(); for p in &policies { r.policy(p).run(); }`)
/// both work; the latter profiles once for the whole loop.
pub struct Runner<'a, E: Experiment + ?Sized> {
    exp: &'a E,
    spec: RunSpec,
    /// Cached profiling outcome, keyed by the comm axis it was measured
    /// under (profiled latencies depend on links and encoded upload
    /// sizes, and on nothing else in the spec — see
    /// [`RunSpec::profile_axis`]). Shared so a cross-run cache can hand
    /// the same measurement to many runners at once.
    profile: Option<(Option<CommSpec>, SharedProfile)>,
    profile_runs: usize,
    /// Host clock for the observed-run phase profiler; `None` means a
    /// fresh [`RealClock`] per observed run. Tests (and the sweep
    /// scheduler) inject a shared clock here — a [`FrozenClock`] pins
    /// span structure.
    ///
    /// [`FrozenClock`]: tifl_obs::FrozenClock
    host_clock: Option<Arc<dyn HostClock>>,
}

impl<'a, E: Experiment + ?Sized> Runner<'a, E> {
    /// Bind a runner to `exp` with [`RunSpec::default`] defaults
    /// (vanilla selection, inherited aggregation, FedAvg).
    #[must_use]
    pub fn new(exp: &'a E) -> Self {
        Self::with_spec(exp, RunSpec::default())
    }

    /// Bind a runner to `exp` with an explicit starting spec.
    #[must_use]
    pub fn with_spec(exp: &'a E, spec: RunSpec) -> Self {
        Self {
            exp,
            spec,
            profile: None,
            profile_runs: 0,
            host_clock: None,
        }
    }

    /// Bind a runner to `exp` with `spec` and a profiling outcome that
    /// was already measured elsewhere (keyed by the spec's
    /// [`RunSpec::profile_axis`]). The runner will not re-profile
    /// unless its comm axis is later changed — the seam a cross-run
    /// scheduler uses to profile each topology once per sweep instead
    /// of once per run.
    ///
    /// The installed profile must be the outcome of
    /// [`Experiment::profile_and_tier_with`] under this spec's comm
    /// overrides, or run results will differ from an unshared runner.
    #[must_use]
    pub fn with_shared_profile(exp: &'a E, spec: RunSpec, profile: SharedProfile) -> Self {
        let comm = spec.profile_axis();
        let mut runner = Self::with_spec(exp, spec);
        runner.install_profile(comm, profile);
        runner
    }

    /// The current run specification.
    #[must_use]
    pub fn spec(&self) -> &RunSpec {
        &self.spec
    }

    /// Replace the whole spec (e.g. one deserialized from JSON).
    pub fn set_spec(&mut self, spec: RunSpec) -> &mut Self {
        self.spec = spec;
        self
    }

    /// Reset the spec to [`RunSpec::default`] (vanilla selection,
    /// inherited aggregation, FedAvg, no re-profiling, derived label)
    /// while keeping the profiling cache — for runners composing many
    /// unrelated curves over one configuration.
    pub fn reset(&mut self) -> &mut Self {
        self.set_spec(RunSpec::default())
    }

    // -- fluent spec builders ---------------------------------------------

    /// Select uniformly at random from the whole pool (Algorithm 1).
    pub fn vanilla(&mut self) -> &mut Self {
        self.spec.selection = SelectionStrategy::Vanilla;
        self
    }

    /// Select via a static tier policy (§4.3); a vanilla policy behaves
    /// like [`Runner::vanilla`].
    pub fn policy(&mut self, policy: &Policy) -> &mut Self {
        self.spec.selection = SelectionStrategy::TierPolicy {
            policy: policy.clone(),
        };
        self
    }

    /// Select via the adaptive credit-based algorithm (Algorithm 2);
    /// `None` uses [`AdaptiveConfig::for_run`] defaults.
    pub fn adaptive(&mut self, config: Option<AdaptiveConfig>) -> &mut Self {
        self.spec.selection = SelectionStrategy::Adaptive { config };
        self
    }

    /// Select via the FedCS deadline baseline over profiled latencies.
    pub fn deadline(&mut self, deadline_sec: f64) -> &mut Self {
        self.spec.selection = SelectionStrategy::Deadline { deadline_sec };
        self
    }

    /// Force an update-collection strategy (the default inherits the
    /// experiment's configured mode).
    pub fn aggregation(&mut self, mode: AggregationMode) -> &mut Self {
        self.spec.aggregation = Some(mode);
        self
    }

    /// Bonawitz et al. over-selection: ask `ceil(|C| · factor)` clients,
    /// aggregate the first `|C|` responders.
    pub fn overselect(&mut self, factor: f64) -> &mut Self {
        self.aggregation(AggregationMode::FirstK { factor })
    }

    /// Staleness-aware asynchronous aggregation (FedAsync-style): no
    /// round barrier, updates staler than `max_staleness` model
    /// versions are discarded. Implies the event-driven backend — this
    /// also switches the backend to [`ExecBackend::EventDriven`]
    /// (machine-default threads) if the spec still has the lockstep
    /// one, since the lockstep loop cannot express it.
    pub fn async_aggregation(&mut self, max_staleness: u64) -> &mut Self {
        if self.spec.backend == ExecBackend::Lockstep {
            self.spec.backend = ExecBackend::EventDriven { threads: 0 };
        }
        self.aggregation(AggregationMode::Async { max_staleness })
    }

    /// Choose the execution mechanism (results are backend-invariant;
    /// see [`ExecBackend`]).
    pub fn backend(&mut self, backend: ExecBackend) -> &mut Self {
        self.spec.backend = backend;
        self
    }

    /// Execute on the event-driven engine with `threads` training
    /// workers (0 = machine default).
    pub fn event_driven(&mut self, threads: usize) -> &mut Self {
        self.backend(ExecBackend::EventDriven { threads })
    }

    /// Execute on the legacy lockstep round loop (the default).
    pub fn lockstep(&mut self) -> &mut Self {
        self.backend(ExecBackend::Lockstep)
    }

    /// Train with the plain FedAvg objective (keeps the experiment's
    /// configured proximal coefficient).
    pub fn fedavg(&mut self) -> &mut Self {
        self.spec.local = LocalTraining::FedAvg;
        self
    }

    /// Train with the FedProx proximal objective, coefficient `mu`.
    pub fn fedprox(&mut self, mu: f32) -> &mut Self {
        self.spec.local = LocalTraining::FedProx { mu };
        self
    }

    /// Re-profile and re-tier every `every` rounds.
    pub fn reprofile_every(&mut self, every: u64) -> &mut Self {
        self.spec.reprofile_every = Some(every);
        self
    }

    // -- communication ----------------------------------------------------

    /// Install a full communication spec (codec × link model ×
    /// optional hierarchy).
    pub fn comm(&mut self, spec: CommSpec) -> &mut Self {
        self.spec.comm = Some(spec);
        self
    }

    /// Mutable access to the spec's comm axis, defaulting it in first.
    fn comm_mut(&mut self) -> &mut CommSpec {
        self.spec.comm.get_or_insert_with(CommSpec::default)
    }

    /// Compress every client upload with the given codec (keeps the
    /// spec's link model).
    pub fn codec(&mut self, codec: CodecSpec) -> &mut Self {
        self.comm_mut().codec = codec;
        self
    }

    /// Whole-update affine int8 upload compression (~4x fewer uplink
    /// bytes, error bounded by one quantization step per weight).
    pub fn quantized_i8(&mut self) -> &mut Self {
        self.codec(CodecSpec::QuantizeI8)
    }

    /// Magnitude top-k sparsification of the upload delta: keep the
    /// `frac` largest-magnitude coordinates.
    pub fn topk(&mut self, frac: f64) -> &mut Self {
        self.codec(CodecSpec::TopK { frac })
    }

    /// Time transfers through the given link model (keeps the spec's
    /// codec).
    pub fn link(&mut self, link: LinkModel) -> &mut Self {
        self.comm_mut().link = link;
        self
    }

    /// Aggregate through a master/child hierarchy over a `plane_bps`
    /// aggregation plane; the combine cost joins each round's latency.
    pub fn hierarchical(&mut self, fan_out: usize, plane_bps: f64) -> &mut Self {
        self.comm_mut().hierarchy = Some(HierarchySpec { fan_out, plane_bps });
        self
    }

    /// Override the report label.
    pub fn label(&mut self, label: impl Into<String>) -> &mut Self {
        self.spec.label = Some(label.into());
        self
    }

    /// Inject the host clock observed runs stamp their phase spans
    /// with (default: a fresh [`RealClock`] per observed run). Host
    /// time is operator-facing only; swapping the clock can never
    /// change a report.
    pub fn host_clock(&mut self, clock: Arc<dyn HostClock>) -> &mut Self {
        self.host_clock = Some(clock);
        self
    }

    // -- profiling cache --------------------------------------------------

    /// The profiling outcome for this experiment, computed on first use
    /// and cached for every later run/estimate from this runner. The
    /// cache is keyed by the spec's comm axis: switching codec or link
    /// model re-profiles (the latencies genuinely change); everything
    /// else reuses the measurement.
    ///
    /// Called before any run, this synthesizes the experiment's data
    /// for a session of its own
    /// ([`Experiment::profile_and_tier_with`]). A run that needs a
    /// profile and finds none cached profiles the session it is about to
    /// train instead, so the data is synthesized once per run; a later
    /// call here then reuses that measurement.
    pub fn profile(&mut self) -> &(TierAssignment, ProfileResult) {
        self.ensure_profile(None);
        self.profile
            .as_ref()
            .expect("profile cached above")
            .1
            .as_ref()
    }

    /// As [`Runner::profile`] but returns a [`SharedProfile`] handle,
    /// so the measurement can be installed into other runners
    /// ([`Runner::install_profile`]) or parked in a cross-run cache.
    pub fn shared_profile(&mut self) -> SharedProfile {
        self.ensure_profile(None);
        Arc::clone(&self.profile.as_ref().expect("profile cached above").1)
    }

    /// Install an externally measured profiling outcome, keyed by the
    /// comm axis it was measured under. Does not count as a profiler
    /// run ([`Runner::profile_count`]); a later comm-axis change still
    /// invalidates it.
    pub fn install_profile(&mut self, comm: Option<CommSpec>, profile: SharedProfile) -> &mut Self {
        self.profile = Some((comm, profile));
        self
    }

    /// Measure the profile for the spec's comm axis unless it is
    /// already cached: on `session` — freshly built from this runner's
    /// spec — when given, else on a session of its own. The spec's
    /// other overrides never reach the profiled latencies
    /// ([`Experiment::profile_and_tier_on`]).
    fn ensure_profile(&mut self, session: Option<&Session>) {
        let comm = self.spec.profile_axis();
        if self.profile.as_ref().is_some_and(|(c, _)| *c == comm) {
            return;
        }
        let measured = match session {
            Some(session) => self.exp.profile_and_tier_on(session),
            None => self.exp.profile_and_tier_with(&SessionOverrides {
                comm,
                ..SessionOverrides::default()
            }),
        };
        self.profile = Some((comm, Arc::new(measured)));
        self.profile_runs += 1;
    }

    /// The cached tier assignment (profiles on first use).
    pub fn tiers(&mut self) -> &TierAssignment {
        &self.profile().0
    }

    /// How many times this runner actually ran the profiler — the
    /// cache-effectiveness observable the figure binaries assert on.
    #[must_use]
    pub fn profile_count(&self) -> usize {
        self.profile_runs
    }

    /// Eq. 6 training-time estimate for a (non-vanilla) policy under
    /// this experiment's cached tiers.
    pub fn estimate(&mut self, policy: &Policy) -> f64 {
        let rounds = self.exp.rounds();
        crate::estimator::estimate_for_policy(self.tiers(), policy, rounds)
    }

    // -- execution --------------------------------------------------------

    /// Execute the current spec and return the report.
    ///
    /// # Panics
    /// Panics if the spec asks for re-profiling under vanilla selection
    /// or with a zero interval, or if the selection strategy cannot
    /// supply `clients_per_round` clients.
    pub fn run(&mut self) -> TrainingReport {
        self.run_with_session().0
    }

    /// As [`Runner::run`] but also returns the finished session, so
    /// callers can inspect the final global model (per-class accuracy,
    /// further evaluation, checkpointing).
    pub fn run_with_session(&mut self) -> (TrainingReport, Session) {
        let overrides = self.spec.session_overrides();
        let mut session = self.exp.build_session(&overrides);
        let report = self.execute(&mut session);
        (report, session)
    }

    /// As [`Runner::run`] but observed: the session carries a
    /// [`RunObserver`] whose ring buffer holds up to `ring_capacity`
    /// trace records (0 = collect metrics only, store no trace). The
    /// report is bit-for-bit the one [`Runner::run`] produces —
    /// observation derives everything from the round plans and the
    /// virtual clock and feeds nothing back — and the virtual-time
    /// trace itself is identical across execution backends and thread
    /// counts.
    pub fn run_observed(&mut self, ring_capacity: usize) -> ObservedRun {
        let overrides = self.spec.session_overrides();
        let mut session = self.exp.build_session(&overrides);
        session.attach_observer(RunObserver::new(ring_capacity));
        // The host profiler rides alongside the observer: its spans are
        // operator-facing wall-clock attribution, kept strictly outside
        // the deterministic surface. Ring capacity scales with the
        // horizon (a handful of spans per round) and is preallocated —
        // steady-state rounds stay allocation-free with it attached.
        let clock = self
            .host_clock
            .as_ref()
            .map_or_else(RealClock::shared, Arc::clone);
        let span_cap = (self.exp.rounds() as usize).saturating_mul(8).min(1 << 16) + 16;
        let mut prof = HostProfiler::with_clock(span_cap, clock);
        if self.spec.selection.needs_profile() && self.spec.reprofile_every.is_none() {
            // The up-front §4.2 profiling pass, emitted at t = 0 so the
            // trace records where the tiers came from. A shared-profile
            // runner emits the same values: the measurement is the
            // same, only who computed it differs (and its Profile span
            // then costs only a cache lookup).
            let clients = self.exp.num_clients() as u32;
            let t_prof = prof.begin();
            self.ensure_profile(Some(&session));
            let profile = self.shared_profile();
            prof.end(Phase::Profile, 0, t_prof);
            session.trace_event(
                0.0,
                TraceEvent::ProfilePass {
                    clients,
                    dropouts: profile.1.dropouts().len() as u32,
                    profiling_sec: profile.1.profiling_time,
                },
            );
        }
        session.attach_host_profiler(prof);
        let report = self.execute(&mut session);
        let host = session
            .take_host_profiler()
            .expect("host profiler attached above");
        let (records, metrics) = session
            .take_observer()
            .expect("observer attached above")
            .finish();
        ObservedRun {
            report,
            records,
            metrics,
            host_phases: host.totals(),
            host_spans: host.spans(),
        }
    }

    /// Drive the spec against an already-built session (the shared
    /// tail of [`Runner::run_with_session`] / [`Runner::run_observed`]).
    fn execute(&mut self, session: &mut Session) -> TrainingReport {
        let mut report = match self.spec.reprofile_every {
            None => {
                if self.spec.selection.needs_profile() {
                    self.ensure_profile(Some(session));
                }
                let seed = split_seed(self.exp.seed(), 0x5E1EC7);
                let mut selector = self.build_selector(seed);
                match self.spec.backend {
                    ExecBackend::Lockstep => session.run(selector.as_mut()),
                    ExecBackend::EventDriven { threads } => {
                        EventEngine::new(threads).run(session, selector.as_mut())
                    }
                }
            }
            Some(every) => self.run_segmented(session, every),
        };
        report.policy = self.spec.display_label();
        report
    }

    /// Build the spec's selector from the (cached) profile.
    fn build_selector(&mut self, seed: u64) -> Box<dyn ClientSelector> {
        let selection = self.spec.selection.clone();
        match selection {
            s if s.is_vanilla() => Box::new(RandomSelector::new(self.exp.num_clients(), seed)),
            SelectionStrategy::TierPolicy { policy } => {
                let assignment = self.tiers().clone();
                Box::new(StaticTierSelector::new(assignment, policy, seed))
            }
            SelectionStrategy::Adaptive { config } => {
                let rounds = self.exp.rounds();
                let assignment = self.tiers().clone();
                let config = config
                    .unwrap_or_else(|| AdaptiveConfig::for_run(rounds, assignment.num_tiers()));
                Box::new(AdaptiveTierSelector::new(assignment, config, seed))
            }
            SelectionStrategy::Deadline { deadline_sec } => {
                let latencies = self.profile().1.mean_latency.clone();
                Box::new(DeadlineSelector::new(latencies, deadline_sec, seed))
            }
            // tifl-lint: allow(panic-in-library) — invariant panic: the is_vanilla branch above handles this variant
            SelectionStrategy::Vanilla => unreachable!("covered by the is_vanilla arm"),
        }
    }

    /// The periodic re-profiling loop (§4.2): every `every` rounds,
    /// re-measure latencies at the current round position, rebuild the
    /// tiers and a fresh selector (seeded per segment), and continue the
    /// same session. Adaptive segments restart Algorithm 2's credits
    /// and probabilities, since the old tiers they refer to are gone.
    fn run_segmented(&mut self, session: &mut Session, every: u64) -> TrainingReport {
        assert!(
            self.spec.selection.needs_profile(),
            "re-profiling requires a tiered policy"
        );
        assert!(every > 0, "re-profiling interval must be positive");
        let profiler = Profiler::new(self.exp.profiler_config());
        let tiering = self.exp.tiering_config();
        let rounds_total = self.exp.rounds();
        let mut rounds = Vec::with_capacity(rounds_total as usize);
        let mut done = 0u64;
        while done < rounds_total {
            let t_prof = session.host_begin();
            let profile = profiler.profile_at(session.cluster(), |c| session.task_for(c), done);
            session.host_end(Phase::Profile, done, t_prof);
            let now = session.now();
            session.trace_event(
                now,
                TraceEvent::ProfilePass {
                    clients: self.exp.num_clients() as u32,
                    dropouts: profile.dropouts().len() as u32,
                    profiling_sec: profile.profiling_time,
                },
            );
            let seed = split_seed(self.exp.seed(), split_seed(0x5E1EC7, done));
            let mut selector: Box<dyn ClientSelector> =
                match &self.spec.selection {
                    SelectionStrategy::TierPolicy { policy } => {
                        let assignment =
                            TierAssignment::from_latencies(&profile.mean_latency, &tiering);
                        Box::new(StaticTierSelector::new(assignment, policy.clone(), seed))
                    }
                    SelectionStrategy::Adaptive { config } => {
                        let assignment =
                            TierAssignment::from_latencies(&profile.mean_latency, &tiering);
                        let config = config.unwrap_or_else(|| {
                            AdaptiveConfig::for_run(rounds_total, assignment.num_tiers())
                        });
                        Box::new(AdaptiveTierSelector::new(assignment, config, seed))
                    }
                    SelectionStrategy::Deadline { deadline_sec } => Box::new(
                        DeadlineSelector::new(profile.mean_latency, *deadline_sec, seed),
                    ),
                    // tifl-lint: allow(panic-in-library) — invariant panic: vanilla selection is dispatched before this match
                    SelectionStrategy::Vanilla => unreachable!("rejected above"),
                };
            let segment = every.min(rounds_total - done);
            match self.spec.backend {
                ExecBackend::Lockstep => {
                    for _ in 0..segment {
                        rounds.push(session.run_round(selector.as_mut()));
                    }
                }
                ExecBackend::EventDriven { threads } => {
                    rounds.extend(EventEngine::new(threads).run_rounds(
                        session,
                        selector.as_mut(),
                        segment,
                    ));
                }
            }
            done += segment;
        }
        TrainingReport {
            policy: String::new(), // overwritten by the caller
            rounds,
        }
    }
}

/// The result of [`Runner::run_observed`]: the training report plus
/// the virtual-time trace and the metrics snapshot collected alongside
/// it. `report` is bit-for-bit what the unobserved run produces.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// The training report, identical to [`Runner::run`]'s.
    pub report: TrainingReport,
    /// The virtual-time trace, oldest first (empty if the ring
    /// capacity was 0; earliest records dropped if it overflowed).
    pub records: Vec<TraceRecord>,
    /// Counters, gauges and histograms folded from the full event
    /// stream (never dropped, regardless of ring capacity).
    pub metrics: MetricsSnapshot,
    /// Per-phase **host** seconds (wall-clock attribution). Best
    /// effort and machine-dependent; never serialized into run
    /// artifacts or hashed into `RunKey`s.
    pub host_phases: PhaseTotals,
    /// The host-time phase spans (ring-bounded, close order) — the
    /// Chrome host lane of `tifl trace --host`.
    pub host_spans: Vec<HostSpan>,
}

/// A fully self-contained run description for `tifl run --spec`: an
/// experiment, a couple of common scalar overrides, and a [`RunSpec`].
///
/// ```json
/// {
///   "experiment": { ... an ExperimentConfig ... },
///   "rounds": 100,
///   "spec": { "selection": { "Adaptive": { "config": null } },
///             "local": { "FedProx": { "mu": 0.01 } } }
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRequest {
    /// The experiment to run (any JSON an `ExperimentConfig` parses
    /// from; `tifl init` writes a template).
    pub experiment: ExperimentConfig,
    /// Override the experiment's round count.
    #[serde(default)]
    pub rounds: Option<u64>,
    /// Override the experiment's root seed.
    #[serde(default)]
    pub seed: Option<u64>,
    /// Override the experiment's clients-per-round `|C|`.
    #[serde(default)]
    pub clients_per_round: Option<usize>,
    /// The run to execute (defaults to vanilla/WaitAll/FedAvg).
    #[serde(default)]
    pub spec: RunSpec,
}

impl RunRequest {
    /// The experiment with the scalar overrides applied.
    #[must_use]
    pub fn experiment(&self) -> ExperimentConfig {
        let mut exp = self.experiment.clone();
        if let Some(rounds) = self.rounds {
            exp.rounds = rounds;
        }
        if let Some(seed) = self.seed {
            exp.seed = seed;
        }
        if let Some(c) = self.clients_per_round {
            exp.clients_per_round = c;
        }
        exp
    }

    /// Execute the request.
    #[must_use]
    pub fn run(&self) -> TrainingReport {
        let exp = self.experiment();
        let mut runner = Runner::with_spec(&exp, self.spec.clone());
        runner.run()
    }

    /// Execute the request observed: same report, plus the
    /// virtual-time trace (up to `ring_capacity` records) and a
    /// metrics snapshot. See [`Runner::run_observed`].
    #[must_use]
    pub fn run_observed(&self, ring_capacity: usize) -> ObservedRun {
        let exp = self.experiment();
        let mut runner = Runner::with_spec(&exp, self.spec.clone());
        runner.run_observed(ring_capacity)
    }

    /// As [`RunRequest::run_observed`] with an explicit host clock for
    /// the phase profiler (tests inject a
    /// [`FrozenClock`](tifl_obs::FrozenClock) to pin span structure).
    #[must_use]
    pub fn run_observed_with_clock(
        &self,
        ring_capacity: usize,
        clock: Arc<dyn HostClock>,
    ) -> ObservedRun {
        let exp = self.experiment();
        let mut runner = Runner::with_spec(&exp, self.spec.clone());
        runner.host_clock(clock);
        runner.run_observed(ring_capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig::tiny(60)
    }

    #[test]
    fn default_spec_is_vanilla_waitall_fedavg() {
        let spec = RunSpec::default();
        assert_eq!(spec.selection, SelectionStrategy::Vanilla);
        assert_eq!(
            spec.aggregation, None,
            "default inherits the experiment's mode"
        );
        assert_eq!(spec.local, LocalTraining::FedAvg);
        assert_eq!(spec.reprofile_every, None);
        assert_eq!(spec.display_label(), "vanilla");
    }

    #[test]
    fn builder_composes_spec_fields() {
        let cfg = tiny();
        let mut runner = cfg.runner();
        runner
            .adaptive(None)
            .fedprox(0.01)
            .overselect(1.3)
            .reprofile_every(10);
        let spec = runner.spec();
        assert_eq!(spec.selection, SelectionStrategy::Adaptive { config: None });
        assert_eq!(spec.local, LocalTraining::FedProx { mu: 0.01 });
        assert_eq!(
            spec.aggregation,
            Some(AggregationMode::FirstK { factor: 1.3 })
        );
        assert_eq!(spec.reprofile_every, Some(10));
        assert_eq!(
            spec.display_label(),
            "adaptive+fedprox(0.01)+overselect(1.3)+reprofile"
        );
    }

    #[test]
    fn derived_labels_match_legacy_names() {
        let mk = |selection, local, reprofile| RunSpec {
            selection,
            local,
            reprofile_every: reprofile,
            ..RunSpec::default()
        };
        let uniform = SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        };
        assert_eq!(
            mk(uniform.clone(), LocalTraining::FedAvg, None).display_label(),
            "uniform"
        );
        assert_eq!(
            mk(uniform, LocalTraining::FedAvg, Some(8)).display_label(),
            "uniform+reprofile"
        );
        assert_eq!(
            mk(
                SelectionStrategy::Vanilla,
                LocalTraining::FedProx { mu: 0.1 },
                None
            )
            .display_label(),
            "fedprox(0.1)"
        );
        assert_eq!(
            mk(
                SelectionStrategy::Deadline { deadline_sec: 5.0 },
                LocalTraining::FedAvg,
                None
            )
            .display_label(),
            "fedcs"
        );
        // The aggregation axis decorates only when explicitly forced.
        let overselect = RunSpec {
            aggregation: Some(AggregationMode::FirstK { factor: 1.3 }),
            ..RunSpec::default()
        };
        assert_eq!(overselect.display_label(), "overselect(1.3)");
        let tiered_overselect = RunSpec {
            selection: SelectionStrategy::TierPolicy {
                policy: Policy::uniform(5),
            },
            aggregation: Some(AggregationMode::FirstK { factor: 2.0 }),
            ..RunSpec::default()
        };
        assert_eq!(tiered_overselect.display_label(), "uniform+overselect(2)");
        let labelled = RunSpec {
            label: Some("overselect(1.3)".into()),
            ..RunSpec::default()
        };
        assert_eq!(labelled.display_label(), "overselect(1.3)");
    }

    #[test]
    fn comm_builders_compose_the_spec() {
        let cfg = tiny();
        let mut runner = cfg.runner();
        runner
            .quantized_i8()
            .link(LinkModel::LogNormal {
                median_up_bps: 1.0e5,
                median_down_bps: 1.0e6,
                sigma: 0.5,
                rtt_sec: 0.02,
            })
            .hierarchical(100, 2.0e8);
        let comm = runner.spec().comm.expect("comm spec installed");
        assert_eq!(comm.codec, CodecSpec::QuantizeI8);
        assert!(matches!(comm.link, LinkModel::LogNormal { .. }));
        assert_eq!(comm.hierarchy.map(|h| h.fan_out), Some(100));
        assert_eq!(runner.spec().display_label(), "vanilla+i8");
        // Switching the codec keeps the link model.
        runner.topk(0.1);
        let comm = runner.spec().comm.expect("comm spec kept");
        assert_eq!(comm.codec, CodecSpec::TopK { frac: 0.1 });
        assert!(matches!(comm.link, LinkModel::LogNormal { .. }));
        assert_eq!(runner.spec().display_label(), "vanilla+topk(0.1)");
        // Lossless codecs never decorate the label.
        runner.codec(CodecSpec::Identity);
        assert_eq!(runner.spec().display_label(), "vanilla");
        // Composed decorations keep the legacy ordering.
        runner.adaptive(None).fedprox(0.01).quantized_i8();
        assert_eq!(runner.spec().display_label(), "adaptive+fedprox(0.01)+i8");
    }

    #[test]
    fn runner_profiles_once_across_runs() {
        let cfg = tiny();
        let mut runner = cfg.runner();
        assert_eq!(runner.profile_count(), 0);
        let _ = runner.policy(&Policy::uniform(5)).run();
        assert_eq!(runner.profile_count(), 1);
        let _ = runner.policy(&Policy::fast(5)).run();
        let _ = runner.adaptive(None).run();
        let _ = runner.estimate(&Policy::uniform(5));
        assert_eq!(runner.profile_count(), 1, "profile cache must be reused");
    }

    #[test]
    fn shared_profile_seam_skips_reprofiling_and_matches() {
        let cfg = tiny();
        let spec = RunSpec {
            selection: SelectionStrategy::TierPolicy {
                policy: Policy::uniform(5),
            },
            ..RunSpec::default()
        };
        let mut owner = Runner::with_spec(&cfg, spec.clone());
        let baseline = owner.run();
        let profile = owner.shared_profile();
        assert_eq!(owner.profile_count(), 1);

        let mut borrower = Runner::with_shared_profile(&cfg, spec, profile);
        let report = borrower.run();
        assert_eq!(report, baseline, "shared profile must not change results");
        assert_eq!(
            borrower.profile_count(),
            0,
            "installed profiles never count as profiler runs"
        );
        // Changing the comm axis invalidates the installed measurement.
        borrower.quantized_i8();
        let _ = borrower.profile();
        assert_eq!(borrower.profile_count(), 1);
    }

    #[test]
    fn profile_axis_is_the_comm_axis() {
        let mut spec = RunSpec::default();
        assert_eq!(spec.profile_axis(), None);
        spec.comm = Some(CommSpec::default());
        assert_eq!(spec.profile_axis(), Some(CommSpec::default()));
    }

    #[test]
    fn vanilla_runs_never_profile() {
        let cfg = tiny();
        let mut runner = cfg.runner();
        let _ = runner.vanilla().run();
        let _ = runner.fedprox(0.1).run();
        assert_eq!(runner.profile_count(), 0);
    }

    #[test]
    fn vanilla_tier_policy_degrades_to_vanilla() {
        let cfg = tiny();
        let a = cfg.runner().policy(&Policy::vanilla()).run();
        let b = cfg.runner().vanilla().run();
        assert_eq!(a, b);
        assert_eq!(a.policy, "vanilla");
    }

    #[test]
    fn sparse_spec_inherits_experiment_aggregation() {
        // An experiment configured for over-selection keeps it when the
        // spec does not name an aggregation mode — and its label stays
        // undecorated, exactly like the legacy `run_policy` behaviour.
        let mut cfg = tiny();
        cfg.aggregation = AggregationMode::FirstK { factor: 1.5 };
        let report = cfg.runner().vanilla().run();
        assert_eq!(report.policy, "vanilla");
        // tiny has |C| = 2, so FirstK(1.5) asks ceil(3) = 3 per round.
        assert!(report.rounds.iter().all(|r| r.selected.len() == 3));
        assert!(report.rounds.iter().all(|r| r.aggregated.len() == 2));
        // Forcing WaitAll from the spec overrides the experiment.
        let waitall = cfg.runner().aggregation(AggregationMode::WaitAll).run();
        assert!(waitall.rounds.iter().all(|r| r.selected.len() == 2));
    }

    #[test]
    #[should_panic(expected = "re-profiling requires a tiered policy")]
    fn reprofiling_rejects_vanilla() {
        let cfg = tiny();
        let _ = cfg.runner().vanilla().reprofile_every(5).run();
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = RunSpec {
            selection: SelectionStrategy::TierPolicy {
                policy: Policy::random5(5),
            },
            aggregation: Some(AggregationMode::FirstK { factor: 1.3 }),
            local: LocalTraining::FedProx { mu: 0.05 },
            reprofile_every: Some(25),
            label: Some("combo".into()),
            backend: ExecBackend::EventDriven { threads: 2 },
            comm: Some(CommSpec {
                codec: CodecSpec::TopK { frac: 0.25 },
                link: LinkModel::Uniform {
                    up_bps: 1.0e5,
                    down_bps: 1.0e6,
                    rtt_sec: 0.01,
                },
                hierarchy: None,
            }),
        };
        let json = serde_json::to_string_pretty(&spec).expect("serializes");
        let back: RunSpec = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, spec);
    }

    #[test]
    fn backend_knob_defaults_to_lockstep_and_composes() {
        let spec = RunSpec::default();
        assert_eq!(spec.backend, ExecBackend::Lockstep);
        let cfg = tiny();
        let mut runner = cfg.runner();
        runner.event_driven(3).fedprox(0.1);
        assert_eq!(
            runner.spec().backend,
            ExecBackend::EventDriven { threads: 3 }
        );
        assert_eq!(
            runner.spec().display_label(),
            "fedprox(0.1)",
            "the backend never decorates the label (results are backend-invariant)"
        );
        runner.lockstep();
        assert_eq!(runner.spec().backend, ExecBackend::Lockstep);
    }

    #[test]
    fn async_aggregation_implies_event_driven() {
        let cfg = tiny();
        let mut runner = cfg.runner();
        runner.async_aggregation(2);
        assert_eq!(
            runner.spec().aggregation,
            Some(AggregationMode::Async { max_staleness: 2 })
        );
        assert_eq!(
            runner.spec().backend,
            ExecBackend::EventDriven { threads: 0 }
        );
        assert_eq!(runner.spec().display_label(), "async(2)");
        // An explicitly chosen event-driven thread count is kept.
        let mut runner = cfg.runner();
        runner.event_driven(2).async_aggregation(1);
        assert_eq!(
            runner.spec().backend,
            ExecBackend::EventDriven { threads: 2 }
        );
        assert_eq!(
            runner.adaptive(None).spec().display_label(),
            "adaptive+async(1)"
        );
    }

    #[test]
    #[should_panic(expected = "requires the event-driven backend")]
    fn async_on_lockstep_is_rejected() {
        let cfg = tiny();
        let mut runner = cfg.runner();
        runner
            .aggregation(AggregationMode::Async { max_staleness: 1 })
            .lockstep();
        let _ = runner.run();
    }

    #[test]
    fn sparse_spec_json_uses_defaults() {
        let spec: RunSpec = serde_json::from_str("{}").expect("empty spec parses");
        assert_eq!(spec, RunSpec::default());
        let spec: RunSpec =
            serde_json::from_str(r#"{"selection": {"Adaptive": {"config": null}}}"#)
                .expect("partial spec parses");
        assert_eq!(spec.selection, SelectionStrategy::Adaptive { config: None });
        assert_eq!(spec.aggregation, None);
    }

    #[test]
    fn run_request_applies_overrides_and_runs() {
        let request = RunRequest {
            experiment: tiny(),
            rounds: Some(4),
            seed: Some(9),
            clients_per_round: None,
            spec: RunSpec::default(),
        };
        let json = serde_json::to_string(&request).expect("serializes");
        let back: RunRequest = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, request);
        let report = back.run();
        assert_eq!(report.rounds.len(), 4);
        assert_eq!(report.policy, "vanilla");
        assert_eq!(back.experiment().seed, 9);
    }
}
