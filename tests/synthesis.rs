//! Data synthesis happens once per run, and its result does not depend
//! on the rayon pool width:
//!
//! 1. `FederatedDataset::materialize` and `build_femnist` fill client
//!    features across the pool, and return equal datasets at any width;
//! 2. a profiled run synthesizes its data once — the profiling pass
//!    measures the session the run then trains;
//! 3. that is sound because the run's overrides differ from the
//!    profile's only in aggregation and FedProx μ, which never reach
//!    the profiled latencies.

use std::cell::Cell;
use std::sync::Arc;
use tifl::leaf::build_femnist;
use tifl::prelude::*;

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
}

/// `f` under a 1-thread and a 4-thread pool.
fn at_widths<T>(f: impl Fn() -> T) -> (T, T) {
    (pool(1).install(&f), pool(4).install(&f))
}

// -- 1. thread-count invariance ----------------------------------------------

#[test]
fn materialize_is_thread_count_invariant() {
    let partitions = [
        DataScenario::Iid { per_client: 30 },
        DataScenario::ClassLimit {
            per_client: 30,
            k: 2,
        },
    ];
    for data in partitions {
        for feature_skew in [0.0, 0.5] {
            let mut cfg = ExperimentConfig::tiny(11);
            cfg.num_clients = 13;
            cfg.data = data;
            cfg.feature_skew = feature_skew;
            let (one, four) = at_widths(|| cfg.build_data());
            assert_eq!(one.num_clients(), 13);
            assert_eq!(one, four, "{data:?}, feature_skew {feature_skew}");
        }
    }
}

#[test]
fn femnist_is_thread_count_invariant() {
    let config = LeafDataConfig {
        num_clients: 9,
        global_test_per_class: 1,
        ..LeafDataConfig::default()
    };
    let (one, four) = at_widths(|| build_femnist(&config, 5));
    assert_eq!(one.num_clients(), 9);
    assert_eq!(one, four);
}

// -- 2. one synthesis per run --------------------------------------------------

/// An experiment that counts the sessions (and so the data syntheses)
/// it builds.
struct Counting {
    cfg: ExperimentConfig,
    builds: Cell<usize>,
}

impl Counting {
    fn new(seed: u64) -> Self {
        let mut cfg = ExperimentConfig::tiny(seed);
        cfg.rounds = 4;
        Self {
            cfg,
            builds: Cell::new(0),
        }
    }
}

impl Experiment for Counting {
    fn seed(&self) -> u64 {
        self.cfg.seed
    }
    fn rounds(&self) -> u64 {
        self.cfg.rounds
    }
    fn num_clients(&self) -> usize {
        self.cfg.num_clients
    }
    fn profiler_config(&self) -> ProfilerConfig {
        self.cfg.profiler
    }
    fn tiering_config(&self) -> TieringConfig {
        self.cfg.tiering
    }
    fn build_session(&self, overrides: &SessionOverrides) -> Session {
        self.builds.set(self.builds.get() + 1);
        self.cfg.build_session(overrides)
    }
}

fn profiled_selections() -> [SelectionStrategy; 3] {
    [
        SelectionStrategy::Adaptive { config: None },
        SelectionStrategy::TierPolicy {
            policy: Policy::uniform(5),
        },
        SelectionStrategy::Deadline { deadline_sec: 1e6 },
    ]
}

#[test]
fn a_profiled_run_builds_one_session() {
    type Entry = fn(&mut Runner<'_, Counting>) -> TrainingReport;
    let entries: [(&str, Entry); 3] = [
        ("run", |r| r.run()),
        ("run_with_session", |r| r.run_with_session().0),
        ("run_observed", |r| r.run_observed(16).report),
    ];
    for selection in profiled_selections() {
        for (name, entry) in entries {
            let exp = Counting::new(31);
            let spec = RunSpec {
                selection: selection.clone(),
                ..RunSpec::default()
            };
            let mut runner = Runner::with_spec(&exp, spec);
            let report = entry(&mut runner);
            assert_eq!(report.rounds.len(), 4);
            assert_eq!(exp.builds.get(), 1, "{name} under {selection:?}");
            assert_eq!(runner.profile_count(), 1, "{name} under {selection:?}");
            // The run's measurement is cached: asking for the profile
            // afterwards neither re-profiles nor builds a session.
            let _ = runner.shared_profile();
            assert_eq!(runner.profile_count(), 1, "{name} under {selection:?}");
            assert_eq!(exp.builds.get(), 1, "{name} under {selection:?}");
        }
    }
}

#[test]
fn profiling_before_any_run_builds_its_own_session() {
    let exp = Counting::new(32);
    let mut runner = exp.runner();
    let _ = runner.shared_profile();
    assert_eq!(exp.builds.get(), 1);
    runner.adaptive(None).run();
    assert_eq!(exp.builds.get(), 2, "the run reuses the cached profile");
    assert_eq!(runner.profile_count(), 1);
}

// -- 3. the profile axis -------------------------------------------------------

#[test]
fn profiling_the_run_session_equals_a_comm_only_profile() {
    // 4 clients per tier, so tier-wise over-selection has a pool.
    let mut cfg = ExperimentConfig::tiny(33);
    cfg.num_clients = 20;
    cfg.rounds = 6;
    let int8 = CommSpec {
        codec: CodecSpec::QuantizeI8,
        ..CommSpec::default()
    };
    for comm in [None, Some(int8)] {
        for selection in profiled_selections() {
            let spec = RunSpec {
                selection,
                aggregation: Some(AggregationMode::FirstK { factor: 1.5 }),
                local: LocalTraining::FedProx { mu: 0.05 },
                comm,
                ..RunSpec::default()
            };
            let comm_only = cfg.profile_and_tier_with(&SessionOverrides {
                comm,
                ..SessionOverrides::default()
            });
            let shared = Runner::with_shared_profile(&cfg, spec.clone(), Arc::new(comm_only)).run();
            let own = Runner::with_spec(&cfg, spec.clone()).run();
            assert_eq!(own, shared, "{spec:?}");
        }
    }
}
