//! The three workloads, each one pure data: a `RunRequest` or a
//! `SweepManifest` built from the seed. They name *what* is computed;
//! how the program schedules it is the program's business.

use tifl_comm::{CodecSpec, CommSpec};
use tifl_core::experiment::{DataScenario, ExperimentConfig};
use tifl_core::policy::Policy;
use tifl_core::runner::{RunRequest, RunSpec, SelectionStrategy};
use tifl_core::ExecBackend;
use tifl_fl::TrainingReport;
use tifl_obs::DigestChain;
use tifl_sweep::SweepManifest;
use tifl_tensor::split_seed;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Combine scenario: one long adaptive run on the engine.
    PaperCombine,
    /// A 10 000-client pool with int8 uploads: set-up, selection and codec.
    WideCohort,
    /// Many short runs through the sweep scheduler into a fresh store.
    PolicySweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperCombine,
        Workload::WideCohort,
        Workload::PolicySweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCombine => "paper-combine",
            Workload::WideCohort => "wide-cohort",
            Workload::PolicySweep => "policy-sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full size is the benchmark; smoke size runs each workload in seconds
/// for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        [Size::Full, Size::Smoke]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// What the product is asked to compute.
pub enum Product {
    /// One run per repetition: `RunRequest::run`, as `tifl run --spec`
    /// executes it. Repetitions cycle through a small panel of seeds
    /// (the first is the workload seed itself), because a single run's
    /// speed and accuracy depend on the seed more than on the host.
    Runs(Vec<RunRequest>),
    /// A sweep: the scheduler over the expanded manifest with a store,
    /// as `tifl sweep --out` executes it.
    Sweep(Box<SweepManifest>),
}

/// A workload instantiated for one seed.
pub struct Plan {
    pub product: Product,
    /// Test accuracy the to-target metrics wait for.
    pub target: f64,
    /// Cold set-ups timed per measured run, one in each of the first
    /// repetitions.
    pub setup_samples: usize,
    /// Engine threads, train fan-out width and sweep workers.
    pub threads: usize,
}

/// `min(2, nproc)`: the load never asks for more threads than the host has.
pub fn threads() -> usize {
    nproc().min(2)
}

/// Event-engine workers: `min(2, nproc - 1)`, at least 1. The engine's
/// coordinating thread folds updates while its workers train, so this
/// keeps workers plus coordinator within the host's cores; with every
/// core busy, one descheduled worker stalls each round's barrier and the
/// run measures the host's scheduler rather than the program.
pub fn engine_threads() -> usize {
    nproc().saturating_sub(1).clamp(1, 2)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The workload seed, then `k - 1` seeds derived from it.
fn panel(seed: u64, k: u64) -> Vec<u64> {
    (0..k)
        .map(|i| if i == 0 { seed } else { split_seed(seed, i) })
        .collect()
}

fn adaptive() -> SelectionStrategy {
    SelectionStrategy::Adaptive { config: None }
}

const WIDE_PANEL: u64 = 1;

pub fn plan(workload: Workload, seed: u64, size: Size) -> Plan {
    let threads = threads();
    let smoke = size == Size::Smoke;
    match workload {
        Workload::PaperCombine => {
            let mut experiment = ExperimentConfig::cifar10_combine(2, 0);
            if smoke {
                experiment.data = DataScenario::QuantitySkewClassLimit { total: 2_000, k: 2 };
            }
            let threads = engine_threads();
            let runs = panel(seed, 4).into_iter().map(|seed| RunRequest {
                experiment: experiment.clone(),
                rounds: Some(if smoke { 10 } else { 200 }),
                seed: Some(seed),
                clients_per_round: None,
                spec: RunSpec {
                    selection: adaptive(),
                    backend: ExecBackend::EventDriven { threads },
                    ..RunSpec::default()
                },
            });
            Plan {
                product: Product::Runs(runs.collect()),
                target: if smoke { 0.2 } else { 0.6 },
                setup_samples: 5,
                threads,
            }
        }
        Workload::WideCohort => {
            let mut experiment = ExperimentConfig::cifar10_resource_het(0);
            experiment.num_clients = if smoke { 500 } else { 10_000 };
            experiment.clients_per_round = if smoke { 16 } else { 64 };
            experiment.data = DataScenario::Iid {
                per_client: if smoke { 20 } else { 50 },
            };
            let runs = panel(seed, WIDE_PANEL).into_iter().map(|seed| RunRequest {
                experiment: experiment.clone(),
                rounds: Some(if smoke { 6 } else { 60 }),
                seed: Some(seed),
                clients_per_round: None,
                spec: RunSpec {
                    selection: adaptive(),
                    comm: Some(CommSpec {
                        codec: CodecSpec::QuantizeI8,
                        ..CommSpec::default()
                    }),
                    ..RunSpec::default()
                },
            });
            Plan {
                product: Product::Runs(runs.collect()),
                target: if smoke { 0.2 } else { 0.5 },
                setup_samples: 2,
                threads,
            }
        }
        Workload::PolicySweep => {
            let mut experiment = ExperimentConfig::cifar10_resource_het(0);
            experiment.data = DataScenario::Iid {
                per_client: if smoke { 20 } else { 100 },
            };
            experiment.eval_every = 2;
            let mut manifest = SweepManifest::new(experiment);
            manifest.name = Some(workload.name().to_string());
            manifest.rounds = Some(if smoke { 4 } else { 20 });
            let seeds = if smoke { 2 } else { 8 };
            manifest.axes.seeds = (0..seeds).map(|i| split_seed(seed, i)).collect();
            manifest.axes.selection = vec![
                SelectionStrategy::Vanilla,
                SelectionStrategy::TierPolicy {
                    policy: Policy::uniform(5),
                },
                SelectionStrategy::TierPolicy {
                    policy: Policy::fast(5),
                },
                adaptive(),
            ];
            Plan {
                product: Product::Sweep(Box::new(manifest)),
                target: if smoke { 0.2 } else { 0.5 },
                setup_samples: 5,
                threads,
            }
        }
    }
}

impl Plan {
    /// Seeds the repetitions cycle through (1 for a sweep).
    pub fn panel_len(&self) -> usize {
        match &self.product {
            Product::Runs(runs) => runs.len(),
            Product::Sweep(_) => 1,
        }
    }

    /// Product runs one repetition executes.
    pub fn runs_per_rep(&self) -> u64 {
        match &self.product {
            Product::Runs(_) => 1,
            Product::Sweep(manifest) => manifest.expand().len() as u64,
        }
    }

    /// The runs the traced run drives: the workload seed's run, or every
    /// run of the sweep in manifest order.
    pub fn traced_requests(&self) -> Vec<RunRequest> {
        match &self.product {
            Product::Runs(runs) => vec![runs[0].clone()],
            Product::Sweep(manifest) => manifest.expand().into_iter().map(|r| r.request).collect(),
        }
    }

    /// The request whose cold set-up `setup_s` times in repetition
    /// `rep`: that repetition's run, or the sweep's first run that
    /// needs a profile.
    pub fn setup_request(&self, rep: usize) -> RunRequest {
        match &self.product {
            Product::Runs(runs) => runs[rep % runs.len()].clone(),
            Product::Sweep(_) => {
                let requests = self.traced_requests();
                requests
                    .iter()
                    .find(|r| r.spec.selection.needs_profile())
                    .unwrap_or(&requests[0])
                    .clone()
            }
        }
    }

    /// Share of the traced runs whose data and cluster inputs (the
    /// resolved experiment) repeat an earlier run's.
    pub fn input_reuse_share(&self) -> f64 {
        let requests = self.traced_requests();
        let mut seen = std::collections::BTreeSet::new();
        let repeats = requests
            .iter()
            .filter(|r| {
                let inputs = serde_json::to_string(&r.experiment()).expect("configs serialize");
                !seen.insert(inputs)
            })
            .count();
        repeats as f64 / requests.len() as f64
    }

    /// The identity the repetitions and the traced run must share: a
    /// run's digest-chain head, or a sweep's runs' heads folded in
    /// manifest order.
    pub fn digest(&self, reports: &[&TrainingReport]) -> String {
        match (&self.product, reports) {
            (Product::Runs(_), [report]) => report.digest_chain().to_string(),
            _ => DigestChain::of(reports.iter().map(|r| r.digest_chain())).to_string(),
        }
    }
}
