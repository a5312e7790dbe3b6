//! One untraced repetition of a workload, run in a child process of its
//! own so that `peak_rss_mb` is this repetition's high-water mark.

use crate::workload::{Plan, Product};
use crate::Fault;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;
use tifl_core::runner::Runner;
use tifl_sweep::{audit_store, RunKey, RunStore, SweepScheduler};

/// What one repetition measured, sent to the parent as one JSON line.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CellResult {
    /// Every run completed and every output check of this repetition passed.
    pub ok: bool,
    pub message: String,
    pub runs_attempted: u64,
    pub runs_failed: u64,
    pub rounds: u64,
    /// Wall seconds of the product call (set-up inside it included).
    pub wall_s: f64,
    /// Cold set-up samples, in seconds.
    pub setup_s: Vec<f64>,
    /// Mean final accuracy over the completed runs.
    pub final_accuracy: f64,
    /// Digest-chain head of the run (a sweep folds its runs' heads in
    /// manifest order).
    pub digest: String,
    pub peak_rss_mb: f64,
    pub profile_cache_hits: u64,
    pub profiles_computed: u64,
    /// Busy share of the sweep's worker lanes (1 for a single run).
    pub worker_busy_share: f64,
}

/// `VmHWM` or `VmRSS` of this process in MB (0 where `/proc` is absent).
pub fn proc_status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|l| {
            l.trim_start_matches(':')
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cold `build_data` + `build_cluster` + `Runner::shared_profile`.
fn setup_once(plan: &Plan, rep: usize) -> f64 {
    let request = plan.setup_request(rep);
    let experiment = request.experiment();
    let start = Instant::now();
    let data = black_box(experiment.build_data());
    let cluster = black_box(experiment.build_cluster());
    let profile = black_box(Runner::with_spec(&experiment, request.spec.clone()).shared_profile());
    let secs = start.elapsed().as_secs_f64();
    drop((data, cluster, profile));
    secs
}

/// The message a panic carried.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "run panicked".into())
}

/// Flip one hex digit of a stored artifact's digest field.
pub fn tamper_digest(store: &RunStore, key: RunKey) {
    let path = store.path_of(key);
    let text = std::fs::read_to_string(&path).expect("artifact readable");
    let field = text.find("\"digest\"").expect("artifact carries a digest") + "\"digest\"".len();
    let digit = field + text[field..].find('"').expect("digest value is a string") + 1;
    let mut bytes = text.into_bytes();
    bytes[digit] = if bytes[digit] == b'0' { b'1' } else { b'0' };
    std::fs::write(&path, bytes).expect("artifact writable");
}

/// A path under the benchmark's output root, cleared of anything an
/// earlier run left there.
pub fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = Path::new(crate::OUT_DIR).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("stale benchmark directory removable");
    }
    dir
}

/// Measure repetition `rep`: it picks the panel seed and where an
/// injected fault lands.
pub fn measure(plan: &Plan, fault: Fault, rep: usize, setups: usize) -> CellResult {
    let setup_s: Vec<f64> = (0..setups).map(|_| setup_once(plan, rep)).collect();
    let mut cell = match &plan.product {
        Product::Runs(runs) => {
            let mut request = runs[rep % runs.len()].clone();
            if fault == Fault::Panic && rep == 0 {
                request.clients_per_round = Some(request.experiment.num_clients + 1);
            }
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(plan.threads)
                .build()
                .expect("thread pool builds");
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| pool.install(|| request.run())));
            let wall_s = start.elapsed().as_secs_f64();
            match outcome {
                Ok(report) => {
                    let mut digest = report.digest_chain();
                    // The first repetition that repeats an earlier one's seed.
                    if fault == Fault::Digest && rep == runs.len() {
                        digest.0 ^= 1;
                    }
                    CellResult {
                        ok: true,
                        runs_attempted: 1,
                        rounds: report.rounds.len() as u64,
                        wall_s,
                        final_accuracy: report.final_accuracy(),
                        digest: digest.to_string(),
                        profiles_computed: u64::from(request.spec.selection.needs_profile()),
                        worker_busy_share: 1.0,
                        ..CellResult::default()
                    }
                }
                Err(payload) => CellResult {
                    message: format!("run failed: {}", panic_text(payload.as_ref())),
                    runs_attempted: 1,
                    runs_failed: 1,
                    ..CellResult::default()
                },
            }
        }
        Product::Sweep(manifest) => {
            let mut runs = manifest.expand();
            if fault == Fault::Panic && rep == 0 {
                runs[0].request.clients_per_round = Some(manifest.experiment.num_clients + 1);
            }
            let dir = fresh_dir(&format!("store-{}-{rep}", std::process::id()));
            let store = RunStore::open(&dir).expect("benchmark store opens");
            let start = Instant::now();
            let sweep = SweepScheduler::new(plan.threads).execute(&runs, Some(&store), false);
            let wall_s = start.elapsed().as_secs_f64();
            if fault == Fault::Digest && rep == 0 {
                tamper_digest(&store, sweep.outcomes[0].key());
            }
            let audit = audit_store(&store);
            std::fs::remove_dir_all(&dir).expect("benchmark store removable");
            let reports = sweep.reports();
            let failed = sweep.failed() as u64;
            let mut message = Vec::new();
            for (key, label, error) in sweep.failures() {
                message.push(format!("run {label} ({key}) failed: {error}"));
            }
            for finding in &audit.findings {
                message.push(format!("audit: {} {}", finding.kind, finding.message));
            }
            let lanes = sweep.worker_lanes.len().max(1) as f64;
            CellResult {
                ok: failed == 0 && audit.is_clean(),
                message: message.join("; "),
                runs_attempted: runs.len() as u64,
                runs_failed: failed,
                rounds: reports.iter().map(|r| r.rounds.len() as u64).sum(),
                wall_s,
                final_accuracy: reports.iter().map(|r| r.final_accuracy()).sum::<f64>()
                    / reports.len().max(1) as f64,
                digest: plan.digest(&reports),
                profile_cache_hits: sweep.profile_cache_hits as u64,
                profiles_computed: sweep.profiles_computed as u64,
                worker_busy_share: sweep.worker_busy_sec() / (lanes * sweep.wall_clock_sec),
                ..CellResult::default()
            }
        }
    };
    cell.setup_s = setup_s;
    cell.peak_rss_mb = proc_status_mb("VmHWM");
    cell
}
