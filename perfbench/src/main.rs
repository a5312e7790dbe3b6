//! The TiFL benchmark: three workloads through the product's public
//! entry points, end-to-end metrics from untraced repetitions and
//! per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-combine --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! print every metric with its unit and sample count. See README.md.

mod cell;
mod trace;
mod workload;

use cell::CellResult;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workload::{Plan, Size, Workload};

/// Stores, traces and layer tables go here, relative to the checkout.
pub const OUT_DIR: &str = ".bench_out";

/// Most repetitions, and the wall budget no run may start past.
const MAX_REPS: usize = 16;
const BUDGET_S: f64 = 150.0;

/// A fault injected on purpose, so the self-tests can prove that a bad
/// output is reported as a failure and not as a number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    /// Alter one repetition's digest chain (a single run) or one stored
    /// artifact's digest (a store).
    Digest,
    /// Make the first run of the first repetition panic.
    Panic,
}

impl Fault {
    fn name(self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::Digest => "digest",
            Fault::Panic => "panic",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        [Fault::None, Fault::Digest, Fault::Panic]
            .into_iter()
            .find(|f| f.name() == name)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    fault: Fault,
    /// Internal: run one untraced repetition and print its `CellResult`.
    cell: Option<(usize, usize)>,
}

const USAGE: &str = "usage: perfbench --workload <paper-combine|wide-cohort|policy-sweep> \
--seed <n> --seconds <s> --trace <0|1> [--size full|smoke] [--fault none|digest|panic]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::PaperCombine,
        seed: 0,
        seconds: 0.0,
        trace: false,
        size: Size::Full,
        fault: Fault::None,
        cell: None,
    };
    let (mut workload, mut seed, mut seconds, mut trace) = (false, false, false, false);
    let mut rep = None;
    let mut setups = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?;
                workload = true;
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                seed = true;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds = args.seconds > 0.0;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
                trace = true;
            }
            "--size" => {
                let v = value()?;
                args.size = Size::parse(v).ok_or_else(|| format!("unknown size {v}"))?;
            }
            "--fault" => {
                let v = value()?;
                args.fault = Fault::parse(v).ok_or_else(|| format!("unknown fault {v}"))?;
            }
            "--cell" => rep = Some(value()?.parse().map_err(|e| format!("--cell: {e}"))?),
            "--setups" => setups = Some(value()?.parse().map_err(|e| format!("--setups: {e}"))?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(rep) = rep {
        args.cell = Some((rep, setups.unwrap_or(0)));
        return Ok(args);
    }
    if !(workload && seed && seconds && trace) {
        return Err("--workload, --seed, a positive --seconds and --trace are required".into());
    }
    Ok(args)
}

/// The product's sources must sit beside the benchmark: it measures
/// this checkout's program, never a stale build of another one.
fn check_checkout() -> Result<(), String> {
    for path in ["Cargo.toml", "crates/core/Cargo.toml", "BENCHMARK.json"] {
        if !Path::new(path).is_file() {
            return Err(format!("run from the repository root: {path} is missing"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check_checkout() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: creating {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let plan = workload::plan(args.workload, args.seed, args.size);
    if let Some((rep, setups)) = args.cell {
        let cell = cell::measure(&plan, args.fault, rep, setups);
        println!(
            "{}",
            serde_json::to_string(&cell).expect("cell results serialize")
        );
        return ExitCode::SUCCESS;
    }
    println!(
        "perfbench {} seed={} size={:?} trace={} host_parallelism={} threads={}",
        args.workload.name(),
        args.seed,
        args.size,
        u8::from(args.trace),
        tifl_sweep::store::host_parallelism(),
        plan.threads
    );
    let result = if args.trace {
        traced(&args, &plan)
    } else {
        measured(&args, &plan)
    };
    println!("{}", result.line());
    ExitCode::SUCCESS
}

/// Run one untraced repetition in a child process.
fn spawn_cell(args: &Args, plan: &Plan, rep: usize, setups: usize) -> CellResult {
    let runs = plan.runs_per_rep();
    let failure = |message: String| CellResult {
        message,
        runs_attempted: runs,
        runs_failed: runs,
        ..CellResult::default()
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failure(format!("locating the benchmark binary: {e}")),
    };
    let output = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--size", args.size.name(), "--fault", args.fault.name()])
        .args(["--cell", &rep.to_string(), "--setups", &setups.to_string()])
        .output();
    let output = match output {
        Ok(output) => output,
        Err(e) => return failure(format!("spawning repetition {rep}: {e}")),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .last()
        .and_then(|line| serde_json::from_str::<CellResult>(line).ok());
    match parsed {
        Some(cell) if output.status.success() => {
            if !cell.ok {
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
            }
            cell
        }
        _ => {
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            failure(format!("repetition {rep} exited with {}", output.status))
        }
    }
}

/// One printed metric: its value and the samples it summarizes.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

impl Metric {
    /// The median of `samples`.
    fn new(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        Self {
            name,
            unit,
            value: quantile(&samples, 0.5),
            samples,
        }
    }

    fn one(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self::new(name, unit, vec![value])
    }

    /// The mean over panel seeds of each seed's median.
    fn panel(name: &'static str, unit: &'static str, per_seed: Vec<Vec<f64>>) -> Self {
        let medians: Vec<f64> = per_seed
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| quantile(v, 0.5))
            .collect();
        Self {
            name,
            unit,
            value: medians.iter().sum::<f64>() / medians.len() as f64,
            samples: per_seed.concat(),
        }
    }
}

/// Linear-interpolated quantile of unsorted samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    /// The contract's result line. A metric without a finite median is
    /// left out, and the result is then not correct.
    fn line(&self) -> String {
        let mut correct = self.correct;
        let mut fields = Vec::new();
        for m in &self.metrics {
            let v = m.value;
            if v.is_finite() {
                fields.push(format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                ));
            } else {
                correct = false;
            }
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }

    fn print_table(&self) {
        for m in &self.metrics {
            println!(
                "metric {} {} {} n={} p25={} p75={}",
                m.name,
                m.value,
                m.unit,
                m.samples.len(),
                quantile(&m.samples, 0.25),
                quantile(&m.samples, 0.75)
            );
        }
    }
}

/// Untraced repetitions for `--seconds`, each in its own process,
/// cycling through the plan's seed panel until the workload seed has run
/// twice and `--seconds` would be exceeded.
fn measured(args: &Args, plan: &Plan) -> Outcome {
    let panel = plan.panel_len();
    let min_reps = panel + 1;
    let start = Instant::now();
    let mut cells: Vec<CellResult> = Vec::new();
    loop {
        let rep = cells.len();
        cells.push(spawn_cell(
            args,
            plan,
            rep,
            usize::from(rep < plan.setup_samples),
        ));
        let elapsed = start.elapsed().as_secs_f64();
        let next_end = elapsed * (cells.len() + 1) as f64 / cells.len() as f64;
        let enough = cells.len() >= min_reps && next_end > args.seconds;
        if enough || cells.len() >= MAX_REPS || next_end > BUDGET_S {
            break;
        }
    }
    let attempted: u64 = cells.iter().map(|c| c.runs_attempted).sum();
    let failed: u64 = cells.iter().map(|c| c.runs_failed).sum();
    for (rep, c) in cells.iter().enumerate().filter(|(_, c)| !c.ok) {
        println!("check FAILED repetition {rep}: {}", c.message);
    }
    // Repetitions of one seed, successful ones only.
    let seeds: Vec<Vec<&CellResult>> = (0..panel)
        .map(|m| {
            cells
                .iter()
                .skip(m)
                .step_by(panel)
                .filter(|c| c.ok)
                .collect()
        })
        .collect();
    let repeated = seeds.iter().filter(|reps| reps.len() >= 2).count();
    let stable = repeated > 0
        && seeds
            .iter()
            .all(|reps| reps.iter().all(|c| c.digest == reps[0].digest));
    println!(
        "check digest chains equal across the repetitions of each seed \
         ({} repetitions, {repeated} of {panel} seeds repeated): {}",
        cells.len(),
        if stable { "yes" } else { "NO" }
    );
    println!(
        "check failed runs: {failed} of {attempted} (failed_share {})",
        failed as f64 / attempted.max(1) as f64
    );
    let per_seed = |f: fn(&CellResult) -> f64| -> Vec<Vec<f64>> {
        seeds
            .iter()
            .map(|reps| reps.iter().map(|c| f(c)).collect())
            .collect()
    };
    let outcome = Outcome {
        correct: stable && failed == 0 && cells.iter().all(|c| c.ok),
        attempted,
        failed,
        metrics: vec![
            Metric::panel(
                "rounds_per_s",
                "rounds/s",
                per_seed(|c| c.rounds as f64 / c.wall_s),
            ),
            Metric::panel(
                "runs_per_s",
                "runs/s",
                per_seed(|c| c.runs_attempted as f64 / c.wall_s),
            ),
            Metric::new(
                "setup_s",
                "s",
                cells.iter().flat_map(|c| c.setup_s.clone()).collect(),
            ),
            Metric::panel("final_accuracy", "fraction", per_seed(|c| c.final_accuracy)),
            Metric::panel("peak_rss_mb", "MB", per_seed(|c| c.peak_rss_mb)),
        ],
    };
    outcome.print_table();
    outcome
}

/// The traced run: an untraced reference repetition in a child process,
/// then every run of the workload traced in this process.
fn traced(args: &Args, plan: &Plan) -> Outcome {
    let reference = spawn_cell(args, plan, 0, 0);
    let name = format!("{}-seed{}", args.workload.name(), args.seed);
    let store_dir = cell::fresh_dir(&format!("trace-store-{}", std::process::id()));
    let traced = trace::trace_workload(plan, args.fault, &store_dir);
    if let Err(e) = std::fs::remove_dir_all(&store_dir) {
        eprintln!("perfbench: removing {}: {e}", store_dir.display());
    }
    let reports: Vec<&tifl_fl::TrainingReport> =
        traced.runs.iter().filter_map(|r| r.as_ref().ok()).collect();
    let attempted = traced.runs.len() as u64;
    let failed = attempted - reports.len() as u64;
    for (i, run) in traced.runs.iter().enumerate() {
        if let Err(e) = run {
            println!("check FAILED traced run {i}: {e}");
        }
    }
    let equal = failed == 0 && reference.ok && plan.digest(&reports) == reference.digest;
    println!(
        "check traced reports equal the untraced run by digest chain: {}",
        if equal { "yes" } else { "NO" }
    );
    println!(
        "check audit of the traced store: {} artifacts, {} findings",
        traced.audit.artifacts,
        traced.audit.findings.len()
    );
    for f in &traced.audit.findings {
        println!("check FAILED audit: {} {}", f.kind, f.message);
    }

    let table = trace::layer_table(&traced.spans);
    let c = &traced.counters;
    let call_s: f64 = traced
        .spans
        .iter()
        .filter(|s| s.name == "fl.client.train_call")
        .map(trace::Span::dur)
        .sum();
    let rounds = c.rounds.max(1) as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let hits = reference.profile_cache_hits as f64;
    let computed = reference.profiles_computed as f64;
    #[rustfmt::skip]
    let metrics = [
        ("data.build_s", "s", table.self_s("data.build")),
        ("data.samples", "count", c.data_samples as f64),
        ("sim.cluster_s", "s", table.self_s("sim.cluster")),
        ("fl.session.build_s", "s", table.self_s("fl.session.build")),
        ("core.profiler.profile_s", "s", table.self_s("core.profiler.profile")),
        ("core.scheduler.select_s", "s", table.self_s("core.scheduler.select")),
        ("core.scheduler.select_calls", "count", table.calls("core.scheduler.select") as f64),
        ("core.scheduler.observe_s", "s", table.self_s("core.scheduler.observe")),
        ("fl.session.plan_s", "s", table.self_s("fl.session.plan")),
        ("fl.session.plan_calls", "count", table.calls("fl.session.plan") as f64),
        ("fl.client.train_s", "s", table.self_s("fl.client.train")),
        ("fl.client.train_calls", "count", table.calls("fl.client.train_call") as f64),
        ("fl.client.samples_per_s", "samples/s", c.trained_samples as f64 / call_s),
        ("fl.client.idle_share", "fraction", 1.0 - call_s / c.fanout_capacity_s),
        ("fl.aggregator.fold_s", "s", table.self_s("fl.aggregator.fold")),
        ("fl.aggregator.fold_calls", "count", c.fold_calls as f64),
        ("fl.session.eval_s", "s", table.self_s("fl.session.eval")),
        ("fl.session.eval_calls", "count", table.calls("fl.session.eval") as f64),
        ("fl.session.finish_s", "s", table.self_s("fl.session.finish")),
        ("comm.up_bytes_per_round", "bytes", c.up_bytes as f64 / rounds),
        ("comm.down_bytes_per_round", "bytes", c.down_bytes as f64 / rounds),
        ("mem.session_mb", "MB", c.session_mb.unwrap_or(0.0)),
        ("mem.round_growth_mb", "MB", c.round_growth_mb.unwrap_or(0.0)),
        ("sweep.store_write_s", "s", table.self_s("sweep.store_write")),
        ("sweep.audit_s", "s", table.self_s("sweep.audit")),
        ("sweep.profile_cache_hit_ratio", "fraction", hits / (hits + computed).max(1.0)),
        ("sweep.worker_busy_share", "fraction", reference.worker_busy_share),
        ("sweep.input_reuse_share", "fraction", plan.input_reuse_share()),
        ("trace.unattributed_share", "fraction", table.unattributed_s / table.wall_s),
        ("trace.overhead_share", "fraction", traced.wall_s / reference.wall_s - 1.0),
        ("wall_to_target_s", "s", mean(&c.to_target_wall_s)),
        ("virtual_to_target_s", "virtual_s", mean(&c.to_target_virtual_s)),
    ];
    let metrics = metrics.map(|(name, unit, value)| Metric::one(name, unit, value));
    let outcome = Outcome {
        correct: equal && traced.audit.is_clean(),
        attempted,
        failed,
        metrics: metrics.into(),
    };

    let mut text = format!(
        "{name}: traced wall {:.6} s, untraced wall {:.6} s, host_parallelism {}, threads {}\n\
         runs {attempted}, target accuracy {} (missed by {} runs)\n{}",
        table.wall_s,
        reference.wall_s,
        tifl_sweep::store::host_parallelism(),
        plan.threads,
        plan.target,
        c.runs_missing_target,
        table.render()
    );
    for m in &outcome.metrics {
        text.push_str(&format!("{:<30} {:>16.6} {}\n", m.name, m.value, m.unit));
    }
    print!("{text}");
    let out = Path::new(OUT_DIR);
    for (file, body) in [
        (format!("{name}.layers.txt"), text),
        (
            format!("{name}.trace.json"),
            trace::chrome_json(&traced.spans),
        ),
    ] {
        if let Err(e) = std::fs::write(out.join(&file), body) {
            eprintln!("perfbench: writing {file}: {e}");
        }
    }
    outcome.print_table();
    outcome
}
