//! Engine benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path enginebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the benchmark builds `SyncTrainingEngine` with `new` and
//! trains it with `run` over and over until `--seconds` have passed (at least
//! three times), and reports the end-to-end metrics. With `--trace 1` it
//! alternates untraced engine runs with runs of the traced replica of the
//! same round (see `replica.rs`) until `--seconds` have passed, and reports
//! per-layer metrics. See `METRICS.md` for the workloads and metrics.
//! Either way it checks the outputs, prints one line per metric, and ends
//! with one JSON object on the last line of standard output. A failed check
//! makes `correct` false and the exit code 1.

mod replica;
mod trace;
mod workload;

use agg_ps::{StandingChange, SyncTrainingEngine, TrainingReport, WorkerRole};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

/// Untraced engine runs per window, at least: the median set-up time needs
/// several samples, and the determinism check needs two runs.
const MIN_ENGINE_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One untraced engine run: set-up and training wall times plus its report.
struct EngineRun {
    setup_sec: f64,
    run_sec: f64,
    report: TrainingReport,
    roles: Vec<WorkerRole>,
}

impl EngineRun {
    fn measure(workload: Workload, seed: u64) -> Result<EngineRun, String> {
        let config = workload.config(seed);
        let start = Instant::now();
        let mut engine = SyncTrainingEngine::new(config).map_err(|e| format!("new: {e}"))?;
        let setup_sec = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let report = engine.run().map_err(|e| format!("run: {e}"))?;
        let run_sec = start.elapsed().as_secs_f64();
        Ok(EngineRun { setup_sec, run_sec, report, roles: engine.worker_roles() })
    }

    fn failed(&self) -> u64 {
        self.report.skipped_updates + self.report.refused_rounds
    }

    fn first_loss(&self) -> f64 {
        self.report.trace.points().first().map_or(f64::NAN, |p| p.loss)
    }

    fn final_loss(&self) -> f64 {
        self.report.trace.points().last().map_or(f64::NAN, |p| p.loss)
    }

    fn honest_quarantines(&self) -> usize {
        self.report
            .quarantine_events
            .iter()
            .filter(|e| {
                e.change == StandingChange::Quarantined && !self.roles[e.worker].is_byzantine()
            })
            .count()
    }
}

/// Output checks shared by both modes; each failure is one message.
struct Checks(Vec<String>);

impl Checks {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    /// Checks one engine run against the workload's expected outcome.
    fn engine_run(&mut self, workload: Workload, run: &EngineRun) {
        let name = workload.name();
        self.require(run.failed() == 0, || {
            format!("{name}: {} of {} rounds failed", run.failed(), workload.rounds())
        });
        self.require(run.report.steps_completed == workload.rounds(), || {
            format!("{name}: {} steps completed", run.report.steps_completed)
        });
        self.require(run.final_loss() < run.first_loss(), || {
            format!("{name}: loss {} did not fall below {}", run.final_loss(), run.first_loss())
        });
        self.require(run.honest_quarantines() == 0, || {
            format!("{name}: {} honest workers quarantined", run.honest_quarantines())
        });
        if workload == Workload::TreeChaosLedger {
            self.require(run.report.corrupt_rejects > 0, || {
                format!("{name}: no corrupt packet was rejected, so the chaos never landed")
            });
        }
    }

    /// Checks that a run with the same seed reproduced `reference`'s loss.
    fn same_loss(&mut self, what: &str, reference: f64, loss: f64) {
        self.require(reference.to_bits() == loss.to_bits(), || {
            format!("{what}: final loss {loss} differs from {reference}")
        });
    }
}

/// The median of `values` (which must not be empty).
fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (which must not be empty).
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// This process's peak resident set size in MB (`VmHWM`). The process runs
/// one workload only, so the figure is that workload's high-water mark.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing VmHWM: {e}"))?;
    Ok(kb / 1024.0)
}

/// The host's cumulative CPU ticks as `(stolen, total)`, from the first
/// line of `/proc/stat`. Under virtualisation, time stolen by other guests
/// slows every wall-clock figure, so the benchmark prints the stolen share
/// of its window next to them.
fn host_cpu_ticks() -> Result<(u64, u64), String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("reading /proc/stat: {e}"))?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|line| line.strip_prefix("cpu "))
        .ok_or("no cpu line in /proc/stat")?
        .split_whitespace()
        .map(|t| t.parse().map_err(|e| format!("parsing /proc/stat: {e}")))
        .collect::<Result<_, String>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user time.
    Ok((ticks.get(7).copied().unwrap_or(0), ticks.iter().take(8).sum()))
}

/// A metric line of the result.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// The window's outcome: what to print and whether the checks passed.
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Figures printed for the reader but not part of the JSON result.
    notes: Vec<Metric>,
    metrics: Vec<Metric>,
    checks: Checks,
}

fn measure_engine(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // The high-water mark is read after the first run, so it covers one
    // set-up and one training run whatever the window's run count.
    let mut runs = vec![EngineRun::measure(workload, args.seed)?];
    let first_peak_rss_mb = peak_rss_mb()?;
    while runs.len() < MIN_ENGINE_RUNS || start.elapsed() < window {
        runs.push(EngineRun::measure(workload, args.seed)?);
    }
    let mut checks = Checks(Vec::new());
    for run in &runs {
        checks.engine_run(workload, run);
        checks.same_loss(
            &format!("{} rerun with seed {}", workload.name(), args.seed),
            runs[0].final_loss(),
            run.final_loss(),
        );
    }
    let attempted = workload.rounds() * runs.len() as u64;
    let failed: u64 = runs.iter().map(EngineRun::failed).sum();
    let round_ms: Vec<f64> =
        runs.iter().map(|r| 1e3 * r.run_sec / workload.rounds() as f64).collect();
    let setup_s: Vec<f64> = runs.iter().map(|r| r.setup_sec).collect();
    println!("round_ms per run: {round_ms:.3?}");
    println!("setup_s per run: {setup_s:.3?}");
    let last = runs.last().expect("at least MIN_ENGINE_RUNS runs");
    let report = &last.report;
    let byz_share = report.byzantine_selected_rounds as f64 / report.steps_completed.max(1) as f64;
    Ok(Outcome {
        attempted,
        failed,
        // Printed, but left out of the result: the first two must be 0 and
        // are checked, and the loss and the Byzantine share vary more
        // across seeds than any bound the result may carry.
        notes: vec![
            Metric::new("runs", runs.len() as f64, "count"),
            Metric::new("round_fail_ratio", failed as f64 / attempted as f64, "ratio"),
            Metric::new("honest_quarantines", last.honest_quarantines() as f64, "count"),
            Metric::new("byz_selected_share", byz_share, "ratio"),
            Metric::new("first_loss", last.first_loss(), "nats"),
            Metric::new("final_loss", last.final_loss(), "nats"),
            Metric::new("corrupt_rejects", report.corrupt_rejects as f64, "count"),
        ],
        metrics: vec![
            // The median run: the fastest one hinges on a single lucky run
            // and moved between windows more than the median did.
            Metric::new("round_ms", median(&round_ms), "ms"),
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("peak_rss_mb", first_peak_rss_mb, "MB"),
            Metric::new("final_accuracy", last.report.final_accuracy(), "ratio"),
        ],
        checks,
    })
}

fn measure_traced(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    // Untraced and traced runs alternate, so the tracing overhead compares
    // runs made under the same load.
    let mut engines = Vec::new();
    let mut runs = Vec::new();
    while runs.is_empty() || start.elapsed() < window {
        engines.push(EngineRun::measure(workload, args.seed)?);
        runs.push(replica::Replica::new(workload.config(args.seed))?.run()?);
    }
    let mut checks = Checks(Vec::new());
    for (engine, run) in engines.iter().zip(&runs) {
        checks.engine_run(workload, engine);
        checks.same_loss(
            &format!("{} traced replica", workload.name()),
            engine.final_loss(),
            run.final_loss,
        );
    }
    let untraced_round_ms: Vec<f64> =
        engines.iter().map(|e| 1e3 * e.run_sec / workload.rounds() as f64).collect();
    let untraced_round_ms = median(&untraced_round_ms);
    let metrics = replica::layer_metrics(&runs, untraced_round_ms);
    let last = &runs.last().expect("at least one traced run").spans;
    println!("spans written to {}", trace::write_spans(workload.name(), args.seed, last)?);
    Ok(Outcome {
        attempted: workload.rounds() * (engines.len() + runs.len()) as u64,
        failed: engines.iter().map(EngineRun::failed).chain(runs.iter().map(|r| r.failed)).sum(),
        notes: vec![
            Metric::new("runs", runs.len() as f64, "count"),
            Metric::new("untraced_round_ms", untraced_round_ms, "ms"),
        ],
        metrics,
        checks,
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; such a value already failed a check.
            let value = if m.value.is_finite() { m.value.to_string() } else { "null".into() };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("enginebench: {e}");
            return ExitCode::from(2);
        }
    };
    let ticks_before = host_cpu_ticks();
    let outcome = if args.trace { measure_traced(&args) } else { measure_engine(&args) };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("enginebench: {} failed: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    println!(
        "workload {} seed {} threads {}",
        args.workload.name(),
        args.seed,
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    if let (Ok((stolen0, total0)), Ok((stolen1, total1))) = (ticks_before, host_cpu_ticks()) {
        let share = (stolen1 - stolen0) as f64 / (total1 - total0).max(1) as f64;
        outcome.notes.push(Metric::new("host_steal_share", share, "ratio"));
    }
    for m in outcome.notes.iter().chain(&outcome.metrics) {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for m in &outcome.metrics {
        outcome.checks.require(m.value.is_finite(), || format!("{} is {}", m.name, m.value));
    }
    for failure in &outcome.checks.0 {
        println!("CHECK FAILED: {failure}");
    }
    let correct = outcome.checks.0.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        json_metrics(&outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
