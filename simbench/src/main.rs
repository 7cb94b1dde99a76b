//! `simbench` — host-time benchmark of the AQL_Sched simulator.
//!
//! ```text
//! simbench --workload <contended|short-quantum|paper-artifacts|all>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! simbench --record-references
//! ```
//!
//! Each workload runs through the entry points users hit
//! (`aql_experiments::execute` and the `repro` artifact functions) for
//! `--seconds` seconds, checks every output, and prints as its last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics (medians over
//! the run's repetitions); `--trace 1` runs the workload once more
//! with the layers decorated and reports the per-layer metrics.
//! `--workload all` runs every workload on both stored seeds, each in
//! its own process, and prints each result line.
//! `--record-references` rewrites `refs/` from the current program.
//! See `NOTES.md` for what each workload and metric is for.

mod check;
mod layers;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use aql_experiments::{execute, CellResult, ExecOpts, PlanCell};
use aql_hv::{RunBudget, RunReport, TimeMode};
use aql_scenarios::catalog;

use check::References;
use layers::Tally;
use workloads::{CellWorkload, ARTIFACTS, PAPER_ARTIFACTS};

/// Timed repetitions a run makes at least, however short `--seconds`.
const MIN_REPS: usize = 3;
/// Set-ups timed before each timed repetition; the median over the
/// run is reported, so set-up is sampled across the whole run.
const SETUPS_PER_REP: usize = 10;
/// Set-ups a traced run times; the median is reported.
const SETUP_REPS: usize = 31;
/// Repetitions of the paper-artifact set in a traced run.
const TRACE_ARTIFACT_REPS: usize = 3;

/// End-to-end metrics: `(name, unit)`.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("ms_per_sim_s", "ms/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Every traced run prints all of
/// them; one a workload cannot measure reads 0 (see `NOTES.md`).
const PER_LAYER: [(&str, &str); 35] = [
    ("workload.run_calls", "count"),
    ("workload.run_ms", "ms"),
    ("workload.run_ns_per_call", "ns"),
    ("workload.coalesce_calls", "count"),
    ("workload.coalesce_linear_ratio", "ratio"),
    ("workload.coalesce_ms", "ms"),
    ("workload.horizon_calls", "count"),
    ("workload.timer_calls", "count"),
    ("mem.rate_cache_hits", "count"),
    ("mem.rate_cache_recomputes", "count"),
    ("mem.rate_cache_hit_ratio", "ratio"),
    ("engine.dispatches", "count"),
    ("engine.self_ms", "ms"),
    ("engine.self_share", "ratio"),
    ("policy.monitor_calls", "count"),
    ("policy.monitor_ms", "ms"),
    ("policy.dispatch_hook_ms", "ms"),
    ("scenarios.parse_ms", "ms"),
    ("scenarios.build_ms", "ms"),
    ("plan.overhead_ms", "ms"),
    ("experiments.fig2_ms", "ms"),
    ("experiments.fig4_ms", "ms"),
    ("experiments.fig5_ms", "ms"),
    ("experiments.fig6left_ms", "ms"),
    ("experiments.fig6right_ms", "ms"),
    ("experiments.fig7_ms", "ms"),
    ("experiments.fig8_ms", "ms"),
    ("experiments.table3_ms", "ms"),
    ("experiments.table5_ms", "ms"),
    ("experiments.fairness_ms", "ms"),
    ("horizon.coalesce_breaks", "count"),
    ("spanpool.parallel_spans", "count"),
    ("oracle.dense_mismatch_cells", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.cells", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

/// What a run found: the output check, the operation counts and the
/// metric values by name.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Distinct output mismatches and failures, each naming its cell.
    problems: BTreeSet<String>,
    metrics: BTreeMap<String, f64>,
}

impl Outcome {
    fn problem(&mut self, msg: String) {
        self.problems.insert(msg);
    }

    fn set(&mut self, metric: &str, value: f64) {
        self.metrics.insert(metric.to_string(), value);
    }

    /// Prints the result line with the given metric set, in order.
    fn print(&self, names: &[(&str, &str)]) {
        for p in &self.problems {
            eprintln!("simbench: {p}");
        }
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = self.metrics.get(*name).copied().unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// This process's resident-set high-water mark, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn ref_path(workload: &str, universe: u64) -> PathBuf {
    manifest_dir()
        .join("refs")
        .join(format!("{workload}.seed{universe}.ref"))
}

fn golden_path(artifact: &str) -> PathBuf {
    manifest_dir()
        .join("..")
        .join("tests")
        .join("goldens")
        .join(format!("{artifact}.golden"))
}

/// Checks a plan's results against the references, counting attempts
/// and failures into `out`. Returns the reports that ran, by cell.
fn check_results(
    cells: &[PlanCell],
    results: &[CellResult],
    refs: &References,
    out: &mut Outcome,
) -> Vec<Option<RunReport>> {
    let mut reports = Vec::with_capacity(cells.len());
    for (cell, res) in cells.iter().zip(results) {
        let label = workloads::label(cell);
        out.attempted += 1;
        match (&res.report, &res.failure) {
            (Some(report), _) => match refs.get(&label) {
                Some(want) => {
                    if let Some(diff) = check::conforms(want, &check::flatten(report)) {
                        out.problem(format!("{label}: output differs from reference: {diff}"));
                    }
                }
                None => out.problem(format!("{label}: no stored reference")),
            },
            (None, Some(failure)) => {
                out.failed += 1;
                out.problem(format!("{label}: cell failed: {failure}"));
            }
            (None, None) => {
                out.failed += 1;
                out.problem(format!("{label}: cell did not run"));
            }
        }
        reports.push(res.report.clone());
    }
    reports
}

/// Runs `n` set-ups, returning each one's parse and build seconds.
fn setups(names: &[&str], policies: &[&str], universe: u64, n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|_| workloads::setup_once(names, policies, universe))
        .collect()
}

/// Median parse and build seconds over [`SETUP_REPS`] set-ups.
fn time_setup(names: &[&str], policies: &[&str], universe: u64) -> (f64, f64) {
    let runs = setups(names, policies, universe, SETUP_REPS);
    let parse: Vec<f64> = runs.iter().map(|r| r.0).collect();
    let build: Vec<f64> = runs.iter().map(|r| r.1).collect();
    (median(&parse), median(&build))
}

/// Whether a timed loop that started at `start` should run another
/// repetition: until [`MIN_REPS`] are done, then while the next one
/// (assumed as long as the last) still ends within `seconds`.
fn another_rep(start: Instant, walls: &[f64], seconds: f64) -> bool {
    match walls.last() {
        Some(last) if walls.len() >= MIN_REPS => start.elapsed().as_secs_f64() + last <= seconds,
        _ => true,
    }
}

/// Timed run of a cell workload: repeats the whole plan, serially, for
/// `seconds`.
fn time_cells(w: &CellWorkload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let universe = workloads::universe(seed);
    let refs = check::load(&ref_path(w.name, universe))?;
    let mut out = Outcome::default();
    let cells = workloads::plan(&workloads::parse_scenarios(w), w.policies, universe);
    let sim_s: f64 = cells.iter().map(workloads::sim_seconds).sum();
    let opts = ExecOpts::serial();
    let (mut walls, mut per_sim, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while another_rep(start, &walls, seconds) {
        let runs = setups(w.scenarios, w.policies, universe, SETUPS_PER_REP);
        setup_s.extend(runs.iter().map(|(p, b)| p + b));
        let t0 = Instant::now();
        let results = execute(&cells, &opts)?;
        walls.push(t0.elapsed().as_secs_f64());
        let cell_ns: u64 = results.iter().map(|r| r.wall_ns).sum();
        per_sim.push(cell_ns as f64 / 1e6 / sim_s);
        check_results(&cells, &results, &refs, &mut out);
    }
    eprintln!(
        "simbench: {} seed {seed}: {} cells, {sim_s} simulated s per rep; rep walls {walls:.3?} s",
        w.name,
        cells.len(),
    );
    out.set("wall_s", median(&walls));
    out.set("ms_per_sim_s", median(&per_sim));
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", peak_rss_mb()?);
    Ok(out)
}

/// Traced run of a cell workload: one untraced pass (checked against
/// the references), one decorated pass (checked bitwise against the
/// untraced one), the dense-oracle audit and the span-pool probe.
fn trace_cells(w: &CellWorkload, seed: u64) -> Result<Outcome, String> {
    let universe = workloads::universe(seed);
    let refs = check::load(&ref_path(w.name, universe))?;
    let mut out = Outcome::default();
    let (parse_s, build_s) = time_setup(w.scenarios, w.policies, universe);
    let cells = workloads::plan(&workloads::parse_scenarios(w), w.policies, universe);

    let t0 = Instant::now();
    let results = execute(&cells, &ExecOpts::serial())?;
    let untraced_s = t0.elapsed().as_secs_f64();
    let cell_ns: u64 = results.iter().map(|r| r.wall_ns).sum();
    let untraced = check_results(&cells, &results, &refs, &mut out);

    // Decorated pass.
    let tally = Arc::new(Tally::default());
    let (mut run_ns, mut hits, mut recomputes, mut breaks) = (0u64, 0u64, 0u64, 0u64);
    let t1 = Instant::now();
    for (cell, want) in cells.iter().zip(&untraced) {
        let label = workloads::label(cell);
        let mut sim = layers::build_traced(cell, &tally);
        let tr = Instant::now();
        let ran = sim.run_measured_budgeted(
            cell.spec.warmup_ns,
            cell.spec.measure_ns,
            &RunBudget::default(),
        );
        run_ns += tr.elapsed().as_nanos() as u64;
        let (h, r) = sim.rate_cache_stats();
        hits += h;
        recomputes += r;
        breaks += sim.coalesce_break_count();
        match (ran, want) {
            (Ok(got), Some(want)) => {
                if let Some(diff) = check::bitwise(want, &got) {
                    out.problem(format!(
                        "{label}: traced report differs from untraced: {diff}"
                    ));
                }
            }
            (Err(e), _) => out.problem(format!("{label}: traced run failed: {e}")),
            (Ok(_), None) => {}
        }
    }
    let traced_s = t1.elapsed().as_secs_f64();

    // Dense-oracle audit: a mismatch is a finding, not a failed check.
    let mut dense_mismatches = Vec::new();
    for (cell, want) in cells.iter().zip(&untraced) {
        let Some(want) = want else { continue };
        let mut sim = workloads::build_cell(cell, TimeMode::Dense, 1);
        match sim.run_measured_budgeted(
            cell.spec.warmup_ns,
            cell.spec.measure_ns,
            &RunBudget::default(),
        ) {
            Ok(dense) => {
                if let Some(diff) = check::conforms(&check::flatten(&dense), &check::flatten(want))
                {
                    dense_mismatches.push(format!("{}: {diff}", workloads::label(cell)));
                }
            }
            Err(e) => {
                dense_mismatches.push(format!("{}: dense run failed: {e}", workloads::label(cell)))
            }
        }
    }
    for m in &dense_mismatches {
        eprintln!("simbench: dense oracle mismatch: {m}");
    }

    // Span-pool probe on the multi-socket cells: must stay bitwise.
    let (mut spans, mut probed) = (0u64, 0usize);
    for (cell, want) in cells.iter().zip(&untraced) {
        let Some(want) = want else { continue };
        if cell.spec.machine.sockets < 2 {
            continue;
        }
        let mut sim = workloads::build_cell(cell, TimeMode::Adaptive, 2);
        let label = workloads::label(cell);
        match sim.run_measured_budgeted(
            cell.spec.warmup_ns,
            cell.spec.measure_ns,
            &RunBudget::default(),
        ) {
            Ok(got) => {
                if let Some(diff) = check::bitwise(want, &got) {
                    out.problem(format!("{label}: span_workers=2 differs from 1: {diff}"));
                }
            }
            Err(e) => out.problem(format!("{label}: span_workers=2 run failed: {e}")),
        }
        spans += sim.parallel_span_count();
        probed += 1;
    }
    eprintln!("simbench: span-pool probe: {probed} multi-socket cells at span_workers=2, {spans} parallel spans");

    let ms = |ns: u64| ns as f64 / 1e6;
    let t = |c: &std::sync::atomic::AtomicU64| c.load(Relaxed);
    let workload_ns = t(&tally.run_ns) + t(&tally.coalesce_ns);
    let policy_ns = t(&tally.monitor_ns) + t(&tally.dispatch_ns);
    let self_ns = run_ns.saturating_sub(workload_ns + policy_ns);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.set("workload.run_calls", t(&tally.run_calls) as f64);
    out.set("workload.run_ms", ms(t(&tally.run_ns)));
    out.set(
        "workload.run_ns_per_call",
        ratio(t(&tally.run_ns), t(&tally.run_calls)),
    );
    out.set("workload.coalesce_calls", t(&tally.coalesce_calls) as f64);
    out.set(
        "workload.coalesce_linear_ratio",
        ratio(t(&tally.coalesce_linear), t(&tally.coalesce_calls)),
    );
    out.set("workload.coalesce_ms", ms(t(&tally.coalesce_ns)));
    out.set("workload.horizon_calls", t(&tally.horizon_calls) as f64);
    out.set("workload.timer_calls", t(&tally.timer_calls) as f64);
    out.set("mem.rate_cache_hits", hits as f64);
    out.set("mem.rate_cache_recomputes", recomputes as f64);
    out.set("mem.rate_cache_hit_ratio", ratio(hits, hits + recomputes));
    out.set("engine.dispatches", t(&tally.dispatch_calls) as f64);
    out.set("engine.self_ms", ms(self_ns));
    out.set("engine.self_share", ratio(self_ns, run_ns));
    out.set("policy.monitor_calls", t(&tally.monitor_calls) as f64);
    out.set("policy.monitor_ms", ms(t(&tally.monitor_ns)));
    out.set("policy.dispatch_hook_ms", ms(t(&tally.dispatch_ns)));
    out.set("scenarios.parse_ms", parse_s * 1e3);
    out.set("scenarios.build_ms", build_s * 1e3);
    out.set("plan.overhead_ms", untraced_s * 1e3 - ms(cell_ns));
    out.set("horizon.coalesce_breaks", breaks as f64);
    out.set("spanpool.parallel_spans", spans as f64);
    out.set("oracle.dense_mismatch_cells", dense_mismatches.len() as f64);
    out.set("trace.overhead_ratio", traced_s / untraced_s);
    out.set("trace.cells", cells.len() as f64);
    Ok(out)
}

/// Runs the artifact set once at two threads, timing each artifact,
/// and checks each against its golden. Returns per-artifact seconds.
fn artifact_pass(goldens: &[String], out: &mut Outcome) -> Vec<f64> {
    let opts = workloads::artifact_opts();
    let mut secs = Vec::with_capacity(ARTIFACTS.len());
    for ((name, _), want) in ARTIFACTS.iter().zip(goldens) {
        let t0 = Instant::now();
        let ran = catch_unwind(AssertUnwindSafe(|| {
            workloads::golden_text(&workloads::run_artifact(name, &opts))
        }));
        secs.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        match ran {
            Ok(got) if got == *want => {}
            Ok(_) => out.problem(format!("{name}: output differs from its golden")),
            Err(_) => {
                out.failed += 1;
                out.problem(format!("{name}: artifact failed"));
            }
        }
    }
    secs
}

fn load_goldens() -> Result<Vec<String>, String> {
    ARTIFACTS
        .iter()
        .map(|(name, _)| {
            let path = golden_path(name);
            std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read golden {}: {e}", path.display()))
        })
        .collect()
}

/// Timed run of the paper-artifact set: repeats the whole set for
/// `seconds`; `wall_s` is the set's two-thread makespan.
fn time_artifacts(seconds: f64) -> Result<Outcome, String> {
    let goldens = load_goldens()?;
    let mut out = Outcome::default();
    let sim_s: f64 = ARTIFACTS.iter().map(|(_, s)| s).sum();
    let names = catalog::names();
    let (mut walls, mut setup_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while another_rep(start, &walls, seconds) {
        let runs = setups(
            &names,
            &workloads::ARTIFACT_SETUP_POLICIES,
            0,
            SETUPS_PER_REP,
        );
        setup_s.extend(runs.iter().map(|(p, b)| p + b));
        let t0 = Instant::now();
        artifact_pass(&goldens, &mut out);
        walls.push(t0.elapsed().as_secs_f64());
    }
    eprintln!(
        "simbench: {PAPER_ARTIFACTS}: {} artifacts, {sim_s} simulated s per rep; rep walls {walls:.3?} s",
        ARTIFACTS.len(),
    );
    let wall = median(&walls);
    out.set("wall_s", wall);
    out.set("ms_per_sim_s", wall * 1e3 / sim_s);
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", peak_rss_mb()?);
    Ok(out)
}

/// Traced run of the paper-artifact set: per-artifact wall times and
/// the set-up split. The artifact functions build their cells
/// internally, so the cell-level layers are measured on the cell
/// workloads only.
fn trace_artifacts() -> Result<Outcome, String> {
    let goldens = load_goldens()?;
    let mut out = Outcome::default();
    let (parse_s, build_s) = time_setup(&catalog::names(), &workloads::ARTIFACT_SETUP_POLICIES, 0);
    out.set("scenarios.parse_ms", parse_s * 1e3);
    out.set("scenarios.build_ms", build_s * 1e3);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); ARTIFACTS.len()];
    for _ in 0..TRACE_ARTIFACT_REPS {
        let t0 = Instant::now();
        let opts = workloads::artifact_opts();
        for (name, _) in ARTIFACTS {
            std::hint::black_box(workloads::golden_text(&workloads::run_artifact(
                name, &opts,
            )));
        }
        untraced.push(t0.elapsed().as_secs_f64());
        let t1 = Instant::now();
        for (i, s) in artifact_pass(&goldens, &mut out).into_iter().enumerate() {
            per[i].push(s);
        }
        traced.push(t1.elapsed().as_secs_f64());
    }
    for ((name, _), secs) in ARTIFACTS.iter().zip(&per) {
        out.set(&format!("experiments.{name}_ms"), median(secs) * 1e3);
    }
    out.set("trace.overhead_ratio", median(&traced) / median(&untraced));
    out.set("trace.cells", ARTIFACTS.len() as f64);
    Ok(out)
}

/// Rewrites every cell workload's reference files from the current
/// program.
fn record_references() -> Result<(), String> {
    for w in workloads::CELL_WORKLOADS {
        for universe in 0..workloads::UNIVERSES {
            let cells = workloads::plan(&workloads::parse_scenarios(w), w.policies, universe);
            let results = execute(&cells, &ExecOpts::default())?;
            let mut refs = References::new();
            for (cell, res) in cells.iter().zip(&results) {
                let report = res
                    .report
                    .as_ref()
                    .ok_or_else(|| format!("{}: cell did not finish", workloads::label(cell)))?;
                refs.insert(workloads::label(cell), check::flatten(report));
            }
            let path = ref_path(w.name, universe);
            let text = format!(
                "# simbench reference outputs: workload {}, seed universe {universe}\n{}",
                w.name,
                check::encode(&refs)
            );
            std::fs::write(&path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            eprintln!("simbench: wrote {} ({} cells)", path.display(), refs.len());
        }
    }
    Ok(())
}

/// Runs every workload on both stored seeds, each in a fresh process
/// so no workload inherits another's memory high-water mark.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut all_ok = true;
    for w in workloads::ALL {
        for seed in 0..workloads::UNIVERSES {
            let child = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {w}: {e}"))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let ok = child.status.success() && last.starts_with("{\"correct\": true");
            all_ok &= ok;
            println!("{w} seed={seed}: {last}");
        }
    }
    Ok(all_ok)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-references" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
                workloads::ALL.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.record {
        return match record_references() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("simbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let cell_workload = workloads::CELL_WORKLOADS
        .into_iter()
        .find(|w| w.name == args.workload);
    let ran = match (args.workload.as_str(), cell_workload) {
        ("all", _) => {
            return match run_all(&args) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("simbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        (_, Some(w)) if args.trace => trace_cells(w, args.seed),
        (_, Some(w)) => time_cells(w, args.seed, args.seconds),
        (PAPER_ARTIFACTS, None) if args.trace => trace_artifacts(),
        (PAPER_ARTIFACTS, None) => time_artifacts(args.seconds),
        (other, None) => Err(format!("unknown workload '{other}'")),
    };
    match ran {
        Ok(out) => {
            if args.trace {
                out.print(&PER_LAYER);
            } else {
                out.print(&END_TO_END);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}
