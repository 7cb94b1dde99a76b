//! The benchmark's named workloads and how their inputs are made.

use std::time::Instant;

use aql_experiments::{fig2, fig4, fig5, fig6, fig7, fig8, tables, ExecOpts, PlanCell, Table};
use aql_hv::{Simulation, TimeMode};
use aql_scenarios::{build_sim_seeded_full, catalog, parse_policy, ScenarioSpec};

/// A scenario × policy matrix run through `aql_experiments::execute`.
pub struct CellWorkload {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// Catalog scenarios, in plan order.
    pub scenarios: &'static [&'static str],
    /// Policy tokens, in plan order.
    pub policies: &'static [&'static str],
}

/// Trasher-heavy, mostly multi-socket, long quanta: the integrator/LLC
/// contention regime.
pub const CONTENDED: CellWorkload = CellWorkload {
    name: "contended",
    scenarios: &[
        "foursocket",
        "fig3-complex",
        "spinfarm",
        "parsec-batch",
        "memthrash",
    ],
    policies: &["xen-credit", "vturbo", "aql-sched"],
};

/// 1 ms slices and micro-slicing: the dispatch and L2-rewarm regime.
pub const SHORT_QUANTUM: CellWorkload = CellWorkload {
    name: "short-quantum",
    scenarios: &[
        "pinned-calibration",
        "s1",
        "s2",
        "s3",
        "s4",
        "s5",
        "policy-duel",
        "webfarm",
        "webfarm-oversub",
        "phased-tenants",
    ],
    policies: &["microsliced", "vslicer", "aql-sched"],
};

/// The cell workloads.
pub const CELL_WORKLOADS: [&CellWorkload; 2] = [&CONTENDED, &SHORT_QUANTUM];

/// The paper-artifacts workload's name.
pub const PAPER_ARTIFACTS: &str = "paper-artifacts";

/// Worker threads the paper-artifacts workload fans its plans across.
pub const ARTIFACT_THREADS: usize = 2;

/// The deterministic `repro --quick` artifacts, each with the
/// simulated seconds (warm-up + measurement, summed over its cells)
/// its plans run. The plans are private to the artifact functions, so
/// the total is a property of the artifact set, counted once from the
/// cells `execute` ran; a change to it changes the goldens too.
pub const ARTIFACTS: [(&str, f64); 10] = [
    ("fig2", 83.2),
    ("fig4", 4.25),
    ("fig5", 182.0),
    ("fig6left", 13.0),
    ("fig6right", 2.6),
    ("fig7", 5.2),
    ("fig8", 6.5),
    ("table3", 36.4),
    ("table5", 6.5),
    ("fairness", 2.6),
];

/// Policies the paper-artifacts set-up builds every catalog scenario
/// under: the baseline and AQL_Sched, which every artifact runs.
pub const ARTIFACT_SETUP_POLICIES: [&str; 2] = ["xen-credit", "aql-sched"];

/// Every workload name, in the order `--workload all` runs them.
pub const ALL: [&str; 3] = ["contended", "short-quantum", PAPER_ARTIFACTS];

/// Seeds with stored references: `--seed` selects one by parity, so
/// every run's outputs are checked at full precision. Even seeds run
/// the catalog's own seeds (the default); odd seeds shift every cell's
/// base seed by [`HELD_OUT_SHIFT`] (the held-out seed).
pub const UNIVERSES: u64 = 2;

/// Base-seed shift of the held-out seed.
pub const HELD_OUT_SHIFT: u64 = 1000;

/// Which stored seed `--seed` selects.
pub fn universe(seed: u64) -> u64 {
    seed % UNIVERSES
}

/// Parses a catalog scenario document.
pub fn parse_scenario(name: &str) -> ScenarioSpec {
    let doc = catalog::document(name).unwrap_or_else(|| panic!("unknown scenario '{name}'"));
    ScenarioSpec::parse(doc).unwrap_or_else(|e| panic!("scenario '{name}': {e}"))
}

/// Parses a workload's scenario documents.
pub fn parse_scenarios(w: &CellWorkload) -> Vec<ScenarioSpec> {
    w.scenarios.iter().map(|n| parse_scenario(n)).collect()
}

/// The workload's plan at a seed universe, skipping cells whose policy
/// cannot run on the scenario's machine.
pub fn plan(specs: &[ScenarioSpec], policies: &[&str], universe: u64) -> Vec<PlanCell> {
    let mut cells = Vec::new();
    for spec in specs {
        for token in policies {
            let policy = parse_policy(token).expect("workload policy tokens parse");
            if policy.applicable(spec) {
                let seed = spec.seed.wrapping_add(universe * HELD_OUT_SHIFT);
                cells.push(PlanCell::new(spec.clone(), token).with_seed(seed));
            }
        }
    }
    cells
}

/// `<scenario>/<policy>`, the label a cell goes by in references and
/// messages.
pub fn label(cell: &PlanCell) -> String {
    format!("{}/{}", cell.spec.name, cell.policy)
}

/// Simulated seconds (warm-up + measurement) a cell runs.
pub fn sim_seconds(cell: &PlanCell) -> f64 {
    (cell.spec.warmup_ns + cell.spec.measure_ns) as f64 / 1e9
}

/// Builds a cell's simulation exactly as `execute` does.
pub fn build_cell(cell: &PlanCell, mode: TimeMode, span_workers: usize) -> Simulation {
    let policy = parse_policy(&cell.policy)
        .expect("workload policy tokens parse")
        .build(&cell.spec);
    build_sim_seeded_full(&cell.spec, policy, cell.base_seed, mode, true, span_workers)
}

/// One set-up: parse the documents, then build every cell's
/// simulation without advancing simulated time. Returns the parse and
/// build seconds.
pub fn setup_once(names: &[&str], policies: &[&str], universe: u64) -> (f64, f64) {
    let t0 = Instant::now();
    let specs: Vec<ScenarioSpec> = names.iter().map(|n| parse_scenario(n)).collect();
    let parsed = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let sims: Vec<Simulation> = plan(&specs, policies, universe)
        .iter()
        .map(|c| build_cell(c, TimeMode::Adaptive, 1))
        .collect();
    let built = t1.elapsed().as_secs_f64();
    drop(std::hint::black_box(sims));
    (parsed, built)
}

/// Runs one paper artifact the way `repro --quick` does.
pub fn run_artifact(name: &str, opts: &ExecOpts) -> Vec<Table> {
    match name {
        "fig2" => fig2::run_all(true, opts),
        "fig4" => fig4::run(true, opts),
        "fig5" => vec![fig5::run(&[], true, opts)],
        "fig6left" => vec![fig6::run_left(true, opts)],
        "fig6right" => {
            let (norm, clusters) = fig6::run_right(true, opts);
            vec![norm, clusters]
        }
        "fig7" => vec![fig7::run(true, opts)],
        "fig8" => vec![fig8::run(true, opts)],
        "table3" => vec![tables::table3(true, opts)],
        "table5" => vec![tables::table5(true, opts)],
        "fairness" => vec![tables::fairness(true, opts)],
        other => panic!("unknown artifact '{other}'"),
    }
}

/// Renders tables in the golden-file layout: rendered text, a `~csv~`
/// separator, the CSV bytes and a blank line per table.
pub fn golden_text(tables: &[Table]) -> String {
    let mut out = String::new();
    for t in tables {
        out.push_str(&t.render());
        out.push_str("~csv~\n");
        out.push_str(&t.to_csv());
        out.push('\n');
    }
    out
}

/// The options every paper-artifact run uses: two worker threads, and
/// a failed cell aborts its artifact (as in `repro`).
pub fn artifact_opts() -> ExecOpts {
    ExecOpts {
        threads: ARTIFACT_THREADS,
        fail_fast: true,
        ..ExecOpts::default()
    }
}
