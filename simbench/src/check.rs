//! Output checks: a [`RunReport`] flattened to typed fields, stored
//! reference files, and the two comparators the benchmark uses.
//!
//! * [`conforms`] is the repository's tolerance oracle: every integer
//!   and string field exact, every f64 within [`REL_TOL`] relative.
//! * [`bitwise`] compares f64 fields by `to_bits`, for runs that must
//!   be the same computation (traced vs untraced, span workers).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use aql_hv::{RunReport, WorkloadMetrics};

/// The tolerance the oracle grants f64 fields (relative).
pub const REL_TOL: f64 = 1e-6;

/// One field value of a flattened report.
#[derive(Debug, Clone)]
pub enum Val {
    /// Integer accounting: always compared exactly.
    U(u64),
    /// Floating-point metric.
    F(f64),
    /// Names (policy, VM).
    S(String),
}

/// A report as `(field path, value)` pairs in a fixed order.
pub type Flat = Vec<(String, Val)>;

/// Flattens every field of a report, in declaration order.
pub fn flatten(r: &RunReport) -> Flat {
    let mut out: Flat = vec![
        ("sim_ns".into(), Val::U(r.sim_ns)),
        ("policy".into(), Val::S(r.policy.clone())),
    ];
    for (i, b) in r.pcpu_busy_ns.iter().enumerate() {
        out.push((format!("pcpu{i}.busy_ns"), Val::U(*b)));
    }
    for (i, vm) in r.vms.iter().enumerate() {
        let p = format!("vm{i}");
        out.push((format!("{p}.id"), Val::U(vm.vm.index() as u64)));
        out.push((format!("{p}.name"), Val::S(vm.name.clone())));
        for (s, ns) in vm.vcpu_cpu_ns.iter().enumerate() {
            out.push((format!("{p}.vcpu{s}.cpu_ns"), Val::U(*ns)));
        }
        for (s, m) in vm.vcpu_pool_migrations.iter().enumerate() {
            out.push((format!("{p}.vcpu{s}.migrations"), Val::U(*m)));
        }
        match &vm.metrics {
            WorkloadMetrics::Io {
                latency,
                completed,
                offered,
            } => {
                out.push((format!("{p}.io.count"), Val::U(latency.count)));
                out.push((format!("{p}.io.mean_ns"), Val::F(latency.mean_ns)));
                out.push((format!("{p}.io.p95_ns"), Val::F(latency.p95_ns)));
                out.push((format!("{p}.io.p99_ns"), Val::F(latency.p99_ns)));
                out.push((format!("{p}.io.max_ns"), Val::F(latency.max_ns)));
                out.push((format!("{p}.io.nan_samples"), Val::U(latency.nan_samples)));
                out.push((format!("{p}.io.completed"), Val::U(*completed)));
                out.push((format!("{p}.io.offered"), Val::U(*offered)));
            }
            WorkloadMetrics::Spin {
                work_items,
                lock_hold_mean_ns,
                lock_hold_max_ns,
                lock_wait_mean_ns,
                spin_ns,
            } => {
                out.push((format!("{p}.spin.work_items"), Val::U(*work_items)));
                out.push((format!("{p}.spin.hold_mean_ns"), Val::F(*lock_hold_mean_ns)));
                out.push((format!("{p}.spin.hold_max_ns"), Val::F(*lock_hold_max_ns)));
                out.push((format!("{p}.spin.wait_mean_ns"), Val::F(*lock_wait_mean_ns)));
                out.push((format!("{p}.spin.spin_ns"), Val::U(*spin_ns)));
            }
            WorkloadMetrics::Mem { instructions } => {
                out.push((format!("{p}.mem.instructions"), Val::F(*instructions)));
            }
            WorkloadMetrics::None => out.push((format!("{p}.none"), Val::U(0))),
        }
    }
    out
}

fn close(a: f64, b: f64) -> bool {
    if a.to_bits() == b.to_bits() {
        return true;
    }
    let denom = a.abs().max(b.abs());
    // NaN fails every comparison below, so it never conforms.
    denom == 0.0 || (a - b).abs() / denom <= REL_TOL
}

/// The first field on which `got` differs from `want`, described;
/// `None` when they agree. `tolerant` selects the oracle's f64 rule,
/// otherwise f64 fields must be bitwise equal.
fn first_diff(want: &Flat, got: &Flat, tolerant: bool) -> Option<String> {
    if want.len() != got.len() {
        return Some(format!("{} fields, expected {}", got.len(), want.len()));
    }
    for ((wk, wv), (gk, gv)) in want.iter().zip(got) {
        if wk != gk {
            return Some(format!("field {gk} where {wk} was expected"));
        }
        let same = match (wv, gv) {
            (Val::U(a), Val::U(b)) => a == b,
            (Val::S(a), Val::S(b)) => a == b,
            (Val::F(a), Val::F(b)) if tolerant => close(*a, *b),
            (Val::F(a), Val::F(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        };
        if !same {
            return Some(format!("{wk}: {gv:?}, expected {wv:?}"));
        }
    }
    None
}

/// Tolerance oracle: integers and names exact, f64 within [`REL_TOL`].
pub fn conforms(want: &Flat, got: &Flat) -> Option<String> {
    first_diff(want, got, true)
}

/// Bitwise equality of two reports (f64 compared by `to_bits`).
pub fn bitwise(want: &RunReport, got: &RunReport) -> Option<String> {
    first_diff(&flatten(want), &flatten(got), false)
}

/// Stored references: flattened reports keyed by cell label.
pub type References = BTreeMap<String, Flat>;

/// Renders references in the stored text format: a `@ <cell>` line
/// opens each cell, then one `<field> <u|f|s> <value>` line per field.
/// f64 values use Rust's shortest round-trip form, so they parse back
/// to the same bits.
pub fn encode(refs: &References) -> String {
    let mut out = String::new();
    for (cell, flat) in refs {
        let _ = writeln!(out, "@ {cell}");
        for (k, v) in flat {
            let _ = match v {
                Val::U(x) => writeln!(out, "{k} u {x}"),
                Val::F(x) => writeln!(out, "{k} f {x:?}"),
                Val::S(x) => writeln!(out, "{k} s {x}"),
            };
        }
    }
    out
}

/// Parses [`encode`]'s format.
pub fn decode(text: &str) -> Result<References, String> {
    let mut refs = References::new();
    let mut current: Option<(String, Flat)> = None;
    for (n, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(cell) = line.strip_prefix("@ ") {
            if let Some((c, f)) = current.take() {
                refs.insert(c, f);
            }
            current = Some((cell.to_string(), Flat::new()));
            continue;
        }
        let bad = || format!("line {}: malformed reference '{line}'", n + 1);
        let mut parts = line.splitn(3, ' ');
        let (Some(k), Some(t), Some(v)) = (parts.next(), parts.next(), parts.next()) else {
            return Err(bad());
        };
        let val = match t {
            "u" => Val::U(v.parse().map_err(|_| bad())?),
            "f" => Val::F(v.parse().map_err(|_| bad())?),
            "s" => Val::S(v.to_string()),
            _ => return Err(bad()),
        };
        let Some((_, flat)) = current.as_mut() else {
            return Err(bad());
        };
        flat.push((k.to_string(), val));
    }
    if let Some((c, f)) = current {
        refs.insert(c, f);
    }
    Ok(refs)
}

/// Loads a reference file.
pub fn load(path: &Path) -> Result<References, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read references {}: {e}", path.display()))?;
    decode(&text).map_err(|e| format!("{}: {e}", path.display()))
}
