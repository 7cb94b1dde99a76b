//! Per-layer measurement from outside the program: decorators around a
//! cell's workloads and policy that forward every call and count and
//! time it at the layer boundary.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use aql_hv::engine::{DispatchDecision, Hypervisor};
use aql_hv::workload::{CoalesceHint, CoalesceProbe};
use aql_hv::{
    ExecContext, GuestWorkload, Horizon, RunOutcome, SchedPolicy, Simulation, SimulationBuilder,
    TimeMode, TimerFire, WorkloadMetrics,
};
use aql_scenarios::build::expand_seeded;
use aql_scenarios::{machine, parse_policy};
use aql_sim::time::SimTime;

use aql_experiments::PlanCell;

/// Counts and busy time at the workload and policy boundaries of one
/// simulation. Atomic so the workload decorator stays `Send`; every
/// counter is a statistic, so `Relaxed` suffices.
#[derive(Default)]
pub struct Tally {
    /// `GuestWorkload::run` calls.
    pub run_calls: AtomicU64,
    /// Host ns inside `run`.
    pub run_ns: AtomicU64,
    /// `GuestWorkload::coalesce` probes.
    pub coalesce_calls: AtomicU64,
    /// Probes answered `LinearFor`.
    pub coalesce_linear: AtomicU64,
    /// Host ns inside `coalesce`.
    pub coalesce_ns: AtomicU64,
    /// `GuestWorkload::horizon` calls.
    pub horizon_calls: AtomicU64,
    /// `next_timer` + `on_timer` calls.
    pub timer_calls: AtomicU64,
    /// `SchedPolicy::on_monitor` calls.
    pub monitor_calls: AtomicU64,
    /// Host ns inside `on_monitor`.
    pub monitor_ns: AtomicU64,
    /// `SchedPolicy::on_dispatch` calls (one per dispatch decision).
    pub dispatch_calls: AtomicU64,
    /// Host ns inside `on_dispatch`.
    pub dispatch_ns: AtomicU64,
}

fn add_since(counter: &AtomicU64, t0: Instant) {
    counter.fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
}

fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Relaxed);
}

struct TracedWorkload {
    inner: Box<dyn GuestWorkload>,
    tally: Arc<Tally>,
}

impl GuestWorkload for TracedWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn vcpu_slots(&self) -> usize {
        self.inner.vcpu_slots()
    }

    fn run(&mut self, slot: usize, budget_ns: u64, ctx: &mut ExecContext<'_>) -> RunOutcome {
        let t0 = Instant::now();
        let out = self.inner.run(slot, budget_ns, ctx);
        add_since(&self.tally.run_ns, t0);
        bump(&self.tally.run_calls);
        out
    }

    fn runnable(&self, slot: usize) -> bool {
        self.inner.runnable(slot)
    }

    fn horizon(&self, slot: usize, now: SimTime) -> Horizon {
        bump(&self.tally.horizon_calls);
        self.inner.horizon(slot, now)
    }

    fn coalesce(&self, slot: usize, probe: &mut CoalesceProbe<'_>) -> CoalesceHint {
        let t0 = Instant::now();
        let hint = self.inner.coalesce(slot, probe);
        add_since(&self.tally.coalesce_ns, t0);
        bump(&self.tally.coalesce_calls);
        if matches!(hint, CoalesceHint::LinearFor(_)) {
            bump(&self.tally.coalesce_linear);
        }
        hint
    }

    fn next_timer(&self, slot: usize) -> Option<SimTime> {
        bump(&self.tally.timer_calls);
        self.inner.next_timer(slot)
    }

    fn on_timer(&mut self, slot: usize, now: SimTime) -> TimerFire {
        bump(&self.tally.timer_calls);
        self.inner.on_timer(slot, now)
    }

    fn metrics(&self) -> WorkloadMetrics {
        self.inner.metrics()
    }

    fn reset_metrics(&mut self) {
        self.inner.reset_metrics()
    }
}

struct TracedPolicy {
    inner: Box<dyn SchedPolicy>,
    tally: Arc<Tally>,
}

impl SchedPolicy for TracedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn init(&mut self, hv: &mut Hypervisor) {
        self.inner.init(hv)
    }

    fn on_monitor(&mut self, hv: &mut Hypervisor, now: SimTime) {
        let t0 = Instant::now();
        self.inner.on_monitor(hv, now);
        add_since(&self.tally.monitor_ns, t0);
        bump(&self.tally.monitor_calls);
    }

    fn on_dispatch(&mut self, hv: &Hypervisor, decision: &DispatchDecision, now: SimTime) {
        let t0 = Instant::now();
        self.inner.on_dispatch(hv, decision, now);
        add_since(&self.tally.dispatch_ns, t0);
        bump(&self.tally.dispatch_calls);
    }

    // Probes downcast the policy: hand them the real one.
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
}

/// Builds a cell's simulation exactly as `build_sim_seeded_full` does
/// (adaptive, coalescing on, one span worker), with every workload and
/// the policy wrapped in decorators that report into `tally`.
pub fn build_traced(cell: &PlanCell, tally: &Arc<Tally>) -> Simulation {
    let policy = parse_policy(&cell.policy)
        .expect("workload policy tokens parse")
        .build(&cell.spec);
    let vms = expand_seeded(&cell.spec, cell.base_seed)
        .into_iter()
        .map(|(spec, inner)| {
            let wl: Box<dyn GuestWorkload> = Box::new(TracedWorkload {
                inner,
                tally: Arc::clone(tally),
            });
            (spec, wl)
        });
    SimulationBuilder::new(machine(&cell.spec))
        .seed(cell.base_seed)
        .substep_ns(cell.spec.substep_ns)
        .time_mode(TimeMode::Adaptive)
        .coalesce(true)
        .span_workers(1)
        .policy(Box::new(TracedPolicy {
            inner: policy,
            tally: Arc::clone(tally),
        }))
        .vms(vms)
        .build()
}
