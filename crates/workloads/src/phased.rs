//! A workload whose class changes over time.
//!
//! The paper argues a vCPU's type is not fixed: "several different
//! thread types can be scheduled by the guest OS on the same vCPU"
//! (§1). [`PhasedMemWalk`] cycles through memory profiles as it
//! consumes CPU, so vTRS must re-classify it online; it is used by the
//! recognition tests and the `vtrs_live` example.

use aql_hv::workload::{
    CoalesceHint, CoalesceProbe, ExecContext, GuestWorkload, Horizon, RunOutcome, TimerFire,
    WorkloadMetrics,
};
use aql_mem::MemProfile;
use aql_sim::time::SimTime;

/// One phase: a memory profile held for a CPU-time duration.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// CPU time the phase lasts (ns).
    pub duration_ns: u64,
    /// Memory behaviour during the phase.
    pub profile: MemProfile,
}

/// A single-vCPU walker cycling through profiles.
#[derive(Debug, Clone)]
pub struct PhasedMemWalk {
    name: String,
    phases: Vec<Phase>,
    current: usize,
    left_in_phase: u64,
    instructions: f64,
    switches: u64,
}

impl PhasedMemWalk {
    /// Creates a cycling walker; `phases` must be non-empty.
    pub fn new(name: &str, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        assert!(
            phases.iter().all(|p| p.duration_ns > 0),
            "phases must have positive duration"
        );
        let left = phases[0].duration_ns;
        PhasedMemWalk {
            name: name.to_string(),
            phases,
            current: 0,
            left_in_phase: left,
            instructions: 0.0,
            switches: 0,
        }
    }

    /// Index of the phase currently executing.
    pub fn current_phase(&self) -> usize {
        self.current
    }

    /// Number of phase switches so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }
}

impl GuestWorkload for PhasedMemWalk {
    fn name(&self) -> &str {
        &self.name
    }

    fn vcpu_slots(&self) -> usize {
        1
    }

    fn run(&mut self, slot: usize, budget_ns: u64, ctx: &mut ExecContext<'_>) -> RunOutcome {
        debug_assert_eq!(slot, 0);
        let mut used = 0;
        while used < budget_ns {
            let dt = (budget_ns - used).min(self.left_in_phase);
            let profile = self.phases[self.current].profile;
            let out = ctx.exec_mem(&profile, dt);
            self.instructions += out.instructions;
            used += dt;
            self.left_in_phase -= dt;
            if self.left_in_phase == 0 {
                self.current = (self.current + 1) % self.phases.len();
                self.left_in_phase = self.phases[self.current].duration_ns;
                self.switches += 1;
            }
        }
        RunOutcome::ran_all(budget_ns)
    }

    fn runnable(&self, _slot: usize) -> bool {
        true
    }

    fn horizon(&self, _slot: usize, _now: SimTime) -> Horizon {
        // Phase shifts happen inside `run` and never release the pCPU:
        // the walker burns CPU forever, whatever profile it is in.
        Horizon::Never
    }

    fn coalesce(&self, _slot: usize, probe: &mut CoalesceProbe<'_>) -> CoalesceHint {
        // Linear *within* the current phase: the upcoming phase has a
        // different profile (a different rate, possibly cold), so the
        // window ends at the phase boundary — the engine coalesces up
        // to it and replays the grid across the shift, which also
        // re-keys the rate cache on the new profile bits.
        if probe.linear_rate(&self.phases[self.current].profile) {
            CoalesceHint::LinearFor(self.left_in_phase)
        } else {
            CoalesceHint::No
        }
    }

    fn next_timer(&self, _slot: usize) -> Option<SimTime> {
        None
    }

    fn on_timer(&mut self, _slot: usize, _now: SimTime) -> TimerFire {
        TimerFire::default()
    }

    fn metrics(&self) -> WorkloadMetrics {
        WorkloadMetrics::Mem {
            instructions: self.instructions,
        }
    }

    fn reset_metrics(&mut self) {
        self.instructions = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_hv::{MachineSpec, SimulationBuilder, VmSpec};
    use aql_mem::CacheSpec;
    use aql_sim::time::{MS, SEC};

    #[test]
    fn phases_cycle_with_cpu_time() {
        let spec = CacheSpec::i7_3770();
        let w = PhasedMemWalk::new(
            "p",
            vec![
                Phase {
                    duration_ns: 100 * MS,
                    profile: MemProfile::lolcf(&spec),
                },
                Phase {
                    duration_ns: 100 * MS,
                    profile: MemProfile::llco(&spec),
                },
            ],
        );
        let mut sim =
            SimulationBuilder::new(MachineSpec::custom("1core", 1, 1, CacheSpec::i7_3770()))
                .vm(VmSpec::single("p"), Box::new(w))
                .build();
        sim.run_for(SEC);
        // 1 s of CPU over 200 ms cycles → about 5 switches per cycle
        // boundary pair, i.e. ~5 cycles → ~9-10 switches.
        let report = sim.report();
        assert!(report.vms[0].cpu_ns() > 900 * MS);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_rejected() {
        let _ = PhasedMemWalk::new("bad", vec![]);
    }

    #[test]
    fn switch_counter_advances() {
        let spec = CacheSpec::i7_3770();
        let phases = vec![
            Phase {
                duration_ns: 10 * MS,
                profile: MemProfile::lolcf(&spec),
            },
            Phase {
                duration_ns: 10 * MS,
                profile: MemProfile::llcf(&spec),
            },
        ];
        let mut w = PhasedMemWalk::new("p", phases);
        assert_eq!(w.current_phase(), 0);
        // Drive it directly through a fake context.
        let mut llc = aql_mem::LlcState::new(spec.llc_bytes as f64, 1);
        let mut pmu = aql_mem::PmuCounters::new();
        let mut warmth = 0.0;
        let mut rng = aql_sim::rng::SimRng::seed_from(1);
        let running = vec![true];
        let mut ctx = aql_hv::workload::ExecContext {
            now: SimTime::ZERO,
            spec: &spec,
            llc: &mut llc,
            pmu: &mut pmu,
            l2_warmth: &mut warmth,
            rng: &mut rng,
            owner: 0,
            running_slots: &running,
            rate_cache: None,
        };
        let out = w.run(0, 25 * MS, &mut ctx);
        assert_eq!(out.used_ns, 25 * MS);
        assert_eq!(w.switches(), 2);
        assert_eq!(w.current_phase(), 0);
    }
}
