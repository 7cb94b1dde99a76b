//! The adaptive time-advance core (`TimeMode::Adaptive`).
//!
//! Between events the dense loop visits every sub-step grid point and
//! re-derives the full scheduler state — event-queue peeks, pending
//! preemptions, kick deadlines, idle-pCPU dispatch and steal scans —
//! even across long spans where provably none of it can matter. This
//! module plans those spans explicitly and leaps over the dead work.
//!
//! # The quiescent-span argument
//!
//! After the event drain and [`Simulation::resched_all`] have run at
//! the current instant, nothing scheduler-visible can happen strictly
//! before
//!
//! ```text
//! span_end = min( next queued event,
//!                 running vCPUs' slice_end,
//!                 queued kick deadlines (vSlicer differentiated frequency),
//!                 running workloads' horizons )
//! ```
//!
//! because every state change the dense loop can perform between grid
//! points originates from one of those four sources: events are the
//! only wake/parking/accounting triggers; a dispatch needs an expired
//! slice, a kick, or a workload that blocked or yielded; and the
//! workload [`Horizon`] contract promises no block/yield before its
//! instant. Idle pCPUs cannot acquire work inside the span — nothing
//! enqueues — so skipping them is exact.
//!
//! # The conformance contract against the dense oracle
//!
//! On the *grid path* the fast-forward loop advances the same sub-step
//! grid the dense loop would walk and hands every running workload the
//! same sequence of execution chunks (`run` calls with the same
//! budgets at the same instants, in the same pCPU order), so
//! floating-point state follows the exact same trajectory. CPU-time
//! accounting is batched per span, but those accumulators are `u64`s:
//! integer addition is associative, so batching cannot change a single
//! bit. Both modes execute through the one integrator
//! ([`aql_mem::exec_step`]): the dense oracle's independence is its
//! loop — the full grid, rescheduling at every sub-step — not a second
//! copy of the cache model.
//!
//! **Chunk coalescing** deliberately relaxes bitwise equality to a
//! quantified tolerance. When every running slot signs the linear
//! contract ([`CoalesceHint`]) — pure-rate execution at the snapped
//! memory fixpoint ([`aql_mem::steady_rate`]), no scheduler-visible
//! act, no shared-state mutation, no shared-RNG draw — the engine
//! issues one `run` call per slot for the remaining span instead of
//! one per grid point. Everything discrete stays exact: `u64` CPU
//! accounting, event and timer delivery, dispatch order, PLE counts,
//! latency stamps. What moves are the low-order bits of f64
//! *accumulators* (workload metric sums, PMU counters, saturating
//! freshness touches): one whole-span sum instead of per-grid-point
//! sums, plus the snapped sub-epsilon cache traffic the fixpoint
//! omits. The conformance suite (`tests/coalesce_conformance.rs`)
//! bounds the drift at 1e-6 relative per VM metric against the dense
//! oracle, and the committed rendered goldens must stay byte-identical
//! — the rounding in every rendered artifact absorbs the drift.
//!
//! A workload that breaks its horizon promise (returns early, blocks,
//! yields) is detected on the spot: the engine finishes that sub-step
//! through the dense [`Simulation::advance_pcpu_from`] continuation —
//! the exact code the dense loop would have run — and abandons the
//! span, so even a lying horizon cannot cause divergence, only lost
//! speed. A broken *coalesce* contract — unreachable for the in-tree
//! workloads, reachable on purpose through fault injection — is
//! counted ([`Simulation::coalesce_break_count`]), traced, and
//! likewise completed through the dense continuation at span scale.

use aql_mem::{CacheSpec, LlcState, RateCache};
use aql_sim::rng::SimRng;
use aql_sim::time::{whole_steps, SimTime};

use super::{Simulation, TimeMode};
use crate::ids::PcpuId;
use crate::vm::{Vcpu, VcpuState};
use crate::workload::{
    CoalesceHint, CoalesceProbe, ExecContext, GuestWorkload, Horizon, RunOutcome, StopReason,
};

/// Smallest quiescent span (in sub-steps) worth fast-forwarding.
/// Below this, planning a span (slot hoisting, accounting flush) costs
/// more than the skipped scheduler work, so the engine just takes
/// generic dense sub-steps — which mode is chosen per sub-step is
/// invisible in the results, so this is purely a tuning knob.
const MIN_FAST_STEPS: u64 = 3;

/// Per-busy-pCPU execution state hoisted once per quiescent span, so
/// the per-sub-step fast path re-derives nothing.
#[derive(Debug, Clone, Copy)]
pub(super) struct FastSlot {
    pcpu: usize,
    vid: crate::ids::VcpuId,
    vm: usize,
    slot: usize,
    socket: usize,
    /// CPU time accumulated by this slot during the span (flushed into
    /// the u64 accounting fields at span exit).
    acc_ns: u64,
}

/// Seed base for the per-socket scratch RNGs of a parallel span. The
/// coalesce contract forbids shared-RNG draws, so the scratch streams
/// are never consumed — they exist only to satisfy [`ExecContext`],
/// and their (deterministic) seeding is immaterial to any result. The
/// serial-vs-parallel conformance suite would catch a workload that
/// drew from one.
const SPAN_RNG_SEED: u64 = 0x005e_a50c_4e7a_11e1;

/// How a coalesced span's execution was carried out.
enum SpanExec {
    /// The span is ineligible for the pool (no pool, one socket busy,
    /// or a VM's running slots straddle sockets); the caller runs the
    /// serial loop, byte-for-byte the pre-parallel code.
    Serial,
    /// Every slot conformed; accumulators are credited, the caller
    /// advances the clock and continues the span.
    Clean,
    /// A slot broke the coalesce contract (in-tree workloads never do;
    /// fault-injected ones may — the break is counted and traced).
    /// Recovery — accounting flush, stop-reason handling, dense
    /// completion of the window, clock advance — already happened; the
    /// caller abandons the span.
    Aborted,
}

/// One slot's execution order within a [`SocketSpan`]: everything the
/// worker-side chunk runner needs that is not socket-wide.
struct SpanJob<'a> {
    /// VM index (into the simulation's workload table).
    vm: usize,
    /// Slot index local to the VM.
    slot: usize,
    /// LLC owner index (global vCPU index).
    owner: usize,
    /// Index into the owning [`SocketSpan::wls`].
    wl_idx: usize,
    /// The running vCPU (PMU counters, L2 warmth).
    vcpu: &'a mut Vcpu,
}

/// One socket lane of a parallel span: exclusive ownership of the
/// socket's LLC and rate cache plus the jobs of every busy pCPU on the
/// socket, in pCPU order. Running the jobs serially on one lane makes
/// each socket's f64 call sequence identical to the serial loop's —
/// cross-socket interleaving has no data overlap, so the results are
/// bit-identical for any worker count.
struct SocketSpan<'a> {
    socket: usize,
    llc: &'a mut LlcState,
    cache: &'a mut RateCache,
    /// Scratch stream (see [`SPAN_RNG_SEED`]); never drawn from by a
    /// conforming workload.
    rng: SimRng,
    spec: &'a CacheSpec,
    /// The whole `vm_running` table (shared, read-only during a span);
    /// jobs index it by VM.
    vm_running: &'a [Vec<bool>],
    jobs: Vec<SpanJob<'a>>,
    /// The distinct workloads driven by this lane's jobs. A VM whose
    /// running slots straddle sockets is ineligible (checked up
    /// front), so each workload belongs to exactly one lane.
    wls: Vec<&'a mut Box<dyn GuestWorkload>>,
    /// Outcomes in job (pCPU) order, filled by the worker.
    outs: Vec<RunOutcome>,
    budget: u64,
    now: SimTime,
}

/// The worker-side chunk runner: the parallel twin of
/// `Simulation::run_chunk` for whole-span coalesced chunks, one lane's
/// jobs back to back in pCPU order.
fn run_socket_span(t: &mut SocketSpan<'_>) {
    let budget = t.budget;
    for ji in 0..t.jobs.len() {
        let job = &mut t.jobs[ji];
        let v = &mut *job.vcpu;
        let mut ctx = ExecContext {
            now: t.now,
            spec: t.spec,
            llc: &mut *t.llc,
            pmu: &mut v.pmu,
            l2_warmth: &mut v.l2_warmth,
            rng: &mut t.rng,
            owner: job.owner,
            running_slots: &t.vm_running[job.vm],
            rate_cache: Some(&mut *t.cache),
        };
        let mut out = t.wls[job.wl_idx].run(job.slot, budget, &mut ctx);
        debug_assert!(
            out.used_ns <= budget,
            "workload '{}' overran its budget",
            t.wls[job.wl_idx].name()
        );
        out.used_ns = out.used_ns.min(budget);
        t.outs.push(out);
    }
}

impl Simulation {
    /// The adaptive run loop. Event handling, rescheduling and the
    /// generic sub-step are shared with the dense loop; the only
    /// addition is the quiescent-span fast-forward between them.
    pub(super) fn run_until_adaptive(&mut self, end: SimTime) {
        debug_assert_eq!(self.time_mode, TimeMode::Adaptive);
        // A previous call's failed plan may have been bounded by that
        // call's `end`; this call can see further.
        self.scratch.failed_plan_gen = None;
        while self.now < end {
            // 0. A tripped run budget aborts mid-run (identical to
            // dense): return, never `break` — the epilogue would
            // falsify the clock.
            if self.budget_stop() {
                return;
            }
            // 1. Process all events due now (identical to dense).
            while self
                .queue
                .peek_time()
                .is_some_and(|t| t <= self.now && t <= end)
            {
                let (t, ev) = self.queue.pop().expect("peeked");
                debug_assert!(t <= self.now);
                self.handle_event(ev);
            }
            // 2. Repair scheduling decisions (identical to dense).
            self.resched_all();
            // 3. Plan the advance.
            let t_next = self.queue.peek_time().map_or(end, |t| t.min(end));
            if t_next <= self.now {
                if self.queue.peek_time().is_some_and(|t| t <= self.now) {
                    continue;
                }
                break;
            }
            if !self.hv.pcpus.iter().any(|p| p.running.is_some()) {
                // Machine fully idle: leap to the next event, exactly
                // as the dense loop does.
                self.now = t_next;
                continue;
            }
            // A plan that failed can only start succeeding after the
            // scheduling state moves: slices end, kick deadlines pass
            // and IO queues drain all *via* a dispatch/block/preempt or
            // an event, each of which bumps `sched_gen`. So a failed
            // plan is memoized against the generation instead of being
            // recomputed every sub-step of a short-quantum regime.
            if self.scratch.failed_plan_gen != Some(self.sched_gen) {
                let span_end = self.quiescent_until(t_next);
                if whole_steps(self.now, span_end, self.substep_ns) >= MIN_FAST_STEPS {
                    self.fast_forward(span_end);
                    // Re-derive everything at the new grid point: the
                    // dense loop performs the same event drain and
                    // resched there (both provably no-ops unless the
                    // span aborted).
                    continue;
                }
                self.scratch.failed_plan_gen = Some(self.sched_gen);
            }
            // 4. Not quiescent for long enough: one generic sub-step.
            // `advance_all_adaptive` advances the same state the dense
            // `advance_all` would — it only skips idle pCPUs whose
            // dispatch attempt provably fails.
            let span = t_next - self.now;
            let dt = span.min(self.substep_ns);
            self.advance_all_adaptive(dt);
            self.now += dt;
        }
        self.now = end;
    }

    /// The earliest instant anything scheduler-visible can happen, at
    /// most `t_next` (the next queued event). Called immediately after
    /// the event drain and `resched_all`, which is what makes the
    /// bound sound — see the module docs.
    ///
    /// Bails to `self.now` ("not worth it") as soon as the bound drops
    /// below [`MIN_FAST_STEPS`] sub-steps, so short-quantum regimes
    /// (microsliced slices, dense vSlicer kick deadlines) pay a scan of
    /// at most a few pCPUs per sub-step, not a full machine scan.
    fn quiescent_until(&self, t_next: SimTime) -> SimTime {
        let floor = self.now + MIN_FAST_STEPS * self.substep_ns;
        if t_next < floor {
            return self.now;
        }
        let mut span_end = t_next;
        for pi in 0..self.hv.pcpus.len() {
            let Some(rv) = self.hv.pcpus[pi].running else {
                continue;
            };
            let v = &self.hv.vcpus[rv.index()];
            // Slice expiry is a dispatch point.
            span_end = span_end.min(v.slice_end);
            if span_end < floor {
                return self.now;
            }
            // The workload's own promise.
            match self.workloads[v.vm.index()].horizon(v.slot, self.now) {
                Horizon::Unknown => return self.now,
                Horizon::At(t) => span_end = span_end.min(t),
                Horizon::Never => {}
            }
            if span_end < floor {
                return self.now;
            }
            // vSlicer differentiated frequency: a queued vCPU whose
            // kick period elapses preempts a kickless runner.
            if v.kick_period_ns.is_none() {
                for w in self.hv.pcpus[pi].queue.iter() {
                    let wc = &self.hv.vcpus[w.index()];
                    if let Some(p) = wc.kick_period_ns {
                        span_end = span_end.min(wc.last_desched + p);
                    }
                }
                if span_end < floor {
                    return self.now;
                }
            }
        }
        span_end
    }

    /// Fast-forwards whole sub-steps across a proven-quiescent span:
    /// per grid point, one execution chunk per busy pCPU (in pCPU
    /// order, exactly like `advance_all`) and nothing else. Exits at
    /// the last grid point before `span_end`, or at the first sub-step
    /// where a workload deviated from its horizon promise (that
    /// sub-step is completed densely before returning).
    fn fast_forward(&mut self, span_end: SimTime) {
        let dt = self.substep_ns;
        let mut slots = std::mem::take(&mut self.scratch.fast_slots);
        slots.clear();
        for pi in 0..self.hv.pcpus.len() {
            if let Some(vid) = self.hv.pcpus[pi].running {
                let v = &self.hv.vcpus[vid.index()];
                debug_assert_eq!(v.state, VcpuState::Running);
                slots.push(FastSlot {
                    pcpu: pi,
                    vid,
                    vm: v.vm.index(),
                    slot: v.slot,
                    socket: self.hv.machine.socket_of(PcpuId(pi)).index(),
                    acc_ns: 0,
                });
            }
        }
        let mut steps = whole_steps(self.now, span_end, dt);
        debug_assert!(steps > 0, "caller checked the span fits a sub-step");
        // Chunk-coalescing probe cadence. A failed probe (some slot not
        // linear yet — typically rewarming its private L2 after a
        // dispatch) is retried with exponential backoff instead of
        // never: warm-up completes *inside* long spans, and the probe
        // then coalesces the warm tail. The backoff saturates at 64
        // steps, so a span that never turns linear pays O(log steps)
        // probes up front and then at most one per 64 grid steps
        // (~1.5 % overhead) — the cap bounds how much of a late warm
        // tail can be missed, which matters more than shaving the last
        // probes off hopeless spans.
        let mut probe_in: u64 = 0;
        let mut probe_backoff: u64 = 1;
        'span: while steps > 0 {
            // Chunk coalescing: when every running slot signs the
            // linear contract (pure-rate execution at the memory
            // fixpoint, no scheduler-visible act, no shared state), the
            // dense chunk grid is redundant — one `run_chunk` per slot
            // covers the rest of the span. Results differ from the
            // dense sequence only in the f64 summation order of
            // accumulated metrics; every u64 account and every event is
            // exact (the tolerance conformance suite and the rendered
            // goldens pin this).
            if self.coalesce && steps >= 2 && probe_in == 0 {
                if let Some(k) = self.coalescible_steps(&slots, steps, dt) {
                    let budget = k * dt;
                    // Multi-socket spans fan across the span pool when
                    // one exists; the serial loop below is the
                    // single-lane fallback and the bit-identity
                    // reference (see `run_span_parallel`).
                    match self.run_span_parallel(&mut slots, budget) {
                        SpanExec::Clean => {
                            self.now += budget;
                            steps -= k;
                            continue 'span;
                        }
                        SpanExec::Aborted => {
                            slots.clear();
                            break 'span;
                        }
                        SpanExec::Serial => {}
                    }
                    for i in 0..slots.len() {
                        let s = slots[i];
                        let out =
                            self.run_chunk(s.vid, s.vm, s.slot, s.socket, budget, self.now, true);
                        if out.used_ns == budget && out.stop == StopReason::BudgetExhausted {
                            slots[i].acc_ns += budget;
                            continue;
                        }
                        // A linear hint lied. In-tree workloads never
                        // do this; fault injection (`coalesce-break`)
                        // does it on purpose. Count it, say so, and
                        // recover by finishing the span window densely
                        // from the deviation, exactly like a broken
                        // horizon promise.
                        self.contract_breaks += 1;
                        self.trace.emit(self.now, || {
                            format!(
                                "coalesce contract broken by vm {} slot {}; \
                                 recovering densely",
                                s.vm, s.slot
                            )
                        });
                        slots[i].acc_ns += out.used_ns;
                        self.flush_fast_accounting(&mut slots);
                        match out.stop {
                            StopReason::BudgetExhausted => {}
                            StopReason::Blocked => self.block(s.pcpu, s.vid),
                            StopReason::Yielded => self.yield_requeue(s.pcpu, s.vid),
                        }
                        let spins = u32::from(out.used_ns == 0);
                        self.advance_pcpu_from(s.pcpu, out.used_ns, budget, spins);
                        for pj in (s.pcpu + 1)..self.hv.pcpus.len() {
                            self.advance_pcpu_from(pj, 0, budget, 0);
                        }
                        self.now += budget;
                        slots.clear();
                        break 'span;
                    }
                    self.now += budget;
                    steps -= k;
                    // A slot's linear window may have capped `k` (phase
                    // boundary): the tail re-probes immediately and
                    // otherwise resumes on the per-step grid.
                    continue 'span;
                    // (A broken contract above breaks out of 'span via
                    // the shared epilogue, like the grid-path recovery.)
                }
                probe_in = probe_backoff;
                probe_backoff = (probe_backoff * 2).min(64);
            }
            probe_in = probe_in.saturating_sub(1);
            for i in 0..slots.len() {
                let s = slots[i];
                // The span proof guarantees the slice outlives this
                // sub-step; the budget is always the full grid step.
                debug_assert!(
                    self.hv.vcpus[s.vid.index()]
                        .slice_end
                        .saturating_since(self.now)
                        >= dt
                );
                let out = self.run_chunk(s.vid, s.vm, s.slot, s.socket, dt, self.now, false);
                if out.used_ns == dt && out.stop == StopReason::BudgetExhausted {
                    slots[i].acc_ns += dt;
                    continue;
                }
                // Horizon promise broken: flush the span accounting,
                // replay the dense stop-reason handling for this chunk
                // and finish the sub-step densely for this pCPU and
                // every later one — byte-for-byte what the dense loop
                // would have done from here.
                slots[i].acc_ns += out.used_ns;
                self.flush_fast_accounting(&mut slots);
                match out.stop {
                    StopReason::BudgetExhausted => {}
                    StopReason::Blocked => self.block(s.pcpu, s.vid),
                    StopReason::Yielded => self.yield_requeue(s.pcpu, s.vid),
                }
                let spins = u32::from(out.used_ns == 0);
                self.advance_pcpu_from(s.pcpu, out.used_ns, dt, spins);
                for pj in (s.pcpu + 1)..self.hv.pcpus.len() {
                    self.advance_pcpu_from(pj, 0, dt, 0);
                }
                self.now += dt;
                slots.clear();
                break 'span;
            }
            self.now += dt;
            steps -= 1;
        }
        self.flush_fast_accounting(&mut slots);
        self.scratch.fast_slots = slots;
    }

    /// The adaptive twin of [`Simulation::advance_all`]: advances every
    /// pCPU whose sub-step can matter and skips idle pCPUs whose
    /// dispatch attempt provably fails — an empty local queue and no
    /// stealable work anywhere in their pool. The skip is exact: a
    /// failed `try_dispatch` performs no state change, and the
    /// precomputed pool flags are trusted only while `sched_gen` stands
    /// still (any block/yield/preempt/dispatch inside this sub-step
    /// bumps it, and the remaining pCPUs then take the full path).
    /// The dense loop keeps the exhaustive scan — it is the oracle.
    fn advance_all_adaptive(&mut self, dt: u64) {
        let gen0 = self.sched_gen;
        let mut flags = std::mem::take(&mut self.scratch.pool_stealable);
        // The flags are a pure function of queue contents, which only
        // change when `sched_gen` moves — consecutive quiet sub-steps
        // reuse them.
        if self.scratch.pool_stealable_gen != Some(gen0) {
            flags.clear();
            flags.resize(self.hv.pools.len(), false);
            let crate::engine::Hypervisor {
                vcpus,
                pcpus,
                pinned_vcpus,
                ..
            } = &self.hv;
            let has_pins = *pinned_vcpus > 0;
            for p in pcpus {
                let n = if has_pins {
                    p.queue
                        .stealable_len_where(|v| vcpus[v.index()].pinned.is_none())
                } else {
                    p.queue.stealable_len()
                };
                if n > 0 {
                    flags[p.pool.index()] = true;
                }
            }
            self.scratch.pool_stealable_gen = Some(gen0);
        }
        for pi in 0..self.hv.pcpus.len() {
            let p = &self.hv.pcpus[pi];
            if self.sched_gen == gen0
                && p.running.is_none()
                && p.queue.is_empty()
                && !flags[p.pool.index()]
            {
                continue;
            }
            self.advance_pcpu_from(pi, 0, dt, 0);
        }
        self.scratch.pool_stealable = flags;
    }

    /// Executes one coalesced span's chunks across the span pool, one
    /// worker lane per busy socket, and merges the results back in
    /// socket order.
    ///
    /// # Eligibility
    ///
    /// Falls back to [`SpanExec::Serial`] (the caller's pre-parallel
    /// loop, byte-for-byte) unless a pool exists, at least two sockets
    /// have busy pCPUs, and no VM's running slots straddle sockets (a
    /// VM is one `GuestWorkload` object — one `&mut`, one lane).
    ///
    /// # Determinism
    ///
    /// Each lane owns its socket's LLC and rate cache exclusively and
    /// runs its slots serially in pCPU order — the same per-socket
    /// call sequence the serial loop produces, since cross-socket
    /// chunks share no mutable state (the coalesce contract forbids
    /// shared-RNG draws and shared-LLC mutation). The merge walks
    /// slots in pCPU (= socket-major) order, so accounting sums, PMU
    /// samples and metric sums land in a thread-arrival-independent
    /// order. Results are therefore bit-identical for every
    /// `span_workers` value, including 1.
    fn run_span_parallel(&mut self, slots: &mut [FastSlot], budget: u64) -> SpanExec {
        if self.span_pool.is_none() || slots.is_empty() {
            return SpanExec::Serial;
        }
        // Slots are pCPU-ordered and pCPUs are socket-major, so socket
        // indices are nondecreasing: one comparison finds multi-socket
        // spans, and lane groups are contiguous runs.
        debug_assert!(slots.windows(2).all(|w| w[0].socket <= w[1].socket));
        if slots[0].socket == slots[slots.len() - 1].socket {
            return SpanExec::Serial;
        }
        for (i, a) in slots.iter().enumerate() {
            if slots[i + 1..]
                .iter()
                .any(|b| b.vm == a.vm && b.socket != a.socket)
            {
                return SpanExec::Serial;
            }
        }
        let outcomes: Vec<RunOutcome> = {
            let sim = &mut *self;
            let Simulation {
                hv,
                workloads,
                vm_running,
                rate_caches,
                span_pool,
                now,
                ..
            } = sim;
            let super::Hypervisor {
                vcpus,
                llcs,
                machine,
                ..
            } = hv;
            // Exclusive borrow dispatch: each socket's LLC and rate
            // cache, each running vCPU and each VM's workload is taken
            // out of its table exactly once and moved into its lane.
            let mut vcpu_refs: Vec<Option<&mut Vcpu>> = vcpus.iter_mut().map(Some).collect();
            let mut llc_refs: Vec<Option<&mut LlcState>> = llcs.iter_mut().map(Some).collect();
            let mut cache_refs: Vec<Option<&mut RateCache>> =
                rate_caches.iter_mut().map(Some).collect();
            let mut wl_refs: Vec<Option<&mut Box<dyn GuestWorkload>>> =
                workloads.iter_mut().map(Some).collect();
            let mut tasks: Vec<SocketSpan<'_>> = Vec::new();
            for s in slots.iter() {
                if tasks.last().map(|t| t.socket) != Some(s.socket) {
                    tasks.push(SocketSpan {
                        socket: s.socket,
                        llc: llc_refs[s.socket].take().expect("one lane per socket"),
                        cache: cache_refs[s.socket].take().expect("one lane per socket"),
                        rng: SimRng::seed_from(SPAN_RNG_SEED ^ s.socket as u64),
                        spec: &machine.cache,
                        vm_running,
                        jobs: Vec::new(),
                        wls: Vec::new(),
                        outs: Vec::new(),
                        budget,
                        now: *now,
                    });
                }
                let t = tasks.last_mut().expect("just ensured");
                let wl_idx = match t.jobs.iter().find(|j| j.vm == s.vm) {
                    Some(j) => j.wl_idx,
                    None => {
                        t.wls.push(
                            wl_refs[s.vm]
                                .take()
                                .expect("straddling VMs were ruled out above"),
                        );
                        t.wls.len() - 1
                    }
                };
                t.jobs.push(SpanJob {
                    vm: s.vm,
                    slot: s.slot,
                    owner: s.vid.index(),
                    wl_idx,
                    vcpu: vcpu_refs[s.vid.index()]
                        .take()
                        .expect("one running slot per vCPU"),
                });
            }
            // Concurrency-contract auditor (debug builds): each lane's
            // LLC panics on any mutation by an owner outside the lane.
            #[cfg(debug_assertions)]
            for t in tasks.iter_mut() {
                let owners: Vec<usize> = t.jobs.iter().map(|j| j.owner).collect();
                t.llc.audit_arm(&owners);
            }
            {
                let mut closures: Vec<_> = tasks
                    .iter_mut()
                    .map(|t| move || run_socket_span(t))
                    .collect();
                let mut jobs: Vec<&mut (dyn FnMut() + Send)> = closures
                    .iter_mut()
                    .map(|c| c as &mut (dyn FnMut() + Send))
                    .collect();
                span_pool.as_ref().expect("checked above").run(&mut jobs);
            }
            #[cfg(debug_assertions)]
            for t in tasks.iter_mut() {
                t.llc.audit_disarm();
            }
            // Socket-ordered merge: lanes are socket-ascending and lane
            // jobs are pCPU-ascending, so this concatenation is exactly
            // slot order.
            tasks.iter().flat_map(|t| t.outs.iter().copied()).collect()
        };
        debug_assert_eq!(outcomes.len(), slots.len());
        self.parallel_spans += 1;
        let mut clean = true;
        for (i, out) in outcomes.iter().enumerate() {
            if out.used_ns == budget && out.stop == StopReason::BudgetExhausted {
                slots[i].acc_ns += budget;
            } else {
                self.contract_breaks += 1;
                self.trace.emit(self.now, || {
                    format!(
                        "coalesce contract broken by vm {} slot {}; recovering densely",
                        slots[i].vm, slots[i].slot
                    )
                });
                slots[i].acc_ns += out.used_ns;
                clean = false;
            }
        }
        if clean {
            return SpanExec::Clean;
        }
        // Contract-break recovery, parallel flavour. Unlike the serial
        // loop — which stops at the first deviator, leaving later slots
        // unrun — every slot has already executed its chunk here, so
        // the recovery credits what actually ran, replays each
        // deviator's stop reason and dense continuation in pCPU order,
        // and completes the window on the idle pCPUs (a yielded
        // deviator may now be stealable). Conforming workloads never
        // reach either recovery; they exist so a lying hint costs
        // speed and a counted contract break, never
        // divergence-by-corruption.
        self.flush_fast_accounting(slots);
        for (i, out) in outcomes.iter().enumerate() {
            let conforming = out.used_ns == budget && out.stop == StopReason::BudgetExhausted;
            if conforming {
                continue;
            }
            let s = slots[i];
            match out.stop {
                StopReason::BudgetExhausted => {}
                StopReason::Blocked => self.block(s.pcpu, s.vid),
                StopReason::Yielded => self.yield_requeue(s.pcpu, s.vid),
            }
            let spins = u32::from(out.used_ns == 0);
            self.advance_pcpu_from(s.pcpu, out.used_ns, budget, spins);
        }
        for pj in 0..self.hv.pcpus.len() {
            if slots.iter().all(|s| s.pcpu != pj) {
                self.advance_pcpu_from(pj, 0, budget, 0);
            }
        }
        self.now += budget;
        SpanExec::Aborted
    }

    /// How many of the span's `steps` grid steps may be coalesced into
    /// a single execution chunk per slot: `None` unless **every**
    /// running slot signs the linear contract ([`CoalesceHint`]) for at
    /// least two whole steps, else the largest whole-step count every
    /// slot's linear window covers.
    fn coalescible_steps(&mut self, slots: &[FastSlot], steps: u64, dt: u64) -> Option<u64> {
        let mut k = steps;
        for s in slots {
            let mut probe = CoalesceProbe {
                spec: &self.hv.machine.cache,
                llc: &self.hv.llcs[s.socket],
                l2_warmth: self.hv.vcpus[s.vid.index()].l2_warmth,
                owner: s.vid.index(),
                running_slots: &self.vm_running[s.vm],
                rate_cache: &mut self.rate_caches[s.socket],
            };
            match self.workloads[s.vm].coalesce(s.slot, &mut probe) {
                CoalesceHint::No => return None,
                CoalesceHint::LinearFor(cpu_ns) => {
                    k = k.min(cpu_ns / dt);
                    if k < 2 {
                        return None;
                    }
                }
            }
        }
        Some(k)
    }

    /// Credits each slot's span-accumulated CPU time to the vCPU and
    /// pCPU accounting fields, consuming the accumulators. All of them
    /// are `u64`s, so crediting per span instead of per chunk is exact.
    fn flush_fast_accounting(&mut self, slots: &mut [FastSlot]) {
        for s in slots {
            if s.acc_ns == 0 {
                continue;
            }
            let v = &mut self.hv.vcpus[s.vid.index()];
            v.cpu_ns += s.acc_ns;
            v.unbilled_ns += s.acc_ns;
            v.pmu.add_ran_ns(s.acc_ns);
            self.hv.pcpus[s.pcpu].busy_ns += s.acc_ns;
            s.acc_ns = 0;
        }
    }
}
