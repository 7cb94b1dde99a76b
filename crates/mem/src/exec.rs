//! The execution-speed law.
//!
//! Given a [`MemProfile`], the live LLC state and the vCPU's private-L2
//! warmth, [`exec_step`] advances a workload by a time budget and
//! reports retired instructions and LLC traffic. Speed follows a
//! straightforward additive latency model:
//!
//! ```text
//! ns/instr = base
//!          + deep_refs * [ h2 * t_l2
//!                        + (1 - h2) * ( h3 * t_llc + (1 - h3) * t_mem ) ]
//! ```
//!
//! where `h2` is the private-L2 hit probability (capacity law times
//! warmth) and `h3` the LLC hit probability (resident footprint over
//! working set, uniform re-reference). Misses fetch lines, growing the
//! footprint — so a cold LLCF phase starts slow and accelerates as it
//! refills, which is exactly the cost short quanta keep re-paying.
//!
//! The law is written once (`RateLaw`) and integrated once
//! ([`exec_step`]): the engine's dense oracle, its grid path and its
//! coalesced spans all call the same function, the last with a
//! [`RateCache`] for the O(1) fixpoint answer.

use crate::llc::LlcState;
use crate::profile::MemProfile;
use crate::rate::{rate_key, RateCache, SteadyRate, NEGLIGIBLE_MISS_RATE};
use crate::spec::CacheSpec;

/// What happened during one execution step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecOutcome {
    /// Instructions retired (fractional).
    pub instructions: f64,
    /// References that reached the LLC (PMU "LLC references").
    pub llc_refs: f64,
    /// References that missed the LLC (PMU "LLC misses").
    pub llc_misses: f64,
}

impl ExecOutcome {
    /// Accumulates another outcome into this one.
    pub fn merge(&mut self, other: &ExecOutcome) {
        self.instructions += other.instructions;
        self.llc_refs += other.llc_refs;
        self.llc_misses += other.llc_misses;
    }
}

/// Maximum fraction of the working set fetched per internal sub-step;
/// bounds the discretization error of the frozen-rate integration.
const MAX_FILL_FRACTION: f64 = 0.125;

/// Hard bound on internal sub-steps per `exec_step` call.
///
/// The fill-fraction caps can pin the internal chunk near the 1 ns
/// floor for degenerate profiles (tiny working sets with heavy deep
/// traffic), making the loop count proportional to the budget — up to
/// `dt_ns` iterations. Once this many sub-steps have run the integrator
/// takes one *saturating* final step (the whole remainder at the
/// current frozen rates); the discretization guarantee is forfeited for
/// that tail, boundedness is not.
pub const MAX_SUBSTEPS: u32 = 100_000;

/// The execution-speed law at one cache state, as per-instruction
/// rates frozen for one sub-step.
///
/// Every L2 miss both references the LLC and fills a line into the
/// private L2, so `llc_ref_per_instr` is also the L2 fill rate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rates {
    pub(crate) llc_ref_per_instr: f64,
    pub(crate) llc_miss_per_instr: f64,
    pub(crate) ns_per_instr: f64,
}

impl Rates {
    /// Whether a step from this state is at the snapped zero-traffic
    /// fixpoint (see [`crate::rate`]): negligible miss traffic, and a
    /// warmth the fill update cannot move.
    pub(crate) fn at_fixpoint(&self, l2_warmth: f64) -> bool {
        self.llc_miss_per_instr <= NEGLIGIBLE_MISS_RATE
            && (l2_warmth >= 1.0 || self.llc_ref_per_instr <= 1e-12)
    }

    pub(crate) fn steady(&self) -> SteadyRate {
        SteadyRate {
            ns_per_instr: self.ns_per_instr,
            llc_ref_per_instr: self.llc_ref_per_instr,
        }
    }
}

/// The one implementation of the execution-speed law, with the
/// state-independent terms of a profile on a machine hoisted. The
/// integrator evaluates it once per sub-step and [`crate::steady_rate`]
/// once per probe, so a cached rate carries the integrator's bits.
pub(crate) struct RateLaw<'a> {
    profile: &'a MemProfile,
    spec: &'a CacheSpec,
    wss: f64,
    h2_cap: f64,
}

impl<'a> RateLaw<'a> {
    pub(crate) fn new(profile: &'a MemProfile, spec: &'a CacheSpec) -> Self {
        RateLaw {
            profile,
            spec,
            wss: profile.wss_bytes as f64,
            h2_cap: profile.l2_hit_warm(spec),
        }
    }

    /// The rates at L2 warmth `l2_warmth` with `resident` bytes of the
    /// working set in the LLC.
    #[inline]
    pub(crate) fn at(&self, l2_warmth: f64, resident: f64) -> Rates {
        let spec = self.spec;
        let deep = self.profile.deep_refs_per_instr;
        let h2 = self.h2_cap * l2_warmth.clamp(0.0, 1.0);
        let h3 = if self.wss <= 0.0 {
            1.0
        } else {
            (resident / self.wss).clamp(0.0, 1.0)
        };
        let llc_ref_per_instr = deep * (1.0 - h2);
        Rates {
            llc_ref_per_instr,
            llc_miss_per_instr: llc_ref_per_instr * (1.0 - h3),
            ns_per_instr: self.profile.base_ns_per_instr
                + deep
                    * (h2 * spec.l2_hit_ns
                        + (1.0 - h2) * (h3 * spec.llc_hit_ns + (1.0 - h3) * spec.mem_ns)),
        }
    }
}

/// Advances a workload phase by `dt_ns` nanoseconds of CPU time.
///
/// `owner` indexes the vCPU's footprint in `llc`; `l2_warmth` is the
/// fraction of the (capacity-limited) working set resident in the
/// private L2 and is updated in place. Returns the retired instruction
/// count and LLC traffic for PMU accounting.
///
/// With a `cache`, the steady-rate fast path is on: a memo hit answers
/// the whole budget in O(1), and the first sub-step that reaches the
/// zero-traffic fixpoint snaps the rest of the budget and fills the
/// memo (see [`crate::rate`]). Off the fixpoint the integration is the
/// same operation for operation, so `None` and `Some` differ only where
/// the snap omits sub-epsilon traffic.
pub fn exec_step(
    profile: &MemProfile,
    spec: &CacheSpec,
    llc: &mut LlcState,
    owner: usize,
    l2_warmth: &mut f64,
    dt_ns: u64,
    mut cache: Option<&mut RateCache>,
) -> ExecOutcome {
    let mut out = ExecOutcome::default();
    if dt_ns == 0 {
        return out;
    }
    let wss = profile.wss_bytes as f64;
    let line = spec.line_bytes as f64;
    // A linear answer: the freshness touch the integrator would make,
    // no insertion (sub-epsilon miss traffic is reported and inserted as
    // exactly zero) and no warmth write (saturated warmth is a fixed
    // point of the fill update).
    let run_linear = |rate: SteadyRate, ns: f64, llc: &mut LlcState, out: &mut ExecOutcome| {
        let instr = ns / rate.ns_per_instr;
        let refs = instr * rate.llc_ref_per_instr;
        out.instructions += instr;
        out.llc_refs += refs;
        if refs > 0.0 && wss > 0.0 {
            llc.touch_frac(owner, refs * line / wss);
        }
    };
    if let Some(cache) = cache.as_deref_mut() {
        // Pure-function key, so a hit cannot be stale.
        let key = rate_key(profile, *l2_warmth, llc.occupancy(owner));
        if let Some(rate) = cache.probe(owner, spec, key) {
            run_linear(rate, dt_ns as f64, llc, &mut out);
            return out;
        }
    }
    let law = RateLaw::new(profile, spec);
    let l2_target = (wss.min(spec.l2_bytes as f64)).max(1.0);
    let mut remaining = dt_ns as f64;
    // Internal sub-steps keep rate-freezing honest while footprints move.
    let mut guard: u32 = 0;
    while remaining > 0.0 {
        guard += 1;
        let resident = llc.occupancy(owner);
        let r = law.at(*l2_warmth, resident);
        if let Some(cache) = cache.as_deref_mut() {
            if r.at_fixpoint(*l2_warmth) {
                let rate = r.steady();
                cache.store(owner, spec, rate_key(profile, *l2_warmth, resident), rate);
                run_linear(rate, remaining, llc, &mut out);
                return out;
            }
        }

        // Cap the chunk so neither footprint moves more than
        // MAX_FILL_FRACTION of its target within frozen rates. Once the
        // iteration budget is exhausted the final step saturates: the
        // whole remainder runs at the current frozen rates.
        let mut chunk = remaining;
        if guard < MAX_SUBSTEPS {
            if r.llc_miss_per_instr > 1e-12 && wss > 0.0 {
                let instr_cap = (wss * MAX_FILL_FRACTION / line) / r.llc_miss_per_instr;
                chunk = chunk.min(instr_cap * r.ns_per_instr);
            }
            // The L2 fill rate is the LLC reference rate (see `Rates`).
            if r.llc_ref_per_instr > 1e-12 && *l2_warmth < 1.0 {
                let instr_cap = (l2_target * MAX_FILL_FRACTION / line) / r.llc_ref_per_instr;
                chunk = chunk.min(instr_cap * r.ns_per_instr);
            }
        }
        chunk = chunk.max(remaining.min(1.0)).min(remaining);

        let instr = chunk / r.ns_per_instr;
        let refs = instr * r.llc_ref_per_instr;
        let misses = instr * r.llc_miss_per_instr;
        out.instructions += instr;
        out.llc_refs += refs;
        out.llc_misses += misses;

        if refs > 0.0 && wss > 0.0 {
            // Re-referencing protects the resident footprint (LRU
            // recency): the protection is proportional to how much of
            // the set was re-touched, so streaming owners (one pass
            // over a huge set) stay stale.
            llc.touch_frac(owner, refs * line / wss);
        }
        if misses > 0.0 {
            llc.insert(owner, misses * line, wss);
        }
        if r.llc_ref_per_instr > 1e-12 {
            let fill = instr * r.llc_ref_per_instr * line;
            *l2_warmth = (*l2_warmth + fill / l2_target).min(1.0);
        }
        remaining -= chunk;
    }
    out
}

/// The full-scan reference integrator: the execution-speed law written
/// out inline, every sub-step re-deriving every term, and insertions
/// through the full-scan [`LlcState::insert_full_scan`]. Test-only; the
/// property tests hold [`exec_step`] to it bit for bit.
#[cfg(test)]
pub(crate) fn exec_step_reference(
    profile: &MemProfile,
    spec: &CacheSpec,
    llc: &mut LlcState,
    owner: usize,
    l2_warmth: &mut f64,
    dt_ns: u64,
) -> ExecOutcome {
    let mut out = ExecOutcome::default();
    if dt_ns == 0 {
        return out;
    }
    let wss = profile.wss_bytes as f64;
    let mut remaining = dt_ns as f64;
    let mut guard: u32 = 0;
    while remaining > 0.0 {
        guard += 1;
        let h2_cap = profile.l2_hit_warm(spec);
        let h2 = h2_cap * l2_warmth.clamp(0.0, 1.0);
        let deep = profile.deep_refs_per_instr;
        let resident = llc.occupancy(owner);
        let h3 = if wss <= 0.0 {
            1.0
        } else {
            (resident / wss).clamp(0.0, 1.0)
        };
        let llc_ref_per_instr = deep * (1.0 - h2);
        let llc_miss_per_instr = llc_ref_per_instr * (1.0 - h3);
        let ns_per_instr = profile.base_ns_per_instr
            + deep
                * (h2 * spec.l2_hit_ns
                    + (1.0 - h2) * (h3 * spec.llc_hit_ns + (1.0 - h3) * spec.mem_ns));

        let mut chunk = remaining;
        let l2_fill_per_instr = deep * (1.0 - h2);
        let l2_target = (wss.min(spec.l2_bytes as f64)).max(1.0);
        if guard < MAX_SUBSTEPS {
            if llc_miss_per_instr > 1e-12 && wss > 0.0 {
                let instr_cap =
                    (wss * MAX_FILL_FRACTION / spec.line_bytes as f64) / llc_miss_per_instr;
                chunk = chunk.min(instr_cap * ns_per_instr);
            }
            if l2_fill_per_instr > 1e-12 && *l2_warmth < 1.0 {
                let instr_cap =
                    (l2_target * MAX_FILL_FRACTION / spec.line_bytes as f64) / l2_fill_per_instr;
                chunk = chunk.min(instr_cap * ns_per_instr);
            }
        }
        chunk = chunk.max(remaining.min(1.0)).min(remaining);

        let instr = chunk / ns_per_instr;
        let refs = instr * llc_ref_per_instr;
        let misses = instr * llc_miss_per_instr;
        out.instructions += instr;
        out.llc_refs += refs;
        out.llc_misses += misses;

        if refs > 0.0 && wss > 0.0 {
            llc.touch_frac(owner, refs * spec.line_bytes as f64 / wss);
        }
        if misses > 0.0 {
            llc.insert_full_scan(owner, misses * spec.line_bytes as f64, wss);
        }
        if l2_fill_per_instr > 1e-12 {
            let fill = instr * l2_fill_per_instr * spec.line_bytes as f64;
            *l2_warmth = (*l2_warmth + fill / l2_target).min(1.0);
        }
        remaining -= chunk;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aql_sim::time::MS;

    fn spec() -> CacheSpec {
        CacheSpec::i7_3770()
    }

    #[test]
    fn light_profile_runs_near_base_speed() {
        let spec = spec();
        let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
        let mut w2 = 1.0;
        let p = MemProfile::light();
        let out = exec_step(&p, &spec, &mut llc, 0, &mut w2, MS, None);
        let ips = out.instructions / MS as f64;
        let base_ips = 1.0 / p.base_ns_per_instr;
        assert!(
            (ips - base_ips).abs() / base_ips < 0.05,
            "light profile should run near base speed: {ips} vs {base_ips}"
        );
    }

    #[test]
    fn warm_llcf_faster_than_cold() {
        let spec = spec();
        let p = MemProfile::llcf(&spec);
        // Cold run.
        let mut llc_cold = LlcState::new(spec.llc_bytes as f64, 1);
        let mut w2 = 0.0;
        let cold = exec_step(&p, &spec, &mut llc_cold, 0, &mut w2, MS, None);
        // Warm run: footprint pre-loaded.
        let mut llc_warm = LlcState::new(spec.llc_bytes as f64, 1);
        llc_warm.insert(0, p.wss_bytes as f64, p.wss_bytes as f64);
        let mut w2 = 1.0;
        let warm = exec_step(&p, &spec, &mut llc_warm, 0, &mut w2, MS, None);
        assert!(
            warm.instructions > 2.0 * cold.instructions,
            "warm {} should far exceed cold {}",
            warm.instructions,
            cold.instructions
        );
    }

    #[test]
    fn cold_run_warms_the_cache() {
        let spec = spec();
        let p = MemProfile::llcf(&spec);
        let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
        let mut w2 = 0.0;
        let mut last_instr = 0.0;
        // Successive 2ms steps must speed up as the footprint grows.
        for step in 0..5 {
            let out = exec_step(&p, &spec, &mut llc, 0, &mut w2, 2 * MS, None);
            assert!(
                out.instructions >= last_instr,
                "step {step} slowed down: {} < {last_instr}",
                out.instructions
            );
            last_instr = out.instructions;
        }
        assert!(llc.occupancy(0) > 0.9 * p.wss_bytes as f64);
    }

    #[test]
    fn llco_always_misses() {
        let spec = spec();
        let p = MemProfile::llco(&spec);
        let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
        let mut w2 = 0.0;
        // Run long enough to reach steady state.
        let _ = exec_step(&p, &spec, &mut llc, 0, &mut w2, 50 * MS, None);
        let out = exec_step(&p, &spec, &mut llc, 0, &mut w2, 10 * MS, None);
        let miss_ratio = out.llc_misses / out.llc_refs;
        assert!(
            miss_ratio > 0.6,
            "trasher steady-state miss ratio should stay high, got {miss_ratio}"
        );
    }

    #[test]
    fn lolcf_generates_negligible_llc_traffic_when_warm() {
        let spec = spec();
        let p = MemProfile::lolcf(&spec);
        let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
        let mut w2 = 1.0;
        let out = exec_step(&p, &spec, &mut llc, 0, &mut w2, 10 * MS, None);
        let rr_per_kilo = out.llc_refs / out.instructions * 1000.0;
        assert!(
            rr_per_kilo < 1.0,
            "warm LoLCF should barely reference the LLC, got {rr_per_kilo}/k-instr"
        );
    }

    #[test]
    fn lolcf_l2_refill_is_cheap_and_bounded() {
        let spec = spec();
        let p = MemProfile::lolcf(&spec);
        let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
        let mut w2 = 0.0;
        let cold = exec_step(&p, &spec, &mut llc, 0, &mut w2, MS, None);
        assert!(
            w2 > 0.99,
            "1ms should fully rewarm a 230KB L2 set, got {w2}"
        );
        let warm = exec_step(&p, &spec, &mut llc, 0, &mut w2, MS, None);
        let ratio = warm.instructions / cold.instructions;
        assert!(
            ratio > 1.0 && ratio < 1.6,
            "L2 refill should cost a little, not a lot: warm/cold = {ratio}"
        );
    }

    #[test]
    fn integrator_matches_full_scan_reference() {
        // exec_step must be bit-identical to the full-scan reference:
        // same outcomes, same LLC trajectory, same warmth — across
        // profiles, owner mixes and chunk sizes.
        let spec = spec();
        let profiles = [
            MemProfile::llcf(&spec),
            MemProfile::lolcf(&spec),
            MemProfile::llco(&spec),
            MemProfile::light(),
        ];
        let mut rng = aql_sim::rng::SimRng::seed_from(7);
        let owners = profiles.len();
        let mut llc_a = LlcState::new(spec.llc_bytes as f64, owners);
        let mut llc_b = LlcState::new(spec.llc_bytes as f64, owners);
        let mut warm_a = vec![0.0f64; owners];
        let mut warm_b = vec![0.0f64; owners];
        for step in 0..600 {
            let owner = rng.uniform_u64(0, owners as u64) as usize;
            let dt = rng.uniform_u64(1, 2_000_000);
            let a = exec_step_reference(
                &profiles[owner],
                &spec,
                &mut llc_a,
                owner,
                &mut warm_a[owner],
                dt,
            );
            let b = exec_step(
                &profiles[owner],
                &spec,
                &mut llc_b,
                owner,
                &mut warm_b[owner],
                dt,
                None,
            );
            assert_eq!(
                a.instructions.to_bits(),
                b.instructions.to_bits(),
                "instructions diverged at step {step}"
            );
            assert_eq!(a.llc_refs.to_bits(), b.llc_refs.to_bits(), "step {step}");
            assert_eq!(
                a.llc_misses.to_bits(),
                b.llc_misses.to_bits(),
                "step {step}"
            );
            assert_eq!(
                warm_a[owner].to_bits(),
                warm_b[owner].to_bits(),
                "warmth diverged at step {step}"
            );
            for i in 0..owners {
                assert_eq!(
                    llc_a.occupancy(i).to_bits(),
                    llc_b.occupancy(i).to_bits(),
                    "occ[{i}] diverged at step {step}"
                );
            }
        }
    }

    #[test]
    fn degenerate_profile_saturates_instead_of_spinning() {
        // A pathological profile (tiny working set, heavy deep traffic)
        // pins the fill-fraction caps near the 1 ns chunk floor, making
        // the sub-step count proportional to the budget. The hard cap
        // must bound the loop and still consume the whole budget — in
        // release builds too, where the old guard was compiled out.
        let spec = spec();
        let p = MemProfile {
            wss_bytes: 64,
            deep_refs_per_instr: 50.0,
            base_ns_per_instr: 0.1,
        };
        for cached in [false, true] {
            let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
            let mut w2 = 0.0;
            let mut cache = RateCache::new(1);
            let start = std::time::Instant::now();
            let out = exec_step(
                &p,
                &spec,
                &mut llc,
                0,
                &mut w2,
                50 * MS,
                cached.then_some(&mut cache),
            );
            assert!(
                start.elapsed() < std::time::Duration::from_secs(30),
                "cap failed to bound the loop"
            );
            assert!(out.instructions.is_finite() && out.instructions > 0.0);
            assert!(out.llc_refs.is_finite() && out.llc_misses.is_finite());
            // The budget is fully consumed: the final saturating step
            // swallows whatever the capped sub-steps left over.
            assert!(llc.occupancy(0) <= 64.0 + 1e-9);
        }
    }

    #[test]
    fn zero_budget_is_a_noop() {
        let spec = spec();
        let p = MemProfile::llcf(&spec);
        let mut llc = LlcState::new(spec.llc_bytes as f64, 1);
        let mut w2 = 0.5;
        let out = exec_step(&p, &spec, &mut llc, 0, &mut w2, 0, None);
        assert_eq!(out, ExecOutcome::default());
        assert_eq!(w2, 0.5);
    }

    #[test]
    fn outcome_merge_adds_fields() {
        let mut a = ExecOutcome {
            instructions: 1.0,
            llc_refs: 2.0,
            llc_misses: 3.0,
        };
        a.merge(&ExecOutcome {
            instructions: 10.0,
            llc_refs: 20.0,
            llc_misses: 30.0,
        });
        assert_eq!(a.instructions, 11.0);
        assert_eq!(a.llc_refs, 22.0);
        assert_eq!(a.llc_misses, 33.0);
    }

    #[test]
    fn shared_llc_contention_slows_the_victim() {
        let spec = spec();
        let victim = MemProfile::llcf(&spec);
        let trasher = MemProfile::llco(&spec);
        let mut llc = LlcState::new(spec.llc_bytes as f64, 2);
        let mut w2v = 1.0;
        let mut w2t = 0.0;
        // Warm the victim fully.
        let _ = exec_step(&victim, &spec, &mut llc, 0, &mut w2v, 30 * MS, None);
        let alone = exec_step(&victim, &spec, &mut llc, 0, &mut w2v, 5 * MS, None);
        // Let the trasher stream for a while (victim descheduled).
        let _ = exec_step(&trasher, &spec, &mut llc, 1, &mut w2t, 90 * MS, None);
        let after = exec_step(&victim, &spec, &mut llc, 0, &mut w2v, 5 * MS, None);
        assert!(
            after.instructions < 0.8 * alone.instructions,
            "trasher must erode the victim footprint: {} vs {}",
            after.instructions,
            alone.instructions
        );
    }
}
