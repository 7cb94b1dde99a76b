//! Shared last-level cache occupancy model.
//!
//! The LLC is modelled as a capacity shared by *owners* (vCPUs): each
//! owner has a resident footprint in bytes. Misses fetch lines and grow
//! the owner's footprint; when the sum exceeds capacity every footprint
//! is scaled down proportionally — a smooth approximation of random
//! replacement that reproduces the paper's contention effects:
//! trashing owners (`LLCO`) with huge fetch rates erode the footprint
//! of cache-friendly owners (`LLCF`) while those are descheduled.

/// Freshness decay constant: after `FRESH_TAU × capacity` bytes of new
/// insertions, an owner's freshness drops by `1/e` unless it keeps
/// re-referencing its set.
const FRESH_TAU: f64 = 0.5;
/// How much more evictable a fully-stale byte is than a fresh one.
const STALE_BOOST: f64 = 20.0;

/// Freshness below this is flushed to exactly `0.0` by the decay loop.
/// Multiplicative decay alone never reaches zero, so without the flush
/// every owner that ever touched a socket stays "active" forever. The
/// threshold sits far below the half-ulp of `1.0` (`2^-53`), where
/// `1.0 - f` already rounds to exactly `1.0`, so a flushed owner's
/// eviction weight is bit-identical either way; the only observable
/// difference is a sub-1e-18 perturbation if the owner later re-touches
/// — deep inside the conformance tolerance. Applied identically by
/// both insertion layouts, so the two stay bit-equal to each other.
const FRESHNESS_FLUSH: f64 = 1e-18;

/// Occupancies below this many bytes are flushed to exactly `0.0` by
/// the eviction loops. Proportional eviction shrinks a footprint
/// geometrically and never reaches zero; a micro-byte footprint is
/// physically meaningless but keeps its owner in every scan. The h3
/// perturbation is at most `1e-6 / wss` — immeasurable. Applied
/// identically by both insertion layouts.
const OCC_FLUSH_BYTES: f64 = 1e-6;

/// Insertions between opportunistic compactions of the active-owner
/// index.
const PRUNE_PERIOD: u32 = 4096;

/// Per-socket shared LLC state.
///
/// Owner indices are dense (global vCPU indices); occupancy is tracked
/// in fractional bytes. Eviction approximates LRU through per-owner
/// *freshness* — the fraction of the owner's resident set recently
/// re-referenced ([`LlcState::touch_frac`]): victims are chosen in
/// proportion to `occupancy × (1 + STALE_BOOST × (1 − freshness))`.
/// A cache-friendly owner that re-touches its whole set every
/// millisecond stays fresh and protected; a streaming trasher touches
/// each of its lines only once per long pass, stays stale, and its own
/// dead lines absorb most of the eviction pressure — exactly how
/// set-recency behaves on real hardware.
///
/// # Examples
///
/// ```
/// use aql_mem::LlcState;
///
/// let mut llc = LlcState::new(1024.0, 2);
/// llc.insert(0, 800.0, 4096.0);
/// llc.insert(1, 800.0, 4096.0);
/// // Capacity pressure scaled both footprints down to fit.
/// assert!(llc.total() <= 1024.0 + 1e-9);
/// assert!(llc.occupancy(0) > 0.0 && llc.occupancy(1) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct LlcState {
    capacity: f64,
    occ: Vec<f64>,
    total: f64,
    freshness: Vec<f64>,
    /// Reused eviction-weight buffer for [`LlcState::insert`], so
    /// insertion performs no allocation in steady state.
    scratch: Vec<f64>,
    /// Owners that may hold state (occupancy or freshness > 0), in
    /// ascending order. The sparse insertion layout scans only this
    /// set: every skipped owner holds exactly `0.0` in both fields, and
    /// `x + 0.0` / `0.0 × d` are exact, so the results are bit-identical
    /// to full scans. On a multi-socket machine owner indices are
    /// global, so this keeps each socket's passes proportional to the
    /// owners that ever ran there, not to the whole machine.
    active: Vec<u32>,
    /// Membership mirror of `active` for O(1) insertion checks.
    is_active: Vec<bool>,
    /// One-entry memo for the freshness decay exponential, keyed by the
    /// exact bit pattern of `bytes`. Steady workloads insert identical
    /// byte counts chunk after chunk; reusing the previous `exp` result
    /// for the identical input is bit-transparent.
    exp_memo: (u64, f64),
    /// Insertions since the last active-set compaction.
    prune_tick: u32,
    /// Concurrency-contract auditor (debug builds only). While armed
    /// ([`LlcState::audit_arm`]), every mutating entry point panics
    /// unless its owner is in the allowed set — the engine arms each
    /// socket's LLC with the owners of that socket's lane for the
    /// duration of a parallel span, so a cross-socket mutation (a
    /// coalesce-contract break that would race under parallel
    /// execution) fails loudly instead of silently drifting.
    #[cfg(debug_assertions)]
    audit: Option<Vec<bool>>,
}

impl LlcState {
    /// Creates an empty LLC of `capacity` bytes for `owners` owners.
    pub fn new(capacity: f64, owners: usize) -> Self {
        assert!(capacity > 0.0, "LLC capacity must be positive");
        LlcState {
            capacity,
            occ: vec![0.0; owners],
            total: 0.0,
            freshness: vec![0.0; owners],
            scratch: Vec::new(),
            active: Vec::new(),
            is_active: vec![false; owners],
            exp_memo: (u64::MAX, 1.0),
            prune_tick: 0,
            #[cfg(debug_assertions)]
            audit: None,
        }
    }

    /// Arms the per-socket access auditor: until
    /// [`LlcState::audit_disarm`], any mutating call whose owner is not
    /// in `allowed` panics. Debug builds only — in release both methods
    /// are no-ops and the auditor costs nothing.
    pub fn audit_arm(&mut self, _allowed: &[usize]) {
        #[cfg(debug_assertions)]
        {
            let mut mask = vec![false; self.occ.len()];
            for &o in _allowed {
                if o >= mask.len() {
                    mask.resize(o + 1, false);
                }
                mask[o] = true;
            }
            self.audit = Some(mask);
        }
    }

    /// Disarms the access auditor (see [`LlcState::audit_arm`]).
    pub fn audit_disarm(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.audit = None;
        }
    }

    /// The auditor's gate, called by every mutating entry point.
    #[inline]
    fn audit_check(&self, _owner: usize) {
        #[cfg(debug_assertions)]
        if let Some(allowed) = &self.audit {
            assert!(
                allowed.get(_owner).copied().unwrap_or(false),
                "LLC access audit: owner {_owner} mutated a socket's LLC outside \
                 its parallel-span lane (allowed owners: {:?})",
                allowed
                    .iter()
                    .enumerate()
                    .filter_map(|(i, &a)| a.then_some(i))
                    .collect::<Vec<_>>()
            );
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Resident footprint of `owner` in bytes.
    pub fn occupancy(&self, owner: usize) -> f64 {
        self.occ.get(owner).copied().unwrap_or(0.0)
    }

    /// Sum of all footprints.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Grows the index space to hold at least `owners` owners.
    pub fn ensure_owners(&mut self, owners: usize) {
        if self.occ.len() < owners {
            self.occ.resize(owners, 0.0);
            self.freshness.resize(owners, 0.0);
            self.is_active.resize(owners, false);
        }
    }

    /// Marks an owner as possibly holding state, keeping `active`
    /// sorted ascending so sparse scans visit owners in index order
    /// (the order contiguous scans use).
    fn activate(&mut self, owner: usize) {
        if !self.is_active[owner] {
            self.is_active[owner] = true;
            let pos = self.active.partition_point(|&i| (i as usize) < owner);
            self.active.insert(pos, owner as u32);
        }
    }

    /// Records that `owner` re-referenced `frac` of its working set
    /// (`frac` may exceed 1; freshness saturates at 1).
    pub fn touch_frac(&mut self, owner: usize, frac: f64) {
        self.audit_check(owner);
        self.ensure_owners(owner + 1);
        let f = &mut self.freshness[owner];
        *f = (*f + frac.max(0.0)).min(1.0);
        if *f > 0.0 {
            self.activate(owner);
        }
    }

    /// Marks the owner's whole resident set as recently used.
    pub fn touch(&mut self, owner: usize) {
        self.touch_frac(owner, 1.0);
    }

    /// Current freshness of an owner, in `[0, 1]`.
    pub fn freshness(&self, owner: usize) -> f64 {
        self.freshness.get(owner).copied().unwrap_or(0.0)
    }

    /// Fetches `bytes` for `owner` (footprint capped at `max_bytes`,
    /// normally the owner's working-set size), then resolves capacity
    /// pressure by evicting in proportion to occupancy × staleness
    /// (LRU approximation via freshness).
    ///
    /// Allocation-free in steady state: the eviction weights reuse a
    /// scratch buffer and the freshness-decay exponential is memoized
    /// for repeated identical insert sizes. The scans run over every
    /// owner or only the active ones, whichever layout suits the
    /// observed density; the two are bit-identical, and
    /// `insert_matches_full_scan_reference` (property test) holds both
    /// to a plain full-scan reference.
    pub fn insert(&mut self, owner: usize, bytes: f64, max_bytes: f64) {
        debug_assert!(bytes >= 0.0 && max_bytes >= 0.0);
        self.audit_check(owner);
        self.prune_tick += 1;
        if self.prune_tick >= PRUNE_PERIOD {
            self.prune_tick = 0;
            self.prune_active();
        }
        self.ensure_owners(owner + 1);
        let cur = self.occ[owner];
        let grown = (cur + bytes).min(max_bytes.max(cur));
        self.total += grown - cur;
        self.occ[owner] = grown;
        if grown > 0.0 {
            self.activate(owner);
        }
        // Layout choice, not semantics: when most owners are active
        // (single-socket machines), indexed gathers lose to contiguous
        // scans, so run the contiguous loops; the sparse
        // path pays off on multi-socket machines where each socket only
        // ever hosts a fraction of the global owner space.
        if self.active.len() * 4 >= self.occ.len() * 3 {
            self.insert_contiguous(owner, bytes);
        } else {
            self.insert_sparse(owner, bytes);
        }
    }

    /// The insertion tail for a mostly-active owner space: contiguous
    /// scans over every owner, no indirection.
    fn insert_contiguous(&mut self, owner: usize, bytes: f64) {
        if bytes > 0.0 {
            let decay = self.decay_for(bytes);
            for (i, f) in self.freshness.iter_mut().enumerate() {
                if i != owner && *f != 0.0 {
                    *f *= decay;
                    if *f < FRESHNESS_FLUSH {
                        *f = 0.0;
                    }
                }
            }
        }
        let mut overflow = self.total - self.capacity;
        if overflow <= 0.0 {
            return;
        }
        let mut weights = std::mem::take(&mut self.scratch);
        for _ in 0..4 {
            if overflow <= 1e-9 {
                break;
            }
            weights.clear();
            weights.extend((0..self.occ.len()).map(|i| {
                if self.occ[i] > 0.0 {
                    self.occ[i] * (1.0 + STALE_BOOST * (1.0 - self.freshness[i]))
                } else {
                    0.0
                }
            }));
            let wsum: f64 = weights.iter().sum();
            if wsum <= 0.0 {
                break;
            }
            let mut evicted = 0.0;
            for (occ, w) in self.occ.iter_mut().zip(&weights) {
                // Zero-weight owners contribute an exact 0.0 take.
                if *w == 0.0 {
                    continue;
                }
                let want = overflow * w / wsum;
                let take = want.min(*occ);
                *occ -= take;
                if *occ < OCC_FLUSH_BYTES {
                    *occ = 0.0;
                }
                evicted += take;
            }
            overflow -= evicted;
            if evicted <= 1e-12 {
                break;
            }
        }
        self.scratch = weights;
        if overflow > 1e-9 {
            // Degenerate weights: plain proportional fallback.
            let sum: f64 = self.occ.iter().sum();
            if sum > 0.0 {
                let scale = (sum - overflow).max(0.0) / sum;
                for o in &mut self.occ {
                    *o *= scale;
                    if *o < OCC_FLUSH_BYTES {
                        *o = 0.0;
                    }
                }
            }
        }
        self.total = self.occ.iter().sum();
    }

    /// The insertion tail for a sparsely-active owner space: every scan
    /// visits only the active owners. Inactive owners hold exactly
    /// `0.0` occupancy and freshness, so the skipped terms are exact
    /// identities (`x + 0.0`, `0.0 × d`, zero-weight takes) and the
    /// results match the contiguous scans bit for bit.
    fn insert_sparse(&mut self, owner: usize, bytes: f64) {
        if bytes > 0.0 {
            let decay = self.decay_for(bytes);
            for k in 0..self.active.len() {
                let i = self.active[k] as usize;
                if i != owner && self.freshness[i] != 0.0 {
                    self.freshness[i] *= decay;
                    if self.freshness[i] < FRESHNESS_FLUSH {
                        self.freshness[i] = 0.0;
                    }
                }
            }
        }
        let mut overflow = self.total - self.capacity;
        if overflow <= 0.0 {
            return;
        }
        let mut weights = std::mem::take(&mut self.scratch);
        for _ in 0..4 {
            if overflow <= 1e-9 {
                break;
            }
            weights.clear();
            let mut wsum = 0.0;
            for &iu in &self.active {
                let i = iu as usize;
                let w = if self.occ[i] > 0.0 {
                    self.occ[i] * (1.0 + STALE_BOOST * (1.0 - self.freshness[i]))
                } else {
                    0.0
                };
                weights.push(w);
                wsum += w;
            }
            if wsum <= 0.0 {
                break;
            }
            let mut evicted = 0.0;
            for (k, &w) in weights.iter().enumerate() {
                // Zero-weight owners contribute an exact 0.0 take.
                if w == 0.0 {
                    continue;
                }
                let occ = &mut self.occ[self.active[k] as usize];
                let want = overflow * w / wsum;
                let take = want.min(*occ);
                *occ -= take;
                if *occ < OCC_FLUSH_BYTES {
                    *occ = 0.0;
                }
                evicted += take;
            }
            overflow -= evicted;
            if evicted <= 1e-12 {
                break;
            }
        }
        self.scratch = weights;
        if overflow > 1e-9 {
            // Degenerate weights: plain proportional fallback.
            let sum: f64 = self.active.iter().map(|&i| self.occ[i as usize]).sum();
            if sum > 0.0 {
                let scale = (sum - overflow).max(0.0) / sum;
                for &iu in &self.active {
                    let o = &mut self.occ[iu as usize];
                    *o *= scale;
                    if *o < OCC_FLUSH_BYTES {
                        *o = 0.0;
                    }
                }
            }
        }
        self.total = self.active.iter().map(|&i| self.occ[i as usize]).sum();
    }

    /// Drops owners whose occupancy and freshness have both been
    /// flushed to exactly zero from the active index (pure
    /// bookkeeping: a skipped all-zero owner contributes nothing to
    /// any scan).
    fn prune_active(&mut self) {
        let occ = &self.occ;
        let fresh = &self.freshness;
        let is_active = &mut self.is_active;
        self.active.retain(|&iu| {
            let i = iu as usize;
            let live = occ[i] != 0.0 || fresh[i] != 0.0;
            if !live {
                is_active[i] = false;
            }
            live
        });
    }

    /// The freshness decay factor for an insertion of `bytes`, with a
    /// one-entry bitwise memo (same input bits → same output bits, so
    /// the memo is invisible in the results).
    fn decay_for(&mut self, bytes: f64) -> f64 {
        let key = bytes.to_bits();
        if self.exp_memo.0 != key {
            self.exp_memo = (key, (-bytes / (self.capacity * FRESH_TAU)).exp());
        }
        self.exp_memo.1
    }

    /// Removes the owner's footprint entirely (socket migration or VM
    /// teardown).
    pub fn evict_owner(&mut self, owner: usize) {
        self.audit_check(owner);
        if let Some(o) = self.occ.get_mut(owner) {
            self.total -= *o;
            *o = 0.0;
            if self.total < 0.0 {
                self.total = 0.0;
            }
        }
    }

    /// Fraction of capacity in use, in `[0, 1]`.
    pub fn pressure(&self) -> f64 {
        (self.total / self.capacity).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LlcState {
        /// The full-scan reference for [`LlcState::insert`]: every
        /// owner visited by every scan, a fresh weight vector per pass
        /// and an un-memoized decay `exp`. Test-only.
        pub(crate) fn insert_full_scan(&mut self, owner: usize, bytes: f64, max_bytes: f64) {
            self.ensure_owners(owner + 1);
            let cur = self.occ[owner];
            let grown = (cur + bytes).min(max_bytes.max(cur));
            self.total += grown - cur;
            self.occ[owner] = grown;
            if grown > 0.0 {
                self.activate(owner);
            }
            // New insertions age everyone else's lines.
            if bytes > 0.0 {
                let decay = (-bytes / (self.capacity * FRESH_TAU)).exp();
                for (i, f) in self.freshness.iter_mut().enumerate() {
                    if i != owner {
                        *f *= decay;
                        if *f < FRESHNESS_FLUSH {
                            *f = 0.0;
                        }
                    }
                }
            }
            let mut overflow = self.total - self.capacity;
            if overflow <= 0.0 {
                return;
            }
            // Weighted eviction with clamping; a few passes suffice,
            // then fall back to plain proportional scaling.
            for _ in 0..4 {
                if overflow <= 1e-9 {
                    break;
                }
                let weights: Vec<f64> = (0..self.occ.len())
                    .map(|i| {
                        if self.occ[i] > 0.0 {
                            self.occ[i] * (1.0 + STALE_BOOST * (1.0 - self.freshness[i]))
                        } else {
                            0.0
                        }
                    })
                    .collect();
                let wsum: f64 = weights.iter().sum();
                if wsum <= 0.0 {
                    break;
                }
                let mut evicted = 0.0;
                for (occ, w) in self.occ.iter_mut().zip(&weights) {
                    let want = overflow * w / wsum;
                    let take = want.min(*occ);
                    *occ -= take;
                    if *occ < OCC_FLUSH_BYTES {
                        *occ = 0.0;
                    }
                    evicted += take;
                }
                overflow -= evicted;
                if evicted <= 1e-12 {
                    break;
                }
            }
            if overflow > 1e-9 {
                let sum: f64 = self.occ.iter().sum();
                if sum > 0.0 {
                    let scale = (sum - overflow).max(0.0) / sum;
                    for o in &mut self.occ {
                        *o *= scale;
                        if *o < OCC_FLUSH_BYTES {
                            *o = 0.0;
                        }
                    }
                }
            }
            self.total = self.occ.iter().sum();
        }
    }

    fn total_matches(llc: &LlcState) -> bool {
        let sum: f64 = (0..llc.occ.len()).map(|i| llc.occupancy(i)).sum();
        (sum - llc.total()).abs() < 1e-6
    }

    #[test]
    fn insert_grows_footprint() {
        let mut llc = LlcState::new(1000.0, 1);
        llc.insert(0, 100.0, 500.0);
        assert_eq!(llc.occupancy(0), 100.0);
        llc.insert(0, 100.0, 500.0);
        assert_eq!(llc.occupancy(0), 200.0);
        assert!(total_matches(&llc));
    }

    #[test]
    fn footprint_capped_at_wss() {
        let mut llc = LlcState::new(1000.0, 1);
        llc.insert(0, 900.0, 300.0);
        assert_eq!(llc.occupancy(0), 300.0);
    }

    #[test]
    fn capacity_pressure_scales_everyone() {
        let mut llc = LlcState::new(1000.0, 2);
        llc.insert(0, 600.0, 1e9);
        llc.insert(1, 600.0, 1e9);
        assert!((llc.total() - 1000.0).abs() < 1e-9);
        // Owner 1 inserted later, so owner 0 lost some share; both hold
        // a nonzero piece.
        assert!(llc.occupancy(0) > 400.0 && llc.occupancy(0) < 600.0);
        assert!(llc.occupancy(1) > 400.0);
        assert!(total_matches(&llc));
    }

    #[test]
    fn trasher_erodes_victim() {
        let mut llc = LlcState::new(1000.0, 2);
        llc.insert(0, 500.0, 500.0); // victim warm
        let before = llc.occupancy(0);
        for _ in 0..50 {
            llc.insert(1, 100.0, 1e9); // trasher streams through
        }
        assert!(
            llc.occupancy(0) < before / 2.0,
            "victim should lose most of its footprint, kept {}",
            llc.occupancy(0)
        );
        assert!(total_matches(&llc));
    }

    #[test]
    fn evict_owner_clears() {
        let mut llc = LlcState::new(1000.0, 2);
        llc.insert(0, 400.0, 1e9);
        llc.insert(1, 300.0, 1e9);
        llc.evict_owner(0);
        assert_eq!(llc.occupancy(0), 0.0);
        assert!((llc.total() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn ensure_owners_extends() {
        let mut llc = LlcState::new(100.0, 0);
        llc.insert(5, 10.0, 100.0);
        assert_eq!(llc.occupancy(5), 10.0);
        assert_eq!(llc.occupancy(3), 0.0);
    }

    #[test]
    fn pressure_range() {
        let mut llc = LlcState::new(100.0, 1);
        assert_eq!(llc.pressure(), 0.0);
        llc.insert(0, 250.0, 1e9);
        assert_eq!(llc.pressure(), 1.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = LlcState::new(0.0, 1);
    }

    #[test]
    fn recency_protects_an_active_victim() {
        // A victim that keeps referencing its lines must survive a
        // streaming trasher far better than a stale one.
        let mut active = LlcState::new(1000.0, 2);
        active.insert(0, 500.0, 500.0);
        let mut stale = active.clone();
        for _ in 0..100 {
            active.touch(0); // victim keeps hitting
            active.insert(1, 50.0, 1e9);
            stale.insert(1, 50.0, 1e9); // victim never referenced
        }
        assert!(
            active.occupancy(0) > 2.0 * stale.occupancy(0),
            "recency must protect: active={} stale={}",
            active.occupancy(0),
            stale.occupancy(0)
        );
    }

    /// Asserts `a` and `b` hold bit-identical totals, occupancies and
    /// freshness over the first `owners` owners.
    fn assert_bitwise(a: &LlcState, b: &LlcState, owners: usize, step: usize) {
        assert_eq!(a.total().to_bits(), b.total().to_bits(), "step {step}");
        for i in 0..owners {
            assert_eq!(
                a.occupancy(i).to_bits(),
                b.occupancy(i).to_bits(),
                "occ[{i}] diverged at step {step}"
            );
            assert_eq!(
                a.freshness(i).to_bits(),
                b.freshness(i).to_bits(),
                "freshness[{i}] diverged at step {step}"
            );
        }
    }

    /// One random insertion with the size mix of the property test.
    fn random_insert(rng: &mut aql_sim::rng::SimRng) -> (f64, f64) {
        let bytes = rng.unit_f64() * 2_000_000.0;
        let max = if rng.chance(0.3) {
            1e9
        } else {
            rng.unit_f64() * 9_000_000.0
        };
        (bytes, max)
    }

    #[test]
    fn insert_matches_full_scan_reference() {
        // insert must be bit-identical to the full-scan reference over
        // arbitrary operation sequences: same occupancies, totals and
        // freshness.
        let mut rng = aql_sim::rng::SimRng::seed_from(42);
        // Owners drawn from the whole index space: every owner turns
        // active within a few dozen steps (contiguous layout).
        for owners in [1usize, 2, 7, 32] {
            let mut a = LlcState::new(8_388_608.0, owners);
            let mut b = LlcState::new(8_388_608.0, owners);
            for step in 0..2_000 {
                let owner = rng.uniform_u64(0, owners as u64) as usize;
                match rng.uniform_u64(0, 4) {
                    0 => {
                        let frac = rng.unit_f64() * 1.5;
                        a.touch_frac(owner, frac);
                        b.touch_frac(owner, frac);
                    }
                    _ => {
                        let (bytes, max) = random_insert(&mut rng);
                        a.insert_full_scan(owner, bytes, max);
                        b.insert(owner, bytes, max);
                    }
                }
                assert_bitwise(&a, &b, owners, step);
            }
        }
        // One socket of a four-socket machine: a 48-owner global index
        // space of which only six owners ever touch this LLC (sparse
        // layout). Each phase runs a random subset of them; the rest go
        // cold, get flushed to zero, are pruned from the active index
        // and later come back — across several PRUNE_PERIODs.
        const OWNERS: usize = 48;
        let socket = [3usize, 17, 18, 30, 41, 47];
        let mut a = LlcState::new(8_388_608.0, OWNERS);
        let mut b = LlcState::new(8_388_608.0, OWNERS);
        let (mut inserts, mut pruned, mut revived) = (0u32, 0u32, 0u32);
        let mut ever_active = [false; OWNERS];
        let mut step = 0;
        while inserts < 3 * PRUNE_PERIOD {
            let hot: Vec<usize> = socket.iter().copied().filter(|_| rng.chance(0.4)).collect();
            let hot = if hot.is_empty() { vec![socket[0]] } else { hot };
            for _ in 0..1_500 {
                let owner = hot[rng.uniform_u64(0, hot.len() as u64) as usize];
                let was_pruned = ever_active[owner] && !b.is_active[owner];
                if rng.uniform_u64(0, 4) == 0 {
                    let frac = rng.unit_f64() * 1.5;
                    a.touch_frac(owner, frac);
                    b.touch_frac(owner, frac);
                } else {
                    let (bytes, max) = random_insert(&mut rng);
                    let before = b.active.len();
                    a.insert_full_scan(owner, bytes, max);
                    b.insert(owner, bytes, max);
                    inserts += 1;
                    pruned += u32::from(b.active.len() < before);
                }
                revived += u32::from(was_pruned && b.is_active[owner]);
                ever_active[owner] |= b.is_active[owner];
                assert!(b.active.len() * 4 < OWNERS * 3, "layout must stay sparse");
                assert_bitwise(&a, &b, OWNERS, step);
                step += 1;
            }
        }
        assert!(pruned > 0, "no owner ever went cold enough to be pruned");
        assert!(revived > 0, "no pruned owner ever came back");
    }

    #[test]
    fn eviction_conserves_capacity() {
        let mut llc = LlcState::new(1000.0, 3);
        for i in 0..3 {
            llc.insert(i, 900.0, 1e9);
        }
        assert!(llc.total() <= 1000.0 + 1e-6);
        let sum: f64 = (0..3).map(|i| llc.occupancy(i)).sum();
        assert!((sum - llc.total()).abs() < 1e-6);
        for i in 0..3 {
            assert!(llc.occupancy(i) >= 0.0);
        }
    }

    #[test]
    fn armed_auditor_admits_allowed_owners() {
        let mut llc = LlcState::new(1000.0, 4);
        llc.audit_arm(&[1, 2]);
        llc.insert(1, 100.0, 1e9);
        llc.insert(2, 100.0, 1e9);
        llc.touch_frac(1, 0.5);
        llc.evict_owner(2);
        llc.audit_disarm();
        // Disarmed: every owner is fair game again.
        llc.insert(0, 50.0, 1e9);
        llc.touch_frac(3, 1.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "LLC access audit")]
    fn armed_auditor_rejects_cross_lane_mutation() {
        let mut llc = LlcState::new(1000.0, 4);
        llc.audit_arm(&[0, 1]);
        llc.insert(3, 100.0, 1e9);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "LLC access audit")]
    fn armed_auditor_rejects_cross_lane_touch() {
        let mut llc = LlcState::new(1000.0, 4);
        llc.audit_arm(&[2]);
        llc.touch_frac(0, 0.1);
    }
}
