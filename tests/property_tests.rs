//! Property-based tests (proptest) over the core semantics, the DBM zone
//! library, and the larger designs: invariants that must hold for *every*
//! input, not just the paper's examples.

use proptest::prelude::*;
use rlse::cells::defs;
use rlse::core::machine::TimeKey;
use rlse::designs::{bitonic_delay, bitonic_sorter_with_inputs};
use rlse::prelude::*;
use rlse::ta::dbm::{le, lt, Dbm, Rel, INF, LE_ZERO};
use std::collections::BTreeMap;

// ---------------------------------------------------------------- machines

proptest! {
    /// The AND machine never fires more than once per clock pulse, never
    /// fires without a clock, and all output times are clock + 9.2.
    #[test]
    fn and_fires_only_on_clock_edges(
        a_times in proptest::collection::vec(0u32..20, 0..6),
        b_times in proptest::collection::vec(0u32..20, 0..6),
    ) {
        // Map slot k to time 100k + 20/30: data mid-period, clocks at 100k.
        let spec = defs::and_elem();
        let a_id = spec.input_id("a").unwrap();
        let b_id = spec.input_id("b").unwrap();
        let clk_id = spec.input_id("clk").unwrap();
        let mut sched: BTreeMap<TimeKey, Vec<rlse::core::machine::InputId>> = BTreeMap::new();
        for &k in &a_times {
            sched.entry(TimeKey::new(100.0 * k as f64 + 20.0)).or_default().push(a_id);
        }
        for &k in &b_times {
            sched.entry(TimeKey::new(100.0 * k as f64 + 30.0)).or_default().push(b_id);
        }
        let n_clk = 21;
        for k in 1..=n_clk {
            sched.entry(TimeKey::new(100.0 * k as f64)).or_default().push(clk_id);
        }
        let outs = spec.trace(&sched).unwrap();
        prop_assert!(outs.len() <= n_clk);
        for (_, t) in &outs {
            let frac = (t - 9.2).rem_euclid(100.0);
            prop_assert!(frac.abs() < 1e-6, "output at {t}");
        }
        // Reference model: fires in period k iff both a and b pulsed in it.
        let expected = (0..n_clk as u32)
            .filter(|k| a_times.contains(k) && b_times.contains(k))
            .count();
        prop_assert_eq!(outs.len(), expected);
    }

    /// Dispatch is permutation-invariant: the result of delivering a set of
    /// simultaneous inputs does not depend on the order of the input list.
    #[test]
    fn dispatch_is_order_insensitive(perm in 0usize..6) {
        let spec = defs::join2x2_elem();
        let a_t = spec.input_id("a_t").unwrap();
        let b_t = spec.input_id("b_t").unwrap();
        let b_f = spec.input_id("b_f").unwrap();
        let orders = [
            [a_t, b_t, b_f], [a_t, b_f, b_t], [b_t, a_t, b_f],
            [b_t, b_f, a_t], [b_f, a_t, b_t], [b_f, b_t, a_t],
        ];
        let cfg = spec.initial_config();
        // All simultaneous at t=10: the machine handles them by priority,
        // whatever order the set is presented in.
        let r0 = spec.dispatch(&cfg, &orders[0], 10.0);
        let rp = spec.dispatch(&cfg, &orders[perm], 10.0);
        match (r0, rp) {
            (Ok((c0, o0)), Ok((cp, op))) => {
                prop_assert_eq!(c0.state, cp.state);
                prop_assert_eq!(o0, op);
            }
            (Err(e0), Err(ep)) => prop_assert_eq!(e0.kind, ep.kind),
            (x, y) => prop_assert!(false, "diverged: {x:?} vs {y:?}"),
        }
    }

    /// Every machine's theta map only ever moves forward in time.
    #[test]
    fn theta_is_monotone(times in proptest::collection::vec(1u32..500, 1..12)) {
        let spec = defs::jtl_elem();
        let a = spec.input_id("a").unwrap();
        let mut cfg = spec.initial_config();
        let mut sorted: Vec<f64> = times.iter().map(|t| *t as f64).collect();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        let mut last = f64::NEG_INFINITY;
        for t in sorted {
            let (next, _) = spec.step(&cfg, a, t).unwrap();
            prop_assert!(next.theta[a.0] >= last);
            last = next.theta[a.0];
            cfg = next;
        }
    }
}

// ---------------------------------------------------------------- circuits

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The bitonic sorter sorts *any* set of sufficiently separated times.
    #[test]
    fn bitonic_sorts_arbitrary_spaced_inputs(perm in proptest::sample::subsequence(
        (0..16usize).collect::<Vec<_>>(), 8), offset in 0u32..50)
    {
        // Build 8 distinct times with >= 10 ps spacing from the chosen slots.
        let times: Vec<f64> = perm.iter().map(|k| 15.0 + offset as f64 + 12.0 * *k as f64).collect();
        let mut c = Circuit::new();
        bitonic_sorter_with_inputs(&mut c, &times).unwrap();
        let ev = Simulation::new(c).run().unwrap();
        let mut sorted = times.clone();
        sorted.sort_by(f64::total_cmp);
        for (k, t) in sorted.iter().enumerate() {
            let got = ev.times(&format!("o{k}"));
            prop_assert_eq!(got.len(), 1);
            prop_assert!((got[0] - (t + bitonic_delay(8))).abs() < 1e-9);
        }
    }

    /// Both adder implementations agree with binary arithmetic on every
    /// input vector (exhaustive here, but phrased as a property).
    #[test]
    fn adders_match_reference(v in 0u8..8) {
        let (a, b, cin) = (v & 1 != 0, v & 2 != 0, v & 4 != 0);
        let ones = [a, b, cin].iter().filter(|&&x| x).count();

        let mut c = Circuit::new();
        rlse::designs::adder::full_adder_sync_with_inputs(&mut c, a, b, cin).unwrap();
        let ev = Simulation::new(c).run().unwrap();
        prop_assert_eq!(!ev.times("SUM").is_empty(), ones % 2 == 1);
        prop_assert_eq!(!ev.times("COUT").is_empty(), ones >= 2);

        let mut c = Circuit::new();
        rlse::designs::xsfq_adder::full_adder_xsfq_with_inputs(&mut c, a, b, cin).unwrap();
        let ev = Simulation::new(c).run().unwrap();
        prop_assert_eq!(!ev.times("SUM_T").is_empty(), ones % 2 == 1);
        prop_assert_eq!(!ev.times("COUT_T").is_empty(), ones >= 2);
    }
}

// -------------------------------------------------------------------- DBMs

/// Apply a random constraint sequence to a zone, skipping any op that would
/// empty it, so every generated zone is nonempty and (because `constrain`
/// maintains canonicity incrementally) canonical by construction.
fn apply_ops(mut z: Dbm, ops: &[(usize, u8, i32)]) -> Dbm {
    let clocks = z.clocks();
    for &(c, rel, v) in ops {
        let c = 1 + c % clocks;
        let rel = match rel % 5 {
            0 => Rel::Le,
            1 => Rel::Lt,
            2 => Rel::Ge,
            3 => Rel::Gt,
            _ => Rel::Eq,
        };
        let mut t = z.clone();
        if t.constrain_clock(c, rel, v) {
            z = t;
        }
    }
    z
}

/// Build a canonical nonempty zone: all clocks equal, time elapsed, then a
/// random constraint sequence.
fn zone_from_ops(clocks: usize, ops: &[(usize, u8, i32)]) -> Dbm {
    let mut z = Dbm::zero(clocks);
    z.up();
    apply_ops(z, ops)
}

/// Strategy for the random constraint sequences above.
fn op_seq() -> impl Strategy<Value = Vec<(usize, u8, i32)>> {
    proptest::collection::vec((0usize..4, 0u8..5, 0i32..60), 0..10)
}

proptest! {
    /// `constrain` maintains canonical form incrementally, so a full
    /// Floyd–Warshall `canonicalize` must be a no-op on any zone built from
    /// constraints — and `canonicalize` itself must be idempotent.
    #[test]
    fn dbm_constrain_keeps_canonical_and_canonicalize_is_idempotent(ops in op_seq()) {
        let z = zone_from_ops(4, &ops);
        let mut once = z.clone();
        once.canonicalize();
        prop_assert_eq!(&once, &z);
        let mut twice = once.clone();
        twice.canonicalize();
        prop_assert_eq!(&twice, &once);
    }

    /// Zone inclusion is a partial order: reflexive, transitive along chains
    /// of refinements, and antisymmetric on canonical representations.
    #[test]
    fn dbm_includes_is_a_partial_order(
        ops_a in op_seq(), ops_b in op_seq(), ops_c in op_seq(),
    ) {
        let a = zone_from_ops(3, &ops_a);
        prop_assert!(a.includes(&a));
        // Each refinement only adds constraints, so inclusion must chain.
        let b = apply_ops(a.clone(), &ops_b);
        let c = apply_ops(b.clone(), &ops_c);
        prop_assert!(a.includes(&b));
        prop_assert!(b.includes(&c));
        prop_assert!(a.includes(&c));
        // Antisymmetry: mutual inclusion of canonical zones forces equality.
        if a.includes(&b) && b.includes(&a) {
            prop_assert_eq!(&a, &b);
        }
    }

    /// Maximal-constant extrapolation only ever widens a zone, for arbitrary
    /// constraint-built zones (not just upper-bounded boxes).
    #[test]
    fn dbm_extrapolate_only_widens(ops in op_seq(), max_const in 1i64..40) {
        let z = zone_from_ops(3, &ops);
        let max = vec![max_const; 3];
        let mut e = z.clone();
        e.extrapolate(&max);
        prop_assert!(e.includes(&z));
        let mut e2 = e.clone();
        e2.extrapolate(&max);
        prop_assert_eq!(&e2, &e);
    }

    /// Freeing a clock (active-clock reduction) only widens the zone and
    /// leaves it canonical, so it composes safely with inclusion checks.
    #[test]
    fn dbm_free_widens_and_keeps_canonical(ops in op_seq(), c in 1usize..4) {
        let z = zone_from_ops(3, &ops);
        let mut f = z.clone();
        f.free(c);
        prop_assert!(f.includes(&z));
        let mut canon = f.clone();
        canon.canonicalize();
        prop_assert_eq!(&canon, &f);
    }
}

proptest! {
    /// Constrain never grows a zone; up never shrinks it.
    #[test]
    fn dbm_constrain_shrinks_up_grows(
        bounds in proptest::collection::vec((1usize..5, 0i32..100), 1..8)
    ) {
        let mut z = Dbm::zero(4);
        z.up();
        for (c, v) in bounds {
            let before = z.clone();
            let ok = z.constrain_clock(c, Rel::Le, v);
            if ok {
                prop_assert!(before.includes(&z));
                let mut grown = z.clone();
                grown.up();
                prop_assert!(grown.includes(&z));
            } else {
                prop_assert!(z.is_empty());
                break;
            }
        }
    }

    /// Extrapolation only ever grows zones (soundness direction) and is
    /// idempotent.
    #[test]
    fn dbm_extrapolation_grows_and_is_idempotent(
        lows in proptest::collection::vec(0i32..200, 3),
        max_const in 1i64..50,
    ) {
        // Upper bounds alone are always mutually satisfiable, so this zone
        // is nonempty for every generated vector.
        let mut z = Dbm::zero(3);
        z.up();
        for (i, lo) in lows.iter().enumerate() {
            prop_assert!(z.constrain_clock(i + 1, Rel::Le, lo + 10));
        }
        let max = vec![max_const; 3];
        let mut e1 = z.clone();
        e1.extrapolate(&max);
        prop_assert!(e1.includes(&z));
        let mut e2 = e1.clone();
        e2.extrapolate(&max);
        prop_assert_eq!(&e1, &e2);
    }

    /// Reset then read-back: the reset clock is exactly zero and other
    /// clocks keep their ranges.
    #[test]
    fn dbm_reset_is_local(hi in 1i32..100) {
        let mut z = Dbm::zero(2);
        z.up();
        prop_assume!(z.constrain_clock(1, Rel::Eq, hi));
        let (lo2, hi2) = z.clock_range(2);
        z.reset(2);
        prop_assert_eq!(z.clock_range(2), (0, Some(0)));
        prop_assert_eq!(z.clock_range(1), (hi as i64, Some(hi as i64)));
        let _ = (lo2, hi2);
    }
}

// ------------------------------------------------- DBMs: dense reference

/// The dense zone representation the compact [`Dbm`] replaced: one
/// `(clocks + 1)²` matrix over every clock, where freeing a clock writes
/// `INF` into its row and copies column 0 into its column. Kept as the
/// reference the compact zones are checked against.
#[derive(Clone)]
struct DenseDbm {
    dim: usize,
    m: Vec<i32>,
}

fn dense_add(a: i32, b: i32) -> i32 {
    if a == INF || b == INF {
        INF
    } else {
        ((a >> 1) + (b >> 1)) * 2 + (a & b & 1)
    }
}

impl DenseDbm {
    fn zero(clocks: usize) -> Self {
        let dim = clocks + 1;
        DenseDbm {
            dim,
            m: vec![LE_ZERO; dim * dim],
        }
    }

    fn at(&self, i: usize, j: usize) -> i32 {
        self.m[i * self.dim + j]
    }

    fn set(&mut self, i: usize, j: usize, v: i32) {
        self.m[i * self.dim + j] = v;
    }

    fn is_empty(&self) -> bool {
        self.at(0, 0) < LE_ZERO
    }

    fn up(&mut self) {
        for i in 1..self.dim {
            self.set(i, 0, INF);
        }
    }

    fn constrain(&mut self, i: usize, j: usize, bound: i32) -> bool {
        if dense_add(self.at(j, i), bound) < LE_ZERO {
            self.set(0, 0, lt(0));
            return false;
        }
        if bound < self.at(i, j) {
            self.set(i, j, bound);
            for a in 0..self.dim {
                for b in 0..self.dim {
                    let via_ij = dense_add(dense_add(self.at(a, i), bound), self.at(j, b));
                    if via_ij < self.at(a, b) {
                        self.set(a, b, via_ij);
                    }
                }
            }
        }
        true
    }

    fn constrain_clock(&mut self, c: usize, rel: Rel, v: i32) -> bool {
        match rel {
            Rel::Le => self.constrain(c, 0, le(v)),
            Rel::Lt => self.constrain(c, 0, lt(v)),
            Rel::Ge => self.constrain(0, c, le(-v)),
            Rel::Gt => self.constrain(0, c, lt(-v)),
            Rel::Eq => self.constrain(c, 0, le(v)) && self.constrain(0, c, le(-v)),
        }
    }

    fn reset(&mut self, c: usize) {
        for j in 0..self.dim {
            let v = self.at(0, j);
            self.set(c, j, v);
            let v = self.at(j, 0);
            self.set(j, c, v);
        }
        self.set(c, 0, LE_ZERO);
        self.set(0, c, LE_ZERO);
    }

    fn free(&mut self, c: usize) {
        for j in 0..self.dim {
            if j != c {
                self.set(c, j, INF);
                let v = self.at(j, 0);
                self.set(j, c, v);
            }
        }
    }

    fn includes(&self, other: &DenseDbm) -> bool {
        self.m.iter().zip(&other.m).all(|(a, b)| a >= b)
    }

    fn extrapolate(&mut self, max: &[i64]) {
        let mut changed = false;
        for i in 0..self.dim {
            for j in 0..self.dim {
                if i == j {
                    continue;
                }
                let v = self.at(i, j);
                if v == INF {
                    continue;
                }
                if i > 0 && v > le(max[i - 1] as i32) {
                    self.set(i, j, INF);
                    changed = true;
                    continue;
                }
                if j > 0 && v < lt(-(max[j - 1] as i32)) {
                    self.set(i, j, lt(-(max[j - 1] as i32)));
                    changed = true;
                }
            }
        }
        if changed {
            for k in 0..self.dim {
                for i in 0..self.dim {
                    let dik = self.at(i, k);
                    if dik == INF {
                        continue;
                    }
                    for j in 0..self.dim {
                        let v = dense_add(dik, self.at(k, j));
                        if v < self.at(i, j) {
                            self.set(i, j, v);
                        }
                    }
                }
            }
            if (0..self.dim).any(|i| self.at(i, i) < LE_ZERO) {
                self.set(0, 0, lt(0));
            }
        }
    }

    fn clock_range(&self, c: usize) -> (i64, Option<i64>) {
        let lo_b = self.at(0, c);
        let lo = -(lo_b >> 1) as i64 + i64::from(lo_b & 1 == 0);
        let hi = match self.at(c, 0) {
            INF => None,
            b => Some((b >> 1) as i64 - i64::from(b & 1 == 0)),
        };
        (lo, hi)
    }
}

/// A compact zone and its dense reference, driven in lockstep.
///
/// `freed` lists the clocks freed since they were last reset or
/// constrained. A dense freed clock keeps evolving under `up` (its column
/// keeps the pre-delay bounds `x_j - x_c`), which a compact zone, having
/// dropped the clock, cannot represent. The model checker frees every dead
/// clock again right after each delay, so the reference does the same after
/// `up`; every other operation must keep the dense freed rows and columns
/// in free form on its own.
#[derive(Clone)]
struct ZonePair {
    compact: Dbm,
    dense: DenseDbm,
    freed: Vec<usize>,
}

/// One random zone operation: `(kind, clock, relation, value)`.
type ZoneOp = (u8, usize, u8, i32);

fn rel_of(r: u8) -> Rel {
    match r % 5 {
        0 => Rel::Le,
        1 => Rel::Lt,
        2 => Rel::Ge,
        3 => Rel::Gt,
        _ => Rel::Eq,
    }
}

impl ZonePair {
    /// Zero over `clocks` clocks, with the clocks outside `tracked` free.
    fn zero(clocks: usize, tracked: &[usize]) -> Self {
        let mut dense = DenseDbm::zero(clocks);
        let freed: Vec<usize> = (1..=clocks).filter(|c| !tracked.contains(c)).collect();
        for &c in &freed {
            dense.free(c);
        }
        ZonePair {
            compact: Dbm::zero_over(tracked.iter().copied()),
            dense,
            freed,
        }
    }

    /// Apply one operation to both zones; `false` if the zone became empty.
    fn apply(&mut self, (kind, c, rel, v): ZoneOp, max: &[i64]) -> bool {
        let c = 1 + c % (self.dense.dim - 1);
        match kind % 6 {
            0 | 1 => {
                self.freed.retain(|&f| f != c);
                let a = self.compact.constrain_clock(c, rel_of(rel), v);
                let b = self.dense.constrain_clock(c, rel_of(rel), v);
                assert_eq!(a, b, "constrain x{c} verdict");
            }
            2 => {
                self.compact.up();
                self.dense.up();
                for &f in &self.freed {
                    self.dense.free(f);
                }
            }
            3 => {
                self.freed.retain(|&f| f != c);
                self.compact.reset(c);
                self.dense.reset(c);
            }
            4 => {
                if !self.freed.contains(&c) {
                    self.freed.push(c);
                }
                self.compact.free(c);
                self.dense.free(c);
            }
            _ => {
                self.compact.extrapolate(max);
                self.dense.extrapolate(max);
            }
        }
        !self.dense.is_empty()
    }

    /// Every observable of the two zones agrees (an empty zone's entries
    /// are meaningless: only its emptiness is compared).
    fn check_agrees(&self) -> Result<(), TestCaseError> {
        let dim = self.dense.dim;
        prop_assert_eq!(self.compact.is_empty(), self.dense.is_empty());
        if self.dense.is_empty() {
            return Ok(());
        }
        for i in 0..dim {
            for j in 0..dim {
                prop_assert!(
                    self.compact.bound(i, j) == self.dense.at(i, j),
                    "bound({i}, {j}): compact {} vs dense {}\n{:?}",
                    self.compact.bound(i, j),
                    self.dense.at(i, j),
                    self.compact
                );
            }
        }
        for c in 1..dim {
            prop_assert_eq!(self.compact.clock_range(c), self.dense.clock_range(c));
        }
        Ok(())
    }
}

fn zone_op() -> impl Strategy<Value = ZoneOp> {
    (0u8..6, 0usize..8, 0u8..5, 0i32..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The compact zone (tracked clocks only) answers every query exactly as
    /// the dense `(clocks + 1)²` matrix it replaced, after every step of a
    /// random constrain / up / reset / free / extrapolate sequence over 1–8
    /// clocks: all pairwise bounds, emptiness, clock ranges, and inclusion
    /// against a second random zone (its own tracked set) and against a
    /// tightened copy (the same tracked set).
    #[test]
    fn dbm_compact_zones_match_the_dense_reference(
        clocks in 1usize..9,
        tracked_mask in 0u32..256,
        ops in proptest::collection::vec(zone_op(), 0..24),
        other_mask in 0u32..256,
        other_ops in proptest::collection::vec(zone_op(), 0..12),
        max in proptest::collection::vec(0i64..40, 8),
    ) {
        let subset = |mask: u32| -> Vec<usize> {
            (1..=clocks).filter(|c| mask & (1 << (c - 1)) != 0).collect()
        };
        let max = &max[..clocks];
        let mut other = ZonePair::zero(clocks, &subset(other_mask));
        for &op in &other_ops {
            let before = other.clone();
            if !other.apply(op, max) {
                other = before;
            }
        }
        other.check_agrees()?;

        let mut z = ZonePair::zero(clocks, &subset(tracked_mask));
        z.check_agrees()?;
        for &op in &ops {
            let nonempty = z.apply(op, max);
            z.check_agrees()?;
            if !nonempty {
                break;
            }
            prop_assert_eq!(
                z.compact.includes(&other.compact),
                z.dense.includes(&other.dense)
            );
            prop_assert_eq!(
                other.compact.includes(&z.compact),
                other.dense.includes(&z.dense)
            );
            // The compact zone tracks exactly the clocks not freed.
            prop_assert_eq!(z.compact.clocks(), clocks - z.freed.len());
            // A tightened copy over the same tracked clocks.
            if let Some(c) = (1..=clocks).find(|c| !z.freed.contains(c)) {
                let mut t = z.clone();
                if t.apply((0, c - 1, 0, op.3 / 2), max) {
                    prop_assert_eq!(t.compact.includes(&z.compact), t.dense.includes(&z.dense));
                    prop_assert_eq!(z.compact.includes(&t.compact), z.dense.includes(&t.dense));
                }
            }
        }
    }
}

// ---------------------------------------------------------------- sweeps

/// Small jittered fixture shared by the sweep-determinism properties.
fn sweep_fixture(trials: u64, master_seed: u64, threads: usize) -> SweepReport {
    Sweep::over(|| {
        let mut c = Circuit::new();
        let a = c.inp_at(&[115.0], "A");
        let b = c.inp_at(&[64.0], "B");
        let (low, high) = rlse::designs::min_max(&mut c, a, b).unwrap();
        c.inspect(low, "LOW");
        c.inspect(high, "HIGH");
        c
    })
    .variability(|| Variability::Gaussian { std: 0.5 })
    .trials(trials)
    .master_seed(master_seed)
    .threads(threads)
    .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One master seed fully determines a sweep: the report is bit-identical
    /// whether the trials run on one worker or on an arbitrary pool, because
    /// trial i's RNG stream depends only on `trial_seed(master, i)`.
    #[test]
    fn sweep_reports_are_thread_count_invariant(
        master_seed in 0u64..1_000_000,
        threads in 2usize..9,
    ) {
        let serial = sweep_fixture(24, master_seed, 1);
        let pooled = sweep_fixture(24, master_seed, threads);
        prop_assert_eq!(&serial, &pooled);
        prop_assert_eq!(serial.trials, 24);
        // And re-running the same configuration reproduces it exactly.
        prop_assert_eq!(&serial, &sweep_fixture(24, master_seed, threads));
    }

    /// Different master seeds draw genuinely different trial streams: with
    /// continuous Gaussian jitter, the aggregated firing-time means cannot
    /// collide across seeds.
    #[test]
    fn sweep_streams_differ_across_master_seeds(master_seed in 0u64..1_000_000) {
        let a = sweep_fixture(24, master_seed, 1);
        let b = sweep_fixture(24, master_seed.wrapping_add(1), 1);
        prop_assert_ne!(a, b);
        // The per-trial seed derivation itself must also separate streams.
        prop_assert_ne!(
            rlse::core::sweep::trial_seed(master_seed, 0),
            rlse::core::sweep::trial_seed(master_seed.wrapping_add(1), 0)
        );
    }
}

// --------------------------------------------------------------- variability

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// With zero-σ "jitter", variability must be a no-op.
    #[test]
    fn zero_sigma_variability_is_identity(seed in 0u64..1000) {
        let build = || {
            let mut c = Circuit::new();
            let a = c.inp_at(&[115.0], "A");
            let b = c.inp_at(&[64.0], "B");
            let (low, high) = rlse::designs::min_max(&mut c, a, b).unwrap();
            c.inspect(low, "LOW");
            c.inspect(high, "HIGH");
            c
        };
        let base = Simulation::new(build()).run().unwrap();
        let jittered = Simulation::new(build())
            .variability(Variability::Gaussian { std: 0.0 })
            .seed(seed)
            .run()
            .unwrap();
        prop_assert_eq!(base, jittered);
    }
}

// ---------------------------------------------------- adaptive margin search

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On any monotone pass/fail oracle (fail below some threshold k, pass
    /// at and above it — including the all-pass and all-fail extremes), the
    /// adaptive bisection sampler must find *exactly* the boundary the
    /// exhaustive uniform scan finds, while spending at most
    /// `2 + ceil(log2 n)` oracle evaluations.
    #[test]
    fn adaptive_boundary_matches_uniform_on_monotone_oracles(
        n in 0usize..200,
        k in 0usize..220,
    ) {
        use rlse::designs::{find_first_pass, find_first_pass_uniform};
        // Threshold oracle: index i passes iff i >= k. k >= n means the
        // whole row fails; k == 0 means it all passes.
        let mut adaptive_evals = 0usize;
        let adaptive = find_first_pass(n, |i| {
            adaptive_evals += 1;
            i >= k
        });
        let uniform = find_first_pass_uniform(n, |i| i >= k);
        prop_assert_eq!(adaptive, uniform, "n={} k={}", n, k);
        // Bisection budget: two endpoint probes plus the halving steps.
        let budget = 2 + (n.max(1) as f64).log2().ceil() as usize;
        prop_assert!(
            adaptive_evals <= budget,
            "adaptive sampler spent {} evaluations on n={} (budget {})",
            adaptive_evals, n, budget
        );
    }

    /// Consistency on *arbitrary* (not necessarily monotone) oracles: the
    /// boundary the adaptive sampler reports is always a genuinely passing
    /// index whose predecessor genuinely fails (or index 0) — it never
    /// claims a margin beyond a point it has itself seen fail.
    #[test]
    fn adaptive_boundary_never_passes_beyond_a_failure(
        raw in proptest::collection::vec(0u8..2, 0..64),
    ) {
        use rlse::designs::{find_first_pass, Boundary};
        let bits: Vec<bool> = raw.iter().map(|&b| b == 1).collect();
        let n = bits.len();
        match find_first_pass(n, |i| bits[i]) {
            Boundary::At(i) => {
                prop_assert!(i < n);
                prop_assert!(bits[i], "reported boundary {} does not pass", i);
                if i > 0 {
                    prop_assert!(
                        !bits[i - 1],
                        "boundary {} is not a fail->pass edge", i
                    );
                }
            }
            Boundary::AllFail => {
                // All-fail is only claimed when the endpoints both fail
                // (the sampler probes index 0 and index n-1 first).
                if n > 0 {
                    prop_assert!(!bits[0]);
                    prop_assert!(!bits[n - 1]);
                }
            }
        }
    }

    /// The uniform scan is the ground truth the adaptive sampler is judged
    /// against; pin down its own contract: it reports the *first* passing
    /// index, full stop.
    #[test]
    fn uniform_scan_reports_first_pass(
        raw in proptest::collection::vec(0u8..2, 0..64),
    ) {
        use rlse::designs::{find_first_pass_uniform, Boundary};
        let bits: Vec<bool> = raw.iter().map(|&b| b == 1).collect();
        let expect = match bits.iter().position(|&b| b) {
            Some(i) => Boundary::At(i),
            None => Boundary::AllFail,
        };
        prop_assert_eq!(find_first_pass_uniform(bits.len(), |i| bits[i]), expect);
    }
}
