//! Difference bound matrices (DBMs): the canonical zone representation used
//! by timed-automata model checkers such as UPPAAL.
//!
//! A zone over clocks `x_1..x_n` is a conjunction of constraints
//! `x_i - x_j ≺ m` with `≺ ∈ {<, ≤}`, with the reference "clock" `x_0 = 0`.
//! Bounds are encoded in a single `i32`: `2m + 1` for `≤ m`, `2m` for
//! `< m`, and [`INF`] for unbounded — the encoding makes "tighter" coincide
//! with smaller integers and lets bound addition be two shifts and a mask.
//!
//! A [`Dbm`] stores only the clocks it *tracks*: a `(tracked + 1)²` matrix
//! next to the sorted list of tracked clock indices. Every other clock is
//! free (`x_c ≥ 0`, otherwise unconstrained). The model checker frees each
//! clock no automaton can read again (active-clock reduction), so a zone's
//! size follows the handful of live clocks, not the network's clock count.
//! This is the "free a clock by dropping its dimension" reading of
//! Bengtsson & Yi, *Timed Automata: Semantics, Algorithms and Tools*
//! (2004).
//!
//! What the operations cost, with `n` tracked clocks:
//!
//! * cloning, inclusion, `up`, `reset` and `retain` are O(n²) or less, and
//!   inserting a clock grows the matrix in place;
//! * [`Dbm::constrain_clock`] keeps the matrix canonical in O(n²): each row
//!   relaxes once, as a whole slice, through the constrained edge;
//! * [`Dbm::canonicalize`] is Floyd–Warshall over row slices, O(n³) in
//!   vector compares and blends;
//! * [`Dbm::extrapolate`] re-closes in O(n · loosened) at most: only the
//!   entries it loosened can change, and it stops as soon as all of them
//!   are back at their values before extrapolation, which is the usual
//!   outcome (see [`Dbm::extrapolate`]).

use std::fmt;

/// Encoded bound: infinity (no constraint).
pub const INF: i32 = i32::MAX;

/// Largest absolute constraint bound the encoded-`i32` arithmetic supports
/// safely.
///
/// Bounds are stored as `2m + 1` (for `≤ m`) or `2m` (for `< m`), and both
/// [`Dbm::constrain_clock`] and [`Dbm::canonicalize`] sum chains of up to three
/// encoded bounds before comparing. Canonical entries are themselves bounded
/// by the model's constants only *after* extrapolation, so intermediate sums
/// can reach a few multiples of the largest constant. `1 << 26` keeps even a
/// three-term chain of doubled bounds (≈ `3 · 2^27`) a factor of ~16 below
/// `i32::MAX`, so no intermediate can wrap for models whose constants all
/// satisfy `|m| ≤ MAX_BOUND`. Callers that accept `i64` bounds (the model
/// checker, the translator) must reject anything larger up front.
pub const MAX_BOUND: i32 = 1 << 26;

/// Encode `≤ m`.
#[inline]
pub const fn le(m: i32) -> i32 {
    2 * m + 1
}

/// Encode `< m`.
#[inline]
pub const fn lt(m: i32) -> i32 {
    2 * m
}

/// The `≤ 0` bound (used for emptiness and the zero zone).
pub const LE_ZERO: i32 = le(0);

#[inline]
fn add_bounds(a: i32, b: i32) -> i32 {
    if a == INF || b == INF {
        INF
    } else {
        finite_sum(a, b)
    }
}

/// The sum of two finite encoded bounds: `m = m_a + m_b`, strict if either
/// is strict. Equal to `((a >> 1) + (b >> 1)) * 2 + (a & b & 1)`; wrapping,
/// so a caller may compute it before checking that both are finite.
#[inline]
fn finite_sum(a: i32, b: i32) -> i32 {
    a.wrapping_add(b).wrapping_sub((a | b) & 1)
}

/// Relax one matrix row through an edge of finite length `d` into the row
/// `via`: `row[b] = min(row[b], d + via[b])` for every column `b`. The loop
/// stores every entry, so the compiler turns it into vector compares and
/// blends.
#[inline]
fn relax(row: &mut [i32], via: &[i32], d: i32) {
    for (r, &v) in row.iter_mut().zip(via) {
        let sum = finite_sum(d, v);
        *r = if v == INF { *r } else { (*r).min(sum) };
    }
}

/// The rows of a `dim`-column matrix other than row `k`, each mutable, and
/// row `k` itself.
#[inline]
fn rows_around(m: &mut [i32], dim: usize, k: usize) -> (impl Iterator<Item = &mut [i32]>, &[i32]) {
    let (before, rest) = m.split_at_mut(k * dim);
    let (row_k, after) = rest.split_at_mut(dim);
    let rows = before.chunks_exact_mut(dim).chain(after.chunks_exact_mut(dim));
    (rows, row_k)
}

/// A difference bound matrix over the clocks a zone still tracks.
///
/// Clock indices in the public API are full network indices (1-based, with
/// the reference at 0). Internally the matrix has one slot per *tracked*
/// clock: slot 0 is the reference and slot `k + 1` holds `tracked[k]`. A
/// clock that is not tracked is **free** — `x_c ≥ 0` and otherwise
/// unconstrained — and [`Dbm::bound`] reads it as a full matrix would hold
/// it: row `c` is `INF` (`LE_ZERO` on the diagonal) and column `c` equals
/// column 0. Such a row is never an intermediate of a shortest path and
/// such a column only mirrors column 0, so leaving both out changes no
/// other entry; every operation runs over the tracked slots only.
///
/// All public constructors and operators keep the matrix canonical (all
/// pairwise constraints as tight as the represented zone allows), so
/// inclusion and emptiness tests are single passes.
#[derive(PartialEq, Eq, Hash)]
pub struct Dbm {
    /// Tracked clocks (full indices, ascending).
    tracked: Vec<usize>,
    /// Row-major `(tracked + 1)²` matrix over slots; entry `(i, j)` bounds
    /// `x_i - x_j`.
    m: Vec<i32>,
}

/// `clone_from` reuses the target's buffers, so a zone built again and
/// again in one scratch `Dbm` allocates only when it outgrows them.
impl Clone for Dbm {
    fn clone(&self) -> Self {
        Dbm {
            tracked: self.tracked.clone(),
            m: self.m.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.tracked.clone_from(&source.tracked);
        self.m.clone_from(&source.m);
    }
}

impl Dbm {
    /// The zone where every clock `1..=clocks` equals 0.
    pub fn zero(clocks: usize) -> Self {
        Self::zero_over(1..=clocks)
    }

    /// The zone where every listed clock equals 0 and every other clock is
    /// free.
    pub fn zero_over(clocks: impl IntoIterator<Item = usize>) -> Self {
        let mut tracked: Vec<usize> = clocks.into_iter().collect();
        tracked.sort_unstable();
        tracked.dedup();
        debug_assert!(tracked.first() != Some(&0), "clock 0 is the reference");
        let dim = tracked.len() + 1;
        Dbm {
            tracked,
            m: vec![LE_ZERO; dim * dim],
        }
    }

    /// Number of clocks the zone tracks (the matrix dimension minus the
    /// reference).
    pub fn clocks(&self) -> usize {
        self.tracked.len()
    }

    /// The tracked clocks (full indices, ascending).
    pub fn tracked(&self) -> &[usize] {
        &self.tracked
    }

    #[inline]
    fn dim(&self) -> usize {
        self.tracked.len() + 1
    }

    /// The matrix slot of clock `c`, if tracked (the reference is slot 0).
    #[inline]
    fn slot(&self, c: usize) -> Option<usize> {
        if c == 0 {
            return Some(0);
        }
        self.tracked.binary_search(&c).ok().map(|k| k + 1)
    }

    /// The slot of real clock `c`, inserting it as a free clock if
    /// untracked. The matrix grows in place: it is resized, then rebuilt
    /// from its last entry to its first, which never overwrites an entry
    /// before reading it, because no entry's new index is below its old one.
    fn slot_or_insert(&mut self, c: usize) -> usize {
        debug_assert!(c >= 1);
        let k = match self.tracked.binary_search(&c) {
            Ok(k) => return k + 1,
            Err(k) => k,
        };
        let (old, s) = (self.dim(), k + 1);
        let dim = old + 1;
        self.m.resize(dim * dim, INF);
        let m = &mut self.m;
        for i in (0..dim).rev() {
            let oi = i - usize::from(i > s);
            for j in (0..dim).rev() {
                m[i * dim + j] = match (i == s, j == s) {
                    (true, true) => LE_ZERO,
                    (true, false) => INF,
                    // Column s mirrors column 0: x_i - x_c ≤ x_i - 0.
                    (false, true) => m[oi * old],
                    (false, false) => m[oi * old + j - usize::from(j > s)],
                };
            }
        }
        self.tracked.insert(k, c);
        s
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> i32 {
        self.m[i * self.dim() + j]
    }

    #[inline]
    fn set(&mut self, i: usize, j: usize, v: i32) {
        let dim = self.dim();
        self.m[i * dim + j] = v;
    }

    /// The encoded bound on `x_i - x_j` (indices include the reference 0).
    pub fn bound(&self, i: usize, j: usize) -> i32 {
        match (self.slot(i), self.slot(j)) {
            (Some(a), Some(b)) => self.at(a, b),
            (Some(a), None) => self.at(a, 0),
            (None, _) if i == j => LE_ZERO,
            (None, _) => INF,
        }
    }

    /// True if the zone contains no valuation.
    pub fn is_empty(&self) -> bool {
        self.at(0, 0) < LE_ZERO
    }

    /// Let time elapse: remove all upper bounds (the classic `up` operator).
    pub fn up(&mut self) {
        for i in 1..self.dim() {
            self.set(i, 0, INF);
        }
    }

    /// Intersect with `x_i - x_j ≺ bound` (encoded; `i`, `j` are slots).
    /// Returns `false` (and leaves the zone empty) if the result is empty.
    /// Maintains canonicity incrementally in O(tracked²): every row `a`
    /// relaxes through the new edge into row `j` (paths `a → i → j → b`).
    /// The new edge closes no negative cycle, so row `j` and column `i`
    /// keep their values and the rows can be relaxed in any order.
    fn constrain(&mut self, i: usize, j: usize, bound: i32) -> bool {
        if add_bounds(self.at(j, i), bound) < LE_ZERO {
            self.set(0, 0, lt(0)); // mark empty
            return false;
        }
        if bound < self.at(i, j) {
            self.set(i, j, bound);
            let dim = self.dim();
            let (rows, row_j) = rows_around(&mut self.m, dim, j);
            for row in rows {
                let d = add_bounds(row[i], bound);
                if d != INF {
                    relax(row, row_j, d);
                }
            }
        }
        true
    }

    /// Intersect with `x_c ≤ v` / `< v` / `≥ v` / `> v` / `== v` using the
    /// [`Rel`] relation. `c` is a real clock index (1-based).
    pub fn constrain_clock(&mut self, c: usize, rel: Rel, v: i32) -> bool {
        debug_assert!(c >= 1);
        let c = self.slot_or_insert(c);
        match rel {
            Rel::Le => self.constrain(c, 0, le(v)),
            Rel::Lt => self.constrain(c, 0, lt(v)),
            Rel::Ge => self.constrain(0, c, le(-v)),
            Rel::Gt => self.constrain(0, c, lt(-v)),
            Rel::Eq => self.constrain(c, 0, le(v)) && self.constrain(0, c, le(-v)),
        }
    }

    /// Reset clock `c` to 0 (tracking it if it was free).
    pub fn reset(&mut self, c: usize) {
        debug_assert!(c >= 1);
        let c = self.slot_or_insert(c);
        for j in 0..self.dim() {
            let v = self.at(0, j);
            self.set(c, j, v);
            let v = self.at(j, 0);
            self.set(j, c, v);
        }
        self.set(c, 0, LE_ZERO);
        self.set(0, c, LE_ZERO);
    }

    /// Forget everything about clock `c` except `c ≥ 0` (UPPAAL's *free*
    /// operation): the zone becomes the cylinder over the other clocks, and
    /// `c`'s row and column are dropped from the matrix.
    ///
    /// Used for active-clock reduction — when no automaton can read `c`
    /// again before resetting it, its value is dead and freeing it merges
    /// states that differ only in `c`. Preserves canonical form: every
    /// remaining entry was already the tightest bound on its pair of clocks.
    pub fn free(&mut self, c: usize) {
        debug_assert!(c >= 1);
        self.retain(|x| x != c);
    }

    /// Free every tracked clock `c` for which `keep(c)` is false, in one
    /// compaction pass over the matrix. `keep` must answer the same for a
    /// clock each time it is asked.
    pub fn retain(&mut self, keep: impl Fn(usize) -> bool) {
        // Asked once per clock: a freed clock is marked 0, never a real one.
        let mut freed = false;
        for c in &mut self.tracked {
            if !keep(*c) {
                *c = 0;
                freed = true;
            }
        }
        if !freed {
            return;
        }
        let old = self.dim();
        // Slot 0 (the reference) always stays.
        let kept = |s: usize| s == 0 || self.tracked[s - 1] != 0;
        let mut w = 0;
        let mut m = std::mem::take(&mut self.m);
        for i in (0..old).filter(|&i| kept(i)) {
            for j in (0..old).filter(|&j| kept(j)) {
                m[w] = m[i * old + j];
                w += 1;
            }
        }
        m.truncate(w);
        self.m = m;
        self.tracked.retain(|&c| c != 0);
    }

    /// True if `self` includes `other` (every valuation of `other` is in
    /// `self`). Both must be canonical. Zones tracking the same clocks
    /// compare entrywise; otherwise `self`'s entries are compared with
    /// `other`'s bounds on the same clocks. A clock only `other` tracks
    /// cannot break inclusion: `self` leaves it free, and a canonical
    /// `other` bounds `x_i - x_c` no looser than `x_i - 0`.
    pub fn includes(&self, other: &Dbm) -> bool {
        if self.tracked == other.tracked {
            return self.m.iter().zip(&other.m).all(|(a, b)| a >= b);
        }
        let clock = |s: usize| if s == 0 { 0 } else { self.tracked[s - 1] };
        let dim = self.dim();
        (0..dim).all(|i| (0..dim).all(|j| self.at(i, j) >= other.bound(clock(i), clock(j))))
    }

    /// Classic maximal-constant extrapolation: bounds above `max[c]` become
    /// infinite and lower bounds below `-max[c]` are clamped, preserving
    /// reachability for diagonal-free automata. `max[c]` is indexed by real
    /// clock (0-based, full index); re-canonicalizes afterwards. A free
    /// clock has no bound to widen.
    ///
    /// Extrapolation only loosens entries of a canonical matrix, and an
    /// entry it leaves alone is still no looser than any path, so only the
    /// loosened entries can change when the matrix is closed again: the
    /// re-closure updates them alone, in O(tracked · loosened) at most (see
    /// `close_loosened`).
    pub fn extrapolate(&mut self, max: &[i64]) {
        self.extrapolate_with(max, &mut Vec::new());
    }

    /// [`Dbm::extrapolate`], keeping the loosened entries in `loosened` as
    /// (row start, column, value before) triples: scratch space a caller
    /// reuses across calls so that extrapolation allocates nothing.
    pub fn extrapolate_with(&mut self, max: &[i64], loosened: &mut Vec<(u32, u32, i32)>) {
        debug_assert!(self.tracked.last().is_none_or(|&c| c <= max.len()));
        // The maximal constant of the clock in slot s ≥ 1.
        let k = |s: usize| max[self.tracked[s - 1] - 1] as i32;
        let dim = self.dim();
        let mut m = std::mem::take(&mut self.m);
        loosened.clear();
        for i in 0..dim {
            for j in 0..dim {
                let v = m[i * dim + j];
                if i == j || v == INF {
                    continue;
                }
                // Upper bound on x_i (against anything): beyond k_i → INF.
                if i > 0 && v > le(k(i)) {
                    m[i * dim + j] = INF;
                    loosened.push(((i * dim) as u32, j as u32, v));
                    continue;
                }
                // Lower bound on x_j: below -k_j → clamp to < -k_j.
                if j > 0 && v < lt(-k(j)) {
                    m[i * dim + j] = lt(-k(j));
                    loosened.push(((i * dim) as u32, j as u32, v));
                }
            }
        }
        self.m = m;
        self.close_loosened(loosened);
    }

    /// Close a matrix that was canonical before the entries `loosened`,
    /// given as (row start, column, value before), were loosened.
    ///
    /// Floyd–Warshall's pivot loop, updating only the loosened entries:
    /// every other entry already equals its shortest path, so each loosened
    /// entry still ends no looser than the full closure leaves it, and no
    /// tighter, since every value it takes is the length of a path. For the
    /// same reason no entry drops below its value before extrapolation, and
    /// once all are back at it the matrix is the canonical one it was: the
    /// remaining pivots are skipped. That is the common case: an
    /// extrapolated clock tied by an exact difference to a clock still
    /// below its constant gets its bounds back through that clock, most
    /// often by the third pivot. (In race_tree's Query 2, 129 of 140
    /// extrapolations change nothing once closed, and 90 of those are
    /// restored within three pivots.)
    fn close_loosened(&mut self, loosened: &[(u32, u32, i32)]) {
        let dim = self.dim();
        let mut open = loosened.len();
        for k in 0..dim {
            if open == 0 {
                return;
            }
            let m = &mut self.m;
            for &(a, b, was) in loosened {
                let (a, b) = (a as usize, b as usize);
                let v = add_bounds(m[a + k], m[k * dim + b]);
                if v < m[a + b] {
                    m[a + b] = v;
                    open -= usize::from(v == was);
                }
            }
        }
    }

    /// Full Floyd–Warshall canonicalization (O(tracked³)), one row slice
    /// at a time. The pivot row is left out of its own round: relaxing it
    /// through itself changes nothing unless its diagonal is already
    /// negative, and then the zone is empty either way.
    pub fn canonicalize(&mut self) {
        let dim = self.dim();
        for k in 0..dim {
            let (rows, row_k) = rows_around(&mut self.m, dim, k);
            for row in rows {
                let d = row[k];
                if d != INF {
                    relax(row, row_k, d);
                }
            }
        }
        if (0..dim).any(|i| self.at(i, i) < LE_ZERO) {
            self.set(0, 0, lt(0));
        }
    }

    /// The inclusive integer range of possible values for clock `c`, as
    /// `(min, max)` with `max == None` meaning unbounded. Bounds are the
    /// tightest *integers* consistent with the zone: strict bounds are
    /// narrowed to the nearest integer inside the zone.
    pub fn clock_range(&self, c: usize) -> (i64, Option<i64>) {
        let lo_b = self.bound(0, c); // 0 - x_c ≺ m  ⇒  x_c ≻ -m
        let mut lo = -(lo_b >> 1) as i64;
        if lo_b & 1 == 0 {
            lo += 1; // strict lower bound
        }
        let hi = match self.bound(c, 0) {
            INF => None,
            b => {
                let mut h = (b >> 1) as i64;
                if b & 1 == 0 {
                    h -= 1; // strict upper bound
                }
                Some(h)
            }
        };
        (lo, hi)
    }
}

/// Relations usable in clock constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rel {
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `≥`
    Ge,
    /// `>`
    Gt,
    /// `==`
    Eq,
}

impl fmt::Debug for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Dbm(tracked={:?})", self.tracked)?;
        for i in 0..self.dim() {
            for j in 0..self.dim() {
                let v = self.at(i, j);
                if v == INF {
                    write!(f, "   INF ")?;
                } else {
                    write!(f, "{:>4}{} ", v >> 1, if v & 1 == 1 { "≤" } else { "<" })?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Textbook scalar kernels over the same tracked-clock layout, the
    /// reference for the row-sliced ones: a fresh matrix per inserted clock, an
    /// entry-by-entry closure per constraint, and a full scalar
    /// Floyd–Warshall after any extrapolation that changes an entry.
    #[derive(Clone, Debug)]
    struct Reference {
        tracked: Vec<usize>,
        m: Vec<i32>,
    }

    impl Reference {
        fn of(z: &Dbm) -> Self {
            Reference {
                tracked: z.tracked.clone(),
                m: z.m.clone(),
            }
        }

        fn dim(&self) -> usize {
            self.tracked.len() + 1
        }

        fn at(&self, i: usize, j: usize) -> i32 {
            self.m[i * self.dim() + j]
        }

        fn set(&mut self, i: usize, j: usize, v: i32) {
            let dim = self.dim();
            self.m[i * dim + j] = v;
        }

        fn is_empty(&self) -> bool {
            self.at(0, 0) < LE_ZERO
        }

        fn slot_or_insert(&mut self, c: usize) -> usize {
            let k = match self.tracked.binary_search(&c) {
                Ok(k) => return k + 1,
                Err(k) => k,
            };
            let (old, s) = (self.dim(), k + 1);
            let dim = old + 1;
            let mut m = Vec::with_capacity(dim * dim);
            for i in 0..dim {
                let oi = i - usize::from(i > s);
                for j in 0..dim {
                    m.push(match (i == s, j == s) {
                        (true, true) => LE_ZERO,
                        (true, false) => INF,
                        (false, true) => self.m[oi * old],
                        (false, false) => self.m[oi * old + j - usize::from(j > s)],
                    });
                }
            }
            self.tracked.insert(k, c);
            self.m = m;
            s
        }

        fn constrain(&mut self, i: usize, j: usize, bound: i32) -> bool {
            if add_bounds(self.at(j, i), bound) < LE_ZERO {
                self.set(0, 0, lt(0));
                return false;
            }
            if bound < self.at(i, j) {
                self.set(i, j, bound);
                for a in 0..self.dim() {
                    for b in 0..self.dim() {
                        let via = add_bounds(add_bounds(self.at(a, i), bound), self.at(j, b));
                        if via < self.at(a, b) {
                            self.set(a, b, via);
                        }
                    }
                }
            }
            true
        }

        fn constrain_clock(&mut self, c: usize, rel: Rel, v: i32) -> bool {
            let c = self.slot_or_insert(c);
            match rel {
                Rel::Le => self.constrain(c, 0, le(v)),
                Rel::Lt => self.constrain(c, 0, lt(v)),
                Rel::Ge => self.constrain(0, c, le(-v)),
                Rel::Gt => self.constrain(0, c, lt(-v)),
                Rel::Eq => self.constrain(c, 0, le(v)) && self.constrain(0, c, le(-v)),
            }
        }

        fn reset(&mut self, c: usize) {
            let c = self.slot_or_insert(c);
            for j in 0..self.dim() {
                let v = self.at(0, j);
                self.set(c, j, v);
                let v = self.at(j, 0);
                self.set(j, c, v);
            }
            self.set(c, 0, LE_ZERO);
            self.set(0, c, LE_ZERO);
        }

        fn up(&mut self) {
            for i in 1..self.dim() {
                self.set(i, 0, INF);
            }
        }

        fn retain(&mut self, keep: impl Fn(usize) -> bool) {
            let kept: Vec<usize> = (0..self.dim())
                .filter(|&s| s == 0 || keep(self.tracked[s - 1]))
                .collect();
            let m = kept
                .iter()
                .flat_map(|&i| kept.iter().map(move |&j| (i, j)))
                .map(|(i, j)| self.at(i, j))
                .collect();
            self.tracked.retain(|&c| keep(c));
            self.m = m;
        }

        fn extrapolate(&mut self, max: &[i64]) {
            let k = |t: &[usize], s: usize| max[t[s - 1] - 1] as i32;
            let mut changed = false;
            for i in 0..self.dim() {
                for j in 0..self.dim() {
                    let v = self.at(i, j);
                    if i == j || v == INF {
                        continue;
                    }
                    if i > 0 && v > le(k(&self.tracked, i)) {
                        self.set(i, j, INF);
                        changed = true;
                        continue;
                    }
                    if j > 0 && v < lt(-k(&self.tracked, j)) {
                        self.set(i, j, lt(-k(&self.tracked, j)));
                        changed = true;
                    }
                }
            }
            if changed {
                self.canonicalize();
            }
        }

        fn canonicalize(&mut self) {
            let dim = self.dim();
            for k in 0..dim {
                for i in 0..dim {
                    let dik = self.at(i, k);
                    if dik == INF {
                        continue;
                    }
                    for j in 0..dim {
                        let v = add_bounds(dik, self.at(k, j));
                        if v < self.at(i, j) {
                            self.set(i, j, v);
                        }
                    }
                }
            }
            if (0..dim).any(|i| self.at(i, i) < LE_ZERO) {
                self.set(0, 0, lt(0));
            }
        }
    }

    fn rel_of(r: u8) -> Rel {
        [Rel::Le, Rel::Lt, Rel::Ge, Rel::Gt, Rel::Eq][r as usize % 5]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The row-sliced closure, the in-place matrix growth and the
        /// loosened-entries re-closure after extrapolation leave every
        /// zone entry for entry where the textbook kernels leave it, after
        /// every step of a random constrain / reset / up / retain /
        /// extrapolate / close-from-scratch sequence over 1–70 clocks.
        /// Once a zone goes empty, only emptiness is compared (an empty
        /// zone's entries mean nothing), and both kernels must call it
        /// empty at the same step.
        #[test]
        fn kernels_match_the_textbook_reference(
            clocks in 1usize..71,
            all in 0u8..3,
            mask in 0u64..u64::MAX,
            max in proptest::collection::vec(0i64..15, 70),
            ops in proptest::collection::vec((0u8..8, 0usize..70, 0u8..5, 0i32..60, 0u64..u64::MAX), 1..60),
        ) {
            let on = |mask: u64, c: usize| (mask >> (c % 64)) & 1 == 1;
            // A third of the zones start over every clock, the rest over a
            // random subset.
            let mut z = Dbm::zero_over((1..=clocks).filter(|&c| all == 0 || on(mask, c)));
            let mut r = Reference::of(&z);
            let mut loosened = Vec::new();
            for (step, &(kind, c, rel, v, keep)) in ops.iter().enumerate() {
                let c = 1 + c % clocks;
                match kind {
                    0 | 1 => {
                        // A value inside the clock's current range keeps
                        // most zones non-empty; `< lo` and `> hi` empty them.
                        let (lo, hi) = z.clock_range(c);
                        let span = hi.map_or(60, |hi| hi - lo + 1);
                        let v = (lo + i64::from(v) % span) as i32;
                        let got = z.constrain_clock(c, rel_of(rel), v);
                        let want = r.constrain_clock(c, rel_of(rel), v);
                        prop_assert_eq!(got, want, "step {}: constrain x{}", step, c);
                    }
                    2 => {
                        z.reset(c);
                        r.reset(c);
                    }
                    3 => {
                        z.up();
                        r.up();
                    }
                    4 => {
                        z.retain(|c| on(keep, c));
                        r.retain(|c| on(keep, c));
                    }
                    5 | 6 => {
                        z.extrapolate_with(&max, &mut loosened);
                        r.extrapolate(&max);
                    }
                    _ => {
                        // Overwrite about one entry in ten off the diagonal
                        // and close the matrix from scratch: Floyd–Warshall
                        // on arbitrary input, negative cycles included.
                        let dim = r.dim();
                        for e in 0..dim * dim {
                            if e % (dim + 1) != 0 && on(keep, e) && e % 5 == c % 5 {
                                let b = le((v + e as i32) % 60 - 15);
                                z.m[e] = b;
                                r.m[e] = b;
                            }
                        }
                        z.canonicalize();
                        r.canonicalize();
                    }
                }
                prop_assert_eq!(z.is_empty(), r.is_empty(), "step {}: emptiness", step);
                if r.is_empty() {
                    break;
                }
                prop_assert_eq!(&z.tracked, &r.tracked, "step {}: tracked clocks", step);
                prop_assert!(z.m == r.m, "step {}: matrix\n{:?}\nwant {:?}", step, z, r.m);
            }
        }
    }

    #[test]
    fn bound_encoding_orders_strictness() {
        assert!(lt(5) < le(5));
        assert!(le(4) < lt(5));
        assert_eq!(add_bounds(le(3), le(4)), le(7));
        assert_eq!(add_bounds(le(3), lt(4)), lt(7));
        assert_eq!(add_bounds(lt(-3), le(2)), lt(-1));
        assert_eq!(add_bounds(INF, le(1)), INF);
    }

    #[test]
    fn zero_zone_pins_all_clocks() {
        let z = Dbm::zero(2);
        assert!(!z.is_empty());
        assert_eq!(z.clock_range(1), (0, Some(0)));
        assert_eq!(z.clock_range(2), (0, Some(0)));
    }

    #[test]
    fn up_releases_upper_bounds_but_keeps_differences() {
        let mut z = Dbm::zero(2);
        z.up();
        assert_eq!(z.clock_range(1), (0, None));
        // x1 - x2 still == 0.
        assert_eq!(z.bound(1, 2), LE_ZERO);
        assert_eq!(z.bound(2, 1), LE_ZERO);
    }

    #[test]
    fn constrain_then_range() {
        let mut z = Dbm::zero(1);
        z.up();
        assert!(z.constrain_clock(1, Rel::Ge, 3));
        assert!(z.constrain_clock(1, Rel::Le, 7));
        assert_eq!(z.clock_range(1), (3, Some(7)));
        assert!(z.constrain_clock(1, Rel::Eq, 5));
        assert_eq!(z.clock_range(1), (5, Some(5)));
        assert!(!z.constrain_clock(1, Rel::Gt, 5));
        assert!(z.is_empty());
    }

    #[test]
    fn reset_after_delay() {
        let mut z = Dbm::zero(2);
        z.up();
        assert!(z.constrain_clock(1, Rel::Eq, 10)); // x1 == 10, so x2 == 10
        z.reset(2);
        assert_eq!(z.clock_range(2), (0, Some(0)));
        assert_eq!(z.clock_range(1), (10, Some(10)));
        // x1 - x2 == 10 now.
        assert_eq!(z.bound(1, 2), le(10));
        z.up();
        assert!(z.constrain_clock(2, Rel::Eq, 5));
        assert_eq!(z.clock_range(1), (15, Some(15)));
    }

    #[test]
    fn inclusion_is_a_partial_order() {
        let mut a = Dbm::zero(1);
        a.up();
        let mut b = a.clone();
        assert!(b.constrain_clock(1, Rel::Le, 5));
        assert!(a.includes(&b));
        assert!(!b.includes(&a));
        assert!(a.includes(&a));
    }

    #[test]
    fn extrapolation_widens_beyond_max_constant() {
        let mut z = Dbm::zero(1);
        z.up();
        assert!(z.constrain_clock(1, Rel::Ge, 100));
        assert!(z.constrain_clock(1, Rel::Le, 120));
        let mut w = z.clone();
        w.extrapolate(&[10]);
        // Beyond the max constant 10, the zone loses its bounds.
        assert_eq!(w.clock_range(1), (11, None));
        assert!(w.includes(&z));
    }

    #[test]
    fn extrapolated_zones_reach_fixpoint() {
        // Simulate a loop that resets x2 while x1 grows: with extrapolation
        // at k=5 the zones stop changing.
        let max = [5i64, 5];
        let mut seen: Vec<Dbm> = Vec::new();
        let mut z = Dbm::zero(2);
        loop {
            let mut next = z.clone();
            next.up();
            assert!(next.constrain_clock(2, Rel::Eq, 3));
            next.reset(2);
            next.extrapolate(&max);
            if seen.iter().any(|s| s.includes(&next)) {
                break;
            }
            seen.push(next.clone());
            z = next;
            assert!(seen.len() < 20, "no fixpoint reached");
        }
        assert!(seen.len() <= 4, "fixpoint after a few iterations");
    }

    #[test]
    fn free_forgets_one_clock_and_stays_canonical() {
        let mut z = Dbm::zero(2);
        z.up();
        assert!(z.constrain_clock(1, Rel::Eq, 10)); // pins x2 == 10 too
        z.free(2);
        // x2 is unconstrained (≥ 0); x1 keeps its pin.
        assert_eq!(z.clock_range(2), (0, None));
        assert_eq!(z.clock_range(1), (10, Some(10)));
        // Canonical: a full re-canonicalization changes nothing.
        let mut w = z.clone();
        w.canonicalize();
        assert_eq!(w, z);
        // Freeing only widens.
        let mut pinned = Dbm::zero(2);
        pinned.up();
        assert!(pinned.constrain_clock(1, Rel::Eq, 10));
        assert!(z.includes(&pinned));
    }

    #[test]
    fn urgency_via_le_zero_invariant() {
        // A location with invariant c ≤ 0 entered with c just reset admits
        // no delay: after up ∧ inv, the clock is still pinned at 0.
        let mut z = Dbm::zero(2);
        z.up();
        assert!(z.constrain_clock(1, Rel::Eq, 7));
        z.reset(2);
        z.up();
        assert!(z.constrain_clock(2, Rel::Le, 0));
        assert_eq!(z.clock_range(2), (0, Some(0)));
        assert_eq!(z.clock_range(1), (7, Some(7)));
    }
}
