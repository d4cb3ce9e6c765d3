//! A zone-based model checker for networks of timed automata — the
//! role UPPAAL's `verifyta` plays in the paper's §5.3.
//!
//! The checker explores the zone graph: states are pairs of a location
//! vector and a canonical DBM, successors follow internal (`τ`) edges and
//! binary channel synchronizations, zones are widened with maximal-constant
//! extrapolation, and visited states are subsumed by zone inclusion. Two
//! query forms are supported, mirroring the paper:
//!
//! * **Query 1 (correctness)** — `A[] fta_end ⇒ global ∈ {t₁, …, tₖ}`:
//!   whenever a firing automaton driving a circuit output is at its
//!   `fta_end` location, the global clock equals one of the expected output
//!   instants.
//! * **Query 2 (unreachable error states)** — `A[] ¬(err₁ ∨ … ∨ errₙ)`:
//!   no transition-time or past-constraint error location is reachable.
//!
//! # Engine
//!
//! Exploration is a **breadth-first search** over the zone graph, one level
//! at a time, in two phases per level:
//!
//! * **Expand** — every frontier state, in frontier order, emits its
//!   successor candidates. Successor generation uses per-`(automaton,
//!   location)` edge indices (`τ` edges, sends, receives) plus a
//!   per-channel receiver table, so a send only visits automata that can
//!   actually receive on its channel.
//! * **Insert** — the candidates enter the passed/waiting store in
//!   candidate order. The store interns each location vector once and keeps
//!   a bucket of zones per vector. A candidate subsumed by a stored zone is
//!   dropped; an accepted candidate gets its arena id at once, and evicts
//!   every stored zone it subsumes. If an evicted zone was accepted
//!   *earlier in the same level* (the level stamp on the bucket slot says
//!   so), its entry is killed: it is counted and kept for traces but never
//!   expanded. The surviving accepts, in accept order, form the next
//!   frontier; if the level accepted a violation, the first one ends the
//!   search instead.
//!
//! Candidate order is a pure function of the frontier, so the verdict,
//! every [`McStats`] counter and the counterexample (the first violation at
//! the minimum BFS depth) are deterministic.
//!
//! The arena kept for counterexample reconstruction stores only the interned
//! location id, parent pointer, action, and the global-clock range — zones
//! live once, reference-counted, shared between store and frontier.
//!
//! # Zones over live clocks
//!
//! Active-clock reduction (Daws–Yovine) frees every clock no automaton can
//! read again before resetting it, and a freed clock leaves the zone: a
//! [`Dbm`] holds only the clocks it tracks (see [`crate::dbm`]). The
//! initial zone is built over the clocks live at the initial locations plus
//! the global clock, and each close step drops the clocks that died with
//! one `retain` pass. A zone's size therefore follows the live clocks
//! (`McStats::max_zone_clocks`), not the network's clock count, and since
//! the live set is a function of the location vector, all zones in a bucket
//! track the same clocks.
//!
//! # Budgets
//!
//! `max_states` is checked at level boundaries (a deterministic point; one
//! level of overshoot is possible). `max_seconds` is wall-clock and
//! inherently approximate: the elapsed time is polled before each frontier
//! state is expanded. Both exhaustions yield `holds = None` with a
//! diagnostic naming the budget, the level and the zones live — nothing
//! timed, so a `max_states` answer is deterministic.

use crate::automaton::{ClockId, Edge, LocId, Sync as EdgeSync, TaNetwork};
use crate::dbm::{Dbm, MAX_BOUND};
use crate::translate::Translation;
use rlse_core::telemetry::Telemetry;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// One expected-output specification for Query 1.
#[derive(Debug, Clone)]
pub struct OutputSpec {
    /// Circuit-output wire name (for diagnostics).
    pub wire: String,
    /// The `fta_end` locations (automaton index, location) feeding the wire.
    pub ends: Vec<(usize, LocId)>,
    /// Allowed firing instants, in scaled model time units.
    pub allowed: Vec<i64>,
}

/// A query over the network.
#[derive(Debug, Clone)]
pub enum McQuery {
    /// Query 2: none of these locations is reachable.
    NoErrorState(Vec<(usize, LocId)>),
    /// Query 1: outputs fire only at the listed instants.
    OutputsOnlyAt(Vec<OutputSpec>),
}

impl McQuery {
    /// Build Query 1 from a translation plus the expected pulse times (in
    /// picoseconds) per circuit-output wire.
    pub fn query1(tr: &Translation, expected: &[(&str, Vec<f64>)]) -> Self {
        let scale = tr.net.scale;
        let specs = tr
            .output_ends
            .iter()
            .map(|(wire, ends)| {
                let allowed = expected
                    .iter()
                    .find(|(n, _)| n == wire)
                    .map(|(_, ts)| {
                        ts.iter()
                            .map(|t| (t * scale as f64).round() as i64)
                            .collect()
                    })
                    .unwrap_or_default();
                OutputSpec {
                    wire: wire.clone(),
                    ends: ends.clone(),
                    allowed,
                }
            })
            .collect();
        McQuery::OutputsOnlyAt(specs)
    }

    /// Build Query 2 from a translation.
    pub fn query2(tr: &Translation) -> Self {
        McQuery::NoErrorState(tr.error_locations.clone())
    }

    /// Build a query from its netlist-IR encoding: [`IrQuery::NoErrorState`]
    /// maps to Query 2 and [`IrQuery::OutputsOnlyAt`] to Query 1 with the
    /// listed expected pulse times.
    pub fn from_ir(tr: &Translation, q: &rlse_core::ir::IrQuery) -> Self {
        match q {
            rlse_core::ir::IrQuery::NoErrorState => McQuery::query2(tr),
            rlse_core::ir::IrQuery::OutputsOnlyAt { outputs } => {
                let expected: Vec<(&str, Vec<f64>)> = outputs
                    .iter()
                    .map(|(n, ts)| (n.as_str(), ts.clone()))
                    .collect();
                McQuery::query1(tr, &expected)
            }
        }
    }
}

/// Structured exploration statistics of one model-checking run. Every field
/// is a pure function of `(net, query, opts.max_states)`, so these are the
/// numbers flushed into a [`Telemetry`] handle (all but `max_zone_clocks`)
/// and pinned by the golden tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McStats {
    /// Number of distinct (location vector, zone) states accepted into the
    /// store, including states later evicted by a subsuming zone.
    pub states: usize,
    /// Peak number of zones simultaneously live in the passed/waiting store
    /// (sampled at level boundaries) — the checker's memory high-water mark
    /// in states.
    pub peak_store: usize,
    /// BFS levels explored (the zone graph's maximal BFS depth reached).
    pub levels: u32,
    /// Successor candidates generated by the expand phase.
    pub candidates: u64,
    /// Candidates dropped because a stored zone already included them.
    pub subsumed: u64,
    /// Stored zones evicted by a larger accepted candidate.
    pub evicted: u64,
    /// Same-level accepted entries killed before expansion (the eviction
    /// caught them between accept and the next frontier).
    pub killed: u64,
    /// The most clocks any stored zone tracks, the global clock included:
    /// the largest zone matrix is `(max_zone_clocks + 1)²`. Kept out of
    /// telemetry, so served responses do not depend on it.
    pub max_zone_clocks: usize,
}

/// The outcome of a model-checking run.
#[derive(Debug, Clone)]
pub struct McResult {
    /// `Some(true)` if the property holds, `Some(false)` with a diagnostic
    /// if it fails, `None` if a state/time budget was exhausted first (the
    /// paper's `∞` rows) or the model was refused (see [`McResult::diagnostic`]).
    pub holds: Option<bool>,
    /// Wall-clock verification time in seconds.
    pub time_secs: f64,
    /// Human-readable description of the first violation found, if any.
    pub violation: Option<String>,
    /// For a failed property: the action sequence from the initial state to
    /// the violating state (UPPAAL-style counterexample trace).
    pub trace: Option<Vec<String>>,
    /// Qualifies unusual verdicts: a vacuous pass (empty initial zone), a
    /// refused model (unencodable bounds), or which budget was exhausted.
    /// `None` for an ordinary verdict.
    pub diagnostic: Option<String>,
    /// Structured exploration statistics (states, peak store, subsumption
    /// counters).
    pub stats: McStats,
}

impl McResult {
    /// States accepted into the store (shorthand for `stats.states`).
    pub fn states(&self) -> usize {
        self.stats.states
    }

    /// Peak live-zone store size (shorthand for `stats.peak_store`).
    pub fn peak_store(&self) -> usize {
        self.stats.peak_store
    }
}

/// Configuration for [`check`].
#[derive(Debug, Clone, Copy)]
pub struct McOptions {
    /// Abort (result `holds = None`) after exploring this many states.
    pub max_states: usize,
    /// Abort (result `holds = None`) after this much wall-clock time in
    /// seconds — large networks can exhaust memory long before the state
    /// budget (the paper reports such designs as `∞`).
    pub max_seconds: f64,
    /// Ignored; exploration is sequential. Kept only so existing struct
    /// literals that set it still build.
    pub threads: usize,
}

impl Default for McOptions {
    fn default() -> Self {
        McOptions {
            max_states: 2_000_000,
            max_seconds: 600.0,
            threads: 0,
        }
    }
}

/// How a state was reached, for counterexample reconstruction.
#[derive(Debug, Clone, Copy)]
enum Action {
    Init,
    Tau { automaton: u32 },
    Sync { sender: u32, receiver: u32, chan: u32 },
}

/// A stored zone, stamped with the level and the arena id that produced it
/// so same-level eviction can kill the not-yet-expanded entry.
struct BucketZone {
    zone: Arc<Dbm>,
    level: u32,
    state: u32,
}

/// A multiply-rotate hash of a location vector, two locations per step in
/// four independent lanes. Each step is a bijection of its lane, so two
/// vectors that differ in one location never collide.
fn hash_locs(locs: &[u32]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |h: u64, x: u64| (h ^ x).wrapping_mul(K).rotate_left(23);
    let mut lanes = [1u64, 2, 3, 4];
    let mut chunks = locs.chunks_exact(8);
    for c in &mut chunks {
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane = step(*lane, u64::from(c[2 * j]) | u64::from(c[2 * j + 1]) << 32);
        }
    }
    let h = lanes.iter().fold(0, |h, &l| step(h, l));
    chunks.remainder().iter().fold(h, |h, &x| step(h, u64::from(x)))
}

/// Interned location vectors, in one flat array. The table maps each
/// vector's [`hash_locs`] to the first id with that hash, and ids with equal
/// hashes are chained, so a lookup hashes a vector once and growing the
/// table rehashes only the `u64` keys. A bitonic_8 vector is 2.3 KB, where
/// rehashing whole vectors took a fifth of the insert phase.
struct Intern {
    first: HashMap<u64, u32>,
    /// Per id: the next id with the same hash, or `u32::MAX`.
    next: Vec<u32>,
    /// Vector `id` is `vecs[id * width..(id + 1) * width]`.
    vecs: Vec<u32>,
    width: usize,
}

impl Intern {
    /// The id of `locs`, and whether it was interned just now.
    fn intern(&mut self, locs: &[u32]) -> (u32, bool) {
        let id = self.next.len() as u32;
        match self.first.entry(hash_locs(locs)) {
            Entry::Vacant(v) => {
                v.insert(id);
            }
            Entry::Occupied(o) => {
                let mut at = *o.get();
                loop {
                    if self.locs(at) == locs {
                        return (at, false);
                    }
                    match self.next[at as usize] {
                        u32::MAX => break self.next[at as usize] = id,
                        n => at = n,
                    }
                }
            }
        }
        self.next.push(u32::MAX);
        self.vecs.extend_from_slice(locs);
        (id, true)
    }

    /// The location vector interned as `id`.
    fn locs(&self, id: u32) -> &[u32] {
        let at = id as usize * self.width;
        &self.vecs[at..at + self.width]
    }
}

/// The passed/waiting store: interned location vectors plus their zone
/// buckets.
struct Store {
    intern: Intern,
    /// Per interned id: its zones.
    buckets: Vec<Vec<BucketZone>>,
    /// Zones currently stored across all buckets.
    live: usize,
}

impl Store {
    fn new(width: usize) -> Self {
        Store {
            intern: Intern {
                first: HashMap::new(),
                next: Vec::new(),
                vecs: Vec::new(),
                width,
            },
            buckets: Vec::new(),
            live: 0,
        }
    }

    /// The interned id of `locs`, interned with an empty bucket on first
    /// sight.
    fn intern(&mut self, locs: &[u32]) -> u32 {
        let (id, new) = self.intern.intern(locs);
        if new {
            self.buckets.push(Vec::new());
        }
        id
    }

    /// The location vector interned as `id`.
    fn locs(&self, id: u32) -> &[u32] {
        self.intern.locs(id)
    }
}

/// Compact per-state record for counterexample reconstruction: no zone, just
/// the interned location id, the parent pointer, and the global-clock range
/// captured at accept time (`ghi == i64::MIN` means unbounded or absent).
struct ArenaEntry {
    locs: u32,
    parent: u32,
    action: Action,
    glo: i64,
    ghi: i64,
}

/// A frontier state awaiting expansion; `locs` is its interned location
/// vector.
struct Frontier {
    state: u32,
    locs: u32,
    zone: Arc<Dbm>,
}

/// A successor candidate produced by the expand phase.
struct Cand {
    zone: Dbm,
    parent: u32,
    action: Action,
}

/// The expand phase's output and working space, reused level after level,
/// so a successor allocates only the zone it keeps.
struct Successors {
    cands: Vec<Cand>,
    /// Candidate `k`'s location vector is `locs[k * width..(k + 1) * width]`.
    locs: Vec<u32>,
    /// The successor zone under construction.
    zone: Dbm,
    /// The automata with an edge to take at the state being expanded.
    movers: Vec<u32>,
    /// The query's maximal clock constants.
    max: Vec<i64>,
    /// Extrapolation's loosened-entry list.
    loosened: Vec<(u32, u32, i32)>,
}

/// Rows of items in one flat array: row `r` is
/// `items[start[r]..start[r + 1]]`.
#[derive(Debug)]
struct Csr<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T> Csr<T> {
    /// `rows` rows from `(row, item)` pairs; a row keeps its items in
    /// their order among the pairs.
    fn new(rows: usize, mut pairs: Vec<(usize, T)>) -> Self {
        pairs.sort_by_key(|p| p.0); // stable
        let start = (0..=rows)
            .map(|r| pairs.partition_point(|p| p.0 < r) as u32)
            .collect();
        Csr {
            start,
            items: pairs.into_iter().map(|p| p.1).collect(),
        }
    }

    fn row(&self, r: usize) -> &[T] {
        &self.items[self.start[r] as usize..self.start[r + 1] as usize]
    }
}

/// The checker's tables for one network: edge indices and clock activity
/// per location, all in flat arrays indexed by a *flat location*
/// (`loc0[automaton] + location`). Built once and shared by every query run
/// over the network.
#[derive(Debug)]
pub struct Checker<'n> {
    net: &'n TaNetwork,
    /// The network's maximal clock constants, before a query raises the
    /// global clock's.
    max_consts: Vec<i64>,
    /// The flat index of each automaton's location 0.
    loc0: Vec<usize>,
    /// Per flat location: [`COMMITTED`], [`HAS_TAU`] and [`HAS_SEND`].
    flags: Vec<u8>,
    /// Per flat location: indices of the τ edges leaving it.
    tau: Csr<u32>,
    /// Per flat location: `(channel, edge index)` of the sends leaving it.
    send: Csr<(u32, u32)>,
    /// Per flat location: `(channel, edge index)` of the receives leaving it.
    recv: Csr<(u32, u32)>,
    /// Per channel: the automata with at least one receive on it.
    recv_aut: Csr<u32>,
    /// Words per clock bitset.
    words: usize,
    /// Flat location `l`'s bitset `active[l * words..(l + 1) * words]`: the
    /// clocks its automaton may read (guard or invariant) before resetting
    /// them, starting from `l`.
    active: Vec<u64>,
    /// Per clock (0-based): the automata whose activity holds it at some
    /// location, the only ones that can keep it live.
    readers: Csr<u32>,
    /// The global clock (0-based), exempt from freeing: queries read it.
    global: Option<usize>,
}

/// [`Checker::flags`] bit: the location is committed.
const COMMITTED: u8 = 1;
/// [`Checker::flags`] bit: a τ edge leaves the location.
const HAS_TAU: u8 = 2;
/// [`Checker::flags`] bit: a send leaves the location.
const HAS_SEND: u8 = 4;

/// Clock activity (Daws–Yovine) of every location, as flat bitsets of
/// `words` words: clock `c` is active at `l` when some path from `l` reads
/// `c` (in an invariant or guard) before its automaton resets it. The least
/// fixpoint of "a location reads what it reads itself, plus what each
/// successor reads less the edge's resets", one edge pass per round.
fn clock_activity(net: &TaNetwork, loc0: &[usize], locations: usize, words: usize) -> Vec<u64> {
    let mut act = vec![0u64; locations * words];
    let mut set = |l: usize, c: usize| act[l * words + c / 64] |= 1u64 << (c % 64);
    for (a, &base) in net.automata.iter().zip(loc0) {
        for (li, l) in a.locations.iter().enumerate() {
            l.invariant.iter().for_each(|c| set(base + li, c.clock.0));
        }
        for e in &a.edges {
            e.guard.iter().for_each(|c| set(base + e.src.0, c.clock.0));
        }
    }
    loop {
        let mut changed = false;
        for (a, &base) in net.automata.iter().zip(loc0) {
            for e in &a.edges {
                let (src, dst) = ((base + e.src.0) * words, (base + e.dst.0) * words);
                for w in 0..words {
                    let mut inherited = act[dst + w];
                    for r in e.resets.iter().filter(|r| r.0 / 64 == w) {
                        inherited &= !(1u64 << (r.0 % 64));
                    }
                    if inherited & !act[src + w] != 0 {
                        act[src + w] |= inherited;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return act;
        }
    }
}

/// True if 0-based clock `c` is in the bitset.
fn has_clock(set: &[u64], c: usize) -> bool {
    set[c / 64] & (1u64 << (c % 64)) != 0
}

fn apply_guard(z: &mut Dbm, guard: &[crate::automaton::Constraint]) -> bool {
    for c in guard {
        if !z.constrain_clock(c.clock.0 + 1, c.rel, c.bound as i32) {
            return false;
        }
    }
    true
}

impl<'n> Checker<'n> {
    /// Build the tables for `net`.
    pub fn new(net: &'n TaNetwork) -> Self {
        let mut loc0 = Vec::with_capacity(net.automata.len());
        let mut locations = 0;
        for a in &net.automata {
            loc0.push(locations);
            locations += a.locations.len();
        }
        let (mut tau, mut send, mut recv, mut recv_aut) = (vec![], vec![], vec![], vec![]);
        for (ai, (a, &base)) in net.automata.iter().zip(&loc0).enumerate() {
            for (ei, e) in a.edges.iter().enumerate() {
                let (src, ei) = (base + e.src.0, ei as u32);
                match e.sync {
                    EdgeSync::Tau => tau.push((src, ei)),
                    EdgeSync::Send(ch) => send.push((src, (ch.0 as u32, ei))),
                    EdgeSync::Recv(ch) => {
                        recv.push((src, (ch.0 as u32, ei)));
                        recv_aut.push((ch.0, ai as u32));
                    }
                }
            }
        }
        // One entry per receiving automaton, in automaton order.
        recv_aut.sort_unstable();
        recv_aut.dedup();
        let (tau, send) = (Csr::new(locations, tau), Csr::new(locations, send));
        let flags = net
            .automata
            .iter()
            .flat_map(|a| a.locations.iter().map(|l| l.committed))
            .enumerate()
            .map(|(l, committed)| {
                let bit = |on: bool, bit: u8| if on { bit } else { 0 };
                bit(committed, COMMITTED)
                    | bit(!tau.row(l).is_empty(), HAS_TAU)
                    | bit(!send.row(l).is_empty(), HAS_SEND)
            })
            .collect();
        let words = net.clock_names.len().div_ceil(64);
        let active = clock_activity(net, &loc0, locations, words);
        let mut readers = Vec::new();
        for (ai, (a, &base)) in net.automata.iter().zip(&loc0).enumerate() {
            for l in base..base + a.locations.len() {
                for (w, &word) in active[l * words..(l + 1) * words].iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        readers.push((w * 64 + bits.trailing_zeros() as usize, ai as u32));
                        bits &= bits - 1;
                    }
                }
            }
        }
        readers.sort_unstable();
        readers.dedup();
        Checker {
            net,
            max_consts: net.max_constants(),
            active,
            flags,
            tau,
            send,
            recv: Csr::new(locations, recv),
            recv_aut: Csr::new(net.chan_names.len(), recv_aut),
            readers: Csr::new(net.clock_names.len(), readers),
            loc0,
            words,
            global: net.global_clock.map(|g| g.0),
        }
    }

    /// The flat location of automaton `ai` in `locs`.
    fn flat(&self, locs: &[u32], ai: usize) -> usize {
        self.loc0[ai] + locs[ai] as usize
    }

    /// Whether 0-based clock `c` is live at `locs`: the global clock always
    /// (the queries read it), any other when an automaton that reads it
    /// may read it from its location in `locs` before resetting it.
    fn is_live(&self, locs: &[u32], c: usize) -> bool {
        self.global == Some(c)
            || self.readers.row(c).iter().any(|&a| {
                let at = self.flat(locs, a as usize) * self.words;
                has_clock(&self.active[at..at + self.words], c)
            })
    }

    /// Apply the invariants of `locs`. Every invariant constrains a clock
    /// live at its location, and a closed zone tracks exactly the live
    /// clocks, so they are found through the tracked clocks' readers rather
    /// than a scan over every automaton. The order they are applied in
    /// changes nothing: the result is the intersection, in canonical form.
    fn apply_invariants(&self, locs: &[u32], z: &mut Dbm) -> bool {
        debug_assert!(
            self.net.automata.iter().zip(locs).all(|(a, &l)| {
                let inv = &a.locations[l as usize].invariant;
                inv.iter().all(|c| z.tracked().binary_search(&(c.clock.0 + 1)).is_ok())
            }),
            "an invariant reads an untracked clock"
        );
        for k in 0..z.clocks() {
            let c = z.tracked()[k] - 1;
            for &a in self.readers.row(c) {
                let a = a as usize;
                let inv = &self.net.automata[a].locations[locs[a] as usize].invariant;
                for con in inv.iter().filter(|con| con.clock.0 == c) {
                    if !z.constrain_clock(c + 1, con.rel, con.bound as i32) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Finalize a successor zone whose guards hold, at its locations
    /// `locs`: active-clock reduction, the resets, invariants, delay
    /// closure, invariants again, extrapolation. False if it ends empty.
    ///
    /// Active-clock reduction frees every clock (except the global one) no
    /// automaton can read again before resetting it. Dead clock values
    /// cannot influence any future transition or query, so freeing them is
    /// exact for location reachability and global-clock ranges — it merges
    /// states that differ only in dead dimensions (fewer states, smaller
    /// store) and drops their rows and columns from the zone. The dead
    /// clocks go first: no reset, invariant or delay after the guards reads
    /// them, and a zone keeps every untracked clock free, so freeing them
    /// first gives the same zone while every later step runs over the live
    /// clocks only. A reset of a dead clock is skipped for the same reason.
    fn close<'e>(
        &self,
        locs: &[u32],
        resets: impl Iterator<Item = &'e ClockId>,
        z: &mut Dbm,
        max: &[i64],
        loosened: &mut Vec<(u32, u32, i32)>,
    ) -> bool {
        z.retain(|c| self.is_live(locs, c - 1));
        for r in resets.filter(|r| self.is_live(locs, r.0)) {
            z.reset(r.0 + 1);
        }
        if !self.apply_invariants(locs, z) {
            return false;
        }
        z.up();
        if !self.apply_invariants(locs, z) {
            return false;
        }
        z.extrapolate_with(max, loosened);
        !z.is_empty()
    }

    /// Emit the successor of `(locs, zone)` through `moves` — one τ edge,
    /// or a send and its receive, each with its automaton — if its guards
    /// hold and its zone is not empty. The zone is built in the reused
    /// scratch zone and cloned only once it is known to be kept.
    fn successor(
        &self,
        locs: &[u32],
        zone: &Dbm,
        moves: &[(usize, &Edge)],
        parent: u32,
        action: Action,
        out: &mut Successors,
    ) {
        let z = &mut out.zone;
        z.clone_from(zone);
        if !moves.iter().all(|(_, e)| apply_guard(z, &e.guard)) {
            return;
        }
        let at = out.locs.len();
        out.locs.extend_from_slice(locs);
        for &(ai, e) in moves {
            out.locs[at + ai] = e.dst.0 as u32;
        }
        let resets = moves.iter().flat_map(|(_, e)| &e.resets);
        let nl = &out.locs[at..];
        if self.close(nl, resets, z, &out.max, &mut out.loosened) {
            out.cands.push(Cand {
                zone: z.clone(),
                parent,
                action,
            });
        } else {
            out.locs.truncate(at);
        }
    }

    /// Emit every successor of `(locs, zone)` into `out`, in a fixed order
    /// (τ edges by automaton then edge index, syncs by sender/receiver/edge
    /// index) so the global candidate order is deterministic.
    ///
    /// Committed semantics (UPPAAL): while any automaton sits in a committed
    /// location, only transitions involving a committed automaton may fire —
    /// this removes the useless interleavings through zero-duration fire
    /// chains that otherwise blow up the state space.
    fn expand_state(&self, locs: &[u32], zone: &Dbm, parent: u32, out: &mut Successors) {
        // One pass over the automata finds whether any sits in a committed
        // location and which have a τ edge or a send to take.
        let mut movers = std::mem::take(&mut out.movers);
        movers.clear();
        let mut any_committed = false;
        for ai in 0..locs.len() {
            let f = self.flags[self.flat(locs, ai)];
            any_committed |= f & COMMITTED != 0;
            if f & (HAS_TAU | HAS_SEND) != 0 {
                movers.push(ai as u32);
            }
        }
        let committed_at = |ai: usize| self.flags[self.flat(locs, ai)] & COMMITTED != 0;
        // Internal (τ) edges.
        for &ai in &movers {
            let ai = ai as usize;
            if any_committed && !committed_at(ai) {
                continue;
            }
            for &ei in self.tau.row(self.flat(locs, ai)) {
                let e = &self.net.automata[ai].edges[ei as usize];
                let action = Action::Tau {
                    automaton: ai as u32,
                };
                self.successor(locs, zone, &[(ai, e)], parent, action, out);
            }
        }
        // Channel synchronizations: each send pairs with every receiver that
        // currently has a matching receive edge.
        for &ai in &movers {
            let ai = ai as usize;
            for &(ch, ei) in self.send.row(self.flat(locs, ai)) {
                let e1 = &self.net.automata[ai].edges[ei as usize];
                for &bi in self.recv_aut.row(ch as usize) {
                    let bi = bi as usize;
                    if bi == ai {
                        continue;
                    }
                    if any_committed && !committed_at(ai) && !committed_at(bi) {
                        continue;
                    }
                    for &(ch2, e2i) in self.recv.row(self.flat(locs, bi)) {
                        if ch2 != ch {
                            continue;
                        }
                        let e2 = &self.net.automata[bi].edges[e2i as usize];
                        let action = Action::Sync {
                            sender: ai as u32,
                            receiver: bi as u32,
                            chan: ch,
                        };
                        self.successor(locs, zone, &[(ai, e1), (bi, e2)], parent, action, out);
                    }
                }
            }
        }
        out.movers = movers;
    }

    /// Model-check `query` over the network by breadth-first zone-graph
    /// exploration (see the module docs), flushing into `tel` as
    /// [`check_with_telemetry`] does.
    pub fn check(&self, query: &McQuery, opts: McOptions, tel: Option<&Telemetry>) -> McResult {
        let tel = tel.filter(|t| t.is_enabled());
        let t0 = tel.and_then(Telemetry::now);
        let r = self.check_inner(query, opts, tel);
        if let Some(t) = tel {
            t.add_many(&[
                ("mc.runs", 1),
                ("mc.states", r.stats.states as u64),
                ("mc.levels", u64::from(r.stats.levels)),
                ("mc.candidates", r.stats.candidates),
                ("mc.subsumed", r.stats.subsumed),
                ("mc.evicted", r.stats.evicted),
                ("mc.killed", r.stats.killed),
            ]);
            if r.holds == Some(false) {
                t.add("mc.violations", 1);
            }
            t.peak("mc.peak_store", r.stats.peak_store as u64);
            if let Some(started) = t0 {
                t.record_span("mc.check", 0, started, r.stats.states as u64);
            }
        }
        r
    }
}

/// The global-clock range of a zone as `(lo, hi)` with `i64::MIN` standing
/// in for "unbounded" (`hi`) or "no global clock" (`lo`).
fn grange(g_idx: Option<usize>, z: &Dbm) -> (i64, i64) {
    match g_idx {
        None => (i64::MIN, i64::MIN),
        Some(g) => {
            let (lo, hi) = z.clock_range(g);
            (lo, hi.unwrap_or(i64::MIN))
        }
    }
}

/// Reconstruct the action trace leading to arena entry `idx`.
fn trace_to(net: &TaNetwork, store: &Store, arena: &[ArenaEntry], idx: u32) -> Vec<String> {
    let mut steps = Vec::new();
    let mut cur = idx;
    loop {
        let e = &arena[cur as usize];
        let locs = store.locs(e.locs);
        let when = if e.glo == i64::MIN {
            String::new()
        } else if e.ghi == e.glo {
            format!(" @ global={}", e.glo)
        } else {
            format!(" @ global>={}", e.glo)
        };
        let name = |ai: u32| {
            let ai = ai as usize;
            format!(
                "{}.{}",
                net.automata[ai].name,
                net.automata[ai].locations[locs[ai] as usize].name
            )
        };
        match e.action {
            Action::Init => steps.push("initial state".to_string()),
            Action::Tau { automaton } => steps.push(format!("tau -> {}{when}", name(automaton))),
            Action::Sync { sender, receiver, chan } => steps.push(format!(
                "{}! : {} -> {}{when}",
                net.chan_names[chan as usize],
                name(sender),
                name(receiver)
            )),
        }
        if e.parent == u32::MAX {
            break;
        }
        cur = e.parent;
    }
    steps.reverse();
    steps
}

/// Model-check `query` over `net` by breadth-first zone-graph exploration
/// (see the module docs for the engine's phase structure).
pub fn check(net: &TaNetwork, query: &McQuery, opts: McOptions) -> McResult {
    check_with_telemetry(net, query, opts, None)
}

/// Like [`check`], additionally flushing into a [`Telemetry`] handle: the
/// deterministic `mc.*` counters and the store peak from [`McStats`], plus
/// per-level `mc.expand`/`mc.insert` spans and one `mc.check` span for the
/// whole run on timeline track 0. To run several queries over one network,
/// build its [`Checker`] once instead.
pub fn check_with_telemetry(
    net: &TaNetwork,
    query: &McQuery,
    opts: McOptions,
    tel: Option<&Telemetry>,
) -> McResult {
    Checker::new(net).check(query, opts, tel)
}

impl Checker<'_> {
    fn check_inner(&self, query: &McQuery, opts: McOptions, tel: Option<&Telemetry>) -> McResult {
        let net = self.net;
        let start = Instant::now();

        // Refuse models whose constants cannot be encoded, instead of silently
        // wrapping `bound as i32` into a wrong verdict.
        if let Some((ai, c)) = net.find_unencodable_bound(MAX_BOUND as i64) {
            return McResult {
                holds: None,
                time_secs: start.elapsed().as_secs_f64(),
                violation: None,
                trace: None,
                diagnostic: Some(format!(
                    "clock bound '{c}' in automaton '{}' exceeds the encodable range ±{MAX_BOUND}; \
                     rescale the model (no verdict)",
                    net.automata[ai].name
                )),
                stats: McStats::default(),
            };
        }
        // Make sure the global clock stays concrete up to the latest expected
        // output instant, so Query 1 can pin exact times.
        let extra = match query {
            McQuery::OutputsOnlyAt(specs) => specs
                .iter()
                .flat_map(|s| s.allowed.iter().copied())
                .max()
                .unwrap_or(0),
            McQuery::NoErrorState(_) => 0,
        };
        if extra.abs() > MAX_BOUND as i64 {
            return McResult {
                holds: None,
                time_secs: start.elapsed().as_secs_f64(),
                violation: None,
                trace: None,
                diagnostic: Some(format!(
                    "expected output instant {extra} exceeds the encodable range ±{MAX_BOUND}; \
                     rescale the model (no verdict)"
                )),
                stats: McStats::default(),
            };
        }

        let mut max = self.max_consts.clone();
        if let Some(g) = self.global {
            max[g] = max[g].max(extra);
        }
        let mut succ = Successors {
            cands: Vec::new(),
            locs: Vec::new(),
            zone: Dbm::zero(0),
            movers: Vec::new(),
            max,
            loosened: Vec::new(),
        };
        let g_idx = net.global_clock.map(|g| g.0 + 1);

        let violation = |locs: &[u32], z: &Dbm| -> Option<String> {
            match query {
                McQuery::NoErrorState(errs) => {
                    for &(ai, li) in errs {
                        if locs[ai] as usize == li.0 {
                            return Some(format!(
                                "error state {}.{} is reachable",
                                net.automata[ai].name, net.automata[ai].locations[li.0].name
                            ));
                        }
                    }
                    None
                }
                McQuery::OutputsOnlyAt(specs) => {
                    let g = g_idx?;
                    for spec in specs {
                        for &(ai, li) in &spec.ends {
                            if locs[ai] as usize != li.0 {
                                continue;
                            }
                            let (lo, hi) = z.clock_range(g);
                            let pinned = hi == Some(lo);
                            if !pinned || !spec.allowed.contains(&lo) {
                                return Some(format!(
                                    "output '{}' fires at global time {}{} not in {:?}",
                                    spec.wire,
                                    lo,
                                    if pinned { "" } else { "+" },
                                    spec.allowed
                                ));
                            }
                        }
                    }
                    None
                }
            }
        };

        // Initial state. An empty initial zone means the initial invariants are
        // unsatisfiable: every safety property holds vacuously — say so instead
        // of reporting a clean pass.
        let init_locs: Vec<u32> = net.automata.iter().map(|a| a.init.0 as u32).collect();
        // The initial zone tracks only the clocks live at the initial locations,
        // so no stored zone ever holds a row for a dead clock.
        let live = (1..=net.clock_count()).filter(|&c| self.is_live(&init_locs, c - 1));
        let mut z0 = Dbm::zero_over(live);
        let no_resets = std::iter::empty();
        if !self.close(&init_locs, no_resets, &mut z0, &succ.max, &mut succ.loosened) {
            return McResult {
                holds: Some(true),
                time_secs: start.elapsed().as_secs_f64(),
                violation: None,
                trace: None,
                diagnostic: Some(
                    "vacuous: the initial zone is empty (conflicting invariants at the initial \
                     locations); every safety property holds trivially"
                        .to_string(),
                ),
                stats: McStats::default(),
            };
        }
        let z0 = Arc::new(z0);

        let mut store = Store::new(init_locs.len());
        let mut arena: Vec<ArenaEntry> = Vec::new();
        let mut stats = McStats {
            peak_store: 1,
            max_zone_clocks: z0.clocks(),
            ..McStats::default()
        };

        let init = store.intern(&init_locs);
        store.buckets[init as usize].push(BucketZone {
            zone: z0.clone(),
            level: 0,
            state: 0,
        });
        store.live = 1;
        let (glo, ghi) = grange(g_idx, &z0);
        arena.push(ArenaEntry {
            locs: init,
            parent: u32::MAX,
            action: Action::Init,
            glo,
            ghi,
        });
        if let Some(v) = violation(&init_locs, &z0) {
            stats.states = 1;
            return McResult {
                holds: Some(false),
                time_secs: start.elapsed().as_secs_f64(),
                violation: Some(v),
                trace: Some(trace_to(net, &store, &arena, 0)),
                diagnostic: None,
                stats,
            };
        }

        let mut frontier = vec![Frontier {
            state: 0,
            locs: init,
            zone: z0,
        }];
        let mut next: Vec<Option<Frontier>> = Vec::new();
        let mut level: u32 = 0;
        // Both budgets answer alike; the answer holds nothing timed.
        let exhausted = |budget: String, level: u32, live: usize, stats: McStats| McResult {
            holds: None,
            time_secs: start.elapsed().as_secs_f64(),
            violation: None,
            trace: None,
            diagnostic: Some(format!(
                "{budget} exhausted at level {level}: {live} zones live"
            )),
            stats,
        };

        while !frontier.is_empty() {
            level += 1;
            stats.states = arena.len();
            stats.levels = level;
            if arena.len() >= opts.max_states {
                let budget = format!("state budget ({})", opts.max_states);
                return exhausted(budget, level, store.live, stats);
            }

            // Expand the frontier in order: the candidate order is a pure
            // function of the frontier.
            let t_expand = tel.and_then(|t| t.now());
            for fe in &frontier {
                if start.elapsed().as_secs_f64() > opts.max_seconds {
                    let budget = format!("time budget ({}s)", opts.max_seconds);
                    return exhausted(budget, level, store.live, stats);
                }
                self.expand_state(store.locs(fe.locs), &fe.zone, fe.state, &mut succ);
            }
            if let (Some(t), Some(t0)) = (tel, t_expand) {
                t.record_span("mc.expand", 0, t0, frontier.len() as u64);
            }
            stats.candidates += succ.cands.len() as u64;

            // Insert in candidate order. Accepts get arena ids as they are made;
            // `next[id - first]` is the entry of arena id `id` until a later
            // candidate of this level evicts (kills) it.
            let t_insert = tel.and_then(|t| t.now());
            let first = arena.len() as u32;
            let mut found: Option<(u32, String)> = None;
            let width = store.intern.width;
            for (cand, cand_locs) in succ.cands.drain(..).zip(succ.locs.chunks_exact(width)) {
                let locs = store.intern(cand_locs);
                let bucket = &mut store.buckets[locs as usize];
                if bucket.iter().any(|b| b.zone.includes(&cand.zone)) {
                    stats.subsumed += 1;
                    continue;
                }
                let before = bucket.len();
                bucket.retain(|b| {
                    let evicted = cand.zone.includes(&b.zone);
                    if evicted && b.level == level {
                        // Accepted earlier this level but not yet expanded:
                        // kill it so it never reaches the next frontier.
                        next[(b.state - first) as usize] = None;
                        stats.killed += 1;
                    }
                    !evicted
                });
                let evicted = before - bucket.len();
                let id = arena.len() as u32;
                let zone = Arc::new(cand.zone);
                bucket.push(BucketZone {
                    zone: zone.clone(),
                    level,
                    state: id,
                });
                stats.evicted += evicted as u64;
                store.live = store.live - evicted + 1;
                let (glo, ghi) = grange(g_idx, &zone);
                stats.max_zone_clocks = stats.max_zone_clocks.max(zone.clocks());
                arena.push(ArenaEntry {
                    locs,
                    parent: cand.parent,
                    action: cand.action,
                    glo,
                    ghi,
                });
                if found.is_none() {
                    found = violation(cand_locs, &zone).map(|v| (id, v));
                }
                next.push(Some(Frontier {
                    state: id,
                    locs,
                    zone,
                }));
            }
            succ.locs.clear();
            stats.peak_store = stats.peak_store.max(store.live);
            if let (Some(t), Some(t0)) = (tel, t_insert) {
                t.record_span("mc.insert", 0, t0, arena.len() as u64);
            }

            if let Some((id, v)) = found {
                stats.states = arena.len();
                return McResult {
                    holds: Some(false),
                    time_secs: start.elapsed().as_secs_f64(),
                    violation: Some(v),
                    trace: Some(trace_to(net, &store, &arena, id)),
                    diagnostic: None,
                    stats,
                };
            }
            frontier.clear();
            frontier.extend(next.drain(..).flatten());
        }

        stats.states = arena.len();
        McResult {
            holds: Some(true),
            time_secs: start.elapsed().as_secs_f64(),
            violation: None,
            trace: None,
            diagnostic: None,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{Automaton, ClockId, Constraint, Edge, LocKind, Location};
    use crate::dbm::Rel;
    use crate::translate::translate_machine;
    use rlse_cells::defs;

    #[test]
    fn jtl_query1_holds_for_correct_times() {
        let tr = translate_machine(&defs::jtl_elem(), &[("a", vec![10.0, 20.0])], 10).unwrap();
        // Output q fires at 15.7 and 25.7.
        let q1 = McQuery::query1(&tr, &[("q", vec![15.7, 25.7])]);
        let r = check(&tr.net, &q1, McOptions::default());
        assert_eq!(r.holds, Some(true), "{:?}", r.violation);
        assert!(r.states() > 0);
        assert!(r.peak_store() > 0 && r.peak_store() <= r.states());
    }

    #[test]
    fn jtl_query1_fails_for_wrong_times() {
        let tr = translate_machine(&defs::jtl_elem(), &[("a", vec![10.0])], 10).unwrap();
        let q1 = McQuery::query1(&tr, &[("q", vec![16.0])]);
        let r = check(&tr.net, &q1, McOptions::default());
        assert_eq!(r.holds, Some(false));
        assert!(r.violation.unwrap().contains("157"));
    }

    #[test]
    fn and_query2_holds_for_safe_inputs() {
        let tr = translate_machine(
            &defs::and_elem(),
            &[("a", vec![20.0]), ("b", vec![30.0]), ("clk", vec![50.0])],
            10,
        )
        .unwrap();
        let q2 = McQuery::query2(&tr);
        let r = check(&tr.net, &q2, McOptions::default());
        assert_eq!(r.holds, Some(true), "{:?}", r.violation);
        assert!(r.diagnostic.is_none());
    }

    #[test]
    fn and_query2_detects_setup_violation() {
        // b at 49, clk at 50: violates the 2.8 setup distance.
        let tr = translate_machine(
            &defs::and_elem(),
            &[("a", vec![20.0]), ("b", vec![49.0]), ("clk", vec![50.0])],
            10,
        )
        .unwrap();
        let q2 = McQuery::query2(&tr);
        let r = check(&tr.net, &q2, McOptions::default());
        assert_eq!(r.holds, Some(false));
        assert!(r.violation.unwrap().contains("err_b_s"));
    }

    #[test]
    fn and_query1_matches_simulation() {
        let tr = translate_machine(
            &defs::and_elem(),
            &[("a", vec![20.0]), ("b", vec![30.0]), ("clk", vec![50.0])],
            10,
        )
        .unwrap();
        let q1 = McQuery::query1(&tr, &[("q", vec![59.2])]);
        let r = check(&tr.net, &q1, McOptions::default());
        assert_eq!(r.holds, Some(true), "{:?}", r.violation);
    }

    #[test]
    fn violations_come_with_counterexample_traces() {
        // b at 49, clk at 50 violates setup; the trace must walk from the
        // initial state through the b and clk stimulus synchronizations to
        // the error location.
        let tr = translate_machine(
            &defs::and_elem(),
            &[("a", vec![20.0]), ("b", vec![49.0]), ("clk", vec![50.0])],
            10,
        )
        .unwrap();
        let r = check(&tr.net, &McQuery::query2(&tr), McOptions::default());
        assert_eq!(r.holds, Some(false));
        let trace = r.trace.expect("counterexample trace");
        assert_eq!(trace.first().map(String::as_str), Some("initial state"));
        let text = trace.join("\n");
        assert!(text.contains("err_b_s"), "{text}");
        assert!(text.contains("global>=500"), "{text}");
        // Every step after the first is an action.
        assert!(trace.len() >= 3, "{trace:?}");
    }

    #[test]
    fn budget_exhaustion_reports_none() {
        let tr = translate_machine(
            &defs::and_elem(),
            &[("a", vec![20.0]), ("b", vec![30.0]), ("clk", vec![50.0])],
            10,
        )
        .unwrap();
        let q2 = McQuery::query2(&tr);
        let r = check(
            &tr.net,
            &q2,
            McOptions {
                max_states: 3,
                ..McOptions::default()
            },
        );
        assert_eq!(r.holds, None);
        // The diagnostic names the budget, the level and the live zones,
        // and nothing timed.
        assert_eq!(
            r.diagnostic.as_deref(),
            Some("state budget (3) exhausted at level 3: 3 zones live")
        );
    }

    #[test]
    fn telemetry_report_counts_the_run() {
        let tr = translate_machine(
            &defs::and_elem(),
            &[("a", vec![20.0]), ("b", vec![30.0]), ("clk", vec![50.0])],
            10,
        )
        .unwrap();
        let tel = Telemetry::new();
        let r = check_with_telemetry(
            &tr.net,
            &McQuery::query2(&tr),
            McOptions::default(),
            Some(&tel),
        );
        assert_eq!(r.holds, Some(true), "{:?}", r.violation);
        let report = tel.report();
        assert_eq!(report.counter("mc.runs"), 1);
        assert_eq!(report.counter("mc.states"), r.states() as u64);
        assert!(report.counter("mc.states") > 0);
        // Every stored state except the initial one was once a candidate.
        assert!(report.counter("mc.candidates") + 1 >= report.counter("mc.states"));
        assert_eq!(report.gauge("mc.peak_store"), r.peak_store() as u64);
        assert!(report.gauge("mc.peak_store") > 0);
    }

    /// A single-location automaton whose invariant is the given constraint.
    fn one_loc_net(inv: Vec<Constraint>) -> TaNetwork {
        let mut net = TaNetwork::new(1);
        net.add_clock("c");
        net.automata.push(Automaton {
            name: "A".into(),
            init: LocId(0),
            locations: vec![Location {
                name: "l0".into(),
                invariant: inv,
                kind: LocKind::Normal,
                committed: false,
            }],
            edges: vec![],
        });
        net
    }

    /// One automaton over one clock `x` whose zones at `L` grow with the
    /// level: `l0 → L [x ≥ 5]`, `l0 → L [x ≥ 3]`, `l0 → K`, `K → L`,
    /// `L → M [x ≥ 1]`.
    fn evicting_net() -> TaNetwork {
        let mut net = TaNetwork::new(1);
        let x = net.add_clock("x");
        let loc = |name: &str| Location {
            name: name.into(),
            invariant: vec![],
            kind: LocKind::Normal,
            committed: false,
        };
        let edge = |src: usize, dst: usize, guard: Vec<Constraint>| Edge {
            src: LocId(src),
            dst: LocId(dst),
            sync: EdgeSync::Tau,
            guard,
            resets: vec![],
        };
        net.automata.push(Automaton {
            name: "A".into(),
            init: LocId(0),
            locations: vec![loc("l0"), loc("L"), loc("K"), loc("M")],
            edges: vec![
                edge(0, 1, vec![Constraint::new(x, Rel::Ge, 5)]),
                edge(0, 1, vec![Constraint::new(x, Rel::Ge, 3)]),
                edge(0, 2, vec![]),
                edge(2, 1, vec![]),
                edge(1, 3, vec![Constraint::new(x, Rel::Ge, 1)]),
            ],
        });
        net
    }

    #[test]
    fn a_subsuming_candidate_evicts_and_kills_a_same_level_accept() {
        // Level 1 accepts L[x≥5], then L[x≥3] evicts and kills it (it is
        // never expanded), and accepts K. Level 2 accepts M from L[x≥3] and
        // L[x≥0] from K, which evicts L[x≥3] (already expanded, so not a
        // kill). Level 3's M from L[x≥0] is subsumed.
        let r = check(
            &evicting_net(),
            &McQuery::NoErrorState(vec![]),
            McOptions::default(),
        );
        assert_eq!(r.holds, Some(true));
        assert_eq!(
            r.stats,
            McStats {
                states: 6,
                peak_store: 4,
                levels: 3,
                candidates: 6,
                subsumed: 1,
                evicted: 2,
                killed: 1,
                max_zone_clocks: 1,
            }
        );
        // The killed accept is never expanded: its M successor would be a
        // seventh candidate.
        let m = McQuery::NoErrorState(vec![(0, LocId(3))]);
        let r = check(&evicting_net(), &m, McOptions::default());
        assert_eq!(r.holds, Some(false));
        assert_eq!(r.stats.states, 6);
        assert_eq!(
            r.trace.unwrap(),
            ["initial state", "tau -> A.L", "tau -> A.M"]
        );
    }

    #[test]
    fn vacuous_initial_zone_gets_a_diagnostic() {
        // Invariant c >= 5 is unsatisfiable at time 0: the initial zone is
        // empty and the "pass" must be flagged as vacuous.
        let net = one_loc_net(vec![Constraint::new(ClockId(0), Rel::Ge, 5)]);
        let r = check(&net, &McQuery::NoErrorState(vec![]), McOptions::default());
        assert_eq!(r.holds, Some(true));
        assert_eq!(r.states(), 0);
        assert!(r.diagnostic.unwrap().contains("vacuous"));
    }

    #[test]
    fn oversized_bounds_refuse_a_verdict() {
        // A bound beyond MAX_BOUND used to wrap in `bound as i32` encoding
        // (2m+1) and silently produce a wrong verdict; now the model is
        // refused with holds = None and a diagnostic.
        let net = one_loc_net(vec![Constraint::new(ClockId(0), Rel::Le, 1 << 30)]);
        let r = check(&net, &McQuery::NoErrorState(vec![]), McOptions::default());
        assert_eq!(r.holds, None);
        assert!(r.diagnostic.unwrap().contains("encodable"));
    }
}
