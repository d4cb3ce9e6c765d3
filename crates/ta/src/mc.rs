//! A parallel zone-based model checker for networks of timed automata — the
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
//! Exploration is a **level-synchronous BFS** over the zone graph, run in
//! three phases per level:
//!
//! * **Expand** — the frontier is split into contiguous units and fanned
//!   across a scoped thread pool (the [`crate::automaton::TaNetwork`] is
//!   shared read-only); each unit emits successor candidates. Per-unit
//!   results are flattened in unit order, so the global candidate order is a
//!   pure function of the frontier, never of thread scheduling. Successor
//!   generation uses per-`(automaton, location)` edge indices (`τ` edges,
//!   sends, receives) plus a per-channel receiver table, so a send only
//!   visits automata that can actually receive on its channel.
//! * **Insert** — the passed/waiting store is sharded by a hash of the
//!   location vector; location vectors are interned per shard and stored
//!   once. Candidates are partitioned by shard and the shards are processed
//!   in parallel, each consuming its candidates in global candidate order —
//!   subsumption is local to a location vector, hence local to a shard, so
//!   the accept/kill decisions are again scheduling-independent. A
//!   candidate subsumed by a stored zone is dropped; a candidate that
//!   subsumes stored zones evicts them, and if an evicted zone was accepted
//!   *earlier in the same level* its entry is marked dead via the
//!   level-stamp on the bucket slot — dead entries are counted and kept for
//!   traces but never expanded (the sequential predecessor expanded them: a
//!   real wasted-work bug).
//! * **Merge** — a single thread folds the per-shard accept lists in
//!   candidate order: arena ids are assigned, the next frontier is built
//!   from surviving entries, and the violation with the smallest candidate
//!   index is selected. First-found-at-minimum-BFS-depth therefore holds at
//!   any thread count, and `threads = 1` runs the identical algorithm
//!   inline without spawning.
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
//! `max_states` is checked at level boundaries (crossing a deterministic
//! point, so the verdict is thread-count independent; one level of overshoot
//! is possible). `max_seconds` is wall-clock and inherently approximate:
//! workers poll the elapsed time during expansion and raise a shared abort
//! flag. Both exhaustions yield `holds = None` with a diagnostic.

use crate::automaton::{LocId, Sync as EdgeSync, TaNetwork};
use crate::dbm::{Dbm, MAX_BOUND};
use crate::translate::Translation;
use rlse_core::telemetry::Telemetry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
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
/// is a pure function of `(net, query, opts.max_states)` — bit-identical at
/// any thread count — so these are the numbers flushed into a
/// [`Telemetry`] handle (all but `max_zone_clocks`) and compared in
/// determinism tests.
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
    /// Store shards holding at least one live zone when the run ended.
    pub occupied_shards: usize,
    /// Live zones in the fullest shard when the run ended.
    pub max_shard_live: usize,
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
    /// counters, shard occupancy).
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
    /// Worker thread count: `0` uses the machine's available parallelism,
    /// `1` runs the identical algorithm inline without spawning. The
    /// verdict, state count, and counterexample are the same at any value —
    /// exploration order is deterministic by construction.
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

/// Number of store shards (must be a power of two for the mask below).
const SHARDS: usize = 64;

/// FNV-1a over the location vector, folded to a shard index.
fn shard_of(locs: &[u32]) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &l in locs {
        h ^= u64::from(l);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h & (SHARDS as u64 - 1)) as usize
}

/// A stored zone, stamped with the level and per-level accept index that
/// produced it so same-level eviction can kill the not-yet-expanded entry.
struct BucketZone {
    zone: Arc<Dbm>,
    level: u32,
    lidx: u32,
}

/// One shard of the passed/waiting store: interned location vectors plus
/// their zone buckets.
#[derive(Default)]
struct Shard {
    intern: HashMap<Box<[u32]>, u32>,
    vecs: Vec<Box<[u32]>>,
    buckets: Vec<Vec<BucketZone>>,
    /// Zones currently stored across all buckets of this shard.
    live: usize,
}

/// Compact per-state record for counterexample reconstruction: no zone, just
/// the interned location id, the parent pointer, and the global-clock range
/// captured at accept time (`ghi == i64::MIN` means unbounded or absent).
struct ArenaEntry {
    shard: u32,
    local: u32,
    parent: u32,
    action: Action,
    glo: i64,
    ghi: i64,
}

/// A frontier state awaiting expansion.
struct Frontier {
    state: u32,
    locs: Box<[u32]>,
    zone: Arc<Dbm>,
}

/// A successor candidate produced by the expand phase.
struct Cand {
    shard: u32,
    locs: Box<[u32]>,
    zone: Arc<Dbm>,
    parent: u32,
    action: Action,
}

/// Per-shard accept record for one level.
struct LocalAcc {
    cand: u32,
    local: u32,
    alive: bool,
    violation: Option<String>,
}

/// One shard's output for one level: the accepted zones plus the tallies
/// of candidates dropped by subsumption, stored zones evicted, and
/// same-level accepts killed before expansion (see [`McStats`]).
#[derive(Default)]
struct ShardOut {
    accs: Vec<LocalAcc>,
    subsumed: u64,
    evicted: u64,
    killed: u64,
}

/// Run `f(0..units)` across a deterministic scoped thread pool, returning
/// the per-unit results **in unit order** regardless of which thread ran
/// which unit. `threads <= 1` (or a single unit) runs inline.
fn run_units<T, F>(threads: usize, units: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + std::marker::Sync,
{
    if threads <= 1 || units <= 1 {
        return (0..units).map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..units).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(units) {
            scope.spawn(|| loop {
                let u = next.fetch_add(1, Ordering::Relaxed);
                if u >= units {
                    break;
                }
                let out = f(u);
                *slots[u].lock().expect("unit slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("unit slot poisoned")
                .expect("every unit index is claimed exactly once")
        })
        .collect()
}

/// Read-only exploration context: the network plus precomputed edge indices.
struct Engine<'n> {
    net: &'n TaNetwork,
    max_consts: Vec<i64>,
    /// Per automaton: which locations are committed.
    committed: Vec<Vec<bool>>,
    /// `tau[aut][loc]` — indices of τ edges leaving `loc`.
    tau: Vec<Vec<Vec<u32>>>,
    /// `send[aut][loc]` — `(channel, edge index)` of sends leaving `loc`.
    send: Vec<Vec<Vec<(u32, u32)>>>,
    /// `recv[aut][loc]` — `(channel, edge index)` of receives leaving `loc`.
    recv: Vec<Vec<Vec<(u32, u32)>>>,
    /// `recv_aut[chan]` — automata with at least one receive on `chan`.
    recv_aut: Vec<Vec<u32>>,
    /// Words per clock bitset.
    clock_words: usize,
    /// `active[aut][loc]` — bitset of clocks automaton `aut` may read
    /// (guard or invariant) before resetting them, starting from `loc`.
    active: Vec<Vec<Box<[u64]>>>,
    /// The global clock (0-based), exempt from freeing: queries read it.
    global: Option<usize>,
}

/// Per-location clock activity of one automaton (Daws–Yovine): clock `c` is
/// active at `l` when some path from `l` reads `c` (in an invariant or
/// guard) before this automaton resets it. Backward fixpoint over the
/// automaton's edge graph.
fn clock_activity(a: &crate::automaton::Automaton, words: usize) -> Vec<Box<[u64]>> {
    let set = |m: &mut [u64], c: usize| m[c / 64] |= 1u64 << (c % 64);
    let mut act: Vec<Box<[u64]>> = a
        .locations
        .iter()
        .map(|_| vec![0u64; words].into_boxed_slice())
        .collect();
    loop {
        let mut changed = false;
        for (li, l) in a.locations.iter().enumerate() {
            let mut new = vec![0u64; words].into_boxed_slice();
            for c in &l.invariant {
                set(&mut new, c.clock.0);
            }
            for e in &a.edges {
                if e.src.0 != li {
                    continue;
                }
                for c in &e.guard {
                    set(&mut new, c.clock.0);
                }
                let mut inherited = act[e.dst.0].clone();
                for r in &e.resets {
                    inherited[r.0 / 64] &= !(1u64 << (r.0 % 64));
                }
                for (w, i) in new.iter_mut().zip(inherited.iter()) {
                    *w |= i;
                }
            }
            if new != act[li] {
                act[li] = new;
                changed = true;
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

impl<'n> Engine<'n> {
    fn new(net: &'n TaNetwork, extra_global_const: i64) -> Self {
        let mut max_consts = net.max_constants();
        if let Some(g) = net.global_clock {
            max_consts[g.0] = max_consts[g.0].max(extra_global_const);
        }
        let committed = net
            .automata
            .iter()
            .map(|a| a.locations.iter().map(|l| l.committed).collect())
            .collect();
        let mut tau = Vec::with_capacity(net.automata.len());
        let mut send = Vec::with_capacity(net.automata.len());
        let mut recv = Vec::with_capacity(net.automata.len());
        let mut recv_aut: Vec<Vec<u32>> = vec![Vec::new(); net.chan_names.len()];
        for (ai, a) in net.automata.iter().enumerate() {
            let mut t = vec![Vec::new(); a.locations.len()];
            let mut s = vec![Vec::new(); a.locations.len()];
            let mut r = vec![Vec::new(); a.locations.len()];
            let mut receives = vec![false; net.chan_names.len()];
            for (ei, e) in a.edges.iter().enumerate() {
                match e.sync {
                    EdgeSync::Tau => t[e.src.0].push(ei as u32),
                    EdgeSync::Send(ch) => s[e.src.0].push((ch.0 as u32, ei as u32)),
                    EdgeSync::Recv(ch) => {
                        r[e.src.0].push((ch.0 as u32, ei as u32));
                        receives[ch.0] = true;
                    }
                }
            }
            for (ch, &has) in receives.iter().enumerate() {
                if has {
                    recv_aut[ch].push(ai as u32);
                }
            }
            tau.push(t);
            send.push(s);
            recv.push(r);
        }
        let clock_words = net.clock_names.len().div_ceil(64);
        let active = net
            .automata
            .iter()
            .map(|a| clock_activity(a, clock_words))
            .collect();
        Engine {
            net,
            max_consts,
            committed,
            tau,
            send,
            recv,
            recv_aut,
            clock_words,
            active,
            global: net.global_clock.map(|g| g.0),
        }
    }

    /// The clocks live at `locs`, as a bitset over 0-based clock ids: every
    /// clock some automaton may read there before resetting it, plus the
    /// global clock, which the queries read.
    fn live_clocks(&self, locs: &[u32]) -> Box<[u64]> {
        let mut used = vec![0u64; self.clock_words].into_boxed_slice();
        for (ai, &l) in locs.iter().enumerate() {
            for (w, a) in used.iter_mut().zip(self.active[ai][l as usize].iter()) {
                *w |= a;
            }
        }
        if let Some(g) = self.global {
            used[g / 64] |= 1u64 << (g % 64);
        }
        used
    }

    /// Active-clock reduction: free every clock (except the global one) no
    /// automaton can read again before resetting it. Dead clock values
    /// cannot influence any future transition or query, so freeing them is
    /// exact for location reachability and global-clock ranges — it merges
    /// states that differ only in dead dimensions (fewer states, smaller
    /// store) and drops their rows and columns from the zone, so every
    /// later operation on it runs over the live clocks only.
    fn free_inactive_clocks(&self, locs: &[u32], z: &mut Dbm) {
        let live = self.live_clocks(locs);
        z.retain(|c| has_clock(&live, c - 1));
    }

    fn apply_invariants(&self, locs: &[u32], z: &mut Dbm) -> bool {
        for (ai, a) in self.net.automata.iter().enumerate() {
            for c in &a.locations[locs[ai] as usize].invariant {
                if !z.constrain_clock(c.clock.0 + 1, c.rel, c.bound as i32) {
                    return false;
                }
            }
        }
        true
    }

    /// Finalize a successor zone: invariants, delay closure, invariants
    /// again, extrapolation. Returns `None` if empty.
    fn close(&self, locs: &[u32], mut z: Dbm) -> Option<Dbm> {
        if !self.apply_invariants(locs, &mut z) {
            return None;
        }
        z.up();
        if !self.apply_invariants(locs, &mut z) {
            return None;
        }
        self.free_inactive_clocks(locs, &mut z);
        z.extrapolate(&self.max_consts);
        if z.is_empty() {
            None
        } else {
            Some(z)
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
    fn expand_state(&self, locs: &[u32], zone: &Dbm, parent: u32, out: &mut Vec<Cand>) {
        let any_committed = locs
            .iter()
            .enumerate()
            .any(|(ai, &l)| self.committed[ai][l as usize]);
        let committed_at = |ai: usize| self.committed[ai][locs[ai] as usize];
        // Internal (τ) edges.
        for (ai, a) in self.net.automata.iter().enumerate() {
            if any_committed && !committed_at(ai) {
                continue;
            }
            for &ei in &self.tau[ai][locs[ai] as usize] {
                let e = &a.edges[ei as usize];
                let mut nz = zone.clone();
                if !apply_guard(&mut nz, &e.guard) {
                    continue;
                }
                for r in &e.resets {
                    nz.reset(r.0 + 1);
                }
                let mut nl = locs.to_vec();
                nl[ai] = e.dst.0 as u32;
                if let Some(nz) = self.close(&nl, nz) {
                    out.push(Cand {
                        shard: shard_of(&nl) as u32,
                        locs: nl.into_boxed_slice(),
                        zone: Arc::new(nz),
                        parent,
                        action: Action::Tau { automaton: ai as u32 },
                    });
                }
            }
        }
        // Channel synchronizations: each send pairs with every receiver that
        // currently has a matching receive edge.
        for (ai, a) in self.net.automata.iter().enumerate() {
            for &(ch, ei) in &self.send[ai][locs[ai] as usize] {
                let e1 = &a.edges[ei as usize];
                for &bi in &self.recv_aut[ch as usize] {
                    let bi = bi as usize;
                    if bi == ai {
                        continue;
                    }
                    if any_committed && !committed_at(ai) && !committed_at(bi) {
                        continue;
                    }
                    for &(ch2, e2i) in &self.recv[bi][locs[bi] as usize] {
                        if ch2 != ch {
                            continue;
                        }
                        let e2 = &self.net.automata[bi].edges[e2i as usize];
                        let mut nz = zone.clone();
                        if !apply_guard(&mut nz, &e1.guard) || !apply_guard(&mut nz, &e2.guard)
                        {
                            continue;
                        }
                        for r in e1.resets.iter().chain(&e2.resets) {
                            nz.reset(r.0 + 1);
                        }
                        let mut nl = locs.to_vec();
                        nl[ai] = e1.dst.0 as u32;
                        nl[bi] = e2.dst.0 as u32;
                        if let Some(nz) = self.close(&nl, nz) {
                            out.push(Cand {
                                shard: shard_of(&nl) as u32,
                                locs: nl.into_boxed_slice(),
                                zone: Arc::new(nz),
                                parent,
                                action: Action::Sync {
                                    sender: ai as u32,
                                    receiver: bi as u32,
                                    chan: ch,
                                },
                            });
                        }
                    }
                }
            }
        }
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
fn trace_to(
    net: &TaNetwork,
    shards: &[Mutex<Shard>],
    arena: &[ArenaEntry],
    idx: u32,
) -> Vec<String> {
    let mut steps = Vec::new();
    let mut cur = idx;
    loop {
        let e = &arena[cur as usize];
        let locs = shards[e.shard as usize]
            .lock()
            .expect("shard poisoned")
            .vecs[e.local as usize]
            .clone();
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

/// Final store occupancy, for [`McStats`] and the budget diagnostics.
struct StoreOccupancy {
    live: usize,
    occupied: usize,
    min: usize,
    max: usize,
}

impl StoreOccupancy {
    fn mean(&self) -> usize {
        self.live.checked_div(self.occupied).unwrap_or(0)
    }
}

fn store_occupancy(shards: &mut [Mutex<Shard>]) -> StoreOccupancy {
    let (mut live, mut occupied, mut min, mut max) = (0usize, 0usize, usize::MAX, 0usize);
    for s in shards.iter_mut() {
        let l = s.get_mut().expect("shard poisoned").live;
        if l > 0 {
            live += l;
            occupied += 1;
            min = min.min(l);
            max = max.max(l);
        }
    }
    StoreOccupancy {
        live,
        occupied,
        min: if occupied == 0 { 0 } else { min },
        max,
    }
}

/// Model-check `query` over `net` by deterministic parallel zone-graph
/// exploration (see the module docs for the engine's phase structure).
pub fn check(net: &TaNetwork, query: &McQuery, opts: McOptions) -> McResult {
    check_with_telemetry(net, query, opts, None)
}

/// Like [`check`], additionally flushing into a [`Telemetry`] handle: the
/// deterministic `mc.*` counters and store peaks from [`McStats`], plus
/// per-level `mc.expand`/`mc.insert`/`mc.merge` spans and one `mc.check`
/// span for the whole run on timeline track 0.
pub fn check_with_telemetry(
    net: &TaNetwork,
    query: &McQuery,
    opts: McOptions,
    tel: Option<&Telemetry>,
) -> McResult {
    let tel = tel.filter(|t| t.is_enabled());
    let t0 = tel.and_then(Telemetry::now);
    let r = check_inner(net, query, opts, tel);
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
        t.peak("mc.occupied_shards", r.stats.occupied_shards as u64);
        t.peak("mc.max_shard_live", r.stats.max_shard_live as u64);
        if let Some(started) = t0 {
            t.record_span("mc.check", 0, started, r.stats.states as u64);
        }
    }
    r
}

fn check_inner(
    net: &TaNetwork,
    query: &McQuery,
    opts: McOptions,
    tel: Option<&Telemetry>,
) -> McResult {
    let start = Instant::now();
    let threads = if opts.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        opts.threads
    };

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

    let engine = Engine::new(net, extra);
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
    let live = engine.live_clocks(&init_locs);
    let z0 = Dbm::zero_over((1..=net.clock_count()).filter(|&c| has_clock(&live, c - 1)));
    let Some(z0) = engine.close(&init_locs, z0) else {
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
    };
    let z0 = Arc::new(z0);

    let mut shards: Vec<Mutex<Shard>> = (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect();
    let mut arena: Vec<ArenaEntry> = Vec::new();
    let mut stats = McStats {
        peak_store: 1,
        max_zone_clocks: z0.clocks(),
        ..McStats::default()
    };

    let s0 = shard_of(&init_locs);
    {
        let sh = shards[s0].get_mut().expect("shard poisoned");
        sh.intern
            .insert(init_locs.clone().into_boxed_slice(), 0);
        sh.vecs.push(init_locs.clone().into_boxed_slice());
        sh.buckets.push(vec![BucketZone {
            zone: z0.clone(),
            level: 0,
            lidx: 0,
        }]);
        sh.live = 1;
    }
    let (glo, ghi) = grange(g_idx, &z0);
    arena.push(ArenaEntry {
        shard: s0 as u32,
        local: 0,
        parent: u32::MAX,
        action: Action::Init,
        glo,
        ghi,
    });
    if let Some(v) = violation(&init_locs, &z0) {
        let occ = store_occupancy(&mut shards);
        stats.states = 1;
        stats.occupied_shards = occ.occupied;
        stats.max_shard_live = occ.max;
        return McResult {
            holds: Some(false),
            time_secs: start.elapsed().as_secs_f64(),
            violation: Some(v),
            trace: Some(trace_to(net, &shards, &arena, 0)),
            diagnostic: None,
            stats,
        };
    }

    let aborted = AtomicBool::new(false);
    let mut frontier = vec![Frontier {
        state: 0,
        locs: init_locs.into_boxed_slice(),
        zone: z0,
    }];
    let mut level: u32 = 0;

    while !frontier.is_empty() {
        level += 1;
        if arena.len() >= opts.max_states {
            let occ = store_occupancy(&mut shards);
            stats.states = arena.len();
            stats.levels = level;
            return McResult {
                holds: None,
                time_secs: start.elapsed().as_secs_f64(),
                violation: None,
                trace: None,
                diagnostic: Some(format!(
                    "state budget ({}) exhausted after {:.1} s at level {}: {} zones live \
                     across {}/{} shards (per-shard min {}, mean {:.1}, max {})",
                    opts.max_states,
                    start.elapsed().as_secs_f64(),
                    level,
                    occ.live,
                    occ.occupied,
                    SHARDS,
                    occ.min,
                    occ.mean(),
                    occ.max
                )),
                stats,
            };
        }

        // Phase A: expand the frontier in parallel units; flatten in unit
        // order so the candidate order is deterministic.
        let t_expand = tel.and_then(|t| t.now());
        let unit_size = frontier
            .len()
            .div_ceil((threads * 4).max(1))
            .max(1);
        let units = frontier.len().div_ceil(unit_size);
        let cand_lists = run_units(threads, units, |u| {
            let mut out = Vec::new();
            if aborted.load(Ordering::Relaxed) {
                return out;
            }
            let lo = u * unit_size;
            let hi = ((u + 1) * unit_size).min(frontier.len());
            for fe in &frontier[lo..hi] {
                if start.elapsed().as_secs_f64() > opts.max_seconds {
                    aborted.store(true, Ordering::Relaxed);
                    break;
                }
                engine.expand_state(&fe.locs, &fe.zone, fe.state, &mut out);
            }
            out
        });
        if aborted.load(Ordering::Relaxed) {
            let occ = store_occupancy(&mut shards);
            stats.states = arena.len();
            stats.levels = level;
            return McResult {
                holds: None,
                time_secs: start.elapsed().as_secs_f64(),
                violation: None,
                trace: None,
                diagnostic: Some(format!(
                    "time budget ({}s) exhausted after {:.1} s at level {}: {} zones live \
                     across {}/{} shards (per-shard min {}, mean {:.1}, max {})",
                    opts.max_seconds,
                    start.elapsed().as_secs_f64(),
                    level,
                    occ.live,
                    occ.occupied,
                    SHARDS,
                    occ.min,
                    occ.mean(),
                    occ.max
                )),
                stats,
            };
        }
        if let (Some(t), Some(t0)) = (tel, t_expand) {
            t.record_span("mc.expand", 0, t0, frontier.len() as u64);
        }
        let cands: Vec<Cand> = cand_lists.into_iter().flatten().collect();
        stats.candidates += cands.len() as u64;

        // Phase B: partition candidates by shard; process each shard's
        // candidates in global candidate order (subsumption is per-location
        // vector, hence shard-local, so this is scheduling-independent).
        let t_insert = tel.and_then(|t| t.now());
        let mut shard_cands: Vec<Vec<u32>> = vec![Vec::new(); SHARDS];
        for (i, c) in cands.iter().enumerate() {
            shard_cands[c.shard as usize].push(i as u32);
        }
        let active: Vec<u32> = (0..SHARDS as u32)
            .filter(|&s| !shard_cands[s as usize].is_empty())
            .collect();
        let acc_lists = run_units(threads, active.len(), |u| {
            let s = active[u] as usize;
            let mut guard = shards[s].lock().expect("shard poisoned");
            let sh = &mut *guard;
            let mut out = ShardOut::default();
            for &ci in &shard_cands[s] {
                let cand = &cands[ci as usize];
                let local = match sh.intern.get(&cand.locs) {
                    Some(&l) => l,
                    None => {
                        let l = sh.vecs.len() as u32;
                        sh.intern.insert(cand.locs.clone(), l);
                        sh.vecs.push(cand.locs.clone());
                        sh.buckets.push(Vec::new());
                        l
                    }
                };
                let bucket = &mut sh.buckets[local as usize];
                if bucket.iter().any(|b| b.zone.includes(&cand.zone)) {
                    out.subsumed += 1;
                    continue;
                }
                let before = bucket.len();
                bucket.retain(|b| {
                    let evicted = cand.zone.includes(&b.zone);
                    if evicted && b.level == level {
                        // Accepted earlier this level but not yet expanded:
                        // kill it so it never reaches the next frontier.
                        out.accs[b.lidx as usize].alive = false;
                        out.killed += 1;
                    }
                    !evicted
                });
                out.evicted += (before - bucket.len()) as u64;
                sh.live -= before - bucket.len();
                let lidx = out.accs.len() as u32;
                bucket.push(BucketZone {
                    zone: cand.zone.clone(),
                    level,
                    lidx,
                });
                sh.live += 1;
                out.accs.push(LocalAcc {
                    cand: ci,
                    local,
                    alive: true,
                    violation: violation(&cand.locs, &cand.zone),
                });
            }
            out
        });
        if let (Some(t), Some(t0)) = (tel, t_insert) {
            t.record_span("mc.insert", 0, t0, cands.len() as u64);
        }

        // Phase C: sequential merge in candidate order — assign arena ids,
        // pick the minimum-index violation, build the next frontier.
        let t_merge = tel.and_then(|t| t.now());
        let mut all: Vec<(u32, LocalAcc)> = Vec::new();
        for (u, sh_out) in acc_lists.into_iter().enumerate() {
            let s = active[u];
            stats.subsumed += sh_out.subsumed;
            stats.evicted += sh_out.evicted;
            stats.killed += sh_out.killed;
            for a in sh_out.accs {
                all.push((s, a));
            }
        }
        all.sort_by_key(|(_, a)| a.cand);
        let mut best_violation: Option<(u32, String)> = None;
        let mut next_frontier = Vec::new();
        for (s, mut acc) in all {
            let cand = &cands[acc.cand as usize];
            let id = arena.len() as u32;
            let (glo, ghi) = grange(g_idx, &cand.zone);
            stats.max_zone_clocks = stats.max_zone_clocks.max(cand.zone.clocks());
            arena.push(ArenaEntry {
                shard: s,
                local: acc.local,
                parent: cand.parent,
                action: cand.action,
                glo,
                ghi,
            });
            if best_violation.is_none() {
                if let Some(v) = acc.violation.take() {
                    best_violation = Some((id, v));
                }
            }
            if acc.alive && best_violation.is_none() {
                next_frontier.push(Frontier {
                    state: id,
                    locs: cand.locs.clone(),
                    zone: cand.zone.clone(),
                });
            }
        }
        let occ = store_occupancy(&mut shards);
        stats.peak_store = stats.peak_store.max(occ.live);
        stats.occupied_shards = stats.occupied_shards.max(occ.occupied);
        stats.max_shard_live = stats.max_shard_live.max(occ.max);
        if let (Some(t), Some(t0)) = (tel, t_merge) {
            t.record_span("mc.merge", 0, t0, arena.len() as u64);
        }

        if let Some((id, v)) = best_violation {
            stats.states = arena.len();
            stats.levels = level;
            return McResult {
                holds: Some(false),
                time_secs: start.elapsed().as_secs_f64(),
                violation: Some(v),
                trace: Some(trace_to(net, &shards, &arena, id)),
                diagnostic: None,
                stats,
            };
        }
        frontier = next_frontier;
    }

    stats.states = arena.len();
    stats.levels = level;
    McResult {
        holds: Some(true),
        time_secs: start.elapsed().as_secs_f64(),
        violation: None,
        trace: None,
        diagnostic: None,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{Automaton, ClockId, Constraint, LocKind, Location};
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
                max_seconds: 10.0,
                threads: 1,
            },
        );
        assert_eq!(r.holds, None);
        let diag = r.diagnostic.unwrap();
        assert!(diag.contains("state budget"), "{diag}");
        // The diagnostic reports elapsed wall-clock and store occupancy.
        assert!(diag.contains(" s at level "), "{diag}");
        assert!(diag.contains("zones live"), "{diag}");
        assert!(diag.contains("shards"), "{diag}");
    }

    #[test]
    fn telemetry_report_is_identical_across_thread_counts() {
        let tr = translate_machine(
            &defs::and_elem(),
            &[("a", vec![20.0]), ("b", vec![30.0]), ("clk", vec![50.0])],
            10,
        )
        .unwrap();
        let q2 = McQuery::query2(&tr);
        let report_at = |threads: usize| {
            let tel = Telemetry::new();
            let opts = McOptions { threads, ..Default::default() };
            let r = check_with_telemetry(&tr.net, &q2, opts, Some(&tel));
            assert_eq!(r.holds, Some(true), "{:?}", r.violation);
            tel.report()
        };
        let seq = report_at(1);
        let par = report_at(4);
        assert_eq!(seq, par);
        assert_eq!(seq.to_json(), par.to_json());
        assert_eq!(seq.counter("mc.runs"), 1);
        assert!(seq.counter("mc.states") > 0);
        // Every stored state except the initial one was once a candidate.
        assert!(seq.counter("mc.candidates") + 1 >= seq.counter("mc.states"));
        assert!(seq.gauge("mc.peak_store") > 0);
    }

    #[test]
    fn sequential_and_parallel_runs_are_identical() {
        let tr = translate_machine(
            &defs::and_elem(),
            &[("a", vec![20.0]), ("b", vec![49.0]), ("clk", vec![50.0])],
            10,
        )
        .unwrap();
        for query in [
            McQuery::query2(&tr),
            McQuery::query1(&tr, &[("q", vec![59.2])]),
        ] {
            let seq = check(&tr.net, &query, McOptions { threads: 1, ..Default::default() });
            let par = check(&tr.net, &query, McOptions { threads: 4, ..Default::default() });
            assert_eq!(seq.holds, par.holds);
            assert_eq!(seq.stats, par.stats);
            assert_eq!(seq.violation, par.violation);
            assert_eq!(seq.trace, par.trace);
        }
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
