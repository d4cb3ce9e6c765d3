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

use crate::automaton::{LocId, Sync as EdgeSync, TaNetwork};
use crate::dbm::{Dbm, MAX_BOUND};
use crate::translate::Translation;
use rlse_core::telemetry::Telemetry;
use std::collections::HashMap;
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

/// The passed/waiting store: interned location vectors plus their zone
/// buckets.
#[derive(Default)]
struct Store {
    intern: HashMap<Box<[u32]>, u32>,
    vecs: Vec<Box<[u32]>>,
    buckets: Vec<Vec<BucketZone>>,
    /// Zones currently stored across all buckets.
    live: usize,
}

impl Store {
    /// The interned id of `locs`, interned with an empty bucket on first
    /// sight.
    fn intern(&mut self, locs: &[u32]) -> u32 {
        if let Some(&id) = self.intern.get(locs) {
            return id;
        }
        let id = self.vecs.len() as u32;
        self.intern.insert(locs.into(), id);
        self.vecs.push(locs.into());
        self.buckets.push(Vec::new());
        id
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

/// A frontier state awaiting expansion.
struct Frontier {
    state: u32,
    locs: Box<[u32]>,
    zone: Arc<Dbm>,
}

/// A successor candidate produced by the expand phase.
struct Cand {
    locs: Box<[u32]>,
    zone: Arc<Dbm>,
    parent: u32,
    action: Action,
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
fn trace_to(net: &TaNetwork, store: &Store, arena: &[ArenaEntry], idx: u32) -> Vec<String> {
    let mut steps = Vec::new();
    let mut cur = idx;
    loop {
        let e = &arena[cur as usize];
        let locs = &store.vecs[e.locs as usize];
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
/// whole run on timeline track 0.
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

    let mut store = Store::default();
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
        locs: init_locs.into_boxed_slice(),
        zone: z0,
    }];
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
        let mut cands: Vec<Cand> = Vec::new();
        for fe in &frontier {
            if start.elapsed().as_secs_f64() > opts.max_seconds {
                let budget = format!("time budget ({}s)", opts.max_seconds);
                return exhausted(budget, level, store.live, stats);
            }
            engine.expand_state(&fe.locs, &fe.zone, fe.state, &mut cands);
        }
        if let (Some(t), Some(t0)) = (tel, t_expand) {
            t.record_span("mc.expand", 0, t0, frontier.len() as u64);
        }
        stats.candidates += cands.len() as u64;

        // Insert in candidate order. Accepts get arena ids as they are made;
        // `next[id - first]` is the entry of arena id `id` until a later
        // candidate of this level evicts (kills) it.
        let t_insert = tel.and_then(|t| t.now());
        let first = arena.len() as u32;
        let mut next: Vec<Option<Frontier>> = Vec::new();
        let mut found: Option<(u32, String)> = None;
        for cand in cands {
            let locs = store.intern(&cand.locs);
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
            bucket.push(BucketZone {
                zone: cand.zone.clone(),
                level,
                state: id,
            });
            stats.evicted += evicted as u64;
            store.live = store.live - evicted + 1;
            let (glo, ghi) = grange(g_idx, &cand.zone);
            stats.max_zone_clocks = stats.max_zone_clocks.max(cand.zone.clocks());
            arena.push(ArenaEntry {
                locs,
                parent: cand.parent,
                action: cand.action,
                glo,
                ghi,
            });
            if found.is_none() {
                found = violation(&cand.locs, &cand.zone).map(|v| (id, v));
            }
            next.push(Some(Frontier {
                state: id,
                locs: cand.locs,
                zone: cand.zone,
            }));
        }
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
        frontier = next.into_iter().flatten().collect();
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
