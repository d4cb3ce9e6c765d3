//! One-time compilation of a [`Circuit`] into flat, index-addressed dispatch
//! tables — the allocation-free backbone of the pulse simulator's hot path.
//!
//! The simulator of early RLSE versions interpreted the circuit directly:
//! every dispatched batch cloned machine configurations, wire-name strings,
//! and freshly allocated batch/sigma/fired vectors. This module lowers the
//! whole circuit **once per [`Simulation`](crate::sim::Simulation)** into:
//!
//! * a per-machine **transition table** dense in `(state, input)`, with
//!   firing delays and past-constraint lists resolved to contiguous arrays
//!   (`CompiledMachine`), so a dispatch is a handful of array lookups —
//!   and the Fig. 6 Dispatch step over it, written once and shared by the
//!   scalar simulator and the sweep's lane kernel;
//! * an interned **symbol table** ([`SymbolTable`]) holding every cell-type,
//!   wire, state, and port name exactly once, so the event loop passes `u32`
//!   symbols and strings are materialized only at the trace/VCD/error
//!   boundary;
//! * flat **routing arrays** (`out_wires` / `sink`) replacing the pointer
//!   walk through `Node`/`WireData` structs when delivering fired pulses.
//!
//! Compilation is pure: it never changes observable semantics. Golden traces
//! are byte-identical because every string a [`TraceEntry`]
//! (crate::sim::TraceEntry) or timing diagnostic needs is interned verbatim
//! at compile time and resolved back on demand.

use crate::circuit::{Circuit, NodeKind};
use crate::error::{Time, WiringError};
use crate::machine::{InputId, Machine, StateId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// FNV-1a hasher: compilation hashes thousands of short strings and pointer
/// keys, where SipHash's per-key setup dominates. Not DoS-resistant — fine
/// for compiler-internal tables keyed by circuit-controlled names.
#[derive(Debug, Default)]
struct FnvHasher(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }
    fn write_u64(&mut self, n: u64) {
        let h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        self.0 = (h ^ n).wrapping_mul(FNV_PRIME);
    }
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }
    fn write_u8(&mut self, n: u8) {
        self.write_u64(n as u64);
    }
}

type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// An interned string: a dense `u32` id into a [`SymbolTable`].
///
/// Symbols are only meaningful together with the table that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The dense index of this symbol within its table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A string interner: each distinct string is stored once and addressed by a
/// dense [`Symbol`]. Built during circuit compilation; read-only afterwards.
#[derive(Debug, Default)]
pub struct SymbolTable {
    strings: Vec<String>,
    index: FastMap<String, u32>,
}

impl SymbolTable {
    /// Intern `s`, returning its (stable) symbol. Repeated calls with the
    /// same string return the same symbol.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if let Some(&i) = self.index.get(s) {
            return Symbol(i);
        }
        let i = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.index.insert(s.to_string(), i);
        Symbol(i)
    }

    /// Intern `s` without registering it for deduplication: a later
    /// [`intern`](Self::intern) of the same string mints a fresh symbol.
    /// Used for node-wire names, which are unique per circuit by
    /// construction — skipping the dedup map halves compile-time hashing.
    /// Resolution behaves identically either way.
    pub(crate) fn intern_untracked(&mut self, s: &str) -> Symbol {
        let i = self.strings.len() as u32;
        self.strings.push(s.to_string());
        Symbol(i)
    }

    /// Resolve a symbol back to its string.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }
}

/// One row of a compiled transition table: everything
/// [`Machine::step`](crate::machine::Machine::step) needs, as plain numbers
/// and ranges into the owning [`CompiledMachine`]'s flat arrays.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledTransition {
    /// Transition id (for diagnostics; matches `Transition::id`).
    pub(crate) id: u32,
    /// Destination state.
    dst: u32,
    /// Priority among simultaneous triggers; lower wins.
    priority: u32,
    /// `τ_tran`: time for the transition to complete.
    tau_tran: f64,
    /// Range into [`CompiledMachine::firings`].
    fire: (u32, u32),
    /// Range into [`CompiledMachine::pasts`].
    past: (u32, u32),
}

/// A [`Machine`] lowered to dense arrays: the transition table is indexed by
/// `state * n_inputs + input`, and firing/past-constraint lists live in two
/// shared flat arrays addressed by ranges.
#[derive(Debug)]
pub struct CompiledMachine {
    n_inputs: u32,
    pub(crate) start: u32,
    /// Dense `(state, input)` table.
    table: Vec<CompiledTransition>,
    /// Flat `(output port, firing delay)` pairs.
    firings: Vec<(u32, f64)>,
    /// Flat `(input port, min distance)` past-constraint pairs.
    pasts: Vec<(u32, f64)>,
    pub(crate) name: Symbol,
    pub(crate) states: Vec<Symbol>,
    pub(crate) inputs: Vec<Symbol>,
    pub(crate) outputs: Vec<Symbol>,
}

impl CompiledMachine {
    fn compile(spec: &Machine, syms: &mut SymbolTable) -> Self {
        let n_in = spec.inputs().len();
        let n_states = spec.states().len();
        let mut table = Vec::with_capacity(n_states * n_in);
        let mut firings = Vec::new();
        let mut pasts = Vec::new();
        for q in 0..n_states {
            for s in 0..n_in {
                let t = spec.transition_for(StateId(q), InputId(s));
                let f0 = firings.len() as u32;
                firings.extend(t.firing.iter().map(|&(o, d)| (o.0 as u32, d)));
                let p0 = pasts.len() as u32;
                pasts.extend(t.past_constraints.iter().map(|&(i, d)| (i.0 as u32, d)));
                table.push(CompiledTransition {
                    id: t.id as u32,
                    dst: t.dst.0 as u32,
                    priority: t.priority,
                    tau_tran: t.transition_time,
                    fire: (f0, firings.len() as u32),
                    past: (p0, pasts.len() as u32),
                });
            }
        }
        CompiledMachine {
            n_inputs: n_in as u32,
            start: spec.start().0 as u32,
            table,
            firings,
            pasts,
            name: syms.intern(spec.name()),
            states: spec.states().iter().map(|s| syms.intern(s)).collect(),
            inputs: spec.inputs().iter().map(|s| syms.intern(s)).collect(),
            outputs: spec.outputs().iter().map(|s| syms.intern(s)).collect(),
        }
    }

    /// `δ(state, port)` as a table lookup.
    #[inline]
    fn transition(&self, state: u32, port: u32) -> &CompiledTransition {
        &self.table[(state * self.n_inputs + port) as usize]
    }

    /// Structural-equality hash of a machine definition, used to share one
    /// compiled table between distinct `Arc<Machine>` instances (per-instance
    /// delay overrides clone the spec, so pointer identity under-shares).
    fn fingerprint(spec: &Machine) -> u64 {
        let mut h = FnvHasher::default();
        spec.name().hash(&mut h);
        h.write_usize(spec.start().0);
        h.write_u64(spec.firing_delay().to_bits());
        for group in [spec.states(), spec.inputs(), spec.outputs()] {
            h.write_usize(group.len());
            for s in group {
                s.hash(&mut h);
            }
        }
        for t in spec.transitions() {
            h.write_usize(t.src.0);
            h.write_usize(t.trigger.0);
            h.write_usize(t.dst.0);
            h.write_u32(t.priority);
            h.write_u64(t.transition_time.to_bits());
            for &(o, d) in &t.firing {
                h.write_usize(o.0);
                h.write_u64(d.to_bits());
            }
            for &(i, d) in &t.past_constraints {
                h.write_usize(i.0);
                h.write_u64(d.to_bits());
            }
        }
        h.finish()
    }

    /// Exact structural comparison against a spec — the collision guard
    /// behind [`fingerprint`](Self::fingerprint)-based sharing. Every field
    /// the compiled table carries must match.
    fn matches(&self, spec: &Machine, syms: &SymbolTable) -> bool {
        let names_match = |symbols: &[Symbol], names: &[String]| {
            symbols.len() == names.len()
                && symbols
                    .iter()
                    .zip(names)
                    .all(|(&s, n)| syms.resolve(s) == n.as_str())
        };
        if syms.resolve(self.name) != spec.name()
            || self.start as usize != spec.start().0
            || !names_match(&self.states, spec.states())
            || !names_match(&self.inputs, spec.inputs())
            || !names_match(&self.outputs, spec.outputs())
        {
            return false;
        }
        for q in 0..spec.states().len() {
            for s in 0..spec.inputs().len() {
                let orig = spec.transition_for(StateId(q), InputId(s));
                let comp = self.transition(q as u32, s as u32);
                if comp.id as usize != orig.id
                    || comp.dst as usize != orig.dst.0
                    || comp.priority != orig.priority
                    || comp.tau_tran.to_bits() != orig.transition_time.to_bits()
                {
                    return false;
                }
                let fire = &self.firings[comp.fire.0 as usize..comp.fire.1 as usize];
                if fire.len() != orig.firing.len()
                    || fire.iter().zip(&orig.firing).any(|(&(o, d), &(oo, od))| {
                        o as usize != oo.0 || d.to_bits() != od.to_bits()
                    })
                {
                    return false;
                }
                let past = &self.pasts[comp.past.0 as usize..comp.past.1 as usize];
                if past.len() != orig.past_constraints.len()
                    || past
                        .iter()
                        .zip(&orig.past_constraints)
                        .any(|(&(i, d), &(oi, od))| {
                            i as usize != oi.0 || d.to_bits() != od.to_bits()
                        })
                {
                    return false;
                }
            }
        }
        true
    }

    /// Number of input ports.
    pub fn input_count(&self) -> usize {
        self.n_inputs as usize
    }

    /// Number of `(state, input)` table rows.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// The Dispatch step of Fig. 6 over this table — the one copy every
    /// engine runs. Handles the batch `buf.ports` arriving at `t` in
    /// priority order (lowest priority number first, ties broken by input
    /// index) from configuration `(q, τ_done)`, and returns the
    /// configuration after the batch. Each transition is checked against
    /// τ_done and its past constraints, stamps Θ, and appends its
    /// `(output, nominal time)` firings to `buf.fired`.
    ///
    /// Θ of input `i` lives at `theta[th_base + i * th_stride]`: the scalar
    /// simulator passes `(theta_off, 1)`, the sweep's lane-strided
    /// columns `(theta_off * W + lane, W)`.
    ///
    /// On a violation the offending transition and the reason are returned
    /// and Θ may be partly updated: the caller abandons the run (or lane),
    /// whose state is reset before reuse.
    #[inline]
    pub(crate) fn dispatch(
        &self,
        t: Time,
        (mut q, mut td): (u32, f64),
        theta: &mut [f64],
        (th_base, th_stride): (usize, usize),
        buf: &mut DispatchBuf,
    ) -> Result<(u32, f64), (CompiledTransition, Reject)> {
        let DispatchBuf { ports, rest, fired } = buf;
        rest.clear();
        rest.extend_from_slice(ports);
        while !rest.is_empty() {
            let mut pos = 0usize;
            let mut best = (self.transition(q, rest[0]).priority, rest[0]);
            for (i, &p) in rest.iter().enumerate().skip(1) {
                let key = (self.transition(q, p).priority, p);
                if key < best {
                    pos = i;
                    best = key;
                }
            }
            let sigma = rest.remove(pos);
            let tr = *self.transition(q, sigma);
            if t < td {
                return Err((tr, Reject::TransitionTime { tau_done: td }));
            }
            for &(input, required) in &self.pasts[tr.past.0 as usize..tr.past.1 as usize] {
                let last_seen = theta[th_base + input as usize * th_stride];
                if t < last_seen + required {
                    return Err((
                        tr,
                        Reject::PastConstraint {
                            input,
                            required,
                            last_seen,
                        },
                    ));
                }
            }
            q = tr.dst;
            td = t + tr.tau_tran;
            theta[th_base + sigma as usize * th_stride] = t;
            for &(o, d) in &self.firings[tr.fire.0 as usize..tr.fire.1 as usize] {
                fired.push((o, t + d));
            }
        }
        Ok((q, td))
    }
}

/// Why [`CompiledMachine::dispatch`] rejected a transition, as plain
/// numbers: the hot path never builds a diagnostic. The scalar simulator
/// turns it into a Fig.-13 [`TimingViolation`](crate::error::TimingViolation);
/// the sweep's lane kernel only marks the lane dead.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reject {
    /// The batch arrived before the previous transition completed.
    TransitionTime { tau_done: f64 },
    /// `input` was last seen at `last_seen`, less than `required` before
    /// the batch.
    PastConstraint {
        input: u32,
        required: f64,
        last_seen: f64,
    },
}

/// The scratch buffers of [`CompiledMachine::dispatch`], reused across every
/// dispatched batch so the event loop never allocates.
#[derive(Debug, Default)]
pub(crate) struct DispatchBuf {
    /// The same-`(time, node)` input ports, in arrival order.
    pub(crate) ports: Vec<u32>,
    /// The ports of the batch not yet handled.
    rest: Vec<u32>,
    /// Fired `(output port, time)` pairs; nominal until jittered.
    pub(crate) fired: Vec<(u32, f64)>,
}

/// One stimulus pulse, pre-resolved to its wire and reading sink so a
/// kernel can seed its pulse heap without touching the [`Circuit`]. Listed
/// in the scalar simulator's seeding order: source nodes in circuit order,
/// then pulses in declaration order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledStim {
    /// Pulse time.
    pub(crate) time: f64,
    /// The source node's output wire.
    pub(crate) wire: u32,
    /// The wire's reading `(node, port)`, or `(u32::MAX, 0)` if unread.
    pub(crate) sink: (u32, u32),
}

/// Per-node compiled shape: what kind of node it is plus the indices the
/// event loop needs to dispatch into it without touching the [`Circuit`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum CompiledNode {
    /// Stimulus source; receives no pulses.
    Source,
    /// A machine instance: which compiled table, where its `Θ` lives in the
    /// simulation's flat theta array, and whether it skips variability.
    Machine {
        cm: u32,
        theta_off: u32,
        exempt: bool,
    },
    /// A behavioral hole: offsets of its input/output port-name symbols in
    /// [`CompiledCircuit::hole_port_syms`].
    Hole { in_syms: u32, out_syms: u32 },
}

/// A [`Circuit`] lowered for simulation: compiled machines (shared between
/// instances of the same spec), per-node dispatch info, interned names, and
/// flat pulse-routing arrays. Built once per simulation by
/// [`CompiledCircuit::compile`] and retained across
/// [`Simulation::reset`](crate::sim::Simulation::reset), so Monte-Carlo
/// sweep workers pay compilation once per circuit, not once per trial.
#[derive(Debug)]
pub struct CompiledCircuit {
    pub(crate) symbols: SymbolTable,
    pub(crate) machines: Vec<CompiledMachine>,
    pub(crate) nodes: Vec<CompiledNode>,
    /// Per node: the name of its first output wire (the paper's node id),
    /// or `<node N>` for wire-less nodes.
    pub(crate) node_wire: Vec<Symbol>,
    /// Per node: the cell-type name (machine or hole name; sources reuse the
    /// wire symbol, which the event loop never reads).
    pub(crate) cell: Vec<Symbol>,
    /// Flat per-node output-wire indices; node `n` drives
    /// `out_wires[out_start[n]..out_start[n + 1]]`.
    pub(crate) out_wires: Vec<u32>,
    pub(crate) out_start: Vec<u32>,
    /// Per wire: the reading `(node, port)`, or `(u32::MAX, 0)` if unread.
    pub(crate) sink: Vec<(u32, u32)>,
    /// Interned hole port names, inputs then outputs per hole node.
    pub(crate) hole_port_syms: Vec<Symbol>,
    /// Total machine input ports — the length of the flat `Θ` array.
    pub(crate) theta_len: usize,
    /// Total stimulus pulses across every source node.
    pub(crate) stim_pulses: usize,
    /// Flat stimulus schedule in scalar seeding order (see [`CompiledStim`]).
    pub(crate) stim: Vec<CompiledStim>,
    /// Number of dispatchable nodes (machines and holes; sources excluded).
    pub(crate) dispatch_nodes: usize,
    /// Per wire: its name. A node's first output wire shares the node's
    /// `node_wire` symbol; every other wire is interned once here.
    pub(crate) wire_name: Vec<Symbol>,
    /// Per wire: whether it is observed (named by the user), i.e. listed
    /// among a run's named events.
    pub(crate) observed: Vec<bool>,
    /// The [`Circuit::check`] verdict, taken once at compile time and
    /// returned by every run of these tables.
    pub(crate) check: Result<(), WiringError>,
}

impl CompiledCircuit {
    /// Lower `circuit` into flat dispatch tables. Pure and infallible: an
    /// ill-formed circuit still compiles, carrying its [`Circuit::check`]
    /// verdict for every run to return; compilation only reshapes data.
    pub fn compile(circuit: &Circuit) -> Self {
        let mut symbols = SymbolTable::default();
        let mut machines: Vec<CompiledMachine> = Vec::new();
        // Instances sharing one `Arc<Machine>` share one compiled table
        // (fast path); structurally identical specs behind distinct Arcs —
        // common when per-instance overrides clone the definition — share
        // via fingerprint + exact comparison.
        let mut by_ptr: FastMap<usize, u32> = FastMap::default();
        let mut by_shape: FastMap<u64, Vec<u32>> = FastMap::default();
        let n_nodes = circuit.nodes.len();
        let mut nodes = Vec::with_capacity(n_nodes);
        let mut node_wire = Vec::with_capacity(n_nodes);
        let mut cell = Vec::with_capacity(n_nodes);
        let mut out_wires = Vec::new();
        let mut out_start = Vec::with_capacity(n_nodes + 1);
        let mut hole_port_syms = Vec::new();
        let mut theta_len = 0usize;
        let mut stim_pulses = 0usize;
        let mut dispatch_nodes = 0usize;
        let mut stim: Vec<CompiledStim> = Vec::new();
        // Filled per node below; `UNNAMED` marks a wire no node drives.
        const UNNAMED: Symbol = Symbol(u32::MAX);
        let mut wire_name = vec![UNNAMED; circuit.wires.len()];

        for (i, node) in circuit.nodes.iter().enumerate() {
            let nw = match circuit.node_wire_name_ref(crate::circuit::NodeId(i)) {
                Some(name) => symbols.intern_untracked(name),
                None => symbols.intern_untracked(&format!("<node {i}>")),
            };
            node_wire.push(nw);
            if let Some((&first, rest)) = node.out_wires.split_first() {
                wire_name[first] = nw;
                for &w in rest {
                    wire_name[w] = symbols.intern_untracked(&circuit.wires[w].name);
                }
            }
            match &node.kind {
                NodeKind::Source { pulses } => {
                    stim_pulses += pulses.len();
                    let wire = node.out_wires[0];
                    let sink = match circuit.wires[wire].sink {
                        Some((n, p)) => (n.0 as u32, p as u32),
                        None => (u32::MAX, 0),
                    };
                    stim.extend(pulses.iter().map(|&time| CompiledStim {
                        time,
                        wire: wire as u32,
                        sink,
                    }));
                    nodes.push(CompiledNode::Source);
                    cell.push(nw);
                }
                NodeKind::Machine { spec, overrides } => {
                    dispatch_nodes += 1;
                    let key = Arc::as_ptr(spec) as usize;
                    let cm = match by_ptr.get(&key) {
                        Some(&cm) => cm,
                        None => {
                            let shape = CompiledMachine::fingerprint(spec);
                            let candidates = by_shape.entry(shape).or_default();
                            let cm = match candidates
                                .iter()
                                .find(|&&c| machines[c as usize].matches(spec, &symbols))
                            {
                                Some(&cm) => cm,
                                None => {
                                    let cm = machines.len() as u32;
                                    machines.push(CompiledMachine::compile(spec, &mut symbols));
                                    by_shape.entry(shape).or_default().push(cm);
                                    cm
                                }
                            };
                            by_ptr.insert(key, cm);
                            cm
                        }
                    };
                    cell.push(machines[cm as usize].name);
                    nodes.push(CompiledNode::Machine {
                        cm,
                        theta_off: theta_len as u32,
                        exempt: overrides.exempt_from_variability,
                    });
                    theta_len += spec.inputs().len();
                }
                NodeKind::Hole(hole) => {
                    dispatch_nodes += 1;
                    let in0 = hole_port_syms.len() as u32;
                    for p in hole.inputs() {
                        hole_port_syms.push(symbols.intern(p));
                    }
                    let out0 = hole_port_syms.len() as u32;
                    for p in hole.outputs() {
                        hole_port_syms.push(symbols.intern(p));
                    }
                    cell.push(symbols.intern(hole.name()));
                    nodes.push(CompiledNode::Hole {
                        in_syms: in0,
                        out_syms: out0,
                    });
                }
            }
            out_start.push(out_wires.len() as u32);
            out_wires.extend(node.out_wires.iter().map(|&w| w as u32));
        }
        out_start.push(out_wires.len() as u32);

        for (sym, w) in wire_name.iter_mut().zip(&circuit.wires) {
            if *sym == UNNAMED {
                *sym = symbols.intern_untracked(&w.name);
            }
        }
        let sink = circuit
            .wires
            .iter()
            .map(|w| match w.sink {
                Some((n, p)) => (n.0 as u32, p as u32),
                None => (u32::MAX, 0),
            })
            .collect();

        CompiledCircuit {
            symbols,
            machines,
            nodes,
            node_wire,
            cell,
            out_wires,
            out_start,
            sink,
            hole_port_syms,
            theta_len,
            stim_pulses,
            stim,
            dispatch_nodes,
            wire_name,
            observed: circuit.wires.iter().map(|w| w.observed).collect(),
            check: circuit.check(),
        }
    }

    /// The symbol table of every interned name.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Number of distinct compiled machine specs (instances of one
    /// `Arc<Machine>` share a table).
    pub fn machine_count(&self) -> usize {
        self.machines.len()
    }

    /// Number of compiled nodes (sources, machines, holes).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Total machine input ports: the size of the simulator's flat `Θ`
    /// (last-seen-time) array.
    pub fn theta_len(&self) -> usize {
        self.theta_len
    }

    /// A rough upper-bound estimate of dispatched batches per run, for
    /// pre-sizing the trace buffer: every stimulus pulse can reach at most
    /// every dispatchable node once on a feed-forward circuit. Capped so a
    /// pathological product never reserves unbounded memory; feedback loops
    /// can exceed the estimate, in which case the trace simply grows.
    pub fn event_estimate(&self) -> usize {
        self.stim_pulses.saturating_mul(self.dispatch_nodes).min(4096)
    }

    /// True if the circuit has a behavioral hole node, whose closure only
    /// the [`Circuit`] holds.
    pub(crate) fn has_holes(&self) -> bool {
        self.nodes.iter().any(|n| matches!(n, CompiledNode::Hole { .. }))
    }

    /// The output wires driven by `node`, as dense wire indices.
    #[inline]
    pub(crate) fn node_out_wires(&self, node: usize) -> &[u32] {
        &self.out_wires[self.out_start[node] as usize..self.out_start[node + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::EdgeDef;

    fn jtl() -> Arc<Machine> {
        Machine::new(
            "JTL",
            &["a"],
            &["q"],
            5.0,
            2,
            &[EdgeDef {
                src: "idle",
                trigger: "a",
                dst: "idle",
                firing: "q",
                ..Default::default()
            }],
        )
        .unwrap()
    }

    #[test]
    fn interning_is_stable_and_deduplicated() {
        let mut t = SymbolTable::default();
        let a = t.intern("alpha");
        let b = t.intern("beta");
        let a2 = t.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "alpha");
        assert_eq!(t.resolve(b), "beta");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn shared_specs_compile_once() {
        let m = jtl();
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0], "A");
        let q1 = c.add_machine(&m, &[a]).unwrap()[0];
        let _q2 = c.add_machine(&m, &[q1]).unwrap();
        let cc = CompiledCircuit::compile(&c);
        assert_eq!(cc.machine_count(), 1, "one table for both instances");
        assert_eq!(cc.node_count(), 3);
        assert_eq!(cc.theta_len(), 2, "one theta slot per instance input");
    }

    #[test]
    fn event_estimate_scales_with_stimulus_and_nodes() {
        let m = jtl();
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0, 20.0, 30.0], "A");
        let q1 = c.add_machine(&m, &[a]).unwrap()[0];
        let _q2 = c.add_machine(&m, &[q1]).unwrap();
        let cc = CompiledCircuit::compile(&c);
        // 3 stimulus pulses x 2 dispatchable nodes.
        assert_eq!(cc.event_estimate(), 6);
        // The cap bounds pathological products.
        assert!(CompiledCircuit::compile(&c).event_estimate() <= 4096);
    }

    #[test]
    fn stim_schedule_mirrors_scalar_seeding_order() {
        let m = jtl();
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0, 30.0], "A");
        let b = c.inp_at(&[20.0], "B");
        let q = c.add_machine(&m, &[a]).unwrap()[0];
        let _ = c.add_machine(&m, &[b]).unwrap();
        c.inspect(q, "Q");
        let cc = CompiledCircuit::compile(&c);
        // Node order then pulse order — not time order.
        let times: Vec<f64> = cc.stim.iter().map(|s| s.time).collect();
        assert_eq!(times, vec![10.0, 30.0, 20.0]);
        assert_eq!(cc.stim.len(), cc.stim_pulses);
        // Every stim pulse resolves its reading sink.
        assert_eq!(cc.stim[0].sink, (2, 0));
        assert_eq!(cc.stim[2].sink, (3, 0));
    }

    #[test]
    fn compiled_table_matches_machine_semantics() {
        let m = crate::machine::Machine::new(
            "M2",
            &["a", "b"],
            &["q"],
            3.0,
            1,
            &[
                EdgeDef {
                    src: "idle",
                    trigger: "a",
                    dst: "armed",
                    ..Default::default()
                },
                EdgeDef {
                    src: "idle",
                    trigger: "b",
                    dst: "idle",
                    ..Default::default()
                },
                EdgeDef {
                    src: "armed",
                    trigger: "b",
                    dst: "idle",
                    firing: "q",
                    transition_time: 2.0,
                    past_constraints: &[("a", 1.5)],
                    ..Default::default()
                },
                EdgeDef {
                    src: "armed",
                    trigger: "a",
                    dst: "armed",
                    ..Default::default()
                },
            ],
        )
        .unwrap();
        let mut syms = SymbolTable::default();
        let cm = CompiledMachine::compile(&m, &mut syms);
        assert_eq!(cm.table_len(), m.states().len() * m.inputs().len());
        assert_eq!(cm.input_count(), 2);
        for q in 0..m.states().len() {
            for s in 0..m.inputs().len() {
                let orig = m.transition_for(StateId(q), InputId(s));
                let comp = cm.transition(q as u32, s as u32);
                assert_eq!(comp.id as usize, orig.id);
                assert_eq!(comp.dst as usize, orig.dst.0);
                assert_eq!(comp.priority, orig.priority);
                assert_eq!(comp.tau_tran, orig.transition_time);
                let fire: Vec<(u32, f64)> =
                    cm.firings[comp.fire.0 as usize..comp.fire.1 as usize].to_vec();
                let orig_fire: Vec<(u32, f64)> =
                    orig.firing.iter().map(|&(o, d)| (o.0 as u32, d)).collect();
                assert_eq!(fire, orig_fire);
                let past: Vec<(u32, f64)> =
                    cm.pasts[comp.past.0 as usize..comp.past.1 as usize].to_vec();
                let orig_past: Vec<(u32, f64)> = orig
                    .past_constraints
                    .iter()
                    .map(|&(i, d)| (i.0 as u32, d))
                    .collect();
                assert_eq!(past, orig_past);
            }
        }
        assert_eq!(syms.resolve(cm.name), "M2");
        assert_eq!(syms.resolve(cm.states[cm.start as usize]), "idle");
    }

    #[test]
    fn wireless_nodes_get_placeholder_names() {
        // Compilation of any circuit interns the node-wire names; a node
        // always has at least one out wire in practice, so exercise the
        // normal path and the sink sentinel.
        let mut c = Circuit::new();
        let a = c.inp_at(&[1.0], "A");
        let q = c.add_machine(&jtl(), &[a]).unwrap()[0];
        c.inspect(q, "Q");
        let cc = CompiledCircuit::compile(&c);
        assert_eq!(cc.symbols().resolve(cc.node_wire[0]), "A");
        assert_eq!(cc.symbols().resolve(cc.node_wire[1]), "Q");
        // Q has no reader.
        let q_wire = cc.node_out_wires(1)[0] as usize;
        assert_eq!(cc.sink[q_wire].0, u32::MAX);
        // A's wire feeds node 1 port 0.
        let a_wire = cc.node_out_wires(0)[0] as usize;
        assert_eq!(cc.sink[a_wire], (1, 0));
    }
}
