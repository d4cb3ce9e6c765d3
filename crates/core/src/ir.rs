//! A versioned netlist IR: the serializable form of a [`Circuit`].
//!
//! Circuits normally exist only as in-process builder calls. The IR captures
//! everything the engines need — elaborated machines, instance overrides,
//! stimulus schedules, wire names/observation flags, and verification
//! queries — as plain data with a hand-rolled JSON form (the workspace has
//! no serde; see [`json`]) and a canonical content hash, so compiled
//! artifacts can be cached across requests (see [`CompiledCache`]) and
//! circuits can cross process boundaries.
//!
//! Round-tripping is lossless: `Circuit -> Ir -> Circuit` preserves node and
//! wire order exactly (both are semantic — the kernel breaks event ties on
//! node index), so simulation [`Events`](crate::events::Events) are
//! bit-identical.
//!
//! # Canonical hash
//!
//! [`Ir::content_hash`] is FNV-1a 64 over [`Ir::canonical_bytes`], a
//! normalized byte encoding:
//!
//! * the display `name` is metadata and is **excluded**;
//! * machines are encoded inline at each instance node, so the order of the
//!   machine table does not affect the hash;
//! * `-0.0` is normalized to `+0.0` before bit-encoding floats;
//! * queries are an unordered section: each query is encoded separately and
//!   the encodings are sorted before hashing;
//! * nodes and wires are ordered sections, encoded in place.
//!
//! Cache lookups compare the full canonical byte strings, not just the
//! 64-bit hash, so a hash collision can never alias two circuits.

use crate::circuit::{Circuit, Node, NodeId, NodeKind, NodeOverrides, WireData};
use crate::error::{DefinitionError, WiringError};
use crate::machine::{InputId, Machine, OutputId, StateId, Transition};
use std::fmt;
use std::sync::Arc;

pub mod json;

mod cache;
pub use cache::{CacheOutcome, CompiledCache};

use json::JsonValue;

/// The IR format version written by this crate and accepted on import.
pub const IR_VERSION: u32 = 1;

/// A serializable netlist: the complete structural description of a
/// [`Circuit`] plus optional verification queries.
#[derive(Debug, Clone, PartialEq)]
pub struct Ir {
    /// Format version ([`IR_VERSION`]).
    pub version: u32,
    /// Display name (metadata only — excluded from the content hash).
    pub name: String,
    /// Deduplicated machine table; instance nodes index into it.
    pub machines: Vec<IrMachine>,
    /// Nodes in circuit order (order is semantic: event ties break on node
    /// index).
    pub nodes: Vec<IrNode>,
    /// Wires in circuit order.
    pub wires: Vec<IrWire>,
    /// Verification queries (an unordered section of the hash).
    pub queries: Vec<IrQuery>,
}

/// An elaborated machine: the fully resolved transition system, not the
/// `EdgeDef` sugar it was defined with.
#[derive(Debug, Clone, PartialEq)]
pub struct IrMachine {
    /// Cell type name, e.g. `JTL`.
    pub name: String,
    /// Input symbol names `Σ`.
    pub inputs: Vec<String>,
    /// Output symbol names `Λ`.
    pub outputs: Vec<String>,
    /// State names `Q` (must contain `idle`, the initial state).
    pub states: Vec<String>,
    /// Default firing delay `τ_fire`.
    pub firing_delay: f64,
    /// Josephson-junction count (area metric).
    pub jjs: u32,
    /// Nominal setup time.
    pub setup_time: f64,
    /// Nominal hold time.
    pub hold_time: f64,
    /// Elaborated transitions; list position is the transition id.
    pub transitions: Vec<IrTransition>,
}

/// One elaborated transition of an [`IrMachine`]. All cross-references are
/// indices into the machine's `states` / `inputs` / `outputs` lists.
#[derive(Debug, Clone, PartialEq)]
pub struct IrTransition {
    /// Index of the source-language edge this was expanded from (feeds
    /// `definition_size` and diagnostics).
    pub def_index: usize,
    /// Source state index.
    pub src: usize,
    /// Triggering input index.
    pub trigger: usize,
    /// Destination state index.
    pub dst: usize,
    /// Priority among simultaneous triggers; lower wins.
    pub priority: u32,
    /// `τ_tran`: time for the transition to complete.
    pub transition_time: f64,
    /// `(output index, firing delay)` pairs.
    pub firing: Vec<(usize, f64)>,
    /// `(input index, required distance)` past constraints.
    pub past_constraints: Vec<(usize, f64)>,
}

/// Per-instance overrides, mirroring [`NodeOverrides`]. The serialized
/// machine is the *effective* (post-override) spec, so on import these are
/// stored verbatim and never re-applied.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IrOverrides {
    /// Firing-delay override recorded at instantiation.
    pub firing_delay: Option<f64>,
    /// Transition-time override recorded at instantiation.
    pub transition_time: Option<f64>,
    /// JJ-count override.
    pub jjs: Option<u32>,
    /// Exempt this instance from simulation-wide variability.
    pub exempt_from_variability: bool,
}

/// One node of the netlist.
#[derive(Debug, Clone, PartialEq)]
pub enum IrNode {
    /// External stimulus: pulses at fixed, sorted, finite, non-negative
    /// times on the node's single output wire.
    Source {
        /// The pulse schedule.
        pulses: Vec<f64>,
    },
    /// A machine instance.
    Instance {
        /// Index into [`Ir::machines`].
        machine: usize,
        /// Instantiation overrides (informational; already applied to the
        /// referenced machine).
        overrides: IrOverrides,
    },
}

/// One wire of the netlist. `driver: None` encodes a retired loopback
/// placeholder (the builder's [`Circuit::loopback_wire`] after
/// [`Circuit::close_loop`]), kept so wire indices round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct IrWire {
    /// Wire name (auto-generated `_N` names included).
    pub name: String,
    /// True if the wire appears in simulation events.
    pub observed: bool,
    /// `(node, output port)` driving the wire, or `None` for a retired
    /// loopback placeholder.
    pub driver: Option<(usize, usize)>,
    /// `(node, input port)` reading the wire, if any.
    pub sink: Option<(usize, usize)>,
}

/// A verification query carried alongside the netlist, consumed by the
/// model checker (`rlse-ta` decodes these into `McQuery` values).
#[derive(Debug, Clone, PartialEq)]
pub enum IrQuery {
    /// Table 3, Query 2: no machine can reach the error state.
    NoErrorState,
    /// Table 3, Query 1: each listed output pulses only at (approximately)
    /// the listed times.
    OutputsOnlyAt {
        /// `(output wire name, expected pulse times)` pairs.
        outputs: Vec<(String, Vec<f64>)>,
    },
}

/// Why an IR could not be produced, parsed, or imported.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum IrError {
    /// The JSON text did not parse.
    Json(json::JsonError),
    /// The JSON parsed but does not have the IR shape.
    Malformed(String),
    /// The document's `version` is not [`IR_VERSION`].
    Version {
        /// The version found in the document.
        found: u32,
    },
    /// The circuit contains a behavioral hole, which has no serializable
    /// form (holes are arbitrary host functions).
    UnsupportedHole {
        /// The hole's name.
        name: String,
    },
    /// The circuit has a loopback wire that was never closed.
    PendingLoopback {
        /// The placeholder wire's name.
        wire: String,
    },
    /// A machine in the document failed re-validation.
    Definition(DefinitionError),
    /// The netlist wiring is inconsistent (bad stimulus, unconnected input,
    /// duplicate observed name, ...).
    Wiring(WiringError),
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::Json(e) => write!(f, "{e}"),
            IrError::Malformed(msg) => write!(f, "malformed IR document: {msg}"),
            IrError::Version { found } => write!(
                f,
                "unsupported IR version {found} (this build reads version {IR_VERSION})"
            ),
            IrError::UnsupportedHole { name } => write!(
                f,
                "circuit contains behavioral hole '{name}', which cannot be serialized"
            ),
            IrError::PendingLoopback { wire } => write!(
                f,
                "circuit has a pending loopback wire '{wire}' that was never closed"
            ),
            IrError::Definition(e) => write!(f, "{e}"),
            IrError::Wiring(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for IrError {}

impl From<json::JsonError> for IrError {
    fn from(e: json::JsonError) -> Self {
        IrError::Json(e)
    }
}
impl From<DefinitionError> for IrError {
    fn from(e: DefinitionError) -> Self {
        IrError::Definition(e)
    }
}
impl From<WiringError> for IrError {
    fn from(e: WiringError) -> Self {
        IrError::Wiring(e)
    }
}

impl IrMachine {
    fn from_machine(m: &Machine) -> IrMachine {
        IrMachine {
            name: m.name().to_string(),
            inputs: m.inputs().to_vec(),
            outputs: m.outputs().to_vec(),
            states: m.states().to_vec(),
            firing_delay: m.firing_delay(),
            jjs: m.jjs(),
            setup_time: m.setup_time(),
            hold_time: m.hold_time(),
            transitions: m
                .transitions()
                .iter()
                .map(|t| IrTransition {
                    def_index: t.def_index,
                    src: t.src.0,
                    trigger: t.trigger.0,
                    dst: t.dst.0,
                    priority: t.priority,
                    transition_time: t.transition_time,
                    firing: t.firing.iter().map(|&(o, d)| (o.0, d)).collect(),
                    past_constraints: t
                        .past_constraints
                        .iter()
                        .map(|&(i, d)| (i.0, d))
                        .collect(),
                })
                .collect(),
        }
    }

    fn to_machine(&self) -> Result<Arc<Machine>, IrError> {
        let transitions: Vec<Transition> = self
            .transitions
            .iter()
            .enumerate()
            .map(|(i, t)| Transition {
                id: i,
                def_index: t.def_index,
                src: StateId(t.src),
                trigger: InputId(t.trigger),
                dst: StateId(t.dst),
                priority: t.priority,
                transition_time: t.transition_time,
                firing: t.firing.iter().map(|&(o, d)| (OutputId(o), d)).collect(),
                past_constraints: t
                    .past_constraints
                    .iter()
                    .map(|&(i, d)| (InputId(i), d))
                    .collect(),
            })
            .collect();
        Ok(Machine::from_parts(crate::machine::MachineParts {
            name: self.name.clone(),
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
            states: self.states.clone(),
            transitions,
            firing_delay: self.firing_delay,
            jjs: self.jjs,
            setup_time: self.setup_time,
            hold_time: self.hold_time,
        })?)
    }
}

impl Ir {
    /// Serialize a circuit.
    ///
    /// # Errors
    ///
    /// * [`IrError::UnsupportedHole`] — the circuit contains a behavioral
    ///   hole (an arbitrary host function; not serializable).
    /// * [`IrError::PendingLoopback`] — a loopback wire was never closed.
    pub fn from_circuit(c: &Circuit) -> Result<Ir, IrError> {
        let mut machines: Vec<IrMachine> = Vec::new();
        let mut nodes = Vec::with_capacity(c.nodes.len());
        for n in &c.nodes {
            match &n.kind {
                NodeKind::Source { pulses } => nodes.push(IrNode::Source {
                    pulses: pulses.clone(),
                }),
                NodeKind::Machine { spec, overrides } => {
                    let im = IrMachine::from_machine(spec);
                    let machine = match machines.iter().position(|m| *m == im) {
                        Some(i) => i,
                        None => {
                            machines.push(im);
                            machines.len() - 1
                        }
                    };
                    nodes.push(IrNode::Instance {
                        machine,
                        overrides: IrOverrides {
                            firing_delay: overrides.firing_delay,
                            transition_time: overrides.transition_time,
                            jjs: overrides.jjs,
                            exempt_from_variability: overrides.exempt_from_variability,
                        },
                    });
                }
                NodeKind::Hole(h) => {
                    return Err(IrError::UnsupportedHole {
                        name: h.name().to_string(),
                    })
                }
            }
        }
        let mut wires = Vec::with_capacity(c.wires.len());
        for w in &c.wires {
            let driver = if w.driver.0 == NodeId(usize::MAX) {
                if w.sink.is_some() {
                    return Err(IrError::PendingLoopback {
                        wire: w.name.clone(),
                    });
                }
                None
            } else {
                Some((w.driver.0 .0, w.driver.1))
            };
            wires.push(IrWire {
                name: w.name.clone(),
                observed: w.observed,
                driver,
                sink: w.sink.map(|(n, p)| (n.0, p)),
            });
        }
        Ok(Ir {
            version: IR_VERSION,
            name: String::new(),
            machines,
            nodes,
            wires,
            queries: Vec::new(),
        })
    }

    /// Set the display name (builder style).
    #[must_use]
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Rebuild the circuit this IR describes. Node and wire order are
    /// reproduced exactly, so simulation events are bit-identical to the
    /// exported circuit's.
    ///
    /// # Errors
    ///
    /// * [`IrError::Version`] — written by a different format version.
    /// * [`IrError::Definition`] — a machine failed re-validation.
    /// * [`IrError::Wiring`] — inconsistent wiring: bad stimulus times, a
    ///   port left unconnected or doubly driven, duplicate observed names,
    ///   or a pending loopback.
    /// * [`IrError::Malformed`] — dangling node/machine indices.
    pub fn to_circuit(&self) -> Result<Circuit, IrError> {
        if self.version != IR_VERSION {
            return Err(IrError::Version {
                found: self.version,
            });
        }
        let specs: Vec<Arc<Machine>> = self
            .machines
            .iter()
            .map(|m| m.to_machine())
            .collect::<Result<_, _>>()?;

        // Per-node expected port arities and wire slots.
        let mut out_slots: Vec<Vec<Option<usize>>> = Vec::with_capacity(self.nodes.len());
        let mut in_slots: Vec<Vec<Option<usize>>> = Vec::with_capacity(self.nodes.len());
        for (ni, n) in self.nodes.iter().enumerate() {
            let (n_out, n_in) = match n {
                IrNode::Source { pulses } => {
                    for &t in pulses {
                        if !(t.is_finite() && t >= 0.0) {
                            return Err(IrError::Wiring(WiringError::InvalidStimulus {
                                wire: format!("source node {ni}"),
                                reason: format!(
                                    "pulse time {t} must be finite and non-negative"
                                ),
                            }));
                        }
                    }
                    if pulses.windows(2).any(|w| w[0] > w[1]) {
                        return Err(IrError::Wiring(WiringError::InvalidStimulus {
                            wire: format!("source node {ni}"),
                            reason: "pulse times must be sorted non-decreasing".into(),
                        }));
                    }
                    (1, 0)
                }
                IrNode::Instance { machine, .. } => {
                    let spec = specs.get(*machine).ok_or_else(|| {
                        IrError::Malformed(format!(
                            "node {ni} references machine {machine}, but only {} machines \
                             are defined",
                            specs.len()
                        ))
                    })?;
                    (spec.outputs().len(), spec.inputs().len())
                }
            };
            out_slots.push(vec![None; n_out]);
            in_slots.push(vec![None; n_in]);
        }

        for (wi, w) in self.wires.iter().enumerate() {
            if let Some((n, p)) = w.driver {
                let slots = out_slots.get_mut(n).ok_or_else(|| {
                    IrError::Malformed(format!("wire '{}' driven by unknown node {n}", w.name))
                })?;
                let slot = slots.get_mut(p).ok_or_else(|| {
                    IrError::Malformed(format!(
                        "wire '{}' driven by node {n} port {p}, which is out of range",
                        w.name
                    ))
                })?;
                if slot.is_some() {
                    return Err(IrError::Wiring(WiringError::AlreadyDriven {
                        wire: w.name.clone(),
                    }));
                }
                *slot = Some(wi);
            } else if w.sink.is_some() {
                return Err(IrError::PendingLoopback {
                    wire: w.name.clone(),
                });
            }
            if let Some((n, p)) = w.sink {
                let slots = in_slots.get_mut(n).ok_or_else(|| {
                    IrError::Malformed(format!("wire '{}' read by unknown node {n}", w.name))
                })?;
                let slot = slots.get_mut(p).ok_or_else(|| {
                    IrError::Malformed(format!(
                        "wire '{}' read by node {n} port {p}, which is out of range",
                        w.name
                    ))
                })?;
                if slot.is_some() {
                    return Err(IrError::Wiring(WiringError::FanoutViolation {
                        wire: w.name.clone(),
                    }));
                }
                *slot = Some(wi);
            }
        }

        let mut nodes = Vec::with_capacity(self.nodes.len());
        for (ni, n) in self.nodes.iter().enumerate() {
            let out_wires: Vec<usize> = out_slots[ni]
                .iter()
                .enumerate()
                .map(|(p, s)| {
                    s.ok_or_else(|| {
                        IrError::Malformed(format!("node {ni} output port {p} drives no wire"))
                    })
                })
                .collect::<Result<_, _>>()?;
            let in_wires: Vec<usize> = in_slots[ni]
                .iter()
                .enumerate()
                .map(|(p, s)| {
                    s.ok_or_else(|| {
                        IrError::Wiring(WiringError::Unconnected {
                            node: format!("#{ni}"),
                            port: format!("#{p}"),
                        })
                    })
                })
                .collect::<Result<_, _>>()?;
            let kind = match n {
                IrNode::Source { pulses } => NodeKind::Source {
                    pulses: pulses.clone(),
                },
                IrNode::Instance { machine, overrides } => NodeKind::Machine {
                    spec: Arc::clone(&specs[*machine]),
                    overrides: NodeOverrides {
                        firing_delay: overrides.firing_delay,
                        transition_time: overrides.transition_time,
                        jjs: overrides.jjs,
                        exempt_from_variability: overrides.exempt_from_variability,
                    },
                },
            };
            nodes.push(Node {
                kind,
                out_wires,
                in_wires,
            });
        }

        let wires: Vec<WireData> = self
            .wires
            .iter()
            .map(|w| WireData {
                name: w.name.clone(),
                observed: w.observed,
                driver: w
                    .driver
                    .map(|(n, p)| (NodeId(n), p))
                    .unwrap_or((NodeId(usize::MAX), 0)),
                sink: w.sink.map(|(n, p)| (NodeId(n), p)),
            })
            .collect();

        // Seed auto-naming past any `_N` names already present.
        let anon_counter = wires
            .iter()
            .filter_map(|w| w.name.strip_prefix('_').and_then(|s| s.parse::<usize>().ok()))
            .map(|n| n + 1)
            .max()
            .unwrap_or(0);

        let circuit = Circuit::from_parts(nodes, wires, anon_counter);
        circuit.check()?;
        Ok(circuit)
    }

    // ------------------------------------------------------------------
    // JSON
    // ------------------------------------------------------------------

    /// The document as a [`JsonValue`] tree (keys in a fixed order, so the
    /// rendering is byte-stable).
    pub fn to_value(&self) -> JsonValue {
        use JsonValue as J;
        let num = |n: usize| J::Num(n as f64);
        let pair_list = |ps: &[(usize, f64)]| {
            J::Arr(
                ps.iter()
                    .map(|&(i, d)| J::Arr(vec![num(i), J::Num(d)]))
                    .collect(),
            )
        };
        let machines = self
            .machines
            .iter()
            .map(|m| {
                J::Obj(vec![
                    ("name".into(), J::Str(m.name.clone())),
                    (
                        "inputs".into(),
                        J::Arr(m.inputs.iter().map(|s| J::Str(s.clone())).collect()),
                    ),
                    (
                        "outputs".into(),
                        J::Arr(m.outputs.iter().map(|s| J::Str(s.clone())).collect()),
                    ),
                    (
                        "states".into(),
                        J::Arr(m.states.iter().map(|s| J::Str(s.clone())).collect()),
                    ),
                    ("firing_delay".into(), J::Num(m.firing_delay)),
                    ("jjs".into(), J::Num(m.jjs as f64)),
                    ("setup_time".into(), J::Num(m.setup_time)),
                    ("hold_time".into(), J::Num(m.hold_time)),
                    (
                        "transitions".into(),
                        J::Arr(
                            m.transitions
                                .iter()
                                .map(|t| {
                                    J::Obj(vec![
                                        ("def".into(), num(t.def_index)),
                                        ("src".into(), num(t.src)),
                                        ("trigger".into(), num(t.trigger)),
                                        ("dst".into(), num(t.dst)),
                                        ("priority".into(), J::Num(t.priority as f64)),
                                        ("transition_time".into(), J::Num(t.transition_time)),
                                        ("firing".into(), pair_list(&t.firing)),
                                        ("past".into(), pair_list(&t.past_constraints)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        let nodes = self
            .nodes
            .iter()
            .map(|n| match n {
                IrNode::Source { pulses } => J::Obj(vec![
                    ("kind".into(), J::Str("source".into())),
                    (
                        "pulses".into(),
                        J::Arr(pulses.iter().map(|&t| J::Num(t)).collect()),
                    ),
                ]),
                IrNode::Instance { machine, overrides } => {
                    let mut fields = vec![
                        ("kind".into(), J::Str("cell".into())),
                        ("machine".into(), num(*machine)),
                    ];
                    if let Some(d) = overrides.firing_delay {
                        fields.push(("firing_delay".into(), J::Num(d)));
                    }
                    if let Some(t) = overrides.transition_time {
                        fields.push(("transition_time".into(), J::Num(t)));
                    }
                    if let Some(j) = overrides.jjs {
                        fields.push(("jjs".into(), J::Num(j as f64)));
                    }
                    if overrides.exempt_from_variability {
                        fields.push(("exempt".into(), J::Bool(true)));
                    }
                    J::Obj(fields)
                }
            })
            .collect();
        let wires = self
            .wires
            .iter()
            .map(|w| {
                let mut fields = vec![
                    ("name".into(), J::Str(w.name.clone())),
                    ("observed".into(), J::Bool(w.observed)),
                ];
                if let Some((n, p)) = w.driver {
                    fields.push(("driver".into(), J::Arr(vec![num(n), num(p)])));
                }
                if let Some((n, p)) = w.sink {
                    fields.push(("sink".into(), J::Arr(vec![num(n), num(p)])));
                }
                J::Obj(fields)
            })
            .collect();
        let queries = self
            .queries
            .iter()
            .map(|q| match q {
                IrQuery::NoErrorState => J::Obj(vec![(
                    "kind".into(),
                    J::Str("no_error_state".into()),
                )]),
                IrQuery::OutputsOnlyAt { outputs } => J::Obj(vec![
                    ("kind".into(), J::Str("outputs_only_at".into())),
                    (
                        "outputs".into(),
                        J::Arr(
                            outputs
                                .iter()
                                .map(|(name, times)| {
                                    J::Arr(vec![
                                        J::Str(name.clone()),
                                        J::Arr(times.iter().map(|&t| J::Num(t)).collect()),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            })
            .collect();
        J::Obj(vec![
            ("version".into(), J::Num(self.version as f64)),
            ("name".into(), J::Str(self.name.clone())),
            ("machines".into(), J::Arr(machines)),
            ("nodes".into(), J::Arr(nodes)),
            ("wires".into(), J::Arr(wires)),
            ("queries".into(), J::Arr(queries)),
        ])
    }

    /// Pretty multi-line JSON (the golden-fixture form), with a trailing
    /// newline. Byte-stable for equal IRs.
    pub fn to_json(&self) -> String {
        let mut s = self.to_value().to_pretty();
        s.push('\n');
        s
    }

    /// Parse an IR document from JSON text (either rendering).
    ///
    /// # Errors
    ///
    /// [`IrError::Json`] when the text is not JSON; [`IrError::Malformed`]
    /// when it is JSON of the wrong shape; [`IrError::Version`] on a format
    /// version mismatch.
    pub fn from_json(s: &str) -> Result<Ir, IrError> {
        Self::from_value(&JsonValue::parse(s)?)
    }

    /// Decode an IR document from an already-parsed [`JsonValue`].
    ///
    /// # Errors
    ///
    /// See [`Ir::from_json`].
    pub fn from_value(v: &JsonValue) -> Result<Ir, IrError> {
        let version = get_u32(v, "version", "document")?;
        if version != IR_VERSION {
            return Err(IrError::Version { found: version });
        }
        let name = get_str(v, "name", "document")?.to_string();
        let machines: Vec<IrMachine> = get_arr(v, "machines", "document")?
            .iter()
            .enumerate()
            .map(|(i, m)| parse_machine(m, i))
            .collect::<Result<_, _>>()?;
        let nodes: Vec<IrNode> = get_arr(v, "nodes", "document")?
            .iter()
            .enumerate()
            .map(|(i, n)| parse_node(n, i))
            .collect::<Result<_, _>>()?;
        // Machine indices are range-checked here so every decoded `Ir` can
        // be hashed: `canonical_bytes` inlines the referenced machine and
        // must never see a dangling index from untrusted input.
        for (i, n) in nodes.iter().enumerate() {
            if let IrNode::Instance { machine, .. } = n {
                if *machine >= machines.len() {
                    return Err(IrError::Malformed(format!(
                        "node {i} references machine {machine}, but only {} machines \
                         are defined",
                        machines.len()
                    )));
                }
            }
        }
        let wires = get_arr(v, "wires", "document")?
            .iter()
            .enumerate()
            .map(|(i, w)| parse_wire(w, i))
            .collect::<Result<_, _>>()?;
        let queries = get_arr(v, "queries", "document")?
            .iter()
            .enumerate()
            .map(|(i, q)| parse_query(q, i))
            .collect::<Result<_, _>>()?;
        Ok(Ir {
            version,
            name,
            machines,
            nodes,
            wires,
            queries,
        })
    }

    // ------------------------------------------------------------------
    // Canonical encoding and hash
    // ------------------------------------------------------------------

    /// The normalized byte encoding hashed by [`content_hash`]
    /// (see the module docs for the canonicalization rules). Cache entries
    /// compare these bytes exactly, so the 64-bit hash can never alias.
    ///
    /// # Panics
    ///
    /// If an instance node references a machine index outside
    /// [`Ir::machines`]. Decoded documents can never trigger this
    /// ([`Ir::from_value`] range-checks machine indices); only a hand-built
    /// `Ir` with a dangling index can.
    ///
    /// [`content_hash`]: Ir::content_hash
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut e = Enc::default();
        e.bytes(b"RLSE-IR");
        e.u32(self.version);
        e.u64(self.nodes.len() as u64);
        for n in &self.nodes {
            match n {
                IrNode::Source { pulses } => {
                    e.u8(1);
                    e.u64(pulses.len() as u64);
                    for &t in pulses {
                        e.f64(t);
                    }
                }
                IrNode::Instance { machine, overrides } => {
                    e.u8(2);
                    // Inline the machine's content so machine-table order
                    // never affects the hash.
                    e.machine(&self.machines[*machine]);
                    e.opt_f64(overrides.firing_delay);
                    e.opt_f64(overrides.transition_time);
                    match overrides.jjs {
                        Some(j) => {
                            e.u8(1);
                            e.u32(j);
                        }
                        None => e.u8(0),
                    }
                    e.u8(overrides.exempt_from_variability as u8);
                }
            }
        }
        e.u64(self.wires.len() as u64);
        for w in &self.wires {
            e.str(&w.name);
            e.u8(w.observed as u8);
            e.opt_port(w.driver);
            e.opt_port(w.sink);
        }
        // Queries are an unordered section: sort their encodings.
        let mut encoded: Vec<Vec<u8>> = self
            .queries
            .iter()
            .map(|q| {
                let mut qe = Enc::default();
                match q {
                    IrQuery::NoErrorState => qe.u8(1),
                    IrQuery::OutputsOnlyAt { outputs } => {
                        qe.u8(2);
                        qe.u64(outputs.len() as u64);
                        for (name, times) in outputs {
                            qe.str(name);
                            qe.u64(times.len() as u64);
                            for &t in times {
                                qe.f64(t);
                            }
                        }
                    }
                }
                qe.buf
            })
            .collect();
        encoded.sort();
        e.u64(encoded.len() as u64);
        for q in encoded {
            e.u64(q.len() as u64);
            e.bytes(&q);
        }
        e.buf
    }

    /// FNV-1a 64 over [`canonical_bytes`](Ir::canonical_bytes): the cache
    /// key. Stable across processes and platforms.
    ///
    /// # Panics
    ///
    /// See [`Ir::canonical_bytes`].
    pub fn content_hash(&self) -> u64 {
        fnv1a(&self.canonical_bytes())
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte string (the same constants as the compiled
/// kernel's symbol interner).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Canonical byte encoder: little-endian fixed-width scalars,
/// length-prefixed strings, `-0.0` normalized to `+0.0`.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        let norm = if v == 0.0 { 0.0 } else { v };
        self.bytes(&norm.to_bits().to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }
    fn opt_port(&mut self, v: Option<(usize, usize)>) {
        match v {
            Some((n, p)) => {
                self.u8(1);
                self.u64(n as u64);
                self.u64(p as u64);
            }
            None => self.u8(0),
        }
    }
    fn machine(&mut self, m: &IrMachine) {
        self.str(&m.name);
        self.u64(m.inputs.len() as u64);
        for s in &m.inputs {
            self.str(s);
        }
        self.u64(m.outputs.len() as u64);
        for s in &m.outputs {
            self.str(s);
        }
        self.u64(m.states.len() as u64);
        for s in &m.states {
            self.str(s);
        }
        self.f64(m.firing_delay);
        self.u32(m.jjs);
        self.f64(m.setup_time);
        self.f64(m.hold_time);
        self.u64(m.transitions.len() as u64);
        for t in &m.transitions {
            self.u64(t.def_index as u64);
            self.u64(t.src as u64);
            self.u64(t.trigger as u64);
            self.u64(t.dst as u64);
            self.u32(t.priority);
            self.f64(t.transition_time);
            self.u64(t.firing.len() as u64);
            for &(o, d) in &t.firing {
                self.u64(o as u64);
                self.f64(d);
            }
            self.u64(t.past_constraints.len() as u64);
            for &(i, d) in &t.past_constraints {
                self.u64(i as u64);
                self.f64(d);
            }
        }
    }
}

// ----------------------------------------------------------------------
// JSON shape helpers
// ----------------------------------------------------------------------

fn malformed(ctx: &str, key: &str, want: &str) -> IrError {
    IrError::Malformed(format!("{ctx}: field '{key}' must be {want}"))
}

/// Member `key` through the shared [`JsonValue::field`] reader (absent or
/// `null` is `None`), its error prefixed with `ctx`.
fn opt<'a, T>(
    v: &'a JsonValue,
    key: &str,
    ctx: &str,
    want: &str,
    as_t: impl FnOnce(&'a JsonValue) -> Option<T>,
) -> Result<Option<T>, IrError> {
    v.field(key, want, as_t)
        .map_err(|e| IrError::Malformed(format!("{ctx}: {e}")))
}

/// A required member: [`opt`], with absence the wrong-shape error.
fn req<'a, T>(
    v: &'a JsonValue,
    key: &str,
    ctx: &str,
    want: &str,
    as_t: impl FnOnce(&'a JsonValue) -> Option<T>,
) -> Result<T, IrError> {
    opt(v, key, ctx, want, as_t)?.ok_or_else(|| malformed(ctx, key, want))
}

fn get_f64(v: &JsonValue, key: &str, ctx: &str) -> Result<f64, IrError> {
    req(v, key, ctx, "a number", JsonValue::as_f64)
}

fn get_usize(v: &JsonValue, key: &str, ctx: &str) -> Result<usize, IrError> {
    req(v, key, ctx, "a non-negative integer", JsonValue::as_usize)
}

fn get_u32(v: &JsonValue, key: &str, ctx: &str) -> Result<u32, IrError> {
    let n = get_usize(v, key, ctx)?;
    u32::try_from(n).map_err(|_| malformed(ctx, key, "an integer no larger than 4294967295"))
}

fn get_str<'a>(v: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a str, IrError> {
    req(v, key, ctx, "a string", JsonValue::as_str)
}

fn get_bool(v: &JsonValue, key: &str, ctx: &str) -> Result<bool, IrError> {
    req(v, key, ctx, "a boolean", JsonValue::as_bool)
}

fn get_arr<'a>(v: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a [JsonValue], IrError> {
    req(v, key, ctx, "an array", JsonValue::as_arr)
}

fn str_list(items: &[JsonValue], ctx: &str) -> Result<Vec<String>, IrError> {
    items
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| IrError::Malformed(format!("{ctx}: expected a string list")))
        })
        .collect()
}

fn f64_list(items: &[JsonValue], ctx: &str) -> Result<Vec<f64>, IrError> {
    items
        .iter()
        .map(|s| {
            s.as_f64()
                .ok_or_else(|| IrError::Malformed(format!("{ctx}: expected a number list")))
        })
        .collect()
}

fn pair_list(items: &[JsonValue], ctx: &str) -> Result<Vec<(usize, f64)>, IrError> {
    items
        .iter()
        .map(|p| {
            let pair = p.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                IrError::Malformed(format!("{ctx}: expected [index, delay] pairs"))
            })?;
            let i = pair[0]
                .as_usize()
                .ok_or_else(|| IrError::Malformed(format!("{ctx}: pair index must be an integer")))?;
            let d = pair[1]
                .as_f64()
                .ok_or_else(|| IrError::Malformed(format!("{ctx}: pair delay must be a number")))?;
            Ok((i, d))
        })
        .collect()
}

fn opt_port_field(
    v: &JsonValue,
    key: &str,
    ctx: &str,
) -> Result<Option<(usize, usize)>, IrError> {
    let pair = opt(v, key, ctx, "a [node, port] pair", |p| {
        p.as_arr().filter(|a| a.len() == 2)
    })?;
    match pair.map(|p| (p[0].as_usize(), p[1].as_usize())) {
        None => Ok(None),
        Some((Some(n), Some(port))) => Ok(Some((n, port))),
        Some(_) => Err(malformed(ctx, key, "a [node, port] pair of integers")),
    }
}

fn parse_machine(v: &JsonValue, index: usize) -> Result<IrMachine, IrError> {
    let ctx = format!("machine {index}");
    let transitions = get_arr(v, "transitions", &ctx)?
        .iter()
        .enumerate()
        .map(|(ti, t)| {
            let tctx = format!("{ctx} transition {ti}");
            Ok(IrTransition {
                def_index: get_usize(t, "def", &tctx)?,
                src: get_usize(t, "src", &tctx)?,
                trigger: get_usize(t, "trigger", &tctx)?,
                dst: get_usize(t, "dst", &tctx)?,
                priority: get_u32(t, "priority", &tctx)?,
                transition_time: get_f64(t, "transition_time", &tctx)?,
                firing: pair_list(get_arr(t, "firing", &tctx)?, &tctx)?,
                past_constraints: pair_list(get_arr(t, "past", &tctx)?, &tctx)?,
            })
        })
        .collect::<Result<_, IrError>>()?;
    Ok(IrMachine {
        name: get_str(v, "name", &ctx)?.to_string(),
        inputs: str_list(get_arr(v, "inputs", &ctx)?, &ctx)?,
        outputs: str_list(get_arr(v, "outputs", &ctx)?, &ctx)?,
        states: str_list(get_arr(v, "states", &ctx)?, &ctx)?,
        firing_delay: get_f64(v, "firing_delay", &ctx)?,
        jjs: get_u32(v, "jjs", &ctx)?,
        setup_time: get_f64(v, "setup_time", &ctx)?,
        hold_time: get_f64(v, "hold_time", &ctx)?,
        transitions,
    })
}

fn parse_node(v: &JsonValue, index: usize) -> Result<IrNode, IrError> {
    let ctx = format!("node {index}");
    match get_str(v, "kind", &ctx)? {
        "source" => Ok(IrNode::Source {
            pulses: f64_list(get_arr(v, "pulses", &ctx)?, &ctx)?,
        }),
        "cell" => {
            let jjs = |d: &JsonValue| d.as_usize().and_then(|n| u32::try_from(n).ok());
            let overrides = IrOverrides {
                firing_delay: opt(v, "firing_delay", &ctx, "a number", JsonValue::as_f64)?,
                transition_time: opt(v, "transition_time", &ctx, "a number", JsonValue::as_f64)?,
                jjs: opt(v, "jjs", &ctx, "an integer no larger than 4294967295", jjs)?,
                exempt_from_variability: opt(v, "exempt", &ctx, "a boolean", JsonValue::as_bool)?
                    .unwrap_or(false),
            };
            Ok(IrNode::Instance {
                machine: get_usize(v, "machine", &ctx)?,
                overrides,
            })
        }
        other => Err(IrError::Malformed(format!(
            "{ctx}: unknown node kind '{other}'"
        ))),
    }
}

fn parse_wire(v: &JsonValue, index: usize) -> Result<IrWire, IrError> {
    let ctx = format!("wire {index}");
    Ok(IrWire {
        name: get_str(v, "name", &ctx)?.to_string(),
        observed: get_bool(v, "observed", &ctx)?,
        driver: opt_port_field(v, "driver", &ctx)?,
        sink: opt_port_field(v, "sink", &ctx)?,
    })
}

fn parse_query(v: &JsonValue, index: usize) -> Result<IrQuery, IrError> {
    let ctx = format!("query {index}");
    match get_str(v, "kind", &ctx)? {
        "no_error_state" => Ok(IrQuery::NoErrorState),
        "outputs_only_at" => {
            let outputs = get_arr(v, "outputs", &ctx)?
                .iter()
                .map(|o| {
                    let pair = o.as_arr().filter(|a| a.len() == 2).ok_or_else(|| {
                        IrError::Malformed(format!("{ctx}: expected [name, times] pairs"))
                    })?;
                    let name = pair[0].as_str().ok_or_else(|| {
                        IrError::Malformed(format!("{ctx}: output name must be a string"))
                    })?;
                    let times = pair[1].as_arr().ok_or_else(|| {
                        IrError::Malformed(format!("{ctx}: output times must be an array"))
                    })?;
                    Ok((name.to_string(), f64_list(times, &ctx)?))
                })
                .collect::<Result<_, IrError>>()?;
            Ok(IrQuery::OutputsOnlyAt { outputs })
        }
        other => Err(IrError::Malformed(format!(
            "{ctx}: unknown query kind '{other}'"
        ))),
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use crate::machine::EdgeDef;

    /// A three-node JTL chain as an IR — shared by the cache tests.
    pub(crate) fn small_jtl_ir() -> Ir {
        let jtl = Machine::new(
            "JTL",
            &["a"],
            &["q"],
            5.7,
            2,
            &[EdgeDef {
                src: "idle",
                trigger: "a",
                dst: "idle",
                firing: "q",
                ..Default::default()
            }],
        )
        .unwrap();
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0, 25.0], "A");
        let q = c.add_machine(&jtl, &[a]).unwrap()[0];
        let r = c.add_machine(&jtl, &[q]).unwrap()[0];
        c.inspect(r, "Q");
        Ir::from_circuit(&c).unwrap().with_name("jtl_chain")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::EdgeDef;
    use crate::sim::Simulation;

    fn jtl() -> Arc<Machine> {
        Machine::new(
            "JTL",
            &["a"],
            &["q"],
            5.7,
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

    fn small_circuit() -> Circuit {
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0, 25.0, 40.0], "A");
        let q = c.add_machine(&jtl(), &[a]).unwrap()[0];
        let r = c
            .add_machine_with(
                &jtl(),
                &[q],
                NodeOverrides {
                    firing_delay: Some(2.0),
                    exempt_from_variability: true,
                    ..Default::default()
                },
            )
            .unwrap()[0];
        c.inspect(r, "Q");
        c
    }

    #[test]
    fn round_trip_preserves_structure_and_events() {
        let c = small_circuit();
        let ir = Ir::from_circuit(&c).unwrap();
        let c2 = ir.to_circuit().unwrap();
        assert_eq!(c.node_count(), c2.node_count());
        assert_eq!(c.wire_count(), c2.wire_count());
        let e1 = Simulation::new(small_circuit()).run().unwrap();
        let e2 = Simulation::new(c2).run().unwrap();
        assert_eq!(e1, e2);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let mut ir = Ir::from_circuit(&small_circuit()).unwrap().with_name("jtl2");
        ir.queries = vec![
            IrQuery::NoErrorState,
            IrQuery::OutputsOnlyAt {
                outputs: vec![("Q".into(), vec![17.4, 32.4, 47.4])],
            },
        ];
        let text = ir.to_json();
        let back = Ir::from_json(&text).unwrap();
        assert_eq!(ir, back);
        assert_eq!(ir.content_hash(), back.content_hash());
        // Compact rendering parses to the same document too.
        let compact = ir.to_value().to_compact();
        assert_eq!(Ir::from_json(&compact).unwrap(), ir);
    }

    #[test]
    fn hash_ignores_name_and_query_order_but_not_structure() {
        let base = Ir::from_circuit(&small_circuit()).unwrap();
        let named = base.clone().with_name("different");
        assert_eq!(base.content_hash(), named.content_hash());

        let q1 = IrQuery::NoErrorState;
        let q2 = IrQuery::OutputsOnlyAt {
            outputs: vec![("Q".into(), vec![1.0])],
        };
        let mut a = base.clone();
        a.queries = vec![q1.clone(), q2.clone()];
        let mut b = base.clone();
        b.queries = vec![q2, q1];
        assert_eq!(a.content_hash(), b.content_hash());
        assert_ne!(a.content_hash(), base.content_hash());

        let mut stretched = base.clone();
        if let IrNode::Source { pulses } = &mut stretched.nodes[0] {
            pulses[0] += 1.0;
        }
        assert_ne!(base.content_hash(), stretched.content_hash());
    }

    #[test]
    fn hash_is_order_independent_for_the_machine_table() {
        let mut c = Circuit::new();
        let a = c.inp_at(&[10.0], "A");
        let b = c.inp_at(&[12.0], "B");
        let jtl_spec = jtl();
        let slow = jtl_spec.clone().with_firing_delay(9.0);
        let q = c.add_machine(&jtl_spec, &[a]).unwrap()[0];
        let r = c.add_machine(&slow, &[b]).unwrap()[0];
        c.inspect(q, "Q");
        c.inspect(r, "R");
        let ir = Ir::from_circuit(&c).unwrap();
        assert_eq!(ir.machines.len(), 2);
        let mut swapped = ir.clone();
        swapped.machines.swap(0, 1);
        for n in &mut swapped.nodes {
            if let IrNode::Instance { machine, .. } = n {
                *machine = 1 - *machine;
            }
        }
        assert_eq!(ir.content_hash(), swapped.content_hash());
        assert_eq!(ir.canonical_bytes(), swapped.canonical_bytes());
    }

    #[test]
    fn minus_zero_normalizes() {
        let mut a = Ir::from_circuit(&small_circuit()).unwrap();
        let mut b = a.clone();
        if let IrNode::Source { pulses } = &mut a.nodes[0] {
            pulses.insert(0, 0.0);
        }
        if let IrNode::Source { pulses } = &mut b.nodes[0] {
            pulses.insert(0, -0.0);
        }
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn holes_are_rejected() {
        use crate::functional::Hole;
        let mut c = Circuit::new();
        let a = c.inp_at(&[1.0], "A");
        let h = Hole::new("H", 1.0, &["a"], &["q"], |ins, _| vec![ins[0]]);
        let _ = c.add_hole(h, &[a]).unwrap();
        assert!(matches!(
            Ir::from_circuit(&c),
            Err(IrError::UnsupportedHole { .. })
        ));
    }

    #[test]
    fn loopbacks_round_trip_and_pending_ones_are_rejected() {
        // A pending (never-closed) loopback must not export.
        let mut c = Circuit::new();
        let lb = c.loopback_wire();
        let q = c.add_machine(&jtl(), &[lb]).unwrap()[0];
        c.inspect(q, "Q");
        // Feed the machine its own output via a splitter-free direct loop:
        // close q -> lb is illegal (q is observed output); build a second
        // stage instead.
        let mut c2 = Circuit::new();
        let a = c2.inp_at(&[5.0], "A");
        let lb2 = c2.loopback_wire();
        // merger-like: just drive a JTL from the input, close loop from its
        // output to a second JTL reading the loopback.
        let s1 = c2.add_machine(&jtl(), &[a]).unwrap()[0];
        let _s2 = c2.add_machine(&jtl(), &[lb2]).unwrap()[0];
        c2.close_loop(s1, lb2).unwrap();
        let ir = Ir::from_circuit(&c2).unwrap();
        let back = ir.to_circuit().unwrap();
        assert_eq!(back.wire_count(), c2.wire_count());
        let e1 = Simulation::new(c2).run().unwrap();
        let e2 = Simulation::new(back).run().unwrap();
        assert_eq!(e1, e2);

        // A pending loopback does not export.
        assert!(matches!(
            Ir::from_circuit(&c),
            Err(IrError::PendingLoopback { .. })
        ));
    }

    #[test]
    fn import_validates_stimulus_and_version() {
        let mut ir = Ir::from_circuit(&small_circuit()).unwrap();
        let good = ir.clone();
        assert!(good.to_circuit().is_ok());

        if let IrNode::Source { pulses } = &mut ir.nodes[0] {
            pulses[0] = f64::NAN;
        }
        assert!(matches!(
            ir.to_circuit(),
            Err(IrError::Wiring(WiringError::InvalidStimulus { .. }))
        ));

        let mut unsorted = good.clone();
        if let IrNode::Source { pulses } = &mut unsorted.nodes[0] {
            pulses.reverse();
        }
        assert!(matches!(
            unsorted.to_circuit(),
            Err(IrError::Wiring(WiringError::InvalidStimulus { .. }))
        ));

        let mut wrong = good;
        wrong.version = 99;
        assert!(matches!(
            wrong.to_circuit(),
            Err(IrError::Version { found: 99 })
        ));
    }

    #[test]
    fn import_rejects_inconsistent_wiring() {
        let good = Ir::from_circuit(&small_circuit()).unwrap();

        let mut dangling = good.clone();
        dangling.wires[1].sink = None; // leaves node 2's input unconnected
        assert!(matches!(
            dangling.to_circuit(),
            Err(IrError::Wiring(WiringError::Unconnected { .. }))
        ));

        let mut fanout = good.clone();
        let s = fanout.wires[1].sink;
        fanout.wires[2].sink = s;
        assert!(fanout.to_circuit().is_err());

        let mut bad_machine = good;
        if let IrNode::Instance { machine, .. } = &mut bad_machine.nodes[1] {
            *machine = 7;
        }
        assert!(matches!(
            bad_machine.to_circuit(),
            Err(IrError::Malformed(_))
        ));
    }

    #[test]
    fn from_value_rejects_dangling_machine_indices() {
        // REVIEW regression: a decoded node referencing a machine past the
        // table must fail at parse time — `canonical_bytes` inlines the
        // referenced machine, so a dangling index would otherwise panic in
        // the cache before `to_circuit` ever validates.
        let text = r#"{"version":1,"name":"","machines":[],
            "nodes":[{"kind":"cell","machine":0}],"wires":[],"queries":[]}"#;
        match Ir::from_json(text) {
            Err(IrError::Malformed(msg)) => {
                assert!(msg.contains("machine 0"), "{msg}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn oversized_u32_fields_are_rejected_not_truncated() {
        let good = Ir::from_circuit(&small_circuit()).unwrap().to_json();
        // 2^32 + 1 would alias version 1 under a truncating `as u32`.
        let bad_version = good.replace("\"version\": 1", "\"version\": 4294967297");
        assert_ne!(good, bad_version);
        assert!(matches!(
            Ir::from_json(&bad_version),
            Err(IrError::Malformed(_))
        ));
        let bad_jjs = good.replace("\"jjs\": 2", "\"jjs\": 4294967298");
        assert_ne!(good, bad_jjs);
        assert!(matches!(Ir::from_json(&bad_jjs), Err(IrError::Malformed(_))));

        // A cell's optional override fields: a wrong shape names the field,
        // and `null` reads as absent, like every other optional IR field.
        let doc = Ir::from_circuit(&small_circuit()).unwrap().to_value();
        let with_member = |key: &str, value: &str| {
            let mut doc = doc.clone();
            let JsonValue::Obj(members) = &mut doc else {
                unreachable!()
            };
            let nodes = members.iter_mut().find(|(k, _)| k == "nodes").unwrap();
            let JsonValue::Arr(nodes) = &mut nodes.1 else {
                unreachable!()
            };
            let JsonValue::Obj(node) = &mut nodes[1] else {
                unreachable!()
            };
            node.retain(|(k, _)| k != key);
            node.push((key.into(), JsonValue::parse(value).unwrap()));
            Ir::from_value(&doc)
        };
        for (key, value, want) in [
            (
                "firing_delay",
                "\"x\"",
                "node 1: field 'firing_delay' must be a number",
            ),
            (
                "jjs",
                "4294967296",
                "node 1: field 'jjs' must be an integer no larger than 4294967295",
            ),
            ("exempt", "1", "node 1: field 'exempt' must be a boolean"),
        ] {
            match with_member(key, value) {
                Err(IrError::Malformed(msg)) => assert_eq!(msg, want),
                other => panic!("{key}: {value}: expected Malformed, got {other:?}"),
            }
        }
        let Ok(ir) = with_member("exempt", "null") else {
            panic!("exempt:null")
        };
        let IrNode::Instance { overrides, .. } = &ir.nodes[1] else {
            panic!("node 1")
        };
        assert!(!overrides.exempt_from_variability);
    }

    #[test]
    fn anon_counter_reseeds_past_imported_names() {
        let ir = Ir::from_circuit(&small_circuit()).unwrap();
        let mut c = ir.to_circuit().unwrap();
        // Adding a machine must not collide with the imported `_N` names.
        let q = c.output_wires()[0];
        let names_before: std::collections::HashSet<String> =
            (0..c.wire_count()).map(|i| c.wire_name(c.wire_at(i)).to_string()).collect();
        let fresh = c.add_machine(&jtl(), &[q]).unwrap()[0];
        assert!(!names_before.contains(c.wire_name(fresh)));
    }

    #[test]
    fn errors_display_nonempty() {
        let cases: Vec<IrError> = vec![
            IrError::Json(json::JsonError {
                pos: 3,
                msg: "x".into(),
            }),
            IrError::Malformed("x".into()),
            IrError::Version { found: 9 },
            IrError::UnsupportedHole { name: "h".into() },
            IrError::PendingLoopback { wire: "w".into() },
            IrError::Definition(DefinitionError::NoPorts {
                machine: "m".into(),
            }),
            IrError::Wiring(WiringError::ForeignWire),
        ];
        for c in cases {
            assert!(!c.to_string().is_empty());
        }
    }
}
