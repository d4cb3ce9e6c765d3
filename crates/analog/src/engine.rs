//! A small SPICE-class transient engine for superconductor cells: modified
//! nodal analysis with backward-Euler integration and the resistively- and
//! capacitively-shunted Josephson junction (RCSJ) model.
//!
//! Units are chosen so all values are O(1): millivolts, milliamps, ohms,
//! picohenries, picofarads, picoseconds; the flux quantum is
//! `Φ₀ = 2.0678 mV·ps`. The junction obeys
//!
//! ```text
//! I = I_c · sin φ + V / R + C · dV/dt,     dφ/dt = (2π / Φ₀) · V
//! ```
//!
//! and each 2π phase slip is one SFQ pulse.
//!
//! Circuits are partitioned per cell (the granularity designers netlist at):
//! every cell is a small dense MNA system solved with Newton iteration at a
//! fixed sub-picosecond timestep, and cells are coupled through standard
//! SFQ current-pulse injections triggered by output-junction phase slips.
//!
//! # Two engines
//!
//! [`AnalogSim::run`] is the *event-gated* engine: quiescent cells are
//! frozen analytically and skipped (per-step cost scales with **active**
//! junctions), the constant part of each cell's MNA stamp and the LU
//! factorization of its operating-point matrix are cached and reused across
//! steps (chord Newton). [`AnalogSim::run_reference`] keeps the original
//! solve-everything-every-step algorithm verbatim: it is the golden baseline
//! the gated engine is tested against, and the honest "what schematic
//! simulation costs" datapoint for the Table-2 comparison. See DESIGN.md
//! "Analog engine internals" for the hot-window rules and the determinism
//! argument.

use crate::solver::{CellTemplate, DenseLu, RhsOp};
use rlse_core::telemetry::{CellTally, Telemetry};

/// The magnetic flux quantum in mV·ps.
pub const PHI0: f64 = 2.067833848;

/// Index of a node within one cell's netlist (0 is ground).
pub type Node = usize;

/// Injection windows are Gaussians truncated at `|t - t_c| < 6σ`; outside
/// the window the stimulus current is exactly zero.
const WINDOW_SIGMAS: f64 = 6.0;

/// A sleeping cell wakes this many σ before a pending window's center
/// (injection current contributions while awake still use the full 6σ
/// window, matching the reference). Beyond 4.5σ the Gaussian drive is under
/// `4e-5·i_pk` — the same scale as the settle-freeze tolerance — so
/// sleeping through the outer skirt cannot move a pulse time.
const WAKE_SIGMAS: f64 = 4.5;

/// A cell may sleep only when its node voltages sit below this (mV) — 0.1%
/// of an SFQ pulse peak. Freezing a residual of this size perturbs junction
/// phases by only ~1e-3 rad (the residual would have decayed within a few
/// ps anyway), three orders below the O(π) slip margins, so it cannot move
/// a pulse time; the Table-2 golden tests pin this empirically.
const SETTLE_V_TOL: f64 = 1e-3;

/// ... and its per-step voltage motion is below this (mV).
const SETTLE_DV_TOL: f64 = 1e-3;

/// ... and every junction phase moved less than this (rad) in the step.
const SETTLE_DPHI_TOL: f64 = 1e-3;

/// ... and every inductor branch current moved less than this (mA).
const SETTLE_DIL_TOL: f64 = 1e-4;

/// Consecutive quiet steps required before a cell is declared settled.
const SETTLE_STEPS: u32 = 8;

/// Re-factorize a cell's LU when any junction's linearized conductance has
/// drifted more than this (mS) from the factored operating point — under 1%
/// of the junction's MNA diagonal, so chord iterations still contract fast.
/// Between re-factorizations the stale factors converge to the same Newton
/// fixed point (the correction enters both the matrix and `i_eq`), just in
/// a few more iterations.
const REFACTOR_TOL: f64 = 2e-2;

/// Past this many Newton iterations without convergence, re-factorize every
/// iteration (plain Newton) so hard steps keep the reference's convergence
/// behavior.
const CHORD_GIVE_UP: usize = 12;

/// One circuit element in a cell netlist.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Component {
    /// Linear resistor between two nodes (Ω).
    Resistor {
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Resistance in ohms.
        r: f64,
    },
    /// Inductor between two nodes (pH); its branch current is an unknown.
    Inductor {
        /// First terminal.
        a: Node,
        /// Second terminal.
        b: Node,
        /// Inductance in picohenries.
        l: f64,
    },
    /// Josephson junction to ground with RCSJ shunt (I_c in mA, R in Ω,
    /// C in pF).
    Jj {
        /// The junction's (non-ground) node.
        a: Node,
        /// Critical current (mA).
        ic: f64,
        /// Shunt resistance (Ω).
        r: f64,
        /// Junction capacitance (pF).
        c: f64,
    },
    /// Constant bias current injected into a node (mA).
    Bias {
        /// Target node.
        node: Node,
        /// Current (mA), positive into the node.
        i: f64,
    },
}

/// A logical decision rule supervising a multi-input cell (see the crate
/// docs: decision cells are macromodelled — transport is fully analog, the
/// storage-loop release decision is rule-driven).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Fire the output once *both* inputs have arrived (C element).
    Coincidence,
    /// Fire on the *first* input of each pair; absorb the second
    /// (inverted C element).
    FirstArrival,
    /// Fire on *every* input pulse (merger).
    Merge,
}

/// A cell netlist: components plus its pulse interface. Structural equality
/// (`PartialEq`) is the key the engine dedups solver templates by: every
/// cell instance with an identical netlist shares one stamped matrix and
/// one cold-start LU factorization.
#[derive(Debug, Clone, PartialEq)]
pub struct CellNetlist {
    /// Cell type name, e.g. `"JTL"`.
    pub name: String,
    /// Number of nodes, including ground (node 0).
    pub nodes: usize,
    /// The elements.
    pub components: Vec<Component>,
    /// Injection node per input port.
    pub inputs: Vec<Node>,
    /// Monitored output junction (index into `components`) per output port.
    pub outputs: Vec<usize>,
    /// Input-stage junctions (indices into `components`) whose phase slips
    /// count as "input k arrived", in port order; empty for pure transport
    /// cells.
    pub input_jjs: Vec<usize>,
    /// Decision rule plus the junction (component index) it overdrives;
    /// `None` for pure transport cells (JTL, splitter).
    pub decision: Option<(Decision, usize)>,
    /// Delay between the decision condition being met and the overdrive of
    /// the output junction (ps) — the designer's path-balancing knob.
    pub decision_delay: f64,
}

impl CellNetlist {
    /// Number of netlist "lines" (components), the paper's size metric for
    /// schematic models.
    pub fn line_count(&self) -> usize {
        self.components.len()
    }

    /// Number of Josephson junctions.
    pub fn jj_count(&self) -> usize {
        self.components
            .iter()
            .filter(|c| matches!(c, Component::Jj { .. }))
            .count()
    }
}

/// Shape of an injected SFQ stimulus pulse: `i(t) = ipk · exp(-(t-t₀)²/2σ²)`.
#[derive(Debug, Clone, Copy)]
pub struct PulseShape {
    /// Peak current (mA).
    pub ipk: f64,
    /// Width parameter σ (ps).
    pub sigma: f64,
}

impl Default for PulseShape {
    fn default() -> Self {
        PulseShape {
            ipk: 0.45,
            sigma: 1.0,
        }
    }
}

/// Per-cell work counters, accumulated locally during the run and folded
/// into the attached [`Telemetry`] handle once at the end of the run, in
/// cell-index order.
#[derive(Debug, Clone, Copy, Default)]
struct CellStats {
    /// Steps this cell was solved in phase 1 (activity-gated).
    active_steps: u64,
    /// Phase-2 rollback re-solves forced by same-step pulse arrivals.
    resolves: u64,
    /// Newton iterations across all solves.
    newton_iters: u64,
    /// LU re-factorizations performed.
    refactorizations: u64,
    /// Newton iterations that reused a stale LU instead of re-factorizing.
    refactor_avoided: u64,
    /// Output pulses fired.
    fired: u64,
}

/// Runtime state of one gated cell instance: electrical state, gating
/// bookkeeping, the chord-Newton LU cache, and reusable solve scratch (no
/// per-step allocation).
#[derive(Debug)]
struct CellRt {
    /// Index into the deduped template table.
    tmpl: usize,
    /// Node voltages (index 0 = ground, kept at 0).
    v: Vec<f64>,
    /// Inductor branch currents, one per Inductor component (in order).
    il: Vec<f64>,
    /// JJ phases, one per Jj component (in order).
    phi: Vec<f64>,
    /// Pulse-slip counters per JJ.
    slips: Vec<u64>,
    /// Pending input injections: (center time, input port, counted yet).
    injections: Vec<(f64, usize, bool)>,
    /// Decision bookkeeping (see the reference engine).
    seen: Vec<u64>,
    fires: u64,
    reported_fires: u64,
    /// Overdrive currents scheduled by the decision rule (center time).
    overdrives: Vec<f64>,
    // --- activity gating ---
    /// Consecutive quiet steps so far.
    quiet: u32,
    /// Frozen: skip solves until `next_wake`.
    asleep: bool,
    /// Earliest time a pending stimulus window can open (∞ if none).
    next_wake: f64,
    // --- chord-Newton LU cache ---
    /// Private factorization at this cell's operating point; `None` means
    /// the template's shared cold-start factorization is still valid.
    lu: Option<DenseLu>,
    /// `g_sin` values embedded in the active factorization, per junction.
    g_fact: Vec<f64>,
    // --- reusable scratch ---
    v_new: Vec<f64>,
    inj_cur: Vec<f64>,
    x: Vec<f64>,
    il_prev: Vec<f64>,
    jj_gsin: Vec<f64>,
    jj_isin: Vec<f64>,
    // --- rollback journal, captured by each solve ---
    // A same-step pulse arrival (phase 2) must rewind the tentative solve.
    // Rather than copy the whole cell state every step, `solve_cell` records
    // just enough to undo itself: `v_new`/`il_prev` already hold the
    // pre-step electrical state, and the lists below journal the few
    // discrete mutations a solve can make.
    phi_prev: Vec<f64>,
    slips_prev: Vec<u64>,
    seen_prev: Vec<u64>,
    /// Injection indices whose `counted` flag flipped during this solve.
    flipped: Vec<u32>,
    /// `overdrives.len()` before this solve (a solve pushes at most one).
    od_len: usize,
    fires_prev: u64,
    reported_prev: u64,
    quiet_prev: u32,
    // --- per-step coordination ---
    /// Output ports fired this step (final after any phase-2 re-solve).
    fired: Vec<usize>,
    /// Solved in phase 1 this step (a rollback journal exists).
    solved: bool,
    /// Received a same-step pulse; must rewind and re-solve in phase 2.
    dirty: bool,
    /// Injections delivered during phase 2, appended after rollback.
    inbox: Vec<(f64, usize, bool)>,
    stats: CellStats,
}

impl CellRt {
    fn new(tmpl: usize, tm: &CellTemplate) -> Self {
        let n_jj = tm.jjs.len();
        CellRt {
            tmpl,
            v: vec![0.0; tm.nodes],
            il: vec![0.0; tm.n_l],
            phi: vec![0.0; n_jj],
            slips: vec![0; n_jj],
            injections: Vec::new(),
            seen: vec![0; tm.inputs.len()],
            fires: 0,
            reported_fires: 0,
            overdrives: Vec::new(),
            quiet: 0,
            asleep: false,
            next_wake: f64::INFINITY,
            lu: None,
            g_fact: tm.g_zero.clone(),
            v_new: vec![0.0; tm.nodes],
            inj_cur: vec![0.0; tm.nodes],
            x: vec![0.0; tm.n],
            il_prev: vec![0.0; tm.n_l],
            jj_gsin: vec![0.0; n_jj],
            jj_isin: vec![0.0; n_jj],
            phi_prev: vec![0.0; n_jj],
            slips_prev: vec![0; n_jj],
            seen_prev: vec![0; tm.inputs.len()],
            flipped: Vec::new(),
            od_len: 0,
            fires_prev: 0,
            reported_prev: 0,
            quiet_prev: 0,
            fired: Vec::new(),
            solved: false,
            dirty: false,
            inbox: Vec::new(),
            stats: CellStats::default(),
        }
    }

    /// Restore power-on state (fresh voltages/phases, no pending stimuli,
    /// cold-start LU, zeroed counters).
    fn reset(&mut self, tm: &CellTemplate) {
        self.v.iter_mut().for_each(|e| *e = 0.0);
        self.il.iter_mut().for_each(|e| *e = 0.0);
        self.phi.iter_mut().for_each(|e| *e = 0.0);
        self.slips.iter_mut().for_each(|e| *e = 0);
        self.injections.clear();
        self.seen.iter_mut().for_each(|e| *e = 0);
        self.fires = 0;
        self.reported_fires = 0;
        self.overdrives.clear();
        self.quiet = 0;
        self.asleep = false;
        self.next_wake = f64::INFINITY;
        self.lu = None;
        self.g_fact.copy_from_slice(&tm.g_zero);
        self.fired.clear();
        self.solved = false;
        self.dirty = false;
        self.inbox.clear();
        self.stats = CellStats::default();
    }

    /// Rewind the effects of this step's tentative solve (phase-2 re-solve
    /// path), using the journal `solve_cell` recorded instead of a full
    /// state copy: after the end-of-solve swap `v_new` still holds the
    /// pre-step voltages, `il_prev`/`phi_prev`/… hold the rest, and the few
    /// discrete list mutations are undone from the flip/push records (spent
    /// entries GC'd at the start of the solve contribute nothing and are
    /// re-dropped identically on re-solve, so they need no undo). The LU
    /// cache is deliberately *not* rewound: stale factors change iteration
    /// counts, never the converged solution.
    fn rollback(&mut self) {
        std::mem::swap(&mut self.v, &mut self.v_new);
        self.il.copy_from_slice(&self.il_prev);
        self.phi.copy_from_slice(&self.phi_prev);
        self.slips.copy_from_slice(&self.slips_prev);
        self.seen.copy_from_slice(&self.seen_prev);
        for &idx in &self.flipped {
            self.injections[idx as usize].2 = false;
        }
        self.overdrives.truncate(self.od_len);
        self.fires = self.fires_prev;
        self.reported_fires = self.reported_prev;
        self.quiet = self.quiet_prev;
        self.asleep = false;
    }
}

/// Advance one backward-Euler step of cell `rt` ending at time `t`,
/// using the split stamp and the cached LU. Appends fired output ports to
/// `rt.fired` and updates the gating state.
fn solve_cell(rt: &mut CellRt, tm: &CellTemplate, t: f64, dt: f64, shape: PulseShape) {
    let n = tm.n;
    let nn = tm.nn;
    let k = std::f64::consts::PI / PHI0;
    rt.fired.clear();

    // Drop spent injections up front. (The reference drops them at the end
    // of each step, but a spent entry contributes exactly zero current and
    // its `counted` flag was set while its window was open, so front-GC is
    // trajectory-identical — and it keeps the lists append-only during the
    // solve, which is what makes the cheap rollback journal possible.)
    let w = WINDOW_SIGMAS * shape.sigma;
    rt.injections.retain(|&(tc, _, _)| t - tc < w);
    rt.overdrives.retain(|&tc| t - tc < w);

    // Journal for a possible phase-2 rollback of this solve.
    rt.phi_prev.copy_from_slice(&rt.phi);
    rt.slips_prev.copy_from_slice(&rt.slips);
    rt.seen_prev.copy_from_slice(&rt.seen);
    rt.flipped.clear();
    rt.od_len = rt.overdrives.len();
    rt.fires_prev = rt.fires;
    rt.reported_prev = rt.reported_fires;
    rt.quiet_prev = rt.quiet;

    rt.v_new.copy_from_slice(&rt.v);
    rt.il_prev.copy_from_slice(&rt.il);

    // External injections (inputs + decision overdrives) at this step.
    for e in rt.inj_cur.iter_mut() {
        *e = 0.0;
    }
    for idx in 0..rt.injections.len() {
        let (tc, port, counted) = rt.injections[idx];
        let x = (t - tc) / shape.sigma;
        if x.abs() < WINDOW_SIGMAS {
            rt.inj_cur[tm.inputs[port]] += shape.ipk * (-0.5 * x * x).exp();
        }
        if t >= tc && !counted {
            rt.injections[idx].2 = true;
            rt.flipped.push(idx as u32);
            rt.seen[port] += 1;
        }
    }
    if let Some((_, node, ic)) = tm.decision {
        for &tc in &rt.overdrives {
            let x = (t - tc) / shape.sigma;
            if x.abs() < WINDOW_SIGMAS {
                // Push the decision junction well past critical.
                rt.inj_cur[node] += 1.6 * ic * (-0.5 * x * x).exp();
            }
        }
    }

    // Newton iteration on the new node voltages, reusing the cached LU as
    // long as the junction operating points are close to the factored ones
    // (chord Newton: the stale conductance appears in both the matrix and
    // `i_eq`, so the fixed point is the exact nonlinear solution).
    for iter in 0..25 {
        rt.stats.newton_iters += 1;
        let mut refactor = iter >= CHORD_GIVE_UP;
        for (j, jj) in tm.jjs.iter().enumerate() {
            let vg = rt.v_new[jj.node];
            let phi_new = rt.phi[j] + k * dt * (rt.v[jj.node] + vg);
            let g_sin = jj.ic * phi_new.cos() * k * dt;
            rt.jj_gsin[j] = g_sin;
            rt.jj_isin[j] = jj.ic * phi_new.sin();
            if (g_sin - rt.g_fact[j]).abs() > REFACTOR_TOL {
                refactor = true;
            }
        }
        if refactor {
            let lu = rt.lu.get_or_insert_with(|| DenseLu::new(n));
            lu.load(&tm.a0);
            for (j, jj) in tm.jjs.iter().enumerate() {
                lu.add_diag(jj.ui, jj.s_static + rt.jj_gsin[j]);
            }
            lu.factor();
            rt.g_fact.copy_from_slice(&rt.jj_gsin);
            rt.stats.refactorizations += 1;
        } else {
            rt.stats.refactor_avoided += 1;
        }

        // Right-hand side, assembled straight into the solve buffer and
        // replayed in netlist component order so the floating-point
        // accumulation matches the reference stamp loop.
        for e in rt.x.iter_mut() {
            *e = 0.0;
        }
        for op in &tm.rhs_prog {
            match *op {
                RhsOp::L {
                    row,
                    l_over_dt,
                    il_idx,
                } => rt.x[row] += -l_over_dt * rt.il[il_idx],
                RhsOp::Jj { j } => {
                    let jj = &tm.jjs[j];
                    let vg = rt.v_new[jj.node];
                    let i_eq = rt.jj_isin[j] - rt.g_fact[j] * vg - jj.c_over_dt * rt.v[jj.node];
                    rt.x[jj.ui] -= i_eq;
                }
                RhsOp::Bias { ui, i } => rt.x[ui] += i,
            }
        }
        for (node, &cur) in rt.inj_cur.iter().enumerate() {
            if node != 0 && cur != 0.0 {
                rt.x[node - 1] += cur;
            }
        }

        match &rt.lu {
            Some(lu) => lu.solve(&mut rt.x),
            None => tm.lu_zero.solve(&mut rt.x),
        }

        // Convergence check on node voltages.
        let mut delta = 0.0f64;
        for node in 1..tm.nodes {
            let nv = rt.x[node - 1];
            delta = delta.max((nv - rt.v_new[node]).abs());
            rt.v_new[node] = nv;
        }
        if delta < 1e-9 {
            rt.il.copy_from_slice(&rt.x[nn..nn + tm.n_l]);
            break;
        }
        if iter == 24 {
            rt.il.copy_from_slice(&rt.x[nn..nn + tm.n_l]);
        }
    }

    // Commit phases and detect slips.
    let mut dphi_max = 0.0f64;
    for (j, jj) in tm.jjs.iter().enumerate() {
        let dphi = k * dt * (rt.v[jj.node] + rt.v_new[jj.node]);
        dphi_max = dphi_max.max(dphi.abs());
        let old = rt.phi[j];
        let new = old + dphi;
        // Count crossings of odd multiples of π (pulse centers).
        let crossings =
            |p: f64| ((p + std::f64::consts::PI) / (2.0 * std::f64::consts::PI)).floor() as i64;
        let slipped = crossings(new) - crossings(old);
        rt.phi[j] = new;
        if slipped > 0 {
            rt.slips[j] += slipped as u64;
            for &port in &tm.ports_of_jj[j] {
                if tm.decision.is_some() {
                    // Debounce: one output pulse per decision fire, however
                    // vigorously the junction spun.
                    while rt.reported_fires < rt.fires {
                        rt.reported_fires += 1;
                        rt.fired.push(port);
                    }
                } else {
                    for _ in 0..slipped {
                        rt.fired.push(port);
                    }
                }
            }
        }
    }
    std::mem::swap(&mut rt.v, &mut rt.v_new); // v_new now holds the old v

    // Decision rule: schedule an overdrive when the condition is met.
    if let Some((rule, _, _)) = tm.decision {
        let should_fire = match rule {
            Decision::Coincidence => rt.seen.iter().copied().min().unwrap_or(0) > rt.fires,
            Decision::FirstArrival => {
                // Fire on the 1st, 3rd, 5th… input pulse overall.
                let total: u64 = rt.seen.iter().sum();
                total > 2 * rt.fires
            }
            Decision::Merge => rt.seen.iter().sum::<u64>() > rt.fires,
        };
        if should_fire {
            rt.fires += 1;
            rt.overdrives.push(t + tm.decision_delay);
        }
    }

    // Gating: count quiet steps; once settled with no stimulus window open,
    // freeze until the earliest upcoming window.
    let mut v_max = 0.0f64;
    let mut dv_max = 0.0f64;
    for node in 1..tm.nodes {
        v_max = v_max.max(rt.v[node].abs());
        dv_max = dv_max.max((rt.v[node] - rt.v_new[node]).abs());
    }
    let mut dil_max = 0.0f64;
    for (i, &cur) in rt.il.iter().enumerate() {
        dil_max = dil_max.max((cur - rt.il_prev[i]).abs());
    }
    let step_quiet = v_max < SETTLE_V_TOL
        && dv_max < SETTLE_DV_TOL
        && dphi_max < SETTLE_DPHI_TOL
        && dil_max < SETTLE_DIL_TOL
        && rt.fired.is_empty();
    rt.quiet = if step_quiet { rt.quiet + 1 } else { 0 };
    if rt.quiet >= SETTLE_STEPS {
        let ww = WAKE_SIGMAS * shape.sigma;
        let mut wake = f64::INFINITY;
        let mut open = false;
        for &(tc, _, _) in &rt.injections {
            if tc - ww <= t {
                open = true;
            } else {
                wake = wake.min(tc - ww);
            }
        }
        for &tc in &rt.overdrives {
            if tc - ww <= t {
                open = true;
            } else {
                wake = wake.min(tc - ww);
            }
        }
        if !open {
            rt.asleep = true;
            rt.next_wake = wake;
        }
    }
}

/// Phase 1 of a step: a tentative, independent solve of every cell.
/// Sleeping cells are skipped with their state analytically frozen.
fn phase1(cells: &mut [CellRt], templates: &[CellTemplate], t: f64, dt: f64, shape: PulseShape) {
    for rt in cells {
        rt.dirty = false;
        if rt.asleep && t < rt.next_wake {
            rt.solved = false;
            rt.fired.clear();
            continue;
        }
        rt.asleep = false;
        solve_cell(rt, &templates[rt.tmpl], t, dt, shape);
        rt.solved = true;
        rt.stats.active_steps += 1;
    }
}

/// Precomputed per-(cell, port) adjacency: route and probe fan-out, built
/// once per run so firing a pulse is O(fan-out) instead of O(routes).
#[derive(Debug, Default)]
struct NetTables {
    /// `route[cell][port]` → destination `(cell, input port)` list.
    route: Vec<Vec<Vec<(usize, usize)>>>,
    /// `probe[cell][port]` → dense pulse-label indices.
    probe: Vec<Vec<Vec<usize>>>,
}

/// Mutable pulse-recording state threaded through phase 2.
#[derive(Debug, Default)]
struct PulseRec {
    /// Recorded pulse times per dense probe-label index.
    pulse_buf: Vec<Vec<f64>>,
    /// Scratch copy of a cell's fired ports (so routing can mutate peers).
    fired_scratch: Vec<usize>,
    routed: u64,
    recorded: u64,
}

/// Phase 2 of a step (serial, cell-index order): deliver fired pulses.
/// A pulse from cell *i* to cell *j > i* must be visible in *j*'s solve of
/// this same step (the reference engine steps cells in index order and
/// pushes injections mid-loop) — such targets are rewound via their
/// rollback journal and re-solved with the injection present. Targets with
/// *j ≤ i* see the pulse next step, exactly like the reference.
fn phase2(
    cells: &mut [CellRt],
    templates: &[CellTemplate],
    tables: &NetTables,
    rec: &mut PulseRec,
    t: f64,
    dt: f64,
    shape: PulseShape,
) {
    let ww = WAKE_SIGMAS * shape.sigma;
    for ci in 0..cells.len() {
        if cells[ci].dirty {
            let rt = &mut cells[ci];
            if rt.solved {
                rt.rollback();
            } else {
                // Was asleep: state is still the step-start state.
                rt.asleep = false;
            }
            rt.injections.append(&mut rt.inbox);
            solve_cell(rt, &templates[rt.tmpl], t, dt, shape);
            if rt.solved {
                rt.stats.resolves += 1;
            } else {
                rt.stats.active_steps += 1;
            }
            rt.dirty = false;
            rt.solved = true;
        }
        if cells[ci].fired.is_empty() {
            continue;
        }
        cells[ci].stats.fired += cells[ci].fired.len() as u64;
        rec.fired_scratch.clear();
        rec.fired_scratch.extend_from_slice(&cells[ci].fired);
        for fi in 0..rec.fired_scratch.len() {
            let port = rec.fired_scratch[fi];
            for &(tcell, tport) in &tables.route[ci][port] {
                rec.routed += 1;
                let inj = (t + 1.0, tport, false);
                if tcell > ci {
                    cells[tcell].inbox.push(inj);
                    cells[tcell].dirty = true;
                } else {
                    let tgt = &mut cells[tcell];
                    tgt.injections.push(inj);
                    if tgt.asleep {
                        tgt.next_wake = tgt.next_wake.min(inj.0 - ww);
                    }
                }
            }
            for &lbl in &tables.probe[ci][port] {
                rec.recorded += 1;
                rec.pulse_buf[lbl].push(t);
            }
        }
    }
}

/// Per-run compiled state: deduped solver templates, per-cell runtime, and
/// the adjacency tables. Rebuilt lazily when the topology or timestep
/// changes; reused (after [`AnalogSim::reset`]) across repeated runs.
#[derive(Debug)]
struct Runtime {
    dt: f64,
    templates: Vec<CellTemplate>,
    cells: Vec<CellRt>,
    tables: NetTables,
    /// Unique pulse-probe labels, indexed by the dense ids in `tables`.
    probe_labels: Vec<String>,
    /// Voltage probes resolved to `(cell, node, dense trace-label index)`.
    traces: Vec<(usize, usize, usize)>,
    /// Unique trace labels.
    trace_labels: Vec<String>,
}

/// A transient simulation over a network of analog cells.
#[derive(Debug)]
pub struct AnalogSim {
    cells: Vec<CellNetlist>,
    /// (cell, output port) → (cell, input port) connections.
    routes: Vec<((usize, usize), (usize, usize))>,
    /// Observed outputs: (cell, output port, label).
    probes: Vec<(usize, usize, String)>,
    /// Sampled node voltages: (cell, node, label).
    voltage_probes: Vec<(usize, usize, String)>,
    /// Sample every k-th timestep for voltage traces (clamped to ≥ 1).
    pub trace_stride: usize,
    /// External stimuli: (cell, input port, times).
    stimuli: Vec<(usize, usize, Vec<f64>)>,
    /// Timestep (ps).
    pub dt: f64,
    /// Stimulus pulse shape.
    pub shape: PulseShape,
    tel: Telemetry,
    rt: Option<Runtime>,
}

/// The recorded pulse times per probe label, plus run statistics.
/// Implements `PartialEq` so tests can assert bit-identical results across
/// runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalogEvents {
    /// Pulse times (ps) per probe label.
    pub pulses: std::collections::BTreeMap<String, Vec<f64>>,
    /// Sampled voltage traces per trace label: `(time ps, voltage mV)`.
    pub traces: std::collections::BTreeMap<String, Vec<(f64, f64)>>,
    /// Total timesteps taken.
    pub steps: usize,
    /// Total Josephson junctions simulated.
    pub jjs: usize,
    /// Total netlist lines (components) simulated.
    pub lines: usize,
}

impl AnalogEvents {
    /// Render a sampled voltage trace as a small ASCII oscillogram:
    /// one row per amplitude band, `width` columns across the full run.
    pub fn render_trace(&self, label: &str, width: usize, height: usize) -> String {
        let Some(tr) = self.traces.get(label) else {
            return format!("(no trace '{label}')\n");
        };
        if tr.is_empty() {
            return format!("(empty trace '{label}')\n");
        }
        let t1 = tr.last().expect("nonempty").0.max(f64::MIN_POSITIVE);
        let vmax = tr
            .iter()
            .map(|(_, v)| v.abs())
            .fold(f64::MIN_POSITIVE, f64::max);
        let width = width.max(10);
        let height = height.max(3) | 1; // odd so there is a zero row
        let mut grid = vec![vec![' '; width]; height];
        for &(t, v) in tr {
            let col = ((t / t1) * (width - 1) as f64).round() as usize;
            let row = (((1.0 - v / vmax) / 2.0) * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][col.min(width - 1)] = '*';
        }
        let mut out = String::new();
        for (r, row) in grid.iter().enumerate() {
            let marker = if r == height / 2 { '-' } else { ' ' };
            out.push(marker);
            out.extend(row.iter());
            out.push('\n');
        }
        out.push_str(&format!("{label}: 0..{t1:.0} ps, +/-{vmax:.2} mV\n"));
        out
    }
}

impl AnalogSim {
    /// Create an empty simulation with a 0.1 ps timestep.
    pub fn new() -> Self {
        AnalogSim {
            cells: Vec::new(),
            routes: Vec::new(),
            probes: Vec::new(),
            voltage_probes: Vec::new(),
            trace_stride: 5,
            stimuli: Vec::new(),
            dt: 0.1,
            shape: PulseShape::default(),
            tel: Telemetry::disabled(),
            rt: None,
        }
    }

    /// Add a cell instance; returns its index.
    pub fn add_cell(&mut self, net: CellNetlist) -> usize {
        self.rt = None;
        self.cells.push(net);
        self.cells.len() - 1
    }

    /// Connect `(from_cell, out_port)` to `(to_cell, in_port)`.
    pub fn connect(&mut self, from: (usize, usize), to: (usize, usize)) {
        self.rt = None;
        self.routes.push((from, to));
    }

    /// Drive `(cell, in_port)` with stimulus pulses at the given times.
    pub fn stimulate(&mut self, cell: usize, port: usize, times: &[f64]) {
        self.stimuli.push((cell, port, times.to_vec()));
    }

    /// Record pulses on `(cell, out_port)` under `label`.
    pub fn probe(&mut self, cell: usize, port: usize, label: &str) {
        self.rt = None;
        self.probes.push((cell, port, label.to_string()));
    }

    /// Sample the voltage of `(cell, node)` every `trace_stride` steps,
    /// recorded under `label` (the raw analog waveform of Fig. 16 d–f).
    pub fn trace_node(&mut self, cell: usize, node: usize, label: &str) {
        self.rt = None;
        self.voltage_probes.push((cell, node, label.to_string()));
    }

    /// Attach a telemetry handle; counters are flushed once per run.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
    }

    /// Builder form of [`set_telemetry`](Self::set_telemetry).
    pub fn telemetry(mut self, tel: &Telemetry) -> Self {
        self.set_telemetry(tel);
        self
    }

    /// Restore every cell to its power-on state (zero voltages, phases and
    /// currents, no pending stimuli, cold-start solver caches).
    /// [`run`](Self::run) calls this automatically, so a simulation can be
    /// run repeatedly with identical results.
    pub fn reset(&mut self) {
        if let Some(rt) = &mut self.rt {
            for cell in &mut rt.cells {
                cell.reset(&rt.templates[cell.tmpl]);
            }
        }
    }

    /// Build (or reuse) the compiled runtime: dedup templates by structural
    /// netlist equality, resolve routes/probes to adjacency tables, and
    /// resolve probe labels to dense indices.
    fn ensure_runtime(&mut self) {
        if let Some(rt) = &self.rt {
            if rt.dt == self.dt {
                return;
            }
        }
        let mut templates: Vec<CellTemplate> = Vec::new();
        let mut cells: Vec<CellRt> = Vec::new();
        for net in &self.cells {
            let tmpl = match templates.iter().position(|t| t.net == *net) {
                Some(i) => i,
                None => {
                    templates.push(CellTemplate::build(net, self.dt));
                    templates.len() - 1
                }
            };
            cells.push(CellRt::new(tmpl, &templates[tmpl]));
        }
        self.tel.add("analog.tmpl_builds", templates.len() as u64);
        let mut tables = NetTables {
            route: self
                .cells
                .iter()
                .map(|net| vec![Vec::new(); net.outputs.len()])
                .collect(),
            probe: self
                .cells
                .iter()
                .map(|net| vec![Vec::new(); net.outputs.len()])
                .collect(),
        };
        for &((fc, fp), to) in &self.routes {
            tables.route[fc][fp].push(to);
        }
        let mut probe_labels: Vec<String> = Vec::new();
        for (pc, pp, label) in &self.probes {
            let lbl = match probe_labels.iter().position(|l| l == label) {
                Some(i) => i,
                None => {
                    probe_labels.push(label.clone());
                    probe_labels.len() - 1
                }
            };
            tables.probe[*pc][*pp].push(lbl);
        }
        let mut trace_labels: Vec<String> = Vec::new();
        let mut traces = Vec::new();
        for (cell, node, label) in &self.voltage_probes {
            let lbl = match trace_labels.iter().position(|l| l == label) {
                Some(i) => i,
                None => {
                    trace_labels.push(label.clone());
                    trace_labels.len() - 1
                }
            };
            traces.push((*cell, *node, lbl));
        }
        self.rt = Some(Runtime {
            dt: self.dt,
            templates,
            cells,
            tables,
            probe_labels,
            traces,
            trace_labels,
        });
    }

    /// Run the transient analysis until `t_end` (ps) with the event-gated
    /// engine. Pulse times match [`run_reference`](Self::run_reference).
    pub fn run(&mut self, t_end: f64) -> AnalogEvents {
        self.ensure_runtime();
        self.reset();
        let dt = self.dt;
        let shape = self.shape;
        let stride = self.trace_stride.max(1);
        let steps_total = (t_end / dt).ceil() as usize;
        let tel_on = self.tel.is_enabled();
        let rt = self.rt.as_mut().expect("runtime built");
        for (cell, port, times) in &self.stimuli {
            for &tc in times {
                rt.cells[*cell].injections.push((tc, *port, false));
            }
        }
        let ncells = rt.cells.len();
        let templates: &[CellTemplate] = &rt.templates;
        let tables: &NetTables = &rt.tables;
        let cells: &mut Vec<CellRt> = &mut rt.cells;
        let mut rec = PulseRec {
            pulse_buf: vec![Vec::new(); rt.probe_labels.len()],
            ..Default::default()
        };
        let mut trace_buf: Vec<Vec<(f64, f64)>> = vec![Vec::new(); rt.trace_labels.len()];
        let traces: &[(usize, usize, usize)] = &rt.traces;
        let mut max_active = 0usize;

        let mut t = 0.0f64;
        for step in 0..steps_total {
            t += dt;
            if step % stride == 0 {
                for &(cell, node, lbl) in traces {
                    let v = cells[cell].v.get(node).copied().unwrap_or(0.0);
                    trace_buf[lbl].push((t, v));
                }
            }
            phase1(cells, templates, t, dt, shape);
            phase2(cells, templates, tables, &mut rec, t, dt, shape);
            if tel_on {
                max_active = max_active.max(cells.iter().filter(|c| c.solved).count());
            }
        }

        let mut ev = AnalogEvents {
            jjs: self.cells.iter().map(|c| c.jj_count()).sum(),
            lines: self.cells.iter().map(|c| c.line_count()).sum(),
            steps: steps_total,
            ..Default::default()
        };
        for (lbl, buf) in rt.probe_labels.iter().zip(rec.pulse_buf.iter()) {
            if !buf.is_empty() {
                ev.pulses.insert(lbl.clone(), buf.clone());
            }
        }
        for (lbl, buf) in rt.trace_labels.iter().zip(trace_buf.iter()) {
            if !buf.is_empty() {
                ev.traces.insert(lbl.clone(), buf.clone());
            }
        }

        if self.tel.is_enabled() {
            // Per-cell counters were accumulated locally; fold them in
            // cell-index order.
            let mut totals = CellStats::default();
            let mut by_type: std::collections::BTreeMap<&str, CellTally> = Default::default();
            for cell in rt.cells.iter() {
                let st = &cell.stats;
                totals.active_steps += st.active_steps;
                totals.resolves += st.resolves;
                totals.newton_iters += st.newton_iters;
                totals.refactorizations += st.refactorizations;
                totals.refactor_avoided += st.refactor_avoided;
                totals.fired += st.fired;
                let tally = by_type.entry(templates[cell.tmpl].net.name.as_str()).or_default();
                tally.dispatches += st.active_steps + st.resolves;
                tally.transitions += st.newton_iters;
                tally.fired += st.fired;
            }
            let cell_steps = (ncells as u64) * (steps_total as u64);
            self.tel.add_many(&[
                ("analog.runs", 1),
                ("analog.steps", steps_total as u64),
                ("analog.cell_steps", cell_steps),
                ("analog.solves", totals.active_steps + totals.resolves),
                (
                    "analog.solves_skipped",
                    cell_steps.saturating_sub(totals.active_steps),
                ),
                ("analog.resolves", totals.resolves),
                ("analog.newton_iters", totals.newton_iters),
                ("analog.refactorizations", totals.refactorizations),
                ("analog.refactor_avoided", totals.refactor_avoided),
                ("analog.pulses_routed", rec.routed),
                ("analog.pulses_recorded", rec.recorded),
            ]);
            self.tel.peak("analog.peak_active_cells", max_active as u64);
            for (name, tally) in &by_type {
                self.tel.add_cell(name, tally);
            }
        }
        ev
    }
}

impl Default for AnalogSim {
    fn default() -> Self {
        Self::new()
    }
}

// ======================================================================
// The reference engine: the original solve-everything-every-step
// algorithm, kept verbatim as the golden baseline the gated engine is
// tested against and as the honest Table-2 "cost of schematic
// simulation" datapoint. Its per-step arithmetic is the specification
// the optimized path must reproduce.
// ======================================================================

/// Runtime state of one cell instance under the reference engine.
#[derive(Debug)]
struct NaiveCell {
    net: CellNetlist,
    v: Vec<f64>,
    il: Vec<f64>,
    phi: Vec<f64>,
    slips: Vec<u64>,
    injections: Vec<(f64, usize, bool)>,
    seen: Vec<u64>,
    fires: u64,
    reported_fires: u64,
    overdrives: Vec<f64>,
    n_unknowns: usize,
    inductor_ids: Vec<usize>,
    jj_ids: Vec<usize>,
}

impl NaiveCell {
    fn new(net: CellNetlist) -> Self {
        let inductor_ids: Vec<usize> = net
            .components
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c, Component::Inductor { .. }))
            .map(|(i, _)| i)
            .collect();
        let jj_ids: Vec<usize> = net
            .components
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c, Component::Jj { .. }))
            .map(|(i, _)| i)
            .collect();
        let n_unknowns = (net.nodes - 1) + inductor_ids.len();
        NaiveCell {
            v: vec![0.0; net.nodes],
            il: vec![0.0; inductor_ids.len()],
            phi: vec![0.0; jj_ids.len()],
            slips: vec![0; jj_ids.len()],
            injections: Vec::new(),
            seen: vec![0; net.inputs.len()],
            fires: 0,
            reported_fires: 0,
            overdrives: Vec::new(),
            n_unknowns,
            inductor_ids,
            jj_ids,
            net,
        }
    }

    /// Advance one backward-Euler step of size `dt` ending at time `t`.
    /// Returns the output ports that emitted a pulse during this step.
    fn step(&mut self, t: f64, dt: f64, shape: PulseShape) -> Vec<usize> {
        let n = self.n_unknowns;
        let nn = self.net.nodes - 1; // real (non-ground) nodes
        let mut a = vec![0.0f64; n * n];
        let mut rhs = vec![0.0f64; n];
        let mut v_new: Vec<f64> = self.v.clone();

        // External injections (inputs + decision overdrives) at this step.
        // Each injection also counts as "input arrived" for the decision
        // rule the first time its center passes.
        let mut inj = vec![0.0f64; self.net.nodes];
        for (tc, port, counted) in self.injections.iter_mut() {
            let x = (t - *tc) / shape.sigma;
            if x.abs() < 6.0 {
                inj[self.net.inputs[*port]] += shape.ipk * (-0.5 * x * x).exp();
            }
            if t >= *tc && !*counted {
                *counted = true;
                self.seen[*port] += 1;
            }
        }
        if let Some((_, fire_jj)) = self.net.decision {
            if let Component::Jj { a: node, ic, .. } = self.net.components[fire_jj] {
                for &tc in &self.overdrives {
                    let x = (t - tc) / shape.sigma;
                    if x.abs() < 6.0 {
                        // Push the decision junction well past critical.
                        inj[node] += 1.6 * ic * (-0.5 * x * x).exp();
                    }
                }
            }
        }

        // Newton iteration on the new node voltages.
        for _iter in 0..25 {
            for e in a.iter_mut() {
                *e = 0.0;
            }
            for e in rhs.iter_mut() {
                *e = 0.0;
            }
            let mut l_idx = 0usize;
            let mut j_idx = 0usize;
            let idx = |node: Node| node - 1; // unknown index of a node
            let stamp = |a: &mut Vec<f64>, r: usize, c: usize, v: f64| a[r * n + c] += v;
            for comp in &self.net.components {
                match *comp {
                    Component::Resistor { a: na, b: nb, r } => {
                        let g = 1.0 / r;
                        if na != 0 {
                            stamp(&mut a, idx(na), idx(na), g);
                        }
                        if nb != 0 {
                            stamp(&mut a, idx(nb), idx(nb), g);
                        }
                        if na != 0 && nb != 0 {
                            stamp(&mut a, idx(na), idx(nb), -g);
                            stamp(&mut a, idx(nb), idx(na), -g);
                        }
                    }
                    Component::Inductor { a: na, b: nb, l } => {
                        // Branch row: V_a - V_b - (L/dt)(I - I_prev) = 0.
                        let row = nn + l_idx;
                        if na != 0 {
                            stamp(&mut a, row, idx(na), 1.0);
                            stamp(&mut a, idx(na), row, 1.0);
                        }
                        if nb != 0 {
                            stamp(&mut a, row, idx(nb), -1.0);
                            stamp(&mut a, idx(nb), row, -1.0);
                        }
                        stamp(&mut a, row, row, -l / dt);
                        rhs[row] += -(l / dt) * self.il[l_idx];
                        l_idx += 1;
                    }
                    Component::Jj { a: na, ic, r, c } => {
                        let k = std::f64::consts::PI / PHI0; // dφ = k (V+Vold) dt (trapezoid)
                        let vg = v_new[na];
                        let phi_new = self.phi[j_idx] + k * dt * (self.v[na] + vg);
                        let g_sin = ic * phi_new.cos() * k * dt;
                        let i_sin = ic * phi_new.sin();
                        let g = 1.0 / r + c / dt + g_sin;
                        let i_eq = i_sin - g_sin * vg - (c / dt) * self.v[na];
                        let ui = idx(na);
                        stamp(&mut a, ui, ui, g);
                        rhs[ui] -= i_eq;
                        j_idx += 1;
                    }
                    Component::Bias { node, i } => {
                        if node != 0 {
                            rhs[idx(node)] += i;
                        }
                    }
                }
            }
            for (node, &cur) in inj.iter().enumerate() {
                if node != 0 && cur != 0.0 {
                    rhs[idx(node)] += cur;
                }
            }

            // Dense Gaussian elimination with partial pivoting.
            let mut x = rhs.clone();
            let mut m = a.clone();
            for col in 0..n {
                let mut piv = col;
                for r in col + 1..n {
                    if m[r * n + col].abs() > m[piv * n + col].abs() {
                        piv = r;
                    }
                }
                if m[piv * n + col].abs() < 1e-12 {
                    continue; // singular row: leave as-is
                }
                if piv != col {
                    for c2 in 0..n {
                        m.swap(col * n + c2, piv * n + c2);
                    }
                    x.swap(col, piv);
                }
                let d = m[col * n + col];
                for r in col + 1..n {
                    let f = m[r * n + col] / d;
                    if f == 0.0 {
                        continue;
                    }
                    for c2 in col..n {
                        m[r * n + c2] -= f * m[col * n + c2];
                    }
                    x[r] -= f * x[col];
                }
            }
            for col in (0..n).rev() {
                let mut s = x[col];
                for c2 in col + 1..n {
                    s -= m[col * n + c2] * x[c2];
                }
                let d = m[col * n + col];
                x[col] = if d.abs() < 1e-12 { 0.0 } else { s / d };
            }

            // Convergence check on node voltages.
            let mut delta = 0.0f64;
            for node in 1..self.net.nodes {
                let nv = x[node - 1];
                delta = delta.max((nv - v_new[node]).abs());
                v_new[node] = nv;
            }
            if delta < 1e-9 {
                // Commit inductor currents.
                self.il.copy_from_slice(&x[nn..nn + self.inductor_ids.len()]);
                break;
            }
            if _iter == 24 {
                self.il.copy_from_slice(&x[nn..nn + self.inductor_ids.len()]);
            }
        }

        // Commit phases and detect slips.
        let mut fired_ports = Vec::new();
        let k = std::f64::consts::PI / PHI0;
        for (j_idx, &comp_idx) in self.jj_ids.clone().iter().enumerate() {
            if let Component::Jj { a: na, .. } = self.net.components[comp_idx] {
                let dphi = k * dt * (self.v[na] + v_new[na]);
                let old = self.phi[j_idx];
                let new = old + dphi;
                // Count crossings of odd multiples of π (pulse centers).
                let crossings = |p: f64| {
                    ((p + std::f64::consts::PI) / (2.0 * std::f64::consts::PI)).floor() as i64
                };
                let slipped = crossings(new) - crossings(old);
                self.phi[j_idx] = new;
                if slipped > 0 {
                    self.slips[j_idx] += slipped as u64;
                    for (port, &out_comp) in self.net.outputs.iter().enumerate() {
                        if out_comp == comp_idx {
                            if self.net.decision.is_some() {
                                // Debounce: one output pulse per decision
                                // fire, however vigorously the junction spun.
                                while self.reported_fires < self.fires {
                                    self.reported_fires += 1;
                                    fired_ports.push(port);
                                }
                            } else {
                                for _ in 0..slipped {
                                    fired_ports.push(port);
                                }
                            }
                        }
                    }
                }
            }
        }
        self.v = v_new;

        // Decision rule: schedule an overdrive when the condition is met.
        if let Some((rule, _)) = self.net.decision {
            let should_fire = match rule {
                Decision::Coincidence => self.seen.iter().copied().min().unwrap_or(0) > self.fires,
                Decision::FirstArrival => {
                    // Fire on the 1st, 3rd, 5th… input pulse overall.
                    let total: u64 = self.seen.iter().sum();
                    total > 2 * self.fires
                }
                Decision::Merge => self.seen.iter().sum::<u64>() > self.fires,
            };
            if should_fire {
                self.fires += 1;
                self.overdrives.push(t + self.net.decision_delay);
            }
        }

        // Drop spent injections.
        self.injections
            .retain(|&(tc, _, _)| t - tc < 6.0 * shape.sigma);
        self.overdrives.retain(|&tc| t - tc < 6.0 * shape.sigma);
        fired_ports
    }
}

impl AnalogSim {
    /// Run the transient analysis until `t_end` (ps) with the reference
    /// (ungated, serial, solve-every-cell-every-step) engine — the golden
    /// baseline for [`run`](Self::run) and the honest "cost of schematic
    /// simulation" datapoint in the Table-2 comparison. Builds fresh state
    /// per call, so it is always re-runnable.
    pub fn run_reference(&self, t_end: f64) -> AnalogEvents {
        let mut cells: Vec<NaiveCell> = self.cells.iter().cloned().map(NaiveCell::new).collect();
        let mut ev = AnalogEvents {
            jjs: cells.iter().map(|c| c.net.jj_count()).sum(),
            lines: cells.iter().map(|c| c.net.line_count()).sum(),
            ..Default::default()
        };
        // Schedule external stimuli.
        for (cell, port, times) in &self.stimuli {
            for &t in times {
                cells[*cell].injections.push((t, *port, false));
            }
        }
        let stride = self.trace_stride.max(1);
        let steps = (t_end / self.dt).ceil() as usize;
        let mut t = 0.0;
        for step in 0..steps {
            t += self.dt;
            ev.steps += 1;
            if step % stride == 0 {
                for (cell, node, label) in &self.voltage_probes {
                    let v = cells[*cell].v.get(*node).copied().unwrap_or(0.0);
                    ev.traces.entry(label.clone()).or_default().push((t, v));
                }
            }
            for ci in 0..cells.len() {
                let fired = cells[ci].step(t, self.dt, self.shape);
                for port in fired {
                    for &((fc, fp), (tc, tp)) in &self.routes {
                        if fc == ci && fp == port {
                            cells[tc].injections.push((t + 1.0, tp, false));
                        }
                    }
                    for (pc, pp, label) in &self.probes {
                        if *pc == ci && *pp == port {
                            ev.pulses.entry(label.clone()).or_default().push(t);
                        }
                    }
                }
            }
        }
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{jtl_cell, merger_cell};

    #[test]
    fn voltage_trace_captures_the_pulse() {
        let mut sim = AnalogSim::new();
        let j = sim.add_cell(jtl_cell());
        sim.stimulate(j, 0, &[20.0]);
        sim.probe(j, 0, "OUT");
        sim.trace_node(j, 3, "V_OUT");
        let ev = sim.run(60.0);
        let tr = &ev.traces["V_OUT"];
        assert!(!tr.is_empty());
        // The output junction's voltage peaks around the pulse and is ~0
        // long before it.
        let peak = tr.iter().map(|(_, v)| v.abs()).fold(0.0, f64::max);
        assert!(peak > 0.1, "peak {peak} mV");
        // After the bias turn-on transient settles and before the pulse
        // arrives, the junction is quiescent.
        let quiescent: f64 = tr
            .iter()
            .filter(|(t, _)| *t > 12.0 && *t < 16.0)
            .map(|(_, v)| v.abs())
            .fold(0.0, f64::max);
        assert!(quiescent < 0.05, "quiescent {quiescent} mV");
        assert!(peak > 4.0 * quiescent.max(1e-3));
    }

    #[test]
    fn render_trace_produces_an_oscillogram() {
        let mut sim = AnalogSim::new();
        let j = sim.add_cell(jtl_cell());
        sim.stimulate(j, 0, &[20.0]);
        sim.trace_node(j, 2, "V");
        let ev = sim.run(40.0);
        let plot = ev.render_trace("V", 60, 9);
        assert!(plot.contains('*'));
        assert!(plot.contains("mV"));
        assert_eq!(ev.render_trace("missing", 60, 9), "(no trace 'missing')\n");
    }

    #[test]
    fn slip_counting_is_monotone() {
        let mut sim = AnalogSim::new();
        let j = sim.add_cell(jtl_cell());
        sim.stimulate(j, 0, &[20.0, 50.0, 80.0]);
        sim.probe(j, 0, "OUT");
        let ev = sim.run(120.0);
        let out = &ev.pulses["OUT"];
        assert_eq!(out.len(), 3);
        assert!(out.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn gated_engine_matches_reference_on_a_jtl_chain() {
        let mut sim = AnalogSim::new();
        let a = sim.add_cell(jtl_cell());
        let b = sim.add_cell(jtl_cell());
        let c = sim.add_cell(jtl_cell());
        sim.connect((a, 0), (b, 0));
        sim.connect((b, 0), (c, 0));
        sim.stimulate(a, 0, &[20.0, 45.0]);
        sim.probe(c, 0, "OUT");
        let golden = sim.run_reference(90.0);
        let gated = sim.run(90.0);
        assert_eq!(gated.pulses, golden.pulses);
    }

    #[test]
    fn gated_engine_matches_reference_on_a_decision_cell() {
        let mut sim = AnalogSim::new();
        let m = sim.add_cell(merger_cell());
        sim.stimulate(m, 0, &[20.0]);
        sim.stimulate(m, 1, &[48.0]);
        sim.probe(m, 0, "Q");
        let golden = sim.run_reference(90.0);
        let gated = sim.run(90.0);
        assert_eq!(gated.pulses, golden.pulses);
    }

    #[test]
    fn run_is_repeatable_after_reset() {
        // Regression: `run` used to re-schedule stimuli on top of stale
        // state, so a second call produced garbage.
        let mut sim = AnalogSim::new();
        let a = sim.add_cell(jtl_cell());
        let b = sim.add_cell(jtl_cell());
        sim.connect((a, 0), (b, 0));
        sim.stimulate(a, 0, &[20.0]);
        sim.probe(b, 0, "OUT");
        sim.trace_node(b, 3, "V");
        let first = sim.run(60.0);
        let second = sim.run(60.0);
        assert_eq!(first, second);
        assert_eq!(first.pulses["OUT"].len(), 1);
    }

    #[test]
    fn trace_stride_zero_is_clamped_not_a_panic() {
        let mut sim = AnalogSim::new();
        let j = sim.add_cell(jtl_cell());
        sim.stimulate(j, 0, &[20.0]);
        sim.trace_node(j, 2, "V");
        sim.trace_stride = 0;
        let ev = sim.run(30.0);
        // Clamped to every-step sampling.
        assert_eq!(ev.traces["V"].len(), ev.steps);
        let r = sim.run_reference(30.0);
        assert_eq!(r.traces["V"].len(), r.steps);
    }
}
