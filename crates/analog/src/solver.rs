//! Dense-LU solver machinery for the event-gated transient engine: the
//! split MNA stamp (constant linear part vs. per-iteration JJ corrections),
//! reusable LU factorizations, and per-netlist solver templates shared by
//! every structurally identical cell instance (the same dedup trick
//! `rlse-core::compiled` uses for machines).
//!
//! The arithmetic is deliberately bit-compatible with the reference
//! engine's inline Gaussian elimination: the pivoting rule, the singular
//! guards, and the order of the row operations applied to the right-hand
//! side are identical, so a factor-then-solve on the same matrix produces
//! the same floating-point result as one pass of the reference elimination.

use crate::engine::{CellNetlist, Component, Decision, PHI0};

/// Pivot magnitudes below this are treated as singular, matching the
/// reference elimination's guard.
const SINGULAR_TOL: f64 = 1e-12;

/// A dense LU factorization with partial pivoting, storing the multipliers
/// in the strict lower triangle and the pivot choice per column, so one
/// factorization can solve many right-hand sides.
#[derive(Debug, Clone)]
pub(crate) struct DenseLu {
    n: usize,
    /// Row-major packed factors (upper triangle + unit-lower multipliers).
    m: Vec<f64>,
    /// Pivot row chosen at each column.
    piv: Vec<u32>,
    /// Columns whose best pivot was below [`SINGULAR_TOL`]; their
    /// elimination is skipped and their solution component forced to 0,
    /// exactly as in the reference elimination.
    sing: Vec<bool>,
}

impl DenseLu {
    pub(crate) fn new(n: usize) -> Self {
        DenseLu {
            n,
            m: vec![0.0; n * n],
            piv: vec![0; n],
            sing: vec![false; n],
        }
    }

    /// Load the base matrix `a0` (length `n*n`) into the factor workspace.
    pub(crate) fn load(&mut self, a0: &[f64]) {
        self.m.copy_from_slice(a0);
    }

    /// Add `v` to the diagonal entry of unknown `ui` (the JJ correction).
    pub(crate) fn add_diag(&mut self, ui: usize, v: f64) {
        self.m[ui * self.n + ui] += v;
    }

    /// Factor the loaded matrix in place (partial pivoting, reference
    /// pivot rule).
    pub(crate) fn factor(&mut self) {
        let n = self.n;
        let m = &mut self.m;
        for col in 0..n {
            let mut piv = col;
            for r in col + 1..n {
                if m[r * n + col].abs() > m[piv * n + col].abs() {
                    piv = r;
                }
            }
            self.piv[col] = piv as u32;
            if m[piv * n + col].abs() < SINGULAR_TOL {
                self.sing[col] = true;
                continue;
            }
            self.sing[col] = false;
            if piv != col {
                for c2 in 0..n {
                    m.swap(col * n + c2, piv * n + c2);
                }
            }
            let d = m[col * n + col];
            for r in col + 1..n {
                let f = m[r * n + col] / d;
                m[r * n + col] = f;
                if f == 0.0 {
                    continue;
                }
                for c2 in col + 1..n {
                    m[r * n + c2] -= f * m[col * n + c2];
                }
            }
        }
    }

    /// Solve `A x = b` in place, applying the recorded row swaps and
    /// multipliers in the same order the reference elimination applies them
    /// to its augmented right-hand side.
    pub(crate) fn solve(&self, b: &mut [f64]) {
        let n = self.n;
        let m = &self.m;
        for col in 0..n {
            if self.sing[col] {
                continue;
            }
            let piv = self.piv[col] as usize;
            if piv != col {
                b.swap(col, piv);
            }
            for r in col + 1..n {
                let f = m[r * n + col];
                if f == 0.0 {
                    continue;
                }
                b[r] -= f * b[col];
            }
        }
        for col in (0..n).rev() {
            let mut s = b[col];
            for c2 in col + 1..n {
                s -= m[col * n + c2] * b[c2];
            }
            let d = m[col * n + col];
            b[col] = if d.abs() < SINGULAR_TOL { 0.0 } else { s / d };
        }
    }
}

/// Per-junction solver data derived from one [`Component::Jj`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct JjTmpl {
    /// The junction's node.
    pub node: usize,
    /// Unknown (row) index of that node.
    pub ui: usize,
    /// Critical current (mA).
    pub ic: f64,
    /// Static conductance `1/R + C/dt`, precomputed with the reference
    /// engine's expression so the fused diagonal add is bit-identical.
    pub s_static: f64,
    /// `C/dt`, for the companion-model history current.
    pub c_over_dt: f64,
}

/// One right-hand-side contribution, replayed in netlist component order so
/// the floating-point accumulation order matches the reference stamp loop.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RhsOp {
    /// Inductor branch row: `rhs[row] += -(L/dt) * il[il_idx]`.
    L {
        row: usize,
        l_over_dt: f64,
        il_idx: usize,
    },
    /// JJ companion current: `rhs[ui] -= i_eq` for junction `j`.
    Jj { j: usize },
    /// Constant bias: `rhs[ui] += i`.
    Bias { ui: usize, i: f64 },
}

/// The per-netlist solver template: everything derivable from a
/// [`CellNetlist`] and the timestep, shared by all structurally identical
/// cell instances. Holds the constant part of the MNA stamp (resistors,
/// inductors, biases — stamped once at build), the per-junction correction
/// descriptors, and the LU factorization of the cold-start (φ = 0) matrix
/// that every instance uses until its junction operating points move.
#[derive(Debug)]
pub(crate) struct CellTemplate {
    /// The netlist this template was built from (structural dedup key).
    pub net: CellNetlist,
    /// Number of MNA unknowns (non-ground nodes + inductor branches).
    pub n: usize,
    /// Number of non-ground nodes.
    pub nn: usize,
    /// Total node count including ground.
    pub nodes: usize,
    /// Constant linear stamp (R, L, C-independent entries), row-major. The
    /// JJ static conductances are *not* folded in — they are added together
    /// with the per-iteration `g_sin` correction as one fused value, which
    /// keeps the diagonal arithmetic identical to the reference stamp.
    pub a0: Vec<f64>,
    /// Right-hand-side program, in netlist component order.
    pub rhs_prog: Vec<RhsOp>,
    /// Junction descriptors, in netlist order.
    pub jjs: Vec<JjTmpl>,
    /// Number of inductor branch unknowns.
    pub n_l: usize,
    /// For each junction (netlist order), the output ports monitoring it.
    pub ports_of_jj: Vec<Vec<usize>>,
    /// Injection node per input port.
    pub inputs: Vec<usize>,
    /// Decision rule with the overdriven junction's node and critical
    /// current, pre-resolved from the component index.
    pub decision: Option<(Decision, usize, f64)>,
    /// Condition-to-overdrive latency (ps).
    pub decision_delay: f64,
    /// LU factorization of `a0` plus the φ = 0 junction corrections — the
    /// shared cold-start factorization every instance begins with.
    pub lu_zero: DenseLu,
    /// The `g_sin` values (per junction) the shared factorization was
    /// computed at: `ic · cos(0) · k · dt`.
    pub g_zero: Vec<f64>,
}

impl CellTemplate {
    /// Build the template for `net` at timestep `dt`.
    pub(crate) fn build(net: &CellNetlist, dt: f64) -> Self {
        let nn = net.nodes - 1;
        let n_l = net
            .components
            .iter()
            .filter(|c| matches!(c, Component::Inductor { .. }))
            .count();
        let n = nn + n_l;
        let k = std::f64::consts::PI / PHI0;
        let mut a0 = vec![0.0f64; n * n];
        let mut rhs_prog = Vec::new();
        let mut jjs = Vec::new();
        let mut l_idx = 0usize;
        let idx = |node: usize| node - 1;
        {
            let stamp = |a: &mut Vec<f64>, r: usize, c: usize, v: f64| a[r * n + c] += v;
            for comp in &net.components {
                match *comp {
                    Component::Resistor { a: na, b: nb, r } => {
                        let g = 1.0 / r;
                        if na != 0 {
                            stamp(&mut a0, idx(na), idx(na), g);
                        }
                        if nb != 0 {
                            stamp(&mut a0, idx(nb), idx(nb), g);
                        }
                        if na != 0 && nb != 0 {
                            stamp(&mut a0, idx(na), idx(nb), -g);
                            stamp(&mut a0, idx(nb), idx(na), -g);
                        }
                    }
                    Component::Inductor { a: na, b: nb, l } => {
                        let row = nn + l_idx;
                        if na != 0 {
                            stamp(&mut a0, row, idx(na), 1.0);
                            stamp(&mut a0, idx(na), row, 1.0);
                        }
                        if nb != 0 {
                            stamp(&mut a0, row, idx(nb), -1.0);
                            stamp(&mut a0, idx(nb), row, -1.0);
                        }
                        stamp(&mut a0, row, row, -l / dt);
                        rhs_prog.push(RhsOp::L {
                            row,
                            l_over_dt: l / dt,
                            il_idx: l_idx,
                        });
                        l_idx += 1;
                    }
                    Component::Jj { a: na, ic, r, c } => {
                        rhs_prog.push(RhsOp::Jj { j: jjs.len() });
                        jjs.push(JjTmpl {
                            node: na,
                            ui: idx(na),
                            ic,
                            s_static: 1.0 / r + c / dt,
                            c_over_dt: c / dt,
                        });
                    }
                    Component::Bias { node, i } => {
                        if node != 0 {
                            rhs_prog.push(RhsOp::Bias { ui: idx(node), i });
                        }
                    }
                }
            }
        }
        let ports_of_jj = jjs
            .iter()
            .enumerate()
            .map(|(j, _)| {
                // Recover the component index of junction j to match ports.
                let comp_idx = net
                    .components
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| matches!(c, Component::Jj { .. }))
                    .nth(j)
                    .map(|(i, _)| i)
                    .expect("jj exists");
                net.outputs
                    .iter()
                    .enumerate()
                    .filter(|(_, &oc)| oc == comp_idx)
                    .map(|(port, _)| port)
                    .collect()
            })
            .collect();
        let decision = net.decision.map(|(rule, fire_jj)| {
            match net.components[fire_jj] {
                Component::Jj { a: node, ic, .. } => (rule, node, ic),
                _ => panic!("decision must overdrive a JJ component"),
            }
        });
        // Cold-start factorization at φ = 0 (cos φ = 1), shared by every
        // instance of this netlist until its operating point moves.
        let g_zero: Vec<f64> = jjs.iter().map(|j| j.ic * 1.0f64 * k * dt).collect();
        let mut lu_zero = DenseLu::new(n);
        lu_zero.load(&a0);
        for (j, jj) in jjs.iter().enumerate() {
            lu_zero.add_diag(jj.ui, jj.s_static + g_zero[j]);
        }
        lu_zero.factor();
        CellTemplate {
            net: net.clone(),
            n,
            nn,
            nodes: net.nodes,
            a0,
            rhs_prog,
            jjs,
            n_l,
            ports_of_jj,
            inputs: net.inputs.clone(),
            decision,
            decision_delay: net.decision_delay,
            lu_zero,
            g_zero,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{c_cell, jtl_cell};

    /// Reference: one pass of the engine's original augmented Gaussian
    /// elimination, copied verbatim.
    fn reference_solve(a: &[f64], rhs: &[f64], n: usize) -> Vec<f64> {
        let mut x = rhs.to_vec();
        let mut m = a.to_vec();
        for col in 0..n {
            let mut piv = col;
            for r in col + 1..n {
                if m[r * n + col].abs() > m[piv * n + col].abs() {
                    piv = r;
                }
            }
            if m[piv * n + col].abs() < 1e-12 {
                continue;
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
        x
    }

    #[test]
    fn lu_solve_is_bitwise_identical_to_reference_elimination() {
        // A representative MNA-shaped matrix (JTL template + corrections).
        let tmpl = CellTemplate::build(&jtl_cell(), 0.1);
        let n = tmpl.n;
        let mut a = tmpl.a0.clone();
        for (j, jj) in tmpl.jjs.iter().enumerate() {
            a[jj.ui * n + jj.ui] += jj.s_static + tmpl.g_zero[j] * 0.37;
        }
        let rhs: Vec<f64> = (0..n).map(|i| 0.1 * (i as f64 + 1.0) - 0.25).collect();
        let expect = reference_solve(&a, &rhs, n);
        let mut lu = DenseLu::new(n);
        lu.load(&a);
        lu.factor();
        let mut x = rhs.clone();
        lu.solve(&mut x);
        assert_eq!(x, expect, "LU path must reproduce the elimination bitwise");
    }

    #[test]
    fn template_shapes_match_netlists() {
        let jtl = CellTemplate::build(&jtl_cell(), 0.1);
        assert_eq!(jtl.nodes, 4);
        assert_eq!(jtl.n, 3 + 2); // 3 real nodes + 2 inductor branches
        assert_eq!(jtl.jjs.len(), 2);
        assert!(jtl.decision.is_none());
        // The output port watches the second junction.
        assert_eq!(jtl.ports_of_jj[0], Vec::<usize>::new());
        assert_eq!(jtl.ports_of_jj[1], vec![0]);

        let c = CellTemplate::build(&c_cell(), 0.1);
        assert_eq!(c.jjs.len(), 3);
        let (rule, node, ic) = c.decision.expect("decision cell");
        assert_eq!(rule, Decision::Coincidence);
        assert_eq!(node, 5);
        assert!(ic > 0.5); // the high-Ic storage junction
    }

    #[test]
    fn singular_columns_yield_zero_like_the_reference() {
        // 2x2 with an empty row/column: the reference forces x[1] = 0.
        let a = vec![2.0, 0.0, 0.0, 0.0];
        let rhs = vec![4.0, 1.0];
        let expect = reference_solve(&a, &rhs, 2);
        let mut lu = DenseLu::new(2);
        lu.load(&a);
        lu.factor();
        let mut x = rhs.clone();
        lu.solve(&mut x);
        assert_eq!(x, expect);
        assert_eq!(x, vec![2.0, 0.0]);
    }
}
