//! # rlse-bench — the experiment harness
//!
//! Builders and helpers shared by the table/figure regeneration binaries
//! (`table2`, `table3`, `fig10`, `fig12`, `fig13`, `fig16`, `robustness`)
//! and the criterion benches. Each binary regenerates one table or figure
//! of the PyLSE paper's evaluation (see DESIGN.md §2 for the index).

#![warn(missing_docs)]

use rlse_cells::defs;
use rlse_core::machine::Machine;
use rlse_core::prelude::*;
use std::sync::Arc;

/// A named experiment circuit: the design plus the stimuli already applied.
#[derive(Debug)]
pub struct Bench {
    /// Display name (Table 2/3 row).
    pub name: &'static str,
    /// The paper's "size" metric: DSL transitions for basic cells, lines of
    /// code for larger designs.
    pub size: usize,
    /// The circuit with stimuli attached.
    pub circuit: Circuit,
}

/// Build the paper's Figure 12 AND-element bench.
pub fn bench_and() -> Bench {
    let mut c = Circuit::new();
    let a = c.inp_at(&[125.0, 175.0, 225.0, 275.0], "A");
    let b = c.inp_at(&[75.0, 185.0, 225.0, 265.0], "B");
    let clk = c.inp(50.0, 50.0, 6, "CLK").expect("valid clock stimulus");
    let q = rlse_cells::and_s(&mut c, a, b, clk).expect("fresh wires");
    c.inspect(q, "Q");
    Bench {
        name: "And",
        size: defs::and_elem().definition_size(),
        circuit: c,
    }
}

/// A single C element driven by the Fig. 16 stimuli.
pub fn bench_c() -> Bench {
    let mut c = Circuit::new();
    let a = c.inp_at(&[100.0, 220.0, 340.0], "A");
    let b = c.inp_at(&[130.0, 250.0, 370.0], "B");
    let q = rlse_cells::c(&mut c, a, b).expect("fresh wires");
    c.inspect(q, "Q");
    Bench {
        name: "C",
        size: defs::c_elem().definition_size(),
        circuit: c,
    }
}

/// A single inverted C element.
pub fn bench_c_inv() -> Bench {
    let mut c = Circuit::new();
    let a = c.inp_at(&[100.0, 220.0, 340.0], "A");
    let b = c.inp_at(&[130.0, 250.0, 370.0], "B");
    let q = rlse_cells::c_inv(&mut c, a, b).expect("fresh wires");
    c.inspect(q, "Q");
    Bench {
        name: "InvC",
        size: defs::c_inv_elem().definition_size(),
        circuit: c,
    }
}

/// The min-max pair with the paper's §5.3 stimulus.
pub fn bench_min_max() -> Bench {
    let mut c = Circuit::new();
    let a = c.inp_at(&[115.0, 215.0, 315.0], "A");
    let b = c.inp_at(&[64.0, 184.0, 304.0], "B");
    let (low, high) = rlse_designs::min_max(&mut c, a, b).expect("fresh wires");
    c.inspect(low, "LOW");
    c.inspect(high, "HIGH");
    Bench {
        name: "Min-Max Pair",
        size: 5,
        circuit: c,
    }
}

/// Stimulus times used for the n-input bitonic sorters (distinct, scrambled
/// order, rank-gap scaled past n = 8 — identical to the old flat 10 ps ramp
/// for the paper's n ≤ 8 designs).
pub fn bitonic_times(n: usize) -> Vec<f64> {
    rlse_designs::bitonic_stimulus(n, 15.0)
}

/// An n-input bitonic sorter bench (the paper evaluates n = 4 and n = 8).
pub fn bench_bitonic(n: usize) -> Bench {
    let mut c = Circuit::new();
    rlse_designs::bitonic_sorter_with_inputs(&mut c, &bitonic_times(n)).expect("fresh wires");
    Bench {
        name: match n {
            4 => "Bitonic Sort 4",
            8 => "Bitonic Sort 8",
            16 => "Bitonic Sort 16",
            32 => "Bitonic Sort 32",
            64 => "Bitonic Sort 64",
            _ => "Bitonic Sort",
        },
        size: rlse_designs::bitonic_schedule(n).iter().map(Vec::len).sum(),
        circuit: c,
    }
}

/// The race tree of §5.2 with defaults picking label `a`.
pub fn bench_race_tree() -> Bench {
    let mut c = Circuit::new();
    rlse_designs::race_tree_with_inputs(
        &mut c,
        20.0,
        10.0,
        20.0,
        rlse_designs::Thresholds::default(),
    )
    .expect("fresh wires");
    Bench {
        name: "Race Tree",
        size: 16,
        circuit: c,
    }
}

/// The synchronous full adder computing 1 + 1 + 0.
pub fn bench_adder_sync() -> Bench {
    let mut c = Circuit::new();
    rlse_designs::adder::full_adder_sync_with_inputs(&mut c, true, true, false)
        .expect("fresh wires");
    Bench {
        name: "Adder (Sync)",
        size: 13,
        circuit: c,
    }
}

/// The dual-rail (xSFQ-style) full adder computing 1 + 0 + 1.
pub fn bench_adder_xsfq() -> Bench {
    let mut c = Circuit::new();
    rlse_designs::xsfq_adder::full_adder_xsfq_with_inputs(&mut c, true, false, true)
        .expect("fresh wires");
    Bench {
        name: "Adder (xSFQ)",
        size: 31,
        circuit: c,
    }
}

/// The six larger designs, in the paper's Table 3 row order.
pub fn all_design_benches() -> Vec<Bench> {
    vec![
        bench_min_max(),
        bench_race_tree(),
        bench_adder_sync(),
        bench_adder_xsfq(),
        bench_bitonic(4),
        bench_bitonic(8),
    ]
}

/// A stimulus that exercises a basic cell's firing behavior without timing
/// violations (used for the Table 3 cell rows).
pub fn cell_stimulus(name: &str) -> Vec<(&'static str, Vec<f64>)> {
    match name {
        "C" | "InvC" | "M" => vec![("a", vec![20.0]), ("b", vec![50.0])],
        "S" | "JTL" => vec![("a", vec![20.0])],
        "And" | "Or" | "Xnor" => {
            vec![("a", vec![20.0]), ("b", vec![30.0]), ("clk", vec![60.0])]
        }
        // Inverting gates fire when (some) inputs are absent.
        "Nand" | "Xor" => vec![("a", vec![20.0]), ("b", vec![]), ("clk", vec![60.0])],
        "Nor" => vec![("a", vec![]), ("b", vec![]), ("clk", vec![60.0])],
        "Inv" => vec![("a", vec![]), ("clk", vec![60.0])],
        "DRO" | "DRO C" => vec![("a", vec![20.0]), ("clk", vec![60.0])],
        "DRO SR" => vec![("set", vec![20.0]), ("rst", vec![]), ("clk", vec![60.0])],
        "2x2 Join" => vec![
            ("a_t", vec![20.0]),
            ("a_f", vec![]),
            ("b_t", vec![40.0]),
            ("b_f", vec![]),
        ],
        other => panic!("no stimulus defined for cell '{other}'"),
    }
}

/// Build a one-cell bench circuit for a Table 3 basic-cell row.
pub fn cell_bench(name: &'static str, spec: &Arc<Machine>) -> Bench {
    let stim = cell_stimulus(name);
    let mut c = Circuit::new();
    let inputs: Vec<Wire> = spec
        .inputs()
        .iter()
        .map(|input| {
            let times = stim
                .iter()
                .find(|(n, _)| n == input)
                .map(|(_, t)| t.clone())
                .unwrap_or_default();
            c.inp_at(&times, input)
        })
        .collect();
    let outs = c.add_machine(spec, &inputs).expect("fresh wires");
    for (k, w) in outs.iter().enumerate() {
        let oname = spec.outputs()[k].clone();
        c.inspect(*w, &oname);
    }
    Bench {
        name,
        size: spec.definition_size(),
        circuit: c,
    }
}

/// Run the pulse simulation of a bench; returns the events, the wall-clock
/// seconds, and the circuit back for further analysis.
pub fn simulate(bench: Bench) -> (Events, f64, Circuit) {
    let mut sim = Simulation::new(bench.circuit);
    let start = std::time::Instant::now();
    let events = sim.run().expect("bench simulates cleanly");
    let secs = start.elapsed().as_secs_f64();
    let circuit = sim.into_circuit().expect("built from a circuit");
    (events, secs, circuit)
}

/// Expected output times per circuit-output wire, extracted from a
/// simulation run (the ground truth for Query 1), snapped to the 0.1 ps
/// TA grid.
pub fn expected_outputs(circ: &Circuit, events: &Events) -> Vec<(String, Vec<f64>)> {
    circ.output_wires()
        .into_iter()
        .map(|w| {
            let name = circ.wire_name(w).to_string();
            let times = events
                .times(&name)
                .iter()
                .map(|t| (t * 10.0).round() / 10.0)
                .collect();
            (name, times)
        })
        .collect()
}

/// Fixed-width table printing helper.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut w = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            w[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], w: &[usize]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = w[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &w));
        out.push('\n');
        out.push_str(&"-".repeat(w.iter().sum::<usize>() + 2 * (ncol - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &w));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cell_benches_simulate_cleanly() {
        for (name, spec) in defs::all_cells() {
            let b = cell_bench(name, &spec);
            let (events, _, circ) = simulate(b);
            let expected = expected_outputs(&circ, &events);
            let total: usize = expected.iter().map(|(_, t)| t.len()).sum();
            assert!(total >= 1, "{name} produced no output");
        }
    }

    #[test]
    fn design_benches_simulate_cleanly() {
        for b in all_design_benches() {
            let name = b.name;
            let (events, _, _) = simulate(b);
            assert!(!events.is_empty(), "{name}");
        }
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["Name", "Value"]);
        t.row(vec!["x".into(), "1".into()]);
        let s = t.render();
        assert!(s.contains("Name"));
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn bitonic_times_are_distinct() {
        let ts = bitonic_times(8);
        let mut s = ts.clone();
        s.sort_by(f64::total_cmp);
        s.dedup();
        assert_eq!(s.len(), 8);
    }
}
