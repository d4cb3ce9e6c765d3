//! # rlse-designs — the larger evaluation designs of the PyLSE paper
//!
//! The six larger designs of Table 3 plus the memory hole of Figure 9, all
//! built on [`rlse_core`] and [`rlse_cells`]:
//!
//! * [`minmax`] — the min-max comparator pair (Fig. 11).
//! * [`bitonic`] — Batcher bitonic sorters over min-max pairs, for any
//!   power-of-two width (the paper evaluates 4 and 8 inputs; Fig. 15).
//! * [`race_tree`](mod@race_tree) — a race-logic decision tree with four labels (§5.2).
//! * [`adder`] — the clocked RSFQ full adder ("Adder (Sync)").
//! * [`xsfq_adder`] — a clockless dual-rail full adder ("Adder (xSFQ)").
//! * [`memory`] — the 16×2-bit behavioral memory hole (Fig. 9).
//!
//! Extensions beyond the paper's six designs:
//!
//! * [`ripple_adder`](mod@ripple_adder) — n-bit ripple-carry adders generated from the 1-bit
//!   synchronous full adder.
//! * [`registers`] — DRO shift registers and toggle-chain ripple counters.
//! * [`dual_rail`] — a clockless dual-rail (xSFQ-style) gate library.
//! * [`decision_tree`](mod@decision_tree) — arbitrary-depth race-logic
//!   decision trees.
//! * [`ring`] — feedback loops (ring oscillators), exercising the
//!   simulator's target-time cutoff.
//! * [`margins`] — Monte-Carlo timing-margin analyses of the ripple adder
//!   and decision trees, built on `rlse_core`'s parallel sweep engine.
//! * [`ir_fixtures`] — netlist-IR emitters for every shmoo design, the
//!   fixture source for round-trip tests and the serving front end.
//!
//! Each module exposes both a composable builder (taking wires) and a
//! `*_with_inputs` convenience that constructs a self-contained test bench.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adder;
pub mod bitonic;
pub mod decision_tree;
pub mod dual_rail;
pub mod ir_fixtures;
pub mod margins;
pub mod memory;
pub mod minmax;
pub mod race_tree;
pub mod registers;
pub mod ring;
pub mod ripple_adder;
pub mod xsfq_adder;

pub use adder::full_adder_sync;
pub use decision_tree::{decision_tree, decision_tree_with_inputs, Tree};
pub use dual_rail::{dr_and, dr_fork, dr_input, dr_inspect, dr_not, dr_or, dr_xor};
pub use ir_fixtures::{all_design_irs, design_ir, design_ir_with_expected_outputs};
pub use margins::{
    decision_tree_margin, design_spec, find_first_pass, find_first_pass_uniform,
    ripple_adder_margin, shmoo_design_names, shmoo_map, Boundary, CellState, MarginAnalysis,
    MarginPoint, ShmooMap, ShmooOptions, MAX_SHMOO_SCALE,
};
pub use registers::{ripple_counter, shift_register};
pub use ring::ring_oscillator;
pub use ripple_adder::{ripple_adder, ripple_adder_with_inputs};
pub use bitonic::{
    bitonic_delay, bitonic_rank_gap, bitonic_schedule, bitonic_sorter,
    bitonic_sorter_with_inputs, bitonic_sorter_with_waves, bitonic_stimulus,
    bitonic_wave_period, bitonic_wave_stimulus,
};
pub use memory::{memory_bench, memory_hole, MemOp};
pub use minmax::{min_max, MIN_MAX_DELAY};
pub use race_tree::{race_tree, race_tree_with_inputs, Thresholds};
pub use xsfq_adder::{
    full_adder_xsfq, ripple_adder_xsfq, ripple_adder_xsfq_with_inputs, DualRail,
};
