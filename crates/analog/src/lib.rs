//! # rlse-analog — a schematic-level transient simulator for SCE cells
//!
//! The analog baseline of the PyLSE paper's Table 2 and Figure 16 is Cadence
//! Virtuoso with a proprietary process design kit; this crate provides the
//! open substitute: a small SPICE-class engine (modified nodal analysis,
//! backward-Euler integration, Newton iteration) with the RCSJ Josephson
//! junction model, plus netlists for the cells the paper's analog
//! comparison uses (JTL, splitter, merger, C element, inverted C element).
//!
//! The defining cost shape of schematic simulation is preserved: every
//! junction is an ODE integrated at a fixed sub-picosecond timestep whether
//! or not anything is happening, while the pulse level (rlse-core) pays
//! per-event cost only. See DESIGN.md §3 for what is genuinely analog here
//! and what is macromodelled.
//!
//! ```
//! use rlse_analog::prelude::*;
//!
//! let mut sim = AnalogSim::new();
//! let j = sim.add_cell(jtl_cell());
//! sim.stimulate(j, 0, &[20.0]);
//! sim.probe(j, 0, "OUT");
//! let events = sim.run(60.0);
//! assert_eq!(events.pulses["OUT"].len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cells;
pub mod engine;
mod solver;
pub mod synth;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::cells::{c_cell, c_inv_cell, jtl_cell, merger_cell, netlist_for, splitter_cell};
    pub use crate::engine::{
        AnalogEvents, AnalogSim, CellNetlist, Component, Decision, PulseShape,
    };
    pub use crate::synth::from_circuit;
}
