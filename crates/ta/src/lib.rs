//! # rlse-ta — timed automata, UPPAAL export, and model checking
//!
//! The formal-verification layer of RLSE, reproducing §4.4 and §5.3 of the
//! PyLSE paper:
//!
//! * [`automaton`] — networks of timed automata with clocks, guards,
//!   invariants, and binary channel synchronization.
//! * [`translate`] — the automatic PyLSE-Machine→TA translation of Fig. 14,
//!   including setup/hold error locations and soaked firing automata.
//! * [`uppaal`] — UPPAAL 4.x XML export and TCTL query generation
//!   (Query 1: output correctness; Query 2: unreachable error states).
//! * [`dbm`] — difference bound matrices, the zone representation.
//! * [`mc`] — a zone-based reachability model checker that plays the role
//!   of UPPAAL's `verifyta` (which is closed-source and unavailable here),
//!   checking the same two queries.
//!
//! ## Example: verify the Synchronous AND element
//!
//! ```
//! use rlse_ta::prelude::*;
//! use rlse_cells::defs::and_elem;
//!
//! let tr = translate_machine(
//!     &and_elem(),
//!     &[("a", vec![20.0]), ("b", vec![30.0]), ("clk", vec![50.0])],
//!     10,
//! ).unwrap();
//! // Query 2: no timing-violation state is reachable.
//! let r = check(&tr.net, &McQuery::query2(&tr), McOptions::default());
//! assert_eq!(r.holds, Some(true));
//! // Query 1: q fires only at 59.2 ps.
//! let r = check(&tr.net, &McQuery::query1(&tr, &[("q", vec![59.2])]),
//!               McOptions::default());
//! assert_eq!(r.holds, Some(true));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod automaton;
pub mod dbm;
pub mod mc;
pub mod translate;
pub mod uppaal;

/// Commonly used items, for glob import.
pub mod prelude {
    pub use crate::automaton::{NetworkStats, TaNetwork};
    pub use crate::mc::{check, Checker, McOptions, McQuery, McResult, OutputSpec};
    pub use crate::translate::{
        translate_circuit, translate_circuit_with, translate_machine, TranslateOptions,
        Translation,
    };
    pub use crate::uppaal::{query1_tctl, query2_tctl, to_uppaal_xml};
}
