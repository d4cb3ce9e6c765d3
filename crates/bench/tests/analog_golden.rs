//! Golden agreement between the event-gated analog engine and the naive
//! reference engine on every Table-2 design: exact pulse-time equality.

use rlse_analog::synth::from_circuit;
use rlse_bench::{bench_bitonic, bench_c, bench_c_inv, bench_min_max, Bench};

/// The Table-2 designs with their `table2` binary run lengths. Debug builds
/// integrate ~50x slower, so tier-1 runs use a shortened transient that
/// still covers several pulses per design; `--release` (CI smoke) runs the
/// full Table-2 window.
fn designs() -> Vec<(Bench, f64)> {
    let t = if cfg!(debug_assertions) { 150.0 } else { 450.0 };
    // The sorter's first output pulse lands at ~72 ps.
    let tb = if cfg!(debug_assertions) { 80.0 } else { 300.0 };
    vec![
        (bench_c(), t),
        (bench_c_inv(), t),
        (bench_min_max(), t),
        (bench_bitonic(8), tb),
    ]
}

#[test]
fn gated_engine_matches_reference_pulse_times_on_table2_designs() {
    for (bench, t_end) in designs() {
        let mut sim =
            from_circuit(&bench.circuit).expect("Table 2 designs use only analog-modelled cells");
        let golden = sim.run_reference(t_end);
        let gated = sim.run(t_end);
        assert_eq!(
            gated.pulses, golden.pulses,
            "{}: gated engine diverged from the reference pulse times",
            bench.name
        );
        assert!(
            !golden.pulses.is_empty(),
            "{}: golden run produced no pulses — the comparison is vacuous",
            bench.name
        );
    }
}
