//! Golden of the zone model checker's full result: for every Table-3 basic
//! cell and every Table-3 design up to Bitonic Sort 4, both queries, plus a
//! refuted Query 1 (wrong expected times), an injected hold violation and a
//! `max_states: 3` budget exhaustion, the verdict, every `McStats` field,
//! the violation, the counterexample trace and the diagnostic must
//! reproduce `crates/ta/tests/golden/mc_results.txt` exactly (`time_secs`
//! is wall-clock and not recorded; `max_zone_clocks` is not recorded
//! either).
//!
//! The test lives in `rlse-bench` because the Table-3 benches are built
//! here; the golden sits with the checker it pins. Regenerate only for an
//! intended change of the checker's observable output, and only from the
//! commit before an engine change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --release -p rlse-bench --test mc_golden
//! ```

use rlse_bench::{all_design_benches, cell_bench, expected_outputs, simulate, Bench};
use rlse_cells::defs;
use rlse_core::prelude::*;
use rlse_ta::mc::{check, McOptions, McQuery, McResult};
use rlse_ta::translate::{translate_circuit, Translation};
use std::fmt::Write as _;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../ta/tests/golden/mc_results.txt"
);

/// Table-3 state budget (the `table3 300000` run in EXPERIMENTS.md).
const BUDGET: usize = 300_000;

/// One result as text: every field except `time_secs` and
/// `max_zone_clocks`.
fn render(out: &mut String, label: &str, r: &McResult) {
    let s = &r.stats;
    writeln!(out, "== {label}").unwrap();
    writeln!(out, "holds: {:?}", r.holds).unwrap();
    writeln!(
        out,
        "stats: states={} peak_store={} levels={} candidates={} subsumed={} evicted={} \
         killed={}",
        s.states, s.peak_store, s.levels, s.candidates, s.subsumed, s.evicted, s.killed
    )
    .unwrap();
    writeln!(out, "violation: {:?}", r.violation).unwrap();
    writeln!(out, "diagnostic: {:?}", r.diagnostic).unwrap();
    match &r.trace {
        None => writeln!(out, "trace: None").unwrap(),
        Some(steps) => {
            writeln!(out, "trace:").unwrap();
            for step in steps {
                writeln!(out, "  {step}").unwrap();
            }
        }
    }
}

/// Check `query` under a state budget of `max_states` and render the result.
fn check_one(out: &mut String, label: &str, tr: &Translation, query: &McQuery, max_states: usize) {
    let opts = McOptions {
        max_states,
        ..McOptions::default()
    };
    render(out, label, &check(&tr.net, query, opts));
}

/// Both queries of one Table-3 row, Query 1 against the simulated outputs.
fn table3_row(out: &mut String, bench: Bench) {
    let name = bench.name;
    let (events, _, circ) = simulate(bench);
    let tr = translate_circuit(&circ).expect("Table 3 designs contain no holes");
    let expected = expected_outputs(&circ, &events);
    let refs: Vec<(&str, Vec<f64>)> = expected
        .iter()
        .map(|(n, t)| (n.as_str(), t.clone()))
        .collect();
    check_one(
        out,
        &format!("{name} q1"),
        &tr,
        &McQuery::query1(&tr, &refs),
        BUDGET,
    );
    check_one(
        out,
        &format!("{name} q2"),
        &tr,
        &McQuery::query2(&tr),
        BUDGET,
    );
}

fn results() -> String {
    let mut out = String::new();
    for (name, spec) in defs::all_cells() {
        table3_row(&mut out, cell_bench(name, &spec));
    }
    for bench in all_design_benches()
        .into_iter()
        .filter(|b| b.name != "Bitonic Sort 8")
    {
        table3_row(&mut out, bench);
    }

    // Query 1 refuted: LOW is claimed at 90.0 but fires at 89.0.
    let min_max = rlse_bench::bench_min_max().circuit;
    let tr = translate_circuit(&min_max).unwrap();
    let wrong = McQuery::query1(
        &tr,
        &[
            ("LOW", vec![90.0, 209.0, 329.0]),
            ("HIGH", vec![140.0, 240.0, 340.0]),
        ],
    );
    check_one(&mut out, "Min-Max Pair q1 wrong times", &tr, &wrong, BUDGET);

    // Pulse `a` 1 ps after the clock lands inside the AND cell's hold window.
    let mut c = Circuit::new();
    let a = c.inp_at(&[61.0], "a");
    let b = c.inp_at(&[30.0], "b");
    let clk = c.inp_at(&[60.0], "clk");
    let q = rlse_cells::and_s(&mut c, a, b, clk).unwrap();
    c.inspect(q, "q");
    let tr = translate_circuit(&c).unwrap();
    check_one(
        &mut out,
        "And hold violation q2",
        &tr,
        &McQuery::query2(&tr),
        BUDGET,
    );

    // A state budget of 3 runs out on the first levels.
    let and = cell_bench("And", &defs::and_elem()).circuit;
    let tr = translate_circuit(&and).unwrap();
    check_one(
        &mut out,
        "And q2 max_states=3",
        &tr,
        &McQuery::query2(&tr),
        3,
    );
    out
}

#[test]
fn model_check_results_match_the_golden() {
    let got = results();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(GOLDEN).expect(
        "golden file (regenerate with UPDATE_GOLDEN=1 cargo test -p rlse-bench --test mc_golden)",
    );
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} differs from the golden", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count");
}
