//! Byte-for-byte golden of the `sweep` request kind: a fixed set of sweep
//! requests served through [`Server::handle_line`] must reproduce the
//! committed response lines exactly, telemetry counters included.
//!
//! The golden pins the Monte-Carlo engine's observable output across
//! engine changes: 2,000-trial min_max and race_tree studies with and
//! without the `check` verdict, a σ = 8 study that ends trials in timing
//! violations, `until` cut-offs at 0 and −1, an empty (`trials:0`) study,
//! `per_cell_type` variability (one valid map, one naming an absent cell
//! type), and a `check` whose expected outputs name an internal wire.
//! Regenerate only for an intended output change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p rlse-serve --test sweep_golden
//! ```

use rlse_core::ir::IrQuery;
use rlse_core::sim::Simulation;
use rlse_designs::{design_ir, design_ir_with_expected_outputs};
use rlse_serve::{ServeOptions, Server};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/sweep_responses.jsonl"
);

/// The request lines behind the golden, in order.
fn requests() -> Vec<String> {
    let ir = |design: &str, scale: f64, check: bool| {
        let ir = if check {
            design_ir_with_expected_outputs(design, scale)
        } else {
            design_ir(design, scale)
        };
        ir.to_value().to_compact()
    };
    let gaussian = |std: f64| format!("{{\"kind\":\"gaussian\",\"std\":{std}}}");
    let sweep = |id: &str, trials: u64, seed: u64, extra: &str, ir: &str| {
        format!(
            "{{\"id\":\"{id}\",\"kind\":\"sweep\",\"trials\":{trials},\"seed\":{seed},\
             {extra}\"ir\":{ir}}}"
        )
    };
    let mut out = Vec::new();
    for (design, scale) in [("min_max", 1.0), ("race_tree", 1.0)] {
        for check in [false, true] {
            out.push(sweep(
                &format!("{design}-2000-check-{check}"),
                2000,
                17,
                &format!("\"check\":{check},\"variability\":{},", gaussian(0.1)),
                &ir(design, scale, check),
            ));
        }
    }
    // No jitter: every trial passes the exact-times check.
    out.push(sweep(
        "min_max-check-nominal",
        100,
        2,
        "\"check\":true,",
        &ir("min_max", 1.0, true),
    ));
    // Heavy jitter: trials end in timing violations and check failures.
    out.push(sweep(
        "min_max-sigma-8",
        50,
        3,
        &format!("\"check\":true,\"variability\":{},", gaussian(8.0)),
        &ir("min_max", 1.0, true),
    ));
    out.push(sweep(
        "race_tree-hot",
        200,
        5,
        &format!("\"check\":true,\"variability\":{},", gaussian(3.0)),
        &ir("race_tree", 0.15, true),
    ));
    for until in ["0", "-1", "150"] {
        out.push(sweep(
            &format!("min_max-until-{until}"),
            40,
            9,
            &format!("\"until\":{until},\"variability\":{},", gaussian(0.2)),
            &ir("min_max", 1.0, false),
        ));
    }
    out.push(sweep(
        "min_max-zero-trials",
        0,
        1,
        "\"check\":true,",
        &ir("min_max", 1.0, true),
    ));
    out.push(sweep(
        "min_max-per-cell",
        300,
        21,
        "\"variability\":{\"kind\":\"per_cell_type\",\"sigmas\":{\"C\":0.5,\"JTL\":0.0,\"S\":0.3}},",
        &ir("min_max", 1.0, false),
    ));
    // A check reading an internal (unobserved) wire sees its pulses: every
    // nominal trial passes, every jittered one fails.
    let mut internal = design_ir_with_expected_outputs("min_max", 1.0);
    let wire = internal
        .wires
        .iter()
        .find(|w| !w.observed)
        .unwrap()
        .name
        .clone();
    let events = Simulation::new(internal.to_circuit().unwrap())
        .run()
        .unwrap();
    let times = events
        .iter_all()
        .find(|(n, _)| *n == wire)
        .unwrap()
        .1
        .to_vec();
    for q in &mut internal.queries {
        if let IrQuery::OutputsOnlyAt { outputs } = q {
            outputs.push((wire.clone(), times.clone()));
        }
    }
    let internal = internal.to_value().to_compact();
    out.push(sweep(
        "min_max-check-internal",
        30,
        4,
        "\"check\":true,",
        &internal,
    ));
    out.push(sweep(
        "min_max-check-internal-jitter",
        30,
        4,
        &format!("\"check\":true,\"variability\":{},", gaussian(0.1)),
        &internal,
    ));
    out.push(sweep(
        "min_max-per-cell-unknown",
        10,
        21,
        "\"variability\":{\"kind\":\"per_cell_type\",\"sigmas\":{\"NOPE\":0.5}},",
        &ir("min_max", 1.0, false),
    ));
    out
}

#[test]
fn sweep_responses_match_the_golden_byte_for_byte() {
    let server = Server::new(ServeOptions::default());
    let mut got = String::new();
    for line in requests() {
        got.push_str(&server.handle_line(&line));
        got.push('\n');
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden");
    }
    let want = std::fs::read_to_string(GOLDEN).expect(
        "golden file (regenerate with UPDATE_GOLDEN=1 cargo test -p rlse-serve --test sweep_golden)",
    );
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "response {i} differs from the golden");
    }
    assert_eq!(got.lines().count(), want.lines().count(), "response count");
    assert_eq!(got, want);
}
