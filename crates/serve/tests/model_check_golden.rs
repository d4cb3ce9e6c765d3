//! Byte-for-byte golden of the `model_check` request kind: a fixed set of
//! model-check requests served through [`Server::handle_line`] must
//! reproduce the committed response lines exactly, telemetry counters
//! included.
//!
//! The golden pins the zone checker's served output across engine changes:
//! both queries (Query 2 and the self-certifying Query 1) on min_max,
//! race_tree, adder_sync and bitonic_4, a Query 1 whose expected times are
//! all 1 ps late, a request whose `max_states` and `max_seconds` are clamped
//! to the server's budgets, and a bitonic_8 request that ends in its state
//! budget. Regenerate only for an intended output change, and
//! only from the commit before an engine change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p rlse-serve --test model_check_golden
//! ```

use rlse_core::ir::IrQuery;
use rlse_designs::design_ir_with_expected_outputs;
use rlse_serve::{ServeOptions, Server};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/model_check_responses.jsonl"
);

/// The request lines behind the golden, in order.
fn requests() -> Vec<String> {
    let mc = |id: &str, extra: &str, ir: &str| {
        format!("{{\"id\":\"{id}\",\"kind\":\"model_check\",{extra}\"ir\":{ir}}}")
    };
    let mut out: Vec<String> = ["min_max", "race_tree", "adder_sync"]
        .iter()
        .map(|design| {
            let ir = design_ir_with_expected_outputs(design, 1.0);
            mc(&format!("{design}-both"), "", &ir.to_value().to_compact())
        })
        .collect();
    // Query 1 refuted: every expected pulse is 1 ps late.
    let mut wrong = design_ir_with_expected_outputs("min_max", 1.0);
    for q in &mut wrong.queries {
        if let IrQuery::OutputsOnlyAt { outputs } = q {
            for (_, times) in outputs {
                times.iter_mut().for_each(|t| *t += 1.0);
            }
        }
    }
    out.push(mc(
        "min_max-wrong-times",
        "",
        &wrong.to_value().to_compact(),
    ));
    // Budgets above the server's are clamped to them.
    let ir = design_ir_with_expected_outputs("race_tree", 1.0);
    out.push(mc(
        "race_tree-clamped",
        "\"max_states\":5000000,\"max_seconds\":1e9,",
        &ir.to_value().to_compact(),
    ));
    // The bigger zones of the sorters: bitonic_4 to the verdict, bitonic_8
    // to the deterministic budget answer.
    let ir = design_ir_with_expected_outputs("bitonic_4", 1.0);
    out.push(mc("bitonic_4-both", "", &ir.to_value().to_compact()));
    let ir = design_ir_with_expected_outputs("bitonic_8", 1.0);
    out.push(mc(
        "bitonic_8-budget",
        "\"max_states\":1000,",
        &ir.to_value().to_compact(),
    ));
    out
}

#[test]
fn model_check_responses_match_the_golden_byte_for_byte() {
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
        "golden file (regenerate with UPDATE_GOLDEN=1 cargo test -p rlse-serve --test model_check_golden)",
    );
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "response {i} differs from the golden");
    }
    assert_eq!(got.lines().count(), want.lines().count(), "response count");
    assert_eq!(got, want);
}
