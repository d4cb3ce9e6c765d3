//! Cross-crate integration tests for the §5.3 verification flow: every
//! basic cell is translated to TA, model checked for Query 1 (outputs only
//! at simulation-predicted instants) and Query 2 (no error state
//! reachable), and exported as UPPAAL XML + TCTL.

use rlse::cells::defs;
use rlse::prelude::*;
use rlse::ta::prelude::*;

fn cell_circuit(name: &str) -> Option<Circuit> {
    let spec = defs::all_cells().into_iter().find(|(n, _)| *n == name)?.1;
    let stim: Vec<(&str, Vec<f64>)> = match name {
        "C" | "InvC" | "M" => vec![("a", vec![20.0]), ("b", vec![50.0])],
        "S" | "JTL" => vec![("a", vec![20.0])],
        "2x2 Join" => vec![("a_t", vec![20.0]), ("b_f", vec![40.0])],
        "DRO SR" => vec![("set", vec![20.0]), ("clk", vec![60.0])],
        "Inv" | "DRO" | "DRO C" => vec![("a", vec![20.0]), ("clk", vec![60.0])],
        _ => vec![("a", vec![20.0]), ("b", vec![30.0]), ("clk", vec![60.0])],
    };
    let mut c = Circuit::new();
    let inputs: Vec<Wire> = spec
        .inputs()
        .iter()
        .map(|i| {
            let t = stim
                .iter()
                .find(|(n, _)| n == i)
                .map(|(_, t)| t.clone())
                .unwrap_or_default();
            c.inp_at(&t, i)
        })
        .collect();
    let outs = c.add_machine(&spec, &inputs).unwrap();
    for (k, w) in outs.iter().enumerate() {
        let n = spec.outputs()[k].clone();
        c.inspect(*w, &n);
    }
    Some(c)
}

#[test]
fn every_basic_cell_passes_both_queries() {
    for (name, _) in defs::all_cells() {
        let circ = cell_circuit(name).unwrap();
        let mut sim = Simulation::new(circ);
        let events = sim.run().unwrap_or_else(|e| panic!("{name}: {e}"));
        let circ = sim.into_circuit().unwrap();
        let expected: Vec<(String, Vec<f64>)> = circ
            .output_wires()
            .into_iter()
            .map(|w| {
                let n = circ.wire_name(w).to_string();
                let t = events
                    .times(&n)
                    .iter()
                    .map(|t| (t * 10.0).round() / 10.0)
                    .collect();
                (n, t)
            })
            .collect();
        let tr = translate_circuit(&circ).unwrap();
        let refs: Vec<(&str, Vec<f64>)> = expected
            .iter()
            .map(|(n, t)| (n.as_str(), t.clone()))
            .collect();
        let opts = McOptions {
            max_states: 200_000,
            ..McOptions::default()
        };
        let q1 = check(&tr.net, &McQuery::query1(&tr, &refs), opts);
        assert_eq!(q1.holds, Some(true), "{name} query1: {:?}", q1.violation);
        let q2 = check(&tr.net, &McQuery::query2(&tr), opts);
        assert_eq!(q2.holds, Some(true), "{name} query2: {:?}", q2.violation);
    }
}

#[test]
fn model_checker_catches_injected_hold_violation() {
    // Pulse `a` 1 ps after the clock: lands inside the 3.0 ps hold window.
    let mut c = Circuit::new();
    let a = c.inp_at(&[61.0], "a");
    let b = c.inp_at(&[30.0], "b");
    let clk = c.inp_at(&[60.0], "clk");
    let q = rlse::cells::and_s(&mut c, a, b, clk).unwrap();
    c.inspect(q, "q");
    // The simulator agrees it is a violation…
    let err = Simulation::new(c).run().unwrap_err();
    assert!(matches!(err, rlse::core::Error::Timing(_)));
    // …and so does the model checker, via an err_*_h location.
    let mut c = Circuit::new();
    let a = c.inp_at(&[61.0], "a");
    let b = c.inp_at(&[30.0], "b");
    let clk = c.inp_at(&[60.0], "clk");
    let q = rlse::cells::and_s(&mut c, a, b, clk).unwrap();
    c.inspect(q, "q");
    let tr = translate_circuit(&c).unwrap();
    let q2 = check(&tr.net, &McQuery::query2(&tr), McOptions::default());
    assert_eq!(q2.holds, Some(false));
    assert!(q2.violation.unwrap().contains("err_a_h"));
}

#[test]
fn uppaal_export_for_every_cell_is_well_formed() {
    for (name, _) in defs::all_cells() {
        let circ = cell_circuit(name).unwrap();
        let tr = translate_circuit(&circ).unwrap();
        let xml = to_uppaal_xml(&tr.net);
        assert!(xml.contains("<nta>"), "{name}");
        assert_eq!(
            xml.matches("<template>").count(),
            tr.net.stats().automata,
            "{name}"
        );
        let q2 = query2_tctl(&tr);
        assert!(q2.starts_with("A[]"), "{name}");
    }
}

#[test]
fn translation_complexity_matches_paper_claim_shape() {
    // §4.4: the AND cell's TA network is far larger than its machine —
    // "PyLSE properly encapsulates this complexity."
    let spec = defs::and_elem();
    let tr = translate_machine(
        &spec,
        &[("a", vec![20.0]), ("b", vec![30.0]), ("clk", vec![60.0])],
        10,
    )
    .unwrap();
    let stats = tr.net.stats();
    // Machine: 4 states / 12 transitions. The TA network must be an order
    // of magnitude bigger on both axes.
    assert!(stats.locations >= 4 * 8, "locations = {}", stats.locations);
    assert!(stats.edges >= 12 * 4, "edges = {}", stats.edges);
    // Soaking factor from the paper: ceil(9.2 / 3.0) = 4 firing automata.
    let firing = tr
        .net
        .automata
        .iter()
        .filter(|a| a.name.starts_with("firing_"))
        .count();
    assert_eq!(firing, 4);
}

#[test]
fn scaled_times_match_paper_upscaling() {
    // The paper upscales 209.2 ps to the integer 2092.
    let circ = {
        let mut c = Circuit::new();
        let a = c.inp_at(&[209.2], "A");
        let q = rlse::cells::jtl(&mut c, a).unwrap();
        c.inspect(q, "Q");
        c
    };
    let tr = translate_circuit(&circ).unwrap();
    let q1 = query1_tctl(&tr, &[("Q", vec![214.9])]);
    assert!(q1.contains("global == 2149"), "{q1}");
}
