//! Differential testing of the production simulator against a naive
//! reference interpreter transcribed rule-by-rule from the paper's Figure 6
//! (Transition, Dispatch, Trace, and Network relations).
//!
//! The reference interpreter keeps every configuration explicit, scans the
//! whole pulse list for the earliest batch (`getSimPulses`), and applies the
//! Normal-κ / Error-κ rules literally — no heaps, no indices, no caching.
//! Any divergence from `rlse::core::sim` on the same circuit is a bug in
//! one of the two.

use proptest::prelude::*;
use rlse::core::circuit::NodeId;
use rlse::core::compiled::CompiledCircuit;
use rlse::core::machine::{Config, InputId, Machine};
use rlse::core::sweep::{trial_seed, Sweep, TrialVerdict};
use rlse::core::telemetry::Telemetry;
use rlse::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

// ------------------------------------------------------------ reference

/// A pending pulse headed for (node, port).
#[derive(Debug, Clone, Copy, PartialEq)]
struct RefPulse {
    time: f64,
    node: usize,
    port: usize,
}

/// Naive network interpreter per Fig. 6. Returns events per wire name or
/// the violation, exactly like the production simulator.
fn reference_run(circ: &Circuit) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let mut events: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut configs: BTreeMap<usize, Config> = BTreeMap::new();
    for n in 0..circ.node_count() {
        if let Some(m) = circ.node_machine(NodeId(n)) {
            configs.insert(n, m.initial_config());
        }
    }
    // Initial pulse list: stimulus pulses routed through their wires.
    let mut ps: Vec<RefPulse> = Vec::new();
    for n in 0..circ.node_count() {
        let node = NodeId(n);
        if let Some(times) = circ.node_source_times(node) {
            let w = circ.node_out_wires(node)[0];
            for &t in times {
                events
                    .entry(circ.wire_name(w).to_string())
                    .or_default()
                    .push(t);
                if let Some((sink, port)) = circ.wire_sink(w) {
                    ps.push(RefPulse {
                        time: t,
                        node: sink.0,
                        port,
                    });
                }
            }
        }
    }

    // Net-Cont until no pulse remains (Net-Done).
    // getSimPulses: earliest time, then (deterministically) the lowest
    // node id at that time; collect its simultaneous set.
    while let Some(time) = ps.iter().map(|p| p.time).min_by(f64::total_cmp) {
        let node = ps
            .iter()
            .filter(|p| p.time == time)
            .map(|p| p.node)
            .min()
            .expect("nonempty");
        let batch: Vec<RefPulse> = ps
            .iter()
            .copied()
            .filter(|p| p.time == time && p.node == node)
            .collect();
        ps.retain(|p| !(p.time == time && p.node == node));

        let spec: Arc<Machine> = circ
            .node_machine(NodeId(node))
            .expect("reference interpreter only handles machines")
            .clone();
        let cfg = configs.get(&node).expect("config").clone();
        let sigmas: Vec<InputId> = batch.iter().map(|p| InputId(p.port)).collect();
        // Dispatch relation, transcribed: repeatedly pick the argmin-priority
        // input, apply the Transition relation, accumulate outputs.
        let mut rest = sigmas;
        let mut cur = cfg;
        let mut outs: Vec<(usize, f64)> = Vec::new();
        while !rest.is_empty() {
            let (pos, _) = rest
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| {
                    let t = spec.transition_for(cur.state, **s);
                    (t.priority, s.0)
                })
                .expect("nonempty");
            let sigma = rest.remove(pos);
            match spec.step(&cur, sigma, time) {
                Ok((next, fired)) => {
                    cur = next;
                    outs.extend(fired.into_iter().map(|(o, t)| (o.0, t)));
                }
                Err(v) => return Err(format!("{v:?}")),
            }
        }
        configs.insert(node, cur);
        // Route outputs.
        for (oport, t_out) in outs {
            let w = circ.node_out_wires(NodeId(node))[oport];
            events
                .entry(circ.wire_name(w).to_string())
                .or_default()
                .push(t_out);
            if let Some((sink, port)) = circ.wire_sink(w) {
                ps.push(RefPulse {
                    time: t_out,
                    node: sink.0,
                    port,
                });
            }
        }
    }
    for v in events.values_mut() {
        v.sort_by(f64::total_cmp);
    }
    Ok(events)
}

// ------------------------------------------------------- random circuits

fn cell_pool() -> Vec<Arc<Machine>> {
    vec![
        rlse::cells::defs::jtl_elem(),
        rlse::cells::defs::s_elem(),
        rlse::cells::defs::m_elem(),
        rlse::cells::defs::c_elem(),
        rlse::cells::defs::c_inv_elem(),
        rlse::cells::extra::tff_elem(),
        // Clocked cells: their setup time is a past constraint on `clk`,
        // so these are the cells whose dispatch reads Θ.
        rlse::cells::defs::and_elem(),
        rlse::cells::defs::or_elem(),
    ]
}

/// Build a random feed-forward circuit: `n_in` sources with staggered pulse
/// times, then cells drawn from `picks`, consuming the frontier of unused
/// wires (keeping everything fanout-legal by construction).
fn random_circuit(picks: &[u8], n_in: usize) -> Circuit {
    let mut circ = Circuit::new();
    // Widely spaced input pulses so async decision cells never see
    // violation-close pairs regardless of topology. Clocked cells can
    // still miss their setup time, which every engine must then report.
    let mut frontier: Vec<Wire> = (0..n_in)
        .map(|i| circ.inp_at(&[40.0 + 40.0 * i as f64], &format!("I{i}")))
        .collect();
    let pool = cell_pool();
    for &pick in picks {
        if frontier.is_empty() {
            break;
        }
        let spec = &pool[(pick as usize) % pool.len()];
        let need = spec.inputs().len();
        if frontier.len() < need {
            // Not enough frontier wires for this cell: use a JTL instead.
            let w = frontier.remove(0);
            let q = circ.add_machine(&pool[0], &[w]).unwrap()[0];
            frontier.push(q);
            continue;
        }
        let ins: Vec<Wire> = frontier.drain(..need).collect();
        let outs = circ.add_machine(spec, &ins).unwrap();
        frontier.extend(outs);
    }
    for (i, w) in frontier.iter().enumerate() {
        circ.inspect(*w, &format!("O{i}"));
    }
    circ
}

// ------------------------------------------------------------ the tests

fn assert_equivalent(circ_a: Circuit, circ_b: Circuit) {
    let reference = reference_run(&circ_a);
    let mut sim = Simulation::new(circ_b);
    let production = sim.run();
    match (reference, production) {
        (Ok(r), Ok(p)) => {
            for (name, times) in &r {
                let got = p.times(name);
                assert_eq!(
                    got.len(),
                    times.len(),
                    "pulse count differs on '{name}': ref {times:?} vs sim {got:?}"
                );
                for (a, b) in times.iter().zip(got) {
                    assert!((a - b).abs() < 1e-9, "'{name}': ref {a} vs sim {b}");
                }
            }
        }
        (Err(_), Err(_)) => {} // both detected a violation: equivalent
        (r, p) => panic!("divergence: reference {r:?} vs production {p:?}"),
    }
}

/// The sweep's lane kernel agrees with the reference on every trial: with
/// no variability each trial replays the nominal run, or ends in a
/// `Timing` verdict where the reference reports a violation. Three trials
/// at width 2 run lanes 0 and 1 of a block — the shared dispatch step
/// addressing Θ at stride 2 — and lane 0 of a partial block. The sweep's
/// `sim.*` counters equal the sum of three `Simulation` runs' counters.
fn assert_sweep_matches_reference(build: impl Fn() -> Circuit + Sync) {
    let reference = reference_run(&build());
    let tel = Telemetry::new();
    let details = Sweep::over(&build)
        .trials(3)
        .batch_width(2)
        .telemetry(&tel)
        .run_detailed();
    assert_eq!(details.trials.len(), 3);
    for trial in &details.trials {
        let Ok(r) = &reference else {
            assert_eq!(trial.verdict, TrialVerdict::Timing, "trial {}", trial.trial);
            continue;
        };
        assert_eq!(trial.verdict, TrialVerdict::Ok, "trial {}", trial.trial);
        for (name, got) in details.names.iter().zip(&trial.outputs) {
            let want = r.get(name).map_or(&[][..], Vec::as_slice);
            assert_eq!(
                got.len(),
                want.len(),
                "trial {}: pulse count differs on '{name}': ref {want:?} vs sweep {got:?}",
                trial.trial
            );
            for (a, b) in want.iter().zip(got) {
                assert!(
                    (a - b).abs() < 1e-9,
                    "trial {}: '{name}': ref {a} vs sweep {b}",
                    trial.trial
                );
            }
        }
    }
    let sim_tel = Telemetry::new();
    for trial in 0..3 {
        let _ = Simulation::new(build())
            .seed(trial_seed(0, trial))
            .telemetry(&sim_tel)
            .run();
    }
    let (got, want) = (tel.report(), sim_tel.report());
    assert_eq!(
        got.counters_with_prefix("sim."),
        want.counters_with_prefix("sim.")
    );
    assert_eq!(got.peaks, want.peaks);
    assert_eq!(got.cells, want.cells);
}

/// `Simulation::from_compiled` on a circuit's compiled tables answers
/// exactly as `Simulation::new` on the circuit, run for run under the same
/// horizon, variability and seed: the same named and all-wire events, the
/// same error (timing diagnostics and check verdicts included), and the
/// same telemetry counters, peaks and per-cell tallies.
fn assert_from_compiled_matches_new(
    build: impl Fn() -> Circuit,
    until: Option<f64>,
    variability: impl Fn() -> Option<Variability>,
    seed: u64,
) {
    let runs = |mut sim: Simulation| {
        let tel = Telemetry::new();
        sim.set_telemetry(&tel);
        sim.set_until(until);
        sim.set_variability(variability());
        sim.set_seed(seed);
        // A rerun of the same simulation reuses its tables and buffers.
        let runs = [sim.run(), sim.run()];
        (runs, tel.report())
    };
    let (direct, direct_tel) = runs(Simulation::new(build()));
    let compiled = Arc::new(CompiledCircuit::compile(&build()));
    let (cached, cached_tel) = runs(Simulation::from_compiled(compiled));
    for (d, c) in direct.iter().zip(&cached) {
        match (d, c) {
            (Ok(d), Ok(c)) => {
                assert!(d.iter().eq(c.iter()), "named events differ");
                assert!(d.iter_all().eq(c.iter_all()), "all-wire events differ");
            }
            (Err(d), Err(c)) => assert_eq!(d, c),
            (d, c) => panic!("new gave {d:?}, from_compiled gave {c:?}"),
        }
    }
    assert_eq!(direct_tel, cached_tel);
}

#[test]
fn reference_matches_simulator_on_min_max() {
    let build = || {
        let mut c = Circuit::new();
        let a = c.inp_at(&[115.0, 215.0, 315.0], "A");
        let b = c.inp_at(&[64.0, 184.0, 304.0], "B");
        let (low, high) = rlse::designs::min_max(&mut c, a, b).unwrap();
        c.inspect(low, "LOW");
        c.inspect(high, "HIGH");
        c
    };
    assert_equivalent(build(), build());
}

#[test]
fn reference_matches_simulator_on_bitonic_4() {
    let build = || {
        let mut c = Circuit::new();
        rlse::designs::bitonic_sorter_with_inputs(&mut c, &[90.0, 20.0, 60.0, 40.0]).unwrap();
        c
    };
    assert_equivalent(build(), build());
}

#[test]
fn reference_matches_simulator_on_violating_circuit() {
    // Two near-simultaneous pulses into a C element violate its transition
    // time; both engines must flag it.
    let build = || {
        let mut c = Circuit::new();
        let a = c.inp_at(&[20.0], "A");
        let b = c.inp_at(&[20.5], "B");
        let q = rlse::cells::c(&mut c, a, b).unwrap();
        c.inspect(q, "Q");
        c
    };
    assert_equivalent(build(), build());
    assert_sweep_matches_reference(build);
    // And confirm both actually error (not both silently succeed).
    assert!(reference_run(&build()).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The production simulator, the sweep's lane kernel and the Fig. 6
    /// reference interpreter agree on random feed-forward circuits.
    #[test]
    fn reference_matches_simulator_on_random_circuits(
        picks in proptest::collection::vec(0u8..8, 1..24),
        n_in in 1usize..5,
    ) {
        let a = random_circuit(&picks, n_in);
        let b = random_circuit(&picks, n_in);
        assert_equivalent(a, b);
        assert_sweep_matches_reference(|| random_circuit(&picks, n_in));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Running from compiled tables alone equals running the circuit, on
    /// random circuits under every horizon, jitter and seed — including
    /// circuits that fail `Circuit::check` (a duplicated observed name).
    #[test]
    fn from_compiled_matches_new_on_random_circuits(
        picks in proptest::collection::vec(0u8..8, 1..24),
        n_in in 1usize..5,
        knobs in (0usize..5, 0usize..4, 0u8..2, 0u8..10),
        seed in 0u64..u64::MAX,
    ) {
        let (until_pick, sigma_pick, per_cell, duplicate_pick) = knobs;
        let until = [None, Some(20.0), Some(95.0), Some(180.0), Some(400.0)][until_pick];
        let sigma = [None, Some(0.0), Some(0.2), Some(1.5)][sigma_pick];
        let duplicate_name = duplicate_pick == 0;
        let build = || {
            let mut c = random_circuit(&picks, n_in);
            if duplicate_name {
                c.inp_at(&[1.0], "I0");
            }
            c
        };
        let variability = || {
            sigma.map(|std| {
                if per_cell == 1 {
                    let map = [("C".to_string(), std), ("JTL".to_string(), 2.0 * std)];
                    Variability::PerCellType(map.into_iter().collect())
                } else {
                    Variability::Gaussian { std }
                }
            })
        };
        assert_from_compiled_matches_new(build, until, variability, seed);
    }
}
