//! Netlist-IR round-trip guarantees: `Circuit -> Ir -> Circuit` must be
//! *lossless* — the rebuilt circuit replays to bit-identical `Events` — for
//! random small circuits (proptest), for every Table-3 design at several
//! scales, and through the JSON text encoding. Golden IR fixtures under
//! `tests/golden/` additionally pin the byte encoding and the canonical
//! content hash, so any change to the IR format is a visible diff plus a
//! deliberate hash bump, never a silent cache invalidation.
//!
//! To regenerate the golden fixtures after an *intentional* format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test ir_roundtrip
//! ```
//!
//! (the update run prints the new content hashes to paste into
//! `GOLDEN_HASHES` below).

use proptest::prelude::*;
use rlse::cells;
use rlse::core::ir::json::JsonValue;
use rlse::core::ir::Ir;
use rlse::designs::{design_ir, design_ir_with_expected_outputs, design_spec, shmoo_design_names};
use rlse::prelude::*;
use std::path::Path;

/// Compare two event dictionaries bit-for-bit: same wires, same pulse
/// counts, and every pulse time identical down to the f64 bit pattern.
fn assert_events_bit_identical(a: &Events, b: &Events) {
    let collect = |e: &Events| -> Vec<(String, Vec<u64>)> {
        e.iter_all()
            .map(|(n, ts)| (n.to_string(), ts.iter().map(|t| t.to_bits()).collect()))
            .collect()
    };
    assert_eq!(collect(a), collect(b), "events diverged bit-for-bit");
}

/// Compare two simulation outcomes: clean runs must match bit-for-bit,
/// erroring runs must report the identical error (random stimulus can
/// legitimately violate a C element's transition-time constraint, and the
/// rebuilt circuit must fail in exactly the same way).
fn assert_outcomes_identical(
    a: &Result<Events, rlse::core::Error>,
    b: &Result<Events, rlse::core::Error>,
) {
    match (a, b) {
        (Ok(ea), Ok(eb)) => assert_events_bit_identical(ea, eb),
        (Err(ea), Err(eb)) => assert_eq!(format!("{ea}"), format!("{eb}")),
        (x, y) => panic!("outcomes diverged: {x:?} vs {y:?}"),
    }
}

/// Run a circuit deterministically (seed 0, no variability).
fn run(c: Circuit) -> Result<Events, rlse::core::Error> {
    Simulation::new(c).seed(0).run()
}

/// The property that lets a server decode a request's IR straight from the
/// already-parsed request: the compact text of an IR value parses back to
/// the same value, and decoding the value directly yields the same IR and
/// content hash as decoding its text.
fn assert_value_decode_matches_text(ir: &Ir) {
    let v = ir.to_value();
    let text = v.to_compact();
    assert_eq!(JsonValue::parse(&text).unwrap(), v);
    let direct = Ir::from_value(&v).unwrap();
    let via_text = Ir::from_json(&text).unwrap();
    assert_eq!(direct, via_text);
    assert_eq!(direct.content_hash(), via_text.content_hash());
}

/// Build a random small circuit from a generated plan: a few pulse inputs
/// feeding a pool of open wires through JTL / merger / C-element / splitter
/// ops, with every surviving wire inspected. The same plan always builds
/// the same circuit, so the direct build and the IR rebuild are comparable.
fn build_random(schedules: &[Vec<u32>], ops: &[u32]) -> Circuit {
    let mut c = Circuit::new();
    let mut pool: Vec<Wire> = Vec::new();
    for (i, slots) in schedules.iter().enumerate() {
        // Slot k on input i pulses at a time no other input shares, so the
        // generated stimulus exercises distinct arrival orders.
        let mut times: Vec<f64> = slots
            .iter()
            .map(|&k| 10.0 + 7.0 * f64::from(k) + i as f64)
            .collect();
        times.sort_by(f64::total_cmp);
        times.dedup();
        pool.push(c.inp_at(&times, &format!("I{i}")));
    }
    for &op in ops {
        match op % 4 {
            1 if pool.len() >= 2 => {
                let a = pool.remove(0);
                let b = pool.remove(0);
                pool.push(cells::m(&mut c, a, b).unwrap());
            }
            2 if pool.len() >= 2 => {
                let a = pool.remove(0);
                let b = pool.remove(0);
                pool.push(cells::c(&mut c, a, b).unwrap());
            }
            3 => {
                let w = pool.remove(0);
                let (x, y) = cells::s(&mut c, w).unwrap();
                pool.push(x);
                pool.push(y);
            }
            _ => {
                let w = pool.remove(0);
                pool.push(cells::jtl(&mut c, w).unwrap());
            }
        }
    }
    for (i, w) in pool.into_iter().enumerate() {
        c.inspect(w, &format!("O{i}"));
    }
    c
}

proptest! {
    /// Random small circuits survive `Circuit -> Ir -> Circuit` with their
    /// replayed `Events` preserved bit-for-bit, their IR equal after a JSON
    /// text round-trip, and their content hash stable across both copies.
    #[test]
    fn random_circuits_round_trip_bit_for_bit(
        schedules in proptest::collection::vec(
            proptest::collection::vec(0u32..24, 0..5), 1..4),
        ops in proptest::collection::vec(0u32..4, 0..10),
    ) {
        let direct = build_random(&schedules, &ops);
        let ir = Ir::from_circuit(&direct).unwrap();
        let rebuilt = ir.to_circuit().unwrap();
        let a = run(build_random(&schedules, &ops));
        let b = run(rebuilt);
        assert_outcomes_identical(&a, &b);

        // JSON text round-trip is lossless and hash-stable.
        let reparsed = Ir::from_json(&ir.to_json()).unwrap();
        prop_assert_eq!(&reparsed, &ir);
        prop_assert_eq!(reparsed.content_hash(), ir.content_hash());
        assert_value_decode_matches_text(&ir);
        let c = run(reparsed.to_circuit().unwrap());
        assert_outcomes_identical(&a, &c);
    }
}

/// Every registered design — the six Table-3 designs plus the scaled
/// bitonic workloads — round-trips through the IR (and its JSON text form)
/// with bit-identical replay, at unity and non-unity delay scales. Each
/// document, also with its expected-outputs query attached, decodes the
/// same from its parsed value as from its text.
#[test]
fn all_designs_round_trip_at_several_scales() {
    for name in shmoo_design_names() {
        let (build, _check) = design_spec(name);
        for &scale in &[1.0, 0.75, 1.5] {
            let ir = design_ir(name, scale);
            let reparsed = Ir::from_json(&ir.to_json()).unwrap();
            assert_eq!(reparsed, ir, "{name}@x{scale}: JSON round-trip");
            assert_eq!(
                reparsed.content_hash(),
                ir.content_hash(),
                "{name}@x{scale}: hash stability"
            );
            let direct = run(build(scale)).unwrap();
            let via_ir = run(reparsed.to_circuit().unwrap()).unwrap();
            assert_events_bit_identical(&direct, &via_ir);
            assert_value_decode_matches_text(&ir);
            assert_value_decode_matches_text(&design_ir_with_expected_outputs(name, scale));
        }
    }
}

// ------------------------------------------------------------ golden files

/// `(design name, canonical content hash of `design_ir(name, 1.0)`)`.
/// These constants pin the hash *value*, not just its stability: a format
/// change that reshuffles canonical bytes must update them consciously.
const GOLDEN_HASHES: &[(&str, u64)] = &[
    ("min_max", 0x595c_b918_7d7a_7572),
    ("bitonic_8", 0x78fb_b44b_dbda_d512),
];

#[test]
fn golden_ir_fixtures_are_byte_stable() {
    for &(name, expected_hash) in GOLDEN_HASHES {
        let ir = design_ir(name, 1.0);
        let rendered = ir.to_json();
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{name}_ir.json"));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &rendered).expect("write golden IR fixture");
            eprintln!("{name}: content hash 0x{:016x}", ir.content_hash());
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden IR fixture {} ({e}); run \
                 UPDATE_GOLDEN=1 cargo test --test ir_roundtrip",
                path.display()
            )
        });
        assert!(
            expected == rendered,
            "IR encoding for '{name}' diverged from {}.\n\
             If the format change is intentional, regenerate with \
             UPDATE_GOLDEN=1 cargo test --test ir_roundtrip",
            path.display()
        );
        assert_eq!(
            ir.content_hash(),
            expected_hash,
            "{name}: canonical content hash changed — update GOLDEN_HASHES \
             if the format change is intentional"
        );
        // The checked-in bytes parse back to the same IR and hash.
        let parsed = Ir::from_json(&expected).unwrap();
        assert_eq!(parsed, ir);
        assert_eq!(parsed.content_hash(), expected_hash);
    }
}
