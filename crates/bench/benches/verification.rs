//! Criterion benches for the formal-verification pipeline: PyLSE→TA
//! translation, UPPAAL XML generation, DBM operations (with the
//! full-vs-incremental canonicalization ablation from DESIGN.md §5), and
//! model checking of basic cells.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rlse_bench::{
    bench_adder_sync, bench_bitonic, bench_min_max, cell_bench, expected_outputs, simulate,
};
use rlse_cells::defs;
use rlse_ta::dbm::{Dbm, Rel};
use rlse_ta::mc::{check, McOptions, McQuery};
use rlse_ta::translate::{translate_circuit, translate_machine};
use rlse_ta::uppaal::to_uppaal_xml;

fn translation(c: &mut Criterion) {
    let mut group = c.benchmark_group("translate");
    group.bench_function("and_cell", |b| {
        b.iter(|| {
            translate_machine(
                &defs::and_elem(),
                &[("a", vec![20.0]), ("b", vec![30.0]), ("clk", vec![60.0])],
                10,
            )
            .unwrap()
        })
    });
    group.bench_function("bitonic_8", |b| {
        let circ = bench_bitonic(8).circuit;
        b.iter(|| translate_circuit(&circ).unwrap())
    });
    group.bench_function("uppaal_xml_min_max", |b| {
        let tr = translate_circuit(&bench_min_max().circuit).unwrap();
        b.iter(|| to_uppaal_xml(&tr.net))
    });
    group.finish();
}

fn dbm_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("dbm");
    let n = 32;
    let base = {
        let mut z = Dbm::zero(n);
        z.up();
        for i in 1..=n {
            z.constrain_clock(i, Rel::Le, (i * 7 % 50) as i32 + 50);
        }
        z
    };
    // Ablation: incremental tightening (constrain) vs full Floyd–Warshall.
    group.bench_function("incremental_constrain", |b| {
        b.iter_batched(
            || base.clone(),
            |mut z| {
                for i in 1..=n {
                    z.constrain_clock(i, Rel::Ge, 10);
                }
                z
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("full_canonicalize", |b| {
        b.iter_batched(
            || base.clone(),
            |mut z| {
                z.canonicalize();
                z
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("inclusion", |b| {
        let other = base.clone();
        b.iter(|| base.includes(&other))
    });
    group.finish();
}

fn model_checking(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_check");
    group.sample_size(10);
    for name in ["JTL", "And", "Xor"] {
        let spec = defs::all_cells()
            .into_iter()
            .find(|(n, _)| *n == name)
            .unwrap()
            .1;
        let table_name: &'static str = match name {
            "JTL" => "JTL",
            "And" => "And",
            _ => "Xor",
        };
        let (events, _, circ) = simulate(cell_bench(table_name, &spec));
        let expected = expected_outputs(&circ, &events);
        let tr = translate_circuit(&circ).unwrap();
        group.bench_function(format!("query2_{name}"), |b| {
            b.iter(|| check(&tr.net, &McQuery::query2(&tr), McOptions::default()))
        });
        let refs: Vec<(&str, Vec<f64>)> =
            expected.iter().map(|(n, t)| (n.as_str(), t.clone())).collect();
        group.bench_function(format!("query1_{name}"), |b| {
            b.iter(|| check(&tr.net, &McQuery::query1(&tr, &refs), McOptions::default()))
        });
    }
    group.finish();
}

fn model_checking_designs(c: &mut Criterion) {
    // Table-3-style composed designs: the workload the zone-graph engine
    // and the active-clock reduction were built for.
    let mut group = c.benchmark_group("model_check_design");
    group.sample_size(10);
    for bench in [bench_min_max(), bench_adder_sync()] {
        let name = bench.name.replace(' ', "_").to_lowercase();
        let (events, _, circ) = simulate(bench);
        let expected = expected_outputs(&circ, &events);
        let tr = translate_circuit(&circ).unwrap();
        group.bench_function(format!("query2_{name}"), |b| {
            b.iter(|| check(&tr.net, &McQuery::query2(&tr), McOptions::default()))
        });
        let refs: Vec<(&str, Vec<f64>)> =
            expected.iter().map(|(n, t)| (n.as_str(), t.clone())).collect();
        group.bench_function(format!("query1_{name}"), |b| {
            b.iter(|| check(&tr.net, &McQuery::query1(&tr, &refs), McOptions::default()))
        });
    }
    group.finish();
}

criterion_group!(benches, translation, dbm_ops, model_checking, model_checking_designs);
criterion_main!(benches);
