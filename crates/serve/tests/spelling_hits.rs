//! Exactness of the compiled cache's spelling index on the `simulate`
//! path: a request whose `ir` text repeats byte for byte is answered from
//! the cached compiled tables, and must answer exactly as the decode →
//! canonical-lookup path does — for every spelling, under eviction, for
//! oversized spellings the index refuses, and for failing circuits. Every
//! case runs at one and at four request workers.

use rlse_core::circuit::Circuit;
use rlse_core::ir::json::JsonValue;
use rlse_core::ir::Ir;
use rlse_core::machine::{EdgeDef, Machine};
use rlse_serve::{fixture_requests, generated_requests, Observer, ServeOptions, Server};

const WORKERS: [usize; 2] = [1, 4];

fn server(workers: usize, max_cache_entries: usize) -> Server {
    Server::new(ServeOptions {
        workers,
        max_cache_entries,
        ..ServeOptions::default()
    })
}

/// Serve `lines` as one batch through the request pipeline.
fn serve(server: &Server, lines: &[String]) -> Vec<String> {
    let mut input = lines.join("\n");
    input.push('\n');
    let mut out = Vec::new();
    server
        .serve_observed(input.as_bytes(), &mut out, &mut Observer::disabled())
        .expect("serves");
    let out = String::from_utf8(out).expect("UTF-8 responses");
    out.lines().map(String::from).collect()
}

/// The response a fresh server gives `line`: always the canonical path.
fn fresh(line: &str) -> String {
    Server::new(ServeOptions::default()).handle_line(line)
}

fn simulate_line(ir_json: &str) -> String {
    format!("{{\"id\":\"s\",\"kind\":\"simulate\",\"ir\":{ir_json}}}")
}

fn min_max_ir() -> Ir {
    rlse_designs::design_ir("min_max", 1.0)
}

#[test]
fn repeated_simulate_lines_answer_as_a_fresh_server_does() {
    let mut lines: Vec<String> = fixture_requests()
        .lines()
        .chain(generated_requests(16).lines())
        .filter(|l| l.contains("\"kind\":\"simulate\""))
        .map(String::from)
        .collect();
    lines.dedup();
    assert!(lines.len() >= 5, "{}", lines.len());
    let want: Vec<String> = lines.iter().map(|l| fresh(l)).collect();
    for workers in WORKERS {
        let server = server(workers, 0);
        let stream: Vec<String> = (0..3).flat_map(|_| lines.clone()).collect();
        let got = serve(&server, &stream);
        assert_eq!(got.len(), 3 * lines.len());
        for (k, chunk) in got.chunks(lines.len()).enumerate() {
            assert_eq!(chunk, want.as_slice(), "pass {k} at workers={workers}");
        }
        let cache = server.cache();
        assert_eq!(cache.hits() + cache.misses(), 3 * lines.len() as u64);
        let (spellings, _) = cache.spellings();
        assert!(spellings > 0 && spellings <= cache.len(), "workers={workers}");
    }
}

#[test]
fn respelled_irs_take_the_canonical_path_to_the_same_bytes() {
    let ir = min_max_ir();
    let compact = simulate_line(&ir.to_value().to_compact());
    // Whitespace and key order change the text, not the circuit.
    let pretty = simulate_line(&ir.to_value().to_pretty().replace('\n', " "));
    let JsonValue::Obj(mut fields) = ir.to_value() else {
        panic!("an IR renders as an object")
    };
    fields.reverse();
    let reordered = simulate_line(&JsonValue::Obj(fields).to_compact());
    let spellings = [compact, pretty, reordered];
    let want = fresh(&spellings[0]);
    let hash = format!("\"hash\":\"{:016x}\"", ir.content_hash());
    assert!(want.contains(&hash), "{want}");
    for s in &spellings[1..] {
        assert_eq!(fresh(s), want);
    }
    for workers in WORKERS {
        let server = server(workers, 0);
        for round in 0..3 {
            let got = serve(&server, &spellings);
            assert!(got.iter().all(|r| *r == want), "round {round} at workers={workers}");
        }
        let cache = server.cache();
        assert_eq!((cache.misses(), cache.hits()), (1, 8), "workers={workers}");
        assert_eq!(cache.spellings().0, 1, "one spelling per entry");
    }
}

#[test]
fn an_evicted_circuits_spelling_misses_and_recompiles() {
    let line = |scale: f64| {
        simulate_line(&rlse_designs::design_ir("min_max", scale).to_value().to_compact())
    };
    let (a, b, c) = (line(1.0), line(2.0), line(3.0));
    for workers in WORKERS {
        let server = server(workers, 2);
        let cache = server.cache();
        let step = |l: &String| serve(&server, std::slice::from_ref(l)).remove(0);
        let first = step(&a);
        assert_eq!(step(&a), first, "canonical hit admits the spelling");
        assert_eq!(cache.spellings(), (1, a.len() - simulate_line("").len()));
        assert_eq!(step(&a), first, "spelling hit");
        assert_eq!((cache.misses(), cache.hits()), (1, 2));
        step(&b);
        step(&c); // evicts a, the least recently used entry
        assert_eq!(cache.spellings(), (0, 0), "a's spelling left with its entry");
        assert_eq!(step(&a), first, "workers={workers}");
        assert_eq!((cache.misses(), cache.hits()), (4, 2), "a recompiled");
        assert_eq!(cache.len(), 2);
    }
}

#[test]
fn an_oversized_spelling_is_never_admitted() {
    let mut ir = min_max_ir();
    ir.name = "n".repeat(4 << 20);
    let line = simulate_line(&ir.to_value().to_compact());
    let want = fresh(&line);
    assert!(want.contains("\"ok\":true"), "{want}");
    for workers in WORKERS {
        let server = server(workers, 0);
        for _ in 0..3 {
            assert_eq!(serve(&server, std::slice::from_ref(&line)), vec![want.clone()]);
        }
        let cache = server.cache();
        assert_eq!((cache.misses(), cache.hits()), (1, 2));
        assert_eq!(cache.spellings(), (0, 0), "workers={workers}");
    }
}

/// A one-cell circuit whose second stimulus pulse arrives inside the
/// cell's transition time: every run ends in a timing violation.
fn violating_ir() -> Ir {
    let dut = Machine::new(
        "DUT",
        &["a"],
        &["q"],
        1.0,
        1,
        &[EdgeDef {
            src: "idle",
            trigger: "a",
            dst: "idle",
            firing: "q",
            transition_time: 10.0,
            ..Default::default()
        }],
    )
    .unwrap();
    let mut c = Circuit::new();
    let a = c.inp_at(&[10.0, 11.0], "A");
    let q = c.add_machine(&dut, &[a]).unwrap()[0];
    c.inspect(q, "Q");
    Ir::from_circuit(&c).unwrap()
}

#[test]
fn failing_circuits_answer_identical_errors_on_every_repeat() {
    // `Ir::to_circuit` runs `Circuit::check`, so an IR failing the check
    // never reaches the cache and is never admitted.
    let mut duplicate = min_max_ir();
    let observed: Vec<usize> = (0..duplicate.wires.len())
        .filter(|&w| duplicate.wires[w].observed)
        .collect();
    let name = duplicate.wires[observed[0]].name.clone();
    duplicate.wires[observed[1]].name = name;
    // A valid circuit whose run fails is admitted and then answered from
    // its spelling.
    for (ir, admitted) in [(duplicate, 0), (violating_ir(), 1)] {
        let line = simulate_line(&ir.to_value().to_compact());
        let want = fresh(&line);
        assert!(want.contains("\"ok\":false"), "{want}");
        for workers in WORKERS {
            let server = server(workers, 0);
            let stream = vec![line.clone(); 4];
            assert_eq!(serve(&server, &stream), vec![want.clone(); 4]);
            assert_eq!(server.cache().spellings().0, admitted, "workers={workers}");
        }
    }
}
