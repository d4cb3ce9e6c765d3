//! The benchmark's own checks: deterministic generators, class mixes
//! whose p50 and p99 ranks sit inside one class, and a tiny verified run
//! of every workload, served and replayed.

use rlse_core::ir::json::JsonValue;
use rlse_serve::{Observer, Server};
use servebench::gen::{self, WORKLOADS};
use servebench::replay::Replayer;
use servebench::{closed, per_layer_metrics, serve_options, verify, END_TO_END};
use std::time::Duration;

#[test]
fn generators_are_deterministic_per_seed_and_differ_across_seeds() {
    for w in WORKLOADS {
        let a = gen::corpus(w, 7);
        assert_eq!(a, gen::corpus(w, 7), "{}", w.name());
        assert_ne!(
            a.stream_text(),
            gen::corpus(w, 8).stream_text(),
            "{}",
            w.name()
        );
        assert_eq!(a.period.len(), w.period(), "{}", w.name());
    }
}

#[test]
fn class_weights_put_p50_and_p99_well_inside_one_class() {
    for w in WORKLOADS {
        assert_eq!(
            w.classes().iter().map(|c| c.weight).sum::<u32>(),
            100,
            "{}",
            w.name()
        );
        let (_, p50_margin) = w.rank_class(0.50);
        let (top, p99_margin) = w.rank_class(0.99);
        assert!(
            p50_margin >= 5.0,
            "{}: p50 is {p50_margin} points from a class boundary",
            w.name()
        );
        assert!(
            p99_margin >= 2.0,
            "{}: p99 is {p99_margin} points from a class boundary",
            w.name()
        );
        assert_eq!(
            top + 1,
            w.classes().len(),
            "{}: p99 falls in the costliest class",
            w.name()
        );
    }
}

#[test]
fn periods_hold_each_class_at_its_weight() {
    for w in WORKLOADS {
        let c = gen::corpus(w, 3);
        for (k, class) in w.classes().iter().enumerate() {
            let n = c
                .period
                .iter()
                .filter(|&&i| c.class_of[i as usize] == k)
                .count();
            let want = c.period.len() * class.weight as usize / 100;
            assert!(
                n.abs_diff(want) <= 2,
                "{} {}: {n} slots, want {want}",
                w.name(),
                class.name
            );
        }
    }
}

#[test]
fn sim_cold_never_repeats_a_circuit_within_its_period() {
    let c = gen::corpus(gen::Workload::SimCold, 5);
    let distinct: std::collections::HashSet<_> = c.period.iter().collect();
    assert_eq!(distinct.len(), c.period.len());
}

/// Serve `n` lines of `w` after its warm-up, verify every response
/// against the reference pass, and replay them with no mismatch.
fn smoke(w: gen::Workload, n: u64) {
    let corpus = gen::corpus(w, 11);
    let reference = verify::reference(&corpus, serve_options(), 11);
    assert!(
        reference.failures.is_empty(),
        "{}: {:?}",
        w.name(),
        reference.failures
    );
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{}", w.name()));
    std::fs::create_dir_all(&dir).unwrap();
    let stream = dir.join("stream.jsonl");
    std::fs::write(&stream, corpus.stream_text()).unwrap();

    let server = Server::new(serve_options());
    let mut replayer = Replayer::new(serve_options());
    for &i in &corpus.warmup {
        let line = &corpus.distinct[i as usize];
        let resp = server.handle_line(line);
        assert_eq!(
            verify::fingerprint(resp.as_bytes()),
            reference.hashes[i as usize]
        );
        replayer.warm(line);
    }
    let (hits, misses) = (server.cache().hits(), server.cache().misses());
    let out = dir.join("out.jsonl");
    let win = closed::run(
        &server,
        &stream,
        0,
        &out,
        Duration::from_secs(60),
        n,
        &mut Observer::disabled(),
    )
    .unwrap();
    assert_eq!(win.completed, n, "{}", w.name());
    assert_eq!(win.latency_ns.len() as u64, n);
    let (served, failed) =
        verify::check_output(&out, &reference.expected(&corpus.period), 0).unwrap();
    assert_eq!((served.len() as u64, failed), (n, 0), "{}", w.name());
    for (k, resp) in served.iter().enumerate() {
        replayer.replay(&corpus.distinct[corpus.period[k] as usize], resp);
    }
    assert_eq!(replayer.totals.mismatches, 0, "{}", w.name());
    assert_eq!(replayer.totals.requests, n);
    assert_eq!(
        (replayer.totals.hits, replayer.totals.misses),
        (
            server.cache().hits() - hits,
            server.cache().misses() - misses
        ),
        "{}: the replay's cache mirrors the server's",
        w.name()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn smoke_sim_hot() {
    smoke(gen::Workload::SimHot, 30);
}

#[test]
fn smoke_sim_cold() {
    smoke(gen::Workload::SimCold, 30);
}

#[test]
fn smoke_montecarlo() {
    smoke(gen::Workload::MonteCarlo, 12);
}

#[test]
fn smoke_mixed() {
    smoke(gen::Workload::Mixed, 40);
}

/// `(name, unit)` of every metric object in `BENCHMARK.json`'s `key` list.
fn declared(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap();
    let doc = JsonValue::parse(&text).unwrap();
    let own = |v: Vec<(&str, &str)>| {
        v.into_iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(declared(&doc, "end_to_end"), own(END_TO_END.to_vec()));
    assert_eq!(declared(&doc, "per_layer"), own(per_layer_metrics()));
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name()));
}
