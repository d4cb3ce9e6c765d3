//! Integration tests for the out-of-band observability layer: the golden
//! Prometheus exposition bytes, access-log determinism modulo wall-clock
//! fields, per-kind / per-tenant accounting, the `ping` probe, slow-request
//! traces, and escaping of hostile client-supplied strings.
//!
//! The overriding invariant under test: **observability never changes
//! response bytes**. Everything the observer produces flows to its own
//! sinks; the response stream with every flag enabled is `cmp`-identical
//! to the stream with observability off.

use rlse_core::ir::json::JsonValue;
use rlse_core::telemetry::Histogram;
use rlse_serve::{
    fixture_requests, prometheus_text_for, prometheus_text_for_with_sched, KindTally,
    ObserveOptions, Observer, ServeOptions, ServeSummary, Server, TenantTally,
};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A cloneable in-memory `Write` sink, so a test can hand the observer a
/// writer and still read back what was written.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("UTF-8 access log")
    }
}

/// Parse one access-log line and drop every wall-clock (`*_us`) field,
/// leaving the deterministic record.
fn strip_wall_clock(line: &str) -> String {
    match JsonValue::parse(line).expect("access-log line parses as JSON") {
        JsonValue::Obj(fields) => JsonValue::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| !k.ends_with("_us"))
                .collect(),
        )
        .to_compact(),
        other => panic!("access-log line is not an object: {other:?}"),
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rlse-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn observed_responses_are_byte_identical_to_plain_serving() {
    // The acceptance criterion: every observability sink enabled vs. all
    // off, same requests, byte-identical responses.
    let requests = fixture_requests();
    let dir = temp_dir("identical");

    let plain_server = Server::new(ServeOptions::default());
    let mut plain = Vec::new();
    plain_server
        .serve_observed(requests.as_bytes(), &mut plain, &mut Observer::disabled())
        .unwrap();

    let observed_server = Server::new(ServeOptions::default());
    let opts = ObserveOptions {
        access_log: Some(dir.join("access.jsonl")),
        metrics: Some(dir.join("metrics.prom")),
        metrics_every: 2,
        slow_trace_us: Some(0),
        trace_dir: Some(dir.join("traces")),
    };
    let mut observer = Observer::from_options(&opts).unwrap();
    let mut observed = Vec::new();
    observed_server
        .serve_observed(requests.as_bytes(), &mut observed, &mut observer)
        .unwrap();

    assert_eq!(
        String::from_utf8(plain).unwrap(),
        String::from_utf8(observed).unwrap(),
        "observability must never change response bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn access_log_is_deterministic_once_wall_clock_fields_are_stripped() {
    let requests = fixture_requests();
    let run = || {
        let server = Server::new(ServeOptions::default());
        let buf = SharedBuf::default();
        let mut observer = Observer::disabled().with_access_writer(Box::new(buf.clone()));
        let mut out = Vec::new();
        server
            .serve_observed(requests.as_bytes(), &mut out, &mut observer)
            .unwrap();
        buf.contents()
            .lines()
            .map(strip_wall_clock)
            .collect::<Vec<String>>()
    };
    let first = run();
    let second = run();
    assert_eq!(first.len(), 6, "one access line per fixture request");
    assert_eq!(
        first, second,
        "access log must be identical across runs modulo *_us fields"
    );
    // The deterministic part carries the accounting fields downstream
    // pipelines key on.
    assert!(first[0].contains("\"seq\":1"), "{}", first[0]);
    assert!(first[0].contains("\"kind\":\"ping\""), "{}", first[0]);
    assert!(first[0].contains("\"tenant\":\"probe\""), "{}", first[0]);
    let sweep = first
        .iter()
        .find(|l| l.contains("\"id\":\"sweep-1\""))
        .expect("sweep-1 access line");
    assert!(sweep.contains("\"cache_hit\""), "{sweep}");
    assert!(sweep.contains("\"hash\":\""), "{sweep}");
    assert!(sweep.contains("\"sweep.trials\":40"), "{sweep}");
}

#[test]
fn ping_is_deterministic_and_never_touches_the_cache() {
    let server = Server::new(ServeOptions::default());
    let (resp, rec, _tel) =
        server.handle_recorded("{\"id\":\"p1\",\"kind\":\"ping\",\"tenant\":\"probe\"}");
    assert_eq!(resp, "{\"id\":\"p1\",\"kind\":\"ping\",\"ok\":true}");
    assert_eq!(rec.kind, "ping");
    assert_eq!(rec.tenant.as_deref(), Some("probe"));
    assert!(rec.ok);
    assert_eq!(rec.cache_hit, None, "ping never consults the cache");
    assert_eq!(rec.hash, None);
    assert_eq!(server.cache().hits() + server.cache().misses(), 0);
    // The tenant label is accounting-only: it must not leak into the
    // response.
    assert!(!resp.contains("probe"), "{resp}");
}

#[test]
fn summary_accounts_by_kind_and_tenant() {
    let server = Server::new(ServeOptions::default());
    let mut out = Vec::new();
    let summary = server
        .serve_observed(
            fixture_requests().as_bytes(),
            &mut out,
            &mut Observer::disabled(),
        )
        .unwrap();

    assert_eq!(summary.requests, 6);
    assert_eq!(summary.errors, 0);
    let kind = |k: &str| summary.kinds.get(k).copied().unwrap_or_default();
    assert_eq!(kind("ping").requests, 1);
    assert_eq!(kind("simulate").requests, 1);
    assert_eq!(kind("sweep").requests, 2);
    assert_eq!(kind("shmoo").requests, 1);
    assert_eq!(kind("model_check").requests, 1);
    assert_eq!(summary.kinds.values().map(|t| t.requests).sum::<u64>(), 6);

    let tenant = |t: &str| summary.tenants.get(t).copied().unwrap_or_default();
    assert_eq!(tenant("probe").requests, 1);
    assert_eq!(tenant("acme").requests, 2);
    assert_eq!(tenant("acme").trials, 40, "sweep-1 ran 40 trials for acme");
    assert!(tenant("acme").events > 0, "acme's simulate dispatched events");
    assert_eq!(tenant("beta").requests, 2);
    assert!(tenant("beta").states > 0, "beta's model_check explored states");
    assert_eq!(tenant("").requests, 1, "untenanted shmoo lands on \"\"");
    assert!(tenant("").trials > 0, "shmoo trials are accounted");

    // An unknown-kind line is tallied under kind "error" with errors=1.
    let server = Server::new(ServeOptions::default());
    let mut out = Vec::new();
    let summary = server
        .serve_observed(
            "{\"kind\":\"nope\",\"tenant\":\"acme\"}\n".as_bytes(),
            &mut out,
            &mut Observer::disabled(),
        )
        .unwrap();
    assert_eq!(summary.kinds.get("error"), Some(&KindTally { requests: 1, errors: 1 }));
    assert_eq!(summary.tenants.get("acme").map(|t| t.errors), Some(1));
}

#[test]
fn prometheus_text_matches_the_golden_bytes() {
    // A fixed summary covering every series family, including label values
    // that need escaping, plus one histogram with an exact bucket (10) and
    // a log-linear bucket (100 → upper bound 101).
    let mut summary = ServeSummary {
        requests: 3,
        errors: 1,
        cache_hits: 2,
        cache_misses: 1,
        ..ServeSummary::default()
    };
    summary
        .kinds
        .insert("simulate".into(), KindTally { requests: 2, errors: 0 });
    summary
        .kinds
        .insert("error".into(), KindTally { requests: 1, errors: 1 });
    summary.tenants.insert(
        "acme".into(),
        TenantTally {
            requests: 2,
            errors: 0,
            trials: 100,
            states: 5,
            events: 40,
        },
    );
    summary.tenants.insert(
        "we\"ird\\tenant\n".into(),
        TenantTally { requests: 1, errors: 1, ..TenantTally::default() },
    );
    let mut h = Histogram::default();
    h.record(10);
    h.record(100);
    h.record(100);
    let text = prometheus_text_for(&summary, &[("total".into(), h)]);

    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/metrics.prom");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &text).unwrap();
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file (regenerate with UPDATE_GOLDEN=1 cargo test -p rlse-serve)");
    assert_eq!(
        text, golden,
        "prometheus_text_for bytes drifted from the golden file; if the \
         change is intended, regenerate with UPDATE_GOLDEN=1"
    );

    // Structural sanity independent of the golden bytes: every line is a
    // comment or `name[{labels}] value` with an integer value.
    for line in text.lines() {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(value.parse::<u64>().is_ok(), "integer value: {line}");
        let name = series.split('{').next().unwrap();
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "metric name is a valid identifier: {line}"
        );
        if let Some(rest) = series.strip_prefix(name) {
            if !rest.is_empty() {
                assert!(rest.starts_with('{') && rest.ends_with('}'), "{line}");
                assert!(!rest.contains('\n'), "labels stay on one line: {line}");
            }
        }
    }
    // The hostile tenant label is escaped, not emitted raw.
    assert!(text.contains("tenant=\"we\\\"ird\\\\tenant\\n\""), "{text}");
}

#[test]
fn slow_trace_threshold_zero_dumps_a_chrome_trace_per_request() {
    let dir = temp_dir("traces");
    let server = Server::new(ServeOptions::default());
    let opts = ObserveOptions {
        slow_trace_us: Some(0),
        trace_dir: Some(dir.clone()),
        ..ObserveOptions::default()
    };
    let mut observer = Observer::from_options(&opts).unwrap();
    let mut out = Vec::new();
    server
        .serve_observed(fixture_requests().as_bytes(), &mut out, &mut observer)
        .unwrap();
    assert_eq!(observer.traces_written(), 6, "one trace per request at 0ms");

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names.len(), 6);
    assert_eq!(names[0], "trace-000001-ping.json");
    for name in &names {
        let body = std::fs::read_to_string(dir.join(name)).unwrap();
        let parsed = JsonValue::parse(&body).expect("trace is valid JSON");
        assert!(
            parsed.get("traceEvents").is_some(),
            "{name} is a Chrome trace"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_file_is_written_at_stride_and_end_of_batch() {
    let dir = temp_dir("metrics");
    let metrics = dir.join("metrics.prom");
    let server = Server::new(ServeOptions::default());
    let opts = ObserveOptions {
        metrics: Some(metrics.clone()),
        metrics_every: 2,
        ..ObserveOptions::default()
    };
    let mut observer = Observer::from_options(&opts).unwrap();
    let mut out = Vec::new();
    server
        .serve_observed(fixture_requests().as_bytes(), &mut out, &mut observer)
        .unwrap();
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    assert!(text.contains("rlse_requests_total 6"), "{text}");
    assert!(text.contains("rlse_requests_by_kind_total{kind=\"ping\"} 1"), "{text}");
    assert!(text.contains("rlse_tenant_trials_total{tenant=\"acme\"} 40"), "{text}");
    assert!(
        text.contains("rlse_phase_us_bucket{phase=\"total\",le=\"+Inf\"} 6"),
        "{text}"
    );
    // The exposition round-trips the same summary the observer holds.
    let hists: Vec<(String, Histogram)> = observer
        .histograms()
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    assert_eq!(
        text,
        prometheus_text_for_with_sched(observer.summary(), &hists, &observer.sched_stats())
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_client_strings_never_break_the_json_sinks() {
    let server = Server::new(ServeOptions::default());
    let hostile = "{\"id\":\"a\\\"b\\\\c\",\"kind\":\"ping\",\
                   \"tenant\":\"t\\\"x\\ny\\\\z\"}";
    let (resp, mut rec, _tel) = server.handle_recorded(hostile);
    JsonValue::parse(&resp).expect("response stays valid JSON");
    rec.seq = 1;
    let line = rec.to_json();
    let parsed = JsonValue::parse(&line).expect("access line stays valid JSON");
    assert_eq!(
        parsed.get("tenant").and_then(JsonValue::as_str),
        Some("t\"x\ny\\z"),
        "{line}"
    );

    let mut summary = ServeSummary::default();
    summary.absorb(&rec);
    let json = summary.to_json();
    let parsed = JsonValue::parse(&json).expect("summary stays valid JSON");
    assert!(
        parsed
            .get("tenants")
            .and_then(|t| t.get("t\"x\ny\\z"))
            .is_some(),
        "{json}"
    );
}
