//! `servebench` — a closed-loop benchmark of the `rlse-serve` request path.
//!
//! Each run serves one seeded workload ([`gen`]) through
//! [`rlse_serve::Server::serve_observed`] in-process, one request in flight
//! ([`closed`]), checks every response ([`verify`]), and reports
//! end-to-end metrics. A traced run additionally replays the served lines
//! layer by layer through the library calls the handlers make
//! ([`replay`]) and reports per-layer time, work and allocation counts.

pub mod alloc;
pub mod closed;
pub mod gen;
pub mod host;
pub mod replay;
pub mod verify;

use rlse_serve::ServeOptions;

/// The server configuration every workload runs under: one request worker
/// and one engine thread per request, so a 2-core host is never
/// oversubscribed (reader, worker and writer threads hand one request
/// along; only one of them is busy at a time). Other budgets are the
/// defaults, including the 1024-entry compiled cache.
pub fn serve_options() -> ServeOptions {
    ServeOptions {
        workers: 1,
        threads: 1,
        ..ServeOptions::default()
    }
}

/// The end-to-end metrics an untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric a traced run reports, with its unit.
pub fn per_layer_metrics() -> Vec<(&'static str, &'static str)> {
    let mut m = vec![
        ("serve.sched.us_per_req", "us"),
        ("serve.cpu_ms_per_req", "ms"),
        ("ir.json.parse.us_per_req", "us"),
        ("ir.json.parse.ns_per_byte", "ns/B"),
        ("ir.json.bytes_per_req", "B"),
        ("ir.json.encode.us_per_req", "us"),
        ("ir.decode.us_per_req", "us"),
        ("ir.to_circuit.us_per_req", "us"),
        ("ir.hash.us_per_req", "us"),
        ("ir.cache.us_per_req", "us"),
        ("ir.cache.hit_ratio", "ratio"),
        ("ir.cache.evictions_per_req", "count"),
        ("compiled.us_per_compile", "us"),
        ("compiled.compiles_per_req", "count"),
        ("sim.us_per_req", "us"),
        ("sim.dispatches_per_req", "count"),
        ("sim.ns_per_dispatch", "ns"),
        ("sweep.us_per_req", "us"),
        ("sweep.trials_per_req", "count"),
        ("sweep.us_per_trial", "us"),
        ("margins.us_per_req", "us"),
        ("margins.cells_per_req", "count"),
        ("ta.translate.us_per_req", "us"),
        ("ta.mc.us_per_req", "us"),
        ("ta.mc.states_per_req", "count"),
        ("ta.mc.us_per_state", "us"),
    ];
    for name in SHARE_NAMES {
        m.push((name, "%"));
    }
    for name in ALLOC_NAMES {
        m.push((name, "count"));
    }
    m.extend([
        ("trace.coverage_pct", "%"),
        ("trace.overhead_pct", "%"),
        ("host.calib_ms", "ms"),
        ("host.steal_pct", "%"),
    ]);
    m
}

/// The `<layer>.share_pct` metrics, in [`replay::LAYERS`] order.
pub const SHARE_NAMES: [&str; 9] = [
    "serve.sched.share_pct",
    "ir.json.share_pct",
    "ir.share_pct",
    "ir.cache.share_pct",
    "compiled.share_pct",
    "sim.share_pct",
    "sweep.share_pct",
    "margins.share_pct",
    "ta.share_pct",
];

/// The `<layer>.allocs_per_req` metrics, in [`replay::LAYERS`] order.
pub const ALLOC_NAMES: [&str; 9] = [
    "serve.sched.allocs_per_req",
    "ir.json.allocs_per_req",
    "ir.allocs_per_req",
    "ir.cache.allocs_per_req",
    "compiled.allocs_per_req",
    "sim.allocs_per_req",
    "sweep.allocs_per_req",
    "margins.allocs_per_req",
    "ta.allocs_per_req",
];

/// The `q`-quantile (0..=1) of `v` by the nearest-rank rule; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The median of `v`, averaging the middle pair; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}
