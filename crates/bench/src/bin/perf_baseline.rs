//! Performance-baseline harness: measures median ns/event and heap
//! allocations per run for the simulation, sweep, and verification
//! workloads, and prints a `BENCH_sim.json` document to stdout.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rlse-bench --bin perf_baseline \
//!     [label] > BENCH_sim.json
//! ```
//!
//! The optional `label` (default `"current"`) tags the kernel under test so
//! before/after reports from different checkouts can sit side by side.
//!
//! Two timing modes are reported per simulation workload:
//!
//! * `fresh` — build a new `Simulation` per iteration and run it, matching
//!   the `benches/simulation.rs` criterion setup (includes circuit
//!   compilation and first-use buffer growth);
//! * `reused` — one `Simulation` run repeatedly, the steady state seen by
//!   Monte-Carlo sweep workers (compiled tables and buffers reused).
//!
//! Event and state counts come from the shared telemetry layer
//! ([`rlse_core::telemetry`]): every workload is run once with an enabled
//! [`Telemetry`] handle and the counters (`sim.wire_pulses`, `sweep.ok`,
//! `mc.states`, ...) feed the JSON directly, so the numbers here are the
//! same ones every other consumer of the telemetry layer sees. A dedicated
//! section measures the overhead of the instrumentation itself (no handle
//! vs. disabled handle vs. enabled handle) on the bitonic_8 workload.
//!
//! The `ir_decode` section prices request decode per line byte —
//! `JsonValue::parse` of a whole `simulate` line and `Ir::from_value` of its
//! parsed IR — on the min_max, bitonic_8 and bitonic_16 lines (2.8 to 52
//! KB). Flat ns/B across that range is the evidence that decode is linear
//! in line length.
//!
//! The `serve_hit_path` section prices one served `simulate` request three
//! ways on min_max and bitonic_8: a spelling hit (the line repeats byte for
//! byte, so the compiled cache finds it by its raw `ir` text), a canonical
//! hit (the same circuit re-spelled, found by IR decode and canonical
//! hash) and a miss (a fresh server compiles it).
//!
//! The `cache_miss_path` section prices one compiled-cache miss on a cache
//! already full, so every miss also evicts: `CompiledCache::get_or_compile`
//! of a never-seen min_max circuit at caps 64, 1,024 and 16,384, one miss
//! per cap in turn. Equal rows are the evidence that eviction does not
//! grow with the cache.
//!
//! Allocation counts come from a counting global allocator and cover the
//! whole `run()` call, including the per-run `Events` materialization at the
//! boundary; the interesting signal is the per-event marginal cost.

use rlse_analog::synth::from_circuit;
use rlse_bench::{
    bench_adder_sync, bench_bitonic, bench_c, bench_c_inv, bench_min_max, bench_race_tree,
    expected_outputs, simulate, Bench,
};
use rlse_core::prelude::*;
use rlse_core::sweep::{trial_seed, Sweep};
use rlse_ta::mc::{check, check_with_telemetry, McOptions, McQuery};
use rlse_ta::translate::translate_circuit;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A pass-through allocator that counts every allocation and reallocation.
struct CountingAlloc;

// SAFETY: delegates every operation verbatim to the system allocator; the
// counter is a relaxed atomic with no allocation of its own.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Median of a sample of nanosecond timings.
fn median_ns(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

/// Time `f` repeatedly until ~`budget_ms` of samples are collected (at least
/// `min_reps`), returning the median ns per call.
fn time_median<F: FnMut()>(f: F, budget_ms: f64, min_reps: usize) -> f64 {
    median_ns(&mut time_samples(f, budget_ms, min_reps))
}

/// The per-call ns samples behind [`time_median`].
fn time_samples<F: FnMut()>(mut f: F, budget_ms: f64, min_reps: usize) -> Vec<f64> {
    // Warmup.
    f();
    let probe = {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64() * 1e9
    };
    let reps = ((budget_ms * 1e6 / probe.max(1.0)) as usize).clamp(min_reps, 10_000);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64() * 1e9);
    }
    samples
}

/// Like [`time_median`], but with a per-iteration `setup` whose cost is
/// excluded from the timing (criterion's `iter_batched` shape).
fn time_median_with_setup<T, S: FnMut() -> T, F: FnMut(T)>(
    mut setup: S,
    mut routine: F,
    budget_ms: f64,
    min_reps: usize,
) -> f64 {
    routine(setup());
    let probe = {
        let v = setup();
        let t0 = Instant::now();
        routine(v);
        t0.elapsed().as_secs_f64() * 1e9
    };
    let reps = ((budget_ms * 1e6 / probe.max(1.0)) as usize).clamp(min_reps, 10_000);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let v = setup();
        let t0 = Instant::now();
        routine(v);
        samples.push(t0.elapsed().as_secs_f64() * 1e9);
    }
    median_ns(&mut samples)
}

struct SimRow {
    name: &'static str,
    events: u64,
    dispatches: u64,
    transitions: u64,
    max_heap: u64,
    fresh_ns: f64,
    fresh_allocs: u64,
    reused_ns: f64,
    reused_allocs: u64,
}

fn measure_sim<F: Fn() -> Bench>(name: &'static str, build: F) -> SimRow {
    // One instrumented run: the event/dispatch/transition counts come from
    // the telemetry report and are identical on every run (no variability).
    let tel = Telemetry::new();
    let (events, dispatches, transitions, max_heap) = {
        let mut sim = Simulation::new(build().circuit);
        sim.set_telemetry(&tel);
        let ev = sim.run().expect("bench simulates cleanly");
        let report = tel.report();
        assert_eq!(
            report.counter("sim.wire_pulses"),
            ev.pulse_count_all() as u64,
            "{name}: telemetry wire-pulse counter must match the Events view"
        );
        (
            report.counter("sim.wire_pulses"),
            report.counter("sim.dispatches"),
            report.counter("sim.transitions"),
            report.gauge("sim.max_heap_depth"),
        )
    };
    // Fresh: new simulation per iteration (setup excluded from timing, as
    // in the criterion bench), so the number includes compilation and
    // first-use buffer growth but not circuit construction.
    let fresh_ns = time_median_with_setup(
        || Simulation::new(build().circuit),
        |mut sim| {
            sim.run().expect("clean");
        },
        150.0,
        10,
    );
    let fresh_allocs = {
        let mut sim = Simulation::new(build().circuit);
        let a0 = allocs();
        sim.run().expect("clean");
        allocs() - a0
    };
    // Reused: one simulation, repeated runs (the sweep steady state).
    let mut sim = Simulation::new(build().circuit);
    sim.run().expect("clean");
    let reused_ns = time_median(
        || {
            sim.run().expect("clean");
        },
        150.0,
        10,
    );
    let reused_allocs = {
        let a0 = allocs();
        sim.run().expect("clean");
        allocs() - a0
    };
    SimRow {
        name,
        events,
        dispatches,
        transitions,
        max_heap,
        fresh_ns,
        fresh_allocs,
        reused_ns,
        reused_allocs,
    }
}

/// One `sweep` row: a served-size Monte-Carlo study (2,000 trials at
/// σ = 0.1, one thread) of a design's IR circuit, timed two ways — a
/// per-trial `Simulation` loop (one simulation reset per trial, the
/// engine `Sweep` ran before the lane kernel) and `Sweep` itself. With
/// `check`, a trial passes when every output fires at exactly its
/// reference times, as a `check:true` sweep request decides. Both ways
/// report the same `sim.*` counters; the row asserts it.
struct SweepRow {
    name: &'static str,
    check: bool,
    trials: u64,
    sim_loop_ns_per_trial: f64,
    sweep_ns_per_trial: f64,
    report: TelemetryReport,
}

fn measure_sweep(name: &'static str, check: bool) -> SweepRow {
    const TRIALS: u64 = 2000;
    const SIGMA: f64 = 0.1;
    const SEED: u64 = 42;
    let ir = rlse_designs::design_ir_with_expected_outputs(name, 1.0);
    let expected = ir
        .queries
        .iter()
        .find_map(|q| match q {
            rlse_core::ir::IrQuery::OutputsOnlyAt { outputs } => Some(outputs.clone()),
            _ => None,
        })
        .expect("reference outputs query");
    let passes = |ev: &Events| {
        expected
            .iter()
            .all(|(n, times)| ev.times(n) == times.as_slice())
    };
    let build = || ir.to_circuit().expect("design IR imports");
    let sweep = |tel: &Telemetry| {
        let mut s = Sweep::over(build)
            .variability(|| Variability::Gaussian { std: SIGMA })
            .trials(TRIALS)
            .master_seed(SEED)
            .threads(1)
            .telemetry(tel);
        if check {
            s = s.check(passes);
        }
        s.run()
    };
    let sim_loop = |tel: &Telemetry| {
        let mut sim = Simulation::new(build());
        sim.set_telemetry(tel);
        let mut ok = 0u64;
        for trial in 0..TRIALS {
            sim.set_seed(trial_seed(SEED, trial));
            sim.set_variability(Some(Variability::Gaussian { std: SIGMA }));
            if sim.run().is_ok_and(|ev| !check || passes(&ev)) {
                ok += 1;
            }
        }
        ok
    };
    let tel = Telemetry::new();
    let ok = sweep(&tel).ok;
    let loop_tel = Telemetry::new();
    assert_eq!(
        sim_loop(&loop_tel),
        ok,
        "{name}: engines disagree on outcomes"
    );
    let report = tel.report();
    assert_eq!(
        report.counters_with_prefix("sim."),
        loop_tel.report().counters_with_prefix("sim."),
        "{name}: the sweep's sim.* counters must equal the per-trial loop's"
    );
    let disabled = Telemetry::disabled();
    let sim_loop_ns = time_median(
        || {
            sim_loop(&disabled);
        },
        600.0,
        5,
    );
    let sweep_ns = time_median(
        || {
            sweep(&disabled);
        },
        600.0,
        5,
    );
    SweepRow {
        name,
        check,
        trials: TRIALS,
        sim_loop_ns_per_trial: sim_loop_ns / TRIALS as f64,
        sweep_ns_per_trial: sweep_ns / TRIALS as f64,
        report,
    }
}

/// One `serve_throughput` row: the generated mixed corpus served end to end
/// through the request scheduler at a fixed worker count, cache-cold (a
/// fresh server, so every distinct circuit compiles) and cache-warm (the
/// same server again, so every circuit hits). Every pass's response bytes
/// are asserted identical to the first — the worker count may only change
/// the wall clock, never the output.
struct ServeRow {
    workers: usize,
    engine_threads: usize,
    cold_rps: f64,
    warm_rps: f64,
    singleflight_waits: u64,
}

fn measure_serve_throughput(corpus: &str, workers_list: &[usize]) -> Vec<ServeRow> {
    use rlse_serve::{Observer, ServeOptions, Server};
    let n = corpus.lines().count() as f64;
    let mut reference: Option<Vec<u8>> = None;
    workers_list
        .iter()
        .map(|&workers| {
            let server = Server::new(ServeOptions {
                workers,
                ..ServeOptions::default()
            });
            let mut out = Vec::new();
            let t0 = Instant::now();
            server
                .serve_observed(corpus.as_bytes(), &mut out, &mut Observer::disabled())
                .expect("cold pass serves");
            let cold_s = t0.elapsed().as_secs_f64();
            match &reference {
                Some(r) => assert_eq!(
                    *r, out,
                    "workers={workers}: responses must be byte-identical to workers={}",
                    workers_list[0]
                ),
                None => reference = Some(out.clone()),
            }
            // Warm: the same server, so every circuit hits the compiled
            // cache. Median of three passes.
            let mut warm = Vec::with_capacity(3);
            for _ in 0..3 {
                let mut again = Vec::new();
                let t0 = Instant::now();
                server
                    .serve_observed(corpus.as_bytes(), &mut again, &mut Observer::disabled())
                    .expect("warm pass serves");
                warm.push(t0.elapsed().as_secs_f64());
                assert_eq!(out, again, "workers={workers}: warm pass changed bytes");
            }
            warm.sort_by(f64::total_cmp);
            ServeRow {
                workers,
                engine_threads: server.engine_threads(),
                cold_rps: n / cold_s.max(1e-9),
                warm_rps: n / warm[1].max(1e-9),
                singleflight_waits: server.cache().singleflight_waits(),
            }
        })
        .collect()
}

/// Sample count, median and fastest sample of one timed call, in ns per
/// request-line byte.
struct PerByte {
    n: usize,
    median: f64,
    min: f64,
}

impl PerByte {
    fn of(mut samples: Vec<f64>, bytes: usize) -> Self {
        let median = median_ns(&mut samples);
        PerByte {
            n: samples.len(),
            median: median / bytes as f64,
            min: samples[0] / bytes as f64,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"n\": {}, \"median_ns_per_byte\": {:.2}, \"min_ns_per_byte\": {:.2}}}",
            self.n, self.median, self.min
        )
    }
}

/// One `ir_decode` row: the two halves of decoding a `simulate` request
/// line for one design — `JsonValue::parse` of the whole line, then
/// `Ir::from_value` on its parsed `"ir"` member. Both are linear in line
/// length, so ns/B stays flat from the smallest design to the largest.
struct DecodeRow {
    name: &'static str,
    bytes: usize,
    parse: PerByte,
    from_value: PerByte,
}

fn measure_ir_decode(name: &'static str) -> DecodeRow {
    use rlse_core::ir::json::JsonValue;
    use rlse_core::ir::Ir;
    let ir = rlse_designs::design_ir(name, 1.0);
    let line = format!(
        "{{\"id\":\"decode-{name}\",\"kind\":\"simulate\",\"ir\":{}}}",
        ir.to_value().to_compact()
    );
    let req = JsonValue::parse(&line).expect("request line parses");
    let ir_val = req.get("ir").expect("request carries an IR");
    assert_eq!(Ir::from_value(ir_val).expect("IR decodes"), ir);
    let parse = time_samples(|| drop(JsonValue::parse(&line)), 300.0, 50);
    let from_value = time_samples(|| drop(Ir::from_value(ir_val)), 300.0, 50);
    DecodeRow {
        name,
        bytes: line.len(),
        parse: PerByte::of(parse, line.len()),
        from_value: PerByte::of(from_value, line.len()),
    }
}

/// Sample count, median and fastest sample of one timed request, in µs,
/// plus the request's (deterministic) heap allocations.
struct PerRequest {
    n: usize,
    median_us: f64,
    min_us: f64,
    allocs: u64,
}

impl PerRequest {
    fn of(mut samples_ns: Vec<f64>, allocs: u64) -> Self {
        let median = median_ns(&mut samples_ns);
        PerRequest {
            n: samples_ns.len(),
            median_us: median / 1e3,
            min_us: samples_ns[0] / 1e3,
            allocs,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"n\": {}, \"median_us\": {:.1}, \"min_us\": {:.1}, \"allocs_per_req\": {}}}",
            self.n, self.median_us, self.min_us, self.allocs
        )
    }
}

/// One `serve_hit_path` row: `Server::handle_line` of one design's
/// `simulate` request as a spelling hit, a canonical hit and a miss.
struct HitPathRow {
    name: &'static str,
    bytes: usize,
    spelling_hit: PerRequest,
    canonical_hit: PerRequest,
    miss: PerRequest,
}

fn measure_serve_hit_path(name: &'static str) -> HitPathRow {
    use rlse_serve::{ServeOptions, Server};
    let ir = rlse_designs::design_ir(name, 1.0).to_value();
    let request = |ir: String| format!("{{\"id\":\"hit-{name}\",\"kind\":\"simulate\",\"ir\":{ir}}}");
    let line = request(ir.to_compact());
    let respelled = request(ir.to_pretty());
    let fresh = || Server::new(ServeOptions::default());
    let server = fresh();
    let answer = server.handle_line(&line);
    assert!(answer.contains("\"ok\":true"), "{answer}");
    assert_eq!(server.handle_line(&line), answer, "canonical hit admits the spelling");
    assert_eq!(server.cache().spellings().0, 1);
    let allocs_of = |server: &Server, line: &str| {
        let a0 = allocs();
        assert_eq!(server.handle_line(line), answer);
        allocs() - a0
    };
    let allocs = [
        allocs_of(&server, &line),
        allocs_of(&server, &respelled),
        allocs_of(&fresh(), &line),
    ];
    // Interleave the three ways sample by sample.
    let timed = |server: &Server, line: &str| {
        let t0 = Instant::now();
        let got = server.handle_line(line);
        let ns = t0.elapsed().as_secs_f64() * 1e9;
        assert_eq!(got, answer);
        ns
    };
    let round = |samples: &mut [Vec<f64>; 3]| {
        samples[0].push(timed(&server, &line));
        samples[1].push(timed(&server, &respelled));
        let cold = fresh();
        samples[2].push(timed(&cold, &line));
    };
    let mut samples: [Vec<f64>; 3] = Default::default();
    let t0 = Instant::now();
    round(&mut samples);
    let per_round_ms = t0.elapsed().as_secs_f64() * 1e3;
    let reps = ((600.0 / per_round_ms.max(1e-3)) as usize).clamp(30, 2000);
    samples = Default::default();
    for _ in 0..reps {
        round(&mut samples);
    }
    assert_eq!(server.cache().misses(), 1, "the warm server never recompiles");
    let [spelling, canonical, miss] = samples;
    HitPathRow {
        name,
        bytes: line.len(),
        spelling_hit: PerRequest::of(spelling, allocs[0]),
        canonical_hit: PerRequest::of(canonical, allocs[1]),
        miss: PerRequest::of(miss, allocs[2]),
    }
}

/// One `cache_miss_path` row: the per-miss timings of a cache held full
/// at `cap` entries.
struct MissRow {
    cap: usize,
    samples_ns: Vec<f64>,
}

impl MissRow {
    fn json(&mut self) -> String {
        let median = median_ns(&mut self.samples_ns);
        format!(
            "{{\"cap\": {}, \"n\": {}, \"median_us\": {:.1}, \"min_us\": {:.1}}}",
            self.cap,
            self.samples_ns.len(),
            median / 1e3,
            self.samples_ns[0] / 1e3
        )
    }
}

/// Fill one cache per cap with distinct min_max circuits, then time
/// `misses` further never-seen circuits on each, interleaved cap by cap.
fn measure_cache_miss_path(caps: &[usize], misses: usize) -> Vec<MissRow> {
    use rlse_core::ir::CompiledCache;
    // Time-scales 1e-6 apart give distinct circuits of the same shape.
    let circuit = |i: usize| rlse_designs::design_ir("min_max", 1.0 + i as f64 * 1e-6);
    let caches: Vec<CompiledCache> = caps
        .iter()
        .map(|&cap| {
            let cache = CompiledCache::new().with_max_entries(cap);
            for i in 0..cap {
                cache.get_or_compile(&circuit(i)).unwrap();
            }
            assert_eq!(cache.len(), cap);
            cache
        })
        .collect();
    let fresh = caps.iter().max().copied().unwrap_or(0);
    let mut rows: Vec<MissRow> = caps
        .iter()
        .map(|&cap| MissRow {
            cap,
            samples_ns: Vec::with_capacity(misses),
        })
        .collect();
    for i in fresh..fresh + misses {
        let ir = circuit(i);
        for (cache, row) in caches.iter().zip(&mut rows) {
            let t0 = Instant::now();
            let got = cache.get_or_compile(&ir).unwrap();
            row.samples_ns.push(t0.elapsed().as_secs_f64() * 1e9);
            assert!(!got.hit);
        }
    }
    for (cache, row) in caches.iter().zip(&rows) {
        assert_eq!((cache.len(), cache.misses()), (row.cap, (row.cap + misses) as u64));
    }
    rows
}

/// Telemetry overhead on the reused bitonic_8 workload: median run time
/// with no handle attached, with a disabled handle, and with an enabled
/// handle. The first two must be indistinguishable (the disabled handle is
/// a `None` inner — every call is a no-op); the third prices the enabled
/// instrumentation.
struct Overhead {
    off_ns: f64,
    disabled_ns: f64,
    enabled_ns: f64,
}

fn measure_overhead() -> Overhead {
    let bench = bench_bitonic(8);
    let mut sim = Simulation::new(bench.circuit);
    sim.run().expect("clean");
    let off_ns = time_median(
        || {
            sim.run().expect("clean");
        },
        300.0,
        20,
    );
    let disabled = Telemetry::disabled();
    sim.set_telemetry(&disabled);
    let disabled_ns = time_median(
        || {
            sim.run().expect("clean");
        },
        300.0,
        20,
    );
    let enabled = Telemetry::new();
    sim.set_telemetry(&enabled);
    let enabled_ns = time_median(
        || {
            sim.run().expect("clean");
        },
        300.0,
        20,
    );
    Overhead {
        off_ns,
        disabled_ns,
        enabled_ns,
    }
}

/// One Table-2 design measured on both analog engines: the naive per-step
/// reference (the "before" of the event-gating work) and the event-gated
/// engine (the "after"), plus the gating counters from one instrumented run.
struct AnalogRow {
    name: &'static str,
    jjs: usize,
    steps: usize,
    reference_median_ns: f64,
    gated_median_ns: f64,
    report: TelemetryReport,
}

fn measure_analog() -> Vec<AnalogRow> {
    [
        ("c_element", bench_c(), 450.0),
        ("inv_c", bench_c_inv(), 450.0),
        ("min_max", bench_min_max(), 450.0),
        ("bitonic_8", bench_bitonic(8), 300.0),
    ]
    .into_iter()
    .map(|(name, bench, t_end)| {
        let tel = Telemetry::new();
        let mut sim = from_circuit(&bench.circuit)
            .expect("Table 2 designs use only analog-modelled cells")
            .telemetry(&tel);
        let gated_ev = sim.run(t_end);
        let reference_ev = sim.run_reference(t_end);
        assert_eq!(
            gated_ev.pulses, reference_ev.pulses,
            "{name}: gated engine diverged from the reference pulse times"
        );
        let report = tel.report();
        // Time the engines without instrumentation attached.
        let disabled = Telemetry::disabled();
        sim.set_telemetry(&disabled);
        let gated_median_ns = time_median(|| drop(sim.run(t_end)), 200.0, 5);
        let reference_median_ns = time_median(|| drop(sim.run_reference(t_end)), 400.0, 3);
        AnalogRow {
            name,
            jjs: gated_ev.jjs,
            steps: gated_ev.steps,
            reference_median_ns,
            gated_median_ns,
            report,
        }
    })
    .collect()
}

fn main() {
    let mut label = String::from("current");
    for arg in std::env::args().skip(1) {
        assert!(!arg.starts_with("--"), "unknown flag '{arg}'");
        label = arg;
    }

    let rows = [
        measure_sim("c_element", bench_c),
        measure_sim("inv_c", bench_c_inv),
        measure_sim("min_max", bench_min_max),
        measure_sim("bitonic_4", || bench_bitonic(4)),
        measure_sim("bitonic_8", || bench_bitonic(8)),
        measure_sim("bitonic_16", || bench_bitonic(16)),
        measure_sim("bitonic_32", || bench_bitonic(32)),
    ];

    // Sweep: served-size Monte-Carlo studies, per-trial loop vs Sweep.
    let sweep_rows: Vec<SweepRow> = ["min_max", "race_tree"]
        .into_iter()
        .flat_map(|name| [false, true].map(|check| measure_sweep(name, check)))
        .collect();

    // Verification: PyLSE→TA translation of the 8-input bitonic sorter and
    // Query-2 model checking of the And cell (from benches/verification.rs).
    let bitonic8 = bench_bitonic(8).circuit;
    let translate_ns = time_median(|| drop(translate_circuit(&bitonic8).unwrap()), 150.0, 10);
    let and_spec = rlse_cells::defs::and_elem();
    let and_circ = rlse_bench::cell_bench("And", &and_spec).circuit;
    let tr = translate_circuit(&and_circ).unwrap();
    let mc_ns = time_median(
        || drop(check(&tr.net, &McQuery::query2(&tr), McOptions::default())),
        400.0,
        3,
    );

    // Design-level model checking: Table-3-style compositions, both queries.
    // Explored-state, peak-store, and subsumption counts come from the
    // telemetry flush of one instrumented Query-2 pass per design; the
    // largest zone's clock count (not a telemetry counter) from its result.
    struct McRow {
        name: &'static str,
        q1_ns: f64,
        q2_ns: f64,
        report: TelemetryReport,
        max_zone_clocks: usize,
    }
    let mc_rows: Vec<McRow> = [
        ("min_max", bench_min_max()),
        ("race_tree", bench_race_tree()),
        ("adder_sync", bench_adder_sync()),
        ("bitonic_4", bench_bitonic(4)),
        ("bitonic_8", bench_bitonic(8)),
    ]
    .into_iter()
    .map(|(name, bench)| {
        let (events, _, circ) = simulate(bench);
        let expected = expected_outputs(&circ, &events);
        let refs: Vec<(&str, Vec<f64>)> = expected
            .iter()
            .map(|(n, t)| (n.as_str(), t.clone()))
            .collect();
        let tr = translate_circuit(&circ).unwrap();
        let tel = Telemetry::new();
        let q2 = check_with_telemetry(&tr.net, &McQuery::query2(&tr), McOptions::default(), Some(&tel));
        assert_eq!(q2.holds, Some(true), "{name} q2: {:?}", q2.violation);
        let report = tel.report();
        assert_eq!(report.counter("mc.states"), q2.states() as u64);
        let q2_ns = time_median(
            || drop(check(&tr.net, &McQuery::query2(&tr), McOptions::default())),
            400.0,
            3,
        );
        let q1_ns = time_median(
            || drop(check(&tr.net, &McQuery::query1(&tr, &refs), McOptions::default())),
            400.0,
            3,
        );
        McRow {
            name,
            q1_ns,
            q2_ns,
            report,
            max_zone_clocks: q2.stats.max_zone_clocks,
        }
    })
    .collect();

    let overhead = measure_overhead();
    let analog_rows = measure_analog();

    // Serving throughput: the generated 200-request mixed corpus through
    // the request scheduler at the canonical worker counts. On a 1-core
    // host the multi-worker rows measure scheduling overhead, not speedup;
    // host_cores is recorded so readers can judge.
    const SERVE_CORPUS: usize = 200;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serve_corpus = rlse_serve::generated_requests(SERVE_CORPUS);
    let serve_rows = measure_serve_throughput(&serve_corpus, &[1, 2, 4, 8]);
    let decode_rows: Vec<DecodeRow> = ["min_max", "bitonic_8", "bitonic_16"]
        .into_iter()
        .map(measure_ir_decode)
        .collect();
    let hit_path_rows: Vec<HitPathRow> = ["min_max", "bitonic_8"]
        .into_iter()
        .map(measure_serve_hit_path)
        .collect();
    const MISSES: usize = 2000;
    let mut miss_rows = measure_cache_miss_path(&[64, 1024, 16_384], MISSES);

    // Hand-rolled JSON (the workspace deliberately has no serde dependency).
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"kernel\": \"{label}\",\n"));
    out.push_str("  \"tool\": \"perf_baseline\",\n");
    out.push_str("  \"simulation\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let ev = r.events.max(1) as f64;
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"events_per_run\": {}, \
             \"dispatches_per_run\": {}, \"transitions_per_run\": {}, \
             \"max_heap_depth\": {}, \
             \"fresh_median_ns\": {:.0}, \"fresh_ns_per_event\": {:.1}, \
             \"fresh_allocs_per_run\": {}, \
             \"reused_median_ns\": {:.0}, \"reused_ns_per_event\": {:.1}, \
             \"reused_allocs_per_run\": {}}}{}\n",
            r.name,
            r.events,
            r.dispatches,
            r.transitions,
            r.max_heap,
            r.fresh_ns,
            r.fresh_ns / ev,
            r.fresh_allocs,
            r.reused_ns,
            r.reused_ns / ev,
            r.reused_allocs,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    // Analog engines: the naive per-step reference is the "before", the
    // event-gated engine the "after"; both produce identical pulse times
    // (asserted in `measure_analog`).
    out.push_str("  \"analog\": [\n");
    for (i, r) in analog_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"jjs\": {}, \"steps\": {}, \
             \"reference_median_ns\": {:.0}, \"gated_median_ns\": {:.0}, \
             \"speedup\": {:.2}, \"cell_steps\": {}, \"solves\": {}, \
             \"solves_skipped\": {}, \"newton_iters\": {}, \
             \"refactorizations\": {}, \"refactor_avoided\": {}, \
             \"pulses_routed\": {}, \"peak_active_cells\": {}}}{}\n",
            r.name,
            r.jjs,
            r.steps,
            r.reference_median_ns,
            r.gated_median_ns,
            r.reference_median_ns / r.gated_median_ns.max(1.0),
            r.report.counter("analog.cell_steps"),
            r.report.counter("analog.solves"),
            r.report.counter("analog.solves_skipped"),
            r.report.counter("analog.newton_iters"),
            r.report.counter("analog.refactorizations"),
            r.report.counter("analog.refactor_avoided"),
            r.report.counter("analog.pulses_routed"),
            r.report.gauge("analog.peak_active_cells"),
            if i + 1 == analog_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"sweep\": [\n");
    for (i, r) in sweep_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"check\": {}, \"trials\": {}, \"threads\": 1, \
             \"sim_loop_ns_per_trial\": {:.1}, \"sweep_ns_per_trial\": {:.1}, \
             \"speedup\": {:.2}, \"ok_trials\": {}, \"check_failures\": {}, \
             \"timing_violations\": {}, \"dispatches\": {}, \"wire_pulses\": {}, \
             \"max_heap_depth\": {}}}{}\n",
            r.name,
            r.check,
            r.trials,
            r.sim_loop_ns_per_trial,
            r.sweep_ns_per_trial,
            r.sim_loop_ns_per_trial / r.sweep_ns_per_trial.max(1e-9),
            r.report.counter("sweep.ok"),
            r.report.counter("sweep.check_failures"),
            r.report.counter("sweep.timing_violations"),
            r.report.counter("sim.dispatches"),
            r.report.counter("sim.wire_pulses"),
            r.report.gauge("sim.max_heap_depth"),
            if i + 1 == sweep_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"verification\": {{\"translate_bitonic_8_median_ns\": {translate_ns:.0}, \
         \"model_check_query2_and_median_ns\": {mc_ns:.0},\n"
    ));
    out.push_str("  \"model_check_designs\": [\n");
    for (i, r) in mc_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"query1_median_ns\": {:.0}, \
             \"query2_median_ns\": {:.0}, \"states\": {}, \"peak_store\": {}, \
             \"candidates\": {}, \"subsumed\": {}, \"evicted\": {}, \
             \"max_zone_clocks\": {}}}{}\n",
            r.name,
            r.q1_ns,
            r.q2_ns,
            r.report.counter("mc.states"),
            r.report.gauge("mc.peak_store"),
            r.report.counter("mc.candidates"),
            r.report.counter("mc.subsumed"),
            r.report.counter("mc.evicted"),
            r.max_zone_clocks,
            if i + 1 == mc_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]},\n");
    out.push_str(&format!(
        "  \"serve_throughput\": {{\"corpus_requests\": {SERVE_CORPUS}, \
         \"host_cores\": {host_cores}, \"rows\": [\n"
    ));
    for (i, r) in serve_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workers\": {}, \"engine_threads\": {}, \
             \"cold_requests_per_sec\": {:.1}, \"warm_requests_per_sec\": {:.1}, \
             \"singleflight_waits\": {}}}{}\n",
            r.workers,
            r.engine_threads,
            r.cold_rps,
            r.warm_rps,
            r.singleflight_waits,
            if i + 1 == serve_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]},\n");
    out.push_str("  \"ir_decode\": [\n");
    for (i, r) in decode_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"line_bytes\": {}, \"parse\": {}, \"from_value\": {}}}{}\n",
            r.name,
            r.bytes,
            r.parse.json(),
            r.from_value.json(),
            if i + 1 == decode_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"serve_hit_path\": {{\"host_cores\": {host_cores}, \"rows\": [\n"
    ));
    for (i, r) in hit_path_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"line_bytes\": {}, \"spelling_hit\": {}, \
             \"canonical_hit\": {}, \"miss\": {}}}{}\n",
            r.name,
            r.bytes,
            r.spelling_hit.json(),
            r.canonical_hit.json(),
            r.miss.json(),
            if i + 1 == hit_path_rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]},\n");
    out.push_str(&format!(
        "  \"cache_miss_path\": {{\"host_cores\": {host_cores}, \"design\": \"min_max\", \
         \"rows\": [\n"
    ));
    let n_rows = miss_rows.len();
    for (i, r) in miss_rows.iter_mut().enumerate() {
        let sep = if i + 1 == n_rows { "" } else { "," };
        out.push_str(&format!("    {}{sep}\n", r.json()));
    }
    out.push_str("  ]},\n");
    let disabled_pct = 100.0 * (overhead.disabled_ns - overhead.off_ns) / overhead.off_ns;
    let enabled_pct = 100.0 * (overhead.enabled_ns - overhead.off_ns) / overhead.off_ns;
    out.push_str(&format!(
        "  \"telemetry_overhead\": {{\"workload\": \"bitonic_8_reused\", \
         \"off_median_ns\": {:.0}, \"disabled_median_ns\": {:.0}, \
         \"enabled_median_ns\": {:.0}, \"disabled_overhead_pct\": {:.2}, \
         \"enabled_overhead_pct\": {:.2}}}\n",
        overhead.off_ns, overhead.disabled_ns, overhead.enabled_ns, disabled_pct, enabled_pct,
    ));
    out.push_str("}\n");
    print!("{out}");
}
