//! The traced replay: each served line's handler steps, re-run one public
//! library call at a time, with a span around each call.
//!
//! The steps are those `Server::handle_recorded` takes: parse the line
//! (`JsonValue::parse`), decode the IR (`Ir::from_json` of the re-encoded
//! `ir` value), look it up (`CompiledCache::get_or_compile`), run the
//! engine, and encode the response (`JsonValue::to_compact`). The replay
//! rebuilds the response and compares it byte for byte with the served
//! one, so its work counters are the served response's counters.
//!
//! `get_or_compile` rebuilds the circuit, hashes the canonical bytes and,
//! on a miss, compiles. The replay times those three calls standalone on
//! the same input just before the lookup, records them as children of the
//! `ir.cache` span, and subtracts them from its self time.
//!
//! A span's self time is its duration minus its children's. Spans stay in
//! memory and are written as Chrome `trace_event` JSON at the end.

use crate::alloc;
use crate::verify::events_json;
use rlse_core::compiled::CompiledCircuit;
use rlse_core::ir::json::JsonValue;
use rlse_core::prelude::*;
use rlse_serve::ServeOptions;
use rlse_ta::prelude::*;
use std::time::Instant;

/// The layers a request's time is split into, in report order.
pub const LAYERS: [&str; 9] = [
    "serve.sched",
    "ir.json",
    "ir",
    "ir.cache",
    "compiled",
    "sim",
    "sweep",
    "margins",
    "ta",
];

const JSON: usize = 1;
const IR: usize = 2;
const CACHE: usize = 3;
const COMPILED: usize = 4;
const SIM: usize = 5;
const SWEEP: usize = 6;
const MARGINS: usize = 7;
const TA: usize = 8;
/// Pseudo-layer for the replay's own per-request root span.
const ROOT: usize = usize::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The call's name (e.g. `ir.json.parse`).
    pub name: &'static str,
    /// Index into [`LAYERS`], or `usize::MAX` for the request root.
    pub layer: usize,
    /// Replayed request number.
    pub req: u32,
    /// Index of the parent span in the span list.
    pub parent: Option<u32>,
    /// Start, in nanoseconds since the replay began.
    pub start_ns: u64,
    /// End, in nanoseconds since the replay began.
    pub end_ns: u64,
    /// Self time: duration minus children.
    pub self_ns: u64,
    /// Allocations during the call.
    pub allocs: u64,
    /// Allocations during the call, minus children's.
    pub self_allocs: u64,
}

/// Per-layer and per-call totals over the replayed requests.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Requests replayed.
    pub requests: u64,
    /// Request-line bytes parsed.
    pub bytes: u64,
    /// Self nanoseconds per layer.
    pub layer_ns: [u64; 9],
    /// Self allocations per layer.
    pub layer_allocs: [u64; 9],
    /// Named call totals, in nanoseconds.
    pub parse_ns: u64,
    /// Response encoding.
    pub encode_ns: u64,
    /// `Ir::from_json`.
    pub decode_ns: u64,
    /// `Ir::to_circuit`.
    pub to_circuit_ns: u64,
    /// Canonical bytes plus content hash.
    pub hash_ns: u64,
    /// `translate_circuit`.
    pub translate_ns: u64,
    /// `check_with_telemetry`.
    pub mc_ns: u64,
    /// Cache lookups that hit / missed / evicted.
    pub hits: u64,
    /// Cache misses (each compiles once).
    pub misses: u64,
    /// LRU evictions.
    pub evictions: u64,
    /// `sim.dispatches` of `simulate` requests.
    pub dispatches: u64,
    /// Sweep trials run.
    pub trials: u64,
    /// Shmoo cells evaluated.
    pub cells: u64,
    /// Model-checker states explored.
    pub states: u64,
    /// Replayed responses that differ from the served bytes.
    pub mismatches: u64,
}

/// The replay state: a compiled cache mirroring the server's, the span
/// list, and running totals.
#[derive(Debug)]
pub struct Replayer {
    cache: CompiledCache,
    cache_tel: Telemetry,
    opts: ServeOptions,
    t0: Instant,
    /// Every span recorded, in start order.
    pub spans: Vec<Span>,
    /// Running totals.
    pub totals: Totals,
}

type Fields = Vec<(String, JsonValue)>;

struct Cx<'a> {
    spans: &'a mut Vec<Span>,
    t0: Instant,
    req: u32,
    root: u32,
}

impl Cx<'_> {
    /// Time `f` as a span under `parent` (the request root if `None`).
    fn span<T>(
        &mut self,
        name: &'static str,
        layer: usize,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let a0 = alloc::allocs();
        let s = self.t0.elapsed().as_nanos() as u64;
        let out = f();
        let e = self.t0.elapsed().as_nanos() as u64;
        let allocs = alloc::allocs() - a0;
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            layer,
            req: self.req,
            parent: Some(parent.unwrap_or(self.root)),
            start_ns: s,
            end_ns: e,
            self_ns: e - s,
            allocs,
            self_allocs: allocs,
        });
        (out, id)
    }

    fn dur(&self, id: u32) -> (u64, u64) {
        let s = &self.spans[id as usize];
        (s.end_ns - s.start_ns, s.allocs)
    }
}

fn hex(h: u64) -> JsonValue {
    JsonValue::Str(format!("{h:016x}"))
}

fn int(v: u64) -> JsonValue {
    JsonValue::Num(v as f64)
}

fn telemetry_json(tel: &Telemetry) -> JsonValue {
    JsonValue::Obj(
        tel.report()
            .counters
            .into_iter()
            .map(|(k, v)| (k, int(v)))
            .collect(),
    )
}

impl Replayer {
    /// A replayer whose cache has the server's capacity.
    pub fn new(opts: ServeOptions) -> Self {
        let cache_tel = Telemetry::new();
        let cache = match opts.max_cache_entries {
            0 => CompiledCache::new(),
            cap => CompiledCache::new().with_max_entries(cap),
        }
        .with_telemetry(&cache_tel);
        Replayer {
            cache,
            cache_tel,
            opts,
            t0: Instant::now(),
            spans: Vec::new(),
            totals: Totals::default(),
        }
    }

    /// Bring the mirror cache to the server's state after it answered
    /// `line` (untimed; used to replay the warm-up).
    pub fn warm(&self, line: &str) {
        if let Some(ir) = JsonValue::parse(line)
            .ok()
            .and_then(|req| req.get("ir").map(Ir::from_value))
            .and_then(Result::ok)
        {
            let _ = self.cache.get_or_compile(&ir);
        }
    }

    /// Replay one request line; `served` is the server's response to it.
    pub fn replay(&mut self, line: &str, served: &[u8]) {
        let req_no = self.totals.requests as u32;
        let root = self.spans.len() as u32;
        let a0 = alloc::allocs();
        let start = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: "request",
            layer: ROOT,
            req: req_no,
            parent: None,
            start_ns: start,
            end_ns: start,
            self_ns: 0,
            allocs: 0,
            self_allocs: 0,
        });
        let first_child = self.spans.len();
        let evictions0 = self.cache_tel.report().counter("ir_cache.evictions");
        let (hits0, misses0) = (self.cache.hits(), self.cache.misses());
        let mut cx = Cx {
            spans: &mut self.spans,
            t0: self.t0,
            req: req_no,
            root,
        };
        let (parsed, _) = cx.span("ir.json.parse", JSON, None, || JsonValue::parse(line));
        let response = match parsed {
            Ok(req) => {
                let kind = req.get("kind").and_then(JsonValue::as_str).unwrap_or("");
                let mut fields: Fields = Vec::new();
                if let Some(id) = req.get("id").and_then(JsonValue::as_str) {
                    fields.push(("id".into(), JsonValue::Str(id.into())));
                }
                fields.push(("kind".into(), JsonValue::Str(kind.into())));
                let body = match kind {
                    "simulate" => {
                        simulate(&mut cx, &self.cache, &self.opts, &req, &mut self.totals)
                    }
                    "sweep" => sweep(&mut cx, &self.cache, &self.opts, &req, &mut self.totals),
                    "shmoo" => shmoo(&mut cx, &self.opts, &req, &mut self.totals),
                    "model_check" => {
                        model_check(&mut cx, &self.cache, &self.opts, &req, &mut self.totals)
                    }
                    "ping" => Ok(Vec::new()),
                    other => Err(format!("unknown request kind '{other}'")),
                };
                match body {
                    Ok(rest) => {
                        fields.push(("ok".into(), JsonValue::Bool(true)));
                        fields.extend(rest);
                    }
                    Err(msg) => {
                        fields.push(("ok".into(), JsonValue::Bool(false)));
                        fields.push(("error".into(), JsonValue::Str(msg)));
                    }
                }
                let out = cx
                    .span("ir.json.encode", JSON, None, || {
                        JsonValue::Obj(fields).to_compact()
                    })
                    .0;
                // Freeing the parsed request is part of the handler's time.
                cx.span("ir.json.free", JSON, None, move || drop(req));
                out
            }
            Err(e) => format!("bad request JSON: {e}"),
        };
        let end = self.t0.elapsed().as_nanos() as u64;
        let total_allocs = alloc::allocs() - a0;

        // Fold the request's spans into the totals.
        let t = &mut self.totals;
        t.requests += 1;
        t.bytes += line.len() as u64;
        if response.as_bytes() != served {
            t.mismatches += 1;
        }
        // The replay's calls run one after another, never nested in time,
        // so the root's own time is what no call covers.
        let mut child_ns = 0;
        let mut child_allocs = 0;
        for s in &self.spans[first_child..] {
            child_ns += s.end_ns - s.start_ns;
            child_allocs += s.allocs;
            t.layer_ns[s.layer] += s.self_ns;
            t.layer_allocs[s.layer] += s.self_allocs;
            match s.name {
                "ir.json.parse" => t.parse_ns += s.self_ns,
                "ir.json.encode" => t.encode_ns += s.self_ns,
                "ir.decode" => t.decode_ns += s.self_ns,
                "ir.to_circuit" => t.to_circuit_ns += s.self_ns,
                "ir.hash" => t.hash_ns += s.self_ns,
                "ta.translate" => t.translate_ns += s.self_ns,
                "ta.mc" => t.mc_ns += s.self_ns,
                _ => {}
            }
        }
        let r = &mut self.spans[root as usize];
        r.end_ns = end;
        r.allocs = total_allocs;
        r.self_ns = (end - start).saturating_sub(child_ns);
        r.self_allocs = total_allocs.saturating_sub(child_allocs);
        t.hits += self.cache.hits() - hits0;
        t.misses += self.cache.misses() - misses0;
        t.evictions += self.cache_tel.report().counter("ir_cache.evictions") - evictions0;
    }

    /// The spans as Chrome `trace_event` JSON (complete events, µs).
    pub fn chrome_trace(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let cat = LAYERS.get(s.layer).copied().unwrap_or("request");
                let mut args = vec![
                    ("span".to_string(), int(i as u64)),
                    ("req".to_string(), int(s.req as u64)),
                    (
                        "self_us".to_string(),
                        JsonValue::Num(s.self_ns as f64 / 1e3),
                    ),
                    ("allocs".to_string(), int(s.self_allocs)),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), int(p as u64)));
                }
                JsonValue::Obj(vec![
                    ("name".into(), JsonValue::Str(s.name.into())),
                    ("cat".into(), JsonValue::Str(cat.into())),
                    ("ph".into(), JsonValue::Str("X".into())),
                    ("ts".into(), JsonValue::Num(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        JsonValue::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".into(), int(1)),
                    ("tid".into(), int(1)),
                    ("args".into(), JsonValue::Obj(args)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![("traceEvents".into(), JsonValue::Arr(events))]).to_compact()
    }
}

/// `load_ir`: decode the IR and resolve it through the cache.
fn load_ir(
    cx: &mut Cx,
    cache: &CompiledCache,
    req: &JsonValue,
) -> Result<(Ir, rlse_core::ir::CacheOutcome), String> {
    let ir_val = req.get("ir").ok_or("request needs an 'ir' object")?;
    let (ir, _) = cx.span("ir.decode", IR, None, || {
        Ir::from_json(&ir_val.to_compact())
    });
    let ir = ir.map_err(|e| e.to_string())?;
    // The lookup's own steps, timed standalone; they become its children.
    let (circuit, tc) = cx.span("ir.to_circuit", IR, None, || ir.to_circuit());
    let circuit = circuit.map_err(|e| e.to_string())?;
    let (_, th) = cx.span("ir.hash", IR, None, || ir.content_hash());
    let misses0 = cache.misses();
    let (outcome, tl) = cx.span("ir.cache.get_or_compile", CACHE, None, || {
        cache.get_or_compile(&ir)
    });
    let mut children = vec![tc, th];
    if cache.misses() > misses0 {
        let (_, tcomp) = cx.span("compiled.compile", COMPILED, None, || {
            CompiledCircuit::compile(&circuit)
        });
        children.push(tcomp);
    }
    drop(circuit);
    // Re-parent the standalone calls under the lookup and take them out of
    // its self time.
    let (mut sub_ns, mut sub_allocs) = (0, 0);
    for c in children {
        let (d, a) = cx.dur(c);
        sub_ns += d;
        sub_allocs += a;
        cx.spans[c as usize].parent = Some(tl);
    }
    let l = &mut cx.spans[tl as usize];
    l.self_ns = l.self_ns.saturating_sub(sub_ns);
    l.self_allocs = l.self_allocs.saturating_sub(sub_allocs);
    Ok((ir, outcome.map_err(|e| e.to_string())?))
}

fn variability(v: &JsonValue) -> Result<f64, String> {
    match v.get("kind").and_then(JsonValue::as_str) {
        Some("gaussian") => v
            .get("std")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| "gaussian variability needs 'std'".into()),
        _ => Err("the replay models gaussian variability only".into()),
    }
}

fn simulate(
    cx: &mut Cx,
    cache: &CompiledCache,
    opts: &ServeOptions,
    req: &JsonValue,
    t: &mut Totals,
) -> Result<Fields, String> {
    let (ir, outcome) = load_ir(cx, cache, req)?;
    let tel = Telemetry::new();
    let hash = outcome.hash;
    let requested = req.get("until").and_then(JsonValue::as_f64);
    let until = requested.unwrap_or(f64::INFINITY).min(opts.max_until);
    let std = req.get("variability").map(variability).transpose()?;
    let seed = req.get("seed").and_then(JsonValue::as_f64);
    let (events, _) = cx.span("sim.run", SIM, None, || {
        let mut sim = Simulation::with_compiled(outcome.circuit, outcome.compiled);
        sim.set_telemetry(&tel);
        if until.is_finite() {
            sim.set_until(Some(until));
        }
        if let Some(std) = std {
            sim.set_variability(Some(Variability::Gaussian { std }));
        }
        if let Some(seed) = seed {
            sim.set_seed(seed as u64);
        }
        sim.run()
    });
    let events = events.map_err(|e| e.to_string())?;
    let (fields, _) = cx.span("ir.json.encode", JSON, None, || {
        vec![
            ("hash".into(), hex(hash)),
            ("events".into(), events_json(&events)),
            ("telemetry".into(), telemetry_json(&tel)),
        ]
    });
    t.dispatches += tel.report().counter("sim.dispatches");
    cx.span("ir.free", IR, None, move || drop(ir));
    Ok(fields)
}

fn sweep(
    cx: &mut Cx,
    cache: &CompiledCache,
    opts: &ServeOptions,
    req: &JsonValue,
    t: &mut Totals,
) -> Result<Fields, String> {
    let (ir, outcome) = load_ir(cx, cache, req)?;
    let tel = Telemetry::new();
    let trials = req
        .get("trials")
        .and_then(JsonValue::as_f64)
        .map_or(100, |v| v as u64)
        .min(opts.max_trials);
    let seed = req
        .get("seed")
        .and_then(JsonValue::as_f64)
        .map_or(0, |v| v as u64);
    let until = req
        .get("until")
        .and_then(JsonValue::as_f64)
        .unwrap_or(f64::INFINITY)
        .min(opts.max_until);
    let std = req.get("variability").map(variability).transpose()?;
    let expected: Option<Vec<(String, Vec<f64>)>> =
        if req.get("check").and_then(JsonValue::as_bool) == Some(true) {
            Some(
                ir.queries
                    .iter()
                    .find_map(|q| match q {
                        IrQuery::OutputsOnlyAt { outputs } => Some(outputs.clone()),
                        _ => None,
                    })
                    .ok_or("check:true needs an outputs_only_at query in the IR")?,
            )
        } else {
            None
        };
    let (report, _) = cx.span("sweep.try_run", SWEEP, None, || {
        let mut sweep =
            Sweep::over(move || ir.to_circuit().expect("IR validated by the cache lookup"))
                .trials(trials)
                .master_seed(seed)
                .threads(opts.threads.max(1))
                .telemetry(&tel);
        if until.is_finite() {
            sweep = sweep.until(until);
        }
        if let Some(std) = std {
            sweep = sweep.variability(move || Variability::Gaussian { std });
        }
        if let Some(expected) = expected {
            sweep = sweep.check(move |ev| {
                expected
                    .iter()
                    .all(|(name, times)| ev.times(name) == times.as_slice())
            });
        }
        sweep.try_run()
    });
    let report = report.map_err(|e| e.to_string())?;
    t.trials += report.trials;
    let (fields, _) = cx.span("ir.json.encode", JSON, None, || {
        let outputs = report
            .outputs
            .iter()
            .map(|o| {
                JsonValue::Obj(vec![
                    ("name".into(), JsonValue::Str(o.name.clone())),
                    ("pulses".into(), int(o.pulses)),
                    ("mean".into(), JsonValue::Num(o.mean)),
                    ("std".into(), JsonValue::Num(o.std)),
                    ("min".into(), JsonValue::Num(o.min)),
                    ("max".into(), JsonValue::Num(o.max)),
                ])
            })
            .collect();
        vec![
            ("hash".into(), hex(outcome.hash)),
            ("trials".into(), int(report.trials)),
            ("ok_trials".into(), int(report.ok)),
            ("check_failures".into(), int(report.check_failures)),
            ("timing_violations".into(), int(report.timing_violations)),
            ("other_errors".into(), int(report.other_errors)),
            ("outputs".into(), JsonValue::Arr(outputs)),
            ("telemetry".into(), telemetry_json(&tel)),
        ]
    });
    Ok(fields)
}

fn shmoo(
    cx: &mut Cx,
    opts: &ServeOptions,
    req: &JsonValue,
    t: &mut Totals,
) -> Result<Fields, String> {
    let design = req
        .get("design")
        .and_then(JsonValue::as_str)
        .ok_or("shmoo needs a 'design' name")?;
    let axis = |key: &str| -> Result<Vec<f64>, String> {
        req.get(key)
            .and_then(JsonValue::as_arr)
            .and_then(|a| a.iter().map(JsonValue::as_f64).collect::<Option<Vec<_>>>())
            .filter(|v| !v.is_empty())
            .ok_or_else(|| format!("shmoo needs a non-empty '{key}' array"))
    };
    let sigmas = axis("sigmas")?;
    let scales = axis("scales")?;
    let mut so = rlse_designs::ShmooOptions {
        threads: opts.threads.max(1),
        ..Default::default()
    };
    if let Some(v) = req.get("trials").and_then(JsonValue::as_f64) {
        so.trials = v as u64;
    }
    so.trials = so.trials.min(opts.max_trials);
    if let Some(v) = req.get("seed").and_then(JsonValue::as_f64) {
        so.master_seed = v as u64;
    }
    if let Some(v) = req.get("tolerance").and_then(JsonValue::as_f64) {
        so.tolerance = v;
    }
    if let Some(v) = req.get("adaptive").and_then(JsonValue::as_bool) {
        so.adaptive = v;
    }
    let (map, _) = cx.span("margins.shmoo_map", MARGINS, None, || {
        rlse_designs::shmoo_map(design, &sigmas, &scales, &so)
    });
    t.cells += map.evaluated;
    let (fields, _) = cx.span("ir.json.encode", JSON, None, || {
        let rows = (0..sigmas.len())
            .map(|row| {
                let line: String = (0..scales.len())
                    .map(|col| match map.cell(row, col) {
                        rlse_designs::CellState::PassMeasured => 'P',
                        rlse_designs::CellState::PassInferred => 'p',
                        rlse_designs::CellState::FailMeasured => 'F',
                        rlse_designs::CellState::FailInferred => 'f',
                    })
                    .collect();
                JsonValue::Str(line)
            })
            .collect();
        let margins = (0..sigmas.len())
            .map(|row| {
                map.margin_scale(row)
                    .map_or(JsonValue::Null, JsonValue::Num)
            })
            .collect();
        vec![
            ("design".into(), JsonValue::Str(design.into())),
            ("trials".into(), int(map.trials)),
            ("evaluated".into(), int(map.evaluated)),
            ("map".into(), JsonValue::Arr(rows)),
            ("margin_scales".into(), JsonValue::Arr(margins)),
        ]
    });
    Ok(fields)
}

fn model_check(
    cx: &mut Cx,
    cache: &CompiledCache,
    opts: &ServeOptions,
    req: &JsonValue,
    t: &mut Totals,
) -> Result<Fields, String> {
    let (ir, outcome) = load_ir(cx, cache, req)?;
    let tel = Telemetry::new();
    let max_states = req
        .get("max_states")
        .and_then(JsonValue::as_usize)
        .unwrap_or(opts.max_states)
        .min(opts.max_states);
    let max_seconds = req
        .get("max_seconds")
        .and_then(JsonValue::as_f64)
        .unwrap_or(opts.max_seconds)
        .min(opts.max_seconds);
    let mc_opts = McOptions {
        max_states,
        max_seconds,
        threads: opts.threads.max(1),
    };
    let (tr, _) = cx.span("ta.translate", TA, None, || {
        translate_circuit(&outcome.circuit)
    });
    let tr = tr.map_err(|e| e.to_string())?;
    let queries = if ir.queries.is_empty() {
        vec![IrQuery::NoErrorState]
    } else {
        ir.queries.clone()
    };
    let mut results = Vec::new();
    for q in &queries {
        let (r, _) = cx.span("ta.mc", TA, None, || {
            rlse_ta::mc::check_with_telemetry(
                &tr.net,
                &McQuery::from_ir(&tr, q),
                mc_opts,
                Some(&tel),
            )
        });
        t.states += r.states() as u64;
        let label = match q {
            IrQuery::NoErrorState => "no_error_state",
            IrQuery::OutputsOnlyAt { .. } => "outputs_only_at",
        };
        results.push(JsonValue::Obj(vec![
            ("query".into(), JsonValue::Str(label.into())),
            (
                "holds".into(),
                r.holds.map_or(JsonValue::Null, JsonValue::Bool),
            ),
            ("states".into(), int(r.states() as u64)),
            ("peak_store".into(), int(r.peak_store() as u64)),
            (
                "violation".into(),
                r.violation.clone().map_or(JsonValue::Null, JsonValue::Str),
            ),
            (
                "diagnostic".into(),
                r.diagnostic.clone().map_or(JsonValue::Null, JsonValue::Str),
            ),
        ]));
    }
    let (fields, _) = cx.span("ir.json.encode", JSON, None, || {
        vec![
            ("hash".into(), hex(outcome.hash)),
            ("max_states".into(), int(mc_opts.max_states as u64)),
            ("results".into(), JsonValue::Arr(results)),
            ("telemetry".into(), telemetry_json(&tel)),
        ]
    });
    cx.span("ir.free", IR, None, move || drop((ir, tr)));
    Ok(fields)
}
