//! # rlse-serve — the JSON-lines batch serving front end
//!
//! A request file (or stdin) holds one JSON object per line; each line is
//! answered with exactly one JSON response line, in request order. Five
//! request kinds are served:
//!
//! * `simulate` — rebuild a netlist-IR circuit and run one simulation,
//!   returning the full events dictionary.
//! * `sweep` — a deterministically-seeded Monte-Carlo sweep over an IR
//!   circuit under a variability model.
//! * `shmoo` — a σ × time-scale margin map over one of the named
//!   evaluation designs.
//! * `model_check` — translate an IR circuit to timed automata and check
//!   its embedded queries (Query 1 / Query 2 of the paper).
//! * `ping` — a deterministic liveness probe: answers `"ok":true` without
//!   touching the compiled cache or any engine. Batch drivers use it to
//!   check the service end to end at near-zero cost.
//!
//! Circuits arrive as [`Ir`] documents. Every IR-bearing request goes
//! through one shared [`CompiledCache`], so repeating a request (or sharing
//! a circuit across requests) reuses the compiled dispatch tables; the
//! cache's hit/miss counters are reported out of band in the
//! [`ServeSummary`], never in a response line.
//!
//! ## Determinism
//!
//! Responses are byte-identical for byte-identical request lines: seeds are
//! explicit, worker thread counts never change results, and responses carry
//! only deterministic fields (no wall-clock times, no cache hit flags).
//! Each response embeds the request's own deterministic telemetry counters
//! under `"telemetry"`.
//!
//! ## Observability
//!
//! All wall-clock and operational data flows *out-of-band* (see [`obs`]):
//! a JSON-lines access log per request, phase-latency histograms exposed
//! as Prometheus text, per-tenant accounting in the [`ServeSummary`], and
//! Chrome traces for slow requests. Requests may carry an optional
//! `"tenant"` label (and the existing `"id"`); both are accounting-only —
//! neither enters the circuit content hash nor changes response bytes.
//!
//! ## Request fields and budgets
//!
//! Every request field is read through one rule, [`JsonValue::field`]: an
//! absent or `null` field takes its default, and a field of the wrong type
//! or range becomes the request's `"ok":false` line. Integers must be exact
//! and lie in [0, 2^53]; no request value is ever cast. README "Serving
//! simulations" tabulates every field.
//!
//! [`ServeOptions`] caps what one request may ask for: sweep/shmoo trials,
//! model-checker states and wall-clock seconds, and the simulation time
//! horizon. A request asking for more is clamped, and the access log's
//! `clamps` names the cap. A `shmoo` grid that would run more than
//! `max_trials` trials in all is refused, not clamped. Only the effective
//! `trials` (sweep, shmoo) and `max_states` (model_check) are echoed in the
//! response; a clamped `until` or `max_seconds` shows in the access log
//! alone.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

pub mod obs;
mod sched;

pub use obs::{
    prometheus_text_for, prometheus_text_for_with_sched, AccessRecord, ObserveOptions, Observer,
    SchedStats,
};

use rlse_core::ir::json::JsonValue;
use rlse_core::ir::{CompiledCache, Ir, IrQuery};
use rlse_core::prelude::*;
use rlse_ta::prelude::*;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::panic::AssertUnwindSafe;
use std::time::Instant;

/// The longest request line served, in bytes, not counting its newline:
/// 64 MiB. A longer line is discarded as it is read, never buffered whole,
/// and answered in its place with one `"ok":false` line (kind `error`,
/// counted in [`ServeSummary::errors`]).
pub const MAX_REQUEST_LINE_BYTES: usize = 64 << 20;

/// Per-request resource caps. A request may ask for less than any cap but
/// never gets more.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Largest trial count a `sweep` may run, and a `shmoo` per cell. A
    /// `shmoo` grid of `|sigmas| × |scales| × trials` above it is refused,
    /// so no request runs more trials than the largest sweep.
    pub max_trials: u64,
    /// Largest model-checker state budget a `model_check` request may use.
    pub max_states: usize,
    /// Largest model-checker wall-clock budget in seconds.
    pub max_seconds: f64,
    /// Largest simulation time horizon (`until`) in ps; `simulate` requests
    /// without an explicit horizon inherit it when finite.
    pub max_until: f64,
    /// Worker threads for the engines *inside* one `sweep` or `shmoo`
    /// request, the kinds that gain from them (0 = let the governor split
    /// the host between request workers; see [`Server::new`]). The model
    /// checker and the simulator run on one thread. Thread count never
    /// changes response bytes.
    pub threads: usize,
    /// Concurrent request workers (0 = available parallelism). Responses
    /// are emitted strictly in input order and are byte-identical at any
    /// worker count; see [`Server::serve_observed`].
    pub workers: usize,
    /// Compiled-cache entry cap (0 = unbounded). A long-lived server fed
    /// many distinct circuits would otherwise grow without limit; overflow
    /// evicts least-recently-used entries, which only affects cache hit/miss
    /// accounting (the summary's totals, the access log's `cache_hit`),
    /// never response bytes.
    pub max_cache_entries: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_trials: 100_000,
            max_states: 2_000_000,
            max_seconds: 600.0,
            max_until: f64::INFINITY,
            threads: 0,
            workers: 1,
            max_cache_entries: 1024,
        }
    }
}

/// Per-request-kind accounting within a [`ServeSummary`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindTally {
    /// Requests of this kind answered.
    pub requests: u64,
    /// Of those, requests answered with `"ok":false`.
    pub errors: u64,
}

/// Per-tenant accounting within a [`ServeSummary`]. Requests without a
/// `"tenant"` field aggregate under the empty-string tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantTally {
    /// Requests this tenant submitted.
    pub requests: u64,
    /// Of those, requests answered with `"ok":false`.
    pub errors: u64,
    /// Monte-Carlo trials executed for this tenant (sweep + shmoo).
    pub trials: u64,
    /// Model-checker states explored for this tenant.
    pub states: u64,
    /// Simulation events dispatched for this tenant.
    pub events: u64,
}

/// End-of-run accounting: requests served, compiled-cache traffic, and
/// per-kind / per-tenant breakdowns. It carries no wall-clock data
/// (latency lives in the [`obs`] histograms), and every field but the two
/// cache totals is a function of the request lines. The cache totals come
/// from the cache's own counters: single-flight keeps them at their serial
/// values at any worker count, except under eviction at more than one
/// worker, where which entries are resident depends on timing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Request lines answered (including error responses).
    pub requests: u64,
    /// Requests that produced an `"ok":false` response.
    pub errors: u64,
    /// Compiled-cache hits across all requests so far.
    pub cache_hits: u64,
    /// Compiled-cache misses (compilations) across all requests so far.
    pub cache_misses: u64,
    /// Per-request-kind tallies (`simulate`, `sweep`, …, plus `error` for
    /// lines with no recognizable kind), name-sorted.
    pub kinds: BTreeMap<String, KindTally>,
    /// Per-tenant tallies, tenant-name-sorted ("" = untenanted requests).
    pub tenants: BTreeMap<String, TenantTally>,
}

impl ServeSummary {
    /// Fold one served request into the tallies (cache traffic is patched
    /// in separately from the shared cache's counters).
    pub fn absorb(&mut self, rec: &AccessRecord) {
        self.requests += 1;
        if !rec.ok {
            self.errors += 1;
        }
        let k = self.kinds.entry(rec.kind.clone()).or_default();
        k.requests += 1;
        if !rec.ok {
            k.errors += 1;
        }
        let t = self
            .tenants
            .entry(rec.tenant.clone().unwrap_or_default())
            .or_default();
        t.requests += 1;
        if !rec.ok {
            t.errors += 1;
        }
        t.trials += rec.counter("sweep.trials") + rec.counter("shmoo.trials");
        t.states += rec.counter("mc.states");
        t.events += rec.counter("sim.dispatches");
    }

    /// One-line JSON rendering (the `--summary` output). Built through the
    /// shared JSON emitter, so hostile tenant names are escaped.
    pub fn to_json(&self) -> String {
        let kinds = JsonValue::Obj(
            self.kinds
                .iter()
                .map(|(kind, t)| {
                    (
                        kind.clone(),
                        JsonValue::Obj(vec![
                            ("requests".into(), int(t.requests)),
                            ("errors".into(), int(t.errors)),
                        ]),
                    )
                })
                .collect(),
        );
        let tenants = JsonValue::Obj(
            self.tenants
                .iter()
                .map(|(tenant, t)| {
                    (
                        tenant.clone(),
                        JsonValue::Obj(vec![
                            ("requests".into(), int(t.requests)),
                            ("errors".into(), int(t.errors)),
                            ("trials".into(), int(t.trials)),
                            ("states".into(), int(t.states)),
                            ("events".into(), int(t.events)),
                        ]),
                    )
                })
                .collect(),
        );
        JsonValue::Obj(vec![
            ("requests".into(), int(self.requests)),
            ("errors".into(), int(self.errors)),
            ("cache_hits".into(), int(self.cache_hits)),
            ("cache_misses".into(), int(self.cache_misses)),
            ("kinds".into(), kinds),
            ("tenants".into(), tenants),
        ])
        .to_compact()
    }
}

/// The batch front end: a shared compiled-artifact cache plus the budget
/// configuration, serving one request line at a time.
#[derive(Debug)]
pub struct Server {
    cache: CompiledCache,
    opts: ServeOptions,
    /// Resolved request-worker count (the governor ran at construction).
    workers: usize,
    /// Resolved engine thread count of one `sweep` or `shmoo` request
    /// (never 0 — two concurrent requests must not each claim every core).
    engine_threads: usize,
}

/// An internal request failure, rendered as an `"ok":false` response line.
struct RequestError(String);

/// A handler's answer: the response members after `"ok":true`, or the
/// request's error.
type Answer = Result<Vec<(String, JsonValue)>, RequestError>;

/// Per-request bookkeeping threaded through the handlers: the request's
/// telemetry handle plus everything the access log needs that a handler
/// learns along the way. None of it feeds back into response bytes except
/// the telemetry counters the handlers were already embedding.
struct ReqCtx {
    tel: Telemetry,
    hash: Option<u64>,
    cache_hit: Option<bool>,
    clamps: Vec<&'static str>,
    cache_us: u64,
}

impl ReqCtx {
    fn new() -> Self {
        ReqCtx {
            tel: Telemetry::new(),
            hash: None,
            cache_hit: None,
            clamps: Vec::new(),
            cache_us: 0,
        }
    }
}

/// Microseconds since `t`, saturating (a `u64` of them spans ~584,000
/// years).
fn elapsed_us(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// What an integer request field must be: [`JsonValue::as_usize`]'s exact
/// integers, the range a JSON number spells exactly.
const INTEGER: &str = "an integer in [0, 2^53]";

/// An integer request field ([`INTEGER`]) as a `u64`.
fn uint(v: &JsonValue) -> Option<u64> {
    v.as_usize().and_then(|n| u64::try_from(n).ok())
}

/// `requested`, or `default` when absent, but never more than `cap`. A
/// request clamped to the cap is logged as `name` in the access log's
/// `clamps`.
fn capped<T: PartialOrd>(
    requested: Option<T>,
    default: T,
    cap: T,
    name: &'static str,
    ctx: &mut ReqCtx,
) -> T {
    if requested.as_ref().is_some_and(|r| *r > cap) {
        ctx.clamps.push(name);
    }
    let value = requested.unwrap_or(default);
    if value > cap {
        cap
    } else {
        value
    }
}

/// The message a panic was raised with (`panic!` formats to a `String`,
/// a literal message is a `&str`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("panic")
}

impl<E: std::fmt::Display> From<E> for RequestError {
    fn from(e: E) -> Self {
        RequestError(e.to_string())
    }
}

fn int(v: u64) -> JsonValue {
    JsonValue::Num(v as f64)
}

fn num(v: f64) -> JsonValue {
    JsonValue::Num(v)
}

fn s(v: &str) -> JsonValue {
    JsonValue::Str(v.to_string())
}

/// The deterministic counters of a per-request telemetry report, as a JSON
/// object (spans and gauges carry wall-clock or memory detail and are
/// dropped).
fn telemetry_obj(report: &TelemetryReport) -> JsonValue {
    JsonValue::Obj(
        report
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), int(*v)))
            .collect(),
    )
}

fn events_obj(events: &Events) -> JsonValue {
    JsonValue::Obj(
        events
            .names()
            .map(|n| {
                let times = events.times(n).iter().map(|&t| num(t)).collect();
                (n.to_string(), JsonValue::Arr(times))
            })
            .collect(),
    )
}

/// A request's parsed variability model. [`Variability`] itself is not
/// `Clone` (custom models box stateful closures), so the spec is kept in
/// this cloneable form and instantiated once per consumer.
#[derive(Debug, Clone)]
enum VarSpec {
    Gaussian(f64),
    PerCellType(std::collections::HashMap<String, f64>),
}

impl VarSpec {
    fn make(&self) -> Variability {
        match self {
            VarSpec::Gaussian(std) => Variability::Gaussian { std: *std },
            VarSpec::PerCellType(map) => Variability::PerCellType(map.clone()),
        }
    }
}

/// The largest accepted jitter σ in ps — three orders of magnitude past
/// any delay in the cell library, so no physical study is refused.
const MAX_SIGMA: f64 = 1e6;

/// A jitter σ must lie in `[0, MAX_SIGMA]` ps: a negative σ would silently
/// act as its absolute value, and a non-finite or huge one drives every
/// pulse time out of range (and the statistics to `null`).
fn check_sigma(sigma: f64, what: &str) -> Result<f64, RequestError> {
    if (0.0..=MAX_SIGMA).contains(&sigma) {
        Ok(sigma)
    } else {
        Err(RequestError(format!(
            "{what} must lie in [0, {MAX_SIGMA}] ps, got {sigma:?}"
        )))
    }
}

/// The optional `"variability"` field of a request:
/// `{"kind":"gaussian","std":S}` or
/// `{"kind":"per_cell_type","sigmas":{"JTL":S,…}}`, every σ checked by
/// [`check_sigma`].
fn parse_variability(req: &JsonValue) -> Result<Option<VarSpec>, RequestError> {
    let Some(v) = req.field("variability", "an object", |v| v.as_obj().and(Some(v)))? else {
        return Ok(None);
    };
    let kind = v
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| RequestError("variability needs a 'kind'".into()))?;
    match kind {
        "gaussian" => {
            let std = v
                .get("std")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| RequestError("gaussian variability needs 'std'".into()))?;
            Ok(Some(VarSpec::Gaussian(check_sigma(std, "gaussian 'std'")?)))
        }
        "per_cell_type" => {
            let sigmas = v
                .get("sigmas")
                .and_then(JsonValue::as_obj)
                .ok_or_else(|| RequestError("per_cell_type needs a 'sigmas' object".into()))?;
            let mut map = std::collections::HashMap::new();
            for (cell, sigma) in sigmas {
                let sigma = sigma.as_f64().ok_or_else(|| {
                    RequestError(format!("sigma for '{cell}' is not a number"))
                })?;
                map.insert(
                    cell.clone(),
                    check_sigma(sigma, &format!("sigma for '{cell}'"))?,
                );
            }
            Ok(Some(VarSpec::PerCellType(map)))
        }
        other => Err(RequestError(format!("unknown variability kind '{other}'"))),
    }
}

fn hex_hash(hash: u64) -> JsonValue {
    s(&format!("{hash:016x}"))
}

impl Server {
    /// A server with the given budgets and an empty compiled cache.
    ///
    /// The **thread-budget governor** runs here, once, so concurrent
    /// requests can't each claim the whole host: with `H` hardware threads,
    /// `workers = 0` resolves to `H` request workers, and `threads = 0`
    /// resolves to `max(1, H / workers)` engine threads per `sweep` or
    /// `shmoo` request — `workers × engine_threads ≈ H`. Only those two
    /// kinds get engine threads: they run faster on them, while the model
    /// checker and the simulator are sequential. Explicit non-zero values
    /// are honored verbatim (deliberate oversubscription stays possible).
    /// The defaults (`workers = 1`, `threads = 0`) serve one request at a
    /// time, each sweep or shmoo using every core.
    pub fn new(opts: ServeOptions) -> Self {
        let cache = match opts.max_cache_entries {
            0 => CompiledCache::new(),
            cap => CompiledCache::new().with_max_entries(cap),
        };
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = if opts.workers == 0 { host } else { opts.workers };
        let engine_threads = if opts.threads == 0 {
            (host / workers).max(1)
        } else {
            opts.threads
        };
        Server {
            cache,
            opts,
            workers,
            engine_threads,
        }
    }

    /// The shared compiled-artifact cache (for tests and embedding).
    pub fn cache(&self) -> &CompiledCache {
        &self.cache
    }

    /// Resolved request-worker count (after the governor's 0 → available
    /// parallelism substitution).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Resolved engine thread count of one `sweep` or `shmoo` request
    /// (after the governor's split; never 0).
    pub fn engine_threads(&self) -> usize {
        self.engine_threads
    }

    /// Answer one request line with one compact JSON response line (no
    /// trailing newline). Parse and dispatch failures become
    /// `"ok":false` responses, never panics; so does a panic inside a
    /// handler, as `"error":"internal: <message>"`.
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_recorded(line).0
    }

    /// [`handle_line`](Self::handle_line) plus the request's
    /// [`AccessRecord`] (with `seq` left at 0 for the caller to assign)
    /// and its telemetry handle, whose spans back slow-request traces.
    /// The response string is byte-identical to `handle_line`'s.
    pub fn handle_recorded(&self, line: &str) -> (String, AccessRecord, Telemetry) {
        let t_total = Instant::now();
        let mut ctx = ReqCtx::new();
        let t_parse = Instant::now();
        let parsed = JsonValue::parse_with_span(line, "ir");
        let parse_us = elapsed_us(t_parse);
        let mut tenant = None;
        let t_run = Instant::now();
        let (id, kind, body) = match parsed {
            Ok((req, ir_span)) => {
                let text = |key: &str| req.field(key, "a string", JsonValue::as_str);
                match text("id").and_then(|id| Ok((id, text("tenant")?, text("kind")?))) {
                    Err(e) => (None, None, Err(RequestError(e))),
                    Ok((id, t, kind)) => {
                        tenant = t.map(String::from);
                        let ir_raw = ir_span.map(|span| &line[span]);
                        let (kind, body) = self.dispatch(kind, &req, ir_raw, &mut ctx);
                        (id.map(String::from), kind, body)
                    }
                }
            }
            Err(e) => (None, None, Err(RequestError(format!("bad request JSON: {e}")))),
        };
        let run_us = elapsed_us(t_run).saturating_sub(ctx.cache_us);
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        if let Some(id) = &id {
            fields.push(("id".into(), s(id)));
        }
        fields.push((
            "kind".into(),
            s(kind.as_deref().unwrap_or("error")),
        ));
        let error = match body {
            Ok(rest) => {
                fields.push(("ok".into(), JsonValue::Bool(true)));
                fields.extend(rest);
                None
            }
            Err(RequestError(msg)) => {
                fields.push(("ok".into(), JsonValue::Bool(false)));
                fields.push(("error".into(), s(&msg)));
                Some(msg)
            }
        };
        let t_encode = Instant::now();
        let response = JsonValue::Obj(fields).to_compact();
        let encode_us = elapsed_us(t_encode);
        let rec = AccessRecord {
            seq: 0,
            tenant,
            id,
            kind: kind.unwrap_or_else(|| "error".into()),
            ok: error.is_none(),
            error,
            hash: ctx.hash,
            cache_hit: ctx.cache_hit,
            clamps: ctx.clamps,
            counters: ctx.tel.report().counters,
            parse_us,
            cache_us: ctx.cache_us,
            run_us,
            encode_us,
            total_us: elapsed_us(t_total),
            queue_us: 0,
            reorder_us: 0,
        };
        (response, rec, ctx.tel)
    }

    /// Serve every non-blank line of `input`, writing one response line per
    /// request to `output` in request order, with out-of-band
    /// observability: each request is appended to the observer's access
    /// log and latency histograms, slow requests dump Chrome traces, and
    /// the metrics file is rewritten at the configured stride, on writer
    /// idle, and at end of batch. Response bytes never depend on the
    /// observer: pass [`Observer::disabled`] to serve without one.
    ///
    /// At one [worker](Self::workers) the calling thread handles each
    /// request itself; at more, concurrent request workers run behind an
    /// in-order reorder buffer (internals in DESIGN.md §16). Responses and
    /// access records are emitted strictly in input order, byte-identical
    /// at any worker count. A line longer than [`MAX_REQUEST_LINE_BYTES`]
    /// is answered with an `"ok":false` line without being buffered.
    ///
    /// # Errors
    ///
    /// I/O errors from `input`/`output` or from the observer's sinks;
    /// request failures are answered in-band.
    pub fn serve_observed(
        &self,
        input: impl BufRead + Send,
        output: impl Write,
        observer: &mut Observer,
    ) -> std::io::Result<ServeSummary> {
        sched::serve_pipeline(self, input, output, observer, self.workers)
    }

    /// Run the handler for request `kind` on the parsed request, whose
    /// `"ir"` member (if any) reads `ir_raw` in the request line. A panic
    /// anywhere in a handler becomes this request's error line, and the
    /// worker serves on. Returns the kind to report (`None` for a missing
    /// or unknown kind) and the handler's answer.
    fn dispatch(
        &self,
        kind: Option<&str>,
        req: &JsonValue,
        ir_raw: Option<&str>,
        ctx: &mut ReqCtx,
    ) -> (Option<String>, Answer) {
        let Some(kind) = kind else {
            return (None, Err(RequestError("request needs a 'kind'".into())));
        };
        let handled = std::panic::catch_unwind(AssertUnwindSafe(|| {
            Some(match kind {
                "simulate" => self.simulate(req, ir_raw, ctx),
                "sweep" => self.sweep(req, ctx),
                "shmoo" => self.shmoo(req, ctx),
                "model_check" => self.model_check(req, ctx),
                "ping" => Ok(Vec::new()),
                // The fault the panic-isolation tests inject.
                #[cfg(test)]
                "test_panic" => panic!("injected test panic"),
                _ => return None,
            })
        }));
        match handled {
            Ok(Some(body)) => (Some(kind.to_string()), body),
            Ok(None) => (
                None,
                Err(RequestError(format!("unknown request kind '{kind}'"))),
            ),
            Err(panic) => {
                let message = format!("internal: {}", panic_message(panic.as_ref()));
                (Some(kind.to_string()), Err(RequestError(message)))
            }
        }
    }

    /// Decode the request's already-parsed `"ir"` field and resolve it
    /// through the cache, timing the lookup/compile and recording the hash
    /// and hit/miss for the access log. With the field's raw text
    /// `spelling`, a hit also admits that text to the cache's spelling
    /// index.
    fn load_ir(
        &self,
        req: &JsonValue,
        spelling: Option<&str>,
        ctx: &mut ReqCtx,
    ) -> Result<(Ir, rlse_core::ir::CacheOutcome), RequestError> {
        let ir_val = req
            .get("ir")
            .ok_or_else(|| RequestError("request needs an 'ir' object".into()))?;
        let ir = Ir::from_value(ir_val)?;
        let t0 = Instant::now();
        let outcome = match spelling {
            Some(raw) => self.cache.get_or_compile_spelled(&ir, raw.as_bytes()),
            None => self.cache.get_or_compile(&ir),
        };
        ctx.cache_us += elapsed_us(t0);
        let outcome = outcome?;
        ctx.hash = Some(outcome.hash);
        ctx.cache_hit = Some(outcome.hit);
        Ok((ir, outcome))
    }

    /// A byte-identical repeat of an `ir` seen on a cache hit before is
    /// found by its raw text and runs straight from the cached tables;
    /// anything else takes the decode → canonical lookup path.
    fn simulate(&self, req: &JsonValue, ir_raw: Option<&str>, ctx: &mut ReqCtx) -> Answer {
        let t0 = Instant::now();
        let spelled = ir_raw.and_then(|raw| self.cache.get_spelled(raw.as_bytes()));
        ctx.cache_us += elapsed_us(t0);
        let (hash, mut sim) = match spelled {
            Some((hash, compiled)) => {
                ctx.hash = Some(hash);
                ctx.cache_hit = Some(true);
                (hash, Simulation::from_compiled(compiled))
            }
            None => {
                let (_ir, outcome) = self.load_ir(req, ir_raw, ctx)?;
                let sim = Simulation::with_compiled(outcome.circuit, outcome.compiled);
                (outcome.hash, sim)
            }
        };
        sim.set_telemetry(&ctx.tel);
        let requested = req.field("until", "a number", JsonValue::as_f64)?;
        let until = capped(requested, f64::INFINITY, self.opts.max_until, "until", ctx);
        if until.is_finite() {
            sim.set_until(Some(until));
        }
        if let Some(spec) = parse_variability(req)? {
            sim.set_variability(Some(spec.make()));
        }
        if let Some(seed) = req.field("seed", INTEGER, uint)? {
            sim.set_seed(seed);
        }
        let events = sim.run()?;
        Ok(vec![
            ("hash".into(), hex_hash(hash)),
            ("events".into(), events_obj(&events)),
            ("telemetry".into(), telemetry_obj(&ctx.tel.report())),
        ])
    }

    fn sweep(&self, req: &JsonValue, ctx: &mut ReqCtx) -> Answer {
        let (ir, outcome) = self.load_ir(req, None, ctx)?;
        let requested = req.field("trials", INTEGER, uint)?;
        let trials = capped(requested, 100, self.opts.max_trials, "trials", ctx);
        let seed = req.field("seed", INTEGER, uint)?.unwrap_or(0);
        let requested = req.field("until", "a number", JsonValue::as_f64)?;
        let until = capped(requested, f64::INFINITY, self.opts.max_until, "until", ctx);
        let variability = parse_variability(req)?;
        // `check:true` turns the IR's expected-output query into the
        // per-trial verdict (a trial passes when every listed output fires
        // at exactly the listed times).
        let expected: Option<Vec<(String, Vec<f64>)>> =
            if req.field("check", "a boolean", JsonValue::as_bool)? == Some(true) {
                let found = ir.queries.iter().find_map(|q| match q {
                    IrQuery::OutputsOnlyAt { outputs } => Some(outputs.clone()),
                    _ => None,
                });
                Some(found.ok_or_else(|| {
                    RequestError("check:true needs an outputs_only_at query in the IR".into())
                })?)
            } else {
                None
            };

        let mut sweep = Sweep::over(move || {
            ir.to_circuit().expect("IR validated by the cache lookup")
        })
        .trials(trials)
        .master_seed(seed)
        .threads(self.engine_threads)
        .telemetry(&ctx.tel);
        if until.is_finite() {
            sweep = sweep.until(until);
        }
        if let Some(spec) = variability {
            sweep = sweep.variability(move || spec.make());
        }
        if let Some(expected) = expected {
            sweep = sweep.check(move |ev| {
                expected
                    .iter()
                    .all(|(name, times)| ev.times(name) == times.as_slice())
            });
        }
        let report = sweep.try_run()?;
        let outputs = report
            .outputs
            .iter()
            .map(|o| {
                JsonValue::Obj(vec![
                    ("name".into(), s(&o.name)),
                    ("pulses".into(), int(o.pulses)),
                    ("mean".into(), num(o.mean)),
                    ("std".into(), num(o.std)),
                    ("min".into(), num(o.min)),
                    ("max".into(), num(o.max)),
                ])
            })
            .collect();
        Ok(vec![
            ("hash".into(), hex_hash(outcome.hash)),
            ("trials".into(), int(report.trials)),
            ("ok_trials".into(), int(report.ok)),
            ("check_failures".into(), int(report.check_failures)),
            ("timing_violations".into(), int(report.timing_violations)),
            ("other_errors".into(), int(report.other_errors)),
            ("outputs".into(), JsonValue::Arr(outputs)),
            ("telemetry".into(), telemetry_obj(&ctx.tel.report())),
        ])
    }

    fn shmoo(&self, req: &JsonValue, ctx: &mut ReqCtx) -> Answer {
        let design = req
            .field("design", "a string", JsonValue::as_str)?
            .ok_or_else(|| RequestError("shmoo needs a 'design' name".into()))?;
        if !rlse_designs::shmoo_design_names().contains(&design) {
            return Err(RequestError(format!(
                "unknown shmoo design '{design}' (expected one of {:?})",
                rlse_designs::shmoo_design_names()
            )));
        }
        let axis = |key: &str| -> Result<Vec<f64>, RequestError> {
            req.get(key)
                .and_then(JsonValue::as_arr)
                .map(|a| a.iter().map(|v| v.as_f64()).collect::<Option<Vec<_>>>())
                .and_then(|v| v.filter(|v| !v.is_empty()))
                .ok_or_else(|| RequestError(format!("shmoo needs a non-empty '{key}' array")))
        };
        let sigmas = axis("sigmas")?
            .into_iter()
            .map(|sigma| check_sigma(sigma, "shmoo 'sigmas' entries"))
            .collect::<Result<Vec<_>, _>>()?;
        let scales = axis("scales")?;
        // A negative, non-finite or overflowing scale would give the bench
        // a stimulus time the circuit builder rejects with a panic.
        let max_scale = rlse_designs::MAX_SHMOO_SCALE;
        if let Some(bad) = scales.iter().find(|s| !(0.0..=max_scale).contains(*s)) {
            return Err(RequestError(format!(
                "shmoo 'scales' entries must lie in [0, {max_scale}], got {bad:?}"
            )));
        }
        let mut opts = rlse_designs::ShmooOptions {
            threads: self.engine_threads,
            ..Default::default()
        };
        let trials = req.field("trials", INTEGER, uint)?;
        // Zero trials would measure nothing, yet every cell reads as a
        // measured pass.
        if trials == Some(0) {
            return Err(RequestError(
                "shmoo 'trials' must be at least 1, got 0.0".into(),
            ));
        }
        opts.trials = capped(trials, opts.trials, self.opts.max_trials, "trials", ctx);
        // `max_trials` caps one cell; the grid as a whole may run no more
        // trials than the largest sweep.
        let grid = (sigmas.len() as u64)
            .saturating_mul(scales.len() as u64)
            .saturating_mul(opts.trials);
        if grid > self.opts.max_trials {
            return Err(RequestError(format!(
                "shmoo grid of {} sigmas x {} scales x {} trials = {grid} trials \
                 exceeds the {}-trial cap",
                sigmas.len(),
                scales.len(),
                opts.trials,
                self.opts.max_trials
            )));
        }
        if let Some(seed) = req.field("seed", INTEGER, uint)? {
            opts.master_seed = seed;
        }
        if let Some(tol) = req.field("tolerance", "a number", JsonValue::as_f64)? {
            // A cell passes when its failure rate is at most the tolerance,
            // so one below 0 fails every cell and one above 1 passes them.
            if !(0.0..=1.0).contains(&tol) {
                return Err(RequestError(format!(
                    "shmoo 'tolerance' must lie in [0, 1], got {tol:?}"
                )));
            }
            opts.tolerance = tol;
        }
        if let Some(adaptive) = req.field("adaptive", "a boolean", JsonValue::as_bool)? {
            opts.adaptive = adaptive;
        }
        let map = rlse_designs::shmoo_map(design, &sigmas, &scales, &opts);
        // The shmoo engine runs without a telemetry handle; account its
        // trial volume here so per-tenant trial totals cover it. The shmoo
        // response embeds no telemetry, so this never reaches a response.
        ctx.tel
            .add("shmoo.trials", map.evaluated.saturating_mul(map.trials));
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
                s(&line)
            })
            .collect();
        let margins = (0..sigmas.len())
            .map(|row| map.margin_scale(row).map_or(JsonValue::Null, num))
            .collect();
        Ok(vec![
            ("design".into(), s(design)),
            ("trials".into(), int(map.trials)),
            ("evaluated".into(), int(map.evaluated)),
            ("map".into(), JsonValue::Arr(rows)),
            ("margin_scales".into(), JsonValue::Arr(margins)),
        ])
    }

    fn model_check(&self, req: &JsonValue, ctx: &mut ReqCtx) -> Answer {
        let (ir, outcome) = self.load_ir(req, None, ctx)?;
        let cap = self.opts.max_states;
        let requested = req.field("max_states", INTEGER, JsonValue::as_usize)?;
        let max_states = capped(requested, cap, cap, "max_states", ctx);
        let cap = self.opts.max_seconds;
        let requested = req.field("max_seconds", "a non-negative number", |v| {
            v.as_f64().filter(|s| *s >= 0.0)
        })?;
        let max_seconds = capped(requested, cap, cap, "max_seconds", ctx);
        let mc_opts = McOptions {
            max_states,
            max_seconds,
            ..McOptions::default()
        };
        let tr = translate_circuit(&outcome.circuit)?;
        // One set of checker tables serves every query of the request.
        let checker = Checker::new(&tr.net);
        let queries: Vec<IrQuery> = if ir.queries.is_empty() {
            vec![IrQuery::NoErrorState]
        } else {
            ir.queries.clone()
        };
        let results = queries
            .iter()
            .map(|q| {
                let label = match q {
                    IrQuery::NoErrorState => "no_error_state",
                    IrQuery::OutputsOnlyAt { .. } => "outputs_only_at",
                };
                let r = checker.check(&McQuery::from_ir(&tr, q), mc_opts, Some(&ctx.tel));
                JsonValue::Obj(vec![
                    ("query".into(), s(label)),
                    (
                        "holds".into(),
                        r.holds.map_or(JsonValue::Null, JsonValue::Bool),
                    ),
                    ("states".into(), int(r.states() as u64)),
                    ("peak_store".into(), int(r.peak_store() as u64)),
                    (
                        "violation".into(),
                        r.violation.as_deref().map_or(JsonValue::Null, s),
                    ),
                    (
                        "diagnostic".into(),
                        r.diagnostic.as_deref().map_or(JsonValue::Null, s),
                    ),
                ])
            })
            .collect();
        Ok(vec![
            ("hash".into(), hex_hash(outcome.hash)),
            ("max_states".into(), int(mc_opts.max_states as u64)),
            ("results".into(), JsonValue::Arr(results)),
            ("telemetry".into(), telemetry_obj(&ctx.tel.report())),
        ])
    }
}

/// The fixture request corpus: one request of each kind over the `min_max`
/// design, as JSON lines, with tenant labels exercising the per-tenant
/// accounting (and one untenanted request for the "" row). The smoke tests
/// and the CI serve step pipe this file through the server twice and
/// require byte-identical responses with cache hits on the second pass.
pub fn fixture_requests() -> String {
    let ir = rlse_designs::design_ir("min_max", 1.0);
    let ir_line = |ir: &Ir| ir.to_value().to_compact();
    let with_outputs = rlse_designs::design_ir_with_expected_outputs("min_max", 1.0);
    let mut out = String::new();
    out.push_str("{\"id\":\"ping-1\",\"kind\":\"ping\",\"tenant\":\"probe\"}\n");
    out.push_str(&format!(
        "{{\"id\":\"sim-1\",\"kind\":\"simulate\",\"tenant\":\"acme\",\"ir\":{}}}\n",
        ir_line(&ir)
    ));
    out.push_str(&format!(
        "{{\"id\":\"sweep-1\",\"kind\":\"sweep\",\"tenant\":\"acme\",\"trials\":40,\"seed\":7,\
         \"variability\":{{\"kind\":\"gaussian\",\"std\":0.2}},\"ir\":{}}}\n",
        ir_line(&ir)
    ));
    out.push_str(&format!(
        "{{\"id\":\"sweep-2\",\"kind\":\"sweep\",\"tenant\":\"beta\",\"trials\":20,\"seed\":3,\
         \"check\":true,\"ir\":{}}}\n",
        ir_line(&with_outputs)
    ));
    out.push_str(
        "{\"id\":\"shmoo-1\",\"kind\":\"shmoo\",\"design\":\"min_max\",\
         \"sigmas\":[0.0,0.4],\"scales\":[0.6,1.0,1.4],\"trials\":24,\"seed\":11}\n",
    );
    out.push_str(&format!(
        "{{\"id\":\"mc-1\",\"kind\":\"model_check\",\"tenant\":\"beta\",\
         \"max_states\":200000,\"ir\":{}}}\n",
        ir_line(&ir)
    ));
    out
}

/// A deterministically generated mixed corpus for the differential
/// concurrency tests and the `serve_throughput` benchmark: `n` JSON request
/// lines cycling through every request kind, with only four distinct IR
/// documents behind all the circuit-bearing lines so duplicate content
/// hashes interleave — concurrent workers pile onto the same cache entries
/// and exercise single-flight compilation. Budgets are small enough that a
/// 200-line corpus serves in seconds on one core.
pub fn generated_requests(n: usize) -> String {
    let irs: Vec<String> = [("min_max", 1.0), ("min_max", 2.0), ("race_tree", 1.0)]
        .iter()
        .map(|(name, scale)| rlse_designs::design_ir(name, *scale).to_value().to_compact())
        .collect();
    let checked = rlse_designs::design_ir_with_expected_outputs("min_max", 1.0)
        .to_value()
        .to_compact();
    let tenants = ["acme", "beta", ""];
    let mut out = String::new();
    for i in 0..n {
        let tenant = tenants[i % tenants.len()];
        let tenant_field = if tenant.is_empty() {
            String::new()
        } else {
            format!("\"tenant\":\"{tenant}\",")
        };
        let ir = &irs[i % irs.len()];
        let line = match i % 8 {
            0 | 1 => {
                format!("{{\"id\":\"sim-{i}\",\"kind\":\"simulate\",{tenant_field}\"ir\":{ir}}}")
            }
            2 => format!(
                "{{\"id\":\"sweep-{i}\",\"kind\":\"sweep\",{tenant_field}\"trials\":10,\
                 \"seed\":{i},\"variability\":{{\"kind\":\"gaussian\",\"std\":0.2}},\"ir\":{ir}}}"
            ),
            3 => format!(
                "{{\"id\":\"sweep-{i}\",\"kind\":\"sweep\",{tenant_field}\"trials\":8,\
                 \"seed\":{i},\"check\":true,\"ir\":{checked}}}"
            ),
            4 => format!(
                "{{\"id\":\"shmoo-{i}\",\"kind\":\"shmoo\",{tenant_field}\"design\":\"min_max\",\
                 \"sigmas\":[0.0,0.4],\"scales\":[0.8,1.2],\"trials\":8,\"seed\":{i}}}"
            ),
            5 => format!(
                "{{\"id\":\"mc-{i}\",\"kind\":\"model_check\",{tenant_field}\
                 \"max_states\":50000,\"ir\":{ir}}}"
            ),
            6 => format!("{{\"id\":\"ping-{i}\",\"kind\":\"ping\",{tenant_field}\"probe\":true}}"),
            _ => format!(
                "{{\"id\":\"sim-{i}\",\"kind\":\"simulate\",{tenant_field}\"until\":5000,\
                 \"ir\":{ir}}}"
            ),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_kinds_and_bad_json_become_error_lines() {
        let server = Server::new(ServeOptions::default());
        let r = server.handle_line("{\"kind\":\"frobnicate\"}");
        assert!(r.contains("\"ok\":false"), "{r}");
        assert!(r.contains("unknown request kind"), "{r}");
        let r = server.handle_line("not json");
        assert!(r.contains("bad request JSON"), "{r}");
        let r = server.handle_line("{\"id\":\"x\",\"kind\":\"simulate\"}");
        assert!(r.starts_with("{\"id\":\"x\","), "{r}");
        assert!(r.contains("needs an 'ir' object"), "{r}");
    }

    #[test]
    fn hostile_request_lines_never_panic() {
        // REVIEW regressions: both lines previously killed the whole batch
        // (an out-of-bounds machine index panicked in `canonical_bytes`; a
        // deeply nested line overflowed the parser's stack).
        let server = Server::new(ServeOptions::default());
        let dangling = "{\"kind\":\"simulate\",\"ir\":{\"version\":1,\"name\":\"\",\
             \"machines\":[],\"nodes\":[{\"kind\":\"cell\",\"machine\":0}],\
             \"wires\":[],\"queries\":[]}}";
        let r = server.handle_line(dangling);
        assert!(r.contains("\"ok\":false"), "{r}");
        assert!(r.contains("machine"), "{r}");

        let bomb = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
        let r = server.handle_line(&bomb);
        assert!(r.contains("\"ok\":false"), "{r}");
        assert!(r.contains("bad request JSON"), "{r}");

        // A shmoo scale that is negative, non-finite or overflows a scaled
        // stimulus time panicked in the circuit builder and took the
        // worker down with it.
        for scales in ["[-1.0]", "[1e307]", "[1.0,-0.5]", "[1001]"] {
            let r = server.handle_line(&format!(
                "{{\"kind\":\"shmoo\",\"design\":\"min_max\",\"sigmas\":[1.0],\
                 \"scales\":{scales}}}"
            ));
            assert!(r.contains("\"ok\":false"), "{scales}: {r}");
            assert!(r.contains("scales"), "{scales}: {r}");
        }
        // A 400 × 400 grid at one trial a cell ran 160,000 cell sweeps (2.4 s)
        // under a per-cell cap; the grid itself is capped now.
        let axis = format!("[{}]", vec!["0.5"; 400].join(","));
        let r = server.handle_line(&format!(
            "{{\"kind\":\"shmoo\",\"design\":\"min_max\",\"sigmas\":{axis},\
             \"scales\":{axis},\"trials\":1,\"adaptive\":false}}"
        ));
        assert!(r.contains("\"ok\":false"), "{r}");
        assert!(
            r.contains(
                "shmoo grid of 400 sigmas x 400 scales x 1 trials = 160000 trials \
                 exceeds the 100000-trial cap"
            ),
            "{r}"
        );
        // Every bench builds across the whole accepted range, including a
        // race tree stretched past its feature's zero point.
        for design in rlse_designs::shmoo_design_names() {
            let r = server.handle_line(&format!(
                "{{\"kind\":\"shmoo\",\"design\":\"{design}\",\"sigmas\":[0.0],\
                 \"scales\":[0.0,3.0,1000.0],\"trials\":1}}"
            ));
            assert!(r.contains("\"ok\":true"), "{design}: {r}");
        }

        // A negative or huge jitter σ ran the sweep anyway:
        // σ = −1 answered ok:true with jittered output, σ = 1e308 answered
        // "mean":null with pulse times near 1e305 ps.
        let ir = rlse_designs::design_ir("min_max", 1.0);
        let ir_json = ir.to_value().to_compact();
        for (variability, error) in [
            (
                "{\"kind\":\"gaussian\",\"std\":-1}",
                "gaussian 'std' must lie in [0, 1000000] ps, got -1.0",
            ),
            (
                "{\"kind\":\"gaussian\",\"std\":1e308}",
                "gaussian 'std' must lie in [0, 1000000] ps, got 1e308",
            ),
            // Non-finite numbers never get past the JSON parser.
            (
                "{\"kind\":\"gaussian\",\"std\":1e999}",
                "invalid number '1e999'",
            ),
            (
                "{\"kind\":\"per_cell_type\",\"sigmas\":{\"C\":0.2,\"JTL\":-0.5}}",
                "sigma for 'JTL' must lie in [0, 1000000] ps, got -0.5",
            ),
            (
                "{\"kind\":\"per_cell_type\",\"sigmas\":{\"C\":1e308}}",
                "sigma for 'C' must lie in [0, 1000000] ps, got 1e308",
            ),
        ] {
            let r = server.handle_line(&format!(
                "{{\"kind\":\"sweep\",\"trials\":4,\"variability\":{variability},\
                 \"ir\":{ir_json}}}"
            ));
            assert!(r.contains("\"ok\":false"), "{variability}: {r}");
            assert!(r.contains(error), "{variability}: {r}");
        }
        // The shmoo σ axis gets the same range check: σ = −1 answered
        // ok:true with map ["P"], σ = 1e308 answered ["F"] with
        // margin_scales [null].
        for (sigmas, error) in [
            (
                "[-1]",
                "shmoo 'sigmas' entries must lie in [0, 1000000] ps, got -1.0",
            ),
            (
                "[1e308]",
                "shmoo 'sigmas' entries must lie in [0, 1000000] ps, got 1e308",
            ),
        ] {
            let r = server.handle_line(&format!(
                "{{\"kind\":\"shmoo\",\"design\":\"min_max\",\"sigmas\":{sigmas},\
                 \"scales\":[1.0],\"trials\":1}}"
            ));
            assert!(r.contains("\"ok\":false"), "{sigmas}: {r}");
            assert!(r.contains(error), "{sigmas}: {r}");
        }
        // A shmoo with no trials answered a measured pass ("map":["P"]),
        // and a tolerance of −1 failed every cell.
        for (extra, error) in [
            (
                "\"trials\":0",
                "shmoo 'trials' must be at least 1, got 0.0",
            ),
            (
                "\"trials\":-5",
                "field 'trials' must be an integer in [0, 2^53]",
            ),
            (
                "\"trials\":0.5",
                "field 'trials' must be an integer in [0, 2^53]",
            ),
            (
                "\"trials\":1,\"tolerance\":-1",
                "shmoo 'tolerance' must lie in [0, 1], got -1.0",
            ),
            (
                "\"trials\":1,\"tolerance\":1.5",
                "shmoo 'tolerance' must lie in [0, 1], got 1.5",
            ),
            // Non-finite numbers never get past the JSON parser.
            ("\"trials\":1,\"tolerance\":1e999", "invalid number '1e999'"),
        ] {
            let r = server.handle_line(&format!(
                "{{\"kind\":\"shmoo\",\"design\":\"min_max\",\"sigmas\":[0.4],\
                 \"scales\":[1.0],{extra}}}"
            ));
            assert!(r.contains("\"ok\":false"), "{extra}: {r}");
            assert!(r.contains(error), "{extra}: {r}");
        }
        // The edges of the accepted ranges still serve.
        for extra in [
            "\"trials\":1",
            "\"trials\":1,\"tolerance\":0",
            "\"trials\":1,\"tolerance\":1",
        ] {
            let r = server.handle_line(&format!(
                "{{\"kind\":\"shmoo\",\"design\":\"min_max\",\"sigmas\":[0.4],\
                 \"scales\":[1.0],{extra}}}"
            ));
            assert!(r.contains("\"ok\":true"), "{extra}: {r}");
        }

        // A mistyped, negative, fractional or inexact field was read as
        // absent or cast: `sweep` trials of -5 or 0.5 ran zero trials, the
        // seeds 0, -1, -7 and 0.9 gave one sweep, and `max_states` of -1
        // or "10" ran the full budget. Each is now its own error line.
        let kind_ir =
            |kind: &str, extra: &str| format!("{{\"kind\":\"{kind}\",{extra},\"ir\":{ir_json}}}");
        let shmoo = |extra: &str| {
            format!(
                "{{\"kind\":\"shmoo\",\"design\":\"min_max\",\"sigmas\":[0.4],\
                 \"scales\":[1.0],\"trials\":1,{extra}}}"
            )
        };
        let integer = "an integer in [0, 2^53]";
        let mut lines = vec![];
        for trials in ["-5", "0.5", "\"100000\"", "1e300"] {
            lines.push((
                kind_ir("sweep", &format!("\"trials\":{trials}")),
                "trials",
                integer,
            ));
        }
        for seed in ["-1", "-7", "0.9"] {
            let extra = format!("\"trials\":2,\"seed\":{seed}");
            lines.push((kind_ir("sweep", &extra), "seed", integer));
            lines.push((
                kind_ir("simulate", &format!("\"seed\":{seed}")),
                "seed",
                integer,
            ));
            lines.push((shmoo(&format!("\"seed\":{seed}")), "seed", integer));
        }
        for states in ["-1", "1.5", "\"10\"", "1e300"] {
            let extra = format!("\"max_states\":{states}");
            lines.push((kind_ir("model_check", &extra), "max_states", integer));
        }
        lines.extend([
            (kind_ir("simulate", "\"until\":\"50\""), "until", "a number"),
            (kind_ir("sweep", "\"until\":\"50\""), "until", "a number"),
            (kind_ir("sweep", "\"check\":1"), "check", "a boolean"),
            (
                kind_ir("sweep", "\"variability\":\"x\""),
                "variability",
                "an object",
            ),
            (shmoo("\"adaptive\":\"no\""), "adaptive", "a boolean"),
            (shmoo("\"tolerance\":\"0.1\""), "tolerance", "a number"),
            (
                "{\"kind\":\"shmoo\",\"design\":7}".into(),
                "design",
                "a string",
            ),
            (
                kind_ir("model_check", "\"max_seconds\":-1"),
                "max_seconds",
                "a non-negative number",
            ),
            ("{\"id\":7,\"kind\":\"ping\"}".into(), "id", "a string"),
            (
                "{\"kind\":\"ping\",\"tenant\":[]}".into(),
                "tenant",
                "a string",
            ),
            ("{\"kind\":5}".into(), "kind", "a string"),
        ]);
        for (line, key, want) in &lines {
            let r = server.handle_line(line);
            let error = format!("\"ok\":false,\"error\":\"field '{key}' must be {want}\"");
            assert!(r.contains(&error), "{key}: {r}");
        }
        // Seed 0 is a seed like any other, and no longer aliases -1, -7 or
        // 0.9; `null` still reads as absent.
        for extra in [
            "\"trials\":2,\"seed\":0",
            "\"trials\":2,\"seed\":null",
            "\"trials\":2,\"variability\":null",
        ] {
            let r = server.handle_line(&kind_ir("sweep", extra));
            assert!(r.contains("\"ok\":true"), "{extra}: {r}");
        }

        // The server still answers well-formed requests afterwards.
        let good = format!("{{\"kind\":\"simulate\",\"ir\":{ir_json}}}");
        assert!(server.handle_line(&good).contains("\"ok\":true"));
    }

    #[test]
    fn multi_megabyte_request_strings_are_answered_promptly() {
        // Request decode is linear in line length: a ping carrying an
        // 8 MiB id is answered in one pass over the line, and the id is
        // echoed back intact.
        let server = Server::new(ServeOptions::default());
        let id = "0123456789abcdé\"".repeat((8 << 20) / 17);
        let line =
            JsonValue::Obj(vec![("id".into(), s(&id)), ("kind".into(), s("ping"))]).to_compact();
        assert!(id.len() >= (8 << 20) - 17);
        let r = server.handle_line(&line);
        let v = JsonValue::parse(&r).unwrap();
        assert_eq!(v.get("ok").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("id").and_then(JsonValue::as_str), Some(id.as_str()));

        // A simulate whose IR carries a multi-megabyte name decodes it from
        // the parsed request.
        let mut ir = rlse_designs::design_ir("min_max", 1.0);
        ir.name = "n".repeat(4 << 20);
        let line = format!(
            "{{\"kind\":\"simulate\",\"ir\":{}}}",
            ir.to_value().to_compact()
        );
        assert!(server.handle_line(&line).contains("\"ok\":true"));
    }

    #[test]
    fn a_panicking_request_is_answered_in_order_and_serving_continues() {
        let good = format!(
            "{{\"id\":\"sim\",\"kind\":\"simulate\",\"ir\":{}}}",
            rlse_designs::design_ir("min_max", 1.0).to_value().to_compact()
        );
        let boom = "{\"id\":\"boom\",\"kind\":\"test_panic\"}";
        let ping = "{\"id\":\"ping\",\"kind\":\"ping\"}";
        let lines = [ping, boom, &good, boom, boom, &good, ping, boom];
        let want_good = Server::new(ServeOptions::default()).handle_line(&good);
        let want_boom =
            "{\"id\":\"boom\",\"kind\":\"test_panic\",\"ok\":false,\"error\":\"internal: injected test panic\"}";
        for workers in [1, 4] {
            let server = Server::new(ServeOptions {
                workers,
                ..Default::default()
            });
            let mut out = Vec::new();
            let summary = server
                .serve_observed(
                    lines.join("\n").as_bytes(),
                    &mut out,
                    &mut Observer::disabled(),
                )
                .unwrap();
            let out = String::from_utf8(out).unwrap();
            let got: Vec<&str> = out.lines().collect();
            assert_eq!(got.len(), lines.len(), "one response per line");
            for (line, resp) in lines.iter().zip(&got) {
                let want = match *line {
                    l if l == boom => want_boom,
                    l if l == ping => "{\"id\":\"ping\",\"kind\":\"ping\",\"ok\":true}",
                    _ => want_good.as_str(),
                };
                assert_eq!(*resp, want, "workers={workers}");
            }
            assert_eq!((summary.requests, summary.errors), (8, 4));
            assert_eq!(summary.kinds["test_panic"].errors, 4);
            // The workers survived: the server keeps serving.
            assert_eq!(server.handle_line(&good), want_good);
        }
    }

    #[test]
    fn bounded_cache_evicts_but_keeps_serving() {
        let server = Server::new(ServeOptions {
            max_cache_entries: 1,
            ..Default::default()
        });
        let line = |scale: f64| {
            format!(
                "{{\"kind\":\"simulate\",\"ir\":{}}}",
                rlse_designs::design_ir("min_max", scale).to_value().to_compact()
            )
        };
        let first = server.handle_line(&line(1.0));
        server.handle_line(&line(2.0)); // evicts the scale-1.0 entry
        let again = server.handle_line(&line(1.0)); // recompiles
        assert_eq!(first, again, "eviction never changes response bytes");
        assert_eq!(server.cache().len(), 1);
        assert_eq!(server.cache().hits(), 0);
        assert_eq!(server.cache().misses(), 3);
    }

    #[test]
    fn simulate_matches_a_direct_run_and_hits_the_cache_on_repeat() {
        let server = Server::new(ServeOptions::default());
        let ir = rlse_designs::design_ir("min_max", 1.0);
        let line = format!(
            "{{\"kind\":\"simulate\",\"ir\":{}}}",
            ir.to_value().to_compact()
        );
        let first = server.handle_line(&line);
        let second = server.handle_line(&line);
        assert_eq!(first, second, "responses must be byte-identical");
        assert!(first.contains("\"ok\":true"), "{first}");
        assert_eq!(server.cache().hits(), 1);
        assert_eq!(server.cache().misses(), 1);
        // The reported events equal a direct simulation of the same IR.
        let events = Simulation::new(ir.to_circuit().unwrap()).run().unwrap();
        for name in events.names() {
            assert!(first.contains(&format!("\"{name}\":[")), "{first}");
        }
    }

    #[test]
    fn sweep_honors_the_trial_budget_and_reports_unknown_cell_types() {
        let server = Server::new(ServeOptions {
            max_trials: 8,
            ..Default::default()
        });
        let ir = rlse_designs::design_ir("min_max", 1.0).to_value().to_compact();
        let r = server.handle_line(&format!(
            "{{\"kind\":\"sweep\",\"trials\":1000,\"ir\":{ir}}}"
        ));
        assert!(r.contains("\"trials\":8"), "clamped to the budget: {r}");
        let r = server.handle_line(&format!(
            "{{\"kind\":\"sweep\",\"variability\":{{\"kind\":\"per_cell_type\",\
             \"sigmas\":{{\"NOPE\":0.5}}}},\"ir\":{ir}}}"
        ));
        assert!(r.contains("\"ok\":false"), "{r}");
        assert!(r.contains("NOPE"), "{r}");
    }

    #[test]
    fn shmoo_grids_run_no_more_trials_than_the_largest_sweep() {
        let server = Server::new(ServeOptions {
            max_trials: 4,
            ..Default::default()
        });
        let shmoo = |extra: &str| {
            server.handle_line(&format!(
                "{{\"kind\":\"shmoo\",\"design\":\"min_max\",\"sigmas\":[0.0,0.4],\
                 \"scales\":[1.0,1.2]{extra}}}"
            ))
        };
        let r = shmoo(",\"trials\":1");
        assert!(r.contains("\"ok\":true"), "2 x 2 x 1 is at the cap: {r}");
        let r = shmoo(",\"trials\":2");
        assert!(
            r.contains("shmoo grid of 2 sigmas x 2 scales x 2 trials = 8 trials exceeds the 4-trial cap"),
            "{r}"
        );
        // The default 200 trials a cell are clamped to the cap first.
        let r = shmoo("");
        assert!(r.contains("2 sigmas x 2 scales x 4 trials = 16 trials"), "{r}");
    }

    #[test]
    fn fixture_corpus_serves_clean_and_deterministically() {
        let server = Server::new(ServeOptions::default());
        let requests = fixture_requests();
        let mut pass1 = Vec::new();
        let sum1 = server
            .serve_observed(requests.as_bytes(), &mut pass1, &mut Observer::disabled())
            .unwrap();
        let mut pass2 = Vec::new();
        let sum2 = server
            .serve_observed(requests.as_bytes(), &mut pass2, &mut Observer::disabled())
            .unwrap();
        assert_eq!(pass1, pass2, "responses must be byte-identical");
        assert_eq!(sum1.requests, 6);
        assert_eq!(sum1.errors, 0, "{}", String::from_utf8_lossy(&pass1));
        assert_eq!(sum1.cache_misses, sum2.cache_misses, "no new compiles");
        assert!(sum2.cache_hits > sum1.cache_hits, "second pass must hit");
    }
}
