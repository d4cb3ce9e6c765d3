//! Out-of-band observability for the serving front end: structured access
//! logging, phase-latency histograms, Prometheus text exposition, and
//! slow-request Chrome traces.
//!
//! ## Determinism rules
//!
//! The serving contract (DESIGN.md §15) is that **response lines are
//! byte-deterministic**: a byte-identical request line always yields a
//! byte-identical response line, with or without observability enabled.
//! Everything in this module is therefore *out-of-band* — it flows to the
//! access log, the metrics file, the summary, or a trace file, never into
//! a response. Wall-clock data (the `*_us` fields of an [`AccessRecord`],
//! every [`Histogram`] sample, span timestamps in slow traces) appears
//! *only* here, and so does the access log's per-request `cache_hit`,
//! which depends on timing at more than one worker; deterministic data
//! (counters, verdicts, events) may appear in both places.

use crate::{ServeSummary, TenantTally};
use rlse_core::ir::json::JsonValue;
use rlse_core::telemetry::{Histogram, Telemetry};
use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;

/// One served request, as recorded in the JSON-lines access log. All
/// fields except the `*_us` wall-clock phase timings and `cache_hit` are
/// deterministic functions of the request line and the server's budget
/// configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessRecord {
    /// 1-based sequence number across the [`Observer`]'s lifetime (spans
    /// `--repeat` passes).
    pub seq: u64,
    /// The request's optional `"tenant"` field — a client-supplied
    /// accounting label, never part of the circuit content hash.
    pub tenant: Option<String>,
    /// The request's optional `"id"` field, echoed as in the response.
    pub id: Option<String>,
    /// Request kind (`simulate`/`sweep`/`shmoo`/`model_check`/`ping`), or
    /// `error` when the line had no recognizable kind.
    pub kind: String,
    /// Whether the response line carried `"ok":true`.
    pub ok: bool,
    /// The error message of an `"ok":false` response.
    pub error: Option<String>,
    /// The IR content hash, for requests that carried a circuit.
    pub hash: Option<u64>,
    /// Whether the request's compiled-cache lookup hit (requests without
    /// a circuit record `None`): the cache's real outcome, so the logged
    /// hits and misses add up to its counters. Out-of-band like the `*_us`
    /// fields: deterministic at one worker, timing-dependent at more (which
    /// concurrent request compiles a circuit, which entries eviction left).
    pub cache_hit: Option<bool>,
    /// Which per-request budget clamps fired (`trials`, `until`,
    /// `max_states`, `max_seconds`).
    pub clamps: Vec<&'static str>,
    /// The request's deterministic telemetry counter deltas (the same
    /// counters an IR-bearing response embeds under `"telemetry"`).
    pub counters: Vec<(String, u64)>,
    /// Wall-clock micros parsing the request line.
    pub parse_us: u64,
    /// Wall-clock micros in the compiled cache (lookup or compile).
    pub cache_us: u64,
    /// Wall-clock micros in the engine (handler time minus cache time).
    pub run_us: u64,
    /// Wall-clock micros encoding the response line.
    pub encode_us: u64,
    /// Wall-clock micros for the whole request.
    pub total_us: u64,
    /// Wall-clock micros between the reader thread enqueuing the request
    /// and a scheduler worker picking it up.
    pub queue_us: u64,
    /// Wall-clock micros the finished response waited in the reorder
    /// buffer for earlier-sequence requests to complete.
    pub reorder_us: u64,
}

impl AccessRecord {
    /// The counter delta `name`, or 0 if the request never recorded it.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// One compact JSON line (no trailing newline). String fields are
    /// escaped by the shared JSON emitter, so hostile tenant or error
    /// strings cannot break the log. Wall-clock fields all end in `_us`;
    /// stripping those keys yields a record that is deterministic at one
    /// worker, and at any worker count once `cache_hit` is masked too.
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(String, JsonValue)> = vec![(
            "seq".into(),
            JsonValue::Num(self.seq as f64),
        )];
        if let Some(t) = &self.tenant {
            fields.push(("tenant".into(), JsonValue::Str(t.clone())));
        }
        if let Some(id) = &self.id {
            fields.push(("id".into(), JsonValue::Str(id.clone())));
        }
        fields.push(("kind".into(), JsonValue::Str(self.kind.clone())));
        fields.push(("ok".into(), JsonValue::Bool(self.ok)));
        if let Some(e) = &self.error {
            fields.push(("error".into(), JsonValue::Str(e.clone())));
        }
        if let Some(h) = self.hash {
            fields.push(("hash".into(), JsonValue::Str(format!("{h:016x}"))));
        }
        if let Some(hit) = self.cache_hit {
            fields.push(("cache_hit".into(), JsonValue::Bool(hit)));
        }
        fields.push((
            "clamps".into(),
            JsonValue::Arr(
                self.clamps
                    .iter()
                    .map(|c| JsonValue::Str((*c).to_string()))
                    .collect(),
            ),
        ));
        fields.push((
            "counters".into(),
            JsonValue::Obj(
                self.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), JsonValue::Num(*v as f64)))
                    .collect(),
            ),
        ));
        for (key, v) in [
            ("parse_us", self.parse_us),
            ("cache_us", self.cache_us),
            ("run_us", self.run_us),
            ("encode_us", self.encode_us),
            ("total_us", self.total_us),
            ("queue_us", self.queue_us),
            ("reorder_us", self.reorder_us),
        ] {
            fields.push((key.into(), JsonValue::Num(v as f64)));
        }
        JsonValue::Obj(fields).to_compact()
    }
}

/// Point-in-time scheduler statistics, exposed as out-of-band gauges in
/// the metrics file. All of it is operational (timing- and
/// scheduling-dependent) data that never reaches a response line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Resolved request-level worker count serving this process.
    pub workers: u64,
    /// Engine threads granted to each in-flight `sweep` or `shmoo` request
    /// by the thread governor.
    pub engine_threads: u64,
    /// Peak depth of the parsed-request input queue.
    pub queue_depth_peak: u64,
    /// Peak number of finished responses parked in the reorder buffer
    /// waiting for an earlier-sequence request.
    pub reorder_depth_peak: u64,
    /// Times a request blocked on another request's in-flight compilation
    /// of the same circuit instead of compiling it again.
    pub singleflight_waits: u64,
    /// Metrics rewrites triggered by writer-thread idleness (a stalled
    /// input stream) rather than the request stride or end of batch.
    pub idle_flushes: u64,
}

/// Where the out-of-band streams go. Everything defaults to off; serving
/// with a [disabled](Observer::disabled) [`Observer`] pays only a few
/// branch checks per request.
#[derive(Debug, Clone, Default)]
pub struct ObserveOptions {
    /// JSON-lines access log path (one [`AccessRecord`] per request).
    pub access_log: Option<PathBuf>,
    /// Prometheus text-format metrics path, rewritten at end of batch.
    pub metrics: Option<PathBuf>,
    /// Also rewrite the metrics file every N requests (0 = end of batch
    /// only) so long batches expose progress before they finish.
    pub metrics_every: u64,
    /// Requests whose total wall-clock micros reach this threshold dump a
    /// Chrome trace of their engine spans into `trace_dir` (0 traces every
    /// request; `None` disables tracing).
    pub slow_trace_us: Option<u64>,
    /// Directory for slow-request traces (created on demand).
    pub trace_dir: Option<PathBuf>,
}

/// The stateful sink for all out-of-band streams: the open access log,
/// the cumulative phase histograms and summary backing the metrics file,
/// and the slow-trace writer. One observer spans every pass of a
/// `--repeat` run, so its accounting covers the whole process.
pub struct Observer {
    access: Option<Box<dyn Write + Send>>,
    metrics_path: Option<PathBuf>,
    metrics_every: u64,
    slow_trace_us: Option<u64>,
    trace_dir: Option<PathBuf>,
    seq: u64,
    /// Requests folded through [`observe`](Observer::observe); drives the
    /// `metrics_every` stride (the sequence counter can no longer serve —
    /// sequence numbers are assigned at read time, observations happen at
    /// emission time).
    observed: u64,
    traces_written: u64,
    hists: BTreeMap<String, Histogram>,
    summary: ServeSummary,
    sched: SchedStats,
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("seq", &self.seq)
            .field("access", &self.access.is_some())
            .field("metrics_path", &self.metrics_path)
            .field("slow_trace_us", &self.slow_trace_us)
            .field("traces_written", &self.traces_written)
            .finish()
    }
}

impl Observer {
    /// An observer that records nothing (the plain serving path).
    pub fn disabled() -> Self {
        Observer {
            access: None,
            metrics_path: None,
            metrics_every: 0,
            slow_trace_us: None,
            trace_dir: None,
            seq: 0,
            observed: 0,
            traces_written: 0,
            hists: BTreeMap::new(),
            summary: ServeSummary::default(),
            sched: SchedStats::default(),
        }
    }

    /// Open every sink named by `opts` (truncating existing files, creating
    /// the trace directory on first use).
    ///
    /// # Errors
    ///
    /// I/O errors creating the access-log file.
    pub fn from_options(opts: &ObserveOptions) -> io::Result<Self> {
        let access: Option<Box<dyn Write + Send>> = match &opts.access_log {
            Some(path) => Some(Box::new(BufWriter::new(std::fs::File::create(path)?))),
            None => None,
        };
        Ok(Observer {
            access,
            metrics_path: opts.metrics.clone(),
            metrics_every: opts.metrics_every,
            slow_trace_us: opts.slow_trace_us,
            trace_dir: opts.trace_dir.clone(),
            ..Observer::disabled()
        })
    }

    /// Route the access log to an arbitrary writer (tests observe
    /// in-memory buffers instead of files).
    #[must_use]
    pub fn with_access_writer(mut self, w: Box<dyn Write + Send>) -> Self {
        self.access = Some(w);
        self
    }

    /// The next request's sequence number (1-based, process-lifetime).
    pub(crate) fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Record one served request: append the access-log line, fold the
    /// phase timings into the latency histograms, update the cumulative
    /// summary, and dump a slow trace when the threshold is met.
    pub(crate) fn observe(&mut self, rec: &AccessRecord, tel: &Telemetry) -> io::Result<()> {
        self.observed += 1;
        self.summary.absorb(rec);
        if let Some(w) = &mut self.access {
            writeln!(w, "{}", rec.to_json())?;
        }
        if self.metrics_path.is_some() {
            for (name, v) in [
                ("parse", rec.parse_us),
                ("cache", rec.cache_us),
                ("encode", rec.encode_us),
                ("total", rec.total_us),
                ("queue", rec.queue_us),
                ("reorder", rec.reorder_us),
            ] {
                self.hists.entry(name.to_string()).or_default().record(v);
            }
            self.hists
                .entry(format!("run.{}", rec.kind))
                .or_default()
                .record(rec.run_us);
        }
        if self
            .slow_trace_us
            .is_some_and(|limit| rec.total_us >= limit)
        {
            if let Some(dir) = self.trace_dir.clone() {
                std::fs::create_dir_all(&dir)?;
                let path = dir.join(format!("trace-{:06}-{}.json", rec.seq, rec.kind));
                std::fs::write(path, tel.chrome_trace_json())?;
                self.traces_written += 1;
            }
        }
        Ok(())
    }

    /// True after a request whose observation count hits the
    /// `metrics_every` stride (never at stride 0).
    pub(crate) fn metrics_due(&self) -> bool {
        self.metrics_path.is_some()
            && self.metrics_every > 0
            && self.observed.is_multiple_of(self.metrics_every)
    }

    /// True when a metrics sink is configured at all (the idle-flush path
    /// checks before bothering).
    pub(crate) fn wants_metrics(&self) -> bool {
        self.metrics_path.is_some()
    }

    /// Requests folded so far (drives idle-flush staleness tracking).
    pub(crate) fn observed(&self) -> u64 {
        self.observed
    }

    /// Replace the scheduler statistics carried in the next metrics
    /// rewrite.
    pub(crate) fn set_sched_stats(&mut self, sched: SchedStats) {
        self.sched = sched;
    }

    /// Rewrite the metrics file from the cumulative summary (with the
    /// shared cache's process-wide traffic patched in) and flush the
    /// access log.
    pub(crate) fn flush(&mut self, cache_hits: u64, cache_misses: u64) -> io::Result<()> {
        if let Some(w) = &mut self.access {
            w.flush()?;
        }
        if let Some(path) = &self.metrics_path {
            self.summary.cache_hits = cache_hits;
            self.summary.cache_misses = cache_misses;
            let hists: Vec<(String, Histogram)> =
                self.hists.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            std::fs::write(
                path,
                prometheus_text_for_with_sched(&self.summary, &hists, &self.sched),
            )?;
        }
        Ok(())
    }

    /// The cumulative (process-lifetime) summary this observer has folded.
    pub fn summary(&self) -> &ServeSummary {
        &self.summary
    }

    /// The phase histograms backing the metrics exposition.
    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.hists
    }

    /// Slow traces written so far.
    pub fn traces_written(&self) -> u64 {
        self.traces_written
    }

    /// The scheduler statistics carried in the metrics exposition (zeroed
    /// until a serve pass updates them).
    pub fn sched_stats(&self) -> SchedStats {
        self.sched
    }
}

/// Escape a Prometheus label value (`\` → `\\`, `"` → `\"`, newline →
/// `\n`, per the text-format spec).
fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// [`prometheus_text_for_with_sched`] with zeroed scheduler statistics —
/// the exposition for embedders that never ran the request scheduler.
pub fn prometheus_text_for(summary: &ServeSummary, hists: &[(String, Histogram)]) -> String {
    prometheus_text_for_with_sched(summary, hists, &SchedStats::default())
}

/// Render a [`ServeSummary`], phase-latency histograms, and scheduler
/// statistics as Prometheus text format (version 0.0.4). Pure function of
/// its inputs — the golden test pins the exact bytes — and deterministic:
/// maps are name-sorted and histogram buckets are emitted in
/// increasing-bound order with cumulative counts, `+Inf`, `_sum`, and
/// `_count` series.
pub fn prometheus_text_for_with_sched(
    summary: &ServeSummary,
    hists: &[(String, Histogram)],
    sched: &SchedStats,
) -> String {
    let mut out = String::new();
    let counter = |out: &mut String, name: &str, help: &str, v: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
        ));
    };
    counter(
        &mut out,
        "rlse_requests_total",
        "Request lines answered, including error responses.",
        summary.requests,
    );
    counter(
        &mut out,
        "rlse_errors_total",
        "Requests answered with ok=false.",
        summary.errors,
    );
    counter(
        &mut out,
        "rlse_cache_hits_total",
        "Compiled-circuit cache hits.",
        summary.cache_hits,
    );
    counter(
        &mut out,
        "rlse_cache_misses_total",
        "Compiled-circuit cache misses (compilations).",
        summary.cache_misses,
    );

    if !summary.kinds.is_empty() {
        out.push_str(
            "# HELP rlse_requests_by_kind_total Requests answered, by request kind.\n\
             # TYPE rlse_requests_by_kind_total counter\n",
        );
        for (kind, t) in &summary.kinds {
            out.push_str(&format!(
                "rlse_requests_by_kind_total{{kind=\"{}\"}} {}\n",
                prom_escape(kind),
                t.requests
            ));
        }
        out.push_str(
            "# HELP rlse_errors_by_kind_total Error responses, by request kind.\n\
             # TYPE rlse_errors_by_kind_total counter\n",
        );
        for (kind, t) in &summary.kinds {
            out.push_str(&format!(
                "rlse_errors_by_kind_total{{kind=\"{}\"}} {}\n",
                prom_escape(kind),
                t.errors
            ));
        }
    }

    if !summary.tenants.is_empty() {
        type Getter = fn(&TenantTally) -> u64;
        let series: [(&str, &str, Getter); 5] = [
            ("rlse_tenant_requests_total", "Requests, by tenant.", |t| {
                t.requests
            }),
            ("rlse_tenant_errors_total", "Error responses, by tenant.", |t| {
                t.errors
            }),
            (
                "rlse_tenant_trials_total",
                "Monte-Carlo trials executed, by tenant.",
                |t| t.trials,
            ),
            (
                "rlse_tenant_states_total",
                "Model-checker states explored, by tenant.",
                |t| t.states,
            ),
            (
                "rlse_tenant_events_total",
                "Simulation events dispatched, by tenant.",
                |t| t.events,
            ),
        ];
        for (name, help, get) in series {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            for (tenant, t) in &summary.tenants {
                out.push_str(&format!(
                    "{name}{{tenant=\"{}\"}} {}\n",
                    prom_escape(tenant),
                    get(t)
                ));
            }
        }
    }

    if !hists.is_empty() {
        out.push_str(
            "# HELP rlse_phase_us Wall-clock serving latency per pipeline phase, microseconds.\n\
             # TYPE rlse_phase_us histogram\n",
        );
        for (phase, h) in hists {
            let label = prom_escape(phase);
            let mut cum = 0u64;
            for (bound, count) in h.buckets() {
                cum += count;
                out.push_str(&format!(
                    "rlse_phase_us_bucket{{phase=\"{label}\",le=\"{bound}\"}} {cum}\n"
                ));
            }
            out.push_str(&format!(
                "rlse_phase_us_bucket{{phase=\"{label}\",le=\"+Inf\"}} {}\n",
                h.count()
            ));
            out.push_str(&format!(
                "rlse_phase_us_sum{{phase=\"{label}\"}} {}\n",
                h.sum()
            ));
            out.push_str(&format!(
                "rlse_phase_us_count{{phase=\"{label}\"}} {}\n",
                h.count()
            ));
        }
    }

    let gauge = |out: &mut String, name: &str, help: &str, v: u64| {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
        ));
    };
    gauge(
        &mut out,
        "rlse_sched_workers",
        "Request-level scheduler workers serving this process.",
        sched.workers,
    );
    gauge(
        &mut out,
        "rlse_sched_engine_threads",
        "Engine threads the governor grants each in-flight sweep or shmoo request.",
        sched.engine_threads,
    );
    gauge(
        &mut out,
        "rlse_sched_queue_depth_peak",
        "Peak depth of the parsed-request input queue.",
        sched.queue_depth_peak,
    );
    gauge(
        &mut out,
        "rlse_sched_reorder_depth_peak",
        "Peak responses parked in the reorder buffer.",
        sched.reorder_depth_peak,
    );
    counter(
        &mut out,
        "rlse_cache_singleflight_waits_total",
        "Requests that waited on an in-flight compilation of the same circuit.",
        sched.singleflight_waits,
    );
    counter(
        &mut out,
        "rlse_sched_idle_flushes_total",
        "Metrics rewrites triggered by writer-thread idleness.",
        sched.idle_flushes,
    );
    out
}
