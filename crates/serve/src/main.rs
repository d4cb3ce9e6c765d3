//! The `rlse-serve` CLI: JSON-lines requests in, JSON-lines responses out.
//!
//! ```text
//! rlse-serve [--input FILE] [--output FILE] [--repeat N] [--check-repeat]
//!            [--emit-fixture] [--emit-corpus N] [--summary]
//!            [--max-trials N] [--max-states N] [--max-seconds S] [--threads N]
//!            [--workers N] [--max-cache N]
//!            [--access-log FILE] [--metrics FILE] [--metrics-every N]
//!            [--slow-trace-ms MS] [--trace-dir DIR]
//! ```
//!
//! Reads one request per line from `--input` (default stdin) and writes one
//! response per line to `--output` (default stdout), in order. `--repeat N`
//! serves the whole request file N times through the same process (and one
//! shared compiled cache); with `--check-repeat` the process exits nonzero
//! unless every pass produced byte-identical responses. `--emit-fixture`
//! prints the built-in fixture request corpus instead of serving;
//! `--emit-corpus N` prints the N-line generated mixed corpus. `--summary`
//! prints end-of-run accounting (requests, errors, cache hits/misses,
//! per-kind and per-tenant tallies) as one JSON line on stderr.
//! `--max-cache N` caps the compiled cache at N entries with LRU eviction
//! (0 = unbounded; default 1024).
//!
//! `--workers N` serves requests through N concurrent request workers
//! (0 = available parallelism; default 1). Responses still come out
//! strictly in input order and are byte-identical at any worker count; the
//! thread governor splits the host between request workers and the engine
//! threads of each `sweep` or `shmoo` request when `--threads` is left at 0. At `--repeat 1` input and
//! output stream — responses emerge as requests arrive, so the CLI can sit
//! on a long-poll pipe.
//!
//! Observability (all out-of-band — response bytes never change):
//! `--access-log FILE` appends one JSON line per request (tenant, kind,
//! circuit hash, cache hit, budget clamps, counter deltas, wall-clock
//! phase micros). `--metrics FILE` writes Prometheus text-format metrics
//! at end of run, and additionally every N requests with
//! `--metrics-every N`. `--slow-trace-ms MS` dumps a Chrome trace of any
//! request at least MS milliseconds of wall clock into `--trace-dir`
//! (default `traces`); `--slow-trace-ms 0` traces every request.

#![warn(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use rlse_serve::{fixture_requests, generated_requests, ObserveOptions, Observer, ServeOptions, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    input: Option<String>,
    output: Option<String>,
    repeat: u32,
    check_repeat: bool,
    emit_fixture: bool,
    emit_corpus: Option<usize>,
    summary: bool,
    opts: ServeOptions,
    obs: ObserveOptions,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: None,
        output: None,
        repeat: 1,
        check_repeat: false,
        emit_fixture: false,
        emit_corpus: None,
        summary: false,
        opts: ServeOptions::default(),
        obs: ObserveOptions::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--input" => args.input = Some(value("--input")?),
            "--output" => args.output = Some(value("--output")?),
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--check-repeat" => args.check_repeat = true,
            "--emit-fixture" => args.emit_fixture = true,
            "--emit-corpus" => {
                args.emit_corpus = Some(
                    value("--emit-corpus")?
                        .parse()
                        .map_err(|e| format!("--emit-corpus: {e}"))?,
                );
            }
            "--summary" => args.summary = true,
            "--max-trials" => {
                args.opts.max_trials = value("--max-trials")?
                    .parse()
                    .map_err(|e| format!("--max-trials: {e}"))?;
            }
            "--max-states" => {
                args.opts.max_states = value("--max-states")?
                    .parse()
                    .map_err(|e| format!("--max-states: {e}"))?;
            }
            "--max-seconds" => {
                args.opts.max_seconds = value("--max-seconds")?
                    .parse()
                    .map_err(|e| format!("--max-seconds: {e}"))?;
            }
            "--threads" => {
                args.opts.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--workers" => {
                args.opts.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--max-cache" => {
                args.opts.max_cache_entries = value("--max-cache")?
                    .parse()
                    .map_err(|e| format!("--max-cache: {e}"))?;
            }
            "--access-log" => args.obs.access_log = Some(value("--access-log")?.into()),
            "--metrics" => args.obs.metrics = Some(value("--metrics")?.into()),
            "--metrics-every" => {
                args.obs.metrics_every = value("--metrics-every")?
                    .parse()
                    .map_err(|e| format!("--metrics-every: {e}"))?;
            }
            "--slow-trace-ms" => {
                let ms: f64 = value("--slow-trace-ms")?
                    .parse()
                    .map_err(|e| format!("--slow-trace-ms: {e}"))?;
                if ms.is_nan() || ms < 0.0 {
                    return Err("--slow-trace-ms must be >= 0".into());
                }
                // A threshold past u64::MAX µs never fires.
                let us = Duration::try_from_secs_f64(ms / 1000.0)
                    .map_or(u64::MAX, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
                args.obs.slow_trace_us = Some(us);
            }
            "--trace-dir" => args.obs.trace_dir = Some(value("--trace-dir")?.into()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    if args.obs.slow_trace_us.is_some() && args.obs.trace_dir.is_none() {
        args.obs.trace_dir = Some("traces".into());
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.emit_fixture {
        print!("{}", fixture_requests());
        return Ok(true);
    }
    if let Some(n) = args.emit_corpus {
        print!("{}", generated_requests(n));
        return Ok(true);
    }

    let server = Server::new(args.opts);
    let mut observer =
        Observer::from_options(&args.obs).map_err(|e| format!("opening observability sinks: {e}"))?;

    if args.repeat == 1 {
        // Single pass: stream. Responses emerge as requests arrive, and a
        // stalled input pipe triggers idle metrics flushes instead of
        // blocking before serving begins.
        let input: Box<dyn BufRead + Send> = match &args.input {
            Some(path) => Box::new(BufReader::new(
                std::fs::File::open(path).map_err(|e| format!("reading {path}: {e}"))?,
            )),
            None => Box::new(BufReader::new(std::io::stdin())),
        };
        let output: Box<dyn Write> = match &args.output {
            Some(path) => Box::new(
                std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?,
            ),
            None => Box::new(std::io::stdout().lock()),
        };
        let summary = server
            .serve_observed(input, output, &mut observer)
            .map_err(|e| format!("serving: {e}"))?;
        if args.summary {
            eprintln!("{}", summary.to_json());
        }
        return Ok(true);
    }

    let requests = match &args.input {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?
        }
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("reading stdin: {e}"))?;
            buf
        }
    };

    let mut passes: Vec<Vec<u8>> = Vec::with_capacity(args.repeat as usize);
    let mut summary = Default::default();
    for _ in 0..args.repeat {
        let mut out = Vec::new();
        summary = server
            .serve_observed(BufReader::new(requests.as_bytes()), &mut out, &mut observer)
            .map_err(|e| format!("serving: {e}"))?;
        passes.push(out);
    }

    let identical = passes.iter().all(|p| *p == passes[0]);
    match &args.output {
        Some(path) => {
            let mut f =
                std::fs::File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
            for p in &passes {
                f.write_all(p).map_err(|e| format!("writing {path}: {e}"))?;
            }
        }
        None => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            for p in &passes {
                lock.write_all(p).map_err(|e| format!("writing stdout: {e}"))?;
            }
        }
    }

    if args.summary {
        eprintln!("{}", summary.to_json());
    }
    if args.check_repeat && !identical {
        return Err("responses differed between passes".into());
    }
    Ok(true)
}

fn main() -> ExitCode {
    match run() {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rlse-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
