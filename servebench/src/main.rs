//! `servebench` — run one workload and print its metrics.
//!
//! ```text
//! servebench --workload <sim_hot|sim_cold|montecarlo|mixed> --seed N
//!            --seconds S --trace <0|1>
//! ```
//!
//! The process generates the seeded corpus, writes it to a fresh directory
//! under `.servebench/`, answers every distinct line once on a reference
//! server, and then measures in child processes of its own, one after
//! another, each serving the corpus for an equal share of `S` seconds
//! through a fresh server. Untraced runs (`--trace 0`) report the
//! end-to-end metrics from [`PARTS`] parts: the fastest part's
//! throughput, the median part's p50 and peak memory, the p99 of every
//! part but the slowest pooled, and the median of every set-up the parts
//! timed. Traced runs (`--trace 1`) run one part that alternates serving
//! with the access log and allocation counting on, replaying those lines
//! layer by layer, and serving untraced for the overhead baseline; they
//! report per-layer metrics and write the spans to `.servebench/traces/`.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`.

use rlse_core::ir::json::JsonValue;
use rlse_serve::{Observer, Server};
use servebench::gen::{self, Workload};
use servebench::replay::{Replayer, LAYERS};
use servebench::{
    alloc, closed, host, median, per_layer_metrics, quantile, serve_options, verify, ALLOC_NAMES,
    END_TO_END, SHARE_NAMES,
};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Child processes an untraced run measures in, one after another. An odd
/// count gives a true median over parts; each part costs one more set-up.
const PARTS: usize = 5;

/// Most set-ups one part times.
const SETUPS: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            "--child" => child = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match &args.child {
        Some(dir) => child(&args, dir),
        None => orchestrate(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

type Res<T> = Result<T, String>;

fn io<T>(what: &str, r: std::io::Result<T>) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

fn write_lines(path: &Path, lines: impl Iterator<Item = String>) -> Res<()> {
    let mut f = std::io::BufWriter::new(io("create", std::fs::File::create(path))?);
    for l in lines {
        io("write", writeln!(f, "{l}"))?;
    }
    io("flush", f.flush())
}

fn read_hashes(path: &Path) -> Res<Vec<u64>> {
    let text = io("read", std::fs::read_to_string(path))?;
    text.lines()
        .map(|l| u64::from_str_radix(l, 16).map_err(|e| e.to_string()))
        .collect()
}

/// The parent process: generate, reference, measure in children, report.
fn orchestrate(args: &Args) -> Res<()> {
    let w = args.workload;
    let dir = PathBuf::from(".servebench").join(format!(
        "run-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos())
    ));
    io("create work dir", std::fs::create_dir_all(&dir))?;
    let out = measure(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let (correct, attempted, failed, metrics) = out?;
    let metrics = JsonValue::Obj(
        metrics
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    JsonValue::Obj(vec![
                        ("value".into(), JsonValue::Num(value)),
                        ("unit".into(), JsonValue::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    );
    eprintln!(
        "servebench: {} seed {} attempted {attempted} failed {failed}",
        w.name(),
        args.seed
    );
    println!(
        "{}",
        JsonValue::Obj(vec![
            ("correct".into(), JsonValue::Bool(correct)),
            ("attempted".into(), JsonValue::Num(attempted as f64)),
            ("failed".into(), JsonValue::Num(failed as f64)),
            ("metrics".into(), metrics),
        ])
        .to_compact()
    );
    Ok(())
}

type Measured = (bool, u64, u64, Vec<(&'static str, f64, &'static str)>);

fn measure(args: &Args, dir: &Path) -> Res<Measured> {
    let w = args.workload;
    let corpus = gen::corpus(w, args.seed);
    let reference = verify::reference(&corpus, serve_options(), args.seed);
    eprintln!(
        "servebench: reference pass: {} distinct lines, {} checked against the library",
        corpus.distinct.len(),
        reference.cross_checked
    );
    for f in &reference.failures {
        eprintln!("servebench: reference: {f}");
    }
    let hex = |v: Vec<u64>| v.into_iter().map(|h| format!("{h:016x}"));
    io(
        "write stream",
        std::fs::write(dir.join("stream.jsonl"), corpus.stream_text()),
    )?;
    write_lines(
        &dir.join("warmup.jsonl"),
        corpus
            .warmup
            .iter()
            .map(|&i| corpus.distinct[i as usize].clone()),
    )?;
    write_lines(
        &dir.join("stream.expected"),
        hex(reference.expected(&corpus.period)),
    )?;
    write_lines(
        &dir.join("warmup.expected"),
        hex(reference.expected(&corpus.warmup)),
    )?;
    let slot_class: Vec<usize> = corpus
        .period
        .iter()
        .map(|&i| corpus.class_of[i as usize])
        .collect();
    drop(corpus);

    let parts = if args.trace { 1 } else { PARTS };
    let mut results = Vec::with_capacity(parts);
    for _ in 0..parts {
        let exe = io("current exe", std::env::current_exe())?;
        let output = io(
            "spawn part",
            Command::new(exe)
                .args(["--child", &dir.to_string_lossy(), "--workload", w.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &(args.seconds / parts as f64).to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output(),
        )?;
        if !output.status.success() {
            return Err(format!("part exited with {}", output.status));
        }
        let text = String::from_utf8_lossy(&output.stdout);
        let last = text.lines().last().ok_or("part printed nothing")?;
        results.push(JsonValue::parse(last).map_err(|e| format!("part output: {e}"))?);
    }
    let num = |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let series = |v: &JsonValue, k: &str| -> Vec<f64> {
        v.get(k)
            .and_then(JsonValue::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(JsonValue::as_f64)
            .collect()
    };
    let attempted: u64 = results.iter().map(|r| num(r, "attempted") as u64).sum();
    let failed = results.iter().map(|r| num(r, "failed") as u64).sum::<u64>()
        + reference.failures.len() as u64;
    let correct = failed == 0 && attempted > 0;

    if args.trace {
        let r = &results[0];
        let layers = r
            .get("layers")
            .and_then(JsonValue::as_obj)
            .ok_or("traced part gave no layers")?;
        let metrics = per_layer_metrics()
            .into_iter()
            .map(|(name, unit)| {
                let v = layers
                    .iter()
                    .find(|(k, _)| k == name)
                    .and_then(|(_, v)| v.as_f64())
                    .unwrap_or(0.0);
                (name, v, unit)
            })
            .collect();
        return Ok((correct, attempted, failed, metrics));
    }

    // Host noise comes in phases of seconds to minutes, mostly slow ones.
    // So throughput is the fastest part's, p50 the median
    // part's, and p99 pools every part but the slowest, which still puts
    // at least ten samples beyond it.
    let tputs: Vec<f64> = results
        .iter()
        .map(|r| num(r, "attempted") / num(r, "window_s").max(1e-9))
        .collect();
    let slowest = (0..tputs.len())
        .min_by(|&a, &b| tputs[a].total_cmp(&tputs[b]))
        .unwrap_or(0);
    // Every part enters the stream at its first line, so a part's k-th
    // latency belongs to period slot k.
    let mut tagged: Vec<(f64, usize)> = results
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != slowest)
        .flat_map(|(_, r)| series(r, "lat_us").into_iter().enumerate())
        .map(|(k, us)| (us / 1e3, slot_class[k % slot_class.len()]))
        .collect();
    tagged.sort_by(|a, b| a.0.total_cmp(&b.0));
    let lat_ms: Vec<f64> = tagged.iter().map(|t| t.0).collect();
    report_ranks(w, &tagged);
    let setups: Vec<f64> = results.iter().flat_map(|r| series(r, "setup_s")).collect();
    let rss: Vec<f64> = results.iter().map(|r| num(r, "rss_mb")).collect();
    eprintln!(
        "servebench: parts throughput {:?}; setups {:?}",
        tputs
            .iter()
            .map(|t| (t * 10.0).round() / 10.0)
            .collect::<Vec<_>>(),
        setups
            .iter()
            .map(|t| (t * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    let part_p50: Vec<f64> = results
        .iter()
        .map(|r| quantile(&series(r, "lat_us"), 0.50) / 1e3)
        .collect();
    let values = [
        tputs.iter().copied().fold(0.0, f64::max),
        median(&part_p50),
        quantile(&lat_ms, 0.99),
        median(&setups),
        median(&rss),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    Ok((correct, attempted, failed, metrics))
}

/// Print which class the pooled p50 and p99 came from, against the class
/// the mix's weights put there, with each class's median latency.
fn report_ranks(w: Workload, sorted: &[(f64, usize)]) {
    if sorted.is_empty() {
        return;
    }
    let classes = w.classes();
    let at =
        |q: f64| sorted[((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1].1;
    let medians: Vec<String> = classes
        .iter()
        .enumerate()
        .map(|(c, class)| {
            let v: Vec<f64> = sorted.iter().filter(|t| t.1 == c).map(|t| t.0).collect();
            format!("{} {:.3} ms", class.name, median(&v))
        })
        .collect();
    eprintln!(
        "servebench: p50 from {} (mix puts {}), p99 from {} (mix puts {}); class medians: {}",
        classes[at(0.50)].name,
        classes[w.rank_class(0.50).0].name,
        classes[at(0.99)].name,
        classes[w.rank_class(0.99).0].name,
        medians.join(", ")
    );
}

/// Set up a fresh server: construct it and serve the warm-up lines, each
/// checked against its reference. Returns the server, the seconds taken
/// and the number of mismatching warm-up responses.
fn setup(dir: &Path, expected: &[u64]) -> Res<(Server, f64, u64)> {
    let t = Instant::now();
    let server = Server::new(serve_options());
    let mut failed = 0;
    let lines = BufReader::new(io(
        "open warm-up",
        std::fs::File::open(dir.join("warmup.jsonl")),
    )?);
    for (line, want) in lines.lines().zip(expected) {
        let resp = server.handle_line(&io("read warm-up", line)?);
        if verify::fingerprint(resp.as_bytes()) != *want {
            failed += 1;
        }
    }
    Ok((server, t.elapsed().as_secs_f64(), failed))
}

/// A child process: one measured part.
fn child(args: &Args, dir: &Path) -> Res<()> {
    let stream_expected = read_hashes(&dir.join("stream.expected"))?;
    let warm_expected = read_hashes(&dir.join("warmup.expected"))?;
    if args.trace {
        return traced_child(args, dir, &stream_expected, &warm_expected);
    }
    // Set up several times (up to SETUPS, within about a second) so the
    // run's set-up time is a median; serve from the last server built.
    let mut setups = Vec::new();
    let mut failed = 0;
    let server = loop {
        let (server, secs, bad) = setup(dir, &warm_expected)?;
        failed += bad;
        setups.push(JsonValue::Num(secs));
        if setups.len() == SETUPS || setups.iter().filter_map(JsonValue::as_f64).sum::<f64>() >= 1.0
        {
            break server;
        }
    };
    let out = dir.join(format!("out-{}.jsonl", std::process::id()));
    let window = Duration::from_secs_f64(args.seconds);
    let win = io(
        "serve",
        closed::run(
            &server,
            &dir.join("stream.jsonl"),
            0,
            &out,
            window,
            u64::MAX,
            &mut Observer::disabled(),
        ),
    )?;
    let rss_mb = host::peak_rss_mb();
    let (seen, bad) = io(
        "check output",
        verify::check_output(&out, &stream_expected, 0),
    )?;
    failed += bad + win.completed.abs_diff(seen.len() as u64);
    let _ = std::fs::remove_file(&out);
    let us = |v: &[u64]| {
        JsonValue::Arr(
            v.iter()
                .map(|&ns| JsonValue::Num((ns as f64 / 10.0).round() / 100.0))
                .collect(),
        )
    };
    println!(
        "{}",
        JsonValue::Obj(vec![
            ("attempted".into(), JsonValue::Num(win.completed as f64)),
            ("failed".into(), JsonValue::Num(failed as f64)),
            ("window_s".into(), JsonValue::Num(win.seconds)),
            ("setup_s".into(), JsonValue::Arr(setups)),
            ("rss_mb".into(), JsonValue::Num(rss_mb)),
            ("lat_us".into(), us(&win.latency_ns)),
        ])
        .to_compact()
    );
    Ok(())
}

/// An in-memory access log the traced serve writes through the observer.
#[derive(Clone, Default)]
struct SharedLog(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl Write for SharedLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("log poisoned").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Length of one block of a traced part.
const BLOCK: Duration = Duration::from_millis(500);

/// A traced part. Blocks alternate: serve traced (access log and
/// allocation counting on), replay the block's lines layer by layer next
/// to a timed `handle_recorded` of each on a third server, then serve
/// untraced on a second server for the overhead baseline. Timing the
/// replay and its baseline line by line keeps host drift out of the
/// coverage ratio.
fn traced_child(
    args: &Args,
    dir: &Path,
    stream_expected: &[u64],
    warm_expected: &[u64],
) -> Res<()> {
    let stream = dir.join("stream.jsonl");
    let lines: Vec<String> = BufReader::new(io("open stream", std::fs::File::open(&stream))?)
        .lines()
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let calib_before = host::calib_ms();
    let steal0 = host::cpu_jiffies();
    let (traced_server, _, mut failed) = setup(dir, warm_expected)?;
    let (base_server, _, bad) = setup(dir, warm_expected)?;
    failed += bad;
    let (mirror, _, bad) = setup(dir, warm_expected)?;
    failed += bad;
    let mut rp = Replayer::new(serve_options());
    for line in BufReader::new(io(
        "open warm-up",
        std::fs::File::open(dir.join("warmup.jsonl")),
    )?)
    .lines()
    {
        rp.warm(&io("read warm-up", line)?);
    }
    let out = dir.join("out-traced.jsonl");
    let (mut traced_n, mut traced_s, mut base_n, mut base_s) = (0u64, 0.0f64, 0u64, 0.0f64);
    let (mut serve_allocs, mut handler_us, mut sched_us, mut cpu_ms) =
        (0u64, 0.0f64, 0.0f64, 0.0f64);
    let (mut server_hits, mut server_misses) = (0u64, 0u64);
    while traced_s + base_s < args.seconds {
        // Traced serve.
        let log = SharedLog::default();
        let mut observer = Observer::disabled().with_access_writer(Box::new(log.clone()));
        let (h0, m0) = (traced_server.cache().hits(), traced_server.cache().misses());
        alloc::set_counting(true);
        let a0 = alloc::allocs();
        let win = io(
            "serve traced",
            closed::run(
                &traced_server,
                &stream,
                traced_n,
                &out,
                BLOCK,
                u64::MAX,
                &mut observer,
            ),
        )?;
        serve_allocs += alloc::allocs() - a0;
        alloc::set_counting(false);
        drop(observer);
        server_hits += traced_server.cache().hits() - h0;
        server_misses += traced_server.cache().misses() - m0;
        let (served, bad) = io(
            "check traced output",
            verify::check_output(&out, stream_expected, traced_n),
        )?;
        failed += bad + win.completed.abs_diff(served.len() as u64);
        let log = std::mem::take(&mut *log.0.lock().expect("log poisoned"));
        for (rec, &lat) in String::from_utf8_lossy(&log).lines().zip(&win.latency_ns) {
            let total = JsonValue::parse(rec)
                .ok()
                .and_then(|v| v.get("total_us").and_then(JsonValue::as_f64))
                .unwrap_or(0.0);
            sched_us += (lat as f64 / 1e3 - total).max(0.0);
        }
        // Replay the same lines, each next to a timed `handle_recorded` of
        // it on a third server in the same state, so the coverage baseline
        // runs on this thread as the replay does. Which of the two goes
        // first alternates, so neither always finds the line warm in cache.
        alloc::set_counting(true);
        for (k, resp) in served.iter().enumerate() {
            let line = &lines[(traced_n as usize + k) % lines.len()];
            let mut handle = || {
                let t = Instant::now();
                let (out, rec, tel) = mirror.handle_recorded(line);
                handler_us += t.elapsed().as_secs_f64() * 1e6;
                drop((rec, tel));
                if out.as_bytes() != resp.as_slice() {
                    failed += 1;
                }
            };
            if k % 2 == 0 {
                handle();
                rp.replay(line, resp);
            } else {
                rp.replay(line, resp);
                handle();
            }
        }
        alloc::set_counting(false);
        traced_n += win.completed;
        traced_s += win.seconds;

        // Untraced baseline.
        let cpu0 = host::cpu_ms();
        let win = io(
            "serve",
            closed::run(
                &base_server,
                &stream,
                base_n,
                &out,
                BLOCK,
                u64::MAX,
                &mut Observer::disabled(),
            ),
        )?;
        cpu_ms += host::cpu_ms() - cpu0;
        let (served, bad) = io(
            "check output",
            verify::check_output(&out, stream_expected, base_n),
        )?;
        failed += bad + win.completed.abs_diff(served.len() as u64);
        base_n += win.completed;
        base_s += win.seconds;
    }
    let _ = std::fs::remove_file(&out);
    let steal = host::steal_pct(steal0, host::cpu_jiffies());
    let calib = median(&[calib_before, host::calib_ms()]);
    let t = rp.totals.clone();
    if t.mismatches > 0 {
        eprintln!(
            "servebench: {} replayed responses differ from the served bytes",
            t.mismatches
        );
    }
    if (t.hits, t.misses) != (server_hits, server_misses) {
        eprintln!(
            "servebench: replay cache {}/{} hits/misses, server {server_hits}/{server_misses}",
            t.hits, t.misses
        );
        failed += 1;
    }
    failed += t.mismatches;
    let traces = PathBuf::from(".servebench").join("traces");
    io("create trace dir", std::fs::create_dir_all(&traces))?;
    io(
        "write trace",
        std::fs::write(
            traces.join(format!(
                "{}-seed{}.trace.json",
                args.workload.name(),
                args.seed
            )),
            rp.chrome_trace(),
        ),
    )?;
    drop(rp);

    // Per-layer metrics.
    let n = t.requests.max(1) as f64;
    let per_req_us = |ns: u64| ns as f64 / 1e3 / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut layer_ns = t.layer_ns;
    layer_ns[0] = (sched_us * 1e3) as u64;
    let all_ns: u64 = layer_ns.iter().sum();
    let replayed_ns: u64 = t.layer_ns[1..].iter().sum();
    let mut layer_allocs = t.layer_allocs;
    layer_allocs[0] = serve_allocs.saturating_sub(t.layer_allocs.iter().sum());
    let coverage = ratio(replayed_ns as f64 / 1e3, handler_us) * 100.0;
    if coverage < 90.0 {
        eprintln!("servebench: trace coverage {coverage:.1}% is below 90%");
    }
    let lookups = (t.hits + t.misses) as f64;
    let (sim_ns, sweep_ns) = (t.layer_ns[5], t.layer_ns[6]);
    let traced_tput = ratio(traced_n as f64, traced_s);
    let base_tput = ratio(base_n as f64, base_s);
    let mut layers: Vec<(String, f64)> = vec![
        ("serve.sched.us_per_req".into(), sched_us / n),
        ("serve.cpu_ms_per_req".into(), ratio(cpu_ms, base_n as f64)),
        ("ir.json.parse.us_per_req".into(), per_req_us(t.parse_ns)),
        (
            "ir.json.parse.ns_per_byte".into(),
            ratio(t.parse_ns as f64, t.bytes as f64),
        ),
        ("ir.json.bytes_per_req".into(), t.bytes as f64 / n),
        ("ir.json.encode.us_per_req".into(), per_req_us(t.encode_ns)),
        ("ir.decode.us_per_req".into(), per_req_us(t.decode_ns)),
        (
            "ir.to_circuit.us_per_req".into(),
            per_req_us(t.to_circuit_ns),
        ),
        ("ir.hash.us_per_req".into(), per_req_us(t.hash_ns)),
        ("ir.cache.us_per_req".into(), per_req_us(t.layer_ns[3])),
        ("ir.cache.hit_ratio".into(), ratio(t.hits as f64, lookups)),
        ("ir.cache.evictions_per_req".into(), t.evictions as f64 / n),
        (
            "compiled.us_per_compile".into(),
            ratio(t.layer_ns[4] as f64 / 1e3, t.misses as f64),
        ),
        ("compiled.compiles_per_req".into(), t.misses as f64 / n),
        ("sim.us_per_req".into(), per_req_us(sim_ns)),
        ("sim.dispatches_per_req".into(), t.dispatches as f64 / n),
        (
            "sim.ns_per_dispatch".into(),
            ratio(sim_ns as f64, t.dispatches as f64),
        ),
        ("sweep.us_per_req".into(), per_req_us(sweep_ns)),
        ("sweep.trials_per_req".into(), t.trials as f64 / n),
        (
            "sweep.us_per_trial".into(),
            ratio(sweep_ns as f64 / 1e3, t.trials as f64),
        ),
        ("margins.us_per_req".into(), per_req_us(t.layer_ns[7])),
        ("margins.cells_per_req".into(), t.cells as f64 / n),
        ("ta.translate.us_per_req".into(), per_req_us(t.translate_ns)),
        ("ta.mc.us_per_req".into(), per_req_us(t.mc_ns)),
        ("ta.mc.states_per_req".into(), t.states as f64 / n),
        (
            "ta.mc.us_per_state".into(),
            ratio(t.mc_ns as f64 / 1e3, t.states as f64),
        ),
        ("trace.coverage_pct".into(), coverage),
        (
            "trace.overhead_pct".into(),
            (ratio(base_tput, traced_tput) - 1.0) * 100.0,
        ),
        ("host.calib_ms".into(), calib),
        ("host.steal_pct".into(), steal),
    ];
    for l in 0..LAYERS.len() {
        layers.push((
            SHARE_NAMES[l].into(),
            ratio(layer_ns[l] as f64, all_ns as f64) * 100.0,
        ));
        layers.push((ALLOC_NAMES[l].into(), layer_allocs[l] as f64 / n));
    }
    let shares: Vec<String> = LAYERS
        .iter()
        .enumerate()
        .map(|(l, name)| {
            format!(
                "{name} {:.1}%",
                ratio(layer_ns[l] as f64, all_ns as f64) * 100.0
            )
        })
        .collect();
    eprintln!(
        "servebench: {} shares {}; coverage {coverage:.1}%; overhead {:.1}%",
        args.workload.name(),
        shares.join(", "),
        (ratio(base_tput, traced_tput) - 1.0) * 100.0
    );
    println!(
        "{}",
        JsonValue::Obj(vec![
            (
                "attempted".into(),
                JsonValue::Num((traced_n + base_n) as f64)
            ),
            ("failed".into(), JsonValue::Num(failed as f64)),
            (
                "layers".into(),
                JsonValue::Obj(
                    layers
                        .into_iter()
                        .map(|(k, v)| (k, JsonValue::Num(v)))
                        .collect()
                ),
            ),
        ])
        .to_compact()
    );
    Ok(())
}
