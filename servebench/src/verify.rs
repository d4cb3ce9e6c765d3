//! Response verification.
//!
//! A reference pass answers every distinct line once on a fresh server.
//! Each reference must be `"ok":true` (every generated request is
//! expected to succeed), and a seeded sample is checked against direct
//! library runs: `simulate` events against [`Simulation::run`], and
//! `model_check` verdicts against [`rlse_ta::mc::check_with_telemetry`].
//! Every timed response must then equal its line's reference byte for
//! byte.

use crate::gen::{Corpus, Rng};
use rlse_core::ir::json::JsonValue;
use rlse_core::prelude::*;
use rlse_serve::{ServeOptions, Server};
use rlse_ta::prelude::*;
use std::io::BufRead;
use std::path::Path;

impl Reference {
    /// Expected fingerprints in `order` (indices into the distinct lines).
    pub fn expected(&self, order: &[u32]) -> Vec<u64> {
        order.iter().map(|&i| self.hashes[i as usize]).collect()
    }
}

/// FNV-1a 64 over a response line: the reference fingerprint.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The reference pass's outcome.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    /// Fingerprint of each distinct line's response.
    pub hashes: Vec<u64>,
    /// Reference responses that failed a check, described.
    pub failures: Vec<String>,
    /// Responses checked against a direct library run.
    pub cross_checked: usize,
}

/// Lines cross-checked against the library, per request kind.
const SAMPLE: usize = 6;

/// Answer every distinct line once on a fresh server and check the
/// answers (see the module docs).
pub fn reference(corpus: &Corpus, opts: ServeOptions, seed: u64) -> Reference {
    let server = Server::new(opts);
    let mut r = Reference::default();
    let mut responses = Vec::with_capacity(corpus.distinct.len());
    for line in &corpus.distinct {
        let resp = server.handle_line(line);
        if !resp.contains("\"ok\":true") {
            r.failures.push(format!("not ok: {}", head(&resp)));
        }
        r.hashes.push(fingerprint(resp.as_bytes()));
        responses.push(resp);
    }
    let mut rng = Rng::new(seed ^ 0xC4EC);
    for kind in ["simulate", "model_check"] {
        let mut lines: Vec<usize> = (0..corpus.distinct.len())
            .filter(|&i| corpus.distinct[i].contains(&format!("\"kind\":\"{kind}\"")))
            .collect();
        rng.shuffle(&mut lines);
        for &i in lines.iter().take(SAMPLE) {
            let line = &corpus.distinct[i];
            let outcome = if kind == "simulate" {
                check_simulate(line, &responses[i])
            } else {
                check_model(line, &responses[i], opts)
            };
            r.cross_checked += 1;
            if let Err(e) = outcome {
                r.failures.push(format!("{kind} line {i}: {e}"));
            }
        }
    }
    r
}

fn head(s: &str) -> &str {
    &s[..s.len().min(200)]
}

fn request_ir(line: &str) -> Result<(JsonValue, Ir), String> {
    let req = JsonValue::parse(line).map_err(|e| e.to_string())?;
    let ir = Ir::from_value(req.get("ir").ok_or("no ir")?).map_err(|e| e.to_string())?;
    Ok((req, ir))
}

/// The events object exactly as the server encodes it.
pub fn events_json(events: &Events) -> JsonValue {
    JsonValue::Obj(
        events
            .names()
            .map(|n| {
                let times = events.times(n).iter().map(|&t| JsonValue::Num(t)).collect();
                (n.to_string(), JsonValue::Arr(times))
            })
            .collect(),
    )
}

fn check_simulate(line: &str, resp: &str) -> Result<(), String> {
    let (_, ir) = request_ir(line)?;
    let events = Simulation::new(ir.to_circuit().map_err(|e| e.to_string())?)
        .run()
        .map_err(|e| e.to_string())?;
    let served = JsonValue::parse(resp).map_err(|e| e.to_string())?;
    let served = served.get("events").ok_or("no events")?.to_compact();
    if served != events_json(&events).to_compact() {
        return Err("events differ from a direct Simulation::run".into());
    }
    Ok(())
}

fn check_model(line: &str, resp: &str, opts: ServeOptions) -> Result<(), String> {
    let (req, ir) = request_ir(line)?;
    let tr = translate_circuit(&ir.to_circuit().map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let mc_opts = McOptions {
        max_states: req
            .get("max_states")
            .and_then(JsonValue::as_usize)
            .unwrap_or(opts.max_states)
            .min(opts.max_states),
        max_seconds: opts.max_seconds,
        threads: 1,
    };
    let queries = if ir.queries.is_empty() {
        vec![IrQuery::NoErrorState]
    } else {
        ir.queries.clone()
    };
    let served = JsonValue::parse(resp).map_err(|e| e.to_string())?;
    let results = served
        .get("results")
        .and_then(JsonValue::as_arr)
        .ok_or("no results")?;
    if results.len() != queries.len() {
        return Err("result count differs".into());
    }
    for (q, got) in queries.iter().zip(results) {
        let want =
            rlse_ta::mc::check_with_telemetry(&tr.net, &McQuery::from_ir(&tr, q), mc_opts, None);
        let holds = got.get("holds").and_then(JsonValue::as_bool);
        let states = got.get("states").and_then(JsonValue::as_usize);
        if holds != want.holds || states != Some(want.states()) {
            return Err(format!(
                "verdict {holds:?}/{states:?} differs from a direct check {:?}/{}",
                want.holds,
                want.states()
            ));
        }
    }
    Ok(())
}

/// Read the responses in `out` and count those that differ from their
/// reference; the k-th response answers the stream line `start + k`,
/// whose fingerprint is `expected[(start + k) % expected.len()]`.
///
/// # Errors
///
/// I/O errors reading `out`.
pub fn check_output(
    out: &Path,
    expected: &[u64],
    start: u64,
) -> std::io::Result<(Vec<Vec<u8>>, u64)> {
    let reader = std::io::BufReader::new(std::fs::File::open(out)?);
    let lines: Vec<Vec<u8>> = reader.split(b'\n').collect::<Result<_, _>>()?;
    let failed = lines
        .iter()
        .enumerate()
        .filter(|(k, line)| fingerprint(line) != expected[(start as usize + k) % expected.len()])
        .count();
    Ok((lines, failed as u64))
}
