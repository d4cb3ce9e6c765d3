//! Parallel Monte-Carlo sweeps over a circuit under timing variability
//! (paper §5.2 / Fig. 13 and the Table 2 robustness experiments).
//!
//! The paper's variability analysis needs thousands of independent
//! simulation trials with Gaussian jitter on every propagation delay. A
//! [`Sweep`] fans those trials out across a thread pool while staying
//! **deterministic**: each trial's RNG seed is derived from the master seed
//! with a SplitMix64 finalizer over the trial index, so trial *i* sees the
//! same jitter stream no matter which thread runs it or how many threads
//! exist. Per-trial statistics are reduced on the driving thread in trial
//! order, so the aggregated [`SweepReport`] is **bit-identical** for a given
//! master seed at any thread count and any batch width.
//!
//! ## One engine
//!
//! Every hole-free circuit runs on the [lane kernel](batch): the circuit is
//! built and compiled once per sweep, and blocks of
//! [`batch_width`](Sweep::batch_width) trials advance over dense per-lane
//! arrays through the simulator's own Dispatch step. Each trial's verdict
//! and pulse times equal those of a fresh [`Simulation`] run with the
//! trial's seed — the property `tests/sweep_batch_differential.rs` checks
//! trial by trial.
//!
//! Circuits containing [`Hole`](crate::functional::Hole) nodes take the one
//! fallback: a single [`Simulation`] on the calling thread, reused across
//! trials via [`Simulation::reset`]. Hole closures may carry arbitrary
//! internal state, which lane-blocked or multi-worker execution would
//! split.
//!
//! ## Telemetry
//!
//! With a handle attached ([`Sweep::telemetry`]) both paths report the
//! simulator's `sim.*` counters summed over trials (see the
//! [kernel docs](batch#telemetry) for the schema), plus the sweep's own
//! verdict counters `sweep.runs`, `sweep.trials`, `sweep.ok`,
//! `sweep.check_failures`, `sweep.timing_violations` and
//! `sweep.other_errors`, a `sweep.run` span on track 0 and one
//! `sweep.worker` span per worker on tracks 1…T.
//!
//! ```
//! use rlse_core::prelude::*;
//! use rlse_core::machine::{EdgeDef, Machine};
//! use rlse_core::sweep::Sweep;
//!
//! # fn main() -> Result<(), rlse_core::Error> {
//! let jtl = Machine::new("JTL", &["a"], &["q"], 5.0, 2, &[EdgeDef {
//!     src: "idle", trigger: "a", dst: "idle", firing: "q", ..EdgeDef::default()
//! }])?;
//! let report = Sweep::over(move || {
//!     let mut c = Circuit::new();
//!     let a = c.inp_at(&[10.0], "A");
//!     let q = c.add_machine(&jtl, &[a]).unwrap()[0];
//!     c.inspect(q, "Q");
//!     c
//! })
//! .variability(|| Variability::Gaussian { std: 0.3 })
//! .trials(256)
//! .master_seed(42)
//! .run();
//! assert_eq!(report.trials, 256);
//! let q = report.output("Q").unwrap();
//! assert!((q.mean - 15.0).abs() < 0.5);
//! # Ok(())
//! # }
//! ```

use crate::circuit::{Circuit, NodeKind};
use crate::error::{Error, Time};
use crate::events::Events;
use crate::sim::{Simulation, Variability};
use crate::telemetry::Telemetry;

pub mod batch;

/// SplitMix64 finalizer: derive the RNG seed of trial `trial` from the
/// sweep's master seed. A pure function of `(master, trial)`, so the
/// assignment of trials to threads cannot perturb any trial's jitter stream.
pub fn trial_seed(master: u64, trial: u64) -> u64 {
    let mut z = master
        .wrapping_add(trial.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Firing-time statistics for one observed output wire, aggregated over
/// every successful trial of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputStats {
    /// The observed wire's name.
    pub name: String,
    /// Total pulses seen on the wire across all successful trials.
    pub pulses: u64,
    /// Mean firing time over those pulses.
    pub mean: Time,
    /// Standard deviation of the firing times.
    pub std: Time,
    /// Earliest firing time seen.
    pub min: Time,
    /// Latest firing time seen.
    pub max: Time,
}

/// The aggregate of one Monte-Carlo sweep (see [`Sweep::run`]).
///
/// Comparable with `==`: two reports from the same circuit builder, trial
/// count, and master seed are bit-identical regardless of thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Number of trials executed.
    pub trials: u64,
    /// Trials that simulated cleanly and passed the output check (if any).
    pub ok: u64,
    /// Trials that simulated cleanly but failed the output check.
    pub check_failures: u64,
    /// Trials aborted by a timing violation (an error transition — the
    /// paper's transition-time or past-constraint errors).
    pub timing_violations: u64,
    /// Trials aborted by any other simulation error.
    pub other_errors: u64,
    /// Per-output firing-time statistics, sorted by wire name.
    pub outputs: Vec<OutputStats>,
}

impl SweepReport {
    /// Fraction of trials that did not end in `ok` (0.0 when no trials ran).
    pub fn failure_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            (self.trials - self.ok) as f64 / self.trials as f64
        }
    }

    /// Statistics for the named output wire, if it was observed.
    pub fn output(&self, name: &str) -> Option<&OutputStats> {
        self.outputs.iter().find(|o| o.name == name)
    }
}

/// Per-trial, per-output accumulator (count/sum/sum-of-squares/min/max).
/// Computed identically for a trial regardless of scheduling, then folded
/// serially in trial order — the key to bit-identical reports.
#[derive(Debug, Clone, Copy)]
struct OutAcc {
    count: u64,
    sum: f64,
    sumsq: f64,
    min: f64,
    max: f64,
}

impl OutAcc {
    fn empty() -> Self {
        OutAcc {
            count: 0,
            sum: 0.0,
            sumsq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn of(times: &[Time]) -> Self {
        let mut acc = OutAcc::empty();
        for &t in times {
            acc.count += 1;
            acc.sum += t;
            acc.sumsq += t * t;
            acc.min = acc.min.min(t);
            acc.max = acc.max.max(t);
        }
        acc
    }

    fn fold(&mut self, other: &OutAcc) {
        self.count += other.count;
        self.sum += other.sum;
        self.sumsq += other.sumsq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// What one trial produced.
#[derive(Debug, Clone)]
enum TrialOutcome {
    /// Clean simulation: per-output stats (aligned with the sweep's sorted
    /// output-name list) and the check verdict.
    Done { per_output: Vec<OutAcc>, check_ok: bool },
    /// Aborted by a timing violation (error transition).
    Timing,
    /// Aborted by any other error.
    Other,
}

impl TrialOutcome {
    fn verdict(&self) -> TrialVerdict {
        match self {
            TrialOutcome::Done { check_ok: true, .. } => TrialVerdict::Ok,
            TrialOutcome::Done { check_ok: false, .. } => TrialVerdict::CheckFailed,
            TrialOutcome::Timing => TrialVerdict::Timing,
            TrialOutcome::Other => TrialVerdict::Other,
        }
    }
}

/// The pass/fail classification of one trial, as exposed by
/// [`Sweep::run_detailed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialVerdict {
    /// Clean simulation, check passed (or no check installed).
    Ok,
    /// Clean simulation, check failed.
    CheckFailed,
    /// Aborted by a timing violation.
    Timing,
    /// Aborted by any other simulation error.
    Other,
}

/// One trial's full result: its verdict and, for clean trials, every pulse
/// time on every observed output (aligned with [`SweepDetails::names`];
/// empty for aborted trials, whose events are discarded).
#[derive(Debug, Clone, PartialEq)]
pub struct TrialDetail {
    /// The trial index (0-based, the same index [`trial_seed`] consumes).
    pub trial: u64,
    /// How the trial ended.
    pub verdict: TrialVerdict,
    /// Per-output pulse times, one list per name in
    /// [`SweepDetails::names`] order. Empty for aborted trials.
    pub outputs: Vec<Vec<Time>>,
}

/// Per-trial results of a sweep (see [`Sweep::run_detailed`]): the
/// differential-testing view, where every verdict and pulse time is exposed
/// instead of aggregated. Comparable with `==`; equal inputs produce
/// bit-identical details regardless of thread count or batch width.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepDetails {
    /// Observed output names, sorted ascending.
    pub names: Vec<String>,
    /// One entry per trial, in trial order.
    pub trials: Vec<TrialDetail>,
}

/// Why a sweep refused to start (detected on the probe build, before any
/// trial runs).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SweepError {
    /// A [`Variability::PerCellType`] map names cell types that do not
    /// exist in the circuit. Unmatched keys used to be a silent no-op (the
    /// sigma resolver's NaN "no jitter" sentinel), so a typo'd key ran the
    /// whole sweep at σ = 0 with no diagnostic.
    UnknownCellTypes {
        /// The keys with no matching cell type, sorted ascending.
        unmatched: Vec<String>,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::UnknownCellTypes { unmatched } => {
                let keys = unmatched
                    .iter()
                    .map(|k| format!("'{k}'"))
                    .collect::<Vec<_>>()
                    .join(", ");
                write!(
                    f,
                    "per-cell-type variability names cell types not present in the \
                     circuit: {keys}"
                )
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// Check a variability value against the probe circuit before the sweep
/// starts: every key of a [`Variability::PerCellType`] map must name a cell
/// type (machine or hole) that actually occurs in the circuit.
pub(crate) fn validate_variability(
    v: Option<&Variability>,
    probe: &Circuit,
) -> Result<(), SweepError> {
    let Some(Variability::PerCellType(map)) = v else {
        return Ok(());
    };
    let mut cell_types = std::collections::HashSet::new();
    for n in &probe.nodes {
        match &n.kind {
            NodeKind::Machine { spec, .. } => {
                cell_types.insert(spec.name());
            }
            NodeKind::Hole(h) => {
                cell_types.insert(h.name());
            }
            NodeKind::Source { .. } => {}
        }
    }
    let mut unmatched: Vec<String> = map
        .keys()
        .filter(|k| !cell_types.contains(k.as_str()))
        .cloned()
        .collect();
    if unmatched.is_empty() {
        Ok(())
    } else {
        unmatched.sort();
        Err(SweepError::UnknownCellTypes { unmatched })
    }
}

/// The sorted observed-wire name list shared by every trial of a sweep
/// (sorted ascending, which matches the `Events` BTreeMap iteration order).
fn observed_names(probe: &Circuit) -> Vec<String> {
    let mut names: Vec<String> = (0..probe.wire_count())
        .map(|i| probe.wire_at(i))
        .filter(|w| probe.wire_observed(*w))
        .map(|w| probe.wire_name(w).to_string())
        .collect();
    names.sort();
    names
}

/// Serial, trial-ordered reduction of per-trial outcomes into a
/// [`SweepReport`]. Both execution paths feed it outcomes in trial order,
/// so the floating-point accumulation order — and therefore the report —
/// is bitwise-equal whenever the outcomes are.
fn reduce(names: Vec<String>, trials: u64, records: &[TrialOutcome]) -> SweepReport {
    let mut accs: Vec<OutAcc> = vec![OutAcc::empty(); names.len()];
    let (mut ok, mut check_failures, mut timing, mut other) = (0u64, 0u64, 0u64, 0u64);
    for rec in records {
        match rec {
            TrialOutcome::Done {
                per_output,
                check_ok,
            } => {
                if *check_ok {
                    ok += 1;
                } else {
                    check_failures += 1;
                }
                for (acc, one) in accs.iter_mut().zip(per_output) {
                    acc.fold(one);
                }
            }
            TrialOutcome::Timing => timing += 1,
            TrialOutcome::Other => other += 1,
        }
    }

    let outputs = names
        .into_iter()
        .zip(accs)
        .map(|(name, a)| {
            let n = a.count as f64;
            let (mean, std, min, max) = if a.count == 0 {
                (0.0, 0.0, 0.0, 0.0)
            } else {
                let mean = a.sum / n;
                let var = (a.sumsq / n - mean * mean).max(0.0);
                (mean, var.sqrt(), a.min, a.max)
            };
            OutputStats {
                name,
                pulses: a.count,
                mean,
                std,
                min,
                max,
            }
        })
        .collect();

    SweepReport {
        trials,
        ok,
        check_failures,
        timing_violations: timing,
        other_errors: other,
        outputs,
    }
}

/// The boxed per-trial acceptance predicate installed by [`Sweep::check`].
type CheckFn<'a> = Box<dyn Fn(&Events) -> bool + Sync + 'a>;

/// Per-trial outcomes in trial order, plus every trial's output pulse
/// times (one list per observed name, empty for aborted trials) when a
/// detailed run asked for them.
type Outcomes = (Vec<TrialOutcome>, Option<Vec<Vec<Vec<Time>>>>);

/// A deterministically-seeded, parallel Monte-Carlo sweep builder.
///
/// See the [module docs](self) for the determinism contract and an example.
pub struct Sweep<'a> {
    build: Box<dyn Fn() -> Circuit + Sync + 'a>,
    variability: Option<Box<dyn Fn() -> Variability + Sync + 'a>>,
    check: Option<CheckFn<'a>>,
    trials: u64,
    master_seed: u64,
    threads: usize,
    batch_width: usize,
    until: Option<Time>,
    telemetry: Telemetry,
}

impl std::fmt::Debug for Sweep<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("trials", &self.trials)
            .field("master_seed", &self.master_seed)
            .field("threads", &self.threads)
            .field("batch_width", &self.batch_width)
            .field("until", &self.until)
            .finish_non_exhaustive()
    }
}

impl<'a> Sweep<'a> {
    /// Start a sweep over the circuit produced by `build`. The builder is
    /// called once per run, for the probe circuit that is checked, compiled
    /// and simulated; it must be deterministic.
    pub fn over(build: impl Fn() -> Circuit + Sync + 'a) -> Self {
        Sweep {
            build: Box::new(build),
            variability: None,
            check: None,
            trials: 100,
            master_seed: 0,
            threads: 0,
            batch_width: 16,
            until: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a [`Telemetry`] handle. Trials report the simulator's `sim.*`
    /// counters (summed over trials, so the resulting
    /// [`TelemetryReport`](crate::telemetry::TelemetryReport) is
    /// bit-identical at any thread count and batch width), workers record
    /// `sweep.worker` spans on 1-based timeline tracks, and the sweep itself
    /// adds `sweep.*` counters plus a `sweep.run` span on track 0.
    pub fn telemetry(mut self, tel: &Telemetry) -> Self {
        self.telemetry = tel.clone();
        self
    }

    /// Set the number of independent trials (default 100).
    pub fn trials(mut self, trials: u64) -> Self {
        self.trials = trials;
        self
    }

    /// Set the master seed from which every trial's RNG stream is derived
    /// (default 0).
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Set the worker thread count. `0` (the default) uses the machine's
    /// available parallelism. The thread count affects wall-clock only,
    /// never the report's contents. Circuits with holes run serially.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the batch width `W`: how many trials (lanes) one block of the
    /// lane kernel advances over one shared set of dense arrays (default
    /// 16). Wider blocks amortize block setup over more lanes but touch more
    /// state per cell; like the thread count, the width can never change the
    /// results, only the wall clock.
    pub fn batch_width(mut self, width: usize) -> Self {
        self.batch_width = width.max(1);
        self
    }

    /// Simulate each trial only until the given time (required for circuits
    /// with feedback loops).
    pub fn until(mut self, t: Time) -> Self {
        self.until = Some(t);
        self
    }

    /// Apply a variability model to every trial. The factory is called once
    /// per trial, so stateful [`Variability::Custom`] closures start fresh
    /// each time.
    pub fn variability(mut self, factory: impl Fn() -> Variability + Sync + 'a) -> Self {
        self.variability = Some(Box::new(factory));
        self
    }

    /// Add a per-trial output check (e.g. "outputs are rank-ordered"); a
    /// clean simulation whose events fail the check counts as a
    /// `check_failure` instead of `ok`. The check sees the events a
    /// simulation of the trial returns. Lanes record the observed wires
    /// only, so a trial whose check reads an internal wire is simulated
    /// once more for its verdict (the check then runs twice).
    pub fn check(mut self, check: impl Fn(&Events) -> bool + Sync + 'a) -> Self {
        self.check = Some(Box::new(check));
        self
    }

    /// Workers to spawn for `n_blocks` blocks of work.
    fn effective_threads(&self, n_blocks: usize) -> usize {
        let t = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        };
        t.min(n_blocks).max(1)
    }

    /// Execute the sweep and aggregate the per-trial results.
    ///
    /// Trials run in blocks dealt to workers; their outcomes are folded on
    /// the calling thread in trial order. Floating-point accumulation order
    /// is therefore fixed, making the report bit-identical at any thread
    /// count and batch width.
    ///
    /// # Panics
    ///
    /// Panics if the circuit builder produces an ill-formed circuit (the
    /// per-trial simulation errors are *counted*, not propagated, but a
    /// wiring error on the probe build is a bug in the builder), or if the
    /// sweep configuration is invalid — see [`try_run`](Self::try_run) for
    /// the non-panicking form.
    pub fn run(&self) -> SweepReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run`](Self::run), but invalid sweep configuration (e.g. a
    /// [`Variability::PerCellType`] map naming cell types absent from the
    /// circuit) is reported as a [`SweepError`] instead of a panic.
    ///
    /// # Errors
    ///
    /// [`SweepError::UnknownCellTypes`] when per-cell-type variability keys
    /// do not match any cell type in the circuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit builder produces an ill-formed circuit.
    pub fn try_run(&self) -> Result<SweepReport, SweepError> {
        let (names, (outcomes, _)) = self.execute(false)?;
        Ok(reduce(names, self.trials, &outcomes))
    }

    /// Run every trial and return its individual verdict and output pulse
    /// times instead of the aggregate — the view the differential tests
    /// compare, trial by trial, against per-trial [`Simulation`] runs.
    ///
    /// # Panics
    ///
    /// Panics if the circuit builder produces an ill-formed circuit or the
    /// sweep configuration is invalid, as [`run`](Self::run) does.
    pub fn run_detailed(&self) -> SweepDetails {
        self.try_run_detailed().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run_detailed`](Self::run_detailed) with invalid sweep configuration
    /// reported as a [`SweepError`] instead of a panic.
    ///
    /// # Errors
    ///
    /// [`SweepError::UnknownCellTypes`] when per-cell-type variability keys
    /// do not match any cell type in the circuit.
    ///
    /// # Panics
    ///
    /// Panics if the circuit builder produces an ill-formed circuit.
    pub fn try_run_detailed(&self) -> Result<SweepDetails, SweepError> {
        let (names, (outcomes, outputs)) = self.execute(true)?;
        let trials = outcomes
            .iter()
            .zip(outputs.expect("outputs requested"))
            .enumerate()
            .map(|(i, (outcome, outputs))| TrialDetail {
                trial: i as u64,
                verdict: outcome.verdict(),
                outputs,
            })
            .collect();
        Ok(SweepDetails { names, trials })
    }

    /// Build and validate the probe circuit, run every trial on the lane
    /// kernel (or the hole fallback), and record the sweep's telemetry.
    fn execute(&self, want_outputs: bool) -> Result<(Vec<String>, Outcomes), SweepError> {
        let t_sweep = self.telemetry.now();
        let probe = (self.build)();
        probe.check().expect("sweep circuit builder must be valid");
        let v = self.variability.as_ref().map(|f| f());
        validate_variability(v.as_ref(), &probe)?;
        let names = observed_names(&probe);
        let has_holes = probe
            .nodes
            .iter()
            .any(|n| matches!(n.kind, NodeKind::Hole(_)));
        let out = if has_holes {
            self.run_holes(probe, &names, want_outputs)
        } else {
            batch::execute(self, &probe, &names, want_outputs)
        };

        if self.telemetry.is_enabled() {
            // Verdict counters come from the trial-ordered outcomes, so
            // they are as deterministic as the report itself.
            let count = |v| out.0.iter().filter(|o| o.verdict() == v).count() as u64;
            self.telemetry.add_many(&[
                ("sweep.runs", 1),
                ("sweep.trials", self.trials),
                ("sweep.ok", count(TrialVerdict::Ok)),
                ("sweep.check_failures", count(TrialVerdict::CheckFailed)),
                ("sweep.timing_violations", count(TrialVerdict::Timing)),
                ("sweep.other_errors", count(TrialVerdict::Other)),
            ]);
            if let Some(t0) = t_sweep {
                self.telemetry.record_span("sweep.run", 0, t0, self.trials);
            }
        }
        Ok((names, out))
    }

    /// The hole fallback: every trial on one [`Simulation`] of the probe
    /// circuit, serially on the calling thread (track 1).
    fn run_holes(&self, probe: Circuit, names: &[String], want_outputs: bool) -> Outcomes {
        let mut sim = Simulation::new(probe);
        sim.set_until(self.until);
        sim.set_telemetry(&self.telemetry);
        sim.set_telemetry_track(1);
        let t_worker = self.telemetry.now();
        let mut outcomes = Vec::with_capacity(self.trials as usize);
        let mut outputs = want_outputs.then(|| Vec::with_capacity(self.trials as usize));
        for trial in 0..self.trials {
            let events = self.simulate(&mut sim, trial);
            if let Some(out) = &mut outputs {
                out.push(match &events {
                    Ok(ev) => names.iter().map(|n| ev.times(n).to_vec()).collect(),
                    Err(_) => Vec::new(),
                });
            }
            outcomes.push(match events {
                Ok(ev) => TrialOutcome::Done {
                    per_output: names.iter().map(|n| OutAcc::of(ev.times(n))).collect(),
                    check_ok: self.check.as_ref().is_none_or(|c| c(&ev)),
                },
                Err(Error::Timing(_)) => TrialOutcome::Timing,
                Err(_) => TrialOutcome::Other,
            });
        }
        if let Some(t0) = t_worker {
            self.telemetry
                .record_span("sweep.worker", 1, t0, self.trials);
        }
        (outcomes, outputs)
    }

    /// Run trial `trial` on `sim`: the trial's seed and a fresh variability
    /// model from the factory.
    fn simulate(&self, sim: &mut Simulation, trial: u64) -> Result<Events, Error> {
        sim.set_seed(trial_seed(self.master_seed, trial));
        sim.set_variability(self.variability.as_ref().map(|f| f()));
        sim.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{EdgeDef, Machine};
    use std::sync::Arc;

    fn jtl(delay: f64) -> Arc<Machine> {
        Machine::new(
            "JTL",
            &["a"],
            &["q"],
            delay,
            2,
            &[EdgeDef {
                src: "idle",
                trigger: "a",
                dst: "idle",
                firing: "q",
                ..Default::default()
            }],
        )
        .unwrap()
    }

    fn chain_builder() -> impl Fn() -> Circuit + Sync {
        move || {
            let mut c = Circuit::new();
            let a = c.inp_at(&[10.0, 30.0], "A");
            let q1 = c.add_machine(&jtl(5.0), &[a]).unwrap()[0];
            let q2 = c.add_machine(&jtl(5.0), &[q1]).unwrap()[0];
            c.inspect(q2, "Q");
            c
        }
    }

    #[test]
    fn sweep_without_variability_is_exact() {
        let report = Sweep::over(chain_builder()).trials(16).run();
        assert_eq!(report.ok, 16);
        assert_eq!(report.failure_rate(), 0.0);
        let q = report.output("Q").unwrap();
        assert_eq!(q.pulses, 32); // 2 pulses × 16 trials
        assert_eq!(q.min, 20.0);
        assert_eq!(q.max, 40.0);
        assert!((q.mean - 30.0).abs() < 1e-9);
    }

    #[test]
    fn same_seed_same_report_across_thread_counts() {
        let sweep = |threads| {
            Sweep::over(chain_builder())
                .variability(|| Variability::Gaussian { std: 0.4 })
                .trials(64)
                .master_seed(7)
                .threads(threads)
                .run()
        };
        let serial = sweep(1);
        let parallel = sweep(4);
        let excessive = sweep(64);
        assert_eq!(serial, parallel);
        assert_eq!(serial, excessive);
    }

    #[test]
    fn different_master_seeds_differ() {
        let sweep = |seed| {
            Sweep::over(chain_builder())
                .variability(|| Variability::Gaussian { std: 0.4 })
                .trials(32)
                .master_seed(seed)
                .run()
        };
        assert_ne!(sweep(1), sweep(2));
    }

    #[test]
    fn per_cell_type_with_unknown_keys_refuses_to_start() {
        let vars = || {
            let mut m = std::collections::HashMap::new();
            m.insert("JTLL".to_string(), 0.4);
            m.insert("DRO".to_string(), 0.2);
            m.insert("JTL".to_string(), 0.1);
            Variability::PerCellType(m)
        };
        let err = Sweep::over(chain_builder())
            .variability(vars)
            .trials(4)
            .try_run()
            .unwrap_err();
        assert_eq!(
            err,
            SweepError::UnknownCellTypes {
                unmatched: vec!["DRO".to_string(), "JTLL".to_string()],
            }
        );
        assert!(err.to_string().contains("'DRO', 'JTLL'"));
        let detailed = Sweep::over(chain_builder())
            .variability(vars)
            .trials(4)
            .try_run_detailed()
            .unwrap_err();
        assert_eq!(detailed, err);
    }

    #[test]
    #[should_panic(expected = "per-cell-type variability names cell types")]
    fn run_panics_on_unknown_per_cell_type_keys() {
        let vars = || {
            let mut m = std::collections::HashMap::new();
            m.insert("NO_SUCH_CELL".to_string(), 0.4);
            Variability::PerCellType(m)
        };
        let _ = Sweep::over(chain_builder()).variability(vars).trials(2).run();
    }

    #[test]
    fn per_cell_type_with_matching_keys_runs() {
        let vars = || {
            let mut m = std::collections::HashMap::new();
            m.insert("JTL".to_string(), 0.4);
            Variability::PerCellType(m)
        };
        let report = Sweep::over(chain_builder())
            .variability(vars)
            .trials(8)
            .try_run()
            .unwrap();
        assert_eq!(report.trials, 8);
    }

    #[test]
    fn hole_names_count_as_cell_types_for_variability() {
        use crate::functional::Hole;
        let build = || {
            let mut c = Circuit::new();
            let a = c.inp_at(&[10.0], "A");
            let h = Hole::new("MODEL", 1.0, &["a"], &["q"], |ins: &[bool], _| {
                vec![ins[0]]
            });
            let q = c.add_hole(h, &[a]).unwrap()[0];
            c.inspect(q, "Q");
            c
        };
        let vars = || {
            let mut m = std::collections::HashMap::new();
            m.insert("MODEL".to_string(), 0.0);
            Variability::PerCellType(m)
        };
        let report = Sweep::over(build)
            .variability(vars)
            .trials(2)
            .try_run()
            .unwrap();
        assert_eq!(report.trials, 2);
    }

    #[test]
    fn check_failures_are_counted() {
        let report = Sweep::over(chain_builder())
            .trials(10)
            .check(|ev| ev.times("Q").len() == 3) // actually 2: always fails
            .run();
        assert_eq!(report.ok, 0);
        assert_eq!(report.check_failures, 10);
        assert_eq!(report.failure_rate(), 1.0);
    }

    #[test]
    fn timing_violations_are_counted_not_propagated() {
        // A machine with a 10 ps transition time fed pulses 1 ps apart
        // violates on every trial.
        let m = Machine::new(
            "DUT",
            &["a"],
            &["q"],
            1.0,
            1,
            &[EdgeDef {
                src: "idle",
                trigger: "a",
                dst: "idle",
                firing: "q",
                transition_time: 10.0,
                ..Default::default()
            }],
        )
        .unwrap();
        let report = Sweep::over(move || {
            let mut c = Circuit::new();
            let a = c.inp_at(&[10.0, 11.0], "A");
            let q = c.add_machine(&m, &[a]).unwrap()[0];
            c.inspect(q, "Q");
            c
        })
        .trials(8)
        .run();
        assert_eq!(report.timing_violations, 8);
        assert_eq!(report.ok, 0);
        assert_eq!(report.failure_rate(), 1.0);
    }

    #[test]
    fn telemetry_report_is_identical_across_thread_counts() {
        let run = |threads| {
            let tel = Telemetry::new();
            Sweep::over(chain_builder())
                .variability(|| Variability::Gaussian { std: 0.4 })
                .trials(64)
                .master_seed(7)
                .threads(threads)
                .telemetry(&tel)
                .run();
            tel.report()
        };
        let serial = run(1);
        let parallel = run(8);
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_json(), parallel.to_json());
        assert_eq!(serial.counter("sweep.trials"), 64);
        assert_eq!(serial.counter("sweep.ok"), 64);
        assert_eq!(serial.counter("sim.runs"), 64);
        assert!(serial.counter("sim.dispatches") > 0);
    }

    #[test]
    fn trial_seed_is_a_bijection_like_mix() {
        let seeds: std::collections::HashSet<u64> =
            (0..10_000).map(|i| trial_seed(42, i)).collect();
        assert_eq!(seeds.len(), 10_000);
        assert_ne!(trial_seed(1, 0), trial_seed(2, 0));
    }

    #[test]
    fn until_is_applied_to_every_trial() {
        let report = Sweep::over(chain_builder()).trials(4).until(25.0).run();
        let q = report.output("Q").unwrap();
        // Only the first pulse (t=20) fits under until=25.
        assert_eq!(q.pulses, 4);
        assert_eq!(q.max, 20.0);
    }
}
