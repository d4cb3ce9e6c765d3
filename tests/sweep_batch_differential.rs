//! Differential test harness: the sweep's lane kernel must be
//! **bit-identical** to running every trial through its own `Simulation`
//! — not statistically close, equal.
//!
//! For every Table-3 design, the same Monte-Carlo study (Gaussian jitter at
//! a σ hot enough to make some trials fail their functional check) is run
//! through `Sweep::run_detailed` and through a plain per-trial `Simulation`
//! loop written here (one simulation, reseeded per trial with
//! `trial_seed`). Every per-trial verdict and every output pulse time must
//! match exactly, across thread counts {1, 4, 8} and batch widths
//! {1, 7, 64}. The aggregated `SweepReport` must equal the trial-ordered
//! fold of the reference trials, and the sweep's `sim.*` telemetry
//! counters must equal the sum of the per-trial simulations' counters.
//!
//! The harness drives the exact circuits the shmoo maps sweep
//! ([`rlse::designs::design_spec`]), at a scale/σ point chosen per design
//! so the verdict set is *mixed* — a guard asserts at least one passing and
//! one non-passing trial, so agreement is never vacuous.

use rlse::core::sweep::{
    trial_seed, OutputStats, Sweep, SweepDetails, SweepReport, TrialDetail, TrialVerdict,
};
use rlse::core::telemetry::Telemetry;
use rlse::designs::{design_spec, shmoo_design_names, shmoo_map, ShmooOptions};
use rlse::prelude::*;

const TRIALS: u64 = 48;
const SEED: u64 = 0xD1FF;
const THREADS: [usize; 3] = [1, 4, 8];
const WIDTHS: [usize; 3] = [1, 7, 64];

/// A (scale, σ) operating point per design, tuned so that `TRIALS` trials
/// at `SEED` produce a mix of passing and non-passing verdicts: close
/// enough to the margin boundary that jitter flips some trials.
fn hot_point(design: &str) -> (f64, f64) {
    match design {
        "min_max" => (0.25, 5.0),
        "race_tree" => (0.15, 3.0),
        "adder_sync" => (0.25, 5.0),
        // The clockless xSFQ adder has no race to lose, so it only breaks
        // under jitter comparable to the cell hold times themselves.
        "adder_xsfq" => (3.0, 5.0),
        "bitonic_4" => (1.0, 5.0),
        "bitonic_8" => (0.8, 1.0),
        "bitonic_16" => (0.8, 1.0),
        "bitonic_32" => (0.8, 1.0),
        other => panic!("no hot point for design '{other}'"),
    }
}

/// The reference: every trial on one `Simulation`, reseeded with the
/// trial's `trial_seed` and flushing into `tel`, classified the way the
/// sweep classifies trials (a clean run passes or fails `check`; a timing
/// violation or any other error aborts it and records no pulses).
fn reference_details(design: &str, trials: u64, tel: &Telemetry) -> SweepDetails {
    let (build, check) = design_spec(design);
    let (scale, sigma) = hot_point(design);
    let circuit = build(scale);
    let mut names: Vec<String> = (0..circuit.wire_count())
        .map(|i| circuit.wire_at(i))
        .filter(|&w| circuit.wire_observed(w))
        .map(|w| circuit.wire_name(w).to_string())
        .collect();
    names.sort();
    let mut sim = Simulation::new(circuit);
    sim.set_telemetry(tel);
    let trials = (0..trials)
        .map(|trial| {
            sim.set_seed(trial_seed(SEED, trial));
            sim.set_variability(Some(Variability::Gaussian { std: sigma }));
            let (verdict, outputs) = match sim.run() {
                Ok(ev) => {
                    let outputs = names.iter().map(|n| ev.times(n).to_vec()).collect();
                    let verdict = if check(&ev) {
                        TrialVerdict::Ok
                    } else {
                        TrialVerdict::CheckFailed
                    };
                    (verdict, outputs)
                }
                Err(rlse::core::Error::Timing(_)) => (TrialVerdict::Timing, Vec::new()),
                Err(_) => (TrialVerdict::Other, Vec::new()),
            };
            TrialDetail {
                trial,
                verdict,
                outputs,
            }
        })
        .collect();
    SweepDetails { names, trials }
}

/// The aggregate of `details`, folded in trial order exactly as a sweep
/// report is: per output, count/sum/sum-of-squares/min/max over every
/// clean trial's pulses, then mean and population standard deviation.
fn reference_report(details: &SweepDetails) -> SweepReport {
    let count = |v| details.trials.iter().filter(|t| t.verdict == v).count() as u64;
    let outputs = details
        .names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let (mut n, mut sum, mut sumsq) = (0u64, 0.0f64, 0.0f64);
            let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
            for t in details.trials.iter().filter(|t| !t.outputs.is_empty()) {
                let (mut tn, mut tsum, mut tsq) = (0u64, 0.0f64, 0.0f64);
                let (mut tmin, mut tmax) = (f64::INFINITY, f64::NEG_INFINITY);
                for &x in &t.outputs[i] {
                    tn += 1;
                    tsum += x;
                    tsq += x * x;
                    tmin = tmin.min(x);
                    tmax = tmax.max(x);
                }
                n += tn;
                sum += tsum;
                sumsq += tsq;
                min = min.min(tmin);
                max = max.max(tmax);
            }
            let (mean, std, min, max) = if n == 0 {
                (0.0, 0.0, 0.0, 0.0)
            } else {
                let mean = sum / n as f64;
                let var = (sumsq / n as f64 - mean * mean).max(0.0);
                (mean, var.sqrt(), min, max)
            };
            OutputStats {
                name: name.clone(),
                pulses: n,
                mean,
                std,
                min,
                max,
            }
        })
        .collect();
    SweepReport {
        trials: details.trials.len() as u64,
        ok: count(TrialVerdict::Ok),
        check_failures: count(TrialVerdict::CheckFailed),
        timing_violations: count(TrialVerdict::Timing),
        other_errors: count(TrialVerdict::Other),
        outputs,
    }
}

fn sweep_of(design: &str, threads: usize, width: usize, tel: &Telemetry) -> Sweep<'static> {
    let (build, check) = design_spec(design);
    let (scale, sigma) = hot_point(design);
    Sweep::over(move || build(scale))
        .variability(move || Variability::Gaussian { std: sigma })
        .check(check)
        .trials(TRIALS)
        .master_seed(SEED)
        .threads(threads)
        .batch_width(width)
        .telemetry(tel)
}

/// The core differential assertion for one design: the per-trial reference
/// vs the sweep at every (threads × width) combination — per-trial
/// details, aggregate reports and simulator counters.
fn assert_engines_identical(design: &str) {
    let ref_tel = Telemetry::new();
    let reference = reference_details(design, TRIALS, &ref_tel);
    let ref_counters = ref_tel.report();

    // Vacuity guard: the operating point must produce mixed verdicts, or
    // the equality below proves nothing about verdict classification.
    let passing = reference
        .trials
        .iter()
        .filter(|t| t.verdict == TrialVerdict::Ok)
        .count();
    assert!(
        passing > 0 && passing < TRIALS as usize,
        "{design}: operating point not hot ({passing}/{TRIALS} trials pass) — \
         the differential comparison would be vacuous"
    );
    // And the details must carry actual pulse data for clean trials.
    assert!(
        reference
            .trials
            .iter()
            .any(|t| t.outputs.iter().any(|o| !o.is_empty())),
        "{design}: no output pulses recorded in any trial"
    );
    let ref_report = reference_report(&reference);

    for threads in THREADS {
        for width in WIDTHS {
            let detailed = sweep_of(design, threads, width, &Telemetry::disabled()).run_detailed();
            assert_eq!(
                reference, detailed,
                "{design}: lane kernel diverged from the per-trial simulations at \
                 threads={threads} width={width}"
            );
            // The report folds the same trials in the same order, so it
            // must be bitwise-equal to the reference fold.
            let tel = Telemetry::new();
            let report = sweep_of(design, threads, width, &tel).run();
            assert_eq!(
                ref_report, report,
                "{design}: aggregate reports diverged at threads={threads} width={width}"
            );
            // And the sweep's simulator counters, heap-depth gauge and
            // per-cell tallies are the per-trial simulations' totals.
            let got = tel.report();
            let at = format!("{design}: telemetry diverged at threads={threads} width={width}");
            assert_eq!(
                ref_counters.counters_with_prefix("sim."),
                got.counters_with_prefix("sim."),
                "{at}"
            );
            assert_eq!(ref_counters.peaks, got.peaks, "{at}");
            assert_eq!(ref_counters.cells, got.cells, "{at}");
        }
    }
}

#[test]
fn min_max_batch_matches_scalar() {
    assert_engines_identical("min_max");
}

#[test]
fn race_tree_batch_matches_scalar() {
    assert_engines_identical("race_tree");
}

#[test]
fn adder_sync_batch_matches_scalar() {
    assert_engines_identical("adder_sync");
}

#[test]
fn adder_xsfq_batch_matches_scalar() {
    assert_engines_identical("adder_xsfq");
}

#[test]
fn bitonic_4_batch_matches_scalar() {
    assert_engines_identical("bitonic_4");
}

#[test]
fn bitonic_8_batch_matches_scalar() {
    assert_engines_identical("bitonic_8");
}

#[test]
fn bitonic_16_batch_matches_scalar() {
    assert_engines_identical("bitonic_16");
}

#[test]
fn bitonic_32_batch_matches_scalar() {
    assert_engines_identical("bitonic_32");
}

#[test]
fn design_list_is_covered() {
    // If a new design joins the shmoo set, it must also join this harness.
    let covered = [
        "min_max",
        "race_tree",
        "adder_sync",
        "adder_xsfq",
        "bitonic_4",
        "bitonic_8",
        "bitonic_16",
        "bitonic_32",
    ];
    assert_eq!(shmoo_design_names(), &covered);
}

// ------------------------------------------------------------ edge cases

/// `trials == 0` is an empty study, not a panic: the sweep returns an
/// empty report with every counter at zero, equal to the empty reference.
#[test]
fn zero_trials_is_empty_report_not_panic() {
    let (build, check) = design_spec("min_max");
    let report = Sweep::over(move || build(1.0))
        .check(check)
        .trials(0)
        .batch_width(16)
        .run();
    assert_eq!(report.trials, 0);
    assert_eq!(report.ok, 0);
    assert_eq!(report.check_failures, 0);
    assert_eq!(report.timing_violations, 0);
    assert_eq!(report.other_errors, 0);
    assert!(report.outputs.iter().all(|o| o.pulses == 0));
    let details = Sweep::over(move || build(1.0)).trials(0).run_detailed();
    assert!(details.trials.is_empty());
    assert_eq!(
        reference_details("min_max", 0, &Telemetry::disabled()).trials,
        details.trials
    );
}

/// An empty parameter grid is an empty map, not a panic: no sigmas means
/// no rows, no scales means rows of zero width, and in both cases zero
/// sweeps are evaluated.
#[test]
fn empty_parameter_grid_is_empty_map_not_panic() {
    let opts = ShmooOptions {
        trials: 4,
        ..ShmooOptions::default()
    };
    let no_rows = shmoo_map("min_max", &[], &[0.5, 1.0], &opts);
    assert!(no_rows.cells.is_empty());
    assert_eq!(no_rows.evaluated, 0);

    let no_cols = shmoo_map("min_max", &[0.0, 1.0], &[], &opts);
    assert!(no_cols.cells.is_empty());
    assert_eq!(no_cols.evaluated, 0);
    assert_eq!(no_cols.margin_scale(0), None);

    let nothing = shmoo_map("min_max", &[], &[], &opts);
    assert!(nothing.cells.is_empty());
    // Rendering an empty map is well-defined, too.
    assert!(nothing.render().starts_with("shmoo design=min_max"));
}

/// Gaussian σ = 0 must be *identical* to running with no variability at
/// all: the jitter path samples a zero-width distribution, so every delay
/// equals its nominal value and the pulse times match bit for bit.
#[test]
fn sigma_zero_equals_nominal_run() {
    for design in shmoo_design_names() {
        let (build, check) = design_spec(design);
        let jittered = Sweep::over(move || build(1.0))
            .variability(|| Variability::Gaussian { std: 0.0 })
            .check(check)
            .trials(8)
            .master_seed(123)
            .run_detailed();
        let nominal = Sweep::over(move || build(1.0))
            .check(check)
            .trials(8)
            .master_seed(123)
            .run_detailed();
        assert_eq!(
            jittered, nominal,
            "{design}: σ=0 jitter must be indistinguishable from the nominal run"
        );
        // And with zero-width jitter every trial is the same trial.
        for t in &jittered.trials[1..] {
            assert_eq!(t.outputs, jittered.trials[0].outputs);
        }
    }
}
