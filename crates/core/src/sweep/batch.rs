//! The lane kernel: the one Monte-Carlo engine behind [`Sweep`] for
//! hole-free circuits, advancing trials in dense lane blocks over one
//! compiled circuit.
//!
//! A per-trial [`Simulation`](crate::sim::Simulation) loop re-checks the
//! circuit and clones every wire's event list into a fresh [`Events`]
//! dictionary on every trial. At the paper's margin-map scale (10⁶+ trials
//! per request, Fig. 13 / Table 3) those per-trial costs dominate. The lane
//! kernel removes them:
//!
//! - **Compile once.** The probe circuit is lowered to [`CompiledCircuit`]
//!   tables a single time per sweep; every worker shares the immutable
//!   [`Plan`] (tables, routing arrays, stimulus schedule, observed-wire
//!   slots) by reference.
//! - **Dense lanes.** A block of `W` trials ("lanes", `W` =
//!   [`Sweep::batch_width`]) shares one set of flat runtime arrays laid out
//!   `[value(node, 0), value(node, 1), …]` — state, τ_done, Θ, and per-node
//!   jitter σ are each a `[n_nodes × W]` vector indexed `node * W + lane`,
//!   so the per-trial state a dispatch touches is contiguous across lanes
//!   and the whole block reuses one allocation.
//! - **Lane-major pump with divergence.** Within a block the lanes are
//!   advanced back to back over one reused pulse heap keyed the simulator's
//!   `(time, node, seq)`: lanes never interact (every per-trial quantity is
//!   a lane-indexed column), so running them sequentially produces exactly
//!   the event sequence each per-trial simulation would, while the heap
//!   only ever holds a single trial's in-flight pulses — merging all lanes
//!   into one `W`×-deep heap measurably loses more to sift depth than
//!   lockstep interleaving gains. Jitter makes lanes diverge freely; a lane
//!   that hits a timing violation is marked dead and its pump ends, while
//!   the remaining lanes are unaffected.
//! - **Observed-only recording.** Pulse times are recorded per observed
//!   wire per lane; internal wires are counted but never stored, and the
//!   per-trial `Events` clone is replaced by refilling one scratch
//!   dictionary in place for the check callback. A check that reads an
//!   internal wire anyway (the scratch notes it) gets its verdict for that
//!   trial from the trial's own [`Simulation`], so the check always sees
//!   what a simulation would hand it.
//!
//! ## Determinism
//!
//! Results are **bit-identical** to running every trial through its own
//! [`Simulation`](crate::sim::Simulation), at any thread count and any
//! batch width. Three properties make this hold:
//!
//! 1. Trial seeds are `trial_seed(master, trial)` — a pure function of the
//!    trial index, regardless of which block or lane a trial lands in.
//! 2. Each lane keeps its own RNG, Box–Muller spare, and pulse sequence
//!    counter, and pumps its pulses in the simulator's heap order `(time,
//!    node, seq)`, so the lane's jitter stream and dispatch sequence match
//!    the simulation's event for event. Each batch goes through the
//!    simulator's own Dispatch step (`CompiledMachine::dispatch`) and jitter
//!    code, addressing the lane's strided Θ column, so there is no second
//!    copy of the Fig. 6 rules to drift.
//! 3. Trial outcomes are stitched back into global trial order (blocks are
//!    dealt round-robin to workers, workers return them in deal order) and
//!    folded by the serial [`reduce`](super), so the floating-point
//!    accumulation order is fixed.
//!
//! ## Telemetry
//!
//! The kernel reports the simulator's counters, summed over trials, so a
//! sweep's telemetry equals the sum of its trials' [`Simulation`] reports:
//! `sim.runs` (one per trial), `sim.dispatches`, `sim.transitions`,
//! `sim.pulses_pushed`, `sim.pulses_popped`, `sim.wire_pulses` (every wire,
//! observed or not, within `until`), `sim.timing_violations` (one per dead
//! lane, absent when none), the `sim.max_heap_depth` gauge and the
//! per-cell tallies. Each worker accumulates them locally and flushes once,
//! with a `sweep.worker` span on its 1-based track; every counter is
//! additive, so the totals are identical at any thread count and width.
//! The per-trial `sim.run` and `sim.compile` spans have no lane
//! counterpart.
//!
//! [`Simulation`]: crate::sim::Simulation

use crate::circuit::Circuit;
use crate::compiled::{CompiledCircuit, CompiledNode, DispatchBuf};
use crate::error::Time;
use crate::events::Events;
use crate::sim::{
    jitter, pop_batch, resolve_sigma, BoxMuller, CustomDelayFn, Pulse, Simulation, Variability,
};
use crate::telemetry::{CellTally, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::{trial_seed, OutAcc, Outcomes, Sweep, TrialOutcome};

/// Everything the workers share, compiled exactly once per sweep and then
/// immutable: the lowered circuit, the sorted observed-output names, each
/// wire's recording slot, and each node's start state.
struct Plan<'n> {
    cc: CompiledCircuit,
    /// Observed wire names, sorted ascending (the recording-slot order).
    names: &'n [String],
    /// For each wire index: its slot in `names`, or `u32::MAX` if the wire
    /// is not observed (such pulses are routed and counted, never recorded).
    obs_slot: Vec<u32>,
    /// Each node's initial machine state (0 for sources).
    starts: Vec<u32>,
}

impl<'n> Plan<'n> {
    fn new(probe: &Circuit, names: &'n [String]) -> Self {
        let cc = CompiledCircuit::compile(probe);
        let mut obs_slot = vec![u32::MAX; probe.wire_count()];
        for (idx, slot) in obs_slot.iter_mut().enumerate() {
            let w = probe.wire_at(idx);
            if probe.wire_observed(w) {
                *slot = names
                    .binary_search_by(|n| n.as_str().cmp(probe.wire_name(w)))
                    .expect("every observed wire is in the sorted name list")
                    as u32;
            }
        }
        let starts = cc
            .nodes
            .iter()
            .map(|n| match n {
                CompiledNode::Machine { cm, .. } => cc.machines[*cm as usize].start,
                _ => 0,
            })
            .collect();
        Plan {
            cc,
            names,
            obs_slot,
            starts,
        }
    }
}

/// Per-worker execution counters, accumulated locally while pumping and
/// flushed into the shared telemetry handle once per worker under the
/// simulator's counter names (see the module docs). Every field is additive
/// over trials, so the merged totals are identical at any thread count.
#[derive(Debug, Default)]
struct Counters {
    runs: u64,
    dispatches: u64,
    transitions: u64,
    pushed: u64,
    popped: u64,
    wire: u64,
    violations: u64,
    max_heap: usize,
    /// Per-node tallies, folded into per-cell-type tallies on flush.
    cells: Vec<CellTally>,
}

impl Counters {
    fn flush(&self, tel: &Telemetry, cc: &CompiledCircuit) {
        tel.add_many(&[
            ("sim.runs", self.runs),
            ("sim.dispatches", self.dispatches),
            ("sim.transitions", self.transitions),
            ("sim.pulses_pushed", self.pushed),
            ("sim.pulses_popped", self.popped),
            ("sim.wire_pulses", self.wire),
        ]);
        if self.violations > 0 {
            tel.add("sim.timing_violations", self.violations);
        }
        tel.peak("sim.max_heap_depth", self.max_heap as u64);
        for (node, tally) in self.cells.iter().enumerate() {
            tel.add_cell(cc.symbols.resolve(cc.cell[node]), tally);
        }
    }
}

/// The results of one block of lanes, in lane order.
struct BlockOut {
    outcomes: Vec<TrialOutcome>,
    /// Per-lane per-output pulse times (empty per lane when the lane
    /// aborted), present only on detailed runs.
    outputs: Option<Vec<Vec<Vec<Time>>>>,
}

/// One worker's reusable lane engine: the dense `[n_nodes × W]` runtime
/// lanes, the pulse heap reused by every lane in turn, per-lane RNG state,
/// and the dispatch scratch buffers. Allocated once per worker, reset per
/// block.
struct Kernel<'p> {
    plan: &'p Plan<'p>,
    width: usize,
    // Dense per-(node, lane) runtime state, indexed `node * width + lane`
    // (theta by `(theta_off + input) * width + lane`).
    states: Vec<u32>,
    tau_done: Vec<f64>,
    theta: Vec<f64>,
    var_std: Vec<f64>,
    heap: BinaryHeap<Reverse<Pulse>>,
    // Recorded pulse times per (observed-wire slot, lane), indexed
    // `slot * width + lane`.
    obs: Vec<Vec<Time>>,
    // Dispatch scratch, shared across lanes (only one lane dispatches at a
    // time).
    buf: DispatchBuf,
    // Per-lane trial state.
    rngs: Vec<StdRng>,
    bms: Vec<BoxMuller>,
    dead: Vec<bool>,
    customs: Vec<Option<CustomDelayFn>>,
    /// Scratch events dictionary refilled per lane for the check callback
    /// (only allocated when a check is installed).
    scratch: Option<Events>,
    /// A full simulation of the circuit, built on first need, for trials
    /// whose check reads wires the lanes do not record.
    sim: Option<Simulation>,
    counters: Counters,
}

impl<'p> Kernel<'p> {
    fn new(plan: &'p Plan<'p>, width: usize, has_check: bool) -> Self {
        let n_nodes = plan.cc.nodes.len();
        Kernel {
            plan,
            width,
            states: vec![0; n_nodes * width],
            tau_done: vec![0.0; n_nodes * width],
            theta: vec![f64::NEG_INFINITY; plan.cc.theta_len * width],
            var_std: vec![f64::NAN; n_nodes * width],
            heap: BinaryHeap::with_capacity(plan.cc.stim.len() * width),
            obs: std::iter::repeat_with(Vec::new)
                .take(plan.names.len() * width)
                .collect(),
            buf: DispatchBuf::default(),
            rngs: (0..width).map(|_| StdRng::seed_from_u64(0)).collect(),
            bms: (0..width).map(|_| BoxMuller::default()).collect(),
            dead: vec![false; width],
            customs: (0..width).map(|_| None).collect(),
            scratch: has_check.then(|| Events::preallocated(plan.names)),
            sim: None,
            counters: Counters {
                cells: vec![CellTally::default(); n_nodes],
                ..Counters::default()
            },
        }
    }

    /// Run one block of `lanes` consecutive trials starting at
    /// `first_trial`. Pure in `(sweep, first_trial, lanes)`: block results
    /// cannot depend on which worker runs the block or what it ran before.
    fn run_block(
        &mut self,
        sweep: &Sweep,
        first_trial: u64,
        lanes: usize,
        want_outputs: bool,
        tel_on: bool,
    ) -> BlockOut {
        let Kernel {
            plan,
            width,
            states,
            tau_done,
            theta,
            var_std,
            heap,
            obs,
            buf,
            rngs,
            bms,
            dead,
            customs,
            scratch,
            sim,
            counters,
        } = self;
        let plan: &Plan = plan;
        let width = *width;
        let cc = &plan.cc;
        let n_obs = plan.names.len();
        let until = sweep.until;
        let record_ok = |t: Time| until.is_none_or(|u| t <= u);

        // Reset the dense lanes to the initial configuration ⟨q, τ_done, Θ⟩
        // (whole-width fills: unused trailing lanes are never pumped).
        for (node, &s0) in plan.starts.iter().enumerate() {
            states[node * width..(node + 1) * width].fill(s0);
        }
        tau_done.fill(0.0);
        theta.fill(f64::NEG_INFINITY);
        var_std.fill(f64::NAN);
        heap.clear();
        for column in obs.iter_mut() {
            column.clear();
        }

        // Per-lane trial state: the same seed derivation and σ resolution
        // the simulator applies per run.
        for lane in 0..lanes {
            let trial = first_trial + lane as u64;
            rngs[lane] = StdRng::seed_from_u64(trial_seed(sweep.master_seed, trial));
            bms[lane] = BoxMuller::default();
            dead[lane] = false;
            customs[lane] = None;
            if let Some(factory) = &sweep.variability {
                let v = factory();
                for (node, cn) in cc.nodes.iter().enumerate() {
                    if let CompiledNode::Machine { exempt, .. } = cn {
                        if *exempt {
                            continue;
                        }
                        var_std[node * width + lane] =
                            resolve_sigma(&v, cc.symbols.resolve(cc.cell[node]));
                    }
                }
                if let Variability::Custom(f) = v {
                    customs[lane] = Some(f);
                }
            }
        }

        if tel_on {
            counters.runs += lanes as u64;
        }

        // Advance the block lane-major: each lane pumps its own pulse heap
        // to completion over the shared dense arrays before the next lane
        // starts. Lanes never interact — every per-trial quantity (machine
        // state columns, RNG stream, sequence numbers, recorded pulses) is
        // indexed by lane — so running them back to back produces exactly
        // the per-lane event sequence a fully merged lockstep heap would,
        // while the heap only ever holds one trial's in-flight pulses (the
        // simulator's depth) instead of `W`× that.
        for lane in 0..lanes {
            // Seed from the compiled stimulus schedule, in the simulator's
            // seeding order, so this lane's sequence numbers match the
            // simulation's exactly.
            heap.clear();
            let mut seq = 0u64;
            for sp in &cc.stim {
                if record_ok(sp.time) {
                    let slot = plan.obs_slot[sp.wire as usize];
                    if slot != u32::MAX {
                        obs[slot as usize * width + lane].push(sp.time);
                    }
                    if tel_on {
                        counters.wire += 1;
                    }
                }
                if sp.sink.0 != u32::MAX {
                    heap.push(Reverse(Pulse {
                        time: sp.time,
                        node: sp.sink.0,
                        port: sp.sink.1,
                        seq,
                    }));
                    seq += 1;
                    if tel_on {
                        counters.pushed += 1;
                    }
                }
            }
            if tel_on {
                counters.max_heap = counters.max_heap.max(heap.len());
            }

            // The pump: the scalar discrete-event loop of Fig. 6, acting on
            // this lane's column of every dense array. Same-(time, node)
            // pulses are heap-adjacent: the whole heap is this lane.
            while let Some((t, node)) = pop_batch(heap, until, &mut buf.ports) {
                if tel_on {
                    counters.popped += buf.ports.len() as u64;
                    counters.dispatches += 1;
                }
                buf.fired.clear();
                let CompiledNode::Machine { cm, theta_off, .. } = cc.nodes[node] else {
                    unreachable!("sources receive no pulses; hole circuits never reach the kernel")
                };
                let si = node * width + lane;
                // A violation kills the lane — the lane equivalent of a
                // simulation aborting with `Error::Timing` — and its partial
                // column updates never leak: a dead lane's pump ends here and
                // its columns are fully reset before the next block.
                let Ok((q, td)) = cc.machines[cm as usize].dispatch(
                    t,
                    (states[si], tau_done[si]),
                    theta,
                    (theta_off as usize * width + lane, width),
                    buf,
                ) else {
                    dead[lane] = true;
                    if tel_on {
                        counters.violations += 1;
                    }
                    break;
                };
                states[si] = q;
                tau_done[si] = td;
                if tel_on {
                    let n = buf.ports.len() as u64;
                    counters.transitions += n;
                    let tc = &mut counters.cells[node];
                    tc.dispatches += 1;
                    tc.transitions += n;
                    tc.fired += buf.fired.len() as u64;
                }
                // Firing-delay variability from this lane's own RNG stream.
                if !var_std[si].is_nan() {
                    jitter(
                        &mut buf.fired,
                        t,
                        var_std[si],
                        customs[lane].as_mut(),
                        cc.symbols.resolve(cc.cell[node]),
                        &mut rngs[lane],
                        &mut bms[lane],
                    );
                }
                // Deliver fired pulses: record observed wires into the
                // lane's column, push routed pulses back onto the heap.
                let outs = cc.node_out_wires(node);
                for &(port, t_out) in &buf.fired {
                    let wire = outs[port as usize] as usize;
                    if record_ok(t_out) {
                        let slot = plan.obs_slot[wire];
                        if slot != u32::MAX {
                            obs[slot as usize * width + lane].push(t_out);
                        }
                        if tel_on {
                            counters.wire += 1;
                        }
                    }
                    let (sink, sport) = cc.sink[wire];
                    if sink != u32::MAX {
                        heap.push(Reverse(Pulse {
                            time: t_out,
                            node: sink,
                            port: sport,
                            seq,
                        }));
                        seq += 1;
                        if tel_on {
                            counters.pushed += 1;
                        }
                    }
                }
                if tel_on {
                    counters.max_heap = counters.max_heap.max(heap.len());
                }
            }
        }

        // Classify every lane: sort each recorded column (jitter can push
        // pulses out of order, exactly as in the simulator), run the
        // check against the refilled scratch dictionary, and accumulate the
        // per-output stats.
        let mut outcomes = Vec::with_capacity(lanes);
        let mut outputs = want_outputs.then(|| Vec::with_capacity(lanes));
        for lane in 0..lanes {
            if dead[lane] {
                outcomes.push(TrialOutcome::Timing);
                if let Some(out) = &mut outputs {
                    out.push(Vec::new());
                }
                continue;
            }
            for slot in 0..n_obs {
                obs[slot * width + lane].sort_by(f64::total_cmp);
            }
            let check_ok = match (&sweep.check, scratch.as_mut()) {
                (Some(check), Some(ev)) => {
                    ev.refill_named((0..n_obs).map(|slot| obs[slot * width + lane].as_slice()));
                    let ok = check(ev);
                    if ev.take_unrecorded_read() {
                        // The check read internal wires: take its verdict
                        // on the trial's own simulation, which records
                        // every wire (and agrees on everything else).
                        let sim = sim.get_or_insert_with(|| {
                            let mut s = Simulation::new((sweep.build)());
                            s.set_until(until);
                            s
                        });
                        let events = sweep
                            .simulate(sim, first_trial + lane as u64)
                            .expect("a lane that ran clean simulates clean");
                        check(&events)
                    } else {
                        ok
                    }
                }
                _ => true,
            };
            let per_output = (0..n_obs)
                .map(|slot| OutAcc::of(&obs[slot * width + lane]))
                .collect();
            outcomes.push(TrialOutcome::Done {
                per_output,
                check_ok,
            });
            if let Some(out) = &mut outputs {
                out.push(
                    (0..n_obs)
                        .map(|slot| obs[slot * width + lane].clone())
                        .collect(),
                );
            }
        }
        BlockOut { outcomes, outputs }
    }
}

/// Run every trial of `sweep` on the lane kernel: compile `probe` once,
/// deal blocks round-robin to workers, and stitch the per-block results
/// back into global trial order. `names` is the probe's sorted observed
/// wire list.
pub(super) fn execute(
    sweep: &Sweep,
    probe: &Circuit,
    names: &[String],
    want_outputs: bool,
) -> Outcomes {
    let plan = Plan::new(probe, names);
    let width = sweep.batch_width;
    let n_blocks = (sweep.trials as usize).div_ceil(width);
    let threads = sweep.effective_threads(n_blocks);
    let tel = &sweep.telemetry;
    let tel_on = tel.is_enabled();
    // Worker w runs blocks w, w+T, w+2T, … (a deterministic round-robin
    // deal) on one reused kernel.
    let work = |w: usize| {
        let mut kernel = Kernel::new(&plan, width, sweep.check.is_some());
        let t_worker = tel.now();
        let mut outs = Vec::new();
        let mut done = 0u64;
        let mut b = w;
        while b < n_blocks {
            let first_trial = (b * width) as u64;
            let lanes = width.min(sweep.trials as usize - b * width);
            outs.push(kernel.run_block(sweep, first_trial, lanes, want_outputs, tel_on));
            done += lanes as u64;
            b += threads;
        }
        if tel_on {
            kernel.counters.flush(tel, &plan.cc);
            if let Some(t0) = t_worker {
                tel.record_span("sweep.worker", w as u32 + 1, t0, done);
            }
        }
        outs
    };
    let mut per_worker: Vec<Vec<BlockOut>> = match (n_blocks, threads) {
        (0, _) => Vec::new(),
        // One worker runs on the calling thread.
        (_, 1) => vec![work(0)],
        _ => std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = (0..threads).map(|w| scope.spawn(move || work(w))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        }),
    };
    // Stitch: global block b was worker (b mod T)'s next block, so
    // popping each worker's deque in deal order restores trial order.
    for outs in per_worker.iter_mut() {
        outs.reverse();
    }
    let mut outcomes = Vec::with_capacity(sweep.trials as usize);
    let mut outputs = want_outputs.then(|| Vec::with_capacity(sweep.trials as usize));
    for b in 0..n_blocks {
        let blk = per_worker[b % threads]
            .pop()
            .expect("one result per dealt block");
        outcomes.extend(blk.outcomes);
        if let Some(out) = &mut outputs {
            out.extend(blk.outputs.expect("outputs requested from every block"));
        }
    }
    (outcomes, outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::machine::{EdgeDef, Machine};
    use crate::sim::Simulation;
    use crate::sweep::{reduce, SweepDetails, SweepReport, TrialDetail, TrialVerdict};
    use std::sync::Arc;

    /// A trial-by-trial reference: one fresh [`Simulation`] per trial with
    /// the trial's seed, flushing into `tel`, classified as the sweep
    /// classifies its trials.
    fn reference(
        build: impl Fn() -> Circuit,
        variability: Option<&dyn Fn() -> Variability>,
        check: Option<&dyn Fn(&Events) -> bool>,
        (trials, master): (u64, u64),
        until: Option<Time>,
        tel: &Telemetry,
    ) -> SweepDetails {
        let probe = build();
        let names = crate::sweep::observed_names(&probe);
        let trials = (0..trials)
            .map(|trial| {
                let mut sim = Simulation::new(build()).seed(trial_seed(master, trial));
                sim.set_until(until);
                sim.set_variability(variability.map(|v| v()));
                sim.set_telemetry(tel);
                let (verdict, outputs) = match sim.run() {
                    Ok(ev) => (
                        if check.is_none_or(|c| c(&ev)) {
                            TrialVerdict::Ok
                        } else {
                            TrialVerdict::CheckFailed
                        },
                        names.iter().map(|n| ev.times(n).to_vec()).collect(),
                    ),
                    Err(Error::Timing(_)) => (TrialVerdict::Timing, Vec::new()),
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

    /// The report the sweep's serial reduction makes of `details`.
    fn report_of(details: &SweepDetails) -> SweepReport {
        let outcomes: Vec<TrialOutcome> = details
            .trials
            .iter()
            .map(|t| match t.verdict {
                TrialVerdict::Timing => TrialOutcome::Timing,
                TrialVerdict::Other => TrialOutcome::Other,
                v => TrialOutcome::Done {
                    per_output: t.outputs.iter().map(|o| OutAcc::of(o)).collect(),
                    check_ok: v == TrialVerdict::Ok,
                },
            })
            .collect();
        reduce(
            details.names.clone(),
            details.trials.len() as u64,
            &outcomes,
        )
    }

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

    fn splitter() -> Arc<Machine> {
        Machine::new(
            "S",
            &["a"],
            &["l", "r"],
            4.3,
            3,
            &[EdgeDef {
                src: "idle",
                trigger: "a",
                dst: "idle",
                firing: "l,r",
                ..Default::default()
            }],
        )
        .unwrap()
    }

    /// A small fan-out/fan-in circuit with two observed outputs and an
    /// anonymous internal wire — enough structure to exercise batching,
    /// routing, and multi-output recording.
    fn diamond_builder() -> impl Fn() -> Circuit + Sync {
        move || {
            let mut c = Circuit::new();
            let a = c.inp_at(&[10.0, 30.0, 55.0], "A");
            let outs = c.add_machine(&splitter(), &[a]).unwrap();
            let l = c.add_machine(&jtl(5.0), &[outs[0]]).unwrap()[0];
            let r = c.add_machine(&jtl(7.7), &[outs[1]]).unwrap()[0];
            c.inspect(l, "L");
            c.inspect(r, "R");
            c
        }
    }

    fn gaussian(std: f64) -> impl Fn() -> Variability {
        move || Variability::Gaussian { std }
    }

    #[test]
    fn lanes_match_per_trial_simulations_across_widths_and_threads() {
        let build = diamond_builder();
        let var = gaussian(0.4);
        let want = reference(
            &build,
            Some(&var),
            None,
            (64, 7),
            None,
            &Telemetry::disabled(),
        );
        let want_report = report_of(&want);
        for width in [1, 3, 16, 64, 100] {
            for threads in [1, 4] {
                let sweep = || {
                    Sweep::over(&build)
                        .variability(gaussian(0.4))
                        .trials(64)
                        .master_seed(7)
                        .threads(threads)
                        .batch_width(width)
                };
                assert_eq!(
                    sweep().run_detailed(),
                    want,
                    "width={width} threads={threads}"
                );
                assert_eq!(
                    sweep().run(),
                    want_report,
                    "width={width} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn check_and_until_match_per_trial_simulations() {
        let build = diamond_builder();
        let var = gaussian(0.3);
        let check = |ev: &Events| ev.times("L").len() == ev.times("R").len();
        let want = reference(
            &build,
            Some(&var),
            Some(&check),
            (40, 11),
            Some(45.0),
            &Telemetry::disabled(),
        );
        let got = Sweep::over(&build)
            .variability(gaussian(0.3))
            .trials(40)
            .master_seed(11)
            .until(45.0)
            .check(check)
            .batch_width(7)
            .run();
        assert_eq!(got, report_of(&want));
        // The until cutoff actually bit: the third stimulus pulse (t=55)
        // never reaches the outputs.
        assert_eq!(got.output("L").unwrap().pulses, 80);
    }

    #[test]
    fn checks_reading_internal_wires_match_per_trial_simulations() {
        // Lanes record observed wires only; a check that reads an internal
        // wire (by name, or through `iter_all`) must still see what the
        // trial's simulation records.
        let build = diamond_builder();
        let probe = build();
        let internal = (0..probe.wire_count())
            .map(|i| probe.wire_at(i))
            .find(|&w| !probe.wire_observed(w))
            .map(|w| probe.wire_name(w).to_string())
            .expect("the diamond has an internal wire");
        let var = gaussian(0.4);
        let early = move |ev: &Events| ev.times(&internal).first().is_some_and(|&t| t < 14.3);
        // The third splitter firing (nominally 59.3) jitters across `until`.
        let busy = |ev: &Events| ev.iter_all().filter(|(_, t)| t.len() == 3).count() > 1;
        let tel = Telemetry::disabled();
        for check in [&early as &(dyn Fn(&Events) -> bool + Sync), &busy] {
            let want = reference(&build, Some(&var), Some(check), (40, 3), Some(59.3), &tel);
            let got = Sweep::over(&build)
                .variability(gaussian(0.4))
                .check(check)
                .trials(40)
                .master_seed(3)
                .until(59.3)
                .batch_width(8)
                .threads(2)
                .run_detailed();
            assert_eq!(got, want);
            let passing = want.trials.iter().filter(|t| t.verdict == TrialVerdict::Ok);
            let n = passing.count();
            assert!((1..40).contains(&n), "mixed verdicts: {n} pass");
        }
    }

    #[test]
    fn stateful_custom_variability_matches_per_trial_simulations() {
        // A stateful custom model: the k-th firing of a trial gets +0.1·k.
        // The factory builds it fresh per trial, and each lane calls its own
        // closure in the lane's dispatch order.
        let build = diamond_builder();
        let factory = || {
            let mut k = 0u32;
            Variability::Custom(Box::new(move |nominal, _cell, _rng| {
                k += 1;
                nominal + 0.1 * k as f64
            }))
        };
        let want = reference(
            &build,
            Some(&factory),
            None,
            (17, 5),
            None,
            &Telemetry::disabled(),
        );
        let got = Sweep::over(&build)
            .variability(factory)
            .trials(17)
            .master_seed(5)
            .batch_width(4)
            .threads(2)
            .run_detailed();
        assert_eq!(got, want);
    }

    #[test]
    fn mixed_per_cell_sigma_matches_per_trial_simulations() {
        let build = diamond_builder();
        let factory = || {
            let mut map = std::collections::HashMap::new();
            map.insert("JTL".to_string(), 0.5);
            map.insert("S".to_string(), 0.0); // σ=0: skipped, no RNG draw
            Variability::PerCellType(map)
        };
        let want = reference(
            &build,
            Some(&factory),
            None,
            (24, 9),
            None,
            &Telemetry::disabled(),
        );
        let got = Sweep::over(&build)
            .variability(factory)
            .trials(24)
            .master_seed(9)
            .batch_width(5)
            .run_detailed();
        assert_eq!(got, want);
    }

    #[test]
    fn timing_violations_kill_lanes_not_blocks() {
        // A 10 ps transition-time cell fed pulses 1 ps apart violates in
        // every trial.
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
        let build = move || {
            let mut c = Circuit::new();
            let a = c.inp_at(&[10.0, 11.0, 50.0], "A");
            let q = c.add_machine(&m, &[a]).unwrap()[0];
            c.inspect(q, "Q");
            c
        };
        let want = reference(&build, None, None, (12, 0), None, &Telemetry::disabled());
        let got = Sweep::over(&build).trials(12).batch_width(8).run();
        assert_eq!(got, report_of(&want));
        assert_eq!(got.timing_violations, 12);
    }

    #[test]
    fn jitter_dependent_violations_diverge_per_lane() {
        // A reconvergent fan-out racing a transition-time window: the two
        // jittered paths arrive ~2 ps apart at a merger that needs 3 ps to
        // recover, so with heavy jitter some trials violate and some pass —
        // lanes within one block genuinely diverge, and must still match
        // the per-trial simulations.
        let m = Machine::new(
            "DUT",
            &["a", "b"],
            &["q"],
            1.0,
            1,
            &[
                EdgeDef {
                    src: "idle",
                    trigger: "a",
                    dst: "idle",
                    firing: "q",
                    transition_time: 3.0,
                    ..Default::default()
                },
                EdgeDef {
                    src: "idle",
                    trigger: "b",
                    dst: "idle",
                    firing: "q",
                    transition_time: 3.0,
                    ..Default::default()
                },
            ],
        )
        .unwrap();
        let build = move || {
            let mut c = Circuit::new();
            let a = c.inp_at(&[10.0], "A");
            let outs = c.add_machine(&splitter(), &[a]).unwrap();
            let fast = c.add_machine(&jtl(5.0), &[outs[0]]).unwrap()[0];
            let slow = c.add_machine(&jtl(7.0), &[outs[1]]).unwrap()[0];
            let r = c.add_machine(&m, &[fast, slow]).unwrap()[0];
            c.inspect(r, "R");
            c
        };
        let var = gaussian(2.0);
        let ref_tel = Telemetry::new();
        let want = reference(&build, Some(&var), None, (200, 1), None, &ref_tel);
        let tel = Telemetry::new();
        let got = Sweep::over(&build)
            .variability(gaussian(2.0))
            .trials(200)
            .master_seed(1)
            .batch_width(32)
            .threads(4)
            .telemetry(&tel)
            .run();
        assert_eq!(got, report_of(&want));
        // Guard against a vacuous pass: the workload must actually mix
        // verdicts for the divergence path to have been exercised.
        assert!(got.ok > 0, "some trials must pass");
        assert!(got.timing_violations > 0, "some trials must violate");
        // Dead lanes report exactly what the aborted simulations did.
        let (r, w) = (tel.report(), ref_tel.report());
        assert_eq!(
            r.counters_with_prefix("sim."),
            w.counters_with_prefix("sim.")
        );
        assert_eq!(r.counter("sim.timing_violations"), got.timing_violations);
        assert_eq!(r.peaks, w.peaks);
        assert_eq!(r.cells, w.cells);
    }

    #[test]
    fn zero_trials_yields_empty_report_without_panic() {
        let build = diamond_builder();
        let tel = Telemetry::new();
        let report = Sweep::over(&build).trials(0).telemetry(&tel).run();
        assert_eq!(report.trials, 0);
        assert_eq!(report.ok, 0);
        assert_eq!(report.failure_rate(), 0.0);
        assert_eq!(report.output("L").unwrap().pulses, 0);
        // No trial ran, so no simulator counter exists.
        assert!(tel.report().counters_with_prefix("sim.").is_empty());
        // The detailed view is empty too.
        assert!(Sweep::over(&build)
            .trials(0)
            .run_detailed()
            .trials
            .is_empty());
    }

    #[test]
    fn hole_circuits_run_on_one_simulation() {
        use crate::functional::Hole;
        let build = || {
            let mut c = Circuit::new();
            let a = c.inp_at(&[10.0, 20.0], "A");
            let h = Hole::new("pass", 1.5, &["a"], &["q"], |present: &[bool], _t| {
                vec![present[0]]
            });
            let q = c.add_hole(h, &[a]).unwrap()[0];
            c.inspect(q, "Q");
            c
        };
        let ref_tel = Telemetry::new();
        let want = reference(build, None, None, (6, 0), None, &ref_tel);
        let tel = Telemetry::new();
        let sweep = Sweep::over(build).trials(6).threads(4).telemetry(&tel);
        assert_eq!(sweep.run(), report_of(&want));
        assert_eq!(
            tel.report().counters_with_prefix("sim."),
            ref_tel.report().counters_with_prefix("sim.")
        );
        assert_eq!(tel.report().counter("sweep.runs"), 1);
    }

    #[test]
    fn telemetry_is_identical_across_threads_and_widths() {
        let run = |threads, width| {
            let tel = Telemetry::new();
            Sweep::over(diamond_builder())
                .variability(gaussian(0.4))
                .trials(64)
                .master_seed(7)
                .threads(threads)
                .batch_width(width)
                .telemetry(&tel)
                .run();
            tel.report()
        };
        let serial = run(1, 16);
        assert_eq!(serial.counter("sweep.trials"), 64);
        assert_eq!(serial.counter("sweep.ok"), 64);
        assert_eq!(serial.counter("sim.runs"), 64);
        assert!(serial.counter("sim.dispatches") > 0);
        for (threads, width) in [(8, 16), (4, 64), (2, 5)] {
            assert_eq!(
                run(threads, width),
                serial,
                "threads={threads} width={width}"
            );
        }
        // And the lane counters equal the sum of 64 simulations' counters,
        // internal wires included in `sim.wire_pulses`.
        let ref_tel = Telemetry::new();
        let var = gaussian(0.4);
        reference(diamond_builder(), Some(&var), None, (64, 7), None, &ref_tel);
        let want = ref_tel.report();
        assert_eq!(
            serial.counters_with_prefix("sim."),
            want.counters_with_prefix("sim.")
        );
        assert_eq!(serial.peaks, want.peaks);
        assert_eq!(serial.cells, want.cells);
    }

    #[test]
    fn nominal_sweep_is_exact() {
        let report = Sweep::over(diamond_builder()).trials(16).run();
        assert_eq!(report.ok, 16);
        let l = report.output("L").unwrap();
        assert_eq!(l.pulses, 48); // 3 pulses × 16 trials
        assert_eq!(l.min, 10.0 + 4.3 + 5.0);
        assert_eq!(l.max, 55.0 + 4.3 + 5.0);
    }
}
