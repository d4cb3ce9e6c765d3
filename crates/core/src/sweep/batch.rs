//! The structure-of-arrays batch sweep kernel: N Monte-Carlo trials
//! advanced in dense lane blocks over one compiled circuit.
//!
//! The scalar [`Sweep`](super::Sweep) runs trials one at a time: every trial
//! walks its own pulse heap, re-checks the circuit, and clones every wire's
//! event list into a fresh [`Events`] dictionary. At the paper's margin-map
//! scale (10⁶+ trials per request, Fig. 13 / Table 3) those per-trial costs
//! dominate. [`BatchSweep`] removes them:
//!
//! - **Compile once.** The circuit is built and lowered to
//!   [`CompiledCircuit`] tables a single time per sweep; every worker shares
//!   the immutable [`Plan`] (tables, routing arrays, stimulus schedule,
//!   observed-wire slots) by reference.
//! - **Dense lanes.** A block of `W` trials ("lanes") shares one set of flat
//!   runtime arrays laid out `[value(node, 0), value(node, 1), …]` — state,
//!   τ_done, Θ, and per-node jitter σ are each a `[n_nodes × W]` vector
//!   indexed `node * W + lane`, so the per-trial state a dispatch touches is
//!   contiguous across lanes and the whole block reuses one allocation.
//! - **Lane-major pump with divergence.** Within a block the lanes are
//!   advanced back to back over one reused pulse heap keyed the scalar
//!   engine's `(time, node, seq)`: lanes never interact (every per-trial
//!   quantity is a lane-indexed column), so running them sequentially
//!   produces exactly the event sequence each scalar trial would, while the
//!   heap only ever holds a single trial's in-flight pulses — merging all
//!   lanes into one `W`×-deep heap measurably loses more to sift depth than
//!   lockstep interleaving gains. Jitter makes lanes diverge freely; a lane
//!   that hits a timing violation is marked dead and its pump ends, while
//!   the remaining lanes are unaffected.
//! - **Observed-only recording.** Pulse times are recorded per observed
//!   wire per lane; anonymous internal wires are never stored, and the
//!   per-trial `Events` clone is replaced by refilling one scratch
//!   dictionary in place for the check callback.
//!
//! ## Determinism
//!
//! Results are **bit-identical** to the scalar engine at any thread count
//! and any batch width. Three properties make this hold:
//!
//! 1. Trial seeds are `trial_seed(master, trial)` — a pure function, exactly
//!    as the scalar sweep derives them, regardless of which block or lane a
//!    trial lands in.
//! 2. Each lane keeps its own RNG, Box–Muller spare, and pulse sequence
//!    counter, and pumps its pulses in the scalar heap order `(time, node,
//!    seq)`, so the lane's jitter stream and dispatch sequence match the
//!    scalar trial event for event. Each batch goes through the scalar
//!    engine's own Dispatch step (`CompiledMachine::dispatch`) and jitter
//!    code, addressing the lane's strided Θ column, so there is no second
//!    copy of the Fig. 6 rules to drift.
//! 3. Trial outcomes are stitched back into global trial order (blocks are
//!    dealt round-robin to workers, workers return them in deal order) and
//!    folded by the same serial [`reduce`](super) the scalar engine uses, so
//!    the floating-point accumulation order is fixed.
//!
//! Circuits containing [`Hole`](crate::functional::Hole) nodes fall back to
//! the scalar engine transparently: hole closures may carry arbitrary
//! internal state, which lane-blocked re-execution would corrupt.

use crate::circuit::{Circuit, NodeKind};
use crate::compiled::{CompiledCircuit, CompiledNode, DispatchBuf};
use crate::error::Time;
use crate::events::Events;
use crate::sim::{jitter, pop_batch, resolve_sigma, BoxMuller, CustomDelayFn, Pulse, Variability};
use crate::telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::{
    observed_names, reduce, trial_seed, validate_variability, CheckFn, OutAcc, Sweep,
    SweepDetails, SweepError, SweepReport, TrialDetail, TrialOutcome,
};

/// Everything the workers share, compiled exactly once per sweep and then
/// immutable: the lowered circuit, the sorted observed-output names, each
/// wire's recording slot, and each node's start state.
struct Plan {
    cc: CompiledCircuit,
    /// Observed wire names, sorted ascending (the recording-slot order).
    names: Vec<String>,
    /// For each wire index: its slot in `names`, or `u32::MAX` if the wire
    /// is not observed (such pulses are routed but never recorded).
    obs_slot: Vec<u32>,
    /// Each node's initial machine state (0 for sources).
    starts: Vec<u32>,
}

impl Plan {
    fn new(probe: &Circuit) -> Self {
        let names = observed_names(probe);
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
/// flushed into the shared telemetry handle once per worker. Every field is
/// additive over blocks (and blocks are a pure function of `(trials,
/// width)`), so the merged totals are identical at any thread count.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    blocks: u64,
    dispatches: u64,
    transitions: u64,
    pushed: u64,
    popped: u64,
    wire: u64,
    max_heap: usize,
}

impl Counters {
    fn flush(&self, tel: &Telemetry) {
        tel.add_many(&[
            ("sweep_batch.blocks", self.blocks),
            ("sweep_batch.dispatches", self.dispatches),
            ("sweep_batch.transitions", self.transitions),
            ("sweep_batch.pulses_pushed", self.pushed),
            ("sweep_batch.pulses_popped", self.popped),
            ("sweep_batch.wire_pulses", self.wire),
        ]);
        tel.peak("sweep_batch.max_heap_depth", self.max_heap as u64);
    }
}

/// The results of one block of lanes, in lane order.
struct BlockOut {
    outcomes: Vec<TrialOutcome>,
    /// Per-lane per-output pulse times (empty per lane when the lane
    /// aborted), present only on detailed runs.
    outputs: Option<Vec<Vec<Vec<Time>>>>,
}

/// One worker's reusable batch engine: the dense `[n_nodes × W]` runtime
/// lanes, the pulse heap reused by every lane in turn, per-lane RNG state,
/// and the dispatch scratch buffers. Allocated once per worker, reset per
/// block.
struct Kernel<'p> {
    plan: &'p Plan,
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
    counters: Counters,
}

impl<'p> Kernel<'p> {
    fn new(plan: &'p Plan, width: usize, has_check: bool) -> Self {
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
            scratch: has_check.then(|| Events::preallocated(&plan.names)),
            counters: Counters::default(),
        }
    }

    /// Run one block of `lanes` consecutive trials starting at
    /// `first_trial`. Pure in `(sweep, first_trial, lanes)`: block results
    /// cannot depend on which worker runs the block or what it ran before.
    fn run_block(
        &mut self,
        sweep: &BatchSweep,
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
        // the scalar engine applies per trial.
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
            counters.blocks += 1;
        }

        // Advance the block lane-major: each lane pumps its own pulse heap
        // to completion over the shared dense arrays before the next lane
        // starts. Lanes never interact — every per-trial quantity (machine
        // state columns, RNG stream, sequence numbers, recorded pulses) is
        // indexed by lane — so running them back to back produces exactly
        // the per-lane event sequence a fully merged lockstep heap would,
        // while the heap only ever holds one trial's in-flight pulses (the
        // scalar engine's depth) instead of `W`× that.
        for lane in 0..lanes {
            // Seed from the compiled stimulus schedule, in the scalar
            // engine's seeding order, so this lane's sequence numbers match
            // the scalar trial's exactly.
            heap.clear();
            let mut seq = 0u64;
            for sp in &cc.stim {
                if record_ok(sp.time) {
                    let slot = plan.obs_slot[sp.wire as usize];
                    if slot != u32::MAX {
                        obs[slot as usize * width + lane].push(sp.time);
                        if tel_on {
                            counters.wire += 1;
                        }
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
                    unreachable!("sources receive no pulses; hole circuits use the scalar fallback")
                };
                let si = node * width + lane;
                // A violation kills the lane — the batch equivalent of the
                // scalar run aborting with `Error::Timing` — and its partial
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
                    break;
                };
                states[si] = q;
                tau_done[si] = td;
                if tel_on {
                    counters.transitions += buf.ports.len() as u64;
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
                            if tel_on {
                                counters.wire += 1;
                            }
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
        // pulses out of order, exactly as in the scalar engine), run the
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
                    check(ev)
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

/// Private alias for the kernel-execution result triple.
type ExecOut = (Vec<String>, Vec<TrialOutcome>, Option<Vec<Vec<Vec<Time>>>>);

/// The batch Monte-Carlo sweep builder: the structure-of-arrays
/// counterpart of [`Sweep`], bit-identical to it at any thread count and
/// any batch width.
///
/// ```
/// use rlse_core::prelude::*;
/// use rlse_core::machine::{EdgeDef, Machine};
/// use rlse_core::sweep::{BatchSweep, Sweep};
///
/// # fn main() -> Result<(), rlse_core::Error> {
/// let jtl = Machine::new("JTL", &["a"], &["q"], 5.0, 2, &[EdgeDef {
///     src: "idle", trigger: "a", dst: "idle", firing: "q", ..EdgeDef::default()
/// }])?;
/// let build = move || {
///     let mut c = Circuit::new();
///     let a = c.inp_at(&[10.0], "A");
///     let q = c.add_machine(&jtl, &[a]).unwrap()[0];
///     c.inspect(q, "Q");
///     c
/// };
/// let batch = BatchSweep::over(&build)
///     .variability(|| Variability::Gaussian { std: 0.3 })
///     .trials(256)
///     .master_seed(42)
///     .run();
/// let scalar = Sweep::over(&build)
///     .variability(|| Variability::Gaussian { std: 0.3 })
///     .trials(256)
///     .master_seed(42)
///     .run();
/// assert_eq!(batch, scalar);
/// # Ok(())
/// # }
/// ```
pub struct BatchSweep<'a> {
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

impl std::fmt::Debug for BatchSweep<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchSweep")
            .field("trials", &self.trials)
            .field("master_seed", &self.master_seed)
            .field("threads", &self.threads)
            .field("batch_width", &self.batch_width)
            .field("until", &self.until)
            .finish_non_exhaustive()
    }
}

impl<'a> BatchSweep<'a> {
    /// Start a batch sweep over the circuit produced by `build`. The builder
    /// is called once for the probe build (twice on the scalar-fallback
    /// path); it must be deterministic.
    pub fn over(build: impl Fn() -> Circuit + Sync + 'a) -> Self {
        BatchSweep {
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

    /// Attach a [`Telemetry`] handle: workers flush `sweep_batch.*`
    /// execution counters (additive over blocks, so totals are bit-identical
    /// at any thread count), and the sweep records verdict counters plus a
    /// `sweep_batch.run` span on track 0.
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
    /// (default 0). The same derivation as [`Sweep::master_seed`].
    pub fn master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Set the worker thread count. `0` (the default) uses the machine's
    /// available parallelism. Affects wall-clock only, never the results.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the batch width `W`: how many trials (lanes) one block advances
    /// over one shared set of dense arrays (default 16). Wider blocks
    /// amortize block setup over more lanes but touch more state per cell;
    /// like the thread count, the width can never change the results, only
    /// the wall clock.
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

    /// Apply a variability model to every trial; the factory is called once
    /// per trial, exactly as in the scalar sweep.
    pub fn variability(mut self, factory: impl Fn() -> Variability + Sync + 'a) -> Self {
        self.variability = Some(Box::new(factory));
        self
    }

    /// Add a per-trial output check. The batch engine hands the callback an
    /// events dictionary holding the **observed** wires only (the scalar
    /// engine also carries anonymous internal wires); checks that only read
    /// named wires — the supported contract — see identical data.
    pub fn check(mut self, check: impl Fn(&Events) -> bool + Sync + 'a) -> Self {
        self.check = Some(Box::new(check));
        self
    }

    fn effective_threads(&self, n_blocks: usize) -> usize {
        let t = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.threads
        };
        t.min(n_blocks.max(1)).max(1)
    }

    /// The scalar-engine fallback for hole circuits, configured identically.
    fn scalar(&self) -> Sweep<'_> {
        let mut s = Sweep::over(&self.build)
            .trials(self.trials)
            .master_seed(self.master_seed)
            .threads(self.threads)
            .telemetry(&self.telemetry);
        if let Some(v) = &self.variability {
            s = s.variability(v);
        }
        if let Some(c) = &self.check {
            s = s.check(move |ev| c(ev));
        }
        if let Some(u) = self.until {
            s = s.until(u);
        }
        s
    }

    fn has_holes(probe: &Circuit) -> bool {
        probe
            .nodes
            .iter()
            .any(|n| matches!(n.kind, NodeKind::Hole(_)))
    }

    /// Compile once, deal blocks round-robin to workers, and stitch the
    /// per-block results back into global trial order.
    fn execute(&self, probe: &Circuit, want_outputs: bool) -> ExecOut {
        let plan = Plan::new(probe);
        let width = self.batch_width.max(1);
        let n_blocks = (self.trials as usize).div_ceil(width);
        let threads = self.effective_threads(n_blocks);
        let tel_on = self.telemetry.is_enabled();
        let mut per_worker: Vec<Vec<BlockOut>> = Vec::new();
        if n_blocks > 0 {
            std::thread::scope(|scope| {
                let plan = &plan;
                let handles: Vec<_> = (0..threads)
                    .map(|w| {
                        scope.spawn(move || {
                            let mut kernel = Kernel::new(plan, width, self.check.is_some());
                            let t_worker = self.telemetry.now();
                            let mut outs = Vec::new();
                            let mut done = 0u64;
                            // Deterministic round-robin deal: worker w gets
                            // blocks w, w+T, w+2T, …
                            let mut b = w;
                            while b < n_blocks {
                                let first_trial = (b * width) as u64;
                                let lanes = width.min(self.trials as usize - b * width);
                                outs.push(kernel.run_block(
                                    self,
                                    first_trial,
                                    lanes,
                                    want_outputs,
                                    tel_on,
                                ));
                                done += lanes as u64;
                                b += threads;
                            }
                            if tel_on {
                                kernel.counters.flush(&self.telemetry);
                                if let Some(t0) = t_worker {
                                    self.telemetry.record_span(
                                        "sweep_batch.worker",
                                        w as u32 + 1,
                                        t0,
                                        done,
                                    );
                                }
                            }
                            outs
                        })
                    })
                    .collect();
                per_worker = handles
                    .into_iter()
                    .map(|h| h.join().expect("batch sweep worker panicked"))
                    .collect();
            });
        }
        // Stitch: global block b was worker (b mod T)'s next block, so
        // popping each worker's deque in deal order restores trial order.
        for outs in per_worker.iter_mut() {
            outs.reverse();
        }
        let mut outcomes = Vec::with_capacity(self.trials as usize);
        let mut outputs = want_outputs.then(|| Vec::with_capacity(self.trials as usize));
        for b in 0..n_blocks {
            let blk = per_worker[b % threads]
                .pop()
                .expect("one result per dealt block");
            outcomes.extend(blk.outcomes);
            if let Some(out) = &mut outputs {
                out.extend(blk.outputs.expect("outputs requested from every block"));
            }
        }
        (plan.names, outcomes, outputs)
    }

    /// Execute the sweep and aggregate per-trial results into the same
    /// [`SweepReport`] the scalar engine produces — bit-identical to
    /// [`Sweep::run`] with the same circuit, trials, variability, check,
    /// and master seed, at any thread count and batch width.
    ///
    /// # Panics
    ///
    /// Panics if the circuit builder produces an ill-formed circuit or the
    /// sweep configuration is invalid, as [`Sweep::run`] does.
    pub fn run(&self) -> SweepReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run`](Self::run) with invalid sweep configuration reported as a
    /// [`SweepError`] instead of a panic.
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
        let probe = (self.build)();
        probe.check().expect("sweep circuit builder must be valid");
        {
            let v = self.variability.as_ref().map(|f| f());
            validate_variability(v.as_ref(), &probe)?;
        }
        if Self::has_holes(&probe) {
            if self.telemetry.is_enabled() {
                self.telemetry.add("sweep_batch.fallback_scalar", 1);
            }
            return self.scalar().try_run();
        }
        let t_run = self.telemetry.now();
        let (names, outcomes, _) = self.execute(&probe, false);
        let report = reduce(names, self.trials, &outcomes);
        if self.telemetry.is_enabled() {
            self.telemetry.add_many(&[
                ("sweep_batch.runs", 1),
                ("sweep_batch.trials", self.trials),
                ("sweep_batch.ok", report.ok),
                ("sweep_batch.check_failures", report.check_failures),
                ("sweep_batch.timing_violations", report.timing_violations),
                ("sweep_batch.other_errors", report.other_errors),
            ]);
            if let Some(t0) = t_run {
                self.telemetry
                    .record_span("sweep_batch.run", 0, t0, self.trials);
            }
        }
        Ok(report)
    }

    /// Run every trial and return its individual verdict and output pulse
    /// times — bit-identical to [`Sweep::run_detailed`] on the same inputs,
    /// at any thread count and batch width. This is the surface the
    /// differential test harness compares.
    ///
    /// # Panics
    ///
    /// Panics if the circuit builder produces an ill-formed circuit or the
    /// sweep configuration is invalid.
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
        let probe = (self.build)();
        probe.check().expect("sweep circuit builder must be valid");
        {
            let v = self.variability.as_ref().map(|f| f());
            validate_variability(v.as_ref(), &probe)?;
        }
        if Self::has_holes(&probe) {
            return self.scalar().try_run_detailed();
        }
        let (names, outcomes, outputs) = self.execute(&probe, true);
        let outputs = outputs.expect("outputs requested");
        let trials = outcomes
            .iter()
            .zip(outputs)
            .enumerate()
            .map(|(i, (outcome, outs))| TrialDetail {
                trial: i as u64,
                verdict: outcome.verdict(),
                outputs: outs,
            })
            .collect();
        Ok(SweepDetails { names, trials })
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

    #[test]
    fn batch_matches_scalar_across_widths_and_threads() {
        let build = diamond_builder();
        let scalar = Sweep::over(&build)
            .variability(|| Variability::Gaussian { std: 0.4 })
            .trials(64)
            .master_seed(7)
            .run();
        for width in [1, 3, 16, 64, 100] {
            for threads in [1, 4] {
                let batch = BatchSweep::over(&build)
                    .variability(|| Variability::Gaussian { std: 0.4 })
                    .trials(64)
                    .master_seed(7)
                    .threads(threads)
                    .batch_width(width)
                    .run();
                assert_eq!(batch, scalar, "width={width} threads={threads}");
            }
        }
    }

    #[test]
    fn detailed_runs_are_bit_identical_to_scalar() {
        let build = diamond_builder();
        let scalar = Sweep::over(&build)
            .variability(|| Variability::Gaussian { std: 0.6 })
            .trials(33)
            .master_seed(3)
            .run_detailed();
        for width in [1, 7, 64] {
            let batch = BatchSweep::over(&build)
                .variability(|| Variability::Gaussian { std: 0.6 })
                .trials(33)
                .master_seed(3)
                .batch_width(width)
                .threads(4)
                .run_detailed();
            assert_eq!(batch, scalar, "width={width}");
        }
    }

    #[test]
    fn check_and_until_match_scalar() {
        let build = diamond_builder();
        let scalar = Sweep::over(&build)
            .variability(|| Variability::Gaussian { std: 0.3 })
            .trials(40)
            .master_seed(11)
            .until(45.0)
            .check(|ev| ev.times("L").len() == ev.times("R").len())
            .run();
        let batch = BatchSweep::over(&build)
            .variability(|| Variability::Gaussian { std: 0.3 })
            .trials(40)
            .master_seed(11)
            .until(45.0)
            .check(|ev| ev.times("L").len() == ev.times("R").len())
            .batch_width(7)
            .run();
        assert_eq!(batch, scalar);
        // The until cutoff actually bit: the third stimulus pulse (t=55)
        // never reaches the outputs.
        assert_eq!(batch.output("L").unwrap().pulses, 80);
    }

    #[test]
    fn stateful_custom_variability_matches_scalar() {
        // A stateful custom model: the k-th firing of a trial gets +0.1·k.
        // The factory builds it fresh per trial in both engines, and each
        // lane calls its own closure in the lane's dispatch order.
        let build = diamond_builder();
        let factory = || {
            let mut k = 0u32;
            Variability::Custom(Box::new(move |nominal, _cell, _rng| {
                k += 1;
                nominal + 0.1 * k as f64
            }))
        };
        let scalar = Sweep::over(&build)
            .variability(factory)
            .trials(17)
            .master_seed(5)
            .run_detailed();
        let batch = BatchSweep::over(&build)
            .variability(factory)
            .trials(17)
            .master_seed(5)
            .batch_width(4)
            .threads(2)
            .run_detailed();
        assert_eq!(batch, scalar);
    }

    #[test]
    fn mixed_per_cell_sigma_matches_scalar() {
        let build = diamond_builder();
        let factory = || {
            let mut map = std::collections::HashMap::new();
            map.insert("JTL".to_string(), 0.5);
            map.insert("S".to_string(), 0.0); // σ=0: skipped, no RNG draw
            Variability::PerCellType(map)
        };
        let scalar = Sweep::over(&build)
            .variability(factory)
            .trials(24)
            .master_seed(9)
            .run_detailed();
        let batch = BatchSweep::over(&build)
            .variability(factory)
            .trials(24)
            .master_seed(9)
            .batch_width(5)
            .run_detailed();
        assert_eq!(batch, scalar);
    }

    #[test]
    fn timing_violations_kill_lanes_not_blocks() {
        // A 10 ps transition-time cell fed pulses 1 ps apart violates in
        // every trial; batch verdicts must match the scalar engine's.
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
        let scalar = Sweep::over(&build).trials(12).run();
        let batch = BatchSweep::over(&build).trials(12).batch_width(8).run();
        assert_eq!(batch, scalar);
        assert_eq!(batch.timing_violations, 12);
    }

    #[test]
    fn jitter_dependent_violations_diverge_per_lane() {
        // A reconvergent fan-out racing a transition-time window: the two
        // jittered paths arrive ~2 ps apart at a merger that needs 3 ps to
        // recover, so with heavy jitter some trials violate and some pass —
        // lanes within one block genuinely diverge, and must still match
        // the scalar engine.
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
        let sigma = 2.0;
        let scalar = Sweep::over(&build)
            .variability(move || Variability::Gaussian { std: sigma })
            .trials(200)
            .master_seed(1)
            .run();
        let batch = BatchSweep::over(&build)
            .variability(move || Variability::Gaussian { std: sigma })
            .trials(200)
            .master_seed(1)
            .batch_width(32)
            .threads(4)
            .run();
        assert_eq!(batch, scalar);
        // Guard against a vacuous pass: the workload must actually mix
        // verdicts for the divergence path to have been exercised.
        assert!(batch.ok > 0, "some trials must pass");
        assert!(batch.timing_violations > 0, "some trials must violate");
    }

    #[test]
    fn zero_trials_yields_empty_report_without_panic() {
        let build = diamond_builder();
        let batch = BatchSweep::over(&build).trials(0).run();
        let scalar = Sweep::over(&build).trials(0).run();
        assert_eq!(batch, scalar);
        assert_eq!(batch.trials, 0);
        assert_eq!(batch.ok, 0);
        assert_eq!(batch.failure_rate(), 0.0);
        assert_eq!(batch.output("L").unwrap().pulses, 0);
        // The detailed view is empty too.
        assert!(BatchSweep::over(&build).trials(0).run_detailed().trials.is_empty());
    }

    #[test]
    fn hole_circuits_fall_back_to_scalar() {
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
        let tel = Telemetry::new();
        let batch = BatchSweep::over(build).trials(6).telemetry(&tel).run();
        let scalar = Sweep::over(build).trials(6).run();
        assert_eq!(batch, scalar);
        assert_eq!(tel.report().counter("sweep_batch.fallback_scalar"), 1);
        // The scalar engine did the work.
        assert_eq!(tel.report().counter("sweep.runs"), 1);
    }

    #[test]
    fn telemetry_counters_identical_across_threads_and_widths() {
        let run = |threads, width| {
            let tel = Telemetry::new();
            BatchSweep::over(diamond_builder())
                .variability(|| Variability::Gaussian { std: 0.4 })
                .trials(64)
                .master_seed(7)
                .threads(threads)
                .batch_width(width)
                .telemetry(&tel)
                .run();
            tel.report()
        };
        let serial = run(1, 16);
        let parallel = run(8, 16);
        assert_eq!(serial, parallel);
        assert_eq!(serial.counter("sweep_batch.trials"), 64);
        assert_eq!(serial.counter("sweep_batch.ok"), 64);
        assert_eq!(serial.counter("sweep_batch.blocks"), 4);
        assert!(serial.counter("sweep_batch.dispatches") > 0);
        // Different widths change block structure (and so the block
        // counters) but never the verdict counters.
        let wide = run(4, 64);
        assert_eq!(wide.counter("sweep_batch.blocks"), 1);
        assert_eq!(wide.counter("sweep_batch.ok"), 64);
        assert_eq!(
            wide.counter("sweep_batch.dispatches"),
            serial.counter("sweep_batch.dispatches")
        );
    }

    #[test]
    fn nominal_batch_is_exact() {
        let report = BatchSweep::over(diamond_builder()).trials(16).run();
        assert_eq!(report.ok, 16);
        let l = report.output("L").unwrap();
        assert_eq!(l.pulses, 48); // 3 pulses × 16 trials
        assert_eq!(l.min, 10.0 + 4.3 + 5.0);
        assert_eq!(l.max, 55.0 + 4.3 + 5.0);
    }
}
