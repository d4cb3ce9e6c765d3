//! Seeded workload generators.
//!
//! A workload is a cyclic stream of request lines. The generator builds a
//! small set of distinct lines and a *period*: a seeded order over them in
//! which every request class appears in proportion to its weight. The
//! stream repeats the period; the server only ever sees the lines.

use rlse_core::ir::Ir;

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload::SimHot,
    Workload::SimCold,
    Workload::MonteCarlo,
    Workload::Mixed,
];

/// One seeded traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `simulate` over a fixed, pre-compiled circuit set: every lookup hits.
    SimHot,
    /// `simulate` of a never-seen circuit per request: every lookup misses
    /// and evicts.
    SimCold,
    /// Monte-Carlo `sweep` requests plus a share of `shmoo` maps.
    MonteCarlo,
    /// All five request kinds against one server and cache.
    Mixed,
}

/// A request class: lines of similar cost. Classes are listed in
/// ascending cost order, so cumulative weights give each class's band of
/// latency ranks.
#[derive(Debug, Clone, Copy)]
pub struct Class {
    /// Short label.
    pub name: &'static str,
    /// Share of requests, in percent.
    pub weight: u32,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimHot => "sim_hot",
            Workload::SimCold => "sim_cold",
            Workload::MonteCarlo => "montecarlo",
            Workload::Mixed => "mixed",
        }
    }

    /// The class mix, cheapest class first. Weights sum to 100.
    pub fn classes(self) -> &'static [Class] {
        match self {
            Workload::SimHot => &[
                Class {
                    name: "sim_min_max",
                    weight: 60,
                },
                Class {
                    name: "sim_mid",
                    weight: 33,
                },
                Class {
                    name: "sim_bitonic_8",
                    weight: 7,
                },
            ],
            Workload::SimCold => &[
                Class {
                    name: "sim_min_max",
                    weight: 60,
                },
                Class {
                    name: "sim_mid",
                    weight: 36,
                },
                Class {
                    name: "sim_bitonic_8",
                    weight: 4,
                },
            ],
            Workload::MonteCarlo => &[
                Class {
                    name: "shmoo",
                    weight: 10,
                },
                Class {
                    name: "sweep_min_max",
                    weight: 60,
                },
                Class {
                    name: "sweep_race_tree",
                    weight: 30,
                },
            ],
            Workload::Mixed => &[
                Class {
                    name: "ping",
                    weight: 10,
                },
                Class {
                    name: "simulate",
                    weight: 50,
                },
                Class {
                    name: "sweep_shmoo",
                    weight: 25,
                },
                Class {
                    name: "mc_min_max",
                    weight: 10,
                },
                Class {
                    name: "mc_race_tree",
                    weight: 5,
                },
            ],
        }
    }

    /// The class holding latency rank `q` (0..=1) when classes rank by
    /// cost, and the rank's distance to the nearest boundary with another
    /// class, in percentage points.
    pub fn rank_class(self, q: f64) -> (usize, f64) {
        let q = q * 100.0;
        let classes = self.classes();
        let mut lo = 0.0;
        for (c, class) in classes.iter().enumerate() {
            let hi = lo + class.weight as f64;
            if q < hi || c + 1 == classes.len() {
                let below = if c == 0 { f64::INFINITY } else { q - lo };
                let above = if c + 1 == classes.len() {
                    f64::INFINITY
                } else {
                    hi - q
                };
                return (c, below.min(above));
            }
            lo = hi;
        }
        unreachable!("weights cover every rank")
    }

    /// Stream period in lines. `mixed` and `sim_cold` carry never-seen
    /// circuits, so their period is longer than one process consumes
    /// (`mixed`) or than the compiled cache holds (`sim_cold`).
    pub fn period(self) -> usize {
        match self {
            Workload::SimHot => 200,
            Workload::SimCold => COLD_POOL,
            Workload::MonteCarlo => 100,
            Workload::Mixed => 4000,
        }
    }
}

/// Distinct circuits behind `sim_cold`: twice the server's default
/// compiled-cache cap (1024), so a cyclic stream always misses under LRU.
pub const COLD_POOL: usize = 2048;

/// Lines the `sim_cold` warm-up serves to fill the cache before timing.
pub const COLD_FILL: usize = 1024;

/// A generated workload: distinct request lines and the period over them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Corpus {
    /// Every distinct request line.
    pub distinct: Vec<String>,
    /// Class index of each distinct line.
    pub class_of: Vec<usize>,
    /// The stream period, as indices into `distinct`.
    pub period: Vec<u32>,
    /// Lines (indices into `distinct`) the warm-up serves before timing.
    pub warmup: Vec<u32>,
}

impl Corpus {
    /// The period expanded to JSON lines, newline-terminated: the file the
    /// server streams.
    pub fn stream_text(&self) -> String {
        let mut out = String::new();
        for &i in &self.period {
            out.push_str(&self.distinct[i as usize]);
            out.push('\n');
        }
        out
    }
}

/// SplitMix64: a tiny seeded generator, so corpora depend on nothing but
/// the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_u64)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Builds the distinct-line table, deduplicating identical lines.
#[derive(Default)]
struct Builder {
    corpus: Corpus,
    index: std::collections::HashMap<String, u32>,
}

impl Builder {
    fn add(&mut self, class: usize, line: String) -> u32 {
        if let Some(&i) = self.index.get(&line) {
            return i;
        }
        let i = self.corpus.distinct.len() as u32;
        self.index.insert(line.clone(), i);
        self.corpus.distinct.push(line);
        self.corpus.class_of.push(class);
        i
    }
}

fn ir_json(name: &str, scale: f64, expected: bool) -> String {
    let ir: Ir = if expected {
        rlse_designs::design_ir_with_expected_outputs(name, scale)
    } else {
        rlse_designs::design_ir(name, scale)
    };
    ir.to_value().to_compact()
}

/// `n` evenly spaced time-scales in `[1.0, 1.5)`, rounded to 1e-6 so they
/// print compactly. The grid is the same for every seed: a request's cost
/// depends on its circuit's scale (a 2000-trial min_max sweep takes 8 ms at
/// one scale and 13 ms at another), so seeds vary the order of requests
/// and their trial seeds, never the work a period holds.
fn scales(n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| {
            let s = 1.0 + 0.5 * (k as f64 + 0.5) / n as f64;
            (s * 1e6).round() / 1e6
        })
        .collect()
}

fn simulate(id: &str, ir: &str) -> String {
    format!("{{\"id\":\"{id}\",\"kind\":\"simulate\",\"ir\":{ir}}}")
}

const MID_DESIGNS: [&str; 4] = ["adder_xsfq", "race_tree", "bitonic_4", "adder_sync"];

/// Lay out a period by smooth weighted round-robin: classes interleave
/// evenly, so every stretch of the stream — and so every timed window,
/// whatever its length — holds each class within one request of its
/// weight. The seed sets the starting phase and the variant order.
fn layout(rng: &mut Rng, classes: &[Class], period: usize, variants: &[Vec<u32>]) -> Vec<u32> {
    let total: i64 = classes.iter().map(|c| c.weight as i64).sum();
    let mut current: Vec<i64> = classes
        .iter()
        .map(|_| rng.below(total as usize) as i64)
        .collect();
    let mut order: Vec<Vec<u32>> = variants.to_vec();
    for v in &mut order {
        rng.shuffle(v);
    }
    let mut next = vec![0usize; classes.len()];
    (0..period)
        .map(|_| {
            for (cur, class) in current.iter_mut().zip(classes) {
                *cur += class.weight as i64;
            }
            let c = (0..classes.len())
                .max_by_key(|&c| (current[c], std::cmp::Reverse(c)))
                .expect("classes");
            current[c] -= total;
            next[c] += 1;
            order[c][(next[c] - 1) % order[c].len()]
        })
        .collect()
}

/// Generate `workload`'s corpus for `seed`. Byte-deterministic per seed.
pub fn corpus(workload: Workload, seed: u64) -> Corpus {
    let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(workload as u64));
    let mut b = Builder::default();
    let classes = workload.classes();
    let period = workload.period();
    match workload {
        Workload::SimHot => {
            let groups: [&[&str]; 3] = [&["min_max"], &MID_DESIGNS, &["bitonic_8"]];
            let per_design = [8, 3, 4];
            let mut variants = vec![Vec::new(); classes.len()];
            for (c, designs) in groups.iter().enumerate() {
                for design in designs.iter() {
                    for (k, s) in scales(per_design[c]).into_iter().enumerate() {
                        let line =
                            simulate(&format!("hot-{design}-{k}"), &ir_json(design, s, false));
                        variants[c].push(b.add(c, line));
                    }
                }
            }
            let p = layout(&mut rng, classes, period, &variants);
            b.corpus.warmup = (0..b.corpus.distinct.len() as u32).collect();
            b.corpus.period = p;
        }
        Workload::SimCold => {
            // Every slot of the period is a distinct (design, scale)
            // circuit: each class gets a fresh circuit per slot of its
            // share, plus slack for the round-robin's phase.
            let groups: [&[&str]; 3] = [&["min_max"], &MID_DESIGNS, &["bitonic_8"]];
            let mut variants = vec![Vec::new(); classes.len()];
            for (c, class) in classes.iter().enumerate() {
                let n = COLD_POOL * class.weight as usize / 100 + 2;
                for design in groups[c] {
                    for s in scales(n.div_ceil(groups[c].len())) {
                        let k = b.corpus.distinct.len();
                        variants[c].push(b.add(
                            c,
                            simulate(&format!("cold-{k}"), &ir_json(design, s, false)),
                        ));
                    }
                }
            }
            let p = layout(&mut rng, classes, COLD_POOL, &variants);
            // Fill the cache with the pool's tail, so the stream (which
            // starts at the head) misses and evicts from its first line.
            b.corpus.warmup = p[COLD_POOL - COLD_FILL..].to_vec();
            b.corpus.period = p;
        }
        Workload::MonteCarlo => {
            let mut variants = vec![Vec::new(); classes.len()];
            for k in 0..4 {
                let sigma = [0.0, 0.1, 0.2][k % 3];
                let line = format!(
                    "{{\"id\":\"mc-shmoo-{k}\",\"kind\":\"shmoo\",\"design\":\"{}\",\
                     \"sigmas\":[{sigma},0.3],\"scales\":[0.6,0.9,1.2,1.5],\"trials\":96,\"seed\":{k}}}",
                    ["min_max", "adder_xsfq"][k % 2],
                );
                variants[0].push(b.add(0, line));
            }
            let sweep = |b: &mut Builder,
                         rng: &mut Rng,
                         c: usize,
                         design: &str,
                         s: f64,
                         k: usize| {
                let check = k % 2 == 1;
                let line = format!(
                    "{{\"id\":\"mc-sweep-{design}-{k}\",\"kind\":\"sweep\",\"trials\":2000,\
                     \"seed\":{},\"check\":{check},\"variability\":{{\"kind\":\"gaussian\",\"std\":0.1}},\"ir\":{}}}",
                    rng.below(1 << 20),
                    ir_json(design, s, check)
                );
                b.add(c, line)
            };
            for (k, s) in scales(8).into_iter().enumerate() {
                let v = sweep(&mut b, &mut rng, 1, "min_max", s, k);
                variants[1].push(v);
            }
            for (k, s) in scales(4).into_iter().enumerate() {
                let v = sweep(&mut b, &mut rng, 2, "race_tree", s, k);
                variants[2].push(v);
            }
            let p = layout(&mut rng, classes, period, &variants);
            b.corpus.warmup = variants.iter().flatten().copied().collect();
            b.corpus.period = p;
        }
        Workload::Mixed => {
            let mut variants = vec![Vec::new(); classes.len()];
            variants[0].push(b.add(0, "{\"id\":\"mix-ping\",\"kind\":\"ping\"}".to_string()));
            for design in ["min_max", "race_tree", "adder_xsfq"] {
                for (k, s) in scales(2).into_iter().enumerate() {
                    let ir = ir_json(design, s, false);
                    variants[1].push(b.add(1, simulate(&format!("mix-sim-{design}-{k}"), &ir)));
                }
            }
            let checked = ir_json("min_max", 1.0, true);
            for k in 0..3 {
                let line = format!(
                    "{{\"id\":\"mix-sweep-{k}\",\"kind\":\"sweep\",\"trials\":200,\"seed\":{},\
                     \"check\":true,\"variability\":{{\"kind\":\"gaussian\",\"std\":0.1}},\"ir\":{checked}}}",
                    rng.below(1 << 20)
                );
                variants[2].push(b.add(2, line));
                let line = format!(
                    "{{\"id\":\"mix-shmoo-{k}\",\"kind\":\"shmoo\",\"design\":\"min_max\",\
                     \"sigmas\":[0.0,0.3],\"scales\":[0.6,1.0,1.4],\"trials\":32,\"seed\":{k}}}"
                );
                variants[2].push(b.add(2, line));
            }
            // The timed-automata translation needs stimulus times on the
            // 0.1 ps grid, so model checks use tenth-step scales.
            for (c, design) in [(3, "min_max"), (4, "race_tree")] {
                for (k, s) in [1.0, 1.5].into_iter().enumerate() {
                    let ir = ir_json(design, s, false);
                    let line = format!(
                        "{{\"id\":\"mix-mc-{design}-{k}\",\"kind\":\"model_check\",\
                         \"max_states\":200000,\"ir\":{ir}}}"
                    );
                    variants[c].push(b.add(c, line));
                }
            }
            let mut p = layout(&mut rng, classes, period, &variants);
            // One simulate slot in 25 carries a never-seen circuit: a
            // min_max at a fresh scale, unique within the period.
            let fresh: Vec<usize> = (0..p.len())
                .filter(|&i| b.corpus.class_of[p[i] as usize] == 1)
                .collect();
            let n_fresh = fresh.len() / 25;
            let fresh_scales = scales(n_fresh);
            for (k, (&slot, s)) in fresh.iter().step_by(25).zip(fresh_scales).enumerate() {
                let s = 1.6 + (s - 1.0);
                p[slot] = b.add(
                    1,
                    simulate(&format!("mix-new-{k}"), &ir_json("min_max", s, false)),
                );
            }
            b.corpus.warmup = variants.iter().flatten().copied().collect();
            b.corpus.period = p;
        }
    }
    b.corpus
}
