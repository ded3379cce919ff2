//! The simulation phase of a run: host ns per correct-path instruction per
//! technique, measured from outside `Simulator::new` + `run`.

use crate::probe::{Probe, NOMINAL_NS};
use crate::stats::{median, quantile, ratio, Outcome};
use crate::tracer::{LayerCounts, Sink, TracedTechnique};
use ffsim_core::{
    ObsConfig, SimConfig, SimError, SimResult, Simulator, TechniqueRegistry, WrongPathMode,
};
use ffsim_driver::cache::workload_digest;
use ffsim_emu::Emulator;
use ffsim_workloads::speclike::{
    binary_search, dense_mv, dot_product, filter_scan, hash_probe, interp_dispatch, nbody_step,
    spmv, stencil3, stream_triad,
};
use ffsim_workloads::{gap, Graph, Workload, WorkloadError};
use std::time::{Duration, Instant};

const TECHS: [WrongPathMode; 4] = WrongPathMode::ALL;

/// Functional steps allowed for the reference run of one kernel.
const REFERENCE_STEP_LIMIT: u64 = 50_000_000;

/// Which simulation mix to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mix {
    /// SPEC-like INT kernels plus GAP bc and tc: 6–12 wrong-path
    /// instructions per correct-path one.
    WrongPathHeavy,
    /// SPEC-like FP kernels: almost no mispredicts.
    CorrectPathFp,
}

/// Builds every kernel of `mix` from `seed`: graphs, kernel programs and
/// memory images. Sizes are fixed; the seed varies the data, so instruction
/// counts move only slightly between seeds.
fn build_kernels(mix: Mix, seed: u64) -> Result<Vec<Workload>, WorkloadError> {
    match mix {
        Mix::WrongPathHeavy => {
            let g = Graph::rmat(1 << 9, 4, seed);
            let src = g.max_degree_vertex();
            Ok(vec![
                hash_probe(1 << 14, 2_000, seed ^ 1)?,
                binary_search(1 << 14, 350, seed ^ 2)?,
                interp_dispatch(5_500, seed ^ 8)?,
                filter_scan(7_000, seed ^ 10)?,
                gap::bc(&g, src)?,
                gap::tc(&g)?,
            ])
        }
        Mix::CorrectPathFp => Ok(vec![
            stream_triad(1 << 12, 4)?,
            dense_mv(80, 4)?,
            stencil3(1 << 12, 6)?,
            spmv(1 << 10, 8, 3, seed ^ 9)?,
            dot_product(1 << 13, 4)?,
            nbody_step(96, 2)?,
        ]),
    }
}

/// The kernels of one run and their set-up samples.
pub struct Inputs {
    pub kernels: Vec<Workload>,
    pub setup: Setup,
}

/// Repeated, timed builds of a run's kernels.
pub struct Setup {
    mix: Mix,
    seed: u64,
    batch: usize,
    /// Program and memory digests of the first build.
    digests: Vec<u64>,
    /// Wall time of one complete build, one entry per sample.
    times: Vec<f64>,
}

fn digests(kernels: &[Workload]) -> Vec<u64> {
    kernels
        .iter()
        .map(|w| workload_digest(w.program(), w.memory()))
        .collect()
}

impl Setup {
    /// Times `batch` builds back to back, records the time per build and
    /// returns it; every build must produce the first build's digests.
    pub fn sample(&mut self, out: &mut Outcome) -> f64 {
        let started = Instant::now();
        let builds: Vec<_> = (0..self.batch)
            .map(|_| build_kernels(self.mix, self.seed))
            .collect();
        let per_build = started.elapsed().as_secs_f64() / self.batch as f64;
        self.times.push(per_build);
        for build in builds {
            let same = build.map(|kernels| digests(&kernels) == self.digests);
            out.check(matches!(same, Ok(true)), || {
                format!("input build is not deterministic: {same:?}")
            });
        }
        per_build
    }

    /// Median wall time of one complete build.
    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// Builds the kernels once; set-up samples are taken by the caller.
pub fn setup(mix: Mix, seed: u64, batch: usize) -> Result<Inputs, String> {
    let kernels = build_kernels(mix, seed).map_err(|e| format!("building inputs: {e}"))?;
    let setup = Setup {
        mix,
        seed,
        batch,
        digests: digests(&kernels),
        times: Vec::new(),
    };
    Ok(Inputs { kernels, setup })
}

/// The deterministic part of a [`SimResult`]: everything but wall time and
/// observability output.
#[derive(Clone, PartialEq, Debug)]
struct Fingerprint(String);

fn fingerprint(r: &SimResult) -> Fingerprint {
    Fingerprint(format!(
        "{:?} {} {} {} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?} {} {:?}",
        r.mode,
        r.instructions,
        r.cycles,
        r.wrong_path_instructions,
        r.branch,
        r.convergence,
        r.code_cache,
        r.block_cache,
        r.l1i,
        r.l1d,
        r.l2,
        r.llc,
        r.dram,
        r.itlb,
        r.dtlb,
        r.faults,
        r.state_digest,
        r.cpi
    ))
}

/// How one trial is instrumented.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Variant {
    Plain,
    Traced,
    Profiled,
}

/// Runs one kernel under one technique, timing `Simulator::new` + `run`.
fn simulate(
    k: &Workload,
    mode: WrongPathMode,
    variant: Variant,
    sink: &Sink,
) -> Result<(SimResult, Duration), SimError> {
    let program = k.program().clone();
    let memory = k.memory().clone();
    let mut cfg = SimConfig::new(mode);
    cfg.obs = if variant == Variant::Profiled {
        ObsConfig::profiled()
    } else {
        ObsConfig::disabled()
    };
    let started = Instant::now();
    let sim = if variant == Variant::Traced {
        let inner = TechniqueRegistry::builtin()
            .build_for_mode(mode, &cfg)
            .expect("builtin registry covers every mode");
        let traced = Box::new(TracedTechnique::new(inner, sink.clone()));
        Simulator::with_technique(program, memory, cfg, traced)?
    } else {
        Simulator::new(program, memory, cfg)?
    };
    let result = sim.run()?;
    Ok((result, started.elapsed()))
}

/// What the functional emulator alone computes for a kernel.
struct Reference {
    instructions: u64,
    digest: u64,
}

/// Runs every kernel functionally to `halt` and validates its output
/// against the kernel's Rust reference.
fn references(kernels: &[Workload], out: &mut Outcome) -> Vec<Option<Reference>> {
    kernels
        .iter()
        .map(|w| {
            let run = || -> Result<Reference, String> {
                let mut emu = Emulator::with_memory(w.program().clone(), w.memory().clone())
                    .map_err(|e| e.to_string())?;
                let instructions = emu
                    .run_to_halt(REFERENCE_STEP_LIMIT)
                    .map_err(|e| format!("{e:?}"))?;
                if !emu.is_halted() {
                    return Err("did not halt".into());
                }
                w.validate(emu.mem())?;
                Ok(Reference {
                    instructions,
                    digest: emu.digest(),
                })
            };
            match run() {
                Ok(r) => {
                    out.check(true, String::new);
                    Some(r)
                }
                Err(e) => {
                    out.check(false, || format!("{}: reference run: {e}", w.name()));
                    None
                }
            }
        })
        .collect()
}

/// Per-technique sums over one round's kernels.
#[derive(Clone, Copy, Default, Debug)]
struct Acc {
    wall_ns: f64,
    instructions: u64,
    layers: LayerCounts,
}

/// Deterministic per-(kernel, technique) results from the untimed first
/// round, which every later trial must reproduce.
struct Baseline {
    results: Vec<[Option<SimResult>; 4]>,
}

impl Baseline {
    fn get(&self, kernel: usize, tech: usize) -> Option<&SimResult> {
        self.results[kernel][tech].as_ref()
    }
}

/// Runs the untimed warm-up round and checks it against the functional
/// reference: every technique retires the reference's instructions and
/// ends in the reference's architectural state.
fn baseline(kernels: &[Workload], out: &mut Outcome) -> Baseline {
    let refs = references(kernels, out);
    let sink = Sink::default();
    let mut results = Vec::new();
    for (k, reference) in kernels.iter().zip(&refs) {
        let mut row: [Option<SimResult>; 4] = Default::default();
        for (t, mode) in TECHS.iter().enumerate() {
            match simulate(k, *mode, Variant::Plain, &sink) {
                Ok((r, _)) => {
                    out.check(
                        reference.as_ref().is_some_and(|rf| {
                            rf.instructions == r.instructions && rf.digest == r.state_digest
                        }),
                        || {
                            format!(
                                "{}/{}: simulated stream differs from the functional reference",
                                k.name(),
                                mode.label()
                            )
                        },
                    );
                    row[t] = Some(r);
                }
                Err(e) => out.check(false, || format!("{}/{}: {e}", k.name(), mode)),
            }
        }
        results.push(row);
    }
    Baseline { results }
}

/// One timed trial, checked against the baseline; `None` if it failed.
fn trial(
    kernels: &[Workload],
    base: &Baseline,
    ki: usize,
    ti: usize,
    variant: Variant,
    sink: &Sink,
    out: &mut Outcome,
) -> Option<(SimResult, Duration)> {
    let k = &kernels[ki];
    let mode = TECHS[ti];
    match simulate(k, mode, variant, sink) {
        Ok((r, wall)) => {
            let same = base.get(ki, ti).map(fingerprint) == Some(fingerprint(&r));
            out.check(same, || {
                format!(
                    "{}/{} ({variant:?}): result differs from the first trial",
                    k.name(),
                    mode.label()
                )
            });
            same.then_some((r, wall))
        }
        Err(e) => {
            out.check(false, || format!("{}/{}: {e}", k.name(), mode));
            None
        }
    }
}

fn technique_order(round: usize, kernel: usize) -> impl Iterator<Item = usize> {
    (0..4).map(move |j| (round + kernel + j) % 4)
}

/// Rounds of timed trials. Every round runs all four techniques back to
/// back on each kernel, in an order rotated every round and every kernel,
/// so host drift lands on all four. In the plain pass a trial runs with
/// tracing off; in the traced pass each (kernel, technique) runs plain,
/// traced and profiled, and the layer split comes from the traced trials.
pub struct Rounds {
    base: Baseline,
    variants: &'static [Variant],
    /// per_round[variant][tech] = ns per instruction of that round.
    per_round: [[Vec<f64>; 4]; 3],
    /// Plain ns per instruction of each round, calibrated by the probes
    /// run after that round's trials.
    calibrated: [Vec<f64>; 4],
    fill: [Vec<f64>; 4],
    self_time: [Vec<f64>; 4],
    share: [Vec<f64>; 4],
    per_wp: [Vec<f64>; 4],
    /// The first round's traced counts.
    counts: [LayerCounts; 4],
    round: usize,
}

impl Rounds {
    /// Checks the kernels against the functional reference and runs the
    /// untimed baseline round.
    pub fn new(kernels: &[Workload], traced: bool, out: &mut Outcome) -> Rounds {
        Rounds {
            base: baseline(kernels, out),
            variants: if traced {
                &[Variant::Plain, Variant::Traced, Variant::Profiled]
            } else {
                &[Variant::Plain]
            },
            per_round: Default::default(),
            calibrated: Default::default(),
            fill: Default::default(),
            self_time: Default::default(),
            share: Default::default(),
            per_wp: Default::default(),
            counts: Default::default(),
            round: 0,
        }
    }

    /// Timed rounds so far.
    pub fn count(&self) -> usize {
        self.round
    }

    /// Runs one round, with one probe after every trial.
    pub fn run(&mut self, kernels: &[Workload], probe: &mut Probe, out: &mut Outcome) {
        let (round, nv) = (self.round, self.variants.len());
        let mut acc = [[Acc::default(); 4]; 3];
        let mut probe_ns = Vec::new();
        for ki in 0..kernels.len() {
            for ti in technique_order(round, ki) {
                for vi in (0..nv).map(|j| (round + ki + j) % nv) {
                    let variant = self.variants[vi];
                    let sink = Sink::default();
                    let result = trial(kernels, &self.base, ki, ti, variant, &sink, out);
                    probe_ns.push(probe.run());
                    let Some((r, wall)) = result else {
                        continue;
                    };
                    let a = &mut acc[vi][ti];
                    a.wall_ns += wall.as_nanos() as f64;
                    a.instructions += r.instructions;
                    if variant == Variant::Traced {
                        let l = *sink.lock().expect("trial finished");
                        check_layers(&l, &r, kernels[ki].name(), out);
                        a.layers.add(&l);
                    }
                }
            }
        }
        let scale = NOMINAL_NS / median(&probe_ns);
        for ti in 0..4 {
            for (per_round, acc) in self.per_round.iter_mut().zip(&acc).take(nv) {
                per_round[ti].push(ratio(acc[ti].wall_ns, acc[ti].instructions as f64));
            }
            let plain = self.per_round[0][ti].last().copied().unwrap_or(0.0);
            self.calibrated[ti].push(plain * scale);
            if nv == 1 {
                continue;
            }
            let a = &acc[1][ti];
            let l = &a.layers;
            let instr = a.instructions as f64;
            self.fill[ti].push(ratio(l.fill_ns as f64, instr));
            self.self_time[ti].push(ratio(
                a.wall_ns - l.fill_ns as f64 - l.mispredict_ns as f64,
                instr,
            ));
            self.share[ti].push(ratio(l.mispredict_ns as f64, a.wall_ns));
            self.per_wp[ti].push(ratio(l.mispredict_ns as f64, l.episode_wp as f64));
            if round == 0 {
                self.counts[ti] = *l;
            }
        }
        self.round += 1;
    }

    /// Prints `<tech>_ns_per_instr`, the median over rounds of calibrated
    /// wall time per correct-path instruction.
    pub fn report_plain(&self, out: &mut Outcome) {
        eprintln!("wpbench: {} timed rounds", self.round);
        for (ti, mode) in TECHS.iter().enumerate() {
            let v = &self.calibrated[ti];
            eprintln!(
                "wpbench: {} calibrated ns/instr per round: q1 {:.1} median {:.1} q3 {:.1} \
                 (raw median {:.1}; {v:.1?})",
                mode.label(),
                quantile(v, 0.25),
                median(v),
                quantile(v, 0.75),
                median(&self.per_round[0][ti]),
            );
            out.metric(format!("{}_ns_per_instr", mode.label()), median(v), "ns");
        }
    }

    /// Prints the traced pass's per-layer metrics of the simulator.
    pub fn report_layers(&self, kernels: &[Workload], out: &mut Outcome) {
        eprintln!("wpbench: {} traced rounds", self.round);
        let base = &self.base;
        let plain: Vec<f64> = (0..4).map(|ti| median(&self.per_round[0][ti])).collect();
        let results: Vec<Vec<&SimResult>> = (0..4)
            .map(|ti| {
                (0..kernels.len())
                    .filter_map(|ki| base.get(ki, ti))
                    .collect()
            })
            .collect();
        let sum = |ti: usize, f: &dyn Fn(&SimResult) -> u64| -> f64 {
            results[ti].iter().map(|r| f(r) as f64).sum()
        };
        let ipc = |ti: usize| ratio(sum(ti, &|r| r.instructions), sum(ti, &|r| r.cycles));
        for (ti, mode) in TECHS.iter().enumerate() {
            let t = mode.label();
            let wrong_path = *mode != WrongPathMode::NoWrongPath;
            out.metric(
                format!("emu.fill_ns_per_instr.{t}"),
                median(&self.fill[ti]),
                "ns",
            );
            out.metric(
                format!("pipeline.self_ns_per_instr.{t}"),
                median(&self.self_time[ti]),
                "ns",
            );
            out.metric(format!("sim.cycles.{t}"), sum(ti, &|r| r.cycles), "count");
            out.metric(format!("host.wall_ns_per_instr.{t}"), plain[ti], "ns");
            out.metric(
                format!("obs.trace_overhead.{t}"),
                ratio(median(&self.per_round[1][ti]), plain[ti]),
                "ratio",
            );
            out.metric(
                format!("obs.profiled_wall_ratio.{t}"),
                ratio(median(&self.per_round[2][ti]), plain[ti]),
                "ratio",
            );
            if !wrong_path {
                continue;
            }
            out.metric(
                format!("technique.mispredict_share.{t}"),
                median(&self.share[ti]),
                "ratio",
            );
            out.metric(
                format!("technique.mispredict_ns_per_wp_instr.{t}"),
                median(&self.per_wp[ti]),
                "ns",
            );
            let c = &self.counts[ti];
            out.metric(
                format!("technique.wp_instr_per_episode.{t}"),
                ratio(c.episode_wp as f64, c.episodes as f64),
                "count",
            );
            out.metric(
                format!("sim.wp_instructions.{t}"),
                sum(ti, &|r| r.wrong_path_instructions),
                "count",
            );
            if *mode != WrongPathMode::WrongPathEmulation {
                out.metric(
                    format!("sim.ipc_error_vs_wpemul.{t}"),
                    100.0 * ratio((ipc(ti) - ipc(3)).abs(), ipc(3)),
                    "%",
                );
                out.metric(
                    format!("technique.code_cache_hit_ratio.{t}"),
                    ratio(
                        sum(ti, &|r| r.code_cache.hits),
                        sum(ti, &|r| r.code_cache.hits + r.code_cache.misses),
                    ),
                    "ratio",
                );
            }
            out.metric(
                format!("vb.slowdown.{t}"),
                ratio(plain[ti], plain[0]),
                "ratio",
            );
        }
        out.metric(
            "sim.ipc_error_vs_wpemul.nowp",
            100.0 * ratio((ipc(0) - ipc(3)).abs(), ipc(3)),
            "%",
        );
        out.metric(
            "sim.mispredicts",
            sum(0, &|r| r.branch.mispredicts()),
            "count",
        );
        let conv = 2;
        out.metric(
            "technique.conv_peeks_per_wp_instr",
            ratio(
                self.counts[conv].peeks as f64,
                self.counts[conv].episode_wp as f64,
            ),
            "count",
        );
        out.metric(
            "technique.conv_found_ratio",
            ratio(
                sum(conv, &|r| r.convergence.converged),
                sum(conv, &|r| r.convergence.branch_misses_checked),
            ),
            "ratio",
        );
        out.metric(
            "technique.addr_recovered_ratio",
            ratio(
                sum(conv, &|r| r.convergence.wp_mem_recovered),
                sum(conv, &|r| r.convergence.wp_mem_ops),
            ),
            "ratio",
        );
        out.metric(
            "emu.block_cache_hit_ratio.wpemul",
            ratio(
                sum(3, &|r| r.block_cache.hits),
                sum(3, &|r| r.block_cache.hits + r.block_cache.misses),
            ),
            "ratio",
        );
    }
}

/// The decorator must see exactly what the simulator did: one
/// `on_instruction` per retired instruction, one episode per mispredict,
/// and every wrong-path instruction inside an episode.
fn check_layers(l: &LayerCounts, r: &SimResult, kernel: &str, out: &mut Outcome) {
    out.check(
        l.on_instruction == r.instructions
            && l.episodes == r.branch.mispredicts()
            && l.episode_wp == r.wrong_path_instructions,
        || {
            format!(
                "{kernel}/{}: tracer counts disagree with the result ({l:?})",
                r.mode.label()
            )
        },
    );
}
