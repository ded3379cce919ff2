//! Property-based tests for the timing model and the wrong-path
//! techniques: timestamp ordering, window invariants, reconstruction
//! chain integrity, recovery soundness, and simulator determinism.

use ffsim_core::technique::ConvergenceTechnique;
use ffsim_core::{
    reconstruct, recover_addresses, CancelCause, CodeCache, ConvergenceConfig, ConvergenceStats,
    FetchSource, MispredictContext, ObsConfig, Pipeline, SimConfig, Simulator, TechniqueStats,
    WpInst, WrongPathMode, WrongPathTechnique,
};
use ffsim_emu::{
    DynInst, Emulator, Fault, MemAccess, Memory, StreamBuf, StreamEntry, WrongPathFaultStats,
};
use ffsim_isa::{AluOp, Instr, MemWidth, Program, Reg, INSTR_BYTES};
use ffsim_obs::{Log2Hist, ProfHandle, TraceEvent};
use ffsim_uarch::{BranchPredictor, CoreConfig};
use proptest::prelude::*;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (1u8..30).prop_map(Reg::new)
}

/// Straight-line instructions with occasional aligned loads off a fixed
/// base register (x30, set up by the test driver).
fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        (arb_reg(), arb_reg(), arb_reg()).prop_map(|(rd, rs1, rs2)| Instr::Alu {
            op: AluOp::Add,
            rd,
            rs1,
            rs2
        }),
        (arb_reg(), arb_reg()).prop_map(|(rd, rs1)| Instr::Alu {
            op: AluOp::Mul,
            rd,
            rs1,
            rs2: Reg::new(9)
        }),
        (arb_reg(), 0i64..128).prop_map(|(rd, w)| Instr::Load {
            rd,
            base: Reg::new(30),
            offset: w * 8,
            width: MemWidth::D,
            signed: false,
        }),
        (arb_reg(), 0i64..128).prop_map(|(src, w)| Instr::Store {
            src,
            base: Reg::new(30),
            offset: w * 8,
            width: MemWidth::D,
        }),
        Just(Instr::Nop),
    ]
}

fn mem_of(instr: &Instr) -> Option<MemAccess> {
    match instr {
        Instr::Load { offset, .. } => Some(MemAccess {
            addr: 0x10_0000u64 + *offset as u64,
            size: 8,
            is_store: false,
        }),
        Instr::Store { offset, .. } => Some(MemAccess {
            addr: 0x10_0000u64 + *offset as u64,
            size: 8,
            is_store: true,
        }),
        _ => None,
    }
}

/// Forwards every [`FetchSource`] call except `peek_window`, whose default
/// (`None`) sends conv's convergence scan down its per-entry `peek`
/// fallback instead of the borrowed-slice window.
#[derive(Debug)]
struct WithoutPeekWindow(Box<dyn FetchSource>);

impl FetchSource for WithoutPeekWindow {
    fn pop(&mut self) -> Option<StreamEntry> {
        self.0.pop()
    }
    fn fill(&mut self, buf: &mut StreamBuf, max: usize) -> usize {
        self.0.fill(buf, max)
    }
    fn peek(&mut self, index: usize) -> Option<&StreamEntry> {
        self.0.peek(index)
    }
    fn fault(&self) -> Option<Fault> {
        self.0.fault()
    }
    fn fault_was_wrong_path(&self) -> bool {
        self.0.fault_was_wrong_path()
    }
    fn fault_stats(&self) -> WrongPathFaultStats {
        self.0.fault_stats()
    }
    fn cancelled(&self) -> Option<CancelCause> {
        self.0.cancelled()
    }
    fn emulator(&self) -> &Emulator {
        self.0.emulator()
    }
    fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.0.take_trace()
    }
    fn trace_dropped(&self) -> u64 {
        self.0.trace_dropped()
    }
    fn install_profiler(&mut self, prof: ProfHandle) {
        self.0.install_profiler(prof);
    }
}

/// The convergence technique over a [`WithoutPeekWindow`] frontend.
#[derive(Debug)]
struct ConvOverPeeks(ConvergenceTechnique);

impl WrongPathTechnique for ConvOverPeeks {
    fn mode(&self) -> WrongPathMode {
        self.0.mode()
    }
    fn build_frontend(&self, emu: Emulator, cfg: &SimConfig) -> Box<dyn FetchSource> {
        Box::new(WithoutPeekWindow(self.0.build_frontend(emu, cfg)))
    }
    fn on_instruction(&mut self, inst: &DynInst) {
        self.0.on_instruction(inst);
    }
    fn on_mispredict(&mut self, cx: &mut MispredictContext<'_>) {
        self.0.on_mispredict(cx);
    }
    fn inject_wrong_path(
        &mut self,
        pipeline: &mut Pipeline,
        wp: &[WpInst],
        resolve: u64,
        budget: usize,
    ) {
        self.0.inject_wrong_path(pipeline, wp, resolve, budget);
    }
    fn on_resolve(&mut self, resolve: u64) {
        self.0.on_resolve(resolve);
    }
    fn stats(&self) -> TechniqueStats {
        self.0.stats()
    }
    fn reset_stats(&mut self) {
        self.0.reset_stats();
    }
    fn conv_distance(&self) -> Log2Hist {
        self.0.conv_distance()
    }
}

proptest! {
    /// Pipeline stages are causally ordered for every instruction, and
    /// global cycle count never decreases.
    #[test]
    fn pipeline_timestamps_are_ordered(instrs in proptest::collection::vec(arb_instr(), 1..300)) {
        let mut p = Pipeline::new(CoreConfig::tiny_for_tests());
        let cfg = CoreConfig::tiny_for_tests();
        let mut pc = 0x1000u64;
        let mut last_cycles = 0;
        for instr in &instrs {
            let t = p.feed_correct(pc, instr, mem_of(instr));
            prop_assert!(t.fetch <= t.dispatch);
            prop_assert!(t.dispatch >= t.fetch + cfg.frontend_depth);
            prop_assert!(t.dispatch <= t.issue);
            prop_assert!(t.issue < t.complete);
            prop_assert!(p.cycles() > t.complete - 1, "retire at or after completion");
            prop_assert!(p.cycles() >= last_cycles);
            last_cycles = p.cycles();
            pc += INSTR_BYTES;
        }
        prop_assert_eq!(p.retired(), instrs.len() as u64);
        prop_assert_eq!(p.wrong_path_injected(), 0);
    }

    /// Wrong-path injection with register snapshot/restore never slows the
    /// *dataflow* of subsequent correct-path instructions: a consumer of a
    /// register written only by squashed instructions is not delayed by
    /// them.
    #[test]
    fn wrong_path_register_writes_never_leak(
        wp_instrs in proptest::collection::vec(arb_instr(), 1..64),
        resolve in 1u64..5000,
    ) {
        let mut p = Pipeline::new(CoreConfig::tiny_for_tests());
        let snap = p.snapshot_regs();
        let mut window = p.begin_wrong_path();
        let mut pc = 0x2000u64;
        for instr in &wp_instrs {
            let _ = p.feed_wrong(&mut window, pc, instr, mem_of(instr),
                                 ffsim_core::LoadTiming::AssumeL1Hit, resolve);
            pc += INSTR_BYTES;
        }
        p.restore_regs(snap);
        prop_assert_eq!(p.snapshot_regs(), snap);
        prop_assert_eq!(p.retired(), 0);
        prop_assert_eq!(p.wrong_path_injected(), wp_instrs.len() as u64);
    }

    /// Reconstruction produces a well-chained sequence: every pc is in the
    /// code cache, non-branch successors are sequential, and length never
    /// exceeds the budget.
    #[test]
    fn reconstruction_chains_are_well_formed(
        instrs in proptest::collection::vec(arb_instr(), 1..100),
        budget in 0usize..128,
        start_idx in 0usize..100,
    ) {
        let base = 0x4000u64;
        let mut cc = CodeCache::unbounded();
        for (i, instr) in instrs.iter().enumerate() {
            cc.insert(base + i as u64 * INSTR_BYTES, *instr);
        }
        let predictor = BranchPredictor::new(CoreConfig::tiny_for_tests().branch);
        let start = base + (start_idx % instrs.len()) as u64 * INSTR_BYTES;
        let wp = reconstruct(&mut cc, &predictor, start, budget);
        prop_assert!(wp.len() <= budget);
        for (i, w) in wp.iter().enumerate() {
            prop_assert!(cc.contains(w.pc), "reconstructed pc must come from the cache");
            prop_assert!(w.mem.is_none(), "reconstruction cannot know addresses");
            if !w.instr.is_branch() {
                prop_assert_eq!(w.next_pc, w.pc + INSTR_BYTES);
            }
            if i + 1 < wp.len() {
                prop_assert_eq!(wp[i + 1].pc, w.next_pc, "chain must follow next_pc");
            }
        }
    }

    /// Recovery soundness: every recovered address comes from a future
    /// instruction at the same pc, and non-memory instructions are never
    /// given addresses.
    #[test]
    fn recovery_is_sound(
        instrs in proptest::collection::vec(arb_instr(), 1..80),
        skip in 0usize..8,
    ) {
        // Future = the instruction sequence with real addresses; wrong
        // path = the same sequence offset by `skip` (converging suffix).
        let base = 0x4000u64;
        let future: Vec<DynInst> = instrs
            .iter()
            .enumerate()
            .map(|(i, instr)| DynInst {
                seq: i as u64,
                pc: base + i as u64 * INSTR_BYTES,
                instr: *instr,
                mem: mem_of(instr),
                branch: None,
                next_pc: base + (i as u64 + 1) * INSTR_BYTES,
            })
            .collect();
        let mut wp: Vec<WpInst> = future
            .iter()
            .skip(skip.min(instrs.len().saturating_sub(1)))
            .map(|d| WpInst {
                pc: d.pc,
                instr: d.instr,
                mem: None,
                next_pc: d.next_pc,
            })
            .collect();
        let mut stats = ConvergenceStats::default();
        let result = recover_addresses(&mut wp, &future, &ConvergenceConfig::default(), &mut stats);
        if !wp.is_empty() {
            prop_assert!(result.is_some(), "identical suffix must converge");
        }
        for w in &wp {
            if let Some(m) = w.mem {
                let f = future.iter().find(|f| f.pc == w.pc).expect("pc exists");
                prop_assert_eq!(Some(m), f.mem, "recovered address must match future");
                prop_assert!(w.instr.is_mem());
            }
        }
        prop_assert!(stats.converged <= stats.branch_misses_checked);
    }

    /// Bounded code caches never exceed their capacity.
    #[test]
    fn code_cache_capacity_is_respected(
        cap in 1usize..64,
        pcs in proptest::collection::vec(0u64..4096, 1..300),
    ) {
        let mut cc = CodeCache::with_capacity(cap);
        for pc in pcs {
            cc.insert(pc * 4, Instr::Nop);
            prop_assert!(cc.len() <= cap);
        }
    }

    /// Full-simulator determinism over random straight-line programs with
    /// a loop wrapper, across all four modes.
    #[test]
    fn simulator_is_deterministic_across_modes(
        body in proptest::collection::vec(arb_instr(), 1..40),
        trip in 1i64..40,
    ) {
        // do { body } while (--x1): exercises branch prediction and, on
        // the final iteration, a wrong path.
        let base = 0x1000u64;
        let mut instrs = vec![
            Instr::LoadImm { rd: Reg::new(31), imm: trip },
            Instr::LoadImm { rd: Reg::new(30), imm: 0x10_0000 },
        ];
        let loop_start = base + instrs.len() as u64 * INSTR_BYTES;
        instrs.extend(body.iter().copied());
        instrs.push(Instr::AluImm { op: AluOp::Add, rd: Reg::new(31), rs1: Reg::new(31), imm: -1 });
        instrs.push(Instr::Branch {
            cond: ffsim_isa::BranchCond::Ne,
            rs1: Reg::new(31),
            rs2: Reg::ZERO,
            target: loop_start,
        });
        instrs.push(Instr::Halt);
        let program = Program::new(base, instrs);

        for mode in WrongPathMode::ALL {
            let cfg = SimConfig::with_core(CoreConfig::tiny_for_tests(), mode);
            let r1 = Simulator::new(program.clone(), Memory::new(), cfg.clone()).unwrap().run().unwrap();
            let r2 = Simulator::new(program.clone(), Memory::new(), cfg).unwrap().run().unwrap();
            prop_assert_eq!(r1.cycles, r2.cycles, "{} must be deterministic", mode);
            prop_assert_eq!(r1.instructions, r2.instructions);
            prop_assert_eq!(r1.wrong_path_instructions, r2.wrong_path_instructions);
            prop_assert_eq!(r1.state_digest, r2.state_digest);
        }
    }

    /// The handoff batch size is a pure host-speed knob (see DESIGN.md
    /// §"Batched handoff and the block cache"): per-instruction delivery
    /// (`handoff_batch = 1`) and every batched size must produce
    /// bit-identical simulations across all four techniques — same
    /// cycles, retired counts, wrong-path injections, CPI stacks,
    /// technique counters, and final architectural digest.
    #[test]
    fn handoff_batch_size_never_changes_the_simulation(
        body in proptest::collection::vec(arb_instr(), 1..40),
        trip in 1i64..40,
        batch in prop_oneof![Just(3usize), Just(16), Just(64), Just(256)],
    ) {
        let base = 0x1000u64;
        let mut instrs = vec![
            Instr::LoadImm { rd: Reg::new(31), imm: trip },
            Instr::LoadImm { rd: Reg::new(30), imm: 0x10_0000 },
        ];
        let loop_start = base + instrs.len() as u64 * INSTR_BYTES;
        instrs.extend(body.iter().copied());
        instrs.push(Instr::AluImm { op: AluOp::Add, rd: Reg::new(31), rs1: Reg::new(31), imm: -1 });
        instrs.push(Instr::Branch {
            cond: ffsim_isa::BranchCond::Ne,
            rs1: Reg::new(31),
            rs2: Reg::ZERO,
            target: loop_start,
        });
        instrs.push(Instr::Halt);
        let program = Program::new(base, instrs);

        for mode in WrongPathMode::ALL {
            let mut cfg = SimConfig::with_core(CoreConfig::tiny_for_tests(), mode);
            cfg.handoff_batch = 1;
            let per_instr = Simulator::new(program.clone(), Memory::new(), cfg.clone())
                .unwrap().run().unwrap();
            cfg.handoff_batch = batch;
            let batched = Simulator::new(program.clone(), Memory::new(), cfg)
                .unwrap().run().unwrap();
            prop_assert_eq!(per_instr.cycles, batched.cycles,
                "{}: batch {} changed cycles", mode, batch);
            prop_assert_eq!(per_instr.instructions, batched.instructions);
            prop_assert_eq!(per_instr.wrong_path_instructions, batched.wrong_path_instructions,
                "{}: batch {} changed wrong-path injection", mode, batch);
            prop_assert_eq!(per_instr.branch.mispredicts(), batched.branch.mispredicts());
            prop_assert_eq!(per_instr.convergence, batched.convergence);
            prop_assert_eq!(per_instr.code_cache, batched.code_cache);
            prop_assert_eq!(per_instr.state_digest, batched.state_digest);
            prop_assert_eq!(per_instr.cpi.total(), batched.cpi.total());
        }
    }

    /// Conv's convergence scan reads the future window either in place
    /// (`FetchSource::peek_window`) or, when the frontend cannot lend its
    /// buffer, through per-entry peeks. Both must simulate bit-identically
    /// at every handoff batch size, on loops holding a data-dependent
    /// forward branch so wrong paths converge mid-window.
    #[test]
    fn conv_peek_fallback_matches_the_window_scan(
        head in proptest::collection::vec(arb_instr(), 1..20),
        then in proptest::collection::vec(arb_instr(), 0..12),
        cond in arb_reg(),
        trip in 1i64..60,
        batch in prop_oneof![Just(1usize), Just(16), Just(64), Just(256)],
    ) {
        let base = 0x1000u64;
        let mut instrs = vec![
            Instr::LoadImm { rd: Reg::new(31), imm: trip },
            Instr::LoadImm { rd: Reg::new(30), imm: 0x10_0000 },
        ];
        let loop_start = base + instrs.len() as u64 * INSTR_BYTES;
        instrs.extend(head.iter().copied());
        let join = base + (instrs.len() + 1 + then.len()) as u64 * INSTR_BYTES;
        instrs.push(Instr::Branch {
            cond: ffsim_isa::BranchCond::Ne,
            rs1: cond,
            rs2: Reg::ZERO,
            target: join,
        });
        instrs.extend(then.iter().copied());
        instrs.push(Instr::AluImm { op: AluOp::Add, rd: Reg::new(31), rs1: Reg::new(31), imm: -1 });
        instrs.push(Instr::Branch {
            cond: ffsim_isa::BranchCond::Ne,
            rs1: Reg::new(31),
            rs2: Reg::ZERO,
            target: loop_start,
        });
        instrs.push(Instr::Halt);
        let program = Program::new(base, instrs);

        let mut cfg = SimConfig::with_core(
            CoreConfig::tiny_for_tests(),
            WrongPathMode::ConvergenceExploitation,
        );
        cfg.handoff_batch = batch;
        let window = Simulator::new(program.clone(), Memory::new(), cfg.clone())
            .unwrap().run().unwrap();
        let peeks = Simulator::with_technique(
            program,
            Memory::new(),
            cfg.clone(),
            Box::new(ConvOverPeeks(ConvergenceTechnique::new(&cfg))),
        ).unwrap().run().unwrap();
        prop_assert_eq!(window.cycles, peeks.cycles, "batch {} changed cycles", batch);
        prop_assert_eq!(window.instructions, peeks.instructions);
        prop_assert_eq!(window.wrong_path_instructions, peeks.wrong_path_instructions);
        prop_assert_eq!(window.branch, peeks.branch);
        prop_assert_eq!(window.convergence, peeks.convergence);
        prop_assert_eq!(window.code_cache, peeks.code_cache);
        prop_assert_eq!(window.l1d, peeks.l1d);
        prop_assert_eq!(window.state_digest, peeks.state_digest);
        prop_assert_eq!(window.cpi.total(), peeks.cpi.total());
    }

    /// Observer-effect invariant: enabling CPI/event tracing never changes
    /// the simulated outcome. Same workload, obs on vs. off, across all
    /// four modes — identical cycles, instructions, and state digest.
    #[test]
    fn observability_never_perturbs_the_simulation(
        body in proptest::collection::vec(arb_instr(), 1..40),
        trip in 1i64..40,
    ) {
        let base = 0x1000u64;
        let mut instrs = vec![
            Instr::LoadImm { rd: Reg::new(31), imm: trip },
            Instr::LoadImm { rd: Reg::new(30), imm: 0x10_0000 },
        ];
        let loop_start = base + instrs.len() as u64 * INSTR_BYTES;
        instrs.extend(body.iter().copied());
        instrs.push(Instr::AluImm { op: AluOp::Add, rd: Reg::new(31), rs1: Reg::new(31), imm: -1 });
        instrs.push(Instr::Branch {
            cond: ffsim_isa::BranchCond::Ne,
            rs1: Reg::new(31),
            rs2: Reg::ZERO,
            target: loop_start,
        });
        instrs.push(Instr::Halt);
        let program = Program::new(base, instrs);

        for mode in WrongPathMode::ALL {
            let mut off = SimConfig::with_core(CoreConfig::tiny_for_tests(), mode);
            off.obs = ObsConfig::disabled();
            let quiet = Simulator::new(program.clone(), Memory::new(), off.clone()).unwrap().run().unwrap();
            // Full tracing and profiling-only must both leave the simulated
            // outcome untouched — the phase profiler perturbs wall time,
            // never simulated state.
            for obs in [ObsConfig::enabled(), ObsConfig::profiled()] {
                let tracing = obs.enabled;
                let mut on = off.clone();
                on.obs = obs;
                let observed = Simulator::new(program.clone(), Memory::new(), on).unwrap().run().unwrap();
                prop_assert_eq!(quiet.cycles, observed.cycles, "{}: cycles must not move", mode);
                prop_assert_eq!(quiet.instructions, observed.instructions);
                prop_assert_eq!(quiet.wrong_path_instructions, observed.wrong_path_instructions);
                prop_assert_eq!(quiet.state_digest, observed.state_digest);
                prop_assert_eq!(quiet.cpi.total(), observed.cpi.total());
                let report = observed.obs.as_ref().expect("observed run must produce a report");
                prop_assert!(report.profile.is_enabled(), "profiling is on in both configs");
                prop_assert!(
                    report.profile.phase_agg(ffsim_core::Phase::TimingPipeline).count > 0,
                    "the run loop must record its pipeline scope"
                );
                if !tracing {
                    prop_assert!(report.events.is_empty(), "profile-only mode buffers no events");
                }
            }
            prop_assert!(quiet.obs.is_none(), "disabled run must not allocate a report");
        }
    }

    /// Monotone workload growth: more loop iterations never reduce cycles.
    #[test]
    fn cycles_grow_with_work(extra in 1i64..200) {
        let make = |trips: i64| {
            let mut a = ffsim_isa::Asm::new();
            a.li(Reg::new(1), trips);
            a.label("l");
            a.addi(Reg::new(1), Reg::new(1), -1);
            a.bnez(Reg::new(1), "l");
            a.halt();
            a.assemble().unwrap()
        };
        let cfg = SimConfig::with_core(CoreConfig::tiny_for_tests(), WrongPathMode::NoWrongPath);
        let small = Simulator::new(make(10), Memory::new(), cfg.clone()).unwrap().run().unwrap();
        let large = Simulator::new(make(10 + extra), Memory::new(), cfg).unwrap().run().unwrap();
        prop_assert!(large.cycles > small.cycles);
        prop_assert!(large.instructions > small.instructions);
    }
}
