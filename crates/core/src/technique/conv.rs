//! Convergence exploitation (paper §III-C) — the paper's novel technique.

use crate::pipeline::Pipeline;
use crate::sim::SimConfig;
use crate::technique::code_cache::CodeCache;
use crate::technique::mode::WrongPathMode;
use crate::technique::wrongpath::{
    reconstruct_into, recover_addresses_from, ConvergenceConfig, ConvergenceStats, FutureSource,
    FutureWindow, WpInst,
};
use crate::technique::{
    inject_wrong_path, passive_frontend, MispredictContext, TechniqueStats, WrongPathTechnique,
};
use ffsim_emu::{DynInst, Emulator, FetchSource};
use ffsim_obs::{Log2Hist, TraceEvent, TraceEventKind, TraceSource};

/// Instruction reconstruction plus memory-address recovery: the future
/// correct path — visible thanks to functional runahead — is scanned for a
/// convergence point with the reconstructed wrong path, and addresses of
/// register-independence-checked operations are copied across.
#[derive(Debug)]
pub struct ConvergenceTechnique {
    code_cache: CodeCache,
    convergence: ConvergenceConfig,
    budget: usize,
    rob: usize,
    stats: ConvergenceStats,
    /// Convergence distances (observability histogram).
    dist_hist: Log2Hist,
    /// Reusable buffer for the reconstructed wrong path.
    wp_buf: Vec<WpInst>,
}

impl ConvergenceTechnique {
    /// Creates the technique with the configured convergence tunables,
    /// code-cache bound, and window sizes.
    #[must_use]
    pub fn new(cfg: &SimConfig) -> ConvergenceTechnique {
        ConvergenceTechnique {
            code_cache: match cfg.code_cache_capacity {
                Some(cap) => CodeCache::with_capacity(cap),
                None => CodeCache::unbounded(),
            },
            convergence: cfg.convergence,
            budget: cfg.core.wrong_path_budget(),
            rob: cfg.core.rob_size,
            stats: ConvergenceStats::default(),
            dist_hist: Log2Hist::new(),
            wp_buf: Vec::new(),
        }
    }
}

/// The future correct-path window read entry by entry through
/// [`MispredictContext::peek_ahead`], for frontends that cannot lend their
/// runahead buffer ([`FetchSource::peek_window`] returns `None`, as a
/// forwarding decorator's does). Entries are borrowed, never copied.
struct PeekFuture<'a, 'b> {
    cx: &'a mut MispredictContext<'b>,
    limit: usize,
}

impl FutureSource for PeekFuture<'_, '_> {
    fn at(&mut self, i: usize) -> Option<&DynInst> {
        if i >= self.limit {
            return None;
        }
        self.cx.peek_ahead(i).map(|e| &e.inst)
    }
}

impl WrongPathTechnique for ConvergenceTechnique {
    fn mode(&self) -> WrongPathMode {
        WrongPathMode::ConvergenceExploitation
    }

    fn build_frontend(&self, emu: Emulator, cfg: &SimConfig) -> Box<dyn FetchSource> {
        passive_frontend(emu, cfg)
    }

    fn on_instruction(&mut self, inst: &DynInst) {
        self.code_cache.insert(inst.pc, inst.instr);
    }

    fn on_mispredict(&mut self, cx: &mut MispredictContext<'_>) {
        let Some(start) = cx.wrong_path_start else {
            return;
        };
        reconstruct_into(
            &mut self.code_cache,
            cx.predictor,
            start,
            self.budget,
            &mut self.wp_buf,
        );
        // Peek the future correct path out of the runahead queue (§III-C:
        // "take a peek in the future correct-path instructions"). The
        // window is the batch tail followed by the frontend's runahead
        // buffer, scanned in place and bounded by the ROB.
        let limit = self.rob.min(cx.peek_cap);
        let head = cx.lookahead;
        let convergence_distance = match cx.frontend.peek_window(limit.saturating_sub(head.len())) {
            Some((front, back)) => recover_addresses_from(
                &mut self.wp_buf,
                &mut FutureWindow::new([head, front, back], limit),
                &self.convergence,
                &mut self.stats,
            ),
            None => recover_addresses_from(
                &mut self.wp_buf,
                &mut PeekFuture {
                    cx: &mut *cx,
                    limit,
                },
                &self.convergence,
                &mut self.stats,
            ),
        };
        if let Some(distance) = convergence_distance {
            self.dist_hist.record(distance as u64);
            let resolve = cx.resolve;
            cx.trace.record(|| TraceEvent {
                ts: resolve,
                source: TraceSource::Timing,
                kind: TraceEventKind::ConvergenceHit {
                    distance: distance as u64,
                },
            });
        }
        let wp = std::mem::take(&mut self.wp_buf);
        let budget = self.budget;
        self.inject_wrong_path(cx.pipeline, &wp, cx.resolve, budget);
        self.wp_buf = wp;
    }

    fn inject_wrong_path(
        &mut self,
        pipeline: &mut Pipeline,
        wp: &[WpInst],
        resolve: u64,
        budget: usize,
    ) {
        inject_wrong_path(pipeline, wp, resolve, budget, Some(&mut self.stats));
    }

    fn stats(&self) -> TechniqueStats {
        TechniqueStats {
            convergence: self.stats,
            code_cache: self.code_cache.stats(),
        }
    }

    fn reset_stats(&mut self) {
        self.code_cache.reset_stats();
        self.stats = ConvergenceStats::default();
        self.dist_hist = Log2Hist::new();
    }

    fn conv_distance(&self) -> Log2Hist {
        self.dist_hist
    }
}

#[cfg(test)]
mod tests {
    use crate::sim::{SimConfig, Simulator};
    use crate::technique::mode::WrongPathMode;
    use ffsim_emu::Memory;
    use ffsim_isa::{Asm, Program, Reg};
    use ffsim_obs::ObsConfig;
    use ffsim_uarch::CoreConfig;

    /// Length of the hammock's then-block.
    const THEN_LEN: usize = 4;

    /// A loop around a one-sided if-then hammock: a pseudo-random bit
    /// (an LCG step) decides whether the `THEN_LEN`-instruction,
    /// branch-free then-block runs. Whichever way the hammock branch
    /// mispredicts, one path is the other plus the then-block, so the
    /// paths converge exactly `THEN_LEN` instructions in: on the wrong
    /// side when the then-block is wrongly fetched, on the future side
    /// when it is wrongly skipped. Ten instructions separate the join
    /// point from the next then-block, so no earlier match exists.
    fn hammock_loop(trips: i64) -> Program {
        let (n, state, mul, inc, bit, acc, pad) = (
            Reg::new(1),
            Reg::new(2),
            Reg::new(3),
            Reg::new(4),
            Reg::new(5),
            Reg::new(6),
            Reg::new(7),
        );
        let mut a = Asm::new();
        a.li(n, trips);
        a.li(state, 12345);
        a.li(mul, 6_364_136_223_846_793_005);
        a.li(inc, 1_442_695_040_888_963_407);
        a.label("loop");
        a.mul(state, state, mul);
        a.add(state, state, inc);
        a.srli(bit, state, 33);
        a.andi(bit, bit, 1);
        a.beqz(bit, "join");
        for _ in 0..THEN_LEN {
            a.addi(acc, acc, 1);
        }
        a.label("join");
        a.addi(pad, pad, 1);
        a.addi(pad, pad, 1);
        a.addi(n, n, -1);
        a.bnez(n, "loop");
        a.halt();
        a.assemble().expect("hammock loop assembles")
    }

    fn conv_run(obs: ObsConfig) -> crate::SimResult {
        let mut cfg = SimConfig::with_core(
            CoreConfig::tiny_for_tests(),
            WrongPathMode::ConvergenceExploitation,
        );
        cfg.warmup_instructions = 2_000;
        cfg.obs = obs;
        Simulator::new(hammock_loop(1_500), Memory::new(), cfg)
            .expect("valid config")
            .run()
            .expect("hammock loop runs")
    }

    #[test]
    fn hammock_converges_at_the_then_block_length() {
        let c = conv_run(ObsConfig::disabled()).convergence;
        assert!(c.converged > 100, "too few converged misses: {c:?}");
        assert_eq!(
            c.distance_sum,
            THEN_LEN as u64 * c.converged,
            "every converged miss must join after the then-block: {c:?}"
        );
        assert!(c.conv_frac() >= 0.9, "conv frac {}: {c:?}", c.conv_frac());
    }

    #[test]
    fn profiled_run_fills_the_episode_and_distance_histograms() {
        let r = conv_run(ObsConfig::profiled());
        let obs = r.obs.as_ref().expect("a profiled run carries an ObsReport");
        assert!(obs.events.is_empty(), "profiling alone records no events");
        assert!(r.convergence.converged > 0);
        assert_eq!(obs.conv_distance.count(), r.convergence.converged);
        assert_eq!(
            obs.conv_distance.sum(),
            r.convergence.distance_sum,
            "one distance sample per converged miss"
        );
        assert_eq!(obs.wp_episode_len.count(), r.branch.mispredicts());
        assert_eq!(obs.wp_episode_len.sum(), r.wrong_path_instructions);
    }
}
