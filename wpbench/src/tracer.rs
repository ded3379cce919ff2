//! Outside-in tracing for the traced pass: decorators installed through
//! the simulator's and the queue's public seams. They delegate every call
//! and time only coarse boundaries, because one `Instant::now()` +
//! `elapsed()` pair costs about half a simulated instruction:
//!
//! * [`TracedTechnique`] times `on_mispredict` once per episode and counts
//!   `on_instruction` calls;
//! * [`TracedFetch`] (installed by [`TracedTechnique::build_frontend`])
//!   times `fill` once per handoff batch and counts `peek` calls;
//! * [`CountingIo`] times and counts every journal, snapshot, shard and
//!   cache write of the durable queue.
//!
//! The decorators keep plain per-run counters and add them to a shared
//! sink when the simulator drops them, so the hot path takes no lock.

use ffsim_core::{
    MispredictContext, Pipeline, SimConfig, TechniqueStats, WpInst, WrongPathMode,
    WrongPathTechnique,
};
use ffsim_driver::{ManifestIo, RealIo};
use ffsim_emu::{
    CancelCause, DynInst, Emulator, Fault, FetchSource, StreamBuf, StreamEntry, WrongPathFaultStats,
};
use ffsim_obs::{Log2Hist, ProfHandle, TraceEvent};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Host time and work counts of one simulation, split at the seams.
#[derive(Clone, Copy, Default, Debug)]
pub struct LayerCounts {
    /// Host ns inside `FetchSource::fill` (emulator runahead, block
    /// decode, handoff, and wrong-path emulation under wpemul).
    pub fill_ns: u64,
    /// Host ns inside `WrongPathTechnique::on_mispredict` (wrong-path
    /// construction and its timing).
    pub mispredict_ns: u64,
    /// Misprediction episodes.
    pub episodes: u64,
    /// Wrong-path instructions the pipeline took inside those episodes.
    pub episode_wp: u64,
    /// `on_instruction` calls (correct-path code-cache fill points).
    pub on_instruction: u64,
    /// `FetchSource::peek` calls past the current batch tail.
    pub peeks: u64,
}

impl LayerCounts {
    pub fn add(&mut self, o: &LayerCounts) {
        self.fill_ns += o.fill_ns;
        self.mispredict_ns += o.mispredict_ns;
        self.episodes += o.episodes;
        self.episode_wp += o.episode_wp;
        self.on_instruction += o.on_instruction;
        self.peeks += o.peeks;
    }
}

/// Where decorators deposit their counters when dropped.
pub type Sink = Arc<Mutex<LayerCounts>>;

fn deposit(sink: &Sink, local: &LayerCounts) {
    // A poisoned sink means a traced run panicked; that run is already
    // reported as failed, so its counts are simply dropped.
    if let Ok(mut total) = sink.lock() {
        total.add(local);
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Times `on_mispredict` and counts hooks around any technique.
#[derive(Debug)]
pub struct TracedTechnique {
    inner: Box<dyn WrongPathTechnique>,
    local: LayerCounts,
    sink: Sink,
}

impl TracedTechnique {
    pub fn new(inner: Box<dyn WrongPathTechnique>, sink: Sink) -> TracedTechnique {
        TracedTechnique {
            inner,
            local: LayerCounts::default(),
            sink,
        }
    }
}

impl Drop for TracedTechnique {
    fn drop(&mut self) {
        deposit(&self.sink, &self.local);
    }
}

impl WrongPathTechnique for TracedTechnique {
    fn mode(&self) -> WrongPathMode {
        self.inner.mode()
    }

    fn build_frontend(&self, emu: Emulator, cfg: &SimConfig) -> Box<dyn FetchSource> {
        Box::new(TracedFetch {
            inner: self.inner.build_frontend(emu, cfg),
            local: LayerCounts::default(),
            sink: self.sink.clone(),
        })
    }

    fn on_instruction(&mut self, inst: &DynInst) {
        self.local.on_instruction += 1;
        self.inner.on_instruction(inst);
    }

    fn on_mispredict(&mut self, cx: &mut MispredictContext<'_>) {
        let wp_before = cx.pipeline.wrong_path_injected();
        let started = Instant::now();
        self.inner.on_mispredict(cx);
        self.local.mispredict_ns += elapsed_ns(started);
        self.local.episodes += 1;
        self.local.episode_wp += cx.pipeline.wrong_path_injected() - wp_before;
    }

    fn inject_wrong_path(
        &mut self,
        pipeline: &mut Pipeline,
        wp: &[WpInst],
        resolve: u64,
        budget: usize,
    ) {
        self.inner.inject_wrong_path(pipeline, wp, resolve, budget);
    }

    fn on_resolve(&mut self, resolve: u64) {
        self.inner.on_resolve(resolve);
    }

    fn stats(&self) -> TechniqueStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn conv_distance(&self) -> Log2Hist {
        self.inner.conv_distance()
    }
}

/// Times `fill` and counts `peek` around the technique's frontend.
#[derive(Debug)]
pub struct TracedFetch {
    inner: Box<dyn FetchSource>,
    local: LayerCounts,
    sink: Sink,
}

impl Drop for TracedFetch {
    fn drop(&mut self) {
        deposit(&self.sink, &self.local);
    }
}

impl FetchSource for TracedFetch {
    fn pop(&mut self) -> Option<StreamEntry> {
        self.inner.pop()
    }

    fn fill(&mut self, buf: &mut StreamBuf, max: usize) -> usize {
        let started = Instant::now();
        let delivered = self.inner.fill(buf, max);
        self.local.fill_ns += elapsed_ns(started);
        delivered
    }

    fn peek(&mut self, index: usize) -> Option<&StreamEntry> {
        self.local.peeks += 1;
        self.inner.peek(index)
    }

    fn fault(&self) -> Option<Fault> {
        self.inner.fault()
    }

    fn fault_was_wrong_path(&self) -> bool {
        self.inner.fault_was_wrong_path()
    }

    fn fault_stats(&self) -> WrongPathFaultStats {
        self.inner.fault_stats()
    }

    fn cancelled(&self) -> Option<CancelCause> {
        self.inner.cancelled()
    }

    fn emulator(&self) -> &Emulator {
        self.inner.emulator()
    }

    fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.inner.take_trace()
    }

    fn trace_dropped(&self) -> u64 {
        self.inner.trace_dropped()
    }

    fn install_profiler(&mut self, prof: ProfHandle) {
        self.inner.install_profiler(prof);
    }
}

/// Counters of the queue's filesystem seam, shared with the benchmark.
#[derive(Default, Debug)]
pub struct IoCounts {
    pub ops: AtomicU64,
    pub bytes: AtomicU64,
    pub ns: AtomicU64,
}

impl IoCounts {
    pub fn reset(&self) {
        for c in [&self.ops, &self.bytes, &self.ns] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// A [`ManifestIo`] over the real filesystem that counts operations and
/// bytes written and times every call.
#[derive(Debug)]
pub struct CountingIo {
    pub counts: Arc<IoCounts>,
}

impl CountingIo {
    fn timed<R>(&self, bytes: usize, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let out = f();
        let c = &self.counts;
        c.ns.fetch_add(elapsed_ns(started), Ordering::Relaxed);
        c.ops.fetch_add(1, Ordering::Relaxed);
        c.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        out
    }
}

impl ManifestIo for CountingIo {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.timed(bytes.len(), || RealIo.write(path, bytes))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.timed(0, || RealIo.rename(from, to))
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.timed(bytes.len(), || RealIo.append(path, bytes))
    }
}
