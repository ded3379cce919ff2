//! The decoupled instruction queue between the functional and performance
//! simulators.
//!
//! In functional-first simulation the functional simulator *runs ahead*,
//! pushing instruction records into a queue the performance simulator
//! consumes (paper §II). [`InstrQueue`] implements that queue with two
//! extra capabilities the wrong-path techniques rely on:
//!
//! * **lookahead peeking** ([`InstrQueue::peek`]) into the future correct
//!   path — the convergence-exploitation technique scans upcoming
//!   correct-path instructions for a convergence point and their memory
//!   addresses (§III-C);
//! * **wrong-path bundles**: a [`FrontendPolicy`] observes every
//!   correct-path instruction in program order (mirroring the paper's
//!   "copy of the branch predictor model" inside the functional simulator)
//!   and can request full wrong-path emulation at a branch it predicts
//!   mispredicted (§III-B). The resulting [`WrongPathBundle`] travels with
//!   the branch's queue entry.

use crate::cancel::CancelCause;
use crate::dyninst::{DynInst, WrongPathBundle, WrongPathStop};
use crate::emulator::{BranchOracle, Emulator, StepError};
use crate::exec::Fault;
use ffsim_isa::Addr;
use ffsim_obs::{EventRing, Phase, ProfHandle, TraceEvent, TraceEventKind, TraceSource};
use std::collections::VecDeque;

/// What to do when a fault (or watchdog trip) occurs during *wrong-path*
/// emulation.
///
/// Correct-path faults always terminate the stream and surface as a typed
/// error — they indicate a workload bug. Wrong-path faults are a normal
/// consequence of speculation; the default mirrors hardware, which squashes
/// the speculative work and carries on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FaultPolicy {
    /// Restore the checkpoint, keep the already-emulated wrong-path prefix
    /// (the timing model plays it and squashes it, as hardware would), count
    /// the event, and resume the correct path. The default.
    #[default]
    SquashWrongPath,
    /// Treat any wrong-path fault as fatal: end the stream and report the
    /// fault. Useful for debugging workloads and frontend policies.
    AbortRun,
}

/// Counters for wrong-path fault handling under
/// [`FaultPolicy::SquashWrongPath`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WrongPathFaultStats {
    /// Wrong paths that ended in a fault and were squashed.
    pub squashed_faults: u64,
    /// Wrong paths cut off by the watchdog.
    pub watchdog_trips: u64,
    /// Wrong paths that ran off the program text (wild fetch address).
    /// Counted under either policy: leaving the text is normal speculative
    /// behaviour, not a fault.
    pub illegal_pc_stops: u64,
}

/// A request to emulate the wrong path of a (predicted-mispredicted)
/// branch, produced by a [`FrontendPolicy`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WrongPathRequest {
    /// First wrong-path pc (the mispredicted direction's target).
    pub start: Addr,
    /// Maximum wrong-path instructions to emulate — the paper uses one
    /// reorder-buffer's worth plus frontend buffers.
    pub max_insts: usize,
}

/// Frontend-side policy observing the correct-path stream.
///
/// Implementations typically hold a replica of the timing model's branch
/// predictor: they predict every branch *before* updating with its actual
/// outcome, and return a [`WrongPathRequest`] when the prediction differs.
/// The policy also serves as the [`BranchOracle`] steering wrong-path
/// branch directions during emulation.
pub trait FrontendPolicy: BranchOracle {
    /// Observes one correct-path instruction in program order, returning a
    /// wrong-path emulation request if this branch is predicted wrongly.
    fn on_instruction(&mut self, inst: &DynInst) -> Option<WrongPathRequest>;
}

/// Policy for simulators that do not generate wrong paths in the functional
/// frontend (the default, instruction-reconstruction and convergence
/// configurations — those reconstruct in the *performance* simulator).
#[derive(Clone, Copy, Default, Debug)]
pub struct NoFrontendWrongPath;

impl BranchOracle for NoFrontendWrongPath {
    fn next_fetch_pc(
        &mut self,
        _pc: Addr,
        _instr: &ffsim_isa::Instr,
        _computed: crate::dyninst::BranchOutcome,
    ) -> Option<Addr> {
        None
    }
}

impl FrontendPolicy for NoFrontendWrongPath {
    fn on_instruction(&mut self, _inst: &DynInst) -> Option<WrongPathRequest> {
        None
    }
}

/// One queue slot: a correct-path instruction, plus the emulated wrong
/// path hanging off it when the frontend policy predicted a misprediction.
#[derive(Clone, PartialEq, Debug)]
pub struct StreamEntry {
    /// The correct-path instruction.
    pub inst: DynInst,
    /// The emulated wrong path, in `WrongPathEmulation` configurations.
    pub wrong_path: Option<WrongPathBundle>,
}

/// A reusable, caller-owned batch of [`StreamEntry`]s filled by
/// [`FetchSource::fill`]. The consumer clears and refills the same buffer
/// every batch, so the per-instruction handoff cost (a virtual `pop` call
/// plus `VecDeque` bookkeeping) is paid once per *run* of instructions.
#[derive(Clone, Default, Debug)]
pub struct StreamBuf {
    entries: Vec<StreamEntry>,
}

impl StreamBuf {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> StreamBuf {
        StreamBuf::default()
    }

    /// An empty buffer with room for `capacity` entries.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> StreamBuf {
        StreamBuf {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Drops all entries, keeping the allocation.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Appends one entry (used by the default [`FetchSource::fill`]).
    pub fn push(&mut self, entry: StreamEntry) {
        self.entries.push(entry);
    }

    /// The buffered entries, in program order.
    #[must_use]
    pub fn entries(&self) -> &[StreamEntry] {
        &self.entries
    }

    /// Number of buffered entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The functional frontend as the performance simulator consumes it: a
/// program-order stream of [`StreamEntry`]s with lookahead peeking, plus
/// the end-of-stream diagnostics (fault, cancellation, trace) the
/// simulator reads after the run.
///
/// This is the seam between the emu-side view (an [`InstrQueue`] carrying
/// some [`FrontendPolicy`]) and the core-side wrong-path techniques: a
/// technique selects its frontend wiring by building the queue/policy pair
/// it needs and handing it over as a `Box<dyn FetchSource>`, so the
/// simulator's run loop is independent of the concrete policy type.
pub trait FetchSource: Send + std::fmt::Debug {
    /// Pops the next correct-path entry, or `None` at end of stream.
    fn pop(&mut self) -> Option<StreamEntry>;
    /// Batched pop: appends up to `max` entries to `buf` and returns how
    /// many were delivered. Exactly equivalent to `max` consecutive
    /// [`FetchSource::pop`] calls (same entries, same order, same
    /// emulator-side runahead), delivered in one virtual call so the hot
    /// loop touches the seam once per batch. Fewer than `max` entries
    /// (possibly zero) means the stream ended mid-batch.
    fn fill(&mut self, buf: &mut StreamBuf, max: usize) -> usize {
        let mut delivered = 0;
        while delivered < max {
            match self.pop() {
                Some(entry) => {
                    buf.push(entry);
                    delivered += 1;
                }
                None => break,
            }
        }
        delivered
    }
    /// Peeks `index` entries ahead (0 = next to pop) without consuming.
    fn peek(&mut self, index: usize) -> Option<&StreamEntry>;
    /// Borrows the next `n` entries in place, as the two halves of a ring
    /// buffer: their concatenation equals `peek(0)`, `peek(1)`, … up to
    /// the first `None`, so it is shorter than `n` at end of stream or past
    /// the source's peek depth. Lets a consumer scan the runahead window
    /// without a call or a copy per entry. The default returns `None`, and
    /// callers fall back to [`FetchSource::peek`].
    fn peek_window(&mut self, n: usize) -> Option<(&[StreamEntry], &[StreamEntry])> {
        let _ = n;
        None
    }
    /// The fault that ended the stream, if any.
    fn fault(&self) -> Option<Fault>;
    /// Whether the stream-ending fault occurred on a wrong path.
    fn fault_was_wrong_path(&self) -> bool;
    /// Wrong-path squash counters.
    fn fault_stats(&self) -> WrongPathFaultStats;
    /// The cancellation cause that ended the stream, if any.
    fn cancelled(&self) -> Option<CancelCause>;
    /// The underlying functional emulator (state digests, validation).
    fn emulator(&self) -> &Emulator;
    /// Drains the frontend event ring (oldest first).
    fn take_trace(&mut self) -> Vec<TraceEvent>;
    /// Events evicted from the frontend event ring because it was full.
    fn trace_dropped(&self) -> u64;
    /// Installs the simulator's shared phase profiler so functional-side
    /// work (`emu_exec`, `emu_handoff`) is attributed on the same nesting
    /// stack as the timing loop's scopes. The default ignores the handle:
    /// a source that does not profile simply contributes no phases.
    fn install_profiler(&mut self, prof: ProfHandle) {
        let _ = prof;
    }
}

impl<P: FrontendPolicy + Send + std::fmt::Debug> FetchSource for InstrQueue<P> {
    fn pop(&mut self) -> Option<StreamEntry> {
        InstrQueue::pop(self)
    }

    fn fill(&mut self, buf: &mut StreamBuf, max: usize) -> usize {
        InstrQueue::fill(self, buf, max)
    }

    fn peek(&mut self, index: usize) -> Option<&StreamEntry> {
        InstrQueue::peek(self, index)
    }

    fn peek_window(&mut self, n: usize) -> Option<(&[StreamEntry], &[StreamEntry])> {
        Some(InstrQueue::peek_window(self, n))
    }

    fn fault(&self) -> Option<Fault> {
        InstrQueue::fault(self)
    }

    fn fault_was_wrong_path(&self) -> bool {
        InstrQueue::fault_was_wrong_path(self)
    }

    fn fault_stats(&self) -> WrongPathFaultStats {
        InstrQueue::fault_stats(self)
    }

    fn cancelled(&self) -> Option<CancelCause> {
        InstrQueue::cancelled(self)
    }

    fn emulator(&self) -> &Emulator {
        InstrQueue::emulator(self)
    }

    fn take_trace(&mut self) -> Vec<TraceEvent> {
        InstrQueue::take_trace(self)
    }

    fn trace_dropped(&self) -> u64 {
        InstrQueue::trace_dropped(self)
    }

    fn install_profiler(&mut self, prof: ProfHandle) {
        InstrQueue::set_profiler(self, prof);
    }
}

/// The functional→performance instruction queue.
///
/// # Examples
///
/// ```
/// use ffsim_emu::{Emulator, InstrQueue, NoFrontendWrongPath};
/// use ffsim_isa::{Asm, Reg};
///
/// let mut a = Asm::new();
/// a.li(Reg::new(1), 7);
/// a.addi(Reg::new(1), Reg::new(1), 1);
/// a.halt();
/// let mut q = InstrQueue::new(Emulator::new(a.assemble()?)?, NoFrontendWrongPath, 128);
/// assert_eq!(q.peek(2).unwrap().inst.instr.to_string(), "halt");
/// let first = q.pop().unwrap();
/// assert_eq!(first.inst.pc, 0x1_0000);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct InstrQueue<P> {
    emu: Emulator,
    policy: P,
    buf: VecDeque<StreamEntry>,
    depth: usize,
    ended: bool,
    fault: Option<Fault>,
    fault_on_wrong_path: bool,
    fault_policy: FaultPolicy,
    watchdog: Option<u64>,
    wp_stats: WrongPathFaultStats,
    cancelled: Option<CancelCause>,
    trace: EventRing,
    prof: ProfHandle,
}

impl<P: FrontendPolicy> InstrQueue<P> {
    /// Creates a queue that keeps up to `depth` instructions of runahead.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero (internal invariant: `SimConfig`
    /// validation rejects a zero depth before construction).
    #[must_use]
    pub fn new(emu: Emulator, policy: P, depth: usize) -> InstrQueue<P> {
        assert!(depth > 0, "queue depth must be positive");
        InstrQueue {
            emu,
            policy,
            buf: VecDeque::with_capacity(depth),
            depth,
            ended: false,
            fault: None,
            fault_on_wrong_path: false,
            fault_policy: FaultPolicy::default(),
            watchdog: None,
            wp_stats: WrongPathFaultStats::default(),
            cancelled: None,
            trace: EventRing::disabled(),
            prof: ProfHandle::disabled(),
        }
    }

    /// Selects the wrong-path [`FaultPolicy`] (default: squash).
    #[must_use]
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> InstrQueue<P> {
        self.fault_policy = policy;
        self
    }

    /// Bounds every wrong path to at most `watchdog` instructions, on top
    /// of the per-request budget. A trip is handled per the fault policy.
    #[must_use]
    pub fn with_watchdog(mut self, watchdog: Option<u64>) -> InstrQueue<P> {
        self.watchdog = watchdog;
        self
    }

    /// Installs an event ring recording frontend wrong-path events
    /// (entry/exit, watchdog trips, fault squashes). Timestamps are
    /// emulated-instruction sequence numbers. A disabled ring (the
    /// default) costs one branch per potential event.
    #[must_use]
    pub fn with_trace(mut self, trace: EventRing) -> InstrQueue<P> {
        self.trace = trace;
        self
    }

    /// Installs a shared phase profiler attributing functional-side work:
    /// raw emulator stepping (correct and wrong path) as
    /// [`Phase::EmuExec`], the surrounding refill/handoff bookkeeping as
    /// [`Phase::EmuHandoff`]. A disabled handle (the default) costs one
    /// branch per refill. The handle is shared with the emulator so block
    /// decodes show up as [`Phase::BlockDecode`](ffsim_obs::Phase) nested
    /// under the emu scopes.
    pub fn set_profiler(&mut self, prof: ProfHandle) {
        self.emu.set_profiler(prof.clone());
        self.prof = prof;
    }

    /// Drains the frontend event ring (oldest first).
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.trace.take()
    }

    /// Events evicted from the frontend event ring because it was full.
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        self.trace.dropped()
    }

    fn refill_to(&mut self, want: usize) {
        if self.buf.len() >= want || self.ended {
            return;
        }
        self.prof.enter(Phase::EmuHandoff);
        while self.buf.len() < want && !self.ended {
            self.prof.enter(Phase::EmuExec);
            let stepped = self.emu.step();
            self.prof.exit();
            match stepped {
                Ok(inst) => {
                    let req = self.policy.on_instruction(&inst);
                    let mut wrong_path = req.map(|req| {
                        self.prof.enter(Phase::EmuExec);
                        let bundle = self.emu.emulate_wrong_path_bounded(
                            req.start,
                            req.max_insts,
                            self.watchdog,
                            &mut self.policy,
                        );
                        self.prof.exit();
                        bundle
                    });
                    if let Some(bundle) = &wrong_path {
                        if let WrongPathStop::Cancelled(cause) = bundle.stop {
                            // Cooperative cancellation mid-wrong-path: drop
                            // the partial bundle, deliver the already-
                            // retired correct path, and end the stream.
                            self.cancelled = Some(cause);
                            self.ended = true;
                            self.buf.push_back(StreamEntry {
                                inst,
                                wrong_path: None,
                            });
                            continue;
                        }
                        if matches!(bundle.stop, WrongPathStop::IllegalPc(_)) {
                            self.wp_stats.illegal_pc_stops += 1;
                        }
                        if let Some(fault) = Self::bundle_fault(bundle) {
                            match self.fault_policy {
                                FaultPolicy::SquashWrongPath => match bundle.stop {
                                    WrongPathStop::WatchdogExceeded { .. } => {
                                        self.wp_stats.watchdog_trips += 1;
                                    }
                                    _ => self.wp_stats.squashed_faults += 1,
                                },
                                FaultPolicy::AbortRun => {
                                    self.fault = Some(fault);
                                    self.fault_on_wrong_path = true;
                                    self.ended = true;
                                    // The aborted bundle is not handed to the
                                    // timing model.
                                    wrong_path = None;
                                }
                            }
                        }
                    }
                    if self.trace.is_enabled() {
                        if let (Some(req), Some(bundle)) = (req, &wrong_path) {
                            let ts = inst.seq;
                            let frontend = |kind| TraceEvent {
                                ts,
                                source: TraceSource::Frontend,
                                kind,
                            };
                            let n = bundle.insts.len() as u64;
                            let stop = bundle.stop;
                            self.trace.record(|| {
                                frontend(TraceEventKind::WrongPathEnter { pc: req.start })
                            });
                            match stop {
                                WrongPathStop::WatchdogExceeded { pc, limit } => {
                                    self.trace.record(|| {
                                        frontend(TraceEventKind::WatchdogTrip { pc, limit })
                                    });
                                }
                                WrongPathStop::Fault(_) => {
                                    self.trace.record(|| {
                                        frontend(TraceEventKind::Squash { instructions: n })
                                    });
                                }
                                _ => {}
                            }
                            self.trace.record(|| {
                                frontend(TraceEventKind::WrongPathExit { instructions: n })
                            });
                        }
                    }
                    self.buf.push_back(StreamEntry { inst, wrong_path });
                }
                Err(StepError::Halted) => self.ended = true,
                Err(StepError::Fault(f)) => {
                    self.fault = Some(f);
                    self.ended = true;
                }
                Err(StepError::Cancelled(cause)) => {
                    self.cancelled = Some(cause);
                    self.ended = true;
                }
            }
        }
        self.prof.exit();
    }

    /// The fault a bundle's stop reason corresponds to, if any.
    fn bundle_fault(bundle: &WrongPathBundle) -> Option<Fault> {
        match bundle.stop {
            WrongPathStop::Fault(f) => Some(f),
            WrongPathStop::WatchdogExceeded { pc, limit } => {
                Some(Fault::WatchdogExceeded { pc, limit })
            }
            _ => None,
        }
    }

    /// Pops the next correct-path entry, or `None` at end of stream.
    pub fn pop(&mut self) -> Option<StreamEntry> {
        self.refill_to(1);
        let entry = self.buf.pop_front();
        // Keep the runahead window full so peeks after pops see far ahead.
        self.refill_to(self.depth);
        entry
    }

    /// Batched pop (see [`FetchSource::fill`]): delivers up to `max`
    /// entries into `out` in one refill. Equivalent to `max` consecutive
    /// [`InstrQueue::pop`]s — each pop refills to `depth` after draining
    /// one entry, so after `max` pops the emulator has produced
    /// `delivered + depth` entries total; this method reaches the same
    /// point with a single `refill_to(max + depth)`, preserving the exact
    /// production order (and thus replica-predictor state, wrong-path
    /// checkpoints and trace events).
    pub fn fill(&mut self, out: &mut StreamBuf, max: usize) -> usize {
        self.refill_to(max.saturating_add(self.depth));
        let take = max.min(self.buf.len());
        out.entries.extend(self.buf.drain(..take));
        take
    }

    /// Peeks `index` entries ahead (0 = next to pop), extending the
    /// functional runahead on demand up to the queue depth.
    ///
    /// Returns `None` past the end of the program or beyond the depth.
    pub fn peek(&mut self, index: usize) -> Option<&StreamEntry> {
        if index >= self.depth {
            return None;
        }
        self.refill_to(index + 1);
        self.buf.get(index)
    }

    /// The next `n` entries (clamped to the queue depth) as two borrowed
    /// slices whose concatenation equals [`InstrQueue::peek`] at
    /// `0..n` up to its first `None`. Extends the runahead like `peek`;
    /// after every [`InstrQueue::pop`] or [`InstrQueue::fill`] the buffer
    /// already holds `depth` entries unless the stream ended, so this is
    /// usually just [`VecDeque::as_slices`].
    pub fn peek_window(&mut self, n: usize) -> (&[StreamEntry], &[StreamEntry]) {
        let n = n.min(self.depth);
        self.refill_to(n);
        let (front, back) = self.buf.as_slices();
        let front = &front[..front.len().min(n)];
        let back = &back[..back.len().min(n - front.len())];
        (front, back)
    }

    /// Number of entries currently buffered.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether the stream has ended and the buffer is drained.
    #[must_use]
    pub fn is_exhausted(&mut self) -> bool {
        self.refill_to(1);
        self.buf.is_empty()
    }

    /// The fault that ended the stream, if any. With
    /// [`FaultPolicy::SquashWrongPath`] (the default) this is always a
    /// correct-path fault; under [`FaultPolicy::AbortRun`] it may also be a
    /// wrong-path fault (see [`InstrQueue::fault_was_wrong_path`]).
    #[must_use]
    pub fn fault(&self) -> Option<Fault> {
        self.fault
    }

    /// Whether the stream-ending fault occurred during wrong-path emulation
    /// (only possible under [`FaultPolicy::AbortRun`]).
    #[must_use]
    pub fn fault_was_wrong_path(&self) -> bool {
        self.fault_on_wrong_path
    }

    /// Wrong-path squash counters (see [`WrongPathFaultStats`]).
    #[must_use]
    pub fn fault_stats(&self) -> WrongPathFaultStats {
        self.wp_stats
    }

    /// The cancellation cause that ended the stream, if the emulator's
    /// [`CancelToken`](crate::CancelToken) fired mid-run.
    #[must_use]
    pub fn cancelled(&self) -> Option<CancelCause> {
        self.cancelled
    }

    /// The frontend policy.
    #[must_use]
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the frontend policy (e.g. to read replica stats).
    pub fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// The underlying emulator (e.g. for memory validation after a run).
    #[must_use]
    pub fn emulator(&self) -> &Emulator {
        &self.emu
    }

    /// Mutable access to the underlying emulator (e.g. to configure the
    /// fault model before streaming).
    pub fn emulator_mut(&mut self) -> &mut Emulator {
        &mut self.emu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dyninst::BranchOutcome;
    use ffsim_isa::{Asm, Instr, Program, Reg};

    fn counted_program(n: i64) -> Program {
        let x = Reg::new(1);
        let mut a = Asm::new();
        a.li(x, n);
        a.label("loop");
        a.addi(x, x, -1);
        a.bnez(x, "loop");
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn pop_yields_program_order() {
        let mut q = InstrQueue::new(
            Emulator::new(counted_program(3)).unwrap(),
            NoFrontendWrongPath,
            16,
        );
        let mut seqs = Vec::new();
        while let Some(e) = q.pop() {
            seqs.push(e.inst.seq);
        }
        assert_eq!(seqs, (0..8).collect::<Vec<u64>>());
        assert!(q.is_exhausted());
        assert!(q.fault().is_none());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = InstrQueue::new(
            Emulator::new(counted_program(3)).unwrap(),
            NoFrontendWrongPath,
            16,
        );
        let p0 = q.peek(0).unwrap().inst;
        let p3 = q.peek(3).unwrap().inst;
        assert_eq!(p0.seq, 0);
        assert_eq!(p3.seq, 3);
        assert_eq!(q.pop().unwrap().inst, p0);
        assert_eq!(q.peek(2).unwrap().inst, p3);
    }

    #[test]
    fn peek_beyond_depth_is_none() {
        let mut q = InstrQueue::new(
            Emulator::new(counted_program(100)).unwrap(),
            NoFrontendWrongPath,
            8,
        );
        assert!(q.peek(8).is_none());
        assert!(q.peek(7).is_some());
    }

    #[test]
    fn peek_past_end_is_none() {
        let mut q = InstrQueue::new(
            Emulator::new(counted_program(1)).unwrap(),
            NoFrontendWrongPath,
            64,
        );
        // Program is li, addi, bnez (not taken), halt = 4 instructions.
        assert!(q.peek(3).is_some());
        assert!(q.peek(4).is_none());
    }

    /// Concatenates `peek_window(n)` and checks it against `peek(0..n)`:
    /// same entries, and `peek` is `None` right past a short window.
    /// Returns whether the window spanned the ring buffer's wrap point.
    fn assert_window_matches_peek<P: FrontendPolicy>(q: &mut InstrQueue<P>, n: usize) -> bool {
        let (front, back) = q.peek_window(n);
        let window: Vec<StreamEntry> = front.iter().chain(back).cloned().collect();
        let wrapped = !front.is_empty() && !back.is_empty();
        assert!(window.len() <= n);
        for (i, e) in window.iter().enumerate() {
            assert_eq!(q.peek(i), Some(e), "entry {i} of a {n}-entry window");
        }
        assert!(window.len() == n || q.peek(window.len()).is_none());
        wrapped
    }

    #[test]
    fn peek_window_matches_peek_across_the_wrap_point() {
        let mut q = InstrQueue::new(
            Emulator::new(counted_program(100)).unwrap(),
            NoFrontendWrongPath,
            8,
        );
        let mut wrapped = false;
        for _ in 0..40 {
            for n in [0, 1, 5, 8] {
                wrapped |= assert_window_matches_peek(&mut q, n);
            }
            q.pop().unwrap();
        }
        assert!(wrapped, "the ring buffer never wrapped");
    }

    #[test]
    fn peek_window_is_short_at_stream_end() {
        let mut q = InstrQueue::new(
            Emulator::new(counted_program(1)).unwrap(),
            NoFrontendWrongPath,
            64,
        );
        // Program is li, addi, bnez (not taken), halt = 4 instructions.
        let (front, back) = q.peek_window(10);
        assert_eq!(front.len() + back.len(), 4);
        assert_window_matches_peek(&mut q, 10);
        assert!(q.peek(4).is_none());
        q.pop().unwrap();
        let (front, back) = q.peek_window(10);
        assert_eq!(front.len() + back.len(), 3);
        assert_window_matches_peek(&mut q, 10);
    }

    #[test]
    fn peek_window_clamps_to_depth() {
        let mut q = InstrQueue::new(
            Emulator::new(counted_program(100)).unwrap(),
            NoFrontendWrongPath,
            8,
        );
        q.pop().unwrap();
        let (front, back) = q.peek_window(50);
        assert_eq!(front.len() + back.len(), 8);
        assert_window_matches_peek(&mut q, 50);
        assert!(q.peek(8).is_none());
    }

    /// Policy that requests wrong-path emulation at every not-taken
    /// conditional branch (pretending it predicted taken).
    struct AlwaysWrong;
    impl BranchOracle for AlwaysWrong {
        fn next_fetch_pc(
            &mut self,
            _pc: ffsim_isa::Addr,
            _instr: &Instr,
            computed: BranchOutcome,
        ) -> Option<ffsim_isa::Addr> {
            Some(computed.next_pc)
        }
    }
    impl FrontendPolicy for AlwaysWrong {
        fn on_instruction(&mut self, inst: &DynInst) -> Option<WrongPathRequest> {
            let b = inst.branch?;
            if matches!(inst.instr, Instr::Branch { .. }) && !b.taken {
                // Predicted taken, was not taken → wrong path is the target.
                let target = inst.instr.direct_target().unwrap();
                Some(WrongPathRequest {
                    start: target,
                    max_insts: 16,
                })
            } else {
                None
            }
        }
    }

    #[test]
    fn wrong_path_bundles_attach_to_branches() {
        let mut q = InstrQueue::new(Emulator::new(counted_program(3)).unwrap(), AlwaysWrong, 16);
        let mut bundles = 0;
        let mut bundle_len = 0;
        while let Some(e) = q.pop() {
            if let Some(wp) = e.wrong_path {
                bundles += 1;
                bundle_len = wp.insts.len();
                assert!(e.inst.instr.is_branch());
            }
        }
        // Only the final (not-taken) bnez gets a bundle.
        assert_eq!(bundles, 1);
        // Wrong path re-enters the loop: addi, bnez, addi, bnez, ... with
        // x1 = 0 decremented to negative values, bnez stays taken until the
        // 16-instruction budget runs out.
        assert_eq!(bundle_len, 16);
    }

    #[test]
    fn fill_matches_pop_sequence() {
        // Use the wrong-path-requesting policy so bundles and runahead
        // production both participate in the equivalence.
        let stream = |batch: Option<usize>| {
            let mut q =
                InstrQueue::new(Emulator::new(counted_program(20)).unwrap(), AlwaysWrong, 8);
            let mut entries = Vec::new();
            match batch {
                None => {
                    while let Some(e) = q.pop() {
                        entries.push(e);
                    }
                }
                Some(max) => {
                    let mut buf = StreamBuf::with_capacity(max);
                    loop {
                        buf.clear();
                        if q.fill(&mut buf, max) == 0 {
                            break;
                        }
                        entries.extend_from_slice(buf.entries());
                    }
                }
            }
            (entries, q.emulator().digest())
        };
        let baseline = stream(None);
        for batch in [1, 3, 16, 256] {
            assert_eq!(stream(Some(batch)), baseline, "batch size {batch}");
        }
    }

    #[test]
    fn fill_delivers_partial_batch_at_end_of_stream() {
        let mut q = InstrQueue::new(
            Emulator::new(counted_program(1)).unwrap(),
            NoFrontendWrongPath,
            4,
        );
        let mut buf = StreamBuf::new();
        // Program is li, addi, bnez (not taken), halt = 4 instructions.
        assert_eq!(q.fill(&mut buf, 64), 4);
        assert_eq!(buf.len(), 4);
        assert!(!buf.is_empty());
        assert_eq!(q.fill(&mut buf, 64), 0, "stream ended");
        assert!(q.is_exhausted());
    }

    #[test]
    fn fault_terminates_stream_and_is_reported() {
        let mut a = Asm::new();
        a.li(Reg::new(1), 0x33); // misaligned for an 8-byte load
        a.ld(Reg::new(2), 0, Reg::new(1));
        a.halt();
        let mut q = InstrQueue::new(
            Emulator::new(a.assemble().unwrap()).unwrap(),
            NoFrontendWrongPath,
            4,
        );
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 1, "only the li executes");
        assert!(q.fault().is_some());
        assert!(!q.fault_was_wrong_path());
    }

    /// Correct path: two li's, a not-taken bnez, halt. The wrong path at
    /// the branch target immediately performs a misaligned load.
    fn faulting_wrong_path_program() -> Program {
        let (x1, x2, x3) = (Reg::new(1), Reg::new(2), Reg::new(3));
        let mut a = Asm::new();
        a.li(x1, 0x33); // misaligned base for an 8-byte load
        a.li(x2, 0);
        a.bnez(x2, "wrong"); // never taken on the correct path
        a.halt();
        a.label("wrong");
        a.ld(x3, 0, x1);
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn wrong_path_fault_squashes_by_default() {
        let mut q = InstrQueue::new(
            Emulator::new(faulting_wrong_path_program()).unwrap(),
            AlwaysWrong,
            16,
        );
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
        }
        assert_eq!(
            n, 4,
            "full correct path retires despite the wrong-path fault"
        );
        assert!(q.fault().is_none());
        assert_eq!(q.fault_stats().squashed_faults, 1);
        assert_eq!(q.fault_stats().watchdog_trips, 0);
    }

    #[test]
    fn wrong_path_fault_aborts_under_abort_policy() {
        let mut q = InstrQueue::new(
            Emulator::new(faulting_wrong_path_program()).unwrap(),
            AlwaysWrong,
            16,
        )
        .with_fault_policy(FaultPolicy::AbortRun);
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        assert_eq!(popped.len(), 3, "stream ends at the branch");
        assert!(popped[2].wrong_path.is_none(), "aborted bundle is dropped");
        assert!(matches!(q.fault(), Some(Fault::Misaligned { .. })));
        assert!(q.fault_was_wrong_path());
    }

    #[test]
    fn watchdog_trips_are_counted_and_squash() {
        let mut q = InstrQueue::new(Emulator::new(counted_program(3)).unwrap(), AlwaysWrong, 16)
            .with_watchdog(Some(4));
        let mut n = 0;
        let mut wp_len = 0;
        while let Some(e) = q.pop() {
            n += 1;
            if let Some(wp) = e.wrong_path {
                wp_len = wp.insts.len();
            }
        }
        assert_eq!(n, 8, "correct path unaffected");
        assert_eq!(wp_len, 4, "wrong path cut off at the watchdog");
        assert_eq!(q.fault_stats().watchdog_trips, 1);
        assert!(q.fault().is_none());
    }

    #[test]
    fn cancellation_ends_stream_cooperatively() {
        use crate::cancel::CancelToken;
        let token = CancelToken::new();
        let mut emu = Emulator::new(counted_program(1000)).unwrap();
        emu.set_cancel_token(Some(token.clone()));
        let mut q = InstrQueue::new(emu, NoFrontendWrongPath, 4);
        let mut n = 0;
        while q.pop().is_some() {
            n += 1;
            if n == 10 {
                token.cancel();
            }
        }
        // Already-buffered entries drain, then the stream ends early.
        assert!((10..100).contains(&n), "popped {n}");
        assert_eq!(q.cancelled(), Some(CancelCause::Cancelled));
        assert!(q.fault().is_none(), "cancellation is not a fault");
    }

    /// Oracle/policy that requests wrong paths like [`AlwaysWrong`] but
    /// fires a cancel token mid-wrong-path, from inside the oracle.
    struct CancelMidWrongPath {
        token: crate::cancel::CancelToken,
        oracle_calls: u32,
    }
    impl BranchOracle for CancelMidWrongPath {
        fn next_fetch_pc(
            &mut self,
            _pc: ffsim_isa::Addr,
            _instr: &Instr,
            computed: BranchOutcome,
        ) -> Option<ffsim_isa::Addr> {
            self.oracle_calls += 1;
            if self.oracle_calls == 2 {
                self.token.expire();
            }
            Some(computed.next_pc)
        }
    }
    impl FrontendPolicy for CancelMidWrongPath {
        fn on_instruction(&mut self, inst: &DynInst) -> Option<WrongPathRequest> {
            let b = inst.branch?;
            if matches!(inst.instr, Instr::Branch { .. }) && !b.taken {
                Some(WrongPathRequest {
                    start: inst.instr.direct_target().unwrap(),
                    max_insts: 64,
                })
            } else {
                None
            }
        }
    }

    #[test]
    fn cancellation_mid_wrong_path_drops_partial_bundle() {
        let token = crate::cancel::CancelToken::new();
        let mut emu = Emulator::new(counted_program(3)).unwrap();
        emu.set_cancel_token(Some(token.clone()));
        let policy = CancelMidWrongPath {
            token,
            oracle_calls: 0,
        };
        let mut q = InstrQueue::new(emu, policy, 16);
        let mut bundles = 0;
        while let Some(e) = q.pop() {
            bundles += u32::from(e.wrong_path.is_some());
        }
        assert_eq!(bundles, 0, "partial bundle must be dropped");
        assert_eq!(q.cancelled(), Some(CancelCause::DeadlineExceeded));
    }

    #[test]
    fn frontend_trace_records_wrong_path_episodes() {
        let mut q = InstrQueue::new(Emulator::new(counted_program(3)).unwrap(), AlwaysWrong, 16)
            .with_watchdog(Some(4))
            .with_trace(EventRing::enabled(64));
        while q.pop().is_some() {}
        let events = q.take_trace();
        // One wrong-path episode, watchdog-limited: enter, trip, exit.
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, vec!["wrong-path", "watchdog-trip", "wrong-path"]);
        assert!(events.iter().all(|e| e.source == TraceSource::Frontend));
        assert!(matches!(
            events[2].kind,
            TraceEventKind::WrongPathExit { instructions: 4 }
        ));
        assert_eq!(q.trace_dropped(), 0);
    }

    #[test]
    fn disabled_trace_changes_nothing() {
        let run = |trace: bool| {
            let mut q =
                InstrQueue::new(Emulator::new(counted_program(5)).unwrap(), AlwaysWrong, 16);
            if trace {
                q = q.with_trace(EventRing::enabled(64));
            }
            let mut seqs = Vec::new();
            while let Some(e) = q.pop() {
                seqs.push(e.inst.seq);
            }
            (seqs, q.emulator().digest())
        };
        assert_eq!(run(false), run(true), "tracing must not perturb the stream");
    }

    #[test]
    fn watchdog_aborts_under_abort_policy() {
        let mut q = InstrQueue::new(Emulator::new(counted_program(3)).unwrap(), AlwaysWrong, 16)
            .with_watchdog(Some(4))
            .with_fault_policy(FaultPolicy::AbortRun);
        while q.pop().is_some() {}
        assert!(matches!(
            q.fault(),
            Some(Fault::WatchdogExceeded { limit: 4, .. })
        ));
        assert!(q.fault_was_wrong_path());
    }
}
