//! The durable campaign job queue: the driver's one result log, plus
//! lease-based ownership, weighted fair scheduling, preemption, and
//! poison-job quarantine.
//!
//! Every campaign runs through here: a long-running service enqueues jobs
//! from several campaigns into one on-disk queue that survives kill -9,
//! and [`Campaign::run`](crate::Campaign::run) is a one-campaign drain.
//!
//! # The durable log
//!
//! Every queue state transition appends one typed record to
//! `<dir>/queue.journal`: `Enqueued`, `Leased`, `Committed`, `Failed`,
//! `Preempted`, or `Quarantined`. `Committed` and `Failed` records carry
//! the job's serialized [`JobRecord`], so the journal *is* the result
//! store: a terminal entry is the durable record, and the merged report is
//! read straight from the replayed state table. Each record is an
//! individually sealed document — JSON body plus the FNV-1a `#checksum`
//! trailer line ([`manifest::seal`]) — so replay verifies records one at
//! a time. Startup replay folds the journal over the last snapshot:
//!
//! - a **half-written final record** (torn append at the moment of the
//!   crash) is dropped and the journal truncated in place back to the last
//!   sealed record — never an error, and never a rewrite of the prefix;
//! - damage **before** the tail is real corruption: every sealed record
//!   before the damage is replayed, the journal is quarantined to
//!   `queue.journal.corrupt` (evidence preserved), and the replayed state
//!   is compacted at once. Only the results after the damage are lost;
//!   they re-run on re-enqueue, and the result cache serves them;
//! - a damaged **snapshot** is quarantined to `queue.snapshot.corrupt` and
//!   replay continues from the journal;
//! - every [`QueueConfig::compact_every`] records the state table is
//!   rewritten as the log it compacts to — one record per job (two for a
//!   leased one), results included — and installed under one outer seal
//!   as `queue.snapshot` (atomic temp + rename); then the journal is
//!   truncated. Records carry the snapshot *generation* so a crash
//!   between the two steps replays nothing twice.
//!
//! A queue opened without a directory (a [`Campaign`](crate::Campaign)
//! with no [`dir`](crate::CampaignConfig::dir)) runs the same state
//! machine but its journal writer persists nothing.
//!
//! # Leases
//!
//! A dequeued job is *leased*, not removed: the `Leased` record makes the
//! claim durable, and the lease carries a deadline. A worker (or whole
//! process) that dies mid-job leaves a dangling lease; replay counts it
//! as a lease failure and re-enqueues the job with its retry/backoff
//! budget intact. In-process, an expired lease is taken back through the
//! job's [`CancelToken`] — and **commit always wins**: a job that
//! finishes as its lease expires is committed once, never re-run (the
//! take-back marker is simply ignored when a record arrives). A job that
//! fails the same way ≥ [`QueueConfig::max_lease_failures`] times is
//! quarantined as a *poison job* with its last error recorded, instead of
//! wedging the queue forever.
//!
//! # Scheduling
//!
//! Campaigns are registered with a weight and a base priority; each job
//! adds its own priority offset. Strictly higher effective priority runs
//! first — and an enqueue that outranks every idle slot *preempts* the
//! lowest-priority running job via its token: the victim is re-enqueued
//! at the front of its FIFO, is never failed, and burns no retry
//! attempt. Within a priority level, campaigns share the workers by
//! deficit round-robin over per-campaign FIFOs, with deterministic
//! tie-breaks (campaign id, then enqueue order). Scheduling shapes only
//! *latency*: the merged report is byte-identical for an identical
//! enqueue sequence whatever the preemption, crash, and resume
//! interleaving, because records are content-deterministic and id-sorted.
//!
//! # Backpressure
//!
//! The queue holds at most [`QueueConfig::capacity`] live (pending or
//! leased) jobs; enqueueing past that returns
//! [`QueueError::Saturated`] instead of growing without bound.

use crate::cache::{self, CacheStore};
use crate::campaign::{self, Executor, Probe, SharedIo};
use crate::hostobs;
use crate::job::{AttemptOutcome, Job, JobRecord, JobStatus, JobTiming};
use crate::json::{parse, Value};
use crate::manifest::{self, ManifestError, Quarantine};
use crate::retry::RetryPolicy;
use crate::telemetry::{Heartbeat, QueueGauges, Telemetry, TelemetryConfig};
use crate::watchdog::Watchdog;
use ffsim_core::{CancelToken, SimError};
use ffsim_obs::hist::Log2Hist;
use ffsim_obs::Phase;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Journal file name inside the queue directory.
const JOURNAL_FILE: &str = "queue.journal";
/// Snapshot file name inside the queue directory.
const SNAPSHOT_FILE: &str = "queue.snapshot";

/// Upper bound on the worker count (`0` still means one per CPU).
pub const MAX_WORKERS: usize = 4096;

/// Validates a worker count at configuration time (`0` is the documented
/// "one per CPU" default and stays valid).
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for counts above [`MAX_WORKERS`].
pub fn validate_worker_count(workers: usize) -> Result<(), SimError> {
    if workers > MAX_WORKERS {
        return Err(SimError::InvalidConfig(format!(
            "worker count {workers} exceeds the maximum of {MAX_WORKERS}"
        )));
    }
    Ok(())
}

/// The error a dangling or expired lease charges against a job.
const LEASE_LOST: &str = "lease lost before commit";

/// Why a queue operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueueError {
    /// The queue already holds [`QueueConfig::capacity`] live jobs;
    /// enqueue again after some drain. This is backpressure, not
    /// corruption.
    Saturated {
        /// Live (pending + leased) jobs at the moment of rejection.
        depth: usize,
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The campaign id was never [registered](JobQueue::register).
    UnknownCampaign(String),
    /// A live job with this id (and a payload) is already queued.
    DuplicateJob(String),
    /// The configuration is unusable (zero capacity, bad worker count,
    /// concurrent drains, ...).
    InvalidConfig(String),
    /// The journal or snapshot failed at the filesystem level (content
    /// damage never surfaces here — it quarantines).
    Journal(ManifestError),
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::Saturated { depth, capacity } => {
                write!(
                    f,
                    "queue saturated: {depth} live jobs at capacity {capacity}"
                )
            }
            QueueError::UnknownCampaign(id) => write!(f, "unknown campaign `{id}`"),
            QueueError::DuplicateJob(id) => write!(f, "job `{id}` is already queued"),
            QueueError::InvalidConfig(m) => write!(f, "invalid queue config: {m}"),
            QueueError::Journal(e) => write!(f, "queue journal: {e}"),
        }
    }
}

impl std::error::Error for QueueError {}

impl From<ManifestError> for QueueError {
    fn from(e: ManifestError) -> QueueError {
        QueueError::Journal(e)
    }
}

/// Durable queue settings.
#[derive(Clone, Debug)]
pub struct QueueConfig {
    /// The queue directory: the journal, its snapshot, and quarantined
    /// evidence live here.
    pub dir: PathBuf,
    /// Maximum live (pending + leased) jobs before
    /// [`QueueError::Saturated`].
    pub capacity: usize,
    /// Lease deadline: a job leased longer than this without committing
    /// is taken back and re-enqueued. `Duration::ZERO` means every lease
    /// is immediately reclaimable — commit still wins if the job
    /// finishes first.
    pub lease: Duration,
    /// Lease-level failures (dangling leases at restart, expiries, runner
    /// panics) of the same kind before a job is quarantined as poison.
    pub max_lease_failures: u32,
    /// Journal records between compactions into the snapshot.
    pub compact_every: usize,
    /// Worker threads for [`JobQueue::drain`] (`0` = one per CPU).
    pub workers: usize,
    /// Retry policy for job attempts (reused for the lease backoff
    /// budget: re-enqueued jobs keep their attempt history semantics).
    pub retry: RetryPolicy,
    /// Per-attempt deadline for jobs without their own.
    pub default_timeout: Option<Duration>,
    /// Content-addressed result cache directory (`None` = no cache).
    pub cache_dir: Option<PathBuf>,
    /// The filesystem seam for journal appends and repairs, snapshot
    /// installs, and cache writes.
    pub io: SharedIo,
    /// Heartbeat telemetry (includes queue gauges when enabled).
    pub telemetry: TelemetryConfig,
}

impl QueueConfig {
    /// Defaults rooted at `dir`: capacity 4096, 60 s leases, quarantine
    /// after 3 lease failures, compaction every 256 records.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> QueueConfig {
        QueueConfig {
            dir: dir.into(),
            capacity: 4096,
            lease: Duration::from_secs(60),
            max_lease_failures: 3,
            compact_every: 256,
            workers: 0,
            retry: RetryPolicy::default(),
            default_timeout: Some(Duration::from_secs(300)),
            cache_dir: None,
            io: SharedIo::default(),
            telemetry: TelemetryConfig::from_env(),
        }
    }

    fn validate(&self) -> Result<(), QueueError> {
        let invalid = |m: String| Err(QueueError::InvalidConfig(m));
        if self.capacity == 0 {
            return invalid("capacity must be at least 1".into());
        }
        if self.max_lease_failures == 0 {
            return invalid("max_lease_failures must be at least 1".into());
        }
        if self.compact_every == 0 {
            return invalid("compact_every must be at least 1".into());
        }
        validate_worker_count(self.workers).map_err(|e| QueueError::InvalidConfig(e.to_string()))
    }
}

/// A campaign registered with the queue: its share of the workers and the
/// base priority of its jobs.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Campaign id; enqueued job ids are conventionally prefixed with it.
    pub id: String,
    /// Deficit-round-robin weight against sibling campaigns at the same
    /// priority (must be ≥ 1).
    pub weight: u32,
    /// Base priority added to each job's own
    /// [`priority`](Job::priority); higher runs first.
    pub priority: i32,
}

impl CampaignSpec {
    /// A campaign with weight 1 and base priority 0.
    #[must_use]
    pub fn new(id: impl Into<String>) -> CampaignSpec {
        CampaignSpec {
            id: id.into(),
            weight: 1,
            priority: 0,
        }
    }

    /// Sets the fair-share weight.
    #[must_use]
    pub fn with_weight(mut self, weight: u32) -> CampaignSpec {
        self.weight = weight;
        self
    }

    /// Sets the base priority.
    #[must_use]
    pub fn with_priority(mut self, priority: i32) -> CampaignSpec {
        self.priority = priority;
        self
    }
}

/// What [`JobQueue::enqueue`] did with a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Enqueued {
    /// Queued (or re-attached to a recovered pending entry).
    Accepted,
    /// The journal already holds the job's terminal record; it appears in
    /// the merged report without re-running.
    AlreadyComplete,
    /// The job is quarantined as poison from an earlier run; it stays
    /// quarantined and is reported, not re-run.
    Poisoned,
}

/// A job quarantined after repeated identical lease-level failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoisonJob {
    /// The job id.
    pub id: String,
    /// The campaign it belonged to.
    pub campaign: String,
    /// How many identical failures it accumulated.
    pub failures: u32,
    /// The recorded last error (panic message, lease loss, or the
    /// underlying [`SimError`](ffsim_core::SimError) text).
    pub error: String,
}

/// What startup recovery found in the queue directory.
#[derive(Clone, Debug, Default)]
pub struct Recovery {
    /// Quarantine notices for a damaged journal or snapshot. Empty on
    /// clean startups.
    pub quarantines: Vec<Quarantine>,
    /// Jobs whose dangling lease (worker died mid-job) was reclaimed and
    /// re-enqueued with their budget intact.
    pub re_leased: usize,
    /// Whether a half-written final journal record was dropped.
    pub torn_tail_dropped: bool,
}

/// Counters describing one finished [`JobQueue::drain`].
#[derive(Clone, Debug)]
pub struct DrainOutcome {
    /// Records for every job with a terminal result (freshly executed
    /// plus resumed), read from the state table (id-sorted).
    pub records: BTreeMap<String, JobRecord>,
    /// Poison jobs quarantined so far, id-sorted; rendered in the report
    /// appendix.
    pub poison: Vec<PoisonJob>,
    /// Jobs skipped at enqueue because the journal already held their
    /// terminal record.
    pub resumed: usize,
    /// Jobs executed to a terminal record by this drain (cache hits
    /// included).
    pub executed: usize,
    /// Jobs served from the result cache without simulating.
    pub cache_hits: usize,
    /// Jobs that probed the cache and missed.
    pub cache_misses: usize,
    /// Running jobs preempted by a higher-priority enqueue (re-enqueued,
    /// never failed).
    pub preempted: usize,
    /// Leases taken back after expiring (commit-wins races excluded).
    pub lease_expiries: usize,
    /// Dangling leases reclaimed at startup (see [`Recovery`]).
    pub re_leased: usize,
    /// Whether the service stop token fired mid-drain; leased jobs stay
    /// journaled and re-run on resume.
    pub cancelled: bool,
    /// File-level quarantine notices from startup recovery.
    pub quarantines: Vec<Quarantine>,
    /// Per-campaign queue-wait distributions (milliseconds from enqueue
    /// to lease), for the stderr report appendix.
    pub waits: BTreeMap<String, Log2Hist>,
}

/// Aggregate queue state, for services and tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Jobs pending with a payload (runnable now).
    pub pending: usize,
    /// Jobs currently leased to workers.
    pub leased: usize,
    /// Jobs with a durable `Committed` terminal state.
    pub committed: usize,
    /// Jobs with a durable `Failed` terminal state.
    pub failed: usize,
    /// Poison jobs quarantined.
    pub quarantined: usize,
}

/// The execution context handed to a [`JobRunner`]: wraps the shared
/// per-job execution engine (retries, degradation ladder, watchdog
/// deadlines, panic isolation) so custom runners can delegate to the real
/// thing.
pub struct RunContext<'a> {
    executor: Executor<'a>,
}

impl fmt::Debug for RunContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunContext").finish_non_exhaustive()
    }
}

impl RunContext<'_> {
    /// Runs `job` under full supervision. Returns `None` when the service
    /// stop token or `takeback` fired mid-attempt (the queue re-enqueues
    /// the job; the interrupted attempt burns no retry budget).
    #[must_use]
    pub fn execute(&self, job: &Job, takeback: &CancelToken) -> Option<JobRecord> {
        self.executor.execute_job(job, Some(takeback))
    }
}

/// How a leased job is executed. The default runner delegates straight to
/// [`RunContext::execute`]; tests substitute runners that panic, stall,
/// or count invocations. A panic escaping `run` is contained by the queue
/// and counted as a lease-level failure toward poison quarantine.
pub trait JobRunner: Sync {
    /// Executes one leased job. Return `None` only when `takeback` (or
    /// the service stop token) fired; returning `None` otherwise is
    /// treated as a lease failure.
    fn run(&self, ctx: &RunContext<'_>, job: &Job, takeback: &CancelToken) -> Option<JobRecord>;
}

/// The production runner: full supervised execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct DefaultRunner;

impl JobRunner for DefaultRunner {
    fn run(&self, ctx: &RunContext<'_>, job: &Job, takeback: &CancelToken) -> Option<JobRecord> {
        ctx.execute(job, takeback)
    }
}

/// Per-job lifecycle state, mirrored 1:1 by journal replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Pending,
    Leased,
    Committed,
    Failed,
    Quarantined,
}

impl State {
    fn is_terminal(self) -> bool {
        matches!(self, State::Committed | State::Failed | State::Quarantined)
    }
}

/// One job's queue entry. The journal is the durable form of exactly this
/// struct minus the payload (workload closures cannot be serialized; a
/// restarted service re-enqueues the same job sequence to re-attach
/// them).
#[derive(Debug)]
struct Entry {
    state: State,
    campaign: String,
    priority: i32,
    /// Consecutive identical lease-level failures (reset when the error
    /// changes).
    failures: u32,
    error: Option<String>,
    /// The terminal result: present exactly in the `Committed` and
    /// `Failed` states. The only copy the queue holds.
    record: Option<JobRecord>,
    payload: Option<Job>,
    enqueued_at: Option<Instant>,
}

impl Entry {
    fn new(campaign: String, priority: i32) -> Entry {
        Entry {
            state: State::Pending,
            campaign,
            priority,
            failures: 0,
            error: None,
            record: None,
            payload: None,
            enqueued_at: None,
        }
    }

    /// Charges one lease-level failure of kind `error`; identical
    /// consecutive failures accumulate toward poison quarantine, a
    /// different failure restarts the count.
    fn charge(&mut self, error: &str) {
        if self.error.as_deref() == Some(error) {
            self.failures += 1;
        } else {
            self.error = Some(error.to_string());
            self.failures = 1;
        }
    }
}

#[derive(Debug)]
struct CampaignState {
    weight: u32,
    priority: i32,
    deficit: u32,
    /// Per-priority FIFOs of pending job ids.
    fifos: BTreeMap<i32, VecDeque<String>>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Takeback {
    Preempted,
    Expired,
}

#[derive(Debug)]
struct Running {
    token: CancelToken,
    campaign: String,
    priority: i32,
    leased_at: Instant,
    /// `None` when the lease outlasts any representable instant.
    deadline: Option<Instant>,
    takeback: Option<Takeback>,
}

/// A job handed to a worker by [`JobQueue::next_job`].
struct Leased {
    id: String,
    job: Job,
    token: CancelToken,
    /// Enqueue-to-lease wait.
    waited: Duration,
}

/// Where the durable log lives.
#[derive(Debug)]
struct Log {
    journal: PathBuf,
    snapshot: PathBuf,
}

#[derive(Debug, Default)]
struct Stats {
    resumed: usize,
    executed: usize,
    preempted: usize,
    lease_expiries: usize,
}

#[derive(Debug)]
struct Inner {
    campaigns: BTreeMap<String, CampaignState>,
    jobs: BTreeMap<String, Entry>,
    running: BTreeMap<String, Running>,
    /// The campaign the deficit-round-robin scan starts from.
    rr_cursor: Option<String>,
    /// Snapshot generation; journal records stamped with an older
    /// generation are already folded into the snapshot and skipped.
    gen: u64,
    records_since_compact: usize,
    /// Live (pending-with-payload + leased) jobs, for capacity checks.
    live: usize,
    drain_active: bool,
    idle_workers: usize,
    stats: Stats,
    waits: BTreeMap<String, Log2Hist>,
    /// Per-campaign lease-to-commit run times (milliseconds), the basis
    /// for the suggested lease deadline services clamp against.
    runs: BTreeMap<String, Log2Hist>,
    persist_error: Option<ManifestError>,
}

/// The durable job queue. See the [module docs](self).
pub struct JobQueue {
    cfg: QueueConfig,
    /// `None` for an in-memory queue: the journal writer persists nothing.
    log: Option<Log>,
    /// The live lease deadline in milliseconds. Starts at
    /// [`QueueConfig::lease`]; services may raise it at runtime from the
    /// observed run-time distribution ([`JobQueue::set_lease`]).
    lease_ms: AtomicU64,
    inner: Mutex<Inner>,
    work: Condvar,
    cancel: CancelToken,
    gauges: Arc<QueueGauges>,
    cache: Option<CacheStore>,
    recovery: Recovery,
    cache_hits: AtomicUsize,
    cache_misses: AtomicUsize,
}

impl fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobQueue")
            .field("dir", &self.cfg.dir)
            .finish_non_exhaustive()
    }
}

impl JobQueue {
    /// Opens (or creates) the queue at [`QueueConfig::dir`], replaying the
    /// snapshot and journal: a half-written final record is truncated
    /// away, damaged files are quarantined to `.corrupt` siblings (keeping
    /// every sealed journal record before the damage), dangling leases
    /// are reclaimed (or quarantined as poison once over budget).
    ///
    /// # Errors
    ///
    /// [`QueueError::InvalidConfig`] for unusable settings and
    /// [`QueueError::Journal`] for filesystem-level failures. Content
    /// damage never fails an open — it quarantines and is reported in
    /// [`JobQueue::recovery`].
    pub fn open(cfg: QueueConfig) -> Result<JobQueue, QueueError> {
        cfg.validate()?;
        std::fs::create_dir_all(&cfg.dir)
            .map_err(|e| ManifestError::Io(format!("creating {}: {e}", cfg.dir.display())))?;
        let log = Log {
            journal: cfg.dir.join(JOURNAL_FILE),
            snapshot: cfg.dir.join(SNAPSHOT_FILE),
        };
        let mut recovery = Recovery::default();
        let (gen, jobs) = replay(&cfg, &log, &mut recovery)?;
        let mut queue = JobQueue::with_state(cfg, Some(log), gen, jobs, recovery);
        queue.reclaim_dangling_leases()?;
        if !queue.recovery.quarantines.is_empty() {
            // Fold what survived into a fresh snapshot at once, so the
            // next open starts from healthy files.
            queue.compact_locked(&mut queue.lock())?;
        }
        Ok(queue)
    }

    /// A queue whose journal writer persists nothing: the same state
    /// machine for a campaign without a directory.
    pub(crate) fn in_memory(cfg: QueueConfig) -> Result<JobQueue, QueueError> {
        cfg.validate()?;
        Ok(JobQueue::with_state(
            cfg,
            None,
            0,
            BTreeMap::new(),
            Recovery::default(),
        ))
    }

    fn with_state(
        cfg: QueueConfig,
        log: Option<Log>,
        gen: u64,
        jobs: BTreeMap<String, Entry>,
        recovery: Recovery,
    ) -> JobQueue {
        let inner = Inner {
            campaigns: BTreeMap::new(),
            jobs,
            running: BTreeMap::new(),
            rr_cursor: None,
            gen,
            records_since_compact: 0,
            live: 0,
            drain_active: false,
            idle_workers: 0,
            stats: Stats::default(),
            waits: BTreeMap::new(),
            runs: BTreeMap::new(),
            persist_error: None,
        };
        let lease_ms = u64::try_from(cfg.lease.as_millis()).unwrap_or(u64::MAX);
        let cache = cfg.cache_dir.clone().map(CacheStore::new);
        JobQueue {
            cfg,
            log,
            lease_ms: AtomicU64::new(lease_ms),
            inner: Mutex::new(inner),
            work: Condvar::new(),
            cancel: CancelToken::new(),
            gauges: QueueGauges::new(),
            cache,
            recovery,
            cache_hits: AtomicUsize::new(0),
            cache_misses: AtomicUsize::new(0),
        }
    }

    /// Replaces the service stop token, so a campaign's own token stops
    /// the drain.
    pub(crate) fn with_cancel(mut self, cancel: CancelToken) -> JobQueue {
        self.cancel = cancel;
        self
    }

    /// Dangling leases: the worker (or process) holding them died.
    /// Reclaims each with its budget intact, or quarantines it as poison.
    fn reclaim_dangling_leases(&mut self) -> Result<(), QueueError> {
        let max_failures = self.cfg.max_lease_failures;
        let mut guard = self.lock();
        let inner = &mut *guard;
        let mut re_leased = 0usize;
        let mut poisoned = Vec::new();
        for (id, entry) in &mut inner.jobs {
            if entry.state == State::Leased {
                entry.charge(LEASE_LOST);
                if entry.failures >= max_failures {
                    entry.state = State::Quarantined;
                    poisoned.push(quarantined_record_body(id, entry));
                } else {
                    entry.state = State::Pending;
                    re_leased += 1;
                }
            }
        }
        for body in poisoned {
            self.append_record(inner, body)?;
        }
        drop(guard);
        self.recovery.re_leased = re_leased;
        Ok(())
    }

    /// What startup recovery found (quarantines, reclaimed leases, torn
    /// tail).
    #[must_use]
    pub fn recovery(&self) -> &Recovery {
        &self.recovery
    }

    /// The service-wide stop token: firing it makes workers take no new
    /// leases and abandon in-flight jobs (their journaled leases dangle
    /// and are reclaimed on the next open — exactly like kill -9).
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The live gauges rendered into heartbeat lines.
    #[must_use]
    pub fn gauges(&self) -> Arc<QueueGauges> {
        Arc::clone(&self.gauges)
    }

    /// Registers (or re-registers) a campaign. Re-registration updates
    /// the weight and base priority and keeps any queued jobs.
    ///
    /// # Errors
    ///
    /// [`QueueError::InvalidConfig`] for a zero weight.
    pub fn register(&self, spec: &CampaignSpec) -> Result<(), QueueError> {
        if spec.weight == 0 {
            return Err(QueueError::InvalidConfig(format!(
                "campaign `{}` weight must be at least 1",
                spec.id
            )));
        }
        let mut inner = self.lock();
        match inner.campaigns.get_mut(&spec.id) {
            Some(state) => {
                state.weight = spec.weight;
                state.priority = spec.priority;
            }
            None => {
                inner.campaigns.insert(
                    spec.id.clone(),
                    CampaignState {
                        weight: spec.weight,
                        priority: spec.priority,
                        deficit: 0,
                        fifos: BTreeMap::new(),
                    },
                );
            }
        }
        Ok(())
    }

    /// Enqueues `job` under `campaign`.
    ///
    /// Jobs whose terminal record is already in the journal are skipped
    /// ([`Enqueued::AlreadyComplete`]); quarantined poison jobs stay
    /// quarantined ([`Enqueued::Poisoned`]). Jobs recovered from the
    /// journal in a non-terminal state re-attach their payload and keep
    /// their failure budget. A higher-priority enqueue may preempt a
    /// running lower-priority job.
    ///
    /// # Errors
    ///
    /// [`QueueError::UnknownCampaign`], [`QueueError::DuplicateJob`],
    /// [`QueueError::Saturated`], or a journal append failure.
    pub fn enqueue(&self, campaign: &str, job: Job) -> Result<Enqueued, QueueError> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let Some(spec) = inner.campaigns.get(campaign) else {
            return Err(QueueError::UnknownCampaign(campaign.to_string()));
        };
        let priority = spec.priority.saturating_add(job.priority);
        let id = job.id.clone();

        let needs_record = match inner.jobs.get(&id).map(|e| (e.state, e.payload.is_some())) {
            Some((State::Quarantined, _)) => return Ok(Enqueued::Poisoned),
            Some((State::Committed | State::Failed, _)) => {
                inner.stats.resumed += 1;
                return Ok(Enqueued::AlreadyComplete);
            }
            Some((State::Pending | State::Leased, true)) => {
                return Err(QueueError::DuplicateJob(id));
            }
            // A recovered entry: re-attach the payload, keep the failure
            // budget; the journal already knows this job.
            Some((State::Pending | State::Leased, false)) => false,
            None => true,
        };

        if inner.live >= self.cfg.capacity {
            return Err(QueueError::Saturated {
                depth: inner.live,
                capacity: self.cfg.capacity,
            });
        }

        if needs_record {
            self.append_record(inner, enqueued_record_body(&id, campaign, priority))?;
        }
        let now = Instant::now();
        let entry = inner
            .jobs
            .entry(id.clone())
            .or_insert_with(|| Entry::new(campaign.to_string(), priority));
        entry.state = State::Pending;
        entry.campaign = campaign.to_string();
        entry.priority = priority;
        entry.payload = Some(job);
        entry.enqueued_at = Some(now);
        inner.live += 1;
        inner
            .campaigns
            .get_mut(campaign)
            .expect("campaign checked above")
            .fifos
            .entry(priority)
            .or_default()
            .push_back(id);
        self.maybe_compact(inner);
        self.maybe_preempt(inner, priority);
        self.refresh_gauges(inner, now);
        self.work.notify_all();
        Ok(Enqueued::Accepted)
    }

    /// Takes back expired leases: each running job past its lease
    /// deadline is cancelled through its token and will be re-enqueued
    /// (unless it commits first — commit wins). Returns how many leases
    /// were marked. Called automatically by drain workers; exposed for
    /// services driving the queue directly (the campaign server wires it
    /// into a periodic tick). The cumulative reaped-lease count is
    /// published as the `queue_reaped_leases` gauge.
    pub fn reap_expired(&self) -> usize {
        let mut inner = self.lock();
        let reaped = self.reap_locked(&mut inner, Instant::now());
        hostobs::set_gauge(
            "queue_reaped_leases",
            i64::try_from(inner.stats.lease_expiries).unwrap_or(i64::MAX),
        );
        reaped
    }

    /// The live lease deadline (initially [`QueueConfig::lease`]).
    #[must_use]
    pub fn lease(&self) -> Duration {
        Duration::from_millis(self.lease_ms.load(Ordering::Relaxed))
    }

    /// Replaces the lease deadline for *future* leases; in-flight leases
    /// keep the deadline they were taken with. Services raise this when
    /// the observed run-time distribution says the configured deadline
    /// would reap healthy jobs.
    pub fn set_lease(&self, lease: Duration) {
        let ms = u64::try_from(lease.as_millis()).unwrap_or(u64::MAX);
        self.lease_ms.store(ms, Ordering::Relaxed);
    }

    /// Per-campaign enqueue-to-lease wait distributions (milliseconds),
    /// the data behind [`report::render_queue_waits`](crate::report).
    #[must_use]
    pub fn wait_hists(&self) -> BTreeMap<String, Log2Hist> {
        self.lock().waits.clone()
    }

    /// Per-campaign lease-to-commit run-time distributions (milliseconds).
    #[must_use]
    pub fn run_hists(&self) -> BTreeMap<String, Log2Hist> {
        self.lock().runs.clone()
    }

    /// A lease deadline suggestion derived from the run-time `Log2Hist`
    /// p99: four times the slowest campaign's p99 commit time, so retries
    /// and the degradation ladder fit inside one lease. `None` until at
    /// least one job has committed (no history to derive from).
    #[must_use]
    pub fn suggested_lease(&self) -> Option<Duration> {
        let inner = self.lock();
        let p99 = inner.runs.values().filter_map(Log2Hist::p99).max()?;
        Some(Duration::from_millis(p99.saturating_mul(4).max(1)))
    }

    /// Live (pending-with-payload + leased) jobs of one campaign, for
    /// per-campaign admission quotas layered over the global
    /// [`QueueConfig::capacity`].
    #[must_use]
    pub fn campaign_live(&self, campaign: &str) -> usize {
        let inner = self.lock();
        inner
            .jobs
            .values()
            .filter(|e| {
                e.campaign == campaign
                    && ((e.state == State::Pending && e.payload.is_some())
                        || e.state == State::Leased)
            })
            .count()
    }

    /// The terminal result records (id-sorted), without draining: what
    /// [`report::render`](crate::report::render) turns into the
    /// deterministic campaign report.
    #[must_use]
    pub fn merged_records(&self) -> BTreeMap<String, JobRecord> {
        records_of(&self.lock().jobs)
    }

    /// Aggregate queue state.
    #[must_use]
    pub fn stats(&self) -> QueueStats {
        let inner = self.lock();
        let mut stats = QueueStats {
            leased: inner.running.len(),
            pending: inner.live - inner.running.len(),
            ..QueueStats::default()
        };
        for entry in inner.jobs.values() {
            match entry.state {
                State::Committed => stats.committed += 1,
                State::Failed => stats.failed += 1,
                State::Quarantined => stats.quarantined += 1,
                State::Pending | State::Leased => {}
            }
        }
        stats
    }

    /// The current poison jobs, id-sorted (deterministic for reports).
    #[must_use]
    pub fn poison_jobs(&self) -> Vec<PoisonJob> {
        poison_of(&self.lock().jobs)
    }

    /// Drains the queue with the production runner. See
    /// [`JobQueue::drain_with`].
    ///
    /// # Errors
    ///
    /// See [`JobQueue::drain_with`].
    pub fn drain(&self) -> Result<DrainOutcome, QueueError> {
        self.drain_with(&DefaultRunner)
    }

    /// Runs a worker pool until every runnable job has a durable terminal
    /// state (or the stop token fires). Jobs enqueued concurrently with
    /// the drain are picked up; payload-less recovered entries wait for
    /// their re-enqueue and do not block completion.
    ///
    /// # Errors
    ///
    /// The first journal persist failure (the drain stops rather
    /// than silently losing resume coverage), or
    /// [`QueueError::InvalidConfig`] for a concurrent drain.
    pub fn drain_with(&self, runner: &dyn JobRunner) -> Result<DrainOutcome, QueueError> {
        let workers = {
            let mut inner = self.lock();
            if inner.drain_active {
                return Err(QueueError::InvalidConfig(
                    "a drain is already active on this queue".into(),
                ));
            }
            inner.drain_active = true;
            if self.cfg.workers == 0 {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            } else {
                self.cfg.workers
            }
        };
        let total = {
            let inner = self.lock();
            inner.live + inner.stats.executed
        };
        let telemetry = Arc::new(Telemetry::with_queue(total, Arc::clone(&self.gauges)));
        let heartbeat = self
            .cfg
            .telemetry
            .enabled
            .then(|| Heartbeat::spawn(Arc::clone(&telemetry), self.cfg.telemetry.heartbeat));
        let watchdog = Watchdog::spawn(self.cancel.clone());

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| self.worker_loop(&watchdog, &telemetry, runner));
            }
        });

        if let Some(heartbeat) = heartbeat {
            heartbeat.stop();
        }
        drop(watchdog);

        let mut inner = self.lock();
        inner.drain_active = false;
        if let Some(error) = inner.persist_error.take() {
            return Err(error.into());
        }
        Ok(DrainOutcome {
            records: records_of(&inner.jobs),
            poison: poison_of(&inner.jobs),
            resumed: inner.stats.resumed,
            executed: inner.stats.executed,
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            preempted: inner.stats.preempted,
            lease_expiries: inner.stats.lease_expiries,
            re_leased: self.recovery.re_leased,
            cancelled: self.cancel.is_cancelled(),
            quarantines: self.recovery.quarantines.clone(),
            waits: inner.waits.clone(),
        })
    }

    // ------------------------------------------------------------------
    // Worker internals.
    // ------------------------------------------------------------------

    fn worker_loop(&self, watchdog: &Watchdog, telemetry: &Telemetry, runner: &dyn JobRunner) {
        let ctx = RunContext {
            executor: Executor {
                retry: self.cfg.retry,
                default_timeout: self.cfg.default_timeout,
                stop: self.cancel.clone(),
                watchdog,
                telemetry,
            },
        };
        loop {
            let Some(Leased {
                id,
                job,
                token,
                waited,
            }) = self.next_job()
            else {
                return;
            };
            let leased_at = Instant::now();
            telemetry.job_started();
            let probe = campaign::probe_cache(self.cache.as_ref(), &job, &self.cfg.retry);
            let (record, key, hit) = match probe {
                Probe::Hit(record) => (Some(cache::rekey(*record, &job.id)), None, true),
                Probe::Miss(key) => {
                    if key.is_some() {
                        self.cache_misses.fetch_add(1, Ordering::Relaxed);
                    }
                    match catch_unwind(AssertUnwindSafe(|| runner.run(&ctx, &job, &token))) {
                        Ok(record) => (record, key, false),
                        Err(payload) => {
                            // A panic that escaped the runner itself:
                            // queue-level containment. Charge a lease
                            // failure and keep draining.
                            let message = campaign::panic_message(payload.as_ref());
                            telemetry.job_abandoned();
                            self.finish_failure(&id, &format!("panic: {message}"));
                            continue;
                        }
                    }
                }
            };
            match record {
                Some(mut record) => {
                    if hit {
                        self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    } else {
                        // Cache before commit: committed ⇒ cached.
                        campaign::store_cache(&self.cfg.io, self.cache.as_ref(), key, &record);
                    }
                    // Timing and the CPI stack ride the record only under
                    // telemetry: records written without it stay
                    // byte-stable.
                    if self.cfg.telemetry.enabled {
                        record.timing = Some(JobTiming {
                            queue_wait_ms: millis(waited),
                            run_ms: millis(leased_at.elapsed()),
                            sim_wall_ms: record.sim.as_ref().map_or(0, |s| millis(s.wall_time)),
                        });
                        record.cpi = record.sim.as_ref().map(|s| s.cpi);
                    }
                    if !self.finish_commit(&id, record, telemetry) {
                        return;
                    }
                }
                None => {
                    telemetry.job_abandoned();
                    self.finish_takeback(&id);
                }
            }
        }
    }

    /// Blocks until a job is leased, the queue is drained, or the service
    /// stops. Returns `None` when the worker should exit.
    fn next_job(&self) -> Option<Leased> {
        let mut inner = self.lock();
        loop {
            if self.cancel.is_cancelled() {
                self.work.notify_all();
                return None;
            }
            self.reap_locked(&mut inner, Instant::now());
            if let Some(picked) = self.pick_locked(&mut inner) {
                return Some(picked);
            }
            if inner.running.is_empty() {
                // Nothing runnable and nothing in flight that could
                // re-enqueue: the drain is complete.
                self.work.notify_all();
                return None;
            }
            inner.idle_workers += 1;
            let (guard, _) = self
                .work
                .wait_timeout(inner, Duration::from_millis(5))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            inner = guard;
            inner.idle_workers -= 1;
        }
    }

    /// Picks the next job under the scheduling policy and leases it.
    ///
    /// Strict priority first: only the highest effective priority with a
    /// runnable job anywhere is eligible. Within it, deficit round-robin
    /// across campaigns: a campaign spends one deficit unit per job and
    /// refills by its weight when empty, so throughput over time is
    /// proportional to weights. Ties break by campaign id (BTreeMap
    /// order), then enqueue order (FIFO) — fully deterministic for a
    /// given pick sequence.
    fn pick_locked(&self, inner: &mut Inner) -> Option<Leased> {
        // Drop stale FIFO heads (committed elsewhere, re-prioritized)
        // and find the top runnable priority.
        let mut top: Option<i32> = None;
        let campaign_ids: Vec<String> = inner.campaigns.keys().cloned().collect();
        for cid in &campaign_ids {
            let state = inner.campaigns.get_mut(cid).expect("iterating known ids");
            let mut empty_prios = Vec::new();
            for (&prio, fifo) in state.fifos.iter_mut().rev() {
                while let Some(head) = fifo.front() {
                    let runnable = inner.jobs.get(head).is_some_and(|e| {
                        e.state == State::Pending && e.payload.is_some() && e.priority == prio
                    });
                    if runnable {
                        break;
                    }
                    fifo.pop_front();
                }
                if fifo.is_empty() {
                    empty_prios.push(prio);
                } else {
                    top = Some(top.map_or(prio, |t: i32| t.max(prio)));
                    break; // highest non-empty priority of this campaign
                }
            }
            for prio in empty_prios {
                state.fifos.remove(&prio);
            }
        }
        let top = top?;

        let cands: Vec<String> = campaign_ids
            .iter()
            .filter(|cid| {
                inner.campaigns[cid.as_str()]
                    .fifos
                    .get(&top)
                    .is_some_and(|f| !f.is_empty())
            })
            .cloned()
            .collect();
        debug_assert!(!cands.is_empty());
        let start = match &inner.rr_cursor {
            Some(cursor) => cands.iter().position(|c| c >= cursor).unwrap_or(0),
            None => 0,
        };
        // Deficit round-robin: visiting a drained campaign grants its
        // quantum and moves on; at most two passes always serve someone.
        for k in 0..=(2 * cands.len()) {
            let cid = &cands[(start + k) % cands.len()];
            let state = inner.campaigns.get_mut(cid).expect("candidate exists");
            if state.deficit == 0 {
                state.deficit = state.weight;
                hostobs::inc("queue_drr_rounds_total");
                continue;
            }
            state.deficit -= 1;
            let fifo = state.fifos.get_mut(&top).expect("candidate has jobs");
            let id = fifo.pop_front().expect("candidate fifo non-empty");
            if fifo.is_empty() {
                state.fifos.remove(&top);
                state.deficit = 0;
            }
            inner.rr_cursor = if state.deficit > 0 {
                Some(cid.clone())
            } else {
                cands
                    .get((start + k + 1) % cands.len())
                    .cloned()
                    .or_else(|| Some(cid.clone()))
            };
            return self.lease_locked(inner, &id);
        }
        None
    }

    /// Leases `id`: durable `Leased` record, running-set entry, wait
    /// histogram update. Reverts to pending if the journal append fails.
    fn lease_locked(&self, inner: &mut Inner, id: &str) -> Option<Leased> {
        let now = Instant::now();
        if let Err(error) = self.append_record(inner, leased_record_body(id)) {
            if let QueueError::Journal(e) = error {
                inner.persist_error.get_or_insert(e);
            }
            self.cancel.cancel();
            return None;
        }
        let lease = self.lease();
        let entry = inner.jobs.get_mut(id).expect("leasing a known job");
        entry.state = State::Leased;
        let job = entry.payload.clone().expect("leasing requires a payload");
        let campaign = entry.campaign.clone();
        let priority = entry.priority;
        hostobs::inc("queue_leases_total");
        let waited = entry
            .enqueued_at
            .map_or(Duration::ZERO, |at| now.duration_since(at));
        if entry.enqueued_at.is_some() {
            let wait_ms = millis(waited);
            inner
                .waits
                .entry(campaign.clone())
                .or_default()
                .record(wait_ms);
            hostobs::observe("queue_lease_wait_ms", wait_ms);
        }
        let token = CancelToken::new();
        inner.running.insert(
            id.to_string(),
            Running {
                token: token.clone(),
                campaign,
                priority,
                leased_at: now,
                deadline: now.checked_add(lease),
                takeback: None,
            },
        );
        self.maybe_compact(inner);
        self.refresh_gauges(inner, now);
        Some(Leased {
            id: id.to_string(),
            job,
            token,
            waited,
        })
    }

    /// Marks expired leases for take-back (cancelling their tokens).
    fn reap_locked(&self, inner: &mut Inner, now: Instant) -> usize {
        let mut reaped = 0;
        for running in inner.running.values_mut() {
            if running.takeback.is_none() && running.deadline.is_some_and(|d| now >= d) {
                running.takeback = Some(Takeback::Expired);
                running.token.cancel();
                reaped += 1;
            }
        }
        inner.stats.lease_expiries += reaped;
        reaped
    }

    /// Preempts the lowest-priority running job strictly below
    /// `priority`, when no worker is idle to pick the new job up.
    fn maybe_preempt(&self, inner: &mut Inner, priority: i32) {
        if !inner.drain_active || inner.idle_workers > 0 {
            return;
        }
        let victim = inner
            .running
            .iter()
            .filter(|(_, r)| r.takeback.is_none() && r.priority < priority)
            .min_by(|(ida, a), (idb, b)| {
                (a.priority, &a.campaign, *ida).cmp(&(b.priority, &b.campaign, *idb))
            })
            .map(|(id, _)| id.clone());
        if let Some(id) = victim {
            let running = inner.running.get_mut(&id).expect("victim is running");
            running.takeback = Some(Takeback::Preempted);
            running.token.cancel();
            inner.stats.preempted += 1;
        }
    }

    /// Commits a terminal record: one `Committed` (or `Failed`) journal
    /// append carrying the result (the cache write already happened).
    /// Returns `false` when a persist failure should stop the worker.
    fn finish_commit(&self, id: &str, record: JobRecord, telemetry: &Telemetry) -> bool {
        let failed = record.status == JobStatus::Failed;
        let mut inner = self.lock();
        if let Some(running) = inner.running.remove(id) {
            if running.takeback == Some(Takeback::Expired) {
                // The commit-wins race: the lease expired but the record
                // arrived first. The take-back never took effect, so it
                // is not counted as an expiry.
                inner.stats.lease_expiries -= 1;
            }
            // Lease-to-commit run time: the distribution a service derives
            // its suggested lease deadline from.
            let run_ms = millis(running.leased_at.elapsed());
            inner
                .runs
                .entry(running.campaign.clone())
                .or_default()
                .record(run_ms);
            hostobs::observe("queue_job_run_ms", run_ms);
        }
        if inner.jobs[id].state.is_terminal() {
            // A commit racing a take-back that already resolved: the
            // journal holds this job's terminal record; nothing to redo.
            telemetry.job_finished(&record);
            self.work.notify_all();
            return true;
        }
        let error = failed.then(|| last_attempt_error(&record));
        let body = terminal_record_body(id, &record, error.as_deref());
        if let Err(error) = self.append_record(&mut inner, body) {
            if let QueueError::Journal(e) = error {
                inner.persist_error.get_or_insert(e);
            }
            self.cancel.cancel();
            self.work.notify_all();
            return false;
        }
        let entry = inner.jobs.get_mut(id).expect("committing a known job");
        entry.state = if failed {
            State::Failed
        } else {
            State::Committed
        };
        entry.error = error;
        telemetry.job_finished(&record);
        entry.record = Some(record);
        entry.payload = None;
        entry.enqueued_at = None;
        inner.live -= 1;
        inner.stats.executed += 1;
        self.maybe_compact(&mut inner);
        self.refresh_gauges(&mut inner, Instant::now());
        self.work.notify_all();
        true
    }

    /// Resolves a job whose runner returned `None`: preempted, lease
    /// expired, or service stop.
    fn finish_takeback(&self, id: &str) {
        let mut inner = self.lock();
        let Some(running) = inner.running.remove(id) else {
            return;
        };
        match running.takeback {
            Some(Takeback::Preempted) => {
                // Never failed, never a burned attempt: straight back to
                // the front of its FIFO.
                if self
                    .append_record(&mut inner, preempted_record_body(id))
                    .is_err()
                {
                    self.cancel.cancel();
                }
                self.requeue_front(&mut inner, id);
                self.maybe_compact(&mut inner);
            }
            Some(Takeback::Expired) => {
                self.charge_failure(&mut inner, id, "lease expired");
            }
            None => {
                if self.cancel.is_cancelled() {
                    // Service stop: leave the journaled lease dangling —
                    // the next open reclaims it exactly like a crash.
                    // In-memory the job goes back to pending so a
                    // fresh drain in this process could still run it.
                    self.requeue_front(&mut inner, id);
                } else {
                    // A runner returned None with no take-back: treat as
                    // a lease failure so a buggy runner cannot livelock
                    // the queue.
                    self.charge_failure(&mut inner, id, "runner returned no record");
                }
            }
        }
        self.refresh_gauges(&mut inner, Instant::now());
        self.work.notify_all();
    }

    /// Queue-level failure (escaped panic) on a leased job.
    fn finish_failure(&self, id: &str, error: &str) {
        let mut inner = self.lock();
        inner.running.remove(id);
        self.charge_failure(&mut inner, id, error);
        self.refresh_gauges(&mut inner, Instant::now());
        self.work.notify_all();
    }

    /// Charges a lease-level failure; quarantines at the budget.
    fn charge_failure(&self, inner: &mut Inner, id: &str, error: &str) {
        let entry = inner.jobs.get_mut(id).expect("failing a known job");
        if entry.state.is_terminal() {
            return; // commit already won
        }
        entry.charge(error);
        if entry.failures >= self.cfg.max_lease_failures {
            entry.state = State::Quarantined;
            entry.payload = None;
            entry.enqueued_at = None;
            let body = quarantined_record_body(id, entry);
            inner.live -= 1;
            if self.append_record(inner, body).is_err() {
                self.cancel.cancel();
            } else {
                self.maybe_compact(inner);
            }
        } else {
            self.requeue_front(inner, id);
        }
    }

    /// Puts a taken-back job at the front of its campaign FIFO (it was
    /// the oldest: FIFO order is preserved across take-backs).
    fn requeue_front(&self, inner: &mut Inner, id: &str) {
        let entry = inner.jobs.get_mut(id).expect("requeueing a known job");
        entry.state = State::Pending;
        let campaign = entry.campaign.clone();
        let priority = entry.priority;
        if let Some(state) = inner.campaigns.get_mut(&campaign) {
            state
                .fifos
                .entry(priority)
                .or_default()
                .push_front(id.to_string());
        }
    }

    /// Appends one sealed record to the journal — the journal writer, and
    /// the one place an in-memory queue skips persistence. Compaction is
    /// NOT triggered here: the caller appends first, applies the matching
    /// in-memory transition, and only then calls
    /// [`JobQueue::maybe_compact`] — otherwise a compaction fired
    /// mid-transition would snapshot the *pre*-transition state while
    /// truncating the journal record that carried the transition,
    /// durably losing it.
    fn append_record(
        &self,
        inner: &mut Inner,
        body: Vec<(String, Value)>,
    ) -> Result<(), QueueError> {
        let Some(log) = &self.log else {
            return Ok(());
        };
        let text = sealed_record(inner.gen, body);
        hostobs::inc("queue_journal_appends_total");
        hostobs::scope(Phase::QueueJournal, || {
            self.cfg
                .io
                .with(|io| io.append(&log.journal, text.as_bytes()))
        })
        .map_err(|e| ManifestError::Io(format!("appending to {}: {e}", log.journal.display())))?;
        inner.records_since_compact += 1;
        Ok(())
    }

    /// Compacts when the journal has grown past the threshold. Must only
    /// be called when the in-memory state table fully reflects every
    /// appended record (see [`JobQueue::append_record`]). A compaction
    /// failure is a persist failure: the drain is stopped rather than
    /// risking resume coverage.
    fn maybe_compact(&self, inner: &mut Inner) {
        if inner.records_since_compact < self.cfg.compact_every {
            return;
        }
        if let Err(QueueError::Journal(e)) = self.compact_locked(inner) {
            inner.persist_error.get_or_insert(e);
            self.cancel.cancel();
        }
    }

    /// Folds the state table, results included, into a fresh snapshot and
    /// truncates the journal. Generation-stamped so a crash between the
    /// two steps replays nothing twice.
    fn compact_locked(&self, inner: &mut Inner) -> Result<(), QueueError> {
        let Some(log) = &self.log else {
            return Ok(());
        };
        hostobs::inc("queue_compactions_total");
        hostobs::timed(Phase::QueueJournal, "queue_compaction_ns", || {
            let gen = inner.gen + 1;
            let body: String = inner
                .jobs
                .iter()
                .flat_map(|(id, entry)| compacted_records(id, entry))
                .map(|fields| sealed_record(gen, fields))
                .collect();
            self.cfg
                .io
                .with(|io| manifest::save_sealed_with(io, &log.snapshot, &body))?;
            // Installed: the new generation is durable.
            inner.gen = gen;
            truncate_journal(&self.cfg.io, &log.journal, 0)?;
            inner.records_since_compact = 0;
            Ok(())
        })
    }

    fn refresh_gauges(&self, inner: &mut Inner, now: Instant) {
        let leased = inner.running.len();
        let depth = inner.live.saturating_sub(leased);
        let oldest_lease = inner
            .running
            .values()
            .map(|r| now.saturating_duration_since(r.leased_at))
            .max();
        // The oldest pending job per campaign sits at its FIFO head.
        let longest_wait = inner
            .campaigns
            .values()
            .flat_map(|c| c.fifos.values())
            .filter_map(|fifo| fifo.front())
            .filter_map(|id| inner.jobs.get(id).and_then(|e| e.enqueued_at))
            .map(|at| now.saturating_duration_since(at))
            .max();
        self.gauges.set(depth, leased, oldest_lease, longest_wait);
        hostobs::set_gauge("queue_depth", i64::try_from(depth).unwrap_or(i64::MAX));
        hostobs::set_gauge("queue_leased", i64::try_from(leased).unwrap_or(i64::MAX));
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

// ----------------------------------------------------------------------
// Journal record encoding and replay.
// ----------------------------------------------------------------------

/// One decoded journal record.
#[derive(Debug)]
struct Record {
    gen: u64,
    kind: Kind,
    job: String,
    campaign: String,
    priority: i32,
    failures: u32,
    error: Option<String>,
    /// The job's result, carried by `Committed` and `Failed` records.
    result: Option<JobRecord>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Enqueued,
    Leased,
    Committed,
    Failed,
    Preempted,
    Quarantined,
}

impl Kind {
    fn from_label(label: &str) -> Option<Kind> {
        Some(match label {
            "enqueued" => Kind::Enqueued,
            "leased" => Kind::Leased,
            "committed" => Kind::Committed,
            "failed" => Kind::Failed,
            "preempted" => Kind::Preempted,
            "quarantined" => Kind::Quarantined,
            _ => return None,
        })
    }
}

fn sealed_record(gen: u64, fields: Vec<(String, Value)>) -> String {
    let mut obj = vec![("gen".to_string(), Value::Int(gen as i64))];
    obj.extend(fields);
    manifest::seal(&Value::Obj(obj).to_json())
}

fn enqueued_record_body(id: &str, campaign: &str, priority: i32) -> Vec<(String, Value)> {
    vec![
        ("record".into(), Value::Str("enqueued".into())),
        ("job".into(), Value::Str(id.into())),
        ("campaign".into(), Value::Str(campaign.into())),
        ("priority".into(), Value::Int(i64::from(priority))),
    ]
}

fn leased_record_body(id: &str) -> Vec<(String, Value)> {
    vec![
        ("record".into(), Value::Str("leased".into())),
        ("job".into(), Value::Str(id.into())),
    ]
}

/// A `Committed` record, or a `Failed` one when `error` is set; either
/// carries the job's result.
fn terminal_record_body(id: &str, record: &JobRecord, error: Option<&str>) -> Vec<(String, Value)> {
    let kind = if error.is_some() {
        "failed"
    } else {
        "committed"
    };
    let mut body = vec![
        ("record".into(), Value::Str(kind.into())),
        ("job".into(), Value::Str(id.into())),
    ];
    if let Some(error) = error {
        body.push(("error".into(), Value::Str(error.into())));
    }
    body.push(("result".into(), record.to_value()));
    body
}

fn preempted_record_body(id: &str) -> Vec<(String, Value)> {
    vec![
        ("record".into(), Value::Str("preempted".into())),
        ("job".into(), Value::Str(id.into())),
    ]
}

fn quarantined_record_body(id: &str, entry: &Entry) -> Vec<(String, Value)> {
    vec![
        ("record".into(), Value::Str("quarantined".into())),
        ("job".into(), Value::Str(id.into())),
        ("failures".into(), Value::Int(i64::from(entry.failures))),
        (
            "error".into(),
            Value::Str(entry.error.clone().unwrap_or_else(|| LEASE_LOST.into())),
        ),
    ]
}

/// Folds the snapshot and the journal into the state table, repairing a
/// torn tail and quarantining damage (see the [module docs](self)).
/// Returns the generation to continue from and the replayed entries.
fn replay(
    cfg: &QueueConfig,
    log: &Log,
    recovery: &mut Recovery,
) -> Result<(u64, BTreeMap<String, Entry>), QueueError> {
    // 1. The snapshot: the log compacted to the records that rebuild the
    // state table, results included. A damaged snapshot is quarantined
    // and replay proceeds from the journal alone.
    let snapshot = manifest::read_sealed(&log.snapshot)
        .and_then(|body| body.as_deref().map(parse_snapshot).transpose());
    let records = match snapshot {
        Ok(records) => records.unwrap_or_default(),
        Err(error) if error.is_corruption() => {
            recovery
                .quarantines
                .push(manifest::quarantine_file(&log.snapshot, error)?);
            Vec::new()
        }
        Err(io) => return Err(io.into()),
    };
    let base = records.iter().map(|r| r.gen).max().unwrap_or(0);
    let mut jobs = BTreeMap::new();
    for record in records {
        apply(&mut jobs, record);
    }

    // 2. The journal, record by record on top of the snapshot. Only
    // records of the snapshot's generation or later apply — older ones
    // are already folded in (a crash between snapshot install and journal
    // truncation leaves them behind; the stamp makes replay idempotent).
    let bytes = match std::fs::read(&log.journal) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => {
            return Err(ManifestError::Io(format!("reading {}: {e}", log.journal.display())).into())
        }
    };
    // Bytes that are not UTF-8 end the readable text: an incomplete
    // character at the very end is a torn append, anything else damage.
    let (text, unreadable) = match std::str::from_utf8(&bytes) {
        Ok(text) => (text, None),
        Err(e) => (
            std::str::from_utf8(&bytes[..e.valid_up_to()]).expect("valid prefix"),
            Some(e),
        ),
    };
    let mut parsed = parse_journal(text);
    if let (Some(e), None) = (unreadable, &parsed.damage) {
        if e.error_len().is_some() {
            parsed.damage = Some(ManifestError::Malformed(format!(
                "invalid UTF-8 at byte {}",
                e.valid_up_to()
            )));
        } else {
            parsed.torn = true;
        }
    }
    let mut gen = base;
    for record in parsed.records {
        if record.gen >= base {
            gen = gen.max(record.gen);
            apply(&mut jobs, record);
        }
    }
    if let Some(error) = parsed.damage {
        // Everything sealed before the damage is already replayed; the
        // file goes aside as evidence and the caller compacts.
        recovery.quarantines.push(manifest::quarantine_file(
            &log.journal,
            error.with_context("queue journal"),
        )?);
    } else if parsed.torn {
        // Cut back to the last sealed record so future appends never
        // interleave with the torn garbage.
        truncate_journal(&cfg.io, &log.journal, parsed.valid_len as u64)?;
        recovery.torn_tail_dropped = true;
    }
    Ok((gen, jobs))
}

/// Cuts the journal to `len` bytes in place. A missing journal (never
/// written, or just quarantined) is already empty.
fn truncate_journal(io: &SharedIo, journal: &Path, len: u64) -> Result<(), ManifestError> {
    match io.with(|io| io.truncate(journal, len)) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(ManifestError::Io(format!(
            "truncating {}: {e}",
            journal.display()
        ))),
        _ => Ok(()),
    }
}

/// What [`parse_journal`] recovered from the journal text.
#[derive(Debug)]
struct Parsed {
    /// Every sealed record before the first damage, in order.
    records: Vec<Record>,
    /// Byte length of the sealed prefix those records span.
    valid_len: usize,
    /// Whether a half-written final record follows the prefix.
    torn: bool,
    /// Damage before the final record: corruption, not a torn append.
    damage: Option<ManifestError>,
}

/// Splits the journal into individually sealed records.
///
/// A record is the byte span up to and including a checksum trailer
/// line. The final span may be damaged in any way — that is the torn tail
/// a crash mid-append leaves — and is dropped. Damage *before* the final
/// span is corruption: parsing stops there, keeping the records before
/// it.
fn parse_journal(text: &str) -> Parsed {
    let mut parsed = Parsed {
        records: Vec::new(),
        valid_len: 0,
        torn: false,
        damage: None,
    };
    let mut pos = 0usize;
    for line in text.split_inclusive('\n') {
        pos += line.len();
        if line.starts_with(manifest::CHECKSUM_PREFIX) && line.ends_with('\n') {
            match decode_record(&text[parsed.valid_len..pos]) {
                Ok(record) => {
                    parsed.records.push(record);
                    parsed.valid_len = pos;
                }
                Err(_) if pos == text.len() => {
                    parsed.torn = true;
                    return parsed;
                }
                Err(error) => {
                    parsed.damage = Some(error);
                    return parsed;
                }
            }
        }
    }
    parsed.torn = parsed.valid_len < text.len();
    parsed
}

fn decode_record(chunk: &str) -> Result<Record, ManifestError> {
    let body = manifest::unseal(chunk)?;
    let doc = parse(body).map_err(ManifestError::Malformed)?;
    let kind = doc
        .get("record")
        .and_then(Value::as_str)
        .and_then(Kind::from_label)
        .ok_or_else(|| ManifestError::Malformed("record kind missing or unknown".into()))?;
    let job = doc
        .get("job")
        .and_then(Value::as_str)
        .ok_or_else(|| ManifestError::Malformed("record missing job id".into()))?;
    let gen = doc
        .get("gen")
        .and_then(Value::as_int)
        .and_then(|g| u64::try_from(g).ok())
        .ok_or_else(|| ManifestError::Malformed("record missing generation".into()))?;
    let result = match kind {
        Kind::Committed | Kind::Failed => Some(
            doc.get("result")
                .and_then(JobRecord::from_value)
                .ok_or_else(|| ManifestError::Malformed("terminal record missing result".into()))?,
        ),
        _ => None,
    };
    Ok(Record {
        gen,
        kind,
        job: job.to_string(),
        campaign: doc
            .get("campaign")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string(),
        priority: doc
            .get("priority")
            .and_then(Value::as_int)
            .and_then(|p| i32::try_from(p).ok())
            .unwrap_or(0),
        failures: doc
            .get("failures")
            .and_then(Value::as_int)
            .and_then(|f| u32::try_from(f).ok())
            .unwrap_or(0),
        error: doc.get("error").and_then(Value::as_str).map(str::to_string),
        result,
    })
}

/// Folds one record into the replayed state table. Terminal states are
/// final, so replaying a stale journal suffix over a newer snapshot
/// (possible when a crash lands between snapshot install and journal
/// truncation) is harmless even before the generation filter.
fn apply(jobs: &mut BTreeMap<String, Entry>, record: Record) {
    let entry = match record.kind {
        Kind::Leased | Kind::Preempted => match jobs.get_mut(&record.job) {
            Some(entry) => entry,
            None => return,
        },
        _ => jobs
            .entry(record.job)
            .or_insert_with(|| Entry::new(record.campaign.clone(), record.priority)),
    };
    if entry.state.is_terminal() {
        return;
    }
    match record.kind {
        Kind::Enqueued => {
            entry.campaign = record.campaign;
            entry.priority = record.priority;
            // Zero and none in live records (a job is journaled
            // `enqueued` once); a compacted one carries its lease-failure
            // budget.
            entry.failures = record.failures;
            entry.error = record.error;
            entry.state = State::Pending;
        }
        Kind::Leased => match entry.state {
            State::Pending => entry.state = State::Leased,
            // A second lease without an intervening terminal or pending
            // transition: the first lease was lost.
            State::Leased => entry.charge(LEASE_LOST),
            _ => {}
        },
        Kind::Preempted => {
            if entry.state == State::Leased {
                entry.state = State::Pending;
            }
        }
        Kind::Committed | Kind::Failed => {
            entry.state = if record.kind == Kind::Committed {
                State::Committed
            } else {
                State::Failed
            };
            entry.error = record.error;
            entry.record = record.result;
        }
        Kind::Quarantined => {
            entry.state = State::Quarantined;
            entry.failures = record.failures;
            entry.error = record.error;
        }
    }
}

/// The records that rebuild `entry` when replayed onto an empty table:
/// a snapshot is the log compacted to one record per job (two for a
/// leased one), each carrying every field its state needs.
fn compacted_records(id: &str, entry: &Entry) -> Vec<Vec<(String, Value)>> {
    let kind = match entry.state {
        State::Pending | State::Leased => "enqueued",
        State::Committed => "committed",
        State::Failed => "failed",
        State::Quarantined => "quarantined",
    };
    let mut fields = vec![
        ("record".into(), Value::Str(kind.into())),
        ("job".into(), Value::Str(id.into())),
        ("campaign".into(), Value::Str(entry.campaign.clone())),
        ("priority".into(), Value::Int(i64::from(entry.priority))),
        ("failures".into(), Value::Int(i64::from(entry.failures))),
    ];
    if let Some(error) = &entry.error {
        fields.push(("error".into(), Value::Str(error.clone())));
    }
    if let Some(record) = &entry.record {
        fields.push(("result".into(), record.to_value()));
    }
    let mut records = vec![fields];
    if entry.state == State::Leased {
        records.push(leased_record_body(id));
    }
    records
}

/// Splits a verified snapshot body into its records. It was installed
/// atomically and sealed as a whole, so anything but a clean run of
/// records is damage.
fn parse_snapshot(body: &str) -> Result<Vec<Record>, ManifestError> {
    let parsed = parse_journal(body);
    match parsed.damage {
        Some(error) => Err(error.with_context("queue snapshot")),
        None if parsed.torn => Err(ManifestError::Malformed(
            "queue snapshot: trailing partial record".into(),
        )),
        None => Ok(parsed.records),
    }
}

/// The terminal result of every job that has one, id-sorted.
fn records_of(jobs: &BTreeMap<String, Entry>) -> BTreeMap<String, JobRecord> {
    jobs.iter()
        .filter_map(|(id, entry)| Some((id.clone(), entry.record.clone()?)))
        .collect()
}

fn millis(d: Duration) -> u64 {
    u64::try_from(d.as_millis()).unwrap_or(u64::MAX)
}

fn poison_of(jobs: &BTreeMap<String, Entry>) -> Vec<PoisonJob> {
    jobs.iter()
        .filter(|(_, e)| e.state == State::Quarantined)
        .map(|(id, e)| PoisonJob {
            id: id.clone(),
            campaign: e.campaign.clone(),
            failures: e.failures,
            error: e.error.clone().unwrap_or_else(|| LEASE_LOST.into()),
        })
        .collect()
}

/// A human-readable cause for a `Failed` journal record, from the last
/// recorded attempt.
fn last_attempt_error(record: &JobRecord) -> String {
    match record.attempts.last().map(|a| &a.outcome) {
        Some(AttemptOutcome::Fault(m)) => m.clone(),
        Some(AttemptOutcome::Panic(m)) => format!("panic: {m}"),
        Some(AttemptOutcome::DeadlineExceeded) => SimError::DeadlineExceeded.to_string(),
        Some(AttemptOutcome::Cancelled) => SimError::Cancelled.to_string(),
        Some(AttemptOutcome::Success) | None => "failed".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSummary;
    use ffsim_core::WrongPathMode;

    fn result(id: &str) -> JobRecord {
        JobRecord {
            id: id.into(),
            requested_mode: WrongPathMode::NoWrongPath,
            final_mode: WrongPathMode::NoWrongPath,
            status: JobStatus::Completed,
            attempts: vec![],
            summary: Some(JobSummary {
                instructions: 1,
                cycles: 2,
                wrong_path_instructions: 0,
                state_digest: 7,
            }),
            timing: None,
            cpi: None,
            cached: false,
            sim: None,
        }
    }

    fn json(record: &Option<JobRecord>) -> Option<String> {
        record.as_ref().map(|r| r.to_value().to_json())
    }

    fn entry(campaign: &str, state: State) -> Entry {
        let mut e = Entry::new(campaign.into(), 0);
        e.state = state;
        e
    }

    #[test]
    fn worker_count_boundaries_are_invalid_config() {
        assert!(validate_worker_count(0).is_ok(), "0 means one per CPU");
        assert!(validate_worker_count(MAX_WORKERS).is_ok());
        assert!(matches!(
            validate_worker_count(MAX_WORKERS + 1),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn journal_records_round_trip_and_carry_results() {
        let text = format!(
            "{}{}{}",
            sealed_record(0, enqueued_record_body("a/x", "a", 3)),
            sealed_record(0, leased_record_body("a/x")),
            sealed_record(1, terminal_record_body("a/x", &result("a/x"), None)),
        );
        let parsed = parse_journal(&text);
        assert_eq!(parsed.records.len(), 3);
        assert!(!parsed.torn);
        assert!(parsed.damage.is_none());
        assert_eq!(parsed.valid_len, text.len());
        assert_eq!(parsed.records[0].kind, Kind::Enqueued);
        assert_eq!(parsed.records[0].campaign, "a");
        assert_eq!(parsed.records[0].priority, 3);
        assert_eq!(parsed.records[2].gen, 1);
        assert_eq!(parsed.records[2].kind, Kind::Committed);
        assert_eq!(json(&parsed.records[2].result), json(&Some(result("a/x"))));
    }

    #[test]
    fn terminal_record_without_a_result_is_malformed() {
        let text = sealed_record(
            0,
            vec![
                ("record".into(), Value::Str("committed".into())),
                ("job".into(), Value::Str("a/x".into())),
            ],
        );
        let err = decode_record(&text).expect_err("a result-less commit must not replay");
        assert!(matches!(err, ManifestError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn torn_tail_at_every_byte_offset_is_dropped_not_an_error() {
        let first = sealed_record(0, enqueued_record_body("a/x", "a", 0));
        let full = format!(
            "{first}{}",
            sealed_record(0, terminal_record_body("a/x", &result("a/x"), None)),
        );
        for cut in 0..full.len() {
            let parsed = parse_journal(&full[..cut]);
            assert!(
                parsed.damage.is_none(),
                "cut at {cut}: a torn tail is no damage"
            );
            if cut < first.len() {
                assert_eq!(parsed.records.len(), 0, "cut at {cut}");
                assert_eq!(parsed.valid_len, 0);
                assert_eq!(parsed.torn, cut > 0, "cut at {cut}");
            } else {
                assert_eq!(parsed.records.len(), 1, "cut at {cut}");
                assert_eq!(parsed.valid_len, first.len());
                assert_eq!(parsed.torn, cut > first.len(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn mid_journal_damage_keeps_the_sealed_prefix() {
        let first = sealed_record(0, enqueued_record_body("a/x", "a", 0));
        let full = format!(
            "{first}{}{}",
            sealed_record(0, leased_record_body("a/x")),
            sealed_record(0, terminal_record_body("a/x", &result("a/x"), None)),
        );
        // Flip a byte inside the *second* record's body.
        let damaged = format!(
            "{first}{}",
            full[first.len()..].replacen("leased", "leasee", 1)
        );
        assert_ne!(damaged, full);
        let parsed = parse_journal(&damaged);
        assert!(
            matches!(parsed.damage, Some(ManifestError::ChecksumMismatch(_))),
            "{:?}",
            parsed.damage
        );
        assert_eq!(
            parsed.records.len(),
            1,
            "the record before the damage survives"
        );
        assert_eq!(parsed.valid_len, first.len());
    }

    #[test]
    fn replay_counts_repeated_lease_losses() {
        let mut jobs = BTreeMap::new();
        apply(&mut jobs, rec(Kind::Enqueued, "j"));
        apply(&mut jobs, rec(Kind::Leased, "j"));
        apply(&mut jobs, rec(Kind::Leased, "j"));
        apply(&mut jobs, rec(Kind::Leased, "j"));
        let e = &jobs["j"];
        assert_eq!(e.state, State::Leased);
        assert_eq!(e.failures, 2, "two leases were lost before the third");
    }

    #[test]
    fn replay_is_monotone_toward_terminal_states() {
        let mut jobs = BTreeMap::new();
        apply(&mut jobs, rec(Kind::Enqueued, "j"));
        apply(&mut jobs, rec(Kind::Leased, "j"));
        apply(&mut jobs, rec(Kind::Committed, "j"));
        // Stale records after the terminal state (post-compaction crash
        // replay) change nothing.
        apply(&mut jobs, rec(Kind::Enqueued, "j"));
        apply(&mut jobs, rec(Kind::Leased, "j"));
        apply(&mut jobs, rec(Kind::Failed, "j"));
        assert_eq!(jobs["j"].state, State::Committed);
        assert_eq!(json(&jobs["j"].record), json(&Some(result("j"))));
    }

    #[test]
    fn preemption_replay_restores_pending_without_a_failure_charge() {
        let mut jobs = BTreeMap::new();
        apply(&mut jobs, rec(Kind::Enqueued, "j"));
        apply(&mut jobs, rec(Kind::Leased, "j"));
        apply(&mut jobs, rec(Kind::Preempted, "j"));
        assert_eq!(jobs["j"].state, State::Pending);
        assert_eq!(jobs["j"].failures, 0);
    }

    #[test]
    fn snapshot_replays_to_the_same_state_table() {
        let mut jobs = BTreeMap::new();
        let mut done = entry("a", State::Committed);
        done.record = Some(result("a/x"));
        jobs.insert("a/x".to_string(), done);
        let mut poisoned = entry("b", State::Quarantined);
        poisoned.failures = 3;
        poisoned.error = Some("panic: boom".into());
        jobs.insert("b/y".to_string(), poisoned);
        let mut retried = entry("b", State::Pending);
        retried.priority = 2;
        retried.failures = 1;
        retried.error = Some(LEASE_LOST.into());
        jobs.insert("b/z".to_string(), retried);
        jobs.insert("c/w".to_string(), entry("c", State::Leased));

        let body: String = jobs
            .iter()
            .flat_map(|(id, e)| compacted_records(id, e))
            .map(|fields| sealed_record(7, fields))
            .collect();
        let records = parse_snapshot(&body).unwrap();
        assert!(records.iter().all(|r| r.gen == 7));
        let mut back = BTreeMap::new();
        for record in records {
            apply(&mut back, record);
        }
        assert_eq!(back.len(), 4);
        for (id, e) in &jobs {
            let b = &back[id];
            assert_eq!(
                (b.state, &b.campaign, b.priority, &b.error),
                (e.state, &e.campaign, e.priority, &e.error),
                "{id}"
            );
            assert_eq!(json(&b.record), json(&e.record), "{id}");
        }
        assert_eq!(back["b/y"].failures, 3);
        assert_eq!(back["b/z"].failures, 1, "the lease-failure budget survives");
        assert_eq!(
            records_of(&back).len(),
            1,
            "only terminal results are records"
        );

        // A snapshot that does not end on a record boundary is damage.
        let cut = &body[..body.len() - 3];
        assert!(matches!(
            parse_snapshot(cut),
            Err(ManifestError::Malformed(_))
        ));
    }

    fn rec(kind: Kind, job: &str) -> Record {
        Record {
            gen: 0,
            kind,
            job: job.to_string(),
            campaign: "c".to_string(),
            priority: 0,
            failures: if kind == Kind::Quarantined { 3 } else { 0 },
            error: (kind == Kind::Quarantined).then(|| "x".into()),
            result: matches!(kind, Kind::Committed | Kind::Failed).then(|| result(job)),
        }
    }
}
