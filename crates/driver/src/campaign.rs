//! The supervised campaign runner.
//!
//! A campaign is a one-campaign drain of the durable [`JobQueue`]: its
//! jobs are enqueued in order and a worker pool drains them. Every
//! attempt runs under full supervision:
//!
//! - **panic isolation** — attempts run inside `catch_unwind`, so a panic
//!   in the simulator (or a workload builder) fails one attempt, never the
//!   worker or sibling jobs;
//! - **wall-clock deadlines** — each attempt gets a fresh [`CancelToken`]
//!   registered with the [`Watchdog`]; a hung simulation is cancelled
//!   cooperatively ([`SimError::DeadlineExceeded`]), never thread-killed;
//! - **retry with backoff** — failed attempts retry up to the
//!   [`RetryPolicy`] bound with deterministic exponential backoff;
//! - **graceful degradation** — jobs whose attempts are exhausted under
//!   [`WrongPathEmulation`](ffsim_core::WrongPathMode::WrongPathEmulation)
//!   walk down the fidelity ladder (`wpemul → conv → instrec → nowp`),
//!   recording every rung, instead of failing the campaign.
//!
//! With a [`CampaignConfig::dir`], every finished job is one `Committed`
//! (or `Failed`) record appended to the queue journal in that directory,
//! so a killed campaign resumes by re-running only the jobs without a
//! terminal record. Without one, the queue keeps its state in memory and
//! writes no files. With a [`CampaignConfig::cache_dir`], results are
//! additionally committed to a content-addressed cache keyed by
//! (workload digest, config digest): a later campaign that schedules the
//! same point serves it from the cache without simulating.

use crate::cache::{self, CacheKey, CacheStore, Lookup};
use crate::job::{
    ladder_next, AttemptOutcome, AttemptRecord, Job, JobRecord, JobStatus, JobSummary,
};
use crate::manifest::{ManifestIo, Quarantine, RealIo};
use crate::queue::{validate_worker_count, CampaignSpec, Enqueued, JobQueue, QueueConfig};
use crate::retry::RetryPolicy;
use crate::telemetry::{Telemetry, TelemetryConfig};
use crate::watchdog::Watchdog;
use ffsim_core::{CancelToken, SimConfig, SimError, Simulator};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The campaign id a [`Campaign`] registers its jobs under.
const CAMPAIGN_ID: &str = "campaign";

/// A cloneable, campaign-wide [`ManifestIo`]: every journal append,
/// snapshot install and cache write goes through it, so tests inject
/// faults ([`FaultyIo`](crate::FaultyIo), scripted failures) into a
/// *running* campaign and prove no committed result is ever lost.
/// Defaults to the real filesystem.
#[derive(Clone)]
pub struct SharedIo(Arc<Mutex<dyn ManifestIo + Send>>);

impl SharedIo {
    /// Wraps an [`ManifestIo`] implementation for campaign-wide use.
    #[must_use]
    pub fn new(io: impl ManifestIo + Send + 'static) -> SharedIo {
        SharedIo(Arc::new(Mutex::new(io)))
    }

    /// Runs `f` with exclusive access to the underlying io.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut dyn ManifestIo) -> R) -> R {
        let mut guard = self
            .0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f(&mut *guard)
    }
}

impl fmt::Debug for SharedIo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SharedIo(..)")
    }
}

impl Default for SharedIo {
    fn default() -> SharedIo {
        SharedIo::new(RealIo)
    }
}

/// Campaign-wide supervision settings.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Worker threads (`0` = one per available CPU; at most
    /// [`MAX_WORKERS`](crate::MAX_WORKERS)).
    pub workers: usize,
    /// Retry policy applied to every job that does not override it.
    pub retry: RetryPolicy,
    /// Per-attempt wall-clock deadline for jobs without their own
    /// (`None` = attempts are only bounded by cancellation).
    pub default_timeout: Option<Duration>,
    /// The campaign's queue directory, holding its journal and snapshot
    /// (`None` = in-memory campaign: no files, no resume).
    pub dir: Option<PathBuf>,
    /// Content-addressed result cache directory (`None` = no cache).
    pub cache_dir: Option<PathBuf>,
    /// The filesystem seam used for every journal append and cache write.
    /// Production campaigns keep the default real filesystem; tests
    /// inject faults.
    pub io: SharedIo,
    /// Live telemetry: stderr heartbeats and per-job timing records.
    /// Defaults to the `FFSIM_OBS` environment switch (off unless set).
    pub telemetry: TelemetryConfig,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            workers: 0,
            retry: RetryPolicy::default(),
            default_timeout: Some(Duration::from_secs(300)),
            dir: None,
            cache_dir: None,
            io: SharedIo::default(),
            telemetry: TelemetryConfig::from_env(),
        }
    }
}

impl CampaignConfig {
    /// Validates the worker count before any job runs.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an absurd worker count.
    pub fn validate(&self) -> Result<(), SimError> {
        validate_worker_count(self.workers)
    }
}

/// What a finished (or cancelled) campaign produced.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// Records for every job with a terminal status — freshly executed
    /// ones plus any already in the journal — id-sorted, independent of
    /// worker count and scheduling.
    pub records: BTreeMap<String, JobRecord>,
    /// Jobs skipped because the journal already had their record.
    pub resumed: usize,
    /// Jobs executed to a terminal status by this invocation (cache hits
    /// included).
    pub executed: usize,
    /// Jobs served from the content-addressed result cache without
    /// simulating.
    pub cache_hits: usize,
    /// Jobs that probed the cache and missed (includes evicted-corrupt
    /// entries, which are recomputed).
    pub cache_misses: usize,
    /// Whether the campaign token fired; unfinished jobs stay absent from
    /// [`CampaignOutcome::records`] and re-run on resume.
    pub cancelled: bool,
    /// One notice per damaged journal or snapshot quarantined at startup.
    /// Empty on clean runs, so reports stay byte-identical when nothing
    /// went wrong.
    pub quarantines: Vec<Quarantine>,
}

/// A supervised simulation campaign. See the [module docs](self).
#[derive(Debug)]
pub struct Campaign {
    cfg: CampaignConfig,
    cancel: CancelToken,
}

impl Campaign {
    /// Creates a campaign with the given supervision settings.
    #[must_use]
    pub fn new(cfg: CampaignConfig) -> Campaign {
        Campaign {
            cfg,
            cancel: CancelToken::new(),
        }
    }

    /// The campaign-wide cancellation token. Firing it stops the campaign
    /// promptly: workers take no new jobs and in-flight attempts are
    /// cancelled through their own tokens by the watchdog.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Runs `jobs` to completion (or cancellation).
    ///
    /// Jobs whose terminal record is already in the journal are skipped
    /// and counted in [`CampaignOutcome::resumed`]. Job order in the
    /// output is by id, independent of worker count and scheduling.
    ///
    /// # Errors
    ///
    /// An invalid worker count, duplicate job ids, an unreadable journal,
    /// a job quarantined as poison by earlier runs, or a journal persist
    /// failure mid-campaign (the campaign stops at the first one —
    /// continuing would silently lose resume coverage).
    pub fn run(&self, jobs: Vec<Job>) -> Result<CampaignOutcome, String> {
        self.cfg.validate().map_err(|e| e.to_string())?;
        let mut seen = std::collections::HashSet::new();
        for job in &jobs {
            if !seen.insert(job.id.clone()) {
                return Err(format!("duplicate job id: {}", job.id));
            }
        }

        let cfg = QueueConfig {
            capacity: jobs.len().max(1),
            lease: self.lease(&jobs),
            workers: self.cfg.workers,
            retry: self.cfg.retry,
            default_timeout: self.cfg.default_timeout,
            cache_dir: self.cfg.cache_dir.clone(),
            io: self.cfg.io.clone(),
            telemetry: self.cfg.telemetry.clone(),
            ..QueueConfig::new(self.cfg.dir.clone().unwrap_or_default())
        };
        let queue = match self.cfg.dir {
            Some(_) => JobQueue::open(cfg),
            None => JobQueue::in_memory(cfg),
        }
        .map_err(|e| e.to_string())?
        .with_cancel(self.cancel.clone());
        queue
            .register(&CampaignSpec::new(CAMPAIGN_ID))
            .map_err(|e| e.to_string())?;
        for job in jobs {
            let id = job.id.clone();
            match queue.enqueue(CAMPAIGN_ID, job).map_err(|e| e.to_string())? {
                Enqueued::Accepted | Enqueued::AlreadyComplete => {}
                Enqueued::Poisoned => {
                    return Err(format!("job `{id}` is quarantined as poison"));
                }
            }
        }
        let drained = queue.drain().map_err(|e| e.to_string())?;
        Ok(CampaignOutcome {
            records: drained.records,
            resumed: drained.resumed,
            executed: drained.executed,
            cache_hits: drained.cache_hits,
            cache_misses: drained.cache_misses,
            cancelled: drained.cancelled,
            quarantines: drained.quarantines,
        })
    }

    /// The lease for this campaign's jobs: long enough that no healthy
    /// in-process job is ever taken back. A job's worst case is every
    /// attempt of every ladder rung running to its deadline, plus the
    /// backoff before each retry, plus one more deadline of slack for the
    /// cache probe and the cancellation landing. A job without a deadline
    /// makes the lease unbounded.
    fn lease(&self, jobs: &[Job]) -> Duration {
        let retry = &self.cfg.retry;
        jobs.iter()
            .map(|job| {
                let Some(deadline) = job.timeout.or(self.cfg.default_timeout) else {
                    return Duration::MAX;
                };
                let rungs = if job.degrade {
                    std::iter::successors(Some(job.mode), |&m| ladder_next(m)).count()
                } else {
                    1
                };
                // The ladder has four rungs, so the cast is exact.
                let attempts = effective_attempts(job, retry).saturating_mul(rungs as u32);
                deadline
                    .saturating_add(retry.max_backoff)
                    .saturating_mul(attempts.saturating_add(1))
            })
            .max()
            .unwrap_or(Duration::ZERO)
    }
}

/// The effective attempts-per-rung bound for `job` under `retry`.
pub(crate) fn effective_attempts(job: &Job, retry: &RetryPolicy) -> u32 {
    job.max_attempts.unwrap_or(retry.max_attempts).max(1)
}

/// The content address of `job`: builds the workload once (pristine state,
/// exactly as an attempt would) and digests it together with the fully
/// tweaked config and the job's supervision fingerprint. `None` when the
/// workload builder fails — the normal attempt path will then record the
/// same failure.
pub(crate) fn job_cache_key(job: &Job, retry: &RetryPolicy) -> Option<CacheKey> {
    let (program, memory) = (job.workload)().ok()?;
    let mut cfg = SimConfig::with_core(job.core.clone(), job.mode);
    cfg.max_instructions = job.max_instructions;
    if let Some(tweak) = &job.tweak {
        tweak(&mut cfg);
    }
    Some(CacheKey {
        workload: cache::workload_digest(&program, &memory),
        config: cache::config_digest(&cfg, effective_attempts(job, retry), job.degrade),
    })
}

/// What [`probe_cache`] found for a job.
pub(crate) enum Probe {
    /// A verified cache entry, ready to re-key onto the job id.
    Hit(Box<JobRecord>),
    /// No usable entry; the key to store the fresh result under, or
    /// `None` when there is no cache (or the workload builder failed, in
    /// which case the attempt path records that failure uncached).
    Miss(Option<CacheKey>),
}

/// Probes the result cache for `job`; evicted-corrupt entries count as
/// misses and are reported to stderr.
pub(crate) fn probe_cache(cache: Option<&CacheStore>, job: &Job, retry: &RetryPolicy) -> Probe {
    match cache.map(|store| job_cache_key(job, retry).map(|k| (k, store.lookup(k)))) {
        Some(Some((_, Lookup::Hit(record)))) => Probe::Hit(record),
        Some(Some((key, Lookup::Miss))) => Probe::Miss(Some(key)),
        Some(Some((key, Lookup::Evicted(error)))) => {
            eprintln!("campaign: evicted corrupt cache entry: {error}");
            Probe::Miss(Some(key))
        }
        Some(None) | None => Probe::Miss(None),
    }
}

/// Commits a deterministic result to the cache *before* the journal
/// commit: once a record is durable in the journal, an identical campaign
/// must find it in the cache (a crash between the two writes re-runs the
/// job and re-caches it; the reverse order would leave
/// committed-but-uncached jobs that silently miss). A failed cache write
/// loses an optimization, never a result.
pub(crate) fn store_cache(
    io: &SharedIo,
    cache: Option<&CacheStore>,
    key: Option<CacheKey>,
    record: &JobRecord,
) {
    if let (Some(store), Some(key)) = (cache, key) {
        if CacheStore::cacheable(record) {
            if let Err(e) = io.with(|io| store.store_with(io, key, record)) {
                eprintln!("campaign: cache write failed: {e}");
            }
        }
    }
}

/// The per-job execution engine behind every queue drain: retries with
/// backoff, the degradation ladder, watchdog
/// deadlines, and panic isolation — everything between "a worker picked
/// this job" and "this job has a terminal record".
pub(crate) struct Executor<'a> {
    /// Retry policy for jobs that do not override `max_attempts`.
    pub retry: RetryPolicy,
    /// Per-attempt deadline for jobs without their own.
    pub default_timeout: Option<Duration>,
    /// The campaign/service-wide stop token: firing it abandons the job
    /// without a record.
    pub stop: CancelToken,
    /// The shared deadline watchdog.
    pub watchdog: &'a Watchdog,
    /// Progress counters.
    pub telemetry: &'a Telemetry,
}

impl Executor<'_> {
    /// Runs one job's attempts (no cache involvement). Returns `None`
    /// when the stop token fired (job abandoned, re-run on resume) or
    /// when `job_token` fired mid-attempt (queue preemption or lease
    /// takeback: the job is re-enqueued by the caller, and the
    /// interrupted attempt burns no retry budget).
    pub(crate) fn execute_job(
        &self,
        job: &Job,
        job_token: Option<&CancelToken>,
    ) -> Option<JobRecord> {
        let retry = RetryPolicy {
            max_attempts: effective_attempts(job, &self.retry),
            ..self.retry
        };
        let timeout = job.timeout.or(self.default_timeout);
        let mut attempts: Vec<AttemptRecord> = Vec::new();
        let mut mode = job.mode;
        let taken_back =
            || self.stop.is_cancelled() || job_token.is_some_and(CancelToken::is_cancelled);

        loop {
            for rung_attempt in 1..=retry.max_attempts {
                if taken_back() {
                    return None;
                }
                let token = CancelToken::new();
                let deadline = timeout.map(|t| Instant::now() + t);
                let guard = self.watchdog.guard_linked(&token, deadline, job_token);
                let (outcome, result) = run_attempt(job, mode, &token);
                drop(guard);

                if matches!(outcome, AttemptOutcome::Cancelled) && taken_back() {
                    return None;
                }

                let attempt_no = attempts.len() as u32 + 1;
                if let Some(result) = result {
                    attempts.push(AttemptRecord {
                        attempt: attempt_no,
                        mode,
                        outcome: AttemptOutcome::Success,
                        backoff_ms: 0,
                    });
                    let status = if mode == job.mode {
                        JobStatus::Completed
                    } else {
                        JobStatus::Degraded
                    };
                    return Some(JobRecord {
                        id: job.id.clone(),
                        requested_mode: job.mode,
                        final_mode: mode,
                        status,
                        attempts,
                        summary: Some(JobSummary::of(&result)),
                        timing: None,
                        cpi: None,
                        cached: false,
                        sim: Some(Box::new(result)),
                    });
                }
                let retrying = rung_attempt < retry.max_attempts;
                if retrying {
                    self.telemetry.attempt_retried();
                }
                let backoff = if retrying {
                    retry.backoff(&job.id, rung_attempt)
                } else {
                    Duration::ZERO
                };
                attempts.push(AttemptRecord {
                    attempt: attempt_no,
                    mode,
                    outcome,
                    backoff_ms: backoff.as_millis() as u64,
                });
                if retrying && !backoff.is_zero() && !taken_back() {
                    std::thread::sleep(backoff);
                }
            }
            match ladder_next(mode).filter(|_| job.degrade) {
                Some(next) => {
                    self.telemetry.attempt_retried();
                    mode = next;
                }
                None => {
                    return Some(JobRecord {
                        id: job.id.clone(),
                        requested_mode: job.mode,
                        final_mode: mode,
                        status: JobStatus::Failed,
                        attempts,
                        summary: None,
                        timing: None,
                        cpi: None,
                        cached: false,
                        sim: None,
                    });
                }
            }
        }
    }
}

fn run_attempt(
    job: &Job,
    mode: ffsim_core::WrongPathMode,
    token: &CancelToken,
) -> (AttemptOutcome, Option<ffsim_core::SimResult>) {
    let caught = catch_unwind(AssertUnwindSafe(|| -> Result<_, SimError> {
        let (program, memory) = (job.workload)()?;
        let mut cfg = SimConfig::with_core(job.core.clone(), mode);
        cfg.max_instructions = job.max_instructions;
        if let Some(tweak) = &job.tweak {
            tweak(&mut cfg);
        }
        // Installed after the tweak: a tweak must not be able to detach
        // the attempt from supervision.
        cfg.cancel = Some(token.clone());
        Simulator::new(program, memory, cfg)?.run()
    }));
    match caught {
        Ok(Ok(result)) => (AttemptOutcome::Success, Some(result)),
        Ok(Err(SimError::Cancelled)) => (AttemptOutcome::Cancelled, None),
        Ok(Err(SimError::DeadlineExceeded)) => (AttemptOutcome::DeadlineExceeded, None),
        Ok(Err(e)) => (AttemptOutcome::Fault(e.to_string()), None),
        Err(payload) => (AttemptOutcome::Panic(panic_message(payload.as_ref())), None),
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
