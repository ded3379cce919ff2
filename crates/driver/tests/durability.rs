//! Crash tests for the driver's one durable log: interrupted campaigns
//! resume to byte-identical reports, a torn journal tail is dropped at any
//! byte offset, damage mid-journal keeps every sealed record before it,
//! snapshot loss costs only a re-run served by the cache, injected
//! persistence faults never lose a committed result, the torn-tail repair
//! never destroys the journal, commit cost does not grow with the
//! campaign, and identical re-runs are served entirely from the cache.

use ffsim_core::{CancelToken, WrongPathMode};
use ffsim_driver::{
    report, Campaign, CampaignConfig, CampaignSpec, Enqueued, FaultyIo, Job, JobQueue, JobRecord,
    JobRunner, ManifestIo, QueueConfig, RealIo, RetryPolicy, RunContext, SharedIo, TelemetryConfig,
    WorkloadFn,
};
use ffsim_emu::Memory;
use ffsim_isa::{Asm, Program, Reg};
use ffsim_uarch::CoreConfig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Long enough that a mid-campaign cancel lands while jobs are in flight,
/// short enough for fast tests.
const TRIPS: i64 = 2_000;

fn countdown(trips: i64) -> Result<Program, ffsim_core::SimError> {
    let i = Reg::new(1);
    let mut a = Asm::new();
    a.li(i, trips);
    a.label("loop");
    a.addi(i, i, -1);
    a.bnez(i, "loop");
    a.halt();
    Ok(a.assemble()?)
}

fn workload(trips: i64) -> WorkloadFn {
    Arc::new(move || Ok((countdown(trips)?, Memory::new())))
}

/// Eight deterministic jobs spread across modes and two workloads.
fn jobs() -> Vec<Job> {
    let core = CoreConfig::tiny_for_tests();
    let mut jobs = Vec::new();
    for mode in WrongPathMode::ALL {
        jobs.push(
            Job::new(format!("countdown-a/{mode}"), mode, workload(TRIPS)).with_core(core.clone()),
        );
        jobs.push(
            Job::new(format!("countdown-b/{mode}"), mode, workload(TRIPS / 2))
                .with_core(core.clone()),
        );
    }
    jobs
}

fn retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    }
}

fn fast_config(dir: &Path) -> CampaignConfig {
    CampaignConfig {
        workers: 2,
        retry: retry(),
        default_timeout: Some(Duration::from_secs(60)),
        dir: Some(dir.to_path_buf()),
        telemetry: TelemetryConfig::default(),
        ..CampaignConfig::default()
    }
}

fn qcfg(dir: &Path) -> QueueConfig {
    QueueConfig {
        workers: 1,
        retry: retry(),
        default_timeout: Some(Duration::from_secs(60)),
        telemetry: TelemetryConfig::default(),
        ..QueueConfig::new(dir)
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Runs the campaign until every job has a record, tolerating
/// cancellation; returns the final outcome.
fn run_to_completion(cfg: &CampaignConfig) -> ffsim_driver::CampaignOutcome {
    for _ in 0..20 {
        let outcome = Campaign::new(cfg.clone())
            .run(jobs())
            .expect("campaign runs");
        if outcome.records.len() == jobs().len() {
            return outcome;
        }
    }
    panic!("campaign failed to finish in 20 resumes");
}

/// The reference report: the eight jobs, uninterrupted, in memory.
fn golden() -> String {
    let cfg = CampaignConfig {
        dir: None,
        ..fast_config(Path::new(""))
    };
    report::render(&run_to_completion(&cfg).records)
}

/// Opens `dir`, registers one campaign and enqueues `jobs` in order.
fn open_and_fill(cfg: QueueConfig, jobs: Vec<Job>) -> JobQueue {
    let queue = JobQueue::open(cfg).expect("queue opens");
    queue.register(&CampaignSpec::new("c")).expect("register");
    for job in jobs {
        let outcome = queue.enqueue("c", job).expect("enqueue");
        assert_ne!(outcome, Enqueued::Poisoned);
    }
    queue
}

fn files_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("dir exists")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The stress test: whatever the worker count and wherever a cancel
/// lands mid-campaign, resuming always converges to a report
/// byte-identical to an uninterrupted run's.
#[test]
fn interrupted_campaigns_resume_to_identical_reports() {
    let golden = golden();
    for workers in [1, 4] {
        for delay_ms in [0u64, 5, 25] {
            let dir = tmp_dir(&format!("durable-stress-{workers}w-{delay_ms}ms"));
            let cfg = CampaignConfig {
                workers,
                ..fast_config(&dir)
            };

            // Interrupt the first run: fire the campaign token from a
            // second thread, like a SIGTERM handler would.
            let campaign = Campaign::new(cfg.clone());
            let token = campaign.cancel_token();
            let canceller = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(delay_ms));
                token.cancel();
            });
            let interrupted = campaign.run(jobs()).expect("interrupted run returns");
            canceller.join().expect("canceller joins");
            assert!(interrupted.records.len() <= jobs().len());

            let resumed = run_to_completion(&cfg);
            assert!(resumed.quarantines.is_empty());
            assert_eq!(
                report::render(&resumed.records),
                golden,
                "workers={workers} delay={delay_ms}ms"
            );
            let files = files_in(&dir);
            assert!(
                files
                    .iter()
                    .all(|f| f == "queue.journal" || f == "queue.snapshot"),
                "a drained directory holds only the log: {files:?}"
            );
        }
    }
}

/// A `Committed` record carrying a full `JobRecord`, cut at every byte
/// offset as a crash mid-append would: the torn record is dropped, the
/// journal is truncated back to the sealed prefix, and the job re-runs.
#[test]
fn torn_committed_record_at_every_byte_offset_is_dropped() {
    let dir = tmp_dir("durable-torn-commit");
    let three: Vec<Job> = jobs().into_iter().take(3).collect();
    open_and_fill(qcfg(&dir), three.clone())
        .drain()
        .expect("drain");
    let journal = dir.join("queue.journal");
    let full = std::fs::read_to_string(&journal).expect("journal written");
    // The final record is the third job's commit; it starts right after
    // the previous record's checksum trailer line.
    let body = &full[..full.len() - 1];
    let trailer = body.rfind("#checksum").expect("last trailer");
    let last_start = body[..trailer]
        .rfind("#checksum")
        .expect("previous trailer");
    let last_start = last_start + full[last_start..].find('\n').expect("line end") + 1;
    assert!(full[last_start..].contains("\"committed\""));
    assert!(
        full[last_start..].contains("\"result\""),
        "commits carry results"
    );

    for cut in last_start..=full.len() {
        std::fs::write(&journal, &full.as_bytes()[..cut]).expect("tear the journal");
        let queue = JobQueue::open(qcfg(&dir)).expect("a torn tail never fails an open");
        let recovery = queue.recovery();
        assert!(recovery.quarantines.is_empty(), "cut at {cut}");
        let intact = cut == full.len();
        assert_eq!(
            recovery.torn_tail_dropped,
            !intact && cut > last_start,
            "cut at {cut}"
        );
        assert_eq!(
            queue.merged_records().len(),
            if intact { 3 } else { 2 },
            "cut at {cut}"
        );
        drop(queue);
        let kept = std::fs::metadata(&journal).expect("journal kept").len() as usize;
        assert_eq!(
            kept,
            if intact { full.len() } else { last_start },
            "cut at {cut}"
        );
    }

    // After the last cut the third job re-runs to the same report.
    std::fs::write(&journal, &full.as_bytes()[..last_start + 1]).expect("tear");
    let queue = open_and_fill(qcfg(&dir), three);
    let outcome = queue.drain().expect("drain");
    assert_eq!(outcome.executed, 1);
    assert_eq!(outcome.records.len(), 3);
}

/// A crash mid-append can cut a multi-byte character in half; that is a
/// torn tail like any other, not damage and not an unreadable journal.
#[test]
fn torn_multibyte_character_is_a_torn_tail() {
    let dir = tmp_dir("durable-torn-utf8");
    let job = |id: &str| {
        Job::new(id, WrongPathMode::NoWrongPath, workload(10))
            .with_core(CoreConfig::tiny_for_tests())
    };
    let ids = ["café/a", "🦀/b"];
    open_and_fill(qcfg(&dir), ids.iter().map(|id| job(id)).collect())
        .drain()
        .expect("drain");
    let journal = dir.join("queue.journal");
    let full = std::fs::read(&journal).expect("journal written");
    let crab = "🦀".as_bytes();
    let last_crab = full
        .windows(crab.len())
        .rposition(|w| w == crab)
        .expect("the id is journaled");
    std::fs::write(&journal, &full[..last_crab + 1]).expect("cut mid-character");

    let queue = JobQueue::open(qcfg(&dir)).expect("a torn tail never fails an open");
    assert!(queue.recovery().torn_tail_dropped);
    assert!(queue.recovery().quarantines.is_empty());
    let records = queue.merged_records();
    assert!(records.contains_key("café/a"), "{:?}", records.keys());
    assert!(!records.contains_key("🦀/b"), "its commit was torn");
}

/// Damage in the middle of the journal: every sealed record before it is
/// replayed, the journal is quarantined, and only the jobs committed
/// after the damage re-run — served by the cache.
#[test]
fn mid_journal_damage_keeps_the_sealed_prefix() {
    let golden = golden();
    let dir = tmp_dir("durable-mid-damage");
    let cfg = CampaignConfig {
        workers: 1,
        cache_dir: Some(dir.join("cache")),
        dir: Some(dir.join("queue")),
        ..fast_config(&dir)
    };
    run_to_completion(&cfg);

    // Damage the fifth commit: four results precede it.
    let journal = dir.join("queue").join("queue.journal");
    let text = std::fs::read_to_string(&journal).expect("journal written");
    let fifth = text
        .match_indices("\"committed\"")
        .nth(4)
        .expect("eight commits")
        .0;
    let mut damaged = text.clone();
    damaged.replace_range(fifth + 1..fifth + 2, "C");
    std::fs::write(&journal, damaged).expect("damage the journal");

    let recovered = Campaign::new(cfg.clone())
        .run(jobs())
        .expect("recovery runs");
    let [quarantine] = &recovered.quarantines[..] else {
        panic!("expected one quarantine: {:?}", recovered.quarantines);
    };
    assert!(quarantine.quarantined_to.ends_with("queue.journal.corrupt"));
    assert!(quarantine.quarantined_to.exists(), "evidence preserved");
    assert_eq!(recovered.resumed, 4, "the sealed prefix survives");
    assert_eq!(recovered.executed, 4, "results after the damage re-run");
    assert_eq!(recovered.cache_hits, 4, "and the cache serves them");
    assert_eq!(report::render(&recovered.records), golden);
    let banner = report::render_quarantines(&recovered.quarantines);
    assert!(banner.contains("journal recovery"), "{banner}");

    // A further run is clean again: recovery compacted the survivors.
    let clean_again = Campaign::new(cfg).run(jobs()).expect("clean run");
    assert!(clean_again.quarantines.is_empty());
    assert_eq!(clean_again.resumed, jobs().len());
    assert_eq!(report::render(&clean_again.records), golden);
}

/// Losing the snapshot loses the results compacted into it, and nothing
/// else: the journal tail still replays, and the lost jobs re-run as
/// cache hits to the same report.
#[test]
fn snapshot_loss_reruns_only_compacted_results_from_the_cache() {
    let dir = tmp_dir("durable-snapshot-loss");
    let cfg = QueueConfig {
        compact_every: 5,
        cache_dir: Some(dir.join("cache")),
        ..qcfg(&dir.join("queue"))
    };
    let first = open_and_fill(cfg.clone(), jobs()).drain().expect("drain");
    let golden = report::render(&first.records);
    let queue_dir = dir.join("queue");
    assert_eq!(
        files_in(&queue_dir),
        ["queue.journal", "queue.snapshot"],
        "a drained directory holds only the log"
    );
    let snapshot = std::fs::read_to_string(queue_dir.join("queue.snapshot")).expect("snapshot");
    assert!(
        snapshot.contains("\"result\""),
        "the snapshot holds results"
    );

    std::fs::remove_file(queue_dir.join("queue.snapshot")).expect("delete snapshot");
    let queue = open_and_fill(cfg, jobs());
    // A missing file is not damage: no quarantine.
    assert!(queue.recovery().quarantines.is_empty());
    let outcome = queue.drain().expect("drain");
    assert!(outcome.executed > 0, "compacted results re-run");
    assert_eq!(outcome.cache_hits, outcome.executed, "all from the cache");
    assert_eq!(outcome.cache_misses, 0);
    assert_eq!(report::render(&outcome.records), golden);
}

/// Fails every journal append after the first `allow` — a disk going bad
/// partway through a campaign. With `torn`, the failing append first
/// writes half its record, as a crash mid-append would.
#[derive(Debug)]
struct FailAfter {
    allow: usize,
    torn: bool,
}

impl ManifestIo for FailAfter {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        RealIo.write(path, bytes)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        RealIo.rename(from, to)
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        if self.allow == 0 {
            if std::mem::take(&mut self.torn) {
                RealIo.append(path, &bytes[..bytes.len() / 2])?;
            }
            return Err(std::io::Error::other("disk failed (injected)"));
        }
        self.allow -= 1;
        RealIo.append(path, bytes)
    }
}

#[test]
fn persistence_fault_mid_commit_loses_no_committed_result() {
    let golden = golden();
    for torn in [false, true] {
        let dir = tmp_dir(&format!("durable-io-fault-{torn}"));
        // One worker: 8 enqueues, then a lease and a commit per job. The
        // 16th append is the fourth job's commit.
        let faulty_cfg = CampaignConfig {
            workers: 1,
            io: SharedIo::new(FailAfter {
                allow: 8 + 3 * 2 + 1,
                torn,
            }),
            ..fast_config(&dir)
        };

        // The campaign stops at the first persist failure rather than
        // running on with silently lost resume coverage.
        let err = Campaign::new(faulty_cfg)
            .run(jobs())
            .expect_err("persist failure surfaces");
        assert!(err.contains("injected"), "{err}");

        // Every result committed before the fault survives; the resumed
        // campaign re-runs only the rest and converges to the clean
        // report.
        let resumed = Campaign::new(fast_config(&dir))
            .run(jobs())
            .expect("resume runs");
        assert!(resumed.quarantines.is_empty(), "a torn append is no damage");
        assert_eq!(resumed.resumed, 3, "all three committed results survive");
        assert_eq!(report::render(&resumed.records), golden, "torn={torn}");
    }
}

/// The torn-tail repair must not destroy the journal: a failed or
/// interrupted repair leaves every committed record in place.
#[test]
fn failed_torn_tail_repair_keeps_the_journal() {
    let dir = tmp_dir("durable-torn-repair");
    let six: Vec<Job> = jobs().into_iter().take(6).collect();
    open_and_fill(qcfg(&dir), six).drain().expect("drain");
    let journal = dir.join("queue.journal");
    let mut bytes = std::fs::read(&journal).expect("journal written");
    let healthy = bytes.len();
    bytes.extend_from_slice(b"{\n  \"gen\": 0,\n  \"record\": \"leased\",\n  \"jo");
    std::fs::write(&journal, &bytes).expect("tear the tail");

    let faulty = QueueConfig {
        io: SharedIo::new(FaultyIo {
            short_write: Some(40),
            ..FaultyIo::default()
        }),
        ..qcfg(&dir)
    };
    // The repair may fail, but it must not cost any committed result.
    drop(JobQueue::open(faulty));
    let kept = std::fs::metadata(&journal).expect("journal kept").len() as usize;
    assert!(
        kept >= healthy,
        "the repair cut into sealed records: {kept} < {healthy}"
    );

    let queue = JobQueue::open(qcfg(&dir)).expect("clean open");
    assert!(queue.recovery().torn_tail_dropped);
    assert_eq!(queue.stats().committed, 6);
    assert_eq!(queue.merged_records().len(), 6);
}

/// Counts bytes written through the seam.
#[derive(Debug)]
struct CountingIo(Arc<AtomicU64>);

impl CountingIo {
    fn count(&self, bytes: &[u8]) {
        self.0.fetch_add(bytes.len() as u64, Ordering::SeqCst);
    }
}

impl ManifestIo for CountingIo {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.count(bytes);
        RealIo.write(path, bytes)
    }

    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        RealIo.rename(from, to)
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.count(bytes);
        RealIo.append(path, bytes)
    }
}

/// Notes the byte counter each time a job starts running.
struct StartMarks {
    written: Arc<AtomicU64>,
    marks: Mutex<Vec<u64>>,
}

impl JobRunner for StartMarks {
    fn run(&self, ctx: &RunContext<'_>, job: &Job, takeback: &CancelToken) -> Option<JobRecord> {
        let now = self.written.load(Ordering::SeqCst);
        self.marks.lock().expect("marks").push(now);
        ctx.execute(job, takeback)
    }
}

/// A commit appends one record of its own size: with no compaction in
/// between, the 200th commit writes no more than the 2nd (within 2×).
#[test]
fn commit_bytes_do_not_grow_with_the_campaign() {
    let dir = tmp_dir("durable-commit-bytes");
    let written = Arc::new(AtomicU64::new(0));
    let cfg = QueueConfig {
        compact_every: 100_000,
        io: SharedIo::new(CountingIo(Arc::clone(&written))),
        ..qcfg(&dir)
    };
    let jobs: Vec<Job> = (0..202)
        .map(|k| {
            Job::new(format!("j{k:04}"), WrongPathMode::NoWrongPath, workload(10))
                .with_core(CoreConfig::tiny_for_tests())
        })
        .collect();
    let queue = open_and_fill(cfg, jobs);
    let runner = StartMarks {
        written,
        marks: Mutex::new(Vec::new()),
    };
    let outcome = queue.drain_with(&runner).expect("drain");
    assert_eq!(outcome.records.len(), 202);
    let marks = runner.marks.into_inner().expect("marks");
    // Bytes between two job starts: one commit plus the next lease.
    let per_job = |k: usize| marks[k + 1] - marks[k];
    let (second, two_hundredth) = (per_job(1), per_job(199));
    assert!(
        two_hundredth <= 2 * second,
        "commit #200 wrote {two_hundredth} B against {second} B for commit #2"
    );
}

#[test]
fn identical_campaign_reruns_entirely_from_cache() {
    let dir = tmp_dir("cache-rerun");
    let cache_dir = dir.join("cache");
    let first_cfg = CampaignConfig {
        dir: Some(dir.join("q1")),
        cache_dir: Some(cache_dir.clone()),
        ..fast_config(&dir)
    };
    let first = Campaign::new(first_cfg).run(jobs()).expect("first run");
    assert_eq!(first.records.len(), jobs().len());
    assert_eq!(first.cache_hits, 0);
    assert_eq!(first.cache_misses, jobs().len());
    assert!(first.records.values().all(|r| !r.cached));

    // Same campaign, fresh directory: every job is served from the cache
    // and the deterministic report is byte-identical.
    let second_cfg = CampaignConfig {
        dir: Some(dir.join("q2")),
        cache_dir: Some(cache_dir.clone()),
        ..fast_config(&dir)
    };
    let second = Campaign::new(second_cfg).run(jobs()).expect("second run");
    assert_eq!(second.cache_hits, jobs().len(), "100% cache hits");
    assert_eq!(second.cache_misses, 0);
    assert!(second.records.values().all(|r| r.cached));
    assert_eq!(
        report::render(&second.records),
        report::render(&first.records),
        "cached results render byte-identically"
    );
    // Cache provenance is visible in the appendix, not the report body.
    assert!(!report::render_cache(&second.records).is_empty());
    assert!(report::render_cache(&first.records).is_empty());

    // A different workload is a different content address: nothing from
    // this cache leaks into it.
    let other_cfg = CampaignConfig {
        dir: Some(dir.join("q3")),
        cache_dir: Some(cache_dir),
        ..fast_config(&dir)
    };
    let other_jobs: Vec<Job> = vec![Job::new(
        "countdown-a/nowp", // same id as a cached job, different program
        WrongPathMode::NoWrongPath,
        workload(TRIPS * 3),
    )
    .with_core(CoreConfig::tiny_for_tests())];
    let other = Campaign::new(other_cfg).run(other_jobs).expect("third run");
    assert_eq!(other.cache_hits, 0, "different workload digest must miss");
}

#[test]
fn corrupt_cache_entry_is_evicted_and_recomputed() {
    let dir = tmp_dir("cache-corrupt");
    let cache_dir = dir.join("cache");
    let cfg = |name: &str| CampaignConfig {
        dir: Some(dir.join(name)),
        cache_dir: Some(cache_dir.clone()),
        ..fast_config(&dir)
    };
    Campaign::new(cfg("q1")).run(jobs()).expect("first run");

    // Corrupt one cache entry by truncation.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&cache_dir)
        .expect("cache dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), jobs().len(), "one entry per job");
    let victim = &entries[0];
    let healthy = std::fs::read_to_string(victim).expect("entry readable");
    std::fs::write(victim, &healthy[..healthy.len() / 2]).expect("truncate entry");

    let second = Campaign::new(cfg("q2")).run(jobs()).expect("second run");
    assert_eq!(second.cache_hits, jobs().len() - 1);
    assert_eq!(second.cache_misses, 1, "corrupt entry evicted, not served");
    assert_eq!(second.records.len(), jobs().len());

    // The recomputed entry replaced the corrupt one: a third run is all
    // hits again.
    let third = Campaign::new(cfg("q3")).run(jobs()).expect("third run");
    assert_eq!(third.cache_hits, jobs().len());
}

/// An interrupted cached campaign resumes cleanly, and every job
/// committed before the kill is a cache hit for an identical later
/// campaign (the cache is written *before* the journal commit).
#[test]
fn committed_jobs_are_always_cache_hits_after_interruption() {
    let dir = tmp_dir("cache-interrupt");
    let cache_dir = dir.join("cache");
    let cfg = CampaignConfig {
        dir: Some(dir.join("q1")),
        cache_dir: Some(cache_dir.clone()),
        ..fast_config(&dir)
    };

    let campaign = Campaign::new(cfg.clone());
    let token = campaign.cancel_token();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(10));
        token.cancel();
    });
    let interrupted = campaign.run(jobs()).expect("interrupted run returns");
    canceller.join().expect("canceller joins");
    let committed: BTreeMap<String, bool> = interrupted
        .records
        .iter()
        .map(|(id, r)| (id.clone(), r.cached))
        .collect();

    run_to_completion(&cfg);

    // Fresh directory, same cache: every job hits.
    let rerun_cfg = CampaignConfig {
        dir: Some(dir.join("q2")),
        cache_dir: Some(cache_dir),
        ..fast_config(&dir)
    };
    let rerun = Campaign::new(rerun_cfg).run(jobs()).expect("rerun");
    assert_eq!(
        rerun.cache_hits,
        jobs().len(),
        "every committed job (incl. pre-kill: {committed:?}) must hit"
    );
}
