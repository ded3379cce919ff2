//! End-to-end supervision tests: panic isolation, watchdog deadlines,
//! retry, the degradation ladder, determinism, and crash-safe resume.

use ffsim_core::WrongPathMode;
use ffsim_driver::{
    AttemptOutcome, Campaign, CampaignConfig, Job, JobQueue, JobStatus, QueueConfig, RetryPolicy,
    WorkloadFn,
};
use ffsim_emu::{FaultPolicy, Memory};
use ffsim_isa::{Asm, Program, Reg};
use ffsim_uarch::CoreConfig;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Loop trips: enough to train the predictor so the loop exit mispredicts
/// and a wrong path runs.
const TRIPS: i64 = 2_000;

/// Count-down loop with a division. The correct path divides by
/// `TRIPS..=1`; the wrong path at loop exit re-enters the body with the
/// counter at zero, so `trap_div_zero` faults *only* wrong-path execution.
fn countdown_div() -> Result<Program, ffsim_core::SimError> {
    let (i, c, q) = (Reg::new(1), Reg::new(2), Reg::new(3));
    let mut a = Asm::new();
    a.li(i, TRIPS);
    a.li(c, 1_000_003);
    a.label("loop");
    a.div(q, c, i);
    a.addi(i, i, -1);
    a.bnez(i, "loop");
    a.halt();
    Ok(a.assemble()?)
}

/// A plain count-down loop that halts.
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

/// A loop that never halts: `x1` stays 1 forever.
fn infinite_loop() -> Result<Program, ffsim_core::SimError> {
    let x = Reg::new(1);
    let mut a = Asm::new();
    a.li(x, 1);
    a.label("loop");
    a.bnez(x, "loop");
    a.halt(); // unreachable
    Ok(a.assemble()?)
}

fn workload(program: fn() -> Result<Program, ffsim_core::SimError>) -> WorkloadFn {
    Arc::new(move || Ok((program()?, Memory::new())))
}

fn tiny_job(
    id: &str,
    mode: WrongPathMode,
    program: fn() -> Result<Program, ffsim_core::SimError>,
) -> Job {
    Job::new(id, mode, workload(program)).with_core(CoreConfig::tiny_for_tests())
}

fn fast_config() -> CampaignConfig {
    CampaignConfig {
        workers: 2,
        retry: RetryPolicy {
            max_attempts: 2,
            base_backoff: Duration::ZERO, // no sleeping in tests
            max_backoff: Duration::ZERO,
        },
        default_timeout: Some(Duration::from_secs(60)),
        telemetry: ffsim_driver::TelemetryConfig::default(),
        ..CampaignConfig::default()
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn hung_job_is_cancelled_without_losing_siblings() {
    let mut jobs = vec![tiny_job("hang", WrongPathMode::NoWrongPath, infinite_loop)
        .with_timeout(Duration::from_millis(100))
        .with_max_attempts(1)
        .no_degradation()];
    for mode in WrongPathMode::ALL {
        jobs.push(
            tiny_job(&format!("ok/{mode}"), mode, countdown_div).with_max_instructions(50_000),
        );
    }

    let outcome = Campaign::new(fast_config())
        .run(jobs)
        .expect("campaign runs");
    assert_eq!(outcome.records.len(), 5, "no sibling jobs lost");
    assert!(!outcome.cancelled);

    let hang = &outcome.records["hang"];
    assert_eq!(hang.status, JobStatus::Failed);
    assert_eq!(hang.attempts.len(), 1);
    assert_eq!(hang.attempts[0].outcome, AttemptOutcome::DeadlineExceeded);

    for mode in WrongPathMode::ALL {
        let record = &outcome.records[&format!("ok/{mode}")];
        assert_eq!(
            record.status,
            JobStatus::Completed,
            "sibling {mode} completed"
        );
        assert!(record.summary.is_some());
    }
}

#[test]
fn panicking_attempt_is_isolated_and_retried() {
    let calls = Arc::new(AtomicU32::new(0));
    let calls_in_builder = Arc::clone(&calls);
    let flaky: WorkloadFn = Arc::new(move || {
        if calls_in_builder.fetch_add(1, Ordering::SeqCst) == 0 {
            panic!("injected workload panic");
        }
        Ok((countdown(TRIPS)?, Memory::new()))
    });

    let jobs = vec![
        Job::new("flaky", WrongPathMode::ConvergenceExploitation, flaky)
            .with_core(CoreConfig::tiny_for_tests()),
        tiny_job(
            "steady",
            WrongPathMode::ConvergenceExploitation,
            countdown_div,
        )
        .with_max_instructions(50_000),
    ];

    let outcome = Campaign::new(fast_config())
        .run(jobs)
        .expect("campaign runs");
    let flaky = &outcome.records["flaky"];
    assert_eq!(
        flaky.status,
        JobStatus::Completed,
        "retry recovered the job"
    );
    assert_eq!(flaky.attempts.len(), 2);
    assert!(
        matches!(&flaky.attempts[0].outcome, AttemptOutcome::Panic(msg) if msg.contains("injected")),
        "first attempt recorded the panic: {:?}",
        flaky.attempts[0].outcome
    );
    assert_eq!(flaky.attempts[1].outcome, AttemptOutcome::Success);
    assert_eq!(outcome.records["steady"].status, JobStatus::Completed);
    assert_eq!(calls.load(Ordering::SeqCst), 2);
}

#[test]
fn persistent_wrong_path_fault_degrades_down_the_ladder() {
    // trap_div_zero + AbortRun faults only under full wrong-path emulation:
    // the other techniques never functionally execute the wrong-path
    // division. The job must degrade wpemul -> conv and then succeed.
    let job = tiny_job("divzero", WrongPathMode::WrongPathEmulation, countdown_div).with_tweak(
        Arc::new(|cfg| {
            cfg.fault_model.trap_div_zero = true;
            cfg.fault_policy = FaultPolicy::AbortRun;
        }),
    );

    let outcome = Campaign::new(fast_config())
        .run(vec![job])
        .expect("campaign runs");
    let record = &outcome.records["divzero"];
    assert_eq!(record.status, JobStatus::Degraded);
    assert_eq!(record.requested_mode, WrongPathMode::WrongPathEmulation);
    assert_eq!(record.final_mode, WrongPathMode::ConvergenceExploitation);
    assert_eq!(record.attempts.len(), 3, "2 faulting attempts + 1 success");
    for attempt in &record.attempts[..2] {
        assert_eq!(attempt.mode, WrongPathMode::WrongPathEmulation);
        assert!(
            matches!(&attempt.outcome, AttemptOutcome::Fault(msg) if msg.contains("wrong-path")),
            "expected a wrong-path fault, got {:?}",
            attempt.outcome
        );
    }
    assert_eq!(
        record.attempts[2].mode,
        WrongPathMode::ConvergenceExploitation
    );
    assert_eq!(record.attempts[2].outcome, AttemptOutcome::Success);
    assert!(record.summary.is_some());
}

#[test]
fn fault_in_every_mode_fails_cleanly_instead_of_hanging() {
    // An address limit below the data the *correct path* loads faults in
    // all four modes: the ladder runs dry and the job fails, recording
    // every rung.
    // The workload loads from far above the injected address limit on the
    // correct path.
    let oob: WorkloadFn = Arc::new(|| {
        let (v, base) = (Reg::new(1), Reg::new(2));
        let mut a = Asm::new();
        a.li(base, 0x1000_0000);
        a.ld(v, 0, base);
        a.halt();
        Ok((a.assemble()?, Memory::new()))
    });
    let job = Job::new("doomed", WrongPathMode::WrongPathEmulation, oob)
        .with_core(CoreConfig::tiny_for_tests())
        .with_tweak(Arc::new(|cfg| {
            cfg.fault_model.addr_limit = Some(0x100);
        }));

    let outcome = Campaign::new(fast_config())
        .run(vec![job])
        .expect("campaign runs");
    let record = &outcome.records["doomed"];
    assert_eq!(record.status, JobStatus::Failed);
    assert_eq!(record.final_mode, WrongPathMode::NoWrongPath);
    assert_eq!(record.attempts.len(), 8, "2 attempts on each of 4 rungs");
    let modes: Vec<_> = record.attempts.iter().map(|a| a.mode).collect();
    assert_eq!(
        modes,
        vec![
            WrongPathMode::WrongPathEmulation,
            WrongPathMode::WrongPathEmulation,
            WrongPathMode::ConvergenceExploitation,
            WrongPathMode::ConvergenceExploitation,
            WrongPathMode::InstructionReconstruction,
            WrongPathMode::InstructionReconstruction,
            WrongPathMode::NoWrongPath,
            WrongPathMode::NoWrongPath,
        ]
    );
    assert!(record.summary.is_none());
}

fn determinism_jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for mode in WrongPathMode::ALL {
        jobs.push(
            tiny_job(&format!("countdown/{mode}"), mode, countdown_div)
                .with_max_instructions(20_000),
        );
    }
    // One degrading job so attempt histories are exercised too.
    jobs.push(
        tiny_job("degrade", WrongPathMode::WrongPathEmulation, countdown_div).with_tweak(Arc::new(
            |cfg| {
                cfg.fault_model.trap_div_zero = true;
                cfg.fault_policy = FaultPolicy::AbortRun;
            },
        )),
    );
    jobs
}

#[test]
fn durable_records_and_report_are_identical_across_worker_counts() {
    let mut outputs = Vec::new();
    for workers in [1usize, 8] {
        let dir = tmp_dir(&format!("determinism-w{workers}"));
        let cfg = CampaignConfig {
            workers,
            dir: Some(dir.clone()),
            ..fast_config()
        };
        let outcome = Campaign::new(cfg)
            .run(determinism_jobs())
            .expect("campaign runs");
        // What a later process reads back from the journal.
        let durable: Vec<String> = JobQueue::open(QueueConfig::new(&dir))
            .expect("journal reopens")
            .merged_records()
            .values()
            .map(|r| r.to_value().to_json())
            .collect();
        let report = ffsim_driver::report::render(&outcome.records);
        outputs.push((durable, report));
    }
    assert_eq!(
        outputs[0].0, outputs[1].0,
        "durable records differ across worker counts"
    );
    assert_eq!(
        outputs[0].1, outputs[1].1,
        "reports differ across worker counts"
    );
}

#[test]
fn resume_skips_recorded_jobs_and_runs_only_the_rest() {
    let cfg = CampaignConfig {
        dir: Some(tmp_dir("resume")),
        ..fast_config()
    };

    let first_calls = Arc::new(AtomicU32::new(0));
    let make_jobs = |n: usize, calls: &Arc<AtomicU32>| -> Vec<Job> {
        (0..n)
            .map(|i| {
                let calls = Arc::clone(calls);
                Job::new(
                    format!("job-{i}"),
                    WrongPathMode::ConvergenceExploitation,
                    Arc::new(move || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        Ok((countdown(TRIPS)?, Memory::new()))
                    }),
                )
                .with_core(CoreConfig::tiny_for_tests())
            })
            .collect()
    };

    let first = Campaign::new(cfg.clone())
        .run(make_jobs(4, &first_calls))
        .expect("first campaign runs");
    assert_eq!(first.executed, 4);
    assert_eq!(first.resumed, 0);
    assert_eq!(first_calls.load(Ordering::SeqCst), 4);

    let second_calls = Arc::new(AtomicU32::new(0));
    let second = Campaign::new(cfg)
        .run(make_jobs(8, &second_calls))
        .expect("second campaign runs");
    assert_eq!(second.resumed, 4, "recorded jobs skipped");
    assert_eq!(second.executed, 4, "only unfinished jobs ran");
    assert_eq!(
        second_calls.load(Ordering::SeqCst),
        4,
        "resumed jobs' workload builders never invoked"
    );
    assert_eq!(second.records.len(), 8);
}

#[test]
fn damaged_journal_is_quarantined_and_the_campaign_completes() {
    let dir = tmp_dir("corrupt-recovery");
    let cfg = CampaignConfig {
        dir: Some(dir.clone()),
        ..fast_config()
    };

    // First run populates a healthy journal; then flip a byte inside its
    // first record, as bit rot would.
    let first = Campaign::new(cfg.clone())
        .run(vec![tiny_job(
            "a",
            WrongPathMode::ConvergenceExploitation,
            countdown_div,
        )])
        .expect("first campaign runs");
    assert_eq!(first.executed, 1);
    assert!(first.quarantines.is_empty());
    let journal = dir.join("queue.journal");
    let healthy = std::fs::read_to_string(&journal).expect("journal written");
    let damaged = healthy.replacen("enqueued", "enqueuex", 1);
    assert_ne!(damaged, healthy);
    std::fs::write(&journal, damaged).expect("damage journal");

    // The resumed campaign must not panic and must not trust records
    // after the damage: it quarantines, re-runs them, and completes.
    let second = Campaign::new(cfg.clone())
        .run(vec![
            tiny_job("a", WrongPathMode::ConvergenceExploitation, countdown_div),
            tiny_job("b", WrongPathMode::NoWrongPath, countdown_div),
        ])
        .expect("a damaged journal must not abort the campaign");
    assert_eq!(
        second.resumed, 0,
        "records after the damage are not trusted"
    );
    assert_eq!(second.executed, 2);
    let [quarantine] = &second.quarantines[..] else {
        panic!(
            "expected exactly one quarantine notice: {:?}",
            second.quarantines
        );
    };
    assert!(
        matches!(
            quarantine.error,
            ffsim_driver::ManifestError::ChecksumMismatch(_)
        ),
        "{:?}",
        quarantine.error
    );
    assert!(quarantine.quarantined_to.exists(), "evidence preserved");

    // Third run resumes from the compacted, healthy log as if nothing
    // happened.
    let third = Campaign::new(cfg)
        .run(vec![
            tiny_job("a", WrongPathMode::ConvergenceExploitation, countdown_div),
            tiny_job("b", WrongPathMode::NoWrongPath, countdown_div),
        ])
        .expect("third campaign runs");
    assert_eq!(third.resumed, 2);
    assert_eq!(third.executed, 0);
    assert!(third.quarantines.is_empty());
}

#[test]
fn cancelling_the_campaign_stops_promptly_and_leaves_work_unrecorded() {
    let campaign = Campaign::new(CampaignConfig {
        default_timeout: None, // only campaign cancellation can stop the hang
        ..fast_config()
    });
    let token = campaign.cancel_token();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        token.cancel();
    });

    let jobs = vec![tiny_job(
        "endless",
        WrongPathMode::NoWrongPath,
        infinite_loop,
    )];
    let start = std::time::Instant::now();
    let outcome = campaign.run(jobs).expect("campaign returns");
    canceller.join().expect("canceller joins");

    assert!(outcome.cancelled);
    assert!(
        !outcome.records.contains_key("endless"),
        "cancelled job stays unrecorded so a resume re-runs it"
    );
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "cancellation was prompt"
    );
}

#[test]
fn telemetry_records_timing_without_touching_the_report() {
    let jobs = || {
        WrongPathMode::ALL
            .into_iter()
            .map(|mode| tiny_job(&format!("countdown/{mode}"), mode, || countdown(200)))
            .collect::<Vec<_>>()
    };

    let quiet = Campaign::new(fast_config()).run(jobs()).expect("quiet run");
    let observed = Campaign::new(CampaignConfig {
        telemetry: ffsim_driver::TelemetryConfig {
            enabled: true,
            heartbeat: Duration::from_millis(5),
        },
        ..fast_config()
    })
    .run(jobs())
    .expect("telemetry run");

    for record in observed.records.values() {
        let timing = record.timing.expect("telemetry run records timing");
        assert!(timing.run_ms >= timing.sim_wall_ms);
        assert_eq!(record.status, JobStatus::Completed);
        let cpi = record.cpi.expect("telemetry run records a CPI stack");
        let summary = record.summary.as_ref().expect("completed job has summary");
        assert_eq!(
            cpi.total(),
            summary.cycles,
            "CPI attribution telescopes to the cycle count"
        );
    }
    for record in quiet.records.values() {
        assert!(record.timing.is_none(), "telemetry off records no timing");
        assert!(record.cpi.is_none(), "telemetry off records no CPI stack");
    }
    // The deterministic report is identical either way: timing, CPI
    // stacks, and heartbeats ride stderr and the manifest only.
    assert_eq!(
        ffsim_driver::report::render(&quiet.records),
        ffsim_driver::report::render(&observed.records)
    );
    assert!(!ffsim_driver::report::render_timing(&observed.records).is_empty());
    assert!(!ffsim_driver::report::render_cpi(&observed.records).is_empty());
}
