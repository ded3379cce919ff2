//! The campaign phase of a run: 500 tiny simulation jobs submitted in a
//! closed loop over one loopback `ServeClient` connection to an in-process
//! `CampaignServer`, drained by one worker through a durable `JobQueue`
//! with a result cache. Simulation cost is negligible, so journal, manifest
//! shards, cache and wire do the work.

use crate::probe::{Probe, NOMINAL_NS};
use crate::sim::Mix;
use crate::stats::{median, quantile, ratio, written_bytes, Outcome};
use crate::tracer::{CountingIo, IoCounts};
use ffsim_driver::cache::workload_digest;
use ffsim_driver::{
    mode_from_label, report, Job, JobQueue, JobStatus, QueueConfig, RetryPolicy, SharedIo,
    TelemetryConfig,
};
use ffsim_emu::Memory;
use ffsim_isa::{Asm, Program, Reg};
use ffsim_serve::{CampaignServer, JobFactory, JobSpec, ServeClient, ServeConfig, SubmitOutcome};
use ffsim_uarch::CoreConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CAMPAIGN: &str = "bench";
const MODES: [&str; 4] = ["nowp", "instrec", "conv", "wpemul"];
/// Distinct (program, trips) pairs; each runs under all four modes.
const PROGRAMS: usize = 100;
/// Jobs with fresh ids whose content repeats an earlier job: served by the
/// result cache.
const CACHED_REPEATS: usize = 100;
/// Byte-identical resubmits: answered by the server's dedup map.
const RESUBMITS: usize = 50;
/// Timed `JobQueue::open` calls on each timed campaign's directory; the
/// warm-up campaign's directory is opened once, untimed.
const REOPENS: usize = 3;
/// The server's expired-lease reap tick.
const REAP_INTERVAL: Duration = Duration::from_millis(10);

/// The fixture's programs by (workload name, trips).
type Programs = BTreeMap<(String, i64), Program>;
/// Builds one workload's program for a trip count.
type ProgramFn = fn(i64) -> Result<Program, String>;

/// One submit of the fixture, in submission order.
#[derive(Clone, Debug, PartialEq)]
struct Submit {
    spec: JobSpec,
    /// A byte-identical repeat of an earlier submit.
    resubmit: bool,
}

/// The campaign's inputs: the submit sequence and the programs the
/// server's factory attaches to job specs.
pub struct Fixture {
    submits: Vec<Submit>,
    programs: Arc<Programs>,
    pub setup: Setup,
}

impl Fixture {
    fn jobs(&self) -> usize {
        self.submits.iter().filter(|s| !s.resubmit).count()
    }
}

/// Repeated, timed builds of the fixture.
pub struct Setup {
    mix: Mix,
    seed: u64,
    batch: usize,
    /// The first build's submits and program digests.
    first: (Vec<Submit>, Vec<u64>),
    /// Wall time of one build, one entry per sample.
    times: Vec<f64>,
}

impl Setup {
    /// Times `batch` builds back to back, records the time per build and
    /// returns it; every build must equal the first.
    pub fn sample(&mut self, out: &mut Outcome) -> f64 {
        let started = Instant::now();
        let builds: Vec<_> = (0..self.batch)
            .map(|_| build_fixture(self.mix, self.seed))
            .collect();
        let per_build = started.elapsed().as_secs_f64() / self.batch as f64;
        self.times.push(per_build);
        for build in builds {
            let same = build.map(|(submits, programs)| (submits, digests(&programs)) == self.first);
            out.check(matches!(same, Ok(true)), || {
                format!("campaign fixture build is not deterministic: {same:?}")
            });
        }
        per_build
    }

    /// Median wall time of one build.
    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }
}

/// A countdown loop with a divide per trip.
fn countdown(trips: i64) -> Result<Program, String> {
    let (i, c, q) = (Reg::new(1), Reg::new(2), Reg::new(3));
    let mut a = Asm::new();
    a.li(i, trips);
    a.li(c, 1_000_003);
    a.label("loop");
    a.div(q, c, i);
    a.addi(i, i, -1);
    a.bnez(i, "loop");
    a.halt();
    a.assemble().map_err(|e| e.to_string())
}

/// A count-up loop with a data-dependent branch every trip.
fn parity(trips: i64) -> Result<Program, String> {
    let (i, n, t, acc) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
    let mut a = Asm::new();
    a.li(i, 0);
    a.li(n, trips);
    a.li(acc, 0);
    a.label("loop");
    a.mul(t, i, i);
    a.srli(t, t, 3);
    a.andi(t, t, 1);
    a.beqz(t, "skip");
    a.addi(acc, acc, 7);
    a.label("skip");
    a.addi(i, i, 1);
    a.blt(i, n, "loop");
    a.halt();
    a.assemble().map_err(|e| e.to_string())
}

/// The campaign's program: the wrong-path mix drains branchy `parity`
/// jobs, the FP mix predictable `countdown` ones.
fn kind(mix: Mix) -> (&'static str, ProgramFn) {
    match mix {
        Mix::WrongPathHeavy => ("parity", parity),
        Mix::CorrectPathFp => ("countdown", countdown),
    }
}

fn build_fixture(mix: Mix, seed: u64) -> Result<(Vec<Submit>, Programs), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut programs = BTreeMap::new();
    let mut unique = Vec::new();
    let (kind, build) = kind(mix);
    for p in 0..PROGRAMS {
        // Distinct programs, so only the repeats below hit the cache.
        let mut trips = 64 + rng.gen_range(0..256usize) as i64;
        while programs.contains_key(&(kind.to_string(), trips)) {
            trips += 1;
        }
        programs.insert((kind.to_string(), trips), build(trips)?);
        for mode in MODES {
            unique.push(JobSpec {
                id: format!("{kind}-{p:03}/{mode}"),
                mode: mode.to_string(),
                workload: kind.to_string(),
                arg: trips,
                priority: 0,
            });
        }
    }
    // Resubmits land at random points, each repeating a job submitted
    // before it.
    let mut resubmit_after: Vec<usize> = (0..RESUBMITS)
        .map(|_| rng.gen_range(0..unique.len()))
        .collect();
    resubmit_after.sort_unstable();
    let mut submits = Vec::new();
    let mut pending = resubmit_after.iter().peekable();
    for (i, spec) in unique.iter().enumerate() {
        submits.push(Submit {
            spec: spec.clone(),
            resubmit: false,
        });
        while pending.next_if(|&&after| after == i).is_some() {
            submits.push(Submit {
                spec: unique[rng.gen_range(0..i + 1)].clone(),
                resubmit: true,
            });
        }
    }
    // Cache repeats come last: with one FIFO worker their originals have
    // committed before they run.
    for r in 0..CACHED_REPEATS {
        let mut spec = unique[rng.gen_range(0..unique.len())].clone();
        spec.id = format!("repeat-{r:03}/{}", spec.mode);
        submits.push(Submit {
            spec,
            resubmit: false,
        });
    }
    Ok((submits, programs))
}

fn digests(programs: &Programs) -> Vec<u64> {
    programs
        .values()
        .map(|p| workload_digest(p, &Memory::new()))
        .collect()
}

/// Builds the fixture once; set-up samples are taken by the caller.
pub fn setup(mix: Mix, seed: u64, batch: usize) -> Result<Fixture, String> {
    let (submits, programs) = build_fixture(mix, seed)?;
    let setup = Setup {
        mix,
        seed,
        batch,
        first: (submits.clone(), digests(&programs)),
        times: Vec::new(),
    };
    Ok(Fixture {
        submits,
        programs: Arc::new(programs),
        setup,
    })
}

fn factory(programs: Arc<Programs>) -> JobFactory {
    Arc::new(move |spec: &JobSpec| {
        let mode = mode_from_label(&spec.mode).ok_or("unknown mode")?;
        let program = programs
            .get(&(spec.workload.clone(), spec.arg))
            .cloned()
            .ok_or_else(|| format!("unknown workload {} {}", spec.workload, spec.arg))?;
        let workload = Arc::new(move || Ok((program.clone(), Memory::new())));
        Ok(Job::new(&spec.id, mode, workload).with_core(CoreConfig::tiny_for_tests()))
    })
}

fn queue_config(dir: &Path, io: SharedIo) -> QueueConfig {
    QueueConfig {
        workers: 1,
        cache_dir: Some(dir.join("cache")),
        io,
        telemetry: TelemetryConfig::default(),
        ..QueueConfig::new(dir.join("queue"))
    }
}

/// What one campaign measured.
struct Drained {
    wall: Duration,
    /// Bytes the process wrote to files and sockets over the same interval.
    written: f64,
    report: String,
    /// Client-side `submit` latencies.
    submit_us: Vec<f64>,
    dedup_hits: u64,
    committed: usize,
    cached: usize,
    sim_s: f64,
}

/// Runs one campaign in a fresh directory and checks its outcome.
fn drain(fx: &Fixture, dir: &Path, io: SharedIo, out: &mut Outcome) -> Result<Drained, String> {
    let queue = JobQueue::open(queue_config(dir, io)).map_err(|e| e.to_string())?;
    // `run` returns only after its reap thread wakes; the default 250 ms
    // tick would add up to a quarter second of idle time to the campaign.
    let serve = ServeConfig {
        reap_interval: REAP_INTERVAL,
        ..ServeConfig::default()
    };
    let server = CampaignServer::new(queue, factory(fx.programs.clone()), serve);
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let mut client = ServeClient::tcp(addr, Duration::from_secs(30), RetryPolicy::default());
    let mut submit_us = Vec::with_capacity(fx.submits.len());
    let (outcome, wall, written) = std::thread::scope(|scope| {
        let running = scope.spawn(|| server.run(listener));
        let mut client_side = || -> Result<(Instant, f64), String> {
            client
                .register(CAMPAIGN, 1, 0, None)
                .map_err(|e| format!("register: {e}"))?;
            let started = (Instant::now(), written_bytes());
            for s in &fx.submits {
                let t = Instant::now();
                let answer = client.submit(CAMPAIGN, s.spec.clone());
                submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                let ok = matches!(answer, Ok((SubmitOutcome::Accepted, deduped)) if deduped == s.resubmit);
                out.check(ok, || format!("submit {}: {answer:?}", s.spec.id));
            }
            client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
            Ok(started)
        };
        let started = client_side();
        if started.is_err() {
            // Stop the server so the scope can end.
            server.queue().cancel_token().cancel();
            let _ = client.shutdown();
        }
        let outcome = running.join().map_err(|_| "server panicked".to_string());
        let (started, written0) = started?;
        let outcome = outcome?.map_err(|e| e.to_string())?;
        Ok::<_, String>((outcome, started.elapsed(), written_bytes() - written0))
    })?;

    let records = server.queue().merged_records();
    let stats = server.queue().stats();
    let committed = records
        .values()
        .filter(|r| r.status == JobStatus::Completed)
        .count();
    out.check(
        committed == fx.jobs()
            && records.len() == fx.jobs()
            && stats.failed == 0
            && stats.quarantined == 0
            && !outcome.cancelled,
        || {
            format!(
                "campaign: {committed} of {} jobs committed ({stats:?}, cancelled {})",
                fx.jobs(),
                outcome.cancelled
            )
        },
    );
    Ok(Drained {
        wall,
        written,
        report: outcome.report,
        submit_us,
        dedup_hits: outcome.dedup_hits,
        committed,
        cached: records.values().filter(|r| r.cached).count(),
        sim_s: records
            .values()
            .filter_map(|r| r.sim.as_ref())
            .map(|s| s.wall_time.as_secs_f64())
            .sum(),
    })
}

/// Re-opens the drained queue `opens` times, timing each open between two
/// probes, and checks the recovered records render the report the server
/// returned. Returns each open's raw and calibrated seconds.
fn reopen(
    dir: &Path,
    opens: usize,
    report_text: &str,
    probe: &mut Probe,
    out: &mut Outcome,
) -> Result<Vec<(f64, f64)>, String> {
    let mut times = Vec::new();
    for _ in 0..opens {
        let before = probe.run();
        let started = Instant::now();
        let queue = JobQueue::open(queue_config(dir, SharedIo::default()))
            .map_err(|e| format!("reopen: {e}"))?;
        let open_s = started.elapsed().as_secs_f64();
        let after = probe.run();
        times.push((open_s, open_s * NOMINAL_NS / ((before + after) / 2.0)));
        let mut text = report::render(&queue.merged_records());
        text.push_str(&report::render_poison(&queue.poison_jobs()));
        text.push_str(&report::render_quarantines(&queue.recovery().quarantines));
        out.check(text == report_text, || {
            "reopened queue renders a different report".into()
        });
    }
    Ok(times)
}

/// Campaigns in fresh directories under `work`. The first warms the page
/// cache and the allocator; it is checked but not timed. Plain runs report
/// recovery time and bytes written per job. Traced runs install the
/// counting `ManifestIo` and report the layer split and throughput:
/// campaign throughput is not gated, because it does not repeat across
/// processes on a shared host (see `README.md`).
pub struct Campaigns {
    work: PathBuf,
    traced: bool,
    /// Campaigns run so far, the warm-up included.
    n: usize,
    rates: Vec<f64>,
    opens: Vec<f64>,
    written_kib: Vec<f64>,
    submit_us: Vec<f64>,
    first_report: Option<String>,
    io_counts: Arc<IoCounts>,
    wall_s: f64,
    jobs: usize,
    cached: usize,
    sim_s: f64,
    dedup: u64,
}

impl Campaigns {
    pub fn new(work: &Path, traced: bool) -> Campaigns {
        Campaigns {
            work: work.to_path_buf(),
            traced,
            n: 0,
            rates: Vec::new(),
            opens: Vec::new(),
            written_kib: Vec::new(),
            submit_us: Vec::new(),
            first_report: None,
            io_counts: Arc::new(IoCounts::default()),
            wall_s: 0.0,
            jobs: 0,
            cached: 0,
            sim_s: 0.0,
            dedup: 0,
        }
    }

    /// Timed campaigns so far.
    pub fn timed(&self) -> usize {
        self.rates.len()
    }

    /// Drains one campaign, re-opens its queue and removes its directory.
    pub fn run(
        &mut self,
        fx: &Fixture,
        probe: &mut Probe,
        out: &mut Outcome,
    ) -> Result<(), String> {
        let n = self.n;
        let dir = self.work.join(format!("campaign-{n}"));
        let io = if self.traced {
            SharedIo::new(CountingIo {
                counts: self.io_counts.clone(),
            })
        } else {
            SharedIo::default()
        };
        let d = drain(fx, &dir, io, out)?;
        let opens = if n == 0 { 1 } else { REOPENS };
        let reopened = reopen(&dir, opens, &d.report, probe, out)?;
        let first = self.first_report.get_or_insert_with(|| d.report.clone());
        out.check(*first == d.report, || {
            format!("campaign {n}: report differs from the first campaign's")
        });
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
        eprintln!(
            "wpbench: campaign {n}: {} jobs in {:.3} s, {:.0} KiB written, \
             reopen (raw, calibrated) {reopened:.3?} s",
            d.committed,
            d.wall.as_secs_f64(),
            d.written / 1024.0,
        );
        self.n += 1;
        if n == 0 {
            self.io_counts.reset();
            return Ok(());
        }
        self.opens
            .extend(reopened.iter().map(|&(_, calibrated)| calibrated));
        self.rates.push(d.committed as f64 / d.wall.as_secs_f64());
        self.written_kib
            .push(d.written / 1024.0 / d.committed as f64);
        self.wall_s += d.wall.as_secs_f64();
        self.jobs += d.committed;
        self.cached += d.cached;
        self.sim_s += d.sim_s;
        self.dedup += d.dedup_hits;
        self.submit_us.extend(d.submit_us);
        Ok(())
    }

    /// Prints `recover_s` (calibrated) and `written_kib_per_job`, medians
    /// over the timed campaigns.
    pub fn report_plain(&self, out: &mut Outcome) {
        eprintln!(
            "wpbench: {} timed campaigns: jobs/s median {:.1}",
            self.timed(),
            median(&self.rates)
        );
        out.metric("recover_s", median(&self.opens), "s");
        out.metric("written_kib_per_job", median(&self.written_kib), "KiB");
    }

    /// Prints the traced pass's per-layer metrics of the campaign.
    pub fn report_layers(&self, out: &mut Outcome) {
        out.metric("campaign.jobs_per_s", median(&self.rates), "1/s");
        let jobs = self.jobs as f64;
        let c = &self.io_counts;
        out.metric(
            "driver.bytes_written_per_job",
            ratio(c.bytes.load(Ordering::Relaxed) as f64, jobs),
            "B",
        );
        out.metric(
            "driver.io_ops_per_job",
            ratio(c.ops.load(Ordering::Relaxed) as f64, jobs),
            "count",
        );
        out.metric(
            "driver.io_share",
            ratio(c.ns.load(Ordering::Relaxed) as f64 * 1e-9, self.wall_s),
            "ratio",
        );
        out.metric("driver.sim_share", ratio(self.sim_s, self.wall_s), "ratio");
        out.metric(
            "driver.cache_hit_ratio",
            ratio(self.cached as f64, jobs),
            "ratio",
        );
        out.metric("serve.submit_p50_us", quantile(&self.submit_us, 0.5), "us");
        out.metric("serve.submit_p99_us", quantile(&self.submit_us, 0.99), "us");
        out.metric(
            "serve.dedup_hits",
            ratio(self.dedup as f64, self.timed() as f64),
            "count",
        );
    }
}
