//! # ffsim-bench — experiment harness
//!
//! Regenerates every table and figure of *“Simulating Wrong-Path
//! Instructions in Decoupled Functional-First Simulation”* (Eyerman et
//! al., ISPASS 2023) on this repository's from-scratch simulator stack.
//! One binary per experiment:
//!
//! | target | paper artifact |
//! |---|---|
//! | `table1_config` | Table I — simulated core configuration |
//! | `fig1_nowp_error` | Fig. 1 — error of no-wrong-path modeling, GAP |
//! | `fig4_gap_techniques` | Fig. 4 (left) — error per technique, GAP |
//! | `fig4_spec_distribution` | Fig. 4 (right) — error distribution, SPEC-like |
//! | `table2_wp_fraction` | Table II — wrong-path instructions executed |
//! | `table3_convergence` | Table III — convergence-technique metrics |
//! | `speed_comparison` | §V-B — simulation-speed slowdowns |
//! | `ablations` | design-choice studies (not in the paper) |
//! | `fault_injection` | robustness — wrong-path fault injection (not in the paper) |
//!
//! The library half holds the shared experiment setup: canonical workload
//! scales, per-mode runners, and plain-text table/histogram formatting.

#![warn(missing_docs)]

use ffsim_core::{SimConfig, SimResult, Simulator, TechniqueRegistry, WrongPathMode};
use ffsim_driver::{Campaign, CampaignConfig, Job, JobRecord, RetryPolicy, WorkloadFn};
use ffsim_uarch::CoreConfig;
use ffsim_workloads::speclike::{all_speclike, SpecKernel};
use ffsim_workloads::{gap, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// log2 of the GAP graph vertex count used by the experiments.
pub const GAP_SCALE: u32 = 14;
/// Average degree of the GAP graphs.
pub const GAP_DEGREE: usize = 16;
/// RNG seed for graph generation (all experiments are deterministic).
pub const GAP_SEED: u64 = 42;
/// Correct-path instruction budget per GAP simulation.
pub const GAP_MAX_INSTRUCTIONS: u64 = 3_000_000;
/// Correct-path instruction budget per SPEC-like simulation.
pub const SPEC_MAX_INSTRUCTIONS: u64 = 1_500_000;
/// Seed for the SPEC-like suite.
pub const SPEC_SEED: u64 = 2026;

/// The GAP suite at experiment scale (bc, bfs, cc, pr, sssp, tc).
#[must_use]
pub fn gap_suite() -> Vec<Workload> {
    gap::all_gap(GAP_SCALE, GAP_DEGREE, GAP_SEED)
}

/// The SPEC-like suite at experiment scale.
#[must_use]
pub fn spec_suite() -> Vec<SpecKernel> {
    all_speclike(1, SPEC_SEED)
}

/// Parses a `--techniques label[,label...]` specification against the
/// labels in [`TechniqueRegistry::builtin`]. The result is deduplicated
/// and normalized to registry order, so experiment output does not depend
/// on the order labels were typed in.
///
/// # Errors
///
/// An unknown label (the message lists the registered ones) or an empty
/// specification.
pub fn parse_techniques(spec: &str) -> Result<Vec<WrongPathMode>, String> {
    let registry = TechniqueRegistry::builtin();
    let mut selected: Vec<WrongPathMode> = Vec::new();
    for label in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let Some((_, mode)) = registry.entries().find(|(l, _)| *l == label) else {
            let known: Vec<&str> = registry.entries().map(|(l, _)| l).collect();
            return Err(format!(
                "unknown technique `{label}` (registered: {})",
                known.join(", ")
            ));
        };
        if !selected.contains(&mode) {
            selected.push(mode);
        }
    }
    if selected.is_empty() {
        return Err("--techniques needs at least one technique label".into());
    }
    Ok(registry
        .entries()
        .map(|(_, m)| m)
        .filter(|m| selected.contains(m))
        .collect())
}

/// Parses an experiment binary's command line, supporting the shared
/// `--techniques <label,...>` filter. No filter means every registered
/// technique, so default output is unchanged.
///
/// # Errors
///
/// Unknown flags, a missing value, or any error from
/// [`parse_techniques`].
pub fn techniques_from_args() -> Result<Vec<WrongPathMode>, String> {
    let mut modes: Option<Vec<WrongPathMode>> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--techniques" => {
                let spec = argv.next().ok_or("--techniques needs a value")?;
                modes = Some(parse_techniques(&spec)?);
            }
            other => {
                return Err(format!(
                    "unknown argument: {other} (supported: --techniques <label,...>)"
                ))
            }
        }
    }
    Ok(modes.unwrap_or_else(|| WrongPathMode::ALL.to_vec()))
}

/// Runs one workload under a specific mode.
///
/// # Panics
///
/// The experiment workloads are canonical and fault-free; any
/// [`SimError`](ffsim_core::SimError) here is a harness bug and panics
/// with the typed error's message.
#[must_use]
pub fn run_mode(
    workload: &Workload,
    core: &CoreConfig,
    mode: WrongPathMode,
    max_instructions: u64,
) -> SimResult {
    let mut cfg = SimConfig::with_core(core.clone(), mode);
    cfg.max_instructions = Some(max_instructions);
    Simulator::new(workload.program().clone(), workload.memory().clone(), cfg)
        .and_then(Simulator::run)
        .unwrap_or_else(|e| panic!("experiment workload failed under {mode}: {e}"))
}

/// Runs one workload under all four modes (paper order).
#[must_use]
pub fn run_modes(workload: &Workload, core: &CoreConfig, max_instructions: u64) -> [SimResult; 4] {
    WrongPathMode::ALL.map(|mode| run_mode(workload, core, mode, max_instructions))
}

/// A [`WorkloadFn`] serving clones of an already-built program and memory
/// image. Harness workloads are generated once (graph construction is the
/// expensive part) and cloned per attempt.
#[must_use]
pub fn owned_workload(program: ffsim_isa::Program, memory: ffsim_emu::Memory) -> WorkloadFn {
    Arc::new(move || Ok((program.clone(), memory.clone())))
}

/// A [`WorkloadFn`] for a harness [`Workload`].
#[must_use]
pub fn workload_fn(workload: &Workload) -> WorkloadFn {
    owned_workload(workload.program().clone(), workload.memory().clone())
}

/// Runs a set of named jobs through the supervised campaign driver and
/// returns their records keyed by job id.
///
/// Harness semantics differ from production campaigns: the workloads are
/// deterministic, so attempts are not retried (a retry would fail
/// identically) and the degradation ladder is disabled per job by the
/// caller where failure must surface. Jobs run in parallel across the
/// worker pool with panic isolation and a per-job watchdog deadline, so
/// one faulting experiment cannot take down or hang the whole binary.
///
/// # Panics
///
/// Panics on campaign-level errors (duplicate ids). Individual job
/// failures are returned in the records; use [`expect_sim`] for jobs that
/// must have succeeded.
#[must_use]
pub fn run_supervised(jobs: Vec<Job>) -> BTreeMap<String, JobRecord> {
    let campaign = Campaign::new(CampaignConfig {
        workers: 0,
        retry: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        default_timeout: Some(Duration::from_secs(600)),
        ..CampaignConfig::default()
    });
    campaign
        .run(jobs)
        .unwrap_or_else(|e| panic!("experiment campaign failed: {e}"))
        .records
}

/// The full result of a job that must have succeeded.
///
/// # Panics
///
/// Panics with the job's recorded attempt history when it is missing or
/// did not complete — any failure of a canonical experiment workload is a
/// harness bug.
#[must_use]
pub fn expect_sim<'a>(records: &'a BTreeMap<String, JobRecord>, id: &str) -> &'a SimResult {
    let record = records
        .get(id)
        .unwrap_or_else(|| panic!("experiment job {id} has no record"));
    record
        .sim
        .as_ref()
        .unwrap_or_else(|| panic!("experiment job {id} failed: {:?}", record.attempts))
}

/// Renders a plain-text table with aligned columns.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (c, cell) in cells.iter().enumerate() {
            if c > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:>w$}", w = widths[c]));
        }
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Renders a text histogram (one row per bucket) for error distributions,
/// in the spirit of the paper's Fig. 4 (right).
#[must_use]
pub fn render_histogram(values: &[(String, f64)], bucket_edges: &[f64]) -> String {
    let mut out = String::new();
    for window in bucket_edges.windows(2) {
        let (lo, hi) = (window[0], window[1]);
        let members: Vec<&str> = values
            .iter()
            .filter(|(_, v)| *v >= lo && *v < hi)
            .map(|(n, _)| n.as_str())
            .collect();
        out.push_str(&format!(
            "[{lo:+6.1}%, {hi:+6.1}%) {:3} {} {}\n",
            members.len(),
            "#".repeat(members.len()),
            members.join(" ")
        ));
    }
    out
}

/// Arithmetic mean (0 for an empty slice).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Mean of absolute values (the paper reports average |error|).
#[must_use]
pub fn mean_abs(values: &[f64]) -> f64 {
    mean(&values.iter().map(|v| v.abs()).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("2.5"));
    }

    #[test]
    fn histogram_buckets() {
        let h = render_histogram(
            &[("a".into(), -5.0), ("b".into(), 0.1), ("c".into(), 0.2)],
            &[-10.0, -1.0, 1.0, 10.0],
        );
        assert!(h.contains("a"));
        let lines: Vec<&str> = h.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains("##"));
    }

    #[test]
    fn technique_filter_accepts_registered_labels() {
        assert_eq!(
            parse_techniques("nowp,wpemul").unwrap(),
            vec![
                WrongPathMode::NoWrongPath,
                WrongPathMode::WrongPathEmulation
            ]
        );
    }

    #[test]
    fn technique_filter_normalizes_order_and_dedupes() {
        assert_eq!(
            parse_techniques("wpemul, conv ,conv,instrec").unwrap(),
            vec![
                WrongPathMode::InstructionReconstruction,
                WrongPathMode::ConvergenceExploitation,
                WrongPathMode::WrongPathEmulation
            ]
        );
    }

    #[test]
    fn technique_filter_rejects_unknown_labels_listing_the_registry() {
        let err = parse_techniques("nowp,typo").unwrap_err();
        assert!(err.contains("unknown technique `typo`"), "{err}");
        for label in ["nowp", "instrec", "conv", "wpemul"] {
            assert!(err.contains(label), "{err} should list {label}");
        }
        assert!(parse_techniques("").is_err(), "empty spec is an error");
        assert!(parse_techniques(" , ").is_err(), "blank labels only");
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean_abs(&[-1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
