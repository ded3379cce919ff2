//! Retry policy: bounded attempts with exponential backoff and
//! deterministic jitter.

use crate::fnv::Fnv1a;
use std::time::Duration;

/// How many times a job is attempted per degradation rung, and how long the
/// driver waits between attempts.
///
/// Backoff grows exponentially from [`base_backoff`](RetryPolicy::base_backoff)
/// and is capped at [`max_backoff`](RetryPolicy::max_backoff). Jitter is
/// *deterministic*: it is derived by hashing the job id and attempt number,
/// so a campaign's journal (which records the backoff applied to each
/// attempt) is byte-identical across runs and worker counts.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Attempts per rung before giving up on it (must be at least 1).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per attempt after that.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff interval (pre-jitter).
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// The backoff applied *after* a failed `attempt` (1-based) of `job_id`,
    /// with deterministic ±25% jitter. Returns [`Duration::ZERO`] when no
    /// further attempt follows, or when `base_backoff` is zero (tests use
    /// zero backoff to stay fast).
    #[must_use]
    pub fn backoff(&self, job_id: &str, attempt: u32) -> Duration {
        if attempt >= self.max_attempts || self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let base_ms = self.base_backoff.as_millis() as u64;
        let cap_ms = self.max_backoff.as_millis().max(1) as u64;
        let exp = attempt.saturating_sub(1).min(20);
        let raw_ms = base_ms.saturating_mul(1u64 << exp).min(cap_ms);
        // Deterministic jitter in [-25%, +25%]: scale by (3/4 + h/2) where
        // h in [0, 1) comes from an FNV-1a hash of (job_id, attempt).
        let h = Fnv1a::new()
            .update(job_id.as_bytes())
            .update(&attempt.to_le_bytes())
            .finish()
            % 1000;
        let jittered = raw_ms * (750 + h / 2) / 1000;
        Duration::from_millis(jittered.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(400),
        };
        for attempt in 1..5 {
            let a = policy.backoff("job-a", attempt);
            assert_eq!(a, policy.backoff("job-a", attempt));
            assert!(a >= Duration::from_millis(1));
            assert!(a <= Duration::from_millis(500)); // cap + 25% jitter
        }
        // Last attempt never sleeps: nothing follows it.
        assert_eq!(policy.backoff("job-a", 5), Duration::ZERO);
    }

    #[test]
    fn backoff_grows_with_attempts() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(64),
            max_backoff: Duration::from_secs(60),
        };
        // Jitter is at most ±25%, doubling dominates it.
        assert!(policy.backoff("x", 3) > policy.backoff("x", 1));
        assert!(policy.backoff("x", 5) > policy.backoff("x", 3));
    }

    #[test]
    fn zero_base_disables_sleeping() {
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::from_secs(1),
        };
        assert_eq!(policy.backoff("x", 1), Duration::ZERO);
    }

    #[test]
    fn jitter_varies_across_jobs() {
        let policy = RetryPolicy::default();
        let distinct: std::collections::HashSet<_> = (0..16)
            .map(|i| policy.backoff(&format!("job-{i}"), 1))
            .collect();
        assert!(distinct.len() > 1, "jitter should separate job ids");
    }
}
