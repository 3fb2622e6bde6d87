//! Retry/timeout/backoff policy for failure-aware message delivery.
//!
//! When a message attempt is lost (per the schedule's drop probability),
//! the sender notices after `timeout_us`, waits an exponentially growing
//! backoff, and retries. The policy is a plain cost model: it decides how
//! much *time* a retry sequence costs, not whether delivery ultimately
//! succeeds — after `max_retries` the transport escalates (in real MPI the
//! job would abort; our network delivers on the final attempt and counts
//! the exhaustion so experiments can report it).

/// A retransmission policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail immediately).
    pub max_retries: u32,
    /// Time for the sender to detect a lost attempt, microseconds.
    pub timeout_us: f64,
    /// Backoff before the first retry, microseconds.
    pub backoff_us: f64,
    /// Multiplier applied to the backoff after every failed retry.
    pub backoff_factor: f64,
}

impl RetryPolicy {
    /// A sensible default: 4 retries, 100 µs timeout, 50 µs initial
    /// backoff doubling per attempt.
    pub fn default_policy() -> Self {
        RetryPolicy {
            max_retries: 4,
            timeout_us: 100.0,
            backoff_us: 50.0,
            backoff_factor: 2.0,
        }
    }

    /// The backoff delay before retry `attempt` (0-based): exponential in
    /// the attempt number.
    pub fn backoff_before_retry_us(&self, attempt: u32) -> f64 {
        self.backoff_us * self.backoff_factor.powi(attempt as i32)
    }

    /// Total extra latency of `failures` consecutive lost attempts:
    /// each costs the detection timeout plus its backoff.
    pub fn penalty_us(&self, failures: u32) -> f64 {
        (0..failures)
            .map(|a| self.timeout_us + self.backoff_before_retry_us(a))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let p = RetryPolicy::default_policy();
        assert_eq!(p.backoff_before_retry_us(0), 50.0);
        assert_eq!(p.backoff_before_retry_us(1), 100.0);
        assert_eq!(p.backoff_before_retry_us(3), 400.0);
    }

    #[test]
    fn penalty_accumulates_timeout_plus_backoff() {
        let p = RetryPolicy {
            max_retries: 3,
            timeout_us: 10.0,
            backoff_us: 1.0,
            backoff_factor: 2.0,
        };
        assert_eq!(p.penalty_us(0), 0.0);
        assert_eq!(p.penalty_us(1), 11.0);
        assert_eq!(p.penalty_us(2), 11.0 + 12.0);
        assert_eq!(p.penalty_us(3), 11.0 + 12.0 + 14.0);
    }
}
