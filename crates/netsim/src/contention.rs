//! Injection-channel contention.
//!
//! A node's network interface serialises outgoing (and incoming) transfers:
//! two large messages leaving one node at the same time each see roughly half
//! the injection bandwidth. We model the NIC as a FIFO channel that is
//! occupied for the wire time of each transfer; a transfer starts no earlier
//! than both its issue time and the channel's free time.

/// A FIFO channel representing one node's injection (or ejection) port.
#[derive(Debug, Clone, Default)]
pub struct InjectionChannel {
    free_at_us: f64,
}

impl InjectionChannel {
    /// New idle channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the channel for a transfer issued at `issue_us` that occupies
    /// the wire for `wire_us`. Returns the completion time.
    #[inline]
    pub fn reserve(&mut self, issue_us: f64, wire_us: f64) -> f64 {
        assert!(wire_us >= 0.0, "wire time must be non-negative");
        let start = issue_us.max(self.free_at_us);
        let done = start + wire_us;
        self.free_at_us = done;
        done
    }

    /// When the channel next becomes free.
    pub fn free_at_us(&self) -> f64 {
        self.free_at_us
    }

    /// Reset to idle (used when reusing a network across benchmark repeats).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_transfers_queue() {
        let mut c = InjectionChannel::new();
        let d1 = c.reserve(0.0, 10.0);
        let d2 = c.reserve(0.0, 10.0);
        assert_eq!(d1, 10.0);
        assert_eq!(d2, 20.0); // second waits for the first
    }

    #[test]
    fn idle_channel_starts_immediately() {
        let mut c = InjectionChannel::new();
        c.reserve(0.0, 5.0);
        let d = c.reserve(100.0, 5.0);
        assert_eq!(d, 105.0);
    }
}
