//! Work accounting: flops performed and bytes moved.
//!
//! Every numerical kernel in the substrates returns a `Work` record. The
//! benchmark harness runs the *same* kernels at paper scale (or evaluates
//! their closed-form work models, which the tests validate against
//! instrumented runs) and hands the totals to the roofline cost model.

use std::ops::{Add, AddAssign, Mul};

/// Floating-point operations and memory traffic performed by a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Work {
    /// Double-precision floating-point operations.
    pub flops: u64,
    /// Bytes read from memory (beyond cache), as counted by the kernel's
    /// streaming model: each input array counted once per sweep.
    pub bytes_read: u64,
    /// Bytes written to memory.
    pub bytes_written: u64,
}

impl Work {
    /// No work.
    pub const ZERO: Work = Work {
        flops: 0,
        bytes_read: 0,
        bytes_written: 0,
    };

    /// Construct from raw counts.
    pub fn new(flops: u64, bytes_read: u64, bytes_written: u64) -> Self {
        Work {
            flops,
            bytes_read,
            bytes_written,
        }
    }

    /// Total bytes moved (read + written).
    pub fn bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Arithmetic intensity in flops/byte; infinite if no traffic.
    pub fn arithmetic_intensity(&self) -> f64 {
        let b = self.bytes();
        if b == 0 {
            f64::INFINITY
        } else {
            self.flops as f64 / b as f64
        }
    }
}

impl Add for Work {
    type Output = Work;
    fn add(self, rhs: Work) -> Work {
        Work {
            flops: self.flops + rhs.flops,
            bytes_read: self.bytes_read + rhs.bytes_read,
            bytes_written: self.bytes_written + rhs.bytes_written,
        }
    }
}

impl AddAssign for Work {
    fn add_assign(&mut self, rhs: Work) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for Work {
    type Output = Work;
    /// Scale the work by a repetition count.
    fn mul(self, n: u64) -> Work {
        Work {
            flops: self.flops * n,
            bytes_read: self.bytes_read * n,
            bytes_written: self.bytes_written * n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_scale() {
        let a = Work::new(10, 20, 30);
        let b = Work::new(1, 2, 3);
        assert_eq!(a + b, Work::new(11, 22, 33));
        assert_eq!(b * 3, Work::new(3, 6, 9));
        let mut c = Work::ZERO;
        c += a;
        assert_eq!(c, a);
    }

    #[test]
    fn intensity() {
        let w = Work::new(100, 25, 25);
        assert!((w.arithmetic_intensity() - 2.0).abs() < 1e-12);
        assert_eq!(Work::new(5, 0, 0).arithmetic_intensity(), f64::INFINITY);
        assert_eq!(w.bytes(), 50);
    }
}
