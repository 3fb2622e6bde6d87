//! A minimal double-precision complex number (dependency-free).

use std::ops::{Add, AddAssign, Mul, Neg, Sub};

/// A complex number with `f64` parts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// Zero.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };

    /// Construct from parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// `e^{iθ}`.
    pub fn cis(theta: f64) -> Self {
        Complex64 {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Scale by a real factor.
    pub fn scale(self, s: f64) -> Self {
        Complex64 {
            re: self.re * s,
            im: self.im * s,
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    fn add(self, o: Complex64) -> Complex64 {
        Complex64 {
            re: self.re + o.re,
            im: self.im + o.im,
        }
    }
}

impl AddAssign for Complex64 {
    fn add_assign(&mut self, o: Complex64) {
        self.re += o.re;
        self.im += o.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    fn sub(self, o: Complex64) -> Complex64 {
        Complex64 {
            re: self.re - o.re,
            im: self.im - o.im,
        }
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    fn mul(self, o: Complex64) -> Complex64 {
        Complex64 {
            re: self.re * o.re - self.im * o.im,
            im: self.re * o.im + self.im * o.re,
        }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    fn neg(self) -> Complex64 {
        Complex64 {
            re: -self.re,
            im: -self.im,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-3.0, 0.5);
        assert_eq!(a + b - b, a);
        assert_eq!(a * Complex64::ONE, a);
        assert_eq!((a * b).conj(), a.conj() * b.conj());
        assert_eq!(-a + a, Complex64::ZERO);
    }

    #[test]
    fn cis_on_unit_circle() {
        for k in 0..8 {
            let t = k as f64 * std::f64::consts::FRAC_PI_4;
            assert!((Complex64::cis(t).abs() - 1.0).abs() < 1e-15);
        }
        let i = Complex64::cis(std::f64::consts::FRAC_PI_2);
        assert!((i.re).abs() < 1e-15 && (i.im - 1.0).abs() < 1e-15);
    }

    #[test]
    fn multiplication_matches_polar() {
        let a = Complex64::cis(0.3).scale(2.0);
        let b = Complex64::cis(0.4).scale(3.0);
        let p = a * b;
        assert!((p.abs() - 6.0).abs() < 1e-12);
        let want = Complex64::cis(0.7).scale(6.0);
        assert!((p - want).abs() < 1e-12);
    }
}
