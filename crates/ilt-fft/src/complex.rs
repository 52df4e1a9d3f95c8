//! A minimal double-precision complex number.
//!
//! The lithography stack only needs a handful of complex operations
//! (arithmetic, conjugation, magnitude, unit-phase construction), so we carry
//! our own value type instead of pulling in an external numerics crate.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// # Examples
///
/// ```
/// use ilt_fft::Complex64;
///
/// let i = Complex64::new(0.0, 1.0);
/// assert_eq!(i * i, Complex64::new(-1.0, 0.0));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    ///
    /// # Examples
    ///
    /// ```
    /// use ilt_fft::Complex64;
    /// assert_eq!(Complex64::from_real(2.5).im, 0.0);
    /// ```
    #[inline]
    pub const fn from_real(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates the unit-magnitude complex number `e^{i theta}`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ilt_fft::Complex64;
    /// let w = Complex64::from_polar_angle(std::f64::consts::PI);
    /// assert!((w.re + 1.0).abs() < 1e-15);
    /// ```
    #[inline]
    pub fn from_polar_angle(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex64 { re: c, im: s }
    }

    /// Returns the complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex64 { re: self.re, im: -self.im }
    }

    /// Returns the squared magnitude `re^2 + im^2`.
    ///
    /// This is the quantity accumulated by the Hopkins intensity model
    /// (`|h_k (x) M|^2`), so it gets a dedicated, sqrt-free accessor.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Returns the magnitude `sqrt(re^2 + im^2)`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex64 { re: self.re * s, im: self.im * s }
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64::from_real(re)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Complex64 { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Complex64 { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Complex64 {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Complex64) -> Complex64 {
        rhs.scale(self)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        Complex64 {
            re: (self.re * rhs.re + self.im * rhs.im) / d,
            im: (self.im * rhs.re - self.re * rhs.im) / d,
        }
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Complex64 { re: self.re / rhs, im: self.im / rhs }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        Complex64 { re: -self.re, im: -self.im }
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z + Complex64::ZERO, z);
        assert_eq!(z * Complex64::ONE, z);
        assert!(close(z / z, Complex64::ONE));
        assert_eq!(-(-z), z);
    }

    #[test]
    fn conjugate_and_norms() {
        let z = Complex64::new(3.0, 4.0);
        assert_eq!(z.conj(), Complex64::new(3.0, -4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
        // z * conj(z) is |z|^2
        assert!(close(z * z.conj(), Complex64::from_real(25.0)));
    }

    #[test]
    fn polar_roundtrip() {
        for k in 0..16 {
            let theta = k as f64 * std::f64::consts::TAU / 16.0;
            let w = Complex64::from_polar_angle(theta);
            assert!((w.abs() - 1.0).abs() < 1e-15);
        }
        // e^{i pi/2} = i
        assert!(close(
            Complex64::from_polar_angle(std::f64::consts::FRAC_PI_2),
            Complex64::new(0.0, 1.0)
        ));
    }

    #[test]
    fn division_matches_multiplication() {
        let a = Complex64::new(1.5, -2.0);
        let b = Complex64::new(-0.5, 3.25);
        assert!(close((a / b) * b, a));
    }

    #[test]
    fn mixed_scalar_ops() {
        let z = Complex64::new(1.0, 2.0);
        assert_eq!(z * 2.0, Complex64::new(2.0, 4.0));
        assert_eq!(2.0 * z, z * 2.0);
        assert_eq!(z / 2.0, Complex64::new(0.5, 1.0));
    }

    #[test]
    fn sum_of_roots_of_unity_is_zero() {
        let n = 8;
        let s: Complex64 = (0..n)
            .map(|k| Complex64::from_polar_angle(std::f64::consts::TAU * k as f64 / n as f64))
            .sum();
        assert!(s.abs() < 1e-14);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex64::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex64::new(1.0, -2.0).to_string(), "1-2i");
    }
}
