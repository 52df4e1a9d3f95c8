//! The projection-lens pupil function, with defocus aberration.
//!
//! The pupil is evaluated at absolute spatial frequencies (1/nm). An ideal
//! lens transmits frequencies up to `NA / lambda`; defocus adds the paraxial
//! quadratic phase `exp(-i pi lambda z f^2)`, which is what separates the
//! nominal and "inner" (defocused) process corners of the PVBand metric.

use ilt_fft::Complex64;

/// Pupil function of a (possibly defocused) diffraction-limited lens.
///
/// # Examples
///
/// ```
/// use ilt_optics::Pupil;
///
/// let p = Pupil::new(1.35, 193.0, 0.0);
/// assert_eq!(p.eval(0.0, 0.0).re, 1.0);          // DC passes
/// assert_eq!(p.eval(0.01, 0.0).re, 0.0);         // beyond cutoff blocked
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Pupil {
    na: f64,
    wavelength_nm: f64,
    defocus_nm: f64,
    cutoff: f64,
}

impl Pupil {
    /// Creates a pupil with the given numerical aperture, wavelength (nm)
    /// and defocus distance (nm; 0 for nominal focus).
    ///
    /// # Panics
    ///
    /// Panics if `na` or `wavelength_nm` is not positive.
    pub fn new(na: f64, wavelength_nm: f64, defocus_nm: f64) -> Self {
        assert!(na > 0.0 && wavelength_nm > 0.0, "NA and wavelength must be positive");
        Pupil { na, wavelength_nm, defocus_nm, cutoff: na / wavelength_nm }
    }

    /// Cutoff frequency `NA / lambda` in 1/nm.
    #[inline]
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Evaluates the pupil at spatial frequency `(fx, fy)` in 1/nm.
    ///
    /// Returns 0 outside the cutoff; inside, a unit-magnitude value carrying
    /// the defocus phase `-pi lambda z (fx^2 + fy^2)`.
    #[inline]
    pub fn eval(&self, fx: f64, fy: f64) -> Complex64 {
        let f2 = fx * fx + fy * fy;
        if f2 > self.cutoff * self.cutoff {
            return Complex64::ZERO;
        }
        if self.defocus_nm == 0.0 {
            Complex64::ONE
        } else {
            let phase = -std::f64::consts::PI * self.wavelength_nm * self.defocus_nm * f2;
            Complex64::from_polar_angle(phase)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cutoff_is_sharp() {
        let p = Pupil::new(1.35, 193.0, 0.0);
        let c = p.cutoff();
        assert_eq!(p.eval(c * 0.999, 0.0), Complex64::ONE);
        assert_eq!(p.eval(c * 1.001, 0.0), Complex64::ZERO);
        // Rotationally symmetric.
        let d = c * 0.7 / 2f64.sqrt();
        assert_eq!(p.eval(d, d), p.eval(c * 0.7, 0.0));
    }

    #[test]
    fn focused_pupil_is_real() {
        let p = Pupil::new(1.0, 193.0, 0.0);
        let v = p.eval(0.003, 0.001);
        assert_eq!(v.im, 0.0);
        assert_eq!(v.re, 1.0);
    }

    #[test]
    fn defocus_is_pure_phase_inside_cutoff() {
        let p = Pupil::new(1.35, 193.0, 80.0);
        let v = p.eval(0.004, 0.002);
        assert!((v.abs() - 1.0).abs() < 1e-12);
        assert!(v.im != 0.0, "defocus must introduce phase");
    }

    #[test]
    fn defocus_phase_is_quadratic_in_frequency() {
        let p = Pupil::new(1.35, 193.0, 50.0);
        let phase_at = |f: f64| p.eval(f, 0.0).im.atan2(p.eval(f, 0.0).re);
        let p1 = phase_at(0.002);
        let p2 = phase_at(0.004);
        assert!((p2 - 4.0 * p1).abs() < 1e-9, "{p2} vs {}", 4.0 * p1);
    }

    #[test]
    fn zero_defocus_at_dc_regardless() {
        let p = Pupil::new(1.35, 193.0, 100.0);
        assert_eq!(p.eval(0.0, 0.0), Complex64::ONE);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_na_panics() {
        let _ = Pupil::new(0.0, 193.0, 0.0);
    }
}
