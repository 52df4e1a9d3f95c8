//! Optical configuration of the lithography system.

use crate::source::SourceSpec;

/// Full description of the imaging system and simulation grid.
///
/// The defaults reproduce the ICCAD 2013 contest regime targeted by the
/// paper: a 193 nm immersion scanner (NA 1.35) with annular illumination,
/// simulated on a 1 nm/pixel grid with `N_k = 24` SOCS kernels and a
/// constant-threshold resist at `I_th = 0.225`.
///
/// # Examples
///
/// ```
/// use ilt_optics::OpticsConfig;
///
/// let cfg = OpticsConfig { grid: 512, ..OpticsConfig::default() };
/// assert!(cfg.kernel_size() % 2 == 1);
/// assert!(cfg.kernel_size() <= 512);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct OpticsConfig {
    /// Simulation grid size `N` (pixels per side, power of two).
    pub grid: usize,
    /// Physical pixel pitch in nanometres.
    pub nm_per_px: f64,
    /// Numerical aperture of the projection lens.
    pub na: f64,
    /// Exposure wavelength in nanometres.
    pub wavelength_nm: f64,
    /// Illumination shape.
    pub source: SourceSpec,
    /// Defocus distance (nm) used by the "inner" process corner.
    pub defocus_nm: f64,
    /// Number of SOCS kernels `N_k` kept from the TCC eigendecomposition.
    pub num_kernels: usize,
    /// Frequency-domain kernel support `P` (odd). `None` derives the
    /// smallest odd size covering the pupil cutoff on this grid.
    pub kernel_size: Option<usize>,
    /// Resist threshold `I_th` (Eq. 1), in units of the open-frame intensity.
    pub resist_threshold: f64,
    /// Resist sigmoid steepness `alpha` (Eq. 9).
    pub resist_steepness: f64,
}

impl Default for OpticsConfig {
    fn default() -> Self {
        OpticsConfig {
            grid: 2048,
            nm_per_px: 1.0,
            na: 1.35,
            wavelength_nm: 193.0,
            source: SourceSpec::Annular { sigma_in: 0.6, sigma_out: 0.9 },
            defocus_nm: 60.0,
            num_kernels: 24,
            kernel_size: None,
            resist_threshold: 0.225,
            resist_steepness: 50.0,
        }
    }
}

impl OpticsConfig {
    /// Spatial-frequency step of the simulation grid, `1 / (N * nm_per_px)`
    /// in 1/nm.
    ///
    /// This step is invariant under the paper's low-resolution reduction
    /// (`N/s` samples at `s * nm_per_px` pitch), which is exactly why the
    /// same `P x P` kernel block serves every resolution level (Eq. 8).
    pub fn freq_step(&self) -> f64 {
        1.0 / (self.grid as f64 * self.nm_per_px)
    }

    /// Coherent pupil cutoff frequency `NA / lambda` in 1/nm.
    pub fn cutoff(&self) -> f64 {
        self.na / self.wavelength_nm
    }

    /// Effective frequency-domain kernel support `P` (odd).
    ///
    /// Either the explicit [`OpticsConfig::kernel_size`], or the smallest odd
    /// size whose band `[-(P-1)/2, (P-1)/2] * freq_step` covers the full TCC
    /// support `(1 + sigma_max) * NA / lambda` (partially coherent imaging
    /// spreads kernel spectra beyond the coherent cutoff), clamped to the
    /// grid size.
    pub fn kernel_size(&self) -> usize {
        if let Some(p) = self.kernel_size {
            assert!(p % 2 == 1, "kernel size must be odd, got {p}");
            return p.min(self.grid);
        }
        let band = (1.0 + self.source.max_sigma()) * self.cutoff();
        let half_bins = (band / self.freq_step()).ceil() as usize;
        (2 * half_bins + 1).min(self.grid_odd_cap())
    }

    fn grid_odd_cap(&self) -> usize {
        // Largest odd size not exceeding the grid.
        if self.grid % 2 == 0 {
            self.grid - 1
        } else {
            self.grid
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.grid.is_power_of_two() {
            return Err(format!("grid {} must be a power of two", self.grid));
        }
        if self.nm_per_px <= 0.0 {
            return Err("pixel pitch must be positive".into());
        }
        if self.na <= 0.0 || self.wavelength_nm <= 0.0 {
            return Err("NA and wavelength must be positive".into());
        }
        if self.num_kernels == 0 {
            return Err("at least one SOCS kernel is required".into());
        }
        if self.kernel_size() > self.grid {
            return Err(format!(
                "kernel size {} exceeds grid {}",
                self.kernel_size(),
                self.grid
            ));
        }
        if !(0.0..1.0).contains(&self.resist_threshold) {
            return Err("resist threshold must lie in (0, 1)".into());
        }
        self.source.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_regime() {
        let cfg = OpticsConfig::default();
        assert_eq!(cfg.grid, 2048);
        assert_eq!(cfg.num_kernels, 24);
        assert!((cfg.resist_threshold - 0.225).abs() < 1e-12);
        cfg.validate().unwrap();
        // On the paper's grid the derived kernel support covers the full
        // partially coherent band (1 + 0.9) * 1.35/193 ~ 0.0133 /nm at a
        // step of 1/2048 /nm -> 28 bins -> P = 57. (The contest's P = 35 is
        // a truncation of the same band and can be requested explicitly.)
        let p = cfg.kernel_size();
        assert!(p % 2 == 1 && (53..=61).contains(&p), "p = {p}");
    }

    #[test]
    fn explicit_kernel_size_wins() {
        let cfg = OpticsConfig { kernel_size: Some(35), ..OpticsConfig::default() };
        assert_eq!(cfg.kernel_size(), 35);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_size_panics() {
        let cfg = OpticsConfig { kernel_size: Some(34), ..OpticsConfig::default() };
        let _ = cfg.kernel_size();
    }

    #[test]
    fn kernel_size_scales_with_grid() {
        // Halving the grid halves the number of bins under the cutoff.
        let big = OpticsConfig { grid: 2048, ..OpticsConfig::default() };
        let small = OpticsConfig { grid: 512, ..OpticsConfig::default() };
        assert!(small.kernel_size() < big.kernel_size());
        small.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = OpticsConfig { grid: 100, ..OpticsConfig::default() };
        assert!(cfg.validate().is_err());
        cfg.grid = 256;
        cfg.num_kernels = 0;
        assert!(cfg.validate().is_err());
        cfg.num_kernels = 8;
        cfg.resist_threshold = 1.5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn freq_step_invariant_under_reduction() {
        let full = OpticsConfig { grid: 1024, nm_per_px: 1.0, ..OpticsConfig::default() };
        let reduced = OpticsConfig { grid: 256, nm_per_px: 4.0, ..OpticsConfig::default() };
        assert!((full.freq_step() - reduced.freq_step()).abs() < 1e-15);
    }
}
