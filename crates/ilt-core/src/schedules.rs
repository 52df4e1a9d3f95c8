//! Named schedules from the paper's experimental section.

use crate::optimizer::Stage;

/// "Our-fast" (Tables II/III): 35 low-resolution iterations at `s = 4`
/// plus 5 high-resolution iterations at `s = 8`.
pub fn our_fast() -> Vec<Stage> {
    vec![Stage::low_res(4, 35), Stage::high_res(8, 5)]
}

/// "Our-exact" (Tables II/III): 80 low-resolution iterations at `s = 4`
/// plus 10 high-resolution iterations at `s = 8`.
pub fn our_exact() -> Vec<Stage> {
    vec![Stage::low_res(4, 80), Stage::high_res(8, 10)]
}

/// The via-layer recipe (Section IV-C): 100/100/50 low-resolution
/// iterations at `s = 8, 4, 2`, then 15 high-resolution iterations at
/// `s = 8`. Budgets are upper bounds; pair with an early-exit window of 15.
pub fn via_recipe() -> Vec<Stage> {
    vec![
        Stage::low_res(8, 100),
        Stage::low_res(4, 100),
        Stage::low_res(2, 50),
        Stage::high_res(8, 15),
    ]
}

/// Clamps scale factors so the **effective pixel pitch** of the reduced
/// grid (`scale * nm_per_px`) never exceeds `max_eff_nm`.
///
/// The paper's `s = 4` on a 1 nm/px grid is a 4 nm effective pitch; masks
/// quantized much coarser than ~8 nm can no longer represent good
/// solutions (low-resolution ILT then *hurts* quality instead of merely
/// approximating it). When running at reduced grid resolutions, clamp the
/// paper's schedules with this before [`clamp_scales`].
///
/// # Examples
///
/// ```
/// use ilt_core::schedules::{clamp_effective_pitch, our_fast};
///
/// // On a 4 nm/px grid, s = 4 would mean 16 nm pixels: clamp to s = 2.
/// let clamped = clamp_effective_pitch(&our_fast(), 4.0, 8.0);
/// assert_eq!(clamped[0].scale, 2);
/// ```
pub fn clamp_effective_pitch(
    schedule: &[Stage],
    nm_per_px: f64,
    max_eff_nm: f64,
) -> Vec<Stage> {
    schedule
        .iter()
        .map(|st| {
            let mut scale = st.scale;
            while scale > 1 && scale as f64 * nm_per_px > max_eff_nm {
                scale /= 2;
            }
            Stage { scale, ..*st }
        })
        .collect()
}

/// Rescales a schedule's scale factors for a grid smaller than the paper's
/// 2048, clamping so the reduced size never falls below `min_size` pixels.
///
/// Running "Our-fast" on a 512-pixel grid with `s = 8` would leave a
/// 64-pixel simulation — often below the kernel support. This helper keeps
/// the *iteration structure* of a schedule while adapting scales.
pub fn clamp_scales(schedule: &[Stage], grid: usize, min_size: usize) -> Vec<Stage> {
    schedule
        .iter()
        .map(|st| {
            let mut scale = st.scale;
            while scale > 1 && grid / scale < min_size {
                scale /= 2;
            }
            Stage { scale, ..*st }
        })
        .collect()
}

/// The one schedule clamp every entry point applies (`ilt run`, the batch
/// runtime's jobs, `ilt tables`): [`clamp_effective_pitch`] to `max_eff_nm`,
/// then [`clamp_scales`] so each reduced grid stays at or above both 32 px
/// and the SOCS kernel support `kernel_size` — below it the downsampled
/// grid cannot hold one kernel and the simulator panics.
///
/// # Examples
///
/// ```
/// use ilt_core::schedules::{clamp_to_grid, our_fast};
///
/// // A 2048-nm clip at grid 256 (8 nm/px, P = 57): the pitch ceiling
/// // already answers s = 1; lifting it, 256 / 4 = 64 >= 57 keeps s = 4
/// // and 256 / 8 = 32 < 57 halves the high-res stage's s = 8.
/// assert!(clamp_to_grid(&our_fast(), 8.0, 8.0, 256, 57).iter().all(|s| s.scale == 1));
/// let lifted = clamp_to_grid(&our_fast(), 8.0, 64.0, 256, 57);
/// assert_eq!((lifted[0].scale, lifted[1].scale), (4, 4));
/// ```
pub fn clamp_to_grid(
    base: &[Stage],
    nm_per_px: f64,
    max_eff_nm: f64,
    grid: usize,
    kernel_size: usize,
) -> Vec<Stage> {
    let floor = 32.max(kernel_size.next_power_of_two());
    clamp_scales(&clamp_effective_pitch(base, nm_per_px, max_eff_nm), grid, floor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::StageKind;

    #[test]
    fn named_schedules_match_the_paper() {
        let fast = our_fast();
        assert_eq!(fast.len(), 2);
        assert_eq!((fast[0].kind, fast[0].scale, fast[0].iterations), (StageKind::LowRes, 4, 35));
        assert_eq!((fast[1].kind, fast[1].scale, fast[1].iterations), (StageKind::HighRes, 8, 5));

        let exact = our_exact();
        assert_eq!(exact[0].iterations, 80);
        assert_eq!(exact[1].iterations, 10);

        let via = via_recipe();
        assert_eq!(via.iter().map(|s| s.scale).collect::<Vec<_>>(), vec![8, 4, 2, 8]);
        assert_eq!(
            via.iter().map(|s| s.iterations).collect::<Vec<_>>(),
            vec![100, 100, 50, 15]
        );
    }

    #[test]
    fn clamping_preserves_structure() {
        let clamped = clamp_scales(&our_exact(), 512, 128);
        assert_eq!(clamped.len(), 2);
        assert_eq!(clamped[0].scale, 4); // 512/4 = 128 >= 128: kept
        assert_eq!(clamped[1].scale, 4); // 512/8 = 64 < 128: halved
        assert_eq!(clamped[0].iterations, 80);
        // Full-size grids keep the paper's scales.
        let full = clamp_scales(&our_exact(), 2048, 128);
        assert_eq!(full[1].scale, 8);
    }

    #[test]
    fn clamping_bottoms_out_at_one() {
        let clamped = clamp_scales(&via_recipe(), 64, 128);
        assert!(clamped.iter().all(|s| s.scale == 1));
    }

    #[test]
    fn effective_pitch_clamp() {
        // 1 nm pixels: the paper's scales survive untouched.
        let full = clamp_effective_pitch(&via_recipe(), 1.0, 8.0);
        assert_eq!(full.iter().map(|s| s.scale).collect::<Vec<_>>(), vec![8, 4, 2, 8]);
        // 4 nm pixels: everything clamps to s = 2 (8 nm effective).
        let coarse = clamp_effective_pitch(&via_recipe(), 4.0, 8.0);
        assert_eq!(coarse.iter().map(|s| s.scale).collect::<Vec<_>>(), vec![2, 2, 2, 2]);
        // 16 nm pixels: everything collapses to full resolution.
        let huge = clamp_effective_pitch(&via_recipe(), 16.0, 8.0);
        assert!(huge.iter().all(|s| s.scale == 1));
        // Iteration counts survive.
        assert_eq!(coarse[0].iterations, 100);
    }
}
