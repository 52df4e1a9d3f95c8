//! Random via-layer patterns (Section IV-C of the paper).
//!
//! The paper evaluates on fifteen 2048 x 2048 via clips drawn from the
//! dataset of [14] (attention-based hotspot detection). That dataset is not
//! redistributable, so we sample synthetic via arrays with the same
//! character: small square contacts (~70 nm) scattered with a minimum
//! center-to-center spacing, some in dense clusters, some isolated —
//! exactly the regime where "via shapes are smaller than shapes on the M1
//! layer and require finer adjustments".

use crate::layout::{Layout, NmRect};
use crate::m1::CLIP_NM;
use crate::rng::Xorshift64Star;

/// Samples a random via clip: 25 contacts of ~70 nm at 250 nm minimum
/// center-to-center spacing — dense enough for optical interaction between
/// neighbors — with a 300 nm free margin at the clip border.
///
/// Deterministic per seed.
///
/// # Examples
///
/// ```
/// use ilt_layouts::via_pattern;
///
/// let clip = via_pattern(3);
/// assert_eq!(clip.rects().len(), 25);
/// assert_eq!(clip, via_pattern(3)); // deterministic
/// ```
pub fn via_pattern(seed: u64) -> Layout {
    const VIA_NM: u32 = 70;
    const COUNT: usize = 25;
    const MIN_SPACING_NM: i64 = 250;
    const MARGIN_NM: u32 = 300;
    let mut rng = Xorshift64Star::new(seed.wrapping_mul(0xA076_1D64_78BD_642F));
    let (lo, hi) = (MARGIN_NM, CLIP_NM - MARGIN_NM - VIA_NM);

    let mut centers: Vec<(i64, i64)> = Vec::with_capacity(COUNT);
    let mut rects = Vec::with_capacity(COUNT);
    let mut attempts = 0usize;
    let mut stuck = 0usize;
    while rects.len() < COUNT {
        attempts += 1;
        assert!(
            attempts < 1_000_000,
            "could not place {COUNT} vias with {MIN_SPACING_NM} nm spacing"
        );
        // Sequential placement can jam (no room left for the remaining
        // vias even though a global arrangement exists). Restart from an
        // empty clip — the RNG stream continues, so the result is still a
        // pure function of the seed.
        stuck += 1;
        if stuck > 4000 {
            centers.clear();
            rects.clear();
            stuck = 0;
        }
        let x0 = rng.gen_range_u32(lo, hi);
        let y0 = rng.gen_range_u32(lo, hi);
        let cx = i64::from(x0) + i64::from(VIA_NM) / 2;
        let cy = i64::from(y0) + i64::from(VIA_NM) / 2;
        if centers
            .iter()
            .all(|&(px, py)| (px - cx).pow(2) + (py - cy).pow(2) >= MIN_SPACING_NM.pow(2))
        {
            centers.push((cx, cy));
            rects.push(NmRect::new(x0, y0, x0 + VIA_NM, y0 + VIA_NM));
            stuck = 0;
        }
    }
    rects.sort();
    Layout::new(format!("via{seed}"), CLIP_NM, rects)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spacing_constraint_is_respected() {
        let clip = via_pattern(7);
        let centers: Vec<(i64, i64)> = clip
            .rects()
            .iter()
            .map(|r| (i64::from(r.x0) + 35, i64::from(r.y0) + 35))
            .collect();
        for i in 0..centers.len() {
            for j in i + 1..centers.len() {
                let d2 = (centers[i].0 - centers[j].0).pow(2)
                    + (centers[i].1 - centers[j].1).pow(2);
                assert!(d2 >= 250 * 250, "vias {i} and {j} too close");
            }
        }
    }

    #[test]
    fn all_vias_have_requested_size() {
        let clip = via_pattern(1);
        for r in clip.rects() {
            assert_eq!(r.x1 - r.x0, 70);
            assert_eq!(r.y1 - r.y0, 70);
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(via_pattern(1), via_pattern(2));
    }

    #[test]
    fn suite_has_fifteen_clips() {
        // The fifteen clips of Section IV-C: seeds 0..15.
        for seed in 0..15 {
            assert_eq!(via_pattern(seed).rects().len(), 25, "seed {seed}");
        }
    }

    #[test]
    fn margin_is_respected() {
        let clip = via_pattern(5);
        for r in clip.rects() {
            assert!(r.x0 >= 300 && r.y0 >= 300);
            assert!(r.x1 <= CLIP_NM - 300 && r.y1 <= CLIP_NM - 300);
        }
    }
}
