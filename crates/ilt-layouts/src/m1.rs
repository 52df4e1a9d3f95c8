//! Synthetic M1-layer benchmark cases.
//!
//! The ICCAD 2013 contest layouts (cases 1–10) and the ten extended cases
//! released with Neural-ILT (cases 11–20) are not redistributable, so we
//! synthesize stand-ins that preserve what the experiments depend on:
//!
//! * the published polygon **area** of each case (Tables II and IV of the
//!   paper), matched to within one balance-wire quantum (64 nm^2),
//! * the 2048 nm clip at 32 nm-node M1 feature scale (60–80 nm wires),
//! * deterministic geometry (same case id -> same layout, forever).
//!
//! Patterns are ladders of horizontal wires (with T-stubs for shape
//! variety) plus a column field of vertical wires, finished with one
//! "balance wire" whose length makes the total area land on the published
//! value.

use crate::layout::{Layout, NmRect};

/// Side length of every benchmark clip, matching the contest's 2048 x 2048
/// nm layout window.
pub const CLIP_NM: u32 = 2048;

/// Published areas (nm^2) of ICCAD 2013 cases 1–10 (Table II of the paper).
pub const ICCAD2013_AREAS: [u64; 10] = [
    215344, 169280, 213504, 82560, 281958, 286234, 229149, 128544, 317581, 102400,
];

/// Published areas (nm^2) of the extended cases 11–20 (Table IV).
pub const EXTENDED_AREAS: [u64; 10] = [
    494560, 448496, 492720, 361776, 561174, 565450, 445365, 407760, 596797, 381616,
];

/// The synthetic stand-in for ICCAD 2013 `case1`..`case10`.
///
/// # Panics
///
/// Panics unless `1 <= id <= 10`.
///
/// # Examples
///
/// ```
/// use ilt_layouts::{iccad2013_case, ICCAD2013_AREAS};
///
/// let case4 = iccad2013_case(4);
/// let err = case4.area_nm2().abs_diff(ICCAD2013_AREAS[3]);
/// assert!(err < 64, "area off by {err} nm^2");
/// ```
pub fn iccad2013_case(id: usize) -> Layout {
    assert!((1..=10).contains(&id), "ICCAD 2013 has cases 1..=10, got {id}");
    if id == 10 {
        // The real case 10 is a single 320 x 320 nm square (area 102400).
        return Layout::new(
            "case10",
            CLIP_NM,
            vec![NmRect::new(864, 864, 1184, 1184)],
        );
    }
    synth_case(format!("case{id}"), ICCAD2013_AREAS[id - 1], id as u64)
}

/// The synthetic stand-in for extended `case11`..`case20` (denser clips
/// used by Table IV).
///
/// # Panics
///
/// Panics unless `11 <= id <= 20`.
pub fn extended_case(id: usize) -> Layout {
    assert!((11..=20).contains(&id), "extended cases are 11..=20, got {id}");
    synth_case(format!("case{id}"), EXTENDED_AREAS[id - 11], id as u64 * 31 + 7)
}

/// Benchmark clip `id` of either family: [`iccad2013_case`] for 1..=10,
/// [`extended_case`] for 11..=20 — the one place a case id from a command
/// line, a query string or a table selector becomes a layout.
///
/// # Errors
///
/// A message naming the valid ranges for any other id.
pub fn m1_case(id: usize) -> Result<Layout, String> {
    match id {
        1..=10 => Ok(iccad2013_case(id)),
        11..=20 => Ok(extended_case(id)),
        _ => Err(format!("case ids are 1..=10 (ICCAD) or 11..=20 (extended), got {id}")),
    }
}

/// Tiny deterministic LCG; `rand` is reserved for the via sampler where
/// rejection sampling wants a real RNG.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// Uniform value in `[lo, hi]`.
    fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next() % u64::from(hi - lo + 1)) as u32
    }
}

fn synth_case(name: String, target_area: u64, seed: u64) -> Layout {
    let mut rng = Lcg(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
    let mut rects: Vec<NmRect> = Vec::new();
    let mut remaining = target_area;

    // Stop adding character features once the leftover fits comfortably in
    // the balance wires (keeps their lengths in a realistic range).
    const BALANCE_MIN: u64 = 24_000;
    const BALANCE_MAX: u64 = 60_000;

    // Horizontal wire ladder: bands at 140 nm pitch between y = 260 and
    // y = 1380; each wire (plus optional T-stub) stays inside its band.
    let mut band = 0u32;
    while remaining > BALANCE_MAX && band < 8 {
        let y0 = 260 + band * 140;
        let w = [64u32, 72, 80][(rng.next() % 3) as usize];
        let len = rng.range(360, 980);
        let x0 = rng.range(240, 2048 - len - 240);
        let wire = NmRect::new(x0, y0, x0 + len, y0 + w);
        if remaining < wire.area() + BALANCE_MIN {
            break;
        }
        remaining -= wire.area();
        rects.push(wire);

        // T-stub on top of some wires for shape variety.
        if rng.next() % 2 == 0 && remaining > BALANCE_MAX {
            let sw = rng.range(64, 96);
            let sx = x0 + rng.range(40, len - sw - 40);
            let stub = NmRect::new(sx, y0 + w, sx + sw, y0 + w + 48);
            if remaining >= stub.area() + BALANCE_MIN {
                remaining -= stub.area();
                rects.push(stub);
            }
        }
        band += 1;
    }

    // Vertical wire field: columns at 150 nm pitch in the top region.
    let mut col = 0u32;
    while remaining > BALANCE_MAX && col < 11 {
        let x0 = 260 + col * 150;
        let w = [64u32, 72][(rng.next() % 2) as usize];
        let h = rng.range(300, 480);
        let y0 = rng.range(1460, 1980 - h);
        let wire = NmRect::new(x0, y0, x0 + w, y0 + h);
        if remaining < wire.area() + BALANCE_MIN {
            break;
        }
        remaining -= wire.area();
        rects.push(wire);
        col += 1;
    }

    // Balance wires: up to three 64 nm-tall rows in a reserved bottom strip
    // (y < 260, below the ladder), with total length chosen so the area
    // lands on the published value. The sub-64 nm^2 residue is the only
    // mismatch.
    let mut len_total = (remaining / 64) as u32;
    assert!(
        (1..=3 * 1600).contains(&len_total),
        "balance length {len_total} out of range for {name} (remaining {remaining})"
    );
    for row in 0..3u32 {
        if len_total == 0 {
            break;
        }
        let len = len_total.min(1600);
        let x0 = (2048 - len) / 2;
        let y0 = 24 + row * 80;
        rects.push(NmRect::new(x0, y0, x0 + len, y0 + 64));
        len_total -= len;
    }

    Layout::new(name, CLIP_NM, rects)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_iccad_cases_match_published_areas() {
        for (id, &want) in (1..=10).zip(&ICCAD2013_AREAS) {
            let layout = iccad2013_case(id);
            let err = layout.area_nm2().abs_diff(want);
            assert!(err < 64, "case{id}: area {} vs published {want}", layout.area_nm2());
        }
    }

    #[test]
    fn all_extended_cases_match_published_areas() {
        for (id, &want) in (11..=20).zip(&EXTENDED_AREAS) {
            let layout = extended_case(id);
            let err = layout.area_nm2().abs_diff(want);
            assert!(err < 64, "case{id}: area {} vs published {want}", layout.area_nm2());
        }
    }

    #[test]
    fn case10_is_the_contest_square() {
        let layout = iccad2013_case(10);
        assert_eq!(layout.rects().len(), 1);
        assert_eq!(layout.area_nm2(), 102400);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(iccad2013_case(3), iccad2013_case(3));
        assert_eq!(extended_case(17), extended_case(17));
    }

    #[test]
    fn cases_are_distinct() {
        let a = iccad2013_case(1);
        let b = iccad2013_case(2);
        assert_ne!(a.rects(), b.rects());
    }

    #[test]
    fn extended_cases_have_more_geometry_than_iccad() {
        let avg_iccad: f64 =
            (1..=10).map(|id| iccad2013_case(id).rects().len() as f64).sum::<f64>() / 10.0;
        let avg_ext: f64 =
            (11..=20).map(|id| extended_case(id).rects().len() as f64).sum::<f64>() / 10.0;
        assert!(
            avg_ext > avg_iccad,
            "extended cases should carry more shapes: {avg_ext} vs {avg_iccad}"
        );
    }

    #[test]
    fn features_are_m1_scale() {
        for layout in (1..=10).map(iccad2013_case) {
            for r in layout.rects() {
                let w = (r.x1 - r.x0).min(r.y1 - r.y0);
                assert!((48..=320).contains(&w), "{}: feature width {w}", layout.name());
            }
        }
    }

    #[test]
    fn rasterization_round_trips_at_power_of_two_grids() {
        let layout = iccad2013_case(1);
        for grid in [256usize, 512] {
            let img = layout.rasterize(grid);
            let px_area = img.count_on() as f64 * layout.nm_per_px(grid).powi(2);
            let rel = (px_area - layout.area_nm2() as f64).abs() / layout.area_nm2() as f64;
            assert!(rel < 0.08, "grid {grid}: relative area error {rel}");
        }
    }

    #[test]
    fn m1_case_spans_both_families_and_rejects_the_rest() {
        assert_eq!(m1_case(3).unwrap(), iccad2013_case(3));
        assert_eq!(m1_case(17).unwrap(), extended_case(17));
        for id in [0, 21, 999] {
            assert!(m1_case(id).unwrap_err().contains("case ids are 1..=10"), "{id}");
        }
    }

    #[test]
    #[should_panic(expected = "cases 1..=10")]
    fn out_of_range_case_panics() {
        let _ = iccad2013_case(11);
    }
}
