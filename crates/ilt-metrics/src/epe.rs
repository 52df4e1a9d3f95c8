//! Edge placement error (Definition 3 of the paper).
//!
//! Measurement points are distributed along the horizontal and vertical
//! contour segments of the *target* image; at each point the printed
//! contour's displacement along the edge normal is measured, and a
//! violation is flagged when it reaches the threshold (15 nm in the ICCAD
//! 2013 setting the paper follows).

use ilt_field::Field2D;

/// Orientation of a target contour segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EdgeOrientation {
    /// Edge runs horizontally; its normal is vertical.
    Horizontal,
    /// Edge runs vertically; its normal is horizontal.
    Vertical,
}

/// One EPE measurement site and its outcome.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpeSite {
    /// Row of the measurement point (an inside pixel adjacent to the edge).
    pub row: usize,
    /// Column of the measurement point.
    pub col: usize,
    /// Orientation of the measured edge.
    pub orientation: EdgeOrientation,
    /// Outward normal of the target edge, as (drow, dcol) signs.
    pub outward: (i8, i8),
    /// Signed displacement in nm: positive when the printed contour grew
    /// outward past the target edge, negative when it receded inward.
    /// Saturates at the threshold when no contour is found in the window.
    pub displacement_nm: f64,
    /// Whether this site violates the EPE threshold
    /// (`|displacement| >= threshold`).
    pub violation: bool,
}

/// Result of an EPE evaluation over a full clip.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EpeResult {
    /// All measurement sites with their outcomes.
    pub sites: Vec<EpeSite>,
}

impl EpeResult {
    /// Number of violating sites — the paper's "EPE" column.
    pub fn violations(&self) -> usize {
        self.sites.iter().filter(|s| s.violation).count()
    }

    /// Total number of measurement points.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }
}

/// Definition 3's violation threshold, nm.
const THRESHOLD_NM: f64 = 15.0;
/// Distance from segment ends within which no point is placed, nm.
const CORNER_GUARD_NM: f64 = 10.0;

/// Edge-placement-error checker.
///
/// # Examples
///
/// ```
/// use ilt_field::Field2D;
/// use ilt_metrics::EpeChecker;
///
/// let target = Field2D::from_fn(64, 64, |r, c| {
///     if (16..48).contains(&r) && (16..48).contains(&c) { 1.0 } else { 0.0 }
/// });
/// // A perfect print has zero violations.
/// let checker = EpeChecker::default();
/// assert_eq!(checker.check(&target, &target).violations(), 0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpeChecker {
    /// Spacing between measurement points along an edge, in nm (40 nm in
    /// the contest convention).
    pub spacing_nm: f64,
    /// Physical pixel pitch in nm.
    pub nm_per_px: f64,
}

impl Default for EpeChecker {
    fn default() -> Self {
        EpeChecker { spacing_nm: 40.0, nm_per_px: 1.0 }
    }
}

impl EpeChecker {
    /// Evaluates EPE of `printed` against `target` (both binary, foreground
    /// `>= 0.5`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn check(&self, target: &Field2D, printed: &Field2D) -> EpeResult {
        assert_eq!(target.shape(), printed.shape(), "target/printed shape mismatch");
        let mut sites = Vec::new();
        for seg in extract_segments(target) {
            for &(r, c) in &self.measure_points(&seg) {
                let d = self.displacement(printed, r, c, seg.orientation, seg.outward);
                sites.push(EpeSite {
                    row: r,
                    col: c,
                    orientation: seg.orientation,
                    outward: (seg.outward.0 as i8, seg.outward.1 as i8),
                    displacement_nm: d,
                    violation: d.abs() >= THRESHOLD_NM,
                });
            }
        }
        EpeResult { sites }
    }

    /// Places measurement points along a segment: spaced `spacing_nm`,
    /// avoiding [`CORNER_GUARD_NM`] at the ends, with at least a midpoint.
    fn measure_points(&self, seg: &Segment) -> Vec<(usize, usize)> {
        let spacing = (self.spacing_nm / self.nm_per_px).max(1.0) as usize;
        let guard = (CORNER_GUARD_NM / self.nm_per_px).round() as usize;
        let len = seg.len();
        let mut offsets = Vec::new();
        if len > 2 * guard + 1 {
            let usable = len - 2 * guard;
            let count = usable.div_ceil(spacing);
            // Center the points in the usable span.
            let pitch = usable as f64 / count as f64;
            for i in 0..count {
                offsets.push(guard + (pitch * (i as f64 + 0.5)) as usize);
            }
        } else {
            offsets.push(len / 2);
        }
        offsets.into_iter().map(|o| seg.point_at(o)).collect()
    }

    /// Signed distance (nm) from the target edge to the printed contour
    /// along the edge normal: positive when the print grew outward,
    /// negative when it receded. Saturates at `+-THRESHOLD_NM` when no
    /// crossing is found in the window.
    fn displacement(
        &self,
        printed: &Field2D,
        r: usize,
        c: usize,
        orientation: EdgeOrientation,
        outward: (isize, isize),
    ) -> f64 {
        // (r, c) is the inside pixel hugging the edge. The printed contour
        // is where `printed` crosses 0.5 walking along +-normal.
        let (rows, cols) = printed.shape();
        let max_steps = (THRESHOLD_NM / self.nm_per_px).ceil() as isize + 1;
        let on = |rr: isize, cc: isize| -> bool {
            rr >= 0
                && cc >= 0
                && (rr as usize) < rows
                && (cc as usize) < cols
                && printed[(rr as usize, cc as usize)] >= 0.5
        };
        let (dr, dc) = match orientation {
            EdgeOrientation::Horizontal => (outward.0, 0),
            EdgeOrientation::Vertical => (0, outward.1),
        };
        let inside_printed = on(r as isize, c as isize);
        // Walk in the direction where the contour must be: outward if the
        // measurement pixel prints (edge is at or beyond the target edge),
        // inward if it does not (printed contour receded).
        let (step, sign) = if inside_printed { (1, 1.0) } else { (-1, -1.0) };
        for t in 0..max_steps {
            let rr = r as isize + (t + 1) * step * dr;
            let cc = c as isize + (t + 1) * step * dc;
            if on(rr, cc) != inside_printed {
                // Contour sits between step t and t+1 from the edge pixel;
                // the target edge itself is half a pixel outward of (r, c).
                return sign * (t as f64 + 0.5) * self.nm_per_px;
            }
        }
        sign * THRESHOLD_NM
    }
}

/// A maximal straight contour segment of the target.
#[derive(Clone, Debug)]
struct Segment {
    orientation: EdgeOrientation,
    /// Fixed coordinate: the row (horizontal) or column (vertical) of the
    /// *inside* pixels hugging the edge.
    fixed: usize,
    /// Running-coordinate range `[start, end)`.
    start: usize,
    end: usize,
    /// Outward normal as (drow, dcol) signs.
    outward: (isize, isize),
}

impl Segment {
    fn len(&self) -> usize {
        self.end - self.start
    }

    fn point_at(&self, offset: usize) -> (usize, usize) {
        let run = (self.start + offset).min(self.end - 1);
        match self.orientation {
            EdgeOrientation::Horizontal => (self.fixed, run),
            EdgeOrientation::Vertical => (run, self.fixed),
        }
    }
}

/// Extracts maximal straight edge segments of the target's contour. A
/// segment is a run of inside pixels that all have an outside neighbor on
/// the same side.
fn extract_segments(target: &Field2D) -> Vec<Segment> {
    let (rows, cols) = target.shape();
    let on = |r: isize, c: isize| -> bool {
        r >= 0
            && c >= 0
            && (r as usize) < rows
            && (c as usize) < cols
            && target[(r as usize, c as usize)] >= 0.5
    };
    let mut segs = Vec::new();

    // Horizontal edges: inside pixel with an outside neighbor above/below.
    for side in [(-1isize, 0isize), (1, 0)] {
        for r in 0..rows {
            let mut c = 0;
            while c < cols {
                let is_edge = on(r as isize, c as isize)
                    && !on(r as isize + side.0, c as isize + side.1);
                if is_edge {
                    let start = c;
                    while c < cols
                        && on(r as isize, c as isize)
                        && !on(r as isize + side.0, c as isize + side.1)
                    {
                        c += 1;
                    }
                    segs.push(Segment {
                        orientation: EdgeOrientation::Horizontal,
                        fixed: r,
                        start,
                        end: c,
                        outward: side,
                    });
                } else {
                    c += 1;
                }
            }
        }
    }

    // Vertical edges: inside pixel with an outside neighbor left/right.
    for side in [(0isize, -1isize), (0, 1)] {
        for c in 0..cols {
            let mut r = 0;
            while r < rows {
                let is_edge = on(r as isize, c as isize)
                    && !on(r as isize + side.0, c as isize + side.1);
                if is_edge {
                    let start = r;
                    while r < rows
                        && on(r as isize, c as isize)
                        && !on(r as isize + side.0, c as isize + side.1)
                    {
                        r += 1;
                    }
                    segs.push(Segment {
                        orientation: EdgeOrientation::Vertical,
                        fixed: c,
                        start,
                        end: r,
                        outward: side,
                    });
                } else {
                    r += 1;
                }
            }
        }
    }
    segs
}

#[cfg(test)]
mod tests {
    use super::*;
    use ilt_geom::{rasterize_rects, Rect};

    fn square(rows: usize, r: Rect) -> Field2D {
        rasterize_rects(&[r], rows, rows)
    }

    #[test]
    fn perfect_print_has_zero_violations() {
        let t = square(128, Rect::new(30, 30, 90, 90));
        let res = EpeChecker::default().check(&t, &t);
        assert!(res.num_sites() > 0);
        assert_eq!(res.violations(), 0);
        for s in &res.sites {
            assert!(s.displacement_nm <= 1.0, "{s:?}");
        }
    }

    #[test]
    fn uniformly_grown_print_within_threshold_passes() {
        let t = square(128, Rect::new(30, 30, 90, 90));
        let p = square(128, Rect::new(25, 25, 95, 95)); // grown by 5 px
        let res = EpeChecker::default().check(&t, &p);
        assert_eq!(res.violations(), 0);
        for s in &res.sites {
            assert!((s.displacement_nm - 5.5).abs() < 1.01, "{s:?}");
        }
    }

    #[test]
    fn severely_shrunk_print_violates_everywhere() {
        let t = square(128, Rect::new(30, 30, 90, 90));
        let p = square(128, Rect::new(50, 50, 70, 70)); // receded by 20 px
        let res = EpeChecker::default().check(&t, &p);
        assert!(res.num_sites() > 0);
        assert_eq!(res.violations(), res.num_sites());
    }

    #[test]
    fn missing_print_is_all_violations() {
        let t = square(64, Rect::new(10, 10, 50, 50));
        let p = Field2D::zeros(64, 64);
        let res = EpeChecker::default().check(&t, &p);
        assert_eq!(res.violations(), res.num_sites());
    }

    #[test]
    fn one_bad_edge_is_localized() {
        // Target square; print matches except the right edge recedes 20 px.
        let t = square(128, Rect::new(30, 30, 90, 90));
        let p = square(128, Rect::new(30, 30, 90, 70));
        let res = EpeChecker::default().check(&t, &p);
        assert!(res.violations() > 0);
        assert!(res.violations() < res.num_sites());
        // All violations are vertical-edge sites on the receded side.
        for s in res.sites.iter().filter(|s| s.violation) {
            assert_eq!(s.orientation, EdgeOrientation::Vertical);
            assert!(s.col >= 70, "{s:?}");
        }
    }

    #[test]
    fn spacing_controls_site_count() {
        let t = square(256, Rect::new(20, 20, 236, 236));
        let coarse = EpeChecker { spacing_nm: 80.0, ..EpeChecker::default() };
        let fine = EpeChecker { spacing_nm: 20.0, ..EpeChecker::default() };
        let nc = coarse.check(&t, &t).num_sites();
        let nf = fine.check(&t, &t).num_sites();
        assert!(nf > nc * 2, "fine {nf} vs coarse {nc}");
    }

    #[test]
    fn short_segments_get_a_midpoint() {
        // A 6x6 feature is shorter than 2 * corner guard: one point per edge.
        let t = square(64, Rect::new(30, 30, 36, 36));
        let res = EpeChecker::default().check(&t, &t);
        assert_eq!(res.num_sites(), 4);
    }

    #[test]
    fn nm_per_px_scales_distances() {
        // With 4 nm pixels, a 4-pixel recession is 16 nm >= 15 nm threshold.
        let t = square(64, Rect::new(16, 16, 48, 48));
        let p = square(64, Rect::new(16, 21, 48, 48)); // left edge recedes 5 px
        let checker = EpeChecker { nm_per_px: 4.0, ..EpeChecker::default() };
        let res = checker.check(&t, &p);
        assert!(res.violations() > 0);
        let checker1 = EpeChecker { nm_per_px: 1.0, ..EpeChecker::default() };
        assert_eq!(checker1.check(&t, &p).violations(), 0, "5 nm at 1 nm/px is fine");
    }
}
